//! Seeded mutation test of the `.yala-trace` reader, `read_trace`, on
//! the committed `yalad` smoke fixture. Its header, its first and last
//! records and a fault line are each mutated — truncations, duplicated
//! and reordered keys, huge and negative integers, `-0`, `1e999`, 1 MiB
//! lines — and every mutant must be refused or read exactly as written:
//! `write_trace` of what was read is the mutant in the writer's own
//! spelling, which for every mutant but a changed value is the
//! unmutated file. None may panic.

use std::panic::{catch_unwind, AssertUnwindSafe};
use yala_fleet::{read_trace, write_trace};
use yala_telemetry::stable_hash64;

const FIXTURE: &str = include_str!("../../serve/fixtures/smoke.yala-trace");

/// Values written over each field: past `i64`, at its ends, past `u32`,
/// negative, not finite, and `-0`.
const BAD_NUMBERS: [&str; 9] = [
    "9223372036854775808",
    "18446744073709551615",
    "9223372036854775807",
    "4294967296",
    "-1",
    "-9223372036854775808",
    "-0",
    "1e999",
    "-1e999",
];

/// The `key:value` fields of a one-line object, split at the commas
/// outside its quoted strings (`"kinds":"flowstats,acl,nat"` is one).
fn fields(line: &str) -> Vec<String> {
    let mut out = vec![String::new()];
    let mut quoted = false;
    for c in line[1..line.len() - 1].chars() {
        match c {
            ',' if !quoted => out.push(String::new()),
            _ => {
                quoted ^= c == '"';
                out.last_mut().expect("one field at least").push(c);
            }
        }
    }
    out
}

/// The fixture with line `at` replaced by `line`.
fn with_line(at: usize, line: &str) -> String {
    let mut lines: Vec<&str> = FIXTURE.lines().collect();
    lines[at] = line;
    lines.iter().map(|l| format!("{l}\n")).collect()
}

/// Every mutant of fixture line `at` as `(mutant, the file it must read
/// as if accepted)`: each truncation of the file inside the line and of
/// the line in place, each field overwritten by and duplicated with each
/// bad number, 16 seeded key orders, a repeated line, and 1 MiB string,
/// key, number and junk lines.
fn mutants(at: usize) -> Vec<(String, String)> {
    let line = FIXTURE.lines().nth(at).expect("a fixture line");
    let start = FIXTURE.find(line).expect("the line is in the fixture");
    let fs = fields(line);
    let join = |fs: &[String]| format!("{{{}}}", fs.join(","));
    let same = |mutant: String| (mutant, FIXTURE.to_string());
    let mut out = Vec::new();
    for n in 0..line.len() {
        out.push(same(FIXTURE[..start + n].to_string()));
        out.push(same(with_line(at, &line[..n])));
    }
    for (i, field) in fs.iter().enumerate() {
        let (key, value) = field.split_once(':').expect("a field is key:value");
        for bad in BAD_NUMBERS.into_iter().chain([value]) {
            let mut changed = fs.clone();
            changed[i] = format!("{key}:{bad}");
            let mut respelled = fs.clone();
            respelled[i] = format!("{key}:{}", if bad == "-0" { "0" } else { bad });
            out.push((
                with_line(at, &join(&changed)),
                with_line(at, &join(&respelled)),
            ));
            changed.insert(i, field.clone());
            out.push(same(with_line(at, &join(&changed))));
        }
    }
    for round in 0..16 {
        let mut shuffled = fs.clone();
        shuffled.sort_by_key(|f| stable_hash64(format!("{at}/{round}/{f}").as_bytes()));
        out.push(same(with_line(at, &join(&shuffled))));
    }
    out.push(same(with_line(at, &format!("{line}\n{line}"))));
    let mib = "x".repeat(1 << 20);
    let body = &line[1..line.len() - 1];
    out.push(same(with_line(
        at,
        &format!("{{\"pad\":\"{mib}\",{body}}}"),
    )));
    out.push(same(with_line(at, &format!("{{{body},\"{mib}\":1}}"))));
    let digits = "9".repeat(1 << 20);
    out.push(same(with_line(
        at,
        &format!("{{{body},\"digits\":{digits}}}"),
    )));
    out.push(same(with_line(at, &format!("{line}\n{mib}"))));
    out.retain(|(mutant, _)| mutant != FIXTURE);
    out
}

#[test]
fn trace_reader_refuses_or_reads_exactly_every_mutant() {
    let trace = read_trace(FIXTURE).expect("the fixture reads");
    assert_eq!(write_trace(&trace), FIXTURE, "the fixture round-trips");
    let lines: Vec<&str> = FIXTURE.lines().collect();
    let fault = lines
        .iter()
        .position(|l| l.contains("\"ev\":\"fault\""))
        .expect("the fixture schedules faults");
    let last_record = fault - 1;
    let mut refused = 0;
    let mut all = 0;
    for at in [0, 1, last_record, fault] {
        for (mutant, expected) in mutants(at) {
            let read = catch_unwind(AssertUnwindSafe(|| read_trace(&mutant)));
            let shown: String = mutant
                .lines()
                .nth(at)
                .unwrap_or("")
                .chars()
                .take(200)
                .collect();
            match read {
                Err(_) => panic!("line {at} mutant panicked the reader: {shown}"),
                Ok(Err(_)) => refused += 1,
                Ok(Ok(trace)) => assert!(
                    write_trace(&trace) == expected,
                    "line {at} mutant read as something else: {shown}"
                ),
            }
            all += 1;
        }
    }
    assert!(all > 2_000, "{all} mutants");
    assert!(refused * 2 > all, "{refused} of {all} refused");
}
