//! The `repro` command line: its experiment table, how it rejects a name
//! outside it, and the committed records the table regenerates — plus
//! how the other two binaries refuse bad input.

use std::process::Command;
use yala_bench::experiments::{ACCURACY_RECORD, EXPERIMENTS};

#[test]
fn name_table_holds_the_fifteen_experiments_then_the_seven_records() {
    let names: Vec<&str> = EXPERIMENTS.iter().map(|(name, ..)| *name).collect();
    let figs = (1..=7).map(|i| format!("fig{i}"));
    let tables = (2..=9).map(|i| format!("table{i}"));
    let records = "fleet hetero online cache faults scale serve".split(' ');
    let records = records.map(String::from);
    let expected: Vec<String> = figs.chain(tables).chain(records).collect();
    assert_eq!(names, expected);
}

#[test]
fn every_committed_record_has_exactly_one_producer() {
    // Paper experiments feed `BENCH_accuracy.json` through `repro all`.
    let records = EXPERIMENTS.iter().filter_map(|(.., record)| *record);
    let mut producers: Vec<&str> = records.chain([ACCURACY_RECORD]).collect();
    producers.sort();
    let root = concat!(env!("CARGO_MANIFEST_DIR"), "/../..");
    let entries = std::fs::read_dir(root).expect("workspace root");
    let names = entries.map(|e| e.expect("entry").file_name().into_string().expect("utf-8"));
    // `bench_rxp` keeps the wall-clock scan record, gated on structure
    // and speedup rather than bytes.
    let mut committed: Vec<String> = names
        .filter(|f| f.starts_with("BENCH_") && f.ends_with(".json") && f != "BENCH_rxp.json")
        .collect();
    committed.sort();
    // Equal sorted lists: every producer names a committed file, and no
    // committed file has two producers or none.
    assert_eq!(producers, committed);
}

#[test]
fn committed_records_hold_digests_not_samples() {
    let root = concat!(env!("CARGO_MANIFEST_DIR"), "/../..");
    let entries = std::fs::read_dir(root).expect("workspace root");
    let mut total = 0;
    for entry in entries.map(|e| e.expect("entry")) {
        let name = entry.file_name().into_string().expect("utf-8");
        if !name.starts_with("BENCH_") || !name.ends_with(".json") || name == "BENCH_rxp.json" {
            continue;
        }
        let text = std::fs::read_to_string(entry.path()).expect("record reads");
        // Per-epoch samples live in `--telemetry`'s `<name>.report.json`;
        // a record pins them through each report's digest.
        assert!(!text.contains("\"samples\""), "{name} holds samples");
        total += text.len();
    }
    assert!(
        total <= 30 * 1024,
        "deterministic records total {total} bytes"
    );
}

#[test]
fn unknown_name_exits_2_listing_the_table() {
    let run = Command::new(env!("CARGO_BIN_EXE_repro"))
        .arg("table1")
        .output()
        .expect("repro starts");
    assert_eq!(run.status.code(), Some(2));
    assert!(run.stdout.is_empty(), "a rejected name runs nothing");
    let stderr = String::from_utf8_lossy(&run.stderr);
    assert!(stderr.contains("unknown experiment \"table1\""), "{stderr}");
    for (name, ..) in EXPERIMENTS {
        assert!(stderr.contains(name), "{name} missing from: {stderr}");
    }
}

#[test]
fn bad_input_is_one_line_and_an_exit_code_never_a_panic() {
    let run = |bin: &str, args: [&str; 2], code: i32, says: &str| {
        let out = Command::new(bin).args(args).output().expect("starts");
        let stderr = String::from_utf8_lossy(&out.stderr);
        let got = (out.status.code(), stderr.lines().count());
        assert_eq!(got, (Some(code), 1), "{stderr}");
        assert!(stderr.contains(says), "{stderr}");
    };
    // `bench_rxp` refuses the flags it used to ignore silently.
    for flag in ["--threads", "--telemetry", "--journal-cap"] {
        let says = format!("unknown flag {flag}");
        run(env!("CARGO_BIN_EXE_bench_rxp"), [flag, "9"], 2, &says);
    }
    let missing = ["/nonexistent.jsonl", "summary"];
    run(
        env!("CARGO_BIN_EXE_fleet_inspect"),
        missing,
        1,
        "could not read journal",
    );
}
