//! `repro` — the one experiment harness: the paper's figures and tables,
//! their accuracy claims, and the fleet-family records.
//!
//! ```text
//! repro <fig1..fig7 | table2..table9 | fleet | hetero | online | cache | faults | scale | serve | all>
//!       [--full] [--check] [--threads N] [--out DIR] [--telemetry DIR] [--journal-cap N]
//! ```
//!
//! A paper experiment prints its table and writes `results/<name>.csv`;
//! `all` adds `BENCH_accuracy.json` (the gated rows of tables 2, 3, 5, 6
//! and 9, and the paper's claims; a violated claim fails the run). A
//! record experiment writes the record its table entry names. Records go
//! into `--out DIR` (default: the working directory); `--check` compares
//! each with the committed file byte for byte, naming the first line that
//! differs (a single paper table: row by row), and never overwrites one.
//! `--telemetry DIR` writes `DIR/<name>.{jsonl,metrics.json,prom}`.
//! stdout (the tables) is byte-identical across runs and `--threads`.

use yala_bench::experiments::{
    check_accuracy, failed_claims, Output, ACCURACY_RECORD, EXPERIMENTS,
};
use yala_bench::record::Record;
use yala_bench::{write_artifact, write_csv, BenchArgs, RegressionCheck};

fn usage(problem: &str) -> ! {
    let names: Vec<&str> = EXPERIMENTS.iter().map(|(name, ..)| *name).collect();
    eprintln!(
        "repro: {problem}\nusage: repro <{} | all> [--full] [--check] [--threads N] [--out DIR] \
         [--telemetry DIR] [--journal-cap N]",
        names.join(" | ")
    );
    std::process::exit(2);
}

/// Writes `out`'s deterministic telemetry as `DIR/<name>.{jsonl,
/// metrics.json,prom}` plus its further artifacts, and the wall-clock
/// summary — the one non-deterministic layer — to stderr. Takes the
/// journal out of `out`, so `all` does not hold every one to the end.
fn write_telemetry(dir: &str, name: &str, out: &mut Output) {
    let telemetry = std::mem::take(&mut out.telemetry);
    let Some(sink) = telemetry.sink() else {
        return;
    };
    let base = format!("{dir}/{name}");
    write_artifact(&format!("{base}.jsonl"), &sink.journal.to_jsonl());
    write_artifact(&format!("{base}.metrics.json"), &sink.metrics.to_json());
    write_artifact(&format!("{base}.prom"), &sink.metrics.to_prometheus());
    for (suffix, body) in &out.artifacts {
        write_artifact(&format!("{base}.{suffix}"), body);
    }
    if let Some(w) = &sink.wall {
        eprintln!("  {name} {}", w.summary());
    }
}

/// `BENCH_accuracy.json`: every gated row and claim of `outputs`.
fn accuracy_record(outputs: &[Output]) -> String {
    let rows: Vec<&str> = outputs
        .iter()
        .flat_map(|o| o.gated.iter().map(String::as_str))
        .collect();
    let claims: Vec<String> = outputs
        .iter()
        .flat_map(|o| &o.claims)
        .map(|c| format!("{{\"claim\": \"{}\", \"holds\": {}}}", c.name, c.holds))
        .collect();
    Record::new("accuracy", true)
        .field("rows", format!("[\n{}\n]", rows.join(",\n")))
        .field("claims", format!("[\n{}\n]", claims.join(",\n")))
        .to_json()
}

fn main() {
    let mut argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.is_empty() || argv[0].starts_with("--") {
        usage("name an experiment");
    }
    let name = argv.remove(0);
    let args = BenchArgs::try_parse_from(argv).unwrap_or_else(|e| usage(&e));
    if args.full && args.check {
        usage("--check gates the default scale; drop --full");
    }
    let all = name == "all";
    let selected: Vec<_> = EXPERIMENTS
        .iter()
        .filter(|(n, ..)| all || *n == name)
        .collect();
    if selected.is_empty() {
        usage(&format!("unknown experiment {name:?}"));
    }

    let mut records: Vec<(&str, String)> = Vec::new();
    let outputs: Vec<Output> = selected
        .iter()
        .map(|(name, run, record)| {
            let mut out = run(&args);
            if !out.lines.is_empty() {
                println!("{}", out.lines.join("\n"));
            }
            if !out.csv.is_empty() {
                write_csv(name, out.csv_header, &out.csv);
            }
            if let Some(dir) = &args.telemetry {
                write_telemetry(dir, name, &mut out);
            }
            records.extend(record.zip(out.record.take()));
            out
        })
        .collect();
    if all && !args.full {
        records.push((ACCURACY_RECORD, accuracy_record(&outputs)));
    }

    let mut checks = Vec::new();
    for (file, json) in &records {
        if let Some(path) = args.record_path(file) {
            write_artifact(&path, json);
        }
        if args.check {
            let mut check = RegressionCheck::against(file);
            check.identical(json);
            checks.push(check);
        }
    }
    // A single paper table is checked row by row: the committed record
    // holds every table's rows.
    if args.check && !all && selected.iter().any(|(.., record)| record.is_none()) {
        let mut check = RegressionCheck::against(ACCURACY_RECORD);
        check_accuracy(&mut check, &outputs);
        checks.push(check);
    }
    checks.into_iter().for_each(RegressionCheck::finish);
    let failed = failed_claims(&outputs);
    if !failed.is_empty() {
        eprintln!("repro: claims violated: {failed:?}");
        std::process::exit(1);
    }
}
