//! `repro` — regenerates the paper's figures and tables and gates its
//! accuracy claims.
//!
//! ```text
//! repro <fig1..fig7 | table2..table9 | all> [--full] [--check] [--threads N] [--out PATH]
//! ```
//!
//! Each experiment prints its table and writes `results/<name>.csv`.
//! `repro all` also writes `BENCH_accuracy.json`: the SLOMO-vs-Yala rows
//! of tables 2, 3, 5 and 9 and table 6's wastage / violation columns, plus
//! the paper's claims as inequalities on the table aggregates. `--check`
//! compares every gated row of the experiments it ran against the
//! committed record exactly, fails on any violated claim, and never
//! overwrites the record. `--full` runs paper-sized sweeps (very slow);
//! the record describes the default scale only.

use yala_bench::experiments::{check_accuracy, failed_claims, Ctx, Output, EXPERIMENTS};
use yala_bench::record::Record;
use yala_bench::{write_artifact, write_csv, BenchArgs, RegressionCheck};

/// The committed record `repro all` regenerates (and `--check`s against).
const RECORD: &str = "BENCH_accuracy.json";

fn usage(problem: &str) -> ! {
    let names: Vec<&str> = EXPERIMENTS.iter().map(|(name, _)| *name).collect();
    eprintln!(
        "repro: {problem}\nusage: repro <{} | all> [--full] [--check] [--threads N] [--out PATH]",
        names.join(" | ")
    );
    std::process::exit(2);
}

fn main() {
    let mut argv: Vec<String> = std::env::args().skip(1).collect();
    let full = argv.iter().any(|a| a == "--full");
    argv.retain(|a| a != "--full");
    if argv.is_empty() || argv[0].starts_with("--") {
        usage("name an experiment");
    }
    let name = argv.remove(0);
    let args = BenchArgs::try_parse_from(argv).unwrap_or_else(|e| usage(&e));
    if full && args.check {
        usage("--check gates the default scale; drop --full");
    }
    if args.telemetry.is_some() || args.journal_cap.is_some() {
        usage("--telemetry and --journal-cap belong to the bench_* binaries");
    }
    let all = name == "all";
    let selected: Vec<_> = EXPERIMENTS
        .iter()
        .filter(|(n, _)| all || *n == name)
        .collect();
    if selected.is_empty() {
        usage(&format!("unknown experiment {name:?}"));
    }

    let ctx = Ctx {
        full,
        engine: args.engine(),
    };
    let outputs: Vec<Output> = selected
        .iter()
        .map(|(name, run)| {
            let out = run(&ctx);
            println!("{}", out.lines.join("\n"));
            write_csv(name, out.csv_header, &out.csv);
            out
        })
        .collect();

    if all && !full {
        let rows: Vec<&str> = outputs
            .iter()
            .flat_map(|o| o.gated.iter().map(String::as_str))
            .collect();
        let claims: Vec<String> = outputs
            .iter()
            .flat_map(|o| &o.claims)
            .map(|c| format!("{{\"claim\": \"{}\", \"holds\": {}}}", c.name, c.holds))
            .collect();
        let record = Record::new("accuracy", true)
            .field("rows", format!("[\n{}\n]", rows.join(",\n")))
            .field("claims", format!("[\n{}\n]", claims.join(",\n")));
        if let Some(path) = args.record_path(RECORD) {
            write_artifact(path, &record.to_json());
        }
    }
    if args.check {
        let mut check = RegressionCheck::against(RECORD);
        check_accuracy(&mut check, &outputs, all);
        check.finish();
    } else if !failed_claims(&outputs).is_empty() {
        eprintln!("repro: claims violated: {:?}", failed_claims(&outputs));
        std::process::exit(1);
    }
}
