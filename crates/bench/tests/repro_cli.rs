//! The `repro` command line: its experiment table and how it rejects a
//! name outside it.

use std::process::Command;
use yala_bench::experiments::EXPERIMENTS;

#[test]
fn name_table_holds_exactly_the_fifteen_experiments() {
    let names: Vec<&str> = EXPERIMENTS.iter().map(|(name, _)| *name).collect();
    let figs = (1..=7).map(|i| format!("fig{i}"));
    let expected: Vec<String> = figs.chain((2..=9).map(|i| format!("table{i}"))).collect();
    assert_eq!(names, expected);
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
    for (name, _) in EXPERIMENTS {
        assert!(stderr.contains(name), "{name} missing from: {stderr}");
    }
}
