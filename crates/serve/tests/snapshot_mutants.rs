//! Seeded mutation test of both snapshot readers, `restore_fleet` and
//! `ServeLoop::restore`. Each reader is fed every mutant of a header it
//! wrote — truncations, duplicated and reordered keys, huge, negative
//! and NaN/inf numbers, 1 MiB lines — and must answer every one with an
//! `Err`, never a panic and never a restored run.

use std::panic::{catch_unwind, AssertUnwindSafe};
use yala_core::Engine;
use yala_fleet::{
    restore_fleet, snapshot_fleet, BuildOpts, FleetConfig, FleetPolicy, FleetSim, FleetTrace,
    ProfiledTrace,
};
use yala_serve::ServeLoop;
use yala_telemetry::{stable_hash64, Telemetry};

/// Values no header field holds: past `i64`, below zero, not finite.
const BAD_NUMBERS: &str = "9223372036854775808 18446744073709551615 1e400 \
                           -1 -9223372036854775808 -0 NaN inf -inf";

/// Every mutant of the one-line object `header`: every truncation, each
/// field overwritten by and duplicated with each bad number (and with
/// itself), 32 seeded key orders, and 1 MiB string, key and number. A
/// "mutant" equal to `header`, such as `-1` over a `-1`, is dropped.
fn mutants(header: &str, seed: u64) -> Vec<String> {
    let body = &header[1..header.len() - 1];
    let fields: Vec<String> = body.split(',').map(str::to_string).collect();
    let join = |fs: &[String]| format!("{{{}}}", fs.join(","));
    let mut out: Vec<String> = (0..header.len()).map(|n| header[..n].to_string()).collect();
    for (i, field) in fields.iter().enumerate() {
        let (key, value) = field.split_once(':').expect("a header field is key:value");
        for bad in BAD_NUMBERS.split(' ').chain([value]) {
            let mut fs = fields.clone();
            fs[i] = format!("{key}:{bad}");
            out.push(join(&fs));
            fs.insert(i, field.clone());
            out.push(join(&fs));
        }
    }
    for round in 0..32 {
        let mut fs = fields.clone();
        fs.sort_by_key(|f| stable_hash64(format!("{seed}/{round}/{f}").as_bytes()));
        if fs != fields {
            out.push(join(&fs));
        }
    }
    let mib = "x".repeat(1 << 20);
    out.push(format!("{{\"pad\":\"{mib}\",{body}}}"));
    out.push(format!("{{{body},\"{mib}\":1}}"));
    out.push(format!("{{{body},\"digits\":{}}}", "9".repeat(1 << 20)));
    out.retain(|m| m != header);
    out
}

/// Feeds `restore` every mutant of `header` and asserts each is refused
/// without a panic; the unmutated header must restore.
fn assert_refuses_every_mutant(header: &str, seed: u64, restore: impl Fn(&str) -> bool) {
    assert!(restore(header), "the unmutated snapshot must restore");
    let all = mutants(header, seed);
    assert!(all.len() > 300, "{} mutants", all.len());
    for mutant in &all {
        let refused = catch_unwind(AssertUnwindSafe(|| !restore(mutant)));
        let shown: String = mutant.chars().take(160).collect();
        assert_eq!(refused.ok(), Some(true), "mutant not refused: {shown}");
    }
}

#[test]
fn fleet_snapshot_reader_refuses_every_header_mutant() {
    let engine = Engine::sequential();
    let mut cfg = FleetConfig::mixed(61, 8);
    cfg.duration_s = 2_400;
    let profiled = ProfiledTrace::build(FleetTrace::generate(cfg), &engine, BuildOpts::default());
    let mut tel = Telemetry::enabled();
    let mut sim = FleetSim::new(&profiled, FleetPolicy::Greedy, "greedy");
    for _ in 0..20 {
        sim.step(&engine, &mut tel);
    }
    let journal = &tel.sink().expect("enabled").journal;
    let text = snapshot_fleet(&sim, Some(journal));
    assert_refuses_every_mutant(text.trim_end(), 61, |header| {
        let text = format!("{header}\n");
        let (policy, mut tel) = (FleetPolicy::Greedy, Telemetry::enabled());
        restore_fleet(&profiled, policy, "greedy", &text, &engine, &mut tel).is_ok()
    });
}

#[test]
fn serve_snapshot_reader_refuses_every_header_mutant() {
    let engine = Engine::sequential();
    let cfg = FleetConfig::small(62);
    let mut daemon = ServeLoop::new(&cfg, "greedy", &engine).expect("build");
    let place = "{\"op\":\"place\",\"id\":1,\"kind\":\"nat\",\"qos\":\"guaranteed\",\
                 \"flows\":9000,\"psize\":512,\"mtbr\":0.0,\"sla_drop\":0.1}";
    assert!(daemon
        .handle_line(place, &engine)
        .starts_with("{\"ok\":true"));
    let snap = daemon.snapshot();
    let (header, log) = snap.split_once('\n').expect("header line");
    assert_refuses_every_mutant(header, 62, |header| {
        let text = format!("{header}\n{log}");
        ServeLoop::restore(&cfg, "greedy", &engine, &text).is_ok()
    });
}
