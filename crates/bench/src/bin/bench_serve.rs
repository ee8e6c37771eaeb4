//! Records the serving-path benchmark to `BENCH_serve.json`: a
//! [`yala_serve::ServeLoop`] daemon driven in-process at production
//! request rates with the message stream a diurnal fleet day generates —
//! placements, departures, drift re-profiles, NIC failovers, audit
//! observations, and online absorb passes.
//!
//! The committed record holds the request and decision counters — exact
//! `--check` gates: the daemon is a pure function of seed + message order,
//! so these either match bit-for-bit or the serving path changed. What
//! the operator pays in wall time (requests per second, placement
//! latency) is `benchmark/`'s `serve-unique` / `serve-catalog` workloads.

use yala_bench::json_f64;
use yala_bench::record::{Record, RecordRun};
use yala_fleet::{FleetConfig, FleetTrace, MS_PER_S};
use yala_nf::NfKind;
use yala_serve::ServeLoop;
use yala_traffic::TrafficProfile;

/// The counters of the record's `deterministic` block, all exact-gated.
const COUNTERS: [&str; 6] = [
    "admissions",
    "rejections",
    "departures",
    "queries",
    "observations",
    "absorb_passes",
];

fn main() {
    let run = RecordRun::start("BENCH_serve.json", 42);
    let quick = run.args.quick;
    let engine = &run.engine;

    // The scenario: a diurnal day of arrivals on a small fleet, replayed
    // as wire messages. Quick mode trims the horizon, not the shape.
    let mut cfg = FleetConfig::small(42);
    cfg.portfolio = vec![(yala_sim::NicSpec::bluefield2(), 12)];
    cfg.duration_s = if quick { 6 * 3_600 } else { 24 * 3_600 };
    cfg.mean_interarrival_s = 120.0;
    cfg.mean_lifetime_s = 4_800.0;
    cfg.kinds = vec![NfKind::FlowStats, NfKind::Acl, NfKind::Nat];
    let trace = FleetTrace::diurnal(cfg.clone());

    // Arrival/departure messages from the recorded trace, plus one
    // placement query per record (the "would this fit" operator probe)
    // and an absorb sweep each simulated hour: `(due time, wire line)`.
    let mut msgs: Vec<(u64, String)> = Vec::new();
    let traffic = |t: TrafficProfile| {
        let (flows, psize, mtbr) = (t.flow_count, t.packet_size, t.mtbr);
        format!("\"flows\":{flows},\"psize\":{psize},\"mtbr\":{mtbr}")
    };
    for r in &trace.records {
        let (id, kind, qos, sla) = (r.id, r.kind.name(), r.qos.name(), r.sla_drop);
        let at = traffic(r.start);
        msgs.push((
            r.arrival_ms,
            format!(
                "{{\"op\":\"place\",\"id\":{id},\"kind\":\"{kind}\",\"qos\":\"{qos}\",{at},\
                 \"sla_drop\":{sla}}}"
            ),
        ));
        let query = format!("{{\"op\":\"query\",\"kind\":\"{kind}\",{at},\"sla_drop\":{sla}}}");
        msgs.push((r.arrival_ms, query));
        msgs.push((r.departure_ms, format!("{{\"op\":\"depart\",\"id\":{id}}}")));
        // A synthetic audit observation an hour into the record's life
        // (if it lives that long), echoing its own traffic with a
        // deterministic measured-throughput dent — enough signal for the
        // online bank to absorb, all a pure function of the trace.
        let t_ms = r.arrival_ms + 3_600 * MS_PER_S;
        if t_ms < r.departure_ms {
            let solo = 1.0e7;
            let measured = solo * (1.0 - 0.3 * (id % 4) as f64 / 4.0);
            let at = traffic(r.traffic_at(t_ms));
            msgs.push((
                t_ms,
                format!(
                    "{{\"op\":\"observe\",\"model\":\"bluefield2\",\"kind\":\"{kind}\",{at},\
                     \"ipc\":1.1,\"irt\":9.0e8,\"l2crd\":1.0e7,\"l2cwr\":2.0e6,\"memrd\":3.0e6,\
                     \"memwr\":1.0e6,\"wss\":5.0e7,\"press\":\"\",\"solo\":{solo},\
                     \"measured\":{measured}}}"
                ),
            ));
        }
    }
    for hour in 1..cfg.duration_s / 3_600 {
        msgs.push((hour * 3_600 * MS_PER_S, "{\"op\":\"absorb\"}".to_string()));
    }
    // Stable schedule order: time, then each record's place < query <
    // depart < observe by push order (stable sort).
    msgs.sort_by_key(|(t_ms, _)| *t_ms);

    println!(
        "bench_serve: {} NICs, {} records -> {} requests, {} h diurnal day{}",
        cfg.nics(),
        trace.records.len(),
        msgs.len(),
        cfg.duration_s / 3_600,
        if quick { " [quick]" } else { "" }
    );

    let mut daemon = ServeLoop::new(&cfg, "yala-online", engine).expect("serve loop builds");

    // The drive loop. Departures for never-admitted (rejected) instances
    // come back `ok:false` — that is the protocol working, not a bench
    // failure; everything else must succeed.
    let (mut admissions, mut rejections, mut errors) = (0u64, 0u64, 0u64);
    for (_, line) in &msgs {
        let resp = daemon.handle_line(line, engine);
        if line.starts_with("{\"op\":\"place\"") {
            if resp.contains("\"nic\":-1") {
                rejections += 1;
            } else if resp.starts_with("{\"ok\":true") {
                admissions += 1;
            }
        }
        if resp.starts_with("{\"ok\":false") {
            assert!(
                line.starts_with("{\"op\":\"depart\""),
                "unexpected error for {line}: {resp}"
            );
            errors += 1;
        }
    }
    let stats = daemon.handle_line("{\"op\":\"stats\"}", engine);
    println!("  final {stats}");

    let stat = |key: &str| {
        json_f64(&stats, "", key).unwrap_or_else(|| panic!("stats response lacks {key}")) as u64
    };
    assert_eq!(stat("admissions"), admissions, "counter drift");
    assert_eq!(stat("rejections"), rejections, "counter drift");

    let mut counters = vec![("requests", msgs.len() as u64)];
    counters.extend(COUNTERS.map(|key| (key, stat(key))));
    counters.push(("unadmitted_departs", errors));
    let block: Vec<String> = counters
        .iter()
        .map(|(key, n)| format!("\"{key}\": {n}"))
        .collect();
    let record = Record::new("serve", quick)
        .field("seed", cfg.seed)
        .field("nics", cfg.nics())
        .field("policy", "\"yala-online\"")
        .field("duration_s", cfg.duration_s)
        .field("records", trace.records.len())
        .field("deterministic", format!("{{{}}}", block.join(", ")));
    run.finish(&record);
}
