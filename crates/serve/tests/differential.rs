//! The daemon and the fleet simulator drive one tenant state machine.
//! A simulated day's arrivals and departures, fed to a `mono` daemon as
//! `place` and `depart` lines in the simulator's event order, must land
//! where the simulator's journal says: every `place` on the NIC of its
//! `place` event, or on none (`-1`) where the journal has a `reject`.
//!
//! A fault-free BlueField-2-only fleet is the configuration where the
//! two rules' candidate orders coincide: every empty NIC has the same
//! free cores, so the daemon's most-free-cores walk takes the lowest
//! index, as the simulator's `choose_empty` does. The daemon measures
//! each tenant under its own seed, which one-NF-per-NIC never reads.

use yala_core::Engine;
use yala_fleet::{
    run_fleet_observed, BuildOpts, FleetConfig, FleetPolicy, FleetTrace, ProfiledTrace,
};
use yala_serve::ServeLoop;
use yala_sim::NicSpec;
use yala_telemetry::{Event, Telemetry};

#[test]
fn a_mono_daemon_places_every_arrival_where_the_simulator_does() {
    let mut cfg = FleetConfig::small(43);
    cfg.portfolio = vec![(NicSpec::bluefield2(), 6)];
    cfg.duration_s = 3 * 3_600;
    cfg.mean_interarrival_s = 150.0;
    // About seven tenants alive at a time on six NICs: some are refused.
    cfg.mean_lifetime_s = 1_050.0;
    cfg.drift = false;
    let engine = Engine::sequential();
    let trace = FleetTrace::generate(cfg.clone());
    assert!(trace.faults.is_empty(), "a fault-free day");
    let profiled = ProfiledTrace::build(trace, &engine, BuildOpts::default());
    let mut tel = Telemetry::enabled();
    let mono = FleetPolicy::Monopolization;
    run_fleet_observed(&profiled, mono, "mono", &engine, &mut tel);

    let mut daemon = ServeLoop::new(&cfg, "mono", &engine).expect("build");
    let records = &profiled.trace.records;
    let (mut placed, mut rejected, mut departed) = (0, 0, 0);
    for entry in tel.sink().expect("enabled").journal.records() {
        let (line, want) = match entry.event {
            Event::Place { id, nic, .. } => (place_line(&records[id as usize]), nic as i64),
            Event::Reject { id, .. } => (place_line(&records[id as usize]), -1),
            Event::Depart { id, nic } if nic >= 0 => {
                let line = format!("{{\"op\":\"depart\",\"id\":{id}}}");
                (line, nic)
            }
            _ => continue,
        };
        let reply = daemon.handle_line(&line, &engine);
        assert!(
            reply.starts_with("{\"ok\":true") && reply.ends_with(&format!("\"nic\":{want}}}")),
            "at {} ms: {line} => {reply}, the simulator says NIC {want}",
            entry.t_ms
        );
        match (line.starts_with("{\"op\":\"place\""), want) {
            (true, -1) => rejected += 1,
            (true, _) => placed += 1,
            _ => departed += 1,
        }
    }
    assert_eq!(placed + rejected, records.len());
    assert!(
        rejected > 5 && departed > 20,
        "{placed} {rejected} {departed}"
    );
}

/// The `place` line of a trace record: its kind, QoS class, SLA and
/// first traffic, under its trace id.
fn place_line(r: &yala_fleet::NfRecord) -> String {
    let t = &r.start;
    format!(
        "{{\"op\":\"place\",\"id\":{},\"kind\":\"{}\",\"qos\":\"{}\",\"flows\":{},\
         \"psize\":{},\"mtbr\":{},\"sla_drop\":{}}}",
        r.id,
        r.kind.name(),
        r.qos.name(),
        t.flow_count,
        t.packet_size,
        t.mtbr,
        r.sla_drop
    )
}
