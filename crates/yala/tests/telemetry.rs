//! Determinism contract of the telemetry plane (ISSUE 8, satellite 3):
//!
//! * telemetry-enabled fleet runs are byte-identical between a sequential
//!   engine and `Engine::with_threads(4)` — journal JSONL, metrics JSON,
//!   and the Prometheus rendering all compare equal as strings;
//! * instrumentation never perturbs the simulation: the observed
//!   pipeline's `FleetReport` serializes byte-identically to the
//!   unobserved pipeline's.

use yala::core::Engine;
use yala::fleet::{
    run_fleet, run_fleet_observed, verify_against, BuildOpts, FleetConfig, FleetPolicy,
    FleetReport, FleetTrace, ProfiledTrace,
};
use yala::telemetry::Telemetry;

/// A short but non-trivial scenario: a handful of arrivals, several
/// audit epochs, and enough co-residency for migrations/violations to
/// appear in the journal.
fn config(seed: u64) -> FleetConfig {
    let mut cfg = FleetConfig::small(seed);
    cfg.duration_s = 2_400;
    cfg.mean_interarrival_s = 150.0;
    cfg.mean_lifetime_s = 900.0;
    cfg.audit_period_s = 600;
    cfg
}

/// Runs the full observed pipeline (profile build + greedy fleet run)
/// and returns the report plus every exported byte stream.
fn observed_exports(seed: u64, engine: &Engine) -> (FleetReport, [String; 3]) {
    let mut tel = Telemetry::enabled();
    let profiled = ProfiledTrace::build(
        FleetTrace::generate(config(seed)),
        engine,
        BuildOpts::default().observed(&mut tel),
    );
    let report = run_fleet_observed(&profiled, FleetPolicy::Greedy, "greedy", engine, &mut tel);
    let sink = tel.sink().expect("enabled telemetry has a sink");
    verify_against(&report, &sink.journal).expect("journal replays to the report");
    let exports = [
        sink.journal.to_jsonl(),
        sink.metrics.to_json(),
        sink.metrics.to_prometheus(),
    ];
    (report, exports)
}

#[test]
fn telemetry_is_byte_identical_across_thread_counts() {
    let (seq_report, seq) = observed_exports(41, &Engine::sequential());
    let (par_report, par) = observed_exports(41, &Engine::with_threads(4));
    assert_eq!(seq_report.to_json(), par_report.to_json());
    assert_eq!(
        seq[0], par[0],
        "journal JSONL diverged across thread counts"
    );
    assert_eq!(seq[1], par[1], "metrics JSON diverged across thread counts");
    assert_eq!(
        seq[2], par[2],
        "Prometheus text diverged across thread counts"
    );
    assert!(
        seq[0].lines().count() > 50,
        "scenario produced a non-trivial journal"
    );
}

#[test]
fn instrumentation_does_not_perturb_the_simulation() {
    let engine = Engine::sequential();

    // Unobserved pipeline: disabled telemetry end to end.
    let profiled = ProfiledTrace::build(
        FleetTrace::generate(config(41)),
        &engine,
        BuildOpts::default(),
    );
    let baseline = run_fleet(&profiled, FleetPolicy::Greedy, "greedy", &engine);

    // Observed pipeline on a freshly generated (identical) trace.
    let (observed, _) = observed_exports(41, &engine);
    assert_eq!(
        baseline.to_json(),
        observed.to_json(),
        "enabling telemetry changed the simulation outcome"
    );

    // And a disabled handle through the observed entry points is inert:
    // no sink, same report.
    let mut off = Telemetry::disabled();
    let profiled2 = ProfiledTrace::build(
        FleetTrace::generate(config(41)),
        &engine,
        BuildOpts::default().observed(&mut off),
    );
    let report2 = run_fleet_observed(&profiled2, FleetPolicy::Greedy, "greedy", &engine, &mut off);
    assert!(off.sink().is_none());
    assert_eq!(baseline.to_json(), report2.to_json());
}
