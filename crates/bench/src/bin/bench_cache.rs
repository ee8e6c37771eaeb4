//! Records the profile-cache payoff to `BENCH_cache.json`: the same
//! 200-NIC simulated day profiled twice — once in exact mode (one
//! measurement per snapshot, the pre-cache bill) and once in quantized
//! mode (measurements shared across tenants and epochs through the
//! process-wide [`ProfileCache`]) — under a template-clustered traffic
//! model, the realistic multi-tenant shape where a handful of canonical
//! NF configurations serve the whole fleet.
//!
//! The headline metric is the *computed-snapshot reduction*: exact-mode
//! measurements divided by quantized-mode cache misses. It is a pure
//! count ratio — deterministic in the seed, identical across thread
//! counts and machines — so the committed record stays byte-stable; what
//! the reduction buys in wall time is `benchmark/`'s
//! `fleet.timeline_build_s`.

use yala_bench::record::{fleet_day, Record, RecordRun};
use yala_core::profile_cache::ProfileCache;
use yala_fleet::{
    run_fleet, BuildOpts, FleetConfig, FleetPolicy, FleetTrace, ProfiledTrace, TrafficModel,
};
use yala_nf::NfKind;

/// Canonical traffic templates in the fleet (a realistic configuration
/// catalog: small, not a continuum).
const TEMPLATES: u32 = 6;

fn main() {
    let mut run = RecordRun::start("BENCH_cache.json", 5150);
    let quick = run.args.quick;
    let kinds = [NfKind::FlowStats, NfKind::Acl, NfKind::Nat, NfKind::Nids];

    let mut cfg = fleet_day(FleetConfig::small(5150), quick, &kinds);
    cfg.portfolio = vec![(yala_sim::NicSpec::bluefield2(), 200)];
    cfg.mean_interarrival_s = 144.0; // ~600 arrivals over the day
    cfg.mean_lifetime_s = 9_000.0;
    // Jitter at a quarter of the re-profile threshold: tenants spread
    // around their template but stay inside its quantization bucket.
    let jitter = cfg.reprofile_threshold / 4.0;
    cfg.traffic_model = TrafficModel::Templates {
        count: TEMPLATES,
        jitter,
    };
    run.banner("bench_cache", &cfg, &format!(", {TEMPLATES} templates"));

    // The pre-cache bill: every snapshot is measured.
    let trace = FleetTrace::generate(cfg.clone());
    let arrivals = trace.records.len();
    let exact = ProfiledTrace::build(trace.clone(), &run.engine, BuildOpts::default());

    // The cached bill: one measurement per distinct quantized key. With
    // `--telemetry` this build is the observed one — its journal shows
    // tenants landing on shared keys (delta/full triggers, hit tagging).
    let cache = ProfileCache::new();
    let cached = run.profile(cfg, BuildOpts::quantized(Some(&cache)));
    run.args.write_telemetry(&run.tel);

    // A warm rebuild of the same scenario: pure cache hits, no simulator
    // runs at all — the steady-state cost of re-deriving timelines.
    let rebuilt = ProfiledTrace::build(trace, &run.engine, BuildOpts::quantized(Some(&cache)));

    let reduction = exact.stats.misses as f64 / cached.stats.misses.max(1) as f64;
    println!("  exact:   {} measurements", exact.stats.misses);
    println!(
        "  cached:  {} measurements ({} hits, {} delta / {} full re-keys)",
        cached.stats.misses,
        cached.stats.hits,
        cached.stats.delta_reprofiles,
        cached.stats.full_reprofiles
    );
    println!(
        "  rebuild: {} measurements ({} hits)",
        rebuilt.stats.misses, rebuilt.stats.hits
    );
    println!("  computed-snapshot reduction: {reduction:.2}x");

    assert!(
        reduction >= 5.0,
        "profile cache must cut computed snapshots at least 5x (got {reduction:.2}x)"
    );
    assert_eq!(rebuilt.stats.misses, 0, "warm rebuild must be all hits");

    // The cached timelines drive policy runs exactly like exact ones; the
    // greedy report documents the scenario's scale either way.
    let greedy_exact = run_fleet(&exact, FleetPolicy::Greedy, "greedy-exact", &run.engine);
    let greedy_cached = run_fleet(&cached, FleetPolicy::Greedy, "greedy-cached", &run.engine);

    let record = Record::new("cache", quick)
        .field("nics", greedy_exact.nics)
        .field("arrivals", arrivals)
        .scenario(&greedy_exact)
        .kinds(&kinds)
        .field("templates", TEMPLATES)
        .field("jitter", format!("{jitter:.3}"))
        .field("exact_snapshots", exact.snapshot_count())
        .field("exact_cache", exact.stats.to_json())
        .field("cached_snapshots", cached.snapshot_count())
        .field("cached_cache", cached.stats.to_json())
        .field("rebuild_cache", rebuilt.stats.to_json())
        .field("computed_reduction", format!("{reduction:.2}"))
        .policies(&[&greedy_exact, &greedy_cached]);
    run.finish(&record);
}
