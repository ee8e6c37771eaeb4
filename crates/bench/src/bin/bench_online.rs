//! Records the online-refinement comparison to `BENCH_online.json`:
//! *frozen* (train-once) Yala vs *online* Yala — same offline bank, same
//! drift-heavy scenario — where the online policy feeds every SLA audit's
//! ground-truth co-run outcomes back into its predictor
//! ([`yala_placement::PlacementPredictor::absorb`]) and the frozen policy
//! keeps the paper's train-once setup.
//!
//! The decay is engineered the way it happens in production: the bank is
//! trained while flow counts live below `STALE_FLOW_CEILING`, then the
//! fleet's traffic drifts far beyond it. The stale memory curve
//! extrapolates flat past its training range, predicts ≈solo throughput
//! for badly contended high-flow co-locations, and the frozen policy
//! packs (and fails to migrate) its way into SLA violations. The online
//! policy absorbs the audited outcomes at the drifted operating points
//! and re-fits the affected cells, so its predictions — and therefore its
//! placements and migrations — recover mid-episode. The refinement
//! stream is as deterministic as the reports, so the record stays
//! byte-reproducible across runs and engine thread counts.

use yala_bench::record::{fleet_day, print_policies, table2_kinds, yala_policy, Record, RecordRun};
use yala_bench::NOISE_SIGMA;
use yala_core::adaptive::TrafficRanges;
use yala_core::{ModelBank, TrainConfig};
use yala_fleet::{run_fleet, BuildOpts, FleetConfig, FleetPolicy, OnlineRefine};
use yala_placement::YalaPredictor;
use yala_sim::NicSpec;

/// Largest flow count seen while the offline bank was trained; the live
/// fleet drifts to [`DRIFTED_FLOW_CEILING`].
const STALE_FLOW_CEILING: u32 = 48_000;

/// Largest flow count the drift-heavy scenario reaches.
const DRIFTED_FLOW_CEILING: u32 = 300_000;

fn main() {
    let mut run = RecordRun::start("BENCH_online.json", 97);
    let quick = run.args.quick;
    let kinds = table2_kinds(quick);

    let mut cfg = fleet_day(FleetConfig::small(97), quick, &kinds);
    cfg.portfolio = vec![(NicSpec::bluefield2(), 200)];
    cfg.mean_interarrival_s = 144.0; // ~600 arrivals over the day
    cfg.mean_lifetime_s = 12_000.0; // long lives: drift has room to bite
    cfg.max_flows = DRIFTED_FLOW_CEILING;
    let online_knobs = OnlineRefine {
        min_observations: 96,
    };
    let drift = format!(
        ", trained at ≤{}k flows / drifting to ≤{}k",
        STALE_FLOW_CEILING / 1_000,
        DRIFTED_FLOW_CEILING / 1_000
    );
    run.banner("bench_online", &cfg, &drift);

    // The stale offline bank: adaptive profiling confined to the
    // pre-drift flow regime.
    let train_cfg = TrainConfig {
        ranges: TrafficRanges {
            flows: (1_000, STALE_FLOW_CEILING),
            ..TrafficRanges::default()
        },
        seed: 6,
        ..TrainConfig::default()
    };
    let bank = ModelBank::train_yala(
        &[NicSpec::bluefield2()],
        NOISE_SIGMA,
        &kinds,
        &train_cfg,
        &run.engine,
    );
    let profiled = run.profile(cfg, BuildOpts::default());
    let arrivals = profiled.trace.records.len();

    let greedy = run_fleet(&profiled, FleetPolicy::Greedy, "greedy", &run.engine);
    let mut frozen_predictor = YalaPredictor::new(&bank);
    let policy = yala_policy(&mut frozen_predictor, &bank, None, true);
    let frozen = run_fleet(&profiled, policy, "yala-frozen", &run.engine);
    // The flagship journal is the one with absorb passes in it.
    let mut predictor = YalaPredictor::new(&bank);
    let policy = yala_policy(&mut predictor, &bank, Some(online_knobs), true);
    let online = run.flagship(&profiled, policy, "yala-online");
    let reports = [&greedy, &frozen, &online];
    print_policies(&reports);
    let (passes, absorbed) = (predictor.refine_passes(), predictor.absorbed());
    println!("  refinement: {passes} absorb passes, {absorbed} observations absorbed");

    // The acceptance bar: the stale frozen model must actually decay
    // (violations appear), refinement must actually run, and online-Yala
    // must end the day with *strictly* fewer SLA-violation minutes than
    // frozen-Yala. Deterministic scenario: holds always or never.
    assert!(
        frozen.violation_minutes > 0.0,
        "the stale frozen bank should decay under drift"
    );
    assert!(
        passes > 0 && absorbed > 0,
        "the online policy must absorb audit observations"
    );
    assert!(
        online.violation_minutes < frozen.violation_minutes,
        "online-Yala ({}) must strictly beat frozen-Yala ({}) on violation minutes",
        online.violation_minutes,
        frozen.violation_minutes
    );
    println!(
        "  dominance: online {:.0} viol-min vs frozen {:.0} ({}x) — OK",
        online.violation_minutes,
        frozen.violation_minutes,
        (frozen.violation_minutes / online.violation_minutes).round()
    );

    let record = Record::new("online", quick)
        .field("nics", frozen.nics)
        .field("arrivals", arrivals)
        .scenario(&frozen)
        .kinds(&kinds)
        .field("trained_flow_ceiling", STALE_FLOW_CEILING)
        .field("drifted_flow_ceiling", DRIFTED_FLOW_CEILING)
        .field("min_observations", online_knobs.min_observations)
        .field("refine_passes", passes)
        .field("absorbed_observations", absorbed)
        .profile(&profiled)
        .policies(&reports);
    run.finish(&record);
}
