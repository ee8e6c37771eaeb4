//! Records the fault-injection comparison to `BENCH_faults.json`: a
//! failure-heavy simulated day — hard NIC failures on a per-NIC renewal
//! process, announced maintenance drains, a 50/50 guaranteed/best-effort
//! tenant mix — replayed under three policies: the QoS-aware
//! contention-aware policy (`yala-qos`), the same predictor with QoS
//! tiers ignored (`yala-blind`, the degradation baseline), and greedy
//! packing for context.
//!
//! The headline metric is the *QoS shield ratio*: the blind baseline's
//! guaranteed-class bad minutes (SLA violation while placed + downtime
//! while parked) divided by the aware policy's. The acceptance bar is
//! ≥ 5×: under identical fault schedules, tiered degradation must
//! concentrate at least that much of the damage on the best-effort
//! class. The scenario scale (48 NICs, ~24 simulated hours, every NIC
//! failing about twice) is the same with and without `--quick`.

use yala_bench::record::{fleet_day, table2_kinds, yala_policy, Record, RecordRun};
use yala_bench::Zoo;
use yala_fleet::{
    run_fleet, BuildOpts, FaultKind, FaultPlan, FleetConfig, FleetPolicy, FleetReport,
};
use yala_placement::YalaPredictor;

/// The acceptance bar on the QoS shield ratio (blind / aware guaranteed
/// bad minutes).
const SHIELD_BAR: f64 = 5.0;

fn main() {
    let mut run = RecordRun::start("BENCH_faults.json", 97);
    let quick = run.args.quick;
    let kinds = table2_kinds(quick);

    let mut cfg = fleet_day(FleetConfig::small(97), quick, &kinds);
    cfg.portfolio = vec![(yala_sim::NicSpec::bluefield2(), 20)];
    cfg.mean_interarrival_s = 240.0; // ~360 arrivals over the day
    cfg.mean_lifetime_s = 7_200.0; // ~30 NFs active at steady state
    cfg.guaranteed_fraction = 0.5;
    // A deliberately undersized fleet under a rough day: every NIC fails
    // about three times, repairs take about an hour and a half, and six
    // hour-long maintenance drains land on top — so evacuations
    // regularly find the fleet too full and degradation policy decides
    // who eats the shortfall.
    cfg.faults = FaultPlan {
        mtbf_s: 6.0 * 3_600.0,
        mean_repair_s: 7_200.0,
        drains: 8,
        drain_notice_s: 1_800,
        drain_offline_s: 3_600,
    };
    let mix = format!(", guaranteed fraction {:.2}", cfg.guaranteed_fraction);
    run.banner("bench_faults", &cfg, &mix);

    let zoo = Zoo::train(&kinds, 6, &run.engine);
    // With `--telemetry` the fault-injected journal is the richest one
    // the bench suite produces (faults, evacuations, parks, readmissions).
    let profiled = run.profile(cfg, BuildOpts::default());
    let trace = &profiled.trace;
    let arrivals = trace.records.len();
    let guaranteed_nfs = trace
        .records
        .iter()
        .filter(|r| r.qos.is_guaranteed())
        .count();
    let count_faults = |kind| trace.faults.iter().filter(|f| f.kind == kind).count();
    let fail_events = count_faults(FaultKind::Fail);
    let drain_events = count_faults(FaultKind::DrainStart);
    println!("  {guaranteed_nfs} guaranteed NFs, {fail_events} failures + {drain_events} drains");

    let mut predictor = YalaPredictor::new(zoo.yala_bank());
    let policy = yala_policy(&mut predictor, zoo.yala_bank(), None, true);
    let aware = run.flagship(&profiled, policy, "yala-qos");
    let mut predictor = YalaPredictor::new(zoo.yala_bank());
    let policy = yala_policy(&mut predictor, zoo.yala_bank(), None, false);
    let blind = run_fleet(&profiled, policy, "yala-blind", &run.engine);
    let greedy = run_fleet(&profiled, FleetPolicy::Greedy, "greedy", &run.engine);

    println!("  policy       faults drains | G bad-min    G down Gshed Gevac  Gredo | B bad-min    B down Bshed Bredo");
    let reports = [&aware, &blind, &greedy];
    for r in reports {
        println!(
            "  {:<12} {:>6} {:>6} | {:>9.0} {:>9.0} {:>5} {:>5} {:>6} | {:>9.0} {:>9.0} {:>5} {:>5}",
            r.policy,
            r.faults,
            r.drains,
            r.guaranteed.bad_minutes(),
            r.guaranteed.downtime_minutes,
            r.guaranteed.shed,
            r.guaranteed.evacuations,
            r.guaranteed.readmitted,
            r.best_effort.bad_minutes(),
            r.best_effort.downtime_minutes,
            r.best_effort.shed,
            r.best_effort.readmitted
        );
    }

    // The fault schedule is part of the trace: every policy sees the
    // same failures and drains.
    assert_eq!(aware.faults, blind.faults);
    assert_eq!(aware.drains, blind.drains);
    assert_eq!(aware.faults as usize, fail_events);
    assert!(aware.faults > 0, "a fault bench needs faults");

    // The acceptance bar: under identical faults, the QoS-blind baseline
    // must hurt the guaranteed class at least SHIELD_BAR times more than
    // the QoS-aware policy. Deterministic scenario, so this either
    // always holds or never does.
    // Capped so the record stays finite JSON even when the aware policy
    // keeps the guaranteed class perfectly clean.
    let shield_ratio = shield(&blind, &aware).min(1_000.0);
    assert!(
        blind.guaranteed.bad_minutes() > 0.0,
        "the blind baseline must damage the guaranteed class somewhere \
         in a failure-heavy day"
    );
    assert!(
        shield_ratio >= SHIELD_BAR,
        "QoS-aware degradation must hold guaranteed bad minutes \
         {SHIELD_BAR}x below the blind baseline (got {shield_ratio:.1}x: \
         aware {:.0} vs blind {:.0})",
        aware.guaranteed.bad_minutes(),
        blind.guaranteed.bad_minutes()
    );
    println!(
        "  shield: aware {:.0} guaranteed bad-min vs blind {:.0} — {:.1}x (bar {SHIELD_BAR}x) OK",
        aware.guaranteed.bad_minutes(),
        blind.guaranteed.bad_minutes(),
        shield_ratio
    );

    let record = Record::new("faults", quick)
        .field("nics", aware.nics)
        .field("arrivals", arrivals)
        .field("guaranteed_nfs", guaranteed_nfs)
        .field("fail_events", fail_events)
        .field("drain_events", drain_events)
        .scenario(&aware)
        .kinds(&kinds)
        .field("shield_ratio", format!("{shield_ratio:.3}"))
        .policies(&reports);
    run.finish(&record);
}

/// Blind-over-aware guaranteed bad minutes; an aware policy that keeps
/// the class perfectly clean scores infinity.
fn shield(blind: &FleetReport, aware: &FleetReport) -> f64 {
    let a = aware.guaranteed.bad_minutes();
    let b = blind.guaranteed.bad_minutes();
    if a == 0.0 {
        if b > 0.0 {
            f64::INFINITY
        } else {
            1.0
        }
    } else {
        b / a
    }
}
