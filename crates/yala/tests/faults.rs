//! End-to-end tests of fault injection and QoS-tiered degradation: a
//! failure-and-drain-heavy scenario must stay bit-identical across runs
//! and engine thread counts (faults are ordinary events in the static
//! event list, not a second clock), and the QoS-aware policy must shield
//! the guaranteed class — fewer guaranteed sheds and no more guaranteed
//! bad minutes than the QoS-blind baseline under the *same* fault
//! schedule. The per-decision invariant (never evict a guaranteed NF
//! while a best-effort co-resident remains feasible) is property-tested
//! in `core::diagnosis`; here we check its fleet-level consequence.

use std::sync::OnceLock;
use yala::core::adaptive::AdaptiveConfig;
use yala::core::{Engine, ModelBank, TrainConfig, YalaModel};
use yala::fleet::{
    run_fleet, BuildOpts, Diagnoser, FaultKind, FaultPlan, FleetConfig, FleetPolicy, FleetReport,
    FleetTrace, ProfiledTrace,
};
use yala::ml::GbrParams;
use yala::nf::NfKind;
use yala::placement::YalaPredictor;
use yala::sim::NicSpec;

const KINDS: [NfKind; 2] = [NfKind::FlowStats, NfKind::Nat];
const NOISE: f64 = 0.005;

/// Reduced-cost training: the tests probe the fault machinery, not
/// paper accuracy.
fn train_cfg() -> TrainConfig {
    TrainConfig {
        adaptive: AdaptiveConfig {
            quota: 120,
            ..AdaptiveConfig::default()
        },
        gbr: GbrParams {
            n_estimators: 120,
            learning_rate: 0.1,
            ..GbrParams::default()
        },
        seed: 13,
        ..TrainConfig::default()
    }
}

/// A failure-heavy afternoon: a 12-NIC fleet where every NIC fails about
/// once over the horizon and two maintenance drains are announced, with
/// a 50/50 guaranteed/best-effort tenant mix.
fn config(seed: u64) -> FleetConfig {
    let mut cfg = FleetConfig::small(seed);
    cfg.portfolio = vec![(NicSpec::bluefield2(), 12)];
    cfg.duration_s = 3 * 3_600;
    cfg.mean_interarrival_s = 200.0;
    cfg.mean_lifetime_s = 2_400.0;
    cfg.audit_period_s = 600;
    cfg.kinds = KINDS.to_vec();
    cfg.max_flows = 200_000;
    cfg.sla_drop_range = (0.05, 0.15);
    cfg.noise_sigma = NOISE;
    cfg.guaranteed_fraction = 0.5;
    cfg.faults = FaultPlan {
        mtbf_s: 10_800.0,
        mean_repair_s: 1_800.0,
        drains: 2,
        drain_notice_s: 900,
        drain_offline_s: 900,
    };
    cfg
}

struct Fixture {
    profiled: ProfiledTrace,
    bank: ModelBank<YalaModel>,
}

fn fixture() -> &'static Fixture {
    static FIXTURE: OnceLock<Fixture> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let engine = Engine::auto();
        let bank = ModelBank::train_yala(
            &[NicSpec::bluefield2()],
            NOISE,
            &KINDS,
            &train_cfg(),
            &engine,
        );
        let profiled = ProfiledTrace::build(
            FleetTrace::generate(config(53)),
            &engine,
            BuildOpts::default(),
        );
        Fixture { profiled, bank }
    })
}

fn run_policy(profiled: &ProfiledTrace, qos_aware: bool, engine: &Engine) -> FleetReport {
    let fx = fixture();
    let mut predictor = YalaPredictor::new(&fx.bank);
    run_fleet(
        profiled,
        FleetPolicy::ContentionAware {
            predictor: &mut predictor,
            diagnoser: Diagnoser::Yala(&fx.bank),
            online: None,
            qos_aware,
        },
        if qos_aware { "yala-qos" } else { "yala-blind" },
        engine,
    )
}

#[test]
fn scenario_actually_mixes_classes_and_faults() {
    let fx = fixture();
    let trace = &fx.profiled.trace;
    let guaranteed = trace
        .records
        .iter()
        .filter(|r| r.qos.is_guaranteed())
        .count();
    assert!(
        guaranteed > 0 && guaranteed < trace.records.len(),
        "a 0.5 guaranteed fraction must draw both classes \
         ({guaranteed}/{} guaranteed)",
        trace.records.len()
    );
    let fails = trace
        .faults
        .iter()
        .filter(|f| f.kind == FaultKind::Fail)
        .count();
    let drains = trace
        .faults
        .iter()
        .filter(|f| f.kind == FaultKind::DrainStart)
        .count();
    assert!(fails >= 2, "the plan must schedule hard failures ({fails})");
    assert!(drains >= 1, "the plan must schedule drains ({drains})");
}

#[test]
fn fault_injected_reports_are_bit_identical_across_thread_counts() {
    let fx = fixture();
    let a = run_policy(&fx.profiled, true, &Engine::sequential());
    let b = run_policy(&fx.profiled, true, &Engine::with_threads(4));
    assert_eq!(a, b, "audit fan-out must not affect a fault-injected run");
    // From-scratch rebuild (trace generation + profiling) on a parallel
    // engine, replayed sequentially: the fault schedule and QoS draws
    // are pure functions of the config, not of the engine.
    let rebuilt = ProfiledTrace::build(
        FleetTrace::generate(config(53)),
        &Engine::with_threads(4),
        BuildOpts::default(),
    );
    let c = run_policy(&rebuilt, true, &Engine::sequential());
    assert_eq!(a, c, "trace/profiling fan-out must not affect the report");
    assert_eq!(a.to_json(), c.to_json());
    // The scenario exercised the machinery it claims to test.
    assert!(a.faults > 0, "hard failures must fire on-trace");
    assert!(a.drains > 0, "drains must fire on-trace");
    let evacuated = a.guaranteed.evacuations + a.best_effort.evacuations;
    let shed = a.guaranteed.shed + a.best_effort.shed;
    assert!(
        evacuated + shed > 0,
        "faults on an occupied fleet must displace at least one NF"
    );
}

#[test]
fn qos_aware_policy_shields_the_guaranteed_class() {
    let fx = fixture();
    let engine = Engine::sequential();
    let aware = run_policy(&fx.profiled, true, &engine);
    let blind = run_policy(&fx.profiled, false, &engine);
    // Identical fault schedule either way: faults come from the trace.
    assert_eq!(aware.faults, blind.faults);
    assert_eq!(aware.drains, blind.drains);
    // The headline claim: under the same faults, QoS-aware degradation
    // concentrates the damage on the best-effort class.
    assert!(
        aware.guaranteed.shed <= blind.guaranteed.shed,
        "aware must never shed more guaranteed NFs ({} vs {})",
        aware.guaranteed.shed,
        blind.guaranteed.shed
    );
    assert!(
        aware.guaranteed.bad_minutes() <= blind.guaranteed.bad_minutes(),
        "aware guaranteed bad minutes ({:.1}) must not exceed blind ({:.1})",
        aware.guaranteed.bad_minutes(),
        blind.guaranteed.bad_minutes()
    );
    // Parked best-effort NFs must eventually be readmitted (the backoff
    // loop runs) whenever the aware run parked anyone.
    if aware.best_effort.shed > 0 {
        assert!(
            aware.best_effort.readmitted > 0 || aware.best_effort.downtime_minutes > 0.0,
            "shed NFs must either re-enter or accrue downtime"
        );
    }
}
