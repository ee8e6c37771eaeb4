//! End-to-end tests of the online-refinement loop: audit ground truth
//! flowing back into the trained banks. The invariants mirror the CI
//! gates — refinement is bit-deterministic across runs *and* engine
//! thread counts, an empty buffer is a strict no-op, observations can
//! never resurrect a capability-infeasible `(model, kind)` cell, and on
//! a drift-heavy scenario where the frozen (train-once) bank decays, the
//! online policy ends the episode with no more SLA-violation minutes
//! than the frozen one.
//!
//! The decay setup mimics production model rot: the bank trains while
//! flow counts live below `STALE_FLOW_CEILING`, then the fleet drifts
//! far past it, so the frozen memory curve extrapolates flat and
//! over-predicts throughput exactly where co-locations hurt the most.

use std::sync::OnceLock;
use yala::core::adaptive::{AdaptiveConfig, TrafficRanges};
use yala::core::{Engine, ModelBank, Observation, ObservationBuffer, TrainConfig, YalaModel};
use yala::fleet::{
    run_fleet, BuildOpts, Diagnoser, FleetConfig, FleetPolicy, FleetReport, FleetTrace,
    OnlineRefine, ProfiledTrace,
};
use yala::ml::GbrParams;
use yala::nf::NfKind;
use yala::placement::YalaPredictor;
use yala::sim::{CounterSample, NicSpec, ResourceKind};
use yala::traffic::TrafficProfile;

const KINDS: [NfKind; 2] = [NfKind::FlowStats, NfKind::Nat];
const NOISE: f64 = 0.005;
/// Largest flow count the stale bank saw in training; the scenario
/// drifts to `config().max_flows` (far beyond it).
const STALE_FLOW_CEILING: u32 = 32_000;

/// Reduced-cost training: stale flow range, smaller profiling quota and
/// GBR — the tests probe the refinement *mechanics*, not paper accuracy.
fn train_cfg() -> TrainConfig {
    TrainConfig {
        ranges: TrafficRanges {
            flows: (1_000, STALE_FLOW_CEILING),
            ..TrafficRanges::default()
        },
        adaptive: AdaptiveConfig {
            quota: 120,
            ..AdaptiveConfig::default()
        },
        gbr: GbrParams {
            n_estimators: 120,
            learning_rate: 0.1,
            ..GbrParams::default()
        },
        seed: 11,
        ..TrainConfig::default()
    }
}

/// A small drift-heavy scenario: memory-heavy traffic drifting well past
/// the bank's training range, tight SLAs.
fn config(seed: u64) -> FleetConfig {
    let mut cfg = FleetConfig::small(seed);
    cfg.portfolio = vec![(NicSpec::bluefield2(), 16)];
    cfg.duration_s = 2 * 3_600;
    cfg.mean_interarrival_s = 240.0;
    cfg.mean_lifetime_s = 3_600.0;
    cfg.audit_period_s = 600;
    cfg.kinds = KINDS.to_vec();
    cfg.max_flows = 200_000;
    cfg.sla_drop_range = (0.04, 0.12);
    cfg.noise_sigma = NOISE;
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
            FleetTrace::generate(config(41)),
            &engine,
            BuildOpts::default(),
        );
        Fixture { profiled, bank }
    })
}

fn run_policy(
    profiled: &ProfiledTrace,
    online: Option<OnlineRefine>,
    engine: &Engine,
) -> (FleetReport, usize) {
    let fx = fixture();
    let mut predictor = YalaPredictor::new(&fx.bank);
    let label = if online.is_some() { "online" } else { "frozen" };
    let report = run_fleet(
        profiled,
        FleetPolicy::ContentionAware {
            predictor: &mut predictor,
            diagnoser: Diagnoser::Yala(&fx.bank),
            online,
            qos_aware: true,
        },
        label,
        engine,
    );
    (report, predictor.absorbed())
}

/// Synthetic drifted-regime observations for one cell: heavy competitor
/// counters at a flow count far beyond the training ceiling, with the
/// measured outcome well below what the stale curve believes.
fn drifted_observations(model: yala::sim::NicModelId, kind: NfKind, n: usize) -> Vec<Observation> {
    (0..n)
        .map(|i| {
            let car = 1.5e8 + i as f64 * 1e7;
            Observation {
                model,
                kind,
                traffic: TrafficProfile::new(150_000 + 2_000 * i as u32, 1_500, 0.0),
                competitors: CounterSample {
                    l2crd: car / 2.0,
                    l2cwr: car / 2.0,
                    wss: 8e6,
                    memrd: car * 0.05,
                    memwr: car * 0.05,
                    ipc: 0.5,
                    irt: car * 2.0,
                },
                accel_pressure: Vec::new(),
                solo_tput: 1.0e6,
                measured_tput: 2.5e5 + 1e3 * i as f64,
            }
        })
        .collect()
}

#[test]
fn refinement_is_bit_deterministic_across_runs_and_thread_counts() {
    let fx = fixture();
    let bf2 = NicSpec::bluefield2().model();
    let mut buf = ObservationBuffer::new();
    for kind in KINDS {
        for o in drifted_observations(bf2, kind, 8) {
            buf.push(o);
        }
    }
    let mut a = fx.bank.clone();
    let mut b = fx.bank.clone();
    let mut c = fx.bank.clone();
    let na = a.refine(&buf, &Engine::sequential());
    let nb = b.refine(&buf, &Engine::with_threads(4));
    let nc = c.refine(&buf, &Engine::sequential());
    assert!(na > 0, "observations must be absorbed");
    assert_eq!(na, nb);
    assert_eq!(na, nc);
    assert_eq!(a, b, "refined bank must not depend on thread count");
    assert_eq!(a, c, "refined bank must not depend on the run");
    // The refit actually changed the affected cells.
    assert_ne!(a, fx.bank);
    for (_, _, m) in a.iter() {
        assert_eq!(m.refits(), 1);
    }
}

#[test]
fn online_fleet_run_is_bit_identical_across_engine_thread_counts() {
    let fx = fixture();
    let online = Some(OnlineRefine {
        min_observations: 10,
    });
    let (a, absorbed_a) = run_policy(&fx.profiled, online, &Engine::sequential());
    let (b, absorbed_b) = run_policy(&fx.profiled, online, &Engine::with_threads(4));
    assert!(absorbed_a > 0, "the drift scenario must produce telemetry");
    assert_eq!(absorbed_a, absorbed_b);
    assert_eq!(a, b, "online refinement must stay engine-invariant");
    assert_eq!(a.to_json(), b.to_json());
}

#[test]
fn refining_with_an_empty_buffer_is_a_noop() {
    let fx = fixture();
    let mut bank = fx.bank.clone();
    let absorbed = bank.refine(&ObservationBuffer::new(), &Engine::auto());
    assert_eq!(absorbed, 0);
    assert_eq!(
        bank, fx.bank,
        "empty refine must leave the bank bit-identical"
    );
    // Degenerate observations (non-positive outcomes) are skipped and
    // equally must not trigger a refit.
    let bf2 = NicSpec::bluefield2().model();
    let mut degenerate = ObservationBuffer::new();
    let mut bad = drifted_observations(bf2, NfKind::FlowStats, 1).remove(0);
    bad.measured_tput = 0.0;
    degenerate.push(bad);
    assert_eq!(bank.refine(&degenerate, &Engine::auto()), 0);
    assert_eq!(bank, fx.bank);
}

#[test]
fn online_never_worse_than_frozen_on_the_drift_episode() {
    let fx = fixture();
    let engine = Engine::auto();
    let (frozen, absorbed_frozen) = run_policy(&fx.profiled, None, &engine);
    let (online, absorbed_online) = run_policy(
        &fx.profiled,
        Some(OnlineRefine {
            min_observations: 10,
        }),
        &engine,
    );
    assert_eq!(absorbed_frozen, 0, "a frozen policy must not learn");
    assert!(absorbed_online > 0, "the online policy must learn");
    assert!(
        frozen.violation_minutes > 0.0,
        "the stale bank must decay under drift (otherwise this test probes nothing)"
    );
    assert!(
        online.violation_minutes <= frozen.violation_minutes,
        "online ({}) must not be worse than frozen ({})",
        online.violation_minutes,
        frozen.violation_minutes
    );
}

#[test]
fn absorbed_observations_shift_the_affected_cell_predictions() {
    let fx = fixture();
    let bf2 = NicSpec::bluefield2().model();
    let obs = drifted_observations(bf2, NfKind::FlowStats, 12);
    let mut bank = fx.bank.clone();
    let mut buf = ObservationBuffer::new();
    for o in &obs {
        buf.push(o.clone());
    }
    assert_eq!(bank.refine(&buf, &Engine::sequential()), obs.len());
    // The refined FlowStats cell now predicts materially lower
    // throughput at the observed operating point; the untouched Nat
    // cell is bit-identical.
    let probe = &obs[6];
    let contender = yala::core::Contender::memory_only("probe", probe.competitors);
    let frozen_pred = fx.bank.expect(bf2, NfKind::FlowStats).predict(
        probe.solo_tput,
        &probe.traffic,
        std::slice::from_ref(&contender),
    );
    let refined_pred = bank.expect(bf2, NfKind::FlowStats).predict(
        probe.solo_tput,
        &probe.traffic,
        std::slice::from_ref(&contender),
    );
    assert!(
        (refined_pred - probe.measured_tput).abs() < (frozen_pred - probe.measured_tput).abs(),
        "refined prediction ({refined_pred:.0}) must sit closer to the observed outcome \
         ({:.0}) than the frozen one ({frozen_pred:.0})",
        probe.measured_tput
    );
    assert_eq!(
        bank.expect(bf2, NfKind::Nat),
        fx.bank.expect(bf2, NfKind::Nat),
        "cells without observations stay untouched"
    );
}

#[test]
fn refinement_never_resurrects_capability_infeasible_cells() {
    // A mixed-portfolio bank: Nids (regex) trains on BlueField-2 only —
    // the (pensando, Nids) cell does not exist. Feeding observations for
    // it must not create it, while feasible cells absorb normally.
    let engine = Engine::sequential();
    let specs = [NicSpec::bluefield2(), NicSpec::pensando()];
    let kinds = [NfKind::FlowStats, NfKind::Nids];
    let mut bank = ModelBank::train_yala(&specs, NOISE, &kinds, &train_cfg(), &engine);
    let (bf2, pen) = (specs[0].model(), specs[1].model());
    assert!(bank.contains(bf2, NfKind::Nids));
    assert!(
        !bank.contains(pen, NfKind::Nids),
        "profiling matrix excludes it"
    );
    let cells_before = bank.len();

    let mut buf = ObservationBuffer::new();
    for o in drifted_observations(pen, NfKind::Nids, 4) {
        buf.push(o); // infeasible: must be ignored
    }
    let mut feasible = drifted_observations(bf2, NfKind::Nids, 4);
    for o in &mut feasible {
        // Give the regex NF's observation some accelerator pressure so
        // the composition-inversion path runs too.
        o.accel_pressure = vec![(ResourceKind::Regex, 1e-6)];
        buf.push(o.clone());
    }
    let absorbed = bank.refine(&buf, &engine);
    assert!(absorbed <= 4, "only the feasible cell's samples may count");
    assert!(absorbed > 0, "feasible observations must be absorbed");
    assert!(
        !bank.contains(pen, NfKind::Nids),
        "refinement must never resurrect an excluded cell"
    );
    assert_eq!(bank.len(), cells_before, "no cell added or removed");
}
