//! Unit tests of the SLOMO baseline ([`crate::baseline`]) and of
//! bottleneck diagnosis ([`crate::diagnosis`]). They live in the crate-root
//! `tests` module, not beside each module, so that their test names
//! (`tests::<name>`) do not change when the code around them moves.

use crate::baseline::*;
use crate::diagnosis::*;
use crate::engine::Engine;
use crate::observe::{Observation, Refinable};
use crate::profiler::{bench_counters, MemLevel};
use crate::{Contender, QosClass, TrainConfig, YalaModel};
use yala_ml::metrics;
use yala_nf::bench::mem_bench;
use yala_nf::NfKind;
use yala_sim::{CounterSample, NicSpec, ResourceKind, Simulator};
use yala_traffic::TrafficProfile;

// The SLOMO baseline.

fn sim() -> Simulator {
    Simulator::with_noise(NicSpec::bluefield2(), 0.005, 42)
}

#[test]
fn accurate_under_memory_only_contention() {
    // Paper §2.2.1: "<10% average prediction error for memory-only
    // contention" — our SLOMO must reproduce that.
    let mut sim = sim();
    let target = NfKind::FlowStats.workload(TrafficProfile::default(), 1);
    let model = SlomoModel::train(&mut sim, &target, &default_mem_grid(), 7);
    // Held-out memory contention levels (off-grid).
    let mut truth = Vec::new();
    let mut pred = Vec::new();
    for &(car, wss) in &[
        (4.5e7, 3.0e6),
        (1.1e8, 5.0e6),
        (2.2e8, 9.0e6),
        (7.0e7, 0.8e6),
    ] {
        let level = MemLevel {
            car,
            wss,
            cycles: 600.0,
        };
        let features = bench_counters(&mut sim, level);
        let report = sim.co_run(&[target.clone(), mem_bench(car, wss)]);
        truth.push(report.outcomes[0].throughput_pps);
        pred.push(model.predict(&features));
    }
    let mape = metrics::mape(&truth, &pred);
    assert!(mape < 10.0, "SLOMO memory-only MAPE {mape}");
}

#[test]
fn blind_to_regex_contention() {
    // The motivating failure (Fig. 2a): regex contention changes the
    // truth but not SLOMO's features/prediction.
    let mut sim = sim();
    let target = NfKind::FlowMonitor.workload(TrafficProfile::default(), 1);
    let model = SlomoModel::train(&mut sim, &target, &default_mem_grid(), 7);
    let regex_hog = yala_nf::bench::regex_bench(5.0e6, 1446.0, 2000.0);
    let truth = sim.co_run(&[target.clone(), regex_hog]).outcomes[0].throughput_pps;
    // SLOMO sees (almost) no memory contentiousness from regex-bench.
    let features = sim
        .solo(&yala_nf::bench::regex_bench(5.0e6, 1446.0, 2000.0))
        .counters;
    let pred = model.predict(&features);
    let err = metrics::ape(truth, pred);
    assert!(
        err > 15.0,
        "SLOMO should be badly wrong under regex contention, err {err}"
    );
}

#[test]
fn extrapolation_scales_with_solo() {
    let mut sim = sim();
    let target = NfKind::FlowStats.workload(TrafficProfile::default(), 1);
    let model = SlomoModel::train(&mut sim, &target, &default_mem_grid(), 7);
    let c = CounterSample::default();
    let base = model.predict(&c);
    let scaled = model.predict_extrapolated(&c, model.solo_tput_train() * 0.5);
    assert!((scaled - base * 0.5).abs() / base < 1e-9);
}

#[test]
#[should_panic(expected = "empty training grid")]
fn empty_grid_panics() {
    let mut sim = sim();
    let target = NfKind::Acl.workload(TrafficProfile::default(), 1);
    SlomoModel::train(&mut sim, &target, &[], 0);
}

#[test]
fn refine_absorbs_observations_and_empty_is_noop() {
    let mut sim = Simulator::new(NicSpec::bluefield2());
    let target = NfKind::FlowStats.workload(TrafficProfile::default(), 1);
    let grid: Vec<MemLevel> = default_mem_grid().into_iter().step_by(5).collect();
    let mut model = SlomoModel::train(&mut sim, &target, &grid, 7);
    let frozen = model.clone();
    // Empty refine: bit-identical no-op.
    assert_eq!(model.refine(&[]), 0);
    assert_eq!(model, frozen);
    // Production says a heavy competitor really costs far more than
    // the mem-bench sweep suggested: predictions must move toward it.
    let heavy = CounterSample {
        l2crd: 2.5e8,
        l2cwr: 2.5e8,
        wss: 1.2e7,
        memrd: 2e7,
        memwr: 2e7,
        ipc: 0.5,
        irt: 5e8,
    };
    let before = model.predict(&heavy);
    let observed = before * 0.3;
    let obs: Vec<Observation> = (0..12)
        .map(|_| Observation {
            model: NicSpec::bluefield2().model(),
            kind: NfKind::FlowStats,
            traffic: TrafficProfile::default(),
            competitors: heavy,
            accel_pressure: Vec::new(),
            solo_tput: model.solo_tput_train(),
            measured_tput: observed,
        })
        .collect();
    let refs: Vec<&Observation> = obs.iter().collect();
    assert_eq!(model.refine(&refs), 12);
    assert_eq!(model.memory.refits(), 1);
    let after = model.predict(&heavy);
    assert!(
        (after - observed).abs() < (before - observed).abs(),
        "refit must move toward the observed outcome: {before} -> {after} vs {observed}"
    );
    // Deterministic: a second clone absorbing the same slice agrees.
    let mut again = frozen;
    again.refine(&refs);
    assert_eq!(again, model);
}

#[test]
fn bank_is_bit_identical_across_engine_thread_counts() {
    let specs = [NicSpec::bluefield2(), NicSpec::pensando()];
    let kinds = [NfKind::FlowStats, NfKind::Acl];
    let grid: Vec<MemLevel> = default_mem_grid().into_iter().step_by(6).collect();
    let train = |engine| train_slomo_bank(&specs, 0.005, &kinds, &grid, 7, &engine);
    let seq = train(Engine::sequential());
    assert_eq!(seq.len(), 4);
    assert_eq!(seq, train(Engine::with_threads(3)));
}

#[test]
fn per_scenario_sweep_at_zero_noise_fits_like_train() {
    // At noise 0 every simulator measures the same rows, so the
    // per-scenario sweep and one simulator's sweep fit one model.
    let spec = NicSpec::bluefield2();
    let target = NfKind::Acl.workload(TrafficProfile::default(), 2);
    let grid: Vec<MemLevel> = default_mem_grid().into_iter().step_by(6).collect();
    let swept = SlomoModel::train_per_scenario(&spec, 0.0, &target, &grid, 9);
    let reference = SlomoModel::train(&mut Simulator::new(spec), &target, &grid, 9);
    assert_eq!(swept, reference);
}

// Bottleneck diagnosis.

#[test]
fn slomo_always_says_memory() {
    let d = diagnose_slomo(1e6);
    assert_eq!(d.bottleneck, ResourceKind::CpuMem);
}

#[test]
fn limiting_resource_ignores_non_finite_entries() {
    use ResourceKind::*;
    let per = [(CpuMem, f64::NAN), (Regex, 2e6), (Compression, 3e6)];
    assert_eq!(limiting_resource(&per), (Regex, 2e6));
    let per = [(CpuMem, f64::INFINITY), (Regex, 5e6)];
    assert_eq!(limiting_resource(&per), (Regex, 5e6));
    // All non-finite: total order, no panic.
    let per = [(CpuMem, f64::NAN), (Regex, f64::NAN)];
    let (kind, tput) = limiting_resource(&per);
    assert!(tput.is_nan());
    assert!(kind == CpuMem || kind == Regex);
}

#[test]
fn select_victim_tracks_the_bottleneck_resource() {
    use crate::AccelContention;
    use yala_sim::CounterSample;
    let mem_hog = Contender::memory_only(
        "mem-hog",
        CounterSample {
            l2crd: 3e8,
            l2cwr: 1e8,
            ..CounterSample::default()
        },
    );
    let regex_hog = Contender::memory_only(
        "regex-hog",
        CounterSample {
            l2crd: 1e6,
            ..CounterSample::default()
        },
    )
    .with_accel(AccelContention {
        kind: ResourceKind::Regex,
        queues: 16.0,
        service_s: 2e-6,
    });
    let slate = [mem_hog, regex_hog];
    assert_eq!(select_victim(ResourceKind::CpuMem, &slate), Some(0));
    assert_eq!(select_victim(ResourceKind::Regex, &slate), Some(1));
    assert_eq!(select_victim(ResourceKind::CpuMem, &[]), None);
}

#[test]
fn select_victim_qos_sheds_best_effort_first() {
    use yala_sim::CounterSample;
    let hog = |name: &'static str, car: f64| {
        Contender::memory_only(
            name,
            CounterSample {
                l2crd: car,
                ..CounterSample::default()
            },
        )
    };
    // The guaranteed tenant presses hardest, but a best-effort
    // co-resident is present: the best-effort one must yield.
    let slate = [hog("g-hog", 9e8), hog("be-quiet", 1e6), hog("be-loud", 5e6)];
    let classes = [
        QosClass::Guaranteed,
        QosClass::BestEffort,
        QosClass::BestEffort,
    ];
    assert_eq!(
        select_victim_qos(ResourceKind::CpuMem, &slate, &classes),
        Some(2),
        "max-pressure *best-effort* co-resident"
    );
    // All guaranteed: degenerates to the class-blind election.
    let all_g = [QosClass::Guaranteed; 3];
    assert_eq!(
        select_victim_qos(ResourceKind::CpuMem, &slate, &all_g),
        select_victim(ResourceKind::CpuMem, &slate)
    );
    // Empty slate.
    assert_eq!(select_victim_qos(ResourceKind::CpuMem, &[], &[]), None);
}

#[test]
fn select_victim_qos_never_picks_guaranteed_while_best_effort_remains() {
    // Property sweep: random pressures, random class assignments —
    // whenever any best-effort co-resident exists, the victim is
    // best-effort.
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use yala_sim::CounterSample;
    let mut rng = StdRng::seed_from_u64(99);
    for _ in 0..200 {
        let n = rng.gen_range(1..6);
        let slate: Vec<Contender> = (0..n)
            .map(|i| {
                Contender::memory_only(
                    format!("c{i}"),
                    CounterSample {
                        l2crd: rng.gen_range(0.0..1e9),
                        ..CounterSample::default()
                    },
                )
            })
            .collect();
        let classes: Vec<QosClass> = (0..n)
            .map(|_| {
                if rng.gen_bool(0.5) {
                    QosClass::Guaranteed
                } else {
                    QosClass::BestEffort
                }
            })
            .collect();
        let v = select_victim_qos(ResourceKind::CpuMem, &slate, &classes).expect("nonempty slate");
        if classes.contains(&QosClass::BestEffort) {
            assert_eq!(
                classes[v],
                QosClass::BestEffort,
                "guaranteed tenant evicted while best-effort remained: {classes:?}"
            );
        }
    }
}

#[test]
fn select_victim_survives_nan_pressure() {
    use yala_sim::CounterSample;
    let nan = Contender::memory_only(
        "nan",
        CounterSample {
            l2crd: f64::NAN,
            ..CounterSample::default()
        },
    );
    let ok = Contender::memory_only(
        "ok",
        CounterSample {
            l2crd: 1e6,
            ..CounterSample::default()
        },
    );
    assert_eq!(select_victim(ResourceKind::CpuMem, &[nan, ok]), Some(1));
}

#[test]
fn correctness_math() {
    use ResourceKind::*;
    let pred = [CpuMem, Regex, Regex, CpuMem];
    let truth = [CpuMem, Regex, CpuMem, CpuMem];
    assert!((correctness(&pred, &truth) - 75.0).abs() < 1e-12);
}

#[test]
fn yala_diagnosis_matches_ground_truth_as_bottleneck_shifts() {
    // FlowMonitor's bottleneck shifts between the memory subsystem and
    // the regex engine depending on traffic and contention mix
    // (§7.5.2). Yala's verdict must agree with the simulator's
    // ground-truth accounting in both regimes; a memory-only predictor
    // is only right in the first.
    let mut sim = Simulator::with_noise(NicSpec::bluefield2(), 0.005, 4);
    let model = YalaModel::train(&mut sim, NfKind::FlowMonitor, &TrainConfig::default());

    // Regime A: low MTBR, heavy memory contention -> memory-bound.
    let mem_heavy = crate::profiler::MemLevel {
        car: 2.0e8,
        wss: 12e6,
        cycles: 60.0,
    };
    let traffic_a = TrafficProfile::new(16_000, 1500, 80.0);
    let target_a = NfKind::FlowMonitor.workload(traffic_a, 2);
    let truth_a = sim.co_run(&[target_a.clone(), mem_heavy.bench()]).outcomes[0].bottleneck;
    assert_eq!(truth_a, ResourceKind::CpuMem, "regime A setup");
    let solo_a = sim.solo(&target_a).throughput_pps;
    let contenders_a = vec![crate::profiler::mem_bench_contender(&mut sim, mem_heavy)];
    let verdict_a = diagnose_yala(&model, solo_a, &traffic_a, &contenders_a).bottleneck;
    assert_eq!(verdict_a, truth_a, "Yala must call regime A memory-bound");

    // Regime B: high MTBR, heavy regex contention, mild memory ->
    // regex-bound.
    let traffic_b = TrafficProfile::new(16_000, 1500, 1_000.0);
    let target_b = NfKind::FlowMonitor.workload(traffic_b, 2);
    let regex_heavy = yala_nf::bench::regex_bench(1e12, 1446.0, 10_000.0);
    let truth_b = sim.co_run(&[target_b.clone(), regex_heavy]).outcomes[0].bottleneck;
    assert_eq!(truth_b, ResourceKind::Regex, "regime B setup");
    let solo_b = sim.solo(&target_b).throughput_pps;
    let contenders_b = vec![crate::profiler::regex_bench_contender(
        &mut sim, 1e12, 1446.0, 10_000.0,
    )];
    let verdict_b = diagnose_yala(&model, solo_b, &traffic_b, &contenders_b).bottleneck;
    assert_eq!(verdict_b, truth_b, "Yala must call regime B regex-bound");

    // SLOMO's memory-only view is right in A, wrong in B.
    assert_eq!(diagnose_slomo(solo_a).bottleneck, truth_a);
    assert_ne!(diagnose_slomo(solo_b).bottleneck, truth_b);
}
