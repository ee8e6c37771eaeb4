//! Parity guarantees of the batched dataplane and the parallel scenario
//! engine:
//!
//! 1. `build_workload` via `process_batch` produces **byte-identical**
//!    `WorkloadSpec`s to the per-packet path, for every NF kind, across
//!    traffic profiles and batch sizes.
//! 2. The parallel engine reproduces the sequential sweeps **exactly**:
//!    same seeds → same profiling datasets, same trained models, same
//!    placement preparation.

use yala::core::adaptive::{adaptive_profile_all, AdaptiveConfig, TrafficRanges};
use yala::core::bank::matrix_cells;
use yala::core::engine::{scenario_seed, simulator_for};
use yala::core::{Engine, ModelBank, QosClass, TrainConfig, YalaModel};
use yala::nf::runtime::{build_workload_per_packet, Profiler, DEFAULT_SAMPLE_PACKETS};
use yala::nf::NfKind;
use yala::placement::{prepare_all, Arrival};
use yala::sim::NicSpec;
use yala::slomo::{default_mem_grid, train_slomo_bank};
use yala::traffic::TrafficProfile;

/// `process_batch` must change *nothing* about the measured demand: the
/// batched workload equals the per-packet oracle bit for bit, for every NF
/// in the registry and for traffic profiles exercising all three
/// attributes.
#[test]
fn batched_workloads_match_per_packet_oracle_for_every_nf() {
    let profiles = [
        TrafficProfile::new(2_000, 1024, 600.0),
        TrafficProfile::new(16_000, 512, 0.0),
        TrafficProfile::new(500, 1500, 1_100.0),
    ];
    for kind in NfKind::ALL {
        for (p_idx, &profile) in profiles.iter().enumerate() {
            let seed = 31 * (p_idx as u64 + 1);
            let batched = kind.workload(profile, seed);
            let mut nf = kind.build();
            let oracle =
                build_workload_per_packet(nf.as_mut(), profile, DEFAULT_SAMPLE_PACKETS, seed);
            assert_eq!(batched, oracle, "{kind} diverges at profile {profile:?}");
        }
    }
}

/// The arena refill size is a pure performance knob: any batch size yields
/// the same workload.
#[test]
fn batch_size_is_invisible_in_the_measurement() {
    let profile = TrafficProfile::new(3_000, 900, 700.0);
    for kind in [NfKind::FlowStats, NfKind::Nids, NfKind::IpCompGateway] {
        let reference = kind.workload(profile, 5);
        for batch in [1usize, 17, 600] {
            let mut profiler = Profiler::new().with_batch_packets(batch);
            let w = kind.workload_with(&mut profiler, profile, 5);
            assert_eq!(w, reference, "{kind} diverges at batch size {batch}");
        }
    }
}

/// A reused profiler must not leak state between NFs or profiles.
#[test]
fn profiler_reuse_is_stateless_across_calls() {
    let mut profiler = Profiler::new();
    let a1 = NfKind::FlowMonitor.workload_with(
        &mut profiler,
        TrafficProfile::new(4_000, 1500, 900.0),
        1,
    );
    let _interleaved =
        NfKind::Nat.workload_with(&mut profiler, TrafficProfile::new(64_000, 256, 0.0), 2);
    let a2 = NfKind::FlowMonitor.workload_with(
        &mut profiler,
        TrafficProfile::new(4_000, 1500, 900.0),
        1,
    );
    assert_eq!(a1, a2, "profiler reuse must be invisible");
}

/// Parallel adaptive profiling is bit-identical to the sequential sweep:
/// the same datasets (features and targets), measurements, and pruning
/// decisions.
#[test]
fn parallel_adaptive_profiling_matches_sequential() {
    let spec = NicSpec::bluefield2();
    let kinds = [
        NfKind::FlowStats,
        NfKind::FlowMonitor,
        NfKind::Acl,
        NfKind::IpTunnel,
    ];
    let ranges = TrafficRanges::default();
    let cfg = AdaptiveConfig {
        quota: 60,
        ..AdaptiveConfig::default()
    };
    let seq = adaptive_profile_all(&spec, 0.005, &kinds, ranges, &cfg, &Engine::sequential());
    let par = adaptive_profile_all(&spec, 0.005, &kinds, ranges, &cfg, &Engine::with_threads(4));
    assert_eq!(seq.len(), par.len());
    for (kind, (s, p)) in kinds.iter().zip(seq.iter().zip(&par)) {
        assert_eq!(s.kept, p.kept, "{kind} pruning diverged");
        assert_eq!(s.measurements, p.measurements, "{kind} cost diverged");
        assert_eq!(s.dataset, p.dataset, "{kind} dataset diverged");
    }
}

/// Parallel fleet training yields a bitwise-equal bank.
#[test]
fn parallel_model_training_matches_sequential() {
    let kinds = [NfKind::FlowStats, NfKind::Acl];
    let cfg = TrainConfig {
        adaptive: AdaptiveConfig {
            quota: 50,
            ..AdaptiveConfig::default()
        },
        ..TrainConfig::default()
    };
    let train =
        |engine| ModelBank::train_yala(&[NicSpec::bluefield2()], 0.005, &kinds, &cfg, &engine);
    let seq = train(Engine::sequential());
    assert_eq!(seq.len(), kinds.len());
    assert_eq!(
        seq,
        train(Engine::with_threads(2)),
        "parallel training diverged"
    );
}

/// A mixed portfolio gives a kind cells on both NIC models, so the engine
/// runs kind jobs of two cells next to jobs of one (Nids: BF-2 only).
/// The Yala and SLOMO banks equal the sequential ones at every width, and
/// the Yala bank equals its cells trained each on a fresh thread, where
/// no cell inherits another's measurements.
#[test]
fn kind_jobs_train_a_mixed_portfolio_like_sequential() {
    let specs = [NicSpec::bluefield2(), NicSpec::pensando()];
    let kinds = [NfKind::FlowStats, NfKind::Nat, NfKind::Nids];
    let cfg = TrainConfig {
        adaptive: AdaptiveConfig {
            quota: 50,
            ..AdaptiveConfig::default()
        },
        ..TrainConfig::default()
    };
    let yala = |engine| ModelBank::train_yala(&specs, 0.005, &kinds, &cfg, &engine);
    let grid = default_mem_grid();
    let slomo = |engine| train_slomo_bank(&specs, 0.005, &kinds, &grid, 7, &engine);
    let (yala_seq, slomo_seq) = (yala(Engine::sequential()), slomo(Engine::sequential()));
    assert_eq!(yala_seq.len(), 5);
    let mut per_cell = ModelBank::new();
    for (i, (s, kind)) in matrix_cells(&specs, &kinds).into_iter().enumerate() {
        let train = || {
            let mut sim = simulator_for(&specs[s], 0.005, scenario_seed(cfg.seed, i));
            YalaModel::train(&mut sim, kind, &cfg)
        };
        let model = std::thread::scope(|scope| scope.spawn(train).join().expect("cell"));
        per_cell.insert(specs[s].model(), kind, model);
    }
    assert_eq!(
        yala_seq, per_cell,
        "kind jobs diverged from per-cell training"
    );
    assert_eq!(slomo_seq.len(), 5);
    for threads in [2, 3] {
        let engine = Engine::with_threads(threads);
        assert_eq!(
            yala(engine),
            yala_seq,
            "Yala bank diverged at {threads} threads"
        );
        assert_eq!(
            slomo(engine),
            slomo_seq,
            "SLOMO bank diverged at {threads} threads"
        );
    }
}

/// Parallel placement preparation reproduces the sequential arrival loop
/// exactly — workloads, solo measurements, counters.
#[test]
fn parallel_placement_preparation_matches_sequential() {
    let spec = NicSpec::bluefield2();
    let kinds = [NfKind::FlowStats, NfKind::Nat, NfKind::Acl, NfKind::Nids];
    let arrivals: Vec<Arrival> = (0..8)
        .map(|i| Arrival {
            kind: kinds[i % kinds.len()],
            traffic: TrafficProfile::new(2_000 + 500 * i as u32, 768, 200.0),
            sla_drop: 0.05 + 0.01 * i as f64,
            qos: QosClass::Guaranteed,
        })
        .collect();
    let model = spec.model();
    let seq = prepare_all(
        std::slice::from_ref(&spec),
        0.005,
        &arrivals,
        77,
        &Engine::sequential(),
    );
    let par = prepare_all(
        std::slice::from_ref(&spec),
        0.005,
        &arrivals,
        77,
        &Engine::with_threads(3),
    );
    for (s, p) in seq.iter().zip(&par) {
        assert_eq!(s.workload, p.workload);
        assert_eq!(s.solos, p.solos);
        assert_eq!(s.sla_floor(model), p.sla_floor(model));
    }
}
