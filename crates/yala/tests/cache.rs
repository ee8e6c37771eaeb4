//! End-to-end profile-cache tests: the quantization key contract
//! (sub-threshold drift shares a key, above-threshold drift moves it),
//! bitwise parity between cached and fresh measurements across seeds,
//! and byte-identical quantized builds across engine thread counts —
//! the properties that make the cache safe to put in front of every
//! profiling entry point.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use yala::core::{Engine, ProfileCache};
use yala::fleet::{
    run_fleet, BuildOpts, FleetConfig, FleetPolicy, FleetTrace, ProfiledTrace, TrafficModel,
};
use yala::nf::NfKind;
use yala::sim::NicSpec;
use yala::traffic::{TrafficProfile, TrafficQuantizer};

/// A fast quantized-mode scenario: template-clustered tenants on a
/// small fleet, a couple of simulated hours.
fn cached_config(seed: u64) -> FleetConfig {
    let mut cfg = FleetConfig::small(seed);
    cfg.portfolio = vec![(NicSpec::bluefield2(), 20)];
    cfg.duration_s = 3_600;
    cfg.mean_interarrival_s = 150.0;
    cfg.mean_lifetime_s = 1_200.0;
    cfg.audit_period_s = 600;
    cfg.kinds = vec![NfKind::FlowStats, NfKind::Acl, NfKind::Nat];
    cfg.max_flows = 200_000;
    cfg.traffic_model = TrafficModel::Templates {
        count: 3,
        jitter: cfg.reprofile_threshold / 4.0,
    };
    cfg
}

/// A profile whose attributes sit far enough inside their clamp ranges
/// that a threshold-sized drift cannot saturate (the key-movement
/// guarantee legitimately degrades at clamped range edges).
fn interior_profile(rng: &mut StdRng) -> TrafficProfile {
    TrafficProfile::new(
        rng.gen_range(2_000..350_000),
        rng.gen_range(100..1_100),
        rng.gen_range(2.0..800.0),
    )
}

#[test]
fn sub_threshold_drift_never_changes_the_key_above_threshold_always_does() {
    for threshold in [0.10, 0.20] {
        let quantizer = TrafficQuantizer::new(threshold);
        let mut rng = StdRng::seed_from_u64(0xCAFE ^ threshold.to_bits());
        for _ in 0..500 {
            let (key, rep) = quantizer.canonicalize(&interior_profile(&mut rng));
            // Drift every attribute by up to half the threshold
            // (relative, same metric as the drift detector): same key.
            let f = 1.0 + rng.gen_range(-0.5..0.5) * threshold;
            let sub = TrafficProfile::new(
                (rep.flow_count as f64 * f).round() as u32,
                (rep.packet_size as f64 * f).round() as u32,
                rep.mtbr * f,
            );
            assert!(
                rep.relative_change(&sub) <= threshold,
                "drift construction stayed sub-threshold"
            );
            assert_eq!(
                quantizer.key(&sub),
                key,
                "sub-threshold drift moved the key"
            );
            // Push one attribute strictly past the threshold: new key.
            let g = 1.0 + 1.5 * threshold;
            let over = TrafficProfile::new(
                (rep.flow_count as f64 * g).round() as u32,
                rep.packet_size,
                rep.mtbr,
            );
            assert!(rep.relative_change(&over) > threshold);
            assert_ne!(
                quantizer.key(&over),
                key,
                "above-threshold drift kept the key"
            );
        }
    }
}

#[test]
fn cached_profiles_are_bitwise_identical_to_fresh_ones_across_seeds() {
    let engine = Engine::sequential();
    for seed in [3, 19, 77] {
        // Two independent fresh builds: the measurement is a pure
        // function of the key, so they agree bit for bit.
        let fresh_a =
            ProfiledTrace::build_cached(FleetTrace::generate(cached_config(seed)), &engine);
        let fresh_b =
            ProfiledTrace::build_cached(FleetTrace::generate(cached_config(seed)), &engine);
        // A warm build against a pre-populated cache: every lookup hits,
        // nothing is measured, and the bytes still match the fresh runs.
        let cache = ProfileCache::new();
        let _warmup = ProfiledTrace::build(
            FleetTrace::generate(cached_config(seed)),
            &engine,
            BuildOpts::quantized(Some(&cache)),
        );
        let warm = ProfiledTrace::build(
            FleetTrace::generate(cached_config(seed)),
            &engine,
            BuildOpts::quantized(Some(&cache)),
        );
        assert_eq!(warm.stats.misses, 0, "warm build must be all hits");
        assert_eq!(warm.stats.hits, warm.stats.lookups);
        for (x, label) in [(&fresh_b, "fresh"), (&warm, "warm")] {
            assert_eq!(fresh_a.timelines.len(), x.timelines.len());
            for (a, b) in fresh_a.timelines.iter().zip(&x.timelines) {
                assert_eq!(a.snapshots.len(), b.snapshots.len());
                for ((ta, pa), (tb, pb)) in a.snapshots.iter().zip(&b.snapshots) {
                    assert_eq!(ta, tb, "{label} snapshot time diverged (seed {seed})");
                    assert_eq!(
                        pa.workload, pb.workload,
                        "{label} workload diverged (seed {seed})"
                    );
                    assert_eq!(pa.solos, pb.solos, "{label} solos diverged (seed {seed})");
                }
            }
        }
    }
}

#[test]
fn quantized_build_and_report_are_byte_identical_across_thread_counts() {
    let seq = ProfiledTrace::build_cached(
        FleetTrace::generate(cached_config(41)),
        &Engine::sequential(),
    );
    let par = ProfiledTrace::build_cached(
        FleetTrace::generate(cached_config(41)),
        &Engine::with_threads(4),
    );
    assert_eq!(
        seq.stats, par.stats,
        "cache counters must be thread-invariant"
    );
    assert!(seq.stats.hits > 0, "template tenants must share profiles");
    let a = run_fleet(&seq, FleetPolicy::Greedy, "greedy", &Engine::sequential());
    let b = run_fleet(
        &par,
        FleetPolicy::Greedy,
        "greedy",
        &Engine::with_threads(4),
    );
    assert_eq!(a, b);
    assert_eq!(a.to_json(), b.to_json());
}

#[test]
fn exact_mode_counts_every_snapshot_as_a_miss() {
    let mut cfg = cached_config(7);
    cfg.traffic_model = TrafficModel::Uniform;
    let p = ProfiledTrace::build(
        FleetTrace::generate(cfg),
        &Engine::sequential(),
        BuildOpts::default(),
    );
    // A fresh exact-mode build shares nothing: the cache is a pure
    // pass-through and the stats say so.
    assert_eq!(p.stats.hits, 0);
    assert_eq!(p.stats.misses, p.snapshot_count() as u64);
    assert_eq!(p.stats.inserts, p.stats.misses);
    assert_eq!(p.stats.delta_reprofiles, 0, "exact keys share no buckets");
    assert_eq!(
        p.stats.full_reprofiles + p.timelines.len() as u64,
        p.stats.lookups
    );
}
