//! Seeded property tests for the placement invariants the fleet
//! orchestrator builds on: across randomized arrival sequences (kinds,
//! traffic profiles, SLA tightness), the contention-aware strategy backed
//! by the ground-truth oracle never produces an oracle-checked SLA
//! violation, and monopolization's NIC count is an upper bound on every
//! other strategy's.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use yala_core::QosClass;
use yala_nf::NfKind;
use yala_placement::{
    measure_entry, place_sequence, placed_from_entry, Arrival, OraclePredictor, Placed, Strategy,
};
use yala_sim::{NicSpec, Simulator};
use yala_traffic::TrafficProfile;

/// Draws one random arrival sequence: mixed NF kinds (memory-bound,
/// accelerator-bound, and traffic-sensitive), random traffic within the
/// evaluation ranges, and SLAs between tight (5%) and loose (25%).
fn random_arrivals(seed: u64, n: usize) -> Vec<Placed> {
    let spec = NicSpec::bluefield2();
    let mut sims = [(spec.model(), Simulator::new(spec))];
    let kinds = [
        NfKind::FlowStats,
        NfKind::Acl,
        NfKind::Nat,
        NfKind::IpRouter,
        NfKind::Nids,
    ];
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|i| {
            let arrival = Arrival {
                kind: *kinds.choose(&mut rng).expect("nonempty"),
                traffic: TrafficProfile::random(&mut rng, 128_000),
                sla_drop: rng.gen_range(0.05..0.25),
                qos: QosClass::Guaranteed,
            };
            let seed = seed * 1_000 + i as u64;
            let entry = measure_entry(&mut sims, arrival.kind, arrival.traffic, seed);
            placed_from_entry(&entry, arrival, None)
        })
        .collect()
}

#[test]
fn contention_aware_oracle_never_violates() {
    for seed in [1u64, 7, 23, 51] {
        // Noise-free ground truth: the oracle predictor and the episode's
        // final evaluation must agree exactly.
        let mut sim = Simulator::new(NicSpec::bluefield2());
        let arrivals = random_arrivals(seed, 12);
        let mut oracle = OraclePredictor::new(NicSpec::bluefield2());
        let out = place_sequence(&mut sim, &arrivals, Strategy::ContentionAware(&mut oracle));
        assert_eq!(
            out.violations, 0,
            "oracle-checked contention-aware placement violated an SLA (seed {seed})"
        );
        assert_eq!(out.placed, arrivals.len());
    }
}

#[test]
fn monopolization_nic_count_bounds_every_strategy() {
    for seed in [2u64, 13, 40] {
        let mut sim = Simulator::new(NicSpec::bluefield2());
        let arrivals = random_arrivals(seed, 10);
        let mono = place_sequence(&mut sim, &arrivals, Strategy::Monopolization);
        assert_eq!(mono.violations, 0, "monopolization never violates");
        assert_eq!(mono.nics.len(), arrivals.len());

        let greedy = place_sequence(&mut sim, &arrivals, Strategy::Greedy);
        let mut oracle = OraclePredictor::new(NicSpec::bluefield2());
        let aware = place_sequence(&mut sim, &arrivals, Strategy::ContentionAware(&mut oracle));
        for (name, out) in [("greedy", &greedy), ("contention-aware", &aware)] {
            assert!(
                mono.nics.len() >= out.nics.len(),
                "monopolization ({}) must use at least as many NICs as {name} ({}) at seed {seed}",
                mono.nics.len(),
                out.nics.len()
            );
        }
    }
}
