//! # yala-diagnosis — performance-bottleneck diagnosis (§7.5.2)
//!
//! Given a co-location and the target's traffic, which resource limits its
//! throughput? The paper's ground truth is `perf`-style hotspot analysis;
//! ours is the simulator's per-resource time accounting. Yala diagnoses by
//! comparing its per-resource throughput predictions; SLOMO, being
//! memory-only, can only ever answer "memory" — which is exactly why it
//! fails on NFs whose bottleneck shifts with traffic (Table 7).

use yala_core::{Contender, QosClass, YalaModel};
use yala_sim::ResourceKind;
use yala_traffic::TrafficProfile;

/// Selects the limiting `(resource, throughput)` pair from per-resource
/// predictions. Non-finite predictions (a pathological model extrapolation
/// can produce NaN) are ignored; if *every* entry is non-finite the
/// comparison falls back to [`f64::total_cmp`] over all entries, so the
/// function never panics on NaN.
///
/// # Panics
///
/// Panics only if `per` is empty (every NF uses at least the memory
/// subsystem).
pub fn limiting_resource(per: &[(ResourceKind, f64)]) -> (ResourceKind, f64) {
    per.iter()
        .copied()
        .filter(|(_, t)| t.is_finite())
        .min_by(|a, b| a.1.total_cmp(&b.1))
        .or_else(|| per.iter().copied().min_by(|a, b| a.1.total_cmp(&b.1)))
        .expect("at least the memory resource")
}

/// A diagnosis verdict: the predicted bottleneck resource.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Diagnosis {
    /// The resource predicted to limit throughput.
    pub bottleneck: ResourceKind,
    /// Predicted throughput at the bottleneck resource.
    pub limiting_tput: f64,
}

/// Yala's diagnosis: the resource whose per-resource model predicts the
/// lowest throughput is the bottleneck.
pub fn diagnose_yala(
    model: &YalaModel,
    solo_tput: f64,
    traffic: &TrafficProfile,
    contenders: &[Contender],
) -> Diagnosis {
    let per = model.per_resource(solo_tput, traffic, contenders);
    let (kind, tput) = limiting_resource(&per);
    Diagnosis {
        bottleneck: kind,
        limiting_tput: tput,
    }
}

/// Diagnosis-guided victim selection for reactive migration: given the
/// bottleneck resource of a (predicted) SLA violator and the contender
/// descriptions of its co-residents, returns the index of the co-resident
/// exerting the most pressure on that resource — the one whose eviction
/// most relieves the violator. Pressure is the cache-access rate for the
/// CPU/memory subsystem and the Eq. 1 round-time contribution
/// (`queues · service time`) for accelerators. Returns `None` for an
/// empty slate; NaN pressures rank below every finite pressure.
pub fn select_victim(bottleneck: ResourceKind, co_residents: &[Contender]) -> Option<usize> {
    let mut best: Option<(usize, f64)> = None;
    for (i, c) in co_residents.iter().enumerate() {
        let p = victim_pressure(bottleneck, c);
        // Strict > keeps the earliest of tied candidates: deterministic.
        if best.is_none_or(|(_, bp)| p > bp) {
            best = Some((i, p));
        }
    }
    best.map(|(i, _)| i)
}

/// A co-resident's pressure on `bottleneck`, NaN-safe: NaN ranks below
/// every finite pressure so a pathological counter never wins a victim
/// election. Public so callers can report the winning pressure (e.g. a
/// migration journal explaining the victim choice) without re-deriving
/// the election's scoring rule.
pub fn victim_pressure(bottleneck: ResourceKind, c: &Contender) -> f64 {
    let p = match bottleneck {
        ResourceKind::CpuMem => c.counters.car(),
        accel => c.pressure_on(accel),
    };
    if p.is_finite() {
        p
    } else {
        f64::NEG_INFINITY
    }
}

/// QoS-class-aware victim selection: like [`select_victim`], but the
/// election is held inside the lowest-precedence class present —
/// best-effort co-residents always shed before guaranteed ones, and a
/// guaranteed tenant is only ever selected when *no* best-effort
/// co-resident remains on the slate. Within the chosen class the victim
/// is still the max-pressure co-resident on the bottleneck.
/// `classes` runs parallel to `co_residents`.
///
/// # Panics
///
/// Panics if `classes` and `co_residents` have different lengths.
pub fn select_victim_qos(
    bottleneck: ResourceKind,
    co_residents: &[Contender],
    classes: &[QosClass],
) -> Option<usize> {
    assert_eq!(
        co_residents.len(),
        classes.len(),
        "one class per co-resident"
    );
    // The lowest-precedence (highest-ordinal) class on the slate is the
    // one that yields.
    let yielding = classes.iter().copied().max()?;
    let mut best: Option<(usize, f64)> = None;
    for (i, c) in co_residents.iter().enumerate() {
        if classes[i] != yielding {
            continue;
        }
        let p = victim_pressure(bottleneck, c);
        if best.is_none_or(|(_, bp)| p > bp) {
            best = Some((i, p));
        }
    }
    best.map(|(i, _)| i)
}

/// SLOMO's diagnosis: with a memory-only model, every degradation is
/// attributed to the memory subsystem.
pub fn diagnose_slomo(predicted_tput: f64) -> Diagnosis {
    Diagnosis {
        bottleneck: ResourceKind::CpuMem,
        limiting_tput: predicted_tput,
    }
}

/// Accuracy of a batch of diagnoses against ground truth.
pub fn correctness(predicted: &[ResourceKind], truth: &[ResourceKind]) -> f64 {
    assert_eq!(predicted.len(), truth.len(), "length mismatch");
    assert!(!predicted.is_empty(), "empty diagnosis batch");
    100.0 * predicted.iter().zip(truth).filter(|(p, t)| p == t).count() as f64
        / predicted.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use yala_core::TrainConfig;
    use yala_nf::NfKind;
    use yala_sim::{NicSpec, Simulator};

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
        use yala_core::AccelContention;
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
            let v =
                select_victim_qos(ResourceKind::CpuMem, &slate, &classes).expect("nonempty slate");
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
        let mem_heavy = yala_core::profiler::MemLevel {
            car: 2.0e8,
            wss: 12e6,
            cycles: 60.0,
        };
        let traffic_a = TrafficProfile::new(16_000, 1500, 80.0);
        let target_a = NfKind::FlowMonitor.workload(traffic_a, 2);
        let truth_a = sim.co_run(&[target_a.clone(), mem_heavy.bench()]).outcomes[0].bottleneck;
        assert_eq!(truth_a, ResourceKind::CpuMem, "regime A setup");
        let solo_a = sim.solo(&target_a).throughput_pps;
        let contenders_a = vec![yala_core::profiler::mem_bench_contender(
            &mut sim, mem_heavy,
        )];
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
        let contenders_b = vec![yala_core::profiler::regex_bench_contender(
            &mut sim, 1e12, 1446.0, 10_000.0,
        )];
        let verdict_b = diagnose_yala(&model, solo_b, &traffic_b, &contenders_b).bottleneck;
        assert_eq!(verdict_b, truth_b, "Yala must call regime B regex-bound");

        // SLOMO's memory-only view is right in A, wrong in B.
        assert_eq!(diagnose_slomo(solo_a).bottleneck, truth_a);
        assert_ne!(diagnose_slomo(solo_b).bottleneck, truth_b);
    }
}
