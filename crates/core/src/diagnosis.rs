//! # Performance-bottleneck diagnosis (§7.5.2)
//!
//! Given a co-location and the target's traffic, which resource limits its
//! throughput? The paper's ground truth is `perf`-style hotspot analysis;
//! ours is the simulator's per-resource time accounting. Yala diagnoses by
//! comparing its per-resource throughput predictions; SLOMO, being
//! memory-only, can only ever answer "memory" — which is exactly why it
//! fails on NFs whose bottleneck shifts with traffic (Table 7).

use crate::{Contender, QosClass, YalaModel};
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
