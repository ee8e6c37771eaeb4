//! Memory-subsystem contention model: shared-LLC occupancy, miss-ratio
//! curves, and DRAM-bandwidth queueing.
//!
//! The model is deliberately *richer* than the piecewise-linear abstraction
//! Yala's black-box GBR learns (paper §4.1.2): occupancy follows an
//! LRU-like pressure allocation, the miss ratio rises with the non-resident
//! fraction of the working set, and a shared DRAM-bandwidth queueing factor
//! couples all workloads. The phenomenology it produces matches the paper's
//! measurements: piecewise-linear-then-flat throughput drop as competing
//! cache-access rate (CAR) rises (Fig. 3a), flow-count sensitivity with an
//! LLC-saturation plateau (Fig. 6a), and WSS-dependent competitor pressure
//! (Fig. 6b).

use crate::spec::NicSpec;

/// Per-workload inputs to the memory model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MemInput {
    /// LLC accesses per second (CAR) this workload currently issues.
    pub refs_per_s: f64,
    /// Bytes of working set it keeps live.
    pub wss_bytes: f64,
    /// Fraction of accesses that are writes.
    pub write_frac: f64,
}

/// Per-workload outcome of the memory model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MemOutcome {
    /// LLC bytes this workload occupies at equilibrium.
    pub occupancy_bytes: f64,
    /// Its LLC miss ratio.
    pub miss_ratio: f64,
    /// Average stall added to each LLC access, seconds (includes the DRAM
    /// queueing factor).
    pub stall_per_ref_s: f64,
}

/// Global state of the memory subsystem for one solve.
#[derive(Debug, Clone, PartialEq)]
pub struct MemState {
    /// Per-workload outcomes, in input order.
    pub outcomes: Vec<MemOutcome>,
    /// Total DRAM traffic as a fraction of peak bandwidth (can exceed 1
    /// transiently during fixed-point iteration; the latency factor and
    /// throughput feedback push it back under).
    pub dram_utilization: f64,
    /// Latency multiplier applied to miss penalties.
    pub dram_queue_factor: f64,
}

/// Cap on the DRAM queueing multiplier (keeps fixed-point iterates finite).
const MAX_QUEUE_FACTOR: f64 = 20.0;
/// Utilisation knee of the M/M/1-style latency curve.
const UTIL_KNEE: f64 = 0.95;

/// Solves the memory subsystem for a set of co-located workloads.
///
/// Model:
/// 1. Demand `D_i = min(wss_i, C)`. If `Σ D ≤ C` everyone is fully
///    resident.
/// 2. Otherwise cache is allocated by pressure weights
///    `w_i = D_i · refs_i^alpha` with per-workload caps at `D_i`
///    (water-filling redistribution of unused share).
/// 3. Miss ratio `m_i = floor + (1-floor) · (1 - A_i/D_i)^gamma`.
/// 4. DRAM traffic `Σ refs_i · m_i · line` relative to peak bandwidth sets
///    a queueing factor `q = 1/(1 - min(U, knee))` (capped) multiplying the
///    miss penalty.
pub fn solve(spec: &NicSpec, inputs: &[MemInput]) -> MemState {
    let mut outcomes = Vec::with_capacity(inputs.len());
    let (dram_utilization, dram_queue_factor) =
        solve_into(spec, inputs, &mut Scratch::default(), &mut outcomes);
    MemState {
        outcomes,
        dram_utilization,
        dram_queue_factor,
    }
}

/// The buffers [`solve_into`] works in, kept by a caller that solves
/// again and again.
#[derive(Debug, Clone, Default)]
pub(crate) struct Scratch {
    demands: Vec<f64>,
    alloc: Vec<f64>,
    open: Vec<usize>,
    weights: Vec<f64>,
}

/// [`solve`] into `out`, through `scratch`: returns the DRAM utilisation
/// and queueing factor.
pub(crate) fn solve_into(
    spec: &NicSpec,
    inputs: &[MemInput],
    scratch: &mut Scratch,
    out: &mut Vec<MemOutcome>,
) -> (f64, f64) {
    let c = spec.llc_bytes;
    let Scratch {
        demands,
        alloc,
        open,
        weights,
    } = scratch;
    demands.clear();
    demands.extend(inputs.iter().map(|w| w.wss_bytes.min(c).max(0.0)));
    let total_demand: f64 = demands.iter().sum();

    let occupancy: &[f64] = if total_demand <= c {
        demands
    } else {
        pressure_allocate(
            c,
            demands,
            inputs,
            spec.occupancy_alpha,
            alloc,
            open,
            weights,
        );
        alloc
    };

    // Miss ratios from resident fractions. Residency is measured against
    // the *full* working set (not the capacity-capped demand): a 32 MB
    // working set in a 6 MB cache is mostly non-resident even when it owns
    // the whole LLC. The slope term saturates the curve at miss ratio 1 —
    // the Fig. 6a plateau once the LLC is hopeless.
    out.clear();
    out.extend(inputs.iter().zip(occupancy).map(|(w, &a)| {
        let miss_ratio = if w.wss_bytes <= 0.0 {
            spec.miss_floor
        } else {
            let nonresident = (1.0 - a / w.wss_bytes).clamp(0.0, 1.0);
            let eff = (spec.miss_slope * nonresident).min(1.0);
            spec.miss_floor + (1.0 - spec.miss_floor) * eff.powf(spec.miss_gamma)
        };
        MemOutcome {
            occupancy_bytes: a,
            miss_ratio,
            stall_per_ref_s: 0.0,
        }
    }));

    // DRAM bandwidth queueing.
    let traffic: f64 = inputs
        .iter()
        .zip(out.iter())
        .map(|(w, o)| w.refs_per_s * o.miss_ratio * spec.line_bytes)
        .sum();
    let util = traffic / spec.dram_bw_bytes;
    let queue_factor = (1.0 / (1.0 - util.min(UTIL_KNEE))).min(MAX_QUEUE_FACTOR);
    for o in out.iter_mut() {
        o.stall_per_ref_s = spec.llc_hit_s + o.miss_ratio * spec.dram_latency_s * queue_factor;
    }
    (util, queue_factor)
}

/// Allocates `capacity` bytes among workloads into `alloc` by pressure
/// weight `w_i = D_i * refs_i^alpha`, capping each at its demand `D_i`
/// and redistributing the excess until stable. `open` and `weights` are
/// scratch.
fn pressure_allocate(
    capacity: f64,
    demands: &[f64],
    inputs: &[MemInput],
    alpha: f64,
    alloc: &mut Vec<f64>,
    open: &mut Vec<usize>,
    weights: &mut Vec<f64>,
) {
    let n = demands.len();
    alloc.clear();
    alloc.resize(n, 0.0);
    open.clear();
    open.extend((0..n).filter(|&i| demands[i] > 0.0));
    let mut remaining = capacity;
    // At most n rounds: each round either finishes or closes >=1 workload.
    for _ in 0..n {
        if open.is_empty() || remaining <= 0.0 {
            break;
        }
        weights.clear();
        weights.extend(
            open.iter()
                .map(|&i| demands[i] * (inputs[i].refs_per_s.max(1.0)).powf(alpha)),
        );
        let total_w: f64 = weights.iter().sum();
        if total_w <= 0.0 {
            break;
        }
        // Every share is cut from this round's `remaining`.
        for w in weights.iter_mut() {
            *w = remaining * *w / total_w;
        }
        let shares = &weights[..];
        let mut kept = 0;
        for k in 0..open.len() {
            let i = open[k];
            if shares[k] >= demands[i] {
                alloc[i] = demands[i];
                remaining -= demands[i];
            } else {
                open[kept] = i;
                kept += 1;
            }
        }
        if kept == open.len() {
            // Nobody was capped, so `open` still lines up with `shares`.
            for (&i, &share) in open.iter().zip(shares) {
                alloc[i] = share;
            }
            return;
        }
        open.truncate(kept);
    }
    // Degenerate exit: give what remains proportionally (only reachable if
    // every workload was capped, i.e. total demand <= capacity).
    for i in 0..n {
        if alloc[i] == 0.0 && demands[i] > 0.0 {
            alloc[i] = demands[i].min(remaining.max(0.0));
            remaining -= alloc[i];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> NicSpec {
        NicSpec::bluefield2()
    }

    fn input(refs: f64, wss: f64) -> MemInput {
        MemInput {
            refs_per_s: refs,
            wss_bytes: wss,
            write_frac: 0.3,
        }
    }

    #[test]
    fn everything_fits_floor_miss_ratio() {
        let s = spec();
        let st = solve(&s, &[input(1e7, 1e6), input(1e7, 2e6)]);
        for o in &st.outcomes {
            assert!((o.miss_ratio - s.miss_floor).abs() < 1e-9);
        }
        assert_eq!(st.outcomes[0].occupancy_bytes, 1e6);
    }

    #[test]
    fn oversubscription_raises_miss_ratio() {
        let s = spec();
        // Two 5 MB working sets in a 6 MB cache.
        let st = solve(&s, &[input(1e8, 5e6), input(1e8, 5e6)]);
        for o in &st.outcomes {
            assert!(o.miss_ratio > s.miss_floor + 0.1, "miss {:?}", o.miss_ratio);
            assert!(o.occupancy_bytes < 5e6);
        }
        // Symmetric inputs -> symmetric outcomes.
        assert!((st.outcomes[0].miss_ratio - st.outcomes[1].miss_ratio).abs() < 1e-9);
    }

    #[test]
    fn hotter_workload_gets_more_cache() {
        let s = spec();
        let st = solve(&s, &[input(1e9, 5e6), input(1e7, 5e6)]);
        assert!(st.outcomes[0].occupancy_bytes > st.outcomes[1].occupancy_bytes);
        assert!(st.outcomes[0].miss_ratio < st.outcomes[1].miss_ratio);
    }

    #[test]
    fn rising_competitor_car_monotonically_hurts_target() {
        let s = spec();
        let mut last_stall = 0.0;
        for comp_car in [1e7, 5e7, 1e8, 2e8, 4e8] {
            let st = solve(&s, &[input(4e7, 2e6), input(comp_car, 8e6)]);
            let stall = st.outcomes[0].stall_per_ref_s;
            assert!(
                stall >= last_stall - 1e-15,
                "stall should not drop as competitor CAR grows"
            );
            last_stall = stall;
        }
        assert!(last_stall > solve(&s, &[input(4e7, 2e6)]).outcomes[0].stall_per_ref_s);
    }

    #[test]
    fn bigger_competitor_wss_hurts_more() {
        let s = spec();
        let small = solve(&s, &[input(4e7, 2e6), input(1e8, 0.5e6)]);
        let large = solve(&s, &[input(4e7, 2e6), input(1e8, 10e6)]);
        assert!(
            large.outcomes[0].miss_ratio > small.outcomes[0].miss_ratio,
            "10MB competitor should displace more than 0.5MB"
        );
    }

    #[test]
    fn target_wss_growth_saturates() {
        // Growing the target working set against a fixed competitor first
        // raises the miss ratio, then the *resident fraction* stabilises —
        // the Fig. 6a plateau.
        let s = spec();
        let miss_at = |wss: f64| -> f64 {
            solve(&s, &[input(5e7, wss), input(1e8, 10e6)]).outcomes[0].miss_ratio
        };
        let early_slope = miss_at(2e6) - miss_at(0.5e6);
        let late_slope = miss_at(40e6) - miss_at(20e6);
        assert!(early_slope > 0.0);
        assert!(late_slope < early_slope * 0.25, "curve should flatten");
    }

    #[test]
    fn dram_saturation_inflates_stall() {
        let s = spec();
        // Enormous miss traffic: 4 workloads each missing ~100% on 1e9 refs/s
        // = 64 GB/s >> 12 GB/s peak.
        let heavy: Vec<MemInput> = (0..4).map(|_| input(1e9, 50e6)).collect();
        let st = solve(&s, &heavy);
        assert!(st.dram_queue_factor > 2.0);
        let light = solve(&s, &[input(1e6, 1e5)]);
        assert!(light.dram_queue_factor < 1.1);
    }

    #[test]
    fn zero_wss_workload_is_immune_but_counted() {
        let s = spec();
        let st = solve(&s, &[input(1e8, 0.0), input(1e8, 10e6)]);
        // No working set -> floor miss ratio regardless of pressure.
        assert!((st.outcomes[0].miss_ratio - s.miss_floor).abs() < 1e-9);
    }

    #[test]
    fn occupancies_never_exceed_capacity() {
        let s = spec();
        let st = solve(
            &s,
            &[
                input(1e8, 4e6),
                input(2e8, 5e6),
                input(5e7, 3e6),
                input(9e7, 7e6),
            ],
        );
        let total: f64 = st.outcomes.iter().map(|o| o.occupancy_bytes).sum();
        assert!(total <= s.llc_bytes * 1.0 + 1.0);
        for o in &st.outcomes {
            assert!(o.occupancy_bytes >= 0.0);
        }
    }

    #[test]
    fn empty_input_is_fine() {
        let st = solve(&spec(), &[]);
        assert!(st.outcomes.is_empty());
        assert_eq!(st.dram_utilization, 0.0);
    }
}
