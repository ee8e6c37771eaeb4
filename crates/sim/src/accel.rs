//! Accelerator contention model: fluid round-robin over per-NF request
//! queues with water-filling equilibrium.
//!
//! The BlueField-2 regex driver schedules request queues round-robin
//! (paper §4.1.1, confirmed from the mlx-regex driver). In fluid
//! approximation, each *backlogged* queue receives the same turn rate `r`,
//! while queues whose arrival rate is below `r` are fully served. The busy
//! fraction balances:
//!
//! ```text
//! Σ_i n_i · min(λ_i / n_i, r) · s_i = 1        (at saturation)
//! ```
//!
//! In the all-backlogged regime this reduces exactly to the paper's Eq. 1:
//! `T_i = n_i / Σ_j n_j t_j`. Below saturation everyone gets their offered
//! rate — which produces the linear-decline-then-equilibrium shape of
//! Fig. 4.

/// One NF's presence on an accelerator.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AccelInput {
    /// Number of request queues the NF opened.
    pub queues: u32,
    /// Service time of one of its requests, seconds.
    pub service_s: f64,
    /// Request arrival rate (requests/second) it currently offers.
    pub offered_rps: f64,
}

/// Equilibrium outcome for one NF on an accelerator.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AccelOutcome {
    /// Requests/second actually served.
    pub granted_rps: f64,
    /// Maximum requests/second this NF *could* get if it backlogged its
    /// queues, holding every other NF's offered load fixed. This is the
    /// capacity a pipeline stage sees.
    pub capacity_rps: f64,
    /// Per-request sojourn time (queueing + service) a run-to-completion
    /// NF experiences when operating at its capacity, seconds.
    pub sojourn_s: f64,
}

/// Result of one accelerator solve.
#[derive(Debug, Clone, PartialEq)]
pub struct AccelState {
    /// Per-NF outcomes in input order.
    pub outcomes: Vec<AccelOutcome>,
    /// Fraction of accelerator time in use (≤ 1).
    pub utilization: f64,
}

/// Solves the round-robin equilibrium for one accelerator.
///
/// # Panics
///
/// Panics if any input has zero queues or non-positive service time.
pub fn solve(inputs: &[AccelInput]) -> AccelState {
    check(inputs);
    let fair = fair_rate(inputs, None);
    let outcomes = (0..inputs.len())
        .map(|i| {
            let (capacity_rps, sojourn_s) = at_capacity(inputs, i);
            AccelOutcome {
                granted_rps: grant(inputs, None, fair, i),
                capacity_rps,
                sojourn_s,
            }
        })
        .collect();
    AccelState {
        outcomes,
        utilization: utilization(inputs),
    }
}

/// The input checks of [`solve`].
pub(crate) fn check(inputs: &[AccelInput]) {
    for w in inputs {
        assert!(
            w.queues > 0,
            "accelerator user must open at least one queue"
        );
        assert!(w.service_s > 0.0, "service time must be positive");
        assert!(w.offered_rps >= 0.0, "offered rate cannot be negative");
    }
}

/// Fraction of accelerator time in use (≤ 1).
pub(crate) fn utilization(inputs: &[AccelInput]) -> f64 {
    let fair = fair_rate(inputs, None);
    inputs
        .iter()
        .enumerate()
        .map(|(i, w)| grant(inputs, None, fair, i) * w.service_s)
        .sum::<f64>()
        .min(1.0)
}

/// NF `i`'s capacity and sojourn: what it gets by backlogging its queues
/// while every other NF's offer holds.
pub(crate) fn at_capacity(inputs: &[AccelInput], i: usize) -> (f64, f64) {
    let capacity_rps = grant(inputs, Some(i), fair_rate(inputs, Some(i)), i);
    // Per-queue turn rate when i is backlogged; one request is served per
    // queue per round, so per-request sojourn at capacity is one round
    // interval (floor: its own service).
    let per_queue = capacity_rps / inputs[i].queues as f64;
    (capacity_rps, (1.0 / per_queue).max(inputs[i].service_s))
}

/// NF `i`'s offer, infinite when it is the `backlogged` one.
fn offered(inputs: &[AccelInput], backlogged: Option<usize>, i: usize) -> f64 {
    if backlogged == Some(i) {
        f64::INFINITY
    } else {
        inputs[i].offered_rps
    }
}

/// NF `i`'s granted request rate under fluid round-robin, given the
/// per-queue fair rate ([`fair_rate`]; `None` when everyone is served).
fn grant(inputs: &[AccelInput], backlogged: Option<usize>, fair: Option<f64>, i: usize) -> f64 {
    let o = offered(inputs, backlogged, i);
    match fair {
        None => o,
        Some(r) => {
            let n = inputs[i].queues as f64;
            n * (o / n).min(r)
        }
    }
}

/// The per-queue fair rate `r` of a saturated accelerator, or `None` when
/// every offer fits. When `backlogged` is `Some(i)`, NF `i`'s offer is
/// treated as infinite.
fn fair_rate(inputs: &[AccelInput], backlogged: Option<usize>) -> Option<f64> {
    // Total busy fraction if everyone were fully served.
    let full: f64 = (0..inputs.len())
        .map(|i| {
            let o = offered(inputs, backlogged, i);
            if o.is_infinite() {
                f64::INFINITY
            } else {
                o * inputs[i].service_s
            }
        })
        .sum();
    if full <= 1.0 {
        return None;
    }
    // Saturated: find per-queue fair rate r by bisection on
    // W(r) = Σ n_i min(λ_i/n_i, r) s_i  (monotone increasing in r).
    let work_at = |r: f64| -> f64 {
        (0..inputs.len())
            .map(|i| {
                let n = inputs[i].queues as f64;
                let per_queue = (offered(inputs, backlogged, i) / n).min(r);
                n * per_queue * inputs[i].service_s
            })
            .sum()
    };
    let mut lo = 0.0f64;
    // Upper bound: serving only the fastest queue continuously.
    let mut hi = inputs
        .iter()
        .map(|w| 1.0 / w.service_s)
        .fold(0.0f64, f64::max);
    for _ in 0..200 {
        let mid = 0.5 * (lo + hi);
        let bound = if work_at(mid) < 1.0 { &mut lo } else { &mut hi };
        // A step that moves neither bound leaves the state every later
        // step starts from: they would all be no-ops.
        if bound.to_bits() == mid.to_bits() {
            break;
        }
        *bound = mid;
    }
    Some(0.5 * (lo + hi))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn user(queues: u32, service_s: f64, offered: f64) -> AccelInput {
        AccelInput {
            queues,
            service_s,
            offered_rps: offered,
        }
    }

    #[test]
    fn undersubscribed_everyone_served() {
        let st = solve(&[user(1, 1e-6, 1e5), user(1, 1e-6, 2e5)]);
        assert!((st.outcomes[0].granted_rps - 1e5).abs() < 1.0);
        assert!((st.outcomes[1].granted_rps - 2e5).abs() < 1.0);
        assert!(st.utilization < 0.5);
    }

    #[test]
    fn equation_1_all_backlogged_equal_queues() {
        // Two NFs, one queue each, service times t1 = 2 µs, t2 = 6 µs.
        // Eq. 1: T_i = n_i / Σ n_j t_j = 1 / 8 µs = 125 000 rps each.
        let st = solve(&[user(1, 2e-6, 1e12), user(1, 6e-6, 1e12)]);
        for o in &st.outcomes {
            assert!((o.granted_rps - 125_000.0).abs() < 50.0, "{o:?}");
        }
        assert!((st.utilization - 1.0).abs() < 1e-6);
    }

    #[test]
    fn equation_1_weighted_by_queue_count() {
        // n1 = 2, n2 = 1, t = 1 µs each: T1 = 2/3 Mrps, T2 = 1/3 Mrps.
        let st = solve(&[user(2, 1e-6, 1e12), user(1, 1e-6, 1e12)]);
        assert!((st.outcomes[0].granted_rps - 2.0 / 3.0e-6).abs() < 1e3);
        assert!((st.outcomes[1].granted_rps - 1.0 / 3.0e-6).abs() < 1e3);
    }

    #[test]
    fn linear_decline_then_equilibrium_fig4_shape() {
        // Target NF backlogged; competitor's offered rate sweeps up.
        // Target's capacity should fall ~linearly then flatten once the
        // competitor is itself backlogged (equilibrium).
        let t_service = 10e-9;
        let caps: Vec<f64> = (0..12)
            .map(|k| {
                let comp = k as f64 * 10e6; // 0..110 Mrps offered
                let st = solve(&[user(1, t_service, 1e12), user(1, t_service, comp)]);
                st.outcomes[0].capacity_rps
            })
            .collect();
        // Initially: full accelerator to itself.
        assert!((caps[0] - 1.0 / t_service).abs() < 1e4);
        // Declines monotonically.
        for w in caps.windows(2) {
            assert!(w[1] <= w[0] + 1.0);
        }
        // Equilibrium: both backlogged -> each gets half.
        let eq = 0.5 / t_service;
        assert!(
            (caps[11] - eq).abs() < eq * 0.01,
            "cap {} vs eq {}",
            caps[11],
            eq
        );
        // The early decline is steeper than the late (flattening).
        let early = caps[0] - caps[3];
        let late = caps[8] - caps[11];
        assert!(late < early * 0.2, "late {late} early {early}");
    }

    #[test]
    fn equilibrium_depends_on_competitor_service_time() {
        // Higher competitor MTBR (longer service) lowers the equilibrium.
        let st_fast = solve(&[user(1, 10e-9, 1e12), user(1, 10e-9, 1e12)]);
        let st_slow = solve(&[user(1, 10e-9, 1e12), user(1, 40e-9, 1e12)]);
        assert!(
            st_slow.outcomes[0].granted_rps < st_fast.outcomes[0].granted_rps,
            "longer competitor requests must hurt more"
        );
    }

    #[test]
    fn capacity_exceeds_grant_for_underloaded() {
        let st = solve(&[user(1, 1e-6, 1e5), user(1, 1e-6, 9e5)]);
        let o = &st.outcomes[0];
        assert!(o.capacity_rps > o.granted_rps);
        assert!(o.sojourn_s >= 1e-6);
    }

    #[test]
    fn sojourn_floor_is_service_time() {
        let st = solve(&[user(1, 5e-6, 1e3)]);
        assert!((st.outcomes[0].sojourn_s - 5e-6).abs() < 1e-12);
    }

    #[test]
    fn work_conservation_at_saturation() {
        let st = solve(&[user(1, 3e-6, 1e12), user(2, 1e-6, 1e12), user(1, 2e-6, 5e4)]);
        let busy: f64 = [
            st.outcomes[0].granted_rps * 3e-6,
            st.outcomes[1].granted_rps * 1e-6,
            st.outcomes[2].granted_rps * 2e-6,
        ]
        .iter()
        .sum();
        assert!((busy - 1.0).abs() < 1e-3, "busy {busy}");
    }

    #[test]
    fn empty_input() {
        let st = solve(&[]);
        assert!(st.outcomes.is_empty());
        assert_eq!(st.utilization, 0.0);
    }

    #[test]
    #[should_panic(expected = "at least one queue")]
    fn zero_queues_panics() {
        solve(&[user(0, 1e-6, 1.0)]);
    }
}
