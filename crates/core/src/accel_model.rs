//! White-box queueing model for hardware accelerators (§4.1.1, Eq. 1) with
//! traffic-aware service times (§5.1.1, Eq. 4), and the black-box parameter
//! inference procedure that fits it without NF source code.
//!
//! The accelerator schedules per-NF request queues round-robin, so at
//! equilibrium the target's throughput on the accelerator is
//!
//! ```text
//! T_i = n_i / (n_i·t_i + Σ_{j≠i} n_j·t_j)            (Eq. 1)
//! t_j(m) = t_{j,0} + a_j·m                            (Eq. 4, m = MTBR)
//! ```
//!
//! Parameters `(n_i, t_i)` are inferred by co-running the NF with a
//! *backlogged* bench whose own parameters are known: measuring both
//! equilibrium throughputs yields `n_i = T_i/T_bench · n_bench` and
//! `t_i = (n_b/T_b − n_b·s_b)/n_i`. Repeating at several MTBRs and fitting
//! a line gives the traffic-aware law.

use crate::contender::{total_pressure, Contender};
use yala_ml::{Dataset, LinearRegression};
use yala_sim::{ResourceKind, Simulator, WorkloadSpec};

/// A fitted per-NF accelerator service model.
#[derive(Debug, Clone, PartialEq)]
pub struct AccelServiceModel {
    /// Which accelerator this models.
    pub kind: ResourceKind,
    /// Inferred effective queue count `n_i` (may be fractional: it folds in
    /// how many cores keep the queues busy).
    pub queues: f64,
    /// Base per-request service time `t_{i,0}`, seconds.
    pub t0: f64,
    /// Extra service time per unit MTBR (seconds per matches/MB).
    pub a: f64,
}

impl AccelServiceModel {
    /// Service time at a given MTBR (Eq. 4's `t_j`).
    pub fn service_time(&self, mtbr: f64) -> f64 {
        (self.t0 + self.a * mtbr).max(1e-12)
    }

    /// Throughput cap on this accelerator when co-located with
    /// `contenders` (Eq. 1 / Eq. 4). This is the per-resource prediction a
    /// *pipeline* NF composes with.
    pub fn contended_cap(&self, mtbr: f64, contenders: &[Contender]) -> f64 {
        let own = self.queues * self.service_time(mtbr);
        let others = total_pressure(contenders, self.kind);
        self.queues / (own + others)
    }

    /// Throughput cap when running alone (`1/t_i`).
    pub fn solo_cap(&self, mtbr: f64) -> f64 {
        self.contended_cap(mtbr, &[])
    }

    /// End-to-end throughput under accelerator-only contention for a
    /// *run-to-completion* NF. Two effects bound it:
    ///
    /// 1. Sojourn growth: each request waits the competitors' round-time
    ///    share, spread over the NF's cores —
    ///    `1/T = 1/T_solo + Σ_j n_j·t_j / cores`.
    /// 2. The Eq. 1 turn-rate cap: the accelerator serves the NF's queues
    ///    once per round regardless of cores.
    pub fn rtc_end_to_end(
        &self,
        solo_tput: f64,
        mtbr: f64,
        cores: f64,
        contenders: &[Contender],
    ) -> f64 {
        assert!(solo_tput > 0.0, "solo throughput must be positive");
        assert!(cores > 0.0, "cores must be positive");
        let others = total_pressure(contenders, self.kind);
        let sojourn_bound = 1.0 / (1.0 / solo_tput + others / cores);
        sojourn_bound.min(self.contended_cap(mtbr, contenders))
    }
}

/// Configuration of the inference procedure.
#[derive(Debug, Clone)]
pub struct InferConfig {
    /// MTBR sample points for the Eq. 4 line fit (matches/MB).
    pub mtbrs: Vec<f64>,
    /// Bench request size, bytes.
    pub bench_bytes: f64,
    /// Bench MTBR: high enough that the target spends most of its time on
    /// the accelerator at equilibrium (paper's setup).
    pub bench_mtbr: f64,
    /// Bench offered request rate (effectively backlogged).
    pub bench_offered_rps: f64,
}

impl Default for InferConfig {
    fn default() -> Self {
        Self {
            mtbrs: vec![50.0, 300.0, 600.0, 900.0, 1150.0],
            bench_bytes: 1446.0,
            // Heavy enough that the target "spends most of its time on
            // regex" at equilibrium (§4.1.1) — a ~13 µs request dwarfs any
            // NF's CPU stage, making the inference asymptotically exact.
            bench_mtbr: 50_000.0,
            bench_offered_rps: 1e12,
        }
    }
}

/// Infers an [`AccelServiceModel`] for one NF on one accelerator.
///
/// `workload_at(mtbr)` must produce the target's workload profiled under
/// traffic with the given MTBR (other attributes fixed at the training
/// defaults).
///
/// Returns `None` if the NF does not use the accelerator.
pub fn infer_service_model(
    sim: &mut Simulator,
    kind: ResourceKind,
    workload_at: &mut dyn FnMut(f64) -> WorkloadSpec,
    cfg: &InferConfig,
) -> Option<AccelServiceModel> {
    let probe = workload_at(cfg.mtbrs[0]);
    if !probe.uses(kind) {
        return None;
    }
    let bench_service = sim
        .spec()
        .accel(kind)
        .expect("NIC provides the accelerator")
        .service_time(cfg.bench_bytes, cfg.bench_mtbr * cfg.bench_bytes / 1e6);

    let mut ds = Dataset::new(1);
    let mut queue_estimates = Vec::new();
    for &mtbr in &cfg.mtbrs {
        let target = workload_at(mtbr);
        let bench = bench_for(kind, cfg);
        let report = sim.co_run(&[target, bench]);
        let t_target = report.outcomes[0].throughput_pps;
        let t_bench = report.outcomes[1].throughput_pps;
        if t_bench <= 0.0 || t_target <= 0.0 {
            continue;
        }
        // n_b = 1 queue for the bench.
        let n_i = t_target / t_bench;
        let denominator = 1.0 / t_bench; // n_b / T_b = Σ n_j t_j
        let t_i = (denominator - bench_service) / n_i;
        if t_i <= 0.0 {
            continue;
        }
        queue_estimates.push(n_i);
        ds.push(&[mtbr], t_i);
    }
    if ds.len() < 2 {
        return None;
    }
    let line = LinearRegression::fit(&ds).ok()?;
    let queues = median(&mut queue_estimates);
    Some(AccelServiceModel {
        kind,
        queues,
        t0: line.intercept().max(1e-12),
        a: line.coefficients()[0].max(0.0),
    })
}

fn bench_for(kind: ResourceKind, cfg: &InferConfig) -> WorkloadSpec {
    match kind {
        ResourceKind::Regex => {
            yala_nf::bench::regex_bench(cfg.bench_offered_rps, cfg.bench_bytes, cfg.bench_mtbr)
        }
        ResourceKind::Compression => {
            yala_nf::bench::compression_bench(cfg.bench_offered_rps, cfg.bench_bytes)
        }
        other => panic!("no inference bench for {other}"),
    }
}

fn median(values: &mut [f64]) -> f64 {
    assert!(!values.is_empty(), "median of empty estimates");
    values.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    values[values.len() / 2]
}

#[cfg(test)]
mod tests {
    use super::*;
    use yala_nf::NfKind;
    use yala_sim::NicSpec;
    use yala_traffic::TrafficProfile;

    fn sim() -> Simulator {
        Simulator::new(NicSpec::bluefield2())
    }

    #[test]
    fn eq4_service_time_is_affine() {
        let m = AccelServiceModel {
            kind: ResourceKind::Regex,
            queues: 1.0,
            t0: 100e-9,
            a: 0.2e-9,
        };
        assert!((m.service_time(600.0) - 220e-9).abs() < 1e-15);
        assert!((m.solo_cap(600.0) - 1.0 / 220e-9).abs() < 1.0);
    }

    #[test]
    fn infers_flowmonitor_regex_model() {
        let mut sim = sim();
        let mut workload_at =
            |mtbr: f64| NfKind::FlowMonitor.workload(TrafficProfile::new(16_000, 1500, mtbr), 11);
        let model = infer_service_model(
            &mut sim,
            ResourceKind::Regex,
            &mut workload_at,
            &InferConfig::default(),
        )
        .expect("flowmonitor uses regex");
        // Under a sufficiently heavy bench the NF is backlogged on its
        // single queue, so the inference recovers the true queue count and
        // per-request service law.
        assert!(
            model.queues > 0.8 && model.queues < 1.3,
            "queues {}",
            model.queues
        );
        let hw = |mtbr: f64| 5e-9 + 1446.0 * 0.08e-9 + mtbr * 1446.0 / 1e6 * 180e-9;
        // t̂(m) should track the true per-request time within ~15%.
        for mtbr in [100.0, 600.0, 1000.0] {
            let modelled = model.service_time(mtbr);
            let truth = hw(mtbr);
            let err = (modelled - truth).abs() / truth;
            assert!(err < 0.15, "mtbr {mtbr}: modelled {modelled}, true {truth}");
        }
    }

    #[test]
    fn returns_none_for_non_users() {
        let mut sim = sim();
        let mut workload_at = |_: f64| NfKind::FlowStats.workload(TrafficProfile::default(), 3);
        let model = infer_service_model(
            &mut sim,
            ResourceKind::Regex,
            &mut workload_at,
            &InferConfig::default(),
        );
        assert!(model.is_none());
    }

    #[test]
    fn contended_cap_matches_simulator_equilibrium() {
        // Fit the model for a synthetic pipeline regex NF, then check Eq. 1
        // against a fresh co-run with a different competitor level.
        let mut sim = sim();
        let mut workload_at = |mtbr: f64| {
            let w = yala_nf::bench::regex_nf("target", 1446.0, mtbr);
            WorkloadSpec {
                name: "target".into(),
                ..w
            }
        };
        let model = infer_service_model(
            &mut sim,
            ResourceKind::Regex,
            &mut workload_at,
            &InferConfig::default(),
        )
        .expect("regex NF");
        // Competitor: another backlogged regex workload with known service.
        let comp_mtbr = 1_500.0;
        let comp_service = sim
            .spec()
            .accel(ResourceKind::Regex)
            .unwrap()
            .service_time(1446.0, comp_mtbr * 1446.0 / 1e6);
        let contender = Contender::memory_only("comp", Default::default()).with_accel(
            crate::contender::AccelContention {
                kind: ResourceKind::Regex,
                queues: 1.0,
                service_s: comp_service,
            },
        );
        let predicted = model.contended_cap(600.0, std::slice::from_ref(&contender));
        let truth = {
            let target = workload_at(600.0);
            let comp = yala_nf::bench::regex_bench(1e12, 1446.0, comp_mtbr);
            sim.co_run(&[target, comp]).outcomes[0].throughput_pps
        };
        let err = (predicted - truth).abs() / truth;
        assert!(err < 0.1, "Eq.1 prediction {predicted} vs truth {truth}");
    }
}
