//! The end-to-end Yala predictor (§3): trains per-resource models offline
//! and composes them by detected execution pattern at prediction time.

use crate::accel_model::{infer_service_model, AccelServiceModel, InferConfig};
use crate::adaptive::{adaptive_profile, AdaptiveConfig, TrafficRanges};
use crate::composition::{compose, compose_min, compose_sum, detect_pattern};
use crate::contender::{aggregate_counters, AccelContention, Contender};
use crate::memory_model::{
    traffic_aware_features, MemoryModel, N_COUNTER_FEATURES, N_TRAFFIC_FEATURES,
};
use crate::observe::{Observation, Refinable};
use crate::profiler::{cached_workload, memory_dataset_fixed, MemLevel};
use std::borrow::Cow;
use yala_ml::{CellMemo, Dataset, GbrParams};
use yala_nf::NfKind;
use yala_sim::{CounterSample, ExecutionPattern, ResourceKind, Simulator};
use yala_traffic::TrafficProfile;

/// Composition variants, for the §2.2.1 / Table 4 ablations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Composition {
    /// Yala's execution-pattern-based composition (Eq. 2 / Eq. 3).
    ExecutionPattern,
    /// Naive sum of per-resource drops.
    Sum,
    /// Naive max-drop ("min composition").
    Min,
}

/// Training configuration for [`YalaModel::train`].
#[derive(Debug, Clone)]
pub struct TrainConfig {
    /// Traffic-attribute ranges to profile over.
    pub ranges: TrafficRanges,
    /// Adaptive-profiling hyper-parameters.
    pub adaptive: AdaptiveConfig,
    /// Accelerator-inference settings.
    pub infer: InferConfig,
    /// GBR hyper-parameters for the memory model.
    pub gbr: GbrParams,
    /// Seed for the GBR.
    pub seed: u64,
}

impl Default for TrainConfig {
    fn default() -> Self {
        Self {
            ranges: TrafficRanges::default(),
            adaptive: AdaptiveConfig::default(),
            infer: InferConfig::default(),
            // More, slower stages than sklearn's default: the profiling
            // sets are small (quota-bound), so shrinkage buys smoothness.
            gbr: GbrParams {
                n_estimators: 300,
                learning_rate: 0.05,
                ..GbrParams::default()
            },
            seed: 23,
        }
    }
}

/// Resources one NF can be modelled on: the memory subsystem plus every
/// accelerator kind.
const MAX_RESOURCES: usize = 4;

/// A trained Yala model for one NF.
#[derive(Debug, Clone, PartialEq)]
pub struct YalaModel {
    /// NF name.
    pub name: Cow<'static, str>,
    /// Detected execution pattern.
    pub pattern: ExecutionPattern,
    /// Black-box memory model (traffic-aware unless trained fixed).
    pub memory: MemoryModel,
    /// White-box accelerator models, one per accelerator the NF uses.
    pub accels: Vec<AccelServiceModel>,
    /// Cores the NF deploys with (observable configuration, not source).
    pub cores: f64,
    /// Which traffic attributes mattered during profiling.
    pub kept_attributes: [bool; 3],
    /// Measurements spent in offline profiling.
    pub profiling_cost: usize,
}

impl YalaModel {
    /// Trains Yala's full (traffic-aware) model for `kind`.
    pub fn train(sim: &mut Simulator, kind: NfKind, cfg: &TrainConfig) -> Self {
        // 1. Traffic-aware memory model via adaptive profiling (§5).
        let run = adaptive_profile(sim, kind, cfg.ranges, &cfg.adaptive);
        let memory = MemoryModel::fit(&run.dataset, &cfg.gbr, cfg.seed);
        Self::finish(sim, kind, memory, run.kept, run.measurements, cfg)
    }

    /// Trains the fixed-traffic variant (memory model with 7 features at
    /// one profile) — used by the §7.3 multi-resource-only experiments.
    pub fn train_fixed(
        sim: &mut Simulator,
        kind: NfKind,
        profile: TrafficProfile,
        cfg: &TrainConfig,
    ) -> Self {
        let target = kind.workload(profile, kind as usize as u64);
        let ds = memory_dataset_fixed(sim, &target, &crate::profiler::default_mem_grid());
        let memory = MemoryModel::fit(&ds, &cfg.gbr, cfg.seed);
        Self::finish(sim, kind, memory, [false; 3], ds.len(), cfg)
    }

    fn finish(
        sim: &mut Simulator,
        kind: NfKind,
        memory: MemoryModel,
        kept: [bool; 3],
        mem_cost: usize,
        cfg: &TrainConfig,
    ) -> Self {
        // 2. White-box accelerator models (§4.1.1) at the training defaults.
        let mut accels = Vec::new();
        let mut cost = mem_cost;
        for kind_a in [ResourceKind::Regex, ResourceKind::Compression] {
            if sim.spec().accel(kind_a).is_none() {
                continue;
            }
            let mut workload_at = |mtbr: f64| {
                let p = TrafficProfile {
                    mtbr,
                    ..TrafficProfile::default()
                };
                cached_workload(kind, p, kind as usize as u64)
            };
            if let Some(m) = infer_service_model(sim, kind_a, &mut workload_at, &cfg.infer) {
                cost += cfg.infer.mtbrs.len();
                accels.push(m);
            }
        }
        // 3. Execution-pattern detection (§4.2).
        let pattern = Self::detect(sim, kind, &accels, &mut cost);
        Self {
            name: Cow::Borrowed(kind.name()),
            pattern,
            memory,
            accels,
            cores: yala_nf::runtime::DEFAULT_CORES as f64,
            kept_attributes: kept,
            profiling_cost: cost,
        }
    }

    /// Pattern detection by co-running with benches and testing which
    /// composition law fits (§4.2).
    fn detect(
        sim: &mut Simulator,
        kind: NfKind,
        accels: &[AccelServiceModel],
        cost: &mut usize,
    ) -> ExecutionPattern {
        let Some(accel) = accels.first() else {
            // Single-resource NF: composition is vacuous.
            return ExecutionPattern::RunToCompletion;
        };
        let target = cached_workload(kind, TrafficProfile::default(), kind as usize as u64);
        let mem = MemLevel {
            car: 1.5e8,
            wss: 8e6,
            cycles: 60.0,
        }
        .bench();
        let acc_bench = match accel.kind {
            ResourceKind::Regex => yala_nf::bench::regex_bench(1e12, 1446.0, 1_500.0),
            ResourceKind::Compression => yala_nf::bench::compression_bench(1e12, 1446.0),
            other => panic!("unexpected accelerator {other}"),
        };
        *cost += 4;
        let t_solo = sim.solo(&target).throughput_pps;
        let t_mem = sim.co_run(&[target.clone(), mem.clone()]).outcomes[0].throughput_pps;
        let t_acc = sim.co_run(&[target.clone(), acc_bench.clone()]).outcomes[0].throughput_pps;
        let t_both = sim.co_run(&[target, mem, acc_bench]).outcomes[0].throughput_pps;
        detect_pattern(t_solo, t_mem, t_acc, t_both)
    }

    /// Per-resource throughput predictions `T_k` (memory first, then each
    /// accelerator), clamped at `solo_tput`. For a pipeline NF the
    /// accelerator entry is the Eq. 1 stage cap; for run-to-completion it
    /// is the sojourn-delta end-to-end value (the paper's Eq. 3 input).
    pub fn per_resource(
        &self,
        solo_tput: f64,
        traffic: &TrafficProfile,
        contenders: &[Contender],
    ) -> Vec<(ResourceKind, f64)> {
        let (per, n) = self.per_resource_tputs(solo_tput, traffic, contenders, None);
        let kinds = std::iter::once(ResourceKind::CpuMem).chain(self.accels.iter().map(|a| a.kind));
        kinds.zip(per[..n].iter().copied()).collect()
    }

    /// The `T_k` of [`Self::per_resource`] in the same order, on the
    /// stack: the values and how many of them are set. With a memo and
    /// the question's cell, the memory model answers through them
    /// ([`MemoryModel::predict_cell`]).
    fn per_resource_tputs(
        &self,
        solo_tput: f64,
        traffic: &TrafficProfile,
        contenders: &[Contender],
        memo: Option<(&mut CellMemo, &[u32])>,
    ) -> ([f64; MAX_RESOURCES], usize) {
        assert!(solo_tput > 0.0, "solo throughput must be positive");
        assert!(
            self.accels.len() < MAX_RESOURCES,
            "more accelerator models than accelerator kinds"
        );
        let traffic_arg = self.memory.is_traffic_aware().then_some(traffic);
        let mut per = [0.0; MAX_RESOURCES];
        per[0] = match memo {
            Some((memo, cell)) => {
                self.memory
                    .predict_cell(cell, || aggregate_counters(contenders), traffic_arg, memo)
            }
            None => self
                .memory
                .predict(&aggregate_counters(contenders), traffic_arg),
        }
        .min(solo_tput);
        for (t_k, am) in per[1..].iter_mut().zip(&self.accels) {
            *t_k = match self.pattern {
                ExecutionPattern::Pipeline => {
                    am.contended_cap(traffic.mtbr, contenders).min(solo_tput)
                }
                ExecutionPattern::RunToCompletion => am
                    .rtc_end_to_end(solo_tput, traffic.mtbr, self.cores, contenders)
                    .min(solo_tput),
            };
        }
        (per, 1 + self.accels.len())
    }

    /// Predicts the target's end-to-end throughput when co-located with
    /// `contenders` under `traffic`, given its measured solo throughput at
    /// that profile.
    pub fn predict(
        &self,
        solo_tput: f64,
        traffic: &TrafficProfile,
        contenders: &[Contender],
    ) -> f64 {
        self.predict_with(
            Composition::ExecutionPattern,
            solo_tput,
            traffic,
            contenders,
        )
    }

    /// [`Self::predict`] for a caller that assembled the question's cell
    /// in the memory model's forest — the words of the contenders'
    /// aggregate counters ([`MemoryModel::counter_words`]) and of
    /// `traffic` ([`MemoryModel::traffic_words`]) — with the memory model
    /// answering through a caller-owned memo of its cells
    /// ([`MemoryModel::predict_cell`]): the same bits, cheaper when the
    /// cell was asked about before. A placement loop keeps one memo per
    /// model and clears it when the model is refined.
    pub fn predict_cell(
        &self,
        memo: &mut CellMemo,
        cell: &[u32],
        solo_tput: f64,
        traffic: &TrafficProfile,
        contenders: &[Contender],
    ) -> f64 {
        self.composed(
            Composition::ExecutionPattern,
            solo_tput,
            traffic,
            contenders,
            Some((memo, cell)),
        )
    }

    /// Prediction with an explicit composition variant (for ablations).
    pub fn predict_with(
        &self,
        composition: Composition,
        solo_tput: f64,
        traffic: &TrafficProfile,
        contenders: &[Contender],
    ) -> f64 {
        self.composed(composition, solo_tput, traffic, contenders, None)
    }

    fn composed(
        &self,
        composition: Composition,
        solo_tput: f64,
        traffic: &TrafficProfile,
        contenders: &[Contender],
        memo: Option<(&mut CellMemo, &[u32])>,
    ) -> f64 {
        let (per, n) = self.per_resource_tputs(solo_tput, traffic, contenders, memo);
        let per = &per[..n];
        match composition {
            Composition::ExecutionPattern => compose(self.pattern, solo_tput, per),
            Composition::Sum => compose_sum(solo_tput, per),
            Composition::Min => compose_min(solo_tput, per),
        }
    }

    /// This NF's contender description when *it* is the competitor: its
    /// solo counters plus its fitted accelerator pressure at its traffic's
    /// MTBR.
    pub fn as_contender(&self, counters: yala_sim::CounterSample, mtbr: f64) -> Contender {
        let mut c = Contender::memory_only(self.name.clone(), counters);
        for am in &self.accels {
            c = c.with_accel(crate::contender::AccelContention {
                kind: am.kind,
                queues: am.queues,
                service_s: am.service_time(mtbr),
            });
        }
        c
    }

    /// How many online refit passes the memory curve has absorbed (0 =
    /// the offline train-once state).
    pub fn refits(&self) -> u32 {
        self.memory.refits()
    }

    /// The end-to-end throughput an observation implies for the *memory
    /// resource alone*, by inverting the composition law around the fixed
    /// white-box accelerator predictions. Returns `None` when the sample
    /// cannot be attributed to the memory curve:
    ///
    /// * a pipeline NF whose accelerator stage was the binding one — the
    ///   observation only lower-bounds the memory throughput;
    /// * a degenerate sample (non-positive solo or measured throughput).
    ///
    /// For a memory-only NF the measured outcome *is* the memory
    /// component. Values are clamped into `[measured, solo]` — the
    /// composition laws guarantee the memory component is no worse than
    /// the end-to-end outcome and never better than solo.
    fn implied_memory_tput(&self, o: &Observation) -> Option<f64> {
        if o.solo_tput <= 0.0 || o.measured_tput <= 0.0 || !o.measured_tput.is_finite() {
            return None;
        }
        let solo = o.solo_tput;
        // Measurement noise can push an audited outcome above solo.
        let measured = o.measured_tput.min(solo);
        // Per-accelerator predictions under the observed pressure, from
        // the fixed white-box models (one synthetic contender carrying
        // the observation's total pressure Σ n_j·t_j).
        let caps: Vec<f64> = self
            .accels
            .iter()
            .map(|am| {
                let synthetic = Contender::memory_only("audit", CounterSample::default())
                    .with_accel(AccelContention {
                        kind: am.kind,
                        queues: 1.0,
                        service_s: o.pressure_on(am.kind),
                    });
                let co = std::slice::from_ref(&synthetic);
                let t = match self.pattern {
                    ExecutionPattern::Pipeline => am.contended_cap(o.traffic.mtbr, co),
                    ExecutionPattern::RunToCompletion => {
                        am.rtc_end_to_end(solo, o.traffic.mtbr, self.cores, co)
                    }
                };
                t.min(solo)
            })
            .collect();
        if caps.is_empty() {
            return Some(measured);
        }
        match self.pattern {
            ExecutionPattern::Pipeline => {
                // T = min(T_mem, T_accel...): memory is observable only
                // when it was the binding stage.
                let accel_floor = caps.iter().fold(f64::INFINITY, |a, &b| a.min(b));
                (measured < accel_floor * (1.0 - 1e-9)).then_some(measured)
            }
            ExecutionPattern::RunToCompletion => {
                // Invert Eq. 3: 1/T = 1/T_mem + Σ_a 1/T_a − (r−1)/T_solo.
                let inv_mem = 1.0 / measured
                    - caps.iter().map(|&t| 1.0 / t.max(1e-12)).sum::<f64>()
                    + caps.len() as f64 / solo;
                if !inv_mem.is_finite() {
                    return None;
                }
                // inv_mem ≤ 1/solo means the accelerators over-explain
                // the drop: the memory component is at least solo-clean.
                Some((1.0 / inv_mem.max(1e-300)).clamp(measured, solo))
            }
        }
    }
}

impl Refinable for YalaModel {
    /// Absorbs audited co-run outcomes into the black-box memory curve
    /// (one deterministic refit over the extended training set); the
    /// white-box accelerator models and the detected execution pattern
    /// are physics-derived and stay fixed. Observations that cannot be
    /// attributed to the memory resource are skipped; returns the number
    /// absorbed. Absorbing zero rows is a strict no-op.
    fn refine(&mut self, observations: &[&Observation]) -> usize {
        let traffic_aware = self.memory.is_traffic_aware();
        let mut rows = Dataset::new(if traffic_aware {
            N_COUNTER_FEATURES + N_TRAFFIC_FEATURES
        } else {
            N_COUNTER_FEATURES
        });
        for o in observations {
            let Some(t_mem) = self.implied_memory_tput(o) else {
                continue;
            };
            if traffic_aware {
                rows.push(&traffic_aware_features(&o.competitors, &o.traffic), t_mem);
            } else {
                rows.push(&o.competitors.as_features(), t_mem);
            }
        }
        self.memory.absorb_rows(&rows)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profiler::mem_bench_contender;
    use yala_ml::metrics;
    use yala_sim::NicSpec;

    fn sim() -> Simulator {
        Simulator::with_noise(NicSpec::bluefield2(), 0.005, 99)
    }

    fn quick_cfg() -> TrainConfig {
        TrainConfig::default()
    }

    #[test]
    fn trains_and_predicts_memory_only_nf() {
        let mut sim = sim();
        let model = YalaModel::train(&mut sim, NfKind::FlowStats, &quick_cfg());
        assert!(model.accels.is_empty());
        assert!(model.kept_attributes[0], "flow count kept");

        // Evaluate at an unseen profile and contention level.
        let traffic = TrafficProfile::new(40_000, 1024, 0.0);
        let target = NfKind::FlowStats.workload(traffic, 5);
        let solo = sim.solo(&target).throughput_pps;
        let level = MemLevel {
            car: 1.3e8,
            wss: 7e6,
            cycles: 600.0,
        };
        let truth = sim.co_run(&[target, level.bench()]).outcomes[0].throughput_pps;
        let contender = mem_bench_contender(&mut sim, level);
        let pred = model.predict(solo, &traffic, std::slice::from_ref(&contender));
        let err = metrics::ape(truth, pred);
        assert!(err < 12.0, "pred {pred} truth {truth} err {err}");
    }

    #[test]
    fn multi_resource_nf_gets_accel_model_and_pattern() {
        let mut sim = sim();
        let model = YalaModel::train(&mut sim, NfKind::FlowMonitor, &quick_cfg());
        assert_eq!(model.accels.len(), 1);
        assert_eq!(model.accels[0].kind, ResourceKind::Regex);
        assert!(model.kept_attributes[2], "MTBR kept for a regex NF");
        assert_eq!(
            model.pattern,
            ExecutionPattern::RunToCompletion,
            "FlowMonitor is run-to-completion"
        );
    }

    #[test]
    fn pipeline_nf_detected() {
        let mut sim = sim();
        let model = YalaModel::train(&mut sim, NfKind::PacketFilter, &quick_cfg());
        assert_eq!(model.pattern, ExecutionPattern::Pipeline);
    }

    #[test]
    fn prediction_improves_under_regex_contention_vs_memory_only_view() {
        // The headline claim (Fig. 2): modeling the accelerator matters.
        let mut sim = sim();
        let model = YalaModel::train(&mut sim, NfKind::FlowMonitor, &quick_cfg());
        let traffic = TrafficProfile::default();
        let target = NfKind::FlowMonitor.workload(traffic, 5);
        let solo = sim.solo(&target).throughput_pps;

        let regex_hog = yala_nf::bench::regex_bench(1e12, 1446.0, 2_000.0);
        let truth = sim.co_run(&[target, regex_hog]).outcomes[0].throughput_pps;
        let contender = crate::profiler::regex_bench_contender(&mut sim, 1e12, 1446.0, 2_000.0);
        let pred = model.predict(solo, &traffic, std::slice::from_ref(&contender));
        let err = metrics::ape(truth, pred);
        assert!(
            err < 15.0,
            "Yala must see regex contention: {err} ({pred} vs {truth})"
        );

        // A memory-only view would predict ~solo.
        let mem_only = model.per_resource(solo, &traffic, std::slice::from_ref(&contender))[0].1;
        assert!(
            metrics::ape(truth, mem_only) > 20.0,
            "memory-only view must miss"
        );
    }

    #[test]
    fn as_contender_exports_accel_pressure() {
        let mut sim = sim();
        let model = YalaModel::train(&mut sim, NfKind::Nids, &quick_cfg());
        let c = model.as_contender(Default::default(), 600.0);
        assert!(c.pressure_on(ResourceKind::Regex) > 0.0);
    }

    #[test]
    fn composition_variants_order_sensibly() {
        let mut sim = sim();
        let model = YalaModel::train(&mut sim, NfKind::FlowMonitor, &quick_cfg());
        let traffic = TrafficProfile::default();
        let solo = 1e6;
        let mem_level = MemLevel {
            car: 1.5e8,
            wss: 8e6,
            cycles: 60.0,
        };
        let contenders = vec![
            mem_bench_contender(&mut sim, mem_level),
            crate::profiler::regex_bench_contender(&mut sim, 1e12, 1446.0, 1_000.0),
        ];
        let sum = model.predict_with(Composition::Sum, solo, &traffic, &contenders);
        let min = model.predict_with(Composition::Min, solo, &traffic, &contenders);
        let rtc = model.predict_with(Composition::ExecutionPattern, solo, &traffic, &contenders);
        assert!(sum <= rtc + 1.0, "sum over-subtracts: {sum} vs {rtc}");
        assert!(
            rtc <= min + 1.0,
            "rtc compounds more than min: {rtc} vs {min}"
        );
    }
}
