//! # yala-slomo — the SLOMO baseline (SIGCOMM'20)
//!
//! SLOMO is the state-of-the-art *memory-only* contention-aware performance
//! predictor the paper compares against (§7.1): a gradient-boosting
//! regressor over the competitors' aggregate performance counters
//! (Table 11), trained under synthetic memory contention at a fixed traffic
//! profile, with *sensitivity extrapolation* to adapt to moderate traffic
//! shifts.
//!
//! That regressor is exactly Yala's fixed-traffic memory curve (§4.1.2), so
//! a [`SlomoModel`] is a [`MemoryModel`] fitted on
//! [`memory_dataset_fixed`]'s rows plus the solo throughput it was trained
//! at. What makes it the baseline is what it leaves out:
//!
//! * Training co-runs the target with `mem-bench` swept over (CAR, WSS)
//!   levels; features are mem-bench's solo counter vector.
//! * Prediction aggregates the competitors' solo counters and queries the
//!   curve. Accelerator contention is invisible to it — by design, this is
//!   the gap Yala closes (Fig. 2a).
//! * When the test traffic profile differs from the training one,
//!   [`SlomoModel::predict_extrapolated`] rescales by the solo-throughput
//!   ratio (Section 6 of the SLOMO paper, as used in §7.1 here). This works
//!   for small deviations and degrades for large ones (Fig. 7b).

use yala_core::engine::{scenario_seed, simulator_for, Engine};
use yala_core::memory_model::{MemoryModel, N_COUNTER_FEATURES};
use yala_core::observe::{Observation, Refinable};
use yala_core::profiler::{bench_counters, cached_workload, memory_dataset_fixed, MemLevel};
use yala_core::ModelBank;
use yala_ml::{Dataset, GbrParams};
use yala_nf::NfKind;
use yala_sim::{CounterSample, NicSpec, Simulator, WorkloadSpec};
use yala_traffic::TrafficProfile;

/// SLOMO's training grid: 10 CAR levels × 6 working-set sizes, with
/// rotating compute intensity.
pub fn default_mem_grid() -> Vec<MemLevel> {
    let mut grid = Vec::new();
    for i in 0..10 {
        let car = 2.0e7 + i as f64 * 3.0e7; // 20 M .. 290 M refs/s
        for (j, wss_mb) in [0.5f64, 1.0, 2.0, 4.0, 8.0, 12.0].into_iter().enumerate() {
            let cycles = [60.0, 600.0, 2_400.0][(i + j) % 3];
            grid.push(MemLevel {
                car,
                wss: wss_mb * 1e6,
                cycles,
            });
        }
    }
    grid
}

/// A trained SLOMO model for one target NF: a fixed-traffic memory curve
/// and the solo throughput at its training traffic profile. The curve
/// keeps its training rows, so in-production audit observations can be
/// absorbed later ([`Refinable::refine`]) by a deterministic refit.
#[derive(Debug, Clone, PartialEq)]
pub struct SlomoModel {
    memory: MemoryModel,
    /// Solo throughput at the training traffic profile.
    solo_tput_train: f64,
}

impl SlomoModel {
    /// Trains SLOMO for `target` (a workload profiled at the training
    /// traffic profile) by sweeping mem-bench over `grid` on `sim`.
    ///
    /// # Panics
    ///
    /// Panics if `grid` is empty.
    pub fn train(sim: &mut Simulator, target: &WorkloadSpec, grid: &[MemLevel], seed: u64) -> Self {
        assert!(!grid.is_empty(), "empty training grid");
        Self::fit(&memory_dataset_fixed(sim, target, grid), seed)
    }

    /// [`Self::train`] with every row of the sweep measured on its own
    /// simulator: scenario 0 anchors at solo and scenario `i + 1`
    /// measures `grid[i]`, each seeded `scenario_seed(seed, scenario)`
    /// (noise-free when `noise_sigma` is 0). The bank's per-cell trainer.
    fn train_per_scenario(
        spec: &NicSpec,
        noise_sigma: f64,
        target: &WorkloadSpec,
        grid: &[MemLevel],
        seed: u64,
    ) -> Self {
        assert!(!grid.is_empty(), "empty training grid");
        let sim = |scenario| simulator_for(spec, noise_sigma, scenario_seed(seed, scenario));
        let mut ds = Dataset::new(N_COUNTER_FEATURES);
        let solo = sim(0).solo(target).throughput_pps;
        ds.push(&CounterSample::default().as_features(), solo);
        for (i, &level) in grid.iter().enumerate() {
            let mut sim = sim(i + 1);
            let features = bench_counters(&mut sim, level);
            let report = sim.co_run(&[target.clone(), level.bench()]);
            ds.push(&features.as_features(), report.outcomes[0].throughput_pps);
        }
        Self::fit(&ds, seed)
    }

    /// Fits the curve on a sweep whose row 0 is the uncontended anchor.
    fn fit(ds: &Dataset, seed: u64) -> Self {
        let params = GbrParams {
            n_estimators: 300,
            learning_rate: 0.05,
            ..GbrParams::default()
        };
        Self {
            memory: MemoryModel::fit(ds, &params, seed),
            solo_tput_train: ds.target(0),
        }
    }

    /// Predicts the target's throughput when co-located with competitors
    /// whose aggregate solo counters are `competitors`.
    pub fn predict(&self, competitors: &CounterSample) -> f64 {
        self.memory.predict(competitors, None)
    }

    /// Prediction with sensitivity extrapolation: rescales the fixed-profile
    /// prediction by the ratio of solo throughputs between the test and
    /// training traffic profiles.
    pub fn predict_extrapolated(&self, competitors: &CounterSample, solo_tput_test: f64) -> f64 {
        assert!(solo_tput_test > 0.0, "solo throughput must be positive");
        self.predict(competitors) * solo_tput_test / self.solo_tput_train
    }

    /// Solo throughput captured at training time.
    pub fn solo_tput_train(&self) -> f64 {
        self.solo_tput_train
    }
}

impl Refinable for SlomoModel {
    /// Absorbs audited co-run outcomes. SLOMO's worldview is a fixed
    /// profile with sensitivity extrapolation, so an observation at the
    /// NF's live traffic is mapped back to the training profile by
    /// inverting the extrapolation — `T_train = T_measured · solo_train /
    /// solo_live` — and becomes a (competitor counters → throughput) row
    /// for [`MemoryModel::absorb_rows`]. Accelerator pressure stays
    /// invisible, faithful to the baseline: the refit absorbs accel-induced
    /// drops into the memory response (and inherits that attribution
    /// error). Returns rows absorbed; an empty or all-degenerate slice is a
    /// strict no-op.
    fn refine(&mut self, observations: &[&Observation]) -> usize {
        let mut rows = Dataset::new(N_COUNTER_FEATURES);
        for o in observations {
            if o.solo_tput <= 0.0 || o.measured_tput <= 0.0 || !o.measured_tput.is_finite() {
                continue;
            }
            // Measurement noise can push an audited outcome above solo;
            // never teach the model a physically impossible regime.
            let measured = o.measured_tput.min(o.solo_tput);
            let implied_train = measured * self.solo_tput_train / o.solo_tput;
            if implied_train.is_finite() {
                rows.push(&o.competitors.as_features(), implied_train);
            }
        }
        self.memory.absorb_rows(&rows)
    }
}

/// Trains a per-NIC-model SLOMO bank: one model per `(NIC model, NF)`
/// cell of the profiling matrix ([`NfKind::profiled_on`]), each at the
/// SLOMO training traffic profile (the default). Cells run across
/// `engine`'s workers through [`ModelBank::train_matrix`], and cell `i`'s
/// sweep runs in order on simulators seeded from
/// `scenario_seed(seed, i)`, so a single-spec portfolio reproduces the
/// homogeneous per-kind training exactly and the bank is bit-identical
/// across thread counts.
///
/// # Panics
///
/// Panics if two specs share a model name.
pub fn train_slomo_bank(
    specs: &[NicSpec],
    noise_sigma: f64,
    kinds: &[NfKind],
    grid: &[MemLevel],
    seed: u64,
    engine: &Engine,
) -> ModelBank<SlomoModel> {
    ModelBank::train_matrix(specs, kinds, engine, |spec, kind, cell| {
        let target = cached_workload(kind, TrafficProfile::default(), kind as usize as u64);
        let cell_seed = scenario_seed(seed, cell);
        SlomoModel::train_per_scenario(spec, noise_sigma, &target, grid, cell_seed)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use yala_ml::metrics;
    use yala_nf::bench::mem_bench;

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
}
