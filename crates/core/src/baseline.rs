//! # The SLOMO baseline (SIGCOMM'20)
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

use crate::engine::{scenario_seed, simulator_for, Engine};
use crate::memory_model::{MemoryModel, N_COUNTER_FEATURES};
use crate::observe::{Observation, Refinable};
use crate::profiler::{bench_counters, cached_workload, memory_dataset_fixed, MemLevel};
use crate::ModelBank;
use yala_ml::{Dataset, GbrParams};
use yala_nf::NfKind;
use yala_sim::{CounterSample, NicSpec, Simulator, WorkloadSpec};
use yala_traffic::TrafficProfile;

/// SLOMO's training grid: 10 CAR levels × 6 working-set sizes, with
/// rotating compute intensity. Yala's fixed-traffic memory curve trains
/// on the 8×5 [`crate::profiler::default_mem_grid`] instead, so comparing
/// the two models also compares two grids (ROADMAP.md, the ablation
/// ladder's grid confound).
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
    /// The fixed-traffic memory curve.
    pub(crate) memory: MemoryModel,
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
    pub(crate) fn train_per_scenario(
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
