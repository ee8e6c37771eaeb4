//! Gradient boosting regression (least-squares loss).
//!
//! Mirrors the parts of sklearn's `GradientBoostingRegressor` that SLOMO and
//! Yala rely on: an additive ensemble of shallow CART trees fitted to
//! residuals, with shrinkage (`learning_rate`) and optional stochastic
//! subsampling. Deterministic for a fixed seed.

use crate::forest::Forest;
use crate::memo::CellMemo;
use crate::tree::{Presorted, RegressionTree, TreeParams};
use crate::Dataset;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Hyper-parameters for [`GradientBoostingRegressor`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GbrParams {
    /// Number of boosting stages. sklearn default: 100.
    pub n_estimators: usize,
    /// Shrinkage applied to each stage's contribution. sklearn default: 0.1.
    pub learning_rate: f64,
    /// Fraction of rows sampled (without replacement) per stage; 1.0 = all.
    pub subsample: f64,
    /// Parameters of the per-stage trees.
    pub tree: TreeParams,
}

impl Default for GbrParams {
    fn default() -> Self {
        Self {
            n_estimators: 100,
            learning_rate: 0.1,
            subsample: 1.0,
            tree: TreeParams::default(),
        }
    }
}

/// A fitted gradient-boosted ensemble.
///
/// # Example
///
/// ```
/// use yala_ml::{Dataset, GbrParams, GradientBoostingRegressor};
/// let mut ds = Dataset::new(2);
/// for i in 0..20 {
///     for j in 0..20 {
///         let (a, b) = (i as f64, j as f64);
///         ds.push(&[a, b], a * 2.0 + (b - 10.0).abs());
///     }
/// }
/// let model = GradientBoostingRegressor::fit(&ds, &GbrParams::default(), 42);
/// let err = (model.predict(&[5.0, 10.0]) - 10.0).abs();
/// assert!(err < 1.0, "err={err}");
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct GradientBoostingRegressor {
    base: f64,
    forest: Forest,
    n_features: usize,
}

impl GradientBoostingRegressor {
    /// Fits the ensemble on `ds`.
    ///
    /// # Panics
    ///
    /// Panics if `ds` is empty or `params.subsample` is outside `(0, 1]`.
    pub fn fit(ds: &Dataset, params: &GbrParams, seed: u64) -> Self {
        let (base, stages) = fit_stages(ds, params, seed);
        Self {
            base,
            forest: Forest::new(&stages, params.learning_rate, ds.n_features()),
            n_features: ds.n_features(),
        }
    }

    /// Predicted value for one feature vector.
    ///
    /// # Panics
    ///
    /// Panics if `x.len()` differs from the training feature count.
    pub fn predict(&self, x: &[f64]) -> f64 {
        assert_eq!(x.len(), self.n_features, "feature width mismatch");
        self.forest.predict(self.base, x)
    }

    /// `v`'s word on `feature` in the cell of a feature row: rows whose
    /// words agree on every feature walk to the same leaves and predict
    /// the same bits.
    ///
    /// # Panics
    ///
    /// Panics if `feature` is not below the training feature count.
    pub fn rank(&self, feature: usize, v: f64) -> u32 {
        assert!(feature < self.n_features, "feature out of range");
        self.forest.rank(feature, v)
    }

    /// [`Self::predict`] of the row whose cell is `cell` (its
    /// [`Self::rank`]s, feature by feature), through a caller-owned memo:
    /// the remembered answer of the cell, or else `walk()` — which must be
    /// [`Self::predict`] of that row — remembered from now on. `memo` must
    /// have been filled by this fit only (see [`CellMemo`]).
    ///
    /// # Panics
    ///
    /// Panics if `cell.len()` differs from the training feature count.
    pub fn predict_cell(
        &self,
        cell: &[u32],
        memo: &mut CellMemo,
        walk: impl FnOnce() -> f64,
    ) -> f64 {
        assert_eq!(cell.len(), self.n_features, "feature width mismatch");
        memo.answer(cell, walk)
    }

    /// Predictions for every row of `ds`.
    pub fn predict_dataset(&self, ds: &Dataset) -> Vec<f64> {
        ds.rows().map(|(x, _)| self.predict(x)).collect()
    }

    /// Number of fitted boosting stages.
    pub fn n_stages(&self) -> usize {
        self.forest.len()
    }
}

/// The boosting loop: the constant base prediction and one residual tree
/// per stage. [`GradientBoostingRegressor::fit`] flattens the trees into
/// its [`Forest`] and drops them.
fn fit_stages(ds: &Dataset, params: &GbrParams, seed: u64) -> (f64, Vec<RegressionTree>) {
    assert!(!ds.is_empty(), "cannot fit GBR on an empty dataset");
    assert!(
        params.subsample > 0.0 && params.subsample <= 1.0,
        "subsample must be in (0, 1]"
    );
    let mut rng = StdRng::seed_from_u64(seed);
    let base = ds.target_mean();
    let mut current: Vec<f64> = vec![base; ds.len()];
    let mut stages = Vec::with_capacity(params.n_estimators);
    let sample_size = ((ds.len() as f64) * params.subsample).ceil() as usize;
    // Without subsampling every stage trains on the same rows, so their
    // sort is paid once per fit.
    let full = (params.subsample == 1.0).then(|| Presorted::new(ds, (0..ds.len()).collect()));
    let mut residuals = Vec::with_capacity(ds.len());

    for _ in 0..params.n_estimators {
        let data = match &full {
            Some(full) => full,
            None => &Presorted::new(
                ds,
                sample_without_replacement(&mut rng, ds.len(), sample_size),
            ),
        };
        // Residuals of the squared loss are just y - F(x).
        residuals.clear();
        residuals.extend(data.rows.iter().map(|&i| ds.target(i) - current[i]));
        assert!(
            residuals.iter().all(|r| r.is_finite()),
            "non-finite residual"
        );
        let tree = RegressionTree::fit_presorted(data, &residuals, &params.tree);
        // Update F on *all* rows (not just the subsample).
        for (i, cur) in current.iter_mut().enumerate() {
            *cur += params.learning_rate * tree.predict(ds.row(i));
        }
        stages.push(tree);
    }
    (base, stages)
}

/// `k` distinct indices from `0..n`, Fisher–Yates over a scratch vector.
fn sample_without_replacement(rng: &mut StdRng, n: usize, k: usize) -> Vec<usize> {
    let k = k.min(n).max(1);
    let mut pool: Vec<usize> = (0..n).collect();
    for i in 0..k {
        let j = rng.gen_range(i..n);
        pool.swap(i, j);
    }
    pool.truncate(k);
    pool
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics;
    use crate::tree::oracle;
    use std::collections::HashMap;

    fn grid_ds(f: impl Fn(f64, f64) -> f64) -> Dataset {
        let mut ds = Dataset::new(2);
        for i in 0..25 {
            for j in 0..25 {
                let (a, b) = (i as f64, j as f64);
                ds.push(&[a, b], f(a, b));
            }
        }
        ds
    }

    #[test]
    fn fits_additive_function() {
        let ds = grid_ds(|a, b| 3.0 * a + 0.5 * b + 10.0);
        let model = GradientBoostingRegressor::fit(&ds, &GbrParams::default(), 1);
        let preds = model.predict_dataset(&ds);
        assert!(metrics::mape(ds.targets(), &preds) < 3.0);
    }

    #[test]
    fn fits_interaction() {
        // Piecewise interaction that a linear model cannot capture.
        let ds = grid_ds(|a, b| if a > 12.0 && b > 12.0 { 50.0 } else { 100.0 });
        let model = GradientBoostingRegressor::fit(&ds, &GbrParams::default(), 1);
        assert!((model.predict(&[20.0, 20.0]) - 50.0).abs() < 5.0);
        assert!((model.predict(&[2.0, 20.0]) - 100.0).abs() < 5.0);
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let ds = grid_ds(|a, b| a * b);
        let params = GbrParams {
            subsample: 0.7,
            ..GbrParams::default()
        };
        let m1 = GradientBoostingRegressor::fit(&ds, &params, 99);
        let m2 = GradientBoostingRegressor::fit(&ds, &params, 99);
        assert_eq!(m1.predict(&[7.0, 7.0]), m2.predict(&[7.0, 7.0]));
    }

    #[test]
    fn different_seed_changes_subsampled_fit() {
        let ds = grid_ds(|a, b| a * b + (a - b).abs());
        let params = GbrParams {
            subsample: 0.5,
            n_estimators: 30,
            ..GbrParams::default()
        };
        let m1 = GradientBoostingRegressor::fit(&ds, &params, 1);
        let m2 = GradientBoostingRegressor::fit(&ds, &params, 2);
        // Extremely unlikely to be bit-identical across all probe points.
        let probes = [[3.0, 4.0], [10.0, 1.0], [20.0, 20.0]];
        assert!(probes.iter().any(|p| m1.predict(p) != m2.predict(p)));
    }

    #[test]
    fn more_stages_fit_better() {
        let ds = grid_ds(|a, b| (a * 0.7).sin() * 10.0 + b);
        let small = GradientBoostingRegressor::fit(
            &ds,
            &GbrParams {
                n_estimators: 5,
                ..GbrParams::default()
            },
            3,
        );
        let large = GradientBoostingRegressor::fit(
            &ds,
            &GbrParams {
                n_estimators: 200,
                ..GbrParams::default()
            },
            3,
        );
        let sse = |m: &GradientBoostingRegressor| -> f64 {
            ds.rows().map(|(x, y)| (m.predict(x) - y).powi(2)).sum()
        };
        assert!(sse(&large) < sse(&small) * 0.5);
    }

    #[test]
    fn zero_stages_predicts_mean() {
        let ds = grid_ds(|a, _| a);
        let model = GradientBoostingRegressor::fit(
            &ds,
            &GbrParams {
                n_estimators: 0,
                ..GbrParams::default()
            },
            0,
        );
        assert_eq!(model.n_stages(), 0);
        assert_eq!(model.predict(&[0.0, 0.0]), ds.target_mean());
    }

    /// What `predict` computed before the forest: one recursive walk per
    /// stage, each scaled and added in fit order.
    fn recursive_walk(base: f64, lr: f64, stages: &[RegressionTree], x: &[f64]) -> f64 {
        stages
            .iter()
            .fold(base, |acc, tree| acc + lr * tree.predict(x))
    }

    #[test]
    fn flat_forest_matches_recursive_walk_bitwise() {
        let mut rng = StdRng::seed_from_u64(0xF0_2E57);
        let specials = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, 0.0, -0.0, 1e300];
        for case in 0..56usize {
            let width = rng.gen_range(1..=6usize);
            let rows = rng.gen_range(1..=70usize);
            // Every eighth dataset has constant targets: single-leaf trees.
            let constant = case % 8 == 7;
            let mut ds = Dataset::new(width);
            for _ in 0..rows {
                // A coarse grid, so features tie and some splits are barred.
                let x: Vec<f64> = (0..width)
                    .map(|_| rng.gen_range(0..12u32) as f64 * 0.5)
                    .collect();
                let y = if constant {
                    3.25
                } else {
                    x.iter().sum::<f64>() + rng.gen_range(-2.0..2.0)
                };
                ds.push(&x, y);
            }
            let params = GbrParams {
                n_estimators: rng.gen_range(0..=24usize),
                learning_rate: rng.gen_range(0.01..0.6),
                subsample: if case % 2 == 0 { 1.0 } else { 0.6 },
                tree: TreeParams {
                    max_depth: case % 7,
                    min_samples_leaf: rng.gen_range(1..=3usize),
                    ..TreeParams::default()
                },
            };
            let seed = case as u64;
            let (base, stages) = fit_stages(&ds, &params, seed);
            let model = GradientBoostingRegressor::fit(&ds, &params, seed);
            assert_eq!(model.n_stages(), stages.len());
            let mut probes: Vec<Vec<f64>> = ds.rows().map(|(x, _)| x.to_vec()).collect();
            for _ in 0..24 {
                let mut x: Vec<f64> = (0..width).map(|_| rng.gen_range(-2.0..8.0)).collect();
                for v in x.iter_mut() {
                    if rng.gen_range(0..3u32) == 0 {
                        *v = specials[rng.gen_range(0..specials.len())];
                    }
                }
                probes.push(x);
            }
            // Probes exactly on thresholds: `x == t` must rank (and walk)
            // left.
            for f in 0..width {
                for &t in model.forest.cuts_of(f).iter().take(4) {
                    let mut x: Vec<f64> = (0..width).map(|_| rng.gen_range(-2.0..8.0)).collect();
                    x[f] = t;
                    probes.push(x);
                }
            }
            // A memo too small for the probes, so answers are also lost
            // and walked again.
            let mut memo = CellMemo::new(32);
            let mut bits_of_cell: HashMap<Vec<u32>, u64> = HashMap::new();
            for round in 0..2 {
                for x in &probes {
                    let want = recursive_walk(base, params.learning_rate, &stages, x);
                    assert_eq!(
                        model.predict(x).to_bits(),
                        want.to_bits(),
                        "case {case} depth {} at {x:?}",
                        params.tree.max_depth
                    );
                    let mut cell = Vec::new();
                    model.forest.cell(x, &mut cell);
                    for ask in 0..2 {
                        assert_eq!(
                            model
                                .predict_cell(&cell, &mut memo, || model.predict(x))
                                .to_bits(),
                            want.to_bits(),
                            "case {case} round {round} ask {ask} at {x:?}"
                        );
                    }
                    assert_eq!(
                        *bits_of_cell.entry(cell).or_insert(want.to_bits()),
                        want.to_bits(),
                        "case {case}: two probes of one cell differ at {x:?}"
                    );
                }
            }
            let asked = 4 * probes.len() as u64;
            assert_eq!(memo.hits() + memo.walks(), asked);
            assert!(memo.hits() >= asked / 2, "the second ask always hits");
            if stages.iter().all(|tree| tree.node_count() == 1) {
                assert_eq!(bits_of_cell.len(), 1, "case {case}: no split, one cell");
                assert_eq!(memo.walks(), 1);
            }
        }
    }

    /// The stage loop before the presort: a fresh stage dataset per stage,
    /// fitted by the sort-per-node oracle.
    fn oracle_stages(ds: &Dataset, params: &GbrParams, seed: u64) -> (f64, Vec<RegressionTree>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let base = ds.target_mean();
        let mut current: Vec<f64> = vec![base; ds.len()];
        let mut stages = Vec::new();
        let sample_size = ((ds.len() as f64) * params.subsample).ceil() as usize;
        for _ in 0..params.n_estimators {
            let rows: Vec<usize> = if params.subsample < 1.0 {
                sample_without_replacement(&mut rng, ds.len(), sample_size)
            } else {
                (0..ds.len()).collect()
            };
            let mut stage_ds = Dataset::new(ds.n_features());
            for &i in &rows {
                stage_ds.push(ds.row(i), ds.target(i) - current[i]);
            }
            let tree = oracle::fit(&stage_ds, &params.tree);
            for (i, cur) in current.iter_mut().enumerate() {
                *cur += params.learning_rate * tree.predict(ds.row(i));
            }
            stages.push(tree);
        }
        (base, stages)
    }

    #[test]
    fn stages_match_the_oracle_stage_loop_bitwise() {
        let mut rng = StdRng::seed_from_u64(0x0057_A6E5);
        for case in 0..64usize {
            let n = rng.gen_range(1..=160usize);
            let width = rng.gen_range(1..=10usize);
            let ds = oracle::seeded_dataset(&mut rng, n, width);
            let params = GbrParams {
                n_estimators: rng.gen_range(0..=16usize),
                learning_rate: rng.gen_range(0.01..0.6),
                subsample: [1.0, 0.6][case % 2],
                tree: TreeParams {
                    max_depth: rng.gen_range(0..=6usize),
                    min_samples_leaf: rng.gen_range(1..=5usize),
                    ..TreeParams::default()
                },
            };
            let seed = case as u64;
            let (base, stages) = fit_stages(&ds, &params, seed);
            let (want_base, want) = oracle_stages(&ds, &params, seed);
            assert_eq!(base.to_bits(), want_base.to_bits(), "case {case}");
            let bits = |trees: &[RegressionTree]| -> Vec<_> {
                trees.iter().map(oracle::node_bits).collect()
            };
            assert_eq!(bits(&stages), bits(&want), "case {case}: {params:?}");
        }
    }

    #[test]
    fn sample_without_replacement_is_distinct() {
        let mut rng = StdRng::seed_from_u64(5);
        let s = sample_without_replacement(&mut rng, 100, 40);
        let mut sorted = s.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 40);
    }
}
