//! # yala-ml — machine-learning substrate for the Yala reproduction
//!
//! The Yala paper builds its black-box memory-subsystem model with
//! scikit-learn's `GradientBoostingRegressor` and fits accelerator model
//! parameters with `LinearRegression`. This crate provides from-scratch,
//! dependency-free equivalents:
//!
//! * [`Dataset`] — a row-major feature matrix with targets.
//! * [`LinearRegression`] — ordinary least squares (optionally ridge-regularised).
//! * [`RegressionTree`] — CART least-squares regression tree.
//! * [`GradientBoostingRegressor`] — boosted trees with shrinkage and
//!   subsampling, deterministic given a seed.
//! * [`memo`] — bounded exact memos: [`WordMemo`], and [`CellMemo`] for
//!   repeated predictions of one fitted ensemble.
//! * [`metrics`] — MAPE and the paper's ±5% / ±10% bounded accuracies.
//! * [`split`] — seeded train/test splitting and k-fold cross validation.
//!
//! # Example
//!
//! ```
//! use yala_ml::{Dataset, GradientBoostingRegressor, GbrParams, metrics};
//!
//! // y = 3*x0, noise-free.
//! let mut ds = Dataset::new(1);
//! for i in 0..200 {
//!     let x = i as f64 / 10.0;
//!     ds.push(&[x], 3.0 * x);
//! }
//! let model = GradientBoostingRegressor::fit(&ds, &GbrParams::default(), 7);
//! let pred = model.predict(&[5.0]);
//! assert!((pred - 15.0).abs() < 1.0);
//! let preds: Vec<f64> = ds.rows().map(|(x, _)| model.predict(x)).collect();
//! assert!(metrics::mape(ds.targets(), &preds) < 5.0);
//! ```

pub mod dataset;
mod forest;
pub mod gbr;
pub mod linear;
pub mod memo;
pub mod metrics;
pub mod split;
pub mod tree;

pub use dataset::Dataset;
pub use gbr::{GbrParams, GradientBoostingRegressor};
pub use linear::LinearRegression;
pub use memo::{CellMemo, WordMemo};
pub use tree::{RegressionTree, TreeParams};
