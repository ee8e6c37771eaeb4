//! Ordinary least squares linear regression.
//!
//! Yala fits the accelerator service-time law `t_j = t_{j,0} + a_j * m_j`
//! (Eq. 4 in the paper) with linear regression; this module provides an OLS
//! solver via the normal equations with partial-pivot Gaussian elimination
//! and an optional ridge term for numerical safety.

use crate::Dataset;

/// A fitted linear model `y = intercept + coefficients · x`.
///
/// # Example
///
/// ```
/// use yala_ml::{Dataset, LinearRegression};
/// let mut ds = Dataset::new(1);
/// for i in 0..10 {
///     let x = i as f64;
///     ds.push(&[x], 2.0 * x + 1.0);
/// }
/// let m = LinearRegression::fit(&ds).unwrap();
/// assert!((m.coefficients()[0] - 2.0).abs() < 1e-9);
/// assert!((m.intercept() - 1.0).abs() < 1e-9);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct LinearRegression {
    intercept: f64,
    coefficients: Vec<f64>,
}

/// Error returned when the normal-equation system is singular even after
/// ridge regularisation (e.g. all-constant features with zero rows).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FitLinearError;

impl std::fmt::Display for FitLinearError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "linear system is singular; cannot fit linear regression")
    }
}

impl std::error::Error for FitLinearError {}

impl LinearRegression {
    /// Fits OLS coefficients on `ds`.
    ///
    /// # Errors
    ///
    /// Returns [`FitLinearError`] if the design matrix is singular (fewer
    /// independent rows than features).
    pub fn fit(ds: &Dataset) -> Result<Self, FitLinearError> {
        Self::fit_ridge(ds, 0.0)
    }

    /// Fits with an L2 penalty `lambda` on the coefficients (not on the
    /// intercept). `lambda = 0` is plain OLS.
    ///
    /// # Errors
    ///
    /// Returns [`FitLinearError`] if the (regularised) system is singular.
    pub fn fit_ridge(ds: &Dataset, lambda: f64) -> Result<Self, FitLinearError> {
        assert!(lambda >= 0.0, "ridge penalty must be non-negative");
        let p = ds.n_features() + 1; // +1 for the intercept column
        let n = ds.len();
        if n == 0 {
            return Err(FitLinearError);
        }
        // Normal equations: (X^T X + lambda I') beta = X^T y, with the
        // intercept as an implicit all-ones leading column.
        let mut xtx = vec![0.0f64; p * p];
        let mut xty = vec![0.0f64; p];
        let mut xi = vec![0.0f64; p];
        for (row, y) in ds.rows() {
            xi[0] = 1.0;
            xi[1..].copy_from_slice(row);
            for a in 0..p {
                xty[a] += xi[a] * y;
                for b in a..p {
                    xtx[a * p + b] += xi[a] * xi[b];
                }
            }
        }
        // Mirror the upper triangle and add the ridge term (skip intercept).
        for a in 0..p {
            for b in 0..a {
                xtx[a * p + b] = xtx[b * p + a];
            }
        }
        for a in 1..p {
            xtx[a * p + a] += lambda;
        }
        let beta = solve_dense(&mut xtx, &mut xty, p).ok_or(FitLinearError)?;
        Ok(Self {
            intercept: beta[0],
            coefficients: beta[1..].to_vec(),
        })
    }

    /// Predicted value for a feature vector.
    ///
    /// # Panics
    ///
    /// Panics if `x.len()` differs from the fitted feature count.
    pub fn predict(&self, x: &[f64]) -> f64 {
        assert_eq!(x.len(), self.coefficients.len(), "feature width mismatch");
        self.intercept
            + self
                .coefficients
                .iter()
                .zip(x)
                .map(|(c, v)| c * v)
                .sum::<f64>()
    }

    /// The fitted intercept term.
    pub fn intercept(&self) -> f64 {
        self.intercept
    }

    /// The fitted coefficient vector (one entry per feature).
    pub fn coefficients(&self) -> &[f64] {
        &self.coefficients
    }
}

/// Solves `A x = b` for dense row-major `A` (n×n) by Gaussian elimination
/// with partial pivoting. Returns `None` for singular systems. `A` and `b`
/// are clobbered.
fn solve_dense(a: &mut [f64], b: &mut [f64], n: usize) -> Option<Vec<f64>> {
    const EPS: f64 = 1e-12;
    for col in 0..n {
        // Partial pivot.
        let mut pivot = col;
        let mut best = a[col * n + col].abs();
        for r in col + 1..n {
            let v = a[r * n + col].abs();
            if v > best {
                best = v;
                pivot = r;
            }
        }
        if best < EPS {
            return None;
        }
        if pivot != col {
            for c in 0..n {
                a.swap(col * n + c, pivot * n + c);
            }
            b.swap(col, pivot);
        }
        let diag = a[col * n + col];
        for r in col + 1..n {
            let factor = a[r * n + col] / diag;
            if factor == 0.0 {
                continue;
            }
            for c in col..n {
                a[r * n + c] -= factor * a[col * n + c];
            }
            b[r] -= factor * b[col];
        }
    }
    // Back substitution.
    let mut x = vec![0.0f64; n];
    for col in (0..n).rev() {
        let mut acc = b[col];
        for c in col + 1..n {
            acc -= a[col * n + c] * x[c];
        }
        x[col] = acc / a[col * n + col];
    }
    Some(x)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: f64, b: f64) -> bool {
        (a - b).abs() < 1e-8
    }

    #[test]
    fn exact_line() {
        let mut ds = Dataset::new(1);
        for i in 0..20 {
            let x = i as f64 * 0.5;
            ds.push(&[x], -4.0 * x + 7.0);
        }
        let m = LinearRegression::fit(&ds).unwrap();
        assert!(close(m.coefficients()[0], -4.0));
        assert!(close(m.intercept(), 7.0));
        assert!(close(m.predict(&[2.0]), -1.0));
    }

    #[test]
    fn two_features() {
        let mut ds = Dataset::new(2);
        for i in 0..10 {
            for j in 0..10 {
                let (x0, x1) = (i as f64, j as f64);
                ds.push(&[x0, x1], 2.0 * x0 - 3.0 * x1 + 0.5);
            }
        }
        let m = LinearRegression::fit(&ds).unwrap();
        assert!(close(m.coefficients()[0], 2.0));
        assert!(close(m.coefficients()[1], -3.0));
        assert!(close(m.intercept(), 0.5));
    }

    #[test]
    fn singular_system_errors() {
        // Two identical feature columns + too few rows -> singular.
        let mut ds = Dataset::new(2);
        ds.push(&[1.0, 1.0], 1.0);
        ds.push(&[2.0, 2.0], 2.0);
        ds.push(&[3.0, 3.0], 3.0);
        assert!(LinearRegression::fit(&ds).is_err());
        // Ridge rescues it.
        assert!(LinearRegression::fit_ridge(&ds, 1e-6).is_ok());
    }

    #[test]
    fn empty_dataset_errors() {
        let ds = Dataset::new(1);
        assert!(LinearRegression::fit(&ds).is_err());
    }

    #[test]
    fn least_squares_beats_any_other_line() {
        // With noise, the OLS fit must have residual sum <= a perturbed line.
        let mut ds = Dataset::new(1);
        let mut noise = 0.37;
        for i in 0..50 {
            let x = i as f64;
            noise = (noise * 997.0_f64).fract() - 0.5; // deterministic pseudo-noise
            ds.push(&[x], 1.5 * x + noise);
        }
        let m = LinearRegression::fit(&ds).unwrap();
        let rss = |slope: f64, icpt: f64| -> f64 {
            ds.rows()
                .map(|(x, y)| (y - (slope * x[0] + icpt)).powi(2))
                .sum()
        };
        let best = rss(m.coefficients()[0], m.intercept());
        assert!(best <= rss(m.coefficients()[0] + 0.01, m.intercept()));
        assert!(best <= rss(m.coefficients()[0], m.intercept() + 0.1));
    }
}
