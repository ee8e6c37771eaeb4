//! Prediction-accuracy metrics used throughout the paper's evaluation:
//! MAPE (mean absolute percentage error) and the bounded accuracies
//! (±5% Acc., ±10% Acc.) of Tables 2/3/5/8/9.

/// Mean absolute percentage error, in percent.
///
/// `mape = 100/n * Σ |pred - true| / |true|`. Rows with `|true| == 0` are
/// skipped (throughputs in this project are strictly positive).
///
/// # Panics
///
/// Panics if the slices have different lengths or are empty.
///
/// # Example
///
/// ```
/// let truth = [100.0, 200.0];
/// let pred = [90.0, 220.0];
/// assert!((yala_ml::metrics::mape(&truth, &pred) - 10.0).abs() < 1e-9);
/// ```
pub fn mape(truth: &[f64], pred: &[f64]) -> f64 {
    assert_eq!(truth.len(), pred.len(), "length mismatch");
    assert!(!truth.is_empty(), "mape of empty slice");
    let mut acc = 0.0;
    let mut n = 0usize;
    for (&t, &p) in truth.iter().zip(pred) {
        if t == 0.0 {
            continue;
        }
        acc += ((p - t) / t).abs();
        n += 1;
    }
    assert!(n > 0, "all ground-truth values were zero");
    100.0 * acc / n as f64
}

/// Absolute percentage error of a single prediction, in percent.
///
/// # Panics
///
/// Panics if `truth == 0`.
pub fn ape(truth: f64, pred: f64) -> f64 {
    assert!(
        truth != 0.0,
        "absolute percentage error undefined for zero truth"
    );
    100.0 * ((pred - truth) / truth).abs()
}

/// Fraction (in percent) of predictions whose absolute percentage error is
/// at most `bound_pct` — the paper's "±5% Acc." / "±10% Acc." columns.
///
/// # Panics
///
/// Panics if the slices have different lengths or are empty.
pub fn bounded_accuracy(truth: &[f64], pred: &[f64], bound_pct: f64) -> f64 {
    assert_eq!(truth.len(), pred.len(), "length mismatch");
    assert!(!truth.is_empty(), "bounded accuracy of empty slice");
    let hits = truth
        .iter()
        .zip(pred)
        .filter(|(&t, &p)| t != 0.0 && ape(t, p) <= bound_pct)
        .count();
    100.0 * hits as f64 / truth.len() as f64
}

/// Coefficient of determination R².
pub fn r2(truth: &[f64], pred: &[f64]) -> f64 {
    assert_eq!(truth.len(), pred.len(), "length mismatch");
    assert!(!truth.is_empty(), "r2 of empty slice");
    let mean = truth.iter().sum::<f64>() / truth.len() as f64;
    let ss_tot: f64 = truth.iter().map(|t| (t - mean).powi(2)).sum();
    let ss_res: f64 = truth.iter().zip(pred).map(|(t, p)| (t - p).powi(2)).sum();
    if ss_tot == 0.0 {
        if ss_res == 0.0 {
            1.0
        } else {
            f64::NEG_INFINITY
        }
    } else {
        1.0 - ss_res / ss_tot
    }
}

/// Percentile of a sample using linear interpolation between order
/// statistics (the same convention as numpy's default). `q` in `[0, 100]`.
///
/// # Panics
///
/// Panics if `values` is empty or `q` is out of range.
pub fn percentile(values: &[f64], q: f64) -> f64 {
    assert!(!values.is_empty(), "percentile of empty slice");
    assert!((0.0..=100.0).contains(&q), "percentile rank out of range");
    let mut sorted: Vec<f64> = values.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("non-finite sample"));
    let rank = q / 100.0 * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    if lo == hi {
        sorted[lo]
    } else {
        let w = rank - lo as f64;
        sorted[lo] * (1.0 - w) + sorted[hi] * w
    }
}

/// Median of a sample (50th percentile).
pub fn median(values: &[f64]) -> f64 {
    percentile(values, 50.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mape_basic() {
        assert!((mape(&[100.0], &[110.0]) - 10.0).abs() < 1e-12);
        assert!((mape(&[100.0, 100.0], &[110.0, 90.0]) - 10.0).abs() < 1e-12);
    }

    #[test]
    fn mape_skips_zero_truth() {
        assert!((mape(&[0.0, 100.0], &[5.0, 105.0]) - 5.0).abs() < 1e-12);
    }

    #[test]
    fn ape_symmetric_in_magnitude() {
        assert_eq!(ape(100.0, 90.0), ape(100.0, 110.0));
    }

    #[test]
    fn bounded_accuracy_counts_hits() {
        let truth = [100.0, 100.0, 100.0, 100.0];
        let pred = [103.0, 107.0, 94.0, 130.0];
        assert!((bounded_accuracy(&truth, &pred, 5.0) - 25.0).abs() < 1e-12);
        assert!((bounded_accuracy(&truth, &pred, 10.0) - 75.0).abs() < 1e-12);
    }

    #[test]
    fn perfect_predictions() {
        let v = [3.0, 4.0, 5.0];
        assert_eq!(mape(&v, &v), 0.0);
        assert_eq!(bounded_accuracy(&v, &v, 5.0), 100.0);
        assert_eq!(r2(&v, &v), 1.0);
    }

    #[test]
    fn percentile_endpoints_and_median() {
        let v = [5.0, 1.0, 3.0, 2.0, 4.0];
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 100.0), 5.0);
        assert_eq!(median(&v), 3.0);
    }

    #[test]
    fn percentile_interpolates() {
        let v = [0.0, 10.0];
        assert!((percentile(&v, 25.0) - 2.5).abs() < 1e-12);
        assert!((percentile(&v, 95.0) - 9.5).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn mismatched_lengths_panic() {
        mape(&[1.0], &[1.0, 2.0]);
    }
}
