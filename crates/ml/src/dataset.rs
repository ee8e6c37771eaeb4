//! Row-major feature matrix with regression targets.

/// A regression dataset: a dense row-major feature matrix plus one target
/// value per row.
///
/// All models in this crate consume a [`Dataset`]. Rows are appended with
/// [`Dataset::push`]; the number of features is fixed at construction.
///
/// # Example
///
/// ```
/// use yala_ml::Dataset;
/// let mut ds = Dataset::new(2);
/// ds.push(&[1.0, 2.0], 3.0);
/// ds.push(&[4.0, 5.0], 9.0);
/// assert_eq!(ds.len(), 2);
/// assert_eq!(ds.feature(1, 0), 4.0);
/// assert_eq!(ds.target(1), 9.0);
/// ```
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Dataset {
    n_features: usize,
    features: Vec<f64>,
    targets: Vec<f64>,
}

impl Dataset {
    /// Creates an empty dataset whose rows will have `n_features` columns.
    ///
    /// # Panics
    ///
    /// Panics if `n_features` is zero.
    pub fn new(n_features: usize) -> Self {
        assert!(n_features > 0, "dataset must have at least one feature");
        Self {
            n_features,
            features: Vec::new(),
            targets: Vec::new(),
        }
    }

    /// Appends one row.
    ///
    /// # Panics
    ///
    /// Panics if `x.len()` differs from the dataset's feature count or if any
    /// value is non-finite.
    pub fn push(&mut self, x: &[f64], y: f64) {
        assert_eq!(x.len(), self.n_features, "feature width mismatch");
        assert!(
            x.iter().all(|v| v.is_finite()) && y.is_finite(),
            "non-finite value pushed into dataset"
        );
        self.features.extend_from_slice(x);
        self.targets.push(y);
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.targets.len()
    }

    /// Whether the dataset has no rows.
    pub fn is_empty(&self) -> bool {
        self.targets.is_empty()
    }

    /// Number of feature columns.
    pub fn n_features(&self) -> usize {
        self.n_features
    }

    /// Borrow row `i`'s feature slice.
    ///
    /// # Panics
    ///
    /// Panics if `i >= len()`.
    pub fn row(&self, i: usize) -> &[f64] {
        &self.features[i * self.n_features..(i + 1) * self.n_features]
    }

    /// Feature `j` of row `i`.
    pub fn feature(&self, i: usize, j: usize) -> f64 {
        assert!(j < self.n_features, "feature index out of range");
        self.features[i * self.n_features + j]
    }

    /// Target of row `i`.
    pub fn target(&self, i: usize) -> f64 {
        self.targets[i]
    }

    /// All targets in row order.
    pub fn targets(&self) -> &[f64] {
        &self.targets
    }

    /// Iterator over `(features, target)` pairs.
    pub fn rows(&self) -> Rows<'_> {
        Rows { ds: self, i: 0 }
    }

    /// Merges another dataset with identical width into this one.
    ///
    /// # Panics
    ///
    /// Panics on feature-width mismatch.
    pub fn extend_from(&mut self, other: &Dataset) {
        assert_eq!(self.n_features, other.n_features, "feature width mismatch");
        self.features.extend_from_slice(&other.features);
        self.targets.extend_from_slice(&other.targets);
    }

    /// Mean of the targets; 0.0 for an empty dataset.
    pub fn target_mean(&self) -> f64 {
        if self.targets.is_empty() {
            0.0
        } else {
            self.targets.iter().sum::<f64>() / self.targets.len() as f64
        }
    }
}

/// Iterator over dataset rows, created by [`Dataset::rows`].
#[derive(Debug)]
pub struct Rows<'a> {
    ds: &'a Dataset,
    i: usize,
}

impl<'a> Iterator for Rows<'a> {
    type Item = (&'a [f64], f64);

    fn next(&mut self) -> Option<Self::Item> {
        if self.i >= self.ds.len() {
            return None;
        }
        let out = (self.ds.row(self.i), self.ds.target(self.i));
        self.i += 1;
        Some(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_and_index() {
        let mut ds = Dataset::new(3);
        ds.push(&[1.0, 2.0, 3.0], 6.0);
        ds.push(&[4.0, 5.0, 6.0], 15.0);
        assert_eq!(ds.len(), 2);
        assert_eq!(ds.n_features(), 3);
        assert_eq!(ds.row(0), &[1.0, 2.0, 3.0]);
        assert_eq!(ds.feature(1, 2), 6.0);
        assert_eq!(ds.target(1), 15.0);
    }

    #[test]
    #[should_panic(expected = "feature width mismatch")]
    fn push_wrong_width_panics() {
        let mut ds = Dataset::new(2);
        ds.push(&[1.0], 0.0);
    }

    #[test]
    #[should_panic(expected = "non-finite")]
    fn push_nan_panics() {
        let mut ds = Dataset::new(1);
        ds.push(&[f64::NAN], 0.0);
    }

    #[test]
    fn rows_iterator_covers_all() {
        let mut ds = Dataset::new(1);
        for i in 0..5 {
            ds.push(&[i as f64], i as f64 * 2.0);
        }
        let collected: Vec<f64> = ds.rows().map(|(_, y)| y).collect();
        assert_eq!(collected, vec![0.0, 2.0, 4.0, 6.0, 8.0]);
    }

    #[test]
    fn target_mean_empty_is_zero() {
        let ds = Dataset::new(1);
        assert_eq!(ds.target_mean(), 0.0);
    }

    #[test]
    fn extend_from_concatenates() {
        let mut a = Dataset::new(1);
        a.push(&[1.0], 1.0);
        let mut b = Dataset::new(1);
        b.push(&[2.0], 2.0);
        a.extend_from(&b);
        assert_eq!(a.len(), 2);
        assert_eq!(a.target(1), 2.0);
    }
}
