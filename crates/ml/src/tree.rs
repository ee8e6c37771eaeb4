//! CART least-squares regression trees.
//!
//! These are the weak learners of [`crate::GradientBoostingRegressor`] and
//! follow the classic CART construction: at each node, pick the
//! (feature, threshold) split minimising the summed squared error of the two
//! children, recurse until a depth / leaf-size limit.

use crate::Dataset;
use serde::{Deserialize, Serialize};

/// Hyper-parameters for [`RegressionTree`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TreeParams {
    /// Maximum tree depth (root = depth 0). sklearn's GBR default is 3.
    pub max_depth: usize,
    /// Minimum number of samples a leaf may hold.
    pub min_samples_leaf: usize,
    /// Minimum SSE improvement for a split to be kept.
    pub min_impurity_decrease: f64,
}

impl Default for TreeParams {
    fn default() -> Self {
        Self {
            max_depth: 3,
            min_samples_leaf: 1,
            min_impurity_decrease: 1e-12,
        }
    }
}

/// One node of the tree, stored in a flat arena (root at index 0).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub(crate) enum Node {
    Leaf {
        value: f64,
    },
    Split {
        feature: usize,
        threshold: f64,
        /// Arena index of the `x[feature] <= threshold` child.
        left: usize,
        /// Arena index of the `x[feature] > threshold` child.
        right: usize,
    },
}

/// A fitted CART regression tree.
///
/// # Example
///
/// ```
/// use yala_ml::{Dataset, RegressionTree, TreeParams};
/// let mut ds = Dataset::new(1);
/// for i in 0..100 {
///     let x = i as f64;
///     ds.push(&[x], if x < 50.0 { 1.0 } else { 5.0 });
/// }
/// let tree = RegressionTree::fit(&ds, &TreeParams::default());
/// assert!((tree.predict(&[10.0]) - 1.0).abs() < 1e-9);
/// assert!((tree.predict(&[90.0]) - 5.0).abs() < 1e-9);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RegressionTree {
    nodes: Vec<Node>,
    n_features: usize,
}

impl RegressionTree {
    /// Fits a tree on `ds` with the given parameters.
    ///
    /// # Panics
    ///
    /// Panics if `ds` is empty.
    pub fn fit(ds: &Dataset, params: &TreeParams) -> Self {
        assert!(!ds.is_empty(), "cannot fit a tree on an empty dataset");
        let mut tree = Self {
            nodes: Vec::new(),
            n_features: ds.n_features(),
        };
        let indices: Vec<usize> = (0..ds.len()).collect();
        tree.build(ds, indices, params, 0);
        tree
    }

    /// Recursively builds the subtree for `indices`; returns its arena index.
    fn build(
        &mut self,
        ds: &Dataset,
        mut indices: Vec<usize>,
        params: &TreeParams,
        depth: usize,
    ) -> usize {
        let mean = mean_of(ds, &indices);
        if depth >= params.max_depth || indices.len() < 2 * params.min_samples_leaf {
            return self.push_leaf(mean);
        }
        let Some(best) = best_split(ds, &indices, params) else {
            return self.push_leaf(mean);
        };
        // Partition in place to avoid an extra allocation per side.
        let (mut left_idx, mut right_idx) = (Vec::new(), Vec::new());
        for i in indices.drain(..) {
            if ds.feature(i, best.feature) <= best.threshold {
                left_idx.push(i);
            } else {
                right_idx.push(i);
            }
        }
        let node = self.nodes.len();
        self.nodes.push(Node::Leaf { value: mean }); // placeholder, patched below
        let left = self.build(ds, left_idx, params, depth + 1);
        let right = self.build(ds, right_idx, params, depth + 1);
        self.nodes[node] = Node::Split {
            feature: best.feature,
            threshold: best.threshold,
            left,
            right,
        };
        node
    }

    fn push_leaf(&mut self, value: f64) -> usize {
        self.nodes.push(Node::Leaf { value });
        self.nodes.len() - 1
    }

    /// Predicted value for one feature vector.
    ///
    /// # Panics
    ///
    /// Panics if `x.len()` differs from the training feature count.
    pub fn predict(&self, x: &[f64]) -> f64 {
        assert_eq!(x.len(), self.n_features, "feature width mismatch");
        let mut at = 0usize;
        loop {
            match &self.nodes[at] {
                Node::Leaf { value } => return *value,
                Node::Split {
                    feature,
                    threshold,
                    left,
                    right,
                } => {
                    at = if x[*feature] <= *threshold {
                        *left
                    } else {
                        *right
                    };
                }
            }
        }
    }

    /// The node arena, for flattening into a `Forest`.
    pub(crate) fn nodes(&self) -> &[Node] {
        &self.nodes
    }

    /// Total node count (splits + leaves), useful for complexity assertions.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Number of leaf nodes.
    pub fn leaf_count(&self) -> usize {
        self.nodes
            .iter()
            .filter(|n| matches!(n, Node::Leaf { .. }))
            .count()
    }
}

struct SplitChoice {
    feature: usize,
    threshold: f64,
}

fn mean_of(ds: &Dataset, indices: &[usize]) -> f64 {
    if indices.is_empty() {
        return 0.0;
    }
    indices.iter().map(|&i| ds.target(i)).sum::<f64>() / indices.len() as f64
}

/// Exhaustive best split over all features and midpoints between consecutive
/// distinct sorted values. Uses the incremental-SSE trick so each feature
/// scan is O(n log n) for the sort plus O(n) for evaluation.
fn best_split(ds: &Dataset, indices: &[usize], params: &TreeParams) -> Option<SplitChoice> {
    let n = indices.len() as f64;
    let total_sum: f64 = indices.iter().map(|&i| ds.target(i)).sum();
    let total_sq: f64 = indices.iter().map(|&i| ds.target(i).powi(2)).sum();
    let parent_sse = total_sq - total_sum * total_sum / n;

    let mut best: Option<(f64, SplitChoice)> = None;
    let mut order: Vec<usize> = indices.to_vec();
    for feature in 0..ds.n_features() {
        order.sort_by(|&a, &b| {
            ds.feature(a, feature)
                .partial_cmp(&ds.feature(b, feature))
                .expect("non-finite feature")
        });
        let mut left_sum = 0.0;
        let mut left_sq = 0.0;
        let mut left_n = 0.0;
        for w in 0..order.len() - 1 {
            let i = order[w];
            let y = ds.target(i);
            left_sum += y;
            left_sq += y * y;
            left_n += 1.0;
            let x_here = ds.feature(i, feature);
            let x_next = ds.feature(order[w + 1], feature);
            if x_here == x_next {
                continue; // cannot split between equal values
            }
            let left_count = w + 1;
            let right_count = order.len() - left_count;
            if left_count < params.min_samples_leaf || right_count < params.min_samples_leaf {
                continue;
            }
            let right_sum = total_sum - left_sum;
            let right_sq = total_sq - left_sq;
            let right_n = n - left_n;
            let sse = (left_sq - left_sum * left_sum / left_n)
                + (right_sq - right_sum * right_sum / right_n);
            let gain = parent_sse - sse;
            if gain < params.min_impurity_decrease {
                continue;
            }
            let better = match &best {
                None => true,
                Some((best_sse, _)) => sse < *best_sse,
            };
            if better {
                best = Some((
                    sse,
                    SplitChoice {
                        feature,
                        threshold: 0.5 * (x_here + x_next),
                    },
                ));
            }
        }
    }
    best.map(|(_, choice)| choice)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn step_function_is_learned_exactly() {
        let mut ds = Dataset::new(1);
        for i in 0..100 {
            let x = i as f64;
            ds.push(&[x], if x < 30.0 { -2.0 } else { 4.0 });
        }
        let tree = RegressionTree::fit(&ds, &TreeParams::default());
        assert_eq!(tree.predict(&[0.0]), -2.0);
        assert_eq!(tree.predict(&[29.0]), -2.0);
        assert_eq!(tree.predict(&[30.0]), 4.0);
        assert_eq!(tree.predict(&[99.0]), 4.0);
    }

    #[test]
    fn depth_zero_is_single_leaf_mean() {
        let mut ds = Dataset::new(1);
        ds.push(&[0.0], 2.0);
        ds.push(&[1.0], 4.0);
        let params = TreeParams {
            max_depth: 0,
            ..TreeParams::default()
        };
        let tree = RegressionTree::fit(&ds, &params);
        assert_eq!(tree.node_count(), 1);
        assert_eq!(tree.predict(&[0.5]), 3.0);
    }

    #[test]
    fn constant_targets_give_single_leaf() {
        let mut ds = Dataset::new(2);
        for i in 0..10 {
            ds.push(&[i as f64, -(i as f64)], 5.0);
        }
        let tree = RegressionTree::fit(&ds, &TreeParams::default());
        assert_eq!(tree.leaf_count(), 1);
        assert_eq!(tree.predict(&[3.0, 17.0]), 5.0);
    }

    #[test]
    fn min_samples_leaf_respected() {
        let mut ds = Dataset::new(1);
        for i in 0..10 {
            ds.push(&[i as f64], if i == 9 { 100.0 } else { 0.0 });
        }
        // A leaf of 5 forbids isolating the outlier at x=9.
        let params = TreeParams {
            min_samples_leaf: 5,
            ..TreeParams::default()
        };
        let tree = RegressionTree::fit(&ds, &params);
        // Only one split possible: 5|5.
        assert!(tree.leaf_count() <= 2);
    }

    #[test]
    fn splits_on_the_informative_feature() {
        // Feature 0 is noise-like, feature 1 carries the signal.
        let mut ds = Dataset::new(2);
        for i in 0..50 {
            let noise = ((i * 7919) % 100) as f64 / 100.0;
            let x1 = i as f64;
            ds.push(&[noise, x1], if x1 < 25.0 { 0.0 } else { 10.0 });
        }
        let params = TreeParams {
            max_depth: 1,
            ..TreeParams::default()
        };
        let tree = RegressionTree::fit(&ds, &params);
        assert_eq!(tree.predict(&[0.9, 0.0]), 0.0);
        assert_eq!(tree.predict(&[0.1, 40.0]), 10.0);
    }

    #[test]
    fn piecewise_linear_approximated_with_depth() {
        // Deeper trees must fit y = x better (more leaves).
        let mut ds = Dataset::new(1);
        for i in 0..128 {
            ds.push(&[i as f64], i as f64);
        }
        let shallow = RegressionTree::fit(
            &ds,
            &TreeParams {
                max_depth: 2,
                ..TreeParams::default()
            },
        );
        let deep = RegressionTree::fit(
            &ds,
            &TreeParams {
                max_depth: 6,
                ..TreeParams::default()
            },
        );
        let sse = |t: &RegressionTree| -> f64 {
            ds.rows().map(|(x, y)| (t.predict(x) - y).powi(2)).sum()
        };
        assert!(sse(&deep) < sse(&shallow));
    }
}
