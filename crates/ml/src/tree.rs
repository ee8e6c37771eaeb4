//! CART least-squares regression trees.
//!
//! These are the weak learners of [`crate::GradientBoostingRegressor`] and
//! follow the classic CART construction: at each node, pick the
//! (feature, threshold) split minimising the summed squared error of the two
//! children, recurse until a depth / leaf-size limit.
//! A fit sorts its rows once, not once per node (see `Presorted`).

use crate::Dataset;

/// Hyper-parameters for [`RegressionTree`].
#[derive(Debug, Clone, Copy, PartialEq)]
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
#[derive(Debug, Clone, Copy, PartialEq)]
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
#[derive(Debug, Clone, PartialEq)]
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
        let data = Presorted::new(ds, (0..ds.len()).collect());
        Self::fit_presorted(&data, ds.targets(), params)
    }

    /// Fits a tree on `data`'s rows, whose targets are `targets` (one per
    /// row of `data`, in its order).
    pub(crate) fn fit_presorted(data: &Presorted, targets: &[f64], params: &TreeParams) -> Self {
        let mut builder = Builder {
            data,
            targets,
            params,
            lists: data.lists.clone(),
            scratch: vec![0; data.rows.len()],
            nodes: Vec::new(),
        };
        builder.build(0, data.rows.len(), 0);
        Self {
            nodes: builder.nodes,
            n_features: data.columns.len(),
        }
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

/// A fit's training rows, features in columns, with feature `f`'s rows in
/// the order `(x_f, x_{f-1}, …, x_0, row)`: the order of the sort-per-node
/// builder this replaced, which stably re-sorted one ascending vector
/// feature after feature. Built once per fit (or per subsampled stage);
/// each tree stably partitions a copy of the lists at every split, so a
/// child's rows arrive in that order and every running sum, threshold and
/// leaf keeps its bits.
pub(crate) struct Presorted {
    /// The dataset row behind each of this matrix's rows.
    pub(crate) rows: Vec<usize>,
    /// Feature `f` of every row.
    columns: Vec<Vec<f64>>,
    /// `n_features + 1` lists of `rows.len()` row numbers: list 0 is
    /// ascending, list `f + 1` is list `f` stably sorted by feature `f`.
    lists: Vec<u32>,
}

impl Presorted {
    /// `ds`'s rows `rows`, in that order (duplicates allowed).
    pub(crate) fn new(ds: &Dataset, rows: Vec<usize>) -> Self {
        let n = rows.len();
        let columns: Vec<Vec<f64>> = (0..ds.n_features())
            .map(|f| rows.iter().map(|&i| ds.feature(i, f)).collect())
            .collect();
        let mut lists: Vec<u32> = (0..u32::try_from(n).expect("row count fits u32")).collect();
        for x in &columns {
            let mut next = lists[lists.len() - n..].to_vec();
            // `partial_cmp`, not `total_cmp`: `0.0` and `-0.0` tie, as
            // they do when a scan looks for a split between them.
            next.sort_by(|&a, &b| {
                x[a as usize]
                    .partial_cmp(&x[b as usize])
                    .expect("non-finite feature")
            });
            lists.extend(next);
        }
        Self {
            rows,
            columns,
            lists,
        }
    }
}

/// One tree's build. A node is a range `lo..hi` of every list.
struct Builder<'a> {
    data: &'a Presorted,
    targets: &'a [f64],
    params: &'a TreeParams,
    lists: Vec<u32>,
    /// Where a partition parks the right child's rows.
    scratch: Vec<u32>,
    nodes: Vec<Node>,
}

impl Builder<'_> {
    /// Builds the subtree over `lo..hi`; returns its arena index.
    fn build(&mut self, lo: usize, hi: usize, depth: usize) -> usize {
        // List 0 holds the node's rows in ascending order, the order every
        // node-wide sum is taken in.
        let rows = &self.lists[lo..hi];
        let sum: f64 = rows.iter().map(|&r| self.targets[r as usize]).sum();
        let mean = if rows.is_empty() {
            0.0
        } else {
            sum / rows.len() as f64
        };
        if depth >= self.params.max_depth || rows.len() < 2 * self.params.min_samples_leaf {
            return self.push_leaf(mean);
        }
        let Some((feature, threshold)) = self.best_split(lo, hi, sum) else {
            return self.push_leaf(mean);
        };
        // Children at the depth limit are leaves, which read list 0 only.
        let lists = if depth + 1 >= self.params.max_depth {
            1
        } else {
            self.data.columns.len() + 1
        };
        let mid = self.partition(lo, hi, feature, threshold, lists);
        let node = self.nodes.len();
        self.nodes.push(Node::Leaf { value: mean }); // placeholder, patched below
        let left = self.build(lo, mid, depth + 1);
        let right = self.build(mid, hi, depth + 1);
        self.nodes[node] = Node::Split {
            feature,
            threshold,
            left,
            right,
        };
        node
    }

    fn push_leaf(&mut self, value: f64) -> usize {
        self.nodes.push(Node::Leaf { value });
        self.nodes.len() - 1
    }

    /// Exhaustive best split of `lo..hi` over all features and midpoints
    /// between consecutive distinct values. The rows arrive sorted, and
    /// the incremental-SSE trick makes each feature's scan O(n). Returns
    /// the split's feature and threshold.
    fn best_split(&self, lo: usize, hi: usize, total_sum: f64) -> Option<(usize, f64)> {
        let (params, y) = (self.params, self.targets);
        let rows = &self.lists[lo..hi];
        let n = rows.len() as f64;
        let total_sq: f64 = rows.iter().map(|&r| y[r as usize].powi(2)).sum();
        let parent_sse = total_sq - total_sum * total_sum / n;

        let mut best: Option<(f64, usize, f64)> = None;
        for (feature, x) in self.data.columns.iter().enumerate() {
            let start = (feature + 1) * self.data.rows.len();
            let order = &self.lists[start + lo..start + hi];
            debug_assert!(
                order
                    .windows(2)
                    .all(|w| x[w[0] as usize] <= x[w[1] as usize]),
                "feature {feature}'s rows are out of order"
            );
            let mut left_sum = 0.0;
            let mut left_sq = 0.0;
            let mut left_n = 0.0;
            for (w, pair) in order.windows(2).enumerate() {
                let y = y[pair[0] as usize];
                left_sum += y;
                left_sq += y * y;
                left_n += 1.0;
                let (x_here, x_next) = (x[pair[0] as usize], x[pair[1] as usize]);
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
                if best.is_none_or(|(best_sse, ..)| sse < best_sse) {
                    best = Some((sse, feature, 0.5 * (x_here + x_next)));
                }
            }
        }
        best.map(|(_, feature, threshold)| (feature, threshold))
    }

    /// Stably moves the rows of `lo..hi` with `x[feature] <= threshold` —
    /// the test [`RegressionTree::predict`] applies — ahead of the rest, in
    /// the first `lists` lists; returns where the right child starts.
    fn partition(
        &mut self,
        lo: usize,
        hi: usize,
        feature: usize,
        threshold: f64,
        lists: usize,
    ) -> usize {
        let (x, n) = (&self.data.columns[feature], self.data.rows.len());
        let mut mid = lo;
        for (l, list) in self.lists.chunks_exact_mut(n).take(lists).enumerate() {
            let (mut left, mut right) = (lo, 0);
            for k in lo..hi {
                let r = list[k];
                if x[r as usize] <= threshold {
                    list[left] = r;
                    left += 1;
                } else {
                    self.scratch[right] = r;
                    right += 1;
                }
            }
            list[left..hi].copy_from_slice(&self.scratch[..right]);
            debug_assert!(l == 0 || left == mid, "list {l} splits unlike list 0");
            mid = left;
        }
        mid
    }
}

#[cfg(test)]
/// The builder [`Presorted`] replaced, kept as the oracle the presorted
/// one must match bit for bit: every node re-sorts its rows for every
/// feature.
pub(crate) mod oracle {
    use super::*;
    use rand::rngs::StdRng;
    use rand::Rng;

    struct SplitChoice {
        feature: usize,
        threshold: f64,
    }

    /// [`RegressionTree::fit`], sorting per node.
    pub(crate) fn fit(ds: &Dataset, params: &TreeParams) -> RegressionTree {
        assert!(!ds.is_empty(), "cannot fit a tree on an empty dataset");
        let mut tree = RegressionTree {
            nodes: Vec::new(),
            n_features: ds.n_features(),
        };
        let indices: Vec<usize> = (0..ds.len()).collect();
        build(&mut tree.nodes, ds, indices, params, 0);
        tree
    }

    fn build(
        nodes: &mut Vec<Node>,
        ds: &Dataset,
        mut indices: Vec<usize>,
        params: &TreeParams,
        depth: usize,
    ) -> usize {
        let mean = mean_of(ds, &indices);
        let best = if depth >= params.max_depth || indices.len() < 2 * params.min_samples_leaf {
            None
        } else {
            best_split(ds, &indices, params)
        };
        let Some(best) = best else {
            nodes.push(Node::Leaf { value: mean });
            return nodes.len() - 1;
        };
        let (mut left_idx, mut right_idx) = (Vec::new(), Vec::new());
        for i in indices.drain(..) {
            if ds.feature(i, best.feature) <= best.threshold {
                left_idx.push(i);
            } else {
                right_idx.push(i);
            }
        }
        let node = nodes.len();
        nodes.push(Node::Leaf { value: mean });
        let left = build(nodes, ds, left_idx, params, depth + 1);
        let right = build(nodes, ds, right_idx, params, depth + 1);
        nodes[node] = Node::Split {
            feature: best.feature,
            threshold: best.threshold,
            left,
            right,
        };
        node
    }

    fn mean_of(ds: &Dataset, indices: &[usize]) -> f64 {
        if indices.is_empty() {
            return 0.0;
        }
        indices.iter().map(|&i| ds.target(i)).sum::<f64>() / indices.len() as f64
    }

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
                    continue;
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

    /// A seeded dataset of `n` rows and `width` features: coarse grids
    /// with heavy ties and `0.0` mixed with `-0.0`, or continuous values;
    /// targets tied, continuous, or constant (`0.0` / `-0.0` mixed too).
    ///
    /// In some datasets every odd column is its left neighbour floored:
    /// it cuts the same partitions with the same exact SSE, so it wins a
    /// split only if its scan sums its ties in another order. Those
    /// columns make the tie order of a scan visible in the tree.
    pub(crate) fn seeded_dataset(rng: &mut StdRng, n: usize, width: usize) -> Dataset {
        let levels = rng.gen_range(1..=8u32);
        let continuous = rng.gen_range(0..4u32) == 0;
        let floored = rng.gen_range(0..3u32) == 0;
        let target_mode = rng.gen_range(0..5u32);
        let mut ds = Dataset::new(width);
        for _ in 0..n {
            let mut x: Vec<f64> = Vec::with_capacity(width);
            for f in 0..width {
                let v = if floored && f % 2 == 1 {
                    x[f - 1].floor()
                } else if continuous {
                    rng.gen_range(-3.0..3.0)
                } else {
                    f64::from(rng.gen_range(0..levels)) * 0.5
                };
                x.push(if v == 0.0 && rng.gen_range(0..2u32) == 0 {
                    -0.0
                } else {
                    v
                });
            }
            let y = match target_mode {
                0 => 2.5,
                1 => [0.0, -0.0][rng.gen_range(0..2)],
                2 => f64::from(rng.gen_range(0..3u32)),
                _ => x.iter().sum::<f64>() * 1.5 + rng.gen_range(-1.0..1.0),
            };
            ds.push(&x, y);
        }
        ds
    }

    /// A tree's nodes with every float as its bits, so `0.0` and `-0.0`
    /// differ and NaN equals itself.
    pub(crate) fn node_bits(tree: &RegressionTree) -> Vec<(usize, u64, usize, usize)> {
        tree.nodes
            .iter()
            .map(|node| match *node {
                Node::Leaf { value } => (usize::MAX, value.to_bits(), 0, 0),
                Node::Split {
                    feature,
                    threshold,
                    left,
                    right,
                } => (feature, threshold.to_bits(), left, right),
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn presorted_builder_matches_the_sort_per_node_oracle_bitwise() {
        let mut rng = StdRng::seed_from_u64(0x7AEE_50A7);
        for case in 0..520usize {
            // Half the cases small, where every edge of the split rules
            // is close.
            let n = if case % 2 == 0 {
                rng.gen_range(1..=24usize)
            } else {
                rng.gen_range(1..=400usize)
            };
            let width = rng.gen_range(1..=10usize);
            let ds = oracle::seeded_dataset(&mut rng, n, width);
            let params = TreeParams {
                max_depth: rng.gen_range(0..=6usize),
                min_samples_leaf: rng.gen_range(1..=5usize),
                min_impurity_decrease: [1e-12, 0.0][case % 2],
            };
            let want = oracle::fit(&ds, &params);
            let got = RegressionTree::fit(&ds, &params);
            assert_eq!(
                oracle::node_bits(&got),
                oracle::node_bits(&want),
                "case {case}: n {n} width {width} {params:?}"
            );
        }
    }

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
