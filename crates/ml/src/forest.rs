//! The fitted form of a boosted ensemble: every stage's tree flattened
//! into one contiguous array of 16-byte nodes.
//!
//! Every leaf sits exactly `depth` steps below its root — the depth of
//! the deepest leaf in the forest — so a prediction walks each tree with
//! a fixed trip count and no data-dependent branch: one step is
//! `left + (x[feature] > threshold)`. A branch that ends early is padded
//! down to `depth` with pass-through pairs (both children lead to the
//! same leaf), two nodes per missing level. With the trip count fixed and
//! the trees independent, the walks of several trees overlap in the
//! pipeline; the only chain that crosses trees is the accumulator, which
//! adds the stages in fit order so every prediction keeps the bits of the
//! recursive walk.
//!
//! The forest is piecewise constant on the grid its own thresholds cut.
//! Per feature it keeps the sorted distinct thresholds of its real splits
//! (pads excluded); the *cell* of an input is, per feature, how many of
//! them the input goes right of. Going right is `!(x <= t)`, which for
//! ascending `t` holds on a prefix of the list, so a split `(f, t)` sends
//! `x` right exactly when `t`'s position is below `x`'s rank on `f`: two
//! inputs in one cell take the same branch at every split of every stage,
//! reach the same leaves, and add them in the same order — the same bits.
//! `x == t` goes left and NaN goes right just as in [`Forest::step`];
//! `0.0` and `-0.0` compare equal there and so rank the same.

use crate::tree::{Node as TreeNode, RegressionTree};
use std::collections::VecDeque;

/// Trees walked in lockstep.
const LANES: usize = 8;

#[derive(Debug, Clone, Copy, PartialEq, Default)]
struct Node {
    /// A split's threshold, or a leaf's contribution (already multiplied
    /// by the learning rate).
    value: f64,
    /// The feature a split tests.
    feature: u32,
    /// The `x[feature] <= threshold` child; the other child is
    /// `left + 1`.
    left: u32,
}

/// All stages of one ensemble, in fit order.
#[derive(Debug, Clone, PartialEq, Default)]
pub(crate) struct Forest {
    nodes: Vec<Node>,
    /// Root node of each stage.
    roots: Vec<u32>,
    /// Steps from every root to every leaf below it.
    depth: u32,
    /// Every feature's distinct split thresholds, ascending, feature
    /// after feature.
    cuts: Vec<f64>,
    /// Where each feature's thresholds start in `cuts`, plus the end:
    /// one more entry than there are features.
    cut_starts: Vec<u32>,
}

fn index(i: usize) -> u32 {
    u32::try_from(i).expect("forest outgrew u32 node indices")
}

/// Steps from the root of `tree` to its deepest leaf.
fn tree_depth(tree: &RegressionTree) -> u32 {
    // The arena is in pre-order: a node precedes its children.
    let nodes = tree.nodes();
    let mut depth = vec![0u32; nodes.len()];
    for (i, node) in nodes.iter().enumerate() {
        if let TreeNode::Split { left, right, .. } = *node {
            depth[left] = depth[i] + 1;
            depth[right] = depth[i] + 1;
        }
    }
    depth.into_iter().max().unwrap_or(0)
}

impl Forest {
    /// Flattens `stages` — trees over `n_features` features — scaling
    /// every leaf by `learning_rate`.
    pub(crate) fn new(stages: &[RegressionTree], learning_rate: f64, n_features: usize) -> Self {
        let mut forest = Self {
            depth: stages.iter().map(tree_depth).max().unwrap_or(0),
            ..Self::default()
        };
        for tree in stages {
            forest.push_tree(tree, learning_rate);
        }
        forest.cut_grid(stages, n_features);
        forest
    }

    /// Collects the thresholds of every split of `stages` per feature.
    fn cut_grid(&mut self, stages: &[RegressionTree], n_features: usize) {
        let mut per_feature = vec![Vec::new(); n_features];
        for node in stages.iter().flat_map(|tree| tree.nodes()) {
            match *node {
                // A NaN threshold (the midpoint of -inf and +inf) sends
                // every input right: it tells no two inputs apart, and
                // would break the order the ranks rely on.
                TreeNode::Split {
                    feature, threshold, ..
                } if !threshold.is_nan() => per_feature[feature].push(threshold),
                _ => {}
            }
        }
        self.cut_starts.push(0);
        for mut cuts in per_feature {
            cuts.sort_unstable_by(f64::total_cmp);
            cuts.dedup();
            self.cuts.extend(cuts);
            self.cut_starts.push(index(self.cuts.len()));
        }
    }

    /// `v`'s word on `feature` in a cell: one more than the number of
    /// the feature's thresholds `v` goes right of (so no word is zero,
    /// which [`crate::memo::WordMemo`] reserves).
    pub(crate) fn rank(&self, feature: usize, v: f64) -> u32 {
        // The predicate of `step`, true on a prefix of the ascending
        // thresholds (on all of them for NaN).
        #[allow(clippy::neg_cmp_op_on_partial_ord)]
        let rank = self.cuts_of(feature).partition_point(|&t| !(v <= t));
        index(rank) + 1
    }

    /// Writes the cell of `x` to `out`: [`Self::rank`] feature by
    /// feature.
    #[cfg(test)]
    pub(crate) fn cell(&self, x: &[f64], out: &mut Vec<u32>) {
        out.extend(x.iter().enumerate().map(|(f, &v)| self.rank(f, v)));
    }

    /// The thresholds `feature` is ranked against.
    pub(crate) fn cuts_of(&self, feature: usize) -> &[f64] {
        &self.cuts[self.cut_starts[feature] as usize..self.cut_starts[feature + 1] as usize]
    }

    /// Appends two blank sibling nodes and returns the first's index.
    fn push_pair(&mut self) -> usize {
        let at = self.nodes.len();
        self.nodes.extend([Node::default(); 2]);
        at
    }

    /// Breadth-first copy of one tree, so siblings land side by side.
    fn push_tree(&mut self, tree: &RegressionTree, learning_rate: f64) {
        let src = tree.nodes();
        let root = self.nodes.len();
        self.roots.push(index(root));
        self.nodes.push(Node::default());
        let mut queue = VecDeque::from([(0usize, root, 0u32)]);
        while let Some((from, to, depth)) = queue.pop_front() {
            match src[from] {
                TreeNode::Leaf { value } => self.push_leaf(to, depth, learning_rate * value),
                TreeNode::Split {
                    feature,
                    threshold,
                    left,
                    right,
                } => {
                    let kids = self.push_pair();
                    queue.push_back((left, kids, depth + 1));
                    queue.push_back((right, kids + 1, depth + 1));
                    self.nodes[to] = Node {
                        value: threshold,
                        feature: index(feature),
                        left: index(kids),
                    };
                }
            }
        }
    }

    /// Puts a leaf worth `value` below node `at`, `self.depth - depth`
    /// steps down.
    fn push_leaf(&mut self, at: usize, depth: u32, value: f64) {
        let mut slots = at..at + 1;
        for _ in depth..self.depth {
            let kids = self.push_pair();
            for slot in slots {
                self.nodes[slot].left = index(kids);
            }
            slots = kids..kids + 2;
        }
        for slot in slots {
            self.nodes[slot].value = value;
        }
    }

    /// Number of stages.
    pub(crate) fn len(&self) -> usize {
        self.roots.len()
    }

    /// One step of a walk from node `at`.
    #[inline(always)]
    fn step(&self, at: u32, x: &[f64]) -> u32 {
        let node = self.nodes[at as usize];
        // `!(<=)`, not `>`: a NaN feature goes right, as in
        // `RegressionTree::predict`.
        #[allow(clippy::neg_cmp_op_on_partial_ord)]
        let right = !(x[node.feature as usize] <= node.value);
        node.left + right as u32
    }

    /// `base` plus every stage's contribution at `x`, added in fit order.
    pub(crate) fn predict(&self, base: f64, x: &[f64]) -> f64 {
        let mut acc = base;
        let mut lanes = self.roots.chunks_exact(LANES);
        for roots in &mut lanes {
            let mut at = [0u32; LANES];
            at.copy_from_slice(roots);
            for _ in 0..self.depth {
                for a in at.iter_mut() {
                    *a = self.step(*a, x);
                }
            }
            for a in at {
                acc += self.nodes[a as usize].value;
            }
        }
        for &root in lanes.remainder() {
            let mut at = root;
            for _ in 0..self.depth {
                at = self.step(at, x);
            }
            acc += self.nodes[at as usize].value;
        }
        acc
    }
}
