//! Shared histogram-based regression-tree grower.
//!
//! One grower serves all three tree learners: CART uses `lambda == 0` (leaf =
//! mean, gain = SSE reduction up to a constant factor), the GBDT passes the
//! XGBoost-style regularized gain (`lambda`, `gamma`), and the Random Forest
//! adds per-node feature subsampling. With squared loss the Hessian of every
//! example is 1, so node statistics reduce to `(count, target sum)`.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;

use crate::binned::BinnedMatrix;

/// A node of a grown tree, stored in a flat arena.
#[derive(Debug, Clone, PartialEq)]
pub enum TreeNode {
    /// Internal split: go left iff `value[feature] <= threshold`.
    Split {
        /// Feature index the split tests.
        feature: u32,
        /// Raw-value threshold ("left iff <=").
        threshold: f64,
        /// Arena index of the left child.
        left: u32,
        /// Arena index of the right child.
        right: u32,
    },
    /// Terminal node carrying the prediction contribution.
    Leaf {
        /// Predicted value (mean for CART, regularized weight for GBDT).
        value: f64,
    },
}

/// A grown regression tree (flat arena, root at index 0). Every split's
/// children lie strictly after it in the arena.
///
/// This is the grower's output and the codec's unit. The fitted tree
/// learners serve from one packed node array per model instead, which must
/// match [`Tree::predict_row`], the reference walk, bit for bit.
#[derive(Debug, Clone)]
pub struct Tree {
    nodes: Vec<TreeNode>,
}

impl Tree {
    /// Walks the tree for one raw (un-binned) feature row.
    pub fn predict_row(&self, row: &[f64]) -> f64 {
        let mut idx = 0usize;
        loop {
            match &self.nodes[idx] {
                TreeNode::Leaf { value } => return *value,
                TreeNode::Split { feature, threshold, left, right } => {
                    idx = if row[*feature as usize] <= *threshold {
                        *left as usize
                    } else {
                        *right as usize
                    };
                }
            }
        }
    }

    /// Total node count (splits + leaves).
    pub fn n_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Number of leaves.
    pub fn n_leaves(&self) -> usize {
        self.nodes.iter().filter(|n| matches!(n, TreeNode::Leaf { .. })).count()
    }

    /// Serializes the node arena (tag byte per node: 0 = leaf, 1 = split).
    ///
    /// # Errors
    /// Returns [`crate::error::MlError::Codec`] on I/O failure.
    pub fn write_to(&self, w: &mut dyn std::io::Write) -> crate::error::MlResult<()> {
        use crate::codec as c;
        c::write_usize(w, self.nodes.len())?;
        for node in &self.nodes {
            match node {
                TreeNode::Leaf { value } => {
                    c::write_u8(w, 0)?;
                    c::write_f64(w, *value)?;
                }
                TreeNode::Split { feature, threshold, left, right } => {
                    c::write_u8(w, 1)?;
                    c::write_u32(w, *feature)?;
                    c::write_f64(w, *threshold)?;
                    c::write_u32(w, *left)?;
                    c::write_u32(w, *right)?;
                }
            }
        }
        Ok(())
    }

    /// Deserializes a tree written by [`Tree::write_to`], validating that
    /// every split's children point strictly forward in the arena (the
    /// invariant the grower maintains), so a corrupted file cannot produce a
    /// tree whose traversal loops forever.
    ///
    /// # Errors
    /// Returns [`crate::error::MlError::Codec`] on I/O failure, truncation,
    /// or a malformed arena.
    pub fn read_from(r: &mut dyn std::io::Read) -> crate::error::MlResult<Tree> {
        use crate::codec as c;
        let n = c::read_len(r, "tree nodes")?;
        if n == 0 {
            return Err(c::codec_err("tree must have at least one node"));
        }
        let mut nodes = Vec::with_capacity(n);
        for i in 0..n {
            match c::read_u8(r)? {
                0 => nodes.push(TreeNode::Leaf { value: c::read_f64(r)? }),
                1 => {
                    let feature = c::read_u32(r)?;
                    let threshold = c::read_f64(r)?;
                    let left = c::read_u32(r)?;
                    let right = c::read_u32(r)?;
                    let (lo, hi) = (i as u32, n as u32);
                    if left <= lo || left >= hi || right <= lo || right >= hi {
                        return Err(c::codec_err(format!(
                            "tree node {i}: children ({left}, {right}) must lie in ({lo}, {hi})"
                        )));
                    }
                    nodes.push(TreeNode::Split { feature, threshold, left, right });
                }
                other => return Err(c::codec_err(format!("invalid tree node tag {other}"))),
            }
        }
        Ok(Tree { nodes })
    }

    /// Maximum depth (root = depth 0); useful in tests.
    pub fn depth(&self) -> usize {
        fn rec(nodes: &[TreeNode], idx: usize) -> usize {
            match &nodes[idx] {
                TreeNode::Leaf { .. } => 0,
                TreeNode::Split { left, right, .. } => {
                    1 + rec(nodes, *left as usize).max(rec(nodes, *right as usize))
                }
            }
        }
        if self.nodes.is_empty() {
            0
        } else {
            rec(&self.nodes, 0)
        }
    }
}

/// One node of a [`TreeArena`]. A leaf is a node whose children are itself,
/// so a walk that reaches it stays there.
#[derive(Debug, Clone, Copy)]
struct PackedNode {
    /// Split threshold ("left iff `row[feature] <= value`"), or the leaf's
    /// value.
    value: f64,
    /// Feature the split tests (0 for a leaf, which goes nowhere either way).
    feature: u32,
    left: u32,
    right: u32,
}

/// Trees walked together per chunk: independent node loads the CPU can
/// overlap.
const CHUNK: usize = 8;

/// The trees of an ensemble packed into one flat node array — the serving
/// form of [`DecisionTree`](crate::tree::DecisionTree),
/// [`RandomForest`](crate::forest::RandomForest) and
/// [`GradientBoosting`](crate::gbdt::GradientBoosting).
///
/// [`TreeArena::leaves`] walks eight trees at a time, level by level,
/// for exactly `depth` steps: leaves loop to themselves, so a
/// shallow tree simply stays on its leaf, and no step depends on the data
/// for when to stop. It holds the same nodes as the trees it was built from
/// (the node count behind `footprint_bytes` is unchanged) and unpacks back
/// into them for the codec ([`TreeArena::trees`]).
#[derive(Debug, Clone, Default)]
pub(crate) struct TreeArena {
    nodes: Vec<PackedNode>,
    /// Arena index of each tree's root, in tree order.
    roots: Vec<u32>,
    /// Deepest root-to-leaf path over every tree: the steps every walk
    /// takes.
    depth: usize,
}

impl TreeArena {
    /// Packs `trees`, in order, into one arena.
    pub(crate) fn new(trees: &[Tree]) -> Self {
        let mut arena = TreeArena {
            nodes: Vec::with_capacity(trees.iter().map(Tree::n_nodes).sum()),
            roots: Vec::with_capacity(trees.len()),
            depth: 0,
        };
        for tree in trees {
            let root = arena.nodes.len() as u32;
            // Children lie after their parent, so one forward pass sees every
            // node's level before its children's.
            let mut level = vec![0usize; tree.nodes.len()];
            for (i, node) in tree.nodes.iter().enumerate() {
                let me = root + i as u32;
                arena.nodes.push(match *node {
                    TreeNode::Leaf { value } => {
                        arena.depth = arena.depth.max(level[i]);
                        PackedNode { value, feature: 0, left: me, right: me }
                    }
                    TreeNode::Split { feature, threshold, left, right } => {
                        for child in [left as usize, right as usize] {
                            level[child] = level[child].max(level[i] + 1);
                        }
                        PackedNode {
                            value: threshold,
                            feature,
                            left: root + left,
                            right: root + right,
                        }
                    }
                });
            }
            arena.roots.push(root);
        }
        arena
    }

    /// Packs trees read from an artifact, rejecting what the walk cannot
    /// serve from rows of `n_features` values: a split on a feature
    /// `>= n_features`, any tree at all when `n_features` is 0, and more
    /// nodes than a `u32` index reaches.
    ///
    /// # Errors
    /// Returns [`crate::error::MlError::Codec`] naming the offending tree.
    pub(crate) fn decode(trees: &[Tree], n_features: usize) -> crate::error::MlResult<Self> {
        use crate::codec as c;
        let total: usize = trees.iter().map(Tree::n_nodes).sum();
        if u32::try_from(total).is_err() {
            return Err(c::codec_err(format!("{total} tree nodes exceed the u32 arena index")));
        }
        if n_features == 0 && !trees.is_empty() {
            return Err(c::codec_err("tree ensemble over 0 features"));
        }
        for (t, tree) in trees.iter().enumerate() {
            for node in &tree.nodes {
                if let TreeNode::Split { feature, .. } = node {
                    if *feature as usize >= n_features {
                        return Err(c::codec_err(format!(
                            "tree {t}: split on feature {feature} of {n_features}"
                        )));
                    }
                }
            }
        }
        Ok(TreeArena::new(trees))
    }

    /// Number of trees.
    pub(crate) fn len(&self) -> usize {
        self.roots.len()
    }

    /// True when the arena holds no tree (an unfitted model).
    pub(crate) fn is_empty(&self) -> bool {
        self.roots.is_empty()
    }

    /// Total node count (splits + leaves) over every tree.
    pub(crate) fn n_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Number of leaves over every tree.
    pub(crate) fn n_leaves(&self) -> usize {
        self.nodes.iter().enumerate().filter(|(i, n)| n.left as usize == *i).count()
    }

    /// Unpacks the trees, in order — what the codec writes, and the
    /// reference walk ([`Tree::predict_row`]) the arena must match.
    pub(crate) fn trees(&self) -> impl Iterator<Item = Tree> + '_ {
        self.roots.iter().enumerate().map(move |(t, &root)| {
            let end = self.roots.get(t + 1).map_or(self.nodes.len(), |&r| r as usize);
            let nodes = self.nodes[root as usize..end]
                .iter()
                .enumerate()
                .map(|(i, n)| {
                    if n.left as usize == root as usize + i {
                        TreeNode::Leaf { value: n.value }
                    } else {
                        TreeNode::Split {
                            feature: n.feature,
                            threshold: n.value,
                            left: n.left - root,
                            right: n.right - root,
                        }
                    }
                })
                .collect();
            Tree { nodes }
        })
    }

    /// The leaf value each tree reaches for `row`, in tree order.
    ///
    /// `row` must hold a value for every feature a split tests (the models
    /// check its width against their training width first).
    pub(crate) fn leaves<'a>(&'a self, row: &'a [f64]) -> Leaves<'a> {
        Leaves { arena: self, row, at: [0; CHUNK], next: 0, len: 0, tree: 0 }
    }
}

/// Iterator over the leaf values a row reaches, in tree order (see
/// [`TreeArena::leaves`]). Each chunk of trees is walked when its first
/// leaf is asked for.
#[derive(Debug)]
pub(crate) struct Leaves<'a> {
    arena: &'a TreeArena,
    row: &'a [f64],
    /// Node each tree of the current chunk has reached.
    at: [u32; CHUNK],
    /// Next tree of the current chunk to yield, and the chunk's length.
    next: usize,
    len: usize,
    /// First tree of the next chunk.
    tree: usize,
}

impl Leaves<'_> {
    /// Walks the next chunk of trees down to their leaves; `false` when no
    /// tree is left.
    fn walk_chunk(&mut self) -> bool {
        let roots = &self.arena.roots[self.tree..];
        let n = roots.len().min(CHUNK);
        if n == 0 {
            return false;
        }
        let (nodes, row) = (&self.arena.nodes, self.row);
        let at = &mut self.at[..n];
        at.copy_from_slice(&roots[..n]);
        for _ in 0..self.arena.depth {
            for a in at.iter_mut() {
                let node = &nodes[*a as usize];
                *a = if row[node.feature as usize] <= node.value { node.left } else { node.right };
            }
        }
        self.tree += n;
        self.next = 0;
        self.len = n;
        true
    }
}

impl Iterator for Leaves<'_> {
    type Item = f64;

    fn next(&mut self) -> Option<f64> {
        if self.next == self.len && !self.walk_chunk() {
            return None;
        }
        let value = self.arena.nodes[self.at[self.next] as usize].value;
        self.next += 1;
        Some(value)
    }
}

/// Growth hyper-parameters shared by the tree learners.
#[derive(Debug, Clone)]
pub struct GrowParams {
    /// Maximum tree depth (root at depth 0).
    pub max_depth: usize,
    /// Minimum examples required to consider splitting a node.
    pub min_samples_split: usize,
    /// Minimum examples each child must keep.
    pub min_samples_leaf: usize,
    /// L2 regularization on leaf values (XGBoost `lambda`; 0 for CART).
    pub lambda: f64,
    /// Minimum gain required to accept a split (XGBoost `gamma`).
    pub gamma: f64,
    /// If set, the number of features sampled per node (Random Forest `mtry`).
    pub feature_subsample: Option<usize>,
}

impl Default for GrowParams {
    fn default() -> Self {
        GrowParams {
            max_depth: 6,
            min_samples_split: 2,
            min_samples_leaf: 1,
            lambda: 0.0,
            gamma: 1e-12,
            feature_subsample: None,
        }
    }
}

struct Grower<'a> {
    binned: &'a BinnedMatrix,
    targets: &'a [f64],
    params: &'a GrowParams,
    nodes: Vec<TreeNode>,
    features: Vec<usize>,
    rng: StdRng,
}

/// Score of a node under the regularized objective: `s² / (n + λ)`.
#[inline]
fn node_score(sum: f64, count: f64, lambda: f64) -> f64 {
    sum * sum / (count + lambda)
}

impl<'a> Grower<'a> {
    fn leaf(&mut self, count: f64, sum: f64) -> u32 {
        let value =
            if count + self.params.lambda > 0.0 { sum / (count + self.params.lambda) } else { 0.0 };
        self.nodes.push(TreeNode::Leaf { value });
        (self.nodes.len() - 1) as u32
    }

    fn grow(&mut self, rows: &mut [u32], depth: usize) -> u32 {
        let n = rows.len();
        let sum: f64 = rows.iter().map(|&r| self.targets[r as usize]).sum();
        if depth >= self.params.max_depth || n < self.params.min_samples_split || n < 2 {
            return self.leaf(n as f64, sum);
        }

        // Feature subset for this node (Random Forest style) or all features.
        // Like scikit-learn, the search does not stop at `mtry` features if
        // none of them admits a valid partition: the remaining features are
        // inspected one by one until a split is found or all are exhausted.
        let best = match self.params.feature_subsample {
            Some(m) if m < self.features.len() => {
                let mut fs = self.features.clone();
                fs.shuffle(&mut self.rng);
                let mut best = self.best_split(rows, &fs[..m], sum);
                let mut next = m;
                while best.is_none() && next < fs.len() {
                    best = self.best_split(rows, &fs[next..next + 1], sum);
                    next += 1;
                }
                best
            }
            _ => self.best_split(rows, &self.features, sum),
        };

        let Some((_, feature, bin)) = best else {
            return self.leaf(n as f64, sum);
        };

        // Partition rows in place: codes <= bin go left.
        let mut lo = 0usize;
        let mut hi = n;
        while lo < hi {
            if self.binned.row_codes(rows[lo] as usize)[feature] as usize <= bin {
                lo += 1;
            } else {
                hi -= 1;
                rows.swap(lo, hi);
            }
        }
        debug_assert!(lo > 0 && lo < n, "split must separate rows");

        let threshold = self.binned.threshold(feature, bin);
        // Reserve the split slot before recursing so the root lands at index 0.
        self.nodes.push(TreeNode::Leaf { value: 0.0 });
        let me = (self.nodes.len() - 1) as u32;
        let (left_rows, right_rows) = rows.split_at_mut(lo);
        let left = self.grow(left_rows, depth + 1);
        let right = self.grow(right_rows, depth + 1);
        self.nodes[me as usize] =
            TreeNode::Split { feature: feature as u32, threshold, left, right };
        me
    }

    /// Best `(gain, feature, bin)` split over `feats`, or `None` when no
    /// split satisfies the leaf-size and `gamma` constraints.
    fn best_split(&self, rows: &[u32], feats: &[usize], sum: f64) -> Option<(f64, usize, usize)> {
        let n = rows.len();
        // Histogram accumulation: (count, target sum) per bin per feature.
        let offsets: Vec<usize> = {
            let mut off = Vec::with_capacity(feats.len());
            let mut acc = 0usize;
            for &f in feats {
                off.push(acc);
                acc += self.binned.n_bins(f);
            }
            off.push(acc);
            off
        };
        let total_bins = *offsets.last().expect("offsets non-empty");
        let mut hist_cnt = vec![0u32; total_bins];
        let mut hist_sum = vec![0.0f64; total_bins];
        for &r in rows.iter() {
            let codes = self.binned.row_codes(r as usize);
            let t = self.targets[r as usize];
            for (fi, &f) in feats.iter().enumerate() {
                let slot = offsets[fi] + codes[f] as usize;
                hist_cnt[slot] += 1;
                hist_sum[slot] += t;
            }
        }

        // Best split search: prefix scan per feature over bin boundaries.
        let lambda = self.params.lambda;
        let parent_score = node_score(sum, n as f64, lambda);
        let min_leaf = self.params.min_samples_leaf as u32;
        let mut best: Option<(f64, usize, usize)> = None; // (gain, feature, bin)
        for (fi, &f) in feats.iter().enumerate() {
            let nbins = self.binned.n_bins(f);
            if nbins < 2 {
                continue;
            }
            let base = offsets[fi];
            let mut left_cnt = 0u32;
            let mut left_sum = 0.0f64;
            for b in 0..nbins - 1 {
                left_cnt += hist_cnt[base + b];
                left_sum += hist_sum[base + b];
                let right_cnt = n as u32 - left_cnt;
                if left_cnt < min_leaf || right_cnt < min_leaf {
                    continue;
                }
                let right_sum = sum - left_sum;
                let gain = 0.5
                    * (node_score(left_sum, left_cnt as f64, lambda)
                        + node_score(right_sum, right_cnt as f64, lambda)
                        - parent_score);
                if gain > self.params.gamma && best.is_none_or(|(bg, _, _)| gain > bg) {
                    best = Some((gain, f, b));
                }
            }
        }
        best
    }
}

/// Grows one tree over `rows` (indices into `binned`/`targets`).
///
/// `seed` controls feature subsampling only; growth is otherwise
/// deterministic.
pub fn grow_tree(
    binned: &BinnedMatrix,
    targets: &[f64],
    rows: &mut [u32],
    params: &GrowParams,
    seed: u64,
) -> Tree {
    use rand::SeedableRng;
    let mut grower = Grower {
        binned,
        targets,
        params,
        nodes: Vec::new(),
        features: (0..binned.cols()).collect(),
        rng: StdRng::seed_from_u64(seed),
    };
    if rows.is_empty() {
        grower.nodes.push(TreeNode::Leaf { value: 0.0 });
    } else {
        grower.grow(rows, 0);
    }
    Tree { nodes: grower.nodes }
}

/// Shared fixtures for the tests that hold each tree learner's arena to
/// the per-tree reference walk.
#[cfg(test)]
pub(crate) mod testing {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    use super::{grow_tree, GrowParams, Tree};
    use crate::binned::BinnedMatrix;
    use crate::error::MlResult;
    use crate::linalg::Matrix;
    use crate::traits::Regressor;

    /// Three features, 200 rows, a nonlinear target.
    pub(crate) fn data() -> (Matrix, Vec<f64>) {
        let mut rng = StdRng::seed_from_u64(5);
        let rows: Vec<Vec<f64>> =
            (0..200).map(|_| (0..3).map(|_| rng.gen::<f64>() * 4.0).collect()).collect();
        let y = rows.iter().map(|r| (r[0] * r[1]).sin() * 10.0 + r[2] * r[2]).collect();
        (Matrix::from_rows(&rows).unwrap(), y)
    }

    /// Nineteen trees over [`data`] (two full chunks and a partial one) of
    /// depths 0 through 6 in no order, single leaves included.
    pub(crate) fn mixed_trees() -> Vec<Tree> {
        let (x, y) = data();
        let binned = BinnedMatrix::from_matrix(&x, 32).unwrap();
        let constant = vec![3.5; y.len()];
        [6, 0, 2, 5, 1, 6, 3, 0, 4, 2, 6, 1, 5, 0, 3, 6, 2, 4, 1]
            .iter()
            .enumerate()
            .map(|(i, &max_depth)| {
                let mut rows: Vec<u32> = (0..x.rows() as u32).collect();
                let params = GrowParams {
                    max_depth,
                    feature_subsample: Some(1 + i % 3),
                    ..GrowParams::default()
                };
                // Every fifth tree fits a constant: a single leaf at any depth.
                let targets = if i % 5 == 4 { &constant } else { &y };
                grow_tree(&binned, targets, &mut rows, &params, i as u64)
            })
            .collect()
    }

    /// The rows of [`data`] plus rows holding NaN and ±∞ in each feature.
    pub(crate) fn probes() -> Vec<Vec<f64>> {
        let (x, _) = data();
        let mut rows: Vec<Vec<f64>> = x.row_iter().map(<[f64]>::to_vec).collect();
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            for f in 0..3 {
                let mut row = vec![1.0, 2.0, 3.0];
                row[f] = bad;
                rows.push(row);
            }
        }
        rows
    }

    /// Asserts that `model` predicts `reference` bit for bit on every probe,
    /// and so does its codec round trip, whose bytes re-save unchanged.
    pub(crate) fn assert_walks_like_reference<M: Regressor>(
        model: &M,
        read: impl Fn(&mut dyn std::io::Read) -> MlResult<M>,
        reference: impl Fn(&M, &[f64]) -> f64,
    ) {
        let mut bytes = Vec::new();
        model.save_params(&mut bytes).unwrap();
        let loaded = read(&mut bytes.as_slice()).unwrap();
        let mut again = Vec::new();
        loaded.save_params(&mut again).unwrap();
        assert_eq!(bytes, again, "codec bytes");
        for m in [model, &loaded] {
            for row in probes() {
                let got = m.predict_row(&row).unwrap();
                assert_eq!(got.to_bits(), reference(m, &row).to_bits(), "row {row:?}");
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::linalg::Matrix;

    fn step_data() -> (Matrix, Vec<f64>) {
        // y = 10 for x < 5, else 20 — one split suffices.
        let rows: Vec<Vec<f64>> = (0..20).map(|i| vec![i as f64]).collect();
        let y: Vec<f64> = (0..20).map(|i| if i < 5 { 10.0 } else { 20.0 }).collect();
        (Matrix::from_rows(&rows).unwrap(), y)
    }

    #[test]
    fn learns_a_step_function_with_one_split() {
        let (x, y) = step_data();
        let binned = BinnedMatrix::from_matrix(&x, 32).unwrap();
        let mut rows: Vec<u32> = (0..20).collect();
        let tree = grow_tree(&binned, &y, &mut rows, &GrowParams::default(), 0);
        assert!((tree.predict_row(&[2.0]) - 10.0).abs() < 1e-9);
        assert!((tree.predict_row(&[10.0]) - 20.0).abs() < 1e-9);
        assert_eq!(tree.n_leaves(), 2, "pure children should not split further");
    }

    #[test]
    fn constant_target_yields_single_leaf() {
        let (x, _) = step_data();
        let y = vec![5.0; 20];
        let binned = BinnedMatrix::from_matrix(&x, 32).unwrap();
        let mut rows: Vec<u32> = (0..20).collect();
        let tree = grow_tree(&binned, &y, &mut rows, &GrowParams::default(), 0);
        assert_eq!(tree.n_nodes(), 1);
        assert!((tree.predict_row(&[0.0]) - 5.0).abs() < 1e-9);
    }

    #[test]
    fn respects_max_depth() {
        let rows_data: Vec<Vec<f64>> = (0..64).map(|i| vec![i as f64]).collect();
        let y: Vec<f64> = (0..64).map(|i| i as f64).collect();
        let x = Matrix::from_rows(&rows_data).unwrap();
        let binned = BinnedMatrix::from_matrix(&x, 64).unwrap();
        let mut rows: Vec<u32> = (0..64).collect();
        let params = GrowParams { max_depth: 2, ..GrowParams::default() };
        let tree = grow_tree(&binned, &y, &mut rows, &params, 0);
        assert!(tree.depth() <= 2);
        assert!(tree.n_leaves() <= 4);
    }

    #[test]
    fn respects_min_samples_leaf() {
        let (x, y) = step_data();
        let binned = BinnedMatrix::from_matrix(&x, 32).unwrap();
        let mut rows: Vec<u32> = (0..20).collect();
        // min leaf of 8 forbids the natural 5/15 split.
        let params = GrowParams { min_samples_leaf: 8, ..GrowParams::default() };
        let tree = grow_tree(&binned, &y, &mut rows, &params, 0);
        fn check(nodes_depth: &Tree, x: &Matrix, rows: &[u32]) {
            // Every leaf region must contain >= 8 training rows.
            let mut counts = std::collections::HashMap::new();
            for &r in rows {
                let mut idx = 0usize;
                loop {
                    match &nodes_depth.nodes[idx] {
                        TreeNode::Leaf { .. } => break,
                        TreeNode::Split { feature, threshold, left, right } => {
                            idx = if x.get(r as usize, *feature as usize) <= *threshold {
                                *left as usize
                            } else {
                                *right as usize
                            };
                        }
                    }
                }
                *counts.entry(idx).or_insert(0usize) += 1;
            }
            for (_, c) in counts {
                assert!(c >= 8);
            }
        }
        let all: Vec<u32> = (0..20).collect();
        check(&tree, &x, &all);
    }

    #[test]
    fn lambda_shrinks_leaf_values() {
        let x = Matrix::from_rows(&[vec![0.0], vec![1.0]]).unwrap();
        let y = vec![10.0, 10.0];
        let binned = BinnedMatrix::from_matrix(&x, 8).unwrap();
        let mut rows: Vec<u32> = vec![0, 1];
        let params = GrowParams { lambda: 2.0, max_depth: 0, ..GrowParams::default() };
        let tree = grow_tree(&binned, &y, &mut rows, &params, 0);
        // leaf = sum / (n + lambda) = 20 / 4 = 5.
        assert!((tree.predict_row(&[0.0]) - 5.0).abs() < 1e-9);
    }

    #[test]
    fn gamma_blocks_weak_splits() {
        let (x, y) = step_data();
        let binned = BinnedMatrix::from_matrix(&x, 32).unwrap();
        let mut rows: Vec<u32> = (0..20).collect();
        let params = GrowParams { gamma: 1e9, ..GrowParams::default() };
        let tree = grow_tree(&binned, &y, &mut rows, &params, 0);
        assert_eq!(tree.n_nodes(), 1, "huge gamma must forbid all splits");
    }

    #[test]
    fn empty_rows_give_zero_leaf() {
        let x = Matrix::from_rows(&[vec![0.0]]).unwrap();
        let binned = BinnedMatrix::from_matrix(&x, 8).unwrap();
        let mut rows: Vec<u32> = vec![];
        let tree = grow_tree(&binned, &[0.0], &mut rows, &GrowParams::default(), 0);
        assert_eq!(tree.predict_row(&[1.0]), 0.0);
    }

    #[test]
    fn arena_leaves_match_the_reference_walk() {
        let trees = testing::mixed_trees();
        let arena = TreeArena::new(&trees);
        assert_eq!(arena.len(), trees.len());
        assert_eq!(arena.n_nodes(), trees.iter().map(Tree::n_nodes).sum::<usize>());
        assert_eq!(arena.n_leaves(), trees.iter().map(Tree::n_leaves).sum::<usize>());
        assert_eq!(arena.depth, trees.iter().map(Tree::depth).max().unwrap());
        let depths: Vec<usize> = trees.iter().map(Tree::depth).collect();
        assert!(depths.contains(&0) && depths.contains(&6), "{depths:?}");
        assert!(trees.iter().any(|t| t.n_nodes() == 1), "a single-leaf tree");
        for row in testing::probes() {
            let walked: Vec<u64> = arena.leaves(&row).map(f64::to_bits).collect();
            let reference: Vec<u64> = trees.iter().map(|t| t.predict_row(&row).to_bits()).collect();
            assert_eq!(walked, reference, "row {row:?}");
        }
        assert_eq!(TreeArena::default().leaves(&[1.0]).count(), 0);
    }

    #[test]
    fn arena_unpacks_to_the_trees_it_packed() {
        let trees = testing::mixed_trees();
        let unpacked: Vec<Tree> = TreeArena::new(&trees).trees().collect();
        assert_eq!(unpacked.len(), trees.len());
        for (a, b) in unpacked.iter().zip(&trees) {
            assert_eq!(a.nodes, b.nodes);
        }
    }

    #[test]
    fn decode_rejects_trees_the_walk_cannot_serve() {
        let trees = testing::mixed_trees();
        assert!(TreeArena::decode(&trees, 3).is_ok());
        assert!(TreeArena::decode(&[], 0).is_ok(), "an unfitted model has no trees");
        for n_features in [0, 2] {
            let err = TreeArena::decode(&trees, n_features).unwrap_err();
            assert!(matches!(err, crate::error::MlError::Codec(_)), "{err}");
        }
    }

    #[test]
    fn feature_subsampling_still_learns() {
        // Two features; only feature 1 is informative. With mtry = 1 some nodes
        // see only feature 0, but depth lets the tree recover.
        let rows_data: Vec<Vec<f64>> = (0..40).map(|i| vec![(i % 3) as f64, i as f64]).collect();
        let y: Vec<f64> = (0..40).map(|i| if i < 20 { 0.0 } else { 100.0 }).collect();
        let x = Matrix::from_rows(&rows_data).unwrap();
        let binned = BinnedMatrix::from_matrix(&x, 32).unwrap();
        let mut rows: Vec<u32> = (0..40).collect();
        let params =
            GrowParams { feature_subsample: Some(1), max_depth: 8, ..GrowParams::default() };
        let tree = grow_tree(&binned, &y, &mut rows, &params, 7);
        let pred_low = tree.predict_row(&[0.0, 5.0]);
        let pred_high = tree.predict_row(&[0.0, 35.0]);
        assert!(pred_low < 50.0 && pred_high > 50.0);
    }
}
