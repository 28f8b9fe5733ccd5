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
/// children lie strictly after it in the arena, and every node but the root
/// is the child of exactly one split.
///
/// This is the grower's output and the codec's unit. The fitted tree
/// learners serve from one packed arena per model instead, which must
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

    /// Deserializes a tree written by [`Tree::write_to`], validating the
    /// invariants the grower maintains and the serving index relies on:
    /// every split's children point strictly forward in the arena (so no
    /// walk loops forever), every node but the root is reached from it
    /// exactly once (so each leaf sits in one place left to right), and no
    /// threshold is NaN (so thresholds sorted by value split a feature's
    /// tests into those a row fails and those it passes).
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
        // How often each node is some split's child.
        let mut parents = vec![0u8; n];
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
                    if threshold.is_nan() {
                        return Err(c::codec_err(format!("tree node {i}: NaN split threshold")));
                    }
                    for child in [left, right] {
                        parents[child as usize] = parents[child as usize].saturating_add(1);
                    }
                    nodes.push(TreeNode::Split { feature, threshold, left, right });
                }
                other => return Err(c::codec_err(format!("invalid tree node tag {other}"))),
            }
        }
        // Children lie after their parent, so the root is nobody's child,
        // and a node with exactly one parent is reached exactly once.
        if let Some(i) = parents.iter().skip(1).position(|&p| p != 1) {
            let (i, p) = (i + 1, parents[i + 1]);
            return Err(c::codec_err(format!(
                "tree node {i}: reached {p} times from the root, not once"
            )));
        }
        Ok(Tree { nodes })
    }

    /// Maximum depth (root = depth 0). One forward pass over the arena,
    /// with no recursion, so a deep tree read from a file cannot overflow
    /// the stack.
    pub fn depth(&self) -> usize {
        let mut level = vec![0usize; self.nodes.len()];
        let mut depth = 0;
        for (i, node) in self.nodes.iter().enumerate() {
            depth = depth.max(level[i]);
            if let TreeNode::Split { left, right, .. } = *node {
                level[left as usize] = level[i] + 1;
                level[right as usize] = level[i] + 1;
            }
        }
        depth
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

/// Trees walked together per chunk by the level walk: independent node
/// loads the CPU can overlap.
const CHUNK: usize = 8;

/// Most leaves a tree may have for the feature-major index: one bit per
/// leaf in a `u64`.
const MAX_INDEXED_LEAVES: usize = 64;

/// Trees scored together by the feature-major index: one `u64` per tree of
/// a block lives on the stack while a row is scored.
const BLOCK: usize = 128;
const _: () = assert!(BLOCK <= 1 << u8::BITS, "a tree's place in its block is a u8");

/// The trees of an ensemble packed into one flat node array — the serving
/// form of [`DecisionTree`](crate::tree::DecisionTree),
/// [`RandomForest`](crate::forest::RandomForest) and
/// [`GradientBoosting`](crate::gbdt::GradientBoosting).
///
/// [`TreeArena::fold_leaves`] finds the leaf each tree reaches by one of two
/// paths, both bit-identical to [`Tree::predict_row`]:
///
/// - **Feature-major index** (QuickScorer; Lucchese et al., SIGIR 2015),
///   built when every tree has at most 64 leaves — the boosted trees at
///   their default depth of 6 and below. For each feature the index lists
///   every split on it as (threshold, tree, leaf mask), sorted by
///   threshold. Scoring keeps one `u64` per tree, a bit per leaf left to
///   right, and scans each feature's splits only while the row goes right
///   (`!(row[f] <= threshold)`), clearing the leaves of each such split's
///   left subtree. The leftmost leaf left standing is the one the walk
///   reaches. A window histogram is mostly zeros, and a zero goes left at
///   the first split of most features, so most features cost one compare.
///   The bound is the width of the mask: a tree of 65 leaves would need a
///   second word per tree and a second scan of the mask.
/// - **Level walk** for ensembles with a deeper tree (random forests and
///   single trees at `max_depth` 10): eight trees at a time, level by
///   level, for exactly `depth` steps. Leaves loop to themselves, so a
///   shallow tree simply stays on its leaf, and no step depends on the data
///   for when to stop.
///
/// The packed nodes are the same nodes as the trees it was built from (the
/// node count behind `footprint_bytes` is unchanged) and unpack back into
/// them for the codec ([`TreeArena::trees`]); the index is derived from
/// them at fit and at decode. It adds about 17 bytes per split and 8 per leaf,
/// which `footprint_bytes`, a count of the model's parameters, leaves out.
#[derive(Debug, Clone, Default)]
pub(crate) struct TreeArena {
    nodes: Vec<PackedNode>,
    /// Arena index of each tree's root, in tree order.
    roots: Vec<u32>,
    /// Deepest root-to-leaf path over every tree: the steps every walk
    /// takes.
    depth: usize,
    /// The feature-major index, when every tree has at most
    /// [`MAX_INDEXED_LEAVES`] leaves and no threshold is NaN.
    index: Option<FeatureIndex>,
}

impl TreeArena {
    /// Packs `trees`, in order, into one arena.
    pub(crate) fn new(trees: &[Tree]) -> Self {
        let mut arena = TreeArena {
            nodes: Vec::with_capacity(trees.iter().map(Tree::n_nodes).sum()),
            roots: Vec::with_capacity(trees.len()),
            depth: 0,
            index: None,
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
        // A NaN threshold sends every row right, so it has no place among
        // sorted thresholds. The codec rejects one; the grower splits on a
        // NaN cut (from a feature whose only values are -inf and +inf) only
        // when `gamma < 0` and `min_samples_leaf == 0` admit a split that
        // sends every row one way.
        let nan_threshold = trees
            .iter()
            .flat_map(|t| &t.nodes)
            .any(|n| matches!(n, TreeNode::Split { threshold, .. } if threshold.is_nan()));
        if !nan_threshold && trees.iter().all(|t| t.n_leaves() <= MAX_INDEXED_LEAVES) {
            arena.index = Some(FeatureIndex::new(trees));
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

    /// Folds `f` over the leaf value each tree reaches for `row`, in tree
    /// order, starting from `init` — `Iterator::fold` over the trees'
    /// [`Tree::predict_row`], bit for bit.
    ///
    /// `row` must hold a value for every feature a split tests (the models
    /// check its width against their training width first).
    pub(crate) fn fold_leaves<B>(&self, row: &[f64], init: B, mut f: impl FnMut(B, f64) -> B) -> B {
        let mut acc = init;
        if let Some(index) = &self.index {
            for block in 0..self.len().div_ceil(BLOCK) {
                acc = index.fold_block(block, row, acc, &mut f);
            }
            return acc;
        }
        let mut at = [0u32; CHUNK];
        for roots in self.roots.chunks(CHUNK) {
            let at = &mut at[..roots.len()];
            at.copy_from_slice(roots);
            for _ in 0..self.depth {
                for a in at.iter_mut() {
                    let node = &self.nodes[*a as usize];
                    *a = if row[node.feature as usize] <= node.value {
                        node.left
                    } else {
                        node.right
                    };
                }
            }
            for &a in at.iter() {
                acc = f(acc, self.nodes[a as usize].value);
            }
        }
        acc
    }
}

/// The feature-major index of a [`TreeArena`] whose trees have at most
/// [`MAX_INDEXED_LEAVES`] leaves each. Trees are grouped in blocks of
/// [`BLOCK`]; within a block, each feature's splits are one run of entries
/// in ascending threshold order.
#[derive(Debug, Clone)]
struct FeatureIndex {
    /// Features the index covers: one past the highest feature any split
    /// tests.
    n_features: usize,
    /// Entries of block `b` on feature `f`:
    /// `starts[b * n_features + f]..starts[b * n_features + f + 1]`.
    starts: Vec<u32>,
    /// Each entry's split threshold.
    thresholds: Vec<f64>,
    /// Each entry's tree, counted from the first tree of its block.
    trees: Vec<u8>,
    /// Each entry's leaf mask: every bit set but those of the leaves in the
    /// split's left subtree, which a row going right cannot reach.
    masks: Vec<u64>,
    /// Every tree's leaf values, left to right, tree after tree.
    leaf_values: Vec<f64>,
    /// Position in `leaf_values` of each tree's leftmost leaf.
    leaf_starts: Vec<u32>,
}

impl FeatureIndex {
    /// Indexes `trees`, each of at most [`MAX_INDEXED_LEAVES`] leaves, none
    /// with a NaN threshold, every node reached once from its root.
    fn new(trees: &[Tree]) -> Self {
        // (block · n_features + feature, threshold, tree in block, mask)
        let mut entries: Vec<(usize, f64, u8, u64)> = Vec::new();
        let mut leaf_values = Vec::new();
        let mut leaf_starts = Vec::with_capacity(trees.len());
        let n_features = trees
            .iter()
            .flat_map(|t| &t.nodes)
            .filter_map(|n| match n {
                TreeNode::Split { feature, .. } => Some(*feature as usize + 1),
                TreeNode::Leaf { .. } => None,
            })
            .max()
            .unwrap_or(0);
        for (t, tree) in trees.iter().enumerate() {
            let start = leaf_values.len();
            leaf_starts.push(start as u32);
            // A preorder walk (explicit stack, left child first) meets the
            // leaves left to right. `first[i]` is the rank of the leftmost
            // leaf under node `i`, so a split's left subtree holds the
            // leaves ranked from its left child's first to its right
            // child's first.
            let mut first = vec![0u32; tree.nodes.len()];
            let mut stack = vec![0u32];
            while let Some(i) = stack.pop() {
                first[i as usize] = (leaf_values.len() - start) as u32;
                match tree.nodes[i as usize] {
                    TreeNode::Leaf { value } => leaf_values.push(value),
                    TreeNode::Split { left, right, .. } => stack.extend([right, left]),
                }
            }
            for node in &tree.nodes {
                if let TreeNode::Split { feature, threshold, left, right } = *node {
                    let (lo, hi) = (first[left as usize], first[right as usize]);
                    // `hi - lo` is at most 63: the right subtree keeps a leaf.
                    let mask = !(((1u64 << (hi - lo)) - 1) << lo);
                    let key = (t / BLOCK) * n_features + feature as usize;
                    entries.push((key, threshold, (t % BLOCK) as u8, mask));
                }
            }
        }
        // -0.0 sorts before 0.0 but tests the same, so any order of equal
        // thresholds keeps the failing splits of a feature in front.
        entries.sort_by(|a, b| a.0.cmp(&b.0).then(a.1.total_cmp(&b.1)));
        let n_keys = trees.len().div_ceil(BLOCK) * n_features;
        let starts =
            (0..=n_keys).map(|key| entries.partition_point(|e| e.0 < key) as u32).collect();
        FeatureIndex {
            n_features,
            starts,
            thresholds: entries.iter().map(|e| e.1).collect(),
            trees: entries.iter().map(|e| e.2).collect(),
            masks: entries.iter().map(|e| e.3).collect(),
            leaf_values,
            leaf_starts,
        }
    }

    /// Folds `f` over the exit leaves of block `block`'s trees, in tree
    /// order.
    fn fold_block<B>(
        &self,
        block: usize,
        row: &[f64],
        mut acc: B,
        f: &mut impl FnMut(B, f64) -> B,
    ) -> B {
        let mut alive = [u64::MAX; BLOCK];
        let nf = self.n_features;
        let starts = &self.starts[block * nf..=(block + 1) * nf];
        for (&x, span) in row[..nf].iter().zip(starts.windows(2)) {
            let span = span[0] as usize..span[1] as usize;
            let thresholds = &self.thresholds[span.clone()];
            for ((&threshold, &tree), &mask) in
                thresholds.iter().zip(&self.trees[span.clone()]).zip(&self.masks[span])
            {
                if x <= threshold {
                    break;
                }
                alive[tree as usize] &= mask;
            }
        }
        let trees =
            &self.leaf_starts[block * BLOCK..self.leaf_starts.len().min((block + 1) * BLOCK)];
        for (&start, &leaves) in trees.iter().zip(&alive) {
            // A tree's rightmost leaf is in no split's left subtree, so
            // some bit is always left.
            acc = f(acc, self.leaf_values[start as usize + leaves.trailing_zeros() as usize]);
        }
        acc
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

    use super::{grow_tree, GrowParams, Tree, TreeNode};
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

    /// Thresholds of the hand-built trees; [`probes`] holds each of them.
    const HAND_THRESHOLDS: [f64; 9] = [-0.0, 0.0, 0.5, 1.0, 1.25, 2.0, 2.5, 3.0, 3.75];

    fn split(i: usize, left: usize, right: usize) -> TreeNode {
        TreeNode::Split {
            feature: (i % 3) as u32,
            threshold: HAND_THRESHOLDS[i % HAND_THRESHOLDS.len()],
            left: left as u32,
            right: right as u32,
        }
    }

    fn leaf(i: usize) -> TreeNode {
        // Some leaves are -0.0, whose sign a sum starting from +0.0 loses.
        TreeNode::Leaf { value: if i % 16 == 7 { -0.0 } else { i as f64 * 0.37 - 5.0 } }
    }

    /// A full tree of `2^depth` leaves laid out level by level (node `i`'s
    /// children are `2i + 1` and `2i + 2`), not in the grower's preorder.
    fn full_tree(depth: u32) -> Tree {
        let splits = (1usize << depth) - 1;
        let nodes = (0..2 * splits + 1)
            .map(|i| if i < splits { split(i, 2 * i + 1, 2 * i + 2) } else { leaf(i) })
            .collect();
        Tree { nodes }
    }

    /// A one-sided chain of `len` splits: each split's left child is a leaf
    /// (`left_leaves`), or else its right child is.
    fn chain(len: usize, left_leaves: bool) -> Tree {
        let mut nodes = Vec::with_capacity(2 * len + 1);
        for k in 0..len {
            // Node `2k + 1` is a leaf; the chain goes on at `2k + 2`.
            let (end, next) = (2 * k + 1, 2 * k + 2);
            nodes.push(if left_leaves { split(k, end, next) } else { split(k, next, end) });
            nodes.push(leaf(end));
        }
        nodes.push(leaf(2 * len));
        Tree { nodes }
    }

    /// Twenty-three trees of at most 64 leaves each (the feature-major
    /// index serves them): nineteen grown over [`data`] of depths 0 through
    /// 6 in no order, single leaves included (two full chunks of the level
    /// walk and a partial one), a hand-built full tree of exactly 64 leaves
    /// in level order, and one-sided chains of 20 splits either way.
    pub(crate) fn mixed_trees() -> Vec<Tree> {
        let (x, y) = data();
        let binned = BinnedMatrix::from_matrix(&x, 32).unwrap();
        let constant = vec![3.5; y.len()];
        let mut trees: Vec<Tree> = [6, 0, 2, 5, 1, 6, 3, 0, 4, 2, 6, 1, 5, 0, 3, 6, 2, 4, 1]
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
            .collect();
        trees.insert(3, full_tree(6));
        trees.insert(11, chain(20, true));
        trees.push(chain(20, false));
        trees
    }

    /// [`mixed_trees`] with a tree of 65 leaves among them: too wide for
    /// the index, so the whole ensemble takes the level walk.
    pub(crate) fn wide_trees() -> Vec<Tree> {
        let mut wide = full_tree(6);
        // Split the last leaf in two: 65 leaves, depth 7.
        let last = wide.nodes.len() - 1;
        wide.nodes[last] = split(last, last + 1, last + 2);
        wide.nodes.extend([leaf(last + 1), leaf(last + 2)]);
        let mut trees = mixed_trees();
        trees.insert(5, wide);
        trees
    }

    /// Three single leaves of -0.0: a sum of them that starts from +0.0
    /// comes out +0.0.
    pub(crate) fn negative_zero_trees() -> Vec<Tree> {
        vec![Tree { nodes: vec![leaf(7)] }; 3]
    }

    /// The rows of [`data`]; rows holding NaN, ±∞ and ±0.0 in each feature;
    /// and rows equal to a threshold in one feature, for every threshold of
    /// the hand-built trees and every midpoint between neighbouring values
    /// of a [`data`] column, which covers every cut the grower picks there.
    pub(crate) fn probes() -> Vec<Vec<f64>> {
        let (x, _) = data();
        let mut rows: Vec<Vec<f64>> = x.row_iter().map(<[f64]>::to_vec).collect();
        for f in 0..3 {
            let mut col = x.column(f);
            col.sort_by(f64::total_cmp);
            col.dedup();
            let mids = col.windows(2).map(|w| (w[0] + w[1]) / 2.0);
            let specials = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -0.0, 0.0];
            for v in specials.into_iter().chain(HAND_THRESHOLDS).chain(mids) {
                let mut row = vec![1.0, 2.0, 3.0];
                row[f] = v;
                rows.push(row);
            }
        }
        for v in HAND_THRESHOLDS {
            rows.push(vec![v; 3]);
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

    fn leaves_of(arena: &TreeArena, row: &[f64]) -> Vec<u64> {
        arena.fold_leaves(row, Vec::new(), |mut v, leaf| {
            v.push(leaf.to_bits());
            v
        })
    }

    #[test]
    fn arena_leaves_match_the_reference_walk() {
        for (trees, indexed) in [(testing::mixed_trees(), true), (testing::wide_trees(), false)] {
            let arena = TreeArena::new(&trees);
            assert_eq!(arena.index.is_some(), indexed);
            let leaves: Vec<usize> = trees.iter().map(Tree::n_leaves).collect();
            assert_eq!(leaves.iter().max(), Some(&if indexed { 64 } else { 65 }), "{leaves:?}");
            assert_eq!(arena.len(), trees.len());
            assert_eq!(arena.n_nodes(), trees.iter().map(Tree::n_nodes).sum::<usize>());
            assert_eq!(arena.n_leaves(), leaves.iter().sum::<usize>());
            assert_eq!(arena.depth, trees.iter().map(Tree::depth).max().unwrap());
            let depths: Vec<usize> = trees.iter().map(Tree::depth).collect();
            assert!(depths.contains(&0) && depths.contains(&6), "{depths:?}");
            assert!(depths.contains(&20), "a chain: {depths:?}");
            assert!(trees.iter().any(|t| t.n_nodes() == 1), "a single-leaf tree");
            // The same trees through the level walk alone.
            let walk = TreeArena { index: None, ..arena.clone() };
            for row in testing::probes() {
                let reference: Vec<u64> =
                    trees.iter().map(|t| t.predict_row(&row).to_bits()).collect();
                assert_eq!(leaves_of(&arena, &row), reference, "row {row:?}");
                assert_eq!(leaves_of(&walk, &row), reference, "walk, row {row:?}");
            }
        }
        assert!(leaves_of(&TreeArena::default(), &[1.0]).is_empty());
    }

    #[test]
    fn the_index_spans_blocks_of_trees() {
        // 300 trees: two full blocks and a partial one.
        let trees: Vec<Tree> = testing::mixed_trees().into_iter().cycle().take(300).collect();
        let arena = TreeArena::new(&trees);
        let index = arena.index.as_ref().expect("every tree has at most 64 leaves");
        assert_eq!(index.starts.len(), 3 * index.n_features + 1);
        for row in testing::probes() {
            let reference: Vec<u64> = trees.iter().map(|t| t.predict_row(&row).to_bits()).collect();
            assert_eq!(leaves_of(&arena, &row), reference, "row {row:?}");
        }
    }

    #[test]
    fn a_nan_threshold_keeps_a_tree_off_the_index() {
        let mut trees = testing::mixed_trees();
        trees[0].nodes[0] = TreeNode::Split { feature: 0, threshold: f64::NAN, left: 1, right: 2 };
        trees[0].nodes.truncate(3);
        trees[0].nodes[1..].fill(TreeNode::Leaf { value: 1.0 });
        let arena = TreeArena::new(&trees);
        assert!(arena.index.is_none());
        for row in testing::probes() {
            let reference: Vec<u64> = trees.iter().map(|t| t.predict_row(&row).to_bits()).collect();
            assert_eq!(leaves_of(&arena, &row), reference, "row {row:?}");
        }
    }

    #[test]
    fn arena_unpacks_to_the_trees_it_packed() {
        let trees = testing::wide_trees();
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

    /// A node for [`tree_bytes`]: `Ok(value)` is a leaf,
    /// `Err((threshold, left, right))` a split on feature 0.
    type RawNode = Result<f64, (f64, u32, u32)>;

    /// Bytes of a tree in [`Tree::write_to`]'s format.
    fn tree_bytes(nodes: &[RawNode]) -> Vec<u8> {
        use crate::codec as c;
        let mut w = Vec::new();
        c::write_usize(&mut w, nodes.len()).unwrap();
        for node in nodes {
            match *node {
                Ok(value) => {
                    c::write_u8(&mut w, 0).unwrap();
                    c::write_f64(&mut w, value).unwrap();
                }
                Err((threshold, left, right)) => {
                    c::write_u8(&mut w, 1).unwrap();
                    c::write_u32(&mut w, 0).unwrap();
                    c::write_f64(&mut w, threshold).unwrap();
                    c::write_u32(&mut w, left).unwrap();
                    c::write_u32(&mut w, right).unwrap();
                }
            }
        }
        w
    }

    #[test]
    fn read_from_rejects_nan_thresholds_and_nodes_not_reached_once() {
        let read = |nodes: &[RawNode]| Tree::read_from(&mut tree_bytes(nodes).as_slice());
        let good = read(&[Err((0.5, 1, 2)), Ok(1.0), Ok(2.0)]).unwrap();
        assert_eq!(good.predict_row(&[0.5]), 1.0);
        let bad: [&[RawNode]; 5] = [
            // A NaN threshold.
            &[Err((f64::NAN, 1, 2)), Ok(1.0), Ok(2.0)],
            // Both children the same node: reached twice.
            &[Err((0.5, 1, 1)), Ok(1.0), Ok(2.0)],
            // Node 2 unreached.
            &[Err((0.5, 1, 3)), Ok(1.0), Ok(2.0), Ok(3.0)],
            // Two splits sharing their children: nodes 3 and 4 reached twice.
            &[Err((0.5, 1, 2)), Err((0.2, 3, 4)), Err((0.7, 3, 4)), Ok(1.0), Ok(2.0)],
            // A leaf root followed by an unreached leaf.
            &[Ok(1.0), Ok(2.0)],
        ];
        for nodes in bad {
            let err = read(nodes).unwrap_err();
            assert!(matches!(err, crate::error::MlError::Codec(_)), "{nodes:?}: {err}");
        }
    }

    #[test]
    fn a_deep_chain_reads_and_measures_without_recursion() {
        // 200,000 levels would overflow a test thread's stack at one frame
        // per level.
        let levels = 200_000u32;
        let mut nodes = Vec::with_capacity(2 * levels as usize + 1);
        for k in 0..levels {
            nodes.push(Err((k as f64, 2 * k + 1, 2 * k + 2)));
            nodes.push(Ok(k as f64));
        }
        nodes.push(Ok(-1.0));
        let tree = Tree::read_from(&mut tree_bytes(&nodes).as_slice()).unwrap();
        assert_eq!(tree.depth(), levels as usize);
        assert_eq!(tree.predict_row(&[3.0]), 3.0);
        let arena = TreeArena::decode(std::slice::from_ref(&tree), 1).unwrap();
        assert!(arena.index.is_none(), "too many leaves for the index");
        assert_eq!(leaves_of(&arena, &[3.0]), vec![3.0f64.to_bits()]);
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
