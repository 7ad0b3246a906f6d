//! Regression trees with histogram-based split finding — the building
//! block of gradient boosting, in the style of XGBoost's approximate
//! (histogram) algorithm.

use fedval_data::Dataset;

/// Per-feature binning: uniform-width bins over the observed value range.
///
/// XGBoost's histogram mode quantises features once per training run; with
/// our synthetic tabular data uniform bins behave equivalently to quantile
/// sketches and keep the code simple.
#[derive(Clone, Debug)]
pub struct BinningSpec {
    /// `(min, max)` per feature; degenerate features get `max = min`.
    pub ranges: Vec<(f32, f32)>,
    pub n_bins: usize,
}

impl BinningSpec {
    /// Fit bin ranges on a dataset.
    pub fn fit(data: &Dataset, n_bins: usize) -> Self {
        assert!(n_bins >= 2);
        let d = data.n_features();
        let mut ranges = vec![(f32::INFINITY, f32::NEG_INFINITY); d];
        for i in 0..data.n_samples() {
            for (j, &v) in data.row(i).iter().enumerate() {
                let (lo, hi) = &mut ranges[j];
                *lo = lo.min(v);
                *hi = hi.max(v);
            }
        }
        for r in &mut ranges {
            if !r.0.is_finite() || !r.1.is_finite() {
                *r = (0.0, 0.0);
            }
        }
        BinningSpec { ranges, n_bins }
    }

    /// Bin index of value `v` for feature `j`.
    #[inline]
    pub fn bin(&self, j: usize, v: f32) -> usize {
        let (lo, hi) = self.ranges[j];
        if hi <= lo {
            return 0;
        }
        let t = ((v - lo) / (hi - lo) * self.n_bins as f32) as isize;
        t.clamp(0, self.n_bins as isize - 1) as usize
    }

    /// Numeric threshold corresponding to the upper edge of bin `b` for
    /// feature `j` (samples with `bin ≤ b` go left).
    pub fn threshold(&self, j: usize, b: usize) -> f32 {
        let (lo, hi) = self.ranges[j];
        lo + (hi - lo) * (b + 1) as f32 / self.n_bins as f32
    }
}

/// A node of a regression tree.
#[derive(Clone, Debug)]
pub enum Node {
    Split {
        feature: usize,
        threshold: f32,
        left: usize,
        right: usize,
    },
    Leaf {
        weight: f32,
    },
}

/// Hyper-parameters for a single tree fit.
#[derive(Clone, Copy, Debug)]
pub struct TreeParams {
    pub max_depth: usize,
    /// L2 regularisation `λ` on leaf weights.
    pub lambda: f32,
    /// Minimum gain required to split (XGBoost's `γ`).
    pub min_gain: f32,
    /// Minimum hessian mass per child.
    pub min_child_weight: f32,
}

impl Default for TreeParams {
    fn default() -> Self {
        TreeParams {
            max_depth: 3,
            lambda: 1.0,
            min_gain: 1e-6,
            min_child_weight: 1e-3,
        }
    }
}

/// A fitted regression tree.
#[derive(Clone, Debug)]
pub struct Tree {
    nodes: Vec<Node>,
}

impl Tree {
    /// Fit a tree to gradients/hessians on the given sample indices.
    pub fn fit(
        data: &Dataset,
        grad: &[f32],
        hess: &[f32],
        indices: &[usize],
        binning: &BinningSpec,
        params: &TreeParams,
    ) -> Self {
        assert_eq!(grad.len(), data.n_samples());
        assert_eq!(hess.len(), data.n_samples());
        let mut tree = Tree { nodes: Vec::new() };
        tree.build(data, grad, hess, indices, binning, params, 0);
        tree
    }

    fn leaf_weight(grad_sum: f64, hess_sum: f64, lambda: f32) -> f32 {
        (-grad_sum / (hess_sum + lambda as f64)) as f32
    }

    #[allow(
        clippy::too_many_arguments,
        reason = "recursion carries the whole split context (data, grad/hess, index subset, binning, params, depth); a struct would only rename the argument list"
    )]
    fn build(
        &mut self,
        data: &Dataset,
        grad: &[f32],
        hess: &[f32],
        indices: &[usize],
        binning: &BinningSpec,
        params: &TreeParams,
        depth: usize,
    ) -> usize {
        let g_total: f64 = indices.iter().map(|&i| grad[i] as f64).sum();
        let h_total: f64 = indices.iter().map(|&i| hess[i] as f64).sum();

        let make_leaf = |nodes: &mut Vec<Node>| {
            nodes.push(Node::Leaf {
                weight: Self::leaf_weight(g_total, h_total, params.lambda),
            });
            nodes.len() - 1
        };

        if depth >= params.max_depth || indices.len() < 2 {
            return make_leaf(&mut self.nodes);
        }

        // Histogram accumulation and best-split scan.
        let d = data.n_features();
        let lambda = params.lambda as f64;
        let parent_score = g_total * g_total / (h_total + lambda);
        let mut best: Option<(f64, usize, usize)> = None; // (gain, feature, bin)
        let mut hist_g = vec![0.0f64; binning.n_bins];
        let mut hist_h = vec![0.0f64; binning.n_bins];
        for j in 0..d {
            hist_g.fill(0.0);
            hist_h.fill(0.0);
            for &i in indices {
                let b = binning.bin(j, data.row(i)[j]);
                hist_g[b] += grad[i] as f64;
                hist_h[b] += hess[i] as f64;
            }
            let mut gl = 0.0f64;
            let mut hl = 0.0f64;
            for b in 0..binning.n_bins - 1 {
                gl += hist_g[b];
                hl += hist_h[b];
                let gr = g_total - gl;
                let hr = h_total - hl;
                if hl < params.min_child_weight as f64 || hr < params.min_child_weight as f64 {
                    continue;
                }
                let gain = gl * gl / (hl + lambda) + gr * gr / (hr + lambda) - parent_score;
                if gain > params.min_gain as f64 && best.is_none_or(|(g, _, _)| gain > g) {
                    best = Some((gain, j, b));
                }
            }
        }

        let Some((_, feature, bin)) = best else {
            return make_leaf(&mut self.nodes);
        };
        let threshold = binning.threshold(feature, bin);
        let (left_idx, right_idx): (Vec<usize>, Vec<usize>) = indices
            .iter()
            .partition(|&&i| binning.bin(feature, data.row(i)[feature]) <= bin);
        if left_idx.is_empty() || right_idx.is_empty() {
            return make_leaf(&mut self.nodes);
        }
        // Reserve this node's slot, then build children.
        let me = self.nodes.len();
        self.nodes.push(Node::Leaf { weight: 0.0 }); // placeholder
        let left = self.build(data, grad, hess, &left_idx, binning, params, depth + 1);
        let right = self.build(data, grad, hess, &right_idx, binning, params, depth + 1);
        self.nodes[me] = Node::Split {
            feature,
            threshold,
            left,
            right,
        };
        me
    }

    /// Predict the raw score of one feature row.
    pub fn predict_row(&self, row: &[f32]) -> f32 {
        let mut at = 0usize;
        loop {
            match self.nodes[at] {
                Node::Leaf { weight } => return weight,
                Node::Split {
                    feature,
                    threshold,
                    left,
                    right,
                } => {
                    at = if row[feature] <= threshold {
                        left
                    } else {
                        right
                    };
                }
            }
        }
    }

    /// Number of nodes (diagnostics).
    pub fn n_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Number of leaves.
    pub fn n_leaves(&self) -> usize {
        self.nodes
            .iter()
            .filter(|n| matches!(n, Node::Leaf { .. }))
            .count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn step_data() -> Dataset {
        // y-ish target encoded through gradients: feature < 0.5 → target −1,
        // else +1 (we fit the residual directly with unit hessians).
        let mut ds = Dataset::empty(1, 2);
        for i in 0..20 {
            let x = i as f32 / 19.0;
            ds.push(&[x], u32::from(x >= 0.5));
        }
        ds
    }

    #[test]
    fn binning_covers_range() {
        let ds = step_data();
        let spec = BinningSpec::fit(&ds, 8);
        assert_eq!(spec.ranges.len(), 1);
        assert_eq!(spec.bin(0, 0.0), 0);
        assert_eq!(spec.bin(0, 1.0), 7);
        assert_eq!(spec.bin(0, -5.0), 0, "clamped below");
        assert_eq!(spec.bin(0, 5.0), 7, "clamped above");
    }

    #[test]
    fn degenerate_feature_bins_to_zero() {
        let mut ds = Dataset::empty(1, 2);
        ds.push(&[3.0], 0);
        ds.push(&[3.0], 1);
        let spec = BinningSpec::fit(&ds, 4);
        assert_eq!(spec.bin(0, 3.0), 0);
        assert_eq!(spec.bin(0, 100.0), 0);
    }

    #[test]
    fn tree_fits_step_function() {
        let ds = step_data();
        // Regression target: −1 for class 0, +1 for class 1. With squared
        // loss, grad = pred − target = −target at pred = 0, hess = 1.
        let grad: Vec<f32> = (0..ds.n_samples())
            .map(|i| if ds.label(i) == 1 { -1.0 } else { 1.0 })
            .collect();
        let hess = vec![1.0f32; ds.n_samples()];
        let indices: Vec<usize> = (0..ds.n_samples()).collect();
        let spec = BinningSpec::fit(&ds, 16);
        let tree = Tree::fit(
            &ds,
            &grad,
            &hess,
            &indices,
            &spec,
            &TreeParams {
                lambda: 0.01,
                ..Default::default()
            },
        );
        // The tree should output ≈ +1 on the right half, ≈ −1 on the left.
        assert!(tree.predict_row(&[0.9]) > 0.5);
        assert!(tree.predict_row(&[0.1]) < -0.5);
        assert!(tree.n_leaves() >= 2);
    }

    #[test]
    fn depth_zero_yields_single_leaf() {
        let ds = step_data();
        let grad = vec![1.0f32; ds.n_samples()];
        let hess = vec![1.0f32; ds.n_samples()];
        let indices: Vec<usize> = (0..ds.n_samples()).collect();
        let spec = BinningSpec::fit(&ds, 8);
        let tree = Tree::fit(
            &ds,
            &grad,
            &hess,
            &indices,
            &spec,
            &TreeParams {
                max_depth: 0,
                ..Default::default()
            },
        );
        assert_eq!(tree.n_nodes(), 1);
        // Leaf weight = −ΣG/(ΣH+λ) = −20/21.
        assert!((tree.predict_row(&[0.3]) + 20.0 / 21.0).abs() < 1e-5);
    }

    #[test]
    fn pure_node_does_not_split() {
        // All-identical gradients on an uninformative feature: best gain is
        // ~0 so the tree stays a leaf.
        let mut ds = Dataset::empty(1, 2);
        for _ in 0..10 {
            ds.push(&[1.0], 0);
        }
        let grad = vec![0.5f32; 10];
        let hess = vec![1.0f32; 10];
        let indices: Vec<usize> = (0..10).collect();
        let spec = BinningSpec::fit(&ds, 8);
        let tree = Tree::fit(&ds, &grad, &hess, &indices, &spec, &TreeParams::default());
        assert_eq!(tree.n_nodes(), 1);
    }
}
