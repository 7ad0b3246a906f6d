//! Gradient boosting with logistic loss — the XGBoost stand-in used as the
//! FL model for the tabular (Adult-like) experiments of Table V.

use fedval_data::Dataset;

use crate::tree::{BinningSpec, Tree, TreeParams};

/// Hyper-parameters for [`Gbdt::train`].
#[derive(Clone, Copy, Debug)]
pub struct GbdtParams {
    pub n_trees: usize,
    /// Shrinkage `η` applied to each tree's output.
    pub learning_rate: f32,
    pub tree: TreeParams,
    pub n_bins: usize,
}

impl Default for GbdtParams {
    fn default() -> Self {
        GbdtParams {
            n_trees: 20,
            learning_rate: 0.3,
            tree: TreeParams::default(),
            n_bins: 16,
        }
    }
}

/// A trained binary GBDT classifier.
#[derive(Clone, Debug)]
pub struct Gbdt {
    base_score: f32,
    trees: Vec<Tree>,
    learning_rate: f32,
}

impl Gbdt {
    /// Train on a binary classification dataset (`n_classes == 2`).
    ///
    /// Returns a constant-prediction model for empty datasets (the
    /// free-rider case of the scalability experiments).
    pub fn train(data: &Dataset, params: &GbdtParams) -> Self {
        assert_eq!(data.n_classes(), 2, "binary GBDT requires 2 classes");
        let n = data.n_samples();
        if n == 0 {
            return Gbdt {
                base_score: 0.0,
                trees: Vec::new(),
                learning_rate: params.learning_rate,
            };
        }
        // Base score: log-odds of the positive rate, clamped away from ±∞.
        let pos = data.labels().iter().filter(|&&y| y == 1).count() as f64;
        let rate = (pos / n as f64).clamp(1e-6, 1.0 - 1e-6);
        let base_score = (rate / (1.0 - rate)).ln() as f32;

        let binning = BinningSpec::fit(data, params.n_bins);
        let indices: Vec<usize> = (0..n).collect();
        let mut scores = vec![base_score; n];
        let mut grad = vec![0.0f32; n];
        let mut hess = vec![0.0f32; n];
        let mut trees = Vec::with_capacity(params.n_trees);
        for _ in 0..params.n_trees {
            for i in 0..n {
                let p = sigmoid(scores[i]);
                let y = data.label(i) as f32;
                grad[i] = p - y;
                hess[i] = (p * (1.0 - p)).max(1e-6);
            }
            let tree = Tree::fit(data, &grad, &hess, &indices, &binning, &params.tree);
            for (i, s) in scores.iter_mut().enumerate() {
                *s += params.learning_rate * tree.predict_row(data.row(i));
            }
            trees.push(tree);
        }
        Gbdt {
            base_score,
            trees,
            learning_rate: params.learning_rate,
        }
    }

    /// Raw additive score (log-odds) for one row.
    pub fn score_row(&self, row: &[f32]) -> f32 {
        let mut s = self.base_score;
        for tree in &self.trees {
            s += self.learning_rate * tree.predict_row(row);
        }
        s
    }

    /// Probability of the positive class.
    pub fn predict_proba(&self, row: &[f32]) -> f32 {
        sigmoid(self.score_row(row))
    }

    /// Hard class prediction.
    pub fn predict(&self, row: &[f32]) -> u32 {
        u32::from(self.predict_proba(row) >= 0.5)
    }

    /// Classification accuracy on a dataset (the utility `U(·)` for the
    /// XGB rows of Table V).
    pub fn accuracy(&self, data: &Dataset) -> f64 {
        if data.is_empty() {
            return 0.0;
        }
        let correct = (0..data.n_samples())
            .filter(|&i| self.predict(data.row(i)) == data.label(i))
            .count();
        correct as f64 / data.n_samples() as f64
    }

    /// Mean logistic loss on a dataset.
    pub fn log_loss(&self, data: &Dataset) -> f64 {
        if data.is_empty() {
            return 0.0;
        }
        let mut total = 0.0f64;
        for i in 0..data.n_samples() {
            let p = (self.predict_proba(data.row(i)) as f64).clamp(1e-9, 1.0 - 1e-9);
            total -= if data.label(i) == 1 {
                p.ln()
            } else {
                (1.0 - p).ln()
            };
        }
        total / data.n_samples() as f64
    }

    /// Number of fitted trees.
    pub fn n_trees(&self) -> usize {
        self.trees.len()
    }
}

#[inline]
fn sigmoid(x: f32) -> f32 {
    1.0 / (1.0 + (-x).exp())
}

#[cfg(test)]
mod tests {
    use super::*;
    use fedval_data::AdultLike;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn xor_dataset(n: usize, seed: u64) -> Dataset {
        // XOR of two thresholded features — linearly inseparable, so a
        // depth-≥2 tree ensemble is genuinely required.
        let mut rng = StdRng::seed_from_u64(seed);
        let mut ds = Dataset::empty(2, 2);
        for _ in 0..n {
            let a: f32 = rand::Rng::random_range(&mut rng, 0.0..1.0);
            let b: f32 = rand::Rng::random_range(&mut rng, 0.0..1.0);
            let label = u32::from((a > 0.5) != (b > 0.5));
            ds.push(&[a, b], label);
        }
        ds
    }

    #[test]
    fn learns_xor() {
        let train = xor_dataset(400, 1);
        let test = xor_dataset(200, 2);
        let model = Gbdt::train(&train, &GbdtParams::default());
        let acc = model.accuracy(&test);
        assert!(acc > 0.9, "XOR accuracy {acc}");
    }

    #[test]
    fn learns_adult_like() {
        let gen = AdultLike::new(3);
        let mut rng = StdRng::seed_from_u64(4);
        let (train, _) = gen.generate(800, &mut rng);
        let (test, _) = gen.generate(400, &mut rng);
        let model = Gbdt::train(&train, &GbdtParams::default());
        let acc = model.accuracy(&test);
        // Ground truth has ~5% label noise plus intrinsic overlap; anything
        // clearly above the majority class rate demonstrates learning.
        let majority =
            test.class_distribution().into_iter().max().unwrap() as f64 / test.n_samples() as f64;
        assert!(
            acc > majority + 0.05,
            "accuracy {acc} vs majority rate {majority}"
        );
    }

    #[test]
    fn more_trees_reduce_training_loss() {
        let train = xor_dataset(300, 5);
        let short = Gbdt::train(
            &train,
            &GbdtParams {
                n_trees: 2,
                ..Default::default()
            },
        );
        let long = Gbdt::train(
            &train,
            &GbdtParams {
                n_trees: 30,
                ..Default::default()
            },
        );
        assert!(long.log_loss(&train) < short.log_loss(&train));
    }

    #[test]
    fn empty_dataset_gives_constant_model() {
        let empty = Dataset::empty(2, 2);
        let model = Gbdt::train(&empty, &GbdtParams::default());
        assert_eq!(model.n_trees(), 0);
        assert_eq!(model.predict_proba(&[0.3, 0.8]), 0.5);
        assert_eq!(model.accuracy(&empty), 0.0);
    }

    #[test]
    fn single_class_dataset() {
        let mut ds = Dataset::empty(1, 2);
        for i in 0..10 {
            ds.push(&[i as f32], 1);
        }
        let model = Gbdt::train(&ds, &GbdtParams::default());
        assert_eq!(model.predict(&[5.0]), 1);
        assert_eq!(model.accuracy(&ds), 1.0);
    }

    #[test]
    fn deterministic_training() {
        let train = xor_dataset(100, 6);
        let m1 = Gbdt::train(&train, &GbdtParams::default());
        let m2 = Gbdt::train(&train, &GbdtParams::default());
        for row in [[0.2f32, 0.7], [0.9, 0.9], [0.1, 0.1]] {
            assert_eq!(m1.score_row(&row), m2.score_row(&row));
        }
    }
}

/// One-vs-rest multiclass GBDT: one binary [`Gbdt`] per class, predicting
/// the class with the highest positive-class score. Lets the tree family
/// run on the multiclass (MNIST-like) experiments too.
#[derive(Clone, Debug)]
pub struct GbdtMulti {
    models: Vec<Gbdt>,
}

impl GbdtMulti {
    /// Train a one-vs-rest ensemble on a multiclass dataset.
    pub fn train(data: &Dataset, params: &GbdtParams) -> Self {
        let classes = data.n_classes();
        assert!(classes >= 2);
        let models = (0..classes)
            .map(|c| {
                // Relabel: class c → 1, everything else → 0.
                let mut binary = Dataset::empty(data.n_features(), 2);
                for i in 0..data.n_samples() {
                    binary.push(data.row(i), u32::from(data.label(i) == c as u32));
                }
                Gbdt::train(&binary, params)
            })
            .collect();
        GbdtMulti { models }
    }

    /// Predicted class = argmax over per-class scores.
    pub fn predict(&self, row: &[f32]) -> u32 {
        let mut best = 0usize;
        let mut best_score = f32::NEG_INFINITY;
        for (c, model) in self.models.iter().enumerate() {
            let s = model.score_row(row);
            if s > best_score {
                best_score = s;
                best = c;
            }
        }
        best as u32
    }

    /// Classification accuracy on a dataset.
    pub fn accuracy(&self, data: &Dataset) -> f64 {
        if data.is_empty() {
            return 0.0;
        }
        let correct = (0..data.n_samples())
            .filter(|&i| self.predict(data.row(i)) == data.label(i))
            .count();
        correct as f64 / data.n_samples() as f64
    }

    pub fn n_classes(&self) -> usize {
        self.models.len()
    }
}

#[cfg(test)]
mod multi_tests {
    use super::*;
    use fedval_data::MnistLike;

    #[test]
    fn one_vs_rest_learns_multiclass() {
        let gen = MnistLike::new(8);
        let (train, test) = gen.generate_split(400, 200, 9);
        let model = GbdtMulti::train(
            &train,
            &GbdtParams {
                n_trees: 8,
                ..Default::default()
            },
        );
        assert_eq!(model.n_classes(), 10);
        let acc = model.accuracy(&test);
        assert!(acc > 0.5, "multiclass GBDT accuracy {acc} (chance 0.1)");
    }

    #[test]
    fn binary_case_matches_direct_gbdt_ranking() {
        // On a binary problem one-vs-rest should behave like the direct
        // binary model (scores mirror each other).
        let gen = fedval_data::AdultLike::new(10);
        let mut rng = rand::rngs::StdRng::seed_from_u64(11);
        use rand::SeedableRng;
        let (train, _) = gen.generate(600, &mut rng);
        let (test, _) = gen.generate(300, &mut rng);
        let multi = GbdtMulti::train(&train, &GbdtParams::default());
        let single = Gbdt::train(&train, &GbdtParams::default());
        let agree = (0..test.n_samples())
            .filter(|&i| multi.predict(test.row(i)) == single.predict(test.row(i)))
            .count() as f64
            / test.n_samples() as f64;
        assert!(agree > 0.9, "agreement {agree}");
    }

    #[test]
    fn empty_multiclass_dataset() {
        let empty = Dataset::empty(4, 3);
        let model = GbdtMulti::train(&empty, &GbdtParams::default());
        assert_eq!(model.n_classes(), 3);
        assert_eq!(model.accuracy(&empty), 0.0);
    }
}
