//! Sequential network container: forward/backward across layers, SGD
//! training, accuracy evaluation and flat parameter (de)serialisation.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

use fedval_data::Dataset;

use crate::backend::Backend;
use crate::layers::Layer;
use crate::loss::{argmax_rows, softmax_cross_entropy};

/// A feed-forward classification network (sequence of [`Layer`]s ending in
/// class logits, trained with softmax cross-entropy).
pub struct Network {
    layers: Vec<Box<dyn Layer>>,
    in_len: usize,
    n_classes: usize,
}

impl Network {
    /// Build from layers. Panics if adjacent layer shapes disagree or the
    /// final layer does not emit `n_classes` logits.
    pub fn new(layers: Vec<Box<dyn Layer>>, n_classes: usize) -> Self {
        assert!(!layers.is_empty());
        for pair in layers.windows(2) {
            assert_eq!(
                pair[0].out_len(),
                pair[1].in_len(),
                "layer shape mismatch: {} → {}",
                pair[0].out_len(),
                pair[1].in_len()
            );
        }
        assert_eq!(layers[layers.len() - 1].out_len(), n_classes);
        let in_len = layers[0].in_len();
        Network {
            layers,
            in_len,
            n_classes,
        }
    }

    pub fn in_len(&self) -> usize {
        self.in_len
    }

    pub fn n_classes(&self) -> usize {
        self.n_classes
    }

    /// The layer stack (used by [`crate::lanes::MultiNetwork`] to build its
    /// multi-lane counterpart).
    pub(crate) fn layers(&self) -> &[Box<dyn Layer>] {
        &self.layers
    }

    /// No-op kept for `benchmark/src/traced.rs`; see [`crate::backend`].
    pub fn set_backend(&mut self, _backend: Backend) {}

    /// Forward pass producing logits for a batch of flattened inputs.
    pub fn forward(&mut self, input: &[f32], batch: usize) -> Vec<f32> {
        assert_eq!(input.len(), batch * self.in_len);
        let mut act = input.to_vec();
        for layer in &mut self.layers {
            act = layer.forward(&act, batch);
        }
        act
    }

    /// One SGD step on a batch; returns the batch loss.
    pub fn train_batch(&mut self, input: &[f32], labels: &[u32], lr: f32) -> f32 {
        let batch = labels.len();
        let logits = self.forward(input, batch);
        let (loss, mut grad) = softmax_cross_entropy(&logits, labels, self.n_classes);
        for layer in &mut self.layers {
            layer.zero_grads();
        }
        for layer in self.layers.iter_mut().rev() {
            grad = layer.backward(&grad, batch);
        }
        for layer in &mut self.layers {
            layer.sgd_step(lr);
        }
        loss
    }

    /// Train for `epochs` passes over `data` with mini-batches of
    /// `batch_size`, shuffling each epoch with `rng`. Returns the mean loss
    /// of the final epoch. Empty datasets are a no-op returning 0.
    pub fn train_epochs(
        &mut self,
        data: &Dataset,
        epochs: usize,
        batch_size: usize,
        lr: f32,
        rng: &mut impl Rng,
    ) -> f32 {
        assert!(batch_size >= 1);
        let n = data.n_samples();
        if n == 0 {
            return 0.0;
        }
        assert_eq!(data.n_features(), self.in_len);
        let mut order: Vec<usize> = (0..n).collect();
        let mut last_epoch_loss = 0.0;
        let mut xbuf: Vec<f32> = Vec::with_capacity(batch_size * self.in_len);
        let mut ybuf: Vec<u32> = Vec::with_capacity(batch_size);
        for _ in 0..epochs {
            order.shuffle(rng);
            let mut epoch_loss = 0.0f64;
            let mut batches = 0usize;
            for chunk in order.chunks(batch_size) {
                xbuf.clear();
                ybuf.clear();
                for &i in chunk {
                    xbuf.extend_from_slice(data.row(i));
                    ybuf.push(data.label(i));
                }
                epoch_loss += self.train_batch(&xbuf, &ybuf, lr) as f64;
                batches += 1;
            }
            last_epoch_loss = epoch_loss / batches as f64;
        }
        last_epoch_loss as f32
    }

    /// Predicted classes for a dataset.
    pub fn predict(&mut self, data: &Dataset) -> Vec<u32> {
        let n = data.n_samples();
        let mut preds = Vec::with_capacity(n);
        // Evaluate in modest batches to bound activation memory.
        let bs = 64usize;
        let mut xbuf: Vec<f32> = Vec::with_capacity(bs * self.in_len);
        let mut start = 0;
        while start < n {
            let end = (start + bs).min(n);
            xbuf.clear();
            for i in start..end {
                xbuf.extend_from_slice(data.row(i));
            }
            let logits = self.forward(&xbuf, end - start);
            preds.extend(argmax_rows(&logits, self.n_classes));
            start = end;
        }
        preds
    }

    /// Classification accuracy on `data` (the paper's utility `U(·)`).
    pub fn accuracy(&mut self, data: &Dataset) -> f64 {
        let n = data.n_samples();
        if n == 0 {
            return 0.0;
        }
        let preds = self.predict(data);
        let correct = preds
            .iter()
            .zip(data.labels())
            .filter(|(p, y)| p == y)
            .count();
        correct as f64 / n as f64
    }

    /// Mean cross-entropy loss on `data`.
    pub fn mean_loss(&mut self, data: &Dataset) -> f64 {
        let n = data.n_samples();
        if n == 0 {
            return 0.0;
        }
        let bs = 64usize;
        let mut total = 0.0f64;
        let mut xbuf: Vec<f32> = Vec::new();
        let mut ybuf: Vec<u32> = Vec::new();
        let mut start = 0;
        while start < n {
            let end = (start + bs).min(n);
            xbuf.clear();
            ybuf.clear();
            for i in start..end {
                xbuf.extend_from_slice(data.row(i));
                ybuf.push(data.label(i));
            }
            let logits = self.forward(&xbuf, end - start);
            let (loss, _) = softmax_cross_entropy(&logits, &ybuf, self.n_classes);
            total += loss as f64 * (end - start) as f64;
            start = end;
        }
        total / n as f64
    }

    /// Total number of scalar parameters.
    pub fn param_count(&self) -> usize {
        self.layers.iter().map(|l| l.param_count()).sum()
    }

    /// Flatten all parameters into one vector (FedAvg's aggregation unit).
    pub fn params(&self) -> Vec<f32> {
        let mut out = Vec::with_capacity(self.param_count());
        for layer in &self.layers {
            layer.write_params(&mut out);
        }
        out
    }

    /// Load parameters from a flat vector produced by [`Network::params`].
    pub fn set_params(&mut self, params: &[f32]) {
        assert_eq!(params.len(), self.param_count());
        let mut src = params;
        for layer in &mut self.layers {
            layer.read_params(&mut src);
        }
        debug_assert!(src.is_empty());
    }

    /// Mean per-batch gradient of the loss at the *current* parameters on
    /// `data`, as a flat vector aligned with [`Network::params`] — used by
    /// the DIG-FL baseline (validation-gradient projections).
    pub fn loss_gradient(&mut self, data: &Dataset) -> Vec<f32> {
        let n = data.n_samples();
        assert!(n > 0, "gradient of empty dataset");
        let mut xbuf: Vec<f32> = Vec::with_capacity(n * self.in_len);
        let mut ybuf: Vec<u32> = Vec::with_capacity(n);
        for i in 0..n {
            xbuf.extend_from_slice(data.row(i));
            ybuf.push(data.label(i));
        }
        let logits = self.forward(&xbuf, n);
        let (_, mut grad) = softmax_cross_entropy(&logits, &ybuf, self.n_classes);
        for layer in &mut self.layers {
            layer.zero_grads();
        }
        for layer in self.layers.iter_mut().rev() {
            grad = layer.backward(&grad, n);
        }
        // Extract parameter gradients via the sgd probe: θ' = θ − g at lr 1.
        let before = self.params();
        for layer in &mut self.layers {
            layer.sgd_step(1.0);
        }
        let after = self.params();
        self.set_params(&before);
        before.iter().zip(&after).map(|(b, a)| b - a).collect()
    }
}

/// Deterministic RNG for model initialisation, derived from a seed.
pub fn init_rng(seed: u64) -> StdRng {
    StdRng::seed_from_u64(seed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::{Dense, Relu};
    use crate::models;
    use fedval_data::MnistLike;

    fn toy_network(seed: u64) -> Network {
        let mut rng = init_rng(seed);
        Network::new(
            vec![
                Box::new(Dense::new(4, 8, &mut rng)),
                Box::new(Relu::new(8)),
                Box::new(Dense::new(8, 3, &mut rng)),
            ],
            3,
        )
    }

    fn blob_dataset(n: usize, seed: u64) -> Dataset {
        // Three well-separated Gaussian blobs in 4-D.
        let mut rng = init_rng(seed);
        let mut ds = Dataset::empty(4, 3);
        let centers = [
            [2.0f32, 0.0, 0.0, 0.0],
            [0.0, 2.0, 0.0, 0.0],
            [0.0, 0.0, 2.0, 0.0],
        ];
        for i in 0..n {
            let c = i % 3;
            let row: Vec<f32> = centers[c]
                .iter()
                .map(|&m| m + fedval_data::rand_ext::normal_f32(&mut rng, 0.0, 0.35))
                .collect();
            ds.push(&row, c as u32);
        }
        ds
    }

    #[test]
    fn network_learns_separable_blobs() {
        let mut net = toy_network(0);
        let train = blob_dataset(300, 1);
        let test = blob_dataset(90, 2);
        let before = net.accuracy(&test);
        let mut rng = init_rng(3);
        net.train_epochs(&train, 30, 16, 0.1, &mut rng);
        let after = net.accuracy(&test);
        assert!(
            after > 0.9 && after > before,
            "accuracy before {before}, after {after}"
        );
    }

    #[test]
    fn training_reduces_loss() {
        let mut net = toy_network(4);
        let train = blob_dataset(200, 5);
        let initial = net.mean_loss(&train);
        let mut rng = init_rng(6);
        net.train_epochs(&train, 10, 16, 0.1, &mut rng);
        let trained = net.mean_loss(&train);
        assert!(trained < initial, "loss {initial} → {trained}");
    }

    #[test]
    fn params_round_trip_preserves_behaviour() {
        let mut net = toy_network(7);
        let data = blob_dataset(50, 8);
        let mut rng = init_rng(9);
        net.train_epochs(&data, 3, 8, 0.1, &mut rng);
        let params = net.params();
        assert_eq!(params.len(), net.param_count());
        let preds_before = net.predict(&data);
        let mut net2 = toy_network(999); // different init
        net2.set_params(&params);
        assert_eq!(net2.predict(&data), preds_before);
    }

    #[test]
    fn deterministic_training_given_seeds() {
        let train = blob_dataset(100, 10);
        let run = || {
            let mut net = toy_network(11);
            let mut rng = init_rng(12);
            net.train_epochs(&train, 5, 16, 0.1, &mut rng);
            net.params()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn empty_dataset_is_noop() {
        let mut net = toy_network(13);
        let empty = Dataset::empty(4, 3);
        let before = net.params();
        let mut rng = init_rng(14);
        let loss = net.train_epochs(&empty, 5, 8, 0.1, &mut rng);
        assert_eq!(loss, 0.0);
        assert_eq!(net.params(), before);
        assert_eq!(net.accuracy(&empty), 0.0);
    }

    #[test]
    fn loss_gradient_points_downhill() {
        let mut net = toy_network(15);
        let data = blob_dataset(60, 16);
        let l0 = net.mean_loss(&data);
        let grad = net.loss_gradient(&data);
        assert_eq!(grad.len(), net.param_count());
        // Take a small step against the gradient: loss must decrease.
        let params = net.params();
        let stepped: Vec<f32> = params
            .iter()
            .zip(&grad)
            .map(|(p, g)| p - 0.05 * g)
            .collect();
        net.set_params(&stepped);
        let l1 = net.mean_loss(&data);
        assert!(l1 < l0, "loss {l0} → {l1}");
    }

    #[test]
    fn cnn_trains_on_mnist_like() {
        // End-to-end: a small CNN should beat chance on MNIST-like data.
        let gen = MnistLike::new(17);
        let (train, test) = gen.generate_split(240, 120, 18);
        let mut net = models::cnn(8, 10, 19);
        let mut rng = init_rng(20);
        net.train_epochs(&train, 8, 16, 0.08, &mut rng);
        let acc = net.accuracy(&test);
        assert!(acc > 0.5, "CNN accuracy {acc} (chance = 0.1)");
    }
}
