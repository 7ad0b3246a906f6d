//! The model families used in the paper's experiments: multi-layer
//! perceptron (MLP), convolutional neural network (CNN) and a linear
//! softmax model (logistic regression), all built on [`crate::layers`].
//!
//! The XGBoost family lives in `fedval-gbdt`.

use crate::layers::{Conv2d, Dense, DenseRelu, MaxPool2, Relu};
use crate::network::{init_rng, Network};

/// Multi-layer perceptron: `input → hidden₁ → … → classes` with ReLU
/// activations between dense layers.
///
/// Hidden layers use the fused [`DenseRelu`] (bias + activation applied in
/// the matmul write-back) — bit-identical to a `Dense` + `Relu` pair, one
/// fewer traversal and allocation per hidden layer per SGD step.
pub fn mlp(input: usize, hidden: &[usize], classes: usize, seed: u64) -> Network {
    assert!(input > 0 && classes > 0);
    let mut rng = init_rng(seed);
    let mut layers: Vec<Box<dyn crate::layers::Layer>> = Vec::new();
    let mut prev = input;
    for &h in hidden {
        layers.push(Box::new(DenseRelu::new(prev, h, &mut rng)));
        prev = h;
    }
    layers.push(Box::new(Dense::new(prev, classes, &mut rng)));
    Network::new(layers, classes)
}

/// The default MLP of the experiments: one 32-unit hidden layer.
pub fn default_mlp(input: usize, classes: usize, seed: u64) -> Network {
    mlp(input, &[32], classes, seed)
}

/// Convolutional network for `side × side` single-channel images:
/// `conv(1→6, 3×3, pad 1) → ReLU → maxpool2 → conv(6→12, 3×3, pad 1) →
/// ReLU → maxpool2 → dense → classes`.
///
/// Requires `side` divisible by 4 (two pooling stages).
pub fn cnn(side: usize, classes: usize, seed: u64) -> Network {
    assert!(
        side.is_multiple_of(4) && side >= 4,
        "side must be a multiple of 4"
    );
    let mut rng = init_rng(seed);
    let c1 = 6usize;
    let c2 = 12usize;
    let s2 = side / 2;
    let s4 = side / 4;
    let layers: Vec<Box<dyn crate::layers::Layer>> = vec![
        Box::new(Conv2d::new(1, c1, side, side, 3, 1, &mut rng)),
        Box::new(Relu::new(c1 * side * side)),
        Box::new(MaxPool2::new(c1, side, side)),
        Box::new(Conv2d::new(c1, c2, s2, s2, 3, 1, &mut rng)),
        Box::new(Relu::new(c2 * s2 * s2)),
        Box::new(MaxPool2::new(c2, s2, s2)),
        Box::new(Dense::new(c2 * s4 * s4, classes, &mut rng)),
    ];
    Network::new(layers, classes)
}

/// Linear softmax model (multinomial logistic regression).
pub fn linear(input: usize, classes: usize, seed: u64) -> Network {
    let mut rng = init_rng(seed);
    Network::new(
        vec![Box::new(Dense::new(input, classes, &mut rng))],
        classes,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mlp_shapes() {
        let net = mlp(64, &[32, 16], 10, 0);
        assert_eq!(net.in_len(), 64);
        assert_eq!(net.n_classes(), 10);
        // 64·32+32 + 32·16+16 + 16·10+10 = 2080 + 528 + 170.
        assert_eq!(net.param_count(), 2080 + 528 + 170);
    }

    #[test]
    fn cnn_shapes() {
        let net = cnn(8, 10, 0);
        assert_eq!(net.in_len(), 64);
        assert_eq!(net.n_classes(), 10);
        // conv1: 6·1·9+6 = 60; conv2: 12·6·9+12 = 660; dense: 48·10+10 = 490.
        assert_eq!(net.param_count(), 60 + 660 + 490);
    }

    #[test]
    #[should_panic]
    fn cnn_requires_divisible_side() {
        let _ = cnn(10, 10, 0);
    }

    #[test]
    fn linear_shapes() {
        let net = linear(14, 2, 0);
        assert_eq!(net.param_count(), 14 * 2 + 2);
    }

    #[test]
    fn different_seeds_differ() {
        let a = mlp(8, &[4], 2, 1).params();
        let b = mlp(8, &[4], 2, 2).params();
        assert_ne!(a, b);
        // Same seed reproduces.
        let c = mlp(8, &[4], 2, 1).params();
        assert_eq!(a, c);
    }
}
