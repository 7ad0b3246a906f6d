//! Model specifications: which FL model family an experiment uses.

use fedval_nn::Network;

/// Declarative description of a neural FL model, buildable at any seed.
///
/// The experiments of Sec. V use MLP, CNN and XGBoost models; the first two
/// are parameter-vector models trained with FedAvg (this enum), while
/// XGBoost is non-parametric and handled by
/// [`crate::utility::GbdtUtility`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ModelSpec {
    /// Multi-layer perceptron with the given hidden widths.
    Mlp { hidden: Vec<usize> },
    /// CNN over `side × side` single-channel images (`side % 4 == 0`).
    Cnn { side: usize },
    /// Linear softmax model (multinomial logistic regression).
    Linear,
}

impl ModelSpec {
    /// The experiments' default MLP (one 32-unit hidden layer).
    pub fn default_mlp() -> Self {
        ModelSpec::Mlp { hidden: vec![32] }
    }

    /// Build a fresh network for `input` features and `classes` classes.
    pub fn build(&self, input: usize, classes: usize, seed: u64) -> Network {
        match self {
            ModelSpec::Mlp { hidden } => fedval_nn::mlp(input, hidden, classes, seed),
            ModelSpec::Cnn { side } => {
                assert_eq!(
                    side * side,
                    input,
                    "CNN side {side} inconsistent with {input} input features"
                );
                fedval_nn::cnn(*side, classes, seed)
            }
            ModelSpec::Linear => fedval_nn::linear(input, classes, seed),
        }
    }

    /// Short name used in experiment tables.
    pub fn name(&self) -> &'static str {
        match self {
            ModelSpec::Mlp { .. } => "MLP",
            ModelSpec::Cnn { .. } => "CNN",
            ModelSpec::Linear => "Linear",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builds_each_family() {
        assert_eq!(ModelSpec::default_mlp().build(64, 10, 0).in_len(), 64);
        assert_eq!(ModelSpec::Cnn { side: 8 }.build(64, 10, 0).in_len(), 64);
        assert_eq!(ModelSpec::Linear.build(14, 2, 0).param_count(), 30);
        assert_eq!(ModelSpec::default_mlp().name(), "MLP");
    }

    #[test]
    #[should_panic]
    fn cnn_input_mismatch_panics() {
        let _ = ModelSpec::Cnn { side: 8 }.build(100, 10, 0);
    }
}
