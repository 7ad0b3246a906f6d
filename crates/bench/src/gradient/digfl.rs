//! DIG-FL (Wang et al., ICDE'22): per-round validation-gradient
//! projections — the `O(n)`-evaluation baseline.
//!
//! In each round the first-order effect of client `i`'s update `Δᵢᵗ` on the
//! validation loss is `⟨∇L_val(Mᵗ), Δᵢᵗ⟩`; its positive part is credited as
//! the client's round contribution. Only one gradient per round is
//! computed, so the total work is linear in the number of rounds and
//! clients — the efficiency the paper credits DIG-FL with, at the price of
//! a first-order approximation with no guarantee (Table IV shows its error
//! blowing up on CNNs).

use fedval_data::Dataset;
use fedval_nn::Network;

use crate::gradient::accuracy_gain;
use crate::history::TrainingHistory;

/// Configuration for [`dig_fl`].
#[derive(Clone, Copy, Debug, Default)]
pub struct DigFlConfig {
    /// If true (default false), rescale the result so that it sums to the
    /// overall accuracy gain `U(N) − U(∅)` — DIG-FL's raw projections live
    /// on the loss scale, which is the main source of its large `l2` errors
    /// against accuracy-scale Shapley values in the paper's tables.
    pub normalize_efficiency: bool,
}

/// DIG-FL valuation.
pub fn dig_fl(
    history: &TrainingHistory,
    mut net: Network,
    validation: &Dataset,
    test: &Dataset,
    cfg: &DigFlConfig,
) -> Vec<f64> {
    let n = history.n_clients();
    let mut phi = vec![0.0f64; n];
    for round in 0..history.rounds() {
        net.set_params(history.global_before(round));
        let g_val = net.loss_gradient(validation);
        for (i, phi_i) in phi.iter_mut().enumerate() {
            if let Some(delta) = &history.updates[round][i] {
                // First-order validation-loss decrease caused by Δᵢ.
                let decrease: f64 = -g_val
                    .iter()
                    .zip(delta)
                    .map(|(g, d)| (*g as f64) * (*d as f64))
                    .sum::<f64>();
                *phi_i += decrease.max(0.0);
            }
        }
    }
    if cfg.normalize_efficiency {
        let total: f64 = phi.iter().sum();
        if total > 0.0 {
            let scale = accuracy_gain(history, &mut net, test) / total;
            for v in &mut phi {
                *v *= scale;
            }
        }
    }
    phi
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::history::record_history;
    use fedval_data::{MnistLike, SyntheticSetup};
    use fedval_fl::{FedAvgConfig, ModelSpec};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn setup(n: usize) -> (Vec<Dataset>, Dataset) {
        let gen = MnistLike::new(21);
        let (train, test) = gen.generate_split(60 * n, 100, 22);
        let mut rng = StdRng::seed_from_u64(23);
        let clients = SyntheticSetup::SameSizeSameDist.partition(&train, n, &mut rng);
        (clients, test)
    }

    #[test]
    fn digfl_credits_useful_clients() {
        let (clients, test) = setup(4);
        let spec = ModelSpec::default_mlp();
        let cfg = FedAvgConfig {
            rounds: 3,
            local_epochs: 1,
            ..Default::default()
        };
        let history = record_history(&spec, &clients, 64, 10, &cfg);
        let phi = dig_fl(
            &history,
            spec.build(64, 10, 0),
            &test,
            &test,
            &DigFlConfig::default(),
        );
        assert_eq!(phi.len(), 4);
        // On a learnable IID problem every client's update should roughly
        // align with the validation gradient at least once.
        assert!(phi.iter().sum::<f64>() > 0.0);
        assert!(phi.iter().all(|&v| v >= 0.0));
    }

    #[test]
    fn digfl_gives_zero_to_free_rider() {
        let (mut clients, test) = setup(4);
        clients[2] = Dataset::empty(64, 10);
        let spec = ModelSpec::default_mlp();
        let cfg = FedAvgConfig {
            rounds: 2,
            local_epochs: 1,
            ..Default::default()
        };
        let history = record_history(&spec, &clients, 64, 10, &cfg);
        let phi = dig_fl(
            &history,
            spec.build(64, 10, 0),
            &test,
            &test,
            &DigFlConfig::default(),
        );
        assert_eq!(phi[2], 0.0);
    }

    #[test]
    fn normalization_matches_accuracy_gain() {
        let (clients, test) = setup(3);
        let spec = ModelSpec::default_mlp();
        let cfg = FedAvgConfig {
            rounds: 3,
            local_epochs: 1,
            ..Default::default()
        };
        let history = record_history(&spec, &clients, 64, 10, &cfg);
        let phi = dig_fl(
            &history,
            spec.build(64, 10, 0),
            &test,
            &test,
            &DigFlConfig {
                normalize_efficiency: true,
            },
        );
        let gain = accuracy_gain(&history, &mut spec.build(64, 10, 0), &test);
        let total: f64 = phi.iter().sum();
        assert!((total - gain).abs() < 1e-9, "total {total} vs gain {gain}");
    }
}
