//! λ-MR (Wei et al., FL-Privacy-Incentive'20): per-round exact MC-SV over
//! round-reconstructed models, aggregated across rounds with weights λₜ.
//!
//! Within each FL round `t`, the utility of a coalition is the accuracy of
//! the actual global model entering the round plus the coalition's recorded
//! round-`t` updates. The per-round Shapley values are computed exactly
//! (2^n reconstructions per round — which is why λ-MR's time in Table IV
//! grows steeply with both `n` and the round count) and summed with
//! exponential round weights.

use fedval_core::exact::exact_mc_sv;
use fedval_core::utility::CachedUtility;
use fedval_data::Dataset;
use fedval_nn::Network;

use crate::gradient::{ParamEvaluator, RoundUtility};
use crate::history::TrainingHistory;

/// Configuration for [`lambda_mr`].
#[derive(Clone, Copy, Debug)]
pub struct LambdaMrConfig {
    /// Round-weight decay: round `t` (0-based) gets weight `λ^(T−1−t)`
    /// normalised to sum `T·mean` — `λ = 1` weights all rounds equally,
    /// `λ > 1` emphasises later rounds.
    pub lambda: f64,
}

impl Default for LambdaMrConfig {
    fn default() -> Self {
        LambdaMrConfig { lambda: 1.0 }
    }
}

/// λ-MR valuation.
pub fn lambda_mr(
    history: &TrainingHistory,
    net: Network,
    test: Dataset,
    cfg: &LambdaMrConfig,
) -> Vec<f64> {
    let n = history.n_clients();
    let t = history.rounds();
    assert!(n <= 20, "λ-MR enumerates 2^n reconstructions per round");
    assert!(t >= 1);
    let evaluator = ParamEvaluator::new(net, test);

    // Unnormalised weights λ^(T−1−t), rescaled to sum to T. With λ = 1
    // every round gets weight 1 — the plain per-round sum, whose total
    // telescopes to the overall accuracy gain.
    let raw: Vec<f64> = (0..t)
        .map(|r| cfg.lambda.powi((t - 1 - r) as i32))
        .collect();
    let scale = t as f64 / raw.iter().sum::<f64>();

    let mut phi = vec![0.0f64; n];
    for (round, raw_w) in raw.iter().enumerate() {
        let ru = CachedUtility::new(RoundUtility::new(history, round, &evaluator));
        let phi_round = exact_mc_sv(&ru);
        let w = raw_w * scale;
        for (acc, v) in phi.iter_mut().zip(&phi_round) {
            *acc += w * v;
        }
    }
    phi
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gradient::accuracy_gain;
    use crate::history::record_history;
    use fedval_data::{MnistLike, SyntheticSetup};
    use fedval_fl::{FedAvgConfig, ModelSpec};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn setup(n: usize) -> (Vec<Dataset>, Dataset) {
        let gen = MnistLike::new(6);
        let (train, test) = gen.generate_split(60 * n, 100, 7);
        let mut rng = StdRng::seed_from_u64(8);
        let clients = SyntheticSetup::SameSizeSameDist.partition(&train, n, &mut rng);
        (clients, test)
    }

    #[test]
    fn uniform_lambda_telescopes_to_accuracy_gain() {
        let (clients, test) = setup(3);
        let spec = ModelSpec::default_mlp();
        let cfg = FedAvgConfig {
            rounds: 3,
            local_epochs: 1,
            ..Default::default()
        };
        let history = record_history(&spec, &clients, 64, 10, &cfg);
        let phi = lambda_mr(
            &history,
            spec.build(64, 10, 0),
            test.clone(),
            &LambdaMrConfig::default(),
        );
        // Per-round efficiency: Σᵢ ϕᵢᵗ = U_t(N) − U_t(∅) = acc(M^{t+1}) −
        // acc(M^t); with λ = 1 the rounds telescope to the overall gain.
        let gain = accuracy_gain(&history, &mut spec.build(64, 10, 0), &test);
        let total: f64 = phi.iter().sum();
        assert!((total - gain).abs() < 1e-9, "Σϕ = {total} vs gain {gain}");
    }

    #[test]
    fn decay_changes_weighting() {
        let (clients, test) = setup(3);
        let spec = ModelSpec::default_mlp();
        let cfg = FedAvgConfig {
            rounds: 2,
            local_epochs: 1,
            ..Default::default()
        };
        let history = record_history(&spec, &clients, 64, 10, &cfg);
        let a = lambda_mr(
            &history,
            spec.build(64, 10, 0),
            test.clone(),
            &LambdaMrConfig { lambda: 1.0 },
        );
        let b = lambda_mr(
            &history,
            spec.build(64, 10, 0),
            test,
            &LambdaMrConfig { lambda: 4.0 },
        );
        assert_ne!(a, b);
    }
}
