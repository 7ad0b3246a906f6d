//! GTG-Shapley (Liu et al., TIST'22): guided truncated gradient Shapley.
//!
//! Combines gradient-based model reconstruction with Monte-Carlo
//! permutation sampling and two levels of truncation:
//!
//! * **between-round truncation** — rounds whose global model barely moved
//!   the test metric are skipped entirely;
//! * **within-permutation truncation** — once a prefix's utility is within
//!   tolerance of the round's full-coalition utility, the remaining
//!   marginals in that permutation are taken as zero.

use rand::Rng;

use fedval_core::coalition::Coalition;
use fedval_core::sampling::random_permutation;
use fedval_core::utility::{CachedUtility, Utility};
use fedval_data::Dataset;
use fedval_nn::Network;

use crate::gradient::{ParamEvaluator, RoundUtility};
use crate::history::TrainingHistory;

/// Configuration for [`gtg_shapley`].
#[derive(Clone, Copy, Debug)]
pub struct GtgConfig {
    /// Permutations sampled per (non-truncated) round.
    pub permutations_per_round: usize,
    /// Between-round truncation threshold on `|Δaccuracy|`.
    pub round_tolerance: f64,
    /// Within-permutation truncation threshold.
    pub truncation_tolerance: f64,
}

impl Default for GtgConfig {
    fn default() -> Self {
        GtgConfig {
            permutations_per_round: 4,
            round_tolerance: 0.005,
            truncation_tolerance: 0.005,
        }
    }
}

/// GTG-Shapley valuation: per-round truncated permutation sampling over
/// reconstructed models, summed across rounds.
pub fn gtg_shapley<R: Rng + ?Sized>(
    history: &TrainingHistory,
    net: Network,
    test: Dataset,
    cfg: &GtgConfig,
    rng: &mut R,
) -> Vec<f64> {
    let n = history.n_clients();
    let t = history.rounds();
    assert!(cfg.permutations_per_round >= 1);
    let evaluator = ParamEvaluator::new(net, test);
    let mut phi = vec![0.0f64; n];

    for round in 0..t {
        let before = evaluator.accuracy_of(history.global_before(round));
        let after = evaluator.accuracy_of(history.global_after(round));
        if (after - before).abs() < cfg.round_tolerance {
            // Between-round truncation: this round contributed ~nothing.
            continue;
        }
        let ru = CachedUtility::new(RoundUtility::new(history, round, &evaluator));
        let u_full = ru.eval(Coalition::full(n));
        let u_empty = before; // round utility of ∅ is the entering global
        let mut phi_round = vec![0.0f64; n];
        for _ in 0..cfg.permutations_per_round {
            let perm = random_permutation(n, rng);
            let mut prefix = Coalition::empty();
            let mut u_prev = u_empty;
            for &i in &perm {
                if (u_full - u_prev).abs() < cfg.truncation_tolerance {
                    // Within-permutation truncation.
                    continue;
                }
                prefix = prefix.with(i);
                let u_cur = ru.eval(prefix);
                phi_round[i] += u_cur - u_prev;
                u_prev = u_cur;
            }
        }
        let inv = 1.0 / cfg.permutations_per_round as f64;
        for (acc, v) in phi.iter_mut().zip(&phi_round) {
            *acc += v * inv;
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
        let gen = MnistLike::new(12);
        let (train, test) = gen.generate_split(60 * n, 100, 13);
        let mut rng = StdRng::seed_from_u64(14);
        let clients = SyntheticSetup::SameSizeSameDist.partition(&train, n, &mut rng);
        (clients, test)
    }

    #[test]
    fn gtg_assigns_positive_total_on_learnable_problem() {
        let (clients, test) = setup(4);
        let spec = ModelSpec::default_mlp();
        let cfg = FedAvgConfig {
            rounds: 3,
            local_epochs: 1,
            ..Default::default()
        };
        let history = record_history(&spec, &clients, 64, 10, &cfg);
        let mut rng = StdRng::seed_from_u64(15);
        let phi = gtg_shapley(
            &history,
            spec.build(64, 10, 0),
            test,
            &GtgConfig::default(),
            &mut rng,
        );
        assert_eq!(phi.len(), 4);
        let total: f64 = phi.iter().sum();
        assert!(total > 0.05, "total {total}");
    }

    #[test]
    fn aggressive_round_truncation_skips_everything() {
        let (clients, test) = setup(3);
        let spec = ModelSpec::default_mlp();
        let cfg = FedAvgConfig {
            rounds: 2,
            local_epochs: 1,
            ..Default::default()
        };
        let history = record_history(&spec, &clients, 64, 10, &cfg);
        let mut rng = StdRng::seed_from_u64(16);
        let phi = gtg_shapley(
            &history,
            spec.build(64, 10, 0),
            test,
            &GtgConfig {
                round_tolerance: 10.0, // every round truncated
                ..Default::default()
            },
            &mut rng,
        );
        assert!(phi.iter().all(|&v| v == 0.0));
    }

    #[test]
    fn deterministic_given_seed() {
        let (clients, test) = setup(3);
        let spec = ModelSpec::default_mlp();
        let cfg = FedAvgConfig {
            rounds: 2,
            local_epochs: 1,
            ..Default::default()
        };
        let history = record_history(&spec, &clients, 64, 10, &cfg);
        let run = |seed: u64| {
            let mut rng = StdRng::seed_from_u64(seed);
            gtg_shapley(
                &history,
                spec.build(64, 10, 0),
                test.clone(),
                &GtgConfig::default(),
                &mut rng,
            )
        };
        assert_eq!(run(9), run(9));
    }
}
