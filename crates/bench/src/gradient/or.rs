//! OR (Song et al., BigData'19): exact MC-SV over gradient-reconstructed
//! models.
//!
//! OR takes the gradients recorded within the full-clients FL process and
//! treats them as the gradients of every other combination, reconstructing
//! `M_S` for all `2^n` coalitions without extra training. All `2^n`
//! *evaluations* still happen (cheap: load parameters + test), which is why
//! OR's time grows visibly at `n = 10` in Table IV while staying far below
//! retraining-based exact SV. There is no approximation-error guarantee —
//! the reconstructed trajectory is not the coalition's true trajectory.

use fedval_core::exact::exact_mc_sv;
use fedval_core::utility::CachedUtility;
use fedval_data::Dataset;
use fedval_nn::Network;

use crate::gradient::ReconstructedUtility;
use crate::history::TrainingHistory;

/// OR valuation: exact MC-SV on the reconstructed utility table.
pub fn or_valuation(history: &TrainingHistory, net: Network, test: Dataset) -> Vec<f64> {
    let n = history.n_clients();
    assert!(n <= 20, "OR enumerates 2^n reconstructions (n = {n})");
    let utility = CachedUtility::new(ReconstructedUtility::new(history, net, test));
    exact_mc_sv(&utility)
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
        let gen = MnistLike::new(2);
        let (train, test) = gen.generate_split(60 * n, 100, 3);
        let mut rng = StdRng::seed_from_u64(4);
        let clients = SyntheticSetup::SameSizeSameDist.partition(&train, n, &mut rng);
        (clients, test)
    }

    #[test]
    fn or_produces_plausible_values() {
        let (clients, test) = setup(4);
        let spec = ModelSpec::default_mlp();
        let cfg = FedAvgConfig {
            rounds: 3,
            local_epochs: 1,
            ..Default::default()
        };
        let history = record_history(&spec, &clients, 64, 10, &cfg);
        let phi = or_valuation(&history, spec.build(64, 10, 0), test);
        assert_eq!(phi.len(), 4);
        // Efficiency: Σϕ = U_rec(N) − U_rec(∅); both ends of the recon
        // table are the true endpoints of training, so the total must be
        // the actual accuracy gain (> 0 on this learnable problem).
        let total: f64 = phi.iter().sum();
        assert!(total > 0.1, "total {total}");
        // IID equal-size clients: no value should dominate absurdly.
        for &v in &phi {
            assert!(v > -0.2 && v < total, "{phi:?}");
        }
    }

    #[test]
    fn or_gives_zero_to_empty_client() {
        let (mut clients, test) = setup(4);
        clients[1] = Dataset::empty(64, 10);
        let spec = ModelSpec::default_mlp();
        let cfg = FedAvgConfig {
            rounds: 2,
            local_epochs: 1,
            ..Default::default()
        };
        let history = record_history(&spec, &clients, 64, 10, &cfg);
        let phi = or_valuation(&history, spec.build(64, 10, 0), test);
        // A client with no data contributes no update in any reconstruction
        // ⇒ exact null player on the reconstructed game.
        assert!(
            phi[1].abs() < 1e-9,
            "free rider must get zero, got {}",
            phi[1]
        );
    }
}
