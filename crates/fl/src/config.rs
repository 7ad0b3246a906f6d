//! FedAvg hyper-parameters and deterministic seed derivation.

use fedval_nn::Backend;

/// Hyper-parameters of the federated training loop (Def. 1): FedAvg,
/// every member of the coalition training in every round.
#[derive(Clone, Copy, Debug)]
pub struct FedAvgConfig {
    /// Communication rounds between server and clients.
    pub rounds: usize,
    /// Local SGD epochs per client per round.
    pub local_epochs: usize,
    /// Local mini-batch size.
    pub batch_size: usize,
    /// Local SGD learning rate.
    pub lr: f32,
    /// Base seed. Model initialisation and the per-client data order are
    /// derived from this, making `U(M_S)` a pure function of the coalition
    /// (required for sound caching).
    pub seed: u64,
    /// Read by nothing; kept for `benchmark/src/problems.rs` (see
    /// `fedval_nn::backend`).
    pub backend: Backend,
    /// Read by nothing; kept for `benchmark/src/problems.rs` (every
    /// `FlUtility` owns a round-0 trajectory table, see `crate::trajcache`).
    pub traj_cache: bool,
    /// Read by nothing; kept for `benchmark/src/problems.rs` (the round-0
    /// table is bounded by `n · p · 4` bytes and has no budget).
    pub traj_cache_bytes: Option<usize>,
}

impl Default for FedAvgConfig {
    fn default() -> Self {
        FedAvgConfig {
            rounds: 4,
            local_epochs: 2,
            batch_size: 16,
            lr: 0.1,
            seed: 0,
            backend: Backend::Reference,
            traj_cache: true,
            traj_cache_bytes: None,
        }
    }
}

#[inline]
pub(crate) fn mix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Seed for the FL process of a given coalition.
///
/// All coalitions share the same *model initialisation* seed (the FL server
/// initialises one global model regardless of which clients participate —
/// Def. 1), so this hashes only the base seed; the coalition enters the
/// per-round seeds below.
pub fn init_seed(base: u64) -> u64 {
    mix64(base ^ 0x1217_0000)
}

/// Seed for client `client`'s local training in `round`.
///
/// Deliberately *coalition-independent*: a client shuffles its local data
/// the same way no matter which coalition it trains in. These common
/// random numbers cancel in marginal contributions `U(S∪{i}) − U(S)`,
/// sharply reducing the noise floor of the ground-truth Shapley values —
/// a variance-reduction choice listed under "Deviations from the paper"
/// in ARCHITECTURE.md. Determinism per coalition (hence cacheability) is
/// unaffected.
pub fn local_seed(base: u64, round: usize, client: usize) -> u64 {
    let hi = mix64(mix64(base) ^ ((round as u64) << 32) ^ client as u64);
    mix64(hi)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeds_are_deterministic_and_distinct() {
        assert_eq!(local_seed(7, 0, 0), local_seed(7, 0, 0));
        assert_ne!(local_seed(7, 0, 0), local_seed(7, 1, 0));
        assert_ne!(local_seed(7, 0, 0), local_seed(7, 0, 2));
        assert_ne!(local_seed(7, 0, 0), local_seed(8, 0, 0));
        assert_eq!(init_seed(3), init_seed(3));
        assert_ne!(init_seed(3), init_seed(4));
    }

    #[test]
    fn default_config_is_small_and_fast() {
        let cfg = FedAvgConfig::default();
        assert!(cfg.rounds <= 8 && cfg.local_epochs <= 4);
    }
}
