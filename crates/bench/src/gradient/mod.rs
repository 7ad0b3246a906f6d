//! Gradient-based valuation baselines (Sec. V-A, third category):
//! **OR**, **λ-MR**, **GTG-Shapley** and **DIG-FL**.
//!
//! All four avoid retraining FL models per coalition: they reuse the
//! per-round per-client updates recorded in a [`TrainingHistory`] from the
//! single full-coalition run, reconstructing coalition models by replaying
//! those updates. This makes them fast but — as the paper's experiments
//! show — without accuracy guarantees, since a coalition's *actual*
//! training trajectory differs from the replayed one.

// The baselines are estimator code: no wall-clock reads, although the
// harness crate allows them elsewhere, and no `for` over a hash container.
#![deny(clippy::disallowed_methods, clippy::iter_over_hash_type)]

mod digfl;
mod gtg;
mod lambda_mr;
mod or;

pub use digfl::{dig_fl, DigFlConfig};
pub use gtg::{gtg_shapley, GtgConfig};
pub use lambda_mr::{lambda_mr, LambdaMrConfig};
pub use or::or_valuation;

use std::sync::{Mutex, PoisonError};

use fedval_core::coalition::Coalition;
use fedval_core::utility::Utility;
use fedval_data::Dataset;
use fedval_nn::Network;

use crate::history::TrainingHistory;

/// Shared evaluator: loads parameter vectors into a reusable network and
/// measures test accuracy. The network is behind a mutex because
/// [`Utility`] is evaluated through `&self` (and may be driven from the
/// parallel bench harness).
pub(crate) struct ParamEvaluator {
    net: Mutex<Network>,
    test: Dataset,
}

impl ParamEvaluator {
    pub(crate) fn new(net: Network, test: Dataset) -> Self {
        ParamEvaluator {
            net: Mutex::new(net),
            test,
        }
    }

    pub(crate) fn accuracy_of(&self, params: &[f32]) -> f64 {
        // Poison-tolerant: the only state behind the lock is overwritten
        // by set_params before every read.
        let mut net = self.net.lock().unwrap_or_else(PoisonError::into_inner);
        net.set_params(params);
        net.accuracy(&self.test)
    }
}

/// `acc(M^T) − acc(M⁰)`: the test-accuracy gain of the recorded run, the
/// total an efficient valuation hands out.
pub(crate) fn accuracy_gain(history: &TrainingHistory, net: &mut Network, test: &Dataset) -> f64 {
    net.set_params(history.globals.last().unwrap_or(&history.init_params));
    let final_acc = net.accuracy(test);
    net.set_params(&history.init_params);
    final_acc - net.accuracy(test)
}

/// Utility over *OR-reconstructed* models: `U(S)` loads
/// `TrainingHistory::reconstruct(S)` and measures test accuracy. No
/// training happens — this is the entire trick of the OR baseline.
pub struct ReconstructedUtility<'a> {
    history: &'a TrainingHistory,
    evaluator: ParamEvaluator,
}

impl<'a> ReconstructedUtility<'a> {
    pub fn new(history: &'a TrainingHistory, net: Network, test: Dataset) -> Self {
        ReconstructedUtility {
            history,
            evaluator: ParamEvaluator::new(net, test),
        }
    }
}

impl Utility for ReconstructedUtility<'_> {
    fn n_clients(&self) -> usize {
        self.history.n_clients()
    }

    fn eval(&self, s: Coalition) -> f64 {
        self.evaluator.accuracy_of(&self.history.reconstruct(s))
    }
}

/// Utility over *round-`t`* reconstructions: `U_t(S)` applies only round
/// `t`'s updates of the coalition on top of the actual global model
/// entering round `t`. Used by λ-MR and GTG-Shapley.
pub struct RoundUtility<'a> {
    history: &'a TrainingHistory,
    round: usize,
    evaluator: &'a ParamEvaluator,
}

impl<'a> RoundUtility<'a> {
    pub(crate) fn new(
        history: &'a TrainingHistory,
        round: usize,
        evaluator: &'a ParamEvaluator,
    ) -> Self {
        assert!(round < history.rounds());
        RoundUtility {
            history,
            round,
            evaluator,
        }
    }
}

impl Utility for RoundUtility<'_> {
    fn n_clients(&self) -> usize {
        self.history.n_clients()
    }

    fn eval(&self, s: Coalition) -> f64 {
        self.evaluator
            .accuracy_of(&self.history.reconstruct_round(self.round, s))
    }
}

/// Frozen outputs of the baselines on the free-rider federation (n = 4,
/// 4 rounds, FedAvg seed 604, client 2 without data): an FNV-1a digest of
/// the recorded training history and every value of OR, λ-MR
/// (λ ∈ {1, 4}), GTG-Shapley (RNG seed 605) and DIG-FL (raw and
/// efficiency-normalised), each as `f64::to_bits` hex.
///
/// The softmax's `exp` comes from the platform libm; a libm that rounds
/// `expf` differently needs its own recording. Any other drift means the
/// recorded history or a baseline's arithmetic moved: paste the printed
/// ledger over `GOLDEN` only when a value is *meant* to change.
#[cfg(test)]
mod golden {
    use std::fmt::Write as _;

    use rand::rngs::StdRng;
    use rand::SeedableRng;

    use fedval_core::coalition::Coalition;
    use fedval_data::{Dataset, MnistLike, SyntheticSetup};
    use fedval_fl::{train_coalition, FedAvgConfig, ModelSpec};

    use super::{dig_fl, gtg_shapley, lambda_mr, or_valuation};
    use super::{DigFlConfig, GtgConfig, LambdaMrConfig};
    use crate::history::{record_history, TrainingHistory};

    const GOLDEN: &str = "\
history = b70412d18040e238
or = 3fb2a1907f6e5d4c 3fc8e38e38e38e39 0000000000000000 3fc68acf13579be0
lambda_mr 1 = bfbc048d159e26ac 3fe07f6e5d4c3b2a 0000000000000000 3fa30eca8641fdbb
lambda_mr 4 = bfa6318001b69eb9 3fdd54cc43bb32aa 0000000000000000 3fc2a56b6490f082
gtg 605 = bfae4b17e4b17e4a 3fe18bf258bf258c 0000000000000000 bfa5c28f5c28f5c0
dig_fl normalized=false = 3fdd58916cda1042 3fdf6afd7138d552 0000000000000000 3fdd400fb2d5a726
dig_fl normalized=true = 3fc28011bcf6e3e1 3fc3ce75265f455e 0000000000000000 3fc2709ea89c2f81
";

    const N: usize = 4;

    /// The federation with its free rider, and its recorded history.
    fn federation() -> (Vec<Dataset>, Dataset, FedAvgConfig, TrainingHistory) {
        let (train, test) = MnistLike::new(601).generate_split(80 * N, 300, 602);
        let mut rng = StdRng::seed_from_u64(603);
        let mut clients = SyntheticSetup::SameSizeSameDist.partition(&train, N, &mut rng);
        clients[2] = Dataset::empty(64, 10);
        let cfg = FedAvgConfig {
            rounds: 4,
            local_epochs: 1,
            batch_size: 16,
            lr: 0.2,
            seed: 604,
            ..Default::default()
        };
        let history = record_history(&ModelSpec::default_mlp(), &clients, 64, 10, &cfg);
        (clients, test, cfg, history)
    }

    /// FNV-1a over the bit patterns of `params`, continuing from `h`.
    fn fnv(h: u64, params: &[f32]) -> u64 {
        params
            .iter()
            .flat_map(|p| p.to_bits().to_le_bytes())
            .fold(h, |h, byte| {
                (h ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01B3)
            })
    }

    /// Digest of the init, every round's per-client Δ (a presence byte,
    /// then the bits) and every recorded global, in that order.
    fn digest(history: &TrainingHistory) -> u64 {
        let mut h = fnv(0xCBF2_9CE4_8422_2325, &history.init_params);
        for delta in history.updates.iter().flatten() {
            h = (h ^ u64::from(delta.is_some())).wrapping_mul(0x0000_0100_0000_01B3);
            h = fnv(h, delta.as_deref().unwrap_or_default());
        }
        history.globals.iter().fold(h, |h, global| fnv(h, global))
    }

    fn row(ledger: &mut String, name: &str, values: &[f64]) {
        let hex: Vec<String> = values
            .iter()
            .map(|v| format!("{:016x}", v.to_bits()))
            .collect();
        writeln!(ledger, "{name} = {}", hex.join(" ")).unwrap();
    }

    #[test]
    fn gradient_baselines_match_the_frozen_ledger() {
        let (_, test, _, history) = federation();
        let evaluator = || ModelSpec::default_mlp().build(64, 10, 0);
        let mut ledger = String::new();
        writeln!(ledger, "history = {:016x}", digest(&history)).unwrap();
        let or = or_valuation(&history, evaluator(), test.clone());
        row(&mut ledger, "or", &or);
        for lambda in [1.0, 4.0] {
            let cfg = LambdaMrConfig { lambda };
            let phi = lambda_mr(&history, evaluator(), test.clone(), &cfg);
            row(&mut ledger, &format!("lambda_mr {lambda}"), &phi);
        }
        let mut rng = StdRng::seed_from_u64(605);
        let gtg = gtg_shapley(
            &history,
            evaluator(),
            test.clone(),
            &GtgConfig::default(),
            &mut rng,
        );
        row(&mut ledger, "gtg 605", &gtg);
        for normalize_efficiency in [false, true] {
            let cfg = DigFlConfig {
                normalize_efficiency,
            };
            let phi = dig_fl(&history, evaluator(), &test, &test, &cfg);
            let name = format!("dig_fl normalized={normalize_efficiency}");
            row(&mut ledger, &name, &phi);
        }
        assert_eq!(
            ledger, GOLDEN,
            "gradient ledger drifted; recorded:\n{ledger}"
        );
    }

    #[test]
    fn recorded_history_ends_at_the_solo_reference_model() {
        let (clients, _, cfg, history) = federation();
        let spec = ModelSpec::default_mlp();
        let solo = train_coalition(&spec, &clients, 64, 10, Coalition::full(N), &cfg).params();
        let last = history.globals.last().unwrap();
        assert_eq!(last.len(), solo.len());
        assert!(last
            .iter()
            .zip(&solo)
            .all(|(a, b)| a.to_bits() == b.to_bits()));
    }

    #[test]
    fn gradient_baselines_run_and_respect_structure() {
        let (_, test, _, history) = federation();
        let spec = ModelSpec::default_mlp();

        let or = or_valuation(&history, spec.build(64, 10, 0), test.clone());
        assert!(or[2].abs() < 1e-9, "OR must zero the free rider: {or:?}");

        let mr = lambda_mr(
            &history,
            spec.build(64, 10, 0),
            test.clone(),
            &LambdaMrConfig::default(),
        );
        assert!(mr[2].abs() < 1e-9, "λ-MR must zero the free rider: {mr:?}");

        let mut rng = StdRng::seed_from_u64(605);
        let gtg = gtg_shapley(
            &history,
            spec.build(64, 10, 0),
            test.clone(),
            &GtgConfig::default(),
            &mut rng,
        );
        assert_eq!(gtg.len(), N);

        let dig = dig_fl(
            &history,
            spec.build(64, 10, 0),
            &test,
            &test,
            &DigFlConfig::default(),
        );
        assert_eq!(dig[2], 0.0, "DIG-FL must zero the free rider: {dig:?}");
    }
}

/// The symmetry axiom on a game small enough to check by hand: a recorded
/// n = 3 history edited so that clients 0 and 1 are interchangeable.
#[cfg(test)]
mod tests {
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    use fedval_core::anytime::Welford;
    use fedval_data::{MnistLike, SyntheticSetup};
    use fedval_fl::{FedAvgConfig, ModelSpec};

    use super::*;
    use crate::history::record_history;

    /// Client 1 uploads client 0's Δ in every round and holds as much data,
    /// and every global is re-aggregated from the edited updates, so the
    /// history is still a FedAvg run — one in which swapping clients 0 and
    /// 1 changes no reconstructed model.
    fn symmetric_history() -> (TrainingHistory, Dataset) {
        let (train, test) = MnistLike::new(31).generate_split(180, 100, 32);
        let mut rng = StdRng::seed_from_u64(33);
        let clients = SyntheticSetup::SameSizeSameDist.partition(&train, 3, &mut rng);
        let cfg = FedAvgConfig {
            rounds: 3,
            local_epochs: 1,
            ..Default::default()
        };
        let mut history = record_history(&ModelSpec::default_mlp(), &clients, 64, 10, &cfg);
        history.client_sizes[1] = history.client_sizes[0];
        for round in 0..history.rounds() {
            history.updates[round][1] = history.updates[round][0].clone();
            history.globals[round] = history.reconstruct_round(round, Coalition::full(3));
        }
        (history, test)
    }

    fn net() -> Network {
        ModelSpec::default_mlp().build(64, 10, 0)
    }

    #[test]
    fn or_and_lambda_mr_value_interchangeable_clients_equally() {
        let (history, test) = symmetric_history();
        let or = or_valuation(&history, net(), test.clone());
        assert!((or[0] - or[1]).abs() <= 1e-12, "OR: {or:?}");
        for lambda in [1.0, 4.0] {
            let mr = lambda_mr(&history, net(), test.clone(), &LambdaMrConfig { lambda });
            assert!(
                (mr[0] - mr[1]).abs() <= 1e-12,
                "λ-MR at λ = {lambda}: {mr:?}"
            );
        }
        // λ = 1: the per-round efficiencies telescope to the run's gain.
        let mr = lambda_mr(&history, net(), test.clone(), &LambdaMrConfig::default());
        let gain = accuracy_gain(&history, &mut net(), &test);
        let total: f64 = mr.iter().sum();
        assert!((total - gain).abs() <= 1e-12, "Σϕ = {total} vs gain {gain}");
    }

    #[test]
    fn gtg_values_interchangeable_clients_equally_on_average() {
        // φ₀ − φ₁ over RNG seeds 0..200: its mean lies within three
        // standard errors of zero.
        let (history, test) = symmetric_history();
        let mut gap = Welford::new();
        for seed in 0..200 {
            let mut rng = StdRng::seed_from_u64(seed);
            let cfg = GtgConfig::default();
            let phi = gtg_shapley(&history, net(), test.clone(), &cfg, &mut rng);
            gap.push(phi[0] - phi[1]);
        }
        let se = (gap.sample_variance().unwrap() / gap.count() as f64).sqrt();
        assert!(
            gap.mean().abs() <= 3.0 * se,
            "mean φ₀ − φ₁ = {} with standard error {se}",
            gap.mean()
        );
    }
}
