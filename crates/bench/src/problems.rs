//! Experiment problem builders: dataset + partition + model + FedAvg
//! hyper-parameters for each table and figure.

use rand::rngs::StdRng;
use rand::SeedableRng;

use fedval_core::utility::Utility;
use fedval_data::{AdultLike, Dataset, FemnistLike, MnistLike, SyntheticSetup};
use fedval_fl::{FedAvgConfig, FlUtility, GbdtUtility, ModelSpec};
use fedval_gbdt::GbdtParams;

use crate::config;

/// Which neural model family an experiment trains (paper: MLP and CNN).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum NeuralModel {
    Mlp,
    Cnn,
}

impl NeuralModel {
    pub fn name(self) -> &'static str {
        match self {
            NeuralModel::Mlp => "MLP",
            NeuralModel::Cnn => "CNN",
        }
    }

    fn spec(self) -> ModelSpec {
        match self {
            NeuralModel::Mlp => ModelSpec::default_mlp(),
            NeuralModel::Cnn => ModelSpec::Cnn { side: 8 },
        }
    }

    fn fedavg(self, seed: u64) -> FedAvgConfig {
        // Enough rounds × epochs to reach the accuracy plateau; frequent
        // averaging keeps FedAvg stable under writer heterogeneity.
        FedAvgConfig {
            rounds: 6,
            local_epochs: match self {
                NeuralModel::Mlp => 2,
                NeuralModel::Cnn => 3, // CNNs need more steps to plateau
            },
            batch_size: 16,
            lr: match self {
                NeuralModel::Mlp => 0.25,
                NeuralModel::Cnn => 0.22,
            },
            seed,
            ..Default::default()
        }
    }
}

/// What the runner needs of a valuation problem.
pub trait Problem {
    type U: Utility;

    /// A fresh utility over (clones of) the problem's data.
    fn utility(&self) -> Self::U;

    /// The FL setting the gradient-based methods replay; `None` where the
    /// model has no gradients (Table V's "\\" cells).
    fn neural(&self) -> Option<&NeuralProblem>;
}

/// A fully specified neural FL valuation problem.
pub struct NeuralProblem {
    pub clients: Vec<Dataset>,
    pub test: Dataset,
    pub spec: ModelSpec,
    pub fed: FedAvgConfig,
}

impl Problem for NeuralProblem {
    type U = FlUtility;

    fn utility(&self) -> FlUtility {
        FlUtility::new(
            self.clients.clone(),
            self.test.clone(),
            self.spec.clone(),
            self.fed,
        )
    }

    fn neural(&self) -> Option<&NeuralProblem> {
        Some(self)
    }
}

/// FEMNIST-like problem: writer-partitioned image classification — the
/// dataset behind Fig. 1, Fig. 4, Table IV and Figs. 7–10.
pub fn femnist(n: usize, model: NeuralModel, seed: u64) -> NeuralProblem {
    // Several writers per client: heterogeneous but not degenerate (real
    // FEMNIST spreads 3500+ writers over a handful of silo clients).
    let gen = FemnistLike::new(seed ^ 0xFE, n * 8);
    let fed_data = gen.generate_federated(
        n,
        config::samples_per_client(),
        config::test_samples(),
        seed ^ 0x01,
    );
    NeuralProblem {
        clients: fed_data.clients,
        test: fed_data.test,
        spec: model.spec(),
        fed: model.fedavg(seed),
    }
}

/// Synthetic-MNIST problem under one of the five partition setups of
/// Sec. V-B (Fig. 6).
pub fn mnist_synthetic(
    setup: SyntheticSetup,
    n: usize,
    model: NeuralModel,
    seed: u64,
) -> NeuralProblem {
    let gen = MnistLike::new(seed ^ 0x3A);
    let (train, test) = gen.generate_split(
        config::samples_per_client() * n,
        config::test_samples(),
        seed ^ 0x02,
    );
    let mut rng = StdRng::seed_from_u64(seed ^ 0x03);
    let clients = setup.partition(&train, n, &mut rng);
    NeuralProblem {
        clients,
        test,
        spec: model.spec(),
        fed: model.fedavg(seed),
    }
}

/// Adult-like problem with an MLP model (Table V, upper half).
pub fn adult_mlp(n: usize, seed: u64) -> NeuralProblem {
    let gen = AdultLike::new(seed ^ 0xAD);
    let fed_data = gen.generate_federated(
        n,
        config::samples_per_client() * n,
        config::test_samples(),
        seed ^ 0x04,
    );
    NeuralProblem {
        clients: fed_data.clients,
        test: fed_data.test,
        spec: ModelSpec::Mlp { hidden: vec![16] },
        fed: FedAvgConfig {
            rounds: 4,
            local_epochs: 2,
            batch_size: 16,
            lr: 0.1,
            seed,
            ..Default::default()
        },
    }
}

/// A GBDT valuation problem (Table V, lower half).
pub struct GbdtProblem {
    pub clients: Vec<Dataset>,
    pub test: Dataset,
    pub params: GbdtParams,
}

impl Problem for GbdtProblem {
    type U = GbdtUtility;

    fn utility(&self) -> GbdtUtility {
        GbdtUtility::new(self.clients.clone(), self.test.clone(), self.params)
    }

    fn neural(&self) -> Option<&NeuralProblem> {
        None
    }
}

/// Adult-like problem with the XGBoost-style model.
pub fn adult_xgb(n: usize, seed: u64) -> GbdtProblem {
    let gen = AdultLike::new(seed ^ 0xAD);
    let fed_data = gen.generate_federated(
        n,
        config::samples_per_client() * n,
        config::test_samples(),
        seed ^ 0x05,
    );
    GbdtProblem {
        clients: fed_data.clients,
        test: fed_data.test,
        params: GbdtParams {
            n_trees: 12,
            ..Default::default()
        },
    }
}

/// The Fig. 9 scalability problem: `n` clients with 5% free riders and 5%
/// duplicated datasets. Returns the problem plus the planted free-rider
/// indices and duplicate pairs.
pub fn scalability(
    n: usize,
    model: NeuralModel,
    seed: u64,
) -> (NeuralProblem, Vec<usize>, Vec<(usize, usize)>) {
    let per_client = if config::quick() { 15 } else { 20 };
    let gen = MnistLike::new(seed ^ 0x5C);
    let (train, test) = gen.generate_split(per_client * n, config::test_samples(), seed ^ 0x06);
    let mut rng = StdRng::seed_from_u64(seed ^ 0x07);
    let mut clients = SyntheticSetup::SameSizeSameDist.partition(&train, n, &mut rng);
    let planted = (n / 20).max(1);
    let (free_riders, duplicate_pairs) =
        fedval_data::plant_scalability_fixtures(&mut clients, planted, planted);
    let problem = NeuralProblem {
        clients,
        test,
        spec: model.spec(),
        fed: FedAvgConfig {
            rounds: 2,
            local_epochs: 1,
            batch_size: 16,
            lr: 0.1,
            seed,
            ..Default::default()
        },
    };
    (problem, free_riders, duplicate_pairs)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn problem_builders_produce_consistent_shapes() {
        let p = femnist(3, NeuralModel::Mlp, 1);
        assert_eq!(p.clients.len(), 3);
        assert_eq!(p.test.n_features(), 64);
        let q = mnist_synthetic(SyntheticSetup::DiffSizeSameDist, 4, NeuralModel::Cnn, 2);
        assert_eq!(q.clients.len(), 4);
        let sizes: Vec<usize> = q.clients.iter().map(|c| c.n_samples()).collect();
        assert!(sizes[3] > sizes[0], "size-ratio partition: {sizes:?}");
        let a = adult_mlp(3, 3);
        assert_eq!(a.test.n_classes(), 2);
        let x = adult_xgb(3, 3);
        assert_eq!(x.clients.len(), 3);
    }

    #[test]
    fn scalability_problem_has_fixtures() {
        let (p, fr, dups) = scalability(20, NeuralModel::Mlp, 4);
        assert_eq!(p.clients.len(), 20);
        assert_eq!(fr.len(), 1);
        assert_eq!(dups.len(), 1);
        assert!(p.clients[fr[0]].is_empty());
        let (a, b) = dups[0];
        assert_eq!(p.clients[a], p.clients[b]);
    }
}
