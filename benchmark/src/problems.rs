//! The games the workloads value, built from the stable public surface
//! (`fedval_data::FemnistLike` + `FlUtility::new`, `NoisyUtility`).
//!
//! Every game is a **fixture**: it is built from [`FIXTURE_SEED`], not
//! from `--seed`. The accuracy target ε is a property of a game — on the
//! FEMNIST-like n=10 MLP federation IPSS at γ=64 has an l2 error of 0.0895
//! when the data is generated from seed 42 but 0.155 / 0.123 / 0.153 from
//! seeds 1 / 2 / 3, so a data-feeding seed moves γ\* across the ladder (or
//! off it) and with it every time-to-ε number. `--seed` therefore feeds
//! the traffic — the sampling seed of every request and the order of the
//! wire mix — under which the errors move by a few percent and γ\* stays
//! put (README § Seeds).

use fedval_core::utility::{NoisyUtility, SaturatingUtility};
use fedval_data::{Dataset, FemnistLike};
use fedval_fl::service::{serve, FlServiceConfig, FlValuationServer};
use fedval_fl::{FedAvgConfig, FlUtility, ModelSpec};
use fedval_nn::Backend;

/// Seed every fixture game is generated from.
pub const FIXTURE_SEED: u64 = 42;

/// Fan-out width of every FL stack the benchmark builds, pinned through
/// the API so the measured configuration does not depend on the box.
pub const THREADS: usize = 2;

/// Samples per client and test-set size of the FEMNIST-like federations
/// (the sizes `crates/bench` uses for the paper's tables).
const SAMPLES_PER_CLIENT: usize = 100;
const TEST_SAMPLES: usize = 500;

/// Which model family a federation trains.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Model {
    /// One 32-unit hidden layer, FedAvg 6 rounds × 2 local epochs.
    Mlp,
    /// CNN over 8×8 images, FedAvg 4 rounds × 2 local epochs.
    Cnn,
}

/// A FEMNIST-like federation: writer-partitioned clients, a mixed test
/// set, the model and the FedAvg schedule.
#[derive(Clone)]
pub struct Federation {
    pub clients: Vec<Dataset>,
    pub test: Dataset,
    pub spec: ModelSpec,
    pub fed: FedAvgConfig,
}

impl Federation {
    /// Generate the `n`-client federation the way `crates/bench` builds
    /// the paper's FEMNIST problems: `s = FIXTURE_SEED + n`, eight writers
    /// per client, FedAvg seeded with `s`.
    pub fn generate(n: usize, model: Model) -> Federation {
        let s = FIXTURE_SEED + n as u64;
        let data = FemnistLike::new(s ^ 0xFE, 8 * n).generate_federated(
            n,
            SAMPLES_PER_CLIENT,
            TEST_SAMPLES,
            s ^ 0x01,
        );
        let (spec, rounds, lr) = match model {
            Model::Mlp => (ModelSpec::default_mlp(), 6, 0.25),
            Model::Cnn => (ModelSpec::Cnn { side: 8 }, 4, 0.22),
        };
        Federation {
            clients: data.clients,
            test: data.test,
            spec,
            // Backend and trajectory cache are pinned here rather than
            // left to the process environment (which main refuses anyway).
            fed: FedAvgConfig {
                rounds,
                local_epochs: 2,
                batch_size: 16,
                lr,
                seed: s,
                backend: Backend::Reference,
                traj_cache: true,
                traj_cache_bytes: None,
                ..Default::default()
            },
        }
    }

    pub fn n(&self) -> usize {
        self.clients.len()
    }

    /// A fresh utility over copies of this federation's data.
    pub fn utility(&self) -> FlUtility {
        FlUtility::new(
            self.clients.clone(),
            self.test.clone(),
            self.spec.clone(),
            self.fed,
        )
    }

    /// A fresh full stack — server, coalition memo, 2-thread fan-out,
    /// lane blocks, shared trajectory cache — through the product's own
    /// `serve()`.
    pub fn serve(&self) -> FlValuationServer {
        let config = FlServiceConfig {
            threads: Some(THREADS),
            ..Default::default()
        };
        serve(self.utility(), config).0
    }
}

/// The synthetic game of `estimator_synthetic`: a saturating utility
/// over 20 clients of five different sizes plus deterministic noise —
/// evaluation costs nanoseconds, so estimator code is all of the time.
/// Rate and amplitude are sized so IPSS crosses ε = 0.05 between the
/// 16384 and 65536 rungs with a wide margin (errors 0.063 / 0.026).
pub fn synthetic_game() -> NoisyUtility<SaturatingUtility> {
    let sizes = (0..SYNTHETIC_CLIENTS)
        .map(|i| 0.4 + 0.3 * (i % 5) as f64)
        .collect();
    NoisyUtility::new(
        SaturatingUtility::new(0.1, 0.85, 0.6, sizes),
        0.02,
        FIXTURE_SEED,
    )
}

pub const SYNTHETIC_CLIENTS: usize = 20;
