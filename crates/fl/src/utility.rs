//! Coalition utility functions backed by real model training — the
//! `U(M_S)` of Def. 2, with `U` = test accuracy.

use std::sync::Arc;

use fedval_core::coalition::Coalition;
use fedval_core::utility::Utility;
use fedval_data::Dataset;
use fedval_gbdt::{Gbdt, GbdtParams};
use fedval_nn::MultiNetwork;

use crate::config::{init_seed, FedAvgConfig};
use crate::fedavg::train_coalitions_params_with_cache;
use crate::model::ModelSpec;
use crate::trajcache::TrajectoryCache;

/// Default number of coalition models trained per lock-step lane block by
/// [`FlUtility::eval_batch`]. Eight lanes amortise the shared data pass
/// well while the per-lane parameter/activation working set stays
/// cache-resident for the experiment-sized models. Defined as the
/// parallel adapter's sub-batch size so one stolen work unit is one
/// lock-step block by construction. [`FlUtility::with_lane_block`]
/// changes the block size only: a larger block is split at the adapter's
/// fixed sub-batch size before it reaches this utility.
pub const DEFAULT_LANE_BLOCK: usize = fedval_core::utility::DEFAULT_PAR_CHUNK;

/// FedAvg-trained neural utility: `U(S)` trains the [`ModelSpec`] on the
/// coalition's datasets with FedAvg and returns test accuracy.
///
/// Every evaluation trains through the lock-step engine
/// ([`crate::fedavg::train_coalitions`]): batches are grouped into
/// size-sorted lane blocks, one shared data pass per block, and a single
/// evaluation is a one-lane batch. The values are bit-identical to the
/// solo reference loop, [`crate::fedavg::train_coalition`].
///
/// Wrap in [`fedval_core::utility::CachedUtility`] so each coalition is
/// trained exactly once (the paper's `τ` accounting).
///
/// Below whole-coalition caching sits the *round-0 trajectory table*
/// ([`crate::trajcache`]): every coalition starts from the one server
/// init, so each client's round-0 local training is the same in every
/// coalition. The utility owns one table for its whole lifetime, shared by
/// every `eval_batch` call and every sub-batch a `ParallelUtility` fans
/// out, so round 0 is paid once per client per utility instead of once per
/// lane block; [`FlUtility::with_traj_cache`] swaps in a handle shared
/// with the caller. The table holds at most one update per client, and
/// values are bit-identical with or without its hits.
///
/// ```
/// use fedval_core::prelude::*;
/// use fedval_data::{MnistLike, SyntheticSetup};
/// use fedval_fl::{FedAvgConfig, FlUtility, ModelSpec};
/// use rand::rngs::StdRng;
/// use rand::SeedableRng;
///
/// // Three clients over a tiny synthetic split, one FedAvg round.
/// let (train, test) = MnistLike::new(1).generate_split(60, 30, 2);
/// let mut rng = StdRng::seed_from_u64(3);
/// let clients = SyntheticSetup::SameSizeSameDist.partition(&train, 3, &mut rng);
/// let cfg = FedAvgConfig { rounds: 1, local_epochs: 1, ..Default::default() };
/// let utility = FlUtility::new(clients, test, ModelSpec::Linear, cfg);
///
/// // Batches train in lock-step lane blocks — bit-identical to solo.
/// let batch = utility.eval_batch(&[Coalition::singleton(0), Coalition::full(3)]);
/// assert_eq!(batch[1], utility.eval(Coalition::full(3)));
/// assert!((0.0..=1.0).contains(&batch[0]), "accuracy in [0, 1]");
/// ```
pub struct FlUtility {
    clients: Vec<Dataset>,
    test: Dataset,
    spec: ModelSpec,
    cfg: FedAvgConfig,
    lane_block: usize,
    traj_cache: Arc<TrajectoryCache>,
}

impl FlUtility {
    pub fn new(clients: Vec<Dataset>, test: Dataset, spec: ModelSpec, cfg: FedAvgConfig) -> Self {
        assert!(!clients.is_empty());
        for c in &clients {
            assert_eq!(c.n_features(), test.n_features(), "schema mismatch");
            assert_eq!(c.n_classes(), test.n_classes(), "schema mismatch");
        }
        FlUtility {
            clients,
            test,
            spec,
            cfg,
            lane_block: DEFAULT_LANE_BLOCK,
            traj_cache: Arc::new(TrajectoryCache::new()),
        }
    }

    /// Set the lock-step lane-block size `B` used by `eval_batch`
    /// (`1` disables coalescing; values are identical either way).
    pub fn with_lane_block(mut self, lane_block: usize) -> Self {
        assert!(lane_block >= 1);
        self.lane_block = lane_block;
        self
    }

    /// Replace the utility's own round-0 table with `cache`, e.g. to read
    /// its stats while the utility sits inside a stack. Never share one
    /// table between utilities with different datasets, specs or configs
    /// (see `crate::trajcache`).
    pub fn with_traj_cache(mut self, cache: Arc<TrajectoryCache>) -> Self {
        self.traj_cache = cache;
        self
    }

    /// The round-0 table every `eval_batch` call probes and fills.
    pub fn traj_cache(&self) -> &Arc<TrajectoryCache> {
        &self.traj_cache
    }

    pub fn lane_block(&self) -> usize {
        self.lane_block
    }

    pub fn clients(&self) -> &[Dataset] {
        &self.clients
    }

    pub fn test_set(&self) -> &Dataset {
        &self.test
    }

    pub fn spec(&self) -> &ModelSpec {
        &self.spec
    }

    pub fn config(&self) -> &FedAvgConfig {
        &self.cfg
    }
}

impl Utility for FlUtility {
    fn n_clients(&self) -> usize {
        self.clients.len()
    }

    /// One full FedAvg train + evaluate cycle, as a one-coalition
    /// [`FlUtility::eval_batch`]: the same engine, kernels and round-0
    /// table as every batch. Once the table holds a member's round 0, the
    /// call skips that training, so its wall time is not the cost of one
    /// training; time [`crate::fedavg::train_coalition`] for that.
    fn eval(&self, s: Coalition) -> f64 {
        self.eval_batch(std::slice::from_ref(&s))[0]
    }

    /// Lock-step batched evaluation: pending coalitions are size-sorted
    /// (lanes in one block then share similar member sets, so most clients
    /// a block visits are active in most of its lanes), grouped into
    /// blocks of at most `lane_block`, and each block is trained by one
    /// [`crate::fedavg::train_coalitions`] pass and scored with the test
    /// batches gathered once for all lanes. The utility's round-0 table
    /// spans blocks and calls, so each client's round-0 training is paid
    /// once. Values are bit-identical to the solo reference loop —
    /// per-lane trajectories are bit-identical to solo runs, table hits
    /// replay the bits training would produce, and accuracy is a pure
    /// per-lane function — so the determinism contract survives any
    /// grouping and any table state. Every mutable piece of state (the
    /// lanes, RNGs, aggregation buffers) is created inside this call, so
    /// concurrent callers — the `ParallelUtility` fan-out — share only the
    /// immutable datasets, configuration and the `Sync` round-0 table.
    fn eval_batch(&self, coalitions: &[Coalition]) -> Vec<f64> {
        let mut order: Vec<usize> = (0..coalitions.len()).collect();
        // Stable total order: by size, ties by mask, so block composition
        // is deterministic regardless of input order-of-arrival.
        order.sort_by_key(|&i| (coalitions[i].size(), coalitions[i].0));
        let mut out = vec![0.0f64; coalitions.len()];
        let mut block: Vec<Coalition> = Vec::with_capacity(self.lane_block);
        let template = self.spec.build(
            self.test.n_features(),
            self.test.n_classes(),
            init_seed(self.cfg.seed),
        );
        for positions in order.chunks(self.lane_block) {
            block.clear();
            block.extend(positions.iter().map(|&i| coalitions[i]));
            let lane_params = train_coalitions_params_with_cache(
                &self.spec,
                &self.clients,
                self.test.n_features(),
                self.test.n_classes(),
                &block,
                &self.cfg,
                Some(&self.traj_cache),
            );
            // Score all lanes against the test set in one shared pass.
            let mut multi = MultiNetwork::from_network(&template, lane_params.len());
            for (l, params) in lane_params.iter().enumerate() {
                multi.set_lane_params(l, params);
            }
            let accs = multi.accuracy_lanes(&self.test);
            for (&pos, acc) in positions.iter().zip(accs) {
                out[pos] = acc;
            }
        }
        out
    }
}

/// Compile-time guarantee that the FL utilities stay safe to share across
/// the parallel evaluation engine's threads: training must keep all
/// mutable state call-local, except the `Sync` round-0 table.
const _: () = {
    const fn assert_sync_send<T: Sync + Send>() {}
    assert_sync_send::<FlUtility>();
    assert_sync_send::<GbdtUtility>();
};

/// Pooled-training GBDT utility: `U(S)` trains a fresh GBDT on
/// `D_S = ∪_{i∈S} D_i` and returns test accuracy.
///
/// Cross-silo federated GBDT (vertical/horizontal tree protocols) produces
/// the same ensemble a centralized training over the pooled data would,
/// up to protocol noise; pooled training is therefore the faithful
/// simulation of `U(M_S)` for the XGB rows of Table V (see "Deviations
/// from the paper" in ARCHITECTURE.md).
pub struct GbdtUtility {
    clients: Vec<Dataset>,
    test: Dataset,
    params: GbdtParams,
}

impl GbdtUtility {
    pub fn new(clients: Vec<Dataset>, test: Dataset, params: GbdtParams) -> Self {
        assert!(!clients.is_empty());
        assert_eq!(test.n_classes(), 2, "GBDT utility is binary");
        GbdtUtility {
            clients,
            test,
            params,
        }
    }

    pub fn clients(&self) -> &[Dataset] {
        &self.clients
    }

    pub fn test_set(&self) -> &Dataset {
        &self.test
    }
}

impl Utility for GbdtUtility {
    fn n_clients(&self) -> usize {
        self.clients.len()
    }

    fn eval(&self, s: Coalition) -> f64 {
        let parts: Vec<&Dataset> = s.members().map(|i| &self.clients[i]).collect();
        let pooled = match Dataset::union(parts.iter().copied()) {
            Some(ds) if !ds.is_empty() => ds,
            // No data: constant model at the positive rate prior.
            _ => {
                let model = Gbdt::train(&Dataset::empty(self.test.n_features(), 2), &self.params);
                return model.accuracy(&self.test);
            }
        };
        let model = Gbdt::train(&pooled, &self.params);
        model.accuracy(&self.test)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fedval_core::utility::CachedUtility;
    use fedval_data::{AdultLike, MnistLike, SyntheticSetup};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn mlp_utility(n_clients: usize) -> FlUtility {
        let gen = MnistLike::new(1);
        let (train, test) = gen.generate_split(60 * n_clients, 120, 2);
        let mut rng = StdRng::seed_from_u64(3);
        let clients = SyntheticSetup::SameSizeSameDist.partition(&train, n_clients, &mut rng);
        FlUtility::new(
            clients,
            test,
            ModelSpec::default_mlp(),
            FedAvgConfig::default(),
        )
    }

    #[test]
    fn fl_utility_monotone_on_average() {
        let u = mlp_utility(4);
        let empty = u.eval(Coalition::empty());
        let full = u.eval(Coalition::full(4));
        assert!(full > empty + 0.2, "U(∅)={empty}, U(N)={full}");
        // Utility is within [0, 1] (accuracy).
        assert!((0.0..=1.0).contains(&empty) && (0.0..=1.0).contains(&full));
    }

    #[test]
    fn fl_utility_deterministic_and_cacheable() {
        let u = CachedUtility::new(mlp_utility(3));
        let s = Coalition::from_members([0, 2]);
        let a = u.eval(s);
        let b = u.eval(s);
        assert_eq!(a, b);
        assert_eq!(u.stats().evaluations, 1);
        // Direct (uncached) evaluation agrees.
        assert_eq!(u.inner().eval(s), a);
    }

    #[test]
    fn eval_batch_lane_blocks_match_mapped_eval() {
        use crate::fedavg::train_coalition;
        use fedval_core::coalition::all_subsets;
        let u = mlp_utility(3);
        let coalitions: Vec<Coalition> = all_subsets(3).collect();
        // The solo reference loop, not `eval` (itself a one-lane batch).
        let (input, classes) = (u.test_set().n_features(), u.test_set().n_classes());
        let solo: Vec<f64> = coalitions
            .iter()
            .map(|&s| {
                train_coalition(u.spec(), u.clients(), input, classes, s, u.config())
                    .accuracy(u.test_set())
            })
            .collect();
        for lane_block in [1usize, 2, 3, 8, 16] {
            let u = mlp_utility(3).with_lane_block(lane_block);
            assert_eq!(u.eval_batch(&coalitions), solo, "lane_block {lane_block}");
        }
        let mapped: Vec<f64> = coalitions.iter().map(|&s| u.eval(s)).collect();
        assert_eq!(mapped, solo, "single evaluations");
    }

    #[test]
    fn parallel_fl_evaluation_is_bit_identical_to_serial() {
        use fedval_core::coalition::all_subsets;
        use fedval_core::utility::ParallelUtility;
        // Real FedAvg trainings fanned out across threads must reproduce
        // the serial values exactly (per-coalition determinism makes the
        // result independent of scheduling).
        let serial = mlp_utility(3);
        let coalitions: Vec<Coalition> = all_subsets(3).collect();
        let expected = serial.eval_batch(&coalitions);
        for threads in [2usize, 4] {
            let par = ParallelUtility::with_num_threads(mlp_utility(3), threads);
            assert_eq!(par.eval_batch(&coalitions), expected, "threads={threads}");
        }
    }

    #[test]
    fn gbdt_utility_learns_adult() {
        let gen = AdultLike::new(9);
        let fed = gen.generate_federated(3, 900, 300, 4);
        let u = GbdtUtility::new(
            fed.clients,
            fed.test,
            GbdtParams {
                n_trees: 10,
                ..Default::default()
            },
        );
        let empty = u.eval(Coalition::empty());
        let full = u.eval(Coalition::full(3));
        assert!(full > empty, "U(∅)={empty}, U(N)={full}");
        assert!(full > 0.6);
    }

    #[test]
    fn gbdt_empty_coalition_is_prior_model() {
        let gen = AdultLike::new(10);
        let fed = gen.generate_federated(3, 300, 200, 5);
        let u = GbdtUtility::new(fed.clients, fed.test, GbdtParams::default());
        let empty_acc = u.eval(Coalition::empty());
        // A constant prediction gets the majority-class rate at best.
        assert!((0.0..=1.0).contains(&empty_acc));
    }
}
