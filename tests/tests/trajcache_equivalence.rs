//! The trajectory cache must be invisible in every value: cached and
//! uncached sweeps are bit-identical under both FL algorithms and partial
//! participation — while the cache provably removes
//! the cross-block re-training an exhaustive sweep used to pay (one
//! round-0 local training per client per *sweep*, not per lane block).

// Driver code: test assertions panic by design, so unwrap/expect are
// the failure mechanism, not a robustness gap.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use std::sync::Arc;

use rand::rngs::StdRng;
use rand::SeedableRng;

use fedval_core::coalition::{all_subsets, Coalition};
use fedval_core::utility::{ParallelUtility, Utility};
use fedval_data::{Dataset, MnistLike, SyntheticSetup};
use fedval_fl::{FedAvgConfig, FlAlgorithm, FlUtility, ModelSpec, TrajectoryCache};

fn federated_problem(n_clients: usize) -> (Vec<Dataset>, Dataset) {
    let gen = MnistLike::new(501);
    let (train, test) = gen.generate_split(24 * n_clients, 60, 502);
    let mut rng = StdRng::seed_from_u64(503);
    let clients = SyntheticSetup::SameSizeSameDist.partition(&train, n_clients, &mut rng);
    (clients, test)
}

fn utility(cfg: FedAvgConfig, n: usize) -> FlUtility {
    let (clients, test) = federated_problem(n);
    FlUtility::new(clients, test, ModelSpec::default_mlp(), cfg)
}

/// Cached sweeps must reproduce the solo reference values bit-for-bit in
/// every configuration corner: FedAvg and FedProx, full and partial
/// participation.
#[test]
fn cached_sweeps_bit_identical_to_solo_under_all_configs() {
    let n = 4;
    let coalitions: Vec<Coalition> = all_subsets(n).collect();
    for algorithm in [FlAlgorithm::FedAvg, FlAlgorithm::FedProx { mu: 0.3 }] {
        for participation in [1.0f32, 0.5] {
            let cfg = FedAvgConfig {
                rounds: 2,
                local_epochs: 1,
                seed: 601,
                algorithm,
                participation,
                ..Default::default()
            };
            // Solo reference: FlUtility::eval never touches any cache.
            let u = utility(cfg, n).with_lane_block(3);
            let reference: Vec<f64> = coalitions.iter().map(|&s| u.eval(s)).collect();
            // Trajectory cache off.
            let off = utility(
                FedAvgConfig {
                    traj_cache: false,
                    ..cfg
                },
                n,
            )
            .with_lane_block(3);
            assert_eq!(
                off.eval_batch(&coalitions),
                reference,
                "uncached {algorithm:?} p={participation}"
            );
            // Per-call trajectory cache (the default).
            let per_call = utility(
                FedAvgConfig {
                    traj_cache: true,
                    ..cfg
                },
                n,
            )
            .with_lane_block(3);
            assert_eq!(
                per_call.eval_batch(&coalitions),
                reference,
                "per-call cache {algorithm:?} p={participation}"
            );
            // Shared handle, replayed twice (second pass is all hits).
            let cache = Arc::new(TrajectoryCache::new());
            let shared = utility(cfg, n)
                .with_lane_block(3)
                .with_traj_cache(Arc::clone(&cache));
            assert_eq!(shared.eval_batch(&coalitions), reference);
            let trainings = cache.stats().local_trainings;
            assert!(trainings > 0);
            assert_eq!(
                shared.eval_batch(&coalitions),
                reference,
                "replay {algorithm:?} p={participation}"
            );
            assert_eq!(
                cache.stats().local_trainings,
                trainings,
                "a replayed sweep must train nothing new"
            );
        }
    }
}

/// The tentpole accounting claim: an exact-SV sweep pays round-0 local
/// training once per client per *sweep* with the cache, versus once per
/// client per lane block without it.
#[test]
fn exact_sv_sweep_pays_round0_once_per_client() {
    let n = 5;
    let cfg = FedAvgConfig {
        rounds: 2,
        local_epochs: 1,
        seed: 611,
        ..Default::default()
    };
    let coalitions: Vec<Coalition> = all_subsets(n).collect();
    // Counting-only baseline: identical training path, no hits.
    let baseline = Arc::new(TrajectoryCache::counting_only());
    let u = utility(cfg, n)
        .with_lane_block(4)
        .with_traj_cache(Arc::clone(&baseline));
    let expected = u.eval_batch(&coalitions);
    // Cached sweep over the same blocks.
    let cache = Arc::new(TrajectoryCache::new());
    let u = utility(cfg, n)
        .with_lane_block(4)
        .with_traj_cache(Arc::clone(&cache));
    assert_eq!(u.eval_batch(&coalitions), expected);

    let uncached = baseline.stats();
    let cached = cache.stats();
    assert_eq!(
        cached.round0_trainings, n,
        "cross-block cache must pay round 0 exactly once per client"
    );
    assert!(
        uncached.round0_trainings > n,
        "the uncached sweep re-pays round 0 per block ({} trainings)",
        uncached.round0_trainings
    );
    assert!(
        cached.local_trainings < uncached.local_trainings,
        "cache must reduce total local trainings ({} vs {})",
        cached.local_trainings,
        uncached.local_trainings
    );
    assert!(cached.hits > 0);
    assert_eq!(cached.probes, uncached.probes, "same grouping either way");
}

/// A shared cache handle must stay bit-transparent under the full
/// cache→parallel→lock-step stack: ParallelUtility splits batches into
/// sub-batches (separate `eval_batch` calls), and the shared handle is
/// what carries trajectories across them and across threads.
#[test]
fn shared_cache_is_bit_transparent_under_parallel_fanout() {
    let n = 4;
    let cfg = FedAvgConfig {
        rounds: 2,
        local_epochs: 1,
        seed: 621,
        ..Default::default()
    };
    let coalitions: Vec<Coalition> = all_subsets(n).collect();
    let reference: Vec<f64> = {
        let u = utility(cfg, n);
        coalitions.iter().map(|&s| u.eval(s)).collect()
    };
    for threads in [1usize, 2, 4] {
        let cache = Arc::new(TrajectoryCache::new());
        let par = ParallelUtility::with_num_threads(
            utility(cfg, n).with_traj_cache(Arc::clone(&cache)),
            threads,
        );
        assert_eq!(par.eval_batch(&coalitions), reference, "threads={threads}");
        assert!(cache.stats().local_trainings > 0);
    }
}

/// Single-coalition batches ride the lock-step path when a cache is live,
/// so even degenerate batch shapes share and fill the run's cache —
/// bit-identically to the solo reference.
#[test]
fn single_coalition_batches_use_and_fill_the_shared_cache() {
    let n = 4;
    let cfg = FedAvgConfig {
        rounds: 2,
        local_epochs: 1,
        seed: 631,
        ..Default::default()
    };
    let s = Coalition::from_members([0, 2]);
    let reference = utility(cfg, n).eval(s);
    let cache = Arc::new(TrajectoryCache::new());
    let u = utility(cfg, n).with_traj_cache(Arc::clone(&cache));
    assert_eq!(u.eval_batch(&[s]), vec![reference]);
    let first = cache.stats().local_trainings;
    assert!(first > 0, "the single-lane batch must fill the cache");
    assert_eq!(u.eval_batch(&[s]), vec![reference]);
    assert_eq!(
        cache.stats().local_trainings,
        first,
        "the replay must be served entirely from the cache"
    );
}
