//! The round-0 trajectory table must be invisible in every value: sweeps
//! through it are bit-identical to the solo loop — while it provably pays
//! round 0 once per client per *sweep* (not per lane block), loses none of
//! the hits the per-round cache it replaced found, and holds at most one
//! update per client.

use std::sync::Arc;

use rand::rngs::StdRng;
use rand::SeedableRng;

use fedval_core::coalition::{all_subsets, Coalition};
use fedval_core::utility::{ParallelUtility, TrajCacheStats, Utility};
use fedval_data::{Dataset, MnistLike, SyntheticSetup};
use fedval_fl::{train_coalition, FedAvgConfig, FlUtility, ModelSpec, TrajectoryCache};

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

/// `U(s)` by the solo reference loop, which never touches a table —
/// unlike `eval`, a one-lane batch that reads and fills the utility's own.
fn solo_value(u: &FlUtility, s: Coalition) -> f64 {
    let test = u.test_set();
    let (input, classes) = (test.n_features(), test.n_classes());
    train_coalition(u.spec(), u.clients(), input, classes, s, u.config()).accuracy(test)
}

/// The memory bound: at most one `p`-float update per client.
fn assert_one_update_per_client(stats: TrajCacheStats, u: &FlUtility) {
    let test = u.test_set();
    let p = u
        .spec()
        .build(test.n_features(), test.n_classes(), 0)
        .param_count();
    assert!(stats.entries <= u.n_clients(), "{stats:?}");
    assert_eq!(stats.bytes, stats.entries * p * 4, "{stats:?}");
    assert_eq!(stats.evictions, 0);
}

/// Table sweeps must reproduce the solo reference values bit-for-bit
/// across FedAvg configurations — one round (round 0 is everything), two,
/// and three rounds of two local epochs — and a replay through the filled
/// table must train nothing in round 0 and exactly the later rounds again.
#[test]
fn cached_sweeps_bit_identical_to_solo_under_all_configs() {
    let n = 4;
    let coalitions: Vec<Coalition> = all_subsets(n).collect();
    for (rounds, local_epochs) in [(1, 1), (2, 1), (3, 2)] {
        let cfg = FedAvgConfig {
            rounds,
            local_epochs,
            seed: 601,
            ..Default::default()
        };
        let u = utility(cfg, n).with_lane_block(3);
        let reference: Vec<f64> = coalitions.iter().map(|&s| solo_value(&u, s)).collect();
        let label = format!("rounds={rounds} local_epochs={local_epochs}");
        assert_eq!(u.eval_batch(&coalitions), reference, "sweep {label}");
        let first = u.traj_cache().stats();
        assert_eq!(first.round0_trainings, n, "{label}: {first:?}");
        assert_eq!(u.eval_batch(&coalitions), reference, "replay {label}");
        let second = u.traj_cache().stats();
        assert_eq!(
            second.round0_trainings, first.round0_trainings,
            "{label}: a replay trains nothing in round 0"
        );
        assert_eq!(
            second.local_trainings - first.local_trainings,
            first.local_trainings - first.round0_trainings,
            "{label}: a replay retrains exactly rounds ≥ 1"
        );
        assert_one_update_per_client(second, &u);
    }
}

/// Local trainings of this sweep under the per-round cache the round-0
/// table replaced, recorded at its last commit: the table must match it,
/// i.e. lose no hit.
const PER_ROUND_CACHE_TRAININGS: usize = 85;

/// The accounting claim: an exact-SV sweep pays round-0 local training
/// once per client per *sweep* — not once per client per lane block — and
/// that is every training the per-round cache ever saved.
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
    let u = utility(cfg, n).with_lane_block(4);
    let reference: Vec<f64> = coalitions.iter().map(|&s| solo_value(&u, s)).collect();
    assert_eq!(u.eval_batch(&coalitions), reference);

    let stats = u.traj_cache().stats();
    assert_eq!(
        stats.round0_trainings, n,
        "round 0 must be paid exactly once per client"
    );
    // Serially, each client's first round-0 probe misses and every later
    // one hits; rounds ≥ 1 never probe.
    assert_eq!(stats.hits, stats.probes - n, "{stats:?}");
    assert!(stats.hits > 0);
    assert_eq!(
        stats.local_trainings, PER_ROUND_CACHE_TRAININGS,
        "a hit of the per-round cache was lost"
    );
    assert_one_update_per_client(stats, &u);
}

/// A shared table handle must stay bit-transparent under the full
/// cache→parallel→lock-step stack: ParallelUtility splits batches into
/// sub-batches (separate `eval_batch` calls) on several threads, all
/// probing and filling the one table.
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
        coalitions.iter().map(|&s| solo_value(&u, s)).collect()
    };
    for threads in [1usize, 2, 4] {
        let cache = Arc::new(TrajectoryCache::new());
        let u = utility(cfg, n).with_traj_cache(Arc::clone(&cache));
        let par = ParallelUtility::with_num_threads(u, threads);
        assert_eq!(par.eval_batch(&coalitions), reference, "threads={threads}");
        let stats = cache.stats();
        assert!(stats.round0_trainings >= n, "threads={threads}: {stats:?}");
        assert_one_update_per_client(stats, par.inner());
    }
}

/// Single-coalition batches ride the lock-step path too — and so does
/// `eval` — so even degenerate batch shapes fill and reuse the table,
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
    let reference = solo_value(&utility(cfg, n), s);
    let cache = Arc::new(TrajectoryCache::new());
    let u = utility(cfg, n).with_traj_cache(Arc::clone(&cache));
    assert_eq!(u.eval_batch(&[s]), vec![reference]);
    let first = cache.stats();
    assert_eq!(
        (first.round0_trainings, first.entries),
        (2, 2),
        "the single-lane batch fills both members' slots"
    );
    // `eval` is the same one-lane batch: its replay reads the table too.
    assert_eq!(u.eval(s), reference);
    let second = cache.stats();
    assert_eq!(second.hits, 2, "the replay's round 0 comes from the table");
    assert_eq!(
        second.local_trainings - first.local_trainings,
        first.local_trainings - first.round0_trainings,
        "the replay retrains exactly rounds ≥ 1"
    );
}
