//! Lock-step multi-coalition training must be bit-identical to solo
//! training — the determinism contract of the batched FedAvg engine.
//!
//! `train_coalitions` advances B parameter lanes through one pass over the
//! client data; every lane's trajectory must match the per-coalition
//! `train_coalition` reference loop bit-for-bit, for any lane count, any
//! model family and any FedAvg configuration the workspace exercises. On
//! top, `FlUtility::eval_batch` (size-sorted lane blocks) and `eval` (a
//! one-lane batch) must reproduce the solo loop's utilities exactly, and
//! the composed cached/parallel stack must keep counting one training per
//! distinct coalition.

use rand::rngs::StdRng;
use rand::SeedableRng;

use fedval_core::coalition::{all_subsets, Coalition};
use fedval_core::utility::{CachedUtility, ParallelUtility, Utility};
use fedval_data::{Dataset, MnistLike, SyntheticSetup};
use fedval_fl::{train_coalition, train_coalitions, FedAvgConfig, FlUtility, ModelSpec};

fn federated_problem(n_clients: usize, per_client: usize) -> (Vec<Dataset>, Dataset) {
    let gen = MnistLike::new(77);
    let (train, test) = gen.generate_split(per_client * n_clients, 80, 78);
    let mut rng = StdRng::seed_from_u64(79);
    let clients = SyntheticSetup::SameSizeSameDist.partition(&train, n_clients, &mut rng);
    (clients, test)
}

/// A spread of coalitions over `n` clients: empty, singletons, pairs, the
/// grand coalition — `count` of them, deterministic.
fn coalition_spread(n: usize, count: usize) -> Vec<Coalition> {
    let mut out = vec![
        Coalition::empty(),
        Coalition::full(n),
        Coalition::singleton(0),
        Coalition::from_members([0, n - 1]),
        Coalition::from_members(0..n.min(3)),
        Coalition::singleton(n - 1),
        Coalition::from_members([1, 2]),
        Coalition::from_members((0..n).filter(|i| i % 2 == 0)),
    ];
    out.truncate(count.max(1));
    out.truncate(1usize << n); // never more than exist
    out
}

#[test]
fn batched_equals_solo_for_every_lane_count_and_spec() {
    let (clients, _) = federated_problem(4, 30);
    let cfg = FedAvgConfig {
        rounds: 2,
        local_epochs: 1,
        lr: 0.1,
        seed: 1001,
        ..Default::default()
    };
    let specs = [
        ModelSpec::default_mlp(),
        ModelSpec::Mlp {
            hidden: vec![24, 16],
        },
        ModelSpec::Linear,
        ModelSpec::Cnn { side: 8 },
    ];
    for spec in &specs {
        for lanes in [1usize, 3, 8] {
            let batch = coalition_spread(4, lanes);
            let nets = train_coalitions(spec, &clients, 64, 10, &batch, &cfg);
            assert_eq!(nets.len(), batch.len());
            for (s, net) in batch.iter().zip(&nets) {
                let solo = train_coalition(spec, &clients, 64, 10, *s, &cfg);
                assert_eq!(
                    net.params(),
                    solo.params(),
                    "{} B={lanes} coalition {s:?} diverged from solo",
                    spec.name()
                );
            }
        }
    }
}

fn fl_utility(n: usize) -> FlUtility {
    let (clients, test) = federated_problem(n, 24);
    FlUtility::new(
        clients,
        test,
        ModelSpec::default_mlp(),
        FedAvgConfig {
            rounds: 2,
            local_epochs: 1,
            lr: 0.15,
            seed: 4004,
            ..Default::default()
        },
    )
}

/// `U(s)` by the solo reference loop — not `eval`, itself a one-lane
/// batch through the engine under test.
fn solo_value(u: &FlUtility, s: Coalition) -> f64 {
    let test = u.test_set();
    let (input, classes) = (test.n_features(), test.n_classes());
    train_coalition(u.spec(), u.clients(), input, classes, s, u.config()).accuracy(test)
}

#[test]
fn fl_eval_batch_is_bit_identical_to_mapped_eval() {
    let u = fl_utility(3);
    // All subsets plus duplicates, in scrambled order.
    let mut coalitions: Vec<Coalition> = all_subsets(3).collect();
    coalitions.push(Coalition::from_members([0, 2]));
    coalitions.push(Coalition::empty());
    coalitions.reverse();
    let solo: Vec<f64> = coalitions.iter().map(|&s| solo_value(&u, s)).collect();
    for lane_block in [1usize, 3, 8] {
        let u = fl_utility(3).with_lane_block(lane_block);
        assert_eq!(
            u.eval_batch(&coalitions),
            solo,
            "lane_block {lane_block} diverged from the solo loop"
        );
    }
    let mapped: Vec<f64> = coalitions.iter().map(|&s| u.eval(s)).collect();
    assert_eq!(
        mapped, solo,
        "single evaluations diverged from the solo loop"
    );
}

#[test]
fn cached_parallel_lockstep_stack_is_deterministic_and_counts_once() {
    // The full composition the valuation algorithms run on: cache dedups,
    // the parallel adapter spreads sub-batches, the FL utility trains each
    // sub-batch in lock-step. Values must match the serial mapped path at
    // every thread count, and each distinct coalition must be trained
    // exactly once.
    let serial = fl_utility(3);
    let coalitions: Vec<Coalition> = all_subsets(3).collect();
    let expected: Vec<f64> = coalitions.iter().map(|&s| solo_value(&serial, s)).collect();
    for threads in [1usize, 2, 4] {
        let u = CachedUtility::new(ParallelUtility::with_num_threads(fl_utility(3), threads));
        // Duplicate the batch: the cache must still train each coalition
        // exactly once.
        let mut doubled = coalitions.clone();
        doubled.extend_from_slice(&coalitions);
        let got = u.eval_batch(&doubled);
        assert_eq!(&got[..coalitions.len()], &expected[..], "threads {threads}");
        assert_eq!(&got[coalitions.len()..], &expected[..], "threads {threads}");
        assert_eq!(u.stats().evaluations, coalitions.len(), "threads {threads}");
    }
}
