//! The multi-valuation service's contracts over the real FL substrate:
//! concurrent requests coalesce into shared work (strictly fewer models
//! trained and local trainings than the sum of solo runs) while every
//! request's values stay bit-identical to solo execution.

// Driver code: test assertions panic by design, so unwrap/expect are
// the failure mechanism, not a robustness gap.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use rand::rngs::StdRng;
use rand::SeedableRng;

use fedval_core::coalition::Coalition;
use fedval_core::service::{Estimator, ValuationRequest};
use fedval_data::{Dataset, MnistLike, SyntheticSetup};
use fedval_fl::service::{serve, FlServiceConfig};
use fedval_fl::{FedAvgConfig, FlUtility, ModelSpec};

const N_CLIENTS: usize = 4;

fn federated_problem() -> (Vec<Dataset>, Dataset) {
    let gen = MnistLike::new(601);
    let (train, test) = gen.generate_split(24 * N_CLIENTS, 60, 602);
    let mut rng = StdRng::seed_from_u64(603);
    let clients = SyntheticSetup::SameSizeSameDist.partition(&train, N_CLIENTS, &mut rng);
    (clients, test)
}

fn fl_utility() -> FlUtility {
    let (clients, test) = federated_problem();
    FlUtility::new(
        clients,
        test,
        ModelSpec::default_mlp(),
        FedAvgConfig {
            rounds: 2,
            local_epochs: 1,
            seed: 604,
            ..Default::default()
        },
    )
}

fn workload() -> Vec<ValuationRequest> {
    vec![
        ValuationRequest::new(Estimator::ExactMc, 0, 1),
        ValuationRequest::new(Estimator::Ipss, 8, 2),
        ValuationRequest::new(Estimator::Loo, 0, 3),
        ValuationRequest::new(Estimator::StratifiedCc, 8, 4),
    ]
}

/// Serve each request alone on a fresh server; returns per-request
/// values plus the summed (models, local trainings) cost.
fn solo_baseline() -> (Vec<Vec<f64>>, usize, usize, usize) {
    let mut values = Vec::new();
    let mut models = 0;
    let mut trainings = 0;
    let mut round0 = 0;
    for req in workload() {
        let (server, _cache) = serve(fl_utility(), FlServiceConfig::default());
        values.push(server.call(req).expect("healthy run").values);
        let stats = server.stats();
        let traj = stats.traj.expect("traj wired");
        models += stats.eval.evaluations;
        trainings += traj.local_trainings;
        round0 += traj.round0_trainings;
        server.shutdown();
    }
    (values, models, trainings, round0)
}

#[test]
fn concurrent_requests_coalesce_and_stay_bit_identical() {
    let (solo_values, solo_models, solo_trainings, solo_round0) = solo_baseline();

    let (server, cache) = serve(fl_utility(), FlServiceConfig::default());
    let tickets: Vec<_> = workload().into_iter().map(|r| server.submit(r)).collect();
    let responses: Vec<_> = tickets
        .into_iter()
        .map(|t| t.wait().expect("healthy run"))
        .collect();

    // Contract 1: bit-identical to solo execution, per request.
    for (resp, solo) in responses.iter().zip(&solo_values) {
        assert_eq!(
            &resp.values, solo,
            "{:?} diverged under coalescing",
            resp.request.estimator
        );
    }

    // Contract 2: strictly cheaper than the sum of solo runs, at both
    // accounting levels.
    let stats = server.stats();
    let traj = stats.traj.expect("traj wired");
    assert!(
        stats.eval.evaluations < solo_models,
        "coalition dedup: {} served vs {} solo",
        stats.eval.evaluations,
        solo_models
    );
    assert!(
        traj.local_trainings < solo_trainings,
        "trajectory dedup: {} served vs {} solo",
        traj.local_trainings,
        solo_trainings
    );
    // Round 0 collapses to roughly one local training per client for the
    // whole service lifetime — the strongest cross-run sharing signal.
    // Not exactly one: concurrent lane blocks may race on a trajectory
    // and each count a (bit-identical) training, so assert the dedup
    // against the solo sum instead of an exact count.
    assert!(
        traj.round0_trainings >= N_CLIENTS && traj.round0_trainings < solo_round0,
        "round-0 dedup: {} served vs {} solo",
        traj.round0_trainings,
        solo_round0
    );

    // The trajectory stats the server reports come from the same handle
    // `serve` returned.
    assert_eq!(traj.local_trainings, cache.stats().local_trainings);
    server.shutdown();
}

#[test]
fn subgame_requests_share_the_global_coalition_space() {
    // A sub-game request's coalitions are global masks: valuing {0,1,2}
    // after a full exact sweep must train nothing new.
    let (server, _cache) = serve(fl_utility(), FlServiceConfig::default());
    let full = server
        .call(ValuationRequest::new(Estimator::ExactMc, 0, 1))
        .expect("healthy run");
    let models_after_full = full.service.eval.evaluations;
    let sub = server
        .call(
            ValuationRequest::new(Estimator::ExactMc, 0, 1)
                .for_clients(Coalition::from_members([0, 1, 2])),
        )
        .expect("healthy run");
    assert_eq!(sub.clients, vec![0, 1, 2]);
    assert_eq!(
        sub.service.eval.evaluations, models_after_full,
        "sub-game coalitions must all be cache hits"
    );
    server.shutdown();
}
