//! The multi-valuation service, end to end: three concurrent valuation
//! requests — exact Shapley, IPSS and leave-one-out — served against
//! **one** FL utility, with their coalition evaluations coalesced into
//! shared lock-step lane blocks over one round-0 trajectory table.
//!
//! The example demonstrates (and asserts) the service's two contracts:
//!
//! 1. **Bit-identical results.** Every request returns exactly the values
//!    it would get running alone against a fresh utility.
//! 2. **Sub-additive cost.** The shared caches make the three runs
//!    together cheaper than the sum of the three runs alone: fewer
//!    distinct models trained (`EvalStats.evaluations`) *and* fewer local
//!    trainings underneath (`TrajCacheStats.local_trainings`).
//!
//! ```sh
//! cargo run --release -p fedval-examples --bin valuation_service
//! ```

#![allow(
    clippy::unwrap_used,
    clippy::expect_used,
    reason = "demo driver: service errors surface by panicking with the message; a real integration would match on the typed ValuationError"
)]

use fedval_core::service::{Estimator, ValuationRequest, ValuationResponse};
use fedval_data::{MnistLike, SyntheticSetup};
use fedval_fl::service::{serve, FlServiceConfig};
use fedval_fl::{FedAvgConfig, FlUtility, ModelSpec};
use rand::rngs::StdRng;
use rand::SeedableRng;

const N_CLIENTS: usize = 6;

/// One training setup, built fresh per server so runs never share state
/// by accident (every `FlUtility` is a pure function of these inputs).
fn fl_utility() -> FlUtility {
    let gen = MnistLike::new(0x5E1);
    let (train, test) = gen.generate_split(30 * N_CLIENTS, 120, 0x5E2);
    let mut rng = StdRng::seed_from_u64(0x5E3);
    let clients = SyntheticSetup::SameSizeSameDist.partition(&train, N_CLIENTS, &mut rng);
    FlUtility::new(
        clients,
        test,
        ModelSpec::default_mlp(),
        FedAvgConfig {
            rounds: 2,
            local_epochs: 1,
            seed: 0x5E4,
            ..Default::default()
        },
    )
}

/// The workload: three queries a data marketplace would ask about one
/// federation — full payouts, a cheap refresh, and a drop-one audit.
fn requests() -> Vec<ValuationRequest> {
    vec![
        ValuationRequest::new(Estimator::ExactMc, 0, 1),
        ValuationRequest::new(Estimator::Ipss, 24, 2),
        ValuationRequest::new(Estimator::Loo, 0, 3),
    ]
}

/// Serve `reqs` on one server; returns the responses plus the server's
/// final (evaluations, local_trainings) totals.
fn run_server(
    reqs: Vec<ValuationRequest>,
    concurrent: bool,
) -> (Vec<ValuationResponse>, usize, usize) {
    let (server, _cache) = serve(fl_utility(), FlServiceConfig::default());
    let responses: Vec<ValuationResponse> = if concurrent {
        let tickets: Vec<_> = reqs.into_iter().map(|r| server.submit(r)).collect();
        tickets
            .into_iter()
            .map(|t| t.wait().expect("healthy demo utility"))
            .collect()
    } else {
        reqs.into_iter()
            .map(|r| server.call(r).expect("healthy demo utility"))
            .collect()
    };
    let stats = server.stats();
    let trainings = stats
        .traj
        .expect("FL service wires traj stats")
        .local_trainings;
    let evals = stats.eval.evaluations;
    server.shutdown();
    (responses, evals, trainings)
}

fn main() {
    println!("valuation_service: {N_CLIENTS} clients, FedAvg MLP, 3 valuation requests\n");

    // Solo baselines: each request alone on a fresh server (fresh caches).
    let mut solo_values = Vec::new();
    let mut solo_evals_sum = 0;
    let mut solo_trainings_sum = 0;
    for req in requests() {
        let (resp, evals, trainings) = run_server(vec![req.clone()], false);
        println!(
            "solo {:?}: {} models trained, {} local trainings",
            req.estimator, evals, trainings
        );
        solo_evals_sum += evals;
        solo_trainings_sum += trainings;
        solo_values.push(resp.into_iter().next().expect("one response").values);
    }
    println!("solo total: {solo_evals_sum} models trained, {solo_trainings_sum} local trainings\n");

    // The service: all three concurrently over one utility.
    let (responses, evals, trainings) = run_server(requests(), true);
    for resp in &responses {
        println!(
            "served {:?}: {} batches ({} coalesced with another run), {} coalition values",
            resp.request.estimator,
            resp.run.batches,
            resp.run.coalesced_batches,
            resp.run.coalitions
        );
    }
    println!("service total: {evals} models trained, {trainings} local trainings");

    // Contract 1: bit-identical to solo execution.
    for (resp, solo) in responses.iter().zip(&solo_values) {
        assert_eq!(
            &resp.values, solo,
            "served {:?} diverged from its solo run",
            resp.request.estimator
        );
    }
    println!("values bit-identical to solo execution: true");

    // Contract 2: the shared caches make the joint run strictly cheaper.
    assert!(
        evals < solo_evals_sum,
        "coalition dedup must bite: {evals} served vs {solo_evals_sum} solo"
    );
    assert!(
        trainings < solo_trainings_sum,
        "trajectory dedup must bite: {trainings} served vs {solo_trainings_sum} solo"
    );
    println!(
        "dedup factors: {:.2}x models, {:.2}x local trainings",
        solo_evals_sum as f64 / evals as f64,
        solo_trainings_sum as f64 / trainings as f64
    );

    // The per-client verdict, from the exact run (efficiency: the values
    // sum to U(N) − U(∅), which is small for this two-round demo).
    let exact = &responses[0];
    println!("\nexact Shapley values (sum = U(N) − U(∅) = {:.4}):", {
        exact.values.iter().sum::<f64>()
    });
    for (i, v) in exact.values.iter().enumerate() {
        println!("  client {i}: {v:+.4}");
    }

    // Failure model: a budget-capped request degrades gracefully instead
    // of erroring — it returns the fold of whatever prefix its budget
    // afforded, flagged partial. `Ticket::wait` returns a Result, so a
    // caller handles faults and limits in one match.
    let (server, _cache) = serve(fl_utility(), FlServiceConfig::default());
    let capped =
        server.submit(ValuationRequest::new(Estimator::Ipss, 24, 2).with_max_evals(1 + N_CLIENTS));
    match capped.wait() {
        Ok(resp) if resp.run.partial => println!(
            "\nbudget-capped IPSS: partial after {} batches ({} evals), values {:?}",
            resp.run.batches, resp.run.coalitions, resp.values
        ),
        Ok(resp) => println!("\nbudget-capped IPSS finished in full: {:?}", resp.values),
        Err(e) => println!("\nbudget-capped IPSS failed: {e}"),
    }
    server.shutdown();
}
