//! The valuation service's failure model, driven by the deterministic
//! [`FaultyUtility`] injector: fault isolation (only the requests whose
//! coalitions fault see errors), retry-through-backoff (transient faults
//! heal and results stay bit-identical to the fault-free same-seed run),
//! graceful degradation (deadline/budget overruns return the exact
//! partial-prefix fold), bounded-latency flushing (the window caps park
//! wait without changing any value), and shutdown draining (every
//! outstanding ticket resolves).
//!
//! Set `FEDVAL_FAULTS=<rounds>` to widen the seeded fault sweep, as CI's
//! fault-injection job does.

#![allow(
    clippy::unwrap_used,
    clippy::expect_used,
    reason = "helpers outside #[test] functions: a failed setup panics, which is the test failing"
)]
#![allow(
    clippy::disallowed_methods,
    reason = "wall-clock here only bounds how long shutdown may take to drain, never a computed value"
)]

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::SeedableRng;

use fedval_core::coalition::{Coalition, MAX_ENUMERATED_CLIENTS};
use fedval_core::fault::{FaultyUtility, PERSISTENT};
use fedval_core::ipss::{ipss, IpssConfig};
use fedval_core::owen::OwenConfig;
use fedval_core::service::{
    partial_prefix_fold, Estimator, LimitPolicy, RetryPolicy, Ticket, ValuationError,
    ValuationRequest, ValuationResponse, ValuationServer,
};
use fedval_core::utility::{HashUtility, TrajCacheStats, Utility};

fn ok(result: Result<ValuationResponse, ValuationError>) -> ValuationResponse {
    match result {
        Ok(resp) => resp,
        Err(e) => panic!("request failed: {e}"),
    }
}

/// Fault-free same-seed baseline for one request.
fn baseline(n: usize, seed: u64, req: ValuationRequest) -> Vec<f64> {
    let server = ValuationServer::start(HashUtility { n, seed });
    let values = ok(server.call(req)).values;
    server.shutdown();
    values
}

// ---------------------------------------------------------------------
// Isolation: a persistent fault errors exactly the requests that touch
// the faulty coalition; concurrent peers stay bit-identical.
// ---------------------------------------------------------------------

#[test]
fn persistent_fault_fails_only_the_requests_that_touch_it() {
    // The faulty mask has size 7; IPSS with γ = 37 on n = 8 evaluates
    // strata 0..=2 only (1 + 8 + 28), so it never touches the mask, while
    // the exhaustive sweep must.
    let faulty = Coalition::from_members([0, 1, 2, 3, 4, 5, 6]);
    let inner = HashUtility { n: 8, seed: 31 };
    let server =
        ValuationServer::builder(FaultyUtility::new(inner).panic_on_coalition(faulty, PERSISTENT))
            .retry_policy(RetryPolicy {
                max_retries: 2,
                backoff_base: Duration::from_millis(1),
                backoff_cap: Duration::from_millis(4),
            })
            .start();
    let sweep = server.submit(ValuationRequest::new(Estimator::ExactMc, 0, 1));
    let ipss = server.submit(ValuationRequest::new(Estimator::Ipss, 37, 2));

    match sweep.wait() {
        Err(ValuationError::UtilityPanicked { attempts, detail }) => {
            assert_eq!(attempts, 3, "flushed attempt + 2 retries");
            assert!(
                detail.contains("injected fault"),
                "payload survives: {detail}"
            );
        }
        other => panic!("the sweep must fail on the persistent fault, got {other:?}"),
    }
    let ipss_resp = ok(ipss.wait());
    assert_eq!(
        ipss_resp.values,
        baseline(8, 31, ValuationRequest::new(Estimator::Ipss, 37, 2)),
        "an unaffected peer must stay bit-identical to its fault-free run"
    );
    assert!(!ipss_resp.run.partial);

    // The server survives the failed request and keeps serving (γ = 9
    // stays in strata 0..=1, clear of the faulty size-7 mask — unlike
    // LOO, which would evaluate N∖{7} and trip it again).
    let after = ok(server.call(ValuationRequest::new(Estimator::Ipss, 9, 3)));
    assert_eq!(
        after.values,
        baseline(8, 31, ValuationRequest::new(Estimator::Ipss, 9, 3))
    );
    let stats = server.stats();
    assert!(stats.failed_flushes >= 1, "the sweep's flush was poisoned");
    assert!(stats.retries >= 2, "the sweep retried before giving up");
    server.shutdown();
}

// ---------------------------------------------------------------------
// Retry: seeded transient faults heal through backoff; every concurrent
// request completes bit-identical to the fault-free same-seed run.
// ---------------------------------------------------------------------

#[test]
fn transient_faults_heal_and_results_stay_bit_identical() {
    let n = 7;
    let inner = HashUtility { n, seed: 5 };
    let reqs = || {
        vec![
            ValuationRequest::new(Estimator::ExactMc, 0, 1),
            ValuationRequest::new(Estimator::Ipss, 29, 2),
            ValuationRequest::new(Estimator::StratifiedCc, 21, 3),
        ]
    };
    // 1-in-4 of the 128 masks fault on first evaluation, then heal.
    let server = ValuationServer::builder(FaultyUtility::new(inner).seeded_faults(99, 4)).start();
    let tickets: Vec<Ticket> = reqs().into_iter().map(|r| server.submit(r)).collect();
    let responses: Vec<ValuationResponse> = tickets.into_iter().map(|t| ok(t.wait())).collect();
    for (resp, req) in responses.iter().zip(reqs()) {
        assert_eq!(
            resp.values,
            baseline(n, 5, req),
            "{:?} diverged after healing from transient faults",
            resp.request.estimator
        );
        assert!(!resp.run.partial);
    }
    let stats = server.stats();
    assert!(
        stats.failed_flushes >= 1,
        "1-in-4 faults must poison a flush"
    );
    assert!(stats.retries >= 1, "healing requires at least one retry");
    assert!(
        stats.eval.lookups > stats.distinct_coalitions,
        "retry traffic bypasses the coalescer and shows up as extra lookups"
    );
    server.shutdown();
}

// ---------------------------------------------------------------------
// Graceful degradation: deadlines and budgets at batch boundaries.
// ---------------------------------------------------------------------

/// Records every `(coalition, value)` pair an estimator evaluates, per
/// batch — the oracle for partial-prefix reproduction.
struct Recorder {
    inner: HashUtility,
    batches: Mutex<Vec<Vec<(Coalition, f64)>>>,
}

impl Utility for Recorder {
    fn n_clients(&self) -> usize {
        self.inner.n_clients()
    }
    fn eval(&self, s: Coalition) -> f64 {
        self.eval_batch(std::slice::from_ref(&s))[0]
    }
    fn eval_batch(&self, coalitions: &[Coalition]) -> Vec<f64> {
        let values = self.inner.eval_batch(coalitions);
        self.batches.lock().unwrap().push(
            coalitions
                .iter()
                .copied()
                .zip(values.iter().copied())
                .collect(),
        );
        values
    }
}

/// The `(coalition, value)` prefix of the first `k` batches of a solo
/// IPSS run with the given seed.
fn ipss_prefix(n: usize, useed: u64, gamma: usize, seed: u64, k: usize) -> Vec<(Coalition, f64)> {
    let rec = Recorder {
        inner: HashUtility { n, seed: useed },
        batches: Mutex::new(Vec::new()),
    };
    let mut rng = StdRng::seed_from_u64(seed);
    let _ = ipss(&rec, &IpssConfig::new(gamma), &mut rng);
    let batches = rec.batches.into_inner().unwrap();
    assert!(
        batches.len() >= k,
        "run has {} batches, need {k}",
        batches.len()
    );
    batches.into_iter().take(k).flatten().collect()
}

#[test]
fn budget_overrun_returns_the_exact_partial_prefix() {
    // IPSS on n = 8 with γ = 93 schedules 4 batches (1 + 8 + 28 + 56);
    // max_evals = 37 admits exactly the first three.
    let server = ValuationServer::start(HashUtility { n: 8, seed: 17 });
    let resp = ok(server.call(ValuationRequest::new(Estimator::Ipss, 93, 4).with_max_evals(37)));
    assert!(resp.run.partial, "overrunning the budget must mark partial");
    assert_eq!(resp.run.batches, 3, "the 56-wide batch must not start");
    assert_eq!(resp.run.coalitions, 37);

    // The partial values are the fold of the full run's 3-batch prefix —
    // bit-identical, not approximately equal.
    let prefix = ipss_prefix(8, 17, 93, 4, 3);
    assert_eq!(prefix.len(), 37);
    assert_eq!(resp.values, partial_prefix_fold(8, &prefix));
    server.shutdown();
}

#[test]
fn deadline_overrun_returns_the_same_prefix_as_a_budget_cut() {
    // A 300 ms delay on a stratum-2 coalition pushes the run past its
    // 100 ms deadline while batch 3 is in flight; the boundary before
    // batch 4 fires, leaving the same 3-batch prefix as the budget test.
    let slow = Coalition::from_members([0, 1]);
    let inner = HashUtility { n: 8, seed: 17 };
    let server = ValuationServer::builder(FaultyUtility::new(inner).delay_on_coalition(
        slow,
        Duration::from_millis(300),
        1,
    ))
    .start();
    let resp = ok(server.call(
        ValuationRequest::new(Estimator::Ipss, 93, 4).with_deadline(Duration::from_millis(100)),
    ));
    assert!(resp.run.partial);
    assert_eq!(resp.run.batches, 3);
    let prefix = ipss_prefix(8, 17, 93, 4, 3);
    assert_eq!(resp.values, partial_prefix_fold(8, &prefix));
    server.shutdown();
}

#[test]
fn zero_deadline_degrades_to_an_empty_partial_response() {
    let server = ValuationServer::start(HashUtility { n: 6, seed: 2 });
    let resp =
        ok(server
            .call(ValuationRequest::new(Estimator::Ipss, 22, 1).with_deadline(Duration::ZERO)));
    assert!(resp.run.partial);
    assert_eq!(resp.run.batches, 0, "no batch may start past the deadline");
    assert_eq!(resp.values, vec![0.0; 6], "the empty prefix folds to zeros");
    server.shutdown();
}

#[test]
fn fail_policy_surfaces_the_typed_limit_errors() {
    let server = ValuationServer::start(HashUtility { n: 6, seed: 2 });
    let deadline = server.call(
        ValuationRequest::new(Estimator::Ipss, 22, 1)
            .with_deadline(Duration::ZERO)
            .on_limit(LimitPolicy::Fail),
    );
    assert!(matches!(
        deadline,
        Err(ValuationError::DeadlineExceeded { .. })
    ));
    let budget = server.call(
        ValuationRequest::new(Estimator::Ipss, 22, 1)
            .with_max_evals(6)
            .on_limit(LimitPolicy::Fail),
    );
    match budget {
        Err(ValuationError::BudgetExhausted {
            consumed,
            max_evals,
            next_batch,
        }) => {
            assert_eq!((consumed, max_evals, next_batch), (1, 6, 6));
        }
        other => panic!("expected BudgetExhausted, got {other:?}"),
    }
    server.shutdown();
}

// ---------------------------------------------------------------------
// Bounded-latency flushing: the window caps park wait without changing
// any returned value.
// ---------------------------------------------------------------------

/// Run the window experiment: B (one big exhaustive batch) hits a
/// one-shot fault and sleeps through a 300 ms retry backoff; A (small
/// IPSS batches) arrives mid-backoff. Under the pure barrier A's first
/// batch waits for B's recovery; under a 5 ms window it flushes alone.
fn window_experiment(max_wait: Option<Duration>) -> (ValuationResponse, ValuationResponse) {
    let faulty = Coalition::full(6); // touched by the sweep only (IPSS γ=22 stops at |S|=2)
    let inner = HashUtility { n: 6, seed: 13 };
    let mut builder =
        ValuationServer::builder(FaultyUtility::new(inner).panic_on_coalition(faulty, 1))
            .retry_policy(RetryPolicy {
                max_retries: 1,
                backoff_base: Duration::from_millis(300),
                backoff_cap: Duration::from_millis(300),
            });
    if let Some(w) = max_wait {
        builder = builder.flush_window(w);
    }
    let server = builder.start();
    let sweep = server.submit(ValuationRequest::new(Estimator::ExactMc, 0, 1));
    // Let B park, flush, fault, and enter its 300 ms backoff sleep.
    std::thread::sleep(Duration::from_millis(30));
    let ipss = server.submit(ValuationRequest::new(Estimator::Ipss, 22, 2));
    let ipss_resp = ok(ipss.wait());
    let sweep_resp = ok(sweep.wait());
    server.shutdown();
    (sweep_resp, ipss_resp)
}

#[test]
fn flush_window_bounds_park_wait_without_changing_values() {
    let (sweep_barrier, ipss_barrier) = window_experiment(None);
    let (sweep_windowed, ipss_windowed) = window_experiment(Some(Duration::from_millis(5)));

    // Both modes recover from the transient fault and agree bit-for-bit
    // with the fault-free baselines.
    let sweep_base = baseline(6, 13, ValuationRequest::new(Estimator::ExactMc, 0, 1));
    let ipss_base = baseline(6, 13, ValuationRequest::new(Estimator::Ipss, 22, 2));
    assert_eq!(sweep_barrier.values, sweep_base);
    assert_eq!(sweep_windowed.values, sweep_base);
    assert_eq!(ipss_barrier.values, ipss_base);
    assert_eq!(ipss_windowed.values, ipss_base);
    assert_eq!(
        sweep_barrier.run.retries, 1,
        "one retry heals the one-shot fault"
    );

    // The latency contract: under the barrier, A is coupled to B's 300 ms
    // recovery; the 5 ms window decouples them (generous margins for CI).
    assert!(
        ipss_barrier.run.park_wait_max >= Duration::from_millis(150),
        "barrier mode must couple A to B's backoff, waited {:?}",
        ipss_barrier.run.park_wait_max
    );
    assert!(
        ipss_windowed.run.park_wait_max <= Duration::from_millis(100),
        "a 5 ms window must bound A's park wait, waited {:?}",
        ipss_windowed.run.park_wait_max
    );
}

// ---------------------------------------------------------------------
// Shutdown: every outstanding ticket resolves with the typed error.
// ---------------------------------------------------------------------

#[test]
fn shutdown_drains_every_inflight_ticket() {
    // 1 ms per evaluation makes the 79-evaluation runs slow enough that
    // shutdown lands mid-flight; completion would need ≥ 79 ms.
    let inner = HashUtility { n: 12, seed: 44 };
    let server = ValuationServer::builder(
        FaultyUtility::new(inner).delay_every_evals(1, Duration::from_millis(1)),
    )
    .start();
    let tickets: Vec<Ticket> = (0..4)
        .map(|i| server.submit(ValuationRequest::new(Estimator::Ipss, 79, i)))
        .collect();
    std::thread::sleep(Duration::from_millis(5));
    let start = Instant::now();
    server.shutdown();
    for t in tickets {
        match t.wait() {
            Err(ValuationError::ServerShutdown) => {}
            other => panic!("expected ServerShutdown for every in-flight ticket, got {other:?}"),
        }
    }
    assert!(
        start.elapsed() < Duration::from_secs(5),
        "draining must not hang"
    );
}

#[test]
fn dropping_the_server_drains_like_shutdown() {
    // Dropping instead of calling `shutdown` must take the same drain
    // path: every outstanding ticket resolves with the typed error.
    let inner = HashUtility { n: 12, seed: 45 };
    let tickets: Vec<Ticket> = {
        let server = ValuationServer::builder(
            FaultyUtility::new(inner).delay_every_evals(1, Duration::from_millis(1)),
        )
        .start();
        let tickets = (0..2)
            .map(|i| server.submit(ValuationRequest::new(Estimator::Ipss, 79, i)))
            .collect();
        std::thread::sleep(Duration::from_millis(5));
        tickets
        // server dropped here
    };
    for t in tickets {
        match t.wait() {
            Err(ValuationError::ServerShutdown) => {}
            other => panic!("expected ServerShutdown after drop, got {other:?}"),
        }
    }
}

// ---------------------------------------------------------------------
// PR 5's untested guards: a dying run must not deadlock peers, and a
// poisoned flush must not corrupt the service counters.
// ---------------------------------------------------------------------

#[test]
fn dying_run_deregisters_and_peers_complete() {
    let server = ValuationServer::start(HashUtility { n: 8, seed: 6 });
    // IPSS with budget 0 is registered with the burst, then rejected
    // before parking anything.
    let dying = server.submit(ValuationRequest::new(Estimator::Ipss, 0, 1));
    let peer = server.submit(ValuationRequest::new(Estimator::ExactMc, 0, 2));
    match dying.wait() {
        Err(ValuationError::InvalidRequest { detail }) => {
            assert!(detail.contains("budget"), "the reason survives: {detail}");
        }
        other => panic!("expected InvalidRequest, got {other:?}"),
    }
    let peer_resp = ok(peer.wait());
    assert_eq!(
        peer_resp.values,
        baseline(8, 6, ValuationRequest::new(Estimator::ExactMc, 0, 2)),
        "the peer must complete despite the dying run"
    );
    server.shutdown();
}

#[test]
fn bookkeeping_panic_is_worker_lost_on_both_paths_and_the_server_heals() {
    // The stats source runs while a response is assembled, outside the
    // estimator's typed failure paths; it panics on its first two reads.
    let reads = AtomicUsize::new(0);
    let server = ValuationServer::builder(HashUtility { n: 5, seed: 8 })
        .traj_stats(move || {
            assert!(
                reads.fetch_add(1, Ordering::Relaxed) >= 2,
                "stats source failed"
            );
            TrajCacheStats::default()
        })
        .start();
    let req = || ValuationRequest::new(Estimator::ExactMc, 0, 1);
    assert_eq!(
        server.call(req()).map(|r| r.values),
        Err(ValuationError::WorkerLost),
        "an inline panic must not unwind into the caller"
    );
    assert_eq!(
        server.submit(req()).wait().map(|r| r.values),
        Err(ValuationError::WorkerLost)
    );
    // Both runs deregistered while unwinding: a lone call still flushes.
    assert_eq!(ok(server.call(req())).values, baseline(5, 8, req()));
    server.shutdown();
}

// ---------------------------------------------------------------------
// Boundary games: no estimator, at no budget, panics on a tiny or a
// 128-client game.
// ---------------------------------------------------------------------

#[test]
fn tiny_games_answer_every_estimator_with_a_response_or_a_typed_error() {
    use Estimator::*;
    let estimators = [
        ExactMc,
        ExactCc,
        Ipss,
        StratifiedMc,
        StratifiedCc,
        Owen,
        BanzhafPruned,
        Loo,
    ];
    for n in [0, 1, 2, 25, 127, 128] {
        let server = ValuationServer::start(HashUtility { n, seed: 3 });
        for budget in 0..=1 {
            for estimator in estimators {
                let cell = format!("n = {n}, budget = {budget}, {estimator:?}");
                // A 0-client game is rejected before any estimator runs;
                // a sampled schedule needs γ ≥ 1 (the pruned ones to pay
                // for U(∅), Alg. 1 to draw anything); the exact sweeps
                // enumerate at most 2^24 coalitions; Owen's coarsest grid,
                // one draw per node, costs 4·(n + 1) evaluations.
                let invalid = n == 0
                    || (budget == 0
                        && matches!(
                            estimator,
                            Ipss | BanzhafPruned | StratifiedMc | StratifiedCc
                        ))
                    || (n > MAX_ENUMERATED_CLIENTS && matches!(estimator, ExactMc | ExactCc))
                    || (estimator == Owen && budget < OwenConfig::new(4, 1).evaluations(n));
                match server.call(ValuationRequest::new(estimator, budget, 1)) {
                    Ok(resp) => {
                        assert!(!invalid, "{cell}: must be rejected as invalid");
                        assert_eq!(resp.values.len(), n, "{cell}");
                        assert!(resp.values.iter().all(|v| v.is_finite()), "{cell}");
                    }
                    Err(ValuationError::InvalidRequest { .. }) if invalid => {}
                    Err(e) => panic!("{cell}: {e}"),
                }
            }
        }
        server.shutdown();
    }
}

#[test]
fn poisoned_flush_leaves_exact_counters_after_recovery() {
    // Solo IPSS on n = 6, γ = 22: three deterministic batches (1 + 6 + 15).
    // A one-shot fault on the pair {0, 1} poisons exactly the third flush.
    let faulty = Coalition::from_members([0, 1]);
    let inner = HashUtility { n: 6, seed: 3 };
    let server =
        ValuationServer::builder(FaultyUtility::new(inner).panic_on_coalition(faulty, 1)).start();
    let resp = ok(server.call(ValuationRequest::new(Estimator::Ipss, 22, 9)));
    assert_eq!(
        resp.values,
        baseline(6, 3, ValuationRequest::new(Estimator::Ipss, 22, 9)),
        "recovery must be bit-identical"
    );
    assert_eq!(resp.run.retries, 1);
    assert!(!resp.run.partial);

    let stats = server.stats();
    assert_eq!(stats.flushes, 3, "one flush per IPSS batch");
    assert_eq!(stats.merged_batches, 3);
    assert_eq!(
        stats.failed_flushes, 1,
        "exactly the {{0,1}} flush poisoned"
    );
    assert_eq!(stats.retries, 1, "one direct retry healed it");
    assert_eq!(
        stats.distinct_coalitions, 7,
        "only the two successful flushes (1 + 6) count"
    );
    // Cache accounting: 22 lookups through flushes (1 + 6 + 15) plus the
    // 15-wide retry = 37; the poisoned attempt trained nothing, so the 22
    // distinct coalitions were each trained exactly once.
    assert_eq!(stats.eval.lookups, 37);
    assert_eq!(stats.eval.evaluations, 22);
    server.shutdown();
}

// ---------------------------------------------------------------------
// wait_timeout: polling without blocking forever.
// ---------------------------------------------------------------------

#[test]
fn wait_timeout_polls_then_delivers() {
    // 2 ms per evaluation × 64 coalitions ≈ 128 ms of injected latency.
    let inner = HashUtility { n: 6, seed: 12 };
    let server = ValuationServer::builder(
        FaultyUtility::new(inner).delay_every_evals(1, Duration::from_millis(2)),
    )
    .start();
    let ticket = server.submit(ValuationRequest::new(Estimator::ExactMc, 0, 0));
    assert!(
        ticket.wait_timeout(Duration::from_millis(10)).is_none(),
        "a 128 ms run cannot resolve within 10 ms"
    );
    let resp = ok(ticket.wait());
    assert_eq!(
        resp.values,
        baseline(6, 12, ValuationRequest::new(Estimator::ExactMc, 0, 0))
    );
    server.shutdown();
}

// ---------------------------------------------------------------------
// The FEDVAL_FAULTS sweep: seeded fault schedules, scaled by env.
// ---------------------------------------------------------------------

#[test]
fn seeded_fault_sweep_heals_every_round() {
    let rounds: u64 = std::env::var("FEDVAL_FAULTS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(2);
    let n = 6;
    let reqs = || {
        vec![
            ValuationRequest::new(Estimator::ExactMc, 0, 1),
            ValuationRequest::new(Estimator::Ipss, 22, 2),
            ValuationRequest::new(Estimator::Loo, 0, 3),
        ]
    };
    let baselines: Vec<Vec<f64>> = reqs().into_iter().map(|r| baseline(n, 77, r)).collect();
    for round in 0..rounds {
        let inner = HashUtility { n, seed: 77 };
        let server =
            ValuationServer::builder(FaultyUtility::new(inner).seeded_faults(round, 3)).start();
        let tickets: Vec<Ticket> = reqs().into_iter().map(|r| server.submit(r)).collect();
        for (t, expected) in tickets.into_iter().zip(&baselines) {
            let resp = ok(t.wait());
            assert_eq!(
                &resp.values, expected,
                "round {round}: {:?} diverged under seeded faults",
                resp.request.estimator
            );
        }
        server.shutdown();
    }
}
