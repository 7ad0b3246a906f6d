//! The multi-valuation service: a long-lived [`ValuationServer`] that
//! serves many concurrent valuation requests against **one** utility,
//! coalescing their coalition evaluations into shared batches.
//!
//! # Why a service
//!
//! The paper's IPSS estimator amortises utility evaluations across the
//! coalitions *one* run samples; the engine underneath (the shared
//! [`CachedUtility`], lock-step lane blocks, the FL trajectory cache)
//! amortises them across *anything that shares the utility handle*. A
//! production valuation deployment asks many questions about one training
//! setup — per-round Shapley values, leave-one-out, Banzhaf indices,
//! different seeds and budgets — and almost every question touches the
//! same coalitions (`∅`, singletons, the grand coalition, the small
//! strata). Serving those queries one-at-a-time re-pays the overlap;
//! serving them through one long-lived server pays it once.
//!
//! # How coalescing works
//!
//! Each request runs its estimator against a run-local [`Utility`]
//! facade: a blocking [`ValuationServer::call`] on the caller's own
//! thread, a [`ValuationServer::submit`] on a worker thread the
//! dispatcher spawns for its ticket. Both register the run at the
//! coalescer first; the dispatcher registers a burst of submissions
//! together, before any of their workers starts, so the burst coalesces
//! from its first batch. When the estimator evaluates a batch,
//! the facade *parks* the batch instead of evaluating it. When every
//! registered run is parked (runs that finished have deregistered), the
//! last arrival becomes the *flush leader* and serves the cheapest batch
//! first:
//!
//! 1. it **picks** the parked batch with the least uncached work —
//!    `Σ (|S| + 1)` over its distinct coalitions not yet in the shared
//!    [`CachedUtility`], about one local training per member plus one
//!    scoring pass on an FL utility — ties to the earliest parked;
//! 2. it **evaluates** that batch's distinct coalitions in mask order (an
//!    exact-sweep chunk or IPSS stratum needs no sort) through the shared
//!    cache, which forwards only the misses, still ascending, to the inner
//!    utility (`ParallelUtility` and an FL utility sort them by `(|S|,
//!    mask)` into lock-step lane blocks over one shared trajectory cache);
//! 3. it **delivers** that batch, by position, plus every other parked
//!    batch the cache now covers, and wakes their runs. The rest stay parked for the next
//!    flush.
//!
//! ```text
//!  request₁ ──▶ run₁ ──── eval_batch ─┐                   ┌─ CachedUtility
//!  request₂ ──▶ run₂ ──── eval_batch ─┼─▶ park ▶ barrier ─┤   (shared)
//!  request₃ ──▶ run₃ ──── eval_batch ─┘   pick cheapest   └─▶ inner utility
//!                        ▲                evaluate it          (lane blocks +
//!                        └─── deliver it + every batch         traj cache)
//!                             the cache now covers
//! ```
//!
//! A run whose batch is in flight stays registered, so the barrier fires
//! again only once every run — including the ones just released — has
//! parked its next batch: one barrier flush at a time. That pause is what
//! lets a cheap request's next batch overtake an expensive one parked
//! beside it, so in a burst the cheap request finishes first instead of
//! waiting for one merged flush of everyone's work. A run alone on the
//! server flushes immediately, so the single-tenant case degenerates to a
//! plain cached evaluation. The barrier still couples a batch to its
//! peers' inter-batch compute, and a batch can wait behind a stream of
//! cheaper ones; a [`FlushWindow`] bounds both with one early trigger:
//! once a parked batch has waited `max_wait` the next flush takes it,
//! whatever its cost. Utility determinism makes every schedule
//! invisible in the results: every value is a pure function of its
//! coalition mask, so coalesced runs return **bit-identical** values to
//! solo runs, under any interleaving and any flush trigger.
//!
//! # Failure model
//!
//! Failure is a first-class code path, not an abort:
//!
//! - **Typed errors.** [`ValuationServer::call`] and [`Ticket::wait`]
//!   return `Result<ValuationResponse, ValuationError>`; nothing in the
//!   service panics the caller.
//! - **Fault isolation.** If the inner utility panics under a flush
//!   leader, the flush is *poisoned*: only the run whose batch it picked
//!   is affected, and it retries **its own batch** directly against the
//!   still-healthy shared cache with capped exponential backoff
//!   ([`RetryPolicy`]). Transient faults heal; persistent ones surface as
//!   [`ValuationError::UtilityPanicked`] on exactly the requests that
//!   touch the faulty coalitions — a parked batch that needs one meets it
//!   when a flush picks it.
//! - **Deadlines and budgets.** A request may carry a wall-clock
//!   deadline and/or an evaluation budget, enforced at batch boundaries.
//!   On overrun the run degrades gracefully (default
//!   [`LimitPolicy::Partial`]): it returns the values folded from the
//!   evaluated prefix ([`partial_prefix_fold`]) with
//!   [`RunStats::partial`] set, or fails with the typed error under
//!   [`LimitPolicy::Fail`].
//! - **Shutdown drains.** [`ValuationServer::shutdown`] stops in-flight
//!   runs at their next batch boundary and resolves *every* outstanding
//!   ticket with [`ValuationError::ServerShutdown`] — no ticket is ever
//!   left hanging.
//!
//! # Memory
//!
//! The shared caches are the service's working set: the coalition memo
//! grows by one `f64` per distinct coalition. An FL utility's round-0
//! trajectory table (`TrajectoryCache` in `fedval-fl`) is fixed at one
//! `p`-float update per client, so it needs no budget and never evicts;
//! its occupancy is reported in [`TrajCacheStats`] through
//! [`ServiceStats`].
//!
//! # Example
//!
//! ```
//! use fedval_core::coalition::Coalition;
//! use fedval_core::exact::exact_mc_sv;
//! use fedval_core::service::{Estimator, ValuationRequest, ValuationServer};
//! use fedval_core::utility::TableUtility;
//!
//! let server = ValuationServer::start(TableUtility::paper_table1());
//! // Submit three concurrent requests, then wait for all of them.
//! let tickets: Vec<_> = [
//!     ValuationRequest::new(Estimator::ExactMc, 0, 1),
//!     ValuationRequest::new(Estimator::ExactCc, 0, 2),
//!     ValuationRequest::new(Estimator::Ipss, 5, 3),
//! ]
//! .into_iter()
//! .map(|req| server.submit(req))
//! .collect();
//! let responses: Vec<_> = tickets
//!     .into_iter()
//!     .map(|t| t.wait().expect("healthy utility"))
//!     .collect();
//!
//! // Results are bit-identical to solo execution...
//! assert_eq!(responses[0].values, exact_mc_sv(&TableUtility::paper_table1()));
//! assert_eq!(responses[0].clients, vec![0, 1, 2]);
//! // ...and the shared cache paid each distinct coalition once: the two
//! // exact sweeps plus IPSS touch all 2^3 masks, but train only 8.
//! let stats = server.stats();
//! assert_eq!(stats.eval.evaluations, 8);
//! assert!(stats.eval.lookups > 8, "overlap resolved from the cache");
//! server.shutdown();
//! ```
//!
//! [`CachedUtility`]: crate::utility::CachedUtility
//! [`Utility`]: crate::utility::Utility
//! [`TrajCacheStats`]: crate::utility::TrajCacheStats

mod coalescer;
mod request;
mod run;
mod server;

pub use request::{
    partial_prefix_fold, Estimator, FlushWindow, LimitPolicy, RetryPolicy, RunStats, ServiceStats,
    Ticket, ValuationError, ValuationRequest, ValuationResponse,
};
pub use server::{ServerBuilder, ValuationServer};

#[cfg(test)]
mod tests {
    use std::time::Duration;

    use super::*;
    use crate::anytime::{ProgressSnapshot, StoppingRule};
    use crate::coalition::Coalition;
    use crate::exact::exact_mc_sv;
    use crate::fault::FaultyUtility;
    use crate::utility::{HashUtility, TableUtility, TrajCacheStats, Utility};

    /// Unwrap a service result in tests (plain `panic!` keeps the module
    /// clean under `deny(clippy::unwrap_used, clippy::expect_used)`).
    fn ok(result: Result<ValuationResponse, ValuationError>) -> ValuationResponse {
        match result {
            Ok(resp) => resp,
            Err(e) => panic!("request failed: {e}"),
        }
    }

    #[test]
    fn single_request_matches_direct_execution() {
        let server = ValuationServer::start(TableUtility::paper_table1());
        let resp = ok(server.call(ValuationRequest::new(Estimator::ExactMc, 0, 0)));
        assert_eq!(resp.values, exact_mc_sv(&TableUtility::paper_table1()));
        assert_eq!(resp.clients, vec![0, 1, 2]);
        assert_eq!(resp.service.eval.evaluations, 8);
        assert!(resp.run.batches >= 1);
        assert_eq!(
            resp.run.coalesced_batches, 0,
            "a lone run coalesces with no one"
        );
        assert!(!resp.run.partial);
        assert_eq!(resp.run.retries, 0);
        server.shutdown();
    }

    #[test]
    fn concurrent_runs_dedup_through_the_shared_cache() {
        let utility = || HashUtility { n: 8, seed: 3 };
        let sweep = |seed| ValuationRequest::new(Estimator::ExactMc, 0, seed);
        // (served alone first, then submitted together, range of lookups)
        let cases = [
            // Three identical sweeps over 2^8 coalitions: between 2^8 (one
            // flush evaluates a sweep, the cache covers the other two) and
            // 3·2^8 (no cross-run coalescing) lookups.
            (vec![], vec![sweep(0), sweep(1), sweep(2)], 1 << 8..=3 << 8),
            // On a warm memo every batch costs nothing, so whichever batch
            // a flush picks, the other's coalitions are read beside it as
            // hits: 2^8 for the sweep, 9 for LOO, 1 + 8 for IPSS in any
            // schedule.
            (
                vec![sweep(0)],
                vec![
                    ValuationRequest::new(Estimator::Loo, 0, 1),
                    ValuationRequest::new(Estimator::Ipss, 9, 2),
                ],
                274..=274,
            ),
        ];
        for (warm, burst, lookups) in cases {
            let requests = warm.len() + burst.len();
            let server = ValuationServer::start(utility());
            for req in warm {
                ok(server.call(req));
            }
            let tickets: Vec<Ticket> = burst.iter().map(|r| server.submit(r.clone())).collect();
            for (ticket, req) in tickets.into_iter().zip(burst) {
                let solo = ok(ValuationServer::start(utility()).call(req)).values;
                assert_eq!(ok(ticket.wait()).values, solo, "bit-identical to solo");
            }
            let stats = server.stats();
            assert_eq!(stats.requests, requests);
            // Every coalition any run touched was trained exactly once.
            assert_eq!(stats.eval.evaluations, 1 << 8);
            assert!(lookups.contains(&stats.eval.lookups), "{stats:?}");
            assert_eq!(stats.distinct_coalitions, stats.eval.lookups);
            assert_eq!(stats.failed_flushes, 0);
            assert_eq!(stats.retries, 0);
            server.shutdown();
        }
    }

    #[test]
    fn cheapest_parked_batch_is_flushed_first() {
        // A sweep over clients 0–6 (one batch of 2^7 coalitions) and IPSS
        // over all eight (γ = 37: strata of 1 + 8 + 28) on a utility that
        // sleeps 2 ms per evaluation. Each barrier flush takes the batch
        // with the least uncached work, so IPSS's three strata go first and
        // it resolves while the sweep still trains. (Merging every parked
        // batch into one flush would release the sweep first: IPSS's
        // coalitions with client 7 are still uncached after it.) IPSS is
        // submitted first so that the order holds however the dispatcher
        // groups the two submissions.
        let slow = FaultyUtility::new(HashUtility { n: 8, seed: 5 })
            .delay_every_evals(1, Duration::from_millis(2));
        let ipss_req = ValuationRequest::new(Estimator::Ipss, 37, 2);
        let sweep_req = ValuationRequest::new(Estimator::ExactMc, 0, 1)
            .for_clients(Coalition::from_members(0..7));
        let server = ValuationServer::start(slow);
        let ipss = server.submit(ipss_req.clone());
        let sweep = server.submit(sweep_req.clone());
        let ipss_resp = ok(ipss.wait());
        assert!(
            sweep.wait_timeout(Duration::ZERO).is_none(),
            "the cheap request must resolve while the sweep is still parked or training"
        );
        let sweep_resp = ok(sweep.wait());
        server.shutdown();
        let solo = |req| ok(ValuationServer::start(HashUtility { n: 8, seed: 5 }).call(req)).values;
        assert_eq!(ipss_resp.values, solo(ipss_req));
        assert_eq!(sweep_resp.values, solo(sweep_req));
    }

    #[test]
    fn flush_window_bounds_a_batch_behind_cheaper_ones() {
        // A sweep over clients 0–7 parks beside ten LOO requests, each
        // over a distinct {8, a, b} whose grand coalition sleeps 50 ms.
        // Every LOO batch is cheaper, so the barrier alone would serve the
        // sweep last, after ≥ 10 · 50 ms. With a 20 ms window its expired
        // wait takes the next flush: it is served within the window plus
        // its own (sub-millisecond) flush.
        let window = Duration::from_millis(20);
        let triples: Vec<Coalition> = (0..8)
            .flat_map(|a| (a + 1..8).map(move |b| Coalition::from_members([8, a, b])))
            .take(10)
            .collect();
        let slow = triples.iter().fold(
            FaultyUtility::new(HashUtility { n: 9, seed: 8 }),
            |u, &t| u.delay_on_coalition(t, Duration::from_millis(50), 1),
        );
        let sweep_req = ValuationRequest::new(Estimator::ExactMc, 0, 1)
            .for_clients(Coalition::from_members(0..8));
        let loo_req = |t| ValuationRequest::new(Estimator::Loo, 0, 0).for_clients(t);
        let server = ValuationServer::builder(slow).flush_window(window).start();
        let sweep = server.submit(sweep_req.clone());
        let loos: Vec<Ticket> = triples.iter().map(|&t| server.submit(loo_req(t))).collect();
        let sweep_resp = ok(sweep.wait());
        let loo_resps: Vec<ValuationResponse> = loos.into_iter().map(|t| ok(t.wait())).collect();
        server.shutdown();
        assert!(
            sweep_resp.run.park_wait_max < window + Duration::from_millis(150),
            "the window must bound the sweep's wait, waited {:?}",
            sweep_resp.run.park_wait_max
        );
        let solo = |req| ok(ValuationServer::start(HashUtility { n: 9, seed: 8 }).call(req)).values;
        assert_eq!(sweep_resp.values, solo(sweep_req));
        for (resp, &t) in loo_resps.iter().zip(&triples) {
            assert_eq!(resp.values, solo(loo_req(t)));
        }
    }

    #[test]
    fn concurrent_runs_coalesce_into_merged_flushes() {
        // Deterministic barrier check: with a burst of identical sweeps
        // registered together, at least some flushes must merge batches
        // from more than one run.
        let server = ValuationServer::start(HashUtility { n: 7, seed: 9 });
        let tickets: Vec<Ticket> = (0..4)
            .map(|i| server.submit(ValuationRequest::new(Estimator::ExactCc, 0, i)))
            .collect();
        let responses: Vec<ValuationResponse> = tickets.into_iter().map(|t| ok(t.wait())).collect();
        let stats = server.stats();
        assert!(
            stats.merged_batches > stats.flushes,
            "some flush must merge more than one parked batch \
             (merged {} over {} flushes)",
            stats.merged_batches,
            stats.flushes
        );
        assert!(
            responses.iter().any(|r| r.run.coalesced_batches > 0),
            "at least one run must observe cross-run coalescing"
        );
        server.shutdown();
    }

    #[test]
    fn subgame_request_values_the_named_clients() {
        // The sub-game on {1, 3, 4} of an additive utility has exact
        // values equal to the members' weights.
        let weights = vec![0.1, 0.2, 0.3, 0.4, 0.5];
        let u = crate::utility::AdditiveUtility::new(0.0, weights.clone());
        let server = ValuationServer::start(u);
        let resp = ok(server.call(
            ValuationRequest::new(Estimator::ExactMc, 0, 0)
                .for_clients(Coalition::from_members([1, 3, 4])),
        ));
        assert_eq!(resp.clients, vec![1, 3, 4]);
        for (pos, &i) in resp.clients.iter().enumerate() {
            assert!(
                (resp.values[pos] - weights[i]).abs() < 1e-12,
                "client {i}: {} vs {}",
                resp.values[pos],
                weights[i]
            );
        }
        // Sub-game coalitions were evaluated as global masks: the shared
        // cache holds subsets of {1,3,4}, reusable by any later request.
        assert_eq!(server.stats().eval.evaluations, 8);
        server.shutdown();
    }

    #[test]
    fn invalid_requests_fail_with_the_typed_error() {
        let server = ValuationServer::start(TableUtility::paper_table1());
        let empty = server
            .call(ValuationRequest::new(Estimator::Loo, 0, 0).for_clients(Coalition::empty()));
        assert!(matches!(empty, Err(ValuationError::InvalidRequest { .. })));
        let oob = server.call(
            ValuationRequest::new(Estimator::Loo, 0, 0)
                .for_clients(Coalition::from_members([0, 5])),
        );
        assert!(matches!(oob, Err(ValuationError::InvalidRequest { .. })));
        // γ = 0 cannot pay for U(∅), nor draw Alg. 1's sample: a typed
        // rejection, not a panic or an all-zero answer.
        for estimator in [
            Estimator::Ipss,
            Estimator::BanzhafPruned,
            Estimator::StratifiedMc,
            Estimator::StratifiedCc,
        ] {
            let broke = server.call(ValuationRequest::new(estimator, 0, 0));
            assert!(
                matches!(&broke, Err(ValuationError::InvalidRequest { detail }) if detail.contains("budget")),
                "{estimator:?}: {broke:?}"
            );
        }
        // Below one draw per grid node, 4·(3 + 1) = 16 evaluations, Owen
        // would overrun the budget: a typed rejection, not a 200 that
        // spends more than was asked.
        for budget in [0, 1, 15] {
            let short = server.call(ValuationRequest::new(Estimator::Owen, budget, 0));
            assert!(
                matches!(&short, Err(ValuationError::InvalidRequest { detail }) if detail.contains("budget")),
                "owen at {budget}: {short:?}"
            );
        }
        let owen = ok(server.call(ValuationRequest::new(Estimator::Owen, 16, 0)));
        assert!(owen.run.coalitions <= 16, "{:?}", owen.run);
        // The server stays healthy after rejecting malformed requests.
        let resp = ok(server.call(ValuationRequest::new(Estimator::Loo, 0, 0)));
        assert_eq!(resp.values.len(), 3);
        server.shutdown();
    }

    #[test]
    fn mixed_estimators_share_overlapping_coalitions() {
        let server = ValuationServer::start(HashUtility { n: 6, seed: 4 });
        let tickets = vec![
            server.submit(ValuationRequest::new(Estimator::ExactMc, 0, 1)),
            server.submit(ValuationRequest::new(Estimator::Ipss, 20, 2)),
            server.submit(ValuationRequest::new(Estimator::Loo, 0, 3)),
            server.submit(ValuationRequest::new(Estimator::StratifiedMc, 18, 4)),
            server.submit(ValuationRequest::new(Estimator::Owen, 56, 5)),
            server.submit(ValuationRequest::new(Estimator::BanzhafPruned, 20, 6)),
        ];
        let responses: Vec<ValuationResponse> = tickets.into_iter().map(|t| ok(t.wait())).collect();
        assert_eq!(responses.len(), 6);
        for resp in &responses {
            assert_eq!(resp.values.len(), 6);
        }
        // Everything any estimator touched is a subset of the exact
        // sweep's 2^6 coalitions, so the shared cache trained at most 64.
        let stats = server.stats();
        assert_eq!(stats.requests, 6);
        assert_eq!(stats.eval.evaluations, 1 << 6);
        server.shutdown();
    }

    #[test]
    fn sampling_estimators_are_deterministic_under_coalescing() {
        // The same (estimator, budget, seed) run twice — once alone, once
        // amid concurrent traffic — must return bit-identical values.
        let solo = {
            let server = ValuationServer::start(HashUtility { n: 8, seed: 11 });
            ok(server.call(ValuationRequest::new(Estimator::Ipss, 30, 7))).values
        };
        let server = ValuationServer::start(HashUtility { n: 8, seed: 11 });
        let tickets = vec![
            server.submit(ValuationRequest::new(Estimator::Ipss, 30, 7)),
            server.submit(ValuationRequest::new(Estimator::ExactMc, 0, 1)),
            server.submit(ValuationRequest::new(Estimator::StratifiedCc, 24, 9)),
        ];
        let responses: Vec<ValuationResponse> = tickets.into_iter().map(|t| ok(t.wait())).collect();
        assert_eq!(responses[0].values, solo);
        server.shutdown();
    }

    #[test]
    fn stats_snapshot_is_attached_to_each_response() {
        let server = ValuationServer::start(TableUtility::paper_table1());
        let resp = ok(server.call(ValuationRequest::new(Estimator::Loo, 0, 0)));
        assert_eq!(resp.service.requests, 1);
        assert!(resp.service.flushes >= 1);
        assert!(resp.service.traj.is_none(), "no traj source installed");
        assert!(resp.wall_time > Duration::ZERO);
        server.shutdown();
    }

    #[test]
    fn traj_stats_source_is_surfaced() {
        let server = ValuationServer::builder(TableUtility::paper_table1())
            .traj_stats(|| TrajCacheStats {
                probes: 5,
                hits: 3,
                ..Default::default()
            })
            .start();
        let stats = server.stats();
        match stats.traj {
            Some(traj) => assert_eq!(traj.probes, 5),
            None => panic!("traj source installed but not surfaced"),
        }
        server.shutdown();
    }

    #[test]
    fn streaming_ticket_snapshots_are_monotone_and_end_at_the_response() {
        // Satellite: `Ticket::wait_timeout` under streaming — drain
        // progress in a poll loop, check monotonicity in samples_used,
        // and check the final snapshot equals the returned response.
        let server = ValuationServer::start(HashUtility { n: 7, seed: 3 });
        let ticket = server.submit(
            ValuationRequest::new(Estimator::Owen, 640, 5)
                .with_stopping(StoppingRule::stream_only()),
        );
        let mut snapshots: Vec<ProgressSnapshot> = Vec::new();
        let result = loop {
            snapshots.extend(ticket.progress());
            if let Some(result) = ticket.wait_timeout(Duration::from_millis(20)) {
                break result;
            }
        };
        snapshots.extend(ticket.progress()); // events sent before the reply
        let resp = ok(result);
        assert!(!snapshots.is_empty());
        for w in snapshots.windows(2) {
            assert!(
                w[0].samples_used <= w[1].samples_used,
                "snapshots must be monotone in samples_used"
            );
        }
        let last = match snapshots.last() {
            Some(s) => s,
            None => panic!("no snapshots"),
        };
        assert_eq!(last.values, resp.values, "final snapshot == response");
        assert_eq!(resp.progress.as_ref(), Some(last));
        assert!(!resp.run.stopped_early, "stream_only never stops early");
        server.shutdown();
    }

    #[test]
    fn ci_stopped_run_is_a_bit_identical_prefix_of_the_full_run() {
        // The determinism contract through the service: a CiAtMost-stopped
        // run's values bit-equal the full run's snapshot at the same
        // samples_used, and stopping spends strictly fewer evaluations.
        let full_server = ValuationServer::start(HashUtility { n: 7, seed: 9 });
        let full_ticket = full_server.submit(
            ValuationRequest::new(Estimator::Owen, 1280, 21)
                .with_stopping(StoppingRule::stream_only()),
        );
        let full = loop {
            if let Some(result) = full_ticket.wait_timeout(Duration::from_millis(50)) {
                break ok(result);
            }
        };
        let full_snapshots = full_ticket.progress();
        full_server.shutdown();

        // Stop at twice the full run's final width — reachable early.
        let eps = full
            .progress
            .as_ref()
            .and_then(|s| s.max_halfwidth())
            .map(|h| h * 2.0)
            .unwrap_or(f64::INFINITY);
        let server = ValuationServer::start(HashUtility { n: 7, seed: 9 });
        let resp = ok(server.call(
            ValuationRequest::new(Estimator::Owen, 1280, 21)
                .with_stopping(StoppingRule::ci_at_most(eps)),
        ));
        server.shutdown();
        assert!(resp.run.stopped_early, "eps = {eps} should fire early");
        let stopped_at = match resp.progress.as_ref() {
            Some(s) => s.samples_used,
            None => panic!("streaming response must carry a snapshot"),
        };
        let twin = full_snapshots.iter().find(|s| s.samples_used == stopped_at);
        match twin {
            Some(s) => assert_eq!(resp.values, s.values, "bit-identical prefix"),
            None => panic!("no full-run snapshot at samples_used = {stopped_at}"),
        }
        assert!(
            stopped_at < full.progress.map(|s| s.samples_used).unwrap_or(0),
            "stopping must save evaluations"
        );
    }

    #[test]
    fn max_samples_rule_caps_a_streaming_run() {
        let server = ValuationServer::start(HashUtility { n: 6, seed: 2 });
        let resp = ok(server.call(
            ValuationRequest::new(Estimator::StratifiedMc, 60, 4)
                .with_stopping(StoppingRule::max_samples(20)),
        ));
        assert!(resp.run.stopped_early);
        match resp.progress {
            Some(s) => assert!(s.samples_used >= 20, "fires at the boundary"),
            None => panic!("streaming response must carry a snapshot"),
        }
        // Non-streaming twin for contrast: classic path, no snapshot.
        let classic = ok(server.call(ValuationRequest::new(Estimator::StratifiedMc, 60, 4)));
        assert!(classic.progress.is_none());
        assert!(!classic.run.stopped_early);
        server.shutdown();
    }

    #[test]
    fn adaptive_request_streams_and_carries_the_allocation() {
        use crate::adaptive::AdaptivePolicy;
        let server = ValuationServer::start(HashUtility { n: 6, seed: 8 });
        // No explicit stopping rule: adaptive alone must force streaming.
        let ticket = server.submit(
            ValuationRequest::new(Estimator::StratifiedMc, 48, 9)
                .with_adaptive(AdaptivePolicy::default()),
        );
        let mut snapshots: Vec<ProgressSnapshot> = Vec::new();
        let result = loop {
            snapshots.extend(ticket.progress());
            if let Some(result) = ticket.wait_timeout(Duration::from_millis(20)) {
                break result;
            }
        };
        snapshots.extend(ticket.progress());
        let resp = ok(result);
        assert!(!resp.run.stopped_early);
        let final_alloc = match resp.progress.as_ref().and_then(|s| s.allocation.as_ref()) {
            Some(a) => a.clone(),
            None => panic!("adaptive response must carry the allocation"),
        };
        assert_eq!(final_alloc.iter().sum::<usize>(), 48);
        // Every streamed snapshot carries the (monotone) allocation too.
        assert!(snapshots.iter().all(|s| s.allocation.is_some()));

        // Same request again: the allocation sequence is deterministic.
        let twin = ok(server.call(
            ValuationRequest::new(Estimator::StratifiedMc, 48, 9)
                .with_adaptive(AdaptivePolicy::default()),
        ));
        assert_eq!(twin.values, resp.values);
        assert_eq!(
            twin.progress.as_ref().and_then(|s| s.allocation.as_ref()),
            Some(&final_alloc)
        );

        // And it composes with an early-stopping rule unchanged.
        let stopped = ok(server.call(
            ValuationRequest::new(Estimator::StratifiedMc, 48, 9)
                .with_adaptive(AdaptivePolicy::default())
                .with_stopping(StoppingRule::max_samples(16)),
        ));
        assert!(stopped.run.stopped_early);
        match stopped
            .progress
            .as_ref()
            .and_then(|s| s.allocation.as_ref())
        {
            Some(a) => assert!(a.iter().sum::<usize>() < 48),
            None => panic!("stopped adaptive response must carry the allocation"),
        }
        server.shutdown();
    }

    #[test]
    fn streaming_exact_cc_and_loo_emit_one_final_snapshot() {
        let server = ValuationServer::start(TableUtility::paper_table1());
        for estimator in [Estimator::ExactCc, Estimator::Loo] {
            let ticket = server.submit(
                ValuationRequest::new(estimator, 0, 0)
                    .with_stopping(StoppingRule::ci_at_most(1e-3)),
            );
            let resp = loop {
                if let Some(result) = ticket.wait_timeout(Duration::from_millis(50)) {
                    break ok(result);
                }
            };
            let events = ticket.progress();
            assert_eq!(events.len(), 1, "{estimator:?}");
            assert_eq!(events[0].values, resp.values);
            assert!(events[0].ci_halfwidths.iter().all(|&h| h == 0.0));
            assert!(!resp.run.stopped_early, "enumerations never stop early");
        }
        server.shutdown();
    }

    #[test]
    fn partial_prefix_fold_of_a_full_exact_log_recovers_loo_like_pairs() {
        // Sanity anchor on the fold itself: over the full 2^n log of an
        // additive utility, every evaluated pair has the same marginal
        // contribution w_i, so the stratified-mean fold returns exactly
        // the weights.
        let weights = [0.25, 0.5, 1.0];
        let u = crate::utility::AdditiveUtility::new(0.0, weights.to_vec());
        let log: Vec<(Coalition, f64)> = crate::coalition::all_subsets(3)
            .map(|s| (s, u.eval(s)))
            .collect();
        let phi = partial_prefix_fold(3, &log);
        for (i, &w) in weights.iter().enumerate() {
            assert!((phi[i] - w).abs() < 1e-12, "client {i}: {} vs {w}", phi[i]);
        }
        // Prefix property: the fold over the empty log is all zeros.
        assert_eq!(partial_prefix_fold(3, &[]), vec![0.0; 3]);
    }
}
