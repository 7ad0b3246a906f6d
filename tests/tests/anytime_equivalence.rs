//! The anytime-valuation determinism contract, end to end:
//!
//! 1. **Prefix bit-identity** — a CI-stopped (or sample-capped) streaming
//!    run's values bit-equal the same-seed full run's recorded snapshot
//!    at the same `samples_used`, at 1/2/4 rayon threads, both when the
//!    estimator is driven directly and through the valuation service.
//! 2. **Thread invariance** — the *whole snapshot stream* (values and CI
//!    half-widths) is identical across thread counts, not just the final
//!    answer.
//! 3. **Real substrate** — the same contract holds over the FL utility.
//! 4. **The payoff** — at a matched CI target, CI-stopped Owen runs
//!    through the service spend at most half the evaluations of the
//!    fixed-budget runs that certify that target.
//!
//! The stopping threshold of checks 1–3 honours `FEDVAL_CI_EPS` when set
//! (the CI matrix sets it); otherwise each test derives a mid-run
//! threshold from the full run's own snapshot stream, which is
//! guaranteed reachable. Check 4 derives its own target from each fixed
//! run and ignores the variable.

use std::time::Duration;

use rand::rngs::StdRng;
use rand::SeedableRng;

use fedval_core::anytime::{Control, ProgressSnapshot, StoppingRule};
use fedval_core::prelude::*;
use fedval_core::sampler::Observer;
use fedval_core::service::{Estimator, ValuationRequest, ValuationServer};

const THREAD_COUNTS: [usize; 3] = [1, 2, 4];

/// `FEDVAL_CI_EPS` when set and parseable, else `None`.
fn env_eps() -> Option<f64> {
    std::env::var("FEDVAL_CI_EPS").ok()?.parse().ok()
}

/// A threshold the stream is guaranteed to reach: the ambient
/// `FEDVAL_CI_EPS`, or the first *finite* max half-width in the stream
/// (an unbounded width never satisfies `CiAtMost`, so deriving from an
/// ∞ snapshot would make the rule unfireable).
fn reachable_eps(full: &[ProgressSnapshot]) -> f64 {
    env_eps().unwrap_or_else(|| {
        match full
            .iter()
            .filter_map(|s| s.max_halfwidth())
            .find(|h| h.is_finite())
        {
            Some(h) => h,
            None => panic!("stream never reaches a finite CI; pick a bigger budget"),
        }
    })
}

/// Assert the stopped run's final snapshot is a bit-identical prefix of
/// the recorded full-run stream: same values and CI half-widths as the
/// snapshot with the same `samples_used`.
fn assert_prefix(label: &str, stopped: &ProgressSnapshot, full: &[ProgressSnapshot]) {
    let twin = full
        .iter()
        .find(|s| s.samples_used == stopped.samples_used)
        .unwrap_or_else(|| {
            panic!(
                "{label}: no full-run snapshot at samples_used = {}",
                stopped.samples_used
            )
        });
    assert_eq!(stopped.values, twin.values, "{label}: values prefix");
    assert_eq!(
        stopped.ci_halfwidths, twin.ci_halfwidths,
        "{label}: CI prefix"
    );
}

/// Drive one streaming estimator full-then-stopped at every thread
/// count and check the contract; `run` maps `(utility, observer)` to
/// what [`drive`] returns and must draw from a fixed seed internally.
fn assert_anytime_contract<F>(label: &str, run: F)
where
    F: Fn(&dyn Utility, Observer<'_>) -> (ProgressSnapshot, bool),
{
    let base = HashUtility { n: 9, seed: 0xA11 };
    let mut reference: Option<Vec<ProgressSnapshot>> = None;
    for threads in THREAD_COUNTS {
        let u = ParallelUtility::with_num_threads(base.clone(), threads);

        // Full run, recording every snapshot.
        let mut full: Vec<ProgressSnapshot> = Vec::new();
        let (full_out, _) = run(&u, &mut |s| {
            full.push(s.clone());
            Control::Continue
        });
        assert!(full.len() >= 4, "{label}: too few snapshots to stop early");
        match full.last() {
            Some(last) => assert_eq!(last.values, full_out.values, "{label}"),
            None => unreachable!("checked non-empty above"),
        }
        // Config sanity: the CI must go finite before the final snapshot,
        // or the derived CiAtMost threshold below could never stop early.
        let finite_at = full
            .iter()
            .position(|s| s.max_halfwidth().is_some_and(f64::is_finite))
            .unwrap_or(full.len());
        assert!(
            finite_at + 1 < full.len(),
            "{label}: CI goes finite too late (snapshot {finite_at} of {})",
            full.len()
        );

        // The entire stream is thread-invariant.
        match &reference {
            Some(r) => assert_eq!(r, &full, "{label}: stream diverged at {threads} threads"),
            None => reference = Some(full.clone()),
        }

        // Same-seed run stopped by a reachable CI threshold.
        let rule = StoppingRule::ci_at_most(reachable_eps(&full));
        let (stopped, stopped_early) = run(&u, &mut |s| {
            if rule.should_stop(s) {
                Control::Stop
            } else {
                Control::Continue
            }
        });
        assert_prefix(label, &stopped, &full);
        if stopped_early {
            let final_samples = full_out.samples_used;
            assert!(
                stopped.samples_used < final_samples,
                "{label}: stopping must save evaluations"
            );
        } else {
            // Only an ambient FEDVAL_CI_EPS below the stream's reach may
            // run to completion; the derived threshold always fires.
            assert!(
                env_eps().is_some(),
                "{label}: derived threshold failed to fire"
            );
        }

        // And a sample-capped run stops at the first boundary past the
        // cap, on the same bit-identical prefix.
        let cap = full[full.len() / 3].samples_used;
        let cap_rule = StoppingRule::max_samples(cap);
        let (capped, stopped_early) = run(&u, &mut |s| {
            if cap_rule.should_stop(s) {
                Control::Stop
            } else {
                Control::Continue
            }
        });
        assert!(stopped_early, "{label}: cap {cap} must fire");
        assert!(capped.samples_used >= cap, "{label}: fires at a boundary");
        assert_prefix(label, &capped, &full);
    }
}

#[test]
fn owen_ci_stop_is_a_bit_identical_prefix_across_thread_counts() {
    assert_anytime_contract("owen", |u, observe| {
        let mut rng = StdRng::seed_from_u64(17);
        let mut sampler = OwenSampler::new(9, &OwenConfig::new(4, 24), None, &mut rng);
        drive(u, &mut sampler, Some(observe))
    });
}

#[test]
fn stratified_mc_ci_stop_is_a_bit_identical_prefix_across_thread_counts() {
    assert_anytime_contract("stratified-mc", |u, observe| {
        let mut rng = StdRng::seed_from_u64(18);
        let cfg = StratifiedConfig::uniform(9, 504);
        let scheme = Scheme::MarginalContribution;
        let mut sampler = StratifiedSampler::new(9, scheme, &cfg, None, &mut rng);
        drive(u, &mut sampler, Some(observe))
    });
}

#[test]
fn stratified_cc_ci_stop_is_a_bit_identical_prefix_across_thread_counts() {
    assert_anytime_contract("stratified-cc", |u, observe| {
        let mut rng = StdRng::seed_from_u64(19);
        let cfg = StratifiedConfig::uniform(9, 504);
        let scheme = Scheme::ComplementaryContribution;
        let mut sampler = StratifiedSampler::new(9, scheme, &cfg, None, &mut rng);
        drive(u, &mut sampler, Some(observe))
    });
}

/// Collect the full snapshot stream of a streaming service run by
/// polling `wait_timeout` (the ticket's public surface).
fn stream_via_service<U: Utility + Send + Sync + 'static>(
    server: &ValuationServer<U>,
    request: ValuationRequest,
) -> (
    fedval_core::service::ValuationResponse,
    Vec<ProgressSnapshot>,
) {
    let ticket = server.submit(request);
    let mut snapshots = Vec::new();
    let resp = loop {
        snapshots.extend(ticket.progress());
        if let Some(result) = ticket.wait_timeout(Duration::from_millis(20)) {
            break result;
        }
    };
    snapshots.extend(ticket.progress());
    match resp {
        Ok(resp) => (resp, snapshots),
        Err(e) => panic!("healthy run failed: {e}"),
    }
}

#[test]
fn service_ci_stop_is_a_bit_identical_prefix_across_thread_counts() {
    // The same contract through the whole service stack: coalescer,
    // retry facade, progress channel. Each thread count gets its own
    // pair of fresh servers so no cache state leaks between runs.
    let base = HashUtility { n: 8, seed: 0xB22 };
    let request = || ValuationRequest::new(Estimator::Owen, 1440, 23);
    for threads in THREAD_COUNTS {
        let full_server =
            ValuationServer::start(ParallelUtility::with_num_threads(base.clone(), threads));
        let (full_resp, full) = stream_via_service(
            &full_server,
            request().with_stopping(StoppingRule::stream_only()),
        );
        full_server.shutdown();
        assert!(!full_resp.run.stopped_early);
        assert!(full.len() >= 4, "too few snapshots to stop early");

        let server =
            ValuationServer::start(ParallelUtility::with_num_threads(base.clone(), threads));
        let (resp, _) = stream_via_service(
            &server,
            request().with_stopping(StoppingRule::ci_at_most(reachable_eps(&full))),
        );
        server.shutdown();
        let snapshot = match resp.progress.as_ref() {
            Some(s) => s,
            None => panic!("streaming response must carry a snapshot"),
        };
        assert_eq!(snapshot.values, resp.values, "response mirrors snapshot");
        assert_prefix("service-owen", snapshot, &full);
        if env_eps().is_none() {
            assert!(resp.run.stopped_early, "derived threshold must fire");
        }
    }
}

#[test]
fn service_ci_stop_prefix_holds_on_the_fl_substrate() {
    // The contract over real federated training. Small problem: 3
    // clients, 2 rounds.
    use fedval_data::{MnistLike, SyntheticSetup};
    use fedval_fl::service::{serve, FlServiceConfig};
    use fedval_fl::{FedAvgConfig, FlUtility, ModelSpec};

    let n_clients = 3;
    let fl_utility = || -> FlUtility {
        let gen = MnistLike::new(701);
        let (train, test) = gen.generate_split(18 * n_clients, 48, 702);
        let mut rng = StdRng::seed_from_u64(703);
        let clients = SyntheticSetup::SameSizeSameDist.partition(&train, n_clients, &mut rng);
        FlUtility::new(
            clients,
            test,
            ModelSpec::default_mlp(),
            FedAvgConfig {
                rounds: 2,
                local_epochs: 1,
                seed: 704,
                ..Default::default()
            },
        )
    };
    let request = || ValuationRequest::new(Estimator::StratifiedMc, 18, 31);

    let (full_server, _cache) = serve(fl_utility(), FlServiceConfig::default());
    let (full_resp, full) = stream_via_service(
        &full_server,
        request().with_stopping(StoppingRule::stream_only()),
    );
    full_server.shutdown();
    assert!(full.len() >= 3, "too few snapshots to stop early");

    let cap = full[full.len() / 2].samples_used;
    let (server, _cache) = serve(fl_utility(), FlServiceConfig::default());
    let (resp, _) = stream_via_service(
        &server,
        request().with_stopping(StoppingRule::max_samples(cap)),
    );
    server.shutdown();
    assert!(resp.run.stopped_early, "cap {cap} must fire");
    let snapshot = match resp.progress.as_ref() {
        Some(s) => s,
        None => panic!("streaming response must carry a snapshot"),
    };
    assert_prefix("service-fl", snapshot, &full);
    assert!(
        snapshot.samples_used < full_resp.progress.map(|s| s.samples_used).unwrap_or(0),
        "stopping must save model trainings"
    );
}

/// Sum of `samples_used` over 12 seeds of fixed-budget Owen runs and of
/// the same-seed runs stopped by `CiAtMost(2 · h)`, `h` being the fixed
/// run's final max half-width: both runs certify the target, the
/// stopped one just ends at the first batch boundary that reaches it.
fn owen_fixed_vs_stopped<U: Utility + Send + Sync + 'static>(u: U) -> (usize, usize) {
    let n = u.n_clients();
    // The service's 4-node grid at 16 draws per node.
    let budget = OwenConfig::new(4, 16).evaluations(n);
    let server = ValuationServer::start(u);
    let samples_used = |resp: &fedval_core::service::ValuationResponse| match &resp.progress {
        Some(s) => s.samples_used,
        None => panic!("streaming response must carry a snapshot"),
    };
    let (mut fixed, mut stopped) = (0, 0);
    for seed in 0..12u64 {
        let request = ValuationRequest::new(Estimator::Owen, budget, 0xA0 + seed);
        let full = match server.call(request.clone().with_stopping(StoppingRule::stream_only())) {
            Ok(resp) => resp,
            Err(e) => panic!("healthy run failed: {e}"),
        };
        let h = match full
            .progress
            .as_ref()
            .and_then(ProgressSnapshot::max_halfwidth)
        {
            Some(h) if h.is_finite() => h,
            other => panic!("seed {seed}: the fixed budget certifies no CI ({other:?})"),
        };
        fixed += samples_used(&full);
        let resp = match server.call(request.with_stopping(StoppingRule::ci_at_most(2.0 * h))) {
            Ok(resp) => resp,
            Err(e) => panic!("healthy run failed: {e}"),
        };
        stopped += samples_used(&resp);
    }
    server.shutdown();
    (fixed, stopped)
}

#[test]
fn ci_stopped_owen_saves_at_least_half_the_fixed_budget_at_a_matched_target() {
    for (label, (fixed, stopped)) in [
        (
            "noisy saturating",
            owen_fixed_vs_stopped(NoisyUtility::new(
                SaturatingUtility::uniform(10, 0.1, 0.85, 0.6),
                0.02,
                7,
            )),
        ),
        (
            "hash",
            owen_fixed_vs_stopped(HashUtility { n: 10, seed: 3 }),
        ),
    ] {
        assert!(
            fixed >= 2 * stopped,
            "{label}: anytime Owen must save >= 2x evaluations at a matched CI, \
             got {fixed} -> {stopped} ({:.2}x)",
            fixed as f64 / stopped as f64
        );
    }
}
