//! The adaptive-allocation determinism contract, end to end:
//!
//! 1. **Pure-function allocation** — the Neyman re-planned allocation
//!    sequence is a pure function of (seed, snapshot history): the whole
//!    snapshot stream, *including* the cumulative per-component
//!    allocation, is bit-identical at 1/2/4 rayon threads, and a stopped
//!    run is a bit-identical prefix of the full run (values, CI
//!    half-widths and allocation).
//! 2. **Direct ≡ service** — driving an adaptive estimator directly and
//!    through the valuation service (coalescer, retry facade, progress
//!    channel) yields the same snapshot stream, solo or coalesced with a
//!    concurrent twin.
//! 3. **Uniform fallback** — on a homoscedastic problem every planned
//!    round degenerates to the uniform split: at each batch boundary the
//!    cumulative allocation spreads by at most 1 over the strata below
//!    capacity.
//! 4. **Real substrate** — the prefix contract holds over the FL
//!    utility.
//! 5. **The payoff** — on a heteroscedastic game, Neyman-adaptive Owen
//!    reaches a matched CI target with at least 1.5× fewer evaluations
//!    than the uniform schedule.
//!
//! The stopping threshold of checks 1–4 honours `FEDVAL_CI_EPS` when set
//! (the CI matrix sets it); otherwise each test derives a mid-run
//! threshold from the full run's own snapshot stream, which is
//! guaranteed reachable. Check 5 derives its own target and ignores the
//! variable.

use std::time::Duration;

use rand::rngs::StdRng;
use rand::SeedableRng;

use fedval_core::adaptive::AdaptivePolicy;
use fedval_core::anytime::{Control, ProgressSnapshot, StoppingRule};
use fedval_core::coalition::binom_u128;
use fedval_core::prelude::*;
use fedval_core::sampler::Observer;
use fedval_core::service::{Estimator, ValuationRequest, ValuationServer};

const THREAD_COUNTS: [usize; 3] = [1, 2, 4];

/// `FEDVAL_CI_EPS` when set and parseable, else `None`.
fn env_eps() -> Option<f64> {
    std::env::var("FEDVAL_CI_EPS").ok()?.parse().ok()
}

/// A threshold the stream is guaranteed to reach: the ambient
/// `FEDVAL_CI_EPS`, or the first *finite* max half-width in the stream.
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
/// the recorded full-run stream — values, CI half-widths *and*
/// allocation of the snapshot with the same `samples_used`.
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
    assert_eq!(
        stopped.allocation, twin.allocation,
        "{label}: allocation prefix"
    );
}

/// Drive one adaptive streaming estimator full-then-stopped at every
/// thread count: every snapshot must carry a monotone cumulative
/// allocation, the whole stream must be thread-invariant, and both a
/// CI-stopped and a sample-capped run must be bit-identical prefixes.
fn assert_adaptive_contract<F>(label: &str, run: F)
where
    F: Fn(&dyn Utility, Observer<'_>) -> (ProgressSnapshot, bool),
{
    let base = HashUtility { n: 9, seed: 0xADA };
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
        // Every snapshot carries the allocation, cumulative and monotone.
        assert!(
            full.iter().all(|s| s.allocation.is_some()),
            "{label}: adaptive snapshots must carry the allocation"
        );
        for w in full.windows(2) {
            match (&w[0].allocation, &w[1].allocation) {
                (Some(a), Some(b)) => assert!(
                    a.iter().zip(b).all(|(x, y)| x <= y),
                    "{label}: allocation must be cumulative ({a:?} -> {b:?})"
                ),
                _ => unreachable!("checked Some above"),
            }
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

        // The entire stream — allocation included — is thread-invariant.
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
        if !stopped_early {
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
        assert_prefix(label, &capped, &full);
    }
}

#[test]
fn adaptive_stratified_mc_allocation_is_a_pure_function_of_seed_and_history() {
    assert_adaptive_contract("adaptive-stratified-mc", |u, observe| {
        let mut rng = StdRng::seed_from_u64(41);
        let mut sampler = StratifiedSampler::new(
            9,
            Scheme::MarginalContribution,
            &StratifiedConfig::uniform(9, 504),
            Some(&AdaptivePolicy::default()),
            &mut rng,
        );
        drive(u, &mut sampler, Some(observe))
    });
}

#[test]
fn adaptive_stratified_cc_allocation_is_a_pure_function_of_seed_and_history() {
    assert_adaptive_contract("adaptive-stratified-cc", |u, observe| {
        let mut rng = StdRng::seed_from_u64(42);
        let mut sampler = StratifiedSampler::new(
            9,
            Scheme::ComplementaryContribution,
            &StratifiedConfig::uniform(9, 504),
            Some(&AdaptivePolicy::default()),
            &mut rng,
        );
        drive(u, &mut sampler, Some(observe))
    });
}

#[test]
fn adaptive_owen_allocation_is_a_pure_function_of_seed_and_history() {
    assert_adaptive_contract("adaptive-owen", |u, observe| {
        let mut rng = StdRng::seed_from_u64(43);
        let cfg = OwenConfig::new(4, 24);
        let policy = AdaptivePolicy::default();
        let mut sampler = OwenSampler::new(9, &cfg, Some(&policy), &mut rng);
        drive(u, &mut sampler, Some(observe))
    });
}

#[test]
fn adaptive_ipss_allocation_is_a_pure_function_of_seed_and_history() {
    assert_adaptive_contract("adaptive-ipss", |u, observe| {
        let mut rng = StdRng::seed_from_u64(44);
        let cfg = IpssConfig::new(100);
        let policy = AdaptivePolicy::default();
        let mut sampler = PrunedSampler::for_ipss(9, &cfg, Some(&policy), &mut rng);
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
fn adaptive_service_stream_is_bit_identical_to_the_direct_run() {
    // The same (seed, history) purity through the whole service stack:
    // the direct estimator stream and the service stream must agree
    // snapshot for snapshot, solo and coalesced with a concurrent twin.
    let base = HashUtility { n: 8, seed: 0xB5E };
    let policy = AdaptivePolicy::default();
    let gamma = 120;
    let seed = 47;

    let mut direct: Vec<ProgressSnapshot> = Vec::new();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut sampler = StratifiedSampler::new(
        8,
        Scheme::MarginalContribution,
        &StratifiedConfig::uniform(8, gamma),
        Some(&policy),
        &mut rng,
    );
    let (direct_out, stopped_early) = drive(
        &base,
        &mut sampler,
        Some(&mut |s| {
            direct.push(s.clone());
            Control::Continue
        }),
    );
    assert!(!stopped_early);

    let request =
        || ValuationRequest::new(Estimator::StratifiedMc, gamma, seed).with_adaptive(policy);

    // Solo through the service (adaptive alone turns on streaming).
    let server = ValuationServer::start(base.clone());
    let (solo_resp, solo) = stream_via_service(&server, request());
    server.shutdown();
    assert_eq!(solo, direct, "service stream diverged from the direct run");
    assert_eq!(solo_resp.values, direct_out.values);
    assert_eq!(
        solo_resp
            .progress
            .as_ref()
            .and_then(|s| s.allocation.clone()),
        direct_out.allocation
    );

    // Coalesced with a concurrent twin: interleaving must stay invisible.
    let server = ValuationServer::start(base);
    let t1 = server.submit(request());
    let t2 = server.submit(request());
    let r1 = match t1.wait() {
        Ok(r) => r,
        Err(e) => panic!("healthy run failed: {e}"),
    };
    let r2 = match t2.wait() {
        Ok(r) => r,
        Err(e) => panic!("healthy run failed: {e}"),
    };
    server.shutdown();
    for resp in [r1, r2] {
        assert_eq!(resp.values, direct_out.values, "coalesced run diverged");
        assert_eq!(
            resp.progress.as_ref().and_then(|s| s.allocation.clone()),
            direct_out.allocation,
            "coalesced allocation diverged"
        );
    }
}

#[test]
fn homoscedastic_allocation_degenerates_to_the_uniform_split() {
    // Equal per-client weights make every contribution identical, so all
    // stratum variances are 0 and each planned round must fall back to
    // the uniform split: at every batch boundary the cumulative
    // allocation of the strata below capacity spreads by at most 1, and
    // saturated strata sit exactly at capacity.
    let n = 6;
    let gamma = 24;
    let u = AdditiveUtility::new(0.0, vec![0.125; n]);
    let mut boundaries = 0usize;
    let mut rng = StdRng::seed_from_u64(53);
    let mut sampler = StratifiedSampler::new(
        n,
        Scheme::MarginalContribution,
        &StratifiedConfig::uniform(n, gamma),
        Some(&AdaptivePolicy::default()),
        &mut rng,
    );
    let (out, _) = drive(
        &u,
        &mut sampler,
        Some(&mut |s| {
            let alloc = match &s.allocation {
                Some(a) => a,
                None => panic!("adaptive snapshots must carry the allocation"),
            };
            let capacity = |k: usize| usize::try_from(binom_u128(n, k + 1)).unwrap_or(usize::MAX);
            let uncapped: Vec<usize> = (0..n)
                .filter(|&k| alloc[k] < capacity(k))
                .map(|k| alloc[k])
                .collect();
            if let (Some(&max), Some(&min)) = (uncapped.iter().max(), uncapped.iter().min()) {
                assert!(
                    max - min <= 1,
                    "homoscedastic rounds must stay uniform: {alloc:?}"
                );
            }
            boundaries += 1;
            Control::Continue
        }),
    );
    assert!(boundaries >= 4, "too few boundaries to mean anything");
    match out.allocation {
        Some(alloc) => assert_eq!(alloc.iter().sum::<usize>(), gamma),
        None => panic!("adaptive outcome must carry the allocation"),
    }
}

#[test]
fn adaptive_service_prefix_holds_on_the_fl_substrate() {
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
    let request = || {
        ValuationRequest::new(Estimator::StratifiedMc, 7, 31)
            .with_adaptive(AdaptivePolicy::default())
    };

    let (full_server, _cache) = serve(fl_utility(), FlServiceConfig::default());
    let (full_resp, full) = stream_via_service(&full_server, request());
    full_server.shutdown();
    assert!(full.len() >= 2, "too few snapshots to stop early");
    assert!(full.iter().all(|s| s.allocation.is_some()));

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
    assert_prefix("service-fl-adaptive", snapshot, &full);
    assert!(
        snapshot.samples_used < full_resp.progress.map(|s| s.samples_used).unwrap_or(0),
        "stopping must save model trainings"
    );
}

/// A symmetric heteroscedastic game: the value depends on the coalition
/// *size* only, with hash noise confined to sizes 1–2. Owen
/// contributions are then identical across clients (no between-client
/// spread to confuse the planner's pooled variances) while their
/// per-draw variance concentrates at the low-`q` grid nodes: the `q = 0`
/// and `q = 1` nodes draw a constant coalition size and are exactly
/// noiseless, the low-`q` interior node straddles the noisy sizes and
/// carries nearly all of the spread — the regime Neyman allocation
/// exists for.
struct SizeNoisyUtility {
    n: usize,
}

impl Utility for SizeNoisyUtility {
    fn n_clients(&self) -> usize {
        self.n
    }
    fn eval(&self, s: Coalition) -> f64 {
        let base = s.size() as f64 * 0.5;
        if (1..=2).contains(&s.size()) {
            // splitmix-style size hash: deterministic, seed-free noise.
            let mut x = (s.size() as u64) ^ 0x9E37_79B9_7F4A_7C15;
            x ^= x >> 33;
            x = x.wrapping_mul(0xFF51_AFD7_ED55_8CCD);
            x ^= x >> 33;
            base + (x as f64 / u64::MAX as f64 - 0.5) * 0.6
        } else {
            base
        }
    }
}

#[test]
fn adaptive_owen_needs_1_5x_fewer_evaluations_than_uniform_at_a_matched_ci() {
    // For each seed: derive the target CI from a full uniform run (the
    // half-width its whole budget certifies), then race the uniform and
    // the adaptive schedule to that target under `CiAtMost` and compare
    // `samples_used`. An 8-node grid separates the noisy low-q nodes from
    // the noiseless rest far better than the service's 4-node one.
    let n = 10;
    let u = SizeNoisyUtility { n };
    let cfg = OwenConfig::new(8, 16);
    // Per-client CIs need two observations per node before they go
    // finite, so the exploration floor must keep feeding each node until
    // two draws (2·n pooled contributions) have landed.
    let policy = AdaptivePolicy {
        min_observations: 2 * n,
        ..AdaptivePolicy::default()
    };
    let owen = |policy: Option<&AdaptivePolicy>, seed: u64, observe: Observer<'_>| {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut sampler = OwenSampler::new(n, &cfg, policy, &mut rng);
        drive(&u, &mut sampler, Some(observe)).0
    };
    let (mut uniform, mut adaptive) = (0usize, 0usize);
    for seed in 0..12u64 {
        // The target comes from a *different* seed than the raced runs: a
        // same-seed uniform race would retrace the very trajectory the
        // target came from and stop at its first favourable dip, biasing
        // the comparison toward uniform.
        let full = owen(None, 0xE0 + seed, &mut |_| Control::Continue);
        let eps = full.ci_halfwidths.iter().fold(0.0f64, |a, &b| a.max(b));
        assert!(eps.is_finite(), "the full run must certify a CI");
        let rule = StoppingRule::ci_at_most(eps);
        let mut race = |s: &ProgressSnapshot| {
            if rule.should_stop(s) {
                Control::Stop
            } else {
                Control::Continue
            }
        };
        uniform += owen(None, 0xB0 + seed, &mut race).samples_used;
        adaptive += owen(Some(&policy), 0xB0 + seed, &mut race).samples_used;
    }
    assert!(
        2 * uniform >= 3 * adaptive,
        "adaptive allocation must save >= 1.5x evaluations at a matched CI, \
         got {uniform} -> {adaptive} ({:.2}x)",
        uniform as f64 / adaptive as f64
    );
}
