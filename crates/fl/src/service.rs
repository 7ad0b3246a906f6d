//! FL wiring of the multi-valuation service: one call that stacks the
//! whole engine — `ValuationServer` → shared `CachedUtility` →
//! `ParallelUtility` fan-out → [`FlUtility`] lock-step lane blocks → the
//! utility's round-0 [`TrajectoryCache`] — and hands back the server plus
//! the table's handle.
//!
//! The coalescing server lives in `fedval_core::service` and is
//! substrate-agnostic; what this module adds is the FL-specific sharing:
//! every concurrent run's coalitions end up as lane blocks over **one**
//! round-0 table, so each client's round-0 training is paid once per
//! server lifetime, in at most `n · p · 4` bytes.
//! FL training batches are the heaviest in the codebase. The barrier
//! already serves the cheapest parked batch first, so a fast peer's small
//! batch overtakes a slow run's large one; the config also exposes the
//! server's bounded-latency
//! [`FlushWindow`](fedval_core::service::FlushWindow) triggers, so a large
//! batch that keeps losing to cheaper ones, or a batch whose peers are
//! still training, waits at most `flush_max_wait` before a flush takes
//! it.
//!
//! ```no_run
//! use fedval_core::service::{Estimator, ValuationRequest};
//! use fedval_fl::service::{serve, FlServiceConfig};
//! # use fedval_data::{MnistLike, SyntheticSetup};
//! # use fedval_fl::{FedAvgConfig, FlUtility, ModelSpec};
//! # use rand::rngs::StdRng;
//! # use rand::SeedableRng;
//! # let (train, test) = MnistLike::new(1).generate_split(96, 48, 2);
//! # let mut rng = StdRng::seed_from_u64(3);
//! # let clients = SyntheticSetup::SameSizeSameDist.partition(&train, 4, &mut rng);
//! # let utility = FlUtility::new(clients, test, ModelSpec::Linear, FedAvgConfig::default());
//!
//! // Two fan-out threads; the round-0 table needs no sizing.
//! let (server, cache) = serve(
//!     utility,
//!     FlServiceConfig {
//!         threads: Some(2),
//!         ..Default::default()
//!     },
//! );
//! let loo = server.call(ValuationRequest::new(Estimator::Loo, 0, 0)).expect("healthy run");
//! let ipss = server.call(ValuationRequest::new(Estimator::Ipss, 16, 7)).expect("healthy run");
//! println!("LOO {:?} / IPSS {:?}", loo.values, ipss.values);
//! println!("round-0 table: {} bytes", cache.stats().bytes);
//! server.shutdown();
//! ```

use std::sync::Arc;
use std::time::Duration;

use fedval_core::service::ValuationServer;
use fedval_core::utility::ParallelUtility;

use crate::trajcache::TrajectoryCache;
use crate::utility::FlUtility;

/// A [`ValuationServer`] over the full FL evaluation stack.
pub type FlValuationServer = ValuationServer<ParallelUtility<FlUtility>>;

/// Options of [`serve`].
#[derive(Clone, Copy, Debug, Default)]
pub struct FlServiceConfig {
    /// Thread count of the server-side `ParallelUtility` fan-out
    /// (`None` = rayon's process-wide default, i.e. all cores).
    pub threads: Option<usize>,
    /// Bound the time a parked batch waits: once the oldest parked batch
    /// is this old, the next flush takes it, whatever its cost and even if
    /// not every run has parked (`None` = barrier only). Trades some
    /// cross-run coalescing for a latency cap; never changes a value.
    pub flush_max_wait: Option<Duration>,
    /// Flush the cheapest parked batch as soon as this many are parked
    /// (`None` = barrier only; `Some(1)` disables cross-run batching
    /// entirely).
    pub flush_after_parked: Option<usize>,
}

impl FlServiceConfig {
    /// Read the config from the environment — the knobs a deployment of
    /// the wire transport (`fedval-serve`, see `crates/serve`) tunes
    /// without a rebuild. Unset or unparsable variables keep the
    /// [`Default`] (`None`): misconfiguration degrades to the defaults
    /// rather than failing startup.
    ///
    /// | variable | field |
    /// |----------|-------|
    /// | `FEDVAL_SERVICE_THREADS` | `threads` |
    /// | `FEDVAL_FLUSH_MAX_WAIT_MS` | `flush_max_wait` (milliseconds) |
    /// | `FEDVAL_FLUSH_AFTER_PARKED` | `flush_after_parked` |
    pub fn from_env() -> FlServiceConfig {
        fn env_usize(name: &str) -> Option<usize> {
            std::env::var(name).ok()?.trim().parse().ok()
        }
        FlServiceConfig {
            threads: env_usize("FEDVAL_SERVICE_THREADS"),
            flush_max_wait: env_usize("FEDVAL_FLUSH_MAX_WAIT_MS")
                .map(|ms| Duration::from_millis(ms as u64)),
            flush_after_parked: env_usize("FEDVAL_FLUSH_AFTER_PARKED"),
        }
    }
}

/// Start a multi-valuation server over one [`FlUtility`].
///
/// Wraps the utility in a `ParallelUtility` fan-out and starts a
/// `ValuationServer` whose [`ServiceStats`] report the utility's round-0
/// [`TrajectoryCache`] — training-level accounting — next to the
/// coalition-level `EvalStats`.
///
/// Returns the server and the table's handle ([`TrajectoryCache::stats`]).
///
/// [`ServiceStats`]: fedval_core::service::ServiceStats
pub fn serve(
    utility: FlUtility,
    cfg: FlServiceConfig,
) -> (FlValuationServer, Arc<TrajectoryCache>) {
    let cache = Arc::clone(utility.traj_cache());
    let fan_out = match cfg.threads {
        Some(threads) => ParallelUtility::with_num_threads(utility, threads),
        None => ParallelUtility::new(utility),
    };
    let stats_handle = Arc::clone(&cache);
    let mut builder = ValuationServer::builder(fan_out).traj_stats(move || stats_handle.stats());
    if let Some(max_wait) = cfg.flush_max_wait {
        builder = builder.flush_window(max_wait);
    }
    if let Some(max_parked) = cfg.flush_after_parked {
        builder = builder.flush_after_parked(max_parked);
    }
    (builder.start(), cache)
}

#[cfg(test)]
// Tests assert invariants; an unwrap that trips IS the test failing.
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use fedval_core::coalition::Coalition;
    use fedval_core::service::{Estimator, ValuationError, ValuationRequest, ValuationResponse};
    use fedval_core::utility::Utility;
    use fedval_data::{MnistLike, SyntheticSetup};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    use crate::config::FedAvgConfig;
    use crate::model::ModelSpec;

    /// Unwrap a service result in tests (plain `panic!` keeps the module
    /// clean under `deny(clippy::unwrap_used, clippy::expect_used)`).
    fn ok(result: Result<ValuationResponse, ValuationError>) -> ValuationResponse {
        match result {
            Ok(resp) => resp,
            Err(e) => panic!("request failed: {e}"),
        }
    }

    fn tiny_utility() -> FlUtility {
        let gen = MnistLike::new(21);
        let (train, test) = gen.generate_split(96, 48, 22);
        let mut rng = StdRng::seed_from_u64(23);
        let clients = SyntheticSetup::SameSizeSameDist.partition(&train, 4, &mut rng);
        FlUtility::new(
            clients,
            test,
            ModelSpec::Linear,
            FedAvgConfig {
                rounds: 2,
                local_epochs: 1,
                seed: 24,
                ..Default::default()
            },
        )
    }

    #[test]
    fn served_values_match_direct_evaluation() {
        let expected = {
            let u = tiny_utility();
            let coalitions: Vec<Coalition> = fedval_core::coalition::all_subsets(4).collect();
            u.eval_batch(&coalitions)
        };
        let (server, cache) = serve(tiny_utility(), FlServiceConfig::default());
        let resp = ok(server.call(ValuationRequest::new(Estimator::ExactMc, 0, 0)));
        // The exact sweep touched every subset; spot-check through the
        // exact values instead of raw utilities.
        let direct = fedval_core::exact::exact_mc_sv(&tiny_utility());
        assert_eq!(resp.values, direct);
        assert_eq!(resp.service.eval.evaluations, expected.len());
        let Some(traj) = resp.service.traj else {
            panic!("traj stats wired by serve()")
        };
        assert!(traj.local_trainings > 0);
        assert_eq!(traj.entries, cache.stats().entries);
        server.shutdown();
    }

    #[test]
    fn windowed_service_is_bit_identical_to_barrier_mode() {
        let barrier = {
            let (server, _cache) = serve(tiny_utility(), FlServiceConfig::default());
            let v = ok(server.call(ValuationRequest::new(Estimator::Ipss, 8, 5))).values;
            server.shutdown();
            v
        };
        let (server, _cache) = serve(
            tiny_utility(),
            FlServiceConfig {
                flush_max_wait: Some(Duration::from_millis(2)),
                flush_after_parked: Some(1),
                ..Default::default()
            },
        );
        let windowed = ok(server.call(ValuationRequest::new(Estimator::Ipss, 8, 5)));
        assert_eq!(windowed.values, barrier, "flush triggers changed a value");
        server.shutdown();
    }

    #[test]
    fn adaptive_request_over_fl_substrate_carries_the_allocation() {
        use fedval_core::adaptive::AdaptivePolicy;
        // The adaptive schedule composes with real FL training unchanged:
        // same-seed runs agree bit-for-bit and the response exposes the
        // planner's cumulative per-stratum draw counts.
        let (server, _cache) = serve(tiny_utility(), FlServiceConfig::default());
        let req = || {
            ValuationRequest::new(Estimator::StratifiedMc, 12, 31)
                .with_adaptive(AdaptivePolicy::default())
        };
        let first = ok(server.call(req()));
        let alloc = match first.progress.as_ref().and_then(|s| s.allocation.as_ref()) {
            Some(a) => a.clone(),
            None => panic!("adaptive response must carry the allocation"),
        };
        assert_eq!(alloc.iter().sum::<usize>(), 12, "{alloc:?}");
        let again = ok(server.call(req()));
        assert_eq!(again.values, first.values);
        assert_eq!(
            again.progress.as_ref().and_then(|s| s.allocation.as_ref()),
            Some(&alloc)
        );
        server.shutdown();
    }

    #[test]
    fn config_from_env_reads_every_knob_and_tolerates_garbage() {
        // Serialized against nothing: no other test in this binary reads
        // these variables.
        for name in [
            "FEDVAL_SERVICE_THREADS",
            "FEDVAL_FLUSH_MAX_WAIT_MS",
            "FEDVAL_FLUSH_AFTER_PARKED",
        ] {
            std::env::remove_var(name);
        }
        let unset = FlServiceConfig::from_env();
        assert!(unset.threads.is_none());
        assert!(unset.flush_max_wait.is_none());
        assert!(unset.flush_after_parked.is_none());

        std::env::set_var("FEDVAL_SERVICE_THREADS", " 2 ");
        std::env::set_var("FEDVAL_FLUSH_MAX_WAIT_MS", "250");
        std::env::set_var("FEDVAL_FLUSH_AFTER_PARKED", "not-a-number");
        let cfg = FlServiceConfig::from_env();
        assert_eq!(cfg.threads, Some(2));
        assert_eq!(cfg.flush_max_wait, Some(Duration::from_millis(250)));
        assert_eq!(cfg.flush_after_parked, None, "garbage degrades to default");
        for name in [
            "FEDVAL_SERVICE_THREADS",
            "FEDVAL_FLUSH_MAX_WAIT_MS",
            "FEDVAL_FLUSH_AFTER_PARKED",
        ] {
            std::env::remove_var(name);
        }
    }
}
