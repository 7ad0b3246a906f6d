//! One run: the run-local [`Utility`] facade an estimator evaluates
//! against — limits checked at batch boundaries, batches parked at the
//! coalescer, poisoned flushes retried — and the dispatch from a request
//! to its sampler.

#![allow(
    clippy::disallowed_methods,
    reason = "timing whitelist: park-wait deadlines and flush windows bound only when work happens, never what the values are"
)]

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::thread;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::SeedableRng;

use super::coalescer::{FlushFailure, Shared};
use super::request::{Estimator, RunStats, ValuationError, ValuationRequest};
use crate::anytime::ProgressSnapshot;
use crate::coalition::Coalition;
use crate::exact::{exact_cc_sv, ExactSweep};
use crate::fault::quiet;
use crate::ipss::{IpssConfig, PrunedSampler};
use crate::loo::leave_one_out;
use crate::owen::{OwenConfig, OwenSampler};
use crate::sampler::{drive, Observer};
use crate::stratified::{Scheme, StratifiedConfig, StratifiedSampler};
use crate::utility::Utility;

/// Internal abort marker unwound out of an estimator at a batch
/// boundary; `serve_one` catches it and turns it into the partial
/// response or the typed error.
pub(super) enum ServiceAbort {
    Deadline {
        deadline: Duration,
        elapsed: Duration,
    },
    Budget {
        consumed: usize,
        max_evals: usize,
        next_batch: usize,
    },
    Fault(ValuationError),
}

fn abort(reason: ServiceAbort) -> ! {
    quiet::silent_panic_any(reason)
}

/// The run-local [`Utility`] facade an estimator evaluates against:
/// translates sub-game coalitions to global masks, enforces the
/// request's limits at batch boundaries, parks batches at the coalescer
/// (retrying directly after poisoned flushes) and tracks per-run
/// statistics.
pub(super) struct RunUtility<U: Utility + Send + Sync> {
    pub(super) shared: Arc<Shared<U>>,
    /// Global client indices of the run's sub-game, ascending.
    pub(super) members: Vec<usize>,
    /// Fast path: the run spans all clients (masks pass through).
    pub(super) identity: bool,
    pub(super) started: Instant,
    pub(super) deadline: Option<Duration>,
    pub(super) max_evals: Option<usize>,
    /// Record `(local coalition, value)` pairs for [`partial_prefix_fold`]
    /// (only when the request carries a limit under `Partial` policy).
    pub(super) record: bool,
    pub(super) log: Mutex<Vec<(Coalition, f64)>>,
    pub(super) batches: AtomicU64,
    pub(super) coalitions: AtomicU64,
    pub(super) coalesced: AtomicU64,
    pub(super) retries: AtomicU64,
    pub(super) park_wait_max_ns: AtomicU64,
}

impl<U: Utility + Send + Sync> RunUtility<U> {
    fn to_global(&self, s: Coalition) -> Coalition {
        if self.identity {
            return s;
        }
        Coalition::from_members(s.members().map(|j| self.members[j]))
    }

    pub(super) fn run_stats(&self, partial: bool, stopped_early: bool) -> RunStats {
        RunStats {
            batches: self.batches.load(Ordering::Relaxed) as usize,
            coalitions: self.coalitions.load(Ordering::Relaxed) as usize,
            coalesced_batches: self.coalesced.load(Ordering::Relaxed) as usize,
            partial,
            stopped_early,
            retries: self.retries.load(Ordering::Relaxed) as usize,
            park_wait_max: Duration::from_nanos(self.park_wait_max_ns.load(Ordering::Relaxed)),
        }
    }

    /// Batch-boundary checkpoint: shutdown, deadline, then budget. Fires
    /// *before* the batch is parked, so an aborted batch consumed nothing.
    fn checkpoint(&self, next_batch: usize) {
        if self.shared.is_shutdown() {
            abort(ServiceAbort::Fault(ValuationError::ServerShutdown));
        }
        if let Some(deadline) = self.deadline {
            let elapsed = self.started.elapsed();
            if elapsed >= deadline {
                abort(ServiceAbort::Deadline { deadline, elapsed });
            }
        }
        if let Some(max_evals) = self.max_evals {
            let consumed = self.coalitions.load(Ordering::Relaxed) as usize;
            if consumed + next_batch > max_evals {
                abort(ServiceAbort::Budget {
                    consumed,
                    max_evals,
                    next_batch,
                });
            }
        }
    }

    /// Direct retries after a poisoned flush: the run's own batch, against
    /// the still-healthy shared cache, with capped exponential backoff.
    /// Bypassing the coalescer isolates the failure — no peer's batch
    /// rides on a retry.
    fn retry_direct(&self, global: &[Coalition], mut detail: String) -> Vec<f64> {
        let policy = self.shared.retry;
        for attempt in 1..=policy.max_retries {
            thread::sleep(policy.backoff(attempt));
            self.retries.fetch_add(1, Ordering::Relaxed);
            self.shared.retries.fetch_add(1, Ordering::Relaxed);
            if self.shared.is_shutdown() {
                abort(ServiceAbort::Fault(ValuationError::ServerShutdown));
            }
            match quiet::catch_quiet(|| self.shared.cached.eval_batch(global)) {
                Ok(values) => return values,
                Err(payload) => detail = quiet::panic_message(payload.as_ref()),
            }
        }
        abort(ServiceAbort::Fault(ValuationError::UtilityPanicked {
            attempts: policy.max_retries + 1,
            detail,
        }));
    }
}

impl<U: Utility + Send + Sync> Utility for RunUtility<U> {
    fn n_clients(&self) -> usize {
        self.members.len()
    }

    fn eval(&self, s: Coalition) -> f64 {
        self.eval_batch(std::slice::from_ref(&s))[0]
    }

    fn eval_batch(&self, coalitions: &[Coalition]) -> Vec<f64> {
        if coalitions.is_empty() {
            return Vec::new();
        }
        self.checkpoint(coalitions.len());
        let global = || coalitions.iter().map(|&s| self.to_global(s)).collect();
        self.batches.fetch_add(1, Ordering::Relaxed);
        self.coalitions
            .fetch_add(coalitions.len() as u64, Ordering::Relaxed);
        let parked_at = Instant::now();
        let values = match self.shared.eval_coalesced(global()) {
            Ok(outcome) => {
                if outcome.merged_batches > 1 {
                    self.coalesced.fetch_add(1, Ordering::Relaxed);
                }
                outcome.values
            }
            Err(FlushFailure::Shutdown) => {
                abort(ServiceAbort::Fault(ValuationError::ServerShutdown))
            }
            // The flush took the batch; a retry translates it again.
            Err(FlushFailure::Poisoned(detail)) => self.retry_direct(&global(), detail),
        };
        self.park_wait_max_ns
            .fetch_max(parked_at.elapsed().as_nanos() as u64, Ordering::Relaxed);
        if self.record {
            self.log
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .extend(coalitions.iter().copied().zip(values.iter().copied()));
        }
        values
    }
}

/// Run the requested estimator against the run-local facade. With an
/// observer every batch-boundary snapshot is handed to it and it decides
/// whether to stop — a clean return at a batch boundary, no unwinding, so
/// it composes with the deadline/budget checkpoints (which still fire
/// through the [`RunUtility`] facade) and with coalescing, caching and
/// retries unchanged; without one the run issues its coarsest batches and
/// folds once.
///
/// `ExactCc` and `Loo` have no incremental fold (a CC pair needs the
/// complement, evaluated half a sweep later; LOO is `n + 1` evaluations
/// total). They run as one-shot enumerations wrapped in one final
/// snapshot with zero half-widths — so the "final snapshot equals the
/// response" contract holds uniformly.
pub(super) fn dispatch<V: Utility + Send + Sync>(
    req: &ValuationRequest,
    u: &RunUtility<V>,
    observe: Option<Observer<'_>>,
) -> (ProgressSnapshot, bool) {
    let n = u.n_clients();
    let rng = &mut StdRng::seed_from_u64(req.seed);
    let policy = req.adaptive.as_ref();
    match req.estimator {
        Estimator::ExactMc => drive(u, &mut ExactSweep::new(n), observe),
        Estimator::Ipss => {
            let cfg = IpssConfig::new(req.budget);
            let mut sampler = PrunedSampler::for_ipss(n, &cfg, policy, rng);
            drive(u, &mut sampler, observe)
        }
        Estimator::StratifiedMc | Estimator::StratifiedCc => {
            let scheme = if req.estimator == Estimator::StratifiedMc {
                Scheme::MarginalContribution
            } else {
                Scheme::ComplementaryContribution
            };
            let cfg = StratifiedConfig::uniform(n, req.budget);
            let mut sampler = StratifiedSampler::new(n, scheme, &cfg, policy, rng);
            drive(u, &mut sampler, observe)
        }
        Estimator::Owen => {
            let cfg = OwenConfig::for_budget(n, req.budget);
            drive(u, &mut OwenSampler::new(n, &cfg, policy, rng), observe)
        }
        // Nothing to steer: pruned Banzhaf ignores `adaptive`.
        Estimator::BanzhafPruned => {
            let mut sampler = PrunedSampler::for_banzhaf(n, req.budget, rng);
            drive(u, &mut sampler, observe)
        }
        Estimator::ExactCc | Estimator::Loo => {
            let values = match req.estimator {
                Estimator::ExactCc => exact_cc_sv(u),
                _ => leave_one_out(u),
            };
            let snapshot = ProgressSnapshot {
                ci_halfwidths: vec![0.0; values.len()],
                values,
                samples_used: u.coalitions.load(Ordering::Relaxed) as usize,
                batches_done: u.batches.load(Ordering::Relaxed) as usize,
                allocation: None,
            };
            if let Some(observe) = observe {
                observe(&snapshot); // enumerations never stop early
            }
            (snapshot, false)
        }
    }
}
