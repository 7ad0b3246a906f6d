//! The server: the builder, the dispatcher thread that registers bursts
//! of requests together, and the per-request worker that turns an
//! estimator run into a response or a typed error.

// This file is on the timing whitelist (clippy.toml bans Instant::now
// elsewhere): park-wait deadlines and flush windows are wall-clock by
// design, bound only *when* work happens — never what the values are.
#![allow(clippy::disallowed_methods)]

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex, PoisonError};
use std::thread;
use std::time::{Duration, Instant};

use super::coalescer::{CoState, RunGuard, Shared};
use super::request::{
    partial_prefix_fold, Estimator, FlushWindow, LimitPolicy, RetryPolicy, ServiceStats, Ticket,
    ValuationError, ValuationRequest, ValuationResponse,
};
use super::run::{dispatch, RunUtility, ServiceAbort};
use crate::anytime::{Control, ProgressSnapshot, StoppingRule};
use crate::coalition::Coalition;
use crate::fault::quiet;
use crate::utility::{CachedUtility, TrajCacheStats, Utility};

type Reply = mpsc::Sender<Result<ValuationResponse, ValuationError>>;
type Job = (ValuationRequest, Reply, mpsc::Sender<ProgressSnapshot>);

/// The long-lived multi-valuation server — see the [module docs](super)
/// for the coalescing design and failure model. Construct with
/// [`ValuationServer::start`] (or [`ValuationServer::builder`] to attach
/// a trajectory-cache stats source, a [`FlushWindow`] or a
/// [`RetryPolicy`]), submit requests with [`ValuationServer::submit`] /
/// [`ValuationServer::call`], and stop with [`ValuationServer::shutdown`]
/// (dropping the server also shuts it down, draining in-flight tickets
/// with [`ValuationError::ServerShutdown`]).
pub struct ValuationServer<U: Utility + Send + Sync + 'static> {
    shared: Arc<Shared<U>>,
    tx: Option<mpsc::Sender<Job>>,
    dispatcher: Option<thread::JoinHandle<()>>,
}

/// Configures and starts a [`ValuationServer`].
pub struct ServerBuilder<U: Utility + Send + Sync + 'static> {
    utility: U,
    window: FlushWindow,
    retry: RetryPolicy,
    traj_stats: Option<Box<dyn Fn() -> TrajCacheStats + Send + Sync>>,
}

impl<U: Utility + Send + Sync + 'static> ServerBuilder<U> {
    /// Attach a trajectory-cache stats source (typically
    /// `move || cache.stats()` over the `Arc<TrajectoryCache>` handle the
    /// utility shares); its snapshots appear in [`ServiceStats::traj`].
    pub fn traj_stats(
        mut self,
        source: impl Fn() -> TrajCacheStats + Send + Sync + 'static,
    ) -> Self {
        self.traj_stats = Some(Box::new(source));
        self
    }

    /// Bound the time a parked batch waits: once the oldest parked batch
    /// is `max_wait` old, the next flush takes it (see [`FlushWindow`]).
    pub fn flush_window(mut self, max_wait: Duration) -> Self {
        self.window.max_wait = Some(max_wait);
        self
    }

    /// Flush the cheapest parked batch as soon as `max_parked` batches are
    /// parked (see [`FlushWindow`]).
    pub fn flush_after_parked(mut self, max_parked: usize) -> Self {
        self.window.max_parked = Some(max_parked);
        self
    }

    /// Override the retry/backoff schedule for poisoned flushes.
    pub fn retry_policy(mut self, retry: RetryPolicy) -> Self {
        self.retry = retry;
        self
    }

    /// Spawn the dispatcher and return the running server.
    pub fn start(self) -> ValuationServer<U> {
        let shared = Arc::new(Shared {
            cached: CachedUtility::new(self.utility),
            state: Mutex::new(CoState::default()),
            cv: Condvar::new(),
            window: self.window,
            retry: self.retry,
            shutdown: AtomicBool::new(false),
            requests_done: AtomicU64::new(0),
            retries: AtomicU64::new(0),
            traj_stats: self.traj_stats,
        });
        let (tx, rx) = mpsc::channel::<Job>();
        let dispatcher = {
            let shared = Arc::clone(&shared);
            thread::spawn(move || dispatcher_loop(shared, rx))
        };
        ValuationServer {
            shared,
            tx: Some(tx),
            dispatcher: Some(dispatcher),
        }
    }
}

/// Receive jobs, register each run, spawn its worker. A burst of pending
/// submissions is drained and *registered together* before any worker
/// spawns, so concurrent requests coalesce from their very first batch.
/// After shutdown, still-queued jobs are drained with the typed error
/// instead of spawning workers.
fn dispatcher_loop<U: Utility + Send + Sync + 'static>(
    shared: Arc<Shared<U>>,
    rx: mpsc::Receiver<Job>,
) {
    let mut workers: Vec<thread::JoinHandle<()>> = Vec::new();
    while let Ok(first) = rx.recv() {
        let mut burst = vec![first];
        while let Ok(job) = rx.try_recv() {
            burst.push(job);
        }
        if shared.is_shutdown() {
            for (_request, reply, _progress) in burst {
                let _ = reply.send(Err(ValuationError::ServerShutdown));
            }
            continue;
        }
        let guards: Vec<RunGuard<U>> = burst
            .iter()
            .map(|_| {
                shared.register();
                RunGuard(Arc::clone(&shared))
            })
            .collect();
        for ((request, reply, progress), guard) in burst.into_iter().zip(guards) {
            let shared = Arc::clone(&shared);
            workers.push(thread::spawn(move || {
                serve_one(shared, request, reply, progress, guard)
            }));
        }
        workers.retain(|w| !w.is_finished());
    }
    for w in workers {
        let _ = w.join();
    }
}

/// One worker: run the estimator under a quiet `catch_unwind`, convert
/// any abort or panic into the partial response or the typed error, and
/// deliver the result. Every code path sends exactly one reply.
fn serve_one<U: Utility + Send + Sync>(
    shared: Arc<Shared<U>>,
    request: ValuationRequest,
    reply: Reply,
    progress: mpsc::Sender<ProgressSnapshot>,
    guard: RunGuard<U>,
) {
    let start = Instant::now();
    let n = shared.cached.n_clients();
    let pruned = matches!(
        request.estimator,
        Estimator::Ipss | Estimator::BanzhafPruned
    );
    let invalid = match request.clients {
        Some(s) if !s.is_subset_of(Coalition::full(n)) => {
            Some(format!("request.clients exceeds the utility's {n} clients"))
        }
        Some(s) if s.is_empty() => Some("request.clients must name at least one client".into()),
        // γ = 0 cannot pay for U(∅); the pruned constructors assert it.
        _ if pruned && request.budget == 0 => {
            Some("ipss and banzhaf_pruned need a budget of at least 1".into())
        }
        _ => None,
    };
    if let Some(detail) = invalid {
        drop(guard);
        let _ = reply.send(Err(ValuationError::InvalidRequest { detail }));
        return;
    }
    let members: Vec<usize> = match request.clients {
        Some(s) => s.members().collect(),
        None => (0..n).collect(),
    };
    let record = request.on_limit == LimitPolicy::Partial
        && (request.deadline.is_some() || request.max_evals.is_some());
    let run = RunUtility {
        shared: Arc::clone(&shared),
        identity: members.len() == n,
        members,
        started: start,
        deadline: request.deadline,
        max_evals: request.max_evals,
        record,
        log: Mutex::new(Vec::new()),
        batches: AtomicU64::new(0),
        coalitions: AtomicU64::new(0),
        coalesced: AtomicU64::new(0),
        retries: AtomicU64::new(0),
        park_wait_max_ns: AtomicU64::new(0),
    };
    // An adaptive request without an explicit stopping rule still runs
    // the streaming fold (the planner lives at batch boundaries): it
    // streams under `stream_only`, never stopping early.
    let streaming_rule = match (request.stopping, request.adaptive) {
        (Some(rule), _) => Some(rule),
        (None, Some(_)) => Some(StoppingRule::stream_only()),
        (None, None) => None,
    };
    let outcome = quiet::catch_quiet(|| {
        let out = match streaming_rule {
            // Every batch-boundary snapshot goes to the ticket's progress
            // channel, and the rule decides whether to stop there.
            Some(rule) => {
                let mut observe = |s: &ProgressSnapshot| {
                    let _ = progress.send(s.clone()); // ticket may have been dropped
                    if rule.should_stop(s) {
                        Control::Stop
                    } else {
                        Control::Continue
                    }
                };
                dispatch(&request, &run, Some(&mut observe))
            }
            None => dispatch(&request, &run, None),
        };
        let snapshot = streaming_rule.map(|_| ProgressSnapshot {
            values: out.values.clone(),
            ci_halfwidths: out.ci_halfwidths,
            samples_used: out.samples_used,
            batches_done: out.batches_done,
            allocation: out.allocation,
        });
        (out.values, snapshot, out.stopped_early)
    });
    let wall_time = start.elapsed();
    drop(guard); // deregister before snapshotting stats
    shared.requests_done.fetch_add(1, Ordering::Relaxed);

    let respond = |values: Vec<f64>,
                   partial: bool,
                   progress: Option<ProgressSnapshot>,
                   stopped_early: bool| ValuationResponse {
        clients: run.members.clone(),
        values,
        wall_time,
        run: run.run_stats(partial, stopped_early),
        service: shared.stats(),
        request: request.clone(),
        progress,
    };
    let result = match outcome {
        Ok((values, snapshot, stopped_early)) => {
            Ok(respond(values, false, snapshot, stopped_early))
        }
        Err(payload) => match payload.downcast::<ServiceAbort>() {
            Ok(reason) => match (*reason, request.on_limit) {
                (ServiceAbort::Fault(e), _) => Err(e),
                (
                    ServiceAbort::Deadline { .. } | ServiceAbort::Budget { .. },
                    LimitPolicy::Partial,
                ) => {
                    let log = run.log.lock().unwrap_or_else(PoisonError::into_inner);
                    Ok(respond(
                        partial_prefix_fold(run.members.len(), &log),
                        true,
                        None,
                        false,
                    ))
                }
                (ServiceAbort::Deadline { deadline, elapsed }, LimitPolicy::Fail) => {
                    Err(ValuationError::DeadlineExceeded { deadline, elapsed })
                }
                (
                    ServiceAbort::Budget {
                        consumed,
                        max_evals,
                        next_batch,
                    },
                    LimitPolicy::Fail,
                ) => Err(ValuationError::BudgetExhausted {
                    consumed,
                    max_evals,
                    next_batch,
                }),
            },
            Err(payload) => Err(ValuationError::EstimatorPanicked {
                detail: quiet::panic_message(payload.as_ref()),
            }),
        },
    };
    let _ = reply.send(result); // submitter may have dropped the ticket
}

impl<U: Utility + Send + Sync + 'static> ValuationServer<U> {
    /// Start a server over `utility` with default settings. The server
    /// wraps the utility in its own shared [`CachedUtility`]; hand it the
    /// innermost (possibly parallel) utility, not a pre-cached one.
    pub fn start(utility: U) -> Self {
        Self::builder(utility).start()
    }

    /// Configure before starting (flush window, retry policy,
    /// trajectory-cache stats source).
    pub fn builder(utility: U) -> ServerBuilder<U> {
        ServerBuilder {
            utility,
            window: FlushWindow::default(),
            retry: RetryPolicy::default(),
            traj_stats: None,
        }
    }

    /// Enqueue a request; returns a [`Ticket`] to wait on. Submission
    /// never blocks on the valuation itself. Submitting to a server that
    /// has shut down yields a ticket pre-resolved with
    /// [`ValuationError::ServerShutdown`].
    pub fn submit(&self, request: ValuationRequest) -> Ticket {
        let (tx, rx) = mpsc::channel();
        let (progress_tx, progress_rx) = mpsc::channel();
        let delivered = self
            .tx
            .as_ref()
            .map(|jobs| jobs.send((request, tx.clone(), progress_tx)).is_ok())
            .unwrap_or(false);
        if !delivered {
            let _ = tx.send(Err(ValuationError::ServerShutdown));
        }
        Ticket { rx, progress_rx }
    }

    /// Submit and wait — the blocking single-request convenience.
    pub fn call(&self, request: ValuationRequest) -> Result<ValuationResponse, ValuationError> {
        self.submit(request).wait()
    }

    /// Cumulative service statistics (also snapshotted per response).
    pub fn stats(&self) -> ServiceStats {
        self.shared.stats()
    }

    /// Stop the server: in-flight runs abort at their next batch
    /// boundary, every outstanding ticket resolves with
    /// [`ValuationError::ServerShutdown`], and all worker threads are
    /// joined before this returns.
    pub fn shutdown(mut self) {
        self.shutdown_in_place();
    }

    /// Initiate shutdown through a shared reference: sets the shutdown
    /// flag and wakes parked workers, so in-flight runs abort at their
    /// next batch boundary and *new* submissions resolve with
    /// [`ValuationError::ServerShutdown`] — but does **not** join
    /// threads. Needed by owners that hold the server behind `Arc` (e.g.
    /// a network transport reacting to SIGTERM while connection handlers
    /// still share the server); the eventual [`shutdown`] or drop
    /// completes the join.
    ///
    /// [`shutdown`]: ValuationServer::shutdown
    pub fn begin_shutdown(&self) {
        self.shared.shutdown.store(true, Ordering::Release);
        self.shared.cv.notify_all();
    }

    fn shutdown_in_place(&mut self) {
        self.shared.shutdown.store(true, Ordering::Release);
        self.shared.cv.notify_all();
        drop(self.tx.take());
        if let Some(d) = self.dispatcher.take() {
            let _ = d.join();
        }
    }
}

impl<U: Utility + Send + Sync + 'static> Drop for ValuationServer<U> {
    fn drop(&mut self) {
        self.shutdown_in_place();
    }
}
