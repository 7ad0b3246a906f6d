//! The server: the builder, the dispatcher thread that registers bursts
//! of submitted requests together and spawns one worker per ticket, and
//! `serve_one`, the one body that turns an estimator run into a response
//! or a typed error — on a ticket's worker, or on the thread of a
//! blocking [`ValuationServer::call`].

#![allow(
    clippy::disallowed_methods,
    reason = "timing whitelist: park-wait deadlines and flush windows bound only when work happens, never what the values are"
)]

use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex, PoisonError};
use std::thread;
use std::time::{Duration, Instant};

use super::coalescer::{CoState, RunGuard, Shared};
use super::request::{
    partial_prefix_fold, Estimator, FlushWindow, LimitPolicy, RetryPolicy, Semivalue, ServiceStats,
    Ticket, ValuationError, ValuationRequest, ValuationResponse,
};
use super::run::{dispatch, RunUtility, ServiceAbort};
use crate::anytime::{Control, ProgressSnapshot, StoppingRule};
use crate::coalition::{Coalition, MAX_ENUMERATED_CLIENTS};
use crate::fault::quiet;
use crate::owen::OwenConfig;
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
                let result = serve_one(&shared, request, Some(&progress), guard);
                let _ = reply.send(result); // submitter may have dropped the ticket
            }));
        }
        workers.retain(|w| !w.is_finished());
    }
    for w in workers {
        let _ = w.join();
    }
}

/// One registered run: run the estimator under a quiet `catch_unwind`
/// and convert any abort or panic into the partial response or the typed
/// error. A streaming request's batch-boundary snapshots go to `progress`
/// when there is a ticket to read them.
fn serve_one<U: Utility + Send + Sync>(
    shared: &Arc<Shared<U>>,
    request: ValuationRequest,
    progress: Option<&mpsc::Sender<ProgressSnapshot>>,
    guard: RunGuard<U>,
) -> Result<ValuationResponse, ValuationError> {
    let start = Instant::now();
    let n = shared.cached.n_clients();
    let sampled = matches!(
        request.estimator,
        Estimator::Ipss
            | Estimator::BanzhafPruned
            | Estimator::StratifiedMc
            | Estimator::StratifiedCc
    );
    let exact = matches!(request.estimator, Estimator::ExactMc | Estimator::ExactCc);
    let n_sub = request.clients.map_or(n, Coalition::size);
    let owen_min = OwenConfig::for_budget(n_sub, 0).evaluations(n_sub);
    let invalid = match request.clients {
        // Every estimator needs a client to value.
        _ if n == 0 => Some("the utility has no clients to value".into()),
        Some(s) if !s.is_subset_of(Coalition::full(n)) => {
            Some(format!("request.clients exceeds the utility's {n} clients"))
        }
        Some(s) if s.is_empty() => Some("request.clients must name at least one client".into()),
        // γ = 0 cannot pay for U(∅) (the pruned constructors assert it),
        // and Alg. 1 with no draws would answer −0.0 for every client.
        _ if sampled && request.budget == 0 => Some(
            "ipss, banzhaf_pruned, stratified_mc and stratified_cc need a budget of at least 1"
                .into(),
        ),
        // The exact sweeps enumerate all 2^n coalitions of the sub-game.
        _ if exact && n_sub > MAX_ENUMERATED_CLIENTS => Some(format!(
            "exact_mc and exact_cc value at most {MAX_ENUMERATED_CLIENTS} clients"
        )),
        // Below one draw per node the grid would overrun the budget.
        _ if request.estimator == Estimator::Owen && request.budget < owen_min => Some(format!(
            "owen on {n_sub} clients needs a budget of at least {owen_min} (one draw per grid node)"
        )),
        _ => None,
    };
    if let Some(detail) = invalid {
        drop(guard);
        return Err(ValuationError::InvalidRequest { detail });
    }
    let members: Vec<usize> = match request.clients {
        Some(s) => s.members().collect(),
        None => (0..n).collect(),
    };
    let record = request.on_limit == LimitPolicy::Partial
        && (request.deadline.is_some() || request.max_evals.is_some());
    let run = RunUtility {
        shared: Arc::clone(shared),
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
        let (snapshot, stopped_early) = match streaming_rule {
            // Every batch-boundary snapshot goes to the ticket's progress
            // channel, if any, and the rule decides whether to stop there.
            Some(rule) => {
                let mut observe = |s: &ProgressSnapshot| {
                    if let Some(progress) = progress {
                        let _ = progress.send(s.clone()); // ticket may have been dropped
                    }
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
        match streaming_rule {
            Some(_) => (snapshot.values.clone(), Some(snapshot), stopped_early),
            None => (snapshot.values, None, stopped_early),
        }
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
    match outcome {
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
                    let index = match request.estimator {
                        Estimator::BanzhafPruned => Semivalue::Banzhaf,
                        _ => Semivalue::Shapley,
                    };
                    let values = partial_prefix_fold(run.members.len(), &log, index);
                    Ok(respond(values, true, None, false))
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
    }
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

    /// Serve one request on the calling thread and return its result —
    /// the blocking single-request path. The run registers at the
    /// coalescer and coalesces with every other run in flight, exactly as
    /// a submitted one, but pays no dispatcher hop, worker thread or reply
    /// channel, and streams no progress (the final snapshot is still in
    /// [`ValuationResponse::progress`]). A server that is shutting down
    /// answers [`ValuationError::ServerShutdown`] without registering; a
    /// panic in the service's own bookkeeping, outside the estimator's
    /// typed failure paths, surfaces as [`ValuationError::WorkerLost`]
    /// instead of unwinding into the caller.
    pub fn call(&self, request: ValuationRequest) -> Result<ValuationResponse, ValuationError> {
        if self.shared.is_shutdown() {
            return Err(ValuationError::ServerShutdown);
        }
        self.shared.register();
        let guard = RunGuard(Arc::clone(&self.shared));
        panic::catch_unwind(AssertUnwindSafe(|| {
            serve_one(&self.shared, request, None, guard)
        }))
        .unwrap_or(Err(ValuationError::WorkerLost))
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
    /// next batch boundary and *new* submissions and calls resolve with
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
