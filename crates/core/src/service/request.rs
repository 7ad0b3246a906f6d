//! The service's vocabulary: what a request asks, what a response and
//! its ticket carry, the typed errors, the flush and retry knobs, and the
//! partial-prefix fold behind graceful degradation. Nothing here reads a
//! clock.

use std::collections::HashMap;
use std::fmt;
use std::sync::mpsc;
use std::time::Duration;

use crate::adaptive::AdaptivePolicy;
use crate::anytime::{ProgressSnapshot, StoppingRule};
use crate::coalition::{binom, Coalition, MaskHash};
use crate::utility::{EvalStats, TrajCacheStats};

/// Which valuation estimator a [`ValuationRequest`] runs. Every variant
/// dispatches through [`Utility::eval_batch`](crate::utility::Utility::eval_batch), so all of them coalesce.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Estimator {
    /// Exact Shapley values via the MC expression (all `2^n` coalitions).
    ExactMc,
    /// Exact Shapley values via the CC expression (all `2^n` coalitions).
    ExactCc,
    /// IPSS (Alg. 3) with `γ` = the request's budget.
    Ipss,
    /// Stratified sampling (Alg. 1), MC scheme. The budget is `γ`, the
    /// number of coalitions drawn, split uniformly over the strata
    /// ([`StratifiedConfig::uniform`](crate::stratified::StratifiedConfig::uniform)).
    /// Each draw `S` is scored with its partner `S∖{i}`, and the memo
    /// dedups repeats, so distinct evaluations differ from `γ`: 197 at
    /// `γ = 250`, `n = 10`, for either scheme.
    StratifiedMc,
    /// Stratified sampling (Alg. 1), CC scheme. The budget is `γ`, the
    /// number of coalitions drawn, as for [`Estimator::StratifiedMc`];
    /// each draw's partner is `N∖S`.
    StratifiedCc,
    /// Owen multilinear sampling; the budget approximates the total
    /// number of utility evaluations.
    Owen,
    /// Importance-pruned Banzhaf values with `γ` = the request's budget.
    BanzhafPruned,
    /// Leave-one-out values (`n + 1` evaluations; budget ignored).
    Loo,
}

/// Why a valuation request failed — the error side of [`Ticket::wait`].
///
/// Every variant names a *request-scoped* failure: the server itself
/// stays healthy and keeps serving other requests (the whole point of
/// the fault-tolerance layer).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ValuationError {
    /// The utility panicked under every attempt to evaluate one of this
    /// run's batches (the poisoned flush plus `attempts − 1` direct
    /// retries). A flush poisons only the batch it picked, so other runs
    /// meet the fault only through their own batches.
    UtilityPanicked {
        /// Evaluation attempts made for the failing batch.
        attempts: usize,
        /// Message of the last panic.
        detail: String,
    },
    /// The estimator itself panicked outside a utility batch: a broken
    /// internal precondition, since requests that would fail one are
    /// rejected up front as [`ValuationError::InvalidRequest`].
    EstimatorPanicked {
        /// Message of the panic.
        detail: String,
    },
    /// The request was malformed: an empty or out-of-range client set, a
    /// zero budget for [`Estimator::Ipss`] / [`Estimator::BanzhafPruned`]
    /// (`γ = 0` cannot pay for `U(∅)`) or for [`Estimator::StratifiedMc`]
    /// / [`Estimator::StratifiedCc`] (Alg. 1 would draw nothing), an
    /// exact estimator over more than
    /// [`MAX_ENUMERATED_CLIENTS`](crate::coalition::MAX_ENUMERATED_CLIENTS)
    /// clients, or an [`Estimator::Owen`] budget below one draw per node.
    InvalidRequest {
        /// What was wrong.
        detail: String,
    },
    /// The run hit its wall-clock deadline at a batch boundary and the
    /// request asked to fail ([`LimitPolicy::Fail`]) instead of
    /// returning a partial prefix.
    DeadlineExceeded {
        /// The request's deadline.
        deadline: Duration,
        /// Elapsed wall-clock time when the boundary check fired.
        elapsed: Duration,
    },
    /// The run's next batch would overrun its evaluation budget and the
    /// request asked to fail ([`LimitPolicy::Fail`]).
    BudgetExhausted {
        /// Coalition evaluations already consumed.
        consumed: usize,
        /// The request's `max_evals`.
        max_evals: usize,
        /// Size of the batch that did not fit.
        next_batch: usize,
    },
    /// The server shut down before (or while) serving this request. All
    /// outstanding tickets resolve with this error on shutdown.
    ServerShutdown,
    /// The worker vanished without delivering a response — a service
    /// bug, kept as a typed error so callers never block forever.
    WorkerLost,
}

impl fmt::Display for ValuationError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ValuationError::UtilityPanicked { attempts, detail } => {
                write!(f, "utility panicked in all {attempts} attempts: {detail}")
            }
            ValuationError::EstimatorPanicked { detail } => {
                write!(f, "estimator panicked: {detail}")
            }
            ValuationError::InvalidRequest { detail } => write!(f, "invalid request: {detail}"),
            ValuationError::DeadlineExceeded { deadline, elapsed } => write!(
                f,
                "deadline of {deadline:?} exceeded after {elapsed:?} (at a batch boundary)"
            ),
            ValuationError::BudgetExhausted {
                consumed,
                max_evals,
                next_batch,
            } => write!(
                f,
                "evaluation budget exhausted: {consumed} consumed of {max_evals}, \
                 next batch needs {next_batch}"
            ),
            ValuationError::ServerShutdown => write!(f, "server shut down"),
            ValuationError::WorkerLost => {
                write!(f, "valuation worker terminated without a response")
            }
        }
    }
}

impl std::error::Error for ValuationError {}

/// What a run does when it hits its deadline or evaluation budget.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum LimitPolicy {
    /// Degrade gracefully: return [`partial_prefix_fold`] over the
    /// evaluated prefix, with [`RunStats::partial`] set. Default.
    #[default]
    Partial,
    /// Fail the request with [`ValuationError::DeadlineExceeded`] /
    /// [`ValuationError::BudgetExhausted`].
    Fail,
}

/// One valuation query: *which estimator*, over *which clients*, with
/// *what budget and seed* — plus optional per-request limits.
#[derive(Clone, Debug)]
pub struct ValuationRequest {
    /// The estimator to run.
    pub estimator: Estimator,
    /// Restrict valuation to this subset of clients (`None` = all). The
    /// run plays the *sub-game* on these clients: coalitions range over
    /// subsets of the set, and values are reported per member. Sub-game
    /// coalitions are translated to global masks before evaluation, so
    /// requests over different client sets still share cached coalitions.
    pub clients: Option<Coalition>,
    /// Sampling budget, interpreted per estimator: IPSS/Banzhaf `γ`;
    /// for stratified MC/CC (Alg. 1) `γ` = coalitions drawn, not distinct
    /// evaluations (see [`Estimator::StratifiedMc`]); for Owen an upper
    /// bound on evaluations before dedup, with at least one draw per grid
    /// node; ignored by exact/LOO.
    pub budget: usize,
    /// Seed of the run's RNG stream — results are a pure function of
    /// `(estimator, clients, budget, seed)` and the utility.
    pub seed: u64,
    /// Wall-clock deadline, measured from worker start and enforced at
    /// batch boundaries (`None` = unbounded). A batch in flight when the
    /// deadline passes still completes; the *next* boundary fires.
    pub deadline: Option<Duration>,
    /// Hard cap on coalition evaluations this run may consume, enforced
    /// *before* each batch (`None` = unbounded). Distinct from `budget`:
    /// `budget` shapes what the estimator samples, `max_evals` cuts the
    /// run off mid-schedule.
    pub max_evals: Option<usize>,
    /// What to do when `deadline` or `max_evals` fires.
    pub on_limit: LimitPolicy,
    /// Run the estimator's *streaming* fold and stop early once this
    /// rule is satisfied at a batch boundary (`None` = classic fixed-
    /// budget run). Streaming runs emit [`ProgressSnapshot`] events on
    /// the ticket ([`Ticket::progress`]) and attach the final snapshot
    /// to the response; the determinism contract guarantees a stopped
    /// run's values bit-equal the same-seed full run's snapshot at the
    /// same batch count.
    pub stopping: Option<StoppingRule>,
    /// Re-plan the sampling budget at every batch boundary by Neyman
    /// allocation (`None` = the estimator's fixed uniform schedule).
    /// Applies to the sampling estimators with a steerable schedule —
    /// [`Estimator::StratifiedMc`], [`Estimator::StratifiedCc`] and
    /// [`Estimator::Owen`]. The exact sweeps and LOO have nothing to
    /// steer, and neither have [`Estimator::Ipss`] and
    /// [`Estimator::BanzhafPruned`], whose phase 2 is the paper's one
    /// balanced draw (Alg. 3 line 11): they ignore it, and their
    /// snapshots carry no allocation.
    /// Forces the streaming fold: combined with `stopping: None` the run
    /// streams under [`StoppingRule::stream_only`] (progress snapshots,
    /// no early stop). Adaptive snapshots carry
    /// [`ProgressSnapshot::allocation`], and the determinism contract is
    /// unchanged: the allocation sequence is a pure function of
    /// (seed, snapshot history), so coalesced runs stay bit-identical to
    /// solo runs.
    pub adaptive: Option<AdaptivePolicy>,
}

impl ValuationRequest {
    /// A request over all clients, with no deadline or evaluation cap.
    pub fn new(estimator: Estimator, budget: usize, seed: u64) -> Self {
        ValuationRequest {
            estimator,
            clients: None,
            budget,
            seed,
            deadline: None,
            max_evals: None,
            on_limit: LimitPolicy::default(),
            stopping: None,
            adaptive: None,
        }
    }

    /// Restrict the valuation to a client subset (the sub-game on `s`).
    pub fn for_clients(mut self, s: Coalition) -> Self {
        self.clients = Some(s);
        self
    }

    /// Set a wall-clock deadline, enforced at batch boundaries.
    pub fn with_deadline(mut self, deadline: Duration) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Cap the coalition evaluations the run may consume.
    pub fn with_max_evals(mut self, max_evals: usize) -> Self {
        self.max_evals = Some(max_evals);
        self
    }

    /// Choose the limit behaviour (default: [`LimitPolicy::Partial`]).
    pub fn on_limit(mut self, policy: LimitPolicy) -> Self {
        self.on_limit = policy;
        self
    }

    /// Run the streaming fold under `rule`, emitting progress snapshots
    /// and stopping early once the rule fires at a batch boundary.
    /// `StoppingRule::stream_only()` streams progress without ever
    /// stopping early.
    pub fn with_stopping(mut self, rule: StoppingRule) -> Self {
        self.stopping = Some(rule);
        self
    }

    /// Re-plan the sampling budget each round by Neyman allocation under
    /// `policy` (see [`crate::adaptive`]). Implies streaming; composes
    /// with [`ValuationRequest::with_stopping`], deadlines and budgets.
    pub fn with_adaptive(mut self, policy: AdaptivePolicy) -> Self {
        self.adaptive = Some(policy);
        self
    }
}

/// Per-run batching statistics, attached to every [`ValuationResponse`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RunStats {
    /// Batches the run's estimator parked at the coalescer.
    pub batches: usize,
    /// Coalition values the run consumed (including repeats and overlap
    /// with other runs — compare with the shared [`EvalStats`] to see the
    /// dedup).
    pub coalitions: usize,
    /// Batches delivered by a flush that also delivered at least one
    /// other run's batch — the flush evaluated one of them and the shared
    /// cache covered the rest: the run's share of actual cross-run
    /// coalescing.
    pub coalesced_batches: usize,
    /// The run hit its deadline or evaluation cap and the response holds
    /// the partial-prefix fold instead of the estimator's full output.
    pub partial: bool,
    /// A streaming run's [`StoppingRule`] fired before the schedule
    /// completed; the values are the (bit-reproducible) prefix estimate
    /// at the stopping batch. Always `false` for non-streaming runs.
    pub stopped_early: bool,
    /// Direct retries this run performed after poisoned flushes.
    pub retries: usize,
    /// Longest time one of this run's batches spent at the coalescer
    /// (parking through result delivery, including the flush itself). A
    /// parked batch waits for its peers to park and for every cheaper
    /// batch flushed before it; a [`FlushWindow`] `max_wait` bounds it.
    pub park_wait_max: Duration,
}

/// Cumulative service-wide statistics ([`ValuationServer::stats`](super::ValuationServer::stats), also
/// snapshotted into every response).
#[derive(Clone, Copy, Debug, Default)]
pub struct ServiceStats {
    /// Requests completed since the server started (successfully or not).
    pub requests: usize,
    /// Coalescer flushes attempted (including poisoned ones).
    pub flushes: usize,
    /// Parked batches delivered across all flushes: each flush's picked
    /// batch (poisoned ones included) plus every batch the cache covered
    /// beside it (`> flushes` ⇔ cross-run coalescing happened).
    pub merged_batches: usize,
    /// Flushes whose inner evaluation panicked; the picked batch's run
    /// retried it directly.
    pub failed_flushes: usize,
    /// Direct per-run retry attempts after poisoned flushes.
    pub retries: usize,
    /// Distinct coalitions read through *successful* flushes: the picked
    /// batch's, plus the covered batches' others, deduplicated per flush.
    /// Each is one cache lookup, so without retries this equals
    /// `eval.lookups` (retry traffic bypasses the coalescer and shows up
    /// in `eval.lookups` only).
    pub distinct_coalitions: usize,
    /// The shared coalition cache's accounting: `evaluations` is the
    /// total number of models actually trained on behalf of *all* runs.
    pub eval: EvalStats,
    /// Training-level accounting of the utility's trajectory cache, when
    /// the server was built with a stats source
    /// ([`ServerBuilder::traj_stats`](super::ServerBuilder::traj_stats)); includes its occupancy
    /// (`entries`, `bytes`).
    pub traj: Option<TrajCacheStats>,
}

/// The reply to a [`ValuationRequest`].
#[derive(Clone, Debug)]
pub struct ValuationResponse {
    /// The request this answers.
    pub request: ValuationRequest,
    /// Global client indices valued, ascending (all clients, or the
    /// members of `request.clients`).
    pub clients: Vec<usize>,
    /// Estimated values, positionally aligned with `clients`. When
    /// [`RunStats::partial`] is set, these are the [`partial_prefix_fold`]
    /// of the batches evaluated before the limit fired.
    pub values: Vec<f64>,
    /// Wall-clock time from worker start to estimator completion.
    pub wall_time: Duration,
    /// This run's batching statistics.
    pub run: RunStats,
    /// Service-wide statistics snapshotted at completion.
    pub service: ServiceStats,
    /// The final [`ProgressSnapshot`] of a streaming run (equal to the
    /// last event the ticket streamed, values bit-identical to `values`).
    /// `None` for non-streaming requests.
    pub progress: Option<ProgressSnapshot>,
}

/// A pending response ([`ValuationServer::submit`](super::ValuationServer::submit)).
pub struct Ticket {
    pub(super) rx: mpsc::Receiver<Result<ValuationResponse, ValuationError>>,
    pub(super) progress_rx: mpsc::Receiver<ProgressSnapshot>,
}

impl Ticket {
    /// Drain the progress events a *streaming* request has emitted so
    /// far (empty for non-streaming requests and between batches).
    /// Snapshots arrive in batch order — `samples_used` is monotone
    /// non-decreasing — and the last snapshot a completed run emits
    /// equals the response's [`ValuationResponse::progress`]. Designed
    /// to interleave with [`Ticket::wait_timeout`] in a poll loop.
    pub fn progress(&self) -> Vec<ProgressSnapshot> {
        let mut out = Vec::new();
        while let Ok(s) = self.progress_rx.try_recv() {
            out.push(s);
        }
        out
    }

    /// Block until the request resolves — with its response, or with the
    /// typed error describing why it could not be served.
    pub fn wait(self) -> Result<ValuationResponse, ValuationError> {
        self.rx.recv().unwrap_or(Err(ValuationError::WorkerLost))
    }

    /// Poll for up to `timeout`: `None` while the request is still in
    /// flight, `Some(result)` once it resolved. The ticket stays usable
    /// after a `None`, so callers can poll in a loop or interleave other
    /// work without blocking forever.
    pub fn wait_timeout(
        &self,
        timeout: Duration,
    ) -> Option<Result<ValuationResponse, ValuationError>> {
        match self.rx.recv_timeout(timeout) {
            Ok(result) => Some(result),
            Err(mpsc::RecvTimeoutError::Timeout) => None,
            Err(mpsc::RecvTimeoutError::Disconnected) => Some(Err(ValuationError::WorkerLost)),
        }
    }
}

/// The early flush trigger bounding how long a parked batch can wait
/// ([`ServerBuilder::flush_window`](super::ServerBuilder::flush_window)).
/// Without it a batch waits for every registered run to park (the
/// barrier) and then for every cheaper batch flushed before it. The
/// trigger trades some cross-run coalescing for a latency bound; it
/// cannot change a value (every value is a pure function of its coalition
/// mask). It may fire beside a flush already in flight.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FlushWindow {
    /// Once the oldest parked batch has waited this long, flush *that*
    /// batch, whatever its cost and even if not every run has parked
    /// (`None` = barrier only). Bounds every batch's wait by `max_wait`
    /// plus its own flush.
    pub max_wait: Option<Duration>,
}

/// Backoff schedule for direct retries after a poisoned flush.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Direct retries after the initial (flushed) attempt fails.
    pub max_retries: usize,
    /// Sleep before the first retry; doubles per attempt.
    pub backoff_base: Duration,
    /// Cap on the per-attempt backoff.
    pub backoff_cap: Duration,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_retries: 2,
            backoff_base: Duration::from_millis(1),
            backoff_cap: Duration::from_millis(50),
        }
    }
}

impl RetryPolicy {
    /// Backoff before retry `attempt` (1-based): `base · 2^(attempt−1)`,
    /// capped.
    pub(super) fn backoff(&self, attempt: usize) -> Duration {
        let factor = 1u32 << (attempt - 1).min(16);
        self.backoff_base
            .checked_mul(factor)
            .unwrap_or(self.backoff_cap)
            .min(self.backoff_cap)
    }
}

/// The index [`partial_prefix_fold`] weights its stratum means by.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Semivalue {
    /// Shapley: every stratum weighs `1/n`.
    Shapley,
    /// Banzhaf: stratum `k` (pairs `(S ∪ {i}, S)` with `|S| = k`) weighs
    /// `C(n−1, k)/2^{n−1}`, its share of a client's `2^{n−1}` pairs.
    Banzhaf,
}

/// Fold partial estimates of `index` from an evaluated prefix.
///
/// This is the graceful-degradation estimator behind
/// [`LimitPolicy::Partial`]: given the `(coalition, value)` pairs a run
/// evaluated before its deadline/budget fired (in evaluation order), it
/// computes, for every stratum, the mean marginal contribution over the
/// pairs `(T, T∖{i})` whose *both* members were evaluated, and sums the
/// per-stratum means under `index`'s stratum weights — the same
/// stratified-mean fold IPSS and pruned Banzhaf use for their
/// partially-sampled stratum, applied uniformly to whatever prefix
/// exists. Clients without a single evaluated pair get `0.0`.
///
/// The fold is a pure function of the prefix: re-running the same
/// request without limits and truncating its evaluation log after the
/// same number of batches reproduces the partial values **bit-identically**
/// (the test suite asserts this).
pub fn partial_prefix_fold(n: usize, evaluated: &[(Coalition, f64)], index: Semivalue) -> Vec<f64> {
    let mut memo: HashMap<u128, f64, MaskHash> =
        HashMap::with_capacity_and_hasher(evaluated.len(), MaskHash::default());
    let mut order: Vec<Coalition> = Vec::with_capacity(evaluated.len());
    for &(s, v) in evaluated {
        if let std::collections::hash_map::Entry::Vacant(e) = memo.entry(s.0) {
            e.insert(v);
            order.push(s);
        }
    }
    // Per-(stratum, client) accumulators; deterministic accumulation in
    // first-evaluation order keeps the fold bit-stable.
    let mut sums = vec![vec![0.0f64; n]; n];
    let mut counts = vec![vec![0usize; n]; n];
    for &t in &order {
        let t_size = t.size();
        if t_size == 0 {
            continue;
        }
        let ut = memo[&t.0];
        for i in t.members() {
            if let Some(&us) = memo.get(&t.without(i).0) {
                sums[t_size - 1][i] += ut - us;
                counts[t_size - 1][i] += 1;
            }
        }
    }
    let inv_n = 1.0 / n as f64;
    let inv_denom = 1.0 / (1u128 << n.saturating_sub(1)) as f64;
    (0..n)
        .map(|i| {
            let mut phi = 0.0f64;
            for stratum in 0..n {
                if counts[stratum][i] > 0 {
                    let mean = sums[stratum][i] / counts[stratum][i] as f64;
                    phi += match index {
                        Semivalue::Shapley => mean,
                        Semivalue::Banzhaf => binom(n - 1, stratum) * mean * inv_denom,
                    };
                }
            }
            match index {
                Semivalue::Shapley => phi * inv_n,
                Semivalue::Banzhaf => phi,
            }
        })
        .collect()
}
