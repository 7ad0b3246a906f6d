//! The coalescer: batches parked by concurrent runs, the all-parked
//! barrier and its [`FlushWindow`] early triggers, and the flush itself —
//! pick the parked batch with the least uncached work, evaluate it through
//! the shared cache, deliver it with every parked batch the cache now
//! covers.

// This file is on the timing whitelist (clippy.toml bans Instant::now
// elsewhere): park-wait deadlines and flush windows are wall-clock by
// design, bound only *when* work happens — never what the values are.
#![allow(clippy::disallowed_methods)]

use std::collections::{BTreeMap, HashMap, HashSet};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::Instant;

use super::request::{FlushWindow, RetryPolicy, ServiceStats};
use crate::coalition::Coalition;
use crate::fault::quiet;
use crate::utility::{CachedUtility, TrajCacheStats, Utility};

/// Outcome of one flush, delivered to each batch it served.
pub(super) struct FlushOutcome {
    /// Values aligned with the parked batch's coalitions.
    pub(super) values: Vec<f64>,
    /// How many parked batches the flush delivered.
    pub(super) merged_batches: usize,
}

/// Why a parked batch came back without values.
pub(super) enum FlushFailure {
    /// The flush leader's evaluation panicked; the message is the panic
    /// payload. The caller retries its own batch directly.
    Poisoned(String),
    /// The server shut down while the batch was parked.
    Shutdown,
}

/// A batch parked at the coalescer, waiting for a flush.
struct ParkedEntry {
    coalitions: Vec<Coalition>,
    /// `None` while pending; filled by the flush leader. `Err` carries
    /// the panic message of a poisoned flush.
    outcome: Option<Result<FlushOutcome, String>>,
    /// Taken by a flush (picked, or delivered as covered) — no longer
    /// counted as parked.
    taken: bool,
    /// When the batch parked — drives the [`FlushWindow`] `max_wait`
    /// trigger.
    parked_at: Instant,
}

/// Coalescer state, guarded by one mutex (the condvar lives beside it).
#[derive(Default)]
pub(super) struct CoState {
    /// Runs registered. A run whose batch is in flight stays counted, so
    /// the flush barrier `parked == eligible` holds only once every run —
    /// including the ones the last flush released — has parked its next
    /// batch: one barrier flush at a time.
    eligible: usize,
    /// Entries not yet taken by a flush.
    parked: usize,
    next_ticket: u64,
    /// Parked batches by ticket. A `BTreeMap`, not a `HashMap`: the
    /// flush leader walks this map to pick a batch and to find the ones
    /// the cache covers, and a B-tree iterates in ticket (arrival) order —
    /// so a cost tie goes to the lowest ticket and the oldest entry is the
    /// first one, by construction, where hash order would silently depend
    /// on the allocator state.
    entries: BTreeMap<u64, ParkedEntry>,
    flushes: usize,
    merged_batches: usize,
    failed_flushes: usize,
    distinct_coalitions: usize,
}

/// Everything the workers share: the cached utility, the coalescer, the
/// failure-handling configuration and the service counters.
pub(super) struct Shared<U: Utility + Send + Sync> {
    pub(super) cached: CachedUtility<U>,
    pub(super) state: Mutex<CoState>,
    pub(super) cv: Condvar,
    pub(super) window: FlushWindow,
    pub(super) retry: RetryPolicy,
    pub(super) shutdown: AtomicBool,
    pub(super) requests_done: AtomicU64,
    pub(super) retries: AtomicU64,
    pub(super) traj_stats: Option<Box<dyn Fn() -> TrajCacheStats + Send + Sync>>,
}

impl<U: Utility + Send + Sync> Shared<U> {
    /// Lock the coalescer state, recovering from poison: the service
    /// never panics while holding this lock on purpose, but a poisoned
    /// guard must degrade to the typed error path, not to more panics.
    fn lock_state(&self) -> MutexGuard<'_, CoState> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    pub(super) fn is_shutdown(&self) -> bool {
        self.shutdown.load(Ordering::Acquire)
    }

    /// Register a run (performed by the dispatcher *before* the worker
    /// spawns, so a burst of submissions coalesces from its first batch).
    pub(super) fn register(&self) {
        self.lock_state().eligible += 1;
    }

    /// Deregister a finished run and wake parked waiters — the barrier
    /// may have become satisfiable.
    fn unregister(&self) {
        let mut st = self.lock_state();
        st.eligible -= 1;
        drop(st);
        self.cv.notify_all();
    }

    /// Park `coalitions` and wait for a flush to deliver their values.
    /// A caller that observes a satisfied trigger — the barrier
    /// (`parked == eligible`), or either [`FlushWindow`] condition —
    /// becomes the leader of one flush, which may serve another run's
    /// batch and leave its own parked.
    pub(super) fn eval_coalesced(
        &self,
        coalitions: &[Coalition],
    ) -> Result<FlushOutcome, FlushFailure> {
        let mut st = self.lock_state();
        let ticket = st.next_ticket;
        st.next_ticket += 1;
        st.entries.insert(
            ticket,
            ParkedEntry {
                coalitions: coalitions.to_vec(),
                outcome: None,
                taken: false,
                parked_at: Instant::now(),
            },
        );
        st.parked += 1;
        loop {
            if st.entries.get(&ticket).is_some_and(|e| e.outcome.is_some()) {
                let Some(entry) = st.entries.remove(&ticket) else {
                    unreachable!("own ticket resident until removed here")
                };
                let Some(outcome) = entry.outcome else {
                    unreachable!("outcome presence checked above")
                };
                return outcome.map_err(FlushFailure::Poisoned);
            }
            if self.is_shutdown() {
                // Withdraw the batch unless a leader already owns it (in
                // which case the leader will deliver an outcome shortly).
                if st.entries.get(&ticket).is_some_and(|e| !e.taken) {
                    st.entries.remove(&ticket);
                    st.parked -= 1;
                    drop(st);
                    self.cv.notify_all();
                    return Err(FlushFailure::Shutdown);
                }
            }
            let barrier = st.parked > 0 && st.parked == st.eligible;
            let count_trigger = self.window.max_parked.is_some_and(|k| st.parked >= k);
            // Tickets and park times rise together, so the first parked
            // entry is the oldest.
            let oldest = st
                .entries
                .iter()
                .find(|(_, e)| !e.taken)
                .map(|(&id, e)| (id, e.parked_at));
            let wait_deadline = self
                .window
                .max_wait
                .and_then(|w| oldest.map(|(_, at)| at + w));
            let window_trigger = wait_deadline.is_some_and(|d| Instant::now() >= d);
            // An expired wait takes its own batch, so `max_wait` bounds
            // every parked batch's wait; the barrier and `max_parked` take
            // the cheapest.
            let pick = match oldest {
                Some((id, _)) if window_trigger => Some(id),
                _ if barrier || count_trigger => self.cheapest(&st),
                _ => None,
            };
            if let Some(pick) = pick {
                st = self.flush(st, pick);
                continue; // own outcome set, or own batch still parked
            }
            st = match wait_deadline {
                Some(deadline) => {
                    let timeout = deadline.saturating_duration_since(Instant::now());
                    self.cv
                        .wait_timeout(st, timeout)
                        .map(|(guard, _timed_out)| guard)
                        .unwrap_or_else(|e| e.into_inner().0)
                }
                None => self.cv.wait(st).unwrap_or_else(PoisonError::into_inner),
            };
        }
    }

    /// The parked batch with the least uncached work, ties to the lowest
    /// ticket. With one batch parked there is nothing to compare — every
    /// single-tenant flush — so the scan is skipped.
    fn cheapest(&self, st: &CoState) -> Option<u64> {
        let mut parked = st.entries.iter().filter(|(_, e)| !e.taken);
        if st.parked == 1 {
            return parked.next().map(|(&id, _)| id);
        }
        // `min_by_key` keeps the first minimum: the lowest ticket.
        parked
            .min_by_key(|(_, e)| self.uncached_work(&e.coalitions))
            .map(|(&id, _)| id)
    }

    /// `Σ (|S| + 1)` over the batch's distinct uncached coalitions: on an
    /// FL utility one evaluation costs about one local training per member
    /// plus one scoring pass, and a plain miss count would rank 22 large
    /// coalitions (`Σ|S| = 119`) ahead of 45 pairs (`Σ|S| = 90`).
    /// `is_cached` counts no lookups.
    fn uncached_work(&self, batch: &[Coalition]) -> usize {
        let mut seen = HashSet::new();
        batch
            .iter()
            .filter(|&&s| !self.cached.is_cached(s) && seen.insert(s.0))
            .map(|s| s.size() + 1)
            .sum()
    }

    /// Flush the parked batch `pick` as the leader: evaluate its distinct
    /// coalitions through the shared cache, then deliver it together with
    /// every other parked batch the cache now covers, and wake waiters.
    /// The rest stay parked. Takes and returns the state guard (the
    /// evaluation itself runs unlocked, so runs can park meanwhile). A
    /// panicking inner utility is caught here: only the picked batch is
    /// poisoned, and its owner retries independently — the coalescer
    /// itself stays healthy.
    fn flush<'a>(&'a self, mut st: MutexGuard<'a, CoState>, pick: u64) -> MutexGuard<'a, CoState> {
        let Some(entry) = st.entries.get_mut(&pick) else {
            unreachable!("the pick is a parked entry")
        };
        entry.taken = true;
        // Distinct coalitions in a deterministic forwarding order (by
        // size, ties by mask), so lane-block composition downstream does
        // not depend on arrival order.
        let mut batch = entry.coalitions.clone();
        batch.sort_by_key(|s| (s.size(), s.0));
        batch.dedup();
        st.parked -= 1;
        st.flushes += 1;
        st.merged_batches += 1;
        drop(st);

        let values = match quiet::catch_quiet(|| self.cached.eval_batch(&batch)) {
            Ok(values) => values,
            Err(payload) => {
                let detail = quiet::panic_message(payload.as_ref());
                let mut st = self.lock_state();
                st.failed_flushes += 1;
                if let Some(entry) = st.entries.get_mut(&pick) {
                    entry.outcome = Some(Err(detail));
                }
                drop(st);
                self.cv.notify_all();
                return self.lock_state();
            }
        };
        let mut by_mask: HashMap<u128, f64> = batch.iter().map(|s| s.0).zip(values).collect();

        let mut st = self.lock_state();
        let mut delivered = vec![pick];
        let mut rest: Vec<Coalition> = Vec::new();
        for (&id, entry) in st.entries.iter_mut().filter(|(_, e)| !e.taken) {
            if entry
                .coalitions
                .iter()
                .all(|&s| by_mask.contains_key(&s.0) || self.cached.is_cached(s))
            {
                entry.taken = true;
                delivered.push(id);
                rest.extend(
                    entry
                        .coalitions
                        .iter()
                        .filter(|s| !by_mask.contains_key(&s.0)),
                );
            }
        }
        // The covered batches' coalitions the pick did not evaluate are
        // all cache hits: one read, no inner evaluation under the lock,
        // and `eval.lookups` still equals `distinct_coalitions`.
        if !rest.is_empty() {
            rest.sort_by_key(|s| (s.size(), s.0));
            rest.dedup();
            let values = self.cached.eval_batch(&rest);
            by_mask.extend(rest.iter().map(|s| s.0).zip(values));
        }
        let covered = delivered.len() - 1;
        st.parked -= covered;
        st.merged_batches += covered;
        st.distinct_coalitions += by_mask.len();
        for id in &delivered {
            let Some(entry) = st.entries.get_mut(id) else {
                unreachable!("taken entries stay resident until their owner consumes them")
            };
            entry.outcome = Some(Ok(FlushOutcome {
                values: entry
                    .coalitions
                    .iter()
                    .map(|s| {
                        by_mask.get(&s.0).copied().unwrap_or_else(|| {
                            unreachable!("the flush read every delivered coalition")
                        })
                    })
                    .collect(),
                merged_batches: delivered.len(),
            }));
        }
        drop(st);
        self.cv.notify_all();
        self.lock_state()
    }

    pub(super) fn stats(&self) -> ServiceStats {
        let st = self.lock_state();
        ServiceStats {
            requests: self.requests_done.load(Ordering::Relaxed) as usize,
            flushes: st.flushes,
            merged_batches: st.merged_batches,
            failed_flushes: st.failed_flushes,
            retries: self.retries.load(Ordering::Relaxed) as usize,
            distinct_coalitions: st.distinct_coalitions,
            eval: self.cached.stats(),
            traj: self.traj_stats.as_ref().map(|f| f()),
        }
    }
}

/// Deregisters a run when dropped — including during a worker panic, so
/// parked peers never wait on a dead run.
pub(super) struct RunGuard<U: Utility + Send + Sync>(pub(super) Arc<Shared<U>>);

impl<U: Utility + Send + Sync> Drop for RunGuard<U> {
    fn drop(&mut self) {
        self.0.unregister();
    }
}
