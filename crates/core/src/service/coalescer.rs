//! The coalescer: batches parked by concurrent runs, the all-eligible
//! barrier and its [`FlushWindow`] early triggers, and the flush itself —
//! merge, dedup, one shared evaluation, scatter.

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

/// Outcome of one flush, delivered to each parked batch.
pub(super) struct FlushOutcome {
    /// Values aligned with the parked batch's coalitions.
    pub(super) values: Vec<f64>,
    /// How many parked batches the flush merged.
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
    /// Taken by a leader (in flight) — no longer counted as parked.
    taken: bool,
    /// When the batch parked — drives the [`FlushWindow`] `max_wait`
    /// trigger.
    parked_at: Instant,
}

/// Coalescer state, guarded by one mutex (the condvar lives beside it).
#[derive(Default)]
pub(super) struct CoState {
    /// Runs registered and *able to park*: registered minus the runs
    /// whose batch is in flight in a flush. The flush barrier is
    /// `parked == eligible`.
    eligible: usize,
    /// Entries not yet taken by a leader.
    parked: usize,
    next_ticket: u64,
    /// Parked batches by ticket. A `BTreeMap`, not a `HashMap`: the
    /// flush leader walks this map to take parked entries, and a B-tree
    /// iterates in ticket (arrival) order — deterministic by
    /// construction, where hash order would silently depend on the
    /// allocator state. (The merged batch is sorted again before
    /// evaluation, but the take order must not be left to chance.)
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
    /// becomes the leader and evaluates the merged batch itself.
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
            let wait_deadline = self.window.max_wait.and_then(|w| {
                st.entries
                    .values()
                    .filter(|e| !e.taken)
                    .map(|e| e.parked_at)
                    .min()
                    .map(|oldest| oldest + w)
            });
            let window_trigger = wait_deadline.is_some_and(|d| Instant::now() >= d);
            if barrier || count_trigger || window_trigger {
                st = self.flush(st);
                continue; // own outcome is now set (or poisoned)
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

    /// Flush every parked batch as the leader: merge, dedup, sort,
    /// evaluate through the shared cache, scatter results, wake waiters.
    /// Takes and returns the state guard (the evaluation itself runs
    /// unlocked, so a new wave of runs can park meanwhile). A panicking
    /// inner utility is caught here: the taken entries are poisoned with
    /// the panic message and their owners retry independently — the
    /// coalescer itself stays healthy.
    fn flush<'a>(&'a self, mut st: MutexGuard<'a, CoState>) -> MutexGuard<'a, CoState> {
        let taken: Vec<u64> = st
            .entries
            .iter_mut()
            .filter(|(_, e)| !e.taken)
            .map(|(&id, e)| {
                e.taken = true;
                id
            })
            .collect();
        let batch_count = taken.len();
        if batch_count == 0 {
            return st;
        }
        st.parked -= batch_count;
        st.eligible -= batch_count;
        st.flushes += 1;
        st.merged_batches += batch_count;
        // Merge + dedup, then a deterministic forwarding order (by size,
        // ties by mask) so lane-block composition downstream does not
        // depend on arrival order.
        let mut seen: HashSet<u128> = HashSet::new();
        let mut merged: Vec<Coalition> = Vec::new();
        for id in &taken {
            for &s in &st.entries[id].coalitions {
                if seen.insert(s.0) {
                    merged.push(s);
                }
            }
        }
        merged.sort_by_key(|s| (s.size(), s.0));
        drop(st);

        // Evaluate unlocked, catching panics: a poisoned flush fails only
        // the runs whose batches it merged.
        match quiet::catch_quiet(|| self.cached.eval_batch(&merged)) {
            Ok(values) => {
                let by_mask: HashMap<u128, f64> = merged.iter().map(|s| s.0).zip(values).collect();
                let mut st = self.lock_state();
                st.distinct_coalitions += merged.len();
                for id in &taken {
                    let Some(entry) = st.entries.get_mut(id) else {
                        unreachable!("taken entries stay resident until their owner consumes them")
                    };
                    entry.outcome = Some(Ok(FlushOutcome {
                        values: entry
                            .coalitions
                            .iter()
                            .map(|s| {
                                by_mask.get(&s.0).copied().unwrap_or_else(|| {
                                    unreachable!("merged batch covers every taken coalition")
                                })
                            })
                            .collect(),
                        merged_batches: batch_count,
                    }));
                }
                st.eligible += batch_count;
                drop(st);
            }
            Err(payload) => {
                let detail = quiet::panic_message(payload.as_ref());
                let mut st = self.lock_state();
                st.failed_flushes += 1;
                for id in &taken {
                    if let Some(entry) = st.entries.get_mut(id) {
                        entry.outcome = Some(Err(detail.clone()));
                    }
                }
                st.eligible += batch_count;
                drop(st);
            }
        }
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
