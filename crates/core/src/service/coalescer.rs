//! The coalescer: batches parked by concurrent runs, the all-parked
//! barrier and its [`FlushWindow`] early triggers, and the flush itself —
//! pick the parked batch with the least uncached work, evaluate it through
//! the shared cache, deliver it with every parked batch the cache now
//! covers.

#![allow(
    clippy::disallowed_methods,
    reason = "timing whitelist: park-wait deadlines and flush windows bound only when work happens, never what the values are"
)]

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::Instant;

use super::request::{FlushWindow, RetryPolicy, ServiceStats};
use crate::coalition::Coalition;
use crate::fault::quiet;
use crate::utility::{dedup_by_mask, CachedUtility, TrajCacheStats, Utility};

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

    /// Register a run: by the dispatcher for a whole burst of submissions
    /// *before* any of their workers spawns, so the burst coalesces from
    /// its first batch, or by a blocking `call` on its own thread just
    /// before it runs.
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
    /// (`parked == eligible`) or an expired [`FlushWindow`] wait —
    /// becomes the leader of one flush, which may serve another run's
    /// batch and leave its own parked.
    pub(super) fn eval_coalesced(
        &self,
        coalitions: Vec<Coalition>,
    ) -> Result<FlushOutcome, FlushFailure> {
        let mut st = self.lock_state();
        let ticket = st.next_ticket;
        st.next_ticket += 1;
        st.entries.insert(
            ticket,
            ParkedEntry {
                coalitions,
                outcome: None,
                taken: false,
                parked_at: Instant::now(),
            },
        );
        st.parked += 1;
        loop {
            if let Some(outcome) = st.entries.get_mut(&ticket).and_then(|e| e.outcome.take()) {
                st.entries.remove(&ticket);
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
            // every parked batch's wait; the barrier takes the cheapest.
            let pick = match oldest {
                Some((id, _)) if window_trigger => Some(id),
                _ if barrier => self.cheapest(&st),
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
        let uncached = batch.iter().filter(|&&s| !self.cached.is_cached(s));
        let (distinct, _) = dedup_by_mask(uncached.copied().collect());
        distinct.iter().map(|s| s.size() + 1).sum()
    }

    /// Flush the parked batch `pick` as the leader: evaluate its distinct
    /// coalitions through the shared cache, then deliver it together with
    /// every other parked batch the cache now covers, and wake waiters.
    /// The rest stay parked. Takes and returns the state guard (the
    /// evaluation itself runs unlocked, so runs can park meanwhile). A
    /// panicking inner utility is caught here: only the picked batch is
    /// poisoned, and its owner retries independently — the coalescer
    /// itself stays healthy.
    ///
    /// The pick is deduplicated by mask and its values are delivered by
    /// position. The `(size, mask)` order that lane blocks need is
    /// imposed below the cache, by `ParallelUtility` and the FL utility,
    /// so the flush does not sort by size.
    fn flush<'a>(&'a self, mut st: MutexGuard<'a, CoState>, pick: u64) -> MutexGuard<'a, CoState> {
        let Some(entry) = st.entries.get_mut(&pick) else {
            unreachable!("the pick is a parked entry")
        };
        entry.taken = true;
        // The owner reads only the outcome from here on.
        let (batch, slots) = dedup_by_mask(std::mem::take(&mut entry.coalitions));
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

        let mut st = self.lock_state();
        // Every parked batch the cache now covers is delivered too; the
        // pick's coalitions are all cached by now.
        let mut covered: Vec<u64> = Vec::new();
        let mut rest: Vec<Coalition> = Vec::new();
        for (&id, entry) in st.entries.iter_mut().filter(|(_, e)| !e.taken) {
            if entry.coalitions.iter().all(|&s| self.cached.is_cached(s)) {
                entry.taken = true;
                covered.push(id);
                rest.extend(
                    entry
                        .coalitions
                        .iter()
                        .filter(|s| batch.binary_search(s).is_err()),
                );
            }
        }
        // The covered batches' coalitions the pick did not evaluate are
        // all cache hits: one read, no inner evaluation under the lock,
        // and `eval.lookups` still equals `distinct_coalitions`.
        let (rest, _) = dedup_by_mask(rest);
        let rest_values = self.cached.eval_batch(&rest);
        let merged = covered.len() + 1;
        st.parked -= covered.len();
        st.merged_batches += covered.len();
        st.distinct_coalitions += batch.len() + rest.len();
        let value_of = |s: &Coalition| match batch.binary_search(s) {
            Ok(k) => values[k],
            Err(_) => match rest.binary_search(s) {
                Ok(k) => rest_values[k],
                Err(_) => unreachable!("the flush read every delivered coalition"),
            },
        };
        let mut outcomes: Vec<(u64, Vec<f64>)> = Vec::with_capacity(merged);
        for id in covered {
            let values = st.entries[&id].coalitions.iter().map(value_of).collect();
            outcomes.push((id, values));
        }
        // Identity slots hand the pick its values without a copy.
        outcomes.push(match slots {
            None => (pick, values),
            Some(slots) => (pick, slots.iter().map(|&k| values[k]).collect()),
        });
        for (id, values) in outcomes {
            let Some(entry) = st.entries.get_mut(&id) else {
                unreachable!("taken entries stay resident until their owner consumes them")
            };
            entry.outcome = Some(Ok(FlushOutcome {
                values,
                merged_batches: merged,
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::utility::tests::Recording;
    use crate::utility::{HashUtility, ParallelUtility};

    #[test]
    fn flush_dedups_by_mask_and_delivers_by_position() {
        let game = HashUtility { n: 8, seed: 4 };
        let recording = Recording {
            inner: game.clone(),
            log: Mutex::default(),
        };
        let shared = Shared {
            cached: CachedUtility::new(ParallelUtility::with_num_threads(recording, 1)),
            state: Mutex::default(),
            cv: Condvar::new(),
            window: FlushWindow::default(),
            retry: RetryPolicy::default(),
            shutdown: AtomicBool::new(false),
            requests_done: AtomicU64::new(0),
            retries: AtomicU64::new(0),
            traj_stats: None,
        };
        shared.register();
        let batch: Vec<Coalition> = [0b1011, 0b1, 0b1011, 0b1111_0000, 0b1, 0, 0b1011]
            .map(Coalition)
            .to_vec();
        let Ok(outcome) = shared.eval_coalesced(batch.clone()) else {
            panic!("a lone healthy batch flushes")
        };
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&outcome.values), bits(&game.eval_batch(&batch)));
        assert_eq!(outcome.merged_batches, 1);
        let stats = shared.stats();
        assert_eq!(stats.distinct_coalitions, 4);
        assert_eq!(stats.eval.lookups, 4);
        assert_eq!(stats.eval.evaluations, 4);
        // The serial fan-out hands the game the four distinct masks as one
        // block, by size, then mask.
        let log = shared.cached.inner().inner().log.lock().unwrap().clone();
        let block = [0, 0b1, 0b1011, 0b1111_0000].map(Coalition).to_vec();
        assert_eq!(log, vec![block]);
    }
}
