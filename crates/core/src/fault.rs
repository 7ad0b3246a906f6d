//! Deterministic fault injection for the valuation stack.
//!
//! [`FaultyUtility`] wraps any [`Utility`] and injects failures on a
//! *schedule that is a pure function of its configuration*: panics on
//! named eval indices, panics on named coalitions (one-shot, `k`-shot or
//! persistent), seeded pseudo-random transient faults keyed by coalition
//! mask, and configurable delays. The service's fault-tolerance layer
//! (`fedval_core::service`) is tested exclusively through this wrapper —
//! see `tests/tests/service_faults.rs`.
//!
//! # Determinism
//!
//! Coalition-keyed faults (`panic_on_coalition`, `seeded_faults`,
//! `delay_on_coalition`) are order-independent: whether a coalition is
//! faulty depends only on its mask and on how many times it has been
//! seen, so concurrent runs observe the same fault set regardless of
//! flush interleaving. Eval-index faults (`panic_on_evals`,
//! `delay_every_evals`) depend on the global evaluation order and are
//! deterministic only under a serial, single-run schedule — use them for
//! solo-server tests.
//!
//! Within one `eval_batch` call, *every* triggering coalition is consumed
//! before the (single) panic is raised, so a retry of the same batch does
//! not re-trip the already-consumed faults. One retry therefore clears
//! any number of transient faults in a batch.
//!
//! Injected panics carry an [`InjectedFault`] payload and are raised
//! through the crate's quiet-unwind hook, so deliberate test faults do
//! not spam stderr with panic backtraces; the service's `catch_unwind`
//! sites downcast the payload into the typed
//! [`ValuationError`](crate::service::ValuationError).

use std::collections::{BTreeSet, HashMap, HashSet};
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, PoisonError};
use std::thread;
use std::time::Duration;

use crate::coalition::{Coalition, MaskHash};
use crate::utility::{coalition_unit_hash, Utility};

/// Panic payload of every injected fault. The service's typed error path
/// downcasts this back into a human-readable detail string.
#[derive(Clone, Debug)]
pub struct InjectedFault {
    /// What triggered, e.g. `"scheduled panic at eval #9"`.
    pub detail: String,
}

impl fmt::Display for InjectedFault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "injected fault: {}", self.detail)
    }
}

/// Repeat count meaning "on every occurrence, forever".
pub const PERSISTENT: u64 = u64::MAX;

#[derive(Default)]
struct FaultState {
    /// Global eval indices that panic (consumed when reached).
    panic_evals: BTreeSet<u64>,
    /// mask → remaining panic count ([`PERSISTENT`] never decrements).
    panic_coalitions: HashMap<u128, u64, MaskHash>,
    /// mask → (delay, remaining count).
    delay_coalitions: HashMap<u128, (Duration, u64), MaskHash>,
    /// Sleep `d` on every eval index divisible by `k`.
    delay_every: Option<(u64, Duration)>,
    /// Seeded transient faults: each mask faults once with prob `1/one_in`.
    seeded: Option<Seeded>,
}

struct Seeded {
    seed: u64,
    one_in: u32,
    consumed: HashSet<u128, MaskHash>,
}

/// A [`Utility`] wrapper that injects panics and delays on a
/// deterministic schedule. See the [module docs](self).
pub struct FaultyUtility<U> {
    inner: U,
    evals: AtomicU64,
    state: Mutex<FaultState>,
}

impl<U: Utility> FaultyUtility<U> {
    /// Wrap `inner` with no faults scheduled.
    pub fn new(inner: U) -> Self {
        FaultyUtility {
            inner,
            evals: AtomicU64::new(0),
            state: Mutex::new(FaultState::default()),
        }
    }

    /// Panic when the global evaluation counter reaches any of `indices`
    /// (0-based; each fires once). Deterministic only for serial schedules.
    pub fn panic_on_evals(self, indices: impl IntoIterator<Item = u64>) -> Self {
        self.with_state(|st| st.panic_evals.extend(indices));
        self
    }

    /// Panic on the first `times` evaluations of coalition `s`
    /// ([`PERSISTENT`] = every evaluation, forever).
    pub fn panic_on_coalition(self, s: Coalition, times: u64) -> Self {
        self.with_state(|st| {
            st.panic_coalitions.insert(s.0, times);
        });
        self
    }

    /// Seeded transient faults: every coalition independently faults on
    /// its *first* evaluation with probability `1/one_in` (a pure function
    /// of `(seed, mask)`), then stays healthy.
    pub fn seeded_faults(self, seed: u64, one_in: u32) -> Self {
        self.with_state(|st| {
            st.seeded = Some(Seeded {
                seed,
                one_in,
                consumed: HashSet::default(),
            });
        });
        self
    }

    /// Sleep `delay` on the first `times` evaluations of coalition `s`.
    pub fn delay_on_coalition(self, s: Coalition, delay: Duration, times: u64) -> Self {
        self.with_state(|st| {
            st.delay_coalitions.insert(s.0, (delay, times));
        });
        self
    }

    /// Sleep `delay` on every eval index divisible by `k` (`k = 1` delays
    /// every evaluation). Deterministic only for serial schedules.
    pub fn delay_every_evals(self, k: u64, delay: Duration) -> Self {
        self.with_state(|st| st.delay_every = Some((k, delay)));
        self
    }

    /// Total evaluations attempted so far (including faulted ones).
    pub fn evals(&self) -> u64 {
        self.evals.load(Ordering::Relaxed)
    }

    /// Access the wrapped utility.
    pub fn inner(&self) -> &U {
        &self.inner
    }

    fn with_state<R>(&self, f: impl FnOnce(&mut FaultState) -> R) -> R {
        // Recover from poison: a faulty utility must stay usable after
        // its own injected panics.
        f(&mut self.state.lock().unwrap_or_else(PoisonError::into_inner))
    }
}

impl<U: Utility> Utility for FaultyUtility<U> {
    fn n_clients(&self) -> usize {
        self.inner.n_clients()
    }

    fn eval(&self, s: Coalition) -> f64 {
        self.eval_batch(std::slice::from_ref(&s))[0]
    }

    fn eval_batch(&self, coalitions: &[Coalition]) -> Vec<f64> {
        let start = self
            .evals
            .fetch_add(coalitions.len() as u64, Ordering::Relaxed);
        let mut sleep = Duration::ZERO;
        let mut faults: Vec<String> = Vec::new();
        self.with_state(|st| {
            for (off, &s) in coalitions.iter().enumerate() {
                let idx = start + off as u64;
                if st.panic_evals.remove(&idx) {
                    faults.push(format!("scheduled panic at eval #{idx} (mask {:#x})", s.0));
                }
                if let Some(times) = st.panic_coalitions.get_mut(&s.0) {
                    if *times > 0 {
                        if *times != PERSISTENT {
                            *times -= 1;
                        }
                        faults.push(format!("panic on coalition {:#x}", s.0));
                    }
                }
                if let Some(seeded) = st.seeded.as_mut() {
                    if seeded.one_in > 0
                        && coalition_unit_hash(s, seeded.seed) * f64::from(seeded.one_in) < 1.0
                        && seeded.consumed.insert(s.0)
                    {
                        faults.push(format!("seeded transient fault on coalition {:#x}", s.0));
                    }
                }
                if let Some((delay, times)) = st.delay_coalitions.get_mut(&s.0) {
                    if *times > 0 {
                        if *times != PERSISTENT {
                            *times -= 1;
                        }
                        sleep += *delay;
                    }
                }
                if let Some((k, delay)) = st.delay_every {
                    if k > 0 && idx.is_multiple_of(k) {
                        sleep += delay;
                    }
                }
            }
        });
        if sleep > Duration::ZERO {
            thread::sleep(sleep);
        }
        if !faults.is_empty() {
            quiet::silent_panic_any(InjectedFault {
                detail: faults.join("; "),
            });
        }
        self.inner.eval_batch(coalitions)
    }
}

/// Quiet unwinding: deliberate control-flow panics (injected faults, the
/// service's batch-boundary aborts) and panics the service is about to
/// convert into typed errors should not spam stderr with backtraces.
///
/// The first use installs a wrapping panic hook (process-wide, once).
/// The hook suppresses output when the panicking thread either raised
/// the panic through [`silent_panic_any`] (a one-shot thread-local flag,
/// set on the panicking thread so it also works from worker-pool
/// threads) or is inside a [`catch_quiet`] region (a thread-local
/// depth). All other panics print exactly as before.
pub(crate) mod quiet {
    use std::any::Any;
    use std::cell::Cell;
    use std::panic::{self, AssertUnwindSafe};
    use std::sync::Once;

    thread_local! {
        static SUPPRESS_DEPTH: Cell<u32> = const { Cell::new(0) };
        static ONE_SHOT: Cell<bool> = const { Cell::new(false) };
    }

    fn install_hook() {
        static HOOK: Once = Once::new();
        HOOK.call_once(|| {
            let prev = panic::take_hook();
            panic::set_hook(Box::new(move |info| {
                // Always consume the one-shot flag so it cannot leak
                // into a later, genuine panic on the same thread.
                let shot = ONE_SHOT.with(|f| f.replace(false));
                let depth = SUPPRESS_DEPTH.with(Cell::get);
                if !shot && depth == 0 {
                    prev(info);
                }
            }));
        });
    }

    /// Panic with `payload`, suppressing the default hook's output on
    /// this thread for this panic only.
    pub(crate) fn silent_panic_any<T: Any + Send + 'static>(payload: T) -> ! {
        install_hook();
        ONE_SHOT.with(|f| f.set(true));
        panic::panic_any(payload)
    }

    /// Run `f`, catching any panic; panics raised on *this* thread while
    /// inside the region are not printed (the caller converts them into
    /// typed errors, where the message survives).
    pub(crate) fn catch_quiet<R>(f: impl FnOnce() -> R) -> Result<R, Box<dyn Any + Send>> {
        install_hook();
        struct Guard;
        impl Drop for Guard {
            fn drop(&mut self) {
                SUPPRESS_DEPTH.with(|d| d.set(d.get() - 1));
            }
        }
        SUPPRESS_DEPTH.with(|d| d.set(d.get() + 1));
        let _quiet = Guard;
        panic::catch_unwind(AssertUnwindSafe(f))
    }

    /// Best-effort human-readable message of a caught panic payload.
    pub(crate) fn panic_message(payload: &(dyn Any + Send)) -> String {
        if let Some(fault) = payload.downcast_ref::<super::InjectedFault>() {
            return fault.to_string();
        }
        if let Some(s) = payload.downcast_ref::<String>() {
            return s.clone();
        }
        if let Some(s) = payload.downcast_ref::<&'static str>() {
            return (*s).to_string();
        }
        "panic with non-string payload".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::utility::HashUtility;

    fn base() -> HashUtility {
        HashUtility { n: 5, seed: 7 }
    }

    #[test]
    fn healthy_wrapper_is_transparent() {
        let u = FaultyUtility::new(base());
        let s = Coalition::from_members([0, 2]);
        assert_eq!(u.eval(s), base().eval(s));
        assert_eq!(u.evals(), 1);
    }

    #[test]
    fn coalition_panic_consumes_its_count() {
        let s = Coalition::from_members([1]);
        let u = FaultyUtility::new(base()).panic_on_coalition(s, 1);
        let first = quiet::catch_quiet(|| u.eval(s));
        assert!(first.is_err(), "first eval must fault");
        let payload = first.err().map(|p| quiet::panic_message(p.as_ref()));
        assert!(
            payload.is_some_and(|m| m.contains("injected fault")),
            "payload must be an InjectedFault"
        );
        assert_eq!(u.eval(s), base().eval(s), "fault consumed, second eval ok");
    }

    #[test]
    fn batch_consumes_every_triggering_fault_before_panicking() {
        let a = Coalition::from_members([0]);
        let b = Coalition::from_members([1]);
        let u = FaultyUtility::new(base())
            .panic_on_coalition(a, 1)
            .panic_on_coalition(b, 1);
        let batch = [a, b, Coalition::from_members([2])];
        assert!(quiet::catch_quiet(|| u.eval_batch(&batch)).is_err());
        // One retry clears both transients at once.
        assert_eq!(u.eval_batch(&batch), base().eval_batch(&batch));
    }

    #[test]
    fn seeded_faults_are_a_pure_function_of_seed_and_mask() {
        let trigger = |seed: u64| -> Vec<u128> {
            let u = FaultyUtility::new(base()).seeded_faults(seed, 3);
            crate::coalition::all_subsets(5)
                .filter(|&s| quiet::catch_quiet(|| u.eval(s)).is_err())
                .map(|s| s.0)
                .collect()
        };
        let first = trigger(42);
        assert!(!first.is_empty(), "1-in-3 over 32 masks must trigger");
        assert!(first.len() < 32, "and must not trigger everywhere");
        assert_eq!(first, trigger(42), "same seed, same fault set");
        assert_ne!(first, trigger(43), "different seed, different set");
    }

    #[test]
    fn persistent_faults_never_heal() {
        let s = Coalition::from_members([3]);
        let u = FaultyUtility::new(base()).panic_on_coalition(s, PERSISTENT);
        for _ in 0..3 {
            assert!(quiet::catch_quiet(|| u.eval(s)).is_err());
        }
    }
}
