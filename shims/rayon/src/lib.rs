//! Offline stand-in for the `rayon` crate.
//!
//! The build environment has no crates.io access, so this crate implements
//! the rayon API subset the workspace uses on top of `std::thread::scope`:
//!
//! * `slice.par_iter().map(f).collect::<Vec<_>>()` (order-preserving);
//! * [`ThreadPoolBuilder`] → [`ThreadPool::install`] to pin the degree of
//!   parallelism for a scope (used by the determinism tests to compare
//!   1-, 2- and N-thread runs);
//! * [`current_num_threads`].
//!
//! Work distribution mirrors real rayon's effect, not its deque
//! machinery: every parallel call runs a **shared-index stealing loop** —
//! workers claim small index blocks from one atomic counter until the
//! input is drained — so a straggler item (a large coalition's FedAvg
//! cycle, say) delays only the worker that claimed it while the rest of
//! the batch flows on. Results are scattered back by index, so `collect`
//! stays order-preserving, which the bit-identical determinism guarantee
//! relies on. (Callers that know their items' costs — the FL engine's
//! size-sorted lane blocks — sort before splitting, making the steal loop
//! a backstop rather than the primary balancing mechanism.)
//!
//! Like real rayon, the default thread count honours the
//! `RAYON_NUM_THREADS` environment variable (read once per process) and
//! falls back to `available_parallelism`.
//!
//! To migrate to the real crate: delete the `rayon` entry under
//! `[workspace.dependencies]`; the call sites compile unchanged.

use std::cell::Cell;
use std::num::NonZeroUsize;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

thread_local! {
    /// Parallelism override installed by [`ThreadPool::install`]; 0 means
    /// "use the machine default".
    static INSTALLED_THREADS: Cell<usize> = const { Cell::new(0) };
}

/// Process-wide default thread count: `RAYON_NUM_THREADS` if set to a
/// positive integer (real rayon's global-pool knob), else the machine's
/// available parallelism.
fn default_num_threads() -> usize {
    static DEFAULT: OnceLock<usize> = OnceLock::new();
    *DEFAULT.get_or_init(|| {
        if let Ok(v) = std::env::var("RAYON_NUM_THREADS") {
            if let Ok(n) = v.parse::<usize>() {
                if n >= 1 {
                    return n;
                }
            }
        }
        std::thread::available_parallelism()
            .map(NonZeroUsize::get)
            .unwrap_or(1)
    })
}

/// Number of threads parallel calls on this thread will fan out to.
pub fn current_num_threads() -> usize {
    let installed = INSTALLED_THREADS.with(|t| t.get());
    if installed > 0 {
        installed
    } else {
        default_num_threads()
    }
}

/// Builder mirroring `rayon::ThreadPoolBuilder` (subset).
#[derive(Default)]
pub struct ThreadPoolBuilder {
    num_threads: usize,
}

/// Error type for [`ThreadPoolBuilder::build`]; construction cannot fail
/// in this shim, the type exists for signature compatibility.
#[derive(Debug)]
pub struct ThreadPoolBuildError(());

impl std::fmt::Display for ThreadPoolBuildError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("thread pool build error (unreachable in shim)")
    }
}

impl std::error::Error for ThreadPoolBuildError {}

impl ThreadPoolBuilder {
    pub fn new() -> Self {
        Self::default()
    }

    /// `0` keeps the machine default, as in real rayon.
    pub fn num_threads(mut self, n: usize) -> Self {
        self.num_threads = n;
        self
    }

    pub fn build(self) -> Result<ThreadPool, ThreadPoolBuildError> {
        Ok(ThreadPool {
            num_threads: if self.num_threads == 0 {
                default_num_threads()
            } else {
                self.num_threads
            },
        })
    }
}

/// A fixed degree of parallelism; [`ThreadPool::install`] scopes it onto
/// the calling thread (this shim spawns threads per call, so "pool" is a
/// policy, not a set of live workers).
pub struct ThreadPool {
    num_threads: usize,
}

impl ThreadPool {
    pub fn current_num_threads(&self) -> usize {
        self.num_threads
    }

    /// Run `op` with parallel calls fanning out to this pool's thread
    /// count. Restores the previous setting afterwards (panic-safe).
    pub fn install<R>(&self, op: impl FnOnce() -> R) -> R {
        struct Restore(usize);
        impl Drop for Restore {
            fn drop(&mut self) {
                INSTALLED_THREADS.with(|t| t.set(self.0));
            }
        }
        let _restore = Restore(INSTALLED_THREADS.with(|t| t.replace(self.num_threads)));
        op()
    }
}

/// Order-preserving parallel map over a slice via a shared-index stealing
/// loop: `current_num_threads()` scoped workers repeatedly claim the next
/// block of indices from one atomic counter and map them, so uneven
/// per-item costs self-balance instead of being locked into static
/// chunks. Each worker tags results with their indices; the caller
/// scatters them back, so output order always matches input order.
fn par_map_slice<'a, T: Sync, R: Send, F>(slice: &'a [T], f: &F) -> Vec<R>
where
    F: Fn(&'a T) -> R + Sync,
{
    let threads = current_num_threads().min(slice.len().max(1));
    if threads <= 1 || slice.len() <= 1 {
        return slice.iter().map(f).collect();
    }
    // Small steal blocks: fine enough that one expensive item cannot trap
    // cheap work behind it, coarse enough to keep counter traffic low when
    // items are tiny.
    let block = slice.len().div_ceil(threads * 8).max(1);
    let next = AtomicUsize::new(0);
    let mut tagged: Vec<Vec<(usize, R)>> = Vec::with_capacity(threads);
    std::thread::scope(|scope| {
        let next = &next;
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                scope.spawn(move || {
                    let mut got: Vec<(usize, R)> = Vec::new();
                    loop {
                        let start = next.fetch_add(block, Ordering::Relaxed);
                        if start >= slice.len() {
                            break;
                        }
                        let end = (start + block).min(slice.len());
                        for (i, item) in slice[start..end].iter().enumerate() {
                            got.push((start + i, f(item)));
                        }
                    }
                    got
                })
            })
            .collect();
        for h in handles {
            // A panic in a worker propagates to the caller, like rayon.
            tagged.push(h.join().unwrap_or_else(|e| std::panic::resume_unwind(e)));
        }
    });
    let mut out: Vec<Option<R>> = Vec::with_capacity(slice.len());
    out.resize_with(slice.len(), || None);
    for piece in tagged {
        for (i, r) in piece {
            debug_assert!(out[i].is_none(), "index {i} produced twice");
            out[i] = Some(r);
        }
    }
    out.into_iter()
        .map(|r| r.expect("stealing loop covered every index"))
        .collect()
}

/// Parallel iterator over `&[T]` (entry point of the `par_iter` chain).
pub struct SliceParIter<'a, T: Sync> {
    slice: &'a [T],
}

impl<'a, T: Sync> SliceParIter<'a, T> {
    pub fn map<R: Send, F: Fn(&'a T) -> R + Sync>(self, f: F) -> ParMap<'a, T, F> {
        ParMap {
            slice: self.slice,
            f,
        }
    }
}

/// The `.map(f)` stage of a parallel slice iterator.
pub struct ParMap<'a, T: Sync, F> {
    slice: &'a [T],
    f: F,
}

impl<'a, T: Sync, R: Send, F: Fn(&'a T) -> R + Sync> ParMap<'a, T, F> {
    /// Order-preserving collect. `C: From<Vec<R>>` covers the
    /// `collect::<Vec<_>>()` form used throughout the workspace.
    pub fn collect<C: From<Vec<R>>>(self) -> C {
        C::from(par_map_slice(self.slice, &self.f))
    }
}

pub mod iter {
    use super::SliceParIter;

    /// `par_iter()` on `&self` collections (subset of
    /// `rayon::iter::IntoParallelRefIterator`).
    pub trait IntoParallelRefIterator<'a> {
        type Item: Sync + 'a;
        fn par_iter(&'a self) -> SliceParIter<'a, Self::Item>;
    }

    impl<'a, T: Sync + 'a> IntoParallelRefIterator<'a> for [T] {
        type Item = T;
        fn par_iter(&'a self) -> SliceParIter<'a, T> {
            SliceParIter { slice: self }
        }
    }

    impl<'a, T: Sync + 'a> IntoParallelRefIterator<'a> for Vec<T> {
        type Item = T;
        fn par_iter(&'a self) -> SliceParIter<'a, T> {
            SliceParIter { slice: self }
        }
    }
}

pub mod prelude {
    pub use crate::iter::IntoParallelRefIterator;
}

#[cfg(test)]
mod tests {
    use super::prelude::*;
    use super::*;

    #[test]
    fn map_collect_preserves_order() {
        let v: Vec<usize> = (0..1000).collect();
        let doubled: Vec<usize> = v.par_iter().map(|&x| x * 2).collect();
        assert_eq!(doubled, (0..1000).map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn install_scopes_thread_count() {
        let pool = ThreadPoolBuilder::new().num_threads(3).build().unwrap();
        assert_eq!(pool.current_num_threads(), 3);
        let outside = current_num_threads();
        let inside = pool.install(current_num_threads);
        assert_eq!(inside, 3);
        assert_eq!(current_num_threads(), outside, "restored after install");
    }

    #[test]
    fn single_thread_pool_still_maps_everything() {
        let pool = ThreadPoolBuilder::new().num_threads(1).build().unwrap();
        let v: Vec<i64> = (0..100).collect();
        let got: Vec<i64> = pool.install(|| v.par_iter().map(|&x| x + 1).collect());
        assert_eq!(got, (1..=100).collect::<Vec<_>>());
    }

    #[test]
    fn stealing_loop_preserves_order_under_uneven_costs() {
        // Items with wildly different costs (front-loaded) must still come
        // back in input order — the stealing loop scatters by index.
        let v: Vec<u64> = (0..257).collect();
        let expect: Vec<u64> = v
            .iter()
            .map(|&x| if x < 8 { x * 3 } else { x + 1 })
            .collect();
        for n in [2usize, 3, 5, 16] {
            let pool = ThreadPoolBuilder::new().num_threads(n).build().unwrap();
            let got: Vec<u64> = pool.install(|| {
                v.par_iter()
                    .map(|&x| {
                        if x < 8 {
                            // Simulate a straggler item.
                            std::thread::sleep(std::time::Duration::from_millis(1));
                            x * 3
                        } else {
                            x + 1
                        }
                    })
                    .collect()
            });
            assert_eq!(got, expect, "thread count {n}");
        }
    }

    #[test]
    fn results_identical_across_thread_counts() {
        let v: Vec<u64> = (0..512).collect();
        let expect: Vec<u64> = v.iter().map(|&x| x.wrapping_mul(x)).collect();
        for n in [1usize, 2, 4, 7] {
            let pool = ThreadPoolBuilder::new().num_threads(n).build().unwrap();
            let got: Vec<u64> = pool.install(|| v.par_iter().map(|&x| x.wrapping_mul(x)).collect());
            assert_eq!(got, expect, "thread count {n}");
        }
    }

    #[test]
    fn empty_and_tiny_inputs() {
        let empty: Vec<u32> = Vec::new();
        let out: Vec<u32> = empty.par_iter().map(|&x| x).collect();
        assert!(out.is_empty());
        let one = [42u32];
        let out: Vec<u32> = one.par_iter().map(|&x| x + 1).collect();
        assert_eq!(out, vec![43]);
    }
}
