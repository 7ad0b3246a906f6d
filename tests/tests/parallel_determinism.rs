//! The parallel batch-evaluation engine's contract, end to end:
//!
//! 1. **Determinism** — for a fixed RNG seed, every estimator routed
//!    through `eval_batch` produces bit-identical values with 1, 2 and N
//!    rayon threads (and identical to the plain serial utility).
//! 2. **Exact accounting** — the sharded `CachedUtility` counts each
//!    distinct coalition exactly once, no matter how many threads hammer
//!    it concurrently.
//! 3. **Budget** — IPSS hits an *uncached* utility exactly γ times (the
//!    internal memo regression).

use fedval_core::coalition::{all_subsets, Coalition};
use fedval_core::owen::{owen_sampling, OwenConfig};
use fedval_core::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

const THREAD_COUNTS: [usize; 3] = [1, 2, 8];

/// Run an estimator against the serial utility and against
/// `ParallelUtility` at several thread counts; all runs must agree
/// bit-for-bit.
fn assert_thread_invariant<F>(label: &str, run: F)
where
    F: Fn(&dyn Utility) -> Vec<f64>,
{
    let base = HashUtility { n: 10, seed: 0xBEE };
    let serial = run(&base);
    for threads in THREAD_COUNTS {
        let par = ParallelUtility::with_num_threads(base.clone(), threads);
        let got = run(&par);
        assert_eq!(got, serial, "{label}: thread count {threads} diverged");
    }
    // And through the sharded cache on top of the fan-out.
    let cached = CachedUtility::new(ParallelUtility::with_num_threads(base.clone(), 4));
    let got = run(&cached);
    assert_eq!(got, serial, "{label}: cached+parallel diverged");
}

#[test]
fn ipss_is_bit_identical_across_thread_counts() {
    assert_thread_invariant("ipss", |u| {
        ipss(u, &IpssConfig::new(40), &mut StdRng::seed_from_u64(7))
    });
}

#[test]
fn exact_mc_sv_is_bit_identical_across_thread_counts() {
    assert_thread_invariant("exact_mc_sv", |u| exact_mc_sv(u));
}

#[test]
fn exact_cc_sv_is_bit_identical_across_thread_counts() {
    assert_thread_invariant("exact_cc_sv", |u| exact_cc_sv(u));
}

#[test]
fn stratified_is_bit_identical_across_thread_counts() {
    assert_thread_invariant("stratified", |u| {
        stratified_sampling(
            u,
            Scheme::MarginalContribution,
            &StratifiedConfig::uniform(10, 30),
            &mut StdRng::seed_from_u64(8),
        )
    });
}

#[test]
fn owen_is_bit_identical_across_thread_counts() {
    assert_thread_invariant("owen", |u| {
        owen_sampling(u, &OwenConfig::new(5, 6), &mut StdRng::seed_from_u64(9))
    });
}

#[test]
fn cc_shapley_is_bit_identical_across_thread_counts() {
    assert_thread_invariant("cc_shapley", |u| {
        cc_shapley(u, &CcShapConfig::new(50), &mut StdRng::seed_from_u64(11))
    });
}

#[test]
fn leave_one_out_is_bit_identical_across_thread_counts() {
    assert_thread_invariant("leave_one_out", |u| leave_one_out(u));
}

#[test]
fn sharded_cache_counts_each_coalition_exactly_once_under_hammering() {
    // 8 threads × overlapping slices of the same 2^12 coalition space,
    // through both eval and eval_batch: evaluations must equal the number
    // of distinct coalitions, lookups the number of calls.
    let n = 12usize;
    let u = CachedUtility::new(HashUtility { n, seed: 0xCAFE });
    let coalitions: Vec<Coalition> = all_subsets(n).collect();
    let threads = 8usize;
    std::thread::scope(|scope| {
        for t in 0..threads {
            let u = &u;
            let coalitions = &coalitions;
            scope.spawn(move || {
                // Each thread walks the whole space from a different
                // offset, alternating single and batched evaluation.
                let offset = t * coalitions.len() / threads;
                for chunk in coalitions[offset..]
                    .iter()
                    .chain(coalitions[..offset].iter())
                    .copied()
                    .collect::<Vec<_>>()
                    .chunks(97)
                {
                    if t % 2 == 0 {
                        let _ = u.eval_batch(chunk);
                    } else {
                        for &c in chunk {
                            let _ = u.eval(c);
                        }
                    }
                }
            });
        }
    });
    let stats = u.stats();
    assert_eq!(
        stats.evaluations,
        1 << n,
        "each distinct coalition must be counted exactly once"
    );
    assert_eq!(stats.lookups, threads * (1 << n));
    assert_eq!(u.cached_len(), 1 << n);
    // Cached values agree with the ground truth.
    let truth = HashUtility { n, seed: 0xCAFE };
    for &c in coalitions.iter().step_by(57) {
        assert_eq!(u.eval(c), truth.eval(c));
    }
}

#[test]
fn ipss_hits_uncached_utility_exactly_gamma_times() {
    use std::sync::atomic::{AtomicUsize, Ordering};
    struct Counting {
        inner: HashUtility,
        calls: AtomicUsize,
    }
    impl Utility for Counting {
        fn n_clients(&self) -> usize {
            self.inner.n
        }
        fn eval(&self, s: Coalition) -> f64 {
            self.calls.fetch_add(1, Ordering::Relaxed);
            self.inner.eval(s)
        }
    }
    for gamma in [5usize, 32, 100] {
        let u = Counting {
            inner: HashUtility { n: 9, seed: 0xFE },
            calls: AtomicUsize::new(0),
        };
        let mut rng = StdRng::seed_from_u64(0x44);
        let values = ipss(&u, &IpssConfig::new(gamma), &mut rng);
        assert_eq!(u.calls.load(Ordering::Relaxed), gamma, "γ = {gamma}");
        assert_eq!(values.len(), 9);
    }
}
