//! Exact Shapley-value computation under the three equivalent expressions
//! used in the paper: marginal-contribution (MC-SV, Def. 3),
//! complementary-contribution (CC-SV, Def. 4), and permutation-based
//! (Perm-SV, the `Perm-Shapley` baseline of Sec. V-A).
//!
//! All of these require `O(2^n)` distinct utility evaluations and are only
//! tractable for small `n`; they provide the ground truth against which the
//! approximation algorithms are scored (the `l2` relative error of Eq. 21).
//!
//! [`exact_mc_sv`] is the independent reference. The anytime sweep is an
//! [`ExactSweep`] under the [`Sampler`] contract of [`crate::sampler`]: no
//! randomness, mask-order fold, snapshots pure in the evaluated prefix.

use crate::coalition::{all_subsets, binom, Coalition, MAX_ENUMERATED_CLIENTS};
use crate::sampler::Sampler;
use crate::utility::Utility;

/// Size (in coalitions) of the batches the exact passes hand to
/// [`Utility::eval_batch`]. Large enough to amortise fan-out overhead and
/// keep every core busy, small enough to bound the in-flight value buffer
/// at `n =` [`MAX_ENUMERATED_CLIENTS`].
const EXACT_BATCH: usize = 8192;

/// Evaluate all `2^n` coalitions via `eval_batch` (in chunks) into a table
/// indexed by coalition mask. One evaluation per distinct coalition — the
/// fold phases then read the table instead of re-invoking the utility.
pub(crate) fn full_value_table<U: Utility + ?Sized>(u: &U, n: usize) -> Vec<f64> {
    let mut table = vec![0.0f64; 1 << n];
    let mut batch: Vec<Coalition> = Vec::with_capacity(EXACT_BATCH.min(1 << n));
    let mut start = 0usize;
    for t in all_subsets(n) {
        batch.push(t);
        if batch.len() == EXACT_BATCH {
            table[start..start + batch.len()].copy_from_slice(&u.eval_batch(&batch));
            start += batch.len();
            batch.clear();
        }
    }
    if !batch.is_empty() {
        table[start..start + batch.len()].copy_from_slice(&u.eval_batch(&batch));
    }
    table
}

/// Exact MC-SV (Def. 3):
/// `ϕ_i = Σ_{S ⊆ N\{i}} (U(M_{S∪{i}}) − U(M_S)) / (n · C(n−1, |S|))`.
///
/// Implemented in two phases: a batched evaluation of all `2^n` coalitions
/// through [`Utility::eval_batch`] (so a [`ParallelUtility`] inner trains
/// them across all cores and every coalition is evaluated exactly once,
/// cached or not), then a serial fold in mask order — each `T ∋ i`
/// contributes the marginal `U(T) − U(T\{i})` to client `i` with weight
/// `1/(n · C(n−1, |T|−1))`. The fold order matches the historical serial
/// implementation, so results are bit-identical at any thread count.
///
/// [`ParallelUtility`]: crate::utility::ParallelUtility
pub fn exact_mc_sv<U: Utility + ?Sized>(u: &U) -> Vec<f64> {
    let n = u.n_clients();
    assert!(n >= 1, "need at least one client");
    assert!(
        n <= MAX_ENUMERATED_CLIENTS,
        "exact computation enumerates 2^n coalitions"
    );
    let table = full_value_table(u, n);
    let mut phi = vec![0.0; n];
    let inv_n = 1.0 / n as f64;
    // Precompute 1/C(n-1, s) for s = 0..n.
    let inv_binom: Vec<f64> = (0..n).map(|s| 1.0 / binom(n - 1, s)).collect();
    for t in all_subsets(n) {
        if t.is_empty() {
            continue;
        }
        let ut = table[t.0 as usize];
        let w = inv_n * inv_binom[t.size() - 1];
        for i in t.members() {
            let us = table[t.without(i).0 as usize];
            phi[i] += (ut - us) * w;
        }
    }
    phi
}

/// The exact MC-SV sweep as a [`Sampler`]: all `2^n` coalitions in mask
/// order, `chunk` at a time — the batches [`exact_mc_sv`] issues.
///
/// **Fold.** The complete sweep runs the [`exact_mc_sv`] fold verbatim;
/// a mid-sweep prefix is the stratified-mean fold of
/// [`crate::service::partial_prefix_fold`] — the partial the service
/// returns on a deadline. In mask order `T\{i}` precedes `T`, so every
/// evaluated non-empty coalition contributes all of its marginals. CI:
/// every stratum is scheduled and mask order reaches the full coalition
/// last, so the half-widths stay at `∞` until the sweep completes, when
/// full enumeration collapses them to 0 — a `CiAtMost` rule cannot fire
/// early. The sweep is not the early-stopping vehicle: budget it with
/// `MaxSamples`, or use a sampling estimator to converge early.
pub struct ExactSweep {
    n: usize,
    /// Coalitions per batch ([`EXACT_BATCH`] outside tests).
    chunk: usize,
    /// Values of the evaluated prefix, indexed by mask.
    table: Vec<f64>,
}

impl ExactSweep {
    /// The sweep over an `n`-client game in production-size chunks.
    pub fn new(n: usize) -> Self {
        assert!(n >= 1, "need at least one client");
        assert!(
            n <= MAX_ENUMERATED_CLIENTS,
            "exact computation enumerates 2^n coalitions"
        );
        ExactSweep {
            n,
            chunk: EXACT_BATCH,
            table: Vec::with_capacity(1 << n),
        }
    }
}

impl Sampler for ExactSweep {
    fn next_batch(&mut self, _fine: bool) -> Vec<Coalition> {
        let start = self.table.len();
        let end = (start + self.chunk).min(1 << self.n);
        (start..end).map(|m| Coalition(m as u128)).collect()
    }

    fn absorb(&mut self, _batch: &[Coalition], values: Vec<f64>) {
        self.table.extend(values);
    }

    fn is_complete(&self) -> bool {
        self.table.len() == 1 << self.n
    }

    fn fold(&mut self) -> (Vec<f64>, Vec<f64>) {
        let (n, table) = (self.n, &self.table);
        // Every stratum is scheduled, and the last one — the full
        // coalition alone — lands with the final mask: the CI is unbounded
        // until the sweep completes and exactly 0 (full enumeration,
        // finite-population correction) once it does.
        if !self.is_complete() {
            let masks = (0..table.len()).map(|m| Coalition(m as u128));
            let pairs: Vec<(Coalition, f64)> = masks.zip(table.iter().copied()).collect();
            let values = crate::service::partial_prefix_fold(n, &pairs);
            return (values, vec![f64::INFINITY; n]);
        }
        let mut phi = vec![0.0; n];
        let inv_n = 1.0 / n as f64;
        let inv_binom: Vec<f64> = (0..n).map(|s| 1.0 / binom(n - 1, s)).collect();
        for t in all_subsets(n).skip(1) {
            let ut = table[t.0 as usize];
            let w = inv_n * inv_binom[t.size() - 1];
            for i in t.members() {
                phi[i] += (ut - table[t.without(i).0 as usize]) * w;
            }
        }
        (phi, vec![0.0; n])
    }
}

/// Exact CC-SV (Def. 4):
/// `ϕ_i = Σ_{S ⊆ N\{i}} (U(M_{S∪{i}}) − U(M_{N\(S∪{i})})) / (n · C(n−1, |S|))`.
///
/// Batched like [`exact_mc_sv`]: one `eval_batch` sweep, then a serial
/// fold in mask order.
pub fn exact_cc_sv<U: Utility + ?Sized>(u: &U) -> Vec<f64> {
    let n = u.n_clients();
    assert!(n >= 1);
    assert!(
        n <= MAX_ENUMERATED_CLIENTS,
        "exact computation enumerates 2^n coalitions"
    );
    let table = full_value_table(u, n);
    let mut phi = vec![0.0; n];
    let inv_n = 1.0 / n as f64;
    let inv_binom: Vec<f64> = (0..n).map(|s| 1.0 / binom(n - 1, s)).collect();
    for t in all_subsets(n) {
        if t.is_empty() {
            continue;
        }
        let cc = table[t.0 as usize] - table[t.complement(n).0 as usize];
        let w = inv_n * inv_binom[t.size() - 1];
        for i in t.members() {
            phi[i] += cc * w;
        }
    }
    phi
}

/// Exact Perm-SV: the average over all `n!` permutations of each client's
/// marginal contribution to the prefix preceding it.
///
/// Equivalent to MC-SV (the classical identity); enumerating permutations is
/// kept for faithfulness to the `Perm-Shapley` baseline and for testing the
/// identity itself. Only feasible for tiny `n` — the paper reports the same
/// blow-up (Table IV: 6.8·10⁹ s at `n = 10`).
pub fn exact_perm_sv<U: Utility + ?Sized>(u: &U) -> Vec<f64> {
    let n = u.n_clients();
    assert!(n >= 1);
    assert!(n <= 10, "n! permutations; n > 10 is infeasible");
    let mut phi = vec![0.0; n];
    let mut perm: Vec<usize> = (0..n).collect();
    let mut count = 0u64;
    permute(&mut perm, 0, &mut |p| {
        count += 1;
        let mut prefix = Coalition::empty();
        let mut u_prev = u.eval(prefix);
        for &i in p {
            prefix = prefix.with(i);
            let u_cur = u.eval(prefix);
            phi[i] += u_cur - u_prev;
            u_prev = u_cur;
        }
    });
    let inv = 1.0 / count as f64;
    for v in &mut phi {
        *v *= inv;
    }
    phi
}

/// Heap-style recursive permutation visitor.
fn permute(items: &mut [usize], k: usize, visit: &mut impl FnMut(&[usize])) {
    if k == items.len() {
        visit(items);
        return;
    }
    for i in k..items.len() {
        items.swap(k, i);
        permute(items, k + 1, visit);
        items.swap(k, i);
    }
}

/// Number of distinct utility evaluations exact Perm-SV *would* require if
/// models could not be cached across permutations: `n! · (n + 1)` prefix
/// evaluations. Used to report the paper's extrapolated `Perm-Shapley`
/// times for large `n` (Table IV / Table V).
pub fn perm_sv_naive_evaluations(n: usize) -> f64 {
    let mut fact = 1.0f64;
    for i in 2..=n {
        fact *= i as f64;
    }
    fact * (n as f64 + 1.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::anytime::{Control, ProgressSnapshot};
    use crate::sampler::{drive, Observer};
    use crate::utility::{AdditiveUtility, HashUtility, TableUtility};

    /// The observed sweep with an explicit chunk size.
    fn observed_sweep(
        u: &HashUtility,
        chunk: usize,
        observe: Observer<'_>,
    ) -> (ProgressSnapshot, bool) {
        let mut sweep = ExactSweep {
            chunk,
            ..ExactSweep::new(u.n)
        };
        drive(u, &mut sweep, Some(observe))
    }

    fn assert_close(a: &[f64], b: &[f64], tol: f64) {
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(b) {
            assert!((x - y).abs() < tol, "{a:?} vs {b:?}");
        }
    }

    #[test]
    fn paper_example_1_values() {
        // Example 1: ϕ1 = 0.22, ϕ2 ≈ 0.32, ϕ3 = 0.32.
        let u = TableUtility::paper_table1();
        let phi = exact_mc_sv(&u);
        assert!((phi[0] - 0.22).abs() < 1e-12, "ϕ1 = {}", phi[0]);
        assert!((phi[1] - 0.32).abs() < 0.005, "ϕ2 = {}", phi[1]);
        assert!((phi[2] - 0.32).abs() < 0.005, "ϕ3 = {}", phi[2]);
    }

    #[test]
    fn mc_cc_perm_agree() {
        for seed in 0..5u64 {
            for n in 1..=6usize {
                let u = HashUtility { n, seed };
                let mc = exact_mc_sv(&u);
                let cc = exact_cc_sv(&u);
                let perm = exact_perm_sv(&u);
                assert_close(&mc, &cc, 1e-10);
                assert_close(&mc, &perm, 1e-10);
            }
        }
    }

    #[test]
    fn additive_recovers_weights() {
        let w = vec![0.3, -0.1, 0.7, 0.05];
        let u = AdditiveUtility::new(0.2, w.clone());
        assert_close(&exact_mc_sv(&u), &w, 1e-12);
        assert_close(&exact_cc_sv(&u), &w, 1e-12);
        assert_close(&exact_perm_sv(&u), &w, 1e-12);
    }

    #[test]
    fn efficiency_axiom() {
        // Σ ϕ_i = U(N) − U(∅).
        for n in 2..=7usize {
            let u = HashUtility { n, seed: 99 };
            let phi = exact_mc_sv(&u);
            let total: f64 = phi.iter().sum();
            let expected = u.eval(Coalition::full(n)) - u.eval(Coalition::empty());
            assert!((total - expected).abs() < 1e-10);
        }
    }

    #[test]
    fn null_player_axiom() {
        // A client whose marginal is always zero gets value zero (Eq. 1).
        let u = AdditiveUtility::new(0.1, vec![0.5, 0.0, 0.2]);
        let phi = exact_mc_sv(&u);
        assert!(phi[1].abs() < 1e-12);
    }

    #[test]
    fn symmetry_axiom() {
        // Interchangeable clients get equal value (Eq. 2).
        let u = TableUtility::from_fn(4, |s| {
            // Utility depends only on |S| → all clients symmetric.
            (s.size() as f64).sqrt()
        });
        let phi = exact_mc_sv(&u);
        for w in phi.windows(2) {
            assert!((w[0] - w[1]).abs() < 1e-12);
        }
    }

    #[test]
    fn single_client() {
        let u = TableUtility::new(1, vec![0.2, 0.9]);
        let phi = exact_mc_sv(&u);
        assert!((phi[0] - 0.7).abs() < 1e-12);
        assert_close(&phi, &exact_perm_sv(&u), 1e-12);
    }

    #[test]
    fn streaming_complete_run_is_bit_identical_to_legacy() {
        let u = HashUtility { n: 6, seed: 44 };
        let legacy = exact_mc_sv(&u);
        // Production chunk size (single batch) and a tiny chunk size
        // (nine batches) must both land on the legacy fold exactly.
        for batch_size in [EXACT_BATCH, 7] {
            let mut snapshots = Vec::new();
            let (out, stopped_early) = observed_sweep(&u, batch_size, &mut |s| {
                snapshots.push(s.clone());
                Control::Continue
            });
            assert_eq!(out.values, legacy, "batch_size={batch_size}");
            assert!(!stopped_early);
            // Full enumeration: the finite-population correction zeroes
            // every CI term.
            assert!(out.ci_halfwidths.iter().all(|&h| h == 0.0));
            for w in snapshots.windows(2) {
                assert!(w[0].samples_used < w[1].samples_used);
            }
            assert!(snapshots
                .iter()
                .all(|s| s.ci_halfwidths.iter().all(|h| !h.is_nan())));
        }
    }

    #[test]
    fn streaming_stopped_run_equals_full_run_prefix() {
        let u = HashUtility { n: 6, seed: 45 };
        let mut snapshots = Vec::new();
        let _ = observed_sweep(&u, 10, &mut |s| {
            snapshots.push(s.clone());
            Control::Continue
        });
        let (out, stopped_early) = observed_sweep(&u, 10, &mut |s| {
            if s.batches_done >= 3 {
                Control::Stop
            } else {
                Control::Continue
            }
        });
        assert!(stopped_early);
        assert_eq!(out, snapshots[2]);
        // The mid-sweep estimate is the service's partial fold.
        let prefix: Vec<(Coalition, f64)> = (0..out.samples_used)
            .map(|m| (Coalition(m as u128), u.eval(Coalition(m as u128))))
            .collect();
        assert_eq!(out.values, crate::service::partial_prefix_fold(6, &prefix));
    }

    #[test]
    fn naive_evaluation_count() {
        assert_eq!(perm_sv_naive_evaluations(3), 24.0); // 3! · 4
        assert!(perm_sv_naive_evaluations(10) > 3.9e7);
    }

    #[test]
    fn exact_passes_evaluate_each_coalition_once_even_uncached() {
        // The batched sweep must touch every coalition exactly once —
        // without requiring a CachedUtility wrapper (the historical serial
        // code re-evaluated `T\{i}` for every member of every `T`).
        use std::sync::atomic::{AtomicUsize, Ordering};
        struct Counting {
            inner: HashUtility,
            calls: AtomicUsize,
        }
        impl crate::utility::Utility for Counting {
            fn n_clients(&self) -> usize {
                self.inner.n
            }
            fn eval(&self, s: Coalition) -> f64 {
                self.calls.fetch_add(1, Ordering::Relaxed);
                self.inner.eval(s)
            }
        }
        let u = Counting {
            inner: HashUtility { n: 8, seed: 77 },
            calls: AtomicUsize::new(0),
        };
        let mc = exact_mc_sv(&u);
        assert_eq!(u.calls.load(Ordering::Relaxed), 1 << 8);
        let cc = exact_cc_sv(&u);
        assert_eq!(u.calls.load(Ordering::Relaxed), 2 << 8);
        // And the values still agree with each other (SV identity).
        for (a, b) in mc.iter().zip(&cc) {
            assert!((a - b).abs() < 1e-10);
        }
    }

    #[test]
    fn batched_sweep_matches_cached_serial_reference() {
        // Reference fold identical to the pre-batching implementation.
        fn reference<U: crate::utility::Utility>(u: &U) -> Vec<f64> {
            let n = u.n_clients();
            let mut phi = vec![0.0; n];
            let inv_n = 1.0 / n as f64;
            let inv_binom: Vec<f64> = (0..n)
                .map(|s| 1.0 / crate::coalition::binom(n - 1, s))
                .collect();
            for t in crate::coalition::all_subsets(n) {
                if t.is_empty() {
                    continue;
                }
                let ut = u.eval(t);
                let w = inv_n * inv_binom[t.size() - 1];
                for i in t.members() {
                    phi[i] += (ut - u.eval(t.without(i))) * w;
                }
            }
            phi
        }
        for n in 1..=9usize {
            let u = HashUtility { n, seed: 3 };
            assert_eq!(exact_mc_sv(&u), reference(&u), "n = {n}");
        }
    }
}
