//! K-Greedy (Alg. 2): the diagnostic algorithm used in Sec. IV-A to expose
//! the *key combinations* phenomenon.
//!
//! K-Greedy evaluates every coalition with at most `K` clients and
//! approximates the MC-SV using only those coalitions, intentionally
//! discarding all larger combinations. Fig. 4 shows that on FEMNIST the
//! relative error is already below 1% for `K ≤ 2` — the observation that
//! motivates the importance-pruning of IPSS.

use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::coalition::subsets_up_to;
use crate::ipss::{ipss, IpssConfig};
use crate::utility::Utility;

/// Alg. 2 — K-Greedy.
///
/// `ϕ̂_i = Σ_{S ⊆ N\{i}, |S| < K} (U(M_{S∪{i}}) − U(M_S)) / (n · C(n−1, |S|))`
///
/// Note on weights: the paper prints `C(n, |S|)` in Alg. 2 line 7; we use
/// the MC-SV weight `C(n−1, |S|)` so that `K = n` recovers the exact MC-SV
/// (see "Deviations from the paper" in ARCHITECTURE.md — with the printed
/// coefficient the estimator would not converge to the exact value, which
/// contradicts Fig. 4's error → 0 trend).
///
/// This is IPSS's exhaustive phase (Alg. 3 lines 1–7) at the budget
/// `γ = Σ_{j≤K} C(n, j)`: `k* = K`, every stratum of size `≤ K` is
/// evaluated as one batch and folded with the same `(U(T) − U(T∖i))·w`
/// terms in enumeration order, and no budget is left for phase 2 — so
/// nothing is ever drawn.
pub fn k_greedy<U: Utility + ?Sized>(u: &U, k_max: usize) -> Vec<f64> {
    let n = u.n_clients();
    assert!(n >= 1);
    assert!(
        k_max >= 1,
        "K must be at least 1 (K=1 uses only singletons)"
    );
    let gamma = subsets_up_to(n, k_max.min(n)) as usize;
    // lint:seeded(phase 2 is empty at this budget, so no draw is made)
    ipss(u, &IpssConfig::new(gamma), &mut StdRng::seed_from_u64(0))
}

/// Number of distinct utility evaluations K-Greedy performs:
/// `Σ_{j=0}^{K} C(n, j)` (every coalition of size ≤ K, including `∅`).
pub fn k_greedy_evaluations(n: usize, k_max: usize) -> u128 {
    subsets_up_to(n, k_max.min(n))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exact::exact_mc_sv;
    use crate::utility::{CachedUtility, HashUtility, SaturatingUtility, TableUtility};

    #[test]
    fn k_equals_n_recovers_exact_mc_sv() {
        let u = TableUtility::paper_table1();
        let exact = exact_mc_sv(&u);
        let approx = k_greedy(&u, 3);
        for (a, e) in approx.iter().zip(&exact) {
            assert!((a - e).abs() < 1e-12, "{approx:?} vs {exact:?}");
        }
    }

    #[test]
    fn k_beyond_n_is_clamped() {
        let u = TableUtility::paper_table1();
        assert_eq!(k_greedy(&u, 3), k_greedy(&u, 10));
    }

    #[test]
    fn error_decreases_with_k_on_saturating_utility() {
        // The key-combinations phenomenon: on a concave utility the
        // truncated estimate approaches the exact SV as K grows, with the
        // largest gains at small K (Fig. 4's shape).
        let u = SaturatingUtility::uniform(8, 0.1, 0.85, 0.6);
        let exact = exact_mc_sv(&u);
        let norm: f64 = exact.iter().map(|v| v * v).sum::<f64>().sqrt();
        let mut last_err = f64::INFINITY;
        for k in 1..=8usize {
            let approx = k_greedy(&u, k);
            let err: f64 = approx
                .iter()
                .zip(&exact)
                .map(|(a, e)| (a - e) * (a - e))
                .sum::<f64>()
                .sqrt()
                / norm;
            assert!(
                err <= last_err + 1e-12,
                "error should be non-increasing in K (k={k}: {err} > {last_err})"
            );
            last_err = err;
        }
        assert!(last_err < 1e-12, "K = n must be exact");
    }

    #[test]
    fn evaluation_count_matches_formula() {
        let u = CachedUtility::new(HashUtility { n: 10, seed: 3 });
        let _ = k_greedy(&u, 2);
        // Σ_{j=0}^{2} C(10, j) = 1 + 10 + 45 = 56.
        assert_eq!(u.stats().evaluations, 56);
        assert_eq!(k_greedy_evaluations(10, 2), 56);
    }

    #[test]
    fn k1_uses_only_singletons() {
        let u = TableUtility::paper_table1();
        let phi = k_greedy(&u, 1);
        // ϕ̂_i = (U({i}) − U(∅)) / 3.
        assert!((phi[0] - 0.40 / 3.0).abs() < 1e-12);
        assert!((phi[1] - 0.60 / 3.0).abs() < 1e-12);
        assert!((phi[2] - 0.50 / 3.0).abs() < 1e-12);
    }
}
