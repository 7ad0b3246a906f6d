//! Banzhaf-value data valuation — the robust alternative of *Data Banzhaf*
//! (Wang & Jia, AISTATS'23), cited by the paper as \[21\].
//!
//! The Banzhaf value replaces the Shapley value's stratified weights with a
//! uniform average over all coalitions:
//! `ψ_i = (1/2^{n−1}) Σ_{S ⊆ N\{i}} (U(S∪{i}) − U(S))`.
//! It keeps null-player and symmetry but trades the efficiency axiom for
//! robustness to utility noise — a useful cross-check on FL valuations.
//! The crate computes it exactly ([`exact_banzhaf`], small `n`) and by
//! IPSS-style pruning ([`banzhaf_pruned`]).
//!
//! The pruned estimator runs IPSS's [`PrunedSampler`] under Banzhaf
//! weights, so it keeps the [`crate::sampler`] contract: randomness only
//! in the phase-2 draw, schedule-order fold, prefix-pure snapshots.

use rand::Rng;

use crate::coalition::{all_subsets, MAX_ENUMERATED_CLIENTS};
use crate::ipss::PrunedSampler;
use crate::sampler::drive;
use crate::utility::Utility;

/// Exact Banzhaf value via full enumeration (small `n` only).
///
/// Batched like `exact_mc_sv`: one `eval_batch` sweep over all `2^n`
/// coalitions (parallelisable, one evaluation per coalition even without a
/// cache), then a serial fold in mask order.
pub fn exact_banzhaf<U: Utility + ?Sized>(u: &U) -> Vec<f64> {
    let n = u.n_clients();
    assert!(n >= 1);
    assert!(
        n <= MAX_ENUMERATED_CLIENTS,
        "exact Banzhaf enumerates 2^n coalitions"
    );
    let table = crate::exact::full_value_table(u, n);
    let mut phi = vec![0.0; n];
    let scale = 1.0 / (1u64 << (n - 1)) as f64;
    for t in all_subsets(n) {
        if t.is_empty() {
            continue;
        }
        let ut = table[t.0 as usize];
        for i in t.members() {
            phi[i] += (ut - table[t.without(i).0 as usize]) * scale;
        }
    }
    phi
}

/// Stratified Banzhaf sampling reusing the IPSS insight: evaluate all
/// coalitions of size ≤ k* plus a balanced sample of the next stratum,
/// and estimate the Banzhaf value from the evaluated marginal pairs with
/// size-binomial weights `C(n−1, |S|)/2^{n−1}`.
///
/// Caveat (and an instructive contrast with IPSS): the Banzhaf value has
/// *no* `1/C(n−1,|S|)` down-weighting of mid-size strata — observation
/// (ii) of Sec. IV-A does not apply — so importance pruning is sound only
/// when the utility saturates fast enough that marginal decay beats the
/// binomial growth of stratum mass (roughly `e^{−rate} < 1/n`).
///
/// The schedule and fold are IPSS's [`PrunedSampler`] under Banzhaf
/// weights, so even an uncached utility sees at most `γ` evaluations.
/// Observed under [`drive`], its CI follows the IPSS conventions with the
/// sampled stratum weighted `C(n−1, k*)/2^{n−1}`. Truncated strata add no
/// term and carry far more mass than under Shapley weights, so a tight
/// `CiAtMost` here bounds sampling noise, not truncation bias.
pub fn banzhaf_pruned<U: Utility + ?Sized, R: Rng + ?Sized>(
    u: &U,
    gamma: usize,
    rng: &mut R,
) -> Vec<f64> {
    let mut sampler = PrunedSampler::for_banzhaf(u.n_clients(), gamma, rng);
    drive(u, &mut sampler, None).0.values
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::l2_relative_error;
    use crate::utility::{AdditiveUtility, CachedUtility, TableUtility};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn additive_game_recovers_weights() {
        let w = vec![0.3, 0.1, 0.6];
        let u = AdditiveUtility::new(0.2, w.clone());
        let psi = exact_banzhaf(&u);
        for (p, e) in psi.iter().zip(&w) {
            assert!((p - e).abs() < 1e-12);
        }
    }

    #[test]
    fn banzhaf_vs_shapley_on_paper_table() {
        // Banzhaf and Shapley differ in general but share the ranking on
        // this monotone example.
        let u = TableUtility::paper_table1();
        let psi = exact_banzhaf(&u);
        let phi = crate::exact::exact_mc_sv(&u);
        assert!(psi[0] < psi[1] && psi[0] < psi[2]);
        assert!(phi[0] < phi[1] && phi[0] < phi[2]);
        // No efficiency for Banzhaf: on this table Σψ = 0.845, not
        // U(N) − U(∅) = 0.86.
        let total: f64 = psi.iter().sum();
        assert!((total - 0.86).abs() > 1e-6, "Σψ = {total}");
        assert!((total - 0.845).abs() < 1e-9, "Σψ = {total}");
    }

    #[test]
    fn pruned_estimator_respects_budget_and_approximates() {
        // rate = 2.5 > ln(n−1): marginal decay beats the binomial growth
        // of Banzhaf's stratum mass, the regime where pruning is sound
        // (see banzhaf_pruned docs).
        let u = CachedUtility::new(crate::utility::SaturatingUtility::uniform(
            10, 0.1, 0.85, 2.5,
        ));
        let mut rng = StdRng::seed_from_u64(7);
        let est = banzhaf_pruned(&u, 32, &mut rng);
        assert!(u.stats().evaluations <= 32);
        let exact = exact_banzhaf(&u);
        let err = l2_relative_error(&est, &exact);
        assert!(err < 0.2, "error {err}");
    }

    #[test]
    fn pruning_banzhaf_fails_on_slow_saturation() {
        // The contrast case: at rate = 1.2 the mid strata carry most of
        // the Banzhaf mass and truncation loses it — unlike the Shapley
        // value, whose 1/C(n−1,s) weights rescue IPSS (observation (ii)).
        let u = crate::utility::SaturatingUtility::uniform(10, 0.1, 0.85, 1.2);
        let mut rng = StdRng::seed_from_u64(9);
        let est = banzhaf_pruned(&u, 32, &mut rng);
        let exact = exact_banzhaf(&u);
        let err = l2_relative_error(&est, &exact);
        assert!(err > 0.3, "expected large truncation error, got {err}");
    }

    #[test]
    fn streaming_stopped_run_equals_full_run_prefix() {
        use crate::anytime::Control;
        let u = crate::utility::HashUtility { n: 8, seed: 15 };
        let run = |observe: crate::sampler::Observer<'_>| {
            let mut rng = StdRng::seed_from_u64(4);
            drive(
                &u,
                &mut PrunedSampler::for_banzhaf(8, 60, &mut rng),
                Some(observe),
            )
        };
        let mut snapshots = Vec::new();
        run(&mut |s| {
            snapshots.push(s.clone());
            Control::Continue
        });
        let (out, stopped_early) = run(&mut |s| {
            if s.batches_done >= 4 {
                Control::Stop
            } else {
                Control::Continue
            }
        });
        assert!(stopped_early);
        assert_eq!(out, snapshots[3]);
        assert!(snapshots[0].ci_halfwidths.iter().all(|h| !h.is_nan()));
    }

    #[test]
    fn full_budget_pruned_is_exact() {
        let u = TableUtility::paper_table1();
        let exact = exact_banzhaf(&u);
        let mut rng = StdRng::seed_from_u64(8);
        let est = banzhaf_pruned(&u, 8, &mut rng);
        for (a, b) in est.iter().zip(&exact) {
            assert!((a - b).abs() < 1e-12, "{est:?} vs {exact:?}");
        }
    }
}
