//! Extended-TMC: the Truncated Monte Carlo permutation sampler of Ghorbani
//! & Zou (Data Shapley, ICML'19), extended to FL exactly as in Sec. V-A:
//! sample random permutations of clients, walk each permutation training
//! the FL model on growing prefixes, and record each client's marginal
//! contribution (Eq. 20). Truncation skips the tail of a permutation once
//! the prefix utility is within `tolerance` of the grand-coalition utility
//! (further marginals are presumed negligible).
//!
//! Unlike the stratified estimators, TMC is *not* routed through
//! [`Utility::eval_batch`]: each step's truncation decision depends on the
//! utility of the previous prefix, so a permutation's evaluations form a
//! serial dependency chain. Wrap the utility in
//! [`crate::utility::CachedUtility`] to share prefix evaluations across
//! permutations instead.

use rand::Rng;

use crate::coalition::Coalition;
use crate::sampling::random_permutation;
use crate::utility::Utility;

/// Configuration for [`extended_tmc`].
#[derive(Clone, Debug)]
pub struct TmcConfig {
    /// Number of sampled permutations (the `γ` of Table III for this
    /// baseline — each permutation is one "sampling round").
    pub permutations: usize,
    /// Truncation tolerance: once `|U(N) − U(prefix)| < tolerance`, the
    /// remaining clients in the permutation receive zero marginal.
    pub tolerance: f64,
}

impl TmcConfig {
    pub fn new(permutations: usize) -> Self {
        TmcConfig {
            permutations,
            tolerance: 0.01,
        }
    }

    pub fn with_tolerance(mut self, tolerance: f64) -> Self {
        self.tolerance = tolerance;
        self
    }
}

/// Extended-TMC estimator: `ϕ̂_i = E_π[U(M_{π[:i]∪{i}}) − U(M_{π[:i]})]`.
pub fn extended_tmc<U: Utility + ?Sized, R: Rng + ?Sized>(
    u: &U,
    cfg: &TmcConfig,
    rng: &mut R,
) -> Vec<f64> {
    let n = u.n_clients();
    assert!(n >= 1);
    assert!(cfg.permutations >= 1);
    let u_full = u.eval(Coalition::full(n));
    let u_empty = u.eval(Coalition::empty());
    let mut phi = vec![0.0f64; n];
    for _ in 0..cfg.permutations {
        let perm = random_permutation(n, rng);
        let mut prefix = Coalition::empty();
        let mut u_prev = u_empty;
        for &i in &perm {
            if (u_full - u_prev).abs() < cfg.tolerance {
                // Truncated: the model has converged — remaining marginals
                // are recorded as zero (no evaluation spent).
                continue;
            }
            prefix = prefix.with(i);
            let u_cur = u.eval(prefix);
            phi[i] += u_cur - u_prev;
            u_prev = u_cur;
        }
    }
    let inv = 1.0 / cfg.permutations as f64;
    for v in &mut phi {
        *v *= inv;
    }
    phi
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exact::exact_mc_sv;
    use crate::metrics::l2_relative_error;
    use crate::utility::{AdditiveUtility, CachedUtility, SaturatingUtility, TableUtility};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn additive_utility_is_recovered_exactly_per_permutation() {
        // Every permutation yields marginals exactly w_i, so even one
        // permutation is exact (with truncation off).
        let w = vec![0.2, 0.5, 0.3];
        let u = AdditiveUtility::new(0.0, w.clone());
        let cfg = TmcConfig::new(1).with_tolerance(0.0);
        let mut rng = StdRng::seed_from_u64(0);
        let phi = extended_tmc(&u, &cfg, &mut rng);
        for (p, e) in phi.iter().zip(&w) {
            assert!((p - e).abs() < 1e-12);
        }
    }

    #[test]
    fn converges_to_exact_sv() {
        let u = TableUtility::paper_table1();
        let exact = exact_mc_sv(&u);
        let cfg = TmcConfig::new(3000).with_tolerance(0.0);
        let mut rng = StdRng::seed_from_u64(1);
        let phi = extended_tmc(&u, &cfg, &mut rng);
        assert!(
            l2_relative_error(&phi, &exact) < 0.03,
            "{phi:?} vs {exact:?}"
        );
    }

    #[test]
    fn truncation_saves_evaluations_on_saturating_utility() {
        let sat = SaturatingUtility::uniform(10, 0.1, 0.85, 1.2);
        let with_trunc = CachedUtility::new(sat.clone());
        let without_trunc = CachedUtility::new(sat);
        let mut r1 = StdRng::seed_from_u64(3);
        let mut r2 = StdRng::seed_from_u64(3);
        let _ = extended_tmc(
            &with_trunc,
            &TmcConfig::new(20).with_tolerance(0.02),
            &mut r1,
        );
        let _ = extended_tmc(
            &without_trunc,
            &TmcConfig::new(20).with_tolerance(0.0),
            &mut r2,
        );
        assert!(
            with_trunc.stats().evaluations < without_trunc.stats().evaluations,
            "truncation must reduce distinct evaluations ({} vs {})",
            with_trunc.stats().evaluations,
            without_trunc.stats().evaluations
        );
    }

    #[test]
    fn efficiency_holds_in_expectation() {
        // Without truncation each permutation's marginals telescope to
        // U(N) − U(∅), so Σϕ̂ is exactly that for any sample.
        let u = TableUtility::paper_table1();
        let cfg = TmcConfig::new(7).with_tolerance(0.0);
        let mut rng = StdRng::seed_from_u64(5);
        let phi = extended_tmc(&u, &cfg, &mut rng);
        let total: f64 = phi.iter().sum();
        assert!((total - (0.96 - 0.10)).abs() < 1e-12);
    }
}
