//! The Donahue–Kleinberg linear-regression analysis model (AAAI'21) that
//! the paper's theory builds on, and the closed forms of Lemma 1 and
//! Theorem 3.
//!
//! All data items are drawn from a standard Gaussian; the expected MSE of a
//! linear regression trained on `d` items with `x_dim` input features and
//! noise expectation `mu_e` is `mu_e·x_dim / (d − x_dim − 1)` (Eq. 12).

/// Expected MSE of a linear regression fit on `d` samples (Eq. 12).
///
/// Only defined for `d > x_dim + 1`; below that the regression is
/// under-determined and the paper substitutes the initial-model MSE `m0`.
pub fn expected_mse(mu_e: f64, x_dim: usize, d: usize) -> Option<f64> {
    (d > x_dim + 1).then(|| mu_e * x_dim as f64 / (d as f64 - x_dim as f64 - 1.0))
}

/// Expected MSE of the FL model of a coalition of `s` clients, each with
/// `t` samples (Eq. 13), falling back to `m0` when under-determined
/// (including `s = 0`).
pub fn expected_coalition_mse(mu_e: f64, x_dim: usize, t: usize, s: usize, m0: f64) -> f64 {
    expected_mse(mu_e, x_dim, s * t).unwrap_or(m0)
}

/// Lemma 1: expected data value of any client under negative-MSE utility:
/// `E[ϕ_i] = (1/n)(m0 − mu_e·x_dim/(n·t − x_dim − 1))`.
pub fn lemma1_expected_sv(n: usize, t: usize, mu_e: f64, x_dim: usize, m0: f64) -> f64 {
    assert!(n * t > x_dim + 1, "grand coalition must be determined");
    (m0 - mu_e * x_dim as f64 / ((n * t) as f64 - x_dim as f64 - 1.0)) / n as f64
}

/// Eq. 16: expected data value estimated by IPSS when truncating at `k*`:
/// `E[ϕ̂ᵢ^{k*}] = (1/n)(m0 − mu_e·x_dim/(k*·t − x_dim − 1))`.
pub fn truncated_expected_sv(
    n: usize,
    t: usize,
    k_star: usize,
    mu_e: f64,
    x_dim: usize,
    m0: f64,
) -> f64 {
    assert!(k_star >= 1 && k_star <= n);
    assert!(
        k_star * t > x_dim + 1,
        "truncation level must be determined"
    );
    (m0 - mu_e * x_dim as f64 / ((k_star * t) as f64 - x_dim as f64 - 1.0)) / n as f64
}

/// Theorem 3's bound on the relative truncation error:
/// `|E[ϕ̂^{k*}] − E[ϕ]| / E[ϕ] ≤ (n−k*)·t / ((k*t − |x| − 1)(nt − |x| − 2))`,
/// i.e. `O((n − k*)/(k*·n·t))`.
///
/// Validity: the derivation (Eq. 18) assumes the initial model is no
/// better than a regression fit on `|x| + 2` samples, i.e.
/// `m0 ≥ mse(|x|+2) = μ_e·|x|`. With a better-than-that initial model the
/// bound can be violated (the denominator `E[ϕ]` shrinks).
pub fn theorem3_error_bound(n: usize, t: usize, k_star: usize, x_dim: usize) -> f64 {
    assert!(k_star >= 1 && k_star <= n);
    let kt = (k_star * t) as f64 - x_dim as f64 - 1.0;
    let nt = (n * t) as f64 - x_dim as f64 - 2.0;
    assert!(kt > 0.0 && nt > 0.0);
    ((n - k_star) * t) as f64 / (kt * nt)
}

/// The asymptotic form of Theorem 3's bound: `(n − k*) / (k*·n·t)`.
pub fn theorem3_asymptotic(n: usize, t: usize, k_star: usize) -> f64 {
    (n - k_star) as f64 / (k_star * n * t) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn expected_mse_decreases_in_data() {
        let mut prev = f64::INFINITY;
        for d in 12..200 {
            let m = expected_mse(1.0, 10, d).unwrap();
            assert!(m < prev);
            assert!(m > 0.0);
            prev = m;
        }
        assert!(expected_mse(1.0, 10, 11).is_none());
        assert!(expected_mse(1.0, 10, 5).is_none());
    }

    #[test]
    fn coalition_mse_falls_back_to_m0() {
        assert_eq!(expected_coalition_mse(1.0, 10, 100, 0, 5.0), 5.0);
        let one = expected_coalition_mse(1.0, 10, 100, 1, 5.0);
        assert!((one - 10.0 / 89.0).abs() < 1e-12);
    }

    #[test]
    fn lemma1_matches_direct_mc_sv_computation() {
        // Under the model, U(S) = −E[mse(|S|t)]; the MC-SV telescopes per
        // stratum (Eq. 14), so E[ϕ_i] must equal the direct MC-SV on the
        // expected-utility game.
        use fedval_core::exact::exact_mc_sv;
        use fedval_core::utility::TableUtility;
        let (n, t, mu_e, x_dim, m0) = (6usize, 40usize, 2.0, 5usize, 1.0);
        let u = TableUtility::from_fn(n, |s| -expected_coalition_mse(mu_e, x_dim, t, s.size(), m0));
        let phi = exact_mc_sv(&u);
        let lemma = lemma1_expected_sv(n, t, mu_e, x_dim, m0);
        for v in &phi {
            assert!((v - lemma).abs() < 1e-12, "{phi:?} vs lemma {lemma}");
        }
    }

    #[test]
    fn truncated_sv_underestimates_and_converges() {
        let (n, t, mu_e, x_dim, m0) = (10usize, 50usize, 1.0, 4usize, 0.8);
        let full = lemma1_expected_sv(n, t, mu_e, x_dim, m0);
        let mut prev = f64::NEG_INFINITY;
        for k in 1..=n {
            let trunc = truncated_expected_sv(n, t, k, mu_e, x_dim, m0);
            assert!(trunc <= full + 1e-12);
            assert!(trunc >= prev, "monotone in k*");
            prev = trunc;
        }
        assert!((prev - full).abs() < 1e-12, "k* = n is exact");
    }

    #[test]
    fn theorem3_bound_dominates_actual_error() {
        // m0 must satisfy the bound's validity condition m0 ≥ μ_e·|x| = 4.
        let (n, t, mu_e, x_dim, m0) = (10usize, 60usize, 1.0, 4usize, 5.0);
        let exact = lemma1_expected_sv(n, t, mu_e, x_dim, m0);
        for k in 1..n {
            let approx = truncated_expected_sv(n, t, k, mu_e, x_dim, m0);
            let rel_err = (approx - exact).abs() / exact.abs();
            let bound = theorem3_error_bound(n, t, k, x_dim);
            assert!(
                rel_err <= bound + 1e-12,
                "k*={k}: error {rel_err} exceeds bound {bound}"
            );
        }
    }

    #[test]
    fn theorem3_bound_shrinks_with_t_and_k() {
        // More data per client or a deeper exhaustive phase tighten the
        // bound — the "key combinations" argument of Sec. IV-C.
        assert!(theorem3_error_bound(10, 200, 2, 4) < theorem3_error_bound(10, 50, 2, 4));
        assert!(theorem3_error_bound(10, 50, 4, 4) < theorem3_error_bound(10, 50, 1, 4));
        assert_eq!(theorem3_error_bound(10, 50, 10, 4), 0.0);
        // Asymptotic form agrees on order of magnitude.
        let b = theorem3_error_bound(10, 100, 2, 4);
        let a = theorem3_asymptotic(10, 100, 2);
        assert!(b / a < 10.0 && a / b < 10.0);
    }
}
