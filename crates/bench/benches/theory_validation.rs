//! Theory validation — executable checks of Lemma 1, Theorem 2 and
//! Theorem 3 against the closed-form linear-regression substrate:
//!
//! * Lemma 1: the simulated exact MC-SV on a real OLS utility matches the
//!   closed-form expected value;
//! * Theorem 2: analytic and empirical variance gap between MC-SV and
//!   CC-SV;
//! * Theorem 3: IPSS's truncation error on the linear model vs the bound.

#![allow(
    clippy::unwrap_used,
    clippy::expect_used,
    reason = "bench driver: a failed setup panics by design, so unwrap/expect are its error mechanism"
)]

use fedval_bench::{base_seed, quick, Table};
use fedval_core::exact::exact_mc_sv;
use fedval_core::ipss::{compute_k_star, ipss, IpssConfig};
use fedval_core::metrics::{l2_relative_error, mean};
use fedval_core::utility::{CachedUtility, TableUtility};
use fedval_theory::{
    analytic_var_cc, analytic_var_mc, expected_coalition_mse, lemma1_expected_sv,
    theorem3_error_bound, truncated_expected_sv, LinRegUtility,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let seed = base_seed();
    let (n, t, x_dim, noise) = (6usize, 40usize, 4usize, 0.5f64);
    let reps = if quick() { 10 } else { 40 };

    // --- Lemma 1: expected SV on the analytic game vs simulation. ---
    // Donahue–Kleinberg's mse(d) = μ_e·|x|/(d−|x|−1) is the *excess* test
    // error of OLS over the irreducible noise floor σ²; the floor cancels
    // in every marginal contribution, so the closed form's m0 is the zero
    // model's excess error ‖β‖² (not its total error ‖β‖² + σ²).
    // β is chosen with ‖β‖² ≥ μ_e·|x| so Theorem 3's bound is in its
    // validity regime (see fedval-theory docs).
    let mu_e = noise * noise; // E[ε²] for centred Gaussian noise
    let beta = vec![1.2f64, 0.9, 0.6, 0.3];
    assert_eq!(beta.len(), x_dim);
    let m0 = beta.iter().map(|b| b * b).sum::<f64>();
    let closed_form = lemma1_expected_sv(n, t, mu_e, x_dim, m0);
    let mut simulated = Vec::with_capacity(reps);
    for rep in 0..reps {
        let u = CachedUtility::new(LinRegUtility::synthetic(
            &beta,
            &vec![t; n],
            4000,
            noise,
            seed ^ (rep as u64) << 9,
        ));
        let phi = exact_mc_sv(&u);
        simulated.push(mean(&phi));
    }
    let sim_mean = mean(&simulated);
    let mut table = Table::new(["Quantity", "Closed form", "Simulated", "Ratio"]);
    table.row([
        "E[ϕ_i] (Lemma 1)".to_string(),
        format!("{closed_form:.5}"),
        format!("{sim_mean:.5}"),
        format!("{:.3}", sim_mean / closed_form),
    ]);
    table.print(&format!(
        "Lemma 1 — n = {n}, t = {t}, |x| = {x_dim}, {reps} dataset draws"
    ));

    // --- Theorem 2: analytic variance gap. ---
    let sizes = vec![t; n];
    let mut table = Table::new(["m per stratum", "Var MC (analytic)", "Var CC (analytic)"]);
    for m in [1usize, 2, 4, 8] {
        table.row([
            m.to_string(),
            format!("{:.4}", analytic_var_mc(n, &sizes, 1.0, m, 0)),
            format!("{:.4}", analytic_var_cc(n, &sizes, 1.0, m, 0)),
        ]);
    }
    table.print("Theorem 2 — analytic variance (Eqs. 9–10); CC must dominate MC");

    // --- Theorem 3: truncation error vs bound on the analytic game. ---
    let mut table = Table::new(["γ", "k*", "Analytic rel-err", "IPSS rel-err (sim)", "Bound"]);
    let analytic_game =
        TableUtility::from_fn(n, |s| -expected_coalition_mse(mu_e, x_dim, t, s.size(), m0));
    let exact_analytic = exact_mc_sv(&analytic_game);
    for gamma in [n + 1, 2 * n + 4, 1 << (n - 1), 1 << n] {
        let k_star = compute_k_star(n, gamma).unwrap();
        let analytic_err = if k_star >= 1 {
            let trunc = truncated_expected_sv(n, t, k_star, mu_e, x_dim, m0);
            let full = lemma1_expected_sv(n, t, mu_e, x_dim, m0);
            ((trunc - full) / full).abs()
        } else {
            f64::NAN
        };
        let mut rng = StdRng::seed_from_u64(seed ^ 0x73);
        let est = ipss(&analytic_game, &IpssConfig::new(gamma), &mut rng);
        let sim_err = l2_relative_error(&est, &exact_analytic);
        let bound = if k_star >= 1 {
            theorem3_error_bound(n, t, k_star, x_dim)
        } else {
            f64::NAN
        };
        table.row([
            gamma.to_string(),
            k_star.to_string(),
            format!("{analytic_err:.5}"),
            format!("{sim_err:.5}"),
            format!("{bound:.5}"),
        ]);
    }
    table.print("Theorem 3 — IPSS truncation error vs bound (m0 ≥ μ_e·|x| regime)");
}
