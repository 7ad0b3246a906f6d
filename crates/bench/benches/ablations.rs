//! Ablations of the reproduction's design choices (see "Deviations from
//! the paper" in ARCHITECTURE.md):
//!
//! 1. IPSS stratum-k* weighting: stratified mean (ours) vs the paper's
//!    literal line-16 coefficient;
//! 2. IPSS phase-2 sampling: balanced coverage (constraint C_i = C_j) vs
//!    plain uniform sampling;
//! 3. Extended-TMC truncation tolerance sweep;
//! 4. Alg. 1 scheme choice (MC-SV vs CC-SV) at equal budget on the real
//!    FL utility.

#![allow(
    clippy::unwrap_used,
    clippy::expect_used,
    reason = "bench driver: a failed setup panics by design, so unwrap/expect are its error mechanism"
)]

use fedval_bench::{base_seed, exact_sweep, femnist, quick, NeuralModel, Table};
use fedval_core::baselines::{extended_tmc, TmcConfig};
use fedval_core::coalition::{binom_u128, subsets_of_size, subsets_up_to};
use fedval_core::ipss::{compute_k_star, ipss, IpssConfig, IpssWeighting};
use fedval_core::metrics::{l2_relative_error, mean};
use fedval_core::sampling::distinct_subsets_of_size;
use fedval_core::stratified::{stratified_sampling, Scheme, StratifiedConfig};
use fedval_core::utility::{CachedUtility, Utility};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// IPSS variant with *unbalanced* (plain uniform) phase-2 sampling —
/// dropping constraint (3) of Alg. 3 line 11.
fn ipss_unbalanced<U: Utility + ?Sized>(u: &U, gamma: usize, rng: &mut StdRng) -> Vec<f64> {
    let n = u.n_clients();
    let k_star = compute_k_star(n, gamma).expect("gamma too small");
    for size in 0..=k_star {
        for s in subsets_of_size(n, size) {
            u.eval(s);
        }
    }
    let mut phi = vec![0.0f64; n];
    let inv_n = 1.0 / n as f64;
    // Full strata.
    for t_size in 1..=k_star {
        let w = inv_n / fedval_core::coalition::binom(n - 1, t_size - 1);
        for t in subsets_of_size(n, t_size) {
            let ut = u.eval(t);
            for i in t.members() {
                phi[i] += (ut - u.eval(t.without(i))) * w;
            }
        }
    }
    // Unbalanced sampled stratum.
    if k_star < n {
        let remaining = ((gamma as u128).saturating_sub(subsets_up_to(n, k_star)))
            .min(binom_u128(n, k_star + 1));
        let sampled = distinct_subsets_of_size(n, k_star + 1, remaining as usize, rng);
        let mut sums = vec![0.0f64; n];
        let mut counts = vec![0usize; n];
        for &t in &sampled {
            let ut = u.eval(t);
            for i in t.members() {
                sums[i] += ut - u.eval(t.without(i));
                counts[i] += 1;
            }
        }
        for i in 0..n {
            if counts[i] > 0 {
                phi[i] += inv_n * sums[i] / counts[i] as f64;
            }
        }
    }
    phi
}

fn main() {
    let seed = base_seed();
    let n = if quick() { 6 } else { 10 };
    let gamma = fedval_bench::gamma_for(n);
    let reps = if quick() { 5 } else { 15 };
    let problem = femnist(n, NeuralModel::Mlp, seed);
    // Every coalition is trained once, so the ablations measure estimator
    // quality, not τ.
    let (exact, shared) = exact_sweep(&problem);

    // 1. Weighting mode.
    let mut table = Table::new(["Weighting", "Mean Error(l2)"]);
    for (label, weighting) in [
        ("StratifiedMean (ours)", IpssWeighting::StratifiedMean),
        ("PaperLiteral (line 16)", IpssWeighting::PaperLiteral),
    ] {
        let errs: Vec<f64> = (0..reps)
            .map(|rep| {
                let mut rng = StdRng::seed_from_u64(seed ^ (rep as u64) << 5);
                let est = ipss(
                    &shared,
                    &IpssConfig::new(gamma).with_weighting(weighting),
                    &mut rng,
                );
                l2_relative_error(&est, &exact)
            })
            .collect();
        table.row([label.to_string(), format!("{:.4}", mean(&errs))]);
    }
    table.print(&format!(
        "Ablation 1 — IPSS stratum-k* weighting (n={n}, γ={gamma})"
    ));

    // 2. Balanced vs unbalanced phase-2 sampling.
    let mut table = Table::new(["Phase-2 sampling", "Mean Error(l2)", "Worst client |err|"]);
    for balanced in [true, false] {
        let mut errs = Vec::with_capacity(reps);
        let mut worst = 0.0f64;
        for rep in 0..reps {
            let mut rng = StdRng::seed_from_u64(seed ^ 0xAB ^ (rep as u64) << 5);
            let est = if balanced {
                ipss(&shared, &IpssConfig::new(gamma), &mut rng)
            } else {
                ipss_unbalanced(&shared, gamma, &mut rng)
            };
            errs.push(l2_relative_error(&est, &exact));
            for (e, x) in est.iter().zip(&exact) {
                worst = worst.max((e - x).abs());
            }
        }
        table.row([
            if balanced {
                "balanced (Alg. 3)"
            } else {
                "uniform"
            }
            .to_string(),
            format!("{:.4}", mean(&errs)),
            format!("{worst:.4}"),
        ]);
    }
    table.print("Ablation 2 — IPSS phase-2 coverage constraint");

    // 3. TMC truncation tolerance. Each tolerance counts its own distinct
    // coalitions through a memo over the warm one, so nothing retrains.
    let mut table = Table::new(["Tolerance", "Error(l2)", "Evaluations"]);
    for tol in [0.0, 0.005, 0.02, 0.05] {
        let counted = CachedUtility::new(&shared);
        let mut rng = StdRng::seed_from_u64(seed ^ 0x7C);
        let cfg = TmcConfig::new(gamma).with_tolerance(tol);
        let est = extended_tmc(&counted, &cfg, &mut rng);
        table.row([
            format!("{tol}"),
            format!("{:.4}", l2_relative_error(&est, &exact)),
            counted.stats().evaluations.to_string(),
        ]);
    }
    table.print("Ablation 3 — Extended-TMC truncation tolerance");

    // 4. Scheme choice in Alg. 1 at equal budget.
    let mut table = Table::new(["Scheme", "Mean Error(l2)"]);
    for (label, scheme) in [
        ("MC-SV", Scheme::MarginalContribution),
        ("CC-SV", Scheme::ComplementaryContribution),
    ] {
        let errs: Vec<f64> = (0..reps)
            .map(|rep| {
                let mut rng = StdRng::seed_from_u64(seed ^ 0x5C ^ (rep as u64) << 5);
                let est = stratified_sampling(
                    &shared,
                    scheme,
                    &StratifiedConfig::uniform(n, gamma),
                    &mut rng,
                );
                l2_relative_error(&est, &exact)
            })
            .collect();
        table.row([label.to_string(), format!("{:.4}", mean(&errs))]);
    }
    table.print("Ablation 4 — Alg. 1 scheme choice at equal γ (Sec. III-B)");
}
