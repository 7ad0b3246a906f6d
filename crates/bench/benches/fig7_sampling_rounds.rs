//! Fig. 7 — impact of the total sampling rounds γ on the sampling-based
//! algorithms (IPSS, Extended-TMC, Extended-GTB, CC-Shapley), FEMNIST-like
//! with ten clients, MLP and CNN models.
//!
//! Paper shape: as γ grows IPSS's error is lower and more stable than the
//! baselines'; CC-Shapley's error variance is 7.7–50.9× IPSS's.
//!
//! All runs share the ground-truth utility cache (every coalition is
//! already trained for the exact SV), so the sweep measures estimator
//! error, not training time — Fig. 7 plots error only.

#![allow(
    clippy::unwrap_used,
    clippy::expect_used,
    reason = "bench driver: a failed setup panics by design, so unwrap/expect are its error mechanism"
)]

use fedval_bench::{
    base_seed, estimate, exact_sweep, femnist, quick, Algorithm, NeuralModel, Table,
};
use fedval_core::metrics::{l2_relative_error, mean, variance};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let seed = base_seed();
    let n = if quick() { 6 } else { 10 };
    let gammas: Vec<usize> = if quick() {
        vec![8, 16, 32, 64]
    } else {
        vec![8, 16, 32, 64, 128, 256]
    };
    let reps = if quick() { 5 } else { 20 };
    for model in [NeuralModel::Mlp, NeuralModel::Cnn] {
        let problem = femnist(n, model, seed);
        let (exact, u) = exact_sweep(&problem);
        let mut table = Table::new(
            ["γ"].into_iter().map(String::from).chain(
                Algorithm::SAMPLING
                    .iter()
                    .flat_map(|a| [format!("{} err", a.name()), format!("{} var", a.name())]),
            ),
        );
        let mut var_sums = vec![0.0f64; Algorithm::SAMPLING.len()];
        for &gamma in &gammas {
            let mut cells = vec![gamma.to_string()];
            for (ai, &alg) in Algorithm::SAMPLING.iter().enumerate() {
                let errs: Vec<f64> = (0..reps)
                    .map(|rep| {
                        let mut rng =
                            StdRng::seed_from_u64(seed ^ ((rep as u64) << 8) ^ (gamma as u64));
                        let est = estimate(alg, &u, gamma, &mut rng);
                        l2_relative_error(&est, &exact)
                    })
                    .collect();
                let v = variance(&errs);
                var_sums[ai] += v;
                cells.push(format!("{:.4}", mean(&errs)));
                cells.push(format!("{v:.6}"));
            }
            table.row(cells);
        }
        table.print(&format!(
            "Fig. 7 — error vs sampling rounds γ, FEMNIST-like, n = {n}, {} ({reps} reps)",
            model.name()
        ));
        let ipss = Algorithm::SAMPLING
            .iter()
            .position(|&a| a == Algorithm::Ipss)
            .unwrap();
        let cc = Algorithm::SAMPLING
            .iter()
            .position(|&a| a == Algorithm::CcShapley)
            .unwrap();
        if var_sums[ipss] > 0.0 {
            println!(
                "Shape check: CC-Shapley error variance is {:.1}x IPSS's (paper: 7.7–50.9x)",
                var_sums[cc] / var_sums[ipss]
            );
        }
    }
}
