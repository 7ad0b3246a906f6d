//! Fig. 10 — variance of the stratified framework (Alg. 1) under the
//! MC-SV vs CC-SV computation schemes as γ grows, for n = 3..10 clients.
//!
//! The paper runs Alg. 1 100 times per configuration on FEMNIST and
//! reports that (i) variance first rises then falls to ~0 as γ approaches
//! full coverage, and (ii) MC-SV's variance is below CC-SV's throughout —
//! the empirical face of Theorem 2.
//!
//! Training-noise realisations are modelled by re-seeding the FL process
//! per run (the paper's TF runs are nondeterministic across runs); we use
//! the closed-form linear-regression utility of `fedval-theory` for the
//! dense sweep plus one neural spot check.

#![allow(
    clippy::unwrap_used,
    clippy::expect_used,
    reason = "bench driver: a failed setup panics by design, so unwrap/expect are its error mechanism"
)]

use fedval_bench::{base_seed, quick, table_client_counts, Table};
use fedval_core::stratified::Scheme;
use fedval_theory::{estimator_variance_over_runs, TrainingErrorUtility};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let seed = base_seed();
    let runs = if quick() { 60 } else { 150 };
    for n in table_client_counts() {
        let gammas: Vec<usize> = {
            let full = 1usize << n;
            [full / 8, full / 4, full / 2, full]
                .into_iter()
                .filter(|&g| g >= n)
                .collect()
        };
        let sizes = vec![30usize; n];
        let mut table = Table::new(["γ", "Var MC-SV", "Var CC-SV", "CC/MC"]);
        let mut mc_below_cc = 0usize;
        for &gamma in &gammas {
            let var_of = |scheme| {
                estimator_variance_over_runs(
                    |run| {
                        let mut rng = StdRng::seed_from_u64(seed ^ 0xF10 ^ (run as u64) << 7);
                        TrainingErrorUtility::draw(&sizes, 1.0, 0.5, &mut rng)
                    },
                    n,
                    scheme,
                    gamma,
                    runs,
                    seed ^ (gamma as u64),
                )
            };
            let mc = var_of(Scheme::MarginalContribution);
            let cc = var_of(Scheme::ComplementaryContribution);
            mc_below_cc += usize::from(mc <= cc);
            table.row([
                gamma.to_string(),
                format!("{mc:.6}"),
                format!("{cc:.6}"),
                format!("{:.2}", cc / mc.max(1e-12)),
            ]);
        }
        table.print(&format!(
            "Fig. 10 — Alg. 1 estimator variance over {runs} training realisations, n = {n}"
        ));
        println!(
            "Shape check: MC-SV variance ≤ CC-SV at {mc_below_cc}/{} budgets (Theorem 2)",
            gammas.len()
        );
    }
}
