//! Fig. 4 — the key-combinations phenomenon: K-Greedy (Alg. 2) relative
//! error and evaluation cost as K grows, on FEMNIST-like data with ten
//! clients.
//!
//! Paper shape: the error drops fast from K = 1 to 3 and flattens after —
//! most of the Shapley value lives in the small coalitions. (On the
//! paper's data-rich FEMNIST silos the error is already < 1% at K ≤ 2.)
//!
//! All K values share the table of the ground-truth computation; the Time
//! column is the τ-model cost of Sec. IV-C, `Σ_{S evaluated} τ̂(|S|)`, with
//! `τ̂` each size's mean solo training time (`TauModel`), as in Fig. 6.

#![allow(
    clippy::unwrap_used,
    clippy::expect_used,
    reason = "bench driver: a failed setup panics by design, so unwrap/expect are its error mechanism"
)]

use fedval_bench::{
    base_seed, femnist, fmt_secs, quick, NeuralModel, Problem, RecordingUtility, Table, TauModel,
};
use fedval_core::exact::exact_mc_sv;
use fedval_core::kgreedy::{k_greedy, k_greedy_evaluations};
use fedval_core::metrics::l2_relative_error;

fn main() {
    let seed = base_seed();
    let n = if quick() { 6 } else { 10 };
    let k_max = if quick() { 5 } else { 6 };
    for model in [NeuralModel::Mlp, NeuralModel::Cnn] {
        let problem = femnist(n, model, seed);
        let (tau, warm) = TauModel::measure_full(&problem.utility());
        let exact = exact_mc_sv(&warm);

        let mut table = Table::new(["K", "Error(l2)", "Time est.(s)", "Evaluations"]);
        let mut prev_err = f64::INFINITY;
        let mut monotone = true;
        for k in 1..=k_max {
            let recorder = RecordingUtility::new(&warm);
            let approx = k_greedy(&recorder, k);
            let err = l2_relative_error(&approx, &exact);
            monotone &= err <= prev_err + 0.05;
            prev_err = err;
            let evals = k_greedy_evaluations(n, k);
            table.row([
                k.to_string(),
                format!("{err:.4}"),
                fmt_secs(tau.cost_of(&recorder.recorded())),
                evals.to_string(),
            ]);
        }
        table.print(&format!(
            "Fig. 4 — K-Greedy on FEMNIST-like, n = {n}, {} model (τ̂ = {:.1} ms)",
            model.name(),
            tau.mean_tau() * 1e3
        ));
        println!(
            "Shape check: error decreases (roughly monotonically) in K: {}",
            if monotone { "yes" } else { "VIOLATED" }
        );
    }
}
