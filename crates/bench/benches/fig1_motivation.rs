//! Fig. 1(b) — the motivating scatter: calculation time vs approximation
//! error for every approximation algorithm on FEMNIST-like data with ten
//! FL clients. The paper's point: existing solutions fail to reach the
//! bottom-left corner (fast *and* accurate) — IPSS does.

#![allow(
    clippy::unwrap_used,
    clippy::expect_used,
    reason = "bench driver: a failed setup panics by design, so unwrap/expect are its error mechanism"
)]

use fedval_bench::{
    base_seed, exact_sweep, femnist, fmt_err, fmt_secs, gamma_for, quick, run, Algorithm,
    NeuralModel, Table,
};

fn main() {
    let seed = base_seed();
    let n = if quick() { 6 } else { 10 };
    let problem = femnist(n, NeuralModel::Mlp, seed);
    let (exact, _) = exact_sweep(&problem);
    let gamma = gamma_for(n);

    let mut table = Table::new(["Algorithm", "Time(s)", "Error(l2)", "Evaluations"]);
    for alg in Algorithm::ALL {
        if alg == Algorithm::PermShapley {
            continue; // infeasible point; Fig. 1(b) plots approximations
        }
        let r = run(alg, &problem, gamma, seed ^ 0xF16).expect("neural problem");
        table.row([
            alg.name().to_string(),
            fmt_secs(r.wall_time.as_secs_f64()),
            fmt_err(alg.error(&r.values, &exact)),
            r.model_evaluations.to_string(),
        ]);
    }
    table.print(&format!(
        "Fig. 1(b) — time vs error, FEMNIST-like, n = {n}, γ = {gamma} (MLP)"
    ));
    println!(
        "Shape check: IPSS should sit in the bottom-left corner —\n\
         lower error than every baseline at a time at or below the fastest\n\
         sampling baselines."
    );
}
