//! Fig. 9 — scalability to up to 100 FL clients. Exact SV is infeasible
//! (> 10³⁰ coalitions), so 5% of clients are planted free riders (empty
//! datasets) and 5% duplicated datasets; the error proxy measures how
//! well each algorithm satisfies the null-player and symmetric-fairness
//! axioms (Def. 2). Sampling budget: γ = n·ln n.
//!
//! Paper shape: IPSS is the fastest of the sampling algorithms at both 20
//! and 100 clients, its running time grows only ~2.4× from 20 to 100
//! clients, and it attains the lowest property-proxy error.

#![allow(
    clippy::unwrap_used,
    clippy::expect_used,
    reason = "bench driver: a failed setup panics by design, so unwrap/expect are its error mechanism"
)]

use std::collections::HashMap;

use fedval_bench::{
    base_seed, fmt_secs, gamma_for, quick, run, scalability, Algorithm, NeuralModel, Table,
};
use fedval_core::metrics::property_error;

fn main() {
    let seed = base_seed();
    let ns: Vec<usize> = if quick() {
        vec![20, 40]
    } else {
        vec![20, 50, 100]
    };
    let mut times: HashMap<(Algorithm, usize), f64> = HashMap::new();
    for &n in &ns {
        let (problem, free_riders, duplicate_pairs) =
            scalability(n, NeuralModel::Mlp, seed.wrapping_add(n as u64));
        let gamma = gamma_for(n);
        let mut table = Table::new(["Algorithm", "Time(s)", "PropertyError"]);
        for alg in Algorithm::SAMPLING {
            let r =
                run(alg, &problem, gamma, seed ^ 0x519 ^ (n as u64) << 3).expect("neural problem");
            let err = property_error(&r.values, &free_riders, &duplicate_pairs);
            let secs = r.wall_time.as_secs_f64();
            times.insert((alg, n), secs);
            table.row([alg.name().to_string(), fmt_secs(secs), format!("{err:.4}")]);
        }
        table.print(&format!(
            "Fig. 9 — scalability, n = {n}, γ = {gamma} (5% free riders, 5% duplicates)"
        ));
    }
    let (lo, hi) = (ns[0], *ns.last().unwrap());
    if let (Some(a), Some(b)) = (
        times.get(&(Algorithm::Ipss, lo)),
        times.get(&(Algorithm::Ipss, hi)),
    ) {
        println!(
            "Shape check: IPSS time grows {:.1}x from n={lo} to n={hi} (paper: 2.4x for 20→100)",
            b / a
        );
    }
}
