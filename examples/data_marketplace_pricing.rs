//! Data-marketplace pricing: cross-silo providers contribute tabular
//! datasets to a federated XGBoost-style model (the Table V setting) and
//! the platform splits a fixed reward pot proportionally to Shapley
//! value.
//!
//! One provider is a *free rider* with an empty dataset — the null-player
//! axiom (Eq. 1) demands it earns nothing, and IPSS respects that.
//!
//! Run with: `cargo run --release -p fedval-examples --bin data_marketplace_pricing`

#![allow(
    clippy::unwrap_used,
    clippy::expect_used,
    reason = "demo driver: service errors surface by panicking with the message; a real integration would match on the typed ValuationError"
)]

use fedval_core::prelude::*;
use fedval_data::{AdultLike, Dataset};
use fedval_fl::GbdtUtility;
use fedval_gbdt::GbdtParams;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let n = 5usize;
    let pot = 10_000.0f64; // reward pool in your favourite currency

    let gen = AdultLike::new(31);
    let mut fed = gen.generate_federated(n, 420 * (n - 1), 500, 6);
    // Provider 5 joins the federation but contributes no data.
    fed.clients[n - 1] = Dataset::empty(gen.n_features(), 2);

    let utility = GbdtUtility::new(
        fed.clients,
        fed.test,
        GbdtParams {
            n_trees: 12,
            ..Default::default()
        },
    );

    let exact_outcome = run_valuation(&utility, exact_mc_sv);
    let mut rng = StdRng::seed_from_u64(13);
    let ipss_outcome = run_valuation(&utility, |u| ipss(u, &IpssConfig::new(8), &mut rng));

    println!("provider   exact ϕ    IPSS ϕ̂    payout (IPSS)");
    let total: f64 = ipss_outcome.values.iter().map(|v| v.max(0.0)).sum();
    for i in 0..n {
        let payout = if total > 0.0 {
            pot * ipss_outcome.values[i].max(0.0) / total
        } else {
            0.0
        };
        println!(
            "  {}       {:+.4}    {:+.4}    {payout:>9.2}",
            i + 1,
            exact_outcome.values[i],
            ipss_outcome.values[i]
        );
    }

    // Null player: the free rider's exact value is ~0 and its payout small.
    println!(
        "\nfree rider exact ϕ = {:+.5} (null-player axiom)",
        exact_outcome.values[n - 1]
    );
    println!(
        "model trainings: exact {} vs IPSS {}",
        exact_outcome.model_evaluations, ipss_outcome.model_evaluations
    );
    println!(
        "IPSS vs exact: error = {:.4}, Kendall τ = {:.2}",
        l2_relative_error(&ipss_outcome.values, &exact_outcome.values),
        kendall_tau(&ipss_outcome.values, &exact_outcome.values)
    );
}
