//! Quickstart: the paper's three-hospital example (Table I / Example 1).
//!
//! Shows the core API surface in ~40 lines: define a utility, compute the
//! exact Shapley value, then approximate it with IPSS under the paper's
//! γ = 5 budget and compare.
//!
//! Run with: `cargo run -p fedval-examples --bin quickstart`

#![allow(
    clippy::unwrap_used,
    clippy::expect_used,
    reason = "demo driver: service errors surface by panicking with the message; a real integration would match on the typed ValuationError"
)]

use fedval_core::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    // The utility table of the paper's Table I: model accuracy of every
    // hospital coalition (bit 0 = hospital 1, bit 1 = hospital 2, ...).
    let utility = TableUtility::paper_table1();

    // Exact data values by the MC-SV definition (Def. 3).
    let exact = exact_mc_sv(&utility);
    println!("Exact Shapley values (Example 1):");
    for (i, v) in exact.iter().enumerate() {
        println!("  hospital {}: ϕ = {v:.4}", i + 1);
    }
    // The paper's Example 1 reports ϕ1 = 0.22, ϕ2 ≈ 0.32, ϕ3 = 0.32.
    assert!((exact[0] - 0.22).abs() < 1e-9);

    // All three equivalent computation schemes agree.
    let cc = exact_cc_sv(&utility);
    let perm = exact_perm_sv(&utility);
    for i in 0..3 {
        assert!((exact[i] - cc[i]).abs() < 1e-9);
        assert!((exact[i] - perm[i]).abs() < 1e-9);
    }
    println!("MC-SV ≡ CC-SV ≡ Perm-SV: verified");

    // IPSS (Alg. 3) with the budget Table III pairs with n = 3: γ = 5,
    // i.e. only 5 of the 8 coalitions are ever evaluated.
    let mut rng = StdRng::seed_from_u64(7);
    let outcome = run_valuation(utility, |u| ipss(u, &IpssConfig::new(5), &mut rng));
    println!(
        "\nIPSS with γ = 5 ({} model evaluations, {:?}):",
        outcome.model_evaluations, outcome.wall_time
    );
    for (i, v) in outcome.values.iter().enumerate() {
        println!("  hospital {}: ϕ̂ = {v:.4}", i + 1);
    }
    let err = l2_relative_error(&outcome.values, &exact);
    println!("relative error ‖ϕ̂−ϕ‖₂/‖ϕ‖₂ = {err:.4}");
    assert!(outcome.model_evaluations <= 5);
}
