//! Hospital collaboration (the paper's Fig. 1(a) scenario): three
//! hospitals jointly train a diagnostic model with FedAvg and want their
//! data contributions valued fairly.
//!
//! Hospital A has plenty of clean data, hospital B a moderate amount, and
//! hospital C only a small set — the valuation should reflect that, and
//! the IPSS approximation should reproduce the exact ranking at a
//! fraction of the training cost.
//!
//! Run with: `cargo run --release -p fedval-examples --bin hospital_collaboration`

#![allow(
    clippy::unwrap_used,
    clippy::expect_used,
    reason = "demo driver: service errors surface by panicking with the message; a real integration would match on the typed ValuationError"
)]

use fedval_core::prelude::*;
use fedval_data::{Dataset, MnistLike};
use fedval_fl::{FedAvgConfig, FlUtility, ModelSpec};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    // Synthetic "medical imaging" data: 10 diagnostic classes, 8×8 scans.
    let gen = MnistLike::new(2024);
    let (pool, test) = gen.generate_split(360, 400, 1);
    let (a, rest) = pool.split_at(180); // hospital A: 180 scans
    let (b, c_pool) = rest.split_at(120); // hospital B: 120 scans
    let (c, _) = c_pool.split_at(40); // hospital C: 40 scans
    let clients: Vec<Dataset> = vec![a, b, c];
    println!(
        "Hospitals hold {:?} scans each; test set = {} scans",
        clients.iter().map(Dataset::n_samples).collect::<Vec<_>>(),
        test.n_samples()
    );

    let utility = FlUtility::new(
        clients,
        test,
        ModelSpec::default_mlp(),
        FedAvgConfig {
            rounds: 6,
            local_epochs: 2,
            batch_size: 16,
            lr: 0.2,
            seed: 99,
            ..Default::default()
        },
    );

    // Ground truth: exact MC-SV (trains all 2³ = 8 coalition models).
    let exact_outcome = run_valuation(&utility, exact_mc_sv);
    println!(
        "\nExact MC-SV ({} FL trainings, {:?}):",
        exact_outcome.model_evaluations, exact_outcome.wall_time
    );
    for (name, v) in ["A", "B", "C"].iter().zip(&exact_outcome.values) {
        println!("  hospital {name}: ϕ = {v:.4}");
    }

    // IPSS under the paper's γ = 5 budget for n = 3.
    let mut rng = StdRng::seed_from_u64(5);
    let ipss_outcome = run_valuation(&utility, |u| ipss(u, &IpssConfig::new(5), &mut rng));
    println!(
        "\nIPSS, γ = 5 ({} FL trainings, {:?}):",
        ipss_outcome.model_evaluations, ipss_outcome.wall_time
    );
    for (name, v) in ["A", "B", "C"].iter().zip(&ipss_outcome.values) {
        println!("  hospital {name}: ϕ̂ = {v:.4}");
    }
    println!(
        "\nerror = {:.4}, rank agreement (Kendall τ) = {:.2}",
        l2_relative_error(&ipss_outcome.values, &exact_outcome.values),
        kendall_tau(&ipss_outcome.values, &exact_outcome.values)
    );

    // A larger dataset should not be valued *less* (monotone-ish story).
    let v = &exact_outcome.values;
    println!(
        "\nA ≥ C in value: {} (A = {:.4}, C = {:.4})",
        v[0] >= v[2],
        v[0],
        v[2]
    );
}
