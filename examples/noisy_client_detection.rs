//! Noisy-client detection: the same-size-noisy-label setup of Sec. V-B.
//!
//! Six clients hold equal shares of the data, but label noise ramps from
//! 0% (client 1) to 20% (client 6). A fair valuation should price the
//! noisy datasets down — and IPSS should recover that ranking with a
//! fraction of the exact computation's FL trainings.
//!
//! Run with: `cargo run --release -p fedval-examples --bin noisy_client_detection`

#![allow(
    clippy::unwrap_used,
    clippy::expect_used,
    reason = "demo driver: service errors surface by panicking with the message; a real integration would match on the typed ValuationError"
)]

use fedval_core::prelude::*;
use fedval_data::{MnistLike, SyntheticSetup};
use fedval_fl::{FedAvgConfig, FlUtility, ModelSpec};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let n = 6usize;
    let gen = MnistLike::new(77);
    let (train, test) = gen.generate_split(100 * n, 400, 3);
    let mut rng = StdRng::seed_from_u64(4);
    let clients =
        SyntheticSetup::SameSizeNoisyLabel { max_rate: 0.2 }.partition(&train, n, &mut rng);

    let utility = FlUtility::new(
        clients,
        test,
        ModelSpec::default_mlp(),
        FedAvgConfig {
            rounds: 6,
            local_epochs: 2,
            batch_size: 16,
            lr: 0.25,
            seed: 11,
            ..Default::default()
        },
    );

    let exact_outcome = run_valuation(&utility, exact_mc_sv);
    let mut rng = StdRng::seed_from_u64(8);
    let ipss_outcome = run_valuation(&utility, |u| {
        ipss(u, &IpssConfig::new(8), &mut rng) // Table III: n=6 → γ=8
    });

    println!("client  noise   exact ϕ   IPSS ϕ̂");
    for i in 0..n {
        let noise = 20.0 * i as f64 / (n - 1) as f64;
        println!(
            "  {}     {noise:>4.1}%   {:+.4}   {:+.4}",
            i + 1,
            exact_outcome.values[i],
            ipss_outcome.values[i]
        );
    }
    println!(
        "\nexact:  {} FL trainings; IPSS: {} FL trainings",
        exact_outcome.model_evaluations, ipss_outcome.model_evaluations
    );

    // The cleanest client should out-value the noisiest, under both.
    let e = &exact_outcome.values;
    let a = &ipss_outcome.values;
    println!(
        "clean (1) > noisiest (6)? exact: {}, IPSS: {}",
        e[0] > e[n - 1],
        a[0] > a[n - 1]
    );
    println!("rank agreement (Kendall τ) = {:.2}", kendall_tau(a, e));
}
