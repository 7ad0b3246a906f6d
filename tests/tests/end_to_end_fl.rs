//! End-to-end integration: real FedAvg training through the whole stack —
//! data generation → partitioning → FL utility → every estimator —
//! cross-checked against the exact MC-SV.

use fedval_core::prelude::*;
use fedval_data::{MnistLike, SyntheticSetup};
use fedval_fl::{FedAvgConfig, FlUtility, ModelSpec};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn problem(n: usize, seed: u64) -> FlUtility {
    let gen = MnistLike::new(seed);
    let (train, test) = gen.generate_split(80 * n, 300, seed ^ 1);
    let mut rng = StdRng::seed_from_u64(seed ^ 2);
    let clients = SyntheticSetup::SameSizeSameDist.partition(&train, n, &mut rng);
    FlUtility::new(
        clients,
        test,
        ModelSpec::default_mlp(),
        FedAvgConfig {
            rounds: 5,
            local_epochs: 2,
            batch_size: 16,
            lr: 0.2,
            seed,
            ..Default::default()
        },
    )
}

#[test]
fn sampling_estimators_approach_exact_on_real_fl() {
    let utility = CachedUtility::new(problem(4, 501));
    let exact = exact_mc_sv(&utility);
    let norm: f64 = exact.iter().map(|v| v * v).sum::<f64>().sqrt();
    assert!(
        norm > 0.05,
        "training produced a degenerate game: {exact:?}"
    );

    // Each estimator at a generous budget must land within a loose but
    // meaningful tolerance of the exact values (cache is shared, so no
    // retraining happens).
    let mut rng = StdRng::seed_from_u64(7);
    let ipss = ipss(&utility, &IpssConfig::new(16), &mut rng);
    assert!(
        l2_relative_error(&ipss, &exact) < 0.45,
        "IPSS: {ipss:?} vs {exact:?}"
    );

    let mut rng = StdRng::seed_from_u64(8);
    let tmc = extended_tmc(&utility, &TmcConfig::new(60).with_tolerance(0.0), &mut rng);
    assert!(
        l2_relative_error(&tmc, &exact) < 0.45,
        "TMC: {tmc:?} vs {exact:?}"
    );

    let mut rng = StdRng::seed_from_u64(9);
    let cc = cc_shapley(&utility, &CcShapConfig::new(200), &mut rng);
    assert!(
        l2_relative_error(&cc, &exact) < 0.45,
        "CC: {cc:?} vs {exact:?}"
    );
}

#[test]
fn utility_cache_bounds_training_count() {
    let utility = CachedUtility::new(problem(4, 502));
    let mut rng = StdRng::seed_from_u64(3);
    let _ = ipss(&utility, &IpssConfig::new(9), &mut rng);
    assert!(utility.stats().evaluations <= 9);
    // Re-running any estimator cannot trigger new training for coalitions
    // already seen.
    let seen = utility.stats().evaluations;
    let mut rng = StdRng::seed_from_u64(3);
    let _ = ipss(&utility, &IpssConfig::new(9), &mut rng);
    assert_eq!(utility.stats().evaluations, seen);
}

#[test]
fn label_noise_lowers_value_in_aggregate() {
    // The Sec. V-B(d) story: the three cleanest clients should collectively
    // out-value the three noisiest.
    let n = 6;
    let gen = MnistLike::new(701);
    let (train, test) = gen.generate_split(100 * n, 400, 702);
    let mut rng = StdRng::seed_from_u64(703);
    let clients =
        SyntheticSetup::SameSizeNoisyLabel { max_rate: 0.35 }.partition(&train, n, &mut rng);
    let utility = CachedUtility::new(FlUtility::new(
        clients,
        test,
        ModelSpec::default_mlp(),
        FedAvgConfig {
            rounds: 5,
            local_epochs: 2,
            batch_size: 16,
            lr: 0.2,
            seed: 704,
            ..Default::default()
        },
    ));
    let phi = exact_mc_sv(&utility);
    let clean: f64 = phi[..3].iter().sum();
    let noisy: f64 = phi[3..].iter().sum();
    assert!(
        clean > noisy,
        "clean clients {clean} should out-value noisy ones {noisy}: {phi:?}"
    );
}
