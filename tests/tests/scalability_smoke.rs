//! Fig. 9 smoke: the 100-client pipeline is exercised end to end at a
//! reduced size — IPSS with γ = n·ln n on a planted free-rider/duplicate
//! instance must run fast and score well on the property proxies.

use fedval_core::prelude::*;
use fedval_data::{plant_scalability_fixtures, MnistLike, SyntheticSetup};
use fedval_fl::{FedAvgConfig, FlUtility, ModelSpec};
use rand::rngs::StdRng;
use rand::SeedableRng;

#[test]
fn ipss_scales_to_thirty_clients_with_planted_fixtures() {
    let n = 30usize;
    let gen = MnistLike::new(901);
    let (train, test) = gen.generate_split(15 * n, 200, 902);
    let mut rng = StdRng::seed_from_u64(903);
    let mut clients = SyntheticSetup::SameSizeSameDist.partition(&train, n, &mut rng);
    let (free_riders, duplicate_pairs) = plant_scalability_fixtures(&mut clients, 2, 2);
    let utility = CachedUtility::new(FlUtility::new(
        clients,
        test,
        ModelSpec::default_mlp(),
        FedAvgConfig {
            rounds: 2,
            local_epochs: 1,
            batch_size: 16,
            lr: 0.2,
            seed: 904,
            ..Default::default()
        },
    ));

    let gamma = (n as f64 * (n as f64).ln()) as usize; // ≈ 102
    let mut rng = StdRng::seed_from_u64(905);
    let mut sampler = PrunedSampler::for_ipss(n, &IpssConfig::new(gamma), None, &mut rng);
    let (outcome, _) = drive(&utility, &mut sampler, None);
    assert_eq!(outcome.values.len(), n);
    assert!(utility.stats().evaluations <= gamma);
    assert_eq!(
        sampler.k_star(),
        1,
        "n=30, γ≈102: 1+30 ≤ 102 < 1+30+C(30,2)"
    );

    // Free riders train nothing: their marginal contribution is exactly
    // the evaluation noise of identical models — i.e. zero, because our
    // substrate is deterministic given the coalition's trainable members.
    let err = property_error(&outcome.values, &free_riders, &duplicate_pairs);
    assert!(err < 0.35, "property error {err}: {:?}", outcome.values);
    for &i in &free_riders {
        assert!(
            outcome.values[i].abs() < 0.05,
            "free rider {i} valued at {}",
            outcome.values[i]
        );
    }
}
