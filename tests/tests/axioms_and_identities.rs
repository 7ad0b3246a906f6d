//! Cross-crate property tests: the Shapley axioms of Def. 2, the
//! equivalence of the three SV expressions, and the exactness of each
//! estimator at full budget — all driven over random games.
//!
//! Written as explicit randomised case loops (a seeded RNG drawing 48
//! random games per property) because the offline build has no `proptest`;
//! the checked properties are identical.

use fedval_core::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const CASES: usize = 48;

/// A random utility table over `n` clients with values in [0, 1].
fn random_game(n: usize, rng: &mut StdRng) -> TableUtility {
    let values: Vec<f64> = (0..(1usize << n)).map(|_| rng.random::<f64>()).collect();
    TableUtility::new(n, values)
}

#[test]
fn efficiency_axiom_holds() {
    let mut driver = StdRng::seed_from_u64(0xE441);
    for _ in 0..CASES {
        let game = random_game(5, &mut driver);
        let phi = exact_mc_sv(&game);
        let total: f64 = phi.iter().sum();
        let expected = game.eval(Coalition::full(5)) - game.eval(Coalition::empty());
        assert!((total - expected).abs() < 1e-9);
    }
}

#[test]
fn three_expressions_agree() {
    let mut driver = StdRng::seed_from_u64(0x3A61);
    for _ in 0..CASES {
        let game = random_game(5, &mut driver);
        let mc = exact_mc_sv(&game);
        let cc = exact_cc_sv(&game);
        let perm = exact_perm_sv(&game);
        for i in 0..5 {
            assert!((mc[i] - cc[i]).abs() < 1e-9);
            assert!((mc[i] - perm[i]).abs() < 1e-9);
        }
    }
}

#[test]
fn null_player_gets_zero() {
    let mut driver = StdRng::seed_from_u64(0x0711);
    for _ in 0..CASES {
        let game = random_game(4, &mut driver);
        // Plant a null player: client 4's presence never changes utility.
        let padded = TableUtility::from_fn(5, |s| game.eval(s.without(4)));
        let phi = exact_mc_sv(&padded);
        assert!(phi[4].abs() < 1e-9);
    }
}

#[test]
fn symmetric_players_get_equal_value() {
    let mut driver = StdRng::seed_from_u64(0x5E77);
    for _ in 0..CASES {
        let game = random_game(4, &mut driver);
        // Make clients 0 and 1 interchangeable: utility depends only on
        // whether each of them is present, not which.
        let sym = TableUtility::from_fn(4, |s| {
            let both = usize::from(s.contains(0)) + usize::from(s.contains(1));
            let rest = Coalition::from_members(s.members().filter(|&i| i >= 2));
            game.eval(rest.union(Coalition::from_members(0..both)))
        });
        let phi = exact_mc_sv(&sym);
        assert!((phi[0] - phi[1]).abs() < 1e-9);
    }
}

#[test]
fn linearity_of_sv() {
    let mut driver = StdRng::seed_from_u64(0x11EA);
    for _ in 0..CASES {
        let a = random_game(4, &mut driver);
        let b = random_game(4, &mut driver);
        let alpha = driver.random_range(0.0f64..3.0);
        // SV(a + α·b) = SV(a) + α·SV(b).
        let combo = TableUtility::from_fn(4, |s| a.eval(s) + alpha * b.eval(s));
        let pa = exact_mc_sv(&a);
        let pb = exact_mc_sv(&b);
        let pc = exact_mc_sv(&combo);
        for i in 0..4 {
            assert!((pc[i] - (pa[i] + alpha * pb[i])).abs() < 1e-9);
        }
    }
}

#[test]
fn ipss_full_budget_is_exact() {
    let mut driver = StdRng::seed_from_u64(0x1955);
    for _ in 0..CASES {
        let game = random_game(5, &mut driver);
        let seed = driver.random_range(0u64..1000);
        let mut rng = StdRng::seed_from_u64(seed);
        let est = ipss(&game, &IpssConfig::new(1 << 5), &mut rng);
        let exact = exact_mc_sv(&game);
        for i in 0..5 {
            assert!((est[i] - exact[i]).abs() < 1e-9);
        }
    }
}

#[test]
fn kgreedy_full_depth_is_exact() {
    let mut driver = StdRng::seed_from_u64(0x46EE);
    for _ in 0..CASES {
        let game = random_game(5, &mut driver);
        let est = k_greedy(&game, 5);
        let exact = exact_mc_sv(&game);
        for i in 0..5 {
            assert!((est[i] - exact[i]).abs() < 1e-9);
        }
    }
}

#[test]
fn stratified_full_budget_is_exact_both_schemes() {
    let mut driver = StdRng::seed_from_u64(0x57F1);
    for _ in 0..CASES {
        let game = random_game(4, &mut driver);
        let seed = driver.random_range(0u64..1000);
        let cfg = StratifiedConfig::explicit(vec![4, 6, 4, 1]);
        let exact = exact_mc_sv(&game);
        for scheme in [
            Scheme::MarginalContribution,
            Scheme::ComplementaryContribution,
        ] {
            let mut rng = StdRng::seed_from_u64(seed);
            let est = stratified_sampling(&game, scheme, &cfg, &mut rng);
            for i in 0..4 {
                assert!((est[i] - exact[i]).abs() < 1e-9, "{scheme:?}");
            }
        }
    }
}

#[test]
fn tmc_without_truncation_preserves_efficiency() {
    let mut driver = StdRng::seed_from_u64(0x7EC0);
    for _ in 0..CASES {
        let game = random_game(4, &mut driver);
        let seed = driver.random_range(0u64..1000);
        let mut rng = StdRng::seed_from_u64(seed);
        let est = extended_tmc(&game, &TmcConfig::new(5).with_tolerance(0.0), &mut rng);
        let total: f64 = est.iter().sum();
        let expected = game.eval(Coalition::full(4)) - game.eval(Coalition::empty());
        assert!((total - expected).abs() < 1e-9);
    }
}

#[test]
fn gtb_satisfies_efficiency_exactly() {
    let mut driver = StdRng::seed_from_u64(0x67B0);
    for _ in 0..CASES {
        let game = random_game(4, &mut driver);
        let seed = driver.random_range(0u64..1000);
        let mut rng = StdRng::seed_from_u64(seed);
        let est = extended_gtb_values(&game, &GtbConfig::new(40), &mut rng);
        let total: f64 = est.iter().sum();
        let expected = game.eval(Coalition::full(4)) - game.eval(Coalition::empty());
        assert!((total - expected).abs() < 1e-7);
    }
}
