//! Property tests on the sampling machinery: balanced designs, stratified
//! configurations, IPSS budget accounting — the plumbing every estimator
//! stands on.
//!
//! Written as explicit randomised case loops (a seeded RNG drawing 64+
//! parameter combinations per property) because the offline build has no
//! `proptest`; the checked properties are identical.

use fedval_core::coalition::{binom_u128, subsets_up_to, Coalition};
use fedval_core::ipss::{compute_k_star, ipss, IpssConfig};
use fedval_core::prelude::*;
use fedval_core::sampling::{balanced_subsets_of_size, coverage_counts, distinct_subsets_of_size};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const CASES: usize = 64;

#[test]
fn distinct_subsets_are_valid() {
    let mut driver = StdRng::seed_from_u64(0xD157);
    for _ in 0..CASES {
        let n = driver.random_range(2usize..14);
        let k = driver.random_range(1usize..6).min(n);
        let count = driver.random_range(1usize..40);
        let seed = driver.random_range(0u64..10_000);
        let mut rng = StdRng::seed_from_u64(seed);
        let subs = distinct_subsets_of_size(n, k, count, &mut rng);
        let expected = (count as u128).min(binom_u128(n, k)) as usize;
        assert_eq!(subs.len(), expected, "n={n} k={k} count={count}");
        let mut seen = std::collections::HashSet::new();
        for s in &subs {
            assert_eq!(s.size(), k);
            assert!(s.is_subset_of(Coalition::full(n)));
            assert!(seen.insert(s.0), "duplicate coalition");
        }
    }
}

#[test]
fn balanced_designs_have_unit_coverage_spread() {
    let mut driver = StdRng::seed_from_u64(0xBA1A);
    for _ in 0..CASES {
        let n = driver.random_range(2usize..16);
        let k = driver.random_range(1usize..5).min(n);
        let count = driver.random_range(1usize..50);
        let seed = driver.random_range(0u64..10_000);
        let mut rng = StdRng::seed_from_u64(seed);
        let subs = balanced_subsets_of_size(n, k, count, &mut rng);
        if (subs.len() as u128) < binom_u128(n, k) {
            // Only when the stratum is not exhausted is balance promised.
            let cov = coverage_counts(n, &subs);
            let max = *cov.iter().max().unwrap();
            let min = *cov.iter().min().unwrap();
            assert!(
                max - min <= 1,
                "coverage {cov:?} (n={n} k={k} count={count})"
            );
        }
    }
}

#[test]
fn k_star_is_maximal() {
    let mut driver = StdRng::seed_from_u64(0x5AEE);
    for _ in 0..CASES {
        let n = driver.random_range(1usize..20);
        let gamma = driver.random_range(1usize..5_000);
        let k = compute_k_star(n, gamma).unwrap();
        assert!(subsets_up_to(n, k) <= gamma as u128);
        if k < n {
            assert!(subsets_up_to(n, k + 1) > gamma as u128);
        }
    }
}

#[test]
fn ipss_never_exceeds_budget() {
    let mut driver = StdRng::seed_from_u64(0x1B55);
    for _ in 0..CASES {
        let n = driver.random_range(2usize..10);
        let gamma = driver.random_range(2usize..200);
        let seed = driver.random_range(0u64..10_000);
        let u = CachedUtility::new(HashUtility { n, seed });
        let mut rng = StdRng::seed_from_u64(seed ^ 0x1b);
        let values = ipss(&u, &IpssConfig::new(gamma), &mut rng);
        assert!(u.stats().evaluations <= gamma.min(1 << n));
        assert_eq!(values.len(), n);
        assert!(values.iter().all(|v| v.is_finite()));
    }
}

#[test]
fn stratified_uniform_budget_sums() {
    let mut driver = StdRng::seed_from_u64(0x57A7);
    for _ in 0..CASES {
        let n = driver.random_range(1usize..32);
        let gamma = driver.random_range(0usize..500);
        let cfg = StratifiedConfig::uniform(n, gamma);
        assert_eq!(cfg.total_rounds(), gamma);
        assert_eq!(cfg.rounds_per_stratum.len(), n);
        // Allocation is as even as possible: max − min ≤ 1.
        let max = cfg.rounds_per_stratum.iter().max().unwrap();
        let min = cfg.rounds_per_stratum.iter().min().unwrap();
        assert!(max - min <= 1);
    }
}

#[test]
fn property_error_is_scale_invariant() {
    let mut driver = StdRng::seed_from_u64(0x5CA1);
    for _ in 0..CASES {
        let scale = driver.random_range(0.1f64..100.0);
        let values: Vec<f64> = (0..6).map(|_| driver.random_range(-1.0f64..1.0)).collect();
        let scaled: Vec<f64> = values.iter().map(|v| v * scale).collect();
        let a = property_error(&values, &[0], &[(1, 2)]);
        let b = property_error(&scaled, &[0], &[(1, 2)]);
        if a.is_finite() && b.is_finite() {
            assert!((a - b).abs() < 1e-9, "{a} vs {b}");
        }
    }
}
