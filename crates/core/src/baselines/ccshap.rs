//! CC-Shapley: the complementary-contribution sampler of Zhang et al.
//! (SIGMOD'23), the state-of-the-art sampling baseline of Sec. V-A.
//!
//! One evaluation pair `(S, N\S)` yields a complementary contribution for
//! *every* client simultaneously: `U(S) − U(N\S)` for each `i ∈ S` at
//! stratum `|S|`, and the negated difference for each `i ∉ S` at stratum
//! `n − |S|`. Estimates are stratified averages, as in Alg. 1's CC mode,
//! but with the double-sided credit assignment that makes CC sampling
//! competitive.

use rand::Rng;

use crate::sampling::random_subset_of_size;
use crate::utility::Utility;

/// Configuration for [`cc_shapley`].
#[derive(Clone, Debug)]
pub struct CcShapConfig {
    /// Number of sampled `(S, N\S)` pairs (the `γ` for this baseline; each
    /// round costs at most two model evaluations).
    pub rounds: usize,
}

impl CcShapConfig {
    pub fn new(rounds: usize) -> Self {
        CcShapConfig { rounds }
    }
}

/// CC-Shapley estimator.
pub fn cc_shapley<U: Utility + ?Sized, R: Rng + ?Sized>(
    u: &U,
    cfg: &CcShapConfig,
    rng: &mut R,
) -> Vec<f64> {
    let n = u.n_clients();
    assert!(n >= 1);
    assert!(cfg.rounds >= 1);
    // Draw every round's coalition first (identical RNG stream to the
    // historical draw-then-evaluate interleaving), evaluate all (S, N\S)
    // pairs as one batch, then fold in draw order.
    let rounds: Vec<crate::coalition::Coalition> = (0..cfg.rounds)
        .map(|_| {
            let k = rng.random_range(1..=n);
            random_subset_of_size(n, k, rng)
        })
        .collect();
    let mut batch = Vec::with_capacity(rounds.len() * 2);
    for &s in &rounds {
        batch.push(s);
        batch.push(s.complement(n));
    }
    let values = u.eval_batch(&batch);
    // sums[i][k-1], counts[i][k-1]: complementary contributions observed for
    // client i at stratum k (the size of the side containing i).
    let mut sums = vec![vec![0.0f64; n]; n];
    let mut counts = vec![vec![0usize; n]; n];
    for (round, &s) in rounds.iter().enumerate() {
        let k = s.size();
        let comp = s.complement(n);
        let cc = values[round * 2] - values[round * 2 + 1];
        for i in s.members() {
            sums[i][k - 1] += cc;
            counts[i][k - 1] += 1;
        }
        if k < n {
            let k_comp = n - k;
            for i in comp.members() {
                sums[i][k_comp - 1] -= cc;
                counts[i][k_comp - 1] += 1;
            }
        }
    }
    let inv_n = 1.0 / n as f64;
    (0..n)
        .map(|i| {
            let mut acc = 0.0;
            for k in 0..n {
                if counts[i][k] > 0 {
                    acc += sums[i][k] / counts[i][k] as f64;
                }
            }
            acc * inv_n
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exact::exact_mc_sv;
    use crate::metrics::l2_relative_error;
    use crate::utility::{AdditiveUtility, CachedUtility, TableUtility};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn converges_to_exact_sv() {
        let u = TableUtility::paper_table1();
        let exact = exact_mc_sv(&u);
        let mut rng = StdRng::seed_from_u64(1);
        let phi = cc_shapley(&u, &CcShapConfig::new(20_000), &mut rng);
        let err = l2_relative_error(&phi, &exact);
        assert!(err < 0.05, "error {err}: {phi:?} vs {exact:?}");
    }

    #[test]
    fn each_round_costs_at_most_two_evaluations() {
        let u = CachedUtility::new(TableUtility::paper_table1());
        let mut rng = StdRng::seed_from_u64(2);
        let _ = cc_shapley(&u, &CcShapConfig::new(5), &mut rng);
        assert!(u.stats().evaluations <= 10);
    }

    #[test]
    fn additive_utility_close_to_weights() {
        let w = vec![0.1, 0.2, 0.3, 0.4];
        let u = AdditiveUtility::new(0.0, w.clone());
        let mut rng = StdRng::seed_from_u64(3);
        let phi = cc_shapley(&u, &CcShapConfig::new(30_000), &mut rng);
        for (p, e) in phi.iter().zip(&w) {
            assert!((p - e).abs() < 0.05, "{phi:?}");
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let u = TableUtility::paper_table1();
        let a = cc_shapley(&u, &CcShapConfig::new(25), &mut StdRng::seed_from_u64(7));
        let b = cc_shapley(&u, &CcShapConfig::new(25), &mut StdRng::seed_from_u64(7));
        assert_eq!(a, b);
    }

    #[test]
    fn single_client() {
        let u = TableUtility::new(1, vec![0.1, 0.8]);
        let mut rng = StdRng::seed_from_u64(4);
        let phi = cc_shapley(&u, &CcShapConfig::new(10), &mut rng);
        // n = 1: S = {0}, complement = ∅, CC = U({0}) − U(∅) = 0.7.
        assert!((phi[0] - 0.7).abs() < 1e-12);
    }
}
