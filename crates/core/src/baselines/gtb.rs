//! Extended-GTB: the Group-Testing-Based SV estimator of Jia et al.
//! (AISTATS'19), extended to FL as in Sec. V-A.
//!
//! GTB samples coalitions from a carefully skewed size distribution, uses
//! the indicator pattern of each sample to estimate all pairwise value
//! differences `ϕ_i − ϕ_j` simultaneously, and then recovers a valuation
//! consistent with those differences and the efficiency constraint
//! `Σ_i ϕ_i = U(N) − U(∅)`.
//!
//! The recovery step in the original is a feasibility program whose
//! constraints are relaxed until satisfiable (as the paper describes). We
//! solve the equivalent least-squares projection in closed form — the
//! minimum-norm solution consistent with the measured differences. It
//! meets every pairwise constraint exactly, so there is no slack to relax
//! or report (see "Deviations from the paper" in ARCHITECTURE.md).

use rand::Rng;

use crate::coalition::Coalition;
use crate::sampling::random_subset_of_size;
use crate::utility::Utility;

/// Configuration for [`extended_gtb_values`].
#[derive(Clone, Debug)]
pub struct GtbConfig {
    /// Number of sampled coalitions (the `γ` for this baseline).
    pub samples: usize,
}

impl GtbConfig {
    pub fn new(samples: usize) -> Self {
        GtbConfig { samples }
    }
}

/// Extended-GTB estimator.
pub fn extended_gtb_values<U: Utility + ?Sized, R: Rng + ?Sized>(
    u: &U,
    cfg: &GtbConfig,
    rng: &mut R,
) -> Vec<f64> {
    let n = u.n_clients();
    assert!(n >= 2, "group testing needs at least two clients");
    assert!(cfg.samples >= 1);

    // Size distribution q(k) ∝ 1/k + 1/(n−k) over k ∈ 1..=n−1, and its
    // normaliser Z = Σ_k (1/k + 1/(n−k)) = 2·H_{n−1}.
    let weights: Vec<f64> = (1..n)
        .map(|k| 1.0 / k as f64 + 1.0 / (n - k) as f64)
        .collect();
    let z: f64 = weights.iter().sum();
    let cum: Vec<f64> = weights
        .iter()
        .scan(0.0, |acc, w| {
            *acc += w;
            Some(*acc)
        })
        .collect();

    // Sampling phase: draw every coalition first, then evaluate the
    // draws together with `N` and `∅` as one batch. Each draw contributes
    // u_t·(β_ti − β_tj) to the pairwise difference estimate; the pairwise
    // structure collapses because Σ_j Δ̂_{ij} only needs per-client and
    // global aggregates, accumulated in draw order.
    let t = cfg.samples;
    let mut batch: Vec<Coalition> = (0..t)
        .map(|_| {
            let r: f64 = rng.random::<f64>() * z;
            let k = match cum.iter().position(|&c| r < c) {
                Some(idx) => idx + 1,
                None => n - 1,
            };
            random_subset_of_size(n, k, rng)
        })
        .collect();
    batch.extend([Coalition::full(n), Coalition::empty()]);
    let utilities = u.eval_batch(&batch);
    let mut per_client = vec![0.0f64; n]; // Σ_t u_t·β_ti
    for (s, &ut) in batch[..t].iter().zip(&utilities) {
        for i in s.members() {
            per_client[i] += ut;
        }
    }
    let scale = z / t as f64;
    // Δ̂_{ij} = scale·(per_client[i] − per_client[j]);
    // Σ_j Δ̂_{ij} = scale·(n·per_client[i] − Σ_j per_client[j]).
    let sum_all: f64 = per_client.iter().sum();

    let u_total = utilities[t] - utilities[t + 1];
    // Least-squares recovery: ϕ_i = U_total/n + (1/n)·Σ_j Δ̂_{ij}. Then
    // ϕ_i − ϕ_j − Δ̂_{ij} = 0 identically: no constraint needs slack.
    (0..n)
        .map(|i| u_total / n as f64 + scale * (n as f64 * per_client[i] - sum_all) / n as f64)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exact::exact_mc_sv;
    use crate::metrics::l2_relative_error;
    use crate::utility::{AdditiveUtility, TableUtility};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn efficiency_constraint_is_exact() {
        let u = TableUtility::paper_table1();
        let cfg = GtbConfig::new(50);
        let mut rng = StdRng::seed_from_u64(1);
        let values = extended_gtb_values(&u, &cfg, &mut rng);
        let total: f64 = values.iter().sum();
        assert!((total - (0.96 - 0.10)).abs() < 1e-10);
    }

    #[test]
    fn converges_with_many_samples() {
        // GTB's difference estimator is consistent; with a large sample the
        // estimate should land near the exact SV.
        let u = TableUtility::paper_table1();
        let exact = exact_mc_sv(&u);
        let mut rng = StdRng::seed_from_u64(3);
        let values = extended_gtb_values(&u, &GtbConfig::new(60_000), &mut rng);
        let err = l2_relative_error(&values, &exact);
        assert!(err < 0.12, "error {err}: {values:?} vs {exact:?}");
    }

    #[test]
    fn additive_utility_symmetric_clients() {
        // For equal weights the estimate must be symmetric-ish and sum to n·w.
        let u = AdditiveUtility::new(0.0, vec![0.25; 4]);
        let values = extended_gtb_values(&u, &GtbConfig::new(2000), &mut StdRng::seed_from_u64(4));
        let total: f64 = values.iter().sum();
        assert!((total - 1.0).abs() < 1e-10);
        for v in &values {
            assert!((v - 0.25).abs() < 0.1, "{values:?}");
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let u = TableUtility::paper_table1();
        let a = extended_gtb_values(&u, &GtbConfig::new(20), &mut StdRng::seed_from_u64(9));
        let b = extended_gtb_values(&u, &GtbConfig::new(20), &mut StdRng::seed_from_u64(9));
        assert_eq!(a, b);
    }
}
