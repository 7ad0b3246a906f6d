//! Theorem 2: under FL linear regression, the MC-SV scheme has strictly
//! lower variance than the CC-SV scheme inside the stratified framework
//! (Alg. 1) — both analytic formulas (Eqs. 9–11) and Monte-Carlo
//! estimation helpers used by the Fig. 10 bench.
//!
//! The variance in Theorem 2 is over the randomness of *training* (the
//! per-sample errors `e_j` of Eq. 8), with the same `e_j` shared between
//! the two utility evaluations of a pair. MC pairs `(S∪{i}, S)` cancel the
//! shared samples, leaving only `Var[Σ_{j∈Dᵢ} e_j]`; CC pairs
//! `(S∪{i}, N\(S∪{i}))` sum *disjoint* samples and keep both sides'
//! variance — the source of the gap (Eq. 11).
//!
//! Two distinct variances meet here and must not be confused:
//!
//! * [`analytic_var_mc`]/[`analytic_var_cc`] (Eqs. 9–10) are variances
//!   over **training noise** — the `e_j` draws of Eq. 8, with the
//!   coalition sample held fixed;
//! * the anytime CI's [`Welford`]/[`component_variance`] accumulators
//!   (in `fedval_core::anytime`, where the samplers' folds consume them)
//!   measure the variance over **coalition sampling** — the Alg. 1
//!   draws, with the training realisation held fixed. On one
//!   [`TrainingErrorUtility`] realisation the MC scheme's per-pair
//!   contribution is *constant* (the additive cancellation that powers
//!   Theorem 2), so its sampling variance is exactly zero while Eq. 9 is
//!   positive.
//!
//! [`Welford`]: fedval_core::anytime::Welford
//! [`component_variance`]: fedval_core::anytime::component_variance

use rand::rngs::StdRng;
use rand::SeedableRng;

use fedval_core::coalition::Coalition;
use fedval_core::metrics::variance;
use fedval_core::stratified::{stratified_sampling, Scheme, StratifiedConfig};
use fedval_core::utility::Utility;
use fedval_data::rand_ext::standard_normal;

/// Analytic variance of the MC-SV estimator for client `i` (Eq. 9) under
/// the linear model: each stratum contributes `|D_i|²σ²/(n²·m_{i,k}²)` per
/// sampled pair, i.e. `Σ_k |D_i|²σ²/(n²·m_k)` with `m_k` pairs per stratum.
pub fn analytic_var_mc(
    n: usize,
    sizes: &[usize],
    sigma2: f64,
    m_per_stratum: usize,
    i: usize,
) -> f64 {
    assert_eq!(sizes.len(), n);
    assert!(m_per_stratum >= 1);
    let di2 = (sizes[i] * sizes[i]) as f64;
    (1..=n)
        .map(|_k| di2 * sigma2 / ((n * n * m_per_stratum) as f64))
        .sum()
}

/// Analytic variance of the CC-SV estimator for client `i` (Eq. 10):
/// each stratum-`k` term carries `((|D_S|+|D_i|)² + (|D_N|−|D_S|−|D_i|)²)σ²`
/// with `|D_S∪{i}| = k·t` for equal client sizes `t`.
pub fn analytic_var_cc(
    n: usize,
    sizes: &[usize],
    sigma2: f64,
    m_per_stratum: usize,
    i: usize,
) -> f64 {
    assert_eq!(sizes.len(), n);
    assert!(m_per_stratum >= 1);
    let total: usize = sizes.iter().sum();
    let t = sizes[i];
    (1..=n)
        .map(|k| {
            let side = (k * t) as f64;
            let other = total as f64 - side;
            (side * side + other * other) * sigma2 / ((n * n * m_per_stratum) as f64)
        })
        .sum()
}

/// The Theorem 2 utility model (Eq. 8): `U(M_S) = −Σ_{j∈D_S} e_j`, where
/// the per-sample training errors `e_j` are random draws shared by every
/// coalition containing sample `j`. One instance = one training
/// realisation; redraw per run to estimate variance over training noise.
#[derive(Clone, Debug)]
pub struct TrainingErrorUtility {
    /// Per-client error sums `Σ_{j∈Dᵢ} e_j`.
    client_error_sums: Vec<f64>,
}

impl TrainingErrorUtility {
    /// Draw a fresh realisation: `n` clients with `sizes[i]` samples each,
    /// `e_j = |N(mu_e, sigma²)|` (absolute errors, as in mean absolute
    /// error).
    pub fn draw(sizes: &[usize], mu_e: f64, sigma: f64, rng: &mut StdRng) -> Self {
        let client_error_sums = sizes
            .iter()
            .map(|&t| {
                (0..t)
                    .map(|_| (mu_e + sigma * standard_normal(rng)).abs())
                    .sum()
            })
            .collect();
        TrainingErrorUtility { client_error_sums }
    }
}

impl Utility for TrainingErrorUtility {
    fn n_clients(&self) -> usize {
        self.client_error_sums.len()
    }

    fn eval(&self, s: Coalition) -> f64 {
        -s.members().map(|i| self.client_error_sums[i]).sum::<f64>()
    }
}

/// Monte-Carlo variance of the Alg. 1 estimator over *training noise*:
/// each run draws a fresh utility realisation from `factory(run)` and runs
/// the framework once; returns the per-client variance of the estimates,
/// averaged over clients (the quantity Fig. 10 plots against `γ`).
pub fn estimator_variance_over_runs<U, F>(
    factory: F,
    n: usize,
    scheme: Scheme,
    gamma: usize,
    runs: usize,
    seed: u64,
) -> f64
where
    U: Utility,
    F: Fn(usize) -> U,
{
    assert!(runs >= 2);
    let cfg = StratifiedConfig::uniform(n, gamma);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut estimates: Vec<Vec<f64>> = vec![Vec::with_capacity(runs); n];
    for run in 0..runs {
        let u = factory(run);
        assert_eq!(u.n_clients(), n);
        let values = stratified_sampling(&u, scheme, &cfg, &mut rng);
        for (per_client, v) in estimates.iter_mut().zip(values) {
            per_client.push(v);
        }
    }
    estimates.iter().map(|e| variance(e)).sum::<f64>() / n as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use fedval_core::anytime::{Control, ProgressSnapshot, Welford};
    use fedval_core::sampler::{drive, Observer};
    use fedval_core::stratified::StratifiedSampler;

    /// Alg. 1 on `u` under `drive`, observed after every row.
    fn streamed<U: Utility>(
        u: &U,
        scheme: Scheme,
        cfg: &StratifiedConfig,
        seed: u64,
        observe: Observer<'_>,
    ) -> ProgressSnapshot {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut sampler = StratifiedSampler::new(u.n_clients(), scheme, cfg, None, &mut rng);
        drive(u, &mut sampler, Some(observe)).0
    }

    #[test]
    fn analytic_cc_strictly_dominates_mc() {
        // Theorem 2 / Eq. 11: Var_CC − Var_MC ≥ Σ |D_S|²σ²/(n²m²) > 0.
        for n in [3usize, 5, 10] {
            let sizes = vec![20usize; n];
            for m in [1usize, 4, 16] {
                let mc = analytic_var_mc(n, &sizes, 1.0, m, 0);
                let cc = analytic_var_cc(n, &sizes, 1.0, m, 0);
                assert!(
                    cc > mc,
                    "n={n}, m={m}: Var_CC = {cc} must exceed Var_MC = {mc}"
                );
            }
        }
    }

    #[test]
    fn analytic_variance_decreases_with_budget() {
        let sizes = vec![10usize; 6];
        let v1 = analytic_var_mc(6, &sizes, 1.0, 1, 0);
        let v4 = analytic_var_mc(6, &sizes, 1.0, 4, 0);
        assert!((v1 / v4 - 4.0).abs() < 1e-9);
    }

    #[test]
    fn training_error_utility_is_additive_and_negative() {
        let mut rng = StdRng::seed_from_u64(0);
        let u = TrainingErrorUtility::draw(&[10, 20, 30], 1.0, 0.3, &mut rng);
        let v01 = u.eval(Coalition::from_members([0, 1]));
        let v0 = u.eval(Coalition::singleton(0));
        let v1 = u.eval(Coalition::singleton(1));
        assert!((v01 - (v0 + v1)).abs() < 1e-12);
        assert!(v0 < 0.0);
        assert_eq!(u.eval(Coalition::empty()), 0.0);
    }

    #[test]
    fn welford_agrees_with_two_pass_variance_on_estimator_runs() {
        // The running accumulator behind the anytime CI must reproduce
        // the two-pass variance the Fig. 10 bench uses, on real
        // estimator output rather than synthetic sequences.
        let sizes = vec![25usize; 5];
        let cfg = StratifiedConfig::uniform(5, 15);
        let mut rng = StdRng::seed_from_u64(3);
        let mut first_client = Vec::with_capacity(60);
        let mut acc = Welford::new();
        for run in 0..60 {
            let mut draw_rng = StdRng::seed_from_u64(500 + run as u64);
            let u = TrainingErrorUtility::draw(&sizes, 1.0, 0.5, &mut draw_rng);
            let v = stratified_sampling(&u, Scheme::MarginalContribution, &cfg, &mut rng)[0];
            first_client.push(v);
            acc.push(v);
        }
        let two_pass = variance(&first_client);
        let running = match acc.sample_variance() {
            Some(v) => v,
            None => panic!("60 pushes must yield a variance"),
        };
        assert!(
            (running - two_pass).abs() <= 1e-12 * two_pass.max(1.0),
            "Welford {running} vs two-pass {two_pass}"
        );
    }

    #[test]
    fn mc_sampling_ci_collapses_to_zero_on_a_training_realisation() {
        // Satellite guard, against the Theorem 2 cancellation: on one
        // TrainingErrorUtility realisation the utility is additive, so
        // every matched MC pair contributes a constant — per-stratum
        // sampling variance is *identically zero*. The CI math must turn
        // that into half-width 0 (never NaN from a 0/0), even though the
        // training-noise variance of Eq. 9 is positive.
        let mut rng = StdRng::seed_from_u64(11);
        let u = TrainingErrorUtility::draw(&[10, 20, 30, 40], 1.0, 0.5, &mut rng);
        assert!(analytic_var_mc(4, &[10, 20, 30, 40], 0.25, 2, 0) > 0.0);
        // Full coverage: every stratum of n = 4 fits in 8 rounds.
        let cfg = StratifiedConfig::uniform(4, 32);
        let mut saw_nan = false;
        let out = streamed(&u, Scheme::MarginalContribution, &cfg, 1, &mut |s| {
            saw_nan |= s.ci_halfwidths.iter().any(|h| h.is_nan());
            Control::Continue
        });
        assert!(!saw_nan, "zero-variance strata must not divide 0/0");
        assert_eq!(out.ci_halfwidths, vec![0.0; 4]);
    }

    #[test]
    fn single_sample_strata_keep_the_ci_unbounded_not_nan() {
        // Satellite guard: one sample per stratum (m = 1) cannot bound
        // the stratum's variance — the convention is ∞, never NaN — and
        // the CC scheme keeps a genuinely positive sampling variance on
        // the same realisation where MC's is zero.
        let mut rng = StdRng::seed_from_u64(21);
        let sizes = [30usize, 30, 30, 30, 30];
        let u = TrainingErrorUtility::draw(&sizes, 1.0, 0.5, &mut rng);
        let cfg = StratifiedConfig::explicit(vec![1; 5]);
        let out = streamed(&u, Scheme::MarginalContribution, &cfg, 2, &mut |_| {
            Control::Continue
        });
        assert!(out.ci_halfwidths.iter().all(|&h| h.is_infinite()));
        assert!(out.values.iter().all(|v| v.is_finite()));

        // CC contrast (Theorem 2's ordering, in sampling-CI form): cover
        // strata 1, 4, 5 fully and 9 of 10 coalitions in strata 2 and 3,
        // so every per-client pair count lands in 2..=pop (finite CI)
        // while the one missing coalition keeps some count below its
        // population — a genuinely positive CC term survives the FPC.
        let cfg = StratifiedConfig::explicit(vec![5, 9, 9, 5, 1]);
        let cc = streamed(&u, Scheme::ComplementaryContribution, &cfg, 3, &mut |_| {
            Control::Continue
        });
        let mc = streamed(&u, Scheme::MarginalContribution, &cfg, 3, &mut |_| {
            Control::Continue
        });
        for (c, m) in cc.ci_halfwidths.iter().zip(&mc.ci_halfwidths) {
            assert!(!c.is_nan() && !m.is_nan());
            // MC's finite half-widths vanish on an additive game (up to
            // the float rounding of summing the coalition in two orders).
            if m.is_finite() {
                assert!(*m < 1e-9, "MC sampling CI should collapse: {m}");
            }
        }
        let cc_max_finite = cc
            .ci_halfwidths
            .iter()
            .filter(|h| h.is_finite())
            .fold(0.0f64, |a, &b| a.max(b));
        assert!(
            cc_max_finite > 1e-6,
            "CC must see positive sampling variance: {:?}",
            cc.ci_halfwidths
        );
    }

    #[test]
    fn empirical_mc_variance_below_cc_theorem2() {
        // The Theorem 2 / Fig. 10 phenomenon: over training-noise
        // realisations, MC-SV's estimator variance is lower than CC-SV's
        // at the same budget, because MC pairs cancel shared samples.
        let sizes = vec![25usize; 6];
        let var_of = |scheme, seed| {
            estimator_variance_over_runs(
                |run| {
                    let mut rng = StdRng::seed_from_u64(1000 + run as u64);
                    TrainingErrorUtility::draw(&sizes, 1.0, 0.5, &mut rng)
                },
                6,
                scheme,
                12,
                150,
                seed,
            )
        };
        let var_mc = var_of(Scheme::MarginalContribution, 7);
        let var_cc = var_of(Scheme::ComplementaryContribution, 7);
        assert!(
            var_mc < var_cc,
            "empirical Var_MC = {var_mc} should be below Var_CC = {var_cc}"
        );
    }
}
