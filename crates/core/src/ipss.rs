//! IPSS — Importance-Pruned Stratified Sampling (Alg. 3), the paper's main
//! contribution.
//!
//! Given a total budget of `γ` utility evaluations, IPSS exploits the *key
//! combinations* phenomenon (Sec. IV-A): coalitions with few clients carry
//! almost all of the information in the MC-SV, both because marginal utility
//! saturates (observation (i)) and because mid-size strata carry tiny
//! `1/C(n−1,|S|)` weights (observation (ii)).
//!
//! Phase 1 (lines 1–7): exhaustively evaluate every coalition of size
//! `≤ k*`, where `k* = max{k : Σ_{j≤k} C(n,j) ≤ γ}`.
//! Phase 2 (lines 8–14): spend the remaining budget on a *balanced* sample
//! `P` of coalitions of size `k*+1` (every client covered equally often —
//! constraint (3) of line 11).
//! Estimation (lines 15–17): MC-SV restricted to the evaluated coalitions.
//!
//! Theorem 3 bounds the relative error by `O((n−k*)/(k*·n·t))` under the FL
//! linear-regression model — see `fedval-theory` for the closed forms.
//!
//! The schedule and its fold are one [`PrunedSampler`], shared with
//! pruned Banzhaf ([`crate::banzhaf`]), under the [`Sampler`] contract of
//! [`crate::sampler`]: randomness is consumed only by the phase-2 draw,
//! the fold runs over strata in ascending size (masks in enumeration
//! order) then the sample in draw order, and snapshots are pure in the
//! evaluated prefix.

use std::collections::{HashMap, HashSet};

use rand::Rng;

use crate::adaptive::{AdaptivePolicy, AllocationPlanner, ComponentState};
use crate::anytime::{
    component_variance, halfwidth, Control, ProgressSnapshot, StreamingOutcome, Welford,
};
use crate::coalition::{binom, binom_u128, subsets_of_size, subsets_up_to, Coalition};
use crate::sampler::{drive, Sampler};
use crate::sampling::{balanced_subsets_of_size, weighted_balanced_subsets_extending};
use crate::utility::Utility;

/// Internal memo of evaluated coalition values, keyed by mask.
///
/// IPSS holds the values it paid for instead of re-asking the utility:
/// the estimation pass (lines 15–17) touches every phase-1 coalition
/// `n`-ish times, which against a *non-cached* utility used to silently
/// re-train models far past the `γ` budget. With the memo, exactly `γ`
/// evaluations reach the utility whether or not it is wrapped in a
/// [`crate::utility::CachedUtility`].
type ValueMemo = HashMap<u128, f64>;

/// How the partially-sampled stratum `k*` is normalised (see "Deviations
/// from the paper" in ARCHITECTURE.md).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum IpssWeighting {
    /// Stratified mean over the sampled pairs — unbiased for the stratum
    /// and identical to the paper's formula whenever the stratum is fully
    /// covered (as in the paper's Example 3). Default.
    #[default]
    StratifiedMean,
    /// The literal line-16 weight `1/C(n−1, k*)` applied to the partial
    /// stratum sum; underestimates the stratum when coverage is partial.
    PaperLiteral,
}

/// Configuration for [`ipss`].
#[derive(Clone, Debug)]
pub struct IpssConfig {
    /// Total sampling rounds `γ` — the budget of distinct FL train+evaluate
    /// cycles. Must be at least 1 (`∅` alone) and is typically chosen per
    /// Table III (`n=3→5`, `n=6→8`, `n=10→32`) or `n·log n` at scale.
    pub gamma: usize,
    /// Normalisation of the sampled stratum.
    pub weighting: IpssWeighting,
}

impl IpssConfig {
    pub fn new(gamma: usize) -> Self {
        IpssConfig {
            gamma,
            weighting: IpssWeighting::StratifiedMean,
        }
    }

    pub fn with_weighting(mut self, weighting: IpssWeighting) -> Self {
        self.weighting = weighting;
        self
    }
}

/// Detailed outcome of an IPSS run.
#[derive(Clone, Debug)]
pub struct IpssOutcome {
    /// Estimated data values `ϕ̂_1..ϕ̂_n`.
    pub values: Vec<f64>,
    /// The exhaustive-phase cut-off `k*` (line 1).
    pub k_star: usize,
    /// Coalitions evaluated in phase 1 (`Σ_{j≤k*} C(n,j)`).
    pub exhaustive_evaluations: u128,
    /// The balanced sample `P` of size-(k*+1) coalitions (line 8).
    pub sampled: Vec<Coalition>,
}

/// Compute `k* = max{k ∈ ℕ : Σ_{j=0}^{k} C(n, j) ≤ γ}` (Alg. 3 line 1).
///
/// Returns `None` when even `∅` does not fit the budget (`γ = 0`).
pub fn compute_k_star(n: usize, gamma: usize) -> Option<usize> {
    if gamma == 0 {
        return None;
    }
    let mut k_star = None;
    for k in 0..=n {
        if subsets_up_to(n, k) <= gamma as u128 {
            k_star = Some(k);
        } else {
            break;
        }
    }
    k_star
}

/// How the pruned schedule weights a marginal pair of a given size.
#[derive(Clone, Copy)]
enum PrunedWeights {
    /// Shapley weights `1/(n·C(n−1, |S|))` (IPSS).
    Shapley(IpssWeighting),
    /// Banzhaf weights `1/2^{n−1}`; the sampled stratum's mean is scaled
    /// by the stratum's mass `C(n−1, k*)`.
    Banzhaf,
}

/// The pruned schedule of Alg. 3 as a [`Sampler`], parameterised by the
/// pair weights so it serves IPSS (both [`IpssWeighting`]s) and pruned
/// Banzhaf.
///
/// **Schedule.** One batch per exhaustive stratum of size `0..=k*`, then
/// the sample of size-`(k*+1)` coalitions: without a planner the whole
/// balanced sample is drawn at once and handed out as one batch, or in
/// chunks of `n` at snapshot granularity; with a planner it is drawn in
/// rounds of [`AdaptivePolicy::round`]`(n)`, each steered toward
/// per-client coverage targets `w_i·σ_i` (`w_i = 1/n`, unknown variances
/// scored optimistically) so high-variance clients land in more
/// coalitions — equal targets degenerate to the coverage-balanced rule.
/// Phase 1 is exhaustive: there is nothing to steer.
///
/// **Fold.** Lines 15–17 over the completed strata plus the evaluated
/// part of the sample. CI: a completed exhaustive stratum is enumerated,
/// not sampled — its term is exactly 0; a scheduled but pending stratum
/// is unbounded (`∞`, never NaN), which deliberately keeps a `CiAtMost`
/// rule from firing mid-phase-1; the sampled stratum is one per-client
/// [`Welford`] component with finite-population correction over its
/// `C(n−1, k*)` pairs, unbounded until observations land. Strata above
/// `k*+1` are truncated by construction (the pruning bias of Theorem 3)
/// and contribute no term.
///
/// The fold is incremental and only ever appends. Exhaustive strata
/// arrive whole and in size order, so each is added once, mask by mask,
/// to a per-client exhaustive `φ` kept between folds: the same `+=`
/// sequence a fold from scratch makes. The sample's partners all lie in
/// phase 1, so each newly handed-out chunk appends to the per-client sums
/// and [`Welford`]s. A fold copies the exhaustive `φ` and adds the
/// sampled stratum's terms.
pub struct PrunedSampler<'r, R: Rng + ?Sized> {
    n: usize,
    k_star: usize,
    weights: PrunedWeights,
    /// Size-`(k*+1)` coalitions the sample will hold once complete.
    phase2_total: usize,
    /// The planner and its round size, when the sample is re-planned.
    planner: Option<(AllocationPlanner, usize)>,
    rng: &'r mut R,
    memo: ValueMemo,
    /// Exhaustive strata handed out so far (sizes `0..strata_out`).
    strata_out: usize,
    /// The sample drawn so far, and how much of it has been handed out.
    sampled: Vec<Coalition>,
    handed: usize,
    /// Planned rounds' draw state: coalitions taken, per-client coverage.
    chosen: HashSet<u128>,
    coverage: Vec<u32>,
    exhausted: bool,
    /// `φ` over the exhaustive strata folded so far (sizes
    /// `0..strata_folded`).
    exhaustive: Vec<f64>,
    strata_folded: usize,
    /// Per-client sums and [`Welford`]s over the folded prefix of the
    /// sample (`sampled[..sample_folded]`); the Welfords are the `σ_i`
    /// the planner steers by.
    sums: Vec<f64>,
    accs: Vec<Welford>,
    sample_folded: usize,
    /// Contributions the fold has pushed.
    #[cfg(test)]
    pushes: usize,
}

impl<'r, R: Rng + ?Sized> PrunedSampler<'r, R> {
    /// IPSS over an `n`-client game; `policy` re-plans the phase-2
    /// coverage each round.
    pub fn for_ipss(
        n: usize,
        cfg: &IpssConfig,
        policy: Option<&AdaptivePolicy>,
        rng: &'r mut R,
    ) -> Self {
        assert!(cfg.gamma >= 1, "IPSS needs a budget of at least 1");
        let weights = PrunedWeights::Shapley(cfg.weighting);
        Self::new(n, cfg.gamma, weights, policy, rng)
    }

    /// Pruned Banzhaf over an `n`-client game with budget `gamma`.
    pub fn for_banzhaf(n: usize, gamma: usize, rng: &'r mut R) -> Self {
        assert!(gamma >= 1, "pruned Banzhaf needs a budget of at least 1");
        Self::new(n, gamma, PrunedWeights::Banzhaf, None, rng)
    }

    fn new(
        n: usize,
        gamma: usize,
        weights: PrunedWeights,
        policy: Option<&AdaptivePolicy>,
        rng: &'r mut R,
    ) -> Self {
        assert!(n >= 1);
        let Some(k_star) = compute_k_star(n, gamma) else {
            unreachable!("the constructors require γ ≥ 1, which affords U(∅)")
        };
        let phase2_total = if k_star < n {
            let left = gamma as u128 - subsets_up_to(n, k_star);
            left.min(binom_u128(n, k_star + 1)) as usize
        } else {
            0
        };
        PrunedSampler {
            n,
            k_star,
            weights,
            phase2_total,
            planner: policy.map(|p| (AllocationPlanner::new(*p), p.round(n))),
            rng,
            memo: ValueMemo::new(),
            strata_out: 0,
            sampled: Vec::new(),
            handed: 0,
            chosen: HashSet::new(),
            coverage: vec![0; n],
            exhausted: false,
            exhaustive: vec![0.0; n],
            strata_folded: 0,
            sums: vec![0.0; n],
            accs: vec![Welford::new(); n],
            sample_folded: 0,
            #[cfg(test)]
            pushes: 0,
        }
    }

    /// The draw routine: grow the sample of size-`(k*+1)` coalitions —
    /// the whole balanced sample under the fixed plan, one
    /// coverage-steered round under a planner.
    fn draw(&mut self) {
        let (n, size) = (self.n, self.k_star + 1);
        let left = self.phase2_total - self.sampled.len();
        let new = match &self.planner {
            None => balanced_subsets_of_size(n, size, left, self.rng),
            Some((planner, round)) => {
                let components: Vec<ComponentState> = (0..n)
                    .map(|i| {
                        let covered = self.coverage[i] as usize;
                        ComponentState::observed(1.0 / n as f64, &self.accs[i], covered, usize::MAX)
                    })
                    .collect();
                weighted_balanced_subsets_extending(
                    n,
                    size,
                    (*round).min(left),
                    &planner.scores(&components),
                    &mut self.chosen,
                    &mut self.coverage,
                    self.rng,
                )
            }
        };
        self.exhausted = new.is_empty();
        self.sampled.extend(new);
    }

    fn into_outcome(self, values: Vec<f64>) -> IpssOutcome {
        IpssOutcome {
            values,
            k_star: self.k_star,
            exhaustive_evaluations: subsets_up_to(self.n, self.k_star),
            sampled: self.sampled,
        }
    }
}

impl<R: Rng + ?Sized> Sampler for PrunedSampler<'_, R> {
    fn next_batch(&mut self, fine: bool) -> Vec<Coalition> {
        if self.strata_out <= self.k_star {
            self.strata_out += 1;
            return subsets_of_size(self.n, self.strata_out - 1).collect();
        }
        if self.handed == self.sampled.len() {
            self.draw();
        }
        // A planned round goes out whole; so does the fixed plan's sample,
        // except in chunks of n at snapshot granularity.
        let mut end = self.sampled.len();
        if fine && self.planner.is_none() {
            end = end.min(self.handed + self.n);
        }
        let batch = self.sampled[self.handed..end].to_vec();
        self.handed = end;
        batch
    }

    fn absorb(&mut self, batch: &[Coalition], values: Vec<f64>) {
        self.memo.extend(batch.iter().map(|s| s.0).zip(values));
    }

    fn is_complete(&self) -> bool {
        self.strata_out > self.k_star
            && self.handed == self.sampled.len()
            && (self.sampled.len() >= self.phase2_total || self.exhausted)
    }

    fn fold(&mut self) -> (Vec<f64>, Vec<f64>) {
        let (n, k_star, weights) = (self.n, self.k_star, self.weights);
        let memo = &self.memo;
        let value = |s: Coalition| memo[&s.0]; // pairs are evaluated before they fold
        let inv_n = 1.0 / n as f64;
        let inv_binom: Vec<f64> = (0..n).map(|s| 1.0 / binom(n - 1, s)).collect();
        let inv_denom = 1.0 / (1u128 << (n - 1)) as f64;

        // Exhaustively covered strata: pairs (S, S∪{i}) with |S∪{i}| ≤ k*.
        // Each full stratum contributes its exact weighted marginal sum.
        for t_size in self.strata_folded.max(1)..self.strata_out {
            let w = match weights {
                PrunedWeights::Shapley(_) => inv_n * inv_binom[t_size - 1],
                PrunedWeights::Banzhaf => inv_denom,
            };
            for t in subsets_of_size(n, t_size) {
                let ut = value(t);
                for i in t.members() {
                    self.exhaustive[i] += (ut - value(t.without(i))) * w;
                    #[cfg(test)]
                    {
                        self.pushes += 1;
                    }
                }
            }
        }
        self.strata_folded = self.strata_out;

        // Sampled stratum k*: pairs (S, S∪{i}) with S∪{i} in the evaluated
        // part of the sample; U(S) is known from phase 1.
        for &t in &self.sampled[self.sample_folded..self.handed] {
            let ut = value(t);
            for i in t.members() {
                let contribution = ut - value(t.without(i));
                self.sums[i] += contribution;
                self.accs[i].push(contribution);
                #[cfg(test)]
                {
                    self.pushes += 1;
                }
            }
        }
        self.sample_folded = self.handed;

        let (sums, accs) = (&self.sums, &self.accs);
        let mass = binom(n - 1, k_star); // pairs t ∋ i, |t| = k*+1
        let mut phi = self.exhaustive.clone();
        if self.handed > 0 {
            for i in 0..n {
                let count = accs[i].count();
                match weights {
                    PrunedWeights::Shapley(IpssWeighting::PaperLiteral) => {
                        phi[i] += sums[i] * (inv_n * inv_binom[k_star]);
                    }
                    _ if count == 0 => {}
                    PrunedWeights::Shapley(IpssWeighting::StratifiedMean) => {
                        phi[i] += inv_n * sums[i] / count as f64;
                    }
                    // Scale the stratum mean by the stratum's mass so the
                    // estimate matches the exact stratum sum in expectation.
                    PrunedWeights::Banzhaf => {
                        phi[i] += mass * (sums[i] / count as f64) * inv_denom;
                    }
                }
            }
        }

        let ci_halfwidths = (0..n)
            .map(|i| {
                let done = (1..=k_star).map(|t_size| (t_size < self.strata_out).then_some(0.0));
                halfwidth(done.chain((self.phase2_total > 0).then(|| {
                    let weight = match weights {
                        PrunedWeights::Shapley(IpssWeighting::StratifiedMean) => inv_n,
                        // var(w'·Σ) = (w'·m)²·s²/m — the estimator is a
                        // weighted *sum*, not a mean.
                        PrunedWeights::Shapley(IpssWeighting::PaperLiteral) => {
                            inv_n * inv_binom[k_star] * accs[i].count() as f64
                        }
                        PrunedWeights::Banzhaf => mass * inv_denom,
                    };
                    component_variance(&accs[i], weight, mass)
                })))
            })
            .collect();
        (phi, ci_halfwidths)
    }

    fn allocation(&self) -> Option<Vec<usize>> {
        self.planner
            .as_ref()
            .map(|_| self.coverage.iter().map(|&c| c as usize).collect())
    }
}

/// Alg. 3 — Importance-Pruned Stratified Sampling.
pub fn ipss<U: Utility + ?Sized, R: Rng + ?Sized>(
    u: &U,
    cfg: &IpssConfig,
    rng: &mut R,
) -> IpssOutcome {
    let mut sampler = PrunedSampler::for_ipss(u.n_clients(), cfg, None, rng);
    let values = drive(u, &mut sampler, None).values;
    sampler.into_outcome(values)
}

/// Convenience wrapper returning only the estimated values.
pub fn ipss_values<U: Utility + ?Sized, R: Rng + ?Sized>(
    u: &U,
    cfg: &IpssConfig,
    rng: &mut R,
) -> Vec<f64> {
    ipss(u, cfg, rng).values
}

/// Anytime Alg. 3: [`ipss`] observed after each exhaustive stratum and
/// each phase-2 chunk ([`PrunedSampler`] documents the schedule and the
/// CI); `observe` may return [`Control::Stop`]. With a `policy` the
/// phase-2 coverage is re-planned each round and
/// [`ProgressSnapshot::allocation`] carries the cumulative per-client
/// coverage (all zeros during phase 1).
pub fn ipss_streaming<U, R, F>(
    u: &U,
    cfg: &IpssConfig,
    policy: Option<&AdaptivePolicy>,
    rng: &mut R,
    mut observe: F,
) -> StreamingOutcome
where
    U: Utility + ?Sized,
    R: Rng + ?Sized,
    F: FnMut(&ProgressSnapshot) -> Control,
{
    let mut sampler = PrunedSampler::for_ipss(u.n_clients(), cfg, policy, rng);
    drive(u, &mut sampler, Some(&mut observe))
}

#[cfg(test)]
// Tests assert invariants; an unwrap that trips IS the test failing.
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use crate::exact::exact_mc_sv;
    use crate::metrics::l2_relative_error;
    use crate::sampler::oracle::{self, Historical};
    use crate::sampling::coverage_counts;
    use crate::utility::{CachedUtility, HashUtility, SaturatingUtility, TableUtility};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    impl<R: Rng + ?Sized> Historical for PrunedSampler<'_, R> {
        /// The fold before it became incremental, verbatim but for
        /// returning the per-client Welfords instead of storing them.
        fn historical_fold(&self) -> (Vec<f64>, Vec<f64>, Vec<Welford>) {
            let (n, k_star, weights) = (self.n, self.k_star, self.weights);
            let value = |s: Coalition| self.memo[&s.0]; // pairs are evaluated before they fold
            let inv_n = 1.0 / n as f64;
            let inv_binom: Vec<f64> = (0..n).map(|s| 1.0 / binom(n - 1, s)).collect();
            let inv_denom = 1.0 / (1u128 << (n - 1)) as f64;
            let mut phi = vec![0.0f64; n];

            // Exhaustively covered strata: pairs (S, S∪{i}) with |S∪{i}| ≤ k*.
            // Each full stratum contributes its exact weighted marginal sum.
            for t_size in 1..self.strata_out {
                let w = match weights {
                    PrunedWeights::Shapley(_) => inv_n * inv_binom[t_size - 1],
                    PrunedWeights::Banzhaf => inv_denom,
                };
                for t in subsets_of_size(n, t_size) {
                    let ut = value(t);
                    for i in t.members() {
                        phi[i] += (ut - value(t.without(i))) * w;
                    }
                }
            }

            // Sampled stratum k*: pairs (S, S∪{i}) with S∪{i} in the evaluated
            // part of the sample; U(S) is known from phase 1.
            let mass = binom(n - 1, k_star); // pairs t ∋ i, |t| = k*+1
            let mut accs = vec![Welford::new(); n];
            let prefix = &self.sampled[..self.handed];
            if !prefix.is_empty() {
                let mut sums = vec![0.0f64; n];
                let mut counts = vec![0usize; n];
                for &t in prefix {
                    let ut = value(t);
                    for i in t.members() {
                        let contribution = ut - value(t.without(i));
                        sums[i] += contribution;
                        counts[i] += 1;
                        accs[i].push(contribution);
                    }
                }
                for i in 0..n {
                    match weights {
                        PrunedWeights::Shapley(IpssWeighting::PaperLiteral) => {
                            phi[i] += sums[i] * (inv_n * inv_binom[k_star]);
                        }
                        _ if counts[i] == 0 => {}
                        PrunedWeights::Shapley(IpssWeighting::StratifiedMean) => {
                            phi[i] += inv_n * sums[i] / counts[i] as f64;
                        }
                        // Scale the stratum mean by the stratum's mass so the
                        // estimate matches the exact stratum sum in expectation.
                        PrunedWeights::Banzhaf => {
                            phi[i] += mass * (sums[i] / counts[i] as f64) * inv_denom;
                        }
                    }
                }
            }

            let ci_halfwidths = (0..n)
                .map(|i| {
                    let done = (1..=k_star).map(|t_size| (t_size < self.strata_out).then_some(0.0));
                    halfwidth(done.chain((self.phase2_total > 0).then(|| {
                        let weight = match weights {
                            PrunedWeights::Shapley(IpssWeighting::StratifiedMean) => inv_n,
                            // var(w'·Σ) = (w'·m)²·s²/m — the estimator is a
                            // weighted *sum*, not a mean.
                            PrunedWeights::Shapley(IpssWeighting::PaperLiteral) => {
                                inv_n * inv_binom[k_star] * accs[i].count() as f64
                            }
                            PrunedWeights::Banzhaf => mass * inv_denom,
                        };
                        component_variance(&accs[i], weight, mass)
                    })))
                })
                .collect();
            (phi, ci_halfwidths, accs)
        }

        fn planner_welfords(&self) -> Option<Vec<Welford>> {
            Some(self.accs.clone())
        }

        fn pushes(&self) -> usize {
            self.pushes
        }

        fn contributions(&self) -> usize {
            let exhaustive: u128 = (1..self.strata_out)
                .map(|t_size| binom_u128(self.n, t_size) * t_size as u128)
                .sum();
            exhaustive as usize + self.accs.iter().map(Welford::count).sum::<usize>()
        }
    }

    #[test]
    fn incremental_fold_is_bit_identical_to_the_historical_fold() {
        // n ∈ {1, 2, 3, 6, 8, 12} × a budget below, at and above 2^n ×
        // IPSS (both weightings: uniform, default-adaptive, eager-adaptive)
        // and pruned Banzhaf × unobserved and observed. A planner cuts at
        // planned rounds either way, so adaptive runs are observed only.
        let eager = AdaptivePolicy {
            round_size: Some(5),
            min_observations: 3,
            floor: 2,
        };
        let policies = [None, Some(AdaptivePolicy::default()), Some(eager)];
        for n in [1usize, 2, 3, 6, 8, 12] {
            let u = HashUtility {
                n,
                seed: 60 + n as u64,
            };
            let full = 1usize << n;
            for gamma in [full / 2, full, 2 * full] {
                let seed = (n * 100_000 + gamma) as u64;
                let (mut r1, mut r2) = (StdRng::seed_from_u64(seed), StdRng::seed_from_u64(seed));
                for observed in [false, true] {
                    oracle::check(
                        &u,
                        observed,
                        PrunedSampler::for_banzhaf(n, gamma, &mut r1),
                        PrunedSampler::for_banzhaf(n, gamma, &mut r2),
                    );
                    for weighting in [IpssWeighting::StratifiedMean, IpssWeighting::PaperLiteral] {
                        let cfg = IpssConfig::new(gamma).with_weighting(weighting);
                        for policy in &policies {
                            if policy.is_some() && !observed {
                                continue;
                            }
                            oracle::check(
                                &u,
                                observed,
                                PrunedSampler::for_ipss(n, &cfg, policy.as_ref(), &mut r1),
                                PrunedSampler::for_ipss(n, &cfg, policy.as_ref(), &mut r2),
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn streamed_fold_pushes_each_contribution_once() {
        // Streamed IPSS on n = 12 with γ = 2000: six exhaustive strata
        // (k* = 5) and 414 size-6 coalitions in 35 chunks of 12. The last
        // fold holds 9 228 contributions. The from-scratch fold re-walked
        // the phase-1 strata and the sample at each of the 41 folds and
        // pushed 291 852 (`from_scratch` below); the incremental fold
        // pushes each contribution once.
        let n = 12;
        let u = HashUtility { n, seed: 4 };
        let mut rng = StdRng::seed_from_u64(9);
        let mut s = PrunedSampler::for_ipss(n, &IpssConfig::new(2000), None, &mut rng);
        let mut from_scratch = 0;
        loop {
            let batch = s.next_batch(true);
            s.absorb(&batch, u.eval_batch(&batch));
            s.fold();
            from_scratch += s.contributions();
            if s.is_complete() {
                break;
            }
        }
        let (pushes, last) = (s.pushes(), s.contributions());
        assert_eq!(pushes, last);
        assert!(pushes * 10 <= from_scratch, "{pushes} vs {from_scratch}");
    }

    #[test]
    fn k_star_matches_definition() {
        // n = 4, γ = 10: Σ_{j≤1} C(4,j) = 5 ≤ 10 < Σ_{j≤2} = 11 ⇒ k* = 1
        // (the paper's Example 3).
        assert_eq!(compute_k_star(4, 10), Some(1));
        assert_eq!(compute_k_star(4, 11), Some(2));
        assert_eq!(compute_k_star(4, 16), Some(4));
        assert_eq!(compute_k_star(4, 1), Some(0));
        assert_eq!(compute_k_star(4, 0), None);
        assert_eq!(compute_k_star(10, 32), Some(1)); // Table III: n=10, γ=32
        assert_eq!(compute_k_star(3, 5), Some(1)); // Table III: n=3, γ=5
        assert_eq!(compute_k_star(6, 8), Some(1)); // Table III: n=6, γ=8
    }

    #[test]
    fn example3_structure() {
        // Reproduce Example 3's phase structure: n = 4, γ = 10, k* = 1,
        // 5 exhaustive evaluations and 5 sampled pairs of size 2.
        let u = CachedUtility::new(TableUtility::from_fn(4, |s| {
            0.1 + 0.85 * (1.0 - (-0.9 * s.size() as f64).exp())
        }));
        let mut rng = StdRng::seed_from_u64(7);
        let out = ipss(&u, &IpssConfig::new(10), &mut rng);
        assert_eq!(out.k_star, 1);
        assert_eq!(out.exhaustive_evaluations, 5);
        assert_eq!(out.sampled.len(), 5);
        assert!(out.sampled.iter().all(|s| s.size() == 2));
        assert_eq!(u.stats().evaluations, 10, "exactly γ evaluations");
        // Balanced coverage: 5 pairs over 4 clients ⇒ spread ≤ 1.
        let cov = coverage_counts(4, &out.sampled);
        assert!(crate::sampling::coverage_spread(&cov) <= 1);
    }

    #[test]
    fn budget_is_respected() {
        for gamma in [1usize, 5, 17, 64, 200] {
            let u = CachedUtility::new(HashUtility { n: 8, seed: 2 });
            let mut rng = StdRng::seed_from_u64(3);
            let _ = ipss(&u, &IpssConfig::new(gamma), &mut rng);
            assert!(
                u.stats().evaluations <= gamma.min(256),
                "γ={gamma}: {} evals",
                u.stats().evaluations
            );
        }
    }

    #[test]
    fn full_budget_is_exact() {
        let u = TableUtility::paper_table1();
        let mut rng = StdRng::seed_from_u64(5);
        let out = ipss(&u, &IpssConfig::new(8), &mut rng);
        assert_eq!(out.k_star, 3);
        let exact = exact_mc_sv(&u);
        for (a, e) in out.values.iter().zip(&exact) {
            assert!((a - e).abs() < 1e-12);
        }
    }

    #[test]
    fn ipss_beats_truncation_error_bound_on_saturating_utility() {
        // On a concave utility with 10 clients and γ = 32 (Table III), the
        // error should be small — the key-combinations phenomenon. The
        // truncated strata s ≥ 2 together carry only gain·e^{−2·rate} of
        // the total value, ≈ 9% at rate = 1.2.
        let u = SaturatingUtility::uniform(10, 0.1, 0.85, 1.2);
        let exact = exact_mc_sv(&u);
        let mut rng = StdRng::seed_from_u64(11);
        let approx = ipss_values(&u, &IpssConfig::new(32), &mut rng);
        let err = l2_relative_error(&approx, &exact);
        assert!(err < 0.12, "relative error {err} too large");
    }

    #[test]
    fn weighting_modes_agree_when_stratum_fully_covered() {
        // γ large enough that the (k*+1) stratum is fully sampled: the
        // stratified mean equals the paper-literal weight.
        let u = TableUtility::paper_table1();
        // n=3: Σ_{j≤1} = 4; γ = 7 covers all C(3,2)=3 pairs of size 2.
        let mut r1 = StdRng::seed_from_u64(1);
        let mut r2 = StdRng::seed_from_u64(1);
        let a = ipss_values(&u, &IpssConfig::new(7), &mut r1);
        let b = ipss_values(
            &u,
            &IpssConfig::new(7).with_weighting(IpssWeighting::PaperLiteral),
            &mut r2,
        );
        for (x, y) in a.iter().zip(&b) {
            assert!((x - y).abs() < 1e-12, "{a:?} vs {b:?}");
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let u = HashUtility { n: 9, seed: 4 };
        let a = ipss_values(&u, &IpssConfig::new(20), &mut StdRng::seed_from_u64(42));
        let b = ipss_values(&u, &IpssConfig::new(20), &mut StdRng::seed_from_u64(42));
        assert_eq!(a, b);
    }

    #[test]
    fn uncached_utility_sees_exactly_gamma_evaluations() {
        // Regression: the estimation pass used to re-evaluate every
        // phase-1 coalition through the utility, so a *plain* (uncached)
        // utility was silently trained far past the γ budget. The internal
        // memo must hold the count to exactly γ.
        use std::sync::atomic::{AtomicUsize, Ordering};
        struct Counting {
            inner: HashUtility,
            calls: AtomicUsize,
        }
        impl crate::utility::Utility for Counting {
            fn n_clients(&self) -> usize {
                self.inner.n
            }
            fn eval(&self, s: crate::coalition::Coalition) -> f64 {
                self.calls.fetch_add(1, Ordering::Relaxed);
                self.inner.eval(s)
            }
        }
        // k* < n for every γ here, so the budget is consumed in full:
        // phase 1 spends Σ_{j≤k*} C(8,j) and phase 2 exactly the rest.
        for gamma in [1usize, 5, 9, 10, 36, 37, 40, 93, 200] {
            let u = Counting {
                inner: HashUtility { n: 8, seed: 6 },
                calls: AtomicUsize::new(0),
            };
            let mut rng = StdRng::seed_from_u64(13);
            let _ = ipss(&u, &IpssConfig::new(gamma), &mut rng);
            assert_eq!(
                u.calls.load(Ordering::Relaxed),
                gamma,
                "γ = {gamma} must hit the utility exactly γ times"
            );
        }
    }

    #[test]
    fn parallel_fan_out_is_bit_identical_to_serial() {
        // Same seed ⇒ identical estimates with 1, 2 and 8 rayon threads,
        // and identical to the plain serial utility.
        use crate::utility::ParallelUtility;
        let base = HashUtility { n: 10, seed: 21 };
        let cfg = IpssConfig::new(40);
        let serial = ipss_values(&base, &cfg, &mut StdRng::seed_from_u64(77));
        for threads in [1usize, 2, 8] {
            let par = ParallelUtility::with_num_threads(base.clone(), threads);
            let got = ipss_values(&par, &cfg, &mut StdRng::seed_from_u64(77));
            assert_eq!(got, serial, "thread count {threads}");
        }
    }

    #[test]
    fn streaming_stopped_run_equals_full_run_prefix() {
        use crate::anytime::Control;
        let u = HashUtility { n: 8, seed: 7 };
        let cfg = IpssConfig::new(60);
        let mut snapshots = Vec::new();
        let _ = ipss_streaming(&u, &cfg, None, &mut StdRng::seed_from_u64(2), |s| {
            snapshots.push(s.clone());
            Control::Continue
        });
        for stop_after in [1usize, 3, snapshots.len() - 1] {
            let out = ipss_streaming(&u, &cfg, None, &mut StdRng::seed_from_u64(2), |s| {
                if s.batches_done >= stop_after {
                    Control::Stop
                } else {
                    Control::Continue
                }
            });
            assert!(out.stopped_early);
            let want = &snapshots[stop_after - 1];
            assert_eq!(out.values, want.values, "stop_after={stop_after}");
            assert_eq!(out.ci_halfwidths, want.ci_halfwidths);
            assert_eq!(out.samples_used, want.samples_used);
        }
    }

    #[test]
    fn streaming_ci_is_unbounded_during_phase_one_and_finite_in_phase_two() {
        use crate::anytime::Control;
        let u = HashUtility { n: 8, seed: 9 };
        // γ = 92: k* = 2 (1+8+28 = 37 ≤ 92 < 93), 55 phase-2 samples of
        // size 3 in chunks of n = 8.
        let cfg = IpssConfig::new(92);
        let mut widths = Vec::new();
        let out = ipss_streaming(&u, &cfg, None, &mut StdRng::seed_from_u64(6), |s| {
            widths.push(s.max_halfwidth().unwrap_or(f64::INFINITY));
            Control::Continue
        });
        // Phase-1 batches (strata 0, 1, 2): pending strata keep CI at ∞.
        assert!(widths[..3].iter().all(|w| w.is_infinite()), "{widths:?}");
        // The first phase-2 chunk covers every client 3 times (balanced
        // draw), so the CI is already finite there, and near-complete
        // coverage shrinks it further through the finite-population
        // correction.
        assert!(widths[3].is_finite(), "{widths:?}");
        let last = out.ci_halfwidths.iter().cloned().fold(0.0f64, f64::max);
        assert!(last.is_finite() && last < widths[3], "{widths:?}");
        assert!(widths.iter().all(|w| !w.is_nan()));
    }

    #[test]
    fn adaptive_streaming_exposes_coverage_and_spends_the_budget() {
        use crate::anytime::Control;
        let u = CachedUtility::new(HashUtility { n: 8, seed: 5 });
        // γ = 60: k* = 2 (37 ≤ 60 < 93), 23 phase-2 coalitions of size 3.
        let cfg = IpssConfig::new(60);
        let policy = AdaptivePolicy::default();
        let mut allocations = Vec::new();
        let out = ipss_streaming(
            &u,
            &cfg,
            Some(&policy),
            &mut StdRng::seed_from_u64(19),
            |s| {
                let alloc = match &s.allocation {
                    Some(a) => a.clone(),
                    None => panic!("adaptive snapshots must carry the allocation"),
                };
                allocations.push(alloc);
                Control::Continue
            },
        );
        assert!(!out.stopped_early);
        assert_eq!(u.stats().evaluations, 60, "exactly γ evaluations");
        // Phase-1 snapshots report zero coverage; phase 2 grows monotonically
        // to 23 coalitions × 3 members = 69 total coverage.
        assert!(allocations[..3].iter().all(|a| a.iter().all(|&c| c == 0)));
        for w in allocations.windows(2) {
            assert!(w[0].iter().zip(&w[1]).all(|(a, b)| a <= b));
        }
        let last = match allocations.last() {
            Some(a) => a,
            None => panic!("no snapshots observed"),
        };
        assert_eq!(last.iter().sum::<usize>(), 23 * 3);
        assert_eq!(out.allocation.as_ref(), Some(last));
    }

    #[test]
    fn adaptive_streaming_stopped_run_equals_full_run_prefix() {
        use crate::anytime::Control;
        let u = HashUtility { n: 8, seed: 7 };
        let cfg = IpssConfig::new(60);
        let policy = AdaptivePolicy::default();
        let mut snapshots = Vec::new();
        let _ = ipss_streaming(
            &u,
            &cfg,
            Some(&policy),
            &mut StdRng::seed_from_u64(2),
            |s| {
                snapshots.push(s.clone());
                Control::Continue
            },
        );
        for stop_after in [1usize, 4, snapshots.len() - 1] {
            let out = ipss_streaming(
                &u,
                &cfg,
                Some(&policy),
                &mut StdRng::seed_from_u64(2),
                |s| {
                    if s.batches_done >= stop_after {
                        Control::Stop
                    } else {
                        Control::Continue
                    }
                },
            );
            assert!(out.stopped_early);
            let want = &snapshots[stop_after - 1];
            assert_eq!(out.values, want.values, "stop_after={stop_after}");
            assert_eq!(out.ci_halfwidths, want.ci_halfwidths);
            assert_eq!(out.allocation, want.allocation);
        }
    }

    #[test]
    fn large_n_small_budget() {
        // The Fig. 9 regime: n = 100, γ = n·log₂(n) ≈ 664 ⇒ k* = 1.
        let u = CachedUtility::new(SaturatingUtility::uniform(100, 0.1, 0.85, 0.1));
        let gamma = (100.0 * (100.0f64).ln()) as usize; // ≈ 460
        let mut rng = StdRng::seed_from_u64(8);
        let out = ipss(&u, &IpssConfig::new(gamma), &mut rng);
        assert_eq!(out.k_star, 1);
        assert_eq!(u.stats().evaluations, gamma);
        assert_eq!(out.values.len(), 100);
        // Every client must receive a positive value on a monotone utility.
        assert!(out.values.iter().all(|&v| v > 0.0));
    }
}
