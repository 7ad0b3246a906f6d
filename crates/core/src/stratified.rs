//! The unified stratified-sampling approximation framework (Alg. 1).
//!
//! Both SV expressions share a hierarchical structure over coalition sizes
//! (Fig. 2): the data value is an average of per-stratum average
//! contributions. The framework samples `m_k` coalitions from each stratum
//! `S_k`, evaluates their utilities, pairs each sampled coalition with its
//! scheme-specific partner (`S\{i}` for MC-SV, `N\S` for CC-SV) and averages
//! the observed contributions within each stratum.
//!
//! Theorem 1 (unbiasedness) and Theorem 2 (MC-SV has lower variance under
//! FL linear regression) are both about this framework; the corresponding
//! empirical study is Fig. 10, regenerated by the `fig10_variance` bench.
//!
//! [`stratified_sampling`] is the one-shot; an anytime, adaptive or
//! per-stratum run hands a [`StratifiedSampler`] to [`drive`] itself. The
//! sampler keeps the [`Sampler`] contract of [`crate::sampler`]:
//! randomness is consumed only while drawing, the fold runs stratum-major
//! over the drawn schedule, and snapshots are pure in the evaluated
//! prefix.

use std::collections::{HashMap, HashSet};

use rand::Rng;

use crate::adaptive::{AdaptivePolicy, AllocationPlanner, ComponentState};
use crate::anytime::{component_variance, halfwidth, Welford};
use crate::coalition::{binom, binom_u128, Coalition, MaskHash};
use crate::sampler::{drive, Sampler};
use crate::sampling::distinct_subsets_extending;
use crate::utility::Utility;

/// Which of the two equivalent SV computation schemes the framework uses.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Scheme {
    /// Marginal-contribution pairing: sampled `S ∋ i` pairs with `S\{i}`.
    MarginalContribution,
    /// Complementary-contribution pairing: sampled `S ∋ i` pairs with `N\S`.
    ComplementaryContribution,
}

/// Per-stratum sampling budget for Alg. 1.
#[derive(Clone, Debug)]
pub struct StratifiedConfig {
    /// `rounds_per_stratum[k-1] = m_k` — coalitions sampled from stratum
    /// `S_k` (all coalitions of size `k`), for `k = 1..=n`.
    pub rounds_per_stratum: Vec<usize>,
}

impl StratifiedConfig {
    /// Spread a total budget `γ` as evenly as possible over the `n` strata
    /// (earlier strata receive the remainder first), the allocation used by
    /// the paper's experiments when comparing schemes at equal `γ`.
    pub fn uniform(n: usize, gamma: usize) -> Self {
        assert!(n >= 1);
        let base = gamma / n;
        let rem = gamma % n;
        let rounds = (0..n).map(|k| base + usize::from(k < rem)).collect();
        StratifiedConfig {
            rounds_per_stratum: rounds,
        }
    }

    /// Explicit per-stratum budgets.
    pub fn explicit(rounds_per_stratum: Vec<usize>) -> Self {
        StratifiedConfig { rounds_per_stratum }
    }

    /// Total sampling rounds `γ = Σ_k m_k`.
    pub fn total_rounds(&self) -> usize {
        self.rounds_per_stratum.iter().sum()
    }
}

/// Alg. 1 as a [`Sampler`]: per-stratum draws without replacement and a
/// stratum-major prefix fold.
///
/// **Schedule.** Without a planner the whole budget is drawn in the first
/// round and handed out as one batch (`∅` first), or — at snapshot
/// granularity — as round-robin rows: row `r` holds the `r`-th sample of
/// every stratum (row 0 also carries `∅`), so every stratum accumulates
/// observations early and the CI turns finite as soon as possible. With
/// a planner each round's per-stratum draw counts are Neyman-allocated
/// from the pooled per-stratum contribution variances (`W_k = 1/n`,
/// capacity `C(n, k)`); the run still draws `cfg.total_rounds()`
/// coalitions — only the split across strata moves, and homoscedastic
/// problems degenerate to [`StratifiedConfig::uniform`].
///
/// **Fold.** Lines 9–17 of Alg. 1 over the drawn schedule, counting a
/// pair only when both members have been evaluated. CI: each sampled
/// stratum is one component per client ([`Welford`], weight `1/n`,
/// finite-population correction over `C(n−1, k−1)` pairs); zero-budget
/// strata contribute no term.
///
/// The fold is incremental. Each fold takes the coalitions evaluated since
/// the previous one and folds every pair they complete into its (client,
/// stratum) lane at its canonical place, the sampled coalition's position
/// in draw order. Most land at the lane's tail. A pair whose partner was
/// evaluated in a later batch lands behind it: an MC `S\{i}` handed out in
/// a later row or drawn in a later round, or a CC complement drawn or
/// handed out later. It is inserted in place and its lane re-folds from
/// its first entry at this fold, so every snapshot stays bit-identical to
/// a fold from scratch. The pooled lanes the planner reads are kept only
/// under a planner.
pub struct StratifiedSampler<'r, R: Rng + ?Sized> {
    n: usize,
    scheme: Scheme,
    /// The fixed plan's budgets; a planner re-splits their total.
    budgets: Vec<usize>,
    /// The planner and its round size, when rounds are re-planned.
    planner: Option<(AllocationPlanner, usize)>,
    rng: &'r mut R,
    sampled: Vec<Vec<Coalition>>,
    sampled_masks: Vec<HashSet<u128, MaskHash>>,
    /// Folded coalitions' positions in their stratum's draw order, for
    /// placing the pairs later partners complete.
    positions: HashMap<u128, usize, MaskHash>,
    memo: HashMap<u128, f64, MaskHash>,
    /// Per stratum, how many drawn coalitions the fold has taken (a
    /// prefix of `sampled[k]`, all evaluated).
    folded: Vec<usize>,
    /// `lanes[i][k-1]`: client `i`'s matched contributions in stratum `k`.
    lanes: Vec<Vec<Lane<usize>>>,
    /// Every matched contribution of stratum `k` in fold order — the
    /// `σ_k` the planner steers by. Empty without a planner.
    pooled: Vec<Lane<(usize, usize)>>,
    /// Round-robin rows handed out so far.
    rows_out: usize,
}

/// One component's contributions in canonical order, with the running sum
/// and [`Welford`] over them. A contribution at the tail is folded in at
/// once; one that belongs behind it marks the lane stale, and the next
/// settle re-folds the lane from its first entry.
#[derive(Clone, Debug, Default)]
struct Lane<K> {
    entries: Vec<(K, f64)>,
    sum: f64,
    acc: Welford,
    stale: bool,
    /// Contributions folded into `sum` and `acc` so far, re-folds included.
    #[cfg(test)]
    pushes: usize,
}

impl<K: Ord + Copy> Lane<K> {
    /// Place contribution `x` at `key`'s canonical position.
    fn add(&mut self, key: K, x: f64) {
        // An arrival past the last key, the usual case, needs no search.
        if self.entries.last().is_none_or(|e| e.0 < key) {
            self.entries.push((key, x));
        } else {
            let at = self.entries.partition_point(|e| e.0 < key);
            self.entries.insert(at, (key, x));
            self.stale = true;
        }
        if !self.stale {
            self.push(x);
        }
    }

    fn push(&mut self, x: f64) {
        self.sum += x;
        self.acc.push(x);
        #[cfg(test)]
        {
            self.pushes += 1;
        }
    }

    /// Re-fold a stale lane in canonical order.
    fn settle(&mut self) {
        if std::mem::take(&mut self.stale) {
            (self.sum, self.acc) = (0.0, Welford::new());
            for j in 0..self.entries.len() {
                self.push(self.entries[j].1);
            }
        }
    }

    fn count(&self) -> usize {
        self.entries.len()
    }
}

impl<'r, R: Rng + ?Sized> StratifiedSampler<'r, R> {
    /// A sampler for an `n`-client game. `policy` switches the fixed
    /// plan `cfg` to per-round Neyman re-planning of `cfg`'s total.
    pub fn new(
        n: usize,
        scheme: Scheme,
        cfg: &StratifiedConfig,
        policy: Option<&AdaptivePolicy>,
        rng: &'r mut R,
    ) -> Self {
        assert!(n >= 1);
        assert_eq!(
            cfg.rounds_per_stratum.len(),
            n,
            "need one sampling budget per stratum (got {} for n={n})",
            cfg.rounds_per_stratum.len()
        );
        StratifiedSampler {
            n,
            scheme,
            budgets: cfg.rounds_per_stratum.clone(),
            planner: policy.map(|p| (AllocationPlanner::new(*p), p.round(n))),
            rng,
            sampled: vec![Vec::new(); n],
            sampled_masks: vec![HashSet::default(); n],
            positions: HashMap::default(),
            memo: HashMap::default(),
            folded: vec![0; n],
            lanes: vec![vec![Lane::default(); n]; n],
            pooled: vec![Lane::default(); if policy.is_some() { n } else { 0 }],
            rows_out: 0,
        }
    }

    /// The draw routine: extend stratum `k`'s sample by `plan[k-1]` new
    /// distinct coalitions, consuming the RNG stratum-major.
    fn draw(&mut self, plan: &[usize]) -> Vec<Coalition> {
        let mut new = Vec::with_capacity(plan.iter().sum());
        for (kidx, &m) in plan.iter().enumerate() {
            let masks = &mut self.sampled_masks[kidx];
            let drawn = distinct_subsets_extending(self.n, kidx + 1, m, masks, self.rng);
            new.extend_from_slice(&drawn);
            self.sampled[kidx].extend(drawn);
        }
        new
    }

    /// Fold in every pair the coalitions evaluated since the last fold
    /// complete, then settle the lanes that moved.
    fn advance(&mut self) {
        // Positions serve later folds only; the one that completes the
        // schedule has none.
        let last = self.is_complete();
        let (n, scheme) = (self.n, self.scheme);
        let mc = scheme == Scheme::MarginalContribution;
        let partner = |s: Coalition, i: usize| match scheme {
            Scheme::MarginalContribution => s.without(i),
            Scheme::ComplementaryContribution => s.complement(n),
        };
        let Self {
            sampled,
            positions,
            memo,
            folded,
            lanes,
            pooled,
            ..
        } = self;
        let mut add = |kidx: usize, p: usize, i: usize, x: f64| {
            lanes[i][kidx].add(p, x);
            if let Some(pooled) = pooled.get_mut(kidx) {
                pooled.add((p, i), x);
            }
        };
        // Everything handed out has been absorbed: each stratum's
        // handed-out tail is what the fold has not taken yet.
        let handed: Vec<usize> = sampled.iter().map(|s| s.len().min(self.rows_out)).collect();
        for (kidx, &end) in handed.iter().enumerate() {
            for (p, &s) in sampled[kidx]
                .iter()
                .enumerate()
                .take(end)
                .skip(folded[kidx])
            {
                let us = memo[&s.0];
                if !last {
                    positions.insert(s.0, p);
                }
                // `s` completes its own pairs whose partner is in, ...
                for i in s.members() {
                    if let Some(&upair) = memo.get(&partner(s, i).0) {
                        add(kidx, p, i, us - upair);
                    }
                }
                // ... and those of coalitions an earlier fold took whose
                // partner it is: its MC supersets or its CC complement.
                let supersets = s.complement(n).members().filter(|_| mc).map(|j| s.with(j));
                for t in supersets.chain((!mc).then(|| s.complement(n))) {
                    let Some(tk) = t.size().checked_sub(1).filter(|&k| folded[k] > 0) else {
                        continue; // ∅, or no earlier fold took a coalition of t's size
                    };
                    let Some(&tp) = positions.get(&t.0).filter(|&&p| p < folded[tk]) else {
                        continue; // not taken by an earlier fold
                    };
                    let ut = memo[&t.0];
                    for i in t.members().filter(|&i| partner(t, i) == s) {
                        add(tk, tp, i, ut - us);
                    }
                }
            }
        }
        *folded = handed;
        lanes.iter_mut().flatten().for_each(Lane::settle);
        pooled.iter_mut().for_each(Lane::settle);
    }

    /// What the planner knows about each stratum at this boundary.
    fn components(&self) -> Vec<ComponentState> {
        (0..self.n)
            .map(|kidx| {
                let drawn = self.sampled[kidx].len();
                let left = binom_u128(self.n, kidx + 1).saturating_sub(drawn as u128);
                let left = usize::try_from(left).unwrap_or(usize::MAX);
                ComponentState::observed(1.0 / self.n as f64, &self.pooled[kidx].acc, drawn, left)
            })
            .collect()
    }

    fn scheduled(&self) -> usize {
        self.sampled.iter().map(Vec::len).sum()
    }

    /// `stratum_estimates()[i][k-1] = ϕ̂_{i,k}/m_{i,k}` as of the last
    /// fold — the stratified-SV of Alg. 1, or `None` when the stratum had
    /// no matched pairs for client `i`. For the variance analysis of
    /// Fig. 10 and for testing Theorem 1 (whose expectation statement,
    /// Eq. 6, is per stratum and conditional on pair availability).
    pub fn stratum_estimates(&self) -> Vec<Vec<Option<f64>>> {
        self.lanes
            .iter()
            .map(|strata| {
                strata
                    .iter()
                    .map(|l| (l.count() > 0).then(|| l.sum / l.count() as f64))
                    .collect()
            })
            .collect()
    }

    /// `pairs_matched()[i][k-1] = m_{i,k}` as of the last fold — the
    /// sampled coalitions of stratum `k` containing client `i` whose
    /// partner was available.
    pub fn pairs_matched(&self) -> Vec<Vec<usize>> {
        let counts = |strata: &Vec<Lane<usize>>| strata.iter().map(Lane::count).collect();
        self.lanes.iter().map(counts).collect()
    }
}

impl<R: Rng + ?Sized> Sampler for StratifiedSampler<'_, R> {
    fn next_batch(&mut self, fine: bool) -> Vec<Coalition> {
        let first = self.memo.is_empty();
        let plan = match &self.planner {
            Some((planner, round)) => {
                let left = self.budgets.iter().sum::<usize>() - self.scheduled();
                planner.plan_round((*round).min(left), &self.components())
            }
            None if first => self.budgets.clone(),
            None => Vec::new(), // the fixed plan is drawn whole in the first round
        };
        let new = self.draw(&plan);
        // ∅ is always available (Example 2) and rides in the first batch.
        let mut batch: Vec<Coalition> = first.then(Coalition::empty).into_iter().collect();
        if fine && self.planner.is_none() {
            batch.extend(self.sampled.iter().filter_map(|s| s.get(self.rows_out)));
            self.rows_out += 1;
        } else {
            batch.extend(new);
            self.rows_out = usize::MAX;
        }
        batch
    }

    fn absorb(&mut self, batch: &[Coalition], values: Vec<f64>) {
        self.memo.extend(batch.iter().map(|s| s.0).zip(values));
    }

    fn is_complete(&self) -> bool {
        let rows = self.sampled.iter().map(Vec::len).max().unwrap_or(0);
        let spent = self.scheduled() >= self.budgets.iter().sum();
        let exhausted =
            (0..self.n).all(|k| self.sampled[k].len() as u128 >= binom_u128(self.n, k + 1));
        self.rows_out >= rows && (self.planner.is_none() || spent || exhausted)
    }

    fn fold(&mut self) -> (Vec<f64>, Vec<f64>) {
        self.advance();
        let n = self.n;
        // Line 17: average within strata, then across strata.
        let inv_n = 1.0 / n as f64;
        let values = self
            .stratum_estimates()
            .iter()
            .map(|strata| strata.iter().flatten().sum::<f64>() * inv_n)
            .collect();
        let ci_halfwidths = (0..n)
            .map(|i| {
                halfwidth((0..n).filter_map(|k| {
                    // An undrawn stratum is unscheduled: no term.
                    let population = binom(n - 1, k); // pairs s ∋ i, |s| = k+1
                    (!self.sampled[k].is_empty())
                        .then(|| component_variance(&self.lanes[i][k].acc, inv_n, population))
                }))
            })
            .collect();
        (values, ci_halfwidths)
    }

    fn allocation(&self) -> Option<Vec<usize>> {
        self.planner
            .as_ref()
            .map(|_| self.sampled.iter().map(Vec::len).collect())
    }
}

/// Alg. 1 — Stratified Sampling Approximation.
///
/// Lines 1–8: sample `m_k` distinct coalitions per stratum and evaluate
/// their utilities. Lines 9–16: for each client and sampled coalition, if
/// the scheme's paired coalition is available, accumulate the contribution.
/// Line 17: `ϕ̂_i = (1/n) Σ_k ϕ̂_{i,k}/m_{i,k}`.
///
/// The empty coalition `∅` is always treated as available: its "model" is
/// the initialised network, which requires no FL training (the paper's
/// Example 2 uses `U(M_∅)` for the first stratum in both schemes).
pub fn stratified_sampling<U: Utility + ?Sized, R: Rng + ?Sized>(
    u: &U,
    scheme: Scheme,
    cfg: &StratifiedConfig,
    rng: &mut R,
) -> Vec<f64> {
    let mut sampler = StratifiedSampler::new(u.n_clients(), scheme, cfg, None, rng);
    drive(u, &mut sampler, None).0.values
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::anytime::{Control, ProgressSnapshot, StoppingRule};
    use crate::exact::exact_mc_sv;
    use crate::sampler::oracle::{self, Historical};
    use crate::sampler::Observer;
    use crate::utility::{AdditiveUtility, HashUtility, TableUtility, Utility};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Run Alg. 1 on `u` under `drive`, observed.
    fn streamed<U: Utility>(
        u: &U,
        cfg: &StratifiedConfig,
        policy: Option<&AdaptivePolicy>,
        seed: u64,
        observe: Observer<'_>,
    ) -> (ProgressSnapshot, bool) {
        let mut rng = StdRng::seed_from_u64(seed);
        let scheme = Scheme::MarginalContribution;
        let mut sampler = StratifiedSampler::new(u.n_clients(), scheme, cfg, policy, &mut rng);
        drive(u, &mut sampler, Some(observe))
    }

    impl<R: Rng + ?Sized> Historical for StratifiedSampler<'_, R> {
        /// The fold before it became incremental, verbatim but for
        /// returning the pooled Welfords instead of storing them (and
        /// dropping the per-stratum detail it also stored).
        fn historical_fold(&self) -> (Vec<f64>, Vec<f64>, Vec<Welford>) {
            let (n, memo) = (self.n, &self.memo);
            let mut sums = vec![vec![0.0f64; n]; n]; // sums[i][k-1]
            let mut counts = vec![vec![0usize; n]; n];
            let mut accs = vec![vec![Welford::new(); n]; n]; // accs[i][k-1]
            let mut pooled = vec![Welford::new(); n];
            for (kidx, stratum) in self.sampled.iter().enumerate() {
                for &s in stratum {
                    let Some(&us) = memo.get(&s.0) else {
                        continue; // not yet evaluated — past the prefix
                    };
                    for i in s.members() {
                        let pair = match self.scheme {
                            Scheme::MarginalContribution => s.without(i),
                            Scheme::ComplementaryContribution => s.complement(n),
                        };
                        // A partner is available iff it is ∅ or was itself
                        // drawn, *and* its value has landed.
                        let drawn = pair.is_empty()
                            || self.sampled_masks[pair.size() - 1].contains(&pair.0);
                        let Some(&upair) = drawn.then(|| memo.get(&pair.0)).flatten() else {
                            continue;
                        };
                        let contribution = us - upair;
                        sums[i][kidx] += contribution;
                        counts[i][kidx] += 1;
                        accs[i][kidx].push(contribution);
                        pooled[kidx].push(contribution);
                    }
                }
            }

            // Line 17: average within strata, then across strata.
            let inv_n = 1.0 / n as f64;
            let stratum_estimates: Vec<Vec<Option<f64>>> = (0..n)
                .map(|i| {
                    (0..n)
                        .map(|k| (counts[i][k] > 0).then(|| sums[i][k] / counts[i][k] as f64))
                        .collect()
                })
                .collect();
            let values = stratum_estimates
                .iter()
                .map(|strata| strata.iter().flatten().sum::<f64>() * inv_n)
                .collect();
            let ci_halfwidths = (0..n)
                .map(|i| {
                    halfwidth((0..n).filter_map(|k| {
                        // An undrawn stratum is unscheduled: no term.
                        let population = binom(n - 1, k); // pairs s ∋ i, |s| = k+1
                        (!self.sampled[k].is_empty())
                            .then(|| component_variance(&accs[i][k], inv_n, population))
                    }))
                })
                .collect();
            (values, ci_halfwidths, pooled)
        }

        fn planner_welfords(&self) -> Option<Vec<Welford>> {
            (!self.pooled.is_empty()).then(|| self.pooled.iter().map(|l| l.acc).collect())
        }

        fn pushes(&self) -> usize {
            let lanes = self.lanes.iter().flatten().map(|l| l.pushes);
            lanes.chain(self.pooled.iter().map(|l| l.pushes)).sum()
        }

        fn contributions(&self) -> usize {
            let lanes = self.lanes.iter().flatten().map(Lane::count);
            lanes.chain(self.pooled.iter().map(Lane::count)).sum()
        }
    }

    /// Every fold of `scheme` against the historical fold, over n ∈ {1, 2,
    /// 3, 6, 8, 12} × a budget below, at and above `2^n` × uniform,
    /// default-adaptive and eager-adaptive × unobserved and observed.
    /// Under a planner the driver cuts at planned rounds either way, so
    /// those runs are observed only. Returns the re-folds per plan:
    /// uniform unobserved, uniform observed, default, eager.
    fn check_sweep(scheme: Scheme) -> [usize; 4] {
        use crate::adaptive::AdaptivePolicy;
        let eager = AdaptivePolicy {
            round_size: Some(5),
            min_observations: 3,
            floor: 2,
        };
        let plans = [
            (None, false),
            (None, true),
            (Some(AdaptivePolicy::default()), true),
            (Some(eager), true),
        ];
        let mut refolds = [0; 4];
        for n in [1usize, 2, 3, 6, 8, 12] {
            let u = HashUtility {
                n,
                seed: 50 + n as u64,
            };
            let full = 1usize << n;
            for budget in [full / 2, full, 2 * full] {
                let cfg = StratifiedConfig::uniform(n, budget);
                for (plan, (policy, observed)) in plans.iter().enumerate() {
                    let seed = (n * 100_000 + budget) as u64;
                    let (mut r1, mut r2) =
                        (StdRng::seed_from_u64(seed), StdRng::seed_from_u64(seed));
                    let (pushes, contributions) = oracle::check(
                        &u,
                        *observed,
                        StratifiedSampler::new(n, scheme, &cfg, policy.as_ref(), &mut r1),
                        StratifiedSampler::new(n, scheme, &cfg, policy.as_ref(), &mut r2),
                    );
                    refolds[plan] += pushes - contributions;
                }
            }
        }
        refolds
    }

    #[test]
    fn incremental_mc_fold_is_bit_identical_to_the_historical_fold() {
        // Late MC partners: an `S\{i}` handed out in a later row or drawn
        // in a later round. The behind-the-tail path must have run.
        let refolds = check_sweep(Scheme::MarginalContribution);
        assert!(refolds[1..].iter().all(|&r| r > 0), "{refolds:?}");
    }

    #[test]
    fn incremental_cc_fold_is_bit_identical_to_the_historical_fold() {
        // Late CC partners: a complement drawn in a later round.
        let refolds = check_sweep(Scheme::ComplementaryContribution);
        assert!(refolds[2..].iter().all(|&r| r > 0), "{refolds:?}");
    }

    #[test]
    fn streamed_fold_work_stays_near_the_final_fold() {
        // Streamed MC on n = 12 with γ = 2000: 167 round-robin rows whose
        // last fold holds 3 280 contributions. The from-scratch fold
        // re-walked every absorbed sample at each row and pushed 231 071
        // (`from_scratch` below); the incremental fold pushes 27 363.
        // Bit-identity puts a floor under the count: a pair whose `S\{i}`
        // lands in a later row belongs behind contributions already
        // folded, so every entry after it in its lane is pushed again.
        // Re-folding only those entries would push 16 039 here (4.9× the
        // last fold); re-folding the whole lane keeps one 16-byte entry
        // per contribution instead of a running state per entry.
        let n = 12;
        let u = HashUtility { n, seed: 3 };
        let cfg = StratifiedConfig::uniform(n, 2000);
        let mut rng = StdRng::seed_from_u64(8);
        let mut s = StratifiedSampler::new(n, Scheme::MarginalContribution, &cfg, None, &mut rng);
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
        assert!(pushes > last, "no re-folds");
        assert!(
            pushes * 5 <= from_scratch && pushes <= 10 * last,
            "{pushes} pushes for {last} contributions; from scratch: {from_scratch}"
        );
    }

    #[test]
    fn uniform_config_distributes_budget() {
        let cfg = StratifiedConfig::uniform(4, 10);
        assert_eq!(cfg.rounds_per_stratum, vec![3, 3, 2, 2]);
        assert_eq!(cfg.total_rounds(), 10);
        let cfg2 = StratifiedConfig::uniform(3, 3);
        assert_eq!(cfg2.rounds_per_stratum, vec![1, 1, 1]);
    }

    #[test]
    fn uniform_config_invariants_over_the_full_grid() {
        // The seam the adaptive planner falls back to, fuzzed over
        // (n, γ) ∈ [1,64] × [0,512]: allocations sum to γ, differ by at
        // most 1 across strata, and earlier strata get the remainder.
        for n in 1..=64usize {
            for gamma in 0..=512usize {
                let cfg = StratifiedConfig::uniform(n, gamma);
                assert_eq!(cfg.rounds_per_stratum.len(), n);
                assert_eq!(cfg.total_rounds(), gamma, "n={n} γ={gamma}");
                let max = cfg.rounds_per_stratum.iter().copied().max().unwrap_or(0);
                let min = cfg.rounds_per_stratum.iter().copied().min().unwrap_or(0);
                assert!(
                    max - min <= 1,
                    "n={n} γ={gamma}: {:?}",
                    cfg.rounds_per_stratum
                );
                // Earlier strata get the remainder: allocations are
                // non-increasing, and exactly the first γ mod n strata
                // carry the extra round.
                for w in cfg.rounds_per_stratum.windows(2) {
                    assert!(w[0] >= w[1], "n={n} γ={gamma}");
                }
                let extras = cfg
                    .rounds_per_stratum
                    .iter()
                    .filter(|&&m| m == gamma / n + 1)
                    .count();
                let expected_extras = if gamma % n == 0 { 0 } else { gamma % n };
                assert_eq!(extras, expected_extras, "n={n} γ={gamma}");
            }
        }
    }

    #[test]
    fn full_budget_recovers_exact_sv_mc() {
        // When every stratum is fully sampled, Alg. 1 with MC-SV is exact.
        let u = TableUtility::paper_table1();
        let cfg = StratifiedConfig::explicit(vec![3, 3, 1]);
        let mut rng = StdRng::seed_from_u64(0);
        let got = stratified_sampling(&u, Scheme::MarginalContribution, &cfg, &mut rng);
        let want = exact_mc_sv(&u);
        for (g, w) in got.iter().zip(&want) {
            assert!((g - w).abs() < 1e-12, "{got:?} vs {want:?}");
        }
    }

    #[test]
    fn full_budget_recovers_exact_sv_cc() {
        let u = TableUtility::paper_table1();
        let cfg = StratifiedConfig::explicit(vec![3, 3, 1]);
        let mut rng = StdRng::seed_from_u64(0);
        let got = stratified_sampling(&u, Scheme::ComplementaryContribution, &cfg, &mut rng);
        let want = exact_mc_sv(&u);
        for (g, w) in got.iter().zip(&want) {
            assert!((g - w).abs() < 1e-12, "{got:?} vs {want:?}");
        }
    }

    #[test]
    fn unbiased_for_additive_utility() {
        // For an additive utility every marginal equals w_i, so even a
        // partial sample is exact for matched strata — a strong smoke test
        // of the pairing logic.
        let w = vec![0.4, 0.1, 0.25, 0.05, 0.2];
        let u = AdditiveUtility::new(0.0, w.clone());
        let cfg = StratifiedConfig::uniform(5, 12);
        let mut rng = StdRng::seed_from_u64(3);
        let scheme = Scheme::MarginalContribution;
        let mut sampler = StratifiedSampler::new(5, scheme, &cfg, None, &mut rng);
        let (out, _) = drive(&u, &mut sampler, None);
        let pairs_matched = sampler.pairs_matched();
        for (i, &wi) in w.iter().enumerate() {
            // Every matched stratum contributes exactly w_i; the estimate is
            // w_i * (#matched strata)/n. With stratum 1 always matched (∅ is
            // always available) the estimate is at least w_i/n and at most w_i.
            let matched: usize = pairs_matched[i].iter().filter(|&&c| c > 0).count();
            let expected = wi * matched as f64 / 5.0;
            assert!((out.values[i] - expected).abs() < 1e-12);
        }
    }

    #[test]
    fn unbiasedness_theorem1_monte_carlo() {
        // Theorem 1 / Eq. 6: conditional on the pair being available, the
        // per-stratum estimate ϕ̂_{i,k}/m_{i,k} has expectation equal to the
        // exact stratum mean Σ_{S⊆N\{i},|S|=k−1} (U(S∪{i})−U(pair))/C(n−1,k−1).
        // We Monte-Carlo the conditional mean over many framework runs.
        use crate::coalition::{binom, subsets_of_size};
        let n = 4usize;
        let u = HashUtility { n, seed: 21 };
        for scheme in [
            Scheme::MarginalContribution,
            Scheme::ComplementaryContribution,
        ] {
            // Exact per-stratum means for client 0.
            let exact_stratum: Vec<f64> = (1..=n)
                .map(|k| {
                    let mut acc = 0.0;
                    for s in subsets_of_size(n, k) {
                        if !s.contains(0) {
                            continue;
                        }
                        let pair = match scheme {
                            Scheme::MarginalContribution => s.without(0),
                            Scheme::ComplementaryContribution => s.complement(n),
                        };
                        acc += u.eval(s) - u.eval(pair);
                    }
                    acc / binom(n - 1, k - 1)
                })
                .collect();

            let runs = 6000;
            let cfg = StratifiedConfig::uniform(n, 8);
            let mut rng = StdRng::seed_from_u64(5);
            let mut sums = vec![0.0f64; n];
            let mut hits = vec![0usize; n];
            for _ in 0..runs {
                let mut sampler = StratifiedSampler::new(n, scheme, &cfg, None, &mut rng);
                let _ = drive(&u, &mut sampler, None);
                for (k, est) in sampler.stratum_estimates()[0].iter().enumerate() {
                    if let Some(v) = est {
                        sums[k] += v;
                        hits[k] += 1;
                    }
                }
            }
            for k in 0..n {
                assert!(hits[k] > 100, "stratum {k} matched too rarely");
                let mean = sums[k] / hits[k] as f64;
                assert!(
                    (mean - exact_stratum[k]).abs() < 0.03,
                    "scheme {scheme:?} stratum {}: conditional mean {mean} vs exact {}",
                    k + 1,
                    exact_stratum[k]
                );
            }
        }
    }

    #[test]
    fn sampling_respects_budget() {
        use crate::utility::CachedUtility;
        let u = CachedUtility::new(HashUtility { n: 8, seed: 1 });
        let cfg = StratifiedConfig::uniform(8, 16);
        let mut rng = StdRng::seed_from_u64(9);
        let _ = stratified_sampling(&u, Scheme::MarginalContribution, &cfg, &mut rng);
        // At most γ sampled coalitions + ∅ are evaluated.
        assert!(u.stats().evaluations <= 16 + 1);
    }

    #[test]
    fn zero_budget_strata_yield_zero_contribution() {
        let u = TableUtility::paper_table1();
        // Only stratum 1 sampled; MC pairs with ∅ always available.
        let cfg = StratifiedConfig::explicit(vec![3, 0, 0]);
        let mut rng = StdRng::seed_from_u64(11);
        let values = stratified_sampling(&u, Scheme::MarginalContribution, &cfg, &mut rng);
        // ϕ̂_i = (1/3)(U({i}) − U(∅)).
        assert!((values[0] - (0.50 - 0.10) / 3.0).abs() < 1e-12);
        assert!((values[1] - (0.70 - 0.10) / 3.0).abs() < 1e-12);
        assert!((values[2] - (0.60 - 0.10) / 3.0).abs() < 1e-12);
    }

    /// Stop the run at the second snapshot boundary by a sample cap: it
    /// must return the same-seed full run's second snapshot, allocation
    /// trace included.
    fn assert_stops_on_the_full_run(
        u: &HashUtility,
        cfg: &StratifiedConfig,
        policy: Option<&AdaptivePolicy>,
        seed: u64,
    ) {
        let mut snapshots = Vec::new();
        let (_, stopped_early) = streamed(u, cfg, policy, seed, &mut |s| {
            snapshots.push(s.clone());
            Control::Continue
        });
        assert!(!stopped_early);
        assert!(snapshots.len() >= 3);
        let rule = StoppingRule::max_samples(snapshots[1].samples_used);
        let (out, stopped_early) = streamed(u, cfg, policy, seed, &mut |s| {
            if rule.should_stop(s) {
                Control::Stop
            } else {
                Control::Continue
            }
        });
        assert!(stopped_early);
        assert_eq!(out, snapshots[1], "bit-identical prefix");
    }

    #[test]
    fn streaming_stopped_run_equals_full_run_prefix() {
        let u = HashUtility { n: 6, seed: 21 };
        assert_stops_on_the_full_run(&u, &StratifiedConfig::uniform(6, 18), None, 9);
    }

    #[test]
    fn streaming_ci_hits_zero_on_fully_enumerated_strata() {
        // Full budget: every stratum fully sampled ⇒ every pair matched
        // ⇒ FPC drives all CI terms to zero at completion.
        let u = TableUtility::paper_table1();
        let cfg = StratifiedConfig::explicit(vec![3, 3, 1]);
        let (out, _) = streamed(&u, &cfg, None, 4, &mut |_| Control::Continue);
        assert!(
            out.ci_halfwidths.iter().all(|&h| h == 0.0),
            "{:?}",
            out.ci_halfwidths
        );
        let exact = exact_mc_sv(&u);
        for (g, w) in out.values.iter().zip(&exact) {
            assert!((g - w).abs() < 1e-12);
        }
    }

    #[test]
    fn streaming_ci_is_infinite_before_strata_are_observed() {
        // After the first batch only one sample per stratum has landed:
        // MC pairs in mid strata are mostly unmatched, so the CI must be
        // unbounded, never NaN.
        let u = HashUtility { n: 8, seed: 2 };
        let cfg = StratifiedConfig::uniform(8, 24);
        let mut first: Option<Vec<f64>> = None;
        let _ = streamed(&u, &cfg, None, 1, &mut |s| {
            if first.is_none() {
                first = Some(s.ci_halfwidths.clone());
            }
            Control::Continue
        });
        let first = first.unwrap_or_default();
        assert!(first.iter().any(|h| h.is_infinite()));
        assert!(first.iter().all(|h| !h.is_nan()));
    }

    #[test]
    fn adaptive_homoscedastic_run_degenerates_to_the_uniform_split() {
        // Equal-weight additive utility: every contribution in stratum k
        // is identical, so every pooled variance is 0 and each round's
        // plan falls back to the uniform split. We check the final
        // allocation: the spread over non-capped strata is ≤ 1 and the
        // full budget is spent.
        let n = 6usize;
        let gamma = 24usize;
        let u = AdditiveUtility::new(0.0, vec![0.125; n]);
        let cfg = StratifiedConfig::uniform(n, gamma);
        let policy = AdaptivePolicy::default();
        let (out, stopped_early) =
            streamed(&u, &cfg, Some(&policy), 31, &mut |_| Control::Continue);
        let Some(allocation) = out.allocation.clone() else {
            panic!("adaptive run must expose its allocation")
        };
        assert_eq!(allocation.len(), n);
        assert_eq!(allocation.iter().sum::<usize>(), gamma);
        let uncapped: Vec<usize> = (0..n)
            .filter(|&k| (allocation[k] as u128) < crate::coalition::binom_u128(n, k + 1))
            .map(|k| allocation[k])
            .collect();
        let max = uncapped.iter().copied().max().unwrap_or(0);
        let min = uncapped.iter().copied().min().unwrap_or(0);
        assert!(max - min <= 1, "allocation {allocation:?} not uniform");
        assert!(!stopped_early);
    }

    #[test]
    fn adaptive_stopped_run_equals_full_run_prefix() {
        let u = HashUtility { n: 6, seed: 33 };
        let policy = AdaptivePolicy::default();
        assert_stops_on_the_full_run(&u, &StratifiedConfig::uniform(6, 30), Some(&policy), 34);
    }

    #[test]
    fn adaptive_steers_draws_toward_the_noisy_stratum() {
        // Additive base with hash noise confined to small coalitions:
        // contributions in the low strata are noisy, the rest constant.
        #[derive(Clone)]
        struct SizeNoisy {
            n: usize,
        }
        impl Utility for SizeNoisy {
            fn n_clients(&self) -> usize {
                self.n
            }
            fn eval(&self, s: Coalition) -> f64 {
                let base = s.size() as f64 * 0.5;
                if s.size() >= 1 && s.size() <= 2 {
                    let mut h = s.0 as u64 ^ 0x9E37_79B9_7F4A_7C15;
                    h ^= h >> 33;
                    h = h.wrapping_mul(0xFF51_AFD7_ED55_8CCD);
                    h ^= h >> 33;
                    base + (h % 1000) as f64 / 1000.0
                } else {
                    base
                }
            }
        }
        let n = 7usize;
        let u = SizeNoisy { n };
        let cfg = StratifiedConfig::uniform(n, 80);
        let policy = AdaptivePolicy::default();
        let (out, _) = streamed(&u, &cfg, Some(&policy), 35, &mut |_| Control::Continue);
        let Some(allocation) = out.allocation else {
            panic!("adaptive run must expose its allocation")
        };
        // Noise lives in coalition sizes ≤ 2 and their size-3 MC pairs:
        // strata 1..=3 (indices 0..2) should dominate the allocation.
        let noisy: usize = allocation[..3].iter().sum();
        let quiet: usize = allocation[3..].iter().sum();
        assert!(
            noisy > 2 * quiet,
            "allocation {allocation:?} did not steer toward the noise"
        );
    }

    #[test]
    fn cc_pairs_with_complement() {
        // n = 2: sampling stratum 1 fully, CC pairs {0} with {1}.
        let u = TableUtility::new(2, vec![0.0, 0.6, 0.4, 1.0]);
        let cfg = StratifiedConfig::explicit(vec![2, 0]);
        let mut rng = StdRng::seed_from_u64(2);
        let values = stratified_sampling(&u, Scheme::ComplementaryContribution, &cfg, &mut rng);
        // ϕ̂_0 = (1/2)(U({0}) − U({1})) = 0.1; ϕ̂_1 = −0.1.
        assert!((values[0] - 0.1).abs() < 1e-12);
        assert!((values[1] + 0.1).abs() < 1e-12);
    }
}
