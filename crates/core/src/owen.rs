//! Owen sampling — the multilinear-extension route to the Shapley value,
//! the third classical estimator family alongside permutation sampling
//! (Extended-TMC) and stratified coalition sampling (Alg. 1 / IPSS).
//!
//! The multilinear extension of the game is
//! `e_i(q) = E[U(S_q ∪ {i}) − U(S_q)]` where `S_q` includes every other
//! client independently with probability `q`; the Shapley value is
//! `ϕ_i = ∫₀¹ e_i(q) dq`. Owen sampling estimates the integral on a `q`
//! grid with Monte-Carlo coalitions at each node.
//!
//! [`owen_sampling`] is the one-shot; an anytime or adaptive run hands an
//! [`OwenSampler`] to [`drive`] itself, under the [`Sampler`] contract of
//! [`crate::sampler`]: randomness is consumed only while drawing
//! (node-major), the fold runs in draw order within a node and node order
//! across the grid, and snapshots are pure in the prefix.

use std::collections::{HashMap, HashSet};

use rand::Rng;

use crate::adaptive::{AdaptivePolicy, AllocationPlanner, ComponentState};
use crate::anytime::{component_variance, halfwidth, Welford};
use crate::coalition::{Coalition, MaskHash};
use crate::sampler::{drive, Sampler};
use crate::utility::Utility;

/// Configuration for [`owen_sampling`].
#[derive(Clone, Debug)]
pub struct OwenConfig {
    /// Number of `q` grid nodes on `[0, 1]` (trapezoid rule). ≥ 2.
    pub q_nodes: usize,
    /// Coalitions sampled per grid node.
    pub samples_per_node: usize,
}

impl OwenConfig {
    pub fn new(q_nodes: usize, samples_per_node: usize) -> Self {
        OwenConfig {
            q_nodes,
            samples_per_node,
        }
    }

    /// Upper bound on the evaluations the grid costs on an `n`-client
    /// game: every draw evaluates the sample and its `n` single-flip
    /// variants (before dedup).
    pub fn evaluations(&self, n: usize) -> usize {
        self.q_nodes * self.samples_per_node * (n + 1)
    }

    /// The grid the service runs for an evaluation budget — the inverse
    /// of [`OwenConfig::evaluations`] on four `q` nodes, with at least
    /// one draw per node.
    pub fn for_budget(n: usize, budget: usize) -> Self {
        let unit = OwenConfig::new(4, 1);
        OwenConfig::new(unit.q_nodes, (budget / unit.evaluations(n)).max(1))
    }

    /// Trapezoid weight of grid node `node`.
    fn node_weight(&self, node: usize) -> f64 {
        let h = 1.0 / (self.q_nodes - 1) as f64;
        if node == 0 || node == self.q_nodes - 1 {
            h / 2.0
        } else {
            h
        }
    }
}

/// Owen sampling as a [`Sampler`]: Bernoulli(`q`) draws per grid node,
/// evaluated together with their single-flip neighbourhoods.
///
/// **Schedule.** Without a planner every node's `samples_per_node` draws
/// are drawn in the first round (node-major) and handed out one node per
/// batch, or — at snapshot granularity — round-robin: round `r` evaluates
/// draw `r` of *every* node. Every sample informs every client (the shared-sample
/// trick), so per-client CIs become finite after two draws per node —
/// Owen is the natural early-stopping vehicle. With a planner the same
/// `q_nodes · samples_per_node` draws are Neyman-allocated each round
/// from the pooled per-node contribution variances (`w_j` the trapezoid
/// weight). A batch holds each handed-out sample and its `n` single-flip
/// variants, deduplicated against everything the run already evaluated.
///
/// **Fold.** Per-node means in draw order, then the trapezoid rule in
/// node order. CI terms treat a node's per-sample contributions as i.i.d.
/// ([`Welford`] per `(client, node)`, trapezoid weight, infinite
/// population — draws are with replacement).
///
/// The fold is incremental and only ever appends: a batch carries each
/// handed-out sample with its single-flip variants, so every contribution
/// a fold takes lands at its node's tail, and the per-(node, client) sums
/// and [`Welford`]s persist between folds.
pub struct OwenSampler<'r, R: Rng + ?Sized> {
    n: usize,
    cfg: OwenConfig,
    /// The planner and its round size, when rounds are re-planned.
    planner: Option<(AllocationPlanner, usize)>,
    rng: &'r mut R,
    /// Per node: the samples drawn so far, how many of them have been
    /// handed out, and how many the fold has taken.
    samples: Vec<Vec<Coalition>>,
    handed: Vec<usize>,
    folded: Vec<usize>,
    memo: HashMap<u128, f64, MaskHash>,
    /// `sums[node][i]` and `accs[node][i]`: client `i`'s contributions at
    /// `node` over the folded samples.
    sums: Vec<Vec<f64>>,
    accs: Vec<Vec<Welford>>,
    /// Every contribution at node `j` (across clients, in fold order) —
    /// the `σ_j` the planner steers by.
    pooled: Vec<Welford>,
    batches_out: usize,
    /// Contributions the fold has pushed.
    #[cfg(test)]
    pushes: usize,
}

impl<'r, R: Rng + ?Sized> OwenSampler<'r, R> {
    /// A sampler for an `n`-client game; `policy` re-plans the per-node
    /// split of `cfg`'s total draw budget each round.
    pub fn new(
        n: usize,
        cfg: &OwenConfig,
        policy: Option<&AdaptivePolicy>,
        rng: &'r mut R,
    ) -> Self {
        assert!(n >= 1);
        assert!(cfg.q_nodes >= 2 && cfg.samples_per_node >= 1);
        OwenSampler {
            n,
            cfg: cfg.clone(),
            planner: policy.map(|p| (AllocationPlanner::new(*p), p.round(cfg.q_nodes))),
            rng,
            samples: vec![Vec::new(); cfg.q_nodes],
            handed: vec![0; cfg.q_nodes],
            folded: vec![0; cfg.q_nodes],
            memo: HashMap::default(),
            sums: vec![vec![0.0; n]; cfg.q_nodes],
            accs: vec![vec![Welford::new(); n]; cfg.q_nodes],
            pooled: vec![Welford::new(); cfg.q_nodes],
            batches_out: 0,
            #[cfg(test)]
            pushes: 0,
        }
    }

    /// The draw routine: `plan[j]` new Bernoulli(`q_j`) coalitions at
    /// node `j`, consuming the RNG node-major.
    fn draw(&mut self, plan: &[usize]) {
        for (node, &m) in plan.iter().enumerate() {
            let q = node as f64 / (self.cfg.q_nodes - 1) as f64;
            for _ in 0..m {
                let mut mask = 0u128;
                for i in 0..self.n {
                    if self.rng.random::<f64>() < q {
                        mask |= 1 << i;
                    }
                }
                self.samples[node].push(Coalition(mask));
            }
        }
    }

    fn budget(&self) -> usize {
        self.cfg.q_nodes * self.cfg.samples_per_node
    }

    /// Draws taken so far, per node.
    fn drawn(&self) -> Vec<usize> {
        self.samples.iter().map(Vec::len).collect()
    }
}

impl<R: Rng + ?Sized> Sampler for OwenSampler<'_, R> {
    fn next_batch(&mut self, fine: bool) -> Vec<Coalition> {
        let drawn = self.drawn();
        let scheduled: usize = drawn.iter().sum();
        let plan = match &self.planner {
            Some((planner, round)) => {
                // Draws are with replacement: capacity is unbounded.
                let components: Vec<ComponentState> = (0..self.cfg.q_nodes)
                    .map(|j| {
                        let weight = self.cfg.node_weight(j);
                        ComponentState::observed(weight, &self.pooled[j], drawn[j], usize::MAX)
                    })
                    .collect();
                planner.plan_round((*round).min(self.budget() - scheduled), &components)
            }
            None if scheduled == 0 => vec![self.cfg.samples_per_node; self.cfg.q_nodes],
            None => Vec::new(), // the fixed plan is drawn whole in the first round
        };
        self.draw(&plan);

        // Hand out, node-major: a planned round whole, one draw of every
        // node at snapshot granularity, else all of the next node.
        let mut batch: Vec<Coalition> = Vec::new();
        let mut seen: HashSet<u128, MaskHash> = HashSet::default();
        for (node, samples) in self.samples.iter().enumerate() {
            let upto = match (&self.planner, fine) {
                (Some(_), _) => samples.len(),
                (None, true) => self.handed[node] + 1,
                (None, false) if node == self.batches_out => samples.len(),
                (None, false) => self.handed[node],
            };
            for &s in &samples[self.handed[node]..upto] {
                // The sample, then its n single-flip variants.
                let flips = (0..self.n).map(|i| Coalition(s.0 ^ (1 << i)));
                for t in std::iter::once(s).chain(flips) {
                    if !self.memo.contains_key(&t.0) && seen.insert(t.0) {
                        batch.push(t);
                    }
                }
            }
            self.handed[node] = upto;
        }
        self.batches_out += 1;
        batch
    }

    fn absorb(&mut self, batch: &[Coalition], values: Vec<f64>) {
        self.memo.extend(batch.iter().map(|s| s.0).zip(values));
    }

    fn is_complete(&self) -> bool {
        self.drawn().iter().sum::<usize>() >= self.budget()
            && self
                .handed
                .iter()
                .zip(&self.samples)
                .all(|(&h, s)| h == s.len())
    }

    fn fold(&mut self) -> (Vec<f64>, Vec<f64>) {
        let (n, memo) = (self.n, &self.memo);
        let mut values = vec![0.0f64; n];
        for (node, samples) in self.samples.iter().enumerate() {
            let (sums, accs) = (&mut self.sums[node], &mut self.accs[node]);
            for &s in &samples[self.folded[node]..self.handed[node]] {
                // The shared-sample trick: for `i ∈ s` the base coalition
                // is `s\{i}` (a valid `S_q ⊆ N\{i}` draw), for `i ∉ s` it
                // is `s` itself — so every sample informs every client,
                // including at the grid ends `q ∈ {0, 1}`.
                let base = memo[&s.0];
                for i in 0..n {
                    let contribution = if s.contains(i) {
                        base - memo[&s.without(i).0]
                    } else {
                        memo[&s.with(i).0] - base
                    };
                    sums[i] += contribution;
                    accs[i].push(contribution);
                    self.pooled[node].push(contribution);
                    #[cfg(test)]
                    {
                        self.pushes += 1;
                    }
                }
            }
            self.folded[node] = self.handed[node];
            // Trapezoid rule: the node's mean enters with the node's weight.
            let weight = self.cfg.node_weight(node);
            for i in 0..n {
                let count = accs[i].count();
                let mean = if count > 0 {
                    sums[i] / count as f64
                } else {
                    0.0
                };
                values[i] += weight * mean;
            }
        }
        let ci_halfwidths = (0..n)
            .map(|i| {
                halfwidth(self.accs.iter().enumerate().map(|(node, accs)| {
                    component_variance(&accs[i], self.cfg.node_weight(node), f64::INFINITY)
                }))
            })
            .collect();
        (values, ci_halfwidths)
    }

    fn allocation(&self) -> Option<Vec<usize>> {
        self.planner.as_ref().map(|_| self.drawn())
    }
}

/// Owen estimator of the Shapley value.
pub fn owen_sampling<U: Utility + ?Sized, R: Rng + ?Sized>(
    u: &U,
    cfg: &OwenConfig,
    rng: &mut R,
) -> Vec<f64> {
    let mut sampler = OwenSampler::new(u.n_clients(), cfg, None, rng);
    drive(u, &mut sampler, None).0.values
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::anytime::{Control, ProgressSnapshot};
    use crate::exact::exact_mc_sv;
    use crate::metrics::l2_relative_error;
    use crate::sampler::oracle::{self, Historical};
    use crate::sampler::Observer;
    use crate::utility::{AdditiveUtility, HashUtility, SaturatingUtility, TableUtility};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    impl<R: Rng + ?Sized> Historical for OwenSampler<'_, R> {
        /// The fold before it became incremental, verbatim but for
        /// returning the pooled Welfords instead of storing them.
        fn historical_fold(&self) -> (Vec<f64>, Vec<f64>, Vec<Welford>) {
            let (n, q_nodes, memo) = (self.n, self.cfg.q_nodes, &self.memo);
            let mut values = vec![0.0f64; n];
            let mut accs = vec![vec![Welford::new(); q_nodes]; n]; // accs[i][node]
            let mut pooled = vec![Welford::new(); q_nodes];
            for (node, samples) in self.samples.iter().enumerate() {
                let mut sums = vec![0.0f64; n];
                let mut counts = vec![0usize; n];
                for &s in &samples[..self.handed[node]] {
                    // The shared-sample trick: for `i ∈ s` the base coalition
                    // is `s\{i}` (a valid `S_q ⊆ N\{i}` draw), for `i ∉ s` it
                    // is `s` itself — so every sample informs every client,
                    // including at the grid ends `q ∈ {0, 1}`.
                    let base = memo[&s.0];
                    for i in 0..n {
                        let contribution = if s.contains(i) {
                            base - memo[&s.without(i).0]
                        } else {
                            memo[&s.with(i).0] - base
                        };
                        sums[i] += contribution;
                        counts[i] += 1;
                        accs[i][node].push(contribution);
                        pooled[node].push(contribution);
                    }
                }
                // Trapezoid rule: the node's mean enters with the node's weight.
                let weight = self.cfg.node_weight(node);
                for i in 0..n {
                    let mean = if counts[i] > 0 {
                        sums[i] / counts[i] as f64
                    } else {
                        0.0
                    };
                    values[i] += weight * mean;
                }
            }
            let ci_halfwidths = accs
                .iter()
                .map(|node_accs| {
                    halfwidth(node_accs.iter().enumerate().map(|(node, acc)| {
                        component_variance(acc, self.cfg.node_weight(node), f64::INFINITY)
                    }))
                })
                .collect();
            (values, ci_halfwidths, pooled)
        }

        fn planner_welfords(&self) -> Option<Vec<Welford>> {
            Some(self.pooled.clone())
        }

        fn pushes(&self) -> usize {
            self.pushes
        }

        fn contributions(&self) -> usize {
            self.n * self.folded.iter().sum::<usize>()
        }
    }

    #[test]
    fn incremental_fold_is_bit_identical_to_the_historical_fold() {
        // n ∈ {1, 2, 3, 6, 8, 12} × an evaluation budget below, at and
        // above 2^n × uniform, default-adaptive and eager-adaptive ×
        // unobserved and observed. A planner cuts at
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
                seed: 70 + n as u64,
            };
            let full = 1usize << n;
            for budget in [full / 2, full, 2 * full] {
                let cfg = OwenConfig::for_budget(n, budget);
                let seed = (n * 100_000 + budget) as u64;
                let (mut r1, mut r2) = (StdRng::seed_from_u64(seed), StdRng::seed_from_u64(seed));
                for policy in &policies {
                    for observed in [false, true] {
                        if policy.is_some() && !observed {
                            continue;
                        }
                        let (pushes, last) = oracle::check(
                            &u,
                            observed,
                            OwenSampler::new(n, &cfg, policy.as_ref(), &mut r1),
                            OwenSampler::new(n, &cfg, policy.as_ref(), &mut r2),
                        );
                        assert_eq!(pushes, last);
                    }
                }
            }
        }
    }

    #[test]
    fn additive_game_is_exact_per_sample() {
        let w = vec![0.2, 0.3, 0.5];
        let u = AdditiveUtility::new(0.1, w.clone());
        let mut rng = StdRng::seed_from_u64(0);
        let phi = owen_sampling(&u, &OwenConfig::new(3, 2), &mut rng);
        for (p, e) in phi.iter().zip(&w) {
            assert!((p - e).abs() < 1e-12, "{phi:?}");
        }
    }

    #[test]
    fn converges_to_exact_shapley() {
        let u = TableUtility::paper_table1();
        let exact = exact_mc_sv(&u);
        let mut rng = StdRng::seed_from_u64(1);
        let phi = owen_sampling(&u, &OwenConfig::new(21, 400), &mut rng);
        let err = l2_relative_error(&phi, &exact);
        assert!(err < 0.05, "error {err}: {phi:?} vs {exact:?}");
    }

    #[test]
    fn deterministic_given_seed() {
        let u = TableUtility::paper_table1();
        let cfg = OwenConfig::new(5, 10);
        let a = owen_sampling(&u, &cfg, &mut StdRng::seed_from_u64(9));
        let b = owen_sampling(&u, &cfg, &mut StdRng::seed_from_u64(9));
        assert_eq!(a, b);
    }

    /// Run Owen sampling on `u` under `drive`, observed.
    fn streamed<U: Utility>(
        u: &U,
        cfg: &OwenConfig,
        policy: Option<&AdaptivePolicy>,
        seed: u64,
        observe: Observer<'_>,
    ) -> (ProgressSnapshot, bool) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut sampler = OwenSampler::new(u.n_clients(), cfg, policy, &mut rng);
        drive(u, &mut sampler, Some(observe))
    }

    /// Stop the run after `stop_after` batches: it must return the
    /// same-seed full run's snapshot at that boundary.
    fn assert_stops_on_the_full_run(
        cfg: &OwenConfig,
        policy: Option<&AdaptivePolicy>,
        seed: u64,
        stop_after: usize,
    ) {
        let u = SaturatingUtility::uniform(5, 0.1, 0.7, 0.9);
        let mut snapshots = Vec::new();
        streamed(&u, cfg, policy, seed, &mut |s| {
            snapshots.push(s.clone());
            Control::Continue
        });
        assert!(snapshots.len() > stop_after);
        let (out, stopped_early) = streamed(&u, cfg, policy, seed, &mut |s| {
            if s.batches_done >= stop_after {
                Control::Stop
            } else {
                Control::Continue
            }
        });
        assert!(stopped_early);
        assert_eq!(out, snapshots[stop_after - 1]);
    }

    #[test]
    fn streaming_stopped_run_equals_full_run_prefix() {
        assert_stops_on_the_full_run(&OwenConfig::new(5, 8), None, 3, 3);
    }

    #[test]
    fn streaming_ci_becomes_finite_and_shrinks() {
        let u = SaturatingUtility::uniform(6, 0.1, 0.8, 0.8);
        let cfg = OwenConfig::new(5, 40);
        let mut widths = Vec::new();
        let (out, _) = streamed(&u, &cfg, None, 11, &mut |s| {
            widths.push(s.max_halfwidth().unwrap_or(f64::INFINITY));
            Control::Continue
        });
        // Round 1 has a single draw per node: CI must be unbounded, not NaN.
        assert!(widths[0].is_infinite());
        // Every sample informs every client, so two draws suffice for a
        // finite CI, and 40 draws shrink it well below the early width.
        assert!(widths[1].is_finite(), "{widths:?}");
        let last = out.ci_halfwidths.iter().cloned().fold(0.0f64, f64::max);
        assert!(last < widths[1] / 2.0, "{widths:?}");
        assert!(widths.iter().all(|w| !w.is_nan()));
    }

    #[test]
    fn single_client() {
        let u = TableUtility::new(1, vec![0.3, 0.9]);
        let mut rng = StdRng::seed_from_u64(3);
        let phi = owen_sampling(&u, &OwenConfig::new(2, 4), &mut rng);
        assert!((phi[0] - 0.6).abs() < 1e-9);
    }

    #[test]
    fn adaptive_run_exposes_the_allocation_and_spends_the_budget() {
        let u = SaturatingUtility::uniform(6, 0.1, 0.8, 0.8);
        let cfg = OwenConfig::new(5, 8);
        let policy = AdaptivePolicy::default();
        let mut allocations = Vec::new();
        let (out, stopped_early) = streamed(&u, &cfg, Some(&policy), 7, &mut |s| {
            let alloc = match &s.allocation {
                Some(a) => a.clone(),
                None => panic!("adaptive snapshots must carry the allocation"),
            };
            allocations.push(alloc);
            Control::Continue
        });
        assert!(!stopped_early);
        // Cumulative per-node draw counts: monotone, ending at the budget.
        for w in allocations.windows(2) {
            assert!(w[0].iter().zip(&w[1]).all(|(a, b)| a <= b));
        }
        let last = match allocations.last() {
            Some(a) => a,
            None => panic!("no snapshots observed"),
        };
        assert_eq!(last.len(), cfg.q_nodes);
        assert_eq!(
            last.iter().sum::<usize>(),
            cfg.q_nodes * cfg.samples_per_node
        );
        assert_eq!(out.allocation.as_ref(), Some(last));
    }

    #[test]
    fn adaptive_stopped_run_equals_full_run_prefix() {
        let cfg = OwenConfig::new(4, 6);
        let policy = AdaptivePolicy::default();
        assert_stops_on_the_full_run(&cfg, Some(&policy), 13, 2);
    }
}
