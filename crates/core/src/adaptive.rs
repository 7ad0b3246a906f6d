//! Adaptive Neyman budget reallocation: variance-driven sampling.
//!
//! The anytime layer ([`crate::anytime`]) computes per-component Welford
//! variances at every batch boundary but uses them only to *stop*. This
//! module makes them *steer*: an [`AllocationPlanner`] re-plans each
//! round of draws by **Neyman allocation** — `m_k ∝ W_k·σ_k`, the
//! variance-optimal split of a stratified budget, where `W_k` is the
//! weight the component carries in the estimate (the classical
//! `N_k·σ_k` form with the population share normalised out) and `σ_k`
//! the component's observed contribution spread.
//!
//! Allocation is **total-target**: each round the planner apportions the
//! *cumulative* budget (draws already taken plus this round's budget)
//! across components and hands out each component's deficit against its
//! target. Sequential re-planning therefore converges to the same split
//! a one-shot Neyman allocation of the whole budget would pick, instead
//! of compounding per-round rounding bias.
//!
//! A configurable **exploration floor** keeps the plan honest before the
//! variances are known: a component with fewer than
//! [`AdaptivePolicy::min_observations`] observed contributions is
//! guaranteed [`AdaptivePolicy::floor`] draws per round, so a zero- or
//! unknown-variance component is never starved before it has had a
//! chance to reveal its spread.
//!
//! # Determinism contract
//!
//! Planning consumes **no randomness**: [`AllocationPlanner::plan_round`]
//! is a pure function of its inputs, and the inputs (per-component
//! variances and draw counts) are themselves pure functions of the
//! evaluated prefix. An adaptive streaming run's allocation sequence is
//! therefore a pure function of `(seed, snapshot history)` — same-seed
//! same-rule runs are bit-identical at any thread count and under any
//! service coalescing interleaving, exactly like the non-adaptive
//! streaming estimators.
//!
//! # Fallback contract
//!
//! When no component has a known positive variance (nothing observed
//! yet, or a homoscedastic problem where every spread is equal or zero),
//! the plan degenerates to the **uniform split**: the same
//! largest-remainder apportionment as [`StratifiedConfig::uniform`]
//! (earlier components receive the remainder first), and the
//! total-target scheme makes the *cumulative* allocation track
//! `StratifiedConfig::uniform(n, Σ budget)` at every boundary.
//!
//! [`StratifiedConfig::uniform`]: crate::stratified::StratifiedConfig::uniform

use std::cmp::Ordering;

use crate::anytime::Welford;

/// How an adaptive sampler re-plans its draws at batch boundaries.
/// Carried by
/// [`ValuationRequest::with_adaptive`](crate::service::ValuationRequest::with_adaptive)
/// and by the samplers' constructors.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct AdaptivePolicy {
    /// Draws (re-)planned per batch boundary. `None` = the estimator's
    /// natural round: one draw per stratum for Alg. 1 (`n`), one draw
    /// per grid node for Owen (`q_nodes`) — the same cadence as the
    /// uniform streaming variants.
    pub round_size: Option<usize>,
    /// A component is *under-observed* until it has folded this many
    /// contributions; under-observed components are served by the
    /// exploration floor before Neyman allocation distributes the rest.
    pub min_observations: usize,
    /// Draws guaranteed per under-observed component per round.
    pub floor: usize,
}

impl Default for AdaptivePolicy {
    fn default() -> Self {
        AdaptivePolicy {
            round_size: None,
            min_observations: 2,
            floor: 1,
        }
    }
}

impl AdaptivePolicy {
    /// The policy's round size, or the estimator's `natural` cadence.
    pub fn round(&self, natural: usize) -> usize {
        self.round_size.unwrap_or(natural).max(1)
    }
}

/// What the planner knows about one weighted component (a stratum of
/// Alg. 1 or one Owen grid node) at a batch boundary.
#[derive(Clone, Copy, Debug)]
pub struct ComponentState {
    /// Weight the component carries in the estimate (Alg. 1: `1/n`;
    /// Owen: the trapezoid node weight).
    pub weight: f64,
    /// Welford sample variance of the component's observed contributions
    /// (`None` until two have been folded).
    pub variance: Option<f64>,
    /// Contributions folded so far (what the exploration floor counts —
    /// a draw whose pair never matched observes nothing).
    pub observed: usize,
    /// Draws already taken from the component across previous rounds.
    pub drawn: usize,
    /// Distinct draws still available from the component
    /// (`usize::MAX` = unbounded, e.g. Owen's with-replacement nodes).
    pub remaining: usize,
}

impl ComponentState {
    /// The state of a component whose contributions so far are pooled in
    /// `acc`.
    pub fn observed(weight: f64, acc: &Welford, drawn: usize, remaining: usize) -> Self {
        ComponentState {
            weight,
            variance: acc.sample_variance(),
            observed: acc.count(),
            drawn,
            remaining,
        }
    }
}

/// Re-plans a round of draws from per-component variances by Neyman
/// allocation — see the [module docs](self) for the determinism and
/// fallback contracts.
#[derive(Clone, Copy, Debug)]
pub struct AllocationPlanner {
    policy: AdaptivePolicy,
}

impl AllocationPlanner {
    pub fn new(policy: AdaptivePolicy) -> Self {
        AllocationPlanner { policy }
    }

    /// Neyman scores `W_k·σ_k` per component, with the exploration
    /// conventions: a component whose variance is still unknown scores
    /// as high as the strongest known component (optimistic
    /// exploration), and when *no* component has a known positive
    /// variance every component scores 1 — the uniform fallback. Only
    /// ratios matter: [`AllocationPlanner::plan_round`] apportions by them.
    fn scores(&self, components: &[ComponentState]) -> Vec<f64> {
        let mut scores: Vec<f64> = components
            .iter()
            .map(|c| match c.variance {
                Some(v) if v > 0.0 => c.weight * v.sqrt(),
                _ => 0.0,
            })
            .collect();
        let known_max = scores.iter().fold(0.0f64, |a, &b| a.max(b));
        if known_max <= 0.0 {
            return vec![1.0; components.len()];
        }
        for (s, c) in scores.iter_mut().zip(components) {
            if c.variance.is_none() {
                *s = known_max;
            }
        }
        scores
    }

    /// Plan the next `round_budget` draws. The exploration floor serves
    /// under-observed components first (in index order); the rest flows
    /// through total-target Neyman allocation: apportion the cumulative
    /// budget (Σ drawn + this round) by score, then hand each component
    /// its deficit against that target, spilling any excess by score.
    /// Ties and remainders go to earlier components, matching
    /// [`StratifiedConfig::uniform`](crate::stratified::StratifiedConfig::uniform).
    ///
    /// Pure function of its inputs — consumes no randomness. The
    /// returned plan sums to `round_budget` unless total remaining
    /// capacity is smaller (then it sums to that capacity).
    pub fn plan_round(&self, round_budget: usize, components: &[ComponentState]) -> Vec<usize> {
        let k = components.len();
        let mut plan = vec![0usize; k];
        if k == 0 || round_budget == 0 {
            return plan;
        }
        let mut left = round_budget;
        // Exploration floor: under-observed components are never starved
        // before `min_observations` contributions have landed.
        for (p, c) in plan.iter_mut().zip(components) {
            if left == 0 {
                break;
            }
            if c.observed < self.policy.min_observations && c.remaining > 0 {
                let give = self.policy.floor.min(c.remaining).min(left);
                *p += give;
                left -= give;
            }
        }
        if left == 0 {
            return plan;
        }
        let scores = self.scores(components);

        // Total-target Neyman: what should each component's *cumulative*
        // draw count be once this round lands?
        let drawn_total = components
            .iter()
            .fold(0usize, |a, c| a.saturating_add(c.drawn));
        let placed: usize = plan.iter().sum();
        let target_total = drawn_total.saturating_add(placed).saturating_add(left);
        let caps: Vec<usize> = components
            .iter()
            .map(|c| c.drawn.saturating_add(c.remaining))
            .collect();
        let mut targets = vec![0usize; k];
        apportion(&mut targets, target_total, &scores, &caps);

        // Each component's deficit against its target, clamped to what
        // it can still absorb this round.
        let deficits: Vec<usize> = (0..k)
            .map(|i| {
                targets[i]
                    .saturating_sub(components[i].drawn.saturating_add(plan[i]))
                    .min(components[i].remaining - plan[i])
            })
            .collect();
        let dsum: usize = deficits.iter().sum();
        if dsum <= left {
            for (p, d) in plan.iter_mut().zip(&deficits) {
                *p += d;
            }
            left -= dsum;
            if left > 0 {
                // Over-drawn components freed budget (or every deficit is
                // met): spill the rest by score over open components.
                let remaining: Vec<usize> = components.iter().map(|c| c.remaining).collect();
                apportion(&mut plan, left, &scores, &remaining);
            }
        } else {
            // More deficit than budget: fill proportionally to deficit.
            let dscores: Vec<f64> = deficits.iter().map(|&d| d as f64).collect();
            let mut fill = vec![0usize; k];
            apportion(&mut fill, left, &dscores, &deficits);
            for (p, f) in plan.iter_mut().zip(&fill) {
                *p += f;
            }
        }
        plan
    }
}

/// Largest-remainder apportionment of `budget` by `scores` into `buf`,
/// never letting `buf[i]` exceed `caps[i]`. When every open component
/// scores 0, the budget spreads uniformly over them rather than being
/// dropped. Remainders and ties go to earlier components. Pure function;
/// stops early only when all capacity is consumed.
fn apportion(buf: &mut [usize], mut budget: usize, scores: &[f64], caps: &[usize]) {
    while budget > 0 {
        let mut open: Vec<usize> = (0..buf.len()).filter(|&i| buf[i] < caps[i]).collect();
        if open.is_empty() {
            return;
        }
        let any_scored = open.iter().any(|&i| scores[i] > 0.0);
        if any_scored {
            open.retain(|&i| scores[i] > 0.0);
        }
        let eff = |i: usize| if any_scored { scores[i] } else { 1.0 };
        let total: f64 = open.iter().map(|&i| eff(i)).sum();
        let mut placed = 0usize;
        let mut fracs: Vec<(usize, f64)> = Vec::with_capacity(open.len());
        for &i in &open {
            let quota = budget as f64 * eff(i) / total;
            let base = (quota.floor() as usize).min(caps[i] - buf[i]);
            buf[i] += base;
            placed += base;
            fracs.push((i, quota - quota.floor()));
        }
        // Rounding remainder by largest fractional part, earlier index
        // on ties.
        fracs.sort_by(|a, b| match b.1.total_cmp(&a.1) {
            Ordering::Equal => a.0.cmp(&b.0),
            other => other,
        });
        let mut rest = budget - placed;
        for (i, _) in fracs {
            if rest == 0 {
                break;
            }
            if buf[i] < caps[i] {
                buf[i] += 1;
                rest -= 1;
            }
        }
        if rest == budget {
            return; // no progress possible (every open slot capped)
        }
        budget = rest;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stratified::StratifiedConfig;

    fn fresh(n: usize) -> Vec<ComponentState> {
        vec![
            ComponentState {
                weight: 1.0 / n as f64,
                variance: None,
                observed: 0,
                drawn: 0,
                remaining: usize::MAX,
            };
            n
        ]
    }

    fn observed(weight: f64, variance: f64, drawn: usize, remaining: usize) -> ComponentState {
        ComponentState {
            weight,
            variance: Some(variance),
            observed: 8,
            drawn,
            remaining,
        }
    }

    #[test]
    fn unobserved_components_get_the_uniform_split() {
        // The fallback contract, pinned against the uniform seam the
        // planner degenerates to: floor + uniform apportionment equals
        // StratifiedConfig::uniform exactly, for every (n, γ) cell.
        let planner = AllocationPlanner::new(AdaptivePolicy::default());
        for n in 1..=12usize {
            for gamma in 0..=96 {
                let plan = planner.plan_round(gamma, &fresh(n));
                assert_eq!(
                    plan,
                    StratifiedConfig::uniform(n, gamma).rounds_per_stratum,
                    "n={n} γ={gamma}"
                );
            }
        }
    }

    #[test]
    fn homoscedastic_sequential_rounds_track_the_cumulative_uniform_split() {
        // Total-target allocation: re-planning round by round on a
        // homoscedastic problem lands on exactly the split a one-shot
        // uniform allocation of the cumulative budget would pick.
        let planner = AllocationPlanner::new(AdaptivePolicy::default());
        let n = 6usize;
        let mut drawn = vec![0usize; n];
        for round in 0..8usize {
            let comps: Vec<ComponentState> = drawn
                .iter()
                .map(|&d| ComponentState {
                    weight: 1.0 / n as f64,
                    variance: Some(0.25),
                    observed: 8,
                    drawn: d,
                    remaining: usize::MAX,
                })
                .collect();
            let plan = planner.plan_round(4, &comps);
            assert_eq!(plan.iter().sum::<usize>(), 4, "round {round}");
            for (d, p) in drawn.iter_mut().zip(&plan) {
                *d += p;
            }
            assert_eq!(
                drawn,
                StratifiedConfig::uniform(n, 4 * (round + 1)).rounds_per_stratum,
                "round {round}"
            );
        }
    }

    #[test]
    fn neyman_allocation_is_proportional_to_weighted_sigma() {
        // σ = [1, 2, 1] at equal weights ⇒ m ∝ [1, 2, 1] of 16 = [4, 8, 4].
        let planner = AllocationPlanner::new(AdaptivePolicy::default());
        let comps = vec![
            observed(1.0, 1.0, 0, usize::MAX),
            observed(1.0, 4.0, 0, usize::MAX),
            observed(1.0, 1.0, 0, usize::MAX),
        ];
        assert_eq!(planner.plan_round(16, &comps), vec![4, 8, 4]);
        // Weights scale the same way: doubling a weight doubles its share.
        let weighted = vec![
            observed(2.0, 1.0, 0, usize::MAX),
            observed(1.0, 4.0, 0, usize::MAX),
        ];
        assert_eq!(planner.plan_round(12, &weighted), vec![6, 6]);
        // Sequential continuation keeps the same proportions in totals.
        let later = vec![
            observed(1.0, 1.0, 4, usize::MAX),
            observed(1.0, 4.0, 8, usize::MAX),
            observed(1.0, 1.0, 4, usize::MAX),
        ];
        assert_eq!(planner.plan_round(4, &later), vec![1, 2, 1]);
    }

    #[test]
    fn converged_components_are_starved_after_the_floor() {
        // A zero-variance component with enough observations gets no
        // further draws while a noisy one is open.
        let planner = AllocationPlanner::new(AdaptivePolicy::default());
        let comps = vec![
            observed(1.0, 0.0, 5, usize::MAX),
            observed(1.0, 1.0, 5, usize::MAX),
        ];
        assert_eq!(planner.plan_round(10, &comps), vec![0, 10]);
    }

    #[test]
    fn overdrawn_components_cede_their_share() {
        // Component 0 already holds more than its Neyman target: the
        // whole round flows to the others.
        let planner = AllocationPlanner::new(AdaptivePolicy::default());
        let comps = vec![
            observed(1.0, 1.0, 10, usize::MAX),
            observed(1.0, 1.0, 0, usize::MAX),
            observed(1.0, 1.0, 0, usize::MAX),
        ];
        assert_eq!(planner.plan_round(6, &comps), vec![0, 3, 3]);
    }

    #[test]
    fn exploration_floor_protects_under_observed_components() {
        // Component 0 has an unknown variance and almost no observations:
        // the floor keeps feeding it before Neyman pours everything into
        // the noisy component.
        let planner = AllocationPlanner::new(AdaptivePolicy::default());
        let comps = vec![
            ComponentState {
                weight: 1.0,
                variance: None,
                observed: 1,
                drawn: 3,
                remaining: usize::MAX,
            },
            observed(1.0, 1.0, 3, usize::MAX),
        ];
        let plan = planner.plan_round(6, &comps);
        assert!(plan[0] >= 1, "{plan:?}: floor must feed the unknown");
        assert_eq!(plan.iter().sum::<usize>(), 6);
    }

    #[test]
    fn unknown_variance_scores_like_the_strongest_known() {
        let planner = AllocationPlanner::new(AdaptivePolicy::default());
        let comps = vec![
            observed(1.0, 4.0, 0, usize::MAX),
            observed(1.0, 1.0, 0, usize::MAX),
            ComponentState {
                weight: 1.0,
                variance: None,
                observed: 0,
                drawn: 0,
                remaining: usize::MAX,
            },
        ];
        let scores = planner.scores(&comps);
        assert_eq!(scores[2], scores[0], "optimistic exploration");
        assert!(scores[0] > scores[1]);
    }

    #[test]
    fn capacity_caps_are_respected_and_budget_spills() {
        // The noisy component is nearly exhausted: its cap binds and the
        // excess spills to the open (converged) one rather than vanishing.
        let planner = AllocationPlanner::new(AdaptivePolicy::default());
        let comps = vec![observed(1.0, 9.0, 0, 3), observed(1.0, 0.0, 0, 100)];
        let plan = planner.plan_round(10, &comps);
        assert_eq!(plan, vec![3, 7]);
        // Total capacity below the budget: the plan sums to the capacity.
        let tight = vec![observed(1.0, 1.0, 0, 2), observed(1.0, 1.0, 0, 1)];
        assert_eq!(planner.plan_round(10, &tight), vec![2, 1]);
        // Exhausted components take nothing, even under the floor.
        let done = vec![
            ComponentState {
                weight: 1.0,
                variance: None,
                observed: 0,
                drawn: 7,
                remaining: 0,
            },
            observed(1.0, 1.0, 0, usize::MAX),
        ];
        assert_eq!(planner.plan_round(4, &done), vec![0, 4]);
    }

    #[test]
    fn planning_is_deterministic_and_exact() {
        let planner = AllocationPlanner::new(AdaptivePolicy::default());
        let comps = vec![
            observed(0.25, 0.3, 2, 40),
            observed(0.25, 1.1, 5, 40),
            ComponentState {
                weight: 0.25,
                variance: None,
                observed: 1,
                drawn: 1,
                remaining: 40,
            },
            observed(0.25, 0.0, 2, 40),
        ];
        let a = planner.plan_round(23, &comps);
        let b = planner.plan_round(23, &comps);
        assert_eq!(a, b, "pure function of its inputs");
        assert_eq!(a.iter().sum::<usize>(), 23);
    }

    #[test]
    fn empty_and_zero_budget_plans_are_empty() {
        let planner = AllocationPlanner::new(AdaptivePolicy::default());
        assert!(planner.plan_round(5, &[]).is_empty());
        assert_eq!(planner.plan_round(0, &fresh(3)), vec![0, 0, 0]);
    }
}
