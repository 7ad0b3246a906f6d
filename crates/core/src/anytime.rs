//! Anytime valuation: running confidence intervals and stopping rules.
//!
//! Every sampling estimator in this crate draws its randomness up front
//! and folds evaluated coalitions in a fixed order, so the estimate after
//! any prefix of the schedule is a well-defined, bit-reproducible value.
//! This module supplies the machinery that turns those prefixes into an
//! *anytime* estimator: per-stratum running mean/variance accumulators
//! ([`Welford`]), the confidence-interval half-width over a stratified
//! estimate ([`component_variance`] / [`halfwidth`]), the progress
//! snapshot streamed after each flushed batch ([`ProgressSnapshot`]) and
//! the stopping rule a request can carry ([`StoppingRule`]).
//!
//! # CI conventions
//!
//! The half-width bounds *sampling* noise only, at 95% normal coverage
//! ([`Z_95`]). Per independent component (a stratum of Alg. 1 / IPSS, or
//! one Owen grid node), with `m` observed contributions out of a
//! population of `M` (sampling without replacement), the component's
//! variance term follows these conventions — chosen so the math never
//! divides by zero or produces NaN:
//!
//! * `m ≥ M` (component fully enumerated): the term is **0** — no
//!   sampling randomness remains (the finite-population correction in
//!   the limit).
//! * `m = 0` but the component is scheduled: the term is **unbounded**
//!   (`None`, surfacing as an `∞` half-width) — nothing observed yet.
//! * `m = 1` with `m < M`: **unbounded** — one observation cannot bound
//!   the spread.
//! * zero sample variance: the term is **0** (e.g. an additive utility's
//!   constant marginals).
//! * otherwise: `w²·(s²/m)·(1 − m/M)` — the classical stratum-mean
//!   variance with finite-population correction, scaled by the weight
//!   `w` the component carries in the estimate.
//!
//! Components an estimator never schedules (a zero-budget stratum, the
//! strata above IPSS's `k*`) contribute **0**: their omission is
//! truncation bias, deliberately excluded from a *sampling* CI — the
//! half-width brackets the estimator's own converged value, not the
//! exact Shapley value.
//!
//! # Determinism contract
//!
//! A snapshot is a pure function of the evaluated prefix: at every batch
//! boundary the streaming estimators fold what arrived since the previous
//! boundary into running accumulators, each contribution at its place in
//! the canonical order (a contribution that belongs behind ones already
//! folded re-folds its accumulator), so every accumulator holds exactly
//! the pushes a from-scratch canonical fold would make. A run stopped
//! after `b` batches therefore returns values **bit-identical** to the
//! `b`-th snapshot of the same-seed full run — at any thread count,
//! under any coalescing schedule. A run whose
//! schedule completes returns values bit-identical to the non-streaming
//! estimator (the complete prefix folds through the identical code
//! path).

/// 97.5% standard-normal quantile: half-widths are 95% two-sided CIs.
pub const Z_95: f64 = 1.959963984540054;

/// Welford's online mean/variance accumulator — numerically stable
/// running moments over the contributions observed in fold order.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Welford {
    count: usize,
    mean: f64,
    m2: f64,
}

impl Welford {
    pub fn new() -> Self {
        Welford::default()
    }

    /// Fold one observation into the running moments.
    pub fn push(&mut self, x: f64) {
        self.count += 1;
        let delta = x - self.mean;
        self.mean += delta / self.count as f64;
        self.m2 += delta * (x - self.mean);
    }

    /// Observations folded so far.
    pub fn count(&self) -> usize {
        self.count
    }

    /// Running mean (0 before the first observation).
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// Unbiased sample variance `m2/(count−1)`, or `None` with fewer
    /// than two observations (a single sample cannot bound the spread).
    pub fn sample_variance(&self) -> Option<f64> {
        if self.count < 2 {
            return None;
        }
        // m2 is a sum of squares; guard the tiny negative excursions
        // floating-point cancellation can produce.
        Some((self.m2 / (self.count - 1) as f64).max(0.0))
    }

    /// The running moments as bits, for bit-identity checks.
    #[cfg(test)]
    pub(crate) fn bits(&self) -> (usize, u64, u64) {
        (self.count, self.mean.to_bits(), self.m2.to_bits())
    }
}

/// Variance contribution of one weighted component (stratum / grid node)
/// of a client's estimate, under sampling without replacement from a
/// population of `population` contributions (use `f64::INFINITY` for
/// with-replacement / unbounded frames).
///
/// Returns `None` when the component's spread cannot be bounded yet
/// (`m = 0`, or `m = 1` with the component not fully enumerated) — the
/// caller surfaces this as an infinite half-width. See the
/// [module docs](self) for the full convention table.
pub fn component_variance(acc: &Welford, weight: f64, population: f64) -> Option<f64> {
    let m = acc.count();
    if m == 0 {
        return None;
    }
    let m_f = m as f64;
    if m_f >= population {
        return Some(0.0); // fully enumerated: no sampling noise left
    }
    let s2 = acc.sample_variance()?;
    if s2 == 0.0 {
        return Some(0.0);
    }
    let fpc = (1.0 - m_f / population).max(0.0);
    Some(weight * weight * (s2 / m_f) * fpc)
}

/// Combine a client's per-component variance terms into the 95% CI
/// half-width: `Z_95 · sqrt(Σ terms)`, or `∞` if any scheduled
/// component is still unbounded (`None`).
pub fn halfwidth(terms: impl IntoIterator<Item = Option<f64>>) -> f64 {
    let mut total = 0.0f64;
    for term in terms {
        match term {
            Some(t) => total += t,
            None => return f64::INFINITY,
        }
    }
    Z_95 * total.sqrt()
}

/// One streamed progress event: the estimate and its uncertainty after a
/// flushed batch. A pure function of the evaluated prefix (see the
/// [module docs](self) for the determinism contract).
#[derive(Clone, Debug, PartialEq)]
pub struct ProgressSnapshot {
    /// Value estimates folded from the evaluated prefix, per client.
    pub values: Vec<f64>,
    /// 95% CI half-widths aligned with `values` (`∞` until every
    /// scheduled component of that client has enough observations).
    pub ci_halfwidths: Vec<f64>,
    /// Coalitions evaluated so far (including `∅` where the estimator
    /// evaluates it).
    pub samples_used: usize,
    /// Batches flushed so far.
    pub batches_done: usize,
    /// Cumulative per-component draw counts of an adaptive run (per
    /// stratum for Alg. 1, per grid node for Owen). `None` for
    /// fixed-schedule runs. Part of the
    /// adaptive determinism contract: the sequence of allocations is a
    /// pure function of (seed, snapshot history), so it is identical at
    /// any thread count or coalescing interleaving.
    pub allocation: Option<Vec<usize>>,
}

impl ProgressSnapshot {
    /// The widest client CI — what [`StoppingRule::ci_at_most`] tests.
    ///
    /// `None` when the snapshot carries no values at all (nothing to
    /// certify); ∞-propagating otherwise — a single unbounded client
    /// makes the result `∞`. Half-widths are never NaN by construction
    /// ([`halfwidth`] only produces `Z_95·√(Σ terms ≥ 0)` or `∞`), so
    /// the fold never has to arbitrate a NaN comparison.
    pub fn max_halfwidth(&self) -> Option<f64> {
        self.ci_halfwidths
            .iter()
            .copied()
            .fold(None, |acc, h| match acc {
                Some(a) => Some(a.max(h)),
                None => Some(h),
            })
    }
}

/// Whether a streaming estimator continues past a batch boundary.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Control {
    /// Evaluate the next batch.
    Continue,
    /// Stop: return the current snapshot's values (the canonical prefix
    /// fold) as the run's result.
    Stop,
}

/// When to stop a streaming run early, checked at every batch boundary.
/// Conditions compose with OR: the run stops as soon as *either* fires.
/// A rule with no conditions ([`StoppingRule::stream_only`]) never stops
/// the run but still turns on progress streaming in the service.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct StoppingRule {
    /// Stop once every client's CI half-width is at most this ε.
    pub ci_at_most: Option<f64>,
    /// Stop once this many coalitions have been evaluated.
    pub max_samples: Option<usize>,
}

impl StoppingRule {
    /// Stream progress snapshots without ever stopping early.
    pub fn stream_only() -> Self {
        StoppingRule::default()
    }

    /// Stop when the widest client CI half-width drops to `eps`.
    pub fn ci_at_most(eps: f64) -> Self {
        StoppingRule {
            ci_at_most: Some(eps),
            max_samples: None,
        }
    }

    /// Stop after `m` coalition evaluations.
    pub fn max_samples(m: usize) -> Self {
        StoppingRule {
            ci_at_most: None,
            max_samples: Some(m),
        }
    }

    /// Add a CI condition to this rule.
    pub fn and_ci_at_most(mut self, eps: f64) -> Self {
        self.ci_at_most = Some(eps);
        self
    }

    /// Add a sample cap to this rule.
    pub fn and_max_samples(mut self, m: usize) -> Self {
        self.max_samples = Some(m);
        self
    }

    /// Does the rule fire on this snapshot?
    pub fn should_stop(&self, snapshot: &ProgressSnapshot) -> bool {
        if let Some(eps) = self.ci_at_most {
            // An unbounded half-width certifies nothing: it never
            // satisfies a CI target, even ε = ∞. An empty snapshot
            // (no clients) certifies trivially.
            match snapshot.max_halfwidth() {
                Some(h) if h.is_finite() && h <= eps => return true,
                None => return true,
                _ => {}
            }
        }
        if let Some(m) = self.max_samples {
            if snapshot.samples_used >= m {
                return true;
            }
        }
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn welford_matches_two_pass_moments() {
        let xs = [0.3, -1.2, 4.5, 0.0, 2.2, -0.7];
        let mut acc = Welford::new();
        for &x in &xs {
            acc.push(x);
        }
        let mean = xs.iter().sum::<f64>() / xs.len() as f64;
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (xs.len() - 1) as f64;
        assert!((acc.mean() - mean).abs() < 1e-12);
        let got = match acc.sample_variance() {
            Some(v) => v,
            None => panic!("six observations must yield a variance"),
        };
        assert!((got - var).abs() < 1e-12);
    }

    #[test]
    fn welford_single_sample_has_no_variance() {
        let mut acc = Welford::new();
        assert_eq!(acc.sample_variance(), None);
        acc.push(3.0);
        assert_eq!(acc.sample_variance(), None);
        assert_eq!(acc.count(), 1);
        assert!((acc.mean() - 3.0).abs() < 1e-15);
    }

    #[test]
    fn welford_constant_sequence_has_zero_variance() {
        let mut acc = Welford::new();
        for _ in 0..50 {
            acc.push(0.125);
        }
        assert_eq!(acc.sample_variance(), Some(0.0));
    }

    #[test]
    fn component_variance_conventions() {
        // m = 0: unbounded.
        assert_eq!(component_variance(&Welford::new(), 1.0, 10.0), None);
        // m = 1 < M: unbounded.
        let mut one = Welford::new();
        one.push(2.0);
        assert_eq!(component_variance(&one, 1.0, 10.0), None);
        // m = 1 = M: fully enumerated, zero.
        assert_eq!(component_variance(&one, 1.0, 1.0), Some(0.0));
        // zero variance: zero.
        let mut flat = Welford::new();
        flat.push(5.0);
        flat.push(5.0);
        assert_eq!(component_variance(&flat, 1.0, 100.0), Some(0.0));
        // m = M > 1: fully enumerated, zero even with spread.
        let mut full = Welford::new();
        full.push(1.0);
        full.push(3.0);
        assert_eq!(component_variance(&full, 1.0, 2.0), Some(0.0));
        // The generic case: w²·(s²/m)·(1 − m/M).
        let mut acc = Welford::new();
        for x in [1.0, 2.0, 3.0, 4.0] {
            acc.push(x);
        }
        let s2 = match acc.sample_variance() {
            Some(v) => v,
            None => panic!("four observations"),
        };
        let got = match component_variance(&acc, 0.5, 10.0) {
            Some(v) => v,
            None => panic!("bounded"),
        };
        let want = 0.25 * (s2 / 4.0) * (1.0 - 4.0 / 10.0);
        assert!((got - want).abs() < 1e-15);
        // Infinite population: FPC factor 1, never NaN.
        let inf = match component_variance(&acc, 0.5, f64::INFINITY) {
            Some(v) => v,
            None => panic!("bounded"),
        };
        assert!((inf - 0.25 * (s2 / 4.0)).abs() < 1e-15);
        assert!(!inf.is_nan());
    }

    #[test]
    fn halfwidth_combines_and_propagates_unbounded() {
        assert_eq!(halfwidth([Some(0.0), Some(0.0)]), 0.0);
        let hw = halfwidth([Some(0.04), Some(0.05)]);
        assert!((hw - Z_95 * 0.3).abs() < 1e-12);
        assert!(halfwidth([Some(0.01), None]).is_infinite());
        assert_eq!(halfwidth(std::iter::empty()), 0.0);
        assert!(!halfwidth([Some(0.0)]).is_nan());
    }

    #[test]
    fn stopping_rule_fires_on_either_condition() {
        let snap = ProgressSnapshot {
            values: vec![0.1, 0.2],
            ci_halfwidths: vec![0.03, 0.05],
            samples_used: 40,
            batches_done: 4,
            allocation: None,
        };
        assert_eq!(snap.max_halfwidth(), Some(0.05));
        assert!(!StoppingRule::stream_only().should_stop(&snap));
        assert!(StoppingRule::ci_at_most(0.05).should_stop(&snap));
        assert!(!StoppingRule::ci_at_most(0.04).should_stop(&snap));
        assert!(StoppingRule::max_samples(40).should_stop(&snap));
        assert!(!StoppingRule::max_samples(41).should_stop(&snap));
        assert!(StoppingRule::ci_at_most(0.001)
            .and_max_samples(10)
            .should_stop(&snap));
    }

    #[test]
    fn infinite_halfwidth_never_satisfies_ci_rule() {
        let snap = ProgressSnapshot {
            values: vec![0.0],
            ci_halfwidths: vec![f64::INFINITY],
            samples_used: 1,
            batches_done: 1,
            allocation: None,
        };
        assert!(!StoppingRule::ci_at_most(1e9).should_stop(&snap));
        assert!(
            !StoppingRule::ci_at_most(f64::INFINITY).should_stop(&snap),
            "even ε = ∞ is not certified by an unbounded CI"
        );
        assert!(snap.max_halfwidth().is_some_and(f64::is_infinite));
    }

    #[test]
    fn max_halfwidth_conventions() {
        let snap = |widths: Vec<f64>| ProgressSnapshot {
            values: vec![0.0; widths.len()],
            ci_halfwidths: widths,
            samples_used: 0,
            batches_done: 0,
            allocation: None,
        };
        // Empty values: nothing to certify, `None`.
        assert_eq!(snap(vec![]).max_halfwidth(), None);
        // All-zero widths survive as an exact Some(0.0), not None.
        assert_eq!(snap(vec![0.0, 0.0]).max_halfwidth(), Some(0.0));
        // ∞ propagates over any finite widths.
        let inf = snap(vec![0.01, f64::INFINITY, 0.3]).max_halfwidth();
        assert!(inf.is_some_and(f64::is_infinite));
        // The fold is NaN-free over the values halfwidth() can produce.
        let h = snap(vec![0.0, 0.25, f64::INFINITY]).max_halfwidth();
        assert!(h.is_some_and(|x| !x.is_nan()));
        assert_eq!(snap(vec![0.3, 0.1]).max_halfwidth(), Some(0.3));
    }
}
