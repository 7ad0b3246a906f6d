//! Uniform result type and timing helper shared by the experiment harness
//! and the examples.

use std::time::{Duration, Instant};

use crate::utility::{CachedUtility, EvalStats, Utility};

/// The outcome of running one valuation algorithm against one utility.
#[derive(Clone, Debug)]
pub struct ValuationOutcome {
    /// Estimated (or exact) data values `ϕ_1..ϕ_n`.
    pub values: Vec<f64>,
    /// Distinct model train+evaluate cycles consumed.
    pub model_evaluations: usize,
    /// Wall-clock time of the whole run (sampling + training + estimation),
    /// the paper's *Calculation Time* metric.
    pub wall_time: Duration,
    /// Wall-clock time spent purely inside utility evaluation.
    pub utility_time: Duration,
}

impl ValuationOutcome {
    /// Fraction of total value assigned to client `i` (handy for payout
    /// examples); `None` when the total is not positive.
    pub fn share(&self, i: usize) -> Option<f64> {
        let total: f64 = self.values.iter().sum();
        (total > 0.0).then(|| self.values[i] / total)
    }
}

/// Run `algo` against a fresh cache around `utility`, measuring wall time
/// and distinct evaluations.
///
/// Each invocation uses its own [`CachedUtility`] so algorithms are charged
/// for every distinct coalition they touch, matching the paper's accounting
/// where the dominant cost `τ` is FL training per combination.
pub fn run_valuation<U, F>(utility: U, algo: F) -> ValuationOutcome
where
    U: Utility,
    F: FnOnce(&CachedUtility<U>) -> Vec<f64>,
{
    let cached = CachedUtility::new(utility);
    #[expect(
        clippy::disallowed_methods,
        reason = "ValuationOutcome::wall_time is a reported metric only; the values never depend on it"
    )]
    let start = Instant::now();
    let values = algo(&cached);
    let wall_time = start.elapsed();
    let EvalStats {
        evaluations,
        eval_time,
        ..
    } = cached.stats();
    ValuationOutcome {
        values,
        model_evaluations: evaluations,
        wall_time,
        utility_time: eval_time,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exact::exact_mc_sv;
    use crate::utility::TableUtility;

    #[test]
    fn run_valuation_measures_evaluations() {
        let out = run_valuation(TableUtility::paper_table1(), exact_mc_sv);
        assert_eq!(out.model_evaluations, 8, "exact SV touches all 2^3 subsets");
        assert_eq!(out.values.len(), 3);
        assert!(out.wall_time >= out.utility_time);
    }

    #[test]
    fn shares_sum_to_one() {
        let out = run_valuation(TableUtility::paper_table1(), exact_mc_sv);
        let total: f64 = (0..3).map(|i| out.share(i).unwrap()).sum();
        assert!((total - 1.0).abs() < 1e-12);
    }

    #[test]
    fn share_none_for_nonpositive_total() {
        let out = ValuationOutcome {
            values: vec![-1.0, 0.5],
            model_evaluations: 0,
            wall_time: Duration::ZERO,
            utility_time: Duration::ZERO,
        };
        assert!(out.share(0).is_none());
    }
}
