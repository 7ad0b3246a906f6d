//! The algorithm registry and measured execution — one place that knows
//! how to run all ten compared algorithms of Sec. V-A against a problem.

use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::SeedableRng;

use fedval_core::baselines::{
    cc_shapley, extended_gtb_values, extended_tmc, CcShapConfig, GtbConfig, TmcConfig,
};
use fedval_core::coalition::{all_subsets, Coalition};
use fedval_core::exact::{exact_mc_sv, exact_perm_sv};
use fedval_core::ipss::{ipss, IpssConfig};
use fedval_core::utility::{CachedUtility, TableUtility, Utility};
use fedval_fl::{train_coalition, FlUtility};

use crate::gradient::{
    dig_fl, gtg_shapley, lambda_mr, or_valuation, DigFlConfig, GtgConfig, LambdaMrConfig,
};
use crate::history::record_history;
use crate::problems::{GbdtProblem, NeuralProblem};

/// The ten algorithms of the paper's comparison (Sec. V-A).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Algorithm {
    /// Exact SV by permutation enumeration.
    PermShapley,
    /// Exact SV by the MC-SV definition.
    McShapley,
    /// Wang et al. ICDE'22 — per-round validation-gradient projections.
    DigFl,
    /// Extended Truncated Monte Carlo (Ghorbani & Zou).
    ExtTmc,
    /// Extended Group Testing Based (Jia et al.).
    ExtGtb,
    /// Zhang et al. SIGMOD'23 complementary contributions.
    CcShapley,
    /// Liu et al. TIST'22 guided truncated gradient Shapley.
    GtgShapley,
    /// Song et al. BigData'19 gradient reconstruction.
    Or,
    /// Wei et al. — per-round MC-SV over reconstructions.
    LambdaMr,
    /// This paper: Importance-Pruned Stratified Sampling.
    Ipss,
}

impl Algorithm {
    /// All algorithms in the paper's column order (Table IV).
    pub const ALL: [Algorithm; 10] = [
        Algorithm::PermShapley,
        Algorithm::McShapley,
        Algorithm::DigFl,
        Algorithm::ExtTmc,
        Algorithm::ExtGtb,
        Algorithm::CcShapley,
        Algorithm::GtgShapley,
        Algorithm::Or,
        Algorithm::LambdaMr,
        Algorithm::Ipss,
    ];

    /// The sampling-based subset compared in Figs. 7–9.
    pub const SAMPLING: [Algorithm; 4] = [
        Algorithm::ExtTmc,
        Algorithm::ExtGtb,
        Algorithm::CcShapley,
        Algorithm::Ipss,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Algorithm::PermShapley => "Perm-Shap.",
            Algorithm::McShapley => "MC-Shap.",
            Algorithm::DigFl => "DIG-FL",
            Algorithm::ExtTmc => "Ext-TMC",
            Algorithm::ExtGtb => "Ext-GTB",
            Algorithm::CcShapley => "CC-Shap.",
            Algorithm::GtgShapley => "GTG-Shap.",
            Algorithm::Or => "OR",
            Algorithm::LambdaMr => "λ-MR",
            Algorithm::Ipss => "IPSS",
        }
    }

    /// Exact methods have no approximation error (the "-" cells).
    pub fn is_exact(self) -> bool {
        matches!(self, Algorithm::PermShapley | Algorithm::McShapley)
    }

    /// Gradient-based methods need the FL training history and are not
    /// applicable to non-parametric models (the "\\" cells of Table V).
    pub fn is_gradient_based(self) -> bool {
        matches!(
            self,
            Algorithm::DigFl | Algorithm::GtgShapley | Algorithm::Or | Algorithm::LambdaMr
        )
    }
}

/// One algorithm's measured run.
#[derive(Clone, Debug)]
pub struct RunResult {
    pub algorithm: Algorithm,
    pub values: Vec<f64>,
    pub wall: Duration,
    /// Distinct FL train+evaluate cycles (sampling methods) — 0 where the
    /// notion does not apply (gradient methods reuse one training run).
    pub evaluations: usize,
}

impl RunResult {
    pub fn seconds(&self) -> f64 {
        self.wall.as_secs_f64()
    }
}

/// Pre-evaluate a set of coalitions in parallel across threads, filling
/// the shared cache. The sharded `CachedUtility` is hammered from
/// `current_num_threads` scoped threads directly: the shards absorb the
/// write contention and each distinct coalition is trained and counted
/// exactly once. Parallelism note: every later read is a cache hit, so
/// the wall time of the *algorithm* measured afterwards reflects the
/// paper's sequential accounting only when prefill is *not* used; use
/// this only for ground-truth computation, never inside a timed run.
pub fn parallel_prefill<U: Utility + Sync>(u: &CachedUtility<U>, coalitions: &[Coalition]) {
    let threads = rayon::current_num_threads().min(coalitions.len().max(1));
    if threads <= 1 {
        let _ = u.eval_batch(coalitions);
        return;
    }
    std::thread::scope(|scope| {
        for chunk in coalitions.chunks(coalitions.len().div_ceil(threads)) {
            scope.spawn(move || {
                let _ = u.eval_batch(chunk);
            });
        }
    });
}

/// Exact ground-truth MC-SV for a neural problem (parallel pre-fill over
/// all `2^n` coalitions, then the exact pass over the cache).
pub fn exact_values_neural(problem: &NeuralProblem) -> Vec<f64> {
    let u = CachedUtility::new(problem.utility());
    let coalitions: Vec<Coalition> = all_subsets(problem.n()).collect();
    parallel_prefill(&u, &coalitions);
    exact_mc_sv(&u)
}

/// Exact ground-truth MC-SV for a GBDT problem.
pub fn exact_values_gbdt(problem: &GbdtProblem) -> Vec<f64> {
    let u = CachedUtility::new(problem.utility());
    let coalitions: Vec<Coalition> = all_subsets(problem.n()).collect();
    parallel_prefill(&u, &coalitions);
    exact_mc_sv(&u)
}

/// Run one algorithm against a neural problem with budget `gamma`,
/// measuring wall time end to end (including the FL training run for the
/// gradient-based methods, which cannot exist without it).
pub fn run_neural(
    algorithm: Algorithm,
    problem: &NeuralProblem,
    gamma: usize,
    seed: u64,
) -> RunResult {
    let start = Instant::now();
    let mut rng = StdRng::seed_from_u64(seed);
    let (values, evaluations) = if algorithm.is_gradient_based() {
        let input = problem.test.n_features();
        let classes = problem.test.n_classes();
        let history = record_history(
            &problem.spec,
            &problem.clients,
            input,
            classes,
            &problem.fed,
        );
        let evaluator = problem.spec.build(input, classes, 0);
        let values = match algorithm {
            Algorithm::Or => or_valuation(&history, evaluator, problem.test.clone()),
            Algorithm::LambdaMr => lambda_mr(
                &history,
                evaluator,
                problem.test.clone(),
                &LambdaMrConfig::default(),
            ),
            Algorithm::GtgShapley => gtg_shapley(
                &history,
                evaluator,
                problem.test.clone(),
                &GtgConfig::default(),
                &mut rng,
            ),
            Algorithm::DigFl => dig_fl(
                &history,
                evaluator,
                &problem.test,
                &problem.test,
                &DigFlConfig::default(),
            ),
            _ => unreachable!(),
        };
        (values, 0)
    } else {
        let u = CachedUtility::new(problem.utility());
        let values = run_sampling_or_exact(algorithm, &u, gamma, &mut rng);
        let evals = u.stats().evaluations;
        (values, evals)
    };
    RunResult {
        algorithm,
        values,
        wall: start.elapsed(),
        evaluations,
    }
}

/// Run one algorithm against a GBDT problem; `None` for gradient-based
/// algorithms (not applicable — Table V's "\\" cells).
pub fn run_gbdt(
    algorithm: Algorithm,
    problem: &GbdtProblem,
    gamma: usize,
    seed: u64,
) -> Option<RunResult> {
    if algorithm.is_gradient_based() {
        return None;
    }
    let start = Instant::now();
    let mut rng = StdRng::seed_from_u64(seed);
    let u = CachedUtility::new(problem.utility());
    let values = run_sampling_or_exact(algorithm, &u, gamma, &mut rng);
    Some(RunResult {
        algorithm,
        values,
        wall: start.elapsed(),
        evaluations: u.stats().evaluations,
    })
}

fn run_sampling_or_exact<U: Utility>(
    algorithm: Algorithm,
    u: &CachedUtility<U>,
    gamma: usize,
    rng: &mut StdRng,
) -> Vec<f64> {
    match algorithm {
        Algorithm::PermShapley => exact_perm_sv(u),
        Algorithm::McShapley => exact_mc_sv(u),
        Algorithm::ExtTmc => extended_tmc(u, &TmcConfig::new(gamma), rng),
        Algorithm::ExtGtb => extended_gtb_values(u, &GtbConfig::new(gamma), rng),
        Algorithm::CcShapley => cc_shapley(u, &CcShapConfig::new(gamma), rng),
        Algorithm::Ipss => ipss(u, &IpssConfig::new(gamma), rng),
        _ => unreachable!("gradient-based algorithms handled separately"),
    }
}

/// Per-coalition-size mean training+evaluation time `τ̂(|S|)`, measured by
/// timing every coalition's training once. Enables the τ-cost-model
/// accounting of Sec. IV-C: an algorithm's time is
/// `Σ_{S evaluated} τ(|S|)` — the quantity the paper's Time(s) columns
/// measure, without re-training coalitions per algorithm.
pub struct TauModel {
    /// Mean seconds per evaluation, indexed by coalition size.
    pub tau_by_size: Vec<f64>,
}

impl TauModel {
    /// Trains all `2^n` coalitions of `u` (in parallel), timing each as
    /// one full solo FedAvg training plus scoring
    /// ([`train_coalition`] + `accuracy`). No timing shares work with
    /// another — no round-0 table, no lane block — so `τ̂` does not depend
    /// on coalition order or on how they split across threads. Returns the
    /// per-size means and the trained values as a table, bit-identical to
    /// `u.eval`.
    pub fn measure_full(u: &FlUtility) -> (TauModel, TableUtility) {
        use std::sync::Mutex;
        let n = u.n_clients();
        let (input, classes) = (u.test_set().n_features(), u.test_set().n_classes());
        let coalitions: Vec<Coalition> = all_subsets(n).collect();
        let acc = Mutex::new((
            vec![0.0f64; n + 1],
            vec![0usize; n + 1],
            vec![0.0f64; coalitions.len()],
        ));
        let threads = std::thread::available_parallelism()
            .map(|t| t.get())
            .unwrap_or(4)
            .min(coalitions.len());
        std::thread::scope(|scope| {
            for chunk in coalitions.chunks(coalitions.len().div_ceil(threads)) {
                let acc = &acc;
                scope.spawn(move || {
                    let mut local_secs = vec![0.0f64; n + 1];
                    let mut local_counts = vec![0usize; n + 1];
                    let mut local_values = Vec::with_capacity(chunk.len());
                    for &c in chunk {
                        let start = Instant::now();
                        let v =
                            train_coalition(u.spec(), u.clients(), input, classes, c, u.config())
                                .accuracy(u.test_set());
                        local_secs[c.size()] += start.elapsed().as_secs_f64();
                        local_counts[c.size()] += 1;
                        local_values.push((c.0 as usize, v));
                    }
                    let mut guard = acc
                        .lock()
                        .unwrap_or_else(std::sync::PoisonError::into_inner);
                    for s in 0..=n {
                        guard.0[s] += local_secs[s];
                        guard.1[s] += local_counts[s];
                    }
                    for (mask, v) in local_values {
                        guard.2[mask] = v;
                    }
                });
            }
        });
        let (secs, counts, values) = acc
            .into_inner()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        let tau_by_size = secs
            .iter()
            .zip(&counts)
            .map(|(s, &c)| if c > 0 { s / c as f64 } else { 0.0 })
            .collect();
        (TauModel { tau_by_size }, TableUtility::new(n, values))
    }

    /// Estimated cost of evaluating a set of coalitions.
    pub fn cost_of<'a, I: IntoIterator<Item = &'a Coalition>>(&self, coalitions: I) -> f64 {
        coalitions
            .into_iter()
            .map(|c| self.tau_by_size[c.size().min(self.tau_by_size.len() - 1)])
            .sum()
    }

    /// Overall mean τ across all sizes with data.
    pub fn mean_tau(&self) -> f64 {
        let nonzero: Vec<f64> = self
            .tau_by_size
            .iter()
            .copied()
            .filter(|&t| t > 0.0)
            .collect();
        if nonzero.is_empty() {
            0.0
        } else {
            nonzero.iter().sum::<f64>() / nonzero.len() as f64
        }
    }
}

/// Utility wrapper recording which *distinct* coalitions an algorithm
/// evaluates, for τ-cost-model time estimates against a warm cache.
pub struct RecordingUtility<'a, U: Utility> {
    inner: &'a U,
    seen: std::sync::Mutex<std::collections::HashSet<u128>>,
}

impl<'a, U: Utility> RecordingUtility<'a, U> {
    pub fn new(inner: &'a U) -> Self {
        RecordingUtility {
            inner,
            seen: std::sync::Mutex::new(std::collections::HashSet::new()),
        }
    }

    /// The distinct coalitions evaluated so far.
    pub fn recorded(&self) -> Vec<Coalition> {
        self.seen
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .iter()
            .map(|&m| Coalition(m))
            .collect()
    }
}

impl<U: Utility> Utility for RecordingUtility<'_, U> {
    fn n_clients(&self) -> usize {
        self.inner.n_clients()
    }
    fn eval(&self, s: Coalition) -> f64 {
        self.seen
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .insert(s.0);
        self.inner.eval(s)
    }
}

#[cfg(test)]
// Tests assert invariants; an unwrap that trips IS the test failing.
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use crate::problems::{adult_xgb, femnist, NeuralModel};
    use fedval_core::metrics::l2_relative_error;

    #[test]
    fn all_algorithms_run_on_a_small_problem() {
        let problem = femnist(3, NeuralModel::Mlp, 7);
        let exact = exact_values_neural(&problem);
        assert_eq!(exact.len(), 3);
        for alg in Algorithm::ALL {
            let result = run_neural(alg, &problem, 5, 11);
            assert_eq!(result.values.len(), 3, "{}", alg.name());
            if alg.is_exact() {
                let err = l2_relative_error(&result.values, &exact);
                assert!(err < 1e-9, "{} error {err}", alg.name());
            }
        }
    }

    #[test]
    fn gbdt_skips_gradient_methods() {
        let problem = adult_xgb(3, 9);
        assert!(run_gbdt(Algorithm::Or, &problem, 5, 1).is_none());
        assert!(run_gbdt(Algorithm::DigFl, &problem, 5, 1).is_none());
        let r = run_gbdt(Algorithm::Ipss, &problem, 5, 1).unwrap();
        assert_eq!(r.values.len(), 3);
        assert!(r.evaluations <= 5);
    }

    #[test]
    fn prefill_matches_sequential_evaluation() {
        let problem = femnist(3, NeuralModel::Mlp, 13);
        let parallel = exact_values_neural(&problem);
        let u = CachedUtility::new(problem.utility());
        let sequential = exact_mc_sv(&u);
        for (a, b) in parallel.iter().zip(&sequential) {
            assert!((a - b).abs() < 1e-12);
        }
    }

    #[test]
    fn tau_model_tables_the_values_eval_returns() {
        let problem = femnist(3, NeuralModel::Mlp, 17);
        let u = problem.utility();
        let (tau, table) = TauModel::measure_full(&u);
        assert_eq!(tau.tau_by_size.len(), 4);
        assert!(
            tau.tau_by_size.iter().all(|&t| t > 0.0),
            "{:?}",
            tau.tau_by_size
        );
        for s in all_subsets(3) {
            assert_eq!(table.eval(s).to_bits(), u.eval(s).to_bits(), "{s:?}");
        }
    }
}
