//! The algorithm registry and measured execution — one place that knows
//! how to run all ten compared algorithms of Sec. V-A against a problem.

use std::time::Instant;

use rand::rngs::StdRng;
use rand::SeedableRng;

use fedval_core::baselines::{
    cc_shapley, extended_gtb_values, extended_tmc, CcShapConfig, GtbConfig, TmcConfig,
};
use fedval_core::coalition::{all_subsets, binom, Coalition};
use fedval_core::exact::{exact_mc_sv, exact_perm_sv, perm_sv_naive_evaluations};
use fedval_core::ipss::{ipss, IpssConfig};
use fedval_core::metrics::l2_relative_error;
use fedval_core::utility::{CachedUtility, ParallelUtility, TableUtility, Utility};
use fedval_core::valuation::{run_valuation, ValuationOutcome};
use fedval_fl::{train_coalition, FlUtility};

use crate::config::{base_seed, gamma_for, table_client_counts};
use crate::gradient::{
    dig_fl, gtg_shapley, lambda_mr, or_valuation, DigFlConfig, GtgConfig, LambdaMrConfig,
};
use crate::history::record_history;
use crate::problems::{NeuralProblem, Problem};
use crate::table::{fmt_err, fmt_secs, not_applicable, Table};

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

    /// Eq. 21's l2 relative error of `values` against `exact`; `None`
    /// for the exact methods (the "-" cells).
    pub fn error(self, values: &[f64], exact: &[f64]) -> Option<f64> {
        (!self.is_exact()).then(|| l2_relative_error(values, exact))
    }
}

/// The exact MC-SV ground truth, every coalition trained once through the
/// product's order-preserving fan-out (`ParallelUtility`, bit-identical to
/// the serial sweep). The returned memo holds all `2^n` values, so later
/// estimators over it measure error, not training time.
pub fn exact_sweep<P: Problem>(problem: &P) -> (Vec<f64>, CachedUtility<ParallelUtility<P::U>>) {
    let u = CachedUtility::new(ParallelUtility::new(problem.utility()));
    (exact_mc_sv(&u), u)
}

/// One run of a sampling or exact algorithm against `u` with budget
/// `gamma`: the one dispatch from [`Algorithm`] to the one-shot calls.
///
/// # Panics
/// For the gradient-based methods, which value a training history, not a
/// utility.
pub fn estimate<U: Utility + ?Sized>(
    algorithm: Algorithm,
    u: &U,
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
        _ => panic!("{} values a training history", algorithm.name()),
    }
}

/// The gradient-based methods: one recorded FedAvg run of the full
/// coalition, valued from its history.
fn gradient_values(algorithm: Algorithm, problem: &NeuralProblem, rng: &mut StdRng) -> Vec<f64> {
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
    let test = problem.test.clone();
    match algorithm {
        Algorithm::Or => or_valuation(&history, evaluator, test),
        Algorithm::LambdaMr => lambda_mr(&history, evaluator, test, &LambdaMrConfig::default()),
        Algorithm::GtgShapley => gtg_shapley(&history, evaluator, test, &GtgConfig::default(), rng),
        Algorithm::DigFl => dig_fl(&history, evaluator, &test, &test, &DigFlConfig::default()),
        _ => unreachable!("{} is not gradient-based", algorithm.name()),
    }
}

/// Run one algorithm against `problem` with budget `gamma` on a fresh
/// memo, timed end to end by `run_valuation` (for the gradient-based
/// methods that includes the FL training run they cannot exist without;
/// they evaluate no coalition). `None` where a gradient-based method does
/// not apply (Table V's "\\" cells).
pub fn run<P: Problem>(
    algorithm: Algorithm,
    problem: &P,
    gamma: usize,
    seed: u64,
) -> Option<ValuationOutcome> {
    let neural = if algorithm.is_gradient_based() {
        Some(problem.neural()?)
    } else {
        None
    };
    let mut rng = StdRng::seed_from_u64(seed);
    Some(run_valuation(problem.utility(), |u| match neural {
        Some(neural) => gradient_values(algorithm, neural, &mut rng),
        None => estimate(algorithm, u, gamma, &mut rng),
    }))
}

/// Table IV and both halves of Table V: every algorithm's Time(s) and
/// Error(l2) rows for each of [`table_client_counts`]. `problem(n, seed)`
/// builds a row's problem; `salt` separates the tables' sampling seeds.
/// Perm-Shapley runs over the memo, so its Time cell adds the naive
/// uncached cost `n!·Σ_s τ̂(s)`, as the paper reports it for large n.
/// Neural problems take τ̂ from [`TauModel::measure_full`], the solo
/// per-size τ̂ of Figs. 4 and 6, and their exact values from the same
/// trained table. GBDT problems have no lock-step training, so each
/// evaluation is one solo training and τ̂ is MC-Shapley's wall time per
/// evaluation.
pub fn comparison_table<P: Problem>(salt: u64, problem: impl Fn(usize, u64) -> P) -> Table {
    let seed = base_seed();
    let mut table = Table::new(
        ["n", "Metric"]
            .into_iter()
            .map(String::from)
            .chain(Algorithm::ALL.iter().map(|a| a.name().to_string())),
    );
    for n in table_client_counts() {
        let problem = problem(n, seed.wrapping_add(n as u64));
        let (exact, tau) = match problem.neural() {
            Some(neural) => {
                let (tau, table) = TauModel::measure_full(&neural.utility());
                (exact_mc_sv(&table), Some(tau.mean_tau()))
            }
            None => (exact_sweep(&problem).0, None),
        };
        let gamma = gamma_for(n);
        let runs: Vec<_> = Algorithm::ALL
            .iter()
            .map(|&alg| run(alg, &problem, gamma, seed ^ salt ^ n as u64))
            .collect();
        let tau = tau.unwrap_or_else(|| {
            Algorithm::ALL
                .iter()
                .zip(&runs)
                .find(|(&alg, _)| alg == Algorithm::McShapley)
                .and_then(|(_, r)| r.as_ref())
                .map_or(0.0, |r| {
                    r.wall_time.as_secs_f64() / r.model_evaluations.max(1) as f64
                })
        });
        let mut times = vec![n.to_string(), "Time(s)".to_string()];
        let mut errors = vec![n.to_string(), "Error(l2)".to_string()];
        for (&alg, r) in Algorithm::ALL.iter().zip(&runs) {
            let Some(r) = r else {
                times.push(not_applicable());
                errors.push(not_applicable());
                continue;
            };
            let secs = fmt_secs(r.wall_time.as_secs_f64());
            times.push(match alg {
                Algorithm::PermShapley => {
                    let naive = perm_sv_naive_evaluations(n) * tau.max(1e-9);
                    format!("{secs} (naive {naive:.1e})")
                }
                _ => secs,
            });
            errors.push(fmt_err(alg.error(&r.values, &exact)));
        }
        table.row(times);
        table.row(errors);
    }
    table
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
    /// Trains all `2^n` coalitions of `u` across the rayon pool, timing each as
    /// one full solo FedAvg training plus scoring
    /// ([`train_coalition`] + `accuracy`). No timing shares work with
    /// another — no round-0 table, no lane block — so `τ̂` does not depend
    /// on coalition order or on how they split across threads. Returns the
    /// per-size means and the trained values as a table, bit-identical to
    /// `u.eval`.
    pub fn measure_full(u: &FlUtility) -> (TauModel, TableUtility) {
        use rayon::prelude::*;
        let n = u.n_clients();
        let (input, classes) = (u.test_set().n_features(), u.test_set().n_classes());
        let coalitions: Vec<Coalition> = all_subsets(n).collect();
        let timed: Vec<(f64, f64)> = coalitions
            .par_iter()
            .map(|&c| {
                let start = Instant::now();
                let v = train_coalition(u.spec(), u.clients(), input, classes, c, u.config())
                    .accuracy(u.test_set());
                (start.elapsed().as_secs_f64(), v)
            })
            .collect();
        let mut secs = vec![0.0f64; n + 1];
        for (c, (t, _)) in coalitions.iter().zip(&timed) {
            secs[c.size()] += t;
        }
        // Every size 0..=n has C(n, s) ≥ 1 coalitions.
        let tau_by_size = (0..=n).map(|s| secs[s] / binom(n, s)).collect();
        let values = timed.into_iter().map(|(_, v)| v).collect();
        (TauModel { tau_by_size }, TableUtility::new(n, values))
    }

    /// Estimated cost of evaluating a set of coalitions.
    pub fn cost_of(&self, coalitions: &[Coalition]) -> f64 {
        coalitions.iter().map(|c| self.tau_by_size[c.size()]).sum()
    }

    /// Mean τ̂ over the coalition sizes.
    pub fn mean_tau(&self) -> f64 {
        self.tau_by_size.iter().sum::<f64>() / self.tau_by_size.len() as f64
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
mod tests {
    use super::*;
    use crate::problems::{adult_xgb, femnist, NeuralModel};

    #[test]
    fn all_algorithms_run_on_a_small_problem() {
        let problem = femnist(3, NeuralModel::Mlp, 7);
        let (exact, _) = exact_sweep(&problem);
        assert_eq!(exact.len(), 3);
        for alg in Algorithm::ALL {
            let result = run(alg, &problem, 5, 11).unwrap();
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
        for alg in Algorithm::ALL {
            let Some(r) = run(alg, &problem, 5, 1) else {
                assert!(alg.is_gradient_based(), "{}", alg.name());
                continue;
            };
            assert!(!alg.is_gradient_based(), "{}", alg.name());
            assert_eq!(r.values.len(), 3);
            let memo = CachedUtility::new(problem.utility());
            estimate(alg, &memo, 5, &mut StdRng::seed_from_u64(1));
            assert_eq!(
                r.model_evaluations,
                memo.stats().evaluations,
                "{}",
                alg.name()
            );
        }
    }

    fn assert_sweep_is_serial<P: Problem>(problem: &P) {
        let (fanned, _) = exact_sweep(problem);
        let serial = exact_mc_sv(&CachedUtility::new(problem.utility()));
        for (a, b) in fanned.iter().zip(&serial) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn exact_sweep_fans_out_to_the_serial_bits() {
        assert_sweep_is_serial(&femnist(3, NeuralModel::Mlp, 13));
        assert_sweep_is_serial(&femnist(3, NeuralModel::Cnn, 13));
        assert_sweep_is_serial(&adult_xgb(3, 13));
    }

    #[test]
    fn estimate_is_the_one_shot_call() {
        let u = TableUtility::from_fn(5, |s| (s.0 as f64 * 0.37).sin() + s.size() as f64);
        let gamma = 12;
        let rng = || StdRng::seed_from_u64(3);
        let direct = |alg| match alg {
            Algorithm::PermShapley => exact_perm_sv(&u),
            Algorithm::McShapley => exact_mc_sv(&u),
            Algorithm::ExtTmc => extended_tmc(&u, &TmcConfig::new(gamma), &mut rng()),
            Algorithm::ExtGtb => extended_gtb_values(&u, &GtbConfig::new(gamma), &mut rng()),
            Algorithm::CcShapley => cc_shapley(&u, &CcShapConfig::new(gamma), &mut rng()),
            Algorithm::Ipss => ipss(&u, &IpssConfig::new(gamma), &mut rng()),
            _ => unreachable!(),
        };
        let algs = [Algorithm::PermShapley, Algorithm::McShapley];
        for alg in algs.into_iter().chain(Algorithm::SAMPLING) {
            let ours = estimate(alg, &u, gamma, &mut rng());
            let theirs = direct(alg);
            assert_eq!(ours.len(), 5);
            for (a, b) in ours.iter().zip(&theirs) {
                assert_eq!(a.to_bits(), b.to_bits(), "{}", alg.name());
            }
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
