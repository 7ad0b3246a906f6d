//! # fedval-theory
//!
//! The paper's theoretical apparatus, in executable form:
//!
//! * [`donahue`] — the Donahue–Kleinberg expected-MSE model (Eq. 12–13),
//!   Lemma 1's expected Shapley value, and Theorem 3's truncation-error
//!   bound for IPSS;
//! * [`linreg`] — a closed-form FL linear-regression utility matching the
//!   theorems' assumptions (fast enough for tens of thousands of coalition
//!   evaluations);
//! * [`variance`] — Theorem 2's MC-vs-CC variance comparison, analytic
//!   (Eqs. 9–11) and Monte-Carlo (the Fig. 10 experiment).

pub mod donahue;
pub mod linreg;
pub mod variance;

pub use donahue::{
    expected_coalition_mse, expected_mse, lemma1_expected_sv, theorem3_asymptotic,
    theorem3_error_bound, truncated_expected_sv,
};
pub use linreg::{fit_ols, generate_regression, ErrorMetric, LinRegUtility, RegressionData};
pub use variance::{
    analytic_var_cc, analytic_var_mc, component_variance, estimator_variance_over_runs, halfwidth,
    ProgressSnapshot, StoppingRule, TrainingErrorUtility, Welford, Z_95,
};
