//! # fedval-theory
//!
//! The paper's theoretical apparatus, in executable form:
//!
//! * [`donahue`] — the Donahue–Kleinberg expected-MSE model (Eq. 12–13),
//!   Lemma 1's expected Shapley value, and Theorem 3's truncation-error
//!   bound for IPSS;
//! * [`linreg`] — a closed-form FL linear-regression utility with
//!   negative test MSE, matching Lemma 1 and Theorem 3's assumptions (fast
//!   enough for tens of thousands of coalition evaluations);
//! * [`variance`] — Theorem 2's MC-vs-CC variance comparison, analytic
//!   (Eqs. 9–11) and Monte-Carlo (the Fig. 10 experiment), on the
//!   training-error utility of Eq. 8.
//!
//! The crate builds on `fedval-core` and re-exports none of it: the
//! anytime CI machinery is `fedval_core::anytime`.

pub mod donahue;
pub mod linreg;
pub mod variance;

pub use donahue::{
    expected_coalition_mse, expected_mse, lemma1_expected_sv, theorem3_asymptotic,
    theorem3_error_bound, truncated_expected_sv,
};
pub use linreg::{fit_ols, generate_regression, LinRegUtility, RegressionData};
pub use variance::{
    analytic_var_cc, analytic_var_mc, estimator_variance_over_runs, TrainingErrorUtility,
};
