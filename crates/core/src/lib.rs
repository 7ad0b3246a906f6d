//! # fedval-core
//!
//! Shapley-value data valuation for federated learning — a Rust
//! implementation of *"Efficient Data Valuation Approximation in Federated
//! Learning: A Sampling-based Approach"* (Wei et al., ICDE 2025).
//!
//! The crate provides, over an abstract coalition [`utility::Utility`]:
//!
//! * exact computation under the three equivalent SV expressions
//!   ([`exact::exact_mc_sv`], [`exact::exact_cc_sv`], [`exact::exact_perm_sv`]);
//! * the unified stratified-sampling framework of Alg. 1
//!   ([`stratified::stratified_sampling`]) supporting both the MC-SV and
//!   CC-SV computation schemes;
//! * K-Greedy (Alg. 2, [`kgreedy::k_greedy`]) — the diagnostic that exposes
//!   the *key combinations* phenomenon;
//! * **IPSS** (Alg. 3, [`ipss::ipss`]) — the paper's importance-pruned
//!   stratified sampler;
//! * the sampling baselines of Sec. V ([`baselines`]): Extended-TMC,
//!   Extended-GTB and CC-Shapley;
//! * further valuation notions for cross-checks ([`banzhaf`], [`loo`],
//!   [`owen`]): Data-Banzhaf (exact and IPSS-pruned), leave-one-out and
//!   Owen multilinear sampling;
//! * the evaluation metrics of Sec. V-A ([`metrics`]), including the
//!   `l2` relative error (Eq. 21), property-based proxies (Fig. 9) and
//!   Pareto-front extraction (Fig. 8).
//!
//! Alg. 1, IPSS, pruned Banzhaf, Owen sampling and the exact sweep share
//! one estimator core ([`sampler`]): each is a schedule plus a prefix
//! fold behind the [`sampler::Sampler`] shape, run by one driver loop,
//! [`sampler::drive`]. Each estimator has one one-shot that returns its
//! values; a run streamed with confidence intervals ([`anytime`]), one
//! with the budget re-planned each round ([`adaptive`]), or one whose
//! schedule is inspected afterwards passes its sampler to `drive`.
//!
//! Real FL training lives in `fedval-fl`; the closed-form linear-regression
//! analysis (Lemma 1, Theorems 2–3) lives in `fedval-theory`. Everything
//! here is substrate-agnostic.
//!
//! ## Quick example
//!
//! ```
//! use fedval_core::prelude::*;
//! use rand::SeedableRng;
//!
//! // The paper's three-hospital example (Table I).
//! let utility = TableUtility::paper_table1();
//! let exact = exact_mc_sv(&utility);
//! assert!((exact[0] - 0.22).abs() < 1e-9);
//!
//! // IPSS with the budget the paper uses for n = 3 (Table III: γ = 5).
//! let mut rng = rand::rngs::StdRng::seed_from_u64(7);
//! let approx = ipss(&utility, &IpssConfig::new(5), &mut rng);
//! let err = l2_relative_error(&approx, &exact);
//! assert!(err < 0.5);
//! ```

// Estimator code: a `for` over a hash container visits in arbitrary
// order, and an f64 fold in that order moves bits (clippy.toml bans the
// iteration methods).
#![deny(clippy::iter_over_hash_type)]

pub mod adaptive;
pub mod anytime;
pub mod banzhaf;
pub mod baselines;
pub mod coalition;
pub mod exact;
pub mod fault;
pub mod ipss;
pub mod kgreedy;
pub mod loo;
pub mod metrics;
pub mod owen;
pub mod sampler;
pub mod sampling;
pub mod service;
pub mod stratified;
pub mod utility;
pub mod valuation;

/// Convenient re-exports of the most commonly used items.
pub mod prelude {
    pub use crate::adaptive::{AdaptivePolicy, AllocationPlanner, ComponentState};
    pub use crate::anytime::{Control, ProgressSnapshot, StoppingRule, Welford, Z_95};
    pub use crate::banzhaf::{banzhaf_pruned, exact_banzhaf};
    pub use crate::baselines::{
        cc_shapley, extended_gtb_values, extended_tmc, CcShapConfig, GtbConfig, TmcConfig,
    };
    pub use crate::coalition::{binom, binom_u128, subsets_up_to, Coalition};
    pub use crate::exact::{exact_cc_sv, exact_mc_sv, exact_perm_sv, ExactSweep};
    pub use crate::ipss::{compute_k_star, ipss, IpssConfig, IpssWeighting, PrunedSampler};
    pub use crate::kgreedy::{k_greedy, k_greedy_evaluations};
    pub use crate::loo::leave_one_out;
    pub use crate::metrics::{kendall_tau, l2_relative_error, pareto_front, property_error};
    pub use crate::owen::{owen_sampling, OwenConfig, OwenSampler};
    pub use crate::sampler::{drive, Sampler};
    pub use crate::service::{
        partial_prefix_fold, Estimator, FlushWindow, LimitPolicy, RetryPolicy, RunStats,
        ServiceStats, Ticket, ValuationError, ValuationRequest, ValuationResponse, ValuationServer,
    };
    pub use crate::stratified::{stratified_sampling, Scheme, StratifiedConfig, StratifiedSampler};
    pub use crate::utility::{
        AdditiveUtility, CachedUtility, EvalStats, HashUtility, NoisyUtility, ParallelUtility,
        SaturatingUtility, TableUtility, TrajCacheStats, Utility,
    };
    pub use crate::valuation::{run_valuation, ValuationOutcome};
}
