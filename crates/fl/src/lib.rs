//! # fedval-fl
//!
//! The federated-learning engine of the IPSS reproduction:
//!
//! * [`fedavg`] — the FedAvg loop (Def. 1, every member trains every
//!   round) over arbitrary coalitions:
//!   [`fedavg::train_coalitions`] trains `B` coalition models in lock-step
//!   (one data pass, per-coalition parameter lanes; round 0, where every
//!   lane starts at the init, trains once per client and nothing later is
//!   shared) bit-identically to the solo [`fedavg::train_coalition`]
//!   reference loop, with deterministic per-coalition seeding;
//!   [`fedavg::train_coalition_observed`] shows an observer every local
//!   update of that loop;
//! * [`utility`] — [`utility::FlUtility`] (FedAvg + neural models) and
//!   [`utility::GbdtUtility`] (pooled XGBoost-style training), the real
//!   `U(M_S)` behind every experiment;
//! * [`trajcache`] — the round-0 trajectory table: one set-once slot per
//!   client holding its round-0 local-training update (every coalition
//!   starts from the one server init), so exhaustive sweeps pay round 0
//!   once per client per utility instead of once per lane block, in at
//!   most `n · p · 4` bytes;
//! * [`service`] — the valuation service over an [`utility::FlUtility`].
//!
//! The gradient-based baselines of Sec. V-A (OR, λ-MR, GTG-Shapley,
//! DIG-FL) and the training history they replay live in the `fedval-bench`
//! harness, next to the Table IV runs that use them.
//!
//! The paper's multi-process gRPC simulation is replaced by in-process
//! clients with the same message flow (see "Deviations from the paper" in
//! ARCHITECTURE.md).

// Estimator code: a `for` over a hash container visits in arbitrary
// order, and an f64 fold in that order moves bits (clippy.toml bans the
// iteration methods).
#![deny(clippy::iter_over_hash_type)]

pub mod config;
pub mod fedavg;
pub mod model;
pub mod service;
pub mod trajcache;
pub mod utility;

pub use config::FedAvgConfig;
pub use fedavg::{
    train_coalition, train_coalition_observed, train_coalitions, train_coalitions_params,
    train_coalitions_params_with_cache,
};
pub use model::ModelSpec;
pub use service::{serve, FlServiceConfig, FlValuationServer};
pub use trajcache::{TrajCacheStats, TrajectoryCache};
pub use utility::{FlUtility, GbdtUtility};
