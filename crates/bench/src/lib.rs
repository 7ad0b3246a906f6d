//! # fedval-bench
//!
//! The experiment harness regenerating every table and figure of the IPSS
//! paper, one target per figure or table, named after it. Each
//! `cargo bench` target under `benches/` is a `harness = false` binary
//! that prints the same rows/series its paper counterpart reports. Performance is measured in
//! one place only: the ledger under `benchmark/` (`benchmark/run.sh`),
//! whose per-layer metrics cover the core estimators and the FL kernels.
//!
//! Environment knobs: `FEDVAL_QUICK=1` shrinks every experiment,
//! `FEDVAL_SEED=<u64>` changes the base seed.

pub mod config;
pub mod problems;
pub mod report;
pub mod runner;
pub mod table;

pub use config::{base_seed, gamma_for, quick};
pub use problems::{
    adult_mlp, adult_xgb, femnist, mnist_synthetic, scalability, GbdtProblem, NeuralModel,
    NeuralProblem,
};
pub use report::{ExperimentReport, Measurement};
pub use runner::{
    exact_values_gbdt, exact_values_neural, parallel_prefill, run_gbdt, run_neural, Algorithm,
    RunResult,
};
pub use table::{fmt_err, fmt_secs, not_applicable, Table};
