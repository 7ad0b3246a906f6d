//! # fedval-bench
//!
//! The experiment harness regenerating every table and figure of the IPSS
//! paper, one target per figure or table, named after it. Each
//! `cargo bench` target under `benches/` is a `harness = false` binary
//! that prints the same rows/series its paper counterpart reports as
//! text tables; it writes no files. Performance is measured in one place
//! only: the ledger under `benchmark/` (`benchmark/run.sh`), whose
//! per-layer metrics cover the core estimators and the FL kernels.
//!
//! Every artefact runs through [`runner`]: [`run`] times one algorithm on a
//! fresh memo, [`estimate`] is the one dispatch to the estimators,
//! [`exact_sweep`] trains the exact ground truth across the rayon pool, and
//! [`comparison_table`] prints Tables IV and V.
//!
//! The gradient-based baselines of Table IV live here, next to the runs
//! that use them: [`history`] records a full-coalition FedAvg run through
//! `fedval_fl::train_coalition_observed`, and [`gradient`] values the
//! clients from that record (OR, λ-MR, GTG-Shapley, DIG-FL).
//!
//! Environment knobs: `FEDVAL_QUICK=1` shrinks every experiment,
//! `FEDVAL_SEED=<u64>` changes the base seed.

pub mod config;
pub mod gradient;
pub mod history;
pub mod problems;
pub mod runner;
pub mod table;

pub use config::{base_seed, gamma_for, quick, table_client_counts};
pub use problems::{
    adult_mlp, adult_xgb, femnist, mnist_synthetic, scalability, GbdtProblem, NeuralModel,
    NeuralProblem, Problem,
};
pub use runner::{
    comparison_table, estimate, exact_sweep, run, Algorithm, RecordingUtility, TauModel,
};
pub use table::{fmt_err, fmt_secs, Table};
