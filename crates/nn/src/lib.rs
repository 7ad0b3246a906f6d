//! # fedval-nn
//!
//! Minimal neural-network substrate with manual backpropagation, built for
//! the FL experiments of the IPSS paper. The paper's implementation uses
//! TensorFlow 2.4; mature Rust DL stacks (candle/burn) are not yet suited
//! to these FL experiments, so this crate provides exactly what the
//! experiments need (substitution rationale in DESIGN.md §2):
//!
//! * [`layers`] — `Dense`, `ReLU`, `Conv2d`, `MaxPool2` with hand-written
//!   backward passes (finite-difference-checked in tests);
//! * [`network::Network`] — sequential container with SGD training,
//!   accuracy/loss evaluation and **flat parameter (de)serialisation**, the
//!   representation FedAvg aggregates and the gradient-based valuation
//!   baselines reconstruct models from;
//! * [`lanes`] — [`lanes::MultiNetwork`]: `B` parameter lanes of one
//!   architecture advanced in lock-step through shared mini-batches, each
//!   lane bit-identical to a solo [`network::Network`] run (the substrate
//!   of multi-coalition FedAvg training);
//! * [`linalg`] — the dense kernels every layer and the FL engine's
//!   parameter arithmetic call: one path, bit-stable across commits;
//! * [`models`] — the experiment model families: `mlp`, `cnn`, `linear`.

pub mod backend;
pub mod lanes;
pub mod layers;
pub mod linalg;
pub mod loss;
pub mod models;
pub mod network;

pub use backend::Backend;
pub use lanes::{LaneLayer, LaneTensor, MultiNetwork};
pub use models::{cnn, default_mlp, linear, mlp};
pub use network::Network;
