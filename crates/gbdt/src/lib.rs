//! # fedval-gbdt
//!
//! Histogram-based gradient-boosted decision trees — the XGBoost
//! substitute used as the FL model for the tabular experiments of the IPSS
//! paper (Table V). Cross-silo federated training of tree ensembles is
//! simulated by training on the union of the coalition's datasets, which
//! matches the utility semantics `U(M_S)` (see "Deviations from the
//! paper" in ARCHITECTURE.md).
//!
//! * [`tree`] — regression trees with histogram split finding;
//! * [`boost::Gbdt`] — binary classifier boosted with logistic loss.

pub mod boost;
pub mod tree;

pub use boost::{Gbdt, GbdtMulti, GbdtParams};
pub use tree::{BinningSpec, Tree, TreeParams};
