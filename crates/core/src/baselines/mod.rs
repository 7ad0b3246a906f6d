//! Sampling-based baseline estimators compared against IPSS in Sec. V:
//! Extended-TMC (truncated Monte Carlo over permutations), Extended-GTB
//! (group testing) and CC-Shapley (complementary contributions).
//!
//! The gradient-based baselines (OR, λ-MR, GTG-Shapley, DIG-FL) need access
//! to the FL training history and therefore live in `fedval-bench`, next to
//! the Table IV runs that use them.

pub mod ccshap;
pub mod gtb;
pub mod tmc;

pub use ccshap::{cc_shapley, CcShapConfig};
pub use gtb::{extended_gtb_values, GtbConfig};
pub use tmc::{extended_tmc, TmcConfig};
