//! Table V — end-to-end comparison on Adult-like tabular data:
//! {MLP, XGB} × n ∈ {3, 6, 10}. Gradient-based algorithms are not
//! applicable to the tree model (the "\\" cells).
//!
//! Paper shape: IPSS fastest at n = 10 and lowest error throughout; on
//! XGB it is 10–30× faster than the other sampling baselines at n = 10.

use fedval_bench::{adult_mlp, adult_xgb, comparison_table};

fn main() {
    comparison_table(0x7AB, adult_mlp).print("Table V — Adult-like, MLP model");
    comparison_table(0x7AC, adult_xgb)
        .print("Table V — Adult-like, XGB model (\\ = not applicable)");
}
