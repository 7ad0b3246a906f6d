//! Table IV — end-to-end comparison on FEMNIST-like data: all ten
//! algorithms × {MLP, CNN} × n ∈ {3, 6, 10}, reporting Time(s) and
//! Error(l2) against the exact MC-SV ground truth.
//!
//! Perm-Shapley is executed over the shared utility cache (all 2^n models
//! are trained once); the paper's headline blow-up comes from *uncached*
//! permutation walks, so the table also prints the extrapolated naive time
//! `n!·Σ_s τ̂(s)` from the solo per-size τ̂, mirroring the paper's
//! 10⁹-second entries.

use fedval_bench::{comparison_table, femnist, NeuralModel};

fn main() {
    for model in [NeuralModel::Mlp, NeuralModel::Cnn] {
        comparison_table(0xBEEF, |n, seed| femnist(n, model, seed)).print(&format!(
            "Table IV — FEMNIST-like, {} model (γ per Table III)",
            model.name()
        ));
    }
}
