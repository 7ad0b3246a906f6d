//! Experiment configuration shared by every bench target.
//!
//! * `FEDVAL_QUICK=1` — shrink every experiment (fewer clients, reps and
//!   samples) for smoke runs;
//! * `FEDVAL_SEED=<u64>` — base seed (default 42).

/// Table III — the sampling rounds `γ` the paper pairs with each client
/// count: `n=3→5`, `n=6→8`, `n=10→32`; beyond that the scalability
/// experiments use `γ = n·ln n`.
pub fn gamma_for(n: usize) -> usize {
    match n {
        0..=3 => 5,
        4..=6 => 8,
        7..=10 => 32,
        _ => (n as f64 * (n as f64).ln()).round() as usize,
    }
}

/// True when `FEDVAL_QUICK=1` — benches then use a reduced
/// parameterisation.
pub fn quick() -> bool {
    std::env::var("FEDVAL_QUICK")
        .map(|v| v == "1")
        .unwrap_or(false)
}

/// The base seed for all experiment randomness (`FEDVAL_SEED`,
/// default 42).
pub fn base_seed() -> u64 {
    std::env::var("FEDVAL_SEED")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(42)
}

/// Client counts for the end-to-end tables (Table IV / Table V).
pub fn table_client_counts() -> Vec<usize> {
    if quick() {
        vec![3, 6]
    } else {
        vec![3, 6, 10]
    }
}

/// Per-client training-set size used by the neural experiments.
///
/// Sized so that a single client's data already trains the model close to
/// its plateau — the cross-silo regime of the paper's experiments, where
/// data-rich providers make marginal utility saturate quickly (the key
/// combinations phenomenon).
pub fn samples_per_client() -> usize {
    if quick() {
        60
    } else {
        100
    }
}

/// Test-set size used by the neural experiments. Sized so that the
/// binomial noise of accuracy estimates (≈ √(p(1−p)/N)) sits well below
/// the per-stratum marginal utilities the valuation integrates.
pub fn test_samples() -> usize {
    if quick() {
        250
    } else {
        500
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table3_budgets() {
        assert_eq!(gamma_for(3), 5);
        assert_eq!(gamma_for(6), 8);
        assert_eq!(gamma_for(10), 32);
        // Scalability: γ = n·ln n.
        assert_eq!(gamma_for(100), 461);
        assert!(gamma_for(20) >= 59 && gamma_for(20) <= 61);
    }
}
