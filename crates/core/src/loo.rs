//! Leave-one-out (LOO) valuation — the classical cheap contribution
//! measure `ϕ_i^LOO = U(N) − U(N\{i})`.
//!
//! LOO needs only `n + 1` model trainings, but unlike the Shapley value it
//! ignores every coalition except the grand one, so it badly misprices
//! redundant data: two clients holding identical datasets each get ~zero
//! LOO value (removing either changes nothing) while their joint
//! contribution may be large. The tests pin down exactly this failure
//! mode, which is the standard motivation for SV-based valuation (Sec. I).

use crate::coalition::Coalition;
use crate::utility::Utility;

/// Leave-one-out values for all clients (`n + 1` utility evaluations,
/// issued as one batch so a parallel utility trains them concurrently).
pub fn leave_one_out<U: Utility + ?Sized>(u: &U) -> Vec<f64> {
    let n = u.n_clients();
    assert!(n >= 1);
    let full = Coalition::full(n);
    let mut batch = Vec::with_capacity(n + 1);
    batch.push(full);
    batch.extend((0..n).map(|i| full.without(i)));
    let values = u.eval_batch(&batch);
    let u_full = values[0];
    (0..n).map(|i| u_full - values[i + 1]).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exact::exact_mc_sv;
    use crate::utility::{AdditiveUtility, CachedUtility, TableUtility};

    #[test]
    fn additive_game_matches_shapley() {
        // With no interactions LOO and SV agree exactly.
        let w = vec![0.2, 0.5, 0.3];
        let u = AdditiveUtility::new(0.1, w.clone());
        let loo = leave_one_out(&u);
        for (l, e) in loo.iter().zip(&w) {
            assert!((l - e).abs() < 1e-12);
        }
    }

    #[test]
    fn costs_n_plus_one_evaluations() {
        let u = CachedUtility::new(TableUtility::paper_table1());
        let _ = leave_one_out(&u);
        assert_eq!(u.stats().evaluations, 4); // U(N) + three leave-outs
    }

    #[test]
    fn redundant_clients_get_zero_loo_but_positive_sv() {
        // Clients 0 and 1 are perfect substitutes: utility is 1 if either
        // is present. LOO gives both zero; SV splits the credit.
        let u = TableUtility::from_fn(3, |s| {
            let either = s.contains(0) || s.contains(1);
            0.6 * f64::from(either) + 0.4 * f64::from(s.contains(2))
        });
        let loo = leave_one_out(&u);
        assert!(loo[0].abs() < 1e-12 && loo[1].abs() < 1e-12);
        let sv = exact_mc_sv(&u);
        assert!(sv[0] > 0.1 && sv[1] > 0.1, "{sv:?}");
        assert!((sv[0] - sv[1]).abs() < 1e-12, "symmetry");
    }

    #[test]
    fn paper_table_example() {
        let u = TableUtility::paper_table1();
        let loo = leave_one_out(&u);
        // U(N)=0.96; U({2,3})=0.90, U({1,3})=0.90, U({1,2})=0.80.
        assert!((loo[0] - 0.06).abs() < 1e-12);
        assert!((loo[1] - 0.06).abs() < 1e-12);
        assert!((loo[2] - 0.16).abs() < 1e-12);
        // LOO under-credits compared to SV here (Σ LOO < Σ SV).
        let sv = exact_mc_sv(&u);
        assert!(loo.iter().sum::<f64>() < sv.iter().sum::<f64>());
    }
}
