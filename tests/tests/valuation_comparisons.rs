//! Cross-method comparison tests: Shapley vs Banzhaf vs leave-one-out on
//! shared games, and truncation on a game without key combinations — all
//! through the public prelude.

use fedval_core::prelude::*;

#[test]
fn all_value_notions_agree_on_additive_games() {
    let w = vec![0.15, 0.35, 0.1, 0.4];
    let u = AdditiveUtility::new(0.2, w.clone());
    let sv = exact_mc_sv(&u);
    let bz = exact_banzhaf(&u);
    let loo = leave_one_out(&u);
    for i in 0..4 {
        assert!((sv[i] - w[i]).abs() < 1e-12);
        assert!((bz[i] - w[i]).abs() < 1e-12);
        assert!((loo[i] - w[i]).abs() < 1e-12);
    }
}

#[test]
fn shapley_handles_redundancy_loo_does_not() {
    // Substitute goods: either of clients 0/1 suffices.
    let u = TableUtility::from_fn(4, |s| {
        0.5 * f64::from(s.contains(0) || s.contains(1))
            + 0.3 * f64::from(s.contains(2))
            + 0.2 * f64::from(s.contains(3))
    });
    let sv = exact_mc_sv(&u);
    let loo = leave_one_out(&u);
    // LOO: substitutes collapse to zero; SV splits the credit fairly.
    assert!(loo[0].abs() < 1e-12 && loo[1].abs() < 1e-12);
    assert!((sv[0] - 0.25).abs() < 1e-9 && (sv[1] - 0.25).abs() < 1e-9);
    // Non-redundant clients agree between the two notions.
    assert!((loo[2] - 0.3).abs() < 1e-12 && (sv[2] - 0.3).abs() < 1e-9);
}

#[test]
fn banzhaf_and_shapley_rank_identically_on_monotone_game() {
    let u = SaturatingUtility::new(0.1, 0.8, 0.9, vec![3.0, 1.0, 2.0, 0.5, 1.5]);
    let sv = exact_mc_sv(&u);
    let bz = exact_banzhaf(&u);
    assert!(
        kendall_tau(&sv, &bz) > 0.99,
        "rankings diverge: sv {sv:?} vs banzhaf {bz:?}"
    );
}

#[test]
fn weighted_majority_game_is_hard_for_truncation() {
    // Limitation 2 of the paper: binary-jump utilities (weighted majority)
    // have no key-combinations structure, so small-coalition truncation
    // is *not* sufficient — unlike FL accuracy utilities.
    let u = TableUtility::from_fn(9, |s| f64::from(s.size() >= 5)); // majority at 5 of 9
    let exact = exact_mc_sv(&u);
    let k_small = k_greedy(&u, 2);
    let err = l2_relative_error(&k_small, &exact);
    assert!(
        err > 0.5,
        "truncation should fail on a majority game (err {err})"
    );
}
