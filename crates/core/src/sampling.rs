//! Uniform and balanced sampling of coalitions, shared by the stratified
//! framework (Alg. 1), IPSS (Alg. 3) and the sampling baselines.

use std::collections::HashSet;

use rand::seq::SliceRandom;
use rand::Rng;

use crate::coalition::{binom_u128, subsets_of_size, Coalition, MaskHash};

/// Draw one uniformly random coalition of exactly `k` members out of `n`
/// clients (partial Fisher–Yates).
pub fn random_subset_of_size<R: Rng + ?Sized>(n: usize, k: usize, rng: &mut R) -> Coalition {
    assert!(k <= n);
    let mut idx: Vec<usize> = (0..n).collect();
    let mut mask = 0u128;
    for j in 0..k {
        let pick = rng.random_range(j..n);
        idx.swap(j, pick);
        mask |= 1u128 << idx[j];
    }
    Coalition(mask)
}

/// Draw `count` *distinct* uniformly random coalitions of size `k`:
/// [`distinct_subsets_extending`] over an empty draw set.
pub fn distinct_subsets_of_size<R: Rng + ?Sized>(
    n: usize,
    k: usize,
    count: usize,
    rng: &mut R,
) -> Vec<Coalition> {
    distinct_subsets_extending(n, k, count, &mut HashSet::default(), rng)
}

/// Draw `count` *new* distinct coalitions of size `k`, extending the draw
/// set recorded in `seen` without replacement — the incremental form of
/// [`distinct_subsets_of_size`] used by adaptive re-planning, where a
/// stratum's draws accumulate round by round instead of being fixed up
/// front.
///
/// `seen` holds the masks of every coalition already drawn from this
/// stratum; the returned coalitions are inserted into it. Returns fewer
/// than `count` coalitions only when the stratum's remaining capacity is
/// smaller. Three paths: take the whole remainder when the request covers
/// it (enumeration order), enumerate-and-shuffle the unseen members for
/// dense requests (at least half the remainder) on strata small enough to
/// enumerate, rejection-sample otherwise — collisions are rare there.
pub fn distinct_subsets_extending<R: Rng + ?Sized>(
    n: usize,
    k: usize,
    count: usize,
    seen: &mut HashSet<u128, MaskHash>,
    rng: &mut R,
) -> Vec<Coalition> {
    let stratum_size = binom_u128(n, k);
    let remaining = stratum_size.saturating_sub(seen.len() as u128);
    if remaining == 0 || count == 0 {
        return Vec::new();
    }
    if count as u128 >= remaining {
        // Take every unseen member, in enumeration order.
        let out: Vec<Coalition> = subsets_of_size(n, k)
            .filter(|s| !seen.contains(&s.0))
            .collect();
        seen.extend(out.iter().map(|s| s.0));
        return out;
    }
    // Dense request on an enumerable stratum: shuffle the unseen members.
    if stratum_size <= 1 << 16 && (count as u128) * 2 >= remaining {
        let mut unseen: Vec<Coalition> = subsets_of_size(n, k)
            .filter(|s| !seen.contains(&s.0))
            .collect();
        unseen.shuffle(rng);
        unseen.truncate(count);
        seen.extend(unseen.iter().map(|s| s.0));
        return unseen;
    }
    let mut out = Vec::with_capacity(count);
    while out.len() < count {
        let s = random_subset_of_size(n, k, rng);
        if seen.insert(s.0) {
            out.push(s);
        }
    }
    out
}

/// Draw `count` distinct coalitions of size `k` such that every client is
/// covered (appears in) as equally as possible — the constraint `C_i = C_j`
/// of Alg. 3 line 11.
///
/// Uses a coverage-greedy design: each coalition takes the `k` clients with
/// the currently lowest coverage, breaking ties uniformly at random. As long
/// as a fresh coalition can be formed this keeps `max_i C_i − min_i C_i ≤ 1`;
/// when `n ∤ count·k` exact equality is impossible, so the ≤ 1 spread is the
/// best achievable (see "Deviations from the paper" in ARCHITECTURE.md).
/// Duplicate coalitions are rejected and re-drawn with new tie-breaks;
/// after repeated failures we fall back to any unused coalition so the
/// function always terminates with `min(count, C(n, k))` coalitions.
pub fn balanced_subsets_of_size<R: Rng + ?Sized>(
    n: usize,
    k: usize,
    count: usize,
    rng: &mut R,
) -> Vec<Coalition> {
    // Degenerate strata are answered, not asserted on: `k > n` names an
    // empty stratum (nothing to sample), while `k = 0` — including the
    // `n = 0` corner — has the single member `∅` and obeys the
    // whole-stratum rule below. These arise naturally from callers that
    // derive `k` from a budget (IPSS's `k* + 1` can exceed `n`), and
    // asserting here used to panic the whole valuation run.
    if k > n {
        return Vec::new();
    }
    let stratum_size = binom_u128(n, k);
    if count as u128 >= stratum_size {
        return subsets_of_size(n, k).collect();
    }
    if k == 0 || count == 0 {
        // count < stratum_size with k = 0 means count = 0.
        return Vec::new();
    }
    let mut coverage = vec![0u32; n];
    let mut chosen: HashSet<u128, MaskHash> =
        HashSet::with_capacity_and_hasher(count * 2, MaskHash::default());
    let mut out = Vec::with_capacity(count);
    let mut order: Vec<usize> = (0..n).collect();
    let mut keyed: Vec<u128> = Vec::with_capacity(n);
    'outer: while out.len() < count {
        for _attempt in 0..32 {
            // The k least (coverage, random tie-break, client) keys, packed
            // into one integer in that order: the sorted prefix's set.
            keyed.clear();
            keyed.extend(order.iter().map(|&i| {
                (coverage[i] as u128) << 96 | (rng.random::<u64>() as u128) << 32 | i as u128
            }));
            keyed.select_nth_unstable(k - 1);
            let members = keyed[..k].iter().map(|&key| key as u32 as usize);
            let s = Coalition::from_members(members);
            if chosen.insert(s.0) {
                for i in s.members() {
                    coverage[i] += 1;
                }
                out.push(s);
                continue 'outer;
            }
        }
        // Fallback: any unused subset (can unbalance coverage; repaired
        // below).
        loop {
            let s = random_subset_of_size(n, k, rng);
            if chosen.insert(s.0) {
                for i in s.members() {
                    coverage[i] += 1;
                }
                out.push(s);
                break;
            }
        }
        order.shuffle(rng);
    }
    repair_coverage(n, &mut out, &mut chosen, &mut coverage, rng);
    out
}

/// Post-pass restoring the ≤1 coverage spread after greedy fallbacks:
/// move membership from over-covered to under-covered clients by swapping
/// one member of an existing coalition, keeping all coalitions distinct.
fn repair_coverage<R: Rng + ?Sized>(
    n: usize,
    out: &mut [Coalition],
    chosen: &mut HashSet<u128, MaskHash>,
    coverage: &mut [u32],
    rng: &mut R,
) {
    for _ in 0..out.len() * 4 {
        // Guarded min/max: an empty coverage vector (n = 0, or an empty
        // stratum that produced no coalitions) has nothing to repair and
        // used to panic on `.max().unwrap()`.
        let (Some(&max), Some(&min)) = (coverage.iter().max(), coverage.iter().min()) else {
            return;
        };
        if max - min <= 1 {
            return;
        }
        let over: Vec<usize> = (0..n).filter(|&i| coverage[i] == max).collect();
        let under: Vec<usize> = (0..n).filter(|&i| coverage[i] == min).collect();
        let a = over[rng.random_range(0..over.len())];
        let b = under[rng.random_range(0..under.len())];
        // Find a coalition containing a but not b whose a→b swap is unused.
        let mut swapped = false;
        for slot in out.iter_mut() {
            let s = *slot;
            if s.contains(a) && !s.contains(b) {
                let t = s.without(a).with(b);
                if !chosen.contains(&t.0) {
                    chosen.remove(&s.0);
                    chosen.insert(t.0);
                    *slot = t;
                    coverage[a] -= 1;
                    coverage[b] += 1;
                    swapped = true;
                    break;
                }
            }
        }
        if !swapped {
            // No legal swap for this (a, b) pair — give up; the residual
            // spread is at most the number of fallbacks, which is tiny.
            return;
        }
    }
}

/// Draw one uniformly random permutation of `0..n`.
pub fn random_permutation<R: Rng + ?Sized>(n: usize, rng: &mut R) -> Vec<usize> {
    let mut perm: Vec<usize> = (0..n).collect();
    perm.shuffle(rng);
    perm
}

/// Coverage counts `C_i = Σ_{S∈P} 1[i ∈ S]` of a set of coalitions.
pub fn coverage_counts(n: usize, subsets: &[Coalition]) -> Vec<u32> {
    let mut cov = vec![0u32; n];
    for s in subsets {
        for i in s.members() {
            cov[i] += 1;
        }
    }
    cov
}

/// Coverage spread `max_i C_i − min_i C_i` of a coverage vector, with the
/// empty vector (no clients) defined as perfectly balanced (spread 0) —
/// the guarded form of the `max().unwrap() − min().unwrap()` idiom, which
/// panics on `n = 0` or an empty stratum.
pub fn coverage_spread(cov: &[u32]) -> u32 {
    match (cov.iter().max(), cov.iter().min()) {
        (Some(&max), Some(&min)) => max - min,
        _ => 0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn random_subset_has_requested_size() {
        let mut rng = StdRng::seed_from_u64(1);
        for n in 1..=12usize {
            for k in 0..=n {
                let s = random_subset_of_size(n, k, &mut rng);
                assert_eq!(s.size(), k);
                assert!(s.is_subset_of(Coalition::full(n)));
            }
        }
    }

    #[test]
    fn random_subset_is_roughly_uniform() {
        // Each of the C(4,2)=6 subsets should appear ~1/6 of the time.
        let mut rng = StdRng::seed_from_u64(2);
        let mut counts = std::collections::BTreeMap::<u128, usize>::new();
        let trials = 12_000;
        for _ in 0..trials {
            let s = random_subset_of_size(4, 2, &mut rng);
            *counts.entry(s.0).or_insert(0) += 1;
        }
        assert_eq!(counts.len(), 6);
        for c in counts.into_values() {
            let freq = c as f64 / trials as f64;
            assert!((freq - 1.0 / 6.0).abs() < 0.02, "freq {freq}");
        }
    }

    #[test]
    fn distinct_subsets_are_distinct() {
        let mut rng = StdRng::seed_from_u64(3);
        let subs = distinct_subsets_of_size(10, 3, 50, &mut rng);
        assert_eq!(subs.len(), 50);
        let set: HashSet<u128, MaskHash> = subs.iter().map(|s| s.0).collect();
        assert_eq!(set.len(), 50);
        for s in subs {
            assert_eq!(s.size(), 3);
        }
    }

    #[test]
    fn distinct_subsets_saturate_to_full_stratum() {
        let mut rng = StdRng::seed_from_u64(4);
        let subs = distinct_subsets_of_size(5, 2, 1000, &mut rng);
        assert_eq!(subs.len(), 10); // C(5,2)
    }

    #[test]
    fn distinct_subsets_dense_request() {
        let mut rng = StdRng::seed_from_u64(5);
        // 8 of C(6,3) = 20 triggers the enumerate-and-shuffle path... request
        // 12 (> half) to be sure.
        let subs = distinct_subsets_of_size(6, 3, 12, &mut rng);
        assert_eq!(subs.len(), 12);
        let set: HashSet<u128, MaskHash> = subs.iter().map(|s| s.0).collect();
        assert_eq!(set.len(), 12);
    }

    #[test]
    fn one_shot_draw_is_extending_over_an_empty_set() {
        // (n, k, count): the whole stratum (C(6,3) = 20), a dense request
        // on an enumerable stratum (40 of C(8,3) = 56, shuffle) and a
        // sparse one (10 of C(20,5), rejection).
        for (n, k, count) in [(6, 3, 25), (8, 3, 40), (20, 5, 10)] {
            let (mut a, mut b) = (StdRng::seed_from_u64(21), StdRng::seed_from_u64(21));
            let one_shot = distinct_subsets_of_size(n, k, count, &mut a);
            let mut seen = HashSet::default();
            let extending = distinct_subsets_extending(n, k, count, &mut seen, &mut b);
            assert_eq!(one_shot, extending, "n={n} k={k} count={count}");
            assert_eq!(
                a.random::<u64>(),
                b.random::<u64>(),
                "RNG state after n={n} k={k} count={count}"
            );
        }
    }

    #[test]
    fn extending_draws_are_distinct_across_rounds() {
        let mut rng = StdRng::seed_from_u64(11);
        let mut seen = HashSet::default();
        let mut all = Vec::new();
        for round in 0..6 {
            let new = distinct_subsets_extending(9, 3, 10, &mut seen, &mut rng);
            assert_eq!(new.len(), 10, "round {round}");
            for s in &new {
                assert_eq!(s.size(), 3);
            }
            all.extend(new);
        }
        let set: HashSet<u128, MaskHash> = all.iter().map(|s| s.0).collect();
        assert_eq!(set.len(), 60, "no duplicates across rounds");
        assert_eq!(seen.len(), 60);
    }

    #[test]
    fn extending_draws_saturate_at_the_stratum() {
        // C(6,2) = 15: rounds of 4 yield 4,4,4,3,0,0...
        let mut rng = StdRng::seed_from_u64(12);
        let mut seen = HashSet::default();
        let mut sizes = Vec::new();
        for _ in 0..6 {
            sizes.push(distinct_subsets_extending(6, 2, 4, &mut seen, &mut rng).len());
        }
        assert_eq!(sizes, vec![4, 4, 4, 3, 0, 0]);
        assert_eq!(seen.len(), 15);
    }

    #[test]
    fn extending_matches_one_shot_semantics_from_empty() {
        // From an empty seen-set, a single extending call is just a
        // distinct draw: right count, right sizes, all distinct.
        let mut rng = StdRng::seed_from_u64(13);
        let mut seen = HashSet::default();
        let subs = distinct_subsets_extending(10, 4, 25, &mut seen, &mut rng);
        assert_eq!(subs.len(), 25);
        assert_eq!(seen.len(), 25);
    }

    #[test]
    fn balanced_subsets_have_tight_coverage_spread() {
        let mut rng = StdRng::seed_from_u64(6);
        for (n, k, count) in [(10, 3, 20), (10, 2, 5), (12, 4, 9), (100, 2, 359)] {
            let subs = balanced_subsets_of_size(n, k, count, &mut rng);
            assert_eq!(subs.len(), count);
            let set: HashSet<u128, MaskHash> = subs.iter().map(|s| s.0).collect();
            assert_eq!(set.len(), count, "distinctness");
            let cov = coverage_counts(n, &subs);
            let spread = coverage_spread(&cov);
            assert!(
                spread <= 1,
                "coverage spread {spread} for n={n} k={k} count={count}: {cov:?}"
            );
            let total: u32 = cov.iter().sum();
            assert_eq!(total as usize, count * k);
        }
    }

    #[test]
    fn balanced_subsets_exact_equality_when_divisible() {
        // count·k divisible by n ⇒ every client covered exactly count·k/n times.
        let mut rng = StdRng::seed_from_u64(7);
        let subs = balanced_subsets_of_size(8, 2, 12, &mut rng);
        let cov = coverage_counts(8, &subs);
        assert!(cov.iter().all(|&c| c == 3), "{cov:?}");
    }

    #[test]
    fn balanced_subsets_saturate() {
        let mut rng = StdRng::seed_from_u64(8);
        let subs = balanced_subsets_of_size(5, 2, 100, &mut rng);
        assert_eq!(subs.len(), 10);
    }

    #[test]
    fn balanced_subsets_degenerate_inputs_do_not_panic() {
        // Regression: n = 0 (empty coverage vector) and k > n (empty
        // stratum) used to trip `assert!(k >= 1 && k <= n)` or panic in
        // the coverage-repair pass; they now return sane defaults.
        let mut rng = StdRng::seed_from_u64(10);
        assert!(balanced_subsets_of_size(0, 0, 0, &mut rng).is_empty());
        // n = 0 still has the k = 0 stratum {∅} (whole-stratum rule).
        assert_eq!(
            balanced_subsets_of_size(0, 0, 5, &mut rng),
            vec![Coalition::empty()]
        );
        assert!(balanced_subsets_of_size(0, 3, 5, &mut rng).is_empty());
        assert!(balanced_subsets_of_size(4, 7, 5, &mut rng).is_empty());
        assert!(balanced_subsets_of_size(6, 2, 0, &mut rng).is_empty());
        // k = 0: the stratum is exactly {∅}.
        assert_eq!(
            balanced_subsets_of_size(5, 0, 3, &mut rng),
            vec![Coalition::empty()]
        );
        assert!(balanced_subsets_of_size(5, 0, 0, &mut rng).is_empty());
    }

    #[test]
    fn coverage_spread_handles_empty_vectors() {
        // Regression: the `cov.iter().max().unwrap()` idiom panicked on
        // empty coverage vectors; the helper defines them as balanced.
        assert_eq!(coverage_spread(&[]), 0);
        assert_eq!(coverage_spread(&coverage_counts(0, &[])), 0);
        assert_eq!(coverage_spread(&[3, 3, 3]), 0);
        assert_eq!(coverage_spread(&[1, 4, 2]), 3);
    }

    #[test]
    fn permutations_are_permutations() {
        let mut rng = StdRng::seed_from_u64(9);
        let p = random_permutation(7, &mut rng);
        let mut sorted = p.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..7).collect::<Vec<_>>());
    }
}
