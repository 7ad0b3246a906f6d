// Fixture: the near-misses. Membership probes and BTreeMap iteration are
// free; a hash iteration whose result is provably order-free carries a
// reasoned `#[expect]`. Clippy must report nothing.
use std::collections::{BTreeMap, HashMap, HashSet};

pub fn probes_are_free(memo: &mut HashMap<u128, f64>, seen: &HashSet<u128>, mask: u128) -> f64 {
    if seen.contains(&mask) {
        return memo.get(&mask).copied().unwrap_or(0.0);
    }
    *memo.entry(mask).or_insert(0.0)
}

pub fn sorted_drain(pending: &mut HashMap<u64, f64>) -> Vec<(u64, f64)> {
    #[expect(clippy::disallowed_methods, reason = "sorted on the next line")]
    let mut taken: Vec<(u64, f64)> = pending.drain().collect();
    taken.sort_by_key(|&(k, _)| k);
    taken
}

pub fn order_free_terminal(memo: &HashMap<u128, f64>) -> bool {
    #[expect(clippy::disallowed_methods, reason = "`all` does not depend on visit order")]
    memo.values().all(|v| v.is_finite())
}

pub fn commutative_fold(counts: &HashMap<u64, u64>) -> u64 {
    #[expect(clippy::disallowed_methods, reason = "u64 addition commutes exactly")]
    counts.values().sum()
}

pub fn btree_is_deterministic(entries: &BTreeMap<u64, f64>) -> Vec<f64> {
    entries.values().copied().collect()
}
