// Fixture: order-sensitive hash iteration. Clippy must report every line
// marked `//~` and no other.
use std::collections::{HashMap, HashSet};

pub fn sums(memo: &HashMap<u128, f64>) -> f64 {
    // f64 addition does not commute bitwise: hash order leaks into the sum.
    let mut total = 0.0;
    for (_k, v) in memo.iter() { //~
        total += v;
    }
    total
}

pub fn drain_in_hash_order(pending: &mut HashMap<u64, f64>, out: &mut Vec<f64>) {
    out.extend(pending.drain().map(|(_, v)| v)); //~
}

pub fn first_member(seen: &HashSet<u128>) -> Option<u128> {
    // `iter().next()` picks an arbitrary element.
    seen.iter().next().copied() //~
}

pub fn bare_for_loop(live: &HashSet<u64>) -> u64 {
    let mut last = 0;
    for mask in live { //~
        last = *mask;
    }
    last
}
