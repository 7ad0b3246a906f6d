// Fixture: order-sensitive hash iteration that clippy does not catch. No
// disallowed-methods path names the `IntoIterator` impl, and
// `iter_over_hash_type` only sees `for` loops. This fixture must report
// nothing; a clippy upgrade that starts catching either case shows here.
use std::collections::{HashMap, HashSet};

pub fn by_value_into_iter(m: HashMap<u32, f64>) -> f64 {
    m.into_iter().map(|(k, v)| f64::from(k) * v).sum()
}

pub fn extend_from_a_set(out: &mut Vec<u32>, set: &HashSet<u32>) {
    out.extend(set);
}
