// Fixture: a custom hasher (the core crate's `MaskHash`) hides nothing.
// Fields, typed and untyped bindings each trip once when iterated.
use std::collections::hash_map::DefaultHasher;
use std::collections::{HashMap, HashSet};
use std::hash::BuildHasherDefault;

pub type MaskHash = BuildHasherDefault<DefaultHasher>;

pub struct Memo {
    pub memo: HashMap<u128, f64, MaskHash>,
    pub seen: HashSet<u128, MaskHash>,
}

pub fn fields(m: &Memo) -> Option<u128> {
    let _ = m.memo.values().next(); //~
    m.seen.iter().next().copied() //~
}

pub fn bindings() -> u128 {
    let mut by_mask = HashMap::<u128, u128, MaskHash>::default();
    by_mask.insert(1, 2);
    let pending: HashSet<u128, MaskHash> = HashSet::with_capacity_and_hasher(8, MaskHash::default());
    let mut last = 0;
    for (k, v) in &by_mask { //~
        last = k + v;
    }
    for p in &pending { //~
        last = *p;
    }
    last
}
