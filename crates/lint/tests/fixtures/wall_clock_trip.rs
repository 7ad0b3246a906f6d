// Fixture: wall-clock reads outside the timing whitelist. Clippy must
// report every line marked `//~` and no other.
use std::time::{Instant, SystemTime};

pub fn timed_eval(work: impl Fn() -> f64) -> (f64, u128) {
    let start = Instant::now(); //~
    let v = work();
    (v, start.elapsed().as_nanos())
}

pub fn stamp_secs() -> u64 {
    match SystemTime::now().duration_since(std::time::UNIX_EPOCH) { //~
        Ok(d) => d.as_secs(),
        Err(_) => 0,
    }
}
