// Fixture: the near-misses. A reporting-only gauge carries a reasoned
// `#[expect]`; clock mentions that are not reads are free. Clippy must
// report nothing.
use std::time::{Duration, Instant};

pub fn timing_gauge(work: impl Fn() -> f64) -> (f64, Duration) {
    #[expect(
        clippy::disallowed_methods,
        reason = "reporting-only latency gauge; the value is computed before it is read"
    )]
    let start = Instant::now();
    let v = work();
    (v, start.elapsed())
}

pub fn durations_are_fine() -> Duration {
    Duration::from_millis(5) + Duration::ZERO
}

pub fn instant_parameter(deadline: Instant, now: Instant) -> bool {
    // Comparing instants someone else read is the caller's concern.
    now >= deadline
}
