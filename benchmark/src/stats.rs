//! The benchmark's statistics: nearest-rank percentiles, the best-of-R
//! rule, time-budgeted repetition and the budget-ladder search.
//!
//! One statistic rule (README § The statistic rule): every wall-clock
//! number is measured within one repetition of a deterministic unit of
//! work, and the reported value is the **best** across the repetitions —
//! the minimum of a time, the maximum of a rate. On a shared box the noise
//! is one-sided (a neighbour only ever slows a repetition down), so the
//! best repetition repeats where a mean or median does not. Median,
//! quartiles and the worst repetition are kept beside it as diagnostics.

use std::time::{Duration, Instant};

/// Which direction of a metric is an improvement.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// Nearest-rank percentile (`p` in `0..=100`) of an unsorted sample.
/// Panics on an empty sample: every caller measures at least once.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    assert!(!samples.is_empty(), "percentile of an empty sample");
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((p / 100.0 * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Median of an unsorted sample, the mean of the two middle values when
/// the count is even. Used where a repetition has only a handful of
/// requests, so that no single request decides the statistic.
pub fn median(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "median of an empty sample");
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// The best of the repetitions: minimum when lower is better, maximum
/// when higher is better.
pub fn best_of(samples: &[f64], better: Better) -> f64 {
    assert!(!samples.is_empty(), "best of an empty sample");
    let pick = match better {
        Better::Lower => f64::min,
        Better::Higher => f64::max,
    };
    samples.iter().copied().fold(samples[0], pick)
}

/// One metric as measured: the gated value (best of the repetitions) and
/// the diagnostics printed beside it.
#[derive(Clone, Debug, PartialEq)]
pub struct Measured {
    /// The reported value: best across the repetitions.
    pub value: f64,
    /// Repetitions behind the value (`R`).
    pub reps: usize,
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    /// The repetition furthest from the best.
    pub worst: f64,
}

impl Measured {
    /// Summarise per-repetition values under the best-of rule.
    pub fn from_reps(samples: &[f64], better: Better) -> Measured {
        let worst = best_of(
            samples,
            match better {
                Better::Lower => Better::Higher,
                Better::Higher => Better::Lower,
            },
        );
        Measured {
            value: best_of(samples, better),
            reps: samples.len(),
            median: median(samples),
            q1: percentile(samples, 25.0),
            q3: percentile(samples, 75.0),
            worst,
        }
    }

    /// A value that is not a repeated wall-clock measurement (a count, a
    /// ratio of counts, a gauge read once).
    pub fn single(value: f64) -> Measured {
        Measured {
            value,
            reps: 1,
            median: value,
            q1: value,
            q3: value,
            worst: value,
        }
    }
}

/// Outcome of a [`ladder_search`].
#[derive(Clone, Debug, PartialEq)]
pub struct LadderHit {
    /// The smallest budget on the ladder whose error is at most ε.
    pub budget: usize,
    /// Its error.
    pub error: f64,
}

/// Search `ladder` upward for the smallest budget whose error (as
/// reported by `error_at`) is at most `eps`, stopping at the first hit.
/// Returns the hit, if any, and every `(budget, error)` pair visited.
pub fn ladder_search(
    ladder: &[usize],
    eps: f64,
    mut error_at: impl FnMut(usize) -> f64,
) -> (Option<LadderHit>, Vec<(usize, f64)>) {
    let mut visited = Vec::with_capacity(ladder.len());
    for &budget in ladder {
        let error = error_at(budget);
        visited.push((budget, error));
        if error <= eps {
            return (Some(LadderHit { budget, error }), visited);
        }
    }
    (None, visited)
}

/// Repeat `unit` until at least `min_reps` repetitions ran **and**
/// `budget` of wall-clock elapsed; returns the per-repetition results.
/// The repetition count follows the time budget so a run's length is
/// predictable on a slow box; `min_reps` keeps best-of meaningful.
pub fn repeat_for<T>(
    budget: Duration,
    min_reps: usize,
    mut unit: impl FnMut(usize) -> T,
) -> Vec<T> {
    let start = Instant::now();
    let mut out = Vec::new();
    while out.len() < min_reps || start.elapsed() < budget {
        out.push(unit(out.len()));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let xs = [5.0, 1.0, 4.0, 2.0, 3.0];
        assert_eq!(percentile(&xs, 0.0), 1.0);
        assert_eq!(percentile(&xs, 20.0), 1.0);
        assert_eq!(percentile(&xs, 50.0), 3.0);
        assert_eq!(percentile(&xs, 99.0), 5.0);
        assert_eq!(percentile(&xs, 100.0), 5.0);
        assert_eq!(percentile(&[7.5], 50.0), 7.5);
        // Even count: nearest rank takes the lower middle.
        assert_eq!(percentile(&[1.0, 2.0, 3.0, 4.0], 50.0), 2.0);
        assert_eq!(percentile(&[1.0, 2.0, 3.0, 4.0], 75.0), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn best_of_follows_the_direction() {
        let xs = [1.3, 1.04, 1.7, 1.05];
        assert_eq!(best_of(&xs, Better::Lower), 1.04);
        assert_eq!(best_of(&xs, Better::Higher), 1.7);
        let m = Measured::from_reps(&xs, Better::Lower);
        assert_eq!((m.value, m.worst, m.reps), (1.04, 1.7, 4));
        assert_eq!((m.q1, m.median, m.q3), (1.04, 1.175, 1.3));
        let rate = Measured::from_reps(&xs, Better::Higher);
        assert_eq!((rate.value, rate.worst), (1.7, 1.04));
        assert_eq!(Measured::single(64.0).value, 64.0);
    }

    #[test]
    fn ladder_search_stops_at_the_first_hit() {
        let errors = [(16, 0.13), (32, 0.12), (64, 0.089), (128, 0.084)];
        let mut calls = 0;
        let (hit, visited) = ladder_search(&[16, 32, 64, 128], 0.10, |g| {
            calls += 1;
            errors.iter().find(|(b, _)| *b == g).map(|e| e.1).unwrap()
        });
        assert_eq!(
            hit,
            Some(LadderHit {
                budget: 64,
                error: 0.089
            })
        );
        assert_eq!(calls, 3, "rungs above the hit are never evaluated");
        assert_eq!(visited.len(), 3);
        // The threshold is inclusive; an unreachable ε visits every rung.
        let (edge, _) = ladder_search(&[8], 0.5, |_| 0.5);
        assert_eq!(edge.map(|h| h.budget), Some(8));
        let (miss, all) = ladder_search(&[16, 32], 0.01, |_| 0.2);
        assert_eq!(miss, None);
        assert_eq!(all.len(), 2);
    }

    #[test]
    fn repeat_for_honours_both_floors() {
        let reps = repeat_for(Duration::ZERO, 3, |i| i);
        assert_eq!(reps, vec![0, 1, 2]);
        let timed = repeat_for(Duration::from_millis(5), 1, |_| {
            std::thread::sleep(Duration::from_millis(2))
        });
        assert!(timed.len() >= 2, "ran {} repetitions", timed.len());
    }
}
