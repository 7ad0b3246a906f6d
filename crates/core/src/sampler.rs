//! The one estimator core: a [`Sampler`] shape and the [`drive`] loop
//! every sampling estimator runs through.
//!
//! A sampler is a *schedule* plus a *fold*. Each round it plans what to
//! draw, draws it and hands out a batch of coalitions; the driver
//! evaluates the batch through [`Utility::eval_batch`] and gives the
//! values back; the canonical prefix fold turns everything evaluated so
//! far into an estimate with per-client 95% CI half-widths. Alg. 1
//! ([`crate::stratified`]), the pruned schedule of IPSS and pruned
//! Banzhaf ([`crate::ipss`]), Owen sampling ([`crate::owen`]) and the
//! exact sweep ([`crate::exact`]) each implement it once. "Uniform"
//! allocation is a sampler's fixed plan; "adaptive" is the same sampler
//! with an [`AllocationPlanner`](crate::adaptive::AllocationPlanner)
//! re-planning each round from the fold's pooled variances.
//!
//! # Contract
//!
//! * **Randomness is consumed only while drawing**, in schedule order —
//!   never by planning, batching, evaluation or folding — so the draws
//!   are a pure function of `(seed, fold history)`.
//! * **Fold order is the canonical schedule order** (stratum-major,
//!   node-major, mask order), never evaluation or arrival order.
//! * **A snapshot is a pure function of the evaluated prefix.** A run
//!   stopped after `b` batches returns the `b`-th snapshot of the
//!   same-seed full run bit for bit, at any thread count and under any
//!   service coalescing; a completed run returns the same values however
//!   its schedule was cut into batches.
//!
//! # Granularity
//!
//! The driver picks batch granularity from what it can observe. With no
//! observer and no planner nobody reads an intermediate estimate: the
//! sampler hands out its coarsest batches (one for Alg. 1, one per
//! stratum plus one for the sample in the pruned schedule, one per `q`
//! node in Owen) and the fold runs once, at the end. With either, the
//! schedule is cut at snapshot boundaries (round-robin rows,
//! `n`-coalition chunks, planned rounds) and folded after every batch.
//!
//! # Cost of a fold
//!
//! Folds are incremental: a sampler keeps its sums, counts and
//! [`Welford`](crate::anytime::Welford)s between folds, and each fold
//! takes only what was absorbed since the previous one before turning
//! that state into values and half-widths. A snapshot therefore costs the
//! contributions it adds plus `O(n · components)`, not a walk over every
//! absorbed sample. The one exception is Alg. 1, where a pair whose
//! partner lands in a later batch belongs behind contributions already
//! folded; [`crate::stratified::StratifiedSampler`] re-folds that
//! (client, stratum) lane.

use crate::anytime::{Control, ProgressSnapshot, StreamingOutcome};
use crate::coalition::Coalition;
use crate::utility::Utility;

/// What the driver calls at every snapshot boundary.
pub type Observer<'a> = &'a mut dyn FnMut(&ProgressSnapshot) -> Control;

/// One estimator's schedule and fold — see the [module docs](self) for
/// the contract implementations must keep.
pub trait Sampler {
    /// Plan the next round, draw it (the only step that consumes
    /// randomness) and hand out the next batch to evaluate — cut at
    /// snapshot granularity when `fine`, always when a planner re-plans.
    fn next_batch(&mut self, fine: bool) -> Vec<Coalition>;

    /// Record the values of the batch handed out last, aligned with it.
    /// The driver skips empty batches, so a batch that evaluates nothing
    /// new (Owen's coalitions may all be memoised) is never absorbed; the
    /// next fold still takes what it handed out.
    fn absorb(&mut self, batch: &[Coalition], values: Vec<f64>);

    /// Whether the batches handed out so far complete the schedule.
    fn is_complete(&self) -> bool;

    /// The canonical prefix fold over everything absorbed: per-client
    /// values and 95% CI half-widths. Folds what was absorbed since the
    /// previous fold into the running state, in canonical order, and
    /// reads the estimate off it (see [the cost of a fold](self#cost-of-a-fold));
    /// also refreshes the pooled per-component variances the planner
    /// steers by.
    fn fold(&mut self) -> (Vec<f64>, Vec<f64>);

    /// Cumulative per-component draw counts ([`ProgressSnapshot::allocation`])
    /// — `Some` exactly when a planner re-plans the rounds.
    fn allocation(&self) -> Option<Vec<usize>> {
        None
    }
}

/// Run `sampler` to completion against `u`, or until `observe` returns
/// [`Control::Stop`] at a batch boundary. The last snapshot the observer
/// sees equals the returned outcome field for field.
pub fn drive<U, S>(u: &U, sampler: &mut S, mut observe: Option<Observer<'_>>) -> StreamingOutcome
where
    U: Utility + ?Sized,
    S: Sampler,
{
    let fine = observe.is_some() || sampler.allocation().is_some();
    let (mut samples_used, mut batches_done) = (0usize, 0usize);
    loop {
        let batch = sampler.next_batch(fine);
        if !batch.is_empty() {
            sampler.absorb(&batch, u.eval_batch(&batch));
        }
        samples_used += batch.len();
        batches_done += 1;
        let complete = sampler.is_complete();
        if !(fine || complete) {
            continue; // nobody reads this prefix: fold once, at the end
        }
        let (values, ci_halfwidths) = sampler.fold();
        let snapshot = ProgressSnapshot {
            values,
            ci_halfwidths,
            samples_used,
            batches_done,
            allocation: sampler.allocation(),
        };
        let control = observe.as_mut().map(|f| f(&snapshot));
        if complete || control == Some(Control::Stop) {
            return StreamingOutcome::from_snapshot(snapshot, !complete);
        }
    }
}

/// The bit oracle for the incremental folds: each sampler keeps its
/// from-scratch fold as `historical_fold`, and [`oracle::check`] holds
/// every incremental fold to it.
#[cfg(test)]
// Tests assert invariants; an unwrap that trips IS the test failing.
#[allow(clippy::unwrap_used, clippy::expect_used)]
pub(crate) mod oracle {
    use super::*;
    use crate::anytime::Welford;

    /// A sampler whose from-scratch fold is kept beside its incremental one.
    pub(crate) trait Historical: Sampler {
        /// The fold as it was before it became incremental: values,
        /// half-widths and the Welfords the planner steers by.
        fn historical_fold(&self) -> (Vec<f64>, Vec<f64>, Vec<Welford>);
        /// The planner's Welfords as the incremental fold keeps them, or
        /// `None` where it keeps none (Alg. 1 without a planner).
        fn planner_welfords(&self) -> Option<Vec<Welford>>;
        /// Contributions folded into running state so far, counting each
        /// time one is folded again behind a late arrival.
        fn pushes(&self) -> usize;
        /// Contributions the running state holds as of the last fold. A
        /// fold that never re-folds has pushed exactly this many.
        fn contributions(&self) -> usize;
    }

    fn bits(xs: &[f64]) -> Vec<u64> {
        xs.iter().map(|x| x.to_bits()).collect()
    }

    fn welford_bits(ws: &[Welford]) -> Vec<(usize, u64, u64)> {
        ws.iter().map(Welford::bits).collect()
    }

    /// Run `s` as [`drive`] would with (`observed`) or without an
    /// observer, except that it folds after every batch and holds each
    /// fold to the historical one by bits; then run its same-seed `twin`
    /// under [`drive`] itself. Observed, the twin's snapshot stream
    /// (allocations included) must equal the checked one; unobserved, its
    /// one fold at the end must equal the checked last. Returns the
    /// checked run's pushes and final contribution count.
    pub(crate) fn check<U, S>(u: &U, observed: bool, mut s: S, mut twin: S) -> (usize, usize)
    where
        U: Utility + ?Sized,
        S: Historical,
    {
        let fine = observed || s.allocation().is_some();
        let mut snapshots: Vec<ProgressSnapshot> = Vec::new();
        loop {
            let batch = s.next_batch(fine);
            if !batch.is_empty() {
                s.absorb(&batch, u.eval_batch(&batch));
            }
            let (values, ci_halfwidths, welfords) = s.historical_fold();
            let (got_values, got_halfwidths) = s.fold();
            let at = snapshots.len() + 1;
            assert_eq!(bits(&got_values), bits(&values), "values, batch {at}");
            assert_eq!(
                bits(&got_halfwidths),
                bits(&ci_halfwidths),
                "half-widths, batch {at}"
            );
            if let Some(got) = s.planner_welfords() {
                assert_eq!(
                    welford_bits(&got),
                    welford_bits(&welfords),
                    "Welfords, batch {at}"
                );
            }
            let samples_used = snapshots.last().map_or(0, |p| p.samples_used) + batch.len();
            snapshots.push(ProgressSnapshot {
                values,
                ci_halfwidths,
                samples_used,
                batches_done: at,
                allocation: s.allocation(),
            });
            if s.is_complete() {
                break;
            }
        }
        let mut driven = Vec::new();
        let mut observe = |p: &ProgressSnapshot| {
            driven.push(p.clone());
            Control::Continue
        };
        let out = drive(
            u,
            &mut twin,
            observed.then_some(&mut observe as Observer<'_>),
        );
        let last = snapshots.last().unwrap();
        assert_eq!(bits(&out.values), bits(&last.values));
        assert_eq!(bits(&out.ci_halfwidths), bits(&last.ci_halfwidths));
        assert_eq!(
            (out.samples_used, out.batches_done),
            (last.samples_used, last.batches_done)
        );
        assert_eq!(out.allocation, last.allocation);
        if observed {
            assert_eq!(driven.len(), snapshots.len());
            for (d, c) in driven.iter().zip(&snapshots) {
                assert_eq!(bits(&d.values), bits(&c.values));
                assert_eq!(bits(&d.ci_halfwidths), bits(&c.ci_halfwidths));
                assert_eq!(
                    (d.samples_used, d.batches_done),
                    (c.samples_used, c.batches_done)
                );
                assert_eq!(d.allocation, c.allocation);
            }
        }
        (s.pushes(), s.contributions())
    }
}
