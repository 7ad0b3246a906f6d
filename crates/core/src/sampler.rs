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
    fn absorb(&mut self, batch: &[Coalition], values: Vec<f64>);

    /// Whether the batches handed out so far complete the schedule.
    fn is_complete(&self) -> bool;

    /// The canonical prefix fold over everything absorbed: per-client
    /// values and 95% CI half-widths. Also refreshes the pooled
    /// per-component variances the planner steers by.
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

/// The RNG of a schedule that draws nothing (plateau IPSS is exhaustive
/// throughout): any draw is a bug in the schedule.
pub(crate) struct NoRng;

impl rand::RngCore for NoRng {
    fn next_u64(&mut self) -> u64 {
        unreachable!("an exhaustive schedule drew randomness")
    }
}
