//! The utility function `U(·)` of SV-based data valuation (Def. 2) and
//! reusable implementations.
//!
//! In the paper the utility of a coalition `S` is the test accuracy of the
//! FL model `M_S` trained on the datasets of the clients in `S`. Every
//! approximation algorithm interacts with utilities only through the
//! [`Utility`] trait, so the same code runs against real FL training
//! (`fedval-fl`), the closed-form linear-regression model (`fedval-theory`)
//! and the synthetic utilities below.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{PoisonError, RwLock};
use std::time::{Duration, Instant};

use crate::coalition::Coalition;

/// A coalition utility function `U : 2^N → ℝ`.
///
/// Implementations must be deterministic: repeated evaluation of the same
/// coalition must return the same value (the FL substrate achieves this by
/// deriving its training seed from the coalition mask). Determinism is what
/// makes memoisation via [`CachedUtility`] sound — and what makes the
/// batch/parallel evaluation path bit-identical to the serial one: each
/// coalition's value is a pure function of its mask, so evaluation order
/// and thread count cannot change any result.
pub trait Utility: Sync {
    /// Number of FL clients `n = |N|`.
    fn n_clients(&self) -> usize;

    /// Evaluate `U(M_S)`: train (or look up) the model for coalition `s` and
    /// measure its performance on the test set.
    fn eval(&self, s: Coalition) -> f64;

    /// Evaluate a batch of coalitions, returning values positionally
    /// aligned with `coalitions`.
    ///
    /// This is the engine's fan-out point: algorithms collect each
    /// round/stratum into a batch and call this once, so a parallel
    /// implementation ([`ParallelUtility`]) can saturate all cores while a
    /// memoising one ([`CachedUtility`]) can dedup before training. The
    /// default runs serially and matches `eval` exactly.
    ///
    /// ```
    /// use fedval_core::prelude::*;
    ///
    /// let u = CachedUtility::new(TableUtility::paper_table1());
    /// let batch = u.eval_batch(&[
    ///     Coalition::singleton(0),
    ///     Coalition::full(3),
    ///     Coalition::singleton(0), // duplicate — evaluated once
    /// ]);
    /// assert_eq!(batch[0], batch[2]);
    /// assert_eq!(u.stats().evaluations, 2, "two distinct coalitions");
    /// // Positional alignment with the input, duplicates included.
    /// assert_eq!(batch[1], u.eval(Coalition::full(3)));
    /// ```
    fn eval_batch(&self, coalitions: &[Coalition]) -> Vec<f64> {
        coalitions.iter().map(|&s| self.eval(s)).collect()
    }

    /// The grand-coalition utility `U(M_N)`; used by several baselines.
    fn eval_full(&self) -> f64 {
        self.eval(Coalition::full(self.n_clients()))
    }
}

impl<U: Utility + ?Sized> Utility for &U {
    fn n_clients(&self) -> usize {
        (**self).n_clients()
    }
    fn eval(&self, s: Coalition) -> f64 {
        (**self).eval(s)
    }
    fn eval_batch(&self, coalitions: &[Coalition]) -> Vec<f64> {
        (**self).eval_batch(coalitions)
    }
}

/// Adapter that fans a batch evaluation out across a rayon thread pool.
///
/// `eval` stays serial (one coalition cannot be split); `eval_batch`
/// size-sorts the batch (by `|S|`, ties by mask), splits it into
/// sub-batches of at most [`DEFAULT_PAR_CHUNK`] coalitions — shrunk
/// when the batch is small so every thread still gets work — and maps
/// those with an order-preserving parallel iterator, forwarding each
/// sub-batch to the inner utility's own `eval_batch`. Size-sorting at the
/// fan-out point does double duty: sub-batches have similar per-item cost
/// (τ grows with `|S|`, so the shim's steal loop stays balanced), and an
/// inner utility with a batched fast path (the FL utility's lock-step
/// lane blocks) receives blocks of similarly-sized coalitions, which
/// keeps its lanes in step (round 0, where every lane starts at the init,
/// is the only training they share). For plain utilities
/// the default `eval_batch` degenerates to the per-coalition map this
/// adapter used to do. Either way results are positionally — and, by
/// utility determinism, bit- — identical to the serial path at any
/// thread count.
///
/// Typical composition is `CachedUtility::new(ParallelUtility::new(u))`:
/// the cache dedups and forwards only the distinct misses, this adapter
/// spreads sub-batches across cores, and the inner utility trains each
/// sub-batch in lock-step.
pub struct ParallelUtility<U> {
    inner: U,
    pool: Option<rayon::ThreadPool>,
}

/// The sub-batch size of [`ParallelUtility::eval_batch`] — aligned
/// with the FL utility's default lane-block size (`DEFAULT_LANE_BLOCK` in
/// `fedval-fl`) so one stolen work unit is one lock-step training block.
/// A lane block larger than this gets split before the inner utility
/// sees it.
pub const DEFAULT_PAR_CHUNK: usize = 8;

impl<U: Utility> ParallelUtility<U> {
    /// Fan out to rayon's current thread count (all cores by default).
    pub fn new(inner: U) -> Self {
        ParallelUtility { inner, pool: None }
    }

    /// Fan out to exactly `threads` threads (1 = serial; used by the
    /// determinism tests to compare 1-, 2- and N-thread runs).
    pub fn with_num_threads(inner: U, threads: usize) -> Self {
        assert!(threads >= 1);
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .unwrap_or_else(|e| panic!("failed to build {threads}-thread pool: {e}"));
        ParallelUtility {
            inner,
            pool: Some(pool),
        }
    }

    /// Access the wrapped utility.
    pub fn inner(&self) -> &U {
        &self.inner
    }
}

impl<U: Utility> Utility for ParallelUtility<U> {
    fn n_clients(&self) -> usize {
        self.inner.n_clients()
    }

    fn eval(&self, s: Coalition) -> f64 {
        self.inner.eval(s)
    }

    fn eval_batch(&self, coalitions: &[Coalition]) -> Vec<f64> {
        use rayon::prelude::*;
        let run = || {
            // Size-sort so sub-batches group similarly-sized coalitions
            // (deterministic total order: |S|, then mask).
            let mut order: Vec<usize> = (0..coalitions.len()).collect();
            order.sort_by_key(|&i| (coalitions[i].size(), coalitions[i].0));
            let sorted: Vec<Coalition> = order.iter().map(|&i| coalitions[i]).collect();
            // Shrink the chunk when the batch would under-fill the pool:
            // a batch of 8 on 8 threads runs as 8 singleton sub-batches,
            // not one serial sub-batch of 8.
            let threads = rayon::current_num_threads().max(1);
            let chunk = DEFAULT_PAR_CHUNK
                .min(coalitions.len().div_ceil(threads))
                .max(1);
            let chunks: Vec<&[Coalition]> = sorted.chunks(chunk).collect();
            let per_chunk: Vec<Vec<f64>> = chunks
                .par_iter()
                .map(|sub| self.inner.eval_batch(sub))
                .collect();
            let mut out = vec![0.0f64; coalitions.len()];
            let mut scattered = 0usize;
            for (&pos, v) in order.iter().zip(per_chunk.into_iter().flatten()) {
                out[pos] = v;
                scattered += 1;
            }
            assert_eq!(
                scattered,
                coalitions.len(),
                "inner eval_batch returned fewer values than coalitions"
            );
            out
        };
        match &self.pool {
            Some(pool) => pool.install(run),
            None => run(),
        }
    }
}

/// Evaluation statistics collected by [`CachedUtility`].
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct EvalStats {
    /// Distinct coalitions evaluated (cache misses) — the paper's unit of
    /// cost, since each corresponds to one FL train+evaluate cycle (`τ`).
    pub evaluations: usize,
    /// Total cache lookups, including hits.
    pub lookups: usize,
    /// Wall-clock time spent inside the inner utility.
    pub eval_time: Duration,
}

/// Statistics of a trajectory-level training cache — the per-client
/// memoisation one level *below* [`EvalStats`]'s whole-coalition
/// accounting. The cache itself lives in the FL substrate (`fedval-fl`'s
/// `TrajectoryCache`, a table of each client's round-0 local-training
/// update); this crate only defines the stats shape so that valuation
/// drivers and benches can report coalition-level cost
/// ([`EvalStats::evaluations`]) and training-level cost side by side.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TrajCacheStats {
    /// Cache probes: one per round-0 (client, lane group) a lock-step
    /// engine considered training; later rounds do not probe.
    pub probes: usize,
    /// Probes answered from the cache — local trainings *not* paid.
    pub hits: usize,
    /// Local trainings actually performed, in every round: one per
    /// round-0 probe miss (its `Δ` serves every lane of the block) plus
    /// one per active lane in each later round.
    pub local_trainings: usize,
    /// The subset of `local_trainings` that occurred in round 0 — the
    /// round every coalition shares a bit-equal round-start model, so the
    /// cache pays it once per client per sweep.
    pub round0_trainings: usize,
    /// Entries currently resident — an occupancy *gauge*, unlike the
    /// cumulative counters above: at most one update `Δ` per client
    /// (`p` floats for a `p`-parameter model).
    pub entries: usize,
    /// Bytes held by resident entries (`p · 4` per entry).
    pub bytes: usize,
    /// Always 0: the round-0 table never evicts. Kept for the wire's
    /// `/v1/stats` shape and `benchmark/`.
    pub evictions: usize,
}

impl TrajCacheStats {
    /// Probes that found nothing cached (`probes − hits`). Saturating:
    /// a stats snapshot read while other threads probe a shared cache can
    /// observe the hit of a probe it did not yet count.
    pub fn misses(&self) -> usize {
        self.probes.saturating_sub(self.hits)
    }
}

/// Number of independent lock shards in [`CachedUtility`]. A power of two;
/// 16 shards keep write-lock collision probability below 7% even with 16
/// concurrent FL trainings finishing simultaneously, while costing only 16
/// small `HashMap`s.
const CACHE_SHARDS: usize = 16;

/// Memoising wrapper around a [`Utility`].
///
/// The SV approximation algorithms repeatedly touch overlapping coalitions
/// (e.g. the MC-SV pairing `S` / `S\{i}`); caching guarantees each FL
/// training process runs exactly once per coalition, mirroring the paper's
/// accounting where cost is the number of *distinct* trained models.
///
/// The memo table is sharded by a hash of the coalition mask so that
/// concurrent evaluations (the [`ParallelUtility`] fan-out, or many
/// independent valuation runs sharing one cache) do not serialise on a
/// single write lock. [`EvalStats`] stays exact under contention: when two
/// threads race to train the same coalition, only the thread whose insert
/// lands first increments `evaluations`.
pub struct CachedUtility<U: Utility> {
    inner: U,
    shards: [RwLock<HashMap<u128, f64>>; CACHE_SHARDS],
    evaluations: AtomicU64,
    lookups: AtomicU64,
    eval_nanos: AtomicU64,
}

/// Shard index for a coalition mask: top bits of a splitmix64 hash, so
/// masks differing only in low bits (adjacent coalitions) still spread.
#[inline]
fn shard_of(mask: u128) -> usize {
    let h = splitmix64(mask as u64 ^ ((mask >> 64) as u64).rotate_left(32));
    (h >> (64 - CACHE_SHARDS.trailing_zeros())) as usize
}

impl<U: Utility> CachedUtility<U> {
    pub fn new(inner: U) -> Self {
        CachedUtility {
            inner,
            shards: std::array::from_fn(|_| RwLock::new(HashMap::new())),
            evaluations: AtomicU64::new(0),
            lookups: AtomicU64::new(0),
            eval_nanos: AtomicU64::new(0),
        }
    }

    /// Access the wrapped utility.
    pub fn inner(&self) -> &U {
        &self.inner
    }

    /// Statistics accumulated since construction (or the last `reset_stats`).
    pub fn stats(&self) -> EvalStats {
        EvalStats {
            evaluations: self.evaluations.load(Ordering::Relaxed) as usize,
            lookups: self.lookups.load(Ordering::Relaxed) as usize,
            eval_time: Duration::from_nanos(self.eval_nanos.load(Ordering::Relaxed)),
        }
    }

    /// Reset the statistics counters (the cache itself is kept).
    pub fn reset_stats(&self) {
        self.evaluations.store(0, Ordering::Relaxed);
        self.lookups.store(0, Ordering::Relaxed);
        self.eval_nanos.store(0, Ordering::Relaxed);
    }

    /// Clear both the memo table and the statistics.
    pub fn clear(&self) {
        for shard in &self.shards {
            shard
                .write()
                .unwrap_or_else(PoisonError::into_inner)
                .clear();
        }
        self.reset_stats();
    }

    /// Number of memoised coalitions.
    pub fn cached_len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.read().unwrap_or_else(PoisonError::into_inner).len())
            .sum()
    }

    /// True iff the coalition has already been evaluated.
    pub fn is_cached(&self, s: Coalition) -> bool {
        self.shards[shard_of(s.0)]
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .contains_key(&s.0)
    }

    /// Cached value, if present.
    fn get(&self, s: Coalition) -> Option<f64> {
        self.shards[shard_of(s.0)]
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .get(&s.0)
            .copied()
    }

    /// Insert a freshly evaluated value; counts it towards `evaluations`
    /// only if this thread's insert landed first. Returns whether it did.
    fn insert_counted(&self, s: Coalition, v: f64) -> bool {
        // Poison-tolerant: a panicking inner utility never holds a shard
        // lock (inserts happen after the inner call returns), and even a
        // poisoned shard holds only fully-written entries.
        let mut shard = self.shards[shard_of(s.0)]
            .write()
            .unwrap_or_else(PoisonError::into_inner);
        if let std::collections::hash_map::Entry::Vacant(e) = shard.entry(s.0) {
            e.insert(v);
            self.evaluations.fetch_add(1, Ordering::Relaxed);
            true
        } else {
            false
        }
    }
}

impl<U: Utility> Utility for CachedUtility<U> {
    fn n_clients(&self) -> usize {
        self.inner.n_clients()
    }

    fn eval(&self, s: Coalition) -> f64 {
        self.lookups.fetch_add(1, Ordering::Relaxed);
        if let Some(v) = self.get(s) {
            return v;
        }
        // lint:wall-clock(EvalStats gauge: eval_nanos is reporting-only
        // telemetry and never feeds back into any computed value)
        #[allow(clippy::disallowed_methods)]
        let start = Instant::now();
        let v = self.inner.eval(s);
        let nanos = start.elapsed().as_nanos() as u64;
        // Double-check inside insert_counted: another thread may have
        // filled the entry while we were training; only the first insert
        // is charged.
        if self.insert_counted(s, v) {
            self.eval_nanos.fetch_add(nanos, Ordering::Relaxed);
        }
        v
    }

    /// Batched lookup: hits resolve from the shards, distinct misses are
    /// forwarded to the inner utility as one batch (in first-occurrence
    /// order) so a parallel inner utility can train them concurrently.
    fn eval_batch(&self, coalitions: &[Coalition]) -> Vec<f64> {
        self.lookups
            .fetch_add(coalitions.len() as u64, Ordering::Relaxed);
        let mut out = vec![0.0f64; coalitions.len()];
        // Distinct misses in first-occurrence order + the output positions
        // each one must fill.
        let mut miss_index: HashMap<u128, usize> = HashMap::new();
        let mut misses: Vec<Coalition> = Vec::new();
        let mut pending: Vec<(usize, usize)> = Vec::new(); // (out pos, miss idx)
        for (pos, &s) in coalitions.iter().enumerate() {
            if let Some(v) = self.get(s) {
                out[pos] = v;
            } else {
                let idx = *miss_index.entry(s.0).or_insert_with(|| {
                    misses.push(s);
                    misses.len() - 1
                });
                pending.push((pos, idx));
            }
        }
        if !misses.is_empty() {
            // lint:wall-clock(EvalStats gauge: batch eval_nanos is
            // reporting-only telemetry, never feeds a computed value)
            #[allow(clippy::disallowed_methods)]
            let start = Instant::now();
            let values = self.inner.eval_batch(&misses);
            // Batch-level timing: when the inner utility evaluates the
            // misses concurrently, per-item attribution is meaningless, so
            // the whole batch's wall time is charged once.
            let nanos = start.elapsed().as_nanos() as u64;
            debug_assert_eq!(values.len(), misses.len());
            let mut any_fresh = false;
            for (&s, &v) in misses.iter().zip(&values) {
                any_fresh |= self.insert_counted(s, v);
            }
            if any_fresh {
                self.eval_nanos.fetch_add(nanos, Ordering::Relaxed);
            }
            for (pos, idx) in pending {
                out[pos] = values[idx];
            }
        }
        out
    }
}

/// Utility backed by an explicit table of all `2^n` coalition values.
///
/// Mirrors the worked examples of the paper (Table I, Fig. 2) and is the
/// workhorse of the unit tests.
#[derive(Clone, Debug)]
pub struct TableUtility {
    n: usize,
    values: Vec<f64>,
}

impl TableUtility {
    /// Build from a table indexed by coalition bitmask (`values.len() == 2^n`).
    pub fn new(n: usize, values: Vec<f64>) -> Self {
        assert!(n <= 24, "TableUtility stores 2^n values; n too large");
        assert_eq!(values.len(), 1usize << n, "need exactly 2^n values");
        TableUtility { n, values }
    }

    /// Build from a function over coalitions.
    pub fn from_fn(n: usize, f: impl Fn(Coalition) -> f64) -> Self {
        let values = (0..(1u128 << n)).map(|m| f(Coalition(m))).collect();
        TableUtility { n, values }
    }

    /// The toy three-hospital example of the paper (Table I):
    /// exact Shapley values `ϕ ≈ (0.22, 0.32, 0.32)`.
    pub fn paper_table1() -> Self {
        // Masks: bit0 = client 1, bit1 = client 2, bit2 = client 3.
        // S:      ∅    {1}  {2}  {1,2} {3}  {1,3} {2,3} {1,2,3}
        TableUtility::new(3, vec![0.10, 0.50, 0.70, 0.80, 0.60, 0.90, 0.90, 0.96])
    }
}

impl Utility for TableUtility {
    fn n_clients(&self) -> usize {
        self.n
    }
    fn eval(&self, s: Coalition) -> f64 {
        self.values[s.0 as usize]
    }
}

/// Additive utility `U(S) = base + Σ_{i∈S} w_i`.
///
/// By linearity the exact Shapley value of client `i` is exactly `w_i`,
/// making this the canonical ground-truth fixture for estimator tests.
#[derive(Clone, Debug)]
pub struct AdditiveUtility {
    pub base: f64,
    pub weights: Vec<f64>,
}

impl AdditiveUtility {
    pub fn new(base: f64, weights: Vec<f64>) -> Self {
        assert!(weights.len() <= crate::coalition::MAX_CLIENTS);
        AdditiveUtility { base, weights }
    }
}

impl Utility for AdditiveUtility {
    fn n_clients(&self) -> usize {
        self.weights.len()
    }
    fn eval(&self, s: Coalition) -> f64 {
        self.base + s.members().map(|i| self.weights[i]).sum::<f64>()
    }
}

/// Monotone, concave utility modelling FL accuracy saturation:
/// `U(S) = base + gain · (1 − exp(−rate · Σ_{i∈S} size_i))`.
///
/// This is the shape underlying the *key combinations* phenomenon
/// (Sec. IV-A, observation (i)): marginal utility decays as coalitions grow.
#[derive(Clone, Debug)]
pub struct SaturatingUtility {
    pub base: f64,
    pub gain: f64,
    pub rate: f64,
    /// Per-client dataset sizes (relative weights).
    pub sizes: Vec<f64>,
}

impl SaturatingUtility {
    pub fn new(base: f64, gain: f64, rate: f64, sizes: Vec<f64>) -> Self {
        assert!(rate > 0.0 && gain >= 0.0);
        assert!(sizes.iter().all(|&s| s >= 0.0));
        SaturatingUtility {
            base,
            gain,
            rate,
            sizes,
        }
    }

    /// Equal-sized clients.
    pub fn uniform(n: usize, base: f64, gain: f64, rate: f64) -> Self {
        Self::new(base, gain, rate, vec![1.0; n])
    }
}

impl Utility for SaturatingUtility {
    fn n_clients(&self) -> usize {
        self.sizes.len()
    }
    fn eval(&self, s: Coalition) -> f64 {
        let mass: f64 = s.members().map(|i| self.sizes[i]).sum();
        self.base + self.gain * (1.0 - (-self.rate * mass).exp())
    }
}

/// The weighted majority game: `U(S) = 1` iff `Σ_{i∈S} w_i > quota`.
///
/// Contrast fixture from classical game theory (Sec. I, Limitation 2):
/// its binary-jump utility is what makes exact SV #P-hard and is exactly
/// what FL accuracy utilities do *not* look like.
#[derive(Clone, Debug)]
pub struct WeightedMajorityUtility {
    pub weights: Vec<f64>,
    pub quota: f64,
}

impl Utility for WeightedMajorityUtility {
    fn n_clients(&self) -> usize {
        self.weights.len()
    }
    fn eval(&self, s: Coalition) -> f64 {
        let total: f64 = s.members().map(|i| self.weights[i]).sum();
        if total > self.quota {
            1.0
        } else {
            0.0
        }
    }
}

/// splitmix64 — tiny, high-quality mixing function used to derive
/// deterministic per-coalition pseudo-randomness.
#[inline]
pub(crate) fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Deterministic pseudo-random value in `[0, 1)` derived from a coalition
/// mask and a seed. Used by [`HashUtility`] and by the FL substrate to
/// derive coalition-specific training seeds.
pub fn coalition_unit_hash(s: Coalition, seed: u64) -> f64 {
    let lo = splitmix64(seed ^ (s.0 as u64));
    let hi = splitmix64(seed.rotate_left(17) ^ ((s.0 >> 64) as u64) ^ lo);
    (hi >> 11) as f64 / (1u64 << 53) as f64
}

/// Seeded arbitrary utility: `U(S)` is a deterministic hash of the mask.
///
/// Has no structure at all (not monotone, not additive), which makes it the
/// adversarial fixture for unbiasedness and axiom property tests.
#[derive(Clone, Debug)]
pub struct HashUtility {
    pub n: usize,
    pub seed: u64,
}

impl Utility for HashUtility {
    fn n_clients(&self) -> usize {
        self.n
    }
    fn eval(&self, s: Coalition) -> f64 {
        if s.is_empty() {
            return 0.0;
        }
        coalition_unit_hash(s, self.seed)
    }
}

/// Wrapper that adds deterministic per-coalition noise to a base utility,
/// simulating the stochasticity of FL training while remaining a function
/// of the coalition (so caching stays sound).
#[derive(Clone, Debug)]
pub struct NoisyUtility<U> {
    pub inner: U,
    pub amplitude: f64,
    pub seed: u64,
}

impl<U: Utility> NoisyUtility<U> {
    pub fn new(inner: U, amplitude: f64, seed: u64) -> Self {
        assert!(amplitude >= 0.0);
        NoisyUtility {
            inner,
            amplitude,
            seed,
        }
    }
}

impl<U: Utility> Utility for NoisyUtility<U> {
    fn n_clients(&self) -> usize {
        self.inner.n_clients()
    }
    fn eval(&self, s: Coalition) -> f64 {
        let noise = (coalition_unit_hash(s, self.seed) - 0.5) * 2.0 * self.amplitude;
        self.inner.eval(s) + noise
    }
}

#[cfg(test)]
// Tests assert invariants; an unwrap that trips IS the test failing.
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use crate::coalition::all_subsets;

    #[test]
    fn table_utility_matches_paper_example() {
        let u = TableUtility::paper_table1();
        assert_eq!(u.eval(Coalition::empty()), 0.10);
        assert_eq!(u.eval(Coalition::from_members([0])), 0.50);
        assert_eq!(u.eval(Coalition::from_members([0, 1])), 0.80);
        assert_eq!(u.eval(Coalition::full(3)), 0.96);
        assert_eq!(u.eval_full(), 0.96);
    }

    #[test]
    fn additive_utility() {
        let u = AdditiveUtility::new(0.5, vec![0.1, 0.2, 0.3]);
        assert_eq!(u.eval(Coalition::empty()), 0.5);
        assert!((u.eval(Coalition::full(3)) - 1.1).abs() < 1e-12);
        assert!((u.eval(Coalition::from_members([0, 2])) - 0.9).abs() < 1e-12);
    }

    #[test]
    fn saturating_utility_is_monotone_with_decaying_marginals() {
        let u = SaturatingUtility::uniform(8, 0.1, 0.85, 0.5);
        let mut prev = u.eval(Coalition::empty());
        let mut prev_marginal = f64::INFINITY;
        for k in 1..=8usize {
            let s = Coalition::from_members(0..k);
            let v = u.eval(s);
            let marginal = v - prev;
            assert!(marginal > 0.0, "monotone");
            assert!(marginal < prev_marginal, "concave (decaying marginals)");
            prev = v;
            prev_marginal = marginal;
        }
    }

    #[test]
    fn weighted_majority_jumps() {
        let u = WeightedMajorityUtility {
            weights: vec![3.0, 2.0, 1.0],
            quota: 3.5,
        };
        assert_eq!(u.eval(Coalition::from_members([0])), 0.0);
        assert_eq!(u.eval(Coalition::from_members([0, 2])), 1.0);
        assert_eq!(u.eval(Coalition::from_members([1, 2])), 0.0);
        assert_eq!(u.eval(Coalition::full(3)), 1.0);
    }

    #[test]
    fn hash_utility_is_deterministic_and_spread() {
        let u = HashUtility { n: 10, seed: 42 };
        let a = u.eval(Coalition::from_members([1, 5]));
        let b = u.eval(Coalition::from_members([1, 5]));
        assert_eq!(a, b);
        // Different seeds give different functions.
        let u2 = HashUtility { n: 10, seed: 43 };
        assert_ne!(a, u2.eval(Coalition::from_members([1, 5])));
        // Values stay in [0, 1).
        for s in all_subsets(10) {
            let v = u.eval(s);
            assert!((0.0..1.0).contains(&v));
        }
    }

    #[test]
    fn cached_utility_counts_distinct_evaluations() {
        let u = CachedUtility::new(TableUtility::paper_table1());
        let s = Coalition::from_members([0, 1]);
        let v1 = u.eval(s);
        let v2 = u.eval(s);
        assert_eq!(v1, v2);
        let stats = u.stats();
        assert_eq!(stats.evaluations, 1);
        assert_eq!(stats.lookups, 2);
        assert_eq!(u.cached_len(), 1);
        assert!(u.is_cached(s));
        assert!(!u.is_cached(Coalition::empty()));
        u.reset_stats();
        assert_eq!(u.stats().evaluations, 0);
        assert_eq!(u.cached_len(), 1, "reset_stats keeps the memo table");
        u.clear();
        assert_eq!(u.cached_len(), 0);
    }

    #[test]
    fn noisy_utility_bounded_and_deterministic() {
        let base = AdditiveUtility::new(0.0, vec![1.0; 6]);
        let u = NoisyUtility::new(base, 0.05, 7);
        for s in all_subsets(6) {
            let v = u.eval(s);
            let clean = s.size() as f64;
            assert!((v - clean).abs() <= 0.05 + 1e-12);
            assert_eq!(v, u.eval(s));
        }
    }

    #[test]
    fn eval_batch_default_matches_eval() {
        let u = TableUtility::paper_table1();
        let coalitions: Vec<Coalition> = all_subsets(3).collect();
        let batch = u.eval_batch(&coalitions);
        for (&s, &v) in coalitions.iter().zip(&batch) {
            assert_eq!(v, u.eval(s));
        }
    }

    #[test]
    fn cached_eval_batch_dedups_and_counts_once() {
        let u = CachedUtility::new(TableUtility::paper_table1());
        let s01 = Coalition::from_members([0, 1]);
        let s2 = Coalition::singleton(2);
        // Duplicates inside one batch must train once.
        let batch = u.eval_batch(&[s01, s2, s01, s01]);
        assert_eq!(batch[0], batch[2]);
        assert_eq!(batch[0], batch[3]);
        assert_eq!(u.stats().evaluations, 2);
        assert_eq!(u.stats().lookups, 4);
        // A second batch over the same coalitions is all hits.
        let again = u.eval_batch(&[s2, s01]);
        assert_eq!(again, vec![batch[1], batch[0]]);
        assert_eq!(u.stats().evaluations, 2);
        assert_eq!(u.stats().lookups, 6);
        // Mixed eval/eval_batch agree.
        assert_eq!(u.eval(s01), batch[0]);
    }

    #[test]
    fn parallel_utility_matches_serial_at_any_thread_count() {
        let base = HashUtility { n: 11, seed: 9 };
        let coalitions: Vec<Coalition> = all_subsets(11).collect();
        let serial = base.eval_batch(&coalitions);
        for threads in [1usize, 2, 4, 8] {
            let par = ParallelUtility::with_num_threads(base.clone(), threads);
            assert_eq!(par.n_clients(), 11);
            let got = par.eval_batch(&coalitions);
            assert_eq!(got, serial, "thread count {threads}");
        }
        let default_par = ParallelUtility::new(base);
        assert_eq!(default_par.eval_batch(&coalitions), serial);
    }

    #[test]
    fn cached_parallel_composition_counts_distinct_once() {
        let u = CachedUtility::new(ParallelUtility::with_num_threads(
            HashUtility { n: 10, seed: 5 },
            4,
        ));
        let coalitions: Vec<Coalition> = all_subsets(10).collect();
        let values = u.eval_batch(&coalitions);
        assert_eq!(u.stats().evaluations, 1 << 10);
        assert_eq!(u.cached_len(), 1 << 10);
        // Re-evaluating is pure cache hits with identical values.
        let again = u.eval_batch(&coalitions);
        assert_eq!(values, again);
        assert_eq!(u.stats().evaluations, 1 << 10);
    }

    #[test]
    fn shards_spread_masks() {
        // All 2^12 masks must not land in one shard (the point of
        // sharding); splitmix64 spreads far better than this bound.
        let mut counts = [0usize; super::CACHE_SHARDS];
        for m in 0u128..(1 << 12) {
            counts[super::shard_of(m)] += 1;
        }
        let max = *counts.iter().max().unwrap();
        assert!(max < (1 << 12) / 4, "{counts:?}");
        assert!(counts.iter().all(|&c| c > 0), "{counts:?}");
    }

    #[test]
    fn utility_trait_object_via_reference() {
        fn takes_util(u: &dyn Utility) -> f64 {
            u.eval(Coalition::singleton(0))
        }
        let t = TableUtility::paper_table1();
        assert_eq!(takes_util(&t), 0.50);
        let r = &t;
        assert_eq!(r.eval_full(), 0.96);
    }
}
