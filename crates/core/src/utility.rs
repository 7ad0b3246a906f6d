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

use crate::coalition::{fold_mask, splitmix64, Coalition, MaskHash, MAX_ENUMERATED_CLIENTS};

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

/// Number of independent lock shards in the hashed store of
/// [`CachedUtility`]. A power of two; 16 shards keep write-lock collision
/// probability below 7% even with 16 concurrent FL trainings finishing
/// simultaneously, while costing only 16 small `HashMap`s keyed through
/// [`MaskHash`].
const CACHE_SHARDS: usize = 16;

/// Largest game whose memo is a flat table indexed by the coalition mask:
/// 2^20 values and their presence words take 8.1 MiB, allocated when the
/// memo is built. Wider games keep the hashed store, which grows one entry
/// per distinct mask.
const FLAT_MEMO_MAX_CLIENTS: usize = 20;

/// Memoising wrapper around a [`Utility`].
///
/// The SV approximation algorithms repeatedly touch overlapping coalitions
/// (e.g. the MC-SV pairing `S` / `S\{i}`); caching guarantees each FL
/// training process runs exactly once per coalition, mirroring the paper's
/// accounting where cost is the number of *distinct* trained models.
///
/// The store is chosen from `n_clients()` alone. A game of at most 20
/// clients gets a flat table of all `2^n` slots (8.1 MiB at n = 20),
/// indexed by the coalition mask, with a presence bit per slot: a lookup
/// takes no lock and computes no hash. A wider game keeps one entry per
/// distinct mask in maps sharded by a hash of the mask, so that
/// concurrent evaluations (the [`ParallelUtility`] fan-out, or many
/// independent valuation runs sharing one cache) do not serialise on a
/// single write lock; inside a shard masks hash with [`MaskHash`].
/// [`EvalStats`] stays exact under contention in both stores: when two
/// threads race to train the same coalition, only the thread whose insert
/// lands first increments `evaluations`.
pub struct CachedUtility<U: Utility> {
    inner: U,
    store: Store,
    evaluations: AtomicU64,
    lookups: AtomicU64,
    eval_nanos: AtomicU64,
}

/// The memo table of [`CachedUtility`].
enum Store {
    /// Games of at most [`FLAT_MEMO_MAX_CLIENTS`] clients.
    Flat(FlatStore),
    /// Wider games: [`CACHE_SHARDS`] locked maps, picked by [`shard_of`].
    Hashed(Box<[RwLock<HashMap<u128, f64, MaskHash>>]>),
}

/// Every coalition's value bits, indexed by mask, and one presence bit
/// per mask. A writer stores its values before it sets their bits
/// (release); a reader that sees a bit (acquire) sees its value. Writers
/// racing on one slot store identical bits — the [`Utility`] determinism
/// contract — so a later write never changes what a reader already saw.
struct FlatStore {
    n: usize,
    values: Box<[AtomicU64]>,
    present: Box<[AtomicU64]>,
}

impl FlatStore {
    fn new(n: usize) -> Self {
        let zeros = |len: usize| (0..len).map(|_| AtomicU64::new(0)).collect();
        FlatStore {
            n,
            values: zeros(1 << n),
            present: zeros((1usize << n).div_ceil(64)),
        }
    }

    /// Slot, presence word and presence bit of a mask.
    fn locate(&self, mask: u128) -> (usize, usize, u64) {
        assert!(
            mask >> self.n == 0,
            "coalition {mask:#x} lies outside the memo's {}-client game",
            self.n
        );
        let slot = mask as usize;
        (slot, slot / 64, 1 << (slot % 64))
    }

    fn get(&self, mask: u128) -> Option<f64> {
        let (slot, word, bit) = self.locate(mask);
        if self.present[word].load(Ordering::Acquire) & bit == 0 {
            return None;
        }
        Some(f64::from_bits(self.values[slot].load(Ordering::Relaxed)))
    }

    /// Store a run of values, then set their presence bits with one
    /// release `fetch_or` per presence word; ascending masks share words
    /// most. Returns how many of the bits this call set first.
    fn insert_run(&self, masks: &[Coalition], values: &[f64]) -> usize {
        let mut values = values.iter();
        masks
            .chunk_by(|a, b| a.0 >> 6 == b.0 >> 6)
            .map(|run| {
                let mut bits = 0;
                for (s, v) in run.iter().zip(&mut values) {
                    let (slot, _, bit) = self.locate(s.0);
                    self.values[slot].store(v.to_bits(), Ordering::Relaxed);
                    bits |= bit;
                }
                let word = &self.present[(run[0].0 >> 6) as usize];
                (bits & !word.fetch_or(bits, Ordering::Release)).count_ones() as usize
            })
            .sum()
    }

    fn len(&self) -> usize {
        self.present
            .iter()
            .map(|word| word.load(Ordering::Relaxed).count_ones() as usize)
            .sum()
    }
}

/// Shard index for a coalition mask: top bits of a splitmix64 hash, so
/// masks differing only in low bits (adjacent coalitions) still spread.
/// Unseeded, unlike [`MaskHash`], so the index says nothing about a key's
/// hash inside its shard.
#[inline]
fn shard_of(mask: u128) -> usize {
    let h = splitmix64(fold_mask(mask));
    (h >> (64 - CACHE_SHARDS.trailing_zeros())) as usize
}

impl Store {
    fn for_game(n: usize) -> Self {
        if n <= FLAT_MEMO_MAX_CLIENTS {
            Store::Flat(FlatStore::new(n))
        } else {
            Store::Hashed(
                (0..CACHE_SHARDS)
                    .map(|_| RwLock::new(HashMap::default()))
                    .collect(),
            )
        }
    }

    fn get(&self, mask: u128) -> Option<f64> {
        match self {
            Store::Flat(flat) => flat.get(mask),
            Store::Hashed(shards) => shards[shard_of(mask)]
                .read()
                .unwrap_or_else(PoisonError::into_inner)
                .get(&mask)
                .copied(),
        }
    }

    /// Store freshly evaluated values; returns how many this call stored
    /// first.
    fn insert_run(&self, masks: &[Coalition], values: &[f64]) -> usize {
        match self {
            Store::Flat(flat) => flat.insert_run(masks, values),
            // Poison-tolerant: inserts run after the inner call returns,
            // so a poisoned shard holds only fully-written entries. A
            // racing writer overwrites identical bits.
            Store::Hashed(shards) => masks
                .iter()
                .zip(values)
                .filter(|&(s, &v)| {
                    let mut shard = shards[shard_of(s.0)]
                        .write()
                        .unwrap_or_else(PoisonError::into_inner);
                    shard.insert(s.0, v).is_none()
                })
                .count(),
        }
    }

    fn len(&self) -> usize {
        match self {
            Store::Flat(flat) => flat.len(),
            Store::Hashed(shards) => shards
                .iter()
                .map(|s| s.read().unwrap_or_else(PoisonError::into_inner).len())
                .sum(),
        }
    }
}

impl<U: Utility> CachedUtility<U> {
    pub fn new(inner: U) -> Self {
        let store = Store::for_game(inner.n_clients());
        CachedUtility {
            inner,
            store,
            evaluations: AtomicU64::new(0),
            lookups: AtomicU64::new(0),
            eval_nanos: AtomicU64::new(0),
        }
    }

    /// Access the wrapped utility.
    pub fn inner(&self) -> &U {
        &self.inner
    }

    /// Statistics accumulated since construction.
    pub fn stats(&self) -> EvalStats {
        EvalStats {
            evaluations: self.evaluations.load(Ordering::Relaxed) as usize,
            lookups: self.lookups.load(Ordering::Relaxed) as usize,
            eval_time: Duration::from_nanos(self.eval_nanos.load(Ordering::Relaxed)),
        }
    }

    /// Number of memoised coalitions.
    pub fn cached_len(&self) -> usize {
        self.store.len()
    }

    /// True iff the coalition has already been evaluated.
    pub fn is_cached(&self, s: Coalition) -> bool {
        self.store.get(s.0).is_some()
    }

    /// Evaluate distinct misses with `eval` on the inner utility and store
    /// them. Only what this call stored first counts towards `evaluations`;
    /// its wall time is charged once if anything was, since a concurrent
    /// inner batch has no per-item attribution.
    fn evaluate(&self, misses: &[Coalition], eval: impl FnOnce(&U) -> Vec<f64>) -> Vec<f64> {
        #[expect(
            clippy::disallowed_methods,
            reason = "EvalStats gauge: eval_nanos is reporting-only and never feeds a computed value"
        )]
        let start = Instant::now();
        let values = eval(&self.inner);
        let nanos = start.elapsed().as_nanos() as u64;
        debug_assert_eq!(values.len(), misses.len());
        let fresh = self.store.insert_run(misses, &values);
        if fresh > 0 {
            self.evaluations.fetch_add(fresh as u64, Ordering::Relaxed);
            self.eval_nanos.fetch_add(nanos, Ordering::Relaxed);
        }
        values
    }
}

impl<U: Utility> Utility for CachedUtility<U> {
    fn n_clients(&self) -> usize {
        self.inner.n_clients()
    }

    fn eval(&self, s: Coalition) -> f64 {
        self.lookups.fetch_add(1, Ordering::Relaxed);
        match self.store.get(s.0) {
            Some(v) => v,
            None => self.evaluate(&[s], |u| vec![u.eval(s)])[0],
        }
    }

    /// Batched lookup: hits resolve from the store; the misses go through
    /// `dedup_by_mask` to the inner utility as one batch of distinct
    /// coalitions in ascending mask order, so a parallel inner utility can
    /// train them concurrently. Each counter takes one add per batch.
    fn eval_batch(&self, coalitions: &[Coalition]) -> Vec<f64> {
        self.lookups
            .fetch_add(coalitions.len() as u64, Ordering::Relaxed);
        let mut out = vec![0.0f64; coalitions.len()];
        // The misses, and the output position of each.
        let (mut misses, mut at) = (Vec::new(), Vec::new());
        for (pos, &s) in coalitions.iter().enumerate() {
            if let Some(v) = self.store.get(s.0) {
                out[pos] = v;
                continue;
            }
            if misses.is_empty() {
                // Sized at the first miss: a cold batch misses throughout,
                // an all-hit batch allocates nothing.
                misses.reserve(coalitions.len() - pos);
                at.reserve(coalitions.len() - pos);
            }
            misses.push(s);
            at.push(pos);
        }
        if misses.is_empty() {
            return out;
        }
        let (distinct, slots) = dedup_by_mask(misses);
        let values = self.evaluate(&distinct, |u| u.eval_batch(&distinct));
        for (i, pos) in at.into_iter().enumerate() {
            out[pos] = values[slots.as_ref().map_or(i, |slots| slots[i])];
        }
        out
    }
}

/// The distinct coalitions of `batch` in ascending mask order, and for
/// each position of `batch` the index of its coalition among them —
/// `None` when `batch` is strictly ascending already. Such a batch (an
/// exact sweep's chunk, an IPSS stratum, a flush's pick) is its own
/// answer: it comes back as is after one pass, with no sort.
pub(crate) fn dedup_by_mask(batch: Vec<Coalition>) -> (Vec<Coalition>, Option<Vec<usize>>) {
    if batch.is_sorted_by(|a, b| a < b) {
        return (batch, None);
    }
    let mut keyed: Vec<(Coalition, usize)> = batch.iter().copied().zip(0..).collect();
    // `(mask, position)` keys are unique, so the unstable sort is
    // deterministic.
    keyed.sort_unstable();
    let (mut distinct, mut slots) = (batch, vec![0usize; keyed.len()]);
    distinct.clear();
    for (s, pos) in keyed {
        if distinct.last() != Some(&s) {
            distinct.push(s);
        }
        slots[pos] = distinct.len() - 1;
    }
    (distinct, Some(slots))
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
        assert!(
            n <= MAX_ENUMERATED_CLIENTS,
            "TableUtility stores 2^n values; n too large"
        );
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
pub(crate) mod tests {
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
    }

    /// Records each batch it is handed, then evaluates it.
    pub(crate) struct Recording {
        pub(crate) inner: HashUtility,
        pub(crate) log: std::sync::Mutex<Vec<Vec<Coalition>>>,
    }

    impl Utility for Recording {
        fn n_clients(&self) -> usize {
            self.inner.n
        }
        fn eval(&self, s: Coalition) -> f64 {
            self.eval_batch(&[s])[0]
        }
        fn eval_batch(&self, coalitions: &[Coalition]) -> Vec<f64> {
            self.log.lock().unwrap().push(coalitions.to_vec());
            self.inner.eval_batch(coalitions)
        }
    }

    #[test]
    fn cached_batches_match_the_inner_on_both_sides_of_the_flat_bound() {
        use std::collections::BTreeSet;
        let sorted = |masks: &[Coalition]| -> Vec<Coalition> {
            let set: BTreeSet<Coalition> = masks.iter().copied().collect();
            set.into_iter().collect()
        };
        for n in [0usize, 1, 20, 21, 24, 25, 30, 128] {
            let u = CachedUtility::new(Recording {
                inner: HashUtility { n, seed: 11 },
                log: Default::default(),
            });
            let full = Coalition::full(n).0;
            // Spread over the whole mask width.
            let spread = |k: u64| {
                let wide = (splitmix64(k) as u128) << 64 | splitmix64(!k) as u128;
                Coalition(wide & full)
            };
            let check = |batch: &[Coalition], values: &[f64]| {
                for (s, v) in batch.iter().zip(values) {
                    assert_eq!(v.to_bits(), u.inner().inner.eval(*s).to_bits(), "n = {n}");
                }
            };
            let log = || u.inner().log.lock().unwrap().clone();
            // A cold ascending batch passes to the inner as is.
            let ascending = sorted(&(0..100).map(spread).collect::<Vec<_>>());
            check(&ascending, &u.eval_batch(&ascending));
            assert_eq!(log(), vec![ascending.clone()], "n = {n}");
            assert_eq!(u.stats().evaluations, ascending.len(), "n = {n}");
            assert_eq!(u.stats().lookups, ascending.len(), "n = {n}");
            // Unsorted, duplicates included, a third of it cached: the
            // inner sees each distinct miss once, in ascending order.
            let masks: Vec<Coalition> = (0u64..300).map(|i| spread(i % 150 + 50)).collect();
            let all = sorted(&masks);
            let misses: Vec<Coalition> = all
                .iter()
                .filter(|s| ascending.binary_search(s).is_err())
                .copied()
                .collect();
            let values = u.eval_batch(&masks);
            check(&masks, &values);
            let mut want = vec![ascending.clone()];
            want.extend((!misses.is_empty()).then(|| misses.clone()));
            assert_eq!(log(), want, "n = {n}");
            let distinct = ascending.len() + misses.len();
            assert_eq!(u.stats().evaluations, distinct, "n = {n}");
            assert_eq!(u.stats().lookups, ascending.len() + masks.len(), "n = {n}");
            assert_eq!(u.cached_len(), distinct, "n = {n}");
            // A second pass, in reverse, is all hits.
            let rev: Vec<Coalition> = masks.iter().rev().copied().collect();
            let again = u.eval_batch(&rev);
            assert!(again.iter().rev().eq(values.iter()), "n = {n}");
            assert_eq!(log(), want, "n = {n}");
            assert_eq!(u.stats().evaluations, distinct, "n = {n}");
            assert_eq!(
                u.stats().lookups,
                ascending.len() + 2 * masks.len(),
                "n = {n}"
            );
            assert!(masks.iter().all(|&s| u.is_cached(s)), "n = {n}");

            // Two threads store overlapping ascending runs, which share
            // presence words: each mask counts once.
            let u = CachedUtility::new(HashUtility { n, seed: 11 });
            let run = |from: u128, to: u128| {
                sorted(
                    &(from..to)
                        .map(|i| Coalition((3 * i + 1) & full))
                        .collect::<Vec<_>>(),
                )
            };
            let runs = [run(0, 3000), run(1000, 4096)];
            std::thread::scope(|scope| {
                for batch in &runs {
                    let u = &u;
                    scope.spawn(move || check(batch, &u.eval_batch(batch)));
                }
            });
            let union = sorted(&runs.concat());
            assert_eq!(u.stats().evaluations, union.len(), "n = {n}");
            assert_eq!(u.stats().lookups, runs[0].len() + runs[1].len(), "n = {n}");
            assert_eq!(u.cached_len(), union.len(), "n = {n}");
        }
    }

    #[test]
    fn dedup_by_mask_sorts_only_what_is_not_ascending() {
        let masks = |m: &[u128]| m.iter().map(|&m| Coalition(m)).collect::<Vec<_>>();
        // A strictly ascending batch comes back as is: same buffer,
        // identity slots.
        let ascending = masks(&[0, 1, 5, 9, 1 << 100]);
        let buffer = ascending.as_ptr();
        let (distinct, slots) = dedup_by_mask(ascending);
        assert_eq!(distinct.as_ptr(), buffer);
        assert_eq!((distinct, slots), (masks(&[0, 1, 5, 9, 1 << 100]), None));
        assert_eq!(dedup_by_mask(Vec::new()), (Vec::new(), None));
        // Duplicates and disorder: the distinct masks ascending, and each
        // position's index among them.
        let (distinct, slots) = dedup_by_mask(masks(&[5, 1, 5, 5, 0, 1, 9, 9]));
        assert_eq!(distinct, masks(&[0, 1, 5, 9]));
        assert_eq!(slots, Some(vec![2, 1, 2, 2, 0, 1, 3, 3]));
        // Ascending but not strictly: the repeat still gets a slot.
        assert_eq!(
            dedup_by_mask(masks(&[1, 1, 2])),
            (masks(&[1, 2]), Some(vec![0, 0, 1]))
        );
    }

    #[test]
    fn racing_batches_count_each_coalition_once() {
        let u = CachedUtility::new(HashUtility { n: 20, seed: 11 });
        // An odd multiplier permutes the 2^20 masks: 4096 distinct ones,
        // out of mask order.
        let masks: Vec<Coalition> = (0u128..4096)
            .map(|i| Coalition((i * 0x9E3B + 0x5_A5A5) & 0xF_FFFF))
            .collect();
        let runs: Vec<Vec<f64>> = std::thread::scope(|scope| {
            let racers: Vec<_> = (0..2)
                .map(|_| scope.spawn(|| u.eval_batch(&masks)))
                .collect();
            racers
                .into_iter()
                .map(|r| r.join().unwrap_or_else(|e| std::panic::resume_unwind(e)))
                .collect()
        });
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&runs[0]), bits(&runs[1]));
        assert_eq!(bits(&runs[0]), bits(&u.inner().eval_batch(&masks)));
        assert_eq!(u.stats().evaluations, 4096);
        assert_eq!(u.stats().lookups, 2 * 4096);
        assert_eq!(u.cached_len(), 4096);
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
    fn mask_hash_is_independent_of_the_shard() {
        // Within one shard the hash table's 7-bit slot tags (the hash's
        // top bits) must still spread; a MaskHash sharing shard_of's bits
        // would pin 4 of the 7 and leave at most 8 tags.
        use std::hash::BuildHasher;
        let hasher = MaskHash::default();
        let tags: std::collections::BTreeSet<u64> = (0u128..)
            .filter(|&m| super::shard_of(m) == 0)
            .take(4096)
            .map(|m| hasher.hash_one(m) >> 57)
            .collect();
        assert!(tags.len() >= 64, "{} distinct tags", tags.len());
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
