//! Cross-block trajectory cache: per-client per-round memoisation of
//! local-training updates.
//!
//! The lock-step engine already dedups shared trajectories *within* one
//! lane block: a client's local training is a pure function of
//! `(round-start params, client, round)` — the RNG stream is
//! coalition-independent by design — so bit-equal round-start lanes train
//! one representative per block. But an exact-SV or IPSS sweep spans many
//! blocks, and every block re-pays the round-0 local trainings (all lanes
//! start from the one shared server init). [`TrajectoryCache`] extends the
//! memoisation across blocks: keyed by a hash of the round-start
//! parameters plus `(client, round)`, guarded by an independent second
//! hash (the *fingerprint*) against hash collisions, it stores the
//! resulting update `Δ = local − base` so a later block — or a later
//! `eval_batch` call sharing the cache — replays it instead of training.
//!
//! **Soundness.** A cache entry may only be replayed where the training it
//! replaces would have produced the same bits: the same client data, the
//! same [`crate::config::FedAvgConfig`] (seed, lr, epochs, batch size,
//! algorithm) and a bit-equal round-start parameter vector. The
//! key binds the round-start bits (hash + fingerprint, 128 bits total —
//! a false hit needs a simultaneous collision in both), the client and
//! the round (which fixes the `local_seed` stream); everything else must
//! be held fixed by the owner. `FlUtility` guarantees this by owning one
//! cache per `eval_batch` call, or one shared handle per utility — never
//! share a cache across utilities with different configs or datasets.
//!
//! **Memory.** Every entry holds one update `Δ` — `p` floats for a
//! `p`-parameter model — so a long-lived shared handle (the
//! multi-valuation service's) grows by `4·p` bytes per distinct
//! client-round trajectory. Two release policies bound it:
//! [`TrajectoryCache::with_byte_budget`] evicts least-recently-used
//! entries whenever an insert crosses the budget, and
//! [`TrajectoryCache::clear`] drops everything between runs. Both are
//! pure memory/recompute trades: an evicted trajectory is re-trained on
//! its next miss, bit-identically, so values never depend on the budget.
//!
//! The cache also doubles as the *accounting* instrument for the paper's
//! cost model one level below whole-coalition utilities: it counts probes,
//! hits, actual local trainings, occupancy and evictions
//! ([`TrajCacheStats`], defined in `fedval-core` next to `EvalStats`), and
//! a counting-only mode ([`TrajectoryCache::counting_only`]) measures the
//! uncached baseline without changing any behaviour.
//!
//! ```
//! use std::sync::Arc;
//! use fedval_fl::TrajectoryCache;
//!
//! // A cache bounded to two 4-float updates (4 · 4 bytes each).
//! let cache = TrajectoryCache::with_byte_budget(32);
//! let delta = Arc::new(vec![0.5f32; 4]);
//! for round in 0..3 {
//!     let params = vec![round as f32; 4]; // distinct round-start params
//!     let (h, fp) = (
//!         TrajectoryCache::key_hash(&params),
//!         TrajectoryCache::fingerprint(&params),
//!     );
//!     cache.record_training(round);
//!     cache.insert(h, fp, 0, round, Arc::clone(&delta));
//! }
//! let stats = cache.stats();
//! assert_eq!((stats.entries, stats.evictions), (2, 1)); // oldest evicted
//! assert_eq!(stats.bytes, 32); // occupancy respects the budget
//! ```

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, PoisonError, RwLock};

pub use fedval_core::utility::TrajCacheStats;

use crate::config::mix64;

/// Seed of the bucket/key hash over round-start parameter bits.
const KEY_HASH_SEED: u64 = 0x7261_6A63_6163_6865; // "trajcache"
/// Seed of the independent fingerprint hash (collision guard).
const FINGERPRINT_SEED: u64 = 0x6669_6E67_6572_7072; // "fingerpr"

/// Hash the *bit pattern* of a parameter vector. Bit-level (not `==`)
/// equality is the right notion here: replaying a cached `Δ` — or
/// training one lane on behalf of another — is only bit-identical to solo
/// training when the round-start bits agree exactly (`-0.0` and `+0.0`
/// compare `==` but are different starting points for f32 arithmetic).
pub(crate) fn hash_params(params: &[f32], seed: u64) -> u64 {
    let mut h = seed ^ mix64(params.len() as u64);
    let mut chunks = params.chunks_exact(2);
    for pair in &mut chunks {
        let word = (pair[0].to_bits() as u64) | ((pair[1].to_bits() as u64) << 32);
        h = mix64(h ^ word);
    }
    if let [last] = chunks.remainder() {
        h = mix64(h ^ last.to_bits() as u64);
    }
    h
}

/// Bit-pattern equality of two parameter vectors — the verification step
/// run inside a hash bucket (strictly stronger than `==` for the lane
/// grouping it guards: `±0.0` stay distinct).
pub(crate) fn bits_eq(a: &[f32], b: &[f32]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// Lane classing of a round's base-parameter vectors: lanes with bit-equal
/// bases share a class (and hence one local training per client).
pub(crate) struct LaneClasses {
    /// Lane → class index.
    pub class_of: Vec<usize>,
    /// Class → the first lane carrying that base (its representative).
    pub reps: Vec<usize>,
    /// Class → the [`hash_params`] key hash of its base.
    pub hashes: Vec<u64>,
    /// Full-vector bit-equality comparisons performed — the hook the
    /// complexity regression test observes. Hash-bucketed classing does
    /// one comparison per (lane, same-hash prior class) pair, so all-
    /// distinct bases cost ~0 comparisons instead of the historical
    /// O(lanes²) pairwise scan.
    #[cfg_attr(not(test), allow(dead_code))]
    pub eq_checks: usize,
}

/// Partition lanes by bit-equal base parameters in O(lanes · p): bucket by
/// [`hash_params`] first, verify bit-equality only within a bucket.
pub(crate) fn class_lanes(bases: &[Vec<f32>]) -> LaneClasses {
    let lanes = bases.len();
    let mut class_of = vec![0usize; lanes];
    let mut reps: Vec<usize> = Vec::new();
    let mut hashes: Vec<u64> = Vec::new();
    let mut eq_checks = 0usize;
    // hash → classes carrying that hash (almost always exactly one).
    let mut buckets: HashMap<u64, Vec<usize>> = HashMap::new();
    for (l, base) in bases.iter().enumerate() {
        let h = hash_params(base, KEY_HASH_SEED);
        let bucket = buckets.entry(h).or_default();
        let mut found = None;
        for &c in bucket.iter() {
            eq_checks += 1;
            if bits_eq(&bases[reps[c]], base) {
                found = Some(c);
                break;
            }
        }
        match found {
            Some(c) => class_of[l] = c,
            None => {
                let c = reps.len();
                class_of[l] = c;
                reps.push(l);
                hashes.push(h);
                bucket.push(c);
            }
        }
    }
    LaneClasses {
        class_of,
        reps,
        hashes,
        eq_checks,
    }
}

/// Cache key: `(round-start params hash, client, round)`.
type Key = (u64, u32, u32);

struct Entry {
    /// Independent second hash of the round-start params; a lookup whose
    /// fingerprint disagrees is treated as a miss (hash collision), and
    /// the colliding insert keeps the first entry (first-wins, so serial
    /// runs stay deterministic).
    fingerprint: u64,
    delta: Arc<Vec<f32>>,
    /// Global generation at the entry's last touch (insert or hit) — the
    /// recency order the byte-budget eviction walks. Atomic so a hit under
    /// a shard *read* lock can still refresh it.
    last_used: AtomicU64,
}

/// Number of independent lock shards; matches `CachedUtility`'s sharding
/// rationale (concurrent `eval_batch` calls over one shared cache must not
/// serialise on a single write lock).
const TRAJ_SHARDS: usize = 16;

#[inline]
fn shard_of(key: &Key) -> usize {
    let h = mix64(key.0 ^ ((key.1 as u64) << 32) ^ key.2 as u64);
    (h >> (64 - TRAJ_SHARDS.trailing_zeros())) as usize
}

/// Cross-block (and, when shared, cross-`eval_batch`) cache of per-client
/// per-round local-training updates — see the module docs for the
/// soundness contract. Interior mutability (sharded `RwLock`s + atomic
/// counters) keeps it `Sync`, so one handle can serve the
/// `CachedUtility → ParallelUtility → FlUtility` stack across threads.
pub struct TrajectoryCache {
    shards: [RwLock<HashMap<Key, Entry>>; TRAJ_SHARDS],
    /// Counting-only mode: probes never hit and nothing is stored, but
    /// every counter still runs — the uncached baseline instrument.
    enabled: bool,
    /// Byte budget for resident entries (`None` = unbounded). Inserting
    /// past the budget evicts least-recently-used entries — see
    /// [`Self::with_byte_budget`].
    budget: Option<usize>,
    /// Monotone touch counter; every insert or hit stamps the entry with
    /// the next generation, giving eviction a total recency order.
    generation: AtomicU64,
    /// Bytes currently resident (`Σ delta.len() · 4` over live entries).
    bytes: AtomicU64,
    evictions: AtomicU64,
    probes: AtomicU64,
    hits: AtomicU64,
    local_trainings: AtomicU64,
    round0_trainings: AtomicU64,
}

impl Default for TrajectoryCache {
    fn default() -> Self {
        Self::new()
    }
}

impl TrajectoryCache {
    /// An enabled, empty cache.
    pub fn new() -> Self {
        Self::with_enabled(true)
    }

    /// A counting-only cache: never hits, never stores, still counts —
    /// used to measure the uncached baseline's local-training cost with
    /// the training path otherwise unchanged.
    pub fn counting_only() -> Self {
        Self::with_enabled(false)
    }

    /// An enabled cache that holds at most `budget` bytes of updates
    /// (each entry counts `p · 4` bytes for a `p`-parameter model;
    /// key/fingerprint overhead is not charged). An insert that pushes
    /// occupancy past the budget evicts least-recently-used entries —
    /// never the entry just inserted — until occupancy fits again.
    ///
    /// Eviction trades memory for re-training and nothing else: values
    /// stay bit-identical at any budget, because an evicted trajectory is
    /// simply trained again on its next miss. This is the memory backstop
    /// of long-lived shared handles (the multi-valuation service): one
    /// `Δ` per distinct client-round otherwise grows without bound.
    pub fn with_byte_budget(budget: usize) -> Self {
        let mut cache = Self::with_enabled(true);
        cache.budget = Some(budget);
        cache
    }

    fn with_enabled(enabled: bool) -> Self {
        TrajectoryCache {
            shards: std::array::from_fn(|_| RwLock::new(HashMap::new())),
            enabled,
            budget: None,
            generation: AtomicU64::new(0),
            bytes: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            probes: AtomicU64::new(0),
            hits: AtomicU64::new(0),
            local_trainings: AtomicU64::new(0),
            round0_trainings: AtomicU64::new(0),
        }
    }

    /// Whether lookups can hit (false for [`Self::counting_only`]).
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// The byte budget, if one was set ([`Self::with_byte_budget`]).
    pub fn byte_budget(&self) -> Option<usize> {
        self.budget
    }

    /// Bytes currently resident (the quantity [`Self::byte_budget`]
    /// bounds): `p · 4` per cached entry.
    pub fn resident_bytes(&self) -> usize {
        self.bytes.load(Ordering::Relaxed) as usize
    }

    /// Number of cached `(params, client, round)` → `Δ` entries.
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.read().unwrap_or_else(PoisonError::into_inner).len())
            .sum()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Statistics accumulated since construction (or the last
    /// [`Self::reset_stats`]). Exact under serial use; under concurrent
    /// sharing two threads may race to train the same key, each counting
    /// one training (values stay bit-identical either way).
    pub fn stats(&self) -> TrajCacheStats {
        TrajCacheStats {
            probes: self.probes.load(Ordering::Relaxed) as usize,
            hits: self.hits.load(Ordering::Relaxed) as usize,
            local_trainings: self.local_trainings.load(Ordering::Relaxed) as usize,
            round0_trainings: self.round0_trainings.load(Ordering::Relaxed) as usize,
            entries: self.len(),
            bytes: self.resident_bytes(),
            evictions: self.evictions.load(Ordering::Relaxed) as usize,
        }
    }

    /// Reset the statistics counters (the cache itself is kept, so the
    /// `entries`/`bytes` occupancy gauges are unaffected).
    pub fn reset_stats(&self) {
        self.probes.store(0, Ordering::Relaxed);
        self.hits.store(0, Ordering::Relaxed);
        self.local_trainings.store(0, Ordering::Relaxed);
        self.round0_trainings.store(0, Ordering::Relaxed);
        self.evictions.store(0, Ordering::Relaxed);
    }

    /// Drop all entries and statistics — the *per-run* memory-release
    /// policy: a service holding a shared handle can `clear()` between
    /// runs instead of (or on top of) a byte budget. Holds every shard
    /// lock while zeroing the byte gauge, so a racing insert can never
    /// leave the gauge out of sync with the maps.
    pub fn clear(&self) {
        let mut shards: Vec<_> = self
            .shards
            .iter()
            .map(|s| s.write().unwrap_or_else(PoisonError::into_inner))
            .collect();
        for shard in shards.iter_mut() {
            shard.clear();
        }
        self.bytes.store(0, Ordering::Relaxed);
        drop(shards);
        self.reset_stats();
    }

    /// Look up the update of (round-start params with `base_hash` /
    /// `fingerprint`, `client`, `round`). Counts a probe; a fingerprint
    /// mismatch is a miss.
    pub fn lookup(
        &self,
        base_hash: u64,
        fingerprint: u64,
        client: usize,
        round: usize,
    ) -> Option<Arc<Vec<f32>>> {
        self.probes.fetch_add(1, Ordering::Relaxed);
        if !self.enabled {
            return None;
        }
        let key = (base_hash, client as u32, round as u32);
        let shard = self.shards[shard_of(&key)]
            .read()
            .unwrap_or_else(PoisonError::into_inner);
        let entry = shard.get(&key)?;
        if entry.fingerprint != fingerprint {
            return None;
        }
        self.hits.fetch_add(1, Ordering::Relaxed);
        entry.last_used.store(
            self.generation.fetch_add(1, Ordering::Relaxed),
            Ordering::Relaxed,
        );
        Some(Arc::clone(&entry.delta))
    }

    /// Record one local training actually performed (a miss that was paid
    /// for); counted even in counting-only mode.
    pub fn record_training(&self, round: usize) {
        self.local_trainings.fetch_add(1, Ordering::Relaxed);
        if round == 0 {
            self.round0_trainings.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Insert the update for a key. First-wins on a (vanishingly rare)
    /// hash collision with a different fingerprint; re-inserting the same
    /// key/fingerprint (two threads racing on one trajectory) is benign —
    /// both deltas are bit-identical by determinism. On a budgeted cache
    /// ([`Self::with_byte_budget`]) an insert that crosses the budget
    /// evicts least-recently-used entries (never this one) until resident
    /// bytes fit again.
    pub fn insert(
        &self,
        base_hash: u64,
        fingerprint: u64,
        client: usize,
        round: usize,
        delta: Arc<Vec<f32>>,
    ) {
        if !self.enabled {
            return;
        }
        let key = (base_hash, client as u32, round as u32);
        let entry_bytes = delta.len() * std::mem::size_of::<f32>();
        let new_total = {
            // The byte gauge moves while the shard write lock is held, so
            // map contents and accounting stay atomic with respect to
            // `evict_to_budget`/`clear` (both take every shard lock).
            let mut shard = self.shards[shard_of(&key)]
                .write()
                .unwrap_or_else(PoisonError::into_inner);
            if let std::collections::hash_map::Entry::Vacant(e) = shard.entry(key) {
                e.insert(Entry {
                    fingerprint,
                    delta,
                    last_used: AtomicU64::new(self.generation.fetch_add(1, Ordering::Relaxed)),
                });
                self.bytes.fetch_add(entry_bytes as u64, Ordering::Relaxed) as usize + entry_bytes
            } else {
                return; // first-wins: occupancy unchanged
            }
        };
        if new_total > self.budget.unwrap_or(usize::MAX) {
            self.evict_to_budget(&key);
        }
    }

    /// Evict least-recently-used entries until resident bytes fit the
    /// budget, sparing `protect` (the entry whose insert triggered the
    /// sweep — a budget smaller than one update still caches the newest
    /// trajectory rather than thrashing on itself). Takes every shard's
    /// write lock in index order, so concurrent evictions cannot deadlock
    /// and the LRU order is exact at the moment of the sweep: with all
    /// locks held no generation stamp can move, so one scan collects the
    /// full recency order and the sweep evicts from it without rescanning
    /// per victim.
    fn evict_to_budget(&self, protect: &Key) {
        let budget = match self.budget {
            Some(b) => b,
            None => return,
        };
        let mut shards: Vec<_> = self
            .shards
            .iter()
            .map(|s| s.write().unwrap_or_else(PoisonError::into_inner))
            .collect();
        let mut resident = self.bytes.load(Ordering::Relaxed) as usize;
        if resident <= budget {
            return; // a concurrent sweep already finished the job
        }
        // (last_used, shard, key) for every unprotected entry, oldest
        // first; generation stamps are unique, so the order is total.
        let mut candidates: Vec<(u64, usize, Key)> = shards
            .iter()
            .enumerate()
            .flat_map(|(si, shard)| {
                shard
                    .iter()
                    .filter(|(k, _)| *k != protect)
                    .map(move |(k, e)| (e.last_used.load(Ordering::Relaxed), si, *k))
            })
            .collect();
        candidates.sort_unstable();
        for (_, si, key) in candidates {
            if resident <= budget {
                break;
            }
            let Some(evicted) = shards[si].remove(&key) else {
                unreachable!("candidate keys were enumerated under these same locks")
            };
            let sz = evicted.delta.len() * std::mem::size_of::<f32>();
            resident -= sz;
            self.bytes.fetch_sub(sz as u64, Ordering::Relaxed);
            self.evictions.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Key hash of a round-start parameter vector.
    pub fn key_hash(params: &[f32]) -> u64 {
        hash_params(params, KEY_HASH_SEED)
    }

    /// Collision-guard fingerprint of a round-start parameter vector
    /// (independent of [`Self::key_hash`]).
    pub fn fingerprint(params: &[f32]) -> u64 {
        hash_params(params, FINGERPRINT_SEED)
    }
}

#[cfg(test)]
// Tests assert invariants; an unwrap that trips IS the test failing.
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;

    fn base(seed: u64, p: usize) -> Vec<f32> {
        (0..p)
            .map(|i| (mix64(seed ^ i as u64) as f32) / (u64::MAX as f32))
            .collect()
    }

    #[test]
    fn hashes_spread_and_fingerprint_is_independent() {
        let a = base(1, 64);
        let mut b = a.clone();
        b[63] += 1e-7; // one-bit-ish change must move both hashes
        assert_ne!(TrajectoryCache::key_hash(&a), TrajectoryCache::key_hash(&b));
        assert_ne!(
            TrajectoryCache::fingerprint(&a),
            TrajectoryCache::fingerprint(&b)
        );
        assert_ne!(
            TrajectoryCache::key_hash(&a),
            TrajectoryCache::fingerprint(&a)
        );
        // Odd lengths exercise the remainder lane.
        assert_ne!(
            TrajectoryCache::key_hash(&a[..63]),
            TrajectoryCache::key_hash(&a)
        );
    }

    #[test]
    fn bit_equality_distinguishes_signed_zero() {
        assert!(bits_eq(&[0.0, 1.0], &[0.0, 1.0]));
        assert!(!bits_eq(&[0.0], &[-0.0]));
        assert!(!bits_eq(&[0.0], &[0.0, 0.0]));
        assert_ne!(
            TrajectoryCache::key_hash(&[0.0]),
            TrajectoryCache::key_hash(&[-0.0])
        );
    }

    #[test]
    fn lookup_insert_roundtrip_with_stats() {
        let cache = TrajectoryCache::new();
        let b = base(7, 32);
        let (h, fp) = (
            TrajectoryCache::key_hash(&b),
            TrajectoryCache::fingerprint(&b),
        );
        assert!(cache.lookup(h, fp, 3, 0).is_none());
        cache.record_training(0);
        cache.insert(h, fp, 3, 0, Arc::new(vec![1.0; 32]));
        let hit = cache.lookup(h, fp, 3, 0).expect("hit");
        assert_eq!(hit.as_slice(), &[1.0f32; 32][..]);
        // Same params, different client/round: distinct keys.
        assert!(cache.lookup(h, fp, 4, 0).is_none());
        assert!(cache.lookup(h, fp, 3, 1).is_none());
        // Fingerprint mismatch is a miss, and the first entry survives.
        assert!(cache.lookup(h, fp ^ 1, 3, 0).is_none());
        cache.insert(h, fp ^ 1, 3, 0, Arc::new(vec![2.0; 32]));
        assert_eq!(cache.lookup(h, fp, 3, 0).expect("kept").as_slice()[0], 1.0);
        let stats = cache.stats();
        assert_eq!(stats.probes, 6);
        assert_eq!(stats.hits, 2);
        assert_eq!(stats.local_trainings, 1);
        assert_eq!(stats.round0_trainings, 1);
        assert_eq!(stats.misses(), 4);
        assert_eq!(cache.len(), 1);
        cache.clear();
        assert!(cache.is_empty());
        assert_eq!(cache.stats(), TrajCacheStats::default());
    }

    #[test]
    fn counting_only_never_hits_but_counts() {
        let cache = TrajectoryCache::counting_only();
        let b = base(9, 16);
        let (h, fp) = (
            TrajectoryCache::key_hash(&b),
            TrajectoryCache::fingerprint(&b),
        );
        cache.insert(h, fp, 0, 0, Arc::new(vec![0.5; 16]));
        assert!(cache.lookup(h, fp, 0, 0).is_none());
        cache.record_training(0);
        cache.record_training(2);
        let stats = cache.stats();
        assert_eq!(stats.probes, 1);
        assert_eq!(stats.hits, 0);
        assert_eq!(stats.local_trainings, 2);
        assert_eq!(stats.round0_trainings, 1);
        assert!(cache.is_empty());
        assert!(!cache.is_enabled());
    }

    /// Key/fingerprint pair for a synthetic params vector.
    fn keys(params: &[f32]) -> (u64, u64) {
        (
            TrajectoryCache::key_hash(params),
            TrajectoryCache::fingerprint(params),
        )
    }

    #[test]
    fn byte_budget_evicts_lru_and_counts_exactly() {
        const P: usize = 16; // floats per entry → 64 bytes each
        let cache = TrajectoryCache::with_byte_budget(3 * P * 4);
        assert_eq!(cache.byte_budget(), Some(192));
        // Insert rounds 0..3 for one client: all fit (3 entries, 192 B).
        let bases: Vec<Vec<f32>> = (0..4).map(|r| base(100 + r as u64, P)).collect();
        for (r, b) in bases.iter().enumerate().take(3) {
            let (h, fp) = keys(b);
            cache.insert(h, fp, 0, r, Arc::new(vec![r as f32; P]));
        }
        assert_eq!(cache.stats().entries, 3);
        assert_eq!(cache.stats().bytes, 192);
        assert_eq!(cache.stats().evictions, 0);
        // Touch round 0 (a hit refreshes its recency), then overflow with
        // round 3: round 1 is now the least recently used and must go.
        let (h0, fp0) = keys(&bases[0]);
        assert!(cache.lookup(h0, fp0, 0, 0).is_some());
        let (h3, fp3) = keys(&bases[3]);
        cache.insert(h3, fp3, 0, 3, Arc::new(vec![3.0; P]));
        let stats = cache.stats();
        assert_eq!(stats.entries, 3);
        assert_eq!(stats.bytes, 192);
        assert_eq!(stats.evictions, 1);
        let (h1, fp1) = keys(&bases[1]);
        assert!(
            cache.lookup(h1, fp1, 0, 1).is_none(),
            "LRU entry (round 1, never touched after insert) must be evicted"
        );
        assert!(cache.lookup(h0, fp0, 0, 0).is_some(), "hot entry survives");
        assert!(cache.lookup(h3, fp3, 0, 3).is_some(), "newest entry kept");
        // reset_stats clears the cumulative eviction counter but not the
        // occupancy gauges.
        cache.reset_stats();
        let stats = cache.stats();
        assert_eq!((stats.evictions, stats.entries, stats.bytes), (0, 3, 192));
        cache.clear();
        assert_eq!(cache.resident_bytes(), 0);
    }

    #[test]
    fn budget_smaller_than_one_entry_keeps_newest() {
        const P: usize = 8;
        let cache = TrajectoryCache::with_byte_budget(P * 4 - 1);
        let a = base(1, P);
        let b = base(2, P);
        let (ha, fpa) = keys(&a);
        cache.insert(ha, fpa, 0, 0, Arc::new(vec![1.0; P]));
        // Over budget, but the just-inserted entry is protected.
        assert_eq!(cache.stats().entries, 1);
        let (hb, fpb) = keys(&b);
        cache.insert(hb, fpb, 1, 0, Arc::new(vec![2.0; P]));
        // The older entry is evicted; the newest always stays resident.
        let stats = cache.stats();
        assert_eq!((stats.entries, stats.evictions), (1, 1));
        assert!(cache.lookup(ha, fpa, 0, 0).is_none());
        assert!(cache.lookup(hb, fpb, 1, 0).is_some());
    }

    #[test]
    fn unbounded_cache_never_evicts() {
        let cache = TrajectoryCache::new();
        assert_eq!(cache.byte_budget(), None);
        for r in 0..32 {
            let b = base(500 + r as u64, 8);
            let (h, fp) = keys(&b);
            cache.insert(h, fp, 0, r, Arc::new(vec![0.0; 8]));
        }
        let stats = cache.stats();
        assert_eq!((stats.entries, stats.evictions), (32, 0));
        assert_eq!(stats.bytes, 32 * 8 * 4);
    }

    #[test]
    fn lane_classing_matches_naive_scan() {
        // Correctness: hash-bucketed classing must produce exactly the
        // grouping of the historical pairwise scan (on bases without ±0.0
        // or NaN, where `==` and bit-equality coincide).
        let mut bases: Vec<Vec<f32>> = Vec::new();
        for l in 0..24 {
            bases.push(base((l % 7) as u64, 48)); // 7 distinct classes, duplicated
        }
        let classes = class_lanes(&bases);
        // Naive reference.
        let mut naive_reps: Vec<usize> = Vec::new();
        let mut naive_class: Vec<usize> = vec![0; bases.len()];
        for l in 0..bases.len() {
            match naive_reps.iter().position(|&r| bases[r] == bases[l]) {
                Some(c) => naive_class[l] = c,
                None => {
                    naive_class[l] = naive_reps.len();
                    naive_reps.push(l);
                }
            }
        }
        assert_eq!(classes.class_of, naive_class);
        assert_eq!(classes.reps, naive_reps);
        assert_eq!(classes.hashes.len(), classes.reps.len());
    }

    #[test]
    fn lane_classing_is_linear_in_comparisons() {
        // Regression for the O(lanes²·p) classing scan: with all-distinct
        // bases the hash buckets are singletons, so (absent a 64-bit hash
        // collision) *zero* full-vector comparisons happen — the old scan
        // performed lanes·(lanes−1)/2 of them.
        let distinct: Vec<Vec<f32>> = (0..64).map(|l| base(1000 + l as u64, 96)).collect();
        let classes = class_lanes(&distinct);
        assert_eq!(classes.reps.len(), 64);
        assert_eq!(classes.eq_checks, 0, "distinct bases must not be compared");
        // All-equal bases: exactly one comparison per non-representative.
        let equal: Vec<Vec<f32>> = vec![base(5, 96); 64];
        let classes = class_lanes(&equal);
        assert_eq!(classes.reps, vec![0]);
        assert_eq!(classes.eq_checks, 63);
    }
}
