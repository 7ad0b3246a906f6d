//! The round-0 trajectory table: each client's first local training,
//! paid once per table lifetime instead of once per lane block.
//!
//! Local training is a pure function of `(round-start params, client,
//! round)`. The only start state coalitions share is round 0's: one
//! server init for every combination (Def. 1). Within a lane block the
//! engine trains it once per client; across blocks, calls and threads
//! this table does. Later start states are functions of the coalition,
//! which `CachedUtility` trains once. So [`TrajectoryCache`] keeps one
//! set-once slot per client with its round-0 `Δ = local − init` and
//! nothing else — at round `r ≥ 1` an insert is a no-op, a lookup a miss,
//! and the engine does not even hash — plus the counters of
//! [`TrajCacheStats`].
//!
//! **Soundness.** A replayed slot must be the bits training would give:
//! same client data, same [`crate::config::FedAvgConfig`], bit-equal init.
//! A slot keeps the init's key hash and independent fingerprint; a lookup
//! disagreeing on either misses, and the first value stays. `FlUtility`
//! owns one table — never share one across configs or datasets.
//!
//! **Memory.** At most one `Δ` per client: `n · p · 4` bytes, no budget,
//! no eviction. After a 2-thread sweep of the ledger's n = 10 MLP game
//! (1 024 coalitions) this table holds 10 updates, 96 400 B; keeping
//! every round's `Δ` would hold 25 610, 246 880 400 B, for the same
//! 1 061 hits and 25 615 trainings.
//!
//! ```
//! use std::sync::Arc;
//! use fedval_fl::TrajectoryCache;
//! let cache = TrajectoryCache::new();
//! let init = vec![0.25f32; 4]; // the server init every coalition starts from
//! let (h, fp) = (TrajectoryCache::key_hash(&init), TrajectoryCache::fingerprint(&init));
//! cache.insert(h, fp, 3, 0, Arc::new(vec![0.5; 4])); // client 3, round 0
//! cache.insert(h, fp, 3, 1, Arc::new(vec![9.0; 4])); // round 1: not stored
//! assert_eq!(cache.lookup(h, fp, 3, 0).as_deref(), Some(&vec![0.5; 4]));
//! assert!(cache.lookup(h, fp, 3, 1).is_none());
//! let stats = cache.stats();
//! assert_eq!((stats.entries, stats.bytes, stats.hits), (1, 16, 1));
//! ```

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};

use fedval_core::coalition::MAX_CLIENTS;
pub use fedval_core::utility::TrajCacheStats;

use crate::config::mix64;

/// Seed of the bucket/key hash over round-start parameter bits.
const KEY_HASH_SEED: u64 = 0x7261_6A63_6163_6865; // "trajcache"
/// Seed of the independent fingerprint hash (collision guard).
const FINGERPRINT_SEED: u64 = 0x6669_6E67_6572_7072; // "fingerpr"

/// Hash the *bit pattern* of a parameter vector. Bit-level (not `==`)
/// equality is the right notion here: replaying a cached `Δ` is only
/// bit-identical to training when the round-start bits agree exactly
/// (`-0.0` and `+0.0` compare `==` but are different starting points for
/// f32 arithmetic).
fn hash_params(params: &[f32], seed: u64) -> u64 {
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

/// A client's round-0 update `Δ`, shared by reference.
type Delta = Arc<Vec<f32>>;

/// A round-0 update and the `(key hash, fingerprint)` of its init.
struct Slot {
    key: (u64, u64),
    delta: Delta,
}

/// One set-once slot per client (module docs: soundness). `Sync`, so one
/// handle serves the `CachedUtility → ParallelUtility → FlUtility` stack.
pub struct TrajectoryCache {
    slots: [OnceLock<Slot>; MAX_CLIENTS],
    probes: AtomicUsize,
    hits: AtomicUsize,
    local_trainings: AtomicUsize,
    round0_trainings: AtomicUsize,
}

impl Default for TrajectoryCache {
    fn default() -> Self {
        Self::new()
    }
}

impl TrajectoryCache {
    /// An empty table.
    pub fn new() -> Self {
        TrajectoryCache {
            slots: std::array::from_fn(|_| OnceLock::new()),
            probes: AtomicUsize::new(0),
            hits: AtomicUsize::new(0),
            local_trainings: AtomicUsize::new(0),
            round0_trainings: AtomicUsize::new(0),
        }
    }

    /// Counters plus occupancy (`evictions` is always 0). Exact serially;
    /// threads racing on one client's round 0 each count a training.
    pub fn stats(&self) -> TrajCacheStats {
        let filled = || self.slots.iter().filter_map(OnceLock::get);
        TrajCacheStats {
            probes: self.probes.load(Ordering::Relaxed),
            hits: self.hits.load(Ordering::Relaxed),
            local_trainings: self.local_trainings.load(Ordering::Relaxed),
            round0_trainings: self.round0_trainings.load(Ordering::Relaxed),
            entries: filled().count(),
            bytes: filled().map(|s| s.delta.len() * size_of::<f32>()).sum(),
            evictions: 0,
        }
    }

    /// `client`'s update for `round` from round-start params keyed
    /// `(hash, fp)`. Counts a probe; only a round-0 key match hits.
    pub fn lookup(&self, hash: u64, fp: u64, client: usize, round: usize) -> Option<Delta> {
        self.probes.fetch_add(1, Ordering::Relaxed);
        let slot = self.slots.get(client).filter(|_| round == 0)?.get()?;
        if slot.key != (hash, fp) {
            return None;
        }
        self.hits.fetch_add(1, Ordering::Relaxed);
        Some(Arc::clone(&slot.delta))
    }

    /// Record one local training actually performed, in any round.
    pub fn record_training(&self, round: usize) {
        self.local_trainings.fetch_add(1, Ordering::Relaxed);
        if round == 0 {
            self.round0_trainings.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Store `client`'s round-0 update; a no-op for `round ≠ 0` and for a
    /// filled slot (first wins — a racing duplicate is bit-identical by
    /// determinism, a colliding key keeps serial runs deterministic).
    pub fn insert(&self, hash: u64, fp: u64, client: usize, round: usize, delta: Delta) {
        if let (0, Some(slot)) = (round, self.slots.get(client)) {
            let key = (hash, fp);
            // An Err only means the slot was already filled: first wins.
            let _ = slot.set(Slot { key, delta });
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
mod tests {
    use super::*;

    fn base(seed: u64, p: usize) -> Vec<f32> {
        (0..p)
            .map(|i| (mix64(seed ^ i as u64) as f32) / (u64::MAX as f32))
            .collect()
    }

    /// Key/fingerprint pair for a synthetic params vector.
    fn keys(params: &[f32]) -> (u64, u64) {
        (
            TrajectoryCache::key_hash(params),
            TrajectoryCache::fingerprint(params),
        )
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
        // -0.0 == +0.0, but they are different starting points for f32
        // arithmetic: the key is over bits.
        assert_ne!(
            TrajectoryCache::key_hash(&[0.0]),
            TrajectoryCache::key_hash(&[-0.0])
        );
    }

    #[test]
    fn lookup_insert_roundtrip_with_stats() {
        // Round 0: miss, train, insert, hit — per client.
        let cache = TrajectoryCache::new();
        let (h, fp) = keys(&base(7, 32));
        assert!(cache.lookup(h, fp, 3, 0).is_none());
        cache.record_training(0);
        cache.insert(h, fp, 3, 0, Arc::new(vec![1.0; 32]));
        let hit = cache.lookup(h, fp, 3, 0).expect("hit");
        assert_eq!(hit.as_slice(), &[1.0f32; 32][..]);
        // Same params, another client: its own, still empty slot.
        assert!(cache.lookup(h, fp, 4, 0).is_none());
        // Out-of-range clients have no slot: a miss, never a panic.
        cache.insert(h, fp, MAX_CLIENTS, 0, Arc::new(vec![1.0; 32]));
        assert!(cache.lookup(h, fp, MAX_CLIENTS, 0).is_none());
        // Later-round trainings count, but only round 0's as round0.
        for round in [0, 1, 5] {
            cache.record_training(round);
        }
        let stats = cache.stats();
        assert_eq!(stats.misses(), 3);
        assert_eq!(
            stats,
            TrajCacheStats {
                probes: 4,
                hits: 1,
                local_trainings: 4,
                round0_trainings: 2,
                entries: 1,
                bytes: 32 * 4,
                evictions: 0,
            }
        );
    }

    #[test]
    fn first_insert_wins_and_a_mismatched_key_stays_a_miss() {
        let cache = TrajectoryCache::new();
        let (h, fp) = keys(&base(11, 16));
        cache.insert(h, fp, 0, 0, Arc::new(vec![1.0; 16]));
        // A colliding hash with another fingerprint, and another hash
        // outright, neither hit nor replace the slot.
        assert!(cache.lookup(h, fp ^ 1, 0, 0).is_none());
        assert!(cache.lookup(h ^ 1, fp, 0, 0).is_none());
        cache.insert(h, fp ^ 1, 0, 0, Arc::new(vec![2.0; 16]));
        cache.insert(h ^ 1, fp, 0, 0, Arc::new(vec![3.0; 16]));
        assert_eq!(cache.lookup(h, fp, 0, 0).expect("kept").as_slice()[0], 1.0);
        assert!(cache.lookup(h ^ 1, fp, 0, 0).is_none());
        assert_eq!(cache.stats().entries, 1);
    }

    #[test]
    fn later_rounds_are_never_stored_and_always_miss() {
        let cache = TrajectoryCache::new();
        let (h, fp) = keys(&base(13, 8));
        for round in 1..6 {
            cache.insert(h, fp, 2, round, Arc::new(vec![0.0; 8]));
            assert!(cache.lookup(h, fp, 2, round).is_none(), "round {round}");
        }
        let stats = cache.stats();
        assert_eq!((stats.entries, stats.bytes), (0, 0));
        assert_eq!((stats.probes, stats.hits), (5, 0));
        // Round 0 of the same key is unaffected: still empty, then filled.
        assert!(cache.lookup(h, fp, 2, 0).is_none());
        cache.insert(h, fp, 2, 0, Arc::new(vec![0.0; 8]));
        assert!(
            cache.lookup(h, fp, 2, 1).is_none(),
            "a filled slot is round 0 only"
        );
        assert!(cache.lookup(h, fp, 2, 0).is_some());
    }
}
