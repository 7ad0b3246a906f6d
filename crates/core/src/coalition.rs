//! Coalitions (subsets of FL clients) represented as `u128` bitmasks.
//!
//! The paper's algorithms enumerate and sample *dataset combinations*
//! `S ⊆ N = {1, …, n}`. A bitmask representation makes membership tests,
//! unions and complements O(1) and gives a compact cache key for memoising
//! utility evaluations. `u128` supports the paper's largest experiment
//! (100 clients in the Fig. 9 scalability test) with headroom.
//!
//! Two mask-keyed helpers live here too: [`MaskHash`], the one hasher
//! every `u128`-keyed table in this crate uses, and [`ColexRank`], which
//! turns a coalition into its position in [`subsets_of_size`] order so a
//! whole stratum of values can be stored as a plain `Vec`.

use std::fmt;
use std::hash::{BuildHasherDefault, Hasher};

/// Maximum number of clients supported by the bitmask representation.
pub const MAX_CLIENTS: usize = 128;

/// Largest game whose `2^n` coalitions may be enumerated into a table
/// indexed by mask: the exact SV and Banzhaf sweeps and [`TableUtility`]
/// (2^24 values are 128 MiB).
///
/// [`TableUtility`]: crate::utility::TableUtility
pub const MAX_ENUMERATED_CLIENTS: usize = 24;

/// A set of FL clients, encoded as a bitmask. Client `i` (0-based) is a
/// member iff bit `i` is set.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct Coalition(pub u128);

impl Coalition {
    /// The empty coalition `∅`.
    #[inline]
    pub const fn empty() -> Self {
        Coalition(0)
    }

    /// The grand coalition `N = {0, …, n-1}`.
    #[inline]
    pub fn full(n: usize) -> Self {
        assert!(n <= MAX_CLIENTS, "at most {MAX_CLIENTS} clients supported");
        if n == MAX_CLIENTS {
            Coalition(u128::MAX)
        } else {
            Coalition((1u128 << n) - 1)
        }
    }

    /// Coalition containing exactly one client.
    #[inline]
    pub fn singleton(i: usize) -> Self {
        assert!(i < MAX_CLIENTS);
        Coalition(1u128 << i)
    }

    /// Build a coalition from an iterator of client indices.
    pub fn from_members<I: IntoIterator<Item = usize>>(members: I) -> Self {
        let mut mask = 0u128;
        for i in members {
            assert!(i < MAX_CLIENTS);
            mask |= 1u128 << i;
        }
        Coalition(mask)
    }

    /// Number of clients in the coalition (`|S|`).
    #[inline]
    pub const fn size(self) -> usize {
        self.0.count_ones() as usize
    }

    /// True iff the coalition is empty.
    #[inline]
    pub const fn is_empty(self) -> bool {
        self.0 == 0
    }

    /// Membership test: is client `i` in the coalition?
    #[inline]
    pub const fn contains(self, i: usize) -> bool {
        (self.0 >> i) & 1 == 1
    }

    /// `S ∪ {i}`.
    #[inline]
    pub const fn with(self, i: usize) -> Self {
        Coalition(self.0 | (1u128 << i))
    }

    /// `S \ {i}`.
    #[inline]
    pub const fn without(self, i: usize) -> Self {
        Coalition(self.0 & !(1u128 << i))
    }

    /// Set union.
    #[inline]
    pub const fn union(self, other: Self) -> Self {
        Coalition(self.0 | other.0)
    }

    /// Set intersection.
    #[inline]
    pub const fn intersect(self, other: Self) -> Self {
        Coalition(self.0 & other.0)
    }

    /// `N \ S` with respect to a ground set of `n` clients.
    #[inline]
    pub fn complement(self, n: usize) -> Self {
        Coalition(Self::full(n).0 & !self.0)
    }

    /// True iff `self ⊆ other`.
    #[inline]
    pub const fn is_subset_of(self, other: Self) -> bool {
        self.0 & !other.0 == 0
    }

    /// Iterate over member indices in ascending order.
    #[inline]
    pub fn members(self) -> Members {
        Members(self.0)
    }

    /// Collect the member indices into a `Vec`.
    pub fn to_vec(self) -> Vec<usize> {
        self.members().collect()
    }
}

impl fmt::Debug for Coalition {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (idx, m) in self.members().enumerate() {
            if idx > 0 {
                write!(f, ",")?;
            }
            write!(f, "{m}")?;
        }
        write!(f, "}}")
    }
}

impl fmt::Display for Coalition {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

/// Iterator over the member indices of a coalition.
pub struct Members(u128);

impl Iterator for Members {
    type Item = usize;

    #[inline]
    fn next(&mut self) -> Option<usize> {
        if self.0 == 0 {
            None
        } else {
            let i = self.0.trailing_zeros() as usize;
            self.0 &= self.0 - 1;
            Some(i)
        }
    }

    #[inline]
    fn size_hint(&self) -> (usize, Option<usize>) {
        let c = self.0.count_ones() as usize;
        (c, Some(c))
    }
}

impl ExactSizeIterator for Members {}

/// Iterator over all `2^n` subsets of `{0, …, n-1}` in mask order
/// (`∅` first, `N` last). Only sensible for small `n`.
pub fn all_subsets(n: usize) -> impl Iterator<Item = Coalition> {
    assert!(n <= 30, "all_subsets is intended for small n (got {n})");
    (0u128..(1u128 << n)).map(Coalition)
}

/// Iterator over all subsets of `{0, …, n-1}` with exactly `k` members, in
/// lexicographically increasing mask order (Gosper's hack).
pub struct SubsetsOfSize {
    current: Option<u128>,
    limit: u128,
}

impl Iterator for SubsetsOfSize {
    type Item = Coalition;

    fn next(&mut self) -> Option<Coalition> {
        let cur = self.current?;
        let result = Coalition(cur);
        // Gosper's hack: next integer with the same popcount. `checked_add`
        // catches the end of iteration at the top of the u128 range
        // (n = 128), where the increment would wrap.
        let c = cur & cur.wrapping_neg();
        self.current = match cur.checked_add(c) {
            // c == 0 ⟺ cur == 0 (the k == 0 case): only the empty set.
            Some(r) if c != 0 => {
                let n = (((r ^ cur) >> 2) / c) | r;
                (n < self.limit).then_some(n)
            }
            _ => None,
        };
        Some(result)
    }
}

/// All subsets of `{0, …, n-1}` of size exactly `k`.
pub fn subsets_of_size(n: usize, k: usize) -> SubsetsOfSize {
    assert!(n <= MAX_CLIENTS);
    assert!(k <= n);
    let limit = if n == MAX_CLIENTS {
        u128::MAX
    } else {
        1u128 << n
    };
    let first = if k == 0 {
        0
    } else if k == MAX_CLIENTS {
        u128::MAX
    } else {
        (1u128 << k) - 1
    };
    SubsetsOfSize {
        current: (first < limit || (k == n && n == MAX_CLIENTS)).then_some(first),
        limit,
    }
}

/// Colex ranks of coalitions with at most `k_max` members out of `n`
/// clients, from a `usize` Pascal table.
///
/// [`subsets_of_size`] enumerates a stratum in increasing mask order,
/// which for sets of equal size is colex order: with `p_j` the `j`-th
/// smallest member (1-based), `rank(S) = Σ_j C(p_j, j)` is `S`'s
/// position in the enumeration. A stratum enumerated whole can therefore
/// be stored by position and read back by rank, with no map.
#[derive(Clone, Debug)]
pub struct ColexRank {
    /// `C(p, j)` at `p · (k_max + 1) + j`, for `p < n` and `j ≤ k_max`.
    table: Vec<usize>,
    k_max: usize,
}

impl ColexRank {
    /// The table for coalitions of at most `k_max` out of `n` clients.
    /// Every entry is at most `C(n − 1, min(k_max, ⌊(n−1)/2⌋))`; panics if
    /// that overflows `usize` (it cannot when a caller stores a stratum of
    /// `C(n, k_max)` values).
    pub fn new(n: usize, k_max: usize) -> Self {
        assert!(n <= MAX_CLIENTS);
        let width = k_max + 1;
        let mut table = vec![0usize; n * width];
        for p in 0..n {
            table[p * width] = 1;
            for j in 1..width.min(p + 1) {
                // C(p, j) = C(p−1, j−1) + C(p−1, j); p ≥ j ≥ 1 here.
                let (a, b) = (table[(p - 1) * width + j - 1], table[(p - 1) * width + j]);
                let Some(c) = a.checked_add(b) else {
                    panic!("C({p}, {j}) overflows usize");
                };
                table[p * width + j] = c;
            }
        }
        ColexRank { table, k_max }
    }

    #[inline]
    fn binom(&self, p: usize, j: usize) -> usize {
        self.table[p * (self.k_max + 1) + j]
    }

    /// Position of `s` in [`subsets_of_size`]`(n, |s|)`; needs
    /// `|s| ≤ k_max`.
    pub fn rank(&self, s: Coalition) -> usize {
        s.members()
            .enumerate()
            .map(|(j, p)| self.binom(p, j + 1))
            .sum()
    }

    /// `(i, rank(t ∖ {i}))` for every member `i` of `t`, ascending; needs
    /// `|t| ≤ k_max + 1`. `O(|t|)` for all of them: dropping the `m`-th
    /// member keeps the terms below it and moves each term above it down
    /// one place, so the rank is a running prefix plus a running suffix.
    #[inline]
    pub fn ranks_without(&self, t: Coalition) -> RanksWithout<'_> {
        // Σ_{j ≥ 2} C(p_j, j − 1): every member above the first, moved down.
        let above = t
            .members()
            .enumerate()
            .skip(1)
            .map(|(j, p)| self.binom(p, j))
            .sum();
        RanksWithout {
            ranks: self,
            rest: t.0,
            place: 1,
            below: 0,
            above,
        }
    }
}

/// Iterator of [`ColexRank::ranks_without`].
pub struct RanksWithout<'a> {
    ranks: &'a ColexRank,
    /// Members not yet dropped; the lowest is the `place`-th of `t`.
    rest: u128,
    place: usize,
    /// `Σ C(p_j, j)` over the members below, `Σ C(p_j, j − 1)` above.
    below: usize,
    above: usize,
}

impl Iterator for RanksWithout<'_> {
    type Item = (usize, usize);

    #[inline]
    fn next(&mut self) -> Option<(usize, usize)> {
        if self.rest == 0 {
            return None;
        }
        let i = self.rest.trailing_zeros() as usize;
        self.rest &= self.rest - 1;
        let rank = self.below + self.above;
        if self.rest != 0 {
            // `i` stays in place for the next drop; the next member is
            // dropped, so it leaves the shifted suffix.
            let next = self.rest.trailing_zeros() as usize;
            self.below += self.ranks.binom(i, self.place);
            self.above -= self.ranks.binom(next, self.place);
            self.place += 1;
        }
        Some((i, rank))
    }
}

/// splitmix64 — tiny, high-quality mixing function used to derive
/// deterministic per-coalition pseudo-randomness and to hash masks.
#[inline]
pub(crate) fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// A mask folded to 64 bits: the high word rotated onto the low one.
#[inline]
pub(crate) fn fold_mask(mask: u128) -> u64 {
    mask as u64 ^ ((mask >> 64) as u64).rotate_left(32)
}

/// Seed that sets [`MaskHash`] apart from the cache's shard index (a
/// splitmix64 of the unseeded fold). Shared bits would give every key in
/// a shard the same top bits, and the hash table's per-slot tag is the
/// hash's top 7 bits.
const MASK_HASH_SEED: u64 = 0xD6E8_FEB8_6659_FD93;

/// The state of [`MaskHash`]: a splitmix64 finaliser over the folded
/// mask. Masks come from server-side samplers, never from clients, so a
/// keyed (flood-resistant) hash buys nothing here.
#[derive(Clone, Copy, Debug, Default)]
pub struct MaskHasher(u64);

impl Hasher for MaskHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }

    #[inline]
    fn write_u128(&mut self, mask: u128) {
        self.0 = splitmix64(self.0 ^ fold_mask(mask) ^ MASK_HASH_SEED);
    }

    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.0 = splitmix64(self.0 ^ u64::from_le_bytes(word) ^ MASK_HASH_SEED);
        }
    }
}

/// The hasher of every `u128`-keyed map and set in this crate
/// (`HashMap<u128, V, MaskHash>`, `HashSet<u128, MaskHash>`): one
/// splitmix64 per probe instead of SipHash's rounds.
pub type MaskHash = BuildHasherDefault<MaskHasher>;

/// Binomial coefficient `C(n, k)` as `f64`.
///
/// Exact for all values representable in `f64`'s 53-bit mantissa and a
/// monotone, well-conditioned approximation beyond; the paper's weights
/// `1/(n·C(n-1,|S|))` only ever need relative accuracy.
pub fn binom(n: usize, k: usize) -> f64 {
    if k > n {
        return 0.0;
    }
    let k = k.min(n - k);
    let mut acc = 1.0f64;
    for i in 0..k {
        acc = acc * (n - i) as f64 / (i + 1) as f64;
    }
    acc.round()
}

/// Binomial coefficient `C(n, k)` as `u128`, saturating at `u128::MAX`.
///
/// Saturation can trigger slightly before the result itself exceeds
/// `u128::MAX` (the running product momentarily overshoots, e.g. for
/// `C(128, 64)`); every consumer in this crate only compares the result
/// against budgets far below that range.
pub fn binom_u128(n: usize, k: usize) -> u128 {
    if k > n {
        return 0;
    }
    let k = k.min(n - k);
    let mut acc: u128 = 1;
    for i in 0..k {
        let num = (n - i) as u128;
        let den = (i + 1) as u128;
        // acc * num may overflow; do checked arithmetic with gcd-free order:
        // C(n, i+1) = C(n, i) * (n-i) / (i+1) is always exact.
        match acc.checked_mul(num) {
            Some(v) => acc = v / den,
            None => return u128::MAX,
        }
    }
    acc
}

/// Number of subsets of size ≤ `k` of an `n`-element ground set
/// (`Σ_{j=0}^{k} C(n, j)`), saturating.
pub fn subsets_up_to(n: usize, k: usize) -> u128 {
    let mut total: u128 = 0;
    for j in 0..=k.min(n) {
        total = total.saturating_add(binom_u128(n, j));
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_and_full() {
        assert_eq!(Coalition::empty().size(), 0);
        assert!(Coalition::empty().is_empty());
        assert_eq!(Coalition::full(5).size(), 5);
        assert_eq!(Coalition::full(128).size(), 128);
        assert_eq!(Coalition::full(0), Coalition::empty());
    }

    #[test]
    fn membership_and_modification() {
        let s = Coalition::from_members([0, 3, 7]);
        assert_eq!(s.size(), 3);
        assert!(s.contains(0) && s.contains(3) && s.contains(7));
        assert!(!s.contains(1));
        assert_eq!(s.with(1).size(), 4);
        assert_eq!(s.without(3).to_vec(), vec![0, 7]);
        assert_eq!(s.without(5), s, "removing a non-member is a no-op");
        assert_eq!(s.with(3), s, "adding a member is a no-op");
    }

    #[test]
    fn set_algebra() {
        let a = Coalition::from_members([0, 1, 2]);
        let b = Coalition::from_members([2, 3]);
        assert_eq!(a.union(b).to_vec(), vec![0, 1, 2, 3]);
        assert_eq!(a.intersect(b).to_vec(), vec![2]);
        assert_eq!(a.complement(5).to_vec(), vec![3, 4]);
        assert!(Coalition::from_members([1]).is_subset_of(a));
        assert!(!b.is_subset_of(a));
        assert!(Coalition::empty().is_subset_of(b));
    }

    #[test]
    fn complement_round_trip() {
        for n in [1usize, 4, 7, 100, 128] {
            let s = Coalition::from_members((0..n).filter(|i| i % 3 == 0));
            assert_eq!(s.complement(n).complement(n), s);
            assert_eq!(s.union(s.complement(n)), Coalition::full(n));
            assert!(s.intersect(s.complement(n)).is_empty());
        }
    }

    #[test]
    fn members_iterator_sorted() {
        let s = Coalition::from_members([9, 2, 127, 55]);
        assert_eq!(s.to_vec(), vec![2, 9, 55, 127]);
        assert_eq!(s.members().len(), 4);
    }

    #[test]
    fn all_subsets_counts() {
        assert_eq!(all_subsets(0).count(), 1);
        assert_eq!(all_subsets(4).count(), 16);
        let subsets: Vec<_> = all_subsets(2).collect();
        assert_eq!(subsets[0], Coalition::empty());
        assert_eq!(subsets[3], Coalition::full(2));
    }

    #[test]
    fn subsets_of_size_enumerates_combinations() {
        for n in 0..=10usize {
            for k in 0..=n {
                let subs: Vec<_> = subsets_of_size(n, k).collect();
                assert_eq!(subs.len() as u128, binom_u128(n, k), "C({n},{k}) mismatch");
                for s in &subs {
                    assert_eq!(s.size(), k);
                    assert!(s.is_subset_of(Coalition::full(n)));
                }
                // Lexicographically increasing and duplicate-free.
                for w in subs.windows(2) {
                    assert!(w[0].0 < w[1].0);
                }
            }
        }
    }

    #[test]
    fn subsets_of_size_large_n() {
        // n = 100, k = 2 must enumerate C(100, 2) = 4950 subsets.
        assert_eq!(subsets_of_size(100, 2).count(), 4950);
        assert_eq!(subsets_of_size(128, 1).count(), 128);
        assert_eq!(subsets_of_size(128, 0).count(), 1);
    }

    #[test]
    fn colex_rank_is_the_position_in_subsets_of_size() {
        // Every n ≤ 12 at every k, n = 20 up to k = 6 and n = 128 up to
        // k = 2: the rank of the p-th coalition is p, and dropping each
        // member lands on the rank of the smaller coalition.
        let cases = (0..=12usize).map(|n| (n, n)).chain([(20, 6), (128, 2)]);
        for (n, k_max) in cases {
            let ranks = ColexRank::new(n, k_max);
            for k in 0..=k_max {
                for (p, s) in subsets_of_size(n, k).enumerate() {
                    assert_eq!(ranks.rank(s), p, "n = {n}, {s:?}");
                    let dropped: Vec<(usize, usize)> = ranks.ranks_without(s).collect();
                    let want: Vec<(usize, usize)> =
                        s.members().map(|i| (i, ranks.rank(s.without(i)))).collect();
                    assert_eq!(dropped, want, "n = {n}, {s:?}");
                }
            }
        }
    }

    #[test]
    fn binomials() {
        assert_eq!(binom(0, 0), 1.0);
        assert_eq!(binom(5, 2), 10.0);
        assert_eq!(binom(10, 5), 252.0);
        assert_eq!(binom(10, 11), 0.0);
        assert_eq!(binom_u128(100, 2), 4950);
        assert_eq!(binom_u128(100, 50), 100891344545564193334812497256);
        // Intermediate product overflow saturates (documented behaviour).
        assert_eq!(binom_u128(128, 64), u128::MAX);
        assert_eq!(subsets_up_to(4, 1), 5);
        assert_eq!(subsets_up_to(10, 10), 1024);
    }

    #[test]
    fn pascal_identity() {
        for n in 1..40usize {
            for k in 1..n {
                assert_eq!(
                    binom_u128(n, k),
                    binom_u128(n - 1, k - 1) + binom_u128(n - 1, k)
                );
            }
        }
    }

    #[test]
    fn debug_format() {
        assert_eq!(format!("{:?}", Coalition::from_members([1, 3])), "{1,3}");
        assert_eq!(format!("{}", Coalition::empty()), "{}");
    }
}
