//! The five synthetic FL setups of Sec. V-B and the noise injectors.
//!
//! Following the experimental setup of the paper (after Song et al. and
//! GTG-Shapley), a centralized dataset is split into per-client partitions
//! that vary in **size**, **distribution** and **quality**:
//!
//! * (a) `same-size-same-distribution` — uniform IID split;
//! * (b) `same-size-different-distribution` — label-skewed split where each
//!   client majority-holds certain labels;
//! * (c) `different-size-same-distribution` — IID split with size ratios
//!   `1 : 2 : … : n`;
//! * (d) `same-size-noisy-label` — IID split, then client `i`'s labels are
//!   flipped with probability ramping from 0% to 20% across clients;
//! * (e) `same-size-noisy-feature` — IID split, then Gaussian noise scaled
//!   from 0.00 to 0.20 is added to client `i`'s features.

use rand::seq::SliceRandom;
use rand::Rng;

use crate::dataset::Dataset;

/// The five synthetic partition setups of Fig. 6.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum SyntheticSetup {
    /// (a) Equal sizes, identical label distributions.
    SameSizeSameDist,
    /// (b) Equal sizes, label-skewed: client `i` majority-holds class
    /// `i mod n_classes` with the given proportion (rest uniform).
    SameSizeDiffDist {
        /// Fraction of each client's data drawn from its majority class.
        majority_fraction: f64,
    },
    /// (c) IID distributions, size ratios `1 : 2 : … : n`.
    DiffSizeSameDist,
    /// (d) Equal IID splits, label-flip noise ramping `0 → max_rate`
    /// across clients.
    SameSizeNoisyLabel {
        /// Flip rate of the last (noisiest) client; the paper uses 0.20.
        max_rate: f64,
    },
    /// (e) Equal IID splits, additive `N(0,1)` feature noise with scale
    /// ramping `0 → max_scale` across clients.
    SameSizeNoisyFeature {
        /// Noise scale of the last client; the paper uses 0.20.
        max_scale: f64,
    },
}

impl SyntheticSetup {
    /// Short identifier matching the paper's sub-figure captions.
    pub fn label(&self) -> &'static str {
        match self {
            SyntheticSetup::SameSizeSameDist => "same-size-same-distr.",
            SyntheticSetup::SameSizeDiffDist { .. } => "same-size-diff.-distr.",
            SyntheticSetup::DiffSizeSameDist => "diff.-size-same-distr.",
            SyntheticSetup::SameSizeNoisyLabel { .. } => "same-size-noisy-label",
            SyntheticSetup::SameSizeNoisyFeature { .. } => "same-size-noisy-feature",
        }
    }

    /// Partition `source` into `n_clients` local datasets per this setup.
    pub fn partition<R: Rng + ?Sized>(
        &self,
        source: &Dataset,
        n_clients: usize,
        rng: &mut R,
    ) -> Vec<Dataset> {
        match *self {
            SyntheticSetup::SameSizeSameDist => source.deal(n_clients, rng),
            SyntheticSetup::SameSizeDiffDist { majority_fraction } => {
                partition_label_skew(source, n_clients, majority_fraction, rng)
            }
            SyntheticSetup::DiffSizeSameDist => partition_size_ratio(source, n_clients, rng),
            SyntheticSetup::SameSizeNoisyLabel { max_rate } => {
                let mut parts = source.deal(n_clients, rng);
                for (i, part) in parts.iter_mut().enumerate() {
                    let rate = ramp(i, n_clients) * max_rate;
                    add_label_noise(part, rate, rng);
                }
                parts
            }
            SyntheticSetup::SameSizeNoisyFeature { max_scale } => {
                let mut parts = source.deal(n_clients, rng);
                for (i, part) in parts.iter_mut().enumerate() {
                    let scale = (ramp(i, n_clients) * max_scale) as f32;
                    add_feature_noise(part, scale, rng);
                }
                parts
            }
        }
    }
}

/// Linear ramp over clients: client 0 → 0.0, client n−1 → 1.0.
fn ramp(i: usize, n: usize) -> f64 {
    if n <= 1 {
        1.0
    } else {
        i as f64 / (n - 1) as f64
    }
}

/// Label-skewed equal-size partition (setup (b)).
///
/// Client `i` receives `majority_fraction` of its samples from class
/// `i mod n_classes` (falling back to the general pool when the class is
/// exhausted) and the remainder from the general pool.
pub fn partition_label_skew<R: Rng + ?Sized>(
    source: &Dataset,
    n_clients: usize,
    majority_fraction: f64,
    rng: &mut R,
) -> Vec<Dataset> {
    assert!((0.0..=1.0).contains(&majority_fraction));
    assert!(n_clients >= 1);
    let per_client = source.n_samples() / n_clients;
    // Pools of indices per class, shuffled.
    let mut pools: Vec<Vec<usize>> = (0..source.n_classes())
        .map(|c| source.indices_of_class(c as u32))
        .collect();
    for pool in &mut pools {
        pool.shuffle(rng);
    }
    // Phase 1: reserve every client's majority quota up front so that
    // earlier clients' fill-up draws cannot drain later clients' majority
    // pools.
    let want_major = (per_client as f64 * majority_fraction).round() as usize;
    let mut reserved: Vec<Vec<usize>> = Vec::with_capacity(n_clients);
    for i in 0..n_clients {
        let majority_class = i % source.n_classes();
        let pool = &mut pools[majority_class];
        let take = want_major.min(pool.len());
        reserved.push(pool.split_off(pool.len() - take));
    }
    // Phase 2: fill each client to `per_client` by always drawing from the
    // currently largest remaining pool, keeping leftovers balanced.
    let mut parts = Vec::with_capacity(n_clients);
    for mut indices in reserved {
        while indices.len() < per_client {
            let Some(largest) = (0..pools.len()).max_by_key(|&c| pools[c].len()) else {
                break; // no class pools at all (n_classes == 0 source)
            };
            match pools[largest].pop() {
                Some(idx) => indices.push(idx),
                None => break, // all pools exhausted
            }
        }
        parts.push(source.select(&indices));
    }
    parts
}

/// Size-ratio partition (setup (c)): IID split with `|D_i| ∝ i + 1`.
pub fn partition_size_ratio<R: Rng + ?Sized>(
    source: &Dataset,
    n_clients: usize,
    rng: &mut R,
) -> Vec<Dataset> {
    assert!(n_clients >= 1);
    let total_ratio: usize = (1..=n_clients).sum();
    let n = source.n_samples();
    let mut order: Vec<usize> = (0..n).collect();
    order.shuffle(rng);
    let mut parts = Vec::with_capacity(n_clients);
    let mut offset = 0usize;
    for i in 0..n_clients {
        let take = if i + 1 == n_clients {
            n - offset
        } else {
            n * (i + 1) / total_ratio
        };
        parts.push(source.select(&order[offset..offset + take]));
        offset += take;
    }
    parts
}

/// Flip each label with probability `rate` to a uniformly random *other*
/// label (setup (d); the paper's "change … into one of other labels with
/// equal probability").
pub fn add_label_noise<R: Rng + ?Sized>(ds: &mut Dataset, rate: f64, rng: &mut R) {
    assert!((0.0..=1.0).contains(&rate));
    let n_classes = ds.n_classes() as u32;
    if n_classes < 2 {
        return;
    }
    for i in 0..ds.n_samples() {
        if rng.random::<f64>() < rate {
            let old = ds.label(i);
            let mut new = rng.random_range(0..n_classes - 1);
            if new >= old {
                new += 1;
            }
            ds.set_label(i, new);
        }
    }
}

/// Add `N(0, 1)`-distributed noise scaled by `scale` to every feature
/// (setup (e)).
pub fn add_feature_noise<R: Rng + ?Sized>(ds: &mut Dataset, scale: f32, rng: &mut R) {
    if scale == 0.0 {
        return;
    }
    for i in 0..ds.n_samples() {
        for v in ds.row_mut(i) {
            *v += crate::rand_ext::normal_f32(rng, 0.0, scale);
        }
    }
}

/// Plant the Fig. 9 scalability fixtures into an existing federated split:
/// the first `free_riders` clients get empty datasets and the next
/// `duplicates` clients are made exact copies of their successors.
///
/// Returns the free-rider indices and duplicate pairs for use with
/// `fedval_core::metrics::property_error`.
pub fn plant_scalability_fixtures(
    clients: &mut [Dataset],
    free_riders: usize,
    duplicates: usize,
) -> (Vec<usize>, Vec<(usize, usize)>) {
    let n = clients.len();
    assert!(free_riders + 2 * duplicates <= n, "not enough clients");
    let mut fr = Vec::with_capacity(free_riders);
    for (i, item) in clients.iter_mut().enumerate().take(free_riders) {
        *item = Dataset::empty(item.n_features(), item.n_classes());
        fr.push(i);
    }
    let mut pairs = Vec::with_capacity(duplicates);
    for d in 0..duplicates {
        let a = free_riders + 2 * d;
        let b = a + 1;
        clients[b] = clients[a].clone();
        pairs.push((a, b));
    }
    (fr, pairs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synth::MnistLike;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn source() -> Dataset {
        let gen = MnistLike::new(1);
        let mut rng = StdRng::seed_from_u64(0);
        gen.generate(600, &mut rng)
    }

    #[test]
    fn same_size_same_dist() {
        let src = source();
        let mut rng = StdRng::seed_from_u64(1);
        let parts = SyntheticSetup::SameSizeSameDist.partition(&src, 6, &mut rng);
        assert_eq!(parts.len(), 6);
        assert!(parts.iter().all(|p| p.n_samples() == 100));
        // Class distributions roughly uniform within each client.
        for p in &parts {
            let dist = p.class_distribution();
            for &c in &dist {
                assert!(c >= 2, "class too rare: {dist:?}");
            }
        }
    }

    #[test]
    fn label_skew_creates_majorities() {
        let src = source();
        let mut rng = StdRng::seed_from_u64(2);
        let parts = partition_label_skew(&src, 5, 0.5, &mut rng);
        for (i, p) in parts.iter().enumerate() {
            let dist = p.class_distribution();
            let majority = i % 10;
            let frac = dist[majority] as f64 / p.n_samples() as f64;
            assert!(
                frac > 0.3,
                "client {i} majority class fraction {frac} ({dist:?})"
            );
        }
    }

    #[test]
    fn size_ratio_partition() {
        let src = source();
        let mut rng = StdRng::seed_from_u64(3);
        let parts = partition_size_ratio(&src, 3, &mut rng);
        let sizes: Vec<usize> = parts.iter().map(|p| p.n_samples()).collect();
        assert_eq!(sizes.iter().sum::<usize>(), 600);
        // Ratios 1:2:3 of 600 = 100, 200, 300.
        assert_eq!(sizes, vec![100, 200, 300]);
    }

    #[test]
    fn label_noise_rate() {
        let src = source();
        let mut noisy = src.clone();
        let mut rng = StdRng::seed_from_u64(4);
        add_label_noise(&mut noisy, 0.2, &mut rng);
        let flipped = (0..src.n_samples())
            .filter(|&i| src.label(i) != noisy.label(i))
            .count();
        let rate = flipped as f64 / src.n_samples() as f64;
        assert!((rate - 0.2).abs() < 0.05, "flip rate {rate}");
        // Zero rate leaves labels untouched.
        let mut clean = src.clone();
        add_label_noise(&mut clean, 0.0, &mut rng);
        assert_eq!(clean.labels(), src.labels());
    }

    #[test]
    fn feature_noise_scale() {
        let src = source();
        let mut noisy = src.clone();
        let mut rng = StdRng::seed_from_u64(5);
        add_feature_noise(&mut noisy, 0.2, &mut rng);
        let mut sq_sum = 0.0f64;
        let mut count = 0usize;
        for i in 0..src.n_samples() {
            for (a, b) in src.row(i).iter().zip(noisy.row(i)) {
                sq_sum += ((b - a) as f64).powi(2);
                count += 1;
            }
        }
        let std = (sq_sum / count as f64).sqrt();
        assert!((std - 0.2).abs() < 0.02, "noise std {std}");
    }

    #[test]
    fn noisy_setups_ramp_across_clients() {
        let src = source();
        let mut rng = StdRng::seed_from_u64(6);
        let setup = SyntheticSetup::SameSizeNoisyLabel { max_rate: 0.2 };
        let parts = setup.partition(&src, 10, &mut rng);
        assert_eq!(parts.len(), 10);
        assert_eq!(setup.label(), "same-size-noisy-label");
        // Client 0 has no noise: its labels must match nearest-template
        // classes as well as the raw data does; we settle for checking the
        // ramp by construction via distribution distance to client 9.
        // (Direct flip counting is impossible post-partition, so check
        // sizes only.)
        assert!(parts.iter().all(|p| p.n_samples() == 60));
    }

    #[test]
    fn scalability_fixtures() {
        let src = source();
        let mut rng = StdRng::seed_from_u64(7);
        let mut parts = SyntheticSetup::SameSizeSameDist.partition(&src, 20, &mut rng);
        let (fr, pairs) = plant_scalability_fixtures(&mut parts, 1, 1);
        assert_eq!(fr, vec![0]);
        assert_eq!(pairs, vec![(1, 2)]);
        assert!(parts[0].is_empty());
        assert_eq!(parts[1], parts[2]);
    }

    #[test]
    #[should_panic]
    fn scalability_fixtures_bounds() {
        let mut parts = vec![Dataset::empty(2, 2); 3];
        let _ = plant_scalability_fixtures(&mut parts, 2, 1);
    }
}
