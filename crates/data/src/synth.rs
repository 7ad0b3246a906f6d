//! Seeded synthetic stand-ins for the paper's benchmark datasets.
//!
//! The experiments of Sec. V manipulate dataset *properties* — size,
//! label distribution, writer heterogeneity, label/feature noise — not the
//! semantics of any particular corpus. Each generator below produces a
//! classification problem with the corresponding knobs (see "Deviations
//! from the paper" in ARCHITECTURE.md):
//!
//! * [`MnistLike`] — class-conditional smoothed template images
//!   (MNIST stand-in for the five synthetic setups of Fig. 6);
//! * [`FemnistLike`] — the same, with per-writer distortions and
//!   writer-based partitioning (FEMNIST stand-in for Tables IV, Figs. 1,
//!   4, 7–10);
//! * [`AdultLike`] — tabular census-style data with an `occupation`
//!   attribute used for partitioning (Adult stand-in for Table V).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::dataset::Dataset;
use crate::rand_ext::normal_f32;

/// A federated dataset: one local dataset per FL client plus the shared
/// test set `T` the utility function evaluates on.
#[derive(Clone, Debug)]
pub struct FederatedDataset {
    pub clients: Vec<Dataset>,
    pub test: Dataset,
}

impl FederatedDataset {
    pub fn n_clients(&self) -> usize {
        self.clients.len()
    }

    /// Sizes `|D_i|` of the client datasets.
    pub fn client_sizes(&self) -> Vec<usize> {
        self.clients.iter().map(|c| c.n_samples()).collect()
    }
}

fn mix64(x: u64) -> u64 {
    let mut x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

fn unit(x: u64) -> f32 {
    (x >> 40) as f32 / (1u64 << 24) as f32
}

/// 3×3 box blur on a square image (cheap spatial smoothing so the CNN's
/// convolution has local structure to exploit).
fn box_blur(img: &[f32], side: usize) -> Vec<f32> {
    let mut out = vec![0.0f32; img.len()];
    for y in 0..side {
        for x in 0..side {
            let mut acc = 0.0;
            let mut cnt = 0.0;
            for dy in -1isize..=1 {
                for dx in -1isize..=1 {
                    let ny = y as isize + dy;
                    let nx = x as isize + dx;
                    if ny >= 0 && ny < side as isize && nx >= 0 && nx < side as isize {
                        acc += img[ny as usize * side + nx as usize];
                        cnt += 1.0;
                    }
                }
            }
            out[y * side + x] = acc / cnt;
        }
    }
    out
}

/// MNIST-like generator: `n_classes` smooth template images of
/// `side × side` pixels; each sample is its class template plus pixel
/// noise.
#[derive(Clone, Debug)]
pub struct MnistLike {
    /// Image side length (features = `side²`). Default 8.
    pub side: usize,
    /// Number of classes. Default 10.
    pub n_classes: usize,
    /// Pixel noise standard deviation. Default 0.25.
    pub noise: f32,
    /// Generator seed.
    pub seed: u64,
}

impl Default for MnistLike {
    fn default() -> Self {
        MnistLike {
            side: 8,
            n_classes: 10,
            noise: 0.25,
            seed: 0,
        }
    }
}

impl MnistLike {
    pub fn new(seed: u64) -> Self {
        MnistLike {
            seed,
            ..Default::default()
        }
    }

    /// The class template images (deterministic in the seed).
    pub fn templates(&self) -> Vec<Vec<f32>> {
        let pixels = self.side * self.side;
        (0..self.n_classes)
            .map(|c| {
                let raw: Vec<f32> = (0..pixels)
                    .map(|p| unit(mix64(self.seed ^ ((c as u64) << 32) ^ p as u64)))
                    .collect();
                // Two blur passes: smooth, spatially correlated patterns.
                let mut img = box_blur(&box_blur(&raw, self.side), self.side);
                // Blurring collapses contrast; re-standardise to mean 0.5,
                // std 0.25 so classes stay separable under sample noise.
                let mean = img.iter().sum::<f32>() / pixels as f32;
                let var = img.iter().map(|v| (v - mean) * (v - mean)).sum::<f32>() / pixels as f32;
                let std = var.sqrt().max(1e-6);
                for v in &mut img {
                    *v = 0.5 + 0.25 * (*v - mean) / std;
                }
                img
            })
            .collect()
    }

    /// Generate `n` labelled samples with uniformly random classes.
    pub fn generate(&self, n: usize, rng: &mut impl Rng) -> Dataset {
        let templates = self.templates();
        let pixels = self.side * self.side;
        let mut ds = Dataset::empty(pixels, self.n_classes);
        let mut row = vec![0.0f32; pixels];
        for _ in 0..n {
            let c = rng.random_range(0..self.n_classes);
            for (r, t) in row.iter_mut().zip(&templates[c]) {
                *r = t + normal_f32(rng, 0.0, self.noise);
            }
            ds.push(&row, c as u32);
        }
        ds
    }

    /// Generate a train/test pair from the same distribution.
    pub fn generate_split(&self, n_train: usize, n_test: usize, seed: u64) -> (Dataset, Dataset) {
        let mut rng = StdRng::seed_from_u64(seed);
        let train = self.generate(n_train, &mut rng);
        let test = self.generate(n_test, &mut rng);
        (train, test)
    }
}

/// FEMNIST-like generator: MNIST-like classes with per-writer style
/// distortions (brightness scale, offset and a circular spatial shift) and
/// writer-based client partitioning, reproducing the user-id partitioning
/// of the LEAF benchmark.
#[derive(Clone, Debug)]
pub struct FemnistLike {
    pub base: MnistLike,
    /// Number of distinct writers.
    pub n_writers: usize,
}

impl FemnistLike {
    pub fn new(seed: u64, n_writers: usize) -> Self {
        assert!(n_writers >= 1);
        FemnistLike {
            base: MnistLike::new(seed),
            n_writers,
        }
    }

    fn writer_style(&self, w: usize) -> (f32, f32, usize, usize) {
        let h = mix64(self.base.seed ^ 0xFE31 ^ (w as u64).rotate_left(13));
        // Mild per-writer style: brightness/contrast drift plus at most a
        // one-pixel shift. Strong distortions would destroy cross-writer
        // generalisation entirely, which real FEMNIST does not do.
        let scale = 0.9 + 0.2 * unit(h);
        let offset = -0.05 + 0.1 * unit(mix64(h ^ 1));
        let dx = (mix64(h ^ 2) % 2) as usize; // 0 or 1 pixel circular shift
        let dy = (mix64(h ^ 3) % 2) as usize;
        (scale, offset, dx, dy)
    }

    /// One sample in writer `w`'s style.
    fn sample(&self, templates: &[Vec<f32>], w: usize, rng: &mut impl Rng) -> (Vec<f32>, u32) {
        let side = self.base.side;
        let c = rng.random_range(0..self.base.n_classes);
        let (scale, offset, dx, dy) = self.writer_style(w);
        let mut row = vec![0.0f32; side * side];
        for y in 0..side {
            for x in 0..side {
                let sy = (y + dy) % side;
                let sx = (x + dx) % side;
                let v = templates[c][sy * side + sx];
                row[y * side + x] = scale * v + offset + normal_f32(rng, 0.0, self.base.noise);
            }
        }
        (row, c as u32)
    }

    /// Build a federated dataset with `n_clients` clients, partitioning the
    /// writers round-robin across clients (each client holds the samples of
    /// its writers only — the LEAF user-id partitioning), plus a test set
    /// mixing all writers.
    pub fn generate_federated(
        &self,
        n_clients: usize,
        samples_per_client: usize,
        n_test: usize,
        seed: u64,
    ) -> FederatedDataset {
        assert!(n_clients >= 1);
        let templates = self.base.templates();
        let pixels = self.base.side * self.base.side;
        let mut rng = StdRng::seed_from_u64(seed);
        let mut clients = Vec::with_capacity(n_clients);
        for client in 0..n_clients {
            // Writers assigned to this client: w ≡ client (mod n_clients).
            let writers: Vec<usize> = (0..self.n_writers)
                .filter(|w| w % n_clients == client)
                .collect();
            let mut ds = Dataset::empty(pixels, self.base.n_classes);
            for s in 0..samples_per_client {
                let w = if writers.is_empty() {
                    client % self.n_writers
                } else {
                    writers[s % writers.len()]
                };
                let (row, label) = self.sample(&templates, w, &mut rng);
                ds.push(&row, label);
            }
            clients.push(ds);
        }
        let mut test = Dataset::empty(pixels, self.base.n_classes);
        for s in 0..n_test {
            let w = s % self.n_writers;
            let (row, label) = self.sample(&templates, w, &mut rng);
            test.push(&row, label);
        }
        FederatedDataset { clients, test }
    }
}

/// Adult-like tabular generator: 14 census-style features (age, education
/// years, weekly hours, capital gain/loss, gender, and an 8-way one-hot
/// occupation block) with a logistic ground truth for the binary
/// income-over-threshold label. The `occupation` attribute drives the
/// client partitioning exactly as the paper partitions Adult.
#[derive(Clone, Debug)]
pub struct AdultLike {
    pub seed: u64,
    /// Number of occupation categories (default 8).
    pub n_occupations: usize,
    /// Label noise: probability of flipping the ground-truth label.
    pub label_flip: f64,
}

/// Number of non-occupation features in [`AdultLike`] rows.
const ADULT_BASE_FEATURES: usize = 6;

impl AdultLike {
    pub fn new(seed: u64) -> Self {
        AdultLike {
            seed,
            n_occupations: 8,
            label_flip: 0.05,
        }
    }

    pub fn n_features(&self) -> usize {
        ADULT_BASE_FEATURES + self.n_occupations
    }

    fn occupation_effect(&self, occ: usize) -> f32 {
        // Deterministic per-occupation income effect in [−1, 1].
        2.0 * unit(mix64(self.seed ^ 0xADu64 ^ (occ as u64) << 7)) - 1.0
    }

    /// Generate one sample; returns (features, label, occupation).
    fn sample(&self, rng: &mut impl Rng) -> (Vec<f32>, u32, usize) {
        let occ = rng.random_range(0..self.n_occupations);
        let age = normal_f32(rng, 0.0, 1.0);
        let edu = normal_f32(rng, 0.0, 1.0);
        let hours = normal_f32(rng, 0.0, 1.0);
        // Capital gain/loss: sparse and skewed like the real Adult columns.
        let cap_gain = if rng.random::<f64>() < 0.1 {
            rng.random::<f32>() * 3.0
        } else {
            0.0
        };
        let cap_loss = if rng.random::<f64>() < 0.05 {
            rng.random::<f32>() * 2.0
        } else {
            0.0
        };
        let gender = if rng.random::<f64>() < 0.5 { 0.0 } else { 1.0 };
        let logit = 0.35 * age + 0.9 * edu + 0.6 * hours + 1.3 * cap_gain - 0.8 * cap_loss
            + 0.2 * gender
            + self.occupation_effect(occ)
            + normal_f32(rng, 0.0, 0.5);
        let mut label = u32::from(logit > 0.0);
        if rng.random::<f64>() < self.label_flip {
            label = 1 - label;
        }
        let mut row = vec![0.0f32; self.n_features()];
        row[0] = age;
        row[1] = edu;
        row[2] = hours;
        row[3] = cap_gain;
        row[4] = cap_loss;
        row[5] = gender;
        row[ADULT_BASE_FEATURES + occ] = 1.0;
        (row, label, occ)
    }

    /// Generate `n` samples along with each sample's occupation index.
    pub fn generate(&self, n: usize, rng: &mut impl Rng) -> (Dataset, Vec<usize>) {
        let mut ds = Dataset::empty(self.n_features(), 2);
        let mut occs = Vec::with_capacity(n);
        for _ in 0..n {
            let (row, label, occ) = self.sample(rng);
            ds.push(&row, label);
            occs.push(occ);
        }
        (ds, occs)
    }

    /// Build a federated dataset partitioned by occupation: occupations are
    /// assigned round-robin to clients and each sample goes to the client
    /// owning its occupation.
    pub fn generate_federated(
        &self,
        n_clients: usize,
        n_train: usize,
        n_test: usize,
        seed: u64,
    ) -> FederatedDataset {
        assert!(n_clients >= 1);
        let mut rng = StdRng::seed_from_u64(seed);
        let (train, occs) = self.generate(n_train, &mut rng);
        let mut clients = vec![Dataset::empty(self.n_features(), 2); n_clients];
        for (i, &occ) in occs.iter().enumerate() {
            clients[occ % n_clients].push(train.row(i), train.label(i));
        }
        let (test, _) = self.generate(n_test, &mut rng);
        FederatedDataset { clients, test }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mnist_like_templates_are_deterministic_and_distinct() {
        let gen = MnistLike::new(7);
        let t1 = gen.templates();
        let t2 = gen.templates();
        assert_eq!(t1, t2);
        assert_eq!(t1.len(), 10);
        // Distinct classes have distinct templates.
        for i in 0..10 {
            for j in (i + 1)..10 {
                assert_ne!(t1[i], t1[j]);
            }
        }
        // A different seed gives different templates.
        assert_ne!(MnistLike::new(8).templates()[0], t1[0]);
    }

    #[test]
    fn mnist_like_generates_learnable_structure() {
        // Samples of the same class must be closer to their own template
        // than to other templates on average (otherwise no model could
        // learn anything).
        let gen = MnistLike::new(1);
        let mut rng = StdRng::seed_from_u64(2);
        let ds = gen.generate(200, &mut rng);
        let templates = gen.templates();
        let mut correct = 0;
        for i in 0..ds.n_samples() {
            let row = ds.row(i);
            let (best, _) = templates
                .iter()
                .enumerate()
                .map(|(c, t)| {
                    let d: f32 = row.iter().zip(t).map(|(a, b)| (a - b) * (a - b)).sum();
                    (c, d)
                })
                .min_by(|a, b| a.1.partial_cmp(&b.1).unwrap())
                .unwrap();
            if best as u32 == ds.label(i) {
                correct += 1;
            }
        }
        let acc = correct as f64 / ds.n_samples() as f64;
        assert!(acc > 0.9, "nearest-template accuracy {acc}");
    }

    #[test]
    fn mnist_split_shapes() {
        let gen = MnistLike::new(3);
        let (train, test) = gen.generate_split(100, 40, 5);
        assert_eq!(train.n_samples(), 100);
        assert_eq!(test.n_samples(), 40);
        assert_eq!(train.n_features(), 64);
        assert_eq!(train.n_classes(), 10);
    }

    #[test]
    fn femnist_partitions_by_writer() {
        let gen = FemnistLike::new(11, 12);
        let fed = gen.generate_federated(4, 30, 50, 13);
        assert_eq!(fed.n_clients(), 4);
        assert_eq!(fed.client_sizes(), vec![30; 4]);
        assert_eq!(fed.test.n_samples(), 50);
        // Writer styles differ.
        let s0 = gen.writer_style(0);
        let s1 = gen.writer_style(1);
        assert_ne!(s0, s1);
    }

    #[test]
    fn adult_features_and_partition() {
        let gen = AdultLike::new(5);
        assert_eq!(gen.n_features(), 14);
        let mut rng = StdRng::seed_from_u64(1);
        let (ds, occs) = gen.generate(500, &mut rng);
        assert_eq!(ds.n_samples(), 500);
        assert_eq!(occs.len(), 500);
        // Both labels occur.
        let dist = ds.class_distribution();
        assert!(dist[0] > 50 && dist[1] > 50, "{dist:?}");
        // One-hot occupation block is consistent.
        for (i, &occ) in occs.iter().enumerate() {
            let row = ds.row(i);
            let hot: Vec<usize> = (0..8).filter(|&o| row[6 + o] == 1.0).collect();
            assert_eq!(hot, vec![occ]);
        }
        let fed = gen.generate_federated(3, 600, 200, 2);
        assert_eq!(fed.n_clients(), 3);
        assert_eq!(
            fed.client_sizes().iter().sum::<usize>(),
            600,
            "partition covers all train samples"
        );
    }
}
