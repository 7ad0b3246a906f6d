//! In-memory classification datasets shared by every FL substrate.
//!
//! Features are stored row-major in a flat `Vec<f32>` (cache-friendly for
//! the dense kernels in `fedval-nn` and the histogram scans in
//! `fedval-gbdt`).

use rand::seq::SliceRandom;
use rand::Rng;

/// A dense classification dataset.
#[derive(Clone, Debug, PartialEq)]
pub struct Dataset {
    /// Row-major feature matrix: `n_samples × n_features`.
    features: Vec<f32>,
    /// Class labels in `0..n_classes`.
    labels: Vec<u32>,
    n_features: usize,
    n_classes: usize,
}

impl Dataset {
    /// Create an empty dataset with the given schema (used for free-rider
    /// clients in the Fig. 9 scalability test).
    pub fn empty(n_features: usize, n_classes: usize) -> Self {
        assert!(n_features > 0 && n_classes > 0);
        Dataset {
            features: Vec::new(),
            labels: Vec::new(),
            n_features,
            n_classes,
        }
    }

    pub fn n_samples(&self) -> usize {
        self.labels.len()
    }

    pub fn n_features(&self) -> usize {
        self.n_features
    }

    pub fn n_classes(&self) -> usize {
        self.n_classes
    }

    pub fn is_empty(&self) -> bool {
        self.labels.is_empty()
    }

    /// Feature row of sample `i`.
    pub fn row(&self, i: usize) -> &[f32] {
        &self.features[i * self.n_features..(i + 1) * self.n_features]
    }

    /// Mutable feature row of sample `i`.
    pub fn row_mut(&mut self, i: usize) -> &mut [f32] {
        &mut self.features[i * self.n_features..(i + 1) * self.n_features]
    }

    /// Label of sample `i`.
    pub fn label(&self, i: usize) -> u32 {
        self.labels[i]
    }

    /// Set the label of sample `i`.
    pub fn set_label(&mut self, i: usize, label: u32) {
        assert!((label as usize) < self.n_classes);
        self.labels[i] = label;
    }

    /// All labels.
    pub fn labels(&self) -> &[u32] {
        &self.labels
    }

    /// The flat feature buffer.
    pub fn features(&self) -> &[f32] {
        &self.features
    }

    /// Append one sample.
    pub fn push(&mut self, row: &[f32], label: u32) {
        assert_eq!(row.len(), self.n_features);
        assert!((label as usize) < self.n_classes);
        self.features.extend_from_slice(row);
        self.labels.push(label);
    }

    /// Rows selected by index (duplicates allowed — used by bootstrap-style
    /// partitioners).
    pub fn select(&self, indices: &[usize]) -> Dataset {
        let mut out = Dataset::empty(self.n_features, self.n_classes);
        out.features.reserve(indices.len() * self.n_features);
        out.labels.reserve(indices.len());
        for &i in indices {
            out.features.extend_from_slice(self.row(i));
            out.labels.push(self.labels[i]);
        }
        out
    }

    /// Concatenate datasets with identical schema. Used to build the
    /// coalition training set `D_S = ∪_{i∈S} D_i`.
    pub fn union<'a, I: IntoIterator<Item = &'a Dataset>>(parts: I) -> Option<Dataset> {
        let mut iter = parts.into_iter();
        let first = iter.next()?;
        let mut out = first.clone();
        for ds in iter {
            assert_eq!(ds.n_features, out.n_features, "schema mismatch");
            assert_eq!(ds.n_classes, out.n_classes, "schema mismatch");
            out.features.extend_from_slice(&ds.features);
            out.labels.extend_from_slice(&ds.labels);
        }
        Some(out)
    }

    /// Shuffle samples in place.
    pub fn shuffle<R: Rng + ?Sized>(&mut self, rng: &mut R) {
        let n = self.n_samples();
        for i in (1..n).rev() {
            let j = rng.random_range(0..=i);
            self.swap(i, j);
        }
    }

    fn swap(&mut self, i: usize, j: usize) {
        if i == j {
            return;
        }
        self.labels.swap(i, j);
        let f = self.n_features;
        let (lo, hi) = if i < j { (i, j) } else { (j, i) };
        let (a, b) = self.features.split_at_mut(hi * f);
        a[lo * f..(lo + 1) * f].swap_with_slice(&mut b[..f]);
    }

    /// Split off the first `k` samples into a new dataset, leaving the rest.
    pub fn split_at(&self, k: usize) -> (Dataset, Dataset) {
        assert!(k <= self.n_samples());
        let head = Dataset {
            features: self.features[..k * self.n_features].to_vec(),
            labels: self.labels[..k].to_vec(),
            n_features: self.n_features,
            n_classes: self.n_classes,
        };
        let tail = Dataset {
            features: self.features[k * self.n_features..].to_vec(),
            labels: self.labels[k..].to_vec(),
            n_features: self.n_features,
            n_classes: self.n_classes,
        };
        (head, tail)
    }

    /// Histogram of labels.
    pub fn class_distribution(&self) -> Vec<usize> {
        let mut hist = vec![0usize; self.n_classes];
        for &l in &self.labels {
            hist[l as usize] += 1;
        }
        hist
    }

    /// Indices of samples with the given label.
    pub fn indices_of_class(&self, class: u32) -> Vec<usize> {
        (0..self.n_samples())
            .filter(|&i| self.labels[i] == class)
            .collect()
    }

    /// Deal samples round-robin into `n` equally sized datasets after an
    /// optional shuffle, preserving the overall class distribution in
    /// expectation.
    pub fn deal<R: Rng + ?Sized>(&self, n: usize, rng: &mut R) -> Vec<Dataset> {
        assert!(n >= 1);
        let mut order: Vec<usize> = (0..self.n_samples()).collect();
        order.shuffle(rng);
        let mut parts = vec![Dataset::empty(self.n_features, self.n_classes); n];
        for (pos, &idx) in order.iter().enumerate() {
            parts[pos % n].push(self.row(idx), self.labels[idx]);
        }
        parts
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn toy() -> Dataset {
        let mut ds = Dataset::empty(2, 3);
        ds.push(&[1.0, 2.0], 0);
        ds.push(&[3.0, 4.0], 1);
        ds.push(&[5.0, 6.0], 2);
        ds.push(&[7.0, 8.0], 1);
        ds
    }

    #[test]
    fn push_and_access() {
        let ds = toy();
        assert_eq!(ds.n_samples(), 4);
        assert_eq!(ds.row(2), &[5.0, 6.0]);
        assert_eq!(ds.label(3), 1);
        assert_eq!(ds.class_distribution(), vec![1, 2, 1]);
        assert_eq!(ds.indices_of_class(1), vec![1, 3]);
    }

    #[test]
    #[should_panic]
    fn label_out_of_range_panics() {
        let mut ds = Dataset::empty(1, 2);
        ds.push(&[0.0], 2);
    }

    #[test]
    fn select_and_union() {
        let ds = toy();
        let sel = ds.select(&[3, 0, 3]);
        assert_eq!(sel.n_samples(), 3);
        assert_eq!(sel.row(0), &[7.0, 8.0]);
        assert_eq!(sel.label(2), 1);
        let merged = Dataset::union([&ds, &sel]).unwrap();
        assert_eq!(merged.n_samples(), 7);
        assert_eq!(merged.row(4), &[7.0, 8.0]);
        assert!(Dataset::union(std::iter::empty()).is_none());
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut ds = toy();
        let before: Vec<(Vec<f32>, u32)> =
            (0..4).map(|i| (ds.row(i).to_vec(), ds.label(i))).collect();
        let mut rng = StdRng::seed_from_u64(3);
        ds.shuffle(&mut rng);
        let mut after: Vec<(Vec<f32>, u32)> =
            (0..4).map(|i| (ds.row(i).to_vec(), ds.label(i))).collect();
        let mut sorted_before = before;
        sorted_before.sort_by(|a, b| a.partial_cmp(b).unwrap());
        after.sort_by(|a, b| a.partial_cmp(b).unwrap());
        assert_eq!(sorted_before, after);
    }

    #[test]
    fn split_preserves_rows() {
        let ds = toy();
        let (head, tail) = ds.split_at(1);
        assert_eq!(head.n_samples(), 1);
        assert_eq!(tail.n_samples(), 3);
        assert_eq!(head.row(0), &[1.0, 2.0]);
        assert_eq!(tail.row(0), &[3.0, 4.0]);
    }

    #[test]
    fn deal_round_robin_sizes() {
        let mut big = Dataset::empty(1, 2);
        for i in 0..103 {
            big.push(&[i as f32], (i % 2) as u32);
        }
        let mut rng = StdRng::seed_from_u64(1);
        let parts = big.deal(4, &mut rng);
        let sizes: Vec<usize> = parts.iter().map(|p| p.n_samples()).collect();
        assert_eq!(sizes.iter().sum::<usize>(), 103);
        assert!(sizes.iter().all(|&s| s == 25 || s == 26));
    }

    #[test]
    fn empty_dataset() {
        let ds = Dataset::empty(3, 2);
        assert!(ds.is_empty());
        assert_eq!(ds.n_samples(), 0);
        assert_eq!(ds.class_distribution(), vec![0, 0]);
    }
}
