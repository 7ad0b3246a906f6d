//! # fedval-data
//!
//! Synthetic federated datasets and partitioners for the IPSS reproduction.
//!
//! The paper evaluates on MNIST, FEMNIST, Adult and Sent-140. Benchmark
//! files are unavailable offline, so this crate provides seeded generators
//! that preserve the properties the experiments manipulate — class
//! structure, writer heterogeneity, size skew, label noise, feature noise
//! (see "Deviations from the paper" in ARCHITECTURE.md). No Table or Fig
//! reproduced here uses Sent-140, so it has no stand-in:
//!
//! * [`synth::MnistLike`], [`synth::FemnistLike`], [`synth::AdultLike`] —
//!   dataset generators;
//! * [`partition::SyntheticSetup`] — the five partition setups of Sec. V-B;
//! * [`dataset::Dataset`] — the dense in-memory dataset shared by every
//!   model substrate.

pub mod dataset;
pub mod partition;
pub mod rand_ext;
pub mod synth;

pub use dataset::Dataset;
pub use partition::{
    add_feature_noise, add_label_noise, partition_label_skew, partition_size_ratio,
    plant_scalability_fixtures, SyntheticSetup,
};
pub use synth::{AdultLike, FederatedDataset, FemnistLike, MnistLike};
