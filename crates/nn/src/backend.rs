//! Compatibility surface for `benchmark/`, which a PR outside the
//! `benchmark` archetype may not edit.
//!
//! There is one arithmetic: every kernel is a free function of
//! [`crate::linalg`], called directly by `nn` and `fl`. Nothing inside
//! `crates/` uses the names below; they exist because the performance
//! ledger imports them at four sites:
//!
//! * `benchmark/src/layers.rs` — `backend::{LinalgBackend, Reference}`,
//!   calling `matmul_a_bt_bias`, `matmul_at_b_accum`,
//!   `lane_matmul_a_bt_bias` and `dot`;
//! * `benchmark/src/main.rs` — `Backend::Reference.name()` for the
//!   environment block;
//! * `benchmark/src/problems.rs` — `FedAvgConfig { backend: Backend::Reference, .. }`;
//! * `benchmark/src/traced.rs` — `Network::set_backend(fed.backend)`.
//!
//! Delete this module, the `FedAvgConfig.backend` field and
//! `Network::set_backend` when a `benchmark`-archetype PR stops importing
//! them.

use crate::linalg;

/// The kernel methods `benchmark/src/layers.rs` calls; each forwards to
/// the [`crate::linalg`] function of the same name.
pub trait LinalgBackend {
    #[allow(
        clippy::too_many_arguments,
        reason = "BLAS-style kernel: dims + operands"
    )]
    fn matmul_a_bt_bias(
        &self,
        a: &[f32],
        b: &[f32],
        bias: &[f32],
        m: usize,
        k: usize,
        n: usize,
        out: &mut [f32],
        relu_mask: Option<&mut Vec<bool>>,
    ) {
        linalg::matmul_a_bt_bias(a, b, bias, m, k, n, out, relu_mask);
    }

    fn matmul_at_b_accum(
        &self,
        a: &[f32],
        b: &[f32],
        m: usize,
        k: usize,
        n: usize,
        out: &mut [f32],
    ) {
        linalg::matmul_at_b_accum(a, b, m, k, n, out);
    }

    #[allow(
        clippy::too_many_arguments,
        reason = "BLAS-style kernel: dims + operands"
    )]
    fn lane_matmul_a_bt_bias(
        &self,
        a: &[f32],
        a_shared: bool,
        w: &[f32],
        bias: &[f32],
        lanes: usize,
        active: &[bool],
        m: usize,
        k: usize,
        n: usize,
        out: &mut [f32],
        relu_masks: Option<&mut [bool]>,
    ) {
        linalg::lane_matmul_a_bt_bias(
            a, a_shared, w, bias, lanes, active, m, k, n, out, relu_masks,
        );
    }

    fn dot(&self, a: &[f32], b: &[f32]) -> f32 {
        linalg::dot(a, b)
    }
}

/// The only implementor of [`LinalgBackend`].
pub struct Reference;

impl LinalgBackend for Reference {}

/// The value of the `FedAvgConfig.backend` field; one inhabitant, so it
/// selects nothing.
#[derive(Clone, Copy, Debug)]
pub enum Backend {
    Reference,
}

impl Backend {
    pub fn name(&self) -> &'static str {
        "reference"
    }
}
