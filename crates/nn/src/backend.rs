//! Pluggable linear-algebra backends.
//!
//! Every dense FLOP of the FL hot path — solo forward/backward
//! ([`crate::layers::Dense`]/[`crate::layers::DenseRelu`]), the
//! lane-blocked multi-coalition kernels ([`crate::lanes`]) and the FL
//! engine's parameter arithmetic (FedProx proximal pull, update deltas,
//! weighted aggregation) — flows through the [`LinalgBackend`] trait, so a
//! backend chosen once at the utility/config level reaches the innermost
//! loops without per-element dispatch: layers hold a [`Backend`] value and
//! dispatch is one `match` per *kernel call* (a whole `m×k×n` matmul or a
//! whole parameter-vector axpy), amortised over the entire operand.
//!
//! Two backends ship today:
//!
//! * [`Reference`] — the blocked scalar kernels of [`crate::linalg`],
//!   bit-identical to every historical result; the determinism tests pin
//!   this backend's outputs.
//! * [`Simd`] — 8-wide unrolled microkernels (shaped for one AVX2/NEON
//!   f32 vector; the unrolled loops autovectorise on stable Rust without
//!   `std::simd`). Reductions use a **fixed, documented accumulation
//!   order** (see [`Simd`]), so results are deterministic per backend —
//!   independent of threads, lane grouping and batch composition — but
//!   differ from [`Reference`] in the last bits of each reduction.
//!
//! **Determinism contract.** Per backend, every kernel is a pure function
//! of its operands with a fixed accumulation order. Element-wise kernels
//! (`matmul`, `matmul_at_b_accum`, the lane gradient accumulation, `axpy`)
//! are bit-identical *across* backends too — vectorising independent
//! output elements cannot reorder any single element's sum. Only the
//! dot-reduction family (`matmul_a_bt*`, lane forward, `dot`, `norm2`)
//! rounds differently between backends. Convolution and pooling
//! ([`crate::layers::Conv2d`], [`crate::layers::MaxPool2`]) do not go
//! through this trait at all: their loops live in the layer, sum each
//! output element in one fixed tap order, and are therefore the same bits
//! under every backend — a CNN differs across backends only through its
//! dense head.
//!
//! Adding a third backend (GPU, wider SIMD): implement [`LinalgBackend`],
//! add a [`Backend`] variant, extend [`Backend::from_name`], and run the
//! `backend_equivalence` fuzz suite plus the `backend_speedup` bench
//! against it. The lane kernels are the natural first GPU target — `B`
//! independent models over one batch is a batched-GEMM shape.

use std::sync::OnceLock;

use crate::linalg::{self, by_rows};

/// The kernel surface every linear-algebra backend implements: the three
/// solo training kernels, their lane-blocked multi-coalition counterparts,
/// and the scalar helpers the FL engine's parameter arithmetic uses.
///
/// Dimensions and layouts mirror the reference kernels in
/// [`crate::linalg`] (row-major, `b` pre-transposed in the `a·bᵀ`
/// family). Implementations must be deterministic: a fixed accumulation
/// order per kernel, documented on the implementing type.
pub trait LinalgBackend {
    /// Backend name as accepted by [`Backend::from_name`].
    fn name(&self) -> &'static str;

    /// `out[m×n] = a[m×k] · b[k×n]`; `out` is overwritten.
    fn matmul(&self, a: &[f32], b: &[f32], m: usize, k: usize, n: usize, out: &mut [f32]);

    /// `out[m×n] = a[m×k] · bᵀ` with `b` stored `n×k`.
    fn matmul_a_bt(&self, a: &[f32], b: &[f32], m: usize, k: usize, n: usize, out: &mut [f32]);

    /// Fused forward: `out = a·bᵀ + bias`, optionally ReLU-clamped with
    /// the positive mask appended to `relu_mask` (see
    /// [`linalg::matmul_a_bt_bias`]).
    #[allow(clippy::too_many_arguments)] // BLAS-style kernel: dims + operands
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
    );

    /// `out[k×n] += aᵀ · b` (gradient accumulation).
    fn matmul_at_b_accum(
        &self,
        a: &[f32],
        b: &[f32],
        m: usize,
        k: usize,
        n: usize,
        out: &mut [f32],
    );

    /// Lane-blocked fused forward over `lanes` parameter lanes (see
    /// [`linalg::lane_matmul_a_bt_bias`]).
    #[allow(clippy::too_many_arguments)] // BLAS-style kernel: dims + operands
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
    );

    /// Lane-blocked gradient accumulation over `lanes` parameter lanes
    /// (see [`linalg::lane_matmul_at_b_accum`]).
    #[allow(clippy::too_many_arguments)] // BLAS-style kernel: dims + operands
    fn lane_matmul_at_b_accum(
        &self,
        grad_out: &[f32],
        input: &[f32],
        input_shared: bool,
        lanes: usize,
        active: &[bool],
        m: usize,
        k: usize,
        n: usize,
        grad_w: &mut [f32],
        grad_b: &mut [f32],
    );

    /// Dot product.
    fn dot(&self, a: &[f32], b: &[f32]) -> f32;

    /// `y ← y + alpha·x`.
    fn axpy(&self, alpha: f32, x: &[f32], y: &mut [f32]);

    /// Euclidean norm (via this backend's [`LinalgBackend::dot`]).
    fn norm2(&self, x: &[f32]) -> f32 {
        self.dot(x, x).sqrt()
    }
}

/// The blocked scalar kernels of [`crate::linalg`], unchanged: every
/// output is bit-identical to the historical (pre-backend) code paths,
/// which the determinism and lock-step equivalence tests pin.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Reference;

impl LinalgBackend for Reference {
    fn name(&self) -> &'static str {
        "reference"
    }

    fn matmul(&self, a: &[f32], b: &[f32], m: usize, k: usize, n: usize, out: &mut [f32]) {
        linalg::matmul(a, b, m, k, n, out);
    }

    fn matmul_a_bt(&self, a: &[f32], b: &[f32], m: usize, k: usize, n: usize, out: &mut [f32]) {
        linalg::matmul_a_bt(a, b, m, k, n, out);
    }

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

    fn lane_matmul_at_b_accum(
        &self,
        grad_out: &[f32],
        input: &[f32],
        input_shared: bool,
        lanes: usize,
        active: &[bool],
        m: usize,
        k: usize,
        n: usize,
        grad_w: &mut [f32],
        grad_b: &mut [f32],
    ) {
        linalg::lane_matmul_at_b_accum(
            grad_out,
            input,
            input_shared,
            lanes,
            active,
            m,
            k,
            n,
            grad_w,
            grad_b,
        );
    }

    fn dot(&self, a: &[f32], b: &[f32]) -> f32 {
        linalg::dot(a, b)
    }

    fn axpy(&self, alpha: f32, x: &[f32], y: &mut [f32]) {
        linalg::axpy(alpha, x, y);
    }

    fn norm2(&self, x: &[f32]) -> f32 {
        linalg::norm2(x)
    }
}

/// 8-wide unrolled microkernels.
///
/// **Accumulation order (the backend's determinism contract).** Every
/// length-`k` reduction — each output element of the `a·bᵀ` family (solo
/// and lane), [`LinalgBackend::dot`] and [`LinalgBackend::norm2`] — is
/// computed as:
///
/// 1. eight partial sums `p_t = Σ_c a[8c+t]·b[8c+t]` over the
///    `⌊k/8⌋·8`-element prefix, filled in ascending chunk order;
/// 2. combined pairwise as
///    `((p_0+p_1)+(p_2+p_3)) + ((p_4+p_5)+(p_6+p_7))`;
/// 3. the `k mod 8` tail elements added one by one in ascending index
///    order.
///
/// This order is a function of `k` alone — never of how the call was
/// blocked, which lanes were active, or which columns shared a
/// microkernel — so results are deterministic and the lane path stays
/// bit-identical to this backend's own solo path (the lock-step
/// contract, per backend).
///
/// Element-wise kernels (`matmul`, `matmul_at_b_accum`, their lane
/// counterpart, `axpy`) unroll over *independent* output elements, so
/// they are bit-identical to [`Reference`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Simd;

impl LinalgBackend for Simd {
    fn name(&self) -> &'static str {
        "simd"
    }

    fn matmul(&self, a: &[f32], b: &[f32], m: usize, k: usize, n: usize, out: &mut [f32]) {
        linalg::matmul_with(simd_axpy, a, b, m, k, n, out);
    }

    fn matmul_a_bt(&self, a: &[f32], b: &[f32], m: usize, k: usize, n: usize, out: &mut [f32]) {
        linalg::a_bt_with(by_rows(simd_a_bt_row), a, b, None, m, k, n, out, None);
    }

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
        let kernel = by_rows(simd_a_bt_row);
        linalg::a_bt_with(kernel, a, b, Some(bias), m, k, n, out, relu_mask);
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
        linalg::at_b_accum_with(simd_axpy, a, b, m, k, n, out);
    }

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
        linalg::lane_a_bt_bias_with(
            by_rows(simd_a_bt_row),
            a,
            a_shared,
            w,
            bias,
            lanes,
            active,
            m,
            k,
            n,
            out,
            relu_masks,
        );
    }

    fn lane_matmul_at_b_accum(
        &self,
        grad_out: &[f32],
        input: &[f32],
        input_shared: bool,
        lanes: usize,
        active: &[bool],
        m: usize,
        k: usize,
        n: usize,
        grad_w: &mut [f32],
        grad_b: &mut [f32],
    ) {
        linalg::lane_at_b_accum_with(
            simd_axpy,
            grad_out,
            input,
            input_shared,
            lanes,
            active,
            m,
            k,
            n,
            grad_w,
            grad_b,
        );
    }

    fn dot(&self, a: &[f32], b: &[f32]) -> f32 {
        simd_dot(a, b)
    }

    fn axpy(&self, alpha: f32, x: &[f32], y: &mut [f32]) {
        simd_axpy(alpha, x, y);
    }
}

/// Pairwise combine of the eight partial sums — step 2 of the [`Simd`]
/// accumulation order.
#[inline]
fn reduce8(acc: [f32; 8]) -> f32 {
    ((acc[0] + acc[1]) + (acc[2] + acc[3])) + ((acc[4] + acc[5]) + (acc[6] + acc[7]))
}

/// 8-wide dot product in the [`Simd`] accumulation order.
#[inline]
fn simd_dot(a: &[f32], b: &[f32]) -> f32 {
    debug_assert_eq!(a.len(), b.len());
    let mut acc = [0.0f32; 8];
    let mut ca = a.chunks_exact(8);
    let mut cb = b.chunks_exact(8);
    for (xa, xb) in (&mut ca).zip(&mut cb) {
        for t in 0..8 {
            acc[t] += xa[t] * xb[t];
        }
    }
    let mut sum = reduce8(acc);
    for (x, y) in ca.remainder().iter().zip(cb.remainder()) {
        sum += x * y;
    }
    sum
}

/// 8-wide `y ← y + alpha·x`. Element-wise: bit-identical to the scalar
/// [`linalg::axpy`].
#[inline]
fn simd_axpy(alpha: f32, x: &[f32], y: &mut [f32]) {
    debug_assert_eq!(x.len(), y.len());
    let mut cy = y.chunks_exact_mut(8);
    let mut cx = x.chunks_exact(8);
    for (ya, xa) in (&mut cy).zip(&mut cx) {
        for t in 0..8 {
            ya[t] += alpha * xa[t];
        }
    }
    for (o, &v) in cy.into_remainder().iter_mut().zip(cx.remainder()) {
        *o += alpha * v;
    }
}

/// One output row of the [`Simd`] `a·bᵀ (+ bias) (+ ReLU)` family:
/// 4 output columns per microkernel, each with its own 8-wide partial-sum
/// array; remainder columns fall back to [`simd_dot`], which computes the
/// *same* per-column sum (the accumulation order depends on `k` only).
#[inline]
fn simd_a_bt_row(
    a_row: &[f32],
    b: &[f32],
    k: usize,
    n: usize,
    out_row: &mut [f32],
    bias: Option<&[f32]>,
    relu: bool,
) {
    let finish = |acc: f32, j: usize| -> f32 {
        let v = match bias {
            Some(bias) => acc + bias[j],
            None => acc,
        };
        if relu {
            v.max(0.0)
        } else {
            v
        }
    };
    let main = k - k % 8;
    let mut j = 0;
    while j + 4 <= n {
        let b0 = &b[j * k..(j + 1) * k];
        let b1 = &b[(j + 1) * k..(j + 2) * k];
        let b2 = &b[(j + 2) * k..(j + 3) * k];
        let b3 = &b[(j + 3) * k..(j + 4) * k];
        let mut acc0 = [0.0f32; 8];
        let mut acc1 = [0.0f32; 8];
        let mut acc2 = [0.0f32; 8];
        let mut acc3 = [0.0f32; 8];
        let mut p = 0;
        while p < main {
            let xa = &a_row[p..p + 8];
            let x0 = &b0[p..p + 8];
            let x1 = &b1[p..p + 8];
            let x2 = &b2[p..p + 8];
            let x3 = &b3[p..p + 8];
            for t in 0..8 {
                acc0[t] += xa[t] * x0[t];
                acc1[t] += xa[t] * x1[t];
                acc2[t] += xa[t] * x2[t];
                acc3[t] += xa[t] * x3[t];
            }
            p += 8;
        }
        let mut s0 = reduce8(acc0);
        let mut s1 = reduce8(acc1);
        let mut s2 = reduce8(acc2);
        let mut s3 = reduce8(acc3);
        for p in main..k {
            let av = a_row[p];
            s0 += av * b0[p];
            s1 += av * b1[p];
            s2 += av * b2[p];
            s3 += av * b3[p];
        }
        out_row[j] = finish(s0, j);
        out_row[j + 1] = finish(s1, j + 1);
        out_row[j + 2] = finish(s2, j + 2);
        out_row[j + 3] = finish(s3, j + 3);
        j += 4;
    }
    while j < n {
        out_row[j] = finish(simd_dot(a_row, &b[j * k..(j + 1) * k]), j);
        j += 1;
    }
}

/// The backend selector carried by layers, lane layers and
/// `FedAvgConfig`: one `Copy` value, dispatched with a single `match` per
/// kernel call.
///
/// The process-wide default is read once from the `FEDVAL_BACKEND`
/// environment variable (`reference` | `simd`; unset means
/// [`Backend::Reference`]) and cached — set it before the first model is
/// built. Programmatic choices (e.g. `FedAvgConfig { backend, .. }`)
/// override the environment per utility.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Backend {
    Reference,
    Simd,
}

impl Backend {
    /// Parse a backend name (case-insensitive): `reference` | `simd`.
    pub fn from_name(name: &str) -> Option<Backend> {
        match name.trim().to_ascii_lowercase().as_str() {
            "reference" | "ref" => Some(Backend::Reference),
            "simd" => Some(Backend::Simd),
            _ => None,
        }
    }

    /// Read `FEDVAL_BACKEND` (unset ⇒ [`Backend::Reference`]). Panics on
    /// an unknown value — a silently ignored backend request would
    /// invalidate any benchmark run under it.
    pub fn from_env() -> Backend {
        match std::env::var("FEDVAL_BACKEND") {
            Ok(v) => Backend::from_name(&v).unwrap_or_else(|| {
                panic!("FEDVAL_BACKEND must be \"reference\" or \"simd\", got {v:?}")
            }),
            Err(_) => Backend::Reference,
        }
    }

    /// The backend's canonical name (`from_name(name())` round-trips).
    pub fn name(&self) -> &'static str {
        match self {
            Backend::Reference => Reference.name(),
            Backend::Simd => Simd.name(),
        }
    }
}

/// The cross-backend agreement predicate of the determinism contract:
/// ≤ 1e-5 relative tolerance (absolute near zero). One definition shared
/// by the `backend_equivalence` fuzz suite, the `backend_speedup` bench
/// gate and this module's tests, so the gates cannot drift apart.
pub fn rel_close(a: f32, b: f32) -> bool {
    (a - b).abs() <= 1e-5 * a.abs().max(b.abs()).max(1.0)
}

/// Process-wide default, resolved from `FEDVAL_BACKEND` on first use.
static ENV_BACKEND: OnceLock<Backend> = OnceLock::new();

impl Default for Backend {
    fn default() -> Self {
        *ENV_BACKEND.get_or_init(Backend::from_env)
    }
}

macro_rules! dispatch {
    ($self:ident, $method:ident ( $($arg:expr),* $(,)? )) => {
        match $self {
            Backend::Reference => Reference.$method($($arg),*),
            Backend::Simd => Simd.$method($($arg),*),
        }
    };
}

impl LinalgBackend for Backend {
    fn name(&self) -> &'static str {
        Backend::name(self)
    }

    fn matmul(&self, a: &[f32], b: &[f32], m: usize, k: usize, n: usize, out: &mut [f32]) {
        dispatch!(self, matmul(a, b, m, k, n, out))
    }

    fn matmul_a_bt(&self, a: &[f32], b: &[f32], m: usize, k: usize, n: usize, out: &mut [f32]) {
        dispatch!(self, matmul_a_bt(a, b, m, k, n, out))
    }

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
        dispatch!(self, matmul_a_bt_bias(a, b, bias, m, k, n, out, relu_mask))
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
        dispatch!(self, matmul_at_b_accum(a, b, m, k, n, out))
    }

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
        dispatch!(
            self,
            lane_matmul_a_bt_bias(a, a_shared, w, bias, lanes, active, m, k, n, out, relu_masks)
        )
    }

    fn lane_matmul_at_b_accum(
        &self,
        grad_out: &[f32],
        input: &[f32],
        input_shared: bool,
        lanes: usize,
        active: &[bool],
        m: usize,
        k: usize,
        n: usize,
        grad_w: &mut [f32],
        grad_b: &mut [f32],
    ) {
        dispatch!(
            self,
            lane_matmul_at_b_accum(
                grad_out,
                input,
                input_shared,
                lanes,
                active,
                m,
                k,
                n,
                grad_w,
                grad_b
            )
        )
    }

    fn dot(&self, a: &[f32], b: &[f32]) -> f32 {
        dispatch!(self, dot(a, b))
    }

    fn axpy(&self, alpha: f32, x: &[f32], y: &mut [f32]) {
        dispatch!(self, axpy(alpha, x, y))
    }

    fn norm2(&self, x: &[f32]) -> f32 {
        dispatch!(self, norm2(x))
    }
}

#[cfg(test)]
// Tests assert invariants; an unwrap that trips IS the test failing.
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;

    fn pseudo(seed: u32, len: usize) -> Vec<f32> {
        let mut x = seed;
        (0..len)
            .map(|_| {
                x = x.wrapping_mul(1664525).wrapping_add(1013904223);
                (x >> 8) as f32 / (1u32 << 24) as f32 - 0.5
            })
            .collect()
    }

    #[test]
    fn backend_names_round_trip() {
        for be in [Backend::Reference, Backend::Simd] {
            assert_eq!(Backend::from_name(be.name()), Some(be));
        }
        assert_eq!(Backend::from_name("REF"), Some(Backend::Reference));
        assert_eq!(Backend::from_name(" Simd "), Some(Backend::Simd));
        assert_eq!(Backend::from_name("gpu"), None);
    }

    #[test]
    fn simd_dot_known_values_and_documented_order() {
        // k < 8: pure tail, ascending order — identical to reference.
        assert_eq!(Simd.dot(&[1.0, 2.0], &[3.0, 4.0]), 11.0);
        // k = 11 exercises one chunk + 3 tail elements; recompute the
        // documented order by hand.
        let a = pseudo(1, 11);
        let b = pseudo(2, 11);
        let mut acc = [0.0f32; 8];
        for t in 0..8 {
            acc[t] = a[t] * b[t];
        }
        let mut expect = reduce8(acc);
        for i in 8..11 {
            expect += a[i] * b[i];
        }
        assert_eq!(Simd.dot(&a, &b), expect);
        assert_eq!(Simd.norm2(&[3.0, 4.0]), 5.0);
    }

    #[test]
    fn elementwise_kernels_are_bit_identical_across_backends() {
        // matmul / at_b_accum / axpy vectorise independent output
        // elements, so Simd must equal Reference exactly.
        let (m, k, n) = (5, 19, 13);
        let a = pseudo(3, m * k);
        let b = pseudo(4, k * n);
        let mut r = vec![0.0f32; m * n];
        let mut s = vec![0.0f32; m * n];
        Reference.matmul(&a, &b, m, k, n, &mut r);
        Simd.matmul(&a, &b, m, k, n, &mut s);
        assert_eq!(r, s);

        let g = pseudo(5, m * k);
        let x = pseudo(6, m * n);
        let mut rw = pseudo(7, k * n);
        let mut sw = rw.clone();
        Reference.matmul_at_b_accum(&g, &x, m, k, n, &mut rw);
        Simd.matmul_at_b_accum(&g, &x, m, k, n, &mut sw);
        assert_eq!(rw, sw);

        let v = pseudo(8, 21);
        let mut ry = pseudo(9, 21);
        let mut sy = ry.clone();
        Reference.axpy(0.37, &v, &mut ry);
        Simd.axpy(0.37, &v, &mut sy);
        assert_eq!(ry, sy);
    }

    #[test]
    fn simd_a_bt_matches_reference_within_tolerance() {
        // Column remainders 0..=3 and k remainders around the 8-wide
        // chunk all exercised.
        for (m, k, n) in [(2, 7, 3), (3, 8, 4), (2, 9, 5), (4, 16, 8), (1, 31, 9)] {
            let a = pseudo(10, m * k);
            let b = pseudo(11, n * k);
            let bias = pseudo(12, n);
            let mut r = vec![0.0f32; m * n];
            let mut s = vec![0.0f32; m * n];
            Reference.matmul_a_bt_bias(&a, &b, &bias, m, k, n, &mut r, None);
            Simd.matmul_a_bt_bias(&a, &b, &bias, m, k, n, &mut s, None);
            for (&rv, &sv) in r.iter().zip(&s) {
                assert!(rel_close(rv, sv), "m={m} k={k} n={n}: {rv} vs {sv}");
            }
        }
    }

    #[test]
    fn simd_lane_forward_is_bit_identical_to_simd_solo() {
        // The per-backend lock-step contract: the lane path must
        // reproduce the same backend's solo path exactly.
        let (lanes, m, k, n) = (3usize, 4usize, 13usize, 6usize);
        let w = pseudo(13, lanes * n * k);
        let bias = pseudo(14, lanes * n);
        let a = pseudo(15, m * k);
        let active = vec![true, false, true];
        let mut out = vec![f32::NAN; lanes * m * n];
        let mut masks = vec![false; lanes * m * n];
        Simd.lane_matmul_a_bt_bias(
            &a,
            true,
            &w,
            &bias,
            lanes,
            &active,
            m,
            k,
            n,
            &mut out,
            Some(&mut masks),
        );
        for l in 0..lanes {
            if !active[l] {
                assert!(out[l * m * n..(l + 1) * m * n].iter().all(|v| v.is_nan()));
                continue;
            }
            let mut expect = vec![0.0f32; m * n];
            let mut expect_mask = Vec::new();
            Simd.matmul_a_bt_bias(
                &a,
                &w[l * n * k..(l + 1) * n * k],
                &bias[l * n..(l + 1) * n],
                m,
                k,
                n,
                &mut expect,
                Some(&mut expect_mask),
            );
            assert_eq!(&out[l * m * n..(l + 1) * m * n], &expect[..]);
            assert_eq!(&masks[l * m * n..(l + 1) * m * n], &expect_mask[..]);
        }
    }

    #[test]
    fn enum_dispatch_matches_struct_backends() {
        let a = pseudo(16, 24);
        let b = pseudo(17, 24);
        assert_eq!(
            LinalgBackend::dot(&Backend::Reference, &a, &b),
            Reference.dot(&a, &b)
        );
        assert_eq!(LinalgBackend::dot(&Backend::Simd, &a, &b), Simd.dot(&a, &b));
    }

    #[test]
    fn degenerate_shapes_are_handled() {
        for be in [Backend::Reference, Backend::Simd] {
            let mut out: Vec<f32> = Vec::new();
            be.matmul(&[], &[], 0, 0, 0, &mut out);
            be.matmul_a_bt(&[], &[], 0, 3, 0, &mut out);
            let mut one = vec![0.0f32];
            be.matmul_a_bt_bias(&[2.0], &[3.0], &[1.0], 1, 1, 1, &mut one, None);
            assert_eq!(one, vec![7.0]);
            assert_eq!(be.dot(&[], &[]), 0.0);
            be.axpy(1.0, &[], &mut []);
            assert_eq!(be.norm2(&[]), 0.0);
        }
    }
}
