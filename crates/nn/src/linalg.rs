//! Minimal dense linear algebra (row-major, no external BLAS), tuned for
//! the per-coalition FL training hot path.
//!
//! Every local SGD step runs `matmul_a_bt_bias` (forward),
//! `matmul_at_b_accum` (weight gradients) and `matmul` (input gradients),
//! so these kernels are written for locality and instruction-level
//! parallelism: `matmul` blocks the shared dimension to keep the `b` panel
//! in cache, and the forward kernel fuses the bias add (and optionally the
//! ReLU) into the accumulator write-back instead of a second pass over the
//! output. Accumulation order per output element is unchanged by the
//! blocking, so results stay bit-identical to the naive loops — which the
//! tests assert.
//!
//! The `a·bᵀ` family is a length-`k` reduction per output element, which
//! a compiler may not vectorise *along* without reassociating it. So the
//! kernel vectorises *across* output columns — a column-broadcast tile:
//! `b` is transposed once per call (`k×n`, columns padded to a multiple of
//! 4) and a register tile of 2 rows (4 in the AVX2 copy) × up to 16
//! columns is swept over `p`, each step broadcasting `a[i][p]` against the
//! contiguous `bᵀ[p][j..]`.
//! Vector lanes are independent output elements, each still summing its
//! own products in ascending `p` from the start value of the historical
//! row kernel (`0.0` under its 4-way column blocks, [`dot`]'s empty sum on
//! the `n % 4` tail): the same operations in the same order, so the same
//! bits.
//!
//! These free functions are the only kernel path: `nn` and `fl` call them
//! directly, and every determinism test pins their bits. The two `*_with`
//! drivers of the `a·bᵀ` family take the block kernel as an argument only
//! so the tests can run the historical row kernel through the same shape
//! checks, lane iteration and mask bookkeeping as its replacement.
//!
//! **Two instruction widths, same bits.** [`matmul`],
//! [`lane_matmul_at_b_accum`] and the `a·bᵀ` sweep — the kernels of the
//! lock-step step — run a second copy, compiled with AVX2, when the CPU
//! has AVX2 ([`matmul_at_b_accum`], only solo `Dense` backward, stays
//! single). Nothing
//! enables FMA and no sum is reassociated; the AVX2 sweep takes 4 rows per
//! tile (8 ymm accumulators) where the SSE2 baseline keeps 2, which only
//! regroups independent outputs. The trap: LLVM vectorises a copy's loops
//! only when they sit in the copy and read its parameters. A closure in
//! between (like `LocalKey::with_borrow_mut`'s) is compiled once, for the
//! baseline, and slices read from captures or struct fields stay scalar
//! even with AVX2 enabled — hence `isa_dispatched!`.

use std::cell::RefCell;

/// Panel height for [`matmul`]'s shared-dimension blocking: `KC` rows of
/// `b` (each `n` wide) stay resident in L1/L2 across the `m` sweep.
const KC: usize = 128;

/// Defines `fn $name`, running `$name::avx2` (the body with AVX2 enabled)
/// when the CPU has AVX2, else `$name::baseline`; the body reads its copy
/// from the const `AVX2`. Both take the kernel's parameters as their own
/// and are never inlined into a caller, so their loops vectorise.
macro_rules! isa_dispatched {
    ($(#[$attr:meta])* $name:ident($($arg:ident: $ty:ty),* $(,)?) $body:block) => {
        $(#[$attr])*
        #[allow(unsafe_code, reason = "the ISA dispatch: one runtime-checked call into the AVX2 copy")]
        #[allow(clippy::too_many_arguments, reason = "the kernel's own parameter list")]
        fn $name($($arg: $ty),*) {
            #[cfg(target_arch = "x86_64")]
            if std::arch::is_x86_feature_detected!("avx2") {
                // SAFETY: `avx2` is `#[target_feature(enable = "avx2")]`, so
                // it may only run on a CPU with AVX2, detected just above.
                return unsafe { $name::avx2($($arg),*) };
            }
            $name::baseline($($arg),*)
        }

        #[allow(clippy::too_many_arguments, reason = "the kernel's own parameter list")]
        mod $name {
            use super::*;

            #[inline(always)]
            fn body<const AVX2: bool>($($arg: $ty),*) $body

            #[inline(never)] // a named symbol for the CI vectorisation check
            pub(super) fn baseline($($arg: $ty),*) {
                body::<false>($($arg),*)
            }

            #[cfg(target_arch = "x86_64")]
            #[target_feature(enable = "avx2")]
            pub(super) fn avx2($($arg: $ty),*) {
                body::<true>($($arg),*)
            }
        }
    };
}

/// `out[m×n] = a[m×k] · b[k×n]` (row-major). `out` is overwritten.
///
/// Blocked over `k` so the active `b` panel stays in cache while every row
/// of `a` sweeps it. For each output element the partial products are
/// still added in ascending `p` order (blocks are visited in order), so
/// the result is bit-identical to the unblocked loop.
pub fn matmul(a: &[f32], b: &[f32], m: usize, k: usize, n: usize, out: &mut [f32]) {
    assert_eq!(a.len(), m * k);
    assert_eq!(b.len(), k * n);
    assert_eq!(out.len(), m * n);
    matmul_kernel(a, b, m, k, n, out);
}

isa_dispatched! { matmul_kernel(a: &[f32], b: &[f32], m: usize, k: usize, n: usize, out: &mut [f32]) {
    out.fill(0.0);
    let mut p0 = 0;
    while p0 < k {
        let p1 = (p0 + KC).min(k);
        for i in 0..m {
            let a_row = &a[i * k + p0..i * k + p1];
            let out_row = &mut out[i * n..(i + 1) * n];
            for (dp, &av) in a_row.iter().enumerate() {
                if av == 0.0 {
                    continue;
                }
                axpy(av, &b[(p0 + dp) * n..(p0 + dp + 1) * n], out_row);
            }
        }
        p0 = p1;
    }
}}

/// Driver of the `a·bᵀ (+ bias) (+ ReLU)` family: shape checks and
/// relu-mask bookkeeping; `block_kernel` computes the whole `m×n` output
/// ([`a_bt_block`], or the historical row kernel in the tests).
#[allow(
    clippy::too_many_arguments,
    reason = "BLAS-style kernel: dims + operands"
)]
#[inline]
pub(crate) fn a_bt_with<K>(
    block_kernel: K,
    a: &[f32],
    b: &[f32],
    bias: Option<&[f32]>,
    m: usize,
    k: usize,
    n: usize,
    out: &mut [f32],
    relu_mask: Option<&mut Vec<bool>>,
) where
    K: Fn(&[f32], &[f32], usize, usize, usize, &mut [f32], Option<&[f32]>, bool),
{
    assert_eq!(a.len(), m * k);
    assert_eq!(b.len(), n * k);
    if let Some(bias) = bias {
        assert_eq!(bias.len(), n);
    }
    assert_eq!(out.len(), m * n);
    block_kernel(a, b, m, k, n, out, bias, relu_mask.is_some());
    if let Some(mask) = relu_mask {
        debug_assert!(mask.is_empty());
        // `out` already holds max(acc + bias, 0); positives gate the
        // backward pass.
        mask.extend(out.iter().map(|&v| v > 0.0));
    }
}

/// `out[m×n] = a[m×k] · bᵀ` where `b` is `n×k` (row-major).
///
/// Each output element sums its `k` products in ascending order — the
/// order of [`dot`] — so results are bit-identical to the naive loop.
pub fn matmul_a_bt(a: &[f32], b: &[f32], m: usize, k: usize, n: usize, out: &mut [f32]) {
    a_bt_with(a_bt_block, a, b, None, m, k, n, out, None);
}

/// Fused forward kernel: `out[m×n] = a[m×k] · bᵀ + bias` (bias broadcast
/// over rows), optionally clamped through ReLU in the same write-back.
/// `relu_mask`, when provided, records `out > 0` per element (the backward
/// pass's gate), saving the separate activation traversal entirely.
#[allow(
    clippy::too_many_arguments,
    reason = "BLAS-style kernel: dims + operands"
)]
pub fn matmul_a_bt_bias(
    a: &[f32],
    b: &[f32],
    bias: &[f32],
    m: usize,
    k: usize,
    n: usize,
    out: &mut [f32],
    relu_mask: Option<&mut Vec<bool>>,
) {
    a_bt_with(a_bt_block, a, b, Some(bias), m, k, n, out, relu_mask);
}

thread_local! {
    /// `bᵀ` scratch of [`a_bt_block`], reused across calls on this thread.
    static BT_SCRATCH: RefCell<Vec<f32>> = const { RefCell::new(Vec::new()) };
}

/// `dst[p·np + j] = src[j·k + p]`: the `n×k` matrix `src` transposed to
/// `k×np`, where `np` (returned) is `n` rounded up to a multiple of 4 and
/// the padding columns are zero, so every row of `dst` splits into whole
/// register tiles.
pub(crate) fn transpose_padded(src: &[f32], n: usize, k: usize, dst: &mut Vec<f32>) -> usize {
    let np = n.next_multiple_of(4);
    dst.clear();
    dst.resize(k * np, 0.0);
    // Four source rows at a time: each `dst` row takes one 4-wide store
    // per block instead of one scattered element per cache line.
    let full = n - n % 4;
    for j0 in (0..full).step_by(4) {
        let [r0, r1, r2, r3]: [&[f32]; 4] =
            std::array::from_fn(|t| &src[(j0 + t) * k..(j0 + t + 1) * k]);
        let columns = r0.iter().zip(r1).zip(r2).zip(r3);
        for (d, (((&v0, &v1), &v2), &v3)) in dst.chunks_exact_mut(np).zip(columns) {
            d[j0..j0 + 4].copy_from_slice(&[v0, v1, v2, v3]);
        }
    }
    for j in full..n {
        for (p, &v) in src[j * k..(j + 1) * k].iter().enumerate() {
            dst[p * np + j] = v;
        }
    }
    np
}

/// Splits `$np` columns (a multiple of 4) into register tiles of up to 16
/// and calls `$f::<.., W>($args)` per tile, with `$j0` bound to the tile's
/// first column and its width `W` as the last const parameter.
macro_rules! for_each_tile {
    ($j0:ident in $np:expr, $f:ident $(::<$r:ident>)? ($($arg:expr),*)) => {
        for $j0 in (0..$np).step_by(16) {
            match $np - $j0 {
                4 => $f::<$($r,)? 4>($($arg),*),
                8 => $f::<$($r,)? 8>($($arg),*),
                12 => $f::<$($r,)? 12>($($arg),*),
                _ => $f::<$($r,)? 16>($($arg),*),
            }
        }
    };
}
pub(crate) use for_each_tile;

/// The block kernel of the `a·bᵀ (+ bias) (+ ReLU)` family:
/// transposes `b` once, then runs [`a_bt_sweep`] over it (see the module
/// header for why this keeps every bit of the historical row kernel).
#[allow(
    clippy::too_many_arguments,
    reason = "BLAS-style kernel: dims + operands"
)]
fn a_bt_block(
    a: &[f32],
    b: &[f32],
    m: usize,
    k: usize,
    n: usize,
    out: &mut [f32],
    bias: Option<&[f32]>,
    relu: bool,
) {
    BT_SCRATCH.with_borrow_mut(|bt| {
        let np = transpose_padded(b, n, k, bt);
        a_bt_sweep(a, bt, np, m, k, n, out, bias, relu);
    });
}

isa_dispatched! {
/// One `a·bᵀ` block over the padded `bᵀ` (row stride `np`): 4-row tiles
/// in the AVX2 copy (8 ymm accumulators), then pairs, then one row; the
/// baseline starts at pairs, as 4 rows would spill its 16 xmm registers.
a_bt_sweep(
    a: &[f32],
    bt: &[f32],
    np: usize,
    m: usize,
    k: usize,
    n: usize,
    out: &mut [f32],
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
    let row = |i: usize| &a[i * k..(i + 1) * k];
    let mut i = 0;
    while AVX2 && i + 4 <= m {
        let rows = [row(i), row(i + 1), row(i + 2), row(i + 3)];
        a_bt_rows(rows, bt, np, n, &mut out[i * n..(i + 4) * n], &finish);
        i += 4;
    }
    while i + 2 <= m {
        let out_rows = &mut out[i * n..(i + 2) * n];
        a_bt_rows([row(i), row(i + 1)], bt, np, n, out_rows, &finish);
        i += 2;
    }
    if i < m {
        a_bt_rows([row(i)], bt, np, n, &mut out[i * n..], &finish);
    }
}}

/// `R` whole output rows, tile by tile.
#[inline(always)] // one copy per ISA: a shared out-of-line copy would be baseline code
fn a_bt_rows<const R: usize>(
    a: [&[f32]; R],
    bt: &[f32],
    np: usize,
    n: usize,
    out: &mut [f32],
    finish: &impl Fn(f32, usize) -> f32,
) {
    for_each_tile!(j0 in np, a_bt_tile::<R>(a, bt, np, j0, n, out, finish));
}

/// A tile's accumulators, aligned so no 32-byte store to them splits a
/// cache line (unaligned, the AVX2 forward ran 1.2× slower in some runs).
#[repr(align(32))]
struct Acc<const R: usize, const W: usize>([[f32; W]; R]);

/// One `R×W` register tile at column `j0`: accumulate in ascending `p`,
/// then write back through `finish` (padding columns `j ≥ n` are dropped).
#[inline(always)] // measured: out-of-line tiles cost the n = 10 shapes 25 %
fn a_bt_tile<const R: usize, const W: usize>(
    a: [&[f32]; R],
    bt: &[f32],
    np: usize,
    j0: usize,
    n: usize,
    out: &mut [f32],
    finish: &impl Fn(f32, usize) -> f32,
) {
    // The historical `n % 4` tail columns start from `dot`'s empty sum, set
    // per column: a fill from a runtime offset made AVX2 shuffle the loads.
    let empty = dot(&[], &[]);
    let start: [f32; W] = std::array::from_fn(|t| if j0 + t < n - n % 4 { 0.0 } else { empty });
    let mut acc = Acc([start; R]);
    for (p, b_row) in bt.chunks_exact(np).enumerate() {
        let b_tile = &b_row[j0..j0 + W];
        for (acc_row, a_row) in acc.0.iter_mut().zip(a) {
            let av = a_row[p];
            for (s, &bv) in acc_row.iter_mut().zip(b_tile) {
                *s += av * bv;
            }
        }
    }
    for (r, acc_row) in acc.0.iter().enumerate() {
        for (j, &s) in (j0..n).zip(acc_row) {
            out[r * n + j] = finish(s, j);
        }
    }
}

/// Driver of the lane-blocked fused forward: lane iteration, shared-input
/// resolution and mask bookkeeping; `block_kernel` computes one lane's
/// `m×n` output ([`a_bt_block`], or the historical row kernel in the
/// tests).
#[allow(
    clippy::too_many_arguments,
    reason = "BLAS-style kernel: dims + operands"
)]
#[inline]
pub(crate) fn lane_a_bt_bias_with<K>(
    block_kernel: K,
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
    mut relu_masks: Option<&mut [bool]>,
) where
    K: Fn(&[f32], &[f32], usize, usize, usize, &mut [f32], Option<&[f32]>, bool),
{
    assert_eq!(a.len(), if a_shared { m * k } else { lanes * m * k });
    assert_eq!(w.len(), lanes * n * k);
    assert_eq!(bias.len(), lanes * n);
    assert_eq!(active.len(), lanes);
    assert_eq!(out.len(), lanes * m * n);
    if let Some(masks) = &relu_masks {
        assert_eq!(masks.len(), lanes * m * n);
    }
    let fuse_relu = relu_masks.is_some();
    for l in 0..lanes {
        if !active[l] {
            continue;
        }
        let a_l = if a_shared {
            a
        } else {
            &a[l * m * k..(l + 1) * m * k]
        };
        let w_l = &w[l * n * k..(l + 1) * n * k];
        let bias_l = &bias[l * n..(l + 1) * n];
        let out_l = &mut out[l * m * n..(l + 1) * m * n];
        block_kernel(a_l, w_l, m, k, n, out_l, Some(bias_l), fuse_relu);
        if let Some(masks) = relu_masks.as_deref_mut() {
            let mask_l = &mut masks[l * m * n..(l + 1) * m * n];
            for (mk, &v) in mask_l.iter_mut().zip(out_l.iter()) {
                *mk = v > 0.0;
            }
        }
    }
}

/// Lane-blocked fused forward for `lanes` parameter lanes over one input:
/// `out[l] = a_l · W_lᵀ + bias_l` (optionally ReLU-clamped), where `W_l`,
/// `bias_l` and `out[l]` are the `l`-th slices of the lane-contiguous
/// buffers and `a_l` is either the shared input (`a_shared`, one `m×k`
/// buffer every lane reads — the multi-coalition engine's layer-0 case,
/// where every coalition model consumes the same gathered mini-batch) or
/// lane `l`'s own `m×k` slice of `a`.
///
/// The nest is lane-outer — each lane's weights are transposed once and
/// stay resident across its rows while the shared input is served from
/// cache — and each lane is handed to the same block kernel as the solo
/// path, so every lane's arithmetic is bit-identical to a solo
/// [`matmul_a_bt_bias`] call.
///
/// `relu_masks`, when provided, must hold `lanes·m·n` slots; the positive
/// mask of each active lane's output is written in place (the backward
/// gate, as in [`matmul_a_bt_bias`]). Inactive lanes (per `active`) are
/// skipped entirely: their outputs and masks are left untouched.
#[allow(
    clippy::too_many_arguments,
    reason = "BLAS-style kernel: dims + operands"
)]
pub fn lane_matmul_a_bt_bias(
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
    lane_a_bt_bias_with(
        a_bt_block, a, a_shared, w, bias, lanes, active, m, k, n, out, relu_masks,
    );
}

/// Lane-blocked gradient accumulation for `lanes` parameter lanes:
/// `grad_w[l] += grad_out_lᵀ · input_l` and `grad_b[l] += Σ_rows
/// grad_out_l`, fused into one traversal of the upstream gradient.
///
/// `input` is either shared across lanes (`input_shared`; the engine's
/// layer-0 case — the gathered mini-batch feeds every lane's
/// accumulation) or lane-contiguous. Per lane, rows are visited in
/// ascending order and the shared-dimension products are added in
/// ascending order, exactly as [`matmul_at_b_accum`] followed by the
/// row-sum bias loop — so each lane's gradients are bit-identical to the
/// solo pair of passes. Inactive lanes are left untouched.
#[allow(
    clippy::too_many_arguments,
    reason = "BLAS-style kernel: dims + operands"
)]
pub fn lane_matmul_at_b_accum(
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
    assert_eq!(grad_out.len(), lanes * m * k);
    assert_eq!(
        input.len(),
        if input_shared { m * n } else { lanes * m * n }
    );
    assert_eq!(active.len(), lanes);
    assert_eq!(grad_w.len(), lanes * k * n);
    assert_eq!(grad_b.len(), lanes * k);
    lane_at_b_kernel(
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

isa_dispatched! { lane_at_b_kernel(
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
    /// Gradient entries compacted per pass (indices fit a `u8`).
    const CHUNK: usize = 64;
    for l in 0..lanes {
        if !active[l] {
            continue;
        }
        let gw = &mut grad_w[l * k * n..(l + 1) * k * n];
        let gb = &mut grad_b[l * k..(l + 1) * k];
        for i in 0..m {
            let g_row = &grad_out[(l * m + i) * k..(l * m + i + 1) * k];
            let in_row = if input_shared {
                &input[i * n..(i + 1) * n]
            } else {
                &input[(l * m + i) * n..(l * m + i + 1) * n]
            };
            // ReLU-gated rows hold zeros in no pattern (fl_cold_mlp's hidden
            // layer: 36 % zeros, 45 % of neighbouring entries differ), which
            // a `gv != 0.0` branch mispredicts: list the nonzero indices
            // without one, then run the same axpys in the same ascending
            // order (A/B against the branch: ARCHITECTURE.md).
            for (c, chunk) in g_row.chunks(CHUNK).enumerate() {
                let mut nonzero = [0u8; CHUNK];
                let mut len = 0;
                for (p, &gv) in chunk.iter().enumerate() {
                    nonzero[len] = p as u8;
                    len += usize::from(gv != 0.0);
                }
                for &p in &nonzero[..len] {
                    let p = c * CHUNK + usize::from(p);
                    axpy(g_row[p], in_row, &mut gw[p * n..(p + 1) * n]);
                }
            }
            for (g, &d) in gb.iter_mut().zip(g_row) {
                *g += d;
            }
        }
    }
}}

/// `out[k×n] += aᵀ · b` where `a` is `m×k` and `b` is `m×n` (row-major).
/// Accumulates into `out` (gradient accumulation).
pub fn matmul_at_b_accum(a: &[f32], b: &[f32], m: usize, k: usize, n: usize, out: &mut [f32]) {
    assert_eq!(a.len(), m * k);
    assert_eq!(b.len(), m * n);
    assert_eq!(out.len(), k * n);
    for i in 0..m {
        let a_row = &a[i * k..(i + 1) * k];
        let b_row = &b[i * n..(i + 1) * n];
        for (p, &av) in a_row.iter().enumerate() {
            if av == 0.0 {
                continue;
            }
            axpy(av, b_row, &mut out[p * n..(p + 1) * n]);
        }
    }
}

/// Dot product.
#[inline]
pub fn dot(a: &[f32], b: &[f32]) -> f32 {
    debug_assert_eq!(a.len(), b.len());
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

/// `y ← y + alpha·x`.
#[inline(always)] // the kernels' inner loop, in each ISA copy
pub fn axpy(alpha: f32, x: &[f32], y: &mut [f32]) {
    debug_assert_eq!(x.len(), y.len());
    for (yi, &xi) in y.iter_mut().zip(x) {
        *yi += alpha * xi;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matmul_identity() {
        // 2×2 identity times arbitrary.
        let i2 = [1.0, 0.0, 0.0, 1.0];
        let a = [1.0, 2.0, 3.0, 4.0];
        let mut out = [0.0; 4];
        matmul(&i2, &a, 2, 2, 2, &mut out);
        assert_eq!(out, a);
    }

    #[test]
    fn matmul_known_product() {
        // [1 2; 3 4] · [5 6; 7 8] = [19 22; 43 50]
        let a = [1.0, 2.0, 3.0, 4.0];
        let b = [5.0, 6.0, 7.0, 8.0];
        let mut out = [0.0; 4];
        matmul(&a, &b, 2, 2, 2, &mut out);
        assert_eq!(out, [19.0, 22.0, 43.0, 50.0]);
    }

    #[test]
    fn matmul_rectangular() {
        // (1×3)·(3×2)
        let a = [1.0, 2.0, 3.0];
        let b = [1.0, 4.0, 2.0, 5.0, 3.0, 6.0];
        let mut out = [0.0; 2];
        matmul(&a, &b, 1, 3, 2, &mut out);
        assert_eq!(out, [14.0, 32.0]);
    }

    #[test]
    fn a_bt_matches_explicit_transpose() {
        // a: 2×3, b: 2×3 → a·bᵀ : 2×2.
        let a = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0];
        let b = [1.0, 0.0, 1.0, 0.0, 1.0, 0.0];
        let mut out = [0.0; 4];
        matmul_a_bt(&a, &b, 2, 3, 2, &mut out);
        assert_eq!(out, [4.0, 2.0, 10.0, 5.0]);
    }

    #[test]
    fn at_b_accumulates() {
        // a: 2×2, b: 2×2; out starts at ones.
        let a = [1.0, 2.0, 3.0, 4.0];
        let b = [1.0, 1.0, 1.0, 1.0];
        let mut out = [1.0; 4];
        matmul_at_b_accum(&a, &b, 2, 2, 2, &mut out);
        // aᵀ·b = [[4,4],[6,6]]; plus ones.
        assert_eq!(out, [5.0, 5.0, 7.0, 7.0]);
        // No rows: nothing accumulates.
        matmul_at_b_accum(&[], &[], 0, 2, 2, &mut out);
        assert_eq!(out, [5.0, 5.0, 7.0, 7.0]);
    }

    /// Reference implementations the blocked kernels must match
    /// bit-for-bit.
    fn naive_matmul(a: &[f32], b: &[f32], m: usize, k: usize, n: usize) -> Vec<f32> {
        let mut out = vec![0.0f32; m * n];
        for i in 0..m {
            for p in 0..k {
                let av = a[i * k + p];
                if av == 0.0 {
                    continue;
                }
                for j in 0..n {
                    out[i * n + j] += av * b[p * n + j];
                }
            }
        }
        out
    }

    fn naive_a_bt(a: &[f32], b: &[f32], m: usize, k: usize, n: usize) -> Vec<f32> {
        let mut out = vec![0.0f32; m * n];
        for i in 0..m {
            for j in 0..n {
                out[i * n + j] = dot(&a[i * k..(i + 1) * k], &b[j * k..(j + 1) * k]);
            }
        }
        out
    }

    fn pseudo(seed: u32, len: usize) -> Vec<f32> {
        let mut x = seed;
        (0..len)
            .map(|_| {
                x = x.wrapping_mul(1664525).wrapping_add(1013904223);
                (x >> 8) as f32 / (1u32 << 24) as f32 - 0.5
            })
            .collect()
    }

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// The copies of a dispatched kernel this host can run: the SSE2
    /// (baseline) copy, called directly, and the AVX2 copy, reached through
    /// the dispatching function — skipped, with a note, without AVX2.
    fn copies() -> Vec<&'static str> {
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("avx2") {
            return vec!["sse2", "avx2"];
        }
        eprintln!("skip: this CPU has no AVX2; only the SSE2 copy is checked");
        vec!["sse2"]
    }

    /// Exact zeros (ReLU'd activations, blank pixels) and `−0.0` planted
    /// every few entries: the zero skips must treat both alike.
    fn with_zeros(mut v: Vec<f32>) -> Vec<f32> {
        for (i, x) in v.iter_mut().enumerate() {
            match i % 7 {
                2 => *x = 0.0,
                5 => *x = -0.0,
                _ => {}
            }
        }
        v
    }

    /// Shapes with every 4-row remainder (`m` ∈ {1, 2, 3, 4, 5, 7, 16}),
    /// `k` straddling the `KC` panel, odd column counts and degenerate
    /// dimensions.
    const DENSE_SHAPES: [(usize, usize, usize); 14] = [
        (1, 257, 1),
        (2, 200, 9),
        (3, 5, 7),
        (4, 129, 3),
        (5, 64, 32),
        (7, 10, 33),
        (16, 32, 10),
        (16, 130, 64),
        (1, 1, 1),
        (0, 0, 0),
        (2, 0, 3),
        (0, 4, 5),
        (3, 4, 0),
        (4, 3, 0),
    ];

    #[test]
    fn blocked_matmul_is_bit_identical_to_naive() {
        for isa in copies() {
            for (m, k, n) in DENSE_SHAPES {
                let a = with_zeros(pseudo(1, m * k));
                let b = pseudo(2, k * n);
                let mut out = vec![f32::NAN; m * n];
                match isa {
                    "avx2" => matmul(&a, &b, m, k, n, &mut out),
                    _ => matmul_kernel::baseline(&a, &b, m, k, n, &mut out),
                }
                let expect = naive_matmul(&a, &b, m, k, n);
                assert_eq!(bits(&out), bits(&expect), "{isa} m={m} k={k} n={n}");
            }
        }
    }

    /// `out += aᵀ·b` as a plain triple loop, with the kernel's zero skip.
    fn naive_at_b_accum(a: &[f32], b: &[f32], m: usize, k: usize, n: usize, out: &mut [f32]) {
        for i in 0..m {
            for p in 0..k {
                let av = a[i * k + p];
                if av == 0.0 {
                    continue;
                }
                for j in 0..n {
                    out[p * n + j] += av * b[i * n + j];
                }
            }
        }
    }

    #[test]
    fn at_b_accum_is_bit_identical_to_naive() {
        for (m, k, n) in DENSE_SHAPES {
            let a = with_zeros(pseudo(3, m * k));
            let b = pseudo(4, m * n);
            let start = pseudo(5, k * n);
            let mut out = start.clone();
            matmul_at_b_accum(&a, &b, m, k, n, &mut out);
            let mut expect = start;
            naive_at_b_accum(&a, &b, m, k, n, &mut expect);
            assert_eq!(bits(&out), bits(&expect), "m={m} k={k} n={n}");
        }
    }

    #[test]
    fn register_blocked_a_bt_is_bit_identical_to_naive() {
        // Column counts around the 4-wide register block: remainder lanes
        // 0..=3 all exercised; then degenerate dimensions.
        for (m, k, n) in [
            (1, 1, 1),
            (0, 0, 0),
            (0, 3, 0),
            (2, 0, 3),
            (3, 4, 0),
            (2, 6, 1),
            (3, 9, 4),
            (2, 17, 5),
            (5, 33, 6),
            (1, 8, 7),
            (2, 3, 8),
        ] {
            let a = pseudo(3, m * k);
            let b = pseudo(4, n * k);
            let mut out = vec![0.0f32; m * n];
            matmul_a_bt(&a, &b, m, k, n, &mut out);
            assert_eq!(out, naive_a_bt(&a, &b, m, k, n), "m={m} k={k} n={n}");
        }
    }

    #[test]
    fn fused_bias_matches_separate_passes() {
        for (m, k, n) in [(3, 10, 6), (1, 1, 1)] {
            let a = pseudo(5, m * k);
            let b = pseudo(6, n * k);
            let bias = pseudo(7, n);
            let mut reference = naive_a_bt(&a, &b, m, k, n);
            for row in reference.chunks_exact_mut(n) {
                for (o, &bv) in row.iter_mut().zip(&bias) {
                    *o += bv;
                }
            }
            let mut fused = vec![0.0f32; m * n];
            matmul_a_bt_bias(&a, &b, &bias, m, k, n, &mut fused, None);
            assert_eq!(fused, reference, "m={m} k={k} n={n}");
        }
    }

    #[test]
    fn fused_bias_relu_clamps_and_records_mask() {
        let (m, k, n) = (2, 8, 5);
        let a = pseudo(8, m * k);
        let b = pseudo(9, n * k);
        let bias = pseudo(10, n);
        let mut linear = vec![0.0f32; m * n];
        matmul_a_bt_bias(&a, &b, &bias, m, k, n, &mut linear, None);
        let mut fused = vec![0.0f32; m * n];
        let mut mask = Vec::new();
        matmul_a_bt_bias(&a, &b, &bias, m, k, n, &mut fused, Some(&mut mask));
        assert_eq!(mask.len(), m * n);
        for ((&l, &f), &keep) in linear.iter().zip(&fused).zip(&mask) {
            assert_eq!(f, l.max(0.0));
            assert_eq!(keep, l > 0.0);
        }
        // The mask gates exactly the positive outputs.
        assert!(mask.iter().any(|&x| x) && mask.iter().any(|&x| !x));
    }

    /// The row kernel [`a_bt_block`] replaced, verbatim: 4-way register
    /// blocking over output columns, [`dot`] for the `n % 4` tail. Kept as
    /// the bit-for-bit oracle of the transposed tile kernel.
    fn historical_a_bt_row(
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
        let mut j = 0;
        while j + 4 <= n {
            let b0 = &b[j * k..(j + 1) * k];
            let b1 = &b[(j + 1) * k..(j + 2) * k];
            let b2 = &b[(j + 2) * k..(j + 3) * k];
            let b3 = &b[(j + 3) * k..(j + 4) * k];
            let (mut s0, mut s1, mut s2, mut s3) = (0.0f32, 0.0f32, 0.0f32, 0.0f32);
            for (p, &av) in a_row.iter().enumerate() {
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
            let b_row = &b[j * k..(j + 1) * k];
            out_row[j] = finish(dot(a_row, b_row), j);
            j += 1;
        }
    }

    /// Adapts a one-output-row kernel ([`historical_a_bt_row`]) to the
    /// block-kernel signature the drivers take.
    #[allow(clippy::type_complexity, reason = "the drivers' `K` bound, returned")]
    fn by_rows<R>(
        row_kernel: R,
    ) -> impl Fn(&[f32], &[f32], usize, usize, usize, &mut [f32], Option<&[f32]>, bool)
    where
        R: Fn(&[f32], &[f32], usize, usize, &mut [f32], Option<&[f32]>, bool),
    {
        move |a: &[f32], b: &[f32], m, k, n, out: &mut [f32], bias: Option<&[f32]>, relu| {
            for i in 0..m {
                let out_row = &mut out[i * n..(i + 1) * n];
                row_kernel(&a[i * k..(i + 1) * k], b, k, n, out_row, bias, relu);
            }
        }
    }

    /// The block-kernel signature the `a·bᵀ` drivers take.
    type BlockKernel = fn(&[f32], &[f32], usize, usize, usize, &mut [f32], Option<&[f32]>, bool);

    /// [`a_bt_block`] with its sweep run in the baseline copy.
    #[allow(
        clippy::too_many_arguments,
        reason = "the drivers' block-kernel signature"
    )]
    fn a_bt_block_baseline(
        a: &[f32],
        b: &[f32],
        m: usize,
        k: usize,
        n: usize,
        out: &mut [f32],
        bias: Option<&[f32]>,
        relu: bool,
    ) {
        let mut bt = Vec::new();
        let np = transpose_padded(b, n, k, &mut bt);
        a_bt_sweep::baseline(a, &bt, np, m, k, n, out, bias, relu);
    }

    /// The block kernel of copy `isa` (see [`copies`]): the production
    /// [`a_bt_block`] for AVX2 (scratch, transpose and dispatch included),
    /// its baseline twin for SSE2.
    fn block_kernel(isa: &str) -> BlockKernel {
        match isa {
            "avx2" => a_bt_block,
            _ => a_bt_block_baseline,
        }
    }

    #[test]
    fn tile_kernel_is_bit_identical_to_the_historical_row_kernel() {
        // Row tiles (quads in the AVX2 copy, pairs, odd remainder), column
        // tiles of every width, the n % 4 tail alone and after full tiles,
        // reduction lengths from empty to longer than any model's.
        for isa in copies() {
            for m in [1usize, 2, 3, 4, 5, 7, 16] {
                for k in [0usize, 1, 7, 64, 129] {
                    for n in [1usize, 3, 4, 10, 17, 32, 33] {
                        let mut a = pseudo(31 + m as u32, m * k);
                        // Exact zeros (ReLU'd activations, blank pixels): no
                        // zero-skip may be added, ±0.0 products must still sum.
                        for v in a.iter_mut().step_by(5) {
                            *v = 0.0;
                        }
                        let b = pseudo(32 + n as u32, n * k);
                        let mut bias = pseudo(33, n);
                        bias[0] = -0.0;
                        bias[n - 1] = -0.0;
                        for bias in [None, Some(&bias[..])] {
                            for relu in [false, true] {
                                let mut expect = vec![f32::NAN; m * n];
                                by_rows(historical_a_bt_row)(
                                    &a,
                                    &b,
                                    m,
                                    k,
                                    n,
                                    &mut expect,
                                    bias,
                                    relu,
                                );
                                let mut got = vec![f32::NAN; m * n];
                                let mut mask = Vec::new();
                                a_bt_with(
                                    block_kernel(isa),
                                    &a,
                                    &b,
                                    bias,
                                    m,
                                    k,
                                    n,
                                    &mut got,
                                    relu.then_some(&mut mask),
                                );
                                let label = format!(
                                    "{isa} m={m} k={k} n={n} bias={} relu={relu}",
                                    bias.is_some()
                                );
                                assert_eq!(bits(&got), bits(&expect), "{label}");
                                if relu {
                                    let expect_mask: Vec<bool> =
                                        expect.iter().map(|&v| v > 0.0).collect();
                                    assert_eq!(mask, expect_mask, "{label}");
                                }
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn tile_kernel_keeps_the_sign_of_an_all_negative_zero_sum() {
        // a ≡ +0.0 against negative weights: every product is −0.0. The
        // 4-way blocks started from +0.0 (sum +0.0), the tail from `dot`'s
        // empty sum — whatever sign that has, the tile kernel must agree,
        // with and without a −0.0 bias.
        for (isa, m) in copies().into_iter().flat_map(|isa| [(isa, 2), (isa, 5)]) {
            for (k, n) in [(3usize, 4usize), (3, 6), (5, 3), (2, 21)] {
                let a = vec![0.0f32; m * k];
                let b: Vec<f32> = pseudo(41, n * k).iter().map(|v| -v.abs() - 0.1).collect();
                let neg_zero = vec![-0.0f32; n];
                for bias in [None, Some(&neg_zero[..])] {
                    let mut expect = vec![f32::NAN; m * n];
                    by_rows(historical_a_bt_row)(&a, &b, m, k, n, &mut expect, bias, false);
                    let mut got = vec![f32::NAN; m * n];
                    block_kernel(isa)(&a, &b, m, k, n, &mut got, bias, false);
                    assert_eq!(bits(&got), bits(&expect), "{isa} m={m} k={k} n={n}");
                }
            }
        }
    }

    #[test]
    fn lane_tile_kernel_is_bit_identical_to_the_historical_row_kernel() {
        // Shared and per-lane `a`, ReLU masks, inactive lanes untouched.
        let lanes = 3usize;
        let active = [true, false, true];
        for (isa, (m, k, n)) in copies().into_iter().flat_map(|isa| {
            [
                (1usize, 7usize, 10usize),
                (3, 64, 33),
                (4, 64, 32),
                (5, 32, 10),
                (7, 9, 12),
                (16, 129, 17),
                (2, 1, 3),
                (1, 1, 1),
            ]
            .map(|shape| (isa, shape))
        }) {
            let w = pseudo(51, lanes * n * k);
            let bias = pseudo(52, lanes * n);
            for a_shared in [true, false] {
                let mut a = pseudo(53, if a_shared { m * k } else { lanes * m * k });
                a[0] = 0.0;
                for relu in [false, true] {
                    let mut expect = vec![f32::NAN; lanes * m * n];
                    let mut expect_masks = vec![false; lanes * m * n];
                    lane_a_bt_bias_with(
                        by_rows(historical_a_bt_row),
                        &a,
                        a_shared,
                        &w,
                        &bias,
                        lanes,
                        &active,
                        m,
                        k,
                        n,
                        &mut expect,
                        relu.then_some(&mut expect_masks[..]),
                    );
                    let mut got = vec![f32::NAN; lanes * m * n];
                    let mut masks = vec![false; lanes * m * n];
                    let got_masks = relu.then_some(&mut masks[..]);
                    match isa {
                        "avx2" => lane_matmul_a_bt_bias(
                            &a, a_shared, &w, &bias, lanes, &active, m, k, n, &mut got, got_masks,
                        ),
                        _ => lane_a_bt_bias_with(
                            a_bt_block_baseline,
                            &a,
                            a_shared,
                            &w,
                            &bias,
                            lanes,
                            &active,
                            m,
                            k,
                            n,
                            &mut got,
                            got_masks,
                        ),
                    }
                    let label = format!("{isa} m={m} k={k} n={n} shared={a_shared} relu={relu}");
                    assert_eq!(bits(&got), bits(&expect), "{label}");
                    assert_eq!(masks, expect_masks, "{label}");
                    // NaN bits survive in the inactive lane on both sides.
                    assert!(got[m * n..2 * m * n].iter().all(|v| v.is_nan()), "{label}");
                }
            }
        }
    }

    #[test]
    fn lane_forward_matches_solo_kernel_per_lane() {
        // Shared and per-lane inputs, with and without ReLU, odd dims;
        // zeros planted in the input to exercise the sparsity paths.
        let (lanes, m, k, n) = (3usize, 4usize, 13usize, 6usize);
        let w = pseudo(11, lanes * n * k);
        let bias = pseudo(12, lanes * n);
        let mut shared_a = pseudo(13, m * k);
        shared_a[3] = 0.0;
        shared_a[17] = 0.0;
        let mut lane_a = pseudo(14, lanes * m * k);
        lane_a[5] = 0.0;
        for (a, a_shared) in [(&shared_a, true), (&lane_a, false)] {
            for relu in [false, true] {
                let active = vec![true, false, true];
                let mut out = vec![f32::NAN; lanes * m * n];
                let mut masks = vec![false; lanes * m * n];
                lane_matmul_a_bt_bias(
                    a,
                    a_shared,
                    &w,
                    &bias,
                    lanes,
                    &active,
                    m,
                    k,
                    n,
                    &mut out,
                    if relu { Some(&mut masks) } else { None },
                );
                for l in 0..lanes {
                    if !active[l] {
                        // Inactive lanes untouched.
                        assert!(out[l * m * n..(l + 1) * m * n].iter().all(|v| v.is_nan()));
                        continue;
                    }
                    let a_l = if a_shared {
                        &a[..]
                    } else {
                        &a[l * m * k..(l + 1) * m * k]
                    };
                    let mut expect = vec![0.0f32; m * n];
                    let mut expect_mask = Vec::new();
                    matmul_a_bt_bias(
                        a_l,
                        &w[l * n * k..(l + 1) * n * k],
                        &bias[l * n..(l + 1) * n],
                        m,
                        k,
                        n,
                        &mut expect,
                        if relu { Some(&mut expect_mask) } else { None },
                    );
                    assert_eq!(&out[l * m * n..(l + 1) * m * n], &expect[..]);
                    if relu {
                        assert_eq!(&masks[l * m * n..(l + 1) * m * n], &expect_mask[..]);
                    }
                }
            }
        }
    }

    #[test]
    fn lane_grad_accum_matches_solo_kernel_per_lane() {
        let (lanes, m, k, n) = (4usize, 5usize, 7usize, 9usize);
        let mut grad_out = pseudo(21, lanes * m * k);
        grad_out[4] = 0.0;
        let mut shared_in = pseudo(22, m * n);
        shared_in[7] = 0.0;
        let lane_in = pseudo(23, lanes * m * n);
        for (input, shared) in [(&shared_in, true), (&lane_in, false)] {
            let active = vec![true, true, false, true];
            let mut gw = pseudo(24, lanes * k * n);
            let mut gb = pseudo(25, lanes * k);
            let gw0 = gw.clone();
            let gb0 = gb.clone();
            lane_matmul_at_b_accum(
                &grad_out, input, shared, lanes, &active, m, k, n, &mut gw, &mut gb,
            );
            for l in 0..lanes {
                if !active[l] {
                    assert_eq!(
                        gw[l * k * n..(l + 1) * k * n],
                        gw0[l * k * n..(l + 1) * k * n]
                    );
                    assert_eq!(gb[l * k..(l + 1) * k], gb0[l * k..(l + 1) * k]);
                    continue;
                }
                let in_l = if shared {
                    &input[..]
                } else {
                    &input[l * m * n..(l + 1) * m * n]
                };
                let mut expect_w = gw0[l * k * n..(l + 1) * k * n].to_vec();
                matmul_at_b_accum(
                    &grad_out[l * m * k..(l + 1) * m * k],
                    in_l,
                    m,
                    k,
                    n,
                    &mut expect_w,
                );
                assert_eq!(&gw[l * k * n..(l + 1) * k * n], &expect_w[..]);
                let mut expect_b = gb0[l * k..(l + 1) * k].to_vec();
                for row in grad_out[l * m * k..(l + 1) * m * k].chunks_exact(k) {
                    for (g, &d) in expect_b.iter_mut().zip(row) {
                        *g += d;
                    }
                }
                assert_eq!(&gb[l * k..(l + 1) * k], &expect_b[..]);
            }
        }
    }

    /// The branchy loop [`lane_matmul_at_b_accum`] replaced, verbatim
    /// (shape checks aside): the oracle of its nonzero-index compaction.
    #[allow(clippy::too_many_arguments, reason = "the kernel's own parameter list")]
    fn historical_lane_at_b_accum(
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
        for l in 0..lanes {
            if !active[l] {
                continue;
            }
            let gw = &mut grad_w[l * k * n..(l + 1) * k * n];
            let gb = &mut grad_b[l * k..(l + 1) * k];
            for i in 0..m {
                let g_row = &grad_out[(l * m + i) * k..(l * m + i + 1) * k];
                let in_row = if input_shared {
                    &input[i * n..(i + 1) * n]
                } else {
                    &input[(l * m + i) * n..(l * m + i + 1) * n]
                };
                for (p, &gv) in g_row.iter().enumerate() {
                    if gv != 0.0 {
                        axpy(gv, in_row, &mut gw[p * n..(p + 1) * n]);
                    }
                }
                for (g, &d) in gb.iter_mut().zip(g_row) {
                    *g += d;
                }
            }
        }
    }

    #[test]
    fn compacted_lane_grad_accum_is_bit_identical_to_the_branchy_loop() {
        // `k` below, at and across the 64-entry compaction chunk; exact and
        // negative zeros, all-zero rows (lane 0 row 1, all of lane 3), a
        // subnormal, and an inactive lane whose NaN buffers must come back
        // untouched.
        let lanes = 4usize;
        let active = [true, true, false, true];
        for isa in copies() {
            for (m, k, n) in [
                (5usize, 10usize, 32usize),
                (3, 64, 9),
                (2, 70, 5),
                (1, 1, 1),
            ] {
                let mut grad_out = with_zeros(pseudo(61, lanes * m * k));
                if m > 1 {
                    grad_out[k..2 * k].fill(0.0);
                }
                grad_out[3 * m * k..].iter_mut().for_each(|g| *g = -0.0);
                // Nonzeros a magnitude test would drop: a negative subnormal.
                grad_out[m * k] = -f32::MIN_POSITIVE / 2.0;
                let shared_in = with_zeros(pseudo(62, m * n));
                let lane_in = pseudo(63, lanes * m * n);
                for (input, shared) in [(&shared_in, true), (&lane_in, false)] {
                    let mut gw0 = pseudo(64, lanes * k * n);
                    let mut gb0 = pseudo(65, lanes * k);
                    // Lane 1 starts from zeroed gradients, as training
                    // does, so no skipped product can hide in a sum.
                    gw0[k * n..2 * k * n].fill(0.0);
                    gw0[2 * k * n..3 * k * n].fill(f32::NAN);
                    gb0[2 * k..3 * k].fill(f32::NAN);
                    let (mut gw, mut gb) = (gw0.clone(), gb0.clone());
                    match isa {
                        "avx2" => lane_matmul_at_b_accum(
                            &grad_out, input, shared, lanes, &active, m, k, n, &mut gw, &mut gb,
                        ),
                        _ => lane_at_b_kernel::baseline(
                            &grad_out, input, shared, lanes, &active, m, k, n, &mut gw, &mut gb,
                        ),
                    }
                    let (mut expect_w, mut expect_b) = (gw0, gb0);
                    historical_lane_at_b_accum(
                        &grad_out,
                        input,
                        shared,
                        lanes,
                        &active,
                        m,
                        k,
                        n,
                        &mut expect_w,
                        &mut expect_b,
                    );
                    let label = format!("{isa} m={m} k={k} n={n} shared={shared}");
                    assert_eq!(bits(&gw), bits(&expect_w), "{label}");
                    assert_eq!(bits(&gb), bits(&expect_b), "{label}");
                }
            }
        }
    }

    #[test]
    fn vector_helpers() {
        assert_eq!(dot(&[1.0, 2.0], &[3.0, 4.0]), 11.0);
        let mut y = vec![1.0, 1.0];
        axpy(2.0, &[1.0, 3.0], &mut y);
        assert_eq!(y, vec![3.0, 7.0]);
        // Empty operands.
        assert_eq!(dot(&[], &[]), 0.0);
        axpy(1.0, &[], &mut []);
    }
}
