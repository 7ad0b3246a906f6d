//! Neural-network layers with manual backpropagation.
//!
//! Each layer owns its parameters and gradient accumulators, caches
//! whatever the backward pass needs, and serialises its parameters into a
//! flat `f32` stream — the representation FedAvg aggregates and the
//! gradient-based valuation baselines (OR, λ-MR, GTG-Shapley) reconstruct
//! models from.

use rand::Rng;

use crate::lanes::{LaneLayer, MultiDense, MultiDenseRelu, MultiRelu, PerLane};
use crate::linalg::{for_each_tile, matmul, matmul_a_bt_bias, matmul_at_b_accum, transpose_padded};

/// A differentiable layer processing batches of flattened samples.
pub trait Layer: Send {
    /// Per-sample input length.
    fn in_len(&self) -> usize;
    /// Per-sample output length.
    fn out_len(&self) -> usize;

    /// Forward pass on a batch (`input.len() == batch · in_len()`).
    /// Implementations cache activations needed by [`Layer::backward`].
    fn forward(&mut self, input: &[f32], batch: usize) -> Vec<f32>;

    /// Backward pass: receives `∂L/∂output`, accumulates parameter
    /// gradients and returns `∂L/∂input`. Must be preceded by a matching
    /// [`Layer::forward`] call.
    fn backward(&mut self, grad_out: &[f32], batch: usize) -> Vec<f32>;

    /// [`Layer::backward`] for a layer whose input gradient has no
    /// consumer (a network's first layer): accumulates exactly the same
    /// parameter gradients. Layers whose `∂L/∂input` is costly override
    /// this to skip computing it.
    fn backward_params_only(&mut self, grad_out: &[f32], batch: usize) {
        let _ = self.backward(grad_out, batch);
    }

    /// Reset gradient accumulators.
    fn zero_grads(&mut self) {}

    /// Plain SGD update: `θ ← θ − lr · ∂L/∂θ`.
    fn sgd_step(&mut self, _lr: f32) {}

    /// Number of scalar parameters.
    fn param_count(&self) -> usize {
        0
    }

    /// Append the parameters to `out` in a stable order.
    fn write_params(&self, _out: &mut Vec<f32>) {}

    /// Read parameters back from the front of `src`, advancing it.
    fn read_params(&mut self, _src: &mut &[f32]) {}

    /// Replicate this layer's parameters into a multi-lane counterpart
    /// holding `lanes` parameter lanes — the building block of
    /// [`crate::lanes::MultiNetwork`]. Dense-family layers return
    /// lane-blocked implementations; others fall back to a per-lane loop
    /// over clones of the solo layer (bit-identical either way).
    fn to_multi(&self, lanes: usize) -> Box<dyn LaneLayer>;
}

/// Per-lane fallback for layers without a dedicated lane-blocked kernel:
/// `lanes` clones of the solo layer, looped by [`PerLane`].
fn per_lane_fallback<L: Layer + Clone + 'static>(layer: &L, lanes: usize) -> Box<dyn LaneLayer> {
    Box::new(PerLane::new(
        (0..lanes)
            .map(|_| Box::new(layer.clone()) as Box<dyn Layer>)
            .collect(),
    ))
}

/// Kaiming-uniform initialisation bound for a layer with `fan_in` inputs.
fn init_bound(fan_in: usize) -> f32 {
    (1.0 / fan_in as f32).sqrt()
}

/// Fully connected layer: `y = x·Wᵀ + b` with `W: out×in` (row-major).
#[derive(Clone)]
pub struct Dense {
    in_len: usize,
    out_len: usize,
    pub w: Vec<f32>,
    pub b: Vec<f32>,
    grad_w: Vec<f32>,
    grad_b: Vec<f32>,
    cached_input: Vec<f32>,
}

impl Dense {
    pub fn new(in_len: usize, out_len: usize, rng: &mut impl Rng) -> Self {
        assert!(in_len > 0 && out_len > 0);
        let bound = init_bound(in_len);
        let w = (0..in_len * out_len)
            .map(|_| rng.random_range(-bound..bound))
            .collect();
        let b = vec![0.0; out_len];
        Dense {
            in_len,
            out_len,
            w,
            b,
            grad_w: vec![0.0; in_len * out_len],
            grad_b: vec![0.0; out_len],
            cached_input: Vec::new(),
        }
    }
}

impl Layer for Dense {
    fn in_len(&self) -> usize {
        self.in_len
    }
    fn out_len(&self) -> usize {
        self.out_len
    }

    fn forward(&mut self, input: &[f32], batch: usize) -> Vec<f32> {
        assert_eq!(input.len(), batch * self.in_len);
        self.cached_input.clear();
        self.cached_input.extend_from_slice(input);
        let mut out = vec![0.0; batch * self.out_len];
        // out = input(batch×in) · Wᵀ(in×out) + b, bias fused into the
        // kernel's write-back instead of a second pass over `out`.
        matmul_a_bt_bias(
            input,
            &self.w,
            &self.b,
            batch,
            self.in_len,
            self.out_len,
            &mut out,
            None,
        );
        out
    }

    fn backward(&mut self, grad_out: &[f32], batch: usize) -> Vec<f32> {
        assert_eq!(grad_out.len(), batch * self.out_len);
        assert_eq!(self.cached_input.len(), batch * self.in_len);
        // grad_w(out×in) += grad_outᵀ(out×batch) · input(batch×in)
        matmul_at_b_accum(
            grad_out,
            &self.cached_input,
            batch,
            self.out_len,
            self.in_len,
            &mut self.grad_w,
        );
        for row in grad_out.chunks_exact(self.out_len) {
            for (g, &d) in self.grad_b.iter_mut().zip(row) {
                *g += d;
            }
        }
        // grad_in(batch×in) = grad_out(batch×out) · W(out×in)
        let mut grad_in = vec![0.0; batch * self.in_len];
        matmul(
            grad_out,
            &self.w,
            batch,
            self.out_len,
            self.in_len,
            &mut grad_in,
        );
        grad_in
    }

    fn zero_grads(&mut self) {
        self.grad_w.fill(0.0);
        self.grad_b.fill(0.0);
    }

    fn sgd_step(&mut self, lr: f32) {
        for (p, g) in self.w.iter_mut().zip(&self.grad_w) {
            *p -= lr * g;
        }
        for (p, g) in self.b.iter_mut().zip(&self.grad_b) {
            *p -= lr * g;
        }
    }

    fn param_count(&self) -> usize {
        self.w.len() + self.b.len()
    }

    fn write_params(&self, out: &mut Vec<f32>) {
        out.extend_from_slice(&self.w);
        out.extend_from_slice(&self.b);
    }

    fn read_params(&mut self, src: &mut &[f32]) {
        let (w, rest) = src.split_at(self.w.len());
        let (b, rest) = rest.split_at(self.b.len());
        self.w.copy_from_slice(w);
        self.b.copy_from_slice(b);
        *src = rest;
    }

    fn to_multi(&self, lanes: usize) -> Box<dyn LaneLayer> {
        Box::new(MultiDense::replicate(
            self.in_len,
            self.out_len,
            &self.w,
            &self.b,
            lanes,
        ))
    }
}

/// Fused `ReLU(x·Wᵀ + b)` layer: the matmul kernel applies bias and ReLU
/// in its accumulator write-back and records the activation mask in the
/// same pass, so the hidden-layer forward touches the output exactly once
/// (a plain `Dense` + `Relu` pair traverses it three times and allocates
/// an intermediate activation buffer per step).
///
/// Bit-identical to `Dense` followed by `Relu`: parameters, their flat
/// serialisation order (FedAvg's aggregation unit) and all forward/backward
/// values are unchanged — only the traversals are fused.
pub struct DenseRelu {
    dense: Dense,
    mask: Vec<bool>,
}

impl DenseRelu {
    pub fn new(in_len: usize, out_len: usize, rng: &mut impl Rng) -> Self {
        DenseRelu {
            dense: Dense::new(in_len, out_len, rng),
            mask: Vec::new(),
        }
    }
}

impl Layer for DenseRelu {
    fn in_len(&self) -> usize {
        self.dense.in_len
    }
    fn out_len(&self) -> usize {
        self.dense.out_len
    }

    fn forward(&mut self, input: &[f32], batch: usize) -> Vec<f32> {
        let d = &mut self.dense;
        assert_eq!(input.len(), batch * d.in_len);
        d.cached_input.clear();
        d.cached_input.extend_from_slice(input);
        self.mask.clear();
        let mut out = vec![0.0; batch * d.out_len];
        matmul_a_bt_bias(
            input,
            &d.w,
            &d.b,
            batch,
            d.in_len,
            d.out_len,
            &mut out,
            Some(&mut self.mask),
        );
        out
    }

    fn backward(&mut self, grad_out: &[f32], batch: usize) -> Vec<f32> {
        assert_eq!(grad_out.len(), batch * self.dense.out_len);
        // Gate the incoming gradient through the recorded ReLU mask, then
        // run the dense backward on the gated signal — exactly what the
        // separate Relu → Dense backward pair computes.
        let gated: Vec<f32> = grad_out
            .iter()
            .zip(&self.mask)
            .map(|(&g, &keep)| if keep { g } else { 0.0 })
            .collect();
        self.dense.backward(&gated, batch)
    }

    fn zero_grads(&mut self) {
        self.dense.zero_grads();
    }

    fn sgd_step(&mut self, lr: f32) {
        self.dense.sgd_step(lr);
    }

    fn param_count(&self) -> usize {
        self.dense.param_count()
    }

    fn write_params(&self, out: &mut Vec<f32>) {
        self.dense.write_params(out);
    }

    fn read_params(&mut self, src: &mut &[f32]) {
        self.dense.read_params(src);
    }

    fn to_multi(&self, lanes: usize) -> Box<dyn LaneLayer> {
        Box::new(MultiDenseRelu::replicate(
            self.dense.in_len,
            self.dense.out_len,
            &self.dense.w,
            &self.dense.b,
            lanes,
        ))
    }
}

/// Element-wise rectified linear unit.
#[derive(Clone)]
pub struct Relu {
    len: usize,
    mask: Vec<bool>,
}

impl Relu {
    pub fn new(len: usize) -> Self {
        Relu {
            len,
            mask: Vec::new(),
        }
    }
}

impl Layer for Relu {
    fn in_len(&self) -> usize {
        self.len
    }
    fn out_len(&self) -> usize {
        self.len
    }

    fn forward(&mut self, input: &[f32], batch: usize) -> Vec<f32> {
        assert_eq!(input.len(), batch * self.len);
        self.mask.clear();
        self.mask.resize(input.len(), false);
        let mut out = vec![0.0; input.len()];
        for ((o, m), &v) in out.iter_mut().zip(&mut self.mask).zip(input) {
            let keep = v > 0.0;
            *m = keep;
            *o = if keep { v } else { 0.0 };
        }
        out
    }

    fn backward(&mut self, grad_out: &[f32], batch: usize) -> Vec<f32> {
        assert_eq!(grad_out.len(), batch * self.len);
        grad_out
            .iter()
            .zip(&self.mask)
            .map(|(&g, &keep)| if keep { g } else { 0.0 })
            .collect()
    }

    fn to_multi(&self, lanes: usize) -> Box<dyn LaneLayer> {
        Box::new(MultiRelu::replicate(self.len, lanes))
    }
}

/// 2-D convolution over `(channels, height, width)` feature maps with
/// 3×3-style square kernels, stride 1 and symmetric zero padding.
#[derive(Clone)]
pub struct Conv2d {
    in_ch: usize,
    out_ch: usize,
    h: usize,
    w: usize,
    k: usize,
    pad: usize,
    /// Weights: `out_ch × in_ch × k × k`.
    pub weight: Vec<f32>,
    pub bias: Vec<f32>,
    grad_w: Vec<f32>,
    grad_b: Vec<f32>,
    cached_input: Vec<f32>,
    /// Forward scratch: the weights transposed to `(ic, ky, kx) × oc`.
    wt: Vec<f32>,
}

impl Conv2d {
    /// `pad = (k-1)/2` preserves spatial dimensions for odd `k`.
    pub fn new(
        in_ch: usize,
        out_ch: usize,
        h: usize,
        w: usize,
        k: usize,
        pad: usize,
        rng: &mut impl Rng,
    ) -> Self {
        assert!(k >= 1 && k <= h + 2 * pad && k <= w + 2 * pad);
        let fan_in = in_ch * k * k;
        let bound = init_bound(fan_in);
        let weight = (0..out_ch * fan_in)
            .map(|_| rng.random_range(-bound..bound))
            .collect();
        Conv2d {
            in_ch,
            out_ch,
            h,
            w,
            k,
            pad,
            weight,
            bias: vec![0.0; out_ch],
            grad_w: vec![0.0; out_ch * in_ch * k * k],
            grad_b: vec![0.0; out_ch],
            cached_input: Vec::new(),
            wt: Vec::new(),
        }
    }

    pub fn out_h(&self) -> usize {
        self.h + 2 * self.pad + 1 - self.k
    }

    pub fn out_w(&self) -> usize {
        self.w + 2 * self.pad + 1 - self.k
    }

    #[inline]
    fn widx(&self, oc: usize, ic: usize, ky: usize, kx: usize) -> usize {
        ((oc * self.in_ch + ic) * self.k + ky) * self.k + kx
    }

    /// Both backward entry points: weight/bias gradients always, the
    /// input gradient (returned; empty otherwise) only on request.
    fn backward_impl<const WANT_INPUT_GRAD: bool>(
        &mut self,
        grad_out: &[f32],
        batch: usize,
    ) -> Vec<f32> {
        assert_eq!(grad_out.len(), batch * self.out_len());
        let (oh, ow) = (self.out_h(), self.out_w());
        let dx_len = if WANT_INPUT_GRAD { self.in_len() } else { 0 };
        let mut grad_in = vec![0.0f32; batch * dx_len];
        for s in 0..batch {
            let x = &self.cached_input[s * self.in_len()..(s + 1) * self.in_len()];
            let dy = &grad_out[s * self.out_len()..(s + 1) * self.out_len()];
            let dx = &mut grad_in[s * dx_len..(s + 1) * dx_len];
            for oc in 0..self.out_ch {
                for oy in 0..oh {
                    for ox in 0..ow {
                        let g = dy[(oc * oh + oy) * ow + ox];
                        if g == 0.0 {
                            continue;
                        }
                        self.grad_b[oc] += g;
                        for ic in 0..self.in_ch {
                            for ky in 0..self.k {
                                let iy = oy + ky;
                                if iy < self.pad || iy >= self.h + self.pad {
                                    continue;
                                }
                                let iy = iy - self.pad;
                                for kx in 0..self.k {
                                    let ix = ox + kx;
                                    if ix < self.pad || ix >= self.w + self.pad {
                                        continue;
                                    }
                                    let ix = ix - self.pad;
                                    let xi = (ic * self.h + iy) * self.w + ix;
                                    let wi = self.widx(oc, ic, ky, kx);
                                    self.grad_w[wi] += g * x[xi];
                                    if WANT_INPUT_GRAD {
                                        dx[xi] += g * self.weight[wi];
                                    }
                                }
                            }
                        }
                    }
                }
            }
        }
        grad_in
    }
}

impl Layer for Conv2d {
    fn in_len(&self) -> usize {
        self.in_ch * self.h * self.w
    }
    fn out_len(&self) -> usize {
        self.out_ch * self.out_h() * self.out_w()
    }

    fn forward(&mut self, input: &[f32], batch: usize) -> Vec<f32> {
        assert_eq!(input.len(), batch * self.in_len());
        self.cached_input.clear();
        self.cached_input.extend_from_slice(input);
        let taps = self.in_ch * self.k * self.k;
        let ocp = transpose_padded(&self.weight, self.out_ch, taps, &mut self.wt);
        let mut out = vec![0.0f32; batch * self.out_len()];
        for_each_tile!(j0 in ocp, conv_forward_tile(self, input, ocp, j0, &mut out));
        out
    }

    fn backward(&mut self, grad_out: &[f32], batch: usize) -> Vec<f32> {
        self.backward_impl::<true>(grad_out, batch)
    }

    fn backward_params_only(&mut self, grad_out: &[f32], batch: usize) {
        self.backward_impl::<false>(grad_out, batch);
    }

    fn zero_grads(&mut self) {
        self.grad_w.fill(0.0);
        self.grad_b.fill(0.0);
    }

    fn sgd_step(&mut self, lr: f32) {
        for (p, g) in self.weight.iter_mut().zip(&self.grad_w) {
            *p -= lr * g;
        }
        for (p, g) in self.bias.iter_mut().zip(&self.grad_b) {
            *p -= lr * g;
        }
    }

    fn param_count(&self) -> usize {
        self.weight.len() + self.bias.len()
    }

    fn write_params(&self, out: &mut Vec<f32>) {
        out.extend_from_slice(&self.weight);
        out.extend_from_slice(&self.bias);
    }

    fn read_params(&mut self, src: &mut &[f32]) {
        let (w, rest) = src.split_at(self.weight.len());
        let (b, rest) = rest.split_at(self.bias.len());
        self.weight.copy_from_slice(w);
        self.bias.copy_from_slice(b);
        *src = rest;
    }

    fn to_multi(&self, lanes: usize) -> Box<dyn LaneLayer> {
        per_lane_fallback(self, lanes)
    }
}

/// Output channels `j0..j0+W` of [`Conv2d::forward`] at every position,
/// reading the transposed weights `c.wt` with row stride `ocp` (the padded
/// width [`transpose_padded`] returned).
///
/// The vector dimension is *output channels*: per position the `W`
/// accumulators start at the bias and take `w·x` for exactly the taps that
/// fall inside the image, in ascending `(ic, ky, kx)` — each channel sees
/// the operands of the naive per-element nest in the same order, so the
/// compiler can vectorise without reassociating. Out-of-image taps are
/// skipped, never multiplied by a padded `0.0` (`w·0.0` is not neutral for
/// a `−0.0` accumulator); the ranges saturate because `pad ≥ k` is a legal
/// geometry whose border positions have no tap at all.
fn conv_forward_tile<const W: usize>(
    c: &Conv2d,
    input: &[f32],
    ocp: usize,
    j0: usize,
    out: &mut [f32],
) {
    let (h, w, k, pad) = (c.h, c.w, c.k, c.pad);
    let (oh, ow) = (c.out_h(), c.out_w());
    let bias: [f32; W] = std::array::from_fn(|t| c.bias.get(j0 + t).copied().unwrap_or(0.0));
    for (x, y) in input
        .chunks_exact(c.in_len())
        .zip(out.chunks_exact_mut(c.out_len()))
    {
        for oy in 0..oh {
            // Valid taps: pad ≤ oy + ky < h + pad (same for x).
            let ky = pad.saturating_sub(oy)..(h + pad).saturating_sub(oy).min(k);
            for ox in 0..ow {
                let kx = pad.saturating_sub(ox)..(w + pad).saturating_sub(ox).min(k);
                let mut acc = bias;
                if !kx.is_empty() {
                    for ic in 0..c.in_ch {
                        for ky in ky.clone() {
                            let x0 = (ic * h + oy + ky - pad) * w + ox + kx.start - pad;
                            let t0 = (ic * k + ky) * k + kx.start;
                            let wt = &c.wt[t0 * ocp..(t0 + kx.len()) * ocp];
                            for (&xv, w_row) in
                                x[x0..x0 + kx.len()].iter().zip(wt.chunks_exact(ocp))
                            {
                                for (a, &wv) in acc.iter_mut().zip(&w_row[j0..j0 + W]) {
                                    *a += wv * xv;
                                }
                            }
                        }
                    }
                }
                for (oc, &v) in (j0..c.out_ch).zip(&acc) {
                    y[(oc * oh + oy) * ow + ox] = v;
                }
            }
        }
    }
}

/// 2×2 max pooling with stride 2 over `(channels, height, width)` maps.
/// Odd trailing rows/columns are dropped (floor division), as in common
/// frameworks.
#[derive(Clone)]
pub struct MaxPool2 {
    ch: usize,
    h: usize,
    w: usize,
    argmax: Vec<usize>,
}

impl MaxPool2 {
    pub fn new(ch: usize, h: usize, w: usize) -> Self {
        assert!(h >= 2 && w >= 2);
        MaxPool2 {
            ch,
            h,
            w,
            argmax: Vec::new(),
        }
    }

    pub fn out_h(&self) -> usize {
        self.h / 2
    }

    pub fn out_w(&self) -> usize {
        self.w / 2
    }
}

impl Layer for MaxPool2 {
    fn in_len(&self) -> usize {
        self.ch * self.h * self.w
    }
    fn out_len(&self) -> usize {
        self.ch * self.out_h() * self.out_w()
    }

    fn forward(&mut self, input: &[f32], batch: usize) -> Vec<f32> {
        assert_eq!(input.len(), batch * self.in_len());
        let (oh, ow) = (self.out_h(), self.out_w());
        let mut out = vec![0.0f32; batch * self.out_len()];
        self.argmax.clear();
        self.argmax.resize(out.len(), 0);
        for s in 0..batch {
            let x = &input[s * self.in_len()..(s + 1) * self.in_len()];
            for c in 0..self.ch {
                for oy in 0..oh {
                    for ox in 0..ow {
                        let mut best = f32::NEG_INFINITY;
                        let mut best_idx = 0usize;
                        for dy in 0..2 {
                            for dx in 0..2 {
                                let iy = oy * 2 + dy;
                                let ix = ox * 2 + dx;
                                let idx = (c * self.h + iy) * self.w + ix;
                                if x[idx] > best {
                                    best = x[idx];
                                    best_idx = idx;
                                }
                            }
                        }
                        let o = s * self.out_len() + (c * oh + oy) * ow + ox;
                        out[o] = best;
                        self.argmax[o] = best_idx;
                    }
                }
            }
        }
        out
    }

    fn backward(&mut self, grad_out: &[f32], batch: usize) -> Vec<f32> {
        assert_eq!(grad_out.len(), batch * self.out_len());
        let mut grad_in = vec![0.0f32; batch * self.in_len()];
        for s in 0..batch {
            for o in 0..self.out_len() {
                let flat = s * self.out_len() + o;
                grad_in[s * self.in_len() + self.argmax[flat]] += grad_out[flat];
            }
        }
        grad_in
    }

    fn to_multi(&self, lanes: usize) -> Box<dyn LaneLayer> {
        per_lane_fallback(self, lanes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Finite-difference gradient check for a layer with respect to its
    /// input and parameters under an L = Σ out² / 2 objective.
    fn grad_check<L: Layer>(layer: &mut L, batch: usize, seed: u64, tol: f32) {
        let mut rng = StdRng::seed_from_u64(seed);
        let input: Vec<f32> = (0..batch * layer.in_len())
            .map(|_| rng.random_range(-1.0..1.0f32))
            .collect();
        let loss_of = |l: &mut L, x: &[f32]| -> f32 {
            let out = l.forward(x, batch);
            out.iter().map(|v| v * v).sum::<f32>() / 2.0
        };
        // Analytic input gradient: dL/dout = out.
        let out = layer.forward(&input, batch);
        layer.zero_grads();
        let analytic = layer.backward(&out, batch);
        // Numeric check on a sample of input coordinates.
        let eps = 1e-3;
        for idx in [0, input.len() / 2, input.len() - 1] {
            let mut plus = input.clone();
            plus[idx] += eps;
            let mut minus = input.clone();
            minus[idx] -= eps;
            let numeric = (loss_of(layer, &plus) - loss_of(layer, &minus)) / (2.0 * eps);
            assert!(
                (numeric - analytic[idx]).abs() < tol * (1.0 + numeric.abs()),
                "input grad at {idx}: numeric {numeric} vs analytic {}",
                analytic[idx]
            );
        }
        // Numeric check on a sample of parameter coordinates.
        let n_params = layer.param_count();
        if n_params > 0 {
            // Reset cache, recompute gradients analytically.
            let out = layer.forward(&input, batch);
            layer.zero_grads();
            let _ = layer.backward(&out, batch);
            let mut params = Vec::new();
            layer.write_params(&mut params);
            // Extract analytic parameter grads by probing sgd_step with lr=1:
            // θ' = θ − g ⇒ g = θ − θ'.
            let mut probe_params = params.clone();
            layer.sgd_step(1.0);
            let mut after = Vec::new();
            layer.write_params(&mut after);
            let analytic_pg: Vec<f32> = params.iter().zip(&after).map(|(a, b)| a - b).collect();
            // Restore.
            let mut src = probe_params.as_slice();
            layer.read_params(&mut src);
            for idx in [0, n_params / 2, n_params - 1] {
                let orig = probe_params[idx];
                probe_params[idx] = orig + eps;
                let mut src = probe_params.as_slice();
                layer.read_params(&mut src);
                let lp = loss_of(layer, &input);
                probe_params[idx] = orig - eps;
                let mut src = probe_params.as_slice();
                layer.read_params(&mut src);
                let lm = loss_of(layer, &input);
                probe_params[idx] = orig;
                let mut src = probe_params.as_slice();
                layer.read_params(&mut src);
                let numeric = (lp - lm) / (2.0 * eps);
                assert!(
                    (numeric - analytic_pg[idx]).abs() < tol * (1.0 + numeric.abs()),
                    "param grad at {idx}: numeric {numeric} vs analytic {}",
                    analytic_pg[idx]
                );
            }
        }
    }

    #[test]
    fn dense_forward_known_values() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut d = Dense::new(2, 2, &mut rng);
        d.w = vec![1.0, 2.0, 3.0, 4.0]; // W = [[1,2],[3,4]]
        d.b = vec![0.5, -0.5];
        let out = d.forward(&[1.0, 1.0, 0.0, 2.0], 2);
        // Sample 1: [1,1]: [1+2+0.5, 3+4−0.5] = [3.5, 6.5]
        // Sample 2: [0,2]: [4+0.5, 8−0.5] = [4.5, 7.5]
        assert_eq!(out, vec![3.5, 6.5, 4.5, 7.5]);
    }

    #[test]
    fn dense_gradients() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut d = Dense::new(4, 3, &mut rng);
        grad_check(&mut d, 2, 11, 1e-2);
    }

    #[test]
    fn relu_forward_backward() {
        let mut r = Relu::new(3);
        let out = r.forward(&[-1.0, 0.0, 2.0], 1);
        assert_eq!(out, vec![0.0, 0.0, 2.0]);
        let grad = r.backward(&[1.0, 1.0, 1.0], 1);
        assert_eq!(grad, vec![0.0, 0.0, 1.0]);
    }

    #[test]
    fn conv_preserves_dims_with_padding() {
        let mut rng = StdRng::seed_from_u64(2);
        let c = Conv2d::new(1, 4, 8, 8, 3, 1, &mut rng);
        assert_eq!(c.out_h(), 8);
        assert_eq!(c.out_w(), 8);
        assert_eq!(c.in_len(), 64);
        assert_eq!(c.out_len(), 4 * 64);
    }

    #[test]
    fn conv_known_values_identity_kernel() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut c = Conv2d::new(1, 1, 3, 3, 3, 1, &mut rng);
        // Kernel that picks the centre pixel.
        c.weight = vec![0.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 0.0];
        c.bias = vec![0.0];
        let img = vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0];
        let out = c.forward(&img, 1);
        assert_eq!(out, img);
    }

    #[test]
    fn conv_gradients() {
        let mut rng = StdRng::seed_from_u64(4);
        let mut c = Conv2d::new(2, 3, 4, 4, 3, 1, &mut rng);
        grad_check(&mut c, 2, 13, 2e-2);
    }

    /// The scalar nest [`conv_forward_tile`] replaced, verbatim: one
    /// accumulator per output element, out-of-image taps skipped with
    /// `continue`. Kept as the bit-for-bit oracle of the re-nested forward.
    fn historical_conv_forward(c: &Conv2d, input: &[f32], batch: usize) -> Vec<f32> {
        let (oh, ow) = (c.out_h(), c.out_w());
        let mut out = vec![0.0f32; batch * c.out_len()];
        for s in 0..batch {
            let x = &input[s * c.in_len()..(s + 1) * c.in_len()];
            let y = &mut out[s * c.out_len()..(s + 1) * c.out_len()];
            for oc in 0..c.out_ch {
                for oy in 0..oh {
                    for ox in 0..ow {
                        let mut acc = c.bias[oc];
                        for ic in 0..c.in_ch {
                            for ky in 0..c.k {
                                let iy = oy + ky;
                                if iy < c.pad || iy >= c.h + c.pad {
                                    continue;
                                }
                                let iy = iy - c.pad;
                                for kx in 0..c.k {
                                    let ix = ox + kx;
                                    if ix < c.pad || ix >= c.w + c.pad {
                                        continue;
                                    }
                                    let ix = ix - c.pad;
                                    acc += c.weight[c.widx(oc, ic, ky, kx)]
                                        * x[(ic * c.h + iy) * c.w + ix];
                                }
                            }
                        }
                        y[(oc * oh + oy) * ow + ox] = acc;
                    }
                }
            }
        }
        out
    }

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn conv_forward_is_bit_identical_to_the_historical_nest() {
        // (in_ch, out_ch, h, w, k, pad): the CNN's two layers, odd channel
        // counts, h ≠ w, every padding regime — none, "same", and pad ≥ k,
        // whose border positions have no valid tap — and more channels
        // than one register tile holds.
        let geometries = [
            (1usize, 6usize, 8usize, 8usize, 3usize, 1usize),
            (6, 12, 4, 4, 3, 1),
            (3, 5, 5, 5, 3, 1),
            (2, 4, 3, 6, 3, 1),
            (2, 3, 4, 5, 1, 0),
            (2, 7, 5, 4, 3, 0),
            (1, 2, 6, 5, 5, 2),
            (2, 3, 3, 4, 1, 2),
            (1, 16, 2, 3, 3, 3),
            (2, 21, 3, 3, 3, 1),
        ];
        for (g, &(in_ch, out_ch, h, w, k, pad)) in geometries.iter().enumerate() {
            let mut rng = StdRng::seed_from_u64(40 + g as u64);
            let mut c = Conv2d::new(in_ch, out_ch, h, w, k, pad, &mut rng);
            for b in c.bias.iter_mut() {
                *b = rng.random_range(-0.5..0.5f32);
            }
            c.bias[0] = -0.0;
            for batch in [1usize, 5] {
                let input: Vec<f32> = (0..batch * c.in_len())
                    .map(|i| match i % 4 {
                        // Exact zeros (blank pixels, ReLU'd maps) of both
                        // signs: their ±0.0 products must still be summed.
                        0 => 0.0,
                        1 => -0.0,
                        _ => rng.random_range(-1.0..1.0f32),
                    })
                    .collect();
                let expect = historical_conv_forward(&c, &input, batch);
                let got = c.forward(&input, batch);
                assert_eq!(
                    bits(&got),
                    bits(&expect),
                    "in={in_ch} out={out_ch} {h}x{w} k={k} pad={pad} batch={batch}"
                );
                if pad >= k {
                    // A corner no tap reaches is the bias, exactly.
                    assert_eq!(got[0].to_bits(), c.bias[0].to_bits());
                }
            }
        }
    }

    #[test]
    fn conv_params_only_backward_keeps_the_gradient_bits() {
        let mut rng = StdRng::seed_from_u64(60);
        let mut full = Conv2d::new(2, 5, 4, 5, 3, 1, &mut rng);
        let mut skip = full.clone();
        let batch = 3usize;
        let input: Vec<f32> = (0..batch * full.in_len())
            .map(|_| rng.random_range(-1.0..1.0f32))
            .collect();
        // Sparse upstream gradient, as after pool + ReLU.
        let grad: Vec<f32> = (0..batch * full.out_len())
            .map(|i| {
                if i % 3 == 0 {
                    rng.random_range(-1.0..1.0f32)
                } else {
                    0.0
                }
            })
            .collect();
        full.forward(&input, batch);
        skip.forward(&input, batch);
        let dx = full.backward(&grad, batch);
        skip.backward_params_only(&grad, batch);
        assert!(dx.iter().any(|&v| v != 0.0));
        assert_eq!(bits(&skip.grad_w), bits(&full.grad_w));
        assert_eq!(bits(&skip.grad_b), bits(&full.grad_b));
    }

    #[test]
    fn maxpool_forward_backward() {
        let mut p = MaxPool2::new(1, 4, 4);
        assert_eq!(p.out_len(), 4);
        #[rustfmt::skip]
        let img = vec![
            1.0, 2.0, 0.0, 0.0,
            3.0, 4.0, 0.0, 1.0,
            5.0, 1.0, 2.0, 2.0,
            1.0, 1.0, 3.0, 9.0,
        ];
        let out = p.forward(&img, 1);
        assert_eq!(out, vec![4.0, 1.0, 5.0, 9.0]);
        let grad = p.backward(&[1.0, 1.0, 1.0, 1.0], 1);
        // Gradient routed to argmax positions only.
        let mut expect = vec![0.0; 16];
        expect[5] = 1.0; // 4.0
        expect[7] = 1.0; // 1.0
        expect[8] = 1.0; // 5.0
        expect[15] = 1.0; // 9.0
        assert_eq!(grad, expect);
    }

    #[test]
    fn dense_relu_is_bit_identical_to_dense_then_relu() {
        // Same RNG stream ⇒ same initial parameters as a Dense layer.
        let mut fused = DenseRelu::new(5, 7, &mut StdRng::seed_from_u64(21));
        let mut dense = Dense::new(5, 7, &mut StdRng::seed_from_u64(21));
        let mut relu = Relu::new(7);
        let mut fused_params = Vec::new();
        fused.write_params(&mut fused_params);
        let mut dense_params = Vec::new();
        dense.write_params(&mut dense_params);
        assert_eq!(fused_params, dense_params);

        let mut rng = StdRng::seed_from_u64(22);
        for step in 0..5 {
            let batch = 3usize;
            let input: Vec<f32> = (0..batch * 5)
                .map(|_| rng.random_range(-1.0..1.0f32))
                .collect();
            // Forward passes agree exactly.
            let f_out = fused.forward(&input, batch);
            let d_out = relu.forward(&dense.forward(&input, batch), batch);
            assert_eq!(f_out, d_out, "forward step {step}");
            // Backward passes agree exactly (arbitrary upstream gradient).
            let grad: Vec<f32> = (0..batch * 7)
                .map(|_| rng.random_range(-1.0..1.0f32))
                .collect();
            fused.zero_grads();
            dense.zero_grads();
            let f_gin = fused.backward(&grad, batch);
            let d_gin = dense.backward(&relu.backward(&grad, batch), batch);
            assert_eq!(f_gin, d_gin, "backward step {step}");
            // And so do the SGD updates.
            fused.sgd_step(0.05);
            dense.sgd_step(0.05);
            let mut fp = Vec::new();
            fused.write_params(&mut fp);
            let mut dp = Vec::new();
            dense.write_params(&mut dp);
            assert_eq!(fp, dp, "params step {step}");
        }
    }

    #[test]
    fn param_round_trip() {
        let mut rng = StdRng::seed_from_u64(5);
        let mut d = Dense::new(3, 2, &mut rng);
        let mut params = Vec::new();
        d.write_params(&mut params);
        assert_eq!(params.len(), d.param_count());
        let zeros = vec![0.0f32; params.len()];
        let mut src = zeros.as_slice();
        d.read_params(&mut src);
        assert!(src.is_empty());
        let mut after = Vec::new();
        d.write_params(&mut after);
        assert_eq!(after, zeros);
    }
}
