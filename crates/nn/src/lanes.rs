//! Multi-lane parameter representation for lock-step multi-coalition
//! training.
//!
//! A [`MultiNetwork`] holds `B` parameter *lanes* — `B` independent copies
//! of one [`Network`]'s parameters — and advances any active subset of them
//! through the same mini-batch in one pass. The federated engine uses this
//! to train `B` coalition models against a client's data while loading the
//! client's samples once: the batch input is a *shared* [`LaneTensor`]
//! every lane reads, deeper activations are per-lane (the weights differ),
//! and the lane-blocked kernels in [`crate::linalg`] sweep each shared
//! input row across all lanes while it is cache-hot.
//!
//! **Determinism contract.** Per lane, every kernel invocation performs the
//! same floating-point operations in the same order as the corresponding
//! solo [`Network`] pass, so a lane's trajectory is bit-identical to
//! training its coalition alone — regardless of how many other lanes ride
//! in the block or which of them are active. (The one deliberate deviation
//! is *omission*, not reordering: the input-gradient of the first layer,
//! which a solo backward pass computes and discards, is skipped — by the
//! lane-blocked layers directly, and by the [`PerLane`] fallback through
//! [`Layer::backward_params_only`].) The
//! equivalence is asserted layer-by-layer in this module's tests and
//! end-to-end in `tests/tests/lockstep_equivalence.rs`.

use rand::seq::SliceRandom;
use rand::Rng;

use fedval_data::Dataset;

use crate::layers::Layer;
use crate::linalg::{lane_matmul_a_bt_bias, lane_matmul_at_b_accum, matmul};
use crate::loss::softmax_cross_entropy_grad;
use crate::network::Network;

/// A batch-shaped value replicated across `lanes` parameter lanes, or
/// shared by all of them.
///
/// Layout is lane-contiguous: lane `l` owns `data[l·lane_len .. (l+1)·lane_len]`.
/// A *shared* tensor stores one lane's worth of data and serves it to every
/// lane — the representation of a mini-batch input that all coalition
/// models consume, letting layer-0 kernels read each sample once.
pub struct LaneTensor {
    data: Vec<f32>,
    lanes: usize,
    lane_len: usize,
    shared: bool,
}

impl LaneTensor {
    /// An empty tensor; [`LaneTensor::reset`] shapes it before use.
    pub fn empty() -> Self {
        LaneTensor {
            data: Vec::new(),
            lanes: 0,
            lane_len: 0,
            shared: false,
        }
    }

    /// Reshape to `lanes × lane_len` (per-lane storage), reusing the
    /// allocation. Contents are unspecified until written.
    pub fn reset(&mut self, lanes: usize, lane_len: usize) {
        self.lanes = lanes;
        self.lane_len = lane_len;
        self.shared = false;
        self.data.resize(lanes * lane_len, 0.0);
    }

    /// Make this tensor the shared value `src` for `lanes` lanes.
    pub fn reset_shared(&mut self, lanes: usize, src: &[f32]) {
        self.lanes = lanes;
        self.lane_len = src.len();
        self.shared = true;
        self.data.clear();
        self.data.extend_from_slice(src);
    }

    pub fn lanes(&self) -> usize {
        self.lanes
    }

    pub fn lane_len(&self) -> usize {
        self.lane_len
    }

    pub fn is_shared(&self) -> bool {
        self.shared
    }

    /// Lane `l`'s view (the common buffer when shared).
    #[inline]
    pub fn lane(&self, l: usize) -> &[f32] {
        debug_assert!(l < self.lanes);
        if self.shared {
            &self.data
        } else {
            &self.data[l * self.lane_len..(l + 1) * self.lane_len]
        }
    }

    /// Mutable view of lane `l`. Panics on shared tensors (their single
    /// buffer backs every lane).
    #[inline]
    pub fn lane_mut(&mut self, l: usize) -> &mut [f32] {
        assert!(!self.shared, "cannot mutate one lane of a shared tensor");
        debug_assert!(l < self.lanes);
        &mut self.data[l * self.lane_len..(l + 1) * self.lane_len]
    }

    /// The full lane-contiguous backing buffer (kernel operand).
    #[inline]
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Mutable backing buffer (kernel operand).
    #[inline]
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }
}

/// A layer processing `lanes` parameter lanes in lock-step — the
/// multi-lane counterpart of [`Layer`].
///
/// Unlike [`Layer`], forward does not cache its input: the owning
/// [`MultiNetwork`] keeps every activation alive and hands the layer its
/// own input back at backward time, which removes the per-step input
/// copies the solo path pays. `active[l]` gates lane `l`: inactive lanes'
/// activations, gradients and parameters are left untouched.
pub trait LaneLayer: Send {
    /// Per-sample input length (identical across lanes).
    fn in_len(&self) -> usize;
    /// Per-sample output length (identical across lanes).
    fn out_len(&self) -> usize;
    /// Number of parameter lanes.
    fn lanes(&self) -> usize;

    /// Forward the batch for every active lane: reads `input` (shared or
    /// per-lane), writes each active lane of `out` (pre-shaped by the
    /// caller to `lanes × batch·out_len`).
    fn forward(&mut self, input: &LaneTensor, batch: usize, active: &[bool], out: &mut LaneTensor);

    /// Backward for every active lane. `input` is the same tensor `forward`
    /// read; `grad_in`, when present, receives `∂L/∂input` per lane. The
    /// first layer of a network passes `None` — its input gradient has no
    /// consumer, and skipping it is the lane path's main arithmetic saving.
    fn backward(
        &mut self,
        input: &LaneTensor,
        grad_out: &LaneTensor,
        batch: usize,
        active: &[bool],
        grad_in: Option<&mut LaneTensor>,
    );

    /// Reset gradient accumulators of active lanes.
    fn zero_grads(&mut self, _active: &[bool]) {}

    /// SGD update on active lanes.
    fn sgd_step(&mut self, _lr: f32, _active: &[bool]) {}

    /// Scalar parameters per lane.
    fn param_count(&self) -> usize {
        0
    }

    /// Append lane `l`'s parameters to `out` in [`Layer::write_params`]
    /// order.
    fn write_lane_params(&self, _lane: usize, _out: &mut Vec<f32>) {}

    /// Read lane `l`'s parameters from the front of `src`, advancing it.
    fn read_lane_params(&mut self, _lane: usize, _src: &mut &[f32]) {}
}

/// Lane-blocked fully connected layer (the multi-lane [`crate::layers::Dense`]).
pub struct MultiDense {
    in_len: usize,
    out_len: usize,
    lanes: usize,
    /// `lanes × (out×in)`, each lane row-major `W: out×in` (solo layout).
    w: Vec<f32>,
    /// `lanes × out`.
    b: Vec<f32>,
    grad_w: Vec<f32>,
    grad_b: Vec<f32>,
}

impl MultiDense {
    /// Replicate one dense layer's parameters into `lanes` lanes.
    pub(crate) fn replicate(
        in_len: usize,
        out_len: usize,
        w: &[f32],
        b: &[f32],
        lanes: usize,
    ) -> Self {
        assert_eq!(w.len(), in_len * out_len);
        assert_eq!(b.len(), out_len);
        assert!(lanes >= 1);
        MultiDense {
            in_len,
            out_len,
            lanes,
            w: w.iter().copied().cycle().take(lanes * w.len()).collect(),
            b: b.iter().copied().cycle().take(lanes * b.len()).collect(),
            grad_w: vec![0.0; lanes * w.len()],
            grad_b: vec![0.0; lanes * b.len()],
        }
    }

    /// Shared forward body for the plain and fused-ReLU variants.
    fn forward_impl(
        &mut self,
        input: &LaneTensor,
        batch: usize,
        active: &[bool],
        out: &mut LaneTensor,
        relu_masks: Option<&mut [bool]>,
    ) {
        assert_eq!(input.lane_len(), batch * self.in_len);
        assert_eq!(out.lane_len(), batch * self.out_len);
        lane_matmul_a_bt_bias(
            input.data(),
            input.is_shared(),
            &self.w,
            &self.b,
            self.lanes,
            active,
            batch,
            self.in_len,
            self.out_len,
            out.data_mut(),
            relu_masks,
        );
    }

    /// Shared backward body: accumulates weight/bias gradients (fused
    /// traversal) and optionally the input gradient per active lane.
    fn backward_impl(
        &mut self,
        input: &LaneTensor,
        grad_out: &LaneTensor,
        batch: usize,
        active: &[bool],
        grad_in: Option<&mut LaneTensor>,
    ) {
        assert_eq!(grad_out.lane_len(), batch * self.out_len);
        assert_eq!(input.lane_len(), batch * self.in_len);
        lane_matmul_at_b_accum(
            grad_out.data(),
            input.data(),
            input.is_shared(),
            self.lanes,
            active,
            batch,
            self.out_len,
            self.in_len,
            &mut self.grad_w,
            &mut self.grad_b,
        );
        if let Some(grad_in) = grad_in {
            assert_eq!(grad_in.lane_len(), batch * self.in_len);
            for (l, &on) in active.iter().enumerate() {
                if on {
                    matmul(
                        grad_out.lane(l),
                        &self.w
                            [l * self.out_len * self.in_len..(l + 1) * self.out_len * self.in_len],
                        batch,
                        self.out_len,
                        self.in_len,
                        grad_in.lane_mut(l),
                    );
                }
            }
        }
    }
}

impl LaneLayer for MultiDense {
    fn in_len(&self) -> usize {
        self.in_len
    }
    fn out_len(&self) -> usize {
        self.out_len
    }
    fn lanes(&self) -> usize {
        self.lanes
    }

    fn forward(&mut self, input: &LaneTensor, batch: usize, active: &[bool], out: &mut LaneTensor) {
        self.forward_impl(input, batch, active, out, None);
    }

    fn backward(
        &mut self,
        input: &LaneTensor,
        grad_out: &LaneTensor,
        batch: usize,
        active: &[bool],
        grad_in: Option<&mut LaneTensor>,
    ) {
        self.backward_impl(input, grad_out, batch, active, grad_in);
    }

    fn zero_grads(&mut self, active: &[bool]) {
        let (wl, bl) = (self.in_len * self.out_len, self.out_len);
        for (l, &on) in active.iter().enumerate() {
            if on {
                self.grad_w[l * wl..(l + 1) * wl].fill(0.0);
                self.grad_b[l * bl..(l + 1) * bl].fill(0.0);
            }
        }
    }

    fn sgd_step(&mut self, lr: f32, active: &[bool]) {
        let (wl, bl) = (self.in_len * self.out_len, self.out_len);
        for (l, &on) in active.iter().enumerate() {
            if on {
                for (p, g) in self.w[l * wl..(l + 1) * wl]
                    .iter_mut()
                    .zip(&self.grad_w[l * wl..(l + 1) * wl])
                {
                    *p -= lr * g;
                }
                for (p, g) in self.b[l * bl..(l + 1) * bl]
                    .iter_mut()
                    .zip(&self.grad_b[l * bl..(l + 1) * bl])
                {
                    *p -= lr * g;
                }
            }
        }
    }

    fn param_count(&self) -> usize {
        self.in_len * self.out_len + self.out_len
    }

    fn write_lane_params(&self, lane: usize, out: &mut Vec<f32>) {
        let (wl, bl) = (self.in_len * self.out_len, self.out_len);
        out.extend_from_slice(&self.w[lane * wl..(lane + 1) * wl]);
        out.extend_from_slice(&self.b[lane * bl..(lane + 1) * bl]);
    }

    fn read_lane_params(&mut self, lane: usize, src: &mut &[f32]) {
        let (wl, bl) = (self.in_len * self.out_len, self.out_len);
        let (w, rest) = src.split_at(wl);
        let (b, rest) = rest.split_at(bl);
        self.w[lane * wl..(lane + 1) * wl].copy_from_slice(w);
        self.b[lane * bl..(lane + 1) * bl].copy_from_slice(b);
        *src = rest;
    }
}

/// Lane-blocked fused `ReLU(x·Wᵀ + b)` (the multi-lane
/// [`crate::layers::DenseRelu`]): bias and activation applied in the
/// kernel write-back, positive mask recorded per lane in the same pass.
pub struct MultiDenseRelu {
    dense: MultiDense,
    /// `lanes × batch·out` activation gates of the last forward.
    mask: Vec<bool>,
    /// Scratch for the gated upstream gradient.
    gated: LaneTensor,
}

impl MultiDenseRelu {
    pub(crate) fn replicate(
        in_len: usize,
        out_len: usize,
        w: &[f32],
        b: &[f32],
        lanes: usize,
    ) -> Self {
        MultiDenseRelu {
            dense: MultiDense::replicate(in_len, out_len, w, b, lanes),
            mask: Vec::new(),
            gated: LaneTensor::empty(),
        }
    }
}

impl LaneLayer for MultiDenseRelu {
    fn in_len(&self) -> usize {
        self.dense.in_len
    }
    fn out_len(&self) -> usize {
        self.dense.out_len
    }
    fn lanes(&self) -> usize {
        self.dense.lanes
    }

    fn forward(&mut self, input: &LaneTensor, batch: usize, active: &[bool], out: &mut LaneTensor) {
        self.mask
            .resize(self.dense.lanes * batch * self.dense.out_len, false);
        let mask = &mut self.mask[..];
        self.dense
            .forward_impl(input, batch, active, out, Some(mask));
    }

    fn backward(
        &mut self,
        input: &LaneTensor,
        grad_out: &LaneTensor,
        batch: usize,
        active: &[bool],
        grad_in: Option<&mut LaneTensor>,
    ) {
        // Gate the upstream gradient through the recorded masks, then run
        // the dense backward on the gated signal — the same composition as
        // the solo `DenseRelu`, with the gate buffer reused across steps.
        let per = batch * self.dense.out_len;
        self.gated.reset(self.dense.lanes, per);
        for (l, &on) in active.iter().enumerate() {
            if on {
                let mask = &self.mask[l * per..(l + 1) * per];
                let dst = self.gated.lane_mut(l);
                for ((d, &g), &keep) in dst.iter_mut().zip(grad_out.lane(l)).zip(mask) {
                    *d = if keep { g } else { 0.0 };
                }
            }
        }
        self.dense
            .backward_impl(input, &self.gated, batch, active, grad_in);
    }

    fn zero_grads(&mut self, active: &[bool]) {
        self.dense.zero_grads(active);
    }

    fn sgd_step(&mut self, lr: f32, active: &[bool]) {
        self.dense.sgd_step(lr, active);
    }

    fn param_count(&self) -> usize {
        self.dense.param_count()
    }

    fn write_lane_params(&self, lane: usize, out: &mut Vec<f32>) {
        self.dense.write_lane_params(lane, out);
    }

    fn read_lane_params(&mut self, lane: usize, src: &mut &[f32]) {
        self.dense.read_lane_params(lane, src);
    }
}

/// Lane-blocked element-wise ReLU (parameter-free; per-lane masks).
pub struct MultiRelu {
    len: usize,
    lanes: usize,
    mask: Vec<bool>,
}

impl MultiRelu {
    pub(crate) fn replicate(len: usize, lanes: usize) -> Self {
        MultiRelu {
            len,
            lanes,
            mask: Vec::new(),
        }
    }
}

impl LaneLayer for MultiRelu {
    fn in_len(&self) -> usize {
        self.len
    }
    fn out_len(&self) -> usize {
        self.len
    }
    fn lanes(&self) -> usize {
        self.lanes
    }

    fn forward(&mut self, input: &LaneTensor, batch: usize, active: &[bool], out: &mut LaneTensor) {
        let per = batch * self.len;
        self.mask.resize(self.lanes * per, false);
        for (l, &on) in active.iter().enumerate() {
            if on {
                let src = input.lane(l);
                let mask = &mut self.mask[l * per..(l + 1) * per];
                let dst = out.lane_mut(l);
                for ((d, m), &v) in dst.iter_mut().zip(mask.iter_mut()).zip(src) {
                    let keep = v > 0.0;
                    *m = keep;
                    *d = if keep { v } else { 0.0 };
                }
            }
        }
    }

    fn backward(
        &mut self,
        _input: &LaneTensor,
        grad_out: &LaneTensor,
        batch: usize,
        active: &[bool],
        grad_in: Option<&mut LaneTensor>,
    ) {
        let Some(grad_in) = grad_in else { return };
        let per = batch * self.len;
        for (l, &on) in active.iter().enumerate() {
            if on {
                let mask = &self.mask[l * per..(l + 1) * per];
                let dst = grad_in.lane_mut(l);
                for ((d, &g), &keep) in dst.iter_mut().zip(grad_out.lane(l)).zip(mask) {
                    *d = if keep { g } else { 0.0 };
                }
            }
        }
    }
}

/// Fallback multi-lane adapter: one boxed solo [`Layer`] per lane, driven
/// in a loop. Used by layers without a dedicated lane-blocked kernel
/// (convolution, pooling, the odd activations); bit-identity per lane is
/// inherited from running the solo layer itself. These layers still gain
/// the engine-level sharing (one data pass, shared shuffles and gathers),
/// and as a first layer they run the solo layer's params-only backward.
pub struct PerLane {
    layers: Vec<Box<dyn Layer>>,
}

impl PerLane {
    pub(crate) fn new(layers: Vec<Box<dyn Layer>>) -> Self {
        assert!(!layers.is_empty());
        PerLane { layers }
    }
}

impl LaneLayer for PerLane {
    fn in_len(&self) -> usize {
        self.layers[0].in_len()
    }
    fn out_len(&self) -> usize {
        self.layers[0].out_len()
    }
    fn lanes(&self) -> usize {
        self.layers.len()
    }

    fn forward(&mut self, input: &LaneTensor, batch: usize, active: &[bool], out: &mut LaneTensor) {
        for (l, layer) in self.layers.iter_mut().enumerate() {
            if active[l] {
                let v = layer.forward(input.lane(l), batch);
                out.lane_mut(l).copy_from_slice(&v);
            }
        }
    }

    fn backward(
        &mut self,
        _input: &LaneTensor,
        grad_out: &LaneTensor,
        batch: usize,
        active: &[bool],
        mut grad_in: Option<&mut LaneTensor>,
    ) {
        // Solo layers cache their own forward input, so `_input` is unused.
        for (l, layer) in self.layers.iter_mut().enumerate() {
            if active[l] {
                match grad_in.as_deref_mut() {
                    Some(gi) => {
                        let g = layer.backward(grad_out.lane(l), batch);
                        gi.lane_mut(l).copy_from_slice(&g);
                    }
                    None => layer.backward_params_only(grad_out.lane(l), batch),
                }
            }
        }
    }

    fn zero_grads(&mut self, active: &[bool]) {
        for (l, layer) in self.layers.iter_mut().enumerate() {
            if active[l] {
                layer.zero_grads();
            }
        }
    }

    fn sgd_step(&mut self, lr: f32, active: &[bool]) {
        for (l, layer) in self.layers.iter_mut().enumerate() {
            if active[l] {
                layer.sgd_step(lr);
            }
        }
    }

    fn param_count(&self) -> usize {
        self.layers[0].param_count()
    }

    fn write_lane_params(&self, lane: usize, out: &mut Vec<f32>) {
        self.layers[lane].write_params(out);
    }

    fn read_lane_params(&mut self, lane: usize, src: &mut &[f32]) {
        self.layers[lane].read_params(src);
    }
}

/// `B` parameter lanes of one network architecture, trained in lock-step.
///
/// Built from a template [`Network`] whose parameters seed every lane
/// (the FL server's shared initialisation); per-lane parameters are then
/// set and read with [`MultiNetwork::set_lane_params`] /
/// [`MultiNetwork::lane_params`]. All activation and gradient buffers are
/// owned here and reused across steps, the loss gradient included: a step
/// through dense lane layers allocates nothing (the [`PerLane`] fallback
/// still returns its solo layers' `Vec`s).
pub struct MultiNetwork {
    layers: Vec<Box<dyn LaneLayer>>,
    lanes: usize,
    in_len: usize,
    n_classes: usize,
    /// `layers.len() + 1` activation tensors; `acts[0]` is the shared
    /// batch input, `acts[i+1]` the output of layer `i`.
    acts: Vec<LaneTensor>,
    /// Ping-pong gradient buffers for the backward sweep.
    grad_cur: LaneTensor,
    grad_nxt: LaneTensor,
    /// All-lanes-active mask for evaluation paths.
    all_active: Vec<bool>,
}

impl MultiNetwork {
    /// Replicate `net`'s parameters into `lanes` lanes.
    pub fn from_network(net: &Network, lanes: usize) -> Self {
        assert!(lanes >= 1);
        let layers: Vec<Box<dyn LaneLayer>> =
            net.layers().iter().map(|l| l.to_multi(lanes)).collect();
        let acts = (0..layers.len() + 1).map(|_| LaneTensor::empty()).collect();
        MultiNetwork {
            layers,
            lanes,
            in_len: net.in_len(),
            n_classes: net.n_classes(),
            acts,
            grad_cur: LaneTensor::empty(),
            grad_nxt: LaneTensor::empty(),
            all_active: vec![true; lanes],
        }
    }

    pub fn lanes(&self) -> usize {
        self.lanes
    }

    pub fn in_len(&self) -> usize {
        self.in_len
    }

    pub fn n_classes(&self) -> usize {
        self.n_classes
    }

    /// Scalar parameters per lane.
    pub fn param_count(&self) -> usize {
        self.layers.iter().map(|l| l.param_count()).sum()
    }

    /// Load lane `lane` from a flat vector ([`Network::params`] order).
    pub fn set_lane_params(&mut self, lane: usize, params: &[f32]) {
        assert_eq!(params.len(), self.param_count());
        let mut src = params;
        for layer in &mut self.layers {
            layer.read_lane_params(lane, &mut src);
        }
        debug_assert!(src.is_empty());
    }

    /// Append lane `lane`'s flat parameters to `out` (cleared first).
    pub fn lane_params_into(&self, lane: usize, out: &mut Vec<f32>) {
        out.clear();
        for layer in &self.layers {
            layer.write_lane_params(lane, out);
        }
    }

    /// Lane `lane`'s flat parameters.
    pub fn lane_params(&self, lane: usize) -> Vec<f32> {
        let mut out = Vec::with_capacity(self.param_count());
        self.lane_params_into(lane, &mut out);
        out
    }

    /// Forward the shared batch through every active lane, leaving all
    /// activations in `self.acts`.
    fn forward_shared(&mut self, input: &[f32], batch: usize, active: &[bool]) {
        assert_eq!(input.len(), batch * self.in_len);
        assert_eq!(active.len(), self.lanes);
        self.acts[0].reset_shared(self.lanes, input);
        for (i, layer) in self.layers.iter_mut().enumerate() {
            let (head, tail) = self.acts.split_at_mut(i + 1);
            tail[0].reset(self.lanes, batch * layer.out_len());
            layer.forward(&head[i], batch, active, &mut tail[0]);
        }
    }

    /// One lock-step SGD step on a shared batch: every active lane
    /// performs exactly the forward/backward/update a solo
    /// [`Network::train_batch`] would, while the batch is gathered and
    /// traversed once.
    pub fn train_batch(&mut self, input: &[f32], labels: &[u32], lr: f32, active: &[bool]) {
        let batch = labels.len();
        self.forward_shared(input, batch, active);
        // Per-lane loss gradients from the shared logits tensor
        // (`acts` and `grad_cur` are disjoint fields, so the logits
        // borrow coexists with the per-lane gradient writes).
        self.grad_cur.reset(self.lanes, batch * self.n_classes);
        let Some(logits) = self.acts.last() else {
            unreachable!("acts always holds layers.len() + 1 tensors")
        };
        for (l, &on) in active.iter().enumerate() {
            if on {
                let grad = self.grad_cur.lane_mut(l);
                softmax_cross_entropy_grad(logits.lane(l), labels, self.n_classes, grad);
            }
        }
        for layer in &mut self.layers {
            layer.zero_grads(active);
        }
        for i in (0..self.layers.len()).rev() {
            let layer = &mut self.layers[i];
            if i == 0 {
                // First layer: its input gradient has no consumer — skip.
                layer.backward(&self.acts[0], &self.grad_cur, batch, active, None);
            } else {
                self.grad_nxt.reset(self.lanes, batch * layer.in_len());
                layer.backward(
                    &self.acts[i],
                    &self.grad_cur,
                    batch,
                    active,
                    Some(&mut self.grad_nxt),
                );
                std::mem::swap(&mut self.grad_cur, &mut self.grad_nxt);
            }
        }
        for layer in &mut self.layers {
            layer.sgd_step(lr, active);
        }
    }

    /// Train active lanes for `epochs` passes over `data` in mini-batches
    /// of `batch_size`, shuffling each epoch with `rng` — the lock-step
    /// mirror of [`Network::train_epochs`]: the epoch order evolves from
    /// one shared shuffle stream exactly as each solo run's identically
    /// seeded RNG would produce, and each mini-batch is gathered once for
    /// all lanes.
    pub fn train_epochs(
        &mut self,
        data: &Dataset,
        epochs: usize,
        batch_size: usize,
        lr: f32,
        rng: &mut impl Rng,
        active: &[bool],
    ) {
        assert!(batch_size >= 1);
        let n = data.n_samples();
        if n == 0 || !active.iter().any(|&a| a) {
            return;
        }
        assert_eq!(data.n_features(), self.in_len);
        let mut order: Vec<usize> = (0..n).collect();
        let mut xbuf: Vec<f32> = Vec::with_capacity(batch_size * self.in_len);
        let mut ybuf: Vec<u32> = Vec::with_capacity(batch_size);
        for _ in 0..epochs {
            order.shuffle(rng);
            for chunk in order.chunks(batch_size) {
                xbuf.clear();
                ybuf.clear();
                for &i in chunk {
                    xbuf.extend_from_slice(data.row(i));
                    ybuf.push(data.label(i));
                }
                self.train_batch(&xbuf, &ybuf, lr, active);
            }
        }
    }

    /// Classification accuracy of every lane on `data`, with the test
    /// batches gathered once and forwarded through all lanes
    /// (bit-identical per lane to [`Network::accuracy`]).
    pub fn accuracy_lanes(&mut self, data: &Dataset) -> Vec<f64> {
        let n = data.n_samples();
        if n == 0 {
            return vec![0.0; self.lanes];
        }
        let mut correct = vec![0usize; self.lanes];
        let bs = 64usize; // same evaluation batching as Network::predict
        let mut xbuf: Vec<f32> = Vec::with_capacity(bs * self.in_len);
        let active = std::mem::take(&mut self.all_active);
        let mut start = 0;
        while start < n {
            let end = (start + bs).min(n);
            xbuf.clear();
            for i in start..end {
                xbuf.extend_from_slice(data.row(i));
            }
            self.forward_shared(&xbuf, end - start, &active);
            let Some(logits) = self.acts.last() else {
                unreachable!("acts always holds layers.len() + 1 tensors")
            };
            for (l, corr) in correct.iter_mut().enumerate() {
                let rows = logits.lane(l);
                for (r, row) in rows.chunks_exact(self.n_classes).enumerate() {
                    let mut best = 0usize;
                    for (c, &v) in row.iter().enumerate() {
                        if v > row[best] {
                            best = c;
                        }
                    }
                    if best as u32 == data.label(start + r) {
                        *corr += 1;
                    }
                }
            }
            start = end;
        }
        self.all_active = active;
        correct.iter().map(|&c| c as f64 / n as f64).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::models;
    use crate::network::init_rng;
    use fedval_data::MnistLike;

    fn problem() -> (Dataset, Dataset) {
        let gen = MnistLike::new(31);
        gen.generate_split(160, 80, 32)
    }

    /// Lock-step training with a mix of active lanes must reproduce each
    /// lane's solo trajectory bit-for-bit, for every model family.
    #[test]
    fn lanes_are_bit_identical_to_solo_networks() {
        let (train, test) = problem();
        type Builder = Box<dyn Fn(u64) -> Network>;
        let builders: Vec<(&str, Builder)> = vec![
            ("mlp", Box::new(|s| models::mlp(64, &[32], 10, s))),
            ("deep", Box::new(|s| models::mlp(64, &[24, 16], 10, s))),
            ("linear", Box::new(|s| models::linear(64, 10, s))),
            ("cnn", Box::new(|s| models::cnn(8, 10, s))),
        ];
        for (name, build) in &builders {
            let template = build(7);
            let lanes = 3usize;
            let mut multi = MultiNetwork::from_network(&template, lanes);
            assert_eq!(multi.param_count(), template.param_count());
            // Give each lane distinct parameters (different seeds).
            let mut solos: Vec<Network> = (0..lanes).map(|l| build(100 + l as u64)).collect();
            for (l, solo) in solos.iter().enumerate() {
                multi.set_lane_params(l, &solo.params());
            }
            // Two lock-step phases with different active masks; solo runs
            // perform exactly the same steps with identical RNG streams.
            for (phase, active) in [[true, true, true], [true, false, true]].iter().enumerate() {
                let mut rng = init_rng(50 + phase as u64);
                multi.train_epochs(&train, 2, 16, 0.1, &mut rng, active);
                for (l, solo) in solos.iter_mut().enumerate() {
                    if active[l] {
                        let mut rng = init_rng(50 + phase as u64);
                        solo.train_epochs(&train, 2, 16, 0.1, &mut rng);
                    }
                }
            }
            for (l, solo) in solos.iter_mut().enumerate() {
                assert_eq!(
                    multi.lane_params(l),
                    solo.params(),
                    "{name}: lane {l} diverged from its solo run"
                );
                let accs = multi.accuracy_lanes(&test);
                assert_eq!(accs[l], solo.accuracy(&test), "{name}: lane {l} accuracy");
            }
        }
    }

    #[test]
    fn single_lane_matches_network_exactly() {
        let (train, _) = problem();
        let template = models::default_mlp(64, 10, 3);
        let mut multi = MultiNetwork::from_network(&template, 1);
        let mut solo = models::default_mlp(64, 10, 3);
        let mut rng_m = init_rng(9);
        let mut rng_s = init_rng(9);
        multi.train_epochs(&train, 3, 16, 0.05, &mut rng_m, &[true]);
        solo.train_epochs(&train, 3, 16, 0.05, &mut rng_s);
        assert_eq!(multi.lane_params(0), solo.params());
    }

    #[test]
    fn inactive_lanes_stay_frozen() {
        let (train, _) = problem();
        let template = models::default_mlp(64, 10, 11);
        let mut multi = MultiNetwork::from_network(&template, 2);
        let before = multi.lane_params(1);
        let mut rng = init_rng(12);
        multi.train_epochs(&train, 1, 16, 0.1, &mut rng, &[true, false]);
        assert_eq!(multi.lane_params(1), before, "inactive lane must not move");
        assert_ne!(multi.lane_params(0), before, "active lane must train");
    }

    #[test]
    fn lane_params_round_trip() {
        let template = models::mlp(8, &[6], 3, 21);
        let mut multi = MultiNetwork::from_network(&template, 4);
        let p: Vec<f32> = (0..multi.param_count()).map(|i| i as f32 * 0.25).collect();
        multi.set_lane_params(2, &p);
        assert_eq!(multi.lane_params(2), p);
        // Other lanes keep the template parameters.
        assert_eq!(multi.lane_params(1), template.params());
    }
}
