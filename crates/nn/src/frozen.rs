//! Immutable inference models: weights split from training state.
//!
//! A trained [`Sequential`](crate::Sequential) carries per-layer gradient
//! and optimizer buffers and activation caches — none of which inference
//! needs. [`Sequential::freeze`](crate::Sequential::freeze) snapshots the
//! weights into a [`FrozenModel`]: an immutable, `Send + Sync` layer stack
//! whose [`FrozenModel::predict_into`] takes `&self`, so **many sessions
//! can share one weight allocation behind an `Arc`** instead of each
//! cloning megabytes of identical parameters. This is the only inference
//! path of the DL field solvers; [`Sequential::predict`](crate::Sequential::predict)
//! stays as the allocating reference that training metrics and tests
//! compare against.
//!
//! Every layer freezes (dense, residual dense, conv2d, max-pool, relu,
//! flatten), so both of the paper's architectures — the MLP and the CNN —
//! run here. Two storage precisions:
//!
//! * [`Precision::F32`] — weights are copied verbatim and each layer runs
//!   the exact kernel sequence of its training-side forward (`matmul_nn` +
//!   `add_bias` per dense layer, `pad_sample` + `conv_gemm` per conv
//!   sample), so a frozen f32 model is **bit-identical** to the network it
//!   was frozen from, solo or batched, at any `Arc` sharing degree.
//! * [`Precision::Bf16`] — dense weights are stored bf16
//!   (round-to-nearest-even) and inference runs the [`crate::bf16`]
//!   kernels with f32 accumulation: half the weight bytes and roughly half
//!   the GEMV memory traffic, accurate to the weight quantization (callers
//!   gate on a task-level tolerance). Conv weights stay f32 at both
//!   precisions (there is no bf16 conv kernel; they are a small share of
//!   the CNN's parameters).

// analyze:hot — the per-layer and per-sample inference loops run once per
// field solve; scratch lives in the caller's PredictWorkspace.

use crate::bf16::{encode_bf16, matmul_nn_bf16};
use crate::layers::conv2d::{pad_sample, patch_offsets_into};
use crate::layers::maxpool2::max_pool2_into;
use crate::linalg::{add_bias, conv_gemm, matmul_nn};
use crate::tensor::Tensor;

/// Weight storage precision of a [`FrozenModel`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Precision {
    /// Exact f32 copies of the source weights (bit-identical inference).
    F32,
    /// bf16 dense-weight storage with f32 accumulation (half the bytes;
    /// accurate to the weight quantization).
    Bf16,
}

impl Precision {
    /// Short name for logs and serialized bundles.
    pub fn name(self) -> &'static str {
        match self {
            Self::F32 => "f32",
            Self::Bf16 => "bf16",
        }
    }

    /// Parses [`Self::name`] back.
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "f32" => Some(Self::F32),
            "bf16" => Some(Self::Bf16),
            _ => None,
        }
    }
}

/// Dense-layer weight storage in one of the two precisions.
pub enum DenseWeights {
    /// Exact f32 copies.
    F32(Vec<f32>),
    /// Round-to-nearest-even bf16.
    Bf16(Vec<u16>),
}

/// A frozen dense map `Y = X·W + b`: weights `[in, out]` row-major in the
/// model's storage precision plus an f32 bias (the bias stays f32 in both
/// precisions — it is the accumulator seed).
pub struct FrozenDense {
    in_features: usize,
    out_features: usize,
    w: DenseWeights,
    b: Vec<f32>,
}

impl FrozenDense {
    /// A frozen dense map from its weight/bias slices.
    pub(crate) fn new(
        in_features: usize,
        out_features: usize,
        w: &[f32],
        b: &[f32],
        precision: Precision,
    ) -> Self {
        assert_eq!(w.len(), in_features * out_features, "weight size");
        assert_eq!(b.len(), out_features, "bias size");
        let w = match precision {
            Precision::F32 => DenseWeights::F32(w.to_vec()),
            Precision::Bf16 => DenseWeights::Bf16(encode_bf16(w)),
        };
        Self {
            in_features,
            out_features,
            w,
            b: b.to_vec(),
        }
    }

    fn weight_bytes(&self) -> usize {
        let wb = match &self.w {
            DenseWeights::F32(v) => v.len() * 4,
            DenseWeights::Bf16(v) => v.len() * 2,
        };
        wb + self.b.len() * 4
    }

    fn param_count(&self) -> usize {
        self.in_features * self.out_features + self.out_features
    }

    /// The same `resize` + `matmul_nn` + `add_bias` sequence as the
    /// training-side dense forward.
    fn apply(&self, input: &Tensor, out: &mut Tensor) {
        let batch = input.batch();
        let (n_in, n_out) = (self.in_features, self.out_features);
        assert_eq!(
            input.row_len(),
            n_in,
            "frozen dense expected {n_in} features, got {:?}",
            input.shape()
        );
        out.resize_in_place(&[batch, n_out]);
        match &self.w {
            DenseWeights::F32(w) => matmul_nn(input.data(), w, out.data_mut(), batch, n_in, n_out),
            DenseWeights::Bf16(w) => {
                matmul_nn_bf16(input.data(), w, out.data_mut(), batch, n_in, n_out)
            }
        }
        add_bias(out.data_mut(), &self.b, batch, n_out);
    }
}

/// One frozen layer: the immutable inference form of a [`crate::Layer`].
pub enum FrozenLayer {
    /// A dense layer.
    Dense(FrozenDense),
    /// A width-preserving residual block `relu(x + Dense(x))`.
    ResidualDense(FrozenDense),
    /// A same-padded stride-1 convolution on `[batch, ch, h, w]`; weights
    /// `[out_ch, in_ch, k, k]` stay f32 at both precisions.
    Conv2d {
        /// Input channels.
        in_ch: usize,
        /// Output channels.
        out_ch: usize,
        /// Odd kernel size.
        k: usize,
        /// Kernel weights.
        w: Vec<f32>,
        /// Per-output-channel bias.
        b: Vec<f32>,
    },
    /// 2×2/stride-2 max pooling.
    MaxPool2,
    /// Element-wise `max(0, x)`.
    Relu,
    /// `[batch, ...] → [batch, features]`.
    Flatten,
}

impl FrozenLayer {
    /// Bytes of weight/bias storage this layer holds.
    fn weight_bytes(&self) -> usize {
        match self {
            Self::Dense(d) | Self::ResidualDense(d) => d.weight_bytes(),
            Self::Conv2d { w, b, .. } => (w.len() + b.len()) * 4,
            Self::MaxPool2 | Self::Relu | Self::Flatten => 0,
        }
    }

    /// Trainable-parameter count of the source layer.
    fn param_count(&self) -> usize {
        match self {
            Self::Dense(d) | Self::ResidualDense(d) => d.param_count(),
            Self::Conv2d { w, b, .. } => w.len() + b.len(),
            Self::MaxPool2 | Self::Relu | Self::Flatten => 0,
        }
    }

    /// Inference for one layer, mirroring the training-side forward of
    /// the source layer exactly (same kernels, same arithmetic order), so
    /// f32 inference is bit-identical to `Sequential::predict`.
    fn apply(&self, input: &Tensor, out: &mut Tensor, conv: &mut ConvScratch) {
        match self {
            Self::Dense(d) => d.apply(input, out),
            Self::ResidualDense(d) => {
                d.apply(input, out);
                for (o, &x) in out.data_mut().iter_mut().zip(input.data()) {
                    *o = (*o + x).max(0.0);
                }
            }
            Self::Conv2d {
                in_ch,
                out_ch,
                k,
                w,
                b,
            } => {
                let shape = input.shape();
                assert_eq!(
                    shape.len(),
                    4,
                    "conv2d expects [batch, ch, h, w], got {shape:?}"
                );
                assert_eq!(
                    shape[1], *in_ch,
                    "conv2d expected {in_ch} channels, got {}",
                    shape[1]
                );
                let (batch, h, wd) = (shape[0], shape[2], shape[3]);
                let p = k / 2;
                let (ph, pw) = (h + 2 * p, wd + 2 * p);
                // Zero borders once per layer; per sample only the
                // interior is rewritten.
                conv.pad.clear();
                conv.pad.resize(in_ch * ph * pw, 0.0);
                patch_offsets_into(&mut conv.boff, *in_ch, *k, ph, pw);
                let plane = out_ch * h * wd;
                out.resize_in_place(&[batch, *out_ch, h, wd]);
                for bi in 0..batch {
                    pad_sample(&mut conv.pad, input.row(bi), *in_ch, h, wd, p);
                    conv_gemm(
                        w,
                        &conv.pad,
                        &conv.boff,
                        &mut out.data_mut()[bi * plane..(bi + 1) * plane],
                        *out_ch,
                        in_ch * k * k,
                        h,
                        wd,
                        pw,
                        Some(b),
                    );
                }
            }
            Self::MaxPool2 => max_pool2_into(input, out, None),
            Self::Relu => {
                out.resize_in_place(input.shape());
                for (o, &v) in out.data_mut().iter_mut().zip(input.data()) {
                    *o = v.max(0.0);
                }
            }
            Self::Flatten => {
                out.resize_in_place(&[input.batch(), input.row_len()]);
                out.data_mut().copy_from_slice(input.data());
            }
        }
    }
}

/// Conv scratch: the zero-padded input plane and its patch-row offsets,
/// rebuilt (into the same allocations) by each conv layer.
#[derive(Default)]
struct ConvScratch {
    pad: Vec<f32>,
    boff: Vec<usize>,
}

/// Reusable buffers for [`FrozenModel::predict_into`]: two ping-pong
/// activation slots plus the conv scratch. Once warm, repeated inference
/// at the same batch shape performs no heap allocation.
pub struct PredictWorkspace {
    a: Tensor,
    b: Tensor,
    conv: ConvScratch,
}

impl Default for PredictWorkspace {
    fn default() -> Self {
        Self {
            a: Tensor::zeros(&[0]),
            b: Tensor::zeros(&[0]),
            conv: ConvScratch::default(),
        }
    }
}

impl PredictWorkspace {
    /// An empty workspace; buffers grow to the model's widest activation
    /// on first use.
    pub fn new() -> Self {
        Self::default()
    }
}

/// An immutable inference model: frozen weights plus the layer order,
/// shareable across threads and sessions behind one `Arc`. Built with
/// [`Sequential::freeze`](crate::Sequential::freeze).
pub struct FrozenModel {
    layers: Vec<FrozenLayer>,
    precision: Precision,
}

impl std::fmt::Debug for FrozenModel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FrozenModel")
            .field("layers", &self.layers.len())
            .field("params", &self.param_count())
            .field("precision", &self.precision)
            .finish()
    }
}

impl FrozenModel {
    /// Assembles a model from already-frozen layers.
    pub fn from_layers(layers: Vec<FrozenLayer>, precision: Precision) -> Self {
        Self { layers, precision }
    }

    /// The storage precision of the dense weights.
    pub fn precision(&self) -> Precision {
        self.precision
    }

    /// Number of layers.
    pub fn len(&self) -> usize {
        self.layers.len()
    }

    /// True for a model with no layers (inference copies the input).
    pub fn is_empty(&self) -> bool {
        self.layers.is_empty()
    }

    /// Trainable-parameter count of the source network.
    pub fn param_count(&self) -> usize {
        self.layers.iter().map(FrozenLayer::param_count).sum()
    }

    /// Actual bytes of weight/bias storage (the figure the fleet memory
    /// accounting charges once per shared model): f32 models hold
    /// `4·params`, bf16 MLPs roughly half that.
    pub fn weight_bytes(&self) -> usize {
        self.layers.iter().map(FrozenLayer::weight_bytes).sum()
    }

    /// Inference through the reusable ping-pong `workspace`, returning a
    /// reference to the output activation. `input` is `[m, in]` for flat
    /// models and `[m, c, h, w]` for image models; every layer treats rows
    /// as independent samples and the kernels are row-stable, so row `i`
    /// of an `m`-row batch is **bitwise identical** to running that row
    /// alone — the property the engine's ensemble scheduler relies on when
    /// it folds `m` concurrent DL field solves into one GEMM that hits the
    /// 8-row zmm tiles. Callers keep distinct warm workspaces for distinct
    /// batch shapes (a workspace regrown every call would reallocate).
    pub fn predict_into<'w>(
        &self,
        input: &Tensor,
        workspace: &'w mut PredictWorkspace,
    ) -> &'w Tensor {
        let PredictWorkspace { a, b, conv } = workspace;
        if self.layers.is_empty() {
            a.resize_in_place(input.shape());
            a.data_mut().copy_from_slice(input.data());
            return a;
        }
        let mut out_is_a = true;
        for (i, layer) in self.layers.iter().enumerate() {
            let (src, dst) = if out_is_a {
                (&*b, &mut *a)
            } else {
                (&*a, &mut *b)
            };
            layer.apply(if i == 0 { input } else { src }, dst, conv);
            out_is_a = !out_is_a;
        }
        // The last layer wrote the buffer `out_is_a` now points away from.
        if out_is_a {
            b
        } else {
            a
        }
    }
}

// Compile-time proof the model is shareable across threads (all fields
// are plain owned data).
const _: fn() = || {
    fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<FrozenModel>();
};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::init::Init;
    use crate::layers::{Conv2d, Dense, Flatten, MaxPool2, Relu, ResidualDense};
    use crate::network::Sequential;

    fn mlp(seed: u64) -> Sequential {
        Sequential::new()
            .push(Flatten::new())
            .push(Dense::new(12, 32, Init::HeNormal, seed))
            .push(Relu::new())
            .push(Dense::new(32, 7, Init::HeNormal, seed + 1))
    }

    /// A small image stack using every layer kind: two conv/pool blocks
    /// (the first 16 wide, the zmm conv path; the second 8 wide, the
    /// portable path), a residual block and a dense head on
    /// `[m, 1, 16, 16]` inputs.
    fn cnn(seed: u64) -> Sequential {
        Sequential::new()
            .push(Conv2d::new(1, 3, 3, Init::HeNormal, seed))
            .push(Relu::new())
            .push(MaxPool2::new())
            .push(Conv2d::new(3, 2, 3, Init::HeNormal, seed + 1))
            .push(Relu::new())
            .push(MaxPool2::new())
            .push(Flatten::new())
            .push(Dense::new(32, 6, Init::HeNormal, seed + 2))
            .push(ResidualDense::new(6, Init::HeNormal, seed + 3))
            .push(Dense::new(6, 5, Init::HeNormal, seed + 4))
    }

    fn assert_bits_eq(got: &[f32], expect: &[f32], what: &str) {
        assert_eq!(got.len(), expect.len(), "{what}: length");
        for (i, (a, b)) in got.iter().zip(expect).enumerate() {
            assert_eq!(a.to_bits(), b.to_bits(), "{what} elem {i}: {a} != {b}");
        }
    }

    #[test]
    fn frozen_f32_is_bit_identical_to_source_network() {
        let mut net = mlp(3);
        let frozen = net.freeze(Precision::F32);
        assert_eq!(frozen.param_count(), net.param_count());
        assert_eq!(frozen.weight_bytes(), net.param_count() * 4);
        for m in [1usize, 3, 8, 11] {
            let x = Tensor::new(
                (0..m * 12).map(|i| (i as f32 * 0.31).sin()).collect(),
                &[m, 12],
            );
            let expect = net.predict(&x);
            let mut ws = PredictWorkspace::new();
            let got = frozen.predict_into(&x, &mut ws);
            assert_eq!(got.shape(), expect.shape());
            assert_bits_eq(got.data(), expect.data(), &format!("m={m}"));
        }
    }

    #[test]
    fn frozen_batch_rows_bit_identical_to_solo_rows() {
        let net = mlp(9);
        let frozen = net.freeze(Precision::F32);
        let m = 5;
        let batch = Tensor::new(
            (0..m * 12).map(|i| (i as f32 * 0.17).cos()).collect(),
            &[m, 12],
        );
        let mut batch_ws = PredictWorkspace::new();
        let out = frozen.predict_into(&batch, &mut batch_ws).clone();
        for r in 0..m {
            let row = Tensor::new(batch.data()[r * 12..(r + 1) * 12].to_vec(), &[1, 12]);
            let mut solo_ws = PredictWorkspace::new();
            let solo = frozen.predict_into(&row, &mut solo_ws);
            assert_bits_eq(&out.data()[r * 7..(r + 1) * 7], solo.data(), "row");
        }
    }

    #[test]
    fn frozen_cnn_stack_is_bit_identical_to_source_network() {
        let mut net = cnn(21);
        let frozen = net.freeze(Precision::F32);
        assert_eq!(frozen.param_count(), net.param_count());
        assert_eq!(frozen.weight_bytes(), net.param_count() * 4);
        // One workspace across shapes and calls: the conv scratch is
        // rebuilt per layer, so reuse must not leak state between calls.
        let mut ws = PredictWorkspace::new();
        for m in [1usize, 3, 8] {
            let x = Tensor::new(
                (0..m * 256).map(|i| (i as f32 * 0.29).sin()).collect(),
                &[m, 1, 16, 16],
            );
            let expect = net.predict(&x);
            let got = frozen.predict_into(&x, &mut ws);
            assert_eq!(got.shape(), expect.shape());
            assert_bits_eq(got.data(), expect.data(), &format!("m={m}"));
        }
    }

    #[test]
    fn frozen_cnn_batch_rows_bit_identical_to_solo_rows() {
        let frozen = cnn(5).freeze(Precision::F32);
        let m = 4;
        let batch = Tensor::new(
            (0..m * 256).map(|i| (i as f32 * 0.13).cos()).collect(),
            &[m, 1, 16, 16],
        );
        let mut batch_ws = PredictWorkspace::new();
        let out = frozen.predict_into(&batch, &mut batch_ws).clone();
        assert_eq!(out.shape(), &[m, 5]);
        let mut solo_ws = PredictWorkspace::new();
        for r in 0..m {
            let row = Tensor::new(batch.row(r).to_vec(), &[1, 1, 16, 16]);
            let solo = frozen.predict_into(&row, &mut solo_ws);
            assert_bits_eq(out.row(r), solo.data(), &format!("row {r}"));
        }
    }

    #[test]
    fn bf16_keeps_conv_weights_f32() {
        let net = cnn(8);
        let f32_model = net.freeze(Precision::F32);
        let bf16_model = net.freeze(Precision::Bf16);
        // conv: 1·3·9 + 3 and 3·2·9 + 2 parameters, f32 either way.
        let conv_bytes = ((27 + 3) + (54 + 2)) * 4;
        // dense weight matrices halve, dense biases stay f32.
        let dense_w = 32 * 6 + 6 * 6 + 6 * 5;
        let dense_b = 6 + 6 + 5;
        assert_eq!(
            f32_model.weight_bytes(),
            conv_bytes + (dense_w + dense_b) * 4
        );
        assert_eq!(
            bf16_model.weight_bytes(),
            conv_bytes + dense_w * 2 + dense_b * 4
        );
    }

    #[test]
    fn bf16_model_halves_dense_weight_bytes() {
        let net = mlp(5);
        let f32_model = net.freeze(Precision::F32);
        let bf16_model = net.freeze(Precision::Bf16);
        assert_eq!(bf16_model.precision(), Precision::Bf16);
        // Weight matrices halve; the f32 biases stay.
        let bias_bytes = (32 + 7) * 4;
        let f32_w = f32_model.weight_bytes() - bias_bytes;
        assert_eq!(bf16_model.weight_bytes() - bias_bytes, f32_w / 2);
    }

    #[test]
    fn bf16_inference_close_and_deterministic() {
        let mut net = mlp(7);
        let frozen = net.freeze(Precision::Bf16);
        let x = Tensor::new((0..12).map(|i| (i as f32 * 0.23).sin()).collect(), &[1, 12]);
        let mut ws = PredictWorkspace::new();
        let first = frozen.predict_into(&x, &mut ws).clone();
        let exact = net.predict(&x);
        for (a, b) in first.data().iter().zip(exact.data()) {
            // bf16 has ~2-3 decimal digits; hidden widths here are small.
            assert!((a - b).abs() <= 2e-2 * (1.0 + b.abs()), "{a} vs {b}");
        }
        // Deterministic: same bytes in, same bits out.
        let mut ws2 = PredictWorkspace::new();
        let second = frozen.predict_into(&x, &mut ws2);
        assert_bits_eq(first.data(), second.data(), "repeat");
    }

    #[test]
    fn empty_model_copies_input() {
        let net = Sequential::new();
        let frozen = net.freeze(Precision::F32);
        let x = Tensor::new(vec![1.0, -2.0], &[1, 2]);
        let mut ws = PredictWorkspace::new();
        let y = frozen.predict_into(&x, &mut ws);
        assert_eq!(y.data(), x.data());
        assert_eq!(y.shape(), x.shape());
    }
}
