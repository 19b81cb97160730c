//! The layer abstraction: forward, backward, parameter visitation.

use crate::frozen::{FrozenLayer, Precision};
use crate::tensor::Tensor;

/// A differentiable layer.
///
/// The backward contract: [`Layer::forward`] with `training = true` caches
/// whatever the backward pass needs; [`Layer::backward`] consumes the
/// gradient w.r.t. the layer *output*, accumulates parameter gradients
/// internally (`+=`, so callers zero them between optimizer steps via
/// [`Layer::zero_grads`]) and returns the gradient w.r.t. the layer
/// *input*.
pub trait Layer: Send {
    /// Computes the layer output. With `training = true` the activation
    /// cache for backprop is retained.
    fn forward(&mut self, input: &Tensor, training: bool) -> Tensor;

    /// Backpropagates: accumulates parameter gradients and returns the
    /// input gradient. Must be preceded by a `forward(.., true)`.
    fn backward(&mut self, grad_out: &Tensor) -> Tensor;

    /// Training-time forward into a caller-owned output tensor: same
    /// contract as `forward(.., true)` (the activation cache is
    /// retained), but the output buffer is resized in place and reused,
    /// so repeated calls perform no heap allocation once warm — the
    /// per-batch path of `nn::trainer`. The default falls back to the
    /// allocating [`Layer::forward`]; every built-in layer overrides it.
    fn train_forward_into(&mut self, input: &Tensor, out: &mut Tensor) {
        *out = self.forward(input, true);
    }

    /// Backpropagation into a caller-owned gradient tensor: same
    /// contract as [`Layer::backward`] (parameter gradients accumulate
    /// internally) with the input-gradient buffer resized in place and
    /// reused. The default falls back to the allocating
    /// [`Layer::backward`]; every built-in layer overrides it.
    fn backward_into(&mut self, grad_out: &Tensor, grad_in: &mut Tensor) {
        *grad_in = self.backward(grad_out);
    }

    /// Visits each (parameter, gradient) pair in a stable order. Layers
    /// without parameters do nothing (default).
    fn visit_params(&mut self, _f: &mut dyn FnMut(&mut [f32], &mut [f32])) {}

    /// Zeros the accumulated parameter gradients (default: no-op).
    fn zero_grads(&mut self) {}

    /// The immutable inference form of this layer at the given weight
    /// precision — what [`crate::Sequential::freeze`] assembles into a
    /// [`crate::FrozenModel`]. At [`Precision::F32`] frozen inference must
    /// match `forward(.., false)` bit for bit.
    fn freeze(&self, precision: Precision) -> FrozenLayer;

    /// Layer name for summaries.
    fn name(&self) -> &'static str;

    /// Total trainable parameter count (default 0).
    fn param_count(&self) -> usize {
        0
    }
}

/// Stores `input` in a layer's activation-cache slot, reusing the slot's
/// existing allocation when warm (the training loop runs the same batch
/// shape for thousands of steps — only the first step allocates).
pub(crate) fn cache_input(slot: &mut Option<Tensor>, input: &Tensor) {
    match slot {
        Some(t) => t.copy_from(input),
        None => *slot = Some(input.clone()),
    }
}
