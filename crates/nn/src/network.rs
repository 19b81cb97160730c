//! Sequential network container.

use crate::frozen::{FrozenModel, Precision};
use crate::layer::Layer;
use crate::loss::Loss;
use crate::tensor::Tensor;

/// A feed-forward stack of layers — the shape of both architectures in the
/// paper's §IV.A.
#[derive(Default)]
pub struct Sequential {
    layers: Vec<Box<dyn Layer>>,
}

/// Reusable buffers for [`Sequential::compute_gradients_into`]: two
/// ping-pong activation slots for the forward pass and a third slot so
/// the backward pass can ping-pong the gradient without touching the
/// loss input. Once warm, a full forward + loss + backward step performs
/// no heap allocation (layers cache activations in their own reused
/// buffers).
pub struct TrainWorkspace {
    bufs: [Tensor; 3],
}

impl Default for TrainWorkspace {
    fn default() -> Self {
        Self {
            bufs: [
                Tensor::zeros(&[0]),
                Tensor::zeros(&[0]),
                Tensor::zeros(&[0]),
            ],
        }
    }
}

impl TrainWorkspace {
    /// An empty workspace; buffers grow to the network's widest
    /// activation on first use.
    pub fn new() -> Self {
        Self::default()
    }
}

/// Disjoint (read, write) access to two of the workspace slots.
fn two_slots(bufs: &mut [Tensor; 3], src: usize, dst: usize) -> (&Tensor, &mut Tensor) {
    assert_ne!(src, dst);
    if src < dst {
        let (lo, hi) = bufs.split_at_mut(dst);
        (&lo[src], &mut hi[0])
    } else {
        let (lo, hi) = bufs.split_at_mut(src);
        (&hi[0], &mut lo[dst])
    }
}

impl Sequential {
    /// Creates an empty network.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a layer (builder style).
    pub fn push(mut self, layer: impl Layer + 'static) -> Self {
        self.layers.push(Box::new(layer));
        self
    }

    /// Appends a boxed layer.
    pub fn push_boxed(&mut self, layer: Box<dyn Layer>) {
        self.layers.push(layer);
    }

    /// Number of layers.
    pub fn len(&self) -> usize {
        self.layers.len()
    }

    /// True for a network with no layers.
    pub fn is_empty(&self) -> bool {
        self.layers.is_empty()
    }

    /// Total trainable parameter count.
    pub fn param_count(&self) -> usize {
        self.layers.iter().map(|l| l.param_count()).sum()
    }

    /// Forward pass. `training = true` retains activation caches for a
    /// subsequent [`Sequential::backward`].
    pub fn forward(&mut self, input: &Tensor, training: bool) -> Tensor {
        let mut x = input.clone();
        for layer in &mut self.layers {
            x = layer.forward(&x, training);
        }
        x
    }

    /// Inference without caching — the allocating reference path.
    /// Deployed inference runs a [`FrozenModel`] from [`Self::freeze`],
    /// which is bit-identical to this at [`Precision::F32`].
    pub fn predict(&mut self, input: &Tensor) -> Tensor {
        self.forward(input, false)
    }

    /// Backward pass from the output gradient; accumulates parameter
    /// gradients and returns the input gradient.
    pub fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let mut g = grad_out.clone();
        for layer in self.layers.iter_mut().rev() {
            g = layer.backward(&g);
        }
        g
    }

    /// One training step's gradient computation: zeroes gradients, runs
    /// forward + loss + backward. Returns the loss value. The caller then
    /// applies an optimizer step. Allocating convenience form of
    /// [`Sequential::compute_gradients_into`].
    pub fn compute_gradients(&mut self, loss: &dyn Loss, x: &Tensor, y: &Tensor) -> f32 {
        let mut ws = TrainWorkspace::new();
        self.compute_gradients_into(loss, x, y, &mut ws)
    }

    /// One training step's gradient computation through the reusable
    /// `workspace`: activations ping-pong between two workspace slots on
    /// the way up, the gradient ping-pongs through the third on the way
    /// down, so a warm workspace makes the whole step allocation-free —
    /// the per-batch path of [`crate::trainer::train`]. Numerically
    /// identical to [`Sequential::compute_gradients`].
    pub fn compute_gradients_into(
        &mut self,
        loss: &dyn Loss,
        x: &Tensor,
        y: &Tensor,
        workspace: &mut TrainWorkspace,
    ) -> f32 {
        self.zero_grads();
        if self.layers.is_empty() {
            // Degenerate network: prediction is the input itself.
            workspace.bufs[0].copy_from(x);
            let (pred, grad) = two_slots(&mut workspace.bufs, 0, 2);
            grad.resize_in_place(pred.shape());
            return loss.loss_and_grad(pred, y, grad);
        }
        // Forward: x → bufs[1] → bufs[0] → bufs[1] → …
        let mut cur = 0;
        for (i, layer) in self.layers.iter_mut().enumerate() {
            let nxt = 1 - cur;
            let (src, dst) = two_slots(&mut workspace.bufs, cur, nxt);
            layer.train_forward_into(if i == 0 { x } else { src }, dst);
            cur = nxt;
        }
        // Loss gradient into the third slot.
        let (pred, grad) = two_slots(&mut workspace.bufs, cur, 2);
        grad.resize_in_place(pred.shape());
        let value = loss.loss_and_grad(pred, y, grad);
        // Backward: bufs[2] → the freed activation slot → bufs[2] → …
        let free = 1 - cur;
        let mut g = 2;
        for layer in self.layers.iter_mut().rev() {
            let dst = if g == 2 { free } else { 2 };
            let (src, out) = two_slots(&mut workspace.bufs, g, dst);
            layer.backward_into(src, out);
            g = dst;
        }
        value
    }

    /// Snapshots the weights into an immutable [`FrozenModel`] at the
    /// given storage precision — the shareable inference form
    /// (`Arc<FrozenModel>`) whose `&self` prediction path is
    /// bit-identical to [`Self::predict`] at [`Precision::F32`]. Training
    /// state (gradients, caches) stays behind; the network is unchanged.
    pub fn freeze(&self, precision: Precision) -> FrozenModel {
        let layers = self.layers.iter().map(|l| l.freeze(precision)).collect();
        FrozenModel::from_layers(layers, precision)
    }

    /// Visits every (parameter, gradient) slice pair in a stable order.
    pub fn visit_params(&mut self, f: &mut dyn FnMut(&mut [f32], &mut [f32])) {
        for layer in &mut self.layers {
            layer.visit_params(f);
        }
    }

    /// Zeros all parameter gradients.
    pub fn zero_grads(&mut self) {
        for layer in &mut self.layers {
            layer.zero_grads();
        }
    }

    /// One line per layer: name and parameter count.
    pub fn summary(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        for (i, layer) in self.layers.iter().enumerate() {
            let _ = writeln!(
                out,
                "{i:>3}  {:<16} {:>10} params",
                layer.name(),
                layer.param_count()
            );
        }
        let _ = writeln!(out, "     total {:>21} params", self.param_count());
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::init::Init;
    use crate::layers::{Dense, Relu};
    use crate::loss::Mse;

    fn tiny_net() -> Sequential {
        Sequential::new()
            .push(Dense::new(2, 4, Init::HeNormal, 1))
            .push(Relu::new())
            .push(Dense::new(4, 1, Init::HeNormal, 2))
    }

    #[test]
    fn forward_shapes_flow_through() {
        let mut net = tiny_net();
        let x = Tensor::zeros(&[3, 2]);
        let y = net.forward(&x, false);
        assert_eq!(y.shape(), &[3, 1]);
        assert_eq!(net.len(), 3);
        assert_eq!(net.param_count(), (2 * 4 + 4) + (4 + 1));
    }

    #[test]
    fn gradient_descent_reduces_loss_on_tiny_problem() {
        // Fit y = x0 - x1 with plain gradient descent on the raw grads.
        let mut net = tiny_net();
        let x = Tensor::new(vec![1.0, 0.0, 0.0, 1.0, 1.0, 1.0, 0.5, -0.5], &[4, 2]);
        let y = Tensor::new(vec![1.0, -1.0, 0.0, 1.0], &[4, 1]);
        let loss = Mse;
        let first = net.compute_gradients(&loss, &x, &y);
        for _ in 0..300 {
            net.compute_gradients(&loss, &x, &y);
            net.visit_params(&mut |p, g| {
                for (pv, gv) in p.iter_mut().zip(g.iter()) {
                    *pv -= 0.05 * gv;
                }
            });
        }
        let last = net.compute_gradients(&loss, &x, &y);
        assert!(last < first * 0.05, "loss {first} -> {last}");
    }

    #[test]
    fn summary_lists_layers() {
        let net = tiny_net();
        let s = net.summary();
        assert!(s.contains("dense"));
        assert!(s.contains("relu"));
        assert!(s.contains("total"));
    }
}
