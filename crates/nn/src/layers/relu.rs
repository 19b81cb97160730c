//! Rectified linear activation.

use crate::frozen::{FrozenLayer, Precision};
use crate::layer::Layer;
use crate::tensor::Tensor;

/// Element-wise `max(0, x)`; the hidden activation of the paper's MLP and
/// CNN (§IV.A).
#[derive(Default)]
pub struct Relu {
    mask: Vec<bool>,
}

impl Relu {
    /// Creates a ReLU layer.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Layer for Relu {
    fn forward(&mut self, input: &Tensor, training: bool) -> Tensor {
        if training {
            self.mask.clear();
            self.mask.extend(input.data().iter().map(|&v| v > 0.0));
        }
        input.map(|v| v.max(0.0))
    }

    fn train_forward_into(&mut self, input: &Tensor, out: &mut Tensor) {
        self.mask.clear();
        self.mask.extend(input.data().iter().map(|&v| v > 0.0));
        out.resize_in_place(input.shape());
        for (o, &v) in out.data_mut().iter_mut().zip(input.data()) {
            *o = v.max(0.0);
        }
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let mut grad_in = Tensor::zeros(&[0]);
        self.backward_into(grad_out, &mut grad_in);
        grad_in
    }

    fn backward_into(&mut self, grad_out: &Tensor, grad_in: &mut Tensor) {
        assert_eq!(
            grad_out.len(),
            self.mask.len(),
            "backward before forward(training)"
        );
        grad_in.resize_in_place(grad_out.shape());
        for ((gi, &g), &m) in grad_in
            .data_mut()
            .iter_mut()
            .zip(grad_out.data())
            .zip(&self.mask)
        {
            *gi = if m { g } else { 0.0 };
        }
    }

    fn freeze(&self, _precision: Precision) -> FrozenLayer {
        FrozenLayer::Relu
    }

    fn name(&self) -> &'static str {
        "relu"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn forward_clamps_negatives() {
        let mut r = Relu::new();
        let x = Tensor::new(vec![-1.0, 0.0, 2.0], &[1, 3]);
        let y = r.forward(&x, false);
        assert_eq!(y.data(), &[0.0, 0.0, 2.0]);
    }

    #[test]
    fn backward_masks_gradient() {
        let mut r = Relu::new();
        let x = Tensor::new(vec![-1.0, 0.5, 2.0, -0.1], &[2, 2]);
        let _ = r.forward(&x, true);
        let gy = Tensor::new(vec![1.0, 1.0, 1.0, 1.0], &[2, 2]);
        let gx = r.backward(&gy);
        assert_eq!(gx.data(), &[0.0, 1.0, 1.0, 0.0]);
    }

    #[test]
    fn zero_input_has_zero_gradient() {
        // Subgradient convention: d relu/dx at exactly 0 is 0.
        let mut r = Relu::new();
        let x = Tensor::new(vec![0.0], &[1, 1]);
        let _ = r.forward(&x, true);
        let gx = r.backward(&Tensor::new(vec![5.0], &[1, 1]));
        assert_eq!(gx.data(), &[0.0]);
    }
}
