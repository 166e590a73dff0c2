//! Fully connected layer.

use crate::{FusedActivation, Layer};
use chiron_tensor::{matmul_batched_into, Epilogue, Init, MatView, Tensor, TensorRng};

/// A fully connected (affine) layer: `y = x·W + b` with `W: (in, out)`.
///
/// Gradients accumulate across `backward` calls until
/// [`Layer::zero_grad`], which lets callers average minibatch gradients
/// manually when needed.
///
/// # Examples
///
/// ```
/// use chiron_nn::{Layer, Linear};
/// use chiron_tensor::{Tensor, TensorRng};
///
/// let mut rng = TensorRng::seed_from(7);
/// let mut layer = Linear::new(3, 2, &mut rng);
/// let y = layer.forward(&Tensor::ones(&[4, 3]), true);
/// assert_eq!(y.dims(), &[4, 2]);
/// ```
#[derive(Clone)]
pub struct Linear {
    weight: Tensor,
    bias: Tensor,
    grad_weight: Tensor,
    grad_bias: Tensor,
    input: Option<Tensor>,
    in_features: usize,
    out_features: usize,
}

impl Linear {
    /// Creates a layer with He-normal weights and zero biases.
    pub fn new(in_features: usize, out_features: usize, rng: &mut TensorRng) -> Self {
        Self::with_init(in_features, out_features, Init::HeNormal, rng)
    }

    /// Creates a layer with an explicit weight-initialization scheme.
    pub fn with_init(
        in_features: usize,
        out_features: usize,
        scheme: Init,
        rng: &mut TensorRng,
    ) -> Self {
        Self {
            weight: rng.init(&[in_features, out_features], scheme),
            bias: Tensor::zeros(&[out_features]),
            grad_weight: Tensor::zeros(&[in_features, out_features]),
            grad_bias: Tensor::zeros(&[out_features]),
            input: None,
            in_features,
            out_features,
        }
    }

    /// Input feature count.
    pub fn in_features(&self) -> usize {
        self.in_features
    }

    /// Output feature count.
    pub fn out_features(&self) -> usize {
        self.out_features
    }

    /// Borrows the weight matrix.
    pub fn weight(&self) -> &Tensor {
        &self.weight
    }

    /// Borrows the bias vector.
    pub fn bias(&self) -> &Tensor {
        &self.bias
    }
}

impl Layer for Linear {
    fn forward(&mut self, input: &Tensor, _train: bool) -> Tensor {
        let (_, cols) = input.shape().as_matrix();
        assert_eq!(
            cols, self.in_features,
            "Linear: input features {cols} != expected {}",
            self.in_features
        );
        self.input = Some(input.clone());
        // Fused bias epilogue: one pass over the output instead of a
        // matmul followed by a separate broadcast add. Bitwise identical.
        input.matmul_bias(&self.weight, &self.bias)
    }

    fn backward(&mut self, grad_output: &Tensor) -> Tensor {
        self.backward_params_only(grad_output);
        // dx = dy · Wᵀ
        grad_output.matmul_nt(&self.weight)
    }

    fn backward_params_only(&mut self, grad_output: &Tensor) {
        let input = self
            .input
            .as_ref()
            .expect("Linear::backward called before forward");
        // dW = xᵀ · dy, db = column-sums of dy.
        self.grad_weight.axpy(1.0, &input.matmul_tn(grad_output));
        self.grad_bias.axpy(1.0, &grad_output.sum_rows());
    }

    fn visit_params_mut(&mut self, f: &mut dyn FnMut(&mut Tensor, &mut Tensor)) {
        f(&mut self.weight, &mut self.grad_weight);
        f(&mut self.bias, &mut self.grad_bias);
    }

    fn visit_params(&self, f: &mut dyn FnMut(&Tensor, &Tensor)) {
        f(&self.weight, &self.grad_weight);
        f(&self.bias, &self.grad_bias);
    }

    fn supports_fused_relu(&self) -> bool {
        true
    }

    fn forward_chunks(&mut self, inputs: &[Tensor], fused: FusedActivation) -> Option<Vec<Tensor>> {
        let (kin, nout) = (self.in_features, self.out_features);
        for x in inputs {
            let (_, cols) = x.shape().as_matrix();
            assert_eq!(cols, kin, "Linear: input features {cols} != expected {kin}");
        }
        let ep = match fused {
            FusedActivation::None => Epilogue::Bias(self.bias.as_slice()),
            FusedActivation::Relu => Epilogue::BiasRelu(self.bias.as_slice()),
        };
        let bview = MatView::row_major(self.weight.as_slice(), kin, nout);
        let mut outs: Vec<Tensor> = Vec::with_capacity(inputs.len());
        // Batch maximal runs of equal-row chunks through one blocked pass
        // that packs the weight panel once per run.
        let mut start = 0usize;
        while start < inputs.len() {
            let rows = inputs[start].shape().as_matrix().0;
            let mut end = start + 1;
            while end < inputs.len() && inputs[end].shape().as_matrix().0 == rows {
                end += 1;
            }
            let group = &inputs[start..end];
            let a_views: Vec<MatView<'_>> = group
                .iter()
                .map(|x| MatView::row_major(x.as_slice(), rows, kin))
                .collect();
            let mut group_outs: Vec<Tensor> =
                group.iter().map(|_| Tensor::zeros(&[rows, nout])).collect();
            {
                let mut out_slices: Vec<&mut [f32]> =
                    group_outs.iter_mut().map(|t| t.as_mut_slice()).collect();
                matmul_batched_into(&a_views, &bview, &mut out_slices, ep);
            }
            outs.append(&mut group_outs);
            start = end;
        }
        Some(outs)
    }

    fn name(&self) -> &'static str {
        "Linear"
    }

    fn clone_box(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn forward_is_affine() {
        let mut rng = TensorRng::seed_from(1);
        let mut l = Linear::new(2, 2, &mut rng);
        // Overwrite with a known matrix.
        l.visit_params_mut(&mut |p, _| {
            if p.dims() == [2, 2] {
                *p = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]);
            } else {
                *p = Tensor::from_vec(vec![0.5, -0.5], &[2]);
            }
        });
        let x = Tensor::from_vec(vec![1.0, 1.0], &[1, 2]);
        let y = l.forward(&x, true);
        // [1,1]·[[1,2],[3,4]] + [0.5,-0.5] = [4.5, 5.5]
        assert_eq!(y.as_slice(), &[4.5, 5.5]);
    }

    #[test]
    fn backward_shapes_and_bias_grad() {
        let mut rng = TensorRng::seed_from(2);
        let mut l = Linear::new(3, 2, &mut rng);
        let x = Tensor::ones(&[4, 3]);
        let _ = l.forward(&x, true);
        let dy = Tensor::ones(&[4, 2]);
        let dx = l.backward(&dy);
        assert_eq!(dx.dims(), &[4, 3]);
        // Bias gradient is the column sum of dy: 4 per output.
        l.visit_params(&mut |p, g| {
            if p.dims().len() == 1 {
                assert_eq!(g.as_slice(), &[4.0, 4.0]);
            } else {
                // dW = xᵀ·dy with all-ones: every entry is 4.
                assert!(g.as_slice().iter().all(|&v| (v - 4.0).abs() < 1e-6));
            }
        });
    }

    #[test]
    fn gradients_accumulate_until_zeroed() {
        let mut rng = TensorRng::seed_from(3);
        let mut l = Linear::new(2, 2, &mut rng);
        let x = Tensor::ones(&[1, 2]);
        for _ in 0..2 {
            let _ = l.forward(&x, true);
            let _ = l.backward(&Tensor::ones(&[1, 2]));
        }
        l.visit_params(&mut |p, g| {
            if p.dims().len() == 1 {
                assert_eq!(g.as_slice(), &[2.0, 2.0]);
            }
        });
    }

    #[test]
    #[should_panic(expected = "before forward")]
    fn backward_requires_forward() {
        let mut rng = TensorRng::seed_from(4);
        let mut l = Linear::new(2, 2, &mut rng);
        let _ = l.backward(&Tensor::ones(&[1, 2]));
    }
}
