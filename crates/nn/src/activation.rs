//! Elementwise activation layers.

use crate::Layer;
use chiron_tensor::Tensor;

/// Each activation caches only its output: every derivative here is a
/// function of `y = f(x)` alone, so backward computes `g · f'(y)` in one
/// pass, with the same operations per element as building `f'` first.
macro_rules! activation {
    ($(#[$doc:meta])* $name:ident, $fwd:expr, $grad_from_out:expr) => {
        $(#[$doc])*
        #[derive(Clone, Default)]
        pub struct $name {
            output: Option<Tensor>,
        }

        impl $name {
            /// Creates the activation layer.
            pub fn new() -> Self {
                Self::default()
            }
        }

        impl Layer for $name {
            fn forward(&mut self, input: &Tensor, _train: bool) -> Tensor {
                let out = input.map($fwd);
                self.output = Some(out.clone());
                out
            }

            fn backward(&mut self, grad_output: &Tensor) -> Tensor {
                let output = self
                    .output
                    .as_ref()
                    .expect(concat!(stringify!($name), "::backward called before forward"));
                grad_output.zip(output, |g, y| g * ($grad_from_out)(y))
            }

            fn forward_chunks(
                &mut self,
                inputs: &[Tensor],
                fused: crate::FusedActivation,
            ) -> Option<Vec<Tensor>> {
                // Activations never fold a further activation into
                // themselves; refuse so the caller falls back safely.
                if fused != crate::FusedActivation::None {
                    return None;
                }
                // Inference chunks skip the backward cache.
                Some(inputs.iter().map(|x| x.map($fwd)).collect())
            }

            fn name(&self) -> &'static str {
                stringify!($name)
            }

            fn clone_box(&self) -> Box<dyn Layer> {
                Box::new(self.clone())
            }
        }
    };
}

activation!(
    /// Rectified linear unit: `max(0, x)`. Used by the paper's CNNs.
    Relu,
    |x| x.max(0.0),
    // `y > 0` exactly when `x > 0`: `max` maps NaN and ±0 to 0.
    |y| if y > 0.0 { 1.0 } else { 0.0 }
);

activation!(
    /// Hyperbolic tangent. Used by the PPO actor/critic MLPs.
    Tanh,
    |x| x.tanh(),
    |y| 1.0 - y * y
);

activation!(
    /// Logistic sigmoid: `1 / (1 + e^{-x})`.
    Sigmoid,
    |x| 1.0 / (1.0 + (-x).exp()),
    |y| y * (1.0 - y)
);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn relu_forward_backward() {
        let mut relu = Relu::new();
        let x = Tensor::from_vec(vec![-1.0, 0.0, 2.0], &[3]);
        let y = relu.forward(&x, true);
        assert_eq!(y.as_slice(), &[0.0, 0.0, 2.0]);
        let dx = relu.backward(&Tensor::ones(&[3]));
        assert_eq!(dx.as_slice(), &[0.0, 0.0, 1.0]);
    }

    #[test]
    fn tanh_gradient_matches_identity() {
        let mut tanh = Tanh::new();
        let x = Tensor::from_vec(vec![0.0], &[1]);
        let y = tanh.forward(&x, true);
        assert_eq!(y.as_slice(), &[0.0]);
        // d tanh(0) = 1
        let dx = tanh.backward(&Tensor::ones(&[1]));
        assert!((dx.as_slice()[0] - 1.0).abs() < 1e-6);
    }

    #[test]
    fn sigmoid_is_bounded_and_centered() {
        let mut s = Sigmoid::new();
        let x = Tensor::from_vec(vec![-100.0, 0.0, 100.0], &[3]);
        let y = s.forward(&x, true);
        assert!(y.as_slice()[0] < 1e-6);
        assert!((y.as_slice()[1] - 0.5).abs() < 1e-6);
        assert!(y.as_slice()[2] > 1.0 - 1e-6);
        // Peak gradient at 0 is 0.25.
        let dx = s.backward(&Tensor::ones(&[3]));
        assert!((dx.as_slice()[1] - 0.25).abs() < 1e-6);
    }

    #[test]
    fn activations_have_no_params() {
        assert_eq!(Relu::new().num_params(), 0);
        assert_eq!(Tanh::new().num_params(), 0);
        assert_eq!(Sigmoid::new().num_params(), 0);
    }
}
