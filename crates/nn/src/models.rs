//! The exact model architectures the paper trains, plus a generic MLP
//! builder used by the DRL agents.
//!
//! * [`mnist_cnn`] — the 21,840-parameter CNN the paper uses for MNIST and
//!   Fashion-MNIST: two 5×5 convolutions (10 then 20 channels) each
//!   followed by 2×2 max pooling, then 320→50→10 fully connected.
//! * [`cifar_lenet`] — the 62,006-parameter LeNet for CIFAR-10: two 5×5
//!   convolutions (6 then 16 channels) with 2×2 pooling, then
//!   400→120→84→10 fully connected.
//! * [`mlp`] — tanh MLP with Xavier init for PPO actors/critics.

use crate::{Conv2d, Linear, MaxPool2d, Relu, Sequential, Tanh};
use chiron_tensor::{Init, TensorRng};

/// Parameter count of [`mnist_cnn`], as reported in the paper.
pub const MNIST_CNN_PARAMS: usize = 21_840;

/// Parameter count of [`cifar_lenet`], as reported in the paper.
pub const CIFAR_LENET_PARAMS: usize = 62_006;

/// Builds the paper's MNIST/Fashion-MNIST CNN (21,840 parameters).
///
/// Input: `(N, 1, 28, 28)`; output: `(N, 10)` logits.
///
/// # Examples
///
/// ```
/// use chiron_nn::models::{mnist_cnn, MNIST_CNN_PARAMS};
/// use chiron_tensor::TensorRng;
///
/// let net = mnist_cnn(&mut TensorRng::seed_from(0));
/// assert_eq!(net.num_params(), MNIST_CNN_PARAMS);
/// ```
pub fn mnist_cnn(rng: &mut TensorRng) -> Sequential {
    let mut net = Sequential::new();
    net.push(Conv2d::new(1, 10, 5, 1, 0, 28, 28, rng)); // → (10, 24, 24)
    net.push(Relu::new());
    net.push(MaxPool2d::new(24, 24)); // → (10, 12, 12)
    net.push(Conv2d::new(10, 20, 5, 1, 0, 12, 12, rng)); // → (20, 8, 8)
    net.push(Relu::new());
    net.push(MaxPool2d::new(8, 8)); // → (20, 4, 4)
    net.push(Flatten::new());
    net.push(Linear::new(320, 50, rng));
    net.push(Relu::new());
    net.push(Linear::new(50, 10, rng));
    net
}

/// Builds the paper's CIFAR-10 LeNet (62,006 parameters).
///
/// Input: `(N, 3, 32, 32)`; output: `(N, 10)` logits.
///
/// # Examples
///
/// ```
/// use chiron_nn::models::{cifar_lenet, CIFAR_LENET_PARAMS};
/// use chiron_tensor::TensorRng;
///
/// let net = cifar_lenet(&mut TensorRng::seed_from(0));
/// assert_eq!(net.num_params(), CIFAR_LENET_PARAMS);
/// ```
pub fn cifar_lenet(rng: &mut TensorRng) -> Sequential {
    let mut net = Sequential::new();
    net.push(Conv2d::new(3, 6, 5, 1, 0, 32, 32, rng)); // → (6, 28, 28)
    net.push(Relu::new());
    net.push(MaxPool2d::new(28, 28)); // → (6, 14, 14)
    net.push(Conv2d::new(6, 16, 5, 1, 0, 14, 14, rng)); // → (16, 10, 10)
    net.push(Relu::new());
    net.push(MaxPool2d::new(10, 10)); // → (16, 5, 5)
    net.push(Flatten::new());
    net.push(Linear::new(400, 120, rng));
    net.push(Relu::new());
    net.push(Linear::new(120, 84, rng));
    net.push(Relu::new());
    net.push(Linear::new(84, 10, rng));
    net
}

/// Builds a tanh MLP with Xavier-uniform init: `dims[0] → … → dims.last()`,
/// with tanh between hidden layers and a linear output.
///
/// This is the network family used for every PPO actor and critic in the
/// reproduction.
///
/// # Panics
///
/// Panics if `dims` has fewer than two entries.
///
/// # Examples
///
/// ```
/// use chiron_nn::models::mlp;
/// use chiron_tensor::TensorRng;
///
/// let net = mlp(&[8, 64, 64, 1], &mut TensorRng::seed_from(0));
/// assert_eq!(net.num_params(), 8 * 64 + 64 + 64 * 64 + 64 + 64 + 1);
/// ```
pub fn mlp(dims: &[usize], rng: &mut TensorRng) -> Sequential {
    assert!(dims.len() >= 2, "mlp needs at least input and output dims");
    let mut net = Sequential::new();
    for w in dims.windows(2).enumerate() {
        let (i, pair) = w;
        net.push(Linear::with_init(
            pair[0],
            pair[1],
            Init::XavierUniform,
            rng,
        ));
        if i + 2 < dims.len() {
            net.push(Tanh::new());
        }
    }
    net
}

/// Flattens `(N, C, H, W)` activations into `(N, C·H·W)` rows between the
/// convolutional stack and the classifier head.
#[derive(Clone, Default)]
pub struct Flatten {
    input_dims: Vec<usize>,
}

impl Flatten {
    /// Creates a flatten layer.
    pub fn new() -> Self {
        Self::default()
    }
}

impl crate::Layer for Flatten {
    fn forward(&mut self, input: &chiron_tensor::Tensor, _train: bool) -> chiron_tensor::Tensor {
        if self.input_dims != input.dims() {
            self.input_dims = input.dims().to_vec();
        }
        let n = self.input_dims[0];
        input.reshape(&[n, input.numel() / n])
    }

    fn backward(&mut self, grad_output: &chiron_tensor::Tensor) -> chiron_tensor::Tensor {
        assert!(
            !self.input_dims.is_empty(),
            "Flatten::backward called before forward"
        );
        grad_output.reshape(&self.input_dims)
    }

    fn name(&self) -> &'static str {
        "Flatten"
    }

    fn clone_box(&self) -> Box<dyn crate::Layer> {
        Box::new(self.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use chiron_tensor::Tensor;

    #[test]
    fn mnist_cnn_has_paper_parameter_count() {
        let net = mnist_cnn(&mut TensorRng::seed_from(0));
        assert_eq!(net.num_params(), MNIST_CNN_PARAMS);
    }

    #[test]
    fn cifar_lenet_has_paper_parameter_count() {
        let net = cifar_lenet(&mut TensorRng::seed_from(0));
        assert_eq!(net.num_params(), CIFAR_LENET_PARAMS);
    }

    #[test]
    fn mnist_cnn_forward_shape() {
        let mut net = mnist_cnn(&mut TensorRng::seed_from(1));
        let y = net.forward(&Tensor::ones(&[2, 1, 28, 28]), false);
        assert_eq!(y.dims(), &[2, 10]);
        assert!(y.is_finite());
    }

    #[test]
    fn cifar_lenet_forward_shape() {
        let mut net = cifar_lenet(&mut TensorRng::seed_from(1));
        let y = net.forward(&Tensor::ones(&[2, 3, 32, 32]), false);
        assert_eq!(y.dims(), &[2, 10]);
        assert!(y.is_finite());
    }

    #[test]
    fn mnist_cnn_backward_runs() {
        let mut net = mnist_cnn(&mut TensorRng::seed_from(2));
        let y = net.forward(&Tensor::ones(&[1, 1, 28, 28]), true);
        let dx = net.backward(&y.map(|_| 0.1));
        assert_eq!(dx.dims(), &[1, 1, 28, 28]);
    }

    #[test]
    fn mlp_alternates_linear_tanh() {
        let net = mlp(&[4, 8, 2], &mut TensorRng::seed_from(3));
        assert_eq!(net.summary(), "Linear→Tanh→Linear");
    }

    #[test]
    fn flatten_round_trips() {
        use crate::Layer;
        let mut f = Flatten::new();
        let x = Tensor::linspace(0.0, 23.0, 24).reshape(&[2, 3, 2, 2]);
        let y = f.forward(&x, true);
        assert_eq!(y.dims(), &[2, 12]);
        let back = f.backward(&y);
        assert_eq!(back.dims(), x.dims());
        assert_eq!(back.as_slice(), x.as_slice());
    }
}
