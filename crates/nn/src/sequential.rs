//! Layer composition and parameter (de)serialization.

use crate::{FusedActivation, Layer};
use chiron_tensor::Tensor;

/// An ordered stack of layers trained end-to-end.
///
/// `Sequential` is the model type used everywhere in the reproduction: the
/// paper's CNNs, the PPO actors and critics. Besides forward/backward it
/// provides *flat parameter access* ([`Sequential::parameters_flat`] /
/// [`Sequential::set_parameters_flat`]), which is what federated averaging
/// operates on.
///
/// # Examples
///
/// ```
/// use chiron_nn::{Linear, Relu, Sequential};
/// use chiron_tensor::{Tensor, TensorRng};
///
/// let mut rng = TensorRng::seed_from(0);
/// let mut net = Sequential::new();
/// net.push(Linear::new(8, 4, &mut rng));
/// net.push(Relu::new());
/// net.push(Linear::new(4, 2, &mut rng));
/// assert_eq!(net.num_params(), 8 * 4 + 4 + 4 * 2 + 2);
/// let y = net.forward(&Tensor::ones(&[1, 8]), false);
/// assert_eq!(y.dims(), &[1, 2]);
/// ```
#[derive(Default)]
pub struct Sequential {
    layers: Vec<Box<dyn Layer>>,
}

impl Sequential {
    /// Creates an empty network.
    pub fn new() -> Self {
        Self { layers: Vec::new() }
    }

    /// Appends a layer.
    pub fn push(&mut self, layer: impl Layer + 'static) {
        self.layers.push(Box::new(layer));
    }

    /// Appends a boxed layer (useful when building from a config).
    pub fn push_boxed(&mut self, layer: Box<dyn Layer>) {
        self.layers.push(layer);
    }

    /// Number of layers.
    pub fn len(&self) -> usize {
        self.layers.len()
    }

    /// `true` if the network has no layers.
    pub fn is_empty(&self) -> bool {
        self.layers.is_empty()
    }

    /// Runs the full forward pass.
    pub fn forward(&mut self, input: &Tensor, train: bool) -> Tensor {
        let mut x = input.clone();
        for layer in &mut self.layers {
            x = layer.forward(&x, train);
        }
        x
    }

    /// Inference-only forward over many input chunks at once.
    ///
    /// Drives each layer's [`Layer::forward_chunks`] so matrix-product
    /// layers run all chunks through one batched kernel pass (packing
    /// their weight operand once), with a peephole that folds a `Linear→
    /// Relu` or `Conv2d→Relu` pair into a single fused-epilogue pass.
    /// Layers without a batched path fall back to per-chunk
    /// `forward(chunk, false)`.
    ///
    /// Outputs are bitwise identical to calling [`Sequential::forward`]
    /// per chunk with `train = false`, but no backward state is cached:
    /// do not call [`Sequential::backward`] after this.
    pub fn forward_chunks(&mut self, chunks: &[Tensor]) -> Vec<Tensor> {
        let mut xs: Vec<Tensor> = chunks.to_vec();
        let mut i = 0usize;
        while i < self.layers.len() {
            // Peek (immutably) whether the next layer is a ReLU this layer
            // can fold into its epilogue before the mutable call below.
            let fuse_relu = self.layers[i].supports_fused_relu()
                && self.layers.get(i + 1).is_some_and(|l| l.name() == "Relu");
            let fused = if fuse_relu {
                FusedActivation::Relu
            } else {
                FusedActivation::None
            };
            match self.layers[i].forward_chunks(&xs, fused) {
                Some(ys) => {
                    xs = ys;
                    // A fused pass consumed the following ReLU layer too.
                    i += if fuse_relu { 2 } else { 1 };
                }
                None => {
                    let layer = &mut self.layers[i];
                    xs = xs.iter().map(|x| layer.forward(x, false)).collect();
                    i += 1;
                }
            }
        }
        xs
    }

    /// Backpropagates `∂loss/∂output` through all layers, accumulating
    /// parameter gradients, and returns `∂loss/∂input`.
    pub fn backward(&mut self, grad_output: &Tensor) -> Tensor {
        let mut g = grad_output.clone();
        for layer in self.layers.iter_mut().rev() {
            g = layer.backward(&g);
        }
        g
    }

    /// [`Sequential::backward`] for training loops, which never consume
    /// `∂loss/∂input`: the first layer runs
    /// [`Layer::backward_params_only`], skipping its input-gradient product
    /// (for a leading convolution, the `dcols` GEMM and `col2im` scatter).
    /// Parameter gradients accumulate bitwise identically to `backward`.
    pub fn backward_train(&mut self, grad_output: &Tensor) {
        let mut layers = self.layers.iter_mut().rev();
        let Some(mut prev) = layers.next() else {
            return;
        };
        let mut g = grad_output.clone();
        for layer in layers {
            g = prev.backward(&g);
            prev = layer;
        }
        prev.backward_params_only(&g);
    }

    /// Visits every `(parameter, gradient)` pair mutably in layer order.
    pub fn visit_params_mut(&mut self, f: &mut dyn FnMut(&mut Tensor, &mut Tensor)) {
        for layer in &mut self.layers {
            layer.visit_params_mut(f);
        }
    }

    /// Visits every `(parameter, gradient)` pair immutably in layer order.
    pub fn visit_params(&self, f: &mut dyn FnMut(&Tensor, &Tensor)) {
        for layer in &self.layers {
            layer.visit_params(f);
        }
    }

    /// Zeroes all gradient accumulators.
    pub fn zero_grad(&mut self) {
        for layer in &mut self.layers {
            layer.zero_grad();
        }
    }

    /// Total scalar parameter count.
    pub fn num_params(&self) -> usize {
        self.layers.iter().map(|l| l.num_params()).sum()
    }

    /// Copies all parameters into one flat vector, in visitation order.
    ///
    /// This is the model representation exchanged between edge nodes and
    /// the parameter server (Eqn. 4 of the paper averages these vectors).
    pub fn parameters_flat(&self) -> Vec<f32> {
        let mut out = Vec::with_capacity(self.num_params());
        self.visit_params(&mut |p, _| out.extend_from_slice(p.as_slice()));
        out
    }

    /// Overwrites all parameters from a flat vector produced by
    /// [`Sequential::parameters_flat`] on an identically shaped network.
    ///
    /// # Panics
    ///
    /// Panics if the length does not match the parameter count.
    pub fn set_parameters_flat(&mut self, flat: &[f32]) {
        assert_eq!(
            flat.len(),
            self.num_params(),
            "flat parameter length {} != model size {}",
            flat.len(),
            self.num_params()
        );
        let mut off = 0usize;
        self.visit_params_mut(&mut |p, _| {
            let n = p.numel();
            p.as_mut_slice().copy_from_slice(&flat[off..off + n]);
            off += n;
        });
    }

    /// One-line architecture summary, e.g. `Conv2d→Relu→MaxPool2d→Linear`.
    pub fn summary(&self) -> String {
        self.layers
            .iter()
            .map(|l| l.name())
            .collect::<Vec<_>>()
            .join("→")
    }
}

impl Clone for Sequential {
    /// Deep-copies the network — parameters, gradient accumulators, and
    /// cached forward state — via [`Layer::clone_box`]. The batched
    /// training passes rely on this to replicate a model per input block.
    fn clone(&self) -> Self {
        Self {
            layers: self.layers.iter().map(|l| l.clone_box()).collect(),
        }
    }
}

impl std::fmt::Debug for Sequential {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "Sequential({}, {} params)",
            self.summary(),
            self.num_params()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Linear, Relu};
    use chiron_tensor::TensorRng;

    fn net() -> Sequential {
        let mut rng = TensorRng::seed_from(5);
        let mut n = Sequential::new();
        n.push(Linear::new(3, 4, &mut rng));
        n.push(Relu::new());
        n.push(Linear::new(4, 2, &mut rng));
        n
    }

    #[test]
    fn flat_round_trip_preserves_output() {
        let mut a = net();
        let x = Tensor::ones(&[1, 3]);
        let before = a.forward(&x, false);
        let flat = a.parameters_flat();
        assert_eq!(flat.len(), a.num_params());

        let mut b = net(); // same seed → same shape, same init
        b.set_parameters_flat(&flat);
        let after = b.forward(&x, false);
        assert_eq!(before.as_slice(), after.as_slice());
    }

    #[test]
    fn set_parameters_changes_output() {
        let mut a = net();
        let x = Tensor::ones(&[1, 3]);
        let before = a.forward(&x, false);
        let zeros = vec![0.0; a.num_params()];
        a.set_parameters_flat(&zeros);
        let after = a.forward(&x, false);
        assert_ne!(before.as_slice(), after.as_slice());
        assert_eq!(after.as_slice(), &[0.0, 0.0]);
    }

    #[test]
    fn summary_lists_layers() {
        assert_eq!(net().summary(), "Linear→Relu→Linear");
    }

    #[test]
    #[should_panic(expected = "flat parameter length")]
    fn set_parameters_validates_length() {
        let mut a = net();
        a.set_parameters_flat(&[0.0]);
    }

    #[test]
    fn forward_chunks_matches_per_chunk_forward_bitwise() {
        use crate::{Conv2d, MaxPool2d};
        use chiron_tensor::Init;

        let mut rng = TensorRng::seed_from(11);
        // Conv2d→Relu exercises the fused conv epilogue, Linear→Relu the
        // fused linear epilogue, MaxPool2d the per-chunk fallback, and the
        // final Linear the unfused bias epilogue.
        let mut net = Sequential::new();
        net.push(Conv2d::new(1, 4, 3, 0, 8, 8, &mut rng));
        net.push(Relu::new());
        net.push(MaxPool2d::new(6, 6));
        net.push(crate::models::Flatten::new());
        net.push(Linear::new(4 * 3 * 3, 10, &mut rng));
        net.push(Relu::new());
        net.push(Linear::new(10, 5, &mut rng));

        // Uneven chunk sizes force both the equal-rows grouping and the
        // odd trailing group.
        let chunks: Vec<Tensor> = [3usize, 3, 2]
            .iter()
            .map(|&b| rng.init(&[b, 1, 8, 8], Init::Normal(1.0)))
            .collect();
        let batched = net.clone().forward_chunks(&chunks);
        let mut reference = net.clone();
        for (got, chunk) in batched.iter().zip(&chunks) {
            let want = reference.forward(chunk, false);
            assert_eq!(got.dims(), want.dims());
            let gb: Vec<u32> = got.as_slice().iter().map(|v| v.to_bits()).collect();
            let wb: Vec<u32> = want.as_slice().iter().map(|v| v.to_bits()).collect();
            assert_eq!(gb, wb, "chunked forward diverged from plain forward");
        }
    }

    #[test]
    fn backward_train_matches_backward_param_grads_bitwise() {
        use crate::{Conv2d, MaxPool2d};
        use chiron_tensor::Init;

        let mut rng = TensorRng::seed_from(21);
        // A leading Conv2d (the override that skips dcols/col2im) followed
        // by Linear layers (the override that skips dx = dy·Wᵀ for the
        // first layer — only reached here via the conv, so the Linear
        // override is exercised by the MLP below).
        let mut cnn = Sequential::new();
        cnn.push(Conv2d::new(1, 3, 3, 0, 6, 6, &mut rng));
        cnn.push(Relu::new());
        cnn.push(MaxPool2d::new(4, 4));
        cnn.push(crate::models::Flatten::new());
        cnn.push(Linear::new(3 * 2 * 2, 4, &mut rng));

        let mut mlp = Sequential::new();
        mlp.push(Linear::new(5, 8, &mut rng));
        mlp.push(Relu::new());
        mlp.push(Linear::new(8, 4, &mut rng));

        for (net, dims) in [(&mut cnn, vec![3usize, 1, 6, 6]), (&mut mlp, vec![3, 5])] {
            let x = rng.init(&dims, Init::Normal(1.0));
            let mut a = net.clone();
            let mut b = net.clone();
            let ga = a.forward(&x, true).map(|v| v * 0.1);
            let gb = b.forward(&x, true).map(|v| v * 0.1);
            let _ = a.backward(&ga);
            b.backward_train(&gb);
            let grads = |net: &Sequential| {
                let mut out: Vec<u32> = Vec::new();
                net.visit_params(&mut |_, g| {
                    out.extend(g.as_slice().iter().map(|v| v.to_bits()));
                });
                out
            };
            assert_eq!(
                grads(&a),
                grads(&b),
                "backward_train diverged from backward"
            );
        }
    }

    #[test]
    fn backward_propagates_through_stack() {
        let mut a = net();
        let x = Tensor::ones(&[2, 3]);
        let y = a.forward(&x, true);
        let dx = a.backward(&y.map(|_| 1.0));
        assert_eq!(dx.dims(), &[2, 3]);
    }
}
