//! 2-D convolution computed directly from NCHW batches.

use crate::{FusedActivation, Layer};
use chiron_tensor::{
    col2im, conv2d_forward, conv2d_weight_grad, matmul_views, scratch, Conv2dGeometry, Init,
    MatView, Tensor, TensorRng,
};

/// A 2-D convolution layer over `(N, C_in, H, W)` batches, stride 1.
///
/// The forward pass and the weight gradient run the direct kernels
/// [`conv2d_forward`] and [`conv2d_weight_grad`] on the NCHW tensors. The
/// input gradient is the matrix product `dy·Wᵀ` against the
/// `(C_in·k_h·k_w, C_out)` filter matrix, scattered back by [`col2im`].
///
/// # Examples
///
/// ```
/// use chiron_nn::{Conv2d, Layer};
/// use chiron_tensor::{Tensor, TensorRng};
///
/// let mut rng = TensorRng::seed_from(0);
/// // The paper's MNIST CNN first layer: 1 → 10 channels, 5×5 kernel.
/// let mut conv = Conv2d::new(1, 10, 5, 0, 28, 28, &mut rng);
/// let y = conv.forward(&Tensor::ones(&[2, 1, 28, 28]), true);
/// assert_eq!(y.dims(), &[2, 10, 24, 24]);
/// ```
#[derive(Clone)]
pub struct Conv2d {
    weight: Tensor, // (C_in·k·k, C_out)
    bias: Tensor,   // (C_out)
    grad_weight: Tensor,
    grad_bias: Tensor,
    geo: Conv2dGeometry,
    in_channels: usize,
    out_channels: usize,
    input: Option<Tensor>,
}

impl Conv2d {
    /// Creates a stride-1 convolution for a fixed input geometry.
    ///
    /// Fixing `(in_h, in_w)` at construction matches how the paper's CNNs
    /// are used (each conv sees one spatial size) and lets the layer verify
    /// shapes eagerly.
    pub fn new(
        in_channels: usize,
        out_channels: usize,
        kernel: usize,
        pad: usize,
        in_h: usize,
        in_w: usize,
        rng: &mut TensorRng,
    ) -> Self {
        let geo = Conv2dGeometry::new(in_h, in_w, kernel, kernel, 1, pad);
        let fan = in_channels * kernel * kernel;
        Self {
            weight: rng.init(&[fan, out_channels], Init::HeNormal),
            bias: Tensor::zeros(&[out_channels]),
            grad_weight: Tensor::zeros(&[fan, out_channels]),
            grad_bias: Tensor::zeros(&[out_channels]),
            geo,
            in_channels,
            out_channels,
            input: None,
        }
    }

    /// The output spatial dimensions `(out_h, out_w)`.
    pub fn output_hw(&self) -> (usize, usize) {
        (self.geo.out_h, self.geo.out_w)
    }

    /// Number of output channels.
    pub fn out_channels(&self) -> usize {
        self.out_channels
    }

    fn check_input(&self, input: &Tensor) {
        let dims = input.dims();
        assert_eq!(dims.len(), 4, "Conv2d expects (N, C, H, W), got {dims:?}");
        assert_eq!(dims[1], self.in_channels, "Conv2d: channel mismatch");
    }

    /// Shared head of both backward variants: accumulates `dW` and `db`
    /// from the NCHW gradient and returns the cached input.
    fn accumulate_param_grads(&mut self, grad_output: &Tensor) -> &Tensor {
        let input = self
            .input
            .as_ref()
            .expect("Conv2d::backward called before forward");
        let (batch, c_out) = (input.dims()[0], self.out_channels);
        assert_eq!(
            grad_output.dims(),
            &[batch, c_out, self.geo.out_h, self.geo.out_w],
            "Conv2d: grad shape mismatch"
        );
        let mut dw = Tensor::from_vec(scratch::take_vec(self.weight.numel()), self.weight.dims());
        let mut db = scratch::ScratchBuf::zeroed(c_out);
        conv2d_weight_grad(input, grad_output, &self.geo, dw.as_mut_slice(), &mut db);
        self.grad_weight.axpy(1.0, &dw);
        for (gb, &d) in self.grad_bias.as_mut_slice().iter_mut().zip(db.iter()) {
            *gb += d;
        }
        input
    }
}

/// Source rows per band of [`transpose_into`].
const BAND: usize = 8;

/// Writes the transpose of the row-major `rows × cols` matrix `src` into
/// `dst` (row-major `cols × rows`), a pure permutation copy. It walks `src`
/// in bands of [`BAND`] rows, which stay in L1: each column of a band is
/// gathered into a fixed-size array and stored as one `BAND`-wide run.
/// Rows past the last full band copy element by element.
fn transpose_into(src: &[f32], rows: usize, cols: usize, dst: &mut [f32]) {
    let full = rows - rows % BAND;
    for r0 in (0..full).step_by(BAND) {
        let band = &src[r0 * cols..(r0 + BAND) * cols];
        for c in 0..cols {
            let run: [f32; BAND] = std::array::from_fn(|i| band[i * cols + c]);
            dst[c * rows + r0..][..BAND].copy_from_slice(&run);
        }
    }
    for r in full..rows {
        for c in 0..cols {
            dst[c * rows + r] = src[r * cols + c];
        }
    }
}

impl Layer for Conv2d {
    fn forward(&mut self, input: &Tensor, _train: bool) -> Tensor {
        self.check_input(input);
        let out = conv2d_forward(input, &self.weight, self.bias.as_slice(), &self.geo, false);
        self.input = Some(input.clone());
        out
    }

    fn backward(&mut self, grad_output: &Tensor) -> Tensor {
        let batch = self.accumulate_param_grads(grad_output).dims()[0];
        let p = self.geo.out_positions();
        let c_out = self.out_channels;
        let fan = self.in_channels * self.geo.k_h * self.geo.k_w;
        // dcols = dy (N·P, C_out) · Wᵀ (C_out, fan), from the gradient's
        // `(N·P, C_out)` transpose.
        let mut dyt = scratch::take_vec(batch * p * c_out);
        for (g_img, dyt_img) in grad_output
            .as_slice()
            .chunks_exact(c_out * p)
            .zip(dyt.chunks_exact_mut(p * c_out))
        {
            transpose_into(g_img, c_out, p, dyt_img);
        }
        let dcols = matmul_views(
            &MatView::row_major(&dyt, batch * p, c_out),
            &MatView::transposed(self.weight.as_slice(), c_out, fan),
        );
        scratch::recycle(dyt);
        col2im(&dcols, batch, self.in_channels, &self.geo)
    }

    fn backward_params_only(&mut self, grad_output: &Tensor) {
        // First-layer case: the input gradient is discarded, so the
        // gradient transpose, the `dcols` product and the `col2im` scatter
        // never run.
        self.accumulate_param_grads(grad_output);
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
        let relu = fused == FusedActivation::Relu;
        let outs = inputs
            .iter()
            .map(|x| {
                self.check_input(x);
                conv2d_forward(x, &self.weight, self.bias.as_slice(), &self.geo, relu)
            })
            .collect();
        Some(outs)
    }

    fn name(&self) -> &'static str {
        "Conv2d"
    }

    fn clone_box(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_kernel_computes_cross_correlation() {
        let mut rng = TensorRng::seed_from(0);
        let mut conv = Conv2d::new(1, 1, 2, 0, 3, 3, &mut rng);
        conv.visit_params_mut(&mut |p, _| {
            if p.numel() == 4 {
                *p = Tensor::from_vec(vec![1.0, 0.0, 0.0, 1.0], &[4, 1]);
            } else {
                *p = Tensor::from_vec(vec![0.5], &[1]);
            }
        });
        let x = Tensor::from_vec(
            vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0],
            &[1, 1, 3, 3],
        );
        let y = conv.forward(&x, true);
        // Kernel = [[1,0],[0,1]] so output = x[i,j] + x[i+1,j+1] + 0.5
        assert_eq!(y.dims(), &[1, 1, 2, 2]);
        assert_eq!(y.as_slice(), &[6.5, 8.5, 12.5, 14.5]);
    }

    #[test]
    fn parameter_counts_match_paper_layers() {
        let mut rng = TensorRng::seed_from(1);
        // MNIST CNN conv1: 1→10, 5×5 → 260 params.
        let c1 = Conv2d::new(1, 10, 5, 0, 28, 28, &mut rng);
        assert_eq!(c1.num_params(), 260);
        // MNIST CNN conv2: 10→20, 5×5 → 5020 params.
        let c2 = Conv2d::new(10, 20, 5, 0, 12, 12, &mut rng);
        assert_eq!(c2.num_params(), 5020);
        // LeNet conv1: 3→6 → 456 params.
        let l1 = Conv2d::new(3, 6, 5, 0, 32, 32, &mut rng);
        assert_eq!(l1.num_params(), 456);
    }

    #[test]
    fn backward_returns_input_shaped_grad() {
        let mut rng = TensorRng::seed_from(2);
        let mut conv = Conv2d::new(2, 3, 3, 1, 6, 6, &mut rng);
        let x = rng.init(&[2, 2, 6, 6], Init::Normal(1.0));
        let y = conv.forward(&x, true);
        assert_eq!(y.dims(), &[2, 3, 6, 6]);
        let dx = conv.backward(&Tensor::ones(y.dims()));
        assert_eq!(dx.dims(), x.dims());
        assert!(dx.is_finite());
    }

    #[test]
    fn bias_gradient_counts_positions() {
        let mut rng = TensorRng::seed_from(3);
        let mut conv = Conv2d::new(1, 2, 2, 0, 3, 3, &mut rng);
        let x = Tensor::ones(&[1, 1, 3, 3]);
        let y = conv.forward(&x, true);
        let _ = conv.backward(&Tensor::ones(y.dims()));
        conv.visit_params(&mut |p, g| {
            if p.dims().len() == 1 {
                // 2×2 output positions → bias grad 4 per channel.
                assert_eq!(g.as_slice(), &[4.0, 4.0]);
            }
        });
    }
}
