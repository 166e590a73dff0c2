//! 2-D convolution via `im2col`.

use crate::{FusedActivation, Layer};
use chiron_tensor::{
    col2im, im2col, matmul_batched_into, matmul_views, scratch, Conv2dGeometry, Epilogue, Init,
    MatView, Tensor, TensorRng,
};

/// A 2-D convolution layer over `(N, C_in, H, W)` batches.
///
/// Internally the input is unrolled with [`im2col`] so the convolution and
/// both backward passes are plain matrix products against the
/// `(C_in·k_h·k_w, C_out)` filter matrix.
///
/// # Examples
///
/// ```
/// use chiron_nn::{Conv2d, Layer};
/// use chiron_tensor::{Tensor, TensorRng};
///
/// let mut rng = TensorRng::seed_from(0);
/// // The paper's MNIST CNN first layer: 1 → 10 channels, 5×5 kernel.
/// let mut conv = Conv2d::new(1, 10, 5, 1, 0, 28, 28, &mut rng);
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
    cols: Option<Tensor>,
    batch: usize,
}

impl Conv2d {
    /// Creates a convolution for a fixed input geometry.
    ///
    /// Fixing `(in_h, in_w)` at construction matches how the paper's CNNs
    /// are used (each conv sees one spatial size) and lets the layer verify
    /// shapes eagerly.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        in_channels: usize,
        out_channels: usize,
        kernel: usize,
        stride: usize,
        pad: usize,
        in_h: usize,
        in_w: usize,
        rng: &mut TensorRng,
    ) -> Self {
        let geo = Conv2dGeometry::new(in_h, in_w, kernel, kernel, stride, pad);
        let fan = in_channels * kernel * kernel;
        Self {
            weight: rng.init(&[fan, out_channels], Init::HeNormal),
            bias: Tensor::zeros(&[out_channels]),
            grad_weight: Tensor::zeros(&[fan, out_channels]),
            grad_bias: Tensor::zeros(&[out_channels]),
            geo,
            in_channels,
            out_channels,
            cols: None,
            batch: 0,
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

    /// Transposes a `(N·P, C_out)` column-matrix result into an NCHW
    /// output tensor.
    fn cols_to_nchw(&self, src: &[f32], batch: usize) -> Tensor {
        let p = self.geo.out_positions();
        let c_out = self.out_channels;
        let mut out = scratch::take_vec(batch * c_out * p);
        for (src_img, out_img) in src
            .chunks_exact(p * c_out)
            .zip(out.chunks_exact_mut(c_out * p))
        {
            transpose_into(src_img, p, c_out, out_img);
        }
        Tensor::from_vec(out, &[batch, c_out, self.geo.out_h, self.geo.out_w])
    }

    /// Shared head of both backward variants: accumulates `dW` and `db`
    /// from the NCHW gradient and returns the materialized `(N·P, C_out)`
    /// gradient transpose (a scratch buffer the caller recycles, or feeds
    /// to the `dcols` product first).
    ///
    /// Materializing the transpose once is a pure permutation copy
    /// (numerically invisible), after which both products run on plain
    /// row-major views and the fixed-width packing paths; a strided view
    /// of the NCHW gradient would pack through a div/mod per element.
    fn accumulate_param_grads(&mut self, grad_output: &Tensor) -> Vec<f32> {
        let cols = self
            .cols
            .as_ref()
            .expect("Conv2d::backward called before forward");
        let p = self.geo.out_positions();
        let c_out = self.out_channels;
        assert_eq!(
            grad_output.dims(),
            &[self.batch, c_out, self.geo.out_h, self.geo.out_w],
            "Conv2d: grad shape mismatch"
        );

        let g = grad_output.as_slice();
        let mut dyt = scratch::take_vec(self.batch * p * c_out);
        for (g_img, dyt_img) in g
            .chunks_exact(c_out * p)
            .zip(dyt.chunks_exact_mut(p * c_out))
        {
            transpose_into(g_img, c_out, p, dyt_img);
        }
        let fan = self.in_channels * self.geo.k_h * self.geo.k_w;

        // dW = colsᵀ (fan, N·P) · dy (N·P, C_out).
        let dw = matmul_views(
            &MatView::transposed(cols.as_slice(), fan, self.batch * p),
            &MatView::row_major(&dyt, self.batch * p, c_out),
        );
        self.grad_weight.axpy(1.0, &dw);

        // dBias: per-channel sum of the gradient over the `(N·P, C_out)`
        // copy, all channels advancing together one row at a time, so each
        // channel still folds its terms in (img, pos)-ascending order from
        // zero — the order `sum_rows` uses on that layout.
        let mut acc = scratch::ScratchBuf::zeroed(c_out);
        for row in dyt.chunks_exact(c_out) {
            for (a, &v) in acc.iter_mut().zip(row) {
                *a += v;
            }
        }
        for (gb, &a) in self.grad_bias.as_mut_slice().iter_mut().zip(acc.iter()) {
            *gb += a;
        }
        dyt
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
        let dims = input.dims();
        assert_eq!(dims.len(), 4, "Conv2d expects (N, C, H, W), got {dims:?}");
        assert_eq!(dims[1], self.in_channels, "Conv2d: channel mismatch");
        self.batch = dims[0];

        let cols = im2col(input, self.in_channels, &self.geo);
        // (N·P, fan) · (fan, C_out) → (N·P, C_out), P = out_h·out_w, with
        // the bias folded into the kernel epilogue (bitwise identical to a
        // separate broadcast add).
        let out_cols = cols.matmul_bias(&self.weight, &self.bias);
        self.cols = Some(cols);
        self.cols_to_nchw(out_cols.as_slice(), self.batch)
    }

    fn backward(&mut self, grad_output: &Tensor) -> Tensor {
        let dyt = self.accumulate_param_grads(grad_output);
        let p = self.geo.out_positions();
        let c_out = self.out_channels;
        let fan = self.in_channels * self.geo.k_h * self.geo.k_w;
        // dcols = dy (N·P, C_out) · Wᵀ (C_out, fan).
        let dcols = matmul_views(
            &MatView::row_major(&dyt, self.batch * p, c_out),
            &MatView::transposed(self.weight.as_slice(), c_out, fan),
        );
        scratch::recycle(dyt);
        col2im(&dcols, self.batch, self.in_channels, &self.geo)
    }

    fn backward_params_only(&mut self, grad_output: &Tensor) {
        // First-layer case: the input gradient is discarded, so the
        // `dcols` product and the `col2im` scatter never run.
        let dyt = self.accumulate_param_grads(grad_output);
        scratch::recycle(dyt);
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
        let ep = match fused {
            FusedActivation::None => Epilogue::Bias(self.bias.as_slice()),
            FusedActivation::Relu => Epilogue::BiasRelu(self.bias.as_slice()),
        };
        let fan = self.in_channels * self.geo.k_h * self.geo.k_w;
        let p = self.geo.out_positions();
        let c_out = self.out_channels;
        let bview = MatView::row_major(self.weight.as_slice(), fan, c_out);
        // Unroll every chunk up front; the geometry is fixed, so chunks
        // differ only in batch size (typically just the last one).
        let cols: Vec<(Tensor, usize)> = inputs
            .iter()
            .map(|x| {
                let dims = x.dims();
                assert_eq!(dims.len(), 4, "Conv2d expects (N, C, H, W), got {dims:?}");
                assert_eq!(dims[1], self.in_channels, "Conv2d: channel mismatch");
                (im2col(x, self.in_channels, &self.geo), dims[0])
            })
            .collect();
        let mut outs: Vec<Tensor> = Vec::with_capacity(inputs.len());
        // Batch maximal runs of equal-batch chunks through one blocked
        // pass sharing the packed filter panel. The fused ReLU (applied on
        // the (N·P, C_out) layout) commutes with the NCHW transpose below
        // because both are elementwise/permutation-only.
        let mut start = 0usize;
        while start < cols.len() {
            let batch = cols[start].1;
            let mut end = start + 1;
            while end < cols.len() && cols[end].1 == batch {
                end += 1;
            }
            let group = &cols[start..end];
            let a_views: Vec<MatView<'_>> = group
                .iter()
                .map(|(c, _)| MatView::row_major(c.as_slice(), batch * p, fan))
                .collect();
            let mut group_cols: Vec<Tensor> = group
                .iter()
                .map(|_| Tensor::zeros(&[batch * p, c_out]))
                .collect();
            {
                let mut out_slices: Vec<&mut [f32]> =
                    group_cols.iter_mut().map(|t| t.as_mut_slice()).collect();
                matmul_batched_into(&a_views, &bview, &mut out_slices, ep);
            }
            for oc in &group_cols {
                outs.push(self.cols_to_nchw(oc.as_slice(), batch));
            }
            start = end;
        }
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
        let mut conv = Conv2d::new(1, 1, 2, 1, 0, 3, 3, &mut rng);
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
        let c1 = Conv2d::new(1, 10, 5, 1, 0, 28, 28, &mut rng);
        assert_eq!(c1.num_params(), 260);
        // MNIST CNN conv2: 10→20, 5×5 → 5020 params.
        let c2 = Conv2d::new(10, 20, 5, 1, 0, 12, 12, &mut rng);
        assert_eq!(c2.num_params(), 5020);
        // LeNet conv1: 3→6 → 456 params.
        let l1 = Conv2d::new(3, 6, 5, 1, 0, 32, 32, &mut rng);
        assert_eq!(l1.num_params(), 456);
    }

    #[test]
    fn backward_returns_input_shaped_grad() {
        let mut rng = TensorRng::seed_from(2);
        let mut conv = Conv2d::new(2, 3, 3, 1, 1, 6, 6, &mut rng);
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
        let mut conv = Conv2d::new(1, 2, 2, 1, 0, 3, 3, &mut rng);
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
