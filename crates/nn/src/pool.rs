//! Max pooling.

use crate::Layer;
use chiron_tensor::{scratch, Conv2dGeometry, Tensor};

/// Non-overlapping 2×2 max pooling over `(N, C, H, W)` batches.
///
/// The paper's CNNs use 2×2 pooling after each convolution, and that is the
/// only window this layer implements. It records each window's argmax
/// during `forward` and routes the incoming gradient to exactly that
/// element during `backward`.
///
/// # Examples
///
/// ```
/// use chiron_nn::{Layer, MaxPool2d};
/// use chiron_tensor::Tensor;
///
/// let mut pool = MaxPool2d::new(24, 24);
/// let y = pool.forward(&Tensor::ones(&[1, 10, 24, 24]), true);
/// assert_eq!(y.dims(), &[1, 10, 12, 12]);
/// ```
#[derive(Clone)]
pub struct MaxPool2d {
    geo: Conv2dGeometry,
    argmax: Vec<usize>,
    input_dims: Vec<usize>,
}

impl MaxPool2d {
    /// Creates a 2×2, stride-2 pooling layer over a fixed `(in_h, in_w)`
    /// geometry.
    ///
    /// # Panics
    ///
    /// Panics if the window does not evenly tile the input (the only mode
    /// the paper's networks need).
    pub fn new(in_h: usize, in_w: usize) -> Self {
        assert!(
            in_h.is_multiple_of(2) && in_w.is_multiple_of(2),
            "MaxPool2d: 2x2 window must tile input {in_h}x{in_w}"
        );
        Self {
            geo: Conv2dGeometry::new(in_h, in_w, 2, 2, 2, 0),
            argmax: Vec::new(),
            input_dims: Vec::new(),
        }
    }

    /// The output spatial dimensions `(out_h, out_w)`.
    pub fn output_hw(&self) -> (usize, usize) {
        (self.geo.out_h, self.geo.out_w)
    }
}

impl Layer for MaxPool2d {
    fn forward(&mut self, input: &Tensor, _train: bool) -> Tensor {
        let dims = input.dims();
        assert_eq!(dims.len(), 4, "MaxPool2d expects (N, C, H, W)");
        assert_eq!(
            (dims[2], dims[3]),
            (self.geo.in_h, self.geo.in_w),
            "MaxPool2d: spatial dims mismatch"
        );
        let (n, c, h, w) = (dims[0], dims[1], dims[2], dims[3]);
        let (oh, ow) = (self.geo.out_h, self.geo.out_w);
        let x = input.as_slice();
        let len = n * c * oh * ow;
        // Every output and argmax slot is written below, so neither buffer
        // needs clearing; the argmax buffer is reused across same-shape steps.
        let mut out = scratch::take_vec(len);
        self.argmax.resize(len, 0);

        // Each window scans its four elements top row first, left to right,
        // from `(-inf, top-left)` with a strict `>`: the first maximum wins,
        // NaNs never win, and an all-NaN/-inf window keeps `-inf` and routes
        // its gradient to its own top-left element. The selects compile to
        // conditional moves.
        let out_rows = out
            .chunks_exact_mut(ow)
            .zip(self.argmax.chunks_exact_mut(ow));
        for (row, (out_row, arg_row)) in out_rows.enumerate() {
            let top = (row / oh * h + row % oh * 2) * w;
            let pairs = x[top..top + w]
                .chunks_exact(2)
                .zip(x[top + w..top + 2 * w].chunks_exact(2));
            for (ox, ((o, a), (t, b))) in out_row
                .iter_mut()
                .zip(arg_row.iter_mut())
                .zip(pairs)
                .enumerate()
            {
                let i = top + 2 * ox;
                let mut best = f32::NEG_INFINITY;
                let mut best_idx = i;
                for (v, idx) in [(t[0], i), (t[1], i + 1), (b[0], i + w), (b[1], i + w + 1)] {
                    let take = v > best;
                    best = if take { v } else { best };
                    best_idx = if take { idx } else { best_idx };
                }
                *o = best;
                *a = best_idx;
            }
        }
        if self.input_dims != dims {
            self.input_dims = dims.to_vec();
        }
        Tensor::from_vec(out, &[n, c, oh, ow])
    }

    fn backward(&mut self, grad_output: &Tensor) -> Tensor {
        assert!(
            !self.input_dims.is_empty(),
            "MaxPool2d::backward called before forward"
        );
        assert_eq!(
            grad_output.numel(),
            self.argmax.len(),
            "MaxPool2d: grad element count mismatch"
        );
        let mut dx = Tensor::zeros(&self.input_dims);
        let dxs = dx.as_mut_slice();
        for (&src_idx, &g) in self.argmax.iter().zip(grad_output.as_slice()) {
            dxs[src_idx] += g;
        }
        dx
    }

    fn name(&self) -> &'static str {
        "MaxPool2d"
    }

    fn clone_box(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn picks_window_maxima() {
        let mut pool = MaxPool2d::new(4, 4);
        #[rustfmt::skip]
        let x = Tensor::from_vec(vec![
            1.0, 2.0, 3.0, 4.0,
            5.0, 6.0, 7.0, 8.0,
            9.0, 1.0, 2.0, 3.0,
            4.0, 5.0, 6.0, 7.0,
        ], &[1, 1, 4, 4]);
        let y = pool.forward(&x, true);
        assert_eq!(y.dims(), &[1, 1, 2, 2]);
        assert_eq!(y.as_slice(), &[6.0, 8.0, 9.0, 7.0]);
    }

    #[test]
    fn backward_routes_to_argmax_only() {
        let mut pool = MaxPool2d::new(2, 2);
        let x = Tensor::from_vec(vec![1.0, 4.0, 2.0, 3.0], &[1, 1, 2, 2]);
        let _ = pool.forward(&x, true);
        let dx = pool.backward(&Tensor::from_vec(vec![10.0], &[1, 1, 1, 1]));
        assert_eq!(dx.as_slice(), &[0.0, 10.0, 0.0, 0.0]);
    }

    #[test]
    fn multichannel_pooling_is_independent() {
        let mut pool = MaxPool2d::new(2, 2);
        let x = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 8.0, 7.0, 6.0, 5.0], &[1, 2, 2, 2]);
        let y = pool.forward(&x, true);
        assert_eq!(y.as_slice(), &[4.0, 8.0]);
    }

    #[test]
    fn first_maximum_wins_and_nan_never_does() {
        let mut pool = MaxPool2d::new(2, 4);
        #[rustfmt::skip]
        let x = Tensor::from_vec(vec![
            f32::NAN, 3.0, f32::NAN, f32::NAN,
            3.0,      1.0, f32::NAN, f32::NAN,
        ], &[1, 1, 2, 4]);
        let y = pool.forward(&x, true);
        assert_eq!(y.as_slice()[0], 3.0);
        assert_eq!(y.as_slice()[1], f32::NEG_INFINITY);
        // The tie goes to the first 3.0 (index 1); the all-NaN window keeps
        // its own top-left element (index 2).
        let dx = pool.backward(&Tensor::from_vec(vec![1.0, 2.0], &[1, 1, 1, 2]));
        assert_eq!(&dx.as_slice()[..4], &[0.0, 1.0, 2.0, 0.0]);
        assert!(dx.as_slice()[4..].iter().all(|&g| g == 0.0));
    }

    #[test]
    #[should_panic(expected = "must tile input")]
    fn rejects_non_tiling_window() {
        let _ = MaxPool2d::new(5, 5);
    }

    #[test]
    fn pool_has_no_params() {
        assert_eq!(MaxPool2d::new(4, 4).num_params(), 0);
    }
}
