//! Direct convolution kernels over NCHW batches, and the `col2im` scatter.
//!
//! A 2-D convolution of an `(N, C, H, W)` batch with `K` output channels
//! and `R×S` kernels reads its filters as a `(C·R·S, K)` matrix `W`: row
//! `(c·R + r)·S + s`, column `f`. [`conv2d_forward`] and
//! [`conv2d_weight_grad`] compute the forward pass and `∂L/∂W` straight from
//! the NCHW tensors, with no unrolled copy and no matrix product. Each
//! output element is one `f32` accumulator that starts at `+0.0` and takes
//! an unfused multiply then add per term, the input operand first:
//!
//! ```text
//! y[n][f][oy][ox] = fold((c, r, s) ascending) { acc + x[n][c][oy+r][ox+s] · W[(c,r,s)][f] }
//!                   then + bias[f], then .max(0.0) when ReLU is fused
//! dW[(c,r,s)][f]  = fold((n, oy, ox) ascending) { acc + x[n][c][oy+r][ox+s] · dy[n][f][oy][ox] }
//! ```
//!
//! Term for term, that is the canonical matmul fold (see
//! [`kernel`](crate::kernel)) of the unrolled formulation, `cols·W` plus a
//! bias epilogue and `colsᵀ·dy`, where `cols` holds one receptive field per
//! row. So both kernels give the bits those products give, on every tier.
//!
//! On the AVX2 tier the forward kernel holds 8 adjacent output columns of a
//! block of up to 12 output channels in registers, one vector per channel;
//! the weight-gradient kernel lays its lanes along `s`, one vector per
//! `(c, r)` row and output channel. Lanes never combine, so each lane runs
//! its element's fold exactly. Other tiers run portable loops with the same
//! per-element fold. Padding runs the same kernels on a zero-bordered copy
//! of the input, whose zeros are the unrolled formulation's padding terms.
//!
//! The input gradient keeps the unrolled formulation: the conv layer forms
//! `dy·Wᵀ` through the matmul kernel, and [`col2im`], the adjoint of the
//! unrolling, scatters it back into image layout. Its interior kernel rows
//! add as one run of `k_w` floats, at a compile-time width for the paper's
//! 5-wide kernels ([`FIXED_KW`]).

use crate::kernel::simd::{self, DispatchTier};
use crate::{pool, scratch, Tensor};

/// Multiply-adds below which the kernels run serially; the pool fan-out
/// costs more than it saves. A performance gate only: each element is
/// produced by the same fold either way.
const PARALLEL_MACS_THRESHOLD: usize = 1 << 18;

/// Minimum output elements before `col2im` dispatches to the pool.
const PARALLEL_ELEMS_THRESHOLD: usize = 1 << 16;

/// Output channels per weight-gradient task: the unit the pool fans out,
/// fixed by the shape so the partition is the same at every thread count.
const WGRAD_CHANNELS: usize = 2;

/// Kernel width whose `col2im` runs are compiled at a fixed width: both
/// paper CNNs use 5×5 kernels. `KW == 0` means the runtime width `geo.k_w`.
const FIXED_KW: usize = 5;

/// Scatter-adds every unrolled row belonging to image `img` back into that
/// image's `(C, H, W)` slab. Rows are visited in ascending order — the same
/// accumulation order the image sees on the serial path — and an interior
/// kernel row adds as one `k_w`-float run.
fn col2im_image<const KW: usize>(
    src: &[f32],
    img: usize,
    channels: usize,
    geo: &Conv2dGeometry,
    slab: &mut [f32],
) {
    let (h, w) = (geo.in_h, geo.in_w);
    let k_w = if KW == 0 { geo.k_w } else { KW };
    let row_len = channels * geo.k_h * k_w;
    let positions = geo.out_positions();
    let mut rows = src[img * positions * row_len..][..positions * row_len].chunks_exact(row_len);
    for oy in 0..geo.out_h {
        let iy0 = (oy * geo.stride) as isize - geo.pad as isize;
        for ox in 0..geo.out_w {
            let ix0 = (ox * geo.stride) as isize - geo.pad as isize;
            let full_x = ix0 >= 0 && ix0 as usize + k_w <= w;
            let mut runs = rows.next().expect("one row per position").chunks_exact(k_w);
            for ch in 0..channels {
                let ch_off = ch * h * w;
                for ky in 0..geo.k_h {
                    let run = runs.next().expect("one run per kernel row");
                    let iy = iy0 + ky as isize;
                    if iy < 0 || (iy as usize) >= h {
                        continue;
                    }
                    let dst_row = ch_off + iy as usize * w;
                    if full_x {
                        let d = dst_row + ix0 as usize;
                        for (o, s) in slab[d..d + k_w].iter_mut().zip(run) {
                            *o += s;
                        }
                    } else {
                        for (kx, s) in run.iter().enumerate() {
                            let ix = ix0 + kx as isize;
                            if ix >= 0 && (ix as usize) < w {
                                slab[dst_row + ix as usize] += s;
                            }
                        }
                    }
                }
            }
        }
    }
}

/// Static geometry of a conv/pool window: input size, kernel, stride,
/// padding, and the derived output size.
///
/// # Examples
///
/// ```
/// use chiron_tensor::Conv2dGeometry;
///
/// // The paper's MNIST CNN first layer: 28×28 input, 5×5 kernel, stride 1.
/// let g = Conv2dGeometry::new(28, 28, 5, 5, 1, 0);
/// assert_eq!((g.out_h, g.out_w), (24, 24));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Conv2dGeometry {
    /// Input height.
    pub in_h: usize,
    /// Input width.
    pub in_w: usize,
    /// Kernel height.
    pub k_h: usize,
    /// Kernel width.
    pub k_w: usize,
    /// Stride (same for both axes).
    pub stride: usize,
    /// Zero padding (same on all sides).
    pub pad: usize,
    /// Output height.
    pub out_h: usize,
    /// Output width.
    pub out_w: usize,
}

impl Conv2dGeometry {
    /// Computes output dimensions from the window parameters.
    ///
    /// # Panics
    ///
    /// Panics if the kernel (plus padding) does not fit in the input or the
    /// stride is zero.
    pub fn new(
        in_h: usize,
        in_w: usize,
        k_h: usize,
        k_w: usize,
        stride: usize,
        pad: usize,
    ) -> Self {
        assert!(stride > 0, "stride must be positive");
        assert!(
            in_h + 2 * pad >= k_h && in_w + 2 * pad >= k_w,
            "kernel {k_h}x{k_w} larger than padded input {}x{}",
            in_h + 2 * pad,
            in_w + 2 * pad
        );
        let out_h = (in_h + 2 * pad - k_h) / stride + 1;
        let out_w = (in_w + 2 * pad - k_w) / stride + 1;
        Self {
            in_h,
            in_w,
            k_h,
            k_w,
            stride,
            pad,
            out_h,
            out_w,
        }
    }

    /// Number of output spatial positions.
    pub fn out_positions(&self) -> usize {
        self.out_h * self.out_w
    }
}

/// Checks a conv input against `geo` and returns `(N, C)`.
fn conv_input_dims(x: &Tensor, geo: &Conv2dGeometry) -> (usize, usize) {
    let dims = x.dims();
    assert_eq!(dims.len(), 4, "conv expects (N, C, H, W), got {dims:?}");
    assert_eq!(
        (dims[2], dims[3]),
        (geo.in_h, geo.in_w),
        "spatial dims mismatch"
    );
    assert_eq!(geo.stride, 1, "direct conv kernels run at stride 1");
    (dims[0], dims[1])
}

/// The input as the kernels read it: `x` itself when `geo` has no padding,
/// else a copy with a `pad`-wide zero border, with the matching unpadded
/// geometry.
fn zero_bordered(x: &Tensor, geo: &Conv2dGeometry) -> (Option<Vec<f32>>, Conv2dGeometry) {
    if geo.pad == 0 {
        return (None, *geo);
    }
    let (n, c) = (x.dims()[0], x.dims()[1]);
    let (h, w, p) = (geo.in_h, geo.in_w, geo.pad);
    let g = Conv2dGeometry::new(h + 2 * p, w + 2 * p, geo.k_h, geo.k_w, 1, 0);
    let mut out = scratch::take_vec(n * c * g.in_h * g.in_w);
    for (src, dst) in x
        .as_slice()
        .chunks_exact(h * w)
        .zip(out.chunks_exact_mut(g.in_h * g.in_w))
    {
        for (row, dst_row) in src
            .chunks_exact(w)
            .zip(dst[p * g.in_w..].chunks_exact_mut(g.in_w))
        {
            dst_row[p..p + w].copy_from_slice(row);
        }
    }
    (Some(out), g)
}

/// Direct convolution forward pass: `x` `(N, C, H, W)`, filters `w`
/// `(C·k_h·k_w, K)` and `bias` `(K)` give the `(N, K, out_h, out_w)`
/// output, with ReLU applied when `relu` is set. Bitwise equal to the
/// unrolled product `cols·W` with its bias (and ReLU) epilogue.
///
/// # Panics
///
/// Panics if `x` is not rank-4 with `geo`'s spatial dims, `geo.stride` is
/// not 1, or `w`/`bias` do not match the channel counts.
///
/// # Examples
///
/// ```
/// use chiron_tensor::{conv2d_forward, Conv2dGeometry, Tensor};
///
/// // 2×2 kernel [[1, 0], [0, 1]] over a 3×3 image, bias 0.5.
/// let x = Tensor::from_vec((1..=9).map(|v| v as f32).collect(), &[1, 1, 3, 3]);
/// let w = Tensor::from_vec(vec![1.0, 0.0, 0.0, 1.0], &[4, 1]);
/// let geo = Conv2dGeometry::new(3, 3, 2, 2, 1, 0);
/// let y = conv2d_forward(&x, &w, &[0.5], &geo, false);
/// assert_eq!(y.as_slice(), &[6.5, 8.5, 12.5, 14.5]);
/// ```
pub fn conv2d_forward(
    x: &Tensor,
    w: &Tensor,
    bias: &[f32],
    geo: &Conv2dGeometry,
    relu: bool,
) -> Tensor {
    forward_on(simd::active_tier(), x, w, bias, geo, relu)
}

/// [`conv2d_forward`] on an explicit dispatch tier.
fn forward_on(
    tier: DispatchTier,
    x: &Tensor,
    w: &Tensor,
    bias: &[f32],
    geo: &Conv2dGeometry,
    relu: bool,
) -> Tensor {
    let (n, c_in) = conv_input_dims(x, geo);
    let fan = c_in * geo.k_h * geo.k_w;
    assert_eq!(w.dims().len(), 2, "conv filters must be (C·k_h·k_w, K)");
    assert_eq!(w.dims()[0], fan, "conv filter rows must equal C·k_h·k_w");
    let c_out = w.dims()[1];
    assert_eq!(bias.len(), c_out, "conv bias length must equal K");
    let (bordered, g) = zero_bordered(x, geo);
    let xs = bordered.as_deref().unwrap_or(x.as_slice());
    let img_len = c_in * g.in_h * g.in_w;
    let plane = c_out * g.out_positions();
    let image = |img: usize, out: &mut [f32]| {
        let x_img = &xs[img * img_len..][..img_len];
        if !simd::conv_forward(tier, x_img, w.as_slice(), bias, &g, c_in, relu, out) {
            forward_image(x_img, w.as_slice(), bias, &g, c_in, relu, out);
        }
    };
    let mut out = scratch::take_vec(n * plane);
    if n > 1 && n * plane * fan >= PARALLEL_MACS_THRESHOLD {
        pool::parallel_chunks_mut(&mut out, plane, image);
    } else {
        for (img, o) in out.chunks_exact_mut(plane).enumerate() {
            image(img, o);
        }
    }
    if let Some(b) = bordered {
        scratch::recycle(b);
    }
    Tensor::from_vec(out, &[n, c_out, g.out_h, g.out_w])
}

/// Portable forward pass over one image into a zeroed `(K, out_h, out_w)`
/// slab: each output row advances all its columns one term at a time, so
/// every element folds its `(c, r, s)` terms in ascending order.
fn forward_image(
    x: &[f32],
    w: &[f32],
    bias: &[f32],
    geo: &Conv2dGeometry,
    c_in: usize,
    relu: bool,
    out: &mut [f32],
) {
    let c_out = bias.len();
    for (f, (plane, &b)) in out
        .chunks_exact_mut(geo.out_positions())
        .zip(bias)
        .enumerate()
    {
        for (oy, row) in plane.chunks_exact_mut(geo.out_w).enumerate() {
            for c in 0..c_in {
                for r in 0..geo.k_h {
                    let x_row = &x[(c * geo.in_h + oy + r) * geo.in_w..][..geo.in_w];
                    for s in 0..geo.k_w {
                        let wv = w[((c * geo.k_h + r) * geo.k_w + s) * c_out + f];
                        for (o, &xv) in row.iter_mut().zip(&x_row[s..]) {
                            *o += xv * wv;
                        }
                    }
                }
            }
            for o in row.iter_mut() {
                *o += b;
                if relu {
                    *o = o.max(0.0);
                }
            }
        }
    }
}

/// Direct parameter gradients for input `x` `(N, C, H, W)` and output
/// gradient `dy` `(N, K, out_h, out_w)`: writes `∂L/∂W` `(C·k_h·k_w, K)`
/// into `dw` and `∂L/∂bias` `(K)` into `db`, overwriting both. `dw` is
/// bitwise equal to the unrolled product `colsᵀ·dy`; each `db[f]` folds
/// `dy[n][f][oy][ox]` over `(n, oy, ox)` ascending from `+0.0`.
///
/// # Panics
///
/// Panics if `x` is not rank-4 with `geo`'s spatial dims, `geo.stride` is
/// not 1, `dy` does not have the output shape, or `dw`/`db` have the wrong
/// length.
pub fn conv2d_weight_grad(
    x: &Tensor,
    dy: &Tensor,
    geo: &Conv2dGeometry,
    dw: &mut [f32],
    db: &mut [f32],
) {
    weight_grad_on(simd::active_tier(), x, dy, geo, dw, db);
}

/// [`conv2d_weight_grad`] on an explicit dispatch tier.
fn weight_grad_on(
    tier: DispatchTier,
    x: &Tensor,
    dy: &Tensor,
    geo: &Conv2dGeometry,
    dw: &mut [f32],
    db: &mut [f32],
) {
    let (n, c_in) = conv_input_dims(x, geo);
    let d = dy.dims();
    assert!(
        d.len() == 4 && d[0] == n && (d[2], d[3]) == (geo.out_h, geo.out_w),
        "conv output gradient must be (N, K, out_h, out_w), got {d:?}"
    );
    let c_out = d[1];
    let fan = c_in * geo.k_h * geo.k_w;
    assert_eq!(
        dw.len(),
        fan * c_out,
        "conv weight gradient length mismatch"
    );
    assert_eq!(db.len(), c_out, "conv bias gradient length mismatch");
    let (bordered, g) = zero_bordered(x, geo);
    let xs = bordered.as_deref().unwrap_or(x.as_slice());
    let img_len = c_in * g.in_h * g.in_w;
    // The vector kernel reads 8 floats from the last column of a kernel
    // row, past the end of the last image; it reads that image from a copy
    // with 8 floats of slack.
    let mut last = scratch::take_vec_with_capacity(img_len + 8);
    last.extend_from_slice(&xs[(n - 1) * img_len..]);
    last.resize(img_len + 8, 0.0);
    let dys = dy.as_slice();
    // One row per output channel, `C·k_h·k_w` weights then the bias, so
    // each task owns whole rows.
    let row = fan + 1;
    let mut grads = scratch::take_vec(c_out * row);
    let task = |block: usize, rows: &mut [f32]| {
        let (f0, nf) = (block * WGRAD_CHANNELS, rows.len() / row);
        if !simd::conv_weight_grad(tier, xs, &last, dys, &g, n, c_in, c_out, f0, nf, rows) {
            weight_grad_channels(xs, dys, &g, n, c_in, c_out, f0, rows);
        }
    };
    if n * geo.out_positions() * fan * c_out >= PARALLEL_MACS_THRESHOLD {
        pool::parallel_chunks_mut(&mut grads, WGRAD_CHANNELS * row, task);
    } else {
        for (block, rows) in grads.chunks_mut(WGRAD_CHANNELS * row).enumerate() {
            task(block, rows);
        }
    }
    for (k, dw_row) in dw.chunks_exact_mut(c_out).enumerate() {
        for (f, v) in dw_row.iter_mut().enumerate() {
            *v = grads[f * row + k];
        }
    }
    for (f, v) in db.iter_mut().enumerate() {
        *v = grads[f * row + fan];
    }
    scratch::recycle(grads);
    scratch::recycle(last);
    if let Some(b) = bordered {
        scratch::recycle(b);
    }
}

/// Portable parameter gradients for output channels `f0..`, one zeroed
/// row of `rows` per channel: `C·k_h·k_w` weights, then the bias. Each
/// `(c, r)` kernel row advances its `k_w` elements together over
/// `(n, oy, ox)` ascending; the bias folds `dy` in the same order.
#[allow(clippy::too_many_arguments)]
fn weight_grad_channels(
    x: &[f32],
    dy: &[f32],
    geo: &Conv2dGeometry,
    n: usize,
    c_in: usize,
    c_out: usize,
    f0: usize,
    rows: &mut [f32],
) {
    let (in_hw, p) = (geo.in_h * geo.in_w, geo.out_positions());
    let fan = c_in * geo.k_h * geo.k_w;
    for (j, row) in rows.chunks_exact_mut(fan + 1).enumerate() {
        let (dw_f, db_f) = row.split_at_mut(fan);
        let planes = dy[(f0 + j) * p..].chunks(c_out * p).take(n);
        db_f[0] = planes.fold(0.0, |acc, plane| plane[..p].iter().fold(acc, |a, &d| a + d));
        for (q, acc) in dw_f.chunks_exact_mut(geo.k_w).enumerate() {
            let (c, r) = (q / geo.k_h, q % geo.k_h);
            for img in 0..n {
                let x_img = &x[(img * c_in + c) * in_hw + r * geo.in_w..];
                let dy_plane = &dy[(img * c_out + f0 + j) * p..][..p];
                for (oy, dy_row) in dy_plane.chunks_exact(geo.out_w).enumerate() {
                    let x_row = &x_img[oy * geo.in_w..];
                    for (ox, &d) in dy_row.iter().enumerate() {
                        for (a, &xv) in acc.iter_mut().zip(&x_row[ox..]) {
                            *a += xv * d;
                        }
                    }
                }
            }
        }
    }
}

/// Scatter-adds a `(N·out_h·out_w, C·k_h·k_w)` column matrix back into image
/// layout `(N, C, H, W)`: each row holds one output position's gradient
/// with respect to its receptive field. This is the adjoint of unrolling
/// the receptive fields into rows, and gives the conv input gradient from
/// `dy·Wᵀ`.
///
/// # Panics
///
/// Panics if `cols` is not `(n·out_h·out_w, channels·k_h·k_w)`.
pub fn col2im(cols: &Tensor, n: usize, channels: usize, geo: &Conv2dGeometry) -> Tensor {
    let row_len = channels * geo.k_h * geo.k_w;
    let rows = n * geo.out_positions();
    assert_eq!(
        cols.dims(),
        &[rows, row_len],
        "col2im: expected ({rows}, {row_len}), got {:?}",
        cols.dims()
    );
    let (h, w) = (geo.in_h, geo.in_w);
    let src = cols.as_slice();
    let mut out = scratch::take_vec(n * channels * h * w);

    // Overlapping windows scatter-add into the image, so the partition is
    // per image: rows of different images write disjoint slabs, and within
    // an image the rows accumulate in the same ascending order the serial
    // path uses — bitwise identical for every thread count.
    let image = if geo.k_w == FIXED_KW {
        col2im_image::<FIXED_KW>
    } else {
        col2im_image::<0>
    };
    let slab = channels * h * w;
    if n > 1 && n * slab >= PARALLEL_ELEMS_THRESHOLD && pool::threads() > 1 {
        pool::parallel_chunks_mut(&mut out, slab, |img, chunk| {
            image(src, img, channels, geo, chunk);
        });
    } else {
        for (img, chunk) in out.chunks_mut(slab).enumerate() {
            image(src, img, channels, geo, chunk);
        }
    }
    Tensor::from_vec(out, &[n, channels, h, w])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{detect, Init, TensorRng};

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// `x[img][c][iy - pad][ix - pad]`, zero outside the image.
    fn padded_at(x: &[f32], c_in: usize, geo: &Conv2dGeometry, at: [usize; 4]) -> f32 {
        let [img, c, iy, ix] = at;
        let (iy, ix) = (
            iy as isize - geo.pad as isize,
            ix as isize - geo.pad as isize,
        );
        let (h, w) = (geo.in_h as isize, geo.in_w as isize);
        if iy < 0 || ix < 0 || iy >= h || ix >= w {
            return 0.0;
        }
        x[((img * c_in + c) * geo.in_h + iy as usize) * geo.in_w + ix as usize]
    }

    /// Element-at-a-time forward reference: each output folds `(c, r, s)`
    /// ascending from `+0.0`, then adds the bias, then takes the ReLU.
    fn reference_forward(
        x: &Tensor,
        w: &Tensor,
        bias: &[f32],
        geo: &Conv2dGeometry,
        relu: bool,
    ) -> Vec<f32> {
        let (n, c_in, c_out) = (x.dims()[0], x.dims()[1], bias.len());
        let mut out = Vec::new();
        for img in 0..n {
            for (f, &b) in bias.iter().enumerate() {
                for (oy, ox) in (0..geo.out_h).flat_map(|oy| (0..geo.out_w).map(move |ox| (oy, ox)))
                {
                    let mut acc = 0.0f32;
                    for c in 0..c_in {
                        for r in 0..geo.k_h {
                            for s in 0..geo.k_w {
                                let xv =
                                    padded_at(x.as_slice(), c_in, geo, [img, c, oy + r, ox + s]);
                                let wv =
                                    w.as_slice()[((c * geo.k_h + r) * geo.k_w + s) * c_out + f];
                                acc += xv * wv;
                            }
                        }
                    }
                    acc += b;
                    out.push(if relu { acc.max(0.0) } else { acc });
                }
            }
        }
        out
    }

    /// Element-at-a-time weight-gradient reference: each `dW[(c,r,s)][f]`
    /// folds `(img, oy, ox)` ascending from `+0.0`.
    fn reference_weight_grad(x: &Tensor, dy: &Tensor, geo: &Conv2dGeometry) -> Vec<f32> {
        let (n, c_in, c_out) = (x.dims()[0], x.dims()[1], dy.dims()[1]);
        let mut dw = Vec::new();
        for c in 0..c_in {
            for r in 0..geo.k_h {
                for s in 0..geo.k_w {
                    for f in 0..c_out {
                        let mut acc = 0.0f32;
                        for img in 0..n {
                            for oy in 0..geo.out_h {
                                for ox in 0..geo.out_w {
                                    let xv = padded_at(
                                        x.as_slice(),
                                        c_in,
                                        geo,
                                        [img, c, oy + r, ox + s],
                                    );
                                    let d = dy.as_slice()
                                        [((img * c_out + f) * geo.out_h + oy) * geo.out_w + ox];
                                    acc += xv * d;
                                }
                            }
                        }
                        dw.push(acc);
                    }
                }
            }
        }
        dw
    }

    /// Element-at-a-time bias-gradient reference: each channel folds
    /// `(img, oy, ox)` ascending from `+0.0`.
    fn reference_bias_grad(dy: &Tensor) -> Vec<f32> {
        let (n, c_out) = (dy.dims()[0], dy.dims()[1]);
        let p = dy.numel() / (n * c_out);
        (0..c_out)
            .map(|f| {
                let mut acc = 0.0f32;
                for img in 0..n {
                    for &d in &dy.as_slice()[(img * c_out + f) * p..][..p] {
                        acc += d;
                    }
                }
                acc
            })
            .collect()
    }

    /// `(batch, c_in, h, w, k, pad, c_out)` cases: every layer of both
    /// paper CNNs (LeNet's output widths 28 and 10 leave lane tails, its 6
    /// and 16 channels split unevenly into register blocks), 2- and 3-wide
    /// kernels, 13 channels (two forward blocks, an odd weight-gradient
    /// task), pad 1, outputs narrower than a vector, batches 1, 10 and 64.
    const CASES: [(usize, usize, usize, usize, usize, usize, usize); 9] = [
        (10, 1, 28, 28, 5, 0, 10),
        (64, 10, 12, 12, 5, 0, 20),
        (1, 3, 32, 32, 5, 0, 6),
        (10, 6, 14, 14, 5, 0, 16),
        (1, 2, 9, 11, 3, 0, 3),
        (10, 3, 10, 7, 2, 0, 13),
        (64, 2, 8, 9, 3, 1, 5),
        (10, 1, 3, 3, 2, 1, 2),
        (1, 4, 6, 5, 5, 0, 7),
    ];

    #[test]
    fn direct_kernels_match_element_reference_on_every_tier() {
        let mut rng = TensorRng::seed_from(24);
        for (n, c_in, h, w, k, pad, c_out) in CASES {
            let geo = Conv2dGeometry::new(h, w, k, k, 1, pad);
            let x = rng.init(&[n, c_in, h, w], Init::Normal(1.0));
            let wt = rng.init(&[c_in * k * k, c_out], Init::Normal(1.0));
            let bias = rng.init(&[c_out], Init::Normal(1.0));
            let dy = rng.init(&[n, c_out, geo.out_h, geo.out_w], Init::Normal(1.0));
            let want_dw = reference_weight_grad(&x, &dy, &geo);
            let want_db = reference_bias_grad(&dy);
            for tier in [DispatchTier::Scalar, detect()] {
                let case = format!("{tier:?} n={n} c={c_in} {h}x{w} k={k} pad={pad} K={c_out}");
                for relu in [false, true] {
                    let y = forward_on(tier, &x, &wt, bias.as_slice(), &geo, relu);
                    assert_eq!(y.dims(), &[n, c_out, geo.out_h, geo.out_w]);
                    let want = reference_forward(&x, &wt, bias.as_slice(), &geo, relu);
                    assert_eq!(
                        bits(y.as_slice()),
                        bits(&want),
                        "forward relu={relu} {case}"
                    );
                }
                let (mut dw, mut db) = (vec![f32::NAN; want_dw.len()], vec![f32::NAN; c_out]);
                weight_grad_on(tier, &x, &dy, &geo, &mut dw, &mut db);
                assert_eq!(bits(&dw), bits(&want_dw), "weight grad {case}");
                assert_eq!(bits(&db), bits(&want_db), "bias grad {case}");
            }
        }
    }

    #[test]
    fn nan_input_folds_like_the_reference_and_relu_zeroes_it() {
        let mut rng = TensorRng::seed_from(7);
        let (n, c_in, c_out) = (2, 2, 10);
        let geo = Conv2dGeometry::new(12, 12, 5, 5, 1, 0);
        let mut x = rng.init(&[n, c_in, 12, 12], Init::Normal(1.0));
        // One NaN bit pattern: which of two different NaNs an add returns
        // is up to the compiler's operand order, in the reference as well.
        x.as_mut_slice()[40] = f32::NAN;
        x.as_mut_slice()[300] = f32::NAN;
        let wt = rng.init(&[c_in * 25, c_out], Init::Normal(1.0));
        let bias = rng.init(&[c_out], Init::Normal(1.0));
        let dy = rng.init(&[n, c_out, 8, 8], Init::Normal(1.0));
        for tier in [DispatchTier::Scalar, detect()] {
            for relu in [false, true] {
                let y = forward_on(tier, &x, &wt, bias.as_slice(), &geo, relu);
                let want = reference_forward(&x, &wt, bias.as_slice(), &geo, relu);
                assert_eq!(bits(y.as_slice()), bits(&want), "{tier:?} relu={relu}");
                assert_eq!(y.as_slice().iter().any(|v| v.is_nan()), !relu);
            }
            let (mut dw, mut db) = (vec![0.0; c_in * 25 * c_out], vec![0.0; c_out]);
            weight_grad_on(tier, &x, &dy, &geo, &mut dw, &mut db);
            assert_eq!(
                bits(&dw),
                bits(&reference_weight_grad(&x, &dy, &geo)),
                "{tier:?}"
            );
        }
    }

    #[test]
    fn padding_reads_as_zeros() {
        // A 2×2 all-ones kernel over a 2×2 all-ones image padded by 1: each
        // output counts the real pixels its window covers.
        let x = Tensor::ones(&[1, 1, 2, 2]);
        let geo = Conv2dGeometry::new(2, 2, 2, 2, 1, 1);
        let y = conv2d_forward(&x, &Tensor::ones(&[4, 1]), &[0.0], &geo, false);
        assert_eq!(y.dims(), &[1, 1, 3, 3]);
        assert_eq!(y.as_slice(), &[1.0, 2.0, 1.0, 2.0, 4.0, 2.0, 1.0, 2.0, 1.0]);
    }

    #[test]
    fn filter_rows_are_channel_then_kernel_row_then_column() {
        // Input element (c, iy, ix) = 100c + 10iy + ix over a 2-channel 3×3
        // image; a filter that is one-hot at row (c·2 + r)·2 + s reads
        // x[c][oy + r][ox + s].
        let x = Tensor::from_vec(
            (0..18)
                .map(|i| (100 * (i / 9) + 10 * (i % 9 / 3) + i % 3) as f32)
                .collect(),
            &[1, 2, 3, 3],
        );
        let geo = Conv2dGeometry::new(3, 3, 2, 2, 1, 0);
        for (c, r, s) in [(0, 0, 0), (0, 1, 0), (1, 0, 1), (1, 1, 1)] {
            let mut w = Tensor::zeros(&[8, 1]);
            w.as_mut_slice()[(c * 2 + r) * 2 + s] = 1.0;
            let y = conv2d_forward(&x, &w, &[0.0], &geo, false);
            let want: Vec<f32> = [(0, 0), (0, 1), (1, 0), (1, 1)]
                .iter()
                .map(|&(oy, ox)| (100 * c + 10 * (oy + r) + ox + s) as f32)
                .collect();
            assert_eq!(y.as_slice(), &want[..], "filter row ({c}, {r}, {s})");
        }
    }

    #[test]
    fn geometry_matches_paper_layers() {
        // MNIST CNN: conv1 28→24, pool →12, conv2 12→8, pool →4.
        let c1 = Conv2dGeometry::new(28, 28, 5, 5, 1, 0);
        assert_eq!((c1.out_h, c1.out_w), (24, 24));
        let c2 = Conv2dGeometry::new(12, 12, 5, 5, 1, 0);
        assert_eq!((c2.out_h, c2.out_w), (8, 8));
        // LeNet on CIFAR: conv1 32→28, pool →14, conv2 14→10, pool →5.
        let l1 = Conv2dGeometry::new(32, 32, 5, 5, 1, 0);
        assert_eq!((l1.out_h, l1.out_w), (28, 28));
    }

    #[test]
    fn col2im_matches_element_reference() {
        let mut rng = TensorRng::seed_from(8);
        // 5-wide kernels add fixed-width runs, 3-wide ones runtime-width
        // runs; padding and stride 2 exercise the border element loops.
        for (k, stride, pad) in [(5, 1, 0), (5, 2, 2), (3, 1, 1)] {
            let (n, c, h, w) = (2, 3, 9, 11);
            let geo = Conv2dGeometry::new(h, w, k, k, stride, pad);
            let dy = rng.init(&[n * geo.out_positions(), c * k * k], Init::Normal(1.0));
            let back = col2im(&dy, n, c, &geo);
            // Element-at-a-time reference: each image element sums its
            // terms in ascending row order; padding terms are dropped.
            let mut want = vec![0.0f32; n * c * h * w];
            let mut at = 0;
            for img in 0..n {
                for (oy, ox) in (0..geo.out_h).flat_map(|oy| (0..geo.out_w).map(move |ox| (oy, ox)))
                {
                    for (ch, ky, kx) in
                        (0..c).flat_map(|ch| (0..k * k).map(move |t| (ch, t / k, t % k)))
                    {
                        let iy = (oy * stride + ky) as isize - pad as isize;
                        let ix = (ox * stride + kx) as isize - pad as isize;
                        if iy >= 0 && ix >= 0 && (iy as usize) < h && (ix as usize) < w {
                            want[((img * c + ch) * h + iy as usize) * w + ix as usize] +=
                                dy.as_slice()[at];
                        }
                        at += 1;
                    }
                }
            }
            assert_eq!(bits(back.as_slice()), bits(&want), "col2im k={k}");
        }
    }

    #[test]
    #[should_panic(expected = "larger than padded input")]
    fn oversized_kernel_rejected() {
        let _ = Conv2dGeometry::new(2, 2, 5, 5, 1, 0);
    }

    #[test]
    fn kernels_bitwise_identical_across_thread_counts() {
        use crate::pool;
        // A batch big enough to clear the parallel thresholds.
        let mut rng = TensorRng::seed_from(21);
        let x = rng.init(&[10, 3, 28, 28], Init::Normal(1.0));
        let geo = Conv2dGeometry::new(28, 28, 5, 5, 1, 1);
        let w = rng.init(&[75, 10], Init::Normal(1.0));
        let dy = rng.init(&[10, 10, 26, 26], Init::Normal(1.0));
        let cols = rng.init(&[10 * 26 * 26, 75], Init::Normal(1.0));
        let _sweep = pool::tests::sweep();
        let run = |threads: usize| {
            pool::set_threads(threads);
            let y = conv2d_forward(&x, &w, &[0.5; 10], &geo, true);
            let (mut dw, mut db) = (vec![0.0; 750], vec![0.0; 10]);
            conv2d_weight_grad(&x, &dy, &geo, &mut dw, &mut db);
            (y, [dw, db].concat(), col2im(&cols, 10, 3, &geo))
        };
        let (sy, sdw, sb) = run(1);
        let (py, pdw, pb) = run(4);
        assert_eq!(bits(sy.as_slice()), bits(py.as_slice()), "forward");
        assert_eq!(bits(&sdw), bits(&pdw), "parameter grads");
        assert_eq!(bits(sb.as_slice()), bits(pb.as_slice()), "col2im");
    }
}
