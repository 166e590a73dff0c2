//! `im2col`/`col2im` layout transforms for convolution layers.
//!
//! A 2-D convolution over an `(N, C, H, W)` batch with `K` output channels
//! and `R×S` kernels is computed by unrolling every receptive field into a
//! row ("im2col"), so the convolution becomes a single matrix product with
//! the `(C·R·S, K)` filter matrix. `col2im` is the exact adjoint, scattering
//! gradients back into image layout; together they make conv backprop a pair
//! of matmuls.
//!
//! Both passes move each interior kernel row as one run of `k_w` floats.
//! For the paper's 5-wide kernels ([`FIXED_KW`]) the run width is a
//! compile-time constant, so a run is a few vector moves rather than a
//! `memcpy` call; other widths run the same code at a runtime width. Only
//! windows that overlap the zero padding take an element loop.

use crate::{pool, scratch, Tensor};

/// Unrolled rows per parallel `im2col` block. Fixed by the problem size so
/// the partitioning is identical for every thread count.
const IM2COL_ROWS_PER_BLOCK: usize = 64;

/// Minimum output elements before the layout transforms dispatch to the
/// pool; below this the fan-out overhead dominates. A performance gate
/// only — each element is produced by the same copy either way.
const PARALLEL_ELEMS_THRESHOLD: usize = 1 << 16;

/// Kernel width whose runs are compiled at a fixed width: both paper CNNs
/// use 5×5 kernels. The passes below take it as `KW`; `KW == 0` means the
/// runtime width `geo.k_w`.
const FIXED_KW: usize = 5;

/// Emits, in order, every element of the `rows` unrolled rows starting at
/// global row `row0`: an interior kernel row as one `k_w`-float run, a row
/// that overlaps the padding element by element, padding as explicit
/// zeros. The output position advances without a div/mod per row. Shared
/// by the serial and parallel paths, so both produce identical bytes.
fn im2col_rows<const KW: usize>(
    x: &[f32],
    c: usize,
    geo: &Conv2dGeometry,
    row0: usize,
    rows: usize,
    emit: &mut impl FnMut(&[f32]),
) {
    let (h, w) = (geo.in_h, geo.in_w);
    let k_w = if KW == 0 { geo.k_w } else { KW };
    let positions = geo.out_positions();
    let (mut img, mut oy, mut ox) = (
        row0 / positions,
        row0 % positions / geo.out_w,
        row0 % geo.out_w,
    );
    for _ in 0..rows {
        let iy0 = (oy * geo.stride) as isize - geo.pad as isize;
        let ix0 = (ox * geo.stride) as isize - geo.pad as isize;
        let interior =
            iy0 >= 0 && ix0 >= 0 && iy0 as usize + geo.k_h <= h && ix0 as usize + k_w <= w;
        for ch in 0..c {
            let plane = &x[(img * c + ch) * h * w..][..h * w];
            for ky in 0..geo.k_h {
                let iy = iy0 + ky as isize;
                if interior {
                    let s = iy as usize * w + ix0 as usize;
                    emit(&plane[s..s + k_w]);
                    continue;
                }
                for kx in 0..k_w {
                    let ix = ix0 + kx as isize;
                    let inside = iy >= 0 && (iy as usize) < h && ix >= 0 && (ix as usize) < w;
                    emit(&[if inside {
                        plane[iy as usize * w + ix as usize]
                    } else {
                        0.0
                    }]);
                }
            }
        }
        ox += 1;
        if ox == geo.out_w {
            ox = 0;
            oy += 1;
            if oy == geo.out_h {
                oy = 0;
                img += 1;
            }
        }
    }
}

/// The `(rows, C·k_h·k_w)` im2col matrix of `x` at run width `KW`.
fn im2col_matrix<const KW: usize>(
    x: &[f32],
    c: usize,
    geo: &Conv2dGeometry,
    rows: usize,
) -> Vec<f32> {
    let row_len = c * geo.k_h * geo.k_w;
    // Every unrolled row is an independent gather, so rows partition freely
    // over fixed-size blocks; the per-row walk is shared with the serial
    // path, making the two bitwise identical.
    if rows * row_len >= PARALLEL_ELEMS_THRESHOLD
        && rows > IM2COL_ROWS_PER_BLOCK
        && pool::threads() > 1
    {
        let mut out = scratch::take_vec(rows * row_len);
        pool::parallel_chunks_mut(&mut out, IM2COL_ROWS_PER_BLOCK * row_len, |block, chunk| {
            let (row0, n_rows, mut at) = (block * IM2COL_ROWS_PER_BLOCK, chunk.len() / row_len, 0);
            let mut write = |run: &[f32]| {
                chunk[at..at + run.len()].copy_from_slice(run);
                at += run.len();
            };
            im2col_rows::<KW>(x, c, geo, row0, n_rows, &mut write);
        });
        out
    } else {
        // Every element is emitted, padding included, so the serial path
        // appends to an empty buffer instead of overwriting a zero-fill.
        let mut out = scratch::take_vec_with_capacity(rows * row_len);
        im2col_rows::<KW>(x, c, geo, 0, rows, &mut |run| out.extend_from_slice(run));
        out
    }
}

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

/// Unrolls a `(N, C, H, W)` batch into a `(N·out_h·out_w, C·k_h·k_w)` matrix
/// where each row is one receptive field.
///
/// # Panics
///
/// Panics if `input` is not rank-4 or its spatial dims disagree with `geo`.
pub fn im2col(input: &Tensor, channels: usize, geo: &Conv2dGeometry) -> Tensor {
    let dims = input.dims();
    assert_eq!(dims.len(), 4, "im2col expects (N, C, H, W), got {:?}", dims);
    let (n, c, h, w) = (dims[0], dims[1], dims[2], dims[3]);
    assert_eq!(c, channels, "channel mismatch");
    assert_eq!((h, w), (geo.in_h, geo.in_w), "spatial dims mismatch");

    let row_len = c * geo.k_h * geo.k_w;
    let rows = n * geo.out_positions();
    let x = input.as_slice();
    let out = if geo.k_w == FIXED_KW {
        im2col_matrix::<FIXED_KW>(x, c, geo, rows)
    } else {
        im2col_matrix::<0>(x, c, geo, rows)
    };
    Tensor::from_vec(out, &[rows, row_len])
}

/// Scatter-adds a `(N·out_h·out_w, C·k_h·k_w)` column matrix back into image
/// layout `(N, C, H, W)` — the adjoint of [`im2col`], used for input
/// gradients.
///
/// # Panics
///
/// Panics if `cols` does not have the shape [`im2col`] would produce for
/// `(n, channels, geo)`.
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
    fn im2col_identity_kernel() {
        // 1x1 kernel, stride 1: im2col is a pure reshape.
        let x = Tensor::linspace(0.0, 3.0, 4).reshape(&[1, 1, 2, 2]);
        let geo = Conv2dGeometry::new(2, 2, 1, 1, 1, 0);
        let cols = im2col(&x, 1, &geo);
        assert_eq!(cols.dims(), &[4, 1]);
        assert_eq!(cols.as_slice(), x.as_slice());
    }

    #[test]
    fn im2col_extracts_receptive_fields() {
        // 3x3 single-channel image, 2x2 kernel → 4 rows of 4.
        let x = Tensor::from_vec(
            vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0],
            &[1, 1, 3, 3],
        );
        let geo = Conv2dGeometry::new(3, 3, 2, 2, 1, 0);
        let cols = im2col(&x, 1, &geo);
        assert_eq!(cols.dims(), &[4, 4]);
        assert_eq!(cols.row(0).as_slice(), &[1.0, 2.0, 4.0, 5.0]);
        assert_eq!(cols.row(3).as_slice(), &[5.0, 6.0, 8.0, 9.0]);
    }

    #[test]
    fn padding_inserts_zeros() {
        let x = Tensor::ones(&[1, 1, 2, 2]);
        let geo = Conv2dGeometry::new(2, 2, 2, 2, 1, 1);
        assert_eq!((geo.out_h, geo.out_w), (3, 3));
        let cols = im2col(&x, 1, &geo);
        // Top-left window overlaps three padded zeros and one real pixel.
        assert_eq!(cols.row(0).as_slice(), &[0.0, 0.0, 0.0, 1.0]);
        // Center window covers the full image.
        assert_eq!(cols.row(4).as_slice(), &[1.0, 1.0, 1.0, 1.0]);
    }

    #[test]
    fn col2im_is_adjoint_of_im2col() {
        // <im2col(x), y> == <x, col2im(y)> — the defining adjoint property
        // that makes conv backprop correct.
        use crate::{Init, TensorRng};
        let mut rng = TensorRng::seed_from(13);
        let x = rng.init(&[2, 3, 5, 5], Init::Normal(1.0));
        let geo = Conv2dGeometry::new(5, 5, 3, 3, 2, 1);
        let cols = im2col(&x, 3, &geo);
        let y = rng.init(cols.dims(), Init::Normal(1.0));
        let lhs = cols.dot(&y);
        let back = col2im(&y, 2, 3, &geo);
        let rhs = x.dot(&back);
        assert!(
            (lhs - rhs).abs() < 1e-2 * lhs.abs().max(1.0),
            "{lhs} vs {rhs}"
        );
    }

    #[test]
    fn multichannel_rows_are_channel_major() {
        let mut data = vec![0.0; 2 * 4];
        for (i, v) in data.iter_mut().enumerate() {
            *v = i as f32;
        }
        let x = Tensor::from_vec(data, &[1, 2, 2, 2]);
        let geo = Conv2dGeometry::new(2, 2, 2, 2, 1, 0);
        let cols = im2col(&x, 2, &geo);
        assert_eq!(cols.dims(), &[1, 8]);
        // Channel 0 patch then channel 1 patch.
        assert_eq!(cols.as_slice(), &[0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0]);
    }

    #[test]
    fn fixed_and_runtime_widths_match_element_reference() {
        use crate::{Init, TensorRng};
        let mut rng = TensorRng::seed_from(8);
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        // 5-wide kernels move fixed-width runs, 3-wide ones runtime-width
        // runs; padding and stride 2 exercise the border element loops.
        for (k, stride, pad) in [(5, 1, 0), (5, 2, 2), (3, 1, 1)] {
            let (n, c, h, w) = (2, 3, 9, 11);
            let geo = Conv2dGeometry::new(h, w, k, k, stride, pad);
            let x = rng.init(&[n, c, h, w], Init::Normal(1.0));
            let cols = im2col(&x, c, &geo);
            let dy = rng.init(cols.dims(), Init::Normal(1.0));
            let back = col2im(&dy, n, c, &geo);
            // Element-at-a-time reference: padding reads as zero, and each
            // image element sums its terms in ascending row order.
            let mut want_cols = Vec::new();
            let mut want_back = vec![0.0f32; n * c * h * w];
            for img in 0..n {
                for (oy, ox) in (0..geo.out_h).flat_map(|oy| (0..geo.out_w).map(move |ox| (oy, ox)))
                {
                    for (ch, ky, kx) in
                        (0..c).flat_map(|ch| (0..k * k).map(move |t| (ch, t / k, t % k)))
                    {
                        let iy = (oy * stride + ky) as isize - pad as isize;
                        let ix = (ox * stride + kx) as isize - pad as isize;
                        let g = dy.as_slice()[want_cols.len()];
                        if iy >= 0 && ix >= 0 && (iy as usize) < h && (ix as usize) < w {
                            let at = ((img * c + ch) * h + iy as usize) * w + ix as usize;
                            want_cols.push(x.as_slice()[at]);
                            want_back[at] += g;
                        } else {
                            want_cols.push(0.0);
                        }
                    }
                }
            }
            assert_eq!(bits(cols.as_slice()), bits(&want_cols), "im2col k={k}");
            assert_eq!(bits(back.as_slice()), bits(&want_back), "col2im k={k}");
        }
    }

    #[test]
    #[should_panic(expected = "larger than padded input")]
    fn oversized_kernel_rejected() {
        let _ = Conv2dGeometry::new(2, 2, 5, 5, 1, 0);
    }

    #[test]
    fn layout_transforms_bitwise_identical_across_thread_counts() {
        use crate::{pool, Init, TensorRng};
        // A batch big enough to clear the parallel thresholds
        // (10×3×28×28 → 10·24·24 = 5760 im2col rows of 75).
        let mut rng = TensorRng::seed_from(21);
        let x = rng.init(&[10, 3, 28, 28], Init::Normal(1.0));
        let geo = Conv2dGeometry::new(28, 28, 5, 5, 1, 1);
        let _sweep = pool::tests::sweep();
        let run = |threads: usize| {
            pool::set_threads(threads);
            let cols = im2col(&x, 3, &geo);
            let back = col2im(&cols, 10, 3, &geo);
            (cols, back)
        };
        let (sc, sb) = run(1);
        let (pc, pb) = run(4);
        assert_eq!(sc.as_slice(), pc.as_slice(), "im2col");
        assert_eq!(sb.as_slice(), pb.as_slice(), "col2im");
    }
}
