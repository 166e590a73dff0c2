//! Linear algebra and reduction operations on [`Tensor`].
//!
//! The three matmul variants are thin layout adapters over
//! [`crate::kernel`]: each wraps its operands in the [`MatView`] describing
//! how the data is stored and lets the kernel pick the direct or blocked
//! path — and, on the blocked path, the SIMD dispatch tier and the table's
//! blocking. All of that dispatch is numerically invisible — see the kernel
//! module docs for the canonical-accumulation-order argument.

use crate::kernel::{matmul_views, matmul_views_ep, Epilogue, MatView};
use crate::{scratch, Tensor};

impl Tensor {
    /// Matrix product `self (m×k) · rhs (k×n) → (m×n)`.
    ///
    /// Both operands are interpreted as matrices via
    /// [`crate::Shape::as_matrix`], so a rank-1 tensor acts as a row vector.
    ///
    /// # Panics
    ///
    /// Panics if the inner dimensions disagree.
    pub fn matmul(&self, rhs: &Tensor) -> Tensor {
        let (m, k) = self.shape().as_matrix();
        let (k2, n) = rhs.shape().as_matrix();
        matmul_views(
            &MatView::row_major(self.as_slice(), m, k),
            &MatView::row_major(rhs.as_slice(), k2, n),
        )
    }

    /// [`matmul`](Tensor::matmul) with the bias row added in the kernel's
    /// output pass: `out[i][j] = (self · rhs)[i][j] + bias[j]`, bitwise
    /// identical to `self.matmul(rhs).add_row_broadcast(bias)` (see
    /// [`Epilogue`]) without the extra whole-matrix traversal and clone.
    ///
    /// # Panics
    ///
    /// Panics if the inner dimensions disagree or `bias` is not a rank-1
    /// tensor of length `n`.
    pub fn matmul_bias(&self, rhs: &Tensor, bias: &Tensor) -> Tensor {
        let (m, k) = self.shape().as_matrix();
        let (k2, n) = rhs.shape().as_matrix();
        assert_eq!(bias.shape().rank(), 1, "matmul_bias: bias must be rank-1");
        matmul_views_ep(
            &MatView::row_major(self.as_slice(), m, k),
            &MatView::row_major(rhs.as_slice(), k2, n),
            Epilogue::Bias(bias.as_slice()),
        )
    }

    /// [`matmul_bias`](Tensor::matmul_bias) followed by ReLU, fused:
    /// `out[i][j] = ((self · rhs)[i][j] + bias[j]).max(0.0)` — bitwise
    /// identical to the unfused bias-add then `map(|x| x.max(0.0))`.
    ///
    /// # Panics
    ///
    /// Panics if the inner dimensions disagree or `bias` is not a rank-1
    /// tensor of length `n`.
    pub fn matmul_bias_relu(&self, rhs: &Tensor, bias: &Tensor) -> Tensor {
        let (m, k) = self.shape().as_matrix();
        let (k2, n) = rhs.shape().as_matrix();
        assert_eq!(
            bias.shape().rank(),
            1,
            "matmul_bias_relu: bias must be rank-1"
        );
        matmul_views_ep(
            &MatView::row_major(self.as_slice(), m, k),
            &MatView::row_major(rhs.as_slice(), k2, n),
            Epilogue::BiasRelu(bias.as_slice()),
        )
    }

    /// `selfᵀ (k×m)ᵀ · rhs (k×n) → (m×n)`, i.e. `self` is transposed.
    ///
    /// Used by backprop to form weight gradients (`xᵀ · dy`) without
    /// materializing the transpose.
    ///
    /// # Panics
    ///
    /// Panics if the row counts disagree.
    pub fn matmul_tn(&self, rhs: &Tensor) -> Tensor {
        let (k, m) = self.shape().as_matrix();
        let (k2, n) = rhs.shape().as_matrix();
        matmul_views(
            &MatView::transposed(self.as_slice(), m, k),
            &MatView::row_major(rhs.as_slice(), k2, n),
        )
    }

    /// `self (m×k) · rhsᵀ (n×k)ᵀ → (m×n)`, i.e. `rhs` is transposed.
    ///
    /// Used by backprop to propagate input gradients (`dy · Wᵀ`).
    ///
    /// # Panics
    ///
    /// Panics if the column counts disagree.
    pub fn matmul_nt(&self, rhs: &Tensor) -> Tensor {
        let (m, k) = self.shape().as_matrix();
        let (n, k2) = rhs.shape().as_matrix();
        matmul_views(
            &MatView::row_major(self.as_slice(), m, k),
            &MatView::transposed(rhs.as_slice(), k2, n),
        )
    }

    /// Dot product of two equally sized tensors, flattened.
    ///
    /// # Panics
    ///
    /// Panics if the element counts differ.
    pub fn dot(&self, rhs: &Tensor) -> f32 {
        assert_eq!(
            self.numel(),
            rhs.numel(),
            "dot: element count mismatch {} vs {}",
            self.numel(),
            rhs.numel()
        );
        self.as_slice()
            .iter()
            .zip(rhs.as_slice())
            .map(|(&a, &b)| a * b)
            .sum()
    }

    /// Transpose of a matrix (rank ≤ 2).
    pub fn transpose(&self) -> Tensor {
        let (m, n) = self.shape().as_matrix();
        let a = self.as_slice();
        let mut out = scratch::take_vec(m * n);
        for i in 0..m {
            for j in 0..n {
                out[j * m + i] = a[i * n + j];
            }
        }
        Tensor::from_vec(out, &[n, m])
    }

    /// Sum of all elements.
    pub fn sum(&self) -> f32 {
        self.as_slice().iter().sum()
    }

    /// Arithmetic mean of all elements.
    pub fn mean(&self) -> f32 {
        self.sum() / self.numel() as f32
    }

    /// Maximum element (NaN-free input assumed).
    pub fn max(&self) -> f32 {
        self.as_slice()
            .iter()
            .copied()
            .fold(f32::NEG_INFINITY, f32::max)
    }

    /// Minimum element (NaN-free input assumed).
    pub fn min(&self) -> f32 {
        self.as_slice()
            .iter()
            .copied()
            .fold(f32::INFINITY, f32::min)
    }

    /// Sums each row of the matrix view, producing a rank-1 tensor of length
    /// `cols` containing per-column sums (used for bias gradients).
    pub fn sum_rows(&self) -> Tensor {
        let (rows, cols) = self.shape().as_matrix();
        let a = self.as_slice();
        let mut out = scratch::take_vec(cols);
        for r in 0..rows {
            for c in 0..cols {
                out[c] += a[r * cols + c];
            }
        }
        Tensor::from_vec(out, &[cols])
    }

    /// Index of the maximum element along the last axis for each row of the
    /// matrix view. Ties resolve to the lowest index.
    pub fn argmax_rows(&self) -> Vec<usize> {
        let (rows, cols) = self.shape().as_matrix();
        let a = self.as_slice();
        (0..rows)
            .map(|r| {
                let row = &a[r * cols..(r + 1) * cols];
                row.iter()
                    .enumerate()
                    .fold((0usize, f32::NEG_INFINITY), |(bi, bv), (i, &v)| {
                        if v > bv {
                            (i, v)
                        } else {
                            (bi, bv)
                        }
                    })
                    .0
            })
            .collect()
    }

    /// Row-wise softmax of the matrix view, numerically stabilized by
    /// subtracting each row's maximum.
    pub fn softmax_rows(&self) -> Tensor {
        let (rows, cols) = self.shape().as_matrix();
        let a = self.as_slice();
        let mut out = scratch::take_vec(rows * cols);
        for r in 0..rows {
            let row = &a[r * cols..(r + 1) * cols];
            let m = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
            let mut z = 0.0;
            for (o, &x) in out[r * cols..(r + 1) * cols].iter_mut().zip(row) {
                *o = (x - m).exp();
                z += *o;
            }
            for o in &mut out[r * cols..(r + 1) * cols] {
                *o /= z;
            }
        }
        let mut t = Tensor::from_vec(out, &[rows, cols]);
        if self.shape().rank() == 1 {
            t = t.reshape(&[cols]);
        }
        t
    }

    /// Extracts row `r` of the matrix view as a rank-1 tensor.
    ///
    /// # Panics
    ///
    /// Panics if `r` is out of range.
    pub fn row(&self, r: usize) -> Tensor {
        let (rows, cols) = self.shape().as_matrix();
        assert!(r < rows, "row {r} out of range for {rows} rows");
        let mut data = scratch::take_vec_with_capacity(cols);
        data.extend_from_slice(&self.as_slice()[r * cols..(r + 1) * cols]);
        Tensor::from_vec(data, &[cols])
    }

    /// Stacks rank-1 tensors of equal length into a matrix, one per row.
    ///
    /// # Panics
    ///
    /// Panics if `rows` is empty or lengths differ.
    pub fn stack_rows(rows: &[Tensor]) -> Tensor {
        assert!(!rows.is_empty(), "stack_rows: empty input");
        let cols = rows[0].numel();
        let mut data = scratch::take_vec_with_capacity(rows.len() * cols);
        for (i, r) in rows.iter().enumerate() {
            assert_eq!(
                r.numel(),
                cols,
                "stack_rows: row {i} has {} elements, expected {cols}",
                r.numel()
            );
            data.extend_from_slice(r.as_slice());
        }
        Tensor::from_vec(data, &[rows.len(), cols])
    }

    /// Clamps every element into `[lo, hi]`.
    pub fn clamp(&self, lo: f32, hi: f32) -> Tensor {
        self.map(|x| x.clamp(lo, hi))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(data: &[f32], dims: &[usize]) -> Tensor {
        Tensor::from_vec(data.to_vec(), dims)
    }

    #[test]
    fn matmul_matches_hand_computation() {
        let a = t(&[1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]);
        let b = t(&[7.0, 8.0, 9.0, 10.0, 11.0, 12.0], &[3, 2]);
        let c = a.matmul(&b);
        assert_eq!(c.dims(), &[2, 2]);
        assert_eq!(c.as_slice(), &[58.0, 64.0, 139.0, 154.0]);
    }

    #[test]
    fn matmul_tn_equals_explicit_transpose() {
        let a = t(&[1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[3, 2]);
        let b = t(&[1.0, 0.0, 2.0, 1.0, 0.0, 3.0], &[3, 2]);
        let via_tn = a.matmul_tn(&b);
        let explicit = a.transpose().matmul(&b);
        assert_eq!(via_tn.as_slice(), explicit.as_slice());
        assert_eq!(via_tn.dims(), &[2, 2]);
    }

    #[test]
    fn matmul_nt_equals_explicit_transpose() {
        let a = t(&[1.0, 2.0, 3.0, 4.0], &[2, 2]);
        let b = t(&[5.0, 6.0, 7.0, 8.0, 9.0, 10.0], &[3, 2]);
        let via_nt = a.matmul_nt(&b);
        let explicit = a.matmul(&b.transpose());
        assert_eq!(via_nt.as_slice(), explicit.as_slice());
        assert_eq!(via_nt.dims(), &[2, 3]);
    }

    #[test]
    fn rank1_acts_as_row_vector() {
        let v = t(&[1.0, 2.0], &[2]);
        let m = t(&[1.0, 0.0, 0.0, 1.0], &[2, 2]);
        let out = v.matmul(&m);
        assert_eq!(out.dims(), &[1, 2]);
        assert_eq!(out.as_slice(), &[1.0, 2.0]);
    }

    #[test]
    fn reductions() {
        let x = t(&[1.0, -2.0, 3.0, 0.0], &[2, 2]);
        assert_eq!(x.sum(), 2.0);
        assert_eq!(x.mean(), 0.5);
        assert_eq!(x.max(), 3.0);
        assert_eq!(x.min(), -2.0);
    }

    #[test]
    fn sum_rows_gives_column_sums() {
        let x = t(&[1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]);
        assert_eq!(x.sum_rows().as_slice(), &[5.0, 7.0, 9.0]);
    }

    #[test]
    fn argmax_rows_picks_first_on_tie() {
        let x = t(&[1.0, 3.0, 3.0, 0.1, 0.1, 0.2], &[2, 3]);
        assert_eq!(x.argmax_rows(), vec![1, 2]);
    }

    #[test]
    fn softmax_rows_is_normalized_and_stable() {
        let x = t(&[1000.0, 1000.0, 0.0, 1.0], &[2, 2]);
        let s = x.softmax_rows();
        assert!((s.as_slice()[0] - 0.5).abs() < 1e-6);
        assert!((s.as_slice()[1] - 0.5).abs() < 1e-6);
        let row1: f32 = s.as_slice()[2..].iter().sum();
        assert!((row1 - 1.0).abs() < 1e-6);
        assert!(s.as_slice()[3] > s.as_slice()[2]);
    }

    #[test]
    fn dot_and_transpose() {
        let a = t(&[1.0, 2.0, 3.0], &[3]);
        let b = t(&[4.0, 5.0, 6.0], &[3]);
        assert_eq!(a.dot(&b), 32.0);
        let m = t(&[1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]);
        let mt = m.transpose();
        assert_eq!(mt.dims(), &[3, 2]);
        assert_eq!(mt.as_slice(), &[1.0, 4.0, 2.0, 5.0, 3.0, 6.0]);
    }

    #[test]
    fn stack_and_row_round_trip() {
        let rows = vec![t(&[1.0, 2.0], &[2]), t(&[3.0, 4.0], &[2])];
        let m = Tensor::stack_rows(&rows);
        assert_eq!(m.dims(), &[2, 2]);
        assert_eq!(m.row(1).as_slice(), &[3.0, 4.0]);
    }

    #[test]
    fn clamp_bounds_values() {
        let x = t(&[-2.0, 0.5, 9.0], &[3]);
        assert_eq!(x.clamp(-1.0, 1.0).as_slice(), &[-1.0, 0.5, 1.0]);
    }

    #[test]
    #[should_panic(expected = "inner dims mismatch")]
    fn matmul_checks_dims() {
        let a = Tensor::zeros(&[2, 3]);
        let b = Tensor::zeros(&[2, 3]);
        let _ = a.matmul(&b);
    }

    #[test]
    fn fused_bias_and_relu_match_unfused_bitwise() {
        use crate::{Init, TensorRng};
        let mut rng = TensorRng::seed_from(11);
        // Small (direct path) and large (blocked path) shapes.
        for (m, k, n) in [(3, 4, 5), (70, 90, 110)] {
            let x = rng.init(&[m, k], Init::Normal(1.0));
            let w = rng.init(&[k, n], Init::Normal(1.0));
            let b = rng.init(&[n], Init::Normal(1.0));
            let unfused_bias = x.matmul(&w).add_row_broadcast(&b);
            let fused_bias = x.matmul_bias(&w, &b);
            let bits = |t: &Tensor| t.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&unfused_bias), bits(&fused_bias), "{m}x{k}x{n}");
            let unfused_relu = unfused_bias.map(|v| v.max(0.0));
            let fused_relu = x.matmul_bias_relu(&w, &b);
            assert_eq!(bits(&unfused_relu), bits(&fused_relu), "{m}x{k}x{n}");
        }
        // NaN payloads flow identically: NaN.max(0.0) is 0.0 either way.
        let x = t(&[f32::NAN, 1.0], &[1, 2]);
        let w = t(&[1.0, 0.0, 0.0, 1.0], &[2, 2]);
        let b = t(&[0.5, 0.5], &[2]);
        let unfused = x.matmul(&w).add_row_broadcast(&b).map(|v| v.max(0.0));
        let fused = x.matmul_bias_relu(&w, &b);
        assert_eq!(
            unfused
                .as_slice()
                .iter()
                .map(|v| v.to_bits())
                .collect::<Vec<_>>(),
            fused
                .as_slice()
                .iter()
                .map(|v| v.to_bits())
                .collect::<Vec<_>>()
        );
    }

    #[test]
    fn matmuls_are_bitwise_identical_across_thread_counts() {
        use crate::{pool, Init, TensorRng};
        // Big enough to clear the parallel threshold on every variant.
        let mut rng = TensorRng::seed_from(7);
        let a = rng.init(&[96, 80], Init::Normal(1.0));
        let b = rng.init(&[80, 64], Init::Normal(1.0));
        let bt = b.transpose();
        let _sweep = pool::tests::sweep();
        let run = |threads: usize| {
            pool::set_threads(threads);
            (a.matmul(&b), a.transpose().matmul_tn(&b), a.matmul_nt(&bt))
        };
        let (s1, s2, s3) = run(1);
        let (p1, p2, p3) = run(4);
        assert_eq!(s1.as_slice(), p1.as_slice(), "matmul");
        assert_eq!(s2.as_slice(), p2.as_slice(), "matmul_tn");
        assert_eq!(s3.as_slice(), p3.as_slice(), "matmul_nt");
        // And the parallel path agrees with the reference computation.
        assert_eq!(s2.as_slice(), s1.as_slice(), "tn reference");
    }
}
