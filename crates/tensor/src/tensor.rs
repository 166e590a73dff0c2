//! The owned dense tensor type and its elementwise arithmetic.
//!
//! Tensor storage is backed by the thread-local [`scratch`] arena: every
//! constructor and allocating operation takes its `Vec<f32>` from the pool,
//! and `Drop` returns it — so repeated same-shaped steps (a training loop)
//! recycle the same buffers instead of hitting the heap.

use crate::{scratch, Shape};
use std::fmt;
use std::ops::{Add, AddAssign, Div, Index, IndexMut, Mul, Neg, Sub};

/// An owned, row-major, dense `f32` tensor.
///
/// `Tensor` is the single data container shared by the neural-network stack,
/// the DRL policies and the synthetic dataset generators. It favors
/// simplicity over generality: data is always contiguous, operations
/// allocate their results, and shape mismatches panic (they are programming
/// errors in this codebase, never runtime conditions).
///
/// # Examples
///
/// ```
/// use chiron_tensor::Tensor;
///
/// let x = Tensor::from_vec(vec![1.0, -2.0, 3.0], &[3]);
/// let y = x.map(f32::abs);
/// assert_eq!(y.as_slice(), &[1.0, 2.0, 3.0]);
/// assert_eq!((&y + &y).sum(), 12.0);
/// ```
pub struct Tensor {
    data: Vec<f32>,
    shape: Shape,
}

impl PartialEq for Tensor {
    fn eq(&self, other: &Self) -> bool {
        self.shape.same_as(&other.shape) && self.data == other.data
    }
}

impl Clone for Tensor {
    fn clone(&self) -> Self {
        let mut data = scratch::take_vec_with_capacity(self.data.len());
        data.extend_from_slice(&self.data);
        Self {
            data,
            shape: self.shape.clone(),
        }
    }
}

impl Drop for Tensor {
    fn drop(&mut self) {
        scratch::recycle(std::mem::take(&mut self.data));
    }
}

impl Tensor {
    /// Creates a tensor from a flat vector and a shape.
    ///
    /// # Panics
    ///
    /// Panics if `data.len()` does not equal the shape's element count.
    pub fn from_vec(data: Vec<f32>, dims: &[usize]) -> Self {
        let shape = Shape::new(dims);
        assert_eq!(
            data.len(),
            shape.numel(),
            "data length {} does not match shape {} ({} elements)",
            data.len(),
            shape,
            shape.numel()
        );
        Self { data, shape }
    }

    /// Creates a rank-0 tensor holding a single value.
    pub fn scalar(value: f32) -> Self {
        let mut data = scratch::take_vec_with_capacity(1);
        data.push(value);
        Self {
            data,
            shape: Shape::scalar(),
        }
    }

    /// Creates a tensor filled with `value`.
    pub fn full(dims: &[usize], value: f32) -> Self {
        let shape = Shape::new(dims);
        let mut data = scratch::take_vec_with_capacity(shape.numel());
        data.resize(shape.numel(), value);
        Self { data, shape }
    }

    /// Creates a zero-filled tensor.
    pub fn zeros(dims: &[usize]) -> Self {
        Self::full(dims, 0.0)
    }

    /// Creates a one-filled tensor.
    pub fn ones(dims: &[usize]) -> Self {
        Self::full(dims, 1.0)
    }

    /// Creates a zero tensor with the same shape as `self`.
    pub fn zeros_like(&self) -> Self {
        Self {
            data: scratch::take_vec(self.data.len()),
            shape: self.shape.clone(),
        }
    }

    /// The `n × n` identity matrix.
    pub fn eye(n: usize) -> Self {
        let mut t = Self::zeros(&[n, n]);
        for i in 0..n {
            t.data[i * n + i] = 1.0;
        }
        t
    }

    /// A rank-1 tensor with `n` evenly spaced values in `[start, end]`
    /// (inclusive endpoints; `n >= 2`).
    ///
    /// # Panics
    ///
    /// Panics if `n < 2`.
    pub fn linspace(start: f32, end: f32, n: usize) -> Self {
        assert!(n >= 2, "linspace needs at least two points, got {n}");
        let step = (end - start) / (n as f32 - 1.0);
        let mut data = scratch::take_vec_with_capacity(n);
        data.extend((0..n).map(|i| start + step * i as f32));
        Self::from_vec(data, &[n])
    }

    /// The tensor's shape.
    pub fn shape(&self) -> &Shape {
        &self.shape
    }

    /// Dimension sizes, equivalent to `self.shape().dims()`.
    pub fn dims(&self) -> &[usize] {
        self.shape.dims()
    }

    /// Total number of elements.
    pub fn numel(&self) -> usize {
        self.data.len()
    }

    /// Borrows the underlying row-major data.
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Mutably borrows the underlying row-major data.
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Consumes the tensor, returning its data vector. (Dropping the
    /// returned vector frees it; re-wrapping it in a tensor keeps it on the
    /// arena's recycling path.)
    pub fn into_vec(mut self) -> Vec<f32> {
        std::mem::take(&mut self.data)
    }

    /// The single value of a one-element tensor.
    ///
    /// # Panics
    ///
    /// Panics if the tensor has more than one element.
    pub fn item(&self) -> f32 {
        assert_eq!(
            self.data.len(),
            1,
            "item() requires a single-element tensor, shape is {}",
            self.shape
        );
        self.data[0]
    }

    /// Reinterprets the data with a new shape of equal element count.
    ///
    /// # Panics
    ///
    /// Panics if the element counts differ.
    pub fn reshape(&self, dims: &[usize]) -> Tensor {
        let shape = Shape::new(dims);
        assert_eq!(
            shape.numel(),
            self.data.len(),
            "cannot reshape {} elements into {}",
            self.data.len(),
            shape
        );
        let mut data = scratch::take_vec_with_capacity(self.data.len());
        data.extend_from_slice(&self.data);
        Tensor { data, shape }
    }

    /// Applies `f` to every element, producing a new tensor.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Tensor {
        let mut data = scratch::take_vec_with_capacity(self.data.len());
        data.extend(self.data.iter().map(|&x| f(x)));
        Tensor {
            data,
            shape: self.shape.clone(),
        }
    }

    /// Applies `f` to every element in place.
    pub fn map_inplace(&mut self, f: impl Fn(f32) -> f32) {
        for x in &mut self.data {
            *x = f(*x);
        }
    }

    /// Combines two same-shaped tensors elementwise with `f`.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn zip(&self, other: &Tensor, f: impl Fn(f32, f32) -> f32) -> Tensor {
        self.assert_same_shape(other, "zip");
        let mut data = scratch::take_vec_with_capacity(self.data.len());
        data.extend(self.data.iter().zip(&other.data).map(|(&a, &b)| f(a, b)));
        Tensor {
            data,
            shape: self.shape.clone(),
        }
    }

    /// `self += alpha * other`, the BLAS `axpy` primitive used by optimizers.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn axpy(&mut self, alpha: f32, other: &Tensor) {
        self.assert_same_shape(other, "axpy");
        for (a, &b) in self.data.iter_mut().zip(&other.data) {
            *a += alpha * b;
        }
    }

    /// Multiplies every element by `s` in place.
    pub fn scale_inplace(&mut self, s: f32) {
        for x in &mut self.data {
            *x *= s;
        }
    }

    /// Returns `self * s` as a new tensor.
    pub fn scale(&self, s: f32) -> Tensor {
        self.map(|x| x * s)
    }

    /// Sets every element to zero (gradient reset).
    pub fn fill(&mut self, value: f32) {
        for x in &mut self.data {
            *x = value;
        }
    }

    /// Elementwise (Hadamard) product.
    pub fn hadamard(&self, other: &Tensor) -> Tensor {
        self.zip(other, |a, b| a * b)
    }

    /// Adds `row` (a rank-1 tensor matching the last dimension) to every row
    /// of `self` — the standard bias broadcast.
    ///
    /// # Panics
    ///
    /// Panics if `row` is not rank-1 or its length differs from the last
    /// dimension of `self`.
    pub fn add_row_broadcast(&self, row: &Tensor) -> Tensor {
        assert_eq!(row.shape.rank(), 1, "broadcast row must be rank-1");
        let (rows, cols) = self.shape.as_matrix();
        assert_eq!(
            row.numel(),
            cols,
            "broadcast row length {} does not match last dim {}",
            row.numel(),
            cols
        );
        let mut out = self.clone();
        for r in 0..rows {
            for c in 0..cols {
                out.data[r * cols + c] += row.data[c];
            }
        }
        out
    }

    /// L2 norm of the flattened tensor.
    pub fn norm(&self) -> f32 {
        self.data.iter().map(|x| x * x).sum::<f32>().sqrt()
    }

    /// Returns `true` if every element is finite.
    pub fn is_finite(&self) -> bool {
        self.data.iter().all(|x| x.is_finite())
    }

    fn assert_same_shape(&self, other: &Tensor, op: &str) {
        assert!(
            self.shape.same_as(&other.shape),
            "{op}: shape mismatch {} vs {}",
            self.shape,
            other.shape
        );
    }
}

impl fmt::Debug for Tensor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        const PREVIEW: usize = 8;
        write!(f, "Tensor({}, [", self.shape)?;
        for (i, x) in self.data.iter().take(PREVIEW).enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{x:.4}")?;
        }
        if self.data.len() > PREVIEW {
            write!(f, ", …")?;
        }
        write!(f, "])")
    }
}

impl Index<&[usize]> for Tensor {
    type Output = f32;

    fn index(&self, index: &[usize]) -> &f32 {
        &self.data[self.shape.offset(index)]
    }
}

impl IndexMut<&[usize]> for Tensor {
    fn index_mut(&mut self, index: &[usize]) -> &mut f32 {
        let off = self.shape.offset(index);
        &mut self.data[off]
    }
}

macro_rules! binop {
    ($trait:ident, $method:ident, $f:expr) => {
        impl $trait for &Tensor {
            type Output = Tensor;
            fn $method(self, rhs: &Tensor) -> Tensor {
                self.zip(rhs, $f)
            }
        }
        impl $trait<f32> for &Tensor {
            type Output = Tensor;
            fn $method(self, rhs: f32) -> Tensor {
                self.map(|a| $f(a, rhs))
            }
        }
    };
}

binop!(Add, add, |a, b| a + b);
binop!(Sub, sub, |a, b| a - b);
binop!(Mul, mul, |a, b| a * b);
binop!(Div, div, |a, b| a / b);

impl Neg for &Tensor {
    type Output = Tensor;
    fn neg(self) -> Tensor {
        self.map(|a| -a)
    }
}

impl AddAssign<&Tensor> for Tensor {
    fn add_assign(&mut self, rhs: &Tensor) {
        self.axpy(1.0, rhs);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_fill_correctly() {
        assert_eq!(Tensor::zeros(&[2, 2]).as_slice(), &[0.0; 4]);
        assert_eq!(Tensor::ones(&[3]).as_slice(), &[1.0; 3]);
        assert_eq!(Tensor::full(&[2], 7.5).as_slice(), &[7.5, 7.5]);
        assert_eq!(Tensor::scalar(3.0).item(), 3.0);
    }

    #[test]
    fn eye_is_identity() {
        let i = Tensor::eye(3);
        assert_eq!(i[&[0, 0][..]], 1.0);
        assert_eq!(i[&[1, 1][..]], 1.0);
        assert_eq!(i[&[0, 1][..]], 0.0);
        assert_eq!(i.sum(), 3.0);
    }

    #[test]
    fn linspace_endpoints() {
        let t = Tensor::linspace(0.0, 1.0, 5);
        assert_eq!(t.as_slice(), &[0.0, 0.25, 0.5, 0.75, 1.0]);
    }

    #[test]
    fn arithmetic_ops() {
        let a = Tensor::from_vec(vec![1.0, 2.0], &[2]);
        let b = Tensor::from_vec(vec![3.0, 4.0], &[2]);
        assert_eq!((&a + &b).as_slice(), &[4.0, 6.0]);
        assert_eq!((&a - &b).as_slice(), &[-2.0, -2.0]);
        assert_eq!((&a * &b).as_slice(), &[3.0, 8.0]);
        assert_eq!((&b / &a).as_slice(), &[3.0, 2.0]);
        assert_eq!((&a * 2.0).as_slice(), &[2.0, 4.0]);
        assert_eq!((-&a).as_slice(), &[-1.0, -2.0]);
    }

    #[test]
    fn axpy_accumulates() {
        let mut a = Tensor::ones(&[3]);
        let g = Tensor::from_vec(vec![1.0, 2.0, 3.0], &[3]);
        a.axpy(-0.5, &g);
        assert_eq!(a.as_slice(), &[0.5, 0.0, -0.5]);
    }

    #[test]
    fn row_broadcast_adds_bias() {
        let x = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]);
        let b = Tensor::from_vec(vec![10.0, 20.0], &[2]);
        let y = x.add_row_broadcast(&b);
        assert_eq!(y.as_slice(), &[11.0, 22.0, 13.0, 24.0]);
    }

    #[test]
    fn reshape_preserves_data() {
        let x = Tensor::linspace(0.0, 5.0, 6);
        let y = x.reshape(&[2, 3]);
        assert_eq!(y.dims(), &[2, 3]);
        assert_eq!(y.as_slice(), x.as_slice());
    }

    #[test]
    #[should_panic(expected = "shape mismatch")]
    fn zip_rejects_mismatched_shapes() {
        let a = Tensor::zeros(&[2]);
        let b = Tensor::zeros(&[3]);
        let _ = &a + &b;
    }

    #[test]
    #[should_panic(expected = "does not match shape")]
    fn from_vec_validates_len() {
        let _ = Tensor::from_vec(vec![1.0; 5], &[2, 2]);
    }

    #[test]
    fn norm_and_finiteness() {
        let t = Tensor::from_vec(vec![3.0, 4.0], &[2]);
        assert!((t.norm() - 5.0).abs() < 1e-6);
        assert!(t.is_finite());
        let bad = Tensor::from_vec(vec![f32::NAN], &[1]);
        assert!(!bad.is_finite());
    }

    #[test]
    fn equality_compares_shape_and_values() {
        let a = Tensor::from_vec(vec![1.0, 2.0], &[2]);
        let b = Tensor::from_vec(vec![1.0, 2.0], &[2]);
        assert_eq!(a, b);
        assert_ne!(a, Tensor::from_vec(vec![1.0, 2.0], &[2, 1]));
    }

    #[test]
    fn indexing_round_trips() {
        let mut t = Tensor::zeros(&[2, 3]);
        t[&[1, 2][..]] = 9.0;
        assert_eq!(t[&[1, 2][..]], 9.0);
        assert_eq!(t.as_slice()[5], 9.0);
    }
}
