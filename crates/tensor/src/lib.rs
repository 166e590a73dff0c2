//! # chiron-tensor
//!
//! A minimal, dependency-light dense tensor library used by the Chiron
//! (ICDCS 2021) reproduction. It provides exactly the operations the
//! from-scratch neural-network stack (`chiron-nn`) needs:
//!
//! * an owned, row-major, `f32` [`Tensor`] with an explicit [`Shape`];
//! * elementwise arithmetic, broadcasting against scalars and rows;
//! * 2-D matrix multiplication (plus transposed variants) tuned for the
//!   small policy/value networks and CNNs the paper trains;
//! * direct convolution kernels (forward pass and weight gradient) over
//!   NCHW batches, and the `col2im` scatter for the input gradient;
//! * reductions (`sum`, `mean`, `max`, `argmax`) along the last axis;
//! * seeded random initialization (uniform, normal, Xavier/He fan-based).
//!
//! The library is intentionally *not* a general ndarray replacement: shapes
//! are validated eagerly and dimension mismatches panic with descriptive
//! messages, because inside a training loop a shape error is always a
//! programming bug rather than a recoverable condition.
//!
//! ## Example
//!
//! ```
//! use chiron_tensor::Tensor;
//!
//! let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]);
//! let b = Tensor::eye(2);
//! let c = a.matmul(&b);
//! assert_eq!(c.as_slice(), &[1.0, 2.0, 3.0, 4.0]);
//! ```

mod conv;
mod init;
pub mod kernel;
mod ops;
pub mod pool;
pub mod scratch;
mod shape;
mod tensor;

pub use conv::{col2im, conv2d_forward, conv2d_weight_grad, Conv2dGeometry};
pub use init::{Init, RngState, TensorRng};
pub use kernel::simd::{active_tier, detect, DispatchTier, MicroTile};
pub use kernel::tune::{cached_params, params_for, KernelParams, ShapeKey};
pub use kernel::{
    matmul_batched_into, matmul_into, matmul_into_ep, matmul_into_with, matmul_views,
    matmul_views_ep, Epilogue, MatView,
};
pub use shape::Shape;
pub use tensor::Tensor;

#[cfg(test)]
mod proptests;
