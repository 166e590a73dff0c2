//! Golden output bits of the paper's two CNNs.
//!
//! The determinism suites compare thread counts within one build, and
//! `tests/simd.rs` compares dispatch tiers on bare GEMMs. Neither would
//! notice a change to a layer's data movement (im2col, packing, the conv
//! transposes, pooling, activations) that moved an output bit the same way
//! at every thread count. This suite pins the bits themselves: parameters,
//! inputs and the output gradient come from an integer hash (no normal
//! init, softmax or `exp`, so no libm result feeds the pinned values), the
//! network takes three momentum-SGD steps at batch 10 and then runs an
//! inference pass over a 64-sample and an 8-sample chunk, and an FNV-1a
//! fingerprint of the final parameters and logits must equal a recorded
//! constant at 1 and 4 threads. CI runs it at the default SIMD tier and
//! again under `CHIRON_SIMD=0`; every tier must reproduce the same
//! constants.

mod common;

use chiron_nn::models::{cifar_lenet, mnist_cnn};
use chiron_nn::{Optimizer, Sequential, Sgd};
use chiron_tensor::{pool, Tensor, TensorRng};

const BATCH: usize = 10;
const STEPS: u64 = 3;

/// SplitMix64 finaliser: a well-mixed 64-bit hash of `(stream, index)`.
fn hash(stream: u64, index: u64) -> u64 {
    let mut z = stream
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(index)
        .wrapping_add(0x632B_E59B_D9B3_E50F);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// `len` values uniform on `[-scale, scale)` (a power of two), built from
/// integers by exact conversions only.
fn hashed(stream: u64, len: usize, scale: f32) -> Vec<f32> {
    (0..len as u64)
        .map(|i| ((hash(stream, i) >> 40) as i32 - (1 << 23)) as f32 * (scale / (1 << 23) as f32))
        .collect()
}

fn fnv1a(hash: &mut u64, values: &[f32]) {
    for v in values {
        for byte in v.to_bits().to_le_bytes() {
            *hash ^= u64::from(byte);
            *hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }
}

/// Trains `net` for [`STEPS`] steps on hashed `(c, hw, hw)` inputs, runs
/// `forward_chunks` on a 64- and an 8-sample chunk, and fingerprints the
/// parameters and logits.
fn fingerprint(mut net: Sequential, c: usize, hw: usize) -> u64 {
    let sample = c * hw * hw;
    net.set_parameters_flat(&hashed(1, net.num_params(), 0.125));
    let grad = Tensor::from_vec(hashed(2, BATCH * 10, 0.0625), &[BATCH, 10]);
    let mut opt = Sgd::with_momentum(0.05, 0.9);
    for step in 0..STEPS {
        let x = Tensor::from_vec(hashed(10 + step, BATCH * sample, 1.0), &[BATCH, c, hw, hw]);
        net.forward(&x, true);
        net.backward_train(&grad);
        opt.step(&mut net);
    }
    let chunks: Vec<Tensor> = [(20, 64), (21, 8)]
        .iter()
        .map(|&(stream, n)| Tensor::from_vec(hashed(stream, n * sample, 1.0), &[n, c, hw, hw]))
        .collect();
    let logits = net.forward_chunks(&chunks);
    let mut h = 0xCBF2_9CE4_8422_2325;
    fnv1a(&mut h, &net.parameters_flat());
    for l in &logits {
        fnv1a(&mut h, l.as_slice());
    }
    h
}

fn assert_bits(build: fn(&mut TensorRng) -> Sequential, c: usize, hw: usize, expected: u64) {
    let _sweep = common::pool_sweep();
    for threads in [1, 4] {
        pool::set_threads(threads);
        let got = fingerprint(build(&mut TensorRng::seed_from(0)), c, hw);
        assert_eq!(
            got, expected,
            "fingerprint {got:#018x} at {threads} threads, expected {expected:#018x}"
        );
    }
}

#[test]
fn mnist_cnn_bits_are_pinned() {
    assert_bits(mnist_cnn, 1, 28, 0x4d14_82b5_7c3f_42e4);
}

#[test]
fn cifar_lenet_bits_are_pinned() {
    assert_bits(cifar_lenet, 3, 32, 0xcde1_b6ce_623c_96cf);
}
