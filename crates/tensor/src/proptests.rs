//! Property-based tests for tensor algebra invariants.

use crate::{
    col2im, conv2d_forward, detect, matmul_into_with, Conv2dGeometry, DispatchTier, Init,
    KernelParams, MatView, Tensor, TensorRng,
};
use proptest::prelude::*;

fn small_matrix() -> impl Strategy<Value = (usize, usize, Vec<f32>)> {
    (1usize..6, 1usize..6).prop_flat_map(|(m, n)| {
        proptest::collection::vec(-10.0f32..10.0, m * n).prop_map(move |v| (m, n, v))
    })
}

/// Reference matmul in the canonical accumulation order: one `f32`
/// accumulator per output element, ascending `k`. The kernel must match
/// this bitwise on every dispatch path (see `kernel` module docs).
fn naive_matmul(a: &[f32], b: &[f32], m: usize, k: usize, n: usize) -> Vec<f32> {
    let mut out = vec![0.0f32; m * n];
    for i in 0..m {
        for j in 0..n {
            let mut acc = 0.0f32;
            for kk in 0..k {
                acc += a[i * k + kk] * b[kk * n + j];
            }
            out[i * n + j] = acc;
        }
    }
    out
}

proptest! {
    #[test]
    fn matmul_identity_is_noop((m, n, data) in small_matrix()) {
        let a = Tensor::from_vec(data, &[m, n]);
        let i = Tensor::eye(n);
        let out = a.matmul(&i);
        for (x, y) in a.as_slice().iter().zip(out.as_slice()) {
            prop_assert!((x - y).abs() < 1e-5);
        }
    }

    #[test]
    fn transpose_is_involution((m, n, data) in small_matrix()) {
        let a = Tensor::from_vec(data, &[m, n]);
        let tt = a.transpose().transpose();
        prop_assert_eq!(a.as_slice(), tt.as_slice());
        prop_assert_eq!(a.dims(), tt.dims());
    }

    #[test]
    fn matmul_tn_matches_naive((m, n, data) in small_matrix(), seed in 0u64..1000) {
        let a = Tensor::from_vec(data, &[m, n]);
        let mut rng = TensorRng::seed_from(seed);
        let b = rng.init(&[m, 3], Init::Normal(1.0));
        let fast = a.matmul_tn(&b);
        let naive = a.transpose().matmul(&b);
        for (x, y) in fast.as_slice().iter().zip(naive.as_slice()) {
            prop_assert!((x - y).abs() < 1e-3);
        }
    }

    #[test]
    fn matmul_nt_matches_naive((m, n, data) in small_matrix(), seed in 0u64..1000) {
        let a = Tensor::from_vec(data, &[m, n]);
        let mut rng = TensorRng::seed_from(seed);
        let b = rng.init(&[4, n], Init::Normal(1.0));
        let fast = a.matmul_nt(&b);
        let naive = a.matmul(&b.transpose());
        for (x, y) in fast.as_slice().iter().zip(naive.as_slice()) {
            prop_assert!((x - y).abs() < 1e-3);
        }
    }

    #[test]
    fn softmax_rows_sum_to_one((m, n, data) in small_matrix()) {
        let a = Tensor::from_vec(data, &[m, n]);
        let s = a.softmax_rows();
        for r in 0..m {
            let row_sum: f32 = s.as_slice()[r * n..(r + 1) * n].iter().sum();
            prop_assert!((row_sum - 1.0).abs() < 1e-5);
            prop_assert!(s.as_slice()[r * n..(r + 1) * n].iter().all(|&x| x >= 0.0));
        }
    }

    #[test]
    fn sum_rows_matches_total((m, n, data) in small_matrix()) {
        let a = Tensor::from_vec(data, &[m, n]);
        let col_sums = a.sum_rows();
        prop_assert!((col_sums.sum() - a.sum()).abs() < 1e-3);
    }

    #[test]
    fn conv_forward_input_grad_adjoint(
        seed in 0u64..500,
        n in 1usize..3,
        h in 3usize..10,
        w in 3usize..12,
        k in 1usize..4,
        pad in 0usize..2,
        c_out in 1usize..14,
    ) {
        // <conv(x), y> == <x, col2im(y·Wᵀ)>: the input gradient the conv
        // layer forms is the adjoint of its direct forward pass.
        prop_assume!(h + 2 * pad >= k && w + 2 * pad >= k);
        let mut rng = TensorRng::seed_from(seed);
        let x = rng.init(&[n, 2, h, w], Init::Normal(1.0));
        let geo = Conv2dGeometry::new(h, w, k, k, 1, pad);
        let wt = rng.init(&[2 * k * k, c_out], Init::Normal(1.0));
        let y = conv2d_forward(&x, &wt, &vec![0.0; c_out], &geo, false);
        // The cotangent in the product's `(N·P, K)` layout.
        let p = geo.out_positions();
        let yt = rng.init(&[n * p, c_out], Init::Normal(1.0));
        let mut lhs = 0.0f64;
        for (i, &v) in y.as_slice().iter().enumerate() {
            let (img, f, pos) = (i / (c_out * p), i / p % c_out, i % p);
            lhs += f64::from(v) * f64::from(yt.as_slice()[(img * p + pos) * c_out + f]);
        }
        let rhs = x.dot(&col2im(&yt.matmul_nt(&wt), n, 2, &geo)) as f64;
        prop_assert!((lhs - rhs).abs() < 1e-2 * lhs.abs().max(1.0), "{} vs {}", lhs, rhs);
    }

    #[test]
    fn clamp_respects_bounds(data in proptest::collection::vec(-100.0f32..100.0, 1..32)) {
        let n = data.len();
        let t = Tensor::from_vec(data, &[n]);
        let c = t.clamp(-1.0, 1.0);
        prop_assert!(c.as_slice().iter().all(|&x| (-1.0..=1.0).contains(&x)));
    }

    #[test]
    fn direct_matmul_matches_naive_exactly(
        m in 1usize..24, k in 1usize..24, n in 1usize..24, seed in 0u64..1000,
    ) {
        // m·k·n < 2^18, so this stays on the direct path; shapes cover
        // everything non-divisible by MR=8 / NR=4.
        let mut rng = TensorRng::seed_from(seed);
        let a = rng.init(&[m, k], Init::Normal(1.0));
        let b = rng.init(&[k, n], Init::Normal(1.0));
        let fast = a.matmul(&b);
        let naive = naive_matmul(a.as_slice(), b.as_slice(), m, k, n);
        prop_assert_eq!(fast.as_slice(), &naive[..]);
    }
}

// Larger shapes that cross BLOCKED_FLOP_THRESHOLD (2^18 flops) and so take
// the packed, cache-blocked kernel. Fewer cases — each one is a real GEMM.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn blocked_matmul_matches_naive_exactly(
        m in 64usize..100, k in 240usize..280, n in 33usize..70, seed in 0u64..1000,
    ) {
        // m·k·n ≥ 64·240·33 > 2^18 → blocked path; k straddles KC=256 so
        // some shapes accumulate a C tile across two packed panels, and the
        // ranges are chosen to never divide MR/NR/MC evenly for all cases.
        let mut rng = TensorRng::seed_from(seed);
        let a = rng.init(&[m, k], Init::Normal(1.0));
        let b = rng.init(&[k, n], Init::Normal(1.0));
        let fast = a.matmul(&b);
        let naive = naive_matmul(a.as_slice(), b.as_slice(), m, k, n);
        prop_assert_eq!(fast.as_slice(), &naive[..]);
    }

    #[test]
    fn blocked_tn_matches_naive_exactly(
        m in 100usize..130, k in 64usize..90, n in 45usize..60, seed in 0u64..1000,
    ) {
        // Exercises the ColMajor packing specialization on the blocked path.
        let mut rng = TensorRng::seed_from(seed);
        let a_t = rng.init(&[k, m], Init::Normal(1.0));
        let b = rng.init(&[k, n], Init::Normal(1.0));
        let fast = a_t.matmul_tn(&b);
        let a = a_t.transpose();
        let naive = naive_matmul(a.as_slice(), b.as_slice(), m, k, n);
        prop_assert_eq!(fast.as_slice(), &naive[..]);
    }

    /// Every vector micro-tile must reproduce the pinned scalar kernel
    /// bitwise on the blocked path — including on signed zeros, subnormals,
    /// and NaNs sprinkled through both operands (the packed path has no
    /// zero-skip, so NaN terms flow through every tier identically).
    #[test]
    fn vector_tiers_match_pinned_scalar_bitwise(
        m in 64usize..100, k in 240usize..280, n in 33usize..70, seed in 0u64..1000,
        picks in proptest::collection::vec((0usize..1 << 16, 0usize..16), 0..12),
    ) {
        const EDGE: [f32; 8] = [
            0.0,
            -0.0,
            f32::NAN,
            f32::MIN_POSITIVE,      // smallest normal
            1.0e-40,                // subnormal
            -1.0e-44,               // subnormal, negative
            3.0e38,                 // near f32::MAX — products overflow to inf
            -7.25,
        ];
        let tier = detect();
        prop_assume!(tier != DispatchTier::Scalar);
        let mut rng = TensorRng::seed_from(seed);
        let mut a = rng.init(&[m, k], Init::Normal(1.0)).as_slice().to_vec();
        let mut b = rng.init(&[k, n], Init::Normal(1.0)).as_slice().to_vec();
        let (alen, blen) = (a.len(), b.len());
        for &(pos, val) in &picks {
            a[pos % alen] = EDGE[val % EDGE.len()];
            b[(pos / 7) % blen] = EDGE[(val + 3) % EDGE.len()];
        }
        let av = MatView::row_major(&a, m, k);
        let bv = MatView::row_major(&b, k, n);
        let mut scalar = vec![0.0f32; m * n];
        matmul_into_with(
            &av, &bv, &mut scalar, DispatchTier::Scalar, KernelParams::pinned_scalar(),
        );
        let sb: Vec<u32> = scalar.iter().map(|v| v.to_bits()).collect();
        for tile in crate::kernel::simd::ALL_TILES {
            let params = KernelParams { mc: 64, kc: 256, nc: 512, tile };
            let mut out = vec![0.0f32; m * n];
            matmul_into_with(&av, &bv, &mut out, tier, params);
            let ob: Vec<u32> = out.iter().map(|v| v.to_bits()).collect();
            prop_assert_eq!(&sb, &ob, "tile {:?} diverged from pinned scalar", tile);
        }
    }

    /// Tier equality on the transposed operand layouts: a ColMajor A
    /// (strips packed as fixed-width runs, ragged edges included) against
    /// a ColMajor B, both packed through their specialized paths.
    #[test]
    fn vector_tiers_match_scalar_on_all_layouts(
        m in 100usize..130, k in 64usize..90, n in 45usize..60, seed in 0u64..1000,
    ) {
        let tier = detect();
        prop_assume!(tier != DispatchTier::Scalar);
        let mut rng = TensorRng::seed_from(seed);
        let a_t = rng.init(&[k, m], Init::Normal(1.0));
        let b_t = rng.init(&[n, k], Init::Normal(1.0));
        let av = MatView::transposed(a_t.as_slice(), m, k);
        let bv = MatView::transposed(b_t.as_slice(), k, n);
        let mut scalar = vec![0.0f32; m * n];
        matmul_into_with(
            &av, &bv, &mut scalar, DispatchTier::Scalar, KernelParams::pinned_scalar(),
        );
        let sb: Vec<u32> = scalar.iter().map(|v| v.to_bits()).collect();
        for tile in crate::kernel::simd::ALL_TILES {
            let params = KernelParams { mc: 64, kc: 256, nc: 512, tile };
            let mut out = vec![0.0f32; m * n];
            matmul_into_with(&av, &bv, &mut out, tier, params);
            let ob: Vec<u32> = out.iter().map(|v| v.to_bits()).collect();
            prop_assert_eq!(&sb, &ob, "tile {:?} diverged on ColMajor×ColMajor", tile);
        }
    }

    #[test]
    fn blocked_nt_matches_naive_exactly(
        m in 100usize..130, k in 64usize..90, n in 45usize..60, seed in 0u64..1000,
    ) {
        let mut rng = TensorRng::seed_from(seed);
        let a = rng.init(&[m, k], Init::Normal(1.0));
        let b_t = rng.init(&[n, k], Init::Normal(1.0));
        let fast = a.matmul_nt(&b_t);
        let b = b_t.transpose();
        let naive = naive_matmul(a.as_slice(), b.as_slice(), m, k, n);
        prop_assert_eq!(fast.as_slice(), &naive[..]);
    }
}

/// Special values sprinkled into operands by the epilogue equality
/// sweeps: NaN payloads, signed zeros, subnormals, and near-overflow
/// magnitudes all have to survive every code path bitwise.
const SPECIALS: [f32; 8] = [
    0.0,
    -0.0,
    f32::NAN,
    f32::MIN_POSITIVE,
    1.0e-40,  // subnormal
    -1.0e-44, // subnormal, negative
    3.0e38,   // products overflow to inf
    -7.25,
];

fn sprinkle(data: &mut [f32], picks: &[(usize, usize)], salt: usize) {
    let len = data.len();
    for &(pos, val) in picks {
        data[(pos + salt) % len] = SPECIALS[(val + salt) % SPECIALS.len()];
    }
}

fn bits(t: &Tensor) -> Vec<u32> {
    t.as_slice().iter().map(|v| v.to_bits()).collect()
}

// Fused-epilogue equality sweeps. The epilogues are a performance feature
// that must be bitwise invisible; these run the same product fused and
// unfused and require identical bits, on both the direct and blocked
// dispatch paths.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn fused_epilogues_match_unfused_bitwise_blocked(
        m in 60usize..100, k in 240usize..280, n in 33usize..70, seed in 0u64..1000,
        picks in proptest::collection::vec((0usize..1 << 16, 0usize..16), 0..10),
    ) {
        let mut rng = TensorRng::seed_from(seed);
        let mut a = rng.init(&[m, k], Init::Normal(1.0));
        let mut b = rng.init(&[k, n], Init::Normal(1.0));
        let mut bias = rng.init(&[n], Init::Normal(1.0));
        sprinkle(a.as_mut_slice(), &picks, 0);
        sprinkle(b.as_mut_slice(), &picks, 3);
        sprinkle(bias.as_mut_slice(), &picks, 5);

        let unfused = a.matmul(&b).add_row_broadcast(&bias);
        prop_assert_eq!(bits(&a.matmul_bias(&b, &bias)), bits(&unfused));
        let unfused_relu = unfused.map(|x| x.max(0.0));
        prop_assert_eq!(bits(&a.matmul_bias_relu(&b, &bias)), bits(&unfused_relu));
    }
}

proptest! {
    #[test]
    fn fused_epilogues_match_unfused_bitwise_direct(
        m in 1usize..20, k in 1usize..24, n in 1usize..24, seed in 0u64..1000,
        picks in proptest::collection::vec((0usize..1 << 12, 0usize..16), 0..6),
    ) {
        // m·k·n < 2^18 → direct path, shapes not divisible by MR/NR.
        let mut rng = TensorRng::seed_from(seed);
        let mut a = rng.init(&[m, k], Init::Normal(1.0));
        let mut b = rng.init(&[k, n], Init::Normal(1.0));
        let mut bias = rng.init(&[n], Init::Normal(1.0));
        sprinkle(a.as_mut_slice(), &picks, 0);
        sprinkle(b.as_mut_slice(), &picks, 3);
        sprinkle(bias.as_mut_slice(), &picks, 5);

        let unfused = a.matmul(&b).add_row_broadcast(&bias);
        prop_assert_eq!(bits(&a.matmul_bias(&b, &bias)), bits(&unfused));
        let unfused_relu = unfused.map(|x| x.max(0.0));
        prop_assert_eq!(bits(&a.matmul_bias_relu(&b, &bias)), bits(&unfused_relu));
    }
}

/// `matmul_batched_into` must be bitwise-equal to issuing the same GEMMs
/// one call at a time, for every epilogue, on both dispatch paths.
#[test]
fn batched_gemm_matches_per_call_bitwise() {
    use crate::{matmul_batched_into, matmul_views_ep, Epilogue};

    for &(m, k, n) in &[(5usize, 7usize, 9usize), (70, 260, 48)] {
        let mut rng = TensorRng::seed_from(7);
        let b = rng.init(&[k, n], Init::Normal(1.0));
        let instances: Vec<Tensor> = (0..5)
            .map(|_| rng.init(&[m, k], Init::Normal(1.0)))
            .collect();
        let bias = rng.init(&[n], Init::Normal(1.0));
        for ep_kind in 0..3 {
            let ep = || match ep_kind {
                0 => Epilogue::None,
                1 => Epilogue::Bias(bias.as_slice()),
                _ => Epilogue::BiasRelu(bias.as_slice()),
            };
            let bv = MatView::row_major(b.as_slice(), k, n);
            let avs: Vec<MatView<'_>> = instances
                .iter()
                .map(|t| MatView::row_major(t.as_slice(), m, k))
                .collect();
            let mut outs = vec![vec![0.0f32; m * n]; instances.len()];
            {
                let mut out_refs: Vec<&mut [f32]> =
                    outs.iter_mut().map(|v| v.as_mut_slice()).collect();
                matmul_batched_into(&avs, &bv, &mut out_refs, ep());
            }
            for (av, out) in avs.iter().zip(&outs) {
                let solo = matmul_views_ep(av, &bv, ep());
                assert_eq!(
                    solo.as_slice()
                        .iter()
                        .map(|v| v.to_bits())
                        .collect::<Vec<_>>(),
                    out.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                    "batched diverged at ({m},{k},{n}) epilogue {ep_kind}"
                );
            }
        }
    }
}
