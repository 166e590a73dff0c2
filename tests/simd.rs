//! SIMD dispatch-tier determinism, proven end to end.
//!
//! The kernel's contract (see `chiron_tensor::kernel` docs) is that every
//! dispatch tier — pinned scalar, AVX2, NEON — and every blocking the fixed
//! table can pick produces **bitwise-identical** output. These tests drive
//! the public matmul API exactly as the training stack does (so the active
//! tier, the blocking table and the `CHIRON_SIMD` knob all apply) and
//! compare against the pinned scalar reference configuration via
//! [`chiron_tensor::matmul_into_with`]. CI runs this suite at the default
//! tier and once more under `CHIRON_SIMD=0`; the pool size is swept
//! in-process.

mod common;

use chiron_tensor::{
    detect, matmul_into_with, params_for, pool, DispatchTier, Init, KernelParams, MatView,
    MicroTile, ShapeKey, TensorRng,
};

/// The paper's conv im2col products (MNIST CNN forward shapes) plus one
/// deliberately ragged shape that divides none of the micro-tiles.
const SHAPES: [(usize, usize, usize); 3] = [(5760, 25, 10), (640, 250, 20), (131, 260, 37)];

/// Pinned scalar reference: the pre-SIMD kernel's exact configuration.
fn scalar_reference(a: &[f32], b: &[f32], m: usize, k: usize, n: usize) -> Vec<f32> {
    let av = MatView::row_major(a, m, k);
    let bv = MatView::row_major(b, k, n);
    let mut out = vec![0.0f32; m * n];
    matmul_into_with(
        &av,
        &bv,
        &mut out,
        DispatchTier::Scalar,
        KernelParams::pinned_scalar(),
    );
    out
}

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

#[test]
fn active_tier_honors_chiron_simd() {
    if std::env::var("CHIRON_SIMD").as_deref() == Ok("0") {
        assert_eq!(chiron_tensor::active_tier(), DispatchTier::Scalar);
    } else {
        assert_eq!(chiron_tensor::active_tier(), detect());
    }
}

/// The env-honoring public path (whatever tier this process resolved, and
/// the table's blocking for it) must equal the pinned scalar reference bitwise at the
/// paper's shapes, at several pool sizes.
#[test]
fn public_matmul_matches_pinned_scalar_reference_bitwise() {
    let mut rng = TensorRng::seed_from(1234);
    let _sweep = common::pool_sweep();
    for (m, k, n) in SHAPES {
        let a = rng.init(&[m, k], Init::Normal(1.0));
        let b = rng.init(&[k, n], Init::Normal(1.0));
        let want = bits(&scalar_reference(a.as_slice(), b.as_slice(), m, k, n));
        for threads in [1, 4, 8] {
            pool::set_threads(threads);
            let got = a.matmul(&b);
            assert_eq!(
                bits(got.as_slice()),
                want,
                "{m}x{k}x{n} diverged from pinned scalar at {threads} threads"
            );
        }
    }
}

/// Same contract for the transposed operand layouts the backward passes use.
#[test]
fn transposed_variants_match_pinned_scalar_reference_bitwise() {
    let mut rng = TensorRng::seed_from(77);
    let (m, k, n) = (640, 250, 20);
    let a_t = rng.init(&[k, m], Init::Normal(1.0));
    let b = rng.init(&[k, n], Init::Normal(1.0));
    let av = MatView::transposed(a_t.as_slice(), m, k);
    let bv = MatView::row_major(b.as_slice(), k, n);
    let mut want = vec![0.0f32; m * n];
    matmul_into_with(
        &av,
        &bv,
        &mut want,
        DispatchTier::Scalar,
        KernelParams::pinned_scalar(),
    );
    let _sweep = common::pool_sweep();
    for threads in [1, 4, 8] {
        pool::set_threads(threads);
        let got = a_t.matmul_tn(&b);
        assert_eq!(
            bits(got.as_slice()),
            bits(&want),
            "matmul_tn diverged at {threads} threads"
        );
    }
}

/// The ten GEMM shapes a traced `real_episode` runs (the MNIST CNN's conv
/// and fc products in training and evaluation), in their traced layouts:
/// `(m, k, n, a col-major, b col-major)`.
const TRACED: [(usize, usize, usize, bool, bool); 10] = [
    (5760, 25, 10, false, false),
    (36864, 25, 10, false, false),
    (4608, 25, 10, false, false),
    (25, 5760, 10, true, false),
    (640, 250, 20, false, false),
    (512, 250, 20, false, false),
    (4096, 250, 20, false, false),
    (250, 640, 20, true, false),
    (640, 20, 250, false, true),
    (64, 320, 50, false, false),
];

/// Every tile the blocking table can return on the active tier, in the
/// table's blocking, must equal the pinned scalar reference bitwise on the
/// traced shapes — so whichever row of the table a shape lands on, its
/// output bits are the reference's.
#[test]
fn blocking_table_tiles_match_pinned_scalar_on_traced_shapes() {
    let tier = chiron_tensor::active_tier();
    let tiles: &[MicroTile] = if tier == DispatchTier::Scalar {
        &[MicroTile::M8N4]
    } else {
        &[MicroTile::M8N8, MicroTile::M12N8, MicroTile::M4N16]
    };
    let mut rng = TensorRng::seed_from(9);
    for (m, k, n, a_col, b_col) in TRACED {
        let a = rng.init(&[m, k], Init::Normal(1.0));
        let b = rng.init(&[k, n], Init::Normal(1.0));
        let av = if a_col {
            MatView::transposed(a.as_slice(), m, k)
        } else {
            MatView::row_major(a.as_slice(), m, k)
        };
        let bv = if b_col {
            MatView::transposed(b.as_slice(), k, n)
        } else {
            MatView::row_major(b.as_slice(), k, n)
        };
        let key = ShapeKey {
            m,
            k,
            n,
            layout_a: u8::from(a_col),
            layout_b: u8::from(b_col),
        };
        let pick = params_for(tier, key);
        assert!(tiles.contains(&pick.tile), "{key:?} picked {pick:?}");
        let mut want = vec![0.0f32; m * n];
        matmul_into_with(
            &av,
            &bv,
            &mut want,
            DispatchTier::Scalar,
            KernelParams::pinned_scalar(),
        );
        for &tile in tiles {
            let params = KernelParams { tile, ..pick };
            let mut out = vec![0.0f32; m * n];
            matmul_into_with(&av, &bv, &mut out, tier, params);
            assert_eq!(
                bits(&out),
                bits(&want),
                "{key:?} with {params:?} diverged from pinned scalar"
            );
        }
    }
}
