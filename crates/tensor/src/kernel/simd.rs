//! Runtime-dispatched SIMD micro-kernels for the blocked matmul path.
//!
//! # Dispatch tiers
//!
//! [`detect`] probes the host once: x86-64 with AVX2 → [`DispatchTier::Avx2`],
//! aarch64 → [`DispatchTier::Neon`] (NEON is baseline there), anything else →
//! [`DispatchTier::Scalar`]. [`active_tier`] applies the `CHIRON_SIMD` knob on
//! top: `0`/`false` pins the scalar tier, unset or `1` uses the detected one.
//!
//! # Why every tier is bitwise-identical
//!
//! The vector micro-kernels place their lanes **along `n`** (output columns)
//! and keep **one accumulator lane per output element**, folding `k` in
//! ascending order with an *unfused* multiply-then-add:
//!
//! ```text
//! acc[r].lane[j]  =  acc[r].lane[j] + a[r][kk] * b[kk][j]     (kk ascending)
//! ```
//!
//! That is operation-for-operation the canonical scalar chain from the
//! [`kernel`](crate::kernel) module docs: the same two IEEE-754 `f32`
//! operations (`mul`, then `add`), in the same order, with the same operand
//! order. SIMD lanes never combine across `k` (no horizontal reduction) and
//! FMA is deliberately **not** used — a fused multiply-add rounds once where
//! `mul`+`add` rounds twice, which would change low bits. Each lane therefore
//! produces the identical bit pattern the scalar tier produces, including
//! signed zeros, subnormals, and NaN payloads (x86 and aarch64 vector lanes
//! share their scalar ops' NaN-propagation rule, and the operand order is
//! preserved). The property tests and `tests/simd.rs` assert this exact
//! equality on every layout, at non-divisible shapes, and on edge values.
//!
//! The price of unfused arithmetic is half the peak FLOP rate of an FMA
//! kernel; the reward is that the SIMD tier needs no separate numerics
//! story — it *is* the pinned reference, wider.

use std::sync::OnceLock;

/// Instruction-set tier the blocked kernel's micro-kernels run on.
///
/// All tiers compute bitwise-identical results (see module docs); the tier
/// only decides how many output columns one instruction advances.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DispatchTier {
    /// Portable scalar loops — the pinned reference tier.
    Scalar,
    /// x86-64 AVX2: 8-lane `f32` vectors.
    Avx2,
    /// aarch64 NEON: 4-lane `f32` vectors (always available on aarch64).
    Neon,
}

impl DispatchTier {
    /// Stable lowercase label (telemetry counter suffix, benchmark host line).
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            DispatchTier::Scalar => "scalar",
            DispatchTier::Avx2 => "avx2",
            DispatchTier::Neon => "neon",
        }
    }
}

/// Register micro-tile shape: how many C rows × columns one micro-kernel
/// invocation advances. `mr × nr` accumulators must fit the register file
/// with room for one B vector and one A broadcast.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MicroTile {
    /// 8×4 — the pinned scalar tile (pre-SIMD kernel, unchanged).
    M8N4,
    /// 8×8 — one 8-lane vector per row; the vector tiers' default.
    M8N8,
    /// 12×8 — taller tile, more B-vector reuse per load.
    M12N8,
    /// 4×16 — two 8-lane vectors per row, shallow.
    M4N16,
}

/// Largest `mr` any tile uses (staging-buffer bound).
pub const MR_MAX: usize = 12;
/// Largest `nr` any tile uses (staging-buffer bound).
pub const NR_MAX: usize = 16;

/// Every tile, for tests that cross all of them against the reference.
#[cfg(test)]
pub(crate) const ALL_TILES: [MicroTile; 4] = [
    MicroTile::M8N4,
    MicroTile::M8N8,
    MicroTile::M12N8,
    MicroTile::M4N16,
];

impl MicroTile {
    /// Tile rows.
    #[must_use]
    pub fn mr(self) -> usize {
        match self {
            MicroTile::M8N4 | MicroTile::M8N8 => 8,
            MicroTile::M12N8 => 12,
            MicroTile::M4N16 => 4,
        }
    }

    /// Tile columns.
    #[must_use]
    pub fn nr(self) -> usize {
        match self {
            MicroTile::M8N4 => 4,
            MicroTile::M8N8 | MicroTile::M12N8 => 8,
            MicroTile::M4N16 => 16,
        }
    }
}

/// Best tier the host supports (pure capability probe; ignores
/// `CHIRON_SIMD`).
#[must_use]
pub fn detect() -> DispatchTier {
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("avx2") {
            return DispatchTier::Avx2;
        }
    }
    #[cfg(target_arch = "aarch64")]
    {
        return DispatchTier::Neon;
    }
    #[allow(unreachable_code)]
    DispatchTier::Scalar
}

/// The tier the kernel dispatches to: [`detect`]ed capability unless
/// `CHIRON_SIMD=0` pins the scalar tier. Read once per process.
#[must_use]
pub fn active_tier() -> DispatchTier {
    static TIER: OnceLock<DispatchTier> = OnceLock::new();
    *TIER.get_or_init(|| {
        if chiron_telemetry::RuntimeConfig::global().simd == Some(false) {
            DispatchTier::Scalar
        } else {
            detect()
        }
    })
}

// ---------------------------------------------------------------------------
// Micro-kernel entry point
// ---------------------------------------------------------------------------

/// Advances one `mr × nr` C tile by `kc` terms of the canonical fold.
///
/// `c` is the tile's top-left element with row stride `stride` — either a
/// full-size tile living directly in the output (stride = the output's `n`;
/// the fast path, no staging copies) or a stack staging tile (stride = `nr`;
/// used for ragged edge tiles). `ap` is an `mr`-interleaved A strip
/// (`ap[kk·mr + r]`); `bp` an `nr`-interleaved B strip (`bp[kk·nr + j]`).
/// Where a tile lives is numerically invisible: the kernels load the C tile
/// into register accumulators, run the identical fold, and store it back,
/// and an `f32` copy round-trip is value-preserving. Tier/tile pairs
/// without a vector implementation (including every pair on non-SIMD
/// hosts) fall back to the scalar loops — bitwise-equal by the module-docs
/// argument, so the fallback is invisible.
#[inline]
pub(super) fn micro(
    tier: DispatchTier,
    tile: MicroTile,
    kc: usize,
    ap: &[f32],
    bp: &[f32],
    c: &mut [f32],
    stride: usize,
) {
    debug_assert!(ap.len() >= kc * tile.mr());
    debug_assert!(bp.len() >= kc * tile.nr());
    debug_assert!(stride >= tile.nr());
    debug_assert!(c.len() >= (tile.mr() - 1) * stride + tile.nr());
    match tier {
        #[cfg(target_arch = "x86_64")]
        DispatchTier::Avx2 => {
            // Safety: `Avx2` is only ever produced by `detect()` on hosts
            // where `is_x86_feature_detected!("avx2")` held.
            unsafe {
                match tile {
                    MicroTile::M8N8 => avx2::m8n8(kc, ap, bp, c, stride),
                    MicroTile::M12N8 => avx2::m12n8(kc, ap, bp, c, stride),
                    MicroTile::M4N16 => avx2::m4n16(kc, ap, bp, c, stride),
                    MicroTile::M8N4 => micro_scalar_m8n4(kc, ap, bp, c, stride),
                }
            }
        }
        #[cfg(target_arch = "aarch64")]
        DispatchTier::Neon => {
            // Safety: NEON is baseline on aarch64.
            unsafe {
                match tile {
                    MicroTile::M8N8 => neon::m8n8(kc, ap, bp, c, stride),
                    MicroTile::M12N8 => neon::m12n8(kc, ap, bp, c, stride),
                    MicroTile::M4N16 => neon::m4n16(kc, ap, bp, c, stride),
                    MicroTile::M8N4 => micro_scalar_m8n4(kc, ap, bp, c, stride),
                }
            }
        }
        _ => match tile {
            MicroTile::M8N4 => micro_scalar_m8n4(kc, ap, bp, c, stride),
            _ => micro_scalar(kc, tile.mr(), tile.nr(), ap, bp, c, stride),
        },
    }
}

/// Advances a **column-edge** tile (`mr` full rows, only `jn < nr` valid
/// columns) in place in the output, without staging, where the tier has
/// masked C access — currently AVX2 (`vmaskmov`). Returns `false` when no
/// masked kernel exists (scalar, NEON, non-x86 hosts); the caller then
/// takes the staging path, which computes the same bits (module docs).
#[inline]
#[allow(unused_variables, clippy::too_many_arguments)]
pub(super) fn micro_col_edge(
    tier: DispatchTier,
    tile: MicroTile,
    kc: usize,
    ap: &[f32],
    bp: &[f32],
    c: &mut [f32],
    stride: usize,
    jn: usize,
) -> bool {
    debug_assert!((1..tile.nr()).contains(&jn));
    debug_assert!(c.len() >= (tile.mr() - 1) * stride + jn);
    #[cfg(target_arch = "x86_64")]
    if tier == DispatchTier::Avx2 {
        // Safety: `Avx2` is only ever produced by `detect()` on hosts where
        // `is_x86_feature_detected!("avx2")` held; slice bounds checked above.
        unsafe {
            match tile {
                MicroTile::M8N8 => avx2::m8n8_edge(kc, ap, bp, c, stride, jn),
                MicroTile::M12N8 => avx2::m12n8_edge(kc, ap, bp, c, stride, jn),
                MicroTile::M4N16 => avx2::m4n16_edge(kc, ap, bp, c, stride, jn),
                MicroTile::M8N4 => return false,
            }
        }
        return true;
    }
    false
}

/// The pinned 8×4 scalar micro-kernel with compile-time tile bounds: the
/// accumulator tile lives in a fixed `[[f32; 4]; 8]` the compiler keeps in
/// registers (and SLP-vectorizes — lanes along `j` are independent
/// elements, so auto-vectorization cannot reassociate anything) across the
/// whole depth panel, exactly like the pre-SIMD kernel.
fn micro_scalar_m8n4(kc: usize, ap: &[f32], bp: &[f32], c: &mut [f32], stride: usize) {
    let mut acc = [[0.0f32; 4]; 8];
    for (r, row) in acc.iter_mut().enumerate() {
        row.copy_from_slice(&c[r * stride..r * stride + 4]);
    }
    for kk in 0..kc {
        let b4: &[f32; 4] = bp[kk * 4..kk * 4 + 4].try_into().expect("4-wide strip");
        let a8 = &ap[kk * 8..kk * 8 + 8];
        for (row, &ar) in acc.iter_mut().zip(a8) {
            for (o, &bv) in row.iter_mut().zip(b4) {
                *o += ar * bv;
            }
        }
    }
    for (r, row) in acc.iter().enumerate() {
        c[r * stride..r * stride + 4].copy_from_slice(row);
    }
}

/// The scalar micro-kernel for any tile shape: the canonical ascending-`k`
/// mul-then-add chain, one accumulator (tile slot) per output element.
/// Only reached for vector tiles on hosts without their SIMD tier.
fn micro_scalar(
    kc: usize,
    mr: usize,
    nr: usize,
    ap: &[f32],
    bp: &[f32],
    c: &mut [f32],
    stride: usize,
) {
    for kk in 0..kc {
        let b_strip = &bp[kk * nr..kk * nr + nr];
        let a_strip = &ap[kk * mr..kk * mr + mr];
        for (r, &ar) in a_strip.iter().enumerate() {
            let row = &mut c[r * stride..r * stride + nr];
            for (o, &bv) in row.iter_mut().zip(b_strip) {
                *o += ar * bv;
            }
        }
    }
}

// ---------------------------------------------------------------------------
// AVX2 (x86-64)
// ---------------------------------------------------------------------------

#[cfg(target_arch = "x86_64")]
mod avx2 {
    use std::arch::x86_64::*;

    /// `mr × 8` tile: one `__m256` accumulator per row, loaded from C
    /// (row stride `stride`), advanced across the whole depth panel in
    /// registers, stored back once. Per lane this is exactly
    /// `acc = acc + a·b` — `_mm256_mul_ps` then `_mm256_add_ps`, never
    /// `_mm256_fmadd_ps` (see module docs).
    macro_rules! mk_n8 {
        ($name:ident, $mr:expr) => {
            #[target_feature(enable = "avx2")]
            pub unsafe fn $name(kc: usize, ap: &[f32], bp: &[f32], c: &mut [f32], stride: usize) {
                debug_assert!(ap.len() >= kc * $mr && bp.len() >= kc * 8);
                debug_assert!(c.len() >= ($mr - 1) * stride + 8);
                let mut acc = [_mm256_setzero_ps(); $mr];
                for (r, a) in acc.iter_mut().enumerate() {
                    *a = _mm256_loadu_ps(c.as_ptr().add(r * stride));
                }
                for kk in 0..kc {
                    let bv = _mm256_loadu_ps(bp.as_ptr().add(kk * 8));
                    let a_col = ap.as_ptr().add(kk * $mr);
                    for (r, a) in acc.iter_mut().enumerate() {
                        let ar = _mm256_set1_ps(*a_col.add(r));
                        *a = _mm256_add_ps(*a, _mm256_mul_ps(ar, bv));
                    }
                }
                for (r, a) in acc.iter().enumerate() {
                    _mm256_storeu_ps(c.as_mut_ptr().add(r * stride), *a);
                }
            }
        };
    }
    mk_n8!(m8n8, 8);
    mk_n8!(m12n8, 12);

    /// `mr × 16` tile: two `__m256` accumulators per row.
    macro_rules! mk_n16 {
        ($name:ident, $mr:expr) => {
            #[target_feature(enable = "avx2")]
            pub unsafe fn $name(kc: usize, ap: &[f32], bp: &[f32], c: &mut [f32], stride: usize) {
                debug_assert!(ap.len() >= kc * $mr && bp.len() >= kc * 16);
                debug_assert!(c.len() >= ($mr - 1) * stride + 16);
                let mut lo = [_mm256_setzero_ps(); $mr];
                let mut hi = [_mm256_setzero_ps(); $mr];
                for (r, (l, h)) in lo.iter_mut().zip(hi.iter_mut()).enumerate() {
                    *l = _mm256_loadu_ps(c.as_ptr().add(r * stride));
                    *h = _mm256_loadu_ps(c.as_ptr().add(r * stride + 8));
                }
                for kk in 0..kc {
                    let b0 = _mm256_loadu_ps(bp.as_ptr().add(kk * 16));
                    let b1 = _mm256_loadu_ps(bp.as_ptr().add(kk * 16 + 8));
                    let a_col = ap.as_ptr().add(kk * $mr);
                    for (r, (l, h)) in lo.iter_mut().zip(hi.iter_mut()).enumerate() {
                        let ar = _mm256_set1_ps(*a_col.add(r));
                        *l = _mm256_add_ps(*l, _mm256_mul_ps(ar, b0));
                        *h = _mm256_add_ps(*h, _mm256_mul_ps(ar, b1));
                    }
                }
                for (r, (l, h)) in lo.iter().zip(hi.iter()).enumerate() {
                    _mm256_storeu_ps(c.as_mut_ptr().add(r * stride), *l);
                    _mm256_storeu_ps(c.as_mut_ptr().add(r * stride + 8), *h);
                }
            }
        };
    }
    mk_n16!(m4n16, 4);

    /// Column-edge variant of [`mk_n8!`]: same fold on all 8 lanes, but C is
    /// read and written through AVX2 masked loads/stores covering only the
    /// first `jn` columns — so a ragged output edge is advanced in place with
    /// no staging copies. Lanes `≥ jn` compute against the B pack's zero
    /// padding and are never stored; lanes `< jn` execute the identical op
    /// sequence as the full-width kernel, so edge tiles stay bitwise-equal.
    /// (Masked-out lanes cannot fault: `vmaskmov` suppresses access to them.)
    macro_rules! mk_n8_edge {
        ($name:ident, $mr:expr) => {
            #[target_feature(enable = "avx2")]
            pub unsafe fn $name(
                kc: usize,
                ap: &[f32],
                bp: &[f32],
                c: &mut [f32],
                stride: usize,
                jn: usize,
            ) {
                debug_assert!(ap.len() >= kc * $mr && bp.len() >= kc * 8);
                debug_assert!((1..8).contains(&jn));
                debug_assert!(c.len() >= ($mr - 1) * stride + jn);
                let lane = _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7);
                let mask = _mm256_cmpgt_epi32(_mm256_set1_epi32(jn as i32), lane);
                let mut acc = [_mm256_setzero_ps(); $mr];
                for (r, a) in acc.iter_mut().enumerate() {
                    *a = _mm256_maskload_ps(c.as_ptr().add(r * stride), mask);
                }
                for kk in 0..kc {
                    let bv = _mm256_loadu_ps(bp.as_ptr().add(kk * 8));
                    let a_col = ap.as_ptr().add(kk * $mr);
                    for (r, a) in acc.iter_mut().enumerate() {
                        let ar = _mm256_set1_ps(*a_col.add(r));
                        *a = _mm256_add_ps(*a, _mm256_mul_ps(ar, bv));
                    }
                }
                for (r, a) in acc.iter().enumerate() {
                    _mm256_maskstore_ps(c.as_mut_ptr().add(r * stride), mask, *a);
                }
            }
        };
    }
    mk_n8_edge!(m8n8_edge, 8);
    mk_n8_edge!(m12n8_edge, 12);

    /// Column-edge variant of [`mk_n16!`]; two masks cover the 16 lanes.
    macro_rules! mk_n16_edge {
        ($name:ident, $mr:expr) => {
            #[target_feature(enable = "avx2")]
            pub unsafe fn $name(
                kc: usize,
                ap: &[f32],
                bp: &[f32],
                c: &mut [f32],
                stride: usize,
                jn: usize,
            ) {
                debug_assert!(ap.len() >= kc * $mr && bp.len() >= kc * 16);
                debug_assert!((1..16).contains(&jn));
                debug_assert!(c.len() >= ($mr - 1) * stride + jn);
                let lane = _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7);
                let m0 = _mm256_cmpgt_epi32(_mm256_set1_epi32(jn as i32), lane);
                let m1 = _mm256_cmpgt_epi32(_mm256_set1_epi32(jn as i32 - 8), lane);
                let mut lo = [_mm256_setzero_ps(); $mr];
                let mut hi = [_mm256_setzero_ps(); $mr];
                for (r, (l, h)) in lo.iter_mut().zip(hi.iter_mut()).enumerate() {
                    *l = _mm256_maskload_ps(c.as_ptr().add(r * stride), m0);
                    // `wrapping_add`: when `jn ≤ 8` the hi mask is all-zero
                    // and this address may lie past the slice — it is never
                    // accessed, but plain `add` would still be UB to form.
                    *h = _mm256_maskload_ps(c.as_ptr().wrapping_add(r * stride + 8), m1);
                }
                for kk in 0..kc {
                    let b0 = _mm256_loadu_ps(bp.as_ptr().add(kk * 16));
                    let b1 = _mm256_loadu_ps(bp.as_ptr().add(kk * 16 + 8));
                    let a_col = ap.as_ptr().add(kk * $mr);
                    for (r, (l, h)) in lo.iter_mut().zip(hi.iter_mut()).enumerate() {
                        let ar = _mm256_set1_ps(*a_col.add(r));
                        *l = _mm256_add_ps(*l, _mm256_mul_ps(ar, b0));
                        *h = _mm256_add_ps(*h, _mm256_mul_ps(ar, b1));
                    }
                }
                for (r, (l, h)) in lo.iter().zip(hi.iter()).enumerate() {
                    _mm256_maskstore_ps(c.as_mut_ptr().add(r * stride), m0, *l);
                    _mm256_maskstore_ps(c.as_mut_ptr().wrapping_add(r * stride + 8), m1, *h);
                }
            }
        };
    }
    mk_n16_edge!(m4n16_edge, 4);

    /// Transposes one 8×8 `f32` block with in-register unpack/shuffle/permute
    /// passes: `src` points at 8 row-major matrix rows (stride `src_stride`),
    /// `dst` receives the block `kk`-major (`dst[kk·8 + r]`) — the packed-A
    /// strip layout. Pure data movement: bit patterns are copied, never
    /// operated on, so packing stays numerically invisible.
    #[target_feature(enable = "avx2")]
    pub unsafe fn transpose8x8(src: *const f32, src_stride: usize, dst: *mut f32) {
        let a0 = _mm256_loadu_ps(src);
        let a1 = _mm256_loadu_ps(src.add(src_stride));
        let a2 = _mm256_loadu_ps(src.add(2 * src_stride));
        let a3 = _mm256_loadu_ps(src.add(3 * src_stride));
        let a4 = _mm256_loadu_ps(src.add(4 * src_stride));
        let a5 = _mm256_loadu_ps(src.add(5 * src_stride));
        let a6 = _mm256_loadu_ps(src.add(6 * src_stride));
        let a7 = _mm256_loadu_ps(src.add(7 * src_stride));
        // 32-bit interleave within 128-bit lanes.
        let b0 = _mm256_unpacklo_ps(a0, a1);
        let b1 = _mm256_unpackhi_ps(a0, a1);
        let b2 = _mm256_unpacklo_ps(a2, a3);
        let b3 = _mm256_unpackhi_ps(a2, a3);
        let b4 = _mm256_unpacklo_ps(a4, a5);
        let b5 = _mm256_unpackhi_ps(a4, a5);
        let b6 = _mm256_unpacklo_ps(a6, a7);
        let b7 = _mm256_unpackhi_ps(a6, a7);
        // 64-bit regroup: four consecutive rows per lane half.
        let c0 = _mm256_shuffle_ps(b0, b2, 0b01_00_01_00);
        let c1 = _mm256_shuffle_ps(b0, b2, 0b11_10_11_10);
        let c2 = _mm256_shuffle_ps(b1, b3, 0b01_00_01_00);
        let c3 = _mm256_shuffle_ps(b1, b3, 0b11_10_11_10);
        let c4 = _mm256_shuffle_ps(b4, b6, 0b01_00_01_00);
        let c5 = _mm256_shuffle_ps(b4, b6, 0b11_10_11_10);
        let c6 = _mm256_shuffle_ps(b5, b7, 0b01_00_01_00);
        let c7 = _mm256_shuffle_ps(b5, b7, 0b11_10_11_10);
        // 128-bit lane swap completes the transpose.
        _mm256_storeu_ps(dst, _mm256_permute2f128_ps(c0, c4, 0x20));
        _mm256_storeu_ps(dst.add(8), _mm256_permute2f128_ps(c1, c5, 0x20));
        _mm256_storeu_ps(dst.add(16), _mm256_permute2f128_ps(c2, c6, 0x20));
        _mm256_storeu_ps(dst.add(24), _mm256_permute2f128_ps(c3, c7, 0x20));
        _mm256_storeu_ps(dst.add(32), _mm256_permute2f128_ps(c0, c4, 0x31));
        _mm256_storeu_ps(dst.add(40), _mm256_permute2f128_ps(c1, c5, 0x31));
        _mm256_storeu_ps(dst.add(48), _mm256_permute2f128_ps(c2, c6, 0x31));
        _mm256_storeu_ps(dst.add(56), _mm256_permute2f128_ps(c3, c7, 0x31));
    }
}

/// SIMD-transposes full 8-row strips of a row-major A panel into the packed
/// `dst[kk·8 + r]` layout, `8·kc` floats per strip. Only reachable on the
/// AVX2 tier with `mr == 8` and a complete strip; the caller handles partial
/// strips and the `kc % 8` tail with the scalar packer. Returns how many
/// leading `kk` were packed (a multiple of 8).
///
/// # Safety
///
/// AVX2 must be available (the caller dispatches on [`DispatchTier::Avx2`]),
/// `src` must point at 8 rows of at least `kc` readable floats spaced
/// `src_stride` apart, and `dst` must hold at least `kc·8` floats.
#[cfg(target_arch = "x86_64")]
pub(super) unsafe fn pack_a_strip_avx2(
    src: *const f32,
    src_stride: usize,
    kc: usize,
    dst: &mut [f32],
) -> usize {
    debug_assert!(dst.len() >= kc * 8);
    let full = kc - kc % 8;
    for kk in (0..full).step_by(8) {
        avx2::transpose8x8(src.add(kk), src_stride, dst.as_mut_ptr().add(kk * 8));
    }
    full
}

// ---------------------------------------------------------------------------
// NEON (aarch64)
// ---------------------------------------------------------------------------

#[cfg(target_arch = "aarch64")]
mod neon {
    use std::arch::aarch64::*;

    /// `mr × 8` tile: two `float32x4_t` accumulators per row, unfused
    /// `vmulq`+`vaddq` (never `vfmaq`) to preserve the canonical two-rounding
    /// chain.
    macro_rules! mk_n8 {
        ($name:ident, $mr:expr) => {
            pub unsafe fn $name(kc: usize, ap: &[f32], bp: &[f32], c: &mut [f32], stride: usize) {
                debug_assert!(ap.len() >= kc * $mr && bp.len() >= kc * 8);
                debug_assert!(c.len() >= ($mr - 1) * stride + 8);
                let mut lo = [vdupq_n_f32(0.0); $mr];
                let mut hi = [vdupq_n_f32(0.0); $mr];
                for r in 0..$mr {
                    lo[r] = vld1q_f32(c.as_ptr().add(r * stride));
                    hi[r] = vld1q_f32(c.as_ptr().add(r * stride + 4));
                }
                for kk in 0..kc {
                    let b0 = vld1q_f32(bp.as_ptr().add(kk * 8));
                    let b1 = vld1q_f32(bp.as_ptr().add(kk * 8 + 4));
                    let a_col = ap.as_ptr().add(kk * $mr);
                    for r in 0..$mr {
                        let ar = vdupq_n_f32(*a_col.add(r));
                        lo[r] = vaddq_f32(lo[r], vmulq_f32(ar, b0));
                        hi[r] = vaddq_f32(hi[r], vmulq_f32(ar, b1));
                    }
                }
                for r in 0..$mr {
                    vst1q_f32(c.as_mut_ptr().add(r * stride), lo[r]);
                    vst1q_f32(c.as_mut_ptr().add(r * stride + 4), hi[r]);
                }
            }
        };
    }
    mk_n8!(m8n8, 8);
    mk_n8!(m12n8, 12);

    /// `mr × 16` tile: four `float32x4_t` accumulators per row.
    macro_rules! mk_n16 {
        ($name:ident, $mr:expr) => {
            pub unsafe fn $name(kc: usize, ap: &[f32], bp: &[f32], c: &mut [f32], stride: usize) {
                debug_assert!(ap.len() >= kc * $mr && bp.len() >= kc * 16);
                debug_assert!(c.len() >= ($mr - 1) * stride + 16);
                let mut acc = [[vdupq_n_f32(0.0); 4]; $mr];
                for r in 0..$mr {
                    for q in 0..4 {
                        acc[r][q] = vld1q_f32(c.as_ptr().add(r * stride + q * 4));
                    }
                }
                for kk in 0..kc {
                    let b: [float32x4_t; 4] = [
                        vld1q_f32(bp.as_ptr().add(kk * 16)),
                        vld1q_f32(bp.as_ptr().add(kk * 16 + 4)),
                        vld1q_f32(bp.as_ptr().add(kk * 16 + 8)),
                        vld1q_f32(bp.as_ptr().add(kk * 16 + 12)),
                    ];
                    let a_col = ap.as_ptr().add(kk * $mr);
                    for r in 0..$mr {
                        let ar = vdupq_n_f32(*a_col.add(r));
                        for q in 0..4 {
                            acc[r][q] = vaddq_f32(acc[r][q], vmulq_f32(ar, b[q]));
                        }
                    }
                }
                for r in 0..$mr {
                    for q in 0..4 {
                        vst1q_f32(c.as_mut_ptr().add(r * stride + q * 4), acc[r][q]);
                    }
                }
            }
        };
    }
    mk_n16!(m4n16, 4);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tile_dims_fit_staging_bounds() {
        for tile in ALL_TILES {
            assert!(tile.mr() <= MR_MAX && tile.nr() <= NR_MAX);
        }
    }

    #[test]
    fn active_tier_is_detected_or_scalar() {
        let tier = active_tier();
        assert!(tier == detect() || tier == DispatchTier::Scalar);
    }

    /// Every vector micro-kernel must equal the scalar micro-kernel bitwise
    /// on the same strips — the lane-order argument, checked directly.
    #[test]
    fn vector_micro_kernels_match_scalar_bitwise() {
        let tier = detect();
        if tier == DispatchTier::Scalar {
            return; // nothing to cross-check on this host
        }
        let kc = 37; // not a multiple of any unroll
        for tile in ALL_TILES {
            let (mr, nr) = (tile.mr(), tile.nr());
            let ap: Vec<f32> = (0..kc * mr)
                .map(|x| ((x * 37) as f32 * 0.23).sin())
                .collect();
            let bp: Vec<f32> = (0..kc * nr)
                .map(|x| ((x * 61) as f32 * 0.17).cos())
                .collect();
            // Both tile homes: packed staging (stride = nr) and direct in a
            // wider output row (stride > nr).
            for stride in [nr, nr + 13] {
                let seed: Vec<f32> = (0..(mr - 1) * stride + nr)
                    .map(|x| (x as f32 * 0.71).tan())
                    .collect();
                let mut scalar = seed.clone();
                micro_scalar(kc, mr, nr, &ap, &bp, &mut scalar, stride);
                let mut vector = seed.clone();
                micro(tier, tile, kc, &ap, &bp, &mut vector, stride);
                let sb: Vec<u32> = scalar.iter().map(|v| v.to_bits()).collect();
                let vb: Vec<u32> = vector.iter().map(|v| v.to_bits()).collect();
                assert_eq!(sb, vb, "tile {tile:?} stride {stride} diverged from scalar");
            }
        }
    }

    /// A masked column-edge tile must produce the same bits in its valid
    /// columns as the staged path, and must not touch anything else.
    #[test]
    fn masked_col_edge_matches_staged_bitwise() {
        let tier = detect();
        let kc = 31;
        for tile in ALL_TILES {
            let (mr, nr) = (tile.mr(), tile.nr());
            let ap: Vec<f32> = (0..kc * mr)
                .map(|x| ((x * 41) as f32 * 0.13).sin())
                .collect();
            for jn in 1..nr {
                // B pack zero-padded past jn, as pack_b leaves it.
                let bp: Vec<f32> = (0..kc * nr)
                    .map(|x| {
                        if x % nr < jn {
                            ((x * 29) as f32 * 0.11).cos()
                        } else {
                            0.0
                        }
                    })
                    .collect();
                let stride = nr + 5;
                let seed: Vec<f32> = (0..(mr - 1) * stride + jn)
                    .map(|x| (x as f32 * 0.57).sin())
                    .collect();
                // Staged reference: copy valid columns in, run full tile,
                // copy valid columns back.
                let mut stage = vec![0.0f32; mr * nr];
                for r in 0..mr {
                    stage[r * nr..r * nr + jn].copy_from_slice(&seed[r * stride..r * stride + jn]);
                }
                micro(tier, tile, kc, &ap, &bp, &mut stage, nr);
                let mut want = seed.clone();
                for r in 0..mr {
                    want[r * stride..r * stride + jn].copy_from_slice(&stage[r * nr..r * nr + jn]);
                }
                let mut got = seed.clone();
                if !micro_col_edge(tier, tile, kc, &ap, &bp, &mut got, stride, jn) {
                    continue; // no masked kernel on this tier
                }
                let wb: Vec<u32> = want.iter().map(|v| v.to_bits()).collect();
                let gb: Vec<u32> = got.iter().map(|v| v.to_bits()).collect();
                assert_eq!(wb, gb, "tile {tile:?} jn {jn} masked edge diverged");
            }
        }
    }

    /// The fixed 8×4 kernel must equal the generic scalar loops bitwise — it
    /// is the same fold with compile-time bounds, so any divergence would be
    /// a transcription bug.
    #[test]
    fn pinned_m8n4_matches_generic_scalar_bitwise() {
        let kc = 29;
        let ap: Vec<f32> = (0..kc * 8)
            .map(|x| ((x * 13) as f32 * 0.31).sin())
            .collect();
        let bp: Vec<f32> = (0..kc * 4).map(|x| ((x * 7) as f32 * 0.19).cos()).collect();
        for stride in [4usize, 21] {
            let seed: Vec<f32> = (0..7 * stride + 4)
                .map(|x| (x as f32 * 0.43).sin())
                .collect();
            let mut generic = seed.clone();
            micro_scalar(kc, 8, 4, &ap, &bp, &mut generic, stride);
            let mut fixed = seed.clone();
            micro_scalar_m8n4(kc, &ap, &bp, &mut fixed, stride);
            let gb: Vec<u32> = generic.iter().map(|v| v.to_bits()).collect();
            let fb: Vec<u32> = fixed.iter().map(|v| v.to_bits()).collect();
            assert_eq!(gb, fb, "m8n4 fixed kernel diverged at stride {stride}");
        }
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn avx2_pack_strip_transposes_exactly() {
        if detect() != DispatchTier::Avx2 {
            return;
        }
        let kc = 19; // 16 SIMD + 3 scalar tail
        let stride = 23;
        let src: Vec<f32> = (0..8 * stride).map(|x| x as f32).collect();
        let mut dst = vec![0.0f32; kc * 8];
        // Safety: AVX2 verified above; src holds 8 rows of `stride ≥ kc`
        // floats, dst holds kc·8.
        let packed = unsafe { pack_a_strip_avx2(src.as_ptr(), stride, kc, &mut dst) };
        assert_eq!(packed, 16);
        for kk in 0..packed {
            for r in 0..8 {
                assert_eq!(dst[kk * 8 + r], src[r * stride + kk]);
            }
        }
    }
}
