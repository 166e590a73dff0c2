//! Fixed blocking table for the packed kernel.
//!
//! [`params_for`] picks the cache blocking (`mc`/`kc`/`nc`) and register
//! micro-tile for one product from its dispatch tier and [`ShapeKey`]
//! alone. It measures nothing and keeps no state, so a shape gets the same
//! pick in every process:
//!
//! | tier | shape | `mc`/`kc`/`nc` | tile |
//! |---|---|---|---|
//! | scalar | any | 64 / 256 / 512 | 8×4 ([`KernelParams::pinned_scalar`]) |
//! | vector | col-major A (`layout_a == 1`) | 128 / 256 / 512 | 12×8 |
//! | vector | `n >= 128` | 128 / 256 / 512 | 4×16 |
//! | vector | otherwise | 128 / 256 / 512 | 8×8 |
//!
//! The col-major-A products are the linear layers' weight gradients
//! (`xᵀ·dy`), whose short `m` and long `k` favour the tallest tile; wide
//! outputs (conv2's input-gradient product `dy·Wᵀ`, 640×20×250 at batch
//! 10) fill both 8-lane vectors of the 4×16 tile. The convolutions' forward
//! passes and weight gradients do not run here: they are direct kernels
//! (see [`conv2d_forward`](crate::conv2d_forward)).
//!
//! # Determinism
//!
//! The pick affects **speed only, never bits**: every blocking drives the
//! same canonical per-element fold (see the [`kernel`](crate::kernel) module
//! docs — blocking splits round-trip through C memory, micro-tiles only
//! regroup which elements advance together), so every row of the table is
//! bitwise-identical to the scalar tier's pinned reference.

use super::simd::{DispatchTier, MicroTile};

/// A product's shape and both operand layouts — the table's input.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ShapeKey {
    /// Output rows.
    pub m: usize,
    /// Inner (reduction) dimension.
    pub k: usize,
    /// Output columns.
    pub n: usize,
    /// Layout tag of `a`: 0 = row-major, 1 = col-major.
    pub layout_a: u8,
    /// Layout tag of `b` (same encoding).
    pub layout_b: u8,
}

/// One blocking decision: panel sizes plus the register micro-tile.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KernelParams {
    /// C rows per cache block (`ic` step, parallel grain).
    pub mc: usize,
    /// Packed panel depth (`pc` step).
    pub kc: usize,
    /// C columns per outer panel (`jc` step).
    pub nc: usize,
    /// Register micro-tile.
    pub tile: MicroTile,
}

impl KernelParams {
    /// The pre-SIMD blocked kernel's exact parameters — the pinned scalar
    /// reference configuration (`MC`/`KC`/`NC` module constants, 8×4 tile).
    #[must_use]
    pub const fn pinned_scalar() -> Self {
        Self {
            mc: super::MC,
            kc: super::KC,
            nc: super::NC,
            tile: MicroTile::M8N4,
        }
    }
}

/// The blocking for one product on `tier` (see the module table).
#[must_use]
pub fn params_for(tier: DispatchTier, key: ShapeKey) -> KernelParams {
    if tier == DispatchTier::Scalar {
        return KernelParams::pinned_scalar();
    }
    let tile = if key.layout_a == 1 {
        MicroTile::M12N8
    } else if key.n >= 128 {
        MicroTile::M4N16
    } else {
        MicroTile::M8N8
    };
    KernelParams {
        mc: 2 * super::MC,
        kc: super::KC,
        nc: super::NC,
        tile,
    }
}

/// Always `None`: the blocking comes from the fixed table in
/// [`params_for`], so nothing is measured or cached per shape. Callers
/// that list cached picks probe every combination of their dimensions, and
/// answering each probe with the table's pick would list some 10⁵–10⁶
/// shapes that never ran.
#[must_use]
pub fn cached_params(_tier: DispatchTier, _key: ShapeKey) -> Option<KernelParams> {
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(m: usize, k: usize, n: usize, layout_a: u8, layout_b: u8) -> ShapeKey {
        ShapeKey {
            m,
            k,
            n,
            layout_a,
            layout_b,
        }
    }

    #[test]
    fn scalar_tier_is_always_pinned() {
        for k in [
            key(640, 250, 20, 0, 0),
            key(25, 5760, 10, 1, 0),
            key(640, 20, 250, 0, 1),
        ] {
            let p = params_for(DispatchTier::Scalar, k);
            assert_eq!(p, KernelParams::pinned_scalar());
            assert_eq!(p.tile, MicroTile::M8N4);
        }
    }

    #[test]
    fn vector_tiers_follow_the_table() {
        for tier in [DispatchTier::Avx2, DispatchTier::Neon] {
            let tile = |k| params_for(tier, k).tile;
            assert_eq!(tile(key(25, 5760, 10, 1, 0)), MicroTile::M12N8);
            assert_eq!(tile(key(250, 640, 200, 1, 0)), MicroTile::M12N8);
            assert_eq!(tile(key(640, 20, 250, 0, 1)), MicroTile::M4N16);
            assert_eq!(tile(key(640, 250, 20, 0, 0)), MicroTile::M8N8);
            let p = params_for(tier, key(5760, 25, 10, 0, 0));
            assert_eq!((p.mc, p.kc, p.nc), (128, 256, 512));
        }
    }
}
