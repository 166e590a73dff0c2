//! Cache-blocked, packed, register-tiled matmul kernel with runtime SIMD
//! dispatch and a fixed per-shape blocking table.
//!
//! All three matmul variants ([`Tensor::matmul`](crate::Tensor::matmul),
//! `matmul_tn`, `matmul_nt`) and the conv-backward products route through
//! [`matmul_views`], which dispatches on problem size:
//!
//! * **Direct path** (small products, e.g. the PPO MLP's `30×64·64×64`):
//!   the original unblocked row loops — no packing overhead, always scalar.
//! * **Blocked path** (the conv-dominated im2col products): BLIS-style
//!   `jc → pc → ic` panel blocking, both operands packed into contiguous
//!   panels from the scratch arena, and a register-tiled micro-kernel.
//!
//! On the blocked path two further decisions are made per call, neither of
//! which affects a single output bit (see below):
//!
//! * **Dispatch tier** ([`simd::active_tier`]): AVX2 on capable x86-64,
//!   NEON on aarch64, scalar elsewhere — or pinned to scalar with
//!   `CHIRON_SIMD=0`. The vector micro-kernels lay lanes along `n` and use
//!   unfused multiply-then-add, so every tier executes each element's
//!   canonical fold exactly.
//! * **Blocking parameters** ([`tune::params_for`]): the `mc`/`kc`/`nc`
//!   panel sizes and the register micro-tile, a pure function of the tier
//!   and the product's shape and layouts. The scalar tier always uses the
//!   pinned [`MC`]/[`KC`]/[`NC`] + [`MR`]×[`NR`] configuration — the
//!   byte-stable reference.
//!
//! # Canonical accumulation order
//!
//! Every path — direct, blocked, serial, pool-parallel, any operand layout,
//! any dispatch tier, any blocking parameters — computes each output
//! element as **one** `f32` accumulator over `k` **ascending**, with an
//! unfused multiply then add per term:
//!
//! ```text
//! c[i][j] = fold(k = 0..K) { acc = acc + a[i][k] * b[k][j] }
//! ```
//!
//! The micro-kernel keeps this exact order across cache blocking by
//! *loading the C tile into its accumulators* at the start of each
//! `kc` panel and storing it back after: partial sums materialize through C
//! memory between panels, and an `f32` store/load round-trip is
//! value-preserving, so splitting `k` into panels never reassociates the
//! fold — for **any** `kc`. Micro-tile and `mc`/`nc` choices only regroup
//! which elements advance together, never an element's own op sequence; the
//! SIMD tiers advance several elements per instruction with one lane per
//! element and no horizontal reduction (see [`simd`]). The direct path's
//! zero-skip (`a[i][k] == 0.0` contributes `acc + ±0.0·b`, which never
//! changes a finite accumulator that started at `+0.0`) and the packed
//! path's zero padding are both identities on finite data, so:
//!
//! * the blocked kernel equals the naive reference **bitwise** on every
//!   tier and parameter choice (the property tests assert exact equality
//!   on random shapes, and `tests/simd.rs` crosses tiers), and
//! * size-based dispatch between the two paths is numerically invisible.
//!
//! # Thread-count invariance
//!
//! The blocked path parallelizes over `mc`-row blocks of C inside each
//! `(jc, pc)` panel. The partition is derived from `m` and the per-shape
//! blocking parameters (never the thread count), each block writes a
//! disjoint row range, and each element's operation sequence is fixed by
//! the loop structure — so output is bitwise identical to serial at any
//! `CHIRON_THREADS` (`tests/parallel_determinism` proves it end to end).
//! The B panel is packed once per `(jc, pc)` by the calling thread; each
//! row block packs its A panel into its own thread-local scratch buffer.

pub mod simd;
pub mod tune;

use crate::scratch::ScratchBuf;
use crate::{pool, Tensor};
use simd::{DispatchTier, MicroTile};
use tune::KernelParams;

/// Rows of C per cache block on the pinned scalar tier (the `ic` loop step
/// and the parallel grain); the vector tiers use twice this (see [`tune`]).
pub const MC: usize = 64;
/// Depth of one packed panel (the `pc` loop step): A and B panels of this
/// depth stay L1/L2-resident under the micro-kernel.
pub const KC: usize = 256;
/// Columns of C per outer panel (the `jc` loop step).
pub const NC: usize = 512;
/// Pinned scalar micro-tile rows: 8 independent accumulator rows give the
/// FPU enough parallelism despite each element's strictly serial `k` chain.
pub const MR: usize = 8;
/// Pinned scalar micro-tile columns. Vector tiers widen this to one or two
/// 8-float vectors (see [`simd::MicroTile`]).
pub const NR: usize = 4;

/// Multiply-add count below which the packed path's setup (panel packing,
/// C-tile staging) costs more than it saves. The PPO-sized products
/// (`30·64·64 ≈ 1.2×10⁵`) stay direct; every conv im2col product of the
/// paper's CNNs (≥ 1.4×10⁶) goes blocked. Dispatch is by shape only, so a
/// given product always takes the same path at every thread count — and the
/// two paths agree bitwise anyway (see module docs).
const BLOCKED_FLOP_THRESHOLD: usize = 1 << 18;

/// Output rows per parallel block on the *direct* path. Fixed by the
/// problem size (never the thread count) so the partitioning — and
/// therefore every per-element accumulation order — is identical for every
/// thread count.
const ROWS_PER_BLOCK: usize = 16;

/// Below this many multiply-adds the direct path runs serially; the pool
/// fan-out overhead beats the win. A performance gate only: each output
/// element is computed with the same operation sequence on either path.
const PARALLEL_FLOP_THRESHOLD: usize = 1 << 16;

/// A borrowed matrix operand: flat data plus a logical `rows × cols` layout
/// that the kernel's packing routines absorb, so transposes never
/// materialize.
#[derive(Clone, Copy)]
pub struct MatView<'a> {
    data: &'a [f32],
    layout: Layout,
}

#[derive(Clone, Copy)]
enum Layout {
    /// `rows × cols`, row-major: `(r, c) → data[r·cols + c]`.
    RowMajor { rows: usize, cols: usize },
    /// Logical `rows × cols` over data stored row-major as `cols × rows`
    /// (a transpose view): `(r, c) → data[c·rows + r]`.
    ColMajor { rows: usize, cols: usize },
}

impl<'a> MatView<'a> {
    /// Row-major `rows × cols` view.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != rows * cols`.
    pub fn row_major(data: &'a [f32], rows: usize, cols: usize) -> Self {
        assert_eq!(data.len(), rows * cols, "MatView: data/shape mismatch");
        Self {
            data,
            layout: Layout::RowMajor { rows, cols },
        }
    }

    /// Transpose view: `data` is stored row-major as `cols × rows`; the
    /// view presents the logical `rows × cols` transpose.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != rows * cols`.
    pub fn transposed(data: &'a [f32], rows: usize, cols: usize) -> Self {
        assert_eq!(data.len(), rows * cols, "MatView: data/shape mismatch");
        Self {
            data,
            layout: Layout::ColMajor { rows, cols },
        }
    }

    /// Logical row count.
    pub fn rows(&self) -> usize {
        match self.layout {
            Layout::RowMajor { rows, .. } | Layout::ColMajor { rows, .. } => rows,
        }
    }

    /// Logical column count.
    pub fn cols(&self) -> usize {
        match self.layout {
            Layout::RowMajor { cols, .. } | Layout::ColMajor { cols, .. } => cols,
        }
    }

    /// Stable layout tag for the blocking table's input (see
    /// [`tune::ShapeKey`]).
    fn layout_tag(&self) -> u8 {
        match self.layout {
            Layout::RowMajor { .. } => 0,
            Layout::ColMajor { .. } => 1,
        }
    }

    /// Element at logical `(r, c)`.
    #[inline]
    fn get(&self, r: usize, c: usize) -> f32 {
        match self.layout {
            Layout::RowMajor { cols, .. } => self.data[r * cols + c],
            Layout::ColMajor { rows, .. } => self.data[c * rows + r],
        }
    }
}

/// An elementwise finisher fused into the GEMM's output pass, applied to
/// each output element exactly once, after its full-`k` accumulation.
///
/// # Bitwise equivalence to the unfused pipeline
///
/// The unfused pipeline computes `matmul` → `add_row_broadcast` (per
/// element: `out += bias[j]`) → ReLU (per element: `out = out.max(0.0)`).
/// The fused epilogue runs the **same operations in the same per-element
/// order** — the only change is *when*: per output tile right after the
/// last `kc` panel stored the finished accumulator, instead of in separate
/// whole-matrix passes. Elementwise ops don't interact across elements, so
/// the result is bitwise identical, including NaN payloads (`f32::max`
/// returns `0.0` for `NaN.max(0.0)` on both paths) and subnormals.
#[derive(Clone, Copy)]
pub enum Epilogue<'a> {
    /// Plain GEMM, no finisher.
    None,
    /// `out[i][j] += bias[j]` (length-`n` bias).
    Bias(&'a [f32]),
    /// `out[i][j] = (out[i][j] + bias[j]).max(0.0)`.
    BiasRelu(&'a [f32]),
    /// `out[i][j] = out[i][j].max(0.0)`.
    Relu,
}

impl Epilogue<'_> {
    /// Applies the finisher to one contiguous row segment whose first
    /// element is output column `j0`.
    #[inline]
    fn apply(&self, seg: &mut [f32], j0: usize) {
        match self {
            Epilogue::None => {}
            Epilogue::Bias(bias) => {
                let bias = &bias[j0..j0 + seg.len()];
                for (o, &b) in seg.iter_mut().zip(bias) {
                    *o += b;
                }
            }
            Epilogue::BiasRelu(bias) => {
                let bias = &bias[j0..j0 + seg.len()];
                for (o, &b) in seg.iter_mut().zip(bias) {
                    *o = (*o + b).max(0.0);
                }
            }
            Epilogue::Relu => {
                for o in seg.iter_mut() {
                    *o = o.max(0.0);
                }
            }
        }
    }

    fn is_none(&self) -> bool {
        matches!(self, Epilogue::None)
    }

    fn assert_bias_len(&self, n: usize) {
        if let Epilogue::Bias(bias) | Epilogue::BiasRelu(bias) = self {
            assert_eq!(bias.len(), n, "epilogue bias length must equal n");
        }
    }
}

/// `a (m×k) · b (k×n)` into a fresh arena-backed tensor.
///
/// # Panics
///
/// Panics if the inner dimensions disagree.
pub fn matmul_views(a: &MatView<'_>, b: &MatView<'_>) -> Tensor {
    matmul_views_ep(a, b, Epilogue::None)
}

/// [`matmul_views`] with a fused [`Epilogue`] finisher.
///
/// # Panics
///
/// Panics if the inner dimensions disagree or an epilogue bias length
/// differs from `n`.
pub fn matmul_views_ep(a: &MatView<'_>, b: &MatView<'_>, ep: Epilogue<'_>) -> Tensor {
    let (m, n) = (a.rows(), b.cols());
    let mut out = crate::scratch::take_vec(m * n);
    matmul_into_ep(a, b, &mut out, ep);
    Tensor::from_vec(out, &[m, n])
}

/// `a (m×k) · b (k×n)` accumulated into `out` (which must be zeroed, length
/// `m·n`, row-major).
///
/// # Panics
///
/// Panics if the inner dimensions disagree or `out` has the wrong length.
pub fn matmul_into(a: &MatView<'_>, b: &MatView<'_>, out: &mut [f32]) {
    matmul_into_ep(a, b, out, Epilogue::None);
}

/// [`matmul_into`] with a fused [`Epilogue`] finisher applied to each
/// output element once, after its full-`k` accumulation.
///
/// # Panics
///
/// Panics if the inner dimensions disagree, `out` has the wrong length, or
/// an epilogue bias length differs from `n`.
pub fn matmul_into_ep(a: &MatView<'_>, b: &MatView<'_>, out: &mut [f32], ep: Epilogue<'_>) {
    let (m, k) = (a.rows(), a.cols());
    let (k2, n) = (b.rows(), b.cols());
    assert_eq!(k, k2, "matmul: inner dims mismatch ({m}x{k}) · ({k2}x{n})");
    assert_eq!(out.len(), m * n, "matmul: output length mismatch");
    ep.assert_bias_len(n);
    // Telemetry (observational only; no effect on the computation): count
    // calls/FLOPs and the dispatch tier always-cheaply, and time the kernel
    // for a GFLOP/s histogram only when the layer is enabled — the
    // `Histogram::enabled` gate skips both clock reads on the disabled hot
    // path.
    static KERNEL_CALLS: chiron_telemetry::Counter =
        chiron_telemetry::Counter::new("tensor.kernel.calls");
    static KERNEL_FLOPS: chiron_telemetry::Counter =
        chiron_telemetry::Counter::new("tensor.kernel.flops");
    static KERNEL_GFLOPS: chiron_telemetry::Histogram =
        chiron_telemetry::Histogram::new("tensor.kernel.gflops");
    static DISPATCH_SCALAR: chiron_telemetry::Counter =
        chiron_telemetry::Counter::new("tensor.kernel.dispatch.scalar");
    static DISPATCH_AVX2: chiron_telemetry::Counter =
        chiron_telemetry::Counter::new("tensor.kernel.dispatch.avx2");
    static DISPATCH_NEON: chiron_telemetry::Counter =
        chiron_telemetry::Counter::new("tensor.kernel.dispatch.neon");
    let flops = 2 * m * k * n;
    let start = KERNEL_GFLOPS.enabled().then(std::time::Instant::now);
    if m * k * n >= BLOCKED_FLOP_THRESHOLD {
        let tier = simd::active_tier();
        match tier {
            DispatchTier::Scalar => &DISPATCH_SCALAR,
            DispatchTier::Avx2 => &DISPATCH_AVX2,
            DispatchTier::Neon => &DISPATCH_NEON,
        }
        .add(1);
        let key = tune::ShapeKey {
            m,
            k,
            n,
            layout_a: a.layout_tag(),
            layout_b: b.layout_tag(),
        };
        let params = tune::params_for(tier, key);
        blocked(a, b, m, k, n, out, tier, params, ep);
    } else {
        direct(a, b, m, k, n, out, ep);
    }
    if let Some(t0) = start {
        KERNEL_CALLS.add(1);
        KERNEL_FLOPS.add(flops as u64);
        let secs = t0.elapsed().as_secs_f64();
        if secs > 0.0 {
            KERNEL_GFLOPS.record(flops as f64 / secs / 1e9);
        }
    }
}

/// Explicit-tier, explicit-parameters variant of [`matmul_into`]:
/// verification hook. Same size-based path dispatch, but no telemetry and
/// no blocking table — the given tier and blocking are used as-is
/// on the blocked path (the direct path is always scalar). Bitwise-equal to
/// [`matmul_into`] for every tier/parameter choice (module docs).
///
/// # Panics
///
/// Panics if the inner dimensions disagree or `out` has the wrong length.
pub fn matmul_into_with(
    a: &MatView<'_>,
    b: &MatView<'_>,
    out: &mut [f32],
    tier: DispatchTier,
    params: KernelParams,
) {
    let (m, k) = (a.rows(), a.cols());
    let (k2, n) = (b.rows(), b.cols());
    assert_eq!(k, k2, "matmul: inner dims mismatch ({m}x{k}) · ({k2}x{n})");
    assert_eq!(out.len(), m * n, "matmul: output length mismatch");
    if m * k * n >= BLOCKED_FLOP_THRESHOLD {
        blocked(a, b, m, k, n, out, tier, params, Epilogue::None);
    } else {
        direct(a, b, m, k, n, out, Epilogue::None);
    }
}

/// Runs `a[i] (m×k) · b (k×n)` for every instance `i` through **one**
/// blocked pass: each packed B panel is shared across all instances, and
/// the pool parallelizes over instances instead of row blocks.
///
/// Every instance must have the same logical shape and layout as `a[0]`.
/// The per-element arithmetic is exactly what `matmul_into_ep(a[i], b,
/// outs[i], ep)` performs — dispatch (direct vs blocked) is decided by the
/// shared per-instance `m·k·n`, the blocking parameters come from the same
/// table lookup, and `row_block` fixes each element's
/// operation sequence independent of scheduling — so the batched entry
/// point is bitwise identical to the per-call loop at every thread count.
///
/// # Panics
///
/// Panics if `a` and `outs` lengths differ, any instance's shape or layout
/// disagrees with the first, the inner dimensions disagree, an output
/// slice has the wrong length, or an epilogue bias length differs from
/// `n`.
pub fn matmul_batched_into(
    a: &[MatView<'_>],
    b: &MatView<'_>,
    outs: &mut [&mut [f32]],
    ep: Epilogue<'_>,
) {
    assert_eq!(
        a.len(),
        outs.len(),
        "matmul_batched: instance count mismatch"
    );
    if a.is_empty() {
        return;
    }
    let (m, k) = (a[0].rows(), a[0].cols());
    let (k2, n) = (b.rows(), b.cols());
    assert_eq!(k, k2, "matmul: inner dims mismatch ({m}x{k}) · ({k2}x{n})");
    ep.assert_bias_len(n);
    for (i, av) in a.iter().enumerate() {
        assert_eq!(
            (av.rows(), av.cols(), av.layout_tag()),
            (m, k, a[0].layout_tag()),
            "matmul_batched: instance {i} shape/layout mismatch"
        );
    }
    for (i, o) in outs.iter().enumerate() {
        assert_eq!(o.len(), m * n, "matmul_batched: output {i} length mismatch");
    }
    static BATCHED_CALLS: chiron_telemetry::Counter =
        chiron_telemetry::Counter::new("tensor.kernel.batched.calls");
    static BATCHED_INSTANCES: chiron_telemetry::Counter =
        chiron_telemetry::Counter::new("tensor.kernel.batched.instances");
    BATCHED_CALLS.add(1);
    BATCHED_INSTANCES.add(a.len() as u64);
    if m * k * n < BLOCKED_FLOP_THRESHOLD {
        // Small instances: each runs the scalar direct path; the pool
        // fans out whole instances (nested row-parallelism runs inline).
        pool::parallel_chunks_mut(outs, 1, |i, chunk| {
            direct(&a[i], b, m, k, n, &mut *chunk[0], ep);
        });
        return;
    }
    let tier = simd::active_tier();
    let key = tune::ShapeKey {
        m,
        k,
        n,
        layout_a: a[0].layout_tag(),
        layout_b: b.layout_tag(),
    };
    let params = tune::params_for(tier, key);
    let (mc_p, kc_p, nc_p) = (params.mc, params.kc, params.nc);
    let nr = params.tile.nr();
    for jc in (0..n).step_by(nc_p) {
        let nc = nc_p.min(n - jc);
        for pc in (0..k).step_by(kc_p) {
            let kc = kc_p.min(k - pc);
            let mut panel = ScratchBuf::zeroed(nc.div_ceil(nr) * kc * nr);
            pack_b(b, pc, kc, jc, nc, nr, &mut panel);
            let bp: &[f32] = &panel;
            let panel_ep = if pc + kc == k { ep } else { Epilogue::None };
            pool::parallel_chunks_mut(outs, 1, |i, chunk| {
                let out_i = &mut *chunk[0];
                for (blk, rows) in out_i.chunks_mut(mc_p * n).enumerate() {
                    row_block(
                        &a[i],
                        bp,
                        blk * mc_p,
                        rows.len() / n,
                        pc,
                        kc,
                        jc,
                        nc,
                        n,
                        rows,
                        tier,
                        params.tile,
                        panel_ep,
                    );
                }
            });
        }
    }
}

// ---------------------------------------------------------------------------
// Direct path: the original unblocked loops, for small products.
// ---------------------------------------------------------------------------

/// One output row with a row-major `b`: `o_row += a[i][·] · b` in ikj order
/// with the zero-skip. `a`'s layout is matched once per row, not per term.
/// Shared by the serial and parallel paths so they are bitwise identical by
/// construction.
#[inline]
fn direct_row_b_rowmajor(a: &MatView<'_>, i: usize, b: &[f32], k: usize, o_row: &mut [f32]) {
    match a.layout {
        Layout::RowMajor { cols, .. } => fold_row(a.data[i * cols..][..k].iter(), b, o_row),
        Layout::ColMajor { rows, .. } => fold_row(a.data[i..].iter().step_by(rows), b, o_row),
    }
}

/// `o_row += Σ_k a_row[k] · b[k][·]` over `k` ascending, skipping zero
/// `a` terms. A one-column row folds in a register, not through memory.
#[inline(always)]
fn fold_row<'a>(a_row: impl Iterator<Item = &'a f32>, b: &[f32], o_row: &mut [f32]) {
    if let [o] = o_row {
        *o = a_row.zip(b).fold(
            *o,
            |acc, (&aik, &bk)| if aik != 0.0 { acc + aik * bk } else { acc },
        );
        return;
    }
    for (&aik, b_row) in a_row.zip(b.chunks_exact(o_row.len())) {
        if aik != 0.0 {
            for (o, &bkj) in o_row.iter_mut().zip(b_row) {
                *o += aik * bkj;
            }
        }
    }
}

/// One output row with a column-major `b` (the `nt` case): independent dot
/// products over `b`'s contiguous columns. Each dot is a strict ascending-`k`
/// fold into its own accumulator — a serial dependency chain the compiler
/// cannot reorder — so for a row-major `a` the row is jammed across four
/// columns at a time: four *independent* chains run in one `k` loop, hiding
/// FMA latency without changing any chain's fold order. Every branch folds
/// in ascending `k`, so all are bitwise identical.
#[inline]
fn direct_row_b_colmajor(a: &MatView<'_>, i: usize, b: &[f32], k: usize, o_row: &mut [f32]) {
    if let Layout::RowMajor { cols, .. } = a.layout {
        let a_row = &a.data[i * cols..i * cols + k];
        let mut j = 0;
        while j + 4 <= o_row.len() {
            let c0 = &b[j * k..j * k + k];
            let c1 = &b[(j + 1) * k..(j + 1) * k + k];
            let c2 = &b[(j + 2) * k..(j + 2) * k + k];
            let c3 = &b[(j + 3) * k..(j + 3) * k + k];
            let (mut s0, mut s1, mut s2, mut s3) = (0.0f32, 0.0f32, 0.0f32, 0.0f32);
            for kk in 0..k {
                let aik = a_row[kk];
                s0 += aik * c0[kk];
                s1 += aik * c1[kk];
                s2 += aik * c2[kk];
                s3 += aik * c3[kk];
            }
            o_row[j] = s0;
            o_row[j + 1] = s1;
            o_row[j + 2] = s2;
            o_row[j + 3] = s3;
            j += 4;
        }
        for (j, o) in o_row.iter_mut().enumerate().skip(j) {
            let b_col = &b[j * k..(j + 1) * k];
            let mut acc = 0.0;
            for (&aik, &bkj) in a_row.iter().zip(b_col) {
                acc += aik * bkj;
            }
            *o = acc;
        }
    } else {
        for (j, o) in o_row.iter_mut().enumerate() {
            let b_col = &b[j * k..(j + 1) * k];
            let mut acc = 0.0;
            for (kk, &bkj) in b_col.iter().enumerate() {
                acc += a.get(i, kk) * bkj;
            }
            *o = acc;
        }
    }
}

fn direct(
    a: &MatView<'_>,
    b: &MatView<'_>,
    m: usize,
    k: usize,
    n: usize,
    out: &mut [f32],
    ep: Epilogue<'_>,
) {
    // Each row's full-k accumulation completes within one `per_row` call,
    // so the epilogue runs right after it — same per-element op order as
    // the separate bias/activation passes (see `Epilogue`).
    let per_row = |i: usize, o_row: &mut [f32]| {
        match b.layout {
            Layout::RowMajor { .. } => direct_row_b_rowmajor(a, i, b.data, k, o_row),
            Layout::ColMajor { .. } => direct_row_b_colmajor(a, i, b.data, k, o_row),
        }
        ep.apply(o_row, 0);
    };
    if m * k * n >= PARALLEL_FLOP_THRESHOLD && m > ROWS_PER_BLOCK && pool::threads() > 1 {
        pool::parallel_chunks_mut(out, ROWS_PER_BLOCK * n, |block, o_chunk| {
            let row0 = block * ROWS_PER_BLOCK;
            for (r, o_row) in o_chunk.chunks_mut(n).enumerate() {
                per_row(row0 + r, o_row);
            }
        });
    } else {
        for (i, o_row) in out.chunks_mut(n).enumerate() {
            per_row(i, o_row);
        }
    }
}

// ---------------------------------------------------------------------------
// Blocked path: pack + register-tiled micro-kernel (scalar or SIMD).
// ---------------------------------------------------------------------------

/// Packs rows `i0..i0+mc`, depth `pc..pc+kc` of `a` into `mr`-row strips,
/// `kk`-major within each strip: `dst[strip·kc·mr + kk·mr + r]`. `dst` is
/// pre-zeroed, so rows past `mc` stay zero-padded. On the AVX2 tier,
/// complete 8-row strips of a row-major `a` go through the in-register
/// 8×8 transpose (pure data movement — packing is numerically invisible
/// on every tier).
#[allow(clippy::too_many_arguments)]
fn pack_a(
    a: &MatView<'_>,
    i0: usize,
    mc: usize,
    pc: usize,
    kc: usize,
    mr: usize,
    dst: &mut [f32],
    tier: DispatchTier,
) {
    match a.layout {
        Layout::RowMajor { cols, .. } => {
            for t in 0..mc.div_ceil(mr) {
                let strip = &mut dst[t * kc * mr..(t + 1) * kc * mr];
                let rows = mr.min(mc - t * mr);
                let mut kk0 = 0;
                #[cfg(target_arch = "x86_64")]
                if tier == DispatchTier::Avx2 && mr == 8 && rows == 8 {
                    // Safety: tier Avx2 implies the feature was detected;
                    // the strip's 8 source rows each hold `kc` in-bounds
                    // floats starting at this offset, and `strip` holds
                    // `kc·8` packed floats.
                    kk0 = unsafe {
                        simd::pack_a_strip_avx2(
                            a.data.as_ptr().add((i0 + t * 8) * cols + pc),
                            cols,
                            kc,
                            strip,
                        )
                    };
                }
                #[cfg(not(target_arch = "x86_64"))]
                let _ = tier;
                for r in 0..rows {
                    let row = &a.data[(i0 + t * mr + r) * cols + pc..][..kc];
                    for kk in kk0..kc {
                        strip[kk * mr + r] = row[kk];
                    }
                }
            }
        }
        Layout::ColMajor { rows, .. } => {
            // Columns of the stored matrix are contiguous runs of logical
            // rows, and a packed strip's `kk`-th group is exactly `mr` of
            // them — so each (strip, kk) cell is one contiguous copy.
            for t in 0..mc.div_ceil(mr) {
                let strip = &mut dst[t * kc * mr..(t + 1) * kc * mr];
                let src = &a.data[pc * rows + i0 + t * mr..];
                copy_runs(src, rows, strip, mr, mr.min(mc - t * mr));
            }
        }
    }
}

/// Packs depth `pc..pc+kc`, columns `jc..jc+nc` of `b` into `nr`-column
/// strips, `kk`-major within each strip: `dst[strip·kc·nr + kk·nr + j]`.
/// `dst` is pre-zeroed, so columns past `nc` stay zero-padded. A row-major
/// `b` packs each strip as `kc` runs of [`copy_runs`].
fn pack_b(b: &MatView<'_>, pc: usize, kc: usize, jc: usize, nc: usize, nr: usize, dst: &mut [f32]) {
    match b.layout {
        Layout::RowMajor { cols, .. } => {
            for s in 0..nc.div_ceil(nr) {
                let strip = &mut dst[s * kc * nr..(s + 1) * kc * nr];
                let src = &b.data[pc * cols + jc + s * nr..];
                copy_runs(src, cols, strip, nr, nr.min(nc - s * nr));
            }
        }
        Layout::ColMajor { rows, .. } => {
            for s in 0..nc.div_ceil(nr) {
                let strip = &mut dst[s * kc * nr..(s + 1) * kc * nr];
                for j in 0..nr.min(nc - s * nr) {
                    let col = &b.data[(jc + s * nr + j) * rows + pc..][..kc];
                    for (kk, &v) in col.iter().enumerate() {
                        strip[kk * nr + j] = v;
                    }
                }
            }
        }
    }
}

/// Copies `width` floats from `src[r·stride..]` to `dst[r·step..]` for each
/// of the `dst.len() / step` runs of a packed strip. The tile widths copy
/// at a compile-time width, a few vector moves per run; a ragged edge strip
/// copies column by column, strided on both sides. Neither makes a `memcpy`
/// call per run, as a runtime-length `copy_from_slice` would.
fn copy_runs(src: &[f32], stride: usize, dst: &mut [f32], step: usize, width: usize) {
    fn fixed<const W: usize>(src: &[f32], stride: usize, dst: &mut [f32], step: usize) {
        for (r, d) in dst.chunks_exact_mut(step).enumerate() {
            d[..W].copy_from_slice(&src[r * stride..][..W]);
        }
    }
    match width {
        4 => fixed::<4>(src, stride, dst, step),
        8 => fixed::<8>(src, stride, dst, step),
        12 => fixed::<12>(src, stride, dst, step),
        16 => fixed::<16>(src, stride, dst, step),
        _ => {
            for j in 0..width {
                for (r, d) in dst.chunks_exact_mut(step).enumerate() {
                    d[j] = src[r * stride + j];
                }
            }
        }
    }
}

/// Runs the packed panel loops for one `mc`-row block of C. `out_rows` is
/// the block's row range of the full output (row-major, all `n` columns);
/// `bp` is the packed B panel for `(jc, pc)`. Full `mr×nr` tiles run the
/// micro-kernel **directly on the output** (row stride `n`) — no staging
/// copies on the hot interior. Column-edge tiles (full rows, `jn < nr`)
/// also run in place where the tier has masked C access (AVX2 `vmaskmov`).
/// Remaining ragged tiles are staged through a stack buffer (stride `nr`,
/// zeros in the padding lanes) and the valid `rm×jn` region stored back.
/// The tile homes are numerically identical: the kernel
/// loads the C tile, runs the same fold, and stores it back either way, and
/// an `f32` copy round-trip is value-preserving. Padding lanes accumulate
/// only zero terms from the zero-padded packs and are never stored.
#[allow(clippy::too_many_arguments)]
fn row_block(
    a: &MatView<'_>,
    bp: &[f32],
    i0: usize,
    mc: usize,
    pc: usize,
    kc: usize,
    jc: usize,
    nc: usize,
    n: usize,
    out_rows: &mut [f32],
    tier: DispatchTier,
    tile: MicroTile,
    ep: Epilogue<'_>,
) {
    let (mr, nr) = (tile.mr(), tile.nr());
    let mut ap = ScratchBuf::zeroed(mc.div_ceil(mr) * kc * mr);
    pack_a(a, i0, mc, pc, kc, mr, &mut ap, tier);
    let mut stage = [0.0f32; simd::MR_MAX * simd::NR_MAX];
    for s in 0..nc.div_ceil(nr) {
        let j0 = jc + s * nr;
        let jn = nr.min(nc - s * nr);
        let b_strip = &bp[s * kc * nr..(s + 1) * kc * nr];
        for t in 0..mc.div_ceil(mr) {
            let r0 = t * mr;
            let rm = mr.min(mc - r0);
            let a_strip = &ap[t * kc * mr..(t + 1) * kc * mr];
            if rm == mr && jn == nr {
                // Full interior tile: advance it in place.
                simd::micro(
                    tier,
                    tile,
                    kc,
                    a_strip,
                    b_strip,
                    &mut out_rows[r0 * n + j0..],
                    n,
                );
            } else if rm == mr
                && simd::micro_col_edge(
                    tier,
                    tile,
                    kc,
                    a_strip,
                    b_strip,
                    &mut out_rows[r0 * n + j0..],
                    n,
                    jn,
                )
            {
                // Column edge advanced in place through masked C access.
            } else {
                let c_tile = &mut stage[..mr * nr];
                for (r, row) in c_tile.chunks_mut(nr).enumerate() {
                    if r < rm {
                        row[..jn]
                            .copy_from_slice(&out_rows[(r0 + r) * n + j0..(r0 + r) * n + j0 + jn]);
                        row[jn..].fill(0.0);
                    } else {
                        row.fill(0.0);
                    }
                }
                simd::micro(tier, tile, kc, a_strip, b_strip, c_tile, nr);
                for (r, row) in c_tile.chunks(nr).enumerate().take(rm) {
                    out_rows[(r0 + r) * n + j0..(r0 + r) * n + j0 + jn].copy_from_slice(&row[..jn]);
                }
            }
        }
    }
    // The caller passes a real epilogue only on the final `pc` panel, when
    // every element of this block's `jc..jc+nc` column range holds its
    // finished full-k accumulation.
    if !ep.is_none() {
        for r in 0..mc {
            ep.apply(&mut out_rows[r * n + jc..r * n + jc + nc], jc);
        }
    }
}

/// The packed panel loops with explicit tier and blocking parameters
/// (callers look them up with [`tune::params_for`] or pass pinned values).
#[allow(clippy::too_many_arguments)]
fn blocked(
    a: &MatView<'_>,
    b: &MatView<'_>,
    m: usize,
    k: usize,
    n: usize,
    out: &mut [f32],
    tier: DispatchTier,
    params: KernelParams,
    ep: Epilogue<'_>,
) {
    let (mc_p, kc_p, nc_p) = (params.mc, params.kc, params.nc);
    let nr = params.tile.nr();
    for jc in (0..n).step_by(nc_p) {
        let nc = nc_p.min(n - jc);
        for pc in (0..k).step_by(kc_p) {
            let kc = kc_p.min(k - pc);
            // One packed B panel per (jc, pc), shared read-only by every
            // row block; padding stays zero from the arena's zero-fill.
            let mut panel = ScratchBuf::zeroed(nc.div_ceil(nr) * kc * nr);
            pack_b(b, pc, kc, jc, nc, nr, &mut panel);
            let bp: &[f32] = &panel;
            // Fuse the epilogue only into the final depth panel: that is
            // when each element's full-k accumulation is complete.
            let panel_ep = if pc + kc == k { ep } else { Epilogue::None };
            let blocks = m.div_ceil(mc_p);
            if blocks > 1 && pool::threads() > 1 {
                pool::parallel_chunks_mut(out, mc_p * n, |blk, rows| {
                    let i0 = blk * mc_p;
                    row_block(
                        a,
                        bp,
                        i0,
                        rows.len() / n,
                        pc,
                        kc,
                        jc,
                        nc,
                        n,
                        rows,
                        tier,
                        params.tile,
                        panel_ep,
                    );
                });
            } else {
                for (blk, rows) in out.chunks_mut(mc_p * n).enumerate() {
                    let i0 = blk * mc_p;
                    row_block(
                        a,
                        bp,
                        i0,
                        rows.len() / n,
                        pc,
                        kc,
                        jc,
                        nc,
                        n,
                        rows,
                        tier,
                        params.tile,
                        panel_ep,
                    );
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Init, TensorRng};

    /// The naive reference: one accumulator per element, `k` ascending, no
    /// skips — the canonical order every kernel path must match bitwise.
    fn reference(a: &MatView<'_>, b: &MatView<'_>) -> Vec<f32> {
        let (m, k, n) = (a.rows(), a.cols(), b.cols());
        let mut out = vec![0.0f32; m * n];
        for i in 0..m {
            for j in 0..n {
                let mut acc = 0.0f32;
                for kk in 0..k {
                    acc += a.get(i, kk) * b.get(kk, j);
                }
                out[i * n + j] = acc;
            }
        }
        out
    }

    #[test]
    fn blocked_path_matches_reference_exactly() {
        let mut rng = TensorRng::seed_from(99);
        // Non-divisible by MR/NR/MC/KC on purpose.
        let (m, k, n) = (131, 67, 29);
        let a = rng.init(&[m, k], Init::Normal(1.0));
        let b = rng.init(&[k, n], Init::Normal(1.0));
        let av = MatView::row_major(a.as_slice(), m, k);
        let bv = MatView::row_major(b.as_slice(), k, n);
        let mut out = vec![0.0f32; m * n];
        blocked(
            &av,
            &bv,
            m,
            k,
            n,
            &mut out,
            DispatchTier::Scalar,
            KernelParams::pinned_scalar(),
            Epilogue::None,
        );
        assert_eq!(out, reference(&av, &bv));
    }

    #[test]
    fn every_tile_and_blocking_matches_reference_exactly() {
        let mut rng = TensorRng::seed_from(3);
        // Not a multiple of any mr/nr in the tile set; k crosses one
        // kc=64 boundary below so the C round-trip is exercised too.
        let (m, k, n) = (77, 101, 37);
        let a = rng.init(&[m, k], Init::Normal(1.0));
        let b = rng.init(&[k, n], Init::Normal(1.0));
        let av = MatView::row_major(a.as_slice(), m, k);
        let bv = MatView::row_major(b.as_slice(), k, n);
        let want = reference(&av, &bv);
        let tier = simd::detect();
        for tile in simd::ALL_TILES {
            for (mc, kc, nc) in [(64, 256, 512), (32, 64, 16), (17, 23, 9)] {
                let params = KernelParams { mc, kc, nc, tile };
                let mut out = vec![0.0f32; m * n];
                blocked(&av, &bv, m, k, n, &mut out, tier, params, Epilogue::None);
                assert_eq!(out, want, "tile {tile:?} blocking ({mc},{kc},{nc})");
            }
        }
    }

    #[test]
    fn direct_path_matches_reference_exactly() {
        let mut rng = TensorRng::seed_from(5);
        // m·k·n < 2^18, so both shapes take the direct path: the PPO value
        // head's weight gradient (one column) and a ragged many-column
        // product, each with a col-major and a row-major A. Zeros in A
        // exercise the zero-skip.
        for (m, k, n) in [(64, 500, 1), (13, 37, 9)] {
            let mut a = rng.init(&[k, m], Init::Normal(1.0));
            for v in a.as_mut_slice().iter_mut().step_by(7) {
                *v = 0.0;
            }
            let b = rng.init(&[k, n], Init::Normal(1.0));
            let bv = MatView::row_major(b.as_slice(), k, n);
            for av in [
                MatView::transposed(a.as_slice(), m, k),
                MatView::row_major(a.as_slice(), m, k),
            ] {
                let mut out = vec![0.0f32; m * n];
                direct(&av, &bv, m, k, n, &mut out, Epilogue::None);
                assert_eq!(out, reference(&av, &bv), "{m}x{k}x{n}");
            }
        }
    }

    #[test]
    fn micro_kernel_resumes_from_c_tile() {
        // Two kc half-panels must equal one full pass bitwise, for the
        // pinned scalar tile and every vector tile on the host's tier.
        let tier = simd::detect();
        for tile in simd::ALL_TILES {
            let (mr, nr) = (tile.mr(), tile.nr());
            let kc = 10;
            let ap: Vec<f32> = (0..kc * mr).map(|x| (x as f32 * 0.37).sin()).collect();
            let bp: Vec<f32> = (0..kc * nr).map(|x| (x as f32 * 0.61).cos()).collect();
            let mut full = vec![0.0f32; mr * nr];
            simd::micro(tier, tile, kc, &ap, &bp, &mut full, nr);
            let mut halves = vec![0.0f32; mr * nr];
            simd::micro(tier, tile, 5, &ap[..5 * mr], &bp[..5 * nr], &mut halves, nr);
            simd::micro(tier, tile, 5, &ap[5 * mr..], &bp[5 * nr..], &mut halves, nr);
            assert_eq!(full, halves, "tile {tile:?}");
        }
    }
}
