//! Thread-local, size-bucketed `f32` buffer arena.
//!
//! Every tensor-sized allocation in the hot paths — matmul outputs, packing
//! panels, conv outputs, layer activations, PPO gradient buffers — is a
//! short-lived `Vec<f32>` of a shape that repeats identically step after
//! step. This module recycles those vectors so steady-state training
//! performs **zero heap allocations per step** once every shape has been
//! seen: [`take_vec`] hands back a previously [`recycle`]d buffer of
//! sufficient capacity, and [`Tensor`](crate::Tensor)'s `Drop` returns its
//! storage here automatically.
//!
//! # Design
//!
//! * **Thread-local pools.** Each thread owns its buckets outright, so
//!   `take`/`recycle` are lock-free and two pool workers can never hand out
//!   the same buffer — buffer sharing is impossible by construction, not by
//!   synchronization. A buffer taken on one thread and dropped on another
//!   simply migrates pools.
//! * **Power-of-two buckets.** Requests round up to the next power of two
//!   (min [`MIN_BUCKET`]); recycled buffers file under the largest power of
//!   two their capacity covers. A popped buffer therefore always has enough
//!   capacity for every request mapped to its bucket.
//! * **Bounded retention.** Each thread keeps at most 64 MiB of idle
//!   buffers; beyond the cap, recycled buffers are freed instead of pooled. The cap bounds memory, never correctness.
//! * **Observability.** [`misses`] counts real heap allocations across all
//!   threads; a steady-state training step leaves it unchanged, which the
//!   zero-allocation tests assert directly.
//!
//! Buffers are handed out *cleared* (`len == 0`) by
//! [`take_vec_with_capacity`] or zero-filled by [`take_vec`]; stale contents
//! never leak between users. Code that writes every element, such as
//! `Tensor::clone`, builds on a cleared buffer and skips the zero-fill.
//!
//! # Examples
//!
//! ```
//! use chiron_tensor::scratch::ScratchBuf;
//!
//! let ptr = {
//!     let mut a = ScratchBuf::zeroed(1024);
//!     a[0] = 1.0;
//!     a.as_ptr()
//! }; // dropped → recycled
//! let b = ScratchBuf::zeroed(1024);
//! assert_eq!(b.as_ptr(), ptr); // same storage, zeroed again
//! assert_eq!(b[0], 0.0);
//! ```

use std::cell::RefCell;
use std::ops::{Deref, DerefMut};
use std::sync::atomic::{AtomicU64, Ordering};

/// Smallest pooled capacity; requests below it still round up so even
/// scalar tensors recycle.
pub const MIN_BUCKET: usize = 8;

/// Number of power-of-two buckets: `MIN_BUCKET` (2³) up to 2³⁰ elements.
const BUCKETS: usize = 28;

/// Cross-thread count of real heap allocations taken through the arena.
static MISSES: AtomicU64 = AtomicU64::new(0);

/// Per-thread retention cap in `f32` elements: 64 MiB.
const CAP_ELEMS: usize = (64 << 20) / std::mem::size_of::<f32>();

struct Pools {
    buckets: Vec<Vec<Vec<f32>>>,
    retained: usize,
    misses: u64,
}

thread_local! {
    static POOLS: RefCell<Pools> = RefCell::new(Pools {
        buckets: vec![Vec::new(); BUCKETS],
        retained: 0,
        misses: 0,
    });
}

/// Bucket index for a *request* of `len` elements (round up).
fn bucket_for_request(len: usize) -> usize {
    let size = len.max(MIN_BUCKET).next_power_of_two();
    (size.trailing_zeros() as usize - 3).min(BUCKETS - 1)
}

/// Bucket index for a *returned* buffer of `capacity` (round down), so a
/// pooled buffer always satisfies every request mapped to its bucket.
fn bucket_for_capacity(capacity: usize) -> usize {
    debug_assert!(capacity >= MIN_BUCKET);
    let floor = if capacity.is_power_of_two() {
        capacity
    } else {
        capacity.next_power_of_two() >> 1
    };
    (floor.trailing_zeros() as usize - 3).min(BUCKETS - 1)
}

/// A cleared (`len == 0`) vector with capacity for at least `cap` elements,
/// recycled when possible. Build content with `extend`/`push`/`resize`.
pub fn take_vec_with_capacity(cap: usize) -> Vec<f32> {
    // Arena traffic for the telemetry layer: one relaxed-atomic add per
    // take/miss when enabled, nothing when disabled. Hits are derived as
    // `takes - misses` at flush time.
    static SCRATCH_TAKES: chiron_telemetry::Counter =
        chiron_telemetry::Counter::new("tensor.scratch.takes");
    static SCRATCH_MISSES: chiron_telemetry::Counter =
        chiron_telemetry::Counter::new("tensor.scratch.misses");
    SCRATCH_TAKES.add(1);
    let idx = bucket_for_request(cap);
    let recycled = POOLS
        .try_with(|p| {
            let mut p = p.borrow_mut();
            match p.buckets[idx].pop() {
                Some(v) if v.capacity() >= cap => {
                    p.retained -= v.capacity();
                    Some(v)
                }
                // Only possible in the final (clamped) bucket: put the
                // undersized buffer back and fall through to a fresh alloc.
                Some(v) => {
                    p.buckets[idx].push(v);
                    None
                }
                None => None,
            }
        })
        .unwrap_or(None); // TLS torn down (thread exit): plain allocation
    match recycled {
        Some(mut v) => {
            v.clear();
            v
        }
        None => {
            MISSES.fetch_add(1, Ordering::Relaxed);
            SCRATCH_MISSES.add(1);
            let _ = POOLS.try_with(|p| p.borrow_mut().misses += 1);
            Vec::with_capacity(cap.max(MIN_BUCKET).next_power_of_two())
        }
    }
}

/// A zero-filled vector of exactly `len` elements, recycled when possible.
pub fn take_vec(len: usize) -> Vec<f32> {
    let mut v = take_vec_with_capacity(len);
    v.resize(len, 0.0);
    v
}

/// Returns a vector to the calling thread's pool (or frees it if the
/// thread's retention cap is reached or the buffer is too small to pool).
pub fn recycle(v: Vec<f32>) {
    let cap = v.capacity();
    if cap < MIN_BUCKET {
        return; // dropping `v` frees it
    }
    let idx = bucket_for_capacity(cap);
    let rejected = POOLS
        .try_with(|p| {
            let mut p = p.borrow_mut();
            if p.retained + cap <= CAP_ELEMS {
                p.retained += cap;
                p.buckets[idx].push(v);
                None
            } else {
                Some(v)
            }
        })
        .unwrap_or(None);
    drop(rejected);
}

/// Total real heap allocations served through the arena, across all
/// threads, since process start. Steady-state training leaves this
/// unchanged — the zero-allocation tests assert exactly that.
pub fn misses() -> u64 {
    MISSES.load(Ordering::Relaxed)
}

/// Heap allocations served through the arena *on the calling thread*.
/// Unlike [`misses`], this is immune to other threads' activity, so the
/// zero-allocation tests can assert on it even under a parallel test
/// harness.
pub fn thread_misses() -> u64 {
    POOLS.try_with(|p| p.borrow().misses).unwrap_or(0)
}

/// Idle elements currently pooled by the calling thread (test aid).
pub fn retained_elems() -> usize {
    POOLS.try_with(|p| p.borrow().retained).unwrap_or(0)
}

/// An RAII scratch buffer: derefs to `[f32]`, recycles on drop.
///
/// Used for intermediates that never become tensors — kernel packing
/// panels, transpose staging, PPO gradient assembly.
pub struct ScratchBuf {
    buf: Vec<f32>,
}

impl ScratchBuf {
    /// A zero-filled scratch buffer of `len` elements.
    pub fn zeroed(len: usize) -> Self {
        Self { buf: take_vec(len) }
    }

    /// An empty scratch buffer (`len == 0`) with capacity for at least
    /// `cap` elements.
    pub fn with_capacity(cap: usize) -> Self {
        Self {
            buf: take_vec_with_capacity(cap),
        }
    }

    /// The underlying vector, for `push`/`extend`-style building.
    pub fn vec_mut(&mut self) -> &mut Vec<f32> {
        &mut self.buf
    }

    /// Consumes the handle, returning the vector (which then recycles
    /// through [`Tensor`](crate::Tensor)'s own drop path if converted).
    pub fn into_vec(mut self) -> Vec<f32> {
        std::mem::take(&mut self.buf)
    }
}

impl Deref for ScratchBuf {
    type Target = [f32];
    fn deref(&self) -> &[f32] {
        &self.buf
    }
}

impl DerefMut for ScratchBuf {
    fn deref_mut(&mut self) -> &mut [f32] {
        &mut self.buf
    }
}

impl Drop for ScratchBuf {
    fn drop(&mut self) {
        recycle(std::mem::take(&mut self.buf));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_round_trip() {
        assert_eq!(bucket_for_request(1), 0);
        assert_eq!(bucket_for_request(8), 0);
        assert_eq!(bucket_for_request(9), 1);
        assert_eq!(bucket_for_capacity(8), 0);
        assert_eq!(bucket_for_capacity(24), 1); // floor → 16
                                                // A recycled buffer's bucket never over-promises capacity.
        for cap in [8usize, 13, 16, 100, 1 << 12] {
            let idx = bucket_for_capacity(cap);
            let served = MIN_BUCKET << idx;
            assert!(cap >= served, "bucket {idx} over-promises for cap {cap}");
        }
    }

    #[test]
    fn same_buffer_returns_for_same_shape() {
        let ptr = {
            let b = ScratchBuf::zeroed(777);
            b.as_ptr()
        };
        let again = ScratchBuf::zeroed(777);
        assert_eq!(again.as_ptr(), ptr);
        assert!(again.iter().all(|&x| x == 0.0), "recycled buffer zeroed");
    }

    #[test]
    fn distinct_live_buffers_never_alias() {
        let a = ScratchBuf::zeroed(256);
        let b = ScratchBuf::zeroed(256);
        assert_ne!(a.as_ptr(), b.as_ptr());
    }

    #[test]
    fn take_after_warmup_is_not_a_miss() {
        // Warm a private size unlikely to collide with other tests.
        let warm = ScratchBuf::zeroed(12_345);
        drop(warm);
        let before = thread_misses();
        for _ in 0..10 {
            let b = ScratchBuf::zeroed(12_345);
            drop(b);
        }
        assert_eq!(
            thread_misses(),
            before,
            "steady-state takes must not allocate"
        );
    }

    #[test]
    fn concurrent_workers_never_share_a_live_buffer() {
        let _sweep = crate::pool::tests::sweep();
        crate::pool::set_threads(4);
        crate::pool::parallel_for(64, |block| {
            let mut mine = ScratchBuf::zeroed(512);
            mine.fill(block as f32);
            // Churn the arena while `mine` is live: takes on this or any
            // other worker must never hand out `mine`'s storage, because
            // pools are thread-local and `mine` hasn't been recycled.
            for _ in 0..8 {
                let other = ScratchBuf::zeroed(512);
                assert_ne!(other.as_ptr(), mine.as_ptr());
                std::thread::yield_now();
            }
            assert!(
                mine.iter().all(|&v| v == block as f32),
                "live scratch buffer was clobbered by a concurrent worker"
            );
        });
    }

    #[test]
    fn tiny_buffers_are_not_pooled() {
        let v = Vec::with_capacity(2);
        let retained = retained_elems();
        recycle(v);
        assert_eq!(retained_elems(), retained);
    }
}
