//! Shared deterministic worker pool — the parallel compute backend behind
//! the tensor hot paths (matmul, conv kernels, col2im) and the batched
//! training passes in `chiron-nn` / `chiron-drl`.
//!
//! # Design
//!
//! One process-wide pool of persistent `std::thread` workers fed through a
//! `crossbeam` MPMC channel. Work is expressed as a fixed number of
//! *blocks*; workers (plus the calling thread) pull block indices from an
//! atomic dispenser until none remain. Two properties make every result
//! **bitwise identical regardless of thread count**:
//!
//! 1. **Fixed partitioning.** Blocks are defined by the problem size alone
//!    (e.g. "16 output rows per block"), never by the number of threads.
//! 2. **No shared accumulation.** Each block writes a disjoint output
//!    region, and per-block partial results are reduced by the caller in
//!    block-index order. Nothing is ever accumulated atomically.
//!
//! Because each output element is computed by exactly one block with a
//! fixed sequence of floating-point operations, scheduling cannot perturb
//! results — the serial path and any parallel schedule agree bit-for-bit.
//!
//! # Thread count
//!
//! The initial thread count comes from the `CHIRON_THREADS` environment
//! variable (default: available parallelism; `1` selects the serial path).
//! [`set_threads`] adjusts it at runtime, which the benchmarks and the
//! determinism tests use to compare serial and parallel execution within
//! one process.
//!
//! # Regions and the inline rule
//!
//! [`parallel_for`] and the chunk helpers serve fine-grained regions
//! (matmul tiles, conv images and channel pairs, batch lanes). [`map`],
//! [`map_mut`] and [`run`] serve named outer regions — federated nodes
//! training local models, sweep cells, evaluation seeds: one block per
//! task, results in task order, a telemetry span named after the region,
//! and the `tensor.scope.{regions,tasks,inline_regions}` counters.
//!
//! Every region follows one rule: it runs inline on the calling thread
//! when the pool is serial, when it has a single block, or when the
//! calling thread is already *inside a region* — a pool worker (always)
//! or a caller while it drains its own region's blocks. So an outer region
//! claims the threads, and every region nested in one of its blocks runs
//! inline on whichever thread drew that block. Nothing ever waits on a
//! thread that is busy with the region it waits in, and inline execution
//! cannot change results (see above).
//!
//! # Examples
//!
//! ```
//! use chiron_tensor::pool;
//!
//! let mut out = vec![0.0f32; 1000];
//! pool::parallel_chunks_mut(&mut out, 100, |block, chunk| {
//!     for (i, v) in chunk.iter_mut().enumerate() {
//!         *v = (block * 100 + i) as f32;
//!     }
//! });
//! assert_eq!(out[999], 999.0);
//! ```

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};

use crossbeam::channel::{unbounded, Receiver, Sender};

/// Upper bound on the configurable thread count.
pub const MAX_THREADS: usize = 64;

/// Countdown latch: `wait` returns once `count_down` has been called the
/// configured number of times.
struct Latch {
    remaining: Mutex<usize>,
    zero: Condvar,
}

impl Latch {
    fn new(count: usize) -> Self {
        Self {
            remaining: Mutex::new(count),
            zero: Condvar::new(),
        }
    }

    fn count_down(&self) {
        let mut r = self.remaining.lock().expect("latch lock");
        *r -= 1;
        if *r == 0 {
            self.zero.notify_all();
        }
    }

    fn wait(&self) {
        let mut r = self.remaining.lock().expect("latch lock");
        while *r > 0 {
            r = self.zero.wait(r).expect("latch wait");
        }
    }
}

/// One parallel region. Every copy sent to the channel is consumed by some
/// worker, which drains the block dispenser and then counts the latch down,
/// so the caller's `task` reference provably outlives all uses.
#[derive(Clone)]
struct Job {
    task: &'static (dyn Fn(usize) + Sync),
    next: Arc<AtomicUsize>,
    blocks: usize,
    latch: Arc<Latch>,
    panicked: Arc<AtomicBool>,
}

/// Runs blocks from the dispenser until none remain, with the thread
/// marked inside a region so that nested regions run inline. The previous
/// mark is restored afterwards, also when a block panics.
fn drain_dispenser(job: &Job) -> std::thread::Result<()> {
    let outer = INSIDE_REGION.replace(true);
    let outcome = catch_unwind(AssertUnwindSafe(|| loop {
        let b = job.next.fetch_add(1, Ordering::Relaxed);
        if b >= job.blocks {
            break;
        }
        (job.task)(b);
    }));
    INSIDE_REGION.set(outer);
    outcome
}

struct Pool {
    tx: Sender<Job>,
    rx: Receiver<Job>,
    active: AtomicUsize,
    spawned: Mutex<usize>,
}

thread_local! {
    /// Set while the thread runs a region's blocks: for a pool worker's
    /// whole life, and for a caller while it drains its own region. Any
    /// region opened with it set runs inline.
    static INSIDE_REGION: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

fn default_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Initial thread count: `CHIRON_THREADS` (via
/// [`RuntimeConfig`](chiron_telemetry::RuntimeConfig)) if set to a positive
/// integer, otherwise the machine's available parallelism.
fn env_threads() -> usize {
    chiron_telemetry::RuntimeConfig::global()
        .threads
        .filter(|&n| n > 0)
        .unwrap_or_else(default_threads)
        .clamp(1, MAX_THREADS)
}

impl Pool {
    fn global() -> &'static Pool {
        static POOL: OnceLock<Pool> = OnceLock::new();
        POOL.get_or_init(|| {
            let (tx, rx) = unbounded();
            Pool {
                tx,
                rx,
                active: AtomicUsize::new(env_threads()),
                spawned: Mutex::new(0),
            }
        })
    }

    /// Lazily brings the number of live workers up to `needed` (the
    /// calling thread always acts as one extra worker, so `threads() - 1`
    /// spawned workers suffice).
    fn ensure_workers(&self, needed: usize) {
        let needed = needed.min(MAX_THREADS - 1);
        let mut spawned = self.spawned.lock().expect("pool spawn lock");
        while *spawned < needed {
            let rx = self.rx.clone();
            std::thread::Builder::new()
                .name(format!("chiron-pool-{spawned}"))
                .spawn(move || {
                    INSIDE_REGION.set(true);
                    while let Ok(job) = rx.recv() {
                        if drain_dispenser(&job).is_err() {
                            job.panicked.store(true, Ordering::SeqCst);
                        }
                        job.latch.count_down();
                    }
                })
                .expect("spawn chiron-pool worker");
            *spawned += 1;
        }
    }
}

/// The current target thread count (1 = serial).
pub fn threads() -> usize {
    Pool::global().active.load(Ordering::Relaxed)
}

/// Sets the target thread count at runtime, clamped to
/// `[1, MAX_THREADS]`. `1` routes everything through the serial path.
///
/// This is process-global; the benchmarks and determinism tests use it to
/// compare serial and parallel execution without re-launching.
pub fn set_threads(n: usize) {
    let pool = Pool::global();
    let n = n.clamp(1, MAX_THREADS);
    pool.active.store(n, Ordering::Relaxed);
    pool.ensure_workers(n.saturating_sub(1));
}

/// Helper threads a region of `blocks` blocks fans out to; 0 means it
/// runs inline (serial pool, a single block, or already inside a region).
fn helpers_for(blocks: usize) -> usize {
    if INSIDE_REGION.get() {
        return 0;
    }
    threads().min(blocks).saturating_sub(1)
}

/// Runs `task(block)` for every `block` in `0..blocks`, fanning out across
/// the pool. Returns after every block has completed. Runs inline under
/// the module's inline rule.
///
/// Determinism contract: `task` must write only block-`b`-owned data when
/// invoked with `b`. Under that contract the results are bitwise identical
/// for every thread count, including 1.
///
/// # Panics
///
/// Propagates a panic from `task` (after all blocks finished or were
/// abandoned).
pub fn parallel_for<F: Fn(usize) + Sync>(blocks: usize, task: F) {
    if blocks == 0 {
        return;
    }
    // Fan-out traffic for the telemetry layer (observational only).
    static POOL_REGIONS: chiron_telemetry::Counter =
        chiron_telemetry::Counter::new("tensor.pool.regions");
    static POOL_BLOCKS: chiron_telemetry::Counter =
        chiron_telemetry::Counter::new("tensor.pool.blocks");
    static POOL_INLINE: chiron_telemetry::Counter =
        chiron_telemetry::Counter::new("tensor.pool.inline_regions");
    let helpers = helpers_for(blocks);
    if helpers == 0 {
        POOL_INLINE.add(1);
        for b in 0..blocks {
            task(b);
        }
        return;
    }
    let pool = Pool::global();
    POOL_REGIONS.add(1);
    POOL_BLOCKS.add(blocks as u64);
    pool.ensure_workers(helpers);

    let task_ref: &(dyn Fn(usize) + Sync) = &task;
    // SAFETY: the latch counts one count_down per job copy sent, and
    // `wait` below does not return until every copy has been consumed and
    // its dispenser drain finished. `task` therefore outlives every use of
    // the transmuted reference.
    let task_static: &'static (dyn Fn(usize) + Sync) = unsafe { std::mem::transmute(task_ref) };
    let job = Job {
        task: task_static,
        next: Arc::new(AtomicUsize::new(0)),
        blocks,
        latch: Arc::new(Latch::new(helpers)),
        panicked: Arc::new(AtomicBool::new(false)),
    };
    for _ in 0..helpers {
        assert!(
            pool.tx.send(job.clone()).is_ok(),
            "pool channel closed unexpectedly"
        );
    }
    // The calling thread participates instead of blocking idle.
    let own = drain_dispenser(&job);
    job.latch.wait();
    if let Err(payload) = own {
        resume_unwind(payload);
    }
    assert!(
        !job.panicked.load(Ordering::SeqCst),
        "chiron-tensor pool: a worker panicked inside a parallel task"
    );
}

/// A raw pointer that may cross threads. Soundness is established per use
/// site: every block touches a disjoint region and the region outlives the
/// parallel call.
struct SendPtr<T>(*mut T);
unsafe impl<T> Send for SendPtr<T> {}
unsafe impl<T> Sync for SendPtr<T> {}

impl<T> SendPtr<T> {
    // Accessed through a method so closures capture the `SendPtr` itself
    // (which is Sync) rather than the raw-pointer field (which is not).
    fn get(&self) -> *mut T {
        self.0
    }
}

/// Splits `out` into consecutive chunks of `chunk_len` elements (the last
/// may be shorter), runs `f(block_index, chunk)` for each in parallel, and
/// returns the per-block results **in block order** — the caller reduces
/// them sequentially, which keeps reductions deterministic. The inline
/// path is a plain loop over the chunks, so it allocates nothing beyond the
/// returned vector.
///
/// # Panics
///
/// Panics if `chunk_len == 0`, or propagates a panic from `f`.
pub fn parallel_chunks_map<T, R, F>(out: &mut [T], chunk_len: usize, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(usize, &mut [T]) -> R + Sync,
{
    assert!(chunk_len > 0, "chunk_len must be positive");
    let len = out.len();
    let blocks = len.div_ceil(chunk_len);
    if runs_inline(blocks) {
        return out
            .chunks_mut(chunk_len)
            .enumerate()
            .map(|(b, chunk)| f(b, chunk))
            .collect();
    }
    let mut results: Vec<Option<R>> = (0..blocks).map(|_| None).collect();
    let out_ptr = SendPtr(out.as_mut_ptr());
    let res_ptr = SendPtr(results.as_mut_ptr());
    parallel_for(blocks, |b| {
        let start = b * chunk_len;
        let end = (start + chunk_len).min(len);
        // SAFETY: block `b` exclusively owns chunk `b` of `out` and slot
        // `b` of `results`; both outlive the parallel_for call, which does
        // not return before every block completes.
        unsafe {
            let chunk = std::slice::from_raw_parts_mut(out_ptr.get().add(start), end - start);
            *res_ptr.get().add(b) = Some(f(b, chunk));
        }
    });
    results
        .into_iter()
        .map(|r| r.expect("every block ran"))
        .collect()
}

/// True when a region of `blocks` blocks runs inline — the cases where the
/// fan-out bookkeeping, and its allocations, can be skipped entirely.
pub(crate) fn runs_inline(blocks: usize) -> bool {
    helpers_for(blocks) == 0
}

/// [`parallel_chunks_map`] without per-block results; the inline path is
/// allocation-free, which keeps single-thread training steps off the heap.
pub fn parallel_chunks_mut<T, F>(out: &mut [T], chunk_len: usize, f: F)
where
    T: Send,
    F: Fn(usize, &mut [T]) + Sync,
{
    let _: Vec<()> = parallel_chunks_map(out, chunk_len, f);
}

static SCOPE_REGIONS: chiron_telemetry::Counter =
    chiron_telemetry::Counter::new("tensor.scope.regions");
static SCOPE_TASKS: chiron_telemetry::Counter =
    chiron_telemetry::Counter::new("tensor.scope.tasks");
static SCOPE_INLINE: chiron_telemetry::Counter =
    chiron_telemetry::Counter::new("tensor.scope.inline_regions");

/// Opens named region `name` of `tasks` tasks: counts it and returns its
/// telemetry span, which closes when the guard drops.
fn named_region(name: &'static str, tasks: usize) -> chiron_telemetry::SpanGuard {
    SCOPE_REGIONS.add(1);
    SCOPE_TASKS.add(tasks as u64);
    if runs_inline(tasks) {
        SCOPE_INLINE.add(1);
    }
    chiron_telemetry::span(name)
}

/// Named region: runs `f(i, &items[i])` for every item, one block per item,
/// and returns the results in item order — bitwise identical to the serial
/// loop at any thread count.
///
/// ```
/// let squares = chiron_tensor::pool::map("example.squares", &[1usize, 2, 3, 4], |_, &x| x * x);
/// assert_eq!(squares, vec![1, 4, 9, 16]);
/// ```
///
/// # Panics
///
/// Propagates a panic from `f`.
pub fn map<T, R, F>(name: &'static str, items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    let _span = named_region(name, items.len());
    // Zero-sized units: one block per item, no allocation.
    let mut units = vec![(); items.len()];
    parallel_chunks_map(&mut units, 1, |i, _| f(i, &items[i]))
}

/// Named region: runs `f(i, &mut items[i])` for every item and returns the
/// results in item order. Each task owns its element exclusively, so this
/// is the entry point for `Send`-but-not-`Sync` items such as model clones.
///
/// # Panics
///
/// Propagates a panic from `f`.
pub fn map_mut<T, R, F>(name: &'static str, items: &mut [T], f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(usize, &mut T) -> R + Sync,
{
    let _span = named_region(name, items.len());
    parallel_chunks_map(items, 1, |i, item| f(i, &mut item[0]))
}

/// Named region over heterogeneous one-shot tasks (e.g. "train Chiron" /
/// "train DRL" / "train Greedy"); returns their results in task order.
///
/// # Panics
///
/// Propagates a panic from any task.
pub fn run<'env, R: Send>(
    name: &'static str,
    tasks: Vec<Box<dyn FnOnce() -> R + Send + 'env>>,
) -> Vec<R> {
    let _span = named_region(name, tasks.len());
    let mut slots: Vec<Option<Box<dyn FnOnce() -> R + Send + 'env>>> =
        tasks.into_iter().map(Some).collect();
    parallel_chunks_map(&mut slots, 1, |_, slot| {
        (slot[0].take().expect("each task slot is consumed once"))()
    })
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// Exclusive hold on the pool size for one test's whole sweep: tests
    /// run concurrently and [`set_threads`] is process-global. Dropping it
    /// restores the serial pool.
    pub(crate) struct Sweep {
        _lock: std::sync::MutexGuard<'static, ()>,
    }

    pub(crate) fn sweep() -> Sweep {
        static LOCK: Mutex<()> = Mutex::new(());
        Sweep {
            _lock: LOCK
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner),
        }
    }

    impl Drop for Sweep {
        fn drop(&mut self) {
            set_threads(1);
        }
    }

    #[test]
    fn parallel_for_covers_every_block_once() {
        let _sweep = sweep();
        set_threads(4);
        let hits: Vec<AtomicUsize> = (0..97).map(|_| AtomicUsize::new(0)).collect();
        parallel_for(97, |b| {
            hits[b].fetch_add(1, Ordering::SeqCst);
        });
        assert!(hits.iter().all(|h| h.load(Ordering::SeqCst) == 1));
    }

    #[test]
    fn chunks_are_disjoint_and_ordered() {
        let _sweep = sweep();
        set_threads(4);
        let mut out = vec![0u32; 1003];
        parallel_chunks_mut(&mut out, 100, |b, chunk| {
            for (i, v) in chunk.iter_mut().enumerate() {
                *v = (b * 100 + i) as u32;
            }
        });
        for (i, &v) in out.iter().enumerate() {
            assert_eq!(v as usize, i);
        }
    }

    #[test]
    fn results_identical_across_thread_counts() {
        let _sweep = sweep();
        let run = |t: usize| -> (Vec<f32>, Vec<f64>) {
            set_threads(t);
            let mut out = vec![0.0f32; 513];
            let partials = parallel_chunks_map(&mut out, 64, |b, chunk| {
                for (i, v) in chunk.iter_mut().enumerate() {
                    // A rounding-sensitive computation.
                    *v = ((b * 64 + i) as f32 * 0.1).sin() / 3.0;
                }
                chunk.iter().map(|&v| f64::from(v)).sum::<f64>()
            });
            (out, partials)
        };
        let serial = run(1);
        for t in [4, 8] {
            assert_eq!(serial, run(t), "bitwise identity at {t} threads");
        }
    }

    #[test]
    fn nested_regions_run_inline() {
        let _sweep = sweep();
        set_threads(4);
        let mut out = vec![0.0f32; 64];
        parallel_chunks_mut(&mut out, 8, |b, chunk| {
            // Every block is inside the outer region, on a worker or on
            // the caller, so the inner region runs inline.
            assert!(runs_inline(4));
            let mut inner = vec![0.0f32; 8];
            parallel_chunks_mut(&mut inner, 2, |ib, ic| {
                for (i, v) in ic.iter_mut().enumerate() {
                    *v = (ib * 2 + i) as f32;
                }
            });
            for (v, iv) in chunk.iter_mut().zip(&inner) {
                *v = b as f32 * 100.0 + iv;
            }
        });
        assert_eq!(out[9], 101.0);
        // The caller left the region: its next region fans out again.
        assert!(!runs_inline(4));
    }

    #[test]
    fn named_regions_match_serial_loops() {
        let _sweep = sweep();
        for t in [1, 4] {
            set_threads(t);
            let items: Vec<u64> = (0..37).collect();
            let got = map("test.map", &items, |i, &x| x * 3 + i as u64);
            let want: Vec<u64> = items.iter().map(|&x| x * 4).collect();
            assert_eq!(got, want, "map at {t} threads");

            let mut owned: Vec<Vec<u64>> = (0..9).map(|i| vec![i]).collect();
            let sums = map_mut("test.map_mut", &mut owned, |i, v| {
                v.push(i as u64 * 10);
                v.iter().sum::<u64>()
            });
            assert_eq!(sums, (0..9).map(|i| i * 11).collect::<Vec<u64>>());

            let mut out = [0usize; 3];
            let (a, rest) = out.split_at_mut(1);
            let (b, c) = rest.split_at_mut(1);
            let tasks: Vec<Box<dyn FnOnce() -> usize + Send>> = vec![
                Box::new(|| {
                    a[0] = 10;
                    1
                }),
                Box::new(|| {
                    b[0] = 20;
                    2
                }),
                Box::new(|| {
                    c[0] = 30;
                    3
                }),
            ];
            assert_eq!(run("test.run", tasks), vec![1, 2, 3]);
            assert_eq!(out, [10, 20, 30]);
        }
    }

    #[test]
    fn panics_propagate_to_caller() {
        let _sweep = sweep();
        set_threads(2);
        let outcome = std::panic::catch_unwind(|| {
            parallel_for(8, |b| {
                assert!(b < 4, "boom at block {b}");
            });
        });
        assert!(outcome.is_err());
        // The caller left the region despite the panic, and the pool is
        // still usable.
        assert!(!runs_inline(4));
        let mut out = vec![0.0f32; 16];
        parallel_chunks_mut(&mut out, 4, |b, c| c.iter_mut().for_each(|v| *v = b as f32));
        assert_eq!(out[15], 3.0);
    }

    #[test]
    fn env_parsing_clamps_and_defaults() {
        assert!(env_threads() >= 1);
        assert!(env_threads() <= MAX_THREADS);
    }
}
