//! Regression test for the caller stall: a region nested in the block the
//! calling thread draws from its own outer region must run inline, not
//! wait on a helper that is busy with the same outer region.
//!
//! It must stay the only test in this binary. It relies on the pool having
//! exactly one worker thread; a spare idle worker would take the nested
//! region's work and hide the stall.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Condvar, Mutex};
use std::time::Duration;

use chiron_tensor::pool;

/// How long the helper's block waits for the caller's nested region. Only
/// a stall comes near it; nothing here is timed.
const PATIENCE: Duration = Duration::from_secs(20);

#[test]
fn caller_block_runs_its_nested_region_inline() {
    pool::set_threads(2);
    let caller = std::thread::current().id();
    let nested_done = Mutex::new(false);
    let finished = Condvar::new();
    let helper_gave_up = AtomicBool::new(false);
    pool::parallel_for(2, |_| {
        if std::thread::current().id() == caller {
            // Two blocks on a 2-thread pool: fanned out, this region would
            // wait for the only worker, which sits in the other block
            // below until this region has finished.
            let mut inner = [0u32; 2];
            pool::parallel_chunks_mut(&mut inner, 1, |b, slot| slot[0] = b as u32 + 1);
            assert_eq!(inner, [1, 2]);
            *nested_done.lock().unwrap() = true;
            finished.notify_all();
        } else {
            let done = nested_done.lock().unwrap();
            let (done, wait) = finished
                .wait_timeout_while(done, PATIENCE, |done| !*done)
                .unwrap();
            drop(done);
            helper_gave_up.store(wait.timed_out(), Ordering::SeqCst);
        }
    });
    pool::set_threads(1);
    assert!(
        !helper_gave_up.load(Ordering::SeqCst),
        "the caller's nested region waited on the helper busy in the outer region"
    );
}
