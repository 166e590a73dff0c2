//! Helpers shared by the integration tests.

use std::sync::{Mutex, MutexGuard, PoisonError};

/// Exclusive hold on the worker-pool size for one whole thread-count
/// sweep. [`chiron_tensor::pool::set_threads`] is process-global and the
/// tests of one binary run concurrently, so without it the "1-thread" side
/// of a comparison could run at another test's size. Dropping it restores
/// the serial pool.
pub struct PoolSweep {
    _lock: MutexGuard<'static, ()>,
}

/// Waits for, then takes, this binary's pool-size lock.
pub fn pool_sweep() -> PoolSweep {
    static LOCK: Mutex<()> = Mutex::new(());
    PoolSweep {
        _lock: LOCK.lock().unwrap_or_else(PoisonError::into_inner),
    }
}

impl Drop for PoolSweep {
    fn drop(&mut self) {
        chiron_tensor::pool::set_threads(1);
    }
}
