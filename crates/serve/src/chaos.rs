//! Deterministic fault injection for the serve layer.
//!
//! A [`FaultPlan`] is a seeded list of faults the supervisor consults at
//! well-defined points of a job's execution (supervision boundaries,
//! right after a checkpoint lands — the same places deadlines and
//! cancellation are checked). Every fault fires at most once, at a
//! position fixed by the plan rather than by wall-clock timing, so a
//! chaos run is exactly reproducible: same plan + same seed → same kill
//! point → same resume point → bitwise-identical results.
//!
//! The plan is a test-only hook in spirit, but it lives in the production
//! crate (not under `#[cfg(test)]`) so integration tests and the chaos CI
//! step can drive a fully-assembled daemon through it.

use std::sync::atomic::{AtomicBool, Ordering};

/// A single injectable fault.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Fault {
    /// Panic inside the worker executing `job` at the first supervision
    /// boundary where at least `at_episode` episodes are done. The panic
    /// is caught at the job boundary; the retry resumes from the latest
    /// checkpoint.
    KillWorker {
        /// Target job id.
        job: u64,
        /// Fire once at least this many episodes have completed.
        at_episode: usize,
    },
    /// Make the checkpoint write that would cover `at_episode` fail with
    /// an I/O error (the supervisor blocks the checkpoint's temp path, so
    /// the atomic write fails typed without corrupting prior
    /// generations).
    CheckpointIoError {
        /// Target job id.
        job: u64,
        /// Sabotage the first checkpoint save that covers this episode.
        at_episode: usize,
    },
    /// Sleep `delay_ms` at the job's first supervision boundary,
    /// simulating a straggler (used to trip deadline eviction).
    Straggler {
        /// Target job id.
        job: u64,
        /// Stall duration in milliseconds.
        delay_ms: u64,
    },
}

/// A seeded, fire-once set of faults.
#[derive(Debug, Default)]
pub struct FaultPlan {
    seed: u64,
    faults: Vec<(Fault, AtomicBool)>,
}

impl FaultPlan {
    /// An empty plan with the given seed (the seed feeds backoff jitter,
    /// keeping chaos runs reproducible end to end).
    #[must_use]
    pub fn new(seed: u64) -> Self {
        Self {
            seed,
            faults: Vec::new(),
        }
    }

    /// Adds a fault (builder style).
    #[must_use]
    pub fn with(mut self, fault: Fault) -> Self {
        self.faults.push((fault, AtomicBool::new(false)));
        self
    }

    /// The plan seed.
    #[must_use]
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Supervision-boundary hook: called by the worker after `done`
    /// episodes of `job` have completed (and their checkpoint, if any,
    /// is flushed). Sleeps for stragglers and panics for worker kills —
    /// the panic is caught by the supervisor's job boundary.
    ///
    /// # Panics
    ///
    /// Panics exactly once per matching [`Fault::KillWorker`]; that is
    /// the fault.
    pub fn on_boundary(&self, job: u64, done: usize) {
        for (fault, fired) in &self.faults {
            match *fault {
                Fault::Straggler {
                    job: target,
                    delay_ms,
                } if target == job && !fired.swap(true, Ordering::SeqCst) => {
                    std::thread::sleep(std::time::Duration::from_millis(delay_ms));
                }
                Fault::KillWorker {
                    job: target,
                    at_episode,
                } if target == job && done >= at_episode && !fired.swap(true, Ordering::SeqCst) => {
                    panic!("chaos: injected worker kill for job {job} at episode {done}");
                }
                _ => {}
            }
        }
    }

    /// Whether the checkpoint write covering episodes up to `save_at`
    /// of `job` should be sabotaged. Consumes the fault.
    #[must_use]
    pub fn sabotage_checkpoint(&self, job: u64, save_at: usize) -> bool {
        for (fault, fired) in &self.faults {
            if let Fault::CheckpointIoError {
                job: target,
                at_episode,
            } = *fault
            {
                if target == job && save_at >= at_episode && !fired.swap(true, Ordering::SeqCst) {
                    return true;
                }
            }
        }
        false
    }

    /// Whether any fault is still pending (diagnostics for tests).
    #[must_use]
    pub fn pending(&self) -> usize {
        self.faults
            .iter()
            .filter(|(_, fired)| !fired.load(Ordering::SeqCst))
            .count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kill_fires_once_at_threshold() {
        let plan = FaultPlan::new(1).with(Fault::KillWorker {
            job: 3,
            at_episode: 4,
        });
        plan.on_boundary(3, 2); // below threshold — no fire
        plan.on_boundary(7, 10); // other job — no fire
        assert_eq!(plan.pending(), 1);
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            plan.on_boundary(3, 4);
        }));
        assert!(caught.is_err(), "kill fault must panic");
        assert_eq!(plan.pending(), 0);
        plan.on_boundary(3, 8); // fire-once: no second panic
    }

    #[test]
    fn checkpoint_sabotage_consumes() {
        let plan = FaultPlan::new(1).with(Fault::CheckpointIoError {
            job: 5,
            at_episode: 10,
        });
        assert!(!plan.sabotage_checkpoint(5, 5));
        assert!(plan.sabotage_checkpoint(5, 10));
        assert!(!plan.sabotage_checkpoint(5, 15), "fires once");
    }
}
