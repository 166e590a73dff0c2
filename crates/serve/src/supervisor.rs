//! The supervised job runner.
//!
//! A fixed pool of worker threads pulls jobs from the [`BoundedQueue`] and
//! executes them with a crash barrier around every attempt:
//!
//! - **Panics never escape.** Each attempt runs under `catch_unwind`; a
//!   panicking job becomes a typed [`JobError::Panicked`] and the worker
//!   thread lives on.
//! - **Transient failures retry with backoff.** Panics and checkpoint I/O
//!   errors re-queue the job after a deterministic exponential backoff
//!   (see [`ServeConfig::backoff_ms`]); permanent failures (bad spec,
//!   deadline) fail the job immediately.
//! - **Training is resumable.** Each attempt of a train job is one
//!   `Chiron::train_recoverable_with` call: it reads the job's checkpoint
//!   at most once, when it starts, and then saves every `checkpoint_every`
//!   episodes. The run passes a supervision boundary when it starts and
//!   after each save lands (where chaos faults fire): cancellation, drain,
//!   and deadlines are checked there, with a checkpoint already on disk
//!   past the start — so a retry (or a daemon restart pointed at the same
//!   state directory) resumes bitwise-identically to an uninterrupted run.
//! - **Deadlines are enforced at boundaries,** never pre-emptively, so an
//!   evicted job still leaves a valid checkpoint behind.

use crate::chaos::FaultPlan;
use crate::config::ServeConfig;
use crate::job::{JobError, JobKind, JobResult, JobSpec, JobState, Priority, ServeError};
use crate::queue::BoundedQueue;
use chiron::{Chiron, ChironConfig, EpisodeRun, RecoveryOptions, RunCheckpoint};
use chiron_data::DatasetKind;
use chiron_fedsim::metrics::EventLog;
use chiron_fedsim::{EdgeLearningEnv, EnvConfig};
use chiron_telemetry::{Counter, Histogram};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::ops::ControlFlow;
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

static ADMITTED: Counter = Counter::new("serve.admitted");
static REJECTED: Counter = Counter::new("serve.rejected");
static RETRIES: Counter = Counter::new("serve.retries");
static RESUMED: Counter = Counter::new("serve.resumed");
static DEADLINE_EVICTIONS: Counter = Counter::new("serve.deadline_evictions");
static QUEUE_DEPTH: Histogram = Histogram::new("serve.queue_depth");

/// Point-in-time view of a job, as served by `GET /jobs/:id`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct JobView {
    /// The job id assigned at admission.
    pub id: u64,
    /// Current lifecycle state.
    pub state: JobState,
    /// Attempts started so far.
    pub attempts: usize,
    /// The result, once completed.
    pub result: Option<JobResult>,
}

/// Counters mirrored from the supervisor's authoritative state (always
/// live, even when the telemetry layer is disabled). Served by
/// `/healthz` and rendered into `/metrics`.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct ServeStats {
    /// Jobs accepted into the queue.
    pub admitted: u64,
    /// Submissions shed by admission control.
    pub rejected: u64,
    /// Transient-failure retries scheduled.
    pub retries: u64,
    /// Attempts that resumed from an on-disk checkpoint.
    pub resumed: u64,
    /// Jobs evicted for exceeding their deadline.
    pub deadline_evictions: u64,
    /// Jobs finished successfully.
    pub completed: u64,
    /// Jobs failed permanently.
    pub failed: u64,
    /// Jobs cancelled.
    pub cancelled: u64,
    /// Current queue depth.
    pub queue_depth: usize,
    /// High-water mark of the queue depth.
    pub peak_queue_depth: usize,
    /// Jobs currently executing.
    pub inflight: usize,
    /// Whether the daemon is draining.
    pub draining: bool,
}

struct Job {
    spec: JobSpec,
    state: JobState,
    attempts: usize,
    first_started: Option<Instant>,
    cancel_requested: bool,
    result: Option<JobResult>,
}

struct SupState {
    queue: BoundedQueue,
    jobs: HashMap<u64, Job>,
    next_id: u64,
    inflight: usize,
    draining: bool,
    stopping: bool,
    stats: ServeStats,
}

struct Shared {
    cfg: ServeConfig,
    state: Mutex<SupState>,
    cv: Condvar,
    chaos: Option<FaultPlan>,
}

impl Shared {
    /// Locks the supervisor state, recovering from poisoning: a worker
    /// panic must never brick the daemon, and all state mutations are
    /// single assignments that stay consistent even if a panic lands
    /// between them.
    fn lock(&self) -> MutexGuard<'_, SupState> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Waits on the condvar while `busy` holds, at most `timeout`.
    fn wait_while(
        &self,
        timeout: Duration,
        busy: impl FnMut(&mut SupState) -> bool,
    ) -> MutexGuard<'_, SupState> {
        let waited = self.cv.wait_timeout_while(self.lock(), timeout, busy);
        waited.unwrap_or_else(PoisonError::into_inner).0
    }

    fn backoff_seed(&self) -> u64 {
        self.chaos.as_ref().map_or(0x5e4e_5eed, FaultPlan::seed)
    }
}

/// The supervised job runner: admission queue + worker pool + job table.
pub struct Supervisor {
    shared: Arc<Shared>,
    workers: Vec<std::thread::JoinHandle<()>>,
}

impl Supervisor {
    /// Starts the worker pool.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::Io`] if the state directory cannot be
    /// created.
    pub fn start(cfg: ServeConfig) -> Result<Self, ServeError> {
        Self::start_inner(cfg, None)
    }

    /// Starts the worker pool with a chaos [`FaultPlan`] installed — the
    /// deterministic fault-injection hook used by the chaos tests.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::Io`] if the state directory cannot be
    /// created.
    pub fn start_with_chaos(cfg: ServeConfig, chaos: FaultPlan) -> Result<Self, ServeError> {
        Self::start_inner(cfg, Some(chaos))
    }

    pub(crate) fn start_inner(
        cfg: ServeConfig,
        chaos: Option<FaultPlan>,
    ) -> Result<Self, ServeError> {
        std::fs::create_dir_all(&cfg.state_dir)?;
        let shared = Arc::new(Shared {
            state: Mutex::new(SupState {
                queue: BoundedQueue::new(cfg.queue_cap),
                jobs: HashMap::new(),
                next_id: 1,
                inflight: 0,
                draining: false,
                stopping: false,
                stats: ServeStats::default(),
            }),
            cv: Condvar::new(),
            chaos,
            cfg,
        });
        let workers = (0..shared.cfg.workers.max(1))
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("serve-worker-{i}"))
                    .spawn(move || worker_loop(&shared))
                    .map_err(ServeError::Io)
            })
            .collect::<Result<Vec<_>, _>>()?;
        Ok(Self { shared, workers })
    }

    /// The active configuration.
    #[must_use]
    pub fn config(&self) -> &ServeConfig {
        &self.shared.cfg
    }

    /// Admits a job, returning its id.
    ///
    /// # Errors
    ///
    /// [`ServeError::InvalidSpec`] for a spec that fails validation,
    /// [`ServeError::Draining`] once a drain has begun, and
    /// [`ServeError::Overloaded`] when the queue is at its bound.
    pub fn submit(&self, spec: JobSpec) -> Result<u64, ServeError> {
        spec.validate()?;
        let mut st = self.shared.lock();
        if st.draining || st.stopping {
            return Err(ServeError::Draining);
        }
        let id = st.next_id;
        if let Err(e) = st.queue.push(id, spec.priority().rank()) {
            st.stats.rejected += 1;
            REJECTED.add(1);
            return Err(e);
        }
        st.next_id += 1;
        st.stats.admitted += 1;
        ADMITTED.add(1);
        let depth = st.queue.depth();
        st.stats.peak_queue_depth = st.stats.peak_queue_depth.max(depth);
        QUEUE_DEPTH.record(depth as f64);
        st.jobs.insert(
            id,
            Job {
                spec,
                state: JobState::Queued,
                attempts: 0,
                first_started: None,
                cancel_requested: false,
                result: None,
            },
        );
        drop(st);
        self.shared.cv.notify_all();
        Ok(id)
    }

    /// A point-in-time view of a job, or `None` for an unknown id.
    #[must_use]
    pub fn status(&self, id: u64) -> Option<JobView> {
        let st = self.shared.lock();
        st.jobs.get(&id).map(|job| JobView {
            id,
            state: job.state.clone(),
            attempts: job.attempts,
            result: job.result.clone(),
        })
    }

    /// Cancels a job: queued (or backing-off) jobs are removed
    /// immediately; running jobs stop at their next supervision boundary.
    /// Returns the state after the cancel took effect.
    ///
    /// # Errors
    ///
    /// [`ServeError::UnknownJob`] for an unknown id and
    /// [`ServeError::AlreadyTerminal`] for a finished job.
    pub fn cancel(&self, id: u64) -> Result<JobState, ServeError> {
        let mut st = self.shared.lock();
        let job = st.jobs.get_mut(&id).ok_or(ServeError::UnknownJob(id))?;
        if job.state.is_terminal() {
            return Err(ServeError::AlreadyTerminal {
                id,
                state: job.state.clone(),
            });
        }
        let state = if matches!(job.state, JobState::Running { .. }) {
            job.cancel_requested = true;
            job.state.clone()
        } else {
            job.state = JobState::Cancelled;
            st.queue.remove(id);
            st.stats.cancelled += 1;
            JobState::Cancelled
        };
        drop(st);
        self.shared.cv.notify_all();
        Ok(state)
    }

    /// The mirrored counters (live even with telemetry disabled). Queue
    /// depth, in-flight count and the drain flag are read at call time.
    #[must_use]
    pub fn stats(&self) -> ServeStats {
        let st = self.shared.lock();
        let mut stats = st.stats.clone();
        stats.queue_depth = st.queue.depth();
        stats.inflight = st.inflight;
        stats.draining = st.draining;
        stats
    }

    /// Blocks until the job reaches a terminal state or `timeout`
    /// elapses; returns the last observed state (`None` for an unknown
    /// id). Callers distinguish timeout from completion via
    /// [`JobState::is_terminal`].
    #[must_use]
    pub fn wait(&self, id: u64, timeout: Duration) -> Option<JobState> {
        let st = self.shared.wait_while(timeout, |st| {
            st.jobs.get(&id).is_some_and(|job| !job.state.is_terminal())
        });
        st.jobs.get(&id).map(|job| job.state.clone())
    }

    /// Begins a drain: no new submissions are accepted, and running jobs
    /// park at their next supervision boundary (checkpoint already
    /// flushed). Idempotent.
    pub fn drain(&self) {
        self.shared.lock().draining = true;
        self.shared.cv.notify_all();
    }

    /// Drains, waits for in-flight work to park (bounded by `timeout`),
    /// stops the workers, and joins them (the drop does that). Queued jobs
    /// stay checkpointed in the state directory for a future daemon to
    /// resume.
    pub fn shutdown(self, timeout: Duration) {
        self.drain();
        drop(self.shared.wait_while(timeout, |st| st.inflight > 0));
    }
}

impl Drop for Supervisor {
    fn drop(&mut self) {
        {
            let mut st = self.shared.lock();
            st.draining = true;
            st.stopping = true;
        }
        self.shared.cv.notify_all();
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

/// What a single attempt produced (besides a typed error).
enum AttemptOutcome {
    Done(JobResult),
    /// The daemon is draining; the job parked at a checkpoint boundary.
    Parked,
}

fn worker_loop(shared: &Arc<Shared>) {
    loop {
        let Some((id, spec, attempt, first_started, deadline_ms)) = next_job(shared) else {
            return; // stopping
        };
        let outcome = std::panic::catch_unwind(AssertUnwindSafe(|| {
            run_attempt(shared, id, &spec, first_started, deadline_ms)
        }))
        .unwrap_or_else(|payload| Err(JobError::Panicked(panic_message(&*payload))));
        settle(shared, id, attempt, spec.priority(), outcome);
    }
}

/// Blocks until a job is runnable (or the pool is stopping) and claims it.
#[allow(clippy::type_complexity)]
fn next_job(shared: &Arc<Shared>) -> Option<(u64, JobSpec, usize, Instant, Option<u64>)> {
    let mut st = shared.lock();
    loop {
        if st.stopping {
            return None;
        }
        let now = Instant::now();
        let can_run = !st.draining && st.inflight < shared.cfg.max_inflight;
        if can_run && st.queue.has_ready(now) {
            break;
        }
        // Sleep until woken — or until the earliest backoff expires, when
        // the only queued work is backing off.
        let wake_in = if can_run {
            st.queue.next_ready_at().map(|t| {
                t.saturating_duration_since(now)
                    .max(Duration::from_millis(1))
            })
        } else {
            None
        };
        st = match wake_in {
            Some(d) => {
                shared
                    .cv
                    .wait_timeout(st, d)
                    .unwrap_or_else(PoisonError::into_inner)
                    .0
            }
            None => shared.cv.wait(st).unwrap_or_else(PoisonError::into_inner),
        };
    }
    let id = st
        .queue
        .pop_ready(Instant::now())
        .expect("has_ready guaranteed a runnable entry");
    QUEUE_DEPTH.record(st.queue.depth() as f64);
    st.inflight += 1;
    let job = st
        .jobs
        .get_mut(&id)
        .expect("every queued id has a job record");
    job.attempts += 1;
    let attempt = job.attempts;
    job.state = JobState::Running { attempt };
    let first_started = *job.first_started.get_or_insert_with(Instant::now);
    let deadline_ms = job.spec.deadline_ms.or(shared.cfg.default_deadline_ms);
    let spec = job.spec.clone();
    drop(st);
    shared.cv.notify_all();
    Some((id, spec, attempt, first_started, deadline_ms))
}

/// Applies an attempt's outcome to the job table and re-queues retries.
fn settle(
    shared: &Arc<Shared>,
    id: u64,
    attempt: usize,
    priority: Priority,
    outcome: Result<AttemptOutcome, JobError>,
) {
    let mut st = shared.lock();
    st.inflight -= 1;
    let retry_max = shared.cfg.retry_max;
    let backoff = |err: &JobError| -> Option<u64> {
        (err.is_transient() && attempt <= retry_max)
            .then(|| shared.cfg.backoff_ms(shared.backoff_seed(), id, attempt))
    };
    if let Some(job) = st.jobs.get_mut(&id) {
        match outcome {
            Ok(AttemptOutcome::Done(result)) => {
                job.state = JobState::Completed;
                job.result = Some(result);
                st.stats.completed += 1;
            }
            Ok(AttemptOutcome::Parked) => {
                job.state = JobState::Queued;
                st.queue.push_retry(id, priority.rank(), None);
            }
            Err(JobError::Cancelled) => {
                job.state = JobState::Cancelled;
                st.stats.cancelled += 1;
            }
            Err(err) => {
                if let Some(delay_ms) = backoff(&err) {
                    job.state = JobState::Backoff {
                        attempt,
                        retry_in_ms: delay_ms,
                    };
                    st.stats.retries += 1;
                    RETRIES.add(1);
                    st.queue.push_retry(
                        id,
                        priority.rank(),
                        Some(Instant::now() + Duration::from_millis(delay_ms)),
                    );
                } else {
                    let deadline = matches!(err, JobError::DeadlineExceeded { .. });
                    job.state = JobState::Failed {
                        kind: err.kind().to_owned(),
                        error: err.to_string(),
                    };
                    st.stats.failed += 1;
                    if deadline {
                        st.stats.deadline_evictions += 1;
                        DEADLINE_EVICTIONS.add(1);
                    }
                }
            }
        }
        st.stats.peak_queue_depth = st.stats.peak_queue_depth.max(st.queue.depth());
    }
    drop(st);
    shared.cv.notify_all();
}

/// A supervision boundary: chaos faults fire (given the episode count in
/// `chaos_at`), then cancellation, drain and the deadline are checked.
/// Breaks with the attempt's outcome when the job must stop here.
fn boundary(
    shared: &Shared,
    id: u64,
    chaos_at: Option<usize>,
    first_started: Instant,
    deadline_ms: Option<u64>,
) -> ControlFlow<Result<AttemptOutcome, JobError>> {
    if let (Some(chaos), Some(done)) = (&shared.chaos, chaos_at) {
        chaos.on_boundary(id, done);
    }
    {
        let st = shared.lock();
        if st.jobs.get(&id).is_some_and(|j| j.cancel_requested) {
            return ControlFlow::Break(Err(JobError::Cancelled));
        }
        if st.draining || st.stopping {
            return ControlFlow::Break(Ok(AttemptOutcome::Parked));
        }
    }
    if let Some(deadline_ms) = deadline_ms {
        let elapsed_ms = first_started.elapsed().as_millis() as u64;
        if elapsed_ms > deadline_ms {
            return ControlFlow::Break(Err(JobError::DeadlineExceeded {
                elapsed_ms,
                deadline_ms,
            }));
        }
    }
    ControlFlow::Continue(())
}

/// Runs one attempt of a job end to end. Panics inside are caught by the
/// caller's crash barrier.
fn run_attempt(
    shared: &Shared,
    id: u64,
    spec: &JobSpec,
    first_started: Instant,
    deadline_ms: Option<u64>,
) -> Result<AttemptOutcome, JobError> {
    let seed = spec.seed();
    let kind = DatasetKind::from_name(&spec.dataset)
        .ok_or_else(|| JobError::Invalid(format!("unknown dataset '{}'", spec.dataset)))?;
    let mut env_cfg = EnvConfig::paper_small(kind, spec.budget);
    env_cfg.fleet.nodes = spec.nodes;
    let mut env =
        EdgeLearningEnv::try_new(env_cfg, seed).map_err(|e| JobError::Invalid(e.to_string()))?;
    let chiron_cfg = match spec.profile.as_deref() {
        Some("fast") => ChironConfig::fast(),
        _ => ChironConfig::paper(),
    };
    let mut mechanism = Chiron::new(&env, chiron_cfg, seed);

    let rewards = match spec.kind {
        JobKind::Eval => match boundary(shared, id, Some(0), first_started, deadline_ms) {
            ControlFlow::Continue(()) => Vec::new(),
            ControlFlow::Break(outcome) => return outcome,
        },
        JobKind::Train => {
            let episodes = spec
                .episodes
                .ok_or_else(|| JobError::Invalid("train jobs need episodes".into()))?;
            let path = shared.cfg.state_dir.join(format!("job-{id}.json"));
            // A previous chaos fault may have left a blockage (a directory)
            // at the atomic-write temp path; clear it so this attempt can
            // checkpoint again.
            let tmp = path.with_extension("json.tmp");
            if tmp.is_dir() {
                let _ = std::fs::remove_dir_all(&tmp);
            }
            let every = shared.cfg.checkpoint_every;
            let options = RecoveryOptions::try_new(&path, every).map_err(JobError::Resume)?;
            let mut starting = true;
            let hook = |done: usize| {
                // Faults fire only after a save lands, never before the
                // attempt trains; only a resume starts past episode 0.
                let chaos_at = if std::mem::take(&mut starting) {
                    if done > 0 {
                        RESUMED.add(1);
                        shared.lock().stats.resumed += 1;
                    }
                    None
                } else {
                    Some(done)
                };
                boundary(shared, id, chaos_at, first_started, deadline_ms)?;
                let next_save = (done + every).min(episodes);
                if done < episodes
                    && shared
                        .chaos
                        .as_ref()
                        .is_some_and(|c| c.sabotage_checkpoint(id, next_save))
                {
                    // Block the atomic write's temp path: the next episodes
                    // train, their save fails typed, and the retry replays
                    // them from the previous checkpoint.
                    let _ = std::fs::create_dir_all(&tmp);
                }
                ControlFlow::Continue(())
            };
            let run = mechanism
                .train_recoverable_with(&mut env, episodes, &options, &mut EventLog::new(), hook)
                .map_err(JobError::Resume)?;
            match run {
                ControlFlow::Continue(rewards) => rewards,
                ControlFlow::Break(outcome) => return outcome,
            }
        }
    };
    let (summary, _records) = mechanism.run_episode(&mut env);
    if spec.kind == JobKind::Train {
        let path = shared.cfg.state_dir.join(format!("job-{id}.json"));
        let _ = RunCheckpoint::remove(&path);
    }
    Ok(AttemptOutcome::Done(JobResult {
        rewards,
        final_accuracy: summary.final_accuracy,
        rounds: summary.rounds,
        spent: summary.spent,
    }))
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    payload
        .downcast_ref::<&str>()
        .map(|s| (*s).to_owned())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "opaque panic payload".to_owned())
}

/// A process-unique suffix for state directories in tests and defaults.
#[must_use]
pub fn unique_state_dir(prefix: &str) -> std::path::PathBuf {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!("{prefix}-{}-{n}", std::process::id()))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn test_cfg(name: &str) -> ServeConfig {
        ServeConfig {
            workers: 2,
            max_inflight: 2,
            queue_cap: 8,
            retry_max: 2,
            backoff_base_ms: 10,
            backoff_cap_ms: 50,
            checkpoint_every: 2,
            state_dir: unique_state_dir(name),
            ..ServeConfig::default()
        }
    }

    fn tiny_eval() -> JobSpec {
        JobSpec::eval("tiny", 3, 20.0, 7)
    }

    #[test]
    fn eval_job_completes_with_result() {
        let sup = Supervisor::start(test_cfg("sup-eval")).expect("start");
        let id = sup.submit(tiny_eval()).expect("submit");
        let state = sup.wait(id, Duration::from_secs(60)).expect("known job");
        assert_eq!(state, JobState::Completed);
        let view = sup.status(id).expect("view");
        let result = view.result.expect("completed jobs carry a result");
        assert!(result.final_accuracy > 0.0);
        assert!(result.rewards.is_empty(), "eval jobs train no episodes");
        let stats = sup.stats();
        assert_eq!(stats.admitted, 1);
        assert_eq!(stats.completed, 1);
        sup.shutdown(Duration::from_secs(5));
    }

    #[test]
    fn invalid_spec_is_rejected_at_admission() {
        let sup = Supervisor::start(test_cfg("sup-invalid")).expect("start");
        let mut spec = tiny_eval();
        spec.nodes = 0;
        match sup.submit(spec) {
            Err(ServeError::InvalidSpec(_)) => {}
            other => panic!("expected InvalidSpec, got {other:?}"),
        }
        sup.shutdown(Duration::from_secs(5));
    }

    #[test]
    fn cancel_of_queued_job_is_immediate() {
        let cfg = ServeConfig {
            workers: 1,
            max_inflight: 1,
            ..test_cfg("sup-cancel")
        };
        let sup = Supervisor::start(cfg).expect("start");
        // Occupy the single worker, then cancel a queued job behind it.
        let running = sup
            .submit(JobSpec::train_fast("tiny", 3, 20.0, 4, 7))
            .expect("submit");
        let queued = sup.submit(tiny_eval()).expect("submit");
        let state = sup.cancel(queued).expect("cancel");
        assert_eq!(state, JobState::Cancelled);
        match sup.cancel(queued) {
            Err(ServeError::AlreadyTerminal { .. }) => {}
            other => panic!("expected AlreadyTerminal, got {other:?}"),
        }
        assert!(matches!(sup.cancel(999), Err(ServeError::UnknownJob(999))));
        let state = sup.wait(running, Duration::from_secs(120)).expect("known");
        assert_eq!(state, JobState::Completed);
        sup.shutdown(Duration::from_secs(5));
    }
}
