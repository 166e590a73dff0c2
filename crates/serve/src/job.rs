//! Job specifications, lifecycle states, and the typed errors of the serve
//! layer.
//!
//! A job travels `Queued → Running → {Completed, Failed, Cancelled}`, with
//! a `Running → Backoff → Queued` loop for transient failures (panics,
//! checkpoint I/O errors) and a drain detour `Running → Queued` when the
//! daemon stops. Every terminal outcome is typed: HTTP surfaces a
//! [`ServeError`], the supervisor records a [`JobError`] — strings appear
//! only at the display boundary.

use chiron::ResumeError;
use chiron_data::DatasetKind;
use serde::{Deserialize, Serialize};

/// What a submitted job runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum JobKind {
    /// Train a Chiron mechanism for `episodes` episodes (checkpointed,
    /// crash-resumable), then evaluate it once.
    Train,
    /// Run one deterministic evaluation episode of an untrained policy.
    Eval,
}

/// Scheduling priority; FIFO order within a class.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Priority {
    /// Served before everything else.
    High,
    /// The default class.
    Normal,
    /// Served only when nothing else is ready.
    Low,
}

impl Priority {
    /// Scheduling rank; lower runs first.
    #[must_use]
    pub fn rank(self) -> u8 {
        match self {
            Priority::High => 0,
            Priority::Normal => 1,
            Priority::Low => 2,
        }
    }
}

/// A submitted job: the experiment to run plus scheduling knobs.
///
/// `kind`, `dataset`, `nodes`, and `budget` are required; everything else
/// defaults (`episodes` is required for `Train` jobs). The JSON accepted
/// by `POST /jobs` is exactly this struct.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct JobSpec {
    /// Train or Eval.
    pub kind: JobKind,
    /// Dataset name: `mnist` | `fashion` | `cifar` | `tiny`.
    pub dataset: String,
    /// Fleet size.
    pub nodes: usize,
    /// Total budget η.
    pub budget: f64,
    /// Training episodes (required for `Train`, ignored for `Eval`).
    pub episodes: Option<usize>,
    /// Master seed (default 42).
    pub seed: Option<u64>,
    /// Scheduling priority (default `Normal`).
    pub priority: Option<Priority>,
    /// Wall-clock deadline for the whole job, enforced at supervision
    /// boundaries; `None` uses the daemon default (possibly none).
    pub deadline_ms: Option<u64>,
    /// Hyperparameter profile: `paper` (default) or `fast`.
    pub profile: Option<String>,
}

impl JobSpec {
    /// A minimal evaluation job, handy for smoke tests.
    #[must_use]
    pub fn eval(dataset: &str, nodes: usize, budget: f64, seed: u64) -> Self {
        Self {
            kind: JobKind::Eval,
            dataset: dataset.to_owned(),
            nodes,
            budget,
            episodes: None,
            seed: Some(seed),
            priority: None,
            deadline_ms: None,
            profile: None,
        }
    }

    /// A training job with the `fast` profile (test-sized networks).
    #[must_use]
    pub fn train_fast(
        dataset: &str,
        nodes: usize,
        budget: f64,
        episodes: usize,
        seed: u64,
    ) -> Self {
        Self {
            kind: JobKind::Train,
            dataset: dataset.to_owned(),
            nodes,
            budget,
            episodes: Some(episodes),
            seed: Some(seed),
            priority: None,
            deadline_ms: None,
            profile: Some("fast".into()),
        }
    }

    /// The effective priority.
    #[must_use]
    pub fn priority(&self) -> Priority {
        self.priority.unwrap_or(Priority::Normal)
    }

    /// The effective seed.
    #[must_use]
    pub fn seed(&self) -> u64 {
        self.seed.unwrap_or(42)
    }

    /// Validates the spec at admission time.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::InvalidSpec`] naming the first violated
    /// constraint.
    pub fn validate(&self) -> Result<(), ServeError> {
        let invalid = |msg: String| Err(ServeError::InvalidSpec(msg));
        if DatasetKind::from_name(&self.dataset).is_none() {
            return invalid(format!(
                "unknown dataset '{}' (expected mnist | fashion | cifar | tiny)",
                self.dataset
            ));
        }
        if self.nodes == 0 {
            return invalid("nodes must be at least 1".into());
        }
        if !(self.budget > 0.0 && self.budget.is_finite()) {
            return invalid("budget must be positive and finite".into());
        }
        if self.kind == JobKind::Train && self.episodes.unwrap_or(0) == 0 {
            return invalid("train jobs need episodes >= 1".into());
        }
        if let Some(profile) = &self.profile {
            if profile != "paper" && profile != "fast" {
                return invalid(format!(
                    "unknown profile '{profile}' (expected paper | fast)"
                ));
            }
        }
        Ok(())
    }
}

/// Where a job is in its lifecycle. Serialized verbatim in `GET /jobs/:id`
/// responses.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum JobState {
    /// Waiting in the admission queue (or re-queued by a drain).
    Queued,
    /// A worker is executing the job.
    Running {
        /// 1-based attempt number.
        attempt: usize,
    },
    /// A transient failure occurred; the job re-enters the queue after a
    /// backoff delay.
    Backoff {
        /// The attempt that failed.
        attempt: usize,
        /// Delay before the job becomes runnable again.
        retry_in_ms: u64,
    },
    /// Finished successfully; the result is attached to the record.
    Completed,
    /// Failed permanently (typed error rendered for display).
    Failed {
        /// Stable error-kind slug (`panicked`, `deadline`, `resume`,
        /// `invalid`).
        kind: String,
        /// Human-readable failure description.
        error: String,
    },
    /// Cancelled by `DELETE /jobs/:id`.
    Cancelled,
}

impl JobState {
    /// Whether the job can no longer change state.
    #[must_use]
    pub fn is_terminal(&self) -> bool {
        matches!(
            self,
            JobState::Completed | JobState::Failed { .. } | JobState::Cancelled
        )
    }
}

/// What a finished job produced.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct JobResult {
    /// Per-episode training rewards (empty for `Eval` jobs).
    pub rewards: Vec<f64>,
    /// Final evaluation accuracy.
    pub final_accuracy: f64,
    /// Evaluation rounds completed.
    pub rounds: usize,
    /// Budget spent in the evaluation episode.
    pub spent: f64,
}

/// Why a single job attempt (or the whole job) failed.
#[derive(Debug)]
pub enum JobError {
    /// The spec cannot produce a runnable experiment (permanent).
    Invalid(String),
    /// The recovery layer failed — checkpoint I/O or restore (transient:
    /// the next attempt resumes from the last good generation).
    Resume(ResumeError),
    /// The job panicked; the panic was caught at the job boundary
    /// (transient: the next attempt resumes from the last checkpoint).
    Panicked(String),
    /// The wall-clock deadline passed at a supervision boundary
    /// (permanent).
    DeadlineExceeded {
        /// Elapsed job time when the deadline was observed.
        elapsed_ms: u64,
        /// The configured deadline.
        deadline_ms: u64,
    },
    /// The job was cancelled mid-run (terminal, not a failure).
    Cancelled,
}

impl JobError {
    /// Whether a retry could succeed.
    #[must_use]
    pub fn is_transient(&self) -> bool {
        matches!(self, JobError::Resume(_) | JobError::Panicked(_))
    }

    /// Stable slug for the failure kind.
    #[must_use]
    pub fn kind(&self) -> &'static str {
        match self {
            JobError::Invalid(_) => "invalid",
            JobError::Resume(_) => "resume",
            JobError::Panicked(_) => "panicked",
            JobError::DeadlineExceeded { .. } => "deadline",
            JobError::Cancelled => "cancelled",
        }
    }
}

impl std::fmt::Display for JobError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JobError::Invalid(msg) => write!(f, "invalid job: {msg}"),
            JobError::Resume(e) => write!(f, "recovery failed: {e}"),
            JobError::Panicked(msg) => write!(f, "job panicked: {msg}"),
            JobError::DeadlineExceeded {
                elapsed_ms,
                deadline_ms,
            } => write!(
                f,
                "deadline exceeded: {elapsed_ms} ms elapsed > {deadline_ms} ms allowed"
            ),
            JobError::Cancelled => f.write_str("job cancelled"),
        }
    }
}

impl std::error::Error for JobError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            JobError::Resume(e) => Some(e),
            _ => None,
        }
    }
}

/// Typed failures of the serve surface (admission, lookup, lifecycle).
#[derive(Debug)]
pub enum ServeError {
    /// Admission control shed the submission: the queue is at its
    /// configured bound. Maps to HTTP 429.
    Overloaded {
        /// Jobs currently queued.
        queued: usize,
        /// The configured queue bound.
        cap: usize,
    },
    /// The daemon is draining and accepts no new work. Maps to HTTP 503.
    Draining,
    /// No job with that id exists. Maps to HTTP 404.
    UnknownJob(u64),
    /// The job is already in a terminal state. Maps to HTTP 409.
    AlreadyTerminal {
        /// The job id.
        id: u64,
        /// The terminal state it is in.
        state: JobState,
    },
    /// The submitted spec was rejected. Maps to HTTP 400.
    InvalidSpec(String),
    /// An underlying I/O operation (bind, state dir) failed.
    Io(std::io::Error),
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Overloaded { queued, cap } => {
                write!(f, "overloaded: {queued} jobs queued (cap {cap})")
            }
            ServeError::Draining => f.write_str("daemon is draining"),
            ServeError::UnknownJob(id) => write!(f, "unknown job {id}"),
            ServeError::AlreadyTerminal { id, state } => {
                write!(f, "job {id} is already terminal ({state:?})")
            }
            ServeError::InvalidSpec(msg) => write!(f, "invalid job spec: {msg}"),
            ServeError::Io(e) => write!(f, "serve I/O error: {e}"),
        }
    }
}

impl std::error::Error for ServeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServeError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for ServeError {
    fn from(e: std::io::Error) -> Self {
        ServeError::Io(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spec_validation_names_the_violation() {
        let mut spec = JobSpec::eval("mnist", 3, 40.0, 1);
        spec.validate().expect("valid");
        spec.dataset = "imagenet".into();
        assert!(spec.validate().unwrap_err().to_string().contains("dataset"));

        let mut spec = JobSpec::train_fast("tiny", 3, 40.0, 2, 1);
        spec.validate().expect("valid");
        spec.episodes = None;
        assert!(spec
            .validate()
            .unwrap_err()
            .to_string()
            .contains("episodes"));
        spec.episodes = Some(2);
        spec.budget = f64::NAN;
        assert!(spec.validate().unwrap_err().to_string().contains("budget"));
    }

    #[test]
    fn spec_round_trips_through_json() {
        let spec = JobSpec::train_fast("mnist", 5, 100.0, 10, 7);
        let json = serde_json::to_string(&spec).expect("serialize");
        let back: JobSpec = serde_json::from_str(&json).expect("parse");
        assert_eq!(back, spec);
        // Optional fields may be omitted entirely on the wire.
        let minimal: JobSpec = serde_json::from_str(
            "{\"kind\":\"Eval\",\"dataset\":\"tiny\",\"nodes\":3,\"budget\":30.0}",
        )
        .expect("minimal spec parses");
        assert_eq!(minimal.seed(), 42);
        assert_eq!(minimal.priority(), Priority::Normal);
        minimal.validate().expect("valid");
    }

    #[test]
    fn priorities_order_and_states_classify() {
        assert!(Priority::High.rank() < Priority::Normal.rank());
        assert!(Priority::Normal.rank() < Priority::Low.rank());
        assert!(!JobState::Queued.is_terminal());
        assert!(!JobState::Running { attempt: 1 }.is_terminal());
        assert!(JobState::Completed.is_terminal());
        assert!(JobState::Cancelled.is_terminal());
    }

    #[test]
    fn job_errors_classify_transience() {
        assert!(JobError::Panicked("boom".into()).is_transient());
        assert!(!JobError::Invalid("bad".into()).is_transient());
        assert!(!JobError::DeadlineExceeded {
            elapsed_ms: 10,
            deadline_ms: 5
        }
        .is_transient());
        assert!(!JobError::Cancelled.is_transient());
        assert_eq!(JobError::Cancelled.kind(), "cancelled");
    }
}
