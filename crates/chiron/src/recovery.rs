//! Crash-safe training recovery: full-run checkpoints and resumable
//! training.
//!
//! A [`RunCheckpoint`] freezes *everything* a training run owns — the
//! environment (budget ledger, channel RNG, fault-process configuration,
//! oracle state), both PPO agents (parameters, Adam moments, exploration
//! RNGs), the exterior history window, the rollout buffers, and the reward
//! curve so far. Restoring it and continuing produces the bitwise-identical
//! trajectory the uninterrupted run would have produced: every random draw
//! travels inside the checkpoint, so there is nothing left to drift.
//!
//! Checkpoints are written atomically (temp file + rename, see
//! [`chiron_nn::write_atomic`]) with a versioned header, an
//! architecture/environment fingerprint, and an FNV-1a integrity trailer,
//! so a crash mid-write leaves the previous checkpoint intact and a
//! checkpoint can never be restored into a mismatched run. Rotating saves
//! ([`RunCheckpoint::save_rotating`]) keep the previous generation in a
//! `.prev` sibling, and [`RunCheckpoint::load_with_fallback`] falls back to
//! it when the latest file is truncated or bit-flipped. All failure modes
//! are typed ([`ResumeError`]); a corrupted or truncated file is rejected,
//! never a panic.

use crate::Chiron;
use crate::ExteriorState;
use chiron_drl::{AgentFullState, AgentStateError, RolloutBuffer};
use chiron_fedsim::metrics::{EventLog, ResilienceEvent};
use chiron_fedsim::{EdgeLearningEnv, EnvState, EnvStateError};
use chiron_nn::write_atomic;
use serde::{Deserialize, Serialize};
use std::convert::Infallible;
use std::ops::ControlFlow;
use std::path::{Path, PathBuf};

/// Run-checkpoint format version; bump on layout changes.
pub const RUN_CHECKPOINT_VERSION: u32 = 1;

/// A complete, serializable freeze of a Chiron training run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunCheckpoint {
    /// Format version ([`RUN_CHECKPOINT_VERSION`]).
    pub version: u32,
    /// Architecture + environment fingerprint; restore refuses a mismatch.
    pub fingerprint: String,
    /// Per-episode rewards of the episodes completed so far.
    pub completed_rewards: Vec<f64>,
    /// [`Chiron::episodes_trained`] at capture time.
    pub episodes_trained: usize,
    /// Full environment state (ledger, RNG, faults, oracle).
    pub env: EnvState,
    /// Exterior agent: parameters, optimizers, RNG.
    pub exterior: AgentFullState,
    /// Inner agent: parameters, optimizers, RNG.
    pub inner: AgentFullState,
    /// The exterior agent's sliding history window.
    pub exterior_state: ExteriorState,
    /// Exterior rollout buffer (empty at episode boundaries).
    pub buf_exterior: RolloutBuffer,
    /// Inner rollout buffer (empty at episode boundaries).
    pub buf_inner: RolloutBuffer,
}

/// Why a [`RunCheckpoint`] failed to load or restore.
#[derive(Debug)]
pub enum ResumeError {
    /// Reading or writing the checkpoint file failed.
    Io(std::io::Error),
    /// The file is not a parseable checkpoint (truncated, corrupted, or
    /// not JSON).
    Malformed(String),
    /// The integrity trailer does not match the payload: the file was
    /// bit-flipped or truncated after it was written.
    Corrupted {
        /// Digest recorded in the trailer.
        expected: String,
        /// Digest of the payload as read.
        found: String,
    },
    /// The recovery options themselves are invalid (for example a zero
    /// checkpoint interval).
    InvalidOptions(String),
    /// The checkpoint was written by an incompatible format version.
    VersionMismatch {
        /// Version found in the file.
        found: u32,
    },
    /// The checkpoint belongs to a differently-shaped run (agent
    /// architectures, fleet size, or budget differ).
    FingerprintMismatch {
        /// Fingerprint in the checkpoint.
        expected: String,
        /// Fingerprint of the target mechanism + environment.
        found: String,
    },
    /// The environment state could not be restored.
    Env(EnvStateError),
    /// An agent's state could not be restored.
    Agent(AgentStateError),
}

impl std::fmt::Display for ResumeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ResumeError::Io(e) => write!(f, "checkpoint I/O failed: {e}"),
            ResumeError::Malformed(e) => write!(f, "malformed run checkpoint: {e}"),
            ResumeError::Corrupted { expected, found } => write!(
                f,
                "run checkpoint failed its integrity check \
                 (trailer {expected}, payload {found}): file is corrupted"
            ),
            ResumeError::InvalidOptions(msg) => write!(f, "invalid recovery options: {msg}"),
            ResumeError::VersionMismatch { found } => write!(
                f,
                "run checkpoint version {found} != supported {RUN_CHECKPOINT_VERSION}"
            ),
            ResumeError::FingerprintMismatch { expected, found } => write!(
                f,
                "run fingerprint mismatch: checkpoint '{expected}' vs target '{found}'"
            ),
            ResumeError::Env(e) => write!(f, "environment restore failed: {e}"),
            ResumeError::Agent(e) => write!(f, "agent restore failed: {e}"),
        }
    }
}

impl std::error::Error for ResumeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ResumeError::Io(e) => Some(e),
            ResumeError::Env(e) => Some(e),
            ResumeError::Agent(e) => Some(e),
            ResumeError::Malformed(_)
            | ResumeError::Corrupted { .. }
            | ResumeError::InvalidOptions(_)
            | ResumeError::VersionMismatch { .. }
            | ResumeError::FingerprintMismatch { .. } => None,
        }
    }
}

/// Where and how often [`Chiron::train_recoverable`] checkpoints.
#[derive(Debug, Clone)]
pub struct RecoveryOptions {
    /// Checkpoint file path. If the file exists when training starts, the
    /// run resumes from it instead of starting fresh.
    pub checkpoint_path: PathBuf,
    /// Write a checkpoint every this many completed episodes.
    pub checkpoint_every: usize,
}

impl RecoveryOptions {
    /// Checkpoints to `path` every `every` episodes.
    ///
    /// # Panics
    ///
    /// Panics if `every` is zero.
    pub fn new(path: impl Into<PathBuf>, every: usize) -> Self {
        assert!(every > 0, "checkpoint interval must be positive");
        Self {
            checkpoint_path: path.into(),
            checkpoint_every: every,
        }
    }

    /// Non-panicking [`RecoveryOptions::new`] for user-supplied intervals.
    ///
    /// # Errors
    ///
    /// Returns [`ResumeError::InvalidOptions`] if `every` is zero.
    pub fn try_new(path: impl Into<PathBuf>, every: usize) -> Result<Self, ResumeError> {
        if every == 0 {
            return Err(ResumeError::InvalidOptions(
                "checkpoint interval must be positive".into(),
            ));
        }
        Ok(Self {
            checkpoint_path: path.into(),
            checkpoint_every: every,
        })
    }
}

/// FNV-1a 64-bit digest of `bytes` — the checkpoint integrity hash. Not
/// cryptographic; it exists to catch truncation and bit flips, and a
/// single-byte change always changes the digest (each step multiplies by
/// an odd prime, which is invertible mod 2^64).
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// Integrity trailer marker; the on-disk format is
/// `<json>\n#fnv1a=<16 hex digits>\n`. Files without a trailer (written
/// before the trailer existed) still load — JSON parsing and the
/// fingerprint check remain the backstop for those.
const INTEGRITY_MARKER: &str = "\n#fnv1a=";

/// Splits `contents` into the JSON payload and the recorded digest, if a
/// trailer is present.
fn split_integrity_trailer(contents: &str) -> (&str, Option<&str>) {
    match contents.rfind(INTEGRITY_MARKER) {
        Some(pos) => {
            let digest = contents[pos + INTEGRITY_MARKER.len()..].trim_end();
            (&contents[..pos], Some(digest))
        }
        None => (contents, None),
    }
}

/// The `.prev` sibling holding the previous checkpoint generation.
fn previous_path(path: &Path) -> PathBuf {
    let mut os = path.as_os_str().to_owned();
    os.push(".prev");
    PathBuf::from(os)
}

/// A cheap deterministic digest of the fleet's node parameters. The fleet
/// is rebuilt from the environment config + seed, not stored in the
/// checkpoint, so restoring into an environment built from a different
/// seed would silently change the dynamics — the digest catches that.
fn fleet_digest(env: &EdgeLearningEnv) -> String {
    let mut acc = 0u64;
    let fleet = env.fleet();
    for i in 0..fleet.len() {
        // Read straight off the column store — digesting a 1M-node fleet
        // must not materialize 1M `EdgeNode`s. Field order matches the
        // historical per-node digest, so checkpoints stay compatible.
        let p = fleet.params(i);
        for v in [
            p.freq_max,
            p.freq_min,
            p.upload_time,
            p.data_bits,
            p.cycles_per_bit,
            p.capacitance,
        ] {
            acc = acc.rotate_left(7) ^ v.to_bits();
        }
    }
    format!("{acc:016x}")
}

/// The fingerprint restore checks: both agents' network architectures plus
/// the environment's fleet (size and parameter digest) and budget.
fn fingerprint(
    exterior: &AgentFullState,
    inner: &AgentFullState,
    env_state: &EnvState,
    env: &EdgeLearningEnv,
) -> String {
    format!(
        "{}|{}|{}|{}|nodes:{}|fleet:{}|budget:{}",
        exterior.snapshot.actor.architecture,
        exterior.snapshot.critic.architecture,
        inner.snapshot.actor.architecture,
        inner.snapshot.critic.architecture,
        env_state.num_nodes,
        fleet_digest(env),
        env_state.ledger.total(),
    )
}

impl RunCheckpoint {
    /// Freezes the current run state.
    ///
    /// # Errors
    ///
    /// Returns [`EnvStateError::OracleUnsupported`] if the environment's
    /// oracle cannot capture state.
    pub fn capture(
        mechanism: &mut Chiron,
        env: &EdgeLearningEnv,
        completed_rewards: &[f64],
        buf_exterior: &RolloutBuffer,
        buf_inner: &RolloutBuffer,
    ) -> Result<Self, EnvStateError> {
        let env_state = env.capture_state()?;
        let exterior = mechanism.exterior.full_state("chiron-exterior");
        let inner = mechanism.inner.full_state("chiron-inner");
        let fp = fingerprint(&exterior, &inner, &env_state, env);
        Ok(Self {
            version: RUN_CHECKPOINT_VERSION,
            fingerprint: fp,
            completed_rewards: completed_rewards.to_vec(),
            episodes_trained: mechanism.episodes_trained,
            env: env_state,
            exterior,
            inner,
            exterior_state: mechanism.state.clone(),
            buf_exterior: buf_exterior.clone(),
            buf_inner: buf_inner.clone(),
        })
    }

    /// Serializes to JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string(self).expect("run checkpoint serialization is infallible")
    }

    /// Parses and validates a JSON run checkpoint.
    ///
    /// # Errors
    ///
    /// Returns [`ResumeError::Malformed`] or `VersionMismatch`.
    pub fn from_json(json: &str) -> Result<Self, ResumeError> {
        let ckpt: RunCheckpoint =
            serde_json::from_str(json).map_err(|e| ResumeError::Malformed(e.to_string()))?;
        if ckpt.version != RUN_CHECKPOINT_VERSION {
            return Err(ResumeError::VersionMismatch {
                found: ckpt.version,
            });
        }
        Ok(ckpt)
    }

    /// Writes the checkpoint atomically (temp file + rename), appending
    /// the FNV-1a integrity trailer.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors; on failure the previous checkpoint file, if
    /// any, is untouched.
    pub fn save(&self, path: impl AsRef<Path>) -> std::io::Result<()> {
        let json = self.to_json();
        let payload = format!("{json}{INTEGRITY_MARKER}{:016x}\n", fnv1a(json.as_bytes()));
        write_atomic(path, payload.as_bytes())
    }

    /// [`RunCheckpoint::save`], first rotating an existing file at `path`
    /// to its `.prev` sibling so the previous generation survives a save
    /// that later turns out corrupted on disk.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from the rotation or the write.
    pub fn save_rotating(&self, path: impl AsRef<Path>) -> std::io::Result<()> {
        let path = path.as_ref();
        if path.exists() {
            std::fs::rename(path, previous_path(path))?;
        }
        self.save(path)
    }

    /// Loads and validates a checkpoint file, verifying the integrity
    /// trailer when one is present.
    ///
    /// # Errors
    ///
    /// Returns [`ResumeError::Io`] for file errors, `Corrupted` for a
    /// digest mismatch, and `Malformed` / `VersionMismatch` for invalid
    /// contents.
    pub fn load(path: impl AsRef<Path>) -> Result<Self, ResumeError> {
        let raw = std::fs::read(path).map_err(ResumeError::Io)?;
        let contents = String::from_utf8(raw)
            .map_err(|e| ResumeError::Malformed(format!("checkpoint is not UTF-8: {e}")))?;
        let (json, trailer) = split_integrity_trailer(&contents);
        if let Some(expected) = trailer {
            let found = format!("{:016x}", fnv1a(json.as_bytes()));
            if expected != found {
                return Err(ResumeError::Corrupted {
                    expected: expected.to_owned(),
                    found,
                });
            }
        }
        Self::from_json(json)
    }

    /// [`RunCheckpoint::load`] with fallback: if `path` is unreadable,
    /// corrupted, or malformed, the `.prev` sibling written by
    /// [`RunCheckpoint::save_rotating`] is tried. Returns the checkpoint
    /// and whether the fallback was taken.
    ///
    /// # Errors
    ///
    /// Returns the *primary* file's error when neither generation loads,
    /// so the root cause is what surfaces.
    pub fn load_with_fallback(path: impl AsRef<Path>) -> Result<(Self, bool), ResumeError> {
        let path = path.as_ref();
        match Self::load(path) {
            Ok(ckpt) => Ok((ckpt, false)),
            Err(primary) => match Self::load(previous_path(path)) {
                Ok(ckpt) => Ok((ckpt, true)),
                Err(_) => Err(primary),
            },
        }
    }

    /// Whether `path` or its `.prev` sibling exists — i.e. whether a
    /// resume attempt is worthwhile.
    pub fn any_exists(path: impl AsRef<Path>) -> bool {
        let path = path.as_ref();
        path.exists() || previous_path(path).exists()
    }

    /// Removes the checkpoint file and its `.prev` sibling, ignoring
    /// files that are already gone.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors other than `NotFound`.
    pub fn remove(path: impl AsRef<Path>) -> std::io::Result<()> {
        let path = path.as_ref();
        for p in [path.to_path_buf(), previous_path(path)] {
            match std::fs::remove_file(&p) {
                Ok(()) => {}
                Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
                Err(e) => return Err(e),
            }
        }
        Ok(())
    }

    /// Restores the frozen run into `mechanism` + `env`, returning the
    /// completed rewards and the two rollout buffers.
    ///
    /// The fingerprint is checked before anything is mutated.
    ///
    /// # Errors
    ///
    /// Returns a typed [`ResumeError`] on any mismatch.
    #[allow(clippy::type_complexity)]
    pub fn restore_into(
        &self,
        mechanism: &mut Chiron,
        env: &mut EdgeLearningEnv,
    ) -> Result<(Vec<f64>, RolloutBuffer, RolloutBuffer), ResumeError> {
        let target_env = env.capture_state().map_err(ResumeError::Env)?;
        let target_fp = fingerprint(
            &mechanism.exterior.full_state("chiron-exterior"),
            &mechanism.inner.full_state("chiron-inner"),
            &target_env,
            env,
        );
        if target_fp != self.fingerprint {
            return Err(ResumeError::FingerprintMismatch {
                expected: self.fingerprint.clone(),
                found: target_fp,
            });
        }
        env.restore_state(&self.env).map_err(ResumeError::Env)?;
        mechanism
            .exterior
            .restore_full(&self.exterior)
            .map_err(ResumeError::Agent)?;
        mechanism
            .inner
            .restore_full(&self.inner)
            .map_err(ResumeError::Agent)?;
        mechanism.state = self.exterior_state.clone();
        mechanism.episodes_trained = self.episodes_trained;
        Ok((
            self.completed_rewards.clone(),
            self.buf_exterior.clone(),
            self.buf_inner.clone(),
        ))
    }
}

impl Chiron {
    /// [`Chiron::train_recoverable_with`] without a boundary hook: the run
    /// always completes all `episodes` episodes.
    ///
    /// # Errors
    ///
    /// As [`Chiron::train_recoverable_with`].
    pub fn train_recoverable(
        &mut self,
        env: &mut EdgeLearningEnv,
        episodes: usize,
        options: &RecoveryOptions,
        log: &mut EventLog,
    ) -> Result<Vec<f64>, ResumeError> {
        let ControlFlow::Continue(rewards) =
            self.train_recoverable_with(env, episodes, options, log, |_| {
                ControlFlow::<Infallible>::Continue(())
            })?;
        Ok(rewards)
    }

    /// [`Mechanism::train`](crate::Mechanism::train) with crash safety: the
    /// run checkpoints itself to `options.checkpoint_path` every
    /// `options.checkpoint_every` episodes, and if that file already exists
    /// when training starts, the run resumes from it — skipping the
    /// already-completed episodes and replaying the remainder
    /// bitwise-identically to an uninterrupted run.
    ///
    /// The checkpoint is read at most once, when the call starts; from
    /// then on the run lives in memory and only writes. `boundary` is
    /// called with the completed episode count once at the start (the
    /// resumed count, 0 for a fresh run) and again after every checkpoint
    /// lands. Returning [`ControlFlow::Break`] stops the run there, with
    /// its latest checkpoint on disk, and the break value is returned; a
    /// later call with the same options resumes from that checkpoint.
    ///
    /// Resilience events (environment faults, rolled-back PPO updates, the
    /// resume itself) are appended to `log`.
    ///
    /// Returns the per-episode rewards of *all* `episodes` episodes,
    /// completed-before-resume ones included.
    ///
    /// # Errors
    ///
    /// Returns a typed [`ResumeError`] if an existing checkpoint cannot be
    /// loaded/restored or a new one cannot be written. Training never
    /// starts from a checkpoint it could not fully validate.
    pub fn train_recoverable_with<B>(
        &mut self,
        env: &mut EdgeLearningEnv,
        episodes: usize,
        options: &RecoveryOptions,
        log: &mut EventLog,
        mut boundary: impl FnMut(usize) -> ControlFlow<B>,
    ) -> Result<ControlFlow<B, Vec<f64>>, ResumeError> {
        if options.checkpoint_every == 0 {
            return Err(ResumeError::InvalidOptions(
                "checkpoint interval must be positive".into(),
            ));
        }
        static CHECKPOINTS_SAVED: chiron_telemetry::Counter =
            chiron_telemetry::Counter::new("chiron.checkpoints.saved");
        static RESUMES: chiron_telemetry::Counter =
            chiron_telemetry::Counter::new("chiron.resumes");
        static FALLBACKS: chiron_telemetry::Counter =
            chiron_telemetry::Counter::new("chiron.checkpoint.fallbacks");
        let (mut rewards, mut buf_e, mut buf_i) =
            if RunCheckpoint::any_exists(&options.checkpoint_path) {
                let (ckpt, fell_back) =
                    RunCheckpoint::load_with_fallback(&options.checkpoint_path)?;
                if fell_back {
                    FALLBACKS.add(1);
                }
                let restored = ckpt.restore_into(self, env)?;
                let ev = ResilienceEvent::Resumed {
                    episode: self.episodes_trained,
                };
                ev.emit(0);
                RESUMES.add(1);
                log.push(self.episodes_trained, 0, ev);
                restored
            } else {
                (Vec::new(), RolloutBuffer::new(), RolloutBuffer::new())
            };
        let every = options.checkpoint_every;
        loop {
            if let ControlFlow::Break(stop) = boundary(rewards.len()) {
                return Ok(ControlFlow::Break(stop));
            }
            if rewards.len() >= episodes {
                return Ok(ControlFlow::Continue(rewards));
            }
            // Train to the next checkpoint. One also lands after the final
            // episode, so a later call with a larger episode count extends
            // the run seamlessly.
            let next = ((rewards.len() / every + 1) * every).min(episodes);
            while rewards.len() < next {
                rewards.push(self.train_one_episode(env, &mut buf_e, &mut buf_i, Some(log)));
            }
            let _ckpt_span = chiron_telemetry::span("checkpoint_save");
            let ckpt = RunCheckpoint::capture(self, env, &rewards, &buf_e, &buf_i)
                .map_err(ResumeError::Env)?;
            ckpt.save_rotating(&options.checkpoint_path)
                .map_err(ResumeError::Io)?;
            CHECKPOINTS_SAVED.add(1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ChironConfig, EpisodeRun, Mechanism};
    use chiron_data::DatasetKind;
    use chiron_fedsim::EnvConfig;

    fn env(budget: f64, seed: u64) -> EdgeLearningEnv {
        EdgeLearningEnv::new(
            EnvConfig {
                oracle_noise: 0.0,
                ..EnvConfig::paper_small(DatasetKind::MnistLike, budget)
            },
            seed,
        )
    }

    fn tmp_ckpt(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("chiron_recovery_test");
        std::fs::create_dir_all(&dir).expect("tmp dir");
        let path = dir.join(name);
        // Clear *both* generations: a stale `.prev` sibling from an earlier
        // process would otherwise be picked up by the resume fallback.
        RunCheckpoint::remove(&path).expect("clear stale checkpoints");
        path
    }

    #[test]
    fn recoverable_training_matches_plain_training() {
        let path = tmp_ckpt("match_plain.json");
        let mut log = EventLog::new();
        let mut e1 = env(40.0, 7);
        let mut m1 = Chiron::new(&e1, ChironConfig::fast(), 7);
        let plain = m1.train(&mut e1, 4);

        let mut e2 = env(40.0, 7);
        let mut m2 = Chiron::new(&e2, ChironConfig::fast(), 7);
        let recoverable = m2
            .train_recoverable(&mut e2, 4, &RecoveryOptions::new(&path, 2), &mut log)
            .expect("recoverable run");
        assert_eq!(plain, recoverable, "checkpointing must not change training");
        RunCheckpoint::remove(&path).ok();
    }

    #[test]
    fn kill_and_resume_is_bitwise_identical() {
        let path = tmp_ckpt("kill_resume.json");
        let mut log = EventLog::new();

        // Reference: 6 uninterrupted episodes.
        let mut e_ref = env(40.0, 9);
        let mut m_ref = Chiron::new(&e_ref, ChironConfig::fast(), 9);
        let reference = m_ref.train(&mut e_ref, 6);

        // Crashed run: 3 episodes (a checkpoint lands at episode 3), then
        // every in-memory object is dropped.
        {
            let mut e = env(40.0, 9);
            let mut m = Chiron::new(&e, ChironConfig::fast(), 9);
            m.train_recoverable(&mut e, 3, &RecoveryOptions::new(&path, 3), &mut log)
                .expect("first run");
        }

        // Resume with a fresh mechanism built from a *different* agent seed
        // — every bit of agent state must come from the checkpoint, none
        // from the constructor. (The env seed must match: the fleet is
        // derived from it, and the fingerprint enforces that.)
        let mut e = env(40.0, 9);
        let mut m = Chiron::new(&e, ChironConfig::fast(), 4321);
        let resumed = m
            .train_recoverable(&mut e, 6, &RecoveryOptions::new(&path, 3), &mut log)
            .expect("resumed run");
        assert_eq!(reference, resumed, "resumed tail must be bitwise identical");
        assert_eq!(log.count("resumed"), 1);
        assert_eq!(m.snapshot(), m_ref.snapshot());

        // And the two mechanisms keep agreeing on a fresh evaluation.
        let (s_ref, _) = m_ref.run_episode(&mut e_ref);
        let (s_res, _) = m.run_episode(&mut e);
        assert_eq!(s_ref.rounds, s_res.rounds);
        assert_eq!(
            s_ref.final_accuracy.to_bits(),
            s_res.final_accuracy.to_bits()
        );
        RunCheckpoint::remove(&path).ok();
    }

    #[test]
    fn corrupted_checkpoint_is_rejected_not_panicked() {
        let path = tmp_ckpt("corrupt.json");
        let mut e = env(40.0, 3);
        let mut m = Chiron::new(&e, ChironConfig::fast(), 3);
        let mut log = EventLog::new();

        // Truncated JSON.
        std::fs::write(&path, "{\"version\":1,\"fingerp").expect("write");
        let err = m
            .train_recoverable(&mut e, 2, &RecoveryOptions::new(&path, 1), &mut log)
            .expect_err("truncated file must be rejected");
        assert!(matches!(err, ResumeError::Malformed(_)), "got {err:?}");

        // Not JSON at all.
        std::fs::write(&path, "definitely not json").expect("write");
        let err = RunCheckpoint::load(&path).expect_err("garbage rejected");
        assert!(matches!(err, ResumeError::Malformed(_)));

        RunCheckpoint::remove(&path).ok();
    }

    #[test]
    fn integrity_trailer_catches_bit_flips() {
        let path = tmp_ckpt("trailer.json");
        let e = env(40.0, 6);
        let mut m = Chiron::new(&e, ChironConfig::fast(), 6);
        let buf = RolloutBuffer::new();
        let ckpt = RunCheckpoint::capture(&mut m, &e, &[1.0], &buf, &buf).expect("capture");
        ckpt.save(&path).expect("save");

        // Clean file round-trips.
        let loaded = RunCheckpoint::load(&path).expect("clean load");
        assert_eq!(loaded, ckpt);

        // Flip one byte inside the JSON payload: the digest must catch it
        // even if the result is still valid JSON.
        let mut bytes = std::fs::read(&path).expect("read");
        let mid = bytes.len() / 3;
        bytes[mid] ^= 0x01;
        std::fs::write(&path, &bytes).expect("write");
        let err = RunCheckpoint::load(&path).expect_err("flip rejected");
        assert!(
            matches!(
                err,
                ResumeError::Corrupted { .. } | ResumeError::Malformed(_)
            ),
            "got {err:?}"
        );
        RunCheckpoint::remove(&path).ok();
    }

    #[test]
    fn rotating_save_falls_back_to_previous_generation() {
        let path = tmp_ckpt("rotate.json");
        let e = env(40.0, 8);
        let mut m = Chiron::new(&e, ChironConfig::fast(), 8);
        let buf = RolloutBuffer::new();
        let gen1 = RunCheckpoint::capture(&mut m, &e, &[1.0], &buf, &buf).expect("capture");
        gen1.save_rotating(&path).expect("save gen1");
        let gen2 = RunCheckpoint::capture(&mut m, &e, &[1.0, 2.0], &buf, &buf).expect("capture");
        gen2.save_rotating(&path).expect("save gen2");

        // Both generations intact: primary wins, no fallback.
        let (loaded, fell_back) = RunCheckpoint::load_with_fallback(&path).expect("load");
        assert!(!fell_back);
        assert_eq!(loaded.completed_rewards, vec![1.0, 2.0]);

        // Corrupt the primary: the previous generation is served instead.
        std::fs::write(&path, "{\"version\":1,\"trunc").expect("corrupt");
        let (loaded, fell_back) = RunCheckpoint::load_with_fallback(&path).expect("fallback");
        assert!(fell_back);
        assert_eq!(loaded.completed_rewards, vec![1.0]);

        // Both gone: typed error, and the primary's error is the one
        // reported.
        RunCheckpoint::remove(&path).expect("cleanup");
        assert!(!RunCheckpoint::any_exists(&path));
        let err = RunCheckpoint::load_with_fallback(&path).expect_err("both missing");
        assert!(matches!(err, ResumeError::Io(_)));
    }

    #[test]
    fn try_new_rejects_zero_interval() {
        let err = RecoveryOptions::try_new("x.json", 0).expect_err("zero interval");
        assert!(matches!(err, ResumeError::InvalidOptions(_)));
        assert!(RecoveryOptions::try_new("x.json", 3).is_ok());
    }

    #[test]
    fn wrong_version_and_fingerprint_are_rejected() {
        let path = tmp_ckpt("version_fp.json");
        let mut e = env(40.0, 5);
        let mut m = Chiron::new(&e, ChironConfig::fast(), 5);
        let buf = RolloutBuffer::new();
        let mut ckpt = RunCheckpoint::capture(&mut m, &e, &[1.0], &buf, &buf).expect("capture");

        let mut wrong_version = ckpt.clone();
        wrong_version.version = 999;
        let json = serde_json::to_string(&wrong_version).expect("serializable");
        let err = RunCheckpoint::from_json(&json).expect_err("must reject");
        assert!(matches!(err, ResumeError::VersionMismatch { found: 999 }));

        ckpt.fingerprint = "someone-else's-run".to_owned();
        let err = ckpt.restore_into(&mut m, &mut e).expect_err("must reject");
        assert!(matches!(err, ResumeError::FingerprintMismatch { .. }));
        RunCheckpoint::remove(&path).ok();
    }

    #[test]
    fn mid_episode_checkpoint_resumes_remaining_rounds() {
        // Capture mid-episode (non-empty buffers, env mid-round-sequence),
        // restore into fresh objects, and verify the remaining rounds are
        // identical.
        let mut e = env(60.0, 11);
        let mut m = Chiron::new(&e, ChironConfig::fast(), 11);
        m.train(&mut e, 1);

        e.reset();
        m.begin_episode(&e);
        let mut outcomes_a = Vec::new();
        for _ in 0..2 {
            let prices = m.decide_prices(&e, false);
            outcomes_a.push(e.step(&prices));
        }
        let buf = RolloutBuffer::new();
        let ckpt = RunCheckpoint::capture(&mut m, &e, &[], &buf, &buf).expect("capture");

        // Continue the original.
        for _ in 0..3 {
            let prices = m.decide_prices(&e, false);
            outcomes_a.push(e.step(&prices));
        }

        // Fresh twin resumes and must replay the same tail.
        let mut e2 = env(60.0, 11);
        let mut m2 = Chiron::new(&e2, ChironConfig::fast(), 77);
        ckpt.restore_into(&mut m2, &mut e2).expect("restore");
        for (k, expected) in outcomes_a.iter().enumerate().skip(2) {
            let prices = m2.decide_prices(&e2, false);
            let out = e2.step(&prices);
            assert_eq!(out.round, expected.round);
            assert_eq!(
                out.accuracy.to_bits(),
                expected.accuracy.to_bits(),
                "round {k} accuracy must match bitwise"
            );
            assert_eq!(
                out.payment_total.to_bits(),
                expected.payment_total.to_bits()
            );
        }
    }
}
