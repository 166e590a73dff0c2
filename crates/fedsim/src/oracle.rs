//! Accuracy oracles: how the simulator learns `A(ω_k)` after each round.
//!
//! The paper measures real model accuracy inside the DRL loop (500 episodes
//! × tens of federated rounds of CNN training — feasible on the authors'
//! GPUs, not in a CPU-only reproduction). Following the substitution rule
//! in `DESIGN.md` §2, the environment talks to an [`AccuracyOracle`] trait
//! with two interchangeable implementations:
//!
//! * [`CurveOracle`] — a calibrated stochastic accuracy-progress model,
//!   O(1) per round, used for DRL training and the full figure sweeps;
//! * [`TrainingOracle`] — real federated SGD with `chiron-nn` models on
//!   `chiron-data` shards, used in examples and integration tests to
//!   validate that the fast oracle's shape matches actual training.

use chiron_data::{partition, DatasetSpec, LearningCurve, SyntheticDataset};
use chiron_nn::{Optimizer, Sequential, Sgd, SoftmaxCrossEntropy};
use chiron_tensor::{pool, RngState, TensorRng};
use serde::{Deserialize, Serialize};

/// What the oracle gets to see about a completed round.
#[derive(Debug, Clone)]
pub struct RoundContext<'a> {
    /// Round index (1-based, counting only recorded rounds).
    pub round: usize,
    /// Indices of the nodes that participated (trained and uploaded).
    pub participants: &'a [usize],
    /// Each participant's share of the *global* training data, `D_i/D`.
    pub weights: &'a [f64],
}

impl RoundContext<'_> {
    /// Fraction of the global data that contributed this round.
    pub fn participation(&self) -> f64 {
        self.weights.iter().sum()
    }
}

/// Serializable training-progress snapshot of an [`AccuracyOracle`], used
/// by full-run checkpoints. Each built-in oracle has its own variant;
/// third-party oracles that do not override the capture/restore hooks
/// report [`OracleState::Unsupported`], which a checkpoint loader rejects
/// with a typed error rather than resuming from a wrong state.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum OracleState {
    /// Snapshot of a [`CurveOracle`].
    Curve {
        /// Units of effective training accumulated.
        effective_rounds: f64,
        /// Noise-free accuracy.
        clean: f64,
        /// Last reported (noisy) accuracy.
        accuracy: f64,
        /// Evaluation-noise RNG position.
        rng: RngState,
    },
    /// Snapshot of a [`TrainingOracle`].
    Training {
        /// Flattened global model parameters.
        global_params: Vec<f32>,
        /// Last reported accuracy.
        accuracy: f64,
    },
    /// The oracle implementation does not support checkpointing.
    Unsupported,
}

/// Error from [`AccuracyOracle::restore_state`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum OracleStateError {
    /// The oracle does not implement state capture/restore.
    Unsupported,
    /// The snapshot variant (or its payload) does not match this oracle.
    Mismatch,
}

impl std::fmt::Display for OracleStateError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            OracleStateError::Unsupported => {
                write!(f, "this oracle does not support state capture/restore")
            }
            OracleStateError::Mismatch => {
                write!(f, "oracle state snapshot does not match this oracle")
            }
        }
    }
}

impl std::error::Error for OracleStateError {}

/// The interface the environment queries after each federated round.
pub trait AccuracyOracle: Send {
    /// Forgets all training progress (start of a new episode).
    fn reset(&mut self);

    /// Ingests one completed round and returns the new global accuracy.
    fn execute_round(&mut self, ctx: &RoundContext<'_>) -> f64;

    /// The current global accuracy without advancing.
    fn accuracy(&self) -> f64;

    /// Snapshots the oracle's training progress for a run checkpoint.
    ///
    /// The default returns [`OracleState::Unsupported`]; implementations
    /// that want crash-safe resume override it together with
    /// [`AccuracyOracle::restore_state`].
    fn capture_state(&self) -> OracleState {
        OracleState::Unsupported
    }

    /// Restores a snapshot taken by [`AccuracyOracle::capture_state`].
    ///
    /// # Errors
    ///
    /// The default returns [`OracleStateError::Unsupported`];
    /// implementations return [`OracleStateError::Mismatch`] when handed a
    /// snapshot of the wrong variant or shape.
    fn restore_state(&mut self, state: &OracleState) -> Result<(), OracleStateError> {
        let _ = state;
        Err(OracleStateError::Unsupported)
    }
}

/// Calibrated stochastic accuracy-progress model, plus small Gaussian
/// evaluation noise. Each round moves the clean accuracy geometrically
/// toward a *coverage-capped* asymptote: a round that trains on a fraction
/// `p` of the global data decays the gap toward
/// `a_0 + (a_max − a_0)·p` by `exp(−rate·p)`. With full participation this
/// reduces exactly to the paper's closed form
/// `A(k) = a_max − (a_max − a_0)·exp(−rate·k)`; with persistent dropouts
/// the achievable ceiling itself drops, so losing data costs final
/// accuracy and not only speed (a stretched budget cannot cancel it).
/// Reproduces the paper's "marginal effect": early rounds improve
/// accuracy much more than late ones.
///
/// # Examples
///
/// ```
/// use chiron_fedsim::oracle::{AccuracyOracle, CurveOracle, RoundContext};
/// use chiron_data::DatasetSpec;
///
/// let mut oracle = CurveOracle::new(DatasetSpec::mnist_like().curve, 0.0, 1);
/// let w = [0.5, 0.5];
/// let p = [0usize, 1];
/// let a1 = oracle.execute_round(&RoundContext { round: 1, participants: &p, weights: &w });
/// let a2 = oracle.execute_round(&RoundContext { round: 2, participants: &p, weights: &w });
/// assert!(a2 > a1);
/// ```
pub struct CurveOracle {
    curve: LearningCurve,
    noise_std: f64,
    effective_rounds: f64,
    clean: f64,
    accuracy: f64,
    rng: TensorRng,
    seed: u64,
}

impl CurveOracle {
    /// Creates an oracle from a learning curve with evaluation-noise
    /// standard deviation `noise_std` (0 for deterministic tests).
    pub fn new(curve: LearningCurve, noise_std: f64, seed: u64) -> Self {
        assert!(noise_std >= 0.0, "noise_std must be non-negative");
        Self {
            curve,
            noise_std,
            effective_rounds: 0.0,
            clean: curve.a_0,
            accuracy: curve.a_0,
            rng: TensorRng::seed_from(seed),
            seed,
        }
    }

    /// Convenience constructor from a dataset profile with the default
    /// evaluation noise used throughout the reproduction.
    pub fn for_dataset(spec: &DatasetSpec, seed: u64) -> Self {
        Self::new(spec.curve, 0.004, seed)
    }

    /// Units of effective training accumulated so far.
    pub fn effective_rounds(&self) -> f64 {
        self.effective_rounds
    }
}

impl AccuracyOracle for CurveOracle {
    fn reset(&mut self) {
        self.effective_rounds = 0.0;
        self.clean = self.curve.a_0;
        self.accuracy = self.curve.a_0;
        self.rng = TensorRng::seed_from(self.seed);
    }

    fn execute_round(&mut self, ctx: &RoundContext<'_>) -> f64 {
        let participation = ctx.participation();
        assert!(
            (0.0..=1.0 + 1e-9).contains(&participation),
            "participation {participation} outside [0, 1]"
        );
        self.effective_rounds += participation;
        // Training on a fraction p of the data approaches a coverage-capped
        // ceiling `a_max − κ·(a_max − a_0)·(1 − p)`: the round closes the
        // gap toward that ceiling by the usual exponential factor. κ < 1
        // reflects that the shards are IID, so a data subset still
        // represents the global distribution and the ceiling degrades more
        // gently than linearly. Progress is never undone: a low-coverage
        // round whose ceiling sits below the current accuracy is a no-op.
        const COVERAGE_PENALTY: f64 = 0.5;
        let ceiling = self.curve.a_max
            - COVERAGE_PENALTY
                * (self.curve.a_max - self.curve.a_0)
                * (1.0 - participation.min(1.0));
        let decay = (-self.curve.rate * participation).exp();
        self.clean = (ceiling - (ceiling - self.clean) * decay).max(self.clean);
        let noisy = self.clean + self.rng.normal() * self.noise_std;
        self.accuracy = noisy.clamp(0.0, 1.0);
        self.accuracy
    }

    fn accuracy(&self) -> f64 {
        self.accuracy
    }

    fn capture_state(&self) -> OracleState {
        OracleState::Curve {
            effective_rounds: self.effective_rounds,
            clean: self.clean,
            accuracy: self.accuracy,
            rng: self.rng.state(),
        }
    }

    fn restore_state(&mut self, state: &OracleState) -> Result<(), OracleStateError> {
        match state {
            OracleState::Curve {
                effective_rounds,
                clean,
                accuracy,
                rng,
            } => {
                self.rng = TensorRng::from_state(rng).ok_or(OracleStateError::Mismatch)?;
                self.effective_rounds = *effective_rounds;
                self.clean = *clean;
                self.accuracy = *accuracy;
                Ok(())
            }
            _ => Err(OracleStateError::Mismatch),
        }
    }
}

/// Real federated training: each participant runs `σ` local epochs of
/// minibatch SGD on its own shard starting from the global model, the
/// server aggregates with data-weighted FedAvg, and accuracy is measured on
/// a held-out test set.
///
/// This is exactly the paper's protocol (Section II-A) with the synthetic
/// dataset profiles standing in for the real datasets.
pub struct TrainingOracle {
    shards: Vec<SyntheticDataset>,
    test: SyntheticDataset,
    model: Sequential,
    global_params: Vec<f32>,
    initial_params: Vec<f32>,
    sigma: u32,
    batch_size: usize,
    learning_rate: f32,
    accuracy: f64,
    /// Persistent per-participant training replicas, grown on demand and
    /// re-seeded in place each round instead of deep-cloning the model.
    replica_pool: Vec<Sequential>,
    /// `(fingerprint, accuracy)` memo for [`TrainingOracle::evaluate`].
    eval_memo: Option<(u64, f64)>,
}

/// FNV-1a fingerprint over a parameter vector's exact bit pattern.
///
/// Content-addressed: two parameter vectors fingerprint equal only when
/// they are bitwise equal (modulo the usual 64-bit collision odds), so the
/// evaluation memo keyed on it can never serve an accuracy for different
/// weights.
fn fingerprint(params: &[f32]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &p in params {
        for b in p.to_bits().to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x100_0000_01b3);
        }
    }
    h
}

impl TrainingOracle {
    /// Builds the oracle: generates `samples` synthetic samples of `spec`,
    /// holds out 20 % for testing, splits the rest IID across `nodes`, and
    /// trains `model` (which must accept the profile's input geometry).
    ///
    /// # Panics
    ///
    /// Panics if `nodes == 0` or `samples` is too small to shard.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        spec: &DatasetSpec,
        model: Sequential,
        nodes: usize,
        samples: usize,
        sigma: u32,
        batch_size: usize,
        learning_rate: f32,
        seed: u64,
    ) -> Self {
        let data = SyntheticDataset::generate(spec, samples, seed);
        let (train, test) = data.split(0.8);
        let shards = partition::split(&train, nodes, partition::Partition::Iid, seed ^ 0x5EED);
        let global_params = model.parameters_flat();
        let mut oracle = Self {
            shards,
            test,
            model,
            initial_params: global_params.clone(),
            global_params,
            sigma,
            batch_size,
            learning_rate,
            accuracy: 0.0,
            replica_pool: Vec::new(),
            eval_memo: None,
        };
        oracle.accuracy = oracle.evaluate();
        oracle
    }

    /// Shard sizes in samples (the `D_i`).
    pub fn shard_sizes(&self) -> Vec<usize> {
        self.shards.iter().map(|s| s.len()).collect()
    }

    /// Read-only view of the flattened global model parameters `ω_k` —
    /// the aggregate state that cross-thread determinism tests pin down
    /// bitwise.
    pub fn global_parameters(&self) -> &[f32] {
        &self.global_params
    }

    /// Evaluates the current global model on the held-out test set.
    ///
    /// Evaluation is deterministic in the parameters, so results are
    /// memoized on an FNV-1a fingerprint of `global_params` — a repeated
    /// query against unchanged weights (e.g. episode resets) returns the
    /// stored accuracy without touching the model.
    ///
    /// On a miss, the 64-sample evaluation chunks all run through one
    /// batched forward on the resident model
    /// ([`Sequential::forward_chunks`]): the conv layers run their direct
    /// kernel per chunk with bias and ReLU fused, and the linear layers
    /// share one packed weight panel across chunks, instead of cloning the
    /// model per chunk. The forward pass treats every sample row
    /// independently, so the integer (correct, total) counts — and hence
    /// the accuracy — are bitwise-identical to the serial per-chunk loop at
    /// every thread count.
    pub fn evaluate(&mut self) -> f64 {
        static EVAL_CACHE_HITS: chiron_telemetry::Counter =
            chiron_telemetry::Counter::new("fedsim.oracle.eval_cache_hits");
        let fp = fingerprint(&self.global_params);
        if let Some((memo_fp, memo_acc)) = self.eval_memo {
            if memo_fp == fp {
                EVAL_CACHE_HITS.add(1);
                return memo_acc;
            }
        }
        self.model.set_parameters_flat(&self.global_params);
        let chunks = self.test.batch_indices(64);
        let mut xs = Vec::with_capacity(chunks.len());
        let mut ys = Vec::with_capacity(chunks.len());
        for chunk in &chunks {
            let (x, y) = self.test.batch(chunk);
            xs.push(x);
            ys.push(y);
        }
        let logits = self.model.forward_chunks(&xs);
        let (mut correct, mut total) = (0usize, 0usize);
        for (l, y) in logits.iter().zip(&ys) {
            let preds = l.argmax_rows();
            correct += preds.iter().zip(y).filter(|(p, l)| p == l).count();
            total += y.len();
        }
        let acc = correct as f64 / total as f64;
        self.eval_memo = Some((fp, acc));
        acc
    }

    /// One participant's local training: `sigma` epochs of minibatch SGD
    /// on `shard`, starting from the parameters already loaded in `model`.
    ///
    /// Free of `&self` so each region task can own a model clone while
    /// borrowing its shard in place (the old method cloned the shard every
    /// round to appease the borrow checker). The RNG stream is keyed by
    /// `(node, round, epoch)` only, so the schedule is independent of
    /// which thread runs the task.
    fn train_shard(
        model: &mut Sequential,
        shard: &SyntheticDataset,
        node: usize,
        round: usize,
        sigma: u32,
        batch_size: usize,
        learning_rate: f32,
    ) -> Vec<f32> {
        let mut opt = Sgd::with_momentum(learning_rate, 0.5);
        for epoch in 0..sigma {
            // Reshuffle minibatch composition deterministically per epoch.
            let mut order: Vec<usize> = (0..shard.len()).collect();
            let mut rng =
                TensorRng::seed_from((node as u64) << 32 | (round as u64) << 8 | epoch as u64);
            rng.shuffle(&mut order);
            for chunk in order.chunks(batch_size) {
                let (x, y) = shard.batch(chunk);
                let logits = model.forward(&x, true);
                let (_, grad) = SoftmaxCrossEntropy.forward(&logits, &y);
                model.backward_train(&grad);
                opt.step(model);
            }
        }
        model.parameters_flat()
    }
}

impl AccuracyOracle for TrainingOracle {
    fn reset(&mut self) {
        self.global_params = self.initial_params.clone();
        self.accuracy = self.evaluate();
    }

    fn execute_round(&mut self, ctx: &RoundContext<'_>) -> f64 {
        if ctx.participants.is_empty() {
            return self.accuracy;
        }
        for &node in ctx.participants {
            assert!(node < self.shards.len(), "participant {node} out of range");
        }
        // Each participant trains a pooled replica seeded with the global
        // parameters on its own (node, round, epoch)-keyed RNG stream;
        // replicas are seeded and results joined in ascending participant
        // order, so the round is bitwise-identical to sequential local
        // training. The pool persists across rounds — networks allocate
        // once and are re-seeded in place, replacing the old deep clone of
        // the model per participant per round — and the resident model is
        // no longer redundantly reloaded here (`evaluate` loads the new
        // aggregate itself before scoring it). `Sgd::step` leaves the
        // gradient accumulators zeroed, but `zero_grad` is cheap and
        // guards against optimizers that do not.
        let n = ctx.participants.len();
        while self.replica_pool.len() < n {
            self.replica_pool.push(self.model.clone());
        }
        for replica in &mut self.replica_pool[..n] {
            replica.set_parameters_flat(&self.global_params);
            replica.zero_grad();
        }
        let (shards, participants, round) = (&self.shards, ctx.participants, ctx.round);
        let (sigma, batch_size, learning_rate) = (self.sigma, self.batch_size, self.learning_rate);
        let replicas = &mut self.replica_pool[..n];
        let updated: Vec<Vec<f32>> =
            pool::map_mut("oracle.local_training", replicas, |i, model| {
                Self::train_shard(
                    model,
                    &shards[participants[i]],
                    participants[i],
                    round,
                    sigma,
                    batch_size,
                    learning_rate,
                )
            });
        let refs: Vec<(&[f32], f64)> = updated
            .iter()
            .zip(ctx.weights)
            .map(|(p, &w)| (p.as_slice(), w))
            .collect();
        crate::fedavg::aggregate_into(&mut self.global_params, &refs);
        self.accuracy = self.evaluate();
        self.accuracy
    }

    fn accuracy(&self) -> f64 {
        self.accuracy
    }

    fn capture_state(&self) -> OracleState {
        OracleState::Training {
            global_params: self.global_params.clone(),
            accuracy: self.accuracy,
        }
    }

    fn restore_state(&mut self, state: &OracleState) -> Result<(), OracleStateError> {
        match state {
            OracleState::Training {
                global_params,
                accuracy,
            } => {
                if global_params.len() != self.global_params.len() {
                    return Err(OracleStateError::Mismatch);
                }
                self.global_params = global_params.clone();
                self.accuracy = *accuracy;
                // The snapshot's accuracy may come from a different
                // evaluation path; drop the memo rather than trusting it.
                self.eval_memo = None;
                Ok(())
            }
            _ => Err(OracleStateError::Mismatch),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use chiron_nn::models::Flatten;
    use chiron_nn::{Linear, Tanh};

    /// A small classifier accepting the profile's (B, C, H, W) batches.
    fn tiny_model(spec: &DatasetSpec, hidden: usize, seed: u64) -> Sequential {
        let mut rng = TensorRng::seed_from(seed);
        let mut net = Sequential::new();
        net.push(Flatten::new());
        net.push(Linear::new(spec.pixels(), hidden, &mut rng));
        net.push(Tanh::new());
        net.push(Linear::new(hidden, spec.classes, &mut rng));
        net
    }

    fn ctx<'a>(round: usize, participants: &'a [usize], weights: &'a [f64]) -> RoundContext<'a> {
        RoundContext {
            round,
            participants,
            weights,
        }
    }

    #[test]
    fn curve_oracle_is_monotone_without_noise() {
        let mut o = CurveOracle::new(DatasetSpec::mnist_like().curve, 0.0, 0);
        let p = [0usize];
        let w = [1.0];
        let mut last = o.accuracy();
        for k in 1..=30 {
            let a = o.execute_round(&ctx(k, &p, &w));
            assert!(a >= last);
            last = a;
        }
        assert!(
            last > 0.9,
            "MNIST-like curve should exceed 0.9 in 30 rounds"
        );
    }

    #[test]
    fn partial_participation_slows_progress() {
        let full = {
            let mut o = CurveOracle::new(DatasetSpec::mnist_like().curve, 0.0, 0);
            for k in 1..=10 {
                o.execute_round(&ctx(k, &[0], &[1.0]));
            }
            o.accuracy()
        };
        let half = {
            let mut o = CurveOracle::new(DatasetSpec::mnist_like().curve, 0.0, 0);
            for k in 1..=10 {
                o.execute_round(&ctx(k, &[0], &[0.5]));
            }
            o.accuracy()
        };
        assert!(half < full);
    }

    #[test]
    fn curve_oracle_reset_replays_identically() {
        let mut o = CurveOracle::for_dataset(&DatasetSpec::fashion_like(), 9);
        let w = [1.0];
        let run: Vec<f64> = (1..=5)
            .map(|k| o.execute_round(&ctx(k, &[0], &w)))
            .collect();
        o.reset();
        let replay: Vec<f64> = (1..=5)
            .map(|k| o.execute_round(&ctx(k, &[0], &w)))
            .collect();
        assert_eq!(run, replay);
    }

    #[test]
    fn marginal_effect_is_visible() {
        let mut o = CurveOracle::new(DatasetSpec::mnist_like().curve, 0.0, 0);
        let w = [1.0];
        let a1 = o.execute_round(&ctx(1, &[0], &w));
        let a2 = o.execute_round(&ctx(2, &[0], &w));
        for k in 3..=20 {
            o.execute_round(&ctx(k, &[0], &w));
        }
        let a20 = o.accuracy();
        let a21 = o.execute_round(&ctx(21, &[0], &w));
        assert!((a2 - a1) > (a21 - a20) * 3.0, "early gains must dominate");
    }

    #[test]
    fn curve_oracle_state_round_trips_mid_episode() {
        let mut o = CurveOracle::for_dataset(&DatasetSpec::mnist_like(), 5);
        let w = [1.0];
        for k in 1..=4 {
            o.execute_round(&ctx(k, &[0], &w));
        }
        let snap = o.capture_state();
        let tail: Vec<f64> = (5..=10)
            .map(|k| o.execute_round(&ctx(k, &[0], &w)))
            .collect();
        // A fresh oracle restored from the snapshot must continue bit-for-bit.
        let mut r = CurveOracle::for_dataset(&DatasetSpec::mnist_like(), 5);
        r.restore_state(&snap).expect("restore");
        let replay: Vec<f64> = (5..=10)
            .map(|k| r.execute_round(&ctx(k, &[0], &w)))
            .collect();
        assert_eq!(
            tail.iter().map(|a| a.to_bits()).collect::<Vec<_>>(),
            replay.iter().map(|a| a.to_bits()).collect::<Vec<_>>()
        );
    }

    #[test]
    fn oracle_state_mismatch_is_typed() {
        let mut o = CurveOracle::new(DatasetSpec::mnist_like().curve, 0.0, 0);
        assert_eq!(
            o.restore_state(&OracleState::Unsupported),
            Err(OracleStateError::Mismatch)
        );
        assert_eq!(
            o.restore_state(&OracleState::Training {
                global_params: vec![],
                accuracy: 0.0
            }),
            Err(OracleStateError::Mismatch)
        );
    }

    #[test]
    fn training_oracle_learns_tiny_dataset() {
        let spec = DatasetSpec::tiny();
        let model = tiny_model(&spec, 32, 0);
        let mut o = TrainingOracle::new(&spec, model, 3, 240, 2, 16, 0.05, 7);
        let a0 = o.accuracy();
        let participants = [0usize, 1, 2];
        let weights = [1.0 / 3.0; 3];
        for k in 1..=6 {
            o.execute_round(&ctx(k, &participants, &weights));
        }
        let a_end = o.accuracy();
        assert!(
            a_end > a0 + 0.2,
            "federated training should learn: {a0} → {a_end}"
        );
        assert!(a_end > 0.5);
    }

    #[test]
    fn training_oracle_reset_restores_initial_accuracy() {
        let spec = DatasetSpec::tiny();
        let model = tiny_model(&spec, 16, 1);
        let mut o = TrainingOracle::new(&spec, model, 2, 120, 1, 16, 0.05, 3);
        let a0 = o.accuracy();
        o.execute_round(&ctx(1, &[0, 1], &[0.5, 0.5]));
        o.reset();
        assert_eq!(o.accuracy(), a0);
    }

    #[test]
    fn evaluate_memoizes_on_parameter_fingerprint() {
        let spec = DatasetSpec::tiny();
        let model = tiny_model(&spec, 16, 4);
        let mut o = TrainingOracle::new(&spec, model, 2, 120, 1, 16, 0.05, 5);
        let a0 = o.accuracy();
        // Unchanged parameters serve from the memo, bit-for-bit.
        assert_eq!(o.evaluate().to_bits(), a0.to_bits());
        let memo = o.eval_memo;
        assert!(memo.is_some());
        // A round changes the parameters, so the memo must be replaced.
        o.execute_round(&ctx(1, &[0, 1], &[0.5, 0.5]));
        assert_ne!(o.eval_memo, memo);
        // Reset returns to the initial parameters: the accuracy matches
        // the construction-time evaluation exactly.
        o.reset();
        assert_eq!(o.accuracy().to_bits(), a0.to_bits());
    }

    #[test]
    fn pooled_rounds_match_fresh_oracle_rounds_bitwise() {
        let run = |rounds: usize| {
            let spec = DatasetSpec::tiny();
            let model = tiny_model(&spec, 16, 6);
            let mut o = TrainingOracle::new(&spec, model, 3, 150, 1, 16, 0.05, 8);
            for k in 1..=rounds {
                // Varying participant counts exercise pool growth and
                // partial re-seeding.
                let (p, w): (&[usize], &[f64]) = if k % 2 == 0 {
                    (&[0, 1, 2], &[1.0 / 3.0; 3])
                } else {
                    (&[1], &[1.0 / 3.0])
                };
                o.execute_round(&ctx(k, p, w));
            }
            o.global_parameters().to_vec()
        };
        // The pool is warm (and partly stale) by round 3; a fresh oracle
        // replaying the same schedule must still match bitwise.
        let a = run(3);
        let b = run(3);
        assert_eq!(
            a.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            b.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
        );
    }

    #[test]
    fn training_oracle_partial_participation_works() {
        let spec = DatasetSpec::tiny();
        let model = tiny_model(&spec, 16, 2);
        let mut o = TrainingOracle::new(&spec, model, 3, 150, 1, 16, 0.05, 4);
        // Only node 1 participates.
        let a = o.execute_round(&ctx(1, &[1], &[1.0 / 3.0]));
        assert!((0.0..=1.0).contains(&a));
        // Empty participation is a no-op.
        let before = o.accuracy();
        let after = o.execute_round(&ctx(2, &[], &[]));
        assert_eq!(before, after);
    }
}
