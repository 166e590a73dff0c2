//! Proximal Policy Optimization with the clipped surrogate objective.

use crate::buffer::RolloutBuffer;
use crate::policy::{state_tensor, states_tensor, GaussianPolicy};
use chiron_nn::models::mlp;
use chiron_nn::{
    clip_grad_norm, forward_batched, Adam, AdamState, Checkpoint, CheckpointError, MseLoss,
    Optimizer, Sequential,
};
use chiron_tensor::{pool, scratch, RngState, Tensor, TensorRng};
use serde::{Deserialize, Serialize};

/// Rows per block for the full-batch actor/critic passes in
/// [`PpoAgent::update`]. Typical rollout buffers (tens of transitions) fit
/// a single block — byte-identical to the unbatched pass — while oversized
/// buffers split deterministically across the worker pool.
const PPO_BLOCK_ROWS: usize = 256;

/// Transitions per block for the parallel clipped-surrogate loop. Each
/// transition's gradient row is written independently (gradients never sum
/// across transitions), so any partition yields bitwise-identical grads;
/// the per-block loss partials reduce in block-index order.
const SURROGATE_BLOCK: usize = 8;

/// PPO hyperparameters.
///
/// Defaults follow the paper's Section VI-A where specified (`γ = 0.95`,
/// learning-rate decay ×0.95 every 20 episodes) and standard PPO practice
/// elsewhere (clip 0.2, a handful of update epochs).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PpoConfig {
    /// Discount factor `γ` (paper: 0.95).
    pub gamma: f64,
    /// GAE λ (0 reproduces Algorithm 1's one-step TD advantages).
    pub gae_lambda: f64,
    /// Clipping radius ε of the surrogate ratio.
    pub clip: f64,
    /// Update epochs `M` per consumed buffer.
    pub epochs: usize,
    /// Actor learning rate.
    pub actor_lr: f32,
    /// Critic learning rate.
    pub critic_lr: f32,
    /// Initial exploration std.
    pub std_init: f64,
    /// Multiplicative std decay applied per update.
    pub std_decay: f64,
    /// Exploration floor.
    pub std_min: f64,
    /// Global gradient-norm clip.
    pub max_grad_norm: f32,
    /// Normalize advantages per update (recommended).
    pub normalize_advantages: bool,
}

impl Default for PpoConfig {
    fn default() -> Self {
        Self {
            gamma: 0.95,
            gae_lambda: 0.95,
            clip: 0.2,
            epochs: 10,
            actor_lr: 3e-4,
            critic_lr: 1e-3,
            std_init: 0.5,
            std_decay: 0.99,
            std_min: 0.05,
            max_grad_norm: 0.5,
            normalize_advantages: true,
        }
    }
}

impl PpoConfig {
    /// The paper's hyperparameters: `lr_a = lr_c = 3e-5`, `γ = 0.95`.
    /// (The paper decays the learning rate by 5 % every 20 episodes — the
    /// mechanism layer drives that via [`PpoAgent::decay_learning_rate`].)
    pub fn paper() -> Self {
        Self {
            actor_lr: 3e-5,
            critic_lr: 3e-5,
            ..Self::default()
        }
    }
}

/// An actor–critic PPO agent over continuous actions.
///
/// One `PpoAgent` instance is one of the paper's learners: it exposes
/// `act`/`value` for rollouts and `update` for the M-epoch clipped-PPO
/// improvement step that Algorithm 1 triggers at the end of each episode.
///
/// # Examples
///
/// ```
/// use chiron_drl::{PpoAgent, PpoConfig};
///
/// let mut agent = PpoAgent::new(4, 2, &[32, 32], PpoConfig::default(), 1);
/// let (action, log_prob) = agent.act(&[0.0, 0.1, 0.2, 0.3]);
/// assert_eq!(action.len(), 2);
/// assert!(log_prob.is_finite());
/// ```
pub struct PpoAgent {
    actor: GaussianPolicy,
    critic: Sequential,
    actor_opt: Adam,
    critic_opt: Adam,
    config: PpoConfig,
    state_dim: usize,
    updates: usize,
    skipped_updates: usize,
}

impl PpoAgent {
    /// Builds actor and critic MLPs with the given hidden sizes.
    ///
    /// # Panics
    ///
    /// Panics if dims are zero.
    pub fn new(
        state_dim: usize,
        action_dim: usize,
        hidden: &[usize],
        config: PpoConfig,
        seed: u64,
    ) -> Self {
        let actor = GaussianPolicy::new(state_dim, action_dim, hidden, config.std_init, seed);
        let mut dims = vec![state_dim];
        dims.extend_from_slice(hidden);
        dims.push(1);
        let critic = mlp(&dims, &mut TensorRng::seed_from(seed ^ 0xC217));
        Self {
            actor,
            critic,
            actor_opt: Adam::new(config.actor_lr),
            critic_opt: Adam::new(config.critic_lr),
            config,
            state_dim,
            updates: 0,
            skipped_updates: 0,
        }
    }

    /// The agent's configuration.
    pub fn config(&self) -> &PpoConfig {
        &self.config
    }

    /// Number of completed updates.
    pub fn updates(&self) -> usize {
        self.updates
    }

    /// Number of updates skipped or rolled back because non-finite values
    /// (NaN/inf rewards, exploded losses, poisoned parameters) were
    /// detected. The parameters in effect after a skipped update are
    /// exactly the parameters from before it.
    pub fn skipped_updates(&self) -> usize {
        self.skipped_updates
    }

    /// Current exploration std.
    pub fn exploration_std(&self) -> f64 {
        self.actor.std()
    }

    /// Samples a stochastic action, returning `(action, log_prob)`.
    pub fn act(&mut self, state: &[f64]) -> (Vec<f64>, f64) {
        self.actor.sample(state)
    }

    /// The deterministic (mean) action for evaluation.
    pub fn act_deterministic(&mut self, state: &[f64]) -> Vec<f64> {
        self.actor.mean(state)
    }

    /// The critic's value estimate `V(s)`.
    pub fn value(&mut self, state: &[f64]) -> f64 {
        let x = state_tensor(state, self.state_dim);
        self.critic.forward(&x, false).item() as f64
    }

    /// Multiplies both learning rates by `factor` (the paper decays by 0.95
    /// every 20 episodes).
    ///
    /// # Panics
    ///
    /// Panics if `factor` is not positive.
    pub fn decay_learning_rate(&mut self, factor: f32) {
        assert!(factor > 0.0, "decay factor must be positive");
        self.actor_opt
            .set_learning_rate(self.actor_opt.learning_rate() * factor);
        self.critic_opt
            .set_learning_rate(self.critic_opt.learning_rate() * factor);
    }

    /// One full PPO improvement: `epochs` passes of clipped-surrogate actor
    /// updates and TD-target critic regression over the whole buffer, then
    /// clears the buffer and decays exploration.
    ///
    /// Returns `(mean_actor_loss, mean_critic_loss)` across epochs.
    ///
    /// ## Non-finite resilience
    ///
    /// A NaN/inf anywhere in the rollout (a diverged reward, an exploded
    /// critic value) would poison every parameter through the surrogate
    /// gradient *and* Adam's moment estimates, from which no later update
    /// recovers. The update therefore validates its inputs up front and its
    /// losses/parameters afterwards; on any non-finite detection it rolls
    /// actor, critic, and both optimizers back to their pre-update state,
    /// increments [`skipped_updates`](Self::skipped_updates), clears the
    /// buffer, and returns `(0.0, 0.0)`. Training continues from the last
    /// good parameters.
    ///
    /// # Panics
    ///
    /// Panics if the buffer is empty.
    pub fn update(&mut self, buffer: &mut RolloutBuffer) -> (f64, f64) {
        assert!(!buffer.is_empty(), "PPO update on an empty buffer");
        let _span = chiron_telemetry::span("ppo_update");
        static PPO_UPDATES: chiron_telemetry::Counter =
            chiron_telemetry::Counter::new("drl.ppo.updates");
        static PPO_ROLLBACKS: chiron_telemetry::Counter =
            chiron_telemetry::Counter::new("drl.ppo.rollbacks");
        let (returns, mut advantages) =
            buffer.compute_returns_and_advantages(self.config.gamma, self.config.gae_lambda);

        let inputs_finite = buffer.transitions().iter().all(|t| {
            t.log_prob.is_finite()
                && t.reward.is_finite()
                && t.value.is_finite()
                && t.state.iter().all(|v| v.is_finite())
                && t.action.iter().all(|v| v.is_finite())
        }) && returns.iter().all(|r| r.is_finite())
            && advantages.iter().all(|a| a.is_finite());
        if !inputs_finite {
            buffer.clear();
            self.skipped_updates += 1;
            PPO_ROLLBACKS.add(1);
            return (0.0, 0.0);
        }

        if self.config.normalize_advantages && advantages.len() > 1 {
            let mean = advantages.iter().sum::<f64>() / advantages.len() as f64;
            let var = advantages
                .iter()
                .map(|a| (a - mean) * (a - mean))
                .sum::<f64>()
                / advantages.len() as f64;
            let std = var.sqrt().max(1e-8);
            for a in &mut advantages {
                *a = (*a - mean) / std;
            }
        }

        let n = buffer.len();
        let state_batch = states_tensor(
            buffer.transitions().iter().map(|t| t.state.as_slice()),
            self.state_dim,
        );
        let action_dim = self.actor.action_dim();
        let mut returns_data = scratch::take_vec_with_capacity(n);
        returns_data.extend(returns.iter().map(|&r| r as f32));
        let returns_t = Tensor::from_vec(returns_data, &[n, 1]);

        // Rollback anchor: flat parameters plus full optimizer clones
        // (restoring parameters alone would leave NaN-poisoned Adam moments
        // behind, which re-poison the very next step).
        let actor_backup = self.actor.net_mut().parameters_flat();
        let critic_backup = self.critic.parameters_flat();
        let actor_opt_backup = self.actor_opt.clone();
        let critic_opt_backup = self.critic_opt.clone();

        let mut actor_loss_acc = 0.0f64;
        let mut critic_loss_acc = 0.0f64;
        let mut poisoned = false;

        let clip = self.config.clip;
        for _ in 0..self.config.epochs {
            // --- Actor: clipped surrogate ---
            let actor_pass = self.actor.mean_batch_pass(&state_batch, PPO_BLOCK_ROWS);
            let var = self.actor.std() * self.actor.std();
            let mu = actor_pass.output().as_slice();
            let mut grad = scratch::take_vec(n * action_dim);
            // Each transition's gradient row is independent, so the loop
            // fans out over fixed transition blocks; per-block loss
            // partials reduce in block order, keeping the reported loss
            // identical for every thread count.
            let transitions = buffer.transitions();
            let surrogate_block = |block: usize, rows: &mut [f32]| {
                let t0 = block * SURROGATE_BLOCK;
                let mut loss = 0.0f64;
                for (r, g_row) in rows.chunks_mut(action_dim).enumerate() {
                    let i = t0 + r;
                    let tr = &transitions[i];
                    // log π_new(a|s) under the current mean.
                    let mut logp =
                        -0.5 * (action_dim as f64) * (2.0 * std::f64::consts::PI * var).ln();
                    for j in 0..action_dim {
                        let m = mu[i * action_dim + j] as f64;
                        let a = tr.action[j];
                        logp -= (a - m) * (a - m) / (2.0 * var);
                    }
                    let ratio = (logp - tr.log_prob).exp();
                    let adv = advantages[i];
                    let clipped = ratio.clamp(1.0 - clip, 1.0 + clip);
                    let surr = (ratio * adv).min(clipped * adv);
                    loss -= surr;
                    // Gradient flows only through the unclipped branch
                    // when it is the active minimum.
                    let ratio_active = (ratio * adv) <= (clipped * adv) + 1e-12;
                    if ratio_active {
                        // d(−ratio·adv)/dμ_j = −adv·ratio·d logp/dμ_j
                        //                    = −adv·ratio·(a_j − μ_j)/σ².
                        for (j, g) in g_row.iter_mut().enumerate() {
                            let m = mu[i * action_dim + j] as f64;
                            let a = tr.action[j];
                            let d = -adv * ratio * (a - m) / var;
                            *g = (d / n as f64) as f32;
                        }
                    }
                }
                loss
            };
            let loss: f64 =
                pool::parallel_chunks_map(&mut grad, SURROGATE_BLOCK * action_dim, surrogate_block)
                    .iter()
                    .sum();
            if !loss.is_finite() {
                poisoned = true;
                break;
            }
            actor_loss_acc += loss / n as f64;
            let grad_t = Tensor::from_vec(grad, &[n, action_dim]);
            actor_pass.backward_train(self.actor.net_mut(), &grad_t);
            clip_grad_norm(self.actor.net_mut(), self.config.max_grad_norm);
            self.actor_opt.step(self.actor.net_mut());

            // --- Critic: regression onto bootstrapped returns ---
            let critic_pass = forward_batched(&mut self.critic, &state_batch, true, PPO_BLOCK_ROWS);
            let (closs, cgrad) = MseLoss.forward(critic_pass.output(), &returns_t);
            if !closs.is_finite() {
                poisoned = true;
                break;
            }
            critic_loss_acc += closs as f64;
            critic_pass.backward_train(&mut self.critic, &cgrad);
            clip_grad_norm(&mut self.critic, self.config.max_grad_norm);
            self.critic_opt.step(&mut self.critic);
        }

        // A loss can stay finite while a gradient overflowed into the
        // parameters, so check the networks themselves last.
        if !poisoned {
            poisoned = !self
                .actor
                .net_mut()
                .parameters_flat()
                .iter()
                .all(|p| p.is_finite())
                || !self.critic.parameters_flat().iter().all(|p| p.is_finite());
        }
        if poisoned {
            self.actor.net_mut().set_parameters_flat(&actor_backup);
            self.critic.set_parameters_flat(&critic_backup);
            self.actor_opt = actor_opt_backup;
            self.critic_opt = critic_opt_backup;
            buffer.clear();
            self.skipped_updates += 1;
            PPO_ROLLBACKS.add(1);
            return (0.0, 0.0);
        }

        let e = self.config.epochs as f64;
        let mean_actor_loss = actor_loss_acc / e;
        let mean_critic_loss = critic_loss_acc / e;

        // Telemetry: a strictly read-only diagnostic pass over the final
        // policy (clip fraction, approximate KL, Gaussian entropy). Runs
        // only while the layer is enabled; its forward pass reuses the
        // deterministic batched path and feeds nothing back, so enabling it
        // cannot perturb training.
        if chiron_telemetry::enabled() {
            let pass = self.actor.mean_batch_pass(&state_batch, PPO_BLOCK_ROWS);
            let mu = pass.output().as_slice();
            let var = self.actor.std() * self.actor.std();
            let mut clipped = 0usize;
            let mut kl_sum = 0.0f64;
            for (i, tr) in buffer.transitions().iter().enumerate() {
                let mut logp = -0.5 * (action_dim as f64) * (2.0 * std::f64::consts::PI * var).ln();
                for j in 0..action_dim {
                    let m = mu[i * action_dim + j] as f64;
                    let a = tr.action[j];
                    logp -= (a - m) * (a - m) / (2.0 * var);
                }
                let ratio = (logp - tr.log_prob).exp();
                if (ratio - 1.0).abs() > clip {
                    clipped += 1;
                }
                kl_sum += tr.log_prob - logp;
            }
            let clip_fraction = clipped as f64 / n as f64;
            let approx_kl = kl_sum / n as f64;
            let entropy =
                0.5 * (action_dim as f64) * (1.0 + (2.0 * std::f64::consts::PI * var).ln());
            chiron_telemetry::histogram_record("drl.ppo.clip_fraction", clip_fraction);
            chiron_telemetry::histogram_record("drl.ppo.approx_kl", approx_kl);
            chiron_telemetry::histogram_record("drl.ppo.entropy", entropy);
            chiron_telemetry::histogram_record("drl.ppo.actor_loss", mean_actor_loss);
            chiron_telemetry::histogram_record("drl.ppo.critic_loss", mean_critic_loss);
            chiron_telemetry::event(
                "ppo_update",
                self.updates + 1, // sequence index of this update
                &[
                    ("transitions", n as f64),
                    ("actor_loss", mean_actor_loss),
                    ("critic_loss", mean_critic_loss),
                    ("clip_fraction", clip_fraction),
                    ("approx_kl", approx_kl),
                    ("entropy", entropy),
                ],
            );
        }

        buffer.clear();
        self.updates += 1;
        PPO_UPDATES.add(1);
        let new_std = (self.actor.std() * self.config.std_decay).max(self.config.std_min);
        self.actor.set_std(new_std);

        (mean_actor_loss, mean_critic_loss)
    }
}

/// A serializable snapshot of a trained [`PpoAgent`]: actor and critic
/// parameters plus the exploration/update counters. Optimizer moments are
/// not stored — a restored agent is meant for evaluation or fine-tuning
/// with fresh optimizer state.
///
/// # Examples
///
/// ```
/// use chiron_drl::{AgentSnapshot, PpoAgent, PpoConfig};
///
/// let mut agent = PpoAgent::new(2, 1, &[8], PpoConfig::default(), 0);
/// let snap = agent.snapshot("demo");
/// let mut twin = PpoAgent::new(2, 1, &[8], PpoConfig::default(), 99);
/// snap.restore(&mut twin).expect("same architecture");
/// assert_eq!(
///     agent.act_deterministic(&[0.1, 0.2]),
///     twin.act_deterministic(&[0.1, 0.2]),
/// );
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AgentSnapshot {
    /// Free-form label.
    pub label: String,
    /// Actor network parameters.
    pub actor: Checkpoint,
    /// Critic network parameters.
    pub critic: Checkpoint,
    /// Exploration std at capture time.
    pub exploration_std: f64,
    /// Update count at capture time.
    pub updates: usize,
}

/// A snapshot JSON document that failed to parse.
///
/// Wraps the underlying [`serde_json::Error`], exposed through
/// [`std::error::Error::source`] so callers can chain it.
#[derive(Debug)]
pub struct SnapshotError {
    source: serde_json::Error,
}

impl std::fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "malformed snapshot JSON: {}", self.source)
    }
}

impl std::error::Error for SnapshotError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        Some(&self.source)
    }
}

impl From<serde_json::Error> for SnapshotError {
    fn from(source: serde_json::Error) -> Self {
        Self { source }
    }
}

impl AgentSnapshot {
    /// Serializes to JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string(self).expect("snapshot serialization is infallible")
    }

    /// Parses a JSON snapshot.
    ///
    /// # Errors
    ///
    /// Returns [`SnapshotError`] (with the parse error as its
    /// [`source`](std::error::Error::source)) on malformed input.
    pub fn from_json(json: &str) -> Result<Self, SnapshotError> {
        serde_json::from_str(json).map_err(SnapshotError::from)
    }

    /// Restores the snapshot into `agent`.
    ///
    /// # Errors
    ///
    /// Returns [`CheckpointError::ArchitectureMismatch`] if either network
    /// differs from the snapshot's.
    pub fn restore(&self, agent: &mut PpoAgent) -> Result<(), CheckpointError> {
        self.actor.restore(agent.actor.net_mut())?;
        self.critic.restore(&mut agent.critic)?;
        agent.actor.set_std(self.exploration_std.max(1e-6));
        agent.updates = self.updates;
        Ok(())
    }
}

impl PpoAgent {
    /// Captures a serializable snapshot of the agent.
    pub fn snapshot(&mut self, label: &str) -> AgentSnapshot {
        AgentSnapshot {
            label: label.to_owned(),
            actor: Checkpoint::capture(self.actor.net_mut(), &format!("{label}-actor")),
            critic: Checkpoint::capture(&self.critic, &format!("{label}-critic")),
            exploration_std: self.actor.std(),
            updates: self.updates,
        }
    }

    /// Captures the agent's *complete* training state: parameters, both
    /// Adam optimizers' moments, the exploration RNG, and the counters.
    /// Unlike [`snapshot`](Self::snapshot), restoring this resumes training
    /// bitwise-identically to never having stopped.
    pub fn full_state(&mut self, label: &str) -> AgentFullState {
        AgentFullState {
            snapshot: self.snapshot(label),
            actor_opt: self.actor_opt.capture_state(),
            critic_opt: self.critic_opt.capture_state(),
            policy_rng: self.actor.rng_state(),
            skipped_updates: self.skipped_updates,
        }
    }

    /// Restores a [`full_state`](Self::full_state) capture into this agent.
    ///
    /// The agent must have been built with the same architecture (state and
    /// action dims, hidden sizes) as the captured one.
    ///
    /// # Errors
    ///
    /// Returns a typed [`AgentStateError`] on any mismatch. Validation runs
    /// before any mutation, so on error the agent is unchanged.
    pub fn restore_full(&mut self, state: &AgentFullState) -> Result<(), AgentStateError> {
        // Validate everything up front so a failure leaves no half-restore.
        if self.actor.net_mut().summary() != state.snapshot.actor.architecture
            || self.critic.summary() != state.snapshot.critic.architecture
        {
            return Err(AgentStateError::Network(
                CheckpointError::ArchitectureMismatch {
                    expected: format!(
                        "{} / {}",
                        state.snapshot.actor.architecture, state.snapshot.critic.architecture
                    ),
                    found: format!(
                        "{} / {}",
                        self.actor.net_mut().summary(),
                        self.critic.summary()
                    ),
                },
            ));
        }
        let rng_ok = TensorRng::from_state(&state.policy_rng).is_some();
        if !rng_ok {
            return Err(AgentStateError::MalformedRng);
        }
        state
            .snapshot
            .restore(self)
            .map_err(AgentStateError::Network)?;
        self.actor_opt
            .restore_state(&state.actor_opt)
            .map_err(|_| AgentStateError::Optimizer)?;
        self.critic_opt
            .restore_state(&state.critic_opt)
            .map_err(|_| AgentStateError::Optimizer)?;
        self.actor.restore_rng_state(&state.policy_rng);
        self.skipped_updates = state.skipped_updates;
        Ok(())
    }
}

/// Everything needed to resume a [`PpoAgent`] mid-training with no drift:
/// the parameter snapshot plus Adam moments, the exploration RNG, and the
/// skip counter. Produced by [`PpoAgent::full_state`], consumed by
/// [`PpoAgent::restore_full`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AgentFullState {
    /// Network parameters, exploration std, update count.
    pub snapshot: AgentSnapshot,
    /// Actor optimizer moments.
    pub actor_opt: AdamState,
    /// Critic optimizer moments.
    pub critic_opt: AdamState,
    /// Exploration RNG state.
    pub policy_rng: RngState,
    /// Rolled-back update count at capture time.
    pub skipped_updates: usize,
}

/// Why an [`AgentFullState`] could not be restored.
#[derive(Debug, Clone, PartialEq)]
pub enum AgentStateError {
    /// A network checkpoint did not match the target architecture.
    Network(CheckpointError),
    /// Optimizer moments were inconsistent with the networks.
    Optimizer,
    /// The stored RNG state words are malformed.
    MalformedRng,
}

impl std::fmt::Display for AgentStateError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AgentStateError::Network(e) => write!(f, "network state mismatch: {e}"),
            AgentStateError::Optimizer => write!(f, "optimizer state inconsistent with networks"),
            AgentStateError::MalformedRng => write!(f, "malformed exploration RNG state"),
        }
    }
}

impl std::error::Error for AgentStateError {}

impl std::fmt::Debug for PpoAgent {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "PpoAgent(state {}, action {}, {} updates, std {:.3})",
            self.state_dim,
            self.actor.action_dim(),
            self.updates,
            self.actor.std()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A one-step continuous bandit: reward = −(a − target)².
    fn train_bandit(target: f64, iterations: usize, seed: u64) -> f64 {
        let mut agent = PpoAgent::new(
            1,
            1,
            &[16],
            PpoConfig {
                actor_lr: 3e-3,
                critic_lr: 3e-3,
                std_init: 0.6,
                std_decay: 0.97,
                ..PpoConfig::default()
            },
            seed,
        );
        for _ in 0..iterations {
            let mut buffer = RolloutBuffer::new();
            for _ in 0..32 {
                let state = [1.0];
                let (action, log_prob) = agent.act(&state);
                let reward = -(action[0] - target).powi(2);
                let value = agent.value(&state);
                buffer.push(&state, &action, log_prob, reward, value, true);
            }
            agent.update(&mut buffer);
        }
        agent.act_deterministic(&[1.0])[0]
    }

    #[test]
    fn ppo_solves_continuous_bandit() {
        let a = train_bandit(0.7, 120, 3);
        assert!((a - 0.7).abs() < 0.2, "bandit converged to {a}");
    }

    #[test]
    fn ppo_tracks_negative_targets() {
        let a = train_bandit(-0.5, 120, 4);
        assert!((a + 0.5).abs() < 0.25, "bandit converged to {a}");
    }

    #[test]
    fn critic_learns_state_values() {
        // Two states with deterministic rewards 1 and −1; γ irrelevant for
        // one-step episodes.
        let mut agent = PpoAgent::new(1, 1, &[16], PpoConfig::default(), 5);
        for _ in 0..120 {
            let mut buffer = RolloutBuffer::new();
            for i in 0..16 {
                let s = [if i % 2 == 0 { 1.0 } else { -1.0 }];
                let (a, lp) = agent.act(&s);
                let r = s[0];
                let v = agent.value(&s);
                buffer.push(&s, &a, lp, r, v, true);
            }
            agent.update(&mut buffer);
        }
        let v_pos = agent.value(&[1.0]);
        let v_neg = agent.value(&[-1.0]);
        assert!(
            v_pos > 0.5 && v_neg < -0.5,
            "critic: V(+)={v_pos}, V(−)={v_neg}"
        );
    }

    #[test]
    fn exploration_decays_with_floor() {
        let cfg = PpoConfig {
            std_init: 0.4,
            std_decay: 0.5,
            std_min: 0.1,
            ..PpoConfig::default()
        };
        let mut agent = PpoAgent::new(1, 1, &[4], cfg, 0);
        for _ in 0..10 {
            let mut buffer = RolloutBuffer::new();
            let (a, lp) = agent.act(&[0.0]);
            let v = agent.value(&[0.0]);
            buffer.push(&[0.0], &a, lp, 0.0, v, true);
            agent.update(&mut buffer);
        }
        assert!((agent.exploration_std() - 0.1).abs() < 1e-12);
    }

    #[test]
    fn learning_rate_decay_applies() {
        let mut agent = PpoAgent::new(1, 1, &[4], PpoConfig::paper(), 0);
        agent.decay_learning_rate(0.95);
        // Can't read the optimizer directly, but a second decay must not
        // panic and updates must still run.
        agent.decay_learning_rate(0.95);
        let mut buffer = RolloutBuffer::new();
        let (a, lp) = agent.act(&[0.0]);
        let v = agent.value(&[0.0]);
        buffer.push(&[0.0], &a, lp, 1.0, v, true);
        let (al, cl) = agent.update(&mut buffer);
        assert!(al.is_finite() && cl.is_finite());
    }

    #[test]
    fn update_clears_buffer() {
        let mut agent = PpoAgent::new(2, 1, &[4], PpoConfig::default(), 9);
        let mut buffer = RolloutBuffer::new();
        let s = [0.0, 0.0];
        let (a, lp) = agent.act(&s);
        let v = agent.value(&s);
        buffer.push(&s, &a, lp, 0.5, v, true);
        agent.update(&mut buffer);
        assert!(buffer.is_empty());
        assert_eq!(agent.updates(), 1);
    }

    #[test]
    fn deterministic_action_is_repeatable() {
        let mut agent = PpoAgent::new(2, 2, &[8], PpoConfig::default(), 11);
        let s = [0.3, -0.3];
        assert_eq!(agent.act_deterministic(&s), agent.act_deterministic(&s));
    }

    #[test]
    fn nan_reward_skips_update_and_preserves_params() {
        let mut agent = PpoAgent::new(1, 1, &[8], PpoConfig::default(), 21);
        let before = agent.snapshot("before");
        let mut buffer = RolloutBuffer::new();
        let s = [0.5];
        let (a, lp) = agent.act(&s);
        let v = agent.value(&s);
        buffer.push(&s, &a, lp, f64::NAN, v, true);
        let (al, cl) = agent.update(&mut buffer);
        assert_eq!((al, cl), (0.0, 0.0));
        assert!(buffer.is_empty(), "poisoned buffer must still be consumed");
        assert_eq!(agent.updates(), 0);
        assert_eq!(agent.skipped_updates(), 1);
        assert_eq!(agent.snapshot("before").actor, before.actor);
        assert_eq!(agent.snapshot("before").critic, before.critic);
    }

    #[test]
    fn exploded_loss_rolls_back_params_and_optimizer() {
        let mut agent = PpoAgent::new(1, 1, &[8], PpoConfig::default(), 22);
        // Warm the optimizers so the rollback has real moments to restore.
        let mut buffer = RolloutBuffer::new();
        let s = [0.5];
        let (a, lp) = agent.act(&s);
        let v = agent.value(&s);
        buffer.push(&s, &a, lp, 1.0, v, true);
        agent.update(&mut buffer);

        let before = agent.full_state("before");
        // Finite in f64 but the critic's f32 MSE overflows to inf:
        // (1e30)² = 1e60 ≫ f32::MAX. The actor epoch runs first, so this
        // exercises the mid-update rollback path, not the input gate.
        let (a, lp) = agent.act(&s);
        let v = agent.value(&s);
        buffer.push(&s, &a, lp, 1e30, v, true);
        let (al, cl) = agent.update(&mut buffer);
        assert_eq!((al, cl), (0.0, 0.0));
        assert_eq!(agent.updates(), 1);
        assert_eq!(agent.skipped_updates(), 1);
        let after = agent.full_state("before");
        assert_eq!(after.snapshot.actor, before.snapshot.actor);
        assert_eq!(after.snapshot.critic, before.snapshot.critic);
        assert_eq!(after.actor_opt, before.actor_opt);
        assert_eq!(after.critic_opt, before.critic_opt);

        // And training continues: a clean buffer still updates.
        let (a, lp) = agent.act(&s);
        let v = agent.value(&s);
        buffer.push(&s, &a, lp, 0.5, v, true);
        agent.update(&mut buffer);
        assert_eq!(agent.updates(), 2);
    }

    #[test]
    fn full_state_resumes_training_bitwise() {
        let make = |seed| PpoAgent::new(2, 1, &[8], PpoConfig::default(), seed);
        let mut agent = make(33);
        let fixed_states = [[0.1, -0.2], [0.3, 0.4], [-0.5, 0.6], [0.7, -0.8]];
        let run_episode = |agent: &mut PpoAgent| {
            let mut buffer = RolloutBuffer::new();
            for s in &fixed_states {
                let (a, lp) = agent.act(s);
                let r = -(a[0] - 0.3).powi(2);
                let v = agent.value(s);
                buffer.push(s, &a, lp, r, v, true);
            }
            agent.update(&mut buffer);
        };
        for _ in 0..3 {
            run_episode(&mut agent);
        }
        let state = agent.full_state("mid-run");

        // Original continues; a differently-seeded twin restores and must
        // produce an identical tail (params, optimizer moments, and RNG all
        // travel in the state).
        let mut twin = make(999);
        twin.restore_full(&state).expect("same architecture");
        for _ in 0..3 {
            run_episode(&mut agent);
            run_episode(&mut twin);
        }
        assert_eq!(
            agent.full_state("end").snapshot,
            twin.full_state("end").snapshot
        );
        assert_eq!(agent.act(&[0.0, 0.0]), twin.act(&[0.0, 0.0]));
    }

    #[test]
    fn restore_full_rejects_mismatched_architecture() {
        let mut agent = PpoAgent::new(2, 1, &[8], PpoConfig::default(), 1);
        let state = agent.full_state("src");
        let mut other = PpoAgent::new(2, 1, &[9], PpoConfig::default(), 1);
        let before = other.full_state("pre");
        let err = other.restore_full(&state).expect_err("must reject");
        assert!(matches!(err, AgentStateError::Network(_)));
        assert_eq!(
            other.full_state("pre"),
            before,
            "failed restore must not mutate"
        );
    }

    #[test]
    fn restore_full_rejects_malformed_rng() {
        let mut agent = PpoAgent::new(2, 1, &[8], PpoConfig::default(), 1);
        let mut state = agent.full_state("src");
        state.policy_rng.state.pop();
        let err = agent.restore_full(&state).expect_err("must reject");
        assert_eq!(err, AgentStateError::MalformedRng);
    }
}
