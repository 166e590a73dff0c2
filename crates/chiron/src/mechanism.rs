//! The hierarchical mechanism and the [`Mechanism`] trait shared with the
//! baselines.

use crate::config::InnerStateMode;
use crate::rewards::rewards_from_outcome;
use crate::{ChironConfig, ExteriorState};
use chiron_drl::{AgentSnapshot, PpoAgent, RolloutBuffer};
use chiron_fedsim::metrics::{
    EpisodeSummary, EventLog, ResilienceEvent, RolledBackAgent, RoundRecord,
};
use chiron_fedsim::{EdgeLearningEnv, RoundOutcome, StepStatus};
use chiron_nn::CheckpointError;
use serde::{Deserialize, Serialize};

/// The default accuracy-preference coefficient λ (the paper's Section VI
/// setting), used by [`MechanismParams::default`].
pub const DEFAULT_LAMBDA: f64 = 2000.0;

/// Parameters shared by every mechanism in the zoo, independent of any
/// mechanism-specific hyperparameters.
///
/// * `seed` drives all mechanism-internal randomness (network init,
///   exploration, bid jitter). Mechanisms without randomness ignore it.
/// * `lambda` is the accuracy-preference coefficient λ used for utility
///   reporting (`server_utility = λ·accuracy − total_time`). Keeping it
///   here — rather than in per-mechanism configs — guarantees every zoo
///   entry reports utility on the same scale, so tournament cells are
///   comparable.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MechanismParams {
    /// Seed for all mechanism-internal randomness.
    pub seed: u64,
    /// Accuracy-preference coefficient λ for utility reporting.
    pub lambda: f64,
}

impl Default for MechanismParams {
    fn default() -> Self {
        Self {
            seed: 0,
            lambda: DEFAULT_LAMBDA,
        }
    }
}

impl MechanismParams {
    /// Params with the given seed and the default λ.
    pub fn new(seed: u64) -> Self {
        Self {
            seed,
            lambda: DEFAULT_LAMBDA,
        }
    }

    /// Returns a copy with λ replaced.
    pub fn with_lambda(mut self, lambda: f64) -> Self {
        self.lambda = lambda;
        self
    }
}

/// A pricing mechanism for budget-bounded edge learning: the **decision
/// surface** every zoo entry implements.
///
/// The minimal impl contract is the decision surface:
/// [`begin_episode`](Mechanism::begin_episode) /
/// [`decide_prices`](Mechanism::decide_prices) /
/// [`observe`](Mechanism::observe), plus [`name`](Mechanism::name),
/// [`params`](Mechanism::params), and [`train`](Mechanism::train).
/// The episode *protocol* — how decisions are driven against an
/// environment and summarized — lives on the [`EpisodeRun`] extension
/// trait, which is blanket-implemented for every `Mechanism` and cannot
/// be overridden: all mechanisms are evaluated under the identical
/// protocol, so summaries are comparable across the zoo.
///
/// `lambda()` is a provided accessor over [`params`](Mechanism::params)
/// and must **not** be overridden; store your λ in the
/// [`MechanismParams`] field instead so utility reporting stays uniform.
///
/// `Send` is a supertrait so boxed zoo entries can move across the worker
/// pool (the registry hands out `Box<dyn Mechanism>` that sweep and
/// tournament cells run as pool region tasks).
pub trait Mechanism: Send {
    /// Human-readable mechanism name (used by the bench harness). May be
    /// parameterized (e.g. `fmore_k8`), hence an owned `String`.
    fn name(&self) -> String;

    /// The shared [`MechanismParams`] this mechanism was built with.
    fn params(&self) -> MechanismParams;

    /// The accuracy-preference coefficient λ used for utility reporting.
    ///
    /// Provided as `self.params().lambda`; do not override. (Earlier
    /// revisions let implementations override this directly, which allowed
    /// zoo entries to silently report utility on different scales.)
    fn lambda(&self) -> f64 {
        self.params().lambda
    }

    /// Prepares internal state for a fresh episode of `env`.
    fn begin_episode(&mut self, env: &EdgeLearningEnv);

    /// Decides the per-node prices for the next round. `explore` selects
    /// stochastic (training) versus deterministic (evaluation) behaviour.
    fn decide_prices(&mut self, env: &EdgeLearningEnv, explore: bool) -> Vec<f64>;

    /// Ingests the outcome of a recorded round so internal state (history
    /// windows, replay memories) stays in sync. The [`EpisodeRun`] driver
    /// calls this exactly once per recorded round.
    fn observe(&mut self, outcome: &RoundOutcome, prices: &[f64]);

    /// Trains the mechanism for `episodes` episodes on `env`, returning the
    /// per-episode cumulative (mechanism-specific) reward — the curve shown
    /// in the paper's Figs. 3 and 7. Non-learning mechanisms return
    /// `vec![0.0; episodes]`.
    fn train(&mut self, env: &mut EdgeLearningEnv, episodes: usize) -> Vec<f64>;
}

/// The shared episode-evaluation protocol, split off the [`Mechanism`]
/// decision surface.
///
/// Blanket-implemented for every `Mechanism` (sized or `dyn`); a manual
/// implementation would conflict with the blanket impl, so the protocol is
/// effectively sealed — no zoo entry can ship its own episode driver. The
/// protocol: reset the environment, `begin_episode`, then loop
/// `decide_prices(env, false)` → `env.step` → record → `observe` until the
/// budget runs out (the overdrawing round is discarded) or the environment
/// reports done, and summarize with
/// [`EpisodeSummary::from_rounds`] under the mechanism's λ.
pub trait EpisodeRun: Mechanism {
    /// Runs one deterministic, budget-bounded episode and summarizes it.
    fn run_episode(&mut self, env: &mut EdgeLearningEnv) -> (EpisodeSummary, Vec<RoundRecord>) {
        let mut log = EventLog::new();
        self.run_episode_logged(env, 0, &mut log)
    }

    /// [`run_episode`](EpisodeRun::run_episode), additionally appending
    /// every [`ResilienceEvent`] the environment emits to `log` under the
    /// given episode index. Pricing decisions are identical to
    /// `run_episode` — logging never touches any RNG.
    fn run_episode_logged(
        &mut self,
        env: &mut EdgeLearningEnv,
        episode: usize,
        log: &mut EventLog,
    ) -> (EpisodeSummary, Vec<RoundRecord>) {
        let _episode_span = chiron_telemetry::span("episode");
        env.reset();
        self.begin_episode(env);
        let initial_accuracy = env.accuracy();
        let mut records = Vec::new();
        let mut spent = 0.0;
        loop {
            let _round_span = chiron_telemetry::span("round");
            let prices = {
                let _pricing_span = chiron_telemetry::span("pricing");
                self.decide_prices(env, false)
            };
            let outcome = env.step(&prices);
            log.extend_from_outcome(episode, &outcome);
            if outcome.status == StepStatus::BudgetExhausted {
                break;
            }
            spent += outcome.payment_total;
            emit_round_event(&outcome, spent);
            records.push(RoundRecord {
                round: outcome.round,
                accuracy: outcome.accuracy,
                round_time: outcome.round_time,
                time_efficiency: outcome.time_efficiency,
                payment: outcome.payment_total,
                spent,
                participants: outcome.num_participants(),
            });
            self.observe(&outcome, &prices);
            if outcome.done() {
                break;
            }
        }
        (
            EpisodeSummary::from_rounds(&records, initial_accuracy, self.lambda()),
            records,
        )
    }
}

impl<M: Mechanism + ?Sized> EpisodeRun for M {}

/// Emits a per-round summary event into the telemetry stream (no-op while
/// telemetry is disabled). `spent` is the episode's cumulative payment
/// after this round.
fn emit_round_event(outcome: &RoundOutcome, spent: f64) {
    if !chiron_telemetry::enabled() {
        return;
    }
    chiron_telemetry::event(
        "round",
        outcome.round,
        &[
            ("accuracy", outcome.accuracy),
            ("payment", outcome.payment_total),
            ("spent", spent),
            ("participants", outcome.num_participants() as f64),
            ("round_time", outcome.round_time),
            ("idle_time", outcome.idle_time),
            ("time_efficiency", outcome.time_efficiency),
            ("remaining_budget", outcome.remaining_budget),
        ],
    );
    chiron_telemetry::histogram_record("chiron.round.payment", outcome.payment_total);
}

/// The paper's hierarchical mechanism: an exterior PPO agent paces the
/// budget by choosing the round's total price, and an inner PPO agent
/// allocates it across nodes for time consistency (Section V).
///
/// # Examples
///
/// ```
/// use chiron::{Chiron, ChironConfig, Mechanism};
/// use chiron_fedsim::{EdgeLearningEnv, EnvConfig};
/// use chiron_data::DatasetKind;
///
/// let mut env = EdgeLearningEnv::new(
///     EnvConfig::paper_small(DatasetKind::MnistLike, 40.0), 0);
/// let mut mech = Chiron::new(&env, ChironConfig::fast(), 0);
/// let rewards = mech.train(&mut env, 2);
/// assert_eq!(rewards.len(), 2);
/// ```
pub struct Chiron {
    pub(crate) config: ChironConfig,
    params: MechanismParams,
    pub(crate) exterior: PpoAgent,
    pub(crate) inner: PpoAgent,
    pub(crate) state: ExteriorState,
    total_price_cap: f64,
    pub(crate) episodes_trained: usize,
}

impl Chiron {
    /// Builds the two agents sized for `env`'s fleet.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid.
    pub fn new(env: &EdgeLearningEnv, config: ChironConfig, seed: u64) -> Self {
        config.validate();
        let state = ExteriorState::new(env, config.history_window);
        let n = env.num_nodes();
        let exterior = PpoAgent::new(state.dim(), 1, &config.hidden, config.exterior_ppo, seed);
        let inner_dim = match config.inner_state {
            InnerStateMode::PaperScalar => 1,
            InnerStateMode::WithNodeTimes => 1 + n,
        };
        let inner = PpoAgent::new(
            inner_dim,
            n,
            &config.hidden,
            config.inner_ppo,
            seed ^ 0x1AA1,
        );
        let total_price_cap = env.total_price_cap();
        let params = MechanismParams {
            seed,
            lambda: config.lambda,
        };
        Self {
            config,
            params,
            exterior,
            inner,
            state,
            total_price_cap,
            episodes_trained: 0,
        }
    }

    /// The mechanism configuration.
    pub fn config(&self) -> &ChironConfig {
        &self.config
    }

    /// Episodes trained so far.
    pub fn episodes_trained(&self) -> usize {
        self.episodes_trained
    }

    /// Maps the exterior agent's raw scalar to a total price in
    /// `[min_fraction, 1]·Σ price_cap` (Section V-A's exterior action).
    fn map_total_price(&self, raw: f64) -> f64 {
        let squashed = 1.0 / (1.0 + (-raw).exp());
        let f = self.config.min_total_fraction + (1.0 - self.config.min_total_fraction) * squashed;
        f * self.total_price_cap
    }

    /// Maps the inner agent's raw vector to allocation proportions via
    /// softmax (`Σ pr_i = 1`) and combines with the total price (Eqn. 13).
    fn allocate(total: f64, raw: &[f64]) -> Vec<f64> {
        let max = raw.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        let exps: Vec<f64> = raw.iter().map(|&x| (x - max).exp()).collect();
        let z: f64 = exps.iter().sum();
        exps.into_iter().map(|e| total * e / z).collect()
    }

    /// One joint hierarchical decision. Returns
    /// `(exterior_raw, exterior_logp, inner_state, inner_raw, inner_logp, prices)`.
    #[allow(clippy::type_complexity)]
    fn decide(&mut self, explore: bool) -> (Vec<f64>, f64, Vec<f64>, Vec<f64>, f64, Vec<f64>) {
        let s_e = self.state.vector();
        let (a_e, lp_e) = if explore {
            self.exterior.act(&s_e)
        } else {
            (self.exterior.act_deterministic(&s_e), 0.0)
        };
        let p_total = self.map_total_price(a_e[0]);
        let mut s_i = vec![p_total / self.total_price_cap];
        if self.config.inner_state == InnerStateMode::WithNodeTimes {
            s_i.extend(self.state.latest_times_normalized());
        }
        let (a_i, lp_i) = if explore {
            self.inner.act(&s_i)
        } else {
            (self.inner.act_deterministic(&s_i), 0.0)
        };
        let prices = Self::allocate(p_total, &a_i);
        (a_e, lp_e, s_i, a_i, lp_i, prices)
    }
}

/// A serializable snapshot of a trained [`Chiron`] mechanism: both agents'
/// parameters plus the training counter. Restore into a `Chiron` built for
/// an identically shaped environment (same node count, same history
/// window, same hidden sizes).
///
/// # Examples
///
/// ```
/// use chiron::{Chiron, ChironConfig, EpisodeRun, Mechanism};
/// use chiron_fedsim::{EdgeLearningEnv, EnvConfig};
/// use chiron_data::DatasetKind;
///
/// let mut env = EdgeLearningEnv::new(
///     EnvConfig::paper_small(DatasetKind::MnistLike, 40.0), 0);
/// let mut mech = Chiron::new(&env, ChironConfig::fast(), 0);
/// mech.train(&mut env, 2);
/// let json = mech.snapshot().to_json();
///
/// let snap = chiron::ChironSnapshot::from_json(&json).expect("valid");
/// let mut twin = Chiron::new(&env, ChironConfig::fast(), 7);
/// snap.restore(&mut twin).expect("same shape");
/// let (a, _) = mech.run_episode(&mut env);
/// let (b, _) = twin.run_episode(&mut env);
/// assert_eq!(a.rounds, b.rounds);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ChironSnapshot {
    /// Exterior agent parameters.
    pub exterior: AgentSnapshot,
    /// Inner agent parameters.
    pub inner: AgentSnapshot,
    /// Episodes trained at capture time.
    pub episodes_trained: usize,
}

impl ChironSnapshot {
    /// Serializes to JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string(self).expect("snapshot serialization is infallible")
    }

    /// Parses a JSON snapshot.
    ///
    /// # Errors
    ///
    /// Returns [`SnapshotError`](chiron_drl::SnapshotError) (with the
    /// parse error as its [`source`](std::error::Error::source)) on
    /// malformed input.
    pub fn from_json(json: &str) -> Result<Self, chiron_drl::SnapshotError> {
        serde_json::from_str(json).map_err(chiron_drl::SnapshotError::from)
    }

    /// Restores into `mechanism`.
    ///
    /// # Errors
    ///
    /// Returns [`CheckpointError::ArchitectureMismatch`] if either agent's
    /// networks differ in shape.
    pub fn restore(&self, mechanism: &mut Chiron) -> Result<(), CheckpointError> {
        self.exterior.restore(&mut mechanism.exterior)?;
        self.inner.restore(&mut mechanism.inner)?;
        mechanism.episodes_trained = self.episodes_trained;
        Ok(())
    }
}

impl Chiron {
    /// Captures a serializable snapshot of the trained mechanism.
    pub fn snapshot(&mut self) -> ChironSnapshot {
        ChironSnapshot {
            exterior: self.exterior.snapshot("chiron-exterior"),
            inner: self.inner.snapshot("chiron-inner"),
            episodes_trained: self.episodes_trained,
        }
    }
}

impl Mechanism for Chiron {
    fn name(&self) -> String {
        "chiron".to_string()
    }

    fn params(&self) -> MechanismParams {
        self.params
    }

    fn begin_episode(&mut self, env: &EdgeLearningEnv) {
        self.state.reset(env);
    }

    fn decide_prices(&mut self, _env: &EdgeLearningEnv, explore: bool) -> Vec<f64> {
        self.decide(explore).5
    }

    fn observe(&mut self, outcome: &RoundOutcome, prices: &[f64]) {
        self.state.record_round(outcome, prices);
    }

    /// Algorithm 1: roll episodes, storing exterior and inner transitions
    /// in separate buffers, and run the M-epoch PPO update of both agents
    /// when the budget is exhausted.
    fn train(&mut self, env: &mut EdgeLearningEnv, episodes: usize) -> Vec<f64> {
        let mut episode_rewards = Vec::with_capacity(episodes);
        let mut buf_e = RolloutBuffer::new();
        let mut buf_i = RolloutBuffer::new();
        for _ in 0..episodes {
            episode_rewards.push(self.train_one_episode(env, &mut buf_e, &mut buf_i, None));
        }
        episode_rewards
    }
}

impl Chiron {
    /// One training episode of Algorithm 1: roll until budget exhaustion,
    /// store both agents' transitions, update both agents, bump counters.
    /// Resilience events (from the environment and from rolled-back PPO
    /// updates) are appended to `log` when one is supplied; logging never
    /// touches any RNG, so a logged run is bitwise-identical to an
    /// unlogged one.
    pub(crate) fn train_one_episode(
        &mut self,
        env: &mut EdgeLearningEnv,
        buf_e: &mut RolloutBuffer,
        buf_i: &mut RolloutBuffer,
        mut log: Option<&mut EventLog>,
    ) -> f64 {
        let n = env.num_nodes() as f64;
        let episode = self.episodes_trained;
        let _episode_span = chiron_telemetry::span("episode");
        env.reset();
        self.state.reset(env);
        let mut episode_reward = 0.0;
        let mut spent = 0.0;

        loop {
            let _round_span = chiron_telemetry::span("round");
            let s_e = self.state.vector();
            let (a_e, lp_e, s_i, a_i, lp_i, prices) = {
                let _pricing_span = chiron_telemetry::span("pricing");
                self.decide(true)
            };
            let outcome = env.step(&prices);
            if let Some(log) = log.as_deref_mut() {
                log.extend_from_outcome(episode, &outcome);
            }

            if outcome.status == StepStatus::BudgetExhausted {
                // The overdrawing round is discarded (Algorithm 1); the
                // previously stored transition becomes terminal.
                if !buf_e.is_empty() {
                    buf_e.mark_last_done();
                    buf_i.mark_last_done();
                }
                break;
            }

            let (mut r_e, r_i) =
                rewards_from_outcome(&outcome, self.config.lambda, self.config.time_weight);
            if outcome.num_participants() == 0 {
                r_e -= self.config.no_participation_penalty;
            }
            let r_e_scaled = r_e * self.config.exterior_reward_scale;
            let r_i_scaled = r_i * self.config.inner_reward_scale / n;

            let v_e = self.exterior.value(&s_e);
            let v_i = self.inner.value(&s_i);
            let done = outcome.done();
            buf_e.push(&s_e, &a_e, lp_e, r_e_scaled, v_e, done);
            buf_i.push(&s_i, &a_i, lp_i, r_i_scaled, v_i, done);
            episode_reward += r_e_scaled;
            spent += outcome.payment_total;
            emit_round_event(&outcome, spent);

            self.state.record_round(&outcome, &prices);
            if done {
                break;
            }
        }

        if !buf_e.is_empty() {
            let skipped_e = self.exterior.skipped_updates();
            let skipped_i = self.inner.skipped_updates();
            self.exterior.update(buf_e);
            self.inner.update(buf_i);
            // Rollbacks are telemetry events at their creation site; the
            // EventLog, when attached, is the in-memory view of the same
            // occurrences.
            if self.exterior.skipped_updates() > skipped_e {
                let ev = ResilienceEvent::UpdateRolledBack {
                    agent: RolledBackAgent::Exterior,
                };
                ev.emit(0);
                if let Some(log) = log.as_deref_mut() {
                    log.push(episode, 0, ev);
                }
            }
            if self.inner.skipped_updates() > skipped_i {
                let ev = ResilienceEvent::UpdateRolledBack {
                    agent: RolledBackAgent::Inner,
                };
                ev.emit(0);
                if let Some(log) = log {
                    log.push(episode, 0, ev);
                }
            }
        }
        static EPISODES: chiron_telemetry::Counter =
            chiron_telemetry::Counter::new("chiron.episodes");
        EPISODES.add(1);
        chiron_telemetry::histogram_record("chiron.episode.reward", episode_reward);
        self.episodes_trained += 1;
        if self
            .episodes_trained
            .is_multiple_of(self.config.lr_decay_every)
        {
            self.exterior.decay_learning_rate(self.config.lr_decay);
            self.inner.decay_learning_rate(self.config.lr_decay);
        }
        episode_reward
    }
}

impl std::fmt::Debug for Chiron {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "Chiron({} episodes trained, exterior {:?}, inner {:?})",
            self.episodes_trained, self.exterior, self.inner
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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

    #[test]
    fn allocate_is_a_distribution_times_total() {
        let prices = Chiron::allocate(10.0, &[0.0, 0.0, 0.0, 1.0]);
        let sum: f64 = prices.iter().sum();
        assert!((sum - 10.0).abs() < 1e-9);
        assert!(prices[3] > prices[0]);
        assert!(prices.iter().all(|&p| p > 0.0));
    }

    #[test]
    fn total_price_mapping_respects_bounds() {
        let e = env(50.0, 0);
        let mech = Chiron::new(&e, ChironConfig::fast(), 0);
        let lo = mech.map_total_price(-100.0);
        let hi = mech.map_total_price(100.0);
        let cap = e.total_price_cap();
        assert!((lo - cap * mech.config.min_total_fraction).abs() < cap * 1e-6);
        assert!((hi - cap).abs() < cap * 1e-6);
        assert!(mech.map_total_price(0.0) > lo && mech.map_total_price(0.0) < hi);
    }

    #[test]
    fn training_runs_and_reports_rewards() {
        let mut e = env(40.0, 1);
        let mut mech = Chiron::new(&e, ChironConfig::fast(), 1);
        let rewards = mech.train(&mut e, 3);
        assert_eq!(rewards.len(), 3);
        assert!(rewards.iter().all(|r| r.is_finite()));
        assert_eq!(mech.episodes_trained(), 3);
    }

    #[test]
    fn evaluation_episode_respects_budget() {
        let budget = 60.0;
        let mut e = env(budget, 2);
        let mut mech = Chiron::new(&e, ChironConfig::fast(), 2);
        mech.train(&mut e, 2);
        let (summary, records) = mech.run_episode(&mut e);
        assert!(summary.spent <= budget + 1e-6);
        assert_eq!(summary.rounds, records.len());
        if let Some(last) = records.last() {
            assert!((last.spent - summary.spent).abs() < 1e-9);
            assert!(summary.final_accuracy >= records[0].accuracy - 0.05);
        }
    }

    #[test]
    fn deterministic_evaluation_is_repeatable() {
        let mut e = env(50.0, 3);
        let mut mech = Chiron::new(&e, ChironConfig::fast(), 3);
        mech.train(&mut e, 2);
        let (s1, _) = mech.run_episode(&mut e);
        let (s2, _) = mech.run_episode(&mut e);
        assert_eq!(s1.rounds, s2.rounds);
        assert!((s1.final_accuracy - s2.final_accuracy).abs() < 1e-12);
    }

    #[test]
    fn lambda_flows_into_summary_utility() {
        let mut e = env(50.0, 4);
        let mut cfg = ChironConfig::fast();
        cfg.lambda = 1234.0;
        let mut mech = Chiron::new(&e, cfg, 4);
        let (summary, _) = mech.run_episode(&mut e);
        let expected = 1234.0 * summary.final_accuracy - summary.total_time;
        assert!((summary.server_utility - expected).abs() < 1e-9);
    }
}
