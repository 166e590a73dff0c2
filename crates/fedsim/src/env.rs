//! The budget-bounded edge-learning environment that incentive mechanisms
//! drive, one priced round at a time.

use crate::faults::{
    FaultDraw, FaultProcess, FaultProcessConfig, FaultSchedule, FaultScheduleError,
};
use crate::fleet::{Fleet, FleetConfig};
use crate::metrics::ResilienceEvent;
use crate::oracle::{AccuracyOracle, CurveOracle, OracleState, OracleStateError, RoundContext};
use crate::{BudgetLedger, EdgeNode, NodeResponse};
use chiron_data::{DatasetKind, DatasetSpec};
use chiron_tensor::{RngState, TensorRng};
use serde::{Deserialize, Serialize};
use std::sync::{Arc, OnceLock};

/// Round-to-round variation of each node's uplink.
///
/// Eqn. 7 of the paper indexes the bandwidth by round (`B_{i,k}`): real
/// radio links fade. `Static` freezes each node's draw for the whole run
/// (the paper's experimental simplification); `LogNormal` multiplies the
/// base upload time each round by a mean-one log-normal factor with shape
/// `sigma`, reproducing bursty uplinks.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum ChannelVariation {
    /// Upload times are fixed per node (the paper's setting).
    Static,
    /// Per-round multiplicative log-normal fading with shape `sigma`
    /// (0.3 ≈ occasional 2× slowdowns; the multiplier has mean 1 so the
    /// *average* economics are unchanged).
    LogNormal {
        /// Log-space standard deviation; must be positive.
        sigma: f64,
    },
}

/// Which nodes the server touches each round.
///
/// The paper evaluates fleets of at most 100 nodes, where pricing every
/// node every round is fine. At fleet scale (100k–1M nodes) the server
/// only ever selects a small subset per round — `Sampled` makes
/// [`EdgeLearningEnv::step`] do O(selected) work instead of O(fleet).
///
/// The selection for round `k` is a pure function of the environment
/// seed and `k` (see [`EdgeLearningEnv::selection_for`]), so sampled
/// episodes replay bitwise-identically across resets, restores, and
/// thread counts.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum Participation {
    /// Every node is priced every round (the paper's setting).
    #[default]
    Full,
    /// A uniform-without-replacement sample of `per_round` nodes is
    /// priced each round (ascending node order). `per_round ≥ fleet`
    /// degenerates to `Full`.
    Sampled {
        /// Nodes selected per round; must be positive.
        per_round: usize,
    },
}

/// Environment configuration: fleet, dataset, local epochs, budget.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct EnvConfig {
    /// Fleet generation parameters.
    pub fleet: FleetConfig,
    /// Dataset profile (drives both economics via `d_i` and the oracle).
    pub dataset: DatasetSpec,
    /// Local epochs per round (`σ`; the paper uses 5).
    pub sigma: u32,
    /// Total budget `η`.
    pub budget: f64,
    /// Evaluation-noise std of the accuracy oracle (0 ⇒ deterministic).
    pub oracle_noise: f64,
    /// Safety cap on recorded rounds per episode.
    pub max_rounds: usize,
    /// Round-to-round uplink variation.
    pub channel: ChannelVariation,
    /// Per-round participant selection policy.
    pub participation: Participation,
}

/// An [`EnvConfig`] field failed validation at
/// [`EnvConfigBuilder::build`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EnvConfigError {
    /// Name of the field that failed validation.
    pub field: &'static str,
    /// Human-readable constraint that was violated.
    pub reason: String,
}

impl std::fmt::Display for EnvConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} {}", self.field, self.reason)
    }
}

impl std::error::Error for EnvConfigError {}

/// Builder for [`EnvConfig`], seeded with the paper's small-scale
/// setting (5 nodes, MNIST-like, budget 100). Validation happens once,
/// at [`EnvConfigBuilder::build`].
///
/// ```
/// use chiron_fedsim::EnvConfig;
/// use chiron_data::DatasetKind;
/// let cfg = EnvConfig::builder()
///     .dataset(DatasetKind::Cifar10Like)
///     .nodes(10)
///     .budget(60.0)
///     .build()
///     .unwrap();
/// assert_eq!(cfg.fleet.nodes, 10);
/// ```
#[derive(Debug, Clone)]
pub struct EnvConfigBuilder {
    inner: EnvConfig,
}

impl EnvConfigBuilder {
    /// Dataset profile by kind (also resets the derived oracle spec).
    pub fn dataset(mut self, kind: DatasetKind) -> Self {
        self.inner.dataset = DatasetSpec::for_kind(kind);
        self
    }

    /// Fleet size, keeping the paper's per-node parameter ranges.
    pub fn nodes(mut self, nodes: usize) -> Self {
        self.inner.fleet = FleetConfig::paper(nodes);
        self
    }

    /// Full fleet generation parameters (overrides [`Self::nodes`]).
    pub fn fleet(mut self, fleet: FleetConfig) -> Self {
        self.inner.fleet = fleet;
        self
    }

    /// Local epochs per round (`σ`; the paper uses 5).
    pub fn sigma(mut self, sigma: u32) -> Self {
        self.inner.sigma = sigma;
        self
    }

    /// Total budget `η`.
    pub fn budget(mut self, budget: f64) -> Self {
        self.inner.budget = budget;
        self
    }

    /// Evaluation-noise std of the accuracy oracle (0 ⇒ deterministic).
    pub fn oracle_noise(mut self, noise: f64) -> Self {
        self.inner.oracle_noise = noise;
        self
    }

    /// Safety cap on recorded rounds per episode.
    pub fn max_rounds(mut self, max_rounds: usize) -> Self {
        self.inner.max_rounds = max_rounds;
        self
    }

    /// Round-to-round uplink variation.
    pub fn channel(mut self, channel: ChannelVariation) -> Self {
        self.inner.channel = channel;
        self
    }

    /// Per-round participant selection policy.
    pub fn participation(mut self, participation: Participation) -> Self {
        self.inner.participation = participation;
        self
    }

    /// Convenience for [`Participation::Sampled`]: price a uniform sample
    /// of `per_round` nodes each round.
    pub fn sample_per_round(mut self, per_round: usize) -> Self {
        self.inner.participation = Participation::Sampled { per_round };
        self
    }

    /// Validates the assembled configuration and returns it.
    pub fn build(self) -> Result<EnvConfig, EnvConfigError> {
        let err = |field, reason: &str| EnvConfigError {
            field,
            reason: reason.to_string(),
        };
        let c = &self.inner;
        if c.fleet.nodes == 0 {
            return Err(err("nodes", "must be positive"));
        }
        if !(c.budget > 0.0 && c.budget.is_finite()) {
            return Err(err("budget", "must be positive and finite"));
        }
        if c.sigma == 0 {
            return Err(err("sigma", "must be positive"));
        }
        if c.max_rounds == 0 {
            return Err(err("max_rounds", "must be positive"));
        }
        if !(c.oracle_noise >= 0.0 && c.oracle_noise.is_finite()) {
            return Err(err("oracle_noise", "must be non-negative and finite"));
        }
        if c.participation == (Participation::Sampled { per_round: 0 }) {
            return Err(err("participation", "sampled per_round must be positive"));
        }
        Ok(self.inner)
    }
}

impl EnvConfig {
    /// Builder seeded with [`EnvConfig::paper_small`] defaults
    /// (MNIST-like, budget 100).
    pub fn builder() -> EnvConfigBuilder {
        EnvConfigBuilder {
            inner: Self::paper_small(DatasetKind::MnistLike, 100.0),
        }
    }

    /// The paper's small-scale setting: 5 nodes, σ = 5.
    pub fn paper_small(kind: DatasetKind, budget: f64) -> Self {
        Self {
            fleet: FleetConfig::paper(5),
            dataset: DatasetSpec::for_kind(kind),
            sigma: 5,
            budget,
            oracle_noise: 0.004,
            max_rounds: 500,
            channel: ChannelVariation::Static,
            participation: Participation::Full,
        }
    }

    /// The paper's scalability setting: 100 nodes, σ = 5.
    pub fn paper_large(kind: DatasetKind, budget: f64) -> Self {
        Self {
            fleet: FleetConfig::paper(100),
            dataset: DatasetSpec::for_kind(kind),
            sigma: 5,
            budget,
            oracle_noise: 0.004,
            max_rounds: 500,
            channel: ChannelVariation::Static,
            participation: Participation::Full,
        }
    }
}

/// PS-side countermeasure configuration. The default disables every
/// countermeasure, so an environment without an explicit
/// [`EdgeLearningEnv::set_resilience`] call behaves exactly as before.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ResilienceConfig {
    /// Per-round deadline as a multiple of the Lemma-1 equalized round
    /// time for the posted total price: a responder finishing later than
    /// `slack × T_eq` is evicted (excluded from aggregation, not paid).
    /// `None` disables the deadline.
    pub deadline_slack: Option<f64>,
    /// Minimum participants required to aggregate; below it the round is
    /// degraded gracefully (accuracy carried, payments refunded). `0`
    /// disables the quorum rule.
    pub quorum: usize,
    /// How many times a zero-responder price profile is reposted with
    /// scaled-up prices before the round proceeds empty. `0` disables
    /// retries.
    pub max_price_retries: usize,
    /// Multiplier applied to the posted prices per retry attempt
    /// (compounded), e.g. `1.5` ⇒ 1.5×, 2.25×, ….
    pub retry_backoff: f64,
    /// When the round's payments would overdraw the budget, scale them down
    /// so the cumulative spend lands exactly on η and record the round as
    /// [`StepStatus::FinalRoundClamped`] instead of discarding it.
    pub clamp_final_payment: bool,
}

impl Default for ResilienceConfig {
    fn default() -> Self {
        Self {
            deadline_slack: None,
            quorum: 0,
            max_price_retries: 0,
            retry_backoff: 1.5,
            clamp_final_payment: false,
        }
    }
}

impl ResilienceConfig {
    /// Builds the countermeasure knobs from an already-parsed
    /// [`RuntimeConfig`](chiron_telemetry::RuntimeConfig) (the CLI reads
    /// the environment once at startup and passes it down):
    /// `CHIRON_QUORUM` (minimum participants) and `CHIRON_DEADLINE_SLACK`
    /// (deadline multiplier, must be ≥ 1 to take effect). Unset or
    /// malformed variables leave the default (off).
    pub fn from_runtime(rt: &chiron_telemetry::RuntimeConfig) -> Self {
        let mut cfg = Self::default();
        if let Some(q) = rt.quorum {
            cfg.quorum = q;
        }
        if let Some(s) = rt.deadline_slack {
            if s >= 1.0 && s.is_finite() {
                cfg.deadline_slack = Some(s);
            }
        }
        cfg
    }
}

/// Emits every resilience event of a finished `step` into the telemetry
/// stream, stamped with the outcome's round (no-op while disabled). Called
/// once per `step` return path — the creation site of these events — so a
/// caller-attached [`EventLog`](crate::EventLog) never double-emits.
fn emit_round_events(events: &[ResilienceEvent], round: usize) {
    if !chiron_telemetry::enabled() {
        return;
    }
    for ev in events {
        ev.emit(round);
    }
}

/// Why a `step` did or did not record a round.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StepStatus {
    /// The round was recorded; the episode continues.
    Ok,
    /// The round was recorded and the episode hit the round cap.
    RoundCapReached,
    /// The round's payments would overdraw the budget: per Algorithm 1 the
    /// round is **discarded** (no accuracy progress, nothing recorded) and
    /// the episode ends.
    BudgetExhausted,
    /// The round's payments would have overdrawn the budget, but
    /// [`ResilienceConfig::clamp_final_payment`] scaled them down to the
    /// remaining budget: the round **was recorded**, `Σ p·ζ = η` exactly,
    /// and the episode ends.
    FinalRoundClamped,
}

/// Everything observable about one `step`.
#[derive(Debug, Clone)]
pub struct RoundOutcome {
    /// Whether the round was recorded and whether the episode ended.
    pub status: StepStatus,
    /// 1-based index of this round (unchanged if the round was discarded).
    pub round: usize,
    /// Global node indices selected (and priced) this round, ascending.
    /// Under [`Participation::Full`] this is `0..num_nodes`.
    pub selection: Vec<usize>,
    /// Per-**selected**-node responses, aligned with `selection`
    /// (`responses[j]` belongs to node `selection[j]`); `None` for nodes
    /// that declined to participate.
    pub responses: Vec<Option<NodeResponse>>,
    /// Global accuracy after the round (unchanged if discarded).
    pub accuracy: f64,
    /// Global accuracy before the round.
    pub prev_accuracy: f64,
    /// Round wall-clock `T_k = max_i T_{i,k}` over participants (0 if none).
    pub round_time: f64,
    /// `Σ_i (T_k − T_{i,k})` over participants.
    pub idle_time: f64,
    /// Time efficiency (Eqn. 16) over participants.
    pub time_efficiency: f64,
    /// `Σ_i p_{i,k}·ζ_{i,k}` actually charged (0 if discarded).
    pub payment_total: f64,
    /// Budget remaining after the round.
    pub remaining_budget: f64,
    /// Resilience events that occurred during this step (empty unless a
    /// fault process or countermeasure is active).
    pub events: Vec<ResilienceEvent>,
}

impl RoundOutcome {
    /// Accuracy improvement `A(ω_k) − A(ω_{k−1})` this round.
    pub fn accuracy_delta(&self) -> f64 {
        self.accuracy - self.prev_accuracy
    }

    /// Total times of participating nodes.
    pub fn participant_times(&self) -> Vec<f64> {
        self.responses
            .iter()
            .flatten()
            .map(|r| r.total_time)
            .collect()
    }

    /// Total times of **all selected** nodes, with `0.0` for nodes that
    /// declined to participate — the per-node `T_{i,k}` exactly as Eqn. 15
    /// sums them, where a starved node idles for the whole round.
    pub fn all_node_times(&self) -> Vec<f64> {
        self.responses
            .iter()
            .map(|r| r.as_ref().map_or(0.0, |x| x.total_time))
            .collect()
    }

    /// Number of participating nodes.
    pub fn num_participants(&self) -> usize {
        self.responses.iter().flatten().count()
    }

    /// `(global node index, response)` for every participating node.
    pub fn participants(&self) -> impl Iterator<Item = (usize, &NodeResponse)> {
        self.selection
            .iter()
            .zip(&self.responses)
            .filter_map(|(&i, r)| r.as_ref().map(|resp| (i, resp)))
    }

    /// `true` if the episode is over (budget exhausted, clamped final
    /// round, or round cap).
    pub fn done(&self) -> bool {
        matches!(
            self.status,
            StepStatus::BudgetExhausted
                | StepStatus::RoundCapReached
                | StepStatus::FinalRoundClamped
        )
    }
}

/// The edge-learning environment: a fixed heterogeneous fleet, a budget
/// ledger, and an accuracy oracle, advanced by posting per-node prices.
///
/// The environment is deliberately reward-free: Chiron and each baseline
/// compute their own rewards (Eqns. 14/15 vs. myopic objectives) from the
/// returned [`RoundOutcome`].
///
/// # Examples
///
/// ```
/// use chiron_fedsim::{EdgeLearningEnv, EnvConfig};
/// use chiron_data::DatasetKind;
///
/// let mut env = EdgeLearningEnv::new(EnvConfig::paper_small(DatasetKind::MnistLike, 50.0), 1);
/// let prices: Vec<f64> = (0..env.num_nodes())
///     .map(|i| env.node(i).price_cap(env.sigma()) * 0.5)
///     .collect();
/// let out = env.step(&prices);
/// assert!(out.accuracy >= out.prev_accuracy - 0.05);
/// env.reset();
/// assert_eq!(env.round(), 0);
/// ```
pub struct EdgeLearningEnv {
    config: EnvConfig,
    fleet: Fleet,
    // Materialized per-node views, built lazily for the O(fleet) code
    // paths that still want a `&[EdgeNode]` (Lemma 1, baselines). The
    // O(selected) hot path never touches it.
    nodes_cache: OnceLock<Vec<EdgeNode>>,
    weights: Vec<f64>,
    oracle: Box<dyn AccuracyOracle>,
    ledger: BudgetLedger,
    // Immutable per episode, shared with snapshots instead of cloned.
    faults: Arc<FaultSchedule>,
    fault_process: Option<FaultProcess>,
    resilience: ResilienceConfig,
    channel_rng: TensorRng,
    channel_seed: u64,
    selection_seed: u64,
    round: usize,
    done: bool,
}

impl EdgeLearningEnv {
    /// Builds the environment with the default fast [`CurveOracle`].
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid; [`EdgeLearningEnv::try_new`]
    /// is the non-panicking equivalent.
    pub fn new(config: EnvConfig, seed: u64) -> Self {
        match Self::try_new(config, seed) {
            Ok(env) => env,
            Err(e) => panic!("{e}"),
        }
    }

    /// Builds the environment with the default fast [`CurveOracle`],
    /// returning a typed error instead of panicking on a bad config.
    pub fn try_new(config: EnvConfig, seed: u64) -> Result<Self, EnvConfigError> {
        let oracle = Box::new(CurveOracle::new(
            config.dataset.curve,
            config.oracle_noise,
            seed ^ 0x0AC1E,
        ));
        Self::try_with_oracle(config, oracle, seed)
    }

    /// Builds the environment with a caller-provided oracle (e.g. the real
    /// [`crate::oracle::TrainingOracle`]).
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid (zero nodes, bad upload
    /// model, dataset smaller than the fleet);
    /// [`EdgeLearningEnv::try_with_oracle`] is the non-panicking
    /// equivalent.
    pub fn with_oracle(config: EnvConfig, oracle: Box<dyn AccuracyOracle>, seed: u64) -> Self {
        match Self::try_with_oracle(config, oracle, seed) {
            Ok(env) => env,
            Err(e) => panic!("{e}"),
        }
    }

    /// Builds the environment with a caller-provided oracle, returning a
    /// typed error instead of panicking on a bad config.
    pub fn try_with_oracle(
        config: EnvConfig,
        oracle: Box<dyn AccuracyOracle>,
        seed: u64,
    ) -> Result<Self, EnvConfigError> {
        if config.participation == (Participation::Sampled { per_round: 0 }) {
            return Err(EnvConfigError {
                field: "participation",
                reason: "sampled per_round must be positive".to_string(),
            });
        }
        if !(config.budget > 0.0 && config.budget.is_finite()) {
            return Err(EnvConfigError {
                field: "budget",
                reason: "must be positive and finite".to_string(),
            });
        }
        let fleet = Fleet::generate(&config.fleet, &config.dataset, seed)?;
        let weights = fleet.data_weights();
        let ledger = BudgetLedger::new(config.budget);
        let channel_seed = seed ^ 0xC4A7;
        Ok(Self {
            config,
            fleet,
            nodes_cache: OnceLock::new(),
            weights,
            oracle,
            ledger,
            faults: Arc::new(FaultSchedule::none()),
            fault_process: None,
            resilience: ResilienceConfig::default(),
            channel_rng: TensorRng::seed_from(channel_seed),
            channel_seed,
            selection_seed: seed ^ 0x5E1EC7,
            round: 0,
            done: false,
        })
    }

    /// Installs a failure-injection schedule (see [`crate::faults`]).
    /// Faults persist across [`EdgeLearningEnv::reset`] — each episode
    /// replays the same perturbations.
    ///
    /// # Errors
    ///
    /// Returns [`FaultScheduleError::NodeOutOfRange`] if any fault targets
    /// a node index outside the fleet; the previous schedule is kept.
    pub fn set_faults(&mut self, faults: FaultSchedule) -> Result<(), FaultScheduleError> {
        faults.validate_nodes(self.fleet.len())?;
        self.faults = Arc::new(faults);
        Ok(())
    }

    /// The installed failure-injection schedule.
    pub fn faults(&self) -> &FaultSchedule {
        &self.faults
    }

    /// Installs (or with `None`, removes) a stochastic fault process. Like
    /// the schedule, the process is a pure function of `(seed, round)` and
    /// persists across [`EdgeLearningEnv::reset`], so every episode replays
    /// the same fault trajectory.
    pub fn set_fault_process(&mut self, config: Option<FaultProcessConfig>) {
        self.fault_process = config.map(|c| FaultProcess::new(c, self.fleet.len()));
    }

    /// The installed fault-process configuration, if any.
    pub fn fault_process_config(&self) -> Option<&FaultProcessConfig> {
        self.fault_process.as_ref().map(|p| p.config())
    }

    /// Configures the PS-side countermeasures (deadline, quorum, price
    /// retry, final-round clamp).
    pub fn set_resilience(&mut self, resilience: ResilienceConfig) {
        self.resilience = resilience;
    }

    /// The active countermeasure configuration.
    pub fn resilience(&self) -> &ResilienceConfig {
        &self.resilience
    }

    /// Number of edge nodes.
    pub fn num_nodes(&self) -> usize {
        self.fleet.len()
    }

    /// Local epochs per round.
    pub fn sigma(&self) -> u32 {
        self.config.sigma
    }

    /// The environment configuration.
    pub fn config(&self) -> &EnvConfig {
        &self.config
    }

    /// The column-store fleet backing this environment.
    pub fn fleet(&self) -> &Fleet {
        &self.fleet
    }

    /// Node `i`, constructed on demand from the column store.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn node(&self, i: usize) -> EdgeNode {
        self.fleet.node(i)
    }

    /// All nodes as an array-of-structs view, materialized lazily on
    /// first call and cached (the fleet itself is immutable). The
    /// O(selected) step path never calls this; prefer
    /// [`EdgeLearningEnv::fleet`] at fleet scale.
    pub fn nodes(&self) -> &[EdgeNode] {
        self.nodes_cache.get_or_init(|| self.fleet.to_nodes())
    }

    /// The deterministic participant set for the 1-based round `round`,
    /// in ascending node order. A pure function of the constructor seed
    /// and `round` — independent of episode history, thread count, and
    /// call order — so sampled episodes replay bitwise-identically and
    /// policies can preview future selections.
    pub fn selection_for(&self, round: usize) -> Vec<usize> {
        let n = self.fleet.len();
        match self.config.participation {
            Participation::Full => (0..n).collect(),
            Participation::Sampled { per_round } => {
                if per_round >= n {
                    return (0..n).collect();
                }
                let mut rng = TensorRng::seed_from(
                    self.selection_seed ^ (round as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15),
                );
                let mut chosen = std::collections::HashSet::with_capacity(per_round);
                let mut picks = Vec::with_capacity(per_round);
                while picks.len() < per_round {
                    let i = rng.index(n);
                    if chosen.insert(i) {
                        picks.push(i);
                    }
                }
                picks.sort_unstable();
                picks
            }
        }
    }

    /// Per-node data weights `D_i/D`.
    pub fn data_weights(&self) -> &[f64] {
        &self.weights
    }

    /// Completed (recorded) rounds this episode.
    pub fn round(&self) -> usize {
        self.round
    }

    /// Budget remaining.
    pub fn remaining_budget(&self) -> f64 {
        self.ledger.remaining()
    }

    /// Total budget `η`.
    pub fn total_budget(&self) -> f64 {
        self.ledger.total()
    }

    /// Current global accuracy.
    pub fn accuracy(&self) -> f64 {
        self.oracle.accuracy()
    }

    /// `true` once the episode has ended (budget exhausted or round cap).
    pub fn is_done(&self) -> bool {
        self.done
    }

    /// Sum of per-node price caps — a natural upper bound for total-price
    /// actions.
    pub fn total_price_cap(&self) -> f64 {
        (0..self.fleet.len())
            .map(|i| self.fleet.node(i).price_cap(self.config.sigma))
            .sum()
    }

    /// Lemma-1 reference time for the round's posted fleet: the
    /// equalized round time over the **selected** nodes' unperturbed
    /// incarnations. O(selected) under sampling.
    fn equalized_reference(&self, selection: &[usize], total_posted: f64) -> f64 {
        let sigma = self.config.sigma;
        match self.config.participation {
            Participation::Full => {
                crate::lemma::equalized_round_time(self.nodes(), sigma, total_posted)
            }
            Participation::Sampled { .. } => {
                let sel: Vec<EdgeNode> = selection.iter().map(|&i| self.fleet.node(i)).collect();
                crate::lemma::equalized_round_time(&sel, sigma, total_posted)
            }
        }
    }

    /// Starts a new episode: fresh budget, reset oracle, same fleet, and
    /// the same channel-fading realization (so episodes are comparable).
    pub fn reset(&mut self) {
        self.ledger.reset();
        self.oracle.reset();
        self.channel_rng = TensorRng::seed_from(self.channel_seed);
        self.round = 0;
        self.done = false;
    }

    /// Posts per-node prices for one round and plays out the paper's
    /// protocol: nodes respond optimally (Eqn. 11 + participation
    /// constraint), the server pays `Σ p_i ζ_i`, and the oracle advances.
    ///
    /// If the payments would overdraw the budget the round is discarded and
    /// the episode ends ([`StepStatus::BudgetExhausted`]), exactly as in
    /// Algorithm 1 — unless [`ResilienceConfig::clamp_final_payment`] is
    /// set, in which case the payments are scaled down to the remaining
    /// budget and the round is recorded as
    /// [`StepStatus::FinalRoundClamped`].
    ///
    /// With a [`FaultProcess`] installed, node availability/jitter/drift
    /// draws perturb the fleet before responses are computed; with
    /// countermeasures enabled the PS then applies, in order: bounded price
    /// retry on zero responders, the Lemma-1 deadline, and the quorum rule.
    ///
    /// # Panics
    ///
    /// Panics if `prices.len()` matches neither this round's selection
    /// size nor the fleet size, any price is negative, or the episode is
    /// already done. Full-length price vectors are accepted under
    /// sampling for caller convenience — only the selected entries are
    /// read.
    pub fn step(&mut self, prices: &[f64]) -> RoundOutcome {
        assert!(!self.done, "episode is done; call reset()");
        let executing_round = self.round + 1;
        let selection = self.selection_for(executing_round);
        let m = selection.len();
        let n = self.fleet.len();
        assert!(
            prices.len() == m || prices.len() == n,
            "got {} prices for {} selected of {} nodes",
            prices.len(),
            m,
            n
        );
        let full_prices = prices.len() == n;
        // Price for selection slot `j` (identity mapping under `Full`).
        let price_of = |j: usize| {
            if full_prices {
                prices[selection[j]]
            } else {
                prices[j]
            }
        };
        let total_posted: f64 = (0..m).map(price_of).sum();

        let mut events: Vec<ResilienceEvent> = Vec::new();
        // Telemetry: the local-training phase covers fault/channel draws,
        // node responses, and the node-side countermeasures (price retry,
        // deadline eviction); it closes before the PS-side bookkeeping.
        let lt_span = chiron_telemetry::span("local_training");
        // Per-round channel fading multipliers, aligned with `selection`
        // (drawn even for nodes that end up declining, so the stream stays
        // aligned across policies). Full participation keeps the
        // historical sequential stream; sampling switches to stateless
        // counter-based draws keyed by `(node, round)` so untouched nodes
        // cost nothing and the stream is independent of selection order.
        let fading: Vec<f64> = match self.config.channel {
            ChannelVariation::Static => vec![1.0; m],
            ChannelVariation::LogNormal { sigma } => {
                assert!(sigma > 0.0, "fading sigma must be positive");
                match self.config.participation {
                    Participation::Full => (0..n)
                        .map(|_| {
                            // exp(σz − σ²/2) has mean exactly 1.
                            (sigma * self.channel_rng.normal() - 0.5 * sigma * sigma).exp()
                        })
                        .collect(),
                    Participation::Sampled { .. } => selection
                        .iter()
                        .map(|&i| {
                            let z = crate::faults::counter_normal(
                                self.channel_seed,
                                i as u64,
                                executing_round as u64,
                            );
                            (sigma * z - 0.5 * sigma * sigma).exp()
                        })
                        .collect(),
                }
            }
        };

        // Stochastic fault draws for this round's selection, plus
        // availability transition events relative to the previous round.
        // Each selected node advances its own lazy chain; unselected
        // nodes are never instantiated.
        let draws: Vec<FaultDraw> = match self.fault_process.as_mut() {
            Some(process) => {
                let current: Vec<FaultDraw> = selection
                    .iter()
                    .map(|&i| process.draw(i, executing_round))
                    .collect();
                for (j, d) in current.iter().enumerate() {
                    let node = selection[j];
                    let was_up =
                        executing_round == 1 || process.draw(node, executing_round - 1).available;
                    if was_up && !d.available {
                        events.push(ResilienceEvent::FaultFired { node });
                    } else if !was_up && d.available {
                        events.push(ResilienceEvent::FaultHealed { node });
                    }
                }
                current
            }
            None => Vec::new(),
        };
        // Scheduled faults report their (statically known) boundaries too,
        // so the event log shows every perturbation source.
        for sf in self.faults.faults() {
            if sf.fault.from_round() == executing_round {
                events.push(ResilienceEvent::FaultFired {
                    node: sf.fault.node(),
                });
            }
            if sf.until_round == Some(executing_round) {
                events.push(ResilienceEvent::FaultHealed {
                    node: sf.fault.node(),
                });
            }
        }

        let sigma = self.config.sigma;
        // Fault/channel perturbations are per-round, not per-attempt: build
        // each selected node's effective incarnation once so the
        // price-retry loop below only recomputes responses instead of
        // rebuilding perturbed `EdgeNode`s on every attempt.
        let effective: Vec<Option<EdgeNode>> = selection
            .iter()
            .enumerate()
            .map(|(j, &i)| {
                let draw = draws.get(j).copied().unwrap_or_else(FaultDraw::healthy);
                if !draw.available {
                    return None;
                }
                let base = self.fleet.node(i);
                self.faults
                    .effective_node(i, executing_round, &base)
                    .map(|node| {
                        let upload_scale = fading[j] * draw.upload_factor;
                        if upload_scale == 1.0 && draw.reserve_factor == 1.0 {
                            node
                        } else {
                            let mut params = *node.params();
                            params.upload_time *= upload_scale;
                            params.reserve_utility *= draw.reserve_factor;
                            EdgeNode::new(params)
                        }
                    })
            })
            .collect();
        let respond_all = |scale: f64| -> Vec<Option<NodeResponse>> {
            effective
                .iter()
                .enumerate()
                .map(|(j, node)| {
                    node.as_ref()
                        .and_then(|nd| nd.respond(price_of(j) * scale, sigma))
                })
                .collect()
        };

        let mut responses = respond_all(1.0);

        // Countermeasure 1: bounded price retry with backoff when the
        // posted profile attracts zero responders.
        if self.resilience.max_price_retries > 0 && total_posted > 0.0 {
            let mut attempt = 0usize;
            while responses.iter().all(Option::is_none)
                && attempt < self.resilience.max_price_retries
            {
                attempt += 1;
                let backoff = self.resilience.retry_backoff.max(1.0).powi(attempt as i32);
                events.push(ResilienceEvent::PriceRetry { attempt, backoff });
                responses = respond_all(backoff);
            }
        }

        // Countermeasure 2: Lemma-1 deadline. The time-consistent optimum
        // for the posted total price is the reference; responders finishing
        // later than `slack ×` that are stragglers and get evicted (their
        // update is dropped and they are not paid).
        if let Some(slack) = self.resilience.deadline_slack {
            if total_posted > 0.0 && responses.iter().any(Option::is_some) {
                let deadline = slack * self.equalized_reference(&selection, total_posted);
                if deadline.is_finite() {
                    for (j, slot) in responses.iter_mut().enumerate() {
                        let late = slot.as_ref().is_some_and(|r| r.total_time > deadline);
                        if late {
                            let r = slot.take().expect("checked above");
                            events.push(ResilienceEvent::DeadlineEvicted {
                                node: selection[j],
                                time: r.total_time,
                                deadline,
                            });
                        }
                    }
                }
            }
        }

        let times: Vec<f64> = responses.iter().flatten().map(|r| r.total_time).collect();
        let round_time = times.iter().copied().fold(0.0f64, f64::max);
        let idle_time = crate::metrics::total_idle_time(&times);
        let time_efficiency = crate::metrics::time_efficiency(&times);
        let payment_total: f64 = responses.iter().flatten().map(|r| r.payment).sum();
        let prev_accuracy = self.oracle.accuracy();
        drop(lt_span);

        // Telemetry: per-round idle time and the Lemma-1 gap (measured
        // round time minus the time-consistent optimum for the posted
        // total). Read-only; `equalized_round_time` is a pure function.
        if chiron_telemetry::enabled() {
            chiron_telemetry::histogram_record("fedsim.round.idle_time", idle_time);
            if total_posted > 0.0 && !times.is_empty() {
                let eq = self.equalized_reference(&selection, total_posted);
                if eq.is_finite() {
                    chiron_telemetry::histogram_record("fedsim.round.lemma_gap", round_time - eq);
                }
            }
        }

        // Countermeasure 3: minimum quorum. Too few survivors ⇒ skip
        // aggregation (accuracy carried), refund every payment, but the
        // round's wall clock still passed and the round counter advances.
        let participants_now = responses.iter().flatten().count();
        if self.resilience.quorum > 0 && participants_now < self.resilience.quorum {
            events.push(ResilienceEvent::QuorumMissed {
                participants: participants_now,
                quorum: self.resilience.quorum,
            });
            self.round += 1;
            let status = if self.round >= self.config.max_rounds {
                self.done = true;
                StepStatus::RoundCapReached
            } else {
                StepStatus::Ok
            };
            emit_round_events(&events, self.round);
            return RoundOutcome {
                status,
                round: self.round,
                selection,
                responses: vec![None; m],
                accuracy: prev_accuracy,
                prev_accuracy,
                round_time,
                idle_time,
                time_efficiency,
                payment_total: 0.0,
                remaining_budget: self.ledger.remaining(),
                events,
            };
        }

        // Countermeasure 4: overdraft guard. Without it an overdraft
        // discards the round (Algorithm 1); with it the final round's
        // payments are scaled so cumulative spend lands exactly on η.
        let mut clamped = false;
        let mut payment_charged = payment_total;
        if self.ledger.charge(payment_total).is_err() {
            let available = self.ledger.remaining();
            if self.resilience.clamp_final_payment && payment_total > 0.0 && available > 0.0 {
                let scale = available / payment_total;
                for r in responses.iter_mut().flatten() {
                    r.payment *= scale;
                    r.utility = r.payment - r.energy;
                }
                self.ledger
                    .charge(available)
                    .expect("charging exactly the remaining budget cannot fail");
                events.push(ResilienceEvent::OverdraftClamped {
                    requested: payment_total,
                    available,
                });
                payment_charged = available;
                clamped = true;
            } else {
                self.done = true;
                emit_round_events(&events, self.round);
                return RoundOutcome {
                    status: StepStatus::BudgetExhausted,
                    round: self.round,
                    selection,
                    responses,
                    accuracy: prev_accuracy,
                    prev_accuracy,
                    round_time,
                    idle_time,
                    time_efficiency,
                    payment_total: 0.0,
                    remaining_budget: self.ledger.remaining(),
                    events,
                };
            }
        }

        let participants: Vec<usize> = responses
            .iter()
            .zip(&selection)
            .filter_map(|(r, &i)| r.as_ref().map(|_| i))
            .collect();
        let part_weights: Vec<f64> = participants.iter().map(|&i| self.weights[i]).collect();
        self.round += 1;
        let accuracy = {
            let _agg_span = chiron_telemetry::span("aggregation");
            self.oracle.execute_round(&RoundContext {
                round: self.round,
                participants: &participants,
                weights: &part_weights,
            })
        };

        let status = if clamped {
            self.done = true;
            StepStatus::FinalRoundClamped
        } else if self.round >= self.config.max_rounds {
            self.done = true;
            StepStatus::RoundCapReached
        } else {
            StepStatus::Ok
        };

        emit_round_events(&events, self.round);
        if chiron_telemetry::enabled() {
            chiron_telemetry::gauge_set("fedsim.budget.remaining", self.ledger.remaining());
            if self.config.budget > 0.0 {
                chiron_telemetry::histogram_record(
                    "fedsim.budget.spend_rate",
                    payment_charged / self.config.budget,
                );
            }
        }

        RoundOutcome {
            status,
            round: self.round,
            selection,
            responses,
            accuracy,
            prev_accuracy,
            round_time,
            idle_time,
            time_efficiency,
            payment_total: payment_charged,
            remaining_budget: self.ledger.remaining(),
            events,
        }
    }

    /// Snapshots everything a crash-safe resume needs: round counter,
    /// budget ledger, channel-RNG position, oracle progress, fault
    /// schedule/process, and countermeasure config. The fleet itself is
    /// rebuilt from the constructor seed by the caller, so it is not
    /// duplicated here (only its size, for validation).
    ///
    /// # Errors
    ///
    /// Returns [`EnvStateError::OracleUnsupported`] if the installed oracle
    /// does not implement state capture.
    pub fn capture_state(&self) -> Result<EnvState, EnvStateError> {
        let oracle = self.oracle.capture_state();
        if oracle == OracleState::Unsupported {
            return Err(EnvStateError::OracleUnsupported);
        }
        Ok(EnvState {
            round: self.round,
            done: self.done,
            ledger: self.ledger,
            channel_rng: self.channel_rng.state(),
            oracle,
            // Shares the immutable schedule with the live env — snapshots
            // at fleet scale cost O(1) here, not O(#faults).
            faults: Arc::clone(&self.faults),
            fault_process: self.fault_process.as_ref().map(|p| *p.config()),
            resilience: self.resilience,
            num_nodes: self.fleet.len(),
        })
    }

    /// Restores a snapshot taken by [`EdgeLearningEnv::capture_state`] on
    /// an environment built with the **same config and seed**. After a
    /// successful restore the remaining rounds replay bitwise-identically
    /// to the uninterrupted run.
    ///
    /// # Errors
    ///
    /// Returns a typed [`EnvStateError`] — never panics — when the
    /// snapshot does not fit this environment (wrong fleet size, wrong
    /// budget, malformed RNG words, oracle mismatch, or an out-of-range
    /// fault target).
    pub fn restore_state(&mut self, state: &EnvState) -> Result<(), EnvStateError> {
        if state.num_nodes != self.fleet.len() {
            return Err(EnvStateError::FleetMismatch {
                expected: self.fleet.len(),
                found: state.num_nodes,
            });
        }
        if state.ledger.total() != self.ledger.total() {
            return Err(EnvStateError::BudgetMismatch {
                expected: self.ledger.total(),
                found: state.ledger.total(),
            });
        }
        state
            .faults
            .validate_nodes(self.fleet.len())
            .map_err(EnvStateError::Faults)?;
        let channel_rng =
            TensorRng::from_state(&state.channel_rng).ok_or(EnvStateError::MalformedRng)?;
        self.oracle
            .restore_state(&state.oracle)
            .map_err(EnvStateError::Oracle)?;
        // Bump the shared pointer instead of deep-cloning the schedule.
        self.faults = Arc::clone(&state.faults);
        self.fault_process = state
            .fault_process
            .map(|c| FaultProcess::new(c, self.fleet.len()));
        self.resilience = state.resilience;
        self.ledger = state.ledger;
        self.channel_rng = channel_rng;
        self.round = state.round;
        self.done = state.done;
        Ok(())
    }
}

/// Serializable snapshot of an [`EdgeLearningEnv`]'s mutable state, for
/// full-run checkpoints (see [`EdgeLearningEnv::capture_state`]).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EnvState {
    /// Completed rounds this episode.
    pub round: usize,
    /// Whether the episode had ended.
    pub done: bool,
    /// The budget ledger (total + spent).
    pub ledger: BudgetLedger,
    /// Channel-fading RNG position.
    pub channel_rng: RngState,
    /// Oracle training progress.
    pub oracle: OracleState,
    /// Installed failure-injection schedule, shared (not cloned) with the
    /// environment it was captured from; serializes as the plain schedule.
    pub faults: Arc<FaultSchedule>,
    /// Installed stochastic fault process (config only; the runtime chains
    /// rebuild deterministically).
    pub fault_process: Option<FaultProcessConfig>,
    /// Active countermeasure configuration.
    pub resilience: ResilienceConfig,
    /// Fleet size, for validation on restore.
    pub num_nodes: usize,
}

/// Error from [`EdgeLearningEnv::restore_state`] /
/// [`EdgeLearningEnv::capture_state`].
#[derive(Debug, Clone, PartialEq)]
pub enum EnvStateError {
    /// The installed oracle does not support state capture/restore.
    OracleUnsupported,
    /// The oracle rejected the snapshot.
    Oracle(OracleStateError),
    /// The snapshot was taken on a fleet of a different size.
    FleetMismatch {
        /// This environment's fleet size.
        expected: usize,
        /// The snapshot's fleet size.
        found: usize,
    },
    /// The snapshot's budget η differs from this environment's.
    BudgetMismatch {
        /// This environment's budget.
        expected: f64,
        /// The snapshot's budget.
        found: f64,
    },
    /// The RNG snapshot has the wrong number of state words.
    MalformedRng,
    /// The snapshot's fault schedule does not fit this fleet.
    Faults(FaultScheduleError),
}

impl std::fmt::Display for EnvStateError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EnvStateError::OracleUnsupported => {
                write!(f, "the installed oracle does not support checkpointing")
            }
            EnvStateError::Oracle(e) => write!(f, "oracle state: {e}"),
            EnvStateError::FleetMismatch { expected, found } => {
                write!(
                    f,
                    "snapshot is for {found} nodes, environment has {expected}"
                )
            }
            EnvStateError::BudgetMismatch { expected, found } => {
                write!(
                    f,
                    "snapshot budget {found} differs from environment budget {expected}"
                )
            }
            EnvStateError::MalformedRng => write!(f, "malformed RNG snapshot"),
            EnvStateError::Faults(e) => write!(f, "fault schedule: {e}"),
        }
    }
}

impl std::error::Error for EnvStateError {}

impl std::fmt::Debug for EdgeLearningEnv {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "EdgeLearningEnv({} nodes, {} dataset, round {}, budget {:.2}/{:.2})",
            self.fleet.len(),
            self.config.dataset.kind,
            self.round,
            self.ledger.remaining(),
            self.ledger.total()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn env(budget: f64) -> EdgeLearningEnv {
        EdgeLearningEnv::new(
            EnvConfig {
                oracle_noise: 0.0,
                ..EnvConfig::paper_small(DatasetKind::MnistLike, budget)
            },
            7,
        )
    }

    fn mid_prices(env: &EdgeLearningEnv) -> Vec<f64> {
        (0..env.num_nodes())
            .map(|i| env.node(i).price_cap(env.sigma()) * 0.5)
            .collect()
    }

    #[test]
    fn step_advances_round_and_accuracy() {
        let mut e = env(100.0);
        let out = e.step(&mid_prices(&e));
        assert_eq!(out.status, StepStatus::Ok);
        assert_eq!(out.round, 1);
        assert!(out.accuracy > out.prev_accuracy);
        assert!(out.round_time > 0.0);
        assert!(out.payment_total > 0.0);
        assert_eq!(e.round(), 1);
    }

    #[test]
    fn budget_exhaustion_discards_round() {
        let mut e = env(1.0); // tiny budget
        let prices = mid_prices(&e);
        let out = e.step(&prices);
        assert_eq!(out.status, StepStatus::BudgetExhausted);
        assert_eq!(out.round, 0);
        assert_eq!(out.accuracy, out.prev_accuracy);
        assert_eq!(out.payment_total, 0.0);
        assert!(e.is_done());
    }

    #[test]
    #[should_panic(expected = "episode is done")]
    fn stepping_after_done_panics() {
        let mut e = env(1.0);
        let prices = mid_prices(&e);
        let _ = e.step(&prices);
        let _ = e.step(&prices);
    }

    #[test]
    fn reset_restores_everything() {
        let mut e = env(100.0);
        let prices = mid_prices(&e);
        let a0 = e.accuracy();
        let _ = e.step(&prices);
        e.reset();
        assert_eq!(e.round(), 0);
        assert!(!e.is_done());
        assert_eq!(e.remaining_budget(), 100.0);
        assert_eq!(e.accuracy(), a0);
    }

    #[test]
    fn higher_prices_spend_budget_faster() {
        let run_rounds = |scale: f64| {
            let mut e = env(60.0);
            let prices: Vec<f64> = (0..e.num_nodes())
                .map(|i| e.node(i).price_cap(e.sigma()) * scale)
                .collect();
            let mut rounds = 0;
            loop {
                let out = e.step(&prices);
                if out.done() {
                    break;
                }
                rounds = out.round;
                if rounds > 300 {
                    break;
                }
            }
            rounds
        };
        let cheap = run_rounds(0.35);
        let expensive = run_rounds(1.0);
        assert!(
            cheap > expensive,
            "cheaper pricing should buy more rounds: {cheap} vs {expensive}"
        );
    }

    #[test]
    fn zero_prices_mean_no_participation() {
        let mut e = env(100.0);
        let out = e.step(&vec![0.0; e.num_nodes()]);
        assert_eq!(out.num_participants(), 0);
        assert_eq!(out.round_time, 0.0);
        assert_eq!(out.payment_total, 0.0);
        // No participants ⇒ no learning progress (up to float noise in the
        // curve evaluation).
        assert!((out.accuracy - out.prev_accuracy).abs() < 1e-9);
    }

    #[test]
    fn outcome_bookkeeping_is_consistent() {
        let mut e = env(200.0);
        let out = e.step(&mid_prices(&e));
        let times = out.participant_times();
        assert_eq!(times.len(), out.num_participants());
        let max = times.iter().copied().fold(0.0f64, f64::max);
        assert!((max - out.round_time).abs() < 1e-12);
        let paid: f64 = out.responses.iter().flatten().map(|r| r.payment).sum();
        assert!((paid - out.payment_total).abs() < 1e-9);
        assert!((e.remaining_budget() - (200.0 - paid)).abs() < 1e-9);
    }

    #[test]
    fn round_cap_terminates_episode() {
        let mut e = EdgeLearningEnv::new(
            EnvConfig {
                max_rounds: 2,
                oracle_noise: 0.0,
                ..EnvConfig::paper_small(DatasetKind::MnistLike, 1e9)
            },
            1,
        );
        let prices = mid_prices(&e);
        assert_eq!(e.step(&prices).status, StepStatus::Ok);
        assert_eq!(e.step(&prices).status, StepStatus::RoundCapReached);
        assert!(e.is_done());
    }

    #[test]
    fn lognormal_channel_varies_round_times() {
        let mut e = EdgeLearningEnv::new(
            EnvConfig {
                oracle_noise: 0.0,
                channel: ChannelVariation::LogNormal { sigma: 0.3 },
                ..EnvConfig::paper_small(DatasetKind::MnistLike, 1e9)
            },
            5,
        );
        let prices = mid_prices(&e);
        let t1 = e.step(&prices).participant_times();
        let t2 = e.step(&prices).participant_times();
        assert_ne!(t1, t2, "fading must vary times round to round");
        // And episodes replay the same realization after reset.
        e.reset();
        let t1_again = e.step(&prices).participant_times();
        assert_eq!(t1, t1_again);
    }

    #[test]
    fn static_channel_keeps_times_constant() {
        let mut e = env(1e9);
        let prices = mid_prices(&e);
        let t1 = e.step(&prices).participant_times();
        let t2 = e.step(&prices).participant_times();
        assert_eq!(t1, t2);
    }

    #[test]
    fn set_faults_rejects_out_of_range_nodes() {
        use crate::faults::{Fault, FaultScheduleError};
        let mut e = env(100.0);
        let bad = FaultSchedule::new(vec![Fault::Dropout {
            node: 99,
            from_round: 1,
        }]);
        assert_eq!(
            e.set_faults(bad),
            Err(FaultScheduleError::NodeOutOfRange {
                node: 99,
                num_nodes: 5
            })
        );
        assert!(e.faults().is_empty(), "previous schedule must be kept");
        let good = FaultSchedule::new(vec![Fault::Dropout {
            node: 4,
            from_round: 1,
        }]);
        assert!(e.set_faults(good).is_ok());
    }

    #[test]
    fn fault_process_replays_across_reset() {
        use crate::faults::{FaultProcessConfig, GilbertElliott};
        let mut e = env(1e9);
        e.set_fault_process(Some(FaultProcessConfig {
            seed: 11,
            availability: Some(GilbertElliott {
                p_fail: 0.3,
                p_heal: 0.3,
            }),
            ..FaultProcessConfig::default()
        }));
        let prices = mid_prices(&e);
        let first: Vec<usize> = (0..20)
            .map(|_| e.step(&prices).num_participants())
            .collect();
        e.reset();
        let replay: Vec<usize> = (0..20)
            .map(|_| e.step(&prices).num_participants())
            .collect();
        assert_eq!(first, replay);
        // The chain must actually drop nodes sometimes at these rates.
        assert!(first.iter().any(|&p| p < 5), "no dropout in 20 rounds");
    }

    #[test]
    fn quorum_miss_refunds_and_carries_accuracy() {
        use crate::faults::{Fault, FaultSchedule};
        let mut e = env(100.0);
        e.set_resilience(ResilienceConfig {
            quorum: 3,
            ..ResilienceConfig::default()
        });
        // Drop 3 of 5 nodes: 2 survivors < quorum 3.
        e.set_faults(FaultSchedule::new(vec![
            Fault::Dropout {
                node: 0,
                from_round: 1,
            },
            Fault::Dropout {
                node: 1,
                from_round: 1,
            },
            Fault::Dropout {
                node: 2,
                from_round: 1,
            },
        ]))
        .expect("valid schedule");
        let budget_before = e.remaining_budget();
        let a_before = e.accuracy();
        let out = e.step(&mid_prices(&e));
        assert_eq!(out.num_participants(), 0, "responses cleared on refund");
        assert_eq!(out.payment_total, 0.0);
        assert_eq!(e.remaining_budget(), budget_before, "payments refunded");
        assert_eq!(out.accuracy, a_before, "accuracy carried");
        assert_eq!(out.round, 1, "round counter still advances");
        assert!(out.events.iter().any(|ev| matches!(
            ev,
            ResilienceEvent::QuorumMissed {
                participants: 2,
                quorum: 3
            }
        )));
    }

    #[test]
    fn deadline_evicts_stragglers_unpaid() {
        use crate::faults::{Fault, FaultSchedule};
        let mut e = env(1e9);
        e.set_resilience(ResilienceConfig {
            deadline_slack: Some(1.5),
            ..ResilienceConfig::default()
        });
        // Make node 0 a 20× straggler: it will blow the Lemma-1 deadline.
        e.set_faults(FaultSchedule::new(vec![Fault::BandwidthCollapse {
            node: 0,
            factor: 20.0,
            from_round: 1,
        }]))
        .expect("valid schedule");
        let out = e.step(&mid_prices(&e));
        assert!(out.responses[0].is_none(), "straggler evicted");
        assert_eq!(out.num_participants(), 4);
        let evicted: Vec<_> = out
            .events
            .iter()
            .filter(|ev| matches!(ev, ResilienceEvent::DeadlineEvicted { node: 0, .. }))
            .collect();
        assert_eq!(evicted.len(), 1);
        // The evicted node is not paid: payment_total only covers survivors.
        let paid: f64 = out.responses.iter().flatten().map(|r| r.payment).sum();
        assert!((paid - out.payment_total).abs() < 1e-9);
    }

    #[test]
    fn price_retry_recovers_zero_responder_round() {
        let mut e = env(1e9);
        e.set_resilience(ResilienceConfig {
            max_price_retries: 8,
            retry_backoff: 2.0,
            ..ResilienceConfig::default()
        });
        // Prices far below every reserve: nobody responds at 1×.
        let tiny: Vec<f64> = (0..e.num_nodes())
            .map(|i| e.node(i).price_floor(e.sigma()) * 0.2)
            .collect();
        let out = e.step(&tiny);
        let retries = out
            .events
            .iter()
            .filter(|ev| matches!(ev, ResilienceEvent::PriceRetry { .. }))
            .count();
        assert!(retries > 0, "retry must have fired");
        assert!(
            out.num_participants() > 0,
            "backoff should eventually attract responders"
        );
    }

    #[test]
    fn overdraft_clamp_spends_budget_exactly() {
        let mut e = env(10.0);
        e.set_resilience(ResilienceConfig {
            clamp_final_payment: true,
            ..ResilienceConfig::default()
        });
        let prices = mid_prices(&e);
        let mut last = None;
        for _ in 0..1000 {
            let out = e.step(&prices);
            let done = out.done();
            last = Some(out);
            if done {
                break;
            }
        }
        let last = last.expect("episode ran");
        assert_eq!(last.status, StepStatus::FinalRoundClamped);
        assert!(last
            .events
            .iter()
            .any(|ev| matches!(ev, ResilienceEvent::OverdraftClamped { .. })));
        // Σ p·ζ = η exactly: the clamped charge lands on the full budget.
        assert_eq!(e.remaining_budget(), 0.0);
        assert!(last.accuracy >= last.prev_accuracy - 1e-9, "round recorded");
        assert!(last.payment_total > 0.0);
    }

    #[test]
    fn state_round_trip_resumes_bitwise() {
        use crate::faults::{FaultProcessConfig, GilbertElliott, ReserveDrift, UploadJitter};
        let build = || {
            let mut e = EdgeLearningEnv::new(
                EnvConfig {
                    channel: ChannelVariation::LogNormal { sigma: 0.3 },
                    ..EnvConfig::paper_small(DatasetKind::MnistLike, 200.0)
                },
                7,
            );
            e.set_fault_process(Some(FaultProcessConfig {
                seed: 3,
                availability: Some(GilbertElliott {
                    p_fail: 0.1,
                    p_heal: 0.5,
                }),
                jitter: Some(UploadJitter {
                    prob: 0.2,
                    alpha: 1.5,
                    max_factor: 10.0,
                }),
                drift: Some(ReserveDrift {
                    sigma: 0.05,
                    max_factor: 2.0,
                }),
            }));
            e
        };
        let mut a = build();
        let prices = mid_prices(&a);
        for _ in 0..5 {
            let _ = a.step(&prices);
        }
        let snap = a.capture_state().expect("capture");
        // Continue the original.
        let tail: Vec<(u64, f64, usize)> = (0..10)
            .map(|_| {
                let o = a.step(&prices);
                (o.accuracy.to_bits(), o.payment_total, o.num_participants())
            })
            .collect();
        // Fresh env + restore must replay the tail bitwise.
        let mut b = build();
        b.restore_state(&snap).expect("restore");
        let replay: Vec<(u64, f64, usize)> = (0..10)
            .map(|_| {
                let o = b.step(&prices);
                (o.accuracy.to_bits(), o.payment_total, o.num_participants())
            })
            .collect();
        assert_eq!(tail, replay);
    }

    #[test]
    fn restore_rejects_mismatched_snapshots() {
        let mut small = env(100.0);
        let snap = small.capture_state().expect("capture");

        let mut other_budget = env(50.0);
        assert!(matches!(
            other_budget.restore_state(&snap),
            Err(EnvStateError::BudgetMismatch { .. })
        ));

        let mut big = EdgeLearningEnv::new(
            EnvConfig {
                oracle_noise: 0.0,
                ..EnvConfig::paper_large(DatasetKind::MnistLike, 100.0)
            },
            7,
        );
        assert!(matches!(
            big.restore_state(&snap),
            Err(EnvStateError::FleetMismatch { .. })
        ));

        let mut corrupt = snap.clone();
        corrupt.channel_rng.state.pop();
        assert!(matches!(
            small.restore_state(&corrupt),
            Err(EnvStateError::MalformedRng)
        ));
    }

    #[test]
    fn default_resilience_changes_nothing() {
        // A resilience config of Default must leave the trajectory
        // bit-identical to an env that never heard of resilience.
        let mut plain = env(80.0);
        let mut configured = env(80.0);
        configured.set_resilience(ResilienceConfig::default());
        let prices = mid_prices(&plain);
        loop {
            let a = plain.step(&prices);
            let b = configured.step(&prices);
            assert_eq!(a.status, b.status);
            assert_eq!(a.accuracy.to_bits(), b.accuracy.to_bits());
            assert_eq!(a.payment_total.to_bits(), b.payment_total.to_bits());
            assert!(a.events.is_empty() && b.events.is_empty());
            if a.done() {
                break;
            }
        }
    }

    fn sampled_env(nodes: usize, per_round: usize, seed: u64) -> EdgeLearningEnv {
        let cfg = EnvConfig::builder()
            .nodes(nodes)
            .budget(1e9)
            .oracle_noise(0.0)
            .sample_per_round(per_round)
            .build()
            .expect("valid config");
        EdgeLearningEnv::new(cfg, seed)
    }

    #[test]
    fn selection_is_deterministic_sorted_and_distinct() {
        let e = sampled_env(500, 16, 9);
        let s1 = e.selection_for(3);
        let s2 = e.selection_for(3);
        assert_eq!(s1, s2, "selection must be a pure function of the round");
        assert_eq!(s1.len(), 16);
        assert!(s1.windows(2).all(|w| w[0] < w[1]), "ascending and distinct");
        assert!(s1.iter().all(|&i| i < 500));
        assert_ne!(s1, e.selection_for(4), "rounds draw different subsets");
        // Oversampling degenerates to full participation.
        let full = sampled_env(10, 64, 9);
        assert_eq!(full.selection_for(1), (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn sampled_step_touches_only_the_selection() {
        let mut e = sampled_env(200, 8, 4);
        let prices: Vec<f64> = (0..e.num_nodes())
            .map(|i| e.node(i).price_cap(e.sigma()) * 0.5)
            .collect();
        let out = e.step(&prices);
        assert_eq!(out.selection, e.selection_for(1));
        assert_eq!(out.responses.len(), 8, "responses align with selection");
        assert!(out.num_participants() > 0);
        for (node, _) in out.participants() {
            assert!(out.selection.contains(&node));
        }
    }

    #[test]
    fn full_and_selection_aligned_prices_agree_bitwise() {
        let run = |aligned: bool| {
            let mut e = sampled_env(100, 10, 12);
            let full: Vec<f64> = (0..e.num_nodes())
                .map(|i| e.node(i).price_cap(e.sigma()) * 0.5)
                .collect();
            let mut bits = Vec::new();
            for round in 1..=5 {
                let prices: Vec<f64> = if aligned {
                    e.selection_for(round).iter().map(|&i| full[i]).collect()
                } else {
                    full.clone()
                };
                let o = e.step(&prices);
                bits.push((o.accuracy.to_bits(), o.payment_total.to_bits()));
            }
            bits
        };
        assert_eq!(run(true), run(false));
    }

    #[test]
    fn sampled_episode_replays_after_reset() {
        let mut e = sampled_env(300, 12, 21);
        e.set_fault_process(Some(FaultProcessConfig::standard(5)));
        let prices: Vec<f64> = (0..e.num_nodes())
            .map(|i| e.node(i).price_cap(e.sigma()) * 0.5)
            .collect();
        let first: Vec<(u64, usize)> = (0..10)
            .map(|_| {
                let o = e.step(&prices);
                (o.accuracy.to_bits(), o.num_participants())
            })
            .collect();
        e.reset();
        let replay: Vec<(u64, usize)> = (0..10)
            .map(|_| {
                let o = e.step(&prices);
                (o.accuracy.to_bits(), o.num_participants())
            })
            .collect();
        assert_eq!(first, replay);
    }

    #[test]
    fn sampled_lognormal_fading_is_stateless_per_round() {
        // Two envs stepping different numbers of rounds still agree on a
        // given round's outcome: fading is keyed by (node, round), not by
        // how many draws happened before.
        let build = || {
            let cfg = EnvConfig::builder()
                .nodes(64)
                .budget(1e9)
                .oracle_noise(0.0)
                .channel(ChannelVariation::LogNormal { sigma: 0.3 })
                .sample_per_round(6)
                .build()
                .expect("valid config");
            EdgeLearningEnv::new(cfg, 33)
        };
        let mut a = build();
        let prices: Vec<f64> = (0..a.num_nodes())
            .map(|i| a.node(i).price_cap(a.sigma()) * 0.5)
            .collect();
        let a_rounds: Vec<u64> = (0..4).map(|_| a.step(&prices).accuracy.to_bits()).collect();
        let mut b = build();
        let b_rounds: Vec<u64> = (0..4).map(|_| b.step(&prices).accuracy.to_bits()).collect();
        assert_eq!(a_rounds, b_rounds);
    }

    #[test]
    fn snapshot_shares_the_fault_schedule_without_cloning() {
        use crate::faults::Fault;
        let mut e = env(100.0);
        e.set_faults(FaultSchedule::new(vec![Fault::Dropout {
            node: 1,
            from_round: 2,
        }]))
        .expect("valid schedule");
        let snap = e.capture_state().expect("capture");
        assert!(
            Arc::ptr_eq(&snap.faults, &e.faults),
            "capture must share, not clone, the schedule"
        );
        let mut other = env(100.0);
        other.restore_state(&snap).expect("restore");
        assert!(
            Arc::ptr_eq(&snap.faults, &other.faults),
            "restore must share, not clone, the schedule"
        );
    }

    #[test]
    fn builder_rejects_zero_sample() {
        let err = EnvConfig::builder()
            .sample_per_round(0)
            .build()
            .unwrap_err();
        assert_eq!(err.field, "participation");
        assert!(err.reason.contains("positive"), "{}", err.reason);
    }

    #[test]
    fn try_new_reports_config_errors_without_panicking() {
        let mut cfg = EnvConfig::paper_small(DatasetKind::MnistLike, 100.0);
        cfg.budget = -3.0;
        let err = EdgeLearningEnv::try_new(cfg, 1).unwrap_err();
        assert_eq!(err.field, "budget");
        let mut cfg = EnvConfig::paper_small(DatasetKind::MnistLike, 100.0);
        cfg.fleet.nodes = 0;
        assert!(EdgeLearningEnv::try_new(cfg, 1).is_err());
    }

    #[test]
    fn large_fleet_is_comm_dominated() {
        // With 100 nodes each shard is small, so compute time is tiny and
        // the round is dominated by the fixed 10–20 s upload times — the
        // regime behind Table I's ≈72 % time efficiency.
        let mut e = EdgeLearningEnv::new(
            EnvConfig {
                oracle_noise: 0.0,
                ..EnvConfig::paper_large(DatasetKind::MnistLike, 300.0)
            },
            3,
        );
        let prices: Vec<f64> = (0..e.num_nodes())
            .map(|i| e.node(i).price_cap(e.sigma()))
            .collect();
        let out = e.step(&prices);
        assert!(out.num_participants() > 90);
        assert!(
            out.time_efficiency > 0.6 && out.time_efficiency < 0.9,
            "upload-dominated efficiency should be ~0.75, got {}",
            out.time_efficiency
        );
    }
}
