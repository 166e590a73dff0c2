//! Failure injection: perturb the fleet mid-episode to probe mechanism
//! robustness.
//!
//! Real edge fleets misbehave: radios degrade, devices leave, users crank
//! up their price expectations. The paper evaluates on a well-behaved
//! fleet; this module adds the perturbations the reproduction's
//! failure-injection tests exercise (`DESIGN.md` §6). Faults activate at a
//! given round and either persist for the rest of the episode or heal at a
//! scheduled round (transient faults); the schedule itself is stateless, so
//! every episode replays the same perturbations.
//!
//! # Fleet-scale evaluation
//!
//! Two properties keep fault evaluation O(selected) instead of O(fleet):
//!
//! * [`FaultSchedule`] pre-indexes its entries by node, so the per-round
//!   lookup for one node walks only that node's faults (usually zero),
//!   never the whole schedule.
//! * [`FaultProcess`] samples its per-node streams lazily: a node's
//!   Gilbert–Elliott chain, Pareto jitter, and reserve-drift walk are only
//!   instantiated (and advanced) when that node is actually drawn.
//!   Construction is O(1) regardless of fleet size, and memory is
//!   O(touched nodes). The draw for `(seed, node, round)` is a pure
//!   function — evaluation order cannot change it — because each node's
//!   stream is seeded independently and always advanced from round 1.

use crate::{EdgeNode, NodeParams};
use chiron_tensor::TensorRng;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// Error raised when a fault schedule is malformed or does not fit the
/// fleet it is installed on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum FaultScheduleError {
    /// A fault targets a node index outside the fleet.
    NodeOutOfRange {
        /// The offending node index.
        node: usize,
        /// Number of nodes in the fleet.
        num_nodes: usize,
    },
    /// A transient fault's healing round is not after its start round.
    HealsBeforeStart {
        /// First affected round.
        from_round: usize,
        /// Scheduled healing round.
        until_round: usize,
    },
}

impl std::fmt::Display for FaultScheduleError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            FaultScheduleError::NodeOutOfRange { node, num_nodes } => {
                write!(
                    f,
                    "fault targets node {node} but the fleet has {num_nodes} nodes"
                )
            }
            FaultScheduleError::HealsBeforeStart {
                from_round,
                until_round,
            } => write!(
                f,
                "transient fault heals at {until_round} before it starts at {from_round}"
            ),
        }
    }
}

impl std::error::Error for FaultScheduleError {}

/// One fleet perturbation, active from `from_round` (1-based, compared
/// against the round being executed) onwards. Register with
/// [`FaultSchedule::push`] for a permanent fault or
/// [`FaultSchedule::push_transient`] for one that heals.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum Fault {
    /// The node's upload time is multiplied by `factor` (> 1 ⇒ straggler).
    BandwidthCollapse {
        /// Index of the affected node.
        node: usize,
        /// Multiplier on the upload time.
        factor: f64,
        /// First affected round.
        from_round: usize,
    },
    /// The node leaves the fleet: it declines every price.
    Dropout {
        /// Index of the affected node.
        node: usize,
        /// First affected round.
        from_round: usize,
    },
    /// The node's reserve utility is multiplied by `factor` (> 1 ⇒ it
    /// demands more compensation before participating).
    ReserveSpike {
        /// Index of the affected node.
        node: usize,
        /// Multiplier on the reserve utility.
        factor: f64,
        /// First affected round.
        from_round: usize,
    },
}

impl Fault {
    /// The node this fault targets.
    pub fn node(&self) -> usize {
        match *self {
            Fault::BandwidthCollapse { node, .. }
            | Fault::Dropout { node, .. }
            | Fault::ReserveSpike { node, .. } => node,
        }
    }

    /// The first round this fault affects.
    pub fn from_round(&self) -> usize {
        match *self {
            Fault::BandwidthCollapse { from_round, .. }
            | Fault::Dropout { from_round, .. }
            | Fault::ReserveSpike { from_round, .. } => from_round,
        }
    }

    /// Whether the fault is active when executing `round`.
    pub fn active_at(&self, round: usize) -> bool {
        round >= self.from_round()
    }
}

/// A fault paired with an optional healing round: the perturbation is
/// active for rounds in `[fault.from_round(), until_round)`, or forever if
/// `until_round` is `None`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ScheduledFault {
    /// The perturbation.
    pub fault: Fault,
    /// First round at which the fault is healed (exclusive end), if any.
    pub until_round: Option<usize>,
}

impl ScheduledFault {
    /// Whether this entry is active when executing `round`.
    pub fn active_at(&self, round: usize) -> bool {
        self.fault.active_at(round) && self.until_round.is_none_or(|end| round < end)
    }
}

/// A set of faults applied to a fleet.
///
/// Entries are indexed by target node at insertion time, so the per-round
/// queries ([`FaultSchedule::is_dropped`],
/// [`FaultSchedule::effective_params`]) touch only the faults registered
/// for that node — O(active at that node), not O(schedule). A 1M-node
/// fleet with 10 faults therefore does per-node work proportional to 0,
/// not 10.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultSchedule {
    faults: Vec<ScheduledFault>,
    /// Node index → positions in `faults`, in insertion order.
    by_node: HashMap<usize, Vec<u32>>,
}

// The wire format is just the fault list ({"faults": [...]}), identical to
// the pre-index derive output: the per-node index is derived state and is
// rebuilt on deserialize, so old checkpoints load unchanged.
impl Serialize for FaultSchedule {
    fn to_value(&self) -> serde::Value {
        serde::Value::Object(vec![("faults".to_string(), self.faults.to_value())])
    }
}

impl Deserialize for FaultSchedule {
    fn from_value(value: &serde::Value) -> Result<Self, serde::DeError> {
        let faults = Vec::<ScheduledFault>::from_value(value.field("faults"))?;
        let mut schedule = FaultSchedule::default();
        for sf in faults {
            schedule.push_scheduled(sf);
        }
        Ok(schedule)
    }
}

impl FaultSchedule {
    /// An empty schedule (no perturbations).
    pub fn none() -> Self {
        Self::default()
    }

    /// Builds a schedule of permanent faults.
    pub fn new(faults: Vec<Fault>) -> Self {
        let mut schedule = Self::default();
        for fault in faults {
            schedule.push(fault);
        }
        schedule
    }

    fn push_scheduled(&mut self, sf: ScheduledFault) {
        let idx = self.faults.len() as u32;
        self.by_node.entry(sf.fault.node()).or_default().push(idx);
        self.faults.push(sf);
    }

    /// Adds a permanent fault.
    pub fn push(&mut self, fault: Fault) {
        self.push_scheduled(ScheduledFault {
            fault,
            until_round: None,
        });
    }

    /// Adds a **transient** fault, healed from `until_round` onwards.
    ///
    /// # Errors
    ///
    /// Returns [`FaultScheduleError::HealsBeforeStart`] unless
    /// `until_round > fault.from_round()`.
    pub fn try_push_transient(
        &mut self,
        fault: Fault,
        until_round: usize,
    ) -> Result<(), FaultScheduleError> {
        if until_round <= fault.from_round() {
            return Err(FaultScheduleError::HealsBeforeStart {
                from_round: fault.from_round(),
                until_round,
            });
        }
        self.push_scheduled(ScheduledFault {
            fault,
            until_round: Some(until_round),
        });
        Ok(())
    }

    /// Panicking convenience wrapper around
    /// [`FaultSchedule::try_push_transient`] for tests and examples.
    ///
    /// # Panics
    ///
    /// Panics unless `until_round > fault.from_round()`.
    pub fn push_transient(&mut self, fault: Fault, until_round: usize) {
        self.try_push_transient(fault, until_round)
            .unwrap_or_else(|err| panic!("{err}"));
    }

    /// Checks that every scheduled fault targets a node inside a fleet of
    /// `num_nodes` nodes.
    ///
    /// # Errors
    ///
    /// Returns [`FaultScheduleError::NodeOutOfRange`] for the first fault
    /// whose node index is `>= num_nodes`.
    pub fn validate_nodes(&self, num_nodes: usize) -> Result<(), FaultScheduleError> {
        for sf in &self.faults {
            let node = sf.fault.node();
            if node >= num_nodes {
                return Err(FaultScheduleError::NodeOutOfRange { node, num_nodes });
            }
        }
        Ok(())
    }

    /// The scheduled faults.
    pub fn faults(&self) -> &[ScheduledFault] {
        &self.faults
    }

    /// The faults registered for `node`, in insertion order (the index
    /// lookup backing every per-node query).
    pub fn faults_for(&self, node: usize) -> impl Iterator<Item = &ScheduledFault> + '_ {
        self.by_node
            .get(&node)
            .into_iter()
            .flat_map(|idxs| idxs.iter().map(|&i| &self.faults[i as usize]))
    }

    /// `true` if no fault is scheduled.
    pub fn is_empty(&self) -> bool {
        self.faults.is_empty()
    }

    /// `true` if `node` has at least one fault registered (active or not);
    /// the O(1) pre-filter for per-node queries.
    pub fn touches(&self, node: usize) -> bool {
        self.by_node.contains_key(&node)
    }

    /// Whether `node` has an active [`Fault::Dropout`] at `round`.
    pub fn is_dropped(&self, node: usize, round: usize) -> bool {
        self.faults_for(node)
            .any(|sf| matches!(sf.fault, Fault::Dropout { .. }) && sf.active_at(round))
    }

    /// The node's effective parameters at `round` with all active
    /// non-dropout faults applied (dropout is handled separately because it
    /// suppresses the response entirely).
    pub fn effective_params(&self, node: usize, round: usize, base: &NodeParams) -> NodeParams {
        let mut params = *base;
        for sf in self.faults_for(node) {
            if !sf.active_at(round) {
                continue;
            }
            match sf.fault {
                Fault::BandwidthCollapse { factor, .. } => {
                    params.upload_time *= factor;
                }
                Fault::ReserveSpike { factor, .. } => {
                    params.reserve_utility *= factor;
                }
                Fault::Dropout { .. } => {}
            }
        }
        params
    }

    /// Builds the effective node for `round`, or `None` if it has dropped
    /// out.
    pub fn effective_node(&self, node: usize, round: usize, base: &EdgeNode) -> Option<EdgeNode> {
        if !self.touches(node) {
            return Some(*base);
        }
        if self.is_dropped(node, round) {
            return None;
        }
        Some(EdgeNode::new(self.effective_params(
            node,
            round,
            base.params(),
        )))
    }
}

/// Gilbert–Elliott two-state availability chain: the node alternates
/// between an *up* state (responds normally) and a *down* state (declines
/// every price), with geometric sojourn times — the classic model for
/// bursty loss on a flapping radio link.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct GilbertElliott {
    /// Per-round probability of an up → down transition.
    pub p_fail: f64,
    /// Per-round probability of a down → up transition.
    pub p_heal: f64,
}

/// Heavy-tailed multiplicative jitter on the upload time: with probability
/// `prob` per round the node's upload time is multiplied by a Pareto(α)
/// draw (always ≥ 1), modelling occasional deep fades and contention
/// spikes rather than Gaussian noise.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct UploadJitter {
    /// Per-round probability that a jitter burst fires.
    pub prob: f64,
    /// Pareto tail index α (> 0); smaller ⇒ heavier tail.
    pub alpha: f64,
    /// Cap on the multiplier so one draw cannot stall a round forever.
    pub max_factor: f64,
}

/// Multiplicative random walk on the reserve utility: each round the
/// node's price expectation drifts by `exp(σ·N(0,1))`, clamped to
/// `[1/max_factor, max_factor]` around the base reserve.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ReserveDrift {
    /// Per-round log-step standard deviation.
    pub sigma: f64,
    /// Clamp on the cumulative factor (≥ 1).
    pub max_factor: f64,
}

/// Configuration of the seeded generative fault model. Every enabled
/// component runs per node, and the whole process is a pure function of
/// `(seed, node, round)` — replaying an episode (or resuming from a
/// checkpoint that stores only this config) reproduces the exact same
/// fault trajectory bit for bit.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct FaultProcessConfig {
    /// Master seed; each node derives an independent stream from it.
    pub seed: u64,
    /// Bursty availability chain, if enabled.
    pub availability: Option<GilbertElliott>,
    /// Heavy-tailed upload-time jitter, if enabled.
    pub jitter: Option<UploadJitter>,
    /// Reserve-utility drift, if enabled.
    pub drift: Option<ReserveDrift>,
}

impl FaultProcessConfig {
    /// A moderately hostile all-components-on preset: ~5 % of node-rounds
    /// start an outage (healing at 50 %/round), 10 % of uploads take a
    /// heavy-tailed (Pareto α = 1.5, capped ×10) hit, and reserve
    /// utilities random-walk with σ = 0.05 within ×2 of their base. Used
    /// by the CLI's `CHIRON_FAULT_SEED` switch and the robustness benches.
    pub fn standard(seed: u64) -> Self {
        Self {
            seed,
            availability: Some(GilbertElliott {
                p_fail: 0.05,
                p_heal: 0.5,
            }),
            jitter: Some(UploadJitter {
                prob: 0.1,
                alpha: 1.5,
                max_factor: 10.0,
            }),
            drift: Some(ReserveDrift {
                sigma: 0.05,
                max_factor: 2.0,
            }),
        }
    }
}

/// The sampled fault state of one node at one round.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultDraw {
    /// `false` when the availability chain holds the node down.
    pub available: bool,
    /// Multiplier on the upload time (≥ 1).
    pub upload_factor: f64,
    /// Multiplier on the reserve utility (> 0).
    pub reserve_factor: f64,
}

impl FaultDraw {
    /// The identity draw: node up, no perturbation.
    pub fn healthy() -> Self {
        Self {
            available: true,
            upload_factor: 1.0,
            reserve_factor: 1.0,
        }
    }
}

/// Lazily instantiated per-node stream state: the RNG and walk state plus
/// the two most recent draws (the env queries `round` and `round − 1` for
/// transition events). Rebuilt deterministically from the config when a
/// query jumps backwards, so it is never serialized.
#[derive(Debug, Clone)]
struct NodeCursor {
    rng: TensorRng,
    /// `true` while the Gilbert–Elliott chain is in the down state.
    down: bool,
    /// Cumulative log of the reserve drift walk.
    log_drift: f64,
    /// Rounds sampled so far; `current` holds the draw for this round.
    round: usize,
    /// Draw for `round` (undefined until the first advance).
    current: FaultDraw,
    /// Draw for `round − 1` (undefined until the second advance).
    prev: FaultDraw,
}

impl NodeCursor {
    fn fresh(config: &FaultProcessConfig, node: usize) -> Self {
        Self {
            // Golden-ratio stride keeps per-node streams disjoint.
            rng: TensorRng::seed_from(
                config.seed
                    ^ (node as u64)
                        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                        .wrapping_add(1),
            ),
            down: false,
            log_drift: 0.0,
            round: 0,
            current: FaultDraw::healthy(),
            prev: FaultDraw::healthy(),
        }
    }

    /// Samples the next round's draw. Exactly five uniforms are consumed
    /// per round regardless of which components are enabled, so toggling
    /// one component never shifts another's stream.
    fn advance(&mut self, config: &FaultProcessConfig) {
        let u_avail = self.rng.uniform(0.0, 1.0);
        let u_fire = self.rng.uniform(0.0, 1.0);
        let u_mag = self.rng.uniform(0.0, 1.0);
        let z_drift = normal_from_uniforms(&mut self.rng);

        let available = match config.availability {
            Some(ge) => {
                if self.down {
                    if u_avail < ge.p_heal.clamp(0.0, 1.0) {
                        self.down = false;
                    }
                } else if u_avail < ge.p_fail.clamp(0.0, 1.0) {
                    self.down = true;
                }
                !self.down
            }
            None => true,
        };

        let upload_factor = match config.jitter {
            Some(j) if u_fire < j.prob.clamp(0.0, 1.0) => {
                // Pareto(α) via inverse CDF on (0, 1]; ≥ 1 by construction.
                let alpha = j.alpha.max(0.05);
                let tail = (1.0 - u_mag).max(f64::MIN_POSITIVE);
                tail.powf(-1.0 / alpha).min(j.max_factor.max(1.0))
            }
            _ => 1.0,
        };

        let reserve_factor = match config.drift {
            Some(d) => {
                let bound = d.max_factor.max(1.0).ln();
                self.log_drift = (self.log_drift + d.sigma.abs() * z_drift).clamp(-bound, bound);
                self.log_drift.exp()
            }
            None => 1.0,
        };

        self.prev = self.current;
        self.current = FaultDraw {
            available,
            upload_factor,
            reserve_factor,
        };
        self.round += 1;
    }
}

/// Runtime for [`FaultProcessConfig`]: samples per-node fault draws.
///
/// Streams are instantiated lazily — only nodes that are actually drawn
/// get a cursor — so building a process for a 1M-node fleet is O(1) and
/// a sampled episode pays only for its selected nodes. A draw for
/// `(node, round)` is identical no matter when (or in what order) it is
/// first requested: each node's stream is independently seeded and always
/// advanced from round 1, and a backwards query rebuilds the cursor from
/// scratch.
#[derive(Debug, Clone)]
pub struct FaultProcess {
    config: FaultProcessConfig,
    num_nodes: usize,
    cursors: HashMap<usize, NodeCursor>,
}

impl FaultProcess {
    /// Builds the runtime for a fleet of `num_nodes` nodes. O(1): no
    /// per-node state is allocated until a node is first drawn.
    pub fn new(config: FaultProcessConfig, num_nodes: usize) -> Self {
        Self {
            config,
            num_nodes,
            cursors: HashMap::new(),
        }
    }

    /// The configuration this process was built from (all the state a
    /// checkpoint needs).
    pub fn config(&self) -> &FaultProcessConfig {
        &self.config
    }

    /// Number of per-node streams currently instantiated — O(touched
    /// nodes), the laziness invariant the fleet-scale tests pin.
    pub fn active_streams(&self) -> usize {
        self.cursors.len()
    }

    /// The fault state of `node` when executing `round` (1-based).
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range or `round` is 0.
    pub fn draw(&mut self, node: usize, round: usize) -> FaultDraw {
        assert!(round > 0, "rounds are 1-based");
        assert!(
            node < self.num_nodes,
            "node {node} out of range for {} nodes",
            self.num_nodes
        );
        let config = self.config;
        let cursor = self
            .cursors
            .entry(node)
            .or_insert_with(|| NodeCursor::fresh(&config, node));
        if round + 1 < cursor.round.max(1) {
            // Backwards jump past the retained window: replay the stream
            // from its seed. Determinism is unaffected — the stream is a
            // pure function of (seed, node, round).
            *cursor = NodeCursor::fresh(&config, node);
        }
        while cursor.round < round {
            cursor.advance(&config);
        }
        if round == cursor.round {
            cursor.current
        } else {
            // round == cursor.round - 1, retained for transition events.
            cursor.prev
        }
    }
}

/// splitmix64 finalizer: a high-quality 64-bit mix.
fn splitmix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A stateless uniform on `[0, 1)` keyed by `(seed, node, round)` — the
/// counter-based generator behind every *new* per-selected-node draw
/// (sampled-mode channel fading). Being stateless it is
/// trivially order-independent and thread-safe, which is what keeps the
/// sampled participation path bitwise-deterministic at any thread count.
pub(crate) fn counter_uniform(seed: u64, node: u64, round: u64) -> f64 {
    let h = splitmix(seed ^ splitmix(node.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(round)));
    (h >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// A stateless standard-normal keyed by `(seed, node, round)` via
/// Box–Muller over two domain-separated [`counter_uniform`] draws.
pub(crate) fn counter_normal(seed: u64, node: u64, round: u64) -> f64 {
    let u1 = (1.0 - counter_uniform(seed, node, round)).max(f64::MIN_POSITIVE);
    let u2 = counter_uniform(seed ^ (0xB0u64 << 56), node, round);
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

/// A standard-normal draw from exactly two uniforms (Box–Muller), so the
/// per-round draw count stays fixed — `TensorRng::normal` may consume a
/// variable number of words depending on the backing sampler.
fn normal_from_uniforms(rng: &mut TensorRng) -> f64 {
    let u1 = (1.0 - rng.uniform(0.0, 1.0)).max(f64::MIN_POSITIVE);
    let u2 = rng.uniform(0.0, 1.0);
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn base() -> EdgeNode {
        EdgeNode::new(NodeParams {
            cycles_per_bit: 20.0,
            data_bits: 1e7,
            capacitance: 2e-28,
            freq_min: 1e8,
            freq_max: 2e9,
            upload_time: 10.0,
            upload_power: 0.001,
            reserve_utility: 0.01,
        })
    }

    #[test]
    fn faults_activate_at_their_round() {
        let f = Fault::BandwidthCollapse {
            node: 0,
            factor: 3.0,
            from_round: 5,
        };
        assert!(!f.active_at(4));
        assert!(f.active_at(5));
        assert!(f.active_at(100));
    }

    #[test]
    fn bandwidth_collapse_scales_upload_time() {
        let schedule = FaultSchedule::new(vec![Fault::BandwidthCollapse {
            node: 1,
            factor: 4.0,
            from_round: 3,
        }]);
        let node = base();
        // Before activation: unchanged.
        let before = schedule.effective_node(1, 2, &node).expect("present");
        assert_eq!(before.params().upload_time, 10.0);
        // After: 4×.
        let after = schedule.effective_node(1, 3, &node).expect("present");
        assert_eq!(after.params().upload_time, 40.0);
        // Other nodes unaffected.
        let other = schedule.effective_node(0, 3, &node).expect("present");
        assert_eq!(other.params().upload_time, 10.0);
    }

    #[test]
    fn dropout_removes_the_node() {
        let schedule = FaultSchedule::new(vec![Fault::Dropout {
            node: 2,
            from_round: 2,
        }]);
        assert!(schedule.effective_node(2, 1, &base()).is_some());
        assert!(schedule.effective_node(2, 2, &base()).is_none());
        assert!(schedule.is_dropped(2, 2));
        assert!(!schedule.is_dropped(1, 2));
    }

    #[test]
    fn reserve_spike_raises_participation_bar() {
        let schedule = FaultSchedule::new(vec![Fault::ReserveSpike {
            node: 0,
            factor: 100.0,
            from_round: 1,
        }]);
        let node = schedule.effective_node(0, 1, &base()).expect("present");
        assert_eq!(node.params().reserve_utility, 1.0);
        // A price that the healthy node accepts is now refused.
        let healthy = base();
        let p = healthy.price_cap(5) * 0.5;
        assert!(healthy.respond(p, 5).is_some());
        assert!(node.respond(p, 5).is_none());
    }

    #[test]
    fn faults_stack_on_one_node() {
        let schedule = FaultSchedule::new(vec![
            Fault::BandwidthCollapse {
                node: 0,
                factor: 2.0,
                from_round: 1,
            },
            Fault::ReserveSpike {
                node: 0,
                factor: 3.0,
                from_round: 1,
            },
        ]);
        let node = schedule.effective_node(0, 1, &base()).expect("present");
        assert_eq!(node.params().upload_time, 20.0);
        assert!((node.params().reserve_utility - 0.03).abs() < 1e-12);
    }

    #[test]
    fn transient_fault_heals() {
        let mut schedule = FaultSchedule::none();
        schedule.push_transient(
            Fault::BandwidthCollapse {
                node: 0,
                factor: 5.0,
                from_round: 2,
            },
            4,
        );
        let node = base();
        assert_eq!(
            schedule
                .effective_node(0, 1, &node)
                .unwrap()
                .params()
                .upload_time,
            10.0
        );
        assert_eq!(
            schedule
                .effective_node(0, 2, &node)
                .unwrap()
                .params()
                .upload_time,
            50.0
        );
        assert_eq!(
            schedule
                .effective_node(0, 3, &node)
                .unwrap()
                .params()
                .upload_time,
            50.0
        );
        // Healed from round 4 on.
        assert_eq!(
            schedule
                .effective_node(0, 4, &node)
                .unwrap()
                .params()
                .upload_time,
            10.0
        );
    }

    #[test]
    fn transient_dropout_returns() {
        let mut schedule = FaultSchedule::none();
        schedule.push_transient(
            Fault::Dropout {
                node: 1,
                from_round: 3,
            },
            5,
        );
        assert!(!schedule.is_dropped(1, 2));
        assert!(schedule.is_dropped(1, 3));
        assert!(schedule.is_dropped(1, 4));
        assert!(!schedule.is_dropped(1, 5));
    }

    #[test]
    #[should_panic(expected = "heals at")]
    fn transient_must_heal_after_start() {
        let mut schedule = FaultSchedule::none();
        schedule.push_transient(
            Fault::Dropout {
                node: 0,
                from_round: 5,
            },
            5,
        );
    }

    #[test]
    fn empty_schedule_is_identity() {
        let schedule = FaultSchedule::none();
        assert!(schedule.is_empty());
        let node = schedule.effective_node(0, 1, &base()).expect("present");
        assert_eq!(node.params(), base().params());
    }

    #[test]
    fn node_index_matches_linear_scan() {
        let mut schedule = FaultSchedule::new(vec![
            Fault::BandwidthCollapse {
                node: 3,
                factor: 2.0,
                from_round: 1,
            },
            Fault::Dropout {
                node: 1,
                from_round: 4,
            },
            Fault::ReserveSpike {
                node: 3,
                factor: 1.5,
                from_round: 2,
            },
        ]);
        schedule.push_transient(
            Fault::Dropout {
                node: 3,
                from_round: 6,
            },
            8,
        );
        for node in 0..5 {
            let via_index: Vec<_> = schedule.faults_for(node).copied().collect();
            let via_scan: Vec<_> = schedule
                .faults()
                .iter()
                .filter(|sf| sf.fault.node() == node)
                .copied()
                .collect();
            assert_eq!(via_index, via_scan, "node {node}");
            for round in 1..10 {
                assert_eq!(
                    schedule.is_dropped(node, round),
                    via_scan
                        .iter()
                        .any(|sf| matches!(sf.fault, Fault::Dropout { .. }) && sf.active_at(round)),
                    "node {node} round {round}"
                );
            }
        }
        assert!(schedule.touches(3));
        assert!(!schedule.touches(0));
    }

    #[test]
    fn schedule_serde_preserves_shape_and_rebuilds_index() {
        let mut schedule = FaultSchedule::new(vec![Fault::BandwidthCollapse {
            node: 2,
            factor: 3.0,
            from_round: 1,
        }]);
        schedule.push_transient(
            Fault::Dropout {
                node: 0,
                from_round: 2,
            },
            4,
        );
        let json = serde_json::to_string(&schedule).expect("serialize");
        // The wire format stays the plain fault list (no index leak).
        assert!(json.starts_with("{\"faults\":["), "wire shape: {json}");
        assert!(!json.contains("by_node"), "index leaked into JSON: {json}");
        let back: FaultSchedule = serde_json::from_str(&json).expect("deserialize");
        assert_eq!(back, schedule);
        // Index is functional after the round trip.
        assert!(back.is_dropped(0, 2));
        assert!(!back.is_dropped(0, 4));
        assert_eq!(back.faults_for(2).count(), 1);
    }

    #[test]
    fn try_push_transient_rejects_bad_rounds() {
        let mut schedule = FaultSchedule::none();
        let err = schedule
            .try_push_transient(
                Fault::Dropout {
                    node: 0,
                    from_round: 5,
                },
                4,
            )
            .unwrap_err();
        assert_eq!(
            err,
            FaultScheduleError::HealsBeforeStart {
                from_round: 5,
                until_round: 4
            }
        );
        assert!(schedule.is_empty());
    }

    #[test]
    fn validate_nodes_flags_out_of_range_targets() {
        let schedule = FaultSchedule::new(vec![Fault::Dropout {
            node: 7,
            from_round: 1,
        }]);
        assert_eq!(schedule.validate_nodes(10), Ok(()));
        assert_eq!(
            schedule.validate_nodes(5),
            Err(FaultScheduleError::NodeOutOfRange {
                node: 7,
                num_nodes: 5
            })
        );
    }

    fn process_config() -> FaultProcessConfig {
        FaultProcessConfig {
            seed: 42,
            availability: Some(GilbertElliott {
                p_fail: 0.2,
                p_heal: 0.5,
            }),
            jitter: Some(UploadJitter {
                prob: 0.3,
                alpha: 1.5,
                max_factor: 20.0,
            }),
            drift: Some(ReserveDrift {
                sigma: 0.1,
                max_factor: 3.0,
            }),
        }
    }

    #[test]
    fn process_is_deterministic_per_seed_and_round() {
        let mut a = FaultProcess::new(process_config(), 4);
        let mut b = FaultProcess::new(process_config(), 4);
        // Query in different orders: the draw must depend only on
        // (seed, node, round).
        let fwd: Vec<_> = (1..=50).map(|r| a.draw(2, r)).collect();
        let jumped = b.draw(2, 50);
        assert_eq!(fwd[49], jumped);
        for (r, draw) in fwd.iter().enumerate() {
            assert_eq!(*draw, b.draw(2, r + 1));
        }
    }

    #[test]
    fn process_nodes_have_independent_streams() {
        let mut p = FaultProcess::new(process_config(), 3);
        let a: Vec<_> = (1..=40).map(|r| p.draw(0, r)).collect();
        let b: Vec<_> = (1..=40).map(|r| p.draw(1, r)).collect();
        assert_ne!(a, b);
    }

    #[test]
    fn process_draws_stay_in_bounds() {
        let mut p = FaultProcess::new(process_config(), 2);
        let mut saw_down = false;
        let mut saw_jitter = false;
        for r in 1..=500 {
            for n in 0..2 {
                let d = p.draw(n, r);
                assert!(d.upload_factor >= 1.0 && d.upload_factor <= 20.0);
                assert!(d.reserve_factor >= 1.0 / 3.0 - 1e-12);
                assert!(d.reserve_factor <= 3.0 + 1e-12);
                saw_down |= !d.available;
                saw_jitter |= d.upload_factor > 1.0;
            }
        }
        assert!(saw_down, "availability chain never failed in 1000 draws");
        assert!(saw_jitter, "jitter never fired in 1000 draws");
    }

    #[test]
    fn disabled_components_are_identity() {
        let mut p = FaultProcess::new(
            FaultProcessConfig {
                seed: 9,
                ..FaultProcessConfig::default()
            },
            2,
        );
        for r in 1..=20 {
            assert_eq!(p.draw(0, r), FaultDraw::healthy());
        }
    }

    #[test]
    fn toggling_one_component_leaves_others_unchanged() {
        let full = process_config();
        let no_jitter = FaultProcessConfig {
            jitter: None,
            ..full
        };
        let mut a = FaultProcess::new(full, 1);
        let mut b = FaultProcess::new(no_jitter, 1);
        for r in 1..=100 {
            let da = a.draw(0, r);
            let db = b.draw(0, r);
            assert_eq!(da.available, db.available);
            assert_eq!(da.reserve_factor.to_bits(), db.reserve_factor.to_bits());
            assert_eq!(db.upload_factor, 1.0);
        }
    }

    #[test]
    fn streams_are_lazy_and_o_of_touched_nodes() {
        // A 1M-node process allocates nothing up front and only one
        // stream after drawing one node — the O(selected) invariant.
        let mut p = FaultProcess::new(process_config(), 1_000_000);
        assert_eq!(p.active_streams(), 0);
        let _ = p.draw(999_999, 5);
        assert_eq!(p.active_streams(), 1);
        for node in [0usize, 17, 123_456] {
            let _ = p.draw(node, 5);
        }
        assert_eq!(p.active_streams(), 4);
    }

    #[test]
    fn counter_streams_are_stateless_and_seed_sensitive() {
        let a = counter_uniform(1, 2, 3);
        assert_eq!(a.to_bits(), counter_uniform(1, 2, 3).to_bits());
        assert!((0.0..1.0).contains(&a));
        assert_ne!(a.to_bits(), counter_uniform(2, 2, 3).to_bits());
        assert_ne!(a.to_bits(), counter_uniform(1, 3, 3).to_bits());
        assert_ne!(a.to_bits(), counter_uniform(1, 2, 4).to_bits());
        // Normal variant: finite, deterministic, roughly standard.
        let n = 10_000;
        let mean = (0..n).map(|i| counter_normal(9, i, 1)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.05, "counter_normal mean {mean}");
        let var = (0..n).map(|i| counter_normal(9, i, 1).powi(2)).sum::<f64>() / n as f64;
        assert!((var - 1.0).abs() < 0.1, "counter_normal variance {var}");
    }
}
