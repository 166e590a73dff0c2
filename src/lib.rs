//! # chiron-repro
//!
//! Root crate of the reproduction of **"Incentive-Driven Long-term
//! Optimization for Edge Learning by Hierarchical Reinforcement
//! Mechanism"** (Chiron, ICDCS 2021).
//!
//! This crate re-exports every workspace component so downstream users can
//! depend on a single crate, and hosts the cross-crate integration tests
//! (`tests/`) and runnable examples (`examples/`).
//!
//! ## Crate map
//!
//! | Crate | Role |
//! |---|---|
//! | [`tensor`](chiron_tensor) | dense `f32` tensors, matmul, direct conv kernels |
//! | [`nn`](chiron_nn) | layers, losses, optimizers, the paper's CNNs |
//! | [`data`](chiron_data) | synthetic dataset profiles + partitioners |
//! | [`fedsim`](chiron_fedsim) | node economics, FedAvg, oracles, env |
//! | [`drl`](chiron_drl) | Gaussian policies, rollout buffers, PPO |
//! | [`chiron`] | the hierarchical mechanism (the contribution) |
//! | [`baselines`](chiron_baselines) | DRL-based, Greedy, static references |
//!
//! ## Quickstart
//!
//! ```
//! use chiron_repro::prelude::*;
//!
//! let mut env = EdgeLearningEnv::new(
//!     EnvConfig::paper_small(DatasetKind::MnistLike, 60.0), 42);
//! let mut mechanism = Chiron::new(&env, ChironConfig::fast(), 42);
//! mechanism.train(&mut env, 5); // 500 in the paper
//! let (summary, _rounds) = mechanism.run_episode(&mut env);
//! assert!(summary.spent <= 60.0);
//! ```

pub use chiron;
pub use chiron_baselines;
pub use chiron_data;
pub use chiron_drl;
pub use chiron_fedsim;
pub use chiron_nn;
pub use chiron_telemetry;
pub use chiron_tensor;

/// The most common imports for working with the reproduction.
pub mod prelude {
    pub use chiron::{
        ablation::FlatPpo, exterior_reward, inner_reward, Chiron, ChironConfig,
        ChironConfigBuilder, ChironSnapshot, ConfigError, EpisodeRun, Error, Mechanism,
        MechanismParams, RecoveryOptions, ResumeError, RunCheckpoint, DEFAULT_LAMBDA,
    };
    pub use chiron_baselines::{
        build_by_id, find, parse_ids, registry, DpPlanner, DrlSingleRound, FMoreAuction,
        FMoreConfig, Greedy, LemmaOracle, MechanismError, MechanismSpec, StackelbergConfig,
        StackelbergPricing, StaticPrice,
    };
    pub use chiron_data::{DatasetKind, DatasetSpec, SyntheticDataset};
    pub use chiron_drl::{
        AgentFullState, AgentSnapshot, AgentStateError, PpoAgent, PpoConfig, RolloutBuffer,
        RunningNorm,
    };
    pub use chiron_fedsim::{
        faults::{
            Fault, FaultProcessConfig, FaultSchedule, FaultScheduleError, GilbertElliott,
            ReserveDrift, UploadJitter,
        },
        fleet::{DataVolumes, FleetConfig, UploadModel},
        metrics::{EpisodeSummary, EventLog, ResilienceEvent, RoundRecord},
        oracle::{AccuracyOracle, CurveOracle, TrainingOracle},
        BudgetLedger, ChannelVariation, EdgeLearningEnv, EdgeNode, EnvConfig, EnvState, NodeParams,
        ResilienceConfig, StepStatus,
    };
    pub use chiron_nn::{write_atomic, Checkpoint, Layer, Optimizer, Sequential};
    pub use chiron_telemetry::{Record, RingBufferSink, RuntimeConfig, Sink, TelemetrySession};
    pub use chiron_tensor::{Tensor, TensorRng};
}
