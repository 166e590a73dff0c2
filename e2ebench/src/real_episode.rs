//! `real_episode`: Chiron (`ChironConfig::paper()`) trains a few episodes,
//! then runs one evaluation episode, against a `TrainingOracle` running
//! real local SGD, FedAvg and test-set evaluation of the paper's
//! 21,840-parameter MNIST CNN. Shard size and σ are scaled down so that a
//! round takes about half a second on a two-core host.
//!
//! The workload seed drives the synthetic dataset and the CNN's
//! initialisation. The fleet and the mechanism keep fixed seeds: they set
//! which nodes take part in each round, and with it the work per round,
//! which would otherwise differ between seeds by a third.

use crate::trace::GemmDims;
use crate::workload::{evaluation_episode, ms_since, Cover, Limits, Repeats, Run};
use chiron::{Chiron, ChironConfig, Mechanism};
use chiron_data::{DatasetKind, DatasetSpec};
use chiron_fedsim::oracle::{
    AccuracyOracle, OracleState, OracleStateError, RoundContext, TrainingOracle,
};
use chiron_fedsim::{EdgeLearningEnv, EnvConfig};
use chiron_nn::models::mnist_cnn;
use chiron_tensor::TensorRng;
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Instant;

const NODES: usize = 5;
const BATCH: usize = 10;
const LEARNING_RATE: f32 = 0.01;
const BUDGET: f64 = 20.0;
const FLEET_SEED: u64 = 42;
const MECHANISM_SEED: u64 = 42;
/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 9;
/// Repetitions that run whatever the deadline, so the repeat check
/// always has a pair to compare.
const MIN_REPS: usize = 2;

struct Size {
    samples: usize,
    sigma: u32,
    train_episodes: usize,
}

const FULL: Size = Size {
    samples: 1000,
    sigma: 2,
    train_episodes: 2,
};
const SMOKE: Size = Size {
    samples: 100,
    sigma: 1,
    train_episodes: 1,
};

/// Per-call timings taken by [`TimedOracle`].
#[derive(Debug, Default)]
struct OracleLog {
    execute_ms: Vec<f64>,
    reset_ms: Vec<f64>,
    /// Each round's wall time: from the end of the previous round (or of
    /// the episode's reset) to the end of this round's oracle call, so it
    /// covers pricing, the environment step and the real training.
    round_ms: Vec<f64>,
    mark: Option<Instant>,
}

/// Delegates to a `TrainingOracle` and times each call.
struct TimedOracle {
    inner: TrainingOracle,
    log: Arc<Mutex<OracleLog>>,
}

impl TimedOracle {
    fn log(&self) -> std::sync::MutexGuard<'_, OracleLog> {
        self.log.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

impl AccuracyOracle for TimedOracle {
    fn reset(&mut self) {
        let t = Instant::now();
        self.inner.reset();
        let mut log = self.log();
        log.reset_ms.push(ms_since(t));
        log.mark = Some(Instant::now());
    }

    fn execute_round(&mut self, ctx: &RoundContext<'_>) -> f64 {
        let t = Instant::now();
        let accuracy = self.inner.execute_round(ctx);
        let end = Instant::now();
        let mut log = self.log();
        log.execute_ms.push((end - t).as_secs_f64() * 1e3);
        if let Some(mark) = log.mark {
            log.round_ms.push((end - mark).as_secs_f64() * 1e3);
        }
        log.mark = Some(end);
        accuracy
    }

    fn accuracy(&self) -> f64 {
        self.inner.accuracy()
    }

    fn capture_state(&self) -> OracleState {
        self.inner.capture_state()
    }

    fn restore_state(&mut self, state: &OracleState) -> Result<(), OracleStateError> {
        self.inner.restore_state(state)
    }
}

/// Builds the oracle and its environment, timing the oracle on its own.
fn build(
    spec: &DatasetSpec,
    size: &Size,
    seed: u64,
    run: &mut Run,
) -> (EdgeLearningEnv, Arc<Mutex<OracleLog>>) {
    let t = Instant::now();
    let model = mnist_cnn(&mut TensorRng::seed_from(seed));
    let oracle = TrainingOracle::new(
        spec,
        model,
        NODES,
        size.samples,
        size.sigma,
        BATCH,
        LEARNING_RATE,
        seed,
    );
    run.time("fedsim.oracle.build_s", t.elapsed().as_secs_f64());
    let log = Arc::new(Mutex::new(OracleLog::default()));
    let config = EnvConfig {
        sigma: size.sigma,
        ..EnvConfig::paper_small(DatasetKind::MnistLike, BUDGET)
    };
    let oracle = TimedOracle {
        inner: oracle,
        log: Arc::clone(&log),
    };
    (
        EdgeLearningEnv::with_oracle(config, Box::new(oracle), FLEET_SEED),
        log,
    )
}

/// Runs the workload for `limits`.
pub fn run(limits: &Limits) -> Run {
    let size = if limits.smoke { &SMOKE } else { &FULL };
    let spec = DatasetSpec::mnist_like();
    let mut run = Run {
        op: "round",
        dims: cnn_dims(),
        coverage: vec![
            Cover::Timing("fedsim.oracle.round_ms"),
            Cover::Timing("fedsim.oracle.reset_ms"),
            Cover::Span("pricing"),
            Cover::Span("ppo_update"),
        ],
        ..Run::default()
    };

    let mut built = None;
    for _ in 0..SETUPS {
        let t = Instant::now();
        built = Some(build(&spec, size, limits.seed, &mut run));
        run.setup_s.push(t.elapsed().as_secs_f64());
    }
    let (mut env, log) = built.expect("at least one set-up");
    *log.lock().unwrap_or_else(PoisonError::into_inner) = OracleLog::default();

    let chance = 1.0 / spec.classes as f64;
    let mut repeats = Repeats::default();
    let start = Instant::now();
    let deadline = limits.deadline(start);
    for rep in 0.. {
        let mut mech = Chiron::new(&env, ChironConfig::paper(), MECHANISM_SEED);
        let mut complete = true;
        for _ in 0..size.train_episodes {
            if rep >= MIN_REPS && Instant::now() >= deadline {
                complete = false;
                break;
            }
            mech.train(&mut env, 1);
        }
        if !complete {
            break;
        }
        let summary = evaluation_episode(&mut mech, &mut env, &mut run);
        repeats.check(&mut run, 0, &summary);
        if summary.final_accuracy <= chance {
            run.fail(format!(
                "repetition {rep}: final accuracy {} does not beat chance {chance}",
                summary.final_accuracy
            ));
        }
        if rep + 1 >= MIN_REPS && Instant::now() >= deadline {
            break;
        }
    }
    run.loop_s = start.elapsed().as_secs_f64();

    let log = std::mem::take(&mut *log.lock().unwrap_or_else(PoisonError::into_inner));
    run.attempted = log.round_ms.len() as u64;
    run.op_ms = log.round_ms;
    run.timings.insert("fedsim.oracle.round_ms", log.execute_ms);
    run.timings.insert("fedsim.oracle.reset_ms", log.reset_ms);
    run
}

/// The MNIST CNN's GEMM dimensions: kernel fans, channels and widths, and
/// batch rows times each feature-map size.
fn cnn_dims() -> GemmDims {
    let maps = [576, 144, 64, 16];
    let mut batch = Vec::new();
    for b in 1..=64 {
        batch.push(b);
        batch.extend(maps.iter().map(|p| b * p));
    }
    GemmDims {
        fixed: vec![1, 10, 20, 25, 50, 250, 320],
        batch,
    }
}
