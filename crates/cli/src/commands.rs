//! The CLI subcommands: `train`, `eval`, `compare`, `serve`, `info`.

use crate::args::{ArgError, ParsedArgs};
use chiron::{
    Chiron, ChironConfig, ChironSnapshot, EpisodeRun, Mechanism, MechanismParams, RecoveryOptions,
    ResumeError,
};
use chiron_baselines::{parse_ids, MechanismError};
use chiron_data::{DatasetKind, DatasetSpec};
use chiron_fedsim::faults::FaultProcessConfig;
use chiron_fedsim::metrics::{rounds_to_csv, EpisodeSummary, EventLog};
use chiron_fedsim::{EdgeLearningEnv, EnvConfig, ResilienceConfig};
use chiron_serve::{shutdown, Daemon, ServeConfig, ServeError};
use chiron_telemetry::{RuntimeConfig, TelemetrySession};
use chiron_tensor::pool;
use serde::{Deserialize, Serialize};
use std::ops::ControlFlow;

/// A fully specified experiment, loadable from JSON (`run --config`).
///
/// Every simulator and mechanism knob is on the record, so an experiment
/// file plus a seed reproduces a result exactly.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ExperimentConfig {
    /// Free-form description (recorded, not interpreted).
    pub description: String,
    /// Environment: fleet, dataset, budget, channel, oracle noise.
    pub env: EnvConfig,
    /// Chiron hyperparameters.
    pub chiron: ChironConfig,
    /// Training episodes.
    pub episodes: usize,
    /// Master seed.
    pub seed: u64,
}

impl ExperimentConfig {
    /// The paper's small-scale MNIST experiment as a starting template.
    pub fn template() -> Self {
        Self {
            description: "Chiron on MNIST-like, 5 nodes, eta = 100 (paper small-scale)".into(),
            env: EnvConfig::paper_small(DatasetKind::MnistLike, 100.0),
            chiron: ChironConfig::paper(),
            episodes: 300,
            seed: 42,
        }
    }

    /// Builder seeded with [`ExperimentConfig::template`]; override any
    /// subset of knobs and finish with a validated
    /// [`ExperimentConfigBuilder::build`].
    ///
    /// ```
    /// use chiron_cli::commands::ExperimentConfig;
    /// use chiron_data::DatasetKind;
    /// let exp = ExperimentConfig::builder()
    ///     .dataset(DatasetKind::MnistLike)
    ///     .budget(100.0)
    ///     .seed(42)
    ///     .build()
    ///     .unwrap();
    /// assert_eq!(exp.seed, 42);
    /// ```
    pub fn builder() -> ExperimentConfigBuilder {
        ExperimentConfigBuilder {
            inner: Self::template(),
        }
    }
}

/// Builder for [`ExperimentConfig`]. Validation happens once, at
/// [`ExperimentConfigBuilder::build`].
#[derive(Debug, Clone)]
pub struct ExperimentConfigBuilder {
    inner: ExperimentConfig,
}

impl ExperimentConfigBuilder {
    /// Free-form description recorded in the experiment file.
    pub fn description(mut self, description: impl Into<String>) -> Self {
        self.inner.description = description.into();
        self
    }

    /// Dataset profile by kind.
    pub fn dataset(mut self, kind: DatasetKind) -> Self {
        self.inner.env.dataset = DatasetSpec::for_kind(kind);
        self
    }

    /// Fleet size, keeping the template's per-node parameter ranges.
    pub fn nodes(mut self, nodes: usize) -> Self {
        self.inner.env.fleet.nodes = nodes;
        self
    }

    /// Total budget `η`.
    pub fn budget(mut self, budget: f64) -> Self {
        self.inner.env.budget = budget;
        self
    }

    /// Full environment configuration (overrides dataset/nodes/budget).
    pub fn env(mut self, env: EnvConfig) -> Self {
        self.inner.env = env;
        self
    }

    /// Chiron hyperparameters.
    pub fn chiron(mut self, chiron: ChironConfig) -> Self {
        self.inner.chiron = chiron;
        self
    }

    /// Training episodes.
    pub fn episodes(mut self, episodes: usize) -> Self {
        self.inner.episodes = episodes;
        self
    }

    /// Master seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.inner.seed = seed;
        self
    }

    /// Validates the assembled experiment and returns it.
    ///
    /// # Errors
    ///
    /// Returns [`CliError::Invalid`] naming the first violated constraint.
    pub fn build(self) -> Result<ExperimentConfig, CliError> {
        let c = &self.inner;
        if c.env.fleet.nodes == 0 {
            return Err(CliError::Invalid("nodes must be at least 1".into()));
        }
        if !(c.env.budget > 0.0 && c.env.budget.is_finite()) {
            return Err(CliError::Invalid("budget must be positive".into()));
        }
        if c.episodes == 0 {
            return Err(CliError::Invalid("episodes must be at least 1".into()));
        }
        c.chiron
            .check()
            .map_err(|e| CliError::Invalid(e.to_string()))?;
        Ok(self.inner)
    }
}

/// A CLI failure with a user-facing message and a typed source chain.
#[derive(Debug)]
pub enum CliError {
    /// Command-line parsing or flag extraction failed.
    Arg(ArgError),
    /// An underlying I/O operation failed.
    Io(std::io::Error),
    /// A flag or configuration value was rejected (message is the full
    /// user-facing explanation).
    Invalid(String),
    /// A mechanism snapshot failed to load or restore.
    Snapshot {
        /// Path of the offending snapshot file.
        path: String,
        /// The typed failure underneath.
        source: chiron::Error,
    },
    /// An experiment file failed to parse.
    Experiment {
        /// Path of the offending experiment file.
        path: String,
        /// The parse failure underneath.
        source: serde_json::Error,
    },
    /// A run checkpoint failed to load, restore, or save.
    Recovery {
        /// Path of the offending checkpoint file.
        path: String,
        /// The typed failure underneath.
        source: ResumeError,
    },
    /// A mechanism id failed to resolve or a mechanism config was rejected
    /// (see [`chiron_baselines::MechanismError`]).
    Mechanism(MechanismError),
    /// The serve daemon failed to start or operate.
    Serve(ServeError),
    /// The run was stopped by SIGINT/SIGTERM after flushing its state;
    /// `main` maps this to exit code [`shutdown::EXIT_INTERRUPTED`].
    Interrupted,
}

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CliError::Arg(e) => write!(f, "{e}"),
            CliError::Io(e) => write!(f, "I/O error: {e}"),
            CliError::Invalid(msg) => f.write_str(msg),
            CliError::Snapshot { path, source } => match source {
                chiron::Error::Checkpoint(e) => write!(
                    f,
                    "snapshot {path} does not fit this task shape: {e} \
                     (train and eval must use the same --nodes)"
                ),
                other => write!(f, "invalid snapshot {path}: {other}"),
            },
            CliError::Experiment { path, source } => {
                write!(f, "invalid experiment file {path}: {source}")
            }
            CliError::Recovery { path, source } => {
                write!(f, "checkpoint {path}: {source}")
            }
            CliError::Mechanism(e) => write!(f, "{e}"),
            CliError::Serve(e) => write!(f, "{e}"),
            CliError::Interrupted => f.write_str("interrupted by signal; state flushed"),
        }
    }
}

impl std::error::Error for CliError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CliError::Arg(e) => Some(e),
            CliError::Io(e) => Some(e),
            CliError::Invalid(_) => None,
            CliError::Snapshot { source, .. } => Some(source),
            CliError::Experiment { source, .. } => Some(source),
            CliError::Recovery { source, .. } => Some(source),
            CliError::Mechanism(e) => Some(e),
            CliError::Serve(e) => Some(e),
            CliError::Interrupted => None,
        }
    }
}

impl From<ServeError> for CliError {
    fn from(e: ServeError) -> Self {
        CliError::Serve(e)
    }
}

impl From<ArgError> for CliError {
    fn from(e: ArgError) -> Self {
        CliError::Arg(e)
    }
}

impl From<MechanismError> for CliError {
    fn from(e: MechanismError) -> Self {
        CliError::Mechanism(e)
    }
}

impl From<std::io::Error> for CliError {
    fn from(e: std::io::Error) -> Self {
        CliError::Io(e)
    }
}

fn dataset_from(name: &str) -> Result<DatasetKind, CliError> {
    DatasetKind::from_name(name).ok_or_else(|| {
        CliError::Invalid(format!(
            "unknown dataset '{name}' (expected mnist | fashion | cifar | tiny)"
        ))
    })
}

fn build_env(
    kind: DatasetKind,
    nodes: usize,
    budget: f64,
    seed: u64,
    rt: &RuntimeConfig,
) -> Result<EdgeLearningEnv, CliError> {
    if nodes == 0 {
        return Err(CliError::Invalid("--nodes must be at least 1".into()));
    }
    if budget <= 0.0 {
        return Err(CliError::Invalid("--budget must be positive".into()));
    }
    let mut config = EnvConfig::paper_small(kind, budget);
    config.fleet.nodes = nodes;
    // CHIRON_FLEET_SAMPLE switches on O(selected) sampled participation;
    // 0 or unset keeps the paper's full participation.
    if let Some(per_round) = rt.fleet_sample.filter(|&k| k > 0) {
        config.participation = chiron_fedsim::Participation::Sampled { per_round };
    }
    let mut env =
        EdgeLearningEnv::try_new(config, seed).map_err(|e| CliError::Invalid(e.to_string()))?;
    apply_env_overrides(&mut env, rt);
    Ok(env)
}

/// Applies the resilience knobs of the ambient [`RuntimeConfig`]
/// (documented in README.md): `CHIRON_QUORUM` / `CHIRON_DEADLINE_SLACK`
/// switch on the PS-side countermeasures, and `CHIRON_FAULT_SEED`
/// installs the standard stochastic fault process seeded with its value.
/// Unset or malformed variables leave the environment untouched.
fn apply_env_overrides(env: &mut EdgeLearningEnv, rt: &RuntimeConfig) {
    env.set_resilience(ResilienceConfig::from_runtime(rt));
    if let Some(seed) = rt.fault_seed {
        env.set_fault_process(Some(FaultProcessConfig::standard(seed)));
    }
}

/// Applies `--jobs N`: resizes the shared worker pool that every region —
/// tensor kernels and named regions (nodes, sweep cells, eval seeds) —
/// draws from. Absent the flag, the pool keeps its
/// `CHIRON_THREADS`/available-parallelism sizing. Results are bitwise
/// identical for every value — only wall-clock changes.
fn apply_jobs(args: &ParsedArgs) -> Result<(), CliError> {
    if let Some(raw) = args.options.get("jobs") {
        let jobs = raw.parse::<usize>().map_err(|_| {
            CliError::Invalid(format!("invalid --jobs value '{raw}' (expected a count)"))
        })?;
        if jobs == 0 {
            return Err(CliError::Invalid("--jobs must be at least 1".into()));
        }
        pool::set_threads(jobs);
    }
    Ok(())
}

/// Opens a telemetry session when `--telemetry <path>` asks for one;
/// `None` means disabled.
fn telemetry_from(args: &ParsedArgs) -> Result<Option<TelemetrySession>, CliError> {
    match args.options.get("telemetry") {
        None => Ok(None),
        Some(path) => {
            let session = TelemetrySession::to_jsonl(path)?;
            println!("telemetry streaming to {path} (aggregates: {path}.prom)");
            Ok(Some(session))
        }
    }
}

fn finish_telemetry(session: Option<TelemetrySession>) -> Result<(), CliError> {
    if let Some(session) = session {
        session.finish()?;
    }
    Ok(())
}

fn print_summary(name: &str, s: &EpisodeSummary) {
    println!("{name}:");
    println!("  rounds completed    : {}", s.rounds);
    println!("  final accuracy      : {:.4}", s.final_accuracy);
    println!("  total learning time : {:.1} s", s.total_time);
    println!(
        "  mean time efficiency: {:.1} %",
        s.mean_time_efficiency * 100.0
    );
    println!("  budget spent        : {:.2}", s.spent);
}

/// `chiron-cli train` — trains Chiron and optionally writes a snapshot.
///
/// Training is interruptible: SIGINT/SIGTERM stops at the next episode
/// boundary, flushes the checkpoint (`--checkpoint`) or the snapshot
/// (`--out`) plus telemetry, and exits with
/// [`shutdown::EXIT_INTERRUPTED`]. With `--checkpoint`, re-running the
/// same command resumes bitwise-identically to an uninterrupted run.
pub fn train(args: &ParsedArgs, rt: &RuntimeConfig) -> Result<(), CliError> {
    args.reject_unknown(&[
        "dataset",
        "nodes",
        "budget",
        "episodes",
        "seed",
        "out",
        "checkpoint",
        "checkpoint-every",
        "telemetry",
        "jobs",
    ])?;
    let kind = dataset_from(args.str_or("dataset", "mnist"))?;
    let nodes: usize = args.parse_or("nodes", 5)?;
    let budget: f64 = args.parse_or("budget", 100.0)?;
    let episodes: usize = args.parse_or("episodes", 300)?;
    let seed: u64 = args.parse_or("seed", 42)?;
    let chunk: usize = args.parse_or("checkpoint-every", 25)?;
    if chunk == 0 {
        return Err(CliError::Invalid(
            "--checkpoint-every must be at least 1".into(),
        ));
    }
    apply_jobs(args)?;
    let telemetry = telemetry_from(args)?;
    shutdown::install();

    let mut env = build_env(kind, nodes, budget, seed, rt)?;
    println!(
        "training chiron: dataset {kind}, {nodes} nodes, η = {budget}, {episodes} episodes, seed {seed}"
    );
    let mut mech = Chiron::new(&env, ChironConfig::paper(), seed);
    let t0 = std::time::Instant::now();
    let rewards = match args.options.get("checkpoint") {
        Some(path) => {
            let recovery = |source| CliError::Recovery {
                path: path.clone(),
                source,
            };
            let log = &mut EventLog::new();
            match train_checkpointed(&mut mech, &mut env, episodes, chunk, path, log)
                .map_err(recovery)?
            {
                ControlFlow::Continue(rewards) => rewards,
                ControlFlow::Break(done) => {
                    println!(
                        "interrupt received: checkpoint flushed at episode {done} ({path}); \
                         re-run the same command to resume"
                    );
                    finish_telemetry(telemetry)?;
                    return Err(CliError::Interrupted);
                }
            }
        }
        None => {
            // Episode boundaries are exact PPO-update boundaries (buffers
            // are empty there), so training in chunks is bitwise-identical
            // to a single `train` call — which makes the run interruptible
            // without any checkpoint machinery.
            let mut rewards = Vec::with_capacity(episodes);
            let mut interrupted = false;
            while rewards.len() < episodes {
                if shutdown::requested() {
                    interrupted = true;
                    break;
                }
                let n = chunk.min(episodes - rewards.len());
                rewards.extend(mech.train(&mut env, n));
            }
            if interrupted {
                match args.options.get("out") {
                    Some(path) => {
                        std::fs::write(path, mech.snapshot().to_json())?;
                        println!(
                            "interrupt received: snapshot flushed to {path} after episode {}",
                            rewards.len()
                        );
                    }
                    None => println!(
                        "interrupt received: stopping after episode {} \
                         (no --out/--checkpoint, progress discarded)",
                        rewards.len()
                    ),
                }
                finish_telemetry(telemetry)?;
                return Err(CliError::Interrupted);
            }
            rewards
        }
    };
    println!("trained in {:.1?}", t0.elapsed());
    if let (Some(first), Some(last)) = (rewards.first(), rewards.last()) {
        println!("episode reward: {first:.2} (first) → {last:.2} (last)");
    }

    let (summary, _) = mech.run_episode(&mut env);
    print_summary("evaluation", &summary);

    if let Some(path) = args.options.get("out") {
        std::fs::write(path, mech.snapshot().to_json())?;
        println!("snapshot written to {path}");
    }
    finish_telemetry(telemetry)
}

/// Trains all `episodes` in one `train_recoverable_with` call that saves
/// every `every` episodes, resuming first if `path` already holds a
/// checkpoint. A shutdown signal stops the run at the next checkpoint
/// boundary, breaking with the episode count flushed there.
fn train_checkpointed(
    mech: &mut Chiron,
    env: &mut EdgeLearningEnv,
    episodes: usize,
    every: usize,
    path: &str,
    log: &mut EventLog,
) -> Result<ControlFlow<usize, Vec<f64>>, ResumeError> {
    let options = RecoveryOptions::try_new(path, every)?;
    mech.train_recoverable_with(env, episodes, &options, log, |done| {
        if done < episodes && shutdown::requested() {
            ControlFlow::Break(done)
        } else {
            ControlFlow::Continue(())
        }
    })
}

/// `chiron-cli serve` — runs the fault-tolerant mechanism-as-a-service
/// daemon until `POST /shutdown` or a SIGINT/SIGTERM, then drains:
/// running jobs park at their next checkpoint and the process exits
/// (with [`shutdown::EXIT_INTERRUPTED`] when signalled).
pub fn serve(args: &ParsedArgs) -> Result<(), CliError> {
    args.reject_unknown(&[
        "addr",
        "workers",
        "queue-cap",
        "inflight",
        "retry-max",
        "backoff-ms",
        "checkpoint-every",
        "deadline-ms",
        "state-dir",
        "telemetry",
        "jobs",
    ])?;
    apply_jobs(args)?;
    let telemetry = telemetry_from(args)?;

    let mut cfg = ServeConfig::default();
    if let Some(addr) = args.options.get("addr") {
        cfg.addr = addr.clone();
    }
    cfg.workers = args.parse_or("workers", cfg.workers)?;
    cfg.max_inflight = args.parse_or("inflight", cfg.workers)?;
    cfg.queue_cap = args.parse_or("queue-cap", cfg.queue_cap)?;
    cfg.retry_max = args.parse_or("retry-max", cfg.retry_max)?;
    cfg.backoff_base_ms = args.parse_or("backoff-ms", cfg.backoff_base_ms)?;
    cfg.checkpoint_every = args.parse_or("checkpoint-every", cfg.checkpoint_every)?;
    if let Some(raw) = args.options.get("deadline-ms") {
        let ms: u64 = raw.parse().map_err(|_| {
            CliError::Invalid(format!("invalid --deadline-ms value '{raw}' (expected ms)"))
        })?;
        cfg.default_deadline_ms = Some(ms);
    }
    if let Some(dir) = args.options.get("state-dir") {
        cfg.state_dir = dir.into();
    }
    for (name, value) in [
        ("--workers", cfg.workers),
        ("--queue-cap", cfg.queue_cap),
        ("--inflight", cfg.max_inflight),
        ("--checkpoint-every", cfg.checkpoint_every),
    ] {
        if value == 0 {
            return Err(CliError::Invalid(format!("{name} must be at least 1")));
        }
    }

    shutdown::install();
    shutdown::reset();
    let daemon = Daemon::start(cfg).map_err(CliError::Serve)?;
    println!("serve: listening on {}", daemon.addr());
    println!(
        "serve: POST /jobs | GET /jobs/:id | DELETE /jobs/:id | \
         GET /healthz | GET /metrics | POST /shutdown"
    );
    let signalled = loop {
        if shutdown::requested() {
            break true;
        }
        if daemon.is_stopping() {
            break false;
        }
        std::thread::sleep(std::time::Duration::from_millis(50));
    };
    println!("serve: draining (running jobs park at their next checkpoint)");
    daemon.join(std::time::Duration::from_secs(30));
    println!("serve: stopped");
    finish_telemetry(telemetry)?;
    if signalled {
        Err(CliError::Interrupted)
    } else {
        Ok(())
    }
}

/// `chiron-cli eval` — evaluates a snapshot (or a fresh policy) on a task,
/// optionally replicated across environment seeds (`--seeds N`, parallel
/// seed cells).
pub fn eval(args: &ParsedArgs, rt: &RuntimeConfig) -> Result<(), CliError> {
    args.reject_unknown(&[
        "dataset",
        "nodes",
        "budget",
        "seed",
        "seeds",
        "model",
        "trace",
        "events",
        "telemetry",
        "jobs",
    ])?;
    let kind = dataset_from(args.str_or("dataset", "mnist"))?;
    let nodes: usize = args.parse_or("nodes", 5)?;
    let budget: f64 = args.parse_or("budget", 100.0)?;
    let seed: u64 = args.parse_or("seed", 42)?;
    let seeds: usize = args.parse_or("seeds", 1)?;
    if seeds == 0 {
        return Err(CliError::Invalid("--seeds must be at least 1".into()));
    }
    if seeds > 1 && (args.options.contains_key("trace") || args.options.contains_key("events")) {
        return Err(CliError::Invalid(
            "--trace/--events record a single episode; drop them or use --seeds 1".into(),
        ));
    }
    apply_jobs(args)?;
    let telemetry = telemetry_from(args)?;

    let mut env = build_env(kind, nodes, budget, seed, rt)?;
    let mut mech = Chiron::new(&env, ChironConfig::paper(), seed);
    if let Some(path) = args.options.get("model") {
        let json = std::fs::read_to_string(path)?;
        let snapshot = ChironSnapshot::from_json(&json).map_err(|e| CliError::Snapshot {
            path: path.clone(),
            source: chiron::Error::from(e),
        })?;
        snapshot
            .restore(&mut mech)
            .map_err(|e| CliError::Snapshot {
                path: path.clone(),
                source: chiron::Error::from(e),
            })?;
        println!(
            "loaded snapshot {path} ({} episodes trained)",
            mech.episodes_trained()
        );
    } else {
        println!("no --model given: evaluating an untrained policy");
    }

    if seeds > 1 {
        eval_seed_cells(&mut mech, kind, nodes, budget, seed, seeds, rt)?;
        return finish_telemetry(telemetry);
    }

    let mut events = EventLog::new();
    let (summary, records) = mech.run_episode_logged(&mut env, 0, &mut events);
    print_summary("evaluation", &summary);

    if let Some(path) = args.options.get("trace") {
        std::fs::write(path, rounds_to_csv(&records))?;
        println!("round trace written to {path}");
    }
    if let Some(path) = args.options.get("events") {
        std::fs::write(path, events.to_jsonl())?;
        println!(
            "{} resilience events written to {path}",
            events.entries().len()
        );
    }
    finish_telemetry(telemetry)
}

/// Multi-seed evaluation: one region task per environment seed, each on a
/// snapshot-restored replica of `mech`, summaries printed in seed order
/// plus a mean ± std digest. Bitwise-identical to evaluating the seeds
/// one after another.
fn eval_seed_cells(
    mech: &mut Chiron,
    kind: DatasetKind,
    nodes: usize,
    budget: f64,
    base_seed: u64,
    seeds: usize,
    rt: &RuntimeConfig,
) -> Result<(), CliError> {
    let snap = mech.snapshot();
    let cells: Vec<u64> = (0..seeds as u64)
        .map(|r| base_seed.wrapping_add(r))
        .collect();
    let results: Vec<Result<EpisodeSummary, CliError>> =
        pool::map("cli.eval_seeds", &cells, |_, &cell_seed| {
            let mut env = build_env(kind, nodes, budget, cell_seed, rt)?;
            let mut replica = Chiron::new(&env, ChironConfig::paper(), cell_seed);
            snap.restore(&mut replica).map_err(|e| CliError::Snapshot {
                path: "<in-memory snapshot>".into(),
                source: chiron::Error::from(e),
            })?;
            let (summary, _) = replica.run_episode(&mut env);
            Ok(summary)
        });
    let mut summaries = Vec::with_capacity(seeds);
    for (cell_seed, result) in cells.iter().zip(results) {
        let summary = result?;
        print_summary(&format!("evaluation (seed {cell_seed})"), &summary);
        summaries.push(summary);
    }
    let accs: Vec<f64> = summaries.iter().map(|s| s.final_accuracy).collect();
    let mean = accs.iter().sum::<f64>() / accs.len() as f64;
    let var = accs.iter().map(|a| (a - mean).powi(2)).sum::<f64>() / accs.len() as f64;
    println!(
        "across {seeds} seeds: accuracy {mean:.4} ± {:.4}",
        var.sqrt()
    );
    Ok(())
}

/// Parses a comma-separated budget list like `60,80,100`.
fn budgets_from(raw: &str) -> Result<Vec<f64>, CliError> {
    let budgets: Result<Vec<f64>, _> = raw.split(',').map(|t| t.trim().parse::<f64>()).collect();
    let budgets = budgets.map_err(|_| CliError::Invalid(format!("invalid budget list '{raw}'")))?;
    if budgets.is_empty() || budgets.iter().any(|&b| b <= 0.0) {
        return Err(CliError::Invalid("budgets must be positive".into()));
    }
    Ok(budgets)
}

/// `chiron-cli sweep` — trains once, evaluates across a budget list, and
/// writes a CSV (the CLI twin of the Fig. 4 protocol).
pub fn sweep(args: &ParsedArgs, rt: &RuntimeConfig) -> Result<(), CliError> {
    args.reject_unknown(&[
        "dataset", "nodes", "budgets", "episodes", "seed", "out", "jobs",
    ])?;
    let kind = dataset_from(args.str_or("dataset", "mnist"))?;
    let nodes: usize = args.parse_or("nodes", 5)?;
    let budgets = budgets_from(args.str_or("budgets", "60,80,100,120,140"))?;
    let episodes: usize = args.parse_or("episodes", 300)?;
    let seed: u64 = args.parse_or("seed", 42)?;
    apply_jobs(args)?;

    let train_budget = budgets[budgets.len() / 2];
    println!(
        "sweep: dataset {kind}, {nodes} nodes, budgets {budgets:?}, training at η = {train_budget}"
    );
    let mut env = build_env(kind, nodes, train_budget, seed, rt)?;
    let mut mech = Chiron::new(&env, ChironConfig::paper(), seed);
    mech.train(&mut env, episodes);

    let mut csv = String::from("budget,accuracy,rounds,total_time,time_efficiency,spent\n");
    println!(
        "{:>9} {:>9} {:>7} {:>10} {:>10}",
        "budget", "accuracy", "rounds", "time (s)", "time-eff %"
    );
    for &budget in &budgets {
        let mut env = build_env(kind, nodes, budget, seed, rt)?;
        let (s, _) = mech.run_episode(&mut env);
        println!(
            "{budget:>9} {:>9.4} {:>7} {:>10.1} {:>10.1}",
            s.final_accuracy,
            s.rounds,
            s.total_time,
            s.mean_time_efficiency * 100.0
        );
        csv.push_str(&format!(
            "{budget},{:.4},{},{:.2},{:.4},{:.2}\n",
            s.final_accuracy, s.rounds, s.total_time, s.mean_time_efficiency, s.spent
        ));
    }
    if let Some(path) = args.options.get("out") {
        std::fs::write(path, csv)?;
        println!("sweep CSV written to {path}");
    }
    Ok(())
}

/// `chiron-cli run` — executes an experiment file (`--config exp.json`),
/// or writes a starting template (`--init exp.json`).
pub fn run(args: &ParsedArgs) -> Result<(), CliError> {
    args.reject_unknown(&["config", "init", "out", "telemetry", "jobs"])?;
    apply_jobs(args)?;
    if let Some(path) = args.options.get("init") {
        let json = serde_json::to_string_pretty(&ExperimentConfig::template()).map_err(|e| {
            CliError::Invalid(format!("experiment template failed to serialize: {e}"))
        })?;
        std::fs::write(path, json)?;
        println!("experiment template written to {path} — edit and run with --config");
        return Ok(());
    }
    let path = args.str_required("config")?;
    let json = std::fs::read_to_string(path)?;
    let exp: ExperimentConfig = serde_json::from_str(&json).map_err(|e| CliError::Experiment {
        path: path.to_owned(),
        source: e,
    })?;
    let telemetry = telemetry_from(args)?;

    println!("experiment: {}", exp.description);
    println!(
        "  dataset {}, {} nodes, η = {}, {} episodes, seed {}",
        exp.env.dataset.kind, exp.env.fleet.nodes, exp.env.budget, exp.episodes, exp.seed
    );
    let mut env = EdgeLearningEnv::new(exp.env.clone(), exp.seed);
    let mut mech = Chiron::new(&env, exp.chiron.clone(), exp.seed);
    let t0 = std::time::Instant::now();
    mech.train(&mut env, exp.episodes);
    println!("trained in {:.1?}", t0.elapsed());
    let mut env = EdgeLearningEnv::new(exp.env.clone(), exp.seed);
    let (summary, _) = mech.run_episode(&mut env);
    print_summary("evaluation", &summary);

    if let Some(out) = args.options.get("out") {
        std::fs::write(out, mech.snapshot().to_json())?;
        println!("snapshot written to {out}");
    }
    finish_telemetry(telemetry)
}

/// The mechanisms `compare` trains when `--mechanisms` is not given (the
/// paper's contenders plus the two reference policies).
pub const COMPARE_DEFAULT_MECHANISMS: &str = "chiron,drl-based,greedy,dp-planner,static";

/// `chiron-cli compare` — trains every selected mechanism and prints the
/// comparison. `--mechanisms a,b,c` picks registry entries by id (default
/// [`COMPARE_DEFAULT_MECHANISMS`]); an unknown id is a typed error listing
/// every known id.
pub fn compare(args: &ParsedArgs, rt: &RuntimeConfig) -> Result<(), CliError> {
    args.reject_unknown(&[
        "dataset",
        "nodes",
        "budget",
        "episodes",
        "seed",
        "jobs",
        "mechanisms",
    ])?;
    let kind = dataset_from(args.str_or("dataset", "mnist"))?;
    let nodes: usize = args.parse_or("nodes", 5)?;
    let budget: f64 = args.parse_or("budget", 100.0)?;
    let episodes: usize = args.parse_or("episodes", 300)?;
    let seed: u64 = args.parse_or("seed", 42)?;
    let specs = parse_ids(args.str_or("mechanisms", COMPARE_DEFAULT_MECHANISMS))?;
    apply_jobs(args)?;

    println!(
        "comparing mechanisms: dataset {kind}, {nodes} nodes, η = {budget}, {episodes} episodes\n"
    );
    let env0 = build_env(kind, nodes, budget, seed, rt)?;
    let params = MechanismParams::new(seed);
    let mut mechanisms: Vec<Box<dyn Mechanism>> = specs
        .iter()
        .map(|spec| (spec.build)(&env0, &params).map_err(CliError::Mechanism))
        .collect::<Result<_, _>>()?;

    // Each mechanism trains and evaluates in its own envs, so the cells
    // run as one named region; rows join in the requested id order.
    let results = pool::map_mut("cli.compare", &mut mechanisms, |_, mech| {
        let mut env = build_env(kind, nodes, budget, seed, rt)?;
        mech.train(&mut env, episodes);
        let mut env = build_env(kind, nodes, budget, seed, rt)?;
        let (summary, _) = mech.run_episode(&mut env);
        Ok((mech.name(), summary))
    });
    let rows = results.into_iter().collect::<Result<Vec<_>, CliError>>()?;

    println!(
        "{:<12} {:>9} {:>7} {:>10} {:>10} {:>9}",
        "mechanism", "accuracy", "rounds", "time (s)", "time-eff %", "spent"
    );
    for (name, s) in &rows {
        println!(
            "{:<12} {:>9.4} {:>7} {:>10.1} {:>10.1} {:>9.1}",
            name,
            s.final_accuracy,
            s.rounds,
            s.total_time,
            s.mean_time_efficiency * 100.0,
            s.spent
        );
    }
    Ok(())
}

/// `chiron-cli info` — build and paper information.
pub fn info() {
    println!("chiron-cli {}", env!("CARGO_PKG_VERSION"));
    println!(
        "reproduction of: Liu, Wu, Zhan, Guo, Hong — \"Incentive-Driven \
         Long-term Optimization for Edge Learning by Hierarchical \
         Reinforcement Mechanism\", IEEE ICDCS 2021"
    );
    println!("datasets: mnist | fashion | cifar | tiny (synthetic profiles)");
    println!("see README.md and EXPERIMENTS.md for the full reproduction record");
}

/// Usage text.
pub fn usage() -> String {
    "\
usage: chiron-cli <command> [--flag value]...

commands:
  train     train the hierarchical mechanism
            --dataset mnist|fashion|cifar|tiny (mnist)
            --nodes N (5)  --budget η (100)  --episodes E (300)
            --seed S (42)  --out snapshot.json  --jobs J (pool size)
            --checkpoint run.json  (crash-resumable run checkpoint)
            --checkpoint-every E (25)  (episodes between checkpoints)
            --telemetry run.jsonl  (structured telemetry stream)
            SIGINT/SIGTERM stop at an episode boundary, flush the
            checkpoint/snapshot, and exit with code 130
  eval      evaluate a trained snapshot (or an untrained policy)
            --model snapshot.json  --trace rounds.csv
            --events events.jsonl  (resilience event log, one JSON per line)
            --seeds N  (replicate over N env seeds, parallel cells)
            --telemetry run.jsonl  --dataset …  --nodes N  --budget η
            --seed S  --jobs J
  compare   train and compare mechanisms from the registry
            --mechanisms a,b,c  (default chiron,drl-based,greedy,dp-planner,static;
            also: flat-ppo, lemma-oracle, fmore, stackelberg)
            (mechanisms train concurrently; output order follows the id list)
            --dataset …  --nodes N  --budget η  --episodes E  --seed S  --jobs J
  sweep     train once, evaluate across budgets, optionally write CSV
            --budgets 60,80,100,120,140  --out sweep.csv
            --dataset …  --nodes N  --episodes E  --seed S  --jobs J
  run       execute a fully specified experiment file
            --config exp.json  [--out snapshot.json]  [--telemetry run.jsonl]
            --init exp.json    (write a starting template)  --jobs J
  serve     run the mechanism-as-a-service daemon (std-only HTTP/1.1)
            --addr HOST:PORT (127.0.0.1:0)  --workers N (2)
            --queue-cap N (64)  --inflight N (workers)
            --retry-max N (3)  --backoff-ms MS (100)
            --checkpoint-every E (5)  --deadline-ms MS (none)
            --state-dir DIR (temp)  --telemetry run.jsonl  --jobs J
            endpoints: POST /jobs  GET /jobs/:id  DELETE /jobs/:id
                       GET /healthz  GET /metrics  POST /shutdown
            SIGINT/SIGTERM (or POST /shutdown) drain then stop
  info      version and paper reference

environment variables (read once at startup; see README.md for the table):
  CHIRON_FAULT_SEED=U64   install the standard stochastic fault process
  CHIRON_QUORUM=N         require ≥ N responders per round (refund otherwise)
  CHIRON_DEADLINE_SLACK=F evict responders slower than F x the Lemma-1 deadline
  CHIRON_FLEET_SAMPLE=K   price a K-node sample per round (0/unset = full fleet)
  CHIRON_THREADS=N        worker-pool size (same as --jobs)
  CHIRON_SIMD=0           pin the scalar kernel tier (bitwise-identical)
  CHIRON_EPISODES / _SEEDS / _BENCH_OUT / _TOURNAMENT_MECHS
                          chiron-bench binaries: training episodes,
                          replications, output dir, tournament registry ids
"
    .to_owned()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::args::parse;

    /// No knobs set: the tests never read (or write) the process
    /// environment, so they cannot race each other through it.
    fn rt() -> RuntimeConfig {
        RuntimeConfig::default()
    }

    #[test]
    fn dataset_names_resolve() {
        assert_eq!(dataset_from("mnist").unwrap(), DatasetKind::MnistLike);
        assert_eq!(dataset_from("fashion").unwrap(), DatasetKind::FashionLike);
        assert_eq!(dataset_from("cifar10").unwrap(), DatasetKind::Cifar10Like);
        assert!(dataset_from("imagenet").is_err());
    }

    #[test]
    fn build_env_validates() {
        assert!(build_env(DatasetKind::MnistLike, 0, 100.0, 0, &rt()).is_err());
        assert!(build_env(DatasetKind::MnistLike, 5, 0.0, 0, &rt()).is_err());
        let env = build_env(DatasetKind::MnistLike, 3, 50.0, 0, &rt()).expect("valid");
        assert_eq!(env.num_nodes(), 3);
    }

    #[test]
    fn train_and_eval_round_trip() {
        let dir = std::env::temp_dir().join("chiron_cli_test");
        std::fs::create_dir_all(&dir).expect("tmp");
        let model = dir.join("m.json");
        let trace = dir.join("t.csv");
        let model_s = model.to_str().expect("utf8 path");
        let trace_s = trace.to_str().expect("utf8 path");

        let args = parse(&[
            "train",
            "--episodes",
            "2",
            "--budget",
            "40",
            "--out",
            model_s,
        ])
        .expect("parse");
        train(&args, &rt()).expect("train runs");
        assert!(model.exists());

        let args = parse(&[
            "eval", "--model", model_s, "--budget", "40", "--trace", trace_s,
        ])
        .expect("parse");
        eval(&args, &rt()).expect("eval runs");
        let csv = std::fs::read_to_string(&trace).expect("trace written");
        assert!(csv.starts_with("round,accuracy"));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn checkpointed_train_reads_its_checkpoint_only_to_resume() {
        let dir = std::env::temp_dir().join("chiron_cli_checkpoint");
        std::fs::create_dir_all(&dir).expect("tmp");
        let path = dir.join("run.json");
        chiron::RunCheckpoint::remove(&path).expect("clean slate");
        let run = |episodes, log: &mut EventLog| {
            let mut env = build_env(DatasetKind::Tiny, 3, 20.0, 7, &rt()).expect("env");
            let mut mech = Chiron::new(&env, ChironConfig::fast(), 7);
            let path = path.to_str().expect("utf8 path");
            match train_checkpointed(&mut mech, &mut env, episodes, 1, path, log) {
                Ok(ControlFlow::Continue(rewards)) => rewards,
                other => panic!("checkpointed run did not complete: {other:?}"),
            }
        };
        let mut log = EventLog::new();
        let head = run(4, &mut log);
        assert_eq!(log.count("resumed"), 0, "a healthy run never resumes");
        let mut log = EventLog::new();
        let tail = run(6, &mut log);
        assert_eq!(log.count("resumed"), 1, "a re-run resumes once");
        assert_eq!(tail[..4], head[..]);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn budget_lists_parse_and_validate() {
        assert_eq!(budgets_from("60, 80,100").unwrap(), vec![60.0, 80.0, 100.0]);
        assert!(budgets_from("60,abc").is_err());
        assert!(budgets_from("60,-5").is_err());
        assert!(budgets_from("").is_err());
    }

    #[test]
    fn sweep_writes_csv() {
        let dir = std::env::temp_dir().join("chiron_cli_sweep");
        std::fs::create_dir_all(&dir).expect("tmp");
        let out = dir.join("sweep.csv");
        let out_s = out.to_str().expect("utf8");
        let args = parse(&[
            "sweep",
            "--episodes",
            "2",
            "--budgets",
            "30,40",
            "--out",
            out_s,
        ])
        .expect("parse");
        sweep(&args, &rt()).expect("sweep runs");
        let csv = std::fs::read_to_string(&out).expect("csv written");
        assert_eq!(csv.lines().count(), 3); // header + 2 budgets
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn experiment_template_round_trips() {
        let t = ExperimentConfig::template();
        let json = serde_json::to_string(&t).expect("serializes");
        let back: ExperimentConfig = serde_json::from_str(&json).expect("parses");
        assert_eq!(back.seed, t.seed);
        assert_eq!(back.env.budget, t.env.budget);
        assert_eq!(back.chiron, t.chiron);
        // Reserialization is byte-stable, so the full config (env included)
        // round-trips losslessly.
        assert_eq!(serde_json::to_string(&back).expect("serializes"), json);
    }

    #[test]
    fn experiment_builder_overrides_and_validates() {
        let exp = ExperimentConfig::builder()
            .dataset(DatasetKind::Cifar10Like)
            .nodes(7)
            .budget(80.0)
            .episodes(10)
            .seed(9)
            .description("builder test")
            .build()
            .expect("valid");
        assert_eq!(exp.env.dataset.kind, DatasetKind::Cifar10Like);
        assert_eq!(exp.env.fleet.nodes, 7);
        assert_eq!(exp.env.budget, 80.0);
        assert_eq!(exp.episodes, 10);
        assert_eq!(exp.seed, 9);

        assert!(ExperimentConfig::builder().nodes(0).build().is_err());
        assert!(ExperimentConfig::builder().budget(-1.0).build().is_err());
        let bad_chiron = {
            let mut c = ChironConfig::paper();
            c.lambda = -1.0;
            c
        };
        let err = ExperimentConfig::builder()
            .chiron(bad_chiron)
            .build()
            .expect_err("invalid lambda");
        assert!(err.to_string().contains("lambda"));
    }

    #[test]
    fn run_init_then_config_executes() {
        let dir = std::env::temp_dir().join("chiron_cli_run");
        std::fs::create_dir_all(&dir).expect("tmp");
        let cfg = dir.join("exp.json");
        let cfg_s = cfg.to_str().expect("utf8");

        let args = parse(&["run", "--init", cfg_s]).expect("parse");
        run(&args).expect("init writes template");

        // Shrink the template so the test is fast.
        let mut exp: ExperimentConfig =
            serde_json::from_str(&std::fs::read_to_string(&cfg).expect("read")).expect("parse");
        exp.episodes = 2;
        exp.env.budget = 40.0;
        std::fs::write(&cfg, serde_json::to_string(&exp).expect("ser")).expect("write");

        let args = parse(&["run", "--config", cfg_s]).expect("parse");
        run(&args).expect("run executes");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn run_rejects_malformed_config() {
        let dir = std::env::temp_dir().join("chiron_cli_badcfg");
        std::fs::create_dir_all(&dir).expect("tmp");
        let cfg = dir.join("bad.json");
        std::fs::write(&cfg, "{not json").expect("write");
        let args = parse(&["run", "--config", cfg.to_str().expect("utf8")]).expect("parse");
        let err = run(&args).expect_err("malformed config");
        assert!(matches!(err, CliError::Experiment { .. }));
        assert!(std::error::Error::source(&err).is_some());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn eval_rejects_mismatched_snapshot() {
        let dir = std::env::temp_dir().join("chiron_cli_mismatch");
        std::fs::create_dir_all(&dir).expect("tmp");
        let model = dir.join("m5.json");
        let model_s = model.to_str().expect("utf8 path");

        let args = parse(&[
            "train",
            "--episodes",
            "1",
            "--budget",
            "40",
            "--nodes",
            "5",
            "--out",
            model_s,
        ])
        .expect("parse");
        train(&args, &rt()).expect("train runs");

        // Evaluating with a different node count must fail cleanly, with the
        // typed checkpoint error reachable through the source chain.
        let args = parse(&["eval", "--model", model_s, "--nodes", "4"]).expect("parse");
        let err = eval(&args, &rt()).expect_err("shape mismatch");
        assert!(err.to_string().contains("--nodes"));
        assert!(matches!(
            err,
            CliError::Snapshot {
                source: chiron::Error::Checkpoint(_),
                ..
            }
        ));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn eval_writes_events_jsonl() {
        let dir = std::env::temp_dir().join("chiron_cli_events");
        std::fs::create_dir_all(&dir).expect("tmp");
        let events = dir.join("events.jsonl");
        let events_s = events.to_str().expect("utf8 path");

        let args = parse(&["eval", "--budget", "40", "--events", events_s]).expect("parse");
        eval(&args, &rt()).expect("eval runs");
        let log = std::fs::read_to_string(&events).expect("events written");
        // A fault-free default run logs nothing, but every line present
        // must be a standalone JSON object.
        assert!(log.lines().all(|l| l.starts_with('{') && l.ends_with('}')));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn fault_seed_knob_installs_fault_process() {
        let rt_set = RuntimeConfig {
            fault_seed: Some(77),
            ..RuntimeConfig::default()
        };
        let env = build_env(DatasetKind::MnistLike, 3, 50.0, 0, &rt_set).expect("valid");
        let config = env.fault_process_config().expect("fault process installed");
        assert_eq!(config.seed, 77);
        assert!(config.availability.is_some());

        // Unset (and malformed, which parses to unset) installs nothing.
        let env = build_env(DatasetKind::MnistLike, 3, 50.0, 0, &rt()).expect("valid");
        assert!(env.fault_process_config().is_none());
    }

    #[test]
    fn fleet_sample_knob_switches_on_sampling() {
        let sampled = |k| RuntimeConfig {
            fleet_sample: Some(k),
            ..RuntimeConfig::default()
        };
        let env = build_env(DatasetKind::MnistLike, 5, 50.0, 0, &sampled(2)).expect("valid");
        assert_eq!(
            env.config().participation,
            chiron_fedsim::Participation::Sampled { per_round: 2 }
        );
        assert_eq!(env.selection_for(1).len(), 2);

        // 0 (and unset) keep full participation.
        for rt in [sampled(0), rt()] {
            let env = build_env(DatasetKind::MnistLike, 5, 50.0, 0, &rt).expect("valid");
            assert_eq!(
                env.config().participation,
                chiron_fedsim::Participation::Full
            );
        }
    }

    #[test]
    fn unknown_flags_are_rejected() {
        let args = parse(&["train", "--bogus", "1"]).expect("parse");
        let err = train(&args, &rt()).expect_err("unknown flag");
        assert!(matches!(err, CliError::Arg(_)));
    }
}
