//! `RuntimeConfig`: the single place that reads `CHIRON_*` environment
//! variables.
//!
//! Every knob the workspace honours is parsed here, once, into a plain
//! struct that is passed down (CLI) or cached (`global()`, for process-wide
//! singletons like the worker pool). Consumers keep their own defaulting
//! and clamping so behaviour is identical to the historical per-site reads.
//!
//! | Variable | Type | Consumer | Meaning |
//! |---|---|---|---|
//! | `CHIRON_THREADS` | usize ≥ 1 | tensor pool | worker-pool thread count (default: available parallelism) |
//! | `CHIRON_SIMD` | bool (`0`/`1`) | tensor kernel | SIMD dispatch tier (default 1 = best detected; `0` forces the pinned scalar tier) |
//! | `CHIRON_QUORUM` | usize | fedsim | minimum participants per round (default 0 = off) |
//! | `CHIRON_DEADLINE_SLACK` | f64 ≥ 1 | fedsim | Lemma-1 deadline multiplier (default off) |
//! | `CHIRON_FAULT_SEED` | u64 | CLI | installs the standard fault process with this seed |
//! | `CHIRON_FLEET_SAMPLE` | usize | CLI/fedsim | nodes priced per round (0/unset = full participation) |
//! | `CHIRON_FLEET_CLUSTERS` | usize ≥ 1 | CLI/fedsim | edge clusters for two-level aggregation (default 1) |
//! | `CHIRON_TELEMETRY` | path | CLI | JSONL telemetry output (same as `--telemetry`) |
//! | `CHIRON_SERVE_ADDR` | addr | serve | daemon bind address (default `127.0.0.1:0` = ephemeral port) |
//! | `CHIRON_SERVE_WORKERS` | usize ≥ 1 | serve | supervised job-runner threads (default 2) |
//! | `CHIRON_SERVE_QUEUE_CAP` | usize ≥ 1 | serve | admission bound on queued jobs; beyond it submissions are shed with a typed `Overloaded` (default 64) |
//! | `CHIRON_SERVE_INFLIGHT` | usize ≥ 1 | serve | concurrently running job bound (default = workers) |
//! | `CHIRON_SERVE_RETRY_MAX` | usize | serve | retries per job after transient failures (default 3) |
//! | `CHIRON_SERVE_BACKOFF_MS` | u64 ≥ 1 | serve | base retry backoff; doubles per attempt with deterministic jitter (default 100) |
//! | `CHIRON_SERVE_CKPT_EVERY` | usize ≥ 1 | serve | episodes between job checkpoints / supervision boundaries (default 5) |
//! | `CHIRON_SERVE_DEADLINE_MS` | u64 | serve | default per-job deadline (unset = none) |
//! | `CHIRON_SERVE_STATE_DIR` | path | serve | job checkpoint directory (default: under the OS temp dir) |
//! | `CHIRON_EPISODES` | usize | bench | episode count override for bench binaries |
//! | `CHIRON_SEEDS` | usize ≥ 1 | bench | replication count for bench panels |
//! | `CHIRON_BENCH_SAMPLES` | usize ≥ 1 | bench | timing samples per case (default 20) |
//! | `CHIRON_BENCH_LABEL` | string | bench | label stored in `BENCH_*.json` (default "current") |
//! | `CHIRON_BENCH_OUT` | path | bench | output directory for bench artifacts |
//! | `CHIRON_TOURNAMENT_EPISODES` | usize ≥ 1 | bench | training episodes per tournament cell (default 40) |
//! | `CHIRON_TOURNAMENT_SEEDS` | usize ≥ 1 | bench | replications per tournament cell (default 3) |
//! | `CHIRON_TOURNAMENT_MECHS` | id list | bench | comma-separated mechanism ids for the tournament grid (default: every registry entry) |

use std::sync::OnceLock;

fn parse_var<T: std::str::FromStr>(name: &str) -> Option<T> {
    std::env::var(name)
        .ok()
        .and_then(|v| v.trim().parse::<T>().ok())
}

/// Accepts `0`/`1` alongside `true`/`false` (case-insensitive).
fn parse_bool_var(name: &str) -> Option<bool> {
    std::env::var(name)
        .ok()
        .and_then(|v| match v.trim().to_ascii_lowercase().as_str() {
            "0" | "false" => Some(false),
            "1" | "true" => Some(true),
            _ => None,
        })
}

/// All `CHIRON_*` environment knobs, parsed once.
///
/// Fields are raw `Option`s (malformed values parse to `None`); each
/// consumer applies its own default and validity rules, documented on the
/// accessor it replaced. See the module table for the full list.
#[derive(Debug, Clone, Default)]
pub struct RuntimeConfig {
    /// `CHIRON_THREADS`: requested worker-pool size (pool clamps to ≥ 1).
    pub threads: Option<usize>,
    /// `CHIRON_SIMD`: whether the matmul kernel may use the detected SIMD
    /// dispatch tier (`0`/`false` forces the pinned scalar tier; every tier
    /// is bitwise-identical, so this is a verification/benchmark knob).
    pub simd: Option<bool>,
    /// `CHIRON_QUORUM`: minimum participants per round.
    pub quorum: Option<usize>,
    /// `CHIRON_DEADLINE_SLACK`: Lemma-1 deadline multiplier (must be ≥ 1
    /// and finite to take effect).
    pub deadline_slack: Option<f64>,
    /// `CHIRON_FAULT_SEED`: seed for the standard stochastic fault process.
    pub fault_seed: Option<u64>,
    /// `CHIRON_FLEET_SAMPLE`: nodes priced per round (sampled
    /// participation; 0/unset = full participation).
    pub fleet_sample: Option<usize>,
    /// `CHIRON_FLEET_CLUSTERS`: edge-cluster count for two-level
    /// aggregation in the training oracle (default 1 = flat).
    pub fleet_clusters: Option<usize>,
    /// `CHIRON_TELEMETRY`: JSONL telemetry output path.
    pub telemetry: Option<String>,
    /// `CHIRON_SERVE_ADDR`: serve daemon bind address.
    pub serve_addr: Option<String>,
    /// `CHIRON_SERVE_WORKERS`: supervised job-runner thread count.
    pub serve_workers: Option<usize>,
    /// `CHIRON_SERVE_QUEUE_CAP`: admission bound on queued jobs.
    pub serve_queue_cap: Option<usize>,
    /// `CHIRON_SERVE_INFLIGHT`: concurrently running job bound.
    pub serve_inflight: Option<usize>,
    /// `CHIRON_SERVE_RETRY_MAX`: retry budget for transiently failed jobs.
    pub serve_retry_max: Option<usize>,
    /// `CHIRON_SERVE_BACKOFF_MS`: base retry backoff in milliseconds.
    pub serve_backoff_ms: Option<u64>,
    /// `CHIRON_SERVE_CKPT_EVERY`: episodes between job checkpoints.
    pub serve_ckpt_every: Option<usize>,
    /// `CHIRON_SERVE_DEADLINE_MS`: default per-job deadline.
    pub serve_deadline_ms: Option<u64>,
    /// `CHIRON_SERVE_STATE_DIR`: job checkpoint directory.
    pub serve_state_dir: Option<String>,
    /// `CHIRON_EPISODES`: bench episode-count override.
    pub episodes: Option<usize>,
    /// `CHIRON_SEEDS`: bench replication count.
    pub seeds: Option<usize>,
    /// `CHIRON_BENCH_SAMPLES`: timing samples per bench case.
    pub bench_samples: Option<usize>,
    /// `CHIRON_BENCH_LABEL`: label recorded in bench output files.
    pub bench_label: Option<String>,
    /// `CHIRON_BENCH_OUT`: bench output directory.
    pub bench_out: Option<String>,
    /// `CHIRON_TOURNAMENT_EPISODES`: training episodes per tournament cell.
    pub tournament_episodes: Option<usize>,
    /// `CHIRON_TOURNAMENT_SEEDS`: replications per tournament cell.
    pub tournament_seeds: Option<usize>,
    /// `CHIRON_TOURNAMENT_MECHS`: comma-separated mechanism ids for the
    /// tournament grid (unset = every registry entry).
    pub tournament_mechs: Option<String>,
}

impl RuntimeConfig {
    /// Reads every `CHIRON_*` variable from the current environment.
    ///
    /// This is a fresh read each call; entry points (CLI `main`, bench
    /// binaries) call it once and pass the result down. Tests that mutate
    /// the environment re-read to observe their changes.
    #[must_use]
    pub fn from_env() -> Self {
        Self {
            threads: parse_var("CHIRON_THREADS"),
            simd: parse_bool_var("CHIRON_SIMD"),
            quorum: parse_var("CHIRON_QUORUM"),
            deadline_slack: parse_var("CHIRON_DEADLINE_SLACK"),
            fault_seed: parse_var("CHIRON_FAULT_SEED"),
            fleet_sample: parse_var("CHIRON_FLEET_SAMPLE"),
            fleet_clusters: parse_var("CHIRON_FLEET_CLUSTERS"),
            telemetry: std::env::var("CHIRON_TELEMETRY")
                .ok()
                .filter(|s| !s.is_empty()),
            serve_addr: std::env::var("CHIRON_SERVE_ADDR")
                .ok()
                .filter(|s| !s.is_empty()),
            serve_workers: parse_var("CHIRON_SERVE_WORKERS"),
            serve_queue_cap: parse_var("CHIRON_SERVE_QUEUE_CAP"),
            serve_inflight: parse_var("CHIRON_SERVE_INFLIGHT"),
            serve_retry_max: parse_var("CHIRON_SERVE_RETRY_MAX"),
            serve_backoff_ms: parse_var("CHIRON_SERVE_BACKOFF_MS"),
            serve_ckpt_every: parse_var("CHIRON_SERVE_CKPT_EVERY"),
            serve_deadline_ms: parse_var("CHIRON_SERVE_DEADLINE_MS"),
            serve_state_dir: std::env::var("CHIRON_SERVE_STATE_DIR")
                .ok()
                .filter(|s| !s.is_empty()),
            episodes: parse_var("CHIRON_EPISODES"),
            seeds: parse_var("CHIRON_SEEDS"),
            bench_samples: parse_var("CHIRON_BENCH_SAMPLES"),
            bench_label: std::env::var("CHIRON_BENCH_LABEL")
                .ok()
                .filter(|s| !s.is_empty()),
            bench_out: std::env::var("CHIRON_BENCH_OUT")
                .ok()
                .filter(|s| !s.is_empty()),
            tournament_episodes: parse_var("CHIRON_TOURNAMENT_EPISODES"),
            tournament_seeds: parse_var("CHIRON_TOURNAMENT_SEEDS"),
            tournament_mechs: std::env::var("CHIRON_TOURNAMENT_MECHS")
                .ok()
                .filter(|s| !s.is_empty()),
        }
    }

    /// Process-wide snapshot, read from the environment on first use.
    ///
    /// For singletons whose configuration is fixed for the process lifetime
    /// (worker pool size, SIMD tier). Code that must observe later
    /// `set_var` calls (tests) should use [`RuntimeConfig::from_env`].
    #[must_use]
    pub fn global() -> &'static RuntimeConfig {
        static GLOBAL: OnceLock<RuntimeConfig> = OnceLock::new();
        GLOBAL.get_or_init(RuntimeConfig::from_env)
    }
}

#[cfg(test)]
mod tests {
    use super::RuntimeConfig;

    #[test]
    fn malformed_values_parse_to_none() {
        // Use a throwaway variable namespace by setting and clearing within
        // the test; RuntimeConfig::from_env reads live state.
        std::env::set_var("CHIRON_SEEDS", "not-a-number");
        std::env::set_var("CHIRON_QUORUM", " 3 ");
        let cfg = RuntimeConfig::from_env();
        assert_eq!(cfg.seeds, None);
        assert_eq!(cfg.quorum, Some(3));
        std::env::remove_var("CHIRON_SEEDS");
        std::env::remove_var("CHIRON_QUORUM");
    }
}
