//! Provenance: the host facts every result is recorded with.

use serde::Serialize;
use std::process::Command;

/// Pool threads a run uses when `CHIRON_THREADS` is unset. On a 2-vCPU
/// host, two pool threads were no faster than one on any workload, and
/// runs with two spread more, so the default is one.
pub const DEFAULT_THREADS: usize = 1;

/// Where and how a result was measured.
#[derive(Debug, Clone, Serialize)]
pub struct Host {
    /// Cores available to this process.
    pub nproc: usize,
    /// Active SIMD dispatch tier of the tensor kernel.
    pub tier: String,
    /// Compiler that built the benchmark.
    pub rustc: String,
    /// Commit of the checkout, when it is a git repository.
    pub commit: String,
    /// Worker-pool threads of the run.
    pub threads: usize,
    /// Every `CHIRON_*` variable set in the environment, as `NAME=value`.
    pub chiron_env: Vec<String>,
    /// More pool threads than cores: the result must not be compared.
    pub oversubscribed: bool,
}

impl Host {
    /// Reads the host facts and picks the run's thread count.
    pub fn detect() -> Self {
        let nproc = std::thread::available_parallelism().map_or(1, usize::from);
        let threads = chiron_telemetry::RuntimeConfig::from_env()
            .threads
            .filter(|&t| t > 0)
            .unwrap_or_else(|| DEFAULT_THREADS.min(nproc));
        let mut chiron_env: Vec<String> = std::env::vars()
            .filter(|(k, _)| k.starts_with("CHIRON_"))
            .map(|(k, v)| format!("{k}={v}"))
            .collect();
        chiron_env.sort();
        Self {
            nproc,
            tier: chiron_tensor::active_tier().label().to_owned(),
            rustc: env!("E2EBENCH_RUSTC_VERSION").to_owned(),
            commit: git_commit(),
            threads,
            chiron_env,
            oversubscribed: threads > nproc,
        }
    }
}

fn git_commit() -> String {
    if !std::path::Path::new(".git").exists() {
        return "unknown (not a git checkout)".into();
    }
    Command::new("git")
        .args(["rev-parse", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or_else(
            || "unknown".into(),
            |o| String::from_utf8_lossy(&o.stdout).trim().to_owned(),
        )
}
