//! Daemon configuration.

use std::path::PathBuf;

/// Everything the daemon and supervisor need to know, with conservative
/// defaults. Build one with [`ServeConfig::default`] and override fields
/// directly (`chiron-cli serve` sets them from its flags).
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind address; port 0 picks an ephemeral port (the bound address is
    /// reported by the daemon).
    pub addr: String,
    /// Supervised worker threads executing jobs.
    pub workers: usize,
    /// Admission bound: submissions beyond this many queued jobs are shed
    /// with a typed `Overloaded` error instead of growing the queue.
    pub queue_cap: usize,
    /// At most this many jobs run concurrently (≤ `workers` is typical).
    pub max_inflight: usize,
    /// Retries per job after a transient failure (panic, checkpoint I/O).
    pub retry_max: usize,
    /// Base retry backoff in milliseconds; attempt `k` waits
    /// `base * 2^(k-1)` plus deterministic jitter, capped.
    pub backoff_base_ms: u64,
    /// Backoff cap in milliseconds.
    pub backoff_cap_ms: u64,
    /// Episodes between job checkpoints — also the supervision granularity
    /// for deadlines, cancellation, and drain.
    pub checkpoint_every: usize,
    /// Default per-job wall-clock deadline (`None` = no deadline unless
    /// the spec sets one).
    pub default_deadline_ms: Option<u64>,
    /// Directory holding per-job `RunCheckpoint` files.
    pub state_dir: PathBuf,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:0".into(),
            workers: 2,
            queue_cap: 64,
            max_inflight: 2,
            retry_max: 3,
            backoff_base_ms: 100,
            backoff_cap_ms: 5_000,
            checkpoint_every: 5,
            default_deadline_ms: None,
            state_dir: std::env::temp_dir().join(format!("chiron-serve-{}", std::process::id())),
        }
    }
}

impl ServeConfig {
    /// Backoff before retry attempt `attempt` (1-based) of job `id`:
    /// exponential in the attempt with a deterministic jitter derived from
    /// `(seed, id, attempt)` — reproducible, yet decorrelated across jobs
    /// so a burst of failures does not retry in lockstep.
    #[must_use]
    pub fn backoff_ms(&self, seed: u64, id: u64, attempt: usize) -> u64 {
        let shift = attempt.saturating_sub(1).min(16) as u32;
        let base = self
            .backoff_base_ms
            .saturating_mul(1u64 << shift)
            .min(self.backoff_cap_ms);
        let jitter = splitmix64(seed ^ id.rotate_left(17) ^ attempt as u64) % self.backoff_base_ms;
        base.saturating_add(jitter).min(self.backoff_cap_ms)
    }
}

/// SplitMix64 — the workspace's standard cheap stateless mixer.
#[must_use]
pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_is_deterministic_and_bounded() {
        let cfg = ServeConfig {
            backoff_base_ms: 100,
            backoff_cap_ms: 1_000,
            ..ServeConfig::default()
        };
        let a = cfg.backoff_ms(7, 1, 1);
        assert_eq!(a, cfg.backoff_ms(7, 1, 1), "same inputs, same delay");
        assert_ne!(a, cfg.backoff_ms(7, 2, 1), "jitter decorrelates jobs");
        for attempt in 1..12 {
            let d = cfg.backoff_ms(7, 1, attempt);
            assert!(d <= 1_000, "attempt {attempt} exceeded cap: {d}");
            assert!(d >= 100, "attempt {attempt} below base: {d}");
        }
        // Exponential growth until the cap dominates.
        assert!(cfg.backoff_ms(7, 1, 2) >= 200);
    }
}
