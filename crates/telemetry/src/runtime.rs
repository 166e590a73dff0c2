//! `RuntimeConfig`: the single place that reads `CHIRON_*` environment
//! variables.
//!
//! Every knob the workspace honours is parsed here, once, into a plain
//! struct that is passed down (CLI) or cached (`global()`, for process-wide
//! singletons like the worker pool). Consumers keep their own defaulting
//! and clamping so behaviour is identical to the historical per-site reads.
//! Settings that a `chiron-cli` flag already covers (telemetry path, serve
//! daemon shape) have no variable.
//!
//! | Variable | Type | Consumer | Meaning |
//! |---|---|---|---|
//! | `CHIRON_THREADS` | usize ≥ 1 | tensor pool | worker-pool thread count (default: available parallelism) |
//! | `CHIRON_SIMD` | bool (`0`/`1`) | tensor kernel | SIMD dispatch tier (default 1 = best detected; `0` forces the pinned scalar tier) |
//! | `CHIRON_QUORUM` | usize | fedsim | minimum participants per round (default 0 = off) |
//! | `CHIRON_DEADLINE_SLACK` | f64 ≥ 1 | fedsim | Lemma-1 deadline multiplier (default off) |
//! | `CHIRON_FAULT_SEED` | u64 | CLI | installs the standard fault process with this seed |
//! | `CHIRON_FLEET_SAMPLE` | usize | CLI/fedsim | nodes priced per round (0/unset = full participation) |
//! | `CHIRON_EPISODES` | usize ≥ 1 | bench | training episodes for bench binaries and tournament cells (0/unset = each binary's default) |
//! | `CHIRON_SEEDS` | usize ≥ 1 | bench | replications for bench panels and tournament cells (0/unset = each binary's default) |
//! | `CHIRON_BENCH_OUT` | path | bench | output directory for `BENCH_tournament.{json,md}` (default: repo root) |
//! | `CHIRON_TOURNAMENT_MECHS` | id list | bench | comma-separated mechanism ids for the tournament grid (default: every registry entry) |

use std::sync::OnceLock;

fn parse<T: std::str::FromStr>(raw: Option<String>) -> Option<T> {
    raw.and_then(|v| v.trim().parse::<T>().ok())
}

/// Accepts `0`/`1` alongside `true`/`false` (case-insensitive).
fn parse_bool(raw: Option<String>) -> Option<bool> {
    raw.and_then(|v| match v.trim().to_ascii_lowercase().as_str() {
        "0" | "false" => Some(false),
        "1" | "true" => Some(true),
        _ => None,
    })
}

fn non_empty(raw: Option<String>) -> Option<String> {
    raw.filter(|s| !s.is_empty())
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
    /// `CHIRON_EPISODES`: bench and tournament episode count.
    pub episodes: Option<usize>,
    /// `CHIRON_SEEDS`: bench and tournament replication count.
    pub seeds: Option<usize>,
    /// `CHIRON_BENCH_OUT`: bench output directory.
    pub bench_out: Option<String>,
    /// `CHIRON_TOURNAMENT_MECHS`: comma-separated mechanism ids for the
    /// tournament grid (unset = every registry entry).
    pub tournament_mechs: Option<String>,
}

impl RuntimeConfig {
    /// Reads every `CHIRON_*` variable from the current environment.
    ///
    /// This is a fresh read each call; entry points (CLI `main`, bench
    /// binaries) call it once and pass the result down.
    #[must_use]
    pub fn from_env() -> Self {
        Self::from_lookup(|name| std::env::var(name).ok())
    }

    /// Parses every knob from `lookup`, which maps a variable name to its
    /// raw value (`None` = unset). [`RuntimeConfig::from_env`] passes the
    /// process environment; tests pass a closure, so they never have to
    /// mutate the environment that sibling test threads read.
    #[must_use]
    pub fn from_lookup(lookup: impl Fn(&str) -> Option<String>) -> Self {
        Self {
            threads: parse(lookup("CHIRON_THREADS")),
            simd: parse_bool(lookup("CHIRON_SIMD")),
            quorum: parse(lookup("CHIRON_QUORUM")),
            deadline_slack: parse(lookup("CHIRON_DEADLINE_SLACK")),
            fault_seed: parse(lookup("CHIRON_FAULT_SEED")),
            fleet_sample: parse(lookup("CHIRON_FLEET_SAMPLE")),
            episodes: parse(lookup("CHIRON_EPISODES")),
            seeds: parse(lookup("CHIRON_SEEDS")),
            bench_out: non_empty(lookup("CHIRON_BENCH_OUT")),
            tournament_mechs: non_empty(lookup("CHIRON_TOURNAMENT_MECHS")),
        }
    }

    /// Process-wide snapshot, read from the environment on first use.
    ///
    /// For singletons whose configuration is fixed for the process lifetime
    /// (worker pool size, SIMD tier).
    #[must_use]
    pub fn global() -> &'static RuntimeConfig {
        static GLOBAL: OnceLock<RuntimeConfig> = OnceLock::new();
        GLOBAL.get_or_init(RuntimeConfig::from_env)
    }
}

#[cfg(test)]
mod tests {
    use super::RuntimeConfig;
    use std::cell::RefCell;
    use std::collections::BTreeSet;

    #[test]
    fn malformed_values_parse_to_none_and_whitespace_is_trimmed() {
        let vars = [
            ("CHIRON_SEEDS", "not-a-number"),
            ("CHIRON_QUORUM", " 3 "),
            ("CHIRON_FAULT_SEED", "-1"),
            ("CHIRON_DEADLINE_SLACK", "\t1.5\n"),
            ("CHIRON_SIMD", " FALSE "),
            ("CHIRON_THREADS", ""),
            ("CHIRON_BENCH_OUT", ""),
            ("CHIRON_TOURNAMENT_MECHS", "static,fmore"),
        ];
        let cfg = RuntimeConfig::from_lookup(|name| {
            vars.iter()
                .find(|(k, _)| *k == name)
                .map(|(_, v)| (*v).to_owned())
        });
        assert_eq!(cfg.seeds, None);
        assert_eq!(cfg.quorum, Some(3));
        assert_eq!(cfg.fault_seed, None, "a u64 knob rejects negatives");
        assert_eq!(cfg.deadline_slack, Some(1.5));
        assert_eq!(cfg.simd, Some(false));
        assert_eq!(cfg.threads, None);
        assert_eq!(cfg.bench_out, None, "an empty path means unset");
        assert_eq!(cfg.tournament_mechs.as_deref(), Some("static,fmore"));
        assert_eq!(cfg.episodes, None, "unset stays unset");
    }

    /// The variable names in a markdown table whose rows start with
    /// `prefix` followed by a backticked `CHIRON_*` name.
    fn table_names(text: &str, prefix: &str) -> BTreeSet<String> {
        text.lines()
            .filter_map(|line| line.strip_prefix(prefix))
            .filter_map(|rest| rest.strip_prefix('`'))
            .filter_map(|rest| rest.split('`').next())
            .filter(|name| name.starts_with("CHIRON_"))
            .map(str::to_owned)
            .collect()
    }

    #[test]
    fn module_table_and_readme_table_list_the_parsed_variables() {
        let read = RefCell::new(BTreeSet::new());
        let _ = RuntimeConfig::from_lookup(|name| {
            read.borrow_mut().insert(name.to_owned());
            None
        });
        let read = read.into_inner();
        let module = table_names(include_str!("runtime.rs"), "//! | ");
        let readme = table_names(include_str!("../../../README.md"), "| ");
        assert_eq!(module, read, "runtime.rs module table vs from_lookup");
        assert_eq!(readme, read, "README env table vs from_lookup");
        assert_eq!(read.len(), 10);
    }
}
