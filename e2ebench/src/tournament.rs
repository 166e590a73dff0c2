//! `tournament_cell`: cells of the mechanism tournament. In each, `chiron`
//! is built through `chiron_baselines::registry()` exactly as
//! `chiron_bench::tournament::run_grid` builds it, trains on the
//! `fleet_sampled` scenario (100 nodes, 32 sampled per round,
//! `CurveOracle`) and is evaluated once.
//!
//! Episode length, and with it the time of an episode, depends on the
//! replication's fleet and seed by up to a half. So a run cycles through
//! sixteen replications (cells of ten training episodes each, seeded as
//! `run_grid` seeds them), the workload seed picks the sixteen, and the op
//! is a round: each cell's training is timed as a whole and its time
//! divided by the rounds it ran.
//!
//! A run does a fixed amount of work, whole passes over its sixteen
//! replications, and not as much as fits in `--seconds`: the process's
//! resident set grows by about 1 MiB per second of cells, so a time-bound
//! run's `peak_rss_mib` would follow the host's speed. One pass per ten
//! seconds asked for, at least two, takes about `--seconds` on a 2-vCPU
//! host.
//!
//! The kernel's autotuner times every candidate blocking the first time it
//! meets a GEMM shape and keeps the fastest. PPO's minibatches give this
//! workload over 400 shapes, so tuning runs all through a run, and its
//! picks follow the timing noise: five runs of the same code ranged over
//! 15%. The workload therefore runs the kernel's static blocking
//! heuristic ([`pin_blocking`]); `real_episode`, with its few fixed conv
//! shapes, measures the autotuner.

use crate::trace::GemmDims;
use crate::workload::{evaluation_episode, ms_since, Cover, Limits, Repeats, Run};
use chiron::{ChironConfig, ExteriorState, MechanismParams};
use chiron_bench::tournament::scenario;
use std::time::Instant;

const MECHANISM: &str = "chiron";
const SCENARIO: &str = "fleet_sampled";
/// Training episodes per cell.
const EPISODES: usize = 10;
const SMOKE_EPISODES: usize = 2;
/// Replications a run cycles through.
const REPLICATIONS: u64 = 16;
/// Seconds of `--seconds` per pass over the replications.
const SECONDS_PER_PASS: f64 = 10.0;
/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 25;

/// Sets `CHIRON_AUTOTUNE=0` unless the caller set it. Call it before
/// anything reads the runtime configuration, which latches the
/// environment once.
pub fn pin_blocking() {
    if std::env::var_os("CHIRON_AUTOTUNE").is_none() {
        std::env::set_var("CHIRON_AUTOTUNE", "0");
    }
}

/// `run_grid`'s seed for replication `r` of a cell.
fn replication_seed(r: u64) -> u64 {
    42u64.wrapping_add(r.wrapping_mul(1009))
}

/// Runs the workload for `limits`.
pub fn run(limits: &Limits) -> Run {
    let spec = chiron_baselines::find(MECHANISM).expect("chiron is a registry entry");
    let scenario = scenario(SCENARIO);
    let build = |seed: u64| {
        let env = (scenario.build)(seed);
        let mech = (spec.build)(&env, &MechanismParams::new(seed)).expect("registry builds chiron");
        (env, mech)
    };
    let episodes = if limits.smoke {
        SMOKE_EPISODES
    } else {
        EPISODES
    };
    let first = limits.seed.wrapping_mul(REPLICATIONS);

    let mut run = Run {
        op: "round",
        coverage: vec![
            Cover::Span("pricing"),
            Cover::Span("local_training"),
            Cover::Span("aggregation"),
            Cover::Span("ppo_update"),
        ],
        ..Run::default()
    };
    for _ in 0..SETUPS {
        let t = Instant::now();
        let (_env, _) = build(replication_seed(first));
        run.setup_s.push(t.elapsed().as_secs_f64());
    }
    let (env, _) = build(replication_seed(first));
    let exterior = ExteriorState::new(&env, ChironConfig::paper().history_window);
    run.dims = GemmDims {
        fixed: vec![1, 64, env.num_nodes(), exterior.dim()],
        batch: (1..=4096).collect(),
    };

    // Cells cycle through the run's replications. Two passes at least, so
    // every replication is checked against its repeat.
    let cells = if limits.smoke {
        2
    } else {
        let passes = (limits.seconds / SECONDS_PER_PASS).round().max(2.0) as u64;
        passes * REPLICATIONS
    };
    let mut repeats = Repeats::default();
    let start = Instant::now();
    for cell in 0..cells {
        let replication = first + cell % if limits.smoke { 1 } else { REPLICATIONS };
        let seed = replication_seed(replication);
        let (mut env, mut mech) = build(seed);
        let t = Instant::now();
        let mut rounds = 0;
        for _ in 0..episodes {
            mech.train(&mut env, 1);
            rounds += env.round();
        }
        run.op_ms.push(ms_since(t) / rounds.max(1) as f64);
        run.attempted += rounds as u64;
        let mut env = (scenario.build)(seed);
        let summary = evaluation_episode(mech.as_mut(), &mut env, &mut run);
        repeats.check(&mut run, replication, &summary);
    }
    run.loop_s = start.elapsed().as_secs_f64();
    run
}
