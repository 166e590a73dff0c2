//! Mechanism-zoo tournament: every registry mechanism × the scenario
//! panel (IID, non-IID, faulty, tight budget, sampled fleet), replicated
//! over seeds, aggregated to `BENCH_tournament.json` plus a markdown
//! leaderboard (`BENCH_tournament.md`).
//!
//! Knobs (all parsed by `RuntimeConfig`):
//!
//! ```text
//! CHIRON_EPISODES=40              training episodes per cell
//! CHIRON_SEEDS=3                  replications per cell
//! CHIRON_TOURNAMENT_MECHS=a,b,c   registry ids (default: every entry)
//! CHIRON_BENCH_OUT=<dir>          output directory (default: repo root)
//! ```
//!
//! CI's smoke grid is the closed-form / non-learning corner of the zoo,
//! one episode and one seed over all five scenarios:
//!
//! ```text
//! CHIRON_TOURNAMENT_MECHS=static,lemma-oracle,fmore,stackelberg \
//!   CHIRON_EPISODES=1 CHIRON_SEEDS=1 cargo run --release -p chiron-bench --bin bench_tournament
//! ```
//!
//! Bitwise-deterministic at any thread count: cells own their seeded
//! envs/mechanisms and join in index order, so re-running under
//! `CHIRON_THREADS=1|4|8` must produce identical JSON bytes.

use chiron_baselines::{parse_ids, registry, MechanismSpec};
use chiron_bench::tournament::{
    aggregate, markdown_leaderboard, run_grid, scenarios, write_tournament, Scenario, TournamentRun,
};
use chiron_bench::{episodes_from_env, seeds_from_env};

fn main() {
    let mechanisms: Vec<&'static MechanismSpec> =
        match &chiron_telemetry::RuntimeConfig::global().tournament_mechs {
            Some(csv) => parse_ids(csv).unwrap_or_else(|err| panic!("{err}")),
            None => registry().iter().collect(),
        };
    let scenario_set: Vec<&'static Scenario> = scenarios().iter().collect();
    let episodes = episodes_from_env(40);
    let seeds = seeds_from_env(3);

    println!(
        "tournament: {} mechanisms × {} scenarios × {} seeds, {} episodes/cell",
        mechanisms.len(),
        scenario_set.len(),
        seeds,
        episodes,
    );

    let outcomes = run_grid(&mechanisms, &scenario_set, episodes, seeds);
    let run = TournamentRun {
        label: "current".to_owned(),
        episodes,
        seeds,
        cells: aggregate(&outcomes),
    };
    print!("{}", markdown_leaderboard(&run));
    write_tournament(&run);
}
