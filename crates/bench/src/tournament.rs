//! Mechanism-zoo tournament: every registry mechanism × a panel of
//! environment scenarios, replicated over seeds and aggregated to a
//! leaderboard.
//!
//! The tournament is the cross-PR record of *who wins where*: each cell
//! trains one mechanism (built through [`chiron_baselines::registry`])
//! in one scenario, evaluates it deterministically, and the grid is
//! aggregated per (mechanism, scenario) into mean ± std of server
//! utility, final accuracy, and time efficiency. Results land in
//! `BENCH_tournament.json` plus a human-oriented `BENCH_tournament.md`
//! leaderboard.
//!
//! Determinism contract: every cell owns its environment and mechanism,
//! both derived from the cell's `(scenario, replication)` seed; cells fan
//! out on the shared worker pool through `chiron_tensor::pool::map` with
//! index-ordered joins, so the grid — and the emitted JSON — is
//! bitwise-identical at any `--jobs`/`CHIRON_THREADS` setting. Nothing
//! wall-clock-dependent is recorded.

use crate::stats;
use chiron::{EpisodeRun, MechanismParams};
use chiron_baselines::MechanismSpec;
use chiron_data::DatasetKind;
use chiron_fedsim::faults::FaultProcessConfig;
use chiron_fedsim::fleet::{DataVolumes, FleetConfig};
use chiron_fedsim::metrics::EpisodeSummary;
use chiron_fedsim::{EdgeLearningEnv, EnvConfig, Participation};
use chiron_tensor::pool;
use serde::{Deserialize, Serialize};
use std::path::PathBuf;

/// One tournament environment scenario.
#[derive(Clone, Copy)]
pub struct Scenario {
    /// Stable scenario id (JSON key and leaderboard column).
    pub id: &'static str,
    /// One-line description for docs and the markdown leaderboard.
    pub summary: &'static str,
    /// Builds the scenario's environment for a replication seed.
    pub build: fn(u64) -> EdgeLearningEnv,
}

impl std::fmt::Debug for Scenario {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Scenario")
            .field("id", &self.id)
            .field("summary", &self.summary)
            .finish_non_exhaustive()
    }
}

fn build_iid(seed: u64) -> EdgeLearningEnv {
    EdgeLearningEnv::new(EnvConfig::paper_small(DatasetKind::MnistLike, 80.0), seed)
}

fn build_noniid_dirichlet(seed: u64) -> EdgeLearningEnv {
    let mut config = EnvConfig::paper_small(DatasetKind::MnistLike, 80.0);
    config.fleet = FleetConfig::paper_with_volumes(5, DataVolumes::Dirichlet { alpha: 0.5 });
    EdgeLearningEnv::try_new(config, seed).expect("non-IID scenario config is valid")
}

fn build_faulty(seed: u64) -> EdgeLearningEnv {
    let mut env = EdgeLearningEnv::new(EnvConfig::paper_small(DatasetKind::MnistLike, 80.0), seed);
    env.set_fault_process(Some(FaultProcessConfig::standard(seed)));
    env
}

fn build_tight_budget(seed: u64) -> EdgeLearningEnv {
    EdgeLearningEnv::new(EnvConfig::paper_small(DatasetKind::MnistLike, 40.0), seed)
}

fn build_fleet_sampled(seed: u64) -> EdgeLearningEnv {
    let mut config = EnvConfig::paper_large(DatasetKind::MnistLike, 300.0);
    config.participation = Participation::Sampled { per_round: 32 };
    EdgeLearningEnv::try_new(config, seed).expect("fleet scenario config is valid")
}

static SCENARIOS: [Scenario; 5] = [
    Scenario {
        id: "iid",
        summary: "paper small-scale: 5 nodes, even data, η = 80",
        build: build_iid,
    },
    Scenario {
        id: "noniid_dirichlet",
        summary: "heterogeneous data volumes (Dirichlet α = 0.5), η = 80",
        build: build_noniid_dirichlet,
    },
    Scenario {
        id: "faulty",
        summary: "standard stochastic fault process (crashes, jitter, drift)",
        build: build_faulty,
    },
    Scenario {
        id: "tight_budget",
        summary: "paper small-scale at half budget, η = 40",
        build: build_tight_budget,
    },
    Scenario {
        id: "fleet_sampled",
        summary: "100 nodes, 32 sampled per round, η = 300",
        build: build_fleet_sampled,
    },
];

/// Every tournament scenario, in grid order.
pub fn scenarios() -> &'static [Scenario] {
    &SCENARIOS
}

/// Looks up a scenario by id.
pub fn scenario(id: &str) -> &'static Scenario {
    SCENARIOS
        .iter()
        .find(|s| s.id == id)
        .unwrap_or_else(|| panic!("unknown tournament scenario `{id}`"))
}

/// One evaluated grid cell (a single replication, pre-aggregation).
#[derive(Debug, Clone)]
pub struct CellOutcome {
    /// Mechanism display name ([`chiron::Mechanism::name`]).
    pub mechanism: String,
    /// Scenario id.
    pub scenario: &'static str,
    /// Replication seed the cell's env and mechanism were built from.
    pub seed: u64,
    /// Deterministic evaluation summary.
    pub summary: EpisodeSummary,
}

/// Aggregated leaderboard entry: one (mechanism, scenario) pair across
/// replications.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TournamentCell {
    /// Mechanism display name.
    pub mechanism: String,
    /// Scenario id.
    pub scenario: String,
    /// Mean server utility `λ·ΔA − ΣT` across replications.
    pub utility_mean: f64,
    /// Sample std of the server utility (0 for a single replication).
    pub utility_std: f64,
    /// Mean final accuracy.
    pub accuracy_mean: f64,
    /// Sample std of the final accuracy.
    pub accuracy_std: f64,
    /// Mean of the per-episode mean time efficiency.
    pub time_efficiency_mean: f64,
    /// Sample std of the time efficiency.
    pub time_efficiency_std: f64,
    /// Mean rounds completed.
    pub rounds_mean: f64,
    /// Mean budget spent.
    pub spent_mean: f64,
}

/// One labelled tournament run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TournamentRun {
    /// Run label (`bench_tournament` writes `current`).
    pub label: String,
    /// Training episodes per cell.
    pub episodes: usize,
    /// Replications per cell.
    pub seeds: usize,
    /// Aggregated cells in (scenario, mechanism) grid order.
    pub cells: Vec<TournamentCell>,
}

/// The on-disk shape of `BENCH_tournament.json`.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct TournamentFile {
    /// The recorded runs; [`write_tournament`] writes exactly one.
    pub runs: Vec<TournamentRun>,
}

/// Runs the full grid: `mechanisms × scenarios × seeds` cells, fanned out
/// on the shared worker pool. Every mechanism inside one (scenario,
/// replication) pair trains and evaluates against identically seeded
/// environments, so cross-mechanism comparisons are apples-to-apples.
///
/// # Panics
///
/// Panics if a registry build function rejects its default config (a
/// registry invariant violation) or if `seeds == 0`.
pub fn run_grid(
    mechanisms: &[&'static MechanismSpec],
    scenario_set: &[&'static Scenario],
    episodes: usize,
    seeds: usize,
) -> Vec<CellOutcome> {
    assert!(seeds > 0, "need at least one replication");
    struct Cell {
        spec: &'static MechanismSpec,
        scenario: &'static Scenario,
        seed: u64,
    }
    let mut grid = Vec::new();
    for scenario in scenario_set {
        for spec in mechanisms {
            for rep in 0..seeds {
                grid.push(Cell {
                    spec,
                    scenario,
                    seed: 42u64.wrapping_add(rep as u64 * 1009),
                });
            }
        }
    }
    pool::map("bench.tournament", &grid, |_, cell| {
        let mut env = (cell.scenario.build)(cell.seed);
        let params = MechanismParams::new(cell.seed);
        let mut mech = (cell.spec.build)(&env, &params)
            .unwrap_or_else(|err| panic!("registry entry {} failed to build: {err}", cell.spec.id));
        mech.train(&mut env, episodes);
        let mut env = (cell.scenario.build)(cell.seed);
        let (summary, _) = mech.run_episode(&mut env);
        CellOutcome {
            mechanism: mech.name(),
            scenario: cell.scenario.id,
            seed: cell.seed,
            summary,
        }
    })
}

/// Aggregates replications into per-(mechanism, scenario) leaderboard
/// cells, preserving grid order.
pub fn aggregate(outcomes: &[CellOutcome]) -> Vec<TournamentCell> {
    let mut cells: Vec<TournamentCell> = Vec::new();
    for o in outcomes {
        if cells
            .iter()
            .any(|c| c.mechanism == o.mechanism && c.scenario == o.scenario)
        {
            continue;
        }
        let group: Vec<&CellOutcome> = outcomes
            .iter()
            .filter(|x| x.mechanism == o.mechanism && x.scenario == o.scenario)
            .collect();
        let field = |f: &dyn Fn(&EpisodeSummary) -> f64| -> Vec<f64> {
            group.iter().map(|x| f(&x.summary)).collect()
        };
        let utility = stats::describe(&field(&|s| s.server_utility));
        let accuracy = stats::describe(&field(&|s| s.final_accuracy));
        let te = stats::describe(&field(&|s| s.mean_time_efficiency));
        let rounds = stats::describe(&field(&|s| s.rounds as f64));
        let spent = stats::describe(&field(&|s| s.spent));
        cells.push(TournamentCell {
            mechanism: o.mechanism.clone(),
            scenario: o.scenario.to_string(),
            utility_mean: utility.mean,
            utility_std: utility.std,
            accuracy_mean: accuracy.mean,
            accuracy_std: accuracy.std,
            time_efficiency_mean: te.mean,
            time_efficiency_std: te.std,
            rounds_mean: rounds.mean,
            spent_mean: spent.mean,
        });
    }
    cells
}

/// Renders the markdown leaderboard: mechanisms ranked by mean server
/// utility across scenarios, one utility column per scenario, plus an
/// accuracy/efficiency digest table.
pub fn markdown_leaderboard(run: &TournamentRun) -> String {
    let mut scenario_ids: Vec<&str> = run.cells.iter().map(|c| c.scenario.as_str()).collect();
    scenario_ids.dedup();
    let mut names: Vec<&str> = run.cells.iter().map(|c| c.mechanism.as_str()).collect();
    names.sort_unstable();
    names.dedup();

    // Rank by mean utility across the scenarios a mechanism appears in.
    let overall = |name: &str| -> f64 {
        let xs: Vec<f64> = run
            .cells
            .iter()
            .filter(|c| c.mechanism == name)
            .map(|c| c.utility_mean)
            .collect();
        xs.iter().sum::<f64>() / xs.len() as f64
    };
    let mut ranked: Vec<&str> = names.clone();
    ranked.sort_by(|a, b| overall(b).total_cmp(&overall(a)).then(a.cmp(b)));

    let cell = |name: &str, scenario: &str| -> Option<&TournamentCell> {
        run.cells
            .iter()
            .find(|c| c.mechanism == name && c.scenario == scenario)
    };

    let mut md = String::new();
    md.push_str("# Mechanism tournament\n\n");
    md.push_str(&format!(
        "Label `{}` — {} training episodes, {} seeds per cell. \
         Ranked by mean server utility across scenarios.\n\n",
        run.label, run.episodes, run.seeds
    ));
    md.push_str("## Server utility (mean ± std)\n\n");
    md.push_str(&format!(
        "| rank | mechanism | {} |\n",
        scenario_ids.join(" | ")
    ));
    md.push_str(&format!("|---|---|{}\n", "---|".repeat(scenario_ids.len())));
    for (i, name) in ranked.iter().enumerate() {
        let cols: Vec<String> = scenario_ids
            .iter()
            .map(|sc| {
                cell(name, sc).map_or_else(
                    || "—".to_string(),
                    |c| format!("{:.1}±{:.1}", c.utility_mean, c.utility_std),
                )
            })
            .collect();
        md.push_str(&format!(
            "| {} | {} | {} |\n",
            i + 1,
            name,
            cols.join(" | ")
        ));
    }
    md.push_str("\n## Final accuracy / time efficiency (means)\n\n");
    md.push_str(&format!("| mechanism | {} |\n", scenario_ids.join(" | ")));
    md.push_str(&format!("|---|{}\n", "---|".repeat(scenario_ids.len())));
    for name in &ranked {
        let cols: Vec<String> = scenario_ids
            .iter()
            .map(|sc| {
                cell(name, sc).map_or_else(
                    || "—".to_string(),
                    |c| {
                        format!(
                            "{:.4} / {:.0}%",
                            c.accuracy_mean,
                            c.time_efficiency_mean * 100.0
                        )
                    },
                )
            })
            .collect();
        md.push_str(&format!("| {} | {} |\n", name, cols.join(" | ")));
    }
    md.push_str("\n## Scenarios\n\n");
    for sc in &scenario_ids {
        md.push_str(&format!("- `{}` — {}\n", sc, scenario(sc).summary));
    }
    md
}

/// Output directory for the tournament record: `CHIRON_BENCH_OUT` when
/// set (the CI smoke run points it at a scratch dir so the committed
/// record stays clean), otherwise the repo root.
fn out_dir() -> PathBuf {
    chiron_telemetry::RuntimeConfig::global()
        .bench_out
        .as_ref()
        .map_or_else(
            || PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../.."),
            PathBuf::from,
        )
}

/// Writes `run` as the only entry of `<out_dir>/BENCH_tournament.json`
/// and its leaderboard as `BENCH_tournament.md`.
///
/// # Panics
///
/// Panics if either file cannot be written.
pub fn write_tournament(run: &TournamentRun) {
    let file = TournamentFile {
        runs: vec![run.clone()],
    };
    let json_path = out_dir().join("BENCH_tournament.json");
    let json = serde_json::to_string_pretty(&file).expect("tournament serialization is infallible");
    std::fs::write(&json_path, json + "\n").expect("write tournament JSON");
    println!("wrote {}", json_path.display());

    let md_path = out_dir().join("BENCH_tournament.md");
    std::fs::write(&md_path, markdown_leaderboard(run)).expect("write tournament markdown");
    println!("wrote {}", md_path.display());
}

#[cfg(test)]
mod tests {
    use super::*;
    use chiron_baselines::find;

    #[test]
    fn scenario_ids_are_unique_and_resolvable() {
        let mut seen = std::collections::BTreeSet::new();
        for s in scenarios() {
            assert!(seen.insert(s.id), "duplicate scenario id {}", s.id);
            assert_eq!(scenario(s.id).id, s.id);
        }
    }

    #[test]
    fn tiny_grid_is_deterministic_and_aggregates() {
        let mechanisms = [find("static").unwrap(), find("stackelberg").unwrap()];
        let scenario_set = [scenario("iid"), scenario("tight_budget")];
        let a = run_grid(&mechanisms, &scenario_set, 1, 2);
        let b = run_grid(&mechanisms, &scenario_set, 1, 2);
        assert_eq!(a.len(), 2 * 2 * 2);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.mechanism, y.mechanism);
            assert_eq!(x.scenario, y.scenario);
            assert_eq!(
                x.summary.server_utility.to_bits(),
                y.summary.server_utility.to_bits(),
                "{}@{} must be bitwise-reproducible",
                x.mechanism,
                x.scenario
            );
        }
        let cells = aggregate(&a);
        assert_eq!(
            cells.len(),
            2 * 2,
            "one aggregate per (mechanism, scenario)"
        );
        assert!(cells.iter().all(|c| c.spent_mean >= 0.0));
    }

    #[test]
    fn markdown_has_one_ranked_row_per_mechanism() {
        let mechanisms = [find("static").unwrap(), find("lemma-oracle").unwrap()];
        let scenario_set = [scenario("tight_budget")];
        let cells = aggregate(&run_grid(&mechanisms, &scenario_set, 1, 1));
        let run = TournamentRun {
            label: "test".into(),
            episodes: 1,
            seeds: 1,
            cells,
        };
        let md = markdown_leaderboard(&run);
        assert!(md.contains("| 1 | "));
        assert!(md.contains("| 2 | "));
        assert!(md.contains("tight_budget"));
    }
}
