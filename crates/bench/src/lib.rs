//! # chiron-bench
//!
//! The reproduction harness: one binary per table/figure of the paper's
//! evaluation (Section VI).
//!
//! | Binary | Paper artifact |
//! |---|---|
//! | `fig3` | Fig. 3 — Chiron episode-reward convergence (MNIST, 5 nodes) |
//! | `fig4` | Fig. 4(a–c) — accuracy / rounds / time-efficiency vs budget, MNIST |
//! | `fig5` | Fig. 5(a–c) — same panels, Fashion-MNIST |
//! | `fig6` | Fig. 6(a–c) — same panels, CIFAR-10 |
//! | `fig7` | Fig. 7(a,b) — convergence at 100 nodes, Chiron vs DRL-based |
//! | `table1` | Table I — Chiron at 100 nodes across budgets |
//! | `ablation_hierarchy` | DESIGN.md §5.1 — hierarchical vs flat agent |
//! | `ablation_reward` | DESIGN.md §5.2 — accuracy-aware vs time-only reward |
//! | `ablation_history` | DESIGN.md §5.3 — history-window sweep |
//! | `ablation_inner_state` | inner-agent observation: paper's scalar vs enriched |
//! | `ext_noniid` | extension — heterogeneous per-node data volumes |
//! | `ext_upper_bound` | extension — gap to the full-information DP optimum |
//! | `ext_fairness` | extension — per-node payment/utility fairness (Jain) |
//! | `ext_channel` | extension — log-normal uplink fading (Eqn. 7's B_{i,k}) |
//! | `repro_all` | runs everything above in sequence |
//!
//! Every binary prints the paper's rows/series to stdout and writes CSV
//! under `target/experiments/`. Numbers are not expected to match the
//! paper's testbed absolutely; the *shapes* (who wins, by roughly what
//! factor, where curves bend) are the reproduction target — see
//! `EXPERIMENTS.md` for the side-by-side record.

pub mod plot;
pub mod stats;
pub mod tournament;

use chiron::{Chiron, ChironConfig, EpisodeRun, Mechanism};
use chiron_baselines::{DrlSingleRound, Greedy};
use chiron_data::DatasetKind;
use chiron_fedsim::metrics::EpisodeSummary;
use chiron_fedsim::{EdgeLearningEnv, EnvConfig};
use chiron_tensor::pool;
use std::path::PathBuf;

/// Where experiment CSVs land (`target/experiments/`).
pub fn out_dir() -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../target/experiments");
    std::fs::create_dir_all(&dir).expect("create experiments dir");
    dir
}

/// Writes `content` to `target/experiments/<name>` and echoes the path.
pub fn write_csv(name: &str, content: &str) {
    let path = out_dir().join(name);
    std::fs::write(&path, content).expect("write experiment CSV");
    println!("wrote {}", path.display());
}

/// Number of training episodes, overridable with `CHIRON_EPISODES` (the
/// paper uses 500; the default keeps `repro_all` under a few minutes).
/// `0` or a malformed value keeps `default`.
pub fn episodes_from_env(default: usize) -> usize {
    count_or(chiron_telemetry::RuntimeConfig::global().episodes, default)
}

/// A count knob's value, or `default` when it is unset or zero (a zero
/// count would silently run nothing).
fn count_or(knob: Option<usize>, default: usize) -> usize {
    knob.filter(|&n| n > 0).unwrap_or(default)
}

/// Builds the evaluation environment for a scale/dataset/budget triple.
pub fn make_env(kind: DatasetKind, nodes: usize, budget: f64, seed: u64) -> EdgeLearningEnv {
    let config = if nodes == 100 {
        EnvConfig::paper_large(kind, budget)
    } else {
        let mut c = EnvConfig::paper_small(kind, budget);
        c.fleet.nodes = nodes;
        c
    };
    EdgeLearningEnv::new(config, seed)
}

/// The three contenders of the paper's evaluation, trained and ready.
pub struct Contenders {
    /// The hierarchical mechanism (the paper's contribution).
    pub chiron: Chiron,
    /// The myopic single-round DRL baseline.
    pub drl: DrlSingleRound,
    /// The ε-greedy replay baseline.
    pub greedy: Greedy,
}

impl Contenders {
    /// Trains all three mechanisms on the same task at `train_budget`.
    ///
    /// The three trainings are independent (each builds its own
    /// identically seeded env), so they run as one named region — three
    /// tasks joined in fixed mechanism order, bitwise-identical to the
    /// historical sequential loop at any thread count.
    pub fn train(
        kind: DatasetKind,
        nodes: usize,
        train_budget: f64,
        episodes: usize,
        seed: u64,
    ) -> Self {
        let mut chiron: Option<Chiron> = None;
        let mut drl: Option<DrlSingleRound> = None;
        let mut greedy: Option<Greedy> = None;
        let tasks: Vec<Box<dyn FnOnce() + Send + '_>> = vec![
            Box::new(|| {
                let mut env = make_env(kind, nodes, train_budget, seed);
                let mut m = Chiron::new(&env, ChironConfig::paper(), seed);
                m.train(&mut env, episodes);
                chiron = Some(m);
            }),
            Box::new(|| {
                let mut env = make_env(kind, nodes, train_budget, seed);
                let mut m = DrlSingleRound::new(&env, seed);
                m.train(&mut env, episodes);
                drl = Some(m);
            }),
            Box::new(|| {
                let mut env = make_env(kind, nodes, train_budget, seed);
                let mut m = Greedy::new(&env, seed);
                m.train(&mut env, episodes);
                greedy = Some(m);
            }),
        ];
        pool::run("bench.contenders_train", tasks);
        Self {
            chiron: chiron.expect("chiron training task ran"),
            drl: drl.expect("drl training task ran"),
            greedy: greedy.expect("greedy training task ran"),
        }
    }

    /// The mechanisms as a uniform list for sweep loops, labelled by
    /// [`Mechanism::name`].
    pub fn as_mechanisms(&mut self) -> Vec<(String, &mut dyn Mechanism)> {
        vec![
            (self.chiron.name(), &mut self.chiron as &mut dyn Mechanism),
            (self.drl.name(), &mut self.drl as &mut dyn Mechanism),
            (self.greedy.name(), &mut self.greedy as &mut dyn Mechanism),
        ]
    }
}

/// One mechanism's evaluation row at one budget.
#[derive(Debug, Clone)]
pub struct PanelPoint {
    /// Mechanism name.
    pub mechanism: String,
    /// Budget η.
    pub budget: f64,
    /// Episode summary of the deterministic evaluation run.
    pub summary: EpisodeSummary,
}

/// Averages episode summaries elementwise (rounds are rounded to the
/// nearest integer).
///
/// # Panics
///
/// Panics if `summaries` is empty.
pub fn mean_summary(summaries: &[EpisodeSummary]) -> EpisodeSummary {
    assert!(!summaries.is_empty(), "cannot average zero summaries");
    let n = summaries.len() as f64;
    EpisodeSummary {
        rounds: (summaries.iter().map(|s| s.rounds).sum::<usize>() as f64 / n).round() as usize,
        final_accuracy: summaries.iter().map(|s| s.final_accuracy).sum::<f64>() / n,
        total_time: summaries.iter().map(|s| s.total_time).sum::<f64>() / n,
        mean_time_efficiency: summaries
            .iter()
            .map(|s| s.mean_time_efficiency)
            .sum::<f64>()
            / n,
        spent: summaries.iter().map(|s| s.spent).sum::<f64>() / n,
        server_utility: summaries.iter().map(|s| s.server_utility).sum::<f64>() / n,
    }
}

/// Replication count for the sweep binaries and the tournament,
/// overridable with `CHIRON_SEEDS` (each replication re-trains and
/// re-evaluates with a different seed; results are averaged). `0` or a
/// malformed value keeps `default`.
pub fn seeds_from_env(default: usize) -> usize {
    count_or(chiron_telemetry::RuntimeConfig::global().seeds, default)
}

/// [`run_budget_panel`] replicated over several seeds **in parallel** (one
/// task per seed on the shared worker pool), with per-(mechanism,
/// budget) summaries averaged across replications.
///
/// # Panics
///
/// Panics if `replications == 0`.
pub fn run_budget_panel_replicated(
    kind: DatasetKind,
    nodes: usize,
    budgets: &[f64],
    episodes: usize,
    base_seed: u64,
    replications: usize,
) -> Vec<PanelPoint> {
    assert!(replications > 0, "need at least one replication");
    if replications == 1 {
        return run_budget_panel(kind, nodes, budgets, episodes, base_seed);
    }
    // Seed cells are fully independent; results are collected in seed
    // order, so the averages below see the same inputs as a serial sweep.
    let seeds: Vec<u64> = (0..replications)
        .map(|r| base_seed.wrapping_add(r as u64 * 1009))
        .collect();
    let runs: Vec<Vec<PanelPoint>> = pool::map("bench.panel_replications", &seeds, |_, &seed| {
        run_budget_panel(kind, nodes, budgets, episodes, seed)
    });

    // Dispersion digest: accuracy spread per mechanism at the largest budget.
    {
        let largest = budgets[budgets.len() - 1];
        let mut names: Vec<&str> = runs[0].iter().map(|p| p.mechanism.as_str()).collect();
        names.dedup();
        println!("replication dispersion at η = {largest} ({replications} seeds):");
        for name in names {
            let accs: Vec<f64> = runs
                .iter()
                .flat_map(|run| {
                    run.iter()
                        .filter(|p| p.mechanism == name && p.budget == largest)
                        .map(|p| p.summary.final_accuracy)
                })
                .collect();
            println!("  {name:<10} accuracy {}", stats::fmt_mean_std(&accs, 4));
        }
    }

    // All runs share the same (mechanism, budget) grid order.
    let grid = runs[0].len();
    (0..grid)
        .map(|i| {
            let summaries: Vec<EpisodeSummary> =
                runs.iter().map(|run| run[i].summary.clone()).collect();
            PanelPoint {
                mechanism: runs[0][i].mechanism.clone(),
                budget: runs[0][i].budget,
                summary: mean_summary(&summaries),
            }
        })
        .collect()
}

/// Runs the Fig. 4/5/6 protocol: train the three contenders once at the
/// median budget, then evaluate each deterministically at every budget of
/// the sweep. Returns one [`PanelPoint`] per (mechanism, budget).
///
/// Evaluation parallelizes per mechanism (each task owns one trained
/// mechanism and walks the budgets in order with a fresh per-cell env);
/// eval-mode decisions are RNG-free, so the grid is bitwise-identical to
/// the historical nested loop.
pub fn run_budget_panel(
    kind: DatasetKind,
    nodes: usize,
    budgets: &[f64],
    episodes: usize,
    seed: u64,
) -> Vec<PanelPoint> {
    let train_budget = budgets[budgets.len() / 2];
    let mut contenders = Contenders::train(kind, nodes, train_budget, episodes, seed);
    let Contenders {
        chiron,
        drl,
        greedy,
    } = &mut contenders;
    let tasks: Vec<Box<dyn FnOnce() -> Vec<PanelPoint> + Send + '_>> = vec![
        Box::new(move || eval_budget_cells(chiron, kind, nodes, budgets, seed)),
        Box::new(move || eval_budget_cells(drl, kind, nodes, budgets, seed)),
        Box::new(move || eval_budget_cells(greedy, kind, nodes, budgets, seed)),
    ];
    let rows = pool::run("bench.budget_panel_eval", tasks);
    rows.into_iter().flatten().collect()
}

/// One mechanism's deterministic evaluation row: every budget of the
/// sweep, each in a fresh env. Rows are labelled by [`Mechanism::name`].
fn eval_budget_cells(
    mechanism: &mut dyn Mechanism,
    kind: DatasetKind,
    nodes: usize,
    budgets: &[f64],
    seed: u64,
) -> Vec<PanelPoint> {
    let name = mechanism.name();
    budgets
        .iter()
        .map(|&budget| {
            let mut env = make_env(kind, nodes, budget, seed);
            let (summary, _) = mechanism.run_episode(&mut env);
            PanelPoint {
                mechanism: name.clone(),
                budget,
                summary,
            }
        })
        .collect()
}

/// Prints the three panels of a Fig. 4/5/6-style sweep and returns the CSV
/// body for `write_csv`.
pub fn print_panel(title: &str, points: &[PanelPoint]) -> String {
    let mut mechanisms: Vec<&str> = points.iter().map(|p| p.mechanism.as_str()).collect();
    mechanisms.dedup();
    let budgets: Vec<f64> = {
        let mut b: Vec<f64> = points.iter().map(|p| p.budget).collect();
        b.dedup();
        b.truncate(points.len() / mechanisms.len());
        b
    };

    println!("\n=== {title} ===");
    for (panel, metric) in [
        ("(a) final accuracy", 0),
        ("(b) rounds completed", 1),
        ("(c) time efficiency %", 2),
    ] {
        println!("{panel}:");
        print!("  {:<10}", "budget");
        for &b in &budgets {
            print!(" {b:>9}");
        }
        println!();
        for &m in &mechanisms {
            print!("  {m:<10}");
            for &b in &budgets {
                let p = points
                    .iter()
                    .find(|p| p.mechanism == m && p.budget == b)
                    .expect("full grid");
                match metric {
                    0 => print!(" {:>9.4}", p.summary.final_accuracy),
                    1 => print!(" {:>9}", p.summary.rounds),
                    _ => print!(" {:>9.1}", p.summary.mean_time_efficiency * 100.0),
                }
            }
            println!();
        }
    }

    let mut csv = String::from(
        "mechanism,budget,accuracy,rounds,total_time,time_efficiency,spent,server_utility\n",
    );
    for p in points {
        csv.push_str(&format!(
            "{},{},{:.6},{},{:.2},{:.4},{:.2},{:.2}\n",
            p.mechanism,
            p.budget,
            p.summary.final_accuracy,
            p.summary.rounds,
            p.summary.total_time,
            p.summary.mean_time_efficiency,
            p.summary.spent,
            p.summary.server_utility,
        ));
    }
    csv
}

/// Writes the three standard panels of a Fig. 4/5/6 sweep as SVG charts
/// (`<stem>_accuracy.svg`, `<stem>_rounds.svg`, `<stem>_efficiency.svg`).
pub fn write_panel_charts(stem: &str, title: &str, points: &[PanelPoint]) {
    let mut mechanisms: Vec<&str> = points.iter().map(|p| p.mechanism.as_str()).collect();
    mechanisms.dedup();
    let metric = |f: &dyn Fn(&PanelPoint) -> f64| -> Vec<plot::Series> {
        mechanisms
            .iter()
            .map(|&m| {
                let pts: Vec<&PanelPoint> = points.iter().filter(|p| p.mechanism == m).collect();
                let xs: Vec<f64> = pts.iter().map(|p| p.budget).collect();
                let ys: Vec<f64> = pts.iter().map(|p| f(p)).collect();
                plot::Series::new(m, &xs, &ys)
            })
            .collect()
    };
    plot::write_chart(
        &format!("{stem}_accuracy.svg"),
        &plot::ChartSpec::new(&format!("{title} — final accuracy"), "budget η", "accuracy"),
        &metric(&|p| p.summary.final_accuracy),
    );
    plot::write_chart(
        &format!("{stem}_rounds.svg"),
        &plot::ChartSpec::new(&format!("{title} — rounds completed"), "budget η", "rounds"),
        &metric(&|p| p.summary.rounds as f64),
    );
    plot::write_chart(
        &format!("{stem}_efficiency.svg"),
        &plot::ChartSpec::new(
            &format!("{title} — time efficiency"),
            "budget η",
            "time efficiency",
        ),
        &metric(&|p| p.summary.mean_time_efficiency),
    );
}

/// Writes a reward-convergence curve (raw + smoothed) as an SVG chart.
pub fn write_reward_chart(name: &str, title: &str, rewards: &[f64], window: usize) {
    let xs: Vec<f64> = (1..=rewards.len()).map(|i| i as f64).collect();
    let smooth = moving_average(rewards, window);
    plot::write_chart(
        name,
        &plot::ChartSpec::new(title, "episode", "episode reward"),
        &[
            plot::Series::new("per-episode", &xs, rewards),
            plot::Series::new(&format!("moving avg ({window})"), &xs, &smooth),
        ],
    );
}

/// Smooths a reward curve with a trailing moving average (the paper plots
/// per-episode reward plus a smoothed trend).
pub fn moving_average(series: &[f64], window: usize) -> Vec<f64> {
    assert!(window > 0, "window must be positive");
    series
        .iter()
        .enumerate()
        .map(|(i, _)| {
            let lo = i.saturating_sub(window - 1);
            let slice = &series[lo..=i];
            slice.iter().sum::<f64>() / slice.len() as f64
        })
        .collect()
}

/// Formats a reward curve as CSV (`episode,reward,smoothed`).
pub fn reward_curve_csv(rewards: &[f64], window: usize) -> String {
    let smooth = moving_average(rewards, window);
    let mut csv = String::from("episode,reward,smoothed\n");
    for (i, (r, s)) in rewards.iter().zip(&smooth).enumerate() {
        csv.push_str(&format!("{},{:.4},{:.4}\n", i + 1, r, s));
    }
    csv
}

/// Prints a compact decile digest of a reward curve.
pub fn print_reward_digest(name: &str, rewards: &[f64]) {
    println!("{name}: episode-reward deciles");
    let chunk = (rewards.len() / 10).max(1);
    for (i, c) in rewards.chunks(chunk).enumerate() {
        let mean = c.iter().sum::<f64>() / c.len() as f64;
        println!(
            "  {:>3}–{:>3}: {mean:>8.2}",
            i * chunk + 1,
            (i * chunk + c.len())
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn moving_average_trails_correctly() {
        let s = [1.0, 2.0, 3.0, 4.0];
        let m = moving_average(&s, 2);
        assert_eq!(m, vec![1.0, 1.5, 2.5, 3.5]);
    }

    #[test]
    fn reward_csv_has_one_row_per_episode() {
        let csv = reward_curve_csv(&[1.0, 2.0], 2);
        assert_eq!(csv.lines().count(), 3);
    }

    #[test]
    fn zero_and_malformed_counts_keep_the_default() {
        use chiron_telemetry::RuntimeConfig;
        for raw in ["0", " 0 ", "-3", "many", ""] {
            let rt = RuntimeConfig::from_lookup(|_| Some(raw.to_owned()));
            assert_eq!(count_or(rt.episodes, 40), 40, "CHIRON_EPISODES={raw:?}");
            assert_eq!(count_or(rt.seeds, 3), 3, "CHIRON_SEEDS={raw:?}");
        }
        let rt = RuntimeConfig::from_lookup(|name| match name {
            "CHIRON_EPISODES" => Some(" 7 ".to_owned()),
            "CHIRON_SEEDS" => Some("2".to_owned()),
            _ => None,
        });
        assert_eq!(count_or(rt.episodes, 40), 7);
        assert_eq!(count_or(rt.seeds, 3), 2);
    }

    #[test]
    fn make_env_scales() {
        let small = make_env(DatasetKind::MnistLike, 5, 100.0, 0);
        assert_eq!(small.num_nodes(), 5);
        let large = make_env(DatasetKind::MnistLike, 100, 300.0, 0);
        assert_eq!(large.num_nodes(), 100);
    }

    #[test]
    fn mean_summary_averages_fields() {
        let a = EpisodeSummary {
            rounds: 10,
            final_accuracy: 0.8,
            total_time: 100.0,
            mean_time_efficiency: 0.9,
            spent: 50.0,
            server_utility: 1500.0,
        };
        let b = EpisodeSummary {
            rounds: 20,
            final_accuracy: 0.6,
            total_time: 300.0,
            mean_time_efficiency: 0.7,
            spent: 70.0,
            server_utility: 900.0,
        };
        let m = mean_summary(&[a, b]);
        assert_eq!(m.rounds, 15);
        assert!((m.final_accuracy - 0.7).abs() < 1e-12);
        assert!((m.total_time - 200.0).abs() < 1e-12);
        assert!((m.mean_time_efficiency - 0.8).abs() < 1e-12);
    }

    #[test]
    fn replicated_panel_matches_grid_shape() {
        let points = run_budget_panel_replicated(DatasetKind::MnistLike, 5, &[40.0, 60.0], 2, 0, 2);
        assert_eq!(points.len(), 6);
    }

    #[test]
    fn budget_panel_produces_full_grid() {
        let points = run_budget_panel(DatasetKind::MnistLike, 5, &[40.0, 60.0], 2, 0);
        assert_eq!(points.len(), 3 * 2);
        let csv = print_panel("smoke", &points);
        assert!(csv.lines().count() == 7);
    }
}
