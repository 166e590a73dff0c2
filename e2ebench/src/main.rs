//! One benchmark for the Chiron reproduction.
//!
//! ```text
//! cargo run --release --manifest-path e2ebench/Cargo.toml -- \
//!     --workload <real_episode|tournament_cell|serve_jobs> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` measures the end-to-end metrics with telemetry off.
//! `--trace 1` measures half the time untraced and half traced, and
//! reports the per-layer metrics. The last line of standard output is the
//! result object; the lines before it give provenance and detail. See
//! `README.md` beside this crate for the workloads and metrics.

mod host;
mod layers;
mod real_episode;
mod serve_jobs;
mod stats;
mod tournament;
mod trace;
mod workload;

use host::Host;
use serde::Serialize;
use std::process::ExitCode;
use workload::{Limits, Run};

/// The workloads, in `BENCHMARK.json` order.
pub const WORKLOADS: [&str; 3] = ["real_episode", "tournament_cell", "serve_jobs"];

/// End-to-end metrics `(name, unit)`, reported by `--trace 0`.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
    ("op_p50_ms", "ms"),
    ("op_tail_ms", "ms"),
    ("ops_per_s", "1/s"),
];

fn run_workload(name: &str, limits: &Limits) -> Run {
    match name {
        "real_episode" => real_episode::run(limits),
        "tournament_cell" => tournament::run(limits),
        "serve_jobs" => serve_jobs::run(limits),
        other => unreachable!("workload {other} was validated"),
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|_| bad())?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                })
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload}; expected one of {WORKLOADS:?}"
        ));
    }
    let seconds = seconds.unwrap_or(30.0);
    if !(seconds.is_finite() && seconds >= 0.0) {
        return Err(format!(
            "--seconds must be a finite non-negative number, got {seconds}"
        ));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.unwrap_or(false),
    })
}

/// Peak resident set size of this process, in MiB.
fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

#[derive(Serialize)]
struct Metric {
    value: f64,
    unit: String,
}

#[derive(Serialize)]
struct Detail {
    workload: String,
    seed: u64,
    trace: bool,
    op: String,
    tail_percentile: f64,
    tail_samples: usize,
    tail_kind: String,
    setup_samples_s: Vec<f64>,
    failures: Vec<String>,
    kernel_params: Vec<String>,
}

/// Renders the result object: `metrics` as `{"name": {"value", "unit"}}`.
fn result_line(run: &Run, metrics: &[(&str, &str, f64)]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, unit, value)| {
            let m = Metric {
                value: *value,
                unit: (*unit).to_owned(),
            };
            format!(
                "\"{name}\":{}",
                serde_json::to_string(&m).expect("metric serializes")
            )
        })
        .collect();
    format!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        run.failed == 0,
        run.attempted.max(1),
        run.failed.min(run.attempted.max(1)),
        body.join(",")
    )
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("e2ebench: {e}");
            return ExitCode::from(2);
        }
    };
    if std::env::var_os("CHIRON_AUTOTUNE_CACHE").is_some() {
        eprintln!("e2ebench: unset CHIRON_AUTOTUNE_CACHE; a run must not inherit autotuner state");
        return ExitCode::from(2);
    }
    if args.workload == "tournament_cell" {
        tournament::pin_blocking();
    }
    let host = Host::detect();
    chiron_tensor::pool::set_threads(host.threads);
    let limits = Limits {
        seed: args.seed,
        seconds: args.seconds,
        smoke: false,
    };

    let (run, metrics, kernel_params) = if args.trace {
        let half = Limits {
            seconds: args.seconds / 2.0,
            ..limits
        };
        let untraced = run_workload(&args.workload, &half);
        let trace = trace::Trace::start();
        let mut traced = run_workload(&args.workload, &half);
        let collected = trace.finish();
        let metrics = layers::per_layer(&untraced, &traced, &collected);
        let picks = trace::tuned_shapes(chiron_tensor::active_tier(), &traced.dims);
        traced.attempted += untraced.attempted;
        traced.failed += untraced.failed;
        traced.failures.extend(untraced.failures);
        (traced, metrics, picks)
    } else {
        let run = run_workload(&args.workload, &limits);
        let metrics = end_to_end(&run);
        (run, metrics, Vec::new())
    };

    let tail = stats::tail(&run.op_ms);
    let detail = Detail {
        workload: args.workload.clone(),
        seed: args.seed,
        trace: args.trace,
        op: run.op.to_owned(),
        tail_percentile: tail.map_or(100.0, |t| t.percentile),
        tail_samples: run.op_ms.len(),
        tail_kind: tail_kind(&run),
        setup_samples_s: run.setup_s.clone(),
        failures: run.failures.iter().take(10).cloned().collect(),
        kernel_params,
    };
    println!(
        "host {}",
        serde_json::to_string(&host).expect("host serializes")
    );
    println!(
        "detail {}",
        serde_json::to_string(&detail).expect("detail serializes")
    );
    println!("{}", result_line(&run, &metrics));
    ExitCode::SUCCESS
}

/// The end-to-end metrics of an untraced run.
fn end_to_end(run: &Run) -> Vec<(&'static str, &'static str, f64)> {
    assert!(!run.op_ms.is_empty(), "a run completes at least one op");
    let values = [
        stats::median(&run.setup_s),
        peak_rss_mib(),
        stats::median(&run.op_ms),
        stats::tail_or_max(&run.op_ms),
        run.attempted as f64 / run.loop_s,
    ];
    END_TO_END
        .iter()
        .zip(values)
        .map(|(&(name, unit), v)| (name, unit, v))
        .collect()
}

/// Which op kind the tail value belongs to, and how many of the samples
/// beyond it share that kind; `-` where ops have no kinds.
fn tail_kind(run: &Run) -> String {
    if run.op_kind.len() != run.op_ms.len() || run.op_ms.len() <= stats::TAIL_BEYOND {
        return "-".into();
    }
    let mut order: Vec<usize> = (0..run.op_ms.len()).collect();
    order.sort_by(|&a, &b| run.op_ms[a].total_cmp(&run.op_ms[b]));
    let n = order.len();
    let at = run.op_kind[order[n - stats::TAIL_BEYOND - 1]];
    let beyond: Vec<&str> = order[n - stats::TAIL_BEYOND..]
        .iter()
        .map(|&i| run.op_kind[i])
        .collect();
    let same = beyond.iter().filter(|&&k| k == at).count();
    format!("{at} ({same} of the {} beyond are {at})", beyond.len())
}

#[cfg(test)]
mod tests {
    use super::*;
    use chiron::{EpisodeRun, MechanismParams};
    use serde::Deserialize;

    #[derive(Deserialize, Serialize, Debug, PartialEq)]
    struct Workload {
        name: String,
        why: String,
    }

    #[derive(Deserialize, Serialize, Debug, PartialEq)]
    struct MetricSpec {
        name: String,
        unit: String,
        better: String,
        bound: Option<f64>,
    }

    #[derive(Deserialize, Serialize, Debug, PartialEq)]
    struct Benchmark {
        command: Vec<String>,
        paths: Vec<String>,
        run_seconds: u64,
        workloads: Vec<Workload>,
        end_to_end: Vec<MetricSpec>,
        per_layer: Vec<MetricSpec>,
    }

    fn benchmark_json() -> Benchmark {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
        serde_json::from_str(&text).expect("BENCHMARK.json parses")
    }

    #[test]
    fn benchmark_json_round_trips_and_matches_the_code() {
        let bench = benchmark_json();
        let again: Benchmark =
            serde_json::from_str(&serde_json::to_string(&bench).expect("serializes"))
                .expect("parses");
        assert_eq!(again, bench);

        let names: Vec<&str> = bench.workloads.iter().map(|w| w.name.as_str()).collect();
        assert_eq!(names, WORKLOADS);
        let listed = |specs: &[MetricSpec]| -> Vec<(String, String)> {
            specs
                .iter()
                .map(|m| (m.name.clone(), m.unit.clone()))
                .collect()
        };
        let code = |metrics: &[(&str, &str)]| -> Vec<(String, String)> {
            metrics
                .iter()
                .map(|(n, u)| ((*n).to_owned(), (*u).to_owned()))
                .collect()
        };
        assert_eq!(listed(&bench.end_to_end), code(&END_TO_END));
        assert_eq!(listed(&bench.per_layer), code(&layers::PER_LAYER));
        for m in &bench.end_to_end {
            let bound = m.bound.expect("end-to-end metrics carry a bound");
            assert!(bound > 0.0 && bound <= 0.25, "{}: bound {bound}", m.name);
        }
        for m in bench.end_to_end.iter().chain(&bench.per_layer) {
            assert!(stats::valid_name(&m.name), "{}", m.name);
            assert!(
                matches!(m.better.as_str(), "higher" | "lower"),
                "{}",
                m.name
            );
        }
        assert!(names.iter().all(|n| stats::valid_name(n)));
    }

    fn smoke(workload: &str) -> Run {
        let run = run_workload(
            workload,
            &Limits {
                seed: 1,
                seconds: 0.0,
                smoke: true,
            },
        );
        assert!(run.attempted > 0, "{workload}: no ops");
        assert_eq!(run.failed, 0, "{workload}: {:?}", run.failures);
        assert!(
            !run.op_ms.is_empty() && !run.setup_s.is_empty(),
            "{workload}"
        );
        let metrics = end_to_end(&run);
        assert!(
            metrics.iter().all(|(_, _, v)| v.is_finite() && *v > 0.0),
            "{metrics:?}"
        );
        run
    }

    #[test]
    fn smoke_real_episode() {
        smoke("real_episode");
    }

    #[test]
    fn smoke_tournament_cell() {
        smoke("tournament_cell");
    }

    #[test]
    fn smoke_serve_jobs() {
        let run = smoke("serve_jobs");
        assert!(run.op_kind.contains(&"train") && run.op_kind.contains(&"eval"));
        assert!(
            !std::path::Path::new(".bench_run").exists(),
            "serve state removed"
        );
    }

    #[test]
    fn driven_evaluation_matches_run_episode() {
        let seed = 7;
        let build = || {
            let env = chiron_bench::tournament::scenario("iid").build;
            let env = env(seed);
            let spec = chiron_baselines::find("chiron").expect("registry entry");
            let mech = (spec.build)(&env, &MechanismParams::new(seed)).expect("builds");
            (env, mech)
        };
        let (mut env, mut mech) = build();
        let mut run = Run::default();
        let driven = workload::evaluation_episode(mech.as_mut(), &mut env, &mut run);
        let (mut env, mut mech) = build();
        let (reference, _) = mech.run_episode(&mut env);
        assert_eq!(driven, reference);
        assert_eq!(
            run.timings["fedsim.env.step_us"].len(),
            reference.rounds + 1
        );
    }
}
