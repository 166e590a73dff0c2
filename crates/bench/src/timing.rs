//! Machine-readable timing harness for the fleet-scaling bench.
//!
//! Each case is timed (warmup, then `CHIRON_BENCH_SAMPLES` samples of
//! auto-calibrated iteration batches) and appended to a JSON file at the
//! repo root (`BENCH_fleet.json`) under a run label (`CHIRON_BENCH_LABEL`,
//! default `current`). Re-running with the same label replaces that label's
//! numbers and leaves other labels untouched, so the file accumulates a
//! before/after trajectory across changes.

use serde::{Deserialize, Serialize};
use std::path::PathBuf;
use std::time::Instant;

/// One labeled measurement of a case (times in milliseconds per iteration).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Run {
    /// Run label, e.g. `pr1` or `pr2-blocked-kernel`.
    pub label: String,
    /// Mean over samples.
    pub mean_ms: f64,
    /// Median over samples.
    pub p50_ms: f64,
    /// 95th percentile (nearest-rank) over samples.
    pub p95_ms: f64,
    /// Fastest sample.
    pub min_ms: f64,
    /// Number of measured samples.
    pub samples: usize,
    /// Iterations averaged inside each sample.
    pub iters: usize,
    /// Derived throughput for round-structured cases (federated rounds
    /// per second); `None` for plain timings. Absent in older records —
    /// missing fields deserialize to `None`.
    pub rounds_per_sec: Option<f64>,
}

/// One benchmark case with its per-label history.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Case {
    /// Case name, e.g. `mnist_cnn_train_step_b10_t1`.
    pub name: String,
    /// Measurements, one per label, in insertion order.
    pub runs: Vec<Run>,
}

/// The on-disk shape of a `BENCH_*.json` file.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct BenchFile {
    /// All cases, in first-seen order.
    pub cases: Vec<Case>,
}

/// Samples per case: `CHIRON_BENCH_SAMPLES` (default 20; `1` is the CI
/// smoke setting — a single sample of a single iteration).
pub fn samples_from_env() -> usize {
    chiron_telemetry::RuntimeConfig::global()
        .bench_samples
        .filter(|&n| n > 0)
        .unwrap_or(20)
}

/// Run label for the JSON record: `CHIRON_BENCH_LABEL` (default `current`).
pub fn label_from_env() -> String {
    chiron_telemetry::RuntimeConfig::global()
        .bench_label
        .clone()
        .unwrap_or_else(|| "current".to_owned())
}

/// Nearest-rank percentile of an ascending-sorted sample.
///
/// # Panics
///
/// Panics if `sorted` is empty or `q` is outside `(0, 100]`.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of empty sample");
    assert!(q > 0.0 && q <= 100.0, "percentile out of range: {q}");
    let rank = ((q / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.max(1) - 1]
}

/// Times `f`, returning per-iteration statistics. One warmup call, then a
/// calibration call that sizes the iteration batch so each sample spans a
/// few milliseconds (single-iteration samples when `CHIRON_BENCH_SAMPLES=1`,
/// the CI smoke mode).
pub fn time_case(name: &str, mut f: impl FnMut()) -> (String, Run) {
    let samples = samples_from_env();
    f(); // warmup: populate caches, scratch arenas, lazy pools
    let t0 = Instant::now();
    f();
    let once = t0.elapsed().as_secs_f64();
    let iters = if samples == 1 {
        1
    } else {
        ((2e-3 / once.max(1e-9)).ceil() as usize).clamp(1, 10_000)
    };
    let mut xs = Vec::with_capacity(samples);
    for _ in 0..samples {
        let t = Instant::now();
        for _ in 0..iters {
            f();
        }
        xs.push(t.elapsed().as_secs_f64() * 1e3 / iters as f64);
    }
    xs.sort_by(f64::total_cmp);
    let run = Run {
        label: label_from_env(),
        mean_ms: xs.iter().sum::<f64>() / xs.len() as f64,
        p50_ms: percentile(&xs, 50.0),
        p95_ms: percentile(&xs, 95.0),
        min_ms: xs[0],
        samples,
        iters,
        rounds_per_sec: None,
    };
    println!(
        "{name:<40} mean {:>10.4} ms  p50 {:>10.4}  p95 {:>10.4}  (n={samples}×{iters})",
        run.mean_ms, run.p50_ms, run.p95_ms
    );
    (name.to_owned(), run)
}

/// Repo root (two levels above this crate's manifest).
pub fn repo_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..")
}

/// Output directory for the JSON records: `CHIRON_BENCH_OUT` when set
/// (the CI smoke run points it at a scratch dir so the committed history
/// stays clean), otherwise the repo root.
pub fn out_dir() -> PathBuf {
    chiron_telemetry::RuntimeConfig::global()
        .bench_out
        .as_ref()
        .map(PathBuf::from)
        .unwrap_or_else(repo_root)
}

/// Merges `results` into `<out_dir>/<file_name>`: each case's entry under
/// the current label is replaced; other labels and unrelated cases survive.
///
/// # Panics
///
/// Panics if an existing file fails to parse (corrupt history should be
/// fixed, not silently discarded) or the file cannot be written.
pub fn write_results(file_name: &str, results: &[(String, Run)]) {
    let path = out_dir().join(file_name);
    let mut file: BenchFile = match std::fs::read_to_string(&path) {
        Ok(text) => serde_json::from_str(&text)
            .unwrap_or_else(|e| panic!("corrupt {file_name}: {e} — fix or delete it")),
        Err(_) => BenchFile::default(),
    };
    for (name, run) in results {
        let case = match file.cases.iter_mut().find(|c| &c.name == name) {
            Some(c) => c,
            None => {
                file.cases.push(Case {
                    name: name.clone(),
                    runs: Vec::new(),
                });
                file.cases.last_mut().expect("just pushed")
            }
        };
        case.runs.retain(|r| r.label != run.label);
        case.runs.push(run.clone());
    }
    let json = serde_json::to_string_pretty(&file).expect("bench serialization is infallible");
    std::fs::write(&path, json + "\n").expect("write bench JSON");
    println!("wrote {}", path.display());
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_nearest_rank() {
        let xs = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0];
        assert_eq!(percentile(&xs, 50.0), 5.0);
        assert_eq!(percentile(&xs, 95.0), 10.0);
        assert_eq!(percentile(&xs, 100.0), 10.0);
        assert_eq!(percentile(&[3.5], 50.0), 3.5);
    }

    #[test]
    fn bench_file_round_trips() {
        let file = BenchFile {
            cases: vec![Case {
                name: "case".into(),
                runs: vec![Run {
                    label: "pr1".into(),
                    mean_ms: 1.5,
                    p50_ms: 1.4,
                    p95_ms: 2.0,
                    min_ms: 1.2,
                    samples: 20,
                    iters: 3,
                    rounds_per_sec: Some(13_333.3),
                }],
            }],
        };
        let json = serde_json::to_string(&file).unwrap();
        let back: BenchFile = serde_json::from_str(&json).unwrap();
        assert_eq!(file, back);
    }

    #[test]
    fn time_case_reports_positive_times() {
        std::env::set_var("CHIRON_BENCH_SAMPLES", "2");
        let (name, run) = time_case("spin", || {
            std::hint::black_box((0..1000).sum::<u64>());
        });
        std::env::remove_var("CHIRON_BENCH_SAMPLES");
        assert_eq!(name, "spin");
        assert!(run.mean_ms >= 0.0 && run.p95_ms >= run.min_ms);
    }
}
