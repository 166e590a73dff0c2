//! Telemetry integration: enabling the instrumentation layer must not
//! change any training result bitwise, and an enabled run must stream
//! valid JSONL covering the whole span hierarchy
//! (`episode > round > {pricing, local_training, aggregation, ppo_update}`).
//!
//! Thread counts are driven through [`chiron_tensor::pool::set_threads`]
//! (not the `CHIRON_THREADS` env var, which is read once per process),
//! under the binary's pool-size lock.

mod common;

use chiron::{Chiron, ChironConfig, Mechanism};
use chiron_data::DatasetKind;
use chiron_fedsim::{EdgeLearningEnv, EnvConfig};
use chiron_telemetry::{
    add_sink, remove_sink, reset_metrics, set_enabled, Record, RingBufferSink, TelemetrySession,
};
use chiron_tensor::pool;
use std::collections::BTreeSet;
use std::sync::{Arc, Mutex};

/// The recorder is process-global; serialize tests that toggle it.
static GATE: Mutex<()> = Mutex::new(());

/// A short but complete training run: returns every episode reward
/// bit-exactly plus the full mechanism snapshot (all network weights).
fn train_digest() -> (Vec<u64>, String) {
    let mut env = EdgeLearningEnv::new(EnvConfig::paper_small(DatasetKind::Tiny, 40.0), 7);
    let mut mech = Chiron::new(&env, ChironConfig::fast(), 7);
    let rewards = mech.train(&mut env, 2);
    let bits = rewards.iter().map(|r| r.to_bits()).collect();
    (bits, mech.snapshot().to_json())
}

#[test]
fn enabled_telemetry_is_bitwise_invisible_at_1_and_4_threads() {
    let _gate = GATE.lock().unwrap();
    let _sweep = common::pool_sweep();
    for threads in [1usize, 4] {
        pool::set_threads(threads);
        let baseline = train_digest();

        let ring = Arc::new(RingBufferSink::new(1 << 16));
        let id = add_sink(ring.clone());
        set_enabled(true);
        let instrumented = train_digest();
        set_enabled(false);
        remove_sink(id);
        reset_metrics();

        assert!(!ring.is_empty(), "enabled run must record something");
        assert_eq!(
            baseline.0, instrumented.0,
            "episode rewards must be bitwise identical at {threads} threads"
        );
        assert_eq!(
            baseline.1, instrumented.1,
            "mechanism snapshots must be byte-identical at {threads} threads"
        );
    }
}

#[test]
fn spans_cover_the_training_hierarchy() {
    let _gate = GATE.lock().unwrap();
    let ring = Arc::new(RingBufferSink::new(1 << 16));
    let id = add_sink(ring.clone());
    set_enabled(true);
    train_digest();
    set_enabled(false);
    remove_sink(id);
    reset_metrics();

    let mut names: BTreeSet<String> = BTreeSet::new();
    let mut parents_resolve = true;
    let mut open: BTreeSet<u64> = BTreeSet::new();
    for rec in ring.records() {
        match rec {
            Record::SpanStart { id, parent, name } => {
                if parent != 0 && !open.contains(&parent) {
                    parents_resolve = false;
                }
                open.insert(id);
                names.insert(name);
            }
            Record::SpanEnd { id, .. } => {
                open.remove(&id);
            }
            _ => {}
        }
    }
    for expected in [
        "episode",
        "round",
        "pricing",
        "local_training",
        "aggregation",
        "ppo_update",
    ] {
        assert!(names.contains(expected), "missing span '{expected}'");
    }
    assert!(
        parents_resolve,
        "every span parent must be an open ancestor"
    );
}

#[test]
fn telemetry_session_writes_valid_jsonl_and_prometheus_dump() {
    let _gate = GATE.lock().unwrap();
    let dir = std::env::temp_dir().join("chiron_telemetry_it");
    std::fs::create_dir_all(&dir).expect("tmp");
    let path = dir.join("run.jsonl");

    let session = TelemetrySession::to_jsonl(&path).expect("session opens");
    train_digest();
    session.finish().expect("session finishes");

    let text = std::fs::read_to_string(&path).expect("jsonl written");
    assert!(!text.is_empty(), "an enabled run must stream records");
    let mut span_names: BTreeSet<String> = BTreeSet::new();
    let mut saw_metric = false;
    for line in text.lines() {
        let rec: Record = serde_json::from_str(line).expect("every line is a valid Record");
        match rec {
            Record::SpanEnd { name, wall_ns, .. } => {
                assert!(wall_ns > 0, "span '{name}' must have a wall time");
                span_names.insert(name);
            }
            Record::Metric { .. } => saw_metric = true,
            _ => {}
        }
    }
    for expected in ["pricing", "local_training", "aggregation", "ppo_update"] {
        assert!(span_names.contains(expected), "missing span '{expected}'");
    }
    assert!(saw_metric, "flush must append aggregate metrics");

    let prom = std::fs::read_to_string(dir.join("run.jsonl.prom")).expect("prom dump");
    assert!(prom.contains("# TYPE chiron_"), "prometheus dump rendered");
    std::fs::remove_dir_all(&dir).ok();
}
