//! `serve_jobs`: a closed loop of two HTTP clients against an in-process
//! `chiron_serve::Daemon`. Each client submits a job (`POST /jobs`), polls
//! `GET /jobs/<id>` every [`POLL_INTERVAL`] until the job is terminal, then
//! reads `GET /healthz` before its next job. Nine jobs in ten are `eval`
//! jobs; the tenth is a fast-profile `train` job that checkpoints every
//! episode.

use crate::trace::GemmDims;
use crate::workload::{ms_since, Cover, Limits, Run};
use chiron::{Chiron, ChironConfig, EpisodeRun, Mechanism};
use chiron_data::DatasetKind;
use chiron_fedsim::{EdgeLearningEnv, EnvConfig};
use chiron_serve::config::splitmix64;
use chiron_serve::{Daemon, JobKind, JobResult, JobSpec, JobState, JobView, ServeConfig};
use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

const CLIENTS: usize = 2;
const WORKERS: usize = 2;
/// Every `TRAIN_EVERY`-th job of a client is a train job; the mix is
/// exact so that throughput does not depend on how the seed falls.
const TRAIN_EVERY: u64 = 10;
const TRAIN_EPISODES: usize = 10;
/// Distinct job seeds per run seed.
const SEED_POOL: u64 = 64;
/// Pause between two polls of a job that is not terminal yet.
const POLL_INTERVAL: Duration = Duration::from_micros(500);
const DATASET: &str = "mnist";
const NODES: usize = 5;
const BUDGET: f64 = 100.0;
/// Jobs per client in the smoke test.
const SMOKE_JOBS: u64 = 12;
/// Set-ups (daemon starts) per run; `setup_s` is their median.
const SETUPS: usize = 25;
/// A job not terminal after this long counts as failed.
const JOB_TIMEOUT: Duration = Duration::from_secs(30);
const SOCKET_TIMEOUT: Duration = Duration::from_secs(10);
/// Serve state lives under the working directory, one fresh directory per
/// daemon, removed when the daemon stops.
const STATE_ROOT: &str = ".bench_run";

/// The job client `client` submits `j`-th.
fn job_spec(seed: u64, client: usize, j: u64) -> JobSpec {
    let h = splitmix64(seed ^ ((client as u64) << 48) ^ j);
    let job_seed = seed.wrapping_mul(SEED_POOL) + h % SEED_POOL;
    // The clients' train jobs are staggered by half a period.
    if (j + client as u64 * TRAIN_EVERY / 2) % TRAIN_EVERY == TRAIN_EVERY - 1 {
        JobSpec::train_fast(DATASET, NODES, BUDGET, TRAIN_EPISODES, job_seed)
    } else {
        JobSpec::eval(DATASET, NODES, BUDGET, job_seed)
    }
}

/// The result the daemon must return for `spec`: the same experiment run
/// in process, as the supervisor sets it up.
fn reference(spec: &JobSpec) -> JobResult {
    assert_eq!(
        spec.dataset, DATASET,
        "reference covers the benchmark's jobs"
    );
    let mut config = EnvConfig::paper_small(DatasetKind::MnistLike, spec.budget);
    config.fleet.nodes = spec.nodes;
    let mut env = EdgeLearningEnv::new(config, spec.seed());
    let chiron = match spec.profile.as_deref() {
        Some("fast") => ChironConfig::fast(),
        _ => ChironConfig::paper(),
    };
    let mut mech = Chiron::new(&env, chiron, spec.seed());
    let rewards = match spec.kind {
        JobKind::Train => mech.train(&mut env, spec.episodes.unwrap_or(0)),
        JobKind::Eval => Vec::new(),
    };
    let (summary, _) = mech.run_episode(&mut env);
    JobResult {
        rewards,
        final_accuracy: summary.final_accuracy,
        rounds: summary.rounds,
        spent: summary.spent,
    }
}

/// One HTTP/1.1 exchange on a fresh connection; returns status and body.
fn request(
    addr: SocketAddr,
    method: &str,
    path: &str,
    body: &str,
) -> Result<(u16, String), String> {
    let io = |e: std::io::Error| format!("{method} {path}: {e}");
    let mut stream = TcpStream::connect(addr).map_err(io)?;
    stream.set_read_timeout(Some(SOCKET_TIMEOUT)).map_err(io)?;
    stream.set_write_timeout(Some(SOCKET_TIMEOUT)).map_err(io)?;
    let head = format!(
        "{method} {path} HTTP/1.1\r\nHost: bench\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );
    stream.write_all(head.as_bytes()).map_err(io)?;
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw).map_err(io)?;
    let text = String::from_utf8_lossy(&raw);
    let status = text
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| format!("{method} {path}: no status line"))?;
    let body = text.split_once("\r\n\r\n").map_or("", |(_, b)| b);
    Ok((status, body.to_owned()))
}

/// What one client saw.
#[derive(Debug, Default)]
struct Client {
    job_ms: Vec<f64>,
    kinds: Vec<&'static str>,
    submit_ms: Vec<f64>,
    status_ms: Vec<f64>,
    healthz_ms: Vec<f64>,
    queue_wait_ms: Vec<f64>,
    pause_ms: Vec<f64>,
    attempts: Vec<f64>,
    rejected: Vec<f64>,
    completed: Vec<(JobSpec, JobResult)>,
    failures: Vec<String>,
    attempted: u64,
}

impl Client {
    /// `request`, timed into `into`.
    fn timed(
        into: &mut Vec<f64>,
        addr: SocketAddr,
        method: &str,
        path: &str,
        body: &str,
    ) -> Result<(u16, String), String> {
        let t = Instant::now();
        let out = request(addr, method, path, body);
        into.push(ms_since(t));
        out
    }

    /// Submits `spec`, polls it to a terminal state and reads `/healthz`.
    fn job(&mut self, addr: SocketAddr, spec: JobSpec) -> Result<(), String> {
        let body = serde_json::to_string(&spec).map_err(|e| e.to_string())?;
        let start = Instant::now();
        let (status, reply) = Self::timed(&mut self.submit_ms, addr, "POST", "/jobs", &body)?;
        self.rejected
            .push(f64::from(u8::from(matches!(status, 429 | 503))));
        if status != 202 {
            return Err(format!("submit answered {status}: {reply}"));
        }
        let id: u64 = reply
            .trim()
            .strip_prefix("{\"id\":")
            .and_then(|r| r.strip_suffix('}'))
            .and_then(|r| r.parse().ok())
            .ok_or_else(|| format!("submit reply without an id: {reply}"))?;
        let path = format!("/jobs/{id}");
        let submitted = Instant::now();
        let mut queue_wait = None;
        let mut paused = 0.0;
        let view = loop {
            if submitted.elapsed() > JOB_TIMEOUT {
                return Err(format!("job {id} not terminal after {JOB_TIMEOUT:?}"));
            }
            let (status, reply) = Self::timed(&mut self.status_ms, addr, "GET", &path, "")?;
            if status != 200 {
                return Err(format!("poll of job {id} answered {status}: {reply}"));
            }
            let view: JobView = serde_json::from_str(&reply).map_err(|e| e.to_string())?;
            if queue_wait.is_none() && view.state != JobState::Queued {
                queue_wait = Some(ms_since(submitted));
            }
            if view.state.is_terminal() {
                break view;
            }
            let t = Instant::now();
            std::thread::sleep(POLL_INTERVAL);
            paused += ms_since(t);
        };
        self.job_ms.push(ms_since(start));
        self.kinds.push(match spec.kind {
            JobKind::Train => "train",
            JobKind::Eval => "eval",
        });
        self.queue_wait_ms.push(queue_wait.unwrap_or(0.0));
        self.pause_ms.push(paused);
        self.attempts.push(view.attempts as f64);
        let (status, reply) = Self::timed(&mut self.healthz_ms, addr, "GET", "/healthz", "")?;
        if status != 200 {
            return Err(format!("healthz answered {status}: {reply}"));
        }
        match (view.state, view.result) {
            (JobState::Completed, Some(result)) => {
                self.completed.push((spec, result));
                Ok(())
            }
            (state, _) => Err(format!("job {id} ended {state:?}")),
        }
    }
}

fn start_daemon(index: usize) -> (Daemon, PathBuf) {
    let state_dir = Path::new(STATE_ROOT).join(format!("serve-{}-{index}", std::process::id()));
    let config = ServeConfig {
        addr: "127.0.0.1:0".into(),
        workers: WORKERS,
        max_inflight: WORKERS,
        checkpoint_every: 1,
        state_dir: state_dir.clone(),
        ..ServeConfig::default()
    };
    let daemon = Daemon::start(config).expect("daemon starts on an ephemeral port");
    (daemon, state_dir)
}

fn stop_daemon(daemon: Daemon, state_dir: &Path) {
    daemon.join(Duration::from_secs(10));
    let _ = std::fs::remove_dir_all(state_dir);
    let _ = std::fs::remove_dir(STATE_ROOT);
}

/// Runs the workload for `limits`.
pub fn run(limits: &Limits) -> Run {
    let mut run = Run {
        op: "job",
        dims: GemmDims {
            fixed: vec![1, 5, 32, 62, 64],
            batch: (1..=512).collect(),
        },
        // A client pausing between polls waits on the daemon's workers.
        coverage: vec![
            Cover::Timing("serve.submit_ms"),
            Cover::Timing("serve.status_ms"),
            Cover::Timing("serve.healthz_ms"),
            Cover::Timing("serve.poll_pause_ms"),
        ],
        lanes: CLIENTS,
        ..Run::default()
    };

    let mut daemon: Option<(Daemon, PathBuf)> = None;
    for index in 0..SETUPS {
        if let Some((old, dir)) = daemon.take() {
            stop_daemon(old, &dir);
        }
        let t = Instant::now();
        let (d, dir) = start_daemon(index);
        let ready = request(d.addr(), "GET", "/healthz", "");
        run.setup_s.push(t.elapsed().as_secs_f64());
        assert!(
            matches!(ready, Ok((200, _))),
            "fresh daemon is healthy: {ready:?}"
        );
        daemon = Some((d, dir));
    }
    let (daemon, state_dir) = daemon.expect("at least one set-up");
    let addr = daemon.addr();

    let start = Instant::now();
    let deadline = limits.deadline(start);
    let clients: Vec<Client> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|c| {
                s.spawn(move || {
                    let mut client = Client::default();
                    for j in 0.. {
                        let more = if limits.smoke {
                            j < SMOKE_JOBS
                        } else {
                            j == 0 || Instant::now() < deadline
                        };
                        if !more {
                            break;
                        }
                        client.attempted += 1;
                        if let Err(e) = client.job(addr, job_spec(limits.seed, c, j)) {
                            client.failures.push(e);
                        }
                    }
                    client
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect()
    });
    run.loop_s = start.elapsed().as_secs_f64();
    stop_daemon(daemon, &state_dir);

    let mut expected: HashMap<String, String> = HashMap::new();
    for client in clients {
        run.attempted += client.attempted;
        for f in client.failures {
            run.fail(f);
        }
        for (spec, result) in &client.completed {
            let key = serde_json::to_string(spec).expect("spec serializes");
            let want = expected.entry(key).or_insert_with(|| {
                serde_json::to_string(&reference(spec)).expect("result serializes")
            });
            let got = serde_json::to_string(result).expect("result serializes");
            if &got != want {
                run.fail(format!(
                    "job {spec:?}: daemon returned {got}, in-process run gives {want}"
                ));
            }
        }
        run.op_ms.extend(client.job_ms);
        run.op_kind.extend(client.kinds);
        for (name, values) in [
            ("serve.submit_ms", client.submit_ms),
            ("serve.status_ms", client.status_ms),
            ("serve.healthz_ms", client.healthz_ms),
            ("serve.queue_wait_poll_ms", client.queue_wait_ms),
            ("serve.poll_pause_ms", client.pause_ms),
            ("serve.attempts_per_job", client.attempts),
            ("serve.rejected_share", client.rejected),
        ] {
            run.timings.entry(name).or_default().extend(values);
        }
    }
    run
}
