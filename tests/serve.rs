//! Chaos-harness acceptance tests for the serve daemon: kill-and-resume
//! bitwise equivalence, overload shedding, panic isolation, deadline
//! eviction, and the HTTP surface end to end.
//!
//! Thread-count invariance: ci/check.sh runs this suite under
//! `CHIRON_THREADS=1` and `CHIRON_THREADS=4`; every bitwise assertion here
//! must hold at both settings.

use chiron::{Chiron, ChironConfig, EpisodeRun, Mechanism, RunCheckpoint};
use chiron_data::DatasetKind;
use chiron_fedsim::{EdgeLearningEnv, EnvConfig};
use chiron_serve::config::splitmix64;
use chiron_serve::http::{read_request, ParseError, MAX_BODY_BYTES, MAX_HEAD_BYTES};
use chiron_serve::supervisor::unique_state_dir;
use chiron_serve::{
    Daemon, Fault, FaultPlan, JobSpec, JobState, ServeConfig, ServeError, Supervisor,
};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

const WAIT: Duration = Duration::from_secs(180);

fn base_cfg(name: &str) -> ServeConfig {
    ServeConfig {
        workers: 1,
        max_inflight: 1,
        queue_cap: 8,
        retry_max: 3,
        backoff_base_ms: 10,
        backoff_cap_ms: 50,
        checkpoint_every: 2,
        state_dir: unique_state_dir(name),
        ..ServeConfig::default()
    }
}

fn train_spec() -> JobSpec {
    JobSpec::train_fast("tiny", 3, 20.0, 6, 7)
}

/// Acceptance criterion: a chaos run that kills the worker mid-job
/// resumes from the latest checkpoint and completes with
/// bitwise-identical per-episode rewards and final accuracy to an
/// uninterrupted run of the same spec.
#[test]
fn killed_job_resumes_bitwise_identical() {
    // Uninterrupted reference.
    let sup = Supervisor::start(base_cfg("serve-ref")).expect("start");
    let id = sup.submit(train_spec()).expect("submit");
    assert_eq!(sup.wait(id, WAIT), Some(JobState::Completed));
    let reference = sup.status(id).expect("view").result.expect("result");
    sup.shutdown(Duration::from_secs(10));

    // Chaos run: the worker is killed at the episode-4 boundary (right
    // after that checkpoint landed); the retry resumes from episode 4.
    let plan = FaultPlan::new(99).with(Fault::KillWorker {
        job: 1,
        at_episode: 4,
    });
    let sup = Supervisor::start_with_chaos(base_cfg("serve-kill"), plan).expect("start");
    let id = sup.submit(train_spec()).expect("submit");
    assert_eq!(sup.wait(id, WAIT), Some(JobState::Completed));
    let survived = sup.status(id).expect("view").result.expect("result");
    let stats = sup.stats();
    assert!(stats.retries >= 1, "the kill must have caused a retry");
    assert!(
        stats.resumed >= 1,
        "the retry must have resumed a checkpoint"
    );
    sup.shutdown(Duration::from_secs(10));

    assert_eq!(reference.rewards.len(), 6);
    assert_eq!(survived.rewards.len(), 6);
    for (i, (a, b)) in reference.rewards.iter().zip(&survived.rewards).enumerate() {
        assert_eq!(
            a.to_bits(),
            b.to_bits(),
            "episode {i}: chaos-run reward {b} != uninterrupted reward {a}"
        );
    }
    assert_eq!(
        reference.final_accuracy.to_bits(),
        survived.final_accuracy.to_bits(),
        "post-resume evaluation must match bitwise"
    );
    assert_eq!(reference.rounds, survived.rounds);
}

/// A healthy train job that checkpoints every episode never resumes: it
/// matches an in-process `Chiron::train` bitwise and leaves no checkpoint
/// generation behind.
#[test]
fn healthy_train_job_matches_in_process_and_cleans_up() {
    let cfg = ServeConfig {
        checkpoint_every: 1,
        ..base_cfg("serve-healthy")
    };
    let state_dir = cfg.state_dir.clone();
    let sup = Supervisor::start(cfg).expect("start");
    let spec = JobSpec::train_fast("tiny", 3, 20.0, 10, 7);
    let id = sup.submit(spec.clone()).expect("submit");
    assert_eq!(sup.wait(id, WAIT), Some(JobState::Completed));
    let served = sup.status(id).expect("view").result.expect("result");
    assert_eq!(sup.stats().resumed, 0, "a healthy job never resumes");
    sup.shutdown(Duration::from_secs(10));

    let mut config = EnvConfig::paper_small(DatasetKind::Tiny, spec.budget);
    config.fleet.nodes = spec.nodes;
    let mut env = EdgeLearningEnv::new(config, spec.seed());
    let mut mech = Chiron::new(&env, ChironConfig::fast(), spec.seed());
    let rewards = mech.train(&mut env, 10);
    let (summary, _) = mech.run_episode(&mut env);
    let bits = |r: &[f64]| r.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    assert_eq!(bits(&served.rewards), bits(&rewards));
    assert_eq!(
        served.final_accuracy.to_bits(),
        summary.final_accuracy.to_bits()
    );
    assert_eq!(served.rounds, summary.rounds);

    let left: Vec<_> = std::fs::read_dir(&state_dir)
        .expect("state dir")
        .map(|e| e.expect("entry").file_name())
        .collect();
    assert!(left.is_empty(), "checkpoint files left behind: {left:?}");
    std::fs::remove_dir_all(&state_dir).ok();
}

/// A worker killed mid-job costs exactly one resume: the retry reads the
/// checkpoint once, when it starts, and then trains on in memory.
#[test]
fn killed_job_resumes_exactly_once() {
    let plan = FaultPlan::new(99).with(Fault::KillWorker {
        job: 1,
        at_episode: 2,
    });
    let cfg = ServeConfig {
        checkpoint_every: 1,
        ..base_cfg("serve-kill-once")
    };
    let sup = Supervisor::start_with_chaos(cfg, plan).expect("start");
    let id = sup.submit(train_spec()).expect("submit");
    assert_eq!(sup.wait(id, WAIT), Some(JobState::Completed));
    let view = sup.status(id).expect("view");
    assert_eq!(view.attempts, 2, "one kill, one retry");
    assert_eq!(view.result.expect("result").rewards.len(), 6);
    assert_eq!(sup.stats().resumed, 1);
    sup.shutdown(Duration::from_secs(10));
}

/// A checkpoint-write I/O fault is transient: the attempt fails typed,
/// the retry replays the lost chunk from the previous generation, and the
/// result is still bitwise-identical.
#[test]
fn checkpoint_io_fault_retries_bitwise_identical() {
    let sup = Supervisor::start(base_cfg("serve-io-ref")).expect("start");
    let id = sup.submit(train_spec()).expect("submit");
    assert_eq!(sup.wait(id, WAIT), Some(JobState::Completed));
    let reference = sup.status(id).expect("view").result.expect("result");
    sup.shutdown(Duration::from_secs(10));

    let plan = FaultPlan::new(7).with(Fault::CheckpointIoError {
        job: 1,
        at_episode: 4,
    });
    let sup = Supervisor::start_with_chaos(base_cfg("serve-io"), plan).expect("start");
    let id = sup.submit(train_spec()).expect("submit");
    assert_eq!(sup.wait(id, WAIT), Some(JobState::Completed));
    let survived = sup.status(id).expect("view").result.expect("result");
    assert!(sup.stats().retries >= 1, "the I/O fault must cause a retry");
    sup.shutdown(Duration::from_secs(10));

    for (i, (a, b)) in reference.rewards.iter().zip(&survived.rewards).enumerate() {
        assert_eq!(
            a.to_bits(),
            b.to_bits(),
            "episode {i} diverged after I/O fault"
        );
    }
    assert_eq!(
        reference.final_accuracy.to_bits(),
        survived.final_accuracy.to_bits()
    );
}

/// Acceptance criterion: with the queue at its bound, further submissions
/// are shed with a typed `Overloaded` error, the queue depth stays
/// bounded, and every accepted job still completes.
#[test]
fn overload_sheds_typed_and_accepted_jobs_complete() {
    // A straggler pins the single worker so the burst below hits a full
    // queue deterministically.
    let plan = FaultPlan::new(3).with(Fault::Straggler {
        job: 1,
        delay_ms: 800,
    });
    let cfg = ServeConfig {
        queue_cap: 2,
        ..base_cfg("serve-overload")
    };
    let sup = Supervisor::start_with_chaos(cfg, plan).expect("start");
    let first = sup
        .submit(JobSpec::eval("tiny", 3, 20.0, 1))
        .expect("submit");
    // Give the worker a moment to pick up the straggler job.
    let mut spun = 0;
    while sup.stats().inflight == 0 && spun < 200 {
        std::thread::sleep(Duration::from_millis(5));
        spun += 1;
    }
    assert!(sup.stats().inflight > 0, "straggler job must be running");

    // Burst arrivals: the first `queue_cap` fit, the rest shed typed.
    let mut accepted = vec![first];
    let mut rejections = 0;
    for seed in 0..5 {
        match sup.submit(JobSpec::eval("tiny", 3, 20.0, seed)) {
            Ok(id) => accepted.push(id),
            Err(ServeError::Overloaded { queued, cap }) => {
                assert_eq!(cap, 2);
                assert!(queued <= cap, "queue depth exceeded its bound");
                rejections += 1;
            }
            Err(other) => panic!("expected Overloaded, got {other}"),
        }
    }
    assert_eq!(accepted.len(), 3, "exactly queue_cap + running fit");
    assert_eq!(rejections, 3);
    let stats = sup.stats();
    assert_eq!(stats.rejected, 3);
    assert!(stats.peak_queue_depth <= 2, "bounded queue invariant");

    for id in accepted {
        assert_eq!(
            sup.wait(id, WAIT),
            Some(JobState::Completed),
            "accepted job {id} must still complete"
        );
    }
    sup.shutdown(Duration::from_secs(10));
}

/// Acceptance criterion: a panicking job is isolated — with retries
/// exhausted it fails typed, the worker thread survives, and the
/// supervisor keeps serving new jobs.
#[test]
fn panicking_job_is_isolated_and_supervisor_survives() {
    let plan = FaultPlan::new(5)
        .with(Fault::KillWorker {
            job: 1,
            at_episode: 2,
        })
        .with(Fault::KillWorker {
            job: 1,
            at_episode: 2,
        });
    let cfg = ServeConfig {
        retry_max: 0, // first transient failure is final
        ..base_cfg("serve-panic")
    };
    let sup = Supervisor::start_with_chaos(cfg, plan).expect("start");
    let id = sup.submit(train_spec()).expect("submit");
    match sup.wait(id, WAIT) {
        Some(JobState::Failed { kind, error }) => {
            assert_eq!(kind, "panicked");
            assert!(error.contains("injected worker kill"), "error: {error}");
        }
        other => panic!("expected Failed(panicked), got {other:?}"),
    }
    let stats = sup.stats();
    assert_eq!(stats.failed, 1);
    assert_eq!(stats.retries, 0, "retry_max = 0 means no retries");

    // The worker that caught the panic still executes new jobs.
    let id = sup
        .submit(JobSpec::eval("tiny", 3, 20.0, 2))
        .expect("submit");
    assert_eq!(sup.wait(id, WAIT), Some(JobState::Completed));
    sup.shutdown(Duration::from_secs(10));
}

/// Deadlines are enforced at supervision boundaries: a straggler that
/// blows through its per-job deadline is evicted with a typed error and
/// counted in `serve.deadline_evictions`.
#[test]
fn straggler_is_evicted_at_deadline() {
    let plan = FaultPlan::new(11).with(Fault::Straggler {
        job: 1,
        delay_ms: 500,
    });
    let cfg = base_cfg("serve-deadline");
    let state_dir = cfg.state_dir.clone();
    let sup = Supervisor::start_with_chaos(cfg, plan).expect("start");
    let mut spec = train_spec();
    spec.deadline_ms = Some(120);
    let id = sup.submit(spec).expect("submit");
    match sup.wait(id, WAIT) {
        Some(JobState::Failed { kind, error }) => {
            assert_eq!(kind, "deadline", "error: {error}");
        }
        other => panic!("expected Failed(deadline), got {other:?}"),
    }
    assert!(
        RunCheckpoint::any_exists(state_dir.join(format!("job-{id}.json"))),
        "an evicted job leaves its checkpoint behind"
    );
    let stats = sup.stats();
    assert_eq!(stats.deadline_evictions, 1);
    assert_eq!(stats.failed, 1);
    sup.shutdown(Duration::from_secs(10));
}

/// Cancelling a running job takes effect at the next supervision boundary
/// and leaves the supervisor consistent.
#[test]
fn running_job_cancels_at_boundary() {
    let cfg = ServeConfig {
        checkpoint_every: 1,
        ..base_cfg("serve-cancel")
    };
    let sup = Supervisor::start(cfg).expect("start");
    let id = sup
        .submit(JobSpec::train_fast("tiny", 3, 20.0, 500, 7))
        .expect("submit");
    let mut spun = 0;
    while !matches!(
        sup.status(id).map(|v| v.state),
        Some(JobState::Running { .. })
    ) && spun < 400
    {
        std::thread::sleep(Duration::from_millis(5));
        spun += 1;
    }
    let state = sup.cancel(id).expect("cancel accepted");
    assert!(
        matches!(state, JobState::Running { .. } | JobState::Cancelled),
        "cancel of a live job: {state:?}"
    );
    assert_eq!(sup.wait(id, WAIT), Some(JobState::Cancelled));
    assert_eq!(sup.stats().cancelled, 1);
    sup.shutdown(Duration::from_secs(10));
}

// ---------------------------------------------------------------------------
// HTTP surface
// ---------------------------------------------------------------------------

fn http(addr: SocketAddr, raw: &str) -> (u16, String) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.write_all(raw.as_bytes()).expect("send");
    let mut response = String::new();
    stream.read_to_string(&mut response).expect("read");
    let status: u16 = response
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .expect("status code");
    let body = response
        .split_once("\r\n\r\n")
        .map(|(_, b)| b.to_owned())
        .unwrap_or_default();
    (status, body)
}

fn post(addr: SocketAddr, path: &str, body: &str) -> (u16, String) {
    http(
        addr,
        &format!(
            "POST {path} HTTP/1.1\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        ),
    )
}

/// Overload through the HTTP surface: the daemon answers 429 with a typed
/// error body, `serve_rejected_total` advances, and accepted jobs finish.
#[test]
fn http_overload_returns_429_and_drains_cleanly() {
    let plan = FaultPlan::new(21).with(Fault::Straggler {
        job: 1,
        delay_ms: 800,
    });
    let cfg = ServeConfig {
        queue_cap: 1,
        ..base_cfg("serve-http-429")
    };
    let daemon = Daemon::start_with_chaos(cfg, plan).expect("start");
    let addr = daemon.addr();
    let spec = "{\"kind\":\"Eval\",\"dataset\":\"tiny\",\"nodes\":3,\"budget\":20.0}";

    let (status, _) = post(addr, "/jobs", spec);
    assert_eq!(status, 202);
    let mut spun = 0;
    while daemon.supervisor().stats().inflight == 0 && spun < 200 {
        std::thread::sleep(Duration::from_millis(5));
        spun += 1;
    }
    let (status, _) = post(addr, "/jobs", spec);
    assert_eq!(status, 202, "one slot in the queue");
    let (status, body) = post(addr, "/jobs", spec);
    assert_eq!(status, 429, "queue full: {body}");
    assert!(body.contains("overloaded"), "body: {body}");

    let (status, body) = http(addr, "GET /metrics HTTP/1.1\r\n\r\n");
    assert_eq!(status, 200);
    assert!(body.contains("serve_rejected_total 1"), "body: {body}");
    assert!(body.contains("serve_admitted_total 2"), "body: {body}");

    for id in [1, 2] {
        let state = daemon.supervisor().wait(id, WAIT).expect("known");
        assert_eq!(state, JobState::Completed, "job {id}");
    }

    // While draining the daemon still answers, but /healthz flips to 503;
    // the HTTP /shutdown then stops the accept loop entirely.
    daemon.supervisor().drain();
    let (status, body) = http(addr, "GET /healthz HTTP/1.1\r\n\r\n");
    assert_eq!(status, 503, "draining daemon is not ready: {body}");
    let (status, _) = post(addr, "/shutdown", "");
    assert_eq!(status, 200);
    daemon.join(Duration::from_secs(15));
}

// ---------------------------------------------------------------------------
// Request parsing fuzz
// ---------------------------------------------------------------------------

/// Serves `data` in pieces of 1 to `max_piece` bytes, sized by a seeded
/// mixer: the way a client's small writes reach the socket.
struct Trickle<'a> {
    data: &'a [u8],
    state: u64,
    max_piece: usize,
}

impl Read for Trickle<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        self.state = splitmix64(self.state);
        let piece = 1 + (self.state % self.max_piece as u64) as usize;
        let n = piece.min(buf.len()).min(self.data.len());
        buf[..n].copy_from_slice(&self.data[..n]);
        self.data = &self.data[n..];
        Ok(n)
    }
}

#[derive(Debug, PartialEq)]
enum Parsed {
    Body(Vec<u8>),
    Io,
    Malformed,
    TooLarge,
}

fn parse(data: &[u8], seed: u64, max_piece: usize) -> Parsed {
    let mut reader = Trickle {
        data,
        state: seed,
        max_piece,
    };
    match read_request(&mut reader) {
        Ok(request) => Parsed::Body(request.body),
        Err(ParseError::Io(_)) => Parsed::Io,
        Err(ParseError::Malformed(_)) => Parsed::Malformed,
        Err(ParseError::TooLarge(_)) => Parsed::TooLarge,
    }
}

/// One segment, many 1–7 byte writes, and everything in between.
const PIECES: [usize; 5] = [usize::MAX, 1, 3, 7, 1500];

fn post_with(headers: &str, body: &[u8]) -> Vec<u8> {
    let mut raw = format!("POST /jobs HTTP/1.1\r\nHost: x\r\n{headers}\r\n").into_bytes();
    raw.extend_from_slice(body);
    raw
}

/// `read_request` returns a typed `ParseError` or exactly the declared
/// body — never a panic — for hostile `Content-Length` values, non-UTF-8
/// heads, heads at and one byte over `MAX_HEAD_BYTES`, truncated bodies,
/// and any split of the bytes into socket reads. The outcome never
/// depends on how the bytes were split.
#[test]
fn read_request_fuzz_fails_typed_or_returns_exact_body() {
    use Parsed::{Body, Io, Malformed, TooLarge};
    let body = b"{\"kind\":\"Eval\"}".to_vec();
    let len = body.len();
    // Pad a head to exactly `size` bytes, terminator included.
    let head_of = |size: usize| {
        let bare = format!("POST /jobs HTTP/1.1\r\nContent-Length: {len}\r\nX-Pad: \r\n\r\n");
        let pad = "a".repeat(size - bare.len());
        format!("POST /jobs HTTP/1.1\r\nContent-Length: {len}\r\nX-Pad: {pad}\r\n\r\n")
    };
    let mut at_limit = head_of(MAX_HEAD_BYTES).into_bytes();
    assert_eq!(at_limit.len(), MAX_HEAD_BYTES);
    at_limit.extend_from_slice(&body);
    let mut over_limit = head_of(MAX_HEAD_BYTES + 1).into_bytes();
    over_limit.extend_from_slice(&body);
    let mut non_utf8 = post_with(&format!("Content-Length: {len}\r\n"), &body);
    non_utf8[6] = 0xff;
    let mut trailing = post_with(&format!("Content-Length: {len}\r\n"), &body);
    trailing.extend_from_slice(b"GET /next HTTP/1.1\r\n\r\n");
    let cl = |v: &str| post_with(&format!("Content-Length: {v}\r\n"), &body);

    let cases: Vec<(&str, Vec<u8>, Parsed)> = vec![
        ("exact body", cl(&len.to_string()), Body(body.clone())),
        ("bytes past the body", trailing, Body(body.clone())),
        (
            "no body",
            b"GET /healthz HTTP/1.1\r\n\r\n".to_vec(),
            Body(Vec::new()),
        ),
        ("empty body", cl("0"), Body(Vec::new())),
        (
            "duplicate content-length",
            post_with(
                &format!("Content-Length: {len}\r\ncontent-length: {len}\r\n"),
                &body,
            ),
            Malformed,
        ),
        ("negative", cl("-1"), Malformed),
        ("non-numeric", cl("twelve"), Malformed),
        ("trailing junk", cl("16x"), Malformed),
        ("empty value", cl(""), Malformed),
        (
            "over the body bound",
            cl(&(MAX_BODY_BYTES + 1).to_string()),
            TooLarge,
        ),
        ("overflowing", cl("99999999999999999999999999"), TooLarge),
        ("non-UTF-8 head", non_utf8, Malformed),
        ("head at MAX_HEAD_BYTES", at_limit, Body(body.clone())),
        ("head one byte over", over_limit, TooLarge),
        ("truncated body", cl("64"), Io),
        (
            "truncated head",
            b"GET /healthz HTTP/1.1\r\nHost".to_vec(),
            Malformed,
        ),
        ("no head at all", Vec::new(), Malformed),
    ];
    for (name, raw, expected) in &cases {
        for (i, max_piece) in PIECES.into_iter().enumerate() {
            let got = parse(raw, i as u64, max_piece);
            assert_eq!(
                &got, expected,
                "{name}, pieces of at most {max_piece} bytes"
            );
        }
    }

    // Seeded mutants of a valid request: flip, insert and delete bytes,
    // biased towards the bytes that steer the parser.
    let valid = cl(&len.to_string());
    let alphabet = b"\r\n:0123456789- \xffContent-Length";
    for seed in 0..2_000u64 {
        let mut state = splitmix64(seed);
        let mut next = || {
            state = splitmix64(state);
            state as usize
        };
        let mut raw = valid.clone();
        for _ in 0..1 + next() % 4 {
            let at = next() % (raw.len() + 1);
            let byte = alphabet[next() % alphabet.len()];
            match next() % 3 {
                0 if at < raw.len() => raw[at] = byte,
                1 => raw.insert(at, byte),
                _ if at < raw.len() => drop(raw.remove(at)),
                _ => raw.push(byte),
            }
        }
        let outcome = parse(&raw, seed, usize::MAX);
        if let Body(got) = &outcome {
            let head_end = raw
                .windows(4)
                .position(|w| w == b"\r\n\r\n")
                .expect("a parsed request has a head")
                + 4;
            assert_eq!(
                got[..],
                raw[head_end..head_end + got.len()],
                "mutant {seed}: body is not the bytes after the head"
            );
        }
        for max_piece in [1, 5] {
            assert_eq!(
                parse(&raw, seed ^ 1, max_piece),
                outcome,
                "mutant {seed}: outcome depends on the read sizes"
            );
        }
    }
}
