//! Resilience layer end-to-end: stochastic fault processes, PS-side
//! countermeasures, crash-safe recovery, and PPO NaN-rollback — exercised
//! through the public prelude, the way a downstream user would.

use chiron_repro::prelude::*;
use std::ops::ControlFlow;

fn env_with(budget: f64, seed: u64, resilience: ResilienceConfig) -> EdgeLearningEnv {
    let mut config = EnvConfig::paper_small(DatasetKind::MnistLike, budget);
    config.oracle_noise = 0.0;
    let mut env = EdgeLearningEnv::new(config, seed);
    env.set_resilience(resilience);
    env
}

fn mid_prices(env: &EdgeLearningEnv, fraction: f64) -> Vec<f64> {
    (0..env.num_nodes())
        .map(|i| env.node(i).price_cap(env.sigma()) * fraction)
        .collect()
}

/// 120 episodes under randomized fault processes and countermeasure
/// configurations: the simulator must never panic, never overspend η,
/// keep every outcome field finite, and refund quorum-missed rounds.
#[test]
fn fault_fuzz_never_breaks_invariants() {
    let budget = 50.0;
    let mut any_fault_fired = false;
    let mut any_quorum_missed = false;
    for trial in 0..120u64 {
        let resilience = ResilienceConfig {
            deadline_slack: if trial % 2 == 0 {
                Some(1.2 + (trial % 4) as f64 * 0.4)
            } else {
                None
            },
            // Every fourth trial demands all five nodes, so the standard
            // fault process is guaranteed to produce quorum misses.
            quorum: if trial % 4 == 3 {
                5
            } else {
                (trial % 3) as usize
            },
            max_price_retries: (trial % 3) as usize,
            retry_backoff: 1.5,
            clamp_final_payment: trial % 2 == 1,
        };
        let mut env = env_with(budget, trial, resilience);
        env.set_fault_process(Some(FaultProcessConfig::standard(
            trial.wrapping_mul(7) + 1,
        )));
        let fraction = 0.3 + (trial % 5) as f64 * 0.15;
        let prices = mid_prices(&env, fraction);
        let mut rounds = 0usize;
        while !env.is_done() && rounds < 200 {
            let before = env.remaining_budget();
            let out = env.step(&prices);
            rounds += 1;
            for v in [
                out.accuracy,
                out.prev_accuracy,
                out.round_time,
                out.idle_time,
                out.time_efficiency,
                out.payment_total,
                out.remaining_budget,
            ] {
                assert!(v.is_finite(), "trial {trial}: non-finite outcome field {v}");
            }
            assert!(
                out.payment_total <= before + 1e-6,
                "trial {trial}: round charged {} with only {} left",
                out.payment_total,
                before
            );
            assert!(
                out.remaining_budget >= -1e-9,
                "trial {trial}: negative budget"
            );
            let quorum_missed = out.events.iter().any(|e| e.kind() == "quorum_missed");
            if quorum_missed {
                any_quorum_missed = true;
                assert_eq!(
                    out.payment_total, 0.0,
                    "trial {trial}: quorum-missed round must refund all payments"
                );
                assert!(
                    (out.remaining_budget - before).abs() < 1e-9,
                    "trial {trial}: quorum-missed round must leave the budget untouched"
                );
                assert_eq!(
                    out.accuracy, out.prev_accuracy,
                    "trial {trial}: quorum-missed round must not progress accuracy"
                );
            }
            if out.events.iter().any(|e| e.kind() == "fault_fired") {
                any_fault_fired = true;
            }
            if out.status == StepStatus::FinalRoundClamped {
                let spent = env.total_budget() - env.remaining_budget();
                assert!(
                    (spent - budget).abs() < 1e-6,
                    "trial {trial}: clamped final round must land spend exactly on η, got {spent}"
                );
            }
        }
        let spent = env.total_budget() - env.remaining_budget();
        assert!(
            spent <= budget + 1e-6,
            "trial {trial}: overspent η: {spent} > {budget}"
        );
    }
    assert!(
        any_fault_fired,
        "the standard fault process never fired in 120 episodes"
    );
    assert!(any_quorum_missed, "quorum was never missed in 120 episodes");
}

/// The fault process is a pure function of (seed, round): identical seeds
/// replay identical availability/jitter traces through the full env.
#[test]
fn fault_process_replays_deterministically() {
    let run = |seed: u64| {
        let mut env = env_with(40.0, 3, ResilienceConfig::default());
        env.set_fault_process(Some(FaultProcessConfig::standard(seed)));
        let prices = mid_prices(&env, 0.5);
        let mut trace = Vec::new();
        while !env.is_done() {
            let out = env.step(&prices);
            trace.push((
                out.round,
                out.payment_total.to_bits(),
                out.accuracy.to_bits(),
                out.events.len(),
            ));
        }
        trace
    };
    assert_eq!(run(11), run(11));
    assert_ne!(run(11), run(12), "different fault seeds must diverge");
}

fn small_env(seed: u64) -> EdgeLearningEnv {
    let mut config = EnvConfig::paper_small(DatasetKind::MnistLike, 40.0);
    config.oracle_noise = 0.0;
    EdgeLearningEnv::new(config, seed)
}

/// Kill-and-resume equivalence through the public API: a run interrupted
/// after 3 of 6 episodes and resumed from its checkpoint must produce
/// bitwise-identical rewards and an identical evaluation episode to an
/// uninterrupted 6-episode run.
#[test]
fn kill_and_resume_matches_uninterrupted_run() {
    let dir = std::env::temp_dir().join("chiron_resilience_resume");
    std::fs::create_dir_all(&dir).expect("tmp");
    let ckpt = dir.join("run.ckpt.json");
    std::fs::remove_file(&ckpt).ok();

    // Uninterrupted reference run.
    let mut env = small_env(21);
    let mut reference = Chiron::new(&env, ChironConfig::fast(), 77);
    let full = reference.train(&mut env, 6);

    // Interrupted run: 3 episodes, "crash", then resume to 6.
    let opts = RecoveryOptions::new(&ckpt, 1);
    let mut env = small_env(21);
    let mut first = Chiron::new(&env, ChironConfig::fast(), 77);
    let mut log = EventLog::new();
    let head = first
        .train_recoverable(&mut env, 3, &opts, &mut log)
        .expect("first leg trains");
    assert_eq!(head.len(), 3);
    drop(first); // the "crash": all in-memory state is lost

    let mut env = small_env(21);
    // Different mechanism seed: every weight, optimizer moment, and policy
    // RNG must come from the checkpoint, not from this constructor.
    let mut resumed = Chiron::new(&env, ChironConfig::fast(), 4242);
    let mut log = EventLog::new();
    let tail = resumed
        .train_recoverable(&mut env, 6, &opts, &mut log)
        .expect("resume trains");
    assert_eq!(tail.len(), 6);
    assert!(
        log.count("resumed") >= 1,
        "resume must be recorded in the event log"
    );

    for (i, (a, b)) in full.iter().zip(&tail).enumerate() {
        assert_eq!(
            a.to_bits(),
            b.to_bits(),
            "episode {i}: resumed reward {b} != uninterrupted reward {a}"
        );
    }

    // Post-training behaviour must match too.
    let mut env_a = small_env(21);
    let mut env_b = small_env(21);
    let (sa, _) = reference.run_episode(&mut env_a);
    let (sb, _) = resumed.run_episode(&mut env_b);
    assert_eq!(sa.final_accuracy.to_bits(), sb.final_accuracy.to_bits());
    assert_eq!(sa.spent.to_bits(), sb.spent.to_bits());
    std::fs::remove_dir_all(&dir).ok();
}

/// The interrupt path of `train --checkpoint`: the boundary hook stops the
/// run at the episode-4 checkpoint, a fresh call on fresh objects resumes
/// it, and the rewards, the final snapshot and a later evaluation are
/// bitwise those of an uninterrupted `train`. Only the second call
/// resumes, and its last checkpoint lands off the 2-episode grid, after
/// the final episode.
#[test]
fn hook_stop_then_fresh_call_resumes_bitwise() {
    let dir = std::env::temp_dir().join("chiron_resilience_hook_stop");
    std::fs::create_dir_all(&dir).expect("tmp");
    let ckpt = dir.join("run.ckpt.json");
    RunCheckpoint::remove(&ckpt).expect("clean slate");
    let opts = RecoveryOptions::new(&ckpt, 2);

    let mut env = small_env(17);
    let mut reference = Chiron::new(&env, ChironConfig::fast(), 5);
    let full = reference.train(&mut env, 7);

    let mut env = small_env(17);
    let mut first = Chiron::new(&env, ChironConfig::fast(), 5);
    let mut log = EventLog::new();
    let mut seen = Vec::new();
    let stopped = first
        .train_recoverable_with(&mut env, 7, &opts, &mut log, |done| {
            seen.push(done);
            if done == 4 {
                ControlFlow::Break(done)
            } else {
                ControlFlow::Continue(())
            }
        })
        .expect("first leg trains");
    assert_eq!(stopped, ControlFlow::Break(4));
    assert_eq!(
        seen,
        [0, 2, 4],
        "hook runs at the start and after each save"
    );
    assert_eq!(log.count("resumed"), 0);
    drop(first);

    let mut env = small_env(17);
    let mut resumed = Chiron::new(&env, ChironConfig::fast(), 4242);
    let mut log = EventLog::new();
    let mut seen = Vec::new();
    let ControlFlow::Continue(tail) = resumed
        .train_recoverable_with(&mut env, 7, &opts, &mut log, |done| {
            seen.push(done);
            ControlFlow::<()>::Continue(())
        })
        .expect("second leg trains")
    else {
        panic!("the hook never stops the second leg");
    };
    assert_eq!(seen, [4, 6, 7], "the first call reports the resumed count");
    assert_eq!(log.count("resumed"), 1);
    let bits = |r: &[f64]| r.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    assert_eq!(bits(&full), bits(&tail));
    assert_eq!(resumed.snapshot(), reference.snapshot());
    // And the two keep agreeing on a fresh evaluation.
    let (sa, _) = reference.run_episode(&mut small_env(17));
    let (sb, _) = resumed.run_episode(&mut small_env(17));
    assert_eq!(sa.rounds, sb.rounds);
    assert_eq!(sa.final_accuracy.to_bits(), sb.final_accuracy.to_bits());
    std::fs::remove_dir_all(&dir).ok();
}

/// One call reads its checkpoint at most once, at the start: a healthy run
/// keeps training in memory even when every file it saved is clobbered
/// behind its back, records no resume, and still matches `train` bitwise.
#[test]
fn healthy_run_never_reads_its_checkpoints() {
    let dir = std::env::temp_dir().join("chiron_resilience_no_reread");
    std::fs::create_dir_all(&dir).expect("tmp");
    let ckpt = dir.join("run.ckpt.json");
    let prev = dir.join("run.ckpt.json.prev");
    RunCheckpoint::remove(&ckpt).expect("clean slate");
    let opts = RecoveryOptions::new(&ckpt, 1);

    let mut env = small_env(23);
    let mut reference = Chiron::new(&env, ChironConfig::fast(), 3);
    let full = reference.train(&mut env, 10);

    let mut env = small_env(23);
    let mut mech = Chiron::new(&env, ChironConfig::fast(), 3);
    let mut log = EventLog::new();
    let mut saves = 0;
    let rewards = mech
        .train_recoverable_with(&mut env, 10, &opts, &mut log, |done| {
            if done > 0 {
                saves += 1;
                for path in [&ckpt, &prev] {
                    if path.exists() {
                        std::fs::write(path, "clobbered").expect("clobber");
                    }
                }
            }
            ControlFlow::<()>::Continue(())
        })
        .expect("healthy run trains");
    assert_eq!(saves, 10, "checkpoint_every = 1 saves after every episode");
    assert_eq!(rewards, ControlFlow::Continue(full));
    assert_eq!(log.count("resumed"), 0);
    assert_eq!(mech.snapshot(), reference.snapshot());
    std::fs::remove_dir_all(&dir).ok();
}

/// Corrupted, truncated, or version-skewed checkpoints are rejected with a
/// typed error — never a panic, never a silently wrong resume.
#[test]
fn damaged_checkpoints_are_rejected_with_typed_errors() {
    let dir = std::env::temp_dir().join("chiron_resilience_damage");
    std::fs::create_dir_all(&dir).expect("tmp");
    let ckpt = dir.join("run.ckpt.json");
    let opts = RecoveryOptions::new(&ckpt, 1);

    // Write a valid checkpoint first.
    let mut env = small_env(5);
    let mut mech = Chiron::new(&env, ChironConfig::fast(), 5);
    let mut log = EventLog::new();
    mech.train_recoverable(&mut env, 1, &opts, &mut log)
        .expect("trains");
    let valid = std::fs::read_to_string(&ckpt).expect("checkpoint written");

    let resume = |contents: &str| -> Result<Vec<f64>, ResumeError> {
        std::fs::write(&ckpt, contents).expect("write");
        let mut env = small_env(5);
        let mut mech = Chiron::new(&env, ChironConfig::fast(), 5);
        let mut log = EventLog::new();
        mech.train_recoverable(&mut env, 2, &opts, &mut log)
    };

    assert!(matches!(
        resume("{not json"),
        Err(ResumeError::Malformed(_))
    ));
    let truncated = &valid[..valid.len() / 2];
    assert!(matches!(resume(truncated), Err(ResumeError::Malformed(_))));
    // A bit flip under an intact trailer trips the integrity check.
    let payload = strip_trailer(&valid);
    let mut flipped = valid.clone().into_bytes();
    flipped[payload.len() / 2] ^= 0x04;
    let flipped = String::from_utf8(flipped).expect("ascii survives the flip");
    assert!(matches!(
        resume(&flipped),
        Err(ResumeError::Corrupted { .. })
    ));
    // A version skew must be reported as such, so the mutated payload is
    // re-stamped with a fresh digest first.
    let skewed = stamp(&payload.replacen("\"version\":", "\"version\": 99, \"_v\":", 1));
    assert!(matches!(
        resume(&skewed),
        Err(ResumeError::VersionMismatch { .. })
    ));
    // The pristine checkpoint still resumes after all that abuse, and so
    // does the raw payload without any trailer (pre-trailer format).
    assert!(resume(&valid).is_ok());
    assert!(resume(payload).is_ok());
    std::fs::remove_dir_all(&dir).ok();
}

/// Mirrors the checkpoint integrity trailer (FNV-1a 64) so tests can
/// re-stamp deliberately mutated payloads.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

fn stamp(payload: &str) -> String {
    format!("{payload}\n#fnv1a={:016x}\n", fnv1a(payload.as_bytes()))
}

fn strip_trailer(contents: &str) -> &str {
    match contents.rfind("\n#fnv1a=") {
        Some(pos) => &contents[..pos],
        None => contents,
    }
}

fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Seeded fuzz over the on-disk checkpoint: bit flips and truncations at
/// pseudo-random offsets must always produce a typed [`ResumeError`] —
/// never a panic, never a silently wrong resume. (A panic anywhere fails
/// the test.)
#[test]
fn fuzzed_checkpoints_fail_typed_never_panic() {
    let dir = std::env::temp_dir().join("chiron_resilience_fuzz");
    std::fs::create_dir_all(&dir).expect("tmp");
    let ckpt = dir.join("run.ckpt.json");
    RunCheckpoint::remove(&ckpt).expect("clean slate");
    let opts = RecoveryOptions::new(&ckpt, 1);

    let mut env = small_env(11);
    let mut mech = Chiron::new(&env, ChironConfig::fast(), 11);
    let mut log = EventLog::new();
    mech.train_recoverable(&mut env, 1, &opts, &mut log)
        .expect("trains");
    let valid = std::fs::read(&ckpt).expect("checkpoint written");
    let payload_len = strip_trailer(std::str::from_utf8(&valid).expect("utf8")).len();

    for case in 0u64..64 {
        let r = splitmix64(0xF00D ^ case);
        let mut bytes = valid.clone();
        if case % 2 == 0 {
            // Bit flip anywhere in the file (payload, marker, or digest).
            let off = (r as usize) % bytes.len();
            bytes[off] ^= 1 << ((r >> 32) % 8);
        } else {
            // Truncation strictly inside the JSON payload.
            bytes.truncate((r as usize) % payload_len);
        }
        std::fs::write(&ckpt, &bytes).expect("write mutation");
        let err = RunCheckpoint::load(&ckpt).expect_err(&format!(
            "mutation case {case} must be rejected, not accepted"
        ));
        assert!(
            matches!(
                err,
                ResumeError::Malformed(_)
                    | ResumeError::Corrupted { .. }
                    | ResumeError::VersionMismatch { .. }
                    | ResumeError::Io(_)
            ),
            "mutation case {case}: unexpected error class {err:?}"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// When the newest checkpoint generation is corrupted, the run falls back
/// to the rotated `.prev` generation and still replays bitwise-identically
/// to an uninterrupted run.
#[test]
fn corrupted_primary_falls_back_to_previous_generation_bitwise() {
    let dir = std::env::temp_dir().join("chiron_resilience_fallback");
    std::fs::create_dir_all(&dir).expect("tmp");
    let ckpt = dir.join("run.ckpt.json");
    RunCheckpoint::remove(&ckpt).expect("clean slate");
    let opts = RecoveryOptions::new(&ckpt, 2);

    // Uninterrupted reference.
    let mut env = small_env(31);
    let mut reference = Chiron::new(&env, ChironConfig::fast(), 13);
    let full = reference.train(&mut env, 6);

    // Train 4 episodes with rotation: primary holds episode 4, `.prev`
    // holds episode 2. Then corrupt the primary.
    let mut env = small_env(31);
    let mut first = Chiron::new(&env, ChironConfig::fast(), 13);
    let mut log = EventLog::new();
    first
        .train_recoverable(&mut env, 4, &opts, &mut log)
        .expect("first leg trains");
    let mut bytes = std::fs::read(&ckpt).expect("primary exists");
    let mid = bytes.len() / 3;
    bytes[mid] ^= 0x10;
    std::fs::write(&ckpt, &bytes).expect("corrupt primary");
    drop(first);

    // Resume to 6: the primary is rejected, `.prev` (episode 2) restores,
    // and episodes 3..6 replay bitwise.
    let mut env = small_env(31);
    let mut resumed = Chiron::new(&env, ChironConfig::fast(), 9999);
    let mut log = EventLog::new();
    let tail = resumed
        .train_recoverable(&mut env, 6, &opts, &mut log)
        .expect("fallback resume trains");
    assert_eq!(tail.len(), 6);
    for (i, (a, b)) in full.iter().zip(&tail).enumerate() {
        assert_eq!(
            a.to_bits(),
            b.to_bits(),
            "episode {i}: fallback-resumed reward {b} != uninterrupted {a}"
        );
    }
    // With both generations gone, the typed error reports the primary.
    let mut bad = std::fs::read(&ckpt).expect("primary");
    bad[0] ^= 0xFF;
    std::fs::write(&ckpt, &bad).expect("corrupt primary again");
    let prev = dir.join("run.ckpt.json.prev");
    let mut bad_prev = std::fs::read(&prev).expect("prev exists");
    let len = bad_prev.len();
    bad_prev.truncate(len / 2);
    std::fs::write(&prev, &bad_prev).expect("corrupt prev");
    let (_, err) = match RunCheckpoint::load_with_fallback(&ckpt) {
        Err(e) => ((), e),
        Ok(_) => panic!("both generations corrupted must not load"),
    };
    assert!(
        matches!(
            err,
            ResumeError::Malformed(_) | ResumeError::Corrupted { .. }
        ),
        "unexpected error: {err:?}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// A resumed run must also refuse a checkpoint taken on a *different*
/// fleet (env seed changes the node economics): fingerprint mismatch.
#[test]
fn checkpoint_from_a_different_fleet_is_rejected() {
    let dir = std::env::temp_dir().join("chiron_resilience_fleet");
    std::fs::create_dir_all(&dir).expect("tmp");
    let ckpt = dir.join("run.ckpt.json");
    std::fs::remove_file(&ckpt).ok();
    let opts = RecoveryOptions::new(&ckpt, 1);

    let mut env = small_env(5);
    let mut mech = Chiron::new(&env, ChironConfig::fast(), 5);
    let mut log = EventLog::new();
    mech.train_recoverable(&mut env, 1, &opts, &mut log)
        .expect("trains");

    let mut other_env = small_env(999); // same shape, different node params
    let mut mech = Chiron::new(&other_env, ChironConfig::fast(), 5);
    let mut log = EventLog::new();
    let err = mech
        .train_recoverable(&mut other_env, 2, &opts, &mut log)
        .expect_err("wrong fleet must be rejected");
    assert!(matches!(err, ResumeError::FingerprintMismatch { .. }));
    std::fs::remove_dir_all(&dir).ok();
}

/// Acceptance criterion: a poisoned batch (NaN reward) must not corrupt the
/// PPO agent — the update is skipped and parameters stay bitwise intact.
#[test]
fn ppo_nan_batch_rolls_back_cleanly() {
    let mut agent = PpoAgent::new(4, 2, &[8], PpoConfig::default(), 3);
    let before = agent.snapshot("anchor");

    let mut buffer = RolloutBuffer::new();
    for i in 0..8 {
        let state = vec![0.1 * i as f64; 4];
        let (action, log_prob) = agent.act(&state);
        let reward = if i == 5 { f64::NAN } else { 1.0 };
        buffer.push(&state, &action, log_prob, reward, 0.0, i == 7);
    }
    let (actor_loss, critic_loss) = agent.update(&mut buffer);
    assert_eq!((actor_loss, critic_loss), (0.0, 0.0));
    assert_eq!(agent.skipped_updates(), 1, "poisoned batch must be skipped");
    assert_eq!(
        agent.snapshot("anchor"),
        before,
        "parameters must be bitwise intact after a poisoned batch"
    );

    // A healthy batch afterwards still trains.
    let mut buffer = RolloutBuffer::new();
    for i in 0..8 {
        let state = vec![0.1 * i as f64; 4];
        let (action, log_prob) = agent.act(&state);
        buffer.push(&state, &action, log_prob, 1.0, 0.0, i == 7);
    }
    agent.update(&mut buffer);
    assert_eq!(agent.updates(), 1);
    assert_ne!(agent.snapshot("anchor"), before, "healthy batch must train");
}
