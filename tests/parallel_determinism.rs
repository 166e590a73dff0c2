//! Cross-thread-count determinism: every parallel hot path must produce
//! bitwise-identical results whether the pool runs 1 thread, 4 or 8.
//!
//! The parallel backend guarantees this by construction — fixed row-block
//! partitions and index-ordered reductions, never thread-count-dependent
//! splits or atomic accumulation — and these tests are the workspace-level
//! proof. All tests drive the thread count through
//! [`chiron_tensor::pool::set_threads`] (not the `CHIRON_THREADS` env var,
//! which is read once per process), each holding the binary's pool-size
//! lock for its whole sweep.

mod common;

use chiron_bench::run_budget_panel;
use chiron_data::{DatasetKind, DatasetSpec};
use chiron_drl::{PpoAgent, PpoConfig, RolloutBuffer};
use chiron_fedsim::faults::FaultProcessConfig;
use chiron_fedsim::oracle::{AccuracyOracle, RoundContext, TrainingOracle};
use chiron_fedsim::{ChannelVariation, EdgeLearningEnv, EnvConfig};
use chiron_nn::{models, Linear, Relu, Sequential, SoftmaxCrossEntropy};
use chiron_tensor::{im2col, pool, Conv2dGeometry, Init, TensorRng};

/// Runs `f` at 1 thread and then at 4 and at 8, holding the pool size for
/// the whole sweep; returns the serial result and each `(threads, result)`.
fn at_thread_counts<T>(f: impl Fn() -> T) -> (T, Vec<(usize, T)>) {
    let _sweep = common::pool_sweep();
    pool::set_threads(1);
    let serial = f();
    let parallel = [4, 8]
        .into_iter()
        .map(|t| {
            pool::set_threads(t);
            (t, f())
        })
        .collect();
    (serial, parallel)
}

#[test]
fn matmul_outputs_are_bitwise_identical() {
    let mut rng = TensorRng::seed_from(11);
    let a = rng.init(&[128, 96], Init::Normal(1.0));
    let b = rng.init(&[96, 72], Init::Normal(1.0));
    let (s, runs) = at_thread_counts(|| {
        (
            a.matmul(&b),
            a.transpose().matmul_tn(&b),
            a.matmul_nt(&b.transpose()),
        )
    });
    for (t, p) in runs {
        assert_eq!(s.0.as_slice(), p.0.as_slice(), "matmul at {t} threads");
        assert_eq!(s.1.as_slice(), p.1.as_slice(), "matmul_tn at {t} threads");
        assert_eq!(s.2.as_slice(), p.2.as_slice(), "matmul_nt at {t} threads");
    }
}

#[test]
fn conv_layout_transforms_are_bitwise_identical() {
    let mut rng = TensorRng::seed_from(12);
    let x = rng.init(&[10, 3, 28, 28], Init::Normal(1.0));
    let geo = Conv2dGeometry::new(28, 28, 5, 5, 1, 0);
    let (s, runs) = at_thread_counts(|| {
        let cols = im2col(&x, 3, &geo);
        let back = chiron_tensor::col2im(&cols, 10, 3, &geo);
        (cols, back)
    });
    for (t, p) in runs {
        assert_eq!(s.0.as_slice(), p.0.as_slice(), "im2col at {t} threads");
        assert_eq!(s.1.as_slice(), p.1.as_slice(), "col2im at {t} threads");
    }
}

/// One scripted PPO rollout + update, returning the reported losses and a
/// deterministic evaluation action.
fn ppo_round_trip() -> (f64, f64, Vec<f64>) {
    let mut agent = PpoAgent::new(6, 2, &[64, 64], PpoConfig::default(), 77);
    let mut buffer = RolloutBuffer::new();
    let mut probe = TensorRng::seed_from(123);
    for t in 0..30 {
        let state: Vec<f64> = (0..6).map(|_| probe.uniform(-1.0, 1.0)).collect();
        let (action, log_prob) = agent.act(&state);
        let value = agent.value(&state);
        let reward = state.iter().sum::<f64>() - action.iter().sum::<f64>().abs();
        buffer.push(&state, &action, log_prob, reward, value, t == 29);
    }
    let (actor_loss, critic_loss) = agent.update(&mut buffer);
    let eval_state = vec![0.25, -0.5, 0.75, 0.0, -0.25, 0.5];
    (
        actor_loss,
        critic_loss,
        agent.act_deterministic(&eval_state),
    )
}

#[test]
fn ppo_update_losses_and_actions_are_identical() {
    let (s, runs) = at_thread_counts(ppo_round_trip);
    for (t, p) in runs {
        assert_eq!(s.0, p.0, "actor loss at {t} threads");
        assert_eq!(s.1, p.1, "critic loss at {t} threads");
        assert_eq!(s.2, p.2, "deterministic action after update at {t} threads");
    }
}

/// Two SGD steps on the paper's MNIST CNN, returning the losses and the
/// full parameter vector. The conv layers drive the blocked matmul kernel
/// (im2col products are well past the flop threshold), so this pins down
/// the whole forward/backward/update chain, not just isolated ops.
fn cnn_train_steps() -> (Vec<f32>, Vec<f32>) {
    let mut rng = TensorRng::seed_from(21);
    let mut net = models::mnist_cnn(&mut rng);
    let x = rng.init(&[4, 1, 28, 28], Init::Normal(1.0));
    let labels = [3usize, 1, 4, 1];
    let loss_fn = SoftmaxCrossEntropy;
    let mut losses = Vec::new();
    for _ in 0..2 {
        let logits = net.forward(&x, true);
        let (loss, grad) = loss_fn.forward(&logits, &labels);
        losses.push(loss);
        net.zero_grad();
        net.backward(&grad);
        net.visit_params_mut(&mut |p, g| p.axpy(-0.01, g));
    }
    (losses, net.parameters_flat())
}

#[test]
fn cnn_train_steps_are_bitwise_identical() {
    let (s, runs) = at_thread_counts(cnn_train_steps);
    for (t, p) in runs {
        assert_eq!(s.0, p.0, "losses at {t} threads");
        assert_eq!(s.1, p.1, "parameters after two steps at {t} threads");
    }
}

/// Three federated rounds of real SGD on an 8-node fleet, returning the
/// global weights and accuracy as raw bits. A named region fans the
/// per-node local trainings out across the pool, and the kernels inside
/// each node run inline, so this exercises nested regions end to end.
fn federated_rounds() -> (Vec<u32>, u64) {
    let spec = DatasetSpec::tiny();
    let mut rng = TensorRng::seed_from(5);
    let mut net = Sequential::new();
    net.push(models::Flatten::new());
    net.push(Linear::new(spec.pixels(), 24, &mut rng));
    net.push(Relu::new());
    net.push(Linear::new(24, spec.classes, &mut rng));
    let mut oracle = TrainingOracle::new(&spec, net, 8, 640, 2, 16, 0.05, 9);
    let participants: Vec<usize> = (0..8).collect();
    let weights = vec![1.0 / 8.0; 8];
    for round in 1..=3 {
        oracle.execute_round(&RoundContext {
            round,
            participants: &participants,
            weights: &weights,
        });
    }
    let bits = oracle
        .global_parameters()
        .iter()
        .map(|p| p.to_bits())
        .collect();
    (bits, oracle.accuracy().to_bits())
}

#[test]
fn federated_training_is_bitwise_identical_across_thread_counts() {
    let _sweep = common::pool_sweep();
    pool::set_threads(1);
    let (base_params, base_acc) = federated_rounds();
    for threads in [4usize, 8] {
        pool::set_threads(threads);
        let (params, acc) = federated_rounds();
        assert_eq!(base_params, params, "global weights at {threads} threads");
        assert_eq!(base_acc, acc, "accuracy at {threads} threads");
    }
}

/// A 10-round sampled-participation episode on a 10k-node fleet —
/// log-normal fading and the full stochastic fault process on — returning
/// every round's accuracy/payment bits, selection, and participant count.
/// Selection, fading, and fault draws are all stateless per-node counter
/// streams in the sampled path, so nothing here may depend on the pool.
fn sampled_fleet_episode() -> Vec<(u64, u64, Vec<usize>, usize)> {
    let mut config = EnvConfig::builder()
        .nodes(10_000)
        .budget(1e12)
        .oracle_noise(0.0)
        .sample_per_round(32)
        .build()
        .expect("valid sampled config");
    config.channel = ChannelVariation::LogNormal { sigma: 0.3 };
    let mut env = EdgeLearningEnv::try_new(config, 19).expect("sampled env");
    env.set_fault_process(Some(FaultProcessConfig::standard(3)));
    let sigma = env.sigma();
    (1..=10)
        .map(|round| {
            let prices: Vec<f64> = env
                .selection_for(round)
                .iter()
                .map(|&i| env.node(i).price_cap(sigma) * 0.5)
                .collect();
            let o = env.step(&prices);
            (
                o.accuracy.to_bits(),
                o.payment_total.to_bits(),
                o.selection.clone(),
                o.num_participants(),
            )
        })
        .collect()
}

#[test]
fn sampled_fleet_episode_is_bitwise_identical_across_thread_counts() {
    let _sweep = common::pool_sweep();
    pool::set_threads(1);
    let base = sampled_fleet_episode();
    for threads in [4usize, 8] {
        pool::set_threads(threads);
        let run = sampled_fleet_episode();
        assert_eq!(base, run, "sampled episode at {threads} threads");
    }
}

/// A figure-sweep grid (`run_budget_panel`) must produce bitwise-identical
/// cells whether named regions fan the mechanism trainings and budget
/// cells out across the pool or, with one thread, everything runs on the
/// caller thread.
#[test]
fn budget_panel_cells_match_serial_sweep() {
    let budgets = [60.0, 90.0];
    let _sweep = common::pool_sweep();
    let sweep = || run_budget_panel(DatasetKind::MnistLike, 5, &budgets, 2, 33);
    pool::set_threads(1);
    let serial = sweep();
    pool::set_threads(4);
    let parallel = sweep();
    assert_eq!(serial.len(), parallel.len(), "row count");
    for (s, p) in serial.iter().zip(&parallel) {
        assert_eq!(s.mechanism, p.mechanism, "row order");
        assert_eq!(s.budget.to_bits(), p.budget.to_bits(), "budget");
        assert_eq!(s.summary, p.summary, "{} @ η={}", s.mechanism, s.budget);
        assert_eq!(
            s.summary.final_accuracy.to_bits(),
            p.summary.final_accuracy.to_bits(),
            "{} @ η={} accuracy bits",
            s.mechanism,
            s.budget
        );
        assert_eq!(
            s.summary.server_utility.to_bits(),
            p.summary.server_utility.to_bits(),
            "{} @ η={} utility bits",
            s.mechanism,
            s.budget
        );
    }
}
