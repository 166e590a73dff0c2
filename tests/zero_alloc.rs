//! Steady-state allocation audit: once every buffer shape has been seen,
//! a training step must perform **zero heap allocations through the
//! scratch arena** — every `take` is served from the thread-local pools.
//!
//! The assertion mechanism is [`chiron_tensor::scratch::thread_misses`],
//! which counts real heap allocations taken through the arena on the
//! calling thread. With the pool pinned to one thread everything runs
//! inline on the test thread, so the counter observes the whole step.
//! (Per-thread counting keeps the tests immune to other test threads'
//! arena traffic under the parallel test harness.)

use chiron_drl::{PpoAgent, PpoConfig, RolloutBuffer};
use chiron_fedsim::oracle::{AccuracyOracle, RoundContext, TrainingOracle};
use chiron_nn::{models, Linear, Sequential, SoftmaxCrossEntropy, Tanh};
use chiron_tensor::{pool, scratch, Init, Tensor, TensorRng};

/// One forward/backward/SGD step on a classifier network.
fn cnn_step(net: &mut Sequential, x: &Tensor, labels: &[usize]) {
    let logits = net.forward(x, true);
    let (_, grad) = SoftmaxCrossEntropy.forward(&logits, labels);
    net.zero_grad();
    net.backward_train(&grad);
    net.visit_params_mut(&mut |p, g| p.axpy(-0.01, g));
}

#[test]
fn cnn_train_step_is_allocation_free_after_warmup() {
    pool::set_threads(1);
    let mut rng = TensorRng::seed_from(5);
    let mut net = models::mnist_cnn(&mut rng);
    let x = rng.init(&[4, 1, 28, 28], Init::Normal(1.0));
    let labels = [7usize, 0, 2, 9];
    for _ in 0..2 {
        cnn_step(&mut net, &x, &labels);
    }
    let before = scratch::thread_misses();
    for _ in 0..3 {
        cnn_step(&mut net, &x, &labels);
    }
    assert_eq!(
        scratch::thread_misses(),
        before,
        "steady-state CNN train steps must not allocate through the arena"
    );
}

/// One full PPO round: a 30-transition rollout plus the update.
fn ppo_round(agent: &mut PpoAgent, buffer: &mut RolloutBuffer, probe: &mut TensorRng) {
    for t in 0..30 {
        let state: Vec<f64> = (0..6).map(|_| probe.uniform(-1.0, 1.0)).collect();
        let (action, log_prob) = agent.act(&state);
        let value = agent.value(&state);
        let reward = state.iter().sum::<f64>() - action.iter().sum::<f64>().abs();
        buffer.push(&state, &action, log_prob, reward, value, t == 29);
    }
    let _ = agent.update(buffer); // update() clears the buffer
}

#[test]
fn ppo_update_is_allocation_free_after_warmup() {
    pool::set_threads(1);
    let mut agent = PpoAgent::new(6, 2, &[64, 64], PpoConfig::default(), 77);
    let mut buffer = RolloutBuffer::new();
    let mut probe = TensorRng::seed_from(123);
    for _ in 0..2 {
        ppo_round(&mut agent, &mut buffer, &mut probe);
    }
    let before = scratch::thread_misses();
    for _ in 0..3 {
        ppo_round(&mut agent, &mut buffer, &mut probe);
    }
    assert_eq!(
        scratch::thread_misses(),
        before,
        "steady-state PPO rollout+update rounds must not allocate through the arena"
    );
}

#[test]
fn federated_round_is_allocation_free_after_warmup() {
    pool::set_threads(1);
    let spec = chiron_data::DatasetSpec::tiny();
    let mut rng = TensorRng::seed_from(9);
    let mut net = Sequential::new();
    net.push(models::Flatten::new());
    net.push(Linear::new(spec.pixels(), 16, &mut rng));
    net.push(Tanh::new());
    net.push(Linear::new(16, spec.classes, &mut rng));
    let mut oracle = TrainingOracle::new(&spec, net, 3, 240, 1, 16, 0.05, 7);
    let participants = [0usize, 1, 2];
    let weights = [1.0 / 3.0; 3];
    let round = |oracle: &mut TrainingOracle, k: usize| {
        oracle.execute_round(&RoundContext {
            round: k,
            participants: &participants,
            weights: &weights,
        });
    };
    // Warmup grows the replica pool and seeds every arena bucket, the
    // packed-panel buckets included.
    for k in 1..=2 {
        round(&mut oracle, k);
    }
    let before = scratch::thread_misses();
    for k in 3..=5 {
        round(&mut oracle, k);
    }
    assert_eq!(
        scratch::thread_misses(),
        before,
        "steady-state federated rounds must not allocate through the arena"
    );
}
