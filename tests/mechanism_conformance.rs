//! Trait-conformance suite for the mechanism zoo: every entry in
//! [`chiron_baselines::registry`] must honour the [`Mechanism`] /
//! [`EpisodeRun`] contract — budget clamp, deterministic evaluation at any
//! thread count, and the exactly-once `observe` protocol. A new zoo member
//! is covered the moment it is registered; no test edits required.

mod common;

use chiron_repro::chiron_tensor::pool;
use chiron_repro::prelude::*;

fn env(budget: f64, seed: u64) -> EdgeLearningEnv {
    let mut config = EnvConfig::paper_small(DatasetKind::MnistLike, budget);
    config.oracle_noise = 0.0;
    EdgeLearningEnv::new(config, seed)
}

fn build_all(e0: &EdgeLearningEnv, seed: u64) -> Vec<Box<dyn Mechanism>> {
    let params = MechanismParams::new(seed);
    registry()
        .iter()
        .map(|spec| {
            (spec.build)(e0, &params)
                .unwrap_or_else(|err| panic!("{} failed to build: {err}", spec.id))
        })
        .collect()
}

/// Counts protocol calls while delegating to a real zoo entry, so the
/// [`EpisodeRun`] blanket driver runs the genuine mechanism underneath.
struct ProtocolProbe {
    inner: Box<dyn Mechanism>,
    begins: usize,
    observes: usize,
}

impl ProtocolProbe {
    fn over(inner: Box<dyn Mechanism>) -> Self {
        Self {
            inner,
            begins: 0,
            observes: 0,
        }
    }
}

impl Mechanism for ProtocolProbe {
    fn name(&self) -> String {
        self.inner.name()
    }

    fn params(&self) -> MechanismParams {
        self.inner.params()
    }

    fn begin_episode(&mut self, env: &EdgeLearningEnv) {
        self.begins += 1;
        self.inner.begin_episode(env);
    }

    fn decide_prices(&mut self, env: &EdgeLearningEnv, explore: bool) -> Vec<f64> {
        self.inner.decide_prices(env, explore)
    }

    fn observe(&mut self, outcome: &chiron_repro::chiron_fedsim::RoundOutcome, prices: &[f64]) {
        self.observes += 1;
        self.inner.observe(outcome, prices);
    }

    fn train(&mut self, env: &mut EdgeLearningEnv, episodes: usize) -> Vec<f64> {
        self.inner.train(env, episodes)
    }
}

#[test]
fn budget_is_never_overdrawn_beyond_the_exact_eta_clamp() {
    let budget = 60.0;
    let seed = 7;
    for mech in &mut build_all(&env(budget, seed), seed) {
        let mut e = env(budget, seed);
        mech.train(&mut e, 3);
        let mut e = env(budget, seed);
        let (summary, records) = mech.run_episode(&mut e);
        assert!(
            summary.spent <= budget + 1e-6,
            "{} overdrew: {} > η = {budget}",
            mech.name(),
            summary.spent
        );
        // The clamp is exact per round too: no record's cumulative spend
        // exceeds η, because the overdrawing round is discarded.
        for r in &records {
            assert!(
                r.spent <= budget + 1e-6,
                "{}: round {} cumulative spend {} > η",
                mech.name(),
                r.round,
                r.spent
            );
        }
    }
}

#[test]
fn evaluation_is_deterministic_across_repeated_calls_and_twins() {
    let budget = 50.0;
    let seed = 13;
    let e0 = env(budget, seed);
    for spec in registry() {
        let params = MechanismParams::new(seed);
        let run = || {
            let mut mech = (spec.build)(&e0, &params).expect("registered entries build");
            let mut e = env(budget, seed);
            mech.train(&mut e, 2);
            let mut e = env(budget, seed);
            let (s1, r1) = mech.run_episode(&mut e);
            let mut e = env(budget, seed);
            let (s2, r2) = mech.run_episode(&mut e);
            assert_eq!(s1.rounds, s2.rounds, "{}: repeated calls differ", spec.id);
            assert_eq!(
                s1.final_accuracy.to_bits(),
                s2.final_accuracy.to_bits(),
                "{}: repeated calls differ in accuracy bits",
                spec.id
            );
            assert_eq!(r1.len(), r2.len());
            (s1.rounds, s1.final_accuracy.to_bits(), s1.spent.to_bits())
        };
        // A freshly built twin must reproduce the same evaluation bits.
        assert_eq!(run(), run(), "{}: twin instance diverged", spec.id);
    }
}

#[test]
fn evaluation_bits_are_identical_across_thread_counts() {
    let budget = 45.0;
    let seed = 19;
    let e0 = env(budget, seed);
    let mut per_thread_bits = Vec::new();
    let _sweep = common::pool_sweep();
    for threads in [1usize, 4] {
        pool::set_threads(threads);
        let bits: Vec<(String, usize, u64, u64)> = registry()
            .iter()
            .map(|spec| {
                let mut mech = (spec.build)(&e0, &MechanismParams::new(seed)).expect("builds");
                let mut e = env(budget, seed);
                mech.train(&mut e, 2);
                let mut e = env(budget, seed);
                let (s, _) = mech.run_episode(&mut e);
                (
                    spec.id.to_string(),
                    s.rounds,
                    s.final_accuracy.to_bits(),
                    s.spent.to_bits(),
                )
            })
            .collect();
        per_thread_bits.push(bits);
    }
    assert_eq!(
        per_thread_bits[0], per_thread_bits[1],
        "mechanism evaluation must be bitwise-identical at 1 vs 4 pool threads"
    );
}

#[test]
fn observe_is_called_exactly_once_per_recorded_round() {
    let budget = 60.0;
    let seed = 23;
    for mech in build_all(&env(budget, seed), seed) {
        let mut probe = ProtocolProbe::over(mech);
        let mut e = env(budget, seed);
        let (summary, records) = probe.run_episode(&mut e);
        assert_eq!(probe.begins, 1, "{}: begin_episode calls", probe.name());
        assert_eq!(
            probe.observes,
            records.len(),
            "{}: observe must fire exactly once per recorded round",
            probe.name()
        );
        assert_eq!(summary.rounds, records.len());
    }
}

#[test]
fn unknown_registry_id_yields_a_typed_error() {
    let e0 = env(40.0, 1);
    let err = match build_by_id("pay-with-exposure", &e0, &MechanismParams::new(1)) {
        Ok(_) => panic!("unknown id must not build"),
        Err(err) => err,
    };
    match err {
        MechanismError::UnknownId { id, known } => {
            assert_eq!(id, "pay-with-exposure");
            assert!(known.contains(&"chiron"));
            assert!(known.contains(&"stackelberg"));
        }
        other => panic!("expected UnknownId, got {other:?}"),
    }
}

#[test]
fn lambda_param_drives_reported_utility_uniformly() {
    let budget = 40.0;
    let seed = 29;
    let e0 = env(budget, seed);
    let params = MechanismParams::new(seed).with_lambda(1750.0);
    for spec in registry() {
        let mut mech = (spec.build)(&e0, &params)
            .unwrap_or_else(|err| panic!("{} failed to build: {err}", spec.id));
        assert_eq!(
            mech.lambda(),
            1750.0,
            "{}: λ must flow through MechanismParams",
            spec.id
        );
        let mut e = env(budget, seed);
        let (summary, _) = mech.run_episode(&mut e);
        let expected = 1750.0 * summary.final_accuracy - summary.total_time;
        assert!(
            (summary.server_utility - expected).abs() < 1e-9,
            "{}: utility must be λ·accuracy − time",
            spec.id
        );
    }
}
