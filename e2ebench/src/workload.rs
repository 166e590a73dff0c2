//! What every workload shares: the run budget, the record of one run, and
//! the evaluation-episode runner.

use crate::trace::GemmDims;
use chiron::Mechanism;
use chiron_fedsim::metrics::{EpisodeSummary, RoundRecord};
use chiron_fedsim::{EdgeLearningEnv, StepStatus};
use std::collections::{BTreeMap, HashMap};
use std::time::{Duration, Instant};

/// How long and how large one run is.
#[derive(Debug, Clone, Copy)]
pub struct Limits {
    /// Workload seed; the same seed gives the same inputs.
    pub seed: u64,
    /// Measured time; the loop stops at the first unit boundary past it.
    pub seconds: f64,
    /// Minimal sizes, for the smoke test.
    pub smoke: bool,
}

impl Limits {
    /// The instant the measured loop should stop, counted from `start`.
    pub fn deadline(&self, start: Instant) -> Instant {
        start + Duration::from_secs_f64(self.seconds)
    }
}

/// What one run of a workload measured.
#[derive(Debug, Default)]
pub struct Run {
    /// The unit of work timed as an op: `round` or `job`.
    pub op: &'static str,
    /// Each set-up's wall time (s); a run sets up several times.
    pub setup_s: Vec<f64>,
    /// Each op's wall time (ms).
    pub op_ms: Vec<f64>,
    /// The job kind of each op, where ops come in kinds (serve jobs).
    pub op_kind: Vec<&'static str>,
    /// Wall time of the measured loop (s).
    pub loop_s: f64,
    /// Ops attempted.
    pub attempted: u64,
    /// Ops failed plus output checks failed.
    pub failed: u64,
    /// A description of each failure.
    pub failures: Vec<String>,
    /// Timings the benchmark takes around calls into a layer, by name.
    pub timings: BTreeMap<&'static str, Vec<f64>>,
    /// The shapes the workload's GEMMs can take.
    pub dims: GemmDims,
    /// Disjoint timed calls whose summed time, over `lanes` × `loop_s`,
    /// is the share of wall time the trace accounts for.
    pub coverage: Vec<Cover>,
    /// Concurrent lanes of work (clients); 0 counts as 1.
    pub lanes: usize,
}

/// A timed call counted towards trace coverage, in milliseconds.
#[derive(Debug, Clone, Copy)]
pub enum Cover {
    /// A timing the benchmark takes itself (a `Run::timings` entry).
    Timing(&'static str),
    /// A span the program opens.
    Span(&'static str),
}

impl Run {
    /// Records a failed op or output check.
    pub fn fail(&mut self, what: String) {
        self.failed += 1;
        self.failures.push(what);
    }

    /// Appends one harness timing.
    pub fn time(&mut self, name: &'static str, value: f64) {
        self.timings.entry(name).or_default().push(value);
    }
}

/// Milliseconds elapsed since `t`.
pub fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// The bits of an episode summary that must repeat exactly.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SummaryBits {
    utility: u64,
    final_accuracy: u64,
    rounds: usize,
    spent: u64,
}

impl From<&EpisodeSummary> for SummaryBits {
    fn from(s: &EpisodeSummary) -> Self {
        Self {
            utility: s.server_utility.to_bits(),
            final_accuracy: s.final_accuracy.to_bits(),
            rounds: s.rounds,
            spent: s.spent.to_bits(),
        }
    }
}

/// Checks that every repetition of an experiment reproduces the first
/// repetition's summary.
#[derive(Debug, Default)]
pub struct Repeats(HashMap<u64, SummaryBits>);

impl Repeats {
    /// Compares `summary` with the first one recorded for `experiment`;
    /// records a failure in `run` on a mismatch.
    pub fn check(&mut self, run: &mut Run, experiment: u64, summary: &EpisodeSummary) {
        let bits = SummaryBits::from(summary);
        let first = *self.0.entry(experiment).or_insert(bits);
        if first != bits {
            run.fail(format!(
                "experiment {experiment}: summary {bits:?} != first repetition's {first:?}"
            ));
        }
    }
}

/// One deterministic evaluation episode driven through the public
/// `decide_prices` → `step` → `observe` protocol, exactly as
/// `chiron::EpisodeRun::run_episode` drives it, with each `env.step`
/// timed into `run` as `fedsim.env.step_us`.
pub fn evaluation_episode(
    mech: &mut dyn Mechanism,
    env: &mut EdgeLearningEnv,
    run: &mut Run,
) -> EpisodeSummary {
    env.reset();
    mech.begin_episode(env);
    let initial_accuracy = env.accuracy();
    let mut records = Vec::new();
    let mut spent = 0.0;
    loop {
        let prices = mech.decide_prices(env, false);
        let t = Instant::now();
        let outcome = env.step(&prices);
        run.time("fedsim.env.step_us", ms_since(t) * 1e3);
        if outcome.status == StepStatus::BudgetExhausted {
            break;
        }
        spent += outcome.payment_total;
        records.push(RoundRecord {
            round: outcome.round,
            accuracy: outcome.accuracy,
            round_time: outcome.round_time,
            time_efficiency: outcome.time_efficiency,
            payment: outcome.payment_total,
            spent,
            participants: outcome.num_participants(),
        });
        mech.observe(&outcome, &prices);
        if outcome.done() {
            break;
        }
    }
    EpisodeSummary::from_rounds(&records, initial_accuracy, mech.lambda())
}
