//! Per-layer metrics of a traced run. A metric a workload does not
//! exercise reads 0; "per op" means per attempted op of the traced half
//! (a round or a job).

use crate::stats;
use crate::trace::Collected;
use crate::workload::{Cover, Run};

/// Per-layer metrics `(name, unit)`, reported by `--trace 1`.
pub const PER_LAYER: [(&str, &str); 38] = [
    ("tensor.kernel.calls", "count/op"),
    ("tensor.kernel.batched_instances", "count/op"),
    ("tensor.kernel.gflop", "GFLOP/op"),
    ("tensor.kernel.gflops_effective", "GFLOP/s"),
    ("tensor.kernel.pack_hit_ratio", "ratio"),
    ("tensor.scratch.miss_ratio", "ratio"),
    ("tensor.scope.tasks", "count/op"),
    ("tensor.scope.inline_share", "ratio"),
    ("nn.optimizer.steps", "count/op"),
    ("nn.batch.forward_passes", "count/op"),
    ("nn.batch.rows", "count/op"),
    ("fedsim.oracle.build_s", "s"),
    ("fedsim.oracle.round_ms", "ms"),
    ("fedsim.local_training_ms", "ms"),
    ("fedsim.aggregation_ms", "ms"),
    ("fedsim.oracle.eval_cache_hit_ratio", "ratio"),
    ("fedsim.env.step_us", "us"),
    ("drl.ppo_update_ms", "ms"),
    ("drl.ppo_update_share", "ratio"),
    ("drl.ppo.rollback_share", "ratio"),
    ("chiron.pricing_us", "us"),
    ("serve.submit_ms", "ms"),
    ("serve.submit_tail_ms", "ms"),
    ("serve.status_ms", "ms"),
    ("serve.status_tail_ms", "ms"),
    ("serve.healthz_ms", "ms"),
    ("serve.healthz_tail_ms", "ms"),
    ("serve.request_p50_ms", "ms"),
    ("serve.request_tail_ms", "ms"),
    ("serve.queue_wait_poll_ms", "ms"),
    ("serve.peak_queue_depth", "count"),
    ("serve.checkpoint_ms", "ms"),
    ("serve.attempts_per_job", "count"),
    ("serve.rejected_share", "ratio"),
    ("serve.retries", "count"),
    ("trace.coverage", "ratio"),
    ("trace.overhead_share", "ratio"),
    ("trace.ops", "count"),
];

fn p50(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        stats::median(xs)
    }
}

fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Every per-layer metric, in [`PER_LAYER`] order, from the traced half
/// of a run (`traced`, `c`) and its untraced half (`untraced`).
pub fn per_layer(
    untraced: &Run,
    traced: &Run,
    c: &Collected,
) -> Vec<(&'static str, &'static str, f64)> {
    let timing = |name: &str| traced.timings.get(name).map_or(&[][..], Vec::as_slice);
    let ops = traced.attempted as f64;
    let per_op = |name: &str| ratio(c.metric(name), ops);
    let loop_ms = traced.loop_s * 1e3;
    let gemm_span_s = (c.span_total_ms("aggregation")
        + c.span_total_ms("pricing")
        + c.span_total_ms("ppo_update"))
        / 1e3;
    let evaluations =
        (timing("fedsim.oracle.round_ms").len() + timing("fedsim.oracle.reset_ms").len()) as f64;
    let requests: Vec<f64> = ["serve.submit_ms", "serve.status_ms", "serve.healthz_ms"]
        .iter()
        .flat_map(|n| timing(n).iter().copied())
        .collect();
    let covered: f64 = traced
        .coverage
        .iter()
        .map(|cover| match *cover {
            Cover::Timing(name) => timing(name).iter().sum::<f64>(),
            Cover::Span(name) => c.span_total_ms(name),
        })
        .sum();
    let untraced_p50 = p50(&untraced.op_ms);

    let values = [
        per_op("tensor.kernel.calls"),
        per_op("tensor.kernel.batched.instances"),
        per_op("tensor.kernel.flops") / 1e9,
        ratio(c.metric("tensor.kernel.flops") / 1e9, gemm_span_s),
        ratio(
            c.metric("tensor.kernel.pack.hits"),
            c.metric("tensor.kernel.pack.hits") + c.metric("tensor.kernel.pack.misses"),
        ),
        ratio(
            c.metric("tensor.scratch.misses"),
            c.metric("tensor.scratch.takes"),
        ),
        per_op("tensor.scope.tasks"),
        ratio(
            c.metric("tensor.scope.inline_regions"),
            c.metric("tensor.scope.regions"),
        ),
        per_op("nn.optimizer.steps"),
        per_op("nn.batch.forward_passes"),
        per_op("nn.batch.rows.sum"),
        p50(timing("fedsim.oracle.build_s")),
        p50(timing("fedsim.oracle.round_ms")),
        p50(c.span_ms("local_training")),
        p50(c.span_ms("aggregation")),
        ratio(c.metric("fedsim.oracle.eval_cache_hits"), evaluations),
        p50(timing("fedsim.env.step_us")),
        p50(c.span_ms("ppo_update")),
        ratio(c.span_total_ms("ppo_update"), loop_ms),
        ratio(c.metric("drl.ppo.rollbacks"), c.metric("drl.ppo.updates")),
        p50(c.span_ms("pricing")) * 1e3,
        p50(timing("serve.submit_ms")),
        stats::tail_or_max(timing("serve.submit_ms")),
        p50(timing("serve.status_ms")),
        stats::tail_or_max(timing("serve.status_ms")),
        p50(timing("serve.healthz_ms")),
        stats::tail_or_max(timing("serve.healthz_ms")),
        p50(&requests),
        stats::tail_or_max(&requests),
        p50(timing("serve.queue_wait_poll_ms")),
        c.metric("serve.queue_depth.max"),
        p50(c.span_ms("checkpoint_save")),
        mean(timing("serve.attempts_per_job")),
        mean(timing("serve.rejected_share")),
        c.metric("serve.retries"),
        ratio(covered, loop_ms * traced.lanes.max(1) as f64),
        ratio(p50(&traced.op_ms) - untraced_p50, untraced_p50),
        ops,
    ];
    PER_LAYER
        .iter()
        .zip(values)
        .map(|(&(name, unit), v)| (name, unit, v))
        .collect()
}
