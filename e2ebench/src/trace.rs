//! The traced run: a sink on the program's existing telemetry that keeps
//! span durations and the flushed counters, and a probe of the shapes the
//! kernel autotuner has profiled.

use chiron_telemetry::{Record, Sink, SinkId};
use chiron_tensor::{cached_params, DispatchTier, ShapeKey};
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::sync::{Arc, Mutex};

/// What one traced run observed.
#[derive(Debug, Default)]
pub struct Collected {
    /// Wall-clock durations in milliseconds, by span name.
    spans: HashMap<String, Vec<f64>>,
    /// Flushed counters, gauges and histogram statistics, by name.
    metrics: BTreeMap<String, f64>,
}

impl Collected {
    /// Durations (ms) of every closed span called `name`.
    pub fn span_ms(&self, name: &str) -> &[f64] {
        self.spans.get(name).map_or(&[], Vec::as_slice)
    }

    /// Summed duration (ms) of the spans called `name`.
    pub fn span_total_ms(&self, name: &str) -> f64 {
        self.span_ms(name).iter().sum()
    }

    /// A flushed metric, 0 when the program never touched it.
    pub fn metric(&self, name: &str) -> f64 {
        self.metrics.get(name).copied().unwrap_or(0.0)
    }
}

struct Collector(Mutex<Collected>);

impl Sink for Collector {
    fn record(&self, record: &Record) {
        let Ok(mut c) = self.0.lock() else { return };
        match record {
            Record::SpanEnd { name, wall_ns, .. } => c
                .spans
                .entry(name.clone())
                .or_default()
                .push(*wall_ns as f64 / 1e6),
            Record::Metric { name, value, .. } => {
                c.metrics.insert(name.clone(), *value);
            }
            Record::SpanStart { .. } | Record::Event { .. } => {}
        }
    }
}

/// Telemetry switched on with the collector installed.
pub struct Trace {
    sink: Arc<Collector>,
    id: SinkId,
}

impl Trace {
    /// Zeroes the aggregates, installs the collector and enables telemetry.
    pub fn start() -> Self {
        chiron_telemetry::reset_metrics();
        let sink = Arc::new(Collector(Mutex::new(Collected::default())));
        let id = chiron_telemetry::add_sink(sink.clone());
        chiron_telemetry::set_enabled(true);
        Self { sink, id }
    }

    /// Flushes the aggregates into the collector, disables telemetry and
    /// returns what was collected.
    pub fn finish(self) -> Collected {
        chiron_telemetry::flush();
        chiron_telemetry::set_enabled(false);
        chiron_telemetry::remove_sink(self.id);
        chiron_telemetry::reset_metrics();
        let mut guard = self.sink.0.lock().expect("trace collector poisoned");
        std::mem::take(&mut *guard)
    }
}

/// Dimensions a workload's GEMMs can have: `fixed` layer widths, and
/// `batch` dimensions that scale with the rows in flight.
#[derive(Debug, Clone, Default)]
pub struct GemmDims {
    /// Layer widths, kernel fans and channel counts.
    pub fixed: Vec<usize>,
    /// Row counts (batch sizes and batch × spatial products).
    pub batch: Vec<usize>,
}

/// The autotuner's pick for every probed shape it has profiled, rendered
/// as `MxKxN/layout_a.layout_b mc=.. kc=.. nc=.. tile=..`.
///
/// The autotuner exposes no listing of its cache, so this asks
/// [`cached_params`] about every shape with at most one batch dimension
/// and two fixed ones, in every layout pair. A shape outside that set is
/// not listed.
pub fn tuned_shapes(tier: DispatchTier, dims: &GemmDims) -> Vec<String> {
    let fixed: BTreeSet<usize> = dims.fixed.iter().copied().collect();
    let any: BTreeSet<usize> = fixed.iter().chain(&dims.batch).copied().collect();
    let mut picks = BTreeMap::new();
    for &x in &any {
        for &y in &fixed {
            for &z in &fixed {
                for (m, k, n) in [(x, y, z), (y, x, z), (y, z, x)] {
                    for layout_a in 0..3u8 {
                        for layout_b in 0..3u8 {
                            let key = ShapeKey {
                                m,
                                k,
                                n,
                                layout_a,
                                layout_b,
                            };
                            if let Some(p) = cached_params(tier, key) {
                                picks.insert(key, p);
                            }
                        }
                    }
                }
            }
        }
    }
    picks
        .iter()
        .map(|(k, p)| {
            format!(
                "{}x{}x{}/{}.{} mc={} kc={} nc={} tile={:?}",
                k.m, k.k, k.n, k.layout_a, k.layout_b, p.mc, p.kc, p.nc, p.tile
            )
        })
        .collect()
}
