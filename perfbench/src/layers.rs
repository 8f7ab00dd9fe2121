//! The per-layer metrics of the traced run, each computed from the
//! recorded spans or handed in by the workload. Every workload reports
//! every metric; a layer a workload never reaches reads 0 with n=0.

use std::collections::BTreeMap;

use crate::replay::{
    ANALYZE, BITPARALLEL, CACHE_LOOKUP, GENERATE, LINT, MERGE, OPTIMIZE, RENDER, REPORT, SHARD,
    SPEC_PARSE, SWEEP, TIMED,
};
use crate::stats::{median, sorted};
use crate::trace::JobBreakdown;
use crate::Outcome;

/// Where a metric's value comes from.
#[derive(Debug, Clone, Copy)]
enum Source {
    /// Per-job self time of a span name, in units of `ns / div`.
    SelfTime(&'static str, f64),
    /// Per-job span count.
    Count(&'static str),
    /// Per-job self time as a share of the job's wall time.
    Share(&'static str),
    /// Work units per second of self time, over all jobs.
    Rate(&'static str),
    /// Summed work over span count (hits per lookup).
    Ratio(&'static str),
    /// Per-job summed work units.
    Work(&'static str),
    /// Per-job root time no layer span covers.
    Other,
    /// Measured by the workload itself.
    Given,
}

const MS: f64 = 1e6;
const US: f64 = 1e3;

const METRICS: [(&str, &str, Source); 27] = [
    (
        "workload.spec_parse_us",
        "us",
        Source::SelfTime(SPEC_PARSE, US),
    ),
    (
        "workload.cache_lookup_us",
        "us",
        Source::SelfTime(CACHE_LOOKUP, US),
    ),
    (
        "workload.cache_hit_ratio",
        "ratio",
        Source::Ratio(CACHE_LOOKUP),
    ),
    ("workload.render_ms", "ms", Source::SelfTime(RENDER, MS)),
    ("workload.render_bytes", "bytes", Source::Work(RENDER)),
    ("serve.transport_ms", "ms", Source::Given),
    ("serve.queue_wait_ms", "ms", Source::Given),
    ("serve.rejected", "count", Source::Given),
    ("mult.generate_ms", "ms", Source::SelfTime(GENERATE, MS)),
    ("mult.netlists", "count", Source::Count(GENERATE)),
    ("sta.lint_ms", "ms", Source::SelfTime(LINT, MS)),
    ("sta.lint_share", "ratio", Source::Share(LINT)),
    ("sta.analyze_ms", "ms", Source::SelfTime(ANALYZE, MS)),
    ("sim.timed_ms", "ms", Source::SelfTime(TIMED, MS)),
    ("sim.timed_vec_per_s", "1/s", Source::Rate(TIMED)),
    (
        "sim.bitparallel_ms",
        "ms",
        Source::SelfTime(BITPARALLEL, MS),
    ),
    (
        "sim.bitparallel_vec_per_s",
        "1/s",
        Source::Rate(BITPARALLEL),
    ),
    ("core.optimize_us", "us", Source::SelfTime(OPTIMIZE, US)),
    ("explore.sweep_ms", "ms", Source::SelfTime(SWEEP, MS)),
    ("explore.pool_util", "ratio", Source::Given),
    ("dist.shard_us", "us", Source::SelfTime(SHARD, US)),
    ("dist.merge_ms", "ms", Source::SelfTime(MERGE, MS)),
    ("dist.overhead_ms", "ms", Source::Given),
    ("dist.retries", "count", Source::Given),
    ("report.run_ms", "ms", Source::SelfTime(REPORT, MS)),
    ("other_ms", "ms", Source::Other),
    ("trace.overhead_ms", "ms", Source::Given),
];

/// Names and units of the per-layer metrics, in report order.
pub const PER_LAYER: [(&str, &str); 27] = {
    let mut out = [("", ""); 27];
    let mut i = 0;
    while i < METRICS.len() {
        out[i] = (METRICS[i].0, METRICS[i].1);
        i += 1;
    }
    out
};

/// Values a workload measures itself: metric name → (value, samples).
pub type Given = BTreeMap<&'static str, (f64, usize)>;

/// Adds every per-layer metric to `out`. Per-job values are medians
/// over the traced jobs that reach the layer.
pub fn report(out: &mut Outcome, jobs: &BTreeMap<u32, JobBreakdown>, given: &Given) {
    for (name, unit, source) in METRICS {
        let per_job = |f: &dyn Fn(&JobBreakdown) -> Option<f64>| -> (f64, usize) {
            let v = sorted(jobs.values().filter_map(f));
            if v.is_empty() {
                (0.0, 0)
            } else {
                (median(&v), v.len())
            }
        };
        let totals = |span: &str| {
            jobs.values()
                .filter_map(|j| j.layers.get(span))
                .fold((0u64, 0u64, 0u64), |(t, c, w), l| {
                    (t + l.self_ns, c + l.count, w + l.work)
                })
        };
        let (value, n) = match source {
            Source::SelfTime(span, div) => {
                per_job(&|j| j.layers.get(span).map(|l| l.self_ns as f64 / div))
            }
            Source::Count(span) => per_job(&|j| j.layers.get(span).map(|l| l.count as f64)),
            Source::Work(span) => per_job(&|j| j.layers.get(span).map(|l| l.work as f64)),
            Source::Share(span) => per_job(&|j| {
                let l = j.layers.get(span)?;
                (j.wall_ns > 0).then(|| l.self_ns as f64 / j.wall_ns as f64)
            }),
            Source::Rate(span) => {
                let (t, c, w) = totals(span);
                (
                    if t > 0 {
                        w as f64 / (t as f64 / 1e9)
                    } else {
                        0.0
                    },
                    c as usize,
                )
            }
            Source::Ratio(span) => {
                let (_, c, w) = totals(span);
                (if c > 0 { w as f64 / c as f64 } else { 0.0 }, c as usize)
            }
            Source::Other => per_job(&|j| (j.wall_ns > 0).then(|| j.other_ns as f64 / MS)),
            Source::Given => (0.0, 0),
        };
        // A workload may measure a span-derived metric more directly
        // (e.g. the service's own cache counters).
        let (value, n) = given.get(name).copied().unwrap_or((value, n));
        out.metric(name, unit, value, n);
    }
}

#[cfg(test)]
mod tests {
    use optpower_workload::Json;

    use super::PER_LAYER;

    /// The prediction table names exactly the metrics the traced run
    /// reports, each once.
    #[test]
    fn every_layer_metric_has_one_prediction_row() {
        let doc = Json::parse(include_str!("../predictions.json")).expect("predictions parse");
        let rows = doc.get("rows").and_then(Json::as_arr).expect("rows");
        let named: Vec<&str> = rows
            .iter()
            .map(|r| r.get("layer_metric").and_then(Json::as_str).expect("name"))
            .collect();
        let expected: Vec<&str> = PER_LAYER.iter().map(|(n, _)| *n).collect();
        assert_eq!(named, expected);
    }
}
