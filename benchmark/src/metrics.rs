//! Metric names, units and the per-layer figures derived from a traced
//! pass. `BENCHMARK.json` at the repository root lists the same names.

use crate::stats::{median, quantile};
use crate::trace::{self_times, Recording};
use std::collections::BTreeMap;

/// End-to-end metrics, printed by untraced runs.
pub const END_TO_END: &[(&str, &str)] = &[
    ("iter_p10_s", "s"),
    ("cpu_p10_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("setup_s", "s"),
];

/// Name of the span around each whole traced iteration.
pub const ROOT_SPAN: &str = "iteration";

/// Per-layer metrics, printed by traced runs. A `.self_s` metric is
/// the self time of the span named by its prefix, per iteration.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("orbit.density.self_s", "s"),
    ("orbit.density.calls", "count"),
    ("orbit.density.sat_samples", "count"),
    ("orbit.density.ns_per_sat_sample", "ns"),
    ("orbit.density.in_band_ratio", "ratio"),
    ("orbit.coverage.self_s", "s"),
    ("orbit.coverage.sat_samples", "count"),
    ("orbit.coverage.pair_tests", "count"),
    ("orbit.coverage.ns_per_pair_test", "ns"),
    ("orbit.isl_topology.self_s", "s"),
    ("orbit.path.self_s", "s"),
    ("orbit.path.calls", "count"),
    ("orbit.path.reach_ratio", "ratio"),
    ("demand.generate.self_s", "s"),
    ("demand.generate.locations", "count"),
    ("demand.generate.cells", "count"),
    ("demand.generate.ns_per_location", "ns"),
    ("demand.export.self_s", "s"),
    ("demand.export.bytes", "B"),
    ("cache.load_payload.self_s", "s"),
    ("cache.decode_dataset.self_s", "s"),
    ("cache.decode_sweep.self_s", "s"),
    ("cache.encode_dataset.self_s", "s"),
    ("cache.encode_sweep.self_s", "s"),
    ("cache.save.self_s", "s"),
    ("cache.bytes_read", "B"),
    ("cache.bytes_written", "B"),
    ("cache.hit_ratio", "ratio"),
    ("cache.decode_mb_per_s", "MB/s"),
    ("core.model.self_s", "s"),
    ("core.demand_stats.self_s", "s"),
    ("core.sweep.self_s", "s"),
    ("core.tail.self_s", "s"),
    ("core.afford.self_s", "s"),
    ("core.sizing.self_s", "s"),
    ("core.strict.self_s", "s"),
    ("core.sensitivity.self_s", "s"),
    ("core.cost.self_s", "s"),
    ("core.findings.self_s", "s"),
    ("core.timeline.self_s", "s"),
    ("capacity.uplink.self_s", "s"),
    ("simnet.busy_hour.self_s", "s"),
    ("simnet.busy_hour.flows", "count"),
    ("simnet.busy_hour.ns_per_flow", "ns"),
    ("report.render.self_s", "s"),
    ("report.bytes", "B"),
    ("report.ns_per_byte", "ns"),
    ("io.write_atomic.self_s", "s"),
    ("io.bytes_written", "B"),
    ("cli.unattributed_s", "s"),
    ("cli.files_written", "count"),
    ("cli.bytes_written", "B"),
    ("loop.iter_p50_s", "s"),
    ("loop.iter_p90_s", "s"),
    ("loop.samples", "count"),
    ("trace.overhead_frac", "ratio"),
    ("trace.coverage_frac", "ratio"),
];

/// Work counters reported per iteration under their own names.
const PLAIN_COUNTS: &[&str] = &[
    "orbit.density.calls",
    "orbit.density.sat_samples",
    "orbit.coverage.sat_samples",
    "orbit.coverage.pair_tests",
    "orbit.path.calls",
    "demand.generate.locations",
    "demand.generate.cells",
    "demand.export.bytes",
    "cache.bytes_read",
    "cache.bytes_written",
    "simnet.busy_hour.flows",
    "report.bytes",
    "io.bytes_written",
];

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// What a traced run measured outside the trace.
#[derive(Debug, Default)]
pub struct LoopSummary {
    /// Wall seconds of each passed iteration of the untraced loop.
    pub wall_s: Vec<f64>,
    /// For CLI workloads, the CLI beside its replay.
    pub cli: Option<CliSummary>,
}

/// The CLI runs of a traced run of a CLI workload.
#[derive(Debug, Default)]
pub struct CliSummary {
    /// Files each loop iteration left in its output directory, averaged.
    pub files: f64,
    /// Bytes in those files, averaged.
    pub bytes: f64,
    /// Wall seconds of the CLI run made right after traced pair `k`,
    /// by `k`.
    pub wall_by_iter: BTreeMap<u64, f64>,
}

/// Derives every per-layer metric from a traced pass. `overhead` holds
/// traced/untraced − 1 for each pair of runs on the same inputs, one
/// per traced iteration.
pub fn per_layer(
    rec: &Recording,
    overhead: &[f64],
    lp: &LoopSummary,
) -> BTreeMap<&'static str, f64> {
    let n = overhead.len().max(1) as f64;
    let selfs = self_times(&rec.spans);
    let mut self_ns: BTreeMap<&str, f64> = BTreeMap::new();
    let mut root_ns = 0.0;
    let mut layer_ns_by_iter: BTreeMap<u64, f64> = BTreeMap::new();
    for (s, &own) in rec.spans.iter().zip(&selfs) {
        if s.name == ROOT_SPAN {
            root_ns += (s.end_ns - s.start_ns) as f64;
        } else {
            *self_ns.entry(s.name).or_default() += own as f64;
            *layer_ns_by_iter.entry(s.iter).or_default() += own as f64;
        }
    }
    let span_ns = |name: &str| self_ns.get(name).copied().unwrap_or(0.0);
    let c = |name: &str| rec.counters.get(name).copied().unwrap_or(0.0);

    let mut m = BTreeMap::new();
    for &(name, _) in PER_LAYER {
        if let Some(span) = name.strip_suffix(".self_s") {
            m.insert(name, span_ns(span) / 1e9 / n);
        }
    }
    for &name in PLAIN_COUNTS {
        m.insert(name, c(name) / n);
    }
    let derived = [
        (
            "orbit.density.ns_per_sat_sample",
            ratio(span_ns("orbit.density"), c("orbit.density.sat_samples")),
        ),
        (
            "orbit.density.in_band_ratio",
            ratio(c("orbit.density.in_band"), c("orbit.density.sat_samples")),
        ),
        (
            "orbit.coverage.ns_per_pair_test",
            ratio(span_ns("orbit.coverage"), c("orbit.coverage.pair_tests")),
        ),
        (
            "orbit.path.reach_ratio",
            ratio(c("orbit.path.reached"), c("orbit.path.calls")),
        ),
        (
            "demand.generate.ns_per_location",
            ratio(span_ns("demand.generate"), c("demand.generate.locations")),
        ),
        ("cache.hit_ratio", ratio(c("cache.hits"), c("cache.loads"))),
        (
            "cache.decode_mb_per_s",
            ratio(
                c("cache.bytes_read") / 1e6,
                (span_ns("cache.decode_dataset") + span_ns("cache.decode_sweep")) / 1e9,
            ),
        ),
        (
            "simnet.busy_hour.ns_per_flow",
            ratio(span_ns("simnet.busy_hour"), c("simnet.busy_hour.flows")),
        ),
        (
            "report.ns_per_byte",
            ratio(span_ns("report.render"), c("report.bytes")),
        ),
        ("loop.iter_p50_s", quantile(&lp.wall_s, 0.5).unwrap_or(0.0)),
        ("loop.iter_p90_s", quantile(&lp.wall_s, 0.9).unwrap_or(0.0)),
        ("loop.samples", lp.wall_s.len() as f64),
        ("trace.overhead_frac", median(overhead).unwrap_or(0.0)),
        (
            "trace.coverage_frac",
            ratio(self_ns.values().sum(), root_ns),
        ),
    ];
    m.extend(derived);
    if let Some(cli) = &lp.cli {
        // What the CLI spends outside the layer calls: each CLI run
        // minus the layer time of the traced replay just before it,
        // so both sides see the host in the same state.
        let gaps: Vec<f64> = cli
            .wall_by_iter
            .iter()
            .filter_map(|(k, wall)| layer_ns_by_iter.get(k).map(|ns| wall - ns / 1e9))
            .collect();
        m.insert("cli.unattributed_s", median(&gaps).unwrap_or(0.0));
        m.insert("cli.files_written", cli.files);
        m.insert("cli.bytes_written", cli.bytes);
    }
    for &(name, _) in PER_LAYER {
        m.entry(name).or_insert(0.0);
    }
    m
}

/// The result line: `correct`, `attempted`, `failed` and `metrics`,
/// each metric as `{"value": v, "unit": u}`.
pub fn result_json(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[(&str, f64, &str)],
) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, v, unit)| {
            let v = if v.is_finite() { *v } else { 0.0 };
            format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn valid_name(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    #[test]
    fn metric_names_are_valid_and_unique() {
        let all: Vec<&str> = END_TO_END
            .iter()
            .chain(PER_LAYER)
            .map(|(name, _)| *name)
            .collect();
        for name in &all {
            assert!(valid_name(name), "bad metric name {name:?}");
        }
        let mut sorted = all.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), all.len(), "duplicate metric name");
        for (_, unit) in END_TO_END.iter().chain(PER_LAYER) {
            assert!(unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
    }

    #[test]
    fn benchmark_json_lists_the_same_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        let listed = json.matches("\"unit\":").count();
        assert_eq!(listed, END_TO_END.len() + PER_LAYER.len());
    }

    #[test]
    fn every_per_layer_metric_is_reported_even_without_spans() {
        let m = per_layer(&Recording::default(), &[], &LoopSummary::default());
        assert_eq!(m.len(), PER_LAYER.len());
        assert!(m.values().all(|v| *v == 0.0));
    }

    #[test]
    fn result_line_has_the_four_keys() {
        let line = result_json(true, 3, 0, &[("iter_p10_s", 0.25, "s")]);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {\"iter_p10_s\": {\"value\": 0.25, \"unit\": \"s\"}}}"
        );
    }
}
