//! The run manifest: the one record of a run.
//!
//! Every `divide` invocation writes `<out>/run_manifest.json` — the
//! full reproducibility record of the run: command line, seed, scale,
//! thread count, workspace version, per-stage wall-clock and
//! worker-pool work, the complete span tree, and every counter.
//! [`run_manifest`] is the only code that turns the span, allocator,
//! parallel and resource registries into a record; the run ledger's
//! line is a projection of its output (`crate::ledger::project`).
//!
//! The schema is versioned by the `schema` field ([`SCHEMA`]);
//! DESIGN.md §8 documents the layout.

use crate::json::Json;
use crate::scope::StageParallel;
use crate::span::{self, SpanStats};
use std::collections::BTreeMap;

/// The run manifest's schema identifier.
pub const SCHEMA: &str = "leo-obs/run-manifest/v1";

/// The workspace crates a manifest lists (all share the workspace
/// version).
const WORKSPACE_CRATES: &[&str] = &[
    "leo-geomath",
    "leo-hexgrid",
    "leo-orbit",
    "leo-demand",
    "leo-capacity",
    "starlink-divide",
    "leo-cache",
    "leo-simnet",
    "leo-report",
    "leo-parallel",
    "leo-obs",
    "leo-trace",
    "leo-alloc",
    "leo-fault",
];

/// Identity of one pipeline invocation.
#[derive(Debug, Clone)]
pub struct RunInfo {
    /// The CLI command (`fig2`, `all`, ...).
    pub command: String,
    /// Dataset scale (`small` | `paper`).
    pub scale: String,
    /// The seed every random stream derives from.
    pub seed: u64,
    /// Effective worker-thread count.
    pub threads: usize,
    /// The raw argument vector, for exact replay.
    pub argv: Vec<String>,
    /// The stages the run ran, in run order. The manifest lists each
    /// one that recorded a `stage.<name>` span, in this order.
    pub stages: Vec<String>,
}

/// The top-level `stage.<name>` span of each of `order`'s stages, in
/// that order — the per-stage wall-clock table of the manifest. Spans
/// record completion order, but a stage's span can close on either of
/// two lanes and more than once (its body, then its output), so only
/// the run's own order lists the stages the same way on every run.
fn stage_spans<'a>(
    spans: &'a BTreeMap<String, SpanStats>,
    order: &'a [String],
) -> impl Iterator<Item = (&'a str, &'a SpanStats)> {
    order
        .iter()
        .filter_map(|name| Some((name.as_str(), spans.get(&format!("stage.{name}"))?)))
}

fn ns_to_ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

fn span_stats_json(stats: &SpanStats) -> Json {
    Json::obj()
        .set("calls", stats.count)
        .set("total_ns", stats.total_ns)
        .set("min_ns", if stats.count > 0 { stats.min_ns } else { 0 })
        .set("max_ns", stats.max_ns)
}

/// Renders the span registry as a forest: children are the paths one
/// `/` segment deeper. Returns an array of span nodes.
fn span_tree(spans: &BTreeMap<String, SpanStats>, prefix: &str) -> Json {
    let mut nodes: Vec<(u64, Json)> = Vec::new();
    for (path, stats) in spans {
        let rest = match path.strip_prefix(prefix) {
            Some(rest) if !rest.is_empty() => rest,
            _ => continue,
        };
        if rest.contains('/') {
            continue; // deeper descendant; its parent will recurse
        }
        let child_prefix = format!("{path}/");
        let children = span_tree(spans, &child_prefix);
        let mut node = Json::obj().set("name", rest);
        if let Json::Obj(stat_fields) = span_stats_json(stats) {
            if let Json::Obj(fields) = &mut node {
                fields.extend(stat_fields);
            }
        }
        let node = node.set("children", children);
        nodes.push((stats.seq, node));
    }
    nodes.sort_by_key(|&(seq, _)| seq);
    Json::Arr(nodes.into_iter().map(|(_, n)| n).collect())
}

/// Renders one stage's parallel attribution (see
/// [`crate::scope::StageParallel`]) as the manifest's `parallel`
/// object, the run's one record of worker-pool work.
fn parallel_json(attr: &StageParallel) -> Json {
    Json::obj()
        .set("fanouts", attr.fanouts)
        .set("serial_calls", attr.serial_calls)
        .set("items", attr.items)
        .set("chunks", attr.chunks)
        .set("busy_ns", attr.busy_ns)
        .set("idle_ns", attr.idle_ns)
        .set("per_worker_busy_ns", attr.per_worker_busy_ns.clone())
}

/// The manifest's `metrics` object: `{"counters": {...}}`, the current
/// scope's counters followed by `leo-fault`'s own registry (`fault.*` /
/// `degraded.*`). The fault crate sits below `leo-obs` in the
/// dependency order, so its counters live in a private registry and
/// are merged here; names are disjoint namespaces, sorted within each
/// source.
fn metrics_json() -> Json {
    let mut counters = Json::obj();
    for (name, value) in crate::metrics::snapshot() {
        counters = counters.set(&name, value);
    }
    for (name, value) in leo_fault::counter_snapshot() {
        counters = counters.set(&name, value);
    }
    Json::obj().set("counters", counters)
}

/// The run-level `resources` object: allocator totals (when the
/// binary installed an [`crate::resource::AllocHook`]) and RSS from
/// `/proc/self/status` (on Linux). Both halves degrade to absent keys
/// rather than zeros when their source is unavailable, so a reader can
/// tell "not measured" from "measured zero".
fn resources_json() -> Json {
    let mut res = Json::obj();
    if let Some(hook) = crate::resource::alloc_hook() {
        let r = (hook.read)();
        res = res
            .set("alloc_calls", r.alloc_calls)
            .set("dealloc_calls", r.dealloc_calls)
            .set("alloc_bytes_total", r.allocated_bytes)
            .set("current_heap_bytes", r.current_bytes)
            .set("peak_heap_bytes", r.peak_bytes);
    }
    if let Some(rss) = crate::resource::rss_kb() {
        res = res
            .set("peak_rss_kb", rss.peak_kb)
            .set("end_rss_kb", rss.current_kb);
    }
    if let Some(cpu) = crate::resource::cpu_ms() {
        res = res.set("cpu_ms", cpu);
    }
    res
}

/// Builds the full run manifest from the current span and metric
/// registries. `wall_ms` is the whole invocation's wall-clock.
pub fn run_manifest(info: &RunInfo, wall_ms: f64) -> Json {
    let spans = span::snapshot();
    let allocs = span::alloc_snapshot();
    let parallel = crate::scope::parallel_snapshot();
    let mut stages = Json::Arr(Vec::new());
    if let Json::Arr(items) = &mut stages {
        for (name, stats) in stage_spans(&spans, &info.stages) {
            let mut stage = Json::obj()
                .set("name", name)
                .set("wall_ms", ns_to_ms(stats.total_ns))
                .set("calls", stats.count);
            if let Some(a) = allocs.get(&format!("stage.{name}")) {
                stage = stage
                    .set("alloc_bytes", a.alloc_bytes)
                    .set("alloc_count", a.alloc_count)
                    .set("peak_heap_delta", a.peak_heap_delta);
            }
            if let Some(attr) = parallel.get(&format!("stage.{name}")) {
                stage = stage.set("parallel", parallel_json(attr));
            }
            items.push(stage);
        }
    }
    let mut doc = Json::obj()
        .set("schema", SCHEMA)
        .set("command", info.command.as_str())
        .set("scale", info.scale.as_str())
        .set("seed", info.seed)
        .set("threads", info.threads)
        .set("argv", info.argv.clone())
        .set("wall_ms", wall_ms)
        .set(
            "crates",
            Json::obj()
                .set("workspace_version", env!("CARGO_PKG_VERSION"))
                .set(
                    "members",
                    Json::Arr(WORKSPACE_CRATES.iter().map(|&c| Json::from(c)).collect()),
                ),
        )
        .set("stages", stages)
        .set("resources", resources_json())
        .set("spans", span_tree(&spans, ""))
        .set("metrics", metrics_json());
    // Subsystems that shut themselves off instead of failing the run;
    // absent when everything held.
    let degraded = leo_fault::degraded_snapshot();
    if !degraded.is_empty() {
        let mut section = Json::obj();
        for (subsystem, reason) in degraded {
            section = section.set(&subsystem, reason.as_str());
        }
        doc = doc.set("degraded", section);
    }
    doc
}

/// Writes a JSON document to `path`, pretty-printed, creating parent
/// directories as needed. Atomic: the document is staged to a temp
/// file and renamed into place (`leo_fault::safe_io`), so a crash
/// mid-write never leaves a torn manifest.
pub fn write_json(path: &std::path::Path, doc: &Json) -> std::io::Result<()> {
    leo_fault::safe_io::write_atomic(path, doc.render_pretty().as_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn info() -> RunInfo {
        RunInfo {
            command: "fig2".into(),
            scale: "small".into(),
            seed: 7,
            threads: 4,
            argv: vec!["divide".into(), "fig2".into()],
            stages: vec!["dataset".into(), "fig2".into()],
        }
    }

    #[test]
    fn manifest_has_required_keys_and_stages() {
        let _lock = crate::test_lock();
        crate::reset();
        // fig2's span closes first, as a second lane's can.
        {
            let _stage = span::enter("stage.fig2");
        }
        {
            let _stage = span::enter("stage.dataset");
            let _inner = span::enter("demand.generate");
        }
        crate::metrics::counter_add("t_manifest.counter", 3);
        // A command name that is not also a stage name, so the textual
        // order check below cannot match the "command" field instead.
        let mut run = info();
        run.command = "all".into();
        run.argv = vec!["divide".into(), "all".into()];
        let m = run_manifest(&run, 12.5);
        for key in [
            "schema", "command", "scale", "seed", "threads", "argv", "wall_ms", "crates", "stages",
            "spans", "metrics",
        ] {
            assert!(m.get(key).is_some(), "missing key {key}");
        }
        // Stages in the run's order, stripped of the prefix, whichever
        // span closed first.
        let rendered = m.render();
        let dataset_at = rendered.find("\"dataset\"").expect("dataset stage");
        let fig2_at = rendered.find("\"fig2\"").expect("fig2 stage");
        assert!(dataset_at < fig2_at, "stage order lost");
        // The span tree nests demand.generate under stage.dataset.
        assert!(rendered.contains("\"demand.generate\""));
        assert!(rendered.contains("\"t_manifest.counter\":3"));
        crate::reset();
    }

    #[test]
    fn manifest_metrics_hold_only_counters() {
        let _lock = crate::test_lock();
        crate::reset();
        crate::metrics::counter_add("t_manifest.only", 1);
        let rendered = run_manifest(&info(), 1.0).render_pretty();
        let m = Json::parse(&rendered).expect("manifest parses");
        let Some(Json::Obj(fields)) = m.get("metrics") else {
            panic!("metrics is an object: {rendered}");
        };
        let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["counters"]);
        crate::reset();
    }

    #[test]
    fn write_json_creates_parents() {
        let dir = std::env::temp_dir().join("leo_obs_manifest_test");
        let _ = std::fs::remove_dir_all(&dir);
        let path = dir.join("nested/record.json");
        write_json(&path, &Json::obj().set("ok", true)).expect("write");
        let body = std::fs::read_to_string(&path).expect("read back");
        assert!(body.contains("\"ok\": true"));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
