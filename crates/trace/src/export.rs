//! Trace exporters: Chrome Trace Event JSON and folded flamegraph
//! stacks, both rendered through `leo_obs::json` (no serde anywhere in
//! the workspace).
//!
//! ## `trace.json` — Chrome Trace Event format
//!
//! The JSON-object form (`{"traceEvents": [...]}`) with one process
//! (`pid` 1) and one Chrome thread per lane (`tid` = lane index,
//! named via `thread_name` metadata events). Span boundaries are `B`/
//! `E` duration events, cache markers are thread-scoped `i` instants,
//! worker chunks are `X` complete events carrying `chunk`/`lo`/`hi`
//! args, and memory samples on the `mem` lane are `C` counter events
//! (`heap_bytes`/`rss_kb`) that Perfetto draws as counter tracks.
//! Timestamps are microseconds since the trace epoch, as the format
//! requires; load the file in <https://ui.perfetto.dev> or
//! `chrome://tracing` unmodified.
//!
//! ## `trace.folded` — folded stacks
//!
//! One `lane;frame;frame <nanoseconds>` line per distinct stack, the
//! input format of `flamegraph.pl` and speedscope. Durations are
//! *exclusive* (self time); because exclusive segments telescope, the
//! sum over a stage's subtree equals the span registry's inclusive
//! `total_ns` for that stage exactly — `scripts/tier1.sh` cross-checks
//! the two against the run manifest (main lane only: worker-lane
//! chunks carry their owning `stage.*` span path as intermediate
//! frames, so worker busy time telescopes under the dispatching stage
//! in a flamegraph rather than floating as lane-level orphans).

use crate::{Event, EventKind};
use leo_obs::json::Json;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;

fn ts_us(ns: u64) -> Json {
    Json::Num(ns as f64 / 1000.0)
}

fn event_json(tid: usize, ev: &Event) -> Json {
    let mut e = Json::obj()
        .set("name", ev.name.as_str())
        .set("pid", 1u64)
        .set("tid", tid);
    e = match ev.kind {
        EventKind::Begin => e.set("ph", "B").set("ts", ts_us(ev.ts_ns)),
        EventKind::End => e.set("ph", "E").set("ts", ts_us(ev.ts_ns)),
        EventKind::Instant => e.set("ph", "i").set("s", "t").set("ts", ts_us(ev.ts_ns)),
        EventKind::Complete { dur_ns } => e
            .set("ph", "X")
            .set("ts", ts_us(ev.ts_ns))
            .set("dur", ts_us(dur_ns)),
        EventKind::Counter => e.set("ph", "C").set("ts", ts_us(ev.ts_ns)),
    };
    if !ev.args.is_empty() || ev.parent.is_some() {
        let mut args = Json::obj();
        for &(k, v) in &ev.args {
            args = args.set(k, v);
        }
        if let Some(parent) = &ev.parent {
            args = args.set("parent", parent.as_str());
        }
        e = e.set("args", args);
    }
    e
}

/// Renders the current trace snapshot as a Chrome Trace Event
/// document.
pub fn chrome_trace() -> Json {
    let lanes = crate::snapshot();
    let mut events = vec![Json::obj()
        .set("name", "process_name")
        .set("ph", "M")
        .set("pid", 1u64)
        .set("tid", 0u64)
        .set("args", Json::obj().set("name", "divide"))];
    for (tid, lane) in lanes.iter().enumerate() {
        events.push(
            Json::obj()
                .set("name", "thread_name")
                .set("ph", "M")
                .set("pid", 1u64)
                .set("tid", tid)
                .set("args", Json::obj().set("name", lane.label.as_str())),
        );
    }
    for (tid, lane) in lanes.iter().enumerate() {
        for ev in &lane.events {
            events.push(event_json(tid, ev));
        }
    }
    Json::obj()
        .set("traceEvents", Json::Arr(events))
        .set("displayTimeUnit", "ms")
}

/// Renders the current trace snapshot as folded flamegraph stacks
/// (exclusive nanoseconds, sorted by stack string).
pub fn folded_stacks() -> String {
    let mut totals: BTreeMap<String, u64> = BTreeMap::new();
    for lane in crate::snapshot() {
        let mut stack: Vec<String> = vec![lane.label.clone()];
        // Timestamp since which the current stack has been the one
        // running; only attributed while at least one span is open.
        let mut since = 0u64;
        for ev in &lane.events {
            match ev.kind {
                EventKind::Begin => {
                    if stack.len() > 1 {
                        *totals.entry(stack.join(";")).or_default() +=
                            ev.ts_ns.saturating_sub(since);
                    }
                    stack.push(ev.name.clone());
                    since = ev.ts_ns;
                }
                EventKind::End => {
                    // An End with no open span (its Begin predates a
                    // reset) is dropped rather than underflowing.
                    if stack.len() > 1 {
                        *totals.entry(stack.join(";")).or_default() +=
                            ev.ts_ns.saturating_sub(since);
                        stack.pop();
                    }
                    since = ev.ts_ns;
                }
                EventKind::Complete { dur_ns } => {
                    // A chunk dispatched from inside a span carries
                    // that span's path: render its frames between the
                    // lane and the chunk name so worker time
                    // telescopes under the owning `stage.*` subtree.
                    let key = match &ev.parent {
                        Some(parent) => {
                            format!("{};{};{}", lane.label, parent.replace('/', ";"), ev.name)
                        }
                        None => format!("{};{}", lane.label, ev.name),
                    };
                    *totals.entry(key).or_default() += dur_ns;
                }
                // Counter samples carry values, not durations; they
                // have no place on a flamegraph.
                EventKind::Instant | EventKind::Counter => {}
            }
        }
    }
    let mut out = String::new();
    for (stack, ns) in &totals {
        let _ = writeln!(out, "{stack} {ns}");
    }
    out
}

/// Writes [`chrome_trace`] to `path` (compact JSON — paper-scale
/// traces stay small, but pretty-printing would triple the bytes).
pub fn write_chrome(path: &Path) -> std::io::Result<()> {
    let mut body = chrome_trace().render();
    body.push('\n');
    leo_fault::safe_io::write_atomic(path, body.as_bytes())
}

/// Writes [`folded_stacks`] to `path` (atomic tmp+rename, like every
/// artifact writer).
pub fn write_folded(path: &Path) -> std::io::Result<()> {
    leo_fault::safe_io::write_atomic(path, folded_stacks().as_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_lock;
    use std::time::{Duration, Instant};

    /// Builds a small deterministic trace: outer(0..100µs) containing
    /// inner(20..60µs), one instant, an unparented worker chunk of
    /// 30µs plus a 20µs chunk owned by `outer`.
    fn record_fixture() -> Instant {
        leo_obs::set_enabled(true);
        crate::set_enabled(true);
        crate::reset();
        let epoch = crate::ensure_epoch();
        let at = |us: u64| epoch + Duration::from_micros(us);
        crate::begin("outer", at(0));
        crate::begin("inner", at(20));
        crate::end("inner", at(60));
        crate::instant("cache.hit");
        crate::end("outer", at(100));
        crate::worker_chunk(0, "parallel.par_map", None, at(10), at(40), 0, 50);
        crate::worker_chunk(
            1,
            "parallel.par_map",
            Some("outer"),
            at(50),
            at(70),
            50,
            100,
        );
        crate::counter_at("heap_bytes", &[("bytes", 4096)], at(50));
        epoch
    }

    #[test]
    fn chrome_trace_has_lanes_events_and_metadata() {
        let _lock = test_lock();
        record_fixture();
        let doc = chrome_trace();
        let rendered = doc.render();
        // Object form with the traceEvents array.
        assert!(rendered.starts_with("{\"traceEvents\":["));
        // Thread-name metadata for both lanes.
        assert!(rendered.contains("\"thread_name\""));
        assert!(rendered.contains("\"worker-0\""));
        // B/E pair for the outer span, X for the chunk, i for the hit.
        assert!(rendered.contains("\"ph\":\"B\""));
        assert!(rendered.contains("\"ph\":\"E\""));
        assert!(rendered.contains("\"ph\":\"X\""));
        assert!(rendered.contains("\"ph\":\"i\""));
        // Chunk args survive, in µs-land the chunk lasts 30.
        assert!(rendered.contains("\"lo\":0"));
        assert!(rendered.contains("\"hi\":50"));
        assert!(rendered.contains("\"dur\":30"));
        // The parented chunk carries its owning span path as an arg.
        assert!(rendered.contains("\"parent\":\"outer\""));
        // The heap sample lands on the named mem lane as a C event.
        assert!(rendered.contains("\"ph\":\"C\""));
        assert!(rendered.contains("\"mem\""));
        assert!(rendered.contains("\"bytes\":4096"));
        crate::set_enabled(false);
        crate::reset();
    }

    #[test]
    fn folded_stacks_ignore_counter_samples() {
        let _lock = test_lock();
        record_fixture();
        let folded = folded_stacks();
        assert!(!folded.contains("heap_bytes"), "{folded}");
        assert!(!folded.contains("mem;"), "{folded}");
        crate::set_enabled(false);
        crate::reset();
    }

    #[test]
    fn folded_stacks_telescope_to_span_totals() {
        let _lock = test_lock();
        record_fixture();
        let folded = folded_stacks();
        let mut totals = std::collections::BTreeMap::new();
        for line in folded.lines() {
            let (stack, ns) = line.rsplit_once(' ').expect("stack ns");
            totals.insert(stack.to_string(), ns.parse::<u64>().expect("ns"));
        }
        let lane = crate::snapshot()[0].label.clone();
        // outer ran 100µs total: 60µs exclusive + inner's 40µs.
        assert_eq!(totals[&format!("{lane};outer")], 60_000);
        assert_eq!(totals[&format!("{lane};outer;inner")], 40_000);
        assert_eq!(totals["worker-0;parallel.par_map"], 30_000);
        // The chunk dispatched from inside `outer` telescopes under
        // its owning span's frames on the worker lane.
        assert_eq!(totals["worker-1;outer;parallel.par_map"], 20_000);
        let outer_total: u64 = totals
            .iter()
            .filter(|(k, _)| k.starts_with(&format!("{lane};outer")))
            .map(|(_, v)| v)
            .sum();
        assert_eq!(outer_total, 100_000, "exclusive segments telescope");
        crate::set_enabled(false);
        crate::reset();
    }

    #[test]
    fn writers_create_parent_directories() {
        let _lock = test_lock();
        record_fixture();
        let dir = std::env::temp_dir().join(format!("leo_trace_export_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let json_path = dir.join("nested/trace.json");
        let folded_path = dir.join("nested/trace.folded");
        write_chrome(&json_path).expect("chrome");
        write_folded(&folded_path).expect("folded");
        assert!(std::fs::read_to_string(&json_path)
            .unwrap()
            .contains("traceEvents"));
        assert!(!std::fs::read_to_string(&folded_path).unwrap().is_empty());
        let _ = std::fs::remove_dir_all(&dir);
        crate::set_enabled(false);
        crate::reset();
    }
}
