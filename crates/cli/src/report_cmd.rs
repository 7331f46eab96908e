//! `divide report` — the two-record front end of the regression gate.
//!
//! Loads two observability records — run manifests
//! (`leo-obs/run-manifest/v1`), flat bench records (`leo-obs/bench/v1`),
//! or the merged trajectory file (`divide/bench-tier1/v1`), in any mix —
//! and pairs them into two-value metrics for the shared gate in
//! [`crate::compare`]: stage and total wall-clock, the bench file's
//! `*_ms` fields and kernel medians, `decode_throughput_mbps` (where a
//! drop is the regression), and counters, listed only when they changed
//! and never gated. `scripts/bench.sh --gate` runs it against HEAD's
//! `BENCH_tier1.json`, so a perf regression fails the bench the way a
//! broken test fails tier-1.

use crate::compare::{self, Gate, Record, Unit};
use leo_obs::json::Json;
use std::path::Path;

/// The numeric fields of a JSON object, in order.
fn numbers(obj: Option<&Json>) -> impl Iterator<Item = (&str, f64)> {
    let fields = match obj {
        Some(Json::Obj(fields)) => fields.as_slice(),
        _ => &[],
    };
    fields
        .iter()
        .filter_map(|(name, v)| Some((name.as_str(), v.as_f64()?)))
}

fn load(path: &Path) -> Result<Record, String> {
    let body = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    let doc = Json::parse(&body).map_err(|e| format!("cannot parse {}: {e}", path.display()))?;
    let mut rec = Record::new();
    let mut push = |name: String, unit, v| rec.push((name, unit, v));
    let counters = match doc.get("schema").and_then(Json::as_str).unwrap_or("") {
        "leo-obs/run-manifest/v1" => {
            if let Some(Json::Arr(items)) = doc.get("stages") {
                for item in items {
                    let name = item.get("name").and_then(Json::as_str);
                    if let (Some(name), Some(ms)) =
                        (name, item.get("wall_ms").and_then(Json::as_f64))
                    {
                        push(format!("{name} wall"), Unit::Ms, ms);
                    }
                }
            }
            doc.get("metrics").and_then(|m| m.get("counters"))
        }
        "leo-obs/bench/v1" => {
            for (name, ms) in numbers(doc.get("stages")) {
                push(format!("{name} wall"), Unit::Ms, ms);
            }
            doc.get("counters")
        }
        "divide/bench-tier1/v1" => {
            // Only wall-clock fields gate; ratios and byte counts in the
            // same objects are context for humans, not for the gate.
            if let Some(Json::Obj(runs)) = doc.get("runs") {
                for (run, fields) in runs {
                    for (field, ms) in numbers(Some(fields)) {
                        if field.ends_with("_ms") {
                            push(format!("{run}.{field}"), Unit::Ms, ms);
                        }
                    }
                }
            }
            for (field, ms) in numbers(doc.get("kernels")) {
                if field.ends_with("_ms") {
                    push(format!("kernels.{field}"), Unit::Ms, ms);
                }
            }
            if let Some(v) = doc.get("decode_throughput_mbps").and_then(Json::as_f64) {
                push("decode_throughput_mbps".to_string(), Unit::Mbps, v);
            }
            None
        }
        other => {
            return Err(format!(
                "{}: unsupported schema {other:?} (expected a run manifest or bench record)",
                path.display()
            ))
        }
    };
    if let Some(ms) = doc.get("wall_ms").and_then(Json::as_f64) {
        push("total wall".to_string(), Unit::Ms, ms);
    }
    for (name, v) in numbers(counters) {
        push(name.to_string(), Unit::Count, v);
    }
    Ok(rec)
}

/// Runs the report; returns the process exit code.
pub fn run(baseline: &Path, candidate: &Path, gate: &Gate) -> i32 {
    let (base, cand) = match (load(baseline), load(candidate)) {
        (Ok(b), Ok(c)) => (b, c),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("divide report: {e}");
            return 1;
        }
    };
    let mut metrics = compare::series(vec![base, cand]);
    // Counters measure work shape, not speed: only a change is news.
    metrics.retain(|m| m.unit != Unit::Count || m.values[0] != m.values[1]);
    let title = format!(
        "divide report: {} -> {}",
        baseline.display(),
        candidate.display()
    );
    compare::run("report", &title, &metrics, gate)
}
