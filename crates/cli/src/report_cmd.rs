//! `divide report` — the two-record front end of the regression gate.
//!
//! Loads two observability records and pairs them into two-value
//! metrics for the shared gate in [`crate::compare`]. It reads two
//! schemas, in any mix:
//!
//! * a run manifest (`leo-obs/run-manifest/v1`), through the same
//!   [`compare::record`] reader `history` uses for ledger lines — so a
//!   two-manifest report shows the rows of a two-line history window;
//! * the merged trajectory file (`divide/bench-tier1/v1`): its `*_ms`
//!   fields and kernel medians, and `decode_throughput_mbps` (where a
//!   drop is the regression). `scripts/bench.sh --gate` runs it against
//!   HEAD's `BENCH_tier1.json`, so a perf regression fails the bench the
//!   way a broken test fails tier-1.

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

/// The gated fields of a `divide/bench-tier1/v1` file. Only wall-clock
/// fields gate; ratios and byte counts in the same objects are context
/// for humans, not for the gate.
fn bench_tier1(doc: &Json) -> Record {
    let mut rec = Record::new();
    if let Some(Json::Obj(runs)) = doc.get("runs") {
        for (run, fields) in runs {
            for (field, ms) in numbers(Some(fields)) {
                if field.ends_with("_ms") {
                    rec.push((format!("{run}.{field}"), Unit::Ms, ms));
                }
            }
        }
    }
    for (field, ms) in numbers(doc.get("kernels")) {
        if field.ends_with("_ms") {
            rec.push((format!("kernels.{field}"), Unit::Ms, ms));
        }
    }
    if let Some(v) = doc.get("decode_throughput_mbps").and_then(Json::as_f64) {
        rec.push(("decode_throughput_mbps".to_string(), Unit::Mbps, v));
    }
    rec
}

fn load(path: &Path) -> Result<Record, String> {
    let body = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    let doc = Json::parse(&body).map_err(|e| format!("cannot parse {}: {e}", path.display()))?;
    match doc.get("schema").and_then(Json::as_str).unwrap_or("") {
        leo_obs::manifest::SCHEMA => Ok(compare::record(&doc)),
        "divide/bench-tier1/v1" => Ok(bench_tier1(&doc)),
        other => Err(format!(
            "{}: unsupported schema {other:?} (expected a run manifest or BENCH_tier1.json)",
            path.display()
        )),
    }
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
    let title = format!(
        "divide report: {} -> {}",
        baseline.display(),
        candidate.display()
    );
    compare::run("report", &title, &compare::series(vec![base, cand]), gate)
}
