//! `divide history` — the run-ledger front end of the regression gate.
//!
//! Reads the append-only `runs.jsonl` ledger (`leo-obs/run-ledger/v3`,
//! see `leo_obs::ledger`), filters it to runs *comparable* with the
//! newest one (same command, scale and thread count, and the same
//! dataset source: generated or loaded from a snapshot), and hands the
//! newest run plus up to [`LAST`] predecessors to the shared gate in
//! [`crate::compare`]. Each line is a run manifest without its span
//! tree, so it goes through the same [`compare::record`] reader as
//! `report`'s manifests and yields the same rows. The baseline is the
//! **median of the predecessors**, which absorbs a single outlier run
//! in either direction.
//!
//! Records from older schemas are skipped by the exact-schema filter,
//! the same way corrupt lines are — an old ledger never breaks
//! `history`, it just shrinks the window.

use crate::compare::{self, Gate, Metric};
use leo_obs::json::Json;
use leo_obs::ledger;
use std::path::Path;

/// The metric rows for `runs` (comparable, oldest first).
fn metrics_of(runs: &[&Json]) -> Vec<Metric> {
    compare::series(runs.iter().map(|r| compare::record(r)).collect())
}

/// A short identity string for the header: command/scale/threads of
/// the newest run, and whether it generated the dataset.
fn identity(rec: &Json) -> String {
    format!(
        "{} --scale {} ({} threads, dataset {})",
        rec.get("command").and_then(Json::as_str).unwrap_or("?"),
        rec.get("scale").and_then(Json::as_str).unwrap_or("?"),
        rec.get("threads")
            .and_then(Json::as_u64)
            .map_or("?".to_string(), |t| t.to_string()),
        if generated(rec) {
            "generated"
        } else {
            "loaded"
        },
    )
}

/// Whether the run generated the dataset: only a generate counts
/// `demand.locations`; a snapshot load does not. A generate's
/// `dataset` wall is a different measurement from a load's, so the two
/// never share a baseline.
fn generated(rec: &Json) -> bool {
    rec.get("metrics")
        .and_then(|m| m.get("counters"))
        .and_then(|c| c.get("demand.locations"))
        .is_some()
}

fn same_identity(a: &Json, b: &Json) -> bool {
    ["command", "scale", "threads"]
        .iter()
        .all(|key| a.get(key) == b.get(key))
        && generated(a) == generated(b)
}

/// How many predecessors of the newest run form its baseline.
pub const LAST: usize = 10;

/// Runs `divide history` over the newest run and up to [`LAST`]
/// predecessors; returns the process exit code (0 also when there is
/// not enough history to judge).
pub fn run(ledger_path: &Path, gate: &Gate) -> i32 {
    let all: Vec<Json> = match ledger::read(ledger_path) {
        Ok(records) => records
            .into_iter()
            .filter(|r| r.get("schema").and_then(Json::as_str) == Some(ledger::SCHEMA))
            .collect(),
        Err(e) => {
            eprintln!("divide history: cannot read {}: {e}", ledger_path.display());
            return 1;
        }
    };
    let Some(newest) = all.last() else {
        println!(
            "divide history: {} holds no {} records yet",
            ledger_path.display(),
            ledger::SCHEMA
        );
        return 0;
    };

    let comparable: Vec<&Json> = all.iter().filter(|r| same_identity(r, newest)).collect();
    let skipped = all.len() - comparable.len();
    let runs = &comparable[comparable.len().saturating_sub(LAST + 1)..];
    let title = format!(
        "divide history: {} — {} over {} run(s){}, baseline = median of the earlier runs",
        ledger_path.display(),
        identity(newest),
        runs.len(),
        if skipped > 0 {
            format!(", {skipped} other run(s) ignored")
        } else {
            String::new()
        },
    );
    let code = compare::run("history", &title, &metrics_of(runs), gate);
    if runs.len() < 2 {
        println!("divide history: fewer than 2 comparable runs — nothing to gate against");
    }
    code
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compare::Unit;

    /// A ledger line under `schema` (`Json::set` appends, so it must be
    /// chosen up front, not overridden later) whose one `dataset` stage
    /// holds half the run's wall plus the fields of `stage`.
    fn rec(schema: &str, command: &str, wall: f64, stage: Json) -> Json {
        Json::obj()
            .set("schema", schema)
            .set("command", command)
            .set("scale", "small")
            .set("threads", 2u64)
            .set("wall_ms", wall)
            .set(
                "stages",
                Json::Arr(vec![stage
                    .set("name", "dataset")
                    .set("wall_ms", wall / 2.0)]),
            )
    }

    /// A line whose dataset stage carries a pool `parallel` section.
    fn rec_par(schema: &str, wall: f64, busy_ns: u64, chunks: u64) -> Json {
        let parallel = Json::obj().set("busy_ns", busy_ns).set("chunks", chunks);
        rec(schema, "all", wall, Json::obj().set("parallel", parallel))
    }

    /// `rec` for a run that generated the dataset when `generated`,
    /// else loaded it from a snapshot: a generate counts
    /// `demand.locations`.
    fn rec_source(generated: bool, dataset_ms: f64) -> Json {
        let counters = if generated {
            Json::obj().set("demand.locations", 4_670_000u64)
        } else {
            Json::obj().set("cache.hit", 1u64)
        };
        rec(ledger::SCHEMA, "all", dataset_ms * 2.0, Json::obj())
            .set("metrics", Json::obj().set("counters", counters))
    }

    #[test]
    fn metric_rows_cover_stages_and_run_level() {
        let run = |wall, heap: u64| {
            rec(
                ledger::SCHEMA,
                "all",
                wall,
                Json::obj().set("peak_heap_delta", heap),
            )
            .set("resources", Json::obj().set("peak_heap_bytes", heap))
        };
        let (a, b) = (run(100.0, 50 << 20), run(110.0, 51 << 20));
        let metrics = metrics_of(&[&a, &b]);
        let names: Vec<&str> = metrics.iter().map(|m| m.name.as_str()).collect();
        assert_eq!(
            names,
            vec![
                "dataset wall",
                "total wall",
                "dataset peak heap",
                "run peak heap",
            ]
        );
        assert_eq!(metrics[0].values, vec![50.0, 55.0]);
    }

    #[test]
    fn identity_filter_separates_commands() {
        let a = rec(ledger::SCHEMA, "all", 100.0, Json::obj());
        let b = rec(ledger::SCHEMA, "fig2", 5.0, Json::obj());
        assert!(same_identity(&a, &a));
        assert!(!same_identity(&a, &b));
        // A run that generated the dataset is not comparable with one
        // that loaded it.
        let (cold, warm) = (rec_source(true, 40.0), rec_source(false, 0.2));
        assert!(same_identity(&cold, &rec_source(true, 44.0)));
        assert!(!same_identity(&cold, &warm));
        assert_eq!(
            identity(&warm),
            "all --scale small (2 threads, dataset loaded)"
        );
    }

    #[test]
    fn a_regenerate_is_judged_against_earlier_generates_only() {
        use std::io::Write;
        let dir = std::env::temp_dir().join(format!("divide_history_src_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("runs.jsonl");
        // Cold (dataset 40 ms), warm (0.2 ms), then a regenerate
        // (44 ms): against the cold run alone it is +10%; against the
        // median of the cold and the warm run it would read +119%.
        let mut file = std::fs::File::create(&path).unwrap();
        for (generated, dataset_ms) in [(true, 40.0), (false, 0.2), (true, 44.0)] {
            writeln!(file, "{}", rec_source(generated, dataset_ms).render()).unwrap();
        }
        drop(file);
        // The CLI's default gate.
        let gate = Gate {
            max_regress_pct: 20.0,
            min_wall_ms: 5.0,
        };
        assert_eq!(run(&path, &gate), 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn parallel_rows_trend_busy_and_chunks() {
        let a = rec_par(ledger::SCHEMA, 100.0, 40_000_000, 4);
        let b = rec_par(ledger::SCHEMA, 110.0, 44_000_000, 6);
        let metrics = metrics_of(&[&a, &b]);
        let busy = metrics
            .iter()
            .find(|m| m.name == "dataset par busy")
            .expect("busy row");
        assert_eq!(busy.values, vec![40.0, 44.0], "busy_ns rendered as ms");
        assert_eq!(busy.unit, Unit::Ms);
        let chunks = metrics
            .iter()
            .find(|m| m.name == "dataset par chunks")
            .expect("chunks row");
        assert_eq!(chunks.values, vec![4.0, 6.0]);
        assert_eq!(chunks.unit, Unit::Count, "chunk counts never gate");
        // Records without the section (an all-serial run) grow no rows.
        let plain = rec(ledger::SCHEMA, "all", 100.0, Json::obj());
        assert!(!metrics_of(&[&plain])
            .iter()
            .any(|m| m.name.contains("par busy") || m.name.contains("par chunks")));
    }

    #[test]
    fn old_schema_lines_are_skipped_not_fatal() {
        use std::io::Write;
        let dir = std::env::temp_dir().join(format!("divide_history_v2_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("runs.jsonl");
        // Two v2-era records (10× faster — would trip the gate if the
        // reader compared across schemas), a corrupt line, one v3 run.
        let mut file = std::fs::File::create(&path).unwrap();
        for _ in 0..2 {
            let v2 = rec_par("leo-obs/run-ledger/v2", 10.0, 4_000_000, 4);
            writeln!(file, "{}", v2.render()).unwrap();
        }
        writeln!(file, "{{\"truncated\": tr").unwrap();
        let v3 = rec_par(ledger::SCHEMA, 100.0, 40_000_000, 4);
        writeln!(file, "{}", v3.render()).unwrap();
        drop(file);
        let gate = Gate {
            max_regress_pct: 10.0,
            min_wall_ms: 0.0,
        };
        assert_eq!(run(&path, &gate), 0, "a lone v3 run gates against nothing");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
