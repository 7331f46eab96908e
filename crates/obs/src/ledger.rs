//! The append-only run-history ledger.
//!
//! Every observed `divide` run appends one JSON record — schema
//! [`SCHEMA`] — as a single line to `runs.jsonl` (by default inside
//! the snapshot-cache directory, since that is the one place that
//! already persists across runs). The record is a projection of the
//! run manifest ([`project`]): the manifest without its span tree,
//! plus `ts_unix`. `divide history` reads the file back to render
//! per-stage trend tables and gate the newest run against the median
//! of its predecessors.
//!
//! ## Why JSONL, appended with `O_APPEND`
//!
//! A ledger must survive concurrent writers (two benches racing, a
//! user run during a bench) and partial writes (a killed process).
//! One record per line, written with a **single** `write` syscall on a
//! file opened in append mode, makes every append atomic at the line
//! level on POSIX; readers then treat each line independently and
//! [`read`] skips anything that does not parse — a truncated tail or
//! corrupt line costs one `log_warn!`, never a panic and never the
//! rest of the history.

use crate::json::Json;
use std::io::Write;
use std::path::Path;

/// The ledger record schema identifier. `v3` made the record a
/// projection of the run manifest; readers filter on this exact
/// string, so `v1`/`v2` lines in an old ledger are skipped the same
/// way corrupt lines are.
pub const SCHEMA: &str = "leo-obs/run-ledger/v3";

/// The ledger line of a run: its `manifest` without the `spans` tree,
/// under [`SCHEMA`], with `ts_unix` (seconds since the epoch, passed
/// in so callers control clock access) after the schema.
pub fn project(manifest: &Json, ts_unix: u64) -> Json {
    let mut line = Json::obj().set("schema", SCHEMA).set("ts_unix", ts_unix);
    if let Json::Obj(fields) = manifest {
        for (key, value) in fields {
            if key != "schema" && key != "spans" {
                line = line.set(key, value.clone());
            }
        }
    }
    line
}

/// Appends one record to the ledger at `path` as a single line,
/// creating the file (and parent directories) if needed. The line is
/// rendered compactly and written with one `write_all` on an
/// append-mode handle, so concurrent appenders cannot interleave
/// within a line. Transient failures (including injected
/// `ledger.append` faults) are retried with bounded backoff via
/// `leo_fault::safe_io::retrying`; each attempt reopens the handle, so
/// the O_APPEND single-write protocol is preserved.
pub fn append(path: &Path, record: &Json) -> std::io::Result<()> {
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent)?;
        }
    }
    let mut line = record.render();
    line.push('\n');
    leo_fault::safe_io::retrying("ledger.append", || {
        let mut file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)?;
        file.write_all(line.as_bytes())
    })
}

/// Reads every parseable record from the ledger at `path`, oldest
/// first. Lines that fail to parse — truncated tails, corruption,
/// stray garbage — are skipped with a `log_warn!`; only opening or
/// reading the file itself can error.
pub fn read(path: &Path) -> std::io::Result<Vec<Json>> {
    let body = std::fs::read_to_string(path)?;
    let mut records = Vec::new();
    for (idx, line) in body.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        match Json::parse(line) {
            Ok(rec @ Json::Obj(_)) => records.push(rec),
            Ok(_) => {
                crate::log_warn!(
                    "ledger {}: line {} is not a JSON object; skipping",
                    path.display(),
                    idx + 1
                );
            }
            Err(err) => {
                crate::log_warn!(
                    "ledger {}: line {} unparseable ({err}); skipping",
                    path.display(),
                    idx + 1
                );
            }
        }
    }
    Ok(records)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::manifest::{run_manifest, RunInfo};

    fn tmp(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("leo_obs_ledger_{name}"));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn line_is_the_manifest_without_spans_plus_ts_unix() {
        let _lock = crate::test_lock();
        crate::set_enabled(true);
        crate::reset();
        {
            let _stage = crate::span::enter("stage.dataset");
            crate::scope::attribute_fanout(64, &[30, 50], 60);
        }
        let info = RunInfo {
            command: "all".into(),
            scale: "small".into(),
            seed: 7,
            threads: 2,
            argv: vec!["divide".into(), "all".into()],
            stages: vec!["dataset".into()],
        };
        let manifest = run_manifest(&info, 42.0);
        let line = project(&manifest, 1_700_000_000);
        let (Json::Obj(fields), Json::Obj(got)) = (&manifest, &line) else {
            panic!("manifest and line must be objects");
        };
        // Key for key: the manifest's fields in order, `spans` dropped,
        // the schema swapped and `ts_unix` after it.
        let mut want: Vec<(String, Json)> = fields
            .iter()
            .filter(|(key, _)| key != "spans")
            .cloned()
            .collect();
        assert_eq!(want[0].0, "schema");
        want[0].1 = Json::from(SCHEMA);
        want.insert(1, ("ts_unix".into(), Json::from(1_700_000_000u64)));
        assert_eq!(got, &want);
        assert!(
            line.render().contains("\"busy_ns\":80"),
            "stage attribution kept"
        );
        crate::reset();
    }

    #[test]
    fn append_then_read_round_trips() {
        let dir = tmp("roundtrip");
        let path = dir.join("runs.jsonl");
        for seed in 0..3u64 {
            let rec = Json::obj().set("schema", SCHEMA).set("seed", seed);
            append(&path, &rec).unwrap();
        }
        let got = read(&path).unwrap();
        assert_eq!(got.len(), 3);
        for (i, rec) in got.iter().enumerate() {
            assert_eq!(rec.get("seed").and_then(|v| v.as_u64()), Some(i as u64));
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_and_truncated_lines_are_skipped() {
        let dir = tmp("corrupt");
        let path = dir.join("runs.jsonl");
        append(&path, &Json::obj().set("ok", 1u64)).unwrap();
        // A truncated line (killed writer), pure garbage, a non-object,
        // and a blank line — all must be skipped, not panic.
        std::fs::OpenOptions::new()
            .append(true)
            .open(&path)
            .unwrap()
            .write_all(b"{\"truncated\": tr\nnot json at all\n42\n\n")
            .unwrap();
        append(&path, &Json::obj().set("ok", 2u64)).unwrap();
        let got = read(&path).unwrap();
        assert_eq!(got.len(), 2);
        assert_eq!(got[0].get("ok").and_then(|v| v.as_u64()), Some(1));
        assert_eq!(got[1].get("ok").and_then(|v| v.as_u64()), Some(2));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn concurrent_appends_stay_line_atomic() {
        let dir = tmp("concurrent");
        let path = dir.join("runs.jsonl");
        let threads = 8;
        let per_thread = 50;
        std::thread::scope(|scope| {
            for t in 0..threads {
                let path = path.clone();
                scope.spawn(move || {
                    for i in 0..per_thread {
                        // A payload long enough that torn writes would
                        // show up as parse failures.
                        let rec = Json::obj()
                            .set("schema", SCHEMA)
                            .set("writer", t as u64)
                            .set("i", i as u64)
                            .set("pad", "x".repeat(200));
                        append(&path, &rec).unwrap();
                    }
                });
            }
        });
        let got = read(&path).unwrap();
        assert_eq!(got.len(), threads * per_thread, "no line lost or torn");
        for rec in &got {
            assert_eq!(
                rec.get("pad").and_then(|v| v.as_str()).map(str::len),
                Some(200)
            );
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn missing_ledger_is_an_io_error() {
        let dir = tmp("missing");
        assert!(read(&dir.join("nope.jsonl")).is_err());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
