//! End-to-end tests of the `divide` binary: the top-level parser's
//! usage errors, the `--trace` exporter, every exit code of `divide
//! report` and `divide history`, the resource-telemetry surface
//! (manifest alloc/RSS fields, run-ledger appends, the trace memory
//! lane) together with its `DIVIDE_OBS`/`DIVIDE_ALLOC` off-switches,
//! the typed failures of injected faults, including an aborted run
//! that leaves its output and cache as they were and that a plain
//! rerun completes, and the removed variables that no longer do
//! anything.

use leo_obs::json::Json;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn divide() -> Command {
    Command::new(env!("CARGO_BIN_EXE_divide"))
}

fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("divide_cli_{name}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir
}

fn run(cmd: &mut Command) -> Output {
    cmd.output().expect("spawn divide")
}

/// A hand-built run manifest with exactly the fields `report` reads.
fn manifest_json(dataset_ms: f64, table1_ms: f64, hits: u64) -> String {
    format!(
        concat!(
            "{{\"schema\":\"leo-obs/run-manifest/v1\",\"wall_ms\":{},",
            "\"stages\":[",
            "{{\"name\":\"dataset\",\"wall_ms\":{},\"calls\":1}},",
            "{{\"name\":\"table1\",\"wall_ms\":{},\"calls\":1}}],",
            "\"metrics\":{{\"counters\":{{\"cache.hit\":{}}}}}}}"
        ),
        dataset_ms + table1_ms,
        dataset_ms,
        table1_ms,
        hits
    )
}

fn write(path: &Path, body: &str) {
    std::fs::write(path, body).expect("write fixture");
}

#[test]
fn usage_errors_exit_2_before_any_work() {
    let dir = tmp("usage");
    let cases: &[(&str, &[&str])] = &[
        ("removed --resume", &["--resume", "table1"]),
        ("removed --progress", &["--progress", "table1"]),
        (
            "removed --report-csv",
            &["--report-csv", "out.csv", "table1"],
        ),
        ("removed --last", &["--last", "3", "table1"]),
        ("unknown command", &["bogus"]),
        ("unknown flag", &["--bogus", "table1"]),
        ("bad scale", &["--scale", "bogus", "table1"]),
        ("zero threads", &["--threads", "0", "table1"]),
        ("trailing --threads", &["table1", "--threads"]),
        ("empty --trace=", &["--trace=", "table1"]),
        (
            "fault plan names no stage",
            &["--fault-plan", "seed=1;stage.fig9:nth=1", "table1"],
        ),
        ("no command", &[]),
    ];
    for (i, (case, args)) in cases.iter().enumerate() {
        let out_dir = dir.join(format!("out{i}"));
        let out = run(divide()
            .args(["--scale", "small", "--out"])
            .arg(&out_dir)
            .args(*args));
        assert_eq!(out.status.code(), Some(2), "{case}: {out:?}");
        let stderr = String::from_utf8_lossy(&out.stderr).to_string();
        assert!(stderr.starts_with("divide: "), "{case}: {stderr}");
        assert!(!out_dir.exists(), "{case}: work started before the error");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn report_exit_codes_cover_ok_regression_io_and_usage() {
    let dir = tmp("report");
    let base = dir.join("base.json");
    let ok = dir.join("ok.json");
    let slow = dir.join("slow.json");
    write(&base, &manifest_json(400.0, 120.0, 1));
    // +10% stays under the default +20% gate.
    write(&ok, &manifest_json(440.0, 120.0, 1));
    // The dataset stage triples: regression.
    write(&slow, &manifest_json(1200.0, 120.0, 0));

    let out = run(divide()
        .args(["report", "--baseline"])
        .arg(&base)
        .arg("--candidate")
        .arg(&ok));
    assert_eq!(
        out.status.code(),
        Some(0),
        "within-threshold diff must pass"
    );
    let stdout = String::from_utf8_lossy(&out.stdout).to_string();
    assert!(stdout.contains("dataset"), "table lists stages: {stdout}");
    assert!(!stdout.contains("REGRESSED"), "no regression row: {stdout}");

    let out = run(divide()
        .args(["report", "--baseline"])
        .arg(&base)
        .arg("--candidate")
        .arg(&slow));
    assert_eq!(out.status.code(), Some(3), "regression must exit 3");
    let stdout = String::from_utf8_lossy(&out.stdout).to_string();
    assert!(stdout.contains("REGRESSED"), "regression flagged: {stdout}");
    // Counters that differ show up in the context table.
    assert!(
        stdout.contains("cache.hit"),
        "changed counter shown: {stdout}"
    );

    // A generous threshold lets the same pair pass.
    let out = run(divide()
        .args(["report", "--baseline"])
        .arg(&base)
        .arg("--candidate")
        .arg(&slow)
        .args(["--max-regress-pct", "500"]));
    assert_eq!(out.status.code(), Some(0), "threshold is respected");

    let out = run(divide()
        .args(["report", "--baseline"])
        .arg(dir.join("missing.json"))
        .arg("--candidate")
        .arg(&ok));
    assert_eq!(out.status.code(), Some(1), "unreadable input must exit 1");

    let out = run(divide().args(["report", "--candidate"]).arg(&ok));
    assert_eq!(out.status.code(), Some(2), "missing --baseline is usage");

    let _ = std::fs::remove_dir_all(&dir);
}

/// A hand-built `leo-obs/run-ledger/v3` line as a real run appends it
/// (a run manifest without its span tree, plus `ts_unix`).
fn ledger_line(command: &str, wall_ms: f64, peak_heap: u64) -> String {
    format!(
        concat!(
            "{{\"schema\":\"leo-obs/run-ledger/v3\",\"ts_unix\":1,",
            "\"command\":\"{}\",\"scale\":\"small\",\"seed\":7,\"threads\":2,",
            "\"argv\":[\"divide\"],\"wall_ms\":{},",
            "\"stages\":[{{\"name\":\"dataset\",\"wall_ms\":{},\"calls\":1,",
            "\"alloc_bytes\":1000,\"alloc_count\":10,\"peak_heap_delta\":{}}}],",
            "\"resources\":{{\"peak_heap_bytes\":{}}},",
            "\"metrics\":{{\"counters\":{{\"io.bytes_read\":0,\"io.bytes_written\":0}}}}}}\n"
        ),
        command,
        wall_ms,
        wall_ms / 2.0,
        peak_heap,
        peak_heap
    )
}

#[test]
fn history_exit_codes_cover_ok_regression_io_and_usage() {
    let dir = tmp("history");
    let ledger = dir.join("runs.jsonl");

    // Three steady runs: the newest sits on the prior median — exit 0.
    let mut body = String::new();
    for wall in [400.0, 410.0, 405.0] {
        body.push_str(&ledger_line("all", wall, 64 << 20));
    }
    write(&ledger, &body);
    let out = run(divide().args(["history", "--ledger"]).arg(&ledger));
    assert_eq!(
        out.status.code(),
        Some(0),
        "steady history must pass: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout).to_string();
    assert!(
        stdout.contains("dataset wall"),
        "trend table rows: {stdout}"
    );
    assert!(stdout.contains("total wall"), "trend table rows: {stdout}");
    assert!(stdout.contains("run peak heap"), "memory rows: {stdout}");

    // Inject a 3x wall + 3x heap run: regression, exit 3.
    body.push_str(&ledger_line("all", 1200.0, 192 << 20));
    write(&ledger, &body);
    let out = run(divide().args(["history", "--ledger"]).arg(&ledger));
    assert_eq!(out.status.code(), Some(3), "regression must exit 3");
    let stdout = String::from_utf8_lossy(&out.stdout).to_string();
    assert!(stdout.contains("REGRESSED"), "regression flagged: {stdout}");

    // A generous threshold lets the same ledger pass.
    let out = run(divide()
        .args(["history", "--ledger"])
        .arg(&ledger)
        .args(["--max-regress-pct", "500"]));
    assert_eq!(out.status.code(), Some(0), "threshold is respected");

    // Runs of a different identity are ignored, not compared against.
    body.push_str(&ledger_line("table1", 1.0, 1024));
    write(&ledger, &body);
    let out = run(divide().args(["history", "--ledger"]).arg(&ledger));
    assert_eq!(
        out.status.code(),
        Some(0),
        "single table1 run has no history to regress against"
    );

    let out = run(divide()
        .args(["history", "--ledger"])
        .arg(dir.join("missing.jsonl")));
    assert_eq!(out.status.code(), Some(1), "unreadable ledger must exit 1");

    // No --ledger and no cache: nowhere to read.
    let out = run(divide().args(["history", "--no-cache"]));
    assert_eq!(
        out.status.code(),
        Some(2),
        "no resolvable ledger is a usage error"
    );

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn runs_append_to_the_ledger_unless_obs_is_off() {
    let dir = tmp("ledger_append");
    let cache = dir.join("cache");
    let base = |dir: &Path, cache: &Path| {
        let mut c = divide();
        c.args(["--scale", "small", "--out"])
            .arg(dir)
            .arg("--cache")
            .arg(cache)
            .arg("table1");
        c
    };

    // Three normal runs append three schema-tagged records: the first
    // generates the dataset, the other two load its snapshot.
    for _ in 0..3 {
        let out = run(&mut base(&dir, &cache));
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
    }
    let ledger = cache.join("runs.jsonl");
    let body = std::fs::read_to_string(&ledger).expect("runs.jsonl appended");
    let lines: Vec<&str> = body.lines().collect();
    assert_eq!(lines.len(), 3, "one record per run: {body}");
    for line in &lines {
        let rec = Json::parse(line).expect("ledger line parses");
        assert_eq!(
            rec.get("schema").and_then(Json::as_str),
            Some("leo-obs/run-ledger/v3")
        );
        assert_eq!(rec.get("command").and_then(Json::as_str), Some("table1"));
        let dataset = match rec.get("stages") {
            Some(Json::Arr(stages)) => stages
                .iter()
                .find(|s| s.get("name").and_then(Json::as_str) == Some("dataset")),
            _ => None,
        };
        assert!(
            dataset
                .and_then(|s| s.get("wall_ms"))
                .and_then(Json::as_f64)
                .is_some(),
            "per-stage wall recorded: {line}"
        );
        assert!(rec.get("spans").is_none(), "no span tree: {line}");
    }

    // `history` over its own appends: the newest run loaded the
    // dataset, so it is gated against the other load and the generate
    // is left out. The thresholds cannot trip, so the check is about
    // plumbing and exit codes, not the wall-clock noise between two
    // real runs.
    let out = run(divide().args(["history", "--ledger"]).arg(&ledger).args([
        "--max-regress-pct",
        "1000000",
        "--min-wall-ms",
        "1000000",
    ]));
    assert_eq!(
        out.status.code(),
        Some(0),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("dataset loaded"), "{stdout}");
    assert!(
        stdout.contains("over 2 run(s), 1 other run(s) ignored"),
        "{stdout}"
    );

    // DIVIDE_OBS=off: run succeeds, nothing is appended.
    let out = run(base(&dir, &cache).env("DIVIDE_OBS", "off"));
    assert!(out.status.success());
    let body = std::fs::read_to_string(&ledger).expect("ledger still there");
    assert_eq!(body.lines().count(), 3, "DIVIDE_OBS=off must not append");

    // --ledger FILE redirects the append away from the cache.
    let alt = dir.join("alt.jsonl");
    let out = run(base(&dir, &cache).arg("--ledger").arg(&alt));
    assert!(out.status.success());
    assert!(alt.is_file(), "--ledger names the destination");
    let body = std::fs::read_to_string(&ledger).expect("ledger still there");
    assert_eq!(body.lines().count(), 3, "cache ledger untouched");

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn off_switches_read_empty_zero_off_and_false_in_any_case() {
    let dir = tmp("switches");
    // DIVIDE_ALLOC=0 turns allocation tracking off: no heap telemetry.
    let out = run(divide()
        .args(["--scale", "small", "--no-cache", "--out"])
        .arg(dir.join("alloc_off"))
        .env("DIVIDE_ALLOC", "0")
        .arg("table1"));
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let manifest =
        std::fs::read_to_string(dir.join("alloc_off/run_manifest.json")).expect("manifest written");
    let manifest = Json::parse(&manifest).expect("manifest parses");
    let resources = manifest.get("resources").expect("resources section");
    assert!(
        resources.get("alloc_calls").is_none(),
        "DIVIDE_ALLOC=0 left heap telemetry on"
    );

    // DIVIDE_OBS=OFF turns observability off: no ledger line appended.
    let cache = dir.join("cache");
    let out = run(divide()
        .args(["--scale", "small", "--out"])
        .arg(dir.join("obs_off"))
        .arg("--cache")
        .arg(&cache)
        .env("DIVIDE_OBS", "OFF")
        .arg("table1"));
    assert!(out.status.success());
    assert!(
        !cache.join("runs.jsonl").exists(),
        "DIVIDE_OBS=OFF appended a ledger line"
    );

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn manifest_carries_alloc_and_rss_telemetry_unless_disabled() {
    let dir = tmp("telemetry");
    let out = run(divide()
        .args(["--scale", "small", "--no-cache", "--out"])
        .arg(&dir)
        .env_remove("DIVIDE_ALLOC")
        .arg("table1"));
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let manifest =
        Json::parse(&std::fs::read_to_string(dir.join("run_manifest.json")).expect("manifest"))
            .expect("manifest parses");
    let stages = match manifest.get("stages") {
        Some(Json::Arr(stages)) => stages,
        other => panic!("stages array expected, got {other:?}"),
    };
    for stage in stages {
        let name = stage.get("name").and_then(Json::as_str).unwrap_or("?");
        for field in ["alloc_bytes", "alloc_count", "peak_heap_delta"] {
            let v = stage.get(field).and_then(Json::as_u64);
            assert!(
                v.is_some_and(|v| v > 0),
                "stage {name} field {field} positive, got {v:?}"
            );
        }
    }
    let resources = manifest.get("resources").expect("resources section");
    for field in ["alloc_calls", "alloc_bytes_total", "peak_heap_bytes"] {
        let v = resources.get(field).and_then(Json::as_u64);
        assert!(v.is_some_and(|v| v > 0), "resources.{field} got {v:?}");
    }
    if cfg!(target_os = "linux") {
        let v = resources.get("peak_rss_kb").and_then(Json::as_u64);
        assert!(v.is_some_and(|v| v > 0), "resources.peak_rss_kb: {v:?}");
    }

    // DIVIDE_ALLOC=off: run succeeds, heap fields are absent — absent
    // rather than zero, so consumers can tell "not measured" apart
    // from "measured nothing".
    let dir_off = tmp("telemetry_off");
    let out = run(divide()
        .args(["--scale", "small", "--no-cache", "--out"])
        .arg(&dir_off)
        .env("DIVIDE_ALLOC", "off")
        .arg("table1"));
    assert!(out.status.success());
    let manifest =
        Json::parse(&std::fs::read_to_string(dir_off.join("run_manifest.json")).expect("manifest"))
            .expect("manifest parses");
    let stages = match manifest.get("stages") {
        Some(Json::Arr(stages)) => stages,
        other => panic!("stages array expected, got {other:?}"),
    };
    for stage in stages {
        assert!(
            stage.get("alloc_bytes").is_none(),
            "DIVIDE_ALLOC=off leaves no per-stage alloc fields"
        );
    }
    let resources = manifest.get("resources").expect("resources section");
    assert!(
        resources.get("alloc_calls").is_none(),
        "DIVIDE_ALLOC=off leaves no heap telemetry"
    );

    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&dir_off);
}

#[test]
fn trace_contains_heap_counter_events_on_the_memory_lane() {
    let dir = tmp("trace_mem");
    let out = run(divide()
        .args(["--scale", "small", "--no-cache", "--trace", "--out"])
        .arg(&dir)
        .env_remove("DIVIDE_ALLOC")
        .arg("table1"));
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let body = std::fs::read_to_string(dir.join("trace.json")).expect("trace.json");
    let doc = Json::parse(&body).expect("trace.json parses");
    let events = match doc.get("traceEvents") {
        Some(Json::Arr(events)) => events,
        other => panic!("traceEvents array expected, got {other:?}"),
    };
    let heap_samples: Vec<&Json> = events
        .iter()
        .filter(|e| {
            e.get("ph").and_then(Json::as_str) == Some("C")
                && e.get("name").and_then(Json::as_str) == Some("heap_bytes")
        })
        .collect();
    assert!(
        heap_samples.len() >= 2,
        "span boundaries sample heap onto the mem lane, got {}",
        heap_samples.len()
    );
    assert!(
        heap_samples.iter().any(|e| {
            e.get("args")
                .and_then(|a| a.get("bytes"))
                .and_then(Json::as_u64)
                .is_some_and(|b| b > 0)
        }),
        "heap samples carry a bytes series"
    );
    // The counter lane is registered with a thread_name like the
    // worker lanes, so Perfetto shows it as a named track.
    let lanes: Vec<String> = events
        .iter()
        .filter(|e| {
            e.get("ph").and_then(Json::as_str) == Some("M")
                && e.get("name").and_then(Json::as_str) == Some("thread_name")
        })
        .filter_map(|e| e.get("args")?.get("name")?.as_str().map(str::to_string))
        .collect();
    assert!(lanes.contains(&"mem".to_string()), "mem lane in {lanes:?}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn trace_flag_writes_chrome_trace_with_worker_lanes_and_folded_stacks() {
    let dir = tmp("trace");
    let out = run(divide()
        .args([
            "--scale",
            "small",
            "--threads",
            "4",
            "--no-cache",
            "--trace",
            "--out",
        ])
        .arg(&dir)
        .arg("table1"));
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    let body = std::fs::read_to_string(dir.join("trace.json")).expect("trace.json written");
    let doc = Json::parse(&body).expect("trace.json is valid JSON");
    let events = match doc.get("traceEvents") {
        Some(Json::Arr(events)) => events,
        other => panic!("traceEvents array expected, got {other:?}"),
    };
    assert!(!events.is_empty());
    let phase = |e: &Json| e.get("ph").and_then(Json::as_str).unwrap_or("").to_string();
    assert!(events.iter().any(|e| phase(e) == "B"));
    assert!(events.iter().any(|e| phase(e) == "E"));
    // One named lane per worker index at --threads 4, plus main.
    let lanes: Vec<String> = events
        .iter()
        .filter(|e| phase(e) == "M" && e.get("name").and_then(Json::as_str) == Some("thread_name"))
        .filter_map(|e| e.get("args")?.get("name")?.as_str().map(str::to_string))
        .collect();
    for lane in ["main", "worker-0", "worker-1", "worker-2", "worker-3"] {
        assert!(
            lanes.contains(&lane.to_string()),
            "lane {lane} in {lanes:?}"
        );
    }

    // Folded stacks: every top-level manifest span total must equal the
    // sum of the *main-lane* folded lines containing that frame
    // (ISSUE: within 1%; the shared-timestamp design makes it exact,
    // so assert tight). Worker lanes are excluded: chunks carry their
    // owning stage's path as parent frames there, and that busy time
    // already lives inside the stage's inclusive main-lane total.
    let folded = std::fs::read_to_string(dir.join("trace.folded")).expect("trace.folded");
    let manifest =
        Json::parse(&std::fs::read_to_string(dir.join("run_manifest.json")).expect("manifest"))
            .expect("manifest parses");
    let spans = match manifest.get("spans") {
        Some(Json::Arr(spans)) => spans,
        other => panic!("spans array expected, got {other:?}"),
    };
    for span in spans {
        let name = span.get("name").and_then(Json::as_str).expect("span name");
        let total = span
            .get("total_ns")
            .and_then(Json::as_f64)
            .expect("total_ns");
        let mut folded_ns = 0.0;
        for line in folded.lines() {
            let (stack, ns) = line.rsplit_once(' ').expect("folded line");
            let mut frames = stack.split(';');
            if frames.next() != Some("main") {
                continue;
            }
            if frames.any(|frame| frame == name) {
                folded_ns += ns.parse::<f64>().expect("folded ns");
            }
        }
        let rel = (folded_ns - total).abs() / total.max(1.0);
        assert!(
            rel <= 0.01,
            "span {name}: manifest {total} ns vs folded {folded_ns} ns (rel {rel:.4})"
        );
    }

    // Worker lanes telescope: at least one chunk stack nests under the
    // stage that dispatched it (lane;stage.*;...;parallel.*).
    assert!(
        folded
            .lines()
            .any(|l| l.starts_with("worker-") && l.contains(";stage.")),
        "worker chunks must carry their owning stage as parent frames:\n{folded}"
    );

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn trace_file_argument_chooses_the_destination_and_removed_env_vars_do_nothing() {
    let dir = tmp("trace_dest");
    let custom = dir.join("custom_timeline.json");
    let out = run(divide()
        .args(["--scale", "small", "--no-cache", "--out"])
        .arg(&dir)
        .arg(format!("--trace={}", custom.display()))
        .arg("table1"));
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(custom.is_file(), "--trace=FILE writes to FILE");
    assert!(
        dir.join("custom_timeline.folded").is_file(),
        "folded stacks land beside the chrome trace"
    );
    assert!(
        !dir.join("trace.json").exists(),
        "default destination unused when FILE given"
    );

    // The removed DIVIDE_TRACE and DIVIDE_FAULT variables do nothing:
    // no trace files, and no fault (under --fault-plan, this plan
    // aborts table1 with exit 1).
    let env_dir = tmp("trace_env");
    let removed = [
        ("DIVIDE_TRACE", "1"),
        ("DIVIDE_FAULT", "seed=1;stage.table1:nth=1"),
    ];
    for (var, value) in removed {
        let out = run(divide()
            .args(["--scale", "small", "--no-cache", "--out"])
            .arg(&env_dir)
            .env(var, value)
            .arg("table1"));
        assert_eq!(out.status.code(), Some(0), "{var}: {out:?}");
        for name in ["trace.json", "trace.folded"] {
            assert!(!env_dir.join(name).exists(), "{var} alone wrote {name}");
        }
    }

    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&env_dir);
}

#[test]
fn no_trace_flag_writes_no_trace_files() {
    let dir = tmp("no_trace");
    let out = run(divide()
        .args(["--scale", "small", "--no-cache", "--out"])
        .arg(&dir)
        .arg("table1"));
    assert!(out.status.success());
    assert!(!dir.join("trace.json").exists());
    assert!(!dir.join("trace.folded").exists());
    let _ = std::fs::remove_dir_all(&dir);
}

/// Byte-compares two artifact directories, ignoring the named files
/// (the manifest carries timings and may be degraded by injected
/// faults; everything else must match exactly).
fn assert_dirs_identical(a: &Path, b: &Path, exclude: &[&str]) {
    let names = |dir: &Path| -> Vec<String> {
        let mut v: Vec<String> = std::fs::read_dir(dir)
            .expect("read dir")
            .filter_map(|e| e.ok())
            .filter(|e| e.path().is_file())
            .map(|e| e.file_name().to_string_lossy().to_string())
            .filter(|n| !exclude.contains(&n.as_str()))
            .collect();
        v.sort();
        v
    };
    let (na, nb) = (names(a), names(b));
    assert_eq!(na, nb, "artifact sets differ between {a:?} and {b:?}");
    for name in &na {
        let ba = std::fs::read(a.join(name)).expect("read a");
        let bb = std::fs::read(b.join(name)).expect("read b");
        assert_eq!(ba, bb, "artifact {name} differs between {a:?} and {b:?}");
    }
}

/// Every file under `dir`, recursively, by path relative to `dir`: its
/// bytes and, on Unix, its inode, which a rename over the file replaces
/// even when the bytes are the same.
fn tree(dir: &Path) -> std::collections::BTreeMap<PathBuf, (Vec<u8>, u64)> {
    let mut files = std::collections::BTreeMap::new();
    let mut pending = vec![dir.to_path_buf()];
    while let Some(at) = pending.pop() {
        for entry in std::fs::read_dir(&at).expect("read dir").flatten() {
            let path = entry.path();
            if path.is_dir() {
                pending.push(path);
            } else {
                let bytes = std::fs::read(&path).expect("read file");
                let meta = entry.metadata().expect("metadata");
                #[cfg(unix)]
                let inode = std::os::unix::fs::MetadataExt::ino(&meta);
                #[cfg(not(unix))]
                let inode = meta.len();
                let name = path.strip_prefix(dir).expect("inside").to_path_buf();
                files.insert(name, (bytes, inode));
            }
        }
    }
    files
}

#[test]
fn a_plain_rerun_completes_an_aborted_run_byte_identically() {
    let reference = tmp("rerun_ref");
    let out = run(divide()
        .args(["--scale", "small", "--no-cache", "--out"])
        .arg(&reference)
        .arg("all"));
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    // A run that aborts before its commit leaves no file: not the
    // dataset stage's, not qoe's on the main lane at 1 thread, and not
    // orbit-validate's on the side lane at 2 threads, where the main
    // lane may have staged the outputs of every stage before it.
    let dir = tmp("rerun_cut");
    let side = tmp("rerun_side");
    for (out_dir, threads, plan, aborted) in [
        (&dir, "1", "seed=3;stage.dataset:nth=1", "dataset"),
        (&dir, "1", "seed=3;stage.qoe:nth=1", "qoe"),
        (
            &side,
            "2",
            "seed=3;stage.orbit-validate:nth=1,mode=panic",
            "orbit-validate",
        ),
    ] {
        let out = run(divide()
            .args(["--scale", "small", "--no-cache", "--threads", threads])
            .arg("--out")
            .arg(out_dir)
            .args(["--fault-plan", plan, "all"]));
        assert_eq!(out.status.code(), Some(1), "{plan}: typed abort exits 1");
        let stderr = String::from_utf8_lossy(&out.stderr).to_string();
        assert!(
            stderr.contains(&format!("stage {aborted} aborted")),
            "{plan}: {stderr}"
        );
        let left = tree(out_dir);
        assert!(left.is_empty(), "{plan} left {:?}", left.keys());
    }

    // A plain rerun into the same directory completes the run, and its
    // artifacts match an uninterrupted run byte for byte.
    for dir in [&dir, &side] {
        let out = run(divide()
            .args(["--scale", "small", "--no-cache", "--out"])
            .arg(dir)
            .arg("all"));
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        assert_dirs_identical(&reference, dir, &["run_manifest.json"]);
    }

    let _ = std::fs::remove_dir_all(&reference);
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&side);
}

#[test]
fn a_failed_run_leaves_its_output_and_cache_as_they_were() {
    // A complete run fills --out and its default cache inside it:
    // artifacts, the manifest, the snapshots and the ledger.
    let dir = tmp("unchanged");
    let out = run(divide()
        .args(["--scale", "small", "--out"])
        .arg(&dir)
        .arg("all"));
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let before = tree(&dir);
    assert!(before.keys().any(|p| p.ends_with("runs.jsonl")));
    assert!(before
        .keys()
        .any(|p| p.extension() == Some("snap".as_ref())));

    let unchanged = |what: &str| {
        let after = tree(&dir);
        assert_eq!(
            after.keys().collect::<Vec<_>>(),
            before.keys().collect::<Vec<_>>(),
            "{what}: the set of files changed"
        );
        for (path, file) in &before {
            assert!(after[path] == *file, "{what}: {path:?} was rewritten");
        }
    };

    // Each rerun fails at a different point: a main-lane stage abort,
    // a side-lane panic, and a failed fsync in the commit itself (the
    // third file staged, fig1_cdf.svg on this warm run).
    for (threads, plan, said) in [
        ("1", "seed=5;stage.export:nth=1", "stage export aborted"),
        (
            "2",
            "seed=5;stage.orbit-validate:nth=1,mode=panic",
            "stage orbit-validate aborted",
        ),
        ("1", "seed=5;io.fsync:nth=3", "cannot write"),
    ] {
        let out = run(divide()
            .args(["--scale", "small", "--threads", threads, "--out"])
            .arg(&dir)
            .args(["--fault-plan", plan, "all"]));
        assert_eq!(out.status.code(), Some(1), "{plan}: exits 1");
        let stderr = String::from_utf8_lossy(&out.stderr).to_string();
        assert!(stderr.contains(said), "{plan}: {stderr}");
        assert!(!stderr.contains("panicked at"), "{plan}: {stderr}");
        unchanged(plan);
    }
    // A console write that fails ends the run as the typed abort of the
    // stage whose text it was, not as a panic.
    if let Ok(full) = std::fs::OpenOptions::new().write(true).open("/dev/full") {
        let out = run(divide()
            .args(["--scale", "small", "--out"])
            .arg(&dir)
            .arg("all")
            .stdout(full));
        assert_eq!(out.status.code(), Some(1), "stdout on /dev/full: exits 1");
        let stderr = String::from_utf8_lossy(&out.stderr).to_string();
        assert!(stderr.contains("stage table1 aborted: "), "{stderr}");
        assert!(!stderr.contains("panicked at"), "{stderr}");
        unchanged("stdout on /dev/full");
    }

    // A cold run that fails leaves no snapshot in its fresh cache.
    let cold = tmp("unchanged_cold");
    let cache = cold.join("cache");
    let out = run(divide()
        .args(["--scale", "small", "--out"])
        .arg(cold.join("out"))
        .arg("--cache")
        .arg(&cache)
        .args(["--fault-plan", "seed=5;stage.export:nth=1", "all"]));
    assert_eq!(out.status.code(), Some(1));
    let left = tree(&cold);
    assert!(
        left.is_empty(),
        "the failed cold run left {:?}",
        left.keys()
    );

    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&cold);
}

/// The stages `divide all` runs, in `STAGES` order
/// (`crates/cli/src/stages.rs`), after the dataset build.
const ALL_STAGES: [&str; 17] = [
    "dataset",
    "table1",
    "table2",
    "fig1",
    "fig2",
    "fig3",
    "fig4",
    "findings",
    "qoe",
    "orbit-validate",
    "strict",
    "sensitivity",
    "latency",
    "uplink",
    "cost",
    "timeline",
    "export",
];

#[test]
fn all_runs_its_side_lane_on_the_pool_worker_and_records_every_stage_once_in_order() {
    let dir = tmp("lanes");
    let out = run(divide()
        .args([
            "--scale",
            "small",
            "--threads",
            "2",
            "--no-cache",
            "--trace",
            "--out",
        ])
        .arg(&dir)
        .arg("all"));
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    // Span events land on exactly two lanes: the caller's and the one
    // pool worker a 2-thread run prewarms. A side lane on a thread of
    // its own would show a third.
    let body = std::fs::read_to_string(dir.join("trace.json")).expect("trace.json");
    let doc = Json::parse(&body).expect("trace.json parses");
    let Some(Json::Arr(events)) = doc.get("traceEvents") else {
        panic!("traceEvents array expected");
    };
    let field = |e: &Json, key: &str| e.get(key).and_then(Json::as_str).map(str::to_string);
    let lane_of: std::collections::BTreeMap<u64, String> = events
        .iter()
        .filter(|e| field(e, "name").as_deref() == Some("thread_name"))
        .filter_map(|e| Some((e.get("tid")?.as_u64()?, field(e.get("args")?, "name")?)))
        .collect();
    let span_lanes: std::collections::BTreeSet<&str> = events
        .iter()
        .filter(|e| matches!(field(e, "ph").as_deref(), Some("B" | "E")))
        .filter_map(|e| Some(lane_of.get(&e.get("tid")?.as_u64()?)?.as_str()))
        .collect();
    assert_eq!(
        span_lanes.into_iter().collect::<Vec<_>>(),
        ["leo-par-0", "main"]
    );

    // The manifest lists each stage once, in STAGES order. A command
    // stage records its body and its output as two calls, each with
    // allocation stats from its own lane; the side lane's fan-outs, and
    // at 2 threads the main lane's, run serially.
    let manifest =
        Json::parse(&std::fs::read_to_string(dir.join("run_manifest.json")).expect("manifest"))
            .expect("manifest parses");
    let Some(Json::Arr(stages)) = manifest.get("stages") else {
        panic!("stages array expected");
    };
    let names: Vec<String> = stages.iter().filter_map(|s| field(s, "name")).collect();
    assert_eq!(names, ALL_STAGES);
    for stage in stages {
        let name = field(stage, "name").unwrap_or_default();
        let calls = stage.get("calls").and_then(Json::as_u64);
        assert_eq!(calls, Some(if name == "dataset" { 1 } else { 2 }), "{name}");
        for key in ["alloc_bytes", "alloc_count", "peak_heap_delta"] {
            let value = stage.get(key).and_then(Json::as_u64).unwrap_or(0);
            assert!(value > 0, "{name}: {key} = {value}");
        }
        if name != "dataset" {
            let pooled = stage
                .get("parallel")
                .and_then(|p| p.get("fanouts"))
                .and_then(Json::as_u64);
            assert!(matches!(pooled, None | Some(0)), "{name}: {pooled:?}");
        }
    }
    // The run's one commit is a top-level span of its own, and no stage.
    let Some(Json::Arr(spans)) = manifest.get("spans") else {
        panic!("spans array expected");
    };
    let commits: Vec<Option<u64>> = spans
        .iter()
        .filter(|s| field(s, "name").as_deref() == Some("commit"))
        .map(|s| s.get("calls").and_then(Json::as_u64))
        .collect();
    assert_eq!(commits, [Some(1)]);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn degraded_observability_never_fails_the_run() {
    let dir = tmp("degraded");
    let cache = dir.join("cache");
    let out = run(divide()
        .args(["--scale", "small", "--out"])
        .arg(&dir)
        .arg("--cache")
        .arg(&cache)
        .args(["--fault-plan", "seed=9;ledger.append:p=1", "table1"]));
    assert!(
        out.status.success(),
        "dead ledger must not fail the run: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let manifest =
        Json::parse(&std::fs::read_to_string(dir.join("run_manifest.json")).expect("manifest"))
            .expect("manifest parses");
    let degraded = manifest.get("degraded").expect("degraded section present");
    let reason = degraded.get("ledger").and_then(Json::as_str).unwrap_or("");
    assert!(
        reason.contains("injected fault at ledger.append"),
        "degradation reason recorded: {reason:?}"
    );
    let counters = manifest
        .get("metrics")
        .and_then(|m| m.get("counters"))
        .expect("counters");
    assert!(
        counters
            .get("fault.injected")
            .and_then(Json::as_u64)
            .is_some_and(|v| v > 0),
        "fault.* counters merged into the manifest"
    );
    assert!(
        counters
            .get("degraded.ledger")
            .and_then(Json::as_u64)
            .is_some_and(|v| v > 0),
        "degraded.* counters merged into the manifest"
    );

    // A fault-free run has no degraded section at all.
    let clean = tmp("degraded_clean");
    let out = run(divide()
        .args(["--scale", "small", "--no-cache", "--out"])
        .arg(&clean)
        .arg("table1"));
    assert!(out.status.success());
    let manifest =
        Json::parse(&std::fs::read_to_string(clean.join("run_manifest.json")).expect("manifest"))
            .expect("manifest parses");
    assert!(
        manifest.get("degraded").is_none(),
        "clean runs carry no degraded section"
    );

    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&clean);
}

#[test]
fn a_failed_snapshot_commit_warns_and_keeps_the_artifacts() {
    let reference = tmp("snap_fail_ref");
    let out = run(divide()
        .args(["--scale", "small", "--no-cache", "--out"])
        .arg(&reference)
        .arg("all"));
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    // A cold `all` commits its 18 artifacts, then its two new
    // snapshots: fsync call 19 is the dataset snapshot's.
    let dir = tmp("snap_fail");
    let cache = dir.join("cache");
    let out = run(divide()
        .args(["--scale", "small", "--out"])
        .arg(&dir)
        .arg("--cache")
        .arg(&cache)
        .args(["--fault-plan", "seed=6;io.fsync:nth=19", "all"]));
    let stderr = String::from_utf8_lossy(&out.stderr).to_string();
    assert!(
        out.status.success(),
        "a cache write must not fail the run: {stderr}"
    );
    assert!(
        stderr.contains("cache: cannot write") && stderr.contains(".snap"),
        "{stderr}"
    );
    assert_dirs_identical(&reference, &dir, &["run_manifest.json"]);
    // The failed fsync drops both snapshots; the ledger line lands.
    let cached: Vec<PathBuf> = tree(&cache).into_keys().collect();
    assert_eq!(cached, [PathBuf::from("runs.jsonl")]);
    let manifest =
        Json::parse(&std::fs::read_to_string(dir.join("run_manifest.json")).expect("manifest"))
            .expect("manifest parses");
    let reason = manifest
        .get("degraded")
        .and_then(|d| d.get("cache"))
        .and_then(Json::as_str)
        .unwrap_or("");
    assert!(reason.contains("injected fault at io.fsync"), "{reason:?}");
    // Neither snapshot landed, so the cache wrote nothing.
    let written = manifest
        .get("metrics")
        .and_then(|m| m.get("counters"))
        .and_then(|c| c.get("cache.bytes_written"))
        .and_then(Json::as_u64)
        .unwrap_or(0);
    assert_eq!(written, 0, "cache.bytes_written counts unlanded snapshots");

    let _ = std::fs::remove_dir_all(&reference);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn invalid_fault_plan_is_a_usage_error() {
    for bad in [
        "no-seed-here",
        "seed=1;bogus.site:p=0.5",
        "seed=1;io.write:p=1.5",
        "seed=1;io.write:nth=0",
        "seed=1;io.write:p=0.5,mode=frobnicate",
    ] {
        let out = run(divide().args(["--fault-plan", bad, "table1"]));
        assert_eq!(out.status.code(), Some(2), "plan {bad:?} must be usage");
        let stderr = String::from_utf8_lossy(&out.stderr).to_string();
        assert!(
            stderr.contains("invalid fault plan"),
            "plan {bad:?}: {stderr}"
        );
    }
}

#[test]
fn exhausted_write_retries_exit_typed_and_leave_no_tmp() {
    let dir = tmp("torn_write");
    let out = run(divide()
        .args(["--scale", "small", "--no-cache", "--out"])
        .arg(&dir)
        .args(["--fault-plan", "seed=4;io.rename:p=1", "table2"]));
    assert_eq!(out.status.code(), Some(1), "exhausted retries exit 1");
    let stderr = String::from_utf8_lossy(&out.stderr).to_string();
    assert!(stderr.contains("cannot write"), "typed error: {stderr}");
    assert!(
        !stderr.contains("panicked at"),
        "no raw panic output: {stderr}"
    );
    for entry in std::fs::read_dir(&dir).expect("read out dir") {
        let name = entry
            .expect("entry")
            .file_name()
            .to_string_lossy()
            .to_string();
        assert!(
            !name.contains(".tmp"),
            "no staging file may survive: {name}"
        );
    }
    assert!(
        !dir.join("table2.csv").exists(),
        "no torn artifact under the final name"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn removed_env_vars_change_nothing() {
    let dir = tmp("removed_env");
    let elsewhere = dir.join("elsewhere.jsonl");
    // Each row sets one removed variable alone, on a run it used to
    // change: DIVIDE_LEDGER moved the ledger append to its path,
    // DIVIDE_POOL_TIMEOUT_MS=1 armed a watchdog that exited 1 when the
    // injected 300 ms delay stalled chunk 1 of the first fan-out, and a
    // non-numeric DIVIDE_PAR_THRESHOLD_NS was a usage error (exit 2).
    let rows: [(&str, &std::ffi::OsStr, &[&str]); 3] = [
        ("DIVIDE_LEDGER", elsewhere.as_os_str(), &["table1"]),
        ("DIVIDE_PAR_THRESHOLD_NS", "abc".as_ref(), &["table1"]),
        (
            "DIVIDE_POOL_TIMEOUT_MS",
            "1".as_ref(),
            &[
                "--threads",
                "4",
                "--fault-plan",
                "seed=2;pool.chunk:nth=2,mode=delay,delay_ms=300",
                "table1",
            ],
        ),
    ];
    for (i, (var, value, args)) in rows.into_iter().enumerate() {
        let cache = dir.join(format!("cache{i}"));
        let out = run(divide()
            .args(["--scale", "small", "--out"])
            .arg(dir.join(format!("out{i}")))
            .arg("--cache")
            .arg(&cache)
            .env(var, value)
            .args(args));
        assert_eq!(
            out.status.code(),
            Some(0),
            "{var}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        let ledger = std::fs::read_to_string(cache.join("runs.jsonl"));
        assert_eq!(
            ledger.map(|body| body.lines().count()).ok(),
            Some(1),
            "{var}: the ledger line lands beside the snapshots"
        );
    }
    assert!(!elsewhere.exists(), "DIVIDE_LEDGER created {elsewhere:?}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[cfg(unix)]
#[test]
fn sigint_exits_130() {
    let dir = tmp("sigint");
    // An injected 20s stage delay holds the process open long enough
    // to signal it deterministically.
    let mut child = divide()
        .args(["--scale", "small", "--no-cache", "--out"])
        .arg(&dir)
        .args([
            "--fault-plan",
            "seed=1;stage.table1:nth=1,mode=delay,delay_ms=20000",
            "table1",
        ])
        .stdout(std::process::Stdio::null())
        .stderr(std::process::Stdio::null())
        .spawn()
        .expect("spawn divide");
    std::thread::sleep(std::time::Duration::from_secs(2));
    let kill = Command::new("kill")
        .args(["-INT", &child.id().to_string()])
        .status()
        .expect("send SIGINT");
    assert!(kill.success(), "kill -INT delivered");
    let status = child.wait().expect("wait for divide");
    assert_eq!(status.code(), Some(130), "SIGINT exits 130");
    let _ = std::fs::remove_dir_all(&dir);
}
