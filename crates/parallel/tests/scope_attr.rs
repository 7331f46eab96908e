//! Scoped-observability integration tests across the pool boundary
//! (DESIGN.md §15): concurrent scopes stay isolated and deterministic,
//! worker attribution is thread-count-invariant, pool work has one
//! record (the stage's parallel section), and `DIVIDE_OBS=off` stays
//! zero-cost through the pool.

use leo_obs::scope::{ObsScope, ScopeSnapshot};
use leo_parallel::{mix64, par_map, with_threads};
use std::collections::BTreeMap;

/// Serializes tests in this binary: they flip the process-wide
/// observability flag and share the worker pool's default scope.
fn test_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

/// One small observed pipeline in its own scope: a stage span, a
/// tagged counter, and a 257-item fan-out through the shared pool.
/// Returns the (deterministic) fold of the mapped values plus the
/// scope's snapshot.
fn pipeline(tag: &str, threads: usize) -> (u64, ScopeSnapshot) {
    let scope = ObsScope::new();
    let out = {
        let _guard = scope.enter();
        let _stage = leo_obs::span!("stage.sim");
        leo_obs::metrics::counter_add(&format!("{tag}.runs"), 1);
        let items: Vec<u64> = (0..257).collect();
        let out = with_threads(threads, || par_map(&items, |i, &x| mix64(x, i as u64)));
        out.iter().fold(0u64, |acc, &v| acc ^ v)
    };
    (out, scope.snapshot())
}

/// Span-path call counts — what ran, independent of how it was
/// scheduled.
fn span_counts(snap: &ScopeSnapshot) -> BTreeMap<String, u64> {
    snap.spans
        .iter()
        .map(|(path, stats)| (path.clone(), stats.count))
        .collect()
}

/// Counters outside the scheduling-dependent `parallel.*` family.
fn work_counters(snap: &ScopeSnapshot) -> BTreeMap<String, u64> {
    snap.counters
        .iter()
        .filter(|(name, _)| !name.starts_with("parallel."))
        .map(|(name, &v)| (name.clone(), v))
        .collect()
}

#[test]
fn concurrent_scopes_are_isolated_and_match_serial() {
    let _lock = test_lock();
    leo_obs::set_enabled(true);
    // Serial references, one per request tag.
    let (ref_a, snap_a) = pipeline("t_a", 1);
    let (ref_b, snap_b) = pipeline("t_b", 1);
    // Two requests race through the shared pool at 4 threads each.
    let (got_a, got_b) = std::thread::scope(|s| {
        let a = s.spawn(|| pipeline("t_a", 4));
        let b = s.spawn(|| pipeline("t_b", 4));
        (a.join().expect("a"), b.join().expect("b"))
    });
    assert_eq!(got_a.0, ref_a, "parallel result matches serial");
    assert_eq!(got_b.0, ref_b);
    // What ran and what it counted match the serial runs exactly...
    assert_eq!(span_counts(&got_a.1), span_counts(&snap_a));
    assert_eq!(span_counts(&got_b.1), span_counts(&snap_b));
    assert_eq!(work_counters(&got_a.1), work_counters(&snap_a));
    assert_eq!(work_counters(&got_b.1), work_counters(&snap_b));
    // ...so no bleed: each scope carries its own tag only.
    assert_eq!(got_a.1.counters.get("t_a.runs"), Some(&1));
    assert_eq!(got_a.1.counters.get("t_b.runs"), None);
    assert_eq!(got_b.1.counters.get("t_b.runs"), Some(&1));
    assert_eq!(got_b.1.counters.get("t_a.runs"), None);
    // Nothing leaked into the process-default scope either.
    assert_eq!(leo_obs::metrics::counter_value("t_a.runs"), 0);
    assert_eq!(leo_obs::metrics::counter_value("t_b.runs"), 0);
}

#[test]
fn scope_contents_are_identical_across_thread_counts() {
    let _lock = test_lock();
    leo_obs::set_enabled(true);
    let (ref_out, ref_snap) = pipeline("t_n", 1);
    let (ref_spans, ref_counters) = (span_counts(&ref_snap), work_counters(&ref_snap));
    assert_eq!(ref_counters.get("t_n.runs"), Some(&1), "{ref_counters:?}");
    assert_eq!(ref_spans.get("stage.sim"), Some(&1), "{ref_spans:?}");
    for threads in [4usize, 8] {
        let (out, snap) = pipeline("t_n", threads);
        assert_eq!(out, ref_out, "threads={threads}");
        assert_eq!(span_counts(&snap), ref_spans, "threads={threads}");
        assert_eq!(work_counters(&snap), ref_counters, "threads={threads}");
    }
}

#[test]
fn pool_work_is_recorded_once_in_the_stage_parallel_section() {
    let _lock = test_lock();
    leo_obs::set_enabled(true);
    let (_, snap) = pipeline("t_rec", 4);
    let attr = snap
        .parallel
        .get("stage.sim")
        .expect("fan-out attributed to the owning stage");
    assert_eq!((attr.fanouts, attr.serial_calls), (1, 0));
    // 257 items over 4 workers.
    assert_eq!((attr.items, attr.chunks), (257, 4));
    assert!(attr.busy_ns > 0, "{attr:?}");
    let per_worker: u64 = attr.per_worker_busy_ns.iter().sum();
    assert_eq!(per_worker, attr.busy_ns, "worker shares sum to the total");
    // The section is the only record of the pool's work: no chunk spans
    // in the span tree...
    for path in snap.spans.keys() {
        let leaf = path.rsplit('/').next().unwrap_or(path);
        assert!(!leaf.starts_with("parallel."), "chunk span {path}");
    }
    // ...and no pool counter besides pool growth.
    for name in snap.counters.keys() {
        assert!(
            !name.starts_with("parallel.") || name == "parallel.pool_spawned_threads",
            "pool counter {name}"
        );
    }
}

#[test]
fn disabled_observability_is_inert_through_the_pool() {
    let _lock = test_lock();
    leo_obs::set_enabled(true);
    let (reference, _) = pipeline("t_off", 4);
    leo_obs::set_enabled(false);
    let (out, snap) = pipeline("t_off", 4);
    leo_obs::set_enabled(true);
    assert_eq!(out, reference, "results identical with observability off");
    assert!(snap.spans.is_empty(), "{:?}", snap.spans.keys());
    assert!(snap.counters.is_empty());
    assert!(snap.parallel.is_empty());
}
