//! The timeline's off-until-started contract (DESIGN.md §10), end to
//! end: without a started timeline the pipeline records no trace
//! events, and with one it fills the main and worker lanes — at 1 and
//! 4 threads. Each run records into its own `ObsScope`, so nothing
//! else in the process can add to or clear what it checks.

use starlink_divide_repro::demand::dataset::{BroadbandDataset, SynthConfig};
use starlink_divide_repro::model::{coverage_sweep, PaperModel};
use starlink_divide_repro::obs::{self, scope::ObsScope, scope::ScopeSnapshot};
use starlink_divide_repro::parallel::with_threads;

/// Dataset generation plus the fig-2 sweep — the two heaviest span- and
/// fanout-instrumented paths in the pipeline — at 1 and 4 threads, into
/// a private scope whose timeline is started if `traced`.
fn run_pipeline(traced: bool) -> ScopeSnapshot {
    let scope = ObsScope::new();
    let _g = scope.enter();
    if traced {
        obs::trace::start();
    }
    for threads in [1, 4] {
        with_threads(threads, || {
            let model = PaperModel::new(BroadbandDataset::generate(&SynthConfig::small()));
            let _ = coverage_sweep::sweep(&model);
        });
    }
    scope.snapshot()
}

#[test]
fn recorder_stays_empty_until_the_trace_starts() {
    let untraced = run_pipeline(false);
    assert!(!untraced.spans.is_empty(), "the pipeline recorded no spans");
    assert!(untraced.timeline.is_empty(), "no lanes without --trace");

    // Started: the same pipeline fills the timeline, worker lanes too.
    let labels: Vec<String> = run_pipeline(true)
        .timeline
        .into_iter()
        .filter(|lane| !lane.events.is_empty())
        .map(|lane| lane.label)
        .collect();
    assert!(labels.iter().any(|l| l == "worker-3"), "{labels:?}");
}
