//! # leo-obs
//!
//! The workspace's observability substrate: hierarchical timing
//! [`span`]s, named [`metrics`] counters, per-stage worker-pool
//! attribution, the [`trace`] timeline, handle-based [`scope`]
//! contexts that own every registry (with a process-default scope
//! backing the free-function API), JSON [`manifest`] emission for
//! reproducible runs, the leveled stderr [`log`]ger behind the
//! `divide` CLI, process [`resource`] telemetry (allocator hook + RSS
//! sampling), and the append-only run-history [`ledger`].
//!
//! ## The determinism contract
//!
//! Instrumentation must **never** perturb artifact bytes. Everything in
//! this crate therefore only *observes*: spans, counters and timeline
//! events accumulate into scope-owned registries that are read back
//! exclusively by the run manifest (and the ledger line projected from
//! it) and the trace export — never by the model, the dataset
//! generator, or the renderers. `tests/determinism.rs` asserts the
//! contract end to end: a traced run and an untraced one, with the
//! allocator hook installed or not, produce byte-identical CSVs/SVGs
//! at 1 and 4 worker threads.
//!
//! ## Cost
//!
//! Instrumentation is always on. It costs a few atomic loads plus one
//! short mutex hold per span/counter update (never per data item —
//! `leo-parallel` records once per *fan-out*, on the caller).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod json;
pub mod ledger;
pub mod log;
pub mod manifest;
pub mod metrics;
pub mod resource;
pub mod scope;
pub mod span;
pub mod trace;

/// Clears every observability registry (spans, counters, parallel
/// attribution) of the calling thread's current scope and drops its
/// timeline; live span guards still record when they drop. Runs that
/// reuse one process for several measured phases call this between
/// phases; the CLI calls it once at startup so a manifest only covers
/// its own invocation.
pub fn reset() {
    scope::current_scope().update(|reg| *reg = scope::Registries::default());
}

/// Opens a timing span and returns its RAII guard; the span ends when
/// the guard drops. Bind it — `let _span = span!("fig2.sweep");` — or
/// it ends immediately.
///
/// Spans nest per thread: a span opened while another is live on the
/// same thread becomes its child in the manifest's span tree (path
/// `parent/child`). Each distinct path accumulates call count and
/// total/min/max nanoseconds.
#[macro_export]
macro_rules! span {
    ($name:expr) => {
        $crate::span::enter($name)
    };
}

/// Serializes tests that touch process-global state: the allocator
/// hook, the process-default scope or the log level.
#[cfg(test)]
pub(crate) fn test_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: parking_lot::Mutex<()> = parking_lot::Mutex::new(());
    LOCK.lock()
}
