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
//! contract end to end: a run with observability enabled, traced or
//! not, produces byte-identical CSVs/SVGs to one with `DIVIDE_OBS=off`,
//! at 1 and 4 worker threads.
//!
//! ## Switching it off
//!
//! Observability defaults to on and costs a few atomic loads plus one
//! short mutex hold per span/counter update (never per data item —
//! `leo-parallel` records once per *fan-out*, on the caller).
//! `DIVIDE_OBS=off` (any [`switched_off`] value) disables every registry
//! at the source, for overhead-sensitive benchmarking; [`set_enabled`]
//! does the same programmatically.

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

use std::sync::atomic::{AtomicU8, Ordering};

/// Whether the environment switch `name` — `DIVIDE_OBS` or
/// `DIVIDE_ALLOC` — is off: set to an empty value, `0`, `off` or
/// `false`, trimmed, in any case. Unset (or not Unicode) or any other
/// value leaves it on.
pub fn switched_off(name: &str) -> bool {
    std::env::var(name).is_ok_and(|v| is_off(&v))
}

fn is_off(value: &str) -> bool {
    let v = value.trim();
    v.is_empty()
        || ["0", "off", "false"]
            .iter()
            .any(|w| v.eq_ignore_ascii_case(w))
}

/// 0 = unresolved (consult `DIVIDE_OBS`), 1 = on, 2 = off.
static ENABLED: AtomicU8 = AtomicU8::new(0);

/// Whether observability is currently enabled. Resolved from the
/// `DIVIDE_OBS` switch on first call (on unless it is
/// [`switched_off`]) and cached; [`set_enabled`] overrides it.
pub fn enabled() -> bool {
    match ENABLED.load(Ordering::Relaxed) {
        1 => true,
        2 => false,
        _ => {
            let on = !switched_off("DIVIDE_OBS");
            ENABLED.store(if on { 1 } else { 2 }, Ordering::Relaxed);
            on
        }
    }
}

/// Turns observability on or off for the whole process, overriding
/// `DIVIDE_OBS`. The determinism tests flip this to prove artifact
/// bytes do not depend on it.
pub fn set_enabled(on: bool) {
    ENABLED.store(if on { 1 } else { 2 }, Ordering::Relaxed);
}

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

/// Serializes tests that flip the global [`enabled`] flag; the flag is
/// process-wide, so concurrent test threads must not interleave
/// toggles.
#[cfg(test)]
pub(crate) fn test_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: parking_lot::Mutex<()> = parking_lot::Mutex::new(());
    LOCK.lock()
}

#[cfg(test)]
mod tests {
    #[test]
    fn switches_are_off_for_empty_zero_off_and_false_in_any_case() {
        for off in [
            "", "  ", "0", " 0 ", "off", "OFF", " Off\t", "false", "False ",
        ] {
            assert!(super::is_off(off), "{off:?}");
        }
        for on in ["1", "on", "TRUE", "00", "offline", "results/0"] {
            assert!(!super::is_off(on), "{on:?}");
        }
    }

    #[test]
    fn set_enabled_overrides_env() {
        let _lock = super::test_lock();
        super::set_enabled(false);
        assert!(!super::enabled());
        super::set_enabled(true);
        assert!(super::enabled());
    }
}
