//! Hierarchical timing spans.
//!
//! [`enter`] (or the [`crate::span!`] macro) opens a span and returns a
//! RAII guard; dropping the guard records the elapsed wall-clock time
//! into the current [`crate::scope::ObsScope`]'s registry keyed by the
//! span's *path*. Spans nest per thread — a span opened while another
//! is live on the same thread gets the path `parent/child` — so the
//! registry reconstructs the call tree of a run without any wiring
//! through function signatures.
//!
//! Pool worker threads start with an empty stack, but a chunk that
//! runs under an entered [`crate::scope::ObsContext`] inherits the
//! dispatching caller's innermost path as its *base*: spans it opens
//! nest under the owning `stage.*` span instead of becoming orphan
//! roots. Threads outside any scope record into the process-default
//! scope, which preserves the historical global-registry behaviour.
//! Once the scope's [`crate::trace`] timeline is started, each span
//! boundary also lands there, with the registry's own `Instant`.
//!
//! Everything is a no-op while [`crate::enabled`] is false; the spans
//! only ever feed the run manifest and the trace export, never the
//! computation (the determinism contract in the crate docs).

use crate::scope;
use crate::trace::{self, EventKind};
use std::collections::BTreeMap;
use std::time::Instant;

/// Accumulated statistics of one span path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanStats {
    /// Number of completed calls.
    pub count: u64,
    /// Total nanoseconds across calls.
    pub total_ns: u64,
    /// Fastest call, nanoseconds.
    pub min_ns: u64,
    /// Slowest call, nanoseconds.
    pub max_ns: u64,
    /// Registry-wide completion order of the path's first call — lets
    /// the manifest's span tree list siblings in execution order, which
    /// a BTreeMap of paths alone cannot recover.
    pub seq: u64,
}

impl SpanStats {
    pub(crate) fn record(&mut self, ns: u64) {
        self.count += 1;
        self.total_ns = self.total_ns.saturating_add(ns);
        self.min_ns = self.min_ns.min(ns);
        self.max_ns = self.max_ns.max(ns);
    }
}

/// Accumulated allocator statistics of one **top-level** span path.
///
/// Only top-level spans (opened with an empty stack) carry allocator
/// accounting: the tracking allocator keeps one rebasable high-water
/// mark per lane of work, which cannot nest — and the pipeline's
/// `stage.*` spans, the ones the manifest reports, run at depth zero,
/// one at a time on each lane, so one watermark per lane is exactly
/// enough (DESIGN.md §12). A span reads its own thread's lane, so the
/// counters and peak it records never include the other lane's work.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SpanAllocStats {
    /// Bytes allocated while the span was open, summed across calls.
    pub alloc_bytes: u64,
    /// Allocation calls while the span was open, summed across calls.
    pub alloc_count: u64,
    /// Highest rise of the live heap above its level at span entry,
    /// maxed across calls.
    pub peak_heap_delta: u64,
}

/// Allocator counters captured when a top-level span opened.
struct AllocBegin {
    alloc_calls: u64,
    allocated_bytes: u64,
    current_bytes: u64,
}

/// The RAII guard of a live span; records on drop. Inert (and free)
/// when observability is disabled.
#[must_use = "a span ends when its guard drops; bind it with `let _span = ...`"]
pub struct SpanGuard {
    path: Option<String>,
    start: Instant,
    alloc_begin: Option<AllocBegin>,
    /// Whether the span opened on a started timeline (its End goes too).
    traced: bool,
}

/// Opens a span named `name` nested under this thread's innermost live
/// span, if any. Prefer the [`crate::span!`] macro.
pub fn enter(name: &str) -> SpanGuard {
    if !crate::enabled() {
        return SpanGuard {
            path: None,
            start: Instant::now(),
            alloc_begin: None,
            traced: false,
        };
    }
    let pushed = scope::push_span(name);
    // Only top-level spans of a context with accounting on carry heap
    // stats: the allocator keeps one rebasable high-water mark per lane
    // (see SpanAllocStats docs), which cannot be shared between
    // concurrent scopes or pool chunks.
    let alloc_begin = if pushed.alloc_top {
        crate::resource::alloc_hook().map(|hook| {
            let reading = (hook.read_lane)();
            (hook.rebase_span_peak)();
            AllocBegin {
                alloc_calls: reading.alloc_calls,
                allocated_bytes: reading.allocated_bytes,
                current_bytes: reading.current_bytes,
            }
        })
    } else {
        None
    };
    let start = Instant::now();
    if pushed.traced {
        trace::span_boundary(name, EventKind::Begin, start);
    }
    SpanGuard {
        path: Some(pushed.path),
        start,
        alloc_begin,
        traced: pushed.traced,
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if let Some(path) = self.path.take() {
            let end = Instant::now();
            let ns = end.saturating_duration_since(self.start).as_nanos() as u64;
            if self.traced {
                let leaf = path.rsplit('/').next().unwrap_or(&path);
                trace::span_boundary(leaf, EventKind::End, end);
            }
            scope::pop_span();
            // Read the allocator outside the registry lock, then fold
            // timing and heap stats in under a single lock hold (the
            // old separate REGISTRY/ALLOC_REGISTRY locks cost two
            // contended acquisitions per span exit).
            let alloc = match (self.alloc_begin.take(), crate::resource::alloc_hook()) {
                (Some(begin), Some(hook)) => {
                    let reading = (hook.read_lane)();
                    let span_peak = (hook.span_peak)();
                    Some((
                        reading
                            .allocated_bytes
                            .saturating_sub(begin.allocated_bytes),
                        reading.alloc_calls.saturating_sub(begin.alloc_calls),
                        span_peak.saturating_sub(begin.current_bytes),
                    ))
                }
                _ => None,
            };
            scope::with_reg(|reg| {
                if let Some((bytes, calls, peak_delta)) = alloc {
                    let stats = reg.span_allocs.entry(path.clone()).or_default();
                    stats.alloc_bytes = stats.alloc_bytes.saturating_add(bytes);
                    stats.alloc_count = stats.alloc_count.saturating_add(calls);
                    stats.peak_heap_delta = stats.peak_heap_delta.max(peak_delta);
                }
                reg.record_span(&path, ns);
            });
        }
    }
}

/// A copy of the current scope's span registry: path → stats.
pub fn snapshot() -> BTreeMap<String, SpanStats> {
    scope::with_reg(|reg| reg.spans.clone())
}

/// A copy of the current scope's allocator registry: top-level span
/// path → heap stats. Empty unless an
/// [`crate::resource::AllocHook`] was installed.
pub fn alloc_snapshot() -> BTreeMap<String, SpanAllocStats> {
    scope::with_reg(|reg| reg.span_allocs.clone())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Spans under a unique root so parallel tests cannot collide.
    fn stats_under(root: &str) -> BTreeMap<String, SpanStats> {
        snapshot()
            .into_iter()
            .filter(|(path, _)| path.starts_with(root))
            .collect()
    }

    #[test]
    fn spans_nest_into_paths() {
        let _lock = crate::test_lock();
        crate::set_enabled(true);
        {
            let _outer = enter("t_nest.outer");
            let _inner = enter("child");
            let _deeper = enter("leaf");
        }
        let got = stats_under("t_nest.outer");
        assert!(got.contains_key("t_nest.outer"));
        assert!(got.contains_key("t_nest.outer/child"));
        assert!(got.contains_key("t_nest.outer/child/leaf"));
    }

    #[test]
    fn stats_accumulate_min_max() {
        let _lock = crate::test_lock();
        crate::set_enabled(true);
        for _ in 0..3 {
            let _s = enter("t_acc.span");
        }
        let s = stats_under("t_acc.span")["t_acc.span"];
        assert_eq!(s.count, 3);
        assert!(s.min_ns <= s.max_ns);
        assert!(s.total_ns >= s.max_ns);
    }

    #[test]
    fn disabled_spans_record_nothing() {
        let _lock = crate::test_lock();
        crate::set_enabled(true);
        let before = stats_under("t_off.span").len();
        crate::set_enabled(false);
        {
            let _s = enter("t_off.span");
        }
        crate::set_enabled(true);
        assert_eq!(stats_under("t_off.span").len(), before);
    }

    /// A deterministic fake allocator for hook tests: `read` advances
    /// a static counter so begin/end deltas are nonzero.
    static FAKE_TICKS: parking_lot::Mutex<u64> = parking_lot::Mutex::new(0);

    fn fake_read() -> crate::resource::AllocReading {
        let mut ticks = FAKE_TICKS.lock();
        *ticks += 1;
        crate::resource::AllocReading {
            alloc_calls: *ticks * 10,
            dealloc_calls: *ticks * 5,
            allocated_bytes: *ticks * 1000,
            current_bytes: 500,
            peak_bytes: *ticks * 1000,
        }
    }
    fn fake_rebase() -> u64 {
        500
    }
    fn fake_span_peak() -> u64 {
        900
    }

    #[test]
    fn top_level_spans_capture_alloc_deltas_nested_do_not() {
        let _lock = crate::test_lock();
        crate::set_enabled(true);
        crate::resource::set_alloc_hook(Some(crate::resource::AllocHook {
            read: fake_read,
            read_lane: fake_read,
            rebase_span_peak: fake_rebase,
            span_peak: fake_span_peak,
        }));
        {
            let _outer = enter("t_alloc.outer");
            let _inner = enter("child");
        }
        crate::resource::set_alloc_hook(None);
        let got = alloc_snapshot();
        let outer = got["t_alloc.outer"];
        // One fake tick between begin and end: 10 calls, 1000 bytes.
        assert_eq!(outer.alloc_count, 10);
        assert_eq!(outer.alloc_bytes, 1000);
        // peak 900 − current-at-entry 500.
        assert_eq!(outer.peak_heap_delta, 400);
        assert!(
            !got.contains_key("t_alloc.outer/child"),
            "nested spans must not carry alloc stats"
        );
        // Without the hook, nothing accumulates.
        {
            let _s = enter("t_alloc.unhooked");
        }
        assert!(!alloc_snapshot().contains_key("t_alloc.unhooked"));
    }

    #[test]
    fn sibling_spans_share_a_parent() {
        let _lock = crate::test_lock();
        crate::set_enabled(true);
        {
            let _p = enter("t_sib.parent");
            {
                let _a = enter("a");
            }
            {
                let _b = enter("b");
            }
        }
        let got = stats_under("t_sib.parent");
        assert!(got.contains_key("t_sib.parent/a"));
        assert!(got.contains_key("t_sib.parent/b"));
    }
}
