//! Scoped observability contexts: handle-based ownership of every
//! measurement registry.
//!
//! An [`ObsScope`] owns the storage the rest of this crate writes
//! into — the span registry, the allocator registry, the counters, the
//! per-stage parallel attribution and the trace timeline — behind one
//! lock. The free functions in [`crate::span`], [`crate::metrics`] and
//! [`crate::trace`] record into
//! whichever scope is *current* on the calling thread; threads that
//! never entered a scope fall back to a lazily created process-default
//! scope, which preserves the pre-scope, global-statics behaviour byte
//! for byte.
//!
//! Two pieces of thread state travel with a scope:
//!
//! * the **span stack** (live span paths, innermost last), and
//! * an optional **base path** — a parent span path inherited across
//!   the `leo-parallel` pool boundary, so spans opened on a worker
//!   thread (whose own stack is empty) nest under the dispatching
//!   caller's innermost span instead of becoming orphan roots.
//!
//! [`ObsContext::current`] captures (scope, innermost path) on a
//! fan-out caller; [`ObsContext::enter`] installs both on the chunk's
//! executing thread for the duration of the chunk. That is the entire
//! propagation protocol: the pool itself stays observability-agnostic.

use crate::span::{SpanAllocStats, SpanStats};
use crate::trace::{LaneSnapshot, Timeline};
use parking_lot::Mutex;
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, OnceLock};

/// Everything a scope owns behind its single registry lock. One lock
/// hold covers a whole span exit (timing + allocator stats), which is
/// what fixed the old REGISTRY/ALLOC_REGISTRY double-lock.
#[derive(Default)]
pub(crate) struct Registries {
    /// Span path → timing stats.
    pub(crate) spans: BTreeMap<String, SpanStats>,
    /// Top-level span path → allocator stats.
    pub(crate) span_allocs: BTreeMap<String, SpanAllocStats>,
    /// Counter name → value.
    pub(crate) counters: BTreeMap<String, u64>,
    /// Attribution root (a top-level span path, `stage.*` in the
    /// pipeline) → accumulated fan-out statistics.
    pub(crate) parallel: BTreeMap<String, StageParallel>,
    /// The trace timeline, once [`crate::trace::start`] started it.
    pub(crate) timeline: Option<Timeline>,
}

impl Registries {
    /// Records one completed call of `path`, assigning the next
    /// registry-wide `seq` on first insertion.
    pub(crate) fn record_span(&mut self, path: &str, ns: u64) {
        let next_seq = self.spans.len() as u64;
        self.spans
            .entry(path.to_string())
            .or_insert(SpanStats {
                count: 0,
                total_ns: 0,
                min_ns: u64::MAX,
                max_ns: 0,
                seq: next_seq,
            })
            .record(ns);
    }
}

/// Parallel work attributed to one owning top-level span (`stage.*`
/// in the pipeline): how much pool time a stage consumed and how it
/// was shared across workers. The manifest renders this as the
/// per-stage `parallel` section, the one record of pool work.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct StageParallel {
    /// Pooled fan-outs dispatched while this span owned the caller.
    pub fanouts: u64,
    /// Fan-out requests that ran serially (one worker, at most one
    /// item, or nested inside a pool chunk).
    pub serial_calls: u64,
    /// Items processed across fan-outs and serial calls.
    pub items: u64,
    /// Chunks executed across pooled fan-outs.
    pub chunks: u64,
    /// Nanoseconds workers spent inside chunk bodies, summed.
    pub busy_ns: u64,
    /// Nanoseconds workers spent idle while their fan-outs were in
    /// flight (`wall − busy`, summed per chunk).
    pub idle_ns: u64,
    /// Busy nanoseconds by chunk slot (slot 0 is the calling thread,
    /// slot `i` pool worker `i − 1`) — the per-worker share.
    pub per_worker_busy_ns: Vec<u64>,
}

/// A handle to one isolated set of observability registries. Clones
/// share the same storage; dropping the last handle drops the data.
#[derive(Clone)]
pub struct ObsScope {
    inner: Arc<ScopeInner>,
}

struct ScopeInner {
    reg: Mutex<Registries>,
    /// Mirrors `reg.timeline.is_some()`, so an untraced span boundary
    /// costs one relaxed load instead of a lock. Relaxed is enough: the
    /// flag publishes nothing, since the timeline is only touched under
    /// the lock, and a stale read records or skips one boundary.
    tracing: AtomicBool,
}

/// The ambient observability state of one thread: which scope it
/// records into, its live span stack, and the base path inherited
/// across a pool boundary.
struct ThreadCtx {
    /// `None` means the process-default scope.
    scope: Option<ObsScope>,
    /// Live span paths opened on this thread, innermost last.
    stack: Vec<String>,
    /// Parent path for spans opened with an empty stack (set inside a
    /// pool chunk so worker spans nest under the dispatching caller).
    base: Option<String>,
    /// Whether top-level spans on this thread may use their lane's
    /// allocator watermark. Only the default ambient context and a
    /// second lane's top-level context ([`ObsContext::enter_top_level`])
    /// may: a watermark cannot nest, so entered scopes and pool chunks
    /// skip heap accounting instead of corrupting each other's peaks.
    alloc_spans: bool,
}

impl ThreadCtx {
    const fn ambient() -> Self {
        ThreadCtx {
            scope: None,
            stack: Vec::new(),
            base: None,
            alloc_spans: true,
        }
    }

    /// Whether the thread's current scope has a started timeline.
    fn tracing(&self) -> bool {
        let scope = self.scope.as_ref().unwrap_or_else(|| default_scope());
        scope.inner.tracing.load(Ordering::Relaxed)
    }
}

thread_local! {
    static CTX: RefCell<ThreadCtx> = const { RefCell::new(ThreadCtx::ambient()) };
}

static DEFAULT: OnceLock<ObsScope> = OnceLock::new();

fn default_scope() -> &'static ObsScope {
    DEFAULT.get_or_init(ObsScope::new)
}

/// The scope the calling thread currently records into.
pub(crate) fn current_scope() -> ObsScope {
    match CTX.with(|c| c.borrow().scope.clone()) {
        Some(scope) => scope,
        None => default_scope().clone(),
    }
}

/// Runs `f` under the current scope's registry lock.
pub(crate) fn with_reg<R>(f: impl FnOnce(&mut Registries) -> R) -> R {
    let scope = current_scope();
    let mut reg = scope.inner.reg.lock();
    f(&mut reg)
}

/// Runs `f` on the current scope's timeline, if it started.
pub(crate) fn with_timeline(f: impl FnOnce(&mut Timeline)) {
    if CTX.with(|c| c.borrow().tracing()) {
        with_reg(|reg| reg.timeline.as_mut().map(f));
    }
}

/// Pushed-span bookkeeping returned by [`push_span`].
pub(crate) struct PushedSpan {
    /// The full path the span records under.
    pub(crate) path: String,
    /// Whether the span may carry allocator accounting (top of the
    /// default ambient context only; see [`ThreadCtx::alloc_spans`]).
    pub(crate) alloc_top: bool,
    /// Whether the current scope's timeline is started.
    pub(crate) traced: bool,
}

/// Computes the path of a span named `name` (nesting under the
/// innermost live span, else the inherited base path) and pushes it
/// onto this thread's stack.
pub(crate) fn push_span(name: &str) -> PushedSpan {
    CTX.with(|c| {
        let mut c = c.borrow_mut();
        let (path, top) = match c.stack.last() {
            Some(parent) => (format!("{parent}/{name}"), false),
            None => match &c.base {
                Some(base) => (format!("{base}/{name}"), false),
                None => (name.to_string(), true),
            },
        };
        c.stack.push(path.clone());
        PushedSpan {
            path,
            alloc_top: top && c.alloc_spans,
            traced: c.tracing(),
        }
    })
}

/// Pops the innermost live span of this thread.
pub(crate) fn pop_span() {
    CTX.with(|c| {
        c.borrow_mut().stack.pop();
    });
}

/// Restores the saved thread context when a scope or pool-boundary
/// context is exited.
#[must_use = "the scope is only current until this guard drops"]
pub struct ScopeGuard {
    prev: ThreadCtx,
}

impl Drop for ScopeGuard {
    fn drop(&mut self) {
        let prev = std::mem::replace(&mut self.prev, ThreadCtx::ambient());
        CTX.with(|c| {
            *c.borrow_mut() = prev;
        });
    }
}

impl ObsScope {
    /// Creates a scope with empty registries.
    pub fn new() -> ObsScope {
        ObsScope {
            inner: Arc::new(ScopeInner {
                reg: Mutex::new(Registries::default()),
                tracing: AtomicBool::new(false),
            }),
        }
    }

    /// Runs `f` on this scope's registries, then syncs the timeline
    /// flag with whether `f` left a timeline in place.
    pub(crate) fn update(&self, f: impl FnOnce(&mut Registries)) {
        let mut reg = self.inner.reg.lock();
        f(&mut reg);
        let tracing = &self.inner.tracing;
        tracing.store(reg.timeline.is_some(), Ordering::Relaxed);
    }

    /// Makes this scope current on the calling thread until the guard
    /// drops, swapping in a fresh span stack (the scope's own). Must
    /// be dropped on the thread that created it, before any span
    /// guard opened inside it.
    pub fn enter(&self) -> ScopeGuard {
        let fresh = ThreadCtx {
            scope: Some(self.clone()),
            stack: Vec::new(),
            base: None,
            alloc_spans: false,
        };
        let prev = CTX.with(|c| std::mem::replace(&mut *c.borrow_mut(), fresh));
        ScopeGuard { prev }
    }

    /// A point-in-time copy of everything recorded into this scope:
    /// spans, counters, parallel attribution and the timeline,
    /// isolated from every other scope.
    pub fn snapshot(&self) -> ScopeSnapshot {
        let reg = self.inner.reg.lock();
        ScopeSnapshot {
            spans: reg.spans.clone(),
            allocs: reg.span_allocs.clone(),
            counters: reg.counters.clone(),
            parallel: reg.parallel.clone(),
            timeline: crate::trace::lanes(&reg.timeline),
        }
    }
}

impl Default for ObsScope {
    fn default() -> Self {
        ObsScope::new()
    }
}

/// The observability context a fan-out caller hands to its chunks:
/// the scope to record into plus the parent span path chunks nest
/// under.
pub struct ObsContext {
    scope: ObsScope,
    parent: Option<String>,
}

impl ObsContext {
    /// Captures the calling thread's scope and innermost span path.
    pub fn current() -> ObsContext {
        CTX.with(|c| {
            let c = c.borrow();
            ObsContext {
                scope: match &c.scope {
                    Some(scope) => scope.clone(),
                    None => default_scope().clone(),
                },
                parent: c.stack.last().cloned().or_else(|| c.base.clone()),
            }
        })
    }

    /// The span path chunk work should nest under, if any.
    pub fn parent(&self) -> Option<&str> {
        self.parent.as_deref()
    }

    /// Installs the context on the executing thread for the duration
    /// of the returned guard: the captured scope becomes current and
    /// the captured parent path becomes the base for any spans the
    /// chunk body opens.
    pub fn enter(&self) -> ScopeGuard {
        self.install(false)
    }

    /// Installs the captured scope as a second top-level context, for
    /// a lane of work that runs beside the caller rather than inside
    /// one of its spans: spans opened under the guard start a stack of
    /// their own (no base path), and top-level ones carry allocation
    /// accounting on the thread's own allocator lane.
    pub fn enter_top_level(&self) -> ScopeGuard {
        self.install(true)
    }

    fn install(&self, top_level: bool) -> ScopeGuard {
        let fresh = ThreadCtx {
            scope: Some(self.scope.clone()),
            stack: Vec::new(),
            base: if top_level { None } else { self.parent.clone() },
            alloc_spans: top_level,
        };
        let prev = CTX.with(|c| std::mem::replace(&mut *c.borrow_mut(), fresh));
        ScopeGuard { prev }
    }
}

/// The attribution root of the calling thread: its outermost live
/// span path, else the first segment of its inherited base path.
fn attribution_root() -> Option<String> {
    CTX.with(|c| {
        let c = c.borrow();
        c.stack.first().cloned().or_else(|| {
            c.base
                .as_ref()
                .and_then(|b| b.split('/').next())
                .map(str::to_string)
        })
    })
}

/// Records one pooled fan-out against the caller's owning top-level
/// span: busy/idle/chunk totals accumulate in the scope's
/// [`StageParallel`] slot. `busy_ns[i]` is chunk `i`'s body time;
/// `wall_ns` the fan-out's caller-observed wall time. A worker is idle
/// from its own finish until the slowest worker's, because the fan-out
/// only completes when every chunk joins. Called by `leo-parallel`
/// once per fan-out, on the caller, after the join.
pub fn attribute_fanout(items: u64, busy_ns: &[u64], wall_ns: u64) {
    let Some(root) = attribution_root() else {
        return;
    };
    with_reg(|reg| {
        let attr = reg.parallel.entry(root).or_default();
        attr.fanouts += 1;
        attr.items = attr.items.saturating_add(items);
        attr.chunks += busy_ns.len() as u64;
        if attr.per_worker_busy_ns.len() < busy_ns.len() {
            attr.per_worker_busy_ns.resize(busy_ns.len(), 0);
        }
        for (slot, &ns) in busy_ns.iter().enumerate() {
            attr.busy_ns = attr.busy_ns.saturating_add(ns);
            attr.idle_ns = attr.idle_ns.saturating_add(wall_ns.saturating_sub(ns));
            attr.per_worker_busy_ns[slot] = attr.per_worker_busy_ns[slot].saturating_add(ns);
        }
    });
}

/// Records one serial fan-out request (one worker or at most one item)
/// against the caller's owning top-level span.
/// Called by `leo-parallel` once per serial execution.
pub fn attribute_serial(items: u64) {
    let Some(root) = attribution_root() else {
        return;
    };
    with_reg(|reg| {
        let attr = reg.parallel.entry(root).or_default();
        attr.serial_calls += 1;
        attr.items = attr.items.saturating_add(items);
    });
}

/// Attribution root → parallel stats of the current scope.
pub fn parallel_snapshot() -> BTreeMap<String, StageParallel> {
    with_reg(|reg| reg.parallel.clone())
}

/// Everything one scope recorded, frozen at snapshot time.
#[derive(Debug, Clone, Default)]
pub struct ScopeSnapshot {
    /// Span path → timing stats.
    pub spans: BTreeMap<String, SpanStats>,
    /// Top-level span path → allocator stats.
    pub allocs: BTreeMap<String, SpanAllocStats>,
    /// Counter name → value.
    pub counters: BTreeMap<String, u64>,
    /// Attribution root → parallel stats.
    pub parallel: BTreeMap<String, StageParallel>,
    /// The timeline's lanes (empty unless it was started).
    pub timeline: Vec<LaneSnapshot>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scopes_isolate_counters_and_spans() {
        let _lock = crate::test_lock();
        let a = ObsScope::new();
        let b = ObsScope::new();
        {
            let _g = a.enter();
            crate::metrics::counter_add("t_scope.hits", 2);
            let _s = crate::span::enter("t_scope.a");
        }
        {
            let _g = b.enter();
            crate::metrics::counter_add("t_scope.hits", 5);
        }
        let cap_a = a.snapshot();
        let cap_b = b.snapshot();
        assert_eq!(cap_a.counters["t_scope.hits"], 2);
        assert_eq!(cap_b.counters["t_scope.hits"], 5);
        assert!(cap_a.spans.contains_key("t_scope.a"));
        assert!(cap_b.spans.is_empty());
        // Nothing leaked into the default scope.
        assert_eq!(crate::metrics::counter_value("t_scope.hits"), 0);
    }

    #[test]
    fn entering_a_scope_restores_the_previous_context() {
        let _lock = crate::test_lock();
        let outer = crate::span::enter("t_restore.outer");
        {
            let scope = ObsScope::new();
            let _g = scope.enter();
            // Inside the scope the stack is fresh: a new span is
            // top-level from the scope's point of view.
            let _s = crate::span::enter("t_restore.inner");
        }
        // Back outside, nesting resumes under the still-open span.
        {
            let _s = crate::span::enter("child");
        }
        drop(outer);
        let spans = crate::span::snapshot();
        assert!(spans.contains_key("t_restore.outer/child"));
        assert!(!spans.contains_key("t_restore.inner"));
    }

    #[test]
    fn counters_sum_exactly_across_threads() {
        let scope = ObsScope::new();
        std::thread::scope(|s| {
            for _ in 0..8 {
                s.spawn(|| {
                    let _g = scope.enter();
                    for _ in 0..1000 {
                        crate::metrics::counter_add("t_threads.n", 1);
                    }
                });
            }
        });
        assert_eq!(scope.snapshot().counters["t_threads.n"], 8000);
    }

    #[test]
    fn context_propagates_scope_and_parent_across_threads() {
        let scope = ObsScope::new();
        let ctx = {
            let _g = scope.enter();
            let _stage = crate::span::enter("stage.t_ctx");
            let _inner = crate::span::enter("sweep");
            ObsContext::current()
        };
        assert_eq!(ctx.parent(), Some("stage.t_ctx/sweep"));
        std::thread::scope(|s| {
            s.spawn(|| {
                let _g = ctx.enter();
                let _chunk = crate::span::enter("chunk");
                crate::metrics::counter_add("t_ctx.worker", 1);
            });
        });
        let cap = scope.snapshot();
        assert!(
            cap.spans.contains_key("stage.t_ctx/sweep/chunk"),
            "worker span nests under the caller's path: {:?}",
            cap.spans.keys().collect::<Vec<_>>()
        );
        assert_eq!(cap.counters["t_ctx.worker"], 1);
    }

    #[test]
    fn a_top_level_context_records_its_own_roots_into_the_callers_scope() {
        let _lock = crate::test_lock();
        let scope = ObsScope::new();
        let ctx = {
            let _g = scope.enter();
            let _stage = crate::span::enter("stage.t_main");
            ObsContext::current()
        };
        std::thread::scope(|s| {
            s.spawn(|| {
                let _g = ctx.enter_top_level();
                let _stage = crate::span::enter("stage.t_side");
                attribute_serial(3);
                assert!(
                    CTX.with(|c| c.borrow().alloc_spans),
                    "a top-level context keeps allocation accounting on"
                );
            });
        });
        let cap = scope.snapshot();
        let roots: Vec<&String> = cap.spans.keys().collect();
        assert_eq!(roots, ["stage.t_main", "stage.t_side"]);
        assert_eq!(cap.parallel["stage.t_side"].serial_calls, 1);
    }

    #[test]
    fn fanout_attribution_lands_under_the_owning_root() {
        let scope = ObsScope::new();
        {
            let _g = scope.enter();
            let _stage = crate::span::enter("stage.t_attr");
            attribute_fanout(100, &[40, 60], 70);
            attribute_serial(5);
        }
        let cap = scope.snapshot();
        let attr = &cap.parallel["stage.t_attr"];
        assert_eq!(attr.fanouts, 1);
        assert_eq!(attr.serial_calls, 1);
        assert_eq!(attr.items, 105);
        assert_eq!(attr.chunks, 2);
        assert_eq!(attr.busy_ns, 100);
        assert_eq!(attr.idle_ns, (70 - 40) + (70 - 60));
        assert_eq!(attr.per_worker_busy_ns, vec![40, 60]);
        // Pool work is recorded in the parallel section only: the span
        // tree holds the stage span and no chunk spans.
        assert_eq!(cap.spans.keys().collect::<Vec<_>>(), ["stage.t_attr"]);
    }
}
