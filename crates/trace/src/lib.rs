//! # leo-trace
//!
//! The workspace's timeline recorder: where `leo-obs` answers *how
//! much* time each span path took in total, this crate answers *when*
//! each span ran and on *which* lane. Events accumulate in per-lane
//! buffers — one lane per recording thread, plus one explicit lane per
//! `leo-parallel` worker index — and are exported on run exit as Chrome
//! Trace Event JSON (Perfetto / `chrome://tracing`) and folded
//! flamegraph stacks (see [`export`]).
//!
//! ## Feeding the recorder
//!
//! Nothing in the pipeline calls [`begin`]/[`end`] directly: enabling
//! tracing installs a span sink into `leo_obs::span`, so every existing
//! `span!` automatically lands on the timeline, carrying the *same*
//! `Instant`s the span registry times with — folded stack totals
//! therefore agree with `SpanStats` totals to the nanosecond.
//! `leo-parallel` records one [`EventKind::Complete`] per worker chunk
//! (chunk index, item range, busy duration) on that worker's lane, and
//! `leo-cache` marks hits/misses/invalidations as [`instant`] events.
//!
//! ## Switching it on
//!
//! Off by default. [`set_enabled`] turns the recorder on — the `divide`
//! CLI calls it for `--trace` or `DIVIDE_TRACE` — but events are only
//! ever recorded while `leo_obs::enabled()` also holds —
//! `DIVIDE_OBS=off` silences tracing along with everything else. While
//! disabled, recording entry points return before touching any lane:
//! no buffers are allocated, no events retained (asserted by
//! `tests/trace.rs` through [`lane_count`]/[`event_count`]).
//!
//! ## Determinism contract
//!
//! Identical to `leo-obs`'s: the recorder only *observes*. Buffers are
//! read back exclusively by the exporters; artifacts stay byte-identical
//! with tracing on or off at any thread count (`tests/determinism.rs`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod export;

use parking_lot::Mutex;
use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// What one timeline event marks.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EventKind {
    /// A span opened (Chrome phase `B`).
    Begin,
    /// A span closed (Chrome phase `E`).
    End,
    /// A point-in-time marker, e.g. a cache hit (Chrome phase `i`).
    Instant,
    /// A self-contained duration, e.g. one worker chunk (Chrome
    /// phase `X`).
    Complete {
        /// The event's duration in nanoseconds.
        dur_ns: u64,
    },
    /// A sampled counter value, e.g. live heap bytes (Chrome phase
    /// `C`). The sample's series values ride in [`Event::args`];
    /// Perfetto renders them as a stacked counter track.
    Counter,
}

/// One recorded timeline event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Event {
    /// Nanoseconds since the trace epoch (monotonic within a lane).
    pub ts_ns: u64,
    /// Event name (span leaf, counter name, or primitive name).
    pub name: String,
    /// What the event marks.
    pub kind: EventKind,
    /// Small integer annotations (chunk index, item range, ...).
    pub args: Vec<(&'static str, u64)>,
    /// Owning span path for events recorded off their owner's lane —
    /// worker chunks carry the dispatching stage's path here, so the
    /// folded-stack exporter can telescope `worker-N` frames under
    /// `stage.*` instead of leaving them orphaned.
    pub parent: Option<String>,
}

/// A copy of one lane: its label and every event recorded so far.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LaneSnapshot {
    /// Human-readable lane label (`main`, `worker-3`, `thread-7`).
    pub label: String,
    /// The lane's events in timestamp order (see [`snapshot`]).
    pub events: Vec<Event>,
}

type Buf = Arc<Mutex<Vec<Event>>>;

struct Lane {
    label: String,
    buf: Buf,
}

/// Every lane ever registered this generation, in registration order —
/// the lane's index is its Chrome `tid`.
static LANES: Mutex<Vec<Lane>> = Mutex::new(Vec::new());

/// Worker-index → lane buffer map (generation-tagged so [`reset`]
/// invalidates it without touching other threads' caches).
static WORKERS: Mutex<(u64, Vec<Option<Buf>>)> = Mutex::new((0, Vec::new()));

/// The dedicated `mem` lane for counter samples (generation-tagged
/// like [`WORKERS`]). One lane regardless of which thread samples, so
/// Perfetto shows a single continuous memory track.
static MEM_LANE: Mutex<(u64, Option<Buf>)> = Mutex::new((0, None));

/// Bumped by [`reset`]; thread-local lane caches compare against it.
static GENERATION: AtomicU64 = AtomicU64::new(0);

/// The instant `ts_ns` counts from; set when tracing first turns on.
static EPOCH: Mutex<Option<Instant>> = Mutex::new(None);

/// Whether tracing was requested ([`set_enabled`]).
static ENABLED: AtomicBool = AtomicBool::new(false);

thread_local! {
    /// This thread's lane buffer, tagged with the generation it was
    /// registered under.
    static CURRENT: RefCell<Option<(u64, Buf)>> = const { RefCell::new(None) };
}

/// Whether events are being recorded right now: tracing requested
/// ([`set_enabled`]) *and* observability enabled — `DIVIDE_OBS=off`
/// always wins.
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed) && leo_obs::enabled()
}

/// Turns the recorder on or off for the whole process. Turning it on
/// installs the `leo-obs` span sink so every span lands on the
/// timeline from then on.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
    if on {
        ensure_epoch();
        leo_obs::span::set_sink(Some(span_sink));
    }
}

/// The span sink installed into `leo_obs::span`: forwards each span
/// boundary, with the registry's own timestamp, onto the current
/// thread's lane.
fn span_sink(phase: leo_obs::span::SpanPhase, name: &str, at: Instant) {
    match phase {
        leo_obs::span::SpanPhase::Begin => begin(name, at),
        leo_obs::span::SpanPhase::End => end(name, at),
    }
    // Span boundaries double as memory sampling points: frequent
    // enough to draw a useful heap/RSS curve, rare enough (hundreds
    // per run, never per data item) that the `/proc` read stays
    // invisible next to the stages being traced.
    sample_memory(at);
}

/// Emits heap/RSS counter samples onto the `mem` lane, timestamped
/// `at`. The installed allocator hook is the master switch for memory
/// telemetry: no hook (no tracking allocator, or `DIVIDE_ALLOC=off`)
/// means no samples at all, RSS included.
fn sample_memory(at: Instant) {
    if !enabled() {
        return;
    }
    let Some(hook) = leo_obs::resource::alloc_hook() else {
        return;
    };
    let reading = (hook.read)();
    counter_at("heap_bytes", &[("bytes", reading.current_bytes)], at);
    if let Some(rss) = leo_obs::resource::rss_kb() {
        counter_at("rss_kb", &[("kb", rss.current_kb)], at);
    }
}

fn ensure_epoch() -> Instant {
    *EPOCH.lock().get_or_insert_with(Instant::now)
}

fn ts_ns(at: Instant) -> u64 {
    // Saturates to 0 for instants predating the epoch (a span already
    // open when tracing turned on) instead of panicking.
    at.checked_duration_since(ensure_epoch())
        .map_or(0, |d| d.as_nanos() as u64)
}

/// Registers a new lane and returns its buffer. `None` labels the lane
/// after the current thread (its name, or `thread-<index>`).
fn register_lane(label: Option<String>) -> Buf {
    let mut lanes = LANES.lock();
    let label = label
        .or_else(|| std::thread::current().name().map(str::to_string))
        .unwrap_or_else(|| format!("thread-{}", lanes.len()));
    let buf: Buf = Arc::new(Mutex::new(Vec::new()));
    lanes.push(Lane {
        label,
        buf: Arc::clone(&buf),
    });
    buf
}

/// The calling thread's lane buffer, registering one on first use (and
/// re-registering after a [`reset`]).
fn current_buf() -> Buf {
    let generation = GENERATION.load(Ordering::Relaxed);
    CURRENT.with(|slot| {
        if let Some((cached_gen, buf)) = slot.borrow().as_ref() {
            if *cached_gen == generation {
                return Arc::clone(buf);
            }
        }
        let buf = register_lane(None);
        *slot.borrow_mut() = Some((generation, Arc::clone(&buf)));
        buf
    })
}

/// The lane buffer of worker index `worker`. Worker lanes are keyed by
/// *index*, not OS thread: `leo-parallel` spawns fresh scoped threads
/// per fan-out, and per-thread lanes would explode into thousands of
/// single-chunk rows.
fn worker_buf(worker: usize) -> Buf {
    let generation = GENERATION.load(Ordering::Relaxed);
    let mut map = WORKERS.lock();
    if map.0 != generation {
        map.0 = generation;
        map.1.clear();
    }
    if map.1.len() <= worker {
        map.1.resize(worker + 1, None);
    }
    if let Some(buf) = &map.1[worker] {
        return Arc::clone(buf);
    }
    let buf = register_lane(Some(format!("worker-{worker}")));
    map.1[worker] = Some(Arc::clone(&buf));
    buf
}

/// Records a span opening at `at` on this thread's lane.
pub fn begin(name: &str, at: Instant) {
    if !enabled() {
        return;
    }
    let ts = ts_ns(at);
    current_buf().lock().push(Event {
        ts_ns: ts,
        name: name.to_string(),
        kind: EventKind::Begin,
        args: Vec::new(),
        parent: None,
    });
}

/// Records a span closing at `at` on this thread's lane.
pub fn end(name: &str, at: Instant) {
    if !enabled() {
        return;
    }
    let ts = ts_ns(at);
    current_buf().lock().push(Event {
        ts_ns: ts,
        name: name.to_string(),
        kind: EventKind::End,
        args: Vec::new(),
        parent: None,
    });
}

/// The `mem` lane buffer, registered on first use per generation.
fn mem_buf() -> Buf {
    let generation = GENERATION.load(Ordering::Relaxed);
    let mut slot = MEM_LANE.lock();
    if slot.0 != generation {
        slot.0 = generation;
        slot.1 = None;
    }
    if let Some(buf) = &slot.1 {
        return Arc::clone(buf);
    }
    let buf = register_lane(Some("mem".to_string()));
    slot.1 = Some(Arc::clone(&buf));
    buf
}

/// Records a counter sample — one or more `(series, value)` pairs
/// under `name` — on the shared `mem` lane, timestamped `at`.
pub fn counter_at(name: &str, series: &[(&'static str, u64)], at: Instant) {
    if !enabled() {
        return;
    }
    let ts = ts_ns(at);
    mem_buf().lock().push(Event {
        ts_ns: ts,
        name: name.to_string(),
        kind: EventKind::Counter,
        args: series.to_vec(),
        parent: None,
    });
}

/// Records a counter sample timestamped now. See [`counter_at`].
pub fn counter(name: &str, series: &[(&'static str, u64)]) {
    counter_at(name, series, Instant::now());
}

/// Records a point-in-time marker (cache hit/miss/invalid, ...) on
/// this thread's lane, timestamped now.
pub fn instant(name: &str) {
    if !enabled() {
        return;
    }
    let ts = ts_ns(Instant::now());
    current_buf().lock().push(Event {
        ts_ns: ts,
        name: name.to_string(),
        kind: EventKind::Instant,
        args: Vec::new(),
        parent: None,
    });
}

/// Records one completed worker chunk — `[lo, hi)` of a fan-out, busy
/// from `start` to `end` — on the `worker-<index>` lane. `parent` is
/// the dispatching caller's span path (`stage.fig2/fig2.sweep`):
/// exports nest the chunk under those frames, so flamegraphs
/// telescope through fan-outs instead of orphaning worker time.
pub fn worker_chunk(
    worker: usize,
    name: &str,
    parent: Option<&str>,
    start: Instant,
    end: Instant,
    lo: usize,
    hi: usize,
) {
    if !enabled() {
        return;
    }
    let ts = ts_ns(start);
    let dur_ns = end
        .checked_duration_since(start)
        .map_or(0, |d| d.as_nanos() as u64);
    worker_buf(worker).lock().push(Event {
        ts_ns: ts,
        name: name.to_string(),
        kind: EventKind::Complete { dur_ns },
        args: vec![
            ("chunk", worker as u64),
            ("lo", lo as u64),
            ("hi", hi as u64),
        ],
        parent: parent.map(str::to_string),
    });
}

/// Number of lanes currently registered (zero while tracing is off —
/// the disabled-path tests pin this).
pub fn lane_count() -> usize {
    LANES.lock().len()
}

/// Total events across every lane.
pub fn event_count() -> usize {
    LANES.lock().iter().map(|l| l.buf.lock().len()).sum()
}

/// A copy of every lane and its events, in lane-registration order.
/// Each lane's events are sorted by timestamp (stably, so the
/// recording order of same-instant events — a span's Begin before a
/// nested Begin — survives): a lane keyed by worker *index* can be fed
/// from different OS threads across fan-outs, whose push order is lock
/// order, not time order.
pub fn snapshot() -> Vec<LaneSnapshot> {
    LANES
        .lock()
        .iter()
        .map(|l| {
            let mut events = l.buf.lock().clone();
            events.sort_by_key(|e| e.ts_ns);
            LaneSnapshot {
                label: l.label.clone(),
                events,
            }
        })
        .collect()
}

/// Drops every lane and re-bases the trace epoch. The CLI calls this
/// at startup so an export only covers its own invocation; call it
/// outside any open span (an `End` without its `Begin` would land on a
/// fresh lane).
pub fn reset() {
    GENERATION.fetch_add(1, Ordering::Relaxed);
    LANES.lock().clear();
    let mut map = WORKERS.lock();
    map.0 = GENERATION.load(Ordering::Relaxed);
    map.1.clear();
    drop(map);
    let mut mem = MEM_LANE.lock();
    mem.0 = GENERATION.load(Ordering::Relaxed);
    mem.1 = None;
    drop(mem);
    *EPOCH.lock() = Some(Instant::now());
}

/// Serializes every test in this crate that touches the process-wide
/// lanes or flags. One crate-level lock, not one per test module: the
/// `lib` and `export` tests share the same globals, and two private
/// locks let one module's `reset()` wipe the other's recording.
#[cfg(test)]
pub(crate) fn test_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_recorder_allocates_nothing() {
        let _lock = test_lock();
        leo_obs::set_enabled(true);
        set_enabled(false);
        reset();
        begin("t.span", Instant::now());
        end("t.span", Instant::now());
        instant("t.marker");
        worker_chunk(0, "t.chunk", None, Instant::now(), Instant::now(), 0, 8);
        assert_eq!(lane_count(), 0);
        assert_eq!(event_count(), 0);
    }

    #[test]
    fn events_record_in_order_with_monotonic_timestamps() {
        let _lock = test_lock();
        leo_obs::set_enabled(true);
        set_enabled(true);
        reset();
        let t0 = Instant::now();
        begin("t.outer", t0);
        instant("t.mark");
        let t1 = Instant::now();
        end("t.outer", t1);
        worker_chunk(2, "t.chunk", Some("stage.t/outer"), t0, t1, 10, 20);
        let lanes = snapshot();
        assert_eq!(lanes.len(), 2, "{lanes:?}");
        let own = &lanes[0];
        assert_eq!(own.events.len(), 3);
        assert_eq!(own.events[0].kind, EventKind::Begin);
        assert_eq!(own.events[1].kind, EventKind::Instant);
        assert_eq!(own.events[2].kind, EventKind::End);
        assert!(own.events.windows(2).all(|w| w[0].ts_ns <= w[1].ts_ns));
        let worker = &lanes[1];
        assert_eq!(worker.label, "worker-2");
        assert!(matches!(worker.events[0].kind, EventKind::Complete { .. }));
        assert_eq!(
            worker.events[0].args,
            vec![("chunk", 2), ("lo", 10), ("hi", 20)]
        );
        set_enabled(false);
        reset();
    }

    #[test]
    fn obs_off_silences_tracing_even_when_requested() {
        let _lock = test_lock();
        set_enabled(true);
        leo_obs::set_enabled(false);
        reset();
        begin("t.span", Instant::now());
        instant("t.marker");
        assert_eq!(lane_count(), 0);
        assert_eq!(event_count(), 0);
        leo_obs::set_enabled(true);
        set_enabled(false);
    }

    #[test]
    fn spans_feed_the_timeline_through_the_sink() {
        let _lock = test_lock();
        leo_obs::set_enabled(true);
        set_enabled(true);
        reset();
        {
            let _span = leo_obs::span::enter("t_sink.outer");
            let _inner = leo_obs::span::enter("inner");
        }
        let lanes = snapshot();
        let events: Vec<&Event> = lanes.iter().flat_map(|l| &l.events).collect();
        let names: Vec<(&str, &EventKind)> =
            events.iter().map(|e| (e.name.as_str(), &e.kind)).collect();
        assert_eq!(
            names,
            vec![
                ("t_sink.outer", &EventKind::Begin),
                ("inner", &EventKind::Begin),
                ("inner", &EventKind::End),
                ("t_sink.outer", &EventKind::End),
            ]
        );
        set_enabled(false);
        reset();
    }

    fn fake_read() -> leo_obs::resource::AllocReading {
        leo_obs::resource::AllocReading {
            alloc_calls: 1,
            dealloc_calls: 0,
            allocated_bytes: 2048,
            current_bytes: 2048,
            peak_bytes: 2048,
        }
    }
    fn fake_rebase() -> u64 {
        2048
    }
    fn fake_span_peak() -> u64 {
        2048
    }

    #[test]
    fn span_boundaries_sample_memory_onto_the_mem_lane() {
        let _lock = test_lock();
        leo_obs::set_enabled(true);
        set_enabled(true);
        reset();
        // Without a hook: spans alone, no mem lane.
        {
            let _span = leo_obs::span::enter("t_mem.unhooked");
        }
        assert!(!snapshot().iter().any(|l| l.label == "mem"));
        leo_obs::resource::set_alloc_hook(Some(leo_obs::resource::AllocHook {
            read: fake_read,
            rebase_span_peak: fake_rebase,
            span_peak: fake_span_peak,
        }));
        {
            let _span = leo_obs::span::enter("t_mem.hooked");
        }
        leo_obs::resource::set_alloc_hook(None);
        let lanes = snapshot();
        let mem = lanes
            .iter()
            .find(|l| l.label == "mem")
            .expect("mem lane registered");
        let heap: Vec<&Event> = mem
            .events
            .iter()
            .filter(|e| e.name == "heap_bytes")
            .collect();
        // One sample per span boundary: Begin and End.
        assert_eq!(heap.len(), 2, "{heap:?}");
        assert!(heap
            .iter()
            .all(|e| e.kind == EventKind::Counter && e.args == vec![("bytes", 2048)]));
        set_enabled(false);
        reset();
    }

    #[test]
    fn reset_clears_lanes_and_rebases_worker_map() {
        let _lock = test_lock();
        leo_obs::set_enabled(true);
        set_enabled(true);
        reset();
        worker_chunk(0, "t.chunk", None, Instant::now(), Instant::now(), 0, 4);
        instant("t.marker");
        assert!(lane_count() >= 2);
        reset();
        assert_eq!(lane_count(), 0);
        assert_eq!(event_count(), 0);
        // Re-recording after reset registers fresh lanes.
        worker_chunk(0, "t.chunk", None, Instant::now(), Instant::now(), 0, 4);
        assert_eq!(lane_count(), 1);
        set_enabled(false);
        reset();
    }
}
