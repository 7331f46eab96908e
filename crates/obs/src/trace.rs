//! The trace timeline: *when* each span ran, and on *which* lane. It is
//! one more registry of [`crate::scope::ObsScope`]: off until [`start`],
//! dropped by [`crate::reset`]. Span boundaries land on their thread's
//! lane with the span registry's own `Instant`s, so folded stacks agree
//! with [`crate::span::SpanStats`] to the nanosecond, and sample heap
//! and RSS onto the `mem` lane. Worker chunks get one lane per worker index.
//! `leo-trace` exports a [`snapshot`]. Without a timeline, a span
//! boundary costs one relaxed atomic load.

use crate::scope::{self, with_timeline};
use std::thread::{self, ThreadId};
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
    /// Nanoseconds since the timeline started.
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

/// A copy of one lane: its label and every event recorded on it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LaneSnapshot {
    /// Human-readable lane label (`main`, `worker-3`, `mem`).
    pub label: String,
    /// The lane's events in timestamp order (see [`snapshot`]).
    pub events: Vec<Event>,
}

/// Which lane an event goes to. Worker lanes are keyed by index, not
/// OS thread, so each worker is one continuous row.
#[derive(Clone, Copy, PartialEq, Eq)]
enum LaneKey {
    Thread(ThreadId),
    Worker(usize),
    Mem,
}

type Args = Vec<(&'static str, u64)>;

/// One scope's timeline. A lane's index is its Chrome `tid`.
pub(crate) struct Timeline {
    epoch: Instant,
    lanes: Vec<(LaneKey, LaneSnapshot)>,
}

impl Timeline {
    /// An event stamped `at`, in nanoseconds since the epoch (0 for an
    /// instant before it: a span already open when the timeline
    /// started).
    fn event(&self, at: Instant, name: &str, kind: EventKind, args: Args) -> Event {
        Event {
            ts_ns: at.saturating_duration_since(self.epoch).as_nanos() as u64,
            name: name.to_string(),
            kind,
            args,
            parent: None,
        }
    }

    /// Adds `event` to the lane `key`, registering the lane on first
    /// use: a thread lane is named after its thread, or `thread-<lane
    /// index>` if it has none. Events stay sorted by timestamp, and
    /// stably, so the recording order of same-instant events (a span's
    /// Begin before a nested Begin) survives; a worker lane can be fed
    /// from several threads, whose push order is lock order, not time
    /// order.
    fn push(&mut self, key: LaneKey, event: Event) {
        let i = match self.lanes.iter().position(|(k, _)| *k == key) {
            Some(i) => i,
            None => {
                let label = match key {
                    LaneKey::Thread(_) => thread::current()
                        .name()
                        .map_or_else(|| format!("thread-{}", self.lanes.len()), str::to_string),
                    LaneKey::Worker(w) => format!("worker-{w}"),
                    LaneKey::Mem => "mem".to_string(),
                };
                let events = Vec::new();
                self.lanes.push((key, LaneSnapshot { label, events }));
                self.lanes.len() - 1
            }
        };
        let events = &mut self.lanes[i].1.events;
        events.insert(events.partition_point(|e| e.ts_ns <= event.ts_ns), event);
    }
}

/// A copy of every lane of `timeline` (none if it never started).
pub(crate) fn lanes(timeline: &Option<Timeline>) -> Vec<LaneSnapshot> {
    let lanes = timeline.iter().flat_map(|t| &t.lanes);
    lanes.map(|(_, lane)| lane.clone()).collect()
}

/// Starts a fresh timeline, epoch now, in the calling thread's current
/// scope, replacing any earlier one. The CLI calls this for `--trace`.
pub fn start() {
    let epoch = Instant::now();
    scope::current_scope().update(|reg| {
        reg.timeline = Some(Timeline {
            epoch,
            lanes: Vec::new(),
        })
    });
}

/// Records a span boundary at `at` on this thread's lane. The heap and
/// RSS samples for the `mem` lane are read before the registry lock,
/// and only while an allocator hook is installed: without the hook
/// there is no memory telemetry.
pub(crate) fn span_boundary(name: &str, kind: EventKind, at: Instant) {
    let heap = crate::resource::alloc_hook().map(|hook| (hook.read)().current_bytes);
    let rss = heap
        .and_then(|_| crate::resource::rss_kb())
        .map(|r| r.current_kb);
    with_timeline(|t| {
        let event = t.event(at, name, kind, Vec::new());
        t.push(LaneKey::Thread(thread::current().id()), event);
        if let Some(bytes) = heap {
            let event = t.event(at, "heap_bytes", EventKind::Counter, vec![("bytes", bytes)]);
            t.push(LaneKey::Mem, event);
        }
        if let Some(kb) = rss {
            let event = t.event(at, "rss_kb", EventKind::Counter, vec![("kb", kb)]);
            t.push(LaneKey::Mem, event);
        }
    });
}

/// Records a point-in-time marker (cache hit/miss/invalid, ...) on
/// this thread's lane, timestamped now.
pub fn instant(name: &str) {
    with_timeline(|t| {
        let event = t.event(Instant::now(), name, EventKind::Instant, Vec::new());
        t.push(LaneKey::Thread(thread::current().id()), event);
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
    with_timeline(|t| {
        let dur_ns = end.saturating_duration_since(start).as_nanos() as u64;
        let [w, lo, hi] = [worker, lo, hi].map(|v| v as u64);
        let args = vec![("chunk", w), ("lo", lo), ("hi", hi)];
        let mut event = t.event(start, name, EventKind::Complete { dur_ns }, args);
        event.parent = parent.map(str::to_string);
        t.push(LaneKey::Worker(worker), event);
    });
}

/// A copy of the current scope's timeline, lane by lane (empty if it
/// was never started).
pub fn snapshot() -> Vec<LaneSnapshot> {
    scope::with_reg(|reg| lanes(&reg.timeline))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scope::ObsScope;

    /// Runs `body` in a private scope, its timeline started if
    /// `traced`, and returns the timeline.
    fn record(traced: bool, body: impl FnOnce()) -> Vec<LaneSnapshot> {
        let scope = ObsScope::new();
        let _g = scope.enter();
        if traced {
            start();
        }
        body();
        snapshot()
    }

    /// Every event as `name:kind`, lane by lane.
    fn events(lanes: &[LaneSnapshot]) -> Vec<String> {
        let events = lanes.iter().flat_map(|l| &l.events);
        events.map(|e| format!("{}:{:?}", e.name, e.kind)).collect()
    }

    /// A span with a nested span and an instant, then a worker chunk.
    fn record_every_kind() {
        {
            let _outer = crate::span::enter("t.outer");
            let _inner = crate::span::enter("inner");
            instant("t.mark");
        }
        let t0 = Instant::now();
        worker_chunk(2, "t.chunk", Some("stage.t"), t0, t0, 10, 20);
    }

    #[test]
    fn spans_instants_and_chunks_land_on_their_lanes() {
        let _lock = crate::test_lock();
        let lanes = record(true, record_every_kind);
        assert_eq!(
            events(&lanes),
            [
                "t.outer:Begin",
                "inner:Begin",
                "t.mark:Instant",
                "inner:End",
                "t.outer:End",
                "t.chunk:Complete { dur_ns: 0 }",
            ]
        );
        assert!(lanes[0].events.windows(2).all(|w| w[0].ts_ns <= w[1].ts_ns));
        let chunk = &lanes[1].events[0];
        assert_eq!(lanes[1].label, "worker-2");
        assert_eq!(chunk.args, [("chunk", 2), ("lo", 10), ("hi", 20)]);
        assert_eq!(chunk.parent.as_deref(), Some("stage.t"));
    }

    #[test]
    fn nothing_is_recorded_before_start() {
        assert!(record(false, record_every_kind).is_empty());
    }

    #[test]
    fn scopes_keep_their_timelines_apart() {
        let _lock = crate::test_lock();
        let a = ObsScope::new();
        let b = record(true, || {
            drop(crate::span::enter("t_apart.b"));
            let _g = a.enter();
            start();
            instant("t_apart.a");
        });
        assert_eq!(events(&b), ["t_apart.b:Begin", "t_apart.b:End"]);
        assert_eq!(events(&a.snapshot().timeline), ["t_apart.a:Instant"]);
        // The process-default scope never started a timeline.
        assert!(snapshot().is_empty());
    }

    #[test]
    fn reset_drops_the_timeline() {
        let lanes = record(true, || {
            instant("t_reset.before");
            crate::reset();
            // Gone, not emptied: nothing records until a new start.
            instant("t_reset.after");
            assert!(snapshot().is_empty());
            start();
            instant("t_reset.restarted");
        });
        assert_eq!(events(&lanes), ["t_reset.restarted:Instant"]);
    }

    #[test]
    fn span_boundaries_sample_memory_onto_the_mem_lane() {
        let _lock = crate::test_lock();
        let span = || drop(crate::span::enter("t_mem.span"));
        // Without a hook: spans alone, no mem lane.
        assert!(!record(true, span).iter().any(|l| l.label == "mem"));
        let reading = || crate::resource::AllocReading {
            alloc_calls: 1,
            dealloc_calls: 0,
            allocated_bytes: 2048,
            current_bytes: 2048,
            peak_bytes: 2048,
        };
        crate::resource::set_alloc_hook(Some(crate::resource::AllocHook {
            read: reading,
            read_lane: reading,
            rebase_span_peak: || 2048,
            span_peak: || 2048,
        }));
        let lanes = record(true, span);
        crate::resource::set_alloc_hook(None);
        let mem = lanes.iter().find(|l| l.label == "mem").expect("mem lane");
        let heap = mem.events.iter().filter(|e| e.name == "heap_bytes");
        // One counter sample per span boundary: Begin and End.
        let heap: Vec<_> = heap.map(|e| (&e.kind, e.args.as_slice())).collect();
        assert_eq!(heap, [(&EventKind::Counter, &[("bytes", 2048)][..]); 2]);
    }
}
