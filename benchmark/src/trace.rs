//! The benchmark's own span recorder. Spans wrap the benchmark's calls
//! into each crate's public functions; nothing here reads the
//! program's own instrumentation (`leo-obs`, `leo-trace`), so a change
//! to that instrumentation cannot move this ruler.
//!
//! Spans live in memory on the recording thread and are written out
//! only when the run ends. When recording is off, [`span`] is a plain
//! call.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded span. Times are nanoseconds since the recorder's origin.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer call name, e.g. `orbit.coverage`.
    pub name: &'static str,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Start, ns.
    pub start_ns: u64,
    /// End, ns.
    pub end_ns: u64,
    /// The benchmark iteration the span belongs to.
    pub iter: u64,
}

/// Everything recorded while tracing was on.
#[derive(Debug, Default)]
pub struct Recording {
    /// Spans in start order.
    pub spans: Vec<Span>,
    /// Work counts recorded beside the spans.
    pub counters: BTreeMap<&'static str, f64>,
}

struct Recorder {
    origin: Instant,
    iter: u64,
    stack: Vec<usize>,
    rec: Recording,
}

thread_local! {
    static ON: Cell<bool> = const { Cell::new(false) };
    static REC: RefCell<Recorder> = RefCell::new(Recorder {
        origin: Instant::now(),
        iter: 0,
        stack: Vec::new(),
        rec: Recording::default(),
    });
}

/// Turns recording on or off for this thread.
pub fn set_enabled(on: bool) {
    ON.with(|c| c.set(on));
}

/// Tags the spans that follow with iteration `i`.
pub fn set_iteration(i: u64) {
    REC.with(|r| r.borrow_mut().iter = i);
}

fn now_ns(origin: Instant) -> u64 {
    origin.elapsed().as_nanos() as u64
}

/// Runs `f` inside a span called `name` (a plain call when off).
pub fn span<R>(name: &'static str, f: impl FnOnce() -> R) -> R {
    if !ON.with(Cell::get) {
        return f();
    }
    let id = REC.with(|r| {
        let mut r = r.borrow_mut();
        let start_ns = now_ns(r.origin);
        let span = Span {
            name,
            parent: r.stack.last().copied(),
            start_ns,
            end_ns: start_ns,
            iter: r.iter,
        };
        r.rec.spans.push(span);
        let id = r.rec.spans.len() - 1;
        r.stack.push(id);
        id
    });
    let out = f();
    REC.with(|r| {
        let mut r = r.borrow_mut();
        let end = now_ns(r.origin);
        r.rec.spans[id].end_ns = end;
        r.stack.pop();
    });
    out
}

/// Adds `v` to the work counter `name` (ignored when off).
pub fn count(name: &'static str, v: f64) {
    if ON.with(Cell::get) {
        REC.with(|r| *r.borrow_mut().rec.counters.entry(name).or_insert(0.0) += v);
    }
}

/// Takes everything recorded so far, leaving the recorder empty.
pub fn take() -> Recording {
    REC.with(|r| std::mem::take(&mut r.borrow_mut().rec))
}

/// Each span's self time: its duration minus the part of its interval
/// that the union of its direct children covers. Children may overlap
/// one another (spans recorded on several threads); overlap is counted
/// once.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = s.start_ns;
            for &(a, b) in kids.iter() {
                let (a, b) = (a.max(reach), b.min(s.end_ns));
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            (s.end_ns - s.start_ns).saturating_sub(covered)
        })
        .collect()
}

/// Renders spans as a Chrome trace (`X` complete events, microseconds),
/// loadable in Perfetto or `chrome://tracing`.
pub fn chrome_json(spans: &[Span]) -> String {
    let mut out = String::from("{\"traceEvents\":[\n");
    for (i, s) in spans.iter().enumerate() {
        let _ = write!(
            out,
            "{}{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"iter\":{}}}}}",
            if i == 0 { "" } else { ",\n" },
            s.name,
            s.start_ns as f64 / 1e3,
            (s.end_ns - s.start_ns) as f64 / 1e3,
            s.iter
        );
    }
    out.push_str("\n],\"displayTimeUnit\":\"ms\"}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sp(name: &'static str, parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name,
            parent,
            start_ns,
            end_ns,
            iter: 0,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let spans = [
            sp("root", None, 0, 100),
            sp("a", Some(0), 10, 40),
            sp("a.inner", Some(1), 15, 35),
            sp("b", Some(0), 50, 60),
        ];
        // root: 100 − (30 + 10); a: 30 − 20; grandchildren are not
        // subtracted from the root a second time.
        assert_eq!(self_times(&spans), vec![60, 10, 20, 10]);
    }

    #[test]
    fn overlapping_children_count_once() {
        let spans = [
            sp("root", None, 0, 100),
            sp("x", Some(0), 10, 50),
            sp("y", Some(0), 30, 70),
            sp("z", Some(0), 40, 45),
            sp("late", Some(0), 90, 120),
        ];
        // Union of children inside [0,100]: [10,70] ∪ [90,100] = 70 ns.
        assert_eq!(self_times(&spans)[0], 30);
    }

    #[test]
    fn recorder_nests_and_is_inert_when_off() {
        set_enabled(false);
        assert_eq!(span("off", || 7), 7);
        count("off.count", 1.0);
        assert!(take().spans.is_empty());

        set_enabled(true);
        set_iteration(3);
        span("outer", || span("inner", || count("work", 2.0)));
        set_enabled(false);
        let rec = take();
        assert_eq!(rec.spans.len(), 2);
        assert_eq!(rec.spans[1].parent, Some(0));
        assert_eq!(rec.spans[1].iter, 3);
        assert!(rec.spans[0].end_ns >= rec.spans[1].end_ns);
        assert_eq!(rec.counters.get("work"), Some(&2.0));
        assert!(chrome_json(&rec.spans).contains("\"name\":\"inner\""));
    }
}
