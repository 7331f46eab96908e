//! # leo-parallel
//!
//! The workspace's deterministic parallelism substrate. Every
//! paper-scale artifact — the 4.67 M-location dataset, the 450-point
//! Fig 2 sweep, the six Fig 3 tail curves, the Monte-Carlo density and
//! coverage validation — fans out through this crate, under one hard
//! contract:
//!
//! > **Determinism.** For any thread count, the output of a parallel
//! > computation is bit-identical to the single-threaded run.
//!
//! The contract holds because the primitives never let scheduling
//! order reach the result:
//!
//! * [`par_map`], the one fan-out primitive, assigns contiguous index
//!   chunks to workers and reassembles results **in input order**;
//!   each element's value depends only on the element (callers derive
//!   per-element RNG streams via [`mix64`] instead of sharing one
//!   sequential stream);
//! * [`Memo`] caches a value computed once; racing initializers both
//!   compute the same deterministic value, and one wins.
//!
//! ## Execution model (the [`pool`] module)
//!
//! Chunks execute on a **lazily-started persistent worker pool**:
//! chunk 0 on the calling thread, chunk `i` on pool worker `i - 1`,
//! spawned on first use and reused for the life of the process.
//! Dispatch is a mailbox push + condvar wake (microseconds), not an OS
//! thread spawn/join per fan-out — the per-call `crossbeam::scope`
//! this crate started with made `--threads 4` *slower* than
//! `--threads 1` at paper scale.
//!
//! Two guards keep pool overhead away from work that can't amortize
//! it:
//!
//! * **Serial threshold.** Every fan-out of two or more items starts
//!   with a short timed probe (~10 µs of leading items) that estimates
//!   one chunk's duration; fan-outs whose chunks would run under the
//!   threshold ([`effective_serial_threshold_ns`]: a
//!   [`with_serial_threshold`] override, else
//!   `DIVIDE_PAR_THRESHOLD_NS`, else 100 µs; 0 disables the probe)
//!   finish serially — reusing the probed prefix — instead of paying
//!   dispatch for sliver-sized chunks. This covers wide-but-shallow
//!   fan-outs too (a handful of items over more workers): on a warm
//!   cache those are exactly the calls whose per-item work has
//!   collapsed to microseconds, and dispatching them used to make the
//!   warm run *slower* with more threads.
//! * **Nested flattening.** While a chunk runs, the thread-count
//!   override is pinned to 1, so a nested `par_map` inside a pool
//!   worker executes serially instead of oversubscribing the host.
//!
//! Neither guard can affect results: every item's value is independent
//! of where (and how often) it is computed.
//!
//! Thread-count resolution (highest priority first): a thread-local
//! override ([`with_threads`], used by the determinism tests), the
//! process-wide setting ([`set_global_threads`], wired to the CLI's
//! `--threads N`, which also pre-warms the pool), and finally
//! [`std::thread::available_parallelism`].
//!
//! Fan-outs carry the caller's *observability context* across the
//! pool boundary (`leo_obs::scope::ObsContext`, DESIGN.md §15): the
//! dispatching thread's current scope and innermost span path are
//! captured before the fan-out and installed on each chunk's executing
//! thread, so anything a chunk body records — spans, counters — lands
//! in the owning scope, nested under the dispatching span. After the
//! join the caller attributes the fan-out (items, chunks, per-worker
//! busy and idle nanoseconds) to its owning top-level span (`stage.*`
//! in the pipeline) via `leo_obs::scope::attribute_fanout`; serial
//! executions (one worker, single-item input, or sub-threshold work)
//! go through `attribute_serial` instead, so the record never
//! overstates real parallelism with synthetic chunks. The manifest
//! renders both as the per-stage `parallel` section, the one record of
//! pool work — written once per fan-out, never per item, and dropped
//! entirely when observability is off. `Memo` hits and misses count
//! under `parallel.memo_*`. When the owning scope's timeline is started
//! (`leo_obs::trace`), each completed chunk additionally lands as one
//! complete event on its worker-index lane (chunk index, item range,
//! busy duration, owning span path), so `--trace` shows the fan-out
//! shape per worker and folded stacks telescope worker time under the
//! owning stage.
//! The record and trace events feed the run manifest and trace export
//! only; they can never perturb results (the determinism contract
//! holds with observability and tracing on or off).

#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod pool;

pub use leo_fault::mix64;
use leo_obs::scope::{attribute_fanout, attribute_serial};
use parking_lot::{Mutex, RwLock};
use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Process-wide thread-count setting; 0 means "auto".
static GLOBAL_THREADS: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// Per-thread override; 0 means "no override".
    static THREAD_OVERRIDE: Cell<usize> = const { Cell::new(0) };
}

/// Sets the process-wide worker count. `None` restores the default
/// (available parallelism).
pub fn set_global_threads(n: Option<usize>) {
    GLOBAL_THREADS.store(n.unwrap_or(0), Ordering::Relaxed);
}

/// Runs `f` with the effective thread count forced to `n` on this
/// thread. Used by the determinism tests to compare `threads=1`
/// against `threads=4` within one process, and by the pool to pin
/// nested fan-outs inside a chunk to serial execution.
///
/// The previous value is restored even if `f` panics (via a drop
/// guard): under `catch_unwind` — pool chunks, tests — a leaked
/// override would silently poison thread-count resolution for the
/// rest of the thread's life.
pub fn with_threads<R>(n: usize, f: impl FnOnce() -> R) -> R {
    struct Restore(usize);
    impl Drop for Restore {
        fn drop(&mut self) {
            THREAD_OVERRIDE.with(|cell| cell.set(self.0));
        }
    }
    let prev = THREAD_OVERRIDE.with(|cell| cell.replace(n.max(1)));
    let _restore = Restore(prev);
    f()
}

/// The worker count parallel primitives use right now on this thread:
/// thread-local override, else global setting, else available
/// parallelism.
pub fn effective_threads() -> usize {
    let over = THREAD_OVERRIDE.with(|cell| cell.get());
    if over > 0 {
        return over;
    }
    let global = GLOBAL_THREADS.load(Ordering::Relaxed);
    if global > 0 {
        return global;
    }
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Default minimum estimated per-chunk duration that justifies
/// dispatching to the pool. Dispatch costs single-digit microseconds
/// per chunk; at 100 µs of work per chunk that overhead is noise,
/// while the sliver-sized fan-outs visible in the trace's worker lanes
/// (tens of microseconds total) stay serial.
const DEFAULT_SERIAL_THRESHOLD_NS: u64 = 100_000;

/// How much leading work the probe may time before extrapolating a
/// chunk estimate. Bounds probe overhead for fan-outs of cheap items
/// and keeps the measurement above clock granularity.
const PROBE_BUDGET_NS: u64 = 10_000;

thread_local! {
    /// Per-thread serial-threshold override.
    static SERIAL_THRESHOLD_OVERRIDE: Cell<Option<u64>> = const { Cell::new(None) };
}

/// Runs `f` with the serial threshold forced to `ns` nanoseconds on
/// this thread. `0` disables the probe (every eligible fan-out goes
/// through the pool — how the determinism and pool tests pin the
/// parallel path); a huge value forces every probed fan-out serial.
/// Restores the previous value even if `f` panics.
pub fn with_serial_threshold<R>(ns: u64, f: impl FnOnce() -> R) -> R {
    struct Restore(Option<u64>);
    impl Drop for Restore {
        fn drop(&mut self) {
            SERIAL_THRESHOLD_OVERRIDE.with(|cell| cell.set(self.0));
        }
    }
    let prev = SERIAL_THRESHOLD_OVERRIDE.with(|cell| cell.replace(Some(ns)));
    let _restore = Restore(prev);
    f()
}

fn env_serial_threshold() -> Option<u64> {
    std::env::var("DIVIDE_PAR_THRESHOLD_NS")
        .ok()
        .and_then(|v| v.trim().parse().ok())
}

/// The serial threshold in effect on this thread: the
/// [`with_serial_threshold`] override, else `DIVIDE_PAR_THRESHOLD_NS`,
/// else [`DEFAULT_SERIAL_THRESHOLD_NS`]. Fan-outs whose estimated
/// per-chunk duration falls below it run serially.
pub fn effective_serial_threshold_ns() -> u64 {
    SERIAL_THRESHOLD_OVERRIDE
        .with(Cell::get)
        .or_else(env_serial_threshold)
        .unwrap_or(DEFAULT_SERIAL_THRESHOLD_NS)
}

/// Splits `len` items into at most `workers` contiguous chunks of
/// near-equal size. Returns `(start, end)` index pairs in order.
fn chunks(len: usize, workers: usize) -> Vec<(usize, usize)> {
    let workers = workers.min(len).max(1);
    let base = len / workers;
    let extra = len % workers;
    let mut out = Vec::with_capacity(workers);
    let mut start = 0;
    for w in 0..workers {
        let size = base + usize::from(w < extra);
        out.push((start, start + size));
        start += size;
    }
    out
}

/// One chunk's result slot: the chunk output plus its busy-time in
/// nanoseconds, written once by the executing thread and drained in
/// chunk order during reassembly.
type ChunkSlot<T> = Mutex<Option<(T, u64)>>;

/// Maps `f` over `items` in parallel on the persistent worker pool,
/// preserving input order in the output. `f` receives `(index, &item)`
/// so callers can derive per-element seeds. Runs serially when the
/// effective thread count is 1, the input has at most one item, or the
/// probe estimates sub-threshold chunks (see the crate docs); the
/// serial loop is the reference path the determinism tests compare
/// against.
///
/// Panics in `f` propagate to the caller, whichever thread they
/// occurred on.
pub fn par_map<T, R, F>(items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    let workers = effective_threads();
    if workers <= 1 || items.len() <= 1 {
        let out: Vec<R> = items.iter().enumerate().map(|(i, x)| f(i, x)).collect();
        attribute_serial(items.len() as u64);
        return out;
    }
    let threshold = effective_serial_threshold_ns();
    let mut prefix: Vec<R> = Vec::new();
    if threshold > 0 {
        // Timed probe: run items off the front until ~PROBE_BUDGET_NS
        // has passed, then extrapolate one chunk's duration. Too small
        // to amortize a dispatch → finish serially, reusing the prefix
        // (nothing is computed twice on the serial path). Big enough →
        // fan out. Deep fan-outs (more items than workers) discard the
        // ≤10 µs prefix so chunk boundaries (and the worker-lane
        // trace) are identical to an unprobed run; wide-but-shallow
        // fan-outs (at most one item per worker, e.g. a handful of
        // figure curves) keep the prefix and fan out only the
        // remainder, because there a single probed item can be the
        // dominant cost and recomputing it would stretch the critical
        // path by a whole item.
        let p0 = Instant::now();
        let mut elapsed = 0u64;
        while prefix.len() < items.len() {
            let i = prefix.len();
            prefix.push(f(i, &items[i]));
            elapsed = p0.elapsed().as_nanos() as u64;
            if elapsed >= PROBE_BUDGET_NS {
                break;
            }
        }
        let chunk_items = (items.len() / workers).max(1) as u64;
        let per_chunk = (elapsed / prefix.len() as u64).saturating_mul(chunk_items);
        if prefix.len() == items.len() || per_chunk < threshold {
            for (i, item) in items.iter().enumerate().skip(prefix.len()) {
                prefix.push(f(i, item));
            }
            attribute_serial(items.len() as u64);
            return prefix;
        }
        if items.len() > workers {
            prefix.clear();
        }
    }
    let base = prefix.len();
    // Capture the caller's scope and innermost span path so chunk
    // bodies (and their trace events) attribute under the owning
    // `stage.*` span on whichever thread they execute; inert and free
    // when observability is off.
    let ctx = leo_obs::scope::ObsContext::current();
    let t0 = Instant::now();
    let plan: Vec<(usize, usize)> = chunks(items.len() - base, workers)
        .into_iter()
        .map(|(lo, hi)| (lo + base, hi + base))
        .collect();
    let slots: Vec<ChunkSlot<Vec<R>>> = plan.iter().map(|_| Mutex::new(None)).collect();
    pool::run_chunks(plan.len(), &|w| {
        let _obs_ctx = ctx.enter();
        let (lo, hi) = plan[w];
        let w0 = Instant::now();
        let out: Vec<R> = items[lo..hi]
            .iter()
            .enumerate()
            .map(|(k, x)| f(lo + k, x))
            .collect();
        let w1 = Instant::now();
        leo_obs::trace::worker_chunk(w, "parallel.par_map", ctx.parent(), w0, w1, lo, hi);
        *slots[w].lock() = Some((out, w1.saturating_duration_since(w0).as_nanos() as u64));
    });
    let mut out = prefix;
    out.reserve(items.len() - base);
    let mut busy = Vec::with_capacity(plan.len());
    for slot in &slots {
        let (chunk, busy_ns) = slot.lock().take().expect("every chunk completed");
        out.extend(chunk);
        busy.push(busy_ns);
    }
    attribute_fanout(
        (items.len() - base) as u64,
        &busy,
        t0.elapsed().as_nanos() as u64,
    );
    out
}

/// A lazily-initialized, thread-safe memo cell.
///
/// Backs derived dataset views (for example the sorted per-cell count
/// vector the Fig 2/Fig 3 paths binary-search) so repeated sweeps stop
/// recomputing them. The cached value is shared via `Arc`; callers
/// hold it across long computations without keeping any lock.
pub struct Memo<T> {
    slot: RwLock<Option<Arc<T>>>,
}

impl<T> Default for Memo<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> Memo<T> {
    /// Creates an empty memo.
    pub const fn new() -> Self {
        Memo {
            slot: RwLock::new(None),
        }
    }

    /// Returns the cached value, computing it with `init` on first
    /// use. If two threads race the initializer, both compute the same
    /// deterministic value and one result wins; `init` must therefore
    /// be pure (every use in this workspace is).
    pub fn get_or_init(&self, init: impl FnOnce() -> T) -> Arc<T> {
        if let Some(v) = self.slot.read().as_ref() {
            if leo_obs::enabled() {
                leo_obs::metrics::counter_add("parallel.memo_hits", 1);
            }
            return Arc::clone(v);
        }
        if leo_obs::enabled() {
            leo_obs::metrics::counter_add("parallel.memo_misses", 1);
        }
        let computed = Arc::new(init());
        let mut slot = self.slot.write();
        match slot.as_ref() {
            Some(existing) => Arc::clone(existing),
            None => {
                *slot = Some(Arc::clone(&computed));
                computed
            }
        }
    }

    /// The cached value, if already initialized.
    pub fn get(&self) -> Option<Arc<T>> {
        self.slot.read().as_ref().map(Arc::clone)
    }
}

impl<T: std::fmt::Debug> std::fmt::Debug for Memo<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.get() {
            Some(v) => f.debug_tuple("Memo").field(&v).finish(),
            None => f.write_str("Memo(<uninit>)"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chunk_plan_covers_everything_in_order() {
        for len in [0usize, 1, 7, 100] {
            for workers in [1usize, 2, 3, 16] {
                let plan = chunks(len, workers);
                let mut covered = 0;
                for &(lo, hi) in &plan {
                    assert_eq!(lo, covered, "contiguous");
                    assert!(hi >= lo);
                    covered = hi;
                }
                assert_eq!(covered, len, "len {len} workers {workers}");
            }
        }
    }

    #[test]
    fn par_map_matches_serial_for_any_thread_count() {
        let items: Vec<u64> = (0..1000).collect();
        let serial = with_threads(1, || par_map(&items, |i, &x| x * 3 + i as u64));
        for n in [2, 3, 8, 64] {
            // Forced through the pool (threshold 0), and with the
            // probe free to choose — bit-identical either way.
            let pooled = with_serial_threshold(0, || {
                with_threads(n, || par_map(&items, |i, &x| x * 3 + i as u64))
            });
            let probed = with_threads(n, || par_map(&items, |i, &x| x * 3 + i as u64));
            assert_eq!(serial, pooled, "threads={n} pooled");
            assert_eq!(serial, probed, "threads={n} probed");
        }
    }

    #[test]
    fn memo_computes_once_and_shares() {
        use std::sync::atomic::{AtomicU32, Ordering};
        let calls = AtomicU32::new(0);
        let memo: Memo<Vec<u64>> = Memo::new();
        let a = memo.get_or_init(|| {
            calls.fetch_add(1, Ordering::SeqCst);
            vec![1, 2, 3]
        });
        let b = memo.get_or_init(|| {
            calls.fetch_add(1, Ordering::SeqCst);
            unreachable!("second init must not run")
        });
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(calls.load(Ordering::SeqCst), 1);
        assert_eq!(memo.get().unwrap().len(), 3);
    }

    #[test]
    fn with_threads_nests_and_restores() {
        with_threads(3, || {
            assert_eq!(effective_threads(), 3);
            with_threads(5, || assert_eq!(effective_threads(), 5));
            assert_eq!(effective_threads(), 3);
        });
    }

    #[test]
    fn with_threads_restores_after_panic() {
        let before = effective_threads();
        let caught = std::panic::catch_unwind(|| {
            with_threads(7, || {
                panic!("boom");
            })
        });
        assert!(caught.is_err());
        assert_eq!(effective_threads(), before, "override leaked after panic");
        with_threads(3, || {
            let inner = std::panic::catch_unwind(|| {
                with_threads(9, || {
                    panic!("boom");
                })
            });
            assert!(inner.is_err());
            assert_eq!(effective_threads(), 3, "nested override leaked");
        });
    }

    #[test]
    fn serial_threshold_resolution_nests_and_restores() {
        with_serial_threshold(0, || {
            assert_eq!(effective_serial_threshold_ns(), 0);
            with_serial_threshold(50, || assert_eq!(effective_serial_threshold_ns(), 50));
            assert_eq!(effective_serial_threshold_ns(), 0);
        });
    }

    #[test]
    fn pool_reuses_the_same_worker_threads() {
        let ids = || {
            with_serial_threshold(0, || {
                with_threads(4, || par_map(&[(); 64], |_, _| std::thread::current().id()))
            })
        };
        let first = ids();
        let second = ids();
        // Chunk i is statically assigned to pool worker i-1, so two
        // consecutive fan-outs at the same width observe the exact
        // same OS threads — no spawn per fan-out, no pool growth.
        assert_eq!(first, second, "fan-outs must reuse pool workers");
        assert_eq!(
            first[0],
            std::thread::current().id(),
            "chunk 0 runs on the caller"
        );
        assert!(pool::pool_size() >= 3, "a 4-way fan-out keeps 3 workers");
    }

    #[test]
    fn pool_worker_panics_propagate_and_leave_the_pool_usable() {
        let caught = std::panic::catch_unwind(|| {
            with_serial_threshold(0, || {
                with_threads(4, || {
                    par_map(&[0u8; 64], |i, _| {
                        if i >= 48 {
                            panic!("chunk panic");
                        }
                        i
                    })
                })
            })
        });
        let payload = caught.expect_err("a pool-worker panic must reach the caller");
        let msg = payload.downcast_ref::<&str>().copied().unwrap_or_default();
        assert_eq!(msg, "chunk panic");
        // The worker that caught the panic keeps serving fan-outs.
        let out = with_serial_threshold(0, || with_threads(4, || par_map(&[0u8; 64], |i, _| i)));
        assert_eq!(out, (0..64).collect::<Vec<usize>>());
    }

    #[test]
    fn nested_fanouts_flatten_to_serial_inside_pool_chunks() {
        let out = with_serial_threshold(0, || {
            with_threads(4, || {
                par_map(&[10u64, 20, 30, 40], |_, &x| {
                    let me = std::thread::current().id();
                    assert_eq!(effective_threads(), 1, "chunks must see a serial world");
                    let inner =
                        par_map(&[1u64, 2, 3], |_, &y| (x + y, std::thread::current().id()));
                    assert!(
                        inner.iter().all(|&(_, id)| id == me),
                        "nested fan-out left its worker"
                    );
                    inner.into_iter().map(|(v, _)| v).sum::<u64>()
                })
            })
        });
        assert_eq!(out, vec![36, 66, 96, 126]);
    }

    #[test]
    fn sub_threshold_fanouts_run_serially_on_the_caller() {
        let me = std::thread::current().id();
        // A huge threshold forces the probe's serial verdict no matter
        // how slow the host is.
        let ids = with_serial_threshold(u64::MAX, || {
            with_threads(4, || {
                par_map(&[0u8; 64], |_, _| std::thread::current().id())
            })
        });
        assert!(
            ids.iter().all(|&id| id == me),
            "sub-threshold work left the caller"
        );
    }

    #[test]
    fn shallow_sub_threshold_fanouts_run_serially_on_the_caller() {
        let me = std::thread::current().id();
        // Fewer items than workers: the probe must still run and still
        // reach the serial verdict for cheap items — this is the warm
        // figure-sweep shape (a handful of microsecond rows across
        // many workers) that used to dispatch unconditionally.
        let ids = with_serial_threshold(u64::MAX, || {
            with_threads(8, || par_map(&[0u8; 3], |_, _| std::thread::current().id()))
        });
        assert!(
            ids.iter().all(|&id| id == me),
            "shallow sub-threshold work left the caller"
        );
    }

    #[test]
    fn shallow_over_threshold_fanouts_keep_the_probed_prefix() {
        // Fewer expensive items than workers: the probe computes item 0,
        // the pool computes the rest; results must match the serial
        // reference exactly (the prefix is kept, not recomputed).
        let slow = |i: usize, &x: &u64| {
            let t0 = Instant::now();
            while t0.elapsed().as_micros() < 200 {
                std::hint::black_box(i);
            }
            x * 2 + i as u64
        };
        let items = [5u64, 7, 9, 11];
        let serial = with_threads(1, || par_map(&items, slow));
        let probed = with_serial_threshold(1, || with_threads(16, || par_map(&items, slow)));
        assert_eq!(serial, probed);
    }

    /// The parallel section `run` leaves under `stage.t_attr` in a
    /// scope of its own.
    fn stage_parallel(run: impl FnOnce()) -> leo_obs::scope::StageParallel {
        leo_obs::set_enabled(true);
        let scope = leo_obs::scope::ObsScope::new();
        {
            let _guard = scope.enter();
            let _stage = leo_obs::span!("stage.t_attr");
            run();
        }
        scope.snapshot().parallel["stage.t_attr"].clone()
    }

    #[test]
    fn serial_fanouts_count_separately_from_pool_fanouts() {
        let attr = stage_parallel(|| {
            let _ = with_threads(1, || par_map(&[1u64; 10], |_, &x| x));
            let _ = with_threads(4, || par_map(&[1u64], |_, &x| x));
        });
        // One-worker and one-item executions count as serial calls,
        // never as synthetic one-chunk fan-outs.
        assert_eq!((attr.serial_calls, attr.fanouts, attr.chunks), (2, 0, 0));
        assert_eq!(attr.items, 11);
    }

    #[test]
    fn pooled_fanouts_are_attributed_to_the_owning_stage() {
        let items: Vec<u64> = (0..100).collect();
        let attr = stage_parallel(|| {
            let _ = with_serial_threshold(0, || with_threads(4, || par_map(&items, |_, &x| x + 1)));
        });
        // 100 items across 4 workers → one fan-out of 4 chunks.
        assert_eq!((attr.fanouts, attr.serial_calls), (1, 0));
        assert_eq!((attr.items, attr.chunks), (100, 4));
        assert_eq!(attr.per_worker_busy_ns.len(), 4);
        assert_eq!(attr.per_worker_busy_ns.iter().sum::<u64>(), attr.busy_ns);
    }

    #[test]
    fn fanouts_record_worker_chunk_trace_events() {
        leo_obs::set_enabled(true);
        let scope = leo_obs::scope::ObsScope::new();
        {
            let _guard = scope.enter();
            leo_obs::trace::start();
            // 103 items over 4 workers → chunks (0,26) (26,52) (52,78)
            // (78,103), one per worker lane.
            let items: Vec<u64> = (0..103).collect();
            let _ = with_serial_threshold(0, || with_threads(4, || par_map(&items, |_, &x| x + 1)));
        }
        let lanes = scope.snapshot().timeline;
        let chunk = |label: &str| {
            let event = &lanes.iter().find(|l| l.label == label)?.events[0];
            Some((event.name.as_str(), event.args.clone()))
        };
        let par_map = "parallel.par_map";
        assert_eq!(lanes.len(), 4, "{lanes:?}");
        assert_eq!(
            chunk("worker-0"),
            Some((par_map, vec![("chunk", 0), ("lo", 0), ("hi", 26)]))
        );
        assert_eq!(
            chunk("worker-3"),
            Some((par_map, vec![("chunk", 3), ("lo", 78), ("hi", 103)]))
        );
    }

    #[test]
    fn memo_records_hits_and_misses() {
        use leo_obs::metrics;
        leo_obs::set_enabled(true);
        let hits0 = metrics::counter_value("parallel.memo_hits");
        let misses0 = metrics::counter_value("parallel.memo_misses");
        let memo: Memo<u32> = Memo::new();
        let _ = memo.get_or_init(|| 1);
        let _ = memo.get_or_init(|| unreachable!());
        let _ = memo.get_or_init(|| unreachable!());
        assert!(metrics::counter_value("parallel.memo_misses") > misses0);
        assert!(metrics::counter_value("parallel.memo_hits") >= hits0 + 2);
    }

    #[test]
    fn mix64_separates_streams() {
        let a = mix64(7, 1);
        let b = mix64(7, 2);
        let c = mix64(8, 1);
        assert_ne!(a, b);
        assert_ne!(a, c);
        assert_eq!(a, mix64(7, 1), "pure function");
    }
}
