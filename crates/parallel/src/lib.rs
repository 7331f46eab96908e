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
//! The contract holds because the fan-out primitives, [`par_map`] and
//! its append form [`par_append`] (each item appends zero or more
//! outputs), share one core that never lets scheduling order reach the
//! result: it assigns contiguous index chunks to workers and
//! reassembles results **in input order**, and each element's value
//! depends only on the element (callers derive per-element RNG streams
//! via [`mix64`] instead of sharing one sequential stream).
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
//! A fan-out goes to the pool exactly when the effective thread count
//! is at least 2 and it has at least 2 items; otherwise it runs as one
//! serial loop on the caller. Item count and thread count alone decide
//! — never a clock — so the same run records the same fan-outs, chunk
//! plans and `pool.chunk` fault indices every time, and every item runs
//! exactly once.
//!
//! While a chunk runs, the thread-count override is pinned to 1, so a
//! nested `par_map` inside a chunk executes serially instead of
//! oversubscribing the host. This cannot affect results: every item's
//! value is independent of where it is computed.
//!
//! [`beside`] is the one primitive that is not a fan-out: it runs a
//! whole closure on the pool's last worker while the caller runs
//! another with one thread fewer, so two independent streams of work
//! share the pool without a thread of their own (the CLI's `all` runs
//! its side lane this way).
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
//! executions (one worker or a single-item input) go through
//! `attribute_serial` instead, so the record never overstates real
//! parallelism with synthetic chunks. The manifest
//! renders both as the per-stage `parallel` section, the one record of
//! pool work — written once per fan-out, never per item. When the
//! owning scope's timeline is started (`leo_obs::trace`), each
//! completed chunk additionally lands as one complete event on its
//! worker-index lane (chunk index, item range, busy duration, owning
//! span path), so `--trace` shows the fan-out shape per worker and
//! folded stacks telescope worker time under the owning stage.
//! The record and trace events feed the run manifest and trace export
//! only; they can never perturb results (the determinism contract
//! holds traced or not).

#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod pool;

pub use leo_fault::mix64;
use leo_obs::scope::{attribute_fanout, attribute_serial};
use parking_lot::Mutex;
use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};
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

/// Runs `side` on the worker pool's last worker while the caller runs
/// `main` with one thread fewer, and returns both results once both
/// have finished.
///
/// At `n` effective threads, `side` runs on pool worker `n − 2` — the
/// last one [`pool::prewarm`]`(n)` spawned, so no thread is spawned for
/// it — with nested fan-outs serial. `main` sees `n − 1` threads, so
/// its fan-outs use the caller and workers `0..n − 2` and never queue
/// behind `side`. At one thread both run on the caller, `side` first,
/// so `main` may consume what `side` produced.
///
/// `side` records into the caller's observability scope as a top-level
/// context of its own (`ObsContext::enter_top_level`): its spans are
/// roots with allocation accounting on, not children of whatever span
/// the caller has open, and its serial fan-outs are attributed to its
/// own root span.
///
/// A panic on either side resumes on the caller only after both have
/// finished, `main`'s first.
pub fn beside<RS, RM>(side: impl FnOnce() -> RS + Send, main: impl FnOnce() -> RM) -> (RS, RM)
where
    RS: Send,
{
    let ctx = leo_obs::scope::ObsContext::current();
    let side = Mutex::new(Some(side));
    let side_out = Mutex::new(None);
    let run_side = |_: usize| {
        let _obs_ctx = ctx.enter_top_level();
        let side = side.lock().take().expect("the side closure runs once");
        *side_out.lock() = Some(side());
    };
    let threads = effective_threads();
    let mut main_out = None;
    if threads <= 1 {
        let side_panic = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| run_side(0)));
        main_out = Some(main());
        if let Err(payload) = side_panic {
            std::panic::resume_unwind(payload);
        }
    } else {
        pool::run_beside(threads - 2, &run_side, || {
            main_out = Some(with_threads(threads - 1, main));
        });
    }
    let side_out = side_out.into_inner().expect("the side closure returned");
    (side_out, main_out.expect("the main closure returned"))
}

/// One chunk's result slot: the chunk output plus its busy-time in
/// nanoseconds, written once by the executing thread and drained in
/// chunk order during reassembly.
type ChunkSlot<T> = Mutex<Option<(T, u64)>>;

/// Maps `f` over `items` in parallel on the persistent worker pool,
/// preserving input order in the output. `f` receives `(index, &item)`
/// so callers can derive per-element seeds. Runs serially when the
/// effective thread count is 1 or the input has at most one item; the
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
    fan_out(items.len(), "parallel.par_map", 1, |i, out: &mut Vec<R>| {
        out.push(f(i, &items[i]));
    })
}

/// Runs `f(i, out)` for every `i` in `0..n` in parallel on the worker
/// pool, where each call appends any number of outputs to `out`.
/// Returns every output in index order: exactly what one serial loop
/// of `f` over `0..n` into one vector appends.
///
/// Each chunk appends to one growing buffer of its own, and the chunk
/// buffers are joined in chunk order. The serial path (one worker or
/// at most one item) appends straight into the returned vector. Chunk
/// plan, trace lanes and stage attribution are [`par_map`]'s. Panics in
/// `f` propagate to the caller.
pub fn par_append<R, F>(n: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize, &mut Vec<R>) + Sync,
{
    fan_out(n, "parallel.par_append", 0, f)
}

/// The one fan-out core behind [`par_map`] and [`par_append`]:
/// `step(i, out)` appends item `i`'s outputs to `out`, for `i` in
/// `0..n`, and the result is every output in index order. A chunk's
/// buffer starts with room for `reserve_per_item` outputs per item
/// (`par_map`'s one, so its chunks allocate once at their exact size).
/// Chunk events land on the trace's worker lanes under `name`.
fn fan_out<R, S>(n: usize, name: &'static str, reserve_per_item: usize, step: S) -> Vec<R>
where
    R: Send,
    S: Fn(usize, &mut Vec<R>) + Sync,
{
    let run = |range: std::ops::Range<usize>, out: &mut Vec<R>| {
        for i in range {
            step(i, out);
        }
    };
    let workers = effective_threads();
    if workers <= 1 || n <= 1 {
        let mut out = Vec::with_capacity(n * reserve_per_item);
        run(0..n, &mut out);
        attribute_serial(n as u64);
        return out;
    }
    // Capture the caller's scope and innermost span path so chunk
    // bodies (and their trace events) attribute under the owning
    // `stage.*` span on whichever thread they execute.
    let ctx = leo_obs::scope::ObsContext::current();
    let t0 = Instant::now();
    let plan = chunks(n, workers);
    let slots: Vec<ChunkSlot<Vec<R>>> = plan.iter().map(|_| Mutex::new(None)).collect();
    pool::run_chunks(plan.len(), &|w| {
        let _obs_ctx = ctx.enter();
        let (lo, hi) = plan[w];
        let w0 = Instant::now();
        let mut out = Vec::with_capacity((hi - lo) * reserve_per_item);
        run(lo..hi, &mut out);
        let w1 = Instant::now();
        leo_obs::trace::worker_chunk(w, name, ctx.parent(), w0, w1, lo, hi);
        *slots[w].lock() = Some((out, w1.saturating_duration_since(w0).as_nanos() as u64));
    });
    let joined: usize = slots
        .iter()
        .map(|slot| slot.lock().as_ref().map_or(0, |(chunk, _)| chunk.len()))
        .sum();
    let mut out = Vec::with_capacity(joined);
    let mut busy = Vec::with_capacity(plan.len());
    for slot in &slots {
        let (chunk, busy_ns) = slot.lock().take().expect("every chunk completed");
        out.extend(chunk);
        busy.push(busy_ns);
    }
    attribute_fanout(n as u64, &busy, t0.elapsed().as_nanos() as u64);
    out
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
            let pooled = with_threads(n, || par_map(&items, |i, &x| x * 3 + i as u64));
            assert_eq!(serial, pooled, "threads={n}");
        }
    }

    #[test]
    fn par_append_matches_a_serial_loop_for_any_thread_count() {
        // Item i appends i % 5 outputs: none for every fifth item, up
        // to four for the others.
        let emit = |i: usize, out: &mut Vec<u64>| {
            for k in 0..i % 5 {
                out.push((i * 10 + k) as u64);
            }
        };
        for n in [0usize, 1, 2, 7, 1000] {
            let mut serial = Vec::new();
            for i in 0..n {
                emit(i, &mut serial);
            }
            for threads in [1, 2, 3, 8] {
                let pooled = with_threads(threads, || par_append(n, emit));
                assert_eq!(serial, pooled, "n={n} threads={threads}");
            }
        }
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
    fn pool_reuses_the_same_worker_threads() {
        let ids = || with_threads(4, || par_map(&[(); 64], |_, _| std::thread::current().id()));
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
        let distinct: std::collections::HashSet<_> = first.iter().collect();
        assert_eq!(distinct.len(), 4, "the caller plus 3 pool workers");
    }

    #[test]
    fn pool_worker_panics_propagate_and_leave_the_pool_usable() {
        let caught = std::panic::catch_unwind(|| {
            with_threads(4, || {
                par_map(&[0u8; 64], |i, _| {
                    if i >= 48 {
                        panic!("chunk panic");
                    }
                    i
                })
            })
        });
        let payload = caught.expect_err("a pool-worker panic must reach the caller");
        let msg = payload.downcast_ref::<&str>().copied().unwrap_or_default();
        assert_eq!(msg, "chunk panic");
        // The worker that caught the panic keeps serving fan-outs.
        let out = with_threads(4, || par_map(&[0u8; 64], |i, _| i));
        assert_eq!(out, (0..64).collect::<Vec<usize>>());
    }

    #[test]
    fn nested_fanouts_flatten_to_serial_inside_pool_chunks() {
        let out = with_threads(4, || {
            par_map(&[10u64, 20, 30, 40], |_, &x| {
                let me = std::thread::current().id();
                assert_eq!(effective_threads(), 1, "chunks must see a serial world");
                let inner = par_map(&[1u64, 2, 3], |_, &y| (x + y, std::thread::current().id()));
                assert!(
                    inner.iter().all(|&(_, id)| id == me),
                    "nested fan-out left its worker"
                );
                inner.into_iter().map(|(v, _)| v).sum::<u64>()
            })
        });
        assert_eq!(out, vec![36, 66, 96, 126]);
    }

    /// The calling thread's name.
    fn thread_name() -> String {
        std::thread::current().name().unwrap_or("").to_string()
    }

    #[test]
    fn beside_runs_the_side_on_the_last_worker_and_main_one_thread_narrower() {
        for n in [2usize, 3, 4] {
            let (side, main) = with_threads(n, || {
                beside(
                    || {
                        let me = std::thread::current().id();
                        let nested = par_map(&[0u8; 8], |_, _| std::thread::current().id());
                        let serial = nested.iter().all(|&id| id == me);
                        (thread_name(), effective_threads(), serial)
                    },
                    || {
                        let ids = par_map(&[0u8; 64], |_, _| thread_name());
                        let distinct: std::collections::BTreeSet<String> =
                            ids.into_iter().collect();
                        (effective_threads(), distinct)
                    },
                )
            });
            let worker = format!("leo-par-{}", n - 2);
            assert_eq!(side, (worker.clone(), 1, true), "threads={n}");
            assert_eq!(main.0, n - 1, "threads={n}: the caller keeps n - 1 threads");
            assert_eq!(main.1.len(), n - 1, "threads={n}: {:?}", main.1);
            assert!(
                !main.1.contains(&worker),
                "threads={n}: main used the side worker"
            );
        }
        // One thread: both on the caller, the side first.
        let caller = std::thread::current().id();
        let order = Mutex::new(Vec::new());
        let ((), ()) = with_threads(1, || {
            beside(
                || order.lock().push(("side", std::thread::current().id())),
                || order.lock().push(("main", std::thread::current().id())),
            )
        });
        assert_eq!(order.into_inner(), [("side", caller), ("main", caller)]);
    }

    #[test]
    fn beside_resumes_a_panic_only_after_both_sides_finished() {
        use std::sync::atomic::AtomicBool;
        let slow = || {
            let t0 = Instant::now();
            while t0.elapsed().as_millis() < 20 {
                std::hint::black_box(0);
            }
        };
        for threads in [1usize, 2] {
            // The side panics while the main side is still running, and
            // the other way round; the caller sees the panic only once
            // the other side has finished.
            let finished = AtomicBool::new(false);
            let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                with_threads(threads, || {
                    beside(
                        || panic!("side panic"),
                        || {
                            slow();
                            finished.store(true, Ordering::SeqCst);
                        },
                    )
                })
            }));
            let payload = caught.expect_err("the side's panic reaches the caller");
            assert_eq!(payload.downcast_ref::<&str>(), Some(&"side panic"));
            assert!(
                finished.load(Ordering::SeqCst),
                "threads={threads}: main finished first"
            );

            let finished = AtomicBool::new(false);
            let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                with_threads(threads, || {
                    beside(
                        || {
                            slow();
                            finished.store(true, Ordering::SeqCst);
                        },
                        || panic!("main panic"),
                    )
                })
            }));
            let payload = caught.expect_err("the main side's panic reaches the caller");
            assert_eq!(payload.downcast_ref::<&str>(), Some(&"main panic"));
            assert!(
                finished.load(Ordering::SeqCst),
                "threads={threads}: side finished first"
            );
        }
        // The pool still serves both kinds of job.
        let (side, main) = with_threads(2, || beside(|| 1, || par_map(&[1, 2], |_, &x| x)));
        assert_eq!((side, main), (1, vec![1, 2]));
    }

    #[test]
    fn beside_records_the_side_as_a_root_of_the_callers_scope() {
        let scope = leo_obs::scope::ObsScope::new();
        {
            let _guard = scope.enter();
            let _stage = leo_obs::span!("stage.t_main");
            with_threads(2, || {
                beside(
                    || {
                        let _stage = leo_obs::span!("stage.t_side");
                        let _ = par_map(&[1u64, 2, 3], |_, &x| x);
                    },
                    || (),
                )
            });
        }
        let snap = scope.snapshot();
        let roots: Vec<&String> = snap.spans.keys().collect();
        assert_eq!(roots, ["stage.t_main", "stage.t_side"]);
        let side = &snap.parallel["stage.t_side"];
        assert_eq!((side.fanouts, side.serial_calls, side.items), (0, 1, 3));
    }

    #[test]
    fn every_item_runs_exactly_once() {
        // Six items of at least 50 µs each over two workers, through
        // both faces of the core: each index is computed once, on
        // whichever worker its chunk lands.
        let calls: Vec<AtomicUsize> = (0..6).map(|_| AtomicUsize::new(0)).collect();
        let slow = |i: usize| {
            calls[i].fetch_add(1, Ordering::Relaxed);
            let t0 = Instant::now();
            while t0.elapsed().as_micros() < 50 {
                std::hint::black_box(i);
            }
            i
        };
        let mapped = with_threads(2, || par_map(&calls, |i, _| slow(i)));
        let appended = with_threads(2, || par_append(calls.len(), |i, out| out.push(slow(i))));
        let expected: Vec<usize> = (0..6).collect();
        assert_eq!((mapped, appended), (expected.clone(), expected));
        let counts: Vec<usize> = calls.iter().map(|c| c.load(Ordering::Relaxed)).collect();
        assert_eq!(counts, vec![2; 6], "calls per index over the two fan-outs");
    }

    /// The parallel section `run` leaves under `stage.t_attr` in a
    /// scope of its own.
    fn stage_parallel(run: impl FnOnce()) -> leo_obs::scope::StageParallel {
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
            // Item and thread counts alone pick the path: two trivial
            // items on two threads pool however little each costs.
            let _ = with_threads(2, || par_map(&[1u64, 2], |_, &x| x));
        });
        // One-worker and one-item executions count as serial calls,
        // never as synthetic one-chunk fan-outs.
        assert_eq!((attr.serial_calls, attr.fanouts, attr.chunks), (2, 1, 2));
        assert_eq!(attr.items, 13);
    }

    #[test]
    fn pooled_fanouts_are_attributed_to_the_owning_stage() {
        let items: Vec<u64> = (0..100).collect();
        let attr = stage_parallel(|| {
            let _ = with_threads(4, || par_map(&items, |_, &x| x + 1));
        });
        // 100 items across 4 workers → one fan-out of 4 chunks.
        assert_eq!((attr.fanouts, attr.serial_calls), (1, 0));
        assert_eq!((attr.items, attr.chunks), (100, 4));
        assert_eq!(attr.per_worker_busy_ns.len(), 4);
        assert_eq!(attr.per_worker_busy_ns.iter().sum::<u64>(), attr.busy_ns);
        // The append form is attributed the same way, in items.
        let attr = stage_parallel(|| {
            let _ = with_threads(4, || par_append(100, |i, out| out.extend(0..i % 3)));
        });
        assert_eq!((attr.fanouts, attr.serial_calls), (1, 0));
        assert_eq!((attr.items, attr.chunks), (100, 4));
    }

    #[test]
    fn fanouts_record_worker_chunk_trace_events() {
        let scope = leo_obs::scope::ObsScope::new();
        {
            let _guard = scope.enter();
            leo_obs::trace::start();
            // 103 items over 4 workers → chunks (0,26) (26,52) (52,78)
            // (78,103), one per worker lane.
            let items: Vec<u64> = (0..103).collect();
            let _ = with_threads(4, || par_map(&items, |_, &x| x + 1));
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
    fn mix64_separates_streams() {
        let a = mix64(7, 1);
        let b = mix64(7, 2);
        let c = mix64(8, 1);
        assert_ne!(a, b);
        assert_ne!(a, c);
        assert_eq!(a, mix64(7, 1), "pure function");
    }
}
