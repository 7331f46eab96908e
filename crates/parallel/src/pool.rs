//! Persistent worker pool: the process-wide threads behind
//! [`par_map`].
//!
//! The first fan-out that needs `k` chunks spawns pool workers
//! `0..k-1` lazily (chunk 0 always runs on the calling thread); every
//! later fan-out reuses them, so dispatch costs one mailbox push and a
//! condvar wake — microseconds — instead of OS-thread creation and
//! join. Paying the spawn/join on *every* fan-out, hundreds of times
//! per paper-scale run, is what made `--threads 4` slower than
//! `--threads 1` before this module existed.
//!
//! Chunk `i` of a fan-out always runs on pool worker `i - 1` (each
//! worker has its own mailbox). The static assignment keeps the
//! trace's `worker-<i>` lanes pinned to real, reused OS threads
//! (lane `worker-0` is the calling thread), and makes reuse assertable:
//! consecutive fan-outs at the same width observe the same
//! [`std::thread::ThreadId`]s.
//!
//! While any chunk runs — on a pool worker or on the caller — the
//! thread-local thread-count override is forced to 1, so a nested
//! fan-out inside a chunk executes serially instead of oversubscribing
//! the host (under the old scoped-thread scheme workers inherited the
//! caller's width, and a fan-out inside a fan-out could stack
//! `workers × workers` fresh threads).
//!
//! A panic inside a chunk is caught on the executing thread, recorded
//! in the job, and resumed on the fan-out's caller only after every
//! chunk has finished. Pool workers therefore never die, and — the
//! safety invariant the lifetime erasure below rests on — the job's
//! borrowed task can never be observed by a worker after
//! [`run_chunks`] returns.
//!
//! [`par_map`]: crate::par_map

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

type PanicPayload = Box<dyn std::any::Any + Send + 'static>;

/// `Mutex::lock` that shrugs off poisoning: every critical section in
/// this module is a plain field assignment and cannot panic, and the
/// chunk tasks themselves run outside any lock.
fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

fn wait<'a, T>(cv: &Condvar, guard: MutexGuard<'a, T>) -> MutexGuard<'a, T> {
    cv.wait(guard).unwrap_or_else(PoisonError::into_inner)
}

fn wait_for<'a, T>(cv: &Condvar, guard: MutexGuard<'a, T>, dur: Duration) -> MutexGuard<'a, T> {
    match cv.wait_timeout(guard, dur) {
        Ok((guard, _)) => guard,
        Err(poisoned) => poisoned.into_inner().0,
    }
}

/// Per-fan-out watchdog deadline in milliseconds; 0 (the default)
/// disables the watchdog. The CLI wires `DIVIDE_POOL_TIMEOUT_MS` here.
static STALL_TIMEOUT_MS: AtomicU64 = AtomicU64::new(0);

/// Sets the fan-out watchdog deadline (0 disables).
pub fn set_stall_timeout_ms(ms: u64) {
    STALL_TIMEOUT_MS.store(ms, Ordering::Relaxed);
}

/// The configured fan-out watchdog deadline (0 = off).
pub fn stall_timeout_ms() -> u64 {
    STALL_TIMEOUT_MS.load(Ordering::Relaxed)
}

/// What the watchdog observed when a fan-out blew its deadline.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StallReport {
    /// Total time the caller has waited on this fan-out (ms).
    pub waited_ms: u64,
    /// Width of the fan-out.
    pub n_chunks: usize,
    /// Chunk indices that have not finished, in order.
    pub stalled_chunks: Vec<usize>,
}

impl StallReport {
    /// The trace lane names of the stalled chunks (chunk `i`
    /// executes on lane `worker-<i>`; `worker-0` is the caller).
    pub fn lanes(&self) -> Vec<String> {
        self.stalled_chunks
            .iter()
            .map(|&c| format!("worker-{c}"))
            .collect()
    }
}

/// What to do about a detected stall.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StallAction {
    /// Terminate the process with this exit code (the default, code 1).
    ///
    /// Exiting — rather than returning an error — is forced by the
    /// pool's lifetime-erasure invariant: `run_chunks` may not return
    /// while a stuck worker could still dereference the borrowed task,
    /// so a stalled fan-out can end only by the worker finishing or
    /// the process dying. The typed log line + exit code 1 is the
    /// "typed error instead of a silent hang".
    Exit(i32),
    /// Re-arm the deadline and keep waiting (test instrumentation).
    KeepWaiting,
}

type StallHandler = fn(&StallReport) -> StallAction;

static STALL_HANDLER: Mutex<Option<StallHandler>> = Mutex::new(None);

/// Overrides what a detected stall does (`None` restores the default
/// log-and-exit-1). Tests install a `KeepWaiting` recorder.
pub fn set_stall_handler(handler: Option<StallHandler>) {
    *lock(&STALL_HANDLER) = handler;
}

/// Sequential dispatch counter behind `pool.chunk` injection call
/// indices. Advanced only on the fan-out caller (fan-outs are serial:
/// nested ones are flattened), so chunk `c` of the `k`-th instrumented
/// fan-out gets the same index at any `--threads` width.
static CHUNK_SEQ: AtomicU64 = AtomicU64::new(0);

/// One fan-out in flight: the lifetime-erased chunk task plus the
/// rendezvous state its caller blocks on.
struct Job {
    /// Points at the closure held on the caller's stack frame. Only
    /// dereferenced by [`Job::run`], which can only execute while
    /// `pending > 0`; [`run_chunks`] does not return until `pending`
    /// reaches zero, so the referent is always alive when read.
    task: *const (dyn Fn(usize) + Sync),
    /// Chunks not yet finished (counts the caller's chunk 0 too).
    pending: Mutex<usize>,
    /// Signalled when `pending` reaches zero.
    done: Condvar,
    /// First panic payload caught in any chunk; resumed on the caller.
    panic: Mutex<Option<PanicPayload>>,
    /// Per-chunk completion flags (set even on panic), so the watchdog
    /// can name exactly which chunks are stuck.
    completed: Vec<AtomicBool>,
    /// Base `pool.chunk` injection index for this fan-out (chunk `c`
    /// checks index `base + c`); `None` when no fault plan is active.
    fault_base: Option<u64>,
}

// SAFETY: `task` targets a `Sync` closure, so sharing and calling it
// from several threads is sound; the pointer is only dereferenced
// while the owning `run_chunks` frame keeps the closure alive (see the
// field docs). Workers may hold a dangling `Arc<Job>` briefly after
// the caller returns, but a raw pointer — unlike a reference — is
// allowed to dangle as long as it is not dereferenced.
#[allow(unsafe_code)]
unsafe impl Send for Job {}
#[allow(unsafe_code)]
unsafe impl Sync for Job {}

impl Job {
    /// Executes one chunk with nested fan-outs forced serial, catches
    /// any panic into the job's panic slot, then signals completion.
    fn run(&self, chunk: usize) {
        // SAFETY: `pending` still counts this chunk, so the caller of
        // `run_chunks` is blocked (or about to block) in its
        // rendezvous and the closure is alive.
        #[allow(unsafe_code)]
        let task = unsafe { &*self.task };
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            crate::with_threads(1, || {
                if let Some(base) = self.fault_base {
                    if let Some(fault) =
                        leo_fault::should_fire_at("pool.chunk", base + chunk as u64)
                    {
                        // Delay sleeps here (feeding the watchdog);
                        // err/panic unwind into the catch below.
                        fault.apply_chunk();
                    }
                }
                task(chunk)
            })
        }));
        if let Err(payload) = outcome {
            let mut slot = lock(&self.panic);
            if slot.is_none() {
                *slot = Some(payload);
            }
        }
        self.completed[chunk].store(true, Ordering::Release);
        let mut pending = lock(&self.pending);
        *pending -= 1;
        if *pending == 0 {
            self.done.notify_all();
        }
    }
}

/// One worker's inbox of `(job, chunk index)` assignments.
struct Mailbox {
    queue: Mutex<VecDeque<(Arc<Job>, usize)>>,
    ready: Condvar,
}

/// Every pool worker spawned so far, in index order. Workers live for
/// the rest of the process — there is no shutdown path, matching the
/// CLI's run-to-exit lifecycle and keeping the reuse contract trivial.
static POOL: Mutex<Vec<Arc<Mailbox>>> = Mutex::new(Vec::new());

/// Mirror of `POOL.len()` readable without the lock.
static POOL_SIZE: AtomicUsize = AtomicUsize::new(0);

/// Number of persistent pool workers spawned so far (process-wide and
/// monotone; the calling thread of a fan-out is not counted). A
/// `--threads N` run settles at `N - 1`.
pub fn pool_size() -> usize {
    POOL_SIZE.load(Ordering::Relaxed)
}

/// Spawns the pool workers a `threads`-wide fan-out will use, so the
/// first paper-scale fan-out doesn't pay thread creation. The CLI
/// calls this once, right after resolving `--threads`.
pub fn prewarm(threads: usize) {
    ensure_workers(threads.saturating_sub(1));
}

fn worker_loop(mailbox: &Mailbox) {
    loop {
        let (job, chunk) = {
            let mut queue = lock(&mailbox.queue);
            loop {
                if let Some(next) = queue.pop_front() {
                    break next;
                }
                queue = wait(&mailbox.ready, queue);
            }
        };
        job.run(chunk);
    }
}

/// Ensures workers `0..n` exist, spawning only the missing ones.
fn ensure_workers(n: usize) {
    if POOL_SIZE.load(Ordering::Relaxed) >= n {
        return;
    }
    let mut pool = lock(&POOL);
    while pool.len() < n {
        let mailbox = Arc::new(Mailbox {
            queue: Mutex::new(VecDeque::new()),
            ready: Condvar::new(),
        });
        let theirs = Arc::clone(&mailbox);
        std::thread::Builder::new()
            .name(format!("leo-par-{}", pool.len()))
            .spawn(move || worker_loop(&theirs))
            .expect("spawn pool worker");
        pool.push(mailbox);
        if leo_obs::enabled() {
            leo_obs::metrics::counter_add("parallel.pool_spawned_threads", 1);
        }
    }
    POOL_SIZE.store(pool.len(), Ordering::Relaxed);
}

/// Runs `task(i)` for every chunk index `0..n_chunks` — chunk 0 on the
/// calling thread, chunk `i` on pool worker `i - 1` — and returns once
/// all of them have finished. A panic in any chunk (including the
/// caller's own) resumes on the caller after the rendezvous, so no
/// chunk's completion is ever skipped.
pub(crate) fn run_chunks(n_chunks: usize, task: &(dyn Fn(usize) + Sync)) {
    debug_assert!(n_chunks >= 1);
    ensure_workers(n_chunks.saturating_sub(1));
    // SAFETY (lifetime erasure): the raw pointer is only dereferenced
    // by `Job::run` while `pending > 0`, and this function only
    // returns — normally or by `resume_unwind` — after the rendezvous
    // below observed `pending == 0`. The caller's own chunk runs
    // through `Job::run` too, so even its panic is deferred past the
    // rendezvous. `task` therefore strictly outlives every dereference.
    #[allow(unsafe_code)]
    let task: *const (dyn Fn(usize) + Sync) = unsafe { std::mem::transmute(task) };
    // Reserve the fan-out's injection indices up front, on the caller:
    // dispatch order is serial and deterministic even though chunk
    // execution is not. One relaxed load when no plan is active.
    let fault_base = if leo_fault::active() {
        Some(CHUNK_SEQ.fetch_add(n_chunks as u64, Ordering::Relaxed))
    } else {
        None
    };
    let job = Arc::new(Job {
        task,
        pending: Mutex::new(n_chunks),
        done: Condvar::new(),
        panic: Mutex::new(None),
        completed: (0..n_chunks).map(|_| AtomicBool::new(false)).collect(),
        fault_base,
    });
    if n_chunks > 1 {
        let pool = lock(&POOL);
        for chunk in 1..n_chunks {
            let mailbox = &pool[chunk - 1];
            lock(&mailbox.queue).push_back((Arc::clone(&job), chunk));
            mailbox.ready.notify_one();
        }
    }
    job.run(0);
    rendezvous(&job, n_chunks);
    let panicked = lock(&job.panic).take();
    if let Some(payload) = panicked {
        std::panic::resume_unwind(payload);
    }
}

/// Blocks until every chunk of `job` has finished. With a watchdog
/// deadline configured, detects stuck chunks, names them (chunk and
/// lane), and applies the stall handler — by default a typed error
/// line and `exit(1)`, because returning early would dangle the
/// borrowed task (see [`StallAction::Exit`]).
fn rendezvous(job: &Job, n_chunks: usize) {
    let timeout_ms = stall_timeout_ms();
    let mut pending = lock(&job.pending);
    if timeout_ms == 0 {
        while *pending > 0 {
            pending = wait(&job.done, pending);
        }
        return;
    }
    let per_wait = Duration::from_millis(timeout_ms);
    let mut deadline = Instant::now() + per_wait;
    let mut waited_ms = timeout_ms;
    while *pending > 0 {
        let now = Instant::now();
        if now < deadline {
            pending = wait_for(&job.done, pending, deadline - now);
            continue;
        }
        let stalled_chunks: Vec<usize> = (0..n_chunks)
            .filter(|&c| !job.completed[c].load(Ordering::Acquire))
            .collect();
        drop(pending);
        let report = StallReport {
            waited_ms,
            n_chunks,
            stalled_chunks,
        };
        if leo_obs::enabled() {
            leo_obs::metrics::counter_add("parallel.pool_stalls", 1);
        }
        let handler = *lock(&STALL_HANDLER);
        let action = match handler {
            Some(h) => h(&report),
            None => StallAction::Exit(1),
        };
        match action {
            StallAction::Exit(code) => {
                leo_obs::log_error!(
                    "pool watchdog: fan-out of {} chunks stalled after {} ms: chunk(s) {:?} (lane(s) {:?}) never finished; exiting {}",
                    report.n_chunks,
                    report.waited_ms,
                    report.stalled_chunks,
                    report.lanes(),
                    code
                );
                std::process::exit(code);
            }
            StallAction::KeepWaiting => {
                deadline = Instant::now() + per_wait;
                waited_ms += timeout_ms;
                pending = lock(&job.pending);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn run_chunks_executes_every_chunk_exactly_once() {
        let hits: Vec<AtomicU64> = (0..6).map(|_| AtomicU64::new(0)).collect();
        run_chunks(6, &|w| {
            hits[w].fetch_add(1, Ordering::SeqCst);
        });
        for (w, h) in hits.iter().enumerate() {
            assert_eq!(h.load(Ordering::SeqCst), 1, "chunk {w}");
        }
    }

    #[test]
    fn single_chunk_runs_on_the_caller() {
        let caller = std::thread::current().id();
        let seen = Mutex::new(None);
        run_chunks(1, &|_| {
            *lock(&seen) = Some(std::thread::current().id());
        });
        assert_eq!(lock(&seen).take(), Some(caller));
    }

    #[test]
    fn prewarm_spawns_workers_up_front() {
        prewarm(3);
        assert!(pool_size() >= 2, "prewarm(3) keeps >= 2 pool workers");
    }

    /// Reports captured by the `KeepWaiting` test handler (watchdog
    /// state is process-global, so the recorder is too).
    static STALL_REPORTS: Mutex<Vec<StallReport>> = Mutex::new(Vec::new());

    fn record_and_wait(report: &StallReport) -> StallAction {
        lock(&STALL_REPORTS).push(report.clone());
        StallAction::KeepWaiting
    }

    #[test]
    fn watchdog_names_the_stalled_chunk_and_lane() {
        // Width 5 tags this fan-out's reports; other tests in this
        // binary never fan out 5 wide while a watchdog is armed.
        const WIDTH: usize = 5;
        set_stall_handler(Some(record_and_wait));
        set_stall_timeout_ms(40);
        run_chunks(WIDTH, &|c| {
            if c == 3 {
                std::thread::sleep(Duration::from_millis(220));
            }
        });
        set_stall_timeout_ms(0);
        set_stall_handler(None);
        let reports: Vec<StallReport> = lock(&STALL_REPORTS)
            .drain(..)
            .filter(|r| r.n_chunks == WIDTH)
            .collect();
        assert!(
            !reports.is_empty(),
            "a 220 ms chunk under a 40 ms deadline trips the watchdog"
        );
        let last = reports.last().expect("nonempty");
        assert_eq!(last.stalled_chunks, vec![3], "only chunk 3 is stuck");
        assert_eq!(last.lanes(), vec!["worker-3".to_string()]);
        assert!(last.waited_ms >= 40);
    }

    #[test]
    fn injected_chunk_faults_are_keyed_by_dispatch_order() {
        let plan = leo_fault::FaultPlan::parse("seed=11;pool.chunk:p=0.5,mode=delay,delay_ms=0")
            .expect("plan parses");
        // The decision for dispatch index k is pure; collect the
        // expected pattern first.
        let expected: Vec<bool> = (0..8)
            .map(|k| plan.decide("pool.chunk", k).is_some())
            .collect();
        assert!(expected.iter().any(|&f| f), "p=0.5 fires in 8 draws");
        leo_fault::set_plan(Some(plan));
        let before = leo_fault::counter_value("fault.injected.pool.chunk");
        run_chunks(4, &|_| {});
        run_chunks(4, &|_| {});
        let after = leo_fault::counter_value("fault.injected.pool.chunk");
        leo_fault::set_plan(None);
        // Other tests in this binary may fan out concurrently while the
        // plan is briefly active, so dispatch indices are not exclusively
        // ours; assert the site is wired and fires, not an exact count
        // (the index->decision purity is pinned in leo-fault itself).
        assert!(
            after > before,
            "p=0.5 over 8 dispatched chunks injects at least once"
        );
    }
}
