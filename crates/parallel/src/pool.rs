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
//! The same mailboxes carry the one job that is not a fan-out:
//! [`run_beside`] queues a whole closure on one worker, the last one
//! [`beside`] may use, and the caller runs a second closure meanwhile.
//! It spawns no thread of its own: the worker is one [`prewarm`]
//! already started.
//!
//! [`par_map`]: crate::par_map
//! [`beside`]: crate::beside

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};

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

/// Sequential dispatch counter behind `pool.chunk` injection call
/// indices. Advanced only on the fan-out caller (fan-outs are serial:
/// nested ones are flattened, and a side job's are serial too), and
/// which fan-outs pool depends on item and thread counts alone, so
/// chunk `c` of the `k`-th pooled fan-out gets the same index on every
/// run at a given `--threads` width.
static CHUNK_SEQ: AtomicU64 = AtomicU64::new(0);

/// One fan-out (or side job) in flight: the lifetime-erased chunk task
/// plus the rendezvous state its caller blocks on.
struct Job {
    /// Points at the closure held on the caller's stack frame. Only
    /// dereferenced by [`Job::run`], which can only execute while
    /// `pending > 0`; the job's creator does not return until
    /// [`Job::join`] saw `pending` reach zero, so the referent is
    /// always alive when read.
    task: *const (dyn Fn(usize) + Sync),
    /// Chunks not yet finished (counts a fan-out caller's chunk 0 too).
    pending: Mutex<usize>,
    /// Signalled when `pending` reaches zero.
    done: Condvar,
    /// First panic payload caught in any chunk; resumed on the caller.
    panic: Mutex<Option<PanicPayload>>,
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
    /// A job of `pending` chunks of `task`, erasing the borrow's
    /// lifetime.
    ///
    /// # Safety
    ///
    /// The caller must not return — normally or by unwinding — before
    /// [`Job::join`] has returned: workers dereference `task` until the
    /// last chunk finishes, and only the rendezvous observes that.
    #[allow(unsafe_code)]
    unsafe fn new(
        task: &(dyn Fn(usize) + Sync),
        pending: usize,
        fault_base: Option<u64>,
    ) -> Arc<Job> {
        // SAFETY: the caller upholds the contract above, so `task`
        // outlives every dereference through the erased pointer.
        let task: *const (dyn Fn(usize) + Sync) = unsafe { std::mem::transmute(task) };
        Arc::new(Job {
            task,
            pending: Mutex::new(pending),
            done: Condvar::new(),
            panic: Mutex::new(None),
            fault_base,
        })
    }

    /// Executes one chunk with nested fan-outs forced serial, catches
    /// any panic into the job's panic slot, then signals completion.
    fn run(&self, chunk: usize) {
        // SAFETY: `pending` still counts this chunk, so the job's
        // creator is blocked (or about to block) in `join` and the
        // closure is alive.
        #[allow(unsafe_code)]
        let task = unsafe { &*self.task };
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            crate::with_threads(1, || {
                if let Some(base) = self.fault_base {
                    if let Some(fault) =
                        leo_fault::should_fire_at("pool.chunk", base + chunk as u64)
                    {
                        // Delay sleeps here; err/panic unwind into
                        // the catch below.
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
        let mut pending = lock(&self.pending);
        *pending -= 1;
        if *pending == 0 {
            self.done.notify_all();
        }
    }

    /// Queues chunk `chunk` on pool worker `worker`, which must exist.
    fn send(self: &Arc<Self>, pool: &[Arc<Mailbox>], worker: usize, chunk: usize) {
        let mailbox = &pool[worker];
        lock(&mailbox.queue).push_back((Arc::clone(self), chunk));
        mailbox.ready.notify_one();
    }

    /// The rendezvous: blocks until every chunk has finished, then
    /// returns the first panic any of them caught.
    fn join(&self) -> Option<PanicPayload> {
        let mut pending = lock(&self.pending);
        while *pending > 0 {
            pending = wait(&self.done, pending);
        }
        drop(pending);
        lock(&self.panic).take()
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
        leo_obs::metrics::counter_add("parallel.pool_spawned_threads", 1);
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
    // Reserve the fan-out's injection indices up front, on the caller:
    // dispatch order is serial and deterministic even though chunk
    // execution is not. One relaxed load when no plan is active.
    let fault_base = if leo_fault::active() {
        Some(CHUNK_SEQ.fetch_add(n_chunks as u64, Ordering::Relaxed))
    } else {
        None
    };
    // SAFETY: this function only returns — normally or by
    // `resume_unwind` — after `join` below. The caller's own chunk runs
    // through `Job::run` too, so even its panic is deferred past the
    // rendezvous.
    #[allow(unsafe_code)]
    let job = unsafe { Job::new(task, n_chunks, fault_base) };
    if n_chunks > 1 {
        let pool = lock(&POOL);
        for chunk in 1..n_chunks {
            job.send(&pool, chunk - 1, chunk);
        }
    }
    job.run(0);
    if let Some(payload) = job.join() {
        std::panic::resume_unwind(payload);
    }
}

/// Runs `side` on pool worker `worker` while the caller runs `main`,
/// and returns once both have finished. `side` runs as a one-chunk job:
/// nested fan-outs inside it are serial, it has no `pool.chunk` fault
/// site, and its panic is caught on the worker. A panic in either
/// resumes on the caller after the rendezvous, `main`'s first.
pub(crate) fn run_beside(worker: usize, side: &(dyn Fn(usize) + Sync), main: impl FnOnce()) {
    ensure_workers(worker + 1);
    // SAFETY: `main` runs under `catch_unwind`, so nothing unwinds out
    // of this function before `join` below.
    #[allow(unsafe_code)]
    let job = unsafe { Job::new(side, 1, None) };
    job.send(&lock(&POOL), worker, 0);
    let main = catch_unwind(AssertUnwindSafe(main));
    let side = job.join();
    if let Err(payload) = main {
        std::panic::resume_unwind(payload);
    }
    if let Some(payload) = side {
        std::panic::resume_unwind(payload);
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
        assert!(
            POOL_SIZE.load(Ordering::Relaxed) >= 2,
            "prewarm(3) keeps >= 2 pool workers"
        );
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
