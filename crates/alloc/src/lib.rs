//! # leo-alloc
//!
//! A tracking wrapper around the system allocator. Installed as the
//! `#[global_allocator]` of the `divide` binary (and of the
//! determinism test harness), it counts every allocation and
//! deallocation and maintains the live heap size plus high-water marks
//! — one for the whole process, and one rebasable mark per [`Lane`] —
//! all in relaxed atomics. Only cumulative counters are written on the
//! hot path (two RMW operations per `malloc`, two per `free`; live heap
//! sizes are *derived* as `allocated - freed` at read time), and
//! nothing at all is touched while tracking is off.
//!
//! ## Lanes
//!
//! A run can compute on two lanes at once (the CLI's `all`): the main
//! lane and a side lane. Each lane has its own counters and its own
//! rebasable span peak, so a stage measured on one lane sees only the
//! blocks allocated (and the frees made) on that lane. A thread's lane
//! is a thread-local that defaults to [`Lane::Main`]; [`with_lane`]
//! switches it for a closure. The process totals ([`stats`]) are the
//! sums over the lanes, and the process peak is the highest their
//! summed live heap has been.
//!
//! ## Why a wrapper, not a custom allocator
//!
//! The goal is *attribution*, not a faster heap: the run manifest wants
//! to answer "how many bytes did `stage.fig2` allocate and how far did
//! the heap rise while it ran". Every request is forwarded verbatim to
//! [`std::alloc::System`]; with tracking disabled (the default, and the
//! `DIVIDE_OBS=off` path) the wrapper is a single relaxed load on top
//! of the system allocator.
//!
//! ## The determinism contract
//!
//! Identical to `leo-obs`'s: this crate only *observes*. The counters
//! are read back exclusively by the observability layer (manifest,
//! ledger, trace counter lane); nothing in the pipeline ever branches
//! on them, so artifact bytes are independent of tracking being on or
//! off (`tests/determinism.rs` asserts it end to end).
//!
//! ## Safety
//!
//! The tracking path must never allocate (it would recurse into
//! itself) and never panic. It touches only `static` atomics with
//! `Relaxed` ordering and one `const`-initialised thread-local cell
//! (no destructor, so it is readable for the whole life of a thread) —
//! cross-thread *ordering* of individual updates is irrelevant because
//! only monotone sums and maxima are derived from them.

#![deny(unsafe_code)]
#![warn(missing_docs)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering::Relaxed};

/// The lane a thread's allocations and frees are counted on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Lane {
    /// The default: the caller and every pool worker.
    Main = 0,
    /// A second stream of work beside the main lane.
    Side = 1,
}

/// One lane's counters and span peak, on a 64-byte line of their own:
/// each lane is written by its own threads, so two lanes allocating at
/// once never bounce a shared line.
#[repr(align(64))]
struct LaneCounters {
    alloc_calls: AtomicU64,
    dealloc_calls: AtomicU64,
    allocated_bytes: AtomicU64,
    freed_bytes: AtomicU64,
    /// The rebasable high-water mark: [`rebase_span_peak`] resets it
    /// to the lane's live heap so a top-level span measures its *own*
    /// peak, not a taller one left behind by an earlier stage.
    span_peak_bytes: AtomicU64,
}

impl LaneCounters {
    const fn new() -> Self {
        LaneCounters {
            alloc_calls: AtomicU64::new(0),
            dealloc_calls: AtomicU64::new(0),
            allocated_bytes: AtomicU64::new(0),
            freed_bytes: AtomicU64::new(0),
            span_peak_bytes: AtomicU64::new(0),
        }
    }

    /// The lane's live heap: signed, because a lane can free blocks
    /// another lane allocated (or that predate tracking), which pushes
    /// `freed` past `allocated`; readers clamp at zero.
    fn current_raw(&self) -> i64 {
        self.allocated_bytes.load(Relaxed) as i64 - self.freed_bytes.load(Relaxed) as i64
    }
}

static LANES: [LaneCounters; 2] = [LaneCounters::new(), LaneCounters::new()];

/// What each allocation reads but seldom writes, on a line of its own.
#[repr(align(64))]
struct Marks {
    tracking: AtomicBool,
    peak_bytes: AtomicU64,
}

static MARKS: Marks = Marks {
    tracking: AtomicBool::new(false),
    peak_bytes: AtomicU64::new(0),
};

thread_local! {
    static LANE: Cell<Lane> = const { Cell::new(Lane::Main) };
}

fn lane() -> &'static LaneCounters {
    &LANES[LANE.try_with(Cell::get).unwrap_or(Lane::Main) as usize]
}

/// Runs `f` with the calling thread's allocations and frees counted on
/// `lane`, and restores the thread's previous lane afterwards, also
/// when `f` panics.
pub fn with_lane<R>(lane: Lane, f: impl FnOnce() -> R) -> R {
    struct Restore(Lane);
    impl Drop for Restore {
        fn drop(&mut self) {
            LANE.with(|cell| cell.set(self.0));
        }
    }
    let _restore = Restore(LANE.with(|cell| cell.replace(lane)));
    f()
}

/// Turns allocation tracking on or off for the whole process. Off by
/// default; the CLI enables it at startup unless `DIVIDE_OBS=off` (or
/// `DIVIDE_ALLOC=off`) holds.
pub fn set_tracking(on: bool) {
    MARKS.tracking.store(on, Relaxed);
}

/// A point-in-time copy of the allocator counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct AllocStats {
    /// Number of allocation requests (allocs, zeroed allocs, and the
    /// alloc half of every realloc).
    pub alloc_calls: u64,
    /// Number of deallocation requests (frees and the free half of
    /// every realloc).
    pub dealloc_calls: u64,
    /// Cumulative bytes requested across all allocations.
    pub allocated_bytes: u64,
    /// Cumulative bytes returned across all deallocations.
    pub freed_bytes: u64,
    /// Live heap bytes right now (clamped at zero: frees of
    /// pre-tracking blocks cannot take it negative).
    pub current_bytes: u64,
    /// The highest `current_bytes` has been: since process start for
    /// [`stats`], since the last [`rebase_span_peak`] for
    /// [`lane_stats`].
    pub peak_bytes: u64,
}

/// The process's live heap: the lanes' live heaps summed.
fn process_current_raw() -> i64 {
    LANES.iter().map(LaneCounters::current_raw).sum()
}

/// Reads the process totals: every counter summed over the lanes, and
/// the process peak. Values move concurrently with the read, so the
/// fields are each individually accurate but not a consistent cut —
/// exactly what monotone before/after deltas need.
pub fn stats() -> AllocStats {
    let sum = |field: fn(&LaneCounters) -> &AtomicU64| -> u64 {
        LANES.iter().map(|l| field(l).load(Relaxed)).sum()
    };
    AllocStats {
        alloc_calls: sum(|l| &l.alloc_calls),
        dealloc_calls: sum(|l| &l.dealloc_calls),
        allocated_bytes: sum(|l| &l.allocated_bytes),
        freed_bytes: sum(|l| &l.freed_bytes),
        current_bytes: process_current_raw().max(0) as u64,
        peak_bytes: MARKS.peak_bytes.load(Relaxed),
    }
}

/// Reads the calling thread's lane: its own counters, its live heap,
/// and its span peak as `peak_bytes`.
pub fn lane_stats() -> AllocStats {
    let l = lane();
    AllocStats {
        alloc_calls: l.alloc_calls.load(Relaxed),
        dealloc_calls: l.dealloc_calls.load(Relaxed),
        allocated_bytes: l.allocated_bytes.load(Relaxed),
        freed_bytes: l.freed_bytes.load(Relaxed),
        current_bytes: l.current_raw().max(0) as u64,
        peak_bytes: l.span_peak_bytes.load(Relaxed),
    }
}

/// Rebases the calling thread's lane's span high-water mark to that
/// lane's live heap and returns it. Called at every top-level span
/// boundary by `leo-obs` so [`span_peak_bytes`] measures the peak
/// *within* the span.
///
/// The plain store can race with a concurrent allocation's `fetch_max`
/// on the same lane and momentarily lose its bump; top-level spans open
/// between stages, when the lane's pool workers are idle, so in
/// practice the rebase is quiescent.
pub fn rebase_span_peak() -> u64 {
    let l = lane();
    let now = l.current_raw().max(0) as u64;
    l.span_peak_bytes.store(now, Relaxed);
    now
}

/// The highest the calling thread's lane's live heap has been since
/// the lane's last [`rebase_span_peak`] (since process start if never
/// rebased).
pub fn span_peak_bytes() -> u64 {
    lane().span_peak_bytes.load(Relaxed)
}

/// Load-then-CAS maximum: the common no-new-peak case is a single
/// relaxed load, keeping the hot path cheap.
fn bump_max(slot: &AtomicU64, value: i64) {
    if value > 0 && slot.load(Relaxed) < value as u64 {
        slot.fetch_max(value as u64, Relaxed);
    }
}

fn on_alloc(bytes: usize) {
    let l = lane();
    l.alloc_calls.fetch_add(1, Relaxed);
    let allocated = l.allocated_bytes.fetch_add(bytes as u64, Relaxed) + bytes as u64;
    // Live heaps after this allocation, from the cumulative counters
    // (plain loads, no third RMW). A `freed` load racing a concurrent
    // free can only make a sample smaller — an undercounted peak,
    // never an inflated one — and the next allocation resamples.
    let lane_now = allocated as i64 - l.freed_bytes.load(Relaxed) as i64;
    bump_max(&l.span_peak_bytes, lane_now);
    bump_max(&MARKS.peak_bytes, process_current_raw());
}

fn on_dealloc(bytes: usize) {
    let l = lane();
    l.dealloc_calls.fetch_add(1, Relaxed);
    l.freed_bytes.fetch_add(bytes as u64, Relaxed);
}

/// The tracking allocator. Declare it as the global allocator:
///
/// ```ignore
/// #[global_allocator]
/// static ALLOC: leo_alloc::TrackingAlloc = leo_alloc::TrackingAlloc::new();
/// ```
///
/// Tracking starts disabled; call [`set_tracking`]`(true)` to begin
/// counting.
pub struct TrackingAlloc;

impl TrackingAlloc {
    /// The allocator value (`const`, so it can initialize a `static`).
    pub const fn new() -> Self {
        TrackingAlloc
    }
}

impl Default for TrackingAlloc {
    fn default() -> Self {
        Self::new()
    }
}

// The one unsafe surface of the crate: forwarding the GlobalAlloc
// contract to System. Every method forwards verbatim and touches only
// relaxed atomics besides — no allocation, no panic, no reentrancy.
#[allow(unsafe_code)]
unsafe impl GlobalAlloc for TrackingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let ptr = System.alloc(layout);
        if !ptr.is_null() && MARKS.tracking.load(Relaxed) {
            on_alloc(layout.size());
        }
        ptr
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let ptr = System.alloc_zeroed(layout);
        if !ptr.is_null() && MARKS.tracking.load(Relaxed) {
            on_alloc(layout.size());
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        if MARKS.tracking.load(Relaxed) {
            on_dealloc(layout.size());
        }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let new_ptr = System.realloc(ptr, layout, new_size);
        if !new_ptr.is_null() && MARKS.tracking.load(Relaxed) {
            // One alloc of the new block plus one free of the old:
            // call counts stay balanced and `current` moves by the
            // size delta.
            on_alloc(new_size);
            on_dealloc(layout.size());
        }
        new_ptr
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Tests mutate process-wide state; serialize them.
    fn test_lock() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
        LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// A heap block allocated and freed through [`TrackingAlloc`]
    /// directly. The tests do not install it as this binary's global
    /// allocator: libtest's own threads allocate and free concurrently,
    /// and through a global tracking allocator they would move the
    /// shared counters between a test's snapshots. Here only these
    /// blocks touch the counters.
    struct Block {
        ptr: *mut u8,
        layout: Layout,
    }

    #[allow(unsafe_code)]
    impl Block {
        fn new(bytes: usize) -> Self {
            let layout = Layout::from_size_align(bytes, 8).expect("valid layout");
            // SAFETY: every caller asks for a non-zero size.
            let ptr = unsafe { TrackingAlloc.alloc(layout) };
            assert!(!ptr.is_null(), "allocation failed");
            Block { ptr, layout }
        }

        fn grow(mut self, new_size: usize) -> Self {
            // SAFETY: `ptr` was allocated by `TrackingAlloc` with
            // `layout`, and `new_size` is non-zero and rounds to a valid
            // layout at the same alignment.
            let ptr = unsafe { TrackingAlloc.realloc(self.ptr, self.layout, new_size) };
            assert!(!ptr.is_null(), "reallocation failed");
            self.ptr = ptr;
            self.layout = Layout::from_size_align(new_size, 8).expect("valid layout");
            self
        }
    }

    #[allow(unsafe_code)]
    impl Drop for Block {
        fn drop(&mut self) {
            // SAFETY: `ptr` was allocated by `TrackingAlloc` with
            // `layout` and is freed exactly once, here.
            unsafe { TrackingAlloc.dealloc(self.ptr, self.layout) }
        }
    }

    #[test]
    fn tracking_counts_allocations_and_bytes() {
        let _lock = test_lock();
        set_tracking(true);
        let before = stats();
        let block = Block::new(64 * 1024);
        let during = stats();
        drop(block);
        let after = stats();
        set_tracking(false);
        assert_eq!(during.alloc_calls, before.alloc_calls + 1);
        assert_eq!(during.allocated_bytes, before.allocated_bytes + 64 * 1024);
        assert_eq!(during.current_bytes, before.current_bytes + 64 * 1024);
        assert_eq!(after.dealloc_calls, during.dealloc_calls + 1);
        assert_eq!(after.freed_bytes, during.freed_bytes + 64 * 1024);
        assert_eq!(after.current_bytes, before.current_bytes);
        assert!(after.peak_bytes >= during.current_bytes);
    }

    #[test]
    fn disabled_tracking_counts_nothing() {
        let _lock = test_lock();
        set_tracking(false);
        let before = stats();
        drop(Block::new(256 * 1024));
        let after = stats();
        assert_eq!(before, after);
    }

    #[test]
    fn span_peak_rebases_to_live_heap() {
        let _lock = test_lock();
        set_tracking(true);
        // Raise the process peak well above the live heap...
        drop(Block::new(1 << 20));
        // ...then rebase: the span peak restarts from `current`, far
        // below the 1 MiB the process peak retains.
        let base = rebase_span_peak();
        assert_eq!(span_peak_bytes(), base);
        let small = Block::new(100 * 1024);
        let peak = span_peak_bytes();
        drop(small);
        set_tracking(false);
        assert_eq!(peak, base + 100 * 1024);
        assert!(stats().peak_bytes >= 1 << 20);
    }

    #[test]
    fn lanes_count_their_own_blocks_and_sum_to_the_process_totals() {
        let _lock = test_lock();
        set_tracking(true);
        let before = stats();
        // Both lanes hold their blocks at the same time: the barrier
        // is passed only once each lane has allocated all of its own.
        let held = std::sync::Barrier::new(2);
        let run = |lane: Lane, sizes: &[usize]| {
            with_lane(lane, || {
                let base = rebase_span_peak();
                let start = lane_stats();
                let blocks: Vec<Block> = sizes.iter().map(|&b| Block::new(b)).collect();
                held.wait();
                let rise = span_peak_bytes() - base;
                let during = lane_stats();
                drop(blocks);
                held.wait();
                (
                    during.alloc_calls - start.alloc_calls,
                    during.allocated_bytes - start.allocated_bytes,
                    rise,
                )
            })
        };
        let (main, side) = std::thread::scope(|s| {
            let side = s.spawn(|| run(Lane::Side, &[300 * 1024, 200 * 1024]));
            (
                run(Lane::Main, &[64 * 1024; 4]),
                side.join().expect("side lane"),
            )
        });
        let after = stats();
        set_tracking(false);
        assert_eq!(main, (4, 256 * 1024, 256 * 1024), "main lane");
        assert_eq!(side, (2, 500 * 1024, 500 * 1024), "side lane");
        assert_eq!(after.alloc_calls - before.alloc_calls, 6);
        assert_eq!(after.dealloc_calls - before.dealloc_calls, 6);
        assert_eq!(after.allocated_bytes - before.allocated_bytes, 756 * 1024);
        assert_eq!(after.current_bytes, before.current_bytes);
        // The lane that allocates last samples the summed live heap
        // with at least its own 500 KiB (its own writes are always
        // visible to it) on top of the other lane's baseline.
        assert!(after.peak_bytes >= before.current_bytes + 500 * 1024);
        assert_eq!(LANE.with(Cell::get), Lane::Main, "with_lane restores");
    }

    #[test]
    fn realloc_keeps_call_counts_balanced() {
        let _lock = test_lock();
        set_tracking(true);
        let before = stats();
        let block = Block::new(1024).grow(65 * 1024);
        drop(block);
        let after = stats();
        set_tracking(false);
        // Every grow pairs an alloc with a free, so the two allocations
        // and two frees balance and the live heap is back where it was.
        assert_eq!(after.alloc_calls - before.alloc_calls, 2);
        assert_eq!(after.dealloc_calls - before.dealloc_calls, 2);
        assert_eq!(after.allocated_bytes - before.allocated_bytes, 66 * 1024);
        assert_eq!(after.current_bytes, before.current_bytes);
    }
}
