//! # leo-alloc
//!
//! A tracking wrapper around the system allocator. Installed as the
//! `#[global_allocator]` of the `divide` binary (and of the
//! determinism test harness), it counts every allocation and
//! deallocation and maintains the live heap size plus two high-water
//! marks — one for the whole process, one rebasable per pipeline stage
//! — all in relaxed atomics. Only cumulative counters are written on
//! the hot path (two RMW operations per `malloc`, two per `free`; the
//! live heap size is *derived* as `allocated - freed` at read time),
//! and nothing at all is touched while tracking is off.
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
//! `Relaxed` ordering — cross-thread *ordering* of individual updates
//! is irrelevant because only monotone sums and maxima are derived
//! from them.

#![deny(unsafe_code)]
#![warn(missing_docs)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering::Relaxed};

/// The four counters every allocation or free writes, on a 64-byte
/// line of their own: unaligned, a mark every allocation reads could
/// share their line, and two allocating threads then bounced two lines.
#[repr(align(64))]
struct Counters {
    alloc_calls: AtomicU64,
    dealloc_calls: AtomicU64,
    allocated_bytes: AtomicU64,
    freed_bytes: AtomicU64,
}

/// What each allocation reads but seldom writes, on a second line of
/// its own.
#[repr(align(64))]
struct Marks {
    tracking: AtomicBool,
    peak_bytes: AtomicU64,
    /// The rebasable high-water mark: [`rebase_span_peak`] resets it
    /// to the live heap size so a top-level span measures its *own*
    /// peak, not a taller one left behind by an earlier stage.
    span_peak_bytes: AtomicU64,
}

static COUNTERS: Counters = Counters {
    alloc_calls: AtomicU64::new(0),
    dealloc_calls: AtomicU64::new(0),
    allocated_bytes: AtomicU64::new(0),
    freed_bytes: AtomicU64::new(0),
};

static MARKS: Marks = Marks {
    tracking: AtomicBool::new(false),
    peak_bytes: AtomicU64::new(0),
    span_peak_bytes: AtomicU64::new(0),
};

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
    /// The highest `current_bytes` has ever been.
    pub peak_bytes: u64,
}

/// The live heap size is not its own counter: it is derived as
/// `allocated - freed` at read time, which keeps one RMW off both
/// halves of the allocator hot path. Signed because frees of blocks
/// allocated before tracking was enabled legitimately push `freed`
/// past `allocated`; readers clamp at zero.
fn current_raw() -> i64 {
    COUNTERS.allocated_bytes.load(Relaxed) as i64 - COUNTERS.freed_bytes.load(Relaxed) as i64
}

/// Reads every counter. Values move concurrently with the read, so the
/// fields are each individually accurate but not a consistent cut —
/// exactly what monotone before/after deltas need.
pub fn stats() -> AllocStats {
    AllocStats {
        alloc_calls: COUNTERS.alloc_calls.load(Relaxed),
        dealloc_calls: COUNTERS.dealloc_calls.load(Relaxed),
        allocated_bytes: COUNTERS.allocated_bytes.load(Relaxed),
        freed_bytes: COUNTERS.freed_bytes.load(Relaxed),
        current_bytes: current_raw().max(0) as u64,
        peak_bytes: MARKS.peak_bytes.load(Relaxed),
    }
}

/// Rebases the span high-water mark to the live heap size and returns
/// that size. Called at every top-level span boundary by `leo-obs` so
/// [`span_peak_bytes`] measures the peak *within* the span.
///
/// The plain store can race with a concurrent allocation's `fetch_max`
/// and momentarily lose its bump; top-level spans open on the main
/// thread between stages, when the worker pool is idle, so in practice
/// the rebase is quiescent.
pub fn rebase_span_peak() -> u64 {
    let now = current_raw().max(0) as u64;
    MARKS.span_peak_bytes.store(now, Relaxed);
    now
}

/// The highest the live heap has been since the last
/// [`rebase_span_peak`] (process lifetime if never rebased).
pub fn span_peak_bytes() -> u64 {
    MARKS.span_peak_bytes.load(Relaxed)
}

/// Load-then-CAS maximum: the common no-new-peak case is a single
/// relaxed load, keeping the hot path cheap.
fn bump_max(slot: &AtomicU64, value: u64) {
    if slot.load(Relaxed) < value {
        slot.fetch_max(value, Relaxed);
    }
}

fn on_alloc(bytes: usize) {
    COUNTERS.alloc_calls.fetch_add(1, Relaxed);
    let allocated = COUNTERS.allocated_bytes.fetch_add(bytes as u64, Relaxed) + bytes as u64;
    // Live heap after this allocation, from the cumulative counters
    // (plain loads, no third RMW). The FREED load racing a concurrent
    // free can only make `now` smaller — an undercounted peak sample,
    // never an inflated one — and the next allocation resamples.
    let now = allocated as i64 - COUNTERS.freed_bytes.load(Relaxed) as i64;
    if now > 0 {
        let now = now as u64;
        bump_max(&MARKS.peak_bytes, now);
        bump_max(&MARKS.span_peak_bytes, now);
    }
}

fn on_dealloc(bytes: usize) {
    COUNTERS.dealloc_calls.fetch_add(1, Relaxed);
    COUNTERS.freed_bytes.fetch_add(bytes as u64, Relaxed);
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
