//! Minimal async-signal-safe SIGINT/SIGTERM cleanup.
//!
//! The build is offline (no `libc`/`signal-hook` crates), so this
//! module declares the three POSIX symbols it needs directly. The
//! handler body obeys the async-signal-safety rules: it performs only
//! atomic loads, `unlink(2)`, and `_exit(2)` — no allocation, no
//! locks, no formatting.
//!
//! [`register_tmp`] parks the NUL-terminated path of an in-flight
//! staging file in a fixed slot table the handler scans; the returned
//! guard empties the slot when the write completes. The `CString`
//! backing a registered path is **intentionally leaked** on
//! unregister: the handler may be dereferencing the pointer at that
//! very moment, and one short path per artifact write is a small,
//! documented cost. (A slot freelist could reclaim them if a
//! long-running process ever makes the leak matter.)

use std::ffi::CString;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

/// Exit status for a signal-interrupted run (128 + SIGINT).
pub const EXIT_INTERRUPTED: i32 = 130;

pub(crate) const SLOTS: usize = 64;

// Const-item repeat: `AtomicUsize` is not `Copy`, and inline-const
// array initializers need a newer toolchain than our MSRV.
#[allow(clippy::declare_interior_mutable_const)]
const EMPTY_SLOT: AtomicUsize = AtomicUsize::new(0);
static TMP_SLOTS: [AtomicUsize; SLOTS] = [EMPTY_SLOT; SLOTS];

static INSTALLED: AtomicBool = AtomicBool::new(false);

#[cfg(unix)]
mod sys {
    use std::os::raw::{c_char, c_int};

    pub const SIGINT: c_int = 2;
    pub const SIGTERM: c_int = 15;

    extern "C" {
        pub fn signal(signum: c_int, handler: usize) -> usize;
        pub fn unlink(path: *const c_char) -> c_int;
        pub fn _exit(status: c_int) -> !;
    }
}

/// The handler: unlink every registered staging file, then exit 130.
/// Async-signal-safe by construction (see module docs).
#[cfg(unix)]
extern "C" fn on_signal(_signum: std::os::raw::c_int) {
    remove_registered();
    // SAFETY: `_exit` is async-signal-safe and diverges.
    unsafe { sys::_exit(EXIT_INTERRUPTED) }
}

/// Unlinks every registered staging file: the signal handler's cleanup
/// (only atomic loads and `unlink(2)`), and the same for a process about
/// to end through `std::process::exit`, which runs no destructors — the
/// files a [`crate::safe_io::Batch`] staged are all in the slot table,
/// so they go even though the batch is never dropped. The slots stay
/// taken; the process is ending. A no-op off Unix.
pub fn remove_registered() {
    #[cfg(unix)]
    for slot in TMP_SLOTS.iter() {
        let ptr = slot.load(Ordering::Acquire);
        if ptr != 0 {
            // SAFETY: a nonzero slot holds a leaked, NUL-terminated
            // CString installed by `register_tmp` and never freed, so
            // the pointer is valid for the life of the process.
            unsafe {
                sys::unlink(ptr as *const std::os::raw::c_char);
            }
        }
    }
}

/// Installs the SIGINT/SIGTERM handler (idempotent; no-op off Unix).
pub fn install() {
    if INSTALLED.swap(true, Ordering::SeqCst) {
        return;
    }
    #[cfg(unix)]
    {
        #[allow(clippy::fn_to_numeric_cast_any)]
        let handler = on_signal as extern "C" fn(std::os::raw::c_int) as usize;
        // SAFETY: installing a handler that itself only calls
        // async-signal-safe functions; `signal` is safe to call from
        // the main thread at startup.
        unsafe {
            sys::signal(sys::SIGINT, handler);
            sys::signal(sys::SIGTERM, handler);
        }
    }
}

/// Clears a registered slot on drop (see [`register_tmp`]).
#[must_use]
#[derive(Debug)]
pub struct TmpGuard {
    slot: Option<usize>,
}

impl TmpGuard {
    /// True when the path holds a slot, so a signal or
    /// [`remove_registered`] unlinks it.
    #[cfg(test)]
    pub(crate) fn registered(&self) -> bool {
        self.slot.is_some()
    }
}

impl Drop for TmpGuard {
    fn drop(&mut self) {
        if let Some(i) = self.slot {
            // Empty the slot; the CString itself is leaked on purpose
            // (module docs) because the handler may still be reading it.
            TMP_SLOTS[i].store(0, Ordering::Release);
        }
    }
}

/// Registers `path` for unlink-on-signal while a staged write is in
/// flight. Returns a guard that unregisters it; if the slot table is
/// full or the path is not representable, cleanup for this one file is
/// skipped (the startup sweep still catches it next run).
pub fn register_tmp(path: &Path) -> TmpGuard {
    let Ok(cstr) = CString::new(path.as_os_str().as_encoded_bytes()) else {
        return TmpGuard { slot: None };
    };
    let ptr = cstr.into_raw() as usize;
    for (i, slot) in TMP_SLOTS.iter().enumerate() {
        if slot
            .compare_exchange(0, ptr, Ordering::AcqRel, Ordering::Relaxed)
            .is_ok()
        {
            return TmpGuard { slot: Some(i) };
        }
    }
    // Table full: reclaim the allocation, skip registration.
    // SAFETY: `ptr` came from `CString::into_raw` above and was not
    // published to any slot.
    unsafe {
        drop(CString::from_raw(ptr as *mut std::os::raw::c_char));
    }
    TmpGuard { slot: None }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::ffi::CStr;
    use std::path::PathBuf;

    // Other tests in this binary (safe_io's retrying writes) hold slots
    // concurrently, so these assert on the guard's own slot, never on
    // how many slots are occupied.
    #[test]
    fn register_occupies_a_slot_and_drop_frees_it() {
        let path = PathBuf::from("/tmp/leo-fault-test.tmp.1");
        let guard = register_tmp(&path);
        let slot = guard.slot.expect("a free slot");
        let ptr = TMP_SLOTS[slot].load(Ordering::Acquire);
        assert_ne!(ptr, 0);
        // SAFETY: a nonzero slot holds a leaked, NUL-terminated CString
        // (module docs), valid for the life of the process.
        let held = unsafe { CStr::from_ptr(ptr as *const std::os::raw::c_char) };
        assert_eq!(held.to_bytes(), path.as_os_str().as_encoded_bytes());
        drop(guard);
        // Another test may claim the freed slot at once, but never with
        // this pointer: its CString is leaked, so the address stays taken.
        assert_ne!(TMP_SLOTS[slot].load(Ordering::Acquire), ptr);
    }

    #[test]
    fn unrepresentable_paths_are_skipped_not_fatal() {
        use std::ffi::OsString;
        #[cfg(unix)]
        let path = {
            use std::os::unix::ffi::OsStringExt;
            PathBuf::from(OsString::from_vec(vec![b'a', 0, b'b']))
        };
        #[cfg(not(unix))]
        let path = PathBuf::from("plain");
        let guard = register_tmp(&path);
        #[cfg(unix)]
        assert_eq!(guard.slot, None, "a NUL byte cannot be unlinked by path");
        drop(guard);
    }

    #[test]
    fn install_is_idempotent() {
        install();
        install();
    }
}
