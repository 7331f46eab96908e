//! Process resource telemetry: the allocator hook and RSS sampling.
//!
//! `leo-obs` cannot depend on `leo-alloc` (the allocator crate sits
//! below everything, and only a *binary* can install a global
//! allocator), so the connection is inverted: the binary that owns the
//! `#[global_allocator]` registers an [`AllocHook`] of plain `fn`
//! pointers here, and the span layer ([`crate::span`]) and trace sink
//! read through it. No hook installed — no allocator telemetry, zero
//! cost beyond one relaxed load.
//!
//! RSS comes from `/proc/self/status` (`VmRSS` current, `VmHWM` peak),
//! so it is Linux-only; [`rss_kb`] returns `None` elsewhere and every
//! consumer degrades gracefully.

use std::sync::atomic::{AtomicBool, Ordering};

use parking_lot::Mutex;

/// A point-in-time reading of the tracking allocator's counters, as
/// exposed through the hook (a subset of `leo_alloc::AllocStats` — the
/// fields span accounting needs).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct AllocReading {
    /// Cumulative allocation calls.
    pub alloc_calls: u64,
    /// Cumulative deallocation calls.
    pub dealloc_calls: u64,
    /// Cumulative bytes allocated.
    pub allocated_bytes: u64,
    /// Live heap bytes right now.
    pub current_bytes: u64,
    /// Process-lifetime peak of the live heap.
    pub peak_bytes: u64,
}

/// The allocator hook: four capture-free `fn` pointers into whatever
/// tracking allocator the binary installed. The allocator counts each
/// lane of work apart (`leo_alloc::Lane`); the process readings are
/// the sums over the lanes, and the span readings are the calling
/// thread's lane's own.
#[derive(Clone, Copy)]
pub struct AllocHook {
    /// Reads the process counters, for the manifest's `resources` and
    /// the trace's `mem` lane.
    pub read: fn() -> AllocReading,
    /// Reads the calling thread's lane counters. Read when a top-level
    /// span opens and closes.
    pub read_lane: fn() -> AllocReading,
    /// Rebases the calling thread's lane's span high-water mark to
    /// that lane's live heap and returns it. Called when a top-level
    /// span opens.
    pub rebase_span_peak: fn() -> u64,
    /// The calling thread's lane's high-water mark since its last
    /// rebase. Read when a top-level span closes.
    pub span_peak: fn() -> u64,
}

static HOOK: Mutex<Option<AllocHook>> = Mutex::new(None);
/// Fast-path mirror of `HOOK.is_some()`.
static HOOK_SET: AtomicBool = AtomicBool::new(false);

/// Installs (`Some`) or removes (`None`) the process-wide allocator
/// hook. The `divide` binary installs it at startup.
pub fn set_alloc_hook(hook: Option<AllocHook>) {
    *HOOK.lock() = hook;
    HOOK_SET.store(hook.is_some(), Ordering::Relaxed);
}

/// The installed hook, if any. One relaxed load when absent.
pub fn alloc_hook() -> Option<AllocHook> {
    if !HOOK_SET.load(Ordering::Relaxed) {
        return None;
    }
    *HOOK.lock()
}

/// A resident-set-size reading from the kernel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RssReading {
    /// Current resident set, kB (`VmRSS`).
    pub current_kb: u64,
    /// Peak resident set, kB (`VmHWM`).
    pub peak_kb: u64,
}

/// Samples the process RSS from `/proc/self/status`. `None` on
/// non-Linux targets or if the pseudo-file is unreadable.
#[cfg(target_os = "linux")]
pub fn rss_kb() -> Option<RssReading> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    parse_proc_status(&status)
}

/// Samples the process RSS. Always `None` on non-Linux targets.
#[cfg(not(target_os = "linux"))]
pub fn rss_kb() -> Option<RssReading> {
    None
}

/// Parses the `VmRSS`/`VmHWM` lines of a `/proc/<pid>/status` dump.
/// Factored out so the parser is testable with canned input.
fn parse_proc_status(status: &str) -> Option<RssReading> {
    let mut current_kb = None;
    let mut peak_kb = None;
    for line in status.lines() {
        if let Some(rest) = line.strip_prefix("VmRSS:") {
            current_kb = parse_kb_field(rest);
        } else if let Some(rest) = line.strip_prefix("VmHWM:") {
            peak_kb = parse_kb_field(rest);
        }
    }
    Some(RssReading {
        current_kb: current_kb?,
        peak_kb: peak_kb?,
    })
}

/// Parses `"   123456 kB"` → `123456`.
fn parse_kb_field(rest: &str) -> Option<u64> {
    rest.split_whitespace().next()?.parse().ok()
}

/// Clock ticks per second for `/proc/<pid>/stat` time fields. The
/// kernel exports these in `USER_HZ`, which has been fixed at 100 on
/// every Linux ABI this tool targets; without a libc dependency there
/// is no portable `sysconf(_SC_CLK_TCK)` to ask, so the constant is
/// assumed and documented here.
#[cfg(target_os = "linux")]
const USER_HZ: f64 = 100.0;

/// Total CPU time (all live threads) consumed by the process so far,
/// in milliseconds. Unlike wall-clock it is almost immune to
/// scheduler preemption on a loaded host, which makes it the right
/// basis for overhead comparisons (`scripts/bench.sh` scores its
/// trace and fault A/Bs on it). `None` on non-Linux targets or if the
/// pseudo-files are unreadable.
///
/// Prefers summing `/proc/self/task/*/schedstat` (nanosecond-precise
/// CFS runtime; threads that already exited are not counted — the
/// worker pool lives until process exit, so in practice nothing is
/// lost) and falls back to `/proc/self/stat` utime+stime, whose 10 ms
/// tick granularity is too coarse for percent-level comparisons but
/// better than nothing when `CONFIG_SCHED_INFO` is off.
#[cfg(target_os = "linux")]
pub fn cpu_ms() -> Option<f64> {
    schedstat_cpu_ms().or_else(|| {
        let stat = std::fs::read_to_string("/proc/self/stat").ok()?;
        parse_proc_stat_cpu(&stat)
    })
}

/// Sums the on-CPU nanoseconds (first field of `schedstat`) across
/// every live thread. Threads racing to exit mid-walk are skipped.
#[cfg(target_os = "linux")]
fn schedstat_cpu_ms() -> Option<f64> {
    let mut total_ns: u64 = 0;
    let mut seen = false;
    for entry in std::fs::read_dir("/proc/self/task").ok()? {
        let Ok(entry) = entry else { continue };
        let Ok(body) = std::fs::read_to_string(entry.path().join("schedstat")) else {
            continue;
        };
        let Some(ns) = body
            .split_whitespace()
            .next()
            .and_then(|f| f.parse::<u64>().ok())
        else {
            continue;
        };
        total_ns += ns;
        seen = true;
    }
    seen.then(|| total_ns as f64 / 1e6)
}

/// Total process CPU time. Always `None` on non-Linux targets.
#[cfg(not(target_os = "linux"))]
pub fn cpu_ms() -> Option<f64> {
    None
}

/// Extracts utime+stime (fields 14 and 15) from a `/proc/<pid>/stat`
/// line. The comm field (2) may contain spaces and parentheses, so
/// parsing starts after the *last* `')'`; field 3 (state) is then the
/// first whitespace-separated token, putting utime at index 11 and
/// stime at index 12.
#[cfg(target_os = "linux")]
fn parse_proc_stat_cpu(stat: &str) -> Option<f64> {
    let after_comm = &stat[stat.rfind(')')? + 1..];
    let mut fields = after_comm.split_whitespace();
    let utime: u64 = fields.nth(11)?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some((utime + stime) as f64 * 1000.0 / USER_HZ)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_vmrss_and_vmhwm() {
        let status = "Name:\tdivide\nVmPeak:\t  200000 kB\nVmHWM:\t  123456 kB\nVmRSS:\t   98765 kB\nThreads:\t4\n";
        let r = parse_proc_status(status).unwrap();
        assert_eq!(r.current_kb, 98765);
        assert_eq!(r.peak_kb, 123456);
    }

    #[test]
    fn missing_fields_yield_none() {
        assert!(parse_proc_status("Name:\tdivide\n").is_none());
        assert!(parse_proc_status("VmRSS:\t 1 kB\n").is_none());
        assert!(parse_proc_status("VmRSS:\tgarbage\nVmHWM:\t 1 kB\n").is_none());
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn live_rss_is_positive_and_consistent() {
        let r = rss_kb().expect("/proc/self/status should parse");
        assert!(r.current_kb > 0);
        assert!(r.peak_kb >= r.current_kb);
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn parses_cpu_time_past_a_hostile_comm_field() {
        // comm with spaces and a ')' — everything left of the last ')'
        // must be skipped. utime=250 ticks, stime=50 ticks @ 100 Hz.
        let stat =
            "1234 (a (we)ird name) S 1 1 1 0 -1 4194304 500 0 0 0 250 50 0 0 20 0 4 0 100 0 0";
        assert_eq!(parse_proc_stat_cpu(stat), Some(3000.0));
        assert_eq!(parse_proc_stat_cpu("garbage"), None);
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn live_cpu_time_reads_and_moves() {
        let before = cpu_ms().expect("cpu time should read");
        assert!(before >= 0.0 && before.is_finite());
        // Burn CPU; the reading should grow. (Strict monotonicity
        // across two reads is not assertable here: sibling test
        // threads exiting between them legitimately shrink the
        // schedstat sum.)
        let mut acc = 0u64;
        for i in 0..20_000_000u64 {
            acc = acc.wrapping_add(i * i);
        }
        std::hint::black_box(acc);
        let after = cpu_ms().expect("cpu time should read");
        assert!(after.is_finite() && after >= 0.0, "{after}");
    }

    fn fake_read() -> AllocReading {
        AllocReading {
            alloc_calls: 10,
            dealloc_calls: 4,
            allocated_bytes: 4096,
            current_bytes: 1024,
            peak_bytes: 2048,
        }
    }
    fn fake_rebase() -> u64 {
        1024
    }
    fn fake_span_peak() -> u64 {
        2048
    }

    #[test]
    fn hook_install_and_remove() {
        let _lock = crate::test_lock();
        set_alloc_hook(Some(AllocHook {
            read: fake_read,
            read_lane: fake_read,
            rebase_span_peak: fake_rebase,
            span_peak: fake_span_peak,
        }));
        let hook = alloc_hook().expect("hook installed");
        assert_eq!((hook.read)().allocated_bytes, 4096);
        assert_eq!((hook.rebase_span_peak)(), 1024);
        assert_eq!((hook.span_peak)(), 2048);
        set_alloc_hook(None);
        assert!(alloc_hook().is_none());
    }
}
