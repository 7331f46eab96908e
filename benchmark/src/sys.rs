//! CPU time and peak memory from the kernel (`getrusage`, `wait4`,
//! `/proc/self/status`). The standard library exposes none of them, and
//! the benchmark measures from outside the program, so it asks the
//! kernel directly.

use std::io;
use std::os::raw::{c_int, c_long};
use std::os::unix::process::ExitStatusExt;
use std::process::{Child, ExitStatus};

#[repr(C)]
struct Timeval {
    sec: c_long,
    usec: c_long,
}

/// `struct rusage` as Linux lays it out: two timevals, then 14 longs
/// of which the first is `ru_maxrss` (KiB).
#[repr(C)]
struct Rusage {
    utime: Timeval,
    stime: Timeval,
    maxrss: c_long,
    rest: [c_long; 13],
}

extern "C" {
    fn getrusage(who: c_int, usage: *mut Rusage) -> c_int;
    fn wait4(pid: c_int, status: *mut c_int, options: c_int, usage: *mut Rusage) -> c_int;
}

const RUSAGE_SELF: c_int = 0;

/// Resources used by a process.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Usage {
    /// User plus system CPU seconds.
    pub cpu_s: f64,
    /// Peak resident set, KiB.
    pub maxrss_kb: f64,
}

fn zeroed() -> Rusage {
    Rusage {
        utime: Timeval { sec: 0, usec: 0 },
        stime: Timeval { sec: 0, usec: 0 },
        maxrss: 0,
        rest: [0; 13],
    }
}

impl From<&Rusage> for Usage {
    fn from(r: &Rusage) -> Self {
        let secs = |t: &Timeval| t.sec as f64 + t.usec as f64 * 1e-6;
        Usage {
            cpu_s: secs(&r.utime) + secs(&r.stime),
            maxrss_kb: r.maxrss as f64,
        }
    }
}

/// CPU seconds of every thread of this process so far.
pub fn self_cpu_s() -> f64 {
    let mut r = zeroed();
    // SAFETY: `r` is a live, writable `struct rusage` of the kernel's
    // layout, and RUSAGE_SELF is a valid `who`.
    let rc = unsafe { getrusage(RUSAGE_SELF, &mut r) };
    assert_eq!(
        rc, 0,
        "getrusage(RUSAGE_SELF) cannot fail with valid arguments"
    );
    Usage::from(&r).cpu_s
}

/// Peak RSS of this process's own address space (`VmHWM`), KiB.
/// `ru_maxrss` would not do: the kernel carries it across `exec`, so it
/// also holds the peak of whatever process spawned this one.
pub fn self_peak_rss_kb() -> io::Result<f64> {
    let status = std::fs::read_to_string("/proc/self/status")?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or_else(|| io::Error::other("no VmHWM in /proc/self/status"))
}

/// Reaps `child` and returns its exit status with the CPU time and peak
/// RSS of that child alone. The peak is at least this process's RSS
/// when it spawned the child, since the child starts as a copy of it;
/// keep this process small next to the child.
pub fn wait_child(child: Child) -> io::Result<(ExitStatus, Usage)> {
    let pid = c_int::try_from(child.id()).map_err(io::Error::other)?;
    let mut status: c_int = 0;
    let mut r = zeroed();
    loop {
        // SAFETY: `status` and `r` are live and writable; `pid` is our
        // own unreaped child, so the call reaps exactly that process.
        let rc = unsafe { wait4(pid, &mut status, 0, &mut r) };
        if rc == pid {
            return Ok((ExitStatus::from_raw(status), Usage::from(&r)));
        }
        let err = io::Error::last_os_error();
        if err.kind() != io::ErrorKind::Interrupted {
            return Err(err);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn child_usage_is_its_own() {
        let child = std::process::Command::new("true")
            .spawn()
            .expect("spawn true");
        let (status, usage) = wait_child(child).expect("wait4");
        assert!(status.success());
        assert!(usage.cpu_s >= 0.0 && usage.maxrss_kb > 0.0);
        assert!(self_cpu_s() > 0.0);
        assert!(self_peak_rss_kb().expect("VmHWM") > 0.0);
    }
}
