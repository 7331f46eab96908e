//! Crash-safe artifact IO: atomic tmp+rename writes with bounded
//! retry-and-backoff, a generic retry wrapper for append-style
//! protocols, and startup sweeping of orphaned temp files.
//!
//! Every write here passes through the `io.write` / `io.fsync` /
//! `io.rename` injection sites, so the fault plans in `chaos.sh`
//! exercise exactly the code paths a real disk error would.

use std::fs;
use std::io;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::time::Duration;

/// Total attempts per write (1 initial + 2 retries).
pub const ATTEMPTS: u32 = 3;

/// Deterministic backoff before retry `n` (ms). Short on purpose: the
/// transient errors worth retrying (EINTR-ish, injected) clear fast,
/// and a run should fail in milliseconds, not minutes, when they don't.
const BACKOFF_MS: [u64; 2] = [5, 25];

fn backoff(attempt: u32) {
    crate::counter_add("fault.retries", 1);
    let ms = BACKOFF_MS[((attempt - 1) as usize).min(BACKOFF_MS.len() - 1)];
    std::thread::sleep(Duration::from_millis(ms));
}

/// The temp path a write of `path` stages through:
/// `<file_name>.tmp.<pid>` in the same directory, so the final rename
/// never crosses a filesystem and the pid suffix lets
/// [`sweep_orphan_tmp`] tell live writers from dead ones.
#[must_use]
pub fn tmp_path(path: &Path) -> PathBuf {
    let name = path
        .file_name()
        .map(|n| n.to_string_lossy().into_owned())
        .unwrap_or_else(|| "artifact".to_string());
    path.with_file_name(format!("{name}.tmp.{}", std::process::id()))
}

/// Writes `bytes` to `path` atomically: parent dirs are created, the
/// payload is staged to [`tmp_path`], fsynced, and renamed into place.
/// Transient failures are retried up to [`ATTEMPTS`] times with
/// deterministic backoff (counted under `fault.retries`); the staged
/// temp is registered with [`crate::signal`] so SIGINT/SIGTERM cannot
/// leave it behind, and is removed on final failure or a panic.
/// Readers therefore see either the old bytes or the new bytes, never
/// a torn file.
pub fn write_atomic(path: &Path, bytes: &[u8]) -> io::Result<()> {
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            fs::create_dir_all(parent)?;
        }
    }
    let tmp = tmp_path(path);
    let mut staged = Staged {
        tmp: &tmp,
        renamed: false,
        _signal: crate::signal::register_tmp(&tmp),
    };
    let mut last_err: Option<io::Error> = None;
    for attempt in 0..ATTEMPTS {
        if attempt > 0 {
            backoff(attempt);
        }
        match write_attempt(path, &tmp, bytes) {
            Ok(()) => {
                staged.renamed = true;
                return Ok(());
            }
            Err(e) => last_err = Some(e),
        }
    }
    Err(last_err.unwrap_or_else(|| io::Error::other("atomic write failed")))
}

/// A staged temp file that is removed on drop unless it was renamed
/// into place: one guard covers the error return and a panic unwinding
/// out of an injection site. It also holds the temp's signal-cleanup
/// registration, released after the removal.
struct Staged<'a> {
    tmp: &'a Path,
    renamed: bool,
    _signal: crate::signal::TmpGuard,
}

impl Drop for Staged<'_> {
    fn drop(&mut self) {
        if !self.renamed {
            let _ = fs::remove_file(self.tmp);
        }
    }
}

/// One staged-write attempt; each step passes its injection site first
/// so an injected fault takes the identical error path a real one would.
fn write_attempt(path: &Path, tmp: &Path, bytes: &[u8]) -> io::Result<()> {
    if let Some(e) = crate::should_fire("io.write").and_then(crate::Fault::apply_io) {
        return Err(e);
    }
    let mut file = fs::File::create(tmp)?;
    file.write_all(bytes)?;
    if let Some(e) = crate::should_fire("io.fsync").and_then(crate::Fault::apply_io) {
        return Err(e);
    }
    file.sync_all()?;
    drop(file);
    if let Some(e) = crate::should_fire("io.rename").and_then(crate::Fault::apply_io) {
        return Err(e);
    }
    fs::rename(tmp, path)
}

/// Runs `op` under the bounded retry-and-backoff policy, checking the
/// injection site `site` before each attempt. For protocols that are
/// already atomic per operation (the ledger's `O_APPEND` single
/// `write_all`) and only need the retry half of [`write_atomic`].
pub fn retrying<T>(site: &str, mut op: impl FnMut() -> io::Result<T>) -> io::Result<T> {
    let mut last_err: Option<io::Error> = None;
    for attempt in 0..ATTEMPTS {
        if attempt > 0 {
            backoff(attempt);
        }
        if let Some(e) = crate::should_fire(site).and_then(crate::Fault::apply_io) {
            last_err = Some(e);
            continue;
        }
        match op() {
            Ok(v) => return Ok(v),
            Err(e) => last_err = Some(e),
        }
    }
    Err(last_err.unwrap_or_else(|| io::Error::other(format!("{site}: operation failed"))))
}

/// Removes orphaned staging files in `dir` (non-recursive): names of
/// the [`tmp_path`] form `<name>.tmp.<pid>` whose pid names a process
/// that no longer exists. Files staged by live processes (including
/// this one) and every other name, a bare `<name>.tmp` too, are left
/// alone. Returns the number removed (also counted under
/// `fault.tmp_swept`).
pub fn sweep_orphan_tmp(dir: &Path) -> u64 {
    let entries = match fs::read_dir(dir) {
        Ok(entries) => entries,
        Err(_) => return 0,
    };
    let mut swept = 0u64;
    for entry in entries.flatten() {
        if !entry.file_type().map(|t| t.is_file()).unwrap_or(false) {
            continue;
        }
        let name = entry.file_name();
        let Some(pid) = name
            .to_string_lossy()
            .rsplit_once(".tmp.")
            .and_then(|(_, pid)| pid.parse::<u32>().ok())
        else {
            continue;
        };
        let stale = pid != std::process::id() && !pid_alive(pid);
        if stale && fs::remove_file(entry.path()).is_ok() {
            swept += 1;
        }
    }
    if swept > 0 {
        crate::counter_add("fault.tmp_swept", swept);
    }
    swept
}

/// Best-effort liveness probe; off Linux we assume alive (never sweep
/// a file we cannot prove orphaned).
fn pid_alive(pid: u32) -> bool {
    if cfg!(target_os = "linux") {
        Path::new(&format!("/proc/{pid}")).exists()
    } else {
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{FaultPlan, TEST_LOCK};

    fn lock_registry() -> std::sync::MutexGuard<'static, ()> {
        TEST_LOCK
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    fn tmp_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("leo-fault-{name}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).expect("create test dir");
        dir
    }

    fn no_tmp_left(dir: &Path) -> bool {
        fs::read_dir(dir)
            .expect("read test dir")
            .flatten()
            .all(|e| !e.file_name().to_string_lossy().contains(".tmp"))
    }

    #[test]
    fn write_atomic_writes_and_leaves_no_staging_file() {
        let _guard = lock_registry();
        crate::reset();
        let dir = tmp_dir("atomic");
        let path = dir.join("nested").join("artifact.csv");
        write_atomic(&path, b"a,b\n1,2\n").expect("write succeeds");
        assert_eq!(fs::read(&path).expect("readable"), b"a,b\n1,2\n");
        assert!(no_tmp_left(&dir.join("nested")));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn write_atomic_retries_injected_transients() {
        let _guard = lock_registry();
        crate::reset();
        crate::set_plan(Some(
            FaultPlan::parse("seed=1;io.rename:nth=1").expect("plan"),
        ));
        let dir = tmp_dir("retry");
        let path = dir.join("artifact.json");
        write_atomic(&path, b"{}\n").expect("retry recovers from one injected rename failure");
        assert_eq!(fs::read(&path).expect("readable"), b"{}\n");
        assert!(no_tmp_left(&dir));
        assert!(crate::counter_value("fault.retries") >= 1);
        assert_eq!(crate::counter_value("fault.injected.io.rename"), 1);
        crate::reset();
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn write_atomic_gives_up_after_bounded_attempts() {
        let _guard = lock_registry();
        crate::reset();
        crate::set_plan(Some(FaultPlan::parse("seed=1;io.write:p=1").expect("plan")));
        let dir = tmp_dir("exhaust");
        let path = dir.join("artifact.json");
        let err = write_atomic(&path, b"{}\n").expect_err("p=1 exhausts all attempts");
        assert!(err.to_string().contains("injected fault at io.write"));
        assert!(!path.exists(), "no artifact on failure");
        assert!(no_tmp_left(&dir), "no staging file on failure");
        assert_eq!(
            crate::counter_value("fault.injected.io.write"),
            u64::from(ATTEMPTS)
        );
        crate::reset();
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn injected_io_panic_leaves_no_staging_file() {
        let _guard = lock_registry();
        crate::reset();
        crate::set_plan(Some(
            FaultPlan::parse("seed=1;io.fsync:nth=1,mode=panic").expect("plan"),
        ));
        let dir = tmp_dir("panic");
        let path = dir.join("artifact.csv");
        let unwound = std::panic::catch_unwind(|| write_atomic(&path, b"a,b\n"));
        assert!(
            unwound.is_err(),
            "the injected panic unwinds out of write_atomic"
        );
        assert!(!path.exists(), "no artifact after the panic");
        assert!(no_tmp_left(&dir), "no staging file after the panic");
        crate::reset();
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn retrying_retries_then_surfaces_the_last_error() {
        let _guard = lock_registry();
        crate::reset();
        let mut calls = 0u32;
        let ok: io::Result<u32> = retrying("ledger.append", || {
            calls += 1;
            if calls < 2 {
                Err(io::Error::other("transient"))
            } else {
                Ok(7)
            }
        });
        assert_eq!(ok.expect("second attempt succeeds"), 7);
        let mut failures = 0u32;
        let err: io::Result<()> = retrying("ledger.append", || {
            failures += 1;
            Err(io::Error::other(format!("attempt {failures}")))
        });
        assert_eq!(failures, ATTEMPTS);
        assert_eq!(
            err.expect_err("bounded").to_string(),
            format!("attempt {ATTEMPTS}")
        );
    }

    #[test]
    fn sweep_removes_only_provably_orphaned_temps() {
        let _guard = lock_registry();
        crate::reset();
        let dir = tmp_dir("sweep");
        // Dead-pid temp: pids are capped well below u32::MAX on Linux.
        fs::write(dir.join("a.csv.tmp.4294967294"), b"x").expect("write");
        // A bare `.tmp` name is a user's file: no writer stages one.
        fs::write(dir.join("b.json.tmp"), b"x").expect("write");
        // Our own in-flight temp must survive.
        let own = format!("c.csv.tmp.{}", std::process::id());
        fs::write(dir.join(&own), b"x").expect("write");
        // Unrelated names must survive.
        fs::write(dir.join("report.tmpl"), b"x").expect("write");
        fs::write(dir.join("data.csv"), b"x").expect("write");
        assert_eq!(sweep_orphan_tmp(&dir), 1);
        assert!(!dir.join("a.csv.tmp.4294967294").exists());
        assert!(dir.join("b.json.tmp").exists());
        assert!(dir.join(&own).exists());
        assert!(dir.join("report.tmpl").exists());
        assert!(dir.join("data.csv").exists());
        assert_eq!(crate::counter_value("fault.tmp_swept"), 1);
        crate::reset();
        let _ = fs::remove_dir_all(&dir);
    }
}
