//! Crash-safe artifact IO: files staged during a run and committed
//! together ([`Batch`]), the one-file [`write_atomic`] built on the same
//! steps, bounded retry-and-backoff, a generic retry wrapper for
//! append-style protocols, and startup sweeping of orphaned temp files.
//!
//! Every write here passes through the `io.write` / `io.fsync` /
//! `io.rename` injection sites, so the fault plans in `chaos.sh`
//! exercise exactly the code paths a real disk error would.

use std::fs;
use std::io;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::{Mutex, PoisonError};
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

/// Runs `op` up to [`ATTEMPTS`] times with the deterministic backoff
/// between attempts (counted under `fault.retries`), and surfaces the
/// last error.
fn attempts<T>(mut op: impl FnMut() -> io::Result<T>) -> io::Result<T> {
    let mut last_err: Option<io::Error> = None;
    for attempt in 0..ATTEMPTS {
        if attempt > 0 {
            backoff(attempt);
        }
        match op() {
            Ok(v) => return Ok(v),
            Err(e) => last_err = Some(e),
        }
    }
    Err(last_err.unwrap_or_else(|| io::Error::other("no attempt made")))
}

/// Passes injection site `site`: an injected error returns, a delay
/// sleeps, a panic unwinds, exactly where a real failure would.
fn pass(site: &str) -> io::Result<()> {
    match crate::should_fire(site).and_then(crate::Fault::apply_io) {
        Some(e) => Err(e),
        None => Ok(()),
    }
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

/// Files staged during a run and made durable and visible together
/// (DESIGN.md §13). [`Batch::stage`] writes each file to its
/// [`tmp_path`] and starts its writeback; [`Batch::commit`] fsyncs every
/// staged file, then renames each into place, both in staging order.
/// Nothing is visible under a final name before the commit, and a batch
/// dropped without a commit removes every file it staged.
#[derive(Debug, Default)]
pub struct Batch {
    staged: Mutex<Vec<Staged>>,
}

impl Batch {
    /// An empty batch.
    #[must_use]
    pub fn new() -> Batch {
        Batch::default()
    }

    /// Stages `bytes` for `path`: creates the parent directories, writes
    /// `<name>.tmp.<pid>` behind `io.write` (retried up to [`ATTEMPTS`]
    /// times), registers the temp with [`crate::signal`] and starts its
    /// writeback without waiting for it. The file stays open until the
    /// commit. On error nothing is staged and no temp is left.
    pub fn stage(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        let mut staged = Staged::new(path)?;
        attempts(|| staged.write(bytes))?;
        staged.start_writeback();
        crate::lock(&self.staged).push(staged);
        Ok(())
    }

    /// Makes every staged file durable, then visible. First each file is
    /// fsynced in staging order behind `io.fsync`; a failed fsync is not
    /// retried (the kernel may already have dropped the pages, and a
    /// second fsync could report success for data that never reached
    /// the disk), so the commit fails before any rename and every staged
    /// file is removed. Then each file is renamed into place in staging
    /// order behind `io.rename`, retried up to [`ATTEMPTS`] times; a
    /// rename that still fails leaves the earlier files renamed and
    /// removes the rest. Returns the number of files committed; an
    /// error names the file it failed on.
    pub fn commit(self) -> io::Result<usize> {
        // A push is the only update under the lock, so a vector that a
        // panicking holder poisoned is still whole.
        let mut staged = self
            .staged
            .into_inner()
            .unwrap_or_else(PoisonError::into_inner);
        for file in &staged {
            file.fsync().map_err(|e| file.failed(e))?;
        }
        for file in &mut staged {
            attempts(|| file.rename()).map_err(|e| file.failed(e))?;
        }
        Ok(staged.len())
    }
}

/// One file staged under its [`tmp_path`], taken through the three steps
/// every write here shares: write, fsync, rename. Its temp is removed on
/// drop unless it was renamed into place, so one guard covers an error
/// return, a batch dropped without a commit and a panic unwinding out of
/// an injection site. It also holds the temp's signal-cleanup
/// registration, released after the removal.
#[derive(Debug)]
struct Staged {
    path: PathBuf,
    tmp: PathBuf,
    file: Option<fs::File>,
    renamed: bool,
    _signal: crate::signal::TmpGuard,
}

impl Staged {
    /// Creates `path`'s parent directories and registers its temp for
    /// signal cleanup; nothing is written yet.
    fn new(path: &Path) -> io::Result<Staged> {
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                fs::create_dir_all(parent)?;
            }
        }
        let tmp = tmp_path(path);
        Ok(Staged {
            _signal: crate::signal::register_tmp(&tmp),
            path: path.to_path_buf(),
            tmp,
            file: None,
            renamed: false,
        })
    }

    /// One write attempt: (re)creates the temp and writes `bytes`.
    fn write(&mut self, bytes: &[u8]) -> io::Result<()> {
        pass("io.write")?;
        let mut file = fs::File::create(&self.tmp)?;
        file.write_all(bytes)?;
        self.file = Some(file);
        Ok(())
    }

    /// Starts writing the temp's dirty pages back without waiting for
    /// them, so a later fsync finds them on their way (`sys::start_writeback`).
    fn start_writeback(&self) {
        if let Some(file) = &self.file {
            sys::start_writeback(file);
        }
    }

    /// Flushes the written temp to the disk.
    fn fsync(&self) -> io::Result<()> {
        pass("io.fsync")?;
        match &self.file {
            Some(file) => file.sync_all(),
            None => Err(io::Error::other("fsync of a file never written")),
        }
    }

    /// Closes the temp and renames it over the final name.
    fn rename(&mut self) -> io::Result<()> {
        pass("io.rename")?;
        self.file = None;
        fs::rename(&self.tmp, &self.path)?;
        self.renamed = true;
        Ok(())
    }

    /// `e`, prefixed with the final path it failed on.
    fn failed(&self, e: io::Error) -> io::Error {
        io::Error::new(e.kind(), format!("{}: {e}", self.path.display()))
    }
}

impl Drop for Staged {
    fn drop(&mut self) {
        if !self.renamed {
            self.file = None;
            let _ = fs::remove_file(&self.tmp);
        }
    }
}

/// Early writeback. The build is offline (no `libc` crate), so this
/// declares the one symbol it needs, as [`crate::signal`] does.
#[cfg(target_os = "linux")]
mod sys {
    use std::os::raw::{c_int, c_uint};
    use std::os::unix::io::AsRawFd;

    const SYNC_FILE_RANGE_WRITE: c_uint = 2;

    extern "C" {
        fn sync_file_range(fd: c_int, offset: i64, nbytes: i64, flags: c_uint) -> c_int;
    }

    /// `sync_file_range(fd, 0, 0, SYNC_FILE_RANGE_WRITE)`: starts
    /// writeback of every dirty page of `file` and returns without
    /// waiting. Only a hint, so its result is ignored: the commit's
    /// fsync is what makes the file durable.
    pub fn start_writeback(file: &std::fs::File) {
        // SAFETY: the descriptor belongs to `file`, which outlives the
        // call; the call reads and writes no memory of this process.
        unsafe {
            sync_file_range(file.as_raw_fd(), 0, 0, SYNC_FILE_RANGE_WRITE);
        }
    }
}

/// Early writeback is a Linux call; elsewhere the commit's fsync does
/// all the flushing.
#[cfg(not(target_os = "linux"))]
mod sys {
    pub fn start_writeback(_file: &std::fs::File) {}
}

/// Writes `bytes` to `path` atomically and durably before it returns: a
/// batch of one file, staged and committed at once. Parent dirs are
/// created; the payload is written to [`tmp_path`], fsynced and renamed
/// into place. Unlike a [`Batch`], the whole write, fsync and rename
/// sequence is retried up to [`ATTEMPTS`] times (counted under
/// `fault.retries`): the caller's bytes are still at hand, so a retry
/// rewrites the temp from scratch instead of fsyncing it again. The
/// temp is registered with [`crate::signal`] so SIGINT/SIGTERM cannot
/// leave it behind, and is removed on final failure or a panic. Readers
/// therefore see either the old bytes or the new bytes, never a torn
/// file.
pub fn write_atomic(path: &Path, bytes: &[u8]) -> io::Result<()> {
    let mut staged = Staged::new(path)?;
    attempts(|| {
        staged.write(bytes)?;
        staged.fsync()?;
        staged.rename()
    })
}

/// Runs `op` under the bounded retry-and-backoff policy, checking the
/// injection site `site` before each attempt. For protocols that are
/// already atomic per operation (the ledger's `O_APPEND` single
/// `write_all`) and only need the retry half of [`write_atomic`].
pub fn retrying<T>(site: &str, mut op: impl FnMut() -> io::Result<T>) -> io::Result<T> {
    attempts(|| {
        pass(site)?;
        op()
    })
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

    fn names(dir: &Path) -> Vec<String> {
        let mut names: Vec<String> = fs::read_dir(dir)
            .expect("read test dir")
            .flatten()
            .map(|e| e.file_name().to_string_lossy().into_owned())
            .collect();
        names.sort();
        names
    }

    #[test]
    fn twenty_staged_files_hold_twenty_signal_slots_until_the_commit() {
        let _guard = lock_registry();
        crate::reset();
        let dir = tmp_dir("batch20");
        // A cold paper `all` stages 18 artifacts and 2 snapshots.
        let batch = Batch::new();
        for i in 0..20 {
            batch
                .stage(
                    &dir.join(format!("f{i:02}.csv")),
                    format!("{i}\n").as_bytes(),
                )
                .expect("stage");
        }
        const _: () = assert!(20 <= crate::signal::SLOTS);
        for staged in crate::lock(&batch.staged).iter() {
            assert!(staged._signal.registered(), "{:?} has no slot", staged.tmp);
            assert!(staged.tmp.exists() && !staged.path.exists());
        }
        assert_eq!(batch.commit().expect("commit"), 20);
        let want: Vec<String> = (0..20).map(|i| format!("f{i:02}.csv")).collect();
        assert_eq!(names(&dir), want);
        assert_eq!(fs::read(dir.join("f07.csv")).expect("readable"), b"7\n");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_batch_dropped_without_a_commit_leaves_no_file() {
        let _guard = lock_registry();
        crate::reset();
        let dir = tmp_dir("dropped");
        let batch = Batch::new();
        for name in ["a.csv", "b.svg", "nested/c.snap"] {
            batch.stage(&dir.join(name), b"x\n").expect("stage");
        }
        drop(batch);
        assert_eq!(names(&dir), ["nested"]);
        assert!(names(&dir.join("nested")).is_empty());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_failed_fsync_fails_the_commit_before_any_rename() {
        let _guard = lock_registry();
        crate::reset();
        crate::set_plan(Some(
            FaultPlan::parse("seed=1;io.fsync:nth=3").expect("plan"),
        ));
        let dir = tmp_dir("fsync");
        let batch = Batch::new();
        for name in ["a.csv", "b.csv", "c.csv", "d.csv"] {
            batch.stage(&dir.join(name), b"x\n").expect("stage");
        }
        let err = batch.commit().expect_err("the third fsync fails");
        assert!(err.to_string().contains("c.csv"), "{err}");
        assert!(names(&dir).is_empty(), "left {:?}", names(&dir));
        // Not retried: the kernel may have dropped the pages already.
        assert_eq!(crate::counter_value("fault.retries"), 0);
        assert_eq!(crate::counter_value("fault.injected.io.fsync"), 1);
        crate::reset();
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_failed_rename_recovers_through_the_retry() {
        let _guard = lock_registry();
        crate::reset();
        crate::set_plan(Some(
            FaultPlan::parse("seed=1;io.rename:nth=2").expect("plan"),
        ));
        let dir = tmp_dir("rename");
        let batch = Batch::new();
        for name in ["a.csv", "b.csv", "c.csv"] {
            batch
                .stage(&dir.join(name), name.as_bytes())
                .expect("stage");
        }
        assert_eq!(batch.commit().expect("the retry recovers"), 3);
        assert_eq!(names(&dir), ["a.csv", "b.csv", "c.csv"]);
        assert_eq!(fs::read(dir.join("b.csv")).expect("readable"), b"b.csv");
        assert_eq!(crate::counter_value("fault.retries"), 1);
        assert_eq!(crate::counter_value("fault.injected.io.rename"), 1);
        crate::reset();
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn fault_indices_follow_staging_order() {
        let _guard = lock_registry();
        crate::reset();
        // Write call 1 (b's first attempt) fails and is retried as call
        // 2, so c writes as call 3; fsync calls run a, b, c at commit.
        crate::set_plan(Some(
            FaultPlan::parse("seed=1;io.write:nth=2;io.fsync:nth=3").expect("plan"),
        ));
        let dir = tmp_dir("order");
        let batch = Batch::new();
        for name in ["a.csv", "b.csv", "c.csv"] {
            batch.stage(&dir.join(name), b"x\n").expect("stage");
        }
        assert_eq!(crate::counter_value("fault.retries"), 1);
        let err = batch.commit().expect_err("c's fsync fails");
        let msg = err.to_string();
        assert!(msg.contains("c.csv"), "{msg}");
        assert!(msg.contains("injected fault at io.fsync (call 2)"), "{msg}");
        assert!(names(&dir).is_empty(), "left {:?}", names(&dir));
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
