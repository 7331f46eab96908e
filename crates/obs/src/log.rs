//! Leveled stderr logging for the pipeline.
//!
//! Replaces the CLI's ad-hoc `eprintln!` lines with one structured
//! format: `[divide][LEVEL] message`, written to stderr so artifact
//! streams on stdout stay clean. The threshold defaults to
//! [`Level::Info`] and is set with [`set_level`] (the CLI's `--quiet`
//! maps to [`Level::Warn`], `-v` to [`Level::Debug`]).
//!
//! Use through the macros: [`crate::log_error!`], [`crate::log_warn!`],
//! [`crate::log_info!`], [`crate::log_debug!`].

use std::sync::atomic::{AtomicU8, Ordering};

/// Log severity, most severe first.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
#[repr(u8)]
pub enum Level {
    /// The run cannot proceed (or an artifact failed to land).
    Error = 0,
    /// Something surprising that the run survives.
    Warn = 1,
    /// Progress reporting (the default threshold).
    Info = 2,
    /// Stage-internal detail.
    Debug = 3,
}

impl Level {
    /// Lowercase name, as used in the output tag.
    pub fn as_str(self) -> &'static str {
        match self {
            Level::Error => "error",
            Level::Warn => "warn",
            Level::Info => "info",
            Level::Debug => "debug",
        }
    }
}

/// The threshold, a `Level` as u8.
static THRESHOLD: AtomicU8 = AtomicU8::new(Level::Info as u8);

/// The current threshold: messages at this level or more severe print.
pub fn max_level() -> Level {
    match THRESHOLD.load(Ordering::Relaxed) {
        0 => Level::Error,
        1 => Level::Warn,
        2 => Level::Info,
        _ => Level::Debug,
    }
}

/// Sets the threshold.
pub fn set_level(level: Level) {
    THRESHOLD.store(level as u8, Ordering::Relaxed);
}

/// Whether a message at `level` would print.
pub fn level_enabled(level: Level) -> bool {
    level <= max_level()
}

/// Writes one log line to stderr if `level` passes the threshold.
/// Prefer the macros.
pub fn log(level: Level, args: std::fmt::Arguments<'_>) {
    if level_enabled(level) {
        eprintln!("[divide][{}] {}", level.as_str(), args);
    }
}

/// Logs at error level.
#[macro_export]
macro_rules! log_error {
    ($($arg:tt)*) => { $crate::log::log($crate::log::Level::Error, format_args!($($arg)*)) };
}

/// Logs at warn level.
#[macro_export]
macro_rules! log_warn {
    ($($arg:tt)*) => { $crate::log::log($crate::log::Level::Warn, format_args!($($arg)*)) };
}

/// Logs at info level.
#[macro_export]
macro_rules! log_info {
    ($($arg:tt)*) => { $crate::log::log($crate::log::Level::Info, format_args!($($arg)*)) };
}

/// Logs at debug level.
#[macro_export]
macro_rules! log_debug {
    ($($arg:tt)*) => { $crate::log::log($crate::log::Level::Debug, format_args!($($arg)*)) };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn levels_order() {
        assert!(Level::Error < Level::Warn);
        assert!(Level::Warn < Level::Info);
        assert!(Level::Info < Level::Debug);
    }

    #[test]
    fn threshold_gates_levels() {
        let _lock = crate::test_lock();
        set_level(Level::Warn);
        assert!(level_enabled(Level::Error));
        assert!(level_enabled(Level::Warn));
        assert!(!level_enabled(Level::Info));
        assert!(!level_enabled(Level::Debug));
        set_level(Level::Debug);
        assert!(level_enabled(Level::Debug));
        set_level(Level::Info);
    }

    #[test]
    fn macros_compile_at_every_level() {
        let _lock = crate::test_lock();
        set_level(Level::Error);
        crate::log_error!("e {}", 1);
        crate::log_warn!("w");
        crate::log_info!("i");
        crate::log_debug!("d");
        set_level(Level::Info);
    }
}
