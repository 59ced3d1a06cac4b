//! Leveled stderr logging gated by the `QJO_LOG` environment variable.
//!
//! Library crates in this workspace must never write to stdout
//! unconditionally: diagnostics go through [`error!`](crate::error),
//! [`warn!`](crate::warn), [`info!`](crate::info), [`debug!`](crate::debug),
//! or [`trace!`](crate::trace!), which write to **stderr** and are filtered
//! by the process-wide maximum level. `QJO_LOG` accepts `off`, `error`,
//! `warn`, `info`, `debug`, or `trace` (case-insensitive); the default is
//! `info`. Each record is one line, `[level target] message`.

use std::io::Write as _;
use std::sync::atomic::{AtomicU8, Ordering};

/// Log severity, ordered from [`Level::Error`] (always shown unless `off`)
/// to [`Level::Trace`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
#[repr(u8)]
pub enum Level {
    /// Unrecoverable or data-losing conditions.
    Error = 1,
    /// Suspicious conditions the run survives.
    Warn = 2,
    /// Progress and results (the default).
    Info = 3,
    /// Per-iteration diagnostics (replaces ad-hoc `QJO_*_DEBUG` vars).
    Debug = 4,
    /// Everything.
    Trace = 5,
}

impl Level {
    /// Lower-case name, as accepted by `QJO_LOG`.
    pub fn name(self) -> &'static str {
        match self {
            Level::Error => "error",
            Level::Warn => "warn",
            Level::Info => "info",
            Level::Debug => "debug",
            Level::Trace => "trace",
        }
    }

    /// Parses a `QJO_LOG` value; `None` for unrecognised strings.
    /// `"off"` parses as `Some(None)` — valid, but no level passes.
    fn parse(s: &str) -> Option<Option<Level>> {
        match s.to_ascii_lowercase().as_str() {
            "off" | "none" | "0" => Some(None),
            "error" => Some(Some(Level::Error)),
            "warn" | "warning" => Some(Some(Level::Warn)),
            "info" => Some(Some(Level::Info)),
            "debug" => Some(Some(Level::Debug)),
            "trace" => Some(Some(Level::Trace)),
            _ => None,
        }
    }
}

/// 0 = unset (read `QJO_LOG` lazily), 1 = off, `level + 1` otherwise.
static MAX_LEVEL: AtomicU8 = AtomicU8::new(0);
const OFF: u8 = 1;

fn level_from_env() -> u8 {
    let parsed = std::env::var("QJO_LOG").ok().and_then(|v| Level::parse(&v));
    match parsed {
        Some(None) => OFF,
        Some(Some(level)) => level as u8 + 1,
        None => Level::Info as u8 + 1,
    }
}

fn max_level_raw() -> u8 {
    match MAX_LEVEL.load(Ordering::Relaxed) {
        0 => {
            let resolved = level_from_env();
            // Racing initialisers compute the same value; either store wins.
            MAX_LEVEL.store(resolved, Ordering::Relaxed);
            resolved
        }
        v => v,
    }
}

/// The current maximum level; `None` means logging is off.
pub fn max_level() -> Option<Level> {
    match max_level_raw() {
        2 => Some(Level::Error),
        3 => Some(Level::Warn),
        4 => Some(Level::Info),
        5 => Some(Level::Debug),
        6 => Some(Level::Trace),
        _ => None,
    }
}

/// Overrides the `QJO_LOG`-derived maximum level (`None` = off); mainly
/// for tests and embedding applications.
pub fn set_max_level(level: Option<Level>) {
    MAX_LEVEL.store(level.map_or(OFF, |l| l as u8 + 1), Ordering::Relaxed);
}

/// Applies a `QJO_LOG`-style spec (`"off"`, `"error"`, …, `"trace"`)
/// immediately, bypassing the first-read cache.
///
/// The level is cached after the first `enabled()`/`log()` call, so a
/// test that does `std::env::set_var("QJO_LOG", …)` mid-process silently
/// no-ops. Call this instead; restore with [`set_max_level`] afterwards.
///
/// # Errors
/// Returns the offending spec for strings `QJO_LOG` would not accept.
pub fn set_level_for_tests(spec: &str) -> Result<(), String> {
    match Level::parse(spec) {
        Some(level) => {
            set_max_level(level);
            Ok(())
        }
        None => Err(format!("unrecognised log level {spec:?}")),
    }
}

/// Whether a record at `level` would currently be emitted.
#[inline]
pub fn enabled(level: Level) -> bool {
    (level as u8) < max_level_raw()
}

/// Formats one record (without emitting it), trailing newline included.
fn render_record(level: Level, target: &str, args: std::fmt::Arguments<'_>) -> String {
    format!("[{:5} {target}] {args}\n", level.name())
}

/// Emits one record to stderr (used via the level macros, not directly).
pub fn log(level: Level, target: &str, args: std::fmt::Arguments<'_>) {
    if !enabled(level) {
        return;
    }
    // Single write_all so concurrent records do not interleave mid-line.
    let line = render_record(level, target, args);
    let stderr = std::io::stderr();
    let _ = stderr.lock().write_all(line.as_bytes());
}

/// Logs at [`Level::Error`].
#[macro_export]
macro_rules! error {
    ($($arg:tt)*) => {
        $crate::log::log($crate::log::Level::Error, module_path!(), format_args!($($arg)*))
    };
}

/// Logs at [`Level::Warn`].
#[macro_export]
macro_rules! warn {
    ($($arg:tt)*) => {
        $crate::log::log($crate::log::Level::Warn, module_path!(), format_args!($($arg)*))
    };
}

/// Logs at [`Level::Info`].
#[macro_export]
macro_rules! info {
    ($($arg:tt)*) => {
        $crate::log::log($crate::log::Level::Info, module_path!(), format_args!($($arg)*))
    };
}

/// Logs at [`Level::Debug`].
#[macro_export]
macro_rules! debug {
    ($($arg:tt)*) => {
        $crate::log::log($crate::log::Level::Debug, module_path!(), format_args!($($arg)*))
    };
}

/// Logs at [`Level::Trace`].
#[macro_export]
macro_rules! trace {
    ($($arg:tt)*) => {
        $crate::log::log($crate::log::Level::Trace, module_path!(), format_args!($($arg)*))
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn levels_order_from_error_to_trace() {
        assert!(Level::Error < Level::Warn);
        assert!(Level::Warn < Level::Info);
        assert!(Level::Info < Level::Debug);
        assert!(Level::Debug < Level::Trace);
    }

    #[test]
    fn parse_accepts_names_case_insensitively() {
        assert_eq!(Level::parse("TRACE"), Some(Some(Level::Trace)));
        assert_eq!(Level::parse("Warn"), Some(Some(Level::Warn)));
        assert_eq!(Level::parse("warning"), Some(Some(Level::Warn)));
        assert_eq!(Level::parse("off"), Some(None));
        assert_eq!(Level::parse("verbose"), None);
    }

    #[test]
    fn set_max_level_gates_enabled() {
        // Other tests share the process-wide level: serialise and restore.
        let _serial = crate::test_serial();
        let saved = max_level();
        set_max_level(Some(Level::Warn));
        assert!(enabled(Level::Error));
        assert!(enabled(Level::Warn));
        assert!(!enabled(Level::Info));
        set_max_level(None);
        assert!(!enabled(Level::Error));
        set_max_level(saved);
    }

    #[test]
    fn env_is_cached_but_test_override_applies_immediately() {
        let _serial = crate::test_serial();
        let saved = max_level();

        // Force the first read so the cache is populated, then change the
        // env var: the cached level must win (this is the regression —
        // mid-process env changes silently no-op).
        let cached = max_level();
        std::env::set_var("QJO_LOG", if cached == Some(Level::Trace) { "error" } else { "trace" });
        assert_eq!(max_level(), cached, "env changes after the first read are ignored");

        // The test-visible override bypasses the cache.
        set_level_for_tests("trace").expect("valid spec");
        assert_eq!(max_level(), Some(Level::Trace));
        assert!(enabled(Level::Trace));
        set_level_for_tests("off").expect("off is a valid spec");
        assert_eq!(max_level(), None);

        let err = set_level_for_tests("verbose").expect_err("invalid spec");
        assert!(err.contains("verbose"), "{err}");
        assert_eq!(max_level(), None, "a rejected spec leaves the level unchanged");

        std::env::remove_var("QJO_LOG");
        set_max_level(saved);
    }

    #[test]
    fn records_are_one_plain_line() {
        assert_eq!(render_record(Level::Info, "t", format_args!("m")), "[info  t] m\n");
    }
}
