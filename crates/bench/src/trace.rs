//! Telemetry wiring shared by the report binaries.
//!
//! Every report binary exposes the same two flags:
//!
//! ```text
//! --telemetry            write an ssle-telemetry/v1 NDJSON trace
//! --telemetry-out PATH   trace file (implies --telemetry)
//! ```
//!
//! [`TraceGuard::start`] installs the global file sink (enabling telemetry
//! everywhere down the stack — scenario runs, the worst-case search, the
//! `--resume` cache) and [`TraceGuard::finish`] finalizes the stream:
//! metrics snapshot, `stream_end` marker, flush.  The trace goes to a side
//! file and the completion note to stderr, so stdout stays the report
//! document and the pinned report JSON is byte-identical with or without
//! the flag.
//!
//! The experiment binaries need no wiring of their own:
//! [`crate::cli::BenchArgs::parse`] starts their guard and
//! [`crate::report::Report::emit`] finishes it.  The tracked reports'
//! driver ([`crate::tracked`]) holds its guard itself.

use std::path::PathBuf;
use std::sync::Mutex;

/// The trace an experiment binary opened in
/// [`crate::cli::BenchArgs::parse`], held until [`finish_kept`] closes it.
static KEPT: Mutex<Option<TraceGuard>> = Mutex::new(None);

/// Holds `trace` until the binary's report is emitted
/// ([`crate::report::Report::emit`] calls [`finish_kept`]).
pub(crate) fn keep_until_emit(trace: TraceGuard) {
    if trace.path.is_some() {
        *KEPT.lock().unwrap_or_else(|poisoned| poisoned.into_inner()) = Some(trace);
    }
}

/// Finishes the trace held by [`keep_until_emit`], if any.
pub(crate) fn finish_kept() {
    let kept = KEPT
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
        .take();
    if let Some(trace) = kept {
        trace.finish();
    }
}

/// Handle on one report binary's telemetry stream (inert when the flags
/// were not given).
#[derive(Debug)]
#[must_use = "call finish() so the stream gets its metrics snapshot and stream_end"]
pub struct TraceGuard {
    path: Option<PathBuf>,
}

impl TraceGuard {
    /// Installs the file sink when `requested`; `out` overrides the
    /// default path `<producer>.trace.ndjson`.
    ///
    /// # Errors
    ///
    /// Returns a message when the trace file cannot be created (or a sink
    /// is somehow already installed).
    pub fn start(requested: bool, out: Option<&str>, producer: &str) -> Result<Self, String> {
        if !requested {
            return Ok(TraceGuard { path: None });
        }
        let path = match out {
            Some(p) => PathBuf::from(p),
            None => PathBuf::from(format!("{producer}.trace.ndjson")),
        };
        ssle_telemetry::install_file(&path, producer)
            .map_err(|e| format!("cannot open telemetry trace {}: {e}", path.display()))?;
        Ok(TraceGuard { path: Some(path) })
    }

    /// Finalizes the stream (metrics snapshot + `stream_end`) and reports
    /// the trace location on stderr.  No-op when telemetry was never
    /// requested.
    pub fn finish(mut self) {
        if let Some(path) = self.path.take() {
            match ssle_telemetry::finish() {
                Some(events) => {
                    eprintln!("telemetry: wrote {} ({events} events)", path.display());
                }
                None => eprintln!(
                    "telemetry: {} was requested but no sink was installed",
                    path.display()
                ),
            }
        }
    }
}

impl Drop for TraceGuard {
    fn drop(&mut self) {
        // Belt-and-braces: a guard dropped on an early-return path still
        // closes the stream (process::exit paths forfeit this, which only
        // costs the trailing metrics/stream_end lines — the validator
        // reports such a trace as a valid-but-incomplete prefix).
        if self.path.is_some() {
            let _ = ssle_telemetry::finish();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{Mutex, MutexGuard, OnceLock};

    /// The sink and enable flag are process-global; tests that touch them
    /// serialize here so the parallel runner cannot interleave the flips.
    fn serialize() -> MutexGuard<'static, ()> {
        static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
        LOCK.get_or_init(|| Mutex::new(()))
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    #[test]
    fn unrequested_guard_is_inert() {
        let _lock = serialize();
        let guard = TraceGuard::start(false, None, "test").unwrap();
        assert!(guard.path.is_none());
        guard.finish();
        assert!(!ssle_telemetry::enabled());
    }

    #[test]
    fn file_guard_writes_a_complete_stream() {
        let _lock = serialize();
        let path = std::env::temp_dir().join(format!(
            "ssle-bench-trace-guard-{}.ndjson",
            std::process::id()
        ));
        let guard = TraceGuard::start(true, path.to_str(), "guard-test").unwrap();
        assert!(ssle_telemetry::enabled());
        ssle_telemetry::emit(ssle_telemetry::Event::new("annotation").field("text", "hi"));
        guard.finish();
        assert!(!ssle_telemetry::enabled());
        let text = std::fs::read_to_string(&path).unwrap();
        let stats = ssle_telemetry::validate_stream(&text).unwrap();
        assert!(stats.complete);
        assert_eq!(stats.count("annotation"), 1);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn unwritable_paths_are_a_typed_error() {
        let _lock = serialize();
        let err = TraceGuard::start(true, Some("/definitely/not/a/dir/t.ndjson"), "x").unwrap_err();
        assert!(err.contains("cannot open telemetry trace"), "{err}");
    }
}
