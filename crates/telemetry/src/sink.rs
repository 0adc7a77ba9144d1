//! The global event sink.
//!
//! One process writes at most one NDJSON stream at a time: a binary
//! installs a sink ([`install_file`] for `--telemetry-out`,
//! [`install_memory`] for tests), every layer [`emit`]s events through the
//! global handle, and [`finish`] appends the metrics snapshot plus the
//! `stream_end` marker and tears the sink down.  Installing a sink enables
//! telemetry globally; finishing disables it, so instrumented code needs
//! no knowledge of the sink lifecycle.
//!
//! Each line is serialized and written under one mutex acquisition, so
//! events from concurrent runner threads interleave *between* lines, never
//! within one.  A write error poisons the sink silently (telemetry must
//! never take down the run it observes): the failure is reported once on
//! stderr and subsequent events are dropped.

use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::sync::{Arc, Mutex};

use crate::event::Event;
use crate::metrics::registry;
use crate::{set_enabled, SCHEMA};

/// The installed sink, if any.
struct SinkState {
    writer: Box<dyn Write + Send>,
    seq: u64,
    dead: bool,
}

impl std::fmt::Debug for SinkState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SinkState")
            .field("seq", &self.seq)
            .field("dead", &self.dead)
            .finish_non_exhaustive()
    }
}

static SINK: Mutex<Option<SinkState>> = Mutex::new(None);

impl SinkState {
    fn write_event(&mut self, event: Event) {
        if self.dead {
            return;
        }
        let line = event.into_json(self.seq).to_json();
        self.seq += 1;
        if let Err(e) = writeln!(self.writer, "{line}") {
            self.dead = true;
            eprintln!("ssle-telemetry: sink write failed, dropping further events: {e}");
        }
    }
}

/// Installs the sink and writes the `stream_start` line.
fn install(writer: Box<dyn Write + Send>, producer: &str) -> io::Result<()> {
    let mut guard = SINK.lock().unwrap_or_else(|poisoned| poisoned.into_inner());
    if guard.is_some() {
        return Err(io::Error::new(
            io::ErrorKind::AlreadyExists,
            "a telemetry sink is already installed",
        ));
    }
    let mut state = SinkState {
        writer,
        seq: 0,
        dead: false,
    };
    state.write_event(
        Event::new("stream_start")
            .field("schema", SCHEMA)
            .field("producer", producer),
    );
    *guard = Some(state);
    drop(guard);
    set_enabled(true);
    Ok(())
}

/// Installs a file sink at `path` (truncating), enabling telemetry
/// globally.
///
/// # Errors
///
/// Fails if the file cannot be created or a sink is already installed.
pub fn install_file(path: impl AsRef<Path>, producer: &str) -> io::Result<()> {
    let file = File::create(path)?;
    install(Box::new(BufWriter::new(file)), producer)
}

/// Handle onto an in-memory trace installed by [`install_memory`]; the
/// buffer keeps accumulating until [`finish`] and stays readable after.
#[derive(Debug, Clone)]
pub struct MemoryTrace {
    buffer: Arc<Mutex<Vec<u8>>>,
}

impl MemoryTrace {
    /// The NDJSON text written so far.
    pub fn contents(&self) -> String {
        let bytes = self
            .buffer
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner());
        String::from_utf8_lossy(&bytes).into_owned()
    }
}

/// A `Write` adapter over the shared buffer.
struct SharedBuffer(Arc<Mutex<Vec<u8>>>);

impl Write for SharedBuffer {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.0
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
            .extend_from_slice(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// Installs an in-memory sink (tests and the equivalence pins), enabling
/// telemetry globally.
///
/// # Errors
///
/// Fails if a sink is already installed.
pub fn install_memory(producer: &str) -> io::Result<MemoryTrace> {
    let buffer = Arc::new(Mutex::new(Vec::new()));
    install(Box::new(SharedBuffer(Arc::clone(&buffer))), producer)?;
    Ok(MemoryTrace { buffer })
}

/// Emits one event through the installed sink.
///
/// A no-op (one relaxed load) when telemetry is disabled; with telemetry
/// enabled but no sink installed (the overhead measurements'
/// enabled-but-unsampled mode) the event is built and dropped.
pub fn emit(event: Event) {
    if !crate::enabled() {
        return;
    }
    let mut guard = SINK.lock().unwrap_or_else(|poisoned| poisoned.into_inner());
    if let Some(state) = guard.as_mut() {
        state.write_event(event);
    }
}

/// Finalizes the stream: appends the `metrics` registry snapshot and the
/// `stream_end` marker, flushes and uninstalls the sink, disables
/// telemetry globally and resets the registry (so successive runs in one
/// process start from zero).  Returns the number of events written, or
/// `None` if no sink was installed.
pub fn finish() -> Option<u64> {
    let state = {
        let mut guard = SINK.lock().unwrap_or_else(|poisoned| poisoned.into_inner());
        guard.take()
    };
    let mut state = match state {
        Some(state) => state,
        None => {
            set_enabled(false);
            return None;
        }
    };
    state.write_event(Event::new("metrics").field("registry", registry().snapshot()));
    // events = total lines including stream_end itself.
    state.write_event(Event::new("stream_end").count("events", state.seq + 1));
    if let Err(e) = state.writer.flush() {
        eprintln!("ssle-telemetry: sink flush failed: {e}");
    }
    set_enabled(false);
    registry().reset();
    Some(state.seq)
}

#[cfg(test)]
mod tests {
    use super::*;
    use analysis::json::JsonValue;

    #[test]
    fn memory_stream_starts_counts_and_ends() {
        let _lock = crate::test_support::serialize();
        let trace = install_memory("unit-test").expect("no sink installed");
        assert!(crate::enabled());
        crate::metrics::well_known::RUNS.incr();
        emit(Event::new("converged").count("step", 12));
        let written = finish().expect("sink was installed");
        assert!(!crate::enabled());
        assert_eq!(written, 4, "start + converged + metrics + end");

        let text = trace.contents();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 4);
        let first = JsonValue::parse(lines[0]).unwrap();
        assert_eq!(
            first.get("event").and_then(JsonValue::as_str),
            Some("stream_start")
        );
        assert_eq!(
            first.get("schema").and_then(JsonValue::as_str),
            Some(SCHEMA)
        );
        let metrics = JsonValue::parse(lines[2]).unwrap();
        assert_eq!(
            metrics
                .get("registry")
                .and_then(|r| r.get("counters"))
                .and_then(|c| c.get("runs"))
                .and_then(JsonValue::as_str),
            Some("1")
        );
        let last = JsonValue::parse(lines[3]).unwrap();
        assert_eq!(
            last.get("event").and_then(JsonValue::as_str),
            Some("stream_end")
        );
        assert_eq!(last.get("events").and_then(JsonValue::as_str), Some("4"));
        // The registry was reset at finish.
        assert_eq!(crate::metrics::well_known::RUNS.get(), 0);
    }

    #[test]
    fn double_install_is_rejected_and_finish_without_sink_is_none() {
        let _lock = crate::test_support::serialize();
        assert!(finish().is_none());
        let _trace = install_memory("first").expect("no sink installed");
        assert!(install_memory("second").is_err());
        finish().expect("first sink still installed");
    }

    #[test]
    fn emit_without_sink_is_silently_dropped() {
        let _lock = crate::test_support::serialize();
        crate::set_enabled(true);
        emit(Event::new("converged"));
        crate::set_enabled(false);
        assert!(finish().is_none());
    }
}
