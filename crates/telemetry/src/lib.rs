//! # ssle-telemetry
//!
//! Observability for the ring-ssle workspace: zero-cost metrics, a
//! structured NDJSON event stream, and the schema machinery that keeps both
//! honest.  Offline and dependency-free (only `analysis::json` for the
//! encoding), like the rest of the workspace.
//!
//! The crate is **off by default** and deterministic by construction:
//!
//! * every [`Counter`] and every [`emit`] checks one relaxed [`enabled`]
//!   load and returns immediately when telemetry is off — no locks, no
//!   allocation, no I/O.  Telemetry
//!   never draws from a simulation RNG and never mutates run state, so a
//!   telemetry-off run is *bit-identical* to a build without the crate,
//!   and a telemetry-on run produces the same results as a telemetry-off
//!   one (pinned by `scenario_equivalence` in `ssle-bench`);
//! * instrumented layers record at **burst boundaries**, never per step,
//!   so the enabled-but-unsampled hot loop stays within noise of the
//!   uninstrumented one (tracked per case by `BENCH_hotloop.json`'s
//!   `steps_per_sec_telemetry` column, beside the telemetry-off
//!   `steps_per_sec`);
//! * events are stamped with the **deterministic step clock** (steps,
//!   seeds, counts as exact decimal strings — the house style for u64s).
//!   Wall-clock durations exist only inside each event's clearly-marked
//!   `"wall"` section ([`Event::wall_micros`]), so a trace diff that
//!   ignores `"wall"` is a determinism check.
//!
//! The NDJSON stream (schema [`SCHEMA`]) starts with a `stream_start`
//! event and ends with a `metrics` snapshot plus `stream_end`; see
//! [`validate`] for the full event taxonomy and [`digest`] for the
//! fold-into-a-report summarizer behind the `telemetry_summary` binary.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

use std::sync::atomic::{AtomicBool, Ordering};

pub mod digest;
pub mod event;
pub mod metrics;
pub mod sink;
pub mod validate;

pub use digest::TraceDigest;
pub use event::{run_scope, Event, RunScope};
pub use metrics::{registry, Counter, Registry};
pub use sink::{emit, finish, install_file, install_memory, MemoryTrace};
pub use validate::{validate_stream, StreamStats};

/// Schema identifier of the NDJSON event stream.
pub const SCHEMA: &str = "ssle-telemetry/v1";

/// The one global switch.  Relaxed ordering is deliberate: flipping it is
/// a coarse operator action (start of a run), not a synchronization point,
/// and the hot loop pays exactly one uncontended load per burst.
static ENABLED: AtomicBool = AtomicBool::new(false);

/// `true` if telemetry is globally enabled.
///
/// This is the single branch every instrumentation site hides behind; when
/// it returns `false` every handle method and [`emit`] is a no-op.
#[inline(always)]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Globally enables or disables telemetry.
///
/// Normally managed by [`install_file`] / [`install_memory`] / [`finish`];
/// exposed for overhead measurements (the hot-loop report and perfbench),
/// which time the enabled-but-unsampled hot loop without installing a
/// sink.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

#[cfg(test)]
pub(crate) mod test_support {
    //! The enable flag, the well-known handles and the global sink are
    //! process-wide; tests that touch them serialize on this lock so the
    //! parallel test runner cannot interleave their flips.
    use std::sync::{Mutex, MutexGuard, OnceLock};

    /// Takes the global telemetry test lock.
    pub fn serialize() -> MutexGuard<'static, ()> {
        static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
        LOCK.get_or_init(|| Mutex::new(()))
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_is_the_default() {
        let _lock = test_support::serialize();
        // Other tests toggle the global flag, so only assert the
        // flip-observe contract, not the initial state.
        set_enabled(false);
        assert!(!enabled());
        set_enabled(true);
        assert!(enabled());
        set_enabled(false);
        assert!(!enabled());
    }
}
