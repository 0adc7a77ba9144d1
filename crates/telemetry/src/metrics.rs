//! Atomic metric handles and the global registry.
//!
//! Handles are `const`-constructible statics: a layer declares
//! `static STEPS: Counter = Counter::new("steps");` once and mutates it
//! from any thread.  Every mutation hides behind the single relaxed
//! [`crate::enabled`] branch, so a disabled build pays one predicted
//! branch per *burst* (instrumentation sites record at burst boundaries,
//! never per step) and zero atomics.
//!
//! The well-known handles of the workspace live in [`well_known`] and are
//! what [`registry`] snapshots into the `metrics` event at stream finish.
//! Counter values are exact u64s and are emitted as decimal strings (the
//! house style — an `f64` cast would round above 2⁵³).

use std::sync::atomic::{AtomicU64, Ordering};

use analysis::json::JsonValue;

use crate::enabled;

/// A monotonically increasing counter.
#[derive(Debug)]
pub struct Counter {
    name: &'static str,
    value: AtomicU64,
}

impl Counter {
    /// A new counter handle (usable as a `static`).
    pub const fn new(name: &'static str) -> Self {
        Counter {
            name,
            value: AtomicU64::new(0),
        }
    }

    /// The metric name.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Adds `k` when telemetry is enabled; a no-op otherwise.
    #[inline(always)]
    pub fn add(&self, k: u64) {
        if enabled() {
            self.value.fetch_add(k, Ordering::Relaxed);
        }
    }

    /// Adds one when telemetry is enabled; a no-op otherwise.
    #[inline(always)]
    pub fn incr(&self) {
        self.add(1);
    }

    /// The current value.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }

    /// Resets to zero (between benchmark phases and tests).
    pub fn reset(&self) {
        self.value.store(0, Ordering::Relaxed);
    }
}

/// The well-known metric handles of the workspace, one static per
/// instrumented quantity.  Layers reference these directly; the
/// [`registry`] snapshot enumerates them.
pub mod well_known {
    use super::Counter;

    /// Steps drawn by the uniform sampler (`Simulation::run_steps`, and the
    /// uniform segments of scenario runs), counted once per burst.
    pub static HOT_STEPS: Counter = Counter::new("hot_steps");
    /// Steps chosen by a custom scenario scheduler (per-step dispatch),
    /// counted once per segment.
    pub static SCHEDULED_STEPS: Counter = Counter::new("scheduled_steps");
    /// Erased scenario runs started.
    pub static RUNS: Counter = Counter::new("runs");
    /// Runs that satisfied their stop predicate within budget.
    pub static CONVERGED_RUNS: Counter = Counter::new("converged_runs");
    /// Fault events fired.
    pub static FAULTS_FIRED: Counter = Counter::new("faults_fired");
    /// Confirmed configuration recurrences.
    pub static RECURRENCES: Counter = Counter::new("recurrences");
    /// Annealing candidate evaluations.
    pub static SEARCH_EVALUATIONS: Counter = Counter::new("search_evaluations");
    /// Annealing moves accepted (Metropolis).
    pub static SEARCH_ACCEPTS: Counter = Counter::new("search_accepts");
    /// Annealing moves rejected.
    pub static SEARCH_REJECTS: Counter = Counter::new("search_rejects");
    /// `--resume` cells answered from the content-addressed cache.
    pub static FABRIC_CACHE_HITS: Counter = Counter::new("fabric_cache_hits");
    /// `--resume` cache lookups that missed.
    pub static FABRIC_CACHE_MISSES: Counter = Counter::new("fabric_cache_misses");
}

/// The fixed set of well-known handles, snapshot-able as one JSON object.
#[derive(Debug, Clone, Copy)]
pub struct Registry {
    counters: &'static [&'static Counter],
}

/// The global registry over [`well_known`].
pub fn registry() -> Registry {
    use well_known as w;
    static COUNTERS: &[&Counter] = &[
        &w::HOT_STEPS,
        &w::SCHEDULED_STEPS,
        &w::RUNS,
        &w::CONVERGED_RUNS,
        &w::FAULTS_FIRED,
        &w::RECURRENCES,
        &w::SEARCH_EVALUATIONS,
        &w::SEARCH_ACCEPTS,
        &w::SEARCH_REJECTS,
        &w::FABRIC_CACHE_HITS,
        &w::FABRIC_CACHE_MISSES,
    ];
    Registry { counters: COUNTERS }
}

impl Registry {
    /// Snapshots every non-zero counter as an exact decimal string under
    /// `"counters"`.
    pub fn snapshot(&self) -> JsonValue {
        let mut counters = JsonValue::object();
        for c in self.counters {
            if c.get() > 0 {
                counters = counters.with(c.name(), c.get().to_string());
            }
        }
        JsonValue::object().with("counters", counters)
    }

    /// Resets every handle (between benchmark phases and tests).
    pub fn reset(&self) {
        for c in self.counters {
            c.reset();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::set_enabled;

    #[test]
    fn disabled_handles_are_no_ops() {
        let _lock = crate::test_support::serialize();
        static C: Counter = Counter::new("test_disabled_counter");
        set_enabled(false);
        C.add(5);
        C.incr();
        assert_eq!(C.get(), 0);
    }

    #[test]
    fn enabled_handles_accumulate_exactly() {
        let _lock = crate::test_support::serialize();
        static C: Counter = Counter::new("test_counter");
        set_enabled(true);
        C.add(5);
        C.incr();
        set_enabled(false);
        assert_eq!(C.get(), 6);
        C.reset();
        assert_eq!(C.get(), 0);
    }

    #[test]
    fn registry_snapshot_skips_zero_metrics_and_resets() {
        let _lock = crate::test_support::serialize();
        let reg = registry();
        reg.reset();
        set_enabled(true);
        well_known::HOT_STEPS.add(41);
        well_known::HOT_STEPS.add(1);
        set_enabled(false);
        let snap = reg.snapshot();
        let counters = snap.get("counters").unwrap();
        assert_eq!(
            counters.get("hot_steps").and_then(JsonValue::as_str),
            Some("42")
        );
        assert!(counters.get("runs").is_none(), "zero metrics are omitted");
        reg.reset();
        let empty = reg.snapshot();
        assert!(empty.get("counters").unwrap().get("hot_steps").is_none());
    }
}
