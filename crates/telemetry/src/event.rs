//! Structured events and the per-run context scope.
//!
//! An [`Event`] is one NDJSON line under construction: an event kind, a
//! list of deterministic fields, and an optional wall-clock section.  The
//! sink assigns the stream-wide `seq` number and stamps the thread's
//! active [`RunScope`] (scenario name, population size, seed) onto every
//! event, so traces from multi-threaded sweeps remain attributable even
//! though runs interleave in the file.
//!
//! Encoding rules (schema `ssle-telemetry/v1`):
//!
//! * u64 quantities that can be large (steps, seeds, counters) travel as
//!   **exact decimal strings** ([`Event::count`]) — the house style, since
//!   a JSON number would round above 2⁵³;
//! * structurally small integers (population size, island/worker ids) are
//!   plain numbers;
//! * anything wall-clock lives under the event's `"wall"` object
//!   ([`Event::wall_micros`]) and nowhere else, so a diff that ignores
//!   `"wall"` keys checks determinism.

use std::cell::RefCell;

use analysis::json::JsonValue;

/// One telemetry event under construction (builder-style).
#[derive(Debug)]
pub struct Event {
    kind: &'static str,
    fields: Vec<(&'static str, JsonValue)>,
    wall: Vec<(&'static str, JsonValue)>,
}

impl Event {
    /// Starts an event of the given kind (a snake_case name from the
    /// taxonomy in [`crate::validate`]).
    pub fn new(kind: &'static str) -> Self {
        Event {
            kind,
            fields: Vec::new(),
            wall: Vec::new(),
        }
    }

    /// The event kind.
    pub fn kind(&self) -> &'static str {
        self.kind
    }

    /// Adds a deterministic field.
    pub fn field(mut self, key: &'static str, value: impl Into<JsonValue>) -> Self {
        self.fields.push((key, value.into()));
        self
    }

    /// Adds a u64 quantity as an exact decimal string (steps, seeds,
    /// counts — anything that may exceed 2⁵³).
    pub fn count(self, key: &'static str, value: u64) -> Self {
        self.field(key, value.to_string())
    }

    /// Adds a wall-clock duration (microseconds, exact decimal string) to
    /// the event's nondeterministic `"wall"` section.
    pub fn wall_micros(mut self, key: &'static str, micros: u64) -> Self {
        self.wall.push((key, JsonValue::String(micros.to_string())));
        self
    }

    /// Finalizes into the JSON object of one NDJSON line: kind, sink-
    /// assigned `seq`, the thread's run scope (if any), the deterministic
    /// fields, then the `"wall"` section last (only when non-empty).
    pub(crate) fn into_json(self, seq: u64) -> JsonValue {
        let mut out = JsonValue::object()
            .with("event", self.kind)
            .with("seq", seq.to_string());
        out = with_scope(out);
        for (key, value) in self.fields {
            out = out.with(key, value);
        }
        if !self.wall.is_empty() {
            let mut wall = JsonValue::object();
            for (key, value) in self.wall {
                wall = wall.with(key, value);
            }
            out = out.with("wall", wall);
        }
        out
    }
}

/// The per-thread run-context stack.
#[derive(Debug, Clone)]
struct ScopeData {
    scenario: String,
    n: u64,
    seed: u64,
}

thread_local! {
    static SCOPE: RefCell<Vec<ScopeData>> = const { RefCell::new(Vec::new()) };
}

/// Stamps the innermost active scope onto an event object.
fn with_scope(out: JsonValue) -> JsonValue {
    SCOPE.with(|stack| match stack.borrow().last() {
        Some(scope) => out
            .with("scenario", scope.scenario.clone())
            .with("n", scope.n as usize)
            .with("seed", scope.seed.to_string()),
        None => out,
    })
}

/// Guard of one active run scope; pops the context on drop.
#[derive(Debug)]
pub struct RunScope {
    pushed: bool,
}

/// Enters a run scope: until the returned guard drops, every event this
/// thread emits is stamped with `scenario`/`n`/`seed`.  When telemetry is
/// disabled this is a no-op (one relaxed load, no allocation).
///
/// Scopes nest; the innermost wins.  Events within one scope are ordered
/// by the deterministic step clock; *across* threads the stream order is
/// scheduling-dependent, which is why the scope fields (not file order)
/// are the attribution key.
pub fn run_scope(scenario: &str, n: u64, seed: u64) -> RunScope {
    if !crate::enabled() {
        return RunScope { pushed: false };
    }
    SCOPE.with(|stack| {
        stack.borrow_mut().push(ScopeData {
            scenario: scenario.to_string(),
            n,
            seed,
        });
    });
    RunScope { pushed: true }
}

impl Drop for RunScope {
    fn drop(&mut self) {
        if self.pushed {
            SCOPE.with(|stack| {
                stack.borrow_mut().pop();
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn events_serialize_with_seq_fields_and_wall_section() {
        let json = Event::new("fault_fired")
            .count("step", u64::MAX)
            .field("kind", "corrupt_all")
            .wall_micros("elapsed", 17)
            .into_json(3);
        assert_eq!(
            json.get("event").and_then(JsonValue::as_str),
            Some("fault_fired")
        );
        assert_eq!(json.get("seq").and_then(JsonValue::as_str), Some("3"));
        assert_eq!(
            json.get("step").and_then(JsonValue::as_str),
            Some(&u64::MAX.to_string()[..]),
            "large u64s travel as exact decimal strings"
        );
        assert_eq!(
            json.get("wall")
                .and_then(|w| w.get("elapsed"))
                .and_then(JsonValue::as_str),
            Some("17")
        );
        let no_wall = Event::new("converged").count("step", 5).into_json(0);
        assert!(
            no_wall.get("wall").is_none(),
            "empty wall sections are omitted"
        );
    }

    #[test]
    fn run_scope_stamps_and_nests() {
        let _lock = crate::test_support::serialize();
        crate::set_enabled(true);
        let outer = run_scope("outer", 8, 42);
        {
            let _inner = run_scope("inner", 16, 7);
            let json = Event::new("converged").into_json(0);
            assert_eq!(
                json.get("scenario").and_then(JsonValue::as_str),
                Some("inner")
            );
            assert_eq!(json.get("n").and_then(JsonValue::as_f64), Some(16.0));
            assert_eq!(json.get("seed").and_then(JsonValue::as_str), Some("7"));
        }
        let json = Event::new("converged").into_json(1);
        assert_eq!(
            json.get("scenario").and_then(JsonValue::as_str),
            Some("outer")
        );
        drop(outer);
        let json = Event::new("converged").into_json(2);
        assert!(json.get("scenario").is_none());
        crate::set_enabled(false);
    }

    #[test]
    fn disabled_scope_is_inert() {
        let _lock = crate::test_support::serialize();
        crate::set_enabled(false);
        let _scope = run_scope("ghost", 4, 1);
        let json = Event::new("converged").into_json(0);
        assert!(json.get("scenario").is_none());
    }
}
