//! Full schema validation of an `ssle-telemetry/v1` NDJSON stream.
//!
//! The validator is strict where determinism lives and lenient where
//! extension lives: every line must parse, carry a known event kind, a
//! contiguous `seq`, and the kind's required fields with the right
//! encodings (decimal-string u64s actually parse as u64s); extra fields
//! are allowed (they are how events grow), but wall-clock data outside a
//! `"wall"` section is not expressible — the only place a wall value can
//! legally appear is the quarantined object this module checks.

use analysis::json::JsonValue;

use crate::SCHEMA;

/// The required encoding of one taxonomy field.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum FieldType {
    /// A JSON string.
    Str,
    /// A JSON string that parses as a u64 (the exact-decimal house style).
    U64Str,
    /// A plain JSON number (structurally small integers).
    Num,
    /// A JSON boolean.
    Bool,
    /// A JSON object.
    Obj,
}

use FieldType::{Bool, Num, Obj, Str, U64Str};

/// The event taxonomy: kind → required fields.  Extra fields are always
/// permitted; kinds outside this table are rejected (schema growth means
/// extending the table — and bumping the schema version when semantics
/// change).
const TAXONOMY: &[(&str, &[(&str, FieldType)])] = &[
    ("stream_start", &[("schema", Str), ("producer", Str)]),
    ("stream_end", &[("events", U64Str)]),
    (
        "run_start",
        &[("scenario", Str), ("n", Num), ("seed", U64Str)],
    ),
    ("run_end", &[("steps", U64Str), ("converged", Bool)]),
    ("converged", &[("step", U64Str)]),
    ("fault_fired", &[("step", U64Str), ("kind", Str)]),
    ("churn_fired", &[("step", U64Str), ("kind", Str)]),
    ("partition_open", &[("step", U64Str), ("blocks", U64Str)]),
    ("partition_heal", &[("step", U64Str)]),
    (
        "recurrence_candidate",
        &[("step", U64Str), ("period", U64Str)],
    ),
    (
        "search_island",
        &[
            ("island", Num),
            ("accepted", U64Str),
            ("rejected", U64Str),
            ("best_steps", U64Str),
        ],
    ),
    (
        "search_summary",
        &[
            ("islands", Num),
            ("evaluations", U64Str),
            ("best_steps", U64Str),
        ],
    ),
    ("metrics", &[("registry", Obj)]),
    ("annotation", &[("text", Str)]),
];

/// Summary statistics of a validated stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StreamStats {
    /// Total events (lines).
    pub events: u64,
    /// Per-kind event counts, sorted by kind.
    pub by_kind: Vec<(String, u64)>,
    /// `true` if the stream ends with a consistent `stream_end` marker
    /// (a crashed producer leaves a truncated — but still valid — prefix).
    pub complete: bool,
}

impl StreamStats {
    /// The count of one event kind (0 when absent).
    pub fn count(&self, kind: &str) -> u64 {
        self.by_kind
            .iter()
            .find(|(k, _)| k == kind)
            .map_or(0, |(_, c)| *c)
    }
}

fn field_ok(value: &JsonValue, ty: FieldType) -> bool {
    match ty {
        Str => value.as_str().is_some(),
        U64Str => value
            .as_str()
            .is_some_and(|s| !s.is_empty() && s.parse::<u64>().is_ok()),
        Num => value.as_f64().is_some(),
        Bool => value.as_bool().is_some(),
        Obj => matches!(value, JsonValue::Object(_)),
    }
}

/// Validates one stream of NDJSON text.
///
/// # Errors
///
/// Returns a message naming the first offending line and what is wrong
/// with it.
pub fn validate_stream(text: &str) -> Result<StreamStats, String> {
    let mut by_kind: Vec<(String, u64)> = Vec::new();
    let mut events = 0u64;
    let mut ended = false;
    let mut end_consistent = false;
    for (index, line) in text.lines().enumerate() {
        let lineno = index + 1;
        if line.trim().is_empty() {
            return Err(format!("line {lineno}: blank line inside the stream"));
        }
        if ended {
            return Err(format!("line {lineno}: events after stream_end"));
        }
        let value = JsonValue::parse(line)
            .map_err(|e| format!("line {lineno}: does not parse as JSON: {e}"))?;
        if !matches!(value, JsonValue::Object(_)) {
            return Err(format!("line {lineno}: not a JSON object"));
        }
        let kind = value
            .get("event")
            .and_then(JsonValue::as_str)
            .ok_or_else(|| format!("line {lineno}: missing \"event\" string"))?;
        let required = TAXONOMY
            .iter()
            .find(|(k, _)| *k == kind)
            .map(|(_, fields)| *fields)
            .ok_or_else(|| format!("line {lineno}: unknown event kind {kind:?}"))?;
        let seq = value
            .get("seq")
            .and_then(JsonValue::as_str)
            .and_then(|s| s.parse::<u64>().ok())
            .ok_or_else(|| format!("line {lineno}: missing or malformed \"seq\""))?;
        if seq != events {
            return Err(format!(
                "line {lineno}: seq {seq} out of order (expected {events})"
            ));
        }
        for (field, ty) in required {
            let present = value.get(field).is_some_and(|v| field_ok(v, *ty));
            if !present {
                return Err(format!(
                    "line {lineno}: event {kind:?} requires field {field:?} as {ty:?}"
                ));
            }
        }
        // Scope stamps, when present, use the fixed encodings.
        for (field, ty) in [("scenario", Str), ("n", Num), ("seed", U64Str)] {
            if let Some(v) = value.get(field) {
                if !field_ok(v, ty) && required.iter().all(|(f, _)| *f != field) {
                    return Err(format!("line {lineno}: scope field {field:?} malformed"));
                }
            }
        }
        // The wall section: an object of decimal-string durations (or, in
        // the metrics registry, nested objects — checked one level deep).
        if let Some(wall) = value.get("wall") {
            let JsonValue::Object(entries) = wall else {
                return Err(format!("line {lineno}: \"wall\" is not an object"));
            };
            for (key, v) in entries {
                let ok = field_ok(v, U64Str) || matches!(v, JsonValue::Object(_));
                if !ok {
                    return Err(format!(
                        "line {lineno}: wall entry {key:?} is neither a decimal \
                         string nor an object"
                    ));
                }
            }
        }
        match kind {
            "stream_start" => {
                if index != 0 {
                    return Err(format!("line {lineno}: stream_start after line 1"));
                }
                let schema = value.get("schema").and_then(JsonValue::as_str);
                if schema != Some(SCHEMA) {
                    return Err(format!(
                        "line {lineno}: schema {schema:?}, expected {SCHEMA:?}"
                    ));
                }
            }
            "stream_end" => {
                ended = true;
                let declared = value
                    .get("events")
                    .and_then(JsonValue::as_str)
                    .and_then(|s| s.parse::<u64>().ok());
                end_consistent = declared == Some(events + 1);
                if !end_consistent {
                    return Err(format!(
                        "line {lineno}: stream_end declares {declared:?} events, \
                         {} were seen",
                        events + 1
                    ));
                }
            }
            _ if index == 0 => {
                return Err("line 1: stream must start with stream_start".to_string());
            }
            _ => {}
        }
        match by_kind.iter_mut().find(|(k, _)| k == kind) {
            Some((_, c)) => *c += 1,
            None => by_kind.push((kind.to_string(), 1)),
        }
        events += 1;
    }
    if events == 0 {
        return Err("empty stream (no events)".to_string());
    }
    by_kind.sort();
    Ok(StreamStats {
        events,
        by_kind,
        complete: ended && end_consistent,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::Event;
    use crate::sink::{finish, install_memory};

    #[test]
    fn a_real_stream_validates_as_complete() {
        let _lock = crate::test_support::serialize();
        let trace = install_memory("validate-test").unwrap();
        {
            let _scope = crate::run_scope("demo", 8, 42);
            crate::emit(
                Event::new("run_start")
                    .field("scenario", "demo")
                    .field("n", 8usize)
                    .count("seed", 42),
            );
            crate::emit(
                Event::new("fault_fired")
                    .count("step", 100)
                    .field("kind", "corrupt_all"),
            );
            crate::emit(
                Event::new("churn_fired")
                    .count("step", 120)
                    .field("kind", "rewire"),
            );
            crate::emit(
                Event::new("partition_open")
                    .count("step", 130)
                    .count("blocks", 2),
            );
            crate::emit(Event::new("partition_heal").count("step", 140));
            crate::emit(
                Event::new("converged")
                    .count("step", 250)
                    .wall_micros("elapsed", 12),
            );
            crate::emit(
                Event::new("run_end")
                    .count("steps", 250)
                    .field("converged", true),
            );
        }
        finish().unwrap();
        let stats = validate_stream(&trace.contents()).expect("stream validates");
        assert_eq!(stats.events, 10);
        assert!(stats.complete);
        assert_eq!(stats.count("fault_fired"), 1);
        assert_eq!(stats.count("churn_fired"), 1);
        assert_eq!(stats.count("partition_open"), 1);
        assert_eq!(stats.count("partition_heal"), 1);
        assert_eq!(stats.count("metrics"), 1);
        assert_eq!(stats.count("nonexistent"), 0);
    }

    #[test]
    fn truncated_streams_validate_but_are_incomplete() {
        let _lock = crate::test_support::serialize();
        let trace = install_memory("truncate-test").unwrap();
        crate::emit(Event::new("converged").count("step", 1));
        finish().unwrap();
        let text = trace.contents();
        let truncated: String = text.lines().take(2).map(|l| format!("{l}\n")).collect();
        let stats = validate_stream(&truncated).expect("a prefix is still valid");
        assert!(!stats.complete);
        assert_eq!(stats.events, 2);
    }

    #[test]
    fn malformed_streams_are_rejected_with_line_numbers() {
        let start = Event::new("stream_start")
            .field("schema", SCHEMA)
            .field("producer", "t")
            .into_json(0)
            .to_string();
        // Not JSON.
        assert!(validate_stream("not json\n")
            .unwrap_err()
            .contains("line 1"));
        // Wrong first event.
        let bad_first = format!(
            "{}\n",
            Event::new("converged").count("step", 1).into_json(0)
        );
        assert!(validate_stream(&bad_first)
            .unwrap_err()
            .contains("stream_start"));
        // Unknown kind.
        let unknown = format!("{start}\n{}\n", Event::new("mystery_event").into_json(1));
        assert!(validate_stream(&unknown)
            .unwrap_err()
            .contains("unknown event kind"));
        // Out-of-order seq.
        let skipped = format!(
            "{start}\n{}\n",
            Event::new("converged").count("step", 1).into_json(5)
        );
        assert!(validate_stream(&skipped)
            .unwrap_err()
            .contains("out of order"));
        // Missing required field.
        let missing = format!("{start}\n{}\n", Event::new("fault_fired").into_json(1));
        assert!(validate_stream(&missing)
            .unwrap_err()
            .contains("requires field"));
        // A u64 field that is a plain number violates the house style.
        let number_step = format!(
            "{start}\n{}\n",
            Event::new("converged").field("step", 3usize).into_json(1)
        );
        assert!(validate_stream(&number_step)
            .unwrap_err()
            .contains("requires field"));
        // Wall section with a non-duration payload.
        let bad_wall = format!(
            "{start}\n{{\"event\":\"converged\",\"seq\":\"1\",\"step\":\"3\",\"wall\":{{\"x\":1.5}}}}\n"
        );
        assert!(validate_stream(&bad_wall).unwrap_err().contains("wall"));
        // Empty input.
        assert!(validate_stream("").is_err());
    }
}
