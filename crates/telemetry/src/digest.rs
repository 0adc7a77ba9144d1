//! Folding a validated trace into a human-sized digest.
//!
//! [`TraceDigest`] reads a full `ssle-telemetry/v1` stream once and keeps
//! only the aggregate story: how many runs ran and converged, what the
//! adversary did, how the search behaved, and the final metrics
//! snapshot.  It powers the `telemetry_summary` binary, which
//! renders the digest as markdown for humans or as a
//! `telemetry-digest/v1` JSON document for scripts.

use analysis::json::JsonValue;

use crate::validate::{validate_stream, StreamStats};

/// Schema identifier of the digest document produced by
/// [`TraceDigest::to_json_value`].
pub const DIGEST_SCHEMA: &str = "telemetry-digest/v1";

/// One island's search trajectory summary (from a `search_island` event).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IslandDigest {
    /// Island index.
    pub island: u64,
    /// Accepted proposals.
    pub accepted: u64,
    /// Rejected proposals.
    pub rejected: u64,
    /// Best (longest) stabilization found by this island.
    pub best_steps: u64,
}

/// Aggregate view of one telemetry stream.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceDigest {
    /// Raw per-kind statistics from validation.
    pub stats: StreamStats,
    /// The producer recorded in `stream_start`.
    pub producer: String,
    /// Runs started / ended / ended-converged.
    pub runs_started: u64,
    /// Runs that emitted `run_end`.
    pub runs_ended: u64,
    /// Runs whose `run_end` reported convergence.
    pub runs_converged: u64,
    /// Fault events fired by the adversary layer.
    pub faults_fired: u64,
    /// Recurrence (livelock) candidates reported.
    pub recurrences: u64,
    /// Per-island search summaries, in stream order.
    pub islands: Vec<IslandDigest>,
    /// Best stabilization across all `search_summary` events, if any.
    pub search_best_steps: Option<u64>,
    /// The final `metrics` registry snapshot, if the stream has one.
    pub metrics: Option<JsonValue>,
}

fn u64_field(value: &JsonValue, key: &str) -> u64 {
    value
        .get(key)
        .and_then(JsonValue::as_str)
        .and_then(|s| s.parse::<u64>().ok())
        .unwrap_or(0)
}

fn num_field(value: &JsonValue, key: &str) -> u64 {
    value.get(key).and_then(JsonValue::as_f64).unwrap_or(0.0) as u64
}

impl TraceDigest {
    /// Validates `text` as an `ssle-telemetry/v1` stream and folds it.
    ///
    /// # Errors
    ///
    /// Propagates the first validation error; a digest is only ever built
    /// over a schema-valid stream.
    pub fn from_stream(text: &str) -> Result<TraceDigest, String> {
        let stats = validate_stream(text)?;
        let mut digest = TraceDigest {
            stats,
            producer: String::new(),
            runs_started: 0,
            runs_ended: 0,
            runs_converged: 0,
            faults_fired: 0,
            recurrences: 0,
            islands: Vec::new(),
            search_best_steps: None,
            metrics: None,
        };
        for line in text.lines() {
            // Validation already proved every line parses into an object
            // with a known kind.
            let value = JsonValue::parse(line).expect("validated line parses");
            let kind = value
                .get("event")
                .and_then(JsonValue::as_str)
                .expect("validated line has an event kind");
            match kind {
                "stream_start" => {
                    digest.producer = value
                        .get("producer")
                        .and_then(JsonValue::as_str)
                        .unwrap_or_default()
                        .to_string();
                }
                "run_start" => digest.runs_started += 1,
                "run_end" => {
                    digest.runs_ended += 1;
                    if value.get("converged").and_then(JsonValue::as_bool) == Some(true) {
                        digest.runs_converged += 1;
                    }
                }
                "fault_fired" => digest.faults_fired += 1,
                "recurrence_candidate" => digest.recurrences += 1,
                "search_island" => digest.islands.push(IslandDigest {
                    island: num_field(&value, "island"),
                    accepted: u64_field(&value, "accepted"),
                    rejected: u64_field(&value, "rejected"),
                    best_steps: u64_field(&value, "best_steps"),
                }),
                "search_summary" => {
                    let best = u64_field(&value, "best_steps");
                    digest.search_best_steps =
                        Some(digest.search_best_steps.map_or(best, |b| b.max(best)));
                }
                "metrics" => digest.metrics = value.get("registry").cloned(),
                _ => {}
            }
        }
        Ok(digest)
    }

    /// Renders the digest as a `telemetry-digest/v1` JSON document.
    pub fn to_json_value(&self) -> JsonValue {
        let mut by_kind = JsonValue::object();
        for (kind, count) in &self.stats.by_kind {
            by_kind = by_kind.with(kind.clone(), count.to_string());
        }
        let mut out = JsonValue::object()
            .with("schema", DIGEST_SCHEMA)
            .with("producer", self.producer.clone())
            .with("events", self.stats.events.to_string())
            .with("complete", self.stats.complete)
            .with("by_kind", by_kind)
            .with(
                "runs",
                JsonValue::object()
                    .with("started", self.runs_started.to_string())
                    .with("ended", self.runs_ended.to_string())
                    .with("converged", self.runs_converged.to_string()),
            )
            .with(
                "adversary",
                JsonValue::object()
                    .with("faults_fired", self.faults_fired.to_string())
                    .with("recurrences", self.recurrences.to_string()),
            );
        if !self.islands.is_empty() || self.search_best_steps.is_some() {
            let islands: Vec<JsonValue> = self
                .islands
                .iter()
                .map(|i| {
                    JsonValue::object()
                        .with("island", i.island as usize)
                        .with("accepted", i.accepted.to_string())
                        .with("rejected", i.rejected.to_string())
                        .with("best_steps", i.best_steps.to_string())
                })
                .collect();
            let mut search = JsonValue::object().with("islands", JsonValue::Array(islands));
            if let Some(best) = self.search_best_steps {
                search = search.with("best_steps", best.to_string());
            }
            out = out.with("search", search);
        }
        if let Some(metrics) = &self.metrics {
            out = out.with("metrics", metrics.clone());
        }
        out
    }

    /// Renders the digest as markdown (the `telemetry_summary` default).
    pub fn to_markdown(&self) -> String {
        let mut out = String::new();
        out.push_str("# Telemetry digest\n\n");
        out.push_str(&format!(
            "- producer: `{}`\n- events: {}\n- stream complete: {}\n",
            self.producer, self.stats.events, self.stats.complete
        ));
        out.push_str(&format!(
            "- runs: {} started, {} ended, {} converged\n",
            self.runs_started, self.runs_ended, self.runs_converged
        ));
        out.push_str(&format!(
            "- adversary: {} faults, {} recurrence candidates\n",
            self.faults_fired, self.recurrences
        ));
        out.push_str("\n## Events by kind\n\n| kind | count |\n|---|---|\n");
        for (kind, count) in &self.stats.by_kind {
            out.push_str(&format!("| {kind} | {count} |\n"));
        }
        if !self.islands.is_empty() {
            out.push_str(
                "\n## Search islands\n\n| island | accepted | rejected | best steps |\n|---|---|---|---|\n",
            );
            for island in &self.islands {
                out.push_str(&format!(
                    "| {} | {} | {} | {} |\n",
                    island.island, island.accepted, island.rejected, island.best_steps
                ));
            }
            if let Some(best) = self.search_best_steps {
                out.push_str(&format!(
                    "\nBest stabilization across islands: {best} steps.\n"
                ));
            }
        }
        if let Some(metrics) = &self.metrics {
            out.push_str("\n## Final metrics snapshot\n\n```json\n");
            out.push_str(&metrics.to_json());
            out.push_str("\n```\n");
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::Event;
    use crate::sink::{finish, install_memory};

    fn sample_stream() -> String {
        let trace = install_memory("digest-test").unwrap();
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
                    .count("step", 10)
                    .field("kind", "corrupt_all"),
            );
            crate::emit(
                Event::new("run_end")
                    .count("steps", 99)
                    .field("converged", true),
            );
        }
        crate::emit(
            Event::new("search_island")
                .field("island", 0usize)
                .count("accepted", 5)
                .count("rejected", 7)
                .count("best_steps", 1200),
        );
        crate::emit(
            Event::new("search_summary")
                .field("islands", 1usize)
                .count("evaluations", 12)
                .count("best_steps", 1200),
        );
        finish().unwrap();
        trace.contents()
    }

    #[test]
    fn digest_folds_runs_and_search() {
        let _lock = crate::test_support::serialize();
        let text = sample_stream();
        let digest = TraceDigest::from_stream(&text).expect("stream validates");
        assert_eq!(digest.producer, "digest-test");
        assert_eq!(digest.runs_started, 1);
        assert_eq!(digest.runs_ended, 1);
        assert_eq!(digest.runs_converged, 1);
        assert_eq!(digest.faults_fired, 1);
        assert_eq!(digest.islands.len(), 1);
        assert_eq!(digest.islands[0].best_steps, 1200);
        assert_eq!(digest.search_best_steps, Some(1200));
        assert!(digest.metrics.is_some());
        assert!(digest.stats.complete);
    }

    #[test]
    fn digest_round_trips_to_json_and_markdown() {
        let _lock = crate::test_support::serialize();
        let text = sample_stream();
        let digest = TraceDigest::from_stream(&text).expect("stream validates");
        let json = digest.to_json_value();
        assert_eq!(
            json.get("schema").and_then(JsonValue::as_str),
            Some(DIGEST_SCHEMA)
        );
        assert_eq!(
            json.get("runs")
                .and_then(|r| r.get("converged"))
                .and_then(JsonValue::as_str),
            Some("1")
        );
        // The JSON document itself re-parses.
        let reparsed = JsonValue::parse(&json.to_json()).expect("digest JSON parses");
        assert_eq!(
            reparsed
                .get("search")
                .and_then(|s| s.get("best_steps"))
                .and_then(JsonValue::as_str),
            Some("1200")
        );
        let md = digest.to_markdown();
        assert!(md.contains("# Telemetry digest"));
        assert!(md.contains("| fault_fired | 1 |"));
        assert!(md.contains("Best stabilization across islands: 1200 steps."));
    }

    #[test]
    fn digest_rejects_invalid_streams() {
        assert!(TraceDigest::from_stream("garbage\n").is_err());
    }
}
