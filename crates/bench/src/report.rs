//! Dual-format experiment reports.
//!
//! Every experiment binary assembles a [`Report`] — an ordered list of
//! tables, notes, key/value results and data series — and emits it either as
//! the human-readable markdown the binaries have always printed or, under
//! `--json`, as one machine-readable JSON object.  Both renderers read the
//! same underlying data, so the table renderer and the JSON emitter cannot
//! drift apart silently; `analysis::json::JsonValue::parse` round-trips the
//! output in tests and in the CI smoke job.

use analysis::{JsonValue, Series, Table};

/// One section of a report, rendered in order.
#[derive(Clone, Debug)]
enum Section {
    /// A data table.
    Table(Table),
    /// A prose note (markdown paragraph; collected under `"notes"` in JSON).
    Note(String),
    /// A named scalar result (e.g. a fitted formula).
    Value(String, JsonValue),
    /// A `## `-level heading.
    Heading(String),
    /// Data series, rendered as CSV in markdown and as point arrays in JSON.
    Series(String, Vec<Series>),
}

/// An ordered experiment report with markdown and JSON renderers.
#[derive(Clone, Debug)]
pub struct Report {
    title: String,
    sections: Vec<Section>,
}

impl Report {
    /// Creates an empty report.
    pub fn new(title: impl Into<String>) -> Self {
        Report {
            title: title.into(),
            sections: Vec::new(),
        }
    }

    /// Appends a table.
    pub fn table(&mut self, table: Table) -> &mut Self {
        self.sections.push(Section::Table(table));
        self
    }

    /// Appends a prose note.
    pub fn note(&mut self, note: impl Into<String>) -> &mut Self {
        self.sections.push(Section::Note(note.into()));
        self
    }

    /// Appends a `##` heading.
    pub fn heading(&mut self, heading: impl Into<String>) -> &mut Self {
        self.sections.push(Section::Heading(heading.into()));
        self
    }

    /// Appends a named scalar result.
    pub fn value(&mut self, key: impl Into<String>, value: impl Into<JsonValue>) -> &mut Self {
        self.sections.push(Section::Value(key.into(), value.into()));
        self
    }

    /// Appends data series under a label.
    pub fn series(&mut self, label: impl Into<String>, series: Vec<Series>) -> &mut Self {
        self.sections.push(Section::Series(label.into(), series));
        self
    }

    /// Renders the whole report as markdown (the human-facing output).
    pub fn to_markdown(&self) -> String {
        let mut out = format!("# {}\n\n", self.title);
        for section in &self.sections {
            match section {
                Section::Table(t) => {
                    out.push_str(&t.to_markdown());
                    out.push('\n');
                }
                Section::Note(n) => {
                    out.push_str(n);
                    out.push_str("\n\n");
                }
                Section::Heading(h) => {
                    out.push_str(&format!("## {h}\n\n"));
                }
                Section::Value(k, v) => {
                    let rendered = match v {
                        JsonValue::String(s) => s.clone(),
                        other => other.to_json(),
                    };
                    out.push_str(&format!("{k}: {rendered}\n\n"));
                }
                Section::Series(label, series) => {
                    out.push_str(&format!("CSV ({label}):\n"));
                    out.push_str(&Series::to_csv(series, "n"));
                    out.push('\n');
                }
            }
        }
        out
    }

    /// Renders the whole report as one JSON object.
    pub fn to_json_value(&self) -> JsonValue {
        let mut tables = Vec::new();
        let mut notes = Vec::new();
        let mut values = JsonValue::object();
        let mut series = Vec::new();
        for section in &self.sections {
            match section {
                Section::Table(t) => tables.push(t.to_json()),
                Section::Note(n) => notes.push(JsonValue::from(n.as_str())),
                Section::Heading(_) => {}
                Section::Value(k, v) => values = values.with(k.as_str(), v.clone()),
                Section::Series(label, list) => {
                    series.push(JsonValue::object().with("label", label.as_str()).with(
                        "series",
                        JsonValue::Array(list.iter().map(Series::to_json).collect()),
                    ));
                }
            }
        }
        JsonValue::object()
            .with("experiment", self.title.as_str())
            .with("tables", JsonValue::Array(tables))
            .with("values", values)
            .with("series", JsonValue::Array(series))
            .with("notes", JsonValue::Array(notes))
    }

    /// Prints the report to stdout in the requested format, then finishes
    /// the telemetry trace `BenchArgs::parse` opened, if any.
    pub fn emit(&self, json: bool) {
        if json {
            println!("{}", self.to_json_value().to_json());
        } else {
            print!("{}", self.to_markdown());
        }
        crate::trace::finish_kept();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Report {
        let mut table = Table::new("Convergence", &["n", "steps"]);
        table.push_row(vec!["16".into(), "1.2e6".into()]);
        let mut series = Series::new("mean");
        series.push(16.0, 1.2e6);
        let mut report = Report::new("Table 1 reproduction");
        report
            .table(table)
            .heading("Fits")
            .value("best_fit", "0.8 * n^2.1")
            .series("scaling", vec![series])
            .note("growth exponents are the reproduction target");
        report
    }

    #[test]
    fn markdown_contains_every_section() {
        let md = sample().to_markdown();
        assert!(md.starts_with("# Table 1 reproduction"));
        assert!(md.contains("| n | steps |"));
        assert!(md.contains("## Fits"));
        assert!(md.contains("best_fit: 0.8 * n^2.1"));
        assert!(md.contains("CSV (scaling):"));
        assert!(md.contains("n,mean"));
        assert!(md.contains("reproduction target"));
    }

    #[test]
    fn json_round_trips_and_mirrors_the_table_data() {
        let json_text = sample().to_json_value().to_json();
        let parsed = JsonValue::parse(&json_text).expect("emitted JSON must parse");
        assert_eq!(
            parsed.get("experiment").and_then(JsonValue::as_str),
            Some("Table 1 reproduction")
        );
        let tables = parsed.get("tables").and_then(JsonValue::as_array).unwrap();
        assert_eq!(tables.len(), 1);
        let rows = tables[0].get("rows").and_then(JsonValue::as_array).unwrap();
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].as_array().unwrap()[0].as_str(), Some("16"));
        assert_eq!(
            parsed
                .get("values")
                .and_then(|v| v.get("best_fit"))
                .and_then(JsonValue::as_str),
            Some("0.8 * n^2.1")
        );
        let series = parsed.get("series").and_then(JsonValue::as_array).unwrap();
        assert_eq!(series.len(), 1);
        // Every markdown table cell appears in the JSON output too.
        let md = sample().to_markdown();
        assert!(md.contains("1.2e6"));
        assert!(json_text.contains("1.2e6"));
    }
}
