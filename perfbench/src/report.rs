//! The metric catalogue and the result line.  `BENCHMARK.json` at the
//! repository root lists the same names; the self-tests keep the two equal.

use std::collections::BTreeMap;

/// The end-to-end metrics of an untraced run: `(name, unit)`.
pub const END_TO_END: [(&str, &str); 5] = [
    ("wall_s", "s"),
    ("steps_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("ok_frac", "frac"),
];

/// The per-layer metrics of a traced run: `(name, unit)`.  A layer the
/// workload does not exercise reports 0.
pub const PER_LAYER: [(&str, &str); 51] = [
    ("rand_chacha.draw_ns", "ns"),
    ("graph.sample_ns", "ns"),
    ("graph.build_s", "s"),
    ("protocol.step_ns", "ns"),
    ("protocol.transition_ns", "ns"),
    ("slot.erased_step_ns", "ns"),
    ("slot.erasure_ns", "ns"),
    ("convergence.check_ns", "ns"),
    ("convergence.checks", "count"),
    ("convergence.share", "frac"),
    ("fischer_jiang.env_ns", "ns"),
    ("fischer_jiang.env_share", "frac"),
    ("scenario.trials", "count"),
    ("scenario.trial_s.p50", "s"),
    ("scenario.trial_s.tail", "s"),
    ("scenario.converged_at.p50", "steps"),
    ("scenario.converged_at.tail", "steps"),
    ("scenario.converged_at.max", "steps"),
    ("scenario.loop_share", "frac"),
    ("batch.busy_s", "s"),
    ("batch.idle_share", "frac"),
    ("batch.imbalance", "ratio"),
    ("init.config_s", "s"),
    ("search.pool_s", "s"),
    ("search.islands_s", "s"),
    ("search.rate_s", "s"),
    ("search.eval_s.p50", "s"),
    ("search.eval_s.tail", "s"),
    ("search.evaluations", "count"),
    ("search.accept_ratio", "frac"),
    ("adversary.step_ns.random", "ns"),
    ("adversary.step_ns.weighted", "ns"),
    ("adversary.step_ns.epoch-partition", "ns"),
    ("adversary.step_ns.greedy", "ns"),
    ("certify.s", "s"),
    ("certify.closure_s", "s"),
    ("certify.closure_configs", "count"),
    ("certify.certified", "count"),
    ("trace.overhead_share", "frac"),
    ("trace.spans", "count"),
    ("sim.steps_total", "steps"),
    ("counts.hot_steps", "count"),
    ("counts.scheduled_steps", "count"),
    ("counts.faults_fired", "count"),
    ("counts.recurrences", "count"),
    ("counts.search_accepts", "count"),
    ("counts.search_rejects", "count"),
    ("counts.runs", "count"),
    ("counts.converged_runs", "count"),
    ("threads", "count"),
    ("untraced.wall_s", "s"),
];

/// Metric values by name, filled by a workload and checked against a
/// catalogue before printing.
#[derive(Debug, Default)]
pub struct Metrics(BTreeMap<&'static str, f64>);

impl Metrics {
    /// Sets `name` to `value`.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.0.insert(name, value);
    }

    /// The value of `name`, if set.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).copied()
    }

    /// Renders `{"name": {"value": v, "unit": u}, ...}` for every entry of
    /// `catalogue`, in catalogue order; names the workload did not set read
    /// 0.  Fails on a value that JSON cannot carry.
    pub fn to_json(&self, catalogue: &[(&str, &str)]) -> Result<String, String> {
        let mut fields = Vec::with_capacity(catalogue.len());
        for &(name, unit) in catalogue {
            let value = self.get(name).unwrap_or(0.0);
            if !value.is_finite() {
                return Err(format!("metric {name} is not finite ({value})"));
            }
            // `{:?}` is Rust's shortest round-trip form: every digit kept,
            // and valid JSON for finite values (`1.0`, `2.5e-7`).
            fields.push(format!(
                "\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
            ));
        }
        Ok(format!("{{{}}}", fields.join(", ")))
    }
}

/// The result line: the last line the benchmark prints.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &str) -> String {
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {metrics}}}"
    )
}

/// `true` if `name` is a valid metric or workload name: 1 to 64 of
/// `[A-Za-z0-9_.-]`, starting with a letter or digit.
#[cfg(test)]
pub fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalogue_names_are_valid_and_unique() {
        let mut seen = std::collections::BTreeSet::new();
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
            assert!(valid_name(name), "bad metric name {name:?}");
            assert!(seen.insert(*name), "duplicate metric name {name:?}");
            assert!(
                !unit.is_empty()
                    && unit.len() <= 16
                    && unit
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "bad unit {unit:?}"
            );
        }
        assert!(!valid_name("a b") && !valid_name("-x") && !valid_name(""));
    }

    #[test]
    fn result_line_parses_and_keeps_digits() {
        let mut m = Metrics::default();
        m.set("wall_s", 1.234_567_890_123);
        m.set("ok_frac", 1.0);
        let line = result_line(true, 3, 0, &m.to_json(&END_TO_END).unwrap());
        let json = analysis::json::JsonValue::parse(&line).unwrap();
        let wall = json.get("metrics").and_then(|m| m.get("wall_s")).unwrap();
        assert_eq!(
            wall.get("value").and_then(|v| v.as_f64()),
            Some(1.234_567_890_123)
        );
        assert_eq!(wall.get("unit").and_then(|v| v.as_str()), Some("s"));
        assert!(m.to_json(&[("x", "s")]).is_ok());
        m.set("wall_s", f64::NAN);
        assert!(m.to_json(&END_TO_END).is_err());
    }
}
