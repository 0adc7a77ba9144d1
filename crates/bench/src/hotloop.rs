//! Hot-loop throughput measurement.
//!
//! Everything in this workspace runs through the erased
//! `Simulation<DynProtocol, AnyGraph>` path, so its raw steps/second is the
//! throughput ceiling of the whole reproduction.  This module measures it —
//! for the four Table 1 protocols, on the directed ring and the complete
//! graph, at `n ∈ {256, 4096}` — on the production representation:
//! [`population::slot::DynState`] inline slots in one contiguous buffer,
//! dispatched once per block of arcs.
//!
//! The `hotloop_report` binary ([`Report`], driven by [`crate::tracked`])
//! writes the results to `BENCH_hotloop.json` at the repository root so
//! that later changes have a perf trajectory to compare against.  CI runs
//! the binary in `--quick` mode and validates the emitted JSON against
//! [`validate_report`] — a schema smoke, deliberately not a flaky threshold
//! gate.

use std::time::Instant;

use analysis::json::JsonValue;
use population::{
    BatchRunner, Configuration, DynProtocol, DynState, InteractionGraph, LeaderElection, Protocol,
    Simulation,
};

use crate::stabilization::GridGraph;
use crate::tracked::{point_spec, TrackedReport};
use crate::{ProtocolKind, Table1Visitor};

/// Schema identifier of `BENCH_hotloop.json`.
///
/// `v2` (this version) records only the production representation: each
/// case is `protocol`, `graph`, `n` and `steps_per_sec`.  (`v1` also
/// carried the boxed-state baseline's throughput and the speedups over it.)
pub const SCHEMA: &str = "hotloop-bench/v2";

/// The population sizes of the measurement grid.
pub const SIZES: [usize; 2] = [256, 4096];

/// The interaction graphs of the measurement grid, in report order.
pub const GRAPHS: [GridGraph; 2] = [GridGraph::Ring, GridGraph::Complete];

/// The measured throughput of one case of the grid.
#[derive(Clone, Debug)]
pub struct CaseResult {
    /// Protocol key ([`ProtocolKind::key`]).
    pub protocol: &'static str,
    /// Graph key ([`GridGraph::key`]).
    pub graph: &'static str,
    /// Population size.
    pub n: usize,
    /// Erased-path throughput, in steps/second.
    pub steps_per_sec: f64,
}

/// Builds the timed erased simulation of one case and measures steps/second
/// over (at least) `budget_secs` of wall clock.
///
/// The protocol and initial configuration are exactly those of the Table 1
/// scenarios (uniformly random states from `seed`), so the measured loop is
/// the one the figure binaries actually run.
pub fn measure(kind: ProtocolKind, graph: GridGraph, n: usize, budget_secs: f64) -> f64 {
    let seed = 0xB0B0 ^ n as u64;
    kind.with_table1_setup(
        n,
        seed,
        MeasureVisitor {
            graph,
            n,
            budget_secs,
            seed,
        },
    )
}

/// [`Table1Visitor`] that erases the typed setup and times the scheduler
/// loop.
struct MeasureVisitor {
    graph: GridGraph,
    n: usize,
    budget_secs: f64,
    seed: u64,
}

impl Table1Visitor for MeasureVisitor {
    type Output = f64;

    fn visit<P, F>(self, protocol: P, config: Configuration<P::State>, _stop: F) -> f64
    where
        P: LeaderElection + 'static,
        P::State: std::any::Any,
        F: Fn(&P, &Configuration<P::State>) -> bool + Send + Sync + 'static,
    {
        let graph = self
            .graph
            .family()
            .build(self.n)
            .expect("hot-loop sizes are all >= 2");
        let config: Configuration<DynState> = config
            .into_states()
            .into_iter()
            .map(DynState::new)
            .collect();
        let sim = Simulation::new(DynProtocol::erase(protocol), graph, config, self.seed);
        time_steps(sim, self.budget_secs)
    }
}

/// Warm-up then time: runs the scheduler loop in chunks until the time
/// budget is spent and returns steps/second over the timed stretch.  A time
/// budget (rather than a fixed step count) keeps both the fast cases
/// (tens of millions of steps/s) and the slow oracle cases (tens of
/// thousands) statistically stable at bounded wall-clock cost.
fn time_steps<P: Protocol, G: InteractionGraph>(
    mut sim: Simulation<P, G>,
    budget_secs: f64,
) -> f64 {
    // Chunks start small and double, so slow cases (oracle protocols run
    // tens of thousands of steps/s) overshoot a small budget by at most one
    // short chunk instead of a fixed multi-second minimum, while fast cases
    // quickly reach large chunks where the timer checks are negligible.
    const FIRST_CHUNK: u64 = 2_000;
    const MAX_CHUNK: u64 = 1 << 20;
    // Warm-up through caches, branch predictors and the RNG.
    sim.run_steps(FIRST_CHUNK / 4);
    let start = Instant::now();
    let mut steps = 0u64;
    let mut chunk = FIRST_CHUNK;
    loop {
        sim.run_steps(chunk);
        steps += chunk;
        chunk = (chunk * 2).min(MAX_CHUNK);
        let elapsed = start.elapsed().as_secs_f64();
        if elapsed >= budget_secs {
            // Keep the final configuration observable so the loop cannot be
            // elided.
            std::hint::black_box(sim.config().len());
            return steps as f64 / elapsed.max(1e-9);
        }
    }
}

/// The timed-stretch budget per measurement of the given mode, in seconds.
pub fn budget_secs(quick: bool) -> f64 {
    if quick {
        0.05
    } else {
        1.0
    }
}

/// The hot-loop throughput report (`hotloop_report`, `BENCH_hotloop.json`)
/// as a [`TrackedReport`].  Its options are the `quick` flag.  Cases are
/// wall-clock timings, so a distributed report is *schema*-identical but
/// not byte-identical to an in-process rerun.
#[derive(Clone, Copy, Debug)]
pub struct Report;

impl TrackedReport for Report {
    const PRODUCER: &'static str = "hotloop_report";
    const TITLE: &'static str = "Hot-loop throughput";
    const SCHEMA: &'static str = SCHEMA;
    const JOB: &'static str = "hotloop-case";
    const STEM: &'static str = "BENCH_hotloop";
    const THREADS: bool = false;
    const ISLANDS: bool = false;

    type Options = bool;
    type Point = (ProtocolKind, GridGraph, usize);
    type Cell = CaseResult;

    fn options(quick: bool, _threads: Option<usize>, _islands: Option<u32>) -> bool {
        quick
    }

    /// The same grid in both modes, so quick and full reports share one
    /// schema.
    fn grid(_quick: &bool) -> Vec<Self::Point> {
        ProtocolKind::ALL
            .into_iter()
            .flat_map(|kind| {
                GRAPHS
                    .into_iter()
                    .flat_map(move |graph| SIZES.map(move |n| (kind, graph, n)))
            })
            .collect()
    }

    fn unit_spec((kind, graph, n): Self::Point, &quick: &bool) -> JsonValue {
        point_spec::<Self>(kind, graph.key(), n, quick)
    }

    /// Measures one case: `quick` takes a single short sample (CI smoke);
    /// full mode reports the median of three samples to damp scheduler
    /// noise.
    fn run_cell((kind, graph, n): Self::Point, &quick: &bool, _runner: &BatchRunner) -> CaseResult {
        let budget = budget_secs(quick);
        let samples = if quick { 1 } else { 3 };
        let mut rates: Vec<f64> = (0..samples)
            .map(|_| measure(kind, graph, n, budget))
            .collect();
        rates.sort_by(f64::total_cmp);
        CaseResult {
            protocol: kind.key(),
            graph: graph.key(),
            n,
            steps_per_sec: rates[rates.len() / 2],
        }
    }

    fn cell_to_json(c: &CaseResult) -> JsonValue {
        JsonValue::object()
            .with("protocol", c.protocol)
            .with("graph", c.graph)
            .with("n", c.n)
            .with("steps_per_sec", c.steps_per_sec)
    }

    fn assemble(&quick: &bool, cases: Vec<JsonValue>) -> JsonValue {
        JsonValue::object()
            .with("schema", SCHEMA)
            .with("quick", quick)
            .with("budget_secs", budget_secs(quick))
            .with("cases", JsonValue::Array(cases))
    }

    fn validate(json: &JsonValue) -> Result<(), String> {
        validate_report(json)
    }

    fn summary(&quick: &bool, cases: usize) -> String {
        format!(
            "{cases} cases, {:.2}s timed budget each",
            budget_secs(quick)
        )
    }

    fn markdown(cases: &[CaseResult]) -> String {
        let mut out = String::from("| protocol | graph | n | steps/s |\n|---|---|---:|---:|\n");
        for c in cases {
            out.push_str(&format!(
                "| {} | {} | {} | {:.0} |\n",
                c.protocol, c.graph, c.n, c.steps_per_sec
            ));
        }
        out
    }
}

/// The fields of every case, in emission order.
const CASE_FIELDS: [&str; 4] = ["protocol", "graph", "n", "steps_per_sec"];

/// Validates a parsed `BENCH_hotloop.json` against the expected schema:
/// schema tag, and one case per protocol × graph × size of the grid, in
/// grid order, with exactly the fields `protocol`, `graph`, `n` and a
/// positive `steps_per_sec`.  Returns a description of the first violation.
pub fn validate_report(json: &JsonValue) -> Result<(), String> {
    if json.get("schema").and_then(JsonValue::as_str) != Some(SCHEMA) {
        return Err(format!("missing or wrong schema tag (want {SCHEMA:?})"));
    }
    if json
        .get("budget_secs")
        .and_then(JsonValue::as_f64)
        .is_none_or(|s| s <= 0.0)
    {
        return Err("budget_secs missing or non-positive".into());
    }
    let cases = json
        .get("cases")
        .and_then(JsonValue::as_array)
        .ok_or("cases array missing")?;
    let grid = Report::grid(&true);
    if cases.len() != grid.len() {
        return Err(format!(
            "expected {} cases, found {}",
            grid.len(),
            cases.len()
        ));
    }
    for (case, (kind, graph, n)) in cases.iter().zip(grid) {
        let name = format!("{}/{}/{n}", kind.key(), graph.key());
        let JsonValue::Object(entries) = case else {
            return Err(format!("case {name}: not an object"));
        };
        if !entries.iter().map(|(k, _)| k.as_str()).eq(CASE_FIELDS) {
            return Err(format!(
                "case {name}: fields must be exactly {CASE_FIELDS:?}"
            ));
        }
        if case.get("protocol").and_then(JsonValue::as_str) != Some(kind.key())
            || case.get("graph").and_then(JsonValue::as_str) != Some(graph.key())
            || case.get("n").and_then(JsonValue::as_f64) != Some(n as f64)
        {
            return Err(format!("case {name} missing or out of grid order"));
        }
        if case
            .get("steps_per_sec")
            .and_then(JsonValue::as_f64)
            .is_none_or(|v| v <= 0.0)
        {
            return Err(format!(
                "case {name}: steps_per_sec missing or non-positive"
            ));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A tiny end-to-end of one case: measurement produces finite positive
    /// throughput.
    #[test]
    fn measurement_produces_positive_throughput() {
        let rate = measure(ProtocolKind::Ppl, GridGraph::Ring, 16, 1e-3);
        assert!(rate.is_finite() && rate > 0.0, "{rate}");
    }

    /// The emitted JSON round-trips through the offline parser and passes
    /// schema validation (what the CI smoke checks against the real file).
    #[test]
    fn report_schema_round_trips_and_validates() {
        // Hand-built report with the right grid, so the test costs no
        // measurement time.
        let cases = Report::grid(&true)
            .into_iter()
            .map(|(kind, graph, n)| CaseResult {
                protocol: kind.key(),
                graph: graph.key(),
                n,
                steps_per_sec: 2.0e7,
            })
            .collect::<Vec<_>>();
        let json = Report::assemble(&true, cases.iter().map(Report::cell_to_json).collect());
        let text = json.to_json();
        let parsed = JsonValue::parse(&text).expect("emitted JSON parses");
        validate_report(&parsed).expect("schema validates");
        assert!(Report::markdown(&cases).contains("| ppl | ring | 256 | 20000000 |"));
        // A case with a field beyond the four does not validate.
        let mut extra = cases.iter().map(Report::cell_to_json).collect::<Vec<_>>();
        extra[3] = extra[3].clone().with("speedup", 2.0);
        let v1_shaped = Report::assemble(&true, extra);
        assert!(validate_report(&v1_shaped).is_err());
    }

    #[test]
    fn validation_rejects_broken_reports() {
        assert!(validate_report(&JsonValue::object()).is_err());
        let wrong_schema = JsonValue::object().with("schema", "other");
        assert!(validate_report(&wrong_schema).is_err());
        let no_cases = JsonValue::object()
            .with("schema", SCHEMA)
            .with("budget_secs", 0.1);
        assert!(validate_report(&no_cases).is_err());
    }

    /// The tracked artifact's acceptance pin: the committed
    /// `BENCH_hotloop.json` is the full-mode run of the current schema,
    /// with every grid case in order.
    #[test]
    fn tracked_report_is_the_current_full_mode_schema() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_hotloop.json");
        let text = std::fs::read_to_string(path).expect("tracked report exists");
        let parsed = JsonValue::parse(&text).expect("tracked report parses");
        validate_report(&parsed).expect("tracked report validates");
        assert_eq!(
            parsed.get("quick").and_then(JsonValue::as_bool),
            Some(false),
            "the tracked report is the full-mode run"
        );
        assert_eq!(
            parsed.get("budget_secs").and_then(JsonValue::as_f64),
            Some(budget_secs(false))
        );
    }
}
