//! Hot-loop throughput measurement.
//!
//! Everything in this workspace runs through the erased
//! `Simulation<DynProtocol, AnyGraph>` path, so its raw steps/second is the
//! throughput ceiling of the whole reproduction.  This module measures it —
//! for the four Table 1 protocols, on the directed ring and the complete
//! graph, at `n ∈ {256, 4096}` — on the production representation:
//! [`population::slot::DynState`] inline slots in one contiguous buffer,
//! dispatched once per block of arcs.  Every case is timed twice per
//! sample, with the global telemetry flag off and then on (what
//! `--telemetry` sets), so each case also carries the instrumentation's
//! cost: one counter add per `run_steps` burst.
//!
//! The `hotloop_report` binary ([`Report`], driven by [`crate::tracked`])
//! writes the results to `BENCH_hotloop.json` at the repository root so
//! that later changes have a perf trajectory to compare against.  CI runs
//! the binary in `--quick` mode, which validates the emitted JSON against
//! [`validate_report`], and gates the telemetry overhead of the `ppl`/ring
//! cases at a lenient 20 %.

use std::time::Instant;

use analysis::json::JsonValue;
use population::{
    BatchRunner, Configuration, DynProtocol, DynState, InteractionGraph, LeaderElection, Protocol,
    Simulation,
};

use crate::stabilization::GridGraph;
use crate::tracked::{
    check_grid, decode_cells, point_name, point_spec, Fields, Point, TrackedReport,
};
use crate::{ProtocolKind, Table1Visitor};

/// Schema identifier of `BENCH_hotloop.json`.
///
/// `v3` (this version): each case is `protocol`, `graph`, `n`,
/// `steps_per_sec` (telemetry off) and `steps_per_sec_telemetry` (the
/// global flag on), and the header records `samples`.  (`v2` had no
/// telemetry column; `v1` also carried the boxed-state baseline's
/// throughput and the speedups over it.)
pub const SCHEMA: &str = "hotloop-bench/v3";

/// Interleaved off/on samples per case; each column is their median.
pub const SAMPLES: usize = 3;

/// The population sizes of the measurement grid.
pub const SIZES: [usize; 2] = [256, 4096];

/// The interaction graphs of the measurement grid, in report order.
pub const GRAPHS: [GridGraph; 2] = [GridGraph::Ring, GridGraph::Complete];

/// The measured throughput of one case of the grid.
#[derive(Clone, Debug)]
pub struct CaseResult {
    /// Protocol.
    pub kind: ProtocolKind,
    /// Interaction graph.
    pub graph: GridGraph,
    /// Population size.
    pub n: usize,
    /// Erased-path throughput with telemetry off, in steps/second.
    pub steps_per_sec: f64,
    /// The same with the global telemetry flag on, in steps/second.
    pub steps_per_sec_telemetry: f64,
}

impl CaseResult {
    /// The throughput telemetry costs, in percent of the telemetry-off
    /// rate (negative when noise makes the instrumented run faster).
    fn overhead_percent(&self) -> f64 {
        (1.0 - self.steps_per_sec_telemetry / self.steps_per_sec) * 100.0
    }
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
    const CELL: &'static str = "case";
    const THREADS: bool = false;
    const ISLANDS: bool = false;

    type Options = bool;
    type Cell = CaseResult;

    fn options(quick: bool, _threads: Option<usize>, _islands: Option<u32>) -> bool {
        quick
    }

    /// The same grid in both modes, so quick and full reports share one
    /// schema.
    fn grid(_quick: &bool) -> Vec<Point> {
        ProtocolKind::ALL
            .into_iter()
            .flat_map(|kind| {
                GRAPHS
                    .into_iter()
                    .flat_map(move |graph| SIZES.map(move |n| (kind, graph, n)))
            })
            .collect()
    }

    fn unit_spec((kind, graph, n): Point, &quick: &bool) -> JsonValue {
        point_spec::<Self>(kind, graph.key(), n, quick)
    }

    /// Measures one case: [`SAMPLES`] samples, each timing the case with
    /// the global telemetry flag off and then on, back to back, so machine
    /// noise hits both columns alike; each column is the median of its
    /// samples.  The flag is left as it was found, and the metrics registry
    /// keeps what the telemetry-on samples counted.
    fn run_cell((kind, graph, n): Point, &quick: &bool, _runner: &BatchRunner) -> CaseResult {
        let budget = budget_secs(quick);
        let was_enabled = ssle_telemetry::enabled();
        let (mut off, mut on) = (Vec::new(), Vec::new());
        for _ in 0..SAMPLES {
            ssle_telemetry::set_enabled(false);
            off.push(measure(kind, graph, n, budget));
            ssle_telemetry::set_enabled(true);
            on.push(measure(kind, graph, n, budget));
        }
        ssle_telemetry::set_enabled(was_enabled);
        let median = |mut rates: Vec<f64>| {
            rates.sort_by(f64::total_cmp);
            rates[rates.len() / 2]
        };
        CaseResult {
            kind,
            graph,
            n,
            steps_per_sec: median(off),
            steps_per_sec_telemetry: median(on),
        }
    }

    fn point(c: &CaseResult) -> Point {
        (c.kind, c.graph, c.n)
    }

    fn cell_to_json(c: &CaseResult) -> JsonValue {
        JsonValue::object()
            .with("protocol", c.kind.key())
            .with("graph", c.graph.key())
            .with("n", c.n)
            .with("steps_per_sec", c.steps_per_sec)
            .with("steps_per_sec_telemetry", c.steps_per_sec_telemetry)
    }

    fn cell_from_json(json: &JsonValue) -> Result<CaseResult, String> {
        let (case, (kind, graph, n)) = Fields::open(json, Self::CELL)?;
        Ok(CaseResult {
            kind,
            graph,
            n,
            steps_per_sec: case.float("steps_per_sec")?,
            steps_per_sec_telemetry: case.float("steps_per_sec_telemetry")?,
        })
    }

    fn header(&quick: &bool) -> JsonValue {
        JsonValue::object()
            .with("schema", SCHEMA)
            .with("quick", quick)
            .with("budget_secs", budget_secs(quick))
            .with("samples", SAMPLES)
    }

    fn validate(json: &JsonValue) -> Result<Vec<CaseResult>, String> {
        validate_report(json)
    }

    fn summary(&quick: &bool, cases: usize) -> String {
        format!(
            "{cases} cases, {SAMPLES} x 2 samples of {:.2}s timed budget each",
            budget_secs(quick)
        )
    }

    fn markdown(cases: &[CaseResult]) -> String {
        let mut out = String::from(
            "| protocol | graph | n | steps/s | telemetry steps/s | overhead |\n\
             |---|---|---:|---:|---:|---:|\n",
        );
        for c in cases {
            out.push_str(&format!(
                "| {} | {} | {} | {:.0} | {:.0} | {:+.1}% |\n",
                c.kind.key(),
                c.graph.key(),
                c.n,
                c.steps_per_sec,
                c.steps_per_sec_telemetry,
                c.overhead_percent()
            ));
        }
        out
    }
}

/// Validates a parsed `BENCH_hotloop.json` against the expected schema and
/// returns its cases: schema tag, a header equal to [`Report::header`] of
/// its `quick` mode, and one case per protocol × graph × size of the grid,
/// in grid order, each exactly the encoding of a decoded case
/// ([`decode_cells`]) with both throughputs positive.  Returns a
/// description of the first violation.
pub fn validate_report(json: &JsonValue) -> Result<Vec<CaseResult>, String> {
    let cases = decode_cells::<Report>(json)?;
    let quick = Fields::new(json, "report").bool("quick")?;
    let JsonValue::Object(entries) = json else {
        return Err("report must be an object".into());
    };
    let header = JsonValue::Object(
        entries
            .iter()
            .filter(|(key, _)| key != "cases")
            .cloned()
            .collect(),
    );
    let want = Report::header(&quick);
    if header != want {
        return Err(format!(
            "report header {} is not the {} header {}",
            header.to_json(),
            if quick { "quick" } else { "full" },
            want.to_json()
        ));
    }
    check_grid::<Report>(&cases, &Report::grid(&quick))?;
    for c in &cases {
        for (field, rate) in [
            ("steps_per_sec", c.steps_per_sec),
            ("steps_per_sec_telemetry", c.steps_per_sec_telemetry),
        ] {
            if rate <= 0.0 {
                return Err(format!(
                    "case {}: {field} non-positive",
                    point_name(Report::point(c))
                ));
            }
        }
    }
    Ok(cases)
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

    fn case((kind, graph, n): Point) -> CaseResult {
        CaseResult {
            kind,
            graph,
            n,
            steps_per_sec: 2.0e7,
            steps_per_sec_telemetry: 1.9e7,
        }
    }

    /// The emitted JSON round-trips through the offline parser and passes
    /// schema validation (what the CI smoke checks against the real file).
    #[test]
    fn report_schema_round_trips_and_validates() {
        // Hand-built report with the right grid, so the test costs no
        // measurement time.
        let cases = Report::grid(&true)
            .into_iter()
            .map(case)
            .collect::<Vec<_>>();
        let json = Report::assemble(&true, &cases);
        let text = json.to_json();
        let parsed = JsonValue::parse(&text).expect("emitted JSON parses");
        validate_report(&parsed).expect("schema validates");
        assert!(
            Report::markdown(&cases).contains("| ppl | ring | 256 | 20000000 | 19000000 | +5.0% |")
        );
        // A case with a field beyond the five does not validate.
        let mut extra = cases.iter().map(Report::cell_to_json).collect::<Vec<_>>();
        extra[3] = extra[3].clone().with("speedup", 2.0);
        let v1_shaped = Report::header(&true).with("cases", JsonValue::Array(extra));
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

        let cases = Report::grid(&true)
            .into_iter()
            .map(case)
            .collect::<Vec<_>>();
        let with_last = |edit: &dyn Fn(JsonValue) -> JsonValue| {
            let mut stored = cases.iter().map(Report::cell_to_json).collect::<Vec<_>>();
            let last = stored.pop().unwrap();
            stored.push(edit(last));
            Report::header(&true).with("cases", JsonValue::Array(stored))
        };
        let without_telemetry = with_last(&|json| {
            let JsonValue::Object(entries) = json else {
                unreachable!()
            };
            JsonValue::Object(
                entries
                    .into_iter()
                    .filter(|(k, _)| k != "steps_per_sec_telemetry")
                    .collect(),
            )
        });
        let err = validate_report(&without_telemetry).unwrap_err();
        assert!(err.contains("steps_per_sec_telemetry missing"), "{err}");

        let mut slow = cases.clone();
        slow.last_mut().unwrap().steps_per_sec_telemetry = 0.0;
        let err = validate_report(&Report::assemble(&true, &slow)).unwrap_err();
        assert!(
            err.contains("ppl/complete/4096: steps_per_sec_telemetry non-positive"),
            "{err}"
        );

        // `{"quick": true, "budget_secs": 1}` is the full-mode budget.
        let mismatched = JsonValue::object()
            .with("schema", SCHEMA)
            .with("quick", true)
            .with("budget_secs", budget_secs(false))
            .with("samples", SAMPLES)
            .with(
                "cases",
                JsonValue::Array(cases.iter().map(Report::cell_to_json).collect()),
            );
        let err = validate_report(&mismatched).unwrap_err();
        assert!(err.contains("is not the quick header"), "{err}");
        validate_report(&Report::assemble(&true, &cases)).expect("the unedited report validates");
    }

    /// `run_cell` flips the global telemetry flag for its telemetry-on
    /// samples and leaves it as it found it.
    #[test]
    fn run_cell_leaves_the_telemetry_flag_as_it_found_it() {
        let _lock = crate::trace::serialize();
        let runner = BatchRunner::with_threads(1);
        for start in [true, false] {
            ssle_telemetry::set_enabled(start);
            let c = Report::run_cell((ProtocolKind::Ppl, GridGraph::Ring, 16), &true, &runner);
            assert_eq!(ssle_telemetry::enabled(), start);
            assert!(c.steps_per_sec > 0.0 && c.steps_per_sec_telemetry > 0.0);
        }
        ssle_telemetry::set_enabled(false);
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
