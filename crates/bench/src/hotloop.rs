//! Hot-loop throughput measurement with a tracked baseline.
//!
//! Everything in this workspace runs through the erased
//! `Simulation<DynProtocol, AnyGraph>` path, so its raw steps/second is the
//! throughput ceiling of the whole reproduction.  This module measures it —
//! for the four Table 1 protocols, on the directed ring and the complete
//! graph, at `n ∈ {256, 4096}` — in three erased representations:
//!
//! * `inline` — the production path: [`population::slot::DynState`] inline
//!   slots, one contiguous buffer;
//! * `boxed` — the pre-inline baseline preserved in
//!   [`crate::baseline_boxed`] (one heap box per agent state), measured
//!   under an **aged heap** that reproduces sweep-steady-state
//!   fragmentation ([`aged_boxed_config`]);
//! * `boxed-compact` — the same baseline on a pristine heap (boxes
//!   allocated back to back), its best case.  Both boxed numbers are
//!   recorded so the report carries the baseline's realistic range rather
//!   than only its degraded end.
//!
//! The `hotloop_report` binary ([`Report`], driven by [`crate::tracked`])
//! writes the results to `BENCH_hotloop.json` at the repository root so
//! that later changes have a perf trajectory to compare against;
//! `benches/hotloop.rs` exposes the same grid to
//! `cargo bench`.  CI runs the binary in `--quick` mode and validates the
//! emitted JSON against [`validate_report`] — a schema smoke, deliberately
//! not a flaky threshold gate.

use std::time::Instant;

use analysis::json::JsonValue;
use population::{
    BatchRunner, Configuration, DynProtocol, DynState, GraphFamily, InteractionGraph,
    LeaderElection, Protocol, Simulation,
};
use ssle_fabric::WorkError;

use crate::baseline_boxed::{BoxedProtocol, BoxedState};
use crate::tracked::{point_spec, Spec, TrackedReport};
use crate::{ProtocolKind, Table1Visitor};

/// Schema identifier of `BENCH_hotloop.json`.
pub const SCHEMA: &str = "hotloop-bench/v1";

/// The population sizes of the measurement grid.
pub const SIZES: [usize; 2] = [256, 4096];

/// The interaction graphs of the measurement grid.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum HotloopGraph {
    /// The paper's directed ring.
    Ring,
    /// The complete interaction graph.
    Complete,
}

impl HotloopGraph {
    /// Both graphs, in report order.
    pub const ALL: [HotloopGraph; 2] = [HotloopGraph::Ring, HotloopGraph::Complete];

    /// The key used in the JSON report.
    pub fn key(&self) -> &'static str {
        match self {
            HotloopGraph::Ring => "ring",
            HotloopGraph::Complete => "complete",
        }
    }

    /// The corresponding scenario-layer graph family.
    pub fn family(&self) -> GraphFamily {
        match self {
            HotloopGraph::Ring => GraphFamily::DirectedRing,
            HotloopGraph::Complete => GraphFamily::Complete,
        }
    }
}

/// Which erased-state representation a measurement runs on.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Repr {
    /// Inline slots (the production path).
    Inline,
    /// One heap box per agent (the pre-inline baseline), measured under an
    /// aged heap that reproduces sweep-steady-state fragmentation
    /// ([`aged_boxed_config`]).
    Boxed,
    /// The boxed baseline on a pristine, compact heap (all boxes allocated
    /// back to back) — the friendliest layout the pre-inline path could
    /// ever see.  Recorded alongside [`Repr::Boxed`] so the report carries
    /// both ends of the baseline's realistic range instead of only the
    /// degraded one.
    BoxedCompact,
}

/// The measured throughput of one case of the grid.
#[derive(Clone, Debug)]
pub struct CaseResult {
    /// Protocol key ([`ProtocolKind::key`]).
    pub protocol: &'static str,
    /// Graph key ([`HotloopGraph::key`]).
    pub graph: &'static str,
    /// Population size.
    pub n: usize,
    /// Erased-path throughput with inline slots, in steps/second.
    pub steps_per_sec: f64,
    /// Erased-path throughput with the boxed baseline under an aged
    /// (fragmented) heap, in steps/second.
    pub steps_per_sec_boxed: f64,
    /// Erased-path throughput with the boxed baseline on a pristine compact
    /// heap, in steps/second (the baseline's best case).
    pub steps_per_sec_boxed_compact: f64,
}

impl CaseResult {
    /// Inline speedup over the aged-heap boxed baseline.
    pub fn speedup(&self) -> f64 {
        self.steps_per_sec / self.steps_per_sec_boxed.max(f64::MIN_POSITIVE)
    }

    /// Inline speedup over the compact-heap boxed baseline.
    pub fn speedup_compact(&self) -> f64 {
        self.steps_per_sec / self.steps_per_sec_boxed_compact.max(f64::MIN_POSITIVE)
    }
}

/// Builds the timed erased simulation of one case and measures steps/second
/// over (at least) `budget_secs` of wall clock.
///
/// The protocol and initial configuration are exactly those of the Table 1
/// scenarios (uniformly random states from `seed`), so the measured loop is
/// the one the figure binaries actually run.
pub fn measure(
    kind: ProtocolKind,
    graph: HotloopGraph,
    n: usize,
    repr: Repr,
    budget_secs: f64,
) -> f64 {
    let seed = 0xB0B0 ^ n as u64;
    kind.with_table1_setup(
        n,
        seed,
        MeasureVisitor {
            graph,
            n,
            repr,
            budget_secs,
            seed,
        },
    )
}

/// [`Table1Visitor`] that erases the typed setup into the requested
/// representation and times the scheduler loop.
struct MeasureVisitor {
    graph: HotloopGraph,
    n: usize,
    repr: Repr,
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
        let any_graph = self
            .graph
            .family()
            .build(self.n)
            .expect("hot-loop sizes are all >= 2");
        let states = config.into_states();
        match self.repr {
            Repr::Inline => {
                let config: Configuration<DynState> =
                    states.into_iter().map(DynState::new).collect();
                time_steps(
                    Simulation::new(DynProtocol::erase(protocol), any_graph, config, self.seed),
                    self.budget_secs,
                )
            }
            Repr::Boxed => {
                let config = aged_boxed_config(states);
                time_steps(
                    Simulation::new(BoxedProtocol::erase(protocol), any_graph, config, self.seed),
                    self.budget_secs,
                )
            }
            Repr::BoxedCompact => {
                let config: Configuration<BoxedState> =
                    states.into_iter().map(BoxedState::new).collect();
                time_steps(
                    Simulation::new(BoxedProtocol::erase(protocol), any_graph, config, self.seed),
                    self.budget_secs,
                )
            }
        }
    }
}

/// How many short-lived decoy allocations are interleaved per agent box when
/// building the boxed baseline configuration (see [`aged_boxed_config`]).
pub const HEAP_AGING_FACTOR: usize = 255;

/// Builds a boxed configuration under an **aged heap**.
///
/// A microbenchmark that allocates `n` boxes back to back gets them laid out
/// contiguously by the allocator — a layout the pre-inline production path
/// never saw: in a `BatchRunner` sweep, thousands of trials allocate and
/// free their per-agent boxes interleaved across worker threads, so by
/// steady state each configuration's boxes are scattered across a heap many
/// times its own size.  Measuring the boxed baseline on a pristine heap
/// would therefore *understate* the cost the inline slots were built to
/// remove (inline storage is immune to fragmentation by construction — the
/// states live in the configuration's own buffer).
///
/// This helper reproduces the steady state deterministically: every real
/// agent box is interleaved with [`HEAP_AGING_FACTOR`] same-sized decoy
/// allocations which are freed once the configuration is complete, leaving
/// the surviving boxes strided across a span of roughly
/// `(HEAP_AGING_FACTOR + 1) × n` box-sized chunks.
pub fn aged_boxed_config<S>(states: Vec<S>) -> Configuration<BoxedState>
where
    S: Clone + PartialEq + std::fmt::Debug + Send + Sync + 'static,
{
    let mut decoys: Vec<BoxedState> = Vec::with_capacity(states.len() * HEAP_AGING_FACTOR);
    let config: Configuration<BoxedState> = states
        .into_iter()
        .map(|s| {
            for _ in 0..HEAP_AGING_FACTOR {
                decoys.push(BoxedState::new(s.clone()));
            }
            BoxedState::new(s)
        })
        .collect();
    drop(decoys);
    config
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
    type Point = (ProtocolKind, HotloopGraph, usize);
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
                HotloopGraph::ALL
                    .into_iter()
                    .flat_map(move |graph| SIZES.map(move |n| (kind, graph, n)))
            })
            .collect()
    }

    fn unit_spec((kind, graph, n): Self::Point, &quick: &bool) -> JsonValue {
        point_spec::<Self>(kind, graph.key(), n, quick)
    }

    fn from_spec(spec: Spec<'_>, _threads: usize) -> Result<(Self::Point, bool), WorkError> {
        let graph_from_key = |key: &str| HotloopGraph::ALL.into_iter().find(|g| g.key() == key);
        Ok((spec.point(graph_from_key)?, spec.flag("quick")?))
    }

    /// Measures one case: `quick` takes a single short sample (CI smoke);
    /// full mode reports the median of three samples per representation to
    /// damp scheduler noise.
    fn run_cell((kind, graph, n): Self::Point, &quick: &bool, _runner: &BatchRunner) -> CaseResult {
        let budget = budget_secs(quick);
        let samples = if quick { 1 } else { 3 };
        let median = |repr: Repr| {
            let mut rates: Vec<f64> = (0..samples)
                .map(|_| measure(kind, graph, n, repr, budget))
                .collect();
            rates.sort_by(f64::total_cmp);
            rates[rates.len() / 2]
        };
        CaseResult {
            protocol: kind.key(),
            graph: graph.key(),
            n,
            steps_per_sec: median(Repr::Inline),
            steps_per_sec_boxed: median(Repr::Boxed),
            steps_per_sec_boxed_compact: median(Repr::BoxedCompact),
        }
    }

    fn cell_to_json(c: &CaseResult) -> JsonValue {
        JsonValue::object()
            .with("protocol", c.protocol)
            .with("graph", c.graph)
            .with("n", c.n)
            .with("steps_per_sec", c.steps_per_sec)
            .with("steps_per_sec_boxed", c.steps_per_sec_boxed)
            .with("steps_per_sec_boxed_compact", c.steps_per_sec_boxed_compact)
            .with("speedup", c.speedup())
            .with("speedup_compact", c.speedup_compact())
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

    /// The markdown table (`boxed` is the aged-heap baseline,
    /// `boxed-compact` the pristine-heap one).
    fn markdown(cases: &[CaseResult]) -> String {
        let mut out = String::from(
            "| protocol | graph | n | inline steps/s | boxed steps/s | boxed-compact steps/s \
             | speedup | speedup-compact |\n\
             |---|---|---:|---:|---:|---:|---:|---:|\n",
        );
        for c in cases {
            out.push_str(&format!(
                "| {} | {} | {} | {:.0} | {:.0} | {:.0} | {:.2}x | {:.2}x |\n",
                c.protocol,
                c.graph,
                c.n,
                c.steps_per_sec,
                c.steps_per_sec_boxed,
                c.steps_per_sec_boxed_compact,
                c.speedup(),
                c.speedup_compact()
            ));
        }
        out
    }
}

/// Validates a parsed `BENCH_hotloop.json` against the expected schema:
/// schema tag, and one positive-throughput case per protocol × graph × size
/// of the grid.  Returns a description of the first violation.
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
    let expected = ProtocolKind::ALL.len() * HotloopGraph::ALL.len() * SIZES.len();
    if cases.len() != expected {
        return Err(format!("expected {expected} cases, found {}", cases.len()));
    }
    for kind in ProtocolKind::ALL {
        for graph in HotloopGraph::ALL {
            for n in SIZES {
                let case = cases
                    .iter()
                    .find(|c| {
                        c.get("protocol").and_then(JsonValue::as_str) == Some(kind.key())
                            && c.get("graph").and_then(JsonValue::as_str) == Some(graph.key())
                            && c.get("n").and_then(JsonValue::as_f64) == Some(n as f64)
                    })
                    .ok_or_else(|| format!("case {}/{}/{n} missing", kind.key(), graph.key()))?;
                for field in [
                    "steps_per_sec",
                    "steps_per_sec_boxed",
                    "steps_per_sec_boxed_compact",
                    "speedup",
                    "speedup_compact",
                ] {
                    if case
                        .get(field)
                        .and_then(JsonValue::as_f64)
                        .is_none_or(|v| v <= 0.0)
                    {
                        return Err(format!(
                            "case {}/{}/{n}: {field} missing or non-positive",
                            kind.key(),
                            graph.key()
                        ));
                    }
                }
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A tiny end-to-end of one case: measurement produces finite positive
    /// throughput in both representations.
    #[test]
    fn measurement_produces_positive_throughput() {
        for repr in [Repr::Inline, Repr::Boxed, Repr::BoxedCompact] {
            let rate = measure(ProtocolKind::Ppl, HotloopGraph::Ring, 16, repr, 1e-3);
            assert!(rate.is_finite() && rate > 0.0, "{repr:?}: {rate}");
        }
    }

    /// The emitted JSON round-trips through the offline parser and passes
    /// schema validation (what the CI smoke checks against the real file).
    #[test]
    fn report_schema_round_trips_and_validates() {
        // Hand-built report with the right grid, so the test costs no
        // measurement time.
        let cases = ProtocolKind::ALL
            .iter()
            .flat_map(|kind| {
                HotloopGraph::ALL.iter().flat_map(move |graph| {
                    SIZES.map(move |n| CaseResult {
                        protocol: kind.key(),
                        graph: graph.key(),
                        n,
                        steps_per_sec: 2.0e7,
                        steps_per_sec_boxed: 1.0e7,
                        steps_per_sec_boxed_compact: 1.6e7,
                    })
                })
            })
            .collect::<Vec<_>>();
        let json = Report::assemble(&true, cases.iter().map(Report::cell_to_json).collect());
        let text = json.to_json();
        let parsed = analysis::json::JsonValue::parse(&text).expect("emitted JSON parses");
        validate_report(&parsed).expect("schema validates");
        assert!(Report::markdown(&cases).contains("| ppl | ring | 256 |"));
        assert!((cases[0].speedup() - 2.0).abs() < 1e-12);
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
}
