//! Recovery-degradation measurement: how much slower is recovery from a
//! transient fault under a **hostile** scheduler than under the uniformly
//! random one?
//!
//! The stabilization report (`stabilization` module) asks how long
//! convergence takes from *adversarial initial configurations*; this module
//! asks the complementary robustness question of Table 1's protocols: start
//! from a **safe** configuration (the end state of a converged fault-free
//! run), break it with a transient fault of known shape and extent — one
//! random agent, a quarter of the ring, a contiguous block, *the current
//! leader* ([`population::FaultKind::CorruptTargets`]), or everyone — and
//! measure the re-convergence time, once under the uniformly random
//! scheduler and once under the **worst-case scheduler certificate** the
//! island search committed for this protocol × graph in
//! `BENCH_stabilization.json`.  The per-fault **degradation ratio**
//! (hostile mean / uniform mean) is the tracked robustness metric: a ratio
//! above 1 shows the certified schedule does not just slow convergence from
//! adversarial inits, it also degrades recovery from *benign* faults.
//!
//! The grid is [`crate::ProtocolKind::ALL`] × [`GridGraph::ALL`] ×
//! [`sizes`], every measurement is deterministic per seed (reports are
//! bit-identical at any thread count), and cells serialize through one
//! [`cell_to_json`] definition whose output the `--resume` cache stores —
//! so resumed reports are byte-identical to plain ones by construction,
//! exactly like the stabilization report.  The
//! `recovery_report` binary is [`Report`], driven by [`crate::tracked`].
//!
//! Cells whose fault-free preparation run does not converge within the
//! budget (ring protocols on the complete graph, by design) are flagged
//! `safe_start: false` and carry no rows: recovery from a safe
//! configuration is undefined where no safe configuration is reached.

use std::sync::OnceLock;

use analysis::json::JsonValue;
use population::{BatchRunner, Configuration, DynState, FaultKind, FaultPlan, SweepPoint};
use ssle_adversary::SchedulerSpec;

use crate::stabilization::{
    self, dyn_protocol, graph_spec_to_json, grid_points, leader_delta_scorer, spec_from_json,
    spec_to_json, stab_budget, stab_scenario, CellResult, GridGraph,
};
use crate::tracked::{
    check_grid, decode_cells, point_name, point_spec, Fields, Point, TrackedReport, MAX_EXACT,
};
use crate::ProtocolKind;

/// Schema tag of `BENCH_recovery.json`.
///
/// **v2** widens the graph axis from the classic ring/complete pair to the
/// full report grid ([`GridGraph::ALL`], adding the generated torus and
/// small-world families) and stamps every cell with its structural
/// `graph_spec` — the exact topology (parameters and seed) the cell ran on,
/// mirroring stabilization-bench/v4.
pub const SCHEMA: &str = "recovery-bench/v2";

/// Grid sizes of the tracked full-mode report.
pub const FULL_SIZES: [usize; 1] = [64];

/// Grid sizes of the `--quick` CI smoke (same grid shape and schema).
pub const QUICK_SIZES: [usize; 1] = [16];

/// The stabilization-certificate size the hostile schedulers are lifted
/// from: every committed worst-case spec at this `n` (one per protocol ×
/// graph) is replayed as this report's hostile scheduler.
pub const CERTIFICATE_SIZE: usize = 64;

/// The committed stabilization artifact the hostile schedulers come from.
const STABILIZATION_ARTIFACT: &str = include_str!(concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/../../BENCH_stabilization.json"
));

/// One fault shape of the recovery grid, parameterized by the population
/// size at [`FaultRow::kind`] time.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultRow {
    /// One uniformly chosen agent.
    RandomOne,
    /// `max(n/4, 1)` uniformly chosen agents.
    RandomQuarter,
    /// The contiguous block `[0, max(n/4, 1))` (ring-adjacent agents).
    BlockQuarter,
    /// The current leader, via the scenario's target predicate
    /// ([`population::FaultKind::CorruptTargets`] with limit 1).
    Leader,
    /// Every agent — recovery from scratch, the arbitrary-initial-
    /// configuration experiment anchored at a safe state.
    All,
}

impl FaultRow {
    /// Every fault row, in report order.
    pub const ALL: [FaultRow; 5] = [
        FaultRow::RandomOne,
        FaultRow::RandomQuarter,
        FaultRow::BlockQuarter,
        FaultRow::Leader,
        FaultRow::All,
    ];

    /// The row's report key.
    pub fn key(self) -> &'static str {
        match self {
            FaultRow::RandomOne => "random-1",
            FaultRow::RandomQuarter => "random-quarter",
            FaultRow::BlockQuarter => "block-quarter",
            FaultRow::Leader => "leader",
            FaultRow::All => "all",
        }
    }

    /// The concrete fault of this row at population size `n`.
    pub fn kind(self, n: usize) -> FaultKind {
        let quarter = (n / 4).max(1);
        match self {
            FaultRow::RandomOne => FaultKind::CorruptRandomAgents { count: 1 },
            FaultRow::RandomQuarter => FaultKind::CorruptRandomAgents { count: quarter },
            FaultRow::BlockQuarter => FaultKind::CorruptBlock {
                start: 0,
                count: quarter,
            },
            FaultRow::Leader => FaultKind::CorruptTargets { limit: 1 },
            FaultRow::All => FaultKind::CorruptAll,
        }
    }

    /// How many agents the row corrupts at size `n` (the leader row counts
    /// its target limit).
    pub fn extent(self, n: usize) -> usize {
        match self {
            FaultRow::RandomOne | FaultRow::Leader => 1,
            FaultRow::RandomQuarter | FaultRow::BlockQuarter => (n / 4).max(1),
            FaultRow::All => n,
        }
    }
}

/// The grid sizes of the given mode.
pub fn sizes(quick: bool) -> Vec<usize> {
    if quick {
        QUICK_SIZES.to_vec()
    } else {
        FULL_SIZES.to_vec()
    }
}

/// Knobs of one report run.  The defaults (via [`RunOptions::new`]) are the
/// tracked-grid settings; tests shrink `sizes` to keep the full pipeline
/// affordable to run twice.
#[derive(Clone, Debug)]
pub struct RunOptions {
    /// `true` for the reduced CI-smoke budgets (same grid shape and schema).
    pub quick: bool,
    /// The population sizes of the grid (default [`sizes`] of the mode).
    pub sizes: Vec<usize>,
    /// Replay trials per (fault row × scheduler).
    pub trials: usize,
    /// Worker threads (`None` = all available parallelism).
    pub threads: Option<usize>,
}

impl RunOptions {
    /// The tracked-grid settings of the given mode.
    pub fn new(quick: bool) -> Self {
        RunOptions {
            quick,
            sizes: sizes(quick),
            trials: if quick { 2 } else { 5 },
            threads: None,
        }
    }
}

/// Recovery-time summary of one trial pool.  Censored (non-converged)
/// trials count the full budget in `mean_steps` and `max_steps`, exactly
/// like the stabilization pool mean, and raise the `censored` flag.
#[derive(Clone, Debug, PartialEq)]
pub struct RecoverySummary {
    /// Mean recovery steps across the pool (censored trials at the budget).
    pub mean_steps: f64,
    /// Worst recovery steps observed (budget if any trial censored).
    pub max_steps: u64,
    /// Fraction of trials that re-converged within the budget.
    pub converged_fraction: f64,
    /// `true` iff any trial hit the budget without re-converging.
    pub censored: bool,
}

/// One fault row of a cell: the uniform-scheduler pool and the hostile
/// pool (when the cell has a hostile certificate).
#[derive(Clone, Debug, PartialEq)]
pub struct RecoveryRow {
    /// The fault shape.
    pub fault: FaultRow,
    /// Recovery under the uniformly random scheduler.
    pub uniform: RecoverySummary,
    /// Recovery under the cell's hostile scheduler, if one was lifted.
    pub hostile: Option<RecoverySummary>,
}

impl RecoveryRow {
    /// `hostile.mean_steps / uniform.mean_steps`, when the hostile pool ran
    /// and the uniform mean is positive (instant uniform recovery leaves
    /// the ratio undefined).
    pub fn degradation(&self) -> Option<f64> {
        let hostile = self.hostile.as_ref()?;
        (self.uniform.mean_steps > 0.0).then(|| hostile.mean_steps / self.uniform.mean_steps)
    }

    /// `true` iff any pool of this row censored.
    pub fn censored(&self) -> bool {
        self.uniform.censored || self.hostile.as_ref().is_some_and(|h| h.censored)
    }
}

/// One measured cell of the recovery grid.
#[derive(Clone, Debug, PartialEq)]
pub struct RecoveryCell {
    /// Protocol.
    pub kind: ProtocolKind,
    /// Interaction graph; the artifact pins its exact topology
    /// ([`GridGraph::spec`]) as `graph_spec`, mirroring the stabilization
    /// grid.
    pub graph: GridGraph,
    /// Population size.
    pub n: usize,
    /// Per-replay step budget ([`stab_budget`] of the cell).
    pub budget: u64,
    /// Replay trials per (fault row × scheduler).
    pub trials: usize,
    /// Seed of the fault-free preparation run.
    pub safe_seed: u64,
    /// `true` iff the preparation run converged to a safe configuration.
    pub safe_start: bool,
    /// Steps of the preparation run (budget if it censored).
    pub safe_steps: u64,
    /// The hostile scheduler lifted from the committed stabilization
    /// certificate of this protocol × graph at [`CERTIFICATE_SIZE`] (`None`
    /// when that certificate's scheduler is the uniformly random one).
    pub hostile_spec: Option<SchedulerSpec>,
    /// The fault rows, in [`FaultRow::ALL`] order (empty when
    /// `safe_start` is `false`).
    pub rows: Vec<RecoveryRow>,
}

/// Runs the fault-free preparation run of one cell under the uniformly
/// random scheduler and returns the **safe configuration** it converged to
/// (`None` if it censored — no safe configuration reached within the
/// budget) together with the steps it took (the budget when censored).
pub fn safe_start(
    kind: ProtocolKind,
    graph: GridGraph,
    n: usize,
    budget: u64,
    seed: u64,
) -> (Option<Configuration<DynState>>, u64) {
    let run = stab_scenario(kind, graph, 0, budget).run_full(&SweepPoint::new(n, seed));
    let steps = run.report.converged_at.unwrap_or(budget);
    let safe = run.report.converged().then(|| run.sim.config().clone());
    (safe, steps)
}

/// Replays recovery once: restarts the cell's scenario from `safe`, fires
/// `fault` at step 0, optionally swaps in a hostile scheduler, and returns
/// `(steps, converged)` censored at the budget.  A greedy spec gets the
/// same leader-delta potential the stabilization grid drives it with; a
/// scheduler error (unreachable for the zoo) counts as censored, exactly
/// like `stabilization::evaluate_with`.
#[allow(clippy::too_many_arguments)]
pub fn replay(
    kind: ProtocolKind,
    graph: GridGraph,
    n: usize,
    budget: u64,
    safe: &Configuration<DynState>,
    fault: FaultKind,
    spec: Option<&SchedulerSpec>,
    seed: u64,
) -> (u64, bool) {
    let mut scenario = stab_scenario(kind, graph, 0, budget)
        .with_initial(safe.clone())
        .with_fault_plan(FaultPlan::new().at(0, fault));
    if let Some(spec) = spec {
        let scorer = matches!(spec, SchedulerSpec::Greedy { .. })
            .then(|| leader_delta_scorer(dyn_protocol(kind, n)));
        scenario = scenario.with_scheduler(spec.family(scorer));
    }
    match scenario.try_run(&SweepPoint::new(n, seed)) {
        Ok(report) => (report.converged_at.unwrap_or(budget), report.converged()),
        Err(_) => (budget, false),
    }
}

/// The hostile scheduler of one protocol × graph: the worst-case scheduler
/// spec of the committed `BENCH_stabilization.json` certificate at
/// [`CERTIFICATE_SIZE`].  `None` when that certificate's scheduler is the
/// uniformly random one (a hostile pool would just re-measure the uniform
/// one) or when the artifact carries no such cell.
///
/// # Panics
///
/// Panics with the validator's error if the committed artifact does not
/// validate: a report lifted from a broken certificate would be wrong
/// without a trace.
pub fn hostile_spec(kind: ProtocolKind, graph: GridGraph) -> Option<SchedulerSpec> {
    static CERTIFICATES: OnceLock<Vec<CellResult>> = OnceLock::new();
    let cells = CERTIFICATES.get_or_init(|| {
        JsonValue::parse(STABILIZATION_ARTIFACT)
            .and_then(|json| stabilization::validate_report(&json))
            .unwrap_or_else(|e| panic!("the committed BENCH_stabilization.json is invalid: {e}"))
    });
    cells
        .iter()
        .find(|c| (c.kind, c.graph, c.n) == (kind, graph, CERTIFICATE_SIZE))
        .map(|c| c.worst.spec.clone())
        .filter(|spec| !spec.is_random())
}

/// The deterministic base seed of one grid cell (a different stream than
/// the stabilization cells').
fn cell_seed(kind: ProtocolKind, graph: GridGraph, n: usize) -> u64 {
    let ki = ProtocolKind::ALL
        .iter()
        .position(|k| *k == kind)
        .unwrap_or(7) as u64;
    let gi = GridGraph::ALL.iter().position(|g| *g == graph).unwrap_or(3) as u64;
    0x7EC0 ^ (ki << 8) ^ (gi << 16) ^ ((n as u64) << 24)
}

/// SplitMix64 finalizer: spreads the packed (cell, row, scheduler, trial)
/// index into a well-separated seed stream.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Folds one trial pool into its summary.
fn summarize(outcomes: &[(u64, bool)]) -> RecoverySummary {
    let trials = outcomes.len().max(1);
    RecoverySummary {
        mean_steps: outcomes.iter().map(|&(s, _)| s as f64).sum::<f64>() / trials as f64,
        max_steps: outcomes.iter().map(|&(s, _)| s).max().unwrap_or(0),
        converged_fraction: outcomes.iter().filter(|&&(_, c)| c).count() as f64 / trials as f64,
        censored: outcomes.iter().any(|&(_, c)| !c),
    }
}

/// Measures one cell: the preparation run, then — per fault row — the
/// uniform trial pool and (when a certificate was lifted) the hostile trial
/// pool, each sharded over the runner.  Every seed derives from the cell
/// and the (row, scheduler, trial) index, never from scheduling order, so
/// cells are bit-identical at any thread count.
pub fn run_cell(
    kind: ProtocolKind,
    graph: GridGraph,
    n: usize,
    options: &RunOptions,
    runner: &BatchRunner,
) -> RecoveryCell {
    let budget = stab_budget(kind, n, options.quick);
    let base = cell_seed(kind, graph, n);
    let safe_seed = mix(base);
    let (safe, safe_steps) = safe_start(kind, graph, n, budget, safe_seed);
    let hostile = hostile_spec(kind, graph);
    let rows = match &safe {
        None => Vec::new(),
        Some(config) => FaultRow::ALL
            .iter()
            .enumerate()
            .map(|(ri, &row)| {
                let pool = |si: usize, spec: Option<&SchedulerSpec>| {
                    let seeds: Vec<u64> = (0..options.trials)
                        .map(|t| {
                            mix(base
                                ^ ((ri as u64 + 1) << 8)
                                ^ ((si as u64) << 16)
                                ^ ((t as u64) << 24))
                        })
                        .collect();
                    let outcomes = runner.run_map(&seeds, |&seed| {
                        replay(kind, graph, n, budget, config, row.kind(n), spec, seed)
                    });
                    summarize(&outcomes)
                };
                RecoveryRow {
                    fault: row,
                    uniform: pool(0, None),
                    hostile: hostile.as_ref().map(|spec| pool(1, Some(spec))),
                }
            })
            .collect(),
    };
    RecoveryCell {
        kind,
        graph,
        n,
        budget,
        trials: options.trials,
        safe_seed,
        safe_start: safe.is_some(),
        safe_steps,
        hostile_spec: hostile,
        rows,
    }
}

fn summary_to_json(s: &RecoverySummary) -> JsonValue {
    JsonValue::object()
        .with("mean_steps", s.mean_steps)
        .with("max_steps", s.max_steps as f64)
        .with("converged_fraction", s.converged_fraction)
        .with("censored", s.censored)
}

/// Serializes one measured cell to its report JSON object — the **single
/// definition** of the cell encoding, from which [`crate::tracked::run`]
/// assembles every report; [`cell_from_json`] is its exact inverse.
/// `graph_spec`, the hostile `scheduler` key and each row's `extent` and
/// `degradation` are derived from the cell.
pub fn cell_to_json(c: &RecoveryCell) -> JsonValue {
    JsonValue::object()
        .with("protocol", c.kind.key())
        .with("graph", c.graph.key())
        .with("graph_spec", graph_spec_to_json(c.graph.spec()))
        .with("n", c.n)
        .with("budget", c.budget as f64)
        .with("trials", c.trials)
        // Seeds are full-width u64s; JSON numbers are f64 and would round
        // values >= 2^53, so they travel as exact decimal strings.
        .with("safe_seed", c.safe_seed.to_string().as_str())
        .with("safe_start", c.safe_start)
        .with("safe_steps", c.safe_steps as f64)
        .with(
            "hostile",
            match &c.hostile_spec {
                None => JsonValue::Null,
                Some(spec) => JsonValue::object()
                    .with("scheduler", spec.key().as_str())
                    .with("spec", spec_to_json(spec)),
            },
        )
        .with(
            "rows",
            JsonValue::Array(
                c.rows
                    .iter()
                    .map(|r| {
                        JsonValue::object()
                            .with("fault", r.fault.key())
                            .with("extent", r.fault.extent(c.n))
                            .with("uniform", summary_to_json(&r.uniform))
                            .with(
                                "hostile",
                                match &r.hostile {
                                    None => JsonValue::Null,
                                    Some(s) => summary_to_json(s),
                                },
                            )
                            .with(
                                "degradation",
                                r.degradation().map_or(JsonValue::Null, JsonValue::Number),
                            )
                    })
                    .collect(),
            ),
        )
}

/// Decodes one cell from its [`cell_to_json`] form, every field exactly
/// ([`Fields`]).  The derived fields are not read: [`decode_cell`] requires
/// the decoded cell to re-encode to the identical JSON.
///
/// [`decode_cell`]: crate::tracked::decode_cell
pub fn cell_from_json(json: &JsonValue) -> Result<RecoveryCell, String> {
    let (cell, (kind, graph, n)) = Fields::open(json, Report::CELL)?;
    let summary = |s: Fields| {
        Ok::<_, String>(RecoverySummary {
            mean_steps: s.float("mean_steps")?,
            max_steps: s.uint("max_steps", MAX_EXACT)?,
            converged_fraction: s.fraction("converged_fraction")?,
            censored: s.bool("censored")?,
        })
    };
    let rows = cell
        .items("rows")?
        .into_iter()
        .map(|row| {
            let fault = row.str("fault")?;
            Ok(RecoveryRow {
                fault: FaultRow::ALL
                    .into_iter()
                    .find(|r| r.key() == fault)
                    .ok_or_else(|| row.err("fault", "names no fault row"))?,
                uniform: summary(row.object("uniform")?)?,
                hostile: row.nullable("hostile")?.map(summary).transpose()?,
            })
        })
        .collect::<Result<_, String>>()?;
    Ok(RecoveryCell {
        kind,
        graph,
        n,
        budget: cell.uint("budget", MAX_EXACT)?,
        trials: cell.size("trials")?,
        safe_seed: cell.u64_string("safe_seed")?,
        safe_start: cell.bool("safe_start")?,
        safe_steps: cell.uint("safe_steps", MAX_EXACT)?,
        hostile_spec: cell
            .nullable("hostile")?
            .map(|hostile| spec_from_json(&hostile.object("spec")?))
            .transpose()?,
        rows,
    })
}

/// The recovery-degradation report (`recovery_report`,
/// `BENCH_recovery.json`) as a [`TrackedReport`].
#[derive(Clone, Copy, Debug)]
pub struct Report;

impl TrackedReport for Report {
    const PRODUCER: &'static str = "recovery_report";
    const TITLE: &'static str = "Recovery degradation";
    const SCHEMA: &'static str = SCHEMA;
    const JOB: &'static str = "recovery-cell";
    const STEM: &'static str = "BENCH_recovery";
    const CELL: &'static str = "cell";
    const THREADS: bool = true;
    const ISLANDS: bool = false;

    type Options = RunOptions;
    type Cell = RecoveryCell;

    fn options(quick: bool, threads: Option<usize>, _islands: Option<u32>) -> RunOptions {
        RunOptions {
            threads,
            ..RunOptions::new(quick)
        }
    }

    fn threads(options: &RunOptions) -> Option<usize> {
        options.threads
    }

    fn grid(options: &RunOptions) -> Vec<Point> {
        grid_points(&options.sizes)
    }

    /// The cell coordinates plus the knobs that are part of the result's
    /// identity (`threads` excluded, so the cache key is
    /// thread-count-invariant).
    fn unit_spec((kind, graph, n): Point, options: &RunOptions) -> JsonValue {
        point_spec::<Self>(kind, graph.key(), n, options.quick).with("trials", options.trials)
    }

    fn run_cell(
        (kind, graph, n): Point,
        options: &RunOptions,
        runner: &BatchRunner,
    ) -> RecoveryCell {
        run_cell(kind, graph, n, options, runner)
    }

    fn point(cell: &RecoveryCell) -> Point {
        (cell.kind, cell.graph, cell.n)
    }

    fn cell_to_json(cell: &RecoveryCell) -> JsonValue {
        cell_to_json(cell)
    }

    fn cell_from_json(json: &JsonValue) -> Result<RecoveryCell, String> {
        cell_from_json(json)
    }

    fn header(options: &RunOptions) -> JsonValue {
        JsonValue::object()
            .with("schema", SCHEMA)
            .with("quick", options.quick)
            .with("trials", options.trials)
            .with(
                "sizes",
                JsonValue::Array(
                    options
                        .sizes
                        .iter()
                        .map(|&n| JsonValue::Number(n as f64))
                        .collect(),
                ),
            )
            .with(
                "fault_rows",
                JsonValue::Array(FaultRow::ALL.iter().map(|r| r.key().into()).collect()),
            )
    }

    fn validate(json: &JsonValue) -> Result<Vec<RecoveryCell>, String> {
        validate_report(json)
    }

    fn summary(options: &RunOptions, cells: usize) -> String {
        format!(
            "{cells} cells; {} trials per (fault x scheduler)",
            options.trials
        )
    }

    /// The largest degradation ratio of the run — the acceptance metric
    /// (the tracked report must exceed 1: the certificate-lifted scheduler
    /// degrades recovery somewhere).
    fn closing_note(cells: &[RecoveryCell]) -> Option<String> {
        let rows = cells.iter().flat_map(|c| &c.rows);
        Some(
            match rows.filter_map(RecoveryRow::degradation).reduce(f64::max) {
                Some(best) => format!("max degradation ratio (hostile/uniform): {best:.3}"),
                None => "note: no cell carries a degradation ratio in this run \
                     (no hostile certificate applied, or uniform recovery was instant)"
                    .to_string(),
            },
        )
    }

    fn markdown(cells: &[RecoveryCell]) -> String {
        let mut out = String::from(
            "| protocol | graph | n | fault | extent | uniform mean | hostile mean \
             | degradation | censored |\n|---|---|---|---|---|---|---|---|---|\n",
        );
        for c in cells {
            if !c.safe_start {
                out.push_str(&format!(
                    "| {} | {} | {} | - | - | - | - | - | no safe configuration |\n",
                    c.kind.key(),
                    c.graph.key(),
                    c.n
                ));
                continue;
            }
            for r in &c.rows {
                let hostile = r
                    .hostile
                    .as_ref()
                    .map(|h| format!("{:.3e}", h.mean_steps))
                    .unwrap_or_else(|| "-".to_string());
                let degradation = r
                    .degradation()
                    .map(|d| format!("{d:.2}x"))
                    .unwrap_or_else(|| "-".to_string());
                let censored = r.censored();
                out.push_str(&format!(
                    "| {} | {} | {} | {} | {} | {:.3e} | {} | {} | {} |\n",
                    c.kind.key(),
                    c.graph.key(),
                    c.n,
                    r.fault.key(),
                    r.fault.extent(c.n),
                    r.uniform.mean_steps,
                    hostile,
                    degradation,
                    censored,
                ));
            }
        }
        out
    }
}

impl RecoverySummary {
    /// The summary invariants: means and maxima within the budget, the
    /// maximum at least the mean, the censoring flag consistent with the
    /// converged fraction.
    fn check(&self, budget: u64, what: &str) -> Result<(), String> {
        let (mean, max, fraction) = (self.mean_steps, self.max_steps, self.converged_fraction);
        if !(0.0..=budget as f64).contains(&mean) {
            return Err(format!("{what}: mean_steps {mean} outside [0, {budget}]"));
        }
        if max > budget || (max as f64) < mean {
            return Err(format!(
                "{what}: max_steps {max} inconsistent with mean {mean}"
            ));
        }
        if self.censored != (fraction < 1.0) {
            return Err(format!(
                "{what}: censored={} contradicts converged_fraction={fraction}",
                self.censored
            ));
        }
        Ok(())
    }
}

/// Validates a parsed `BENCH_recovery.json` against the expected schema
/// and returns its cells: schema tag and exactly decoded cells
/// ([`decode_cells`]), a header with at least one trial and exact sizes,
/// one cell per protocol × graph × declared size in grid order, and per
/// cell the report's trial count, a positive budget holding the
/// preparation run, a non-random hostile spec where there is one, fault
/// rows in [`FaultRow::ALL`] order (absent exactly when `safe_start` is
/// false) with well-formed summaries, and hostile row summaries present
/// iff the cell has a hostile scheduler.  Returns a description of the
/// first violation.
pub fn validate_report(json: &JsonValue) -> Result<Vec<RecoveryCell>, String> {
    let cells = decode_cells::<Report>(json)?;
    let header = Fields::new(json, "report");
    header.bool("quick")?;
    let trials = header.size("trials")?;
    if trials < 1 {
        return Err(format!("trials {trials} below 1"));
    }
    let sizes = header.uints("sizes", MAX_EXACT)?;
    let sizes: Vec<usize> = sizes.into_iter().map(|n| n as usize).collect();
    check_grid::<Report>(&cells, &grid_points(&sizes))?;
    for cell in &cells {
        validate_cell(cell, trials)
            .map_err(|e| format!("cell {}: {e}", point_name(Report::point(cell))))?;
    }
    Ok(cells)
}

/// The per-cell invariants of [`validate_report`].
fn validate_cell(c: &RecoveryCell, trials: usize) -> Result<(), String> {
    if c.budget < 1 {
        return Err(format!("budget {} below 1", c.budget));
    }
    if c.trials != trials {
        return Err("cell trials disagree with the report".to_string());
    }
    if c.safe_steps > c.budget {
        return Err(format!("safe_steps {} outside the budget", c.safe_steps));
    }
    if c.hostile_spec
        .as_ref()
        .is_some_and(SchedulerSpec::is_random)
    {
        return Err("a random hostile scheduler is degenerate".to_string());
    }
    // The fault rows, in order — or none where no safe configuration was
    // reached.
    let expected: &[FaultRow] = if c.safe_start { &FaultRow::ALL } else { &[] };
    if !c.rows.iter().map(|r| r.fault).eq(expected.iter().copied()) {
        return Err(format!(
            "fault rows must be {:?} when safe_start={}",
            expected.iter().map(|r| r.key()).collect::<Vec<_>>(),
            c.safe_start
        ));
    }
    for row in &c.rows {
        let name = row.fault.key();
        row.uniform.check(c.budget, &format!("{name}/uniform"))?;
        match &row.hostile {
            Some(hostile) if c.hostile_spec.is_some() => {
                hostile.check(c.budget, &format!("{name}/hostile"))?;
            }
            None if c.hostile_spec.is_none() => {}
            _ => {
                return Err(format!(
                    "{name}: hostile summary must be present iff the cell has a \
                     hostile scheduler"
                ))
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tracked::run;

    fn tiny_options(threads: usize) -> RunOptions {
        RunOptions {
            quick: true,
            sizes: vec![8],
            trials: 2,
            threads: Some(threads),
        }
    }

    /// The tracked artifact's acceptance pin: the committed full-mode
    /// `BENCH_recovery.json` validates, degrades somewhere (ratio > 1 under
    /// a certificate-lifted scheduler), and its first degraded cell is
    /// reproduced **byte-identically** by re-running that cell — the replay
    /// contract of the recovery report.
    #[test]
    fn tracked_report_replays_a_degraded_cell_bit_exactly() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_recovery.json");
        let text = std::fs::read_to_string(path).expect("tracked report exists");
        let parsed = JsonValue::parse(&text).expect("tracked report parses");
        let cells = validate_report(&parsed).expect("tracked report validates");
        assert_eq!(
            parsed.get("quick").and_then(JsonValue::as_bool),
            Some(false),
            "the tracked report is the full-mode run"
        );
        let note = Report::closing_note(&cells).unwrap();
        let best: f64 = note.rsplit(' ').next().unwrap().parse().expect("a ratio");
        assert!(
            best > 1.0,
            "at least one cell must show hostile degradation, best ratio {best}"
        );
        let degraded = cells
            .iter()
            .find(|c| c.rows.iter().any(|r| r.degradation() > Some(1.0)))
            .expect("a degraded cell exists");
        let (kind, graph, n) = Report::point(degraded);
        let options = RunOptions {
            quick: false,
            sizes: vec![n],
            trials: degraded.trials,
            threads: None,
        };
        let runner = BatchRunner::new();
        let cell = run_cell(kind, graph, n, &options, &runner);
        assert_eq!(
            cell,
            *degraded,
            "{}: replayed cell differs from the tracked artifact",
            point_name((kind, graph, n))
        );
    }

    #[test]
    fn hostile_specs_lift_from_the_committed_certificates() {
        // The committed stabilization report certifies non-random worst
        // cases on the ring for every protocol, so every ring cell of the
        // recovery grid must inherit a hostile scheduler.
        for kind in ProtocolKind::ALL {
            let spec = hostile_spec(kind, GridGraph::Ring);
            assert!(
                spec.is_some(),
                "{}: no hostile certificate lifted for the ring",
                kind.key()
            );
            assert!(!spec.unwrap().is_random());
        }
    }

    #[test]
    fn leader_row_targets_exactly_the_current_leader() {
        // A converged Yokota ring has one leader; the leader row's fault
        // must knock the run out of the safe set at step 0 (re-convergence
        // from a leaderless-or-perturbed state takes at least one step).
        let kind = ProtocolKind::Yokota;
        let graph = GridGraph::Ring;
        let n = 8;
        let budget = stab_budget(kind, n, true);
        let (safe, _) = safe_start(kind, graph, n, budget, 0x11);
        let safe = safe.expect("tiny ring cell converges");
        let (steps, _) = replay(
            kind,
            graph,
            n,
            budget,
            &safe,
            FaultRow::Leader.kind(n),
            None,
            0x22,
        );
        assert!(
            steps > 0,
            "corrupting the leader must break safety at step 0"
        );
        // An untouched replay from the safe configuration is already safe.
        let clean = stab_scenario(kind, graph, 0, budget)
            .with_initial(safe)
            .run(&SweepPoint::new(n, 0x22));
        assert_eq!(clean.converged_at, Some(0));
    }

    #[test]
    fn cells_are_deterministic_and_reports_thread_invariant() {
        let kind = ProtocolKind::Yokota;
        let graph = GridGraph::Ring;
        let options = tiny_options(1);
        let runner = BatchRunner::with_threads(1);
        let a = run_cell(kind, graph, 8, &options, &runner);
        let b = run_cell(kind, graph, 8, &options, &runner);
        assert_eq!(a, b, "cells must be deterministic");
        assert!(a.safe_start, "tiny ring cell reaches a safe configuration");
        assert_eq!(a.rows.len(), FaultRow::ALL.len());
        assert!(a.hostile_spec.is_some(), "ring cells lift a certificate");

        let serial = run::<Report>(&tiny_options(1), None)
            .unwrap()
            .json
            .to_json();
        let parallel = run::<Report>(&tiny_options(4), None)
            .unwrap()
            .json
            .to_json();
        assert_eq!(serial, parallel, "--threads must never change the report");
        let parsed = JsonValue::parse(&serial).unwrap();
        validate_report(&parsed).expect("tiny report validates");
    }

    #[test]
    fn validator_rejects_inconsistent_reports() {
        let options = tiny_options(1);
        let runner = BatchRunner::with_threads(1);
        let cell = run_cell(ProtocolKind::Yokota, GridGraph::Ring, 8, &options, &runner);
        let report = Report::assemble(&options, &[cell]);
        // One cell cannot satisfy the full grid enumeration.
        let err = validate_report(&report).unwrap_err();
        assert!(err.contains("cells"), "{err}");

        // A full tiny report validates; corrupting it is caught.
        let json = run::<Report>(&options, None).unwrap().json;
        validate_report(&json).expect("tiny report validates");
        let text = json.to_json();
        let broken = text.replacen("\"censored\":false", "\"censored\":true", 1);
        if broken != text {
            let parsed = JsonValue::parse(&broken).unwrap();
            assert!(validate_report(&parsed).is_err());
        }
        let broken = text.replacen("recovery-bench/v2", "recovery-bench/v0", 1);
        let parsed = JsonValue::parse(&broken).unwrap();
        assert!(validate_report(&parsed).unwrap_err().contains("schema"));
        // Integers are exact: a fractional size or trial count in the
        // committed report would otherwise truncate onto the declared grid.
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_recovery.json");
        let committed = std::fs::read_to_string(path).expect("tracked report exists");
        for (from, to, field) in [
            ("\"sizes\":[64]", "\"sizes\":[64.9]", "sizes"),
            ("\"trials\":5,", "\"trials\":5.5,", "trials"),
        ] {
            let broken = committed.replace(from, to);
            assert_ne!(broken, committed, "{from} is in the report");
            let parsed = JsonValue::parse(&broken).unwrap();
            let err = validate_report(&parsed).unwrap_err();
            assert!(err.contains(field), "{err}");
        }
    }
}
