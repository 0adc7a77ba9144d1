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
use population::{
    BatchRunner, Configuration, DynState, FaultKind, FaultPlan, LeaderElection, Scenario,
    SweepPoint,
};
use ssle_adversary::{GraphSpec, SchedulerSpec};
use ssle_baselines::{AngluinModK, FischerJiang, FjState, ModKState, YokotaLinear, YokotaState};
use ssle_core::{InitialCondition, Params, Ppl, PplState};

use crate::stabilization::{
    dyn_protocol, graph_spec_from_json, graph_spec_to_json, leader_delta_scorer, spec_from_json,
    spec_to_json,
};
use crate::stabilization::{grid_points, stab_budget, GridGraph, SCHEMA as STABILIZATION_SCHEMA};
use crate::tracked::{point_spec, TrackedReport};
use crate::{
    angluin_builder, fischer_jiang_builder, ppl_builder, ppl_builder_with_params, yokota_builder,
    ProtocolKind,
};

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

/// One fault row of a cell: the uniform-scheduler pool, the hostile pool
/// (when the cell has a hostile certificate) and their degradation ratio.
#[derive(Clone, Debug, PartialEq)]
pub struct RecoveryRow {
    /// The fault shape ([`FaultRow::key`]).
    pub fault: &'static str,
    /// Agents corrupted ([`FaultRow::extent`]).
    pub extent: usize,
    /// Recovery under the uniformly random scheduler.
    pub uniform: RecoverySummary,
    /// Recovery under the cell's hostile scheduler, if one was lifted.
    pub hostile: Option<RecoverySummary>,
    /// `hostile.mean_steps / uniform.mean_steps`, when the hostile pool ran
    /// and the uniform mean is positive (instant uniform recovery leaves
    /// the ratio undefined).
    pub degradation: Option<f64>,
}

/// One measured cell of the recovery grid.
#[derive(Clone, Debug, PartialEq)]
pub struct RecoveryCell {
    /// Protocol report key.
    pub protocol: &'static str,
    /// Graph report key.
    pub graph: &'static str,
    /// Structural spec of the cell's topology (family parameters and seed),
    /// mirroring the stabilization grid's per-cell `graph_spec`.
    pub graph_spec: GraphSpec,
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

/// The recovery scenario of one protocol × graph: the Table 1 stop criteria
/// and check cadence (via the same unit builders every figure binary uses),
/// built **hostile-ready** — a protocol-appropriate uniform corruption
/// function *and* a leader target predicate, so plans carrying
/// [`FaultKind::CorruptTargets`] events corrupt the current leader.
pub fn recovery_scenario(kind: ProtocolKind, graph: GridGraph, budget: u64) -> Scenario {
    let budget_fn = move |_pt: &SweepPoint| budget;
    match kind {
        ProtocolKind::Ppl => ppl_builder(InitialCondition::ALL[0])
            .graph(graph.family())
            .step_budget(budget_fn)
            .corruption(|p: &Ppl, rng, _i| PplState::sample_uniform(rng, p.params()))
            .fault_targets(|p: &Ppl, s, _i| p.is_leader(s))
            .build(),
        ProtocolKind::PplPaperConstants => {
            ppl_builder_with_params(|pt| Params::paper_constants(pt.n), InitialCondition::ALL[0])
                .graph(graph.family())
                .step_budget(budget_fn)
                .corruption(|p: &Ppl, rng, _i| PplState::sample_uniform(rng, p.params()))
                .fault_targets(|p: &Ppl, s, _i| p.is_leader(s))
                .build()
        }
        ProtocolKind::Yokota => yokota_builder()
            .graph(graph.family())
            .step_budget(budget_fn)
            .corruption(|p: &YokotaLinear, rng, _i| YokotaState::sample_uniform(rng, p.cap()))
            .fault_targets(|p: &YokotaLinear, s, _i| p.is_leader(s))
            .build(),
        ProtocolKind::FischerJiang => fischer_jiang_builder()
            .graph(graph.family())
            .step_budget(budget_fn)
            .corruption(|_p: &FischerJiang, rng, _i| FjState::sample_uniform(rng))
            .fault_targets(|p: &FischerJiang, s, _i| p.is_leader(s))
            .build(),
        ProtocolKind::AngluinModK => angluin_builder()
            .graph(graph.family())
            .step_budget(budget_fn)
            .corruption(|p: &AngluinModK, rng, _i| ModKState::sample_uniform(rng, p.k()))
            .fault_targets(|p: &AngluinModK, s, _i| p.is_leader(s))
            .build(),
    }
    .expect("complete scenario")
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
    let run = recovery_scenario(kind, graph, budget).run_full(&SweepPoint::new(n, seed));
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
    let mut scenario = recovery_scenario(kind, graph, budget)
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
pub fn hostile_spec(kind: ProtocolKind, graph: GridGraph) -> Option<SchedulerSpec> {
    static HOSTILE: OnceLock<Vec<(String, String, SchedulerSpec)>> = OnceLock::new();
    let table = HOSTILE.get_or_init(|| {
        let Ok(parsed) = JsonValue::parse(STABILIZATION_ARTIFACT) else {
            return Vec::new();
        };
        if parsed.get("schema").and_then(JsonValue::as_str) != Some(STABILIZATION_SCHEMA) {
            return Vec::new();
        }
        let Some(cells) = parsed.get("cells").and_then(JsonValue::as_array) else {
            return Vec::new();
        };
        cells
            .iter()
            .filter_map(|cell| {
                let n = cell.get("n").and_then(JsonValue::as_f64)?;
                if n as usize != CERTIFICATE_SIZE {
                    return None;
                }
                let protocol = cell
                    .get("protocol")
                    .and_then(JsonValue::as_str)?
                    .to_string();
                let graph = cell.get("graph").and_then(JsonValue::as_str)?.to_string();
                let spec = spec_from_json(cell.get("worst")?.get("spec")?)?;
                (!spec.is_random()).then_some((protocol, graph, spec))
            })
            .collect()
    });
    table
        .iter()
        .find(|(p, g, _)| p == kind.key() && g == graph.key())
        .map(|(_, _, s)| s.clone())
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
                let uniform = pool(0, None);
                let hostile = hostile.as_ref().map(|spec| pool(1, Some(spec)));
                let degradation = hostile.as_ref().and_then(|h| {
                    (uniform.mean_steps > 0.0).then(|| h.mean_steps / uniform.mean_steps)
                });
                RecoveryRow {
                    fault: row.key(),
                    extent: row.extent(n),
                    uniform,
                    hostile,
                    degradation,
                }
            })
            .collect(),
    };
    RecoveryCell {
        protocol: kind.key(),
        graph: graph.key(),
        graph_spec: graph.spec(),
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
/// definition** of the cell encoding, called by [`crate::tracked::run`]
/// for every measured cell, cached or not, so `--resume` reports are
/// byte-identical by construction.
pub fn cell_to_json(c: &RecoveryCell) -> JsonValue {
    JsonValue::object()
        .with("protocol", c.protocol)
        .with("graph", c.graph)
        .with("graph_spec", graph_spec_to_json(c.graph_spec))
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
                            .with("fault", r.fault)
                            .with("extent", r.extent)
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
                                match r.degradation {
                                    None => JsonValue::Null,
                                    Some(d) => JsonValue::Number(d),
                                },
                            )
                    })
                    .collect(),
            ),
        )
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
    const THREADS: bool = true;
    const ISLANDS: bool = false;

    type Options = RunOptions;
    type Point = (ProtocolKind, GridGraph, usize);
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

    fn grid(options: &RunOptions) -> Vec<Self::Point> {
        grid_points(&options.sizes)
    }

    /// The cell coordinates plus the knobs that are part of the result's
    /// identity (`threads` excluded, so the cache key is
    /// thread-count-invariant).
    fn unit_spec((kind, graph, n): Self::Point, options: &RunOptions) -> JsonValue {
        point_spec::<Self>(kind, graph.key(), n, options.quick).with("trials", options.trials)
    }

    fn run_cell(
        (kind, graph, n): Self::Point,
        options: &RunOptions,
        runner: &BatchRunner,
    ) -> RecoveryCell {
        run_cell(kind, graph, n, options, runner)
    }

    fn cell_to_json(cell: &RecoveryCell) -> JsonValue {
        cell_to_json(cell)
    }

    fn assemble(options: &RunOptions, cells: Vec<JsonValue>) -> JsonValue {
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
            .with("cells", JsonValue::Array(cells))
    }

    fn validate(json: &JsonValue) -> Result<(), String> {
        validate_report(json)
    }

    fn summary(options: &RunOptions, cells: usize) -> String {
        format!(
            "{cells} cells; {} trials per (fault x scheduler)",
            options.trials
        )
    }

    fn closing_note(json: &JsonValue) -> Option<String> {
        Some(match max_degradation(json) {
            Some(best) => format!("max degradation ratio (hostile/uniform): {best:.3}"),
            None => "note: no cell carries a degradation ratio in this run \
                     (no hostile certificate applied, or uniform recovery was instant)"
                .to_string(),
        })
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
                    c.protocol, c.graph, c.n
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
                    .degradation
                    .map(|d| format!("{d:.2}x"))
                    .unwrap_or_else(|| "-".to_string());
                let censored = r.censored();
                out.push_str(&format!(
                    "| {} | {} | {} | {} | {} | {:.3e} | {} | {} | {} |\n",
                    c.protocol,
                    c.graph,
                    c.n,
                    r.fault,
                    r.extent,
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

impl RecoveryRow {
    /// `true` iff any pool of this row censored.
    pub fn censored(&self) -> bool {
        self.uniform.censored || self.hostile.as_ref().is_some_and(|h| h.censored)
    }
}

fn check_summary(s: &JsonValue, budget: f64, what: &str) -> Result<(), String> {
    let mean = s
        .get("mean_steps")
        .and_then(JsonValue::as_f64)
        .ok_or_else(|| format!("{what}: mean_steps missing"))?;
    let max = s
        .get("max_steps")
        .and_then(JsonValue::as_f64)
        .ok_or_else(|| format!("{what}: max_steps missing"))?;
    let fraction = s
        .get("converged_fraction")
        .and_then(JsonValue::as_f64)
        .ok_or_else(|| format!("{what}: converged_fraction missing"))?;
    let censored = s
        .get("censored")
        .and_then(JsonValue::as_bool)
        .ok_or_else(|| format!("{what}: censored missing"))?;
    if !(0.0..=budget).contains(&mean) {
        return Err(format!("{what}: mean_steps {mean} outside [0, {budget}]"));
    }
    if !(0.0..=budget).contains(&max) || max < mean {
        return Err(format!(
            "{what}: max_steps {max} inconsistent with mean {mean}"
        ));
    }
    if !(0.0..=1.0).contains(&fraction) {
        return Err(format!(
            "{what}: converged_fraction {fraction} outside [0, 1]"
        ));
    }
    if censored != (fraction < 1.0) {
        return Err(format!(
            "{what}: censored={censored} contradicts converged_fraction={fraction}"
        ));
    }
    Ok(())
}

/// Validates a parsed `BENCH_recovery.json` against the expected schema:
/// schema tag, one cell per protocol × graph × size in grid order, fault
/// rows in [`FaultRow::ALL`] order (absent exactly when `safe_start` is
/// false), well-formed summaries (means and maxima within the budget,
/// fractions in `[0, 1]`, the censoring flag consistent with the converged
/// fraction), a parseable non-random hostile spec wherever `hostile` is
/// non-null, hostile row summaries present iff the cell has one, and the
/// degradation ratio present (and consistent with the two means) exactly
/// where it is defined.  Returns a description of the first violation.
pub fn validate_report(json: &JsonValue) -> Result<(), String> {
    if json.get("schema").and_then(JsonValue::as_str) != Some(SCHEMA) {
        return Err(format!("missing or wrong schema tag (want {SCHEMA:?})"));
    }
    json.get("quick")
        .and_then(JsonValue::as_bool)
        .ok_or("quick missing")?;
    let trials = json
        .get("trials")
        .and_then(JsonValue::as_f64)
        .ok_or("trials missing")?;
    if trials < 1.0 {
        return Err(format!("trials {trials} below 1"));
    }
    let sizes: Vec<usize> = json
        .get("sizes")
        .and_then(JsonValue::as_array)
        .ok_or("sizes missing")?
        .iter()
        .map(|v| v.as_f64().map(|x| x as usize))
        .collect::<Option<_>>()
        .ok_or("sizes must be numbers")?;
    let expected = grid_points(&sizes);
    let cells = json
        .get("cells")
        .and_then(JsonValue::as_array)
        .ok_or("cells missing")?;
    if cells.len() != expected.len() {
        return Err(format!(
            "expected {} cells for the declared sizes, found {}",
            expected.len(),
            cells.len()
        ));
    }
    for (cell, (kind, graph, n)) in cells.iter().zip(expected) {
        let name = format!("{}/{}/{n}", kind.key(), graph.key());
        if cell.get("protocol").and_then(JsonValue::as_str) != Some(kind.key())
            || cell.get("graph").and_then(JsonValue::as_str) != Some(graph.key())
            || cell.get("n").and_then(JsonValue::as_f64) != Some(n as f64)
        {
            return Err(format!("cell out of grid order (expected {name})"));
        }
        if cell.get("graph_spec").and_then(graph_spec_from_json) != Some(graph.spec()) {
            return Err(format!(
                "{name}: graph_spec missing or disagrees with the grid topology"
            ));
        }
        let budget = cell
            .get("budget")
            .and_then(JsonValue::as_f64)
            .ok_or_else(|| format!("{name}: budget missing"))?;
        if budget < 1.0 {
            return Err(format!("{name}: budget {budget} below 1"));
        }
        if cell.get("trials").and_then(JsonValue::as_f64) != Some(trials) {
            return Err(format!("{name}: cell trials disagree with the report"));
        }
        cell.get("safe_seed")
            .and_then(JsonValue::as_str)
            .and_then(|s| s.parse::<u64>().ok())
            .ok_or_else(|| format!("{name}: safe_seed is not an exact decimal u64"))?;
        let safe_start = cell
            .get("safe_start")
            .and_then(JsonValue::as_bool)
            .ok_or_else(|| format!("{name}: safe_start missing"))?;
        let safe_steps = cell
            .get("safe_steps")
            .and_then(JsonValue::as_f64)
            .ok_or_else(|| format!("{name}: safe_steps missing"))?;
        if !(0.0..=budget).contains(&safe_steps) {
            return Err(format!(
                "{name}: safe_steps {safe_steps} outside the budget"
            ));
        }
        let hostile = cell
            .get("hostile")
            .ok_or_else(|| format!("{name}: hostile missing"))?;
        let has_hostile = !matches!(hostile, JsonValue::Null);
        if has_hostile {
            let spec = hostile
                .get("spec")
                .and_then(spec_from_json)
                .ok_or_else(|| format!("{name}: hostile spec does not parse"))?;
            if spec.is_random() {
                return Err(format!("{name}: a random hostile scheduler is degenerate"));
            }
            if hostile.get("scheduler").and_then(JsonValue::as_str) != Some(spec.key().as_str()) {
                return Err(format!("{name}: hostile scheduler key disagrees with spec"));
            }
        }
        let rows = cell
            .get("rows")
            .and_then(JsonValue::as_array)
            .ok_or_else(|| format!("{name}: rows missing"))?;
        if !safe_start {
            if !rows.is_empty() {
                return Err(format!("{name}: rows present despite safe_start=false"));
            }
            continue;
        }
        if rows.len() != FaultRow::ALL.len() {
            return Err(format!(
                "{name}: expected {} fault rows, found {}",
                FaultRow::ALL.len(),
                rows.len()
            ));
        }
        for (row, expected_row) in rows.iter().zip(FaultRow::ALL) {
            let rname = format!("{name}/{}", expected_row.key());
            if row.get("fault").and_then(JsonValue::as_str) != Some(expected_row.key()) {
                return Err(format!("{rname}: fault rows out of order"));
            }
            if row.get("extent").and_then(JsonValue::as_f64) != Some(expected_row.extent(n) as f64)
            {
                return Err(format!("{rname}: extent disagrees with the fault shape"));
            }
            let uniform = row
                .get("uniform")
                .ok_or_else(|| format!("{rname}: uniform summary missing"))?;
            check_summary(uniform, budget, &format!("{rname}/uniform"))?;
            let hostile_row = row
                .get("hostile")
                .ok_or_else(|| format!("{rname}: hostile summary missing"))?;
            if matches!(hostile_row, JsonValue::Null) == has_hostile {
                return Err(format!(
                    "{rname}: hostile summary must be present iff the cell has a \
                     hostile scheduler"
                ));
            }
            let degradation = row
                .get("degradation")
                .ok_or_else(|| format!("{rname}: degradation missing"))?;
            let uniform_mean = uniform.get("mean_steps").and_then(JsonValue::as_f64);
            match (has_hostile, uniform_mean) {
                (true, Some(u)) if u > 0.0 => {
                    let d = degradation
                        .as_f64()
                        .ok_or_else(|| format!("{rname}: degradation must be a number"))?;
                    let h = hostile_row
                        .get("mean_steps")
                        .and_then(JsonValue::as_f64)
                        .ok_or_else(|| format!("{rname}: hostile mean missing"))?;
                    let expected = h / u;
                    if !d.is_finite() || (d - expected).abs() > expected.abs() * 1e-9 + 1e-12 {
                        return Err(format!(
                            "{rname}: degradation {d} disagrees with hostile/uniform \
                             = {expected}"
                        ));
                    }
                }
                _ => {
                    if !matches!(degradation, JsonValue::Null) {
                        return Err(format!(
                            "{rname}: degradation must be null without a hostile pool \
                             and a positive uniform mean"
                        ));
                    }
                }
            }
        }
    }
    Ok(())
}

/// The largest degradation ratio anywhere in a parsed report, if any cell
/// carries one — the acceptance metric (the tracked report must exceed 1:
/// the certificate-lifted scheduler degrades recovery somewhere).
pub fn max_degradation(json: &JsonValue) -> Option<f64> {
    let cells = json.get("cells").and_then(JsonValue::as_array)?;
    cells
        .iter()
        .flat_map(|c| c.get("rows").and_then(JsonValue::as_array).unwrap_or(&[]))
        .filter_map(|r| r.get("degradation").and_then(JsonValue::as_f64))
        .fold(None, |acc, d| Some(acc.map_or(d, |a: f64| a.max(d))))
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
        validate_report(&parsed).expect("tracked report validates");
        assert_eq!(
            parsed.get("quick").and_then(JsonValue::as_bool),
            Some(false),
            "the tracked report is the full-mode run"
        );
        let best = max_degradation(&parsed).expect("tracked report carries ratios");
        assert!(
            best > 1.0,
            "at least one cell must show hostile degradation, best ratio {best}"
        );
        let trials = parsed.get("trials").and_then(JsonValue::as_f64).unwrap() as usize;
        let cells = parsed.get("cells").and_then(JsonValue::as_array).unwrap();
        let degraded = cells
            .iter()
            .find(|c| {
                c.get("rows")
                    .and_then(JsonValue::as_array)
                    .unwrap_or(&[])
                    .iter()
                    .any(|r| {
                        r.get("degradation")
                            .and_then(JsonValue::as_f64)
                            .is_some_and(|d| d > 1.0)
                    })
            })
            .expect("a degraded cell exists");
        let key = |f: &str| degraded.get(f).and_then(JsonValue::as_str).unwrap();
        let kind = *ProtocolKind::ALL
            .iter()
            .find(|k| k.key() == key("protocol"))
            .unwrap();
        let graph = *GridGraph::ALL
            .iter()
            .find(|g| g.key() == key("graph"))
            .unwrap();
        let n = degraded.get("n").and_then(JsonValue::as_f64).unwrap() as usize;
        let options = RunOptions {
            quick: false,
            sizes: vec![n],
            trials,
            threads: None,
        };
        let runner = BatchRunner::new();
        let cell = run_cell(kind, graph, n, &options, &runner);
        assert_eq!(
            cell_to_json(&cell).to_json(),
            degraded.to_json(),
            "{}/{}/{n}: replayed cell differs from the tracked artifact",
            kind.key(),
            graph.key()
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
        let clean = recovery_scenario(kind, graph, budget)
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
        let report = Report::assemble(&options, vec![cell_to_json(&cell)]);
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
    }
}
