//! Worst-case stabilization measurement with a tracked report.
//!
//! The paper's headline property is convergence from **arbitrary**
//! configurations under the scheduler; the sweeps behind Table 1 measure the
//! *average* case (sampled inits, uniformly random scheduler).  This module
//! measures the other end: for every Table 1 protocol × {ring, complete} ×
//! `n ∈ {64, 256}`, it records the mean stabilization time of a
//! random-scheduler trial pool **and** the worst case found by the
//! `ssle-adversary` search engine — island annealing over initial-condition
//! variants, seeds, scheduler-zoo parameters ([`SchedulerSpec`]) and mid-run
//! crash schedules ([`FaultPlanSpec`]), seeded with the trial pool so
//! `worst-found ≥ max(pool) ≥ mean` holds by construction.
//!
//! Everything embarrassingly parallel is sharded over a
//! `population::BatchRunner` (`run_map`): the grid cells, each cell's random
//! trial pool, the annealing islands and the rate-curve replays.  Results
//! are **bit-identical for any thread count** at a fixed island count —
//! every seed is derived from the cell, never from the executing thread —
//! which is pinned by workspace tests.
//!
//! Censored cells are made informative by an **adaptive stabilization-rate
//! curve**: the worst-case certificate is replayed with fresh seeds at the
//! base budget multipliers 1×/2×/4× ([`RATE_MULTIPLIERS`]), and each cell
//! records the fraction of replays converged within each multiple.  When
//! every replay is still censored at 4× — the curve is flat 0 and says
//! nothing — the multiplier keeps doubling (8×, 16×, up to
//! [`MAX_RATE_MULTIPLIER`] and the [`ESCALATION_STEP_CEILING`]) until a
//! replay converges or the escalation is exhausted, so "slow" and "stuck"
//! separate as far as the step ceiling allows.
//!
//! Flat-0 cells under a deterministic-phase scheduler get the stronger
//! treatment: [`certify_cell`] replays the worst case with
//! configuration-recurrence detection armed and walks the scheduler's phase
//! product from the recurrent configuration
//! ([`ssle_adversary::certify_livelock`]), upgrading "censored at every
//! multiplier" to a checked **livelock certificate**: at minimum an exact
//! replayed revisit (entry step, period, configuration digest), upgraded to
//! `exhaustive` when the closure walk finishes stop-free — and refuted
//! outright (no certificate) when the walk proves a converging schedule
//! exists.  A certified cell skips the escalation entirely.
//!
//! The `stabilization_report` binary ([`Report`], driven by
//! [`crate::tracked`]) writes the results to `BENCH_stabilization.json` at
//! the repository root (schema [`SCHEMA`]); CI runs it in `--quick` mode and
//! validates the emitted JSON against [`validate_report`].  Worst cases are
//! reported as reproducible certificates: the variant, seed, scheduler spec
//! and fault-plan spec pin down a deterministic re-run ([`evaluate`]), which
//! the workspace tests verify.
//!
//! Step budgets are deliberately protocol-aware and *censored*: a run that
//! does not converge within the budget scores the full budget (its true
//! stabilization time is at least that).  The `Θ(n³)`-class baselines and
//! every ring protocol on the complete graph are expected to censor at
//! `n = 256` — the rate curve is what distinguishes "slow" from "stuck"
//! there.

use std::sync::Arc;

use analysis::json::JsonValue;
use population::{BatchRunner, ClosureLimits, DynProtocol, GraphFamily, Scenario};
use population::{LeaderElection, Protocol, SweepPoint};
use ssle_adversary::{
    certify_livelock, worst_case_search_islands, ArcScorer, Candidate, CertifiedLivelock,
    ChurnDomain, ChurnKindSpec, ChurnPlanSpec, Evaluation, FaultDomain, FaultPlanSpec, GraphDomain,
    GraphSpec, IslandConfig, IslandOutcome, SchedulerSpec, SearchSpace, SpecDomain,
};
use ssle_adversary::{FaultEventSpec, FaultPlacementSpec};
use ssle_baselines::{AngluinModK, FischerJiang, YokotaLinear};
use ssle_core::segments::segments;
use ssle_core::{InitialCondition, Params, Ppl, PplState};

use crate::tracked::{
    check_grid, decode_cells, point_name, point_spec, Fields, Point, TrackedReport, MAX_EXACT,
};
use crate::{pick_k, ProtocolKind};

/// Schema identifier of `BENCH_stabilization.json`.
///
/// `v4` (this version) extends `v3` along the topology axis: the grid gains
/// two **generated** graph families ([`GridGraph::Torus`],
/// [`GridGraph::SmallWorld`], measured at the small size), every cell
/// carries a structural `graph_spec` object (the exact
/// [`ssle_adversary::GraphSpec`] the cell ran on, parameters and family
/// seed included), and `worst` certificates may carry `churn` (a
/// [`ChurnPlanSpec`] schedule) and `graph_override` (a topology the search
/// substituted) objects — both omitted when default, so fixed-topology
/// certificates keep the exact `v3` shape cell-for-cell.
///
/// (`v3` over `v2`: adaptive rate curves with per-cell `multipliers`, the
/// `certified` livelock field, and exact decimal-string `epoch_len`.)
pub const SCHEMA: &str = "stabilization-bench/v4";

/// The population sizes of the tracked measurement grid.  The classic
/// graphs run every size; the generated families run the small size only
/// ([`GridGraph::sizes`]) — their cells exist to probe topology, not
/// scaling, and the budgets are protocol-bound, not graph-bound.
pub const SIZES: [usize; 2] = [64, 256];

/// Ring-lattice chords per agent of the tracked small-world cells.
pub const SMALL_WORLD_K: u16 = 4;

/// Rewiring probability (in thousandths) of the tracked small-world cells.
pub const SMALL_WORLD_REWIRE_PER_MILLE: u16 = 100;

/// Family seed of the tracked small-world cells.  Part of the grid's
/// identity: the per-size arc set is a pure function of this seed.
pub const SMALL_WORLD_SEED: u64 = 0x534D_414C_4C57; // "SMALLW"

/// The topology axis of the tracked report grids: the two classic graphs of
/// `v3` plus two generated families.  The order is part of the artifact's
/// identity — [`GridGraph::ALL`] keeps ring and complete at indices 0 and 1,
/// so the classic cells derive exactly the seeds they had before the
/// generated families existed (their measurements are unchanged across the
/// `v3`→`v4` migration).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum GridGraph {
    /// The paper's directed ring.
    Ring,
    /// The complete interaction graph.
    Complete,
    /// The 2-D wrapped grid (deterministically dimensioned, no seed).
    Torus,
    /// A Watts–Strogatz small-world graph at the tracked parameters
    /// ([`SMALL_WORLD_K`], [`SMALL_WORLD_REWIRE_PER_MILLE`],
    /// [`SMALL_WORLD_SEED`]).
    SmallWorld,
}

impl GridGraph {
    /// Every grid graph, in report order (ring and complete first — their
    /// indices seed the classic cells).
    pub const ALL: [GridGraph; 4] = [
        GridGraph::Ring,
        GridGraph::Complete,
        GridGraph::Torus,
        GridGraph::SmallWorld,
    ];

    /// The key used in the JSON report.
    pub fn key(self) -> &'static str {
        match self {
            GridGraph::Ring => "ring",
            GridGraph::Complete => "complete",
            GridGraph::Torus => "torus",
            GridGraph::SmallWorld => "small-world",
        }
    }

    /// The integer-exact spec of this grid graph — serialized per cell as
    /// `graph_spec`, so the artifact pins the exact topology (parameters
    /// and family seed included), not just a family name.
    pub fn spec(self) -> GraphSpec {
        match self {
            GridGraph::Ring => GraphSpec::DirectedRing,
            GridGraph::Complete => GraphSpec::Complete,
            GridGraph::Torus => GraphSpec::Torus,
            GridGraph::SmallWorld => GraphSpec::SmallWorld {
                k: SMALL_WORLD_K,
                rewire_per_mille: SMALL_WORLD_REWIRE_PER_MILLE,
                seed: SMALL_WORLD_SEED,
            },
        }
    }

    /// The corresponding scenario-layer graph family.
    pub fn family(self) -> GraphFamily {
        self.spec().family()
    }

    /// The slice of the configured `sizes` this graph runs: every size for
    /// the classic graphs, the first (small) size for the generated
    /// families.
    pub fn sizes(self, sizes: &[usize]) -> &[usize] {
        match self {
            GridGraph::Ring | GridGraph::Complete => sizes,
            GridGraph::Torus | GridGraph::SmallWorld => &sizes[..sizes.len().min(1)],
        }
    }
}

/// The **base** budget multipliers of the stabilization-rate curve: each
/// cell's worst-case certificate is replayed with fresh seeds and censored
/// at `multiplier × budget`, and the curve records the converged fraction
/// per multiplier.  A flat-0 base curve escalates geometrically beyond the
/// base (see [`rate_curve_with`]) up to [`MAX_RATE_MULTIPLIER`].
pub const RATE_MULTIPLIERS: [u64; 3] = [1, 2, 4];

/// The largest budget multiplier the adaptive rate escalation may reach,
/// and the multiplier of the certification detection run's extended budget.
pub const MAX_RATE_MULTIPLIER: u64 = 16;

/// Hard per-run step ceiling of the adaptive machinery: neither an
/// escalated rate replay nor a certification detection run ever exceeds
/// this many steps, whatever the multiplier ([`RunOptions::step_ceiling`]
/// shrinks it further in `--quick` mode so CI stays fast).
pub const ESCALATION_STEP_CEILING: u64 = 64_000_000;

/// The step budget of one stabilization run, censoring the worst-case
/// search: protocol-aware (the `Θ(n³)`-class baselines get a cubic budget,
/// capped so `n = 256` cells stay affordable), and much smaller under
/// `quick` (CI smoke) — the grid and schema are identical either way.
pub fn stab_budget(kind: ProtocolKind, n: usize, quick: bool) -> u64 {
    let n = n as u64;
    match kind {
        ProtocolKind::FischerJiang | ProtocolKind::AngluinModK => {
            if quick {
                (n * n * n / 2).min(300_000)
            } else {
                (2 * n * n * n).min(6_000_000)
            }
        }
        _ => {
            if quick {
                40 * n * n
            } else {
                400 * n * n
            }
        }
    }
}

/// The initial-condition variants the worst-case search may start from
/// (`Candidate::variant` indexes this list).  `P_PL` exposes every
/// adversarial family of `ssle_core::init`; the baselines sample their
/// state space uniformly, which is already "arbitrary" for them.
pub fn variant_names(kind: ProtocolKind) -> Vec<&'static str> {
    match kind {
        ProtocolKind::Ppl | ProtocolKind::PplPaperConstants => {
            InitialCondition::ALL.iter().map(|c| c.name()).collect()
        }
        _ => vec!["uniform-random"],
    }
}

/// The stabilization scenario of one protocol × graph × variant, with an
/// explicit step budget (the Table 1 stop criteria and check cadence, via
/// the same builders the figure binaries use).  Every scenario is built
/// **fault-ready** — the protocol's uniform sampler as the corruption
/// function and its leaders as the fault targets, no plan — so
/// fault-bearing candidates can attach their crash schedule with
/// `Scenario::with_fault_plan`.
///
/// # Panics
///
/// Panics if `variant` is out of range for [`variant_names`].
pub fn stab_scenario(
    kind: ProtocolKind,
    graph: GridGraph,
    variant: usize,
    budget: u64,
) -> Scenario {
    let variants = variant_names(kind).len();
    assert!(
        variant < variants,
        "{} has {variants} init variant(s), not {variant}",
        kind.key()
    );
    kind.table1_scenario(graph.family(), InitialCondition::ALL[variant], move |_pt| {
        budget
    })
}

/// The type-erased protocol instance of a [`ProtocolKind`] at size `n`
/// (for scorers that apply the transition to cloned states).
pub fn dyn_protocol(kind: ProtocolKind, n: usize) -> DynProtocol {
    match kind {
        ProtocolKind::Ppl => DynProtocol::erase(Ppl::new(Params::for_ring(n))),
        ProtocolKind::PplPaperConstants => DynProtocol::erase(Ppl::new(Params::paper_constants(n))),
        ProtocolKind::Yokota => DynProtocol::erase(YokotaLinear::for_ring(n)),
        ProtocolKind::FischerJiang => DynProtocol::erase(FischerJiang::new()),
        ProtocolKind::AngluinModK => DynProtocol::erase(AngluinModK::new(pick_k(n))),
    }
}

/// The O(1) hostile potential used by the greedy adversary in the report
/// grid: apply the transition to clones of the two endpoint states and score
/// the leader-count delta.  Higher = more hostile — the adversary prefers
/// interactions that *create or preserve* surplus leaders, starving the
/// elimination progress every Table 1 protocol relies on.
pub fn leader_delta_scorer(protocol: DynProtocol) -> ArcScorer {
    Arc::new(move |states, arc| {
        let mut a = states[arc.initiator().index()].clone();
        let mut b = states[arc.responder().index()].clone();
        let before = protocol.is_leader(&a) as i32 + protocol.is_leader(&b) as i32;
        protocol.interact(&mut a, &mut b);
        let after = protocol.is_leader(&a) as i32 + protocol.is_leader(&b) as i32;
        (after - before) as f64
    })
}

/// An O(n) hostile potential for `P_PL` built on the structural machinery of
/// `ssle-core`: the number of **segments** the configuration would have
/// after the interaction (plus the surplus leader count).  More segments =
/// more segment-ID discontinuities for detection to resolve = slower
/// convergence; use it for small-`n` searches (`fig_worstcase`, the
/// adversarial-schedule example) where per-step O(n) scoring is affordable.
pub fn ppl_segment_scorer(n: usize) -> ArcScorer {
    let params = Params::for_ring(n);
    let protocol = Ppl::new(params);
    Arc::new(move |states, arc| {
        let mut typed: Vec<PplState> = states
            .iter()
            .map(|s| {
                s.downcast_ref::<PplState>()
                    .expect("ppl scorer on non-ppl states")
                    .clone()
            })
            .collect();
        let (i, j) = (arc.initiator().index(), arc.responder().index());
        let (mut a, mut b) = (typed[i].clone(), typed[j].clone());
        protocol.interact(&mut a, &mut b);
        typed[i] = a;
        typed[j] = b;
        let config = population::Configuration::from_states(typed);
        let segs = segments(&config, protocol.params()).len();
        let leaders = protocol.count_leaders(config.states());
        segs as f64 + leaders.saturating_sub(1) as f64
    })
}

/// Deterministically evaluates one candidate of one grid cell: runs the
/// scenario under the candidate's scheduler and fault plan and returns the
/// stabilization steps, censored at `budget` when the run does not
/// converge.  This is the certificate-reproduction function: same
/// arguments, same result.
///
/// The report grid always drives the greedy adversary with the O(1)
/// [`leader_delta_scorer`]; callers wanting a different potential (e.g.
/// `fig_worstcase`'s segment potential for `P_PL`) use [`evaluate_with`].
pub fn evaluate(
    kind: ProtocolKind,
    graph: GridGraph,
    n: usize,
    budget: u64,
    candidate: &Candidate,
) -> Evaluation {
    evaluate_with(kind, graph, n, budget, candidate, |kind, n| {
        leader_delta_scorer(dyn_protocol(kind, n))
    })
}

/// [`evaluate`] with an explicit greedy-potential factory (only invoked for
/// [`SchedulerSpec::Greedy`] candidates).  The censoring policy lives here,
/// once, for every caller: an unconverged run scores the full budget, and a
/// scheduler error (unreachable for the zoo) is treated as censored.
/// Fault-bearing candidates attach their crash schedule through
/// `Scenario::with_fault_plan`, so certificates replay through exactly the
/// fault path every other fault experiment uses.
pub fn evaluate_with(
    kind: ProtocolKind,
    graph: GridGraph,
    n: usize,
    budget: u64,
    candidate: &Candidate,
    scorer_of: impl FnOnce(ProtocolKind, usize) -> ArcScorer,
) -> Evaluation {
    let scorer = matches!(candidate.spec, SchedulerSpec::Greedy { .. }).then(|| scorer_of(kind, n));
    let mut scenario = stab_scenario(kind, graph, candidate.variant as usize, budget)
        .with_scheduler(candidate.spec.family(scorer));
    if !candidate.faults.is_empty() {
        scenario = scenario.with_fault_plan(candidate.faults.plan());
    }
    scenario = apply_topology(scenario, candidate);
    match scenario.try_run(&SweepPoint::new(n, candidate.seed)) {
        Ok(report) => Evaluation {
            steps: report.converged_at.unwrap_or(budget),
            converged: report.converged(),
        },
        // Zoo schedulers never exhaust; treat a scheduler error as censored.
        Err(_) => Evaluation {
            steps: budget,
            converged: false,
        },
    }
}

/// Attaches a candidate's topology axes to a scenario: the static graph
/// override ([`Scenario::with_graph`]) and the churn schedule
/// ([`Scenario::with_churn_plan`]).  Default axes (`graph: None`, empty
/// churn) leave the scenario untouched, so fixed-topology certificates run
/// the exact pre-`v4` path.
fn apply_topology(mut scenario: Scenario, candidate: &Candidate) -> Scenario {
    if let Some(spec) = candidate.graph {
        scenario = scenario.with_graph(spec.family());
    }
    if !candidate.churn.is_empty() {
        scenario = scenario.with_churn_plan(candidate.churn.plan());
    }
    scenario
}

/// Attempts to upgrade one cell's censored worst case into a **checked**
/// livelock certificate: rebuilds the candidate's scenario (scheduler and
/// fault plan attached exactly as [`evaluate`] does), replays it with
/// configuration-recurrence detection armed, and — when the run provably
/// revisits a configuration at the same scheduler phase — walks everything
/// the scheduler could still do from there ([`certify_livelock`]), which
/// either upgrades the certificate to exhaustive, leaves the replayed
/// recurrence standing, or refutes it.
///
/// Only deterministic-phase schedulers can certify, so memoryless specs
/// (random, weighted, greedy) return `None` without spending a detection
/// run.  Greedy is also the one spec whose scenario needs a scorer; skipping
/// it here keeps this function scorer-free.
///
/// The detection run gets an **extended** budget —
/// `budget × `[`MAX_RATE_MULTIPLIER`], capped at `ceiling` — because the
/// detector stays disarmed until the candidate's last fault event has fired
/// and a long-period orbit then needs room beyond the censoring budget to
/// revisit itself (the recurrence that certifies the tracked
/// `angluin-mod-k/ring/64` cell has period ≈ 1.7 × its cell budget).  A
/// certificate is a statement about the *infinite* run, so an entry step
/// beyond `budget` still proves the censored cell can never converge.
pub fn certify_cell(
    kind: ProtocolKind,
    graph: GridGraph,
    n: usize,
    budget: u64,
    ceiling: u64,
    candidate: &Candidate,
) -> Option<CertifiedLivelock> {
    if !matches!(candidate.spec, SchedulerSpec::EpochPartition { .. }) {
        return None;
    }
    let detect_budget = budget
        .saturating_mul(MAX_RATE_MULTIPLIER)
        .min(ceiling)
        .max(budget);
    let mut scenario = stab_scenario(kind, graph, candidate.variant as usize, detect_budget)
        .with_scheduler(candidate.spec.family(None));
    if !candidate.faults.is_empty() {
        scenario = scenario.with_fault_plan(candidate.faults.plan());
    }
    let scenario = apply_topology(scenario, candidate);
    certify_livelock(
        &scenario,
        &candidate.spec,
        &SweepPoint::new(n, candidate.seed),
        &ClosureLimits::default(),
    )
    .ok()
    .flatten()
}

/// The stabilization-rate curve of one cell: the worst-case certificate
/// replayed with fresh seeds, censored at `multiplier × budget` for every
/// multiplier the adaptive escalation ran.
#[derive(Clone, Debug, PartialEq)]
pub struct RateCurve {
    /// The budget multipliers this cell actually ran: the base
    /// [`RATE_MULTIPLIERS`], extended by doubling while the curve stayed
    /// flat 0 (see [`rate_curve_with`]).
    pub multipliers: Vec<u64>,
    /// Fraction of replays converged within `multiplier × budget`, one
    /// entry per `multipliers` entry (non-decreasing by construction).
    pub fractions: Vec<f64>,
    /// Base seed of the replays (replay `r` runs at seed
    /// `replay_seed + r`).
    pub replay_seed: u64,
}

/// One measured cell of the grid.
#[derive(Clone, Debug)]
pub struct CellResult {
    /// Protocol.
    pub kind: ProtocolKind,
    /// Interaction graph; the artifact pins its exact topology
    /// ([`GridGraph::spec`]) as `graph_spec`.
    pub graph: GridGraph,
    /// Population size.
    pub n: usize,
    /// Censoring step budget of every run in this cell (rate replays extend
    /// it by the [`RATE_MULTIPLIERS`]).
    pub budget: u64,
    /// Random-scheduler trials in the mean pool.
    pub trials: usize,
    /// Mean stabilization steps over the pool (censored values included).
    pub mean_steps: f64,
    /// Fraction of pool trials that converged within the budget.
    pub converged_fraction: f64,
    /// The worst case found, as the candidate that replays it: feed it
    /// (with the cell's protocol, graph, n and budget) to [`evaluate`] and
    /// the step count is `worst_steps`.
    pub worst: Candidate,
    /// Worst-case steps (`>= mean` by construction).
    pub worst_steps: u64,
    /// Whether the worst-case run converged (censored cells report `false`).
    pub worst_converged: bool,
    /// Which annealing island found the worst case.
    pub best_island: u32,
    /// Search evaluations beyond the pool (islands × iterations).
    pub search_evaluations: u32,
    /// Seed of the (deterministic) island search.
    pub search_seed: u64,
    /// The checked livelock certificate of the worst case, when the
    /// censored run provably recurs and its phase closure does not refute
    /// the livelock ([`certify_cell`]); `None` for converged worst cases,
    /// memoryless schedulers and anything the conservative certifier
    /// abstains on.
    pub certified: Option<CertifiedLivelock>,
    /// The stabilization-rate curve of the worst-case certificate.
    pub rate: RateCurve,
}

impl CellResult {
    /// The initial-condition variant of the worst case.
    pub fn worst_variant(&self) -> &'static str {
        variant_names(self.kind)[self.worst.variant as usize]
    }
}

/// Knobs of one report run.  The defaults (via [`RunOptions::new`]) are the
/// tracked-grid settings; tests shrink `sizes` to keep the full pipeline —
/// including JSON serialization — affordable to run twice.
#[derive(Clone, Debug)]
pub struct RunOptions {
    /// `true` for the reduced CI-smoke budgets (same grid and schema).
    pub quick: bool,
    /// The population sizes of the grid (default [`SIZES`]).
    pub sizes: Vec<usize>,
    /// Random-scheduler trials per cell.
    pub trials: usize,
    /// Annealing islands per cell.  Part of the result's identity: a fixed
    /// island count gives bit-identical reports at any thread count.
    pub islands: u32,
    /// Annealing iterations per island.
    pub island_iterations: u32,
    /// Rate-curve replays per cell.
    pub replays: usize,
    /// Worker threads (`None` = all available parallelism).
    pub threads: Option<usize>,
}

impl RunOptions {
    /// The tracked-grid settings of the given mode.
    pub fn new(quick: bool) -> Self {
        RunOptions {
            quick,
            sizes: SIZES.to_vec(),
            trials: if quick { 2 } else { 5 },
            islands: 4,
            island_iterations: if quick { 2 } else { 5 },
            replays: if quick { 4 } else { 6 },
            threads: None,
        }
    }

    /// The per-run step ceiling of the adaptive machinery (rate escalation
    /// and certification detection): [`ESCALATION_STEP_CEILING`] for the
    /// tracked report, a sixteenth of it under `--quick` so the CI smoke
    /// stays affordable (quick budgets are small, so the small-`n` cells
    /// still escalate all the way).
    pub fn step_ceiling(&self) -> u64 {
        if self.quick {
            ESCALATION_STEP_CEILING / 16
        } else {
            ESCALATION_STEP_CEILING
        }
    }
}

/// The report grid at the given sizes, **in report order**: every
/// protocol × [`GridGraph::ALL`] × the graph's [`GridGraph::sizes`].  The
/// stabilization and recovery reports share it.
pub fn grid_points(sizes: &[usize]) -> Vec<(ProtocolKind, GridGraph, usize)> {
    ProtocolKind::ALL
        .iter()
        .flat_map(|&kind| {
            GridGraph::ALL
                .iter()
                .flat_map(move |&graph| graph.sizes(sizes).iter().map(move |&n| (kind, graph, n)))
        })
        .collect()
}

/// The deterministic base seed of one grid cell.  The graph index comes
/// from [`GridGraph::ALL`], whose order keeps ring = 0 / complete = 1, so
/// every classic cell derives exactly its pre-`v4` seed.
fn cell_seed(kind: ProtocolKind, graph: GridGraph, n: usize) -> u64 {
    let ki = ProtocolKind::ALL
        .iter()
        .position(|k| *k == kind)
        .unwrap_or(7) as u64;
    let gi = GridGraph::ALL
        .iter()
        .position(|g| *g == graph)
        .expect("every grid graph is in ALL") as u64;
    0x5AB1 ^ (ki << 8) ^ (gi << 16) ^ ((n as u64) << 24)
}

/// Measures one cell: the random pool for the mean, the island search
/// seeded with that pool, and the rate-curve replays of the found worst
/// case — each stage sharded over the runner.
pub fn run_cell(
    kind: ProtocolKind,
    graph: GridGraph,
    n: usize,
    options: &RunOptions,
    runner: &BatchRunner,
) -> CellResult {
    let budget = stab_budget(kind, n, options.quick);
    let base = cell_seed(kind, graph, n);
    let pool_candidates: Vec<Candidate> = (0..options.trials)
        .map(|t| Candidate::baseline(base.wrapping_add(t as u64)))
        .collect();
    let pool: Vec<(Candidate, Evaluation)> = runner
        .run_map(&pool_candidates, |c| evaluate(kind, graph, n, budget, c))
        .into_iter()
        .zip(pool_candidates.iter().cloned())
        .map(|(e, c)| (c, e))
        .collect();
    let mean_steps = pool.iter().map(|(_, e)| e.steps as f64).sum::<f64>() / options.trials as f64;
    let converged_fraction =
        pool.iter().filter(|(_, e)| e.converged).count() as f64 / options.trials as f64;
    let space = SearchSpace {
        variants: variant_names(kind).len() as u32,
        specs: SpecDomain {
            // Per-step greedy scoring is only affordable at the small size.
            greedy: n <= 64,
            ..SpecDomain::all()
        },
        // Crash schedules must fire within the base budget to matter.
        faults: FaultDomain::bursts(budget.saturating_sub(1), n as u32),
        // Topology and churn stay fixed per cell: the grid itself is the
        // topology axis, and mutating it here would change the cell's claim.
        churn: ChurnDomain::disabled(),
        graph: GraphDomain::disabled(),
    };
    let search_seed = base ^ 0xFACE;
    let IslandOutcome {
        best,
        best_island,
        evaluations,
    } = worst_case_search_islands(
        &space,
        &pool,
        |c| evaluate(kind, graph, n, budget, c),
        &IslandConfig {
            islands: options.islands,
            iterations: options.island_iterations,
            seed: search_seed,
            cooling: 0.85,
        },
        runner,
    );
    // Certification runs before the rate curve: a checked livelock both
    // upgrades the cell's claim and tells the escalation not to burn steps
    // re-litigating a flat-0 curve the certificate already explains.
    let certified = if best.converged {
        None
    } else {
        certify_cell(
            kind,
            graph,
            n,
            budget,
            options.step_ceiling(),
            &best.candidate,
        )
    };
    let rate = rate_curve(
        kind,
        graph,
        n,
        budget,
        &best.candidate,
        certified.is_some(),
        options,
        runner,
    );
    CellResult {
        kind,
        graph,
        n,
        budget,
        trials: options.trials,
        mean_steps,
        converged_fraction,
        worst: best.candidate,
        worst_steps: best.steps,
        worst_converged: best.converged,
        best_island,
        search_evaluations: evaluations,
        search_seed,
        certified,
        rate,
    }
}

/// The report grid's rate curve for one cell, via [`rate_curve_with`] and
/// the shared greedy potential of [`evaluate`].
#[allow(clippy::too_many_arguments)]
fn rate_curve(
    kind: ProtocolKind,
    graph: GridGraph,
    n: usize,
    budget: u64,
    worst: &Candidate,
    certified: bool,
    options: &RunOptions,
    runner: &BatchRunner,
) -> RateCurve {
    let replay_seed = cell_seed(kind, graph, n) ^ 0x7A7E;
    rate_curve_with(
        budget,
        worst,
        certified,
        replay_seed,
        options.replays,
        options.step_ceiling(),
        runner,
        |c, b| evaluate(kind, graph, n, b, c),
    )
}

/// The single definition of the stabilization-rate metric: replays `worst`
/// (same variant, scheduler spec and fault plan) with fresh seeds
/// (`replay_seed + r`), censored at `max(RATE_MULTIPLIERS) × budget`, and
/// folds the outcomes into the per-multiplier converged fractions.  One
/// simulation run per replay covers the whole base curve: a replay
/// converged at step `s` counts for every multiplier `m` with
/// `s ≤ m × budget`.
///
/// When every replay is still censored at the base maximum — the curve is
/// flat 0 and distinguishes nothing — the multiplier **escalates
/// geometrically** (8×, 16×, …) up to [`MAX_RATE_MULTIPLIER`], stopping as
/// soon as a replay converges or the next rung would exceed `ceiling`
/// steps.  Each rung reruns all the (censored) replays at the extended
/// censoring budget; the runs are deterministic per seed, so the curve
/// stays bit-identical at any thread count.  `certified` callers skip the
/// escalation entirely: a checked livelock already explains the flat-0
/// curve, so the extra steps would be wasted.
///
/// `evaluate` receives the candidate and the extended censoring budget —
/// the report grid passes [`evaluate`], `fig_worstcase` its segment-scored
/// variant — so every consumer renders the *same* metric.
#[allow(clippy::too_many_arguments)]
pub fn rate_curve_with(
    budget: u64,
    worst: &Candidate,
    certified: bool,
    replay_seed: u64,
    replays: usize,
    ceiling: u64,
    runner: &BatchRunner,
    evaluate: impl Fn(&Candidate, u64) -> Evaluation + Send + Sync,
) -> RateCurve {
    let mut multipliers: Vec<u64> = RATE_MULTIPLIERS.to_vec();
    let base_max = *RATE_MULTIPLIERS.last().expect("non-empty multipliers");
    let candidates: Vec<Candidate> = (0..replays)
        .map(|r| Candidate {
            seed: replay_seed.wrapping_add(r as u64),
            ..worst.clone()
        })
        .collect();
    let mut outcomes = runner.run_map(&candidates, |c| {
        evaluate(c, budget.saturating_mul(base_max))
    });
    let mut mult = base_max;
    while !certified
        && replays > 0
        && outcomes.iter().all(|e| !e.converged)
        && mult.saturating_mul(2) <= MAX_RATE_MULTIPLIER
        && budget.saturating_mul(mult.saturating_mul(2)) <= ceiling
    {
        mult *= 2;
        multipliers.push(mult);
        // Every replay is censored here, so the rerun set is all of them;
        // a longer censoring horizon extends the same deterministic
        // trajectory, it never changes it.
        outcomes = runner.run_map(&candidates, |c| evaluate(c, budget.saturating_mul(mult)));
    }
    let fractions = multipliers
        .iter()
        .map(|&m| {
            let within = outcomes
                .iter()
                .filter(|e| e.converged && e.steps <= budget.saturating_mul(m))
                .count();
            within as f64 / replays.max(1) as f64
        })
        .collect();
    RateCurve {
        multipliers,
        fractions,
        replay_seed,
    }
}

/// Serializes one measured cell to its report JSON object (an element of
/// the report's `cells` array).  This is the **single definition** of the
/// cell encoding: [`crate::tracked::run`] assembles every report from it,
/// and [`cell_from_json`] is its exact inverse.  `graph_spec`,
/// `worst.variant` and `worst.scheduler` are derived from the cell.
pub fn cell_to_json(c: &CellResult) -> JsonValue {
    let mut worst = JsonValue::object()
        .with("steps", c.worst_steps as f64)
        .with("converged", c.worst_converged)
        .with("variant", c.worst_variant())
        // Seeds are full-width u64s; JSON numbers are f64 and would
        // silently round any value >= 2^53, so they are serialized as
        // exact decimal strings.
        .with("seed", c.worst.seed.to_string().as_str())
        .with("scheduler", c.worst.spec.key().as_str())
        .with("spec", spec_to_json(&c.worst.spec))
        .with("faults", fault_spec_to_json(&c.worst.faults));
    // The topology axes appear only when the worst case actually used
    // them, so fixed-topology certificates keep the exact `v3` shape.
    if !c.worst.churn.is_empty() {
        worst = worst.with("churn", churn_spec_to_json(&c.worst.churn));
    }
    if let Some(graph) = c.worst.graph {
        worst = worst.with("graph_override", graph_spec_to_json(graph));
    }
    let worst = worst
        .with("search_seed", c.search_seed.to_string().as_str())
        .with("search_evaluations", c.search_evaluations as usize)
        .with("best_island", c.best_island as usize)
        .with("certified", certified_to_json(&c.certified));
    JsonValue::object()
        .with("protocol", c.kind.key())
        .with("graph", c.graph.key())
        .with("graph_spec", graph_spec_to_json(c.graph.spec()))
        .with("n", c.n)
        .with("budget", c.budget as f64)
        .with("trials", c.trials)
        .with("mean_steps", c.mean_steps)
        .with("converged_fraction", c.converged_fraction)
        .with("worst", worst)
        .with(
            "rate",
            JsonValue::object()
                .with("replay_seed", c.rate.replay_seed.to_string().as_str())
                .with(
                    "multipliers",
                    JsonValue::Array(
                        c.rate
                            .multipliers
                            .iter()
                            .map(|&m| JsonValue::Number(m as f64))
                            .collect(),
                    ),
                )
                .with(
                    "fractions",
                    JsonValue::Array(
                        c.rate
                            .fractions
                            .iter()
                            .map(|&f| JsonValue::Number(f))
                            .collect(),
                    ),
                ),
        )
}

/// Decodes one cell from its [`cell_to_json`] form, every field exactly
/// ([`Fields`]).  The derived fields are not read: [`decode_cell`] requires
/// the decoded cell to re-encode to the identical JSON.
///
/// [`decode_cell`]: crate::tracked::decode_cell
pub fn cell_from_json(json: &JsonValue) -> Result<CellResult, String> {
    let (cell, (kind, graph, n)) = Fields::open(json, Report::CELL)?;
    let worst = cell.object("worst")?;
    let variant = worst.str("variant")?;
    let variant = variant_names(kind)
        .iter()
        .position(|v| *v == variant)
        .ok_or_else(|| worst.err("variant", "names no init variant of the protocol"))?;
    let rate = cell.object("rate")?;
    Ok(CellResult {
        kind,
        graph,
        n,
        budget: cell.uint("budget", MAX_EXACT)?,
        trials: cell.size("trials")?,
        mean_steps: cell.float("mean_steps")?,
        converged_fraction: cell.fraction("converged_fraction")?,
        worst: Candidate {
            variant: variant as u32,
            seed: worst.u64_string("seed")?,
            spec: spec_from_json(&worst.object("spec")?)?,
            faults: fault_spec_from_json(&worst.items("faults")?)?,
            churn: if worst.has("churn") {
                churn_spec_from_json(&worst.items("churn")?)?
            } else {
                ChurnPlanSpec::none()
            },
            graph: if worst.has("graph_override") {
                Some(graph_spec_from_json(&worst.object("graph_override")?)?)
            } else {
                None
            },
        },
        worst_steps: worst.uint("steps", MAX_EXACT)?,
        worst_converged: worst.bool("converged")?,
        best_island: worst.uint("best_island", u32::MAX as u64)? as u32,
        search_evaluations: worst.uint("search_evaluations", u32::MAX as u64)? as u32,
        search_seed: worst.u64_string("search_seed")?,
        certified: worst
            .nullable("certified")?
            .map(|certified| certified_from_json(&certified))
            .transpose()?,
        rate: RateCurve {
            multipliers: rate.uints("multipliers", MAX_EXACT)?,
            fractions: rate.fractions("fractions")?,
            replay_seed: rate.u64_string("replay_seed")?,
        },
    })
}

/// The worst-case stabilization report (`stabilization_report`,
/// `BENCH_stabilization.json`) as a [`TrackedReport`].
#[derive(Clone, Copy, Debug)]
pub struct Report;

impl TrackedReport for Report {
    const PRODUCER: &'static str = "stabilization_report";
    const TITLE: &'static str = "Worst-case stabilization";
    const SCHEMA: &'static str = SCHEMA;
    const JOB: &'static str = "stabilization-cell";
    const STEM: &'static str = "BENCH_stabilization";
    const CELL: &'static str = "cell";
    const THREADS: bool = true;
    const ISLANDS: bool = true;

    type Options = RunOptions;
    type Cell = CellResult;

    fn options(quick: bool, threads: Option<usize>, islands: Option<u32>) -> RunOptions {
        let mut options = RunOptions::new(quick);
        options.threads = threads;
        options.islands = islands.unwrap_or(options.islands);
        options
    }

    fn threads(options: &RunOptions) -> Option<usize> {
        options.threads
    }

    fn grid(options: &RunOptions) -> Vec<Point> {
        grid_points(&options.sizes)
    }

    /// Every [`RunOptions`] knob that is part of the result's identity;
    /// `threads` is absent, so the cache key is thread-count-invariant.
    fn unit_spec((kind, graph, n): Point, options: &RunOptions) -> JsonValue {
        point_spec::<Self>(kind, graph.key(), n, options.quick)
            .with("trials", options.trials)
            .with("islands", options.islands as usize)
            .with("island_iterations", options.island_iterations as usize)
            .with("replays", options.replays)
    }

    fn run_cell((kind, graph, n): Point, options: &RunOptions, runner: &BatchRunner) -> CellResult {
        run_cell(kind, graph, n, options, runner)
    }

    fn point(cell: &CellResult) -> Point {
        (cell.kind, cell.graph, cell.n)
    }

    fn cell_to_json(cell: &CellResult) -> JsonValue {
        cell_to_json(cell)
    }

    fn cell_from_json(json: &JsonValue) -> Result<CellResult, String> {
        cell_from_json(json)
    }

    fn header(options: &RunOptions) -> JsonValue {
        JsonValue::object()
            .with("schema", SCHEMA)
            .with("quick", options.quick)
            .with("trials", options.trials)
            .with("islands", options.islands as usize)
            .with("island_iterations", options.island_iterations as usize)
            .with("replays", options.replays)
            .with(
                "rate_multipliers",
                JsonValue::Array(
                    RATE_MULTIPLIERS
                        .iter()
                        .map(|&m| JsonValue::Number(m as f64))
                        .collect(),
                ),
            )
    }

    fn validate(json: &JsonValue) -> Result<Vec<CellResult>, String> {
        validate_report(json)
    }

    fn summary(options: &RunOptions, cells: usize) -> String {
        format!(
            "{cells} cells; {} trials, {} islands x {} iterations, {} rate replays each",
            options.trials, options.islands, options.island_iterations, options.replays,
        )
    }

    /// A note when no rate curve discriminates: every curve is all 0 (pure
    /// livelock) or all 1 (everything converges at 1×).
    fn closing_note(cells: &[CellResult]) -> Option<String> {
        let degenerate = |f: &[f64]| f.iter().all(|&x| x == 0.0) || f.iter().all(|&x| x == 1.0);
        cells
            .iter()
            .all(|c| degenerate(&c.rate.fractions))
            .then(|| {
                "note: every rate curve is degenerate (all-0 or all-1) in this run; \
             the full-mode tracked report is expected to discriminate"
                    .to_string()
            })
    }

    fn markdown(cells: &[CellResult]) -> String {
        let rate_header = RATE_MULTIPLIERS
            .iter()
            .map(|m| format!("{m}x"))
            .collect::<Vec<_>>()
            .join("/");
        let mut out = format!(
            "| protocol | graph | n | budget | mean steps | conv | worst steps | worst/mean \
             | rate@{rate_header}+ | livelock | worst scheduler | worst faults | worst init |\n\
             |---|---|---:|---:|---:|---:|---:|---:|---|---|---|---|---|\n",
        );
        for c in cells {
            let rate = c
                .rate
                .fractions
                .iter()
                .map(|f| format!("{f:.2}"))
                .collect::<Vec<_>>()
                .join("/");
            let livelock = match &c.certified {
                Some(cert) if cert.exhaustive => {
                    format!("exhaustive (period {})", cert.period)
                }
                Some(cert) => format!("recurrence (period {})", cert.period),
                None => "-".to_string(),
            };
            out.push_str(&format!(
                "| {} | {} | {} | {} | {:.3e} | {:.0}% | {} | {:.2}x | {} | {} | {} | {} | {} |\n",
                c.kind.key(),
                c.graph.key(),
                c.n,
                c.budget,
                c.mean_steps,
                c.converged_fraction * 100.0,
                c.worst_steps,
                c.worst_steps as f64 / c.mean_steps.max(1.0),
                rate,
                livelock,
                c.worst.spec.key(),
                c.worst.faults.key(),
                c.worst_variant(),
            ));
        }
        out
    }
}

/// A `u32` field that must be positive: a fault burst or churn event of
/// extent zero touches nobody, and the plan builders refuse it.
fn positive(fields: &Fields, field: &str) -> Result<u32, String> {
    match fields.uint(field, u32::MAX as u64)? {
        0 => Err(fields.err(field, "must be positive")),
        v => Ok(v as u32),
    }
}

/// Serializes a [`SchedulerSpec`] structurally (all parameters exact —
/// full-width u64s like seeds and `epoch_len` as decimal strings, since
/// JSON numbers are f64 and would round values ≥ 2⁵³).
pub fn spec_to_json(spec: &SchedulerSpec) -> JsonValue {
    match spec {
        SchedulerSpec::Random => JsonValue::object().with("kind", "random"),
        SchedulerSpec::Weighted {
            hot_per_mille,
            bias,
            seed,
        } => JsonValue::object()
            .with("kind", "weighted")
            .with("hot_per_mille", *hot_per_mille as usize)
            .with("bias", *bias as usize)
            .with("seed", seed.to_string().as_str()),
        SchedulerSpec::EpochPartition { blocks, epoch_len } => JsonValue::object()
            .with("kind", "epoch-partition")
            .with("blocks", *blocks as usize)
            .with("epoch_len", epoch_len.to_string().as_str()),
        SchedulerSpec::Greedy { candidates } => JsonValue::object()
            .with("kind", "greedy")
            .with("candidates", *candidates as usize),
    }
}

/// Rebuilds a [`SchedulerSpec`] from its [`spec_to_json`] form.  Every
/// integer field parses exactly or not at all ([`Fields`]): narrow fields
/// reject fractional and out-of-range numbers instead of truncating through
/// an `as` cast, and `epoch_len` takes the decimal-string path like the
/// seeds (the `v2` `as f64` round trip silently rounded values ≥ 2⁵³).
pub fn spec_from_json(spec: &Fields) -> Result<SchedulerSpec, String> {
    Ok(match spec.str("kind")? {
        "random" => SchedulerSpec::Random,
        "weighted" => SchedulerSpec::Weighted {
            hot_per_mille: spec.uint("hot_per_mille", u16::MAX as u64)? as u16,
            bias: spec.uint("bias", u32::MAX as u64)? as u32,
            seed: spec.u64_string("seed")?,
        },
        "epoch-partition" => SchedulerSpec::EpochPartition {
            blocks: spec.uint("blocks", u32::MAX as u64)? as u32,
            epoch_len: spec.u64_string("epoch_len")?,
        },
        "greedy" => SchedulerSpec::Greedy {
            candidates: spec.uint("candidates", u32::MAX as u64)? as u32,
        },
        _ => return Err(spec.err("kind", "names no scheduler")),
    })
}

/// Serializes a cell's optional livelock certificate: `null`, or an object
/// whose bounded fields (`entry_step`, `period`, `phase`,
/// `closure_configs` — all capped by the detection budget or the closure
/// limits, far below 2⁵³) are JSON numbers and whose full-width
/// `config_digest` is a decimal string.
pub fn certified_to_json(certified: &Option<CertifiedLivelock>) -> JsonValue {
    match certified {
        None => JsonValue::Null,
        Some(c) => JsonValue::object()
            .with("entry_step", c.entry_step as f64)
            .with("period", c.period as f64)
            .with("config_digest", c.config_digest.to_string().as_str())
            .with("phase", c.phase as f64)
            .with("exhaustive", c.exhaustive)
            .with("closure_configs", c.closure_configs as f64),
    }
}

/// Rebuilds a [`CertifiedLivelock`] from the object form of
/// [`certified_to_json`], with the same exactness rules as the spec
/// parsers.
pub fn certified_from_json(certified: &Fields) -> Result<CertifiedLivelock, String> {
    // The number fields are bounded by the detection budget / closure
    // limits; anything at or beyond 2^53 cannot have round-tripped exactly
    // through an f64 and is rejected outright.
    Ok(CertifiedLivelock {
        entry_step: certified.uint("entry_step", MAX_EXACT)?,
        period: certified.uint("period", MAX_EXACT)?,
        config_digest: certified.u64_string("config_digest")?,
        phase: certified.uint("phase", MAX_EXACT)?,
        exhaustive: certified.bool("exhaustive")?,
        closure_configs: certified.uint("closure_configs", MAX_EXACT)?,
    })
}

/// Attaches a placement's kind tag and integer parameters to a JSON object.
fn placement_to_json(obj: JsonValue, placement: FaultPlacementSpec) -> JsonValue {
    match placement {
        FaultPlacementSpec::Random { count } => obj
            .with("placement", "random")
            .with("count", count as usize),
        FaultPlacementSpec::Block { start, count } => obj
            .with("placement", "block")
            .with("start", start as usize)
            .with("count", count as usize),
        FaultPlacementSpec::All => obj.with("placement", "all"),
        FaultPlacementSpec::Targeted { limit } => obj
            .with("placement", "targeted")
            .with("limit", limit as usize),
    }
}

/// Reads a placement's kind tag and integer parameters back out of a JSON
/// object, with the same exactness rules as every other integer field.  A
/// `count` or `limit` of zero is rejected too: such a burst corrupts nobody,
/// and `FaultPlan::at` refuses it.
fn placement_from_json(event: &Fields) -> Result<FaultPlacementSpec, String> {
    Ok(match event.str("placement")? {
        "random" => FaultPlacementSpec::Random {
            count: positive(event, "count")?,
        },
        "block" => FaultPlacementSpec::Block {
            start: event.uint("start", u32::MAX as u64)? as u32,
            count: positive(event, "count")?,
        },
        "all" => FaultPlacementSpec::All,
        "targeted" => FaultPlacementSpec::Targeted {
            limit: positive(event, "limit")?,
        },
        _ => return Err(event.err("placement", "names no fault placement")),
    })
}

/// Serializes a [`FaultPlanSpec`] as the (possibly empty) array of its
/// timed events.  `at_step` is a full-width u64 and travels as an exact
/// decimal string (JSON numbers are f64 and would round ≥ 2⁵³, breaking
/// certificate replay).
pub fn fault_spec_to_json(spec: &FaultPlanSpec) -> JsonValue {
    JsonValue::Array(
        spec.events()
            .iter()
            .map(|e| {
                placement_to_json(
                    JsonValue::object().with("at_step", e.at_step.to_string().as_str()),
                    e.placement,
                )
            })
            .collect(),
    )
}

/// Rebuilds a [`FaultPlanSpec`] from the events of its
/// [`fault_spec_to_json`] array ([`Fields::items`]).  Every integer parses
/// exactly or not at all — the `v2` `as u32` casts would silently turn a
/// corrupted `count` of `1e10` or `3.7` into a different crash schedule
/// instead of rejecting it.
pub fn fault_spec_from_json(events: &[Fields]) -> Result<FaultPlanSpec, String> {
    let events = events
        .iter()
        .map(|event| {
            Ok(FaultEventSpec {
                at_step: event.u64_string("at_step")?,
                placement: placement_from_json(event)?,
            })
        })
        .collect::<Result<Vec<_>, String>>()?;
    Ok(FaultPlanSpec::new(events))
}

/// Serializes a [`GraphSpec`] structurally: a `family` tag plus the
/// family's integer parameters.  Family seeds are full-width u64s and
/// travel as exact decimal strings like every other seed.
pub fn graph_spec_to_json(spec: GraphSpec) -> JsonValue {
    let obj = JsonValue::object();
    match spec {
        GraphSpec::DirectedRing => obj.with("family", "ring"),
        GraphSpec::UndirectedRing => obj.with("family", "undirected-ring"),
        GraphSpec::Complete => obj.with("family", "complete"),
        GraphSpec::Torus => obj.with("family", "torus"),
        GraphSpec::SmallWorld {
            k,
            rewire_per_mille,
            seed,
        } => obj
            .with("family", "small-world")
            .with("k", k as usize)
            .with("rewire_per_mille", rewire_per_mille as usize)
            .with("seed", seed.to_string().as_str()),
        GraphSpec::PreferentialAttachment { m, seed } => obj
            .with("family", "preferential-attachment")
            .with("m", m as usize)
            .with("seed", seed.to_string().as_str()),
        GraphSpec::RandomRegular { degree, seed } => obj
            .with("family", "random-regular")
            .with("degree", degree as usize)
            .with("seed", seed.to_string().as_str()),
    }
}

/// Rebuilds a [`GraphSpec`] from its [`graph_spec_to_json`] form.  Every
/// integer parses exactly or not at all, like the other spec decoders.
pub fn graph_spec_from_json(graph: &Fields) -> Result<GraphSpec, String> {
    let small = |field: &str| Ok::<_, String>(graph.uint(field, u16::MAX as u64)? as u16);
    Ok(match graph.str("family")? {
        "ring" => GraphSpec::DirectedRing,
        "undirected-ring" => GraphSpec::UndirectedRing,
        "complete" => GraphSpec::Complete,
        "torus" => GraphSpec::Torus,
        "small-world" => GraphSpec::SmallWorld {
            k: small("k")?,
            rewire_per_mille: graph.uint("rewire_per_mille", 1000)? as u16,
            seed: graph.u64_string("seed")?,
        },
        "preferential-attachment" => GraphSpec::PreferentialAttachment {
            m: small("m")?,
            seed: graph.u64_string("seed")?,
        },
        "random-regular" => GraphSpec::RandomRegular {
            degree: small("degree")?,
            seed: graph.u64_string("seed")?,
        },
        _ => return Err(graph.err("family", "names no graph family")),
    })
}

/// Serializes a [`ChurnPlanSpec`] structurally as an array of
/// `{"at_step": "…", "kind": "…", …}` events (steps as exact decimal
/// strings, like fault events).
pub fn churn_spec_to_json(spec: &ChurnPlanSpec) -> JsonValue {
    JsonValue::Array(
        spec.events()
            .iter()
            .map(|e| {
                let obj = JsonValue::object().with("at_step", e.at_step.to_string().as_str());
                match e.kind {
                    ChurnKindSpec::Rewire { count } => {
                        obj.with("kind", "rewire").with("count", count as usize)
                    }
                    ChurnKindSpec::Partition { blocks } => obj
                        .with("kind", "partition")
                        .with("blocks", blocks as usize),
                    ChurnKindSpec::Heal => obj.with("kind", "heal"),
                    ChurnKindSpec::Join { count } => {
                        obj.with("kind", "join").with("count", count as usize)
                    }
                    ChurnKindSpec::Leave { count } => {
                        obj.with("kind", "leave").with("count", count as usize)
                    }
                }
            })
            .collect(),
    )
}

/// Rebuilds a [`ChurnPlanSpec`] from the events of its
/// [`churn_spec_to_json`] array ([`Fields::items`]).  Zero extents and
/// single-block partitions are rejected here (not just at plan-build time),
/// so a corrupted artifact fails decoding instead of panicking during
/// replay.
pub fn churn_spec_from_json(events: &[Fields]) -> Result<ChurnPlanSpec, String> {
    let mut spec = ChurnPlanSpec::none();
    for event in events {
        let kind = match event.str("kind")? {
            "rewire" => ChurnKindSpec::Rewire {
                count: positive(event, "count")?,
            },
            "partition" => ChurnKindSpec::Partition {
                blocks: match event.uint("blocks", u32::MAX as u64)? {
                    blocks if blocks >= 2 => blocks as u32,
                    _ => return Err(event.err("blocks", "must be at least 2")),
                },
            },
            "heal" => ChurnKindSpec::Heal,
            "join" => ChurnKindSpec::Join {
                count: positive(event, "count")?,
            },
            "leave" => ChurnKindSpec::Leave {
                count: positive(event, "count")?,
            },
            _ => return Err(event.err("kind", "names no churn event")),
        };
        spec = spec.with_event(event.u64_string("at_step")?, kind);
    }
    Ok(spec)
}

/// Validates a parsed `BENCH_stabilization.json` against the expected
/// schema and returns its cells: schema tag and exactly decoded cells
/// ([`decode_cells`]), the base `rate_multipliers`, at least one island,
/// one cell per protocol × graph × size of the grid in grid order, and per
/// cell the invariants the pipeline guarantees — a positive budget, the
/// mean within it, `worst.steps ≥ mean_steps` (the pool-seeded search), a
/// livelock certificate consistent with the censored worst case, and a
/// well-formed rate curve (the base multipliers, then doublings up to
/// [`MAX_RATE_MULTIPLIER`], one non-decreasing fraction per multiplier).
/// Returns a description of the first violation.
pub fn validate_report(json: &JsonValue) -> Result<Vec<CellResult>, String> {
    let cells = decode_cells::<Report>(json)?;
    let header = Fields::new(json, "report");
    if header.uints("rate_multipliers", MAX_EXACT)? != RATE_MULTIPLIERS {
        return Err(format!("rate_multipliers must be {RATE_MULTIPLIERS:?}"));
    }
    if header.uint("islands", u32::MAX as u64)? < 1 {
        return Err("islands below 1".to_string());
    }
    check_grid::<Report>(&cells, &grid_points(&SIZES))?;
    for cell in &cells {
        validate_cell(cell)
            .map_err(|e| format!("cell {}: {e}", point_name(Report::point(cell))))?;
    }
    Ok(cells)
}

/// The per-cell invariants of [`validate_report`].
fn validate_cell(c: &CellResult) -> Result<(), String> {
    if c.budget == 0 {
        return Err("budget non-positive".to_string());
    }
    let mean = c.mean_steps;
    if !(0.0..=c.budget as f64).contains(&mean) {
        return Err(format!("mean_steps {mean} outside [0, budget]"));
    }
    if (c.worst_steps as f64) < mean {
        return Err(format!(
            "worst.steps {} below mean_steps {mean}",
            c.worst_steps
        ));
    }
    if let Some(cert) = &c.certified {
        if c.worst_converged {
            return Err("a certified livelock contradicts worst.converged = true".to_string());
        }
        if cert.period == 0 {
            return Err("certified livelock with degenerate period".to_string());
        }
        // The closure count is meaningful exactly when the walk finished.
        if cert.exhaustive != (cert.closure_configs != 0) {
            return Err(
                "certified livelock closure_configs must be nonzero iff exhaustive".to_string(),
            );
        }
    }
    // The cell's multipliers are the base curve plus zero or more doubling
    // escalations, never beyond the cap.
    let multipliers = &c.rate.multipliers;
    if !multipliers.starts_with(&RATE_MULTIPLIERS) {
        return Err(format!(
            "rate.multipliers must start with the base {RATE_MULTIPLIERS:?}"
        ));
    }
    for pair in multipliers[RATE_MULTIPLIERS.len() - 1..].windows(2) {
        if pair[1] != pair[0] * 2 {
            return Err(format!(
                "escalated multipliers must double ({} after {})",
                pair[1], pair[0]
            ));
        }
    }
    if multipliers.last() > Some(&MAX_RATE_MULTIPLIER) {
        return Err(format!(
            "rate.multipliers exceed the cap {MAX_RATE_MULTIPLIER}"
        ));
    }
    let fractions = &c.rate.fractions;
    if fractions.len() != multipliers.len() {
        return Err(format!(
            "rate.fractions must have {} entries (one per multiplier), found {}",
            multipliers.len(),
            fractions.len()
        ));
    }
    if let Some(pair) = fractions.windows(2).find(|p| p[1] < p[0]) {
        return Err(format!(
            "rate.fractions must be non-decreasing ({} after {})",
            pair[1], pair[0]
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tracked::{decode_cell, run};

    /// Tiny-grid options for tests: the full pipeline (pool, islands, rate
    /// replays, JSON) at test-affordable budgets.
    fn tiny_options(threads: usize) -> RunOptions {
        RunOptions {
            quick: true,
            sizes: vec![8],
            trials: 2,
            islands: 3,
            island_iterations: 2,
            replays: 3,
            threads: Some(threads),
        }
    }

    /// The tracked artifact's acceptance pin: the committed full-mode
    /// `BENCH_stabilization.json` validates against the v4 schema, carries
    /// at least one **certified** livelock, and every certified cell's
    /// certificate is reproduced bit-exactly by re-running the certifier on
    /// the candidate rebuilt from the JSON text — the replay contract,
    /// extended from "same step count" to "same recurrence and closure".
    /// The same file with one fault burst emptied must not validate.
    #[test]
    fn tracked_report_carries_a_replayable_certified_livelock() {
        let path = concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../BENCH_stabilization.json"
        );
        let text = std::fs::read_to_string(path).expect("tracked report exists");
        let parsed = JsonValue::parse(&text).expect("tracked report parses");
        let cells = validate_report(&parsed).expect("tracked report validates");
        assert_eq!(
            parsed.get("quick").and_then(JsonValue::as_bool),
            Some(false),
            "the tracked report is the full-mode run"
        );
        let mut certified_cells = 0;
        for cell in &cells {
            let Some(expected) = cell.certified else {
                continue;
            };
            certified_cells += 1;
            let (kind, graph, n) = Report::point(cell);
            let again = certify_cell(
                kind,
                graph,
                n,
                cell.budget,
                ESCALATION_STEP_CEILING,
                &cell.worst,
            )
            .expect("the certified cell must re-certify from its JSON candidate");
            assert_eq!(
                again,
                expected,
                "{}: replayed certificate differs from the artifact",
                point_name((kind, graph, n))
            );
        }
        assert!(
            certified_cells >= 1,
            "the tracked report must certify at least one livelock"
        );

        // One fault burst's `count` set to 0 fails validation: replaying a
        // burst that corrupts nobody would panic in `FaultPlan::at`.
        let burst = text
            .find("\"placement\":\"block\"")
            .or_else(|| text.find("\"placement\":\"random\""))
            .expect("the tracked report carries a counted fault burst");
        let count = burst + text[burst..].find("\"count\":").unwrap() + "\"count\":".len();
        let digits = text[count..].find(|c: char| !c.is_ascii_digit()).unwrap();
        let zeroed = format!("{}0{}", &text[..count], &text[count + digits..]);
        let zeroed = JsonValue::parse(&zeroed).expect("the edited report parses");
        assert!(
            validate_report(&zeroed).is_err(),
            "a zero-count burst validated"
        );
    }

    #[test]
    fn budgets_are_protocol_aware_and_quick_shrinks_them() {
        for kind in ProtocolKind::ALL {
            for n in SIZES {
                assert!(stab_budget(kind, n, true) < stab_budget(kind, n, false));
            }
        }
        // The cubic-class cap keeps n = 256 affordable.
        assert_eq!(
            stab_budget(ProtocolKind::FischerJiang, 256, false),
            6_000_000
        );
        assert!(stab_budget(ProtocolKind::FischerJiang, 64, false) < 6_000_000);
    }

    #[test]
    fn ppl_exposes_every_adversarial_init_family() {
        assert_eq!(variant_names(ProtocolKind::Ppl).len(), 6);
        assert_eq!(variant_names(ProtocolKind::Yokota), vec!["uniform-random"]);
    }

    #[test]
    fn evaluation_is_reproducible_and_censors_at_the_budget() {
        let candidate = Candidate::baseline(11);
        // A generous budget converges...
        let a = evaluate(
            ProtocolKind::Ppl,
            GridGraph::Ring,
            12,
            5_000_000,
            &candidate,
        );
        let b = evaluate(
            ProtocolKind::Ppl,
            GridGraph::Ring,
            12,
            5_000_000,
            &candidate,
        );
        assert_eq!(a, b, "evaluation must be deterministic");
        assert!(a.converged);
        // ... and a one-step budget censors.
        let censored = evaluate(ProtocolKind::Ppl, GridGraph::Ring, 12, 1, &candidate);
        assert!(!censored.converged);
        assert_eq!(censored.steps, 1);
    }

    #[test]
    fn fault_bearing_candidates_replay_through_the_scenario_fault_path() {
        // A crash right at the fault-free convergence step must delay
        // convergence, and the fault-bearing evaluation must stay
        // deterministic — the certificate contract for the third axis.
        let kind = ProtocolKind::Yokota;
        let graph = GridGraph::Ring;
        let n = 12;
        let budget = 5_000_000;
        let clean = evaluate(kind, graph, n, budget, &Candidate::baseline(3));
        assert!(clean.converged);
        let crashed = Candidate {
            faults: FaultPlanSpec::none().with_event(clean.steps, FaultPlacementSpec::All),
            ..Candidate::baseline(3)
        };
        let a = evaluate(kind, graph, n, budget, &crashed);
        let b = evaluate(kind, graph, n, budget, &crashed);
        assert_eq!(a, b, "fault-bearing evaluation must be deterministic");
        assert!(
            a.steps > clean.steps,
            "a full crash at the convergence step must delay it \
             ({} vs clean {})",
            a.steps,
            clean.steps
        );
    }

    #[test]
    fn scorers_score_the_transition_outcome() {
        use population::{DynState, Interaction};
        // Fischer-Jiang style: both endpoints leaders -> the interaction
        // demotes one, so the leader-delta scorer must report a negative
        // (progress-making, hence unattractive) score; PPL segment scorer
        // runs end to end on a real configuration.
        let kind = ProtocolKind::Ppl;
        let n = 8;
        let proto = dyn_protocol(kind, n);
        let scorer = leader_delta_scorer(proto);
        let params = Params::for_ring(n);
        let states: Vec<DynState> =
            ssle_core::init::generate(InitialCondition::AllLeaders, n, &params, 3)
                .into_states()
                .into_iter()
                .map(DynState::new)
                .collect();
        let score = scorer(&states, Interaction::new(0, 1));
        assert!(score <= 0.0, "eliminating interactions are unattractive");

        let seg_scorer = ppl_segment_scorer(n);
        let seg_score = seg_scorer(&states, Interaction::new(0, 1));
        assert!(seg_score.is_finite() && seg_score >= 0.0);
    }

    #[test]
    fn report_schema_round_trips_and_validates() {
        // Hand-built report with the right grid so the test costs no
        // simulation time.
        let cells = ProtocolKind::ALL
            .iter()
            .flat_map(|kind| {
                GridGraph::ALL.iter().flat_map(move |graph| {
                    graph.sizes(&SIZES).iter().map(move |&n| CellResult {
                        kind: *kind,
                        graph: *graph,
                        n,
                        budget: 1_000_000,
                        trials: 5,
                        mean_steps: 2.0e4,
                        converged_fraction: 1.0,
                        worst: Candidate {
                            // A full-width u64: must survive JSON exactly
                            // (the string encoding; `as f64` would round
                            // it).
                            seed: u64::MAX - 12,
                            spec: SchedulerSpec::EpochPartition {
                                blocks: 4,
                                epoch_len: 256,
                            },
                            faults: FaultPlanSpec::none().with_event(
                                9_000,
                                FaultPlacementSpec::Block { start: 3, count: 7 },
                            ),
                            ..Candidate::baseline(0)
                        },
                        worst_steps: 90_000,
                        worst_converged: true,
                        best_island: 2,
                        search_evaluations: 20,
                        search_seed: 3,
                        certified: None,
                        rate: RateCurve {
                            multipliers: RATE_MULTIPLIERS.to_vec(),
                            fractions: vec![0.25, 0.5, 1.0],
                            replay_seed: u64::MAX - 99,
                        },
                    })
                })
            })
            .collect::<Vec<_>>();
        // The report shell of these hand-built cells.
        let shell = RunOptions {
            trials: 5,
            island_iterations: 5,
            ..RunOptions::new(true)
        };
        let to_json = |cells: &[CellResult]| Report::assemble(&shell, cells);
        let report = cells;
        let text = to_json(&report).to_json();
        let parsed = JsonValue::parse(&text).expect("emitted JSON parses");
        let decoded = validate_report(&parsed).expect("schema validates");
        assert_eq!(
            Report::closing_note(&decoded),
            None,
            "a curve discriminates"
        );
        assert!(Report::markdown(&report).contains("| ppl | ring | 64 |"));
        assert!(Report::markdown(&report).contains("0.25/0.50/1.00"));

        // The full-width seed and the fault spec round-trip exactly through
        // the JSON text.
        let candidate = &decoded[0].worst;
        assert_eq!(candidate.seed, u64::MAX - 12);
        assert_eq!(
            candidate.spec,
            SchedulerSpec::EpochPartition {
                blocks: 4,
                epoch_len: 256
            }
        );
        assert_eq!(
            candidate.faults,
            FaultPlanSpec::none()
                .with_event(9_000, FaultPlacementSpec::Block { start: 3, count: 7 })
        );

        // Violations are caught.
        assert!(validate_report(&JsonValue::object()).is_err());
        let mut broken = report.clone();
        broken[0].worst_steps = 1; // below the mean
        let parsed = JsonValue::parse(&to_json(&broken).to_json()).unwrap();
        let err = validate_report(&parsed).unwrap_err();
        assert!(err.contains("below mean_steps"), "{err}");
        let mut broken = report.clone();
        broken[0].rate.fractions = vec![0.5, 0.25, 1.0]; // decreasing
        let parsed = JsonValue::parse(&to_json(&broken).to_json()).unwrap();
        let err = validate_report(&parsed).unwrap_err();
        assert!(err.contains("non-decreasing"), "{err}");
        let mut broken = report.clone();
        broken[0].rate.fractions = vec![0.5]; // wrong length
        let parsed = JsonValue::parse(&to_json(&broken).to_json()).unwrap();
        assert!(validate_report(&parsed).is_err());
        // A fault spec is only the bare event array: an object shape such
        // as `{"events": [...]}` does not decode.
        let mut retired = JsonValue::parse(&text).unwrap();
        let JsonValue::Array(cells) = field_mut(&mut retired, "cells") else {
            panic!("cells is an array");
        };
        let faults = field_mut(field_mut(&mut cells[0], "worst"), "faults");
        *faults = JsonValue::object().with("events", faults.clone());
        assert!(cell_from_json(&cells[0]).is_err());
        let name = |key: &str| cells[0].get(key).and_then(JsonValue::as_str).unwrap();
        let n = cells[0].get("n").and_then(JsonValue::as_f64).unwrap();
        let cell = format!("cell {}/{}/{n}:", name("protocol"), name("graph"));
        let err = validate_report(&retired).unwrap_err();
        assert!(err.starts_with(&cell) && err.contains("faults"), "{err}");

        // An escalated cell carries its own multipliers (base + doublings)
        // and one fraction per multiplier.
        let mut escalated = report.clone();
        escalated[0].worst_converged = false;
        escalated[0].worst_steps = 1_000_000;
        escalated[0].rate.multipliers = vec![1, 2, 4, 8, 16];
        escalated[0].rate.fractions = vec![0.0, 0.0, 0.0, 0.0, 0.5];
        let parsed = JsonValue::parse(&to_json(&escalated).to_json()).unwrap();
        validate_report(&parsed).expect("escalated multipliers validate");
        // ... but a non-doubling or over-cap escalation is rejected.
        let mut bad = escalated.clone();
        bad[0].rate.multipliers = vec![1, 2, 4, 12, 16];
        let parsed = JsonValue::parse(&to_json(&bad).to_json()).unwrap();
        assert!(validate_report(&parsed).unwrap_err().contains("double"));
        let mut bad = escalated.clone();
        bad[0].rate.multipliers = vec![1, 2, 4, 8, 16, 32];
        bad[0].rate.fractions = vec![0.0; 6];
        let parsed = JsonValue::parse(&to_json(&bad).to_json()).unwrap();
        assert!(validate_report(&parsed).unwrap_err().contains("cap"));

        // A certified livelock round-trips exactly and is cross-checked
        // against worst.converged.
        let cert = CertifiedLivelock {
            entry_step: 905_986,
            period: 166_920,
            config_digest: u64::MAX - 31,
            phase: 1_064,
            exhaustive: true,
            closure_configs: 39,
        };
        let mut with_cert = report.clone();
        with_cert[0].worst_converged = false;
        with_cert[0].worst_steps = 1_000_000;
        with_cert[0].certified = Some(cert);
        let parsed = JsonValue::parse(&to_json(&with_cert).to_json()).unwrap();
        validate_report(&parsed).expect("certified cell validates");
        let cell_json = &parsed.get("cells").and_then(JsonValue::as_array).unwrap()[0];
        let round = certified(cell_json).expect("well-formed certificate");
        assert_eq!(round, cert, "full-width digest survives the text");
        let mut contradicted = with_cert.clone();
        contradicted[0].worst_converged = true;
        let parsed = JsonValue::parse(&to_json(&contradicted).to_json()).unwrap();
        let err = validate_report(&parsed).unwrap_err();
        assert!(err.contains("contradicts"), "{err}");

        // A recurrence-tier certificate (closure inconclusive) validates;
        // a closure count that disagrees with the exhaustive flag does not.
        let recurrence_tier = CertifiedLivelock {
            exhaustive: false,
            closure_configs: 0,
            ..cert
        };
        let mut recurrence_only = with_cert.clone();
        recurrence_only[0].certified = Some(recurrence_tier);
        let parsed = JsonValue::parse(&to_json(&recurrence_only).to_json()).unwrap();
        validate_report(&parsed).expect("recurrence-tier cell validates");
        let cell_json = &parsed.get("cells").and_then(JsonValue::as_array).unwrap()[0];
        let round = certified(cell_json).expect("well-formed certificate");
        assert_eq!(round, recurrence_tier);
        let mut mismatched = with_cert.clone();
        mismatched[0].certified = Some(CertifiedLivelock {
            exhaustive: false,
            ..cert
        });
        let parsed = JsonValue::parse(&to_json(&mismatched).to_json()).unwrap();
        let err = validate_report(&parsed).unwrap_err();
        assert!(err.contains("iff exhaustive"), "{err}");
    }

    /// The certificate of a stored cell, decoded on its own.
    fn certified(cell: &JsonValue) -> Result<CertifiedLivelock, String> {
        let worst = Fields::new(cell, "cell").object("worst")?;
        certified_from_json(&worst.object("certified")?)
    }

    /// Decodes a bare spec object through its codec.
    fn spec(json: &JsonValue) -> Result<SchedulerSpec, String> {
        spec_from_json(&Fields::new(json, "test"))
    }

    /// Decodes a bare fault-event array through its codec.
    fn faults(json: &JsonValue) -> Result<FaultPlanSpec, String> {
        let holder = JsonValue::object().with("faults", json.clone());
        fault_spec_from_json(&Fields::new(&holder, "test").items("faults")?)
    }

    /// Decodes a bare churn-event array through its codec.
    fn churn(json: &JsonValue) -> Result<ChurnPlanSpec, String> {
        let holder = JsonValue::object().with("churn", json.clone());
        churn_spec_from_json(&Fields::new(&holder, "test").items("churn")?)
    }

    /// The value under `key` of a JSON object, for editing.
    fn field_mut<'a>(value: &'a mut JsonValue, key: &str) -> &'a mut JsonValue {
        let JsonValue::Object(entries) = value else {
            panic!("{key}: not an object");
        };
        let (_, v) = entries
            .iter_mut()
            .find(|(k, _)| k == key)
            .unwrap_or_else(|| panic!("{key} missing"));
        v
    }

    #[test]
    fn every_spec_shape_round_trips_through_json() {
        for spec in [
            SchedulerSpec::Random,
            SchedulerSpec::Weighted {
                hot_per_mille: 355,
                bias: 40,
                seed: u64::MAX - 3,
            },
            SchedulerSpec::EpochPartition {
                blocks: 8,
                epoch_len: 2294,
            },
            SchedulerSpec::EpochPartition {
                blocks: u32::MAX,
                // Beyond 2^53: the v2 `as f64` round trip silently rounded
                // this; the decimal-string path must keep it exact.
                epoch_len: u64::MAX - 5,
            },
            SchedulerSpec::Greedy { candidates: 4 },
        ] {
            let text = spec_to_json(&spec).to_json();
            let parsed = JsonValue::parse(&text).unwrap();
            assert_eq!(self::spec(&parsed), Ok(spec));
        }
        assert_eq!(
            self::spec(&JsonValue::object()),
            Err("test: kind missing".to_string())
        );

        // The topology axes of a certificate: every graph family and every
        // churn event kind.
        for graph in [
            GraphSpec::DirectedRing,
            GraphSpec::UndirectedRing,
            GraphSpec::Complete,
            GraphSpec::Torus,
            GraphSpec::SmallWorld {
                k: 2,
                rewire_per_mille: 1000,
                seed: u64::MAX,
            },
            GraphSpec::PreferentialAttachment { m: 3, seed: 7 },
            GraphSpec::RandomRegular { degree: 4, seed: 9 },
        ] {
            let parsed = JsonValue::parse(&graph_spec_to_json(graph).to_json()).unwrap();
            assert_eq!(
                graph_spec_from_json(&Fields::new(&parsed, "test")),
                Ok(graph)
            );
        }
        let plan = ChurnPlanSpec::none()
            .with_event(5, ChurnKindSpec::Rewire { count: 3 })
            .with_event(u64::MAX - 1, ChurnKindSpec::Partition { blocks: 2 })
            .with_event(9, ChurnKindSpec::Heal)
            .with_event(11, ChurnKindSpec::Join { count: 1 })
            .with_event(13, ChurnKindSpec::Leave { count: 2 });
        let parsed = JsonValue::parse(&churn_spec_to_json(&plan).to_json()).unwrap();
        assert_eq!(churn(&parsed), Ok(plan));
    }

    /// The exactness bugfix pin: integer fields that used to truncate
    /// through `as f64 … as uN` casts now reject non-integral and
    /// out-of-range values instead of quietly rebuilding a *different*
    /// certificate from a corrupted artifact.
    #[test]
    fn corrupted_integer_fields_are_rejected_not_truncated() {
        let weighted = |hot: JsonValue, bias: JsonValue| {
            JsonValue::object()
                .with("kind", "weighted")
                .with("hot_per_mille", hot)
                .with("bias", bias)
                .with("seed", "7")
        };
        // A fractional hot_per_mille would have truncated 355.7 -> 355.
        assert!(spec(&weighted(JsonValue::Number(355.7), JsonValue::Number(1.0))).is_err());
        // An out-of-range hot_per_mille would have wrapped mod 2^16.
        assert_eq!(
            spec(&weighted(
                JsonValue::Number(70_000.0),
                JsonValue::Number(1.0)
            )),
            Err("test: hot_per_mille must be an integer in [0, 65535]".to_string())
        );
        // bias beyond u32 likewise.
        assert!(spec(&weighted(JsonValue::Number(1.0), JsonValue::Number(5e9))).is_err());
        // epoch-partition: fractional blocks, and epoch_len as a number
        // (the rounded v2 encoding) instead of the exact string.
        let epoch = JsonValue::object()
            .with("kind", "epoch-partition")
            .with("blocks", JsonValue::Number(3.5))
            .with("epoch_len", "856");
        assert!(spec(&epoch).is_err());
        let epoch_num = JsonValue::object()
            .with("kind", "epoch-partition")
            .with("blocks", JsonValue::Number(3.0))
            .with("epoch_len", JsonValue::Number(856.0));
        assert_eq!(
            spec(&epoch_num),
            Err("test: epoch_len must be a string".to_string()),
            "v3 requires the exact decimal-string epoch_len"
        );
        // Fault placements: a fractional or oversized count/start must fail
        // the whole plan.
        let event = |count: JsonValue| {
            JsonValue::Array(vec![JsonValue::object()
                .with("at_step", "5")
                .with("placement", "random")
                .with("count", count)])
        };
        assert!(faults(&event(JsonValue::Number(3.5))).is_err());
        assert!(faults(&event(JsonValue::Number(1e10))).is_err());
        assert!(faults(&event(JsonValue::Number(17.0))).is_ok());
        // A burst that corrupts nobody is rejected, not replayed into a
        // panicking `FaultPlan::at`.
        let zero = |placement: &str, field: &str| {
            JsonValue::Array(vec![JsonValue::object()
                .with("at_step", "5")
                .with("placement", placement)
                .with("start", 0usize)
                .with(field, 0usize)])
        };
        for (placement, field) in [
            ("random", "count"),
            ("block", "count"),
            ("targeted", "limit"),
        ] {
            assert_eq!(
                faults(&zero(placement, field)),
                Err(format!("test: faults[0].{field} must be positive"))
            );
        }
        // Churn events: a zero extent or a one-block partition fails too.
        let event = |kind: &str, field: &str, value: usize| {
            JsonValue::Array(vec![JsonValue::object()
                .with("at_step", "5")
                .with("kind", kind)
                .with(field, value)])
        };
        assert_eq!(
            churn(&event("leave", "count", 0)),
            Err("test: churn[0].count must be positive".to_string())
        );
        assert_eq!(
            churn(&event("partition", "blocks", 1)),
            Err("test: churn[0].blocks must be at least 2".to_string())
        );
        assert!(churn(&event("partition", "blocks", 2)).is_ok());

        // The cell fields of the committed report: a fractional, negative
        // or out-of-range value fails validation, naming the field.
        let path = concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../BENCH_stabilization.json"
        );
        let text = std::fs::read_to_string(path).expect("tracked report exists");
        let report = JsonValue::parse(&text).expect("tracked report parses");
        for (object, field, value) in [
            (None, "budget", 524_288.5),
            (Some("worst"), "steps", 524_288.5),
            (Some("worst"), "best_island", 2.5),
            (Some("worst"), "search_evaluations", -20.0),
            (None, "trials", -5.5),
            (None, "converged_fraction", 7.0),
        ] {
            let mut corrupted = report.clone();
            let JsonValue::Array(cells) = field_mut(&mut corrupted, "cells") else {
                panic!("cells is an array");
            };
            let owner = match object {
                Some(name) => field_mut(&mut cells[0], name),
                None => &mut cells[0],
            };
            *field_mut(owner, field) = JsonValue::Number(value);
            let err = validate_report(&corrupted).unwrap_err();
            assert!(err.contains(field), "{field} = {value} accepted? {err}");
        }

        // A corruption nested in a spec codec names its full path.  Cell 0
        // carries an epoch-partition spec, a block fault and a certificate;
        // no committed cell has a graph override, so one is added.
        for path in [
            "worst.spec.blocks",
            "worst.faults[0].count",
            "worst.certified.period",
            "worst.graph_override.rewire_per_mille",
        ] {
            let mut corrupted = report.clone();
            let JsonValue::Array(cells) = field_mut(&mut corrupted, "cells") else {
                panic!("cells is an array");
            };
            let worst = field_mut(&mut cells[0], "worst");
            match path {
                "worst.spec.blocks" => {
                    *field_mut(field_mut(worst, "spec"), "blocks") = JsonValue::Number(4.5)
                }
                "worst.faults[0].count" => {
                    let JsonValue::Array(events) = field_mut(worst, "faults") else {
                        panic!("faults is an array");
                    };
                    *field_mut(&mut events[0], "count") = JsonValue::Number(0.0)
                }
                "worst.certified.period" => {
                    *field_mut(field_mut(worst, "certified"), "period") = JsonValue::Number(2.5)
                }
                _ => {
                    let small_world = JsonValue::object()
                        .with("family", "small-world")
                        .with("k", 2usize)
                        .with("rewire_per_mille", 1001usize)
                        .with("seed", "1");
                    *worst = worst.clone().with("graph_override", small_world)
                }
            }
            let err = validate_report(&corrupted).unwrap_err();
            assert!(
                err.starts_with(&format!("cell angluin-mod-k/ring/64: {path} must be ")),
                "{path}: {err}"
            );
        }
    }

    #[test]
    fn every_fault_spec_shape_round_trips_through_json() {
        for spec in [
            FaultPlanSpec::none(),
            FaultPlanSpec::none().with_event(0, FaultPlacementSpec::All),
            FaultPlanSpec::none()
                // A step beyond 2^53: must survive JSON exactly (the string
                // encoding; an f64 number would round it).
                .with_event(u64::MAX - 7, FaultPlacementSpec::Random { count: 17 })
                .with_event(5, FaultPlacementSpec::Block { start: 0, count: 1 }),
            FaultPlanSpec::none().with_event(3, FaultPlacementSpec::Targeted { limit: 2 }),
        ] {
            let text = fault_spec_to_json(&spec).to_json();
            let parsed = JsonValue::parse(&text).unwrap();
            assert_eq!(faults(&parsed), Ok(spec));
        }
        assert!(faults(&JsonValue::object()).is_err());

        // A spec is always the bare array of timed events — the committed
        // certificates' bytes.
        let timed = FaultPlanSpec::none().with_event(9, FaultPlacementSpec::All);
        assert!(fault_spec_to_json(&timed).to_json().starts_with('['));
    }

    /// End to end on a tiny cell: the quick grid machinery produces a cell
    /// whose worst is at least its mean, the cell is deterministic, and —
    /// the certificate contract — replaying the worst case **from the
    /// serialized JSON artifact** yields the identical step count.
    #[test]
    fn tiny_cell_search_produces_a_reproducible_certificate() {
        let kind = ProtocolKind::Yokota;
        let graph = GridGraph::Ring;
        let n = 8;
        let options = tiny_options(1);
        let runner = BatchRunner::with_threads(1);
        let cell = run_cell(kind, graph, n, &options, &runner);
        assert!(cell.worst_steps as f64 >= cell.mean_steps);
        assert_eq!(cell.trials, 2);
        assert_eq!(cell.rate.fractions.len(), cell.rate.multipliers.len());
        assert_eq!(
            cell.rate.multipliers[..RATE_MULTIPLIERS.len()],
            RATE_MULTIPLIERS
        );
        let again = run_cell(kind, graph, n, &options, &runner);
        assert_eq!(cell.worst_steps, again.worst_steps, "cells deterministic");

        // Replay the certificate through the JSON text, exactly as a
        // consumer of the committed artifact would: serialize, parse,
        // rebuild the candidate, evaluate.
        let budget = cell.budget;
        let worst_steps = cell.worst_steps;
        let report = Report::assemble(&options, &[cell]);
        let parsed = JsonValue::parse(&report.to_json()).unwrap();
        let cell_json = &parsed.get("cells").and_then(JsonValue::as_array).unwrap()[0];
        let decoded = decode_cell::<Report>(cell_json).expect("the cell decodes from JSON");
        let replay = evaluate(kind, graph, n, budget, &decoded.worst);
        assert_eq!(
            replay.steps, worst_steps,
            "the serialized certificate must reproduce the recorded step count"
        );
    }

    /// The explorer acceptance pin: exhaustive exploration of a tiny cell
    /// proves it stabilizes and yields the exact worst-case stabilization
    /// time — recovery under an optimal schedule from the worst reachable
    /// configuration.  Consistency with the sampled search: a fair random
    /// run from the same initial configuration converges (no reachable
    /// configuration is doomed) in at least that many steps, and the
    /// search's adversarial worst — a deliberately *bad* schedule, possibly
    /// censored at the budget — dominates the exact bound too.  A censored
    /// sampled worst does not contradict `Stabilizes`: the verdict says
    /// every reachable configuration *can* recover, not that an adversarial
    /// schedule must let it.
    #[test]
    fn explorer_exact_worst_case_is_consistent_with_the_sampled_search() {
        let kind = ProtocolKind::Yokota;
        let graph = GridGraph::Ring;
        let n = 4;
        let options = tiny_options(1);
        let budget = stab_budget(kind, n, options.quick);
        let explored = stab_scenario(kind, graph, 0, budget)
            .explore(
                &SweepPoint::new(n, 0xE6),
                &population::ExploreLimits::default(),
            )
            .expect("tiny ring cell explores");
        let population::ExploreVerdict::Stabilizes {
            exact_worst_steps, ..
        } = explored.verdict
        else {
            panic!("tiny cell must stabilize, got {:?}", explored.verdict);
        };
        // The exact numbers are deterministic properties of the protocol on
        // the directed 4-ring: 1498 reachable configurations, worst-case
        // optimal recovery in 11 interactions.
        assert_eq!(explored.reachable, 1498);
        assert_eq!(exact_worst_steps, 11);
        // A fair (random-scheduler, fault-free) run from the same initial
        // configuration converges, as the Stabilizes verdict demands.
        let fair = evaluate(kind, graph, n, budget, &Candidate::baseline(0xE6));
        assert!(fair.converged, "a fair run of a stabilizing cell converges");
        assert!(
            fair.steps >= exact_worst_steps,
            "a fair run ({}) cannot undercut the optimal-recovery bound \
             ({exact_worst_steps})",
            fair.steps
        );
        let runner = BatchRunner::with_threads(1);
        let cell = run_cell(kind, graph, n, &options, &runner);
        assert!(
            cell.worst_steps >= exact_worst_steps,
            "sampled worst ({}) cannot undercut the exact optimal-recovery \
             bound ({exact_worst_steps})",
            cell.worst_steps
        );
    }

    /// The generated-family counterpart of the exact-explorer pin: the
    /// 2×2 torus (`torus_dims(4)`) is the undirected 4-cycle — 8 arcs,
    /// every lattice direction collapsing pairwise — and the explorer's
    /// exact numbers on it are deterministic properties of the protocol,
    /// pinned here so topology regressions in the torus constructor surface
    /// as a changed state space, not just a changed sample.  The pin also
    /// records a genuine topology-sensitivity fact: Angluin mod-k
    /// stabilizes on the 4-cycle (1248 reachable configurations, exact
    /// worst-case recovery in 2 interactions), while the directed-ring
    /// Yokota baseline provably does **not** — 21941 of its 143974
    /// reachable configurations have no path back to the safe set.
    #[test]
    fn explorer_pins_the_two_by_two_torus_state_space() {
        use population::InteractionGraph;
        let graph = GridGraph::Torus;
        let n = 4;
        let built = graph.family().build(n).expect("2x2 torus builds");
        assert_eq!(built.num_arcs(), 8, "2x2 torus = C4, both directions");
        let options = tiny_options(1);

        // Angluin mod-k: exact state-space and optimal-recovery pin.
        let kind = ProtocolKind::AngluinModK;
        let budget = stab_budget(kind, n, options.quick);
        let explored = stab_scenario(kind, graph, 0, budget)
            .explore(
                &SweepPoint::new(n, 0x7A),
                &population::ExploreLimits::default(),
            )
            .expect("tiny torus cell explores");
        let population::ExploreVerdict::Stabilizes {
            exact_worst_steps, ..
        } = explored.verdict
        else {
            panic!("tiny torus cell must stabilize, got {:?}", explored.verdict);
        };
        assert_eq!(explored.reachable, 1248);
        assert_eq!(exact_worst_steps, 2);
        // The sampled search on the same cell cannot undercut the exact
        // optimal-recovery bound.
        let runner = BatchRunner::with_threads(1);
        let cell = run_cell(kind, graph, n, &options, &runner);
        assert!(
            cell.worst_steps >= exact_worst_steps,
            "sampled worst ({}) cannot undercut the exact bound \
             ({exact_worst_steps})",
            cell.worst_steps
        );

        // Yokota: the 4-ring's exact pin stabilizes (see the neighbouring
        // test); rerouted onto the undirected 4-cycle the same protocol is
        // exactly non-stabilizing — the topology axis is load-bearing.
        let kind = ProtocolKind::Yokota;
        let explored = stab_scenario(kind, graph, 0, stab_budget(kind, n, true))
            .explore(
                &SweepPoint::new(n, 0x7A),
                &population::ExploreLimits {
                    max_configs: 1 << 18,
                },
            )
            .expect("tiny torus cell explores");
        let population::ExploreVerdict::NonStabilizing { doomed, .. } = explored.verdict else {
            panic!(
                "yokota on the 2x2 torus must be non-stabilizing, got {:?}",
                explored.verdict
            );
        };
        assert_eq!(explored.reachable, 143_974);
        assert_eq!(doomed, 21_941);
    }

    /// The explorer covers the one oracle protocol: every step it walks is
    /// the oracle's broadcast followed by the interaction, exactly the step
    /// the simulation takes.  Fischer–Jiang on the directed 3-ring has at
    /// most 48³ configurations, so the walk is exhaustive.
    #[test]
    fn explorer_pins_fischer_jiang_on_the_three_ring() {
        let kind = ProtocolKind::FischerJiang;
        let graph = GridGraph::Ring;
        let n = 3;
        let budget = stab_budget(kind, n, true);
        let explored = stab_scenario(kind, graph, 0, budget)
            .explore(
                &SweepPoint::new(n, 0xE6),
                &population::ExploreLimits::default(),
            )
            .expect("tiny oracle cell explores");
        let population::ExploreVerdict::Stabilizes {
            exact_worst_steps,
            worst_config,
        } = explored.verdict
        else {
            panic!(
                "fischer-jiang on the 3-ring must stabilize, got {:?}",
                explored.verdict
            );
        };
        // Deterministic properties of the protocol and its oracle on the
        // directed 3-ring from this start: 152 reachable configurations,
        // 74 of them stable, worst-case optimal recovery in 6 interactions.
        assert_eq!(explored.reachable, 152);
        assert_eq!(explored.stop_configs, 74);
        assert_eq!(exact_worst_steps, 6);
        // Sampled runs agree: a fair run converges from the start, and from
        // the worst reachable configuration it converges no sooner than the
        // exact bound allows.
        let fair = evaluate(kind, graph, n, budget, &Candidate::baseline(0xE6));
        assert!(fair.converged, "a fair run of a stabilizing cell converges");
        let from_worst = stab_scenario(kind, graph, 0, budget)
            .with_initial(worst_config)
            .try_run(&SweepPoint::new(n, 0xE6))
            .expect("the worst configuration runs");
        assert!(
            from_worst.converged(),
            "every reachable configuration recovers"
        );
        assert!(
            from_worst.steps_executed >= exact_worst_steps,
            "a fair run ({}) cannot undercut the optimal-recovery bound \
             ({exact_worst_steps})",
            from_worst.steps_executed
        );
    }

    /// The adaptive escalation, pinned with synthetic evaluators so each
    /// regime is exercised deterministically and without simulation cost.
    #[test]
    fn rate_curve_escalates_geometrically_until_a_replay_converges() {
        let runner = BatchRunner::with_threads(1);
        let worst = Candidate::baseline(5);
        let budget = 100u64;
        // Replays converge at 750 steps: censored at the whole base curve
        // (max 4 x 100 = 400), so the curve escalates to 8x and stops.
        let curve = rate_curve_with(budget, &worst, false, 9, 3, u64::MAX, &runner, |_c, b| {
            Evaluation {
                steps: 750.min(b),
                converged: 750 <= b,
            }
        });
        assert_eq!(curve.multipliers, vec![1, 2, 4, 8]);
        assert_eq!(curve.fractions, vec![0.0, 0.0, 0.0, 1.0]);
        // Nothing ever converges: escalation runs to the multiplier cap.
        let stuck = rate_curve_with(budget, &worst, false, 9, 3, u64::MAX, &runner, |_c, b| {
            Evaluation {
                steps: b,
                converged: false,
            }
        });
        assert_eq!(stuck.multipliers, vec![1, 2, 4, 8, 16]);
        assert!(stuck.fractions.iter().all(|&f| f == 0.0));
        assert_eq!(*stuck.multipliers.last().unwrap(), MAX_RATE_MULTIPLIER);
        // The step ceiling blocks the rung that would exceed it:
        // 8 x 100 = 800 > 500.
        let capped = rate_curve_with(budget, &worst, false, 9, 3, 500, &runner, |_c, b| {
            Evaluation {
                steps: b,
                converged: false,
            }
        });
        assert_eq!(capped.multipliers, RATE_MULTIPLIERS.to_vec());
        // A certified livelock skips the escalation outright — the replays
        // provably cannot converge, so the extra steps would be wasted.
        let certified = rate_curve_with(budget, &worst, true, 9, 3, u64::MAX, &runner, |_c, b| {
            Evaluation {
                steps: b,
                converged: false,
            }
        });
        assert_eq!(certified.multipliers, RATE_MULTIPLIERS.to_vec());
    }

    /// The curve's two invariants, on a *mixed* replay population (seeds
    /// converge at different scales): fractions are monotone non-decreasing
    /// across multipliers, and the whole curve is bit-identical across
    /// `run_map` thread counts.
    #[test]
    fn rate_curve_fractions_are_monotone_and_thread_independent() {
        let worst = Candidate::baseline(5);
        let budget = 100u64;
        // Replay r converges at 60 x 2^(seed - 9): 60, 120, 240 steps for
        // the three replay seeds 9, 10, 11 — one per base multiplier rung.
        let eval = |c: &Candidate, b: u64| {
            let steps = 60u64.saturating_mul(2u64.pow((c.seed - 9) as u32));
            Evaluation {
                steps: steps.min(b),
                converged: steps <= b,
            }
        };
        let serial = rate_curve_with(
            budget,
            &worst,
            false,
            9,
            3,
            u64::MAX,
            &BatchRunner::with_threads(1),
            eval,
        );
        for pair in serial.fractions.windows(2) {
            assert!(
                pair[1] >= pair[0],
                "fractions must be non-decreasing: {:?}",
                serial.fractions
            );
        }
        assert_eq!(serial.fractions, vec![1.0 / 3.0, 2.0 / 3.0, 1.0]);
        let parallel = rate_curve_with(
            budget,
            &worst,
            false,
            9,
            3,
            u64::MAX,
            &BatchRunner::with_threads(4),
            eval,
        );
        assert_eq!(serial, parallel, "thread count must not change the curve");
    }

    /// The acceptance pin: the whole report pipeline — cells, pools,
    /// islands, rate replays, JSON serialization — emits **bit-identical**
    /// text under 1 worker thread and 4, at a fixed island count.
    #[test]
    fn report_json_is_bit_identical_across_thread_counts() {
        let serial = run::<Report>(&tiny_options(1), None)
            .unwrap()
            .json
            .to_json();
        let parallel = run::<Report>(&tiny_options(4), None)
            .unwrap()
            .json
            .to_json();
        assert_eq!(
            serial, parallel,
            "--threads must never change the report at a fixed island count"
        );
    }
}
