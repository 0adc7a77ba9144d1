//! Declarative, protocol-erased experiment scenarios.
//!
//! Every convergence experiment in this workspace has the same shape: build a
//! protocol, a graph and an initial configuration for a sweep point, optionally
//! corrupt agents according to a fault plan, run under the uniformly random
//! scheduler until a stop criterion holds or a step budget runs out, and
//! report a [`ConvergenceReport`].  Historically each protocol needed its own
//! monomorphized copy of that plumbing; this module provides **one** run path
//! for all of them.  [`ScenarioBuilder`] → [`Scenario`] is the declarative
//! layer tying a protocol factory, an initial-condition generator, a stop
//! criterion, a step budget and an optional fault plan together, runnable on
//! single [`SweepPoint`]s or whole [`SweepGrid`]s.
//!
//! The pieces it composes live next to their typed halves and are
//! re-exported here:
//!
//! * [`DynState`] / [`DynProtocol`] — type erasure for protocols and their
//!   per-agent states (`erase.rs`, over the inline slots of [`crate::slot`]);
//! * [`GraphFamily`] / [`AnyGraph`] — graph topologies selectable per
//!   scenario and instantiated per sweep point ([`crate::graph`]);
//! * [`DynScheduler`] / [`SchedulerFamily`] — the erased scheduler face and
//!   its per-run builder ([`crate::scheduler`]);
//! * [`FaultPlan`] ([`crate::faults`]) / [`ChurnPlan`] (`churn.rs`) —
//!   transient faults and topology changes scheduled into the run at
//!   explicit steps.
//!
//! The segment engine that drives every run (`engine.rs`) is private.
//!
//! # Example
//!
//! ```
//! use population::prelude::*;
//! use population::scenario::{GraphFamily, ScenarioBuilder};
//! use population::sweep::{SweepGrid, SweepPoint};
//!
//! /// Pairwise leader elimination: a leader meeting a leader demotes it.
//! #[derive(Clone, Debug)]
//! struct Fratricide;
//! impl Protocol for Fratricide {
//!     type State = bool;
//!     fn interact(&self, initiator: &mut bool, responder: &mut bool) {
//!         if *initiator && *responder {
//!             *responder = false;
//!         }
//!     }
//! }
//! impl LeaderElection for Fratricide {
//!     fn is_leader(&self, state: &bool) -> bool {
//!         *state
//!     }
//! }
//!
//! let scenario = ScenarioBuilder::new("fratricide", |_pt: &SweepPoint| Fratricide)
//!     .graph(GraphFamily::Complete)
//!     .init(|_p, pt| Configuration::uniform(pt.n, true))
//!     .stop_when("unique-leader", |p: &Fratricide, c| {
//!         p.has_unique_leader(c.states())
//!     })
//!     .check_every(|_pt| 1)
//!     .step_budget(|_pt| 100_000)
//!     .build()
//!     .unwrap();
//!
//! // One point …
//! let report = scenario.run(&SweepPoint::new(8, 42));
//! assert!(report.converged());
//!
//! // … or a whole grid, in parallel, grouped per population size.
//! let grid = SweepGrid::new().sizes(&[4, 8]).trials(3, 7);
//! let summaries = scenario.sweep_summaries(&grid, &BatchRunner::with_threads(2));
//! assert_eq!(summaries.len(), 2);
//! assert!(summaries.iter().all(|s| s.converged_fraction() == 1.0));
//! ```

use std::any::Any;
use std::fmt;
use std::rc::Rc;
use std::sync::Arc;

use rand_chacha::ChaCha8Rng;

use crate::batch::{group_by_size, BatchRunner, BatchSummary, Outcome};
use crate::churn::ChurnSchedule;
use crate::config::Configuration;
use crate::convergence::ConvergenceReport;
use crate::engine::{telemetry_run_start, DynCorrupt, DynTargets, FaultSchedule, Recurrence, Run};
use crate::error::{PopulationError, Result};
use crate::graph::InteractionGraph;
use crate::protocol::{LeaderElection, Protocol};
use crate::recurrence::RecurrenceCandidate;
use crate::simulation::{check_size, Simulation};
use crate::sweep::{SweepGrid, SweepPoint};

pub use crate::churn::{ChurnEvent, ChurnKind, ChurnPlan};
pub use crate::erase::{downcast_config, DynProtocol};
pub use crate::faults::{FaultEvent, FaultPlan};
pub use crate::graph::{AnyGraph, GraphFamily};
pub use crate::scheduler::{BuildScheduler, DynScheduler, SchedulerFamily};
pub use crate::slot::{DynState, SlotState};

type PointFn<T> = Arc<dyn Fn(&SweepPoint) -> T + Send + Sync>;
/// A stop criterion over erased states.  `FnMut` so the closure can reuse an
/// internal typed scratch configuration across checks instead of cloning the
/// whole population into a fresh allocation every time — cheap enough that
/// scenarios can shrink their `check_interval` without a quadratic penalty.
pub type DynStop = Box<dyn FnMut(&[DynState]) -> bool>;

/// Everything the erased run path needs for one sweep point, produced by the
/// typed closure captured at [`ScenarioBuilder::build`] time: the pieces
/// [`Scenario::prepare`] exposes, plus the fault machinery.
struct PreparedRun {
    scenario: PreparedScenario,
    corrupt: Option<DynCorrupt>,
    targets: Option<DynTargets>,
}

/// The erased pieces of one sweep point, exposed without running the
/// scenario: the protocol, the initial configuration and the stop predicate
/// exactly as the run loop would see them.  Produced by
/// [`Scenario::prepare`]; consumed by the exhaustive explorer and the
/// livelock certifier ([`mod@crate::explore`]).
pub struct PreparedScenario {
    /// The erased protocol.
    pub protocol: DynProtocol,
    /// The initial configuration (after the scenario's `init`).
    pub config: Configuration<DynState>,
    /// The erased stop predicate.
    pub stop: DynStop,
}

impl fmt::Debug for PreparedScenario {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("PreparedScenario")
            .field("protocol", &self.protocol)
            .field("agents", &self.config.len())
            .finish()
    }
}

/// The result of [`Scenario::run_full`]: the convergence report plus the
/// finished simulation for post-run inspection.
#[derive(Debug)]
pub struct ScenarioRun {
    /// The convergence report of the run.
    pub report: ConvergenceReport,
    /// The simulation in its final state (erased; downcast the configuration
    /// with [`downcast_config`] for typed inspection).
    pub sim: Simulation<DynProtocol, AnyGraph>,
}

/// A runnable, fully type-erased experiment: protocol × graph × initial
/// condition × optional fault plan × stop criterion × step budget.
///
/// Built with [`ScenarioBuilder`]; run on a single [`SweepPoint`] with
/// [`Scenario::run`] or over a [`SweepGrid`] with [`Scenario::sweep`] /
/// [`Scenario::sweep_summaries`].
#[derive(Clone)]
pub struct Scenario {
    name: String,
    stop_name: String,
    graph: GraphFamily,
    scheduler: SchedulerFamily,
    prepare: Arc<dyn Fn(&SweepPoint) -> PreparedRun + Send + Sync>,
    plan: Option<PointFn<FaultPlan>>,
    churn: ChurnPlan,
    initial: Option<Arc<Configuration<DynState>>>,
    check_interval: PointFn<u64>,
    max_steps: PointFn<u64>,
    sim_seed: PointFn<u64>,
    fault_seed: PointFn<u64>,
}

impl fmt::Debug for Scenario {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Scenario")
            .field("name", &self.name)
            .field("stop", &self.stop_name)
            .field("graph", &self.graph)
            .field("scheduler", &self.scheduler.name())
            .field("has_fault_plan", &self.plan.is_some())
            .field("has_churn_plan", &!self.churn.is_empty())
            .field("has_initial", &self.initial.is_some())
            .finish()
    }
}

impl Scenario {
    /// The scenario's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The stop criterion's name (the `criterion` field of produced reports).
    pub fn stop_name(&self) -> &str {
        &self.stop_name
    }

    /// The scheduler family driving this scenario's runs.
    pub fn scheduler(&self) -> &SchedulerFamily {
        &self.scheduler
    }

    /// The graph family this scenario instantiates at every sweep point —
    /// certification needs it to rebuild the exact arc list (same order as
    /// the running scheduler saw) outside the run loop.
    pub fn graph_family(&self) -> &GraphFamily {
        &self.graph
    }

    /// Returns this scenario with the scheduler family replaced — the hook
    /// the worst-case search uses to re-run one experiment definition under
    /// many adversarial schedulers without rebuilding the whole scenario.
    pub fn with_scheduler(mut self, scheduler: SchedulerFamily) -> Self {
        self.scheduler = scheduler;
        self
    }

    /// Returns this scenario with the fault plan replaced by a fixed `plan`
    /// (the same plan at every sweep point) — the fault-axis sibling of
    /// [`Scenario::with_scheduler`], used by the worst-case search to replay
    /// crash-schedule certificates through one experiment definition.
    ///
    /// The scenario must be fault-ready: its builder must have set a
    /// corruption function ([`ScenarioBuilder::corruption`] or
    /// [`ScenarioBuilder::faults`]), otherwise running with a non-empty plan
    /// reports [`PopulationError::MissingCorruption`] through the fallible
    /// run methods (and the infallible ones panic with that error).  An
    /// empty `plan` restores the fault-free fast path exactly.
    pub fn with_fault_plan(mut self, plan: FaultPlan) -> Self {
        self.plan = Some(Arc::new(move |_pt| plan.clone()));
        self
    }

    /// Returns this scenario with the churn plan replaced by a fixed `plan`
    /// (the same plan at every sweep point) — the topology-axis sibling of
    /// [`Scenario::with_fault_plan`], used to replay churn-schedule
    /// certificates through one experiment definition.
    ///
    /// Plans containing [`ChurnKind::Join`] events need the scenario to be
    /// fault-ready (a corruption function mints the joining agents' states);
    /// otherwise the fallible run methods report
    /// [`PopulationError::MissingCorruption`].  An empty `plan` restores the
    /// churn-free fast path exactly.
    pub fn with_churn_plan(mut self, plan: ChurnPlan) -> Self {
        self.churn = plan;
        self
    }

    /// Returns this scenario with the interaction-graph family replaced —
    /// the static half of the topology axis (the dynamic half is
    /// [`Scenario::with_churn_plan`]), used to replay worst cases found on
    /// a generated family through one experiment definition.
    pub fn with_graph(mut self, graph: GraphFamily) -> Self {
        self.graph = graph;
        self
    }

    /// Replaces the prepared initial configuration with a fixed erased
    /// configuration, the same at every sweep point — the hook the recovery
    /// benchmark uses to restart runs from a previously converged *safe*
    /// configuration (captured via [`ScenarioRun::sim`]) instead of the
    /// scenario's own `init`.
    ///
    /// The override's length must match the sweep point's population size;
    /// otherwise the fallible run methods report
    /// [`PopulationError::ConfigurationSizeMismatch`] (and the infallible
    /// ones panic with it).
    pub fn with_initial(mut self, config: Configuration<DynState>) -> Self {
        self.initial = Some(Arc::new(config));
        self
    }

    /// Prepares a point and applies the [`Scenario::with_initial`] override.
    fn prepared_run(&self, point: &SweepPoint) -> Result<PreparedRun> {
        let mut prepared = (self.prepare)(point);
        if let Some(initial) = &self.initial {
            check_size(initial.len(), prepared.scenario.config.len())?;
            prepared.scenario.config = (**initial).clone();
        }
        Ok(prepared)
    }

    /// Runs the scenario at one sweep point and returns the report.
    ///
    /// # Panics
    ///
    /// Panics if the graph family cannot be built for `point.n` (e.g.
    /// `n < 2`), if a non-empty fault plan is set without a corruption
    /// function, or if a deterministic custom scheduler exhausts mid-run
    /// (use [`Scenario::try_run`] to handle these as typed errors).
    pub fn run(&self, point: &SweepPoint) -> ConvergenceReport {
        self.run_full(point).report
    }

    /// Like [`Scenario::run`] but also returns the finished simulation for
    /// post-run inspection (leader counts, final states, statistics).
    ///
    /// # Panics
    ///
    /// See [`Scenario::run`].
    pub fn run_full(&self, point: &SweepPoint) -> ScenarioRun {
        self.try_run_full(point)
            .unwrap_or_else(|e| panic!("scenario {:?}: {e}", self.name))
    }

    /// Fallible variant of [`Scenario::run`].
    ///
    /// # Errors
    ///
    /// Propagates graph-construction errors and scheduler errors — in
    /// particular [`PopulationError::ScheduleExhausted`] when a
    /// deterministic custom scheduler runs out of interactions before the
    /// stop criterion holds or the budget is spent — and reports
    /// [`PopulationError::MissingCorruption`] when a non-empty fault plan is
    /// set without a corruption function, and
    /// [`PopulationError::ConfigurationSizeMismatch`] when the graph and the
    /// initial configuration differ in size.
    pub fn try_run(&self, point: &SweepPoint) -> Result<ConvergenceReport> {
        Ok(self.try_run_full(point)?.report)
    }

    /// Fallible variant of [`Scenario::run_full`].
    ///
    /// # Errors
    ///
    /// See [`Scenario::try_run`].
    pub fn try_run_full(&self, point: &SweepPoint) -> Result<ScenarioRun> {
        let mut run = self.start(point)?;
        let report = self.converge(point, &mut run)?;
        Ok(ScenarioRun {
            report,
            sim: run.sim,
        })
    }

    /// The set-up every run shares, done once: prepares the point, builds
    /// the graph, opens the telemetry scope, starts the simulation, the fault
    /// and churn schedules and the step source, and fires the step-0 events.
    fn start(&self, point: &SweepPoint) -> Result<Run> {
        let prepared = self.prepared_run(point)?;
        let graph = self.graph.build(point.n)?;
        let sim_seed = (self.sim_seed)(point);
        let scope = ssle_telemetry::run_scope(&self.name, point.n as u64, sim_seed);
        telemetry_run_start();
        let erased = prepared.scenario;
        let mut sim = Simulation::try_new(erased.protocol, graph, erased.config, sim_seed)?;
        let plan = self.plan.as_ref().map(|f| f(point)).unwrap_or_default();
        let fault_seed = (self.fault_seed)(point);
        let corrupt = prepared.corrupt;
        let mut faults = FaultSchedule::new(plan, corrupt.clone(), prepared.targets, fault_seed)?;
        let mut churn = ChurnSchedule::new(&self.churn, self.graph.clone(), corrupt, fault_seed)?;
        let scheduler = match &self.scheduler {
            SchedulerFamily::Random => None,
            SchedulerFamily::Custom { build, .. } => Some(build(point, sim.graph())),
        };
        churn.fire_due(0, &mut sim)?;
        faults.fire_due(0, &mut sim);
        Ok(Run {
            sim,
            scheduler,
            faults,
            churn,
            stop: erased.stop,
            detector: None,
            _scope: scope,
        })
    }

    /// Drives `run` until the stop predicate holds at a check boundary (every
    /// `check_interval` steps, and once at step 0) or the step budget is
    /// spent, and reports the outcome.
    fn converge(&self, point: &SweepPoint, run: &mut Run) -> Result<ConvergenceReport> {
        let check_interval = (self.check_interval)(point).max(1);
        let max_steps = (self.max_steps)(point);
        let (steps, converged) = run.drive(check_interval, max_steps, |run| {
            (run.stop)(run.sim.config().states())
        })?;
        Ok(ConvergenceReport {
            converged_at: converged.then_some(steps),
            steps_executed: steps,
            max_steps,
            check_interval,
            criterion: std::borrow::Cow::Owned(self.stop_name.clone()),
        })
    }

    /// Runs every point of the grid in parallel and returns per-point
    /// outcomes in grid order.
    pub fn sweep(&self, grid: &SweepGrid, runner: &BatchRunner) -> Vec<Outcome<SweepPoint>> {
        runner.run_points(&grid.points(), |pt| self.run(pt))
    }

    /// Runs every point of the grid in parallel and groups the outcomes per
    /// population size (the shape the analysis layer consumes).
    ///
    /// # Panics
    ///
    /// Panics if the grid has value axes: grouping by size alone would
    /// silently average outcomes across different experimental conditions.
    /// Use [`Scenario::sweep`] and group by the axis values yourself (as the
    /// `fig_kappa` binary does for its `c1` axis).
    pub fn sweep_summaries(&self, grid: &SweepGrid, runner: &BatchRunner) -> Vec<BatchSummary> {
        let outcomes = self.sweep(grid, runner);
        for o in &outcomes {
            assert!(
                o.point.values().is_empty(),
                "sweep_summaries would conflate the value axes {:?}; \
                 use Scenario::sweep and group by axis value instead",
                o.point.values().iter().map(|(k, _)| k).collect::<Vec<_>>()
            );
        }
        group_by_size(outcomes)
    }

    /// Leader-count trajectory of one run, sampled every `sample_every`
    /// steps (including step 0).  Uses the erased leader output, so it works
    /// for every leader-election scenario; the scenario's fault plan (if any)
    /// fires at its scheduled steps exactly as it does under
    /// [`Scenario::run`], and the scenario's scheduler family drives the
    /// steps exactly as it does there too.
    ///
    /// Each sample counts the leaders of the configuration at its step
    /// (O(n) per sample), so the steps in between run in blocks exactly as
    /// under [`Scenario::run`], and a fault or churn event between two
    /// samples needs no resync.
    ///
    /// # Panics
    ///
    /// Panics on graph or scheduler errors; use
    /// [`Scenario::try_leader_trajectory`] to handle e.g. deterministic
    /// scheduler exhaustion as a typed error.
    pub fn leader_trajectory(
        &self,
        point: &SweepPoint,
        total_steps: u64,
        sample_every: u64,
    ) -> Vec<(u64, usize)> {
        self.try_leader_trajectory(point, total_steps, sample_every)
            .unwrap_or_else(|e| panic!("scenario {:?}: {e}", self.name))
    }

    /// Fallible variant of [`Scenario::leader_trajectory`].
    ///
    /// # Errors
    ///
    /// Propagates graph-construction errors and scheduler errors (see
    /// [`Scenario::try_run`]).
    pub fn try_leader_trajectory(
        &self,
        point: &SweepPoint,
        total_steps: u64,
        sample_every: u64,
    ) -> Result<Vec<(u64, usize)>> {
        let mut run = self.start(point)?;
        let every = sample_every.max(1);
        let mut out = Vec::new();
        // A trajectory has no stop predicate: its boundary action samples
        // and never ends the run.
        run.drive(every, total_steps, |run| {
            out.push((run.sim.steps(), run.sim.count_leaders()));
            false
        })?;
        Ok(out)
    }

    /// Prepares the erased pieces for one sweep point without running: the
    /// protocol, the initial configuration and the stop predicate, exactly
    /// as the run loop would see them.  This is the entry point for the
    /// exhaustive explorer and the livelock certifier, which need the run
    /// loop's inputs without its scheduler.
    pub fn prepare(&self, point: &SweepPoint) -> PreparedScenario {
        self.prepared_run(point)
            .unwrap_or_else(|e| panic!("scenario {:?}: {e}", self.name))
            .scenario
    }

    /// Exhaustively explores the reachable configuration space at one sweep
    /// point (see [`crate::explore::explore`]): verifies stabilization,
    /// extracts the exact worst-case stabilization time, or produces a
    /// counterexample trace.  Intended for small populations (n ≤ ~8) whose
    /// reachable space fits within `limits`.
    ///
    /// # Errors
    ///
    /// Propagates graph-construction errors, and reports
    /// [`PopulationError::ConfigurationSizeMismatch`] when the graph, the
    /// `init` configuration or a [`Scenario::with_initial`] override differ
    /// in size.
    pub fn explore(
        &self,
        point: &SweepPoint,
        limits: &crate::explore::ExploreLimits,
    ) -> Result<crate::explore::Explored> {
        let mut prepared = self.prepared_run(point)?.scenario;
        let graph = self.graph.build(point.n)?;
        check_size(prepared.config.len(), graph.num_agents())?;
        Ok(crate::explore::explore(
            &prepared.protocol,
            &graph.arcs(),
            &prepared.config,
            &mut prepared.stop,
            limits,
        ))
    }

    /// Runs the scenario at one sweep point with configuration-recurrence
    /// detection attached to the step loop (see [`crate::recurrence`]).
    ///
    /// The run has exactly the semantics of [`Scenario::try_run_full`] — the
    /// same scheduler choices, RNG stream, fault events and stop-check
    /// boundaries — except that every step additionally feeds an incremental
    /// sum of state fingerprints ([`DynState::fingerprint`]) into a
    /// Brent-schedule [`RecurrenceDetector`](crate::recurrence::RecurrenceDetector).
    /// When a configuration provably repeats at the same scheduler
    /// [`DynScheduler::phase`], the run aborts early and the confirmed
    /// [`RecurrenceCandidate`] is returned alongside the (unconverged)
    /// report.
    ///
    /// A recurrence alone does not certify a livelock for stochastic
    /// schedulers — the run may simply have revisited a configuration by
    /// chance; pair the candidate with a closure check
    /// ([`crate::explore::phase_closure`]) to certify.  The detector is
    /// disarmed while fault events are still pending (a future fault would
    /// perturb any detected cycle) and reset whenever one fires, so a
    /// candidate always describes the fault-free suffix after the last
    /// fired event; `faults_pending` reports events that remained unfired
    /// when the run ended — scheduled beyond the executed horizon — which
    /// still invalidates any livelock conclusion about the run.
    ///
    /// Detection is active only when the scheduler reports a deterministic
    /// [`DynScheduler::phase`]: memoryless schedulers revisit configurations
    /// by chance at almost every step (any interaction that changes no state
    /// is a period-1 "recurrence"), so a candidate would be meaningless
    /// there.  An oracle's broadcast rewrites agents outside the interacting
    /// pair, which the incremental sum cannot see, so detection is
    /// likewise disabled for oracle protocols.  In both
    /// cases `recurrence` is always `None` and the run itself is unaffected.
    ///
    /// # Errors
    ///
    /// See [`Scenario::try_run`].
    pub fn try_run_detecting(&self, point: &SweepPoint) -> Result<DetectedRun> {
        let mut run = self.start(point)?;
        // Detection needs two preconditions.  An oracle's broadcast rewrites
        // states outside the interacting pair, so the incremental sum is
        // only sound for pure protocols.  And a memoryless scheduler
        // (phase `None`, the uniform one included) revisits configurations
        // by chance constantly — every interaction that happens not to
        // change any state is a period-1 "recurrence" — so detection is
        // only meaningful for schedulers with a deterministic phase.
        if !run.sim.environment_active()
            && run.scheduler.as_ref().is_some_and(|s| s.phase().is_some())
        {
            run.detector = Some(Recurrence::new(run.sim.config().states()));
        }
        let report = self.converge(point, &mut run)?;
        Ok(DetectedRun {
            report,
            recurrence: run.detector.and_then(|d| d.found),
            faults_pending: run.faults.pending() || run.churn.pending(),
            sim: run.sim,
        })
    }
}

/// The result of [`Scenario::try_run_detecting`]: the convergence report,
/// the confirmed configuration recurrence (if one fired), and the finished
/// simulation.
#[derive(Debug)]
pub struct DetectedRun {
    /// The convergence report of the run (unconverged whenever a recurrence
    /// aborted it early).
    pub report: ConvergenceReport,
    /// The confirmed recurrence, if one fired before convergence or the
    /// budget.
    pub recurrence: Option<RecurrenceCandidate>,
    /// `true` if fault or churn events were still pending when the run
    /// ended.  A pending event means a future fault (or topology change)
    /// could still break a detected cycle, so certification must be refused.
    pub faults_pending: bool,
    /// The simulation in its final state (erased; downcast the configuration
    /// with [`downcast_config`] for typed inspection).
    pub sim: Simulation<DynProtocol, AnyGraph>,
}

/// Typed, declarative builder for [`Scenario`]s.
///
/// All per-point pieces are closures over [`SweepPoint`], so one scenario
/// definition covers a whole sweep (protocol constants can read named axis
/// values via [`SweepPoint::value`]).  Construct with [`ScenarioBuilder::new`]
/// for leader-election protocols or [`ScenarioBuilder::for_protocol`] for
/// protocols without a leader output; `init`, `stop_when` and `step_budget`
/// are required, everything else has defaults (directed ring, check interval
/// `max(n²/4, 64)`, sim/fault seeds = the point's seed, no faults).
///
/// # Example
///
/// One declarative definition, run fault-free and then replayed with a
/// mid-run crash through [`Scenario::with_fault_plan`] (the
/// [`ScenarioBuilder::corruption`] function makes the scenario fault-ready
/// without scheduling anything by itself):
///
/// ```
/// use population::prelude::*;
/// use rand::Rng;
///
/// #[derive(Clone, Debug)]
/// struct Fratricide; // every agent starts a leader; leaders demote leaders
/// impl Protocol for Fratricide {
///     type State = bool;
///     fn interact(&self, a: &mut bool, b: &mut bool) {
///         if *a && *b {
///             *b = false;
///         }
///     }
/// }
/// impl LeaderElection for Fratricide {
///     fn is_leader(&self, s: &bool) -> bool {
///         *s
///     }
/// }
///
/// let scenario = ScenarioBuilder::new("fratricide", |_pt: &SweepPoint| Fratricide)
///     .graph(GraphFamily::Complete)
///     .init(|_p, pt| Configuration::uniform(pt.n, true))
///     .stop_when("unique-leader", |p: &Fratricide, c| {
///         p.has_unique_leader(c.states())
///     })
///     .step_budget(|_pt| 100_000)
///     .corruption(|_p: &Fratricide, rng, _agent| rng.gen())
///     .build()
///     .unwrap();
///
/// let clean = scenario.run(&SweepPoint::new(8, 42));
/// assert!(clean.converged());
///
/// // Replay the same point, but crash 4 agents into arbitrary states at
/// // step 1000; self-stabilization still converges.
/// let crashed = scenario
///     .clone()
///     .with_fault_plan(FaultPlan::new().at(1_000, FaultKind::CorruptRandomAgents { count: 4 }))
///     .run(&SweepPoint::new(8, 42));
/// assert!(crashed.converged());
/// ```
pub struct ScenarioBuilder<P: Protocol + 'static>
where
    P::State: Any,
{
    name: String,
    graph: GraphFamily,
    scheduler: SchedulerFamily,
    make_protocol: PointFn<P>,
    erase: fn(P) -> DynProtocol,
    #[allow(clippy::type_complexity)]
    init: Option<Arc<dyn Fn(&P, &SweepPoint) -> Configuration<P::State> + Send + Sync>>,
    #[allow(clippy::type_complexity)]
    stop: Option<(
        String,
        Arc<dyn Fn(&P, &Configuration<P::State>) -> bool + Send + Sync>,
    )>,
    #[allow(clippy::type_complexity)]
    corrupt: Option<Arc<dyn Fn(&P, &mut ChaCha8Rng, usize) -> P::State + Send + Sync>>,
    #[allow(clippy::type_complexity)]
    targets: Option<Arc<dyn Fn(&P, &P::State, usize) -> bool + Send + Sync>>,
    plan: Option<PointFn<FaultPlan>>,
    check_interval: PointFn<u64>,
    max_steps: Option<PointFn<u64>>,
    sim_seed: PointFn<u64>,
    fault_seed: PointFn<u64>,
}

impl<P: Protocol + 'static> fmt::Debug for ScenarioBuilder<P>
where
    P::State: Any,
{
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ScenarioBuilder")
            .field("name", &self.name)
            .field("graph", &self.graph)
            .finish()
    }
}

impl<P> ScenarioBuilder<P>
where
    P: LeaderElection + 'static,
    P::State: Any,
{
    /// Starts a scenario around a leader-election protocol factory.
    pub fn new(
        name: impl Into<String>,
        protocol: impl Fn(&SweepPoint) -> P + Send + Sync + 'static,
    ) -> Self {
        Self::with_erasure(name, protocol, DynProtocol::erase)
    }
}

impl<P> ScenarioBuilder<P>
where
    P: Protocol + 'static,
    P::State: Any,
{
    /// Starts a scenario around a protocol without a leader output (ring
    /// orientation, colouring, …).
    pub fn for_protocol(
        name: impl Into<String>,
        protocol: impl Fn(&SweepPoint) -> P + Send + Sync + 'static,
    ) -> Self {
        Self::with_erasure(name, protocol, DynProtocol::erase_protocol)
    }

    fn with_erasure(
        name: impl Into<String>,
        protocol: impl Fn(&SweepPoint) -> P + Send + Sync + 'static,
        erase: fn(P) -> DynProtocol,
    ) -> Self {
        ScenarioBuilder {
            name: name.into(),
            graph: GraphFamily::DirectedRing,
            scheduler: SchedulerFamily::Random,
            make_protocol: Arc::new(protocol),
            erase,
            init: None,
            stop: None,
            corrupt: None,
            targets: None,
            plan: None,
            check_interval: Arc::new(|pt| ((pt.n * pt.n / 4) as u64).max(64)),
            max_steps: None,
            sim_seed: Arc::new(|pt| pt.seed),
            fault_seed: Arc::new(|pt| pt.seed),
        }
    }

    /// Selects the graph family (default: the directed ring).
    pub fn graph(mut self, graph: GraphFamily) -> Self {
        self.graph = graph;
        self
    }

    /// Selects the scheduler family (default: the uniformly random
    /// scheduler of the population-protocol model).  Custom families route
    /// every step of the run through a [`DynScheduler`] built per sweep
    /// point; the default keeps the inlined random fast path.
    pub fn scheduler(mut self, scheduler: SchedulerFamily) -> Self {
        self.scheduler = scheduler;
        self
    }

    /// Sets the initial-condition generator (required).  The closure receives
    /// the point's protocol instance and the sweep point.
    pub fn init(
        mut self,
        init: impl Fn(&P, &SweepPoint) -> Configuration<P::State> + Send + Sync + 'static,
    ) -> Self {
        self.init = Some(Arc::new(init));
        self
    }

    /// Sets the named stop criterion (required).  The name becomes the
    /// `criterion` field of produced [`ConvergenceReport`]s.
    pub fn stop_when(
        mut self,
        name: impl Into<String>,
        stop: impl Fn(&P, &Configuration<P::State>) -> bool + Send + Sync + 'static,
    ) -> Self {
        self.stop = Some((name.into(), Arc::new(stop)));
        self
    }

    /// Sets the step budget per point (required).
    pub fn step_budget(
        mut self,
        budget: impl Fn(&SweepPoint) -> u64 + Send + Sync + 'static,
    ) -> Self {
        self.max_steps = Some(Arc::new(budget));
        self
    }

    /// Sets how often (in steps) the stop criterion is checked (default:
    /// `max(n²/4, 64)`).
    pub fn check_every(
        mut self,
        every: impl Fn(&SweepPoint) -> u64 + Send + Sync + 'static,
    ) -> Self {
        self.check_interval = Arc::new(every);
        self
    }

    /// Overrides the simulation (scheduler) seed (default: the point's seed).
    pub fn sim_seed(mut self, seed: impl Fn(&SweepPoint) -> u64 + Send + Sync + 'static) -> Self {
        self.sim_seed = Arc::new(seed);
        self
    }

    /// Overrides the fault-injection seed (default: the point's seed).
    pub fn fault_seed(mut self, seed: impl Fn(&SweepPoint) -> u64 + Send + Sync + 'static) -> Self {
        self.fault_seed = Arc::new(seed);
        self
    }

    /// Attaches a fault plan: `plan` schedules the events for a point and
    /// `corrupt` produces the (arbitrary) replacement state of a corrupted
    /// agent.
    pub fn faults(
        mut self,
        plan: impl Fn(&SweepPoint) -> FaultPlan + Send + Sync + 'static,
        corrupt: impl Fn(&P, &mut ChaCha8Rng, usize) -> P::State + Send + Sync + 'static,
    ) -> Self {
        self.plan = Some(Arc::new(plan));
        self.corrupt = Some(Arc::new(corrupt));
        self
    }

    /// Attaches only the corruption function, with no fault plan: the built
    /// scenario is **fault-ready** — it runs exactly like a fault-free
    /// scenario (the plan is empty, so the fast path is untouched) until a
    /// plan is attached later with [`Scenario::with_fault_plan`].  This is
    /// how the worst-case search injects crash schedules into experiment
    /// definitions that do not schedule faults themselves.
    pub fn corruption(
        mut self,
        corrupt: impl Fn(&P, &mut ChaCha8Rng, usize) -> P::State + Send + Sync + 'static,
    ) -> Self {
        self.corrupt = Some(Arc::new(corrupt));
        self
    }

    /// Registers the target predicate consumed by
    /// [`FaultKind::CorruptTargets`] events: `(protocol, state, agent_index)
    /// -> is_target`.  A leader predicate with `limit = 1` corrupts *the
    /// current leader*; a token predicate with a large limit corrupts *every
    /// token-holder*.  Registering the predicate alone schedules nothing —
    /// like [`ScenarioBuilder::corruption`], it makes the scenario
    /// target-ready for plans attached later.  A plan containing a targeted
    /// event without this predicate reports
    /// [`PopulationError::MissingTarget`].
    ///
    /// [`FaultKind::CorruptTargets`]: crate::faults::FaultKind::CorruptTargets
    pub fn fault_targets(
        mut self,
        is_target: impl Fn(&P, &P::State, usize) -> bool + Send + Sync + 'static,
    ) -> Self {
        self.targets = Some(Arc::new(is_target));
        self
    }

    /// Erases the typed pieces and produces the runnable [`Scenario`].
    ///
    /// # Errors
    ///
    /// Returns [`PopulationError::ScenarioIncomplete`] if `init`, `stop_when`
    /// or `step_budget` was not provided.
    pub fn build(self) -> Result<Scenario> {
        let init = self
            .init
            .ok_or(PopulationError::ScenarioIncomplete { missing: "init" })?;
        let (stop_name, stop) = self.stop.ok_or(PopulationError::ScenarioIncomplete {
            missing: "stop_when",
        })?;
        let max_steps = self.max_steps.ok_or(PopulationError::ScenarioIncomplete {
            missing: "step_budget",
        })?;
        let make_protocol = self.make_protocol;
        let erase = self.erase;
        let corrupt = self.corrupt;
        let targets = self.targets;
        let prepare = Arc::new(move |pt: &SweepPoint| {
            let protocol = make_protocol(pt);
            let config: Configuration<DynState> = init(&protocol, pt)
                .into_states()
                .into_iter()
                .map(DynState::new)
                .collect();
            let stop_protocol = protocol.clone();
            let stop = stop.clone();
            // Reused across checks: the typed mirror of the erased states.
            // `sync_typed_scratch` refreshes it in place (`clone_from`, no
            // reallocation in the steady state), so a stop check costs one
            // pass over the population with zero allocations instead of a
            // fresh `Vec` + clone per check.
            let mut scratch: Vec<P::State> = Vec::new();
            let stop_dyn = Box::new(move |states: &[DynState]| {
                sync_typed_scratch::<P>(&mut scratch, states, stop_protocol.name());
                let config = Configuration::from_states(std::mem::take(&mut scratch));
                let verdict = stop(&stop_protocol, &config);
                scratch = config.into_states();
                verdict
            });
            let corrupt_dyn = corrupt.clone().map(|corrupt| {
                let corrupt_protocol = protocol.clone();
                Rc::new(move |rng: &mut ChaCha8Rng, i: usize| {
                    DynState::new(corrupt(&corrupt_protocol, rng, i))
                }) as DynCorrupt
            });
            let targets_dyn = targets.clone().map(|is_target| {
                let target_protocol = protocol.clone();
                Box::new(move |state: &DynState, agent: usize| {
                    let typed = state.downcast_ref::<P::State>().unwrap_or_else(|| {
                        panic!(
                            "state does not belong to protocol {}",
                            target_protocol.name()
                        )
                    });
                    is_target(&target_protocol, typed, agent)
                }) as DynTargets
            });
            PreparedRun {
                scenario: PreparedScenario {
                    protocol: erase(protocol),
                    config,
                    stop: stop_dyn,
                },
                corrupt: corrupt_dyn,
                targets: targets_dyn,
            }
        });
        Ok(Scenario {
            name: self.name,
            stop_name,
            graph: self.graph,
            scheduler: self.scheduler,
            prepare,
            plan: self.plan,
            churn: ChurnPlan::new(),
            initial: None,
            check_interval: self.check_interval,
            max_steps,
            sim_seed: self.sim_seed,
            fault_seed: self.fault_seed,
        })
    }
}

/// Refreshes the reusable typed mirror of an erased state slice (used by
/// stop criteria, which are written against the typed state).  In the steady
/// state this is a `clone_from` per agent with no allocation; the buffer is
/// (re)built from scratch only when the population size changes.
fn sync_typed_scratch<P: Protocol>(scratch: &mut Vec<P::State>, states: &[DynState], name: &str)
where
    P::State: Any,
{
    fn typed_ref<'a, S: SlotState>(s: &'a DynState, name: &str) -> &'a S {
        s.downcast_ref::<S>()
            .unwrap_or_else(|| panic!("state does not belong to protocol {name}"))
    }
    if scratch.len() == states.len() {
        for (slot, s) in scratch.iter_mut().zip(states) {
            slot.clone_from(typed_ref::<P::State>(s, name));
        }
    } else {
        scratch.clear();
        scratch.extend(
            states
                .iter()
                .map(|s| typed_ref::<P::State>(s, name).clone()),
        );
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::prelude::*;

    /// Classic pairwise leader elimination.
    #[derive(Clone, Debug)]
    pub(crate) struct Fratricide;
    impl Protocol for Fratricide {
        type State = bool;
        fn interact(&self, initiator: &mut bool, responder: &mut bool) {
            if *initiator && *responder {
                *responder = false;
            }
        }
        fn name(&self) -> &'static str {
            "fratricide"
        }
    }
    impl LeaderElection for Fratricide {
        fn is_leader(&self, s: &bool) -> bool {
            *s
        }
    }

    /// An oracle protocol: the oracle asks whether any agent is a leader and
    /// marks every agent with the verdict; the transition promotes marked
    /// followers.
    #[derive(Clone, Debug)]
    struct OracleSpawner;
    #[derive(Clone, Copy, Debug, PartialEq, Hash)]
    struct OracleState {
        leader: bool,
        no_leader: bool,
    }
    impl Protocol for OracleSpawner {
        type State = OracleState;
        fn interact(&self, initiator: &mut OracleState, _responder: &mut OracleState) {
            if initiator.no_leader {
                initiator.leader = true;
            }
        }
        const HAS_ENVIRONMENT: bool = true;
        fn oracle_marks(&self, s: &OracleState) -> u8 {
            u8::from(s.leader)
        }
        fn oracle_apply(&self, view: u8, s: &mut OracleState) {
            s.no_leader = view == 0;
        }
        fn uses_oracle(&self) -> bool {
            true
        }
    }
    impl LeaderElection for OracleSpawner {
        fn is_leader(&self, s: &OracleState) -> bool {
            s.leader
        }
    }

    pub(crate) fn fratricide_scenario() -> Scenario {
        ScenarioBuilder::new("fratricide", |_pt: &SweepPoint| Fratricide)
            .graph(GraphFamily::Complete)
            .init(|_p, pt| Configuration::uniform(pt.n, true))
            .stop_when("unique-leader", |p: &Fratricide, c| {
                p.has_unique_leader(c.states())
            })
            .check_every(|_pt| 7)
            .step_budget(|_pt| 500_000)
            .build()
            .unwrap()
    }

    #[test]
    fn erased_run_is_bit_identical_to_the_typed_run() {
        let n = 16;
        let seed = 11;
        // Typed reference.
        let mut typed = Simulation::new(
            Fratricide,
            CompleteGraph::new(n),
            Configuration::uniform(n, true),
            seed,
        );
        let mut reference = typed.run_until(|p, c| p.has_unique_leader(c.states()), 7, 500_000);
        reference.criterion = "unique-leader".into();
        // Erased scenario.
        let report = fratricide_scenario().run(&SweepPoint::new(n, seed));
        assert_eq!(report, reference);
        assert!(report.converged());
    }

    #[test]
    fn run_full_exposes_the_final_simulation() {
        let run = fratricide_scenario().run_full(&SweepPoint::new(8, 3));
        assert!(run.report.converged());
        assert_eq!(run.sim.count_leaders(), 1);
        let typed = downcast_config::<bool>(run.sim.config()).unwrap();
        assert_eq!(typed.count_where(|&b| b), 1);
        assert!(downcast_config::<u32>(run.sim.config()).is_none());
    }

    #[test]
    fn oracle_protocols_work_through_the_erased_oracle() {
        let scenario = ScenarioBuilder::new("oracle-spawner", |_pt: &SweepPoint| OracleSpawner)
            .graph(GraphFamily::Complete)
            .init(|_p, pt| {
                Configuration::uniform(
                    pt.n,
                    OracleState {
                        leader: false,
                        no_leader: false,
                    },
                )
            })
            .stop_when("has-leader", |p: &OracleSpawner, c| {
                p.count_leaders(c.states()) >= 1
            })
            .check_every(|_pt| 1)
            .step_budget(|_pt| 10_000)
            .build()
            .unwrap();
        let report = scenario.run(&SweepPoint::new(6, 1));
        assert!(report.converged());
        // The oracle fires before the very first interaction, so one step
        // suffices.
        assert_eq!(report.steps_executed, 1);
    }

    #[test]
    fn stop_criterion_true_in_the_initial_configuration() {
        let scenario = ScenarioBuilder::new("instant", |_pt: &SweepPoint| Fratricide)
            .graph(GraphFamily::Complete)
            // Exactly one leader from the start.
            .init(|_p, pt| Configuration::from_fn(pt.n, |i| i == 0))
            .stop_when("unique-leader", |p: &Fratricide, c| {
                p.has_unique_leader(c.states())
            })
            .step_budget(|_pt| 1_000)
            .build()
            .unwrap();
        let report = scenario.run(&SweepPoint::new(5, 0));
        assert_eq!(report.converged_at, Some(0));
        assert_eq!(report.steps_executed, 0);
        assert_eq!(report.criterion, "unique-leader");
    }

    #[test]
    fn n_equals_two_rings_run() {
        let scenario = ScenarioBuilder::new("tiny-ring", |_pt: &SweepPoint| Fratricide)
            .init(|_p, pt| Configuration::uniform(pt.n, true))
            .stop_when("unique-leader", |p: &Fratricide, c| {
                p.has_unique_leader(c.states())
            })
            .check_every(|_pt| 1)
            .step_budget(|_pt| 10_000)
            .build()
            .unwrap();
        let report = scenario.run(&SweepPoint::new(2, 4));
        assert!(report.converged(), "n = 2 directed ring must elect");
    }

    #[test]
    fn empty_sweep_grid_produces_no_outcomes() {
        let scenario = fratricide_scenario();
        let runner = BatchRunner::with_threads(2);
        assert!(scenario.sweep(&SweepGrid::new(), &runner).is_empty());
        assert!(scenario
            .sweep_summaries(&SweepGrid::new().sizes(&[]).trials(3, 0), &runner)
            .is_empty());
    }

    #[test]
    fn fault_plan_firing_at_step_zero_corrupts_before_the_initial_check() {
        // Initial configuration satisfies the stop criterion; the step-0
        // fault breaks it, so the run must NOT converge at step 0.
        let scenario = ScenarioBuilder::new("fault-at-zero", |_pt: &SweepPoint| Fratricide)
            .graph(GraphFamily::Complete)
            .init(|_p, pt| Configuration::from_fn(pt.n, |i| i == 0))
            .stop_when("unique-leader", |p: &Fratricide, c| {
                p.has_unique_leader(c.states())
            })
            .check_every(|_pt| 1)
            .step_budget(|_pt| 200_000)
            .faults(
                |_pt| FaultPlan::new().at(0, FaultKind::CorruptAll),
                |_p, _rng, _i| true, // every agent becomes a leader
            )
            .build()
            .unwrap();
        let report = scenario.run(&SweepPoint::new(8, 2));
        assert!(report.converged());
        assert!(
            report.convergence_step() > 0,
            "the step-0 fault must be visible to the initial check"
        );
    }

    #[test]
    fn mid_run_faults_delay_convergence_deterministically() {
        // Fire an all-leaders reset at exactly the step where the fault-free
        // run converges: the faulted run is forced strictly past it.
        let build = |fault_at: Option<u64>| {
            let builder = ScenarioBuilder::new("mid-run", |_pt: &SweepPoint| Fratricide)
                .graph(GraphFamily::Complete)
                .init(|_p, pt| Configuration::uniform(pt.n, true))
                .stop_when("unique-leader", |p: &Fratricide, c| {
                    p.has_unique_leader(c.states())
                })
                .check_every(|_pt| 1)
                .step_budget(|_pt| 500_000);
            if let Some(at) = fault_at {
                builder
                    .faults(
                        move |_pt| FaultPlan::new().at(at, FaultKind::CorruptAll),
                        |_p, _rng, _i| true, // every corrupted agent becomes a leader
                    )
                    .build()
                    .unwrap()
            } else {
                builder.build().unwrap()
            }
        };
        let point = SweepPoint::new(8, 7);
        let clean = build(None).run(&point);
        assert!(clean.converged());
        let fault_at = clean.convergence_step();
        let faulted = build(Some(fault_at)).run(&point);
        let faulted_again = build(Some(fault_at)).run(&point);
        assert_eq!(
            faulted, faulted_again,
            "fault-plan runs are seed-deterministic"
        );
        assert!(faulted.converged());
        assert!(
            faulted.convergence_step() > fault_at,
            "the reset at step {fault_at} must delay convergence (got {})",
            faulted.convergence_step()
        );
    }

    #[test]
    fn with_fault_plan_matches_a_builder_scheduled_plan() {
        // Attaching a plan to a fault-ready (corruption-only) scenario after
        // build must behave exactly like scheduling the same plan in the
        // builder, and an empty plan must be bit-identical to no plan.
        let plan = FaultPlan::new().at(5, FaultKind::CorruptAll);
        let base = || {
            ScenarioBuilder::new("fault-ready", |_pt: &SweepPoint| Fratricide)
                .graph(GraphFamily::Complete)
                .init(|_p, pt| Configuration::uniform(pt.n, true))
                .stop_when("unique-leader", |p: &Fratricide, c| {
                    p.has_unique_leader(c.states())
                })
                .check_every(|_pt| 1)
                .step_budget(|_pt| 500_000)
        };
        let point = SweepPoint::new(8, 3);
        let scheduled = {
            let plan = plan.clone();
            base()
                .faults(move |_pt| plan.clone(), |_p, _rng, _i| true)
                .build()
                .unwrap()
                .run(&point)
        };
        let ready = base().corruption(|_p, _rng, _i| true).build().unwrap();
        let attached = ready.clone().with_fault_plan(plan).run(&point);
        assert_eq!(scheduled, attached);

        let clean = base().build().unwrap().run(&point);
        let empty_plan = ready.with_fault_plan(FaultPlan::new()).run(&point);
        assert_eq!(clean, empty_plan, "an empty plan keeps the fast path");
    }

    #[test]
    fn incomplete_builders_are_rejected() {
        let missing_init = ScenarioBuilder::new("x", |_pt: &SweepPoint| Fratricide)
            .stop_when("s", |_p: &Fratricide, _c| true)
            .step_budget(|_pt| 1)
            .build();
        assert!(matches!(
            missing_init,
            Err(PopulationError::ScenarioIncomplete { missing: "init" })
        ));
        let missing_stop = ScenarioBuilder::new("x", |_pt: &SweepPoint| Fratricide)
            .init(|_p, pt| Configuration::uniform(pt.n, true))
            .step_budget(|_pt| 1)
            .build();
        assert!(matches!(
            missing_stop,
            Err(PopulationError::ScenarioIncomplete {
                missing: "stop_when"
            })
        ));
        let missing_budget = ScenarioBuilder::new("x", |_pt: &SweepPoint| Fratricide)
            .init(|_p, pt| Configuration::uniform(pt.n, true))
            .stop_when("s", |_p: &Fratricide, _c| true)
            .build();
        assert!(matches!(
            missing_budget,
            Err(PopulationError::ScenarioIncomplete {
                missing: "step_budget"
            })
        ));
    }

    #[test]
    fn sweep_summaries_group_by_size_in_first_appearance_order() {
        let scenario = fratricide_scenario();
        let grid = SweepGrid::new().sizes(&[8, 4]).trials(3, 1);
        let summaries = scenario.sweep_summaries(&grid, &BatchRunner::with_threads(3));
        assert_eq!(summaries.len(), 2);
        assert_eq!(summaries[0].n, 8);
        assert_eq!(summaries[1].n, 4);
        assert_eq!(summaries[0].outcomes.len(), 3);
        assert!(summaries.iter().all(|s| s.converged_fraction() == 1.0));
    }

    #[test]
    fn leader_trajectory_decays_to_one() {
        let traj = fratricide_scenario().leader_trajectory(&SweepPoint::new(8, 3), 50_000, 1_000);
        assert_eq!(traj.first().unwrap(), &(0, 8));
        assert_eq!(traj.last().unwrap().1, 1);
        assert!(traj.windows(2).all(|w| w[0].0 < w[1].0));
    }

    #[test]
    fn leader_trajectory_applies_the_fault_plan() {
        // An all-leaders reset at a step that is NOT a sample boundary: the
        // trajectory must still fire it (mid-burst) and sample the refilled
        // leader pool at the next boundary, without perturbing the sample
        // grid.
        let scenario = ScenarioBuilder::new("traj-faults", |_pt: &SweepPoint| Fratricide)
            .graph(GraphFamily::Complete)
            .init(|_p, pt| Configuration::uniform(pt.n, true))
            .stop_when("unique-leader", |p: &Fratricide, c| {
                p.has_unique_leader(c.states())
            })
            .step_budget(|_pt| 100_000)
            .faults(
                |_pt| FaultPlan::new().at(2_999, FaultKind::CorruptAll),
                |_p, _rng, _i| true,
            )
            .build()
            .unwrap();
        let traj = scenario.leader_trajectory(&SweepPoint::new(8, 3), 10_000, 1_000);
        // Sample steps stay on the 1000-grid despite the mid-burst event.
        assert_eq!(
            traj.iter().map(|&(s, _)| s).collect::<Vec<_>>(),
            (0..=10u64).map(|i| i * 1_000).collect::<Vec<_>>()
        );
        // Converged to one leader before the fault …
        assert_eq!(traj[2].1, 1, "trajectory: {traj:?}");
        // … and the step-2999 reset is visible at the step-3000 sample: a
        // single interaction can eliminate at most one of the 8 leaders.
        assert!(traj[3].1 >= 7, "fault not applied: {traj:?}");
        // The war then burns back down to one leader.
        assert_eq!(traj.last().unwrap().1, 1);
    }

    #[test]
    fn plain_protocol_erasure_has_no_leaders() {
        #[derive(Clone, Debug)]
        struct Copycat;
        impl Protocol for Copycat {
            type State = u8;
            fn interact(&self, i: &mut u8, r: &mut u8) {
                *r = *i;
            }
        }
        let scenario = ScenarioBuilder::for_protocol("copycat", |_pt: &SweepPoint| Copycat)
            .init(|_p, pt| Configuration::from_fn(pt.n, |i| i as u8))
            .stop_when("all-equal", |_p: &Copycat, c| {
                c.states().windows(2).all(|w| w[0] == w[1])
            })
            .check_every(|_pt| 1)
            .step_budget(|_pt| 1_000_000)
            .build()
            .unwrap();
        let run = scenario.run_full(&SweepPoint::new(6, 9));
        assert!(run.report.converged());
        assert_eq!(
            run.sim.count_leaders(),
            0,
            "plain protocols have no leaders"
        );
    }

    #[test]
    fn scenario_metadata_accessors() {
        let s = fratricide_scenario();
        assert_eq!(s.name(), "fratricide");
        assert_eq!(s.stop_name(), "unique-leader");
        assert!(s.scheduler().is_random());
        assert_eq!(s.scheduler().name(), "random");
        assert!(format!("{s:?}").contains("fratricide"));
    }

    #[test]
    fn explicit_random_scheduler_is_bit_identical_to_the_fast_path() {
        // Routing RandomScheduler through the DynScheduler indirection must
        // consume the RNG exactly like the inlined fast path: identical
        // reports and identical final states.
        use crate::scheduler::RandomScheduler;
        let scenario = fratricide_scenario();
        let custom = scenario
            .clone()
            .with_scheduler(SchedulerFamily::custom("random-boxed", |_pt, _g| {
                Box::new(RandomScheduler::new())
            }));
        assert_eq!(custom.scheduler().name(), "random-boxed");
        for seed in [1u64, 9, 33] {
            let point = SweepPoint::new(10, seed);
            let fast = scenario.run_full(&point);
            let boxed = custom.run_full(&point);
            assert_eq!(fast.report, boxed.report);
            assert_eq!(fast.sim.config().states(), boxed.sim.config().states());
        }
    }

    #[test]
    fn round_robin_scheduler_family_converges_through_the_erased_path() {
        use crate::scheduler::RoundRobinScheduler;
        let scenario = fratricide_scenario().with_scheduler(SchedulerFamily::custom(
            "round-robin",
            |_pt, g: &AnyGraph| Box::new(RoundRobinScheduler::new(g)),
        ));
        let report = scenario.run(&SweepPoint::new(8, 0));
        assert!(report.converged(), "round-robin must still elect");
        assert_eq!(report.criterion, "unique-leader");
    }

    #[test]
    fn deterministic_scheduler_exhaustion_is_a_typed_error() {
        // Regression: ScheduleExhausted used to be
        // unreachable from the erased path.  A three-interaction sequence
        // under a larger budget must surface the typed error, not panic or
        // silently truncate.
        use crate::schedule::InteractionSeq;
        use crate::scheduler::SequenceScheduler;
        let scenario = fratricide_scenario().with_scheduler(SchedulerFamily::custom(
            "short-sequence",
            |_pt, _g| {
                Box::new(SequenceScheduler::new(InteractionSeq::from_interactions(
                    vec![
                        Interaction::new(0, 1),
                        Interaction::new(1, 2),
                        Interaction::new(2, 3),
                    ],
                )))
            },
        ));
        let err = scenario.try_run(&SweepPoint::new(8, 4)).unwrap_err();
        assert!(
            matches!(err, PopulationError::ScheduleExhausted { available: 3 }),
            "expected ScheduleExhausted, got {err:?}"
        );
        // The sequence is long enough when the budget is smaller: no error.
        let short_budget = ScenarioBuilder::new("short", |_pt: &SweepPoint| Fratricide)
            .graph(GraphFamily::Complete)
            .init(|_p, pt| Configuration::uniform(pt.n, true))
            .stop_when("unique-leader", |p: &Fratricide, c| {
                p.has_unique_leader(c.states())
            })
            .check_every(|_pt| 1)
            .step_budget(|_pt| 2)
            .scheduler(SchedulerFamily::custom("short-sequence", |_pt, _g| {
                Box::new(SequenceScheduler::new(InteractionSeq::from_interactions(
                    vec![Interaction::new(0, 1), Interaction::new(1, 2)],
                )))
            }))
            .build()
            .unwrap();
        let report = short_budget.try_run(&SweepPoint::new(8, 4)).unwrap();
        assert_eq!(report.steps_executed, 2);
    }

    #[test]
    fn custom_scheduler_runs_honour_fault_plans() {
        use crate::scheduler::RandomScheduler;
        // Same construction as fault_plan_firing_at_step_zero..., but driven
        // through the DynScheduler loop: the step-0 fault must be visible to
        // the initial check there too.
        let scenario = ScenarioBuilder::new("fault-at-zero", |_pt: &SweepPoint| Fratricide)
            .graph(GraphFamily::Complete)
            .init(|_p, pt| Configuration::from_fn(pt.n, |i| i == 0))
            .stop_when("unique-leader", |p: &Fratricide, c| {
                p.has_unique_leader(c.states())
            })
            .check_every(|_pt| 1)
            .step_budget(|_pt| 200_000)
            .faults(
                |_pt| FaultPlan::new().at(0, FaultKind::CorruptAll),
                |_p, _rng, _i| true,
            )
            .scheduler(SchedulerFamily::custom("random-boxed", |_pt, _g| {
                Box::new(RandomScheduler::new())
            }))
            .build()
            .unwrap();
        let report = scenario.run(&SweepPoint::new(8, 2));
        assert!(report.converged());
        assert!(report.convergence_step() > 0);
    }

    #[test]
    fn leader_trajectory_supports_custom_schedulers() {
        use crate::scheduler::RandomScheduler;
        let scenario = fratricide_scenario();
        let reference = scenario.leader_trajectory(&SweepPoint::new(8, 3), 20_000, 1_000);
        let boxed = scenario
            .clone()
            .with_scheduler(SchedulerFamily::custom("random-boxed", |_pt, _g| {
                Box::new(RandomScheduler::new())
            }))
            .leader_trajectory(&SweepPoint::new(8, 3), 20_000, 1_000);
        assert_eq!(reference, boxed, "trajectory must not depend on routing");
        // Exhaustion surfaces through the fallible trajectory variant.
        use crate::schedule::InteractionSeq;
        use crate::scheduler::SequenceScheduler;
        let err = scenario
            .with_scheduler(SchedulerFamily::custom("one-arc", |_pt, _g| {
                Box::new(SequenceScheduler::new(InteractionSeq::from_interactions(
                    vec![Interaction::new(0, 1)],
                )))
            }))
            .try_leader_trajectory(&SweepPoint::new(8, 3), 100, 10)
            .unwrap_err();
        assert!(matches!(
            err,
            PopulationError::ScheduleExhausted { available: 1 }
        ));
    }

    #[test]
    fn fault_plan_without_corruption_is_a_typed_error() {
        // Regression: a non-empty plan on a scenario that never set a
        // corruption function used to panic deep inside the run loop; it
        // must surface as PopulationError::MissingCorruption instead.
        let plan = FaultPlan::new().at(5, FaultKind::CorruptAll);
        let not_ready = fratricide_scenario().with_fault_plan(plan.clone());
        let point = SweepPoint::new(8, 3);
        assert!(matches!(
            not_ready.try_run(&point),
            Err(PopulationError::MissingCorruption)
        ));
        assert!(matches!(
            not_ready.try_leader_trajectory(&point, 100, 10),
            Err(PopulationError::MissingCorruption)
        ));
        assert!(matches!(
            not_ready.try_run_detecting(&point),
            Err(PopulationError::MissingCorruption)
        ));
        // The custom-scheduler path raises the same error.
        use crate::scheduler::RandomScheduler;
        let custom = fratricide_scenario()
            .with_scheduler(SchedulerFamily::custom("random-boxed", |_pt, _g| {
                Box::new(RandomScheduler::new())
            }))
            .with_fault_plan(plan);
        assert!(matches!(
            custom.try_run(&point),
            Err(PopulationError::MissingCorruption)
        ));
        // An empty plan needs no corruption function and keeps running.
        let empty = fratricide_scenario().with_fault_plan(FaultPlan::new());
        assert!(empty.try_run(&point).unwrap().converged());
    }

    #[test]
    fn targeted_faults_corrupt_the_current_leader() {
        // Fratricide can only ever demote: once the unique leader is
        // corrupted away, the population is dead.  A CorruptTargets{limit:1}
        // event with a leader predicate fired at the convergence boundary
        // must therefore leave the run unconverged with zero leaders.
        let base = || {
            ScenarioBuilder::new("targeted", |_pt: &SweepPoint| Fratricide)
                .graph(GraphFamily::Complete)
                .init(|_p, pt| Configuration::uniform(pt.n, true))
                .stop_when("unique-leader", |p: &Fratricide, c| {
                    p.has_unique_leader(c.states())
                })
                .check_every(|_pt| 1)
                .step_budget(|_pt| 10_000)
        };
        let point = SweepPoint::new(8, 3);
        let clean = base().build().unwrap().run(&point);
        assert!(clean.converged());
        let strike_at = clean.convergence_step();
        let struck = base()
            .corruption(|_p, _rng, _i| false)
            .fault_targets(|p: &Fratricide, s, _agent| p.is_leader(s))
            .faults(
                move |_pt| FaultPlan::new().at(strike_at, FaultKind::CorruptTargets { limit: 1 }),
                |_p, _rng, _i| false,
            )
            .build()
            .unwrap()
            .run_full(&point);
        assert!(
            !struck.report.converged(),
            "decapitating the unique leader must kill the run"
        );
        assert_eq!(struck.sim.count_leaders(), 0);
    }

    #[test]
    fn targeted_fault_without_predicate_is_a_typed_error() {
        let plan = FaultPlan::new().at(5, FaultKind::CorruptTargets { limit: 1 });
        let scenario = fratricide_scenario(); // corruption-less, target-less
        let point = SweepPoint::new(8, 3);
        // Corruption is validated first (events exist), then targets.
        let ready = ScenarioBuilder::new("ready", |_pt: &SweepPoint| Fratricide)
            .graph(GraphFamily::Complete)
            .init(|_p, pt| Configuration::uniform(pt.n, true))
            .stop_when("unique-leader", |p: &Fratricide, c| {
                p.has_unique_leader(c.states())
            })
            .step_budget(|_pt| 1_000)
            .corruption(|_p, _rng, _i| true)
            .build()
            .unwrap();
        assert!(matches!(
            ready.with_fault_plan(plan.clone()).try_run(&point),
            Err(PopulationError::MissingTarget)
        ));
        assert!(matches!(
            scenario.with_fault_plan(plan).try_run(&point),
            Err(PopulationError::MissingCorruption)
        ));
    }

    #[test]
    fn with_initial_overrides_the_prepared_configuration() {
        let point = SweepPoint::new(8, 3);
        let finished = fratricide_scenario().run_full(&point);
        assert!(finished.report.converged());
        // Restarting from the converged configuration is instant.
        let resumed = fratricide_scenario()
            .with_initial(finished.sim.config().clone())
            .try_run(&point)
            .unwrap();
        assert_eq!(resumed.converged_at, Some(0));
        assert_eq!(resumed.steps_executed, 0);
        // A size mismatch is a typed error, not a panic.
        assert!(matches!(
            fratricide_scenario()
                .with_initial(finished.sim.config().clone())
                .try_run(&SweepPoint::new(10, 3)),
            Err(PopulationError::ConfigurationSizeMismatch {
                configuration: 8,
                graph: 10,
            })
        ));
    }

    /// A deterministic phase-carrying scheduler for detection tests: cycles
    /// through a fixed arc list, reporting its position as the phase.
    #[derive(Clone, Debug)]
    struct CyclicScheduler {
        arcs: Vec<Interaction>,
        step: u64,
    }
    impl<G: InteractionGraph> Scheduler<G> for CyclicScheduler {
        fn next_interaction<R: rand::Rng + ?Sized>(
            &mut self,
            _graph: &G,
            _rng: &mut R,
        ) -> Result<Interaction> {
            let arc = self.arcs[(self.step % self.arcs.len() as u64) as usize];
            self.step += 1;
            Ok(arc)
        }
        fn phase(&self) -> Option<u64> {
            Some(self.step % self.arcs.len() as u64)
        }
    }

    fn cyclic_family() -> SchedulerFamily {
        SchedulerFamily::custom("cyclic", |_pt, g: &AnyGraph| {
            Box::new(CyclicScheduler {
                arcs: g.arcs(),
                step: 0,
            })
        })
    }

    #[test]
    fn detection_run_reports_exactly_like_the_plain_run() {
        // A converging run under a deterministic scheduler: detection rides
        // along without perturbing anything and never fires.
        let scenario = fratricide_scenario().with_scheduler(cyclic_family());
        let point = SweepPoint::new(8, 3);
        let plain = scenario.try_run(&point).unwrap();
        let detected = scenario.try_run_detecting(&point).unwrap();
        assert_eq!(detected.report, plain);
        assert!(detected.report.converged());
        assert!(detected.recurrence.is_none());
        assert!(!detected.faults_pending);
        // The random fast path likewise (detection disabled: no phase).
        let random = fratricide_scenario();
        let detected = random.try_run_detecting(&point).unwrap();
        assert_eq!(detected.report, random.try_run(&point).unwrap());
        assert!(detected.recurrence.is_none());
    }

    #[test]
    fn detection_certifies_a_dead_configuration_livelock_end_to_end() {
        // All-followers is a fixed point of Fratricide that never elects: a
        // true livelock under any scheduler.  The detector must confirm a
        // recurrence whose period divides the scheduler rotation, abort the
        // run early, and the phase closure must certify it.
        let scenario = ScenarioBuilder::new("dead", |_pt: &SweepPoint| Fratricide)
            .graph(GraphFamily::Complete)
            .init(|_p, pt| Configuration::uniform(pt.n, false))
            .stop_when("unique-leader", |p: &Fratricide, c| {
                p.has_unique_leader(c.states())
            })
            .check_every(|_pt| 64)
            .step_budget(|_pt| 1_000_000)
            .scheduler(cyclic_family())
            .build()
            .unwrap();
        let point = SweepPoint::new(4, 9);
        let detected = scenario.try_run_detecting(&point).unwrap();
        assert!(!detected.report.converged());
        assert!(
            detected.report.steps_executed < 1_000_000,
            "a confirmed recurrence must abort the run early (ran {} steps)",
            detected.report.steps_executed
        );
        let candidate = detected.recurrence.expect("the dead config must recur");
        let rotation = detected.sim.graph().num_arcs() as u64;
        assert_eq!(candidate.period % rotation, 0);
        assert!(candidate.phase.is_some());
        assert!(!detected.faults_pending);

        // Close the loop: the recurrent configuration is certified stop-free
        // under the exact product system of the cyclic scheduler (one
        // single-arc group per rotation position).
        let mut prepared = scenario.prepare(&point);
        let groups = detected
            .sim
            .graph()
            .arcs()
            .into_iter()
            .map(|arc| vec![arc])
            .collect();
        let outcome = crate::explore::phase_closure(
            &prepared.protocol,
            &crate::explore::ArcPhases::cyclic(groups, 1),
            &candidate.config,
            candidate.phase.unwrap(),
            &mut prepared.stop,
            &crate::explore::ClosureLimits::default(),
        );
        assert!(outcome.certifies_livelock());
        assert_eq!(outcome.configs, 1, "a dead configuration closes on itself");
    }

    #[test]
    fn detection_is_disarmed_while_fault_events_are_pending() {
        // A dead start recurs immediately, but a fault far in the future
        // will revive the population — so the detector must NOT abort on the
        // pre-fault cycle.  It stays disarmed until the schedule is
        // exhausted, the revival fires at step 900000, and the run then
        // converges normally.
        let dead_then = |fault_step: u64, corrupt_to: bool| {
            ScenarioBuilder::new("dead-then-faulted", |_pt: &SweepPoint| Fratricide)
                .graph(GraphFamily::Complete)
                .init(|_p, pt| Configuration::uniform(pt.n, false))
                .stop_when("unique-leader", |p: &Fratricide, c| {
                    p.has_unique_leader(c.states())
                })
                .check_every(|_pt| 64)
                .step_budget(|_pt| 1_000_000)
                .scheduler(cyclic_family())
                .faults(
                    move |_pt| FaultPlan::new().at(fault_step, FaultKind::CorruptAll),
                    move |_p, _rng, _i| corrupt_to,
                )
                .build()
                .unwrap()
        };
        let point = SweepPoint::new(4, 9);
        let revived = dead_then(900_000, true).try_run_detecting(&point).unwrap();
        assert!(revived.recurrence.is_none(), "pre-fault cycles are skipped");
        assert!(revived.report.converged(), "the revival elects a leader");
        assert!(revived.report.converged_at.unwrap() >= 900_000);
        assert!(!revived.faults_pending);

        // An event scheduled beyond the budget never fires: the detector is
        // disarmed for the whole run and faults_pending still gates any
        // conclusion a caller might draw from the censored report.
        let beyond = dead_then(2_000_000, true)
            .try_run_detecting(&point)
            .unwrap();
        assert!(beyond.recurrence.is_none());
        assert!(!beyond.report.converged());
        assert_eq!(beyond.report.steps_executed, 1_000_000);
        assert!(beyond.faults_pending);

        // A fault that leaves the population dead: the candidate describes
        // the fault-free suffix (entry at or after the event) and nothing is
        // pending, so this one IS certification material.
        let dead_after = dead_then(1_000, false).try_run_detecting(&point).unwrap();
        let candidate = dead_after
            .recurrence
            .expect("the post-fault dead config must recur");
        assert!(candidate.entry_step >= 1_000);
        assert!(!dead_after.faults_pending);
        assert!(
            dead_after.report.steps_executed < 1_000_000,
            "a post-fault recurrence still aborts the run early"
        );
    }

    #[test]
    fn scenario_explore_verifies_fratricide_exactly() {
        let result = fratricide_scenario()
            .explore(
                &SweepPoint::new(3, 0),
                &crate::explore::ExploreLimits::default(),
            )
            .unwrap();
        assert_eq!(result.reachable, 7);
        match result.verdict {
            crate::explore::ExploreVerdict::Stabilizes {
                exact_worst_steps, ..
            } => assert_eq!(exact_worst_steps, 2),
            ref other => panic!("expected Stabilizes, got {other:?}"),
        }
    }

    #[test]
    fn scenario_explore_broadcasts_the_oracle_before_each_interaction() {
        let oracle = ScenarioBuilder::new("oracle", |_pt: &SweepPoint| OracleSpawner)
            .graph(GraphFamily::Complete)
            .init(|_p, pt| {
                Configuration::uniform(
                    pt.n,
                    OracleState {
                        leader: false,
                        no_leader: false,
                    },
                )
            })
            .stop_when("has-leader", |p: &OracleSpawner, c| {
                p.count_leaders(c.states()) >= 1
            })
            .step_budget(|_pt| 1_000)
            .build()
            .unwrap();
        let result = oracle
            .explore(
                &SweepPoint::new(3, 0),
                &crate::explore::ExploreLimits::default(),
            )
            .unwrap();
        // The first step's broadcast tells everyone there is no leader, so
        // its initiator (one of 3) promotes itself; the next broadcast
        // clears every flag and nothing changes after that: 1 + 3 + 3.
        assert_eq!(result.reachable, 7);
        assert_eq!(result.stop_configs, 6);
        match result.verdict {
            crate::explore::ExploreVerdict::Stabilizes {
                exact_worst_steps, ..
            } => assert_eq!(exact_worst_steps, 1),
            ref other => panic!("expected Stabilizes, got {other:?}"),
        }
    }

    #[test]
    fn explore_reports_a_mismatched_initial_override_as_a_typed_error() {
        let scenario =
            fratricide_scenario().with_initial(Configuration::uniform(4, DynState::new(true)));
        assert!(matches!(
            scenario.explore(
                &SweepPoint::new(3, 0),
                &crate::explore::ExploreLimits::default()
            ),
            Err(PopulationError::ConfigurationSizeMismatch {
                configuration: 4,
                graph: 3,
            })
        ));
    }

    /// Max-consensus spreads the largest id along arcs in both directions,
    /// so it converges on *any* weakly connected digraph — unlike
    /// fratricide, whose leaders can only fight across an arc and therefore
    /// deadlock on sparse graphs.  The all-equal stop criterion exercises
    /// every generated family.
    #[derive(Clone, Debug)]
    struct MaxConsensus;
    impl Protocol for MaxConsensus {
        type State = u32;
        fn interact(&self, i: &mut u32, r: &mut u32) {
            let m = (*i).max(*r);
            *i = m;
            *r = m;
        }
    }

    #[test]
    fn generated_graph_families_run_deterministically() {
        let families = [
            GraphFamily::Torus,
            GraphFamily::SmallWorld {
                k: 4,
                rewire_per_mille: 200,
                seed: 7,
            },
            GraphFamily::PreferentialAttachment { m: 2, seed: 7 },
            GraphFamily::RandomRegular { degree: 3, seed: 7 },
        ];
        for family in families {
            let build = {
                let family = family.clone();
                move || {
                    let family = family.clone();
                    ScenarioBuilder::for_protocol("generated", |_pt: &SweepPoint| MaxConsensus)
                        .graph(family)
                        .init(|_p, pt| Configuration::from_fn(pt.n, |i| i as u32))
                        .stop_when("all-equal", |_p: &MaxConsensus, c| {
                            c.states().windows(2).all(|w| w[0] == w[1])
                        })
                        .check_every(|_pt| 7)
                        .step_budget(|_pt| 500_000)
                        .build()
                        .unwrap()
                }
            };
            let point = SweepPoint::new(16, 3);
            let a = build().run_full(&point);
            let b = build().run_full(&point);
            assert_eq!(a.report, b.report, "{family:?} runs are deterministic");
            assert_eq!(a.sim.config().states(), b.sim.config().states());
            assert!(a.report.converged(), "{family:?} must reach consensus");
        }
    }

    #[test]
    fn mis_sized_graphs_and_inits_are_typed_errors() {
        // Regression: a custom graph or an `init` of the wrong size used to
        // panic in `Simulation::new` (and index out of bounds in the
        // explorer) instead of surfacing as a typed error.
        let builder = || {
            ScenarioBuilder::new("mis-sized", |_pt: &SweepPoint| Fratricide)
                .stop_when("unique-leader", |p: &Fratricide, c| {
                    p.has_unique_leader(c.states())
                })
                .step_budget(|_pt| 1_000)
        };
        let wide_graph = builder()
            .graph(GraphFamily::Custom(Arc::new(|n| {
                ArbitraryGraph::directed_ring(n + 1)
            })))
            .init(|_p, pt| Configuration::uniform(pt.n, true))
            .build()
            .unwrap();
        let wide_init = builder()
            .init(|_p, pt| Configuration::uniform(pt.n + 1, true))
            .build()
            .unwrap();
        let point = SweepPoint::new(4, 0);
        for (scenario, configuration, graph) in [(wide_graph, 4, 5), (wide_init, 5, 4)] {
            let expected = PopulationError::ConfigurationSizeMismatch {
                configuration,
                graph,
            };
            assert_eq!(scenario.try_run(&point).unwrap_err(), expected);
            assert_eq!(scenario.try_run_detecting(&point).unwrap_err(), expected);
            assert_eq!(
                scenario.try_leader_trajectory(&point, 100, 10).unwrap_err(),
                expected
            );
            assert_eq!(
                scenario
                    .explore(&point, &ExploreLimits::default())
                    .unwrap_err(),
                expected
            );
        }
    }

    #[test]
    fn disconnected_custom_graphs_are_rejected() {
        // Regression: a disconnected custom digraph used to run until budget
        // exhaustion (the global stop predicate is unreachable); it must be
        // rejected at build time with a typed error.
        let family = GraphFamily::Custom(Arc::new(|_n| {
            ArbitraryGraph::new(
                4,
                vec![
                    Interaction::new(0, 1),
                    Interaction::new(1, 0),
                    Interaction::new(2, 3),
                    Interaction::new(3, 2),
                ],
            )
        }));
        assert!(matches!(
            family.build(4),
            Err(PopulationError::DisconnectedGraph {
                agents: 4,
                reached: 2
            })
        ));
        let scenario = ScenarioBuilder::new("split", |_pt: &SweepPoint| Fratricide)
            .graph(family)
            .init(|_p, pt| Configuration::uniform(pt.n, true))
            .stop_when("unique-leader", |p: &Fratricide, c| {
                p.has_unique_leader(c.states())
            })
            .check_every(|_pt| 7)
            .step_budget(|_pt| 100_000)
            .build()
            .unwrap();
        assert!(matches!(
            scenario.try_run(&SweepPoint::new(4, 0)),
            Err(PopulationError::DisconnectedGraph { .. })
        ));
    }
}
