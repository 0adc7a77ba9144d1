//! Mid-run topology churn: rewires, partitions, heals, joins and leaves.
//!
//! A [`ChurnPlan`] schedules [`ChurnKind`] events at explicit steps of a
//! scenario run, the topology analogue of a [`FaultPlan`]: faults corrupt
//! *states*, churn rewrites the *graph* (and, for join/leave, the population
//! itself).  [`ChurnSchedule`] fires a plan's events during one run.  No
//! tracked report drives churn, so this module can go as one piece.
//!
//! [`FaultPlan`]: crate::faults::FaultPlan

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

use crate::config::Configuration;
use crate::engine::{DynCorrupt, ErasedSim};
use crate::error::{PopulationError, Result};
use crate::graph::{AnyGraph, ArbitraryGraph, GraphFamily, InteractionGraph};
use crate::schedule::Interaction;
use crate::slot::DynState;

/// One kind of mid-run topology change.  The churn analogue of
/// [`FaultKind`]: faults corrupt *states*, churn rewrites the *graph* (and,
/// for join/leave, the population itself).
///
/// [`FaultKind`]: crate::faults::FaultKind
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ChurnKind {
    /// Replaces `count` uniformly chosen arcs with fresh uniformly chosen
    /// non-duplicate, non-self-loop arcs (bounded rejection per replacement).
    /// The graph drops to its explicit arc-list representation, so the
    /// scheduler stream after the event differs from the pristine family's —
    /// deterministically, from the dedicated churn RNG.
    Rewire {
        /// How many arcs to replace.
        count: u32,
    },
    /// Keeps only the arcs internal to one of `blocks` contiguous index
    /// blocks (block `i` is `i*ceil(n/blocks)..(i+1)*ceil(n/blocks)`),
    /// forming a network partition.  The partitioned graph is intentionally
    /// disconnected; stop predicates over the whole population may be
    /// unreachable until a [`ChurnKind::Heal`] fires.  If no arc survives
    /// (every arc crosses a block boundary) the run aborts with
    /// [`PopulationError::EmptyArcSet`].
    Partition {
        /// Number of contiguous blocks (at least 2).
        blocks: u32,
    },
    /// Rebuilds the scenario's pristine [`GraphFamily`] graph at the current
    /// population size, healing any partition and discarding any rewires.
    Heal,
    /// Grows the population by `count` agents: the new agents' states are
    /// produced by the scenario's corruption function (they join in
    /// *arbitrary* states — the self-stabilization-honest choice) and the
    /// family graph is rebuilt at the new size.
    Join {
        /// How many agents join.
        count: u32,
    },
    /// Shrinks the population by `count` agents (the highest indices leave;
    /// their slots are compacted away) and rebuilds the family graph at the
    /// new size.  A leave that would drop the population below 2 aborts the
    /// run with [`PopulationError::PopulationTooSmall`].
    Leave {
        /// How many agents leave.
        count: u32,
    },
}

impl ChurnKind {
    /// The number of things the event changes, when that is statically
    /// knowable: arcs for [`ChurnKind::Rewire`], agents for
    /// [`ChurnKind::Join`] / [`ChurnKind::Leave`], blocks for
    /// [`ChurnKind::Partition`].  [`ChurnKind::Heal`] returns `None` (its
    /// extent depends on what happened before it).
    pub fn extent(self) -> Option<u64> {
        match self {
            ChurnKind::Rewire { count }
            | ChurnKind::Join { count }
            | ChurnKind::Leave { count } => Some(u64::from(count)),
            // A 0- or 1-block "partition" keeps the graph intact, so its
            // effective extent is how far it is beyond one block.
            ChurnKind::Partition { blocks } => Some(u64::from(blocks.saturating_sub(1))),
            ChurnKind::Heal => None,
        }
    }
}

/// A topology change scheduled at an explicit step of a scenario run; the
/// churn analogue of [`FaultEvent`] (same step semantics: the event fires
/// *before* the step it names, and step 0 fires before the first interaction
/// and the initial stop check).
///
/// [`FaultEvent`]: crate::faults::FaultEvent
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ChurnEvent {
    /// The step before which the change applies.
    pub at_step: u64,
    /// The topology change to apply.
    pub kind: ChurnKind,
}

/// A declarative schedule of mid-run topology changes, attached to a built
/// scenario with [`Scenario::with_churn_plan`].  An empty plan keeps the
/// exact fault-free fast path (pinned bit-identical by
/// `scenario_equivalence`).
///
/// [`Scenario::with_churn_plan`]: crate::scenario::Scenario::with_churn_plan
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ChurnPlan {
    events: Vec<ChurnEvent>,
}

impl ChurnPlan {
    /// Creates an empty plan.
    pub fn new() -> Self {
        ChurnPlan::default()
    }

    /// Schedules `kind` to fire at `at_step` (builder-style; events are kept
    /// sorted by step).
    ///
    /// # Panics
    ///
    /// Panics on a zero-extent kind (`count == 0`, or a partition into fewer
    /// than two blocks) — a no-op churn event in a plan is always a bug.
    /// Use [`ChurnPlan::try_at`] to handle it as a typed error instead.
    pub fn at(self, at_step: u64, kind: ChurnKind) -> Self {
        self.try_at(at_step, kind).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible variant of [`ChurnPlan::at`].
    ///
    /// # Errors
    ///
    /// Returns [`PopulationError::DegenerateChurn`] if `kind` has extent
    /// zero ([`ChurnKind::extent`]).
    pub fn try_at(mut self, at_step: u64, kind: ChurnKind) -> Result<Self> {
        if kind.extent() == Some(0) {
            return Err(PopulationError::DegenerateChurn { at: at_step });
        }
        self.events.push(ChurnEvent { at_step, kind });
        self.events.sort_by_key(|e| e.at_step);
        Ok(self)
    }

    /// The scheduled events, sorted by step.
    pub fn events(&self) -> &[ChurnEvent] {
        &self.events
    }

    /// `true` if the plan schedules nothing.  Empty plans keep the
    /// churn-free fast path.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Number of scheduled churn events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// `true` if any event grows the population ([`ChurnKind::Join`]), which
    /// requires the scenario's corruption function to mint the joining
    /// agents' states.
    pub fn has_joins(&self) -> bool {
        self.events
            .iter()
            .any(|e| matches!(e.kind, ChurnKind::Join { .. }))
    }
}

/// Seed salt deriving the dedicated churn RNG stream from the fault seed, so
/// topology rewiring never perturbs the scheduler or corruption streams of
/// the run it churns.
const CHURN_SEED_SALT: u64 = 0x4348_5552_4E50_4C4E; // "CHURNPLN"

/// Stable snake_case label of a churn kind for the telemetry stream.
fn churn_kind_label(kind: ChurnKind) -> &'static str {
    match kind {
        ChurnKind::Rewire { .. } => "rewire",
        ChurnKind::Partition { .. } => "partition",
        ChurnKind::Heal => "heal",
        ChurnKind::Join { .. } => "join",
        ChurnKind::Leave { .. } => "leave",
    }
}

/// The pending half of a churn plan during a run: which topology events are
/// still due and the machinery that fires them.  The churn sibling of
/// [`FaultSchedule`], owned by every [`Run`] alike, so topology changes apply
/// at identical steps whichever entry point drives the run.  An empty
/// schedule is inert: it clips nothing, fires nothing, and consumes no RNG.
///
/// [`FaultSchedule`]: crate::engine::FaultSchedule
/// [`Run`]: crate::engine::Run
pub(crate) struct ChurnSchedule {
    events: Vec<ChurnEvent>,
    /// The scenario's pristine graph family: [`ChurnKind::Heal`] rebuilds it
    /// at the current size, join/leave rebuild it at the new size.
    family: GraphFamily,
    /// Mints joining agents' states (the scenario's corruption function).
    corrupt: Option<DynCorrupt>,
    /// Dedicated RNG stream for rewiring choices and joining states.
    rng: ChaCha8Rng,
    next: usize,
    /// `true` between a fired [`ChurnKind::Partition`] and the next
    /// [`ChurnKind::Heal`] (controls the `partition_heal` telemetry event).
    partitioned: bool,
}

impl ChurnSchedule {
    /// # Errors
    ///
    /// Returns [`PopulationError::MissingCorruption`] if the plan contains
    /// [`ChurnKind::Join`] events but the scenario registered no corruption
    /// function — joining agents' states could never be minted.
    pub(crate) fn new(
        plan: &ChurnPlan,
        family: GraphFamily,
        corrupt: Option<DynCorrupt>,
        fault_seed: u64,
    ) -> Result<Self> {
        if plan.has_joins() && corrupt.is_none() {
            return Err(PopulationError::MissingCorruption);
        }
        Ok(ChurnSchedule {
            events: plan.events().to_vec(),
            family,
            corrupt,
            rng: ChaCha8Rng::seed_from_u64(fault_seed ^ CHURN_SEED_SALT),
            next: 0,
            partitioned: false,
        })
    }

    /// `true` while topology events remain unfired.
    pub(crate) fn pending(&self) -> bool {
        self.next < self.events.len()
    }

    /// Clips a burst target so the next pending event is not overshot (the
    /// burst still advances by at least one step past `done`).
    pub(crate) fn clip(&self, done: u64, target: u64) -> u64 {
        match self.events.get(self.next) {
            Some(event) => target.min(event.at_step.max(done + 1)),
            None => target,
        }
    }

    /// Fires every event scheduled at or before step `executed`.  Returns
    /// `true` if anything fired (the graph — and possibly the population —
    /// changed, so incremental observers must re-seed).
    ///
    /// # Errors
    ///
    /// Propagates graph-construction errors from the fired events:
    /// [`PopulationError::EmptyArcSet`] when a partition strands every arc,
    /// [`PopulationError::PopulationTooSmall`] when a leave would drop the
    /// population below 2, and any error of the family's own constructor at
    /// the new size.
    pub(crate) fn fire_due(&mut self, executed: u64, sim: &mut ErasedSim) -> Result<bool> {
        let mut fired = false;
        while self.next < self.events.len() && self.events[self.next].at_step <= executed {
            let kind = self.events[self.next].kind;
            self.next += 1;
            self.apply(kind, sim)?;
            fired = true;
            if ssle_telemetry::enabled() {
                ssle_telemetry::emit(
                    ssle_telemetry::Event::new("churn_fired")
                        .count("step", sim.steps())
                        .field("kind", churn_kind_label(kind)),
                );
            }
        }
        Ok(fired)
    }

    /// Applies one churn kind to the simulation.
    fn apply(&mut self, kind: ChurnKind, sim: &mut ErasedSim) -> Result<()> {
        let n = sim.num_agents();
        match kind {
            ChurnKind::Rewire { count } => {
                let mut arcs = sim.graph().arcs();
                for _ in 0..count {
                    let victim = self.rng.gen_range(0..arcs.len());
                    // Bounded rejection: a replacement that duplicates an
                    // existing arc is redrawn; if the graph is too dense to
                    // place one, the arc is left as it was.
                    for _attempt in 0..16 {
                        let i = self.rng.gen_range(0..n);
                        let mut j = self.rng.gen_range(0..n - 1);
                        if j >= i {
                            j += 1;
                        }
                        let candidate = Interaction::new(i, j);
                        if !arcs.contains(&candidate) {
                            arcs[victim] = candidate;
                            break;
                        }
                    }
                }
                sim.set_graph(AnyGraph::Arbitrary(ArbitraryGraph::new(n, arcs)?))?;
            }
            ChurnKind::Partition { blocks } => {
                let blocks = (blocks as usize).clamp(2, n);
                let block_len = n.div_ceil(blocks);
                let arcs: Vec<Interaction> = sim
                    .graph()
                    .arcs()
                    .into_iter()
                    .filter(|a| {
                        a.initiator().index() / block_len == a.responder().index() / block_len
                    })
                    .collect();
                sim.set_graph(AnyGraph::Arbitrary(ArbitraryGraph::new(n, arcs)?))?;
                self.partitioned = true;
                if ssle_telemetry::enabled() {
                    ssle_telemetry::emit(
                        ssle_telemetry::Event::new("partition_open")
                            .count("step", sim.steps())
                            .count("blocks", blocks as u64),
                    );
                }
            }
            ChurnKind::Heal => {
                sim.set_graph(self.family.build(n)?)?;
                if self.partitioned {
                    self.partitioned = false;
                    if ssle_telemetry::enabled() {
                        ssle_telemetry::emit(
                            ssle_telemetry::Event::new("partition_heal").count("step", sim.steps()),
                        );
                    }
                }
            }
            ChurnKind::Join { count } => {
                let new_n = n + count as usize;
                let corrupt = self
                    .corrupt
                    .as_mut()
                    .expect("validated at ChurnSchedule construction");
                let mut states: Vec<DynState> = sim.config().states().to_vec();
                for agent in n..new_n {
                    states.push(corrupt(&mut self.rng, agent));
                }
                let graph = self.family.build(new_n)?;
                sim.resize(graph, Configuration::from_states(states))?;
                // Rebuilding the family graph implicitly healed any
                // partition (no `partition_heal` event: nothing was open at
                // the new size).
                self.partitioned = false;
            }
            ChurnKind::Leave { count } => {
                let new_n = n.saturating_sub(count as usize);
                if new_n < 2 {
                    return Err(PopulationError::PopulationTooSmall {
                        requested: new_n,
                        minimum: 2,
                    });
                }
                let mut states: Vec<DynState> = sim.config().states().to_vec();
                states.truncate(new_n);
                let graph = self.family.build(new_n)?;
                sim.resize(graph, Configuration::from_states(states))?;
                self.partitioned = false;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prelude::*;
    use crate::scenario::tests::{fratricide_scenario, Fratricide};
    use std::sync::Arc;

    /// The fratricide scenario made churn-ready: a corruption function mints
    /// joining agents' states (every joiner is a leader), no plan scheduled.
    fn churn_ready_fratricide() -> Scenario {
        ScenarioBuilder::new("fratricide", |_pt: &SweepPoint| Fratricide)
            .graph(GraphFamily::Complete)
            .init(|_p, pt| Configuration::uniform(pt.n, true))
            .stop_when("unique-leader", |p: &Fratricide, c| {
                p.has_unique_leader(c.states())
            })
            .check_every(|_pt| 7)
            .step_budget(|_pt| 500_000)
            .corruption(|_p, _rng, _i| true)
            .build()
            .unwrap()
    }

    #[test]
    fn churn_plan_accessors_and_degenerate_events() {
        let plan = ChurnPlan::new()
            .at(10, ChurnKind::Heal)
            .at(0, ChurnKind::Rewire { count: 2 });
        assert_eq!(plan.len(), 2);
        assert!(!plan.is_empty());
        assert_eq!(plan.events()[0].at_step, 0, "events are sorted by step");
        assert!(!plan.has_joins());
        assert!(ChurnPlan::new()
            .at(1, ChurnKind::Join { count: 1 })
            .has_joins());
        assert!(ChurnPlan::new().is_empty());
        assert_eq!(ChurnKind::Heal.extent(), None);
        assert_eq!(ChurnKind::Partition { blocks: 3 }.extent(), Some(2));
        assert_eq!(ChurnKind::Rewire { count: 5 }.extent(), Some(5));
        for kind in [
            ChurnKind::Rewire { count: 0 },
            ChurnKind::Partition { blocks: 1 },
            ChurnKind::Partition { blocks: 0 },
            ChurnKind::Join { count: 0 },
            ChurnKind::Leave { count: 0 },
        ] {
            assert!(
                matches!(
                    ChurnPlan::new().try_at(7, kind),
                    Err(PopulationError::DegenerateChurn { at: 7 })
                ),
                "{kind:?} has extent 0 and must be rejected"
            );
        }
    }

    #[test]
    fn empty_churn_plan_keeps_the_fast_path() {
        let point = SweepPoint::new(8, 3);
        let clean = fratricide_scenario().run_full(&point);
        let empty = fratricide_scenario()
            .with_churn_plan(ChurnPlan::new())
            .run_full(&point);
        assert_eq!(
            clean.report, empty.report,
            "an empty plan keeps the fast path"
        );
        assert_eq!(clean.sim.config().states(), empty.sim.config().states());
    }

    #[test]
    fn churned_runs_are_deterministic() {
        // Two rewires on a complete graph: every replacement candidate
        // duplicates an existing arc, so the arc set survives — but the
        // graph drops to its explicit representation and the scheduler
        // stream changes.  The run must stay seed-deterministic.
        let plan = ChurnPlan::new()
            .at(5, ChurnKind::Rewire { count: 4 })
            .at(50, ChurnKind::Rewire { count: 4 });
        let point = SweepPoint::new(16, 9);
        let a = churn_ready_fratricide()
            .with_churn_plan(plan.clone())
            .run_full(&point);
        let b = churn_ready_fratricide()
            .with_churn_plan(plan)
            .run_full(&point);
        assert_eq!(a.report, b.report, "churned runs are seed-deterministic");
        assert_eq!(a.sim.config().states(), b.sim.config().states());
        assert!(a.report.converged());
    }

    #[test]
    fn rewire_changes_ring_topology_deterministically() {
        let plan = ChurnPlan::new().at(0, ChurnKind::Rewire { count: 2 });
        let build = || {
            ScenarioBuilder::new("rewired-ring", |_pt: &SweepPoint| Fratricide)
                .init(|_p, pt| Configuration::uniform(pt.n, true))
                .stop_when("unique-leader", |p: &Fratricide, c| {
                    p.has_unique_leader(c.states())
                })
                .check_every(|_pt| 7)
                .step_budget(|_pt| 500_000)
                .build()
                .unwrap()
        };
        let point = SweepPoint::new(12, 4);
        let a = build().with_churn_plan(plan.clone()).run_full(&point);
        let b = build().with_churn_plan(plan).run_full(&point);
        let ring: Vec<Interaction> = DirectedRing::new(12).unwrap().arcs();
        assert_eq!(a.sim.graph().arcs(), b.sim.graph().arcs());
        assert_ne!(
            a.sim.graph().arcs(),
            ring,
            "a step-0 rewire must replace ring arcs"
        );
        assert_eq!(
            a.sim.graph().arcs().len(),
            ring.len(),
            "arc count is preserved"
        );
        assert_eq!(a.report, b.report);
    }

    #[test]
    fn partition_blocks_global_convergence_until_heal() {
        // A 2-block partition of the complete graph leaves each block with
        // at least one leader that fratricide can never eliminate from the
        // other block, so the global unique-leader predicate is unreachable
        // until the heal restores the full topology.
        let heal_at = 2_000;
        let plan = ChurnPlan::new()
            .at(0, ChurnKind::Partition { blocks: 2 })
            .at(heal_at, ChurnKind::Heal);
        let report = churn_ready_fratricide()
            .with_churn_plan(plan)
            .run(&SweepPoint::new(8, 2));
        assert!(report.converged());
        assert!(
            report.convergence_step() >= heal_at,
            "converged at {} while partitioned",
            report.convergence_step()
        );
    }

    #[test]
    fn join_and_leave_resize_the_population() {
        // A never-true stop criterion keeps the run alive past both events
        // (converged runs stop firing their remaining churn, like fault
        // plans do).
        let plan = ChurnPlan::new()
            .at(100, ChurnKind::Join { count: 4 })
            .at(2_000, ChurnKind::Leave { count: 2 });
        let build = || {
            ScenarioBuilder::new("resizing", |_pt: &SweepPoint| Fratricide)
                .graph(GraphFamily::Complete)
                .init(|_p, pt| Configuration::uniform(pt.n, false))
                .stop_when("never", |_p: &Fratricide, _c| false)
                .check_every(|_pt| 7)
                .step_budget(|_pt| 5_000)
                .corruption(|_p, _rng, _i| true)
                .build()
                .unwrap()
        };
        let point = SweepPoint::new(8, 6);
        let a = build()
            .with_churn_plan(plan.clone())
            .try_run_full(&point)
            .unwrap();
        let b = build().with_churn_plan(plan).try_run_full(&point).unwrap();
        assert_eq!(a.sim.config().len(), 10, "8 + 4 joined - 2 left");
        assert_eq!(a.sim.num_agents(), 10);
        assert!(!a.report.converged());
        assert_eq!(a.report.steps_executed, 5_000);
        assert_eq!(a.report, b.report, "resizing runs are seed-deterministic");
        assert_eq!(a.sim.config().states(), b.sim.config().states());
    }

    #[test]
    fn join_without_corruption_is_a_typed_error() {
        // Joining agents' states are minted by the corruption function; a
        // join plan on a scenario that never set one must surface
        // MissingCorruption from every fallible entry point, like fault
        // plans do.
        let plan = ChurnPlan::new().at(5, ChurnKind::Join { count: 1 });
        let not_ready = fratricide_scenario().with_churn_plan(plan);
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
        // Rewire/partition/leave plans need no corruption function.
        let rewire = fratricide_scenario()
            .with_churn_plan(ChurnPlan::new().at(5, ChurnKind::Rewire { count: 1 }));
        assert!(rewire.try_run(&point).is_ok());
    }

    #[test]
    fn partition_stranding_every_arc_is_a_typed_error() {
        // Every arc of this custom digraph crosses the 2-block boundary, so
        // the partition leaves an empty arc set — a typed error, not a hang.
        let scenario = ScenarioBuilder::new("crossing", |_pt: &SweepPoint| Fratricide)
            .graph(GraphFamily::Custom(Arc::new(|_n| {
                ArbitraryGraph::new(
                    4,
                    vec![
                        Interaction::new(0, 2),
                        Interaction::new(2, 1),
                        Interaction::new(1, 3),
                        Interaction::new(3, 0),
                    ],
                )
            })))
            .init(|_p, pt| Configuration::uniform(pt.n, true))
            .stop_when("unique-leader", |p: &Fratricide, c| {
                p.has_unique_leader(c.states())
            })
            .check_every(|_pt| 7)
            .step_budget(|_pt| 100_000)
            .build()
            .unwrap()
            .with_churn_plan(ChurnPlan::new().at(10, ChurnKind::Partition { blocks: 2 }));
        assert!(matches!(
            scenario.try_run(&SweepPoint::new(4, 0)),
            Err(PopulationError::EmptyArcSet)
        ));
    }

    #[test]
    fn leave_below_two_agents_is_a_typed_error() {
        let plan = ChurnPlan::new().at(10, ChurnKind::Leave { count: 3 });
        let err = churn_ready_fratricide()
            .with_churn_plan(plan)
            .try_run(&SweepPoint::new(4, 0))
            .unwrap_err();
        assert!(
            matches!(
                err,
                PopulationError::PopulationTooSmall {
                    requested: 1,
                    minimum: 2
                }
            ),
            "expected PopulationTooSmall, got {err:?}"
        );
    }

    #[test]
    fn leader_trajectory_applies_the_churn_plan() {
        // Partition before the first interaction, heal at a non-boundary
        // step: the sample grid must be preserved and the partition must be
        // visible as two surviving leaders (one per block) until the heal.
        let plan = ChurnPlan::new()
            .at(0, ChurnKind::Partition { blocks: 2 })
            .at(4_500, ChurnKind::Heal);
        let traj = churn_ready_fratricide()
            .with_churn_plan(plan)
            .leader_trajectory(&SweepPoint::new(8, 3), 20_000, 1_000);
        assert_eq!(
            traj.iter().map(|&(s, _)| s).collect::<Vec<_>>(),
            (0..=20u64).map(|i| i * 1_000).collect::<Vec<_>>()
        );
        assert_eq!(traj[0].1, 8);
        // While partitioned each block burns down to exactly one leader.
        assert_eq!(traj[3].1, 2, "trajectory: {traj:?}");
        assert_eq!(traj[4].1, 2, "trajectory: {traj:?}");
        // After the heal the war burns back down to one.
        assert_eq!(traj.last().unwrap().1, 1, "trajectory: {traj:?}");
    }

    #[test]
    fn detection_runs_under_churn() {
        // Smoke: the recurrence-detecting path resyncs its fingerprint sum
        // across a churn boundary and still converges with nothing pending.
        // The rewire fires at step 0 — fratricide on a complete graph
        // converges long before any later step, which would leave the event
        // pending.
        let plan = ChurnPlan::new().at(0, ChurnKind::Rewire { count: 2 });
        let detected = churn_ready_fratricide()
            .with_churn_plan(plan)
            .try_run_detecting(&SweepPoint::new(8, 4))
            .unwrap();
        assert!(detected.report.converged());
        assert!(detected.recurrence.is_none());
        assert!(!detected.faults_pending);
    }

    #[test]
    fn custom_scheduler_runs_honour_churn_plans() {
        use crate::scheduler::RandomScheduler;
        // The partition/heal gate from the fast-path test must hold through
        // the DynScheduler loop too.
        let heal_at = 2_000;
        let plan = ChurnPlan::new()
            .at(0, ChurnKind::Partition { blocks: 2 })
            .at(heal_at, ChurnKind::Heal);
        let report = churn_ready_fratricide()
            .with_scheduler(SchedulerFamily::custom("random-boxed", |_pt, _g| {
                Box::new(RandomScheduler::new())
            }))
            .with_churn_plan(plan)
            .run(&SweepPoint::new(8, 2));
        assert!(report.converged());
        assert!(report.convergence_step() >= heal_at);
    }
}
