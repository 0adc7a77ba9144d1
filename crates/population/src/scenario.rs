//! Declarative, protocol-erased experiment scenarios.
//!
//! Every convergence experiment in this workspace has the same shape: build a
//! protocol, a graph and an initial configuration for a sweep point, optionally
//! corrupt agents according to a fault plan, run under the uniformly random
//! scheduler until a stop criterion holds or a step budget runs out, and
//! report a [`ConvergenceReport`].  Historically each protocol needed its own
//! monomorphized copy of that plumbing; this module provides **one** run path
//! for all of them:
//!
//! * [`DynState`] / [`DynProtocol`] — type erasure for protocols and their
//!   per-agent states, so heterogeneous protocols flow through a single
//!   `Simulation<DynProtocol, AnyGraph>`.  Erasure does not change the
//!   execution: the scheduler, RNG stream and transition function are
//!   exactly those of the typed path, so reports are bit-identical.
//!   Erased states live in fixed-size **inline slots** ([`crate::slot`]), so
//!   the erased configuration is one contiguous buffer and the per-step cost
//!   matches static dispatch — no per-agent heap boxes.
//! * [`GraphFamily`] / [`AnyGraph`] — graph topologies selectable per
//!   scenario and instantiated per sweep point.
//! * [`FaultPlan`] / [`ChurnPlan`] — transient faults and topology changes
//!   scheduled into the run at explicit steps.
//! * [`ScenarioBuilder`] → [`Scenario`] — the declarative layer tying a
//!   protocol factory, an initial-condition generator, a stop criterion, a
//!   step budget and an optional fault plan together, runnable on single
//!   [`SweepPoint`]s or whole [`SweepGrid`]s.
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
use std::sync::Arc;

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

use crate::batch::{group_by_size, BatchRunner, BatchSummary, Outcome};
use crate::config::Configuration;
use crate::convergence::ConvergenceReport;
use crate::error::{PopulationError, Result};
use crate::faults::{FaultInjector, FaultKind};
use crate::graph::{ArbitraryGraph, CompleteGraph, DirectedRing, InteractionGraph, UndirectedRing};
use crate::observer::{LeaderCounter, NoObserver, StepObserver};
use crate::protocol::{LeaderElection, Protocol};
use crate::recurrence::{FingerprintSum, RecurrenceCandidate, RecurrenceDetector};
use crate::schedule::Interaction;
use crate::scheduler::Scheduler;
use crate::simulation::{oracle_in_use, OracleFold, Simulation};
use crate::sweep::{SweepGrid, SweepPoint};

// ---------------------------------------------------------------------------
// State erasure
// ---------------------------------------------------------------------------

pub use crate::slot::{DynState, SlotState};

/// Rebuilds a typed configuration from an erased one, if every agent state
/// has type `S`.  Used by tests and examples that inspect final states after
/// a [`Scenario::run_full`].
pub fn downcast_config<S: SlotState>(config: &Configuration<DynState>) -> Option<Configuration<S>> {
    let mut states = Vec::with_capacity(config.len());
    for s in config.states() {
        states.push(s.downcast_ref::<S>()?.clone());
    }
    Some(Configuration::from_states(states))
}

// ---------------------------------------------------------------------------
// Protocol erasure
// ---------------------------------------------------------------------------

/// The object-safe face of a (leader-election) protocol over [`DynState`]
/// slots.  Its one implementer is [`Erased`], behind [`DynProtocol::erase`]
/// (for [`LeaderElection`] protocols) and [`DynProtocol::erase_protocol`]
/// (for protocols without a leader output, whose `is_leader_dyn` is always
/// `false`).
trait DynLeaderElection: Send + Sync {
    /// The transition function on erased states.
    ///
    /// # Panics
    ///
    /// Panics if either state does not downcast to the protocol's state type
    /// (mixing states of different protocols in one configuration).
    fn interact_dyn(&self, initiator: &mut DynState, responder: &mut DynState);

    /// See [`Protocol::oracle_marks`].
    fn oracle_marks_dyn(&self, state: &DynState) -> u8;

    /// See [`Protocol::oracle_apply`].
    fn oracle_apply_dyn(&self, view: u8, state: &mut DynState);

    /// See [`Protocol::interact_block`]: a whole block of steps in one
    /// virtual call, into the block loop monomorphized for the typed
    /// protocol.
    fn interact_block_dyn(
        &self,
        states: &mut [DynState],
        oracle: &mut OracleFold,
        arcs: &[Interaction],
    );

    /// See [`Protocol::uses_oracle`].
    fn uses_oracle_dyn(&self) -> bool;

    /// The leader-output map; `false` for protocols without one.
    fn is_leader_dyn(&self, state: &DynState) -> bool;

    /// See [`Protocol::name`].
    fn protocol_name(&self) -> &'static str;
}

/// Erasure wrapper: the typed protocol and its leader output, which is
/// constantly `false` for protocols without one.
///
/// It is also `P`'s static slot view: a [`Protocol`] over [`DynState`] that
/// downcasts and calls `P` directly.  Its block loop
/// ([`Protocol::interact_block`]) is therefore monomorphized for `P`, oracle
/// fold included, behind the one virtual call of
/// [`DynLeaderElection::interact_block_dyn`].
#[derive(Clone)]
struct Erased<P: Protocol> {
    protocol: P,
    is_leader: fn(&P, &P::State) -> bool,
}

impl<P> Erased<P>
where
    P: Protocol,
    P::State: Any,
{
    fn typed<'a>(&self, state: &'a DynState) -> &'a P::State {
        state
            .downcast_ref()
            .unwrap_or_else(|| panic!("state does not belong to protocol {}", self.protocol.name()))
    }

    fn typed_mut<'a>(&self, state: &'a mut DynState) -> &'a mut P::State {
        state
            .downcast_mut()
            .unwrap_or_else(|| panic!("state does not belong to protocol {}", self.protocol.name()))
    }
}

impl<P> Protocol for Erased<P>
where
    P: Protocol,
    P::State: Any,
{
    type State = DynState;
    const HAS_ENVIRONMENT: bool = P::HAS_ENVIRONMENT;

    fn interact(&self, initiator: &mut DynState, responder: &mut DynState) {
        let i = self.typed_mut(initiator);
        let r = self.typed_mut(responder);
        self.protocol.interact(i, r);
    }

    fn oracle_marks(&self, state: &DynState) -> u8 {
        self.protocol.oracle_marks(self.typed(state))
    }

    fn oracle_apply(&self, view: u8, state: &mut DynState) {
        self.protocol.oracle_apply(view, self.typed_mut(state));
    }

    /// Panics, as the typed [`Simulation::try_new`] does, if `P` reports an
    /// oracle without setting [`Protocol::HAS_ENVIRONMENT`]: the block loop
    /// would compile its oracle out.
    fn uses_oracle(&self) -> bool {
        oracle_in_use(&self.protocol)
    }

    fn name(&self) -> &'static str {
        self.protocol.name()
    }
}

impl<P> DynLeaderElection for Erased<P>
where
    P: Protocol + 'static,
    P::State: Any,
{
    fn interact_dyn(&self, initiator: &mut DynState, responder: &mut DynState) {
        self.interact(initiator, responder);
    }

    fn oracle_marks_dyn(&self, state: &DynState) -> u8 {
        self.oracle_marks(state)
    }

    fn oracle_apply_dyn(&self, view: u8, state: &mut DynState) {
        self.oracle_apply(view, state);
    }

    fn interact_block_dyn(
        &self,
        states: &mut [DynState],
        oracle: &mut OracleFold,
        arcs: &[Interaction],
    ) {
        self.interact_block(states, oracle, arcs);
    }

    fn uses_oracle_dyn(&self) -> bool {
        self.uses_oracle()
    }

    fn is_leader_dyn(&self, state: &DynState) -> bool {
        state
            .downcast_ref::<P::State>()
            .is_some_and(|s| (self.is_leader)(&self.protocol, s))
    }

    fn protocol_name(&self) -> &'static str {
        self.name()
    }
}

/// A type-erased protocol: implements [`Protocol`] (and [`LeaderElection`])
/// over [`DynState`], delegating to the erased inner protocol.
///
/// Cloning is cheap (`Arc`).
#[derive(Clone)]
pub struct DynProtocol {
    inner: Arc<dyn DynLeaderElection>,
}

impl DynProtocol {
    /// Erases a leader-election protocol.
    pub fn erase<P>(protocol: P) -> Self
    where
        P: LeaderElection + 'static,
        P::State: Any,
    {
        DynProtocol {
            inner: Arc::new(Erased {
                protocol,
                is_leader: P::is_leader,
            }),
        }
    }

    /// Erases a protocol without a leader output ([`LeaderElection::is_leader`]
    /// of the erased protocol is constantly `false`).
    pub fn erase_protocol<P>(protocol: P) -> Self
    where
        P: Protocol + 'static,
        P::State: Any,
    {
        DynProtocol {
            inner: Arc::new(Erased {
                protocol,
                is_leader: |_, _| false,
            }),
        }
    }
}

impl fmt::Debug for DynProtocol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("DynProtocol")
            .field("name", &self.inner.protocol_name())
            .finish()
    }
}

impl Protocol for DynProtocol {
    type State = DynState;

    /// Conservatively `true`: whether the erased protocol actually has an
    /// oracle is a runtime property, reported by
    /// [`Protocol::uses_oracle`] and cached once per run by the simulation
    /// — pure protocols under erasure still skip the oracle bookkeeping.
    const HAS_ENVIRONMENT: bool = true;

    fn interact(&self, initiator: &mut DynState, responder: &mut DynState) {
        self.inner.interact_dyn(initiator, responder);
    }

    fn oracle_marks(&self, state: &DynState) -> u8 {
        self.inner.oracle_marks_dyn(state)
    }

    fn oracle_apply(&self, view: u8, state: &mut DynState) {
        self.inner.oracle_apply_dyn(view, state);
    }

    fn interact_block(
        &self,
        states: &mut [DynState],
        oracle: &mut OracleFold,
        arcs: &[Interaction],
    ) {
        self.inner.interact_block_dyn(states, oracle, arcs);
    }

    fn uses_oracle(&self) -> bool {
        self.inner.uses_oracle_dyn()
    }

    fn name(&self) -> &'static str {
        self.inner.protocol_name()
    }
}

impl LeaderElection for DynProtocol {
    fn is_leader(&self, state: &DynState) -> bool {
        self.inner.is_leader_dyn(state)
    }
}

// ---------------------------------------------------------------------------
// Graph families
// ---------------------------------------------------------------------------

/// A family of interaction graphs, instantiated per population size.
///
/// The generated families (torus, small-world, preferential-attachment,
/// random-regular) are pure functions of `(their parameters, n)`: the
/// randomized ones derive a dedicated RNG via
/// [`crate::graph::graph_rng_seed`], so instantiation is bit-identical at any
/// thread count and in any evaluation order.
#[derive(Clone)]
pub enum GraphFamily {
    /// The paper's directed ring (the default).
    DirectedRing,
    /// The undirected ring of Section 5.
    UndirectedRing,
    /// The complete interaction graph.
    Complete,
    /// A 2-D wrapped grid dimensioned by [`crate::graph::torus_dims`]
    /// (deterministic, no seed).
    Torus,
    /// A Watts–Strogatz small-world graph (see [`crate::graph::small_world`]).
    SmallWorld {
        /// Nearest-neighbour links per agent on the ring lattice (`k/2` per
        /// side).
        k: u16,
        /// Rewiring probability in thousandths (0..=1000).
        rewire_per_mille: u16,
        /// Family seed; the per-size RNG stream is derived from it.
        seed: u64,
    },
    /// A Barabási–Albert preferential-attachment graph (see
    /// [`crate::graph::preferential_attachment`]).
    PreferentialAttachment {
        /// Edges attached per new agent.
        m: u16,
        /// Family seed; the per-size RNG stream is derived from it.
        seed: u64,
    },
    /// A random directed `d`-regular graph — a union of random Hamiltonian
    /// cycles, an expander with high probability (see
    /// [`crate::graph::random_regular`]).
    RandomRegular {
        /// Exact out- and in-degree of every agent.
        degree: u16,
        /// Family seed; the per-size RNG stream is derived from it.
        seed: u64,
    },
    /// An arbitrary graph built by a user closure.
    Custom(Arc<dyn Fn(usize) -> Result<ArbitraryGraph> + Send + Sync>),
}

impl GraphFamily {
    /// Builds the concrete graph for a population of `n` agents.
    ///
    /// # Errors
    ///
    /// Propagates the graph constructors' errors (e.g. `n < 2`,
    /// [`PopulationError::SelfLoopArc`] / [`PopulationError::EmptyArcSet`]
    /// from a custom closure), and rejects a [`GraphFamily::Custom`] graph
    /// that is not weakly connected with
    /// [`PopulationError::DisconnectedGraph`] — on a disconnected graph a
    /// global stop predicate can be unreachable, so the run would only ever
    /// end by budget exhaustion.  (The generated families are connected by
    /// construction and skip the check.)
    pub fn build(&self, n: usize) -> Result<AnyGraph> {
        Ok(match self {
            GraphFamily::DirectedRing => AnyGraph::DirectedRing(DirectedRing::new(n)?),
            GraphFamily::UndirectedRing => AnyGraph::UndirectedRing(UndirectedRing::new(n)?),
            GraphFamily::Complete => {
                if n < 2 {
                    return Err(PopulationError::PopulationTooSmall {
                        requested: n,
                        minimum: 2,
                    });
                }
                AnyGraph::Complete(CompleteGraph::new(n))
            }
            GraphFamily::Torus => AnyGraph::Arbitrary(crate::graph::torus(n)?),
            GraphFamily::SmallWorld {
                k,
                rewire_per_mille,
                seed,
            } => AnyGraph::Arbitrary(crate::graph::small_world(
                n,
                usize::from(*k),
                *rewire_per_mille,
                *seed,
            )?),
            GraphFamily::PreferentialAttachment { m, seed } => AnyGraph::Arbitrary(
                crate::graph::preferential_attachment(n, usize::from(*m), *seed)?,
            ),
            GraphFamily::RandomRegular { degree, seed } => AnyGraph::Arbitrary(
                crate::graph::random_regular(n, usize::from(*degree), *seed)?,
            ),
            GraphFamily::Custom(f) => {
                let g = f(n)?;
                let reached = crate::graph::weak_reach(g.num_agents(), &g.arcs());
                if reached != g.num_agents() {
                    return Err(PopulationError::DisconnectedGraph {
                        agents: g.num_agents(),
                        reached,
                    });
                }
                AnyGraph::Arbitrary(g)
            }
        })
    }
}

impl fmt::Debug for GraphFamily {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GraphFamily::DirectedRing => write!(f, "GraphFamily::DirectedRing"),
            GraphFamily::UndirectedRing => write!(f, "GraphFamily::UndirectedRing"),
            GraphFamily::Complete => write!(f, "GraphFamily::Complete"),
            GraphFamily::Torus => write!(f, "GraphFamily::Torus"),
            GraphFamily::SmallWorld {
                k,
                rewire_per_mille,
                seed,
            } => write!(
                f,
                "GraphFamily::SmallWorld {{ k: {k}, rewire_per_mille: {rewire_per_mille}, \
                 seed: {seed} }}"
            ),
            GraphFamily::PreferentialAttachment { m, seed } => write!(
                f,
                "GraphFamily::PreferentialAttachment {{ m: {m}, seed: {seed} }}"
            ),
            GraphFamily::RandomRegular { degree, seed } => write!(
                f,
                "GraphFamily::RandomRegular {{ degree: {degree}, seed: {seed} }}"
            ),
            GraphFamily::Custom(_) => write!(f, "GraphFamily::Custom(..)"),
        }
    }
}

/// A concrete graph of any supported family; dispatches
/// [`InteractionGraph`] to the wrapped topology, so sampling consumes the
/// RNG exactly like the wrapped graph would.
#[derive(Clone, Debug)]
pub enum AnyGraph {
    /// A directed ring.
    DirectedRing(DirectedRing),
    /// An undirected ring.
    UndirectedRing(UndirectedRing),
    /// A complete graph.
    Complete(CompleteGraph),
    /// An arbitrary arc set.
    Arbitrary(ArbitraryGraph),
}

impl InteractionGraph for AnyGraph {
    fn num_agents(&self) -> usize {
        match self {
            AnyGraph::DirectedRing(g) => g.num_agents(),
            AnyGraph::UndirectedRing(g) => g.num_agents(),
            AnyGraph::Complete(g) => g.num_agents(),
            AnyGraph::Arbitrary(g) => g.num_agents(),
        }
    }

    fn num_arcs(&self) -> usize {
        match self {
            AnyGraph::DirectedRing(g) => g.num_arcs(),
            AnyGraph::UndirectedRing(g) => g.num_arcs(),
            AnyGraph::Complete(g) => g.num_arcs(),
            AnyGraph::Arbitrary(g) => g.num_arcs(),
        }
    }

    fn is_arc(&self, initiator: usize, responder: usize) -> bool {
        match self {
            AnyGraph::DirectedRing(g) => g.is_arc(initiator, responder),
            AnyGraph::UndirectedRing(g) => g.is_arc(initiator, responder),
            AnyGraph::Complete(g) => g.is_arc(initiator, responder),
            AnyGraph::Arbitrary(g) => g.is_arc(initiator, responder),
        }
    }

    fn sample<R: rand::Rng + ?Sized>(&self, rng: &mut R) -> Interaction {
        match self {
            AnyGraph::DirectedRing(g) => g.sample(rng),
            AnyGraph::UndirectedRing(g) => g.sample(rng),
            AnyGraph::Complete(g) => g.sample(rng),
            AnyGraph::Arbitrary(g) => g.sample(rng),
        }
    }

    fn arcs(&self) -> Vec<Interaction> {
        match self {
            AnyGraph::DirectedRing(g) => g.arcs(),
            AnyGraph::UndirectedRing(g) => g.arcs(),
            AnyGraph::Complete(g) => g.arcs(),
            AnyGraph::Arbitrary(g) => g.arcs(),
        }
    }

    fn describe(&self) -> String {
        match self {
            AnyGraph::DirectedRing(g) => g.describe(),
            AnyGraph::UndirectedRing(g) => g.describe(),
            AnyGraph::Complete(g) => g.describe(),
            AnyGraph::Arbitrary(g) => g.describe(),
        }
    }
}

// ---------------------------------------------------------------------------
// Scheduler erasure
// ---------------------------------------------------------------------------

/// The object-safe face of a scheduler on the erased run path.
///
/// Unlike the typed [`Scheduler`] trait (generic over graph and RNG), a
/// `DynScheduler` works on the concrete erased types — [`AnyGraph`],
/// [`DynState`] slices and the simulation's `ChaCha8Rng` — and additionally
/// sees the **current configuration**, which is what lets adversarial
/// schedulers (e.g. a greedy adversary scoring candidate arcs against a
/// protocol potential) pick convergence-hostile interactions.
///
/// Every typed [`Scheduler<AnyGraph>`] is a `DynScheduler` for free through
/// the blanket impl below: it ignores the states, so it also chooses whole
/// blocks of arcs at once ([`DynScheduler::schedule_block`]).  A scheduler
/// that reads the states implements `DynScheduler` itself and keeps the
/// default one-arc block, so it sees the configuration before every step.
///
/// # Example
///
/// A hand-rolled state-visible scheduler: always interact across the first
/// arc joining two leaders — the fastest-electing schedule for a
/// demote-on-collision protocol (a hostile scheduler would do the
/// opposite) — falling back to a uniform draw, wired into a scenario
/// through [`SchedulerFamily::custom`]:
///
/// ```
/// use population::prelude::*;
/// use rand_chacha::ChaCha8Rng;
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
/// struct LeaderCollider;
/// impl DynScheduler for LeaderCollider {
///     fn schedule(
///         &mut self,
///         graph: &AnyGraph,
///         states: &[DynState],
///         rng: &mut ChaCha8Rng,
///     ) -> population::Result<Interaction> {
///         let is_leader =
///             |i: population::AgentId| states[i.index()].downcast_ref::<bool>() == Some(&true);
///         let collision = graph
///             .arcs()
///             .into_iter()
///             .find(|arc| is_leader(arc.initiator()) && is_leader(arc.responder()));
///         Ok(collision.unwrap_or_else(|| graph.sample(rng)))
///     }
/// }
///
/// let scenario = ScenarioBuilder::new("fratricide", |_pt: &SweepPoint| Fratricide)
///     .graph(GraphFamily::Complete)
///     .init(|_p, pt| Configuration::uniform(pt.n, true))
///     .stop_when("unique-leader", |p: &Fratricide, c| {
///         p.has_unique_leader(c.states())
///     })
///     .step_budget(|_pt| 10_000)
///     .scheduler(SchedulerFamily::custom("leader-collider", |_pt, _graph| {
///         Box::new(LeaderCollider)
///     }))
///     .build()
///     .unwrap();
/// assert!(scenario.run(&SweepPoint::new(8, 1)).converged());
/// ```
pub trait DynScheduler: Send {
    /// Returns the interaction for the next step.
    ///
    /// (Named `schedule` rather than `next_interaction` so types
    /// implementing both this and the typed [`Scheduler`] trait — every
    /// `Scheduler<AnyGraph>`, via the blanket impl — keep an unambiguous
    /// method surface.)
    ///
    /// # Errors
    ///
    /// Deterministic schedulers return
    /// [`PopulationError::ScheduleExhausted`] once their sequence runs out;
    /// stochastic schedulers never fail.
    fn schedule(
        &mut self,
        graph: &AnyGraph,
        states: &[DynState],
        rng: &mut ChaCha8Rng,
    ) -> Result<Interaction>;

    /// Chooses the interactions of the next steps at once: writes a
    /// non-empty prefix of `arcs` and returns its length, along with the
    /// error that cut the block short, if any (then the prefix may be
    /// empty).  Unobserved scheduled runs step through this
    /// ([`Simulation::run_chosen_by`]), one virtual call and one
    /// [`Protocol::interact_block`] per block instead of per step.
    ///
    /// `states` is the configuration before the block's first step, so the
    /// default fills exactly one arc: a scheduler that reads the states
    /// (such as a greedy adversary) sees every state it chooses from.
    /// Every typed [`Scheduler<AnyGraph>`] is blind to the states by
    /// construction, and its blanket impl fills the whole block.
    ///
    /// The block must be the one the same calls to
    /// [`DynScheduler::schedule`] would give, and it must end at the first
    /// pair that is not an arc of `graph`, as the step that rejects that
    /// pair ends a per-step run: then a blocked run draws exactly the RNG
    /// words of a per-step one.
    fn schedule_block(
        &mut self,
        graph: &AnyGraph,
        states: &[DynState],
        rng: &mut ChaCha8Rng,
        arcs: &mut [Interaction],
    ) -> (usize, Result<()>) {
        match self.schedule(graph, states, rng) {
            Ok(arc) => {
                arcs[0] = arc;
                (1, Ok(()))
            }
            Err(e) => (0, Err(e)),
        }
    }

    /// The scheduler's deterministic phase, if it has one (see
    /// [`Scheduler::phase`]).  Periodic schedulers return their step counter
    /// modulo the period; memoryless schedulers (the default) return `None`.
    fn phase(&self) -> Option<u64> {
        None
    }
}

impl<S: Scheduler<AnyGraph>> DynScheduler for S {
    fn schedule(
        &mut self,
        graph: &AnyGraph,
        _states: &[DynState],
        rng: &mut ChaCha8Rng,
    ) -> Result<Interaction> {
        Scheduler::next_interaction(self, graph, rng)
    }

    fn schedule_block(
        &mut self,
        graph: &AnyGraph,
        _states: &[DynState],
        rng: &mut ChaCha8Rng,
        arcs: &mut [Interaction],
    ) -> (usize, Result<()>) {
        for (filled, slot) in arcs.iter_mut().enumerate() {
            match Scheduler::next_interaction(self, graph, rng) {
                Ok(arc) => {
                    *slot = arc;
                    if !graph.is_arc(arc.initiator().index(), arc.responder().index()) {
                        return (filled + 1, Ok(()));
                    }
                }
                Err(e) => return (filled, Err(e)),
            }
        }
        (arcs.len(), Ok(()))
    }

    fn phase(&self) -> Option<u64> {
        Scheduler::phase(self)
    }
}

/// The builder closure of a custom [`SchedulerFamily`]: produces a fresh
/// boxed scheduler for one run from the sweep point and the concrete graph.
pub type BuildScheduler =
    Arc<dyn Fn(&SweepPoint, &AnyGraph) -> Box<dyn DynScheduler> + Send + Sync>;

/// A family of schedulers, instantiated per sweep point (the scheduler
/// analogue of [`GraphFamily`]).
///
/// [`SchedulerFamily::Random`] — the default — is **not** routed through the
/// [`DynScheduler`] indirection: scenarios keep the exact pre-scheduler hot
/// loop (`graph.sample(rng)` inlined into the run burst), so the uniformly
/// random path stays bit-identical to the historical one (pinned by
/// `scenario_equivalence`).  Custom families build a fresh boxed scheduler
/// for every run from the sweep point and the concrete graph.
#[derive(Clone, Default)]
pub enum SchedulerFamily {
    /// The paper's uniformly random scheduler (the default fast path).
    #[default]
    Random,
    /// A named custom scheduler family.
    Custom {
        /// A short name for reports and `Debug` output.
        name: String,
        /// Builds the scheduler for one run.
        build: BuildScheduler,
    },
}

impl SchedulerFamily {
    /// Creates a named custom family from a builder closure.
    pub fn custom(
        name: impl Into<String>,
        build: impl Fn(&SweepPoint, &AnyGraph) -> Box<dyn DynScheduler> + Send + Sync + 'static,
    ) -> Self {
        SchedulerFamily::Custom {
            name: name.into(),
            build: Arc::new(build),
        }
    }

    /// The family's name (`"random"` for the default).
    pub fn name(&self) -> &str {
        match self {
            SchedulerFamily::Random => "random",
            SchedulerFamily::Custom { name, .. } => name,
        }
    }

    /// `true` for the default uniformly random family.
    pub fn is_random(&self) -> bool {
        matches!(self, SchedulerFamily::Random)
    }
}

impl fmt::Debug for SchedulerFamily {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "SchedulerFamily({:?})", self.name())
    }
}

// ---------------------------------------------------------------------------
// Fault plans
// ---------------------------------------------------------------------------

/// A fault scheduled at an explicit step of a scenario run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FaultEvent {
    /// The step (counted from the start of the run) *before* which the fault
    /// fires; step 0 fires before the first interaction and before the
    /// initial stop-criterion check.
    pub at_step: u64,
    /// The corruption to apply.
    pub kind: FaultKind,
}

/// A declarative schedule of transient faults injected during a scenario
/// run: corruptions at explicit steps ([`FaultPlan::at`]), kept sorted by
/// step.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct FaultPlan {
    events: Vec<FaultEvent>,
}

impl FaultPlan {
    /// Creates an empty plan.
    pub fn new() -> Self {
        FaultPlan::default()
    }

    /// Schedules `kind` to fire at `at_step` (builder-style; events are kept
    /// sorted by step).
    ///
    /// # Panics
    ///
    /// Panics on a zero-extent kind (`count == 0` / `limit == 0`) — a no-op
    /// fault in a plan is always a bug.  Use [`FaultPlan::try_at`] to handle
    /// it as a typed error instead.
    pub fn at(self, at_step: u64, kind: FaultKind) -> Self {
        self.try_at(at_step, kind).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible variant of [`FaultPlan::at`].
    ///
    /// # Errors
    ///
    /// Returns [`PopulationError::DegenerateFault`] if `kind` has extent
    /// zero ([`FaultKind::extent`]): such an event can never corrupt
    /// anything, so scheduling one is always a bug, not a boundary case.
    pub fn try_at(mut self, at_step: u64, kind: FaultKind) -> Result<Self> {
        if kind.extent() == Some(0) {
            return Err(PopulationError::DegenerateFault { at: at_step });
        }
        self.events.push(FaultEvent { at_step, kind });
        self.events.sort_by_key(|e| e.at_step);
        Ok(self)
    }

    /// The step-scheduled events, sorted by step.
    pub fn events(&self) -> &[FaultEvent] {
        &self.events
    }

    /// Returns `true` if the plan schedules no event.  Empty plans keep the
    /// fault-free fast path.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Number of scheduled fault events.
    pub fn len(&self) -> usize {
        self.events.len()
    }
}

// ---------------------------------------------------------------------------
// Churn plans
// ---------------------------------------------------------------------------

/// One kind of mid-run topology change.  The churn analogue of
/// [`FaultKind`]: faults corrupt *states*, churn rewrites the *graph* (and,
/// for join/leave, the population itself).
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

// ---------------------------------------------------------------------------
// Scenario and builder
// ---------------------------------------------------------------------------

type PointFn<T> = Arc<dyn Fn(&SweepPoint) -> T + Send + Sync>;
/// A stop criterion over erased states.  `FnMut` so the closure can reuse an
/// internal typed scratch configuration across checks instead of cloning the
/// whole population into a fresh allocation every time — cheap enough that
/// scenarios can shrink their `check_interval` without a quadratic penalty.
pub type DynStop = Box<dyn FnMut(&[DynState]) -> bool>;
type DynCorrupt = Box<dyn FnMut(&mut ChaCha8Rng, usize) -> DynState>;
/// An erased per-agent target predicate ([`ScenarioBuilder::fault_targets`]):
/// `(state, agent_index) -> is_target`, consumed by
/// [`FaultKind::CorruptTargets`].
type DynTargets = Box<dyn FnMut(&DynState, usize) -> bool>;

/// Everything the erased run path needs for one sweep point, produced by the
/// typed closure captured at [`ScenarioBuilder::build`] time.
struct PreparedRun {
    protocol: DynProtocol,
    config: Configuration<DynState>,
    stop: DynStop,
    corrupt: Option<DynCorrupt>,
    /// A second, independent instance of the corruption closure, consumed by
    /// the churn schedule to mint joining agents' states (`corrupt` itself is
    /// moved into the fault schedule).
    churn_corrupt: Option<DynCorrupt>,
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
            if initial.len() != prepared.config.len() {
                return Err(PopulationError::ConfigurationSizeMismatch {
                    configuration: initial.len(),
                    graph: prepared.config.len(),
                });
            }
            prepared.config = (**initial).clone();
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
    /// set without a corruption function.
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
        let report = self.converge(point, &mut run, &mut NoObserver)?;
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
        let mut sim = Simulation::new(prepared.protocol, graph, prepared.config, sim_seed);
        let plan = self.plan.as_ref().map(|f| f(point)).unwrap_or_default();
        let fault_seed = (self.fault_seed)(point);
        let mut faults = FaultSchedule::new(plan, prepared.corrupt, prepared.targets, fault_seed)?;
        let mut churn = ChurnSchedule::new(
            &self.churn,
            self.graph.clone(),
            prepared.churn_corrupt,
            fault_seed,
        )?;
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
            stop: prepared.stop,
            _scope: scope,
        })
    }

    /// Drives `run` until the stop predicate holds at a check boundary (every
    /// `check_interval` steps, and once at step 0) or the step budget is
    /// spent, and reports the outcome.
    fn converge<O: Watch>(
        &self,
        point: &SweepPoint,
        run: &mut Run,
        observer: &mut O,
    ) -> Result<ConvergenceReport> {
        let check_interval = (self.check_interval)(point).max(1);
        let max_steps = (self.max_steps)(point);
        let (steps, converged) = run.drive(observer, check_interval, max_steps, |run, _| {
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
    /// The leader count is maintained incrementally by a [`LeaderCounter`]
    /// observer (O(1) amortized per step, re-seeded only when a fault
    /// rewrites states out-of-band; an oracle's broadcast never changes
    /// leader outputs).
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
        let mut counter = LeaderCounter::new(run.sim.protocol(), run.sim.config().states());
        run.drive(&mut counter, every, total_steps, |run, counter| {
            out.push((run.sim.steps(), counter.count()));
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
        let PreparedRun {
            protocol,
            config,
            stop,
            ..
        } = self
            .prepared_run(point)
            .unwrap_or_else(|e| panic!("scenario {:?}: {e}", self.name));
        PreparedScenario {
            protocol,
            config,
            stop,
        }
    }

    /// Exhaustively explores the reachable configuration space at one sweep
    /// point (see [`crate::explore::explore`]): verifies stabilization,
    /// extracts the exact worst-case stabilization time, or produces a
    /// counterexample trace.  Intended for small populations (n ≤ ~8) whose
    /// reachable space fits within `limits`.
    ///
    /// # Errors
    ///
    /// Propagates graph-construction errors and a
    /// [`Scenario::with_initial`] override of the wrong size
    /// ([`PopulationError::ConfigurationSizeMismatch`]).
    pub fn explore(
        &self,
        point: &SweepPoint,
        limits: &crate::explore::ExploreLimits,
    ) -> Result<crate::explore::Explored> {
        let PreparedRun {
            protocol,
            config,
            mut stop,
            ..
        } = self.prepared_run(point)?;
        let graph = self.graph.build(point.n)?;
        Ok(crate::explore::explore(
            &protocol,
            &graph.arcs(),
            &config,
            &mut stop,
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
    /// Brent-schedule [`RecurrenceDetector`].
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
        let detecting = !run.sim.environment_active()
            && run.scheduler.as_ref().is_some_and(|s| s.phase().is_some());
        let (report, recurrence) = if detecting {
            let mut watch = Recurrence {
                sum: FingerprintSum::new(run.sim.config().states()),
                detector: RecurrenceDetector::new(),
                found: None,
            };
            (self.converge(point, &mut run, &mut watch)?, watch.found)
        } else {
            (self.converge(point, &mut run, &mut NoObserver)?, None)
        };
        Ok(DetectedRun {
            report,
            recurrence,
            faults_pending: run.faults.pending() || run.churn.pending(),
            sim: run.sim,
        })
    }
}

/// The simulation every erased run drives.
type ErasedSim = Simulation<DynProtocol, AnyGraph>;

/// One erased run in progress: the simulation, its step source, its event
/// schedules and its stop predicate.  [`Scenario::start`] builds it;
/// [`Run::drive`] advances it.
struct Run {
    sim: ErasedSim,
    /// The custom scheduler choosing every step, or `None` for the uniform
    /// sampler's burst loop.
    scheduler: Option<Box<dyn DynScheduler>>,
    faults: FaultSchedule,
    churn: ChurnSchedule,
    stop: DynStop,
    /// Stamps the run's identity on its telemetry events until it drops.
    _scope: ssle_telemetry::RunScope,
}

impl Run {
    /// The discrete-event segment loop: the next segment ends at the
    /// earliest of the next multiple of `every` (capped at `horizon`) and
    /// the next fault or churn event.  After each segment the due churn and
    /// fault events fire, `observer` is re-seeded if any fired, and on the
    /// grid (and at `horizon`) `boundary` runs.  `boundary` also runs
    /// once before the first step; `true` from it ends the run as converged.
    ///
    /// Returns the steps executed and whether the run converged, after
    /// emitting the `converged` and `run_end` telemetry events.
    fn drive<O: Watch>(
        &mut self,
        observer: &mut O,
        every: u64,
        horizon: u64,
        mut boundary: impl FnMut(&mut Run, &O) -> bool,
    ) -> Result<(u64, bool)> {
        let mut converged = boundary(self, observer);
        // The simulation starts at step 0, so its step counter is the run's.
        let mut done = self.sim.steps();
        while !converged && done < horizon {
            let next = (done / every + 1).saturating_mul(every).min(horizon);
            let target = self.churn.clip(done, self.faults.clip(done, next));
            // Segment-constant: `clip` ends every segment at the next event,
            // and events fire only between segments.
            let settled = !self.faults.pending() && !self.churn.pending();
            let ended = self.segment(target - done, settled, observer)?;
            done = self.sim.steps();
            if ended {
                break;
            }
            let churned = self.churn.fire_due(done, &mut self.sim)?;
            if self.faults.fire_due(done, &mut self.sim) | churned {
                observer.reseed(&self.sim);
            }
            if done.is_multiple_of(every) || done == horizon {
                converged = boundary(self, observer);
            }
        }
        if converged && ssle_telemetry::enabled() {
            ssle_telemetry::emit(ssle_telemetry::Event::new("converged").count("step", done));
        }
        telemetry_run_end(done, converged);
        Ok((done, converged))
    }

    /// Runs `k` steps from the step source: the uniform burst or the
    /// scheduled one, each in blocks when unobserved and per step under an
    /// observer.  Returns `true` if the observer ended the run early.
    fn segment<O: Watch>(&mut self, k: u64, settled: bool, observer: &mut O) -> Result<bool> {
        let Run {
            sim,
            scheduler,
            stop,
            ..
        } = self;
        let Some(sched) = scheduler else {
            // The uniform burst counts its steps in `hot_steps` itself.
            observer.burst(sim, k);
            return Ok(false);
        };
        let (ran, ended) = observer.scheduled(sim, &mut **sched, k, settled, stop)?;
        // Scheduled steps are counted here, once per segment.
        ssle_telemetry::metrics::well_known::SCHEDULED_STEPS.add(ran);
        Ok(ended)
    }
}

/// What a [`Run`] feeds every step.  Plain runs use [`NoObserver`], whose
/// hooks compile away.
trait Watch: StepObserver<DynProtocol> + Sized {
    /// Runs `k` uniform steps, observed one by one.
    fn burst(&mut self, sim: &mut ErasedSim, k: u64) {
        sim.run_steps_observed(k, self);
    }

    /// Runs up to `k` steps chosen by `sched`, observed and inspected
    /// ([`Watch::after_step`]) one by one.  Returns the steps run and
    /// whether the observer ended the run.
    fn scheduled(
        &mut self,
        sim: &mut ErasedSim,
        sched: &mut dyn DynScheduler,
        k: u64,
        settled: bool,
        stop: &mut DynStop,
    ) -> Result<(u64, bool)> {
        for step in 0..k {
            sim.step_chosen_by_observed(self, |g, c, rng| sched.schedule(g, c.states(), rng))?;
            if self.after_step(sim, sched, settled, stop) {
                return Ok((step + 1, true));
            }
        }
        Ok((k, false))
    }

    /// Re-seeds from the configuration after a fault or churn event
    /// rewrote states out of band.
    fn reseed(&mut self, _sim: &ErasedSim) {}

    /// Inspects the run after each scheduled step; `true` ends it.
    /// `settled` is `true` when no fault or churn event can still fire.
    fn after_step(
        &mut self,
        _sim: &ErasedSim,
        _scheduler: &dyn DynScheduler,
        _settled: bool,
        _stop: &mut DynStop,
    ) -> bool {
        false
    }
}

/// Nothing to observe, so both bursts run in blocks, one virtual call each.
impl Watch for NoObserver {
    fn burst(&mut self, sim: &mut ErasedSim, k: u64) {
        sim.run_steps(k);
    }

    fn scheduled(
        &mut self,
        sim: &mut ErasedSim,
        sched: &mut dyn DynScheduler,
        k: u64,
        _settled: bool,
        _stop: &mut DynStop,
    ) -> Result<(u64, bool)> {
        sim.run_chosen_by(k, |g, c, rng, arcs| {
            sched.schedule_block(g, c.states(), rng, arcs)
        })?;
        Ok((k, false))
    }
}

impl Watch for LeaderCounter {
    fn reseed(&mut self, sim: &ErasedSim) {
        self.resync(sim.protocol(), sim.config().states());
    }
}

/// The observer of [`Scenario::try_run_detecting`]: an incremental
/// fingerprint sum feeding a Brent-schedule recurrence detector.
struct Recurrence {
    sum: FingerprintSum,
    detector: RecurrenceDetector,
    found: Option<RecurrenceCandidate>,
}

impl StepObserver<DynProtocol> for Recurrence {
    fn pre_interaction(&mut self, p: &DynProtocol, i: Interaction, a: &DynState, b: &DynState) {
        self.sum.pre_interaction(p, i, a, b);
    }

    fn post_interaction(&mut self, p: &DynProtocol, i: Interaction, a: &DynState, b: &DynState) {
        self.sum.post_interaction(p, i, a, b);
    }
}

impl Watch for Recurrence {
    fn reseed(&mut self, sim: &ErasedSim) {
        self.sum.resync(sim.config().states());
        self.detector.reset();
    }

    fn after_step(
        &mut self,
        sim: &ErasedSim,
        scheduler: &dyn DynScheduler,
        settled: bool,
        stop: &mut DynStop,
    ) -> bool {
        // A recurrence confirmed while events are still pending proves
        // nothing — a future fault or churn event would
        // perturb the cycle — so the detector stays disarmed until the
        // schedules are exhausted and only the event-free suffix is
        // searched.
        if !settled {
            return false;
        }
        let Some(candidate) = self.detector.observe(
            self.sum.value(),
            scheduler.phase(),
            sim.steps(),
            sim.config(),
        ) else {
            return false;
        };
        if stop(sim.config().states()) {
            // The recurrent configuration satisfies the stop predicate: the
            // run converged between two check boundaries (a stable fixed
            // point "recurs" trivially).  Let the boundary check report it
            // exactly like the plain run would.
            self.detector.reset();
            return false;
        }
        if ssle_telemetry::enabled() {
            ssle_telemetry::metrics::well_known::RECURRENCES.incr();
            ssle_telemetry::emit(
                ssle_telemetry::Event::new("recurrence_candidate")
                    .count("step", candidate.entry_step)
                    .count("period", candidate.period),
            );
        }
        self.found = Some(candidate);
        true
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

/// The pending half of a fault plan during a run: which step events are
/// still due, and the corruption machinery that fires them.  Every run owns
/// one (see [`Run`]), so faults fire at identical steps whichever entry point
/// drives the run.
struct FaultSchedule {
    events: Vec<FaultEvent>,
    targets: Option<DynTargets>,
    driver: Option<(DynCorrupt, FaultInjector)>,
    next: usize,
}

/// Stable snake_case label of a fault kind for the telemetry stream.
fn fault_kind_label(kind: FaultKind) -> &'static str {
    match kind {
        FaultKind::CorruptRandomAgents { .. } => "corrupt_random_agents",
        FaultKind::CorruptBlock { .. } => "corrupt_block",
        FaultKind::CorruptAll => "corrupt_all",
        FaultKind::CorruptTargets { .. } => "corrupt_targets",
    }
}

impl FaultSchedule {
    /// # Errors
    ///
    /// Surfaces every way a plan can reference scenario machinery that was
    /// never registered, as typed errors before the run loop starts instead
    /// of a panic deep inside it:
    ///
    /// * [`PopulationError::MissingCorruption`] — events without a
    ///   corruption function;
    /// * [`PopulationError::MissingTarget`] — a
    ///   [`FaultKind::CorruptTargets`] event without a target predicate.
    fn new(
        plan: FaultPlan,
        corrupt: Option<DynCorrupt>,
        targets: Option<DynTargets>,
        fault_seed: u64,
    ) -> Result<Self> {
        let driver = if plan.is_empty() {
            None
        } else {
            let corrupt = corrupt.ok_or(PopulationError::MissingCorruption)?;
            Some((corrupt, FaultInjector::new(fault_seed)))
        };
        let wants_targets = plan
            .events
            .iter()
            .any(|e| matches!(e.kind, FaultKind::CorruptTargets { .. }));
        if wants_targets && targets.is_none() {
            return Err(PopulationError::MissingTarget);
        }
        Ok(FaultSchedule {
            events: plan.events,
            targets,
            driver,
            next: 0,
        })
    }

    /// `true` while step events remain unfired.
    fn pending(&self) -> bool {
        self.next < self.events.len()
    }

    /// Clips a burst target so the next pending event is not overshot (the
    /// burst still advances by at least one step past `done`).
    fn clip(&self, done: u64, target: u64) -> u64 {
        match self.events.get(self.next) {
            Some(event) => target.min(event.at_step.max(done + 1)),
            None => target,
        }
    }

    /// Applies one fault kind to the simulation's configuration, routing
    /// targeted kinds through the target predicate.
    fn inject_kind(&mut self, kind: FaultKind, sim: &mut ErasedSim) {
        let Some((corrupt, injector)) = self.driver.as_mut() else {
            return;
        };
        let corrupted = match kind {
            FaultKind::CorruptTargets { limit } => {
                let is_target = self
                    .targets
                    .as_mut()
                    .expect("validated at FaultSchedule construction");
                injector.inject_targeted(
                    sim.config_mut(),
                    limit,
                    |state, agent| is_target(state, agent),
                    &mut **corrupt,
                )
            }
            kind => injector.inject(sim.config_mut(), kind, &mut **corrupt),
        };
        if ssle_telemetry::enabled() {
            ssle_telemetry::metrics::well_known::FAULTS_FIRED.incr();
            ssle_telemetry::emit(
                ssle_telemetry::Event::new("fault_fired")
                    .count("step", sim.steps())
                    .field("kind", fault_kind_label(kind))
                    .count("corrupted", corrupted.len() as u64),
            );
        }
    }

    /// Fires every step event scheduled at or before step `executed`.
    /// Returns `true` if anything fired (states were rewritten out-of-band,
    /// so incremental observers must re-seed).
    fn fire_due(&mut self, executed: u64, sim: &mut ErasedSim) -> bool {
        let mut fired = false;
        while self.next < self.events.len() && self.events[self.next].at_step <= executed {
            let kind = self.events[self.next].kind;
            self.next += 1;
            self.inject_kind(kind, sim);
            fired = true;
        }
        fired
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
struct ChurnSchedule {
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
    fn new(
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
    fn pending(&self) -> bool {
        self.next < self.events.len()
    }

    /// Clips a burst target so the next pending event is not overshot (the
    /// burst still advances by at least one step past `done`).
    fn clip(&self, done: u64, target: u64) -> u64 {
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
    fn fire_due(&mut self, executed: u64, sim: &mut ErasedSim) -> Result<bool> {
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

/// Emits the `run_start` telemetry event and bumps the run counter (a
/// no-op when telemetry is disabled).  The event's required fields
/// (`scenario`, `n`, `seed`) come from the caller's active
/// [`ssle_telemetry::run_scope`], which stamps them onto every event of
/// the run — adding them here again would duplicate the keys.
fn telemetry_run_start() {
    if ssle_telemetry::enabled() {
        ssle_telemetry::metrics::well_known::RUNS.incr();
        ssle_telemetry::emit(ssle_telemetry::Event::new("run_start"));
    }
}

/// Emits the `run_end` telemetry event, counting converged runs (a no-op
/// when telemetry is disabled).
fn telemetry_run_end(steps: u64, converged: bool) {
    if ssle_telemetry::enabled() {
        if converged {
            ssle_telemetry::metrics::well_known::CONVERGED_RUNS.incr();
        }
        ssle_telemetry::emit(
            ssle_telemetry::Event::new("run_end")
                .count("steps", steps)
                .field("converged", converged),
        );
    }
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
                Box::new(move |rng: &mut ChaCha8Rng, i: usize| {
                    DynState::new(corrupt(&corrupt_protocol, rng, i))
                }) as Box<dyn FnMut(&mut ChaCha8Rng, usize) -> DynState>
            });
            // A second, independent instance for the churn schedule: the
            // first is moved into the fault schedule, and both draw from
            // their own RNG streams anyway.
            let churn_corrupt_dyn = corrupt.clone().map(|corrupt| {
                let corrupt_protocol = protocol.clone();
                Box::new(move |rng: &mut ChaCha8Rng, i: usize| {
                    DynState::new(corrupt(&corrupt_protocol, rng, i))
                }) as Box<dyn FnMut(&mut ChaCha8Rng, usize) -> DynState>
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
                protocol: erase(protocol),
                config,
                stop: stop_dyn,
                corrupt: corrupt_dyn,
                churn_corrupt: churn_corrupt_dyn,
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
mod tests {
    use super::*;
    use crate::batch::BatchRunner;

    /// Classic pairwise leader elimination.
    #[derive(Clone, Debug)]
    struct Fratricide;
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

    fn fratricide_scenario() -> Scenario {
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
    fn dyn_state_behaves_like_the_typed_state() {
        let a = DynState::new(5u32);
        let b = a.clone();
        assert_eq!(a, b);
        assert_ne!(a, DynState::new(6u32));
        assert_ne!(
            a,
            DynState::new(5u64),
            "different types never compare equal"
        );
        assert_eq!(format!("{a:?}"), "5");
        assert_eq!(a.downcast_ref::<u32>(), Some(&5));
        assert_eq!(a.downcast_ref::<u64>(), None);
        let mut c = a.clone();
        *c.downcast_mut::<u32>().unwrap() = 9;
        assert_eq!(c.downcast_ref::<u32>(), Some(&9));
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

    /// Erasure keeps the typed simulation's check: an oracle without
    /// [`Protocol::HAS_ENVIRONMENT`] would be compiled out of the block loop.
    #[test]
    #[should_panic(expected = "HAS_ENVIRONMENT")]
    fn erased_oracle_without_has_environment_is_rejected_at_construction() {
        #[derive(Clone, Debug)]
        struct Misconfigured;
        impl Protocol for Misconfigured {
            type State = bool;
            fn interact(&self, _i: &mut bool, _r: &mut bool) {}
            fn uses_oracle(&self) -> bool {
                true
            }
        }
        let graph = GraphFamily::Complete.build(4).unwrap();
        let config = Configuration::uniform(4, DynState::new(false));
        let _ = Simulation::new(DynProtocol::erase_protocol(Misconfigured), graph, config, 0);
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
    fn fault_plan_accessors() {
        let plan = FaultPlan::new()
            .at(10, FaultKind::CorruptAll)
            .at(0, FaultKind::CorruptRandomAgents { count: 1 });
        assert_eq!(plan.len(), 2);
        assert!(!plan.is_empty());
        assert_eq!(plan.events()[0].at_step, 0, "events are sorted by step");
        assert!(FaultPlan::new().is_empty());
    }

    #[test]
    fn graph_families_build_their_topologies() {
        assert!(matches!(
            GraphFamily::DirectedRing.build(4),
            Ok(AnyGraph::DirectedRing(_))
        ));
        assert!(matches!(
            GraphFamily::UndirectedRing.build(4),
            Ok(AnyGraph::UndirectedRing(_))
        ));
        assert!(matches!(
            GraphFamily::Complete.build(4),
            Ok(AnyGraph::Complete(_))
        ));
        assert!(GraphFamily::DirectedRing.build(1).is_err());
        assert!(GraphFamily::Complete.build(1).is_err());
        let custom = GraphFamily::Custom(Arc::new(ArbitraryGraph::directed_ring));
        let g = custom.build(5).unwrap();
        assert_eq!(g.num_agents(), 5);
        assert_eq!(g.num_arcs(), 5);
        assert!(g.is_arc(4, 0));
        assert_eq!(g.arcs().len(), 5);
        assert!(g.describe().contains("arbitrary"));
        assert!(format!("{custom:?}").contains("Custom"));
    }

    #[test]
    fn any_graph_samples_exactly_like_the_wrapped_graph() {
        use rand::SeedableRng;
        let wrapped = AnyGraph::DirectedRing(DirectedRing::new(9).unwrap());
        let direct = DirectedRing::new(9).unwrap();
        let mut rng_a = ChaCha8Rng::seed_from_u64(5);
        let mut rng_b = ChaCha8Rng::seed_from_u64(5);
        for _ in 0..200 {
            assert_eq!(wrapped.sample(&mut rng_a), direct.sample(&mut rng_b));
        }
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
    fn zero_extent_fault_events_are_rejected() {
        match FaultPlan::new().try_at(3, FaultKind::CorruptRandomAgents { count: 0 }) {
            Err(PopulationError::DegenerateFault { at }) => assert_eq!(at, 3),
            other => panic!("expected DegenerateFault, got {other:?}"),
        }
        match FaultPlan::new().try_at(7, FaultKind::CorruptTargets { limit: 0 }) {
            Err(PopulationError::DegenerateFault { at }) => assert_eq!(at, 7),
            other => panic!("expected DegenerateFault, got {other:?}"),
        }
        // CorruptAll has no extent knob and CorruptBlock{count: 0} is the
        // same bug as a zero random count.
        assert!(FaultPlan::new().try_at(0, FaultKind::CorruptAll).is_ok());
        assert!(FaultPlan::new()
            .try_at(0, FaultKind::CorruptBlock { start: 2, count: 0 })
            .is_err());
    }

    #[test]
    #[should_panic(expected = "extent 0")]
    fn zero_extent_fault_events_panic_through_the_infallible_builder() {
        let _ = FaultPlan::new().at(3, FaultKind::CorruptRandomAgents { count: 0 });
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

    // -- generated graph families and churn ---------------------------------

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
