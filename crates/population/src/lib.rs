//! Population-protocol simulation substrate.
//!
//! This crate implements the computational model of Section 2 of the paper
//! *"A Near Time-optimal Population Protocol for Self-stabilizing Leader
//! Election on Rings with a Poly-logarithmic Number of States"*
//! (Yokota, Sudo, Ooshita, Masuzawa; PODC 2023):
//!
//! * a **population** is a weakly connected digraph whose nodes are anonymous
//!   finite-state agents and whose arcs are the possible pairwise
//!   interactions ([`graph`]);
//! * a **protocol** is a deterministic pairwise transition function together
//!   with an output map ([`protocol::Protocol`]);
//! * a **configuration** maps every agent to a state ([`config::Configuration`]);
//! * the **uniformly random scheduler** picks one arc uniformly at random at
//!   every step ([`scheduler::RandomScheduler`]); deterministic sequence
//!   schedulers reproduce the `seq_R`/`seq_L` interaction sequences used in
//!   the paper's proofs ([`schedule`]);
//! * the **execution engine** ([`simulation::Simulation`]) advances a
//!   configuration under a scheduler and runs until a predicate holds
//!   ([`convergence::ConvergenceReport`]); faults are injected with
//!   [`faults`] and batches of trials run in parallel with [`batch`];
//! * the **scenario layer** ([`scenario`]) composes any protocol (type-erased
//!   behind [`scenario::DynProtocol`]), any graph family, an initial-condition
//!   generator, an optional fault plan, a stop criterion and a step budget
//!   into one declarative, runnable [`scenario::Scenario`], swept over
//!   multi-axis grids ([`sweep`]).
//!
//! The crate is protocol-agnostic: the paper's protocol `P_PL` and the
//! baseline protocols live in the `ssle-core` and `ssle-baselines` crates and
//! only depend on the abstractions defined here.
//!
//! # Quick example
//!
//! ```
//! use population::prelude::*;
//!
//! /// A toy (non-self-stabilizing) leader election: every agent starts as a
//! /// leader and a leader meeting another leader demotes the responder.
//! #[derive(Clone, Debug)]
//! struct Fratricide;
//!
//! impl Protocol for Fratricide {
//!     type State = bool; // true = leader
//!     fn interact(&self, initiator: &mut bool, responder: &mut bool) {
//!         if *initiator && *responder {
//!             *responder = false;
//!         }
//!     }
//! }
//!
//! impl LeaderElection for Fratricide {
//!     fn is_leader(&self, state: &bool) -> bool {
//!         *state
//!     }
//! }
//!
//! let graph = CompleteGraph::new(8);
//! let config = Configuration::uniform(8, true);
//! let mut sim = Simulation::new(Fratricide, graph, config, 42);
//! let report = sim.run_until(
//!     |p: &Fratricide, c: &Configuration<bool>| p.count_leaders(c.states()) == 1,
//!     1,
//!     100_000,
//! );
//! assert!(report.converged());
//! ```

// `unsafe` is denied crate-wide and allowed in exactly one audited module:
// [`slot`], the inline state-slot storage behind the erased hot loop.
#![deny(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod agent;
pub mod batch;
mod churn;
pub mod config;
pub mod convergence;
mod engine;
mod erase;
pub mod error;
pub mod explore;
pub mod faults;
pub mod graph;
pub mod observer;
pub mod protocol;
pub mod recurrence;
pub mod scenario;
pub mod schedule;
pub mod scheduler;
pub mod simulation;
pub mod slot;
pub mod sweep;

/// Convenience re-exports of the most commonly used items.
pub mod prelude {
    pub use crate::agent::AgentId;
    pub use crate::batch::{group_by_size, BatchRunner, BatchSummary, Outcome};
    pub use crate::config::Configuration;
    pub use crate::convergence::ConvergenceReport;
    pub use crate::error::{PopulationError, Result};
    pub use crate::explore::{
        explore, phase_closure, ArcPhases, ClosureLimits, ClosureOutcome, ExploreLimits,
        ExploreVerdict, Explored,
    };
    pub use crate::faults::{FaultInjector, FaultKind};
    pub use crate::graph::{
        graph_rng_seed, preferential_attachment, random_regular, ring_neighbors, small_world,
        torus, torus_dims, weak_reach, weakly_connected, ArbitraryGraph, CompleteGraph,
        DirectedRing, InteractionGraph, UndirectedRing,
    };
    pub use crate::observer::{LeaderCounter, NoObserver, StepObserver};
    pub use crate::protocol::{LeaderElection, LeaderOutput, Protocol};
    pub use crate::recurrence::{ConfigDigest, RecurrenceCandidate, RecurrenceDetector};
    pub use crate::scenario::{
        downcast_config, AnyGraph, ChurnEvent, ChurnKind, ChurnPlan, DetectedRun, DynProtocol,
        DynScheduler, DynState, DynStop, FaultEvent, FaultPlan, GraphFamily, PreparedScenario,
        Scenario, ScenarioBuilder, ScenarioRun, SchedulerFamily,
    };
    pub use crate::schedule::{Interaction, InteractionSeq};
    pub use crate::scheduler::{
        RandomScheduler, RoundRobinScheduler, Scheduler, SequenceScheduler,
    };
    pub use crate::simulation::Simulation;
    pub use crate::sweep::{SweepAxis, SweepGrid, SweepPoint};
}

pub use prelude::*;
