//! Error types for the simulation substrate.

use std::error::Error;
use std::fmt;

/// Result alias used throughout the crate.
pub type Result<T> = std::result::Result<T, PopulationError>;

/// Errors produced by the simulation substrate.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum PopulationError {
    /// The population is too small for the requested operation.  The paper
    /// assumes `n >= 2` throughout (Section 2).
    PopulationTooSmall {
        /// The requested number of agents.
        requested: usize,
        /// The minimum number of agents required.
        minimum: usize,
    },
    /// A configuration's length does not match the interaction graph's number
    /// of agents.
    ConfigurationSizeMismatch {
        /// Number of states in the configuration.
        configuration: usize,
        /// Number of agents in the interaction graph.
        graph: usize,
    },
    /// An interaction referenced an agent index outside the population.
    AgentOutOfRange {
        /// The offending index.
        index: usize,
        /// The population size.
        population: usize,
    },
    /// An interaction was requested along a pair that is not an arc of the
    /// interaction graph.
    NotAnArc {
        /// Initiator index.
        initiator: usize,
        /// Responder index.
        responder: usize,
    },
    /// A deterministic scheduler ran out of scheduled interactions.
    ScheduleExhausted {
        /// The number of interactions that were available.
        available: u64,
    },
    /// An arbitrary graph was given an empty arc set, which cannot drive a
    /// random scheduler.
    EmptyArcSet,
    /// A scenario builder was finalized without one of its required pieces.
    ScenarioIncomplete {
        /// The name of the missing builder method.
        missing: &'static str,
    },
    /// A non-empty fault plan was attached to a scenario that has no
    /// corruption function, so its fault events could never be executed.
    MissingCorruption,
    /// A fault event with extent zero (`count == 0` / `limit == 0`) was added
    /// to a plan.  Such an event can never corrupt anything, so a plan
    /// containing one is always a bug, not a boundary case.
    DegenerateFault {
        /// The step the no-op event was scheduled at.
        at: u64,
    },
    /// A plan contains a targeted fault (`FaultKind::CorruptTargets`) but the
    /// scenario registered no target predicate, so the event could never
    /// choose its victims.
    MissingTarget,
    /// An arc connects an agent to itself.  Population-protocol interactions
    /// are between *distinct* agents (Section 2); a self-loop would either be
    /// silently unreachable or corrupt the split-borrow interaction step, so
    /// it is rejected at graph construction time.
    SelfLoopArc {
        /// The agent carrying the self-loop.
        agent: usize,
    },
    /// A custom digraph is not weakly connected, so some agents can never
    /// influence the rest of the population and global stop predicates may be
    /// unreachable (the run would only end by budget exhaustion).
    DisconnectedGraph {
        /// The population size.
        agents: usize,
        /// How many agents are reachable from agent 0 in the underlying
        /// undirected graph.
        reached: usize,
    },
    /// A randomized graph generator exhausted its retry budget without
    /// producing a simple graph (only possible for adversarially tight
    /// parameter choices, e.g. random-regular with degree close to `n`).
    GraphGenerationFailed {
        /// The family whose generator gave up.
        family: &'static str,
    },
    /// A churn event with extent zero (`count == 0`, or a partition into
    /// fewer than two blocks) was added to a plan.  Such an event can never
    /// change the topology, so a plan containing one is always a bug.
    DegenerateChurn {
        /// The step the no-op event was scheduled at.
        at: u64,
    },
}

impl fmt::Display for PopulationError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PopulationError::PopulationTooSmall { requested, minimum } => write!(
                f,
                "population of {requested} agents is too small (need at least {minimum})"
            ),
            PopulationError::ConfigurationSizeMismatch {
                configuration,
                graph,
            } => write!(
                f,
                "configuration has {configuration} states but the graph has {graph} agents"
            ),
            PopulationError::AgentOutOfRange { index, population } => write!(
                f,
                "agent index {index} is out of range for a population of {population}"
            ),
            PopulationError::NotAnArc {
                initiator,
                responder,
            } => write!(
                f,
                "pair ({initiator}, {responder}) is not an arc of the interaction graph"
            ),
            PopulationError::ScheduleExhausted { available } => write!(
                f,
                "deterministic schedule exhausted after {available} interactions"
            ),
            PopulationError::EmptyArcSet => write!(f, "interaction graph has no arcs"),
            PopulationError::ScenarioIncomplete { missing } => write!(
                f,
                "scenario builder is missing a required piece: call `{missing}` before `build`"
            ),
            PopulationError::MissingCorruption => write!(
                f,
                "scenario has a non-empty fault plan but no corruption function: \
                 call `ScenarioBuilder::corruption` (or `faults`) before running"
            ),
            PopulationError::DegenerateFault { at } => write!(
                f,
                "fault event at step {at} has extent 0 and can never corrupt anything: \
                 a no-op fault in a plan is always a bug"
            ),
            PopulationError::MissingTarget => write!(
                f,
                "plan contains a targeted fault but the scenario has no target predicate: \
                 call `ScenarioBuilder::fault_targets` before running"
            ),
            PopulationError::SelfLoopArc { agent } => write!(
                f,
                "arc ({agent}, {agent}) is a self-loop: interactions are between distinct agents"
            ),
            PopulationError::DisconnectedGraph { agents, reached } => write!(
                f,
                "graph is not weakly connected: only {reached} of {agents} agents are reachable \
                 from agent 0, so a global stop predicate may be unreachable"
            ),
            PopulationError::GraphGenerationFailed { family } => write!(
                f,
                "the {family} generator exhausted its retry budget without producing a \
                 simple graph; relax the parameters (degree/edge count vs population size)"
            ),
            PopulationError::DegenerateChurn { at } => write!(
                f,
                "churn event at step {at} has extent 0 and can never change the topology: \
                 a no-op churn event in a plan is always a bug"
            ),
        }
    }
}

impl Error for PopulationError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_informative() {
        let cases: Vec<(PopulationError, &str)> = vec![
            (
                PopulationError::PopulationTooSmall {
                    requested: 1,
                    minimum: 2,
                },
                "too small",
            ),
            (
                PopulationError::ConfigurationSizeMismatch {
                    configuration: 3,
                    graph: 4,
                },
                "3 states",
            ),
            (
                PopulationError::AgentOutOfRange {
                    index: 9,
                    population: 4,
                },
                "out of range",
            ),
            (
                PopulationError::NotAnArc {
                    initiator: 0,
                    responder: 2,
                },
                "not an arc",
            ),
            (
                PopulationError::ScheduleExhausted { available: 10 },
                "exhausted",
            ),
            (PopulationError::EmptyArcSet, "no arcs"),
            (
                PopulationError::ScenarioIncomplete { missing: "init" },
                "init",
            ),
            (PopulationError::MissingCorruption, "corruption"),
            (PopulationError::DegenerateFault { at: 10 }, "extent 0"),
            (PopulationError::MissingTarget, "fault_targets"),
            (PopulationError::SelfLoopArc { agent: 3 }, "self-loop"),
            (
                PopulationError::DisconnectedGraph {
                    agents: 8,
                    reached: 5,
                },
                "weakly connected",
            ),
            (
                PopulationError::GraphGenerationFailed {
                    family: "random-regular",
                },
                "random-regular",
            ),
            (PopulationError::DegenerateChurn { at: 10 }, "extent 0"),
        ];
        for (err, needle) in cases {
            let msg = err.to_string();
            assert!(
                msg.contains(needle),
                "message {msg:?} should contain {needle:?}"
            );
        }
    }

    #[test]
    fn errors_are_std_errors() {
        fn assert_error<E: Error + Send + Sync + 'static>() {}
        assert_error::<PopulationError>();
    }
}
