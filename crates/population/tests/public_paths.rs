//! Pins the public paths of the `population` crate: every item reachable as
//! `population::scenario::X`, and the whole prelude.  This file compiles only
//! while every path resolves, so moving an item between modules cannot drop
//! a path that downstream code names.

// The two modules below exist to resolve their paths; the test uses only
// the concrete types among them.

/// Every public item of `population::scenario`.
#[allow(unused_imports)]
mod scenario_paths {
    pub use population::scenario::{
        downcast_config, AnyGraph, BuildScheduler, ChurnEvent, ChurnKind, ChurnPlan, DetectedRun,
        DynProtocol, DynScheduler, DynState, DynStop, FaultEvent, FaultPlan, GraphFamily,
        PreparedScenario, Scenario, ScenarioBuilder, ScenarioRun, SchedulerFamily, SlotState,
    };
}

/// The whole prelude.
#[allow(unused_imports)]
mod prelude_paths {
    pub use population::prelude::{
        downcast_config, explore, graph_rng_seed, group_by_size, phase_closure,
        preferential_attachment, random_regular, ring_neighbors, small_world, torus, torus_dims,
        weak_reach, weakly_connected, AgentId, AnyGraph, ArbitraryGraph, ArcPhases, BatchRunner,
        BatchSummary, ChurnEvent, ChurnKind, ChurnPlan, ClosureLimits, ClosureOutcome,
        CompleteGraph, ConfigDigest, Configuration, ConvergenceReport, DetectedRun, DirectedRing,
        DynProtocol, DynScheduler, DynState, DynStop, ExploreLimits, ExploreVerdict, Explored,
        FaultEvent, FaultInjector, FaultKind, FaultPlan, GraphFamily, Interaction,
        InteractionGraph, InteractionSeq, LeaderCounter, LeaderElection, LeaderOutput, NoObserver,
        Outcome, PopulationError, PreparedScenario, RandomScheduler, RecurrenceCandidate,
        RecurrenceDetector, Result, RoundRobinScheduler, Scenario, ScenarioBuilder, ScenarioRun,
        Scheduler, SchedulerFamily, SequenceScheduler, Simulation, StepObserver, SweepAxis,
        SweepGrid, SweepPoint, UndirectedRing,
    };
}

#[test]
fn scenario_paths_name_the_prelude_items() {
    use std::any::TypeId;
    macro_rules! same_type {
        ($($name:ident),*) => {
            $(assert_eq!(
                TypeId::of::<scenario_paths::$name>(),
                TypeId::of::<prelude_paths::$name>(),
                stringify!($name),
            );)*
        };
    }
    same_type!(
        AnyGraph,
        ChurnEvent,
        ChurnKind,
        ChurnPlan,
        DetectedRun,
        DynProtocol,
        DynState,
        DynStop,
        FaultEvent,
        FaultPlan,
        GraphFamily,
        PreparedScenario,
        Scenario,
        ScenarioRun,
        SchedulerFamily
    );
    assert_eq!(
        TypeId::of::<dyn scenario_paths::DynScheduler>(),
        TypeId::of::<dyn prelude_paths::DynScheduler>()
    );
}
