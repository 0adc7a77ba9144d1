//! The execution engine.
//!
//! [`Simulation`] owns a protocol, an interaction graph, the current
//! configuration, a seeded RNG and run statistics, and advances the
//! configuration one interaction at a time.  By default each step samples the
//! uniformly random scheduler; deterministic interaction sequences can be
//! applied directly with [`Simulation::apply_sequence`] (used by tests that
//! replay the proof schedules) and arbitrary [`crate::scheduler::Scheduler`]s
//! can drive the run via [`Simulation::step_with_scheduler`].

use std::borrow::Cow;

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use crate::config::Configuration;
use crate::convergence::{ConvergenceReport, Criterion};
use crate::error::{PopulationError, Result};
use crate::graph::InteractionGraph;
use crate::observer::{LeaderCounter, NoObserver, StepObserver};
use crate::protocol::{LeaderElection, Protocol};
use crate::schedule::{Interaction, InteractionSeq};
use crate::scheduler::Scheduler;
use crate::stats::RunStats;
use crate::trace::{Event, Trace};

/// A running execution `Ξ_P(C_0, Γ)` of a protocol on an interaction graph.
#[derive(Clone, Debug)]
pub struct Simulation<P: Protocol, G: InteractionGraph> {
    protocol: P,
    graph: G,
    config: Configuration<P::State>,
    rng: ChaCha8Rng,
    steps: u64,
    stats: RunStats,
    trace: Trace,
    /// Cached `protocol.uses_oracle()` (behind [`Protocol::HAS_ENVIRONMENT`]):
    /// whether the oracle must be kept.  Computed once at construction so
    /// the hot loop never pays the (virtual, under erasure) `uses_oracle`
    /// call.
    env_active: bool,
    /// The oracle's view, maintained from the two touched agents per step.
    oracle: OracleFold,
}

/// The oracle's global view as a maintained fold: one count per mark
/// ([`Protocol::oracle_marks`]), updated from the two touched agents of each
/// step, so that no step scans the configuration.
///
/// Before each interaction the simulation must leave every agent as the
/// full broadcast ([`Protocol::environment`]) would.  Agents that received
/// the current view and were not touched since are already fixed points of
/// the idempotent broadcast, so it rewrites all `n` agents only when the
/// view changes or the configuration was rewritten out of band, and
/// otherwise just the previous step's two agents.
///
/// All of a step's oracle work happens in [`OracleFold::before_interaction`]:
/// the interacting pair is counted out there and counted back in, with its
/// new marks, at the next step, so the step loop branches on the oracle once.
#[derive(Clone, Debug)]
struct OracleFold {
    /// Number of agents carrying each mark bit, the previous step's pair
    /// left out.
    counts: [usize; 8],
    /// The view last broadcast to every agent.
    view: u8,
    /// The previous step's two agents: the only ones an interaction may
    /// have moved off the broadcast, and not yet counted back in.
    last: (usize, usize),
    /// `true` when `counts` no longer describe the configuration: at
    /// construction and after `config_mut` or `resize`.
    stale: bool,
}

impl OracleFold {
    fn new() -> Self {
        OracleFold {
            counts: [0; 8],
            view: 0,
            last: (0, 0),
            stale: true,
        }
    }

    /// Counts one agent's marks in.
    fn add(&mut self, mut marks: u8) {
        // Most agents carry no mark, so walk only the set bits.
        while marks != 0 {
            self.counts[marks.trailing_zeros() as usize] += 1;
            marks &= marks - 1;
        }
    }

    /// Counts one agent's marks out.
    fn remove(&mut self, mut marks: u8) {
        while marks != 0 {
            self.counts[marks.trailing_zeros() as usize] -= 1;
            marks &= marks - 1;
        }
    }

    /// The view the counts describe: bit `k` set iff some agent has mark `k`.
    fn current(&self) -> u8 {
        self.counts
            .iter()
            .enumerate()
            .fold(0, |view, (k, &c)| view | u8::from(c > 0) << k)
    }

    /// Brings `states` to what the full broadcast would leave before the
    /// interaction of agents `i` and `j`, and counts that pair out.
    fn before_interaction<P: Protocol>(
        &mut self,
        protocol: &P,
        states: &mut [P::State],
        (i, j): (usize, usize),
    ) {
        let (a, b) = self.last;
        if self.stale {
            self.counts = [0; 8];
            for state in states.iter() {
                self.add(protocol.oracle_marks(state));
            }
        } else {
            self.add(protocol.oracle_marks(&states[a]));
            self.add(protocol.oracle_marks(&states[b]));
        }
        let view = self.current();
        if self.stale || view != self.view {
            self.stale = false;
            self.view = view;
            for state in states.iter_mut() {
                protocol.oracle_apply(view, state);
            }
        } else {
            protocol.oracle_apply(view, &mut states[a]);
            protocol.oracle_apply(view, &mut states[b]);
        }
        self.remove(protocol.oracle_marks(&states[i]));
        self.remove(protocol.oracle_marks(&states[j]));
        self.last = (i, j);
    }
}

impl<P: Protocol, G: InteractionGraph> Simulation<P, G> {
    /// Creates a simulation from a protocol, graph, initial configuration and
    /// RNG seed.
    ///
    /// # Panics
    ///
    /// Panics if the configuration size does not match the graph; use
    /// [`Simulation::try_new`] for a fallible constructor.
    pub fn new(protocol: P, graph: G, config: Configuration<P::State>, seed: u64) -> Self {
        Self::try_new(protocol, graph, config, seed).expect("configuration/graph size mismatch")
    }

    /// Fallible constructor.
    ///
    /// # Errors
    ///
    /// Returns [`PopulationError::ConfigurationSizeMismatch`] if the
    /// configuration does not have exactly one state per agent.
    ///
    /// # Panics
    ///
    /// Panics if the protocol reports [`Protocol::uses_oracle`] without its
    /// type setting [`Protocol::HAS_ENVIRONMENT`]: the oracle would be
    /// compiled out of the step loop and silently never invoked, which is a
    /// bug in the protocol implementation, not a runtime condition.
    pub fn try_new(
        protocol: P,
        graph: G,
        config: Configuration<P::State>,
        seed: u64,
    ) -> Result<Self> {
        if config.len() != graph.num_agents() {
            return Err(PopulationError::ConfigurationSizeMismatch {
                configuration: config.len(),
                graph: graph.num_agents(),
            });
        }
        assert!(
            P::HAS_ENVIRONMENT || !protocol.uses_oracle(),
            "protocol {:?} reports uses_oracle() but its type does not set \
             Protocol::HAS_ENVIRONMENT, so its oracle would never run",
            protocol.name()
        );
        let n = graph.num_agents();
        let env_active = P::HAS_ENVIRONMENT && protocol.uses_oracle();
        Ok(Simulation {
            protocol,
            graph,
            config,
            rng: ChaCha8Rng::seed_from_u64(seed),
            steps: 0,
            stats: RunStats::new(n),
            trace: Trace::disabled(),
            env_active,
            oracle: OracleFold::new(),
        })
    }

    /// `true` if the oracle is active for this run — i.e. the protocol
    /// declared [`Protocol::HAS_ENVIRONMENT`] and reports
    /// [`Protocol::uses_oracle`].  When `true`, the oracle's broadcast
    /// rewrites agents other than the two interacting ones, so observers
    /// that fold whole states ([`crate::recurrence::ConfigDigest`]) are not
    /// exact; the broadcast never changes leader outputs, so
    /// [`LeaderCounter`] stays exact either way.
    pub fn environment_active(&self) -> bool {
        self.env_active
    }

    /// The protocol being executed.
    pub fn protocol(&self) -> &P {
        &self.protocol
    }

    /// The interaction graph.
    pub fn graph(&self) -> &G {
        &self.graph
    }

    /// The current configuration.
    pub fn config(&self) -> &Configuration<P::State> {
        &self.config
    }

    /// Mutable access to the current configuration (used by fault injection
    /// and by tests that construct specific intermediate configurations).
    /// The oracle recounts its view before the next step.
    pub fn config_mut(&mut self) -> &mut Configuration<P::State> {
        self.oracle.stale = true;
        &mut self.config
    }

    /// Replaces the interaction graph with a same-sized one, keeping the
    /// configuration and all counters.  This is the substrate for topology
    /// churn (edge rewiring, partition/heal events).
    ///
    /// # Errors
    ///
    /// Returns [`PopulationError::ConfigurationSizeMismatch`] if the new
    /// graph's agent count differs from the current configuration's length.
    pub fn set_graph(&mut self, graph: G) -> Result<()> {
        if graph.num_agents() != self.config.len() {
            return Err(PopulationError::ConfigurationSizeMismatch {
                configuration: self.config.len(),
                graph: graph.num_agents(),
            });
        }
        self.graph = graph;
        Ok(())
    }

    /// Replaces both the graph and the configuration, resizing the per-agent
    /// statistics buffers (counts of surviving agents are preserved; the step
    /// counter keeps running).  This is the substrate for agent join/leave
    /// churn.
    ///
    /// # Errors
    ///
    /// Returns [`PopulationError::ConfigurationSizeMismatch`] if the graph
    /// and configuration disagree on the number of agents.
    pub fn resize(&mut self, graph: G, config: Configuration<P::State>) -> Result<()> {
        if graph.num_agents() != config.len() {
            return Err(PopulationError::ConfigurationSizeMismatch {
                configuration: config.len(),
                graph: graph.num_agents(),
            });
        }
        self.stats.resize(config.len());
        self.graph = graph;
        self.config = config;
        self.oracle.stale = true;
        Ok(())
    }

    /// Number of steps executed so far.
    pub fn steps(&self) -> u64 {
        self.steps
    }

    /// Number of agents.
    pub fn num_agents(&self) -> usize {
        self.graph.num_agents()
    }

    /// Run statistics accumulated so far.
    pub fn stats(&self) -> &RunStats {
        &self.stats
    }

    /// The execution trace.
    pub fn trace(&self) -> &Trace {
        &self.trace
    }

    /// Mutable access to the trace (e.g. to add annotations).
    pub fn trace_mut(&mut self) -> &mut Trace {
        &mut self.trace
    }

    /// Enables or disables trace recording (disabled by default).
    pub fn set_tracing(&mut self, enabled: bool) {
        self.trace.set_enabled(enabled);
    }

    /// Executes one step under the uniformly random scheduler.
    ///
    /// Returns the interaction that occurred.
    pub fn step(&mut self) -> Interaction {
        self.step_observed(&mut NoObserver)
    }

    /// Like [`Simulation::step`], invoking `observer` around the transition.
    ///
    /// The observer sees the two scheduled states immediately before and
    /// after the transition function — enough for O(1) incremental
    /// statistics ([`crate::observer::LeaderCounter`]).  The RNG stream,
    /// transition and bookkeeping are exactly those of the unobserved step,
    /// so observation never perturbs the execution.
    pub fn step_observed<O: StepObserver<P>>(&mut self, observer: &mut O) -> Interaction {
        let interaction = self.graph.sample(&mut self.rng);
        self.apply_observed(interaction, observer);
        interaction
    }

    /// Executes one step chosen by an explicit scheduler.
    ///
    /// # Errors
    ///
    /// Propagates scheduler errors (e.g. an exhausted deterministic schedule).
    pub fn step_with_scheduler<S: Scheduler<G>>(
        &mut self,
        scheduler: &mut S,
    ) -> Result<Interaction> {
        self.step_chosen_by(|graph, _config, rng| scheduler.next_interaction(graph, rng))
    }

    /// Executes one step whose interaction is chosen by an arbitrary closure
    /// over the graph, the **current configuration** and the simulation's
    /// RNG.  This is the hook behind state-aware adversarial schedulers
    /// ([`crate::scenario::DynScheduler`]): unlike
    /// [`Simulation::step_with_scheduler`], the chooser can inspect agent
    /// states to pick a convergence-hostile arc.
    ///
    /// The chosen pair is validated against the graph, so a buggy scheduler
    /// cannot smuggle in a non-arc interaction.
    ///
    /// # Errors
    ///
    /// Propagates the chooser's error, or [`PopulationError::NotAnArc`] if
    /// the chosen pair is not an arc of the graph.
    pub fn step_chosen_by<F>(&mut self, choose: F) -> Result<Interaction>
    where
        F: FnOnce(&G, &Configuration<P::State>, &mut ChaCha8Rng) -> Result<Interaction>,
    {
        self.step_chosen_by_observed(&mut NoObserver, choose)
    }

    /// Like [`Simulation::step_chosen_by`], invoking `observer` around the
    /// transition (same contract as [`Simulation::step_observed`]).
    ///
    /// # Errors
    ///
    /// Propagates the chooser's error, or [`PopulationError::NotAnArc`] if
    /// the chosen pair is not an arc of the graph.
    pub fn step_chosen_by_observed<O, F>(
        &mut self,
        observer: &mut O,
        choose: F,
    ) -> Result<Interaction>
    where
        O: StepObserver<P>,
        F: FnOnce(&G, &Configuration<P::State>, &mut ChaCha8Rng) -> Result<Interaction>,
    {
        let interaction = choose(&self.graph, &self.config, &mut self.rng)?;
        if !self.graph.is_arc(
            interaction.initiator().index(),
            interaction.responder().index(),
        ) {
            return Err(PopulationError::NotAnArc {
                initiator: interaction.initiator().index(),
                responder: interaction.responder().index(),
            });
        }
        self.apply_observed(interaction, observer);
        Ok(interaction)
    }

    /// Applies one specific interaction (the configuration transition
    /// `C →e C'` of Section 2), bypassing the scheduler.
    ///
    /// # Panics
    ///
    /// Panics if the interaction references agents outside the population.
    pub fn apply(&mut self, interaction: Interaction) {
        self.apply_observed(interaction, &mut NoObserver);
    }

    /// Like [`Simulation::apply`], invoking `observer` around the
    /// transition.  [`crate::observer::NoObserver`]'s empty hooks inline
    /// away, so `apply` *is* this function.
    pub fn apply_observed<O: StepObserver<P>>(
        &mut self,
        interaction: Interaction,
        observer: &mut O,
    ) {
        let i = interaction.initiator().index();
        let j = interaction.responder().index();
        assert!(
            i < self.config.len() && j < self.config.len() && i != j,
            "interaction {interaction} out of range for population of {}",
            self.config.len()
        );
        // Oracles.  Compiled out entirely for pure protocol types; one
        // predicted branch for erased ones.
        if P::HAS_ENVIRONMENT && self.env_active {
            self.oracle
                .before_interaction(&self.protocol, self.config.states_mut(), (i, j));
        }

        // Split-borrow the two interacting states.
        let states = self.config.states_mut();
        let (a, b) = if i < j {
            let (lo, hi) = states.split_at_mut(j);
            (&mut lo[i], &mut hi[0])
        } else {
            let (lo, hi) = states.split_at_mut(i);
            (&mut hi[0], &mut lo[j])
        };
        observer.pre_interaction(&self.protocol, interaction, a, b);
        self.protocol.interact(a, b);
        observer.post_interaction(&self.protocol, interaction, a, b);

        self.stats.record_interaction(i, j);
        self.trace.record(Event::Interaction {
            step: self.steps,
            interaction,
        });
        self.steps += 1;
    }

    /// Runs exactly `k` steps under the uniformly random scheduler.
    pub fn run_steps(&mut self, k: u64) {
        for _ in 0..k {
            self.step();
        }
        // One counter update per burst, never per step: the hot loop pays
        // exactly one relaxed load here when telemetry is disabled.
        ssle_telemetry::metrics::well_known::HOT_STEPS.add(k);
    }

    /// Runs exactly `k` steps under the uniformly random scheduler with an
    /// observer attached.
    pub fn run_steps_observed<O: StepObserver<P>>(&mut self, k: u64, observer: &mut O) {
        for _ in 0..k {
            self.step_observed(observer);
        }
        ssle_telemetry::metrics::well_known::HOT_STEPS.add(k);
    }

    /// Applies every interaction of `seq`, in order.
    pub fn apply_sequence(&mut self, seq: &InteractionSeq) {
        for &interaction in seq.iter() {
            self.apply(interaction);
        }
    }

    /// Runs under the uniformly random scheduler until `predicate` holds
    /// (checked every `check_interval` steps, and once before running) or
    /// until `max_steps` steps have been executed in this call.
    ///
    /// The returned report gives the step count *of this simulation* at the
    /// first passing check.  Because checks are periodic, the reported value
    /// over-estimates the true convergence step by at most `check_interval`.
    pub fn run_until<F>(
        &mut self,
        mut predicate: F,
        check_interval: u64,
        max_steps: u64,
    ) -> ConvergenceReport
    where
        F: FnMut(&P, &Configuration<P::State>) -> bool,
    {
        // The placeholder name is a borrowed `'static` so this function
        // allocates nothing per invocation; named callers (`run_criterion`,
        // the scenario layer) overwrite it once.
        const PREDICATE: Cow<'static, str> = Cow::Borrowed("predicate");
        let check_interval = check_interval.max(1);
        let start = self.steps;
        if predicate(&self.protocol, &self.config) {
            return ConvergenceReport {
                converged_at: Some(self.steps),
                steps_executed: 0,
                max_steps,
                check_interval,
                criterion: PREDICATE,
            };
        }
        let mut executed = 0u64;
        while executed < max_steps {
            let burst = check_interval.min(max_steps - executed);
            self.run_steps(burst);
            executed += burst;
            if predicate(&self.protocol, &self.config) {
                if self.trace.is_enabled() {
                    self.trace.record(Event::Converged {
                        step: self.steps,
                        criterion: "predicate".into(),
                    });
                }
                if ssle_telemetry::enabled() {
                    ssle_telemetry::emit(
                        ssle_telemetry::Event::new("converged").count("step", self.steps),
                    );
                }
                return ConvergenceReport {
                    converged_at: Some(self.steps),
                    steps_executed: executed,
                    max_steps,
                    check_interval,
                    criterion: PREDICATE,
                };
            }
        }
        ConvergenceReport {
            converged_at: None,
            steps_executed: self.steps - start,
            max_steps,
            check_interval,
            criterion: PREDICATE,
        }
    }

    /// Like [`Simulation::run_until`] but driven by a named [`Criterion`].
    pub fn run_criterion<C>(
        &mut self,
        criterion: &C,
        check_interval: u64,
        max_steps: u64,
    ) -> ConvergenceReport
    where
        C: Criterion<P>,
    {
        let name = criterion.name().to_string();
        let mut report = self.run_until(
            |p, c| criterion.is_satisfied(p, c.states()),
            check_interval,
            max_steps,
        );
        report.criterion = Cow::Owned(name);
        report
    }

    /// Consumes the simulation and returns the final configuration.
    pub fn into_config(self) -> Configuration<P::State> {
        self.config
    }
}

impl<P, G> Simulation<P, G>
where
    P: LeaderElection,
    G: InteractionGraph,
{
    /// Number of agents currently outputting `L`.
    pub fn count_leaders(&self) -> usize {
        self.protocol.count_leaders(self.config.states())
    }

    /// Runs under the uniformly random scheduler for `max_steps` steps while
    /// recording every change of the leader set (into the trace too, when
    /// tracing is enabled).  Returns the steps at which the leader set
    /// changed.
    ///
    /// This powers the [`crate::convergence::StableOutputs`] estimator for
    /// baseline protocols without a structural safe-configuration checker.
    ///
    /// An interaction can only change the leader bits of the two touched
    /// agents (an oracle's broadcast never changes leader outputs), so
    /// changes are detected incrementally from a [`LeaderCounter`] observer
    /// in O(1) per step.
    pub fn run_tracking_leader_changes(&mut self, max_steps: u64) -> Vec<u64> {
        let mut changes = Vec::new();
        let mut counter = LeaderCounter::new(&self.protocol, self.config.states());
        for _ in 0..max_steps {
            self.step_observed(&mut counter);
            if counter.last_step_changed() {
                changes.push(self.steps);
                if self.trace.is_enabled() {
                    let leaders = self.protocol.leader_indices(self.config.states());
                    self.trace.record(Event::LeaderSetChanged {
                        step: self.steps,
                        leaders,
                    });
                }
            }
        }
        changes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::convergence::UniqueLeader;
    use crate::graph::{CompleteGraph, DirectedRing};

    /// Classic pairwise leader elimination on a complete graph.
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

    /// A protocol that simply copies the initiator's value to the responder —
    /// convenient for checking deterministic sequences on a ring.
    #[derive(Clone, Debug)]
    struct Broadcast;
    impl Protocol for Broadcast {
        type State = u32;
        fn interact(&self, initiator: &mut u32, responder: &mut u32) {
            *responder = *initiator;
        }
    }

    #[test]
    fn mismatched_configuration_is_rejected() {
        let g = DirectedRing::new(4).unwrap();
        let c = Configuration::uniform(3, 0u32);
        assert!(matches!(
            Simulation::try_new(Broadcast, g, c, 0),
            Err(PopulationError::ConfigurationSizeMismatch { .. })
        ));
    }

    #[test]
    fn fratricide_converges_to_unique_leader() {
        let g = CompleteGraph::new(16);
        let c = Configuration::uniform(16, true);
        let mut sim = Simulation::new(Fratricide, g, c, 11);
        let report = sim.run_criterion(&UniqueLeader, 1, 200_000);
        assert!(report.converged());
        assert_eq!(sim.count_leaders(), 1);
        assert_eq!(report.criterion, "unique-leader");
        // Leaders never increase, so the criterion keeps holding.
        sim.run_steps(10_000);
        assert_eq!(sim.count_leaders(), 1);
    }

    #[test]
    fn run_until_returns_immediately_if_already_satisfied() {
        let g = CompleteGraph::new(4);
        let c = Configuration::from_states(vec![true, false, false, false]);
        let mut sim = Simulation::new(Fratricide, g, c, 0);
        let report = sim.run_criterion(&UniqueLeader, 100, 1000);
        assert!(report.converged());
        assert_eq!(report.steps_executed, 0);
        assert_eq!(sim.steps(), 0);
    }

    #[test]
    fn run_until_respects_budget() {
        let g = CompleteGraph::new(4);
        let c = Configuration::uniform(4, false);
        let mut sim = Simulation::new(Fratricide, g, c, 0);
        // No leader will ever appear; the run must stop at the budget.
        let report = sim.run_criterion(&UniqueLeader, 7, 100);
        assert!(!report.converged());
        assert_eq!(report.steps_executed, 100);
        assert_eq!(sim.steps(), 100);
    }

    #[test]
    fn deterministic_sequence_drives_broadcast_around_ring() {
        let n = 8;
        let g = DirectedRing::new(n).unwrap();
        let mut states = vec![0u32; n];
        states[0] = 42;
        let mut sim = Simulation::new(Broadcast, g, Configuration::from_states(states), 0);
        // seq_R(0, n-1) copies u_0's value all the way round.
        sim.apply_sequence(&InteractionSeq::seq_r(0, n - 1, n));
        assert!(sim.config().states().iter().all(|&x| x == 42));
        assert_eq!(sim.steps(), (n - 1) as u64);
    }

    #[test]
    fn apply_records_stats_and_trace() {
        let g = DirectedRing::new(4).unwrap();
        let mut sim = Simulation::new(Broadcast, g, Configuration::uniform(4, 0u32), 5);
        sim.set_tracing(true);
        sim.apply(Interaction::new(1, 2));
        sim.apply(Interaction::new(2, 3));
        assert_eq!(sim.stats().steps(), 2);
        assert_eq!(sim.stats().interactions_of(2), 2);
        assert_eq!(sim.trace().len(), 2);
        assert_eq!(sim.num_agents(), 4);
        assert!(sim.graph().is_arc(1, 2));
    }

    #[test]
    #[should_panic(expected = "HAS_ENVIRONMENT")]
    fn oracle_without_has_environment_is_rejected_at_construction() {
        /// Claims an oracle at runtime but forgot the compile-time opt-in:
        /// its broadcast would silently never run.
        #[derive(Clone, Debug)]
        struct Misconfigured;
        impl Protocol for Misconfigured {
            type State = bool;
            fn interact(&self, _i: &mut bool, _r: &mut bool) {}
            fn oracle_apply(&self, _view: u8, state: &mut bool) {
                *state = true;
            }
            fn uses_oracle(&self) -> bool {
                true
            }
        }
        let g = CompleteGraph::new(4);
        let _ = Simulation::new(Misconfigured, g, Configuration::uniform(4, false), 0);
    }

    #[test]
    fn scheduler_arc_membership_is_enforced() {
        use crate::scheduler::SequenceScheduler;
        let g = DirectedRing::new(4).unwrap();
        let mut sim = Simulation::new(Broadcast, g, Configuration::uniform(4, 0u32), 5);
        // (0, 2) is not an arc of the directed ring.
        let mut bad =
            SequenceScheduler::new(InteractionSeq::from_interactions(vec![Interaction::new(
                0, 2,
            )]));
        let err = sim.step_with_scheduler(&mut bad).unwrap_err();
        assert!(matches!(err, PopulationError::NotAnArc { .. }));
    }

    #[test]
    fn step_with_random_scheduler_object() {
        use crate::scheduler::RandomScheduler;
        let g = DirectedRing::new(4).unwrap();
        let mut sim = Simulation::new(Broadcast, g, Configuration::uniform(4, 0u32), 5);
        let mut sched = RandomScheduler::new();
        for _ in 0..10 {
            sim.step_with_scheduler(&mut sched).unwrap();
        }
        assert_eq!(sim.steps(), 10);
    }

    #[test]
    fn leader_change_tracking() {
        let g = CompleteGraph::new(8);
        let c = Configuration::uniform(8, true);
        let mut sim = Simulation::new(Fratricide, g, c, 3);
        let changes = sim.run_tracking_leader_changes(50_000);
        assert!(!changes.is_empty());
        assert_eq!(sim.count_leaders(), 1);
        // Changes are strictly increasing.
        assert!(changes.windows(2).all(|w| w[0] < w[1]));
        // 7 demotions are needed to get from 8 leaders to 1.
        assert_eq!(changes.len(), 7);
    }

    #[test]
    fn same_seed_reproduces_the_same_execution() {
        let g = CompleteGraph::new(8);
        let c = Configuration::uniform(8, true);
        let mut a = Simulation::new(Fratricide, g, c.clone(), 99);
        let mut b = Simulation::new(Fratricide, g, c, 99);
        a.run_steps(1000);
        b.run_steps(1000);
        assert_eq!(a.config().states(), b.config().states());
    }

    #[test]
    fn into_config_returns_final_states() {
        let g = DirectedRing::new(3).unwrap();
        let sim = Simulation::new(Broadcast, g, Configuration::from_states(vec![1, 2, 3]), 0);
        assert_eq!(sim.into_config().into_states(), vec![1, 2, 3]);
    }

    #[test]
    fn reports_reflect_check_interval_granularity() {
        let g = CompleteGraph::new(32);
        let c = Configuration::uniform(32, true);
        let mut sim = Simulation::new(Fratricide, g, c, 17);
        let interval = 500;
        let report = sim.run_criterion(&UniqueLeader, interval, 5_000_000);
        assert!(report.converged());
        assert_eq!(report.convergence_step() % interval, 0);
    }
}
