//! The execution engine.
//!
//! [`Simulation`] owns a protocol, an interaction graph, the current
//! configuration, a seeded RNG and a step counter, and advances the
//! configuration one interaction at a time.  By default each step samples the
//! uniformly random scheduler; deterministic interaction sequences can be
//! applied directly with [`Simulation::apply_sequence`] (used by tests that
//! replay the proof schedules) and arbitrary [`crate::scheduler::Scheduler`]s
//! can drive the run via [`Simulation::step_with_scheduler`].

use std::borrow::Cow;

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use crate::config::Configuration;
use crate::convergence::ConvergenceReport;
use crate::error::{PopulationError, Result};
use crate::graph::InteractionGraph;
use crate::observer::{LeaderCounter, NoObserver, StepObserver};
use crate::protocol::{LeaderElection, Protocol};
use crate::schedule::{Interaction, InteractionSeq};
use crate::scheduler::Scheduler;

/// A running execution `Ξ_P(C_0, Γ)` of a protocol on an interaction graph.
#[derive(Clone, Debug)]
pub struct Simulation<P: Protocol, G: InteractionGraph> {
    protocol: P,
    graph: G,
    config: Configuration<P::State>,
    rng: ChaCha8Rng,
    steps: u64,
    /// The oracle's view, maintained from the two touched agents per step.
    oracle: OracleFold,
}

/// How many arcs the uniform burst samples ahead and hands to
/// [`Protocol::interact_block`] in one call.  Sampling depends only on the
/// graph and the RNG, never on states, so drawing a block first keeps the
/// stream, while an erased protocol pays one virtual call per block instead
/// of one (or, with an oracle, seven) per step.
const BLOCK: usize = 64;

/// The oracle's global view as a maintained fold: one count per mark
/// ([`Protocol::oracle_marks`]) over every agent, moved only when an
/// interaction changed the marks of one of its two agents, so that no step
/// scans the configuration.
///
/// Before each interaction the simulation must leave every agent as the
/// full broadcast ([`Protocol::environment`]) would.  Agents that received
/// the current view and were not touched since are already fixed points of
/// the idempotent broadcast, so only the pair a step touched needs the view
/// again, and all `n` agents only when the view changes or the
/// configuration was rewritten out of band.
///
/// Inside a block of arcs nothing observes the configuration between two
/// steps, so [`Protocol::oracle_interact`] settles a pair right after its
/// interaction: if neither agent's marks changed, the counts and the view
/// still hold, and it re-applies the view to the pair at hand.  Otherwise,
/// and after a block's last step or a single step, the pair stays due with
/// the marks it was counted with, and the next step re-reads them first.
/// The per-step part is a few compares; re-reading a due pair is out of
/// line, and the O(n) recount and broadcast are cold.
///
/// The fold belongs to a [`Simulation`] and is opaque outside it:
/// [`Protocol::interact_block`] only passes it on to each step.
#[derive(Clone, Debug)]
pub struct OracleFold {
    /// Cached `protocol.uses_oracle()` (behind [`Protocol::HAS_ENVIRONMENT`]):
    /// whether the oracle runs at all.  Computed once at construction so the
    /// hot loop never pays the (virtual, under erasure) `uses_oracle` call.
    active: bool,
    /// Number of agents carrying each mark bit, each agent counted with
    /// its marks as last read.
    counts: [usize; 8],
    /// The view last broadcast to every agent.
    view: u8,
    /// What must happen before the next interaction.
    due: Due,
}

/// The fold's work left for the next interaction.
#[derive(Clone, Copy, Debug)]
enum Due {
    /// None: the counts describe the configuration and every agent holds
    /// the view.
    Nothing,
    /// The previous step's two agents, each with the marks it was counted
    /// with: their marks may have changed, and they may have moved off the
    /// view.
    Pair([(usize, u8); 2]),
    /// The counts no longer describe the configuration: at construction
    /// and after `config_mut` or `resize`.
    Recount,
}

impl OracleFold {
    fn new(active: bool) -> Self {
        OracleFold {
            active,
            counts: [0; 8],
            view: 0,
            due: Due::Recount,
        }
    }

    /// Moves one agent's count from marks `old` to marks `new`.
    fn shift(&mut self, old: u8, new: u8) {
        let mut moved = old ^ new;
        while moved != 0 {
            let k = moved.trailing_zeros() as usize;
            if new >> k & 1 == 1 {
                self.counts[k] += 1;
            } else {
                self.counts[k] -= 1;
            }
            moved &= moved - 1;
        }
    }

    /// The view the counts describe: bit `k` set iff some agent has mark `k`.
    fn current(&self) -> u8 {
        self.counts
            .iter()
            .enumerate()
            .fold(0, |view, (k, &c)| view | u8::from(c > 0) << k)
    }

    /// Does the work [`OracleFold::due`] names, so that `states` are what
    /// the full broadcast would leave before the next interaction.
    #[inline(never)]
    fn catch_up<P: Protocol>(&mut self, protocol: &P, states: &mut [P::State]) {
        match std::mem::replace(&mut self.due, Due::Nothing) {
            Due::Nothing => {}
            Due::Pair(pair) => {
                for (agent, marks) in pair {
                    self.shift(marks, protocol.oracle_marks(&states[agent]));
                }
                let view = self.current();
                if view != self.view {
                    self.view = view;
                    self.broadcast(protocol, states);
                } else {
                    for (agent, _) in pair {
                        protocol.oracle_apply(view, &mut states[agent]);
                    }
                }
            }
            Due::Recount => self.recount(protocol, states),
        }
    }

    /// Counts every agent afresh and broadcasts the view to all of them.
    #[cold]
    #[inline(never)]
    fn recount<P: Protocol>(&mut self, protocol: &P, states: &mut [P::State]) {
        self.counts = [0; 8];
        for state in states.iter() {
            self.shift(0, protocol.oracle_marks(state));
        }
        self.view = self.current();
        self.broadcast(protocol, states);
    }

    /// Applies the view to every agent.
    #[cold]
    #[inline(never)]
    fn broadcast<P: Protocol>(&self, protocol: &P, states: &mut [P::State]) {
        for state in states.iter_mut() {
            protocol.oracle_apply(self.view, state);
        }
    }
}

/// [`Protocol::uses_oracle`], checked against [`Protocol::HAS_ENVIRONMENT`].
///
/// # Panics
///
/// Panics if the protocol reports an oracle its type does not declare: the
/// oracle would be compiled out of the step loop and silently never invoked.
pub(crate) fn oracle_in_use<P: Protocol>(protocol: &P) -> bool {
    let uses = protocol.uses_oracle();
    assert!(
        P::HAS_ENVIRONMENT || !uses,
        "protocol {:?} reports uses_oracle() but its type does not set \
         Protocol::HAS_ENVIRONMENT, so its oracle would never run",
        protocol.name()
    );
    uses
}

/// One transition `C →e C'`: the oracle fold (when active), then
/// `interact` on the split-borrowed pair between `observer`'s hooks.  Every
/// step runs through here — single steps from [`Simulation::apply_observed`]
/// and uniform bursts from [`Protocol::interact_block`] — so the order is
/// written once.  `settle` says that nothing observes the configuration
/// before the next step, so the fold may settle the pair right after its
/// interaction.
///
/// # Panics
///
/// Panics if the interaction references agents outside the population.
#[inline]
pub(crate) fn transition<P: Protocol, O: StepObserver<P>>(
    protocol: &P,
    states: &mut [P::State],
    oracle: &mut OracleFold,
    interaction: Interaction,
    observer: &mut O,
    settle: bool,
) {
    let i = interaction.initiator().index();
    let j = interaction.responder().index();
    assert!(
        i < states.len() && j < states.len() && i != j,
        "interaction {interaction} out of range for population of {}",
        states.len()
    );
    // Oracles.  Compiled out entirely for pure protocol types; one
    // predicted branch for erased ones.
    let oracle_on = P::HAS_ENVIRONMENT && oracle.active;
    if oracle_on && !matches!(oracle.due, Due::Nothing) {
        oracle.catch_up(protocol, states);
    }

    // Split-borrow the two interacting states.
    let (a, b) = if i < j {
        let (lo, hi) = states.split_at_mut(j);
        (&mut lo[i], &mut hi[0])
    } else {
        let (lo, hi) = states.split_at_mut(i);
        (&mut hi[0], &mut lo[j])
    };
    observer.pre_interaction(protocol, interaction, a, b);
    if oracle_on {
        let settle = settle.then_some(oracle.view);
        if let Some((mi, mj)) = protocol.oracle_interact(settle, a, b) {
            oracle.due = Due::Pair([(i, mi), (j, mj)]);
        }
    } else {
        protocol.interact(a, b);
    }
    observer.post_interaction(protocol, interaction, a, b);
}

/// Checks that a configuration of `configuration` states fits a graph of
/// `graph` agents.
///
/// # Errors
///
/// Returns [`PopulationError::ConfigurationSizeMismatch`] if the two differ.
pub(crate) fn check_size(configuration: usize, graph: usize) -> Result<()> {
    if configuration != graph {
        return Err(PopulationError::ConfigurationSizeMismatch {
            configuration,
            graph,
        });
    }
    Ok(())
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
        check_size(config.len(), graph.num_agents())?;
        let oracle = OracleFold::new(oracle_in_use(&protocol));
        Ok(Simulation {
            protocol,
            graph,
            config,
            rng: ChaCha8Rng::seed_from_u64(seed),
            steps: 0,
            oracle,
        })
    }

    /// `true` if the oracle is active for this run — i.e. the protocol
    /// declared [`Protocol::HAS_ENVIRONMENT`] and reports
    /// [`Protocol::uses_oracle`].  When `true`, the oracle's broadcast
    /// rewrites agents other than the two interacting ones, so observers
    /// that fold whole states (the recurrence fingerprint sum) are not
    /// exact; the broadcast never changes leader outputs, so
    /// [`LeaderCounter`] stays exact either way.
    pub fn environment_active(&self) -> bool {
        self.oracle.active
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
        self.oracle.due = Due::Recount;
        &mut self.config
    }

    /// Replaces the interaction graph with a same-sized one, keeping the
    /// configuration and the step counter.  This is the substrate for topology
    /// churn (edge rewiring, partition/heal events).
    ///
    /// # Errors
    ///
    /// Returns [`PopulationError::ConfigurationSizeMismatch`] if the new
    /// graph's agent count differs from the current configuration's length.
    pub fn set_graph(&mut self, graph: G) -> Result<()> {
        check_size(self.config.len(), graph.num_agents())?;
        self.graph = graph;
        Ok(())
    }

    /// Replaces both the graph and the configuration; the step counter
    /// keeps running.  This is the substrate for agent join/leave churn.
    ///
    /// # Errors
    ///
    /// Returns [`PopulationError::ConfigurationSizeMismatch`] if the graph
    /// and configuration disagree on the number of agents.
    pub fn resize(&mut self, graph: G, config: Configuration<P::State>) -> Result<()> {
        check_size(config.len(), graph.num_agents())?;
        self.graph = graph;
        self.config = config;
        self.oracle.due = Due::Recount;
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
        transition(
            &self.protocol,
            self.config.states_mut(),
            &mut self.oracle,
            interaction,
            observer,
            false,
        );
        self.steps += 1;
    }

    /// Runs exactly `k` steps under the uniformly random scheduler.
    ///
    /// The steps go in blocks: up to 64 arcs are sampled first, then
    /// the protocol runs the whole block in one [`Protocol::interact_block`]
    /// call.  The RNG stream and the execution are those of `k` calls to
    /// [`Simulation::step`].
    pub fn run_steps(&mut self, k: u64) {
        let done = self.run_blocks(k, |graph, _config, rng, block| {
            for arc in block.iter_mut() {
                *arc = graph.sample(rng);
            }
            (block.len(), Ok(()))
        });
        debug_assert!(done.is_ok(), "uniform sampling never fails");
        // One counter update per burst, never per step: the hot loop pays
        // exactly one relaxed load here when telemetry is disabled.
        ssle_telemetry::metrics::well_known::HOT_STEPS.add(k);
    }

    /// Runs `k` steps whose arcs `fill` chooses a block at a time, over the
    /// graph, the **current configuration** and the simulation's RNG: the
    /// burst form of [`Simulation::step_chosen_by`].
    ///
    /// `fill` writes a prefix of its block of up to 64 arcs and returns the
    /// prefix's length, along with the error that cut the block short, if
    /// any; without an error the prefix must not be empty.  Each arc is
    /// checked against the graph, then the whole prefix runs in one
    /// [`Protocol::interact_block`] call.  At an error or a non-arc, the
    /// arcs before it still run and then the error returns, so the run is
    /// that of `k` calls to [`Simulation::step_chosen_by`] whose chooser
    /// takes the arcs one by one: the same configuration, step count, RNG
    /// position and error at the same step.  The configuration `fill` sees
    /// is the one before the block's first step, so a chooser that reads
    /// it must fill one arc per call.
    ///
    /// # Errors
    ///
    /// Propagates the chooser's error, or [`PopulationError::NotAnArc`] if
    /// a chosen pair is not an arc of the graph.
    pub fn run_chosen_by<F>(&mut self, k: u64, mut fill: F) -> Result<()>
    where
        F: FnMut(
            &G,
            &Configuration<P::State>,
            &mut ChaCha8Rng,
            &mut [Interaction],
        ) -> (usize, Result<()>),
    {
        self.run_blocks(k, |graph, config, rng, block| {
            let (filled, result) = fill(graph, config, rng, block);
            assert!(
                filled > 0 || result.is_err(),
                "a block chooser must fill an arc or fail"
            );
            let stray = block[..filled]
                .iter()
                .position(|e| !graph.is_arc(e.initiator().index(), e.responder().index()));
            match stray {
                Some(at) => (
                    at,
                    Err(PopulationError::NotAnArc {
                        initiator: block[at].initiator().index(),
                        responder: block[at].responder().index(),
                    }),
                ),
                None => (filled, result),
            }
        })
    }

    /// The block loop of both bursts: `fill` writes a prefix of each block
    /// of up to [`BLOCK`] arcs and returns its length and the error that
    /// ended it early, if any.  The prefix runs in one
    /// [`Protocol::interact_block`] call before the error returns.
    fn run_blocks<F>(&mut self, k: u64, mut fill: F) -> Result<()>
    where
        F: FnMut(
            &G,
            &Configuration<P::State>,
            &mut ChaCha8Rng,
            &mut [Interaction],
        ) -> (usize, Result<()>),
    {
        let mut arcs = [Interaction::new(0, 0); BLOCK];
        let mut left = k;
        while left > 0 {
            let block = &mut arcs[..left.min(BLOCK as u64) as usize];
            let (filled, result) = fill(&self.graph, &self.config, &mut self.rng, block);
            self.protocol.interact_block(
                self.config.states_mut(),
                &mut self.oracle,
                &block[..filled],
            );
            self.steps += filled as u64;
            left -= filled as u64;
            result?;
        }
        Ok(())
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
        // allocates nothing per invocation; named callers (the scenario
        // layer) overwrite it once.
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
    /// recording every change of the leader set.  Returns the steps at which
    /// the leader set changed.
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
            }
        }
        changes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::{AnyGraph, CompleteGraph, DirectedRing};

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
        let report = sim.run_until(|p, c| p.has_unique_leader(c.states()), 1, 200_000);
        assert!(report.converged());
        assert_eq!(sim.count_leaders(), 1);
        // Leaders never increase, so the criterion keeps holding.
        sim.run_steps(10_000);
        assert_eq!(sim.count_leaders(), 1);
    }

    #[test]
    fn run_until_returns_immediately_if_already_satisfied() {
        let g = CompleteGraph::new(4);
        let c = Configuration::from_states(vec![true, false, false, false]);
        let mut sim = Simulation::new(Fratricide, g, c, 0);
        let report = sim.run_until(|p, c| p.has_unique_leader(c.states()), 100, 1000);
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
        let report = sim.run_until(|p, c| p.has_unique_leader(c.states()), 7, 100);
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
    fn apply_counts_steps() {
        let g = DirectedRing::new(4).unwrap();
        let states = vec![0u32, 7, 0, 0];
        let mut sim = Simulation::new(Broadcast, g, Configuration::from_states(states), 5);
        sim.apply(Interaction::new(1, 2));
        sim.apply(Interaction::new(2, 3));
        assert_eq!(sim.steps(), 2);
        assert_eq!(sim.config().states(), &[0, 7, 7, 7]);
        assert_eq!(sim.num_agents(), 4);
        assert!(sim.graph().is_arc(1, 2));
    }

    /// An order-sensitive toy: each interaction mixes both states with a
    /// non-commutative hash.  On three agents every two arcs share an
    /// agent, so swapping any two distinct interactions changes the
    /// configuration (up to a 64-bit hash collision).
    #[derive(Clone, Debug)]
    struct Mix;
    impl Protocol for Mix {
        type State = u64;
        fn interact(&self, initiator: &mut u64, responder: &mut u64) {
            let (a, b) = (*initiator, *responder);
            *initiator = (a ^ b.rotate_left(17)).wrapping_mul(0x9E37_79B9_7F4A_7C15) + 1;
            *responder = (b ^ a.rotate_left(29)).wrapping_mul(0xC2B2_AE3D_27D4_EB4F) + 2;
        }
    }

    /// `run_steps(k)` against `k` calls of `step()`, from clones of `sim`,
    /// for burst lengths around the block size: the burst must apply each
    /// block's arcs in the order they were sampled.
    fn assert_burst_keeps_arc_order<P: Protocol, G: InteractionGraph + Clone>(
        label: &str,
        sim: Simulation<P, G>,
    ) where
        P::State: PartialEq,
    {
        let (mut burst, mut single) = (sim.clone(), sim);
        for k in [0u64, 1, 63, 64, 65, 1000] {
            burst.run_steps(k);
            for _ in 0..k {
                single.step();
            }
            assert!(
                burst.config() == single.config(),
                "{label}: a burst of {k} applied its arcs out of order"
            );
            assert_eq!(burst.steps(), single.steps(), "{label}: burst of {k}");
        }
    }

    #[test]
    fn bursts_apply_arcs_in_sample_order() {
        use crate::scenario::{DynProtocol, DynState};
        let states: Vec<u64> = vec![1, 2, 3];
        assert_burst_keeps_arc_order(
            "typed",
            Simulation::new(
                Mix,
                CompleteGraph::new(3),
                Configuration::from_states(states.clone()),
                21,
            ),
        );
        assert_burst_keeps_arc_order(
            "erased",
            Simulation::new(
                DynProtocol::erase_protocol(Mix),
                CompleteGraph::new(3),
                states.into_iter().map(DynState::new).collect(),
                21,
            ),
        );
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

    /// A toy oracle on all eight mark bits.  Bit 0 flips on most
    /// interactions; bits 1–7 are beacons that appear rarely and die when
    /// their holder next initiates, so the view's bits come and go.  The
    /// broadcast records the view and sets a sticky flag while bit 7 is
    /// off, which interactions clear; both feed back into the transition,
    /// so a wrong view or a skipped re-application shows in the states.
    #[derive(Clone, Debug)]
    struct Beacons;

    #[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
    struct Beacon {
        marks: u8,
        seen: u8,
        idle: bool,
        acc: u32,
    }

    impl Beacon {
        fn random(rng: &mut ChaCha8Rng) -> Self {
            use rand::Rng;
            Beacon {
                marks: rng.gen(),
                seen: rng.gen(),
                idle: rng.gen(),
                acc: rng.gen(),
            }
        }
    }

    fn beacon_interact(a: &mut Beacon, b: &mut Beacon) {
        let h = (a.acc
            ^ b.acc.rotate_left(11)
            ^ u32::from(a.seen) << 3
            ^ u32::from(b.seen) << 19
            ^ u32::from(a.idle) << 27
            ^ u32::from(b.idle) << 28)
            .wrapping_mul(0x9E37_79B9)
            .wrapping_add(0x7F4A_7C15);
        a.acc = h;
        b.acc ^= h.rotate_left(16);
        a.marks &= 1;
        if h & 3 != 0 {
            a.marks ^= 1;
        }
        if h >> 27 == 0 {
            b.marks |= 2 << ((h >> 8) % 7);
        }
        a.idle &= h & 8 != 0;
    }

    impl Protocol for Beacons {
        type State = Beacon;
        const HAS_ENVIRONMENT: bool = true;
        fn interact(&self, a: &mut Beacon, b: &mut Beacon) {
            beacon_interact(a, b);
        }
        fn oracle_marks(&self, s: &Beacon) -> u8 {
            s.marks
        }
        fn oracle_apply(&self, view: u8, s: &mut Beacon) {
            s.seen = view;
            if view & 0x80 == 0 {
                s.idle = true;
            }
        }
        fn uses_oracle(&self) -> bool {
            true
        }
    }

    /// [`Beacons`]' transition with no oracle: the reference runs the
    /// oracle itself, as [`Protocol::environment`] before every step.
    #[derive(Clone, Debug)]
    struct BareBeacons;

    impl Protocol for BareBeacons {
        type State = Beacon;
        fn interact(&self, a: &mut Beacon, b: &mut Beacon) {
            beacon_interact(a, b);
        }
    }

    /// How one burst of the oracle pin advances every simulation.
    #[derive(Clone, Copy, Debug)]
    enum Drive {
        /// `run_steps`.
        Uniform,
        /// `step_with_scheduler` under a round-robin scheduler.
        Scheduled,
        /// `run_chosen_by`, filling up to five uniform arcs per block.
        Chosen,
    }

    fn drive<P: Protocol>(sim: &mut Simulation<P, AnyGraph>, drive: Drive, k: u64) {
        use crate::scheduler::RoundRobinScheduler;
        match drive {
            Drive::Uniform => sim.run_steps(k),
            Drive::Scheduled => {
                let mut scheduler = RoundRobinScheduler::new(sim.graph());
                for _ in 0..k {
                    sim.step_with_scheduler(&mut scheduler).expect("an arc");
                }
            }
            Drive::Chosen => sim
                .run_chosen_by(k, |graph, _, rng, block| {
                    let filled = block.len().min(5);
                    for arc in &mut block[..filled] {
                        *arc = graph.sample(rng);
                    }
                    (filled, Ok(()))
                })
                .expect("arcs"),
        }
    }

    /// `k` steps of the reference: the full broadcast, then the oracle-free
    /// interaction, drawn from the same stream as [`drive`]'s.
    fn drive_reference(sim: &mut Simulation<BareBeacons, AnyGraph>, drive: Drive, k: u64) {
        use crate::scheduler::RoundRobinScheduler;
        let mut scheduler = RoundRobinScheduler::new(sim.graph());
        for _ in 0..k {
            Beacons.environment(sim.config_mut().states_mut());
            match drive {
                Drive::Scheduled => sim.step_with_scheduler(&mut scheduler),
                Drive::Uniform | Drive::Chosen => sim.step_chosen_by(|g, _, rng| Ok(g.sample(rng))),
            }
            .expect("an arc");
        }
    }

    /// The oracle fold, typed and erased, runs exactly the process of the
    /// full broadcast before every step, on every mark bit: on the complete
    /// graph of three agents (consecutive pairs overlap) and the directed
    /// ring of 64, under uniform bursts, scheduled steps and chosen blocks
    /// of every length around the block size, with out-of-band rewrites and
    /// a shrinking resize; the configurations agree after every burst.
    #[test]
    fn oracle_fold_matches_the_broadcast_on_every_mark_bit() {
        use crate::erase::downcast_config;
        use crate::graph::GraphFamily;
        use crate::scenario::{DynProtocol, DynState};
        use rand::Rng;
        const BURSTS: usize = 48;
        for (family, n) in [(GraphFamily::Complete, 3), (GraphFamily::DirectedRing, 64)] {
            for seed in [1u64, 29, 4_242] {
                let mut rng = ChaCha8Rng::seed_from_u64(seed);
                let init: Vec<Beacon> = (0..n).map(|_| Beacon::random(&mut rng)).collect();
                let erase = |states: &[Beacon]| -> Configuration<DynState> {
                    states.iter().copied().map(DynState::new).collect()
                };
                let graph = family.build(n).expect("n >= 2");
                let config = Configuration::from_states(init.clone());
                let mut typed = Simulation::new(Beacons, graph.clone(), config.clone(), seed);
                let mut erased = Simulation::new(
                    DynProtocol::erase_protocol(Beacons),
                    graph.clone(),
                    erase(&init),
                    seed,
                );
                let mut reference = Simulation::new(BareBeacons, graph, config, seed);
                let mut views = std::collections::HashSet::new();
                for burst in 0..BURSTS {
                    let how = [Drive::Uniform, Drive::Scheduled, Drive::Chosen][burst % 3];
                    let k = [1u64, 63, 64, 65, 7, 200, 129, 2][burst % 8];
                    drive(&mut typed, how, k);
                    drive(&mut erased, how, k);
                    drive_reference(&mut reference, how, k);
                    let ctx = format!("{family:?} n={n} seed={seed} burst {burst} ({how:?} x {k})");
                    assert_eq!(typed.config(), reference.config(), "typed: {ctx}");
                    assert_eq!(
                        downcast_config::<Beacon>(erased.config()).as_ref(),
                        Some(reference.config()),
                        "erased: {ctx}"
                    );
                    views.extend(typed.config().states().iter().map(|s| s.seen));
                    let len = reference.num_agents();
                    if burst % 4 == 3 {
                        let agent = rng.gen_range(0..len);
                        let state = Beacon::random(&mut rng);
                        typed.config_mut()[agent] = state;
                        erased.config_mut()[agent] = DynState::new(state);
                        reference.config_mut()[agent] = state;
                    }
                    if burst == BURSTS / 2 {
                        let m = len - len / 3;
                        let graph = family.build(m).expect("m >= 2");
                        let kept = reference.config().states()[..m].to_vec();
                        typed
                            .resize(graph.clone(), Configuration::from_states(kept.clone()))
                            .expect("sizes agree");
                        erased
                            .resize(graph.clone(), erase(&kept))
                            .expect("sizes agree");
                        reference
                            .resize(graph, Configuration::from_states(kept))
                            .expect("sizes agree");
                    }
                }
                assert!(
                    views.len() >= 8,
                    "{family:?} n={n} seed={seed}: the view took only {} values",
                    views.len()
                );
            }
        }
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
    fn reports_reflect_check_interval_granularity() {
        let g = CompleteGraph::new(32);
        let c = Configuration::uniform(32, true);
        let mut sim = Simulation::new(Fratricide, g, c, 17);
        let interval = 500;
        let report = sim.run_until(|p, c| p.has_unique_leader(c.states()), interval, 5_000_000);
        assert!(report.converged());
        assert_eq!(report.convergence_step() % interval, 0);
    }
}
