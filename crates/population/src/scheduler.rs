//! Schedulers.
//!
//! A scheduler decides which interaction occurs at each step.  The model of
//! the paper uses the **uniformly random scheduler** `Γ = Γ_0, Γ_1, ...`
//! where each `Γ_t` is an arc chosen uniformly at random
//! ([`RandomScheduler`]).  Deterministic schedulers ([`SequenceScheduler`],
//! [`RoundRobinScheduler`]) replay fixed interaction sequences; they are used
//! by tests that reproduce the proof schedules (e.g. the `seq_R · seq_L`
//! sweeps of Lemma 3.5) and by the Figure 2 token-trajectory experiment.
//!
//! The erased run path sees schedulers through [`DynScheduler`], which
//! every typed `Scheduler<AnyGraph>` implements and which state-aware
//! (adversarial) schedulers implement directly; a [`SchedulerFamily`] builds
//! one per run of a scenario.

use std::fmt;
use std::sync::Arc;

use rand::Rng;
use rand_chacha::ChaCha8Rng;

use crate::error::{PopulationError, Result};
use crate::graph::{AnyGraph, InteractionGraph};
use crate::schedule::{Interaction, InteractionSeq};
use crate::slot::DynState;
use crate::sweep::SweepPoint;

/// Chooses the interaction for each step of an execution.
pub trait Scheduler<G: InteractionGraph>: Send {
    /// Returns the interaction for the next step.
    ///
    /// # Errors
    ///
    /// Deterministic schedulers return [`PopulationError::ScheduleExhausted`]
    /// once their sequence runs out; the random scheduler never fails.
    fn next_interaction<R: Rng + ?Sized>(&mut self, graph: &G, rng: &mut R) -> Result<Interaction>;

    /// Chooses the interactions of the next steps at once: writes a
    /// prefix of `arcs` and returns its length, along with the error that
    /// cut the block short, if any.
    ///
    /// The contract is exactly that of successive
    /// [`Scheduler::next_interaction`] calls, one per slot: the block stops
    /// right after the first pair that is not an arc of `graph` (which is
    /// written and counted) or at an error (which is not), and it leaves
    /// the RNG, [`Scheduler::phase`] and any other state where those calls
    /// would.  The default is that loop; a scheduler overrides it only to
    /// fill the same arcs faster.  The erased blanket
    /// [`DynScheduler::schedule_block`] calls it.
    fn next_block<R: Rng + ?Sized>(
        &mut self,
        graph: &G,
        rng: &mut R,
        arcs: &mut [Interaction],
    ) -> (usize, Result<()>) {
        for (filled, slot) in arcs.iter_mut().enumerate() {
            match self.next_interaction(graph, rng) {
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

    /// The scheduler's deterministic phase, if it has one: a value that,
    /// together with the current configuration, determines the distribution
    /// of every future choice.  Periodic schedulers return their step counter
    /// modulo the period; memoryless schedulers (the default) return `None`.
    ///
    /// Consumed by configuration-recurrence detection: a configuration seen
    /// twice at the same phase is a recurrence candidate.
    fn phase(&self) -> Option<u64> {
        None
    }
}

/// The uniformly random scheduler of the population-protocol model: at each
/// step one arc of the interaction graph is chosen uniformly at random.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RandomScheduler;

impl RandomScheduler {
    /// Creates a uniformly random scheduler.
    pub fn new() -> Self {
        RandomScheduler
    }
}

impl<G: InteractionGraph> Scheduler<G> for RandomScheduler {
    fn next_interaction<R: Rng + ?Sized>(&mut self, graph: &G, rng: &mut R) -> Result<Interaction> {
        Ok(graph.sample(rng))
    }
}

/// A deterministic scheduler that replays a fixed [`InteractionSeq`].
///
/// Used to reproduce the explicit schedules from the paper's proofs (the
/// paper reasons about events of the form "sequence `s` occurs within `ℓ`
/// steps", Definition 2.2); a test can apply the sequence directly and then
/// assert the post-condition claimed by the corresponding lemma.
#[derive(Clone, Debug)]
pub struct SequenceScheduler {
    interactions: Vec<Interaction>,
    cursor: usize,
}

impl SequenceScheduler {
    /// Creates a scheduler that replays `seq` once.
    pub fn new(seq: InteractionSeq) -> Self {
        SequenceScheduler {
            interactions: seq.into_iter().collect(),
            cursor: 0,
        }
    }
}

impl<G: InteractionGraph> Scheduler<G> for SequenceScheduler {
    fn next_interaction<R: Rng + ?Sized>(
        &mut self,
        _graph: &G,
        _rng: &mut R,
    ) -> Result<Interaction> {
        if self.cursor >= self.interactions.len() {
            return Err(PopulationError::ScheduleExhausted {
                available: self.interactions.len() as u64,
            });
        }
        let interaction = self.interactions[self.cursor];
        self.cursor += 1;
        Ok(interaction)
    }
}

/// A deterministic scheduler that cycles through every arc of the graph in a
/// fixed order, forever.  Useful as a crude "globally fair" scheduler for
/// sanity tests.
#[derive(Clone, Debug)]
pub struct RoundRobinScheduler {
    arcs: Vec<Interaction>,
    cursor: usize,
}

impl RoundRobinScheduler {
    /// Creates a round-robin scheduler over the arcs of `graph`.
    pub fn new<G: InteractionGraph>(graph: &G) -> Self {
        RoundRobinScheduler {
            arcs: graph.arcs(),
            cursor: 0,
        }
    }
}

impl<G: InteractionGraph> Scheduler<G> for RoundRobinScheduler {
    fn next_interaction<R: Rng + ?Sized>(
        &mut self,
        _graph: &G,
        _rng: &mut R,
    ) -> Result<Interaction> {
        if self.arcs.is_empty() {
            return Err(PopulationError::EmptyArcSet);
        }
        let interaction = self.arcs[self.cursor];
        self.cursor = (self.cursor + 1) % self.arcs.len();
        Ok(interaction)
    }
}

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
    /// [`Simulation::run_chosen_by`]: crate::simulation::Simulation::run_chosen_by
    /// [`Protocol::interact_block`]: crate::protocol::Protocol::interact_block
    ///
    /// `states` is the configuration before the block's first step, so the
    /// default fills exactly one arc: a scheduler that reads the states
    /// (such as a greedy adversary) sees every state it chooses from.
    /// Every typed [`Scheduler<AnyGraph>`] is blind to the states by
    /// construction, and its blanket impl fills the whole block with
    /// [`Scheduler::next_block`]: by default one inlined
    /// `next_interaction` call and `is_arc` check per arc, or the
    /// scheduler's own tighter loop (the epoch-partition scheduler fills
    /// each run of an epoch at once).
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
        Scheduler::next_block(self, graph, rng, arcs)
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
/// analogue of [`GraphFamily`](crate::graph::GraphFamily)).
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::DirectedRing;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn random_scheduler_only_emits_graph_arcs() {
        let ring = DirectedRing::new(6).unwrap();
        let mut sched = RandomScheduler::new();
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        for _ in 0..1000 {
            let e = sched.next_interaction(&ring, &mut rng).unwrap();
            assert!(ring.is_arc(e.initiator().index(), e.responder().index()));
        }
    }

    #[test]
    fn random_scheduler_hits_every_arc() {
        let ring = DirectedRing::new(8).unwrap();
        let mut sched = RandomScheduler::new();
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        let mut seen = [false; 8];
        for _ in 0..2000 {
            let e = sched.next_interaction(&ring, &mut rng).unwrap();
            seen[e.initiator().index()] = true;
        }
        assert!(
            seen.iter().all(|&b| b),
            "every arc should be scheduled eventually"
        );
    }

    #[test]
    fn sequence_scheduler_replays_in_order_then_exhausts() {
        let ring = DirectedRing::new(4).unwrap();
        let seq = InteractionSeq::seq_r(0, 4, 4);
        let mut sched = SequenceScheduler::new(seq.clone());
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        for expected in seq.iter() {
            let got = sched.next_interaction(&ring, &mut rng).unwrap();
            assert_eq!(&got, expected);
        }
        let err = sched.next_interaction(&ring, &mut rng).unwrap_err();
        assert!(matches!(
            err,
            PopulationError::ScheduleExhausted { available: 4 }
        ));
    }

    #[test]
    fn round_robin_cycles_through_all_arcs() {
        let ring = DirectedRing::new(3).unwrap();
        let mut sched = RoundRobinScheduler::new(&ring);
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        let mut seen = Vec::new();
        for _ in 0..6 {
            seen.push(sched.next_interaction(&ring, &mut rng).unwrap());
        }
        assert_eq!(&seen[0..3], ring.arcs().as_slice());
        assert_eq!(&seen[3..6], ring.arcs().as_slice());
    }
}
