//! Schedulers.
//!
//! A scheduler decides which interaction occurs at each step.  The model of
//! the paper uses the **uniformly random scheduler** `Γ = Γ_0, Γ_1, ...`
//! where each `Γ_t` is an arc chosen uniformly at random
//! ([`RandomScheduler`]).  Deterministic schedulers ([`SequenceScheduler`],
//! [`RoundRobinScheduler`]) replay fixed interaction sequences; they are used
//! by tests that reproduce the proof schedules (e.g. the `seq_R · seq_L`
//! sweeps of Lemma 3.5) and by the Figure 2 token-trajectory experiment.

use rand::Rng;

use crate::error::{PopulationError, Result};
use crate::graph::InteractionGraph;
use crate::schedule::{Interaction, InteractionSeq};

/// Chooses the interaction for each step of an execution.
pub trait Scheduler<G: InteractionGraph>: Send {
    /// Returns the interaction for the next step.
    ///
    /// # Errors
    ///
    /// Deterministic schedulers return [`PopulationError::ScheduleExhausted`]
    /// once their sequence runs out; the random scheduler never fails.
    fn next_interaction<R: Rng + ?Sized>(&mut self, graph: &G, rng: &mut R) -> Result<Interaction>;

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
