//! The state-aware greedy adversary.
//!
//! [`GreedyAdversary`] is the one zoo member the typed [`population::Scheduler`]
//! trait cannot express: it inspects the **current configuration** before
//! every step, scores a pool of candidate arcs against a protocol-supplied
//! potential, and schedules the most convergence-hostile one.  It therefore
//! implements `population::DynScheduler` directly (the erased,
//! state-visible scheduler interface introduced for exactly this purpose),
//! and keeps its default one-arc `schedule_block`, so even an unobserved
//! run asks it once per step, with the configuration of that step.
//!
//! The potential is an [`ArcScorer`]: *higher scores are more hostile*.  A
//! typical scorer clones the two endpoint states, applies the protocol's
//! transition to the clones and scores the outcome — e.g. "did this
//! interaction preserve surplus leaders?" for elimination-style protocols,
//! or a segment/token count from `ssle-core` for the paper's protocol.
//! Candidate arcs are drawn from the graph's own sampler with the
//! simulation's RNG, so runs stay seed-deterministic.

use std::fmt;
use std::sync::Arc;

use population::{AnyGraph, DynScheduler, DynState, Interaction, InteractionGraph, Result};
use rand_chacha::ChaCha8Rng;

/// A hostility score for scheduling one arc in one configuration: higher
/// means more convergence-hostile.
pub type ArcScorer = Arc<dyn Fn(&[DynState], Interaction) -> f64 + Send + Sync>;

/// A scheduler that greedily picks the most hostile of `candidates` sampled
/// arcs at every step.
#[derive(Clone)]
pub struct GreedyAdversary {
    scorer: ArcScorer,
    candidates: usize,
}

impl GreedyAdversary {
    /// Creates the adversary; `candidates` (clamped to `>= 1`) arcs are
    /// sampled and scored per step.  With one candidate the adversary
    /// degenerates to the uniformly random scheduler (at a different RNG
    /// consumption rate).
    pub fn new(scorer: ArcScorer, candidates: usize) -> Self {
        GreedyAdversary {
            scorer,
            candidates: candidates.max(1),
        }
    }

    /// Candidate arcs scored per step.
    pub fn candidates(&self) -> usize {
        self.candidates
    }
}

impl fmt::Debug for GreedyAdversary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("GreedyAdversary")
            .field("candidates", &self.candidates)
            .finish()
    }
}

impl DynScheduler for GreedyAdversary {
    fn schedule(
        &mut self,
        graph: &AnyGraph,
        states: &[DynState],
        rng: &mut ChaCha8Rng,
    ) -> Result<Interaction> {
        let mut best = graph.sample(rng);
        let mut best_score = (self.scorer)(states, best);
        for _ in 1..self.candidates {
            let arc = graph.sample(rng);
            let score = (self.scorer)(states, arc);
            // Strict `>`: ties keep the earliest candidate, so the pick is
            // deterministic given the RNG stream.
            if score > best_score {
                best = arc;
                best_score = score;
            }
        }
        Ok(best)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use population::{DirectedRing, GraphFamily};
    use rand::SeedableRng;

    fn ring_graph(n: usize) -> AnyGraph {
        GraphFamily::DirectedRing.build(n).unwrap()
    }

    #[test]
    fn picks_the_highest_scoring_candidate() {
        // Score an arc by its initiator's state value: the adversary must
        // never pick a sampled candidate with a smaller value than another.
        let scorer: ArcScorer = Arc::new(|states, arc| {
            *states[arc.initiator().index()]
                .downcast_ref::<u32>()
                .unwrap() as f64
        });
        let graph = ring_graph(8);
        let states: Vec<DynState> = (0..8u32).map(DynState::new).collect();
        let mut adversary = GreedyAdversary::new(scorer.clone(), 8);
        assert_eq!(adversary.candidates(), 8);
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        for _ in 0..200 {
            // Reference: replay the same candidate stream and take the max.
            let mut reference_rng = rng.clone();
            let mut max = f64::NEG_INFINITY;
            for _ in 0..8 {
                let arc = graph.sample(&mut reference_rng);
                max = max.max(scorer(&states, arc));
            }
            let arc = adversary.schedule(&graph, &states, &mut rng).unwrap();
            assert_eq!(scorer(&states, arc), max);
        }
    }

    #[test]
    fn deterministic_given_the_rng_stream() {
        let scorer: ArcScorer = Arc::new(|states, arc| {
            *states[arc.responder().index()]
                .downcast_ref::<u32>()
                .unwrap() as f64
        });
        let graph = ring_graph(6);
        let states: Vec<DynState> = (0..6u32).map(DynState::new).collect();
        let mut a = GreedyAdversary::new(scorer.clone(), 3);
        let mut b = GreedyAdversary::new(scorer, 3);
        let mut rng_a = ChaCha8Rng::seed_from_u64(11);
        let mut rng_b = ChaCha8Rng::seed_from_u64(11);
        for _ in 0..500 {
            assert_eq!(
                a.schedule(&graph, &states, &mut rng_a).unwrap(),
                b.schedule(&graph, &states, &mut rng_b).unwrap()
            );
        }
    }

    #[test]
    fn candidates_clamp_to_at_least_one() {
        let scorer: ArcScorer = Arc::new(|_s, _a| 0.0);
        let adversary = GreedyAdversary::new(scorer, 0);
        assert_eq!(adversary.candidates(), 1);
        assert!(format!("{adversary:?}").contains("candidates"));
        // One candidate consumes the RNG exactly like the uniform sampler.
        let graph = ring_graph(5);
        let states: Vec<DynState> = (0..5u32).map(DynState::new).collect();
        let mut adversary = GreedyAdversary::new(Arc::new(|_s, _a| 0.0), 1);
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let mut reference = ChaCha8Rng::seed_from_u64(2);
        let ring = DirectedRing::new(5).unwrap();
        for _ in 0..100 {
            assert_eq!(
                adversary.schedule(&graph, &states, &mut rng).unwrap(),
                ring.sample(&mut reference)
            );
        }
    }
}
