//! The protocol abstraction.
//!
//! A population protocol `P(Q, Y, T, π_out)` (Section 2 of the paper) is a
//! finite set of states `Q`, an output alphabet `Y`, a deterministic
//! transition function `T : Q × Q → Q × Q` applied to (initiator, responder)
//! pairs, and an output function `π_out : Q → Y`.
//!
//! [`Protocol`] captures `Q` (the associated `State` type) and `T`
//! ([`Protocol::interact`]).  The output function is modelled by the
//! refinement traits: [`LeaderElection`] for protocols whose output alphabet
//! is `{L, F}` and, for other problems (ring orientation, colouring), by
//! protocol-specific inspection functions in their own crates.

use crate::config::Configuration;
use crate::observer::NoObserver;
use crate::schedule::Interaction;
use crate::simulation::{transition, OracleFold};

/// Output alphabet of a leader-election protocol: `L` (leader) or `F`
/// (follower).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum LeaderOutput {
    /// The agent outputs `L`.
    Leader,
    /// The agent outputs `F`.
    Follower,
}

impl std::fmt::Display for LeaderOutput {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LeaderOutput::Leader => write!(f, "L"),
            LeaderOutput::Follower => write!(f, "F"),
        }
    }
}

/// A population protocol: a deterministic pairwise transition function over a
/// finite state space.
///
/// Protocols must be deterministic — all randomness in the model comes from
/// the uniformly random scheduler, exactly as in the paper.  The transition
/// is expressed as an in-place update of the `(initiator, responder)` pair,
/// which is both allocation-free for large state structs and a natural
/// transliteration of the paper's pseudocode (which mutates `l` and `r`).
///
/// Implementations should be cheap to clone; the batch runner clones the
/// protocol into worker threads.
pub trait Protocol: Clone + Send + Sync {
    /// The per-agent state type (the finite set `Q`).
    type State: Clone + PartialEq + std::hash::Hash + std::fmt::Debug + Send + Sync;

    /// `true` iff this protocol type may have an oracle
    /// ([`Protocol::oracle_marks`] and [`Protocol::oracle_apply`]).
    ///
    /// For the overwhelmingly common pure protocols the simulation's oracle
    /// bookkeeping would be wasted work on every step.  This associated
    /// constant lets [`crate::simulation::Simulation`] compile it out
    /// entirely for pure protocol types and gate it behind one cached
    /// boolean for erased ones.
    ///
    /// Any protocol that overrides the oracle methods **must** set this to
    /// `true` (and override [`Protocol::uses_oracle`]); otherwise its oracle
    /// is silently never invoked.
    const HAS_ENVIRONMENT: bool = false;

    /// The transition function `T`.
    ///
    /// `initiator` is the paper's `l` (the left agent of a directed-ring arc)
    /// and `responder` is `r` (the right agent).  On non-ring graphs the
    /// roles are simply the arc's tail and head.
    fn interact(&self, initiator: &mut Self::State, responder: &mut Self::State);

    /// Runs the steps of a block of arcs, in order, on `states`: for each,
    /// the oracle's broadcast, then [`Protocol::interact`].  This is how
    /// [`Simulation::run_steps`] hands a uniform burst to the protocol; the
    /// simulation does the bookkeeping afterwards.
    ///
    /// The default loops over the arcs.  Protocols that dispatch each call
    /// dynamically override it to dispatch once per block — the erased
    /// [`crate::scenario::DynProtocol`] does — and must run exactly the
    /// default's process.
    ///
    /// [`Simulation::run_steps`]: crate::simulation::Simulation::run_steps
    fn interact_block(
        &self,
        states: &mut [Self::State],
        oracle: &mut OracleFold,
        arcs: &[Interaction],
    ) {
        // Only the configuration after the block is observed, so every step
        // but the last may settle the oracle right after its interaction.
        let last = arcs.len().saturating_sub(1);
        for (k, &arc) in arcs.iter().enumerate() {
            transition(self, states, oracle, arc, &mut NoObserver, k < last);
        }
    }

    /// [`Protocol::interact`] while the oracle runs.  Returns the pair's
    /// marks ([`Protocol::oracle_marks`]) from before the transition, except
    /// when `settle` carries the current view and neither agent's marks
    /// changed: then it re-applies that view to both and returns `None`.
    ///
    /// This is how the simulation's oracle fold runs an interaction.  The
    /// default is the reference.  Erasure overrides it in the block loop
    /// behind [`crate::scenario::DynProtocol`], so that the pair is downcast
    /// once; no other protocol should.
    #[inline]
    fn oracle_interact(
        &self,
        settle: Option<u8>,
        initiator: &mut Self::State,
        responder: &mut Self::State,
    ) -> Option<(u8, u8)> {
        let marks = (self.oracle_marks(initiator), self.oracle_marks(responder));
        self.interact(initiator, responder);
        match settle {
            Some(view) if (self.oracle_marks(initiator), self.oracle_marks(responder)) == marks => {
                self.oracle_apply(view, initiator);
                self.oracle_apply(view, responder);
                None
            }
            _ => Some(marks),
        }
    }

    /// One agent's contribution to the oracle's global view: bit `k` set
    /// means this agent has property `k`, so it contributes to "some agent
    /// has property `k`".
    ///
    /// Oracles such as Fischer–Jiang's `Ω?` eventual leader detector answer
    /// questions of exactly that shape ("is there a leader anywhere?"), so
    /// the simulation keeps one count per mark over every agent, moved only
    /// when an interaction changes its pair's marks, instead of scanning the
    /// configuration.
    /// The default (no marks) is the plain population-protocol model.
    fn oracle_marks(&self, _state: &Self::State) -> u8 {
        0
    }

    /// The oracle's broadcast to one agent: bit `k` of `view` is set iff some
    /// agent carries mark `k` (see [`Protocol::oracle_marks`]).
    ///
    /// Contract: the broadcast is idempotent, and it never changes the
    /// agent's marks or its leader output.  The simulation relies on both:
    /// an agent that already received `view` is left alone until the view
    /// changes or an interaction touches it, and incremental leader
    /// counting stays exact.  The default does nothing.
    fn oracle_apply(&self, _view: u8, _state: &mut Self::State) {}

    /// The oracle's full broadcast over a configuration: folds every agent's
    /// [`Protocol::oracle_marks`] into the view and applies it to every
    /// agent with [`Protocol::oracle_apply`].
    ///
    /// This is the reference semantics of an oracle step — the simulation
    /// behaves as if it ran this before every interaction, and the
    /// explorer does run it.  It is derived from the two methods above and
    /// not meant to be overridden.
    fn environment(&self, states: &mut [Self::State]) {
        let view = states
            .iter()
            .fold(0, |view, state| view | self.oracle_marks(state));
        for state in states {
            self.oracle_apply(view, state);
        }
    }

    /// Returns `true` if this protocol has a non-trivial oracle
    /// ([`Protocol::oracle_marks`] / [`Protocol::oracle_apply`]).
    ///
    /// Any protocol with an oracle **must** override this to return `true`:
    /// reporting code uses it to label oracle assumptions in generated
    /// tables, and the simulation skips its oracle bookkeeping entirely
    /// when it returns `false` (see [`Protocol::HAS_ENVIRONMENT`]), so an
    /// inconsistent implementation would silently lose its oracle.
    ///
    /// Unlike the compile-time [`Protocol::HAS_ENVIRONMENT`], this is a
    /// runtime property: the erased [`crate::scenario::DynProtocol`] must
    /// conservatively set the constant to `true` and reports the wrapped
    /// protocol's actual answer here, which the simulation caches once per
    /// run.
    fn uses_oracle(&self) -> bool {
        false
    }

    /// A short human-readable protocol name used in generated tables.
    fn name(&self) -> &'static str {
        std::any::type_name::<Self>()
    }
}

/// A protocol solving leader election: its output function maps every state
/// to `L` or `F`.
pub trait LeaderElection: Protocol {
    /// The output function restricted to the leader bit: returns `true` iff
    /// the state outputs `L`.
    fn is_leader(&self, state: &Self::State) -> bool;

    /// The output `π_out(q)` of a state.
    fn output(&self, state: &Self::State) -> LeaderOutput {
        if self.is_leader(state) {
            LeaderOutput::Leader
        } else {
            LeaderOutput::Follower
        }
    }

    /// Counts the number of agents outputting `L` in a slice of states.
    fn count_leaders(&self, states: &[Self::State]) -> usize {
        states.iter().filter(|s| self.is_leader(s)).count()
    }

    /// Returns the indices of the agents outputting `L`.
    fn leader_indices(&self, states: &[Self::State]) -> Vec<usize> {
        states
            .iter()
            .enumerate()
            .filter_map(|(i, s)| if self.is_leader(s) { Some(i) } else { None })
            .collect()
    }

    /// Returns `true` iff exactly one agent outputs `L`.
    fn has_unique_leader(&self, states: &[Self::State]) -> bool {
        let mut seen = false;
        for s in states {
            if self.is_leader(s) {
                if seen {
                    return false;
                }
                seen = true;
            }
        }
        seen
    }

    /// Counts leaders in a full configuration.
    fn count_leaders_in(&self, config: &Configuration<Self::State>) -> usize {
        self.count_leaders(config.states())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Minimal protocol used to exercise the default trait methods.
    #[derive(Clone, Debug)]
    struct Toggle;

    impl Protocol for Toggle {
        type State = bool;
        fn interact(&self, initiator: &mut bool, responder: &mut bool) {
            // The initiator absorbs the responder's leadership.
            if *responder {
                *responder = false;
                *initiator = true;
            }
        }
        fn name(&self) -> &'static str {
            "toggle"
        }
    }

    impl LeaderElection for Toggle {
        fn is_leader(&self, state: &bool) -> bool {
            *state
        }
    }

    #[test]
    fn leader_output_display() {
        assert_eq!(LeaderOutput::Leader.to_string(), "L");
        assert_eq!(LeaderOutput::Follower.to_string(), "F");
        assert!(
            LeaderOutput::Leader < LeaderOutput::Follower
                || LeaderOutput::Leader != LeaderOutput::Follower
        );
    }

    #[test]
    fn default_output_follows_is_leader() {
        let p = Toggle;
        assert_eq!(p.output(&true), LeaderOutput::Leader);
        assert_eq!(p.output(&false), LeaderOutput::Follower);
    }

    #[test]
    fn counting_helpers() {
        let p = Toggle;
        let states = vec![true, false, true, false, false];
        assert_eq!(p.count_leaders(&states), 2);
        assert_eq!(p.leader_indices(&states), vec![0, 2]);
        assert!(!p.has_unique_leader(&states));
        assert!(p.has_unique_leader(&[false, true, false]));
        assert!(!p.has_unique_leader(&[false, false]));
    }

    #[test]
    fn default_environment_is_noop_and_reports_no_oracle() {
        let p = Toggle;
        let mut states = vec![true, false];
        p.environment(&mut states);
        assert_eq!(states, vec![true, false]);
        assert!(!p.uses_oracle());
        assert_eq!(p.name(), "toggle");
    }

    #[test]
    fn count_leaders_in_configuration() {
        let p = Toggle;
        let config = Configuration::from_states(vec![true, true, false]);
        assert_eq!(p.count_leaders_in(&config), 2);
    }

    #[test]
    fn transition_moves_leadership_to_initiator() {
        let p = Toggle;
        let mut a = false;
        let mut b = true;
        p.interact(&mut a, &mut b);
        assert!(a);
        assert!(!b);
    }
}
