//! The protocol `P_PL` (Algorithm 1).
//!
//! [`Ppl`] wires together [`crate::create::create_leader`] (Algorithm 2,
//! which itself calls `DetermineMode` and `MoveToken`) and
//! [`crate::create::eliminate_leaders`] (Algorithm 5) into a single
//! population-protocol transition, exactly as Algorithm 1 does:
//!
//! ```text
//! 1  CreateLeader()       // create a leader when no leader exists
//! 2  EliminateLeaders()   // decrease #leaders to one when #leaders ≥ 2
//! ```

use population::{LeaderElection, Protocol};

use crate::create::{create_leader, eliminate_leaders};
use crate::params::Params;
use crate::state::PplState;

/// The self-stabilizing leader-election protocol `P_PL` for directed rings.
///
/// Given the knowledge `ψ = ⌈log₂ n⌉ + O(1)` (carried by [`Params`]), `P_PL`
/// reaches a safe configuration — exactly one leader, kept forever — within
/// `O(n² log n)` steps w.h.p. and in expectation from *any* initial
/// configuration, using `polylog(n)` states per agent (Theorem 3.1).
///
/// # Examples
///
/// ```
/// use population::{Configuration, DirectedRing, LeaderElection, Simulation};
/// use ssle_core::{Params, Ppl, PplState};
///
/// let n = 16;
/// let params = Params::for_ring(n);
/// let protocol = Ppl::new(params);
/// // Start from the all-followers configuration (no leader anywhere).
/// let config = Configuration::uniform(n, PplState::follower());
/// let mut sim = Simulation::new(protocol, DirectedRing::new(n).unwrap(), config, 7);
/// let report = sim.run_until(
///     |p: &Ppl, c: &Configuration<PplState>| p.has_unique_leader(c.states()),
///     (n * n) as u64,
///     200_000_000,
/// );
/// assert!(report.converged());
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Ppl {
    params: Params,
}

impl Ppl {
    /// Creates the protocol for the given parameters.
    pub fn new(params: Params) -> Self {
        Ppl { params }
    }

    /// Creates the protocol with the canonical parameters for a ring of `n`
    /// agents.
    pub fn for_ring(n: usize) -> Self {
        Ppl {
            params: Params::for_ring(n),
        }
    }

    /// The protocol parameters.
    pub fn params(&self) -> &Params {
        &self.params
    }
}

impl Protocol for Ppl {
    type State = PplState;

    fn interact(&self, initiator: &mut PplState, responder: &mut PplState) {
        // Algorithm 1: CreateLeader() then EliminateLeaders(), applied to the
        // same (l, r) pair within one interaction.
        create_leader(&self.params, initiator, responder);
        eliminate_leaders(initiator, responder);
    }

    fn name(&self) -> &'static str {
        "P_PL (this work)"
    }
}

impl LeaderElection for Ppl {
    fn is_leader(&self, state: &PplState) -> bool {
        state.leader
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use population::{Configuration, DirectedRing, Simulation};
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    use crate::init::{generate, InitialCondition};
    use crate::state::Mode;

    fn sim_from(
        n: usize,
        config: Configuration<PplState>,
        seed: u64,
    ) -> Simulation<Ppl, DirectedRing> {
        let protocol = Ppl::for_ring(n);
        Simulation::new(protocol, DirectedRing::new(n).unwrap(), config, seed)
    }

    #[test]
    fn accessors() {
        let p = Ppl::for_ring(32);
        assert_eq!(p.params().psi(), 5);
        assert_eq!(Protocol::name(&p), "P_PL (this work)");
        assert!(!p.uses_oracle());
        let q = Ppl::new(Params::new(3, 24));
        assert_eq!(q.params().kappa_max(), 24);
    }

    #[test]
    fn leader_output_follows_leader_bit() {
        let p = Ppl::for_ring(8);
        assert!(p.is_leader(&PplState::leader()));
        assert!(!p.is_leader(&PplState::follower()));
    }

    /// The transition keeps every family's states in their domains, which
    /// the division-free reductions in `create` and `tokens` rely on.
    #[test]
    fn states_stay_in_domain_during_execution() {
        let n = 16;
        let params = *Ppl::for_ring(n).params();
        for (seed, condition) in (3u64..).zip(InitialCondition::ALL) {
            let mut sim = sim_from(n, generate(condition, n, &params, seed), 5);
            for _ in 0..200 {
                sim.run_steps(100);
                for s in sim.config().states() {
                    assert!(
                        s.in_domain(&params),
                        "{}: state escaped its domain: {s:?}",
                        condition.name()
                    );
                }
            }
            // Lines 49–50 keep mode consistent with clock for every agent
            // that has interacted at least once; after 20000 steps all have.
            for s in sim.config().states() {
                let expected = if s.clock == params.kappa_max() {
                    Mode::Detect
                } else {
                    Mode::Construct
                };
                assert_eq!(s.mode, expected, "{}", condition.name());
            }
        }
    }

    #[test]
    fn all_followers_eventually_elect_a_leader() {
        // From the no-leader, all-zero configuration the detection machinery
        // must create a leader and the population must settle on exactly one.
        let n = 8;
        let config = Configuration::uniform(n, PplState::follower());
        let mut sim = sim_from(n, config, 11);
        let report = sim.run_until(
            |p: &Ppl, c: &Configuration<PplState>| p.has_unique_leader(c.states()),
            1_000,
            50_000_000,
        );
        assert!(report.converged(), "no unique leader after the step budget");
    }

    #[test]
    fn all_leaders_eventually_reduce_to_one() {
        let n = 8;
        let config = Configuration::uniform(n, PplState::leader());
        let mut sim = sim_from(n, config, 13);
        let report = sim.run_until(
            |p: &Ppl, c: &Configuration<PplState>| p.has_unique_leader(c.states()),
            1_000,
            50_000_000,
        );
        assert!(report.converged());
        // The unique leader then persists (spot-check closure over a long
        // suffix; the full structural safety argument lives in safety.rs).
        let leader_before = sim.protocol().leader_indices(sim.config().states());
        sim.run_steps(200_000);
        assert_eq!(sim.count_leaders(), 1);
        let leader_after = sim.protocol().leader_indices(sim.config().states());
        assert_eq!(
            leader_before, leader_after,
            "the elected leader must not change"
        );
    }

    #[test]
    fn random_configurations_converge_to_a_unique_leader() {
        let n = 12;
        let protocol = Ppl::for_ring(n);
        let params = *protocol.params();
        for seed in 0..3u64 {
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            let config = Configuration::from_fn(n, |_| PplState::sample_uniform(&mut rng, &params));
            let mut sim = sim_from(n, config, seed.wrapping_add(100));
            let report = sim.run_until(
                |p: &Ppl, c: &Configuration<PplState>| p.has_unique_leader(c.states()),
                1_000,
                80_000_000,
            );
            assert!(
                report.converged(),
                "seed {seed} did not reach a unique leader"
            );
        }
    }

    #[test]
    fn interaction_is_deterministic() {
        let p = Ppl::for_ring(16);
        let params = *p.params();
        let mut rng = ChaCha8Rng::seed_from_u64(21);
        for _ in 0..200 {
            let l0 = PplState::sample_uniform(&mut rng, &params);
            let r0 = PplState::sample_uniform(&mut rng, &params);
            let (mut l1, mut r1) = (l0.clone(), r0.clone());
            let (mut l2, mut r2) = (l0, r0);
            p.interact(&mut l1, &mut r1);
            p.interact(&mut l2, &mut r2);
            assert_eq!(l1, l2);
            assert_eq!(r1, r2);
        }
    }
}
