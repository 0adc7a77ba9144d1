//! Baseline \[15\]: Fischer, Jiang 2006 — SS-LE on rings with the eventual
//! leader detector `Ω?` and `O(1)` states.
//!
//! Fischer and Jiang introduced both the oracle `Ω?` (which eventually tells
//! every agent whether a leader exists) and the bullets-and-shields war that
//! Algorithm 5 of the 2023 paper descends from.  Their ring protocol
//! converges in `Θ(n³)` expected steps when the oracle reports instantly
//! (footnote in Section 1 of the 2023 paper).
//!
//! ## Reconstruction notes (see `DESIGN.md` §4)
//!
//! * **Oracle.**  The oracle is simulated exactly the way the `Θ(n³)` bound
//!   assumes: before every interaction each agent's `oracle_no_leader` flag
//!   holds "there is no leader anywhere".  An agent whose flag is set
//!   becomes a leader at its next interaction.  The simulation keeps the
//!   oracle's two answers as counts of leaders and of bullets, updated from
//!   the two touched agents of each step, and rewrites every agent only
//!   when an answer changes — the same configurations as a full scan before
//!   every step, at `O(1)` amortized cost.
//! * **Elimination.**  Leaders fight with live/dummy bullets and shields as
//!   in Algorithm 5, but *without* the bullet-absence signal `signal_B`
//!   (that signal is the 2021/2023 refinement): the oracle also reports
//!   whether any bullet is still in flight, and leaders may fire only when
//!   none is — so firing proceeds in global rounds, each of which requires
//!   every bullet to complete its flight.
//! * The measured convergence exponent of this reconstruction is reported in
//!   `EXPERIMENTS.md` next to the original's `Θ(n³)` bound; the qualitative
//!   Table 1 ordering (slower than \[28\] and this work) is what the benchmark
//!   reproduces.

use population::{Configuration, LeaderElection, Protocol};
use rand::Rng;
use serde::{Deserialize, Serialize};

use ssle_core::state::bullet;

/// Per-agent state of the Fischer–Jiang reconstruction.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct FjState {
    /// Output variable: `true` iff the agent outputs `L`.
    pub leader: bool,
    /// Bullet carried by the agent (`0` none, `1` dummy, `2` live).
    pub bullet: u8,
    /// Whether the agent is shielded.
    pub shield: bool,
    /// Whether the agent is allowed to fire (set by the oracle when no bullet
    /// is in flight anywhere; cleared when the agent fires).
    pub may_fire: bool,
    /// The oracle `Ω?` output as last reported to this agent: `true` means
    /// "no leader exists in the population".
    pub oracle_no_leader: bool,
}

impl FjState {
    /// A clean follower.
    pub fn follower() -> Self {
        FjState {
            leader: false,
            bullet: bullet::NONE,
            shield: false,
            may_fire: false,
            oracle_no_leader: false,
        }
    }

    /// A clean leader (shielded, allowed to fire).
    pub fn leader() -> Self {
        FjState {
            leader: true,
            shield: true,
            may_fire: true,
            ..FjState::follower()
        }
    }

    /// Samples a state uniformly from the state space.
    pub fn sample_uniform<R: Rng + ?Sized>(rng: &mut R) -> Self {
        FjState {
            leader: rng.gen(),
            bullet: rng.gen_range(0..=2),
            shield: rng.gen(),
            may_fire: rng.gen(),
            oracle_no_leader: rng.gen(),
        }
    }
}

/// The Fischer–Jiang reconstruction (oracle + bullets and shields).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FischerJiang;

impl FischerJiang {
    /// Creates the protocol.
    pub fn new() -> Self {
        FischerJiang
    }

    /// Exact number of states per agent: `2⁴ × 3` — the `O(1)` entry of
    /// Table 1.
    pub fn states_per_agent(&self) -> u128 {
        2 * 3 * 2 * 2 * 2
    }
}

impl Protocol for FischerJiang {
    type State = FjState;

    /// The oracle `Ω?` is active on every step.
    const HAS_ENVIRONMENT: bool = true;

    fn interact(&self, l: &mut FjState, r: &mut FjState) {
        // Oracle-triggered creation: an agent told that no leader exists
        // becomes a shielded leader that immediately fires a live bullet
        // (the same entry move as Lines 6/18 of the 2023 paper).
        for v in [&mut *l, &mut *r] {
            if v.oracle_no_leader && !v.leader {
                v.leader = true;
                v.shield = true;
                v.may_fire = false;
                v.bullet = bullet::LIVE;
            }
        }

        // Firing: a leader that the oracle has cleared to fire does so when
        // it interacts, choosing live-and-shielded as the initiator and
        // dummy-and-unshielded as the responder — the same
        // scheduler-randomness coin as Algorithm 5.
        if l.leader && l.may_fire && l.bullet == bullet::NONE {
            l.bullet = bullet::LIVE;
            l.shield = true;
            l.may_fire = false;
        }
        if r.leader && r.may_fire && r.bullet == bullet::NONE {
            r.bullet = bullet::DUMMY;
            r.shield = false;
            r.may_fire = false;
        }

        // Bullet movement and resolution (as in Algorithm 5, Lines 55–60).
        if l.bullet > bullet::NONE && r.leader {
            if l.bullet == bullet::LIVE && !r.shield {
                r.leader = false;
                r.may_fire = false;
            }
            l.bullet = bullet::NONE;
        } else if l.bullet > bullet::NONE {
            if r.bullet == bullet::NONE {
                r.bullet = l.bullet;
            }
            l.bullet = bullet::NONE;
        }
    }

    /// The ideal oracle `Ω?` asks two questions: is there a leader anywhere
    /// (bit 0), and is any bullet still in flight (bit 1, the firing gate
    /// that replaces the 2021/2023 `signal_B` mechanism).
    fn oracle_marks(&self, s: &FjState) -> u8 {
        u8::from(s.leader) | (u8::from(s.bullet != bullet::NONE) << 1)
    }

    /// Reports both answers instantly: the `oracle_no_leader` flag, and a
    /// fire permission once no bullet is in flight.
    fn oracle_apply(&self, view: u8, s: &mut FjState) {
        s.oracle_no_leader = view & 1 == 0;
        if view & 2 == 0 {
            s.may_fire = true;
        }
    }

    fn uses_oracle(&self) -> bool {
        true
    }

    fn name(&self) -> &'static str {
        "[15] Fischer-Jiang 2006 (oracle)"
    }
}

impl LeaderElection for FischerJiang {
    fn is_leader(&self, state: &FjState) -> bool {
        state.leader
    }
}

/// Convergence estimate used by the experiments: exactly one leader and no
/// live bullet threatening it (every live bullet would hit a shielded
/// leader).  Combined with leader-set stability over a long suffix this
/// matches the stability-based measurement described in `EXPERIMENTS.md`.
pub fn has_stable_unique_leader(config: &Configuration<FjState>) -> bool {
    let leaders: Vec<usize> = config.indices_where(|s| s.leader);
    if leaders.len() != 1 {
        return false;
    }
    let n = config.len();
    let leader = leaders[0];
    // Any live bullet will reach the unique leader; it is harmless only if
    // the leader is shielded.
    let live_exists = (0..n).any(|i| config[i].bullet == bullet::LIVE);
    !live_exists || config[leader].shield
}

#[cfg(test)]
mod tests {
    use super::*;
    use population::{Configuration, DirectedRing, Simulation};
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn accessors_and_state_count() {
        let p = FischerJiang::new();
        assert!(p.uses_oracle());
        assert_eq!(p.states_per_agent(), 48);
        assert!(Protocol::name(&p).contains("[15]"));
        assert!(p.is_leader(&FjState::leader()));
        assert!(!p.is_leader(&FjState::follower()));
    }

    #[test]
    fn oracle_reports_absence_to_every_agent() {
        let p = FischerJiang::new();
        let mut states = vec![FjState::follower(); 5];
        p.environment(&mut states);
        assert!(states.iter().all(|s| s.oracle_no_leader));
        assert!(
            states.iter().all(|s| s.may_fire),
            "no bullets: everyone cleared to fire"
        );
        states[2].leader = true;
        states[3].bullet = bullet::DUMMY;
        states.iter_mut().for_each(|s| s.may_fire = false);
        p.environment(&mut states);
        assert!(states.iter().all(|s| !s.oracle_no_leader));
        assert!(
            states.iter().all(|s| !s.may_fire),
            "a bullet in flight blocks new fire permissions"
        );
    }

    #[test]
    fn oracle_flag_triggers_leader_creation() {
        let p = FischerJiang::new();
        let mut l = FjState::follower();
        let mut r = FjState::follower();
        l.oracle_no_leader = true;
        p.interact(&mut l, &mut r);
        assert!(l.leader);
        assert!(l.shield);
    }

    #[test]
    fn live_bullets_kill_unshielded_leaders_but_spare_shielded_ones() {
        let p = FischerJiang::new();
        // Kill.
        let mut l = FjState::follower();
        l.bullet = bullet::LIVE;
        let mut r = FjState::leader();
        r.shield = false;
        r.may_fire = false;
        p.interact(&mut l, &mut r);
        assert!(!r.leader);
        assert_eq!(l.bullet, bullet::NONE);
        // Survive (the bullet is absorbed either way).
        let mut l = FjState::follower();
        l.bullet = bullet::LIVE;
        let mut r = FjState::leader();
        r.shield = true;
        r.may_fire = false;
        p.interact(&mut l, &mut r);
        assert!(r.leader);
        assert_eq!(l.bullet, bullet::NONE);
        assert!(
            !r.may_fire,
            "permission comes from the oracle, not from bullet arrival"
        );
    }

    #[test]
    fn bullets_move_right_over_followers() {
        let p = FischerJiang::new();
        let mut l = FjState::follower();
        l.bullet = bullet::DUMMY;
        let mut r = FjState::follower();
        p.interact(&mut l, &mut r);
        assert_eq!(l.bullet, bullet::NONE);
        assert_eq!(r.bullet, bullet::DUMMY);
    }

    #[test]
    fn fire_permission_produces_live_or_dummy_by_role() {
        let p = FischerJiang::new();
        let mut l = FjState::leader();
        let mut r = FjState::follower();
        p.interact(&mut l, &mut r);
        // Fired live as initiator, bullet moved onto r.
        assert!(l.shield);
        assert!(!l.may_fire);
        assert_eq!(r.bullet, bullet::LIVE);

        let mut l = FjState::follower();
        let mut r = FjState::leader();
        p.interact(&mut l, &mut r);
        assert_eq!(r.bullet, bullet::DUMMY);
        assert!(!r.shield);
    }

    #[test]
    fn converges_with_oracle_from_adversarial_configurations() {
        let n = 16;
        let p = FischerJiang::new();
        let initials: Vec<(&str, Configuration<FjState>)> = vec![
            (
                "all-followers",
                Configuration::uniform(n, FjState::follower()),
            ),
            ("all-leaders", Configuration::uniform(n, FjState::leader())),
            ("random", {
                let mut rng = ChaCha8Rng::seed_from_u64(5);
                Configuration::from_fn(n, |_| FjState::sample_uniform(&mut rng))
            }),
        ];
        for (name, config) in initials {
            let mut sim = Simulation::new(p, DirectedRing::new(n).unwrap(), config, 9);
            let changes = sim.run_tracking_leader_changes(10_000_000);
            assert_eq!(sim.count_leaders(), 1, "{name}: should end with one leader");
            // The leader set must have been stable for a long suffix.
            let last = changes.last().copied().unwrap_or(0);
            assert!(
                sim.steps() - last > 100_000,
                "{name}: leader set still churning near the end"
            );
            assert!(has_stable_unique_leader(sim.config()), "{name}");
        }
    }

    #[test]
    fn stability_predicate() {
        let n = 8;
        let mut c = Configuration::uniform(n, FjState::follower());
        assert!(!has_stable_unique_leader(&c));
        c[2] = FjState::leader();
        assert!(has_stable_unique_leader(&c));
        c[5].bullet = bullet::LIVE;
        assert!(has_stable_unique_leader(&c), "shielded leader survives");
        c[2].shield = false;
        assert!(!has_stable_unique_leader(&c));
        c[3] = FjState::leader();
        assert!(!has_stable_unique_leader(&c));
    }
}
