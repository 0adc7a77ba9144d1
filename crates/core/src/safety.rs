//! The safe-configuration hierarchy of Section 4.1.
//!
//! * [`peaceful`] — a live bullet is *peaceful* when its nearest left leader
//!   is shielded and no bullet-absence signal sits between them; a peaceful
//!   bullet can never kill the last leader.
//! * [`in_c_pb`] — `C_PB`: at least one leader and every live bullet is
//!   peaceful.  `C_PB` is closed (Lemma 4.1) and contained in `C_NZ`
//!   (Lemma 4.2).
//! * [`in_c_dl`] — `C_DL`: `C_PB ∩ L_1` with `dist` and `last` correctly
//!   computed relative to the unique leader.
//! * [`token_is_correct`] — Definition 4.3: the token's value and carry agree
//!   with the running binary increment of its first segment's ID.
//! * [`in_s_pl`] — `S_PL` (Definition 4.6): `C_DL`, all tokens valid and
//!   correct, and consecutive segment IDs.  Every configuration in `S_PL` is
//!   safe (Lemma 4.7), so the convergence time measured by the experiments is
//!   the first step at which [`in_s_pl`] holds.

use population::Configuration;

use crate::params::Params;
use crate::segments::{segment_id, segments};
use crate::state::{bullet, PplState, TokenKind};
use crate::tokens::{token_is_invalid, token_round};

/// The distance from agent `i` to its nearest left (counter-clockwise)
/// leader, `d_LL(i)`; `None` when the configuration has no leader.
pub fn dist_to_left_leader(config: &Configuration<PplState>, i: usize) -> Option<usize> {
    let n = config.len();
    (0..n).find(|&j| config[(i + n - j % n) % n].leader)
}

/// The distance from agent `i` to its nearest right (clockwise) leader,
/// `d_RL(i)`; `None` when the configuration has no leader.
pub fn dist_to_right_leader(config: &Configuration<PplState>, i: usize) -> Option<usize> {
    let n = config.len();
    (0..n).find(|&j| config[(i + j) % n].leader)
}

/// The `Peaceful(i)` predicate of Section 4.1 for a live bullet located at
/// agent `i`: the nearest left leader exists and is shielded, and no agent on
/// the counter-clockwise path from the bullet to that leader (inclusive)
/// carries a bullet-absence signal.
pub fn peaceful(config: &Configuration<PplState>, i: usize) -> bool {
    let n = config.len();
    let Some(d) = dist_to_left_leader(config, i) else {
        return false;
    };
    if !config[(i + n - d % n) % n].shield {
        return false;
    }
    (0..=d).all(|j| !config[(i + n - j % n) % n].signal_b)
}

/// `C_PB`: at least one leader and every live bullet is peaceful.
pub fn in_c_pb(config: &Configuration<PplState>) -> bool {
    if !config.states().iter().any(|s| s.leader) {
        return false;
    }
    (0..config.len()).all(|i| config[i].bullet != bullet::LIVE || peaceful(config, i))
}

/// `C_NoLB`: no live bullet anywhere (used by Lemma 4.8).
pub fn in_c_no_lb(config: &Configuration<PplState>) -> bool {
    config.states().iter().all(|s| s.bullet != bullet::LIVE)
}

/// `C_NoBAS`: no bullet-absence signal anywhere (used by Lemma 4.8).
pub fn in_c_no_bas(config: &Configuration<PplState>) -> bool {
    config.states().iter().all(|s| !s.signal_b)
}

/// The index of the unique leader, or `None` if there is not exactly one.
pub fn unique_leader(config: &Configuration<PplState>) -> Option<usize> {
    let leaders: Vec<usize> = config.indices_where(|s| s.leader);
    if leaders.len() == 1 {
        Some(leaders[0])
    } else {
        None
    }
}

/// `C_DL`: `C_PB`, exactly one leader, and `dist`/`last` correctly computed:
/// with the leader relabelled as `u_0`, `u_i.dist = i mod 2ψ` and
/// `u_i.last = 1 ⇔ i ∈ [ψ(ζ−1), n−1]`.
pub fn in_c_dl(config: &Configuration<PplState>, params: &Params) -> bool {
    let Some(leader) = unique_leader(config) else {
        return false;
    };
    if !in_c_pb(config) {
        return false;
    }
    let n = config.len();
    let psi = params.psi() as usize;
    let zeta = params.num_segments(n);
    (0..n).all(|k| {
        let s = &config[(leader + k) % n];
        s.dist == (k % (2 * psi)) as u32 && s.last == (k >= psi * (zeta - 1))
    })
}

/// Definition 4.3 (operational form): a valid token in round `x`, working for
/// the segment pair whose first segment starts `pos` agents counter-clockwise
/// of the token's location, is *correct* when its carry equals the binary
/// increment's carry out of position `x` and its value equals the increment's
/// result bit at position `x`, both computed from the first segment's current
/// `b` bits.
///
/// (The printed Definition 4.3 states the carry condition as `x ≤ j`; the
/// tokens actually produced by Algorithm 3 carry the *next* position's carry,
/// i.e. `x < j` — see the creation rule of Step 1.  We implement the
/// operational version, which is the one preserved by the protocol and
/// required for Lemma 4.4's conclusion that `token[2]` is bit `x` of
/// `ι(S_i) + 1`.)
pub fn token_is_correct(
    config: &Configuration<PplState>,
    agent_index: usize,
    kind: TokenKind,
    params: &Params,
) -> bool {
    let n = config.len();
    let agent = &config[agent_index];
    let Some(token) = agent.token(kind) else {
        return true;
    };
    let Some((pos, x, _moving_right)) = token_round(agent, kind, params) else {
        return false; // invalid tokens are never correct
    };
    let psi = params.psi() as usize;
    // Absolute index of the border starting the pair's first segment.
    let pair_start = (agent_index + n - (pos as usize) % n) % n;
    // First-segment bits b_0 .. b_{ψ−1}.
    let bit = |m: usize| config[(pair_start + m) % n].b;
    // j = min index with b_j = 0, or ψ if none.
    let j = (0..psi).find(|&m| !bit(m)).unwrap_or(psi) as u32;
    // carry into position x is 1 iff bits 0..x−1 are all ones (x ≤ j);
    // carry out of position x is 1 iff bits 0..x are all ones (x < j).
    let carry_in = x <= j;
    let carry_out = x < j;
    token.carry == carry_out && token.value == (bit(x as usize) ^ carry_in)
}

/// Returns `true` if every token in the configuration is valid
/// (Definition 3.3) and correct (Definition 4.3).
pub fn all_tokens_valid_and_correct(config: &Configuration<PplState>, params: &Params) -> bool {
    (0..config.len()).all(|i| {
        TokenKind::BOTH.iter().all(|&kind| {
            config[i].token(kind).is_none()
                || (!token_is_invalid(&config[i], kind, params)
                    && token_is_correct(config, i, kind, params))
        })
    })
}

/// Segment-ID condition of `S_PL`: with the leader relabelled as `u_0` and
/// the canonical segments `S_i = u_{iψ}, ..., u_{iψ+ψ−1}`,
/// `ι(S_{i+1}) = ι(S_i) + 1 (mod 2^ψ)` holds for every `i ∈ [0, ζ−3]`.
pub fn canonical_segment_ids_consecutive(
    config: &Configuration<PplState>,
    params: &Params,
) -> bool {
    let Some(leader) = unique_leader(config) else {
        return false;
    };
    let n = config.len();
    let zeta = params.num_segments(n);
    if zeta < 3 {
        return true;
    }
    let rotated = config.rotated(leader);
    let segs = segments(&rotated, params);
    // In C_DL the canonical segments are exactly the structural segments, in
    // order, starting at index 0.
    if segs.len() != zeta || segs[0].start != 0 {
        return false;
    }
    let modulus = params.id_modulus();
    (0..=zeta - 3).all(|i| {
        segment_id(&rotated, &segs[i + 1]) == (segment_id(&rotated, &segs[i]) + 1) % modulus
    })
}

/// `S_PL` (Definition 4.6): `C_DL`, all tokens valid and correct, and
/// consecutive canonical segment IDs.  Lemma 4.7: every configuration in
/// `S_PL` is safe, and `S_PL` is closed.
pub fn in_s_pl(config: &Configuration<PplState>, params: &Params) -> bool {
    in_c_dl(config, params)
        && all_tokens_valid_and_correct(config, params)
        && canonical_segment_ids_consecutive(config, params)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::Ppl;
    use crate::segments::perfect_configuration;
    use crate::state::Token;
    use population::{Configuration, DirectedRing, LeaderElection, Simulation};

    fn params() -> Params {
        Params::new(4, 32)
    }

    fn perfect(n: usize) -> (Params, Configuration<PplState>) {
        let p = Params::for_ring(n);
        (p, perfect_configuration(n, &p, 0, 0))
    }

    #[test]
    fn leader_distances() {
        let p = params();
        let mut c = perfect_configuration(12, &p, 4, 0);
        assert_eq!(dist_to_left_leader(&c, 4), Some(0));
        assert_eq!(dist_to_left_leader(&c, 6), Some(2));
        assert_eq!(dist_to_right_leader(&c, 6), Some(10));
        assert_eq!(dist_to_left_leader(&c, 3), Some(11));
        c.map_in_place(|_, s| s.leader = false);
        assert_eq!(dist_to_left_leader(&c, 3), None);
        assert_eq!(dist_to_right_leader(&c, 3), None);
    }

    #[test]
    fn peaceful_bullets() {
        let p = params();
        let mut c = perfect_configuration(12, &p, 0, 0);
        // A live bullet at agent 5; the leader (agent 0) is shielded by
        // construction and no bullet-absence signals exist: peaceful.
        c[5].bullet = bullet::LIVE;
        assert!(peaceful(&c, 5));
        assert!(in_c_pb(&c));
        // A bullet-absence signal strictly between the leader and the bullet
        // makes it non-peaceful.
        c[3].signal_b = true;
        assert!(!peaceful(&c, 5));
        assert!(!in_c_pb(&c));
        c[3].signal_b = false;
        // An unshielded leader also makes it non-peaceful.
        c[0].shield = false;
        assert!(!peaceful(&c, 5));
        c[0].shield = true;
        // A signal *behind* the bullet (clockwise of it) is irrelevant.
        c[7].signal_b = true;
        assert!(peaceful(&c, 5));
    }

    #[test]
    fn c_pb_requires_a_leader_and_only_constrains_live_bullets() {
        let p = params();
        let mut c = perfect_configuration(12, &p, 0, 0);
        assert!(in_c_pb(&c));
        // Dummy bullets are unconstrained.
        c[5].bullet = bullet::DUMMY;
        c[2].signal_b = true;
        assert!(in_c_pb(&c));
        // No leader at all: not in C_PB.
        c.map_in_place(|_, s| s.leader = false);
        assert!(!in_c_pb(&c));
    }

    #[test]
    fn no_live_bullet_and_no_bas_sets() {
        let p = params();
        let mut c = perfect_configuration(12, &p, 0, 0);
        assert!(in_c_no_lb(&c));
        assert!(in_c_no_bas(&c));
        c[4].bullet = bullet::DUMMY;
        assert!(in_c_no_lb(&c));
        c[4].bullet = bullet::LIVE;
        assert!(!in_c_no_lb(&c));
        c[6].signal_b = true;
        assert!(!in_c_no_bas(&c));
    }

    #[test]
    fn unique_leader_detection() {
        let p = params();
        let mut c = perfect_configuration(9, &p, 2, 0);
        assert_eq!(unique_leader(&c), Some(2));
        c[5].leader = true;
        assert_eq!(unique_leader(&c), None);
        c[5].leader = false;
        c[2].leader = false;
        assert_eq!(unique_leader(&c), None);
    }

    #[test]
    fn perfect_configurations_are_in_c_dl_and_s_pl() {
        for n in [6usize, 9, 12, 16, 23, 32] {
            let p = Params::for_ring(n);
            for leader_at in [0usize, 3 % n, n - 1] {
                let c = perfect_configuration(n, &p, leader_at, 5);
                assert!(in_c_pb(&c), "n={n}");
                assert!(in_c_dl(&c, &p), "n={n} leader_at={leader_at}");
                assert!(all_tokens_valid_and_correct(&c, &p));
                assert!(canonical_segment_ids_consecutive(&c, &p));
                assert!(in_s_pl(&c, &p), "n={n} leader_at={leader_at}");
            }
        }
    }

    #[test]
    fn breaking_dist_or_last_leaves_c_dl() {
        let (p, mut c) = perfect(12);
        assert!(in_c_dl(&c, &p));
        c[5].dist += 1;
        assert!(!in_c_dl(&c, &p));
        let (p, mut c) = perfect(12);
        c[11].last = false;
        assert!(!in_c_dl(&c, &p));
        let (p, mut c) = perfect(12);
        c[1].last = true;
        assert!(!in_c_dl(&c, &p));
    }

    #[test]
    fn two_leaders_are_not_in_c_dl() {
        let (p, mut c) = perfect(12);
        c[6].leader = true;
        c[6].shield = true;
        assert!(!in_c_dl(&c, &p));
        assert!(!in_s_pl(&c, &p));
    }

    #[test]
    fn breaking_segment_ids_leaves_s_pl_but_not_c_dl() {
        let (p, mut c) = perfect(32);
        assert!(in_s_pl(&c, &p));
        // Flip a bit in a middle segment: still C_DL (dist/last untouched)
        // but no longer S_PL.
        let psi = p.psi() as usize;
        let idx = 2 * psi + 1; // inside the third segment
        c[idx].b = !c[idx].b;
        assert!(in_c_dl(&c, &p));
        assert!(!in_s_pl(&c, &p));
    }

    #[test]
    fn correct_and_incorrect_tokens() {
        let (p, mut c) = perfect(32);
        let psi = p.psi() as i32;
        // A freshly created token at the black border u_0 (the leader):
        // value = ¬b_0, carry = b_0, offset ψ — correct by construction.
        let b0 = c[0].b;
        c[0].token_b = Some(Token::new(psi, !b0, b0, p.psi()));
        assert!(token_is_correct(&c, 0, TokenKind::Black, &p));
        assert!(all_tokens_valid_and_correct(&c, &p));
        assert!(in_s_pl(&c, &p));
        // Flipping its value makes it incorrect.
        c[0].token_b = Some(Token::new(psi, b0, b0, p.psi()));
        assert!(!token_is_correct(&c, 0, TokenKind::Black, &p));
        assert!(!in_s_pl(&c, &p));
        // An invalid token is also "not correct".
        c[0].token_b = None;
        c[1].token_b = Some(Token::new(-2, false, false, p.psi()));
        assert!(token_is_invalid(&c[1], TokenKind::Black, &p));
        assert!(!token_is_correct(&c, 1, TokenKind::Black, &p));
        assert!(!all_tokens_valid_and_correct(&c, &p));
    }

    #[test]
    fn token_correctness_follows_the_binary_increment() {
        // Build a perfect configuration and place a correct round-x token by
        // simulating the increment by hand.
        let (p, mut c) = perfect(32);
        let psi = p.psi() as usize;
        // Work with the pair (S_2, S_3) (black, pair_start = 4ψ... for psi=5
        // n=32: use pair starting at absolute index 2ψ = 10? That is white.)
        // Use the black pair starting at index 0 for simplicity but place the
        // token mid-flight in round x = 2.
        let bits: Vec<bool> = (0..psi).map(|m| c[m].b).collect();
        let j = bits.iter().position(|&b| !b).unwrap_or(psi);
        let x = 2usize.min(psi - 1);
        let carry_in = x <= j;
        let carry_out = x < j;
        let value = bits[x] ^ carry_in;
        // Right-moving in round x, located at position x+1 (offset ψ−1).
        let mut s = PplState::follower();
        s.dist = (x + 1) as u32;
        s.b = c[x + 1].b;
        s.last = c[x + 1].last;
        s.token_b = Some(Token::new(p.psi() as i32 - 1, value, carry_out, p.psi()));
        c[x + 1] = s;
        assert!(token_is_correct(&c, x + 1, TokenKind::Black, &p));
        // The wrong carry is rejected.
        c[x + 1].token_b = Some(Token::new(p.psi() as i32 - 1, value, !carry_out, p.psi()));
        assert!(!token_is_correct(&c, x + 1, TokenKind::Black, &p));
    }

    #[test]
    fn s_pl_is_empirically_closed_under_the_protocol() {
        // Lemma 4.7: starting from a configuration in S_PL, the execution
        // stays in S_PL (and therefore keeps the same unique leader).
        let n = 24;
        let p = Params::for_ring(n);
        let c = perfect_configuration(n, &p, 7, 3);
        assert!(in_s_pl(&c, &p));
        let protocol = Ppl::new(p);
        let mut sim = Simulation::new(protocol, DirectedRing::new(n).unwrap(), c, 42);
        for _ in 0..60 {
            sim.run_steps(5_000);
            assert!(
                in_s_pl(sim.config(), &p),
                "left S_PL after {} steps",
                sim.steps()
            );
            assert_eq!(
                sim.protocol().leader_indices(sim.config().states()),
                vec![7],
                "the unique leader moved or was duplicated"
            );
        }
    }
}
