//! Token validity (Definition 3.3) and trajectory geometry (Figure 2).
//!
//! A black token generated by a black border `u_{iψ}` zig-zags across the
//! segment pair `(S_i, S_{i+1})`: in round `x ∈ [0, ψ−1]` it moves right from
//! `u_{iψ+x}` to the target `u_{iψ+ψ+x}`, then (unless `x = ψ−1`) left to the
//! target `u_{iψ+x+1}`.  White tokens do the same one segment later (their
//! creation border has `dist = ψ`).  A token is **valid** if its target lies
//! on this trajectory, and tokens that leave the trajectory (possible only in
//! adversarial initial configurations) are deleted by Lines 32–33.
//!
//! # Erratum note
//!
//! The `InvalidToken` macro as printed in the paper marks exactly the
//! *on-trajectory* targets as invalid (e.g. a freshly created black token at
//! a border has `(dist + token[1] + d) mod 2ψ = ψ ∈ [ψ, 2ψ−1]`, which the
//! printed condition calls invalid), contradicting the surrounding prose
//! ("a valid token never gets invalid before it reaches its final
//! destination, at which point it disappears") and Figure 2.  We implement
//! the complement, which matches the prose, the figure and the role of
//! Lines 32–33 in deleting a token exactly when it reaches its final
//! destination `u_{iψ+2ψ−1}`.  See `DESIGN.md` §4.1.

use crate::params::Params;
use crate::state::{PplState, Token, TokenKind};

/// The normalised target distance of a token located at an agent with the
/// given `dist`: `(dist + token[1] + d) mod 2ψ`, where `d = 0` for black and
/// `d = ψ` for white tokens.  For a valid token this is the target's `dist`
/// expressed in the *black* frame (white targets are shifted by `ψ` so both
/// kinds can be checked with one rule).
///
/// Expects an in-domain `dist ∈ [0, 2ψ−1]` and token offset (see
/// [`PplState::in_domain`]): the sum then lies in `[1−ψ, 4ψ−1]`, so one
/// `± 2ψ` fix-up reduces it without a division.
#[inline]
pub fn normalized_target_dist(
    agent_dist: u32,
    token: &Token,
    kind: TokenKind,
    params: &Params,
) -> u32 {
    let two_psi = params.two_psi() as i32;
    let sum = agent_dist as i32 + token.target_offset + kind.offset(params) as i32;
    if sum < 0 {
        (sum + two_psi) as u32
    } else if sum >= two_psi {
        (sum - two_psi) as u32
    } else {
        sum as u32
    }
}

/// Definition 3.3 (corrected, see module docs): a token is *invalid* if it is
/// out of its trajectory:
///
/// * right-moving (`token[1] > 0`): invalid iff the normalised target
///   distance is in `[0, ψ−1]` (a right-moving token must aim at the second
///   segment of its pair, whose normalised distances are `[ψ, 2ψ−1]`);
/// * left-moving (`token[1] < 0`): invalid iff the normalised target distance
///   is in `{0} ∪ [ψ, 2ψ−1]` (a left-moving token must aim strictly inside
///   the first segment, at normalised distances `[1, ψ−1]`; a left-moving
///   token whose normalised target is `ψ` has just been relayed from the
///   final destination `u_{iψ+2ψ−1}` and must disappear).
///
/// Expects an agent with [`PplState::in_domain`], like
/// [`normalized_target_dist`].
#[inline]
pub fn token_is_invalid(agent: &PplState, kind: TokenKind, params: &Params) -> bool {
    let Some(token) = agent.token(kind) else {
        return false;
    };
    let target = normalized_target_dist(agent.dist, &token, kind, params);
    let psi = params.psi();
    if token.target_offset > 0 {
        target < psi
    } else {
        target == 0 || target >= psi
    }
}

/// The position (normalised distance within the segment pair, i.e. in
/// `[0, 2ψ−1]`) and round of a valid token, as `(position, round, moving_right)`.
///
/// Returns `None` for invalid tokens.  For a right-moving token in round `x`
/// the target's normalised distance is `ψ + x`; for a left-moving token it is
/// `x + 1` (Section 4.1, "`z` is in the x-th round if its target is
/// `u_{iψ+ψ+x}` or `u_{iψ+x+1}`").
pub fn token_round(agent: &PplState, kind: TokenKind, params: &Params) -> Option<(u32, u32, bool)> {
    if agent.token(kind).is_none() || token_is_invalid(agent, kind, params) {
        return None;
    }
    let token = agent.token(kind).expect("checked above");
    let psi = params.psi();
    let d = kind.offset(params);
    let pos = (agent.dist + params.two_psi() - d) % params.two_psi();
    let target = normalized_target_dist(agent.dist, &token, kind, params);
    if token.target_offset > 0 {
        Some((pos, target - psi, true))
    } else {
        Some((pos, target - 1, false))
    }
}

/// The sequence of (normalised) positions a token visits along its full
/// trajectory, starting at its creation border (position 0) and ending at the
/// final destination `2ψ−1`.  This is exactly the zig-zag of Figure 2 and has
/// length `2ψ² − 2ψ + 1` moves (Definition 3.4).
pub fn trajectory_positions(params: &Params) -> Vec<u32> {
    let psi = params.psi();
    let mut positions = vec![0u32];
    for x in 0..psi {
        // Move right from position (x) up to ψ + x.
        let from = *positions.last().expect("non-empty");
        for p in (from + 1)..=(psi + x) {
            positions.push(p);
        }
        if x + 1 < psi {
            // Move left from ψ + x down to x + 1.
            for p in ((x + 1)..(psi + x)).rev() {
                positions.push(p);
            }
        }
    }
    positions
}

/// Number of moves along the full trajectory (length of
/// [`trajectory_positions`] minus one); equals
/// [`Params::trajectory_length`].
pub fn trajectory_moves(params: &Params) -> u64 {
    (trajectory_positions(params).len() - 1) as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn params() -> Params {
        Params::new(4, 32)
    }

    fn agent_with(dist: u32, token: Token) -> PplState {
        let mut s = PplState::follower();
        s.dist = dist;
        s.token_b = Some(token);
        s
    }

    #[test]
    fn freshly_created_black_token_is_valid() {
        let p = params();
        // Creation (Line 13): offset ψ at a black border (dist = 0).
        let s = agent_with(0, Token::new(4, true, false, 4));
        assert!(!token_is_invalid(&s, TokenKind::Black, &p));
        assert_eq!(
            normalized_target_dist(0, &s.token_b.unwrap(), TokenKind::Black, &p),
            4
        );
        assert_eq!(token_round(&s, TokenKind::Black, &p), Some((0, 0, true)));
    }

    #[test]
    fn freshly_created_white_token_is_valid() {
        let p = params();
        let mut s = PplState::follower();
        s.dist = 4; // white border
        s.token_w = Some(Token::new(4, true, false, 4));
        assert!(!token_is_invalid(&s, TokenKind::White, &p));
        assert_eq!(token_round(&s, TokenKind::White, &p), Some((0, 0, true)));
    }

    #[test]
    fn right_moving_token_along_round_zero_is_valid_everywhere() {
        let p = params();
        // Round 0: token travels from dist 0 to dist 4; at dist j it has
        // offset 4 − j.
        for j in 0..4u32 {
            let s = agent_with(j, Token::new(4 - j as i32, true, false, 4));
            assert!(!token_is_invalid(&s, TokenKind::Black, &p), "dist {j}");
            assert_eq!(token_round(&s, TokenKind::Black, &p), Some((j, 0, true)));
        }
    }

    #[test]
    fn left_moving_token_is_valid_until_final_destination() {
        let p = params();
        // After reaching the round-x right target at dist ψ+x the token is
        // relayed with offset 1−ψ.  For x < ψ−1 that is valid...
        for x in 0..3u32 {
            let s = agent_with(4 + x, Token::new(1 - 4, true, false, 4));
            assert!(!token_is_invalid(&s, TokenKind::Black, &p), "round {x}");
            assert_eq!(
                token_round(&s, TokenKind::Black, &p),
                Some((4 + x, x, false))
            );
        }
        // ...but at the final destination (dist 2ψ−1 = 7) it is invalid and
        // therefore deleted by Lines 32–33, exactly as Step 4 requires.
        let s = agent_with(7, Token::new(1 - 4, true, false, 4));
        assert!(token_is_invalid(&s, TokenKind::Black, &p));
        assert_eq!(token_round(&s, TokenKind::Black, &p), None);
    }

    #[test]
    fn off_trajectory_tokens_are_invalid() {
        let p = params();
        // A right-moving black token whose target would land in the first
        // segment (normalised dist < ψ) is out of trajectory.
        let s = agent_with(6, Token::new(3, true, false, 4)); // target dist 1
        assert!(token_is_invalid(&s, TokenKind::Black, &p));
        // A left-moving token aiming at a border (normalised dist 0).
        let s = agent_with(2, Token::new(-2, true, false, 4));
        assert!(token_is_invalid(&s, TokenKind::Black, &p));
        // A left-moving token aiming into the second segment.
        let s = agent_with(7, Token::new(-2, true, false, 4)); // target 5
        assert!(token_is_invalid(&s, TokenKind::Black, &p));
    }

    #[test]
    fn white_tokens_use_the_shifted_frame() {
        let p = params();
        // A white token at dist 6 (= ψ + 2, i.e. position 2 of its pair)
        // moving right with offset 2 aims at dist 0 — the second segment of
        // the *white* pair — and must be valid.
        let mut s = PplState::follower();
        s.dist = 6;
        s.token_w = Some(Token::new(2, false, false, 4));
        assert!(!token_is_invalid(&s, TokenKind::White, &p));
        assert_eq!(token_round(&s, TokenKind::White, &p), Some((2, 0, true)));
        // The same token interpreted as black would be off-trajectory.
        let mut sb = PplState::follower();
        sb.dist = 6;
        sb.token_b = Some(Token::new(2, false, false, 4));
        assert!(token_is_invalid(&sb, TokenKind::Black, &p));
    }

    #[test]
    fn absent_token_is_never_invalid() {
        let p = params();
        let s = PplState::follower();
        assert!(!token_is_invalid(&s, TokenKind::Black, &p));
        assert!(!token_is_invalid(&s, TokenKind::White, &p));
        assert_eq!(token_round(&s, TokenKind::Black, &p), None);
    }

    #[test]
    fn trajectory_has_the_length_of_definition_3_4() {
        for psi in 2..10u32 {
            let p = Params::new(psi, 32 * psi);
            assert_eq!(trajectory_moves(&p), p.trajectory_length(), "psi = {psi}");
        }
    }

    #[test]
    fn trajectory_is_the_figure_2_zigzag() {
        // For ψ = 4 (the figure's value) the trajectory visits positions
        // 0..4, back to 1, up to 5, back to 2, up to 6, back to 3, up to 7.
        let p = params();
        let pos = trajectory_positions(&p);
        assert_eq!(pos.first(), Some(&0));
        assert_eq!(pos.last(), Some(&7));
        // Peaks are ψ+x for x = 0..ψ−1, valleys are x+1.
        let peaks: Vec<u32> = pos
            .windows(3)
            .filter(|w| w[1] > w[0] && w[1] > w[2])
            .map(|w| w[1])
            .collect();
        assert_eq!(peaks, vec![4, 5, 6]);
        // Every consecutive pair differs by exactly one position.
        assert!(pos.windows(2).all(|w| w[0].abs_diff(w[1]) == 1));
        // All positions stay within the pair.
        assert!(pos.iter().all(|&x| x < 8));
    }
}
