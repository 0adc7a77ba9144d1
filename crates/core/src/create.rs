//! `CreateLeader()` — Algorithm 2 — and its helpers `DetermineMode()`
//! (Algorithm 4) and `MoveToken()` (Algorithm 3).
//!
//! Each function keeps the pseudocode's line order, and the comments cite the
//! paper's line numbers so the code can be audited against the paper.  The
//! code is arranged to compile to straight-line code: `move_token` is inlined
//! once per token colour, so the colour is a constant and no token access
//! dispatches on it, the moduli are conditional subtractions, and a step that
//! moves no token of a colour skips that colour's Lines 14–33.  The verbatim
//! transliteration lives on as the reference of
//! `tests/transition_reference.rs`, which pins this code to it.  The two
//! agents of an interaction are always called `l` (initiator, left
//! neighbour) and `r` (responder, right neighbour), as in the paper.
//!
//! The functions expect states with [`PplState::in_domain`]; every
//! production path (the initial-condition families, `sample_uniform`
//! corruption and the transition itself) produces only such states.

use crate::params::Params;
use crate::state::{bullet, Mode, PplState, Token, TokenKind};
use crate::tokens::token_is_invalid;

/// Algorithm 2, `CreateLeader()`.
///
/// Structure (Section 3.1): mode management (Line 3), `dist`/`last`
/// management (Lines 4–9), and segment-ID management through the black and
/// white tokens (Lines 10–11).
pub fn create_leader(params: &Params, l: &mut PplState, r: &mut PplState) {
    // Line 3.
    determine_mode(params, l, r);

    // Line 4: the responder's distance to its nearest left leader, mod 2ψ
    // (`l.dist + 1 ≤ 2ψ`, so one conditional subtraction reduces it).
    let next = l.dist + 1;
    let tmp = if r.leader {
        0
    } else if next >= params.two_psi() {
        next - params.two_psi()
    } else {
        next
    };

    // Lines 5–6: a detection-mode responder that disagrees with the computed
    // distance has found an imperfection — create a leader.
    if r.mode == Mode::Detect && tmp != r.dist {
        r.become_leader();
    }

    // Lines 7–8: a construction-mode responder adopts the computed distance.
    if r.mode == Mode::Construct {
        r.dist = tmp;
    }

    // Line 9: `last` propagates right-to-left.  The initiator is in the last
    // segment iff its right neighbour is the leader, is certainly not in the
    // last segment if its right neighbour starts a new segment (is a border
    // but not a leader), and otherwise copies its right neighbour's flag.
    l.last = if r.leader {
        true
    } else if r.dist == 0 || r.dist == params.psi() {
        false
    } else {
        r.last
    };

    // Lines 10–11.
    move_token(params, l, r, TokenKind::Black);
    move_token(params, l, r, TokenKind::White);
}

/// Algorithm 4, `DetermineMode()`.
///
/// Maintains the leader-absence clock via the lottery game (`hits`) and the
/// leader-generated resetting signals (`signal_R`), and derives the agent
/// mode from the clock (Lines 49–50).
pub fn determine_mode(params: &Params, l: &mut PplState, r: &mut PplState) {
    let psi = params.psi();
    let kappa_max = params.kappa_max();

    // Lines 34–35: a leader (re)generates a resetting signal with full TTL
    // whenever it interacts with its right neighbour.
    if l.leader {
        l.signal_r = kappa_max;
    }

    // Line 36: interacting with the right neighbour resets the initiator's
    // lottery counter; Line 37: the responder gains one hit (capped at ψ).
    l.hits = 0;
    r.hits = (r.hits + 1).min(psi);

    if l.signal_r > 0 || r.signal_r > 0 {
        // Line 39: observing a signal resets both clocks.
        l.clock = 0;
        r.clock = 0;
        // Lines 40–41: if the left signal absorbs the right one, the
        // responder's lottery counter is also reset (an analysis convenience
        // noted in Section 3.3).
        if l.signal_r >= r.signal_r && r.signal_r > 0 {
            r.hits = 0;
        }
        // Line 42: the signal moves right, merging by taking the larger TTL.
        let merged = l.signal_r.max(r.signal_r);
        l.signal_r = 0;
        r.signal_r = merged;
        // Lines 43–45: the signal loses one TTL unit each time its carrier
        // wins the lottery game (ψ consecutive hits).
        if r.hits == psi {
            r.signal_r -= 1;
            r.hits = 0;
        }
    } else if r.hits == psi {
        // Lines 46–48: with no signal in sight, winning the lottery advances
        // the leader-absence clock.
        r.clock = (r.clock + 1).min(kappa_max);
        r.hits = 0;
    }

    // Lines 49–50: the mode is a function of the clock.
    l.mode = mode_of(l.clock, kappa_max);
    r.mode = mode_of(r.clock, kappa_max);
}

/// Lines 49–50: detection mode exactly when the clock is at `κ_max`.
fn mode_of(clock: u32, kappa_max: u32) -> Mode {
    if clock == kappa_max {
        Mode::Detect
    } else {
        Mode::Construct
    }
}

/// Algorithm 3, `MoveToken(token, d)`, applied to the token variable selected
/// by `kind` (black ⇒ `d = 0`, white ⇒ `d = ψ`).
///
/// Expects states with [`PplState::in_domain`] (see the module docs).  It is
/// always inlined, so at each call site `kind` is a constant and every token
/// access goes straight to its field.
#[inline(always)]
pub fn move_token(params: &Params, l: &mut PplState, r: &mut PplState, kind: TokenKind) {
    let psi = params.psi() as i32;
    let d = kind.offset(params);

    // Lines 12–13: a border of the matching colour that is not in the last
    // segment and carries no token creates one, initialised with the first
    // round's value and carry (Step 1):
    // (b', b'') = (1 − b, b)  — i.e. value = ¬b, carry = b.
    if l.dist == d && !l.last && l.token(kind).is_none() {
        *l.token_mut(kind) = Some(Token {
            target_offset: psi,
            value: !l.b,
            carry: l.b,
        });
    }

    // Lines 14–33 act only on tokens of this colour at `l` or `r`.
    if l.token(kind).is_none() && r.token(kind).is_none() {
        return;
    }

    // Lines 14–15: a token at the initiator is destroyed if the responder
    // already has a token of the same kind or belongs to the last segment.
    if l.token(kind).is_some() && (r.token(kind).is_some() || r.last) {
        *l.token_mut(kind) = None;
    }

    let l_tok = l.token(kind);
    let r_tok = r.token(kind);

    if let Some(t) = l_tok.filter(|t| t.target_offset == 1) {
        // Lines 16–22: the right-moving token reaches its target (Step 3).
        if r.mode == Mode::Detect && t.value != r.b {
            // Lines 17–18: mismatch detected — create a leader.
            r.become_leader();
        } else if r.mode == Mode::Construct {
            // Lines 19–20: write the computed bit.
            r.b = t.value;
        }
        // Lines 21–22: the token turns around and heads for the left target
        // ψ−1 positions back (Step 4/5).
        *r.token_mut(kind) = Some(Token {
            target_offset: 1 - psi,
            value: t.value,
            carry: t.carry,
        });
        *l.token_mut(kind) = None;
    } else if let Some(t) = l_tok.filter(|t| t.target_offset >= 2) {
        // Lines 23–25: relay a right-moving token one agent to the right.
        *r.token_mut(kind) = Some(Token {
            target_offset: t.target_offset - 1,
            value: t.value,
            carry: t.carry,
        });
        *l.token_mut(kind) = None;
    } else if let Some(t) = r_tok.filter(|t| t.target_offset == -1) {
        // Lines 26–28: the left-moving token reaches its target (Step 6).
        // It re-initialises (b', b'') from the target's bit and the carry:
        // (1 − b, b) when the carry is set, (b, 0) otherwise, and heads for
        // the next round's right target, ψ positions ahead.
        *l.token_mut(kind) = Some(if t.carry {
            Token {
                target_offset: psi,
                value: !l.b,
                carry: l.b,
            }
        } else {
            Token {
                target_offset: psi,
                value: l.b,
                carry: false,
            }
        });
        *r.token_mut(kind) = None;
    } else if let Some(t) = r_tok.filter(|t| t.target_offset <= -2) {
        // Lines 29–31: relay a left-moving token one agent to the left.
        // (The paper prints `(r.token[1]+1, l.token[2], l.token[3])`, but
        // `l.token` is ⊥ on this path; by symmetry with Lines 23–25 the
        // value and carry travel with the token.  See DESIGN.md §4.)
        *l.token_mut(kind) = Some(Token {
            target_offset: t.target_offset + 1,
            value: t.value,
            carry: t.carry,
        });
        *r.token_mut(kind) = None;
    }

    // Lines 32–33: delete tokens sitting in the last segment and tokens that
    // are outside their trajectory (which includes a token that has just
    // been relayed away from its final destination).
    if l.last || token_is_invalid(l, kind, params) {
        *l.token_mut(kind) = None;
    }
    if r.last || token_is_invalid(r, kind, params) {
        *r.token_mut(kind) = None;
    }
}

/// Algorithm 5, `EliminateLeaders()` (taken verbatim from Yokota, Sudo and
/// Masuzawa 2021 \[28\]; reproduced as Section 3.4).
///
/// Leaders fire bullets at each other; shields and the live/dummy coin flip
/// (driven by scheduler randomness) guarantee that the last leader survives.
pub fn eliminate_leaders(l: &mut PplState, r: &mut PplState) {
    // Lines 51–52: a leader holding a bullet-absence signal that interacts
    // with its *right* neighbour fires a live bullet and raises its shield.
    if l.leader && l.signal_b {
        l.bullet = bullet::LIVE;
        l.shield = true;
        l.signal_b = false;
    }
    // Lines 53–54: a leader holding a bullet-absence signal that interacts
    // with its *left* neighbour fires a dummy bullet and drops its shield.
    if r.leader && r.signal_b {
        r.bullet = bullet::DUMMY;
        r.shield = false;
        r.signal_b = false;
    }

    if l.bullet > bullet::NONE && r.leader {
        // Lines 55–57: the bullet reaches a leader; a live bullet kills an
        // unshielded leader; the bullet disappears either way.
        if l.bullet == bullet::LIVE && !r.shield {
            r.leader = false;
        }
        l.bullet = bullet::NONE;
    } else if l.bullet > bullet::NONE {
        // Lines 58–61: the bullet moves right onto a follower (unless the
        // follower already carries one) and erases any bullet-absence signal
        // it passes.
        if r.bullet == bullet::NONE {
            r.bullet = l.bullet;
        }
        l.bullet = bullet::NONE;
        r.signal_b = false;
    }

    // Line 62: bullet-absence signals propagate right-to-left and are
    // (re)generated at the left neighbour of a leader.
    l.signal_b = l.signal_b || r.signal_b || r.leader;
}

#[cfg(test)]
mod tests {
    use super::*;

    fn params() -> Params {
        Params::new(4, 32)
    }

    // ---------------------------------------------------------------------
    // DetermineMode (Algorithm 4)
    // ---------------------------------------------------------------------

    #[test]
    fn leader_generates_full_ttl_signal_and_it_moves_right() {
        let p = params();
        let mut l = PplState::leader();
        let mut r = PplState::follower();
        determine_mode(&p, &mut l, &mut r);
        // Line 35 then Line 42: the signal is created at l and immediately
        // moved to r.
        assert_eq!(l.signal_r, 0);
        assert_eq!(r.signal_r, p.kappa_max());
        assert_eq!(l.clock, 0);
        assert_eq!(r.clock, 0);
        assert_eq!(l.hits, 0);
        assert_eq!(l.mode, Mode::Construct);
        assert_eq!(r.mode, Mode::Construct);
    }

    #[test]
    fn hits_accumulate_on_responder_and_reset_on_initiator() {
        let p = params();
        let mut l = PplState::follower();
        let mut r = PplState::follower();
        l.hits = 3;
        r.hits = 1;
        determine_mode(&p, &mut l, &mut r);
        assert_eq!(l.hits, 0, "Line 36");
        assert_eq!(r.hits, 2, "Line 37");
    }

    #[test]
    fn hits_are_capped_at_psi_and_win_advances_clock_without_signals() {
        let p = params();
        let mut l = PplState::follower();
        let mut r = PplState::follower();
        r.hits = p.psi() - 1;
        determine_mode(&p, &mut l, &mut r);
        // r.hits reached ψ, no signal anywhere: clock += 1 and hits reset.
        assert_eq!(r.clock, 1, "Lines 46–48");
        assert_eq!(r.hits, 0);
        assert_eq!(r.mode, Mode::Construct);
    }

    #[test]
    fn clock_saturates_at_kappa_max_and_flips_mode_to_detect() {
        let p = params();
        let mut l = PplState::follower();
        let mut r = PplState::follower();
        r.clock = p.kappa_max() - 1;
        r.hits = p.psi() - 1;
        determine_mode(&p, &mut l, &mut r);
        assert_eq!(r.clock, p.kappa_max());
        assert_eq!(r.mode, Mode::Detect, "Lines 49–50");
        // Saturating: another win keeps it at κ_max.
        let mut l2 = PplState::follower();
        r.hits = p.psi() - 1;
        determine_mode(&p, &mut l2, &mut r);
        assert_eq!(r.clock, p.kappa_max());
        assert_eq!(r.mode, Mode::Detect);
    }

    #[test]
    fn signal_resets_clocks_and_decrements_on_lottery_win() {
        let p = params();
        let mut l = PplState::follower();
        let mut r = PplState::follower();
        l.signal_r = 5;
        l.clock = 7;
        r.clock = 9;
        r.hits = p.psi() - 1;
        determine_mode(&p, &mut l, &mut r);
        assert_eq!(l.clock, 0, "Line 39");
        assert_eq!(r.clock, 0, "Line 39");
        // The moved signal loses one TTL because r won the lottery.
        assert_eq!(r.signal_r, 4, "Lines 43–45");
        assert_eq!(l.signal_r, 0);
        assert_eq!(r.hits, 0);
    }

    #[test]
    fn left_signal_absorbs_right_signal_taking_max_ttl() {
        let p = params();
        let mut l = PplState::follower();
        let mut r = PplState::follower();
        l.signal_r = 7;
        r.signal_r = 3;
        r.hits = 2;
        determine_mode(&p, &mut l, &mut r);
        assert_eq!(r.signal_r, 7, "Line 42 takes the max");
        assert_eq!(l.signal_r, 0);
        // Line 41: absorbing resets the responder's hits (it was 3 after the
        // increment, then reset).
        assert_eq!(r.hits, 0);
    }

    #[test]
    fn weaker_left_signal_is_absorbed_by_right_signal() {
        let p = params();
        let mut l = PplState::follower();
        let mut r = PplState::follower();
        l.signal_r = 2;
        r.signal_r = 9;
        r.hits = 0;
        determine_mode(&p, &mut l, &mut r);
        assert_eq!(r.signal_r, 9);
        assert_eq!(l.signal_r, 0);
        // Line 40's condition fails (l < r), so hits keep accumulating.
        assert_eq!(r.hits, 1);
    }

    #[test]
    fn signal_ttl_never_underflows() {
        let p = params();
        // A signal with TTL 1 that loses its last unit disappears cleanly.
        let mut l = PplState::follower();
        let mut r = PplState::follower();
        r.signal_r = 1;
        r.hits = p.psi() - 1;
        determine_mode(&p, &mut l, &mut r);
        assert_eq!(r.signal_r, 0);
    }

    // ---------------------------------------------------------------------
    // CreateLeader (Algorithm 2), dist / last part
    // ---------------------------------------------------------------------

    #[test]
    fn construction_mode_adopts_computed_distance() {
        let p = params();
        let mut l = PplState::follower();
        let mut r = PplState::follower();
        l.dist = 3;
        r.dist = 7;
        create_leader(&p, &mut l, &mut r);
        assert_eq!(r.dist, 4, "Lines 7–8: r.dist = l.dist + 1 mod 2ψ");
        assert!(!r.leader);
    }

    #[test]
    fn distance_wraps_modulo_two_psi() {
        let p = params();
        let mut l = PplState::follower();
        let mut r = PplState::follower();
        l.dist = 7;
        create_leader(&p, &mut l, &mut r);
        assert_eq!(r.dist, 0);
    }

    #[test]
    fn leader_responder_has_distance_zero() {
        let p = params();
        let mut l = PplState::follower();
        let mut r = PplState::leader();
        l.dist = 5;
        r.dist = 3;
        create_leader(&p, &mut l, &mut r);
        assert_eq!(r.dist, 0, "Line 4: tmp = 0 for a leader responder");
        assert!(
            l.last,
            "Line 9: left neighbour of a leader is in the last segment"
        );
    }

    #[test]
    fn detection_mode_mismatch_creates_a_leader() {
        let p = params();
        let mut l = PplState::follower();
        let mut r = PplState::follower();
        l.dist = 2;
        r.dist = 5; // expected 3
        r.mode = Mode::Detect;
        r.clock = p.kappa_max();
        create_leader(&p, &mut l, &mut r);
        assert!(r.leader, "Lines 5–6");
        assert_eq!(r.bullet, bullet::LIVE);
        assert!(r.shield);
        // Detection mode does not overwrite dist (Line 7 guard).
        assert_eq!(r.dist, 5);
    }

    #[test]
    fn detection_mode_with_consistent_distance_does_not_create_a_leader() {
        let p = params();
        let mut l = PplState::follower();
        let mut r = PplState::follower();
        l.dist = 2;
        r.dist = 3;
        r.mode = Mode::Detect;
        r.clock = p.kappa_max();
        create_leader(&p, &mut l, &mut r);
        assert!(!r.leader);
    }

    #[test]
    fn last_flag_cleared_when_right_neighbour_starts_a_new_segment() {
        let p = params();
        let mut l = PplState::follower();
        let mut r = PplState::follower();
        l.last = true;
        l.dist = 3;
        r.dist = 4; // border (ψ), not a leader
                    // Put r in Detect mode so Line 8 does not overwrite r.dist and hide
                    // the case we want (dist stays a border value).
        r.mode = Mode::Detect;
        r.clock = p.kappa_max();
        create_leader(&p, &mut l, &mut r);
        assert!(!l.last, "Line 9 middle case");
    }

    #[test]
    fn last_flag_copies_right_neighbours_flag_otherwise() {
        let p = params();
        let mut l = PplState::follower();
        let mut r = PplState::follower();
        l.dist = 1;
        r.dist = 2;
        r.last = true;
        create_leader(&p, &mut l, &mut r);
        assert!(l.last);
        let mut l2 = PplState::follower();
        let mut r2 = PplState::follower();
        l2.dist = 1;
        r2.dist = 2;
        r2.last = false;
        create_leader(&p, &mut l2, &mut r2);
        assert!(!l2.last);
    }

    // ---------------------------------------------------------------------
    // MoveToken (Algorithm 3)
    // ---------------------------------------------------------------------

    #[test]
    fn black_border_creates_a_black_token() {
        let p = params();
        let mut l = PplState::follower();
        let mut r = PplState::follower();
        l.dist = 0;
        l.b = true;
        r.dist = 1;
        move_token(&p, &mut l, &mut r, TokenKind::Black);
        // Lines 12–13, then Lines 23–25 relay it to r immediately because
        // its offset is ψ ≥ 2.
        let t = r
            .token_b
            .expect("token should have been created and relayed");
        assert_eq!(t.target_offset, p.psi() as i32 - 1);
        assert!(!t.value, "value = 1 − b");
        assert!(t.carry, "carry = b");
        assert!(l.token_b.is_none());
    }

    #[test]
    fn white_border_creates_a_white_token_not_a_black_one() {
        let p = params();
        let mut l = PplState::follower();
        let mut r = PplState::follower();
        l.dist = p.psi();
        r.dist = p.psi() + 1;
        move_token(&p, &mut l, &mut r, TokenKind::Black);
        assert!(l.token_b.is_none());
        assert!(r.token_b.is_none());
        move_token(&p, &mut l, &mut r, TokenKind::White);
        assert!(r.token_w.is_some());
    }

    #[test]
    fn last_segment_borders_do_not_create_tokens() {
        let p = params();
        let mut l = PplState::follower();
        let mut r = PplState::follower();
        l.dist = 0;
        l.last = true;
        r.dist = 1;
        move_token(&p, &mut l, &mut r, TokenKind::Black);
        assert!(l.token_b.is_none());
        assert!(r.token_b.is_none());
    }

    #[test]
    fn token_reaching_target_in_construction_mode_writes_the_bit() {
        let p = params();
        let mut l = PplState::follower();
        let mut r = PplState::follower();
        l.dist = 3;
        r.dist = 4;
        r.b = false;
        l.token_b = Some(Token::new(1, true, true, 4));
        move_token(&p, &mut l, &mut r, TokenKind::Black);
        assert!(r.b, "Lines 19–20 copy b' into the target");
        let t = r.token_b.expect("token turned around");
        assert_eq!(t.target_offset, 1 - p.psi() as i32, "Line 21");
        assert!(t.value);
        assert!(t.carry);
        assert!(l.token_b.is_none());
    }

    #[test]
    fn token_reaching_target_in_detection_mode_checks_the_bit() {
        let p = params();
        // Mismatch: a leader is created, the bit is NOT overwritten.
        let mut l = PplState::follower();
        let mut r = PplState::follower();
        l.dist = 3;
        r.dist = 4;
        r.b = false;
        r.mode = Mode::Detect;
        r.clock = p.kappa_max();
        l.token_b = Some(Token::new(1, true, false, 4));
        move_token(&p, &mut l, &mut r, TokenKind::Black);
        assert!(r.leader, "Lines 17–18");
        assert!(!r.b);
        // Match: nothing happens except the token turning around.
        let mut l2 = PplState::follower();
        let mut r2 = PplState::follower();
        l2.dist = 3;
        r2.dist = 4;
        r2.b = true;
        r2.mode = Mode::Detect;
        r2.clock = p.kappa_max();
        l2.token_b = Some(Token::new(1, true, false, 4));
        move_token(&p, &mut l2, &mut r2, TokenKind::Black);
        assert!(!r2.leader);
        assert!(r2.token_b.is_some());
    }

    #[test]
    fn right_moving_token_is_relayed_right() {
        let p = params();
        let mut l = PplState::follower();
        let mut r = PplState::follower();
        l.dist = 1;
        r.dist = 2;
        l.token_b = Some(Token::new(3, true, false, 4));
        move_token(&p, &mut l, &mut r, TokenKind::Black);
        assert!(l.token_b.is_none());
        let t = r.token_b.unwrap();
        assert_eq!(t.target_offset, 2, "Lines 23–25");
        assert!(t.value);
    }

    #[test]
    fn left_moving_token_is_relayed_left() {
        let p = params();
        let mut l = PplState::follower();
        let mut r = PplState::follower();
        l.dist = 4;
        r.dist = 5;
        r.token_b = Some(Token::new(-3, true, true, 4));
        move_token(&p, &mut l, &mut r, TokenKind::Black);
        assert!(r.token_b.is_none());
        let t = l.token_b.unwrap();
        assert_eq!(t.target_offset, -2, "Lines 29–31");
        assert!(t.value);
        assert!(t.carry);
    }

    #[test]
    fn left_moving_token_reaching_target_restarts_with_carry_increment() {
        let p = params();
        // Carry set: (b', b'') = (1 − l.b, l.b); target offset resets to ψ.
        let mut l = PplState::follower();
        let mut r = PplState::follower();
        l.dist = 1;
        l.b = true;
        r.dist = 2;
        r.token_b = Some(Token::new(-1, false, true, 4));
        move_token(&p, &mut l, &mut r, TokenKind::Black);
        assert!(r.token_b.is_none());
        let t = l.token_b.unwrap();
        assert_eq!(t.target_offset, 4, "Line 27 restarts at ψ");
        assert!(!t.value, "1 − l.b with l.b = 1");
        assert!(t.carry, "carry = l.b");

        // Carry clear: (b', b'') = (l.b, 0).
        let mut l2 = PplState::follower();
        let mut r2 = PplState::follower();
        l2.dist = 1;
        l2.b = true;
        r2.dist = 2;
        r2.token_b = Some(Token::new(-1, false, false, 4));
        move_token(&p, &mut l2, &mut r2, TokenKind::Black);
        let t2 = l2.token_b.unwrap();
        assert!(t2.value);
        assert!(!t2.carry);
    }

    #[test]
    fn colliding_tokens_destroy_the_left_one() {
        let p = params();
        let mut l = PplState::follower();
        let mut r = PplState::follower();
        l.dist = 1;
        r.dist = 2;
        l.token_b = Some(Token::new(3, true, false, 4));
        r.token_b = Some(Token::new(2, false, false, 4));
        move_token(&p, &mut l, &mut r, TokenKind::Black);
        assert!(l.token_b.is_none(), "Lines 14–15");
        // The right token is then relayed... no: the chain sees r's token
        // with offset 2, not −1/−2 — so nothing else happens to it besides
        // staying put (it moves only when r is the initiator).
        assert!(r.token_b.is_some());
    }

    #[test]
    fn token_entering_last_segment_disappears() {
        let p = params();
        let mut l = PplState::follower();
        let mut r = PplState::follower();
        l.dist = 2;
        r.dist = 3;
        r.last = true;
        l.token_b = Some(Token::new(2, true, false, 4));
        move_token(&p, &mut l, &mut r, TokenKind::Black);
        assert!(l.token_b.is_none(), "Lines 14–15: deleted before moving");
        assert!(r.token_b.is_none());
    }

    #[test]
    fn invalid_tokens_are_deleted() {
        let p = params();
        // A right-moving black token whose target lands in the first segment
        // is off-trajectory and must be wiped by Lines 32–33.
        let mut l = PplState::follower();
        let mut r = PplState::follower();
        l.dist = 5;
        r.dist = 6;
        l.token_b = Some(Token::new(4, true, false, 4));
        move_token(&p, &mut l, &mut r, TokenKind::Black);
        assert!(l.token_b.is_none());
        assert!(r.token_b.is_none());
    }

    #[test]
    fn token_at_final_destination_disappears_after_turning() {
        let p = params();
        // Round ψ−1: the token reaches dist 2ψ−1 = 7 with offset 1; after
        // turning around (offset 1−ψ) it is at its final destination and is
        // deleted by Lines 32–33.
        let mut l = PplState::follower();
        let mut r = PplState::follower();
        l.dist = 6;
        r.dist = 7;
        r.b = false;
        l.token_b = Some(Token::new(1, true, false, 4));
        move_token(&p, &mut l, &mut r, TokenKind::Black);
        assert!(r.b, "the final bit is still written");
        assert!(
            r.token_b.is_none(),
            "the token does not survive the final destination"
        );
        assert!(l.token_b.is_none());
    }

    // ---------------------------------------------------------------------
    // EliminateLeaders (Algorithm 5)
    // ---------------------------------------------------------------------

    #[test]
    fn leader_with_signal_fires_live_bullet_as_initiator() {
        let mut l = PplState::leader();
        let mut r = PplState::follower();
        l.signal_b = true;
        l.shield = false;
        eliminate_leaders(&mut l, &mut r);
        // Lines 51–52: live bullet + shield... then Lines 58–61 move the
        // bullet onto the follower responder.
        assert!(l.shield);
        assert!(!l.signal_b);
        assert_eq!(l.bullet, bullet::NONE);
        assert_eq!(r.bullet, bullet::LIVE);
    }

    #[test]
    fn leader_with_signal_fires_dummy_bullet_as_responder() {
        let mut l = PplState::follower();
        let mut r = PplState::leader();
        r.signal_b = true;
        r.shield = true;
        eliminate_leaders(&mut l, &mut r);
        // Lines 53–54: dummy bullet, shield dropped.
        assert_eq!(r.bullet, bullet::DUMMY);
        assert!(!r.shield);
        assert!(!r.signal_b);
        // Line 62: the initiator now carries a bullet-absence signal because
        // its right neighbour is a leader.
        assert!(l.signal_b);
    }

    #[test]
    fn live_bullet_kills_unshielded_leader() {
        let mut l = PplState::follower();
        let mut r = PplState::leader();
        l.bullet = bullet::LIVE;
        r.shield = false;
        eliminate_leaders(&mut l, &mut r);
        assert!(!r.leader, "Lines 55–57");
        assert_eq!(l.bullet, bullet::NONE);
    }

    #[test]
    fn live_bullet_spares_shielded_leader_and_dummy_spares_everyone() {
        let mut l = PplState::follower();
        let mut r = PplState::leader();
        l.bullet = bullet::LIVE;
        r.shield = true;
        eliminate_leaders(&mut l, &mut r);
        assert!(r.leader);
        assert_eq!(l.bullet, bullet::NONE);

        let mut l2 = PplState::follower();
        let mut r2 = PplState::leader();
        l2.bullet = bullet::DUMMY;
        r2.shield = false;
        eliminate_leaders(&mut l2, &mut r2);
        assert!(r2.leader);
        assert_eq!(l2.bullet, bullet::NONE);
    }

    #[test]
    fn bullet_moves_right_and_erases_bullet_absence_signal() {
        let mut l = PplState::follower();
        let mut r = PplState::follower();
        l.bullet = bullet::DUMMY;
        r.signal_b = true;
        eliminate_leaders(&mut l, &mut r);
        assert_eq!(l.bullet, bullet::NONE);
        assert_eq!(r.bullet, bullet::DUMMY);
        assert!(!r.signal_b, "Line 61");
        assert!(
            !l.signal_b,
            "the erased signal does not propagate (Line 62 sees r.signal_B = 0)"
        );
    }

    #[test]
    fn bullet_does_not_overwrite_an_existing_bullet() {
        let mut l = PplState::follower();
        let mut r = PplState::follower();
        l.bullet = bullet::DUMMY;
        r.bullet = bullet::LIVE;
        eliminate_leaders(&mut l, &mut r);
        assert_eq!(r.bullet, bullet::LIVE, "Line 59 keeps the existing bullet");
        assert_eq!(l.bullet, bullet::NONE);
    }

    #[test]
    fn bullet_absence_signal_propagates_leftwards() {
        let mut l = PplState::follower();
        let mut r = PplState::follower();
        r.signal_b = true;
        eliminate_leaders(&mut l, &mut r);
        assert!(l.signal_b, "Line 62");
        assert!(r.signal_b, "the responder keeps its copy");
    }

    #[test]
    fn follower_without_signal_does_not_fire() {
        let mut l = PplState::follower();
        let mut r = PplState::follower();
        l.signal_b = true; // follower with a signal: must NOT fire (Line 51 requires leader)
        eliminate_leaders(&mut l, &mut r);
        assert_eq!(l.bullet, bullet::NONE);
        assert_eq!(r.bullet, bullet::NONE);
    }
}
