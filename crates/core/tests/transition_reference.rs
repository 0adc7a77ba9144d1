//! Differential pin of `P_PL`'s transition against a frozen reference.
//!
//! `reference` below is the straightforward transliteration of Algorithms
//! 2–5 and Definition 3.3 that `create.rs` and `tokens.rs` used to contain,
//! copied verbatim (runtime colour dispatch, `% 2ψ`, `i64::rem_euclid`).  The
//! production code is rewritten for speed; these tests require it to produce
//! exactly the reference's states:
//!
//! * exhaustively per sub-procedure, over every value of the fields it reads
//!   (`move_token` per colour and `determine_mode` at three small `Params`,
//!   `eliminate_leaders` over all 576 pairs, Definition 3.3 over every
//!   in-domain token for ψ ∈ 2..=20);
//! * on random whole state pairs from `PplState::sample_uniform`;
//! * along typed simulations from every initial-condition family.
//!
//! The loops are sized by `cfg!(debug_assertions)`: the release run
//! (`cargo test --release -p ssle-core --test transition_reference`) checks
//! 10⁷ random pairs, the debug run a twentieth of that.

use population::{Configuration, DirectedRing, Protocol, Simulation};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use ssle_core::create::{determine_mode, eliminate_leaders, move_token};
use ssle_core::init::generate;
use ssle_core::state::bullet;
use ssle_core::tokens::{normalized_target_dist, token_is_invalid};
use ssle_core::{InitialCondition, Mode, Params, Ppl, PplState, Token, TokenKind};

/// The pre-optimisation `create.rs` and `tokens.rs` function bodies.
mod reference {
    use ssle_core::state::{bullet, Mode, PplState, Token, TokenKind};
    use ssle_core::Params;

    pub fn create_leader(params: &Params, l: &mut PplState, r: &mut PplState) {
        // Line 3.
        determine_mode(params, l, r);

        // Line 4: the responder's distance to its nearest left leader, mod 2ψ.
        let tmp = if r.leader {
            0
        } else {
            (l.dist + 1) % params.two_psi()
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
        for v in [&mut *l, &mut *r] {
            v.mode = if v.clock == kappa_max {
                Mode::Detect
            } else {
                Mode::Construct
            };
        }
    }

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
        for v in [&mut *l, &mut *r] {
            if v.token(kind).is_some() && (v.last || token_is_invalid(v, kind, params)) {
                *v.token_mut(kind) = None;
            }
        }
    }

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

    pub fn normalized_target_dist(
        agent_dist: u32,
        token: &Token,
        kind: TokenKind,
        params: &Params,
    ) -> u32 {
        let two_psi = params.two_psi() as i64;
        let d = kind.offset(params) as i64;
        (agent_dist as i64 + token.target_offset as i64 + d).rem_euclid(two_psi) as u32
    }

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
}

/// `P_PL` with the reference transition: Algorithm 1 over [`reference`].
#[derive(Clone, Copy, Debug)]
struct RefPpl {
    params: Params,
}

impl Protocol for RefPpl {
    type State = PplState;

    fn interact(&self, initiator: &mut PplState, responder: &mut PplState) {
        reference::create_leader(&self.params, initiator, responder);
        reference::eliminate_leaders(initiator, responder);
    }
}

/// Release runs check the full sizes; debug runs, over ten times slower
/// per step, check a twentieth of them.
fn scaled(release: u64) -> u64 {
    if cfg!(debug_assertions) {
        release / 20
    } else {
        release
    }
}

/// The three small parameter sets the exhaustive checks run at.
fn small_params() -> [Params; 3] {
    [Params::new(2, 2), Params::new(2, 4), Params::new(3, 6)]
}

/// Every in-domain token value: `[−ψ+1,−1] ∪ [1,ψ]` × value × carry.
fn all_tokens(psi: u32) -> Vec<Token> {
    let psi = psi as i32;
    let mut tokens = Vec::new();
    for target_offset in (1 - psi..=psi).filter(|&o| o != 0) {
        for value in [false, true] {
            for carry in [false, true] {
                tokens.push(Token {
                    target_offset,
                    value,
                    carry,
                });
            }
        }
    }
    tokens
}

/// Applies `f` to clones of `(l, r)` and returns the results.
fn applied(
    l: &PplState,
    r: &PplState,
    f: impl Fn(&mut PplState, &mut PplState),
) -> (PplState, PplState) {
    let (mut l, mut r) = (l.clone(), r.clone());
    f(&mut l, &mut r);
    (l, r)
}

/// Every agent state that differs in a field `move_token(kind)` reads:
/// `dist`, `last`, `b`, `mode` and the token of colour `kind`.  The other
/// colour's slot holds a fixed token, so a write to it would show.
fn move_token_agents(params: &Params, kind: TokenKind) -> Vec<PplState> {
    let tokens: Vec<Option<Token>> = std::iter::once(None)
        .chain(all_tokens(params.psi()).into_iter().map(Some))
        .collect();
    let other = Some(Token::new(1, true, false, params.psi()));
    let mut agents = Vec::new();
    for dist in 0..params.two_psi() {
        for last in [false, true] {
            for b in [false, true] {
                for mode in [Mode::Detect, Mode::Construct] {
                    for &token in &tokens {
                        let mut s = PplState::follower();
                        s.dist = dist;
                        s.last = last;
                        s.b = b;
                        s.mode = mode;
                        match kind {
                            TokenKind::Black => (s.token_b, s.token_w) = (token, other),
                            TokenKind::White => (s.token_b, s.token_w) = (other, token),
                        }
                        agents.push(s);
                    }
                }
            }
        }
    }
    agents
}

#[test]
fn move_token_matches_the_reference_exhaustively() {
    for params in small_params() {
        for kind in TokenKind::BOTH {
            let agents = move_token_agents(&params, kind);
            for l in &agents {
                for r in &agents {
                    assert_eq!(
                        applied(l, r, |l, r| move_token(&params, l, r, kind)),
                        applied(l, r, |l, r| reference::move_token(&params, l, r, kind)),
                        "move_token({kind:?}) at {params:?} on\n  l = {l:?}\n  r = {r:?}"
                    );
                }
            }
        }
    }
}

#[test]
fn determine_mode_matches_the_reference_exhaustively() {
    for params in small_params() {
        // Every value of the fields Algorithm 4 reads.
        let mut agents = Vec::new();
        for leader in [false, true] {
            for signal_r in 0..=params.kappa_max() {
                for hits in 0..=params.psi() {
                    for clock in 0..=params.kappa_max() {
                        let mut s = PplState::follower();
                        s.leader = leader;
                        s.signal_r = signal_r;
                        s.hits = hits;
                        s.clock = clock;
                        agents.push(s);
                    }
                }
            }
        }
        for l in &agents {
            for r in &agents {
                assert_eq!(
                    applied(l, r, |l, r| determine_mode(&params, l, r)),
                    applied(l, r, |l, r| reference::determine_mode(&params, l, r)),
                    "determine_mode at {params:?} on\n  l = {l:?}\n  r = {r:?}"
                );
            }
        }
    }
}

#[test]
fn eliminate_leaders_matches_the_reference_exhaustively() {
    let mut agents = Vec::new();
    for leader in [false, true] {
        for signal_b in [false, true] {
            for bullet in [bullet::NONE, bullet::DUMMY, bullet::LIVE] {
                for shield in [false, true] {
                    let mut s = PplState::follower();
                    s.leader = leader;
                    s.signal_b = signal_b;
                    s.bullet = bullet;
                    s.shield = shield;
                    agents.push(s);
                }
            }
        }
    }
    let mut pairs = 0;
    for l in &agents {
        for r in &agents {
            assert_eq!(
                applied(l, r, eliminate_leaders),
                applied(l, r, reference::eliminate_leaders),
                "eliminate_leaders on\n  l = {l:?}\n  r = {r:?}"
            );
            pairs += 1;
        }
    }
    assert_eq!(pairs, 576);
}

/// Definition 3.3 against the frozen `rem_euclid` formula over every
/// in-domain `(dist, target_offset, kind)`.  `safety::in_s_pl` reads
/// `token_is_invalid`, so this pins its verdicts too.
#[test]
fn token_validity_matches_the_rem_euclid_formula() {
    for psi in 2..=20 {
        let params = Params::new(psi, psi);
        for kind in TokenKind::BOTH {
            for dist in 0..params.two_psi() {
                for token in all_tokens(psi).into_iter().filter(|t| !t.value && !t.carry) {
                    assert_eq!(
                        normalized_target_dist(dist, &token, kind, &params),
                        reference::normalized_target_dist(dist, &token, kind, &params),
                        "ψ = {psi}, {kind:?}, dist {dist}, {token:?}"
                    );
                    let mut agent = PplState::follower();
                    agent.dist = dist;
                    *agent.token_mut(kind) = Some(token);
                    assert_eq!(
                        token_is_invalid(&agent, kind, &params),
                        reference::token_is_invalid(&agent, kind, &params),
                        "ψ = {psi}, {kind:?}, dist {dist}, {token:?}"
                    );
                }
            }
        }
    }
}

#[test]
fn random_state_pairs_match_the_reference() {
    let pairs_per_size = scaled(2_500_000);
    for (i, n) in [4usize, 64, 4096, 1 << 20].into_iter().enumerate() {
        let params = Params::for_ring(n);
        let (ppl, reference) = (Ppl::new(params), RefPpl { params });
        let mut rng = ChaCha8Rng::seed_from_u64(0x5EED + i as u64);
        for _ in 0..pairs_per_size {
            let l = PplState::sample_uniform(&mut rng, &params);
            let r = PplState::sample_uniform(&mut rng, &params);
            assert_eq!(
                applied(&l, &r, |l, r| ppl.interact(l, r)),
                applied(&l, &r, |l, r| reference.interact(l, r)),
                "n = {n} on\n  l = {l:?}\n  r = {r:?}"
            );
        }
    }
}

#[test]
fn simulations_match_the_reference_from_every_family() {
    for (n, steps) in [(16usize, scaled(400_000)), (256, scaled(4_000_000))] {
        let params = Params::for_ring(n);
        for (i, condition) in InitialCondition::ALL.into_iter().enumerate() {
            let config: Configuration<PplState> = generate(condition, n, &params, 100 + i as u64);
            let ring = || DirectedRing::new(n).unwrap();
            let mut fast = Simulation::new(Ppl::new(params), ring(), config.clone(), 7 + i as u64);
            let mut slow = Simulation::new(RefPpl { params }, ring(), config, 7 + i as u64);
            let checkpoints = 40;
            for checkpoint in 1..=checkpoints {
                fast.run_steps(steps / checkpoints);
                slow.run_steps(steps / checkpoints);
                assert!(
                    fast.config().states() == slow.config().states(),
                    "{} at n = {n} diverged by checkpoint {checkpoint}",
                    condition.name()
                );
            }
        }
    }
}
