//! Property-based tests (proptest) over the core data structures and protocol
//! invariants, spanning the workspace crates.

use proptest::prelude::*;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use ring_ssle::population::InteractionSeq;
use ring_ssle::prelude::*;
use ring_ssle::ssle_baselines::angluin_mod_k::{defects, AngluinModK, ModKState};
use ring_ssle::ssle_core::create::{create_leader, eliminate_leaders};
use ring_ssle::ssle_core::segments::{segment_id, segments};
use ring_ssle::ssle_core::tokens::token_is_invalid;

/// Strategy: protocol parameters with ψ ∈ [2, 8].
fn params_strategy() -> impl Strategy<Value = Params> {
    (2u32..=8, 1u32..=8).prop_map(|(psi, factor)| Params::new(psi, psi * factor.max(1)))
}

/// Cases per property: `PROPTEST_CASES` if set, otherwise a fast default so
/// the tier-1 suite stays well under the time budget.  Raise it (e.g.
/// `PROPTEST_CASES=1024 cargo test`) for a more thorough sweep.
fn proptest_cases() -> u32 {
    std::env::var("PROPTEST_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(128)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(proptest_cases()))]

    /// The transition function is deterministic and closed over the state
    /// domain: applying it to any two in-domain states yields in-domain
    /// states, and applying it twice to the same inputs yields the same
    /// outputs.
    #[test]
    fn ppl_transition_is_deterministic_and_domain_closed(
        params in params_strategy(),
        seed_l in any::<u64>(),
        seed_r in any::<u64>(),
    ) {
        let mut rng_l = ChaCha8Rng::seed_from_u64(seed_l);
        let mut rng_r = ChaCha8Rng::seed_from_u64(seed_r);
        let l0 = PplState::sample_uniform(&mut rng_l, &params);
        let r0 = PplState::sample_uniform(&mut rng_r, &params);
        prop_assert!(l0.in_domain(&params));
        prop_assert!(r0.in_domain(&params));

        let protocol = Ppl::new(params);
        let (mut l1, mut r1) = (l0.clone(), r0.clone());
        let (mut l2, mut r2) = (l0, r0);
        protocol.interact(&mut l1, &mut r1);
        protocol.interact(&mut l2, &mut r2);
        prop_assert_eq!(&l1, &l2);
        prop_assert_eq!(&r1, &r2);
        prop_assert!(l1.in_domain(&params), "initiator left the domain: {:?}", l1);
        prop_assert!(r1.in_domain(&params), "responder left the domain: {:?}", r1);
    }

    /// `CreateLeader` never demotes a leader and `EliminateLeaders` never
    /// demotes the responder's leader bit unless a live bullet hit it — in
    /// particular, a pair interaction can never lose *two* leaders at once.
    #[test]
    fn an_interaction_never_removes_two_leaders(
        params in params_strategy(),
        seed_l in any::<u64>(),
        seed_r in any::<u64>(),
    ) {
        let mut rng_l = ChaCha8Rng::seed_from_u64(seed_l);
        let mut rng_r = ChaCha8Rng::seed_from_u64(seed_r);
        let l0 = PplState::sample_uniform(&mut rng_l, &params);
        let r0 = PplState::sample_uniform(&mut rng_r, &params);
        let before = l0.leader as usize + r0.leader as usize;
        let (mut l, mut r) = (l0.clone(), r0);
        create_leader(&params, &mut l, &mut r);
        eliminate_leaders(&mut l, &mut r);
        let after = l.leader as usize + r.leader as usize;
        prop_assert!(after + 1 >= before, "lost more than one leader: {before} -> {after}");
        // The initiator's leader bit is never cleared by an interaction
        // (only the responder can be shot).
        prop_assert!(!l0.leader || l.leader);
    }

    /// Valid tokens written by the creation rule are never flagged invalid,
    /// for every border state.
    #[test]
    fn created_tokens_are_always_valid(
        params in params_strategy(),
        seed in any::<u64>(),
        black in any::<bool>(),
    ) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut s = PplState::sample_uniform(&mut rng, &params);
        let kind = if black { TokenKind::Black } else { TokenKind::White };
        // Put the agent on the creating border of the chosen colour and give
        // it the freshly created token of Line 13.
        s.dist = kind.offset(&params);
        *s.token_mut(kind) = Some(Token {
            target_offset: params.psi() as i32,
            value: !s.b,
            carry: s.b,
        });
        prop_assert!(!token_is_invalid(&s, kind, &params));
    }

    /// Perfect configurations are perfect (and in `S_PL`) for every leader
    /// position and every starting segment ID, and become imperfect when any
    /// single agent's `dist` is corrupted.
    #[test]
    fn perfect_configurations_are_safe_and_fragile(
        n in 6usize..40,
        leader_offset in 0usize..40,
        first_id in 0u64..1024,
        victim_offset in 0usize..40,
        delta in 1u32..4,
    ) {
        let params = Params::for_ring(n);
        let leader_at = leader_offset % n;
        let config = perfect_configuration(n, &params, leader_at, first_id % params.id_modulus());
        prop_assert!(is_perfect(&config, &params));
        prop_assert!(in_s_pl(&config, &params));

        let mut corrupted = config.clone();
        let victim = victim_offset % n;
        corrupted[victim].dist = (corrupted[victim].dist + delta) % params.two_psi();
        prop_assert!(!in_s_pl(&corrupted, &params) || delta % params.two_psi() == 0);
    }

    /// Segment IDs are invariant under rotating the configuration (only the
    /// agent labels change, not the ring structure).
    #[test]
    fn segment_ids_are_rotation_invariant(
        n in 6usize..40,
        first_id in 0u64..255,
        rotation in 0usize..40,
    ) {
        let params = Params::for_ring(n);
        let config = perfect_configuration(n, &params, 0, first_id % params.id_modulus());
        let rotated = config.rotated(rotation % n);
        let ids: Vec<u64> = segments(&config, &params)
            .iter()
            .map(|s| segment_id(&config, s))
            .collect();
        let rotated_ids: Vec<u64> = segments(&rotated, &params)
            .iter()
            .map(|s| segment_id(&rotated, s))
            .collect();
        // The multiset of segment IDs is preserved (order may rotate).
        let mut a = ids.clone();
        let mut b = rotated_ids.clone();
        a.sort_unstable();
        b.sort_unstable();
        prop_assert_eq!(a, b);
    }

    /// `seq_R(i, j)` and `seq_L(i, j)` always have length `j`, stay on ring
    /// arcs, and are inverses in the sense that reversing `seq_R(i, j)` gives
    /// the arcs of `seq_L(i + j, j)`.
    #[test]
    fn interaction_sequences_match_their_definitions(
        n in 2usize..64,
        i in 0usize..64,
        j in 1usize..64,
    ) {
        let r = InteractionSeq::seq_r(i, j, n);
        let l = InteractionSeq::seq_l(i + j, j, n);
        prop_assert_eq!(r.len(), j);
        prop_assert_eq!(l.len(), j);
        let ring = DirectedRing::new(n).unwrap();
        for e in r.iter().chain(l.iter()) {
            prop_assert!(ring.is_arc(e.initiator().index(), e.responder().index()));
        }
        let mut reversed: Vec<_> = r.interactions().to_vec();
        reversed.reverse();
        prop_assert_eq!(reversed.as_slice(), l.interactions());
    }

    /// The mod-k defect structure of baseline \[5\]: the number of defects of
    /// any configuration on a ring whose size is not a multiple of k is at
    /// least one, and one interaction never increases it.
    #[test]
    fn defect_count_is_positive_and_non_increasing(
        n in 3usize..40,
        seed in any::<u64>(),
        arc in 0usize..40,
    ) {
        let k = 2u8;
        prop_assume!(n % 2 == 1); // k = 2 must not divide n
        let protocol = AngluinModK::new(k);
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let config = Configuration::from_fn(n, |_| ModKState::sample_uniform(&mut rng, k));
        let before = defects(&config, k).len();
        prop_assert!(before >= 1);

        let mut sim = Simulation::new(protocol, DirectedRing::new(n).unwrap(), config, seed);
        sim.apply(population::Interaction::new(arc % n, (arc + 1) % n));
        let after = defects(sim.config(), k).len();
        prop_assert!(after >= 1);
        prop_assert!(after <= before);
    }

    /// `EliminateLeaders` on its own never creates a leader, never creates a
    /// bullet out of nothing at the responder unless the initiator passed one
    /// or the responder fired, and keeps `bullet` in its 3-value domain.
    #[test]
    fn eliminate_leaders_only_removes_leaders(
        params in params_strategy(),
        seed_l in any::<u64>(),
        seed_r in any::<u64>(),
    ) {
        let mut rng_l = ChaCha8Rng::seed_from_u64(seed_l);
        let mut rng_r = ChaCha8Rng::seed_from_u64(seed_r);
        let l0 = PplState::sample_uniform(&mut rng_l, &params);
        let r0 = PplState::sample_uniform(&mut rng_r, &params);
        let (mut l, mut r) = (l0.clone(), r0.clone());
        eliminate_leaders(&mut l, &mut r);
        prop_assert!(l.leader as usize + r.leader as usize <= l0.leader as usize + r0.leader as usize);
        prop_assert!(!l.leader || l0.leader, "EliminateLeaders created an initiator leader");
        prop_assert!(!r.leader || r0.leader, "EliminateLeaders created a responder leader");
        prop_assert!(l.bullet <= 2 && r.bullet <= 2);
    }

    /// `DetermineMode` keeps the clock, hits and signal TTL inside their
    /// domains and keeps `mode` consistent with `clock` for both agents.
    #[test]
    fn determine_mode_respects_domains_and_mode_clock_consistency(
        params in params_strategy(),
        seed_l in any::<u64>(),
        seed_r in any::<u64>(),
    ) {
        use ring_ssle::ssle_core::create::determine_mode;
        let mut rng_l = ChaCha8Rng::seed_from_u64(seed_l);
        let mut rng_r = ChaCha8Rng::seed_from_u64(seed_r);
        let mut l = PplState::sample_uniform(&mut rng_l, &params);
        let mut r = PplState::sample_uniform(&mut rng_r, &params);
        determine_mode(&params, &mut l, &mut r);
        for v in [&l, &r] {
            prop_assert!(v.clock <= params.kappa_max());
            prop_assert!(v.hits <= params.psi());
            prop_assert!(v.signal_r <= params.kappa_max());
            let expected = if v.clock == params.kappa_max() { Mode::Detect } else { Mode::Construct };
            prop_assert_eq!(v.mode, expected);
        }
        // The initiator's lottery counter is always reset (Line 36).
        prop_assert_eq!(l.hits, 0);
    }

    /// Thue–Morse prefixes of arbitrary length are cube-free, and appending
    /// the same symbol three times always introduces a cube (the detector is
    /// sound and complete on these families).
    #[test]
    fn thue_morse_cube_freeness(len in 1usize..400, bit in any::<bool>()) {
        use ring_ssle::ssle_baselines::thue_morse::{find_cube, is_cube_free, thue_morse_prefix};
        let prefix = thue_morse_prefix(len);
        prop_assert!(is_cube_free(&prefix));
        let mut with_cube = prefix;
        with_cube.extend([bit, bit, bit]);
        prop_assert!(find_cube(&with_cube).is_some());
    }

    /// The \[28\] baseline's distance variable never leaves `[0, N]` and its
    /// transition is deterministic.
    #[test]
    fn yokota_distance_stays_capped(
        cap in 2u32..200,
        seed_l in any::<u64>(),
        seed_r in any::<u64>(),
    ) {
        use ring_ssle::ssle_baselines::yokota_linear::{YokotaLinear, YokotaState};
        let protocol = YokotaLinear::new(cap);
        let mut rng_l = ChaCha8Rng::seed_from_u64(seed_l);
        let mut rng_r = ChaCha8Rng::seed_from_u64(seed_r);
        let l0 = YokotaState::sample_uniform(&mut rng_l, cap);
        let r0 = YokotaState::sample_uniform(&mut rng_r, cap);
        let (mut l1, mut r1) = (l0, r0);
        let (mut l2, mut r2) = (l0, r0);
        protocol.interact(&mut l1, &mut r1);
        protocol.interact(&mut l2, &mut r2);
        prop_assert_eq!(l1, l2);
        prop_assert_eq!(r1, r2);
        prop_assert!(l1.dist <= cap && r1.dist <= cap);
        // A responder that hits the cap must have turned itself into a leader
        // with distance reset to zero, never report distance N.
        prop_assert!(r1.dist < cap || r1.leader || cap == 0);
    }

    /// `FaultPlanSpec` round-trips losslessly through the fault plan it
    /// builds: `spec → FaultPlan → spec` is the identity for every
    /// integer-exact crash schedule — the property that makes fault-bearing
    /// worst-case certificates replayable from the JSON artifact.
    #[test]
    fn fault_plan_spec_round_trips_through_the_plan(
        raw in proptest::collection::vec(
            (any::<u64>(), 0u8..4, 0u32..10_000, 0u32..10_000),
            0..6,
        ),
    ) {
        use ring_ssle::ssle_adversary::{FaultEventSpec, FaultPlacementSpec, FaultPlanSpec};
        let events: Vec<FaultEventSpec> = raw
            .into_iter()
            .map(|(at_step, kind, start, count)| FaultEventSpec {
                at_step,
                placement: match kind {
                    0 => FaultPlacementSpec::Random { count: count.max(1) },
                    1 => FaultPlacementSpec::Block { start, count: count.max(1) },
                    2 => FaultPlacementSpec::Targeted { limit: count.max(1) },
                    _ => FaultPlacementSpec::All,
                },
            })
            .collect();
        let spec = FaultPlanSpec::new(events);
        let plan = spec.plan();
        prop_assert_eq!(plan.len(), spec.events().len());
        prop_assert_eq!(FaultPlanSpec::from_plan(&plan), spec);
    }

    /// Configuration rotation is a bijection that preserves the multiset of
    /// states and composes additively.
    #[test]
    fn configuration_rotation_composes(
        states in proptest::collection::vec(0u32..1000, 2..50),
        a in 0usize..50,
        b in 0usize..50,
    ) {
        let n = states.len();
        let config = Configuration::from_states(states.clone());
        let double = config.rotated(a % n).rotated(b % n);
        let direct = config.rotated((a + b) % n);
        prop_assert_eq!(double.states(), direct.states());
        let mut sorted = states;
        sorted.sort_unstable();
        let mut rotated_sorted = config.rotated(a % n).into_states();
        rotated_sorted.sort_unstable();
        prop_assert_eq!(sorted, rotated_sorted);
    }
}
