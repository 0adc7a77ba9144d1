//! `Hash` agrees with `==` for every erased production state, typed and
//! wrapped in a [`DynState`]: equal states hash alike and give equal
//! fingerprints at the same salt, so the recurrence filter
//! ([`DynState::fingerprint`]) can never hide a configuration that `==`
//! would confirm.  Distinct states in these samples also give distinct
//! fingerprints, so the filter actually filters.

use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};

use population::{
    slot::SlotState, Configuration, DirectedRing, DynState, LeaderElection, Protocol, Simulation,
};
use ssle_bench::{ProtocolKind, Table1Visitor};
use ssle_core::coloring::{ColoringState, TwoHopColoring};
use ssle_core::composed::{random_combined_config, Composed};
use ssle_core::orientation::{random_orientation_config, Por};
use ssle_core::Params;

const N: usize = 16;
const SNAPSHOTS: usize = 24;
const STEPS_PER_SNAPSHOT: u64 = 150;
const SALTS: [u64; 3] = [0, 1, 0x5eed_cafe];

fn sip<T: Hash + ?Sized>(value: &T) -> u64 {
    let mut hasher = DefaultHasher::new();
    value.hash(&mut hasher);
    hasher.finish()
}

/// The start configuration and snapshots along a typed run from it: a mix
/// of arbitrary states and the states the protocol's own dynamics produce.
fn visited<P: Protocol>(protocol: P, config: Configuration<P::State>) -> Vec<P::State> {
    let ring = DirectedRing::new(config.len()).expect("n >= 2");
    let mut sim = Simulation::new(protocol, ring, config, 7);
    let mut states = sim.config().states().to_vec();
    for _ in 0..SNAPSHOTS {
        sim.run_steps(STEPS_PER_SNAPSHOT);
        states.extend_from_slice(sim.config().states());
    }
    states
}

/// Checks every pair of `states` (and each state against its clone), and
/// returns the number of equal pairs of distinct indices.
fn assert_hash_agrees_with_eq<S: SlotState>(name: &str, states: &[S]) -> usize {
    let key = |s: &S, d: &DynState| (sip(s), sip(d), SALTS.map(|salt| d.fingerprint(salt)));
    let erased: Vec<DynState> = states.iter().cloned().map(DynState::new).collect();
    let keys: Vec<_> = states.iter().zip(&erased).map(|(s, d)| key(s, d)).collect();
    for ((s, d), k) in states.iter().zip(&erased).zip(&keys) {
        let clone_key = key(&s.clone(), &d.clone());
        assert_eq!(k, &clone_key, "{name}: a clone of {s:?} hashes differently");
    }
    let mut equal_pairs = 0;
    for i in 0..states.len() {
        for j in i + 1..states.len() {
            let equal = states[i] == states[j];
            assert_eq!(equal, erased[i] == erased[j], "{name}: erasure changed ==");
            if equal {
                equal_pairs += 1;
                assert_eq!(keys[i], keys[j], "{name}: equal {:?} hash apart", states[i]);
            } else {
                assert_ne!(
                    keys[i].2[0], keys[j].2[0],
                    "{name}: {:?} and {:?} share a fingerprint",
                    states[i], states[j]
                );
            }
        }
    }
    equal_pairs
}

#[test]
fn hash_agrees_with_eq_for_the_table1_states() {
    struct Check(ProtocolKind);
    impl Table1Visitor for Check {
        type Output = usize;
        fn visit<P, F>(self, protocol: P, config: Configuration<P::State>, _stop: F) -> usize
        where
            P: LeaderElection + 'static,
            P::State: std::any::Any,
            F: Fn(&P, &Configuration<P::State>) -> bool + Send + Sync + 'static,
        {
            assert_hash_agrees_with_eq(self.0.name(), &visited(protocol, config))
        }
    }
    let mut equal_pairs = 0;
    for kind in ProtocolKind::ALL {
        equal_pairs += kind.with_table1_setup(N, 3, Check(kind));
    }
    assert!(
        equal_pairs > 0,
        "the samples must hold equal, separately built states"
    );
}

#[test]
fn hash_agrees_with_eq_for_the_orientation_and_coloring_states() {
    let params = Params::for_ring(N);
    assert_hash_agrees_with_eq(
        "P_OR",
        &visited(Por::new(), random_orientation_config(N, 5)),
    );
    assert_hash_agrees_with_eq(
        "P_OR + P_PL",
        &visited(Composed::new(params), random_combined_config(N, &params, 5)),
    );
    let colors = Configuration::from_fn(N, |i| ColoringState::new((i * 7 % 5) as u8));
    let equal_pairs =
        assert_hash_agrees_with_eq("two-hop coloring", &visited(TwoHopColoring::new(5), colors));
    assert!(
        equal_pairs > 0,
        "the samples must hold equal, separately built states"
    );
}
