//! `Scheduler::next_block` is exactly successive `next_interaction` calls.
//!
//! Each scheduler is built on the directed ring of `N` agents and driven on
//! the ring of `N + 1`, where its arc `(N - 1, 0)` is not an arc, so blocks
//! end mid-way.  After every block the filled arcs, the length and error,
//! the next RNG word, the phase and the fairness certificate must be those
//! of a second copy that took the same steps one call at a time.

use population::Scheduler;
use population::{AnyGraph, DirectedRing, GraphFamily, Interaction, InteractionGraph, Result};
use rand::{RngCore, SeedableRng};
use rand_chacha::ChaCha8Rng;
use ssle_adversary::{EpochPartitionScheduler, FairnessAuditor, WeightedScheduler};

const N: usize = 16;

/// Block lengths, in order, once per round.
const BLOCKS: [usize; 4] = [1, 63, 64, 1000];

/// Enough rounds to reach the epoch scheduler's last group at `(8, 4096)`.
const ROUNDS: usize = 40;

/// The contract, spelled out: one `next_interaction` per slot, stopping
/// right after the first non-arc or at an error.
fn one_at_a_time<S: Scheduler<AnyGraph>>(
    sched: &mut S,
    graph: &AnyGraph,
    rng: &mut ChaCha8Rng,
    arcs: &mut [Interaction],
) -> (usize, Result<()>) {
    for (filled, slot) in arcs.iter_mut().enumerate() {
        match sched.next_interaction(graph, rng) {
            Ok(arc) => {
                *slot = arc;
                if !graph.is_arc(arc.initiator().index(), arc.responder().index()) {
                    return (filled + 1, Ok(()));
                }
            }
            Err(e) => return (filled, Err(e)),
        }
    }
    (arcs.len(), Ok(()))
}

fn assert_blocks_match<S: Scheduler<AnyGraph>>(
    label: &str,
    build: impl Fn() -> (S, Option<FairnessAuditor>),
) {
    let graph = GraphFamily::DirectedRing.build(N + 1).expect("n >= 2");
    let ((mut blocked, blocked_audit), (mut single, single_audit)) = (build(), build());
    let seed = label
        .bytes()
        .fold(0u64, |h, b| h.rotate_left(5) ^ u64::from(b));
    let (mut block_rng, mut single_rng) = (
        ChaCha8Rng::seed_from_u64(seed),
        ChaCha8Rng::seed_from_u64(seed),
    );
    let mut cut_short = 0;
    for round in 0..ROUNDS {
        for len in BLOCKS {
            let at = format!("{label}: round {round}, block of {len}");
            let mut got = [Interaction::new(0, 0); 1000];
            let mut want = [Interaction::new(0, 0); 1000];
            let (filled, result) = blocked.next_block(&graph, &mut block_rng, &mut got[..len]);
            let (expected, expected_result) =
                one_at_a_time(&mut single, &graph, &mut single_rng, &mut want[..len]);
            assert_eq!(
                (filled, &result),
                (expected, &expected_result),
                "{at}: length, error"
            );
            assert_eq!(got[..filled], want[..expected], "{at}: arcs");
            assert_eq!(
                block_rng.clone().next_u64(),
                single_rng.clone().next_u64(),
                "{at}: next RNG word"
            );
            assert_eq!(
                Scheduler::<AnyGraph>::phase(&blocked),
                Scheduler::<AnyGraph>::phase(&single),
                "{at}: phase"
            );
            assert_eq!(
                blocked_audit.as_ref().map(FairnessAuditor::certificate),
                single_audit.as_ref().map(FairnessAuditor::certificate),
                "{at}: fairness certificate"
            );
            cut_short += usize::from(filled < len);
        }
    }
    assert!(cut_short > 0, "{label}: no block met the non-arc");
}

#[test]
fn next_block_matches_successive_next_interaction_calls() {
    let ring = DirectedRing::new(N).expect("n >= 2");
    for (blocks, epoch_len) in [(1, 1), (3, 1), (3, 7), (4, 64), (8, 4096), (N, 5)] {
        for audited in [false, true] {
            let label = format!("epoch {blocks}x{epoch_len}, audited {audited}");
            assert_blocks_match(&label, || {
                let sched = EpochPartitionScheduler::new(&ring, blocks, epoch_len).expect("arcs");
                if audited {
                    let auditor = FairnessAuditor::new();
                    (sched.with_auditor(auditor.clone()), Some(auditor))
                } else {
                    (sched, None)
                }
            });
        }
    }
    for (name, hot, bias) in [("light", 1, 2), ("heavy", N / 2, 64)] {
        assert_blocks_match(&format!("weighted {name}"), || {
            (WeightedScheduler::biased(&ring, hot, bias, 0xB1A5), None)
        });
    }
}
