//! Property tests for the topology axis: generated graph families are
//! seed-deterministic (including across threads), structurally sound where
//! the constructors promise it, and every spec ⇄ runtime mapping the
//! certificate contract relies on is lossless.
//!
//! Case counts honour `PROPTEST_CASES` like the rest of the workspace.

use population::{torus_dims, weak_reach, Interaction, InteractionGraph};
use proptest::collection::vec;
use proptest::prelude::*;
use ssle_adversary::{ChurnKindSpec, ChurnPlanSpec, FaultPlacementSpec, FaultPlanSpec, GraphSpec};

/// The generated (non-lattice parameters drawn from the inputs) families —
/// the spec variants the worst-case search's `GraphDomain` can propose.
fn generated_spec(variant: usize, degree: u16, per_mille: u16, seed: u64) -> GraphSpec {
    match variant % 4 {
        0 => GraphSpec::Torus,
        1 => GraphSpec::SmallWorld {
            k: degree,
            rewire_per_mille: per_mille,
            seed,
        },
        2 => GraphSpec::PreferentialAttachment { m: degree, seed },
        _ => GraphSpec::RandomRegular { degree, seed },
    }
}

fn generated_spec_strategy() -> impl Strategy<Value = GraphSpec> {
    (0usize..4, 1u16..6, 0u16..=1000, any::<u64>()).prop_map(
        |(variant, degree, per_mille, seed)| {
            // SmallWorld's k is a per-side pair count: keep it >= 2 so the
            // strategy never collapses every small-world draw to k/2 == 1.
            let degree = if variant % 4 == 1 { degree + 1 } else { degree };
            generated_spec(variant, degree, per_mille, seed)
        },
    )
}

fn any_spec_strategy() -> impl Strategy<Value = GraphSpec> {
    (0usize..7, 2u16..6, 0u16..=1000, any::<u64>()).prop_map(
        |(variant, degree, per_mille, seed)| match variant {
            0 => GraphSpec::DirectedRing,
            1 => GraphSpec::UndirectedRing,
            2 => GraphSpec::Complete,
            _ => generated_spec(variant - 3, degree, per_mille, seed),
        },
    )
}

/// Strongly connected ⟺ every node is forward-reachable from node 0 and
/// node 0 is forward-reachable from every node (via the reversed arcs).
fn strongly_connected(n: usize, arcs: &[Interaction]) -> bool {
    let reach = |forward: bool| {
        let mut seen = vec![false; n];
        let mut stack = vec![0usize];
        seen[0] = true;
        while let Some(u) = stack.pop() {
            for a in arcs {
                let (from, to) = if forward {
                    (a.initiator().index(), a.responder().index())
                } else {
                    (a.responder().index(), a.initiator().index())
                };
                if from == u && !seen[to] {
                    seen[to] = true;
                    stack.push(to);
                }
            }
        }
        seen.iter().filter(|s| **s).count()
    };
    reach(true) == n && reach(false) == n
}

fn out_degrees(n: usize, arcs: &[Interaction]) -> Vec<usize> {
    let mut d = vec![0usize; n];
    for a in arcs {
        d[a.initiator().index()] += 1;
    }
    d
}

fn in_degrees(n: usize, arcs: &[Interaction]) -> Vec<usize> {
    let mut d = vec![0usize; n];
    for a in arcs {
        d[a.responder().index()] += 1;
    }
    d
}

/// Rejects random-regular draws whose degree crowds the arc space: the
/// constructor documents that cycle redraws may exhaust their retry budget
/// ([`population::PopulationError::GraphGenerationFailed`]) when `degree`
/// approaches `n`.  The outcome is a deterministic function of the spec and
/// `n`, so rejecting exactly those draws is sound — the structural
/// properties quantify over every spec that builds at all.
fn assume_buildable(spec: GraphSpec, n: usize) -> Result<(), proptest::test_runner::TestCaseError> {
    prop_assume!(!matches!(
        spec.family().build(n),
        Err(population::PopulationError::GraphGenerationFailed { .. })
    ));
    Ok(())
}

fn churn_kind(variant: usize, extent: u32) -> ChurnKindSpec {
    match variant % 5 {
        0 => ChurnKindSpec::Rewire { count: extent },
        1 => ChurnKindSpec::Partition { blocks: extent + 1 },
        2 => ChurnKindSpec::Heal,
        3 => ChurnKindSpec::Join { count: extent },
        _ => ChurnKindSpec::Leave { count: extent },
    }
}

fn churn_plan_strategy() -> impl Strategy<Value = ChurnPlanSpec> {
    vec((0u64..10_000, 0usize..5, 1u32..5), 0..5).prop_map(|events| {
        events
            .into_iter()
            .fold(ChurnPlanSpec::none(), |spec, (at, variant, extent)| {
                spec.with_event(at, churn_kind(variant, extent))
            })
    })
}

fn placement(variant: usize, a: u32, b: u32) -> FaultPlacementSpec {
    match variant % 4 {
        0 => FaultPlacementSpec::Random { count: a },
        1 => FaultPlacementSpec::Block { start: b, count: a },
        2 => FaultPlacementSpec::All,
        _ => FaultPlacementSpec::Targeted { limit: a },
    }
}

fn fault_plan_strategy() -> impl Strategy<Value = FaultPlanSpec> {
    vec((0u64..10_000, 0usize..4, 1u32..9, 0u32..9), 0..4).prop_map(|events| {
        events
            .into_iter()
            .fold(FaultPlanSpec::none(), |spec, (at, variant, a, b)| {
                spec.with_event(at, placement(variant, a, b))
            })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The tentpole determinism pin: one spec and one population size name
    /// exactly one arc set, no matter how many times or on which thread the
    /// family is built.  Sweep cells and certificate replays rely on this.
    #[test]
    fn generated_families_are_seed_deterministic(
        spec in generated_spec_strategy(),
        n in 4usize..40,
    ) {
        assume_buildable(spec, n)?;
        let arcs = spec.family().build(n).unwrap().arcs();
        prop_assert_eq!(spec.family().build(n).unwrap().arcs(), arcs.clone());
        let workers: Vec<_> = (0..4)
            .map(|_| std::thread::spawn(move || spec.family().build(n).unwrap().arcs()))
            .collect();
        for w in workers {
            prop_assert_eq!(w.join().unwrap(), arcs.clone());
        }
    }

    /// Every generated family promises (weak and, by their both-direction /
    /// cycle-union constructions, strong) connectivity — the property that
    /// makes a global stop predicate reachable at all.
    #[test]
    fn generated_families_are_connected(
        spec in generated_spec_strategy(),
        n in 4usize..40,
    ) {
        assume_buildable(spec, n)?;
        let graph = spec.family().build(n).unwrap();
        let arcs = graph.arcs();
        prop_assert_eq!(weak_reach(n, &arcs), n);
        prop_assert!(
            strongly_connected(n, &arcs),
            "{} must be strongly connected at n = {n}",
            spec.key()
        );
    }

    /// Random-regular graphs have *exactly* the requested in- and
    /// out-degree everywhere (clamped to the documented `1..=n-1`).
    #[test]
    fn random_regular_has_exact_degrees(
        degree in 1u16..4,
        seed in any::<u64>(),
        n in 8usize..40,
    ) {
        let spec = GraphSpec::RandomRegular { degree, seed };
        let arcs = spec.family().build(n).unwrap().arcs();
        let want = usize::from(degree).clamp(1, n - 1);
        prop_assert_eq!(out_degrees(n, &arcs), vec![want; n]);
        prop_assert_eq!(in_degrees(n, &arcs), vec![want; n]);
    }

    /// The torus is symmetric (every arc has its reverse) and every agent
    /// has exactly as many arcs as it has distinct lattice neighbours —
    /// 4 on a proper 2-D grid, degenerating gracefully on thin dimensions.
    #[test]
    fn torus_has_exact_lattice_degrees(n in 4usize..60) {
        let arcs = GraphSpec::Torus.family().build(n).unwrap().arcs();
        for a in &arcs {
            prop_assert!(
                arcs.contains(&Interaction::new(
                    a.responder().index(),
                    a.initiator().index()
                )),
                "torus arcs come in both directions"
            );
        }
        let (h, w) = torus_dims(n);
        let outs = out_degrees(n, &arcs);
        for r in 0..h {
            for c in 0..w {
                let mut neighbours = vec![
                    r * w + (c + 1) % w,
                    ((r + 1) % h) * w + c,
                    r * w + (c + w - 1) % w,
                    ((r + h - 1) % h) * w + c,
                ];
                neighbours.sort_unstable();
                neighbours.dedup();
                neighbours.retain(|&v| v != r * w + c);
                prop_assert_eq!(outs[r * w + c], neighbours.len());
            }
        }
        prop_assert_eq!(in_degrees(n, &arcs), outs);
    }

    /// Small-world arc counts stay within the lattice bounds: rewiring
    /// relocates chords but never creates or destroys edges.
    #[test]
    fn small_world_arc_counts_are_bounded(
        k in 2u16..8,
        per_mille in 0u16..=1000,
        seed in any::<u64>(),
        n in 4usize..40,
    ) {
        let spec = GraphSpec::SmallWorld { k, rewire_per_mille: per_mille, seed };
        let arcs = spec.family().build(n).unwrap().arcs();
        let half = (usize::from(k) / 2).min((n - 1) / 2).max(1);
        prop_assert!(arcs.len() <= 2 * n * half);
        prop_assert!(arcs.len() >= 2 * (n - 1), "the ring backbone survives rewiring");
    }

    /// Preferential-attachment arc counts are pinned by the growth rule:
    /// a complete core plus 1..=m undirected edges per later agent.
    #[test]
    fn preferential_attachment_arc_counts_are_bounded(
        m in 1u16..6,
        seed in any::<u64>(),
        n in 4usize..40,
    ) {
        let spec = GraphSpec::PreferentialAttachment { m, seed };
        let arcs = spec.family().build(n).unwrap().arcs();
        let m = usize::from(m);
        let core = (m + 1).min(n);
        let core_edges = core * (core - 1) / 2;
        prop_assert!(arcs.len() >= 2 * (core_edges + (n - core)));
        prop_assert!(arcs.len() <= 2 * (core_edges + (n - core) * m));
    }

    /// GraphSpec ⇄ GraphFamily is lossless for every describable family, so
    /// a certificate's topology rebuilds the exact graph it was found on.
    #[test]
    fn graph_specs_round_trip_through_families(spec in any_spec_strategy()) {
        prop_assert_eq!(GraphSpec::from_family(&spec.family()), Some(spec));
    }

    /// ChurnPlanSpec ⇄ ChurnPlan is lossless, so churn-bearing certificates
    /// replay the exact schedule the search evaluated.
    #[test]
    fn churn_plan_specs_round_trip(spec in churn_plan_strategy()) {
        prop_assert_eq!(ChurnPlanSpec::from_plan(&spec.plan()), spec.clone());
        prop_assert_eq!(spec.plan().len(), spec.events().len());
    }

    /// FaultPlanSpec ⇄ FaultPlan is lossless.
    #[test]
    fn fault_plan_specs_round_trip(spec in fault_plan_strategy()) {
        prop_assert_eq!(FaultPlanSpec::from_plan(&spec.plan()), spec.clone());
    }
}
