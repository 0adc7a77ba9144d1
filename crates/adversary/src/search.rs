//! Worst-case stabilization search.
//!
//! Average-case sweeps measure *mean* stabilization time; the interesting
//! quantity for a self-stabilizing protocol is the **worst case** over
//! initial configurations and schedules.  Exhausting that space is hopeless
//! (it is exponential), so this module searches it: simulated annealing over
//! [`Candidate`]s — an initial-condition variant, a seed and a
//! [`SchedulerSpec`] — maximizing the observed stabilization time reported
//! by a driver-supplied evaluation function.
//!
//! Everything is deterministic: mutations come from a `ChaCha8Rng` seeded by
//! [`SearchConfig::seed`], and evaluation is the driver's responsibility to
//! keep seed-deterministic (scenario runs are).  The result is a
//! [`WorstCase`] **certificate**: re-evaluating its candidate reproduces the
//! same step count, so worst cases found once can be archived, shared and
//! re-verified (covered by workspace tests).
//!
//! The search is seeded with an already-evaluated candidate pool — typically
//! the random-scheduler trials a report also uses for its mean — which
//! guarantees `worst-found ≥ max(pool) ≥ mean(pool)` by construction.

use population::BatchRunner;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

use crate::certify::CertifiedLivelock;
use crate::faultplan::{
    ChurnDomain, ChurnPlanSpec, FaultDomain, FaultPlanSpec, GraphDomain, GraphSpec,
};
use crate::spec::SchedulerSpec;

/// One point of the search space: which initial-condition variant to start
/// from, the seed driving init + simulation, the scheduler description, the
/// mid-run crash schedule, the mid-run churn schedule and an optional
/// interaction-graph override.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct Candidate {
    /// Index into the driver's list of initial-condition variants.
    pub variant: u32,
    /// The sweep-point seed (drives the initial configuration and the
    /// simulation RNG).
    pub seed: u64,
    /// The scheduler to run under.
    pub spec: SchedulerSpec,
    /// The transient-fault schedule to fire mid-run
    /// ([`FaultPlanSpec::none`] for a fault-free run).
    pub faults: FaultPlanSpec,
    /// The topology-churn schedule to fire mid-run
    /// ([`ChurnPlanSpec::none`] for a churn-free run).
    pub churn: ChurnPlanSpec,
    /// Replaces the driver scenario's interaction-graph family when `Some`
    /// (`None` keeps the scenario's own topology).
    pub graph: Option<GraphSpec>,
}

impl Candidate {
    /// A fault-free, churn-free random-scheduler candidate on the driver
    /// scenario's own topology — the shape of every seed pool member.
    pub fn baseline(seed: u64) -> Self {
        Candidate {
            variant: 0,
            seed,
            spec: SchedulerSpec::Random,
            faults: FaultPlanSpec::none(),
            churn: ChurnPlanSpec::none(),
            graph: None,
        }
    }
}

/// The driver's verdict on one candidate.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Evaluation {
    /// Observed stabilization steps, censored at the run's step budget when
    /// the run did not converge (a censored run is a *worst* case: the true
    /// value is at least the budget).
    pub steps: u64,
    /// Whether the run converged within the budget.
    pub converged: bool,
}

/// A reproducible worst case: the candidate plus its observed evaluation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WorstCase {
    /// The candidate that produced the worst observed stabilization time.
    pub candidate: Candidate,
    /// Observed stabilization steps (censored at the budget if
    /// `!converged`).
    pub steps: u64,
    /// Whether the worst-case run converged within the budget.
    pub converged: bool,
    /// A checked livelock certificate for the candidate, when the driver
    /// ran [`certify_livelock`](crate::certify::certify_livelock) on a
    /// censored result and the closure check succeeded.  The search itself
    /// never fills this in — certification is a post-pass.
    pub certified: Option<CertifiedLivelock>,
}

/// Which scheduler mutations the search may propose.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SpecDomain {
    /// Allow [`SchedulerSpec::Weighted`] proposals.
    pub weighted: bool,
    /// Upper bound on the weighted bias factor.
    pub max_bias: u32,
    /// Allow [`SchedulerSpec::EpochPartition`] proposals.
    pub epoch: bool,
    /// Upper bound on the number of partition blocks.
    pub max_blocks: u32,
    /// Upper bound on the epoch length.
    pub max_epoch_len: u64,
    /// Allow [`SchedulerSpec::Greedy`] proposals (requires the driver to
    /// supply a scorer when building families).
    pub greedy: bool,
    /// Upper bound on greedy candidate-pool size.
    pub max_candidates: u32,
}

impl SpecDomain {
    /// The full zoo with moderate parameter ranges.
    pub fn all() -> Self {
        SpecDomain {
            weighted: true,
            max_bias: 64,
            epoch: true,
            max_blocks: 8,
            max_epoch_len: 4096,
            greedy: true,
            max_candidates: 6,
        }
    }

    /// The state-blind zoo (no greedy adversary) — for drivers without a
    /// potential, or where per-step scoring is too expensive.
    pub fn state_blind() -> Self {
        SpecDomain {
            greedy: false,
            ..SpecDomain::all()
        }
    }

    /// Samples a uniformly random spec from the allowed kinds (falling back
    /// to [`SchedulerSpec::Random`] when everything is disabled).
    fn sample(&self, rng: &mut ChaCha8Rng) -> SchedulerSpec {
        let mut kinds: Vec<u8> = vec![0];
        if self.weighted {
            kinds.push(1);
        }
        if self.epoch {
            kinds.push(2);
        }
        if self.greedy {
            kinds.push(3);
        }
        match kinds[rng.gen_range(0..kinds.len())] {
            1 => SchedulerSpec::Weighted {
                hot_per_mille: rng.gen_range(1..=500),
                bias: rng.gen_range(2..=self.max_bias.max(2)),
                seed: rng.gen(),
            },
            2 => SchedulerSpec::EpochPartition {
                blocks: rng.gen_range(2..=self.max_blocks.max(2)),
                epoch_len: rng.gen_range(1..=self.max_epoch_len.max(1)),
            },
            3 => SchedulerSpec::Greedy {
                candidates: rng.gen_range(2..=self.max_candidates.max(2)),
            },
            _ => SchedulerSpec::Random,
        }
    }

    /// Proposes a small perturbation of `spec` (or a kind switch).
    fn tweak(&self, spec: &SchedulerSpec, rng: &mut ChaCha8Rng) -> SchedulerSpec {
        // One third of tweaks re-draw the kind entirely; the rest perturb a
        // single parameter of the current spec.
        if spec.is_random() || rng.gen_range(0..3u8) == 0 {
            return self.sample(rng);
        }
        match *spec {
            SchedulerSpec::Random => unreachable!("handled above"),
            SchedulerSpec::Weighted {
                hot_per_mille,
                bias,
                seed,
            } => match rng.gen_range(0..3u8) {
                0 => SchedulerSpec::Weighted {
                    hot_per_mille: half_or_double(hot_per_mille as u64, 1, 500, rng) as u16,
                    bias,
                    seed,
                },
                1 => SchedulerSpec::Weighted {
                    hot_per_mille,
                    bias: half_or_double(bias as u64, 2, self.max_bias.max(2) as u64, rng) as u32,
                    seed,
                },
                _ => SchedulerSpec::Weighted {
                    hot_per_mille,
                    bias,
                    seed: rng.gen(),
                },
            },
            SchedulerSpec::EpochPartition { blocks, epoch_len } => {
                if rng.gen_bool(0.5) {
                    SchedulerSpec::EpochPartition {
                        blocks: step_up_down(blocks as u64, 2, self.max_blocks.max(2) as u64, rng)
                            as u32,
                        epoch_len,
                    }
                } else {
                    SchedulerSpec::EpochPartition {
                        blocks,
                        epoch_len: half_or_double(epoch_len, 1, self.max_epoch_len.max(1), rng),
                    }
                }
            }
            SchedulerSpec::Greedy { candidates } => SchedulerSpec::Greedy {
                candidates: step_up_down(
                    candidates as u64,
                    2,
                    self.max_candidates.max(2) as u64,
                    rng,
                ) as u32,
            },
        }
    }
}

fn half_or_double(v: u64, lo: u64, hi: u64, rng: &mut ChaCha8Rng) -> u64 {
    let next = if rng.gen_bool(0.5) {
        v.saturating_mul(2)
    } else {
        v / 2
    };
    next.clamp(lo, hi)
}

fn step_up_down(v: u64, lo: u64, hi: u64, rng: &mut ChaCha8Rng) -> u64 {
    let next = if rng.gen_bool(0.5) {
        v + 1
    } else {
        v.saturating_sub(1)
    };
    next.clamp(lo, hi)
}

/// The mutation domain of one search.
#[derive(Clone, Copy, Debug)]
pub struct SearchSpace {
    /// Number of initial-condition variants the driver can evaluate
    /// (`Candidate::variant` stays below this).
    pub variants: u32,
    /// Allowed scheduler mutations.
    pub specs: SpecDomain,
    /// Allowed fault-plan mutations ([`FaultDomain::disabled`] restricts
    /// the search to the fault-free space).
    pub faults: FaultDomain,
    /// Allowed churn-plan mutations ([`ChurnDomain::disabled`] restricts
    /// the search to the churn-free space with a bit-identical proposal
    /// stream).
    pub churn: ChurnDomain,
    /// Allowed graph-family mutations ([`GraphDomain::disabled`] keeps
    /// every candidate on the driver scenario's own topology).
    pub graph: GraphDomain,
}

/// Annealing parameters.
#[derive(Clone, Copy, Debug)]
pub struct SearchConfig {
    /// Mutation/evaluation rounds after the seed pool.
    pub iterations: u32,
    /// Seed of the mutation RNG (the whole search is deterministic in it).
    pub seed: u64,
    /// Geometric temperature decay per iteration, in `(0, 1]`.
    pub cooling: f64,
}

impl Default for SearchConfig {
    fn default() -> Self {
        SearchConfig {
            iterations: 12,
            seed: 0xADF5,
            cooling: 0.85,
        }
    }
}

/// The result of one search.
#[derive(Clone, Debug)]
pub struct SearchOutcome {
    /// The worst case found (over the pool and every proposal).
    pub best: WorstCase,
    /// Total driver evaluations performed (excluding the pre-evaluated
    /// pool).
    pub evaluations: u32,
    /// Annealing-chain statistics (acceptance behaviour and final
    /// temperature), exposed for telemetry and diagnostics.
    pub stats: SearchStats,
}

/// Statistics of one annealing chain.
///
/// Purely observational: the chain's proposals, acceptances and
/// temperature schedule are fixed by the search seed regardless of whether
/// anyone reads these.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct SearchStats {
    /// Proposals accepted (uphill moves and Metropolis-accepted downhill
    /// moves).
    pub accepted: u32,
    /// Proposals rejected.
    pub rejected: u32,
    /// Temperature after the final iteration.
    pub final_temperature: f64,
}

/// Runs the annealing search.
///
/// `pool` is the already-evaluated seed population (e.g. the
/// random-scheduler trials whose mean a report publishes); the search starts
/// from its maximum, which guarantees the returned worst case is at least as
/// bad as every pool member.  `evaluate` must be deterministic per candidate
/// for certificates to be reproducible.
///
/// ```
/// use ssle_adversary::{
///     worst_case_search, Candidate, ChurnDomain, Evaluation, FaultDomain, GraphDomain,
///     SearchConfig, SearchSpace, SpecDomain,
/// };
///
/// // A deterministic toy objective standing in for a scenario run (real
/// // drivers run `Scenario::try_run` and censor at the step budget).
/// let evaluate = |c: &Candidate| Evaluation {
///     steps: 100 + c.seed % 50 + 10 * c.faults.events().len() as u64,
///     converged: true,
/// };
/// let pool: Vec<(Candidate, Evaluation)> = (0..3)
///     .map(|s| (Candidate::baseline(s), evaluate(&Candidate::baseline(s))))
///     .collect();
/// let space = SearchSpace {
///     variants: 1,
///     specs: SpecDomain::state_blind(),
///     faults: FaultDomain::bursts(1_000, 8),
///     churn: ChurnDomain::disabled(),
///     graph: GraphDomain::disabled(),
/// };
/// let outcome = worst_case_search(&space, &pool, evaluate, &SearchConfig::default());
/// // The worst case found is never below the pool maximum (here 102), and
/// // its certificate re-evaluates to the identical score.
/// assert!(outcome.best.steps >= 102);
/// assert_eq!(evaluate(&outcome.best.candidate).steps, outcome.best.steps);
/// ```
///
/// # Panics
///
/// Panics if `pool` is empty or `space.variants == 0`.
pub fn worst_case_search<E>(
    space: &SearchSpace,
    pool: &[(Candidate, Evaluation)],
    mut evaluate: E,
    config: &SearchConfig,
) -> SearchOutcome
where
    E: FnMut(&Candidate) -> Evaluation,
{
    assert!(!pool.is_empty(), "worst_case_search needs a seed pool");
    assert!(space.variants > 0, "worst_case_search needs >= 1 variant");
    let (seed_candidate, seed_eval) = pool
        .iter()
        .max_by_key(|(_, e)| e.steps)
        .expect("non-empty pool");
    let mut best = WorstCase {
        candidate: seed_candidate.clone(),
        steps: seed_eval.steps,
        converged: seed_eval.converged,
        certified: None,
    };
    let mut current = best.clone();
    let mut rng = ChaCha8Rng::seed_from_u64(config.seed);
    // Self-scaling temperature: a quarter of the seed score, decayed
    // geometrically.  With temperature ~0 the search becomes pure hill
    // climbing.
    let mut temperature = (best.steps as f64 / 4.0).max(1.0);
    let mut evaluations = 0u32;
    let mut stats = SearchStats::default();
    for _ in 0..config.iterations {
        let proposal = mutate(&current.candidate, space, &mut rng);
        let eval = evaluate(&proposal);
        evaluations += 1;
        let accept = eval.steps >= current.steps || {
            let drop = (current.steps - eval.steps) as f64;
            rng.gen_bool((-drop / temperature).exp().clamp(0.0, 1.0))
        };
        if accept {
            stats.accepted += 1;
            current = WorstCase {
                candidate: proposal,
                steps: eval.steps,
                converged: eval.converged,
                certified: None,
            };
        } else {
            stats.rejected += 1;
        }
        if current.steps > best.steps {
            best = current.clone();
        }
        temperature = (temperature * config.cooling).max(1.0);
    }
    stats.final_temperature = temperature;
    ssle_telemetry::metrics::well_known::SEARCH_EVALUATIONS.add(u64::from(evaluations));
    ssle_telemetry::metrics::well_known::SEARCH_ACCEPTS.add(u64::from(stats.accepted));
    ssle_telemetry::metrics::well_known::SEARCH_REJECTS.add(u64::from(stats.rejected));
    SearchOutcome {
        best,
        evaluations,
        stats,
    }
}

/// Parameters of an island search ([`worst_case_search_islands`]).
#[derive(Clone, Copy, Debug)]
pub struct IslandConfig {
    /// Number of independent annealing islands.  **Part of the result's
    /// identity**: changing it changes which worst case is found, while the
    /// thread count of the runner never does.
    pub islands: u32,
    /// Mutation/evaluation rounds *per island* (total evaluations are
    /// `islands × iterations`).
    pub iterations: u32,
    /// Base seed; each island derives its own disjoint stream from it.
    pub seed: u64,
    /// Geometric temperature decay per iteration, in `(0, 1]`.
    pub cooling: f64,
}

impl Default for IslandConfig {
    fn default() -> Self {
        IslandConfig {
            islands: 4,
            iterations: 6,
            seed: 0xADF5,
            cooling: 0.85,
        }
    }
}

/// The result of one island search.
#[derive(Clone, Debug)]
pub struct IslandOutcome {
    /// The worst case found over the pool and every island.
    pub best: WorstCase,
    /// The island that found it (ties go to the lowest index, so the merge
    /// is deterministic).
    pub best_island: u32,
    /// Total driver evaluations across all islands (excluding the
    /// pre-evaluated pool).
    pub evaluations: u32,
}

/// The annealing chain restructured as independent **islands**: each island
/// runs [`worst_case_search`] from the same seed pool but with its own
/// disjoint mutation-RNG stream, and the results are merged best-of.
///
/// Islands are embarrassingly parallel, so they are sharded over `runner`
/// (`BatchRunner::run_map`); because every island's stream depends only on
/// `config.seed` and its island index — never on the thread that happens to
/// execute it — the outcome is **bit-identical for any thread count** at a
/// fixed island count.  That is the contract `stabilization_report
/// --threads T` relies on, pinned by workspace tests.
///
/// `evaluate` must be deterministic per candidate (certificates) and, unlike
/// the single-chain search, `Fn + Send + Sync` (islands share it across
/// worker threads).
///
/// # Panics
///
/// Panics if `config.islands == 0`, `pool` is empty or
/// `space.variants == 0`.
pub fn worst_case_search_islands<E>(
    space: &SearchSpace,
    pool: &[(Candidate, Evaluation)],
    evaluate: E,
    config: &IslandConfig,
    runner: &BatchRunner,
) -> IslandOutcome
where
    E: Fn(&Candidate) -> Evaluation + Send + Sync,
{
    assert!(config.islands > 0, "island search needs >= 1 island");
    let islands: Vec<u32> = (0..config.islands).collect();
    let outcomes = runner.run_map(&islands, |&island| {
        worst_case_search(
            space,
            pool,
            |c| evaluate(c),
            &SearchConfig {
                iterations: config.iterations,
                seed: island_seed(config.seed, island),
                cooling: config.cooling,
            },
        )
    });
    let mut merged: Option<(u32, SearchOutcome)> = None;
    let mut evaluations = 0u32;
    for (island, outcome) in outcomes.into_iter().enumerate() {
        evaluations += outcome.evaluations;
        if ssle_telemetry::enabled() {
            ssle_telemetry::emit(
                ssle_telemetry::Event::new("search_island")
                    .field("island", island)
                    .count("accepted", u64::from(outcome.stats.accepted))
                    .count("rejected", u64::from(outcome.stats.rejected))
                    .count("best_steps", outcome.best.steps)
                    .field("final_temperature", outcome.stats.final_temperature),
            );
        }
        // Strict `>` keeps the lowest island on ties — the merge order is
        // island order, never completion order.
        if merged
            .as_ref()
            .is_none_or(|(_, best)| outcome.best.steps > best.best.steps)
        {
            merged = Some((island as u32, outcome));
        }
    }
    let (best_island, outcome) = merged.expect("at least one island");
    if ssle_telemetry::enabled() {
        ssle_telemetry::emit(
            ssle_telemetry::Event::new("search_summary")
                .field("islands", config.islands as usize)
                .count("evaluations", u64::from(evaluations))
                .count("best_steps", outcome.best.steps)
                .field("best_island", best_island as usize),
        );
    }
    IslandOutcome {
        best: outcome.best,
        best_island,
        evaluations,
    }
}

/// The disjoint per-island seed stream: one SplitMix64 scramble of the base
/// seed and the island index, so neighbouring indices land in unrelated
/// regions of the `ChaCha8Rng` seed space.
fn island_seed(seed: u64, island: u32) -> u64 {
    let mut z = seed.wrapping_add((island as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Proposes a neighbour of `candidate`: a new seed, a different variant, a
/// scheduler mutation, a fault-plan mutation, a churn-plan mutation or a
/// graph-family mutation.
fn mutate(candidate: &Candidate, space: &SearchSpace, rng: &mut ChaCha8Rng) -> Candidate {
    let mut next = candidate.clone();
    // The move table: reseed, variant switch (when available), scheduler
    // mutation ×2 and fault/churn mutations ×2 — the structured axes are
    // richer than a reseed, so they get the bulk of the mass.  Disabled
    // domains contribute no entries, so the proposal stream of the smaller
    // spaces is bit-identical to what it was before the axes existed
    // (committed certificates replay unchanged).
    let mut moves: Vec<u8> = vec![0];
    if space.variants > 1 {
        moves.push(1);
    }
    moves.extend([2, 2]);
    if space.faults.enabled {
        moves.extend([3, 3]);
    }
    if space.churn.enabled {
        moves.extend([4, 4]);
    }
    if space.graph.enabled {
        moves.push(5);
    }
    match moves[rng.gen_range(0..moves.len())] {
        0 => next.seed = rng.gen(),
        1 => {
            // Uniform over the *other* variants.
            let shift = rng.gen_range(1..space.variants);
            next.variant = (next.variant + shift) % space.variants;
        }
        2 => next.spec = space.specs.tweak(&next.spec, rng),
        3 => next.faults = space.faults.tweak(&next.faults, rng),
        4 => next.churn = space.churn.tweak(&next.churn, rng),
        _ => next.graph = space.graph.tweak(&next.graph, rng),
    }
    next
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A deterministic synthetic objective with structure for the search to
    /// exploit: rewards epoch partitions with many blocks, late fault bursts,
    /// plus a seed-dependent wrinkle.
    fn synthetic(c: &Candidate) -> Evaluation {
        let spec_score = match &c.spec {
            SchedulerSpec::Random => 10,
            SchedulerSpec::Weighted { bias, .. } => 20 + *bias as u64,
            SchedulerSpec::EpochPartition { blocks, .. } => 50 + 10 * *blocks as u64,
            SchedulerSpec::Greedy { candidates } => 40 + *candidates as u64,
        };
        let fault_score: u64 = c.faults.events().iter().map(|e| 5 + e.at_step / 64).sum();
        let steps = spec_score + fault_score + (c.seed % 7) + 5 * c.variant as u64;
        Evaluation {
            steps,
            converged: true,
        }
    }

    fn pool() -> Vec<(Candidate, Evaluation)> {
        (0..3u64)
            .map(|s| {
                let c = Candidate::baseline(s);
                let e = synthetic(&c);
                (c, e)
            })
            .collect()
    }

    fn space() -> SearchSpace {
        SearchSpace {
            variants: 3,
            specs: SpecDomain::all(),
            faults: FaultDomain::bursts(256, 8),
            churn: ChurnDomain::rewirings(256, 4),
            graph: GraphDomain::generated(4),
        }
    }

    #[test]
    fn search_improves_over_the_seed_pool_and_is_deterministic() {
        let config = SearchConfig {
            iterations: 60,
            seed: 9,
            cooling: 0.9,
        };
        let a = worst_case_search(&space(), &pool(), synthetic, &config);
        let b = worst_case_search(&space(), &pool(), synthetic, &config);
        assert_eq!(a.best, b.best, "search is deterministic in its seed");
        assert_eq!(a.evaluations, 60);
        let pool_max = pool().iter().map(|(_, e)| e.steps).max().unwrap();
        assert!(
            a.best.steps > pool_max,
            "60 structured iterations should beat the random pool ({} vs {pool_max})",
            a.best.steps
        );
        // The certificate reproduces.
        assert_eq!(synthetic(&a.best.candidate).steps, a.best.steps);
    }

    #[test]
    fn worst_found_is_never_below_the_pool_maximum() {
        // Even a zero-iteration search returns the pool's max — the
        // invariant behind "worst-found >= mean" in reports.
        let config = SearchConfig {
            iterations: 0,
            ..SearchConfig::default()
        };
        let outcome = worst_case_search(&space(), &pool(), synthetic, &config);
        let pool_max = pool().iter().map(|(_, e)| e.steps).max().unwrap();
        assert_eq!(outcome.best.steps, pool_max);
        assert_eq!(outcome.evaluations, 0);
    }

    #[test]
    fn island_search_is_thread_count_invariant_and_beats_single_islands() {
        let config = IslandConfig {
            islands: 4,
            iterations: 25,
            seed: 17,
            cooling: 0.9,
        };
        let serial = worst_case_search_islands(
            &space(),
            &pool(),
            synthetic,
            &config,
            &BatchRunner::with_threads(1),
        );
        for threads in [2, 4, 16] {
            let parallel = worst_case_search_islands(
                &space(),
                &pool(),
                synthetic,
                &config,
                &BatchRunner::with_threads(threads),
            );
            assert_eq!(
                serial.best, parallel.best,
                "islands vary with {threads} threads"
            );
            assert_eq!(serial.best_island, parallel.best_island);
            assert_eq!(serial.evaluations, parallel.evaluations);
        }
        assert_eq!(serial.evaluations, 100, "islands x iterations evaluations");
        // The merge is best-of: no single island's chain beats it.
        for island in 0..config.islands {
            let single = worst_case_search(
                &space(),
                &pool(),
                synthetic,
                &SearchConfig {
                    iterations: config.iterations,
                    seed: island_seed(config.seed, island),
                    cooling: config.cooling,
                },
            );
            assert!(single.best.steps <= serial.best.steps);
            if island == serial.best_island {
                assert_eq!(single.best, serial.best, "the winning island's chain");
            }
        }
        // Certificates still reproduce through the merge.
        assert_eq!(synthetic(&serial.best.candidate).steps, serial.best.steps);
    }

    #[test]
    fn island_seeds_are_disjoint() {
        let mut seeds: Vec<u64> = (0..64).map(|i| island_seed(0xADF5, i)).collect();
        seeds.sort_unstable();
        seeds.dedup();
        assert_eq!(seeds.len(), 64, "island seed streams must be distinct");
    }

    #[test]
    fn domain_restrictions_are_respected() {
        let space = SearchSpace {
            variants: 1,
            specs: SpecDomain::state_blind(),
            faults: FaultDomain::disabled(),
            churn: ChurnDomain::disabled(),
            graph: GraphDomain::disabled(),
        };
        let config = SearchConfig {
            iterations: 200,
            seed: 3,
            cooling: 0.95,
        };
        let outcome = worst_case_search(
            &space,
            &pool(),
            |c| {
                assert!(
                    !matches!(c.spec, SchedulerSpec::Greedy { .. }),
                    "greedy is outside the domain"
                );
                assert_eq!(c.variant, 0, "single-variant space never switches");
                assert!(c.faults.is_empty(), "disabled fault domain stays empty");
                assert!(c.churn.is_empty(), "disabled churn domain stays empty");
                assert_eq!(c.graph, None, "disabled graph domain keeps the family");
                synthetic(c)
            },
            &config,
        );
        assert!(outcome.best.steps >= 10);
    }

    #[test]
    fn enabled_churn_and_graph_domains_are_explored() {
        let config = SearchConfig {
            iterations: 400,
            seed: 7,
            cooling: 0.95,
        };
        let mut saw_churn = false;
        let mut saw_graph = false;
        worst_case_search(
            &space(),
            &pool(),
            |c| {
                saw_churn |= !c.churn.is_empty();
                saw_graph |= c.graph.is_some();
                synthetic(c)
            },
            &config,
        );
        assert!(saw_churn, "churn proposals reach the evaluator");
        assert!(saw_graph, "graph proposals reach the evaluator");
    }

    #[test]
    fn mutations_stay_in_bounds() {
        let domain = SpecDomain::all();
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        let mut spec = SchedulerSpec::Random;
        for _ in 0..2_000 {
            spec = domain.tweak(&spec, &mut rng);
            match &spec {
                SchedulerSpec::Random => {}
                SchedulerSpec::Weighted {
                    hot_per_mille,
                    bias,
                    ..
                } => {
                    assert!((1..=500).contains(hot_per_mille));
                    assert!((2..=domain.max_bias).contains(bias));
                }
                SchedulerSpec::EpochPartition { blocks, epoch_len } => {
                    assert!((2..=domain.max_blocks).contains(blocks));
                    assert!((1..=domain.max_epoch_len).contains(epoch_len));
                }
                SchedulerSpec::Greedy { candidates } => {
                    assert!((2..=domain.max_candidates).contains(candidates));
                }
            }
        }
    }
}
