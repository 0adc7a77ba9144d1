//! The load-bearing guarantee of the Scenario redesign: the type-erased run
//! path (`DynProtocol` + inline-slot `DynState`s + `AnyGraph`) produces
//! **bit-identical** [`ConvergenceReport`]s and final states to a
//! static-dispatch reference run for every measurable protocol of Table 1,
//! at two population sizes each on the directed ring, and at one size on
//! every graph of the tracked reports.  The incremental leader-change
//! tracking is pinned bit-identical to a from-scratch recount.
//!
//! The reference runs below intentionally re-create the pre-Scenario
//! plumbing (typed `Simulation` + `run_until`) by hand; if erasure ever
//! perturbed the RNG stream, the transition function, the check cadence or
//! the report bookkeeping, these tests would catch it.

use population::{
    downcast_config, slot, Configuration, ConvergenceReport, DirectedRing, DynState,
    InteractionGraph, LeaderElection, Simulation, SweepPoint,
};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use ssle_baselines::{
    angluin_mod_k::{AngluinModK, ModKState},
    fischer_jiang::{FischerJiang, FjState},
    yokota_linear::{YokotaLinear, YokotaState},
};
use ssle_bench::stabilization::GridGraph;
use ssle_bench::{check_interval, pick_k, ProtocolKind, Table1Visitor};
use ssle_core::{init, InitialCondition, Params, Ppl, PplState};

const SIZES: [usize; 2] = [8, 13];
const SEEDS: [u64; 2] = [3, 1_000_001];

/// Static-dispatch reference for the Table 1 trial of `kind` on `graph`: the
/// report, and whether its final states equal `erased_final`.  It has the
/// shape of the deleted `run_*_trial` helpers, reproduced without any state
/// erasure; the ring runs on the concrete `DirectedRing`, so the ring pins
/// check `AnyGraph`'s dispatch too.  The typed setup (protocol, initial
/// configuration, stop criterion) comes from
/// [`ProtocolKind::with_table1_setup`], the single authoritative typed
/// definition also used by the hot-loop benchmarks.
fn reference_trial(
    kind: ProtocolKind,
    graph: GridGraph,
    n: usize,
    seed: u64,
    erased_final: &Configuration<DynState>,
) -> (ConvergenceReport, bool) {
    struct TypedReference<'a> {
        graph: GridGraph,
        n: usize,
        seed: u64,
        check: u64,
        budget: u64,
        erased_final: &'a Configuration<DynState>,
    }
    impl TypedReference<'_> {
        fn run<P, G, F>(
            self,
            protocol: P,
            graph: G,
            config: Configuration<P::State>,
            stop: F,
        ) -> (ConvergenceReport, bool)
        where
            P: LeaderElection + 'static,
            G: InteractionGraph,
            F: Fn(&P, &Configuration<P::State>) -> bool,
        {
            let mut sim = Simulation::new(protocol, graph, config, self.seed);
            let report = sim.run_until(stop, self.check, self.budget);
            let erased =
                downcast_config::<P::State>(self.erased_final).expect("homogeneous states");
            (report, erased.states() == sim.config().states())
        }
    }
    impl Table1Visitor for TypedReference<'_> {
        type Output = (ConvergenceReport, bool);
        fn visit<P, F>(
            self,
            protocol: P,
            config: Configuration<P::State>,
            stop: F,
        ) -> (ConvergenceReport, bool)
        where
            P: LeaderElection + 'static,
            P::State: std::any::Any,
            F: Fn(&P, &Configuration<P::State>) -> bool + Send + Sync + 'static,
        {
            let n = self.n;
            match self.graph {
                GridGraph::Ring => {
                    let ring = DirectedRing::new(n).expect("n >= 2");
                    self.run(protocol, ring, config, stop)
                }
                graph => {
                    let built = graph.family().build(n).expect("buildable graph");
                    self.run(protocol, built, config, stop)
                }
            }
        }
    }
    let (mut report, states_match) = kind.with_table1_setup(
        n,
        seed,
        TypedReference {
            graph,
            n,
            seed,
            check: check_interval(n),
            budget: kind.trial_budget(n),
            erased_final,
        },
    );
    // `run_until` names its criterion "predicate"; the scenario names it
    // after the stop criterion.  Align the names so every *other* field must
    // match bit for bit.
    report.criterion = kind.scenario().stop_name().to_string().into();
    (report, states_match)
}

/// Runs the erased Table 1 trial of `kind` on `graph` at `(n, seed)` and
/// asserts that its report and final states equal the typed reference's;
/// returns the report.
fn assert_matches_reference(
    kind: ProtocolKind,
    graph: GridGraph,
    n: usize,
    seed: u64,
) -> ConvergenceReport {
    let run = kind
        .scenario()
        .with_graph(graph.family())
        .run_full(&SweepPoint::new(n, seed));
    let (reference, states_match) = reference_trial(kind, graph, n, seed, run.sim.config());
    let label = format!(
        "{} on {} at n = {n}, seed = {seed}",
        kind.name(),
        graph.key()
    );
    assert_eq!(run.report, reference, "{label}: report diverged");
    assert!(states_match, "{label}: final states diverged");
    run.report
}

/// The scheduler plumbing (PR 4) must not perturb the default path: a
/// `Scenario` whose `SchedulerFamily` routes `RandomScheduler` through the
/// boxed `DynScheduler` loop consumes the RNG exactly like the inlined fast
/// path, so reports stay bit-identical to the static-dispatch reference for
/// every Table 1 protocol (and the default-family runs in the other tests of
/// this file keep pinning the fast path itself).
#[test]
fn boxed_random_scheduler_matches_the_fast_path_bit_for_bit() {
    use population::{RandomScheduler, SchedulerFamily};
    for kind in ProtocolKind::ALL {
        let fast = kind.scenario();
        let boxed = kind
            .scenario()
            .with_scheduler(SchedulerFamily::custom("random-boxed", |_pt, _g| {
                Box::new(RandomScheduler::new())
            }));
        for n in SIZES {
            for seed in SEEDS {
                let point = SweepPoint::new(n, seed);
                let fast_run = fast.run_full(&point);
                let boxed_run = boxed.run_full(&point);
                assert_eq!(
                    fast_run.report,
                    boxed_run.report,
                    "{}: boxed random scheduler diverged at n = {n}, seed = {seed}",
                    kind.name()
                );
                assert_eq!(
                    fast_run.sim.config().states(),
                    boxed_run.sim.config().states(),
                    "{}: final states diverged at n = {n}, seed = {seed}",
                    kind.name()
                );
            }
        }
    }
}

#[test]
fn dyn_erased_scenarios_match_static_dispatch_bit_for_bit() {
    for kind in ProtocolKind::ALL {
        for n in SIZES {
            for seed in SEEDS {
                let report = assert_matches_reference(kind, GridGraph::Ring, n, seed);
                assert!(
                    report.converged(),
                    "{} should converge at n = {n} (otherwise the equivalence is vacuous)",
                    kind.name()
                );
            }
        }
    }
}

#[test]
fn paper_constants_variant_also_matches() {
    for n in SIZES {
        assert_matches_reference(ProtocolKind::PplPaperConstants, GridGraph::Ring, n, 2);
    }
}

/// Erasure matches static dispatch on every graph of the tracked reports,
/// not only the ring: every Table 1 protocol at n = 16, censored runs
/// included.
#[test]
fn erased_scenarios_match_static_dispatch_on_every_grid_graph() {
    for kind in ProtocolKind::ALL {
        for graph in GridGraph::ALL {
            for seed in SEEDS {
                assert_matches_reference(kind, graph, 16, seed);
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Inline-slot representation (PR 3)
// ---------------------------------------------------------------------------

/// The inline slot was sized so that every Table 1 protocol state is stored
/// in-line; if a state ever outgrows the slot, this fails loudly instead of
/// silently re-boxing the hot loop.
#[test]
fn all_table1_states_take_the_inline_path() {
    assert!(slot::fits_inline::<PplState>(), "PplState must stay inline");
    assert!(slot::fits_inline::<YokotaState>());
    assert!(slot::fits_inline::<FjState>());
    assert!(slot::fits_inline::<ModKState>());

    let params = Params::for_ring(8);
    let ppl_state =
        init::generate(InitialCondition::UniformRandom, 8, &params, 1).states()[0].clone();
    assert!(DynState::new(ppl_state).is_inline());
    assert!(DynState::new(FjState::sample_uniform(&mut ChaCha8Rng::seed_from_u64(1))).is_inline());
    assert!(DynState::new(ModKState::new(2)).is_inline());
    let yokota = YokotaLinear::for_ring(8);
    assert!(DynState::new(YokotaState::sample_uniform(
        &mut ChaCha8Rng::seed_from_u64(1),
        yokota.cap()
    ))
    .is_inline());
}

// ---------------------------------------------------------------------------
// Incremental leader counting (PR 3)
// ---------------------------------------------------------------------------

/// One protocol's incremental-vs-recount check: `run_tracking_leader_changes`
/// (the incremental `LeaderCounter` path) against a from-scratch recount
/// loop on an identical simulation.
fn assert_incremental_tracking_matches<P>(
    protocol: P,
    config: Configuration<P::State>,
    seed: u64,
    steps: u64,
) where
    P: LeaderElection + 'static,
{
    let n = config.len();
    let mut incremental = Simulation::new(
        protocol.clone(),
        DirectedRing::new(n).expect("n >= 2"),
        config.clone(),
        seed,
    );
    let changes = incremental.run_tracking_leader_changes(steps);

    // Reference: the pre-observer algorithm — recompute the full leader
    // index vector after every step.
    let mut reference = Simulation::new(
        protocol.clone(),
        DirectedRing::new(n).expect("n >= 2"),
        config,
        seed,
    );
    let mut reference_changes = Vec::new();
    let mut current = protocol.leader_indices(reference.config().states());
    for _ in 0..steps {
        reference.step();
        let now = protocol.leader_indices(reference.config().states());
        if now != current {
            reference_changes.push(reference.steps());
            current = now;
        }
    }

    assert_eq!(
        changes,
        reference_changes,
        "{}: change steps diverged",
        protocol.name()
    );
    assert_eq!(
        incremental.config().states(),
        reference.config().states(),
        "{}: final states diverged",
        protocol.name()
    );
    assert_eq!(
        incremental.count_leaders(),
        protocol.count_leaders(reference.config().states()),
        "{}: final leader count diverged",
        protocol.name()
    );
}

/// The incremental leader-count path is bit-identical to the recount
/// reference for all four Table 1 protocols × 2 sizes × 2 seeds (the oracle
/// baseline included: its broadcast never changes a leader output).
#[test]
fn incremental_leader_tracking_matches_the_recount_reference() {
    const STEPS: u64 = 20_000;
    for n in SIZES {
        for seed in SEEDS {
            let params = Params::for_ring(n);
            assert_incremental_tracking_matches(
                Ppl::new(params),
                init::generate(InitialCondition::UniformRandom, n, &params, seed),
                seed,
                STEPS,
            );
            let yokota = YokotaLinear::for_ring(n);
            let cap = yokota.cap();
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            assert_incremental_tracking_matches(
                yokota,
                Configuration::from_fn(n, |_| YokotaState::sample_uniform(&mut rng, cap)),
                seed,
                STEPS,
            );
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            assert_incremental_tracking_matches(
                FischerJiang::new(),
                Configuration::from_fn(n, |_| FjState::sample_uniform(&mut rng)),
                seed,
                STEPS,
            );
            let k = pick_k(n);
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            assert_incremental_tracking_matches(
                AngluinModK::new(k),
                Configuration::from_fn(n, |_| ModKState::sample_uniform(&mut rng, k)),
                seed,
                STEPS,
            );
        }
    }
}

/// The static-topology half of the dynamic-topology contract: attaching a
/// churn plan that never does anything — the empty plan, and a plan whose
/// only event sits beyond any reachable step — leaves the RNG stream, the
/// report and the final configuration bit-identical to the plain run for
/// every Table 1 protocol.  Churn draws from a dedicated RNG stream keyed
/// by the fire step, so merely *carrying* a plan must be free.
#[test]
fn empty_and_unreached_churn_plans_leave_runs_bit_identical() {
    use population::{ChurnKind, ChurnPlan};
    for kind in ProtocolKind::ALL {
        for n in SIZES {
            for seed in SEEDS {
                let pt = SweepPoint::new(n, seed);
                let plain = kind.scenario().run_full(&pt);
                for (name, plan) in [
                    ("empty", ChurnPlan::new()),
                    ("unreached", ChurnPlan::new().at(u64::MAX, ChurnKind::Heal)),
                ] {
                    let churned = kind.scenario().with_churn_plan(plan).run_full(&pt);
                    assert_eq!(
                        plain.report,
                        churned.report,
                        "{} n={n} seed={seed}: {name} churn plan perturbed the report",
                        kind.key()
                    );
                    assert_eq!(
                        *plain.sim.config(),
                        *churned.sim.config(),
                        "{} n={n} seed={seed}: {name} churn plan perturbed the final states",
                        kind.key()
                    );
                }
            }
        }
    }
}

/// The Table 1 scenario of `kind`, made hostile-ready: the protocol's
/// uniform state sampler is its corruption function.
fn hostile_ready(kind: ProtocolKind) -> population::Scenario {
    use population::{Protocol, ScenarioBuilder};
    fn ready<P>(
        builder: ScenarioBuilder<P>,
        kind: ProtocolKind,
        sample: fn(&P, &mut ChaCha8Rng) -> P::State,
    ) -> population::Scenario
    where
        P: Protocol + 'static,
        P::State: std::any::Any,
    {
        builder
            .step_budget(move |pt| kind.trial_budget(pt.n))
            .corruption(move |p, rng, _agent| sample(p, rng))
            .build()
            .expect("complete scenario")
    }
    match kind {
        ProtocolKind::Ppl | ProtocolKind::PplPaperConstants => ready(
            ssle_bench::ppl_builder(InitialCondition::UniformRandom),
            kind,
            |p, rng| PplState::sample_uniform(rng, p.params()),
        ),
        ProtocolKind::Yokota => ready(ssle_bench::yokota_builder(), kind, |p, rng| {
            YokotaState::sample_uniform(rng, p.cap())
        }),
        ProtocolKind::FischerJiang => {
            ready(ssle_bench::fischer_jiang_builder(), kind, |_p, rng| {
                FjState::sample_uniform(rng)
            })
        }
        ProtocolKind::AngluinModK => ready(ssle_bench::angluin_builder(), kind, |p, rng| {
            ModKState::sample_uniform(rng, p.k())
        }),
    }
}

/// A phase-less custom scheduler that follows churn yet differs from the
/// uniform one: of two uniform draws from the current graph it takes the
/// arc whose initiator has the smaller index.
struct LowInitiator;

impl<G: population::InteractionGraph> population::Scheduler<G> for LowInitiator {
    fn next_interaction<R: rand::Rng + ?Sized>(
        &mut self,
        graph: &G,
        rng: &mut R,
    ) -> population::Result<population::Interaction> {
        let (a, b) = (graph.sample(rng), graph.sample(rng));
        Ok(if b.initiator().index() < a.initiator().index() {
            b
        } else {
            a
        })
    }
}

/// The three entry points run one process: for every Table 1 protocol,
/// under the uniform and a custom phase-less scheduler (so detection stays
/// off), with no plan, a timed crash burst and a churn plan, the detecting run reports and ends exactly like the plain run, and
/// a trajectory sampled on the stop-check grid up to the executed steps
/// ends on the plain run's final leader count.
#[test]
fn entry_points_agree_under_every_scheduler_and_plan() {
    use population::{ChurnKind, ChurnPlan, FaultKind, FaultPlan, SchedulerFamily};

    let n = 8;
    let schedulers = [
        SchedulerFamily::Random,
        SchedulerFamily::custom("low-initiator", |_pt, _graph| Box::new(LowInitiator)),
    ];
    for kind in ProtocolKind::ALL {
        let plans: [(&str, population::Scenario); 3] = [
            ("empty", hostile_ready(kind)),
            (
                "crash",
                hostile_ready(kind).with_fault_plan(
                    FaultPlan::new().at(40, FaultKind::CorruptRandomAgents { count: 3 }),
                ),
            ),
            (
                "churn",
                hostile_ready(kind).with_churn_plan(
                    ChurnPlan::new()
                        .at(20, ChurnKind::Rewire { count: 2 })
                        .at(300, ChurnKind::Heal),
                ),
            ),
        ];
        for family in &schedulers {
            for (plan, base) in &plans {
                let scenario = base.clone().with_scheduler(family.clone());
                let label = format!("{} {} {plan}", kind.key(), family.name());
                for seed in SEEDS {
                    let point = SweepPoint::new(n, seed);
                    let plain = scenario.run_full(&point);
                    assert_eq!(scenario.try_run(&point).unwrap(), plain.report, "{label}");
                    let detected = scenario.try_run_detecting(&point).unwrap();
                    assert!(detected.recurrence.is_none(), "{label}");
                    assert_eq!(detected.report, plain.report, "{label} seed={seed}");
                    assert_eq!(
                        *detected.sim.config(),
                        *plain.sim.config(),
                        "{label} seed={seed}: detection perturbed the final states"
                    );
                    let trajectory = scenario
                        .try_leader_trajectory(
                            &point,
                            plain.report.steps_executed,
                            check_interval(n),
                        )
                        .unwrap();
                    assert_eq!(
                        trajectory.last(),
                        Some(&(plain.report.steps_executed, plain.sim.count_leaders())),
                        "{label} seed={seed}: the trajectory ended elsewhere"
                    );
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Fischer–Jiang's oracle
// ---------------------------------------------------------------------------

/// Fischer–Jiang's transition with no oracle: the reference below runs the
/// oracle itself, out of band.
#[derive(Clone, Debug)]
struct OracleFreeFj;

impl population::Protocol for OracleFreeFj {
    type State = FjState;

    fn interact(&self, initiator: &mut FjState, responder: &mut FjState) {
        population::Protocol::interact(&FischerJiang::new(), initiator, responder);
    }
}

/// The oracle `Ω?` as a full scan of the configuration and a broadcast to
/// every agent, the way it ran before every interaction when it was first
/// written.
fn scan_and_broadcast(states: &mut [FjState]) {
    use ssle_core::state::bullet;
    let no_leader = !states.iter().any(|s| s.leader);
    let no_bullet = states.iter().all(|s| s.bullet == bullet::NONE);
    for s in states.iter_mut() {
        s.oracle_no_leader = no_leader;
        if no_bullet {
            s.may_fire = true;
        }
    }
}

/// One reference step: the scan-and-broadcast oracle through `config_mut`,
/// then an oracle-free interaction drawn from the simulation's own seeded
/// stream (uniformly, or by `scheduler`).
fn scan_reference_step(
    sim: &mut Simulation<OracleFreeFj, DirectedRing>,
    scheduler: Option<&mut LowInitiator>,
) {
    scan_and_broadcast(sim.config_mut().states_mut());
    match scheduler {
        Some(s) => {
            sim.step_with_scheduler(s).expect("ring arcs");
        }
        None => {
            sim.step();
        }
    }
}

/// How the oracle pin drives both simulations.
#[derive(Clone, Copy, Debug, PartialEq)]
enum FjDrive {
    /// Uniform `run_steps` bursts.
    Uniform,
    /// `step_with_scheduler` under [`LowInitiator`].
    Scheduled,
    /// Uniform bursts, each followed by a `config_mut` rewrite of a random
    /// agent.
    Rewritten,
}

/// The typed `Simulation<FischerJiang, _>` runs exactly the process of the
/// per-step scan: for n ∈ {3, 8, 64} × 4 seeds, under uniform bursts, a
/// custom scheduler and out-of-band rewrites, the configurations agree after
/// every burst; and the erased `Scenario` run converges at exactly the
/// reference's step.
#[test]
fn fischer_jiang_oracle_matches_the_per_step_scan() {
    use rand::Rng;
    const BURSTS: usize = 40;
    const BURST: u64 = 97;
    for n in [3usize, 8, 64] {
        for seed in [1u64, 7, 42, 1_000_003] {
            let ring = DirectedRing::new(n).expect("n >= 2");
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            let init = Configuration::from_fn(n, |_| FjState::sample_uniform(&mut rng));
            for drive in [FjDrive::Uniform, FjDrive::Scheduled, FjDrive::Rewritten] {
                let mut typed = Simulation::new(FischerJiang::new(), ring, init.clone(), seed);
                let mut reference = Simulation::new(OracleFreeFj, ring, init.clone(), seed);
                let mut faults = ChaCha8Rng::seed_from_u64(seed ^ 0xFA17);
                for burst in 0..BURSTS {
                    if drive == FjDrive::Scheduled {
                        for _ in 0..BURST {
                            typed
                                .step_with_scheduler(&mut LowInitiator)
                                .expect("ring arcs");
                            scan_reference_step(&mut reference, Some(&mut LowInitiator));
                        }
                    } else {
                        typed.run_steps(BURST);
                        for _ in 0..BURST {
                            scan_reference_step(&mut reference, None);
                        }
                    }
                    assert_eq!(
                        typed.config(),
                        reference.config(),
                        "n={n} seed={seed} {drive:?}: diverged in burst {burst}"
                    );
                    if drive == FjDrive::Rewritten {
                        let agent = faults.gen_range(0..n);
                        let state = FjState::sample_uniform(&mut faults);
                        typed.config_mut()[agent] = state;
                        reference.config_mut()[agent] = state;
                    }
                }
            }

            // The erased Scenario run: same start, same stream, same checks.
            let kind = ProtocolKind::FischerJiang;
            let (check, budget) = (check_interval(n), kind.trial_budget(n));
            let mut reference = Simulation::new(OracleFreeFj, ring, init.clone(), seed);
            let converged = |sim: &Simulation<OracleFreeFj, DirectedRing>| {
                ssle_baselines::fischer_jiang::has_stable_unique_leader(sim.config())
            };
            let mut converged_at = converged(&reference).then_some(0);
            while converged_at.is_none() && reference.steps() < budget {
                for _ in 0..check.min(budget - reference.steps()) {
                    scan_reference_step(&mut reference, None);
                }
                converged_at = converged(&reference).then_some(reference.steps());
            }
            assert!(converged_at.is_some(), "n={n} seed={seed}: vacuous pin");
            let run = kind
                .scenario()
                .try_run_full(&SweepPoint::new(n, seed))
                .expect("fischer-jiang runs");
            assert_eq!(
                run.report.converged_at, converged_at,
                "n={n} seed={seed}: scenario convergence step"
            );
            assert_eq!(
                downcast_config::<FjState>(run.sim.config()).expect("FjState states"),
                *reference.config(),
                "n={n} seed={seed}: scenario final states"
            );
        }
    }
}

/// The dynamic half: runs that *do* churn — an early rewire followed by a
/// heal — are a deterministic function of the sweep point alone.  Sharding
/// the same batch over 1 and 4 [`population::BatchRunner`] threads yields
/// bit-identical reports and final configurations, the thread-invariance
/// contract every churned report cell relies on.
#[test]
fn churned_runs_are_bit_identical_across_thread_counts() {
    use population::{BatchRunner, ChurnKind, ChurnPlan};
    let points: Vec<SweepPoint> = SEEDS
        .iter()
        .flat_map(|&seed| SIZES.map(|n| SweepPoint::new(n, seed)))
        .collect();
    for kind in ProtocolKind::ALL {
        let run_batch = |threads: usize| {
            BatchRunner::with_threads(threads).run_map(&points, |pt| {
                let full = kind
                    .scenario()
                    .with_churn_plan(
                        ChurnPlan::new()
                            .at(32, ChurnKind::Rewire { count: 2 })
                            .at(512, ChurnKind::Heal),
                    )
                    .run_full(pt);
                (full.report, full.sim.config().clone())
            })
        };
        assert_eq!(
            run_batch(1),
            run_batch(4),
            "{}: churned batch diverged across thread counts",
            kind.key()
        );
    }
}

/// `run_steps(k)` against `k` calls of `step()`, from clones of `sim`: for
/// every burst length in a sequence that crosses the uniform burst's block
/// size, the configuration and step count agree,
/// and after a `config_mut` rewrite between bursts so do the next ones.  At
/// the end both simulations draw the same next RNG word.
fn assert_burst_matches_single_steps<P, G>(label: &str, sim: Simulation<P, G>)
where
    P: population::Protocol,
    G: population::InteractionGraph + Clone,
{
    use rand::RngCore;
    let (mut burst, mut single) = (sim.clone(), sim);
    let n = burst.num_agents();
    for (round, k) in [0u64, 1, 63, 64, 65, 1000].into_iter().enumerate() {
        burst.run_steps(k);
        for _ in 0..k {
            single.step();
        }
        assert!(
            burst.config() == single.config(),
            "{label}: burst of {k} left a different configuration"
        );
        assert_eq!(burst.steps(), single.steps(), "{label}: burst of {k}");
        // An out-of-band rewrite: copy one agent's state over another.
        for sim in [&mut burst, &mut single] {
            let states = sim.config_mut().states_mut();
            states[round % n] = states[(7 * round + 3) % n].clone();
        }
    }
    let next_word = |sim: &mut Simulation<P, G>| {
        let mut word = 0;
        sim.step_chosen_by(|graph, _, rng| {
            word = rng.next_u64();
            Ok(graph.sample(rng))
        })
        .expect("a sampled arc is an arc");
        word
    };
    assert_eq!(
        next_word(&mut burst),
        next_word(&mut single),
        "{label}: RNG"
    );
}

/// The uniform burst hands blocks of sampled arcs to the protocol at once;
/// it must run exactly the process of single steps, for every Table 1
/// protocol, typed and erased (Fischer–Jiang's oracle fold included).
#[test]
fn uniform_bursts_match_single_steps() {
    struct Pin {
        n: usize,
        label: String,
    }
    impl Table1Visitor for Pin {
        type Output = ();
        fn visit<P, F>(self, protocol: P, config: Configuration<P::State>, _stop: F)
        where
            P: LeaderElection + 'static,
            P::State: std::any::Any,
            F: Fn(&P, &Configuration<P::State>) -> bool + Send + Sync + 'static,
        {
            let ring = DirectedRing::new(self.n).expect("n >= 2");
            let erased: Configuration<DynState> =
                config.states().iter().cloned().map(DynState::new).collect();
            let any_ring = population::GraphFamily::DirectedRing
                .build(self.n)
                .expect("n >= 2");
            let seed = self.n as u64 ^ 0xB10C;
            assert_burst_matches_single_steps(
                &format!("{} typed", self.label),
                Simulation::new(protocol.clone(), ring, config, seed),
            );
            assert_burst_matches_single_steps(
                &format!("{} erased", self.label),
                Simulation::new(
                    population::DynProtocol::erase(protocol),
                    any_ring,
                    erased,
                    seed,
                ),
            );
        }
    }
    for kind in ProtocolKind::ALL {
        for (n, seed) in [(8usize, 3u64), (64, 1_000_001)] {
            let label = format!("{} n={n} seed={seed}", kind.key());
            kind.with_table1_setup(n, seed, Pin { n, label });
        }
    }
}

/// A state-blind scheduler that draws uniform arcs and, at its `at`-th
/// call, returns a pair that is not an arc of the ring.
struct StrayAt {
    at: u64,
    calls: u64,
}

impl population::Scheduler<population::AnyGraph> for StrayAt {
    fn next_interaction<R: rand::Rng + ?Sized>(
        &mut self,
        graph: &population::AnyGraph,
        rng: &mut R,
    ) -> population::Result<population::Interaction> {
        self.calls += 1;
        let arc = graph.sample(rng);
        Ok(if self.calls == self.at {
            population::Interaction::new(arc.responder().index(), arc.initiator().index())
        } else {
            arc
        })
    }
}

/// `run_chosen_by` over [`population::DynScheduler::schedule_block`]
/// against the per-step loop of a scheduled run (`step_chosen_by` over
/// `schedule`), from clones of `sim` and two schedulers built alike: for
/// every burst length in a sequence that crosses the block size, with an
/// out-of-band rewrite (what a fault does) between bursts, both runs leave
/// the same configuration and step count, and fail with the same error at
/// the same step.  After the last burst, or the error, both simulations
/// draw the same next RNG word.  Returns the error, if any, and the steps
/// run.
fn assert_scheduled_blocks_match_single_steps(
    label: &str,
    sim: &Simulation<population::DynProtocol, population::AnyGraph>,
    build: &dyn Fn(&population::AnyGraph) -> Box<dyn population::DynScheduler>,
) -> (population::Result<()>, u64) {
    use rand::RngCore;
    let (mut blocked, mut single) = (sim.clone(), sim.clone());
    let (mut by_block, mut by_step) = (build(sim.graph()), build(sim.graph()));
    let n = blocked.num_agents();
    let mut outcome = Ok(());
    for (round, k) in [0u64, 1, 63, 64, 65, 1000].into_iter().enumerate() {
        let block_result = blocked.run_chosen_by(k, |g, c, rng, arcs| {
            by_block.schedule_block(g, c.states(), rng, arcs)
        });
        let step_result = (0..k).try_for_each(|_| {
            single
                .step_chosen_by(|g, c, rng| by_step.schedule(g, c.states(), rng))
                .map(drop)
        });
        assert_eq!(block_result, step_result, "{label}: burst of {k}");
        assert!(
            blocked.config() == single.config(),
            "{label}: burst of {k} left a different configuration"
        );
        assert_eq!(blocked.steps(), single.steps(), "{label}: burst of {k}");
        if block_result.is_err() {
            outcome = block_result;
            break;
        }
        for sim in [&mut blocked, &mut single] {
            let states = sim.config_mut().states_mut();
            states[round % n] = states[(7 * round + 3) % n].clone();
        }
    }
    let steps = blocked.steps();
    let next_word = |sim: &mut Simulation<population::DynProtocol, population::AnyGraph>| {
        let mut word = 0;
        sim.step_chosen_by(|graph, _, rng| {
            word = rng.next_u64();
            Ok(graph.sample(rng))
        })
        .expect("a sampled arc is an arc");
        word
    };
    assert_eq!(
        next_word(&mut blocked),
        next_word(&mut single),
        "{label}: RNG"
    );
    (outcome, steps)
}

/// Scheduled bursts hand blocks of a state-blind scheduler's arcs to the
/// protocol at once; they must run exactly the process of single scheduled
/// steps, for every Table 1 protocol, under the weighted and
/// epoch-partition schedulers, a sequence that runs out mid-block and a
/// scheduler that returns a non-arc mid-block.  The state-aware greedy
/// adversary, which chooses one arc per block, must too.  The scenario path agrees
/// too: a plain run (blocks) and a detecting run (single steps) of an
/// epoch-partition scenario with a fault inside the run end alike.
#[test]
fn scheduled_blocks_match_single_steps() {
    use population::{AnyGraph, DynScheduler, Interaction, InteractionSeq, SequenceScheduler};
    use ssle_adversary::{EpochPartitionScheduler, WeightedScheduler};

    type Build = Box<dyn Fn(&AnyGraph) -> Box<dyn DynScheduler>>;
    let schedulers: [(&str, Build); 4] = [
        (
            "weighted",
            Box::new(|g| Box::new(WeightedScheduler::biased(g, 2, 16, 0xB1A5))),
        ),
        (
            "epoch-partition",
            Box::new(|g| Box::new(EpochPartitionScheduler::new(g, 3, 8).expect("ring arcs"))),
        ),
        (
            // 150 arcs: the sequence runs out 22 steps into the burst of 65.
            "sequence",
            Box::new(|g| {
                let arcs = g.arcs();
                let seq: Vec<Interaction> = (0..150).map(|i| arcs[i * 5 % arcs.len()]).collect();
                Box::new(SequenceScheduler::new(InteractionSeq::from_interactions(
                    seq,
                )))
            }),
        ),
        (
            // The 200th call: 7 steps into the burst of 1000.
            "stray",
            Box::new(|_| Box::new(StrayAt { at: 200, calls: 0 })),
        ),
    ];

    struct Pin<'a> {
        kind: ProtocolKind,
        n: usize,
        label: String,
        schedulers: &'a [(&'a str, Build)],
    }
    impl Table1Visitor for Pin<'_> {
        type Output = ();
        fn visit<P, F>(self, protocol: P, config: Configuration<P::State>, _stop: F)
        where
            P: LeaderElection + 'static,
            P::State: std::any::Any,
            F: Fn(&P, &Configuration<P::State>) -> bool + Send + Sync + 'static,
        {
            let erased: Configuration<DynState> =
                config.states().iter().cloned().map(DynState::new).collect();
            let ring = population::GraphFamily::DirectedRing
                .build(self.n)
                .expect("n >= 2");
            let sim = Simulation::new(
                population::DynProtocol::erase(protocol),
                ring,
                erased,
                self.n as u64 ^ 0x5C4ED,
            );
            let scorer = ssle_bench::stabilization::leader_delta_scorer(
                ssle_bench::stabilization::dyn_protocol(self.kind, self.n),
            );
            let greedy: Build = Box::new(move |_| {
                Box::new(ssle_adversary::GreedyAdversary::new(scorer.clone(), 3))
            });
            for (name, build) in self.schedulers.iter().chain([&("greedy", greedy)]) {
                let label = format!("{} {name}", self.label);
                let outcome = assert_scheduled_blocks_match_single_steps(&label, &sim, build);
                // Each error ends the run at the step that raised it.
                use population::PopulationError::{NotAnArc, ScheduleExhausted};
                match (*name, outcome) {
                    ("sequence", (Err(ScheduleExhausted { available: 150 }), 150))
                    | ("stray", (Err(NotAnArc { .. }), 199))
                    | ("weighted" | "epoch-partition" | "greedy", (Ok(()), 1193)) => {}
                    (_, outcome) => panic!("{label}: unexpected outcome {outcome:?}"),
                }
            }
        }
    }
    for kind in ProtocolKind::ALL {
        for (n, seed) in [(8usize, 3u64), (64, 1_000_001)] {
            let label = format!("{} n={n} seed={seed}", kind.key());
            kind.with_table1_setup(
                n,
                seed,
                Pin {
                    kind,
                    n,
                    label,
                    schedulers: &schedulers,
                },
            );
        }
    }

    for kind in ProtocolKind::ALL {
        let scenario = hostile_ready(kind)
            .with_scheduler(population::SchedulerFamily::custom(
                "epoch-partition",
                |_pt, g| Box::new(EpochPartitionScheduler::new(g, 3, 8).expect("ring arcs")),
            ))
            .with_fault_plan(
                population::FaultPlan::new()
                    .at(100, population::FaultKind::CorruptRandomAgents { count: 3 }),
            );
        for seed in SEEDS {
            let point = SweepPoint::new(16, seed);
            let plain = scenario.try_run_full(&point).unwrap();
            let detected = scenario.try_run_detecting(&point).unwrap();
            assert!(detected.recurrence.is_none(), "{} seed={seed}", kind.key());
            assert_eq!(detected.report, plain.report, "{} seed={seed}", kind.key());
            assert_eq!(
                *detected.sim.config(),
                *plain.sim.config(),
                "{} seed={seed}: blocks and single steps left different states",
                kind.key()
            );
        }
    }
}
