//! The load-bearing guarantee of the Scenario redesign: the type-erased run
//! path (`DynProtocol` + inline-slot `DynState`s + `AnyGraph`) produces
//! **bit-identical** [`ConvergenceReport`]s to a static-dispatch reference
//! run for every measurable protocol of Table 1, at two population sizes
//! each — and (since the inline-slot change) to the preserved boxed
//! representation, with bit-identical final states and leader-change
//! tracking.
//!
//! The reference runs below intentionally re-create the pre-Scenario
//! plumbing (typed `Simulation` + `run_until`) by hand; if erasure ever
//! perturbed the RNG stream, the transition function, the check cadence or
//! the report bookkeeping, these tests would catch it.

use population::{
    downcast_config, slot, Configuration, ConvergenceReport, DirectedRing, DynState,
    LeaderElection, Simulation, SweepPoint,
};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use ssle_baselines::{
    angluin_mod_k::{AngluinModK, ModKState},
    fischer_jiang::{FischerJiang, FjState},
    yokota_linear::{YokotaLinear, YokotaState},
};
use ssle_bench::baseline_boxed::{downcast_boxed_config, BoxedProtocol, BoxedState};
use ssle_bench::{check_interval, pick_k, ProtocolKind, Table1Visitor};
use ssle_core::{in_s_pl, init, InitialCondition, Params, Ppl, PplState};

const SIZES: [usize; 2] = [8, 13];
const SEEDS: [u64; 2] = [3, 1_000_001];

/// Static-dispatch reference for the Table 1 trial of `kind` — the shape of
/// the deleted `run_*_trial` helpers, reproduced without any erasure.  The
/// typed setup (protocol, initial configuration, stop criterion) comes from
/// [`ProtocolKind::with_table1_setup`], the single authoritative typed
/// definition also used by the hot-loop benchmarks.
fn reference_trial(kind: ProtocolKind, n: usize, seed: u64) -> ConvergenceReport {
    struct TypedReference {
        n: usize,
        seed: u64,
        check: u64,
        budget: u64,
    }
    impl Table1Visitor for TypedReference {
        type Output = ConvergenceReport;
        fn visit<P, F>(
            self,
            protocol: P,
            config: Configuration<P::State>,
            stop: F,
        ) -> ConvergenceReport
        where
            P: LeaderElection + 'static,
            P::State: std::any::Any,
            F: Fn(&P, &Configuration<P::State>) -> bool + Send + Sync + 'static,
        {
            let mut sim = Simulation::new(
                protocol,
                DirectedRing::new(self.n).expect("n >= 2"),
                config,
                self.seed,
            );
            sim.run_until(stop, self.check, self.budget)
        }
    }
    let mut report = kind.with_table1_setup(
        n,
        seed,
        TypedReference {
            n,
            seed,
            check: check_interval(n),
            budget: kind.trial_budget(n),
        },
    );
    // `run_until` names its criterion "predicate"; the scenario names it
    // after the stop criterion.  Align the names so every *other* field must
    // match bit for bit.
    report.criterion = kind.scenario().stop_name().to_string().into();
    report
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
        let scenario = kind.scenario();
        for n in SIZES {
            for seed in SEEDS {
                let erased = scenario.run(&SweepPoint::new(n, seed));
                let reference = reference_trial(kind, n, seed);
                assert_eq!(
                    erased,
                    reference,
                    "{} diverged from the static reference at n = {n}, seed = {seed}",
                    kind.name()
                );
                assert!(
                    erased.converged(),
                    "{} should converge at n = {n} (otherwise the equivalence is vacuous)",
                    kind.name()
                );
            }
        }
    }
}

#[test]
fn paper_constants_variant_also_matches() {
    let kind = ProtocolKind::PplPaperConstants;
    let scenario = kind.scenario();
    for n in SIZES {
        let erased = scenario.run(&SweepPoint::new(n, 2));
        let reference = reference_trial(kind, n, 2);
        assert_eq!(erased, reference, "paper-constants diverged at n = {n}");
    }
}

#[test]
fn erased_final_configurations_match_the_typed_ones() {
    // Beyond the report: the final states themselves are identical.
    let n = 8;
    let seed = 5;
    let params = Params::for_ring(n);
    let config = init::generate(InitialCondition::UniformRandom, n, &params, seed);
    let mut typed = Simulation::new(
        Ppl::new(params),
        DirectedRing::new(n).unwrap(),
        config,
        seed,
    );
    typed.run_until(
        |_p, c: &Configuration<PplState>| in_s_pl(c, &params),
        check_interval(n),
        ProtocolKind::Ppl.trial_budget(n),
    );

    let run = ProtocolKind::Ppl
        .scenario()
        .run_full(&SweepPoint::new(n, seed));
    let erased_config =
        population::downcast_config::<PplState>(run.sim.config()).expect("PplState states");
    assert_eq!(erased_config.states(), typed.config().states());
    assert_eq!(run.sim.steps(), typed.steps());
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

/// Runs the Table 1 trial of a typed protocol through the **boxed** erased
/// representation (`baseline_boxed`, the pre-inline-slot production path)
/// and returns the report plus the final typed configuration.
fn boxed_trial<P, F>(
    protocol: P,
    config: Configuration<P::State>,
    seed: u64,
    stop: F,
    check_interval: u64,
    budget: u64,
) -> (ConvergenceReport, Configuration<P::State>)
where
    P: LeaderElection + 'static,
    P::State: std::any::Any,
    F: Fn(&Configuration<P::State>) -> bool,
{
    let n = config.len();
    let boxed: Configuration<BoxedState> = config
        .into_states()
        .into_iter()
        .map(BoxedState::new)
        .collect();
    let mut sim = Simulation::new(
        BoxedProtocol::erase(protocol),
        DirectedRing::new(n).expect("n >= 2"),
        boxed,
        seed,
    );
    let report = sim.run_until(
        |_p, c: &Configuration<BoxedState>| {
            stop(&downcast_boxed_config::<P::State>(c).expect("homogeneous states"))
        },
        check_interval,
        budget,
    );
    let final_config = downcast_boxed_config::<P::State>(sim.config()).expect("homogeneous states");
    (report, final_config)
}

/// Boxed-representation reference for one (kind, n, seed) trial: the report
/// and whether the final states equal `erased_final`.  The typed setup comes
/// from [`ProtocolKind::with_table1_setup`]; only the erased representation
/// differs (heap boxes instead of inline slots).
fn boxed_reference(
    kind: ProtocolKind,
    n: usize,
    seed: u64,
    erased_final: &Configuration<DynState>,
) -> (ConvergenceReport, bool) {
    struct BoxedReference<'a> {
        seed: u64,
        check: u64,
        budget: u64,
        erased_final: &'a Configuration<DynState>,
    }
    impl Table1Visitor for BoxedReference<'_> {
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
            let stop_protocol = protocol.clone();
            let (report, final_config) = boxed_trial(
                protocol,
                config,
                self.seed,
                move |c| stop(&stop_protocol, c),
                self.check,
                self.budget,
            );
            let erased =
                downcast_config::<P::State>(self.erased_final).expect("homogeneous states");
            (report, erased.states() == final_config.states())
        }
    }
    kind.with_table1_setup(
        n,
        seed,
        BoxedReference {
            seed,
            check: check_interval(n),
            budget: kind.trial_budget(n),
            erased_final,
        },
    )
}

/// The inline-slot production path produces bit-identical reports *and*
/// final states to the pre-inline boxed representation, for all four Table 1
/// protocols × 2 sizes × 2 seeds.
#[test]
fn inline_slot_path_matches_the_boxed_reference_bit_for_bit() {
    for kind in ProtocolKind::ALL {
        let scenario = kind.scenario();
        for n in SIZES {
            for seed in SEEDS {
                let run = scenario.run_full(&SweepPoint::new(n, seed));
                let (mut boxed_report, states_match) =
                    boxed_reference(kind, n, seed, run.sim.config());
                boxed_report.criterion = scenario.stop_name().to_string().into();
                assert_eq!(
                    run.report,
                    boxed_report,
                    "{}: inline report diverged from boxed at n = {n}, seed = {seed}",
                    kind.name()
                );
                assert!(
                    states_match,
                    "{}: inline final states diverged from boxed at n = {n}, seed = {seed}",
                    kind.name()
                );
            }
        }
    }
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

/// Inert hostile plumbing must be invisible: a fault plan whose Byzantine
/// window covers **zero agents** (dropped at attach time) and a plan whose
/// triggered event's predicate **never fires** both leave the RNG stream,
/// the report and the final configuration bit-identical to the plain run —
/// the inertness contract of the hostile-recovery fault vocabulary, at the
/// bench layer where the Table 1 scenarios are assembled.
#[test]
fn inert_byzantine_windows_and_triggers_leave_runs_bit_identical() {
    use population::{ByzantineWindow, FaultKind, FaultPlan};
    use ssle_bench::recovery::recovery_scenario;
    use ssle_bench::stabilization::GridGraph;

    for kind in ProtocolKind::ALL {
        for n in SIZES {
            for seed in SEEDS {
                let pt = SweepPoint::new(n, seed);
                let budget = kind.trial_budget(n);
                let plain = recovery_scenario(kind, GridGraph::Ring, budget).run_full(&pt);
                let inert = recovery_scenario(kind, GridGraph::Ring, budget)
                    .with_fault_plan(FaultPlan::new().with_byzantine(ByzantineWindow::new(
                        [],
                        0,
                        budget,
                    )))
                    .run_full(&pt);
                assert_eq!(
                    plain.report,
                    inert.report,
                    "{} n={n} seed={seed}: empty Byzantine window perturbed the report",
                    kind.key()
                );
                assert_eq!(
                    *plain.sim.config(),
                    *inert.sim.config(),
                    "{} n={n} seed={seed}: empty Byzantine window perturbed the final states",
                    kind.key()
                );
            }
        }
    }

    // Never-firing trigger: register a predicate that never holds and couple
    // a CorruptAll event to it — the run must not notice.
    for n in SIZES {
        for seed in SEEDS {
            let pt = SweepPoint::new(n, seed);
            let budget = ProtocolKind::Ppl.trial_budget(n);
            let scenario = || {
                ssle_bench::ppl_builder(InitialCondition::UniformRandom)
                    .step_budget(move |_pt| budget)
                    .corruption(|p: &Ppl, rng, _i| PplState::sample_uniform(rng, p.params()))
                    .trigger("never", |_p: &Ppl, _c| false)
                    .build()
                    .expect("complete scenario")
            };
            let plain = scenario().run_full(&pt);
            let inert = scenario()
                .with_fault_plan(FaultPlan::new().when("never", FaultKind::CorruptAll))
                .run_full(&pt);
            assert_eq!(
                plain.report, inert.report,
                "ppl n={n} seed={seed}: never-firing trigger perturbed the report"
            );
            assert_eq!(
                *plain.sim.config(),
                *inert.sim.config(),
                "ppl n={n} seed={seed}: never-firing trigger perturbed the final states"
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
/// uniform state sampler is both its corruption function and its Byzantine
/// rewrite.
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
            .byzantine(move |p, rng, _agent, _state| sample(p, rng))
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
/// off), with no plan, a timed crash burst, a Byzantine window and a churn
/// plan, the detecting run reports and ends exactly like the plain run, and
/// a trajectory sampled on the stop-check grid up to the executed steps
/// ends on the plain run's final leader count.
#[test]
fn entry_points_agree_under_every_scheduler_and_plan() {
    use population::{
        ByzantineWindow, ChurnKind, ChurnPlan, FaultKind, FaultPlan, SchedulerFamily,
    };

    let n = 8;
    let schedulers = [
        SchedulerFamily::Random,
        SchedulerFamily::custom("low-initiator", |_pt, _graph| Box::new(LowInitiator)),
    ];
    for kind in ProtocolKind::ALL {
        let plans: [(&str, population::Scenario); 4] = [
            ("empty", hostile_ready(kind)),
            (
                "crash",
                hostile_ready(kind).with_fault_plan(
                    FaultPlan::new().at(40, FaultKind::CorruptRandomAgents { count: 3 }),
                ),
            ),
            (
                "byzantine",
                hostile_ready(kind).with_fault_plan(
                    FaultPlan::new().with_byzantine(ByzantineWindow::new([0, 1], 10, 500)),
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
