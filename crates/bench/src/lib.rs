//! # ssle-bench
//!
//! The experiment harness that regenerates every table and figure of the
//! paper (experiments E1–E11 of `DESIGN.md`).  The library half of the crate
//! builds [`Scenario`]s — declarative protocol × graph × initial-condition ×
//! stop-criterion bundles from `population::scenario` — for the paper's
//! protocol and every Table 1 baseline; each experiment is a binary in
//! `src/bin/` that sweeps the relevant parameters over those scenarios and
//! prints the table or figure data, and the tracked reports
//! (`hotloop_report`, `stabilization_report`, `recovery_report`) persist
//! their measurements as `BENCH_*.json` artifacts.
//!
//! Run an experiment with, e.g.:
//!
//! ```text
//! cargo run --release -p ssle-bench --bin table1
//! cargo run --release -p ssle-bench --bin fig_scaling -- --full
//! cargo run --release -p ssle-bench --bin table1 -- --sizes 16,32 --trials 4 --json
//! ```
//!
//! Every binary accepts the shared flags of [`cli::BenchArgs`]: `--full` for
//! the larger sweep used in `EXPERIMENTS.md`, `--sizes`/`--trials`/`--seed`/
//! `--threads` to override the sweep grid, and `--json` for machine-readable
//! output.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod baseline_boxed;
pub mod cli;
pub mod hotloop;
pub mod recovery;
pub mod report;
pub mod stabilization;
pub mod trace;
pub mod tracked;

use population::{
    BatchSummary, Configuration, GraphFamily, LeaderElection, Scenario, ScenarioBuilder, SweepPoint,
};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use ssle_baselines::{
    angluin_mod_k::{has_unique_defect, AngluinModK, ModKState},
    fischer_jiang::{has_stable_unique_leader, FischerJiang, FjState},
    yokota_linear::{is_safe as yokota_is_safe, YokotaLinear, YokotaState},
};
use ssle_core::{in_s_pl, init, InitialCondition, Params, Ppl, PplState};

/// The protocols compared by Table 1 that can be measured empirically.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ProtocolKind {
    /// `P_PL`, the paper's protocol, with the default simulation constants.
    Ppl,
    /// `P_PL` with the paper's `κ_max = 32ψ`.
    PplPaperConstants,
    /// Baseline \[28\]: Yokota et al. 2021, `O(n)` states.
    Yokota,
    /// Baseline \[15\]: Fischer–Jiang 2006 with the oracle `Ω?`.
    FischerJiang,
    /// Baseline \[5\]: Angluin et al. 2008, `k ∤ n`.
    AngluinModK,
}

impl ProtocolKind {
    /// All measurable protocols in Table 1 order.
    pub const ALL: [ProtocolKind; 4] = [
        ProtocolKind::AngluinModK,
        ProtocolKind::FischerJiang,
        ProtocolKind::Yokota,
        ProtocolKind::Ppl,
    ];

    /// A short, machine-friendly key used in benchmark reports
    /// (`BENCH_hotloop.json`) and CLI output.
    pub fn key(&self) -> &'static str {
        match self {
            ProtocolKind::Ppl => "ppl",
            ProtocolKind::PplPaperConstants => "ppl-paper-constants",
            ProtocolKind::Yokota => "yokota",
            ProtocolKind::FischerJiang => "fischer-jiang",
            ProtocolKind::AngluinModK => "angluin-mod-k",
        }
    }

    /// The display name used in generated tables.
    pub fn name(&self) -> &'static str {
        match self {
            ProtocolKind::Ppl => "this work (P_PL)",
            ProtocolKind::PplPaperConstants => "this work (P_PL, paper constants)",
            ProtocolKind::Yokota => "[28] Yokota et al. 2021",
            ProtocolKind::FischerJiang => "[15] Fischer-Jiang 2006",
            ProtocolKind::AngluinModK => "[5] Angluin et al. 2008",
        }
    }

    /// The assumption column of Table 1.
    pub fn assumption(&self) -> &'static str {
        match self {
            ProtocolKind::Ppl | ProtocolKind::PplPaperConstants | ProtocolKind::Yokota => {
                "knowledge psi = ceil(log n) + O(1)"
            }
            ProtocolKind::FischerJiang => "oracle Omega?",
            ProtocolKind::AngluinModK => "n is not a multiple of a given k",
        }
    }

    /// The convergence-time column of Table 1 (the bound claimed by the
    /// original paper).
    pub fn claimed_convergence(&self) -> &'static str {
        match self {
            ProtocolKind::Ppl | ProtocolKind::PplPaperConstants => "O(n^2 log n)",
            ProtocolKind::Yokota => "Theta(n^2)",
            ProtocolKind::FischerJiang => "Theta(n^3)",
            ProtocolKind::AngluinModK => "Theta(n^3)",
        }
    }

    /// The #states column of Table 1 (the bound claimed by the original
    /// paper).
    pub fn claimed_states(&self) -> &'static str {
        match self {
            ProtocolKind::Ppl | ProtocolKind::PplPaperConstants => "polylog(n)",
            ProtocolKind::Yokota => "O(n)",
            ProtocolKind::FischerJiang | ProtocolKind::AngluinModK => "O(1)",
        }
    }

    /// The exact per-agent state count of our implementation at population
    /// size `n`.
    pub fn states_per_agent(&self, n: usize) -> u128 {
        match self {
            ProtocolKind::Ppl => Params::for_ring(n).states_per_agent(),
            ProtocolKind::PplPaperConstants => Params::paper_constants(n).states_per_agent(),
            ProtocolKind::Yokota => YokotaLinear::for_ring(n).states_per_agent(),
            ProtocolKind::FischerJiang => FischerJiang::new().states_per_agent(),
            ProtocolKind::AngluinModK => AngluinModK::new(pick_k(n)).states_per_agent(),
        }
    }

    /// The step budget of one Table 1 convergence trial at size `n` (the
    /// `Θ(n³)`-class baselines get an extra factor).
    pub fn trial_budget(&self, n: usize) -> u64 {
        match self {
            ProtocolKind::FischerJiang | ProtocolKind::AngluinModK => {
                step_budget(n).saturating_mul(n as u64 / 4 + 1)
            }
            _ => step_budget(n),
        }
    }

    /// The [`Scenario`] measuring this protocol in the Table 1 setting:
    /// uniformly random initial configurations on the directed ring, the
    /// protocol's structural safe set as the stop criterion, and
    /// [`ProtocolKind::trial_budget`] as the step budget.
    pub fn scenario(&self) -> Scenario {
        let kind = *self;
        self.table1_scenario(
            GraphFamily::DirectedRing,
            InitialCondition::UniformRandom,
            move |pt| kind.trial_budget(pt.n),
        )
    }

    /// The one map from a protocol to its finished scenario: the protocol's
    /// Table 1 builder on `graph`, starting from `condition` (`P_PL` only —
    /// the baselines have the uniform start alone), with `budget` steps.
    /// The scenario is fault-ready — its sampler is the corruption function
    /// and its leaders are the fault targets — so fault and churn plans can
    /// be attached later; with no plan neither is ever called.
    pub(crate) fn table1_scenario(
        self,
        graph: GraphFamily,
        condition: InitialCondition,
        budget: impl Fn(&SweepPoint) -> u64 + Send + Sync + 'static,
    ) -> Scenario {
        fn finish<P: Table1>(
            builder: ScenarioBuilder<P>,
            graph: GraphFamily,
            budget: impl Fn(&SweepPoint) -> u64 + Send + Sync + 'static,
        ) -> Scenario {
            builder
                .graph(graph)
                .step_budget(budget)
                .corruption(|p: &P, rng, _agent| p.sample(rng))
                .fault_targets(|p: &P, state, _agent| p.is_leader(state))
                .build()
                .expect("complete scenario")
        }
        match self {
            ProtocolKind::Ppl => finish(ppl_builder(condition), graph, budget),
            ProtocolKind::PplPaperConstants => finish(
                ppl_builder_with_params(|pt| Params::paper_constants(pt.n), condition),
                graph,
                budget,
            ),
            ProtocolKind::Yokota => finish(yokota_builder(), graph, budget),
            ProtocolKind::FischerJiang => finish(fischer_jiang_builder(), graph, budget),
            ProtocolKind::AngluinModK => finish(angluin_builder(), graph, budget),
        }
    }
}

/// Picks the smallest `k ≥ 2` that does not divide `n` (the assumption of
/// baseline \[5\]).
pub fn pick_k(n: usize) -> u8 {
    (2u8..=64)
        .find(|&k| !n.is_multiple_of(k as usize))
        .expect("some k <= 64 never divides n for n >= 2")
}

/// The step budget used for a convergence run on a ring of `n` agents.
pub fn step_budget(n: usize) -> u64 {
    let psi = Params::for_ring(n).psi() as u64;
    // Comfortably above the O(n^2 log n) convergence of the slowest
    // measurable protocol at these sizes (the Theta(n^3)-class baselines get
    // an extra factor in `ProtocolKind::trial_budget`).
    600 * (n as u64) * (n as u64) * psi
}

/// The interval (in steps) between convergence checks.
pub fn check_interval(n: usize) -> u64 {
    (n as u64 * n as u64 / 4).max(64)
}

/// One Table 1 protocol's definition: the name of its stop criterion, its
/// uniform state sampler and its structural safe set.  Every scenario and
/// typed setup of this crate reads these three from here — the sampler
/// draws the uniform initial configuration and corrupts faulted agents, the
/// safe set is the stop criterion.
trait Table1: LeaderElection<State: std::any::Any> + 'static {
    /// The stop criterion's name (the `criterion` of every report).
    const STOP: &'static str;

    /// Draws one state uniformly from the protocol's state space.
    fn sample(&self, rng: &mut ChaCha8Rng) -> Self::State;

    /// `true` iff `config` is in the protocol's safe set.
    fn is_safe(&self, config: &Configuration<Self::State>) -> bool;
}

impl Table1 for Ppl {
    const STOP: &'static str = "s-pl";

    fn sample(&self, rng: &mut ChaCha8Rng) -> PplState {
        PplState::sample_uniform(rng, self.params())
    }

    fn is_safe(&self, config: &Configuration<PplState>) -> bool {
        in_s_pl(config, self.params())
    }
}

impl Table1 for YokotaLinear {
    const STOP: &'static str = "yokota-safe";

    fn sample(&self, rng: &mut ChaCha8Rng) -> YokotaState {
        YokotaState::sample_uniform(rng, self.cap())
    }

    fn is_safe(&self, config: &Configuration<YokotaState>) -> bool {
        yokota_is_safe(config, self.cap())
    }
}

impl Table1 for FischerJiang {
    const STOP: &'static str = "fj-stable-unique-leader";

    fn sample(&self, rng: &mut ChaCha8Rng) -> FjState {
        FjState::sample_uniform(rng)
    }

    fn is_safe(&self, config: &Configuration<FjState>) -> bool {
        has_stable_unique_leader(config)
    }
}

impl Table1 for AngluinModK {
    const STOP: &'static str = "mod-k-unique-defect";

    fn sample(&self, rng: &mut ChaCha8Rng) -> ModKState {
        ModKState::sample_uniform(rng, self.k())
    }

    fn is_safe(&self, config: &Configuration<ModKState>) -> bool {
        has_unique_defect(config, self.k())
    }
}

/// The uniform initial configuration of the point: `pt.n` states drawn
/// with the protocol's sampler from the stream seeded by `pt.seed`.
fn uniform_config<P: Table1>(protocol: &P, pt: &SweepPoint) -> Configuration<P::State> {
    let mut rng = ChaCha8Rng::seed_from_u64(pt.seed);
    Configuration::from_fn(pt.n, |_| protocol.sample(&mut rng))
}

/// The Table 1 builder of a protocol: its safe set as the stop criterion,
/// checked every [`check_interval`] steps.
fn table1_builder<P: Table1>(
    name: impl Into<String>,
    protocol: impl Fn(&SweepPoint) -> P + Send + Sync + 'static,
    init: impl Fn(&P, &SweepPoint) -> Configuration<P::State> + Send + Sync + 'static,
) -> ScenarioBuilder<P> {
    ScenarioBuilder::new(name, protocol)
        .init(init)
        .stop_when(P::STOP, P::is_safe)
        .check_every(|pt| check_interval(pt.n))
}

/// Scenario builder for `P_PL` with the default simulation constants,
/// starting from the given initial-condition family and measuring the first
/// entry into the structural safe set `S_PL`.
///
/// The returned builder still needs a step budget
/// ([`ScenarioBuilder::step_budget`]) before `build()`.
pub fn ppl_builder(condition: InitialCondition) -> ScenarioBuilder<Ppl> {
    ppl_builder_with_params(|pt| Params::for_ring(pt.n), condition)
}

/// Like [`ppl_builder`] but with an explicit parameter map, used for the
/// paper-constants variant and the `κ_max` ablation (the closure can read
/// sweep-axis values from the [`SweepPoint`]).
pub fn ppl_builder_with_params(
    params_of: impl Fn(&SweepPoint) -> Params + Send + Sync + 'static,
    condition: InitialCondition,
) -> ScenarioBuilder<Ppl> {
    table1_builder(
        format!("ppl/{}", condition.name()),
        move |pt| Ppl::new(params_of(pt)),
        move |p: &Ppl, pt| init::generate(condition, pt.n, p.params(), pt.seed),
    )
}

/// Scenario builder for baseline \[28\] (Yokota et al. 2021): uniformly random
/// initial configurations, converging to its structural safe set.
pub fn yokota_builder() -> ScenarioBuilder<YokotaLinear> {
    table1_builder(
        "yokota-linear",
        |pt| YokotaLinear::for_ring(pt.n),
        uniform_config,
    )
}

/// Scenario builder for baseline \[15\] (Fischer–Jiang with the oracle `Ω?`):
/// uniformly random initial configurations, converging to a single
/// bullet-safe leader.
pub fn fischer_jiang_builder() -> ScenarioBuilder<FischerJiang> {
    table1_builder("fischer-jiang", |_pt| FischerJiang::new(), uniform_config)
}

/// Scenario builder for baseline \[5\] (Angluin et al. 2008, `k ∤ n`):
/// uniformly random initial configurations, converging to a unique label
/// defect.
pub fn angluin_builder() -> ScenarioBuilder<AngluinModK> {
    table1_builder(
        "angluin-mod-k",
        |pt| AngluinModK::new(pick_k(pt.n)),
        uniform_config,
    )
}

/// Visitor over the **typed** Table 1 trial setup of a [`ProtocolKind`]:
/// receives the concrete protocol, its uniformly random initial
/// configuration and its stop criterion, with the state type intact.
///
/// This is the typed view of the same definitions the scenario builders
/// read, for code that needs static types — the hot-loop benchmarks and
/// the equivalence tests ([`ProtocolKind::with_table1_setup`]).  The
/// declarative [`ProtocolKind::scenario`] builds the same setup through
/// the erased scenario layer; `tests/scenario_equivalence.rs` pins the two
/// bit-identical.
pub trait Table1Visitor {
    /// The visitor's result type.
    type Output;

    /// Called with the typed pieces of the trial.
    fn visit<P, F>(self, protocol: P, config: Configuration<P::State>, stop: F) -> Self::Output
    where
        P: LeaderElection + 'static,
        P::State: std::any::Any,
        F: Fn(&P, &Configuration<P::State>) -> bool + Send + Sync + 'static;
}

impl ProtocolKind {
    /// Builds the typed Table 1 trial setup of this protocol at `(n, seed)`
    /// and hands it to `visitor` (see [`Table1Visitor`]).
    pub fn with_table1_setup<V: Table1Visitor>(self, n: usize, seed: u64, visitor: V) -> V::Output {
        fn setup<P: Table1, V: Table1Visitor>(
            protocol: P,
            pt: SweepPoint,
            visitor: V,
        ) -> V::Output {
            let config = uniform_config(&protocol, &pt);
            visitor.visit(protocol, config, P::is_safe)
        }
        let pt = SweepPoint::new(n, seed);
        match self {
            ProtocolKind::Ppl => setup(Ppl::new(Params::for_ring(n)), pt, visitor),
            ProtocolKind::PplPaperConstants => {
                setup(Ppl::new(Params::paper_constants(n)), pt, visitor)
            }
            ProtocolKind::Yokota => setup(YokotaLinear::for_ring(n), pt, visitor),
            ProtocolKind::FischerJiang => setup(FischerJiang::new(), pt, visitor),
            ProtocolKind::AngluinModK => setup(AngluinModK::new(pick_k(n)), pt, visitor),
        }
    }
}

/// Converts per-size summaries into `(n, mean steps)` fitting points,
/// skipping sizes where no trial converged.
pub fn mean_points(summaries: &[BatchSummary]) -> Vec<(f64, f64)> {
    summaries
        .iter()
        .filter_map(|s| s.mean_steps().map(|m| (s.n as f64, m)))
        .collect()
}

/// The population sizes used by the quick and full sweeps.
pub fn sweep_sizes(full: bool) -> Vec<usize> {
    if full {
        vec![16, 24, 32, 48, 64, 96, 128, 192, 256, 384, 512]
    } else {
        vec![16, 24, 32, 48, 64, 96, 128]
    }
}

/// The number of trials per size used by the quick and full sweeps.
pub fn sweep_trials(full: bool) -> usize {
    if full {
        20
    } else {
        8
    }
}

/// Leader-count trajectory of an execution of `P_PL`, sampled every
/// `sample_every` steps — used by the elimination experiment (E8).
pub fn leader_count_trajectory(
    n: usize,
    condition: InitialCondition,
    seed: u64,
    total_steps: u64,
    sample_every: u64,
) -> Vec<(u64, usize)> {
    ppl_builder(condition)
        .step_budget(move |_pt| total_steps)
        .build()
        .expect("complete scenario")
        .leader_trajectory(&SweepPoint::new(n, seed), total_steps, sample_every)
}

/// The [`Scenario`] behind experiment E7 (mode determination): starting from
/// a leaderless configuration with no resetting signals, stop when every
/// agent is in detection mode (or a leader has already been created) —
/// the mode-determination race of Lemma 3.7.
pub fn all_detect_scenario(
    max_steps_of: impl Fn(&SweepPoint) -> u64 + Send + Sync + 'static,
) -> Scenario {
    use ssle_core::Mode;
    ScenarioBuilder::new("ppl/all-detect", |pt| Ppl::new(Params::for_ring(pt.n)))
        // All followers, clocks zero, no signals: the pure mode-determination
        // race of Lemma 3.7.
        .init(|_p: &Ppl, pt| Configuration::uniform(pt.n, PplState::follower()))
        .stop_when("all-detect", |p: &Ppl, c| {
            c.states()
                .iter()
                .all(|s| s.mode == Mode::Detect || p.is_leader(s))
                || p.count_leaders(c.states()) > 0
        })
        .check_every(|pt| check_interval(pt.n))
        .step_budget(max_steps_of)
        .build()
        .expect("complete scenario")
}

#[cfg(test)]
mod tests {
    use super::*;
    use population::{BatchRunner, ConvergenceReport, SweepGrid, Trial, TrialOutcome};

    #[test]
    fn protocol_kind_metadata_is_consistent() {
        for kind in ProtocolKind::ALL {
            assert!(!kind.name().is_empty());
            assert!(!kind.assumption().is_empty());
            assert!(!kind.claimed_convergence().is_empty());
            assert!(!kind.claimed_states().is_empty());
            assert!(kind.states_per_agent(32) >= 4);
        }
        // Table 1's #states column compares asymptotic classes.  The
        // constant-state baselines stay fixed, P_PL grows polylogarithmically
        // (squaring n multiplies the count by a bounded factor), and [28]
        // grows linearly (squaring n multiplies the count by ~n).  The
        // absolute crossover between polylog and linear lies beyond practical
        // n because of the polylog's large constants — see EXPERIMENTS.md E3.
        let fj_small = ProtocolKind::FischerJiang.states_per_agent(1 << 8);
        let fj_large = ProtocolKind::FischerJiang.states_per_agent(1 << 16);
        assert_eq!(fj_small, fj_large, "O(1) states do not grow");
        let ppl_small = ProtocolKind::Ppl.states_per_agent(1 << 8);
        let ppl_large = ProtocolKind::Ppl.states_per_agent(1 << 16);
        assert!(ppl_large > ppl_small);
        assert!(
            ppl_large < ppl_small * 128,
            "polylog growth when n is squared"
        );
        let yok_small = ProtocolKind::Yokota.states_per_agent(1 << 8);
        let yok_large = ProtocolKind::Yokota.states_per_agent(1 << 16);
        assert!(
            yok_large > yok_small * 128,
            "linear growth when n is squared"
        );
        assert!(fj_large < ppl_large);
    }

    #[test]
    fn pick_k_never_divides() {
        for n in 2..200 {
            let k = pick_k(n);
            assert!(n % k as usize != 0, "k = {k} divides n = {n}");
        }
        assert_eq!(pick_k(7), 2);
        assert_eq!(pick_k(8), 3);
        assert_eq!(pick_k(12), 5);
    }

    #[test]
    fn budgets_grow_with_n() {
        assert!(step_budget(64) > step_budget(16));
        assert!(check_interval(64) > check_interval(16));
        assert!(check_interval(2) >= 64);
        // The cubic-class baselines get a larger budget.
        assert!(ProtocolKind::FischerJiang.trial_budget(64) > ProtocolKind::Ppl.trial_budget(64));
    }

    #[test]
    fn sweep_configuration_helpers() {
        assert!(sweep_sizes(true).len() > sweep_sizes(false).len());
        assert!(sweep_trials(true) > sweep_trials(false));
    }

    #[test]
    fn small_trials_converge_for_every_protocol() {
        let n = 12;
        for kind in ProtocolKind::ALL {
            let report = kind.scenario().run(&SweepPoint::new(n, 3));
            assert!(
                report.converged(),
                "{} did not converge at n = {n}",
                kind.name()
            );
        }
    }

    #[test]
    fn table1_scenarios_keep_their_names_stop_criteria_and_graphs() {
        use crate::stabilization::{stab_scenario, variant_names, GridGraph};
        let kinds = [
            ProtocolKind::Ppl,
            ProtocolKind::PplPaperConstants,
            ProtocolKind::Yokota,
            ProtocolKind::FischerJiang,
            ProtocolKind::AngluinModK,
        ];
        let expected = |kind: ProtocolKind, variant: &str| match kind {
            ProtocolKind::Ppl | ProtocolKind::PplPaperConstants => {
                (format!("ppl/{variant}"), "s-pl")
            }
            ProtocolKind::Yokota => ("yokota-linear".to_string(), "yokota-safe"),
            ProtocolKind::FischerJiang => ("fischer-jiang".to_string(), "fj-stable-unique-leader"),
            ProtocolKind::AngluinModK => ("angluin-mod-k".to_string(), "mod-k-unique-defect"),
        };
        let graph_of = |s: &Scenario| format!("{:?}", s.graph_family());
        for kind in kinds {
            for (variant, variant_name) in variant_names(kind).into_iter().enumerate() {
                let (name, stop) = expected(kind, variant_name);
                for graph in GridGraph::ALL {
                    let s = stab_scenario(kind, graph, variant, 1_000);
                    assert_eq!(s.name(), name, "{}", kind.key());
                    assert_eq!(s.stop_name(), stop, "{}", kind.key());
                    assert_eq!(graph_of(&s), format!("{:?}", graph.family()));
                }
            }
            let table1 = kind.scenario();
            let (name, stop) = expected(kind, "uniform-random");
            assert_eq!(table1.name(), name, "{}", kind.key());
            assert_eq!(table1.stop_name(), stop, "{}", kind.key());
            assert_eq!(
                graph_of(&table1),
                format!("{:?}", population::GraphFamily::DirectedRing)
            );
            let n = 16;
            let pt = SweepPoint::new(n, 0x5EED);
            let stab = stab_scenario(kind, GridGraph::Ring, 0, kind.trial_budget(n)).run(&pt);
            assert_eq!(stab, table1.run(&pt), "{}", kind.key());
        }
    }

    #[test]
    fn ppl_scenario_converges_from_every_initial_condition() {
        let n = 10;
        for condition in InitialCondition::ALL {
            let report = ppl_builder(condition)
                .step_budget(|pt| step_budget(pt.n))
                .build()
                .unwrap()
                .run(&SweepPoint::new(n, 5));
            assert!(report.converged(), "{}", condition.name());
            assert_eq!(report.criterion, "s-pl");
        }
    }

    #[test]
    fn sweeps_group_per_size_through_the_scenario_layer() {
        let grid = SweepGrid::new().sizes(&[8, 10]).trials(2, 0xA11CE);
        let summaries = ProtocolKind::Ppl
            .scenario()
            .sweep_summaries(&grid, &BatchRunner::new());
        assert_eq!(summaries.len(), 2);
        assert_eq!(summaries[0].n, 8);
        assert_eq!(summaries[1].n, 10);
        assert!(summaries.iter().all(|s| s.outcomes.len() == 2));
        assert!(summaries.iter().all(|s| s.converged_fraction() == 1.0));
    }

    #[test]
    fn mean_points_skip_unconverged_sizes() {
        let summaries = vec![
            BatchSummary {
                n: 8,
                outcomes: vec![],
            },
            BatchSummary {
                n: 16,
                outcomes: vec![TrialOutcome {
                    trial: Trial::new(16, 0),
                    report: ConvergenceReport {
                        converged_at: Some(100),
                        steps_executed: 100,
                        max_steps: 1000,
                        check_interval: 1,
                        criterion: "x".into(),
                    },
                }],
            },
        ];
        let pts = mean_points(&summaries);
        assert_eq!(pts, vec![(16.0, 100.0)]);
    }

    #[test]
    fn leader_trajectory_reaches_one_from_all_leaders() {
        let traj = leader_count_trajectory(10, InitialCondition::AllLeaders, 1, 2_000_000, 50_000);
        assert_eq!(traj.first().unwrap().1, 10);
        assert_eq!(traj.last().unwrap().1, 1, "trajectory: {traj:?}");
        // Sampled step indices are increasing.
        assert!(traj.windows(2).all(|w| w[0].0 < w[1].0));
    }

    #[test]
    fn all_detect_measurement_terminates() {
        let report = all_detect_scenario(|_pt| 50_000_000).run(&SweepPoint::new(8, 2));
        assert!(report.converged());
        assert_eq!(report.criterion, "all-detect");
    }
}
