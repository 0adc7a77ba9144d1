//! The converge workloads (`ppl-ring`, `fj-ring`):
//! independent trials on the directed ring, each run to its protocol's safe
//! set through `Scenario::try_run_full` and then on, in the safe set, to a
//! fixed horizon, shared out by `BatchRunner::run_map`.
//!
//! The horizon makes every trial simulate the same number of steps, so the
//! work of a run does not depend on how fast the seed's trials happen to
//! converge; the check that the safe set still holds at the horizon is the
//! closure half of self-stabilization.

use std::time::Instant;

use population::{
    BatchRunner, ConfigDigest, Configuration, DirectedRing, GraphFamily, LeaderElection, Result,
    Scenario, ScenarioRun, Simulation, SweepPoint,
};
use ssle_bench::{check_interval, ppl_builder, ProtocolKind, Table1Visitor};
use ssle_core::InitialCondition;

use crate::layers::{self, per_op_ns};
use crate::report::Metrics;
use crate::spans::{Span, Tracer};
use crate::util::{median, mix, ratio, tail, Digest};
use crate::{batch_metrics, Checked, Work, Workload};

/// One converge workload: `trials` runs of `kind` at ring size `n`, each to
/// the safe set and on to `horizon` steps.  `P_PL` trials are shared out
/// over every `InitialCondition::ALL` start family; the baselines start from
/// uniformly random configurations.
#[derive(Clone, Copy, Debug)]
pub struct Converge {
    pub kind: ProtocolKind,
    pub n: usize,
    pub trials: usize,
    pub horizon: u64,
}

/// The inputs of one run, derived from the workload seed.
#[derive(Debug)]
pub struct Plan {
    /// The start families, and one scenario for each.
    families: Vec<InitialCondition>,
    scenarios: Vec<Scenario>,
    /// `(index into families, point)` per trial, in trial order.
    trials: Vec<(usize, SweepPoint)>,
    /// Seconds spent in `Scenario::prepare` over every trial.
    pub config_s: f64,
    /// Seconds spent building the ring.
    pub graph_s: f64,
}

/// One finished trial and the seconds it took, closure steps included.
#[derive(Debug)]
pub struct TrialRun {
    pub run: Result<ScenarioRun>,
    pub secs: f64,
}

impl Converge {
    /// The start families.  For `P_PL` the two leaderless families, whose
    /// trials run about six times longer, come first, so the long trials
    /// start first and the short ones fill in behind them.
    fn families(&self) -> Vec<InitialCondition> {
        use InitialCondition::*;
        match self.kind {
            ProtocolKind::Ppl => vec![
                AllFollowers,
                LeaderlessConsistent,
                UniformRandom,
                AllLeaders,
                HalfCorruptedSafe,
                SingleFault,
            ],
            _ => vec![UniformRandom],
        }
    }

    fn scenario(&self, family: InitialCondition) -> Scenario {
        match self.kind {
            ProtocolKind::Ppl => ppl_builder(family)
                .step_budget(|pt| ProtocolKind::Ppl.trial_budget(pt.n))
                .build()
                .expect("the P_PL builder is complete"),
            kind => kind.scenario(),
        }
    }
}

impl Workload for Converge {
    type Plan = Plan;
    type Done = Vec<TrialRun>;

    fn plan(&self, seed: u64) -> Plan {
        let families = self.families();
        let scenarios: Vec<Scenario> = families.iter().map(|&f| self.scenario(f)).collect();
        // Each family's trials are contiguous, in `families` order.
        let per_family = self.trials.div_ceil(families.len());
        let trials: Vec<(usize, SweepPoint)> = (0..self.trials)
            .map(|i| {
                (
                    i / per_family,
                    SweepPoint::new(self.n, mix(seed, 1, i as u64)),
                )
            })
            .collect();
        let t = Instant::now();
        for (family, point) in &trials {
            std::hint::black_box(scenarios[*family].prepare(point));
        }
        let config_s = t.elapsed().as_secs_f64();
        let t = Instant::now();
        std::hint::black_box(
            GraphFamily::DirectedRing
                .build(self.n)
                .expect("workload sizes are >= 2"),
        );
        let graph_s = t.elapsed().as_secs_f64();
        Plan {
            families,
            scenarios,
            trials,
            config_s,
            graph_s,
        }
    }

    fn execute(&self, plan: &Plan, runner: &BatchRunner, tracer: &Tracer) -> Vec<TrialRun> {
        tracer.span("workload", None, |workload| {
            runner.run_map(&plan.trials, |(family, point)| {
                tracer.span("trial", workload, |_| {
                    let t = Instant::now();
                    let mut run = plan.scenarios[*family].try_run_full(point);
                    if let Ok(run) = &mut run {
                        let at = run.sim.steps();
                        run.sim.run_steps(self.horizon.saturating_sub(at));
                    }
                    TrialRun {
                        run,
                        secs: t.elapsed().as_secs_f64(),
                    }
                })
            })
        })
    }

    fn digest(&self, plan: &Plan, done: &Vec<TrialRun>) -> Digest {
        let mut digest = Digest::default();
        for ((_, point), trial) in plan.trials.iter().zip(done) {
            digest.push(point.seed);
            match &trial.run {
                Ok(run) => {
                    digest.push(run.report.converged_at.unwrap_or(u64::MAX));
                    // The closure phase's RNG stream shows in where it ends.
                    digest.push(ConfigDigest::new(run.sim.config().states()).value());
                }
                Err(_) => digest.push(u64::MAX),
            }
        }
        digest
    }

    fn work(&self, done: &Vec<TrialRun>) -> Work {
        Work {
            steps: done
                .iter()
                .filter_map(|t| t.run.as_ref().ok())
                .map(|r| r.sim.steps())
                .sum(),
            secs: done.iter().map(|t| t.secs).collect(),
        }
    }

    fn check(&self, plan: &Plan, done: &Vec<TrialRun>) -> Checked {
        let mut checked = Checked::default();
        for ((family, point), trial) in plan.trials.iter().zip(done) {
            checked.attempted += 1;
            let outcome = match &trial.run {
                Ok(run) => check_trial(&plan.scenarios[*family], point, run, self.horizon),
                Err(e) => Err(format!("try_run_full failed: {e}")),
            };
            if let Err(why) = outcome {
                checked.fail(format!("trial seed {}: {why}", point.seed));
            }
        }
        // One trial replayed through the typed path, which must converge at
        // the identical step.
        checked.attempted += 1;
        match replay_pick(plan, done) {
            Some(i) => {
                let point = &plan.trials[i].1;
                let erased = done[i]
                    .run
                    .as_ref()
                    .ok()
                    .and_then(|r| r.report.converged_at);
                let typed = replay_typed(self.kind, self.n, point.seed);
                if typed != erased {
                    checked.fail(format!(
                        "typed replay of seed {} converged at {typed:?}, the scenario at {erased:?}",
                        point.seed
                    ));
                }
            }
            None => checked.fail("no converged uniform-start trial to replay".to_string()),
        }
        checked
    }

    fn layers(&self, plan: &Plan, done: &Vec<TrialRun>, spans: &[Span], m: &mut Metrics) {
        let step = layers::measure(self.kind, self.n, plan.trials[0].1.seed);
        step.record(m);
        m.set("init.config_s", plan.config_s);
        m.set("graph.build_s", plan.graph_s);

        let work = self.work(done);
        let (steps, busy_s) = (work.steps, work.busy_s());
        let reports: Vec<_> = done
            .iter()
            .filter_map(|t| Some(&t.run.as_ref().ok()?.report))
            .collect();
        // `run_until` checks once before the first burst and once after each.
        let checks: u64 = reports
            .iter()
            .map(|r| 1 + r.steps_executed.div_ceil(r.check_interval.max(1)))
            .sum();
        let converged: Vec<f64> = reports
            .iter()
            .filter_map(|r| r.converged_at)
            .map(|at| at as f64)
            .collect();
        m.set("scenario.converged_at.p50", median(&converged));
        m.set("scenario.converged_at.tail", tail(&converged));
        m.set(
            "scenario.converged_at.max",
            converged.iter().copied().fold(0.0, f64::max),
        );
        // The stop predicate timed on a converged configuration, where it
        // cannot return early: an upper bound on one periodic check.
        let check_ns = replay_pick(plan, done)
            .and_then(|i| {
                let (family, point) = &plan.trials[i];
                let run = done[i].run.as_ref().ok()?;
                let mut stop = plan.scenarios[*family].prepare(point).stop;
                let states = run.sim.config().states();
                Some(per_op_ns(|k| {
                    for _ in 0..k {
                        std::hint::black_box(stop(std::hint::black_box(states)));
                    }
                }))
            })
            .unwrap_or(0.0);
        m.set("convergence.check_ns", check_ns);
        m.set("convergence.checks", checks as f64);
        m.set(
            "convergence.share",
            ratio(checks as f64 * check_ns * 1e-9, busy_s),
        );
        m.set(
            "fischer_jiang.env_share",
            ratio(steps as f64 * step.env_ns * 1e-9, busy_s),
        );
        let secs: Vec<f64> = done.iter().map(|t| t.secs).collect();
        m.set("scenario.trials", secs.len() as f64);
        m.set("scenario.trial_s.p50", median(&secs));
        m.set("scenario.trial_s.tail", tail(&secs));
        // What the erased step and the checks do not account for: the run
        // loop's own bookkeeping, preparation and run scopes.
        let accounted = (steps as f64 * step.erased_step_ns + checks as f64 * check_ns) * 1e-9;
        m.set("scenario.loop_share", ratio(busy_s - accounted, busy_s));
        batch_metrics(spans, "trial", m);
    }
}

/// The output check of one trial: it converged within its budget, its
/// report is self-consistent, it ran on to the horizon, and a fresh copy of
/// the scenario's stop predicate holds on the final configuration.
pub fn check_trial(
    scenario: &Scenario,
    point: &SweepPoint,
    run: &ScenarioRun,
    horizon: u64,
) -> std::result::Result<(), String> {
    let report = &run.report;
    let at = report
        .converged_at
        .ok_or_else(|| format!("censored after {} steps", report.steps_executed))?;
    if at != report.steps_executed || run.sim.steps() != at.max(horizon) {
        return Err(format!(
            "converged_at {at} disagrees with steps_executed {} or the simulation's {} steps",
            report.steps_executed,
            run.sim.steps()
        ));
    }
    if !at.is_multiple_of(report.check_interval.max(1)) || at > report.max_steps {
        return Err(format!(
            "converged_at {at} is off the check cadence {} or over the budget {}",
            report.check_interval, report.max_steps
        ));
    }
    let mut stop = scenario.prepare(point).stop;
    if !stop(run.sim.config().states()) {
        return Err(format!(
            "the stop predicate fails on the final configuration at step {} (converged at {at})",
            run.sim.steps()
        ));
    }
    Ok(())
}

/// The trial to replay through the typed path: among the converged trials
/// from the uniform family (the start `with_table1_setup` generates), the
/// one with the fewest steps; ties go to the lowest index.
fn replay_pick(plan: &Plan, done: &[TrialRun]) -> Option<usize> {
    plan.trials
        .iter()
        .zip(done)
        .enumerate()
        .filter(|(_, ((f, _), _))| plan.families[*f] == InitialCondition::UniformRandom)
        .filter_map(|(i, (_, t))| Some((t.run.as_ref().ok()?.report.converged_at?, i)))
        .min()
        .map(|(_, i)| i)
}

/// `converged_at` of the Table 1 trial of `kind` at `(n, seed)`, run through
/// the typed `Simulation<P, DirectedRing>` with the scenario's check
/// cadence and budget.
pub fn replay_typed(kind: ProtocolKind, n: usize, seed: u64) -> Option<u64> {
    struct Typed {
        n: usize,
        seed: u64,
        budget: u64,
    }
    impl Table1Visitor for Typed {
        type Output = Option<u64>;
        fn visit<P, F>(self, protocol: P, config: Configuration<P::State>, stop: F) -> Option<u64>
        where
            P: LeaderElection + 'static,
            P::State: std::any::Any,
            F: Fn(&P, &Configuration<P::State>) -> bool + Send + Sync + 'static,
        {
            let ring = DirectedRing::new(self.n).expect("workload sizes are >= 2");
            let mut sim = Simulation::new(protocol, ring, config, self.seed);
            sim.run_until(stop, check_interval(self.n), self.budget)
                .converged_at
        }
    }
    kind.with_table1_setup(
        n,
        seed,
        Typed {
            n,
            seed,
            budget: kind.trial_budget(n),
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    const SMALL: Converge = Converge {
        kind: ProtocolKind::Ppl,
        n: 16,
        trials: 6,
        horizon: 20_000,
    };

    fn run(w: &Converge, seed: u64) -> (Plan, Vec<TrialRun>) {
        let plan = w.plan(seed);
        let done = w.execute(&plan, &BatchRunner::with_threads(2), &Tracer::new(false));
        (plan, done)
    }

    #[test]
    fn a_seed_fixes_the_inputs_and_the_digest() {
        let (plan_a, done_a) = run(&SMALL, 5);
        let (plan_b, done_b) = run(&SMALL, 5);
        let (plan_c, done_c) = run(&SMALL, 6);
        let seeds = |p: &Plan| p.trials.iter().map(|(_, pt)| pt.seed).collect::<Vec<_>>();
        assert_eq!(seeds(&plan_a), seeds(&plan_b));
        assert!(seeds(&plan_a).iter().all(|s| !seeds(&plan_c).contains(s)));
        let digest = SMALL.digest(&plan_a, &done_a);
        assert_eq!(digest, SMALL.digest(&plan_b, &done_b));
        assert_ne!(digest, SMALL.digest(&plan_c, &done_c));
        // Every family gets one trial.
        let families: Vec<usize> = plan_a.trials.iter().map(|(f, _)| *f).collect();
        assert_eq!(families, [0, 1, 2, 3, 4, 5]);
    }

    #[test]
    fn every_baseline_passes_its_check() {
        for kind in [
            ProtocolKind::Ppl,
            ProtocolKind::Yokota,
            ProtocolKind::FischerJiang,
        ] {
            let w = Converge { kind, ..SMALL };
            let (plan, done) = run(&w, 3);
            let checked = w.check(&plan, &done);
            assert_eq!(checked.failures, Vec::<String>::new(), "{kind:?}");
            assert_eq!(checked.attempted, 7);
            // Every trial ran on to the horizon.
            assert!(w.work(&done).steps >= 6 * SMALL.horizon);
        }
    }

    #[test]
    fn the_check_rejects_a_corrupted_result() {
        let (plan, mut done) = run(&SMALL, 9);
        assert_eq!(SMALL.check(&plan, &done).failed, 0);

        // A converged_at moved by one check interval fails the trial's own
        // check and, on the replayed trial, the typed replay too.
        let i = replay_pick(&plan, &done).expect("a uniform trial converged");
        let report = &mut done[i].run.as_mut().expect("the trial ran").report;
        let at = report.converged_at.expect("converged");
        report.converged_at = Some(at + report.check_interval);
        let checked = SMALL.check(&plan, &done);
        assert_eq!(checked.failed, 2, "{:?}", checked.failures);

        // A final configuration outside the safe set fails the predicate.
        let (plan, mut done) = run(&SMALL, 9);
        let sim = &mut done[0].run.as_mut().expect("the trial ran").sim;
        let fresh = plan.scenarios[0].prepare(&plan.trials[0].1).config;
        *sim.config_mut() = fresh;
        let checked = SMALL.check(&plan, &done);
        assert_eq!(checked.failed, 1, "{:?}", checked.failures);
        assert!(checked.failures[0].contains("stop predicate"));
    }
}
