//! Integration coverage of the observation layer: agreement between the
//! incremental [`population::LeaderCounter`] and a full recount after every
//! step, observer hook ordering, and the scenario trajectory's samples: each
//! is the leader count of the same run stopped at that step, also after a
//! [`population::FaultKind::CorruptTargets`] strike or a join rewrote
//! states between two samples.

use population::prelude::*;

/// Classic pairwise leader elimination: when two leaders meet, the
/// responder is demoted.  Leadership is never created, which makes every
/// post-fault leader count below deterministic.
#[derive(Clone, Debug)]
struct Fratricide;

impl Protocol for Fratricide {
    type State = bool;
    fn interact(&self, initiator: &mut bool, responder: &mut bool) {
        if *initiator && *responder {
            *responder = false;
        }
    }
}

impl LeaderElection for Fratricide {
    fn is_leader(&self, state: &bool) -> bool {
        *state
    }
}

#[test]
fn leader_change_tracking_agrees_with_a_full_recount_after_every_step() {
    // `run_tracking_leader_changes` detects changes through the O(1)
    // LeaderCounter observer; a clone stepped one step at a time, with the
    // leader set recounted from scratch after each step, must see the same
    // sequence of change steps and end in the same configuration.
    let config = Configuration::uniform(8, true);
    let mut sim = Simulation::new(Fratricide, CompleteGraph::new(8), config, 11);
    let mut reference = sim.clone();
    let changes = sim.run_tracking_leader_changes(500);
    assert!(
        !changes.is_empty(),
        "8 leaders on a complete graph must collide within 500 steps"
    );
    let mut recounted = Vec::new();
    let mut leaders = reference
        .protocol()
        .leader_indices(reference.config().states());
    for _ in 0..500 {
        reference.step();
        let now = reference
            .protocol()
            .leader_indices(reference.config().states());
        if now != leaders {
            recounted.push(reference.steps());
            leaders = now;
        }
    }
    assert_eq!(changes, recounted);
    assert_eq!(sim.config().states(), reference.config().states());
}

/// An observer that logs each hook invocation with the interaction and the
/// states it saw.
#[derive(Debug, Default)]
struct Probe {
    calls: Vec<(&'static str, Interaction, bool, bool)>,
}

impl StepObserver<Fratricide> for Probe {
    fn pre_interaction(&mut self, _: &Fratricide, e: Interaction, a: &bool, b: &bool) {
        self.calls.push(("pre", e, *a, *b));
    }
    fn post_interaction(&mut self, _: &Fratricide, e: Interaction, a: &bool, b: &bool) {
        self.calls.push(("post", e, *a, *b));
    }
}

#[test]
fn observer_hooks_fire_pre_then_post_around_the_transition() {
    // Two leaders meet: pre must see the original pair, post the demoted
    // responder, and both hooks see the interaction that ran.
    let config = Configuration::uniform(2, true);
    let mut sim = Simulation::new(Fratricide, CompleteGraph::new(2), config, 0);
    let mut probe = Probe::default();
    let e = Interaction::new(0, 1);
    sim.apply_observed(e, &mut probe);
    assert_eq!(
        probe.calls,
        vec![("pre", e, true, true), ("post", e, true, false)]
    );
    assert_eq!(sim.config().states(), &[true, false]);
}

/// Builds the strike scenario: a single pre-elected leader (nothing ever
/// changes under fratricide) and a `CorruptTargets { limit: 1 }` event that
/// demotes the current leader at `strike_at`.
fn strike_scenario(strike_at: u64) -> Scenario {
    ScenarioBuilder::new("strike", |_pt: &SweepPoint| Fratricide)
        .graph(GraphFamily::Complete)
        .init(|_p, pt| Configuration::from_fn(pt.n, |i| i == 0))
        .stop_when("unique-leader", |p: &Fratricide, c| {
            p.has_unique_leader(c.states())
        })
        .step_budget(|_pt| 10_000)
        .fault_targets(|p: &Fratricide, s, _agent| p.is_leader(s))
        .faults(
            move |_pt| FaultPlan::new().at(strike_at, FaultKind::CorruptTargets { limit: 1 }),
            |_p, _rng, _i| false,
        )
        .build()
        .expect("complete strike scenario")
}

#[test]
fn leader_trajectory_resyncs_the_counter_at_the_fault_boundary() {
    // The trajectory counts the leaders of the configuration at each
    // sample, so a targeted strike that rewrites the leader's state
    // out-of-band must show in every later sample (a count kept per step
    // and never re-seeded would still read 1).  The strike lands at step
    // 30 — *between* the 25-step sample boundaries — so this also pins the
    // burst-splitting path that fires the fault at a non-sample boundary.
    let traj = strike_scenario(30).leader_trajectory(&SweepPoint::new(8, 3), 100, 25);
    assert_eq!(traj.first(), Some(&(0, 1)));
    assert_eq!(traj.last(), Some(&(100, 0)));
    for &(step, leaders) in &traj {
        let expected = if step < 30 { 1 } else { 0 };
        assert_eq!(
            leaders, expected,
            "sample at step {step}: a demoted leader must be seen immediately"
        );
    }
    // Both regimes were actually sampled.
    assert!(traj.iter().any(|&(step, _)| step < 30));
    assert!(traj.iter().any(|&(step, _)| step >= 30));
}

/// Fratricide from all leaders on the complete graph of 16 agents under
/// `scheduler`, with one of three event plans: none, a strike that demotes
/// one leader at step 55, or three agents joining as leaders at step 75
/// (the corruption function demotes the first 16 agents and crowns every
/// later one).  The stop predicate never holds, so a run is exactly
/// `budget` steps.
fn counted_scenario(scheduler: &SchedulerFamily, events: &str, budget: u64) -> Scenario {
    let scenario = ScenarioBuilder::new("counted", |_pt: &SweepPoint| Fratricide)
        .graph(GraphFamily::Complete)
        .init(|_p, pt| Configuration::uniform(pt.n, true))
        .stop_when("never", |_p: &Fratricide, _c| false)
        .step_budget(move |_pt| budget)
        .scheduler(scheduler.clone())
        .fault_targets(|p: &Fratricide, s, _agent| p.is_leader(s))
        .corruption(|_p, _rng, agent| agent >= 16)
        .build()
        .expect("complete counted scenario");
    match events {
        "none" => scenario,
        "strike" => scenario
            .with_fault_plan(FaultPlan::new().at(55, FaultKind::CorruptTargets { limit: 1 })),
        "join" => scenario.with_churn_plan(ChurnPlan::new().at(75, ChurnKind::Join { count: 3 })),
        _ => unreachable!("unknown event plan {events}"),
    }
}

#[test]
fn every_trajectory_sample_is_the_leader_count_of_the_run_stopped_there() {
    // A trajectory counts the leaders at each sample.  The same scenario
    // stopped at that sample's step (a stop predicate that never holds and
    // a budget of that many steps) must end with the same count, whether
    // the steps run uniformly or under a custom state-blind scheduler, and
    // whether a strike or a join landed between two samples.
    let schedulers = [
        SchedulerFamily::Random,
        SchedulerFamily::custom("random-boxed", |_pt, _g| Box::new(RandomScheduler::new())),
    ];
    for scheduler in &schedulers {
        for events in ["none", "strike", "join"] {
            for seed in [1, 5, 9] {
                let point = SweepPoint::new(16, seed);
                let traj =
                    counted_scenario(scheduler, events, 400).leader_trajectory(&point, 400, 10);
                assert_eq!(traj.len(), 41);
                let counts: std::collections::HashSet<_> = traj.iter().map(|&(_, c)| c).collect();
                assert!(counts.len() > 3, "{events} seed {seed}: {traj:?}");
                for &(step, leaders) in &traj {
                    let stopped = counted_scenario(scheduler, events, step).run_full(&point);
                    assert_eq!(stopped.report.steps_executed, step);
                    assert_eq!(
                        stopped.sim.count_leaders(),
                        leaders,
                        "{} {events} seed {seed}: sample at step {step}",
                        scheduler.name()
                    );
                }
            }
        }
    }
}

#[test]
fn step_zero_strikes_fire_before_the_initial_stop_check() {
    // The run path fires due faults at step 0 *before* the initial stop
    // check, so a pre-elected leader struck at step 0 never yields a
    // trivial converged-at-0 report: the decapitated population can never
    // re-elect under fratricide and the run must exhaust its budget with
    // zero leaders.
    let run = strike_scenario(0).run_full(&SweepPoint::new(8, 3));
    assert!(!run.report.converged());
    assert_eq!(run.sim.count_leaders(), 0);
}
