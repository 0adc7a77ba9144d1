//! Integration coverage of the observation layer: agreement between the
//! incremental [`population::LeaderCounter`] and a full recount after every
//! step, observer hook ordering, and — the case the unit tests cannot reach —
//! the **fault-boundary resync** of the scenario trajectory loop: a
//! [`population::FaultKind::CorruptTargets`] strike rewrites states behind
//! the incremental counter's back, and only the boundary resync keeps the
//! sampled leader counts truthful afterwards.

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
    // The trajectory loop counts leaders through the incremental
    // LeaderCounter, which a targeted strike silently desynchronizes: the
    // fault rewrites the leader's state out-of-band, so every sample after
    // the strike would still read 1 without the boundary resync.  The
    // strike lands at step 30 — *between* the 25-step sample boundaries —
    // so this also pins the burst-splitting path that fires (and resyncs)
    // at a non-sample boundary.
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
