//! Per-step observers: O(1) incremental instrumentation of the hot loop.
//!
//! Measurement code used to re-scan the whole configuration after every
//! interaction (`leader_indices` is `O(n)` and allocates), which turned the
//! engine's `O(1)` step into an `O(n)` step as soon as anything watched the
//! run.  A [`StepObserver`] instead receives just the **two touched states**
//! of each interaction, before and after the transition — everything an
//! incremental statistic needs, at constant cost per step.
//!
//! Observers are passed explicitly into the observed run methods
//! ([`crate::simulation::Simulation::step_observed`],
//! [`crate::simulation::Simulation::run_steps_observed`]), so the unobserved
//! hot loop pays nothing: [`NoObserver`]'s empty hooks inline away.
//!
//! [`LeaderCounter`] is the workhorse observer: it maintains the number of
//! agents outputting `L` as a running counter updated from the two touched
//! agents only, plus a per-step "leader set changed" flag.  It powers
//! `Simulation::run_tracking_leader_changes` and
//! `Scenario::leader_trajectory`.
//!
//! Incremental observation is sound for a statistic as long as nothing
//! between hooks changes what it folds.  An oracle's broadcast
//! ([`Protocol::oracle_apply`]) rewrites agents outside the interacting pair
//! but never their leader outputs, so [`LeaderCounter`] is exact for oracle
//! protocols too; out-of-band rewrites (faults, churn) re-seed it with
//! [`LeaderCounter::resync`].

use crate::protocol::{LeaderElection, Protocol};
use crate::schedule::Interaction;

/// Hooks invoked around every observed interaction.
///
/// `pre_interaction` sees the two scheduled states *before* the transition,
/// `post_interaction` sees the same two slots *after* it.  Both are called
/// with the protocol so observers can evaluate output maps.
pub trait StepObserver<P: Protocol> {
    /// Called immediately before the transition function runs.
    fn pre_interaction(
        &mut self,
        protocol: &P,
        interaction: Interaction,
        initiator: &P::State,
        responder: &P::State,
    );

    /// Called immediately after the transition function ran.
    fn post_interaction(
        &mut self,
        protocol: &P,
        interaction: Interaction,
        initiator: &P::State,
        responder: &P::State,
    );
}

/// The trivial observer: both hooks are empty and compile away, so
/// `apply_observed::<NoObserver>` *is* the unobserved hot loop.
#[derive(Clone, Copy, Debug, Default)]
pub struct NoObserver;

impl<P: Protocol> StepObserver<P> for NoObserver {
    #[inline(always)]
    fn pre_interaction(&mut self, _: &P, _: Interaction, _: &P::State, _: &P::State) {}

    #[inline(always)]
    fn post_interaction(&mut self, _: &P, _: Interaction, _: &P::State, _: &P::State) {}
}

/// Incrementally maintained leader statistics of a run.
///
/// Seeded with one full `O(n)` count ([`LeaderCounter::new`] /
/// [`LeaderCounter::resync`]), then updated in `O(1)` per observed step from
/// the leader bits of the two touched agents.  Because an interaction
/// mutates only those two agents, the leader **set** changed iff one of
/// their bits flipped — which also yields [`LeaderCounter::last_step_changed`]
/// without comparing index vectors.
#[derive(Clone, Copy, Debug)]
pub struct LeaderCounter {
    count: usize,
    pre_initiator: bool,
    pre_responder: bool,
    changed: bool,
}

impl LeaderCounter {
    /// Seeds the counter with a full count over `states`.
    pub fn new<P: LeaderElection>(protocol: &P, states: &[P::State]) -> Self {
        LeaderCounter {
            count: protocol.count_leaders(states),
            pre_initiator: false,
            pre_responder: false,
            changed: false,
        }
    }

    /// Re-seeds the counter after out-of-band state mutation (fault
    /// injection, direct `config_mut` edits).
    pub fn resync<P: LeaderElection>(&mut self, protocol: &P, states: &[P::State]) {
        self.count = protocol.count_leaders(states);
        self.changed = false;
    }

    /// The current number of agents outputting `L`.
    pub fn count(&self) -> usize {
        self.count
    }

    /// `true` if the most recent observed step changed the leader set.
    pub fn last_step_changed(&self) -> bool {
        self.changed
    }
}

/// An observer adapter that additionally records **which** interaction the
/// last observed step executed, forwarding both hooks to the inner observer.
///
/// Single-step entry points return the interaction, but the burst APIs
/// ([`crate::simulation::Simulation::run_steps_observed`]) discard it;
/// wrapping the burst's real observer in `Recorded` recovers the last
/// scheduled pair — e.g. to know which agents an adversary should rewrite at
/// a segment boundary — without switching the burst to per-step dispatch.
#[derive(Clone, Copy, Debug)]
pub struct Recorded<O> {
    inner: O,
    last: Option<Interaction>,
}

impl<O> Recorded<O> {
    /// Wraps `inner`, with no interaction recorded yet.
    pub fn new(inner: O) -> Self {
        Recorded { inner, last: None }
    }

    /// The interaction of the most recent observed step, if any.
    pub fn last_interaction(&self) -> Option<Interaction> {
        self.last
    }

    /// The wrapped observer.
    pub fn inner(&self) -> &O {
        &self.inner
    }

    /// The wrapped observer, mutably (e.g. to resync a [`LeaderCounter`]).
    pub fn inner_mut(&mut self) -> &mut O {
        &mut self.inner
    }
}

impl<P: Protocol, O: StepObserver<P>> StepObserver<P> for Recorded<O> {
    #[inline]
    fn pre_interaction(
        &mut self,
        protocol: &P,
        interaction: Interaction,
        initiator: &P::State,
        responder: &P::State,
    ) {
        self.inner
            .pre_interaction(protocol, interaction, initiator, responder);
    }

    #[inline]
    fn post_interaction(
        &mut self,
        protocol: &P,
        interaction: Interaction,
        initiator: &P::State,
        responder: &P::State,
    ) {
        self.last = Some(interaction);
        self.inner
            .post_interaction(protocol, interaction, initiator, responder);
    }
}

impl<P: LeaderElection> StepObserver<P> for LeaderCounter {
    #[inline]
    fn pre_interaction(
        &mut self,
        protocol: &P,
        _interaction: Interaction,
        initiator: &P::State,
        responder: &P::State,
    ) {
        self.pre_initiator = protocol.is_leader(initiator);
        self.pre_responder = protocol.is_leader(responder);
    }

    #[inline]
    fn post_interaction(
        &mut self,
        protocol: &P,
        _interaction: Interaction,
        initiator: &P::State,
        responder: &P::State,
    ) {
        let post_initiator = protocol.is_leader(initiator);
        let post_responder = protocol.is_leader(responder);
        self.count = self.count + post_initiator as usize + post_responder as usize
            - self.pre_initiator as usize
            - self.pre_responder as usize;
        self.changed = post_initiator != self.pre_initiator || post_responder != self.pre_responder;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Clone, Debug)]
    struct Toggle;
    impl Protocol for Toggle {
        type State = bool;
        fn interact(&self, initiator: &mut bool, responder: &mut bool) {
            // Leadership flows to the initiator.
            if *responder {
                *responder = false;
                *initiator = true;
            }
        }
    }
    impl LeaderElection for Toggle {
        fn is_leader(&self, s: &bool) -> bool {
            *s
        }
    }

    #[test]
    fn counter_tracks_touched_agents_only() {
        let p = Toggle;
        let mut states = vec![false, true, true];
        let mut counter = LeaderCounter::new(&p, &states);
        assert_eq!(counter.count(), 2);
        assert!(!counter.last_step_changed());

        // Interaction (0, 1): leadership moves 1 -> 0; count stays 2 but the
        // set changed.
        let (a, b) = (states[0], states[1]);
        counter.pre_interaction(&p, Interaction::new(0, 1), &a, &b);
        let (mut a, mut b) = (a, b);
        p.interact(&mut a, &mut b);
        states[0] = a;
        states[1] = b;
        counter.post_interaction(&p, Interaction::new(0, 1), &a, &b);
        assert_eq!(counter.count(), 2);
        assert!(counter.last_step_changed());

        // Interaction (0, 2): 2 is demoted... with Toggle, leadership moves,
        // 0 stays leader: count drops by one.
        let (a, b) = (states[0], states[2]);
        counter.pre_interaction(&p, Interaction::new(0, 2), &a, &b);
        let (mut a, mut b) = (a, b);
        p.interact(&mut a, &mut b);
        counter.post_interaction(&p, Interaction::new(0, 2), &a, &b);
        assert_eq!(counter.count(), 1);
        assert!(counter.last_step_changed());
    }

    #[test]
    fn no_change_steps_clear_the_flag() {
        let p = Toggle;
        let mut counter = LeaderCounter::new(&p, &[true, false]);
        counter.pre_interaction(&p, Interaction::new(0, 1), &true, &false);
        counter.post_interaction(&p, Interaction::new(0, 1), &true, &false);
        assert!(!counter.last_step_changed());
        assert_eq!(counter.count(), 1);
    }

    #[test]
    fn recorded_exposes_the_last_interaction_and_forwards_hooks() {
        let p = Toggle;
        let mut rec = Recorded::new(LeaderCounter::new(&p, &[false, true]));
        assert_eq!(rec.last_interaction(), None);
        let (a, b) = (false, true);
        rec.pre_interaction(&p, Interaction::new(0, 1), &a, &b);
        let (mut a, mut b) = (a, b);
        p.interact(&mut a, &mut b);
        rec.post_interaction(&p, Interaction::new(0, 1), &a, &b);
        assert_eq!(rec.last_interaction(), Some(Interaction::new(0, 1)));
        // The inner counter saw the same step.
        assert_eq!(rec.inner().count(), 1);
        assert!(rec.inner().last_step_changed());
        rec.inner_mut().resync(&p, &[false, false]);
        assert_eq!(rec.inner().count(), 0);
    }

    #[test]
    fn resync_reseeds_after_out_of_band_mutation() {
        let p = Toggle;
        let mut counter = LeaderCounter::new(&p, &[true, true]);
        assert_eq!(counter.count(), 2);
        counter.resync(&p, &[false, false]);
        assert_eq!(counter.count(), 0);
        assert!(!counter.last_step_changed());
    }
}
