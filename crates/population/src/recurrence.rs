//! Configuration-recurrence detection for the erased run loop.
//!
//! The stabilization bench can only say "did not converge within the budget"
//! about a censored cell; this module upgrades that to a checked statement.
//! Two pieces cooperate:
//!
//! * [`ConfigDigest`] — a [`StepObserver`] that maintains a canonical 64-bit
//!   digest of the whole configuration **incrementally**: each interaction
//!   touches two agents, so the observer subtracts their position-salted
//!   [`DynState::digest`]s before the transition and adds them back after,
//!   keeping the per-step cost O(1) in the population size.
//! * [`RecurrenceDetector`] — a Brent-style cycle finder over the stream of
//!   (digest, scheduler phase) pairs.  It snapshots the configuration when
//!   its internal step counter is a power of two and compares every later
//!   step against the snapshot; a digest + phase match is then **confirmed**
//!   by comparing the configurations themselves, so hash collisions can
//!   never produce a false [`RecurrenceCandidate`].
//!
//! A confirmed recurrence says: the run revisited an earlier configuration
//! with the scheduler in the same deterministic phase.  For schedulers that
//! still draw randomly within a phase (e.g. the epoch-partition adversary
//! picking uniformly inside the active block) this alone does not prove a
//! livelock — the revisit may be luck.  Certification closes the gap with an
//! exhaustive closure check over everything the scheduler could still do
//! ([`crate::explore::phase_closure`]); the candidate produced here is the
//! replayable entry point for that check.

use crate::config::Configuration;
use crate::observer::StepObserver;
use crate::protocol::Protocol;
use crate::schedule::Interaction;
use crate::slot::DynState;

/// Incrementally maintained canonical digest of an erased configuration: the
/// wrapping sum over all agents of the position-salted [`DynState::digest`].
///
/// The sum is order-sensitive through the salt (agent `i` contributes
/// `digest(state_i, i)`), so permuting two distinct states changes the
/// value, yet any single-agent update is an O(1) subtract/add.  Equal
/// configurations always produce equal digests; unequal ones may collide,
/// so a digest match is a candidate only — confirm with `==`.
///
/// As a [`StepObserver`] this is only sound for **pure** protocols: an
/// oracle's broadcast rewrites agents outside the interacting pair, which
/// the observer never sees, so the sum would silently desynchronize.
/// Callers gate on [`Simulation::environment_active`] and call
/// [`ConfigDigest::resync`] after any out-of-band rewrite they control
/// (fault injection).
///
/// [`Simulation::environment_active`]: crate::simulation::Simulation::environment_active
#[derive(Clone, Debug)]
pub struct ConfigDigest {
    sum: u64,
    pre: u64,
}

impl ConfigDigest {
    /// Seeds the digest from a full configuration scan.
    pub fn new(states: &[DynState]) -> Self {
        let mut digest = ConfigDigest { sum: 0, pre: 0 };
        digest.resync(states);
        digest
    }

    /// Recomputes the digest from scratch — required after states change
    /// outside the observed interaction path (fault injection).
    pub fn resync(&mut self, states: &[DynState]) {
        self.sum = states
            .iter()
            .enumerate()
            .map(|(i, s)| s.digest(i as u64))
            .fold(0u64, u64::wrapping_add);
    }

    /// The current configuration digest.
    pub fn value(&self) -> u64 {
        self.sum
    }
}

impl<P> StepObserver<P> for ConfigDigest
where
    P: Protocol<State = DynState>,
{
    fn pre_interaction(
        &mut self,
        _protocol: &P,
        interaction: Interaction,
        initiator: &DynState,
        responder: &DynState,
    ) {
        self.pre = initiator
            .digest(interaction.initiator().index() as u64)
            .wrapping_add(responder.digest(interaction.responder().index() as u64));
    }

    fn post_interaction(
        &mut self,
        _protocol: &P,
        interaction: Interaction,
        initiator: &DynState,
        responder: &DynState,
    ) {
        let post = initiator
            .digest(interaction.initiator().index() as u64)
            .wrapping_add(responder.digest(interaction.responder().index() as u64));
        self.sum = self.sum.wrapping_sub(self.pre).wrapping_add(post);
    }
}

/// A confirmed configuration recurrence: the run was in `config` at
/// simulation step `entry_step` and returned to it, bit-for-bit, `period`
/// steps later with the scheduler in the same deterministic phase.
///
/// Confirmed means the stored configurations compared equal with `==` —
/// `config_digest` is carried along for reports, not as the evidence.
#[derive(Clone, Debug)]
pub struct RecurrenceCandidate {
    /// Simulation step at which the recurrent configuration was first
    /// snapshotted (it is provably part of the recurrent class).
    pub entry_step: u64,
    /// Steps between the snapshot and the confirmed revisit.
    pub period: u64,
    /// The configuration digest at both visits.
    pub config_digest: u64,
    /// The scheduler phase at both visits (`None` for memoryless
    /// schedulers).
    pub phase: Option<u64>,
    /// The recurrent configuration itself, for replay and closure checks.
    pub config: Configuration<DynState>,
}

/// One retained snapshot of the detector.
#[derive(Clone, Debug)]
struct Snapshot {
    /// Detector-local step count (since the last reset) at snapshot time.
    t: u64,
    /// Simulation step at snapshot time.
    step: u64,
    digest: u64,
    phase: Option<u64>,
    config: Configuration<DynState>,
}

/// Brent-style cycle finder over the (digest, phase) stream of a run.
///
/// The detector keeps exactly **one** configuration snapshot, re-taken
/// whenever its internal step counter is a power of two.  Every observed
/// step costs one `u64` + `Option<u64>` comparison; a configuration clone
/// happens only at the O(log T) snapshot points, so the fast path stays
/// effectively unobserved.  A cycle with tail `μ` and period `λ` is
/// detected within O(μ + λ) steps (the classic power-of-two argument: the
/// first snapshot taken inside the cycle with `t ≥ λ` catches it).
///
/// [`RecurrenceDetector::reset`] discards the snapshot — callers reset
/// after any out-of-band state change (fault injection), so a candidate
/// always describes the fault-free suffix of the run.
#[derive(Clone, Debug, Default)]
pub struct RecurrenceDetector {
    snapshot: Option<Snapshot>,
    /// Steps observed since the last reset.
    t: u64,
}

impl RecurrenceDetector {
    /// Creates a detector with no snapshot.
    pub fn new() -> Self {
        RecurrenceDetector::default()
    }

    /// Discards all detector state (snapshot and step counter).
    pub fn reset(&mut self) {
        self.snapshot = None;
        self.t = 0;
    }

    /// Observes the configuration after one step: `digest` and `phase` are
    /// the cheap per-step fingerprint, `step` is the simulation step count,
    /// and `config` is only inspected (and cloned) when the fingerprint
    /// matches the snapshot or a new snapshot is due.
    ///
    /// Returns a confirmed recurrence the first time the configuration
    /// provably repeats at the same phase.
    pub fn observe(
        &mut self,
        digest: u64,
        phase: Option<u64>,
        step: u64,
        config: &Configuration<DynState>,
    ) -> Option<RecurrenceCandidate> {
        self.t += 1;
        if let Some(snap) = &self.snapshot {
            if snap.digest == digest && snap.phase == phase && &snap.config == config {
                return Some(RecurrenceCandidate {
                    entry_step: snap.step,
                    period: self.t - snap.t,
                    config_digest: digest,
                    phase,
                    config: snap.config.clone(),
                });
            }
        }
        if self.t.is_power_of_two() {
            self.snapshot = Some(Snapshot {
                t: self.t,
                step,
                digest,
                phase,
                config: config.clone(),
            });
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::DynProtocol;

    /// A pure protocol over `u32` states: initiator copies onto responder.
    #[derive(Clone, Debug)]
    struct Copycat;
    impl Protocol for Copycat {
        type State = u32;
        fn interact(&self, initiator: &mut u32, responder: &mut u32) {
            *responder = *initiator;
        }
    }

    fn erased(values: &[u32]) -> Configuration<DynState> {
        Configuration::from_states(values.iter().map(|&v| DynState::new(v)).collect())
    }

    #[test]
    fn incremental_digest_matches_a_full_resync() {
        let protocol = DynProtocol::erase_protocol(Copycat);
        let mut config = erased(&[3, 1, 4, 1, 5, 9, 2, 6]);
        let mut digest = ConfigDigest::new(config.states());
        // Apply a few interactions by hand, driving the observer exactly as
        // the simulation would.
        for (i, r) in [(0usize, 1usize), (4, 2), (7, 0), (1, 6)] {
            let interaction = Interaction::new(i, r);
            digest.pre_interaction(
                &protocol,
                interaction,
                &config.states()[i],
                &config.states()[r],
            );
            let copied = config.states()[i].clone();
            config.states_mut()[r] = copied;
            digest.post_interaction(
                &protocol,
                interaction,
                &config.states()[i],
                &config.states()[r],
            );
            let expected = ConfigDigest::new(config.states()).value();
            assert_eq!(digest.value(), expected, "after interaction ({i}, {r})");
        }
    }

    #[test]
    fn digest_is_position_sensitive() {
        let a = ConfigDigest::new(erased(&[1, 2]).states()).value();
        let b = ConfigDigest::new(erased(&[2, 1]).states()).value();
        assert_ne!(a, b, "swapping distinct states must change the digest");
    }

    #[test]
    fn detector_finds_a_cycle_after_a_tail() {
        // Configurations: 5-step tail 100..104, then a 3-cycle 200, 201, 202.
        let mut detector = RecurrenceDetector::new();
        let config_for = |v: u32| erased(&[v]);
        let mut hit = None;
        for step in 1..=64u64 {
            let v = if step <= 5 {
                99 + step as u32
            } else {
                200 + ((step - 6) % 3) as u32
            };
            let config = config_for(v);
            let digest = ConfigDigest::new(config.states()).value();
            if let Some(candidate) = detector.observe(digest, None, step, &config) {
                hit = Some((step, candidate));
                break;
            }
        }
        let (at, candidate) = hit.expect("the cycle must be detected");
        assert_eq!(candidate.period % 3, 0, "period must be a cycle multiple");
        assert!(
            candidate.entry_step > 5,
            "snapshot must lie inside the cycle"
        );
        assert!(
            at <= 32,
            "Brent detects a (5, 3) cycle well within 32 steps"
        );
        assert_eq!(
            candidate.config,
            config_for(200 + ((candidate.entry_step - 6) % 3) as u32),
            "the candidate carries the recurrent configuration"
        );
    }

    #[test]
    fn digest_collisions_are_rejected_by_exact_comparison() {
        let mut detector = RecurrenceDetector::new();
        // Same fake digest every step, but the configurations never repeat:
        // the detector must never confirm.
        for step in 1..=128u64 {
            let config = erased(&[step as u32]);
            assert!(detector.observe(0xDEAD, None, step, &config).is_none());
        }
    }

    #[test]
    fn phase_mismatch_blocks_confirmation() {
        let mut detector = RecurrenceDetector::new();
        let config = erased(&[7]);
        let digest = ConfigDigest::new(config.states()).value();
        // Identical configuration every step, but the phase never returns to
        // the snapshot's value.
        for step in 1..=64u64 {
            assert!(detector
                .observe(digest, Some(step), step, &config)
                .is_none());
        }
        // With a periodic phase the very same stream confirms quickly.
        detector.reset();
        let mut confirmed = false;
        for step in 1..=64u64 {
            if detector
                .observe(digest, Some(step % 4), step, &config)
                .is_some()
            {
                confirmed = true;
                break;
            }
        }
        assert!(confirmed, "periodic phase + fixed config must recur");
    }

    #[test]
    fn reset_discards_the_snapshot() {
        let mut detector = RecurrenceDetector::new();
        let config = erased(&[1]);
        let digest = ConfigDigest::new(config.states()).value();
        assert!(detector.observe(digest, None, 1, &config).is_none());
        detector.reset();
        // Without the reset this second observation would confirm against
        // the snapshot from step 1.
        assert!(detector.observe(digest, None, 2, &config).is_none());
    }
}
