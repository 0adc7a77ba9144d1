//! Configuration-recurrence detection for the erased run loop.
//!
//! The stabilization bench can only say "did not converge within the budget"
//! about a censored cell; this module upgrades that to a checked statement.
//! Three pieces cooperate:
//!
//! * `FingerprintSum` — a crate-private [`StepObserver`] that maintains a
//!   64-bit filter value of the whole configuration **incrementally**: each
//!   interaction touches two agents, so the observer subtracts their
//!   position-salted [`DynState::fingerprint`]s before the transition and
//!   adds them back after, keeping the per-step cost O(1) in the population
//!   size and free of any formatting.
//! * [`RecurrenceDetector`] — a Brent-style cycle finder over the stream of
//!   (filter value, scheduler phase) pairs.  It snapshots the configuration
//!   when its internal step counter is a power of two and compares every
//!   later step against the snapshot; a filter + phase match is then
//!   **confirmed** by comparing the configurations themselves, so hash
//!   collisions can never produce a false [`RecurrenceCandidate`], and the
//!   recurrence found does not depend on which filter fed the detector.
//! * [`ConfigDigest`] — the canonical full-scan digest of a configuration,
//!   computed once per confirmed candidate for reports and certificates.
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

/// The canonical digest of an erased configuration: the wrapping sum over
/// all agents of the position-salted [`DynState::digest`].
///
/// The sum is order-sensitive through the salt (agent `i` contributes
/// `digest(state_i, i)`), so permuting two distinct states changes the
/// value.  Equal configurations always produce equal digests; unequal ones
/// may collide.  Reports and certificates persist this value, so it is
/// computed by a full scan, never per step.
#[derive(Clone, Copy, Debug)]
pub struct ConfigDigest {
    sum: u64,
}

impl ConfigDigest {
    /// Digests a configuration by a full scan.
    pub fn new(states: &[DynState]) -> Self {
        ConfigDigest {
            sum: salted_sum(states, DynState::digest),
        }
    }

    /// The configuration digest.
    pub fn value(&self) -> u64 {
        self.sum
    }
}

/// The wrapping sum of `hash(state_i, i)` over all agents.
fn salted_sum(states: &[DynState], hash: impl Fn(&DynState, u64) -> u64) -> u64 {
    states
        .iter()
        .enumerate()
        .map(|(i, s)| hash(s, i as u64))
        .fold(0u64, u64::wrapping_add)
}

/// Incrementally maintained filter value of an erased configuration: the
/// wrapping sum over all agents of the position-salted
/// [`DynState::fingerprint`], shaped like [`ConfigDigest`] but cheap enough
/// to update on every step.
///
/// Any single-agent update is an O(1) subtract/add.  Equal configurations
/// always produce equal sums; unequal ones may collide, so a match is a
/// candidate only — confirm with `==`.  The value is never reported.
///
/// As a [`StepObserver`] this is only sound for **pure** protocols: an
/// oracle's broadcast rewrites agents outside the interacting pair, which
/// the observer never sees, so the sum would silently desynchronize.
/// Callers gate on [`Simulation::environment_active`] and call
/// [`FingerprintSum::resync`] after any out-of-band rewrite they control
/// (fault injection).
///
/// [`Simulation::environment_active`]: crate::simulation::Simulation::environment_active
#[derive(Clone, Debug)]
pub(crate) struct FingerprintSum {
    sum: u64,
    pre: u64,
}

impl FingerprintSum {
    /// Seeds the sum from a full configuration scan.
    pub(crate) fn new(states: &[DynState]) -> Self {
        let mut sum = FingerprintSum { sum: 0, pre: 0 };
        sum.resync(states);
        sum
    }

    /// Recomputes the sum from scratch — required after states change
    /// outside the observed interaction path (fault injection).
    pub(crate) fn resync(&mut self, states: &[DynState]) {
        self.sum = salted_sum(states, DynState::fingerprint);
    }

    /// The current filter value.
    pub(crate) fn value(&self) -> u64 {
        self.sum
    }

    /// The two interacting agents' share of the sum.
    #[inline]
    fn pair(interaction: Interaction, initiator: &DynState, responder: &DynState) -> u64 {
        initiator
            .fingerprint(interaction.initiator().index() as u64)
            .wrapping_add(responder.fingerprint(interaction.responder().index() as u64))
    }
}

impl<P> StepObserver<P> for FingerprintSum
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
        self.pre = Self::pair(interaction, initiator, responder);
    }

    fn post_interaction(
        &mut self,
        _protocol: &P,
        interaction: Interaction,
        initiator: &DynState,
        responder: &DynState,
    ) {
        let post = Self::pair(interaction, initiator, responder);
        self.sum = self.sum.wrapping_sub(self.pre).wrapping_add(post);
    }
}

/// A confirmed configuration recurrence: the run was in `config` at
/// simulation step `entry_step` and returned to it, bit-for-bit, `period`
/// steps later with the scheduler in the same deterministic phase.
///
/// Confirmed means the stored configurations compared equal with `==` —
/// `config_digest` is computed for reports once the match is confirmed, not
/// used as the evidence.
#[derive(Clone, Debug)]
pub struct RecurrenceCandidate {
    /// Simulation step at which the recurrent configuration was first
    /// snapshotted (it is provably part of the recurrent class).
    pub entry_step: u64,
    /// Steps between the snapshot and the confirmed revisit.
    pub period: u64,
    /// The canonical [`ConfigDigest`] of the recurrent configuration.
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
    filter: u64,
    phase: Option<u64>,
    config: Configuration<DynState>,
}

/// Brent-style cycle finder over the (filter value, phase) stream of a run.
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

    /// Observes the configuration after one step: `filter` and `phase` are
    /// the cheap per-step summary (`filter` any value that equal
    /// configurations share, such as a [`ConfigDigest`]), `step` is the
    /// simulation step count, and `config` is only inspected (and cloned)
    /// when the summary matches the snapshot or a new snapshot is due.
    ///
    /// Returns a confirmed recurrence the first time the configuration
    /// provably repeats at the same phase; its `config_digest` is the
    /// canonical [`ConfigDigest`], computed by one scan of the snapshot.
    pub fn observe(
        &mut self,
        filter: u64,
        phase: Option<u64>,
        step: u64,
        config: &Configuration<DynState>,
    ) -> Option<RecurrenceCandidate> {
        self.t += 1;
        if let Some(snap) = &self.snapshot {
            if snap.filter == filter && snap.phase == phase && &snap.config == config {
                return Some(RecurrenceCandidate {
                    entry_step: snap.step,
                    period: self.t - snap.t,
                    config_digest: ConfigDigest::new(snap.config.states()).value(),
                    phase,
                    config: snap.config.clone(),
                });
            }
        }
        if self.t.is_power_of_two() {
            self.snapshot = Some(Snapshot {
                t: self.t,
                step,
                filter,
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

    /// A pure protocol over `u32` states: the pair trades states.
    #[derive(Clone, Debug)]
    struct Swapper;
    impl Protocol for Swapper {
        type State = u32;
        fn interact(&self, initiator: &mut u32, responder: &mut u32) {
            std::mem::swap(initiator, responder);
        }
    }

    fn erased(values: &[u32]) -> Configuration<DynState> {
        Configuration::from_states(values.iter().map(|&v| DynState::new(v)).collect())
    }

    #[test]
    fn incremental_fingerprint_sum_matches_a_full_resync() {
        let protocol = DynProtocol::erase_protocol(Copycat);
        let mut config = erased(&[3, 1, 4, 1, 5, 9, 2, 6]);
        let mut sum = FingerprintSum::new(config.states());
        // Apply a few interactions by hand, driving the observer exactly as
        // the simulation would.
        for (i, r) in [(0usize, 1usize), (4, 2), (7, 0), (1, 6)] {
            let interaction = Interaction::new(i, r);
            sum.pre_interaction(
                &protocol,
                interaction,
                &config.states()[i],
                &config.states()[r],
            );
            let copied = config.states()[i].clone();
            config.states_mut()[r] = copied;
            sum.post_interaction(
                &protocol,
                interaction,
                &config.states()[i],
                &config.states()[r],
            );
            let expected = FingerprintSum::new(config.states()).value();
            assert_eq!(sum.value(), expected, "after interaction ({i}, {r})");
        }
    }

    #[test]
    fn config_digest_values_are_frozen() {
        // Certificates persist this value; any change to `DynState::digest`
        // or the salted sum breaks the committed artifacts.
        let config = erased(&[3, 1, 4, 1, 5]);
        assert_eq!(
            ConfigDigest::new(config.states()).value(),
            0x5742_5267_8d9b_a64b
        );
    }

    #[test]
    fn digest_and_fingerprint_sum_are_position_sensitive() {
        let (ab, ba) = (erased(&[1, 2]), erased(&[2, 1]));
        assert_ne!(
            ConfigDigest::new(ab.states()).value(),
            ConfigDigest::new(ba.states()).value(),
            "swapping distinct states must change the digest"
        );
        assert_ne!(
            FingerprintSum::new(ab.states()).value(),
            FingerprintSum::new(ba.states()).value(),
            "swapping distinct states must change the fingerprint sum"
        );
    }

    #[test]
    fn the_detected_recurrence_does_not_depend_on_the_filter() {
        // A swapping run under a fixed rotation of arcs on 6 agents: the
        // configuration stream cycles through permutations of the start.
        // One detector filters on canonical digests, the other on
        // fingerprint sums.
        let protocol = DynProtocol::erase_protocol(Swapper);
        let arcs = [(0usize, 3usize), (2, 5), (4, 1), (5, 0), (1, 2), (3, 4)];
        let mut config = erased(&[3, 1, 4, 1, 5, 9]);
        let mut sum = FingerprintSum::new(config.states());
        let (mut by_digest, mut by_fingerprint) =
            (RecurrenceDetector::new(), RecurrenceDetector::new());
        let (mut found_by_digest, mut found_by_fingerprint) = (None, None);
        for step in 1..=4096u64 {
            let (i, r) = arcs[(step % arcs.len() as u64) as usize];
            let interaction = Interaction::new(i, r);
            let (mut a, mut b) = (config.states()[i].clone(), config.states()[r].clone());
            sum.pre_interaction(&protocol, interaction, &a, &b);
            protocol.interact(&mut a, &mut b);
            sum.post_interaction(&protocol, interaction, &a, &b);
            (config.states_mut()[i], config.states_mut()[r]) = (a, b);
            let phase = Some(step % arcs.len() as u64);
            let digest = ConfigDigest::new(config.states()).value();
            if found_by_digest.is_none() {
                found_by_digest = by_digest.observe(digest, phase, step, &config);
            }
            if found_by_fingerprint.is_none() {
                found_by_fingerprint = by_fingerprint.observe(sum.value(), phase, step, &config);
            }
        }
        let (d, f) = (
            found_by_digest.expect("the rotation must recur"),
            found_by_fingerprint.expect("the rotation must recur"),
        );
        assert_eq!(
            (d.entry_step, d.period, d.phase, &d.config),
            (f.entry_step, f.period, f.phase, &f.config)
        );
        for candidate in [&d, &f] {
            assert_eq!(
                candidate.config_digest,
                ConfigDigest::new(candidate.config.states()).value()
            );
        }
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
