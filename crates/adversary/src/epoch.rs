//! Epoch-confined schedules with a fairness auditor.
//!
//! An [`EpochPartitionScheduler`] splits the arc set into `blocks` groups
//! (round-robin by arc index, so every group is non-empty) and confines each
//! *epoch* of `epoch_len` consecutive steps to one group, cycling through
//! the groups forever.  Locally the schedule looks starved — whole regions
//! of the graph see no interaction for `(blocks - 1) · epoch_len` steps at a
//! stretch — but globally it is **fair by construction**: every group recurs
//! every `blocks` epochs and every arc of a scheduled group has positive
//! probability per step, so every arc fires infinitely often almost surely.
//! That is exactly the global-fairness premise of the paper's
//! self-stabilization claim, which is why every Table 1 protocol must still
//! converge under this scheduler (covered by the workspace property tests).
//!
//! The optional [`FairnessAuditor`] certifies the premise empirically for a
//! concrete run: it counts per-arc firings and reports a
//! [`FairnessCertificate`] (did every arc fire, the minimum count, how many
//! full rotations completed).

use std::collections::HashMap;
use std::sync::{Arc, Mutex};

use rand::Rng;

use population::{Interaction, InteractionGraph, PopulationError, Result, Scheduler};

use crate::draw_below;

/// Shared, cheaply clonable handle to the per-arc fairness counts of one or
/// more [`EpochPartitionScheduler`] runs.
///
/// Clone a handle into the scheduler (or the `SchedulerFamily` closure that
/// builds one per run) and read [`FairnessAuditor::certificate`] afterwards.
#[derive(Clone, Debug, Default)]
pub struct FairnessAuditor {
    inner: Arc<Mutex<AuditInner>>,
}

#[derive(Debug, Default)]
struct AuditInner {
    /// Expected arcs (registered when a scheduler attaches) and their
    /// observed firing counts.
    counts: HashMap<(usize, usize), u64>,
    steps: u64,
    rotations: u64,
}

/// The auditor's verdict over the audited steps.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FairnessCertificate {
    /// Number of distinct arcs the audited schedulers could schedule.
    pub arcs: usize,
    /// Number of those arcs observed to fire at least once.
    pub fired: usize,
    /// The minimum per-arc firing count (0 if any arc never fired).
    pub min_fires: u64,
    /// Total audited steps.
    pub steps: u64,
    /// Completed full rotations through all groups.
    pub rotations: u64,
}

impl FairnessCertificate {
    /// `true` if every schedulable arc fired at least once in the audited
    /// window — the empirical witness of the fair-schedule premise.
    pub fn is_fair(&self) -> bool {
        self.arcs > 0 && self.fired == self.arcs
    }
}

impl FairnessAuditor {
    /// Creates an empty auditor.
    pub fn new() -> Self {
        FairnessAuditor::default()
    }

    /// Registers the arcs a scheduler can dispense (count 0 until observed).
    fn register(&self, arcs: &[Interaction]) {
        let mut inner = self.inner.lock().expect("auditor poisoned");
        for arc in arcs {
            inner
                .counts
                .entry((arc.initiator().index(), arc.responder().index()))
                .or_insert(0);
        }
    }

    fn record(&self, arc: Interaction) {
        let mut inner = self.inner.lock().expect("auditor poisoned");
        *inner
            .counts
            .entry((arc.initiator().index(), arc.responder().index()))
            .or_insert(0) += 1;
        inner.steps += 1;
    }

    fn record_rotation(&self) {
        self.inner.lock().expect("auditor poisoned").rotations += 1;
    }

    /// Clears all recorded state (e.g. between independent runs that reuse
    /// one handle).
    pub fn reset(&self) {
        let mut inner = self.inner.lock().expect("auditor poisoned");
        *inner = AuditInner::default();
    }

    /// The verdict over everything recorded so far.
    pub fn certificate(&self) -> FairnessCertificate {
        let inner = self.inner.lock().expect("auditor poisoned");
        let fired = inner.counts.values().filter(|&&c| c > 0).count();
        FairnessCertificate {
            arcs: inner.counts.len(),
            fired,
            min_fires: inner.counts.values().copied().min().unwrap_or(0),
            steps: inner.steps,
            rotations: inner.rotations,
        }
    }
}

/// A scheduler confining each epoch of steps to one group of an arc
/// partition, cycling through the groups.
#[derive(Clone, Debug)]
pub struct EpochPartitionScheduler {
    arcs: Vec<Interaction>,
    blocks: usize,
    epoch_len: u64,
    /// The active group: `(step / epoch_len) mod blocks`.
    group: usize,
    /// Steps already taken in the active epoch: `step mod epoch_len`.
    in_epoch: u64,
    /// `arcs.len() / blocks` and `arcs.len() % blocks`: group `g` holds
    /// `quotient + (g < remainder)` arcs.
    quotient: usize,
    remainder: usize,
    auditor: Option<FairnessAuditor>,
}

impl EpochPartitionScheduler {
    /// Creates the scheduler over the arcs of `graph`.  `blocks` is clamped
    /// to `[1, num_arcs]` and `epoch_len` to `>= 1`; group `g` contains the
    /// arcs whose index is `≡ g (mod blocks)`, so every group is non-empty.
    ///
    /// # Errors
    ///
    /// Returns [`PopulationError::EmptyArcSet`] if the graph has no arcs.
    pub fn new<G: InteractionGraph>(graph: &G, blocks: usize, epoch_len: u64) -> Result<Self> {
        let arcs = graph.arcs();
        if arcs.is_empty() {
            return Err(PopulationError::EmptyArcSet);
        }
        let blocks = blocks.clamp(1, arcs.len());
        Ok(EpochPartitionScheduler {
            quotient: arcs.len() / blocks,
            remainder: arcs.len() % blocks,
            arcs,
            blocks,
            epoch_len: epoch_len.max(1),
            group: 0,
            in_epoch: 0,
            auditor: None,
        })
    }

    /// Attaches a fairness auditor (registering this scheduler's arcs with
    /// it).  Auditing takes a mutex per step; leave it off on hot paths.
    pub fn with_auditor(mut self, auditor: FairnessAuditor) -> Self {
        auditor.register(&self.arcs);
        self.auditor = Some(auditor);
        self
    }

    /// Number of groups in the partition (after clamping).
    pub fn blocks(&self) -> usize {
        self.blocks
    }

    /// Steps per epoch (after clamping).
    pub fn epoch_len(&self) -> u64 {
        self.epoch_len
    }

    /// The number of arcs in the active group: `arcs[group]`,
    /// `arcs[group + blocks]`, ...
    fn members(&self) -> usize {
        self.quotient + usize::from(self.group < self.remainder)
    }

    /// Moves `taken` steps on, at most to the end of the active epoch; at
    /// its end the next group's epoch starts.  The epoch and the group
    /// wrap by comparison, so no step divides.
    fn advance(&mut self, taken: u64) {
        self.in_epoch += taken;
        if self.in_epoch < self.epoch_len {
            return;
        }
        self.in_epoch = 0;
        self.group += 1;
        if self.group == self.blocks {
            self.group = 0;
            if let Some(auditor) = &self.auditor {
                auditor.record_rotation();
            }
        }
    }
}

impl<G: InteractionGraph> Scheduler<G> for EpochPartitionScheduler {
    #[inline]
    fn next_interaction<R: Rng + ?Sized>(
        &mut self,
        _graph: &G,
        rng: &mut R,
    ) -> Result<Interaction> {
        let arc =
            self.arcs[self.group + draw_below(rng, self.members() as u64) as usize * self.blocks];
        if let Some(auditor) = &self.auditor {
            auditor.record(arc);
        }
        self.advance(1);
        Ok(arc)
    }

    /// Fills the block one epoch run at a time: within a run the group and
    /// its size are fixed, so each arc is one draw, one index and one
    /// `is_arc` check, and the epoch advances once per run.
    fn next_block<R: Rng + ?Sized>(
        &mut self,
        graph: &G,
        rng: &mut R,
        arcs: &mut [Interaction],
    ) -> (usize, Result<()>) {
        let mut filled = 0;
        while filled < arcs.len() {
            let left = self.epoch_len - self.in_epoch;
            let len = left.min((arcs.len() - filled) as u64) as usize;
            let run = &mut arcs[filled..filled + len];
            let (group, blocks, members) = (self.group, self.blocks, self.members() as u64);
            let (mut taken, mut stray) = (0, false);
            for slot in run {
                let arc = self.arcs[group + draw_below(rng, members) as usize * blocks];
                *slot = arc;
                taken += 1;
                if let Some(auditor) = &self.auditor {
                    auditor.record(arc);
                }
                if !graph.is_arc(arc.initiator().index(), arc.responder().index()) {
                    stray = true;
                    break;
                }
            }
            self.advance(taken as u64);
            filled += taken;
            if stray {
                break;
            }
        }
        (filled, Ok(()))
    }

    fn phase(&self) -> Option<u64> {
        // The schedule is periodic with period `epoch_len * blocks` (one full
        // rotation): which group is active and how far into its epoch we are
        // depend only on `step mod rotation`.  Exposing the periodic phase —
        // not the raw step — is what lets recurrence detection confirm that a
        // revisited configuration faces the *same* future schedule.
        Some(self.group as u64 * self.epoch_len + self.in_epoch)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use population::{CompleteGraph, DirectedRing};
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn epochs_confine_interactions_to_one_group() {
        let ring = DirectedRing::new(6).unwrap();
        let mut sched = EpochPartitionScheduler::new(&ring, 3, 10).unwrap();
        let arcs = ring.arcs();
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        for epoch in 0..6u64 {
            for _ in 0..10 {
                let arc = Scheduler::<DirectedRing>::next_interaction(&mut sched, &ring, &mut rng)
                    .unwrap();
                let idx = arcs.iter().position(|a| *a == arc).unwrap();
                assert_eq!(
                    idx % 3,
                    (epoch % 3) as usize,
                    "epoch {epoch} scheduled an arc of the wrong group"
                );
            }
        }
    }

    #[test]
    fn auditor_certifies_full_coverage_over_rotations() {
        let graph = CompleteGraph::new(5);
        let auditor = FairnessAuditor::new();
        let mut sched = EpochPartitionScheduler::new(&graph, 4, 8)
            .unwrap()
            .with_auditor(auditor.clone());
        let mut rng = ChaCha8Rng::seed_from_u64(9);
        for _ in 0..4_000 {
            Scheduler::<CompleteGraph>::next_interaction(&mut sched, &graph, &mut rng).unwrap();
        }
        let cert = auditor.certificate();
        assert_eq!(cert.arcs, graph.num_arcs());
        assert!(cert.is_fair(), "certificate: {cert:?}");
        assert!(cert.min_fires > 0);
        assert_eq!(cert.steps, 4_000);
        assert_eq!(cert.rotations, 4_000 / (4 * 8));
        auditor.reset();
        assert_eq!(auditor.certificate().steps, 0);
        assert!(!auditor.certificate().is_fair(), "empty audit is not fair");
    }

    #[test]
    fn starved_window_is_real() {
        // Within one epoch, arcs outside the active group never fire — the
        // adversarial half of the construction.
        let ring = DirectedRing::new(8).unwrap();
        let mut sched = EpochPartitionScheduler::new(&ring, 2, 1_000).unwrap();
        let arcs = ring.arcs();
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        let mut group1 = 0usize;
        for _ in 0..1_000 {
            let arc =
                Scheduler::<DirectedRing>::next_interaction(&mut sched, &ring, &mut rng).unwrap();
            if arcs.iter().position(|a| *a == arc).unwrap() % 2 == 1 {
                group1 += 1;
            }
        }
        assert_eq!(group1, 0, "first epoch must starve the second group");
    }

    #[test]
    fn phase_is_periodic_over_one_full_rotation() {
        let ring = DirectedRing::new(6).unwrap();
        let mut sched = EpochPartitionScheduler::new(&ring, 3, 4).unwrap();
        let rotation: u64 = 3 * 4;
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        for step in 0..(3 * rotation) {
            assert_eq!(
                Scheduler::<DirectedRing>::phase(&sched),
                Some(step % rotation),
                "phase must be the step counter modulo one rotation"
            );
            Scheduler::<DirectedRing>::next_interaction(&mut sched, &ring, &mut rng).unwrap();
        }
    }

    /// The kept group and in-epoch count give the arcs and phases of the
    /// division formula (group `(step / epoch_len) mod blocks`, phase
    /// `step mod (epoch_len · blocks)`) over three rotations, one-step
    /// epochs and one-arc groups included.
    #[test]
    fn counters_match_the_division_formula() {
        let graph = CompleteGraph::new(4);
        let arcs = graph.arcs();
        for (blocks, epoch_len) in [(3, 5), (1, 7), (arcs.len(), 1), (arcs.len(), 4), (5, 1)] {
            let mut sched = EpochPartitionScheduler::new(&graph, blocks, epoch_len).unwrap();
            let (mut rng, mut reference) =
                (ChaCha8Rng::seed_from_u64(11), ChaCha8Rng::seed_from_u64(11));
            let rotation = epoch_len * blocks as u64;
            for step in 0..3 * rotation + 2 {
                let phase = Scheduler::<CompleteGraph>::phase(&sched);
                assert_eq!(
                    phase,
                    Some(step % rotation),
                    "{blocks}x{epoch_len} step {step}"
                );
                let group = ((step / epoch_len) % blocks as u64) as usize;
                let members = (arcs.len() - group).div_ceil(blocks);
                let expected = arcs[group + reference.gen_range(0..members) * blocks];
                let arc =
                    Scheduler::<CompleteGraph>::next_interaction(&mut sched, &graph, &mut rng)
                        .unwrap();
                assert_eq!(arc, expected, "{blocks}x{epoch_len} step {step}");
            }
        }
    }

    #[test]
    fn parameters_are_clamped() {
        let ring = DirectedRing::new(3).unwrap();
        let sched = EpochPartitionScheduler::new(&ring, 100, 0).unwrap();
        assert_eq!(sched.blocks(), 3);
        assert_eq!(sched.epoch_len(), 1);
    }
}
