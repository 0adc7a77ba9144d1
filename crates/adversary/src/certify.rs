//! Livelock certification: from an empirical "did not converge" to a
//! checked "can never converge".
//!
//! The worst-case search ([`crate::worst_case_search`]) reports censored
//! runs — `converged: false` at the step budget — but a censored run cannot
//! distinguish a provable livelock from a slow convergence.  This module
//! closes that gap for **deterministic-phase** schedulers (today:
//! [`SchedulerSpec::EpochPartition`]):
//!
//! 1. [`Scenario::try_run_detecting`] replays the candidate with the
//!    recurrence detector armed; a confirmed
//!    [`RecurrenceCandidate`](population::RecurrenceCandidate) pins a
//!    configuration the run revisited at the same scheduler phase.
//! 2. [`spec_phases`] reconstructs the spec's exact phase structure — which
//!    arcs the scheduler can pick at which phase — as an
//!    [`ArcPhases`] value.
//! 3. [`population::phase_closure`] walks everything the scheduler could
//!    still do from the recurrent configuration.  The walk grades the
//!    certificate: a finite, stop-free closure upgrades it to
//!    [`exhaustive`](CertifiedLivelock::exhaustive) (**no** run of the
//!    scheduler from there can ever converge, regardless of its internal
//!    randomness); a walk that reaches a stop configuration **refutes** the
//!    livelock (some schedule converges — the recurrence was a
//!    probability-trap, not a certainty) and certification returns `None`;
//!    a walk that exceeds its limits leaves the recurrence-tier certificate
//!    standing — the exact replayed revisit, pinned by entry step, period
//!    and configuration digest.
//!
//! Certification is deliberately conservative: converged runs, runs without
//! a confirmed recurrence, runs with fault events still pending (the future
//! schedule would differ from the closure's model), memoryless schedulers
//! (no phase to anchor on) and closures that reach a stop configuration all
//! return `None` rather than guessing.

use population::{
    phase_closure, ArcPhases, ClosureLimits, Interaction, InteractionGraph, Result, Scenario,
    SweepPoint,
};

use crate::spec::SchedulerSpec;

/// A checked livelock certificate: the run entered configuration
/// `config_digest` at step `entry_step` and revisited it — bit-for-bit, at
/// the same scheduler phase `phase` — `period` steps later, with no fault
/// event left to break the cycle.  Replaying the scenario reproduces the
/// revisit exactly.
///
/// When [`exhaustive`](Self::exhaustive) is also set, the phase closure
/// from the recurrent configuration (covering `closure_configs` distinct
/// configurations) was walked to completion and is stop-free: no schedule
/// the scheduler could draw from there ever converges.  Otherwise the
/// closure exceeded its limits and the certificate stands on the replayed
/// recurrence alone.
///
/// All fields are exact integers so the certificate is `Eq`-comparable and
/// serializes without loss.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct CertifiedLivelock {
    /// Simulation step at which the recurrent configuration was first
    /// snapshotted.
    pub entry_step: u64,
    /// Steps between the two confirmed visits.
    pub period: u64,
    /// Canonical position-salted digest of the recurrent configuration
    /// ([`population::DynState::digest`] summed per
    /// [`population::ConfigDigest`]), computed once from the confirmed
    /// configuration; the detector's per-step filter is never reported.
    pub config_digest: u64,
    /// The scheduler phase (step counter modulo one rotation) at both
    /// visits and at the root of the closure walk.
    pub phase: u64,
    /// `true` when the phase closure finished within its limits and found
    /// no stop configuration — the livelock holds under *every* schedule,
    /// not just the replayed one.
    pub exhaustive: bool,
    /// Distinct configurations in the exhaustive stop-free closure; `0`
    /// when the closure exceeded its limits (`exhaustive == false`).
    pub closure_configs: u64,
}

/// The exact phase structure of `spec` over `arcs` (in graph order, the
/// order every scheduler built from the spec sees).
///
/// [`SchedulerSpec::EpochPartition`] partitions the arcs round-robin by
/// index — group `g` holds the arcs whose index is `≡ g (mod blocks)`, with
/// `blocks` clamped to `[1, arcs.len()]` and `epoch_len` to `≥ 1`, exactly
/// mirroring [`EpochPartitionScheduler::new`](crate::EpochPartitionScheduler::new).
/// Every other spec is memoryless — any arc at any step — which
/// [`ArcPhases::unrestricted`] models as a single always-active group.
pub fn spec_phases(spec: &SchedulerSpec, arcs: Vec<Interaction>) -> ArcPhases {
    match *spec {
        SchedulerSpec::EpochPartition { blocks, epoch_len } => {
            let blocks = (blocks as usize).clamp(1, arcs.len().max(1));
            let mut groups = vec![Vec::new(); blocks];
            for (index, arc) in arcs.into_iter().enumerate() {
                groups[index % blocks].push(arc);
            }
            ArcPhases::cyclic(groups, epoch_len)
        }
        SchedulerSpec::Random | SchedulerSpec::Weighted { .. } | SchedulerSpec::Greedy { .. } => {
            ArcPhases::unrestricted(arcs)
        }
    }
}

/// Attempts to certify that `scenario` at `point` livelocks forever.
///
/// `scenario` must already run under the scheduler `spec` describes (the
/// caller builds it via [`Scenario::with_scheduler`] with
/// [`SchedulerSpec::family`]); `spec` is consulted only for its phase
/// structure.  Returns `Ok(Some(_))` exactly when the detection run
/// confirmed a recurrence **and** the phase closure from the recurrent
/// configuration did not reach a stop configuration; the certificate is
/// [`exhaustive`](CertifiedLivelock::exhaustive) when the closure also
/// finished within `limits`.  Convergence, no recurrence within the budget,
/// pending fault events, a memoryless scheduler, or a closure that proves a
/// converging schedule exists — all `Ok(None)`.
///
/// # Errors
///
/// Propagates the same errors as [`Scenario::try_run`] (graph construction,
/// scheduler exhaustion, a non-empty fault plan without a corruption
/// function).
pub fn certify_livelock(
    scenario: &Scenario,
    spec: &SchedulerSpec,
    point: &SweepPoint,
    limits: &ClosureLimits,
) -> Result<Option<CertifiedLivelock>> {
    let run = scenario.try_run_detecting(point)?;
    if run.report.converged() || run.faults_pending {
        return Ok(None);
    }
    let Some(candidate) = run.recurrence else {
        return Ok(None);
    };
    let Some(phase) = candidate.phase else {
        return Ok(None);
    };
    let graph = scenario.graph_family().build(point.n)?;
    let phases = spec_phases(spec, graph.arcs());
    let mut prepared = scenario.prepare(point);
    let outcome = phase_closure(
        &prepared.protocol,
        &phases,
        &candidate.config,
        phase,
        &mut *prepared.stop,
        limits,
    );
    if !outcome.stop_free {
        // The walk reached a configuration that satisfies the stop
        // predicate: some schedule from the recurrent configuration
        // converges, so this is provably not a livelock.
        return Ok(None);
    }
    let exhaustive = outcome.certifies_livelock();
    Ok(Some(CertifiedLivelock {
        entry_step: candidate.entry_step,
        period: candidate.period,
        config_digest: candidate.config_digest,
        phase,
        exhaustive,
        closure_configs: if exhaustive {
            outcome.configs as u64
        } else {
            0
        },
    }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use population::{Configuration, GraphFamily, LeaderElection, Protocol, ScenarioBuilder};

    /// Pairwise leader elimination; all-false is a dead (leaderless) fixed
    /// point, so starting there livelocks under every scheduler.
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

    fn scenario(spec: &SchedulerSpec, all_leaders: bool) -> Scenario {
        let builder = ScenarioBuilder::new("fratricide", |_pt: &SweepPoint| Fratricide)
            .graph(GraphFamily::Complete)
            .init(move |_p, pt| Configuration::uniform(pt.n, all_leaders))
            .stop_when("unique-leader", |p: &Fratricide, c| {
                p.has_unique_leader(c.states())
            })
            .check_every(|_pt| 64)
            .step_budget(|_pt| 200_000);
        let builder = match spec {
            SchedulerSpec::Random => builder,
            other => builder.scheduler(other.family(None)),
        };
        builder.build().unwrap()
    }

    #[test]
    fn epoch_partition_livelock_is_certified() {
        let spec = SchedulerSpec::EpochPartition {
            blocks: 3,
            epoch_len: 7,
        };
        let certified = certify_livelock(
            &scenario(&spec, false),
            &spec,
            &SweepPoint::new(4, 11),
            &ClosureLimits::default(),
        )
        .unwrap()
        .expect("a dead configuration under a phased scheduler must certify");
        // All-false is a fixed point: the closure holds exactly one
        // configuration and the recurrence period divides into rotations.
        assert!(certified.exhaustive);
        assert_eq!(certified.closure_configs, 1);
        assert!(certified.period > 0);
        let rotation = 3 * 7;
        assert!(certified.phase < rotation);
        // Deterministic end to end: a second run reproduces the certificate.
        let again = certify_livelock(
            &scenario(&spec, false),
            &spec,
            &SweepPoint::new(4, 11),
            &ClosureLimits::default(),
        )
        .unwrap();
        assert_eq!(again, Some(certified));
    }

    #[test]
    fn choked_closure_limits_leave_the_recurrence_tier_standing() {
        let spec = SchedulerSpec::EpochPartition {
            blocks: 3,
            epoch_len: 7,
        };
        // A node budget too small for even the single-configuration orbit:
        // the closure stays inconclusive, but the replayed recurrence is
        // still a certificate — just not an exhaustive one.
        let recurrence_only = certify_livelock(
            &scenario(&spec, false),
            &spec,
            &SweepPoint::new(4, 11),
            &ClosureLimits {
                max_configs: 4096,
                max_nodes: 2,
            },
        )
        .unwrap()
        .expect("the replayed recurrence certifies even when the closure cannot finish");
        assert!(!recurrence_only.exhaustive);
        assert_eq!(recurrence_only.closure_configs, 0);
        // Same recurrence as the exhaustive certificate, different grade.
        let exhaustive = certify_livelock(
            &scenario(&spec, false),
            &spec,
            &SweepPoint::new(4, 11),
            &ClosureLimits::default(),
        )
        .unwrap()
        .unwrap();
        assert_eq!(recurrence_only.entry_step, exhaustive.entry_step);
        assert_eq!(recurrence_only.period, exhaustive.period);
        assert_eq!(recurrence_only.config_digest, exhaustive.config_digest);
        assert_eq!(recurrence_only.phase, exhaustive.phase);
    }

    #[test]
    fn converging_runs_and_memoryless_schedulers_are_not_certified() {
        let spec = SchedulerSpec::EpochPartition {
            blocks: 2,
            epoch_len: 4,
        };
        // All-leaders converges to a unique leader: nothing to certify.
        let converged = certify_livelock(
            &scenario(&spec, true),
            &spec,
            &SweepPoint::new(4, 3),
            &ClosureLimits::default(),
        )
        .unwrap();
        assert_eq!(converged, None);
        // The same dead configuration under the memoryless random scheduler:
        // no phase, so detection never arms and certification abstains even
        // though the livelock is real.
        let random = certify_livelock(
            &scenario(&SchedulerSpec::Random, false),
            &SchedulerSpec::Random,
            &SweepPoint::new(4, 3),
            &ClosureLimits::default(),
        )
        .unwrap();
        assert_eq!(random, None);
    }

    #[test]
    fn spec_phases_mirror_the_epoch_scheduler_partition() {
        let arcs: Vec<Interaction> = (0..7).map(|i| Interaction::new(i, (i + 1) % 8)).collect();
        let spec = SchedulerSpec::EpochPartition {
            blocks: 3,
            epoch_len: 5,
        };
        let phases = spec_phases(&spec, arcs.clone());
        assert_eq!(phases.groups().len(), 3);
        assert_eq!(phases.epoch_len(), 5);
        assert_eq!(phases.rotation(), 15);
        for (g, group) in phases.groups().iter().enumerate() {
            for arc in group {
                let index = arcs.iter().position(|a| a == arc).unwrap();
                assert_eq!(index % 3, g, "arc {index} landed in group {g}");
            }
        }
        assert_eq!(
            phases.groups().iter().map(Vec::len).sum::<usize>(),
            arcs.len(),
            "the groups partition the arc set"
        );
        // Over-clamped blocks collapse to one group per arc.
        let tight = spec_phases(
            &SchedulerSpec::EpochPartition {
                blocks: 100,
                epoch_len: 0,
            },
            arcs.clone(),
        );
        assert_eq!(tight.groups().len(), arcs.len());
        assert_eq!(tight.epoch_len(), 1, "epoch_len is clamped to >= 1");
        // Memoryless specs are a single unrestricted group.
        let unrestricted = spec_phases(&SchedulerSpec::Random, arcs.clone());
        assert_eq!(unrestricted.groups().len(), 1);
        assert_eq!(unrestricted.groups()[0], arcs);
    }
}
