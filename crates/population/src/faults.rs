//! Fault injection.
//!
//! Self-stabilization promises recovery from *any* transient fault: after an
//! arbitrary corruption of agent memory, the protocol re-converges to a safe
//! configuration.  [`FaultInjector`] corrupts a configuration in controlled
//! ways so that the recovery experiments (E11 in `DESIGN.md`) can measure
//! re-convergence time as a function of the number of corrupted agents.
//! A [`FaultPlan`] schedules such corruptions at explicit steps of a
//! scenario run.

use rand::seq::SliceRandom;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use crate::config::Configuration;
use crate::error::{PopulationError, Result};

/// The kind of corruption to apply.
///
/// Extent semantics on a population of `n` agents (deliberate, so a plan
/// written for one size replays meaningfully at another):
///
/// * `CorruptRandomAgents { count }` with `count > n` silently **truncates**
///   to `n` — it corrupts every agent, exactly like [`FaultKind::CorruptAll`].
/// * `CorruptBlock { start, count }` **wraps modulo `n`**: the block is the
///   `count.min(n)` agents `start % n, (start + 1) % n, …` — a block larger
///   than the ring covers it once, and a `start` beyond the population is a
///   rotation, not an error.
/// * `CorruptTargets { limit }` truncates to however many agents currently
///   satisfy the target predicate (possibly zero — a targeted fault aimed at
///   an extinct population of targets is a legal no-op *at fire time*).
///
/// A `count`/`limit` of **zero**, by contrast, is rejected when the plan is
/// built ([`FaultPlan::try_at`]): an event that can never corrupt
/// anything is always a bug in the plan, not a boundary case of the run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultKind {
    /// Replace the states of `count` randomly chosen agents using the
    /// supplied corruption function.
    CorruptRandomAgents {
        /// Number of agents to corrupt.
        count: usize,
    },
    /// Replace the states of the `count` agents starting at `start`
    /// (a contiguous clockwise block) — models a localized burst fault.
    CorruptBlock {
        /// Index of the first corrupted agent.
        start: usize,
        /// Number of agents to corrupt.
        count: usize,
    },
    /// Corrupt every agent.
    CorruptAll,
    /// Replace the states of up to `limit` agents that currently satisfy the
    /// scenario's *target predicate* (`ScenarioBuilder::fault_targets`),
    /// scanned in agent-index order.  `limit = 1` with a leader predicate
    /// corrupts *the current leader*; a large `limit` with a token predicate
    /// corrupts *every token-holder*.  Target selection consumes no
    /// randomness; only the corruption function draws from the fault RNG.
    CorruptTargets {
        /// Maximum number of target agents to corrupt.
        limit: usize,
    },
}

impl FaultKind {
    /// The extent field of this kind: how many agents the event *asks* to
    /// corrupt (`None` for [`FaultKind::CorruptAll`], which has no knob).
    /// Zero extent makes an event unable to ever corrupt anything, which
    /// [`FaultPlan::try_at`] rejects as a typed error.
    pub fn extent(&self) -> Option<usize> {
        match self {
            FaultKind::CorruptRandomAgents { count } => Some(*count),
            FaultKind::CorruptBlock { count, .. } => Some(*count),
            FaultKind::CorruptAll => None,
            FaultKind::CorruptTargets { limit } => Some(*limit),
        }
    }
}

/// Applies [`FaultKind`]s to configurations using a protocol-supplied
/// corruption function.
#[derive(Clone, Debug)]
pub struct FaultInjector {
    rng: ChaCha8Rng,
}

impl FaultInjector {
    /// Creates a fault injector from a seed.
    pub fn new(seed: u64) -> Self {
        FaultInjector {
            rng: ChaCha8Rng::seed_from_u64(seed),
        }
    }

    /// Applies a fault to `config`.  `corrupt` receives the RNG and the index
    /// of the agent being corrupted and must return its new (arbitrary)
    /// state.  Returns the indices of the corrupted agents.
    ///
    /// # Panics
    ///
    /// [`FaultKind::CorruptTargets`] needs the scenario's target predicate to
    /// choose its victims, which this positional entry point does not have —
    /// route targeted kinds through [`FaultInjector::inject_targeted`]
    /// instead (the scenario layer does).  Calling `inject` with a targeted
    /// kind is an internal invariant violation and panics.
    pub fn inject<S, F>(
        &mut self,
        config: &mut Configuration<S>,
        kind: FaultKind,
        mut corrupt: F,
    ) -> Vec<usize>
    where
        F: FnMut(&mut ChaCha8Rng, usize) -> S,
    {
        let n = config.len();
        let targets: Vec<usize> = match kind {
            FaultKind::CorruptRandomAgents { count } => {
                let mut all: Vec<usize> = (0..n).collect();
                all.shuffle(&mut self.rng);
                all.truncate(count.min(n));
                all
            }
            FaultKind::CorruptBlock { start, count } => {
                (0..count.min(n)).map(|k| (start + k) % n).collect()
            }
            FaultKind::CorruptAll => (0..n).collect(),
            FaultKind::CorruptTargets { .. } => {
                panic!("CorruptTargets requires the scenario target predicate: use inject_targeted")
            }
        };
        for &i in &targets {
            let new_state = corrupt(&mut self.rng, i);
            config[i] = new_state;
        }
        targets
    }

    /// Applies a [`FaultKind::CorruptTargets`]-style fault: scans the
    /// configuration in agent-index order, corrupts (up to) the first
    /// `limit` agents for which `is_target` holds, and returns their
    /// indices.  Selection is deterministic and consumes no randomness;
    /// only `corrupt` draws from the injector RNG, so an event that finds
    /// no targets leaves the fault RNG stream untouched.
    pub fn inject_targeted<S, F, T>(
        &mut self,
        config: &mut Configuration<S>,
        limit: usize,
        mut is_target: T,
        mut corrupt: F,
    ) -> Vec<usize>
    where
        F: FnMut(&mut ChaCha8Rng, usize) -> S,
        T: FnMut(&S, usize) -> bool,
    {
        let targets: Vec<usize> = (0..config.len())
            .filter(|&i| is_target(&config[i], i))
            .take(limit)
            .collect();
        for &i in &targets {
            let new_state = corrupt(&mut self.rng, i);
            config[i] = new_state;
        }
        targets
    }
}

/// A fault scheduled at an explicit step of a scenario run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FaultEvent {
    /// The step (counted from the start of the run) *before* which the fault
    /// fires; step 0 fires before the first interaction and before the
    /// initial stop-criterion check.
    pub at_step: u64,
    /// The corruption to apply.
    pub kind: FaultKind,
}

/// A declarative schedule of transient faults injected during a scenario
/// run: corruptions at explicit steps ([`FaultPlan::at`]), kept sorted by
/// step.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct FaultPlan {
    events: Vec<FaultEvent>,
}

impl FaultPlan {
    /// Creates an empty plan.
    pub fn new() -> Self {
        FaultPlan::default()
    }

    /// Schedules `kind` to fire at `at_step` (builder-style; events are kept
    /// sorted by step).
    ///
    /// # Panics
    ///
    /// Panics on a zero-extent kind (`count == 0` / `limit == 0`) — a no-op
    /// fault in a plan is always a bug.  Use [`FaultPlan::try_at`] to handle
    /// it as a typed error instead.
    pub fn at(self, at_step: u64, kind: FaultKind) -> Self {
        self.try_at(at_step, kind).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible variant of [`FaultPlan::at`].
    ///
    /// # Errors
    ///
    /// Returns [`PopulationError::DegenerateFault`] if `kind` has extent
    /// zero ([`FaultKind::extent`]): such an event can never corrupt
    /// anything, so scheduling one is always a bug, not a boundary case.
    pub fn try_at(mut self, at_step: u64, kind: FaultKind) -> Result<Self> {
        if kind.extent() == Some(0) {
            return Err(PopulationError::DegenerateFault { at: at_step });
        }
        self.events.push(FaultEvent { at_step, kind });
        self.events.sort_by_key(|e| e.at_step);
        Ok(self)
    }

    /// The step-scheduled events, sorted by step.
    pub fn events(&self) -> &[FaultEvent] {
        &self.events
    }

    /// Returns `true` if the plan schedules no event.  Empty plans keep the
    /// fault-free fast path.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Number of scheduled fault events.
    pub fn len(&self) -> usize {
        self.events.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;

    #[test]
    fn corrupt_random_agents_changes_exactly_count_states() {
        let mut config = Configuration::uniform(20, 0u32);
        let mut inj = FaultInjector::new(1);
        let targets = inj.inject(
            &mut config,
            FaultKind::CorruptRandomAgents { count: 5 },
            |_, _| 99,
        );
        assert_eq!(targets.len(), 5);
        assert_eq!(config.count_where(|&x| x == 99), 5);
        // Targets are distinct.
        let mut t = targets.clone();
        t.sort_unstable();
        t.dedup();
        assert_eq!(t.len(), 5);
    }

    #[test]
    fn corrupt_block_wraps_around_the_ring() {
        let mut config = Configuration::uniform(6, 0u32);
        let mut inj = FaultInjector::new(2);
        let targets = inj.inject(
            &mut config,
            FaultKind::CorruptBlock { start: 4, count: 4 },
            |_, i| i as u32 + 100,
        );
        assert_eq!(targets, vec![4, 5, 0, 1]);
        assert_eq!(config[4], 104);
        assert_eq!(config[0], 100);
        assert_eq!(config[2], 0);
    }

    #[test]
    fn corrupt_all_touches_every_agent() {
        let mut config = Configuration::uniform(8, 0u32);
        let mut inj = FaultInjector::new(3);
        let targets = inj.inject(&mut config, FaultKind::CorruptAll, |rng, _| {
            rng.gen_range(1..5)
        });
        assert_eq!(targets.len(), 8);
        assert!(config.states().iter().all(|&x| (1..5).contains(&x)));
    }

    #[test]
    fn count_larger_than_population_is_clamped() {
        let mut config = Configuration::uniform(4, 0u32);
        let mut inj = FaultInjector::new(4);
        let targets = inj.inject(
            &mut config,
            FaultKind::CorruptRandomAgents { count: 100 },
            |_, _| 1,
        );
        assert_eq!(targets.len(), 4);
    }

    #[test]
    fn targeted_injection_corrupts_the_first_matching_agents_only() {
        // Agents 2, 5, 7 are "leaders"; limit 2 must hit 2 and 5 in index
        // order and leave 7 alone.
        let mut config = Configuration::from_states(vec![0u32, 0, 1, 0, 0, 1, 0, 1]);
        let mut inj = FaultInjector::new(9);
        let targets = inj.inject_targeted(&mut config, 2, |&s, _| s == 1, |_, _| 99);
        assert_eq!(targets, vec![2, 5]);
        assert_eq!(config[2], 99);
        assert_eq!(config[5], 99);
        assert_eq!(config[7], 1, "beyond the limit stays untouched");
    }

    #[test]
    fn targeted_injection_without_targets_is_a_no_op_that_preserves_the_rng() {
        let mut config = Configuration::uniform(6, 0u32);
        let mut inj = FaultInjector::new(11);
        let targets = inj.inject_targeted(&mut config, 4, |&s, _| s == 7, |rng, _| rng.gen());
        assert!(targets.is_empty());
        assert!(config.states().iter().all(|&x| x == 0));
        // The fault RNG stream was not advanced: the next positional
        // injection matches a fresh injector with the same seed.
        let mut fresh = FaultInjector::new(11);
        let mut a = Configuration::uniform(6, 0u32);
        let mut b = Configuration::uniform(6, 0u32);
        let ta = inj.inject(
            &mut a,
            FaultKind::CorruptRandomAgents { count: 3 },
            |r, _| r.gen(),
        );
        let tb = fresh.inject(
            &mut b,
            FaultKind::CorruptRandomAgents { count: 3 },
            |r, _| r.gen(),
        );
        assert_eq!(ta, tb);
        assert_eq!(a.states(), b.states());
    }

    #[test]
    #[should_panic(expected = "inject_targeted")]
    fn positional_injection_rejects_targeted_kinds() {
        let mut config = Configuration::uniform(4, 0u32);
        FaultInjector::new(1).inject(
            &mut config,
            FaultKind::CorruptTargets { limit: 1 },
            |_, _| 1,
        );
    }

    #[test]
    fn extent_reports_the_knob_of_each_kind() {
        assert_eq!(
            FaultKind::CorruptRandomAgents { count: 3 }.extent(),
            Some(3)
        );
        assert_eq!(
            FaultKind::CorruptBlock { start: 9, count: 2 }.extent(),
            Some(2)
        );
        assert_eq!(FaultKind::CorruptAll.extent(), None);
        assert_eq!(FaultKind::CorruptTargets { limit: 1 }.extent(), Some(1));
    }

    #[test]
    fn injection_is_deterministic_for_a_seed() {
        let mut a = Configuration::uniform(16, 0u32);
        let mut b = Configuration::uniform(16, 0u32);
        let ta = FaultInjector::new(7).inject(
            &mut a,
            FaultKind::CorruptRandomAgents { count: 6 },
            |rng, _| rng.gen(),
        );
        let tb = FaultInjector::new(7).inject(
            &mut b,
            FaultKind::CorruptRandomAgents { count: 6 },
            |rng, _| rng.gen(),
        );
        assert_eq!(ta, tb);
        assert_eq!(a.states(), b.states());
    }

    #[test]
    fn fault_plan_accessors() {
        let plan = FaultPlan::new()
            .at(10, FaultKind::CorruptAll)
            .at(0, FaultKind::CorruptRandomAgents { count: 1 });
        assert_eq!(plan.len(), 2);
        assert!(!plan.is_empty());
        assert_eq!(plan.events()[0].at_step, 0, "events are sorted by step");
        assert!(FaultPlan::new().is_empty());
    }

    #[test]
    fn zero_extent_fault_events_are_rejected() {
        match FaultPlan::new().try_at(3, FaultKind::CorruptRandomAgents { count: 0 }) {
            Err(PopulationError::DegenerateFault { at }) => assert_eq!(at, 3),
            other => panic!("expected DegenerateFault, got {other:?}"),
        }
        match FaultPlan::new().try_at(7, FaultKind::CorruptTargets { limit: 0 }) {
            Err(PopulationError::DegenerateFault { at }) => assert_eq!(at, 7),
            other => panic!("expected DegenerateFault, got {other:?}"),
        }
        // CorruptAll has no extent knob and CorruptBlock{count: 0} is the
        // same bug as a zero random count.
        assert!(FaultPlan::new().try_at(0, FaultKind::CorruptAll).is_ok());
        assert!(FaultPlan::new()
            .try_at(0, FaultKind::CorruptBlock { start: 2, count: 0 })
            .is_err());
    }

    #[test]
    #[should_panic(expected = "extent 0")]
    fn zero_extent_fault_events_panic_through_the_infallible_builder() {
        let _ = FaultPlan::new().at(3, FaultKind::CorruptRandomAgents { count: 0 });
    }
}
