//! Exhaustive explicit-state exploration of small populations.
//!
//! For populations small enough that the reachable configuration space fits
//! in memory (n ≤ ~8 for the protocols in this workspace), sampling is the
//! wrong tool: the space can simply be enumerated.  This module provides two
//! BFS walks over erased configurations:
//!
//! * [`explore`] — forward BFS over **all** arcs from the initial
//!   configuration, then a backward multi-source BFS from every
//!   stop-satisfying configuration.  The combination decides stabilization
//!   exactly: if every reachable configuration has a finite interaction
//!   distance to the stop set, the protocol converges almost surely under
//!   the uniformly random scheduler and the maximum such distance is the
//!   **exact** worst-case stabilization time (the optimal schedule from the
//!   worst reachable configuration — a certified lower bound on what any
//!   scheduler needs from there).  Otherwise the parent chain to a doomed
//!   configuration is a replayable counterexample trace.
//! * [`phase_closure`] — BFS over the exact product system
//!   (configuration × scheduler phase) induced by an [`ArcPhases`]
//!   structure.  Starting from a recurrent configuration
//!   ([`crate::recurrence::RecurrenceCandidate`]), every step branches over
//!   every arc the scheduler could pick in the active phase; if the closure
//!   is finite and contains no stop configuration, **no** run of that
//!   scheduler from that configuration can ever converge — a certified
//!   livelock, independent of the scheduler's internal randomness.
//!
//! Configurations are interned by their `Debug` rendering (NUL-separated per
//! agent), which is injective for every `#[derive(Debug)]` state type — the
//! same contract [`DynState::digest`] relies on.

use std::collections::hash_map::Entry;
use std::collections::{HashMap, HashSet, VecDeque};
use std::fmt::Write as _;

use crate::config::Configuration;
use crate::protocol::Protocol;
use crate::scenario::DynProtocol;
use crate::schedule::Interaction;
use crate::slot::DynState;

/// Exact interning key of a configuration: the NUL-separated `Debug`
/// renderings of its states.  Injective whenever the state's `Debug` output
/// is (every derived `Debug` qualifies).
fn config_key(config: &Configuration<DynState>) -> String {
    let mut key = String::new();
    for state in config.states() {
        write!(key, "{state:?}\u{0}").expect("writing to a String cannot fail");
    }
    key
}

/// `config` after the oracle's broadcast ([`Protocol::environment`]), which
/// precedes every interaction of an oracle protocol; `None` when the
/// broadcast leaves `config` as it is (always, for pure protocols).
fn broadcast(
    protocol: &DynProtocol,
    config: &Configuration<DynState>,
) -> Option<Configuration<DynState>> {
    if !protocol.uses_oracle() {
        return None;
    }
    let mut next = config.clone();
    protocol.environment(next.states_mut());
    (next != *config).then_some(next)
}

/// Applies one step over `arc` — the oracle's broadcast, then the
/// interaction — to a copy of `config` and returns the successor
/// configuration.
fn apply_arc(
    protocol: &DynProtocol,
    config: &Configuration<DynState>,
    arc: Interaction,
) -> Configuration<DynState> {
    let mut next = broadcast(protocol, config).unwrap_or_else(|| config.clone());
    let (i, j) = (arc.initiator().index(), arc.responder().index());
    debug_assert_ne!(i, j, "interaction arcs join distinct agents");
    let states = next.states_mut();
    if i < j {
        let (head, tail) = states.split_at_mut(j);
        protocol.interact(&mut head[i], &mut tail[0]);
    } else {
        let (head, tail) = states.split_at_mut(i);
        protocol.interact(&mut tail[0], &mut head[j]);
    }
    next
}

/// Size bounds for [`explore`].
#[derive(Clone, Copy, Debug)]
pub struct ExploreLimits {
    /// Maximum number of distinct configurations to intern before giving up
    /// with [`ExploreVerdict::Truncated`].
    pub max_configs: usize,
}

impl Default for ExploreLimits {
    fn default() -> Self {
        ExploreLimits {
            max_configs: 1 << 17,
        }
    }
}

/// The decision reached by [`explore`].
#[derive(Clone, Debug)]
pub enum ExploreVerdict {
    /// Every reachable configuration can reach the stop set: the protocol
    /// stabilizes almost surely under the uniformly random scheduler.
    Stabilizes {
        /// The exact worst-case stabilization time: the maximum over all
        /// reachable configurations of the minimum number of interactions to
        /// a stop configuration.
        exact_worst_steps: u64,
        /// A configuration attaining `exact_worst_steps` (the first in BFS
        /// order, so the value is deterministic).
        worst_config: Configuration<DynState>,
    },
    /// Some reachable configuration cannot reach the stop set at all.
    NonStabilizing {
        /// Number of reachable configurations with no path to the stop set.
        doomed: usize,
        /// A shortest interaction trace from the initial configuration to a
        /// doomed one (empty when the initial configuration is itself
        /// doomed).  Replaying it through a [`SequenceScheduler`] reproduces
        /// the witness.
        ///
        /// [`SequenceScheduler`]: crate::scheduler::SequenceScheduler
        counterexample: Vec<Interaction>,
    },
    /// The reachable space exceeded [`ExploreLimits::max_configs`]; nothing
    /// was decided.
    Truncated,
}

/// The result of [`explore`].
#[derive(Clone, Debug)]
pub struct Explored {
    /// Number of distinct reachable configurations interned (complete unless
    /// the verdict is [`ExploreVerdict::Truncated`]).
    pub reachable: usize,
    /// How many of them satisfy the stop predicate.
    pub stop_configs: usize,
    /// The decision.
    pub verdict: ExploreVerdict,
}

/// Exhaustively explores the configuration space reachable from `init`
/// under arbitrary schedules over `arcs`, and decides stabilization with
/// respect to `stop` (see the module docs for the exact semantics of the
/// verdicts).
///
/// The walk is fully deterministic: configurations are numbered in BFS
/// order, ties in the worst-case distance break toward the earliest
/// configuration.
pub fn explore(
    protocol: &DynProtocol,
    arcs: &[Interaction],
    init: &Configuration<DynState>,
    stop: &mut dyn FnMut(&[DynState]) -> bool,
    limits: &ExploreLimits,
) -> Explored {
    let mut configs = vec![init.clone()];
    let mut index = HashMap::new();
    index.insert(config_key(init), 0usize);
    let mut is_stop = vec![stop(init.states())];
    // parent[id] = (predecessor id, arc) along a BFS-shortest path from the
    // initial configuration; preds[id] = every one-step predecessor.
    let mut parent: Vec<Option<(usize, Interaction)>> = vec![None];
    let mut preds: Vec<Vec<usize>> = vec![Vec::new()];
    let mut truncated = false;
    let mut cursor = 0usize;
    'bfs: while cursor < configs.len() {
        for &arc in arcs {
            let next = apply_arc(protocol, &configs[cursor], arc);
            let nid = match index.entry(config_key(&next)) {
                Entry::Occupied(entry) => *entry.get(),
                Entry::Vacant(entry) => {
                    if configs.len() >= limits.max_configs {
                        truncated = true;
                        break 'bfs;
                    }
                    let nid = configs.len();
                    entry.insert(nid);
                    is_stop.push(stop(next.states()));
                    configs.push(next);
                    parent.push(Some((cursor, arc)));
                    preds.push(Vec::new());
                    nid
                }
            };
            preds[nid].push(cursor);
        }
        cursor += 1;
    }
    let reachable = configs.len();
    let stop_configs = is_stop.iter().filter(|&&s| s).count();
    if truncated {
        return Explored {
            reachable,
            stop_configs,
            verdict: ExploreVerdict::Truncated,
        };
    }
    // Backward multi-source BFS from the stop set over predecessor edges:
    // dist[id] = minimum number of interactions from configs[id] to a stop
    // configuration, None if unreachable.
    let mut dist: Vec<Option<u64>> = is_stop.iter().map(|&s| s.then_some(0u64)).collect();
    let mut queue: VecDeque<usize> = (0..reachable).filter(|&id| is_stop[id]).collect();
    while let Some(id) = queue.pop_front() {
        let d = dist[id].expect("queued configurations have a distance");
        for &p in &preds[id] {
            if dist[p].is_none() {
                dist[p] = Some(d + 1);
                queue.push_back(p);
            }
        }
    }
    let doomed = dist.iter().filter(|d| d.is_none()).count();
    if doomed > 0 {
        // The first doomed configuration in BFS order; its parent chain is a
        // shortest witness trace from the initial configuration.
        let first = (0..reachable)
            .find(|&id| dist[id].is_none())
            .expect("doomed > 0");
        let mut counterexample = Vec::new();
        let mut at = first;
        while let Some((prev, arc)) = parent[at] {
            counterexample.push(arc);
            at = prev;
        }
        counterexample.reverse();
        return Explored {
            reachable,
            stop_configs,
            verdict: ExploreVerdict::NonStabilizing {
                doomed,
                counterexample,
            },
        };
    }
    let (worst_id, exact_worst_steps) = dist
        .iter()
        .enumerate()
        .map(|(id, d)| (id, d.expect("no configuration is doomed")))
        .max_by(|a, b| a.1.cmp(&b.1).then(b.0.cmp(&a.0)))
        .expect("the initial configuration is always reachable");
    Explored {
        reachable,
        stop_configs,
        verdict: ExploreVerdict::Stabilizes {
            exact_worst_steps,
            worst_config: configs[worst_id].clone(),
        },
    }
}

/// The phase structure of a deterministic-phase scheduler, for
/// [`phase_closure`]: `groups[g]` is the set of arcs the scheduler can pick
/// while group `g` is active, each group stays active for `epoch_len`
/// consecutive steps, and groups rotate cyclically.  The scheduler's phase
/// (as reported by [`DynScheduler::phase`]) is its step counter modulo
/// `groups.len() × epoch_len`, so group `phase / epoch_len` is active at a
/// given phase.
///
/// [`DynScheduler::phase`]: crate::scenario::DynScheduler::phase
#[derive(Clone, Debug)]
pub struct ArcPhases {
    groups: Vec<Vec<Interaction>>,
    epoch_len: u64,
}

impl ArcPhases {
    /// A single group holding every arc, active forever: the exact phase
    /// structure of every memoryless scheduler (uniform, weighted, greedy),
    /// for which any arc may be picked at any step.
    pub fn unrestricted(arcs: Vec<Interaction>) -> Self {
        ArcPhases {
            groups: vec![arcs],
            epoch_len: 1,
        }
    }

    /// Cyclic groups, each active for `epoch_len` consecutive steps (clamped
    /// to at least 1).
    ///
    /// # Panics
    ///
    /// Panics if `groups` is empty.
    pub fn cyclic(groups: Vec<Vec<Interaction>>, epoch_len: u64) -> Self {
        assert!(
            !groups.is_empty(),
            "phase structure needs at least one group"
        );
        ArcPhases {
            groups,
            epoch_len: epoch_len.max(1),
        }
    }

    /// The arc groups.
    pub fn groups(&self) -> &[Vec<Interaction>] {
        &self.groups
    }

    /// Steps each group stays active.
    pub fn epoch_len(&self) -> u64 {
        self.epoch_len
    }

    /// The phase period: `groups.len() × epoch_len` (saturating).
    pub fn rotation(&self) -> u64 {
        self.epoch_len.saturating_mul(self.groups.len() as u64)
    }

    /// The group active at `phase` (which must be below the rotation).
    fn group_of(&self, phase: u64) -> usize {
        ((phase / self.epoch_len) as usize).min(self.groups.len() - 1)
    }
}

/// Size bounds for [`phase_closure`].  Configurations dominate memory
/// (64 bytes per agent each); nodes are (configuration, phase) pairs and
/// dominate time.
#[derive(Clone, Copy, Debug)]
pub struct ClosureLimits {
    /// Maximum number of distinct configurations to intern.
    pub max_configs: usize,
    /// Maximum number of (configuration, phase) nodes to visit.  Nodes are
    /// cheap — a bitset membership test plus a cached successor lookup — so
    /// the default admits the full product of the configuration cap with a
    /// rotation in the thousands (the tracked epoch-partition cells).
    pub max_nodes: usize,
}

impl Default for ClosureLimits {
    fn default() -> Self {
        ClosureLimits {
            max_configs: 4096,
            max_nodes: 1 << 24,
        }
    }
}

/// Visited-node set of the product walk: a lazily-allocated per-configuration
/// bitset over the phase dimension whenever the rotation is small enough to
/// index directly (the overwhelmingly common case — epoch schedulers rotate
/// in the thousands of steps), a hash set otherwise.
enum VisitedNodes {
    Bits {
        rows: Vec<Option<Box<[u64]>>>,
        rotation: usize,
        count: usize,
    },
    Set(HashSet<(usize, u64)>),
}

impl VisitedNodes {
    /// Rotations up to this use the bitset (512 KiB per configuration at
    /// the cap); beyond it the per-row allocation would dwarf the walk.
    const MAX_BITSET_ROTATION: u64 = 1 << 22;

    fn new(rotation: u64) -> Self {
        if rotation <= Self::MAX_BITSET_ROTATION {
            VisitedNodes::Bits {
                rows: Vec::new(),
                rotation: rotation as usize,
                count: 0,
            }
        } else {
            VisitedNodes::Set(HashSet::new())
        }
    }

    /// Marks `(cid, phase)` visited; `true` if it was new.
    fn insert(&mut self, cid: usize, phase: u64) -> bool {
        match self {
            VisitedNodes::Bits {
                rows,
                rotation,
                count,
            } => {
                if rows.len() <= cid {
                    rows.resize_with(cid + 1, || None);
                }
                let words = rows[cid]
                    .get_or_insert_with(|| vec![0u64; rotation.div_ceil(64)].into_boxed_slice());
                let (word, bit) = ((phase / 64) as usize, phase % 64);
                let fresh = words[word] & (1 << bit) == 0;
                if fresh {
                    words[word] |= 1 << bit;
                    *count += 1;
                }
                fresh
            }
            VisitedNodes::Set(set) => set.insert((cid, phase)),
        }
    }

    fn len(&self) -> usize {
        match self {
            VisitedNodes::Bits { count, .. } => *count,
            VisitedNodes::Set(set) => set.len(),
        }
    }
}

/// The result of [`phase_closure`].
#[derive(Clone, Copy, Debug)]
pub struct ClosureOutcome {
    /// `true` if the walk exhausted the closure within the limits; `false`
    /// means nothing was decided.
    pub closed: bool,
    /// `true` if no configuration in the (explored part of the) closure
    /// satisfies the stop predicate.  Only meaningful when `closed`.
    pub stop_free: bool,
    /// Distinct configurations interned.
    pub configs: usize,
    /// (configuration, phase) nodes visited.
    pub nodes: usize,
}

impl ClosureOutcome {
    /// `true` if the closure certifies a livelock: it is finite, fully
    /// explored, and no reachable configuration satisfies the stop
    /// predicate — so no run of the scheduler from the start configuration
    /// can ever converge, regardless of its internal randomness.
    pub fn certifies_livelock(&self) -> bool {
        self.closed && self.stop_free
    }
}

/// Exhaustively walks the exact product system (configuration × phase) of a
/// deterministic-phase scheduler from `start` at `start_phase`: every step
/// branches over every arc of the active group and advances the phase by
/// one.  See [`ClosureOutcome::certifies_livelock`] for what a successful
/// walk proves.
///
/// The walk aborts as soon as a stop configuration is interned (`stop_free:
/// false` — certification is already impossible) or a limit is exceeded
/// (`closed: false`).
pub fn phase_closure(
    protocol: &DynProtocol,
    phases: &ArcPhases,
    start: &Configuration<DynState>,
    start_phase: u64,
    stop: &mut dyn FnMut(&[DynState]) -> bool,
    limits: &ClosureLimits,
) -> ClosureOutcome {
    let rotation = phases.rotation();
    let start_phase = start_phase % rotation;
    let mut configs: Vec<Configuration<DynState>> = Vec::new();
    let mut is_stop: Vec<bool> = Vec::new();
    let mut index: HashMap<String, usize> = HashMap::new();

    /// Interns `config`, evaluating `stop` once per new configuration;
    /// `None` when the configuration cap would be exceeded.
    fn intern(
        config: Configuration<DynState>,
        configs: &mut Vec<Configuration<DynState>>,
        is_stop: &mut Vec<bool>,
        index: &mut HashMap<String, usize>,
        stop: &mut dyn FnMut(&[DynState]) -> bool,
        max_configs: usize,
    ) -> Option<usize> {
        match index.entry(config_key(&config)) {
            Entry::Occupied(entry) => Some(*entry.get()),
            Entry::Vacant(entry) => {
                if configs.len() >= max_configs {
                    return None;
                }
                let id = configs.len();
                entry.insert(id);
                is_stop.push(stop(config.states()));
                configs.push(config);
                Some(id)
            }
        }
    }

    let start_id = intern(
        start.clone(),
        &mut configs,
        &mut is_stop,
        &mut index,
        stop,
        limits.max_configs,
    )
    .expect("the first configuration always fits");
    let mut visited = VisitedNodes::new(rotation);
    let mut queue: VecDeque<(usize, u64)> = VecDeque::new();
    visited.insert(start_id, start_phase);
    queue.push_back((start_id, start_phase));
    if is_stop[start_id] {
        return ClosureOutcome {
            closed: true,
            stop_free: false,
            configs: configs.len(),
            nodes: visited.len(),
        };
    }
    // Successor cache: the active group — hence the successor set — is
    // shared by every phase of an epoch, so it is computed once per
    // (configuration, group) and the walk itself touches no configuration
    // data.  An arc whose interaction leaves both endpoints unchanged
    // contributes the configuration itself, detected on copies of the two
    // endpoint slots without cloning or interning anything — on a near-fixed
    // orbit that shortcut covers almost every arc.
    let mut successors: HashMap<(usize, usize), Vec<usize>> = HashMap::new();
    let mut closed = true;
    'walk: while let Some((cid, phase)) = queue.pop_front() {
        let group = phases.group_of(phase);
        let next_phase = (phase + 1) % rotation;
        let succ = match successors.entry((cid, group)) {
            Entry::Occupied(entry) => entry.into_mut(),
            Entry::Vacant(entry) => {
                let mut out: Vec<usize> = Vec::new();
                // An empty group cannot change the configuration, but time
                // (and the phase) still advances.
                if phases.groups()[group].is_empty() {
                    out.push(cid);
                }
                // An oracle's broadcast precedes every interaction; when it
                // changes the configuration, no arc leaves it unchanged.
                let broadcast = broadcast(protocol, &configs[cid]);
                for &arc in &phases.groups()[group] {
                    let (i, j) = (arc.initiator().index(), arc.responder().index());
                    let from = broadcast.as_ref().unwrap_or(&configs[cid]);
                    let states = from.states();
                    let mut initiator = states[i].clone();
                    let mut responder = states[j].clone();
                    protocol.interact(&mut initiator, &mut responder);
                    let nid = if broadcast.is_none()
                        && initiator == states[i]
                        && responder == states[j]
                    {
                        cid
                    } else {
                        let mut next = from.clone();
                        next.states_mut()[i] = initiator;
                        next.states_mut()[j] = responder;
                        match intern(
                            next,
                            &mut configs,
                            &mut is_stop,
                            &mut index,
                            stop,
                            limits.max_configs,
                        ) {
                            Some(nid) => nid,
                            None => {
                                closed = false;
                                break 'walk;
                            }
                        }
                    };
                    if is_stop[nid] {
                        return ClosureOutcome {
                            closed: true,
                            stop_free: false,
                            configs: configs.len(),
                            nodes: visited.len(),
                        };
                    }
                    out.push(nid);
                }
                out.sort_unstable();
                out.dedup();
                entry.insert(out)
            }
        };
        for &nid in succ.iter() {
            if visited.insert(nid, next_phase) {
                if visited.len() > limits.max_nodes {
                    closed = false;
                    break 'walk;
                }
                queue.push_back((nid, next_phase));
            }
        }
    }
    ClosureOutcome {
        closed,
        stop_free: true,
        configs: configs.len(),
        nodes: visited.len(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::LeaderElection;

    /// Pairwise leader elimination: a leader meeting a leader demotes the
    /// responder.
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

    fn erased(values: &[bool]) -> Configuration<DynState> {
        Configuration::from_states(values.iter().map(|&v| DynState::new(v)).collect())
    }

    fn complete_arcs(n: usize) -> Vec<Interaction> {
        let mut arcs = Vec::new();
        for i in 0..n {
            for j in 0..n {
                if i != j {
                    arcs.push(Interaction::new(i, j));
                }
            }
        }
        arcs
    }

    fn unique_leader(states: &[DynState]) -> bool {
        states
            .iter()
            .filter(|s| s.downcast_ref::<bool>() == Some(&true))
            .count()
            == 1
    }

    #[test]
    fn fratricide_stabilizes_with_exact_worst_case() {
        let protocol = DynProtocol::erase(Fratricide);
        let result = explore(
            &protocol,
            &complete_arcs(3),
            &erased(&[true, true, true]),
            &mut unique_leader,
            &ExploreLimits::default(),
        );
        // Reachable: the all-leaders start, the three 2-leader and the three
        // 1-leader configurations.
        assert_eq!(result.reachable, 7);
        assert_eq!(result.stop_configs, 3);
        match result.verdict {
            ExploreVerdict::Stabilizes {
                exact_worst_steps,
                ref worst_config,
            } => {
                assert_eq!(
                    exact_worst_steps, 2,
                    "three leaders need exactly two demotions"
                );
                assert_eq!(worst_config, &erased(&[true, true, true]));
            }
            ref other => panic!("expected Stabilizes, got {other:?}"),
        }
    }

    /// Infect-then-burn: a `1` infects a `0` responder, but two `1`s
    /// annihilate — so the all-ones stop configuration can be overshot into
    /// a doomed all-zeros one.
    #[derive(Clone, Debug)]
    struct InfectBurn;
    impl Protocol for InfectBurn {
        type State = u8;
        fn interact(&self, initiator: &mut u8, responder: &mut u8) {
            if *initiator == 1 && *responder == 0 {
                *responder = 1;
            } else if *initiator == 1 && *responder == 1 {
                *initiator = 0;
                *responder = 0;
            }
        }
    }

    #[test]
    fn doomed_configurations_yield_a_counterexample_trace() {
        let protocol = DynProtocol::erase_protocol(InfectBurn);
        let init = Configuration::from_states(vec![DynState::new(1u8), DynState::new(0u8)]);
        let mut all_ones =
            |states: &[DynState]| states.iter().all(|s| s.downcast_ref::<u8>() == Some(&1));
        let result = explore(
            &protocol,
            &complete_arcs(2),
            &init,
            &mut all_ones,
            &ExploreLimits::default(),
        );
        match result.verdict {
            ExploreVerdict::NonStabilizing {
                doomed,
                ref counterexample,
            } => {
                assert_eq!(doomed, 1, "only the all-zeros configuration is doomed");
                // Replay the trace: it must land in a doomed configuration.
                let mut config = init.clone();
                for &arc in counterexample {
                    config = apply_arc(&protocol, &config, arc);
                }
                assert!(
                    config
                        .states()
                        .iter()
                        .all(|s| s.downcast_ref::<u8>() == Some(&0)),
                    "the counterexample must reach the doomed all-zeros configuration"
                );
            }
            ref other => panic!("expected NonStabilizing, got {other:?}"),
        }
    }

    #[test]
    fn truncation_is_reported_not_guessed() {
        let protocol = DynProtocol::erase(Fratricide);
        let result = explore(
            &protocol,
            &complete_arcs(3),
            &erased(&[true, true, true]),
            &mut unique_leader,
            &ExploreLimits { max_configs: 2 },
        );
        assert!(matches!(result.verdict, ExploreVerdict::Truncated));
        assert!(result.reachable <= 2);
    }

    #[test]
    fn a_dead_configuration_certifies_under_the_unrestricted_closure() {
        // All-false is a fixed point of Fratricide and never has a unique
        // leader: a certified livelock even for the uniform scheduler.
        let protocol = DynProtocol::erase(Fratricide);
        let outcome = phase_closure(
            &protocol,
            &ArcPhases::unrestricted(complete_arcs(3)),
            &erased(&[false, false, false]),
            0,
            &mut unique_leader,
            &ClosureLimits::default(),
        );
        assert!(outcome.certifies_livelock());
        assert_eq!(outcome.configs, 1);
    }

    #[test]
    fn a_live_configuration_is_not_certified() {
        // All-leaders reaches a unique leader, so the closure must hit the
        // stop set and refuse to certify.
        let protocol = DynProtocol::erase(Fratricide);
        let outcome = phase_closure(
            &protocol,
            &ArcPhases::unrestricted(complete_arcs(3)),
            &erased(&[true, true, true]),
            0,
            &mut unique_leader,
            &ClosureLimits::default(),
        );
        assert!(!outcome.certifies_livelock());
        assert!(!outcome.stop_free);
    }

    /// The responder flips, unconditionally.
    #[derive(Clone, Debug)]
    struct Toggle;
    impl Protocol for Toggle {
        type State = bool;
        fn interact(&self, _initiator: &mut bool, responder: &mut bool) {
            *responder = !*responder;
        }
    }

    #[test]
    fn cyclic_phases_certify_a_periodic_livelock() {
        // Two groups, one arc each, epoch length 1: the product system
        // cycles through a finite set of configurations forever.
        let protocol = DynProtocol::erase_protocol(Toggle);
        let phases = ArcPhases::cyclic(
            vec![vec![Interaction::new(0, 1)], vec![Interaction::new(1, 0)]],
            1,
        );
        let mut never = |_: &[DynState]| false;
        let outcome = phase_closure(
            &protocol,
            &phases,
            &erased(&[false, false]),
            0,
            &mut never,
            &ClosureLimits::default(),
        );
        assert!(outcome.certifies_livelock());
        assert!(outcome.configs <= 4);
    }

    #[test]
    fn closure_limits_refuse_rather_than_certify() {
        let protocol = DynProtocol::erase(Fratricide);
        let outcome = phase_closure(
            &protocol,
            &ArcPhases::unrestricted(complete_arcs(3)),
            &erased(&[true, true, true]),
            0,
            &mut |_| false,
            &ClosureLimits {
                max_configs: 2,
                max_nodes: 1 << 20,
            },
        );
        assert!(!outcome.closed);
        assert!(!outcome.certifies_livelock());
    }
}
