//! Serializable fault-plan descriptions — the third mutation axis of the
//! worst-case search.
//!
//! Self-stabilization promises recovery from *transient* faults, so the most
//! hostile adversary does not only pick the initial configuration and the
//! schedule: it also crashes agents **mid-run**, ideally right before the
//! protocol would have converged.  [`FaultPlanSpec`] is the integer-exact,
//! exactly-comparable description of such a crash schedule — when each burst
//! fires (timing), which agents it hits (placement) and how many (extent) —
//! that deterministically builds the same [`population::FaultPlan`] every
//! time, exactly like [`crate::SchedulerSpec`] builds schedulers.  Recovery
//! is the protocol's job (that is the self-stabilization contract being
//! probed); the spec only describes the corruption events.
//!
//! The mapping to [`population::FaultPlan`] is lossless in both directions
//! ([`FaultPlanSpec::plan`] / [`FaultPlanSpec::from_plan`] round-trip,
//! property-tested in the workspace), which is what makes fault-bearing
//! [`crate::WorstCase`] certificates replayable through `Scenario`'s fault
//! path.
//!
//! The module also holds the topology axis's mirrors ([`GraphSpec`],
//! [`ChurnPlanSpec`]) and the domain that gates each axis
//! ([`FaultDomain`], [`GraphDomain`], [`ChurnDomain`]).

use population::{ChurnKind, ChurnPlan, FaultKind, FaultPlan, GraphFamily};
use rand::Rng;
use rand_chacha::ChaCha8Rng;

/// Which agents one fault burst corrupts (the placement/extent half of a
/// [`FaultEventSpec`]; the timing half is its `at_step`).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum FaultPlacementSpec {
    /// Corrupt `count` agents chosen by the run's (seeded) fault injector.
    Random {
        /// Number of agents to corrupt.
        count: u32,
    },
    /// Corrupt the contiguous clockwise block of `count` agents starting at
    /// `start` — a localized burst.
    Block {
        /// Index of the first corrupted agent.
        start: u32,
        /// Number of agents to corrupt.
        count: u32,
    },
    /// Corrupt every agent.
    All,
    /// Corrupt up to `limit` agents currently satisfying the scenario's
    /// target predicate (`ScenarioBuilder::fault_targets`) — e.g. *the
    /// current leader* with a leader predicate and `limit = 1`.  Only
    /// proposable when the driver's scenario registers a predicate
    /// ([`FaultDomain::targeted`]).
    Targeted {
        /// Maximum number of target agents to corrupt.
        limit: u32,
    },
}

impl FaultPlacementSpec {
    /// The [`FaultKind`] this placement describes.
    pub fn kind(self) -> FaultKind {
        match self {
            FaultPlacementSpec::Random { count } => FaultKind::CorruptRandomAgents {
                count: count as usize,
            },
            FaultPlacementSpec::Block { start, count } => FaultKind::CorruptBlock {
                start: start as usize,
                count: count as usize,
            },
            FaultPlacementSpec::All => FaultKind::CorruptAll,
            FaultPlacementSpec::Targeted { limit } => FaultKind::CorruptTargets {
                limit: limit as usize,
            },
        }
    }

    /// Recovers the placement of a [`FaultKind`] — the inverse of
    /// [`FaultPlacementSpec::kind`].
    ///
    /// # Panics
    ///
    /// Panics if an agent count or block start exceeds `u32::MAX` — specs
    /// are integer-exact by construction, and no practical population gets
    /// anywhere near 2³² agents.
    pub fn from_kind(kind: FaultKind) -> Self {
        match kind {
            FaultKind::CorruptRandomAgents { count } => FaultPlacementSpec::Random {
                count: count.try_into().expect("agent count fits u32"),
            },
            FaultKind::CorruptBlock { start, count } => FaultPlacementSpec::Block {
                start: start.try_into().expect("block start fits u32"),
                count: count.try_into().expect("agent count fits u32"),
            },
            FaultKind::CorruptAll => FaultPlacementSpec::All,
            FaultKind::CorruptTargets { limit } => FaultPlacementSpec::Targeted {
                limit: limit.try_into().expect("target limit fits u32"),
            },
        }
    }

    /// The placement's part of a [`FaultPlanSpec::key`].
    fn key(&self) -> String {
        match *self {
            FaultPlacementSpec::Random { count } => format!("random(count={count})"),
            FaultPlacementSpec::Block { start, count } => {
                format!("block(start={start},count={count})")
            }
            FaultPlacementSpec::All => "all".to_string(),
            FaultPlacementSpec::Targeted { limit } => format!("targeted(limit={limit})"),
        }
    }
}

/// One crash event of a fault plan: a step and a placement.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct FaultEventSpec {
    /// The step (counted from the start of the run) before which the burst
    /// fires; step 0 fires before the first interaction.
    pub at_step: u64,
    /// Which agents the burst corrupts.
    pub placement: FaultPlacementSpec,
}

/// A value-level description of a whole crash schedule (possibly empty):
/// a list of timed bursts.
///
/// Events are kept sorted by step (matching [`FaultPlan`]'s ordering), so
/// two specs describing the same schedule compare equal.
#[derive(Clone, Debug, Default, PartialEq, Eq, Hash)]
pub struct FaultPlanSpec {
    events: Vec<FaultEventSpec>,
}

impl FaultPlanSpec {
    /// The empty schedule: no faults (the fault-free baseline every search
    /// starts from).
    pub fn none() -> Self {
        FaultPlanSpec::default()
    }

    /// Builds a spec from timed events (sorted by step; the sort is stable,
    /// so same-step events keep their given order, exactly like
    /// [`FaultPlan::at`]).
    pub fn new(mut events: Vec<FaultEventSpec>) -> Self {
        events.sort_by_key(|e| e.at_step);
        FaultPlanSpec { events }
    }

    /// Schedules one more timed burst (builder-style).
    pub fn with_event(mut self, at_step: u64, placement: FaultPlacementSpec) -> Self {
        self.events.push(FaultEventSpec { at_step, placement });
        self.events.sort_by_key(|e| e.at_step);
        self
    }

    /// The scheduled timed events, sorted by step.
    pub fn events(&self) -> &[FaultEventSpec] {
        &self.events
    }

    /// `true` when no fault is scheduled.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// A compact, stable key for reports and JSON output (`"none"` for the
    /// empty schedule).
    pub fn key(&self) -> String {
        if self.is_empty() {
            return "none".to_string();
        }
        self.events
            .iter()
            .map(|e| format!("{}@{}", e.placement.key(), e.at_step))
            .collect::<Vec<_>>()
            .join("+")
    }

    /// Builds the [`FaultPlan`] this spec describes.
    pub fn plan(&self) -> FaultPlan {
        self.events.iter().fold(FaultPlan::new(), |plan, e| {
            plan.at(e.at_step, e.placement.kind())
        })
    }

    /// Recovers the spec of a [`FaultPlan`] — the inverse of
    /// [`FaultPlanSpec::plan`] (`from_plan(spec.plan()) == spec`, covered by
    /// a workspace property test).
    ///
    /// # Panics
    ///
    /// Panics if an agent count, block start or target limit exceeds
    /// `u32::MAX` — specs are integer-exact by construction, and no
    /// practical population gets anywhere near 2³² agents.
    pub fn from_plan(plan: &FaultPlan) -> Self {
        let events = plan
            .events()
            .iter()
            .map(|e| FaultEventSpec {
                at_step: e.at_step,
                placement: FaultPlacementSpec::from_kind(e.kind),
            })
            .collect();
        // Already sorted: FaultPlan keeps its events by step.
        FaultPlanSpec { events }
    }
}

/// Which fault-plan mutations the worst-case search may propose.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FaultDomain {
    /// Allow fault-plan proposals at all.  When `false` every candidate
    /// keeps [`FaultPlanSpec::none`] (the PR-4 search space).
    pub enabled: bool,
    /// Upper bound (inclusive) on each event's `at_step` — drivers set this
    /// to the run's step budget so every proposed burst can actually fire.
    pub max_step: u64,
    /// Upper bound (inclusive) on the agents corrupted per burst — drivers
    /// set this to the cell's population size.
    pub max_agents: u32,
    /// Upper bound (inclusive) on the number of scheduled bursts.
    pub max_events: u32,
    /// Allow [`FaultPlacementSpec::Targeted`] proposals.  Requires the
    /// driver's scenario to register a target predicate
    /// (`ScenarioBuilder::fault_targets`); when `false` (all pre-existing
    /// domains) the proposal RNG stream is **bit-identical** to earlier
    /// report versions, so committed certificates replay unchanged.
    pub targeted: bool,
}

impl FaultDomain {
    /// Fault mutations disabled: the search space is exactly the PR-4
    /// (init variant, seed, scheduler) space.
    pub fn disabled() -> Self {
        FaultDomain {
            enabled: false,
            max_step: 0,
            max_agents: 0,
            max_events: 0,
            targeted: false,
        }
    }

    /// Crash schedules of up to two bursts within the given step budget and
    /// population size — the domain the tracked report grid searches.
    pub fn bursts(max_step: u64, max_agents: u32) -> Self {
        FaultDomain {
            enabled: true,
            max_step,
            max_agents: max_agents.max(1),
            max_events: 2,
            targeted: false,
        }
    }

    /// Enables [`FaultPlacementSpec::Targeted`] proposals (builder-style) —
    /// only for drivers whose scenario registers a target predicate.
    pub fn with_targeted(mut self) -> Self {
        self.targeted = true;
        self
    }

    /// Samples a uniformly random placement.  The targeted arm extends the
    /// draw range instead of re-weighting it, so domains without `targeted`
    /// consume the RNG exactly as before the axis existed.
    fn sample_placement(&self, rng: &mut ChaCha8Rng) -> FaultPlacementSpec {
        let kinds = if self.targeted { 4u8 } else { 3u8 };
        match rng.gen_range(0..kinds) {
            0 => FaultPlacementSpec::Random {
                count: rng.gen_range(1..=self.max_agents),
            },
            1 => FaultPlacementSpec::Block {
                start: rng.gen_range(0..self.max_agents),
                count: rng.gen_range(1..=self.max_agents),
            },
            2 => FaultPlacementSpec::All,
            _ => FaultPlacementSpec::Targeted {
                limit: rng.gen_range(1..=self.max_agents),
            },
        }
    }

    /// Samples a random single-burst schedule.
    fn sample(&self, rng: &mut ChaCha8Rng) -> FaultPlanSpec {
        FaultPlanSpec::none()
            .with_event(rng.gen_range(0..=self.max_step), self.sample_placement(rng))
    }

    /// Proposes a perturbation of `spec`: add/drop a burst, shift a burst's
    /// timing (half/double), or redraw a burst's placement.
    pub(crate) fn tweak(&self, spec: &FaultPlanSpec, rng: &mut ChaCha8Rng) -> FaultPlanSpec {
        if !self.enabled {
            return FaultPlanSpec::none();
        }
        if spec.is_empty() {
            return self.sample(rng);
        }
        let mut events = spec.events.clone();
        match rng.gen_range(0..4u8) {
            // Drop one burst (possibly back to the fault-free plan).
            0 => {
                let victim = rng.gen_range(0..events.len());
                events.remove(victim);
            }
            // Add one burst, capacity permitting.
            1 if (events.len() as u32) < self.max_events => {
                events.push(FaultEventSpec {
                    at_step: rng.gen_range(0..=self.max_step),
                    placement: self.sample_placement(rng),
                });
            }
            // Shift one burst's timing: halve or double, clamped to the
            // budget (timing is the sharpest axis — a burst just before
            // convergence is worth far more than one at step 0).
            2 => {
                let i = rng.gen_range(0..events.len());
                let t = events[i].at_step;
                events[i].at_step = if rng.gen_bool(0.5) {
                    t.saturating_mul(2).clamp(0, self.max_step)
                } else {
                    (t / 2).max(1)
                };
            }
            // Redraw one burst's placement.
            _ => {
                let i = rng.gen_range(0..events.len());
                events[i].placement = self.sample_placement(rng);
            }
        }
        events.sort_by_key(|e| e.at_step);
        FaultPlanSpec { events }
    }
}

/// Integer-exact description of an interaction-graph family — the topology
/// axis of the worst-case search.  Mirrors the non-custom variants of
/// [`population::GraphFamily`] with exactly-comparable fields, so candidates
/// carrying a graph override hash, compare and serialize like every other
/// spec.  [`GraphFamily::Custom`] closures have no integer description and
/// therefore no spec ([`GraphSpec::from_family`] returns `None` for them).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum GraphSpec {
    /// The paper's directed ring.
    DirectedRing,
    /// The undirected ring of the paper's Section 5.
    UndirectedRing,
    /// The complete interaction graph.
    Complete,
    /// The 2-D wrapped grid (deterministically dimensioned, no seed).
    Torus,
    /// A Watts–Strogatz small-world graph.
    SmallWorld {
        /// Ring-lattice neighbours per agent (`k/2` per side).
        k: u16,
        /// Rewiring probability in thousandths (0..=1000).
        rewire_per_mille: u16,
        /// Family seed.
        seed: u64,
    },
    /// A Barabási–Albert preferential-attachment graph.
    PreferentialAttachment {
        /// Edges attached per new agent.
        m: u16,
        /// Family seed.
        seed: u64,
    },
    /// A random directed `d`-regular graph (union of random Hamiltonian
    /// cycles).
    RandomRegular {
        /// Exact out- and in-degree of every agent.
        degree: u16,
        /// Family seed.
        seed: u64,
    },
}

impl GraphSpec {
    /// The [`GraphFamily`] this spec describes.
    pub fn family(self) -> GraphFamily {
        match self {
            GraphSpec::DirectedRing => GraphFamily::DirectedRing,
            GraphSpec::UndirectedRing => GraphFamily::UndirectedRing,
            GraphSpec::Complete => GraphFamily::Complete,
            GraphSpec::Torus => GraphFamily::Torus,
            GraphSpec::SmallWorld {
                k,
                rewire_per_mille,
                seed,
            } => GraphFamily::SmallWorld {
                k,
                rewire_per_mille,
                seed,
            },
            GraphSpec::PreferentialAttachment { m, seed } => {
                GraphFamily::PreferentialAttachment { m, seed }
            }
            GraphSpec::RandomRegular { degree, seed } => {
                GraphFamily::RandomRegular { degree, seed }
            }
        }
    }

    /// Recovers the spec of a [`GraphFamily`] — the inverse of
    /// [`GraphSpec::family`] for every non-custom family.  Returns `None`
    /// for [`GraphFamily::Custom`], whose closure has no integer
    /// description.
    pub fn from_family(family: &GraphFamily) -> Option<Self> {
        Some(match family {
            GraphFamily::DirectedRing => GraphSpec::DirectedRing,
            GraphFamily::UndirectedRing => GraphSpec::UndirectedRing,
            GraphFamily::Complete => GraphSpec::Complete,
            GraphFamily::Torus => GraphSpec::Torus,
            GraphFamily::SmallWorld {
                k,
                rewire_per_mille,
                seed,
            } => GraphSpec::SmallWorld {
                k: *k,
                rewire_per_mille: *rewire_per_mille,
                seed: *seed,
            },
            GraphFamily::PreferentialAttachment { m, seed } => {
                GraphSpec::PreferentialAttachment { m: *m, seed: *seed }
            }
            GraphFamily::RandomRegular { degree, seed } => GraphSpec::RandomRegular {
                degree: *degree,
                seed: *seed,
            },
            GraphFamily::Custom(_) => return None,
        })
    }

    /// A compact, stable key for reports and JSON output.
    pub fn key(self) -> String {
        match self {
            GraphSpec::DirectedRing => "ring".to_string(),
            GraphSpec::UndirectedRing => "undirected-ring".to_string(),
            GraphSpec::Complete => "complete".to_string(),
            GraphSpec::Torus => "torus".to_string(),
            GraphSpec::SmallWorld {
                k,
                rewire_per_mille,
                seed,
            } => format!("small-world(k={k},p={rewire_per_mille},seed={seed})"),
            GraphSpec::PreferentialAttachment { m, seed } => {
                format!("preferential(m={m},seed={seed})")
            }
            GraphSpec::RandomRegular { degree, seed } => {
                format!("random-regular(degree={degree},seed={seed})")
            }
        }
    }
}

/// One kind of mid-run topology change — the exactly-comparable mirror of
/// [`population::ChurnKind`] (which is not `Hash`, so candidates mirror it
/// instead of embedding it).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ChurnKindSpec {
    /// Replace `count` arcs with fresh random arcs.
    Rewire {
        /// How many arcs to replace.
        count: u32,
    },
    /// Split the population into `blocks` contiguous blocks.
    Partition {
        /// Number of blocks (at least 2).
        blocks: u32,
    },
    /// Rebuild the pristine family graph at the current size.
    Heal,
    /// Grow the population by `count` agents in arbitrary states.
    Join {
        /// How many agents join.
        count: u32,
    },
    /// Shrink the population by `count` agents (highest indices).
    Leave {
        /// How many agents leave.
        count: u32,
    },
}

impl ChurnKindSpec {
    /// The [`ChurnKind`] this spec describes.
    pub fn kind(self) -> ChurnKind {
        match self {
            ChurnKindSpec::Rewire { count } => ChurnKind::Rewire { count },
            ChurnKindSpec::Partition { blocks } => ChurnKind::Partition { blocks },
            ChurnKindSpec::Heal => ChurnKind::Heal,
            ChurnKindSpec::Join { count } => ChurnKind::Join { count },
            ChurnKindSpec::Leave { count } => ChurnKind::Leave { count },
        }
    }

    /// Recovers the spec of a [`ChurnKind`] — the inverse of
    /// [`ChurnKindSpec::kind`].
    pub fn from_kind(kind: ChurnKind) -> Self {
        match kind {
            ChurnKind::Rewire { count } => ChurnKindSpec::Rewire { count },
            ChurnKind::Partition { blocks } => ChurnKindSpec::Partition { blocks },
            ChurnKind::Heal => ChurnKindSpec::Heal,
            ChurnKind::Join { count } => ChurnKindSpec::Join { count },
            ChurnKind::Leave { count } => ChurnKindSpec::Leave { count },
        }
    }

    /// The kind's part of a [`ChurnPlanSpec::key`].
    fn key(&self) -> String {
        match *self {
            ChurnKindSpec::Rewire { count } => format!("rewire(count={count})"),
            ChurnKindSpec::Partition { blocks } => format!("partition(blocks={blocks})"),
            ChurnKindSpec::Heal => "heal".to_string(),
            ChurnKindSpec::Join { count } => format!("join(count={count})"),
            ChurnKindSpec::Leave { count } => format!("leave(count={count})"),
        }
    }
}

/// One topology change of a churn plan: a step and a kind.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct ChurnEventSpec {
    /// The step before which the change applies (step 0 fires before the
    /// first interaction).
    pub at_step: u64,
    /// The topology change.
    pub kind: ChurnKindSpec,
}

/// A value-level description of a whole churn schedule (possibly empty) —
/// the topology sibling of [`FaultPlanSpec`].  The mapping to
/// [`population::ChurnPlan`] is lossless in both directions
/// ([`ChurnPlanSpec::plan`] / [`ChurnPlanSpec::from_plan`], property-tested
/// in this crate), which is what makes churn-bearing certificates replayable
/// through `Scenario::with_churn_plan`.
#[derive(Clone, Debug, Default, PartialEq, Eq, Hash)]
pub struct ChurnPlanSpec {
    events: Vec<ChurnEventSpec>,
}

impl ChurnPlanSpec {
    /// The empty schedule: no churn (every search baseline).
    pub fn none() -> Self {
        ChurnPlanSpec::default()
    }

    /// Schedules one more topology change (builder-style; events are kept
    /// sorted by step, with a stable sort so same-step events keep their
    /// given order, exactly like [`ChurnPlan::at`]).
    pub fn with_event(mut self, at_step: u64, kind: ChurnKindSpec) -> Self {
        self.events.push(ChurnEventSpec { at_step, kind });
        self.events.sort_by_key(|e| e.at_step);
        self
    }

    /// The scheduled events, sorted by step.
    pub fn events(&self) -> &[ChurnEventSpec] {
        &self.events
    }

    /// `true` when no topology change is scheduled.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// `true` if any event grows the population (requires the driver's
    /// scenario to register a corruption function).
    pub fn has_joins(&self) -> bool {
        self.events
            .iter()
            .any(|e| matches!(e.kind, ChurnKindSpec::Join { .. }))
    }

    /// A compact, stable key for reports and JSON output (`"none"` for the
    /// empty schedule).
    pub fn key(&self) -> String {
        if self.is_empty() {
            return "none".to_string();
        }
        self.events
            .iter()
            .map(|e| format!("{}@{}", e.kind.key(), e.at_step))
            .collect::<Vec<_>>()
            .join("+")
    }

    /// Builds the [`ChurnPlan`] this spec describes.
    ///
    /// # Panics
    ///
    /// Panics on zero-extent events (`count == 0`, or a partition into fewer
    /// than two blocks), exactly like [`ChurnPlan::at`] — [`ChurnDomain`]
    /// never proposes them, so a panicking spec is always hand-built.
    pub fn plan(&self) -> ChurnPlan {
        self.events.iter().fold(ChurnPlan::new(), |plan, e| {
            plan.at(e.at_step, e.kind.kind())
        })
    }

    /// Recovers the spec of a [`ChurnPlan`] — the inverse of
    /// [`ChurnPlanSpec::plan`] (`from_plan(spec.plan()) == spec`, covered by
    /// a property test).
    pub fn from_plan(plan: &ChurnPlan) -> Self {
        ChurnPlanSpec {
            // Events are already sorted: ChurnPlan keeps them by step.
            events: plan
                .events()
                .iter()
                .map(|e| ChurnEventSpec {
                    at_step: e.at_step,
                    kind: ChurnKindSpec::from_kind(e.kind),
                })
                .collect(),
        }
    }
}

/// Which churn-plan mutations the worst-case search may propose.
///
/// The proposal grammar deliberately excludes [`ChurnKindSpec::Partition`]
/// and [`ChurnKindSpec::Heal`]: a proposed partition with no matching heal
/// trivially censors every run at its budget (the stop predicate becomes
/// unreachable), which would let the search "win" without saying anything
/// about the protocol.  Partition/heal schedules stay fully replayable
/// through [`ChurnPlanSpec`] — they are just never *proposed*.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ChurnDomain {
    /// Allow churn proposals at all.  When `false` every candidate keeps
    /// [`ChurnPlanSpec::none`] and the proposal RNG stream is bit-identical
    /// to the churn-free search space.
    pub enabled: bool,
    /// Upper bound (inclusive) on each event's `at_step`.
    pub max_step: u64,
    /// Upper bound (inclusive) on the arcs rewired / agents joined or left
    /// per event.
    pub max_extent: u32,
    /// Upper bound (inclusive) on the number of scheduled events.
    pub max_events: u32,
    /// Allow [`ChurnKindSpec::Join`] / [`ChurnKindSpec::Leave`] proposals.
    /// Joins require the driver's scenario to register a corruption
    /// function; when `false` only rewires are proposed.
    pub join_leave: bool,
}

impl ChurnDomain {
    /// Churn mutations disabled: the search space is exactly the churn-free
    /// space, with a bit-identical proposal RNG stream.
    pub fn disabled() -> Self {
        ChurnDomain {
            enabled: false,
            max_step: 0,
            max_extent: 0,
            max_events: 0,
            join_leave: false,
        }
    }

    /// Rewire-only churn of up to two events within the given step budget
    /// and extent.
    pub fn rewirings(max_step: u64, max_extent: u32) -> Self {
        ChurnDomain {
            enabled: true,
            max_step,
            max_extent: max_extent.max(1),
            max_events: 2,
            join_leave: false,
        }
    }

    /// Enables join/leave proposals (builder-style) — only for drivers whose
    /// scenario registers a corruption function.
    pub fn with_join_leave(mut self) -> Self {
        self.join_leave = true;
        self
    }

    /// Samples a uniformly random event kind.  The join/leave arms extend
    /// the draw range instead of re-weighting it, so rewire-only domains
    /// consume the RNG exactly as before the axis existed.
    fn sample_kind(&self, rng: &mut ChaCha8Rng) -> ChurnKindSpec {
        let kinds = if self.join_leave { 3u8 } else { 1u8 };
        match rng.gen_range(0..kinds) {
            0 => ChurnKindSpec::Rewire {
                count: rng.gen_range(1..=self.max_extent),
            },
            1 => ChurnKindSpec::Join {
                count: rng.gen_range(1..=self.max_extent),
            },
            _ => ChurnKindSpec::Leave {
                count: rng.gen_range(1..=self.max_extent),
            },
        }
    }

    /// Samples a random single-event schedule.
    fn sample(&self, rng: &mut ChaCha8Rng) -> ChurnPlanSpec {
        ChurnPlanSpec::none().with_event(rng.gen_range(0..=self.max_step), self.sample_kind(rng))
    }

    /// Proposes a perturbation of `spec`: add/drop an event, shift an
    /// event's timing (half/double), or redraw an event's kind — the same
    /// move grammar as [`FaultDomain::tweak`].
    pub(crate) fn tweak(&self, spec: &ChurnPlanSpec, rng: &mut ChaCha8Rng) -> ChurnPlanSpec {
        if !self.enabled {
            return ChurnPlanSpec::none();
        }
        if spec.is_empty() {
            return self.sample(rng);
        }
        let mut events = spec.events.clone();
        match rng.gen_range(0..4u8) {
            0 => {
                let victim = rng.gen_range(0..events.len());
                events.remove(victim);
            }
            1 if (events.len() as u32) < self.max_events => {
                events.push(ChurnEventSpec {
                    at_step: rng.gen_range(0..=self.max_step),
                    kind: self.sample_kind(rng),
                });
            }
            2 => {
                let i = rng.gen_range(0..events.len());
                let t = events[i].at_step;
                events[i].at_step = if rng.gen_bool(0.5) {
                    t.saturating_mul(2).clamp(0, self.max_step)
                } else {
                    (t / 2).max(1)
                };
            }
            _ => {
                let i = rng.gen_range(0..events.len());
                events[i].kind = self.sample_kind(rng);
            }
        }
        events.sort_by_key(|e| e.at_step);
        ChurnPlanSpec { events }
    }
}

/// Which graph-family mutations the worst-case search may propose.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct GraphDomain {
    /// Allow graph proposals at all.  When `false` every candidate keeps
    /// `None` (the driver scenario's own family) and the proposal RNG
    /// stream is bit-identical to the fixed-topology search space.
    pub enabled: bool,
    /// Upper bound (inclusive) on the structural degree parameters: `k` for
    /// small-world, `m` for preferential attachment, `degree` for
    /// random-regular.
    pub max_degree: u16,
}

impl GraphDomain {
    /// Graph mutations disabled: candidates keep the scenario's own family.
    pub fn disabled() -> Self {
        GraphDomain {
            enabled: false,
            max_degree: 0,
        }
    }

    /// The generated families (torus, small-world, preferential-attachment,
    /// random-regular) with degree parameters up to `max_degree`.
    pub fn generated(max_degree: u16) -> Self {
        GraphDomain {
            enabled: true,
            max_degree: max_degree.max(2),
        }
    }

    /// Samples a uniformly random generated family.
    fn sample(&self, rng: &mut ChaCha8Rng) -> GraphSpec {
        match rng.gen_range(0..4u8) {
            0 => GraphSpec::Torus,
            1 => GraphSpec::SmallWorld {
                k: rng.gen_range(2..=self.max_degree),
                rewire_per_mille: rng.gen_range(0..=1000),
                seed: rng.gen(),
            },
            2 => GraphSpec::PreferentialAttachment {
                m: rng.gen_range(1..=self.max_degree),
                seed: rng.gen(),
            },
            _ => GraphSpec::RandomRegular {
                degree: rng.gen_range(1..=self.max_degree),
                seed: rng.gen(),
            },
        }
    }

    /// Proposes a graph override: from `None`, a fresh family; from a
    /// seeded family, half the proposals redraw everything and half keep
    /// the structure but reseed it (the cheap local move).
    pub(crate) fn tweak(
        &self,
        spec: &Option<GraphSpec>,
        rng: &mut ChaCha8Rng,
    ) -> Option<GraphSpec> {
        if !self.enabled {
            return None;
        }
        let current = match spec {
            None => return Some(self.sample(rng)),
            Some(s) => *s,
        };
        if rng.gen_bool(0.5) {
            return Some(self.sample(rng));
        }
        Some(match current {
            GraphSpec::SmallWorld {
                k,
                rewire_per_mille,
                ..
            } => GraphSpec::SmallWorld {
                k,
                rewire_per_mille,
                seed: rng.gen(),
            },
            GraphSpec::PreferentialAttachment { m, .. } => {
                GraphSpec::PreferentialAttachment { m, seed: rng.gen() }
            }
            GraphSpec::RandomRegular { degree, .. } => GraphSpec::RandomRegular {
                degree,
                seed: rng.gen(),
            },
            // Parameterless families have no local move: redraw.
            _ => self.sample(rng),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn specs_build_plans_and_round_trip() {
        let spec = FaultPlanSpec::none()
            .with_event(100, FaultPlacementSpec::Random { count: 3 })
            .with_event(7, FaultPlacementSpec::Block { start: 2, count: 4 })
            .with_event(100, FaultPlacementSpec::All);
        // Sorted by step.
        assert_eq!(spec.events()[0].at_step, 7);
        let plan = spec.plan();
        assert_eq!(plan.len(), 3);
        assert_eq!(FaultPlanSpec::from_plan(&plan), spec);
        assert!(FaultPlanSpec::none().is_empty());
        assert!(FaultPlanSpec::none().plan().is_empty());
        assert_eq!(FaultPlanSpec::none().key(), "none");
        assert!(spec.key().contains("block(start=2,count=4)@7"));
    }

    #[test]
    fn disabled_domain_never_proposes_faults() {
        let domain = FaultDomain::disabled();
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let seeded = FaultPlanSpec::none().with_event(5, FaultPlacementSpec::All);
        for _ in 0..50 {
            assert!(domain.tweak(&seeded, &mut rng).is_empty());
        }
    }

    #[test]
    fn mutations_stay_in_bounds() {
        let domain = FaultDomain::bursts(1_000, 16);
        let mut rng = ChaCha8Rng::seed_from_u64(9);
        let mut spec = FaultPlanSpec::none();
        let mut saw_nonempty = false;
        let mut saw_two_events = false;
        for _ in 0..2_000 {
            spec = domain.tweak(&spec, &mut rng);
            saw_nonempty |= !spec.is_empty();
            saw_two_events |= spec.events().len() == 2;
            assert!(spec.events().len() as u32 <= domain.max_events);
            for e in spec.events() {
                assert!(e.at_step <= domain.max_step);
                match e.placement {
                    FaultPlacementSpec::Random { count } => {
                        assert!((1..=domain.max_agents).contains(&count));
                    }
                    FaultPlacementSpec::Block { start, count } => {
                        assert!(start < domain.max_agents);
                        assert!((1..=domain.max_agents).contains(&count));
                    }
                    FaultPlacementSpec::All => {}
                    FaultPlacementSpec::Targeted { .. } => {
                        panic!("targeted placements need FaultDomain::with_targeted")
                    }
                }
            }
        }
        assert!(saw_nonempty && saw_two_events, "domain explores its bounds");
    }

    #[test]
    fn hostile_specs_build_plans_and_round_trip() {
        let spec = FaultPlanSpec::none().with_event(50, FaultPlacementSpec::Targeted { limit: 1 });
        assert!(!spec.is_empty());
        let plan = spec.plan();
        assert_eq!(plan.len(), 1);
        assert_eq!(FaultPlanSpec::from_plan(&plan), spec);
        assert_eq!(spec.key(), "targeted(limit=1)@50");
    }

    #[test]
    fn placements_and_kinds_are_inverse() {
        for placement in [
            FaultPlacementSpec::Random { count: 3 },
            FaultPlacementSpec::Block { start: 2, count: 4 },
            FaultPlacementSpec::All,
            FaultPlacementSpec::Targeted { limit: 1 },
        ] {
            assert_eq!(FaultPlacementSpec::from_kind(placement.kind()), placement);
        }
    }

    #[test]
    fn targeted_proposals_are_gated_behind_the_domain_flag() {
        let plain = FaultDomain::bursts(1_000, 16);
        let armed = FaultDomain::bursts(1_000, 16).with_targeted();
        let is_targeted = |s: &FaultPlanSpec| {
            s.events()
                .iter()
                .any(|e| matches!(e.placement, FaultPlacementSpec::Targeted { .. }))
        };
        let run = |domain: FaultDomain, seed: u64| {
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            let mut spec = FaultPlanSpec::none();
            let mut specs = Vec::new();
            for _ in 0..500 {
                spec = domain.tweak(&spec, &mut rng);
                specs.push(spec.clone());
            }
            specs
        };
        assert!(
            !run(plain, 9).iter().any(is_targeted),
            "default domains never propose targeted placements"
        );
        assert!(
            run(armed, 9).iter().any(is_targeted),
            "with_targeted opens the axis"
        );
        for e in run(armed, 9).iter().flat_map(|s| s.events()) {
            if let FaultPlacementSpec::Targeted { limit } = e.placement {
                assert!((1..=armed.max_agents).contains(&limit));
            }
        }
    }

    #[test]
    fn graph_specs_and_families_are_inverse() {
        let specs = [
            GraphSpec::DirectedRing,
            GraphSpec::UndirectedRing,
            GraphSpec::Complete,
            GraphSpec::Torus,
            GraphSpec::SmallWorld {
                k: 4,
                rewire_per_mille: 150,
                seed: 9,
            },
            GraphSpec::PreferentialAttachment { m: 2, seed: 9 },
            GraphSpec::RandomRegular { degree: 3, seed: 9 },
        ];
        for spec in specs {
            assert_eq!(GraphSpec::from_family(&spec.family()), Some(spec));
            assert!(!spec.key().is_empty());
        }
        assert_eq!(GraphSpec::DirectedRing.key(), "ring");
        assert_eq!(
            GraphSpec::SmallWorld {
                k: 4,
                rewire_per_mille: 150,
                seed: 9
            }
            .key(),
            "small-world(k=4,p=150,seed=9)"
        );
        let custom = GraphFamily::Custom(std::sync::Arc::new(|n| {
            population::ArbitraryGraph::directed_ring(n)
        }));
        assert_eq!(GraphSpec::from_family(&custom), None);
    }

    #[test]
    fn churn_specs_build_plans_and_round_trip() {
        let spec = ChurnPlanSpec::none()
            .with_event(100, ChurnKindSpec::Heal)
            .with_event(7, ChurnKindSpec::Rewire { count: 2 })
            .with_event(50, ChurnKindSpec::Join { count: 1 })
            .with_event(80, ChurnKindSpec::Leave { count: 1 })
            .with_event(20, ChurnKindSpec::Partition { blocks: 2 });
        assert_eq!(spec.events()[0].at_step, 7, "events are sorted by step");
        assert!(spec.has_joins());
        let plan = spec.plan();
        assert_eq!(plan.len(), 5);
        assert_eq!(ChurnPlanSpec::from_plan(&plan), spec);
        assert!(ChurnPlanSpec::none().is_empty());
        assert!(ChurnPlanSpec::none().plan().is_empty());
        assert_eq!(ChurnPlanSpec::none().key(), "none");
        assert_eq!(
            spec.key(),
            "rewire(count=2)@7+partition(blocks=2)@20+join(count=1)@50\
             +leave(count=1)@80+heal@100"
        );
    }

    #[test]
    fn churn_kinds_and_specs_are_inverse() {
        for kind in [
            ChurnKindSpec::Rewire { count: 3 },
            ChurnKindSpec::Partition { blocks: 2 },
            ChurnKindSpec::Heal,
            ChurnKindSpec::Join { count: 1 },
            ChurnKindSpec::Leave { count: 2 },
        ] {
            assert_eq!(ChurnKindSpec::from_kind(kind.kind()), kind);
        }
    }

    #[test]
    fn disabled_churn_domain_never_proposes() {
        let domain = ChurnDomain::disabled();
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let seeded = ChurnPlanSpec::none().with_event(5, ChurnKindSpec::Rewire { count: 1 });
        for _ in 0..50 {
            assert!(domain.tweak(&seeded, &mut rng).is_empty());
        }
    }

    #[test]
    fn churn_mutations_stay_in_bounds_and_respect_gating() {
        let plain = ChurnDomain::rewirings(1_000, 8);
        let armed = ChurnDomain::rewirings(1_000, 8).with_join_leave();
        for (domain, joins_allowed) in [(plain, false), (armed, true)] {
            let mut rng = ChaCha8Rng::seed_from_u64(9);
            let mut spec = ChurnPlanSpec::none();
            let mut saw_join_leave = false;
            for _ in 0..2_000 {
                spec = domain.tweak(&spec, &mut rng);
                assert!(spec.events().len() as u32 <= domain.max_events);
                for e in spec.events() {
                    assert!(e.at_step <= domain.max_step);
                    match e.kind {
                        ChurnKindSpec::Rewire { count }
                        | ChurnKindSpec::Join { count }
                        | ChurnKindSpec::Leave { count } => {
                            assert!((1..=domain.max_extent).contains(&count));
                            if !matches!(e.kind, ChurnKindSpec::Rewire { .. }) {
                                saw_join_leave = true;
                            }
                        }
                        other => panic!("never proposed: {other:?}"),
                    }
                }
            }
            assert_eq!(
                saw_join_leave, joins_allowed,
                "join/leave proposals are gated behind with_join_leave"
            );
        }
    }

    #[test]
    fn disabled_graph_domain_never_proposes() {
        let domain = GraphDomain::disabled();
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        for _ in 0..50 {
            assert_eq!(domain.tweak(&Some(GraphSpec::Torus), &mut rng), None);
        }
    }

    #[test]
    fn graph_mutations_stay_in_bounds() {
        let domain = GraphDomain::generated(6);
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let mut spec: Option<GraphSpec> = None;
        let mut families = std::collections::HashSet::new();
        for _ in 0..500 {
            spec = domain.tweak(&spec, &mut rng);
            let s = spec.expect("enabled domains always propose");
            families.insert(std::mem::discriminant(&s));
            match s {
                GraphSpec::Torus => {}
                GraphSpec::SmallWorld {
                    k,
                    rewire_per_mille,
                    ..
                } => {
                    assert!((2..=domain.max_degree).contains(&k));
                    assert!(rewire_per_mille <= 1000);
                }
                GraphSpec::PreferentialAttachment { m, .. } => {
                    assert!((1..=domain.max_degree).contains(&m));
                }
                GraphSpec::RandomRegular { degree, .. } => {
                    assert!((1..=domain.max_degree).contains(&degree));
                }
                fixed => panic!("never proposed: {fixed:?}"),
            }
        }
        assert_eq!(families.len(), 4, "all generated families are explored");
    }
}
