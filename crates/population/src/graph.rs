//! Interaction graphs.
//!
//! A population is a weakly connected digraph `G(V, E)`; an arc `(u, v) ∈ E`
//! means that `u` can interact with `v` with `u` as the initiator and `v` as
//! the responder (Section 2).  The paper's main protocol runs on the
//! **directed ring** `E = {(u_i, u_{i+1 mod n})}`; the ring-orientation
//! protocol of Section 5 runs on the **undirected ring** which contains both
//! arc directions.  Complete graphs and arbitrary arc sets are provided for
//! tests and for contrasting topologies.

use std::collections::HashSet;
use std::fmt;
use std::sync::Arc;

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};

use crate::agent::AgentId;
use crate::error::{PopulationError, Result};
use crate::schedule::Interaction;

/// A set of possible interactions between agents.
///
/// The uniformly random scheduler samples one arc uniformly at random per
/// step via [`InteractionGraph::sample`]; for the standard topologies this is
/// O(1) and allocation-free.
pub trait InteractionGraph: Clone + Send + Sync {
    /// Number of agents in the population.
    fn num_agents(&self) -> usize;

    /// Number of arcs (ordered pairs that may interact).
    fn num_arcs(&self) -> usize;

    /// Returns `true` iff `(initiator, responder)` is an arc.
    fn is_arc(&self, initiator: usize, responder: usize) -> bool;

    /// Samples an arc uniformly at random.
    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> Interaction;

    /// Enumerates all arcs.  Used by exhaustive tests and by analysis code;
    /// the default implementation is quadratic and should be overridden when
    /// a cheaper enumeration exists.
    fn arcs(&self) -> Vec<Interaction> {
        let n = self.num_agents();
        let mut out = Vec::with_capacity(self.num_arcs());
        for i in 0..n {
            for j in 0..n {
                if i != j && self.is_arc(i, j) {
                    out.push(Interaction::new(i, j));
                }
            }
        }
        out
    }

    /// A short human-readable description used in reports.
    fn describe(&self) -> String;
}

/// The directed ring `V = {u_0, ..., u_{n-1}}`,
/// `E = {(u_i, u_{i+1 mod n})}` — the topology of the paper's Sections 2–4.
///
/// # Examples
///
/// ```
/// use population::graph::{DirectedRing, InteractionGraph};
///
/// let ring = DirectedRing::new(8).unwrap();
/// assert_eq!(ring.num_agents(), 8);
/// assert_eq!(ring.num_arcs(), 8);
/// assert!(ring.is_arc(3, 4));
/// assert!(ring.is_arc(7, 0));
/// assert!(!ring.is_arc(4, 3));
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct DirectedRing {
    n: usize,
}

impl DirectedRing {
    /// Creates a directed ring of `n >= 2` agents.
    ///
    /// # Errors
    ///
    /// Returns [`PopulationError::PopulationTooSmall`] if `n < 2`.
    pub fn new(n: usize) -> Result<Self> {
        if n < 2 {
            return Err(PopulationError::PopulationTooSmall {
                requested: n,
                minimum: 2,
            });
        }
        Ok(DirectedRing { n })
    }

    /// The ring size `n`.
    pub fn len(&self) -> usize {
        self.n
    }

    /// Always `false`: rings have at least two agents.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// The arc `e_i = (u_i, u_{i+1 mod n})` (the paper's notation).
    pub fn arc(&self, i: usize) -> Interaction {
        let i = i % self.n;
        Interaction::new(i, successor(i, self.n))
    }
}

/// `(i + 1) mod n` for `i < n`, by compare-and-wrap: the ring steps take
/// no division.
#[inline]
fn successor(i: usize, n: usize) -> usize {
    if i + 1 == n {
        0
    } else {
        i + 1
    }
}

impl InteractionGraph for DirectedRing {
    fn num_agents(&self) -> usize {
        self.n
    }

    fn num_arcs(&self) -> usize {
        self.n
    }

    fn is_arc(&self, initiator: usize, responder: usize) -> bool {
        initiator < self.n && responder == successor(initiator, self.n)
    }

    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> Interaction {
        let i = rng.gen_range(0..self.n);
        Interaction::new(i, successor(i, self.n))
    }

    fn arcs(&self) -> Vec<Interaction> {
        (0..self.n).map(|i| self.arc(i)).collect()
    }

    fn describe(&self) -> String {
        format!("directed ring, n = {}", self.n)
    }
}

/// The undirected ring: both `(u_i, u_{i+1})` and `(u_{i+1}, u_i)` are arcs
/// for every `i`.  This is the topology of Section 5 (ring orientation),
/// where the initiator/responder roles provide the protocol's only source of
/// symmetry breaking.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct UndirectedRing {
    n: usize,
}

impl UndirectedRing {
    /// Creates an undirected ring of `n >= 2` agents.
    ///
    /// # Errors
    ///
    /// Returns [`PopulationError::PopulationTooSmall`] if `n < 2`.
    pub fn new(n: usize) -> Result<Self> {
        if n < 2 {
            return Err(PopulationError::PopulationTooSmall {
                requested: n,
                minimum: 2,
            });
        }
        Ok(UndirectedRing { n })
    }

    /// The ring size `n`.
    pub fn len(&self) -> usize {
        self.n
    }

    /// Always `false`: rings have at least two agents.
    pub fn is_empty(&self) -> bool {
        false
    }
}

impl InteractionGraph for UndirectedRing {
    fn num_agents(&self) -> usize {
        self.n
    }

    fn num_arcs(&self) -> usize {
        2 * self.n
    }

    fn is_arc(&self, initiator: usize, responder: usize) -> bool {
        if initiator >= self.n || responder >= self.n {
            return false;
        }
        responder == successor(initiator, self.n) || initiator == successor(responder, self.n)
    }

    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> Interaction {
        let i = rng.gen_range(0..self.n);
        let right = rng.gen_bool(0.5);
        let j = successor(i, self.n);
        if right {
            Interaction::new(i, j)
        } else {
            Interaction::new(j, i)
        }
    }

    fn arcs(&self) -> Vec<Interaction> {
        let mut out = Vec::with_capacity(2 * self.n);
        for i in 0..self.n {
            let j = successor(i, self.n);
            out.push(Interaction::new(i, j));
            out.push(Interaction::new(j, i));
        }
        out
    }

    fn describe(&self) -> String {
        format!("undirected ring, n = {}", self.n)
    }
}

/// The complete interaction graph: every ordered pair of distinct agents is
/// an arc.  Not used by the paper's protocol (SS-LE is impossible on complete
/// graphs without extra assumptions) but useful for substrate tests and for
/// contrasting experiments.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct CompleteGraph {
    n: usize,
}

impl CompleteGraph {
    /// Creates a complete graph over `n >= 2` agents.
    ///
    /// # Panics
    ///
    /// Panics if `n < 2`.
    pub fn new(n: usize) -> Self {
        assert!(n >= 2, "complete graph needs at least 2 agents");
        CompleteGraph { n }
    }
}

impl InteractionGraph for CompleteGraph {
    fn num_agents(&self) -> usize {
        self.n
    }

    fn num_arcs(&self) -> usize {
        self.n * (self.n - 1)
    }

    fn is_arc(&self, initiator: usize, responder: usize) -> bool {
        initiator != responder && initiator < self.n && responder < self.n
    }

    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> Interaction {
        let i = rng.gen_range(0..self.n);
        let mut j = rng.gen_range(0..self.n - 1);
        if j >= i {
            j += 1;
        }
        Interaction::new(i, j)
    }

    fn describe(&self) -> String {
        format!("complete graph, n = {}", self.n)
    }
}

/// An arbitrary interaction graph given by an explicit arc list.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct ArbitraryGraph {
    n: usize,
    arcs: Vec<Interaction>,
    /// Agent `i`'s out-arcs end at `heads[offsets[i]..offsets[i + 1]]`,
    /// sorted, so [`InteractionGraph::is_arc`] searches one agent's arcs
    /// instead of scanning them all.
    offsets: Vec<usize>,
    heads: Vec<usize>,
}

impl ArbitraryGraph {
    /// Creates a graph over `n` agents with the given arcs.
    ///
    /// # Errors
    ///
    /// Returns an error if `n < 2`, if the arc list is empty, if any arc
    /// references an agent outside `0..n`, or if any arc is a self-loop
    /// (interactions are between distinct agents, and the simulation's
    /// split-borrow interaction step relies on it).
    pub fn new(n: usize, arcs: Vec<Interaction>) -> Result<Self> {
        if n < 2 {
            return Err(PopulationError::PopulationTooSmall {
                requested: n,
                minimum: 2,
            });
        }
        if arcs.is_empty() {
            return Err(PopulationError::EmptyArcSet);
        }
        for a in &arcs {
            if a.initiator().index() >= n || a.responder().index() >= n {
                return Err(PopulationError::AgentOutOfRange {
                    index: a.initiator().index().max(a.responder().index()),
                    population: n,
                });
            }
            if a.initiator() == a.responder() {
                return Err(PopulationError::SelfLoopArc {
                    agent: a.initiator().index(),
                });
            }
        }
        let mut pairs: Vec<_> = arcs
            .iter()
            .map(|a| (a.initiator().index(), a.responder().index()))
            .collect();
        pairs.sort_unstable();
        let offsets = (0..=n)
            .map(|i| pairs.partition_point(|&(from, _)| from < i))
            .collect();
        let heads = pairs.into_iter().map(|(_, to)| to).collect();
        Ok(ArbitraryGraph {
            n,
            arcs,
            offsets,
            heads,
        })
    }

    /// Builds the arbitrary-graph representation of a directed ring; useful
    /// for testing that the two representations behave identically.
    pub fn directed_ring(n: usize) -> Result<Self> {
        let ring = DirectedRing::new(n)?;
        ArbitraryGraph::new(n, ring.arcs())
    }
}

impl InteractionGraph for ArbitraryGraph {
    fn num_agents(&self) -> usize {
        self.n
    }

    fn num_arcs(&self) -> usize {
        self.arcs.len()
    }

    fn is_arc(&self, initiator: usize, responder: usize) -> bool {
        initiator < self.n
            && self.heads[self.offsets[initiator]..self.offsets[initiator + 1]]
                .binary_search(&responder)
                .is_ok()
    }

    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> Interaction {
        self.arcs[rng.gen_range(0..self.arcs.len())]
    }

    fn arcs(&self) -> Vec<Interaction> {
        self.arcs.clone()
    }

    fn describe(&self) -> String {
        format!("arbitrary graph, n = {}, |E| = {}", self.n, self.arcs.len())
    }
}

/// Convenience helper: the pair of ring neighbours of agent `i` on a ring of
/// `n` agents, as `(left, right)`.
pub fn ring_neighbors(i: usize, n: usize) -> (AgentId, AgentId) {
    let a = AgentId::new(i % n);
    (a.counter_clockwise_neighbor(n), a.clockwise_neighbor(n))
}

// ---------------------------------------------------------------------------
// Generated graph families.
//
// Each generator below is a pure function of its arguments: the randomized
// ones derive a `ChaCha8Rng` from a SplitMix64 scramble of `(seed, n)`, so
// the same sweep point produces bit-identical arc sets regardless of thread
// count or evaluation order.  All generators produce simple digraphs (no
// self-loops, no duplicate arcs) that are strongly connected by construction,
// so every stop predicate reachable on a ring is reachable here too.
// ---------------------------------------------------------------------------

/// One round of the SplitMix64 output scramble; used to decorrelate seeds
/// derived from nearby `(seed, n)` coordinates.
fn splitmix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The RNG seed a generated family uses for population size `n`: a SplitMix64
/// scramble of the family seed, the size, and a per-family salt.  Exposed so
/// external spec layers can pin the exact stream a graph was built from.
pub fn graph_rng_seed(seed: u64, n: usize, salt: u64) -> u64 {
    splitmix64(
        seed.wrapping_add(salt)
            .wrapping_add((n as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)),
    )
}

const SMALL_WORLD_SALT: u64 = 0x534D_414C_4C57_4C44; // "SMALLWLD"
const PREFERENTIAL_SALT: u64 = 0x5052_4546_4154_5443; // "PREFATTC"
const REGULAR_SALT: u64 = 0x5245_4755_4C41_5247; // "REGULARG"

/// The grid dimensions `(rows, cols)` used by [`torus`] for `n` agents:
/// `rows` is the largest divisor of `n` not exceeding `√n`, so the grid is as
/// close to square as `n` allows.  Prime `n` degenerates to a `1 × n` torus,
/// i.e. an undirected ring.
pub fn torus_dims(n: usize) -> (usize, usize) {
    let mut h = 1;
    while (h + 1) * (h + 1) <= n {
        h += 1;
    }
    while h > 1 && !n.is_multiple_of(h) {
        h -= 1;
    }
    (h, n / h)
}

/// A 2-D torus (wrapped grid) over `n` agents with arcs in both directions,
/// dimensioned by [`torus_dims`].  Deterministic: no randomness is involved.
///
/// # Errors
///
/// Returns [`PopulationError::PopulationTooSmall`] if `n < 2`.
pub fn torus(n: usize) -> Result<ArbitraryGraph> {
    if n < 2 {
        return Err(PopulationError::PopulationTooSmall {
            requested: n,
            minimum: 2,
        });
    }
    let (h, w) = torus_dims(n);
    let id = |r: usize, c: usize| r * w + c;
    let mut arcs = Vec::new();
    for r in 0..h {
        for c in 0..w {
            let u = id(r, c);
            for v in [id(r, (c + 1) % w), id((r + 1) % h, c)] {
                if u != v {
                    arcs.push(Interaction::new(u, v));
                    arcs.push(Interaction::new(v, u));
                }
            }
        }
    }
    arcs.sort_unstable_by_key(|a| (a.initiator().index(), a.responder().index()));
    arcs.dedup();
    ArbitraryGraph::new(n, arcs)
}

/// A Watts–Strogatz small-world graph: a ring lattice where every agent is
/// linked to its `max(1, k/2)` nearest neighbours per side (clamped to avoid
/// duplicate chords on tiny rings), with each chord of distance `>= 2`
/// rewired with probability `rewire_per_mille / 1000`.  The distance-1 ring
/// backbone is never rewired, so the graph stays strongly connected.  Arcs
/// are emitted in both directions.
///
/// # Errors
///
/// Returns [`PopulationError::PopulationTooSmall`] if `n < 2`.
pub fn small_world(n: usize, k: usize, rewire_per_mille: u16, seed: u64) -> Result<ArbitraryGraph> {
    if n < 2 {
        return Err(PopulationError::PopulationTooSmall {
            requested: n,
            minimum: 2,
        });
    }
    let half = (k / 2).min((n - 1) / 2).max(1);
    let p = u64::from(rewire_per_mille.min(1000));
    let mut rng = ChaCha8Rng::seed_from_u64(graph_rng_seed(seed, n, SMALL_WORLD_SALT));
    // Undirected edge list in deterministic order; `present` mirrors it for
    // O(1) membership checks (never iterated, so hashing order is harmless).
    let mut edges: Vec<(usize, usize)> = Vec::with_capacity(n * half);
    let mut present: HashSet<(usize, usize)> = HashSet::with_capacity(n * half);
    let key = |a: usize, b: usize| (a.min(b), a.max(b));
    for i in 0..n {
        for d in 1..=half {
            let e = key(i, (i + d) % n);
            if e.0 != e.1 && present.insert(e) {
                edges.push(e);
            }
        }
    }
    for edge in edges.iter_mut() {
        let (u, v) = *edge;
        let ring_dist = (v - u).min(n - (v - u));
        if ring_dist < 2 || rng.gen_range(0..1000) >= p {
            continue;
        }
        for _ in 0..16 {
            let w = rng.gen_range(0..n);
            let e = key(u, w);
            if w != u && !present.contains(&e) {
                present.remove(&key(u, v));
                present.insert(e);
                *edge = e;
                break;
            }
        }
    }
    let mut arcs = Vec::with_capacity(2 * edges.len());
    for (u, v) in edges {
        arcs.push(Interaction::new(u, v));
        arcs.push(Interaction::new(v, u));
    }
    arcs.sort_unstable_by_key(|a| (a.initiator().index(), a.responder().index()));
    ArbitraryGraph::new(n, arcs)
}

/// A Barabási–Albert preferential-attachment graph: a complete core of
/// `min(m + 1, n)` agents, then each new agent attaches `m` undirected edges
/// to existing agents chosen proportionally to their degree (with bounded
/// rejection for duplicates; at least one edge per new agent is guaranteed,
/// so the graph is connected).  Arcs are emitted in both directions.
///
/// # Errors
///
/// Returns [`PopulationError::PopulationTooSmall`] if `n < 2`.
pub fn preferential_attachment(n: usize, m: usize, seed: u64) -> Result<ArbitraryGraph> {
    if n < 2 {
        return Err(PopulationError::PopulationTooSmall {
            requested: n,
            minimum: 2,
        });
    }
    let m = m.max(1);
    let core = (m + 1).min(n);
    let mut rng = ChaCha8Rng::seed_from_u64(graph_rng_seed(seed, n, PREFERENTIAL_SALT));
    let mut edges: Vec<(usize, usize)> = Vec::new();
    // `targets` holds one entry per edge endpoint, so uniform draws from it
    // are degree-proportional.
    let mut targets: Vec<usize> = Vec::new();
    for u in 0..core {
        for v in (u + 1)..core {
            edges.push((u, v));
            targets.push(u);
            targets.push(v);
        }
    }
    for t in core..n {
        let want = m.min(t);
        let mut chosen: Vec<usize> = Vec::with_capacity(want);
        let mut attempts = 0;
        while chosen.len() < want && attempts < 16 * want {
            attempts += 1;
            let pick = targets[rng.gen_range(0..targets.len())];
            if !chosen.contains(&pick) {
                chosen.push(pick);
            }
        }
        if chosen.is_empty() {
            chosen.push(t - 1);
        }
        for v in chosen {
            edges.push((v, t));
            targets.push(v);
            targets.push(t);
        }
    }
    let mut arcs = Vec::with_capacity(2 * edges.len());
    for (u, v) in edges {
        arcs.push(Interaction::new(u, v));
        arcs.push(Interaction::new(v, u));
    }
    arcs.sort_unstable_by_key(|a| (a.initiator().index(), a.responder().index()));
    ArbitraryGraph::new(n, arcs)
}

/// A random directed `d`-regular graph built as the union of `d` random
/// Hamiltonian cycles (each a uniformly shuffled cycle over all agents), so
/// every agent has out-degree and in-degree exactly `d` and the graph is
/// strongly connected by construction.  `degree` is clamped to `1..=n-1`.
/// Cycles that would duplicate an existing arc are redrawn.
///
/// # Errors
///
/// Returns [`PopulationError::PopulationTooSmall`] if `n < 2`, and
/// [`PopulationError::GraphGenerationFailed`] if 64 consecutive redraws of a
/// cycle all collide with already-committed arcs (only possible when `degree`
/// is close to `n`).
pub fn random_regular(n: usize, degree: usize, seed: u64) -> Result<ArbitraryGraph> {
    if n < 2 {
        return Err(PopulationError::PopulationTooSmall {
            requested: n,
            minimum: 2,
        });
    }
    let degree = degree.clamp(1, n - 1);
    let mut rng = ChaCha8Rng::seed_from_u64(graph_rng_seed(seed, n, REGULAR_SALT));
    let mut arcs: Vec<Interaction> = Vec::with_capacity(n * degree);
    let mut present: HashSet<(usize, usize)> = HashSet::with_capacity(n * degree);
    let mut order: Vec<usize> = (0..n).collect();
    for _ in 0..degree {
        let mut committed = false;
        for _attempt in 0..64 {
            for i in (1..n).rev() {
                let j = rng.gen_range(0..=i);
                order.swap(i, j);
            }
            let collides = (0..n).any(|i| present.contains(&(order[i], order[(i + 1) % n])));
            if collides {
                continue;
            }
            for i in 0..n {
                let (u, v) = (order[i], order[(i + 1) % n]);
                present.insert((u, v));
                arcs.push(Interaction::new(u, v));
            }
            committed = true;
            break;
        }
        if !committed {
            return Err(PopulationError::GraphGenerationFailed {
                family: "random-regular",
            });
        }
    }
    arcs.sort_unstable_by_key(|a| (a.initiator().index(), a.responder().index()));
    ArbitraryGraph::new(n, arcs)
}

/// How many agents are reachable from agent 0 when every arc is treated as
/// undirected.  `n` agents with no arcs yields `min(n, 1)`.
pub fn weak_reach(n: usize, arcs: &[Interaction]) -> usize {
    if n == 0 {
        return 0;
    }
    let mut adj = vec![Vec::new(); n];
    for a in arcs {
        let (i, j) = (a.initiator().index(), a.responder().index());
        adj[i].push(j);
        adj[j].push(i);
    }
    let mut seen = vec![false; n];
    seen[0] = true;
    let mut stack = vec![0];
    let mut reached = 1;
    while let Some(u) = stack.pop() {
        for &v in &adj[u] {
            if !seen[v] {
                seen[v] = true;
                reached += 1;
                stack.push(v);
            }
        }
    }
    reached
}

/// Whether the arc set forms a weakly connected graph over `n` agents.
pub fn weakly_connected(n: usize, arcs: &[Interaction]) -> bool {
    weak_reach(n, arcs) == n
}

/// A family of interaction graphs, instantiated per population size.
///
/// The generated families (torus, small-world, preferential-attachment,
/// random-regular) are pure functions of `(their parameters, n)`: the
/// randomized ones derive a dedicated RNG via [`graph_rng_seed`], so
/// instantiation is bit-identical at any thread count and in any evaluation
/// order.
#[derive(Clone)]
pub enum GraphFamily {
    /// The paper's directed ring (the default).
    DirectedRing,
    /// The undirected ring of Section 5.
    UndirectedRing,
    /// The complete interaction graph.
    Complete,
    /// A 2-D wrapped grid dimensioned by [`torus_dims`] (deterministic, no
    /// seed).
    Torus,
    /// A Watts–Strogatz small-world graph (see [`small_world`]).
    SmallWorld {
        /// Nearest-neighbour links per agent on the ring lattice (`k/2` per
        /// side).
        k: u16,
        /// Rewiring probability in thousandths (0..=1000).
        rewire_per_mille: u16,
        /// Family seed; the per-size RNG stream is derived from it.
        seed: u64,
    },
    /// A Barabási–Albert preferential-attachment graph (see
    /// [`preferential_attachment`]).
    PreferentialAttachment {
        /// Edges attached per new agent.
        m: u16,
        /// Family seed; the per-size RNG stream is derived from it.
        seed: u64,
    },
    /// A random directed `d`-regular graph — a union of random Hamiltonian
    /// cycles, an expander with high probability (see [`random_regular`]).
    RandomRegular {
        /// Exact out- and in-degree of every agent.
        degree: u16,
        /// Family seed; the per-size RNG stream is derived from it.
        seed: u64,
    },
    /// An arbitrary graph built by a user closure.
    Custom(Arc<dyn Fn(usize) -> Result<ArbitraryGraph> + Send + Sync>),
}

impl GraphFamily {
    /// Builds the concrete graph for a population of `n` agents.
    ///
    /// # Errors
    ///
    /// Propagates the graph constructors' errors (e.g. `n < 2`,
    /// [`PopulationError::SelfLoopArc`] / [`PopulationError::EmptyArcSet`]
    /// from a custom closure), and rejects a [`GraphFamily::Custom`] graph
    /// that is not weakly connected with
    /// [`PopulationError::DisconnectedGraph`] — on a disconnected graph a
    /// global stop predicate can be unreachable, so the run would only ever
    /// end by budget exhaustion.  (The generated families are connected by
    /// construction and skip the check.)
    pub fn build(&self, n: usize) -> Result<AnyGraph> {
        Ok(match self {
            GraphFamily::DirectedRing => AnyGraph::DirectedRing(DirectedRing::new(n)?),
            GraphFamily::UndirectedRing => AnyGraph::UndirectedRing(UndirectedRing::new(n)?),
            GraphFamily::Complete => {
                if n < 2 {
                    return Err(PopulationError::PopulationTooSmall {
                        requested: n,
                        minimum: 2,
                    });
                }
                AnyGraph::Complete(CompleteGraph::new(n))
            }
            GraphFamily::Torus => AnyGraph::Arbitrary(torus(n)?),
            GraphFamily::SmallWorld {
                k,
                rewire_per_mille,
                seed,
            } => AnyGraph::Arbitrary(small_world(n, usize::from(*k), *rewire_per_mille, *seed)?),
            GraphFamily::PreferentialAttachment { m, seed } => {
                AnyGraph::Arbitrary(preferential_attachment(n, usize::from(*m), *seed)?)
            }
            GraphFamily::RandomRegular { degree, seed } => {
                AnyGraph::Arbitrary(random_regular(n, usize::from(*degree), *seed)?)
            }
            GraphFamily::Custom(f) => {
                let g = f(n)?;
                let reached = weak_reach(g.num_agents(), &g.arcs());
                if reached != g.num_agents() {
                    return Err(PopulationError::DisconnectedGraph {
                        agents: g.num_agents(),
                        reached,
                    });
                }
                AnyGraph::Arbitrary(g)
            }
        })
    }
}

impl fmt::Debug for GraphFamily {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GraphFamily::DirectedRing => write!(f, "GraphFamily::DirectedRing"),
            GraphFamily::UndirectedRing => write!(f, "GraphFamily::UndirectedRing"),
            GraphFamily::Complete => write!(f, "GraphFamily::Complete"),
            GraphFamily::Torus => write!(f, "GraphFamily::Torus"),
            GraphFamily::SmallWorld {
                k,
                rewire_per_mille,
                seed,
            } => write!(
                f,
                "GraphFamily::SmallWorld {{ k: {k}, rewire_per_mille: {rewire_per_mille}, \
                 seed: {seed} }}"
            ),
            GraphFamily::PreferentialAttachment { m, seed } => write!(
                f,
                "GraphFamily::PreferentialAttachment {{ m: {m}, seed: {seed} }}"
            ),
            GraphFamily::RandomRegular { degree, seed } => write!(
                f,
                "GraphFamily::RandomRegular {{ degree: {degree}, seed: {seed} }}"
            ),
            GraphFamily::Custom(_) => write!(f, "GraphFamily::Custom(..)"),
        }
    }
}

/// A concrete graph of any supported family; dispatches
/// [`InteractionGraph`] to the wrapped topology, so sampling consumes the
/// RNG exactly like the wrapped graph would.
#[derive(Clone, Debug)]
pub enum AnyGraph {
    /// A directed ring.
    DirectedRing(DirectedRing),
    /// An undirected ring.
    UndirectedRing(UndirectedRing),
    /// A complete graph.
    Complete(CompleteGraph),
    /// An arbitrary arc set.
    Arbitrary(ArbitraryGraph),
}

impl InteractionGraph for AnyGraph {
    fn num_agents(&self) -> usize {
        match self {
            AnyGraph::DirectedRing(g) => g.num_agents(),
            AnyGraph::UndirectedRing(g) => g.num_agents(),
            AnyGraph::Complete(g) => g.num_agents(),
            AnyGraph::Arbitrary(g) => g.num_agents(),
        }
    }

    fn num_arcs(&self) -> usize {
        match self {
            AnyGraph::DirectedRing(g) => g.num_arcs(),
            AnyGraph::UndirectedRing(g) => g.num_arcs(),
            AnyGraph::Complete(g) => g.num_arcs(),
            AnyGraph::Arbitrary(g) => g.num_arcs(),
        }
    }

    // The scheduled block fills check every arc with this; without the
    // hint it stays out of line there, called through the GOT.
    #[inline]
    fn is_arc(&self, initiator: usize, responder: usize) -> bool {
        match self {
            AnyGraph::DirectedRing(g) => g.is_arc(initiator, responder),
            AnyGraph::UndirectedRing(g) => g.is_arc(initiator, responder),
            AnyGraph::Complete(g) => g.is_arc(initiator, responder),
            AnyGraph::Arbitrary(g) => g.is_arc(initiator, responder),
        }
    }

    // The uniform block loop calls this once per arc; without the hint it
    // stays out of line there once that loop is inlined into the engine.
    #[inline]
    fn sample<R: rand::Rng + ?Sized>(&self, rng: &mut R) -> Interaction {
        match self {
            AnyGraph::DirectedRing(g) => g.sample(rng),
            AnyGraph::UndirectedRing(g) => g.sample(rng),
            AnyGraph::Complete(g) => g.sample(rng),
            AnyGraph::Arbitrary(g) => g.sample(rng),
        }
    }

    fn arcs(&self) -> Vec<Interaction> {
        match self {
            AnyGraph::DirectedRing(g) => g.arcs(),
            AnyGraph::UndirectedRing(g) => g.arcs(),
            AnyGraph::Complete(g) => g.arcs(),
            AnyGraph::Arbitrary(g) => g.arcs(),
        }
    }

    fn describe(&self) -> String {
        match self {
            AnyGraph::DirectedRing(g) => g.describe(),
            AnyGraph::UndirectedRing(g) => g.describe(),
            AnyGraph::Complete(g) => g.describe(),
            AnyGraph::Arbitrary(g) => g.describe(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn rng() -> ChaCha8Rng {
        ChaCha8Rng::seed_from_u64(0xDEADBEEF)
    }

    #[test]
    fn directed_ring_arcs_are_the_paper_arcs() {
        let ring = DirectedRing::new(5).unwrap();
        let arcs = ring.arcs();
        assert_eq!(arcs.len(), 5);
        for (i, a) in arcs.iter().enumerate() {
            assert_eq!(a.initiator().index(), i);
            assert_eq!(a.responder().index(), (i + 1) % 5);
        }
        assert_eq!(ring.arc(4), Interaction::new(4, 0));
        assert_eq!(ring.arc(7), Interaction::new(2, 3));
        assert!(ring.describe().contains("directed ring"));
        assert_eq!(ring.len(), 5);
        assert!(!ring.is_empty());
    }

    /// The compare-and-wrap ring arithmetic gives the arcs of the modulo
    /// formula, for every pair and for the same draws.
    #[test]
    fn ring_arithmetic_matches_the_modulo_formula() {
        for n in [2usize, 3, 5, 64] {
            let (directed, undirected) = (
                DirectedRing::new(n).unwrap(),
                UndirectedRing::new(n).unwrap(),
            );
            for i in 0..n + 2 {
                for j in 0..n + 2 {
                    let forward = i < n && j == (i + 1) % n;
                    let backward = j < n && i == (j + 1) % n;
                    assert_eq!(directed.is_arc(i, j), forward, "n={n} ({i}, {j})");
                    assert_eq!(undirected.is_arc(i, j), forward || backward);
                }
            }
            let (mut a, mut b) = (rng(), rng());
            for _ in 0..200 {
                let i = b.gen_range(0..n);
                assert_eq!(directed.sample(&mut a), Interaction::new(i, (i + 1) % n));
            }
            let (mut a, mut b) = (rng(), rng());
            for _ in 0..200 {
                let i = b.gen_range(0..n);
                let (i, j) = if b.gen_bool(0.5) {
                    (i, (i + 1) % n)
                } else {
                    ((i + 1) % n, i)
                };
                assert_eq!(undirected.sample(&mut a), Interaction::new(i, j));
            }
        }
    }

    #[test]
    fn ring_rejects_tiny_populations() {
        assert!(DirectedRing::new(0).is_err());
        assert!(DirectedRing::new(1).is_err());
        assert!(UndirectedRing::new(1).is_err());
        assert!(DirectedRing::new(2).is_ok());
    }

    #[test]
    fn directed_ring_sampling_is_roughly_uniform() {
        let ring = DirectedRing::new(4).unwrap();
        let mut rng = rng();
        let mut counts = [0usize; 4];
        let trials = 40_000;
        for _ in 0..trials {
            let arc = ring.sample(&mut rng);
            assert!(ring.is_arc(arc.initiator().index(), arc.responder().index()));
            counts[arc.initiator().index()] += 1;
        }
        let expected = trials as f64 / 4.0;
        for &c in &counts {
            assert!(
                (c as f64 - expected).abs() < expected * 0.1,
                "count {c} deviates from uniform expectation {expected}"
            );
        }
    }

    #[test]
    fn undirected_ring_has_both_directions() {
        let ring = UndirectedRing::new(6).unwrap();
        assert_eq!(ring.num_arcs(), 12);
        assert!(ring.is_arc(2, 3));
        assert!(ring.is_arc(3, 2));
        assert!(ring.is_arc(5, 0));
        assert!(ring.is_arc(0, 5));
        assert!(!ring.is_arc(0, 2));
        assert_eq!(ring.arcs().len(), 12);
        assert_eq!(ring.len(), 6);
        assert!(!ring.is_empty());
        assert!(ring.describe().contains("undirected"));
    }

    #[test]
    fn undirected_ring_samples_both_roles() {
        let ring = UndirectedRing::new(3).unwrap();
        let mut rng = rng();
        let mut forward = 0usize;
        let mut backward = 0usize;
        for _ in 0..10_000 {
            let arc = ring.sample(&mut rng);
            let i = arc.initiator().index();
            let j = arc.responder().index();
            assert!(ring.is_arc(i, j));
            if j == (i + 1) % 3 {
                forward += 1;
            } else {
                backward += 1;
            }
        }
        assert!(forward > 4000 && backward > 4000, "{forward} vs {backward}");
    }

    #[test]
    fn complete_graph_counts_and_membership() {
        let g = CompleteGraph::new(5);
        assert_eq!(g.num_arcs(), 20);
        assert_eq!(g.arcs().len(), 20);
        assert!(g.is_arc(0, 4));
        assert!(!g.is_arc(2, 2));
        let mut rng = rng();
        for _ in 0..1000 {
            let arc = g.sample(&mut rng);
            assert_ne!(arc.initiator(), arc.responder());
        }
        assert!(g.describe().contains("complete"));
    }

    #[test]
    fn arbitrary_graph_validation() {
        assert!(ArbitraryGraph::new(1, vec![Interaction::new(0, 1)]).is_err());
        assert!(ArbitraryGraph::new(3, vec![]).is_err());
        assert!(ArbitraryGraph::new(3, vec![Interaction::new(0, 7)]).is_err());
        let g =
            ArbitraryGraph::new(3, vec![Interaction::new(0, 1), Interaction::new(1, 2)]).unwrap();
        assert!(g.is_arc(0, 1));
        assert!(!g.is_arc(2, 0));
        assert_eq!(g.num_arcs(), 2);
        assert!(g.describe().contains("arbitrary"));
    }

    #[test]
    fn arbitrary_ring_matches_directed_ring() {
        let a = ArbitraryGraph::directed_ring(7).unwrap();
        let b = DirectedRing::new(7).unwrap();
        assert_eq!(a.arcs(), b.arcs());
        assert_eq!(a.num_agents(), b.num_agents());
        for i in 0..7 {
            for j in 0..7 {
                assert_eq!(a.is_arc(i, j), b.is_arc(i, j));
            }
        }
    }

    /// The per-agent index answers `is_arc` as the arc list does, for
    /// every pair including out-of-range agents, and duplicate arcs.
    #[test]
    fn is_arc_matches_the_arc_list() {
        let mut graphs = vec![ArbitraryGraph::new(
            4,
            vec![
                Interaction::new(2, 1),
                Interaction::new(0, 3),
                Interaction::new(2, 1),
                Interaction::new(0, 1),
            ],
        )
        .unwrap()];
        for n in [16, 64] {
            graphs.push(torus(n).unwrap());
            graphs.push(small_world(n, 4, 300, 0xFEED).unwrap());
            graphs.push(preferential_attachment(n, 2, 0xBEEF).unwrap());
            graphs.push(random_regular(n, 3, 0xCAFE).unwrap());
        }
        for g in &graphs {
            let n = g.num_agents();
            for i in 0..=n {
                for j in 0..=n {
                    let listed = g.arcs().contains(&Interaction::new(i, j));
                    assert_eq!(g.is_arc(i, j), listed, "{} ({i}, {j})", g.describe());
                }
            }
        }
    }

    #[test]
    fn self_loops_are_rejected() {
        let err = ArbitraryGraph::new(3, vec![Interaction::new(0, 1), Interaction::new(2, 2)])
            .unwrap_err();
        assert_eq!(err, PopulationError::SelfLoopArc { agent: 2 });
    }

    fn degrees(g: &ArbitraryGraph) -> (Vec<usize>, Vec<usize>) {
        let n = g.num_agents();
        let (mut out_deg, mut in_deg) = (vec![0; n], vec![0; n]);
        for a in g.arcs() {
            out_deg[a.initiator().index()] += 1;
            in_deg[a.responder().index()] += 1;
        }
        (out_deg, in_deg)
    }

    #[test]
    fn torus_dims_prefer_square() {
        assert_eq!(torus_dims(16), (4, 4));
        assert_eq!(torus_dims(12), (3, 4));
        assert_eq!(torus_dims(6), (2, 3));
        assert_eq!(torus_dims(7), (1, 7));
        assert_eq!(torus_dims(2), (1, 2));
    }

    #[test]
    fn torus_is_regular_and_connected() {
        for n in [4, 6, 9, 12, 16, 64] {
            let g = torus(n).unwrap();
            assert!(weakly_connected(n, &g.arcs()), "torus n={n} disconnected");
            let (out_deg, in_deg) = degrees(&g);
            let (h, w) = torus_dims(n);
            // Both-direction arcs to the right and down neighbours: degree 4
            // on a proper torus, collapsing to 2 on a 1-row (ring) or 2-row /
            // 2-col (doubled edge) torus.
            let expect = match (h, w) {
                (1, _) | (_, 1) => 2,
                (2, 2) => 2,
                (2, _) | (_, 2) => 3,
                _ => 4,
            };
            for i in 0..n {
                assert_eq!(out_deg[i], expect, "torus n={n} agent {i} out-degree");
                assert_eq!(in_deg[i], expect, "torus n={n} agent {i} in-degree");
            }
        }
    }

    #[test]
    fn torus_two_by_two_is_a_four_cycle() {
        let g = torus(4).unwrap();
        assert_eq!(torus_dims(4), (2, 2));
        assert_eq!(g.num_arcs(), 8);
        assert!(g.is_arc(0, 1) && g.is_arc(1, 0));
        assert!(g.is_arc(0, 2) && g.is_arc(2, 0));
        assert!(!g.is_arc(0, 3));
    }

    #[test]
    fn small_world_is_deterministic_and_connected() {
        for n in [4, 8, 32] {
            let a = small_world(n, 4, 300, 0xFEED).unwrap();
            let b = small_world(n, 4, 300, 0xFEED).unwrap();
            assert_eq!(a, b, "same seed must give identical graphs");
            let c = small_world(n, 4, 300, 0xFEED + 1).unwrap();
            if n > 4 {
                assert_ne!(a, c, "different seed should rewire differently");
            }
            assert!(
                weakly_connected(n, &a.arcs()),
                "small world n={n} disconnected"
            );
            let half = (4usize / 2).min((n - 1) / 2).max(1);
            assert!(a.num_arcs() <= 2 * n * half);
            assert!(a.num_arcs() >= 2 * n, "ring backbone must survive");
        }
    }

    #[test]
    fn small_world_keeps_ring_backbone() {
        let g = small_world(16, 6, 1000, 0xABCD).unwrap();
        for i in 0..16 {
            assert!(g.is_arc(i, (i + 1) % 16), "backbone arc {i} missing");
            assert!(g.is_arc((i + 1) % 16, i), "backbone arc {i} missing");
        }
    }

    #[test]
    fn preferential_attachment_is_deterministic_and_connected() {
        for n in [4, 8, 32] {
            let a = preferential_attachment(n, 2, 0xBEEF).unwrap();
            let b = preferential_attachment(n, 2, 0xBEEF).unwrap();
            assert_eq!(a, b);
            assert!(weakly_connected(n, &a.arcs()), "pa n={n} disconnected");
            // Arc-count bounds: complete core plus up to m per later agent,
            // two arcs per undirected edge.
            let core = 3.min(n);
            let max_edges = core * (core - 1) / 2 + 2 * n.saturating_sub(core);
            assert!(a.num_arcs() <= 2 * max_edges);
            assert!(a.num_arcs() >= 2 * (n - 1), "must at least span a tree");
        }
    }

    #[test]
    fn random_regular_has_exact_degree() {
        for (n, d) in [(4, 2), (8, 3), (16, 4), (5, 1)] {
            let g = random_regular(n, d, 0x5EED).unwrap();
            assert_eq!(g, random_regular(n, d, 0x5EED).unwrap());
            assert!(
                weakly_connected(n, &g.arcs()),
                "regular n={n} d={d} disconnected"
            );
            let (out_deg, in_deg) = degrees(&g);
            for i in 0..n {
                assert_eq!(out_deg[i], d, "n={n} d={d} agent {i} out-degree");
                assert_eq!(in_deg[i], d, "n={n} d={d} agent {i} in-degree");
            }
        }
    }

    #[test]
    fn random_regular_clamps_degree() {
        // degree 0 and degree >= n are clamped into 1..=n-1.
        let g = random_regular(4, 0, 1).unwrap();
        let (out_deg, _) = degrees(&g);
        assert!(out_deg.iter().all(|&d| d == 1));
        let g = random_regular(3, 9, 1).unwrap();
        let (out_deg, _) = degrees(&g);
        assert!(out_deg.iter().all(|&d| d == 2));
    }

    #[test]
    fn weak_reach_counts_components() {
        let arcs = vec![Interaction::new(0, 1), Interaction::new(2, 3)];
        assert_eq!(weak_reach(4, &arcs), 2);
        assert!(!weakly_connected(4, &arcs));
        assert!(weakly_connected(2, &[Interaction::new(1, 0)]));
    }

    #[test]
    fn graph_rng_seed_scrambles_coordinates() {
        let a = graph_rng_seed(1, 8, SMALL_WORLD_SALT);
        let b = graph_rng_seed(1, 9, SMALL_WORLD_SALT);
        let c = graph_rng_seed(2, 8, SMALL_WORLD_SALT);
        let d = graph_rng_seed(1, 8, REGULAR_SALT);
        assert!(a != b && a != c && a != d);
        assert_eq!(a, graph_rng_seed(1, 8, SMALL_WORLD_SALT));
    }

    #[test]
    fn ring_neighbors_helper() {
        let (l, r) = ring_neighbors(0, 6);
        assert_eq!(l.index(), 5);
        assert_eq!(r.index(), 1);
        let (l, r) = ring_neighbors(5, 6);
        assert_eq!(l.index(), 4);
        assert_eq!(r.index(), 0);
    }

    #[test]
    fn graph_families_build_their_topologies() {
        assert!(matches!(
            GraphFamily::DirectedRing.build(4),
            Ok(AnyGraph::DirectedRing(_))
        ));
        assert!(matches!(
            GraphFamily::UndirectedRing.build(4),
            Ok(AnyGraph::UndirectedRing(_))
        ));
        assert!(matches!(
            GraphFamily::Complete.build(4),
            Ok(AnyGraph::Complete(_))
        ));
        assert!(GraphFamily::DirectedRing.build(1).is_err());
        assert!(GraphFamily::Complete.build(1).is_err());
        let custom = GraphFamily::Custom(Arc::new(ArbitraryGraph::directed_ring));
        let g = custom.build(5).unwrap();
        assert_eq!(g.num_agents(), 5);
        assert_eq!(g.num_arcs(), 5);
        assert!(g.is_arc(4, 0));
        assert_eq!(g.arcs().len(), 5);
        assert!(g.describe().contains("arbitrary"));
        assert!(format!("{custom:?}").contains("Custom"));
    }

    #[test]
    fn any_graph_samples_exactly_like_the_wrapped_graph() {
        let wrapped = AnyGraph::DirectedRing(DirectedRing::new(9).unwrap());
        let direct = DirectedRing::new(9).unwrap();
        let mut rng_a = ChaCha8Rng::seed_from_u64(5);
        let mut rng_b = ChaCha8Rng::seed_from_u64(5);
        for _ in 0..200 {
            assert_eq!(wrapped.sample(&mut rng_a), direct.sample(&mut rng_b));
        }
    }
}
