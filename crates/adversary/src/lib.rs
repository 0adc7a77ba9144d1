//! # ssle-adversary
//!
//! The adversary engine: everything the workspace uses to stress the
//! *self-stabilization* claim of the paper beyond the benign setting.
//!
//! The paper proves convergence from **arbitrary** initial configurations
//! under the uniformly random scheduler; average-case sweeps from sampled
//! inits exercise only a thin slice of that contract.  This crate opens the
//! worst-case workload class:
//!
//! * a **scheduler zoo** — non-uniform arc distributions
//!   ([`WeightedScheduler`]), epoch-confined interaction patterns with an
//!   empirical fairness auditor ([`EpochPartitionScheduler`],
//!   [`FairnessAuditor`]), and a state-aware greedy adversary that scores
//!   candidate arcs against a protocol-supplied potential
//!   ([`GreedyAdversary`]);
//! * a serializable **scheduler description** ([`SchedulerSpec`]) that turns
//!   into a `population::SchedulerFamily`, so any `Scenario` can be re-run
//!   under any zoo member via `Scenario::with_scheduler`;
//! * a serializable **fault-plan description** ([`FaultPlanSpec`]) — an
//!   integer-exact crash schedule (timing, placement, extent — including
//!   targeted placements) that builds a `population::FaultPlan`, so the
//!   search can also crash agents mid-run and certificates replay through
//!   `Scenario`'s fault path;
//! * serializable **topology descriptions** — [`GraphSpec`] mirrors the
//!   generated `population::GraphFamily` variants and [`ChurnPlanSpec`] is
//!   an integer-exact churn schedule that builds a `population::ChurnPlan`,
//!   so candidates can also replace the interaction graph and churn it
//!   mid-run; both axes are gated behind [`ChurnDomain`] / [`GraphDomain`]
//!   (disabled domains keep the proposal RNG stream bit-identical to the
//!   smaller space, so earlier certificates replay unchanged);
//! * a **worst-case search engine** ([`worst_case_search`]) — deterministic
//!   mutation/annealing over initial-condition variants, seeds, scheduler
//!   parameters and fault plans that maximizes observed stabilization time
//!   and emits reproducible [`WorstCase`] certificates; the chain can run as
//!   N deterministic **islands** merged best-of
//!   ([`worst_case_search_islands`]) — bit-reproducible for a fixed island
//!   count at any thread count;
//! * a **livelock certifier** ([`certify_livelock`]) — replays a censored
//!   worst case with configuration-recurrence detection armed and, for
//!   deterministic-phase schedulers, exhaustively checks the phase closure
//!   of the recurrent configuration, upgrading "did not converge within the
//!   budget" to a checked [`CertifiedLivelock`] certificate.
//!
//! The crate is protocol-agnostic: it only speaks the erased vocabulary of
//! `population::scenario` (`DynState`, `DynScheduler`, `SchedulerFamily`).
//! The Table 1 wiring — which scenarios to attack, which potentials to hand
//! the greedy adversary — lives in `ssle-bench` (`stabilization` module, the
//! `stabilization_report` and `fig_worstcase` binaries).

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod certify;
pub mod epoch;
pub mod faultplan;
pub mod greedy;
pub mod search;
pub mod spec;
pub mod weighted;

pub use certify::{certify_livelock, spec_phases, CertifiedLivelock};
pub use epoch::{EpochPartitionScheduler, FairnessAuditor, FairnessCertificate};
pub use faultplan::{
    ChurnDomain, ChurnEventSpec, ChurnKindSpec, ChurnPlanSpec, FaultDomain, FaultEventSpec,
    FaultPlacementSpec, FaultPlanSpec, GraphDomain, GraphSpec,
};
pub use greedy::{ArcScorer, GreedyAdversary};
pub use search::{
    worst_case_search, worst_case_search_islands, Candidate, Evaluation, IslandConfig,
    IslandOutcome, SearchConfig, SearchOutcome, SearchSpace, SearchStats, SpecDomain, WorstCase,
};
pub use spec::SchedulerSpec;
pub use weighted::WeightedScheduler;

/// `rng.gen_range(0..span)` for `span > 0`: the same one word and the same
/// multiply-shift map as the vendored `rand`.  The schedulers' block fills
/// draw through this because `gen_range`'s `u64` body has many callers in
/// this crate, so the compiler keeps it out of line, one call per arc.
#[inline]
fn draw_below<R: rand::Rng + ?Sized>(rng: &mut R, span: u64) -> u64 {
    ((u128::from(rng.next_u64()) * u128::from(span)) >> 64) as u64
}

#[cfg(test)]
mod tests {
    use rand::{Rng, RngCore, SeedableRng};
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn draw_below_is_gen_range() {
        for span in [1u64, 2, 3, 7, 64, 1000, 1 << 40, u64::MAX / 2 + 5, u64::MAX] {
            let (mut a, mut b) = (
                ChaCha8Rng::seed_from_u64(span),
                ChaCha8Rng::seed_from_u64(span),
            );
            for _ in 0..1000 {
                assert_eq!(
                    super::draw_below(&mut a, span),
                    b.gen_range(0..span),
                    "span {span}"
                );
            }
            assert_eq!(a.next_u64(), b.next_u64(), "span {span}: one word per draw");
        }
    }
}
