//! # ring-ssle
//!
//! A reproduction, as a Rust workspace, of
//! *"A Near Time-optimal Population Protocol for Self-stabilizing Leader
//! Election on Rings with a Poly-logarithmic Number of States"*
//! (Yokota, Sudo, Ooshita, Masuzawa; PODC 2023, arXiv:2305.08375).
//!
//! This umbrella crate re-exports the workspace members so that examples,
//! integration tests and downstream users can depend on a single crate:
//!
//! * [`population`] — the population-protocol simulation substrate
//!   (Section 2 of the paper): protocols, ring topologies, the uniformly
//!   random scheduler, execution, convergence measurement, fault injection
//!   and parallel batch running.
//! * [`ssle_core`] — the paper's protocol `P_PL` (Algorithms 1–5), the
//!   ring-orientation protocol `P_OR` (Algorithm 6), the two-hop-colouring
//!   substrate, and the structural machinery of Sections 3–4 (segments,
//!   perfect configurations, tokens, the safe set `S_PL`).
//! * [`ssle_baselines`] — the comparison protocols of Table 1
//!   (\[5\] Angluin et al., \[15\] Fischer–Jiang, \[28\] Yokota et al., and the
//!   Thue–Morse substrate of \[11\] Chen–Chen).
//! * [`ssle_adversary`] — the adversary engine: the scheduler zoo (weighted
//!   arc distributions, fairness-audited epoch partitions, a state-aware
//!   greedy adversary) and the worst-case stabilization search emitting
//!   reproducible certificates.
//! * [`analysis`] — statistics, asymptotic model fitting, the lottery game
//!   and table rendering used by the benchmark harness.
//!
//! The experiment harness that regenerates every table and figure lives in
//! the `ssle-bench` crate; see `EXPERIMENTS.md`.
//!
//! ## Electing a leader with a Scenario
//!
//! Experiments are declared once as a [`population::scenario::Scenario`] —
//! protocol × graph × initial condition × stop criterion × step budget — and
//! run on single sweep points or whole grids through one type-erased run
//! path:
//!
//! ```
//! use ring_ssle::prelude::*;
//! use ring_ssle::ssle_core::init;
//!
//! let scenario = ScenarioBuilder::new("quickstart", |pt: &SweepPoint| {
//!     Ppl::new(Params::for_ring(pt.n))
//! })
//! .init(|p: &Ppl, pt| init::generate(InitialCondition::UniformRandom, pt.n, p.params(), pt.seed))
//! .stop_when("s-pl", |p: &Ppl, c| in_s_pl(c, p.params()))
//! .step_budget(|_pt| 50_000_000)
//! .build()
//! .unwrap();
//!
//! // One trial ...
//! let report = scenario.run(&SweepPoint::new(16, 7));
//! assert!(report.converged());
//!
//! // ... or a parallel sweep, grouped per population size.
//! let grid = SweepGrid::new().sizes(&[8, 16]).trials(4, 7);
//! let summaries = scenario.sweep_summaries(&grid, &BatchRunner::new());
//! assert!(summaries.iter().all(|s| s.converged_fraction() == 1.0));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use analysis;
pub use population;
pub use ssle_adversary;
pub use ssle_baselines;
pub use ssle_core;

/// One-stop imports for examples and downstream users.
pub mod prelude {
    pub use analysis::{fit_models, Summary, Table};
    pub use population::prelude::*;
    pub use ssle_baselines::{AngluinModK, FischerJiang, YokotaLinear};
    pub use ssle_core::{
        in_c_dl, in_c_pb, in_s_pl, is_perfect, perfect_configuration, InitialCondition, Mode,
        Params, Ppl, PplState, Token, TokenKind,
    };
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn prelude_exposes_the_main_types() {
        let params = Params::for_ring(8);
        let _protocol = Ppl::new(params);
        let _baseline = YokotaLinear::for_ring(8);
        let ring = DirectedRing::new(8).unwrap();
        assert_eq!(ring.num_agents(), 8);
        let config = perfect_configuration(8, &params, 0, 0);
        assert!(in_s_pl(&config, &params));
    }
}
