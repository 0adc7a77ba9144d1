//! Convergence reports.
//!
//! Self-stabilization is defined via *safe configurations* (Definition 2.1):
//! the convergence time of a run is the number of steps until the first safe
//! configuration.  Protocol crates provide structural checkers for their safe
//! sets (e.g. `S_PL` for the paper's protocol), which runs take as stop
//! predicates; this module holds the [`ConvergenceReport`] those runs return.

use std::borrow::Cow;

use serde::{Deserialize, Serialize};

/// The result of a convergence-measurement run.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct ConvergenceReport {
    /// Step at which the criterion was first observed satisfied, if it was.
    pub converged_at: Option<u64>,
    /// Total number of steps executed by the measurement run.
    pub steps_executed: u64,
    /// The step budget of the run.
    pub max_steps: u64,
    /// How often (in steps) the criterion was evaluated.
    pub check_interval: u64,
    /// Name of the criterion that was checked.
    ///
    /// A `Cow` so the engine's internal runs can use the static placeholder
    /// `"predicate"` without allocating a fresh `String` per
    /// [`crate::simulation::Simulation::run_until`] invocation; named
    /// callers overwrite it once with the final (owned) name.
    pub criterion: Cow<'static, str>,
}

impl ConvergenceReport {
    /// Returns `true` if the criterion was satisfied within the budget.
    pub fn converged(&self) -> bool {
        self.converged_at.is_some()
    }

    /// The measured convergence step.
    ///
    /// # Panics
    ///
    /// Panics if the run did not converge; check [`ConvergenceReport::converged`]
    /// first or use `converged_at` directly.
    pub fn convergence_step(&self) -> u64 {
        self.converged_at
            .expect("run did not converge within the step budget")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_accessors() {
        let r = ConvergenceReport {
            converged_at: Some(500),
            steps_executed: 700,
            max_steps: 1000,
            check_interval: 10,
            criterion: "x".into(),
        };
        assert!(r.converged());
        assert_eq!(r.convergence_step(), 500);

        let nr = ConvergenceReport {
            converged_at: None,
            steps_executed: 1000,
            max_steps: 1000,
            check_interval: 10,
            criterion: "x".into(),
        };
        assert!(!nr.converged());
    }

    #[test]
    #[should_panic(expected = "did not converge")]
    fn convergence_step_panics_when_not_converged() {
        let nr = ConvergenceReport {
            converged_at: None,
            steps_executed: 10,
            max_steps: 10,
            check_interval: 1,
            criterion: "x".into(),
        };
        nr.convergence_step();
    }
}
