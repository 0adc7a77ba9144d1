//! # ssle-core
//!
//! A faithful Rust implementation of the protocol `P_PL` from
//! *"A Near Time-optimal Population Protocol for Self-stabilizing Leader
//! Election on Rings with a Poly-logarithmic Number of States"*
//! (Yokota, Sudo, Ooshita, Masuzawa; PODC 2023, arXiv:2305.08375), together
//! with the self-stabilizing ring-orientation protocol `P_OR` of Section 5
//! and the two-hop-colouring substrate it relies on.
//!
//! ## What is implemented
//!
//! * [`Ppl`] — the protocol `P_PL` (Algorithm 1), composed of
//!   `CreateLeader()` (Algorithm 2), `DetermineMode()` (Algorithm 4),
//!   `MoveToken()` (Algorithm 3) and `EliminateLeaders()` (Algorithm 5).
//!   Given the knowledge `ψ = ⌈log₂ n⌉ + O(1)` it elects a unique leader on
//!   any directed ring within `O(n² log n)` steps w.h.p. from any initial
//!   configuration, using `polylog(n)` states per agent (Theorem 3.1).
//! * [`segments`] / [`safety`] — the structural machinery of Sections 3.1
//!   and 4.1: segments, segment IDs, perfect configurations, peaceful
//!   bullets, and the safe-configuration set `S_PL` used to measure
//!   convergence times.
//! * [`orientation`] — `P_OR` (Algorithm 6), the constant-state
//!   self-stabilizing ring-orientation protocol, and [`coloring`], the
//!   two-hop colouring substrate (the paper defers the latter to prior work;
//!   see `DESIGN.md` for the substitution notes).
//! * [`init`] — adversarial initial-configuration families for
//!   self-stabilization experiments.
//!
//! ## Quick start
//!
//! ```
//! use population::{Configuration, DirectedRing, Simulation};
//! use ssle_core::{in_s_pl, InitialCondition, Params, Ppl};
//!
//! let n = 12;
//! let params = Params::for_ring(n);
//! let config = ssle_core::init::generate(InitialCondition::AllLeaders, n, &params, 1);
//! let mut sim = Simulation::new(Ppl::new(params), DirectedRing::new(n).unwrap(), config, 1);
//! let report = sim.run_until(
//!     |_p, c| in_s_pl(c, &params),
//!     (n * n) as u64,
//!     100_000_000,
//! );
//! assert!(report.converged());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod coloring;
pub mod composed;
pub mod create;
pub mod init;
pub mod orientation;
pub mod params;
pub mod protocol;
pub mod safety;
pub mod segments;
pub mod state;
pub mod tokens;

pub use init::InitialCondition;
pub use params::Params;
pub use protocol::Ppl;
pub use safety::{in_c_dl, in_c_pb, in_s_pl};
pub use segments::{is_perfect, perfect_configuration};
pub use state::{Mode, PplState, Token, TokenKind};
