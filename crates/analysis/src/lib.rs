//! # analysis
//!
//! Statistics and model-fitting utilities for the experiment harness:
//!
//! * [`summary`] — descriptive statistics (mean, median, quantiles,
//!   confidence intervals) over convergence-time samples;
//! * [`fit`] — least-squares fits of `T(n) = c · n^a · (log n)^b` on log-log
//!   scale, used to compare the measured scaling of each protocol against the
//!   bounds claimed in Table 1;
//! * [`lottery`] — the lottery game of Definition 3.8 and Monte-Carlo checks
//!   of the tail bounds of Lemmas 3.9 and 3.10;
//! * [`table`] — plain-text/markdown table rendering for the experiment
//!   binaries;
//! * [`series`] — `(n, value)` data series with CSV export;
//! * [`json`] — a minimal JSON value/emitter/parser used for the binaries'
//!   machine-readable `--json` output (the offline build cannot use
//!   `serde_json`);
//! * [`digest`] — canonical-JSON content digests (128-bit FNV-1a), the
//!   keys of the tracked reports' `--resume` cell cache (`ssle-fabric`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod digest;
pub mod fit;
pub mod json;
pub mod lottery;
pub mod series;
pub mod summary;
pub mod table;

pub use digest::{canonical_json, content_digest};
pub use fit::{fit_models, fit_power_law, FitResult, ScalingModel};
pub use json::JsonValue;
pub use lottery::LotteryGame;
pub use series::Series;
pub use summary::Summary;
pub use table::Table;
