//! # ssle-fabric
//!
//! The content-addressed cell cache behind the tracked reports' `--resume`
//! ([`cache`]).  A report run stores each finished cell's JSON under the
//! digest of the cell's exact spec, so an interrupted run resumes where it
//! stopped and a warm rerun executes nothing.  The crate's name and the
//! cache's `ssle-fabric/v1` tag come from the subprocess fabric it once
//! held; the tag is kept so the entries that fabric wrote stay hits.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod cache;

pub use cache::{cache_key, ResultCache, DEFAULT_CACHE_DIR};
