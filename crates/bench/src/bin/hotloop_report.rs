//! Hot-loop bench report: measures the erased run path's steps/second for
//! the four Table 1 protocols × {ring, complete} × n ∈ {256, 4096} and
//! writes the results to `BENCH_hotloop.json` (at the current directory —
//! run from the repository root) so later changes have a perf trajectory.
//!
//! ```text
//! cargo run --release -p ssle-bench --bin hotloop_report
//! cargo run --release -p ssle-bench --bin hotloop_report -- --quick --json
//! cargo run --release -p ssle-bench --bin hotloop_report -- --quick --resume
//! ```
//!
//! Cases are wall-clock timings, so they run one at a time on the calling
//! thread (no `--threads`, no `--islands`).  `--resume` stores every
//! measured case in a content-addressed cache under `.fabric-cache/` and
//! answers cached cases from it, so an interrupted measurement campaign
//! resumes; a resumed report *reuses earlier timings*, whatever build took
//! them, so clear the cache to measure a change.
//!
//! The binary is `ssle_bench::hotloop::Report` driven by
//! `ssle_bench::tracked`, which owns the flags (`--help` prints them) and
//! the self-validation against the `hotloop-bench/v2` schema before the
//! report replaces `<out>`, exiting non-zero on any mismatch.

fn main() {
    ssle_bench::tracked::main::<ssle_bench::hotloop::Report>();
}
