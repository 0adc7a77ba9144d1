//! Hot-loop bench report: measures the erased run path's steps/second for
//! the four Table 1 protocols × {ring, complete} × n ∈ {256, 4096}, with
//! telemetry off and on, and writes the results to `BENCH_hotloop.json`
//! (at the current directory — run from the repository root) so later
//! changes have a perf trajectory.  On a 2-core x86-64 host full mode
//! takes about 100 s (16 cases × 3 samples × 2 modes × 1 s) and `--quick`
//! about 7 s.  CI gates the quick report's telemetry overhead on the
//! `ppl`/ring cases at 20 %.
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
//! the self-validation against the `hotloop-bench/v3` schema before the
//! report replaces `<out>`, exiting non-zero on any mismatch.

fn main() {
    ssle_bench::tracked::main::<ssle_bench::hotloop::Report>();
}
