//! Recovery-degradation bench report: for the four Table 1 protocols × the
//! report grid's graphs × n, replays recovery from a **safe**
//! configuration (the end state of a converged fault-free run) after a
//! transient fault — one random agent, a random quarter, a contiguous
//! block, the current leader, or the whole population — once under the
//! uniformly random scheduler and once under the **worst-case scheduler
//! certificate** the island search committed for the cell's protocol ×
//! graph in `BENCH_stabilization.json`.  The tracked metric is the
//! per-fault **degradation ratio** (hostile mean recovery steps / uniform
//! mean); censored trials are counted at the budget and flagged.  Results
//! go to `BENCH_recovery.json` (at the current directory; run from the
//! repository root).
//!
//! ```text
//! cargo run --release -p ssle-bench --bin recovery_report
//! cargo run --release -p ssle-bench --bin recovery_report -- --quick --threads 4 --json
//! cargo run --release -p ssle-bench --bin recovery_report -- --quick --resume
//! ```
//!
//! Grid cells and per-row trial pools are sharded over the worker threads;
//! the output is **bit-identical for any `--threads` value** (every trial
//! seed derives from the cell coordinates and the trial index, never from
//! scheduling order; pinned by workspace tests).  `--resume` stores every
//! measured cell in a content-addressed cache under `.fabric-cache/` and
//! answers cached cells from it, so an interrupted run picks up where it
//! stopped and a warm rerun executes zero cells; the output is
//! byte-identical to a plain run.  The cache key names the cell, not the
//! build: clear the cache after a change that moves a cell's result.
//!
//! The binary is `ssle_bench::recovery::Report` driven by
//! `ssle_bench::tracked`, which owns the flags (`--help` prints them; no
//! `--islands` here) and the self-validation: the report is written to
//! `<out>.partial`, re-read, decoded cell by cell (each derived field,
//! such as the degradation ratio, must equal its re-derivation) and
//! checked against the `recovery-bench/v2` schema — grid completeness,
//! summary ranges and censoring consistency for every cell — and only then
//! renamed onto `<out>`; on any mismatch `<out>` stays as it was and the
//! binary exits non-zero.

fn main() {
    ssle_bench::tracked::main::<ssle_bench::recovery::Report>();
}
