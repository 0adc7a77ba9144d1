//! Worst-case stabilization bench report: for the four Table 1 protocols ×
//! the report grid's graphs (ring and complete at n ∈ {64, 256}; the
//! generated torus and small-world families at the smallest size), measures
//! the mean stabilization time of a random-scheduler trial pool, the worst
//! case found by the `ssle-adversary` island annealing search (over init
//! variants, seeds, scheduler-zoo parameters and mid-run crash schedules),
//! and the **adaptive** stabilization-rate curve of each worst-case
//! certificate (fraction of fresh-seed replays converged at the base
//! 1×/2×/4× budget multipliers, escalating geometrically to 8×/16× while
//! the curve stays flat 0).  Censored epoch-partition cells additionally
//! run the livelock certifier: a configuration-recurrence detection replay
//! plus a phase closure walk, recorded as the cell's `certified` field.
//! Results — including the reproducible certificates — go to
//! `BENCH_stabilization.json` (at the current directory; run from the
//! repository root).
//!
//! ```text
//! cargo run --release -p ssle-bench --bin stabilization_report
//! cargo run --release -p ssle-bench --bin stabilization_report -- --quick --threads 4 --json
//! cargo run --release -p ssle-bench --bin stabilization_report -- --quick --resume
//! ```
//!
//! Grid cells, per-cell trial pools, annealing islands and rate replays are
//! all sharded over the worker threads; the output is **bit-identical for
//! any `--threads` value** at a fixed `--islands` count (default 4; islands
//! have disjoint deterministic seed streams and a best-of merge; pinned by
//! workspace tests).  `--resume` stores every measured cell in a
//! content-addressed cache under `.fabric-cache/` and answers cached cells
//! from it, so an interrupted run picks up where it stopped and a warm
//! rerun executes zero cells; the output is byte-identical to a plain run.
//! The cache key names the cell, not the build: clear the cache after a
//! change that moves a cell's result.
//!
//! The binary is `ssle_bench::stabilization::Report` driven by
//! `ssle_bench::tracked`, which owns the flags (`--help` prints them) and
//! the self-validation: after writing, the file is re-read, parsed and
//! checked against the `stabilization-bench/v4` schema — including
//! `worst ≥ mean`, a well-formed adaptive rate curve and a consistent
//! `certified` field for every cell — exiting non-zero on any mismatch.

fn main() {
    ssle_bench::tracked::main::<ssle_bench::stabilization::Report>();
}
