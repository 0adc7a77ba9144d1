//! The fabric's headline guarantees, pinned end-to-end against the real
//! `stabilization_report --worker` subprocess:
//!
//! 1. a `--fabric N` report is **byte-identical** to the in-process
//!    `--threads N` path;
//! 2. a worker killed mid-unit is retried on a fresh worker and the final
//!    report is *still* byte-identical;
//! 3. a warm-cache `--resume` rerun executes **zero** units and emits the
//!    identical bytes.
//!
//! The grid is shrunk to one size (`sizes = [8]`, quick budgets) so the
//! full pipeline — including the island search and rate replays inside
//! every worker subprocess — stays affordable to run several times.

use std::fs;
use std::path::{Path, PathBuf};

use ssle_bench::stabilization::{Report, RunOptions};
use ssle_bench::tracked::{run, run_fabric, FabricConfig, TrackedReport};
use ssle_fabric::{WorkerCommand, CRASH_ONCE_ENV};

fn tiny_options() -> RunOptions {
    RunOptions {
        quick: true,
        sizes: vec![8],
        trials: 2,
        islands: 2,
        island_iterations: 1,
        replays: 2,
        threads: Some(2),
    }
}

fn worker_command() -> WorkerCommand {
    WorkerCommand::new(env!("CARGO_BIN_EXE_stabilization_report")).args(&["--worker"])
}

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "ssle-bench-fabric-test-{tag}-{}",
        std::process::id()
    ));
    let _ = fs::remove_dir_all(&dir);
    dir
}

fn config(dir: &Path, resume: bool) -> FabricConfig {
    let mut config = FabricConfig::new(2, true);
    config.cache_dir = dir.to_path_buf();
    config.resume = resume;
    config
}

/// The in-process reference bytes of [`tiny_options`].
fn in_process_bytes(options: &RunOptions) -> String {
    run::<Report>(options).0.to_json()
}

#[test]
fn fabric_report_is_byte_identical_to_in_process() {
    let options = tiny_options();
    let reference = in_process_bytes(&options);
    let dir = scratch_dir("identity");
    let (json, stats) = run_fabric::<Report>(&worker_command(), &options, &config(&dir, false))
        .expect("fabric run succeeds");
    assert_eq!(
        json.to_json(),
        reference,
        "--fabric output must be byte-identical to the in-process report"
    );
    let expected_units = Report::grid(&options).len();
    assert_eq!(stats.executed, expected_units);
    assert_eq!(stats.cached, 0);
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn killed_worker_unit_is_retried_without_changing_the_report() {
    let options = tiny_options();
    let reference = in_process_bytes(&options);
    let dir = scratch_dir("crash");
    fs::create_dir_all(&dir).unwrap();
    let sentinel = dir.join("crash-once.sentinel");
    // The first worker to pick up a unit aborts before answering (exactly
    // once, enforced by the create-new sentinel); the coordinator must
    // respawn and retry without altering a byte of the final report.
    let command = worker_command().env(CRASH_ONCE_ENV, sentinel.to_str().unwrap());
    let (json, stats) = run_fabric::<Report>(&command, &options, &config(&dir, false))
        .expect("the run must survive the injected crash");
    assert!(sentinel.exists(), "the injected crash must have fired");
    assert!(
        stats.worker_restarts >= 1,
        "the killed worker must have been replaced"
    );
    assert_eq!(
        json.to_json(),
        reference,
        "a retried unit must not change the report"
    );
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn warm_cache_resume_executes_zero_units_and_is_byte_identical() {
    let options = tiny_options();
    let dir = scratch_dir("resume");

    let (cold_json, cold_stats) =
        run_fabric::<Report>(&worker_command(), &options, &config(&dir, true))
            .expect("cold run succeeds");
    let expected_units = Report::grid(&options).len();
    assert_eq!(
        (cold_stats.executed, cold_stats.cached),
        (expected_units, 0)
    );

    let (warm_json, warm_stats) =
        run_fabric::<Report>(&worker_command(), &options, &config(&dir, true))
            .expect("warm run succeeds");
    assert_eq!(
        (warm_stats.executed, warm_stats.cached),
        (0, expected_units),
        "a warm --resume rerun must execute zero units"
    );
    assert_eq!(
        warm_json.to_json(),
        cold_json.to_json(),
        "cached cells must reassemble into the identical report"
    );
    assert_eq!(warm_json.to_json(), in_process_bytes(&options));
    let _ = fs::remove_dir_all(&dir);
}
