//! `--resume`'s headline guarantees, pinned end-to-end against the real
//! stabilization report:
//!
//! 1. a cold `--resume` run into an empty cache executes every cell and is
//!    **byte-identical** to the plain run;
//! 2. an interrupted run (half the entries missing, a stray
//!    `*.partial.json` left behind) executes exactly the missing cells and
//!    emits the identical bytes;
//! 3. a warm rerun executes **zero** cells and emits the identical bytes
//!    and the identical markdown table;
//! 4. a corrupted entry — truncated, foreign, or with a `result` that does
//!    not decode to a cell — is recomputed, not trusted and not a panic.
//!
//! The grid is shrunk to one size (`sizes = [8]`, quick budgets) so the
//! full pipeline — including the island search and rate replays of every
//! cell — stays affordable to run several times.

use std::fs;
use std::path::{Path, PathBuf};

use ssle_bench::stabilization::{Report, RunOptions};
use ssle_bench::tracked::{run, Outcome, TrackedReport};
use ssle_fabric::ResultCache;

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

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "ssle-bench-resume-test-{tag}-{}",
        std::process::id()
    ));
    let _ = fs::remove_dir_all(&dir);
    dir
}

/// The plain (cache-free) run of [`tiny_options`].
fn plain(options: &RunOptions) -> Outcome {
    run::<Report>(options, None).unwrap()
}

/// One `--resume` run into `dir`.
fn resume(options: &RunOptions, dir: &Path) -> Outcome {
    let cache = ResultCache::open(dir).expect("cache opens");
    run::<Report>(options, Some(&cache)).expect("resume run succeeds")
}

/// The stored entries (`<key>.json`, partials excluded), sorted.
fn entries(dir: &Path) -> Vec<PathBuf> {
    let mut paths: Vec<PathBuf> = fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| !p.to_string_lossy().ends_with(".partial.json"))
        .collect();
    paths.sort();
    paths
}

#[test]
fn cold_interrupted_and_warm_resumes_are_byte_identical() {
    let options = tiny_options();
    let plain = plain(&options);
    let reference = plain.json.to_json();
    let cells = Report::grid(&options).len();
    let dir = scratch_dir("sequence");

    let cold = resume(&options, &dir);
    assert_eq!((cold.executed, cold.cached), (cells, 0));
    assert_eq!(
        cold.json.to_json(),
        reference,
        "a cold --resume run must be byte-identical to the plain run"
    );
    assert_eq!(entries(&dir).len(), cells, "every cell is stored");

    // Interrupt: drop every other entry, and leave a torn write behind
    // for one of the dropped cells.
    let dropped: Vec<PathBuf> = entries(&dir).into_iter().step_by(2).collect();
    for path in &dropped {
        fs::remove_file(path).unwrap();
    }
    let stray = dropped[0].with_extension("partial.json");
    fs::write(&stray, "{\"schema\":\"ssle-fabric/v1\",\"key\":").unwrap();
    let resumed = resume(&options, &dir);
    assert_eq!(
        (resumed.executed, resumed.cached),
        (dropped.len(), cells - dropped.len()),
        "an interrupted run re-executes exactly the missing cells"
    );
    assert_eq!(resumed.json.to_json(), reference);
    assert!(!stray.exists(), "the re-executed cell replaced the stray");
    assert_eq!(entries(&dir).len(), cells);

    let warm = resume(&options, &dir);
    assert_eq!(
        (warm.executed, warm.cached),
        (0, cells),
        "a warm --resume rerun must execute zero cells"
    );
    assert_eq!(
        warm.markdown, plain.markdown,
        "cached cells are typed cells: the same markdown table"
    );
    assert_eq!(
        warm.json.to_json(),
        reference,
        "cached cells must reassemble into the identical report"
    );
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn corrupted_entries_are_recomputed_without_changing_the_report() {
    let options = tiny_options();
    let dir = scratch_dir("corrupt");
    let reference = plain(&options).json.to_json();
    assert_eq!(resume(&options, &dir).json.to_json(), reference);

    let stored = entries(&dir);
    let text = |i: usize| fs::read_to_string(&stored[i]).unwrap();
    let truncated = text(0)[..text(0).len() / 2].to_string();
    fs::write(&stored[0], truncated).unwrap();
    let foreign = text(1).replace("ssle-fabric/v1", "ssle-fabric/v0");
    fs::write(&stored[1], foreign).unwrap();
    // The envelope stays intact; one field of the stored cell is renamed.
    let renamed = text(2).replacen("\"mean_steps\"", "\"mean_stepz\"", 1);
    assert_ne!(renamed, text(2));
    fs::write(&stored[2], renamed).unwrap();
    let rerun = resume(&options, &dir);
    assert_eq!(
        (rerun.executed, rerun.cached),
        (3, stored.len() - 3),
        "a truncated, a foreign-schema and an undecodable entry are misses"
    );
    assert_eq!(rerun.json.to_json(), reference);
    let _ = fs::remove_dir_all(&dir);
}
