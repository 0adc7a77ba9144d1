//! One driver for the tracked reports: `stabilization_report`,
//! `recovery_report` and `hotloop_report` are each a [`TrackedReport`]
//! implementation plus a one-line `main` calling [`main`].
//!
//! A report says *what* a grid cell is and computes — its grid, its unit
//! spec, `run_cell`, the cell and report JSON encodings, the validator and
//! the markdown table.  This module owns *how* a report is driven: the
//! command line, the run ([`run`]), the `--resume` cell cache around each
//! cell, and the write / re-read / self-validate step.
//!
//! Every cell runs through the same `run_cell` → `cell_to_json` →
//! [`TrackedReport::assemble`] path whether or not a cache is attached; the
//! cache only looks each cell up by [`ssle_fabric::cache_key`] before
//! running it and stores its JSON after.  A `--resume` report is therefore
//! byte-identical to a plain one **by construction** (pinned end-to-end by
//! `tests/resume_equivalence.rs`).  Hot-loop cells are wall-clock timings:
//! they run one at a time on the calling thread, and a resumed hot-loop
//! report reuses the timings of earlier runs.
//!
//! A unit spec carries the cell's *semantic identity* — schema, protocol,
//! graph, size and every run knob that affects the result — and nothing
//! run-local: thread counts cannot change a deterministic cell's result,
//! so they must not change its cache key.
//!
//! Every report takes the flags of one usage text (`--help`); `--threads`
//! and `--islands` only where [`TrackedReport::THREADS`] and
//! [`TrackedReport::ISLANDS`] say so.

use std::str::FromStr;

use analysis::json::JsonValue;
use population::BatchRunner;
use ssle_fabric::{cache_key, ResultCache, DEFAULT_CACHE_DIR};

use crate::trace::TraceGuard;
use crate::ProtocolKind;

/// A tracked report: a grid of deterministic (or, for the hot loop, timed)
/// cells written to one self-validated `BENCH_*.json` artifact.
pub trait TrackedReport {
    /// Binary name: the telemetry producer.
    const PRODUCER: &'static str;
    /// Heading of the stdout summary (`# TITLE (quick mode)`).
    const TITLE: &'static str;
    /// Schema tag of the artifact, embedded in every unit spec too.
    const SCHEMA: &'static str;
    /// Job kind of one grid cell, part of its cache key.
    const JOB: &'static str;
    /// Default output stem: `STEM.json`, or `STEM.quick.json` under
    /// `--quick` so a local smoke run never clobbers the committed report.
    const STEM: &'static str;
    /// Whether the report takes `--threads`.  A report without it runs its
    /// cells one at a time on the calling thread.
    const THREADS: bool;
    /// Whether the report takes `--islands`.
    const ISLANDS: bool;

    /// Knobs of one report run.
    type Options: Sync;
    /// One grid coordinate.
    type Point: Copy + Send + Sync;
    /// One measured cell.
    type Cell: Send;

    /// The tracked-grid options of the mode, with the command line's
    /// overrides (`None` keeps the default).
    fn options(quick: bool, threads: Option<usize>, islands: Option<u32>) -> Self::Options;
    /// Worker threads of a run (`None` = all cores).
    fn threads(_options: &Self::Options) -> Option<usize> {
        None
    }
    /// The grid, **in report order**.
    fn grid(options: &Self::Options) -> Vec<Self::Point>;
    /// The unit spec of one grid point (see [`point_spec`]): the content
    /// its cache key digests.
    fn unit_spec(point: Self::Point, options: &Self::Options) -> JsonValue;
    /// Measures one cell, sharding its inner stages over `runner`.
    fn run_cell(point: Self::Point, options: &Self::Options, runner: &BatchRunner) -> Self::Cell;
    /// The cell's JSON object (an element of the report's cell array).
    fn cell_to_json(cell: &Self::Cell) -> JsonValue;
    /// The report JSON around pre-serialized cells in grid order.
    fn assemble(options: &Self::Options, cells: Vec<JsonValue>) -> JsonValue;
    /// Checks a parsed artifact against [`TrackedReport::SCHEMA`].
    fn validate(json: &JsonValue) -> Result<(), String>;
    /// The human-readable markdown table of measured cells.
    fn markdown(cells: &[Self::Cell]) -> String;
    /// What a run of `cells` cells measured, for the `wrote` line.
    fn summary(options: &Self::Options, cells: usize) -> String;
    /// A line printed after the `wrote` line, derived from the artifact.
    fn closing_note(_json: &JsonValue) -> Option<String> {
        None
    }
}

/// The spec fields every report's units start with: schema, protocol,
/// graph, size and mode.  Reports append their own knobs.
pub fn point_spec<R: TrackedReport>(
    kind: ProtocolKind,
    graph: &str,
    n: usize,
    quick: bool,
) -> JsonValue {
    JsonValue::object()
        .with("schema", R::SCHEMA)
        .with("protocol", kind.key())
        .with("graph", graph)
        .with("n", n)
        .with("quick", quick)
}

/// The cache key of one grid cell.
fn cell_key<R: TrackedReport>(point: R::Point, options: &R::Options) -> String {
    cache_key(R::JOB, &R::unit_spec(point, options))
}

/// What one report run produced.
#[derive(Debug)]
pub struct Outcome {
    /// The report JSON.
    pub json: JsonValue,
    /// The markdown table of the cells; empty under a cache, whose hits
    /// exist only as JSON.
    pub markdown: String,
    /// Cells measured by this run.
    pub executed: usize,
    /// Cells answered from the cache.
    pub cached: usize,
}

/// Runs the whole grid in-process and assembles the report.  Independent
/// cells are claimed from a shared index by the report's threads, and each
/// cell's inner stages run on an inner runner sized so the *total* worker
/// count stays at the thread budget (cells × inner ≈ threads, never a
/// threads² oversubscription).  Reports without `--threads` run their
/// cells one at a time on the calling thread.
///
/// With a `cache`, each cell is first looked up by its key; a miss is
/// measured and stored *before* the cell counts as done, so a run killed
/// after k cells leaves k valid entries for the next one.
///
/// # Errors
///
/// A failed cache store; the entries stored before it stay valid.
pub fn run<R: TrackedReport>(
    options: &R::Options,
    cache: Option<&ResultCache>,
) -> Result<Outcome, String> {
    // One cell's JSON, and the measured cell unless the cache held it.
    let cell = |point: R::Point, runner: &BatchRunner| {
        let key = cache.map(|c| (c, cell_key::<R>(point, options)));
        if let Some(json) = key.as_ref().and_then(|(c, key)| c.load(key, R::JOB)) {
            return Ok((json, None));
        }
        let cell = R::run_cell(point, options, runner);
        let json = R::cell_to_json(&cell);
        if let Some((c, key)) = &key {
            c.store(key, R::JOB, &json)?;
        }
        Ok::<_, String>((json, Some(cell)))
    };
    let grid = R::grid(options);
    let cells: Vec<(JsonValue, Option<R::Cell>)> = if R::THREADS {
        let runner = R::threads(options).map_or_else(BatchRunner::new, BatchRunner::with_threads);
        // At most min(threads, cells) cell workers run at once; each gets
        // an equal share of the remaining budget.
        let threads = runner.num_threads();
        let inner = BatchRunner::with_threads((threads / threads.min(grid.len().max(1))).max(1));
        let cells = runner.run_map(&grid, |&point| cell(point, &inner));
        cells.into_iter().collect::<Result<_, _>>()?
    } else {
        let runner = BatchRunner::with_threads(1);
        grid.into_iter()
            .map(|point| cell(point, &runner))
            .collect::<Result<_, _>>()?
    };
    let (json_cells, measured): (Vec<_>, Vec<_>) = cells.into_iter().unzip();
    let measured: Vec<R::Cell> = measured.into_iter().flatten().collect();
    let (executed, cached) = (measured.len(), json_cells.len() - measured.len());
    Ok(Outcome {
        json: R::assemble(options, json_cells),
        markdown: if cache.is_none() {
            R::markdown(&measured)
        } else {
            String::new()
        },
        executed,
        cached,
    })
}

/// Parsed flags of one invocation.
#[derive(Debug, Default, PartialEq, Eq)]
struct Args {
    quick: bool,
    json: bool,
    out: Option<String>,
    threads: Option<usize>,
    islands: Option<u32>,
    resume: bool,
    cache_dir: Option<String>,
    telemetry: bool,
    telemetry_out: Option<String>,
}

/// The one usage text, with the `--threads`/`--islands` lines of the
/// reports that take them.
fn usage<R: TrackedReport>() -> String {
    let threads = if R::THREADS {
        "  --threads N    worker threads (default: all cores); never changes the output\n"
    } else {
        ""
    };
    let islands = if R::ISLANDS {
        "  --islands N    annealing islands per cell (default 4); changes the output\n"
    } else {
        ""
    };
    format!(
        "options:\n  \
         --quick        reduced budgets (CI smoke); same grid and schema\n\
         {threads}{islands}  \
         --resume       reuse cached cell results (hot-loop cells: earlier\n                 \
         timings) and cache new ones, so an interrupted run\n                 \
         resumes and a warm rerun executes zero cells; the cache\n                 \
         key names the cell, not the build, so clear the cache\n                 \
         after a change that moves a result\n  \
         --cache-dir P  with --resume: cache directory (default {cache})\n  \
         --out PATH     output file (default: {stem}.json, or\n                 \
         {stem}.quick.json under --quick so a local smoke run\n                 \
         never clobbers the committed full-mode report)\n  \
         --json         also print the JSON document to stdout\n  \
         --telemetry    write an ssle-telemetry/v1 NDJSON trace alongside the\n                 \
         report (default file: {producer}.trace.ndjson)\n  \
         --telemetry-out PATH\n                 \
         telemetry trace file (implies --telemetry)\n  \
         --help         print this message",
        cache = DEFAULT_CACHE_DIR,
        stem = R::STEM,
        producer = R::PRODUCER,
    )
}

/// A count flag's value: a number of at least 1.  Zero would silently
/// clamp to one downstream, so the degenerate request is rejected.
fn count<T: FromStr + Default + PartialOrd>(flag: &str, value: String) -> Result<T, String> {
    match value.parse::<T>() {
        Ok(v) if v > T::default() => Ok(v),
        _ => Err(format!("{flag} requires a number >= 1")),
    }
}

/// Parses the command line of report `R`.  `Ok(None)` means `--help` was
/// requested.
fn parse_args<R: TrackedReport>(
    args: impl IntoIterator<Item = String>,
) -> Result<Option<Args>, String> {
    let mut out = Args::default();
    let mut iter = args.into_iter();
    let value_of = |flag: &str, iter: &mut dyn Iterator<Item = String>| {
        iter.next()
            .ok_or_else(|| format!("{flag} requires a value"))
    };
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--quick" => out.quick = true,
            "--json" => out.json = true,
            "--resume" => out.resume = true,
            "--out" => out.out = Some(value_of("--out", &mut iter)?),
            "--cache-dir" => out.cache_dir = Some(value_of("--cache-dir", &mut iter)?),
            "--telemetry" => out.telemetry = true,
            "--telemetry-out" => {
                out.telemetry_out = Some(value_of("--telemetry-out", &mut iter)?);
                out.telemetry = true;
            }
            "--threads" if R::THREADS => {
                out.threads = Some(count("--threads", value_of("--threads", &mut iter)?)?);
            }
            "--islands" if R::ISLANDS => {
                out.islands = Some(count("--islands", value_of("--islands", &mut iter)?)?);
            }
            "--help" | "-h" => return Ok(None),
            other => return Err(format!("unknown option {other:?}")),
        }
    }
    if out.cache_dir.is_some() && !out.resume {
        return Err("--cache-dir only applies to --resume runs".to_string());
    }
    Ok(Some(out))
}

/// The whole binary of report `R`: parse the command line, run the grid
/// (through the cell cache under `--resume`), write the artifact, re-read
/// and validate it, and print the summary.  Usage errors exit 2; run,
/// cache, write and validation errors exit 1.
pub fn main<R: TrackedReport>() {
    let args = match parse_args::<R>(std::env::args().skip(1)) {
        Ok(Some(args)) => args,
        Ok(None) => {
            println!("{}", usage::<R>());
            return;
        }
        Err(message) => {
            eprintln!("error: {message}\n{}", usage::<R>());
            std::process::exit(2);
        }
    };
    if let Err(e) = write_report::<R>(&args) {
        eprintln!("error: {e}");
        std::process::exit(1);
    }
}

/// The run-and-write half of [`main`].
fn write_report<R: TrackedReport>(args: &Args) -> Result<(), String> {
    let trace = TraceGuard::start(args.telemetry, args.telemetry_out.as_deref(), R::PRODUCER)?;
    let out = args
        .out
        .clone()
        .unwrap_or_else(|| format!("{}{}.json", R::STEM, if args.quick { ".quick" } else { "" }));
    let options = R::options(args.quick, args.threads, args.islands);
    let cache = if args.resume {
        let dir = args.cache_dir.as_deref().unwrap_or(DEFAULT_CACHE_DIR);
        Some(ResultCache::open(dir)?)
    } else {
        None
    };
    let outcome = run::<R>(&options, cache.as_ref())?;
    let mut summary = R::summary(&options, outcome.executed + outcome.cached);
    if cache.is_some() {
        summary += &format!("; executed={} cached={}", outcome.executed, outcome.cached);
    }
    let text = outcome.json.to_json();
    std::fs::write(&out, &text).map_err(|e| format!("cannot write {out}: {e}"))?;

    // Self-validation: what we wrote must parse and match the schema.
    let reread = std::fs::read_to_string(&out).map_err(|e| format!("cannot re-read {out}: {e}"))?;
    let parsed =
        JsonValue::parse(&reread).map_err(|e| format!("{out} does not parse as JSON: {e}"))?;
    R::validate(&parsed).map_err(|e| format!("{out} violates the {} schema: {e}", R::SCHEMA))?;

    let mode = if args.quick { "quick" } else { "full" };
    println!("# {} ({mode} mode)\n", R::TITLE);
    if !outcome.markdown.is_empty() {
        println!("{}", outcome.markdown);
    }
    println!("wrote {out} ({summary})");
    if let Some(note) = R::closing_note(&parsed) {
        println!("{note}");
    }
    if args.json {
        println!("{text}");
    }
    trace.finish();
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{hotloop, recovery, stabilization};

    fn tiny_stabilization() -> stabilization::RunOptions {
        stabilization::RunOptions {
            quick: true,
            sizes: vec![8],
            trials: 2,
            islands: 2,
            island_iterations: 1,
            replays: 2,
            threads: Some(1),
        }
    }

    fn tiny_recovery() -> recovery::RunOptions {
        recovery::RunOptions {
            quick: true,
            sizes: vec![8],
            trials: 2,
            threads: Some(1),
        }
    }

    /// Unit specs carry the cell coordinates, and never the thread count:
    /// the cache key is thread-invariant.
    fn assert_specs_follow_the_grid<R>(options: &R::Options, two_threads: &R::Options)
    where
        R: TrackedReport<Point = (ProtocolKind, crate::stabilization::GridGraph, usize)>,
    {
        let grid = R::grid(options);
        assert_eq!(grid.len(), R::grid(two_threads).len());
        for &point in &grid {
            let (kind, graph, n) = point;
            let spec = R::unit_spec(point, options);
            let field = |name: &str| spec.get(name).and_then(JsonValue::as_str);
            assert_eq!(field("schema"), Some(R::SCHEMA));
            assert_eq!(field("protocol"), Some(kind.key()));
            assert_eq!(field("graph"), Some(graph.key()));
            assert_eq!(spec.get("n").and_then(JsonValue::as_f64), Some(n as f64));
            assert!(
                spec.get("threads").is_none(),
                "thread counts must not reach the cache key"
            );
            assert_eq!(
                cell_key::<R>(point, options),
                cell_key::<R>(point, two_threads)
            );
        }
    }

    #[test]
    fn unit_specs_follow_the_grid_and_ignore_threads() {
        let mut two = tiny_stabilization();
        two.threads = Some(2);
        assert_specs_follow_the_grid::<stabilization::Report>(&tiny_stabilization(), &two);
        let mut two = tiny_recovery();
        two.threads = Some(2);
        assert_specs_follow_the_grid::<recovery::Report>(&tiny_recovery(), &two);
    }

    #[test]
    fn hotloop_quick_and_full_cells_have_distinct_keys() {
        let point = hotloop::Report::grid(&true)[0];
        assert_eq!(hotloop::Report::grid(&false)[0], point);
        assert_ne!(
            cell_key::<hotloop::Report>(point, &true),
            cell_key::<hotloop::Report>(point, &false)
        );
    }

    /// The cache keys of each report's first and last quick-grid cell,
    /// pinned to the values the per-report unit builders produced before
    /// the reports shared one driver: existing `.fabric-cache/` entries stay
    /// valid, and the spec encoding cannot drift silently.  The spec embeds
    /// the schema tag, so the hotloop pair is that of `hotloop-bench/v2`.
    #[test]
    fn quick_grid_cache_keys_are_pinned() {
        fn ends<R: TrackedReport>() -> [String; 2] {
            let options = R::options(true, None, None);
            let grid = R::grid(&options);
            [grid[0], grid[grid.len() - 1]].map(|point| cell_key::<R>(point, &options))
        }
        assert_eq!(
            ends::<stabilization::Report>(),
            [
                "cc8959e3be665a445dcafe58155373a4",
                "e79a38938b44443afcb67f385dcac7ed"
            ]
        );
        assert_eq!(
            ends::<recovery::Report>(),
            [
                "4d3bcf94c903aaf6a2baedf784f82b05",
                "be738a3a800d551b3e631d58ac954bf6"
            ]
        );
        assert_eq!(
            ends::<hotloop::Report>(),
            [
                "32b759f3ab21d4c52035957da11ad61a",
                "f49e03a79cc3f5de2c2c6d4aef2e80aa"
            ]
        );
    }

    /// One command line parsed by the stabilization, recovery and hotloop
    /// reports, in that order.
    fn parses(line: &[&str]) -> [Result<Option<Args>, String>; 3] {
        let args = || line.iter().map(|s| s.to_string());
        [
            parse_args::<stabilization::Report>(args()),
            parse_args::<recovery::Report>(args()),
            parse_args::<hotloop::Report>(args()),
        ]
    }

    /// Every pinned command line with whether the stabilization, recovery
    /// and hotloop reports accept it.
    const LINES: &[(&[&str], [bool; 3])] = &[
        (
            &["--quick", "--json", "--threads", "4", "--islands", "2"],
            [true, false, false],
        ),
        (
            &["--quick", "--json", "--threads", "4"],
            [true, true, false],
        ),
        (&["--islands", "2"], [true, false, false]),
        (&["--quick", "--resume"], [true; 3]),
        (&["--quick", "--resume", "--cache-dir", "/tmp/c"], [true; 3]),
        (&["--cache-dir", "/tmp/c", "--resume"], [true; 3]),
        (&["--telemetry"], [true; 3]),
        (&["--telemetry-out", "t.ndjson"], [true; 3]),
        (&["--help"], [true; 3]),
        // Regression: 0 used to parse and silently clamp downstream.
        (&["--threads", "0"], [false; 3]),
        (&["--islands", "0"], [false; 3]),
        (&["--threads", "x"], [false; 3]),
        (&["--cache-dir", "/tmp/c"], [false; 3]),
        (&["--resume", "--cache-dir"], [false; 3]),
        // The deleted subprocess fabric's flags are unknown options.
        (&["--fabric", "2"], [false; 3]),
        (&["--worker"], [false; 3]),
        (&["--telemetry-out"], [false; 3]),
        (&["--unknown"], [false; 3]),
    ];

    #[test]
    fn flag_lines_parse_alike_across_the_reports() {
        for (line, accepted) in LINES {
            for (i, parsed) in parses(line).iter().enumerate() {
                assert_eq!(
                    parsed.is_ok(),
                    accepted[i],
                    "report {i}, {line:?}: {parsed:?}"
                );
            }
        }
        for parsed in parses(&["--help"]) {
            assert_eq!(parsed, Ok(None));
        }
        for parsed in parses(&["--fabric", "2"]) {
            assert_eq!(parsed, Err("unknown option \"--fabric\"".to_string()));
        }
        for parsed in parses(&["--quick", "--resume", "--cache-dir", "/tmp/c"]) {
            let args = parsed.unwrap().unwrap();
            assert!(args.quick && args.resume);
            assert_eq!(args.cache_dir.as_deref(), Some("/tmp/c"));
        }
        for parsed in parses(&["--resume"]) {
            let args = parsed.unwrap().unwrap();
            assert!(args.resume && args.cache_dir.is_none());
        }
        // --telemetry-out implies --telemetry.
        for parsed in parses(&["--telemetry"]) {
            let args = parsed.unwrap().unwrap();
            assert!(args.telemetry && args.telemetry_out.is_none());
        }
        for parsed in parses(&["--telemetry-out", "t.ndjson"]) {
            let args = parsed.unwrap().unwrap();
            assert!(args.telemetry);
            assert_eq!(args.telemetry_out.as_deref(), Some("t.ndjson"));
        }
        let [stab, ..] = parses(&["--quick", "--json", "--threads", "4", "--islands", "2"]);
        let args = stab.unwrap().unwrap();
        assert!(args.quick && args.json);
        assert_eq!((args.threads, args.islands), (Some(4), Some(2)));
        assert!(!args.resume && args.cache_dir.is_none());
    }

    #[test]
    fn the_usage_text_lists_exactly_the_accepted_flags() {
        let stab = usage::<stabilization::Report>();
        assert!(stab.contains("--threads N") && stab.contains("--islands N"));
        assert!(stab.contains("BENCH_stabilization.quick.json"));
        let rec = usage::<recovery::Report>();
        assert!(rec.contains("--threads N") && !rec.contains("--islands"));
        assert!(rec.contains("recovery_report.trace.ndjson"));
        let hot = usage::<hotloop::Report>();
        assert!(!hot.contains("--threads") && !hot.contains("--islands"));
        for text in [stab, rec, hot] {
            assert!(text.contains("--resume") && text.contains("--cache-dir P"));
            assert!(text.contains(DEFAULT_CACHE_DIR));
            assert!(!text.contains("--fabric") && !text.contains("--worker"));
        }
    }
}
