//! One driver for the tracked reports: `stabilization_report`,
//! `recovery_report` and `hotloop_report` are each a [`TrackedReport`]
//! implementation plus a one-line `main` calling [`main`].
//!
//! A report says *what* a grid cell is and computes — its grid, its unit
//! spec, `run_cell`, the cell and report JSON encodings, the validator and
//! the markdown table.  This module owns *how* a report is driven: the
//! command line, the in-process run ([`run`]), the distributed run across
//! `ssle-fabric` worker subprocesses ([`units`], [`handler`],
//! [`run_fabric`]), and the write / re-read / self-validate step.
//!
//! Both paths execute the identical per-cell code and plug the identical
//! cell encodings into the identical [`TrackedReport::assemble`] shell, and
//! the coordinator merges results in submission order — so a `--fabric N`
//! report is byte-identical to the in-process one **by construction**
//! (pinned end-to-end by `tests/fabric_equivalence.rs`).  Hot-loop cells
//! are wall-clock timings: they run one at a time on the calling thread,
//! and a distributed run is schema-identical, not byte-identical.
//!
//! A unit spec carries the cell's *semantic identity* — schema, protocol,
//! graph, size and every run knob that affects the result — and nothing
//! run-local: thread counts, timeouts and worker counts cannot change a
//! deterministic cell's result, so they must not change its cache key.
//!
//! Every report takes the flags of one usage text (`--help`); `--threads`
//! and `--islands` only where [`TrackedReport::THREADS`] and
//! [`TrackedReport::ISLANDS`] say so.

use std::path::PathBuf;
use std::str::FromStr;
use std::time::Duration;

use analysis::json::JsonValue;
use population::BatchRunner;
use ssle_fabric::{
    run_units, worker_loop, CoordinatorOptions, ResultCache, WorkError, WorkUnit, WorkerCommand,
};

use crate::trace::TraceGuard;
use crate::ProtocolKind;

/// A tracked report: a grid of deterministic (or, for the hot loop, timed)
/// cells written to one self-validated `BENCH_*.json` artifact.
pub trait TrackedReport {
    /// Binary name: the telemetry producer and the worker's error prefix.
    const PRODUCER: &'static str;
    /// Heading of the stdout summary (`# TITLE (quick mode)`).
    const TITLE: &'static str;
    /// Schema tag of the artifact, embedded in every unit spec too.
    const SCHEMA: &'static str;
    /// Fabric job kind of one grid cell.
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
    /// Worker threads of an in-process run (`None` = all cores).
    fn threads(_options: &Self::Options) -> Option<usize> {
        None
    }
    /// The grid, **in report order**.
    fn grid(options: &Self::Options) -> Vec<Self::Point>;
    /// The unit spec of one grid point (see [`point_spec`]).
    fn unit_spec(point: Self::Point, options: &Self::Options) -> JsonValue;
    /// Rebuilds a point and its options from a unit spec whose job and
    /// schema are already checked; `threads` is the worker's inner thread
    /// count.
    fn from_spec(spec: Spec<'_>, threads: usize)
        -> Result<(Self::Point, Self::Options), WorkError>;
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
    /// What an in-process run of `cells` cells measured, for the `wrote`
    /// line.
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

/// Typed reads of one unit spec: every missing or malformed field is a
/// [`WorkError::BadSpec`], never a panic.
#[derive(Clone, Copy, Debug)]
pub struct Spec<'a>(pub &'a JsonValue);

fn bad_spec(detail: String) -> WorkError {
    WorkError::BadSpec { detail }
}

impl Spec<'_> {
    /// An exact small unsigned integer.  Spec values are far below 2⁵³, so
    /// they travel as plain JSON numbers; fractions and negatives are
    /// rejected, not truncated.
    pub fn uint(self, name: &str) -> Result<usize, WorkError> {
        let x = self
            .0
            .get(name)
            .and_then(JsonValue::as_f64)
            .ok_or_else(|| bad_spec(format!("{name} missing or not a number")))?;
        if x.is_finite() && x.fract() == 0.0 && x >= 0.0 && x <= u32::MAX as f64 {
            Ok(x as usize)
        } else {
            Err(bad_spec(format!(
                "{name} is not an exact small unsigned integer: {x}"
            )))
        }
    }

    /// [`Spec::uint`] that must be at least 1: a pool size or shard count
    /// the cell divides by or shards over.
    pub fn count(self, name: &str) -> Result<usize, WorkError> {
        match self.uint(name)? {
            0 => Err(bad_spec(format!("{name} must be at least 1"))),
            x => Ok(x),
        }
    }

    /// A boolean field.
    pub fn flag(self, name: &str) -> Result<bool, WorkError> {
        self.0
            .get(name)
            .and_then(JsonValue::as_bool)
            .ok_or_else(|| bad_spec(format!("{name} missing or not a boolean")))
    }

    /// The grid point written by [`point_spec`]: protocol, graph (looked up
    /// by its key) and a size of at least the model's minimum of 2.
    pub fn point<G>(
        self,
        graph_from_key: impl Fn(&str) -> Option<G>,
    ) -> Result<(ProtocolKind, G, usize), WorkError> {
        let key = |name: &str| self.0.get(name).and_then(JsonValue::as_str);
        let protocol = key("protocol")
            .and_then(|k| ProtocolKind::ALL.into_iter().find(|p| p.key() == k))
            .ok_or_else(|| bad_spec("protocol missing or unknown".to_string()))?;
        let graph = key("graph")
            .and_then(graph_from_key)
            .ok_or_else(|| bad_spec("graph missing or unknown".to_string()))?;
        match self.uint("n")? {
            n if n < 2 => Err(bad_spec(format!(
                "population size {n} is below the model's minimum of 2"
            ))),
            n => Ok((protocol, graph, n)),
        }
    }
}

/// Runs the whole grid in-process and returns the report JSON and its
/// markdown table.  Independent cells are sharded over the report's
/// threads, and each cell's inner stages over an inner runner sized so the
/// *total* worker count stays at the thread budget (cells × inner ≈
/// threads, never a threads² oversubscription).  Reports without
/// `--threads` run their cells one at a time on the calling thread.
pub fn run<R: TrackedReport>(options: &R::Options) -> (JsonValue, String) {
    let grid = R::grid(options);
    let cells: Vec<R::Cell> = if R::THREADS {
        let runner = R::threads(options).map_or_else(BatchRunner::new, BatchRunner::with_threads);
        // At most min(threads, cells) cell workers run at once; each gets
        // an equal share of the remaining budget.
        let threads = runner.num_threads();
        let inner = BatchRunner::with_threads((threads / threads.min(grid.len().max(1))).max(1));
        runner.run_map(&grid, |&point| R::run_cell(point, options, &inner))
    } else {
        let runner = BatchRunner::with_threads(1);
        grid.into_iter()
            .map(|point| R::run_cell(point, options, &runner))
            .collect()
    };
    let json = R::assemble(options, cells.iter().map(R::cell_to_json).collect());
    (json, R::markdown(&cells))
}

/// The grid as work units, in [`TrackedReport::grid`] (= report) order.
pub fn units<R: TrackedReport>(options: &R::Options) -> Vec<WorkUnit> {
    R::grid(options)
        .into_iter()
        .enumerate()
        .map(|(i, point)| WorkUnit::new(i as u64, R::JOB, R::unit_spec(point, options)))
        .collect()
}

/// The worker-side handler: rejects foreign jobs, other schema versions
/// and malformed specs with typed [`WorkError`]s, runs the cell on an
/// inner runner of `threads` workers, and returns exactly the bytes the
/// in-process report emits for it.
pub fn handler<R: TrackedReport>(
    threads: usize,
) -> impl Fn(&str, &JsonValue) -> Result<JsonValue, WorkError> {
    move |job, spec| {
        if job != R::JOB {
            return Err(WorkError::UnknownJob { job: job.into() });
        }
        match spec.get("schema").and_then(JsonValue::as_str) {
            Some(got) if got == R::SCHEMA => {}
            got => {
                return Err(WorkError::SchemaMismatch {
                    requested: got.unwrap_or("<missing>").to_string(),
                    supported: R::SCHEMA.to_string(),
                })
            }
        }
        let (point, options) = R::from_spec(Spec(spec), threads)?;
        let runner = BatchRunner::with_threads(threads.max(1));
        Ok(R::cell_to_json(&R::run_cell(point, &options, &runner)))
    }
}

/// Coordinator-side knobs of a `--fabric N` run.
#[derive(Debug, Clone)]
pub struct FabricConfig {
    /// Worker subprocesses (`--fabric N`, at least 1).
    pub workers: usize,
    /// Reuse cached results (`--resume`); without it the cache is
    /// write-only.
    pub resume: bool,
    /// Cache/journal directory (default [`ssle_fabric::DEFAULT_CACHE_DIR`]).
    pub cache_dir: PathBuf,
    /// Per-unit wall-clock budget before a worker is killed and the unit
    /// retried.
    pub unit_timeout: Duration,
}

impl FabricConfig {
    /// Defaults for the given pool size and mode: the standard cache
    /// directory, and a per-unit timeout generous enough that only a
    /// genuinely wedged worker trips it (full-mode stabilization cells run
    /// minutes, not hours).
    pub fn new(workers: usize, quick: bool) -> Self {
        FabricConfig {
            workers: workers.max(1),
            resume: false,
            cache_dir: PathBuf::from(ssle_fabric::DEFAULT_CACHE_DIR),
            unit_timeout: Duration::from_secs(if quick { 600 } else { 3600 }),
        }
    }
}

/// What a fabric run did, for the `wrote` line (and the CI smoke's
/// `executed=0` warm-cache assertion).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FabricStats {
    /// Units executed by workers this run.
    pub executed: usize,
    /// Units answered from the cache.
    pub cached: usize,
    /// Worker subprocesses respawned after crashes/timeouts.
    pub worker_restarts: usize,
}

impl std::fmt::Display for FabricStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "executed={} cached={} worker_restarts={}",
            self.executed, self.cached, self.worker_restarts
        )
    }
}

/// Runs the grid through a pool of `command` workers and assembles the
/// report JSON — byte-identical to [`run`]'s for deterministic reports.
/// Per-unit failures are flattened into one message naming every failed
/// cell (the grids are small; listing beats truncating).
pub fn run_fabric<R: TrackedReport>(
    command: &WorkerCommand,
    options: &R::Options,
    config: &FabricConfig,
) -> Result<(JsonValue, FabricStats), String> {
    let units = units::<R>(options);
    let mut coordinator = CoordinatorOptions::new(config.workers);
    coordinator.unit_timeout = config.unit_timeout;
    coordinator.cache = Some(ResultCache::open(&config.cache_dir).map_err(|e| e.to_string())?);
    coordinator.reuse_cached = config.resume;
    let outcome =
        run_units(command, &units, &coordinator).map_err(|e| format!("fabric run failed: {e}"))?;
    let stats = FabricStats {
        executed: outcome.executed,
        cached: outcome.cached,
        worker_restarts: outcome.worker_restarts,
    };
    let failures = outcome.failures();
    if !failures.is_empty() {
        let listed: Vec<String> = failures
            .iter()
            .map(|(i, e)| format!("unit {i} ({}): {e}", units[*i].spec.to_json()))
            .collect();
        return Err(format!(
            "{} of {} units failed after retries:\n  {}",
            failures.len(),
            units.len(),
            listed.join("\n  ")
        ));
    }
    let cells = outcome
        .into_payloads()
        .map_err(|(i, e)| format!("unit {i}: {e}"))?;
    Ok((R::assemble(options, cells), stats))
}

/// Parsed flags of one invocation.
#[derive(Debug, Default, PartialEq, Eq)]
struct Args {
    quick: bool,
    json: bool,
    out: Option<String>,
    threads: Option<usize>,
    islands: Option<u32>,
    worker: bool,
    fabric: Option<usize>,
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
         --fabric N     run the grid across N worker subprocesses (coordinator mode)\n  \
         --resume       with --fabric: reuse cached cell results (warm reruns execute\n                 \
         zero units)\n  \
         --cache-dir P  with --fabric: result-cache directory (default .fabric-cache)\n  \
         --worker       run as a fabric worker: read work units on stdin, write\n                 \
         results on stdout (used by --fabric)\n  \
         --out PATH     output file (default: {stem}.json, or\n                 \
         {stem}.quick.json under --quick so a local smoke run\n                 \
         never clobbers the committed full-mode report)\n  \
         --json         also print the JSON document to stdout\n  \
         --telemetry    write an ssle-telemetry/v1 NDJSON trace alongside the\n                 \
         report (default file: {producer}.trace.ndjson)\n  \
         --telemetry-out PATH\n                 \
         telemetry trace file (implies --telemetry)\n  \
         --help         print this message",
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
            "--worker" => out.worker = true,
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
            "--fabric" => out.fabric = Some(count("--fabric", value_of("--fabric", &mut iter)?)?),
            "--help" | "-h" => return Ok(None),
            other => return Err(format!("unknown option {other:?}")),
        }
    }
    if out.worker && (out.fabric.is_some() || out.json || out.out.is_some() || out.telemetry) {
        return Err("--worker is a pure stdin/stdout mode".to_string());
    }
    if out.resume && out.fabric.is_none() {
        return Err("--resume only applies to --fabric runs".to_string());
    }
    if out.cache_dir.is_some() && out.fabric.is_none() {
        return Err("--cache-dir only applies to --fabric runs".to_string());
    }
    Ok(Some(out))
}

/// The whole binary of report `R`: parse the command line, then either
/// serve as a fabric worker or run the grid (in-process or across
/// `--fabric N` workers), write the artifact, re-read and validate it, and
/// print the summary.  Usage errors exit 2; run, write and validation
/// errors exit 1.
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
    if args.worker {
        // Speak the line protocol until EOF.  The unit specs carry every
        // semantic knob; only the inner thread count is local.
        let stdin = std::io::stdin();
        let stdout = std::io::stdout();
        let handler = handler::<R>(args.threads.unwrap_or(1));
        if let Err(e) = worker_loop(stdin.lock(), stdout.lock(), handler) {
            eprintln!("{} --worker: {e}", R::PRODUCER);
            std::process::exit(2);
        }
        return;
    }
    if let Err(e) = write_report::<R>(&args) {
        eprintln!("error: {e}");
        std::process::exit(1);
    }
}

/// The coordinator half of [`main`].
fn write_report<R: TrackedReport>(args: &Args) -> Result<(), String> {
    let trace = TraceGuard::start(args.telemetry, args.telemetry_out.as_deref(), R::PRODUCER)?;
    let out = args
        .out
        .clone()
        .unwrap_or_else(|| format!("{}{}.json", R::STEM, if args.quick { ".quick" } else { "" }));
    let options = R::options(args.quick, args.threads, args.islands);
    let (json, markdown, summary) = match args.fabric {
        None => {
            let (json, markdown) = run::<R>(&options);
            let summary = R::summary(&options, R::grid(&options).len());
            (json, markdown, summary)
        }
        Some(workers) => {
            let mut config = FabricConfig::new(workers, args.quick);
            config.resume = args.resume;
            if let Some(dir) = &args.cache_dir {
                config.cache_dir = dir.into();
            }
            // Each worker subprocess inherits the requested inner thread
            // count (default 1: the subprocesses are the parallelism).
            let inner = args.threads.unwrap_or(1).to_string();
            let worker_args: &[&str] = if R::THREADS {
                &["--worker", "--threads", &inner]
            } else {
                &["--worker"]
            };
            let command = WorkerCommand::current_exe(worker_args).map_err(|e| e.to_string())?;
            let (json, stats) = run_fabric::<R>(&command, &options, &config)?;
            (
                json,
                String::new(),
                format!("fabric: workers={workers} {stats}"),
            )
        }
    };
    let text = json.to_json();
    std::fs::write(&out, &text).map_err(|e| format!("cannot write {out}: {e}"))?;

    // Self-validation: what we wrote must parse and match the schema.
    let reread = std::fs::read_to_string(&out).map_err(|e| format!("cannot re-read {out}: {e}"))?;
    let parsed =
        JsonValue::parse(&reread).map_err(|e| format!("{out} does not parse as JSON: {e}"))?;
    R::validate(&parsed).map_err(|e| format!("{out} violates the {} schema: {e}", R::SCHEMA))?;

    let mode = if args.quick { "quick" } else { "full" };
    println!("# {} ({mode} mode)\n", R::TITLE);
    if !markdown.is_empty() {
        println!("{markdown}");
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

    /// Units follow the grid (= report) order, carry the cell coordinates,
    /// and never the thread count: the cache key is thread-invariant.
    fn assert_units_follow_the_grid<R>(options: &R::Options, two_threads: &R::Options)
    where
        R: TrackedReport<Point = (ProtocolKind, crate::stabilization::GridGraph, usize)>,
    {
        let built = units::<R>(options);
        let grid = R::grid(options);
        assert_eq!(built.len(), grid.len());
        for (i, (unit, (kind, graph, n))) in built.iter().zip(&grid).enumerate() {
            assert_eq!(unit.seq, i as u64);
            assert_eq!(unit.job, R::JOB);
            assert_eq!(
                unit.spec.get("schema").and_then(JsonValue::as_str),
                Some(R::SCHEMA)
            );
            assert_eq!(
                unit.spec.get("protocol").and_then(JsonValue::as_str),
                Some(kind.key())
            );
            assert_eq!(
                unit.spec.get("graph").and_then(JsonValue::as_str),
                Some(graph.key())
            );
            assert_eq!(
                unit.spec.get("n").and_then(JsonValue::as_f64),
                Some(*n as f64)
            );
            assert!(
                unit.spec.get("threads").is_none(),
                "thread counts must not reach the cache key"
            );
        }
        for (a, b) in built.iter().zip(&units::<R>(two_threads)) {
            assert_eq!(a.cache_key(), b.cache_key());
        }
    }

    #[test]
    fn units_follow_report_order_and_ignore_threads() {
        let mut two = tiny_stabilization();
        two.threads = Some(2);
        assert_units_follow_the_grid::<stabilization::Report>(&tiny_stabilization(), &two);
        let mut two = tiny_recovery();
        two.threads = Some(2);
        assert_units_follow_the_grid::<recovery::Report>(&tiny_recovery(), &two);
    }

    /// The worker payload is byte-identical to the in-process cell.
    fn assert_handler_matches_in_process<R: TrackedReport>(options: &R::Options) {
        let unit = &units::<R>(options)[0];
        let payload = handler::<R>(1)(&unit.job, &unit.spec).expect("cell runs");
        let point = R::grid(options)[0];
        let direct = R::cell_to_json(&R::run_cell(point, options, &BatchRunner::with_threads(1)));
        assert_eq!(payload.to_json(), direct.to_json());
    }

    #[test]
    fn handler_runs_a_cell_to_the_exact_report_encoding() {
        assert_handler_matches_in_process::<stabilization::Report>(&tiny_stabilization());
        assert_handler_matches_in_process::<recovery::Report>(&tiny_recovery());
    }

    fn assert_bad_spec<R: TrackedReport>(spec: &JsonValue) {
        match handler::<R>(1)(R::JOB, spec) {
            Err(WorkError::BadSpec { .. }) => {}
            other => panic!("{}: expected BadSpec, got {other:?}", R::PRODUCER),
        }
    }

    fn assert_typed_rejections<R: TrackedReport>(graph: &str) {
        let handler = handler::<R>(1);
        assert!(matches!(
            handler("other-job", &JsonValue::Null),
            Err(WorkError::UnknownJob { .. })
        ));
        match handler(R::JOB, &JsonValue::object().with("schema", "x/v0")) {
            Err(WorkError::SchemaMismatch {
                requested,
                supported,
            }) => {
                assert_eq!(requested, "x/v0");
                assert_eq!(supported, R::SCHEMA);
            }
            other => panic!("expected SchemaMismatch, got {other:?}"),
        }
        let spec = |protocol: &str, n: f64| {
            JsonValue::object()
                .with("schema", R::SCHEMA)
                .with("protocol", protocol)
                .with("graph", graph)
                .with("n", n)
                .with("quick", true)
        };
        assert_bad_spec::<R>(&spec("no-such-protocol", 8.0));
        assert_bad_spec::<R>(&spec("ppl", 2.5));
        assert_bad_spec::<R>(&spec("ppl", -8.0));
        assert_bad_spec::<R>(&point_spec::<R>(
            ProtocolKind::Ppl,
            "no-such-graph",
            8,
            true,
        ));
        assert_bad_spec::<R>(&point_spec::<R>(ProtocolKind::Ppl, graph, 1, true));
    }

    #[test]
    fn handlers_reject_bad_units_with_typed_errors() {
        assert_typed_rejections::<stabilization::Report>("ring");
        assert_typed_rejections::<recovery::Report>("ring");
        assert_typed_rejections::<hotloop::Report>("complete");
    }

    #[test]
    fn zero_stabilization_trials_are_a_bad_spec() {
        let mut options = tiny_stabilization();
        options.trials = 0;
        assert_bad_spec::<stabilization::Report>(&units::<stabilization::Report>(&options)[0].spec);
    }

    #[test]
    fn zero_stabilization_islands_are_a_bad_spec() {
        let mut options = tiny_stabilization();
        options.islands = 0;
        assert_bad_spec::<stabilization::Report>(&units::<stabilization::Report>(&options)[0].spec);
    }

    #[test]
    fn zero_recovery_trials_are_a_bad_spec() {
        let mut options = tiny_recovery();
        options.trials = 0;
        assert_bad_spec::<recovery::Report>(&units::<recovery::Report>(&options)[0].spec);
    }

    #[test]
    fn hotloop_units_cover_the_grid() {
        let quick = units::<hotloop::Report>(&true);
        assert_eq!(quick.len(), hotloop::Report::grid(&true).len());
        assert!(quick.iter().all(|u| u.job == hotloop::Report::JOB));
        // Quick and full grids are distinct cache populations.
        let full = units::<hotloop::Report>(&false);
        assert_ne!(quick[0].cache_key(), full[0].cache_key());
    }

    /// The cache keys of each report's first and last quick-grid unit,
    /// pinned to the values the per-report unit builders produced before
    /// the reports shared one driver: existing `.fabric-cache/` entries stay
    /// valid, and the spec encoding cannot drift silently.  The spec embeds
    /// the schema tag, so the hotloop pair is that of `hotloop-bench/v2`.
    #[test]
    fn quick_grid_cache_keys_are_pinned() {
        fn ends<R: TrackedReport>() -> [String; 2] {
            let units = units::<R>(&R::options(true, None, None));
            [&units[0], &units[units.len() - 1]].map(WorkUnit::cache_key)
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
        (
            &[
                "--quick",
                "--fabric",
                "2",
                "--resume",
                "--cache-dir",
                "/tmp/c",
            ],
            [true; 3],
        ),
        (&["--worker", "--threads", "2"], [true, true, false]),
        (&["--worker"], [true; 3]),
        (&["--telemetry"], [true; 3]),
        (&["--telemetry-out", "t.ndjson"], [true; 3]),
        (&["--help"], [true; 3]),
        // Regression: 0 used to parse and silently clamp downstream.
        (&["--threads", "0"], [false; 3]),
        (&["--islands", "0"], [false; 3]),
        (&["--fabric", "0"], [false; 3]),
        (&["--threads", "x"], [false; 3]),
        (&["--fabric"], [false; 3]),
        (&["--resume"], [false; 3]),
        (&["--cache-dir", "/tmp/c"], [false; 3]),
        (&["--worker", "--fabric", "2"], [false; 3]),
        (&["--worker", "--json"], [false; 3]),
        (&["--worker", "--out", "f.json"], [false; 3]),
        (&["--worker", "--telemetry"], [false; 3]),
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
        for parsed in parses(&[
            "--quick",
            "--fabric",
            "2",
            "--resume",
            "--cache-dir",
            "/tmp/c",
        ]) {
            let args = parsed.unwrap().unwrap();
            assert!(args.quick && args.resume && !args.worker);
            assert_eq!(args.fabric, Some(2));
            assert_eq!(args.cache_dir.as_deref(), Some("/tmp/c"));
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
        let [stab, rec, _] = parses(&["--worker", "--threads", "2"]);
        for args in [stab, rec] {
            let args = args.unwrap().unwrap();
            assert!(args.worker);
            assert_eq!(args.threads, Some(2));
        }
        let [stab, ..] = parses(&["--quick", "--json", "--threads", "4", "--islands", "2"]);
        let args = stab.unwrap().unwrap();
        assert!(args.quick && args.json);
        assert_eq!((args.threads, args.islands), (Some(4), Some(2)));
        assert!(args.fabric.is_none() && !args.resume);
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
    }
}
