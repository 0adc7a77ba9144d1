//! One driver for the tracked reports: `stabilization_report`,
//! `recovery_report` and `hotloop_report` are each a [`TrackedReport`]
//! implementation plus a one-line `main` calling [`main`].
//!
//! A report says *what* a grid cell is and computes — its grid, its unit
//! spec, `run_cell`, the cell encoding and its exact inverse, the report
//! header, the validator and the markdown table.  This module owns *how* a
//! report is driven: the command line, the run ([`run`]), the `--resume`
//! cell cache around each cell, the decoding of stored cells
//! ([`decode_cells`], [`Fields`]) and the write / re-read / validate /
//! replace step.
//!
//! Every cell of a run is a typed [`TrackedReport::Cell`], measured or
//! decoded from the cache, and the report is assembled from the typed cells
//! through the one `cell_to_json` whether or not a cache is attached.  A
//! stored cell counts as a hit only if it decodes through
//! [`decode_cell`], which requires it to re-encode to exactly the stored
//! JSON; anything else is a miss and is measured again.  A `--resume`
//! report is therefore byte-identical to a plain one **by construction**,
//! markdown table included (pinned end-to-end by
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

use crate::cli::flags;
use crate::stabilization::GridGraph;
use crate::trace::TraceGuard;
use crate::ProtocolKind;

/// One grid coordinate of every tracked report: protocol, graph and size.
pub type Point = (ProtocolKind, GridGraph, usize);

/// The name of a grid point in reports and errors: `ppl/ring/64`.
pub fn point_name((kind, graph, n): Point) -> String {
    format!("{}/{}/{n}", kind.key(), graph.key())
}

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
    /// What one cell is called in errors (`cell`, `case`); the artifact's
    /// cell array is its plural (`cells`, `cases`).
    const CELL: &'static str;
    /// Whether the report takes `--threads`.  A report without it runs its
    /// cells one at a time on the calling thread.
    const THREADS: bool;
    /// Whether the report takes `--islands`.
    const ISLANDS: bool;

    /// Knobs of one report run.
    type Options: Sync;
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
    fn grid(options: &Self::Options) -> Vec<Point>;
    /// The unit spec of one grid point (see [`point_spec`]): the content
    /// its cache key digests.
    fn unit_spec(point: Point, options: &Self::Options) -> JsonValue;
    /// Measures one cell, sharding its inner stages over `runner`.
    fn run_cell(point: Point, options: &Self::Options, runner: &BatchRunner) -> Self::Cell;
    /// The grid point a cell measured.
    fn point(cell: &Self::Cell) -> Point;
    /// The cell's JSON object (an element of the report's cell array).
    fn cell_to_json(cell: &Self::Cell) -> JsonValue;
    /// The exact inverse of [`TrackedReport::cell_to_json`]: every field
    /// decoded exactly ([`Fields`]), every error naming the cell and the
    /// field.  Fields the encoding derives from others are not read; the
    /// re-encoding check of [`decode_cell`] pins them.
    fn cell_from_json(json: &JsonValue) -> Result<Self::Cell, String>;
    /// The report's header fields: everything but the cell array.
    fn header(options: &Self::Options) -> JsonValue;
    /// The report JSON: the header, then the cells in grid order.
    fn assemble(options: &Self::Options, cells: &[Self::Cell]) -> JsonValue {
        let cells = cells.iter().map(Self::cell_to_json).collect();
        Self::header(options).with(format!("{}s", Self::CELL), JsonValue::Array(cells))
    }
    /// Checks a parsed artifact against [`TrackedReport::SCHEMA`] and
    /// returns its decoded cells: [`decode_cells`], the header checks, the
    /// grid and the invariants on the typed cells.
    fn validate(json: &JsonValue) -> Result<Vec<Self::Cell>, String>;
    /// The human-readable markdown table of the cells.
    fn markdown(cells: &[Self::Cell]) -> String;
    /// What a run of `cells` cells measured, for the `wrote` line.
    fn summary(options: &Self::Options, cells: usize) -> String;
    /// A line printed after the `wrote` line, derived from the cells.
    fn closing_note(_cells: &[Self::Cell]) -> Option<String> {
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
fn cell_key<R: TrackedReport>(point: Point, options: &R::Options) -> String {
    cache_key(R::JOB, &R::unit_spec(point, options))
}

/// The largest integer a JSON number (an f64) holds exactly: the bound of
/// every integer field stored as a number.
pub const MAX_EXACT: u64 = (1 << 53) - 1;

/// The exact-integer rule of every tracked artifact: `Some` only for a
/// finite, integral number within `[0, max]`.  An `as` cast would silently
/// truncate fractions and wrap out-of-range values, so a corrupted artifact
/// would decode into a *different* cell instead of failing.
pub fn exact_uint(x: f64, max: u64) -> Option<u64> {
    (x.is_finite() && x.fract() == 0.0 && x >= 0.0 && x <= max as f64).then_some(x as u64)
}

/// Exact reader of one JSON object of a tracked artifact — a cell, an
/// object nested in a cell, or the report header.  Integers obey
/// [`exact_uint`] (full-width u64s travel as decimal strings), floats must
/// be finite, fractions must lie in `[0, 1]`, and every error names the
/// owner and the field's path (`cell ppl/ring/64: worst.steps …`).
#[derive(Clone, Debug)]
pub struct Fields<'a> {
    json: &'a JsonValue,
    /// What the object belongs to: `cell ppl/ring/64`, `report`, ….
    owner: String,
    /// The object's path inside its owner, with a trailing dot (`worst.`),
    /// or empty.
    path: String,
}

impl<'a> Fields<'a> {
    /// Reads `json` as a whole object of `owner`.
    pub fn new(json: &'a JsonValue, owner: impl Into<String>) -> Self {
        Fields {
            json,
            owner: owner.into(),
            path: String::new(),
        }
    }

    /// Opens a cell whose coordinates are its `protocol`, `graph` and `n`
    /// fields (every tracked cell's): decodes them and names the cell
    /// after them (`{what} ppl/ring/64`).
    pub fn open(json: &'a JsonValue, what: &str) -> Result<(Self, Point), String> {
        let unnamed = Fields::new(json, what);
        let protocol = unnamed.str("protocol")?;
        let kind = ProtocolKind::ALL
            .into_iter()
            .find(|k| k.key() == protocol)
            .ok_or_else(|| unnamed.err("protocol", "names no grid protocol"))?;
        let graph = unnamed.str("graph")?;
        let graph = GridGraph::ALL
            .into_iter()
            .find(|g| g.key() == graph)
            .ok_or_else(|| unnamed.err("graph", "names no grid graph"))?;
        let point = (kind, graph, unnamed.size("n")?);
        Ok((
            Fields::new(json, format!("{what} {}", point_name(point))),
            point,
        ))
    }

    /// The error `field` fails with: `{owner}: {path}{field} {problem}`.
    pub fn err(&self, field: &str, problem: &str) -> String {
        format!("{}: {}{field} {problem}", self.owner, self.path)
    }

    /// The raw value of a field.
    pub fn get(&self, field: &str) -> Result<&'a JsonValue, String> {
        self.json
            .get(field)
            .ok_or_else(|| self.err(field, "missing"))
    }

    /// A string field.
    pub fn str(&self, field: &str) -> Result<&'a str, String> {
        self.get(field)?
            .as_str()
            .ok_or_else(|| self.err(field, "must be a string"))
    }

    /// A boolean field.
    pub fn bool(&self, field: &str) -> Result<bool, String> {
        self.get(field)?
            .as_bool()
            .ok_or_else(|| self.err(field, "must be a boolean"))
    }

    /// An integer field within `[0, max]` ([`exact_uint`]).
    pub fn uint(&self, field: &str, max: u64) -> Result<u64, String> {
        Self::uint_of(self.get(field)?, max)
            .ok_or_else(|| self.err(field, &format!("must be an integer in [0, {max}]")))
    }

    /// A count or size field: an integer within `[0, MAX_EXACT]`.
    pub fn size(&self, field: &str) -> Result<usize, String> {
        Ok(self.uint(field, MAX_EXACT)? as usize)
    }

    /// A full-width u64 field, stored as an exact decimal string (a JSON
    /// number would round values ≥ 2⁵³).
    pub fn u64_string(&self, field: &str) -> Result<u64, String> {
        self.str(field)?
            .parse()
            .map_err(|_| self.err(field, "must be an exact decimal u64 string"))
    }

    /// A finite number field.
    pub fn float(&self, field: &str) -> Result<f64, String> {
        self.get(field)?
            .as_f64()
            .filter(|x| x.is_finite())
            .ok_or_else(|| self.err(field, "must be a finite number"))
    }

    /// A fraction field: a number in `[0, 1]`.
    pub fn fraction(&self, field: &str) -> Result<f64, String> {
        Self::fraction_of(self.get(field)?)
            .ok_or_else(|| self.err(field, "must be a fraction in [0, 1]"))
    }

    /// An array of integers within `[0, max]`.
    pub fn uints(&self, field: &str, max: u64) -> Result<Vec<u64>, String> {
        self.elements(
            field,
            |v| Self::uint_of(v, max),
            &format!("an integer in [0, {max}]"),
        )
    }

    /// An array of fractions.
    pub fn fractions(&self, field: &str) -> Result<Vec<f64>, String> {
        self.elements(field, Self::fraction_of, "a fraction in [0, 1]")
    }

    /// Whether an optional field is present.
    pub fn has(&self, field: &str) -> bool {
        self.json.get(field).is_some()
    }

    /// A nested object.
    pub fn object(&self, field: &str) -> Result<Fields<'a>, String> {
        let json = self.get(field)?;
        if !matches!(json, JsonValue::Object(_)) {
            return Err(self.err(field, "must be an object"));
        }
        Ok(self.nested(json, format!("{field}.")))
    }

    /// A nested object or `null`.
    pub fn nullable(&self, field: &str) -> Result<Option<Fields<'a>>, String> {
        match self.get(field)? {
            JsonValue::Null => Ok(None),
            _ => self.object(field).map(Some),
        }
    }

    /// An array of objects.
    pub fn items(&self, field: &str) -> Result<Vec<Fields<'a>>, String> {
        let items = self.array(field)?;
        items
            .iter()
            .enumerate()
            .map(|(i, item)| match item {
                JsonValue::Object(_) => Ok(self.nested(item, format!("{field}[{i}]."))),
                _ => Err(self.err(&format!("{field}[{i}]"), "must be an object")),
            })
            .collect()
    }

    fn nested(&self, json: &'a JsonValue, path: String) -> Fields<'a> {
        Fields {
            json,
            owner: self.owner.clone(),
            path: format!("{}{path}", self.path),
        }
    }

    fn array(&self, field: &str) -> Result<&'a [JsonValue], String> {
        self.get(field)?
            .as_array()
            .ok_or_else(|| self.err(field, "must be an array"))
    }

    fn elements<T>(
        &self,
        field: &str,
        decode: impl Fn(&JsonValue) -> Option<T>,
        want: &str,
    ) -> Result<Vec<T>, String> {
        self.array(field)?
            .iter()
            .enumerate()
            .map(|(i, v)| {
                decode(v)
                    .ok_or_else(|| self.err(&format!("{field}[{i}]"), &format!("must be {want}")))
            })
            .collect()
    }

    fn uint_of(value: &JsonValue, max: u64) -> Option<u64> {
        exact_uint(value.as_f64()?, max)
    }

    fn fraction_of(value: &JsonValue) -> Option<f64> {
        value.as_f64().filter(|f| (0.0..=1.0).contains(f))
    }
}

/// Decodes one stored cell: [`TrackedReport::cell_from_json`], and the
/// decoded cell must re-encode to exactly `json` — so an extra, missing,
/// reordered or inconsistent (derived) field is rejected, not dropped.
/// The `--resume` cache reads its hits through this.
pub fn decode_cell<R: TrackedReport>(json: &JsonValue) -> Result<R::Cell, String> {
    let cell = R::cell_from_json(json)?;
    let encoded = R::cell_to_json(&cell);
    if encoded != *json {
        return Err(format!(
            "{} {}: {} differs from the encoding of the decoded cell \
             (an extra, reordered or inconsistent field)",
            R::CELL,
            point_name(R::point(&cell)),
            first_difference(&encoded, json).trim_start_matches('.')
        ));
    }
    Ok(cell)
}

/// The path of the first field at which `stored` differs from `encoded`:
/// `worst.scheduler`, `rows[2].degradation`, ….
fn first_difference(encoded: &JsonValue, stored: &JsonValue) -> String {
    fn children(value: &JsonValue) -> Vec<(String, &JsonValue)> {
        match value {
            JsonValue::Object(entries) => {
                entries.iter().map(|(k, v)| (format!(".{k}"), v)).collect()
            }
            JsonValue::Array(items) => items
                .iter()
                .enumerate()
                .map(|(i, v)| (format!("[{i}]"), v))
                .collect(),
            _ => Vec::new(),
        }
    }
    let (a, b) = (children(encoded), children(stored));
    let same = a.iter().zip(&b).take_while(|(x, y)| x == y).count();
    match (a.get(same), b.get(same)) {
        (Some((k, x)), Some((l, y))) if k == l => k.clone() + &first_difference(x, y),
        (_, Some((k, _))) | (Some((k, _)), None) => k.clone(),
        (None, None) => String::new(),
    }
}

/// Decodes the cells of a parsed artifact of report `R`: checks the schema
/// tag and the cell array and decodes every cell ([`decode_cell`]).  Each
/// report's validator is this, plus its header checks, plus
/// [`check_grid`] and the invariants on the typed cells.
pub fn decode_cells<R: TrackedReport>(json: &JsonValue) -> Result<Vec<R::Cell>, String> {
    if json.get("schema").and_then(JsonValue::as_str) != Some(R::SCHEMA) {
        return Err(format!(
            "missing or wrong schema tag (want {:?})",
            R::SCHEMA
        ));
    }
    let array = format!("{}s", R::CELL);
    json.get(&array)
        .and_then(JsonValue::as_array)
        .ok_or_else(|| format!("{array} array missing"))?
        .iter()
        .map(decode_cell::<R>)
        .collect()
}

/// Checks that decoded cells are exactly the points of `grid`, in grid
/// order.
pub fn check_grid<R: TrackedReport>(cells: &[R::Cell], grid: &[Point]) -> Result<(), String> {
    if cells.len() != grid.len() {
        return Err(format!(
            "expected {} {}s, found {}",
            grid.len(),
            R::CELL,
            cells.len()
        ));
    }
    match cells.iter().map(R::point).zip(grid).find(|(p, q)| p != *q) {
        Some((_, &want)) => Err(format!(
            "{} {} missing or out of grid order",
            R::CELL,
            point_name(want)
        )),
        None => Ok(()),
    }
}

/// What one report run produced.
#[derive(Debug)]
pub struct Outcome {
    /// The report JSON.
    pub json: JsonValue,
    /// The markdown table of every cell, measured or cached.
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
/// With a `cache`, each cell is first looked up by its key and decoded
/// ([`decode_cell`]); a missing entry or one that does not decode is
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
    // One cell, and whether this run measured it.
    let cell = |point: Point, runner: &BatchRunner| {
        let key = cache.map(|c| (c, cell_key::<R>(point, options)));
        let decode = |json: &JsonValue| decode_cell::<R>(json).ok();
        if let Some(cell) = key
            .as_ref()
            .and_then(|(c, key)| c.load(key, R::JOB, decode))
        {
            return Ok((cell, false));
        }
        let cell = R::run_cell(point, options, runner);
        if let Some((c, key)) = &key {
            c.store(key, R::JOB, &R::cell_to_json(&cell))?;
        }
        Ok::<_, String>((cell, true))
    };
    let grid = R::grid(options);
    let cells: Vec<(R::Cell, bool)> = if R::THREADS {
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
    let (cells, measured): (Vec<R::Cell>, Vec<bool>) = cells.into_iter().unzip();
    let executed = measured.iter().filter(|&&m| m).count();
    Ok(Outcome {
        json: R::assemble(options, &cells),
        markdown: R::markdown(&cells),
        executed,
        cached: cells.len() - executed,
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
    let valued = "--out --cache-dir --telemetry-out --threads --islands";
    let switches = "--quick --json --resume --telemetry --help -h";
    for token in flags(args, valued, switches) {
        let (flag, value) = token?;
        let value = value.unwrap_or_default();
        match flag.as_str() {
            "--quick" => out.quick = true,
            "--json" => out.json = true,
            "--resume" => out.resume = true,
            "--out" => out.out = Some(value),
            "--cache-dir" => out.cache_dir = Some(value),
            "--telemetry" => out.telemetry = true,
            "--telemetry-out" => {
                out.telemetry_out = Some(value);
                out.telemetry = true;
            }
            "--threads" if R::THREADS => out.threads = Some(count("--threads", value)?),
            "--islands" if R::ISLANDS => out.islands = Some(count("--islands", value)?),
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
/// (through the cell cache under `--resume`), write the artifact through
/// `write_validated`, and print the summary.  Usage errors exit 2; run,
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

/// Writes a report to `out` only once it validates: the text goes to
/// `<out>.partial`, which is re-read, parsed and validated, and only then
/// renamed onto `out`.  A report that fails leaves `out` byte-identical
/// and stays at `<out>.partial` for inspection.  Returns the cells decoded
/// from the re-read file.
fn write_validated<R: TrackedReport>(out: &str, text: &str) -> Result<Vec<R::Cell>, String> {
    let partial = format!("{out}.partial");
    std::fs::write(&partial, text).map_err(|e| format!("cannot write {partial}: {e}"))?;
    let reread =
        std::fs::read_to_string(&partial).map_err(|e| format!("cannot re-read {partial}: {e}"))?;
    let rejected =
        |e: String| format!("{e}; {out} left unchanged, the rejected report is {partial}");
    let parsed = JsonValue::parse(&reread)
        .map_err(|e| rejected(format!("the report does not parse as JSON: {e}")))?;
    let cells = R::validate(&parsed)
        .map_err(|e| rejected(format!("the report violates the {} schema: {e}", R::SCHEMA)))?;
    std::fs::rename(&partial, out).map_err(|e| format!("cannot rename {partial} to {out}: {e}"))?;
    Ok(cells)
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
    let cells = write_validated::<R>(&out, &text)?;

    let mode = if args.quick { "quick" } else { "full" };
    println!("# {} ({mode} mode)\n", R::TITLE);
    println!("{}", outcome.markdown);
    println!("wrote {out} ({summary})");
    if let Some(note) = R::closing_note(&cells) {
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
    fn assert_specs_follow_the_grid<R: TrackedReport>(
        options: &R::Options,
        two_threads: &R::Options,
    ) {
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

    /// A one-cell report whose validator accepts (`OK`) or rejects every
    /// artifact, for the write step.
    struct Toy<const OK: bool>;

    impl<const OK: bool> TrackedReport for Toy<OK> {
        const PRODUCER: &'static str = "toy_report";
        const TITLE: &'static str = "Toy";
        const SCHEMA: &'static str = "toy/v1";
        const JOB: &'static str = "toy-cell";
        const STEM: &'static str = "toy";
        const CELL: &'static str = "cell";
        const THREADS: bool = false;
        const ISLANDS: bool = false;

        type Options = ();
        type Cell = usize;

        fn options(_quick: bool, _threads: Option<usize>, _islands: Option<u32>) {}
        fn grid(_options: &()) -> Vec<Point> {
            vec![(ProtocolKind::Yokota, GridGraph::Ring, 8)]
        }
        fn unit_spec((kind, graph, n): Point, _options: &()) -> JsonValue {
            point_spec::<Self>(kind, graph.key(), n, true)
        }
        fn run_cell((_, _, n): Point, _options: &(), _runner: &BatchRunner) -> usize {
            n
        }
        fn point(&n: &usize) -> Point {
            (ProtocolKind::Yokota, GridGraph::Ring, n)
        }
        fn cell_to_json(&n: &usize) -> JsonValue {
            JsonValue::object().with("n", n)
        }
        fn cell_from_json(json: &JsonValue) -> Result<usize, String> {
            Fields::new(json, "cell").size("n")
        }
        fn header(_options: &()) -> JsonValue {
            JsonValue::object().with("schema", Self::SCHEMA)
        }
        fn validate(json: &JsonValue) -> Result<Vec<usize>, String> {
            let cells = decode_cells::<Self>(json)?;
            if OK {
                Ok(cells)
            } else {
                Err("rejected by the toy validator".to_string())
            }
        }
        fn markdown(_cells: &[usize]) -> String {
            String::new()
        }
        fn summary(_options: &(), cells: usize) -> String {
            format!("{cells} cells")
        }
    }

    /// A report that fails validation never replaces `--out`: the old
    /// bytes stay, and the rejected text waits at `<out>.partial`.  A
    /// report that validates replaces `--out` and leaves no partial.
    #[test]
    fn a_report_that_fails_validation_leaves_out_untouched() {
        let dir =
            std::env::temp_dir().join(format!("ssle-bench-write-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let out = dir.join("toy.json");
        let partial = dir.join("toy.json.partial");
        std::fs::write(&out, "the previous report").unwrap();
        let args = Args {
            out: Some(out.to_string_lossy().into_owned()),
            ..Args::default()
        };
        let err = write_report::<Toy<false>>(&args).unwrap_err();
        assert!(err.contains("rejected by the toy validator"), "{err}");
        assert_eq!(
            std::fs::read_to_string(&out).unwrap(),
            "the previous report"
        );
        let expected = Toy::<true>::assemble(&(), &[8]).to_json();
        assert_eq!(std::fs::read_to_string(&partial).unwrap(), expected);

        write_report::<Toy<true>>(&args).unwrap();
        assert_eq!(std::fs::read_to_string(&out).unwrap(), expected);
        assert!(
            !partial.exists(),
            "the validated partial was renamed onto --out"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Every cell of each committed artifact decodes and re-encodes to the
    /// identical text, and one extra field in one cell fails each
    /// validator, naming the cell and the field.
    #[test]
    fn committed_artifacts_round_trip_through_the_typed_cells() {
        fn pin<R: TrackedReport>(file: &str) {
            let path = format!("{}/../../{file}", env!("CARGO_MANIFEST_DIR"));
            let text = std::fs::read_to_string(&path).expect("tracked report exists");
            let parsed = JsonValue::parse(&text).expect("tracked report parses");
            let cells = R::validate(&parsed).unwrap_or_else(|e| panic!("{file}: {e}"));
            let array = format!("{}s", R::CELL);
            let JsonValue::Object(mut entries) = parsed.clone() else {
                panic!("{file}: not an object");
            };
            let slot = entries.iter_mut().find(|(k, _)| *k == array).unwrap();
            slot.1 = JsonValue::Array(cells.iter().map(R::cell_to_json).collect());
            assert_eq!(
                JsonValue::Object(entries.clone()).to_json(),
                text.trim_end(),
                "{file}"
            );

            let JsonValue::Array(stored) =
                &mut entries.iter_mut().find(|(k, _)| *k == array).unwrap().1
            else {
                unreachable!()
            };
            let last = stored.len() - 1;
            stored[last] = stored[last].clone().with("extra", 1usize);
            let Err(err) = R::validate(&JsonValue::Object(entries)) else {
                panic!("{file}: a cell with an extra field validated");
            };
            let name = point_name(R::point(&cells[last]));
            assert!(
                err.contains(&name) && err.contains("extra"),
                "{file}: {err}"
            );
        }
        pin::<stabilization::Report>("BENCH_stabilization.json");
        pin::<recovery::Report>("BENCH_recovery.json");
        pin::<hotloop::Report>("BENCH_hotloop.json");
    }

    /// The field readers reject what an `as` cast would have truncated,
    /// and name the owner and the field's path.
    #[test]
    fn fields_decode_exactly_and_name_the_field() {
        let json = JsonValue::object()
            .with("protocol", "ppl")
            .with("graph", "ring")
            .with("n", 64usize)
            .with("half", 0.5)
            .with("seed", "18446744073709551615")
            .with("inner", JsonValue::object().with("count", 2.5));
        let (fields, point) = Fields::open(&json, "cell").unwrap();
        assert_eq!(point, (ProtocolKind::Ppl, GridGraph::Ring, 64));
        assert_eq!(fields.fraction("half"), Ok(0.5));
        assert_eq!(fields.u64_string("seed"), Ok(u64::MAX));
        assert_eq!(
            fields.object("inner").unwrap().size("count").unwrap_err(),
            format!("cell ppl/ring/64: inner.count must be an integer in [0, {MAX_EXACT}]")
        );
        assert!(fields.uint("half", 1).is_err());
        assert!(fields.fraction("n").is_err());
        assert!(fields
            .str("missing")
            .unwrap_err()
            .ends_with("missing missing"));
        let unknown = JsonValue::object().with("protocol", "x");
        assert_eq!(
            Fields::open(&unknown, "cell").unwrap_err(),
            "cell: protocol names no grid protocol"
        );
    }

    /// The cache keys of each report's first and last quick-grid cell,
    /// pinned to the values the per-report unit builders produced before
    /// the reports shared one driver: existing `.fabric-cache/` entries stay
    /// valid, and the spec encoding cannot drift silently.  The spec embeds
    /// the schema tag, so the hotloop pair is that of `hotloop-bench/v3`.
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
                "32bedfbb9121d4c52035957ff357b3ab",
                "f4a5896e82c3f5de2c2c6d4d416a233b"
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
        (&["--threads=2"], [true, true, false]),
        (&["--out=x.json", "--quick"], [true; 3]),
        (&["--quick=1"], [false; 3]),
        (&["--json=false"], [false; 3]),
        (&["--out"], [false; 3]),
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
        for parsed in parses(&["--out=x.json"]) {
            assert_eq!(parsed.unwrap().unwrap().out.as_deref(), Some("x.json"));
        }
        let [stab, rec, _] = parses(&["--threads=2"]);
        assert_eq!(stab.unwrap().unwrap().threads, Some(2));
        assert_eq!(rec.unwrap().unwrap().threads, Some(2));
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
