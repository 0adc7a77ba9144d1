//! The repository's end-to-end benchmark.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload ppl-ring --seed 1 --seconds 30 --trace 0
//! ```
//!
//! One process, at most two worker threads, every input derived from
//! `--seed`.  An untraced run (`--trace 0`) prints the end-to-end metrics;
//! a traced run (`--trace 1`) repeats the work with spans and the telemetry
//! counters on and prints the per-layer metrics.  Both check every output
//! and end with one JSON result line; see `README.md` for the workloads and
//! what each metric means.

mod converge;
mod layers;
mod report;
mod search;
mod spans;
mod util;

use std::path::PathBuf;
use std::time::Instant;

use population::BatchRunner;
use ssle_bench::stabilization::RunOptions;
use ssle_bench::{check_interval, ProtocolKind};

use crate::converge::Converge;
use crate::report::{result_line, Metrics, END_TO_END, PER_LAYER};
use crate::search::Search;
use crate::spans::{Span, Tracer};
use crate::util::{median, peak_rss_mb, ratio, Digest};

/// The workloads, by name.
pub const WORKLOADS: [&str; 3] = ["ppl-ring", "fj-ring", "search-ring"];

/// The fewest repetitions of the work a run makes, however short its
/// `--seconds`.
const MIN_REPETITIONS: usize = 3;

/// The shortest set-up block: a single set-up takes well under a
/// millisecond, too short to time alone.
const SETUP_BLOCK_S: f64 = 0.05;

/// How many set-ups make one block of at least [`SETUP_BLOCK_S`]: doubled
/// from one until a block takes that long.  The doubling warms the set-up
/// path before anything is timed.
fn setup_block(mut set_up: impl FnMut()) -> usize {
    let mut block = 1;
    loop {
        let t = Instant::now();
        for _ in 0..block {
            set_up();
        }
        if t.elapsed().as_secs_f64() >= SETUP_BLOCK_S || block >= 1 << 20 {
            return block;
        }
        block *= 2;
    }
}

/// The least of `samples`: the sample least disturbed by whatever else
/// shares the host.  The host slows by up to a half for seconds at a time,
/// so a median moves with when the run happened; the fastest sample of a
/// run that spans many such periods does not.
fn fastest(samples: &[f64]) -> f64 {
    samples.iter().copied().fold(f64::INFINITY, f64::min)
}

/// Worker threads: the machine's parallelism, at most two.
fn threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get().min(2))
}

/// One benchmark workload.  `plan` builds the inputs (timed as set-up),
/// `execute` is the timed work, and the rest read its results.
pub trait Workload {
    type Plan;
    type Done;

    /// Derives every input from `seed`.
    fn plan(&self, seed: u64) -> Self::Plan;
    /// The timed work; spans go to `tracer` when it is enabled.
    fn execute(&self, plan: &Self::Plan, runner: &BatchRunner, tracer: &Tracer) -> Self::Done;
    /// An exact fold of the simulated results (seeds, steps, scores).
    fn digest(&self, plan: &Self::Plan, done: &Self::Done) -> Digest;
    /// Simulated interactions, counted from the returned reports, and the
    /// seconds of each operation that simulated them.
    fn work(&self, done: &Self::Done) -> Work;
    /// Checks every output.
    fn check(&self, plan: &Self::Plan, done: &Self::Done) -> Checked;
    /// The per-layer metrics of a traced pass.
    fn layers(&self, plan: &Self::Plan, done: &Self::Done, spans: &[Span], m: &mut Metrics);
}

/// The simulated interactions of one pass, and the seconds each operation
/// that simulated them took, in the pass's fixed order.
#[derive(Clone, Debug)]
pub struct Work {
    pub steps: u64,
    pub secs: Vec<f64>,
}

impl Work {
    /// Busy thread-seconds: the operations' seconds summed.
    pub fn busy_s(&self) -> f64 {
        self.secs.iter().sum()
    }
}

/// The output check of one pass.
#[derive(Debug, Default)]
pub struct Checked {
    /// Operations attempted (trials, evaluations, replays, cross-checks).
    pub attempted: u64,
    /// Operations that returned an error or failed their check.
    pub failed: u64,
    /// One line per failure.
    pub failures: Vec<String>,
}

impl Checked {
    /// Records one failed operation.
    pub fn fail(&mut self, why: String) {
        self.failed += 1;
        self.failures.push(why);
    }
}

/// The batch metrics from the spans.  `leaf` spans are the units of work a
/// `BatchRunner::run_map` call shares out; their parent span waits for all
/// of them.  Idle share is the part of the workers' time in those parents
/// not spent in a unit; imbalance is the busiest worker's time over the
/// mean, summed over batches (1 is perfect balance).
pub fn batch_metrics(spans: &[Span], leaf: &str, m: &mut Metrics) {
    use std::collections::BTreeMap;
    // parent id -> (thread -> busy seconds)
    let mut batches: BTreeMap<usize, BTreeMap<u64, f64>> = BTreeMap::new();
    for s in spans.iter().filter(|s| s.name == leaf) {
        let parent = s.parent.expect("work spans have a batch parent");
        *batches
            .entry(parent)
            .or_default()
            .entry(s.thread)
            .or_default() += s.secs();
    }
    let workers = threads() as f64;
    let (mut busy, mut wall, mut busiest) = (0.0, 0.0, 0.0);
    for (parent, per_thread) in &batches {
        busy += per_thread.values().sum::<f64>();
        busiest += per_thread.values().copied().fold(0.0, f64::max);
        wall += spans
            .iter()
            .find(|s| s.id == *parent)
            .map_or(0.0, Span::secs);
    }
    m.set("batch.busy_s", busy);
    m.set("batch.idle_share", 1.0 - ratio(busy, workers * wall));
    m.set("batch.imbalance", ratio(busiest, busy / workers));
}

/// The busy thread-seconds of one pass with each operation at the fastest
/// it ran in any pass: the operations repeat in the same order and simulate
/// the same interactions every pass, and a slow spell of the host that
/// catches one of them need not catch the rest of its pass.  `None` if the
/// passes ran different numbers of operations.
fn fastest_ops(works: &[Work]) -> Option<f64> {
    let ops = works.first()?.secs.len();
    if works.iter().any(|w| w.secs.len() != ops) {
        return None;
    }
    Some(
        (0..ops)
            .map(|i| fastest(&works.iter().map(|w| w.secs[i]).collect::<Vec<_>>()))
            .sum(),
    )
}

/// The parsed command line.
#[derive(Debug, PartialEq)]
struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value"))?
            .as_str();
        let number = |what: &str| -> Result<u64, String> {
            value
                .parse()
                .map_err(|e| format!("{what} {value:?} is not a whole number: {e}"))
        };
        match flag.as_str() {
            "--workload" if WORKLOADS.contains(&value) => workload = Some(value.to_string()),
            "--workload" => {
                return Err(format!("unknown workload {value:?}; one of {WORKLOADS:?}"))
            }
            "--seed" => seed = Some(number("--seed")?),
            "--seconds" => seconds = Some(number("--seconds")?.clamp(1, 600)),
            "--trace" => match value {
                "0" => trace = Some(false),
                "1" => trace = Some(true),
                _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
            },
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(30),
        trace: trace.unwrap_or(false),
    })
}

/// What one run prints.
struct Outcome {
    checked: Checked,
    /// Simulated interactions of one repetition of the work.
    steps: u64,
    digest: Digest,
    metrics: Metrics,
}

fn bench<W: Workload>(w: &W, args: &Args) -> Outcome {
    let runner = BatchRunner::with_threads(threads());
    let mut plan = w.plan(args.seed);
    let block = setup_block(|| plan = w.plan(args.seed));

    // Set-up blocks and repetitions of the work alternate until the run's
    // seconds are spent, so both sample the whole run.  Every repetition
    // must simulate the same results.
    let untraced = Tracer::new(false);
    let mut setup_s = f64::INFINITY;
    let mut walls = Vec::new();
    let mut works = Vec::new();
    let mut digest = None;
    let mut repeatable = true;
    let mut done = None;
    let start = Instant::now();
    while walls.len() < MIN_REPETITIONS || start.elapsed().as_secs_f64() < args.seconds as f64 {
        for _ in 0..block {
            let t = Instant::now();
            let fresh = w.plan(args.seed);
            setup_s = setup_s.min(t.elapsed().as_secs_f64());
            plan = fresh;
        }
        drop(done.take());
        let t = Instant::now();
        let this = w.execute(&plan, &runner, &untraced);
        walls.push(t.elapsed().as_secs_f64());
        works.push(w.work(&this));
        let d = w.digest(&plan, &this);
        repeatable &= *digest.get_or_insert(d) == d;
        done = Some(this);
    }
    let (digest, done) = (digest.expect("reps > 0"), done.expect("reps > 0"));
    let wall_s = fastest(&walls);
    let steps = w.work(&done).steps;
    // Passes that ran different operations have already failed the digest
    // check; the fastest pass then stands in.
    let busy_s = fastest_ops(&works)
        .unwrap_or_else(|| fastest(&works.iter().map(Work::busy_s).collect::<Vec<_>>()));

    let mut metrics = Metrics::default();
    let (mut checked, traced) = if args.trace {
        drop(done);
        // The traced pass: the same work once more, with spans and the
        // telemetry counters on.
        let registry = ssle_telemetry::registry();
        registry.reset();
        ssle_telemetry::set_enabled(true);
        let tracer = Tracer::new(true);
        let t = Instant::now();
        let done = w.execute(&plan, &runner, &tracer);
        let traced_s = t.elapsed().as_secs_f64();
        ssle_telemetry::set_enabled(false);
        let mut checked = w.check(&plan, &done);
        repeatable &= w.digest(&plan, &done) == digest;
        let spans = tracer.spans();
        w.layers(&plan, &done, &spans, &mut metrics);
        metrics.set("trace.overhead_share", traced_s / median(&walls) - 1.0);
        metrics.set("trace.spans", spans.len() as f64);
        record_counts(&registry.snapshot(), &mut metrics);
        if let Err(e) = tracer.write(&trace_path(args)) {
            checked.fail(format!("cannot write the span trace: {e}"));
        }
        (checked, true)
    } else {
        (w.check(&plan, &done), false)
    };
    checked.attempted += 1;
    if !repeatable {
        checked.fail("repetitions of the same work simulated different results".to_string());
    }
    if traced {
        metrics.set("untraced.wall_s", wall_s);
        metrics.set("sim.steps_total", steps as f64);
        metrics.set("threads", threads() as f64);
    } else {
        metrics.set("wall_s", wall_s);
        metrics.set("steps_per_s", ratio(steps as f64, busy_s));
        metrics.set("setup_s", setup_s);
        metrics.set("peak_rss_mb", peak_rss_mb().unwrap_or(f64::NAN));
        metrics.set(
            "ok_frac",
            1.0 - ratio(checked.failed as f64, checked.attempted as f64),
        );
    }
    Outcome {
        checked,
        steps,
        digest,
        metrics,
    }
}

/// The exact counts of the telemetry registry, and the search's accept
/// ratio from them.
fn record_counts(snapshot: &analysis::json::JsonValue, metrics: &mut Metrics) {
    let count = |name: &str| -> f64 {
        snapshot
            .get("counters")
            .and_then(|c| c.get(name))
            .and_then(|v| v.as_str())
            .and_then(|s| s.parse::<u64>().ok())
            .map_or(0.0, |v| v as f64)
    };
    for (metric, counter) in [
        ("counts.hot_steps", "hot_steps"),
        ("counts.scheduled_steps", "scheduled_steps"),
        ("counts.faults_fired", "faults_fired"),
        ("counts.recurrences", "recurrences"),
        ("counts.search_accepts", "search_accepts"),
        ("counts.search_rejects", "search_rejects"),
        ("counts.runs", "runs"),
        ("counts.converged_runs", "converged_runs"),
    ] {
        metrics.set(metric, count(counter));
    }
    let (accepts, rejects) = (count("search_accepts"), count("search_rejects"));
    metrics.set("search.accept_ratio", ratio(accepts, accepts + rejects));
}

/// Where a traced run writes its spans: `perfbench/out/` in the checkout.
fn trace_path(args: &Args) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!("spans-{}-{}.ndjson", args.workload, args.seed))
}

/// Runs the named workload.  Each one's fixed work takes about two seconds
/// on two threads; the horizons are whole check intervals, at least 1.7
/// times the slowest convergence seen at that size (README.md).
fn run_workload(args: &Args) -> Outcome {
    let converge = |kind, n, trials, checks: u64| Converge {
        kind,
        n,
        trials,
        horizon: checks * check_interval(n),
    };
    match args.workload.as_str() {
        "ppl-ring" => bench(&converge(ProtocolKind::Ppl, 256, 6, 384), args),
        "fj-ring" => bench(&converge(ProtocolKind::FischerJiang, 256, 4, 48), args),
        "search-ring" => bench(
            &Search {
                cells: [ProtocolKind::Ppl, ProtocolKind::AngluinModK]
                    .into_iter()
                    .flat_map(|kind| [(kind, 64), (kind, 64)])
                    .collect(),
                options: RunOptions::new(true),
            },
            args,
        ),
        other => unreachable!("parse_args admits only known workloads, not {other:?}"),
    }
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> --seconds <n> --trace <0|1>",
                WORKLOADS.join("|")
            );
            std::process::exit(2);
        }
    };
    let Outcome {
        checked,
        steps,
        digest,
        metrics,
    } = run_workload(&args);
    for why in &checked.failures {
        eprintln!("perfbench: check failed: {why}");
    }
    println!(
        "{{\"workload\": \"{}\", \"seed\": {}, \"steps_total\": {steps}, \"sim_digest\": \"{}\"}}",
        args.workload,
        args.seed,
        digest.hex()
    );
    let catalogue: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    let json = match metrics.to_json(catalogue) {
        Ok(json) => json,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    };
    println!(
        "{}",
        result_line(
            checked.failed == 0,
            checked.attempted.max(1),
            checked.failed,
            &json
        )
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_the_driver_command_line() {
        let args = parse_args(&argv("--workload fj-ring --seed 7 --seconds 10 --trace 1")).unwrap();
        assert_eq!(
            args,
            Args {
                workload: "fj-ring".to_string(),
                seed: 7,
                seconds: 10,
                trace: true
            }
        );
        assert!(parse_args(&argv("--workload nope --seed 1")).is_err());
        assert!(parse_args(&argv("--workload fj-ring --seed x")).is_err());
        assert!(parse_args(&argv("--workload fj-ring --seed 1 --trace 2")).is_err());
        assert!(parse_args(&argv("--workload fj-ring --seed")).is_err());
        assert!(parse_args(&argv("--seed 1")).is_err());
    }

    /// `BENCHMARK.json` names exactly the workloads and metrics this program
    /// runs and prints, with the same units.
    #[test]
    fn benchmark_json_matches_the_catalogue() {
        use analysis::json::JsonValue;
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside perfbench/");
        let json = JsonValue::parse(&text).expect("BENCHMARK.json parses");
        let list = |key: &str| -> Vec<(String, String)> {
            let field = |entry: &JsonValue, f: &str| {
                entry
                    .get(f)
                    .and_then(JsonValue::as_str)
                    .unwrap_or_default()
                    .to_string()
            };
            json.get(key)
                .and_then(JsonValue::as_array)
                .unwrap_or_else(|| panic!("{key} is a list"))
                .iter()
                .map(|entry| (field(entry, "name"), field(entry, "unit")))
                .collect()
        };
        let owned = |c: &[(&str, &str)]| -> Vec<(String, String)> {
            c.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(list("end_to_end"), owned(&END_TO_END));
        assert_eq!(list("per_layer"), owned(&PER_LAYER));
        let workloads: Vec<String> = list("workloads").into_iter().map(|(n, _)| n).collect();
        assert_eq!(workloads, WORKLOADS);
        assert!(WORKLOADS.iter().all(|w| report::valid_name(w)));
    }

    #[test]
    fn steps_per_s_takes_each_operation_at_its_fastest() {
        let work = |secs: &[f64]| Work {
            steps: 10,
            secs: secs.to_vec(),
        };
        // Each pass was slowed somewhere; no single pass is the fastest
        // throughout.
        let works = [
            work(&[1.0, 3.0, 2.0]),
            work(&[2.0, 1.0, 2.5]),
            work(&[1.5, 2.0, 0.5]),
        ];
        assert_eq!(fastest_ops(&works), Some(2.5));
        assert_eq!(fastest_ops(&[work(&[1.0]), work(&[1.0, 2.0])]), None);
        assert_eq!(fastest(&[0.3, 0.1, 0.2]), 0.1);
    }
}
