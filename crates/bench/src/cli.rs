//! The shared command-line interface of the experiment binaries.
//!
//! Every `ssle-bench` binary accepts the same flags:
//!
//! ```text
//! --full             the larger (slower) sweep documented in EXPERIMENTS.md
//! --sizes 16,32,64   population sizes (overrides the preset sweep)
//! --trials N         trials per size (overrides the preset sweep)
//! --seed N           base seed of the sweep grid
//! --threads N        worker threads of the batch runner
//! --json             machine-readable JSON on stdout instead of markdown
//! --telemetry        write an ssle-telemetry/v1 NDJSON trace alongside
//! --telemetry-out P  trace file (implies --telemetry)
//! --help             print usage
//! ```

use population::{BatchRunner, SweepGrid};

use crate::trace::TraceGuard;
use crate::{sweep_sizes, sweep_trials};

/// Usage text shared by every experiment binary.
pub const USAGE: &str = "\
options:
  --full             run the larger (slower) sweep from EXPERIMENTS.md
  --sizes LIST       comma-separated population sizes (e.g. --sizes 16,32,64)
  --trials N         trials per size
  --seed N           base seed of the sweep grid
  --threads N        worker threads of the batch runner
  --json             emit machine-readable JSON instead of markdown
  --telemetry        write an ssle-telemetry/v1 NDJSON trace alongside the
                     report (default file: <binary>.trace.ndjson)
  --telemetry-out P  telemetry trace file (implies --telemetry)
  --help             print this message";

/// Why a command line failed to parse.  Typed so callers (and tests) can
/// distinguish a degenerate-but-well-formed value from a malformed line,
/// instead of string-matching the message.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ParseError {
    /// A count flag was given the value `0`, which downstream code would
    /// silently clamp or degenerate on (`BatchRunner::with_threads(0)`
    /// quietly runs single-threaded; zero trials print an empty report).
    ZeroCount {
        /// The offending flag, e.g. `--threads`.
        flag: &'static str,
    },
    /// Anything else: unknown flag, missing value, unparsable number,
    /// out-of-domain size.
    Malformed(String),
}

impl ParseError {
    /// Shorthand for the catch-all variant.
    fn malformed(message: impl Into<String>) -> Self {
        ParseError::Malformed(message.into())
    }
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ParseError::ZeroCount { flag } => write!(
                f,
                "{flag} must be at least 1 (0 would silently degenerate; \
                 omit the flag for the default instead)"
            ),
            ParseError::Malformed(message) => f.write_str(message),
        }
    }
}

impl std::error::Error for ParseError {}

/// The one tokenizer behind every command line of the crate's binaries.
/// `valued` and `switches` are space-separated flag names.  `--flag value`
/// and `--flag=value` (split at the first `=`) both give `(flag,
/// Some(value))` for a flag in `valued`; a flag in `switches` gives `(flag,
/// None)` and rejects an `=value`; any other argument comes back whole as
/// `(arg, None)`, for the caller to take as a positional argument or reject
/// as unknown.
pub fn flags<I: IntoIterator<Item = String>>(
    args: I,
    valued: &'static str,
    switches: &'static str,
) -> impl Iterator<Item = Result<(String, Option<String>), String>> {
    let listed = |list: &str, flag: &str| list.split(' ').any(|f| f == flag);
    let mut args = args.into_iter();
    std::iter::from_fn(move || {
        let arg = args.next()?;
        let (flag, inline) = match arg.split_once('=') {
            Some((f, v)) if listed(valued, f) || listed(switches, f) => (f.into(), Some(v.into())),
            _ => (arg, None),
        };
        Some(match (listed(valued, &flag), inline) {
            (true, inline) => match inline.or_else(|| args.next()) {
                Some(value) => Ok((flag, Some(value))),
                None => Err(format!("{flag} requires a value")),
            },
            (false, Some(_)) => Err(format!("{flag} does not take a value")),
            (false, None) => Ok((flag, None)),
        })
    })
}

/// Parsed command-line arguments of an experiment binary.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct BenchArgs {
    /// `--full`: use the larger sweep preset.
    pub full: bool,
    /// `--json`: emit JSON instead of markdown.
    pub json: bool,
    /// `--sizes`: explicit population sizes (overrides the preset).
    pub sizes: Option<Vec<usize>>,
    /// `--trials`: explicit trials per size (overrides the preset).
    pub trials: Option<usize>,
    /// `--seed`: explicit base seed (overrides each binary's default).
    pub seed: Option<u64>,
    /// `--threads`: explicit worker-thread count.
    pub threads: Option<usize>,
    /// `--telemetry` (or `--telemetry-out`): write an NDJSON trace.
    pub telemetry: bool,
    /// `--telemetry-out`: explicit trace path (implies `--telemetry`).
    pub telemetry_out: Option<String>,
}

impl BenchArgs {
    /// Parses `std::env::args()`, printing usage and exiting on `--help` or
    /// on a malformed command line.
    ///
    /// Under `--telemetry`/`--telemetry-out` this also opens the trace, with
    /// the binary's name as producer; [`crate::report::Report::emit`]
    /// finishes it.  A trace file that cannot be created exits with status 1.
    pub fn parse() -> Self {
        let mut argv = std::env::args();
        let producer = argv
            .next()
            .as_deref()
            .map(std::path::Path::new)
            .and_then(std::path::Path::file_stem)
            .and_then(std::ffi::OsStr::to_str)
            .unwrap_or("ssle-bench")
            .to_string();
        let args = match Self::try_parse(argv) {
            Ok(Some(args)) => args,
            Ok(None) => {
                println!("{USAGE}");
                std::process::exit(0);
            }
            Err(message) => {
                eprintln!("error: {message}\n{USAGE}");
                std::process::exit(2);
            }
        };
        match TraceGuard::start(args.telemetry, args.telemetry_out.as_deref(), &producer) {
            Ok(trace) => crate::trace::keep_until_emit(trace),
            Err(e) => {
                eprintln!("error: {e}");
                std::process::exit(1);
            }
        }
        args
    }

    /// Parses an argument iterator.  `Ok(None)` means `--help` was requested.
    ///
    /// # Errors
    ///
    /// Returns a message describing the offending flag or value.
    pub fn try_parse<I>(args: I) -> Result<Option<Self>, ParseError>
    where
        I: IntoIterator<Item = String>,
    {
        let mut out = BenchArgs::default();
        let valued = "--telemetry-out --sizes --trials --seed --threads";
        let switches = "--help -h --full --json --telemetry";
        for token in flags(args, valued, switches) {
            let (flag, value) = token.map_err(ParseError::Malformed)?;
            let raw = value.unwrap_or_default();
            match flag.as_str() {
                "--help" | "-h" => return Ok(None),
                "--full" => out.full = true,
                "--json" => out.json = true,
                "--telemetry" => out.telemetry = true,
                "--telemetry-out" => {
                    out.telemetry_out = Some(raw);
                    out.telemetry = true;
                }
                "--sizes" => {
                    let sizes: Result<Vec<usize>, _> = raw
                        .split(',')
                        .filter(|s| !s.is_empty())
                        .map(|s| s.trim().parse::<usize>())
                        .collect();
                    let sizes = sizes.map_err(|_| {
                        ParseError::malformed(format!("--sizes: cannot parse {raw:?} as sizes"))
                    })?;
                    if sizes.is_empty() {
                        return Err(ParseError::malformed(
                            "--sizes: at least one size is required",
                        ));
                    }
                    if let Some(&bad) = sizes.iter().find(|&&n| n < 2) {
                        return Err(ParseError::malformed(format!(
                            "--sizes: population size {bad} is below the model's minimum of 2"
                        )));
                    }
                    out.sizes = Some(sizes);
                }
                "--trials" => {
                    let trials: usize = raw.parse().map_err(|_| {
                        ParseError::malformed(format!("--trials: cannot parse {raw:?}"))
                    })?;
                    // Zero trials would run nothing and still exit 0 with
                    // an empty report.
                    if trials == 0 {
                        return Err(ParseError::ZeroCount { flag: "--trials" });
                    }
                    out.trials = Some(trials);
                }
                "--seed" => {
                    out.seed = Some(raw.parse().map_err(|_| {
                        ParseError::malformed(format!("--seed: cannot parse {raw:?}"))
                    })?);
                }
                "--threads" => {
                    let threads: usize = raw.parse().map_err(|_| {
                        ParseError::malformed(format!("--threads: cannot parse {raw:?}"))
                    })?;
                    // `BatchRunner::with_threads(0)` silently clamps to 1;
                    // reject the degenerate request here instead.
                    if threads == 0 {
                        return Err(ParseError::ZeroCount { flag: "--threads" });
                    }
                    out.threads = Some(threads);
                }
                other => return Err(ParseError::malformed(format!("unknown option {other:?}"))),
            }
        }
        Ok(Some(out))
    }

    /// The population sizes of the sweep: `--sizes` if given, otherwise the
    /// quick/full preset.
    pub fn sizes(&self) -> Vec<usize> {
        self.sizes.clone().unwrap_or_else(|| sweep_sizes(self.full))
    }

    /// The trials per size: `--trials` if given, otherwise the quick/full
    /// preset.
    pub fn trials(&self) -> usize {
        self.trials.unwrap_or_else(|| sweep_trials(self.full))
    }

    /// The base seed: `--seed` if given, otherwise the binary's default.
    pub fn seed_or(&self, default: u64) -> u64 {
        self.seed.unwrap_or(default)
    }

    /// A batch runner honouring `--threads`.
    pub fn runner(&self) -> BatchRunner {
        match self.threads {
            Some(t) => BatchRunner::with_threads(t),
            None => BatchRunner::new(),
        }
    }

    /// The standard sweep grid of this invocation: sizes × trials with the
    /// given default base seed.
    pub fn grid(&self, default_seed: u64) -> SweepGrid {
        SweepGrid::new()
            .sizes(&self.sizes())
            .trials(self.trials(), self.seed_or(default_seed))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> BenchArgs {
        BenchArgs::try_parse(args.iter().map(|s| s.to_string()))
            .unwrap()
            .unwrap()
    }

    #[test]
    fn defaults_match_the_quick_preset() {
        let args = parse(&[]);
        assert!(!args.full && !args.json);
        assert_eq!(args.sizes(), sweep_sizes(false));
        assert_eq!(args.trials(), sweep_trials(false));
        assert_eq!(args.seed_or(7), 7);
        assert!(args.runner().num_threads() >= 1);
    }

    #[test]
    fn full_flag_selects_the_large_preset() {
        let args = parse(&["--full"]);
        assert!(args.full);
        assert_eq!(args.sizes(), sweep_sizes(true));
        assert_eq!(args.trials(), sweep_trials(true));
    }

    #[test]
    fn explicit_values_override_presets() {
        let args = parse(&[
            "--sizes",
            "16,32, 64",
            "--trials",
            "3",
            "--seed",
            "99",
            "--threads",
            "2",
            "--json",
        ]);
        assert_eq!(args.sizes(), vec![16, 32, 64]);
        assert_eq!(args.trials(), 3);
        assert_eq!(args.seed_or(7), 99);
        assert_eq!(args.runner().num_threads(), 2);
        assert!(args.json);
        let grid = args.grid(7);
        assert_eq!(grid.num_points(), 9);
    }

    #[test]
    fn equals_syntax_is_accepted() {
        let args = parse(&["--sizes=8,16", "--trials=2", "--seed=5", "--threads=2"]);
        assert_eq!(args.sizes(), vec![8, 16]);
        assert_eq!(args.trials(), 2);
        assert_eq!(args.seed_or(0), 5);
        assert_eq!(args.threads, Some(2));
    }

    #[test]
    fn telemetry_out_implies_telemetry() {
        let args = parse(&["--telemetry"]);
        assert!(args.telemetry);
        assert_eq!(args.telemetry_out, None);
        let args = parse(&["--telemetry-out", "run.ndjson"]);
        assert!(args.telemetry, "--telemetry-out must imply --telemetry");
        assert_eq!(args.telemetry_out.as_deref(), Some("run.ndjson"));
        let args = parse(&["--telemetry-out=run.ndjson"]);
        assert_eq!(args.telemetry_out.as_deref(), Some("run.ndjson"));
        assert!(BenchArgs::try_parse(["--telemetry-out".to_string()]).is_err());
        assert!(BenchArgs::try_parse(["--telemetry=1".to_string()]).is_err());
    }

    #[test]
    fn help_returns_none() {
        assert_eq!(BenchArgs::try_parse(["--help".to_string()]).unwrap(), None);
    }

    #[test]
    fn zero_thread_and_trial_counts_are_rejected_with_a_typed_error() {
        // Regression: `--threads 0` used to parse and then silently run
        // single-threaded (`BatchRunner::with_threads(0)` clamps to 1), and
        // `--trials 0` to print an empty report with exit status 0.
        for (flag, line) in [
            ("--threads", vec!["--threads", "0"]),
            ("--threads", vec!["--threads=0"]),
            ("--trials", vec!["--trials", "0"]),
            ("--trials", vec!["--trials=0"]),
        ] {
            let err = BenchArgs::try_parse(line.iter().map(|s| s.to_string())).unwrap_err();
            assert_eq!(
                err,
                ParseError::ZeroCount { flag },
                "{line:?} must be the typed zero-count rejection"
            );
            assert!(
                err.to_string()
                    .contains(&format!("{flag} must be at least 1")),
                "message must name the flag and the floor: {err}"
            );
        }
        // The boundary values stay accepted.
        assert_eq!(parse(&["--threads", "1"]).threads, Some(1));
        assert_eq!(parse(&["--trials", "1"]).trials, Some(1));
    }

    #[test]
    fn malformed_lines_are_rejected() {
        for bad in [
            vec!["--sizes"],
            vec!["--sizes", "a,b"],
            vec!["--sizes", ""],
            vec!["--trials", "x"],
            vec!["--seed"],
            vec!["--threads", "-1"],
            vec!["--sizes", "1"],
            vec!["--sizes", "16,0"],
            vec!["--json=false"],
            vec!["--full=0"],
            vec!["--unknown"],
            vec!["extra"],
        ] {
            assert!(
                BenchArgs::try_parse(bad.iter().map(|s| s.to_string())).is_err(),
                "{bad:?} should be rejected"
            );
        }
    }
}
