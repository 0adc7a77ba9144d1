//! Digests an `ssle-telemetry/v1` NDJSON trace into a human-readable
//! summary: validate the stream against the full event taxonomy, fold it
//! into a [`TraceDigest`] (runs, convergence, faults, search islands,
//! final metrics snapshot), and print the digest as
//! markdown (default) or JSON.
//!
//! ```text
//! cargo run --release -p ssle-bench --bin stabilization_report -- --quick --telemetry
//! cargo run --release -p ssle-bench --bin telemetry_summary -- stabilization_report.trace.ndjson
//! cargo run --release -p ssle-bench --bin telemetry_summary -- trace.ndjson --json --out digest.json
//! ```
//!
//! The binary exits non-zero when the trace violates the schema (unknown
//! event kinds, out-of-order sequence numbers, mistyped fields), so it
//! doubles as the stream validator in CI.  A truncated trace — one whose
//! producer died before writing `stream_end` — is still valid as a prefix;
//! the digest marks it `complete: false`.

use ssle_bench::cli::flags;
use ssle_telemetry::TraceDigest;

const USAGE: &str = "\
usage: telemetry_summary TRACE.ndjson [options]
options:
  --json         emit the digest as JSON instead of markdown
  --out PATH     also write the digest to PATH
  --help         print this message";

/// Parsed flags of one invocation.
#[derive(Debug, Default, PartialEq, Eq)]
struct Args {
    trace: String,
    json: bool,
    out: Option<String>,
}

/// Parses the command line.  `Ok(None)` means `--help` was requested.
fn parse_args<I>(args: I) -> Result<Option<Args>, String>
where
    I: IntoIterator<Item = String>,
{
    let mut out = Args::default();
    let mut trace: Option<String> = None;
    for token in flags(args, "--out", "--json --help -h") {
        match token? {
            (_, Some(path)) => out.out = Some(path),
            (flag, None) if flag == "--json" => out.json = true,
            (flag, None) if flag == "--help" || flag == "-h" => return Ok(None),
            (flag, None) if flag.starts_with('-') => {
                return Err(format!("unknown option {flag:?}"))
            }
            (path, None) if trace.is_none() => trace = Some(path),
            _ => return Err("exactly one trace file is expected".to_string()),
        }
    }
    out.trace = trace.ok_or("a trace file is required")?;
    Ok(Some(out))
}

fn main() {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(Some(args)) => args,
        Ok(None) => {
            println!("{USAGE}");
            return;
        }
        Err(message) => {
            eprintln!("error: {message}\n{USAGE}");
            std::process::exit(2);
        }
    };

    let text = match std::fs::read_to_string(&args.trace) {
        Ok(text) => text,
        Err(e) => {
            eprintln!("error: cannot read {}: {e}", args.trace);
            std::process::exit(1);
        }
    };
    let digest = match TraceDigest::from_stream(&text) {
        Ok(digest) => digest,
        Err(e) => {
            eprintln!(
                "error: {} is not a valid {} stream: {e}",
                args.trace,
                ssle_telemetry::SCHEMA
            );
            std::process::exit(1);
        }
    };

    let rendered = if args.json {
        digest.to_json_value().to_json()
    } else {
        digest.to_markdown()
    };
    if let Some(path) = &args.out {
        if let Err(e) = std::fs::write(path, &rendered) {
            eprintln!("error: cannot write {path}: {e}");
            std::process::exit(1);
        }
    }
    println!("{rendered}");
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(line: &[&str]) -> Result<Option<Args>, String> {
        parse_args(line.iter().map(|s| s.to_string()))
    }

    #[test]
    fn flags_parse() {
        let args = parse(&["trace.ndjson"]).unwrap().unwrap();
        assert_eq!(args.trace, "trace.ndjson");
        assert!(!args.json && args.out.is_none());
        let args = parse(&["--json", "t.ndjson", "--out", "d.json"])
            .unwrap()
            .unwrap();
        assert!(args.json);
        assert_eq!(args.trace, "t.ndjson");
        assert_eq!(args.out.as_deref(), Some("d.json"));
        let args = parse(&["t.ndjson", "--out=x.json"]).unwrap().unwrap();
        assert_eq!(args.out.as_deref(), Some("x.json"));
        assert_eq!(parse(&["--help"]).unwrap(), None);
    }

    #[test]
    fn bad_lines_are_rejected() {
        for bad in [
            vec![],
            vec!["a.ndjson", "b.ndjson"],
            vec!["--json"],
            vec!["--out", "d.json"],
            vec!["t.ndjson", "--unknown"],
            vec!["t.ndjson", "--json=1"],
            vec!["t.ndjson", "--out"],
        ] {
            assert!(parse(&bad).is_err(), "{bad:?} should be rejected");
        }
    }
}
