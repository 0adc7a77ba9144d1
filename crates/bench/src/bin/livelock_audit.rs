//! CI audit of the certified-livelock machinery, in two independent parts:
//!
//! 1. **Explorer smoke** — exhaustively explores a tiny cell (`yokota`,
//!    directed 4-ring) and asserts the known exact result: the cell
//!    stabilizes, with worst-case optimal recovery in 11 interactions over
//!    1498 reachable configurations.  Pins the explicit-state explorer
//!    end to end, independent of any artifact.
//! 2. **Certificate audit** — decodes a committed `BENCH_stabilization.json`
//!    (v4) into typed cells through the report's validator, and
//!    **re-certifies** every cell that carries a livelock certificate: the
//!    cell's worst-case candidate, decoded from the JSON text, is replayed
//!    through the recurrence detector and phase closure, and the reproduced
//!    certificate must match the artifact bit-exactly.  At least one certified cell is required — the audit
//!    exists to keep the committed livelock claims checkable.
//!
//! ```text
//! cargo run --release -p ssle-bench --bin livelock_audit
//! cargo run --release -p ssle-bench --bin livelock_audit -- --report BENCH_stabilization.json
//! ```
//!
//! The report is read and validated before part 1 runs, so a missing or
//! malformed report fails at once.  Exits 1 on the first violated claim,
//! and 2 on a usage error.

use analysis::json::JsonValue;
use population::{ExploreLimits, ExploreVerdict, SweepPoint};
use ssle_bench::cli::flags;
use ssle_bench::stabilization::{
    certify_cell, stab_budget, stab_scenario, validate_report, GridGraph, Report,
    ESCALATION_STEP_CEILING,
};
use ssle_bench::tracked::{point_name, TrackedReport};
use ssle_bench::ProtocolKind;

const USAGE: &str = "\
options:
  --report PATH  stabilization report to audit (default: BENCH_stabilization.json)
  --help         print this message";

fn fail(msg: &str) -> ! {
    eprintln!("error: {msg}");
    std::process::exit(1);
}

fn usage_error(msg: &str) -> ! {
    eprintln!("error: {msg}\n{USAGE}");
    std::process::exit(2);
}

/// Parses the command line into the report to audit.  `Ok(None)` means
/// `--help` was requested.
fn parse_args(args: impl IntoIterator<Item = String>) -> Result<Option<String>, String> {
    let mut report = String::from("BENCH_stabilization.json");
    for token in flags(args, "--report", "--help -h") {
        match token? {
            (_, Some(path)) => report = path,
            (flag, None) if flag == "--help" || flag == "-h" => return Ok(None),
            (other, None) => return Err(format!("unknown option {other:?}")),
        }
    }
    Ok(Some(report))
}

fn main() {
    let report = match parse_args(std::env::args().skip(1)) {
        Ok(Some(report)) => report,
        Ok(None) => return println!("{USAGE}"),
        Err(message) => usage_error(&message),
    };

    // The report is read and validated first, so a bad path or a broken
    // artifact fails before the exploration runs.
    let text = std::fs::read_to_string(&report)
        .unwrap_or_else(|e| fail(&format!("cannot read {report}: {e}")));
    let parsed = JsonValue::parse(&text)
        .unwrap_or_else(|e| fail(&format!("{report} does not parse as JSON: {e}")));
    let cells = validate_report(&parsed)
        .unwrap_or_else(|e| fail(&format!("{report} violates the schema: {e}")));

    // Part 1: the explorer on a tiny cell, against its known exact result.
    let kind = ProtocolKind::Yokota;
    let n = 4;
    let scenario = stab_scenario(kind, GridGraph::Ring, 0, stab_budget(kind, n, true));
    let explored = scenario
        .explore(&SweepPoint::new(n, 0xE6), &ExploreLimits::default())
        .unwrap_or_else(|e| fail(&format!("tiny-cell exploration failed: {e}")));
    match explored.verdict {
        ExploreVerdict::Stabilizes {
            exact_worst_steps, ..
        } if exact_worst_steps == 11 && explored.reachable == 1498 => {
            println!(
                "explorer: yokota/ring/4 stabilizes; exact worst {exact_worst_steps} \
                 steps over {} reachable configurations",
                explored.reachable
            );
        }
        other => fail(&format!(
            "yokota/ring/4 must stabilize with exact worst 11 over 1498 \
             configurations, got {other:?} over {}",
            explored.reachable
        )),
    }

    // Part 2: every certified livelock in the committed artifact replays.
    let mut certified = 0usize;
    for cell in &cells {
        let Some(expected) = cell.certified else {
            continue;
        };
        let (kind, graph, n) = Report::point(cell);
        let ctx = point_name((kind, graph, n));
        match certify_cell(
            kind,
            graph,
            n,
            cell.budget,
            ESCALATION_STEP_CEILING,
            &cell.worst,
        ) {
            Some(again) if again == expected => {
                certified += 1;
                println!(
                    "certified: {ctx} replays (entry {}, period {}, {})",
                    again.entry_step,
                    again.period,
                    if again.exhaustive {
                        "exhaustive closure"
                    } else {
                        "recurrence tier"
                    }
                );
            }
            Some(again) => fail(&format!(
                "{ctx}: replayed certificate {again:?} differs from artifact {expected:?}"
            )),
            None => fail(&format!("{ctx}: certified cell does not re-certify")),
        }
    }
    if certified == 0 {
        fail(&format!("{report} carries no certified livelock"));
    }
    println!("audit passed: {certified} certified livelock(s) replayed from {report}");
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(line: &[&str]) -> Result<Option<String>, String> {
        parse_args(line.iter().map(|s| s.to_string()))
    }

    #[test]
    fn flags_parse() {
        let default = Some("BENCH_stabilization.json".to_string());
        assert_eq!(parse(&[]), Ok(default));
        assert_eq!(parse(&["--report", "p"]), Ok(Some("p".to_string())));
        assert_eq!(parse(&["--report=p"]), Ok(Some("p".to_string())));
        assert_eq!(parse(&["--help"]), Ok(None));
        for bad in [&["--report"][..], &["--help=1"], &["--unknown"], &["extra"]] {
            assert!(parse(bad).is_err(), "{bad:?} should be rejected");
        }
    }
}
