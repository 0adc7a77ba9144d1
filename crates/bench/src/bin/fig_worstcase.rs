//! Experiment E12 — worst-case stabilization on the ring.
//!
//! For every Table 1 protocol and each population size, the binary measures
//! the mean stabilization time of a random-scheduler trial pool and then
//! lets the `ssle-adversary` search engine attack the same scenario:
//! island annealing over initial-condition variants (`P_PL` gets the full
//! adversarial family zoo of `ssle_core::init`), seeds, scheduler-zoo
//! parameters (weighted arc distributions, epoch partitions, and the
//! state-aware greedy adversary — scored by the segment/token potential of
//! `ssle-core` for `P_PL`, a leader-preservation potential otherwise) and
//! mid-run crash schedules (`FaultPlanSpec`).  Reported per cell: mean vs
//! worst-found steps, the worst/mean ratio, the reproducible worst-case
//! certificate (init variant, seed, scheduler, fault plan) — and the
//! **stabilization-rate curve**: the certificate replayed with fresh seeds
//! at 1×/2×/4× the step budget, recording the converged fraction per
//! multiplier, which is what distinguishes a slow cell from a livelocked
//! one.
//!
//! ```text
//! cargo run --release -p ssle-bench --bin fig_worstcase
//! cargo run --release -p ssle-bench --bin fig_worstcase -- --sizes 16,32 --trials 4 --json
//! ```
//!
//! `--trials` sizes the random pool (and the rate replays); `--full`
//! doubles the search depth; `--threads` shards pools, islands and replays
//! without changing any result.  Sizes default to small rings (worst-case
//! search re-runs each scenario dozens of times; see `stabilization_report`
//! for the tracked large-`n` grid).

use analysis::Table;
use ssle_adversary::{
    worst_case_search_islands, Candidate, ChurnDomain, Evaluation, FaultDomain, GraphDomain,
    IslandConfig, SearchSpace, SpecDomain,
};
use ssle_bench::cli::BenchArgs;
use ssle_bench::report::Report;
use ssle_bench::stabilization::GridGraph;
use ssle_bench::stabilization::{
    dyn_protocol, evaluate_with, leader_delta_scorer, ppl_segment_scorer, rate_curve_with,
    stab_budget, variant_names, ESCALATION_STEP_CEILING, MAX_RATE_MULTIPLIER, RATE_MULTIPLIERS,
};
use ssle_bench::ProtocolKind;

/// Evaluates one candidate on the ring through the shared censoring policy
/// of `stabilization::evaluate_with`, with the protocol-appropriate greedy
/// potential: the `ssle-core` segment potential for `P_PL` (O(n) per scored
/// arc — affordable at these sizes), leader preservation otherwise.
fn evaluate(kind: ProtocolKind, n: usize, budget: u64, candidate: &Candidate) -> Evaluation {
    evaluate_with(
        kind,
        GridGraph::Ring,
        n,
        budget,
        candidate,
        |kind, n| match kind {
            ProtocolKind::Ppl | ProtocolKind::PplPaperConstants => ppl_segment_scorer(n),
            _ => leader_delta_scorer(dyn_protocol(kind, n)),
        },
    )
}

fn main() {
    let args = BenchArgs::parse();
    // Worst-case search re-runs every scenario (trials + iterations) times;
    // default to small rings instead of the sweep preset.
    let sizes = args.sizes.clone().unwrap_or_else(|| vec![16, 24, 32]);
    let trials = args.trials.unwrap_or(4);
    let islands = 4u32;
    let island_iterations = if args.full { 6 } else { 3 };
    let runner = args.runner();

    let mut report = Report::new("Worst-case stabilization search (E12, directed ring)");
    let mut table = Table::new(
        "Mean (random scheduler) vs worst-found stabilization steps",
        &[
            "protocol",
            "n",
            "mean steps",
            "worst steps",
            "worst/mean",
            "worst scheduler",
            "worst faults",
            "worst init",
            "converged",
        ],
    );
    // One column per possible rung of the adaptive curve: the base
    // multipliers plus every doubling the escalation may reach.  Cells
    // whose curve stopped earlier show "-" for the rungs they never ran.
    let mut all_mults: Vec<u64> = RATE_MULTIPLIERS.to_vec();
    while *all_mults.last().expect("non-empty multipliers") < MAX_RATE_MULTIPLIER {
        all_mults.push(all_mults.last().unwrap() * 2);
    }
    let rate_header: Vec<String> = all_mults.iter().map(|m| format!("rate@{m}x")).collect();
    let mut rate_columns: Vec<&str> = vec!["protocol", "n"];
    rate_columns.extend(rate_header.iter().map(String::as_str));
    let mut rate_table = Table::new(
        "Adaptive stabilization-rate curves of the worst-case certificates \
         (fraction of fresh-seed replays converged within multiplier x budget; \
         flat-0 base curves escalate geometrically, '-' = rung not run)",
        &rate_columns,
    );
    for kind in ProtocolKind::ALL {
        for &n in &sizes {
            let budget = stab_budget(kind, n, false);
            let base = args.seed_or(0xE12) ^ ((n as u64) << 16);
            let pool_candidates: Vec<Candidate> = (0..trials)
                .map(|t| Candidate::baseline(base.wrapping_add(t as u64)))
                .collect();
            let pool: Vec<(Candidate, Evaluation)> = runner
                .run_map(&pool_candidates, |c| evaluate(kind, n, budget, c))
                .into_iter()
                .zip(pool_candidates.iter().cloned())
                .map(|(e, c)| (c, e))
                .collect();
            let mean = pool.iter().map(|(_, e)| e.steps as f64).sum::<f64>() / trials as f64;
            let space = SearchSpace {
                variants: variant_names(kind).len() as u32,
                specs: SpecDomain::all(),
                faults: FaultDomain::bursts(budget.saturating_sub(1), n as u32),
                churn: ChurnDomain::disabled(),
                graph: GraphDomain::disabled(),
            };
            let outcome = worst_case_search_islands(
                &space,
                &pool,
                |c| evaluate(kind, n, budget, c),
                &IslandConfig {
                    islands,
                    iterations: island_iterations,
                    seed: base ^ 0xFACE,
                    cooling: 0.85,
                },
                &runner,
            );
            let best = outcome.best;
            table.push_row(vec![
                kind.key().to_string(),
                n.to_string(),
                format!("{mean:.3e}"),
                best.steps.to_string(),
                format!("{:.2}x", best.steps as f64 / mean.max(1.0)),
                best.candidate.spec.key(),
                best.candidate.faults.key(),
                variant_names(kind)[best.candidate.variant as usize].to_string(),
                best.converged.to_string(),
            ]);

            // The rate curve: the same metric definition as the tracked
            // report, with this binary's segment-scored evaluation.
            let rate = rate_curve_with(
                budget,
                &best.candidate,
                false,
                base ^ 0x7A7E,
                trials,
                ESCALATION_STEP_CEILING,
                &runner,
                |c, b| evaluate(kind, n, b, c),
            );
            let mut row = vec![kind.key().to_string(), n.to_string()];
            row.extend(all_mults.iter().map(
                |m| match rate.multipliers.iter().position(|rm| rm == m) {
                    Some(i) => format!("{:.2}", rate.fractions[i]),
                    None => "-".to_string(),
                },
            ));
            rate_table.push_row(row);
        }
    }
    report.table(table);
    report.table(rate_table);
    report.note(
        "Worst cases are reproducible certificates: re-running the scenario with the listed\n\
         init variant, seed, scheduler and fault plan yields the same step count.\n\
         `converged = false` means the worst case censored at the step budget; the rate\n\
         curve then tells slow apart from stuck — a livelocked certificate stays near 0\n\
         across every multiplier, a merely-slow one climbs toward 1.  The tracked large-n\n\
         grid lives in BENCH_stabilization.json (see `stabilization_report`).",
    );
    report.emit(args.json);
}
