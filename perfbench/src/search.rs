//! The `search-ring` workload: the stages of the worst-case stabilization
//! search — the candidate pool, the annealing islands, livelock
//! certification and the rate replays — through their public functions, on
//! search cells of `P_PL` and Angluin mod-k at n = 64 on the directed ring,
//! at the report's quick `RunOptions` sizes.
//!
//! Which stage runs which scheduler kind is fixed, so a run's cost does not
//! hinge on what the annealing happens to propose (a free search varied
//! 0.14–6.6 s a run across five seeds):
//!
//! * every pool holds, besides the report's random baselines, one
//!   seed-derived weighted candidate and three epoch-partition ones, each
//!   with a crash burst;
//! * the islands anneal from that pool over the state-blind zoo.  A greedy
//!   step scores candidate arcs and costs ten times a plain one, so the
//!   seed's share of greedy steps would set a run's speed; the greedy
//!   adversary runs in the traced run's probe instead;
//! * `P_PL` cells certify their first censored epoch-partition candidate.
//!   The recurrence detector runs to the step ceiling and finds nothing,
//!   so the cost is steady.  Angluin cells can recur, and their phase
//!   closure grows the heap by tens of MiB on some seeds only, so they
//!   certify in the probe alone;
//! * the rate replays follow the weighted candidate.

use std::sync::Mutex;
use std::time::Instant;

use population::{BatchRunner, GraphFamily, SweepPoint};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use ssle_adversary::{
    worst_case_search_islands, Candidate, CertifiedLivelock, ChurnDomain, ChurnPlanSpec,
    Evaluation, FaultDomain, FaultPlacementSpec, FaultPlanSpec, GraphDomain, IslandConfig,
    IslandOutcome, SchedulerSpec, SearchSpace, SpecDomain,
};
use ssle_bench::stabilization::{
    certify_cell, evaluate, rate_curve_with, stab_budget, stab_scenario, variant_names, GridGraph,
    RateCurve, RunOptions, RATE_MULTIPLIERS,
};
use ssle_bench::ProtocolKind;

use crate::layers;
use crate::report::Metrics;
use crate::spans::{Span, Tracer};
use crate::util::{median, mix, ratio, tail, Digest};
use crate::{batch_metrics, Checked, Work, Workload};

/// The scheduler kinds of the zoo, with the metric of their per-step time.
const SPEC_KINDS: [(&str, &str); 4] = [
    ("random", "adversary.step_ns.random"),
    ("weighted", "adversary.step_ns.weighted"),
    ("epoch-partition", "adversary.step_ns.epoch-partition"),
    ("greedy", "adversary.step_ns.greedy"),
];

/// Epoch-partition candidates per pool: certification takes the first the
/// pool leaves censored, and with three one nearly always is.
const EPOCH_CANDIDATES: usize = 3;

/// One search workload: a cell per `(protocol, n)`, at `options` sizes.
/// Cells run in parallel, each on one thread, as the report's grid does.
#[derive(Clone, Debug)]
pub struct Search {
    pub cells: Vec<(ProtocolKind, usize)>,
    pub options: RunOptions,
}

/// The seed-derived inputs of one cell.
#[derive(Debug)]
pub struct Cell {
    kind: ProtocolKind,
    n: usize,
    budget: u64,
    base: u64,
    /// The random baselines, then the weighted and epoch-partition
    /// candidates.
    pool: Vec<Candidate>,
    space: SearchSpace,
}

/// The inputs of one run.
#[derive(Debug)]
pub struct Plan {
    cells: Vec<Cell>,
    /// Seconds spent in `Scenario::prepare` for every cell and variant.
    pub config_s: f64,
    /// Seconds spent building the rings.
    pub graph_s: f64,
}

/// One `evaluate` call: the spec kind it ran, its score and its seconds.
#[derive(Clone, Copy, Debug)]
pub struct EvalRecord {
    pub kind: &'static str,
    pub steps: u64,
    pub secs: f64,
}

/// What one cell's stages returned.
#[derive(Debug)]
pub struct CellRun {
    pub outcome: IslandOutcome,
    /// `None` when the cell does not certify; otherwise the certifier's
    /// verdict on the candidate it replayed.
    pub certified: Option<Option<CertifiedLivelock>>,
    pub rate: RateCurve,
    pub evals: Vec<EvalRecord>,
}

/// The [`SPEC_KINDS`] name of a spec.
fn spec_kind(spec: &SchedulerSpec) -> &'static str {
    let i = match spec {
        SchedulerSpec::Random => 0,
        SchedulerSpec::Weighted { .. } => 1,
        SchedulerSpec::EpochPartition { .. } => 2,
        SchedulerSpec::Greedy { .. } => 3,
    };
    SPEC_KINDS[i].0
}

impl Cell {
    fn new(kind: ProtocolKind, n: usize, base: u64, options: &RunOptions) -> Cell {
        let budget = stab_budget(kind, n, options.quick);
        let variants = variant_names(kind).len() as u32;
        let zoo = SpecDomain::all();
        let mut rng = ChaCha8Rng::seed_from_u64(base);
        let mut specs = vec![SchedulerSpec::Weighted {
            hot_per_mille: rng.gen_range(1..=500),
            bias: rng.gen_range(2..=zoo.max_bias),
            seed: rng.gen(),
        }];
        for _ in 0..EPOCH_CANDIDATES {
            specs.push(SchedulerSpec::EpochPartition {
                blocks: rng.gen_range(2..=zoo.max_blocks),
                epoch_len: rng.gen_range(1..=zoo.max_epoch_len),
            });
        }
        let mut pool: Vec<Candidate> = (0..options.trials)
            .map(|t| Candidate::baseline(base.wrapping_add(t as u64)))
            .collect();
        for spec in specs {
            pool.push(Candidate {
                variant: rng.gen_range(0..variants),
                seed: rng.gen(),
                spec,
                faults: FaultPlanSpec::none().with_event(
                    rng.gen_range(1..budget),
                    FaultPlacementSpec::Random {
                        count: rng.gen_range(1..=n as u32),
                    },
                ),
                churn: ChurnPlanSpec::none(),
                graph: None,
            });
        }
        Cell {
            kind,
            n,
            budget,
            base,
            pool,
            space: SearchSpace {
                variants,
                specs: SpecDomain::state_blind(),
                faults: FaultDomain::bursts(budget.saturating_sub(1), n as u32),
                churn: ChurnDomain::disabled(),
                graph: GraphDomain::disabled(),
            },
        }
    }

    /// Whether the cell certifies in the timed work (see the module note).
    fn certifies(&self) -> bool {
        self.kind == ProtocolKind::Ppl
    }

    /// The pool's candidates of the given zoo kind, in pool order.
    fn pool_of<'a>(&'a self, kind: &'a str) -> impl Iterator<Item = &'a Candidate> + 'a {
        self.pool.iter().filter(move |c| spec_kind(&c.spec) == kind)
    }

    /// The candidate to certify: the first epoch-partition candidate the
    /// pool left censored, else the first one.
    fn to_certify<'a>(&'a self, pool: &'a [(Candidate, Evaluation)]) -> &'a Candidate {
        pool.iter()
            .find(|(c, e)| spec_kind(&c.spec) == "epoch-partition" && !e.converged)
            .map(|(c, _)| c)
            .or_else(|| self.pool_of("epoch-partition").next())
            .expect("every pool holds epoch-partition candidates")
    }

    /// The step ceiling of certification and rate replays: the largest base
    /// rate multiple of the budget, so the replays never escalate and the
    /// recurrence detector runs for at most four budgets.
    fn ceiling(&self) -> u64 {
        self.budget * RATE_MULTIPLIERS[RATE_MULTIPLIERS.len() - 1]
    }

    /// `evaluate` at `budget`, timed into `evals` and spanned under `parent`.
    fn evaluate(
        &self,
        c: &Candidate,
        budget: u64,
        evals: &Mutex<Vec<EvalRecord>>,
        tracer: &Tracer,
        parent: Option<usize>,
    ) -> Evaluation {
        let t = Instant::now();
        let e = tracer.span("evaluate", parent, |_| {
            evaluate(self.kind, GridGraph::Ring, self.n, budget, c)
        });
        evals
            .lock()
            .expect("an evaluation panicked while holding the record list")
            .push(EvalRecord {
                kind: spec_kind(&c.spec),
                steps: e.steps,
                secs: t.elapsed().as_secs_f64(),
            });
        e
    }

    fn certify(&self, c: &Candidate) -> Option<CertifiedLivelock> {
        certify_cell(
            self.kind,
            GridGraph::Ring,
            self.n,
            self.budget,
            self.ceiling(),
            c,
        )
    }

    fn run(
        &self,
        options: &RunOptions,
        runner: &BatchRunner,
        tracer: &Tracer,
        parent: Option<usize>,
    ) -> CellRun {
        let evals = Mutex::new(Vec::new());
        tracer.span("cell", parent, |cell| {
            let pool_eval = tracer.span("pool", cell, |stage| {
                runner.run_map(&self.pool, |c| {
                    self.evaluate(c, self.budget, &evals, tracer, stage)
                })
            });
            let pool: Vec<(Candidate, Evaluation)> =
                self.pool.iter().cloned().zip(pool_eval).collect();
            let outcome = tracer.span("islands", cell, |stage| {
                worst_case_search_islands(
                    &self.space,
                    &pool,
                    |c| self.evaluate(c, self.budget, &evals, tracer, stage),
                    &IslandConfig {
                        islands: options.islands,
                        iterations: options.island_iterations,
                        seed: self.base ^ 0xFACE,
                        cooling: 0.85,
                    },
                    runner,
                )
            });
            let certified = self
                .certifies()
                .then(|| tracer.span("certify", cell, |_| self.certify(self.to_certify(&pool))));
            let weighted = self
                .pool_of("weighted")
                .next()
                .expect("every pool holds a weighted candidate");
            let rate = tracer.span("rate", cell, |stage| {
                rate_curve_with(
                    self.budget,
                    weighted,
                    false,
                    self.base ^ 0x7A7E,
                    options.replays,
                    self.ceiling(),
                    runner,
                    |c, b| self.evaluate(c, b, &evals, tracer, stage),
                )
            });
            CellRun {
                outcome,
                certified,
                rate,
                evals: evals
                    .into_inner()
                    .expect("an evaluation panicked while holding the record list"),
            }
        })
    }
}

impl Workload for Search {
    type Plan = Plan;
    type Done = Vec<CellRun>;

    fn plan(&self, seed: u64) -> Plan {
        let mut config_s = 0.0;
        let mut graph_s = 0.0;
        let cells = self
            .cells
            .iter()
            .enumerate()
            .map(|(i, &(kind, n))| {
                let cell = Cell::new(kind, n, mix(seed, 2, i as u64), &self.options);
                let t = Instant::now();
                for variant in 0..variant_names(kind).len() {
                    std::hint::black_box(
                        stab_scenario(kind, GridGraph::Ring, variant, cell.budget)
                            .prepare(&SweepPoint::new(n, cell.base)),
                    );
                }
                config_s += t.elapsed().as_secs_f64();
                let t = Instant::now();
                std::hint::black_box(GraphFamily::DirectedRing.build(n).expect("n >= 2"));
                graph_s += t.elapsed().as_secs_f64();
                cell
            })
            .collect();
        Plan {
            cells,
            config_s,
            graph_s,
        }
    }

    fn execute(&self, plan: &Plan, runner: &BatchRunner, tracer: &Tracer) -> Vec<CellRun> {
        let inner = BatchRunner::with_threads(1);
        tracer.span("workload", None, |workload| {
            runner.run_map(&plan.cells, |cell| {
                cell.run(&self.options, &inner, tracer, workload)
            })
        })
    }

    fn digest(&self, plan: &Plan, done: &Vec<CellRun>) -> Digest {
        let mut digest = Digest::default();
        for (cell, run) in plan.cells.iter().zip(done) {
            let best = &run.outcome.best;
            digest.push(cell.base);
            digest.push(best.steps);
            digest.push(u64::from(best.converged));
            digest.push(best.candidate.seed);
            digest.push(u64::from(run.outcome.evaluations));
            digest.push(u64::from(run.outcome.best_island));
            match &run.certified {
                None => digest.push(0),
                Some(None) => digest.push(1),
                Some(Some(c)) => {
                    for v in [2, c.entry_step, c.period, c.phase, c.config_digest] {
                        digest.push(v);
                    }
                    digest.push(u64::from(c.exhaustive));
                    digest.push(c.closure_configs);
                }
            }
            for (m, f) in run.rate.multipliers.iter().zip(&run.rate.fractions) {
                digest.push(*m);
                digest.push(f.to_bits());
            }
            for e in &run.evals {
                digest.push(e.steps);
            }
        }
        digest
    }

    fn work(&self, done: &Vec<CellRun>) -> Work {
        let evals = || done.iter().flat_map(|r| &r.evals);
        Work {
            steps: evals().map(|e| e.steps).sum(),
            secs: evals().map(|e| e.secs).collect(),
        }
    }

    fn check(&self, plan: &Plan, done: &Vec<CellRun>) -> Checked {
        let mut checked = Checked::default();
        for (cell, run) in plan.cells.iter().zip(done) {
            // Evaluations censor scheduler errors rather than report them,
            // so each counts as attempted and none can fail.
            checked.attempted += run.evals.len() as u64;
            // The worst case must reproduce: re-evaluating it gives the
            // identical score.
            checked.attempted += 1;
            let best = &run.outcome.best;
            let again = evaluate(
                cell.kind,
                GridGraph::Ring,
                cell.n,
                cell.budget,
                &best.candidate,
            );
            if (again.steps, again.converged) != (best.steps, best.converged) {
                checked.fail(format!(
                    "{} cell seed {}: the worst case re-evaluates to {again:?}, the search scored ({}, {})",
                    cell.kind.key(),
                    cell.base,
                    best.steps,
                    best.converged
                ));
            }
        }
        checked
    }

    fn layers(&self, plan: &Plan, done: &Vec<CellRun>, spans: &[Span], m: &mut Metrics) {
        let first = &plan.cells[0];
        layers::measure(first.kind, first.n, first.base).record(m);
        m.set("init.config_s", plan.config_s);
        m.set("graph.build_s", plan.graph_s);
        let stage_s = |name: &str| -> f64 {
            spans
                .iter()
                .filter(|s| s.name == name)
                .map(Span::secs)
                .sum()
        };
        m.set("search.pool_s", stage_s("pool"));
        m.set("search.islands_s", stage_s("islands"));
        m.set("search.rate_s", stage_s("rate"));
        m.set("certify.s", stage_s("certify"));
        let evals: Vec<EvalRecord> = done.iter().flat_map(|r| r.evals.iter().copied()).collect();
        let secs: Vec<f64> = evals.iter().map(|e| e.secs).collect();
        m.set("search.eval_s.p50", median(&secs));
        m.set("search.eval_s.tail", tail(&secs));
        m.set(
            "search.evaluations",
            done.iter().map(|r| f64::from(r.outcome.evaluations)).sum(),
        );
        batch_metrics(spans, "cell", m);

        // The probe, outside the timed work.  First the greedy adversary:
        // each cell's weighted candidate replayed under a greedy scheduler.
        let probe = Mutex::new(Vec::new());
        let off = Tracer::new(false);
        for cell in &plan.cells {
            let weighted = cell
                .pool_of("weighted")
                .next()
                .expect("a weighted candidate");
            let greedy = Candidate {
                spec: SchedulerSpec::Greedy {
                    candidates: SpecDomain::all().max_candidates,
                },
                ..weighted.clone()
            };
            cell.evaluate(&greedy, cell.budget, &probe, &off, None);
        }
        let probe = probe.into_inner().expect("the probe ran on this thread");
        for (kind, metric) in SPEC_KINDS {
            let (steps, secs) = evals
                .iter()
                .chain(&probe)
                .filter(|e| e.kind == kind)
                .fold((0u64, 0.0), |(n, s), e| (n + e.steps, s + e.secs));
            m.set(metric, ratio(secs * 1e9, steps as f64));
        }

        // Then certification for the cells that skip it in the timed work:
        // their censored epoch-partition candidates, where recurrences and
        // the phase closure happen.
        let t = Instant::now();
        let mut certified = 0;
        let mut closure_configs = 0;
        for cell in plan.cells.iter().filter(|c| !c.certifies()) {
            let pool: Vec<(Candidate, Evaluation)> = cell
                .pool_of("epoch-partition")
                .map(|c| {
                    (
                        c.clone(),
                        evaluate(cell.kind, GridGraph::Ring, cell.n, cell.budget, c),
                    )
                })
                .collect();
            for (c, _) in pool.iter().filter(|(_, e)| !e.converged) {
                if let Some(found) = cell.certify(c) {
                    certified += 1;
                    closure_configs += found.closure_configs;
                }
            }
        }
        m.set("certify.closure_s", t.elapsed().as_secs_f64());
        m.set("certify.certified", f64::from(certified));
        m.set("certify.closure_configs", closure_configs as f64);
    }
}
