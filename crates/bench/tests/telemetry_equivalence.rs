//! The determinism contract of the telemetry layer, pinned at the bench
//! layer where the Table 1 scenarios are assembled: running a scenario with
//! an installed telemetry sink produces **bit-identical** reports and final
//! configurations to the plain run — instrumentation observes the RNG
//! stream, it never participates in it — and the captured trace is a
//! schema-valid, complete `ssle-telemetry/v1` stream whose run events match
//! the runs executed.

use population::SweepPoint;
use ssle_bench::ProtocolKind;
use std::sync::{Mutex, OnceLock};

/// Telemetry state (enabled flag, sink, registry) is process-global; tests
/// that install a sink must not interleave.
fn serialize() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    LOCK.get_or_init(|| Mutex::new(()))
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

#[test]
fn instrumented_runs_are_bit_identical_to_plain_runs() {
    let _guard = serialize();
    let n = 8;
    let seed = 3;
    for kind in ProtocolKind::ALL {
        let point = SweepPoint::new(n, seed);
        let plain = kind.scenario().run_full(&point);

        let trace = ssle_telemetry::install_memory("telemetry-equivalence").expect("fresh sink");
        let instrumented = kind.scenario().run_full(&point);
        let text = trace.contents();
        ssle_telemetry::finish().expect("active stream finishes");

        assert_eq!(
            plain.report,
            instrumented.report,
            "{}: an installed telemetry sink perturbed the report",
            kind.name()
        );
        assert_eq!(
            *plain.sim.config(),
            *instrumented.sim.config(),
            "{}: an installed telemetry sink perturbed the final states",
            kind.name()
        );

        // The partial stream captured before `finish` is a valid prefix:
        // exactly one run ran under the sink.
        let stats = ssle_telemetry::validate_stream(&text).expect("schema-valid prefix");
        assert!(!stats.complete, "stream_end is only written by finish()");
        assert_eq!(stats.count("run_start"), 1, "{}", kind.name());
        assert_eq!(stats.count("run_end"), 1, "{}", kind.name());
        assert_eq!(stats.count("converged"), 1, "{}", kind.name());
    }
}

/// Every executed step lands in exactly one step counter — uniform steps in
/// `hot_steps`, custom-scheduler steps in `scheduled_steps`, across the
/// segments that fault events split a run into — whichever entry point
/// drives the run, and every converged run emits exactly one `converged`
/// event.
#[test]
fn every_step_and_every_convergence_is_counted_once() {
    use population::{FaultKind, FaultPlan, RandomScheduler, SchedulerFamily};
    use ssle_core::{InitialCondition, Ppl, PplState};
    use ssle_telemetry::metrics::well_known::{HOT_STEPS, SCHEDULED_STEPS};

    let _guard = serialize();
    let point = SweepPoint::new(8, 3);
    let counted = || HOT_STEPS.get() + SCHEDULED_STEPS.get();
    let boxed = SchedulerFamily::custom("random-boxed", |_pt, _g| Box::new(RandomScheduler::new()));
    let trace = ssle_telemetry::install_memory("telemetry-equivalence").expect("fresh sink");
    let mut converged_runs = 0;
    for family in [SchedulerFamily::Random, boxed] {
        let scenario = ssle_bench::ppl_builder(InitialCondition::UniformRandom)
            .step_budget(|pt| ProtocolKind::Ppl.trial_budget(pt.n))
            .corruption(|p: &Ppl, rng, _agent| PplState::sample_uniform(rng, p.params()))
            .scheduler(family)
            .build()
            .expect("complete scenario")
            .with_fault_plan(
                FaultPlan::new()
                    .at(10, FaultKind::CorruptBlock { start: 0, count: 2 })
                    .at(500, FaultKind::CorruptBlock { start: 0, count: 2 }),
            );
        let name = scenario.scheduler().name().to_string();

        let before = counted();
        let detected = scenario.try_run_detecting(&point).expect("detecting run");
        let executed = detected.report.steps_executed;
        assert_eq!(counted() - before, executed, "{name}: detecting run");
        converged_runs += u64::from(detected.report.converged());

        let before = counted();
        let trajectory = scenario
            .try_leader_trajectory(&point, 2_000, 64)
            .expect("trajectory run");
        assert_eq!(counted() - before, 2_000, "{name}: trajectory run");
        assert_eq!(trajectory.last().map(|&(step, _)| step), Some(2_000));
    }
    let text = trace.contents();
    ssle_telemetry::finish().expect("active stream finishes");

    let stats = ssle_telemetry::validate_stream(&text).expect("schema-valid prefix");
    assert_eq!(stats.count("run_start"), 4);
    assert_eq!(stats.count("run_end"), 4);
    assert!(converged_runs > 0, "vacuous without a converged run");
    assert_eq!(stats.count("converged"), converged_runs);
}

#[test]
fn finished_streams_validate_as_complete() {
    let _guard = serialize();
    let trace = ssle_telemetry::install_memory("telemetry-equivalence").expect("fresh sink");
    let point = SweepPoint::new(8, 3);
    ProtocolKind::Ppl.scenario().run(&point);
    ProtocolKind::FischerJiang.scenario().run(&point);
    ssle_telemetry::finish().expect("active stream finishes");
    let text = trace.contents();

    let stats = ssle_telemetry::validate_stream(&text).expect("schema-valid stream");
    assert!(stats.complete);
    assert_eq!(stats.count("stream_start"), 1);
    assert_eq!(stats.count("stream_end"), 1);
    assert_eq!(stats.count("run_start"), 2);
    assert_eq!(stats.count("run_end"), 2);
    // The digest folds the same stream without error and sees both runs.
    use analysis::json::JsonValue;
    let digest = ssle_telemetry::TraceDigest::from_stream(&text).expect("digestible stream");
    let json = digest.to_json_value();
    let started = json
        .get("runs")
        .and_then(|r| r.get("started"))
        .and_then(JsonValue::as_str);
    assert_eq!(started, Some("2"));
}
