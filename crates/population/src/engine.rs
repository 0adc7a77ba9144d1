//! The segment engine behind every erased run.
//!
//! A [`Run`] is one prepared run in progress: the erased simulation, its
//! step source (the uniform burst or a [`DynScheduler`]), its fault and
//! churn schedules and its stop predicate.  [`Run::drive`] advances it in
//! segments that end at the next check boundary or event.  Every burst runs
//! in blocks, except a scheduled one under the run's optional
//! [`Recurrence`] detector, which steps one at a time to feed it.

use std::rc::Rc;

use rand_chacha::ChaCha8Rng;

use crate::churn::ChurnSchedule;
use crate::erase::DynProtocol;
use crate::error::{PopulationError, Result};
use crate::faults::{FaultEvent, FaultInjector, FaultKind, FaultPlan};
use crate::graph::AnyGraph;
use crate::recurrence::{FingerprintSum, RecurrenceCandidate, RecurrenceDetector};
use crate::scenario::DynStop;
use crate::scheduler::DynScheduler;
use crate::simulation::Simulation;
use crate::slot::DynState;

/// An erased corruption function: `(rng, agent_index) -> state`, shared by
/// the fault schedule and the churn schedule of one run, each of which
/// passes its own RNG.
pub(crate) type DynCorrupt = Rc<dyn Fn(&mut ChaCha8Rng, usize) -> DynState>;
/// An erased per-agent target predicate
/// ([`ScenarioBuilder::fault_targets`](crate::scenario::ScenarioBuilder::fault_targets)):
/// `(state, agent_index) -> is_target`, consumed by
/// [`FaultKind::CorruptTargets`].
pub(crate) type DynTargets = Box<dyn FnMut(&DynState, usize) -> bool>;

/// The simulation every erased run drives.
pub(crate) type ErasedSim = Simulation<DynProtocol, AnyGraph>;

/// One erased run in progress: the simulation, its step source, its event
/// schedules and its stop predicate.  [`Scenario::start`] builds it;
/// [`Run::drive`] advances it.
///
/// [`Scenario::start`]: crate::scenario::Scenario::start
pub(crate) struct Run {
    pub(crate) sim: ErasedSim,
    /// The custom scheduler choosing every step, or `None` for the uniform
    /// sampler's burst loop.
    pub(crate) scheduler: Option<Box<dyn DynScheduler>>,
    pub(crate) faults: FaultSchedule,
    pub(crate) churn: ChurnSchedule,
    pub(crate) stop: DynStop,
    /// The recurrence detector of a detecting run, fed every scheduled
    /// step; `None` lets every burst run in blocks.
    pub(crate) detector: Option<Recurrence>,
    /// Stamps the run's identity on its telemetry events until it drops.
    pub(crate) _scope: ssle_telemetry::RunScope,
}

impl Run {
    /// The discrete-event segment loop: the next segment ends at the
    /// earliest of the next multiple of `every` (capped at `horizon`) and
    /// the next fault or churn event.  After each segment the due churn and
    /// fault events fire, the detector (if any) is re-seeded if any fired,
    /// and on the grid (and at `horizon`) `boundary` runs.  `boundary` also
    /// runs once before the first step; `true` from it ends the run as
    /// converged.
    ///
    /// Returns the steps executed and whether the run converged, after
    /// emitting the `converged` and `run_end` telemetry events.
    pub(crate) fn drive(
        &mut self,
        every: u64,
        horizon: u64,
        mut boundary: impl FnMut(&mut Run) -> bool,
    ) -> Result<(u64, bool)> {
        let mut converged = boundary(self);
        // The simulation starts at step 0, so its step counter is the run's.
        let mut done = self.sim.steps();
        while !converged && done < horizon {
            let next = (done / every + 1).saturating_mul(every).min(horizon);
            let target = self.churn.clip(done, self.faults.clip(done, next));
            // Segment-constant: `clip` ends every segment at the next event,
            // and events fire only between segments.
            let settled = !self.faults.pending() && !self.churn.pending();
            let ended = self.segment(target - done, settled)?;
            done = self.sim.steps();
            if ended {
                break;
            }
            let churned = self.churn.fire_due(done, &mut self.sim)?;
            if self.faults.fire_due(done, &mut self.sim) | churned {
                if let Some(detector) = &mut self.detector {
                    detector.reseed(&self.sim);
                }
            }
            if done.is_multiple_of(every) || done == horizon {
                converged = boundary(self);
            }
        }
        if converged && ssle_telemetry::enabled() {
            ssle_telemetry::emit(ssle_telemetry::Event::new("converged").count("step", done));
        }
        telemetry_run_end(done, converged);
        Ok((done, converged))
    }

    /// Runs `k` steps from the step source: the uniform burst and an
    /// undetected scheduled burst in blocks, a detected scheduled burst per
    /// step.  Returns `true` if the detector ended the run early.
    fn segment(&mut self, k: u64, settled: bool) -> Result<bool> {
        let Run {
            sim,
            scheduler,
            stop,
            detector,
            ..
        } = self;
        let Some(sched) = scheduler else {
            // The uniform burst counts its steps in `hot_steps` itself.
            sim.run_steps(k);
            return Ok(false);
        };
        let (ran, ended) = match detector {
            Some(detector) => detector.scheduled(sim, &mut **sched, k, settled, stop)?,
            None => {
                sim.run_chosen_by(k, |g, c, rng, arcs| {
                    sched.schedule_block(g, c.states(), rng, arcs)
                })?;
                (k, false)
            }
        };
        // Scheduled steps are counted here, once per segment.
        ssle_telemetry::metrics::well_known::SCHEDULED_STEPS.add(ran);
        Ok(ended)
    }
}

/// The detector of [`Scenario::try_run_detecting`]: an incremental
/// fingerprint sum feeding a Brent-schedule recurrence detector.
///
/// [`Scenario::try_run_detecting`]: crate::scenario::Scenario::try_run_detecting
pub(crate) struct Recurrence {
    sum: FingerprintSum,
    detector: RecurrenceDetector,
    pub(crate) found: Option<RecurrenceCandidate>,
}

impl Recurrence {
    /// Seeds the fingerprint sum from `states`.
    pub(crate) fn new(states: &[DynState]) -> Self {
        Recurrence {
            sum: FingerprintSum::new(states),
            detector: RecurrenceDetector::new(),
            found: None,
        }
    }

    /// Re-seeds from the configuration after a fault or churn event
    /// rewrote states out of band.
    fn reseed(&mut self, sim: &ErasedSim) {
        self.sum.resync(sim.config().states());
        self.detector.reset();
    }

    /// Runs up to `k` steps chosen by `sched` one by one, folding each into
    /// the sum and, once `settled` (no fault or churn event can still
    /// fire), into the detector.  Returns the steps run and whether a
    /// recurrence ended the run.
    fn scheduled(
        &mut self,
        sim: &mut ErasedSim,
        sched: &mut dyn DynScheduler,
        k: u64,
        settled: bool,
        stop: &mut DynStop,
    ) -> Result<(u64, bool)> {
        for step in 0..k {
            sim.step_chosen_by_observed(&mut self.sum, |g, c, rng| {
                sched.schedule(g, c.states(), rng)
            })?;
            // A recurrence confirmed while events are still pending proves
            // nothing — a future fault or churn event would perturb the
            // cycle — so the detector stays disarmed until the schedules
            // are exhausted and only the event-free suffix is searched.
            if !settled {
                continue;
            }
            let Some(candidate) =
                self.detector
                    .observe(self.sum.value(), sched.phase(), sim.steps(), sim.config())
            else {
                continue;
            };
            if stop(sim.config().states()) {
                // The recurrent configuration satisfies the stop predicate:
                // the run converged between two check boundaries (a stable
                // fixed point "recurs" trivially).  Let the boundary check
                // report it exactly like the plain run would.
                self.detector.reset();
                continue;
            }
            if ssle_telemetry::enabled() {
                ssle_telemetry::metrics::well_known::RECURRENCES.incr();
                ssle_telemetry::emit(
                    ssle_telemetry::Event::new("recurrence_candidate")
                        .count("step", candidate.entry_step)
                        .count("period", candidate.period),
                );
            }
            self.found = Some(candidate);
            return Ok((step + 1, true));
        }
        Ok((k, false))
    }
}

/// The pending half of a fault plan during a run: which step events are
/// still due, and the corruption machinery that fires them.  Every run owns
/// one (see [`Run`]), so faults fire at identical steps whichever entry point
/// drives the run.
pub(crate) struct FaultSchedule {
    events: Vec<FaultEvent>,
    targets: Option<DynTargets>,
    driver: Option<(DynCorrupt, FaultInjector)>,
    next: usize,
}

/// Stable snake_case label of a fault kind for the telemetry stream.
fn fault_kind_label(kind: FaultKind) -> &'static str {
    match kind {
        FaultKind::CorruptRandomAgents { .. } => "corrupt_random_agents",
        FaultKind::CorruptBlock { .. } => "corrupt_block",
        FaultKind::CorruptAll => "corrupt_all",
        FaultKind::CorruptTargets { .. } => "corrupt_targets",
    }
}

impl FaultSchedule {
    /// # Errors
    ///
    /// Surfaces every way a plan can reference scenario machinery that was
    /// never registered, as typed errors before the run loop starts instead
    /// of a panic deep inside it:
    ///
    /// * [`PopulationError::MissingCorruption`] — events without a
    ///   corruption function;
    /// * [`PopulationError::MissingTarget`] — a
    ///   [`FaultKind::CorruptTargets`] event without a target predicate.
    pub(crate) fn new(
        plan: FaultPlan,
        corrupt: Option<DynCorrupt>,
        targets: Option<DynTargets>,
        fault_seed: u64,
    ) -> Result<Self> {
        let driver = if plan.is_empty() {
            None
        } else {
            let corrupt = corrupt.ok_or(PopulationError::MissingCorruption)?;
            Some((corrupt, FaultInjector::new(fault_seed)))
        };
        let wants_targets = plan
            .events()
            .iter()
            .any(|e| matches!(e.kind, FaultKind::CorruptTargets { .. }));
        if wants_targets && targets.is_none() {
            return Err(PopulationError::MissingTarget);
        }
        Ok(FaultSchedule {
            events: plan.events().to_vec(),
            targets,
            driver,
            next: 0,
        })
    }

    /// `true` while step events remain unfired.
    pub(crate) fn pending(&self) -> bool {
        self.next < self.events.len()
    }

    /// Clips a burst target so the next pending event is not overshot (the
    /// burst still advances by at least one step past `done`).
    fn clip(&self, done: u64, target: u64) -> u64 {
        match self.events.get(self.next) {
            Some(event) => target.min(event.at_step.max(done + 1)),
            None => target,
        }
    }

    /// Applies one fault kind to the simulation's configuration, routing
    /// targeted kinds through the target predicate.
    fn inject_kind(&mut self, kind: FaultKind, sim: &mut ErasedSim) {
        let Some((corrupt, injector)) = self.driver.as_mut() else {
            return;
        };
        let corrupted = match kind {
            FaultKind::CorruptTargets { limit } => {
                let is_target = self
                    .targets
                    .as_mut()
                    .expect("validated at FaultSchedule construction");
                injector.inject_targeted(
                    sim.config_mut(),
                    limit,
                    |state, agent| is_target(state, agent),
                    &**corrupt,
                )
            }
            kind => injector.inject(sim.config_mut(), kind, &**corrupt),
        };
        if ssle_telemetry::enabled() {
            ssle_telemetry::metrics::well_known::FAULTS_FIRED.incr();
            ssle_telemetry::emit(
                ssle_telemetry::Event::new("fault_fired")
                    .count("step", sim.steps())
                    .field("kind", fault_kind_label(kind))
                    .count("corrupted", corrupted.len() as u64),
            );
        }
    }

    /// Fires every step event scheduled at or before step `executed`.
    /// Returns `true` if anything fired (states were rewritten out-of-band,
    /// so incremental observers must re-seed).
    pub(crate) fn fire_due(&mut self, executed: u64, sim: &mut ErasedSim) -> bool {
        let mut fired = false;
        while self.next < self.events.len() && self.events[self.next].at_step <= executed {
            let kind = self.events[self.next].kind;
            self.next += 1;
            self.inject_kind(kind, sim);
            fired = true;
        }
        fired
    }
}

/// Emits the `run_start` telemetry event and bumps the run counter (a
/// no-op when telemetry is disabled).  The event's required fields
/// (`scenario`, `n`, `seed`) come from the caller's active
/// [`ssle_telemetry::run_scope`], which stamps them onto every event of
/// the run — adding them here again would duplicate the keys.
pub(crate) fn telemetry_run_start() {
    if ssle_telemetry::enabled() {
        ssle_telemetry::metrics::well_known::RUNS.incr();
        ssle_telemetry::emit(ssle_telemetry::Event::new("run_start"));
    }
}

/// Emits the `run_end` telemetry event, counting converged runs (a no-op
/// when telemetry is disabled).
fn telemetry_run_end(steps: u64, converged: bool) {
    if ssle_telemetry::enabled() {
        if converged {
            ssle_telemetry::metrics::well_known::CONVERGED_RUNS.incr();
        }
        ssle_telemetry::emit(
            ssle_telemetry::Event::new("run_end")
                .count("steps", steps)
                .field("converged", converged),
        );
    }
}
