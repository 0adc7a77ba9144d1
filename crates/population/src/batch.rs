//! Parallel batch execution of convergence trials.
//!
//! Convergence-time experiments repeat many independent trials per population
//! size.  [`BatchRunner`] distributes trials over worker threads (each trial
//! is seeded independently, so results are reproducible regardless of the
//! thread count) and [`BatchSummary`] aggregates per-`n` statistics.

use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};

use crate::convergence::ConvergenceReport;
use crate::sweep::SweepPoint;

/// Result of running one point of a sweep (e.g. a [`SweepPoint`]).
#[derive(Clone, Debug, PartialEq)]
pub struct Outcome<T> {
    /// The sweep point that was run.
    pub point: T,
    /// The convergence report returned by the per-point closure.
    pub report: ConvergenceReport,
}

/// Aggregated outcomes for a single population size.
#[derive(Clone, Debug, PartialEq)]
pub struct BatchSummary {
    /// The population size shared by all outcomes in this summary.
    pub n: usize,
    /// Per-trial outcomes.
    pub outcomes: Vec<Outcome<SweepPoint>>,
}

impl BatchSummary {
    /// Convergence steps of the trials that converged, as `f64`s.
    pub fn convergence_steps(&self) -> Vec<f64> {
        self.outcomes
            .iter()
            .filter_map(|o| o.report.converged_at)
            .map(|s| s as f64)
            .collect()
    }

    /// Fraction of trials that converged within their step budget.
    pub fn converged_fraction(&self) -> f64 {
        if self.outcomes.is_empty() {
            return 0.0;
        }
        self.outcomes
            .iter()
            .filter(|o| o.report.converged())
            .count() as f64
            / self.outcomes.len() as f64
    }

    /// Mean convergence steps over the converged trials.
    pub fn mean_steps(&self) -> Option<f64> {
        let steps = self.convergence_steps();
        if steps.is_empty() {
            None
        } else {
            Some(steps.iter().sum::<f64>() / steps.len() as f64)
        }
    }

    /// Maximum convergence steps over the converged trials.
    pub fn max_steps(&self) -> Option<f64> {
        self.convergence_steps()
            .into_iter()
            .fold(None, |acc, x| Some(acc.map_or(x, |a: f64| a.max(x))))
    }
}

/// Runs trials in parallel over a fixed-size thread pool.
#[derive(Clone, Debug)]
pub struct BatchRunner {
    num_threads: usize,
}

impl Default for BatchRunner {
    fn default() -> Self {
        BatchRunner::new()
    }
}

impl BatchRunner {
    /// Creates a runner using all available parallelism.
    pub fn new() -> Self {
        let threads = std::thread::available_parallelism()
            .map(|p| p.get())
            .unwrap_or(1);
        BatchRunner {
            num_threads: threads,
        }
    }

    /// Creates a runner with an explicit thread count (minimum 1).
    pub fn with_threads(num_threads: usize) -> Self {
        BatchRunner {
            num_threads: num_threads.max(1),
        }
    }

    /// The number of worker threads.
    pub fn num_threads(&self) -> usize {
        self.num_threads
    }

    /// Runs every point through `run_one`, in parallel, and returns the
    /// results ordered exactly like the input points — the fully generic
    /// parallel map every other runner method is built on.
    ///
    /// The result type is arbitrary: convergence sweeps map points to
    /// [`ConvergenceReport`]s (see [`BatchRunner::run_points`]), while the
    /// worst-case stabilization search maps grid cells, candidate pools and
    /// annealing islands to its own result types through the same machinery.
    ///
    /// Workers claim indices from a shared atomic counter but collect their
    /// results into thread-local chunks that are merged once at join time, so
    /// there is no per-result lock contention.  The output order is the input
    /// order regardless of the thread count, so a deterministic `run_one`
    /// yields results that are bit-identical whether the runner has 1 thread
    /// or 64 (covered by workspace tests).
    pub fn run_map<T, R, F>(&self, points: &[T], run_one: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(&T) -> R + Send + Sync,
    {
        if points.is_empty() {
            return Vec::new();
        }
        let next = AtomicUsize::new(0);
        let workers = self.num_threads.min(points.len());
        let mut slots: Vec<Option<R>> = Vec::new();
        slots.resize_with(points.len(), || None);
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..workers)
                .map(|_| {
                    scope.spawn(|| {
                        let mut local: Vec<(usize, R)> = Vec::new();
                        loop {
                            let idx = next.fetch_add(1, Ordering::Relaxed);
                            if idx >= points.len() {
                                break;
                            }
                            local.push((idx, run_one(&points[idx])));
                        }
                        local
                    })
                })
                .collect();
            for handle in handles {
                for (idx, result) in handle.join().expect("batch worker panicked") {
                    slots[idx] = Some(result);
                }
            }
        });
        slots
            .into_iter()
            .map(|o| o.expect("every point must produce a result"))
            .collect()
    }

    /// Runs every point through `run_one`, in parallel, and returns the
    /// outcomes ordered exactly like the input points (the
    /// [`ConvergenceReport`]-shaped specialization of
    /// [`BatchRunner::run_map`]).
    pub fn run_points<T, F>(&self, points: &[T], run_one: F) -> Vec<Outcome<T>>
    where
        T: Clone + Send + Sync,
        F: Fn(&T) -> ConvergenceReport + Send + Sync,
    {
        self.run_map(points, |point| Outcome {
            point: point.clone(),
            report: run_one(point),
        })
    }
}

/// Groups sweep outcomes into one [`BatchSummary`] per population size in a
/// single pass, preserving the order in which sizes first appear and moving
/// (not cloning) the outcomes.
pub fn group_by_size(outcomes: Vec<Outcome<SweepPoint>>) -> Vec<BatchSummary> {
    let mut index: HashMap<usize, usize> = HashMap::new();
    let mut groups: Vec<BatchSummary> = Vec::new();
    for outcome in outcomes {
        let n = outcome.point.n;
        let slot = *index.entry(n).or_insert_with(|| {
            groups.push(BatchSummary {
                n,
                outcomes: Vec::new(),
            });
            groups.len() - 1
        });
        groups[slot].outcomes.push(outcome);
    }
    groups
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sweep::SweepGrid;

    fn fake_report(converged_at: Option<u64>) -> ConvergenceReport {
        ConvergenceReport {
            converged_at,
            steps_executed: converged_at.unwrap_or(1000),
            max_steps: 1000,
            check_interval: 1,
            criterion: "test".into(),
        }
    }

    #[test]
    fn trial_grid_covers_all_sizes_with_distinct_seeds() {
        let trials = SweepGrid::new().sizes(&[8, 16, 32]).trials(5, 42).points();
        assert_eq!(trials.len(), 15);
        let mut seeds: Vec<u64> = trials.iter().map(|t| t.seed).collect();
        seeds.sort_unstable();
        seeds.dedup();
        assert_eq!(seeds.len(), 15, "seeds must all be distinct");
        assert_eq!(trials.iter().filter(|t| t.n == 16).count(), 5);
    }

    #[test]
    fn runner_preserves_trial_order() {
        let trials: Vec<SweepPoint> = (0..50).map(|i| SweepPoint::new(4, i)).collect();
        let runner = BatchRunner::with_threads(4);
        assert_eq!(runner.num_threads(), 4);
        let outcomes = runner.run_points(&trials, |t| fake_report(Some(t.seed * 10)));
        assert_eq!(outcomes.len(), 50);
        for (i, o) in outcomes.iter().enumerate() {
            assert_eq!(o.point.seed, i as u64);
            assert_eq!(o.report.converged_at, Some(i as u64 * 10));
        }
    }

    #[test]
    fn empty_trial_list_is_fine() {
        let runner = BatchRunner::with_threads(2);
        let outcomes = runner.run_points(&[] as &[SweepPoint], |_| fake_report(None));
        assert!(outcomes.is_empty());
    }

    #[test]
    fn grouping_by_population_size() {
        let trials = SweepGrid::new().sizes(&[8, 16]).trials(3, 0).points();
        let runner = BatchRunner::with_threads(2);
        let groups =
            group_by_size(runner.run_points(&trials, |t| fake_report(Some(t.n as u64 * 100))));
        assert_eq!(groups.len(), 2);
        assert_eq!(groups[0].n, 8);
        assert_eq!(groups[1].n, 16);
        assert_eq!(groups[0].outcomes.len(), 3);
        assert_eq!(groups[0].mean_steps(), Some(800.0));
        assert_eq!(groups[1].max_steps(), Some(1600.0));
        assert_eq!(groups[0].converged_fraction(), 1.0);
    }

    #[test]
    fn summary_statistics_handle_non_convergence() {
        let summary = BatchSummary {
            n: 8,
            outcomes: vec![
                Outcome {
                    point: SweepPoint::new(8, 0),
                    report: fake_report(None),
                },
                Outcome {
                    point: SweepPoint::new(8, 1),
                    report: fake_report(Some(100)),
                },
                Outcome {
                    point: SweepPoint::new(8, 2),
                    report: fake_report(Some(300)),
                },
            ],
        };
        assert_eq!(summary.converged_fraction(), 2.0 / 3.0);
        assert_eq!(summary.mean_steps(), Some(200.0));
        let empty = BatchSummary {
            n: 4,
            outcomes: vec![],
        };
        assert_eq!(empty.converged_fraction(), 0.0);
        assert_eq!(empty.mean_steps(), None);
        assert_eq!(empty.max_steps(), None);
    }

    #[test]
    fn default_runner_uses_at_least_one_thread() {
        assert!(BatchRunner::default().num_threads() >= 1);
        assert_eq!(BatchRunner::with_threads(0).num_threads(), 1);
    }

    /// A deterministic stand-in for a real per-trial simulation: the outcome
    /// depends only on the trial's `(n, seed)`, like a seeded `Simulation`.
    fn seeded_report(t: &SweepPoint) -> ConvergenceReport {
        use rand::{Rng, SeedableRng};
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(t.seed ^ ((t.n as u64) << 17));
        let steps: u64 = rng.gen_range(1..10_000);
        fake_report(if steps.is_multiple_of(7) {
            None
        } else {
            Some(steps)
        })
    }

    #[test]
    fn outcomes_are_seed_deterministic_regardless_of_thread_count() {
        let trials = SweepGrid::new().sizes(&[8, 16, 32]).trials(20, 99).points();
        let serial = BatchRunner::with_threads(1).run_points(&trials, seeded_report);
        for threads in [2, 3, 8, 64] {
            let parallel = BatchRunner::with_threads(threads).run_points(&trials, seeded_report);
            assert_eq!(
                serial, parallel,
                "outcomes changed with {threads} worker threads"
            );
        }
    }

    #[test]
    fn grouped_aggregation_matches_a_serial_run() {
        let trials = SweepGrid::new().sizes(&[8, 16]).trials(10, 7).points();
        let groups = group_by_size(BatchRunner::with_threads(4).run_points(&trials, seeded_report));

        // Aggregate the same trials by hand, without the runner.
        for group in &groups {
            let expected: Vec<Outcome<SweepPoint>> = trials
                .iter()
                .filter(|t| t.n == group.n)
                .map(|t| Outcome {
                    point: t.clone(),
                    report: seeded_report(t),
                })
                .collect();
            assert_eq!(group.outcomes, expected);
            let expected_steps: Vec<f64> = expected
                .iter()
                .filter_map(|o| o.report.converged_at)
                .map(|s| s as f64)
                .collect();
            assert_eq!(group.convergence_steps(), expected_steps);
            let expected_mean = expected_steps.iter().sum::<f64>() / expected_steps.len() as f64;
            assert_eq!(group.mean_steps(), Some(expected_mean));
        }
    }

    #[test]
    fn run_points_works_with_arbitrary_point_types() {
        #[derive(Clone, Debug, PartialEq)]
        struct Point {
            label: String,
            steps: u64,
        }
        let points: Vec<Point> = (0..20)
            .map(|i| Point {
                label: format!("p{i}"),
                steps: i * 10,
            })
            .collect();
        let runner = BatchRunner::with_threads(4);
        let outcomes = runner.run_points(&points, |p| fake_report(Some(p.steps)));
        assert_eq!(outcomes.len(), 20);
        for (i, o) in outcomes.iter().enumerate() {
            assert_eq!(o.point, points[i], "outcome order matches input order");
            assert_eq!(o.report.converged_at, Some(i as u64 * 10));
        }
    }

    #[test]
    fn run_map_is_order_preserving_and_thread_count_invariant() {
        // Arbitrary (non-ConvergenceReport) result type: the generic map
        // underpinning the worst-case search sharding.
        let points: Vec<u64> = (0..37).collect();
        let map = |p: &u64| {
            use rand::{Rng, SeedableRng};
            let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(*p);
            (*p, rng.gen::<u64>())
        };
        let serial = BatchRunner::with_threads(1).run_map(&points, map);
        assert_eq!(serial.len(), points.len());
        for (i, (p, _)) in serial.iter().enumerate() {
            assert_eq!(*p, i as u64, "results keep input order");
        }
        for threads in [2, 5, 16] {
            let parallel = BatchRunner::with_threads(threads).run_map(&points, map);
            assert_eq!(serial, parallel, "run_map changed with {threads} threads");
        }
        let empty: Vec<(u64, u64)> = BatchRunner::new().run_map(&[], map);
        assert!(empty.is_empty());
    }

    #[test]
    fn group_by_size_is_single_pass_and_order_preserving() {
        // Sizes interleaved: first-appearance order must be preserved.
        let outcomes: Vec<Outcome<SweepPoint>> = [16usize, 8, 16, 4, 8, 16]
            .iter()
            .enumerate()
            .map(|(i, &n)| Outcome {
                point: SweepPoint::new(n, i as u64),
                report: fake_report(Some(i as u64)),
            })
            .collect();
        let groups = group_by_size(outcomes);
        assert_eq!(
            groups.iter().map(|g| g.n).collect::<Vec<_>>(),
            vec![16, 8, 4]
        );
        assert_eq!(groups[0].outcomes.len(), 3);
        assert_eq!(groups[1].outcomes.len(), 2);
        assert_eq!(groups[2].outcomes.len(), 1);
        // Within a group, input order is preserved.
        assert_eq!(
            groups[0]
                .outcomes
                .iter()
                .map(|o| o.point.seed)
                .collect::<Vec<_>>(),
            vec![0, 2, 5]
        );
    }
}
