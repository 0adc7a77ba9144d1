//! Per-step decomposition of the hot loop, from short timed loops over each
//! layer's public calls on a workload's own start configuration:
//! RNG draw, arc sample, typed step, erased step and the oracle hook.

use std::hint::black_box;
use std::time::Instant;

use population::{
    AnyGraph, Configuration, DirectedRing, DynProtocol, DynState, GraphFamily, InteractionGraph,
    LeaderElection, Simulation,
};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use ssle_bench::{ProtocolKind, Table1Visitor};

use crate::report::Metrics;
use crate::util::median;

/// Seconds each timed loop runs for; every figure is the median of
/// [`REPS`] such loops.
const LOOP_SECS: f64 = 0.08;
const REPS: usize = 3;

/// Nanoseconds per operation of the layers under one step.
#[derive(Clone, Copy, Debug)]
pub struct StepLayers {
    /// One `ChaCha8Rng::gen_range(0..n)` draw.
    pub draw_ns: f64,
    /// One `DirectedRing::sample` (a draw plus the arc).
    pub sample_ns: f64,
    /// One step of the typed `Simulation<P, DirectedRing>`.
    pub step_ns: f64,
    /// One step of the erased `Simulation<DynProtocol, AnyGraph>`.
    pub erased_step_ns: f64,
    /// One `Protocol::environment` call; 0 for protocols without the hook.
    pub env_ns: f64,
}

impl StepLayers {
    /// Writes the step-layer metrics, with the two differences: transition
    /// (typed step − arc sample) and erasure (erased step − typed step).
    pub fn record(&self, m: &mut Metrics) {
        m.set("rand_chacha.draw_ns", self.draw_ns);
        m.set("graph.sample_ns", self.sample_ns);
        m.set("protocol.step_ns", self.step_ns);
        m.set("protocol.transition_ns", self.step_ns - self.sample_ns);
        m.set("slot.erased_step_ns", self.erased_step_ns);
        m.set("slot.erasure_ns", self.erased_step_ns - self.step_ns);
        m.set("fischer_jiang.env_ns", self.env_ns);
    }
}

/// Measures [`StepLayers`] for `kind` at `n` from its Table 1 start
/// configuration at `seed`.
pub fn measure(kind: ProtocolKind, n: usize, seed: u64) -> StepLayers {
    kind.with_table1_setup(n, seed, Measure { n, seed })
}

struct Measure {
    n: usize,
    seed: u64,
}

impl Table1Visitor for Measure {
    type Output = StepLayers;

    fn visit<P, F>(self, protocol: P, config: Configuration<P::State>, _stop: F) -> StepLayers
    where
        P: LeaderElection + 'static,
        P::State: std::any::Any,
        F: Fn(&P, &Configuration<P::State>) -> bool + Send + Sync + 'static,
    {
        let (n, seed) = (self.n, self.seed);
        let ring = DirectedRing::new(n).expect("workload sizes are >= 2");
        let draw_ns = per_op_ns(|k| {
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            let mut acc = 0usize;
            for _ in 0..k {
                acc = acc.wrapping_add(rng.gen_range(0..n));
            }
            black_box(acc);
        });
        let sample_ns = per_op_ns(|k| {
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            for _ in 0..k {
                black_box(ring.sample(&mut rng));
            }
        });
        let step_ns = per_op_ns(|k| {
            let mut sim = Simulation::new(protocol.clone(), ring, config.clone(), seed);
            sim.run_steps(k);
            black_box(sim.config().len());
        });
        let erased: Configuration<DynState> =
            config.states().iter().cloned().map(DynState::new).collect();
        let any_ring: AnyGraph = GraphFamily::DirectedRing
            .build(n)
            .expect("workload sizes are >= 2");
        let erased_step_ns = per_op_ns(|k| {
            let mut sim = Simulation::new(
                DynProtocol::erase(protocol.clone()),
                any_ring.clone(),
                erased.clone(),
                seed,
            );
            sim.run_steps(k);
            black_box(sim.config().len());
        });
        let env_ns = if P::HAS_ENVIRONMENT {
            let mut states = config.clone();
            per_op_ns(|k| {
                for _ in 0..k {
                    protocol.environment(states.states_mut());
                }
                black_box(states.len());
            })
        } else {
            0.0
        };
        StepLayers {
            draw_ns,
            sample_ns,
            step_ns,
            erased_step_ns,
            env_ns,
        }
    }
}

/// Median over [`REPS`] loops of the nanoseconds per operation of `run(k)`,
/// which performs `k` operations.  Each loop doubles `k` until it has run
/// for [`LOOP_SECS`]; set-up inside `run` is amortized over the largest `k`.
pub fn per_op_ns(mut run: impl FnMut(u64)) -> f64 {
    let samples: Vec<f64> = (0..REPS)
        .map(|_| {
            let mut k = 1_000u64;
            loop {
                let t = Instant::now();
                run(k);
                let secs = t.elapsed().as_secs_f64();
                if secs >= LOOP_SECS || k >= 1 << 40 {
                    return secs * 1e9 / k as f64;
                }
                k *= 2;
            }
        })
        .collect();
    median(&samples)
}
