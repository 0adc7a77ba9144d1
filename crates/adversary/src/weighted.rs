//! Non-uniform arc distributions.
//!
//! The population-protocol model's scheduler picks arcs uniformly; a
//! [`WeightedScheduler`] skews that distribution while keeping every weight
//! positive, so the schedule remains fair (every arc keeps a positive
//! per-step probability, hence fires infinitely often almost surely) but the
//! interaction rates are adversarially unbalanced — e.g. a handful of "hot"
//! arcs hammered `bias`× as often as the rest, starving progress elsewhere.

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

use population::{Interaction, Result};
use population::{InteractionGraph, PopulationError, Scheduler};

use crate::draw_below;

/// A scheduler drawing arcs from a fixed positively-weighted distribution.
///
/// Implements the typed [`Scheduler`] trait for every graph (the arc set is
/// fixed at construction), and therefore also the erased
/// `population::DynScheduler` through the blanket impl.
///
/// A step draws `x` uniformly from `0..total_weight()` and picks the first
/// arc whose cumulative weight exceeds `x`.  The pick takes expected O(1)
/// time: a guide table (Chen & Asau's inverse-CDF index) built at
/// construction holds, for each bucket of `2^shift` consecutive values of
/// `x`, the arc the bucket's first value picks, and a short forward scan
/// over the cumulative weights finishes from there.  There are at least
/// as many buckets as arcs and at most twice as many, so a uniform `x` passes
/// fewer than one arc boundary on average; the pick is always the one a
/// binary search would find.
#[derive(Clone, Debug)]
pub struct WeightedScheduler {
    arcs: Vec<Interaction>,
    /// Cumulative weights; `cumulative[i]` is the total weight of
    /// `arcs[..=i]`.
    cumulative: Vec<u64>,
    total: u64,
    /// `guide[b]` is the index of the arc that `x = b << shift` picks.
    guide: Vec<usize>,
    shift: u32,
}

impl WeightedScheduler {
    /// Creates a scheduler over `arcs` with the given positive weights.
    ///
    /// # Errors
    ///
    /// Returns [`PopulationError::EmptyArcSet`] if `arcs` is empty or if
    /// **any** weight is zero — a zero-weight arc would never fire,
    /// silently removing it from the schedulable arc set and breaking the
    /// fairness contract this type promises (every arc keeps a positive
    /// per-step probability).
    ///
    /// # Panics
    ///
    /// Panics if `arcs` and `weights` have different lengths.
    pub fn new(arcs: Vec<Interaction>, weights: Vec<u64>) -> Result<Self> {
        assert_eq!(
            arcs.len(),
            weights.len(),
            "one weight per arc ({} arcs, {} weights)",
            arcs.len(),
            weights.len()
        );
        let mut cumulative = Vec::with_capacity(weights.len());
        let mut total = 0u64;
        for w in weights {
            if w == 0 {
                return Err(PopulationError::EmptyArcSet);
            }
            total = total
                .checked_add(w)
                .expect("total arc weight overflows u64");
            cumulative.push(total);
        }
        if arcs.is_empty() {
            return Err(PopulationError::EmptyArcSet);
        }
        // The narrowest buckets of `2^shift` values that number at most
        // two per arc.
        let cap = 2 * arcs.len() as u64;
        let mut shift = 0;
        while (total - 1) >> shift >= cap {
            shift += 1;
        }
        let buckets = ((total - 1) >> shift) + 1;
        let mut guide = Vec::with_capacity(buckets as usize);
        let mut i = 0;
        for b in 0..buckets {
            while cumulative[i] <= b << shift {
                i += 1;
            }
            guide.push(i);
        }
        Ok(WeightedScheduler {
            arcs,
            cumulative,
            total,
            guide,
            shift,
        })
    }

    /// Builds the "hot arcs" family over a graph: `hot` arcs (chosen
    /// deterministically from `seed`) receive weight `bias`, every other arc
    /// weight 1.  `hot` is clamped to `[1, num_arcs]` and `bias` to `>= 1`,
    /// so the distribution is always valid and fair.
    pub fn biased<G: InteractionGraph>(graph: &G, hot: usize, bias: u64, seed: u64) -> Self {
        let arcs = graph.arcs();
        let hot = hot.clamp(1, arcs.len());
        let bias = bias.max(1);
        // Partial Fisher-Yates: the first `hot` positions of `order` are a
        // uniform sample of distinct arc indices.
        let mut order: Vec<usize> = (0..arcs.len()).collect();
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        for i in 0..hot {
            let j = rng.gen_range(i..order.len());
            order.swap(i, j);
        }
        let mut weights = vec![1u64; arcs.len()];
        for &i in &order[..hot] {
            weights[i] = bias;
        }
        WeightedScheduler::new(arcs, weights).expect("non-empty graph arc set")
    }

    /// The arcs this scheduler draws from.
    pub fn arcs(&self) -> &[Interaction] {
        &self.arcs
    }

    /// The weight of arc `i` (as passed at construction).
    pub fn weight(&self, i: usize) -> u64 {
        self.cumulative[i] - if i == 0 { 0 } else { self.cumulative[i - 1] }
    }

    /// The total weight of the distribution.
    pub fn total_weight(&self) -> u64 {
        self.total
    }

    /// The first index whose cumulative weight exceeds `x < total`, found
    /// from the guide entry of `x`'s bucket.
    #[inline]
    fn index(&self, x: u64) -> usize {
        let mut i = self.guide[(x >> self.shift) as usize];
        while self.cumulative[i] <= x {
            i += 1;
        }
        i
    }
}

impl<G: InteractionGraph> Scheduler<G> for WeightedScheduler {
    // The default block fill calls this once per arc; with a plain
    // `#[inline]` it stays out of line there.
    #[inline(always)]
    fn next_interaction<R: Rng + ?Sized>(
        &mut self,
        _graph: &G,
        rng: &mut R,
    ) -> Result<Interaction> {
        let x = draw_below(rng, self.total);
        Ok(self.arcs[self.index(x)])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use population::DirectedRing;

    #[test]
    fn empty_or_zero_weight_distributions_are_rejected() {
        assert!(matches!(
            WeightedScheduler::new(vec![], vec![]),
            Err(PopulationError::EmptyArcSet)
        ));
        assert!(matches!(
            WeightedScheduler::new(vec![Interaction::new(0, 1)], vec![0]),
            Err(PopulationError::EmptyArcSet)
        ));
        // A single zero weight among positive ones is rejected too: that arc
        // would never fire, violating the documented fairness contract.
        assert!(matches!(
            WeightedScheduler::new(
                vec![
                    Interaction::new(0, 1),
                    Interaction::new(1, 2),
                    Interaction::new(2, 0)
                ],
                vec![0, 1, 1]
            ),
            Err(PopulationError::EmptyArcSet)
        ));
    }

    #[test]
    fn weights_skew_the_empirical_distribution() {
        let ring = DirectedRing::new(4).unwrap();
        // Arc 0 gets weight 9, the rest weight 1: expect ~75% of draws.
        let mut weights = vec![1u64; 4];
        weights[0] = 9;
        let mut sched = WeightedScheduler::new(ring.arcs(), weights).unwrap();
        assert_eq!(sched.total_weight(), 12);
        assert_eq!(sched.weight(0), 9);
        assert_eq!(sched.weight(1), 1);
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        let mut hot = 0usize;
        let draws = 6_000;
        for _ in 0..draws {
            let arc =
                Scheduler::<DirectedRing>::next_interaction(&mut sched, &ring, &mut rng).unwrap();
            if arc == ring.arc(0) {
                hot += 1;
            }
        }
        let frac = hot as f64 / draws as f64;
        assert!((frac - 0.75).abs() < 0.05, "hot fraction {frac}");
    }

    #[test]
    fn every_positive_weight_arc_fires() {
        let ring = DirectedRing::new(8).unwrap();
        let mut sched = WeightedScheduler::biased(&ring, 2, 64, 3);
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let mut seen = [false; 8];
        for _ in 0..20_000 {
            let arc =
                Scheduler::<DirectedRing>::next_interaction(&mut sched, &ring, &mut rng).unwrap();
            seen[arc.initiator().index()] = true;
        }
        assert!(seen.iter().all(|&b| b), "fairness: every arc fires");
    }

    /// The guide-table pick equals the binary search over the cumulative
    /// weights: for every draw when the total is at most 2^16, else at
    /// both sides of every arc boundary and at random draws.
    #[test]
    fn guide_lookup_matches_the_binary_search() {
        fn check(label: &str, sched: &WeightedScheduler) {
            let (cumulative, total) = (&sched.cumulative, sched.total);
            assert!(
                sched.guide.len() <= 2 * sched.arcs.len(),
                "{label}: guide size"
            );
            let exact = |x: u64| {
                let want = cumulative.partition_point(|&c| c <= x);
                assert_eq!(sched.index(x), want, "{label}: x = {x}");
            };
            if total <= 1 << 16 {
                (0..total).for_each(exact);
                return;
            }
            for &c in cumulative {
                [c - 1, c]
                    .into_iter()
                    .filter(|&x| x < total)
                    .for_each(exact);
            }
            let mut rng = ChaCha8Rng::seed_from_u64(total);
            (0..20_000).for_each(|_| exact(rng.gen_range(0..total)));
        }
        let build = |weights: Vec<u64>| {
            let arcs = (0..weights.len())
                .map(|i| Interaction::new(i, i + 1))
                .collect();
            WeightedScheduler::new(arcs, weights).unwrap()
        };
        for len in [1, 2, 64, 4096] {
            check(&format!("ones x{len}"), &build(vec![1; len]));
        }
        for n in [64, 200] {
            let ring = DirectedRing::new(n).unwrap();
            for hot in [n / 100, n / 10, n / 4, n / 2] {
                for bias in [2, 3, 16, 64] {
                    let sched = WeightedScheduler::biased(&ring, hot, bias, n as u64 ^ bias);
                    check(&format!("biased n={n} hot={hot} bias={bias}"), &sched);
                }
            }
        }
        for at in [0, 1, 17, 39] {
            let mut weights = vec![3; 40];
            weights[at] = u64::MAX / 2;
            check(&format!("u64::MAX / 2 at {at}"), &build(weights));
        }
        let mut rng = ChaCha8Rng::seed_from_u64(0x6E1DE);
        for case in 0..40 {
            let len = rng.gen_range(1..300);
            let top = [4, 1_000, 1 << 20, 1 << 40, u64::MAX / 400][case % 5];
            let weights = (0..len).map(|_| rng.gen_range(1..top)).collect();
            check(&format!("random {case}"), &build(weights));
        }
    }

    #[test]
    fn biased_construction_is_deterministic_and_clamped() {
        let ring = DirectedRing::new(6).unwrap();
        let a = WeightedScheduler::biased(&ring, 2, 16, 42);
        let b = WeightedScheduler::biased(&ring, 2, 16, 42);
        assert_eq!(a.cumulative, b.cumulative);
        // hot = 0 clamps to 1; bias = 0 clamps to 1 (uniform).
        let c = WeightedScheduler::biased(&ring, 0, 0, 1);
        assert_eq!(c.total_weight(), 6);
    }
}
