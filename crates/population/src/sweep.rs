//! Multi-axis sweep grids.
//!
//! Experiment matrices vary the population size and the seed, and also
//! protocol constants (the `κ_max = c₁ψ` ablation), fault rates, graph
//! families and so on.  [`SweepGrid`] is an arbitrary cartesian product of
//! axes and yields [`SweepPoint`]s: a size, a derived seed, and any number of
//! named parameter values that scenario factories can read back with
//! [`SweepPoint::value`].

/// One axis of a sweep grid.
#[derive(Clone, Debug, PartialEq)]
pub enum SweepAxis {
    /// Population sizes (the `n` of each point).
    Sizes(Vec<usize>),
    /// Independent repetitions per grid cell; each repetition gets its own
    /// derived seed.
    Trials {
        /// Repetitions per cell.
        per_cell: usize,
        /// Seed the per-point seeds are derived from.
        base_seed: u64,
    },
    /// A named free parameter (κ factor, fault rate, …), retrievable from
    /// each point via [`SweepPoint::value`].
    Values {
        /// The parameter name.
        name: String,
        /// The values the axis takes.
        values: Vec<f64>,
    },
}

/// A point of a sweep grid: the population size, a deterministically derived
/// seed, and the values of any extra named axes.
#[derive(Clone, Debug, PartialEq)]
pub struct SweepPoint {
    /// Population size.
    pub n: usize,
    /// RNG seed for this point (drives the initial configuration, the
    /// scheduler and fault injection unless a scenario overrides them).
    pub seed: u64,
    values: Vec<(String, f64)>,
}

impl SweepPoint {
    /// Creates a bare point with no extra axis values.
    pub fn new(n: usize, seed: u64) -> Self {
        SweepPoint {
            n,
            seed,
            values: Vec::new(),
        }
    }

    /// Attaches a named axis value (builder-style).
    pub fn with_value(mut self, name: impl Into<String>, value: f64) -> Self {
        self.values.push((name.into(), value));
        self
    }

    /// The value of the named axis at this point, if the grid has that axis.
    pub fn value(&self, name: &str) -> Option<f64> {
        self.values.iter().find(|(k, _)| k == name).map(|(_, v)| *v)
    }

    /// All named axis values of this point.
    pub fn values(&self) -> &[(String, f64)] {
        &self.values
    }
}

/// A cartesian product of sweep axes.
///
/// The seed of a point is `base_seed ^ (size_index << 32) ^ trial`, with the
/// combined index of any extra [`SweepAxis::Values`] axes XORed in at bit 40
/// (`^ (value_index << 40)`).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct SweepGrid {
    sizes: Vec<usize>,
    trials_per_cell: usize,
    base_seed: u64,
    axes: Vec<(String, Vec<f64>)>,
}

impl SweepGrid {
    /// Creates an empty grid (no sizes, one trial per cell, seed 0).
    pub fn new() -> Self {
        SweepGrid {
            sizes: Vec::new(),
            trials_per_cell: 1,
            base_seed: 0,
            axes: Vec::new(),
        }
    }

    /// Sets the population sizes.
    pub fn sizes(mut self, sizes: &[usize]) -> Self {
        self.sizes = sizes.to_vec();
        self
    }

    /// Sets the number of repetitions per grid cell and the base seed they
    /// are derived from.
    pub fn trials(mut self, per_cell: usize, base_seed: u64) -> Self {
        self.trials_per_cell = per_cell;
        self.base_seed = base_seed;
        self
    }

    /// Adds a named free-parameter axis.
    pub fn axis(mut self, name: impl Into<String>, values: &[f64]) -> Self {
        self.axes.push((name.into(), values.to_vec()));
        self
    }

    /// Adds an axis from the given [`SweepAxis`] description.
    pub fn with_axis(self, axis: SweepAxis) -> Self {
        match axis {
            SweepAxis::Sizes(sizes) => self.sizes(&sizes),
            SweepAxis::Trials {
                per_cell,
                base_seed,
            } => self.trials(per_cell, base_seed),
            SweepAxis::Values { name, values } => self.axis(name, &values),
        }
    }

    /// Number of points in the grid.
    pub fn num_points(&self) -> usize {
        self.sizes.len()
            * self.trials_per_cell
            * self.axes.iter().map(|(_, v)| v.len()).product::<usize>()
    }

    /// Returns `true` if the grid contains no points (no sizes, zero trials
    /// per cell, or an empty value axis).
    pub fn is_empty(&self) -> bool {
        self.num_points() == 0
    }

    /// Materializes every point of the grid, sizes outermost, then
    /// value-axis combinations, then repetitions innermost.
    pub fn points(&self) -> Vec<SweepPoint> {
        let mut out = Vec::with_capacity(self.num_points());
        let combos = self.value_combinations();
        for (si, &n) in self.sizes.iter().enumerate() {
            for (ci, combo) in combos.iter().enumerate() {
                for t in 0..self.trials_per_cell {
                    let seed =
                        self.base_seed ^ ((si as u64) << 32) ^ ((ci as u64) << 40) ^ t as u64;
                    out.push(SweepPoint {
                        n,
                        seed,
                        values: combo.clone(),
                    });
                }
            }
        }
        out
    }

    /// Cartesian product of the value axes (a single empty combination when
    /// there are none).
    fn value_combinations(&self) -> Vec<Vec<(String, f64)>> {
        let mut combos: Vec<Vec<(String, f64)>> = vec![Vec::new()];
        for (name, values) in &self.axes {
            let mut next = Vec::with_capacity(combos.len() * values.len());
            for combo in &combos {
                for &v in values {
                    let mut c = combo.clone();
                    c.push((name.clone(), v));
                    next.push(c);
                }
            }
            combos = next;
        }
        combos
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn size_and_trial_seeds_are_frozen() {
        let points = SweepGrid::new().sizes(&[8, 16, 32]).trials(5, 42).points();
        let mut expected = Vec::new();
        for (size_index, n) in [8usize, 16, 32].into_iter().enumerate() {
            for trial in 0..5u64 {
                expected.push(SweepPoint::new(n, 42 ^ ((size_index as u64) << 32) ^ trial));
            }
        }
        assert_eq!(points, expected);
        assert_eq!(points[5].seed, 0x1_0000_002A);
        assert_eq!(points[14].seed, 0x2_0000_002E);
        let valued = SweepGrid::new()
            .sizes(&[8])
            .trials(2, 42)
            .axis("x", &[1.0, 2.0]);
        assert_eq!(valued.points()[3].seed, 42 ^ (1 << 40) ^ 1);
    }

    #[test]
    fn empty_grids_have_no_points() {
        assert!(SweepGrid::new().is_empty());
        assert!(SweepGrid::new().sizes(&[]).trials(5, 0).is_empty());
        assert!(SweepGrid::new().sizes(&[8]).trials(0, 0).is_empty());
        assert!(SweepGrid::new()
            .sizes(&[8])
            .trials(2, 0)
            .axis("rate", &[])
            .is_empty());
        assert!(SweepGrid::new().points().is_empty());
    }

    #[test]
    fn value_axes_form_a_cartesian_product_with_distinct_seeds() {
        let grid = SweepGrid::new()
            .sizes(&[8, 16])
            .trials(3, 7)
            .axis("c1", &[2.0, 4.0])
            .axis("rate", &[0.1, 0.2, 0.3]);
        assert_eq!(grid.num_points(), 2 * 3 * 2 * 3);
        let points = grid.points();
        assert_eq!(points.len(), grid.num_points());
        let mut seeds: Vec<(usize, u64)> = points.iter().map(|p| (p.n, p.seed)).collect();
        seeds.sort_unstable();
        seeds.dedup();
        assert_eq!(seeds.len(), points.len(), "seeds must be distinct per n");
        // Every point carries both axis values.
        for p in &points {
            assert!([2.0, 4.0].contains(&p.value("c1").unwrap()));
            assert!([0.1, 0.2, 0.3].contains(&p.value("rate").unwrap()));
            assert_eq!(p.value("missing"), None);
        }
        // Every combination appears for every (n, repetition).
        let count_c1_2 = points.iter().filter(|p| p.value("c1") == Some(2.0)).count();
        assert_eq!(count_c1_2, points.len() / 2);
    }

    #[test]
    fn with_axis_builds_the_same_grid_as_the_named_methods() {
        let a = SweepGrid::new()
            .with_axis(SweepAxis::Sizes(vec![8]))
            .with_axis(SweepAxis::Trials {
                per_cell: 2,
                base_seed: 9,
            })
            .with_axis(SweepAxis::Values {
                name: "x".into(),
                values: vec![1.0],
            });
        let b = SweepGrid::new().sizes(&[8]).trials(2, 9).axis("x", &[1.0]);
        assert_eq!(a, b);
    }

    #[test]
    fn points_can_be_built_by_hand() {
        let p = SweepPoint::new(8, 3).with_value("rate", 0.5);
        assert_eq!(p.n, 8);
        assert_eq!(p.seed, 3);
        assert_eq!(p.value("rate"), Some(0.5));
    }
}
