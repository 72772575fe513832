//! Goal-number saturation analysis (paper §4.2) and the exact slot split.
//!
//! For every application we sweep the slot count from one to the number of
//! slots in the system, estimate the makespan at each count, and identify
//! the *saturation point*: the allocation beyond which additional slots
//! yield little or no improvement. The Nimblock slot allocator uses the
//! resulting *goal number* when distributing surplus slots.
//! [`optimal_slot_split`] turns several such curves into the board split
//! that minimizes their summed makespan.

use nimblock_ser::impl_json_struct;

use nimblock_app::{AppSpec, TaskGraph};
use nimblock_sim::SimDuration;

use crate::estimator::Workspace;
use crate::{EstimatorConfig, PipelineEstimator};

/// Fractional improvement below which an additional slot is considered
/// marginal (the knee-detection threshold of the sweep).
pub const DEFAULT_IMPROVEMENT_THRESHOLD: f64 = 0.05;

/// Result of a saturation sweep for one application at one batch size.
///
/// # Example
///
/// ```
/// use nimblock_app::benchmarks;
/// use nimblock_ilp::saturation;
/// use nimblock_sim::SimDuration;
///
/// let analysis = saturation::analyze(
///     &benchmarks::image_compression(),
///     16,
///     10,
///     SimDuration::from_millis(80),
/// );
/// assert_eq!(analysis.makespans().len(), 10);
/// assert!(analysis.speedup(analysis.goal_number()) >= 1.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct SaturationAnalysis {
    app_name: String,
    batch_size: u32,
    makespans: Vec<SimDuration>,
    goal_number: usize,
}

impl_json_struct!(SaturationAnalysis { app_name, batch_size, makespans, goal_number });

impl SaturationAnalysis {
    /// Returns the application name the analysis belongs to.
    pub fn app_name(&self) -> &str {
        &self.app_name
    }

    /// Returns the batch size the analysis was run at.
    pub fn batch_size(&self) -> u32 {
        self.batch_size
    }

    /// Returns the estimated makespans for slot counts `1..=max_slots`.
    pub fn makespans(&self) -> &[SimDuration] {
        &self.makespans
    }

    /// Returns the estimated makespan for `slots` slots.
    ///
    /// # Panics
    ///
    /// Panics if `slots` is zero or beyond the swept range.
    pub fn makespan(&self, slots: usize) -> SimDuration {
        self.makespans[slots - 1]
    }

    /// Returns the speedup of `slots` slots over a single slot.
    pub fn speedup(&self, slots: usize) -> f64 {
        self.makespan(1).as_micros() as f64 / self.makespan(slots).as_micros() as f64
    }

    /// Returns the goal number: the saturation point of the sweep.
    pub fn goal_number(&self) -> usize {
        self.goal_number
    }
}

/// Sweeps slot counts `1..=max_slots` for `app` at `batch_size` and derives
/// the goal number with the default pipelined estimator and improvement
/// threshold.
///
/// # Panics
///
/// Panics if `max_slots` or `batch_size` is zero.
pub fn analyze(
    app: &AppSpec,
    batch_size: u32,
    max_slots: usize,
    reconfig: SimDuration,
) -> SaturationAnalysis {
    let estimator = PipelineEstimator::new(EstimatorConfig {
        reconfig,
        pipelining: true,
    });
    analyze_with(&estimator, app, batch_size, max_slots, DEFAULT_IMPROVEMENT_THRESHOLD)
}

/// Sweeps slot counts with an explicit estimator and knee threshold.
///
/// # Panics
///
/// Panics if `max_slots` or `batch_size` is zero, or if `threshold` is not
/// in `(0, 1)`.
pub fn analyze_with(
    estimator: &PipelineEstimator,
    app: &AppSpec,
    batch_size: u32,
    max_slots: usize,
    threshold: f64,
) -> SaturationAnalysis {
    let mut work = Workspace::default();
    let makespans: Vec<SimDuration> = (1..=max_slots)
        .map(|k| estimator.makespan_in(app.graph(), batch_size, k, &mut work))
        .collect();
    let goal_number = knee(max_slots, threshold, |k| makespans[k - 1]);
    SaturationAnalysis {
        app_name: app.name().to_owned(),
        batch_size,
        makespans,
        goal_number,
    }
}

/// Returns the goal number [`analyze_with`] would report, estimating the
/// makespan curve one slot count at a time and stopping at the knee, so
/// slot counts past it are never estimated.
///
/// # Panics
///
/// Panics if `max_slots` or `batch_size` is zero, or if `threshold` is not
/// in `(0, 1)`.
///
/// # Example
///
/// ```
/// use nimblock_app::benchmarks;
/// use nimblock_ilp::{saturation, PipelineEstimator};
///
/// let estimator = PipelineEstimator::default();
/// let app = benchmarks::lenet();
/// let full = saturation::analyze_with(&estimator, &app, 8, 10, 0.05);
/// assert_eq!(
///     saturation::goal_number(&estimator, app.graph(), 8, 10, 0.05),
///     full.goal_number()
/// );
/// ```
pub fn goal_number(
    estimator: &PipelineEstimator,
    graph: &TaskGraph,
    batch_size: u32,
    max_slots: usize,
    threshold: f64,
) -> usize {
    let mut work = Workspace::default();
    knee(max_slots, threshold, |k| estimator.makespan_in(graph, batch_size, k, &mut work))
}

/// Returns the saturation point of the makespan curve `makespan(1..=max_slots)`:
/// the smallest slot count whose successor improves the makespan by less
/// than `threshold` (fractionally). A curve that keeps improving saturates
/// at its end. Evaluates the curve in order and no further than the knee.
fn knee(max_slots: usize, threshold: f64, mut makespan: impl FnMut(usize) -> SimDuration) -> usize {
    assert!(max_slots > 0, "need at least one slot");
    assert!(
        threshold > 0.0 && threshold < 1.0,
        "threshold must be a fraction in (0, 1)"
    );
    let mut current = makespan(1).as_micros() as f64;
    for k in 1..max_slots {
        let next = makespan(k + 1).as_micros() as f64;
        if current - next < threshold * current {
            return k;
        }
        current = next;
    }
    max_slots
}

/// Splits `total_slots` among applications to minimize the sum of their
/// estimated makespans, exactly.
///
/// Each entry of `curves` is one application's makespan-versus-slot-count
/// curve (index 0 = one slot). Every application receives at least one
/// slot and at most its curve's length, and the counts fit the board. This
/// is the reproduction's analogue of solving the DML allocation problem
/// exactly; `nimblock-core`'s allocator uses the cheaper rule-based method.
///
/// The problem is a multiple-choice knapsack, solved by dynamic
/// programming over (application, slots left) on makespans in integer
/// microseconds, in O(apps × slots²) time. Ties go to the
/// lexicographically smallest split: each application, in order, takes the
/// fewest slots that still leave the optimal total reachable.
///
/// Returns `None` when `total_slots < curves.len()` (cannot give everyone
/// a slot).
///
/// # Panics
///
/// Panics if any curve is empty.
///
/// # Example
///
/// ```
/// use nimblock_ilp::saturation;
/// use nimblock_sim::SimDuration;
///
/// let halves = vec![SimDuration::from_secs(10), SimDuration::from_secs(5)];
/// let flat = vec![SimDuration::from_secs(10), SimDuration::from_secs(10)];
/// assert_eq!(saturation::optimal_slot_split(&[halves, flat], 3), Some(vec![2, 1]));
/// ```
pub fn optimal_slot_split(curves: &[Vec<SimDuration>], total_slots: usize) -> Option<Vec<usize>> {
    if total_slots < curves.len() {
        return None;
    }
    // least[a][s]: the least summed makespan of applications `a..` on at
    // most `s` slots, `None` when `s` is fewer than them.
    let mut least = vec![vec![Some(0u128); total_slots + 1]];
    for curve in curves.iter().rev() {
        assert!(!curve.is_empty(), "each curve needs at least one entry");
        let rest = least.last().expect("the table starts with a row");
        let row = (0..=total_slots)
            .map(|s| {
                (1..=curve.len().min(s))
                    .filter_map(|k| total(curve, k, rest[s - k]))
                    .min()
            })
            .collect();
        least.push(row);
    }
    least.reverse();
    let mut left = total_slots;
    let split = curves
        .iter()
        .zip(least.windows(2))
        .map(|(curve, rows)| {
            let k = (1..=curve.len().min(left))
                .find(|&k| total(curve, k, rows[1][left - k]) == rows[0][left])
                .expect("a feasible row has an optimal choice");
            left -= k;
            k
        })
        .collect();
    Some(split)
}

/// The summed makespan of giving the application of `curve` `k` slots and
/// the rest of the applications `rest`.
fn total(curve: &[SimDuration], k: usize, rest: Option<u128>) -> Option<u128> {
    Some(u128::from(curve[k - 1].as_micros()) + rest?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use nimblock_app::benchmarks;

    const R: SimDuration = SimDuration::from_millis(80);

    #[test]
    fn knee_detects_flat_tail() {
        let curve = [
            SimDuration::from_millis(1000),
            SimDuration::from_millis(500),
            SimDuration::from_millis(490),
            SimDuration::from_millis(489),
        ];
        assert_eq!(knee(curve.len(), 0.05, |k| curve[k - 1]), 2);
    }

    #[test]
    fn knee_stops_evaluating_at_the_knee() {
        let curve = [1000, 500, 490, 489, 100].map(SimDuration::from_millis);
        let mut evaluated = Vec::new();
        let goal = knee(curve.len(), 0.05, |k| {
            evaluated.push(k);
            curve[k - 1]
        });
        assert_eq!(goal, 2);
        assert_eq!(evaluated, [1, 2, 3]);
    }

    #[test]
    fn knee_saturates_at_end_when_curve_keeps_improving() {
        let curve: Vec<SimDuration> = (1..=4)
            .map(|k| SimDuration::from_millis(1000 / k))
            .collect();
        assert_eq!(knee(curve.len(), 0.05, |k| curve[k - 1]), 4);
    }

    #[test]
    fn second_slot_gives_greatest_benefit_for_batched_apps() {
        // Paper §4.2: "allocating a second slot provides the greatest
        // benefit" — multiple batches execute in parallel.
        for app in benchmarks::all() {
            let analysis = analyze(&app, 10, 10, R);
            let gain12 = analysis.makespan(1).as_secs_f64() - analysis.makespan(2).as_secs_f64();
            for k in 2..10 {
                let gain = analysis.makespan(k).as_secs_f64() - analysis.makespan(k + 1).as_secs_f64();
                assert!(
                    gain12 >= gain - 1e-9,
                    "{}: slot 2 gain {gain12} < slot {} gain {gain}",
                    app.name(),
                    k + 1
                );
            }
        }
    }

    #[test]
    fn goal_numbers_are_sane() {
        for app in benchmarks::all() {
            let analysis = analyze(&app, 10, 10, R);
            let goal = analysis.goal_number();
            assert!(
                (1..=10).contains(&goal),
                "{} goal number {goal} out of range",
                app.name()
            );
            // Batched applications should want at least two slots.
            assert!(goal >= 2, "{} goal {goal} < 2 at batch 10", app.name());
        }
    }

    #[test]
    fn batch_one_chain_saturates_quickly() {
        let analysis = analyze(&benchmarks::lenet(), 1, 10, R);
        // A 3-task chain at batch 1 has almost no parallelism; only the
        // reconfiguration overlap helps.
        assert!(analysis.goal_number() <= 3);
    }

    #[test]
    fn analysis_accessors_roundtrip() {
        let analysis = analyze(&benchmarks::rendering_3d(), 5, 4, R);
        assert_eq!(analysis.app_name(), "3DRendering");
        assert_eq!(analysis.batch_size(), 5);
        assert_eq!(analysis.makespans().len(), 4);
        assert!(analysis.speedup(4) >= analysis.speedup(1));
        assert_eq!(analysis.speedup(1), 1.0);
    }

    #[test]
    fn optimal_slot_split_prefers_the_app_that_benefits() {
        // App A halves with a second slot; app B doesn't improve.
        let curves = vec![
            vec![SimDuration::from_secs(10), SimDuration::from_secs(5)],
            vec![SimDuration::from_secs(10), SimDuration::from_secs(10)],
        ];
        assert_eq!(optimal_slot_split(&curves, 3), Some(vec![2, 1]));
    }

    #[test]
    fn optimal_slot_split_requires_a_slot_per_app() {
        let curves = vec![vec![SimDuration::from_secs(1)], vec![SimDuration::from_secs(1)]];
        assert_eq!(optimal_slot_split(&curves, 1), None);
    }

    #[test]
    fn optimal_slot_split_ties_go_to_the_lexicographically_smallest_split() {
        // Two identical apps and one spare slot: [1, 2] and [2, 1] both
        // total 15 s, and the earlier app takes the fewest slots.
        let curve = vec![SimDuration::from_secs(10), SimDuration::from_secs(5)];
        assert_eq!(optimal_slot_split(&vec![curve; 2], 3), Some(vec![1, 2]));
        // A flat tail is not taken: two slots reach the third's makespan.
        let flat_tail = [10, 5, 5].map(SimDuration::from_secs).to_vec();
        assert_eq!(optimal_slot_split(&[flat_tail], 3), Some(vec![2]));
    }

    #[test]
    fn optimal_slot_split_matches_rule_based_on_uniform_curves() {
        // Three identical apps, 6 slots: the exact split gives 2 each.
        let curve = vec![
            SimDuration::from_secs(9),
            SimDuration::from_secs(5),
            SimDuration::from_secs(4),
        ];
        assert_eq!(optimal_slot_split(&vec![curve; 3], 6), Some(vec![2, 2, 2]));
    }

    #[test]
    #[should_panic(expected = "threshold must be a fraction")]
    fn bad_threshold_panics() {
        let estimator = PipelineEstimator::default();
        analyze_with(&estimator, &benchmarks::lenet(), 1, 2, 1.5);
    }
}
