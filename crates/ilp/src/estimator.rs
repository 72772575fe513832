//! Fast list-scheduled makespan estimation.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use nimblock_app::TaskGraph;
use nimblock_sim::{SimDuration, SimTime};

/// Configuration of a [`PipelineEstimator`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EstimatorConfig {
    /// Latency of one partial reconfiguration.
    pub reconfig: SimDuration,
    /// Whether tasks pipeline across batch items (the fine-grained sharing
    /// mode of Figure 2(c)); when `false`, a task waits for its predecessors
    /// to finish the *whole* batch (bulk processing, Figure 2(a)/(b)).
    pub pipelining: bool,
}

impl Default for EstimatorConfig {
    fn default() -> Self {
        EstimatorConfig {
            reconfig: SimDuration::from_millis(nimblock_fpga_reconfig_millis()),
            pipelining: true,
        }
    }
}

/// The ZCU106 reconfiguration latency without depending on `nimblock-fpga`.
/// Kept in sync by the cross-crate integration tests.
const fn nimblock_fpga_reconfig_millis() -> u64 {
    80
}

/// Estimates the makespan of one application on `k` slots.
///
/// This is the reproduction's stand-in for the DML ILP formulation the paper
/// solves with Gurobi (§4.2): a deterministic greedy list schedule that
/// models the two effects the formulation captures — serialized partial
/// reconfiguration and cross-batch pipelining. The saturation analysis only
/// needs the *shape* of makespan versus slot count, for which a greedy
/// schedule is accurate on these task graphs; `crate::saturation` tests
/// cross-check it against the exact ILP on small instances.
///
/// # Example
///
/// ```
/// use nimblock_app::benchmarks;
/// use nimblock_ilp::{EstimatorConfig, PipelineEstimator};
///
/// let estimator = PipelineEstimator::new(EstimatorConfig::default());
/// let graph = benchmarks::optical_flow();
/// let one = estimator.makespan(graph.graph(), 10, 1);
/// let four = estimator.makespan(graph.graph(), 10, 4);
/// assert!(four < one, "more slots should not slow an app down");
/// ```
#[derive(Debug, Clone, Default)]
pub struct PipelineEstimator {
    config: EstimatorConfig,
}

impl PipelineEstimator {
    /// Creates an estimator with the given configuration.
    pub fn new(config: EstimatorConfig) -> Self {
        PipelineEstimator { config }
    }

    /// Returns the estimator configuration.
    pub fn config(&self) -> &EstimatorConfig {
        &self.config
    }

    /// Estimates the time to process `batch` items of `graph` on `slots`
    /// slots, including all reconfigurations, starting from an empty device.
    ///
    /// # Panics
    ///
    /// Panics if `slots` is zero or `batch` is zero.
    pub fn makespan(&self, graph: &TaskGraph, batch: u32, slots: usize) -> SimDuration {
        self.makespan_in(graph, batch, slots, &mut Workspace::default())
    }

    /// [`PipelineEstimator::makespan`] in caller-owned buffers, so a sweep
    /// over slot counts allocates them once.
    ///
    /// The list schedule is a max-plus recurrence, computed in one pass
    /// over the topological order. Tasks configure in that order, one slot
    /// each, and reconfigurations serialize on the CAP. The first `slots`
    /// tasks start configuring at zero; every later one takes the slot
    /// freed by the earliest batch completion not yet taken. Item `i` of a
    /// task ends `latency` after the latest of its configuration's end,
    /// its own item `i - 1`, and each predecessor's item `i` (its last
    /// item without pipelining). The makespan is the last batch completion.
    pub(crate) fn makespan_in(
        &self,
        graph: &TaskGraph,
        batch: u32,
        slots: usize,
        work: &mut Workspace,
    ) -> SimDuration {
        assert!(slots > 0, "need at least one slot");
        assert!(batch > 0, "need at least one batch item");
        let batch = batch as usize;
        // Item end times, one row of `batch` per task id.
        let finish = &mut work.finish;
        finish.clear();
        finish.resize(graph.task_count() * batch, SimTime::ZERO);
        // Batch completions whose slot no configuration has taken yet.
        // They pop in time order: a task configured after a pop finishes
        // no earlier than that pop, so what it pushes cannot precede it.
        let freed = &mut work.freed;
        freed.clear();
        let mut cap_free_at = SimTime::ZERO;
        let mut makespan = SimTime::ZERO;
        for (j, &task) in graph.topological_order().iter().enumerate() {
            let slot_free_at = if j < slots {
                SimTime::ZERO
            } else {
                // `j` tasks have configured and `slots` of them took the
                // empty device, so `j - slots` completions have been taken.
                freed
                    .pop()
                    .expect("each task past the first `slots` frees one")
                    .0
            };
            cap_free_at = slot_free_at.max(cap_free_at) + self.config.reconfig;
            let row = task.index() * batch;
            // Seed the row with when each item's inputs are ready, then
            // chain the items through the task in order.
            if self.config.pipelining {
                finish[row..row + batch].fill(cap_free_at);
                for &pred in graph.predecessors(task) {
                    let pred_row = pred.index() * batch;
                    for i in 0..batch {
                        finish[row + i] = finish[row + i].max(finish[pred_row + i]);
                    }
                }
            } else {
                let inputs_ready = graph
                    .predecessors(task)
                    .iter()
                    .map(|pred| finish[pred.index() * batch + batch - 1])
                    .fold(cap_free_at, SimTime::max);
                finish[row..row + batch].fill(inputs_ready);
            }
            let latency = graph.task(task).latency();
            let mut done = SimTime::ZERO;
            for end in &mut finish[row..row + batch] {
                done = done.max(*end) + latency;
                *end = done;
            }
            freed.push(Reverse(done));
            makespan = makespan.max(done);
        }
        makespan.elapsed()
    }
}

/// The buffers of one makespan estimate, reused across the slot counts of
/// a saturation sweep.
#[derive(Debug, Default)]
pub(crate) struct Workspace {
    finish: Vec<SimTime>,
    freed: BinaryHeap<Reverse<SimTime>>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use nimblock_app::{benchmarks, TaskGraphBuilder, TaskSpec};

    fn config(pipelining: bool) -> EstimatorConfig {
        EstimatorConfig {
            reconfig: SimDuration::from_millis(80),
            pipelining,
        }
    }

    fn chain(latencies_ms: &[u64]) -> TaskGraph {
        let mut builder = TaskGraphBuilder::new();
        let ids: Vec<_> = latencies_ms
            .iter()
            .enumerate()
            .map(|(i, &ms)| builder.add_task(TaskSpec::new(format!("t{i}"), SimDuration::from_millis(ms))))
            .collect();
        builder.add_chain(&ids).unwrap();
        builder.build().unwrap()
    }

    #[test]
    fn single_task_single_slot() {
        let graph = chain(&[100]);
        let est = PipelineEstimator::new(config(true));
        // 80 ms reconfig + 3 × 100 ms.
        assert_eq!(
            est.makespan(&graph, 3, 1),
            SimDuration::from_millis(380)
        );
    }

    #[test]
    fn single_slot_chain_serializes_everything() {
        let graph = chain(&[100, 100]);
        let est = PipelineEstimator::new(config(true));
        // reconfig t0 (80) + 2×100 + reconfig t1 (80) + 2×100 = 560 ms.
        assert_eq!(est.makespan(&graph, 2, 1), SimDuration::from_millis(560));
    }

    #[test]
    fn two_slots_pipeline_a_two_task_chain() {
        let graph = chain(&[100, 100]);
        let est = PipelineEstimator::new(config(true));
        // t0 cfg at 80, items at 180, 280. t1 cfg at 160.
        // t1 item0 starts at 180 -> 280; item1 at 280 -> 380.
        assert_eq!(est.makespan(&graph, 2, 2), SimDuration::from_millis(380));
    }

    #[test]
    fn third_task_of_a_chain_waits_for_a_freed_slot() {
        let graph = chain(&[100, 100, 100]);
        let est = PipelineEstimator::new(config(true));
        // t0 cfg 0..80, items end 180, 280: batch done at 280.
        // t1 cfg 80..160, items end max(160, 180) + 100 = 280, then 380.
        // t2 takes t0's slot at 280: cfg 280..360, items end
        // max(360, 280) + 100 = 460, then max(460, 380) + 100 = 560.
        assert_eq!(est.makespan(&graph, 2, 2), SimDuration::from_millis(560));
        // With a third slot t2 configures at 160..240 instead:
        // items end max(240, 280) + 100 = 380, then 480.
        assert_eq!(est.makespan(&graph, 2, 3), SimDuration::from_millis(480));
    }

    #[test]
    fn a_freed_slot_goes_to_the_earliest_batch_completion() {
        let mut builder = TaskGraphBuilder::new();
        for (name, ms) in [("long", 300), ("short", 50), ("last", 100)] {
            builder.add_task(TaskSpec::new(name, SimDuration::from_millis(ms)));
        }
        let graph = builder.build().unwrap();
        let est = PipelineEstimator::new(config(true));
        // long cfg 0..80, done 380; short cfg 80..160, done 210. `last`
        // takes short's slot, not long's: cfg 210..290, done 390.
        assert_eq!(est.makespan(&graph, 1, 2), SimDuration::from_millis(390));
    }

    #[test]
    fn bulk_mode_waits_for_whole_batch() {
        let graph = chain(&[100, 100]);
        let est = PipelineEstimator::new(config(false));
        // t0 cfg 80, batch done at 280; t1 cfg'd long before, runs 280..480.
        assert_eq!(est.makespan(&graph, 2, 2), SimDuration::from_millis(480));
    }

    #[test]
    fn more_slots_never_hurt() {
        let est = PipelineEstimator::new(config(true));
        for app in benchmarks::all() {
            let graph = app.graph();
            let mut prev = est.makespan(graph, 6, 1);
            for k in 2..=10 {
                let m = est.makespan(graph, 6, k);
                assert!(
                    m <= prev,
                    "{}: makespan({k}) = {m} > makespan({}) = {prev}",
                    app.name(),
                    k - 1
                );
                prev = m;
            }
        }
    }

    #[test]
    fn pipelining_beats_bulk_on_batched_chains() {
        let pipe = PipelineEstimator::new(config(true));
        let bulk = PipelineEstimator::new(config(false));
        let graph = benchmarks::optical_flow();
        assert!(
            pipe.makespan(graph.graph(), 10, 4) < bulk.makespan(graph.graph(), 10, 4)
        );
    }

    #[test]
    fn batch_one_gains_nothing_from_pipelining() {
        let pipe = PipelineEstimator::new(config(true));
        let bulk = PipelineEstimator::new(config(false));
        let graph = benchmarks::lenet();
        assert_eq!(
            pipe.makespan(graph.graph(), 1, 3),
            bulk.makespan(graph.graph(), 1, 3)
        );
    }

    #[test]
    fn alexnet_completes_on_few_slots() {
        let est = PipelineEstimator::new(config(true));
        let graph = benchmarks::alexnet();
        // 38 tasks on 2 slots must terminate (no deadlock) and beat 1 slot.
        let two = est.makespan(graph.graph(), 2, 2);
        let one = est.makespan(graph.graph(), 2, 1);
        assert!(two < one);
    }

    #[test]
    #[should_panic(expected = "at least one slot")]
    fn zero_slots_panics() {
        let est = PipelineEstimator::default();
        est.makespan(benchmarks::lenet().graph(), 1, 0);
    }

    #[test]
    #[should_panic(expected = "at least one batch item")]
    fn zero_batch_panics() {
        let est = PipelineEstimator::default();
        est.makespan(benchmarks::lenet().graph(), 0, 1);
    }
}
