//! Fast list-scheduled makespan estimation.

use nimblock_app::{TaskGraph, TaskId};
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

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Event {
    ReconfigDone(TaskId),
    ItemDone(TaskId),
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
        assert!(slots > 0, "need at least one slot");
        assert!(batch > 0, "need at least one batch item");
        let n = graph.task_count();
        let topo = graph.topological_order();

        // Items each task has finished.
        let mut done = vec![0u32; n];
        // Configured tasks with no item in flight and items left, in
        // task-id order. Each holds a slot, so there are at most `slots`.
        let mut idle: Vec<TaskId> = Vec::with_capacity(slots.min(n));
        // Every pending event holds a slot too (a reconfiguration in
        // progress, or an item on a configured task). They are kept in push
        // order and pop by time, earliest pushed first among equal times.
        let mut pending: Vec<(SimTime, Event)> = Vec::with_capacity(slots.min(n));
        let mut free_slots = slots;
        let mut cap_free_at = SimTime::ZERO;
        // Tasks configure in topological order. When `topo[next]` is due,
        // every task before it has started, hence so have all its
        // predecessors, so reconfiguration overlaps upstream compute.
        let mut next = 0;
        let mut now = SimTime::ZERO;
        loop {
            // Configure the next tasks while slots allow; reconfigurations
            // serialize on the CAP.
            while free_slots > 0 && next < n {
                free_slots -= 1;
                cap_free_at = now.max(cap_free_at) + self.config.reconfig;
                pending.push((cap_free_at, Event::ReconfigDone(topo[next])));
                next += 1;
            }
            // Launch an item on every idle task whose dependency for its
            // next item is satisfied, in task-id order.
            idle.retain(|&task| {
                let own = done[task.index()];
                let ready = graph.predecessors(task).iter().all(|&p| {
                    let upstream = done[p.index()];
                    if self.config.pipelining {
                        upstream > own
                    } else {
                        upstream == batch
                    }
                });
                if ready {
                    pending.push((now + graph.task(task).latency(), Event::ItemDone(task)));
                }
                !ready
            });
            let Some(first) = (0..pending.len()).min_by_key(|&i| pending[i].0) else {
                break;
            };
            let (at, event) = pending.remove(first);
            now = at;
            let task = match event {
                Event::ReconfigDone(task) => task,
                Event::ItemDone(task) => {
                    done[task.index()] += 1;
                    if done[task.index()] == batch {
                        free_slots += 1;
                        continue;
                    }
                    task
                }
            };
            let at = idle.partition_point(|&t| t < task);
            idle.insert(at, task);
        }

        debug_assert!(
            done.iter().all(|&d| d == batch),
            "estimator ran out of events with unfinished tasks — scheduling deadlock"
        );
        // The last event is always an item completion: a configured task
        // still has its whole batch to run.
        now.elapsed()
    }
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
