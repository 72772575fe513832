//! First-come, first-served task scheduling (paper §5.1).

use std::collections::{BTreeSet, VecDeque};

use nimblock_app::TaskId;
use nimblock_obs::nb_debug;
use nimblock_sim::SimTime;

use crate::scheduler::SchedMetrics;
use crate::{AppId, Reconfig, SchedView, Scheduler, TaskPhase};

/// The naive sharing scheduler: "all tasks that are ready to execute from
/// all applications are selected in the order that they arrived" (§5.1).
///
/// Tasks enter a single FIFO queue *when they become ready* (all
/// predecessors have finished the whole batch). A task that becomes ready
/// later — for example the next stage of a chain — queues behind every task
/// that was already waiting, which is what makes FCFS degrade under
/// congestion. Applications share the board and may execute parallel
/// branches simultaneously, but batches are bulk-processed, priorities are
/// ignored, and nothing is preempted.
#[derive(Debug, Clone, Default)]
pub struct FcfsScheduler {
    ready: VecDeque<(AppId, TaskId)>,
    enqueued: BTreeSet<(AppId, TaskId)>,
    metrics: SchedMetrics,
}

impl FcfsScheduler {
    /// Creates the FCFS scheduler.
    pub fn new() -> Self {
        FcfsScheduler::default()
    }

    /// Returns the number of ready tasks waiting for a slot.
    pub fn waiting_tasks(&self) -> usize {
        self.ready.len()
    }
}

impl Scheduler for FcfsScheduler {
    fn name(&self) -> String {
        "FCFS".to_owned()
    }

    fn on_retire(&mut self, _view: &SchedView<'_>, app: AppId) {
        self.ready.retain(|&(a, _)| a != app);
        self.enqueued.retain(|&(a, _)| a != app);
    }

    fn attach_metrics(&mut self, registry: &nimblock_obs::Registry) {
        self.metrics.register(registry);
    }

    fn next_decision_change(&mut self, _view: &SchedView<'_>) -> Option<SimTime> {
        None // decisions read only the state
    }

    fn next_reconfig(&mut self, view: &SchedView<'_>) -> Option<Reconfig> {
        self.metrics.decisions.inc();
        // Enqueue tasks that have just become ready. Tasks becoming ready
        // at the same scheduling point order by application age.
        for (app, runtime) in view.apps.iter() {
            for task in runtime.unplaced_ready_iter() {
                if self.enqueued.insert((app, task)) {
                    // Ready-queue growth is bounded by live tasks and
                    // amortized. nimblock: allow(hot-path-no-alloc)
                    self.ready.push_back((app, task));
                }
            }
        }
        self.metrics.ready_depth.set(self.ready.len() as i64);
        view.first_free_slot()?;
        while let Some(&(app, task)) = self.ready.front() {
            let placeable = view
                .app(app)
                .is_some_and(|rt| rt.phase(task) == TaskPhase::Unplaced);
            if placeable {
                // The head waits for a slot it fits; FCFS does not reorder.
                let slot = view.first_free_slot_fitting(app, task)?;
                self.ready.pop_front();
                self.enqueued.remove(&(app, task));
                self.metrics.directives.inc();
                self.metrics.ready_depth.add(-1);
                nb_debug!("sched.fcfs", "place {app} {task} -> {slot}");
                return Some(Reconfig { app, task, slot });
            }
            self.ready.pop_front();
            self.enqueued.remove(&(app, task));
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Testbed;
    use nimblock_app::{benchmarks, Priority};
    use nimblock_sim::SimTime;
    use nimblock_workload::{ArrivalEvent, EventSequence};

    #[test]
    fn independent_apps_share_the_board() {
        // Two LeNets arriving together finish almost concurrently under
        // FCFS, unlike the serializing baseline.
        let events = EventSequence::new(vec![
            ArrivalEvent::new(benchmarks::lenet(), 5, Priority::Low, SimTime::ZERO),
            ArrivalEvent::new(benchmarks::lenet(), 5, Priority::Low, SimTime::ZERO),
        ]);
        let report = Testbed::new(FcfsScheduler::new()).run(&events);
        let a = report.records()[0].response_time().as_secs_f64();
        let b = report.records()[1].response_time().as_secs_f64();
        assert!((a - b).abs() / a.max(b) < 0.5, "responses {a} vs {b} should overlap");
    }

    #[test]
    fn later_ready_stages_requeue_behind_waiting_tasks() {
        // Eleven single-priority apps saturate the ten slots; a chain's
        // second stage must requeue and wait rather than re-claiming a slot
        // immediately. All apps must still complete.
        let mut events = Vec::new();
        for i in 0..11 {
            events.push(ArrivalEvent::new(
                benchmarks::rendering_3d(),
                5,
                Priority::Low,
                SimTime::from_millis(i * 10),
            ));
        }
        let report = Testbed::new(FcfsScheduler::new()).run(&EventSequence::new(events));
        assert_eq!(report.records().len(), 11);
    }

    #[test]
    fn priority_is_ignored() {
        // A high-priority late arrival does not overtake earlier tasks that
        // are already ready: arrival order rules.
        let events = EventSequence::new(vec![
            ArrivalEvent::new(benchmarks::digit_recognition(), 2, Priority::Low, SimTime::ZERO),
            ArrivalEvent::new(benchmarks::lenet(), 2, Priority::High, SimTime::from_millis(10)),
        ]);
        let report = Testbed::new(FcfsScheduler::new()).run(&events);
        // Both still complete (board has ten slots, so LeNet is not starved).
        assert_eq!(report.records().len(), 2);
    }
}
