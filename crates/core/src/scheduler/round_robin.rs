//! Queue-based round-robin scheduling, adapted from Coyote (paper §5.1).

use std::collections::{BTreeSet, VecDeque};

use nimblock_app::{Priority, TaskId};
use nimblock_sim::SimTime;

use crate::{AppId, Reconfig, SchedView, Scheduler};

/// The Coyote-style queue-based round-robin scheduler.
///
/// Ready tasks from all pending applications are issued to *per-slot
/// priority queues*: each task goes to the queue of the slot with the
/// fewest waiting tasks, and within a queue tasks sort by priority level
/// (FIFO among equals). Each slot serves its own queue head; there is no
/// preemption and no cross-batch pipelining.
#[derive(Debug, Clone, Default)]
pub struct RoundRobinScheduler {
    queues: Vec<VecDeque<(AppId, TaskId, Priority)>>,
    enqueued: BTreeSet<(AppId, TaskId)>,
}

impl RoundRobinScheduler {
    /// Creates the round-robin scheduler.
    pub fn new() -> Self {
        RoundRobinScheduler::default()
    }

    /// Returns the number of tasks currently waiting in slot queues.
    pub fn waiting_tasks(&self) -> usize {
        self.queues.iter().map(VecDeque::len).sum()
    }

    fn ensure_queues(&mut self, slot_count: usize) {
        if self.queues.len() != slot_count {
            self.queues.resize_with(slot_count, VecDeque::new);
        }
    }

    /// Issues every newly ready task to the slot with the fewest waiting
    /// tasks (a currently bound task counts as waiting, so free slots are
    /// preferred), keeping each queue sorted by priority (stable for equal
    /// priorities).
    fn issue_ready_tasks(&mut self, view: &SchedView<'_>) {
        for (app, runtime) in view.apps.iter() {
            for task in runtime.unplaced_ready_iter() {
                if !self.enqueued.insert((app, task)) {
                    continue;
                }
                let priority = runtime.priority();
                let needs = *runtime.spec().graph().task(task).resources();
                // Only queues of slots the task fits are eligible.
                let target = self
                    .queues
                    .iter()
                    .enumerate()
                    .filter(|(i, _)| needs.fits_within(&view.slots[*i].resources))
                    .min_by_key(|(i, q)| {
                        let occupied = usize::from(view.slots[*i].bound.is_some());
                        (q.len() + occupied, *i)
                    })
                    .map(|(i, _)| i);
                let Some(target) = target else {
                    self.enqueued.remove(&(app, task));
                    continue; // fits no slot on this device
                };
                let queue = &mut self.queues[target];
                // Insert after the last entry of >= priority.
                let pos = queue
                    .iter()
                    .position(|&(_, _, p)| p < priority)
                    .unwrap_or(queue.len());
                queue.insert(pos, (app, task, priority));
            }
        }
    }
}

impl Scheduler for RoundRobinScheduler {
    fn name(&self) -> String {
        "RR".to_owned()
    }

    fn on_retire(&mut self, _view: &SchedView<'_>, app: AppId) {
        for queue in &mut self.queues {
            queue.retain(|&(a, _, _)| a != app);
        }
        self.enqueued.retain(|&(a, _)| a != app);
    }

    fn next_decision_change(&mut self, _view: &SchedView<'_>) -> Option<SimTime> {
        None // decisions read only the state
    }

    fn next_reconfig(&mut self, view: &SchedView<'_>) -> Option<Reconfig> {
        self.ensure_queues(view.slot_count());
        self.issue_ready_tasks(view);
        // Serve the lowest-indexed free slot whose queue has work.
        for binding in view.slots {
            if !binding.is_free() {
                continue;
            }
            let queue = &mut self.queues[binding.slot.index()];
            while let Some(&(app, task, _)) = queue.front() {
                let live = view
                    .app(app)
                    .is_some_and(|rt| rt.phase(task) == crate::TaskPhase::Unplaced);
                if live {
                    queue.pop_front();
                    self.enqueued.remove(&(app, task));
                    return Some(Reconfig {
                        app,
                        task,
                        slot: binding.slot,
                    });
                }
                queue.pop_front();
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Testbed;
    use nimblock_app::benchmarks;
    use nimblock_sim::SimTime;
    use nimblock_workload::{ArrivalEvent, EventSequence};

    #[test]
    fn all_apps_complete_under_round_robin() {
        let events = EventSequence::new(vec![
            ArrivalEvent::new(benchmarks::lenet(), 3, Priority::Low, SimTime::ZERO),
            ArrivalEvent::new(benchmarks::image_compression(), 2, Priority::High, SimTime::from_millis(50)),
            ArrivalEvent::new(benchmarks::rendering_3d(), 4, Priority::Medium, SimTime::from_millis(100)),
        ]);
        let report = Testbed::new(RoundRobinScheduler::new()).run(&events);
        assert_eq!(report.records().len(), 3);
    }

    #[test]
    fn priority_sorts_within_a_queue() {
        let mut rr = RoundRobinScheduler::new();
        rr.ensure_queues(1);
        let entries = [
            (AppId::new(0), TaskId::new(0), Priority::Low),
            (AppId::new(1), TaskId::new(0), Priority::High),
            (AppId::new(2), TaskId::new(0), Priority::Medium),
            (AppId::new(3), TaskId::new(0), Priority::High),
        ];
        for (app, task, priority) in entries {
            let queue = &mut rr.queues[0];
            let pos = queue
                .iter()
                .position(|&(_, _, p)| p < priority)
                .unwrap_or(queue.len());
            queue.insert(pos, (app, task, priority));
        }
        let order: Vec<u64> = rr.queues[0].iter().map(|&(a, _, _)| a.raw()).collect();
        // High (1, then 3 FIFO), then medium (2), then low (0).
        assert_eq!(order, vec![1, 3, 2, 0]);
    }
}
