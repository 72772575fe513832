//! The no-sharing baseline (paper §5.1).

use std::collections::VecDeque;

use nimblock_sim::SimTime;

use crate::{AppId, Reconfig, SchedView, Scheduler};

/// The baseline scheduler: no sharing and no virtualization.
///
/// Only one application uses the FPGA at a time; the rest wait in a FIFO
/// pending queue. The active application may use *all* slots to execute
/// parallel branches of its task graph (and to hide reconfiguration behind
/// upstream compute), but batch items are bulk-processed — no cross-batch
/// pipelining — and nothing is ever preempted.
///
/// # Example
///
/// ```
/// use nimblock_core::{NoSharingScheduler, Testbed};
/// use nimblock_workload::{generate, Scenario};
///
/// let report = Testbed::new(NoSharingScheduler::new()).run(&generate(0, 3, Scenario::Standard));
/// assert_eq!(report.scheduler(), "NoSharing");
/// ```
#[derive(Debug, Clone, Default)]
pub struct NoSharingScheduler {
    active: Option<AppId>,
    fifo: VecDeque<AppId>,
}

impl NoSharingScheduler {
    /// Creates the baseline scheduler.
    pub fn new() -> Self {
        NoSharingScheduler::default()
    }

    /// Returns the application currently owning the board, if any.
    pub fn active(&self) -> Option<AppId> {
        self.active
    }
}

impl Scheduler for NoSharingScheduler {
    fn name(&self) -> String {
        "NoSharing".to_owned()
    }

    fn on_arrival(&mut self, _view: &SchedView<'_>, app: AppId) {
        // Per-arrival FIFO admission; amortized VecDeque growth bounded
        // by live apps. nimblock: allow(hot-path-no-alloc)
        self.fifo.push_back(app);
    }

    fn on_retire(&mut self, _view: &SchedView<'_>, app: AppId) {
        if self.active == Some(app) {
            self.active = None;
        }
    }

    fn next_decision_change(&mut self, _view: &SchedView<'_>) -> Option<SimTime> {
        None // decisions read only the state
    }

    fn next_reconfig(&mut self, view: &SchedView<'_>) -> Option<Reconfig> {
        // Promote the next waiting application when the board is free.
        if self.active.is_none_or(|a| view.app(a).is_none()) {
            self.active = None;
            while let Some(front) = self.fifo.pop_front() {
                if view.app(front).is_some() {
                    self.active = Some(front);
                    break;
                }
            }
        }
        let app = self.active?;
        let runtime = view.app(app)?;
        let task = runtime.next_unplaced_eager()?;
        let slot = view.first_free_slot_fitting(app, task)?;
        Some(Reconfig { app, task, slot })
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
    fn applications_serialize() {
        // Two LeNets arriving together: the second's response time includes
        // the first's full execution.
        let events = EventSequence::new(vec![
            ArrivalEvent::new(benchmarks::lenet(), 5, Priority::Low, SimTime::ZERO),
            ArrivalEvent::new(benchmarks::lenet(), 5, Priority::High, SimTime::ZERO),
        ]);
        let report = Testbed::new(NoSharingScheduler::new()).run(&events);
        let first = report.records()[0].response_time();
        let second = report.records()[1].response_time();
        assert!(
            second > first,
            "second app ({second}) must wait for the first ({first})"
        );
        // Not even high priority jumps the FIFO.
        assert!(second.as_secs_f64() >= 2.0 * first.as_secs_f64() * 0.8);
    }

    #[test]
    fn lenet_batch5_matches_table3_execution_time() {
        // Calibration check: baseline LeNet execution ≈ 0.73 s at batch 5.
        let events = EventSequence::new(vec![ArrivalEvent::new(
            benchmarks::lenet(),
            5,
            Priority::Low,
            SimTime::ZERO,
        )]);
        let report = Testbed::new(NoSharingScheduler::new()).run(&events);
        let exec = report.records()[0].execution_time().as_secs_f64();
        assert!(
            (exec - 0.73).abs() / 0.73 < 0.15,
            "LeNet baseline execution {exec} too far from 0.73 s"
        );
    }
}
