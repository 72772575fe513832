//! Additional scheduling policies beyond the paper's evaluation.
//!
//! These are library extensions for downstream users and for ablation
//! studies: a work-conserving shortest-job-first and an earliest-deadline-
//! first policy. Both bulk-process batches and never preempt, so they are
//! directly comparable with FCFS and round-robin.

use nimblock_sim::{SimDuration, SimTime};

use crate::{AppId, Reconfig, SchedView, Scheduler};

/// Shortest-job-first: always serve the application with the least
/// estimated remaining compute. Work-conserving, bulk processing, no
/// priorities, no preemption.
///
/// SJF minimizes mean response time under ideal assumptions but starves
/// long applications under load — a useful contrast to Nimblock's
/// token-based fairness in experiments.
#[derive(Debug, Clone, Default)]
pub struct SjfScheduler {
    _private: (),
}

impl SjfScheduler {
    /// Creates the SJF scheduler.
    pub fn new() -> Self {
        SjfScheduler::default()
    }
}

impl Scheduler for SjfScheduler {
    fn name(&self) -> String {
        "SJF".to_owned()
    }

    fn next_decision_change(&mut self, _view: &SchedView<'_>) -> Option<SimTime> {
        None // decisions read only the state
    }

    fn next_reconfig(&mut self, view: &SchedView<'_>) -> Option<Reconfig> {
        view.first_free_slot()?;
        // Baseline comparison scheduler: a per-decision candidate sort is
        // its defining behavior, not a regression. nimblock: allow(hot-path-no-alloc)
        let mut apps: Vec<AppId> = view.apps_by_age().collect();
        apps.sort_by_key(|&a| {
            let runtime = view.app(a).expect("live app");
            (runtime.remaining_compute(), a)
        });
        for app in apps {
            let runtime = view.app(app).expect("live app");
            if let Some(task) = runtime.next_unplaced_ready() {
                if let Some(slot) = view.first_free_slot_fitting(app, task) {
                    return Some(Reconfig { app, task, slot });
                }
            }
        }
        None
    }
}

/// Earliest-deadline-first: serve the application whose implicit deadline
/// (`arrival + slack_factor × single-slot latency`, the deadline model of
/// the paper's §5.4 analysis) comes soonest. Work-conserving, bulk
/// processing, no preemption.
#[derive(Debug, Clone)]
pub struct EdfScheduler {
    slack_factor: f64,
}

impl EdfScheduler {
    /// Creates an EDF scheduler with implicit deadlines at
    /// `slack_factor × single-slot latency` after arrival.
    ///
    /// # Panics
    ///
    /// Panics if `slack_factor` is not positive and finite.
    pub fn new(slack_factor: f64) -> Self {
        assert!(
            slack_factor.is_finite() && slack_factor > 0.0,
            "slack factor must be positive, got {slack_factor}"
        );
        EdfScheduler { slack_factor }
    }

    /// Returns the slack factor.
    pub fn slack_factor(&self) -> f64 {
        self.slack_factor
    }
}

impl Default for EdfScheduler {
    fn default() -> Self {
        EdfScheduler::new(2.0)
    }
}

impl Scheduler for EdfScheduler {
    fn name(&self) -> String {
        "EDF".to_owned()
    }

    fn next_decision_change(&mut self, _view: &SchedView<'_>) -> Option<SimTime> {
        None // decisions read only the state
    }

    fn next_reconfig(&mut self, view: &SchedView<'_>) -> Option<Reconfig> {
        view.first_free_slot()?;
        // Baseline comparison scheduler: a per-decision candidate sort is
        // its defining behavior, not a regression. nimblock: allow(hot-path-no-alloc)
        let mut apps: Vec<AppId> = view.apps_by_age().collect();
        apps.sort_by_key(|&a| {
            let runtime = view.app(a).expect("live app");
            let isolated = runtime
                .spec()
                .single_slot_latency(runtime.batch_size(), view.reconfig_latency)
                .as_secs_f64();
            let deadline = runtime.arrival()
                + SimDuration::from_secs_f64(self.slack_factor * isolated);
            (deadline, a)
        });
        for app in apps {
            let runtime = view.app(app).expect("live app");
            if let Some(task) = runtime.next_unplaced_ready() {
                if let Some(slot) = view.first_free_slot_fitting(app, task) {
                    return Some(Reconfig { app, task, slot });
                }
            }
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
    use nimblock_workload::{generate, ArrivalEvent, EventSequence, Scenario};

    #[test]
    fn sjf_prefers_the_short_app() {
        // DR and 3DR arrive together; with one slot at a time contended,
        // 3DR must finish long before DR retires.
        let events = EventSequence::new(vec![
            ArrivalEvent::new(benchmarks::digit_recognition(), 2, Priority::Low, SimTime::ZERO),
            ArrivalEvent::new(benchmarks::rendering_3d(), 2, Priority::Low, SimTime::ZERO),
        ]);
        let report = Testbed::new(SjfScheduler::new()).run(&events);
        let r3d = report.record_for_event(1).unwrap();
        assert!(r3d.response_time().as_secs_f64() < 5.0);
    }

    #[test]
    fn edf_orders_by_implicit_deadline() {
        // Same arrival, same benchmark, different batch sizes: the smaller
        // batch has the earlier implicit deadline and retires first.
        let events = EventSequence::new(vec![
            ArrivalEvent::new(benchmarks::optical_flow(), 20, Priority::Low, SimTime::ZERO),
            ArrivalEvent::new(benchmarks::optical_flow(), 2, Priority::Low, SimTime::ZERO),
        ]);
        let report = Testbed::new(EdfScheduler::default()).run(&events);
        let big = report.record_for_event(0).unwrap();
        let small = report.record_for_event(1).unwrap();
        assert!(small.retired < big.retired);
    }

    #[test]
    fn both_policies_complete_random_mixes() {
        let events = generate(17, 10, Scenario::Stress);
        assert_eq!(Testbed::new(SjfScheduler::new()).run(&events).records().len(), 10);
        assert_eq!(
            Testbed::new(EdfScheduler::default()).run(&events).records().len(),
            10
        );
    }

    #[test]
    fn edf_accessors_and_names() {
        let edf = EdfScheduler::new(3.5);
        assert_eq!(edf.slack_factor(), 3.5);
        assert_eq!(edf.name(), "EDF");
        assert_eq!(SjfScheduler::new().name(), "SJF");
        assert!(!edf.pipelining());
    }

    #[test]
    #[should_panic(expected = "slack factor must be positive")]
    fn edf_rejects_bad_slack() {
        let _ = EdfScheduler::new(0.0);
    }
}
