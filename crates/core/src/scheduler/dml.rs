//! A DML-style static scheduler (paper §6.2 related work).
//!
//! DML solves the slot-allocation problem with an offline ILP, relying on
//! *prior knowledge of applications and their arrival times*, requires the
//! user to statically designate slot counts, and ignores priorities. This
//! policy reproduces that contrast: it receives the whole stimulus up
//! front, splits the board's slots among the applications of each arrival
//! wave with the exact ILP from `nimblock-ilp`, and then holds those
//! allocations fixed — no tokens, no preemption, no reallocation.
//!
//! Comparing it with Nimblock quantifies the paper's argument that dynamic
//! allocation without user input can match a static optimal split while
//! also handling priorities and unpredictable arrivals.

use std::collections::BTreeMap;

use nimblock_ilp::{saturation, EstimatorConfig, PipelineEstimator};
use nimblock_sim::{SimDuration, SimTime};
use nimblock_workload::EventSequence;

use crate::{AppId, Reconfig, SchedView, Scheduler};

/// The static DML-style policy. Build it with the full stimulus (the prior
/// knowledge DML assumes) via [`DmlStaticScheduler::plan`].
#[derive(Debug, Clone)]
pub struct DmlStaticScheduler {
    /// Static slot allocation per stimulus event index.
    planned: Vec<usize>,
    /// Live apps' allocations, looked up at admission by event order.
    admitted: BTreeMap<AppId, usize>,
    next_event: usize,
    pipelining: bool,
}

impl DmlStaticScheduler {
    /// Plans static allocations for `events` on a `slot_count`-slot device
    /// with `reconfig` latency: each application's makespan-versus-slots
    /// curve is estimated, and the board is split by the exact ILP among
    /// the applications of each overlapping arrival window.
    ///
    /// The window heuristic mirrors DML's usage: applications whose
    /// arrivals fall within one estimated makespan of each other are
    /// assumed co-resident and share the split.
    pub fn plan(events: &EventSequence, slot_count: usize, reconfig: SimDuration) -> Self {
        let estimator = PipelineEstimator::new(EstimatorConfig {
            reconfig,
            pipelining: true,
        });
        // Estimate each app's solo curve.
        let curves: Vec<Vec<SimDuration>> = events
            .iter()
            .map(|event| {
                (1..=slot_count)
                    .map(|k| estimator.makespan(event.app().graph(), event.batch_size(), k))
                    .collect()
            })
            .collect();
        // Partition events into co-residency windows by arrival time.
        let mut planned = vec![1usize; events.len()];
        let mut window: Vec<usize> = Vec::new();
        let mut window_end = nimblock_sim::SimTime::ZERO;
        let flush = |window: &[usize], planned: &mut Vec<usize>, curves: &[Vec<SimDuration>]| {
            if window.is_empty() {
                return;
            }
            let window_curves: Vec<Vec<SimDuration>> =
                window.iter().map(|&i| curves[i].clone()).collect();
            // More co-residents than slots: everyone gets one slot (the ILP
            // would be infeasible); otherwise split exactly.
            if window.len() > slot_count {
                for &i in window {
                    planned[i] = 1;
                }
            } else if let Ok(split) = saturation::optimal_slot_split(&window_curves, slot_count) {
                for (&i, slots) in window.iter().zip(split) {
                    planned[i] = slots;
                }
            }
        };
        for (index, event) in events.iter().enumerate() {
            if !window.is_empty() && event.arrival() > window_end {
                flush(&window, &mut planned, &curves);
                window.clear();
            }
            // Extend the window to this app's estimated solo completion.
            let solo = curves[index][0];
            window_end = window_end.max(event.arrival() + solo);
            window.push(index);
        }
        flush(&window, &mut planned, &curves);
        DmlStaticScheduler {
            planned,
            admitted: BTreeMap::new(),
            next_event: 0,
            pipelining: true,
        }
    }

    /// Returns the planned allocation per stimulus event.
    pub fn planned_allocations(&self) -> &[usize] {
        &self.planned
    }
}

impl Scheduler for DmlStaticScheduler {
    fn name(&self) -> String {
        "DML-static".to_owned()
    }

    fn pipelining(&self) -> bool {
        self.pipelining
    }

    fn on_arrival(&mut self, _view: &SchedView<'_>, app: AppId) {
        // Applications are admitted in stimulus order (the hypervisor
        // assigns AppIds densely), so the next planned slot count is this
        // application's.
        let allocation = self.planned.get(self.next_event).copied().unwrap_or(1);
        self.next_event += 1;
        self.admitted.insert(app, allocation);
    }

    fn on_retire(&mut self, _view: &SchedView<'_>, app: AppId) {
        self.admitted.remove(&app);
    }

    fn next_decision_change(&mut self, _view: &SchedView<'_>) -> Option<SimTime> {
        None // decisions read only the state
    }

    fn next_reconfig(&mut self, view: &SchedView<'_>) -> Option<Reconfig> {
        view.first_free_slot()?;
        // Oldest first, respecting the static allocation; no preemption.
        for (&app, &allocation) in &self.admitted {
            let Some(runtime) = view.app(app) else { continue };
            if runtime.slots_used() >= allocation {
                continue;
            }
            if let Some(task) = runtime.next_unplaced_eager() {
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
    use nimblock_workload::{generate, ArrivalEvent, Scenario};

    const R: SimDuration = SimDuration::from_millis(80);

    #[test]
    fn solo_app_gets_many_slots() {
        let events = EventSequence::new(vec![ArrivalEvent::new(
            benchmarks::optical_flow(),
            10,
            Priority::Low,
            SimTime::ZERO,
        )]);
        let planner = DmlStaticScheduler::plan(&events, 10, R);
        assert!(planner.planned_allocations()[0] > 1);
    }

    #[test]
    fn coresident_apps_share_the_split() {
        // Two long apps arriving together must split the ten slots.
        let events = EventSequence::new(vec![
            ArrivalEvent::new(benchmarks::optical_flow(), 10, Priority::Low, SimTime::ZERO),
            ArrivalEvent::new(benchmarks::alexnet(), 10, Priority::Low, SimTime::from_millis(100)),
        ]);
        let planner = DmlStaticScheduler::plan(&events, 10, R);
        let total: usize = planner.planned_allocations().iter().sum();
        assert!(total <= 10, "static split must fit the board, got {total}");
        assert!(planner.planned_allocations().iter().all(|&a| a >= 1));
    }

    #[test]
    fn oversubscribed_window_falls_back_to_one_each() {
        let events = EventSequence::new(
            (0..15u64)
                .map(|i| {
                    ArrivalEvent::new(
                        benchmarks::digit_recognition(),
                        5,
                        Priority::Low,
                        SimTime::from_millis(i * 10),
                    )
                })
                .collect(),
        );
        let planner = DmlStaticScheduler::plan(&events, 10, R);
        assert!(planner.planned_allocations().iter().all(|&a| a == 1));
    }

    #[test]
    fn static_plan_runs_to_completion() {
        let events = generate(23, 10, Scenario::Stress);
        let planner = DmlStaticScheduler::plan(&events, 10, R);
        let report = Testbed::new(planner).run(&events);
        assert_eq!(report.records().len(), 10);
        assert_eq!(report.scheduler(), "DML-static");
    }

    #[test]
    fn nimblock_is_competitive_without_prior_knowledge() {
        // The paper's claim: dynamic Nimblock matches a static optimal
        // split without knowing arrivals in advance. Allow DML a small
        // edge, but not a blowout.
        let events = generate(24, 12, Scenario::Stress);
        let planner = DmlStaticScheduler::plan(&events, 10, R);
        let dml = Testbed::new(planner).run(&events);
        let nimblock = Testbed::new(crate::NimblockScheduler::default()).run(&events);
        assert!(
            nimblock.mean_response_secs() < dml.mean_response_secs() * 1.5,
            "Nimblock {:.1}s vs DML-static {:.1}s",
            nimblock.mean_response_secs(),
            dml.mean_response_secs()
        );
    }
}
