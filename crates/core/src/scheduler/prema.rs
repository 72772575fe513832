//! Task-based PREMA scheduling (paper §5.1).

use nimblock_obs::nb_debug;
use nimblock_sim::SimTime;

use crate::scheduler::{SchedMetrics, TokenBank};
use crate::{AppId, Reconfig, SchedView, Scheduler};

/// The task-based PREMA comparison scheduler.
///
/// Keeps PREMA's token accumulation and candidate thresholding, and its
/// policy of choosing the *shortest candidate to execute next* (smallest
/// estimated remaining compute). As in the original NPU scheduler, one
/// application executes at a time: the chosen candidate may spread its
/// parallel task-graph branches across slots, but other applications wait
/// until it completes — there is no preemption and no cross-batch
/// pipelining, the advanced features the paper adds in Nimblock. The
/// head-of-line blocking this causes is what Nimblock's batch-preemption
/// removes ("long running tasks do not see an improvement with PREMA",
/// §5.4).
///
/// [`PremaScheduler::with_backfill`] enables a work-conserving extension
/// (not in the paper): slots the current application cannot use are offered
/// to the remaining applications, candidates first, shortest first. The
/// ablation benches compare the two.
#[derive(Debug, Clone)]
pub struct PremaScheduler {
    bank: TokenBank,
    current: Option<AppId>,
    backfill: bool,
    metrics: SchedMetrics,
    /// Reusable per-decision buffers (candidate pool, backfill order) so
    /// steady-state decisions allocate nothing.
    candidate_buf: Vec<AppId>,
    rest_buf: Vec<AppId>,
}

impl PremaScheduler {
    /// Creates the paper-faithful PREMA scheduler (one candidate executes
    /// at a time).
    pub fn new() -> Self {
        PremaScheduler {
            bank: TokenBank::new(1.0),
            current: None,
            backfill: false,
            metrics: SchedMetrics::detached(),
            candidate_buf: Vec::new(),
            rest_buf: Vec::new(),
        }
    }

    /// Creates the work-conserving variant that backfills idle slots from
    /// the applications waiting behind the current one.
    pub fn with_backfill() -> Self {
        PremaScheduler {
            backfill: true,
            ..PremaScheduler::new()
        }
    }

    /// Returns `true` if this instance backfills idle slots.
    pub fn backfills(&self) -> bool {
        self.backfill
    }

    /// Overrides the token-accumulation scale factor α.
    ///
    /// # Panics
    ///
    /// Panics if `alpha` is not positive.
    pub fn with_alpha(mut self, alpha: f64) -> Self {
        self.bank = TokenBank::new(alpha);
        self
    }

    /// Returns the application currently being executed, if any.
    pub fn current(&self) -> Option<AppId> {
        self.current
    }
}

impl Default for PremaScheduler {
    fn default() -> Self {
        PremaScheduler::new()
    }
}

impl Scheduler for PremaScheduler {
    fn name(&self) -> String {
        if self.backfill {
            "PREMA+backfill".to_owned()
        } else {
            "PREMA".to_owned()
        }
    }

    fn on_arrival(&mut self, view: &SchedView<'_>, app: AppId) {
        let runtime = view.app(app).expect("arriving app is live");
        self.bank.admit(runtime, view);
    }

    fn on_retire(&mut self, _view: &SchedView<'_>, app: AppId) {
        self.bank.remove(app);
        if self.current == Some(app) {
            self.current = None;
        }
    }

    fn attach_metrics(&mut self, registry: &nimblock_obs::Registry) {
        self.metrics.register(registry);
    }

    fn next_decision_change(&mut self, view: &SchedView<'_>) -> Option<SimTime> {
        // Without a free slot a consult returns before reading the clock.
        view.first_free_slot()?;
        self.bank.next_change()
    }

    fn next_reconfig(&mut self, view: &SchedView<'_>) -> Option<Reconfig> {
        self.metrics.decisions.inc();
        view.first_free_slot()?;
        self.bank.accumulate(view.now);
        if self.metrics.exported {
            self.metrics
                .max_tokens_milli
                .set((self.bank.max_tokens() * 1000.0) as i64);
        }
        // One candidate query serves the whole decision: repeat queries at
        // the same `now` are idempotent (threshold and candidate stamps do
        // not move between them), so reusing the buffer changes nothing.
        let pool = self
            .bank
            .candidates_into(view.now, usize::MAX, &mut self.candidate_buf);
        self.candidate_buf.retain(|c| view.app(*c).is_some());
        self.metrics.candidates.observe(pool as u64);

        // Pick the next application to execute when the board frees up:
        // the shortest candidate (estimated remaining compute).
        if self.current.is_none_or(|c| view.app(c).is_none()) {
            self.current = self.candidate_buf.iter().copied().min_by_key(|&c| {
                let runtime = view.app(c).expect("retained above");
                (runtime.remaining_compute(), c)
            });
        }
        let current = self.current?;
        let runtime = view.app(current).expect("checked above");
        // The executing application configures eagerly, like the baseline:
        // it effectively owns the board until it completes.
        if let Some(task) = runtime.next_unplaced_eager() {
            if let Some(slot) = view.first_free_slot_fitting(current, task) {
                self.metrics.directives.inc();
                nb_debug!("sched.prema", "place {current} {task} -> {slot}");
                return Some(Reconfig { app: current, task, slot });
            }
        }
        // Slots the current application cannot use go to the remaining
        // *candidates*, shortest first — the board is not left idle when
        // the executing application is a narrow chain. Non-candidates stay
        // gated behind the token threshold unless backfill is enabled.
        self.rest_buf.clear();
        self.rest_buf
            .extend(self.candidate_buf.iter().copied().filter(|&a| a != current));
        if self.backfill {
            for a in view.apps_by_age() {
                if a != current && !self.rest_buf.contains(&a) {
                    // `rest_buf` is reusable scratch; capacity tops out
                    // at the live-app count. nimblock: allow(hot-path-no-alloc)
                    self.rest_buf.push(a);
                }
            }
        }
        self.rest_buf.sort_by_key(|&a| {
            let runtime = view.app(a).expect("live app");
            (runtime.remaining_compute(), a)
        });
        for &app in &self.rest_buf {
            let runtime = view.app(app).expect("live app");
            if let Some(task) = runtime.next_unplaced_ready() {
                if let Some(slot) = view.first_free_slot_fitting(app, task) {
                    self.metrics.directives.inc();
                    nb_debug!("sched.prema", "backfill {app} {task} -> {slot}");
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
    use nimblock_workload::{ArrivalEvent, EventSequence};

    #[test]
    fn shortest_waiting_candidate_runs_next() {
        // DR grabs the board alone; OF and 3DR queue up behind it with the
        // same priority. When slots free, the shorter 3DR goes first.
        let events = EventSequence::new(vec![
            ArrivalEvent::new(benchmarks::digit_recognition(), 1, Priority::High, SimTime::ZERO),
            ArrivalEvent::new(benchmarks::optical_flow(), 5, Priority::High, SimTime::from_millis(100)),
            ArrivalEvent::new(benchmarks::rendering_3d(), 5, Priority::High, SimTime::from_millis(100)),
        ]);
        let report = Testbed::new(PremaScheduler::new()).run(&events);
        let of = report.record_for_event(1).unwrap();
        let r3d = report.record_for_event(2).unwrap();
        assert!(
            r3d.retired < of.retired,
            "3DR should finish before the longer OF under shortest-first"
        );
    }

    #[test]
    fn low_priority_stays_gated_behind_the_threshold() {
        // While the high-priority OF executes, a fresh low-priority LeNet
        // is not a candidate (threshold 9 vs tokens ~1) and must wait even
        // though slots are idle; the backfill extension lets it through.
        let events = EventSequence::new(vec![
            ArrivalEvent::new(benchmarks::optical_flow(), 20, Priority::High, SimTime::ZERO),
            ArrivalEvent::new(benchmarks::lenet(), 1, Priority::Low, SimTime::from_millis(500)),
        ]);
        let faithful = Testbed::new(PremaScheduler::new()).run(&events);
        let backfilled = Testbed::new(PremaScheduler::with_backfill()).run(&events);
        let lenet_gated = faithful.record_for_event(1).unwrap().response_time();
        let lenet_backfilled = backfilled.record_for_event(1).unwrap().response_time();
        assert!(
            lenet_gated.as_secs_f64() > 2.0 * lenet_backfilled.as_secs_f64(),
            "gated {lenet_gated} should be much slower than backfilled {lenet_backfilled}"
        );
        assert_eq!(backfilled.scheduler(), "PREMA+backfill");
    }

    #[test]
    fn priority_gates_candidacy() {
        // A high-priority arrival becomes the sole candidate and executes
        // before an already-waiting low-priority app that has not started.
        let events = EventSequence::new(vec![
            ArrivalEvent::new(benchmarks::digit_recognition(), 2, Priority::Low, SimTime::ZERO),
            ArrivalEvent::new(benchmarks::optical_flow(), 2, Priority::Low, SimTime::from_millis(10)),
            ArrivalEvent::new(benchmarks::lenet(), 2, Priority::High, SimTime::from_millis(20)),
        ]);
        let report = Testbed::new(PremaScheduler::new()).run(&events);
        let lenet = report.record_for_event(2).unwrap();
        let of = report.record_for_event(1).unwrap();
        // DR grabbed the board first (it was alone), but LeNet outranks the
        // still-waiting OF once DR finishes.
        assert!(lenet.retired < of.retired);
    }
}
