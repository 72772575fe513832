//! The scheduling-policy interface and the five evaluated policies.

mod dml;
mod extras;
mod fcfs;
mod metrics;
mod nimblock;
mod no_sharing;
mod prema;
mod round_robin;
mod tokens;

pub use dml::DmlStaticScheduler;
pub use extras::{EdfScheduler, SjfScheduler};
pub use fcfs::FcfsScheduler;
pub use nimblock::{NimblockConfig, NimblockScheduler};
pub use no_sharing::NoSharingScheduler;
pub use prema::PremaScheduler;
pub use round_robin::RoundRobinScheduler;
pub(crate) use metrics::SchedMetrics;
pub(crate) use tokens::TokenBank;

use nimblock_sim::SimTime;

use crate::{AppId, Reconfig, SchedView};

/// A scheduling policy consulted by the [`crate::Hypervisor`].
///
/// The hypervisor calls [`Scheduler::next_reconfig`] at the scheduling
/// points at which the configuration port is idle — application arrival,
/// reconfiguration completion, batch-item completion, application
/// retirement, and the periodic scheduling interval. The policy may answer
/// with at most one [`Reconfig`] directive per call (the port reconfigures
/// one slot at a time); directing a bound slot batch-preempts its idle
/// occupant.
///
/// Between events nothing but the clock moves, so a periodic tick can only
/// matter to a policy whose answer depends on time.
/// [`Scheduler::next_decision_change`] says when that can next happen, and
/// the hypervisor queues a tick only there (see [`crate::HvEvent::Tick`]).
/// The same answer gates the consult at an *item boundary*, a batch-item
/// completion after which its task keeps its slot (see
/// [`crate::HvEvent::ItemDone`]): there only item-level state has moved
/// since the last consult.
///
/// # Contract
///
/// A directive must name a live application, one of its
/// [`crate::TaskPhase::Unplaced`] tasks, and a slot that is either free or
/// occupied by an [`crate::TaskPhase::Idle`] task. The hypervisor panics on
/// violations — they are policy bugs, not runtime conditions.
///
/// # Threading
///
/// The trait itself does not require `Send`, but the parallel cluster
/// testbed builds one scheduler *per board worker thread* from a shared
/// `Fn() -> S + Sync` factory, and callers that move boxed policies across
/// threads (the CLI, the faas gateway) use `Box<dyn Scheduler + Send>`.
/// Every policy in this crate is plain owned data and therefore `Send`;
/// keep it that way (no `Rc`, no thread-local captures) — the
/// `schedulers_are_send` test pins this.
pub trait Scheduler {
    /// Human-readable policy name, used in reports.
    fn name(&self) -> String;

    /// Whether the hypervisor may pipeline batch items across dependent
    /// tasks (Figure 2(c)). Bulk-processing policies return `false`.
    fn pipelining(&self) -> bool {
        false
    }

    /// Notification that `app` was admitted (it is present in `view`).
    fn on_arrival(&mut self, view: &SchedView<'_>, app: AppId) {
        let _ = (view, app);
    }

    /// Notification that `app` retired (it is already absent from `view`).
    fn on_retire(&mut self, view: &SchedView<'_>, app: AppId) {
        let _ = (view, app);
    }

    /// Returns the next reconfiguration to perform, or `None` to leave the
    /// configuration port idle until the next scheduling point.
    fn next_reconfig(&mut self, view: &SchedView<'_>) -> Option<Reconfig>;

    /// Returns the earliest instant at which a consult on the state in
    /// `view` could do something the last consult did not; `None` if only
    /// a state change can make that happen.
    ///
    /// The hypervisor asks at two moments, each time with the
    /// configuration port idle meaning that the last consult returned
    /// `None`:
    ///
    /// - **Once an event is handled**, unless a tick is already queued; it
    ///   skips every periodic tick before the answer. The item launches
    ///   that closed the event may have moved the state since the consult
    ///   (tasks idle at a batch boundary start running). With the port
    ///   busy, no tick consults before its reconfiguration completes, and
    ///   the hypervisor asks again then.
    /// - **At an item boundary with the port idle**, before the launches,
    ///   on the state with the finished task idle; it consults only if the
    ///   answer is at or before `view.now`. Since the last consult only
    ///   item-level fields have moved: tasks' `items_done` and their
    ///   [`crate::TaskPhase::Running`] ↔ [`crate::TaskPhase::Idle`] phase.
    ///   No slot has been freed and no task has become unplaced or done.
    ///
    /// A consult "does something" when it returns a directive or records
    /// something new: PREMA and Nimblock stamp newly qualifying candidates
    /// with the consult instant. Answering too early costs a wasted tick
    /// or consult; answering too late changes the schedule.
    ///
    /// The default, `Some(view.now)`, keeps every tick and every boundary
    /// consult. Policies whose decisions read only the state answer `None`.
    /// Reading item counts only to rank what can be placed (PREMA's and
    /// SJF's shortest-first orders) does not count: a boundary frees no
    /// slot and makes no task placeable, so a consult that found nothing to
    /// place still finds nothing. The token policies answer with the next
    /// level crossing that moves their candidate pool, and Nimblock answers
    /// `view.now` when the running-versus-idle phase moves the preemption
    /// search that ended its last consult.
    fn next_decision_change(&mut self, view: &SchedView<'_>) -> Option<SimTime> {
        Some(view.now)
    }

    /// Publishes the policy's instruments (candidate counts, token levels,
    /// queue depths, …) in `registry` under `sched_*` names. The default
    /// does nothing; policies without interesting internal state need not
    /// implement it.
    fn attach_metrics(&mut self, registry: &nimblock_obs::Registry) {
        let _ = registry;
    }
}

impl<T: Scheduler + ?Sized> Scheduler for Box<T> {
    fn name(&self) -> String {
        (**self).name()
    }

    fn pipelining(&self) -> bool {
        (**self).pipelining()
    }

    fn on_arrival(&mut self, view: &SchedView<'_>, app: AppId) {
        (**self).on_arrival(view, app);
    }

    fn on_retire(&mut self, view: &SchedView<'_>, app: AppId) {
        (**self).on_retire(view, app);
    }

    fn next_reconfig(&mut self, view: &SchedView<'_>) -> Option<Reconfig> {
        (**self).next_reconfig(view)
    }

    fn next_decision_change(&mut self, view: &SchedView<'_>) -> Option<SimTime> {
        (**self).next_decision_change(view)
    }

    fn attach_metrics(&mut self, registry: &nimblock_obs::Registry) {
        (**self).attach_metrics(registry);
    }
}

#[cfg(test)]
mod send_tests {
    use super::*;

    /// Compile-time pin: every policy can cross a thread boundary, which is
    /// what lets the cluster testbed run one board per worker. If a future
    /// policy gains an `Rc` or other non-`Send` state, this stops building.
    #[test]
    fn schedulers_are_send() {
        fn assert_send<T: Send>() {}
        assert_send::<NoSharingScheduler>();
        assert_send::<FcfsScheduler>();
        assert_send::<PremaScheduler>();
        assert_send::<RoundRobinScheduler>();
        assert_send::<NimblockScheduler>();
        assert_send::<DmlStaticScheduler>();
        assert_send::<EdfScheduler>();
        assert_send::<SjfScheduler>();
        assert_send::<Box<dyn Scheduler + Send>>();
    }
}
