//! The periodic scheduling tick, queued only where it can act.

use nimblock_sim::{EventQueue, SimDuration, SimTime};

use crate::HvEvent;

/// The hypervisor's scheduling ticks on the interval grid `interval, 2 ×
/// interval, …`, queued only where one can act.
///
/// The every-interval schedule holds exactly one tick in the queue: the
/// tick at `q` is pushed while the tick at `q − interval` is handled, so it
/// pops after the events at `q` pushed before that moment and before those
/// pushed after it. The grid follows that schedule without queueing it:
/// `next` is the instant of the tick the schedule holds, and `queued` says
/// whether that tick is really in the queue. An unqueued tick is passed
/// over once an event after it is handled. Two rules keep every queued
/// tick where the schedule has it:
///
/// - a tick is queued either at `next`, behind the events already queued
///   at `next` (all pushed before the schedule pushed its tick), or at a
///   later grid instant that no queued event precedes;
/// - before an event is pushed at exactly `next`, the tick at `next` is
///   queued, since the schedule orders such an event after its tick.
#[derive(Debug, Clone, Copy)]
pub(crate) struct TickGrid {
    interval: SimDuration,
    next: SimTime,
    queued: bool,
    /// Cleared by the tick the run ends on, and from the start when the
    /// interval is zero (an outer driver supplies the ticks).
    live: bool,
}

impl TickGrid {
    /// A grid whose first tick, at `interval`, the caller queues when it
    /// seeds the run.
    pub(crate) fn new(interval: SimDuration) -> Self {
        TickGrid {
            interval,
            next: SimTime::ZERO + interval,
            queued: true,
            live: !interval.is_zero(),
        }
    }

    /// Whether the next tick still has to be placed: the grid is live and
    /// its tick is not queued.
    pub(crate) fn unplaced(&self) -> bool {
        self.live && !self.queued
    }

    /// Passes over the unqueued ticks before `now`, ahead of handling an
    /// event at `now`. Such an event, if it lands on the grid, precedes the
    /// tick there: had it been pushed after that tick, the push would have
    /// queued the tick.
    pub(crate) fn pass_before(&mut self, now: SimTime) {
        if self.unplaced() && self.next < now {
            let step = self.interval.as_micros();
            let behind = now.saturating_since(self.next).as_micros();
            self.next += SimDuration::from_micros(behind.div_ceil(step) * step);
        }
    }

    /// Notes that the queued tick at `now` was handled. The run ends on
    /// the tick that finds it `finished`; otherwise the schedule now holds
    /// the tick one interval later.
    pub(crate) fn handled(&mut self, now: SimTime, finished: bool) {
        self.queued = false;
        if finished {
            self.live = false;
        } else if self.live {
            self.next = now + self.interval;
        }
    }

    /// Pushes `event` at `at`, queueing the tick at `at` first when the
    /// schedule orders `event` after it.
    pub(crate) fn push(&mut self, queue: &mut EventQueue<HvEvent>, at: SimTime, event: HvEvent) {
        if self.unplaced() && at == self.next {
            self.queued = true;
            queue.push(at, HvEvent::Tick);
        }
        queue.push(at, event);
    }

    /// Queues the first tick at or after `due`, if it can be placed now:
    /// it is the tick the schedule holds, or no queued event comes before
    /// it. Otherwise the decision waits for the next event, which re-arms.
    pub(crate) fn arm(&mut self, queue: &mut EventQueue<HvEvent>, due: SimTime) {
        if !self.unplaced() {
            return;
        }
        let Some(at) = self.at_or_after(due) else {
            return; // past the end of simulated time
        };
        if at == self.next || queue.peek_time().is_none_or(|first| first > at) {
            self.next = at;
            self.queued = true;
            queue.push(at, HvEvent::Tick);
        }
    }

    /// The first grid instant at or after both `due` and `next`.
    fn at_or_after(&self, due: SimTime) -> Option<SimTime> {
        if due <= self.next {
            return Some(self.next);
        }
        let step = self.interval.as_micros();
        let behind = due.saturating_since(self.next).as_micros();
        let offset = behind.div_ceil(step).checked_mul(step)?;
        Some(SimTime::from_micros(
            self.next.as_micros().checked_add(offset)?,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MS: u64 = 1_000;

    fn ms(n: u64) -> SimTime {
        SimTime::from_micros(n * MS)
    }

    fn grid() -> TickGrid {
        TickGrid::new(SimDuration::from_millis(400))
    }

    fn drain(queue: &mut EventQueue<HvEvent>) -> Vec<(SimTime, HvEvent)> {
        std::iter::from_fn(|| queue.pop()).collect()
    }

    const DONE: HvEvent = HvEvent::ReconfigDone {
        slot: nimblock_fpga::SlotId::new(0),
    };

    #[test]
    fn the_seeded_tick_counts_as_queued() {
        let mut grid = grid();
        let mut queue = EventQueue::new();
        grid.arm(&mut queue, ms(0));
        grid.push(&mut queue, ms(400), DONE);
        assert_eq!(drain(&mut queue), vec![(ms(400), DONE)], "nothing added");
    }

    #[test]
    fn idle_ticks_are_passed_and_a_due_tick_lands_on_the_grid() {
        let mut grid = grid();
        let mut queue = EventQueue::new();
        grid.handled(ms(400), false);
        grid.pass_before(ms(1_000));
        assert_eq!(grid.next, ms(1_200));
        // Due later, and nothing queued before it: placed now, on the grid.
        grid.arm(&mut queue, ms(2_001));
        assert_eq!(drain(&mut queue), vec![(ms(2_400), HvEvent::Tick)]);
    }

    #[test]
    fn a_due_tick_waits_while_an_event_may_push_ahead_of_it() {
        let mut grid = grid();
        let mut queue = EventQueue::new();
        grid.handled(ms(400), false);
        queue.push(ms(900), DONE);
        grid.arm(&mut queue, ms(1_150));
        assert_eq!(
            queue.len(),
            1,
            "the event at 900 ms may still push at 1 200 ms"
        );
        // Due at the held tick: placed behind what is queued there.
        grid.arm(&mut queue, ms(500));
        assert_eq!(
            drain(&mut queue),
            vec![(ms(800), HvEvent::Tick), (ms(900), DONE)]
        );
    }

    #[test]
    fn an_event_pushed_onto_the_held_tick_queues_the_tick_first() {
        let mut grid = grid();
        let mut queue = EventQueue::new();
        grid.handled(ms(400), false);
        grid.push(&mut queue, ms(1_200), DONE); // ahead of the 1 200 ms tick
        grid.push(&mut queue, ms(800), DONE); // behind the 800 ms tick
        assert_eq!(
            drain(&mut queue),
            vec![(ms(800), HvEvent::Tick), (ms(800), DONE), (ms(1_200), DONE)]
        );
    }

    #[test]
    fn the_finishing_tick_ends_the_grid() {
        let mut grid = grid();
        let mut queue = EventQueue::new();
        grid.handled(ms(400), true);
        grid.arm(&mut queue, ms(0));
        grid.push(&mut queue, ms(800), DONE);
        assert_eq!(drain(&mut queue), vec![(ms(800), DONE)]);
    }

    #[test]
    fn a_zero_interval_never_ticks() {
        let mut grid = TickGrid::new(SimDuration::ZERO);
        let mut queue = EventQueue::new();
        grid.handled(ms(0), false);
        grid.arm(&mut queue, ms(0));
        grid.push(&mut queue, ms(0), DONE);
        assert_eq!(drain(&mut queue), vec![(ms(0), DONE)]);
    }
}
