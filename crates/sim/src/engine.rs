//! Simulation driver.

use crate::{EventQueue, SimTime};

/// Reacts to events popped from the queue.
///
/// Handlers receive the current virtual time, the event, and mutable access
/// to the queue so they can schedule follow-up events. A handler must never
/// schedule an event in the past; [`Simulation::run`] checks this and panics,
/// because time travel silently corrupts every downstream metric.
pub trait Handler<E> {
    /// Processes one event occurring at virtual time `now`.
    fn handle(&mut self, now: SimTime, event: E, queue: &mut EventQueue<E>);
}

/// Drives a [`Handler`] over an [`EventQueue`] in timestamp order.
///
/// # Example
///
/// ```
/// use nimblock_sim::{EventQueue, Handler, SimTime, Simulation};
///
/// struct Recorder(Vec<u32>);
/// impl Handler<u32> for Recorder {
///     fn handle(&mut self, _now: SimTime, event: u32, _queue: &mut EventQueue<u32>) {
///         self.0.push(event);
///     }
/// }
///
/// let mut sim = Simulation::new(Recorder(Vec::new()));
/// sim.queue_mut().push(SimTime::from_millis(2), 2);
/// sim.queue_mut().push(SimTime::from_millis(1), 1);
/// sim.run();
/// assert_eq!(sim.handler().0, vec![1, 2]);
/// ```
#[derive(Debug)]
pub struct Simulation<E, H> {
    queue: EventQueue<E>,
    handler: H,
    now: SimTime,
    steps: u64,
    max_queue_depth: usize,
}

impl<E, H: Handler<E>> Simulation<E, H> {
    /// Creates a simulation at time zero with an empty event queue.
    pub fn new(handler: H) -> Self {
        Simulation {
            queue: EventQueue::new(),
            handler,
            now: SimTime::ZERO,
            steps: 0,
            max_queue_depth: 0,
        }
    }

    /// Returns the current virtual time (the timestamp of the last event
    /// processed, or zero before any event).
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Returns the number of events processed so far.
    pub fn steps(&self) -> u64 {
        self.steps
    }

    /// Returns the high-water mark of the event-queue depth, sampled at
    /// every [`Simulation::step`] before the pop. A proxy for how much
    /// concurrent future work the model keeps in flight.
    pub fn max_queue_depth(&self) -> usize {
        self.max_queue_depth
    }

    /// Returns a shared reference to the handler.
    pub fn handler(&self) -> &H {
        &self.handler
    }

    /// Returns an exclusive reference to the handler.
    pub fn handler_mut(&mut self) -> &mut H {
        &mut self.handler
    }

    /// Returns a shared reference to the event queue.
    pub fn queue(&self) -> &EventQueue<E> {
        &self.queue
    }

    /// Returns an exclusive reference to the event queue, typically to seed
    /// initial events before calling [`Simulation::run`].
    pub fn queue_mut(&mut self) -> &mut EventQueue<E> {
        &mut self.queue
    }

    /// Processes a single event, returning `false` when the queue is empty.
    ///
    /// # Panics
    ///
    /// Panics if the next event is timestamped before the current virtual
    /// time, which would mean a handler scheduled an event in the past.
    pub fn step(&mut self) -> bool {
        self.max_queue_depth = self.max_queue_depth.max(self.queue.len());
        let Some((at, event)) = self.queue.pop() else {
            return false;
        };
        assert!(
            at >= self.now,
            "event scheduled in the past: {at} < {now}",
            now = self.now
        );
        self.now = at;
        self.steps += 1;
        self.handler.handle(at, event, &mut self.queue);
        true
    }

    /// Runs until the event queue drains, returning the final virtual time.
    pub fn run(&mut self) -> SimTime {
        while self.step() {}
        self.now
    }

    /// Runs until the queue drains or the next event would occur after
    /// `deadline`, returning the final virtual time. Events at exactly
    /// `deadline` are processed.
    pub fn run_until(&mut self, deadline: SimTime) -> SimTime {
        // One queue scan per event instead of peek + step's pop. Depth is
        // sampled as len-after-pop + 1, which equals step's pre-pop sample.
        while let Some((at, event)) = self.queue.pop_at_or_before(deadline) {
            self.max_queue_depth = self.max_queue_depth.max(self.queue.len() + 1);
            assert!(
                at >= self.now,
                "event scheduled in the past: {at} < {now}",
                now = self.now
            );
            self.now = at;
            self.steps += 1;
            self.handler.handle(at, event, &mut self.queue);
        }
        self.now
    }

    /// Consumes the simulation and returns the handler.
    pub fn into_handler(self) -> H {
        self.handler
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SimDuration;

    struct Chain {
        seen: Vec<(SimTime, u32)>,
        spawn_until: u32,
    }

    impl Handler<u32> for Chain {
        fn handle(&mut self, now: SimTime, event: u32, queue: &mut EventQueue<u32>) {
            self.seen.push((now, event));
            if event < self.spawn_until {
                queue.push(now + SimDuration::from_millis(10), event + 1);
            }
        }
    }

    fn chain_sim(spawn_until: u32) -> Simulation<u32, Chain> {
        let mut sim = Simulation::new(Chain {
            seen: Vec::new(),
            spawn_until,
        });
        sim.queue_mut().push(SimTime::ZERO, 0);
        sim
    }

    #[test]
    fn run_drains_chained_events() {
        let mut sim = chain_sim(4);
        let end = sim.run();
        assert_eq!(end, SimTime::from_millis(40));
        assert_eq!(sim.handler().seen.len(), 5);
        assert_eq!(sim.steps(), 5);
    }

    #[test]
    fn run_until_stops_at_deadline_inclusive() {
        let mut sim = chain_sim(100);
        sim.run_until(SimTime::from_millis(30));
        assert_eq!(sim.handler().seen.len(), 4); // events at 0, 10, 20, 30 ms
        assert_eq!(sim.now(), SimTime::from_millis(30));
        assert_eq!(sim.queue().len(), 1); // the 40 ms event is still pending
    }

    #[test]
    fn queue_depth_high_water_mark_is_tracked() {
        let mut sim = Simulation::new(Chain {
            seen: Vec::new(),
            spawn_until: 0,
        });
        // Three events pending at once: depth peaks at 3.
        sim.queue_mut().push(SimTime::from_millis(1), 0);
        sim.queue_mut().push(SimTime::from_millis(2), 0);
        sim.queue_mut().push(SimTime::from_millis(3), 0);
        sim.run();
        assert_eq!(sim.max_queue_depth(), 3);
    }

    #[test]
    fn step_returns_false_on_empty_queue() {
        let mut sim = Simulation::new(Chain {
            seen: Vec::new(),
            spawn_until: 0,
        });
        assert!(!sim.step());
        assert_eq!(sim.now(), SimTime::ZERO);
    }

    #[test]
    #[should_panic(expected = "event scheduled in the past")]
    fn past_event_panics() {
        struct BadHandler;
        impl Handler<u8> for BadHandler {
            fn handle(&mut self, _now: SimTime, event: u8, queue: &mut EventQueue<u8>) {
                if event == 0 {
                    queue.push(SimTime::ZERO, 1);
                }
            }
        }
        let mut sim = Simulation::new(BadHandler);
        sim.queue_mut().push(SimTime::from_millis(5), 0);
        sim.run();
    }

    #[test]
    fn into_handler_returns_final_state() {
        let mut sim = chain_sim(2);
        sim.run();
        let handler = sim.into_handler();
        assert_eq!(handler.seen.last().map(|&(_, e)| e), Some(2));
    }
}
