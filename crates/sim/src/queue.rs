//! Timestamped event queue with deterministic ordering.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::SimTime;

/// A priority queue of timestamped events.
///
/// Events pop in timestamp order; events that share a timestamp pop in the
/// order they were pushed (FIFO). The tie-break makes whole-system runs
/// reproducible: a simulation driven by this queue and a deterministic
/// handler always produces the same schedule.
///
/// The queue is a binary heap of `(time, push sequence number)` keys. The
/// hypervisor keeps few events pending (one per busy slot, the
/// reconfiguration port, the scheduling tick and the arrivals still to
/// come; about a hundred at most), a population at which the heap's
/// O(log n) push and pop beat bucketed structures (see DESIGN.md §14).
///
/// # Example
///
/// ```
/// use nimblock_sim::{EventQueue, SimTime};
///
/// let mut queue = EventQueue::new();
/// queue.push(SimTime::from_millis(2), "late");
/// queue.push(SimTime::from_millis(1), "early");
/// queue.push(SimTime::from_millis(1), "early-second");
///
/// assert_eq!(queue.pop(), Some((SimTime::from_millis(1), "early")));
/// assert_eq!(queue.pop(), Some((SimTime::from_millis(1), "early-second")));
/// assert_eq!(queue.pop(), Some((SimTime::from_millis(2), "late")));
/// assert_eq!(queue.pop(), None);
/// ```
#[derive(Debug, Clone)]
pub struct EventQueue<E> {
    heap: BinaryHeap<Entry<E>>,
    next_seq: u64,
}

#[derive(Debug, Clone)]
struct Entry<E> {
    at: SimTime,
    seq: u64,
    event: E,
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}

impl<E> Eq for Entry<E> {}

impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; reverse so the earliest (time, seq) wins.
        other
            .at
            .cmp(&self.at)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            next_seq: 0,
        }
    }

    /// Schedules `event` to fire at time `at`.
    pub fn push(&mut self, at: SimTime, event: E) {
        let seq = self.next_seq;
        self.next_seq += 1;
        // BinaryHeap keeps its capacity across pops, so a steady-state push
        // does not reallocate. nimblock: allow(hot-path-no-alloc)
        self.heap.push(Entry { at, seq, event });
    }

    /// Removes and returns the earliest event, or `None` if the queue is empty.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        self.pop_at_or_before(SimTime::MAX)
    }

    /// Removes and returns the earliest event if its timestamp is at or
    /// before `deadline`; `None` if the queue is empty or the earliest
    /// event is later. Equivalent to a `peek_time` check followed by
    /// `pop` — the shape of [`crate::Simulation::run_until`]'s inner loop.
    pub fn pop_at_or_before(&mut self, deadline: SimTime) -> Option<(SimTime, E)> {
        if self.heap.peek().is_some_and(|entry| entry.at <= deadline) {
            self.heap.pop().map(|entry| (entry.at, entry.event))
        } else {
            None
        }
    }

    /// Returns the timestamp of the earliest pending event without removing it.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|entry| entry.at)
    }

    /// Returns the number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Returns `true` if no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        EventQueue::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut queue = EventQueue::new();
        queue.push(SimTime::from_millis(30), 3);
        queue.push(SimTime::from_millis(10), 1);
        queue.push(SimTime::from_millis(20), 2);
        let order: Vec<i32> = std::iter::from_fn(|| queue.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec![1, 2, 3]);
    }

    #[test]
    fn same_timestamp_is_fifo() {
        let mut queue = EventQueue::new();
        let t = SimTime::from_millis(5);
        for i in 0..100 {
            queue.push(t, i);
        }
        let order: Vec<i32> = std::iter::from_fn(|| queue.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn peek_time_does_not_remove() {
        let mut queue = EventQueue::new();
        queue.push(SimTime::from_millis(7), 0);
        assert_eq!(queue.peek_time(), Some(SimTime::from_millis(7)));
        assert_eq!(queue.len(), 1);
    }

    #[test]
    fn fifo_survives_interleaved_pops() {
        let mut queue = EventQueue::new();
        let t = SimTime::from_millis(1);
        queue.push(t, 'a');
        queue.push(t, 'b');
        assert_eq!(queue.pop(), Some((t, 'a')));
        queue.push(t, 'c');
        assert_eq!(queue.pop(), Some((t, 'b')));
        assert_eq!(queue.pop(), Some((t, 'c')));
    }

    #[test]
    fn pop_at_or_before_respects_the_deadline() {
        let mut queue = EventQueue::new();
        queue.push(SimTime::from_millis(5), 5);
        queue.push(SimTime::from_millis(10), 10);
        assert_eq!(queue.pop_at_or_before(SimTime::from_millis(4)), None);
        assert_eq!(
            queue.pop_at_or_before(SimTime::from_millis(5)),
            Some((SimTime::from_millis(5), 5))
        );
        assert_eq!(queue.pop_at_or_before(SimTime::from_millis(5)), None);
        assert_eq!(queue.len(), 1);
    }

    #[test]
    fn push_behind_the_last_pop_still_pops_first() {
        // Pushing before the last *popped* time is legal for the queue
        // (only the simulation driver rejects it); such an event still
        // pops ahead of everything later.
        let mut queue = EventQueue::new();
        queue.push(SimTime::from_secs(100), 1);
        assert_eq!(queue.pop(), Some((SimTime::from_secs(100), 1)));
        queue.push(SimTime::from_secs(1), 2);
        queue.push(SimTime::from_secs(200), 3);
        assert_eq!(queue.pop(), Some((SimTime::from_secs(1), 2)));
        assert_eq!(queue.pop(), Some((SimTime::from_secs(200), 3)));
    }
}
