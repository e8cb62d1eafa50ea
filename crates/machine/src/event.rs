//! A deterministic discrete-event queue.
//!
//! Events are ordered by time, with a monotonically increasing sequence
//! number breaking ties so simulations are reproducible regardless of
//! floating-point coincidences.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// A pending event of payload type `T`.
#[derive(Debug, Clone)]
struct Pending<T> {
    time: f64,
    seq: u64,
    payload: T,
}

impl<T> PartialEq for Pending<T> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl<T> Eq for Pending<T> {}

impl<T> Ord for Pending<T> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reverse for min-heap behaviour in BinaryHeap (max-heap).
        other.time.total_cmp(&self.time).then_with(|| other.seq.cmp(&self.seq))
    }
}
impl<T> PartialOrd for Pending<T> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// A discrete-event queue over payloads of type `T`.
#[derive(Debug, Clone)]
pub struct EventQueue<T> {
    heap: BinaryHeap<Pending<T>>,
    seq: u64,
    now: f64,
}

impl<T> Default for EventQueue<T> {
    fn default() -> Self {
        EventQueue { heap: BinaryHeap::new(), seq: 0, now: 0.0 }
    }
}

impl<T> EventQueue<T> {
    /// An empty queue at time zero.
    pub fn new() -> Self {
        EventQueue::default()
    }

    /// Schedules `payload` at absolute time `time`.
    ///
    /// # Panics
    ///
    /// Panics if `time` is NaN or earlier than the current time (events
    /// cannot be scheduled in the past).
    pub fn push(&mut self, time: f64, payload: T) {
        assert!(!time.is_nan(), "event time must not be NaN");
        assert!(time >= self.now, "event scheduled in the past: {time} < {}", self.now);
        let seq = self.seq;
        self.seq += 1;
        self.heap.push(Pending { time, seq, payload });
    }

    /// Pops the earliest event, advancing the clock.
    pub fn pop(&mut self) -> Option<(f64, T)> {
        let p = self.heap.pop()?;
        self.now = p.time;
        Some((p.time, p.payload))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(3.0, "c");
        q.push(1.0, "a");
        q.push(2.0, "b");
        assert_eq!(q.pop(), Some((1.0, "a")));
        assert_eq!(q.pop(), Some((2.0, "b")));
        assert_eq!(q.pop(), Some((3.0, "c")));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn ties_break_by_insertion_order() {
        let mut q = EventQueue::new();
        q.push(5.0, 1);
        q.push(5.0, 2);
        q.push(5.0, 3);
        assert_eq!(q.pop().unwrap().1, 1);
        assert_eq!(q.pop().unwrap().1, 2);
        assert_eq!(q.pop().unwrap().1, 3);
    }

    #[test]
    fn clock_advances_monotonically() {
        let mut q = EventQueue::new();
        q.push(2.0, ());
        q.push(7.0, ());
        assert_eq!(q.pop().unwrap().0, 2.0);
        q.push(3.0, ());
        assert_eq!(q.pop().unwrap().0, 3.0);
        assert_eq!(q.pop().unwrap().0, 7.0);
    }

    #[test]
    #[should_panic(expected = "scheduled in the past")]
    fn rejects_past_events() {
        let mut q = EventQueue::new();
        q.push(5.0, ());
        q.pop();
        q.push(1.0, ());
    }
}
