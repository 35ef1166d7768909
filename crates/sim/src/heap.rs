//! The event heap: a binary min-heap over virtual nanoseconds.
//!
//! Events are ordered by `(at_ns, seq)` where `seq` is a monotonically
//! assigned scheduling sequence number. The tie-break matters: two events
//! scheduled for the same virtual instant pop in the order they were
//! scheduled, so the simulation's behaviour is a pure function of its
//! inputs — never of hash order, allocator state, or comparison
//! instability.

use std::collections::BinaryHeap;

/// One scheduled event.
#[derive(Debug)]
struct Entry<T> {
    at_ns: u64,
    seq: u64,
    payload: T,
}

impl<T> PartialEq for Entry<T> {
    fn eq(&self, other: &Self) -> bool {
        self.at_ns == other.at_ns && self.seq == other.seq
    }
}

impl<T> Eq for Entry<T> {}

impl<T> PartialOrd for Entry<T> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl<T> Ord for Entry<T> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Reversed so `BinaryHeap` (a max-heap) pops the *earliest*
        // (at_ns, seq) first.
        (other.at_ns, other.seq).cmp(&(self.at_ns, self.seq))
    }
}

/// Deterministic discrete-event queue keyed on virtual nanoseconds.
#[derive(Debug)]
pub struct EventHeap<T> {
    heap: BinaryHeap<Entry<T>>,
    next_seq: u64,
}

impl<T> Default for EventHeap<T> {
    fn default() -> Self {
        EventHeap::new()
    }
}

impl<T> EventHeap<T> {
    /// An empty heap.
    pub fn new() -> Self {
        EventHeap {
            heap: BinaryHeap::new(),
            next_seq: 0,
        }
    }

    /// Schedules `payload` at virtual time `at_ns`; returns the sequence
    /// number assigned (total scheduling order, used for tie-breaks).
    pub fn schedule(&mut self, at_ns: u64, payload: T) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Entry {
            at_ns,
            seq,
            payload,
        });
        seq
    }

    /// Pops the earliest event as `(at_ns, seq, payload)`.
    pub fn pop(&mut self) -> Option<(u64, u64, T)> {
        self.heap.pop().map(|e| (e.at_ns, e.seq, e.payload))
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut h = EventHeap::new();
        h.schedule(30, "c");
        h.schedule(10, "a");
        h.schedule(20, "b");
        let order: Vec<&str> = std::iter::from_fn(|| h.pop().map(|(_, _, p)| p)).collect();
        assert_eq!(order, vec!["a", "b", "c"]);
    }

    #[test]
    fn ties_break_by_scheduling_order() {
        let mut h = EventHeap::new();
        for i in 0..100u64 {
            h.schedule(7, i);
        }
        let order: Vec<u64> = std::iter::from_fn(|| h.pop().map(|(_, _, p)| p)).collect();
        let expected: Vec<u64> = (0..100).collect();
        assert_eq!(order, expected, "same-instant events pop FIFO");
    }

    #[test]
    fn len_and_pop_order() {
        let mut h = EventHeap::new();
        assert!(h.is_empty());
        h.schedule(5, ());
        h.schedule(3, ());
        assert_eq!(h.len(), 2);
        let (at, seq, ()) = h.pop().unwrap();
        assert_eq!((at, seq), (3, 1));
        assert_eq!(h.len(), 1);
    }
}
