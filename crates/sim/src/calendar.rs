//! The discrete-event fast path: a per-shard next-event calendar.
//!
//! A scaled-out front-end serves N independent shards, each with its own
//! clock and its own queue of pending requests. Ticking every shard every
//! cycle makes simulated time cost wall clock even when nothing happens;
//! the calendar inverts that: each shard registers the time of its *next
//! scheduled event* (head-of-ring request arrival, refresh window, repair
//! step) and the executor repeatedly takes the earliest one, advancing
//! that shard's clock straight to the event. Simulated time then scales
//! with *work*, not with the number of idle shards.
//!
//! Determinism: ties on the event time break by shard index, so the
//! service order — and therefore every downstream clock and counter — is
//! a pure function of the registered events, independent of worker count
//! or OS scheduling.
//!
//! # Example
//!
//! ```
//! use nvdimmc_sim::{ShardCalendar, SimTime};
//!
//! let mut cal = ShardCalendar::new(3);
//! cal.set(2, SimTime::from_ns(50));
//! cal.set(0, SimTime::from_ns(80));
//! cal.set(1, SimTime::from_ns(50));
//! assert_eq!(cal.pop(), Some((SimTime::from_ns(50), 1))); // tie → lower index
//! assert_eq!(cal.pop(), Some((SimTime::from_ns(50), 2)));
//! assert_eq!(cal.pop(), Some((SimTime::from_ns(80), 0)));
//! assert_eq!(cal.pop(), None);
//! ```

use crate::time::SimTime;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Per-shard next-event registry with deterministic pop-min ordering.
///
/// At most one event per shard is live at a time (a shard's next event);
/// re-registering a shard supersedes its previous entry lazily — stale
/// heap entries are skipped on pop, so `set` is O(log n) even when it
/// replaces.
#[derive(Debug)]
pub struct ShardCalendar {
    heap: BinaryHeap<Reverse<(SimTime, usize, u64)>>,
    /// Latest registration id per shard; heap entries with an older id
    /// are stale.
    live: Vec<Option<u64>>,
    next_id: u64,
}

impl ShardCalendar {
    /// An empty calendar over `shards` shards.
    pub fn new(shards: usize) -> Self {
        ShardCalendar {
            heap: BinaryHeap::new(),
            live: vec![None; shards],
            next_id: 0,
        }
    }

    /// Number of shards the calendar covers.
    pub fn shards(&self) -> usize {
        self.live.len()
    }

    /// Registers (or replaces) `shard`'s next event at `time`.
    ///
    /// # Panics
    ///
    /// Panics if `shard` is out of range.
    pub fn set(&mut self, shard: usize, time: SimTime) {
        let id = self.next_id;
        self.next_id += 1;
        self.live[shard] = Some(id);
        self.heap.push(Reverse((time, shard, id)));
    }

    /// Removes `shard`'s pending event, if any. Returns whether one was
    /// live.
    pub fn clear(&mut self, shard: usize) -> bool {
        self.live[shard].take().is_some()
    }

    /// The earliest live event without removing it.
    pub fn peek(&mut self) -> Option<(SimTime, usize)> {
        while let Some(&Reverse((time, shard, id))) = self.heap.peek() {
            if self.live[shard] == Some(id) {
                return Some((time, shard));
            }
            self.heap.pop();
        }
        None
    }

    /// Removes and returns the earliest live event. Ties on time break by
    /// shard index (then registration order), so pops are deterministic.
    pub fn pop(&mut self) -> Option<(SimTime, usize)> {
        while let Some(Reverse((time, shard, id))) = self.heap.pop() {
            if self.live[shard] == Some(id) {
                self.live[shard] = None;
                return Some((time, shard));
            }
        }
        None
    }

    /// Drains every live event in event order: the deterministic service
    /// schedule for one executor batch.
    pub fn drain_order(&mut self) -> Vec<(SimTime, usize)> {
        std::iter::from_fn(|| self.pop()).collect()
    }

    /// Number of live events.
    pub fn len(&self) -> usize {
        self.live.iter().filter(|e| e.is_some()).count()
    }

    /// Whether no events are live.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ns(n: u64) -> SimTime {
        SimTime::from_ns(n)
    }

    #[test]
    fn pops_in_time_then_shard_order() {
        let mut c = ShardCalendar::new(4);
        c.set(3, ns(20));
        c.set(1, ns(10));
        c.set(2, ns(20));
        c.set(0, ns(30));
        assert_eq!(
            c.drain_order(),
            vec![(ns(10), 1), (ns(20), 2), (ns(20), 3), (ns(30), 0)]
        );
        assert!(c.is_empty());
    }

    #[test]
    fn reregistering_supersedes() {
        let mut c = ShardCalendar::new(2);
        c.set(0, ns(100));
        c.set(0, ns(5)); // moved earlier
        c.set(1, ns(50));
        assert_eq!(c.pop(), Some((ns(5), 0)));
        assert_eq!(c.pop(), Some((ns(50), 1)));
        assert_eq!(c.pop(), None, "stale entry must not resurface");
    }

    #[test]
    fn clear_removes_live_event() {
        let mut c = ShardCalendar::new(2);
        c.set(0, ns(10));
        c.set(1, ns(20));
        assert!(c.clear(0));
        assert!(!c.clear(0), "double clear reports false");
        assert_eq!(c.len(), 1);
        assert_eq!(c.peek(), Some((ns(20), 1)));
    }

    #[test]
    fn peek_skips_stale_entries() {
        let mut c = ShardCalendar::new(1);
        c.set(0, ns(10));
        c.set(0, ns(30));
        assert_eq!(c.peek(), Some((ns(30), 0)));
        assert_eq!(c.pop(), Some((ns(30), 0)));
        assert!(c.peek().is_none());
    }

    #[test]
    fn same_shard_same_time_keeps_latest() {
        let mut c = ShardCalendar::new(1);
        c.set(0, ns(10));
        c.set(0, ns(10));
        assert_eq!(c.pop(), Some((ns(10), 0)));
        assert_eq!(c.pop(), None);
    }
}
