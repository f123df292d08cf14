//! Bounded per-shard inbound rings for the scale-out executor.
//!
//! Each shard owns one [`SpscRing`] of [`ShardRequest`]s. The router (the
//! `InterleaveMap` splitter) is the ring's only producer and the worker
//! that has claimed the shard is its only consumer, so the ring needs no
//! arbitration: FIFO order *is* per-shard request order, and the executor's
//! coalescer and the order-preservation proptest both lean on that
//! invariant. The crate forbids `unsafe`, so the single-producer /
//! single-consumer discipline is enforced structurally — the executor
//! hands out `&mut` access to exactly one side at a time — rather than
//! with atomics; the payoff is the same: no per-request locking on the
//! hot path.
//!
//! A full ring bounces the request back to the producer ([`SpscRing::
//! try_push`] returns it in `Err`): backpressure, never silent growth.

use crate::sched::ShardRequest;

/// A bounded FIFO ring of [`ShardRequest`]s with one producer (the
/// router) and one consumer (the claiming worker).
#[derive(Debug)]
pub struct SpscRing {
    slots: Box<[Option<ShardRequest>]>,
    /// Index of the next slot to pop (oldest element).
    head: usize,
    /// Number of live elements; the next push lands at
    /// `(head + len) % capacity`.
    len: usize,
}

impl SpscRing {
    /// A ring holding at most `capacity` requests (minimum 1).
    pub fn new(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        SpscRing {
            slots: std::iter::repeat_with(|| None)
                .take(capacity)
                .collect::<Vec<_>>()
                .into_boxed_slice(),
            head: 0,
            len: 0,
        }
    }

    /// The ring's bound.
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Live elements.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the ring is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Whether the next push would bounce.
    pub fn is_full(&self) -> bool {
        self.len == self.slots.len()
    }

    /// Appends `req`; a full ring bounces it back so the producer can
    /// apply backpressure.
    ///
    /// # Errors
    ///
    /// Returns the request itself when the ring is at capacity.
    pub fn try_push(&mut self, req: ShardRequest) -> Result<(), ShardRequest> {
        if self.is_full() {
            return Err(req);
        }
        let tail = (self.head + self.len) % self.slots.len();
        self.slots[tail] = Some(req);
        self.len += 1;
        Ok(())
    }

    /// Removes and returns the oldest request.
    pub fn pop(&mut self) -> Option<ShardRequest> {
        if self.len == 0 {
            return None;
        }
        let req = self.slots[self.head].take();
        self.head = (self.head + 1) % self.slots.len();
        self.len -= 1;
        req
    }

    /// The oldest request without removing it (the shard's next event —
    /// what the executor registers on the calendar).
    pub fn peek(&self) -> Option<&ShardRequest> {
        if self.len == 0 {
            return None;
        }
        self.slots[self.head].as_ref()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sched::ReqKind;
    use nvdimmc_sim::SimTime;

    fn req(seq: u64) -> ShardRequest {
        ShardRequest {
            seq,
            thread: 0,
            kind: ReqKind::Read,
            local_offset: seq * 64,
            len: 64,
            not_before: SimTime::ZERO,
            data: Vec::new(),
        }
    }

    #[test]
    fn fifo_order_survives_wraparound() {
        let mut r = SpscRing::new(4);
        for seq in 0..4 {
            r.try_push(req(seq)).unwrap();
        }
        assert_eq!(r.pop().unwrap().seq, 0);
        assert_eq!(r.pop().unwrap().seq, 1);
        // Push past the physical end: indices wrap.
        r.try_push(req(4)).unwrap();
        r.try_push(req(5)).unwrap();
        let order: Vec<u64> = std::iter::from_fn(|| r.pop()).map(|r| r.seq).collect();
        assert_eq!(order, vec![2, 3, 4, 5]);
        assert!(r.is_empty());
    }

    #[test]
    fn full_ring_bounces_the_request_back() {
        let mut r = SpscRing::new(2);
        r.try_push(req(0)).unwrap();
        r.try_push(req(1)).unwrap();
        assert!(r.is_full());
        let bounced = r.try_push(req(2)).unwrap_err();
        assert_eq!(bounced.seq, 2);
        // The resident elements are untouched.
        assert_eq!(r.pop().unwrap().seq, 0);
        r.try_push(req(3)).unwrap();
        assert_eq!(r.pop().unwrap().seq, 1);
        assert_eq!(r.pop().unwrap().seq, 3);
    }

    #[test]
    fn peek_exposes_the_head_without_consuming() {
        let mut r = SpscRing::new(2);
        assert!(r.peek().is_none());
        r.try_push(req(7)).unwrap();
        assert_eq!(r.peek().unwrap().seq, 7);
        assert_eq!(r.len(), 1);
        assert_eq!(r.pop().unwrap().seq, 7);
        assert!(r.peek().is_none());
    }

    #[test]
    fn zero_capacity_is_clamped_to_one() {
        let mut r = SpscRing::new(0);
        assert_eq!(r.capacity(), 1);
        r.try_push(req(0)).unwrap();
        assert!(r.try_push(req(1)).is_err());
    }
}
