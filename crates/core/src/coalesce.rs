//! Adjacent-page request coalescing in front of the DMA engine.
//!
//! Consecutive requests on one shard's ring frequently target adjacent
//! byte ranges — sequential fio streams split at the interleave stripe
//! land as runs of contiguous segments. Issuing each as its own device
//! request pays the per-request software cost once per segment; a real
//! controller would merge them into one DMA. The coalescer does exactly
//! that: it folds a FIFO batch into maximal runs of *same-kind, exactly
//! contiguous* requests (bounded by a byte cap) and remembers every
//! parent's span so completions fan back out to the issuing threads.
//!
//! Invariants (property-tested in `tests/properties.rs`):
//!
//! - **Exact union** — a coalesced request's `[local_offset,
//!   local_offset + len)` is tiled by its parents' spans with no gap and
//!   no overlap, in FIFO order;
//! - **Order preservation** — parents appear in the same relative order
//!   they were enqueued, and coalescing never reorders across requests
//!   it did not merge;
//! - **Start time** — the merged device phase starts no earlier than any
//!   parent's `not_before` (`max` over parents), so coalescing can only
//!   model a *joint* DMA, never time travel.

use crate::sched::{ReqKind, ShardRequest};
use nvdimmc_sim::SimTime;

/// One parent's slice of a coalesced request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ParentSpan {
    /// The parent's executor-stamped sequence number.
    pub seq: u64,
    /// The issuing workload thread.
    pub thread: u32,
    /// Parent's offset in the shard's local space.
    pub local_offset: u64,
    /// Parent's length in bytes.
    pub len: u64,
}

/// A maximal run of same-kind, exactly contiguous requests merged into
/// one device operation.
#[derive(Debug, Clone)]
pub struct CoalescedReq {
    /// Direction (parents all share it).
    pub kind: ReqKind,
    /// Start of the merged span in the shard's local space.
    pub local_offset: u64,
    /// Merged length in bytes (sum of the parents').
    pub len: u64,
    /// Earliest instant the merged device phase may start: the latest
    /// parent `not_before` — a joint DMA waits for every contributor.
    pub not_before: SimTime,
    /// Concatenated payload for writes (empty for reads).
    pub data: Vec<u8>,
    /// The merged requests, in FIFO order.
    pub parents: Vec<ParentSpan>,
}

impl CoalescedReq {
    fn from_request(req: ShardRequest) -> Self {
        CoalescedReq {
            kind: req.kind,
            local_offset: req.local_offset,
            len: req.len,
            not_before: req.not_before,
            data: req.data,
            parents: vec![ParentSpan {
                seq: req.seq,
                thread: req.thread,
                local_offset: req.local_offset,
                len: req.len,
            }],
        }
    }

    /// Whether `req` extends this run: same direction, starts exactly
    /// where the run ends, and the merged span stays under `max_bytes`.
    fn accepts(&self, req: &ShardRequest, max_bytes: u64) -> bool {
        self.kind == req.kind
            && req.local_offset == self.local_offset + self.len
            && self.len + req.len <= max_bytes
    }

    fn absorb(&mut self, mut req: ShardRequest) {
        self.parents.push(ParentSpan {
            seq: req.seq,
            thread: req.thread,
            local_offset: req.local_offset,
            len: req.len,
        });
        self.len += req.len;
        self.not_before = self.not_before.max(req.not_before);
        if self.kind == ReqKind::Write {
            self.data.append(&mut req.data);
        }
    }
}

/// Folds a FIFO batch into maximal contiguous runs, capped at
/// `max_bytes` per merged request. A batch of one (the single-channel /
/// single-thread case) passes through untouched, which is what keeps the
/// one-channel executor bit-identical to the monolith.
pub fn coalesce(batch: Vec<ShardRequest>, max_bytes: u64) -> Vec<CoalescedReq> {
    let max_bytes = max_bytes.max(1);
    let mut out: Vec<CoalescedReq> = Vec::new();
    for req in batch {
        match out.last_mut() {
            Some(run) if run.accepts(&req, max_bytes) => run.absorb(req),
            _ => out.push(CoalescedReq::from_request(req)),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::PAGE_BYTES;

    fn req(seq: u64, kind: ReqKind, local_offset: u64, len: u64) -> ShardRequest {
        ShardRequest {
            seq,
            thread: seq as u32,
            kind,
            local_offset,
            len,
            not_before: SimTime::from_ns(seq * 10),
            data: if kind == ReqKind::Write {
                vec![seq as u8; len as usize]
            } else {
                Vec::new()
            },
        }
    }

    #[test]
    fn adjacent_pages_merge_into_one_dma() {
        let batch = vec![
            req(0, ReqKind::Read, 0, PAGE_BYTES),
            req(1, ReqKind::Read, PAGE_BYTES, PAGE_BYTES),
            req(2, ReqKind::Read, 2 * PAGE_BYTES, PAGE_BYTES),
        ];
        let runs = coalesce(batch, 16 * PAGE_BYTES);
        assert_eq!(runs.len(), 1);
        let run = &runs[0];
        assert_eq!((run.local_offset, run.len), (0, 3 * PAGE_BYTES));
        assert_eq!(run.parents.len(), 3);
        // Joint DMA waits for the latest contributor.
        assert_eq!(run.not_before, SimTime::from_ns(20));
    }

    #[test]
    fn gaps_kind_changes_and_caps_break_runs() {
        let batch = vec![
            req(0, ReqKind::Write, 0, PAGE_BYTES),
            req(1, ReqKind::Read, PAGE_BYTES, PAGE_BYTES), // kind change
            req(2, ReqKind::Read, 3 * PAGE_BYTES, PAGE_BYTES), // gap
            req(3, ReqKind::Read, 4 * PAGE_BYTES, PAGE_BYTES),
        ];
        let runs = coalesce(batch, 16 * PAGE_BYTES);
        assert_eq!(runs.len(), 3);
        assert_eq!(runs[2].parents.len(), 2);
        // Byte cap: the same tail pair refuses to merge under a 1-page cap.
        let batch = vec![
            req(2, ReqKind::Read, 3 * PAGE_BYTES, PAGE_BYTES),
            req(3, ReqKind::Read, 4 * PAGE_BYTES, PAGE_BYTES),
        ];
        assert_eq!(coalesce(batch, PAGE_BYTES).len(), 2);
    }

    #[test]
    fn write_payloads_concatenate_in_order() {
        let batch = vec![req(0, ReqKind::Write, 0, 4), req(1, ReqKind::Write, 4, 4)];
        let runs = coalesce(batch, 64);
        assert_eq!(runs.len(), 1);
        assert_eq!(runs[0].data, vec![0, 0, 0, 0, 1, 1, 1, 1]);
    }

    #[test]
    fn singleton_batch_passes_through_untouched() {
        let runs = coalesce(vec![req(5, ReqKind::Read, 100, 64)], PAGE_BYTES);
        assert_eq!(runs.len(), 1);
        assert_eq!(runs[0].parents.len(), 1);
        assert_eq!(
            (runs[0].local_offset, runs[0].len, runs[0].not_before),
            (100, 64, SimTime::from_ns(50))
        );
    }

    #[test]
    fn parents_tile_the_merged_span_exactly() {
        let batch = vec![
            req(0, ReqKind::Read, 0, 64),
            req(1, ReqKind::Read, 64, PAGE_BYTES),
            req(2, ReqKind::Read, 64 + PAGE_BYTES, 32),
        ];
        let runs = coalesce(batch, 4 * PAGE_BYTES);
        assert_eq!(runs.len(), 1);
        let run = &runs[0];
        let mut cursor = run.local_offset;
        for p in &run.parents {
            assert_eq!(p.local_offset, cursor, "gap or overlap");
            cursor += p.len;
        }
        assert_eq!(cursor, run.local_offset + run.len, "union mismatch");
    }
}
