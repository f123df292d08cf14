//! The scale-out request executor: bounded per-shard queues, coalescing
//! and inline service in shard order.
//!
//! 1. **Route** — [`ShardExecutor::submit`] splits each global operation
//!    with the [`InterleaveMap`] and appends one [`ShardRequest`] per
//!    segment to the owning shard's queue, bounded by
//!    [`ExecutorConfig::ring_depth`]. A full queue bounces the *whole*
//!    operation back with [`CoreError::Overloaded`] (carrying the queue
//!    depth, so callers back off proportionally).
//! 2. **Serve** — [`ShardExecutor::dispatch`] visits the shards in index
//!    order. Each shard's queue drains FIFO, adjacent same-kind requests
//!    fold into single DMAs ([`coalesce`]), and the runs are served on
//!    the shard's own clock via [`QueuedDevice::serve_read`] /
//!    [`QueuedDevice::serve_write`]. The device's idle-jump *is* the
//!    discrete-event fast path: the clock advances straight to the
//!    request's `not_before` instead of ticking through idle time.
//! 3. **Fold** — completions come back in shard-index order, FIFO within
//!    a shard, as a `Vec` or, through [`ShardExecutor::dispatch_each`],
//!    one at a time as they are produced. Shards share no state, so the
//!    result is a pure function of the submitted requests, which is what
//!    makes the executor safe to drop under the deterministic drivers and
//!    the `nvdimmc-check` passes.
//!
//! Batches are served on the calling thread. A shard's batch costs
//! microseconds of host time, and spreading them over a thread pool never
//! paid for the spawn and join on the traffic the executor serves.
//!
//! Trace capture needs no executor bookkeeping: entries accumulate in
//! each device's own recorder while its batch is served, so front-driven
//! runs keep collecting epochs through
//! `MultiChannelSystem::set_trace_capture(false)` unchanged. Raw-device
//! runs claim them zero-copy through [`ShardExecutor::take_traces`],
//! which moves each buffer out via [`QueuedDevice::drain_trace`].

use crate::coalesce::{coalesce, CoalescedReq};
use crate::error::{check_range, CoreError};
use crate::interleave::InterleaveMap;
use crate::sched::{ReqKind, ShardRequest};
use crate::shard::QueuedDevice;
use nvdimmc_ddr::TraceEntry;
use nvdimmc_sim::{SimDuration, SimTime};
use std::collections::VecDeque;

/// Tuning knobs for a [`ShardExecutor`].
#[derive(Debug, Clone, Copy)]
pub struct ExecutorConfig {
    /// Bound on each shard's request queue (at least 1).
    pub ring_depth: usize,
    /// Byte cap on one coalesced DMA. `1` effectively disables merging
    /// (no two requests fit), which the equivalence tests use.
    pub coalesce_bytes: u64,
}

impl Default for ExecutorConfig {
    /// 64-deep queues, 64 KiB DMA cap — a typical controller's max
    /// transfer.
    fn default() -> Self {
        ExecutorConfig {
            ring_depth: 64,
            coalesce_bytes: 64 * 1024,
        }
    }
}

impl ExecutorConfig {
    /// Has no effect: batches are always served on the calling thread.
    /// It stays only because the benchmark harness (`nvbench/src/fio.rs`
    /// and its wrapper test) still calls it, and will be removed together
    /// with that harness's next change (ROADMAP item 2).
    #[must_use]
    pub fn with_workers(self, _workers: usize) -> Self {
        self
    }

    /// Overrides the queue bound.
    #[must_use]
    pub fn with_ring_depth(mut self, depth: usize) -> Self {
        self.ring_depth = depth;
        self
    }

    /// Overrides the coalescing byte cap (`1` disables merging).
    #[must_use]
    pub fn with_coalesce_bytes(mut self, bytes: u64) -> Self {
        self.coalesce_bytes = bytes;
        self
    }
}

/// One segment accepted by [`ShardExecutor::submit`]: the handle the
/// driver uses to match completions back to its operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Submitted {
    /// Executor-global sequence number (also on the [`Completion`]).
    pub seq: u64,
    /// Owning shard.
    pub shard: u32,
    /// Byte position of this segment inside the submitted operation.
    pub pos: usize,
    /// Segment length in bytes.
    pub len: u64,
}

/// One served request, reported back to the driver.
#[derive(Debug, Clone)]
pub struct Completion {
    /// Sequence number from [`Submitted`].
    pub seq: u64,
    /// Issuing workload thread.
    pub thread: u32,
    /// Serving shard.
    pub shard: u32,
    /// Direction.
    pub kind: ReqKind,
    /// Offset in the shard's local space.
    pub local_offset: u64,
    /// Length in bytes.
    pub len: u64,
    /// Device completion instant (the shard clock after service). On
    /// error this is the clock when the failure surfaced.
    pub end: SimTime,
    /// Read payload (empty for writes and for failed reads).
    pub data: Vec<u8>,
    /// Whether the request rode a multi-parent coalesced DMA.
    pub coalesced: bool,
    /// The failure, if the serving device refused the request.
    pub error: Option<CoreError>,
}

/// Per-shard executor counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExecStats {
    /// Requests accepted onto the queue at submit.
    pub accepted: u64,
    /// Requests served (completions produced, including failures).
    pub served: u64,
    /// Device operations issued after coalescing.
    pub dmas: u64,
    /// Requests that shared a DMA with at least one other request.
    pub coalesced_reqs: u64,
    /// Operations bounced at submit because a queue was full.
    pub rejected_ring_full: u64,
    /// Accumulated device-phase busy time (service end minus service
    /// start, idle gaps excluded) — the numerator of shard utilisation.
    pub busy: SimDuration,
}

impl ExecStats {
    /// Accumulates another shard's counters.
    pub fn merge(&mut self, other: &ExecStats) {
        self.accepted += other.accepted;
        self.served += other.served;
        self.dmas += other.dmas;
        self.coalesced_reqs += other.coalesced_reqs;
        self.rejected_ring_full += other.rejected_ring_full;
        self.busy += other.busy;
    }
}

/// Batched request executor over N shards.
///
/// # Example
///
/// ```
/// use nvdimmc_core::{
///     exec::{ExecutorConfig, ShardExecutor},
///     InterleaveMap, NvdimmCConfig, ReqKind, System,
/// };
/// use nvdimmc_sim::SimTime;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let map = InterleaveMap::new(1, 4096)?;
/// let mut devices = vec![System::new(NvdimmCConfig::small_for_tests())?];
/// let mut exec = ShardExecutor::new(1, ExecutorConfig::default());
/// let data = [0xA5; 4096];
/// exec.submit(&map, 0, ReqKind::Write, 0, 4096, SimTime::ZERO, &data)?;
/// let done = exec.dispatch(&mut devices);
/// assert_eq!(done.len(), 1);
/// assert!(done[0].error.is_none());
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct ShardExecutor {
    queues: Vec<VecDeque<ShardRequest>>,
    cfg: ExecutorConfig,
    stats: Vec<ExecStats>,
    next_seq: u64,
}

impl ShardExecutor {
    /// Base retry hint carried by the `Overloaded` bounce.
    pub const RETRY_AFTER: SimDuration = SimDuration::from_ns(100_000);

    /// An executor over `shards` shards.
    pub fn new(shards: usize, cfg: ExecutorConfig) -> Self {
        let cfg = ExecutorConfig {
            ring_depth: cfg.ring_depth.max(1),
            coalesce_bytes: cfg.coalesce_bytes.max(1),
        };
        ShardExecutor {
            queues: vec![VecDeque::new(); shards],
            cfg,
            stats: vec![ExecStats::default(); shards],
            next_seq: 0,
        }
    }

    /// Number of shards.
    pub fn shards(&self) -> usize {
        self.queues.len()
    }

    /// The active configuration.
    pub fn config(&self) -> ExecutorConfig {
        self.cfg
    }

    /// Per-shard counters.
    pub fn stats(&self, shard: usize) -> ExecStats {
        self.stats[shard]
    }

    /// All shards' counters summed.
    pub fn total_stats(&self) -> ExecStats {
        let mut t = ExecStats::default();
        for s in &self.stats {
            t.merge(s);
        }
        t
    }

    /// Per-shard `(accepted, served)` pairs: with empty queues, every
    /// accepted request must have produced a completion.
    pub fn conservation(&self) -> Vec<(u64, u64)> {
        self.stats.iter().map(|s| (s.accepted, s.served)).collect()
    }

    /// Requests currently queued on `shard`.
    pub fn pending(&self, shard: usize) -> usize {
        self.queues[shard].len()
    }

    /// Whether any queue holds work.
    pub fn has_pending(&self) -> bool {
        self.queues.iter().any(|q| !q.is_empty())
    }

    /// Moves each device's captured bus trace out (index = shard) via
    /// the zero-copy [`QueuedDevice::drain_trace`] handoff. Empty unless
    /// the devices had capture enabled. Front-driven runs normally leave
    /// the entries in place and collect the whole epoch through
    /// `MultiChannelSystem::set_trace_capture(false)` instead.
    ///
    /// # Panics
    ///
    /// Panics unless `devices` holds exactly one device per shard.
    pub fn take_traces<D: QueuedDevice>(&self, devices: &mut [D]) -> Vec<Vec<TraceEntry>> {
        assert_eq!(
            devices.len(),
            self.shards(),
            "executor needs exactly one device per shard"
        );
        devices.iter_mut().map(QueuedDevice::drain_trace).collect()
    }

    /// Routes one *pre-split* request onto `shard`'s queue — for drivers
    /// that run the interleave splitter themselves. Stamps and returns
    /// the sequence number; a full queue bounces the request back so the
    /// caller can drain and retry without losing it.
    ///
    /// # Errors
    ///
    /// Returns the request itself when the queue is at its bound.
    pub fn submit_request(
        &mut self,
        shard: usize,
        mut req: ShardRequest,
    ) -> Result<u64, ShardRequest> {
        if self.queues[shard].len() >= self.cfg.ring_depth {
            self.stats[shard].rejected_ring_full += 1;
            return Err(req);
        }
        let seq = self.next_seq;
        self.next_seq += 1;
        req.seq = seq;
        self.queues[shard].push_back(req);
        self.stats[shard].accepted += 1;
        Ok(seq)
    }

    /// Routes one operation of `thread`: splits `[offset, offset + len)`
    /// with `map` and appends one request per segment to the owning
    /// queues. A write's `payload` holds its `len` bytes; a read passes an
    /// empty one.
    ///
    /// All-or-nothing: if the operation is rejected, no queue is touched,
    /// so a retry cannot double-enqueue.
    ///
    /// # Errors
    ///
    /// [`CoreError::OutOfRange`] when `offset + len` overflows,
    /// [`CoreError::Config`] when a write's `payload` is shorter than
    /// `len`, and [`CoreError::Overloaded`] (with the queue's depth) when a
    /// target queue cannot take its segments.
    #[allow(clippy::too_many_arguments)]
    pub fn submit(
        &mut self,
        map: &InterleaveMap,
        thread: u32,
        kind: ReqKind,
        offset: u64,
        len: u64,
        not_before: SimTime,
        payload: &[u8],
    ) -> Result<Vec<Submitted>, CoreError> {
        check_range(offset, len, u64::MAX)?;
        if kind == ReqKind::Write && (payload.len() as u64) < len {
            return Err(CoreError::Config(format!(
                "write of {len} bytes carries a {}-byte payload",
                payload.len()
            )));
        }
        let segs = map.split_range(offset, len);
        // All-or-nothing admission: count demand per shard first.
        let mut demand = vec![0usize; self.queues.len()];
        for seg in &segs {
            demand[seg.shard as usize] += 1;
        }
        let limit = self.cfg.ring_depth;
        for (shard, need) in demand.iter().enumerate() {
            let queued = self.queues[shard].len();
            if *need > 0 && queued + need > limit {
                self.stats[shard].rejected_ring_full += 1;
                // Pressure-proportional hint: an empty queue retries after
                // the base delay, a full one after twice it.
                let base = Self::RETRY_AFTER;
                let scaled = base + base.mul_f64(queued as f64 / limit as f64);
                return Err(CoreError::Overloaded {
                    shard: shard as u32,
                    retry_after: scaled,
                    queued,
                    queue_limit: limit,
                });
            }
        }
        let mut accepted = Vec::with_capacity(segs.len());
        for seg in segs {
            let seq = self.next_seq;
            self.next_seq += 1;
            let data = if kind == ReqKind::Write {
                payload[seg.pos..seg.pos + seg.len as usize].to_vec()
            } else {
                Vec::new()
            };
            let req = ShardRequest {
                seq,
                thread,
                kind,
                local_offset: seg.local_offset,
                len: seg.len,
                not_before,
                data,
            };
            self.queues[seg.shard as usize].push_back(req);
            self.stats[seg.shard as usize].accepted += 1;
            accepted.push(Submitted {
                seq,
                shard: seg.shard,
                pos: seg.pos,
                len: seg.len,
            });
        }
        Ok(accepted)
    }

    /// Drains every queue and serves it, shard by shard in index order:
    /// FIFO within a shard, with adjacent same-kind requests coalesced
    /// into one device operation. Completions come back in that order.
    ///
    /// # Panics
    ///
    /// Panics unless `devices` holds exactly one device per shard
    /// (`devices[i]` serves shard `i`).
    pub fn dispatch<D: QueuedDevice>(&mut self, devices: &mut [D]) -> Vec<Completion> {
        let mut completions = Vec::new();
        self.dispatch_each(devices, |c| completions.push(c));
        completions
    }

    /// [`Self::dispatch`], handing each completion to `sink` as soon as
    /// it is produced. A caller that is done with a read's payload when
    /// `sink` returns frees it before the next read allocates its buffer,
    /// so a round holds one payload at a time instead of all of them.
    ///
    /// # Panics
    ///
    /// Panics unless `devices` holds exactly one device per shard
    /// (`devices[i]` serves shard `i`).
    pub fn dispatch_each<D: QueuedDevice>(
        &mut self,
        devices: &mut [D],
        mut sink: impl FnMut(Completion),
    ) {
        assert_eq!(
            devices.len(),
            self.shards(),
            "executor needs exactly one device per shard"
        );
        let shards = self.queues.iter_mut().zip(&mut self.stats).zip(devices);
        for (shard, ((queue, st), device)) in shards.enumerate() {
            if queue.is_empty() {
                continue;
            }
            let runs = coalesce(queue.drain(..), self.cfg.coalesce_bytes);
            st.dmas += runs.len() as u64;
            st.busy += serve_runs(shard as u32, device, &runs, |c| {
                st.served += 1;
                st.coalesced_reqs += u64::from(c.coalesced);
                sink(c);
            });
        }
    }
}

/// Serves one shard's coalesced batch on its device and hands the
/// parents' completions to `emit`, in order; returns the device-busy
/// time. Runs after an error still execute — each operation fails or
/// succeeds on its own, exactly like the blocking path.
fn serve_runs<D: QueuedDevice>(
    shard: u32,
    device: &mut D,
    runs: &[CoalescedReq],
    mut emit: impl FnMut(Completion),
) -> SimDuration {
    let mut busy = SimDuration::ZERO;
    for (i, run) in runs.iter().enumerate() {
        // Per-shard backlog behind this run: the per-bank refresh planner
        // stretches NVMC windows when idle and shrinks them under load.
        device.note_queue_depth(runs.len() - 1 - i);
        let start = device.clock().max(run.not_before);
        let multi = run.parents.len() > 1;
        let served = match run.kind {
            ReqKind::Read => {
                let mut buf = vec![0u8; run.len as usize];
                device
                    .serve_read(run.not_before, run.local_offset, &mut buf)
                    .map(|end| (end, buf))
            }
            ReqKind::Write => device
                .serve_write(run.not_before, run.local_offset, &run.data)
                .map(|end| (end, Vec::new())),
        };
        match served {
            Ok((end, mut buf)) => {
                busy += end.saturating_since(start);
                let mut cursor = 0usize;
                for p in &run.parents {
                    let data = match run.kind {
                        // Multi-parent reads slice the joint DMA buffer;
                        // a single-parent read hands it over whole.
                        ReqKind::Read if multi => buf[cursor..cursor + p.len as usize].to_vec(),
                        ReqKind::Read => std::mem::take(&mut buf),
                        ReqKind::Write => Vec::new(),
                    };
                    cursor += p.len as usize;
                    emit(Completion {
                        seq: p.seq,
                        thread: p.thread,
                        shard,
                        kind: run.kind,
                        local_offset: p.local_offset,
                        len: p.len,
                        end,
                        data,
                        coalesced: multi,
                        error: None,
                    });
                }
            }
            Err(e) => {
                let end = device.clock();
                for p in &run.parents {
                    emit(Completion {
                        seq: p.seq,
                        thread: p.thread,
                        shard,
                        kind: run.kind,
                        local_offset: p.local_offset,
                        len: p.len,
                        end,
                        data: Vec::new(),
                        coalesced: multi,
                        error: Some(e.clone()),
                    });
                }
            }
        }
    }
    busy
}
