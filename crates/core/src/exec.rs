//! The scale-out request executor: per-shard rings, coalescing, and a
//! fixed work-stealing worker pool.
//!
//! The pre-refactor drivers spawned one scoped OS thread per shard per
//! round — fine at 4 channels, dead at 256. The executor replaces that
//! with a batched, lock-light design:
//!
//! 1. **Route** — [`ShardExecutor::submit`] splits each global operation
//!    with the [`InterleaveMap`] and pushes one [`ShardRequest`] per
//!    segment onto the owning shard's bounded [`SpscRing`]. The router is
//!    each ring's only producer; a full ring bounces the *whole*
//!    operation back with [`CoreError::Overloaded`] (carrying the queue
//!    depth, so callers back off proportionally).
//! 2. **Batch + coalesce** — [`ShardExecutor::dispatch`] drains every
//!    ring FIFO into a per-shard batch and folds adjacent same-kind
//!    requests into single DMAs ([`coalesce`]).
//! 3. **Serve** — a fixed pool of `M = workers` threads claims ready
//!    shards from a shared [`ShardCalendar`]-ordered list (one atomic
//!    `fetch_add` per claim — work-stealing without per-request locks;
//!    the per-shard mutex is only ever taken by the one claiming worker,
//!    so it never contends). Each claimed shard serves its whole batch on
//!    its own clock via [`QueuedDevice::serve_read`] /
//!    [`QueuedDevice::serve_write`]; the device's idle-jump *is* the
//!    discrete-event fast path — the clock advances straight to the
//!    request's `not_before` instead of ticking through idle time.
//! 4. **Fold** — completions are collected in shard-index order, FIFO
//!    within a shard. Shards share no state, so the result is a pure
//!    function of the submitted requests: **bit-identical for any worker
//!    count**, which is what makes the executor safe to drop under the
//!    deterministic drivers and the `nvdimmc-check` passes.
//!
//! Trace capture needs no executor bookkeeping: entries accumulate in
//! each device's own recorder while its batch is served, so front-driven
//! runs keep collecting epochs through
//! `MultiChannelSystem::set_trace_capture(false)` unchanged. Raw-device
//! runs claim them zero-copy through [`ShardExecutor::take_traces`],
//! which moves each buffer out via [`QueuedDevice::drain_trace`] — no
//! clone, no post-hoc lock.

use crate::coalesce::{coalesce, CoalescedReq};
use crate::error::{check_range, CoreError};
use crate::interleave::InterleaveMap;
use crate::ring::SpscRing;
use crate::sched::{ReqKind, ShardRequest};
use crate::shard::QueuedDevice;
use nvdimmc_ddr::TraceEntry;
use nvdimmc_sim::{ShardCalendar, SimDuration, SimTime};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, PoisonError};

/// Tuning knobs for a [`ShardExecutor`].
#[derive(Debug, Clone, Copy)]
pub struct ExecutorConfig {
    /// Worker threads serving ready shards (`M` in "M workers × N
    /// shards"). Clamped to at least 1; 1 serves inline without spawning.
    pub workers: usize,
    /// Bound on each shard's inbound ring.
    pub ring_depth: usize,
    /// Byte cap on one coalesced DMA. `1` effectively disables merging
    /// (no two requests fit), which the equivalence tests use.
    pub coalesce_bytes: u64,
}

impl Default for ExecutorConfig {
    /// 4 workers, 64-deep rings, 64 KiB DMA cap — a typical
    /// controller's max transfer.
    fn default() -> Self {
        ExecutorConfig {
            workers: 4,
            ring_depth: 64,
            coalesce_bytes: 64 * 1024,
        }
    }
}

impl ExecutorConfig {
    /// Overrides the worker count.
    #[must_use]
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = workers;
        self
    }

    /// Overrides the ring bound.
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
    /// Requests accepted onto the ring at submit.
    pub accepted: u64,
    /// Requests served (completions produced, including failures).
    pub served: u64,
    /// Device operations issued after coalescing.
    pub dmas: u64,
    /// Requests that shared a DMA with at least one other request.
    pub coalesced_reqs: u64,
    /// Operations bounced at submit because a ring was full.
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

/// What one worker needs to serve one shard's batch: exclusive device
/// access plus the coalesced runs. The mutex is claimed by exactly one
/// worker (the one that won the shard's index from the shared counter),
/// so it never blocks — it exists to satisfy the borrow checker across
/// the scoped threads, not to arbitrate.
struct WorkCell<'d, D> {
    shard: u32,
    device: &'d mut D,
    runs: Vec<CoalescedReq>,
    out: Vec<Completion>,
    busy: SimDuration,
}

/// Batched, lock-light request executor over N shards.
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
    rings: Vec<SpscRing>,
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
            workers: cfg.workers.max(1),
            ring_depth: cfg.ring_depth.max(1),
            coalesce_bytes: cfg.coalesce_bytes.max(1),
        };
        ShardExecutor {
            rings: (0..shards).map(|_| SpscRing::new(cfg.ring_depth)).collect(),
            cfg,
            stats: vec![ExecStats::default(); shards],
            next_seq: 0,
        }
    }

    /// Number of shards.
    pub fn shards(&self) -> usize {
        self.rings.len()
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

    /// Per-shard `(accepted, served)` pairs: with empty rings, every
    /// accepted request must have produced a completion.
    pub fn conservation(&self) -> Vec<(u64, u64)> {
        self.stats.iter().map(|s| (s.accepted, s.served)).collect()
    }

    /// Requests currently queued on `shard`'s ring.
    pub fn pending(&self, shard: usize) -> usize {
        self.rings[shard].len()
    }

    /// Whether any ring holds work.
    pub fn has_pending(&self) -> bool {
        self.rings.iter().any(|r| !r.is_empty())
    }

    /// Moves each device's captured bus trace out (index = shard) via
    /// the zero-copy [`QueuedDevice::drain_trace`] handoff. Empty unless
    /// the devices had capture enabled. Front-driven runs normally leave
    /// the entries in place and collect the whole epoch through
    /// `MultiChannelSystem::set_trace_capture(false)` instead.
    ///
    /// # Panics
    ///
    /// Panics if `devices` does not cover every shard.
    pub fn take_traces<D: QueuedDevice>(&self, devices: &mut [D]) -> Vec<Vec<TraceEntry>> {
        assert_eq!(
            devices.len(),
            self.shards(),
            "devices must cover every shard"
        );
        devices.iter_mut().map(QueuedDevice::drain_trace).collect()
    }

    /// Routes one *pre-split* request onto `shard`'s ring — for drivers
    /// that run the interleave splitter themselves. Stamps and returns
    /// the sequence number; a full ring bounces the request back so the
    /// caller can drain and retry without losing it.
    ///
    /// # Errors
    ///
    /// Returns the request itself when the ring is at capacity.
    pub fn submit_request(
        &mut self,
        shard: usize,
        mut req: ShardRequest,
    ) -> Result<u64, ShardRequest> {
        if self.rings[shard].is_full() {
            self.stats[shard].rejected_ring_full += 1;
            return Err(req);
        }
        let seq = self.next_seq;
        self.next_seq += 1;
        req.seq = seq;
        // INVARIANT: the fullness check above reserved the slot.
        self.rings[shard].try_push(req)?;
        self.stats[shard].accepted += 1;
        Ok(seq)
    }

    /// Routes one operation of `thread`: splits `[offset, offset + len)`
    /// with `map` and pushes one request per segment onto the owning
    /// rings. A write's `payload` holds its `len` bytes; a read passes an
    /// empty one.
    ///
    /// All-or-nothing: if the operation is rejected, no ring is touched,
    /// so a retry cannot double-enqueue.
    ///
    /// # Errors
    ///
    /// [`CoreError::OutOfRange`] when `offset + len` overflows,
    /// [`CoreError::Config`] when a write's `payload` is shorter than
    /// `len`, and [`CoreError::Overloaded`] (with the ring's depth) when a
    /// target ring is full.
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
        let mut demand = vec![0usize; self.rings.len()];
        for seg in &segs {
            demand[seg.shard as usize] += 1;
        }
        for (shard, need) in demand.iter().enumerate() {
            let ring = &self.rings[shard];
            if *need > 0 && ring.len() + need > ring.capacity() {
                self.stats[shard].rejected_ring_full += 1;
                // Pressure-proportional hint: an empty ring retries after
                // the base delay, a full one after twice it.
                let base = Self::RETRY_AFTER;
                let scaled = base + base.mul_f64(ring.len() as f64 / ring.capacity().max(1) as f64);
                return Err(CoreError::Overloaded {
                    shard: shard as u32,
                    retry_after: scaled,
                    queued: ring.len(),
                    queue_limit: ring.capacity(),
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
            // INVARIANT: the demand pre-check reserved this slot.
            if self.rings[seg.shard as usize].try_push(req).is_err() {
                return Err(CoreError::Config(
                    "executor ring capacity invariant violated".into(),
                ));
            }
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

    /// Drains every ring, coalesces, and serves all batches on the worker
    /// pool. Completions come back in shard-index order, FIFO within a
    /// shard — a deterministic order independent of the worker count.
    ///
    /// `devices[i]` serves shard `i`; the slice must cover every shard.
    pub fn dispatch<D: QueuedDevice>(&mut self, devices: &mut [D]) -> Vec<Completion> {
        let cap = self.cfg.coalesce_bytes;
        let mut ready: Vec<usize> = Vec::new();
        let mut cells: Vec<Mutex<WorkCell<'_, D>>> = Vec::new();
        // The discrete-event fast path: order ready shards by the time of
        // their next event (head-of-batch start), earliest first, ties by
        // shard index. Workers then claim shards in exactly that order.
        let mut calendar = ShardCalendar::new(self.rings.len());
        for (shard, (ring, device)) in self.rings.iter_mut().zip(devices.iter_mut()).enumerate() {
            let mut batch = Vec::with_capacity(ring.len());
            while let Some(req) = ring.pop() {
                batch.push(req);
            }
            if batch.is_empty() {
                continue;
            }
            let runs = coalesce(batch, cap);
            if let Some(first) = runs.first() {
                calendar.set(shard, first.not_before.max(device.clock()));
            }
            ready.push(shard);
            cells.push(Mutex::new(WorkCell {
                shard: shard as u32,
                device,
                runs,
                out: Vec::new(),
                busy: SimDuration::ZERO,
            }));
        }
        if ready.is_empty() {
            return Vec::new();
        }
        // cells[i] serves shard ready[i]; map the calendar's event order
        // onto cell indices for the claim sequence.
        let order: Vec<usize> = calendar
            .drain_order()
            .into_iter()
            .filter_map(|(_, shard)| ready.iter().position(|&s| s == shard))
            .collect();
        let workers = self.cfg.workers.min(order.len());
        if workers <= 1 {
            for &cell_idx in &order {
                let cell = cells[cell_idx]
                    .get_mut()
                    .unwrap_or_else(PoisonError::into_inner);
                serve_cell(cell);
            }
        } else {
            let next = AtomicUsize::new(0);
            std::thread::scope(|scope| {
                for _ in 0..workers {
                    scope.spawn(|| loop {
                        let claim = next.fetch_add(1, Ordering::Relaxed);
                        let Some(&cell_idx) = order.get(claim) else {
                            break;
                        };
                        // Only this worker ever touches the claimed cell,
                        // so the lock is uncontended by construction.
                        let mut cell = cells[cell_idx]
                            .lock()
                            .unwrap_or_else(PoisonError::into_inner);
                        serve_cell(&mut cell);
                    });
                }
            });
        }
        // Deterministic fold: shard-index order, FIFO within each shard —
        // identical for every worker count.
        let mut completions = Vec::new();
        let mut folded: Vec<(usize, WorkCell<'_, D>)> = ready
            .into_iter()
            .zip(
                cells
                    .into_iter()
                    .map(|c| c.into_inner().unwrap_or_else(PoisonError::into_inner)),
            )
            .collect();
        folded.sort_by_key(|(shard, _)| *shard);
        for (shard, mut cell) in folded {
            let st = &mut self.stats[shard];
            st.served += cell.out.len() as u64;
            st.dmas += cell.runs.len() as u64;
            st.coalesced_reqs += cell.out.iter().filter(|c| c.coalesced).count() as u64;
            st.busy += cell.busy;
            completions.append(&mut cell.out);
        }
        completions
    }
}

/// Serves one shard's coalesced batch on its device and fans completions
/// back out to the parents. Runs after an error still execute — each
/// operation fails or succeeds on its own, exactly like the blocking
/// path.
fn serve_cell<D: QueuedDevice>(cell: &mut WorkCell<'_, D>) {
    for (i, run) in cell.runs.iter().enumerate() {
        // Per-shard backlog behind this run: the per-bank refresh planner
        // stretches NVMC windows when idle and shrinks them under load.
        cell.device.note_queue_depth(cell.runs.len() - 1 - i);
        let start = cell.device.clock().max(run.not_before);
        let multi = run.parents.len() > 1;
        let served = match run.kind {
            ReqKind::Read => {
                let mut buf = vec![0u8; run.len as usize];
                cell.device
                    .serve_read(run.not_before, run.local_offset, &mut buf)
                    .map(|end| (end, buf))
            }
            ReqKind::Write => cell
                .device
                .serve_write(run.not_before, run.local_offset, &run.data)
                .map(|end| (end, Vec::new())),
        };
        match served {
            Ok((end, mut buf)) => {
                cell.busy += end.saturating_since(start);
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
                    cell.out.push(Completion {
                        seq: p.seq,
                        thread: p.thread,
                        shard: cell.shard,
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
                let end = cell.device.clock();
                for p in &run.parents {
                    cell.out.push(Completion {
                        seq: p.seq,
                        thread: p.thread,
                        shard: cell.shard,
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
}
