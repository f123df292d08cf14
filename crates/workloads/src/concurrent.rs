//! Genuinely concurrent fio driving on the scale-out executor: per-shard
//! SPSC rings, adjacent-request coalescing, and a fixed work-stealing
//! worker pool instead of one OS thread per shard.
//!
//! This replaces the old analytic closed-loop contention model with a
//! *measured* multi-thread result (the paper's Figure 9 methodology):
//! every simulated thread runs a closed loop — generate an op, pay its
//! private software cost, queue the device phase, overlap its CPU copy
//! with the device-serial transfer, repeat. Device phases are routed by
//! the [`InterleaveMap`] onto the [`ShardExecutor`]'s bounded per-shard
//! rings and served by `M` pool workers claiming ready shards in
//! discrete-event order — wall-clock cost scales with the worker pool,
//! not the channel count, which is what lets one process drive 256
//! channels. Shards share no mutable state and completions fold in shard
//! order, so the result is deterministic regardless of the worker count
//! or how the OS schedules the pool.
//!
//! The pre-executor round engine survives as a test-only reference: it
//! serves each shard's segments sequentially in arrival order exactly as
//! the thread-per-shard design did, and the differential test pins the
//! executor to it bit-for-bit (with coalescing disabled — a merged DMA
//! is a modelled optimisation the old engine cannot express).
//!
//! Timing model per op (see [`QueuedDevice`]):
//!
//! - the issuing thread pays `pre_cost` (syscall + fs/DAX + driver
//!   software) on its own timeline — fully parallel across threads;
//! - the device phase starts no earlier than `ready + pre_cost` and
//!   holds the shard for the *serialized* part only: at queue depth 1 the
//!   shard is idle at arrival and serves lock-step with the thread's copy
//!   (identical to the blocking call, so one thread reproduces Figure 8);
//!   under contention the copy overlaps other requests' transfers and the
//!   shard holds just the mapping lock plus the tCCD-pipelined bus
//!   occupancy — the serialized demand the Figure 9 knee comes from;
//! - the thread becomes ready again at
//!   `max(device completion, device start + copy_cost)`.

use crate::fio::{FioJob, RwMode};
use nvdimmc_core::{
    CoreError, EmulatedPmem, ExecStats, ExecutorConfig, InterleaveMap, MultiChannelSystem,
    QueuedDevice, ReqKind, ShardExecutor, ShardRequest,
};
use nvdimmc_sim::{DeterministicRng, Histogram, RateMeter, SimDuration, SimTime, Zipf};

/// A multi-thread fio run: `threads` closed-loop workers share one job's
/// op budget.
#[derive(Debug, Clone, Copy)]
pub struct ConcurrentFio {
    /// The job description (ops = total across all threads).
    pub job: FioJob,
    /// Simulated thread count.
    pub threads: u32,
}

/// Results of a concurrent run.
#[derive(Debug, Clone)]
pub struct ConcurrentReport {
    /// The job that produced this report.
    pub job: FioJob,
    /// Thread count driven.
    pub threads: u32,
    meter: RateMeter,
    /// Read latency distribution (per simulated thread op).
    pub read_latency: Histogram,
    /// Write latency distribution.
    pub write_latency: Histogram,
    /// Per-shard `(enqueued, completed)` — the conservation invariant.
    pub conservation: Vec<(u64, u64)>,
    /// Executor counters summed over shards.
    pub exec: ExecStats,
    /// Per-shard device-busy fraction of the elapsed window.
    pub utilisation: Vec<f64>,
    /// Order-independent digest of every read payload served: each
    /// completion hashes `(shard, offset, len, bytes)` with a word-wise
    /// four-lane digest and the records fold with a wrapping sum, so
    /// engine batching cannot perturb it. Two runs of the same job are host-visibly identical
    /// iff their digests match (reads observe earlier writes, so a
    /// mixed workload covers the write path too).
    pub data_digest: u64,
}

impl ConcurrentReport {
    /// Aggregate thousands of I/O operations per second.
    pub fn kiops(&self) -> f64 {
        self.meter.kiops()
    }

    /// Aggregate bandwidth in MB/s (decimal).
    pub fn mb_per_s(&self) -> f64 {
        self.meter.mb_per_s()
    }

    /// Mean per-op latency across threads.
    pub fn mean_latency(&self) -> SimDuration {
        let mut merged = self.read_latency.clone();
        merged.merge(&self.write_latency);
        if merged.count() == 0 {
            return SimDuration::ZERO;
        }
        merged.mean()
    }

    /// Latency percentile (0–100) over reads and writes merged.
    pub fn latency_percentile(&self, p: f64) -> SimDuration {
        let mut merged = self.read_latency.clone();
        merged.merge(&self.write_latency);
        merged.percentile(p)
    }

    /// Total elapsed simulated time (slowest thread).
    pub fn elapsed(&self) -> SimDuration {
        self.meter.elapsed()
    }
}

/// One simulated thread's closed-loop state.
struct Worker {
    rng: DeterministicRng,
    ready: SimTime,
    remaining: u64,
}

/// One generated op, pre-split into shard segments.
struct PendingOp {
    thread: u32,
    is_read: bool,
    bus_at: SimTime,
    copy: SimDuration,
    segs: Vec<(usize, ShardRequest)>,
}

/// Round generator shared by both engines: the closed-loop thread state,
/// the op stream, and the per-op fold. Keeping it in one place is what
/// makes the two engines bit-comparable — they differ only in *how* a
/// round's requests reach the devices.
struct RoundDriver {
    job: FioJob,
    workers: Vec<Worker>,
    zipf: Option<Zipf>,
    blocks: u64,
    seq_tick: u64,
    buf: Vec<u8>,
    meter: RateMeter,
    read_lat: Histogram,
    write_lat: Histogram,
    start: SimTime,
}

impl RoundDriver {
    fn new(job: FioJob, threads: u32, start: SimTime) -> Self {
        let blocks = job.span / job.block_size;
        let mut root = DeterministicRng::new(job.seed);
        let per_thread = (job.ops / u64::from(threads)).max(1);
        RoundDriver {
            job,
            workers: (0..threads)
                .map(|t| Worker {
                    rng: root.fork(u64::from(t)),
                    ready: start,
                    remaining: per_thread,
                })
                .collect(),
            zipf: job.zipf_theta.map(|theta| Zipf::new(blocks.max(1), theta)),
            blocks,
            seq_tick: 0,
            buf: vec![0u8; job.block_size as usize],
            meter: RateMeter::new(),
            read_lat: Histogram::new(),
            write_lat: Histogram::new(),
            start,
        }
    }

    fn live(&self) -> bool {
        self.workers.iter().any(|w| w.remaining > 0)
    }

    /// Generates one op per live thread, pre-split into segments, sorted
    /// by device arrival time (stable: ties keep thread-id order) — the
    /// arrival order both engines serve in.
    fn next_round<D: QueuedDevice>(&mut self, dev0: &D, map: &InterleaveMap) -> Vec<PendingOp> {
        let job = self.job;
        let mut round: Vec<PendingOp> = Vec::new();
        for (t, w) in self.workers.iter_mut().enumerate() {
            if w.remaining == 0 {
                continue;
            }
            let block = match job.mode {
                RwMode::SeqRead | RwMode::SeqWrite => {
                    let b = self.seq_tick % self.blocks;
                    self.seq_tick += 1;
                    b
                }
                _ => match &self.zipf {
                    Some(z) => z.sample(&mut w.rng),
                    None => w.rng.gen_range(0..self.blocks),
                },
            };
            let off = job.offset + block * job.block_size;
            let is_read = match job.mode {
                RwMode::RandRead | RwMode::SeqRead => true,
                RwMode::RandWrite | RwMode::SeqWrite => false,
                RwMode::RandRw { read_fraction } => w.rng.gen_bool(read_fraction),
            };
            if !is_read {
                w.rng.fill_bytes(&mut self.buf);
            }
            let bus_at = w.ready + dev0.pre_cost(job.block_size, !is_read);
            let copy = dev0.copy_cost(job.block_size);
            let buf = &self.buf;
            let segs = map
                .split_range(off, job.block_size)
                .into_iter()
                .map(|seg| {
                    (
                        seg.shard as usize,
                        ShardRequest {
                            seq: 0,
                            thread: t as u32,
                            kind: if is_read {
                                ReqKind::Read
                            } else {
                                ReqKind::Write
                            },
                            local_offset: seg.local_offset,
                            len: seg.len,
                            not_before: bus_at,
                            data: if is_read {
                                Vec::new()
                            } else {
                                buf[seg.pos..seg.pos + seg.len as usize].to_vec()
                            },
                        },
                    )
                })
                .collect();
            round.push(PendingOp {
                thread: t as u32,
                is_read,
                bus_at,
                copy,
                segs,
            });
        }
        round.sort_by_key(|op| op.bus_at);
        round
    }

    /// Folds one round's per-thread completion times back into the closed
    /// loop: thread ready = `max(device completion, bus_at + copy)`.
    fn fold_round(&mut self, round: &[PendingOp], op_done: &[SimTime]) {
        for op in round {
            let t = op.thread as usize;
            let w = &mut self.workers[t];
            let finished = op_done[t].max(op.bus_at + op.copy);
            let lat = finished.since(w.ready);
            if op.is_read {
                self.read_lat.record(lat);
            } else {
                self.write_lat.record(lat);
            }
            self.meter.record_op(self.job.block_size);
            w.ready = finished;
            w.remaining -= 1;
        }
    }

    fn finish(mut self, threads: u32) -> (ConcurrentReport, SimDuration) {
        let end = self
            .workers
            .iter()
            .map(|w| w.ready)
            .max()
            .unwrap_or(self.start);
        let elapsed = end.since(self.start);
        self.meter.finish(elapsed);
        (
            ConcurrentReport {
                job: self.job,
                threads,
                meter: self.meter,
                read_latency: self.read_lat,
                write_latency: self.write_lat,
                conservation: Vec::new(),
                exec: ExecStats::default(),
                utilisation: Vec::new(),
                data_digest: 0,
            },
            elapsed,
        )
    }
}

/// Start value of every record digest: the first hex digits of π, an
/// arbitrary nonzero constant.
const DIGEST_SEED: u64 = 0x243F_6A88_85A3_08D3;

/// One digest step: XOR in a word, multiply by an odd constant, fold
/// the high half down. Each part is a bijection of `h` for a fixed `w`,
/// so two inputs that differ in one word never meet in that lane.
#[inline]
fn step(h: u64, w: u64) -> u64 {
    let x = (h ^ w).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    x ^ (x >> 32)
}

/// Digest of one read completion's identity and payload. Four lanes,
/// seeded from `(shard, offset, len)`, each take one little-endian `u64`
/// of every 32-byte chunk; the tail is zero-padded (the length is in the
/// seed), and the lanes fold through the same step.
fn digest_record(shard: u32, offset: u64, data: &[u8]) -> u64 {
    let seed = [u64::from(shard), offset, data.len() as u64]
        .into_iter()
        .fold(DIGEST_SEED, step);
    let mut lanes: [u64; 4] = std::array::from_fn(|i| step(seed, i as u64));
    let mut absorb = |chunk: &[u8; 32]| {
        for (h, w) in lanes.iter_mut().zip(chunk.as_chunks::<8>().0) {
            *h = step(*h, u64::from_le_bytes(*w));
        }
    };
    let (chunks, tail) = data.as_chunks::<32>();
    chunks.iter().for_each(&mut absorb);
    if !tail.is_empty() {
        let mut last = [0u8; 32];
        last[..tail.len()].copy_from_slice(tail);
        absorb(&last);
    }
    lanes[1..].iter().fold(lanes[0], |h, &l| step(h, l))
}

fn check_shapes<D: QueuedDevice>(
    threads: u32,
    job: FioJob,
    devices: &[D],
    map: &InterleaveMap,
) -> Result<(), CoreError> {
    assert!(threads >= 1, "at least one thread");
    assert!(job.block_size > 0, "block size must be positive");
    assert!(job.span >= job.block_size, "span must hold one block");
    if devices.is_empty() || devices.len() != map.channels() as usize {
        return Err(CoreError::Config(
            "concurrent fio: devices and map must agree on shard count".into(),
        ));
    }
    Ok(())
}

impl ConcurrentFio {
    /// Sizes an executor for this run: rings deep enough that a full
    /// round (one op per thread, every segment on one shard in the worst
    /// case) fits without bouncing, and one pool worker per available
    /// core (the worker count never changes results, only wall clock).
    pub fn executor_config(&self) -> ExecutorConfig {
        let workers = std::thread::available_parallelism().map_or(4, std::num::NonZero::get);
        ExecutorConfig::default()
            .with_workers(workers)
            .with_ring_depth((self.threads as usize * 4).max(64))
    }

    /// Runs against a [`MultiChannelSystem`] on the scale-out executor.
    ///
    /// # Errors
    ///
    /// Propagates device errors.
    pub fn run_multichannel(
        &self,
        sys: &mut MultiChannelSystem,
    ) -> Result<ConcurrentReport, CoreError> {
        let cfg = self.executor_config();
        let (shards, map, _) = sys.parts_mut();
        self.run_executor(shards, map, cfg)
    }

    /// Runs against the emulated-pmem baseline (one "shard") on the
    /// executor.
    ///
    /// # Errors
    ///
    /// Propagates device errors.
    pub fn run_baseline(&self, pmem: &mut EmulatedPmem) -> Result<ConcurrentReport, CoreError> {
        let map = InterleaveMap::page_interleaved(1)?;
        let cfg = self.executor_config();
        self.run_executor(std::slice::from_mut(pmem), &map, cfg)
    }

    /// The scale-out engine: routes every round through a
    /// [`ShardExecutor`] — bounded SPSC rings, coalescing, and a fixed
    /// worker pool claiming ready shards in discrete-event order.
    /// Deterministic for any worker count; a bounced round (full ring)
    /// drains in place and retries, so backpressure never drops work.
    ///
    /// # Errors
    ///
    /// Propagates device errors; rejects empty device lists and
    /// mismatched map shapes.
    pub fn run_executor<D: QueuedDevice>(
        &self,
        devices: &mut [D],
        map: &InterleaveMap,
        cfg: ExecutorConfig,
    ) -> Result<ConcurrentReport, CoreError> {
        check_shapes(self.threads, self.job, devices, map)?;
        let mut exec = ShardExecutor::new(devices.len(), cfg);
        // Non-empty is checked above; an empty iterator would mean the
        // guard is gone, and time zero is the only sane fallback.
        let start = devices
            .iter()
            .map(QueuedDevice::clock)
            .max()
            .unwrap_or_default();
        let mut driver = RoundDriver::new(self.job, self.threads, start);
        let mut op_done: Vec<SimTime> = vec![SimTime::ZERO; driver.workers.len()];
        let mut digest = 0u64;
        while driver.live() {
            let round = driver.next_round(&devices[0], map);
            op_done.iter_mut().for_each(|t| *t = SimTime::ZERO);
            for op in &round {
                for (shard, req) in &op.segs {
                    let mut req = req.clone();
                    loop {
                        match exec.submit_request(*shard, req) {
                            Ok(_) => break,
                            Err(bounced) => {
                                // Ring full: serve what's queued, retry.
                                req = bounced;
                                drain_completions(&mut exec, devices, &mut op_done, &mut digest)?;
                            }
                        }
                    }
                }
            }
            drain_completions(&mut exec, devices, &mut op_done, &mut digest)?;
            driver.fold_round(&round, &op_done);
        }
        let (mut report, elapsed) = driver.finish(self.threads);
        report.data_digest = digest;
        report.conservation = exec.conservation();
        report.utilisation = (0..exec.shards())
            .map(|s| {
                if elapsed == SimDuration::ZERO {
                    0.0
                } else {
                    exec.stats(s).busy / elapsed
                }
            })
            .collect();
        report.exec = exec.total_stats();
        Ok(report)
    }
}

/// Serves everything queued on the executor, folding completions into
/// the per-thread end times; the first failure (deterministic: lowest
/// shard, FIFO) propagates exactly like the lockstep engine's `?`.
fn drain_completions<D: QueuedDevice>(
    exec: &mut ShardExecutor,
    devices: &mut [D],
    op_done: &mut [SimTime],
    digest: &mut u64,
) -> Result<(), CoreError> {
    let mut first_err = None;
    for c in exec.dispatch(devices) {
        if let Some(e) = c.error {
            first_err.get_or_insert(e);
            continue;
        }
        if c.kind == ReqKind::Read {
            *digest = digest.wrapping_add(digest_record(c.shard, c.local_offset, &c.data));
        }
        let t = c.thread as usize;
        op_done[t] = op_done[t].max(c.end);
    }
    match first_err {
        Some(e) => Err(e),
        None => Ok(()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nvdimmc_core::{MultiChannelConfig, NvdimmCConfig, PerfParams};
    use nvdimmc_ddr::{SpeedBin, TimingParams};
    use nvdimmc_sim::DeterministicRng;

    #[test]
    fn record_digest_sees_every_bit_word_order_and_identity_field() {
        let mut rng = DeterministicRng::new(0xD16E);
        let mut data = vec![0u8; 4096];
        rng.fill_bytes(&mut data);
        let base = digest_record(3, 0x4000, &data);
        for bit in 0..data.len() * 8 {
            data[bit / 8] ^= 1 << (bit % 8);
            assert_ne!(digest_record(3, 0x4000, &data), base, "bit {bit}");
            data[bit / 8] ^= 1 << (bit % 8);
        }
        assert_ne!(digest_record(4, 0x4000, &data), base, "shard");
        assert_ne!(digest_record(3, 0x5000, &data), base, "offset");
        // A trailing zero byte is zero padding to the chunk loop, so only
        // the length in the seed tells the two records apart.
        data.push(0);
        let padded = digest_record(3, 0x4000, &data);
        assert_ne!(padded, base, "len");
        data[4096] = 1;
        assert_ne!(digest_record(3, 0x4000, &data), padded, "tail byte");
        data.pop();
        let words = data.len() / 8;
        for _ in 0..2_000 {
            let a = rng.gen_range(0..words as u64) as usize * 8;
            let b = rng.gen_range(0..words as u64) as usize * 8;
            if data[a..a + 8] == data[b..b + 8] {
                continue;
            }
            let mut swapped = data.clone();
            swapped[a..a + 8].copy_from_slice(&data[b..b + 8]);
            swapped[b..b + 8].copy_from_slice(&data[a..a + 8]);
            assert_ne!(digest_record(3, 0x4000, &swapped), base, "swap {a}/{b}");
        }
    }

    fn pmem() -> EmulatedPmem {
        EmulatedPmem::new(
            64 << 20,
            TimingParams::nvdimmc_poc(SpeedBin::Ddr4_1600),
            PerfParams::poc(),
        )
        .unwrap()
    }

    /// The pre-executor reference engine: each round's segments are
    /// bucketed per shard in arrival order and served sequentially on
    /// the shard, exactly as the retired thread-per-shard design did.
    fn run_lockstep<D: QueuedDevice>(
        fio: &ConcurrentFio,
        devices: &mut [D],
        map: &InterleaveMap,
    ) -> Result<ConcurrentReport, CoreError> {
        check_shapes(fio.threads, fio.job, devices, map)?;
        let start = devices
            .iter()
            .map(QueuedDevice::clock)
            .max()
            .unwrap_or_default();
        let mut driver = RoundDriver::new(fio.job, fio.threads, start);
        let mut op_done: Vec<SimTime> = vec![SimTime::ZERO; driver.workers.len()];
        let mut digest = 0u64;
        let mut scratch = Vec::new();
        while driver.live() {
            let round = driver.next_round(&devices[0], map);
            let mut batches: Vec<Vec<&ShardRequest>> = vec![Vec::new(); devices.len()];
            for op in &round {
                for (shard, req) in &op.segs {
                    batches[*shard].push(req);
                }
            }
            op_done.fill(SimTime::ZERO);
            for (shard, batch) in batches.into_iter().enumerate() {
                let dev = &mut devices[shard];
                for r in batch {
                    let end = match r.kind {
                        ReqKind::Read => {
                            scratch.resize(r.len as usize, 0);
                            let end = dev.serve_read(r.not_before, r.local_offset, &mut scratch)?;
                            digest = digest.wrapping_add(digest_record(
                                shard as u32,
                                r.local_offset,
                                &scratch,
                            ));
                            end
                        }
                        ReqKind::Write => dev.serve_write(r.not_before, r.local_offset, &r.data)?,
                    };
                    let t = r.thread as usize;
                    op_done[t] = op_done[t].max(end);
                }
            }
            driver.fold_round(&round, &op_done);
        }
        let (mut report, _) = driver.finish(fio.threads);
        report.data_digest = digest;
        Ok(report)
    }

    fn cached_1ch(span: u64) -> MultiChannelSystem {
        let mut sys =
            MultiChannelSystem::new(MultiChannelConfig::single(NvdimmCConfig::small_for_tests()))
                .unwrap();
        for page in 0..span / 4096 {
            sys.prefault(page).unwrap();
        }
        sys
    }

    #[test]
    fn one_thread_matches_sequential_fio() {
        // The executor at 1 thread must reproduce the blocking harness:
        // singleton batches take the idle-arrival serve path, which IS
        // the blocking path.
        let job = FioJob::rand_read_4k(32 << 20, 1_500);
        let mut a = pmem();
        let seq = job.run(&mut a).unwrap();
        let mut b = pmem();
        let conc = ConcurrentFio { job, threads: 1 }
            .run_baseline(&mut b)
            .unwrap();
        let (s, c) = (seq.kiops(), conc.kiops());
        assert!(
            (c - s).abs() / s < 0.05,
            "1-thread concurrent {c:.0} vs blocking {s:.0} KIOPS"
        );
    }

    #[test]
    fn executor_matches_lockstep_reference_bit_for_bit() {
        // With coalescing disabled the executor serves exactly the
        // lockstep engine's per-shard FCFS sequences, so every latency,
        // clock and counter must agree bit-for-bit — at one channel this
        // pins the executor to the pre-refactor monolith path.
        for channels in [1u32, 4] {
            let job = FioJob::rand_read_4k(16 << 20, 600);
            let fio = ConcurrentFio { job, threads: 6 };
            let mk = || {
                MultiChannelSystem::new(MultiChannelConfig::new(
                    NvdimmCConfig::small_for_tests(),
                    channels,
                ))
                .unwrap()
            };
            let lock = {
                let mut sys = mk();
                let (shards, map, _) = sys.parts_mut();
                run_lockstep(&fio, shards, map).unwrap()
            };
            let exec = {
                let mut sys = mk();
                let (shards, map, _) = sys.parts_mut();
                let cfg = fio.executor_config().with_coalesce_bytes(1);
                fio.run_executor(shards, map, cfg).unwrap()
            };
            assert_eq!(
                lock.kiops(),
                exec.kiops(),
                "{channels}ch kiops diverged from the reference engine"
            );
            assert_eq!(lock.mean_latency(), exec.mean_latency());
            assert_eq!(lock.latency_percentile(99.0), exec.latency_percentile(99.0));
        }
    }

    #[test]
    fn worker_count_never_changes_results() {
        let job = FioJob::rand_write_4k(24 << 20, 800);
        let fio = ConcurrentFio { job, threads: 8 };
        let run = |workers: usize| {
            let mut sys = MultiChannelSystem::new(MultiChannelConfig::new(
                NvdimmCConfig::small_for_tests(),
                4,
            ))
            .unwrap();
            let (shards, map, _) = sys.parts_mut();
            let cfg = fio.executor_config().with_workers(workers);
            fio.run_executor(shards, map, cfg).unwrap()
        };
        let (a, b, c) = (run(1), run(3), run(16));
        assert_eq!(a.kiops(), b.kiops(), "1 vs 3 workers");
        assert_eq!(a.kiops(), c.kiops(), "1 vs 16 workers");
        assert_eq!(a.mean_latency(), c.mean_latency());
        assert_eq!(a.utilisation, c.utilisation);
    }

    #[test]
    fn baseline_scaling_matches_paper_shape() {
        // Paper Fig. 9 left: baseline 646 KIOPS at 1t, ~2123 KIOPS peak.
        let run = |threads: u32, ops: u64| {
            let mut dev = pmem();
            ConcurrentFio {
                job: FioJob::rand_read_4k(32 << 20, ops),
                threads,
            }
            .run_baseline(&mut dev)
            .unwrap()
            .kiops()
        };
        let x1 = run(1, 1_500);
        let x8 = run(8, 4_000);
        let x16 = run(16, 4_000);
        assert!((560.0..740.0).contains(&x1), "x1 = {x1:.0}");
        assert!(x8 > x1 * 2.5, "x8 = {x8:.0}");
        assert!(
            x16 < x8 * 1.35,
            "saturating: x16 = {x16:.0} vs x8 = {x8:.0}"
        );
        assert!((1700.0..2500.0).contains(&x16), "peak = {x16:.0} KIOPS");
    }

    #[test]
    fn cached_scaling_saturates_near_paper_peak() {
        // Paper Fig. 9 middle: NVDC-Cached 448 KIOPS at 1t → ~1060 at 16t.
        let span = 4u64 << 20;
        let x1 = {
            let mut sys = cached_1ch(span);
            ConcurrentFio {
                job: FioJob::rand_read_4k(span, 800),
                threads: 1,
            }
            .run_multichannel(&mut sys)
            .unwrap()
            .kiops()
        };
        let x16 = {
            let mut sys = cached_1ch(span);
            ConcurrentFio {
                job: FioJob::rand_read_4k(span, 3_200),
                threads: 16,
            }
            .run_multichannel(&mut sys)
            .unwrap()
            .kiops()
        };
        assert!((380.0..520.0).contains(&x1), "cached x1 = {x1:.0}");
        assert!((850.0..1250.0).contains(&x16), "cached peak = {x16:.0}");
    }

    #[test]
    fn runs_are_deterministic() {
        let run = || {
            let mut dev = pmem();
            ConcurrentFio {
                job: FioJob::rand_write_4k(16 << 20, 2_000),
                threads: 6,
            }
            .run_baseline(&mut dev)
            .unwrap()
        };
        let (a, b) = (run(), run());
        assert_eq!(a.kiops(), b.kiops(), "bit-identical across runs");
        assert_eq!(a.mean_latency(), b.mean_latency());
    }

    #[test]
    fn conservation_holds_across_shards() {
        let cfg = MultiChannelConfig::new(NvdimmCConfig::small_for_tests(), 2);
        let mut sys = MultiChannelSystem::new(cfg).unwrap();
        let report = ConcurrentFio {
            job: FioJob::rand_write_4k(24 << 20, 600),
            threads: 4,
        }
        .run_multichannel(&mut sys)
        .unwrap();
        assert_eq!(report.conservation.len(), 2);
        for (i, (enq, comp)) in report.conservation.iter().enumerate() {
            assert_eq!(enq, comp, "shard {i} leaked requests");
            assert!(*enq > 0, "shard {i} idle");
        }
        assert_eq!(report.exec.accepted, report.exec.served);
    }

    #[test]
    fn sequential_runs_exercise_coalescing() {
        // A sequential stream on one channel produces adjacent requests
        // in every multi-thread round; the executor must merge some of
        // them and still satisfy conservation.
        let mut dev = pmem();
        let report = ConcurrentFio {
            job: FioJob {
                mode: RwMode::SeqRead,
                ..FioJob::rand_read_4k(16 << 20, 1_200)
            },
            threads: 8,
        }
        .run_baseline(&mut dev)
        .unwrap();
        assert!(
            report.exec.coalesced_reqs > 0,
            "sequential stream never coalesced"
        );
        assert!(report.exec.dmas < report.exec.served, "no DMA was merged");
        for (enq, comp) in &report.conservation {
            assert_eq!(enq, comp);
        }
    }
}
