//! The three fio workloads: closed-loop 4 KB random I/O driven through
//! [`ConcurrentFio::run_executor`] on a preconditioned
//! [`MultiChannelSystem`].
//!
//! The timed phase is cut into [`SLICES`] equal slices, each one
//! `run_executor` call with its own derived job seed, back to back on the
//! same system. Host time per op is read from the fastest slice: on a
//! shared machine a slice can only be slowed by interference, never sped
//! up, so the minimum is the steadiest estimate of what the code costs.

use crate::layers::Counts;
use crate::timing::{ServeTimes, Timed};
use nvdimmc_check::check_trace;
use nvdimmc_core::{
    BlockDevice, ChannelShard, ExecStats, ExecutorConfig, MultiChannelConfig, MultiChannelSystem,
    NvdimmCConfig, PAGE_BYTES,
};
use nvdimmc_ddr::{RefreshMode, TraceEntry};
use nvdimmc_sim::{DeterministicRng, Histogram, SimDuration};
use nvdimmc_workloads::{ConcurrentFio, FioJob, RwMode};
use std::time::{Duration, Instant};

/// Equal slices of every fio timed phase.
pub const SLICES: u64 = 32;

/// Executor pool workers, fixed rather than taken from the host. One
/// worker serves inline; two (one per core of a 2-vCPU machine) spawn
/// scoped threads every dispatch round, which made the fastest-slice time
/// of `cached-read` range over 13 % across runs against 4.5 % inline.
pub const WORKERS: usize = 1;

/// Pages of set-up data read back through the blocking path after a
/// read-only run.
const READBACK_PAGES: u64 = 64;

/// The shape of one fio workload.
#[derive(Debug, Clone, Copy)]
pub struct FioSpec {
    /// Channels (= shards).
    pub channels: u32,
    /// Closed-loop simulated threads.
    pub threads: u32,
    /// Refresh mode of every shard.
    pub refresh: RefreshMode,
    /// DRAM-cache slots per shard, when overriding the default 12 MB.
    pub cache_slots: Option<u64>,
    /// Bytes of the interleaved span each channel holds.
    pub span_per_channel: u64,
    /// Access pattern.
    pub mode: RwMode,
    /// Zipf skew over pages, `None` for uniform.
    pub zipf: Option<f64>,
    /// Timed ops per second of `--seconds` (a fixed budget, so a seed
    /// always gives the same ops).
    pub ops_per_second: u64,
}

impl FioSpec {
    /// Total span the job addresses.
    pub fn span(&self) -> u64 {
        self.span_per_channel * u64::from(self.channels)
    }

    /// Ops in one slice: the budget split over the slices, rounded up to
    /// whole rounds of one op per thread.
    pub fn ops_per_slice(&self, seconds: u64) -> u64 {
        let threads = u64::from(self.threads);
        let want = (self.ops_per_second * seconds).div_ceil(SLICES);
        want.div_ceil(threads).max(1) * threads
    }

    fn config(&self) -> MultiChannelConfig {
        let mut shard = NvdimmCConfig::small_for_tests().with_refresh_mode(self.refresh);
        if let Some(slots) = self.cache_slots {
            shard.cache_slots = slots;
        }
        MultiChannelConfig::new(shard, self.channels)
    }

    fn executor(&self) -> ExecutorConfig {
        ExecutorConfig::default()
            .with_workers(WORKERS)
            .with_ring_depth((self.threads as usize * 4).max(64))
    }

    fn job(&self, seed: u64, slice: u64, ops: u64) -> FioJob {
        FioJob {
            mode: self.mode,
            zipf_theta: self.zipf,
            seed: mix(seed, slice),
            ..FioJob::rand_read_4k(self.span(), ops)
        }
    }
}

/// Derives an independent stream seed (`SplitMix64` finaliser).
pub fn mix(seed: u64, stream: u64) -> u64 {
    let mut z = seed ^ stream.wrapping_add(1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The set-up payload of one page.
fn page_pattern(seed: u64, page: u64, buf: &mut [u8]) {
    DeterministicRng::new(mix(seed ^ 0xDA7A, page)).fill_bytes(buf);
}

/// A built and preconditioned system, with its set-up timings.
pub struct Prepared {
    /// The system, ready for the timed phase.
    pub sys: MultiChannelSystem,
    /// Host time to construct the shards.
    pub construct: Duration,
    /// Host time to write the span once.
    pub precondition: Duration,
}

/// Builds the system and writes every page of the span once through the
/// blocking path, so the timed phase starts on mapped, warmed state.
/// With `capture`, trace capture is on from the first command.
///
/// # Errors
///
/// Returns a description of the first device error.
pub fn prepare(spec: &FioSpec, seed: u64, capture: bool) -> Result<Prepared, String> {
    let t0 = Instant::now();
    let mut sys = MultiChannelSystem::new(spec.config()).map_err(|e| format!("construct: {e}"))?;
    let construct = t0.elapsed();
    if capture {
        sys.set_trace_capture(true);
    }
    let t1 = Instant::now();
    let mut buf = vec![0u8; PAGE_BYTES as usize];
    for page in 0..spec.span() / PAGE_BYTES {
        page_pattern(seed, page, &mut buf);
        sys.write_at(page * PAGE_BYTES, &buf)
            .map_err(|e| format!("precondition page {page}: {e}"))?;
    }
    Ok(Prepared {
        sys,
        construct,
        precondition: t1.elapsed(),
    })
}

/// Trace-check totals over a timed phase.
#[derive(Debug, Clone, Copy, Default)]
pub struct CheckTally {
    /// Trace entries captured.
    pub entries: u64,
    /// Diagnostics the checker reported.
    pub diagnostics: u64,
    /// Host time spent checking.
    pub host: Duration,
}

/// What one timed phase measured.
#[derive(Debug, Clone)]
pub struct Phase {
    /// Ops attempted.
    pub ops: u64,
    /// Ops that failed (a failed slice fails all its ops).
    pub failed: u64,
    /// Host time of each slice.
    pub slice_times: Vec<Duration>,
    /// Ops in each slice.
    pub slice_ops: u64,
    /// Bus commands simulated in each slice.
    pub slice_cmds: Vec<u64>,
    /// Simulated per-op read latency.
    pub read_lat: Histogram,
    /// Simulated per-op write latency.
    pub write_lat: Histogram,
    /// Simulated time the slices took, summed.
    pub sim_elapsed: SimDuration,
    /// Per-layer counter deltas.
    pub counts: Counts,
    /// Executor counters summed over slices.
    pub exec: ExecStats,
    /// Order-independent digest of every read payload.
    pub data_digest: u64,
    /// Host time inside the devices' serve calls (traced only).
    pub serve: ServeTimes,
    /// Host time inside `run_executor`, summed over slices.
    pub exec_wall: Duration,
    /// Trace checking (traced only).
    pub check: CheckTally,
    /// Failed correctness checks, one line each.
    pub problems: Vec<String>,
}

impl Phase {
    /// Host time per op, in microseconds: the fastest slice's host time
    /// per simulated bus command, scaled by the phase's commands per op.
    /// Slices of equal ops are not equal work when misses are rare and
    /// slow (per-bank refresh simulates a REFpb every 487 ns, so host time
    /// follows simulated time); per bus command they are.
    pub fn host_us_per_op(&self) -> f64 {
        let best = self
            .slice_times
            .iter()
            .zip(&self.slice_cmds)
            .map(|(t, &c)| t.as_secs_f64() / c.max(1) as f64)
            .fold(f64::INFINITY, f64::min);
        let cmds: u64 = self.slice_cmds.iter().sum();
        best * 1e6 * cmds as f64 / self.ops as f64
    }

    /// Host time per op of every slice, in microseconds.
    pub fn slice_us(&self) -> Vec<f64> {
        self.slice_times
            .iter()
            .map(|t| t.as_secs_f64() * 1e6 / self.slice_ops as f64)
            .collect()
    }

    /// Mean host time per op over all slices, in microseconds.
    pub fn host_us_per_op_mean(&self) -> f64 {
        let all: Duration = self.slice_times.iter().sum();
        all.as_secs_f64() * 1e6 / self.ops as f64
    }

    /// Reads and writes merged.
    pub fn latency(&self) -> Histogram {
        let mut h = self.read_lat.clone();
        h.merge(&self.write_lat);
        h
    }
}

/// Checks each shard's newest trace chunk with the previous chunk as
/// warm-up, counting only diagnostics inside the new chunk. A rank
/// refresh closes every bank and a per-bank refresh its own bank, each
/// within one tREFI, so a whole slice of warm-up leaves the checker in the
/// state a full-trace replay would have at the chunk's start; holding two
/// chunks at a time keeps memory bounded however long the run.
fn check_chunks(
    prev: &mut [Vec<TraceEntry>],
    chunks: Vec<Vec<TraceEntry>>,
    shards: &[ChannelShard],
    tally: &mut CheckTally,
    problems: &mut Vec<String>,
) {
    let t0 = Instant::now();
    for (((index, shard), warm), chunk) in
        shards.iter().enumerate().zip(prev.iter_mut()).zip(chunks)
    {
        let Some(start) = chunk.iter().map(|e| e.at).min() else {
            continue;
        };
        tally.entries += chunk.len() as u64;
        let mut joined = std::mem::take(warm);
        let split = joined.len();
        joined.extend(chunk);
        let report = check_trace(&joined, &shard.config().timing);
        let fresh: Vec<_> = report
            .diagnostics()
            .iter()
            .filter(|d| d.at.is_none_or(|at| at >= start))
            .collect();
        if let Some(first) = fresh.first() {
            problems.push(format!("shard {index}: {first}"));
        }
        tally.diagnostics += fresh.len() as u64;
        *warm = joined.split_off(split);
    }
    tally.host += t0.elapsed();
}

/// Runs the timed phase: [`SLICES`] slices of `spec.ops_per_slice`
/// ops each. With `traced`, every shard's serve calls are timed and its
/// bus trace is drained and checked after every slice (capture must
/// already be on).
pub fn timed_phase(
    spec: &FioSpec,
    sys: &mut MultiChannelSystem,
    seed: u64,
    seconds: u64,
    traced: bool,
) -> Phase {
    let slice_ops = spec.ops_per_slice(seconds);
    let before = Counts::of(sys.shards());
    let mut phase = Phase {
        ops: 0,
        failed: 0,
        slice_times: Vec::with_capacity(SLICES as usize),
        slice_ops,
        slice_cmds: Vec::with_capacity(SLICES as usize),
        read_lat: Histogram::new(),
        write_lat: Histogram::new(),
        sim_elapsed: SimDuration::ZERO,
        counts: Counts::default(),
        exec: ExecStats::default(),
        data_digest: 0,
        serve: ServeTimes::default(),
        exec_wall: Duration::ZERO,
        check: CheckTally::default(),
        problems: Vec::new(),
    };
    let mut warm: Vec<Vec<TraceEntry>> = vec![Vec::new(); spec.channels as usize];
    if traced {
        // The set-up trace is the first chunk's warm-up and is checked too.
        let setup = sys.take_traces();
        check_chunks(
            &mut warm,
            setup,
            sys.shards(),
            &mut phase.check,
            &mut phase.problems,
        );
    }
    for slice in 0..SLICES {
        let at_start = Counts::of(sys.shards());
        let fio = ConcurrentFio {
            job: spec.job(seed, slice, slice_ops),
            threads: spec.threads,
        };
        let (shards, map, _) = sys.parts_mut();
        let t0 = Instant::now();
        let result = if traced {
            let mut timed = Timed::wrap_all(shards);
            let r = fio.run_executor(&mut timed, map, spec.executor());
            for t in &timed {
                phase.serve.merge(&t.times());
            }
            r
        } else {
            fio.run_executor(shards, map, spec.executor())
        };
        let wall = t0.elapsed();
        let work = Counts::of(sys.shards()).since(&at_start);
        phase.slice_cmds.push(work.host_cmds + work.nvmc_cmds);
        phase.exec_wall += wall;
        phase.slice_times.push(wall);
        phase.ops += slice_ops;
        match result {
            Ok(r) => {
                phase.read_lat.merge(&r.read_latency);
                phase.write_lat.merge(&r.write_latency);
                phase.sim_elapsed += r.elapsed();
                phase.exec.merge(&r.exec);
                phase.data_digest = phase.data_digest.wrapping_add(r.data_digest);
                let leaks: Vec<String> = r
                    .conservation
                    .iter()
                    .enumerate()
                    .filter(|(_, (enq, done))| enq != done)
                    .map(|(shard, (enq, done))| {
                        format!("slice {slice}: shard {shard} accepted {enq}, completed {done}")
                    })
                    .collect();
                if !leaks.is_empty() {
                    phase.failed += slice_ops;
                    phase.problems.extend(leaks);
                }
            }
            Err(e) => {
                phase.failed += slice_ops;
                phase.problems.push(format!("slice {slice}: {e}"));
            }
        }
        if traced {
            let chunks = sys.take_traces();
            check_chunks(
                &mut warm,
                chunks,
                sys.shards(),
                &mut phase.check,
                &mut phase.problems,
            );
        }
    }
    phase.counts = Counts::of(sys.shards()).since(&before);
    let c = &phase.counts;
    for (what, n) in [
        ("bus violations rejected", c.violations_rejected),
        ("FTL reads of unmapped pages", c.unmapped_reads),
        ("zero-filled misses", c.zero_fills),
    ] {
        if n > 0 {
            phase
                .problems
                .push(format!("{n} {what} in the timed phase"));
        }
    }
    phase
}

/// Reads a spread sample of set-up pages back through the blocking
/// `read_at` path and returns the pages whose bytes changed. Only valid
/// after a read-only timed phase.
///
/// # Errors
///
/// Returns a description of the first device error.
pub fn readback(spec: &FioSpec, sys: &mut MultiChannelSystem, seed: u64) -> Result<u64, String> {
    let pages = spec.span() / PAGE_BYTES;
    let mut want = vec![0u8; PAGE_BYTES as usize];
    let mut got = vec![0u8; PAGE_BYTES as usize];
    let mut bad = 0;
    for i in 0..READBACK_PAGES {
        let page = i * pages / READBACK_PAGES;
        page_pattern(seed, page, &mut want);
        sys.read_at(page * PAGE_BYTES, &mut got)
            .map_err(|e| format!("readback page {page}: {e}"))?;
        if got != want {
            bad += 1;
        }
    }
    Ok(bad)
}
