//! The crash-sweep workload: 4-channel rank-level [`CrashSweep`]s with
//! ADR on, their op schedules lengthened so the rehearsals are real
//! set-up work, and a stratified sample of their boundaries cut as
//! trials.
//!
//! One op of this workload is one crash trial: boot, replay to the armed
//! boundary, power-fail, recover through the NAND/FTL snapshot and audit
//! with the persistence oracle. A run sweeps [`SCHEDULES`] schedules drawn
//! from the seed, so its figures average over op mixes instead of riding
//! on one. A trial's host cost grows with how far its replay runs, so the
//! trial list is sorted by the simulated instant the rehearsal crossed the
//! boundary and slice `k` of [`SLICES`] takes trials `k, k + SLICES, …`:
//! every slice gets the same mix of early and late cuts.

use crate::fio::mix;
use nvdimmc_check::check_trace;
use nvdimmc_core::{
    BlockDevice, CrashPoint, CrashPointKind, MultiChannelConfig, MultiChannelSystem, NvdimmCConfig,
    PAGE_BYTES,
};
use nvdimmc_sim::{DeterministicRng, Histogram, SimDuration};
use nvdimmc_workloads::{CrashOp, CrashSweep};
use std::time::{Duration, Instant};

/// Equal slices of the trial list.
pub const SLICES: u64 = 32;

/// Channels of the swept system.
pub const CHANNELS: u32 = 4;

/// Schedules swept per run.
pub const SCHEDULES: u64 = 8;

/// Ops in each swept schedule (the preset has 20).
pub const OPS: u64 = 120;

/// Trials per second of `--seconds`.
pub const TRIALS_PER_SECOND: u64 = 45;

/// Boundary classes in report order.
pub const KINDS: [CrashPointKind; 4] = [
    CrashPointKind::BusOp,
    CrashPointKind::CpWindow,
    CrashPointKind::NvmcBurst,
    CrashPointKind::Maintenance,
];

/// A rehearsed schedule.
pub struct Rehearsed {
    /// The sweep configuration.
    pub sweep: CrashSweep,
    /// The op schedule.
    pub ops: Vec<CrashOp>,
    /// Every boundary each shard crossed.
    pub boundaries: Vec<Vec<CrashPoint>>,
}

/// The set-up of one run: generates every schedule of `seed` and
/// rehearses each once, fault-free.
///
/// # Errors
///
/// Returns a description of the first device error.
pub fn rehearse(seed: u64) -> Result<Vec<Rehearsed>, String> {
    (0..SCHEDULES)
        .map(|j| {
            let sweep = CrashSweep {
                ops: OPS,
                ..CrashSweep::small(CHANNELS).with_seed(mix(seed, 0xC4A5 + j))
            };
            let ops = sweep.make_ops();
            let boundaries = sweep
                .rehearse(&ops)
                .map_err(|e| format!("rehearse schedule {j}: {e}"))?;
            Ok(Rehearsed {
                sweep,
                ops,
                boundaries,
            })
        })
        .collect()
}

/// Boundaries crossed per class, summed over schedules and shards.
pub fn per_kind(all: &[Rehearsed]) -> [u64; 4] {
    let mut n = [0; 4];
    for p in all.iter().flat_map(|r| r.boundaries.iter().flatten()) {
        if let Some(k) = KINDS.iter().position(|&k| k == p.kind) {
            n[k] += 1;
        }
    }
    n
}

/// One selected trial: `(schedule, shard, boundary)`.
pub type Trial = (usize, usize, u64);

/// Stratified selection of about `target` trials: every `stride`-th
/// boundary of each class on each shard of each schedule, plus each
/// class's last, with the stride set from the boundary total. Sorted by
/// the rehearsal's crossing instant (ties by schedule, shard, boundary).
pub fn select(all: &[Rehearsed], target: u64) -> Vec<Trial> {
    let total: u64 = all
        .iter()
        .flat_map(|r| &r.boundaries)
        .map(|b| b.len() as u64)
        .sum();
    let stride = total.div_ceil(target.max(1)).max(1) as usize;
    let mut picked = Vec::new();
    for (sched, r) in all.iter().enumerate() {
        for (shard, points) in r.boundaries.iter().enumerate() {
            for kind in KINDS {
                let of_kind: Vec<&CrashPoint> = points.iter().filter(|p| p.kind == kind).collect();
                for (pos, p) in of_kind.iter().enumerate() {
                    if pos % stride == 0 || pos + 1 == of_kind.len() {
                        picked.push((p.at, sched, shard, p.index));
                    }
                }
            }
        }
    }
    picked.sort_unstable();
    picked
        .into_iter()
        .map(|(_, sched, shard, index)| (sched, shard, index))
        .collect()
}

/// What the timed trials measured.
#[derive(Debug, Clone, Default)]
pub struct Trials {
    /// Trials run.
    pub trials: u64,
    /// Trials that errored, did not cut, or left a dirty audit.
    pub failed: u64,
    /// Host time of each slice.
    pub slice_times: Vec<Duration>,
    /// Trials in each slice.
    pub slice_trials: Vec<u64>,
    /// Fold of every trial's read-back digest, in trial order.
    pub digest: u64,
    /// Failed checks, one line each.
    pub problems: Vec<String>,
}

impl Trials {
    /// Host time per trial of every non-empty slice, in microseconds.
    pub fn slice_us(&self) -> Vec<f64> {
        self.slice_times
            .iter()
            .zip(&self.slice_trials)
            .filter(|(_, &n)| n > 0)
            .map(|(t, &n)| t.as_secs_f64() * 1e6 / n as f64)
            .collect()
    }

    /// Fastest slice's host time per trial, in microseconds.
    pub fn host_us_per_op(&self) -> f64 {
        self.slice_us().into_iter().fold(f64::INFINITY, f64::min)
    }

    /// Mean host time per trial, in microseconds.
    pub fn host_us_per_op_mean(&self) -> f64 {
        let all: Duration = self.slice_times.iter().sum();
        all.as_secs_f64() * 1e6 / self.trials.max(1) as f64
    }
}

/// Runs the selected trials slice by slice.
pub fn run_trials(all: &[Rehearsed], picked: &[Trial]) -> Trials {
    let mut out = Trials {
        digest: 0xCBF2_9CE4_8422_2325,
        ..Trials::default()
    };
    for slice in 0..SLICES as usize {
        let t0 = Instant::now();
        let mut n = 0;
        for &(sched, shard, boundary) in picked.iter().skip(slice).step_by(SLICES as usize) {
            n += 1;
            let r = &all[sched];
            match r.sweep.run_trial(&r.ops, shard, boundary) {
                Ok(t) if t.fired && t.violations.is_empty() => {
                    out.digest = out.digest.wrapping_mul(0x100_0000_01B3) ^ t.digest;
                }
                Ok(t) if !t.fired => {
                    out.failed += 1;
                    out.problems.push(format!(
                        "schedule {sched} shard {shard} boundary {boundary}: cut never fired"
                    ));
                }
                Ok(t) => {
                    out.failed += 1;
                    out.problems.push(format!(
                        "schedule {sched} shard {shard} boundary {boundary}: {}",
                        t.violations[0]
                    ));
                }
                Err(e) => {
                    out.failed += 1;
                    out.problems.push(format!(
                        "schedule {sched} shard {shard} boundary {boundary}: {e}"
                    ));
                }
            }
        }
        out.slice_times.push(t0.elapsed());
        out.slice_trials.push(n);
        out.trials += n;
    }
    out
}

/// The simulated cost of the swept schedules themselves.
#[derive(Debug, Clone)]
pub struct ScheduleRun {
    /// Per-op simulated latency.
    pub latency: Histogram,
    /// Simulated time the schedules took, summed.
    pub elapsed: SimDuration,
    /// Ops run.
    pub ops: u64,
    /// Trace entries captured (with capture on).
    pub trace_entries: u64,
    /// Checker diagnostics over the captured traces.
    pub diagnostics: u64,
    /// Host time spent checking.
    pub check_host: Duration,
    /// First diagnostic, if any.
    pub problem: Option<String>,
}

/// Runs every schedule once, fault-free and uninstrumented, on the swept
/// configuration (4 channels, two cache slots per shard so every op
/// churns the cache, CRC scrub on), timing each op on the simulated
/// clock. With `capture`, every shard's bus trace is checked afterwards.
///
/// # Errors
///
/// Returns a description of the first device error.
pub fn run_schedules(all: &[Rehearsed], capture: bool) -> Result<ScheduleRun, String> {
    let mut run = ScheduleRun {
        latency: Histogram::new(),
        elapsed: SimDuration::ZERO,
        ops: 0,
        trace_entries: 0,
        diagnostics: 0,
        check_host: Duration::ZERO,
        problem: None,
    };
    for (j, r) in all.iter().enumerate() {
        let sw = &r.sweep;
        let mut shard = NvdimmCConfig::small_for_tests().with_refresh_mode(sw.refresh_mode);
        shard.cache_slots = 2;
        let mut sys = MultiChannelSystem::new(MultiChannelConfig::new(shard, sw.channels))
            .map_err(|e| format!("construct: {e}"))?;
        for s in sys.shards_mut() {
            s.enable_scrub();
        }
        if capture {
            sys.set_trace_capture(true);
        }
        let record = sw.sectors_per_record * PAGE_BYTES;
        let mut buf = vec![0u8; record as usize];
        let mut rng = DeterministicRng::new(sw.seed);
        let start = sys.now();
        for (i, &op) in r.ops.iter().enumerate() {
            let t0 = sys.now();
            let res = match op {
                CrashOp::Write(rec) => {
                    rng.fill_bytes(&mut buf);
                    sys.write_at(rec * record, &buf).map(|_| ())
                }
                CrashOp::Persist(rec) => sys.persist(rec * record, record),
                CrashOp::Read(rec) => sys.read_at(rec * record, &mut buf).map(|_| ()),
                CrashOp::Maintenance => {
                    for s in sys.shards_mut() {
                        s.scrub_step(2);
                        s.ftl_housekeeping();
                    }
                    Ok(())
                }
            };
            res.map_err(|e| format!("schedule {j} op {i} ({op:?}): {e}"))?;
            run.latency.record(sys.now().since(t0));
        }
        run.elapsed += sys.now().since(start);
        run.ops += r.ops.len() as u64;
        if capture {
            let t0 = Instant::now();
            for (i, (trace, s)) in sys.take_traces().iter().zip(sys.shards()).enumerate() {
                run.trace_entries += trace.len() as u64;
                let report = check_trace(trace, &s.config().timing);
                run.diagnostics += report.len() as u64;
                if let Some(d) = report.diagnostics().first() {
                    run.problem
                        .get_or_insert(format!("schedule {j} shard {i}: {d}"));
                }
            }
            run.check_host += t0.elapsed();
        }
    }
    Ok(run)
}
