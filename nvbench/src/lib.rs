//! End-to-end and per-layer benchmark of the NVDIMM-C simulator.
//!
//! Four named workloads run from one process through public APIs only:
//! `MultiChannelSystem`, `ConcurrentFio::run_executor`, `CrashSweep` and
//! `nvdimmc_check`. An untraced run prints the end-to-end metrics; a
//! traced run repeats the timed phase with every shard wrapped in a
//! host-timing [`timing::Timed`] device and bus-trace capture on, checks
//! the traces, and prints the per-layer metrics. The traced pass must
//! reproduce the untraced pass's simulated metrics and counts bit for
//! bit, or the run is reported incorrect.
//!
//! Every figure is either simulated time (deterministic for a seed) or
//! host time (measured on the machine running the benchmark).

pub mod crash;
pub mod fio;
pub mod layers;
pub mod timing;

use fio::{FioSpec, Phase};
use layers::Counts;
use nvdimmc_ddr::RefreshMode;
use nvdimmc_sim::Histogram;
use nvdimmc_workloads::RwMode;
use std::hash::{DefaultHasher, Hash, Hasher};
use std::time::{Duration, Instant};

/// Set-ups per run; `setup_s` is their median and the last one is timed.
pub const SETUPS: usize = 5;

/// The benchmark's named workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The paper's Cached path: 16 channels, uniform 4 KB reads that all
    /// hit the DRAM cache.
    CachedRead,
    /// The paper's Uncached path: 4 channels, 70/30 read/write over a
    /// span 16× the shrunken DRAM cache.
    UncachedRw,
    /// Per-bank refresh under a Zipf 70/30 mix with hits and misses.
    PerbankMixed,
    /// Stratified power-cut trials over a 4-channel crash schedule.
    CrashSweep,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 4] = [
        Workload::CachedRead,
        Workload::UncachedRw,
        Workload::PerbankMixed,
        Workload::CrashSweep,
    ];

    /// The command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::CachedRead => "cached-read",
            Workload::UncachedRw => "uncached-rw",
            Workload::PerbankMixed => "perbank-mixed",
            Workload::CrashSweep => "crash-sweep",
        }
    }

    /// Parses a command-line name.
    pub fn from_name(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The fio shape, for the three fio workloads.
    pub fn fio_spec(self) -> Option<FioSpec> {
        let cached = FioSpec {
            channels: 16,
            threads: 64,
            refresh: RefreshMode::RankLevel,
            cache_slots: None,
            span_per_channel: 4 << 20,
            mode: RwMode::RandRead,
            zipf: None,
            ops_per_second: 45_000,
        };
        match self {
            Workload::CachedRead => Some(cached),
            Workload::UncachedRw => Some(FioSpec {
                channels: 4,
                threads: 16,
                cache_slots: Some(64),
                span_per_channel: 4 << 20,
                mode: RwMode::RandRw { read_fraction: 0.7 },
                ops_per_second: 14_000,
                ..cached
            }),
            Workload::PerbankMixed => Some(FioSpec {
                channels: 2,
                threads: 16,
                refresh: RefreshMode::PerBank,
                cache_slots: Some(512),
                span_per_channel: 4 << 20,
                mode: RwMode::RandRw { read_fraction: 0.7 },
                zipf: Some(0.99),
                ops_per_second: 4_000,
            }),
            Workload::CrashSweep => None,
        }
    }
}

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name, as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// The measured value.
    pub value: f64,
    /// Its unit.
    pub unit: &'static str,
}

/// The result of one benchmark run.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Every correctness check passed.
    pub correct: bool,
    /// Ops attempted in the timed phase (crash trials for `crash-sweep`).
    pub attempted: u64,
    /// Ops that failed.
    pub failed: u64,
    /// End-to-end metrics (untraced) or per-layer metrics (traced).
    pub metrics: Vec<Metric>,
    /// Latency samples behind `sim_p50_us` and `sim_p99_us`.
    pub samples: u64,
    /// Digest of every simulated metric and per-layer count: equal for
    /// equal seeds, in both modes.
    pub sim_digest: u64,
    /// Failed checks, one line each.
    pub problems: Vec<String>,
    /// Host microseconds per op of every slice of the timed phase.
    pub slice_us: Vec<f64>,
}

fn digest(parts: impl Hash) -> u64 {
    let mut h = DefaultHasher::new();
    parts.hash(&mut h);
    h.finish()
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(f64::total_cmp);
    v[v.len() / 2]
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Peak resident set of this process in MB, from `VmHWM`.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Percentile `p` (0–100) of `h` in microseconds, interpolated inside
/// its bucket by the rank's position among the bucket's samples.
/// `Histogram::percentile` answers with the bucket's lower bound, so every
/// run whose percentile lands in the same 1/32-octave bucket would read
/// the same; interpolation is the usual estimate from bucket counts.
fn percentile_us(h: &Histogram, p: f64) -> f64 {
    let n = h.count();
    if n == 0 {
        return 0.0;
    }
    // Bucket lower bound of the sample with 1-based rank `r`.
    let at = |r: u64| h.percentile((r as f64 - 0.5) / n as f64 * 100.0).as_ps();
    let rank = (p / 100.0 * n as f64).ceil().clamp(1.0, n as f64) as u64;
    let lo = at(rank);
    let (mut first, mut upper) = (1, rank);
    while first < upper {
        let mid = (first + upper) / 2;
        if at(mid) < lo {
            first = mid + 1;
        } else {
            upper = mid;
        }
    }
    let (mut last, mut lower) = (n, rank);
    while lower < last {
        let mid = (lower + last).div_ceil(2);
        if at(mid) > lo {
            last = mid - 1;
        } else {
            lower = mid;
        }
    }
    // The histogram splits each power-of-two of picoseconds into 32 buckets.
    let width = (1u64 << lo.max(1).ilog2()) / 32;
    let hi = (lo + width).min(h.max().as_ps()).max(lo);
    let frac = ((rank - first) as f64 + 0.5) / (last - first + 1) as f64;
    (lo as f64 + frac * (hi - lo) as f64) / 1e6
}

/// The simulated results of a run: what must repeat exactly.
#[derive(Debug, Clone, PartialEq)]
struct Sim {
    kiops: f64,
    p50_us: f64,
    p99_us: f64,
    samples: u64,
}

impl Sim {
    fn of(lat: &Histogram, ops: u64, elapsed_s: f64) -> Self {
        Sim {
            kiops: if elapsed_s > 0.0 {
                ops as f64 / elapsed_s / 1e3
            } else {
                0.0
            },
            p50_us: percentile_us(lat, 50.0),
            p99_us: percentile_us(lat, 99.0),
            samples: lat.count(),
        }
    }

    fn digest_with(&self, rest: impl Hash) -> u64 {
        digest((
            self.kiops.to_bits(),
            self.p50_us.to_bits(),
            self.p99_us.to_bits(),
            self.samples,
            rest,
        ))
    }

    fn end_to_end(&self, host_us_per_op: f64, setup_s: f64) -> Vec<Metric> {
        vec![
            Metric {
                name: "sim_kiops",
                value: self.kiops,
                unit: "kIOPS",
            },
            Metric {
                name: "sim_p50_us",
                value: self.p50_us,
                unit: "us",
            },
            Metric {
                name: "sim_p99_us",
                value: self.p99_us,
                unit: "us",
            },
            Metric {
                name: "host_us_per_op",
                value: host_us_per_op,
                unit: "us",
            },
            Metric {
                name: "setup_s",
                value: setup_s,
                unit: "s",
            },
            Metric {
                name: "peak_rss_mb",
                value: peak_rss_mb(),
                unit: "MB",
            },
        ]
    }
}

/// Per-layer values a workload does not exercise default to zero, so a
/// traced run of any workload prints the same metric list.
#[derive(Debug, Clone, Default)]
struct Layers {
    counts: Counts,
    ops: u64,
    failed: u64,
    samples: u64,
    driver_host: Duration,
    serve_read_us: f64,
    serve_write_us: f64,
    serve_calls: u64,
    exec_dmas: u64,
    exec_coalesced: u64,
    exec_rejected: u64,
    exec_util: f64,
    construct: Duration,
    precondition: Duration,
    check_host: Duration,
    check_entries: u64,
    check_diagnostics: u64,
    rehearse: Duration,
    trial_us: f64,
    trials: u64,
    boundaries: [u64; 4],
    host_us_per_op_mean: f64,
    overhead_frac: f64,
}

impl Layers {
    fn metrics(&self) -> Vec<Metric> {
        let c = &self.counts;
        let m = |name, value, unit| Metric { name, value, unit };
        let n = |name, value: u64| Metric {
            name,
            value: value as f64,
            unit: "count",
        };
        vec![
            m("driver.host_ms", ms(self.driver_host), "ms"),
            m("shard.serve_read.host_us", self.serve_read_us, "us"),
            m("shard.serve_write.host_us", self.serve_write_us, "us"),
            n("shard.serve.calls", self.serve_calls),
            m(
                "ddr.host_cmds_per_op",
                ratio(c.host_cmds, self.ops),
                "count/op",
            ),
            n("ddr.refreshes", c.refreshes),
            n("ddr.refreshes_elided", c.refreshes_elided),
            m(
                "ddr.row_hit_ratio",
                ratio(c.row_hits, c.row_hits + c.row_misses),
                "ratio",
            ),
            m(
                "ddr.refresh_stall_us",
                c.refresh_stall_ps as f64 / 1e6,
                "us",
            ),
            n("ddr.violations_rejected", c.violations_rejected),
            n("cache.hits", c.cache_hits),
            n("cache.misses", c.cache_misses),
            m(
                "cache.hit_rate",
                ratio(c.cache_hits, c.cache_hits + c.cache_misses),
                "ratio",
            ),
            n("cache.evictions", c.evictions),
            n("cache.dirty_evictions", c.dirty_evictions),
            n("fpga.windows_seen", c.windows_seen),
            n("fpga.windows_used", c.windows_used),
            m(
                "fpga.window_use_ratio",
                ratio(c.windows_used, c.windows_seen),
                "ratio",
            ),
            n("fpga.windows_skipped_busy", c.windows_skipped_busy),
            n("fpga.windows_wrong_bank", c.windows_wrong_bank),
            n("fpga.cachefills", c.cachefills),
            n("fpga.writebacks", c.writebacks),
            m("fpga.dma_bytes", c.dma_bytes as f64, "bytes"),
            n("refresh.detections", c.detections),
            n("refresh.pb_detections", c.pb_detections),
            n("exec.dmas", self.exec_dmas),
            n("exec.coalesced_reqs", self.exec_coalesced),
            n("exec.rejected_ring_full", self.exec_rejected),
            m("exec.util_mean", self.exec_util, "ratio"),
            n("nand.reads", c.nand_reads),
            n("nand.writes", c.nand_writes),
            n("nand.buffer_stalls", c.buffer_stalls),
            n("ftl.gc_moved_pages", c.gc_moved_pages),
            m(
                "ftl.write_amp",
                if c.ftl_host_writes == 0 {
                    1.0
                } else {
                    ratio(c.ftl_host_writes + c.gc_moved_pages, c.ftl_host_writes)
                },
                "ratio",
            ),
            n("ftl.words_corrected", c.words_corrected),
            m("setup.construct_ms", ms(self.construct), "ms"),
            m("setup.precondition_ms", ms(self.precondition), "ms"),
            m("check.trace.host_ms", ms(self.check_host), "ms"),
            n("check.trace.entries", self.check_entries),
            n("check.diagnostics", self.check_diagnostics),
            m("crashsweep.rehearse_ms", ms(self.rehearse), "ms"),
            m("crashsweep.trial.host_us", self.trial_us, "us"),
            n("crashsweep.trials", self.trials),
            n("crashsweep.boundaries.bus_op", self.boundaries[0]),
            n("crashsweep.boundaries.cp_window", self.boundaries[1]),
            n("crashsweep.boundaries.nvmc_burst", self.boundaries[2]),
            n("crashsweep.boundaries.maintenance", self.boundaries[3]),
            n("sim.latency_samples", self.samples),
            m("failed_op_frac", ratio(self.failed, self.ops), "ratio"),
            m("host_us_per_op_mean", self.host_us_per_op_mean, "us"),
            m("trace.overhead_frac", self.overhead_frac, "ratio"),
        ]
    }
}

/// Runs one workload. `seconds` scales the fixed op budget of the timed
/// phase; `trace` selects the per-layer report.
pub fn run(workload: Workload, seed: u64, seconds: u64, trace: bool) -> Outcome {
    match workload.fio_spec() {
        Some(spec) => run_fio(workload, &spec, seed, seconds, trace),
        None => run_crash(seed, seconds, trace),
    }
}

fn fail(problems: Vec<String>) -> Outcome {
    Outcome {
        correct: false,
        attempted: 1,
        failed: 1,
        metrics: Vec::new(),
        samples: 0,
        sim_digest: 0,
        problems,
        slice_us: Vec::new(),
    }
}

fn phase_sim(p: &Phase) -> Sim {
    Sim::of(&p.latency(), p.ops, p.sim_elapsed.as_secs_f64())
}

fn phase_digest(p: &Phase) -> u64 {
    let e = &p.exec;
    phase_sim(p).digest_with((
        p.counts,
        (
            e.dmas,
            e.coalesced_reqs,
            e.rejected_ring_full,
            e.busy.as_ps(),
        ),
        p.data_digest,
    ))
}

fn run_fio(workload: Workload, spec: &FioSpec, seed: u64, seconds: u64, trace: bool) -> Outcome {
    let mut setup_times = Vec::with_capacity(SETUPS);
    let mut prepared = None;
    for _ in 0..SETUPS {
        // Drop the previous system first so set-ups never overlap in memory.
        drop(prepared.take());
        let t0 = Instant::now();
        match fio::prepare(spec, seed, false) {
            Ok(p) => prepared = Some(p),
            Err(e) => return fail(vec![e]),
        }
        setup_times.push(t0.elapsed().as_secs_f64());
    }
    let Some(mut prep) = prepared else {
        return fail(vec!["no set-up ran".into()]);
    };
    let plain = fio::timed_phase(spec, &mut prep.sys, seed, seconds, false);
    let mut problems = plain.problems.clone();
    if workload == Workload::CachedRead {
        match fio::readback(spec, &mut prep.sys, seed) {
            Ok(0) => {}
            Ok(bad) => problems.push(format!("{bad} set-up pages read back changed")),
            Err(e) => problems.push(e),
        }
    }
    let sim = phase_sim(&plain);
    let sim_digest = phase_digest(&plain);
    let mut out = Outcome {
        correct: false,
        attempted: plain.ops,
        failed: plain.failed,
        metrics: Vec::new(),
        samples: sim.samples,
        sim_digest,
        problems,
        slice_us: plain.slice_us(),
    };
    if !trace {
        out.metrics = sim.end_to_end(plain.host_us_per_op(), median(setup_times));
        out.correct = out.problems.is_empty() && out.failed == 0;
        return out;
    }
    let (construct, precondition) = (prep.construct, prep.precondition);
    drop(prep);
    let mut traced_sys = match fio::prepare(spec, seed, true) {
        Ok(p) => p.sys,
        Err(e) => return fail(vec![e]),
    };
    let traced = fio::timed_phase(spec, &mut traced_sys, seed, seconds, true);
    out.problems.extend(traced.problems.iter().cloned());
    if phase_digest(&traced) != sim_digest {
        out.problems
            .push("traced run diverged from the untraced run's simulated results".into());
    }
    let serve = traced.serve;
    let per_call = |t: Duration, n: u64| {
        if n == 0 {
            0.0
        } else {
            t.as_secs_f64() * 1e6 / n as f64
        }
    };
    let layers = Layers {
        counts: traced.counts,
        ops: traced.ops,
        failed: traced.failed,
        samples: sim.samples,
        // One pool worker serves inline, so serve time nests inside the
        // executor's wall time.
        driver_host: traced.exec_wall.saturating_sub(serve.total()),
        serve_read_us: per_call(serve.read_time, serve.reads),
        serve_write_us: per_call(serve.write_time, serve.writes),
        serve_calls: serve.reads + serve.writes,
        exec_dmas: traced.exec.dmas,
        exec_coalesced: traced.exec.coalesced_reqs,
        exec_rejected: traced.exec.rejected_ring_full,
        exec_util: traced.exec.busy.as_secs_f64()
            / (traced.sim_elapsed.as_secs_f64() * f64::from(spec.channels)),
        construct,
        precondition,
        check_host: traced.check.host,
        check_entries: traced.check.entries,
        check_diagnostics: traced.check.diagnostics,
        host_us_per_op_mean: traced.host_us_per_op_mean(),
        overhead_frac: traced.host_us_per_op_mean() / plain.host_us_per_op_mean() - 1.0,
        ..Layers::default()
    };
    out.attempted += traced.ops;
    out.failed += traced.failed;
    out.metrics = layers.metrics();
    out.correct = out.problems.is_empty() && out.failed == 0;
    out
}

fn run_crash(seed: u64, seconds: u64, trace: bool) -> Outcome {
    let mut setup_times = Vec::with_capacity(SETUPS);
    let mut rehearsed = Vec::new();
    for _ in 0..SETUPS {
        let t0 = Instant::now();
        match crash::rehearse(seed) {
            Ok(r) => rehearsed = r,
            Err(e) => return fail(vec![e]),
        }
        setup_times.push(t0.elapsed().as_secs_f64());
    }
    let picked = crash::select(&rehearsed, crash::TRIALS_PER_SECOND * seconds);
    let trials = crash::run_trials(&rehearsed, &picked);
    let t0 = Instant::now();
    let schedules = match crash::run_schedules(&rehearsed, false) {
        Ok(s) => s,
        Err(e) => return fail(vec![e]),
    };
    let schedules_host = t0.elapsed();
    let sim = Sim::of(
        &schedules.latency,
        schedules.ops,
        schedules.elapsed.as_secs_f64(),
    );
    let kinds = crash::per_kind(&rehearsed);
    let sim_digest = sim.digest_with((kinds, trials.trials, trials.digest));
    let mut out = Outcome {
        correct: false,
        attempted: trials.trials,
        failed: trials.failed,
        metrics: Vec::new(),
        samples: sim.samples,
        sim_digest,
        problems: trials.problems.clone(),
        slice_us: trials.slice_us(),
    };
    if !trace {
        out.metrics = sim.end_to_end(trials.host_us_per_op(), median(setup_times));
        out.correct = out.problems.is_empty() && out.failed == 0;
        return out;
    }
    let t0 = Instant::now();
    let checked = match crash::run_schedules(&rehearsed, true) {
        Ok(s) => s,
        Err(e) => return fail(vec![e]),
    };
    let checked_host = t0.elapsed().saturating_sub(checked.check_host);
    if Sim::of(&checked.latency, checked.ops, checked.elapsed.as_secs_f64()) != sim {
        out.problems
            .push("traced schedules diverged from the untraced schedules".into());
    }
    out.problems.extend(checked.problem.iter().cloned());
    let rehearse = Duration::from_secs_f64(median(setup_times));
    let layers = Layers {
        ops: trials.trials,
        failed: trials.failed,
        samples: sim.samples,
        precondition: rehearse,
        check_host: checked.check_host,
        check_entries: checked.trace_entries,
        check_diagnostics: checked.diagnostics,
        rehearse,
        trial_us: trials.host_us_per_op_mean(),
        trials: trials.trials,
        boundaries: kinds,
        host_us_per_op_mean: trials.host_us_per_op_mean(),
        overhead_frac: checked_host.as_secs_f64() / schedules_host.as_secs_f64() - 1.0,
        ..Layers::default()
    };
    out.metrics = layers.metrics();
    out.correct = out.problems.is_empty() && out.failed == 0;
    out
}

/// Renders the last line of the output: one JSON object with the keys
/// `correct`, `attempted`, `failed` and `metrics`.
pub fn json_line(out: &Outcome) -> String {
    let metrics: Vec<String> = out
        .metrics
        .iter()
        .map(|m| {
            let v = if m.value.is_finite() { m.value } else { 0.0 };
            format!(
                "\"{}\": {{\"value\": {v:?}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.correct,
        out.attempted,
        out.failed,
        metrics.join(", ")
    )
}
