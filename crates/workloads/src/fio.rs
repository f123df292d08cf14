//! A flexible-I/O-tester (fio) clone.
//!
//! The paper measures primitive latency/bandwidth with fio v3.10 using the
//! `libpmem` engine (§VI): fixed block size, random or sequential
//! addressing, one or more threads. This module reproduces the
//! single-thread harness over the [`BlockDevice`] trait; the multi-thread
//! Figure 9 sweeps are driven for real by
//! [`crate::concurrent::ConcurrentFio`], which fans the same job out over
//! the executor's per-shard rings from one closed loop per simulated
//! thread.

use nvdimmc_core::{BlockDevice, CoreError};
use nvdimmc_sim::{DeterministicRng, Histogram, RateMeter, SimDuration, Zipf};
use serde::{Deserialize, Serialize};

/// Access pattern.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum RwMode {
    /// Uniform-random reads.
    RandRead,
    /// Uniform-random writes.
    RandWrite,
    /// Mixed random with the given read fraction.
    RandRw {
        /// Fraction of reads in `[0, 1]`.
        read_fraction: f64,
    },
    /// Sequential reads.
    SeqRead,
    /// Sequential writes.
    SeqWrite,
}

/// One fio job description.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FioJob {
    /// Access pattern.
    pub mode: RwMode,
    /// Block size per I/O.
    pub block_size: u64,
    /// Region of the device the job touches, starting at `offset`.
    pub span: u64,
    /// Base offset of the region.
    pub offset: u64,
    /// Number of operations to issue.
    pub ops: u64,
    /// RNG seed.
    pub seed: u64,
    /// Optional Zipfian skew over 4 KB pages (None = uniform).
    pub zipf_theta: Option<f64>,
}

impl FioJob {
    /// A 4 KB random-read job over `span` bytes — the paper's workhorse.
    pub fn rand_read_4k(span: u64, ops: u64) -> Self {
        FioJob {
            mode: RwMode::RandRead,
            block_size: 4096,
            span,
            offset: 0,
            ops,
            seed: 42,
            zipf_theta: None,
        }
    }

    /// A 4 KB random-write job.
    pub fn rand_write_4k(span: u64, ops: u64) -> Self {
        FioJob {
            mode: RwMode::RandWrite,
            ..Self::rand_read_4k(span, ops)
        }
    }

    /// Runs the job against `dev`.
    ///
    /// # Errors
    ///
    /// Propagates device errors.
    pub fn run(&self, dev: &mut impl BlockDevice) -> Result<FioReport, CoreError> {
        assert!(self.block_size > 0, "block size must be positive");
        assert!(
            self.span >= self.block_size,
            "span must hold at least one block"
        );
        let mut rng = DeterministicRng::new(self.seed);
        let zipf = self
            .zipf_theta
            .map(|theta| Zipf::new((self.span / self.block_size).max(1), theta));
        let mut meter = RateMeter::new();
        let mut read_lat = Histogram::new();
        let mut write_lat = Histogram::new();
        let mut buf = vec![0u8; self.block_size as usize];
        let t0 = dev.now();
        let blocks = self.span / self.block_size;
        for i in 0..self.ops {
            let block = match self.mode {
                RwMode::SeqRead | RwMode::SeqWrite => i % blocks,
                _ => match &zipf {
                    Some(z) => z.sample(&mut rng),
                    None => rng.gen_range(0..blocks),
                },
            };
            let off = self.offset + block * self.block_size;
            let is_read = match self.mode {
                RwMode::RandRead | RwMode::SeqRead => true,
                RwMode::RandWrite | RwMode::SeqWrite => false,
                RwMode::RandRw { read_fraction } => rng.gen_bool(read_fraction),
            };
            let lat = if is_read {
                dev.read_at(off, &mut buf)?
            } else {
                rng.fill_bytes(&mut buf);
                dev.write_at(off, &buf)?
            };
            if is_read {
                read_lat.record(lat);
            } else {
                write_lat.record(lat);
            }
            meter.record_op(self.block_size);
        }
        meter.finish(dev.now().since(t0));
        Ok(FioReport {
            job: *self,
            meter,
            read_latency: read_lat,
            write_latency: write_lat,
        })
    }
}

/// Results of one fio job.
#[derive(Debug, Clone)]
pub struct FioReport {
    /// The job that produced this report.
    pub job: FioJob,
    meter: RateMeter,
    /// Read latency distribution.
    pub read_latency: Histogram,
    /// Write latency distribution.
    pub write_latency: Histogram,
}

impl FioReport {
    /// Thousands of I/O operations per second.
    pub fn kiops(&self) -> f64 {
        self.meter.kiops()
    }

    /// Bandwidth in MB/s (decimal, as the paper reports).
    pub fn mb_per_s(&self) -> f64 {
        self.meter.mb_per_s()
    }

    /// Mean per-op latency.
    pub fn mean_latency(&self) -> SimDuration {
        let total = self.read_latency.count() + self.write_latency.count();
        if total == 0 {
            return SimDuration::ZERO;
        }
        let mut merged = self.read_latency.clone();
        merged.merge(&self.write_latency);
        merged.mean()
    }

    /// Total elapsed simulated time.
    pub fn elapsed(&self) -> SimDuration {
        self.meter.elapsed()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nvdimmc_core::{EmulatedPmem, NvdimmCConfig, PerfParams, System};
    use nvdimmc_ddr::{SpeedBin, TimingParams};

    fn pmem() -> EmulatedPmem {
        EmulatedPmem::new(
            64 << 20,
            TimingParams::nvdimmc_poc(SpeedBin::Ddr4_1600),
            PerfParams::poc(),
        )
        .unwrap()
    }

    #[test]
    fn baseline_4k_read_matches_paper() {
        // Paper Fig. 8: baseline 646 KIOPS / 2606 MB/s (1 thread).
        let mut dev = pmem();
        let report = FioJob::rand_read_4k(32 << 20, 2_000).run(&mut dev).unwrap();
        let kiops = report.kiops();
        assert!(
            (560.0..740.0).contains(&kiops),
            "baseline 4K randread = {kiops:.0} KIOPS"
        );
    }

    #[test]
    fn baseline_4k_write_matches_paper() {
        // Paper Fig. 8: baseline 576 KIOPS / 2360 MB/s.
        let mut dev = pmem();
        let report = FioJob::rand_write_4k(32 << 20, 2_000)
            .run(&mut dev)
            .unwrap();
        let kiops = report.kiops();
        assert!(
            (500.0..660.0).contains(&kiops),
            "baseline 4K randwrite = {kiops:.0} KIOPS"
        );
    }

    #[test]
    fn nvdc_cached_4k_read_matches_paper() {
        // Paper Fig. 8: NVDC-Cached 448 KIOPS / 1835 MB/s.
        let mut sys = System::new(NvdimmCConfig::small_for_tests()).unwrap();
        let span = 4u64 << 20; // fits in the 12 MB cache
        for page in 0..span / 4096 {
            sys.prefault(page).unwrap();
        }
        let report = FioJob::rand_read_4k(span, 1_000).run(&mut sys).unwrap();
        let kiops = report.kiops();
        assert!(
            (380.0..520.0).contains(&kiops),
            "cached 4K randread = {kiops:.0} KIOPS"
        );
    }

    #[test]
    fn mixed_mode_issues_both_kinds() {
        let mut dev = pmem();
        let job = FioJob {
            mode: RwMode::RandRw { read_fraction: 0.5 },
            ..FioJob::rand_read_4k(8 << 20, 400)
        };
        let report = job.run(&mut dev).unwrap();
        assert!(report.read_latency.count() > 100);
        assert!(report.write_latency.count() > 100);
    }

    #[test]
    fn sequential_mode_wraps_span() {
        let mut dev = pmem();
        let job = FioJob {
            mode: RwMode::SeqRead,
            span: 16 * 4096,
            ..FioJob::rand_read_4k(16 * 4096, 64)
        };
        let report = job.run(&mut dev).unwrap();
        assert_eq!(report.read_latency.count(), 64);
    }

    #[test]
    fn zipf_mode_skews_hits() {
        let mut sys = System::new(NvdimmCConfig::small_for_tests()).unwrap();
        let job = FioJob {
            zipf_theta: Some(0.99),
            span: 24 << 20, // exceeds the 12 MB cache
            ..FioJob::rand_read_4k(24 << 20, 4_000)
        };
        job.run(&mut sys).unwrap();
        let hr = sys.cache_stats().hit_rate();
        assert!(hr > 0.5, "hot pages should mostly hit: {hr:.3}");
    }

    #[test]
    fn report_units_consistent() {
        let mut dev = pmem();
        let report = FioJob::rand_read_4k(8 << 20, 500).run(&mut dev).unwrap();
        let expect_mb = report.kiops() * 1e3 * 4096.0 / 1e6;
        assert!((report.mb_per_s() - expect_mb).abs() < 1e-6);
    }
}
