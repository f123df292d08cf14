//! The simple file-copy workload (paper §VII-B1, Figure 7).
//!
//! Copies a large file from a rate-capped source (the PM863 SATA SSD of
//! Table I, ~520 MB/s sequential read) onto the device, recording
//! bandwidth over time. While free cache slots last, throughput is
//! SSD-bound (the paper's 518 MB/s); once the cache fills, every 4 KB
//! write needs a writeback+cachefill pair and throughput collapses (the
//! paper's 68 MB/s).

use nvdimmc_core::{BlockDevice, CoreError};
use nvdimmc_sim::{DeterministicRng, SimDuration, TimeSeries};
use serde::{Deserialize, Serialize};

/// File-copy job description.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FileCopy {
    /// Bytes to copy (paper: 20 GB).
    pub file_bytes: u64,
    /// Copy chunk (one write syscall worth).
    pub chunk_bytes: u64,
    /// Source sequential-read bandwidth in bytes/s (paper: 520 MB/s SSD).
    pub source_bytes_per_s: f64,
    /// Time-series bin width for the throughput plot.
    pub bin: SimDuration,
    /// Seed for the payload bytes.
    pub seed: u64,
}

impl FileCopy {
    /// Runs the copy onto `dev`, verifying the copied bytes afterwards on
    /// a sample of chunks.
    ///
    /// # Errors
    ///
    /// Propagates device errors.
    pub fn run(&self, dev: &mut impl BlockDevice) -> Result<CopyReport, CoreError> {
        assert!(self.chunk_bytes > 0, "chunk must be positive");
        let mut rng = DeterministicRng::new(self.seed);
        let mut series = TimeSeries::new(self.bin);
        let mut chunk = vec![0u8; self.chunk_bytes as usize];
        let t0 = dev.now();
        let mut off = 0u64;
        while off < self.file_bytes {
            let n = self.chunk_bytes.min(self.file_bytes - off) as usize;
            rng.fill_bytes(&mut chunk[..n]);
            // Source read overlaps the device write; the slower side wins.
            let src_time = SimDuration::from_secs_f64(n as f64 / self.source_bytes_per_s);
            let dev_time = dev.write_at(off, &chunk[..n])?;
            if src_time > dev_time {
                dev.advance(src_time - dev_time);
            }
            series.record(dev.now(), n as u64);
            off += n as u64;
        }
        let elapsed = dev.now().since(t0);
        // Spot-verify a sample of chunks (the payload is regenerable from
        // the seed).
        let mut verify_rng = DeterministicRng::new(self.seed);
        let mut expected = vec![0u8; self.chunk_bytes as usize];
        let mut actual = vec![0u8; self.chunk_bytes as usize];
        let total_chunks = self.file_bytes.div_ceil(self.chunk_bytes);
        let mut corrupted = 0u64;
        for ci in 0..total_chunks {
            let coff = ci * self.chunk_bytes;
            let n = self.chunk_bytes.min(self.file_bytes - coff) as usize;
            verify_rng.fill_bytes(&mut expected[..n]);
            // Verify roughly every 16th chunk to bound runtime.
            if ci % 16 == 0 {
                dev.read_at(coff, &mut actual[..n])?;
                if actual[..n] != expected[..n] {
                    corrupted += 1;
                }
            }
        }
        Ok(CopyReport {
            series,
            elapsed,
            bytes: self.file_bytes,
            corrupted_chunks: corrupted,
        })
    }
}

/// Results of a file copy.
#[derive(Debug, Clone)]
pub struct CopyReport {
    /// Throughput over time (MB/s per bin) — the Figure 7 series.
    pub series: TimeSeries,
    /// Total copy time.
    pub elapsed: SimDuration,
    /// Bytes copied.
    pub bytes: u64,
    /// Verified chunks that mismatched (must be zero).
    pub corrupted_chunks: u64,
}

impl CopyReport {
    /// Mean throughput in MB/s.
    pub fn mean_mb_per_s(&self) -> f64 {
        self.bytes as f64 / 1e6 / self.elapsed.as_secs_f64()
    }

    /// Peak bin throughput in MB/s.
    pub fn peak_mb_per_s(&self) -> f64 {
        self.series.bins_mb_per_s().into_iter().fold(0.0, f64::max)
    }

    /// Throughput of the final bin (the sustained, cache-full regime).
    pub fn tail_mb_per_s(&self) -> f64 {
        let bins = self.series.bins_mb_per_s();
        // Skip a possibly short last bin.
        if bins.len() >= 2 {
            bins[bins.len() - 2]
        } else {
            bins.last().copied().unwrap_or(0.0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nvdimmc_core::{EmulatedPmem, NvdimmCConfig, PerfParams, System};
    use nvdimmc_ddr::{SpeedBin, TimingParams};

    #[test]
    fn pmem_copy_is_source_bound() {
        let mut dev = EmulatedPmem::new(
            64 << 20,
            TimingParams::nvdimmc_poc(SpeedBin::Ddr4_1600),
            PerfParams::poc(),
        )
        .unwrap();
        let job = FileCopy {
            file_bytes: 16 << 20,
            chunk_bytes: 64 << 10,
            source_bytes_per_s: 520e6,
            bin: SimDuration::from_ms(10.0),
            seed: 1,
        };
        let report = job.run(&mut dev).unwrap();
        let mean = report.mean_mb_per_s();
        assert!(
            (430.0..525.0).contains(&mean),
            "pmem copy = {mean:.0} MB/s (SSD-bound ~520)"
        );
        assert_eq!(report.corrupted_chunks, 0);
    }

    #[test]
    fn nvdimmc_copy_collapses_past_cache_boundary() {
        // Scaled Figure 7: cache 4 MB, file 12 MB. Cached phase near SSD
        // speed, sustained tail an order of magnitude lower.
        let mut cfg = NvdimmCConfig::small_for_tests();
        cfg.cache_slots = (4 << 20) / 4096;
        let mut sys = System::new(cfg).unwrap();
        let job = FileCopy {
            file_bytes: 12 << 20,
            chunk_bytes: 64 << 10,
            source_bytes_per_s: 520e6,
            bin: SimDuration::from_ms(2.0),
            seed: 2,
        };
        let report = job.run(&mut sys).unwrap();
        assert_eq!(report.corrupted_chunks, 0, "copy corrupted data");
        let peak = report.peak_mb_per_s();
        let tail = report.tail_mb_per_s();
        assert!(peak > 300.0, "cached-phase peak = {peak:.0} MB/s");
        assert!(
            tail < peak / 4.0,
            "no collapse: peak {peak:.0} vs tail {tail:.0} MB/s"
        );
    }
}
