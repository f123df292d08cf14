//! Measurement primitives: latency histograms, bandwidth time series and
//! rate meters.
//!
//! Every experiment in the NVDIMM-C reproduction reports through these types
//! so that the figure harness can format results uniformly.

use crate::time::{SimDuration, SimTime};
use serde::{Deserialize, Serialize};

/// A log-linear latency histogram over [`SimDuration`] samples.
///
/// Buckets are arranged in powers of two of nanoseconds with
/// `SUB_BUCKETS` linear sub-buckets each, giving bounded relative error
/// (~3%) without unbounded memory — the same scheme HdrHistogram-style
/// recorders use.
///
/// # Example
///
/// ```
/// use nvdimmc_sim::{Histogram, SimDuration};
///
/// let mut h = Histogram::new();
/// for us in [1.0, 2.0, 3.0, 100.0] {
///     h.record(SimDuration::from_us(us));
/// }
/// assert_eq!(h.count(), 4);
/// assert!(h.percentile(50.0) <= h.percentile(99.0));
/// ```
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Histogram {
    // bucket index -> count
    buckets: Vec<u64>,
    count: u64,
    sum_ps: u128,
    min_ps: u64,
    max_ps: u64,
}

impl Histogram {
    const SUB_BUCKETS: u64 = 32;
    // 64 power-of-two tiers of nanoseconds covers < 1ns .. > 500 years.
    const TIERS: usize = 64;

    /// Creates an empty histogram.
    pub fn new() -> Self {
        Histogram {
            buckets: vec![0; Self::TIERS * Self::SUB_BUCKETS as usize],
            count: 0,
            sum_ps: 0,
            min_ps: u64::MAX,
            max_ps: 0,
        }
    }

    fn index_for(ps: u64) -> usize {
        // Work in units of 1/SUB_BUCKETS ns so sub-ns samples still resolve.
        let v = ps.max(1);
        let tier = 63 - v.leading_zeros() as usize; // floor(log2 v)
        let tier = tier.min(Self::TIERS - 1);
        let base = 1u64 << tier;
        let sub = ((v - base) * Self::SUB_BUCKETS / base).min(Self::SUB_BUCKETS - 1);
        tier * Self::SUB_BUCKETS as usize + sub as usize
    }

    fn bucket_low(idx: usize) -> u64 {
        let tier = idx / Self::SUB_BUCKETS as usize;
        let sub = (idx % Self::SUB_BUCKETS as usize) as u64;
        let base = 1u64 << tier;
        base + base * sub / Self::SUB_BUCKETS
    }

    /// Records one latency sample.
    pub fn record(&mut self, d: SimDuration) {
        let ps = d.as_ps();
        self.buckets[Self::index_for(ps)] += 1;
        self.count += 1;
        self.sum_ps += u128::from(ps);
        self.min_ps = self.min_ps.min(ps);
        self.max_ps = self.max_ps.max(ps);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Mean of all samples; zero if empty.
    pub fn mean(&self) -> SimDuration {
        if self.count == 0 {
            return SimDuration::ZERO;
        }
        SimDuration::from_ps((self.sum_ps / u128::from(self.count)) as u64)
    }

    /// Smallest recorded sample; zero if empty.
    pub fn min(&self) -> SimDuration {
        if self.count == 0 {
            SimDuration::ZERO
        } else {
            SimDuration::from_ps(self.min_ps)
        }
    }

    /// Largest recorded sample; zero if empty.
    pub fn max(&self) -> SimDuration {
        SimDuration::from_ps(self.max_ps)
    }

    /// Value at percentile `p` (0–100), approximated by bucket lower bound;
    /// zero if empty.
    ///
    /// # Panics
    ///
    /// Panics if `p` is not within `0.0..=100.0`.
    pub fn percentile(&self, p: f64) -> SimDuration {
        assert!((0.0..=100.0).contains(&p), "percentile must be in 0..=100");
        if self.count == 0 {
            return SimDuration::ZERO;
        }
        let target = ((p / 100.0) * self.count as f64).ceil().max(1.0) as u64;
        let mut seen = 0;
        for (idx, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= target {
                return SimDuration::from_ps(Self::bucket_low(idx).min(self.max_ps));
            }
        }
        self.max()
    }

    /// Merges another histogram into this one.
    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += b;
        }
        self.count += other.count;
        self.sum_ps += other.sum_ps;
        self.min_ps = self.min_ps.min(other.min_ps);
        self.max_ps = self.max_ps.max(other.max_ps);
    }
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

/// A bandwidth/throughput time series: bytes recorded into fixed-width time
/// bins, reported as MB/s per bin. Used to reproduce Figure 7's
/// throughput-over-time plot.
///
/// # Example
///
/// ```
/// use nvdimmc_sim::{SimDuration, SimTime, TimeSeries};
///
/// let mut ts = TimeSeries::new(SimDuration::from_secs_f64(1.0));
/// ts.record(SimTime::from_us(10), 1 << 20);
/// let bins = ts.bins_mb_per_s();
/// assert_eq!(bins.len(), 1);
/// ```
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TimeSeries {
    bin_width: SimDuration,
    bytes_per_bin: Vec<u64>,
}

impl TimeSeries {
    /// Creates a series with the given bin width.
    ///
    /// # Panics
    ///
    /// Panics if `bin_width` is zero.
    pub fn new(bin_width: SimDuration) -> Self {
        assert!(bin_width > SimDuration::ZERO, "bin width must be non-zero");
        TimeSeries {
            bin_width,
            bytes_per_bin: Vec::new(),
        }
    }

    /// Records `bytes` transferred at instant `at`.
    pub fn record(&mut self, at: SimTime, bytes: u64) {
        let bin = (at.as_ps() / self.bin_width.as_ps()) as usize;
        if bin >= self.bytes_per_bin.len() {
            self.bytes_per_bin.resize(bin + 1, 0);
        }
        self.bytes_per_bin[bin] += bytes;
    }

    /// The configured bin width.
    pub fn bin_width(&self) -> SimDuration {
        self.bin_width
    }

    /// Bytes recorded in each bin.
    pub fn bins_bytes(&self) -> &[u64] {
        &self.bytes_per_bin
    }

    /// Throughput per bin in MB/s (decimal megabytes, as the paper reports).
    pub fn bins_mb_per_s(&self) -> Vec<f64> {
        let secs = self.bin_width.as_secs_f64();
        self.bytes_per_bin
            .iter()
            .map(|&b| b as f64 / 1e6 / secs)
            .collect()
    }

    /// Total bytes recorded.
    pub fn total_bytes(&self) -> u64 {
        self.bytes_per_bin.iter().sum()
    }
}

/// Aggregates operation count and bytes over a measured interval and reports
/// IOPS and MB/s, the two metrics every figure in the paper uses.
///
/// # Example
///
/// ```
/// use nvdimmc_sim::{RateMeter, SimDuration};
///
/// let mut m = RateMeter::new();
/// m.record_op(4096);
/// m.record_op(4096);
/// m.finish(SimDuration::from_us(2.0));
/// assert!((m.kiops() - 1000.0).abs() < 1e-9);
/// ```
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct RateMeter {
    ops: u64,
    bytes: u64,
    elapsed: SimDuration,
}

impl RateMeter {
    /// Creates an empty meter.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one completed operation of `bytes` size.
    pub fn record_op(&mut self, bytes: u64) {
        self.ops += 1;
        self.bytes += bytes;
    }

    /// Sets the measured wall-clock (simulated) interval.
    pub fn finish(&mut self, elapsed: SimDuration) {
        self.elapsed = elapsed;
    }

    /// Completed operations.
    pub fn ops(&self) -> u64 {
        self.ops
    }

    /// Total bytes transferred.
    pub fn bytes(&self) -> u64 {
        self.bytes
    }

    /// The measured interval.
    pub fn elapsed(&self) -> SimDuration {
        self.elapsed
    }

    /// Throughput in thousands of I/O operations per second.
    pub fn kiops(&self) -> f64 {
        if self.elapsed == SimDuration::ZERO {
            return 0.0;
        }
        self.ops as f64 / self.elapsed.as_secs_f64() / 1e3
    }

    /// Bandwidth in decimal MB/s.
    pub fn mb_per_s(&self) -> f64 {
        if self.elapsed == SimDuration::ZERO {
            return 0.0;
        }
        self.bytes as f64 / 1e6 / self.elapsed.as_secs_f64()
    }

    /// Merges another meter measured over the *same* simulated interval
    /// (e.g. per-shard meters from a multi-channel run): ops and bytes
    /// accumulate, the elapsed interval is the longer of the two.
    pub fn merge(&mut self, other: &RateMeter) {
        self.ops += other.ops;
        self.bytes += other.bytes;
        self.elapsed = self.elapsed.max(other.elapsed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_mean_min_max() {
        let mut h = Histogram::new();
        h.record(SimDuration::from_us(1.0));
        h.record(SimDuration::from_us(3.0));
        assert_eq!(h.count(), 2);
        assert_eq!(h.mean(), SimDuration::from_us(2.0));
        assert_eq!(h.min(), SimDuration::from_us(1.0));
        assert_eq!(h.max(), SimDuration::from_us(3.0));
    }

    #[test]
    fn histogram_empty_is_zero() {
        let h = Histogram::new();
        assert_eq!(h.mean(), SimDuration::ZERO);
        assert_eq!(h.percentile(99.0), SimDuration::ZERO);
        assert_eq!(h.min(), SimDuration::ZERO);
    }

    #[test]
    fn histogram_percentile_bounded_error() {
        let mut h = Histogram::new();
        for i in 1..=1000u64 {
            h.record(SimDuration::from_ns(i));
        }
        let p50 = h.percentile(50.0).as_ns_f64();
        assert!((p50 - 500.0).abs() / 500.0 < 0.05, "p50 = {p50}");
        let p99 = h.percentile(99.0).as_ns_f64();
        assert!((p99 - 990.0).abs() / 990.0 < 0.05, "p99 = {p99}");
    }

    #[test]
    fn histogram_percentiles_monotone() {
        let mut h = Histogram::new();
        for i in [1u64, 10, 100, 1_000, 10_000, 100_000] {
            h.record(SimDuration::from_ns(i));
        }
        let mut last = SimDuration::ZERO;
        for p in [0.0, 10.0, 50.0, 90.0, 99.0, 100.0] {
            let v = h.percentile(p);
            assert!(v >= last, "percentile({p}) regressed");
            last = v;
        }
    }

    #[test]
    fn histogram_merge_combines() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        a.record(SimDuration::from_us(1.0));
        b.record(SimDuration::from_us(9.0));
        a.merge(&b);
        assert_eq!(a.count(), 2);
        assert_eq!(a.mean(), SimDuration::from_us(5.0));
        assert_eq!(a.max(), SimDuration::from_us(9.0));
    }

    #[test]
    #[should_panic(expected = "percentile")]
    fn histogram_percentile_range_checked() {
        Histogram::new().percentile(101.0);
    }

    #[test]
    fn timeseries_bins_bytes() {
        let mut ts = TimeSeries::new(SimDuration::from_us(10.0));
        ts.record(SimTime::from_us(1), 100);
        ts.record(SimTime::from_us(5), 100);
        ts.record(SimTime::from_us(15), 300);
        assert_eq!(ts.bins_bytes(), &[200, 300]);
        assert_eq!(ts.total_bytes(), 500);
    }

    #[test]
    fn timeseries_mb_per_s() {
        let mut ts = TimeSeries::new(SimDuration::from_secs_f64(1.0));
        ts.record(SimTime::from_us(500), 500_000_000);
        let mb = ts.bins_mb_per_s();
        assert!((mb[0] - 500.0).abs() < 1e-9);
    }

    #[test]
    fn rate_meter_reports_paper_units() {
        // 646 KIOPS of 4KB reads is 2646 MB/s-ish; check unit math.
        let mut m = RateMeter::new();
        for _ in 0..646 {
            m.record_op(4096);
        }
        m.finish(SimDuration::from_ms(1.0));
        assert!((m.kiops() - 646.0).abs() < 1e-9);
        assert!((m.mb_per_s() - 646.0 * 4096.0 / 1e3).abs() < 1e-6);
    }

    #[test]
    fn rate_meter_merge_aggregates_parallel_shards() {
        // Two shards moving 4KB ops over the same 1ms interval: aggregate
        // bandwidth doubles, the interval does not.
        let mut a = RateMeter::new();
        let mut b = RateMeter::new();
        for _ in 0..100 {
            a.record_op(4096);
            b.record_op(4096);
        }
        a.finish(SimDuration::from_ms(1.0));
        b.finish(SimDuration::from_ms(0.8));
        a.merge(&b);
        assert_eq!(a.ops(), 200);
        assert_eq!(a.elapsed(), SimDuration::from_ms(1.0));
        assert!((a.kiops() - 200.0).abs() < 1e-9);
    }

    #[test]
    fn rate_meter_zero_interval_is_zero() {
        let mut m = RateMeter::new();
        m.record_op(4096);
        assert_eq!(m.kiops(), 0.0);
        assert_eq!(m.mb_per_s(), 0.0);
    }
}
