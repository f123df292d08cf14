//! A host-timing wrapper around any [`QueuedDevice`].
//!
//! The executor serves every request through `serve_read`/`serve_write`,
//! so wrapping each shard times exactly the device-serve layer (the
//! shard's hit/miss path, the iMC and bus, the FPGA and NAND) from the
//! outside, with no change to the simulator. Every other trait method is
//! forwarded untouched: dropping one of the defaulted methods would fall
//! back to the trait's no-op and silently change what the device does
//! (`note_queue_depth` sizes per-bank refresh stretches).

use nvdimmc_core::{CoreError, QueuedDevice};
use nvdimmc_ddr::TraceEntry;
use nvdimmc_sim::{SimDuration, SimTime};
use std::time::{Duration, Instant};

/// Host time spent in one device's serve calls.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServeTimes {
    /// `serve_read` calls.
    pub reads: u64,
    /// `serve_write` calls.
    pub writes: u64,
    /// Host time inside `serve_read`.
    pub read_time: Duration,
    /// Host time inside `serve_write`.
    pub write_time: Duration,
}

impl ServeTimes {
    /// Adds another device's times into this one.
    pub fn merge(&mut self, other: &ServeTimes) {
        self.reads += other.reads;
        self.writes += other.writes;
        self.read_time += other.read_time;
        self.write_time += other.write_time;
    }

    /// Host time inside both serve calls.
    pub fn total(&self) -> Duration {
        self.read_time + self.write_time
    }
}

/// A borrowed device whose serve calls are timed on the host clock.
#[derive(Debug)]
pub struct Timed<'a, D> {
    inner: &'a mut D,
    times: ServeTimes,
}

impl<'a, D: QueuedDevice> Timed<'a, D> {
    /// Wraps `inner` with zeroed counters.
    pub fn new(inner: &'a mut D) -> Self {
        Timed {
            inner,
            times: ServeTimes::default(),
        }
    }

    /// Wraps every device of a shard slice, index for index.
    pub fn wrap_all(devices: &'a mut [D]) -> Vec<Self> {
        devices.iter_mut().map(Timed::new).collect()
    }

    /// The host time accumulated so far.
    pub fn times(&self) -> ServeTimes {
        self.times
    }
}

impl<D: QueuedDevice> QueuedDevice for Timed<'_, D> {
    fn capacity_bytes(&self) -> u64 {
        self.inner.capacity_bytes()
    }

    fn clock(&self) -> SimTime {
        self.inner.clock()
    }

    fn pre_cost(&self, len: u64, write: bool) -> SimDuration {
        self.inner.pre_cost(len, write)
    }

    fn copy_cost(&self, len: u64) -> SimDuration {
        self.inner.copy_cost(len)
    }

    fn serve_read(
        &mut self,
        not_before: SimTime,
        offset: u64,
        buf: &mut [u8],
    ) -> Result<SimTime, CoreError> {
        let t0 = Instant::now();
        let out = self.inner.serve_read(not_before, offset, buf);
        self.times.read_time += t0.elapsed();
        self.times.reads += 1;
        out
    }

    fn serve_write(
        &mut self,
        not_before: SimTime,
        offset: u64,
        data: &[u8],
    ) -> Result<SimTime, CoreError> {
        let t0 = Instant::now();
        let out = self.inner.serve_write(not_before, offset, data);
        self.times.write_time += t0.elapsed();
        self.times.writes += 1;
        out
    }

    fn drain_trace(&mut self) -> Vec<TraceEntry> {
        self.inner.drain_trace()
    }

    fn set_fill_priority(&mut self, prio: u8) {
        self.inner.set_fill_priority(prio);
    }

    fn note_queue_depth(&mut self, depth: usize) {
        self.inner.note_queue_depth(depth);
    }
}
