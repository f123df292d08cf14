//! The comparison device: Linux's emulated persistent memory
//! (`/dev/pmem0`, paper §VI).
//!
//! A DRAM-backed region exposed through the same XFS-DAX mount as
//! NVDIMM-C. It "actually does not guarantee the persistency property" —
//! it is a ramdisk — so it serves as the performance upper bound in every
//! figure. Table I gives it the same stretched tRFC (1250 ns) as the
//! NVDIMM-C channel.

use crate::config::PAGE_BYTES;
use crate::error::{check_range, CoreError};
use crate::perf::PerfParams;
use crate::shard::{BlockDevice, Io, QueuedDevice};
use nvdimmc_ddr::{DramDevice, Imc, ImcConfig, SharedBus, TimingParams};
use nvdimmc_sim::{SimDuration, SimTime};

/// Statistics for the baseline device.
#[derive(Debug, Clone, Default)]
pub struct BaselineStats {
    /// Read operations.
    pub reads: u64,
    /// Write operations.
    pub writes: u64,
}

/// The emulated-NVDIMM baseline.
///
/// # Example
///
/// ```
/// use nvdimmc_core::{BlockDevice, EmulatedPmem, PerfParams};
/// use nvdimmc_ddr::{SpeedBin, TimingParams};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let timing = TimingParams::nvdimmc_poc(SpeedBin::Ddr4_1600);
/// let mut pmem = EmulatedPmem::new(64 << 20, timing, PerfParams::poc())?;
/// pmem.write_at(4096, &[1u8; 4096])?;
/// let mut buf = [0u8; 4096];
/// pmem.read_at(4096, &mut buf)?;
/// assert_eq!(buf[0], 1);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct EmulatedPmem {
    bus: SharedBus,
    imc: Imc,
    perf: PerfParams,
    capacity: u64,
    clock: SimTime,
    stats: BaselineStats,
}

impl EmulatedPmem {
    /// Creates a pmem region of `capacity` bytes.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Config`] if `capacity` is zero.
    pub fn new(capacity: u64, timing: TimingParams, perf: PerfParams) -> Result<Self, CoreError> {
        if capacity == 0 {
            return Err(CoreError::Config("pmem capacity must be positive".into()));
        }
        let stripe = 8 * 1024 * 16;
        let dram = capacity.div_ceil(stripe) * stripe;
        let device = DramDevice::new(timing, dram);
        Ok(EmulatedPmem {
            bus: SharedBus::new(device),
            imc: Imc::new(ImcConfig::from_timing(&timing)),
            perf,
            capacity,
            clock: SimTime::ZERO,
            stats: BaselineStats::default(),
        })
    }

    /// Statistics.
    pub fn stats(&self) -> &BaselineStats {
        &self.stats
    }

    /// Per-op fixed software cost. Sub-page ops skip nothing on the
    /// baseline: the block-layer-ish fixed cost applies regardless of
    /// size.
    fn sw_cost(&self, write: bool) -> SimDuration {
        let mut c = self.perf.fio_base_op;
        if write {
            c += self.perf.fio_write_extra;
        }
        c
    }

    /// The one op body behind [`BlockDevice::read_at`],
    /// [`BlockDevice::write_at`], [`QueuedDevice::serve_read`] and
    /// [`QueuedDevice::serve_write`]; returns the completion instant.
    ///
    /// `not_before` is `None` for a blocking call, which charges the
    /// software cost and then runs the idle branch. A queued request
    /// arriving at `not_before` runs the idle branch when the device is
    /// free by then, and the contended branch otherwise.
    fn serve(
        &mut self,
        not_before: Option<SimTime>,
        offset: u64,
        io: Io<'_>,
    ) -> Result<SimTime, CoreError> {
        let len = io.len() as u64;
        if len == 0 {
            return Ok(not_before.map_or(self.clock, |t| self.clock.max(t)));
        }
        check_range(offset, len, self.capacity)?;
        let write = io.is_write();
        let idle = match not_before {
            None => {
                self.clock += self.sw_cost(write);
                true
            }
            Some(t) if self.clock <= t => {
                // Idle at arrival: lock-step with the issuing thread's
                // copy, exactly like the blocking path.
                self.clock = t;
                true
            }
            // Contended: the copy overlaps other requests' transfers; the
            // device holds only the raw (tCCD-pipelined) bus occupancy.
            Some(_) => false,
        };
        let start = self.clock;
        let pace = if idle {
            self.perf.copy_time(64)
        } else {
            SimDuration::ZERO
        };
        let end = match io {
            Io::Read(buf) => self
                .imc
                .read_bytes_paced(&mut self.bus, start, offset, buf, pace)?,
            Io::Write(data) => {
                self.imc
                    .write_bytes_paced(&mut self.bus, start, offset, data, pace)?
            }
        };
        self.clock = if idle {
            end.max(start + self.perf.copy_time(len))
        } else {
            end
        };
        if write {
            self.stats.writes += 1;
        } else {
            self.stats.reads += 1;
        }
        Ok(self.clock)
    }
}

impl BlockDevice for EmulatedPmem {
    fn capacity_bytes(&self) -> u64 {
        self.capacity
    }

    fn now(&self) -> SimTime {
        self.clock
    }

    fn advance(&mut self, d: SimDuration) {
        self.clock += d;
    }

    fn read_at(&mut self, offset: u64, buf: &mut [u8]) -> Result<SimDuration, CoreError> {
        let t0 = self.clock;
        Ok(self.serve(None, offset, Io::Read(buf))?.since(t0))
    }

    fn write_at(&mut self, offset: u64, data: &[u8]) -> Result<SimDuration, CoreError> {
        let t0 = self.clock;
        Ok(self.serve(None, offset, Io::Write(data))?.since(t0))
    }
}

impl QueuedDevice for EmulatedPmem {
    fn capacity_bytes(&self) -> u64 {
        self.capacity
    }

    fn clock(&self) -> SimTime {
        self.clock
    }

    fn pre_cost(&self, _len: u64, write: bool) -> SimDuration {
        self.sw_cost(write)
    }

    fn copy_cost(&self, len: u64) -> SimDuration {
        self.perf.copy_time(len)
    }

    fn serve_read(
        &mut self,
        not_before: SimTime,
        offset: u64,
        buf: &mut [u8],
    ) -> Result<SimTime, CoreError> {
        self.serve(Some(not_before), offset, Io::Read(buf))
    }

    fn serve_write(
        &mut self,
        not_before: SimTime,
        offset: u64,
        data: &[u8],
    ) -> Result<SimTime, CoreError> {
        self.serve(Some(not_before), offset, Io::Write(data))
    }
}

// `PAGE_BYTES` is re-used by callers sizing baseline experiments.
const _: () = assert!(PAGE_BYTES == 4096);
