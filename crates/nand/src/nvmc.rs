//! The NAND side of the NVM controller (NVMC).
//!
//! Wraps the [`Ftl`] with the controller behaviours that shape the paper's
//! measured service times:
//!
//! - a bounded SRAM **write buffer** that acknowledges programs as soon as
//!   the page is transferred into the controller — this is how a ~100 µs
//!   Z-NAND tPROG hides behind the ~70 µs Uncached writeback+cachefill
//!   latency the paper reports;
//! - **read-after-write** service from that buffer;
//! - per-channel/die parallelism inherited from the media model.

use crate::error::NandError;
use crate::ftl::{Ftl, FtlConfig, FtlStats};
use crate::page::PageBuf;
use nvdimmc_sim::{SimDuration, SimTime};
use serde::{Deserialize, Serialize};
use std::collections::{BinaryHeap, HashMap};

/// NVMC configuration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct NvmcConfig {
    /// FTL / media configuration.
    pub ftl: FtlConfig,
    /// Pages the controller write buffer can hold before acknowledgements
    /// stall on programs.
    pub buffer_pages: usize,
    /// Time to land one page in the buffer (DMA into controller SRAM).
    pub buffer_latency: SimDuration,
}

impl NvmcConfig {
    /// The paper's PoC controller.
    pub fn znand_poc() -> Self {
        NvmcConfig {
            ftl: FtlConfig::znand_poc(),
            buffer_pages: 16,
            buffer_latency: SimDuration::from_us(1.0),
        }
    }

    /// Figure-scale media.
    pub fn medium() -> Self {
        NvmcConfig {
            ftl: FtlConfig::medium(),
            ..Self::znand_poc()
        }
    }

    /// Small media for fast tests.
    pub fn small_for_tests() -> Self {
        NvmcConfig {
            ftl: FtlConfig::small_for_tests(),
            buffer_pages: 16,
            buffer_latency: SimDuration::from_us(1.0),
        }
    }
}

/// NVMC counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct NvmcStats {
    /// Page reads served (from media or buffer).
    pub reads: u64,
    /// Reads served straight from the write buffer.
    pub buffer_hits: u64,
    /// Page writes accepted.
    pub writes: u64,
    /// Writes whose acknowledgement stalled on a full buffer.
    pub buffer_stalls: u64,
}

/// The NVM controller: FTL + write buffer + service-time accounting.
///
/// # Example
///
/// ```
/// use nvdimmc_nand::{Nvmc, NvmcConfig};
/// use nvdimmc_sim::SimTime;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut nvmc = Nvmc::new(NvmcConfig::small_for_tests())?;
/// let ack = nvmc.write_page(0, vec![1u8; 4096], SimTime::ZERO)?;
/// // The ack arrives long before the ~100us program completes:
/// assert!(ack < SimTime::from_us(50));
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct Nvmc {
    ftl: Ftl,
    buffer_pages: usize,
    buffer_latency: SimDuration,
    /// Program completion times of in-flight buffered writes (min-heap).
    inflight: BinaryHeap<std::cmp::Reverse<SimTime>>,
    /// Buffered page contents for read-after-write service, sharing the
    /// stored copies' buffers.
    buffered: HashMap<u64, (PageBuf, SimTime)>,
    stats: NvmcStats,
}

impl Nvmc {
    /// Creates a controller over pristine media.
    ///
    /// # Errors
    ///
    /// Currently infallible; the `Result` reserves room for configuration
    /// validation.
    pub fn new(cfg: NvmcConfig) -> Result<Self, NandError> {
        Ok(Nvmc {
            ftl: Ftl::new(cfg.ftl),
            buffer_pages: cfg.buffer_pages.max(1),
            buffer_latency: cfg.buffer_latency,
            inflight: BinaryHeap::new(),
            buffered: HashMap::new(),
            stats: NvmcStats::default(),
        })
    }

    /// Controller counters.
    pub fn stats(&self) -> NvmcStats {
        self.stats
    }

    /// FTL counters.
    pub fn ftl_stats(&self) -> FtlStats {
        self.ftl.stats()
    }

    /// The FTL (wear inspection, test hooks).
    pub fn ftl(&self) -> &Ftl {
        &self.ftl
    }

    /// Mutable FTL access (test hooks).
    pub fn ftl_mut(&mut self) -> &mut Ftl {
        &mut self.ftl
    }

    /// Exported capacity in bytes (the paper exports 120 GB).
    pub fn export_bytes(&self) -> u64 {
        self.ftl.export_bytes()
    }

    /// Exported capacity in 4 KB pages.
    pub fn export_pages(&self) -> u64 {
        self.ftl.export_pages()
    }

    /// Models a power-cut-and-reboot in place. The SRAM write buffer is
    /// timing-only in this model: [`Nvmc::write_page`] lands the data in
    /// the FTL synchronously and the buffer entries only shape
    /// acknowledgement and read-after-write timing. So the reboot empties
    /// the buffer and the in-flight programs with no data loss, and the
    /// media's die clocks reset with the new boot's timing domain (see
    /// [`crate::ZNandArray::power_cycle`]). The firmware keeps its mapping
    /// tables in battery-backed SRAM and journals them to NAND on power
    /// loss (paper §III-A), so the FTL map, block states and free pool
    /// persist, as do the cells and every counter.
    pub fn power_cycle(&mut self) {
        self.inflight.clear();
        self.buffered.clear();
        self.ftl.media_mut().power_cycle();
    }

    fn prune(&mut self, now: SimTime) {
        while let Some(&std::cmp::Reverse(t)) = self.inflight.peek() {
            if t <= now {
                self.inflight.pop();
            } else {
                break;
            }
        }
        self.buffered.retain(|_, (_, done)| *done > now);
    }

    /// Whether `lpn` holds data (in media or the write buffer).
    pub fn is_mapped(&self, lpn: u64) -> bool {
        self.buffered.contains_key(&lpn) || self.ftl.is_mapped(lpn)
    }

    /// Reads logical page `lpn`; returns the data, by reference, and its
    /// ready time.
    ///
    /// # Errors
    ///
    /// Propagates FTL/media errors.
    pub fn read_page(&mut self, lpn: u64, at: SimTime) -> Result<(PageBuf, SimTime), NandError> {
        self.prune(at);
        self.stats.reads += 1;
        if let Some((data, _)) = self.buffered.get(&lpn) {
            self.stats.buffer_hits += 1;
            return Ok((data.clone(), at + self.buffer_latency));
        }
        self.ftl.read(lpn, at)
    }

    /// Writes logical page `lpn`; returns the **acknowledgement** time —
    /// when the page is safely in the controller buffer — which precedes
    /// the physical program completion unless the buffer is full. The
    /// page buffer becomes the stored copy: the codec appends its parity
    /// and CRC in place.
    ///
    /// # Errors
    ///
    /// Propagates FTL/media errors.
    pub fn write_page(
        &mut self,
        lpn: u64,
        data: Vec<u8>,
        at: SimTime,
    ) -> Result<SimTime, NandError> {
        self.prune(at);
        let (page, program_done) = self.ftl.write(lpn, data, at)?;
        self.inflight.push(std::cmp::Reverse(program_done));
        self.buffered.insert(lpn, (page, program_done));
        self.stats.writes += 1;
        let mut ack = at + self.buffer_latency;
        // Backpressure: with more in-flight programs than buffer slots, the
        // ack waits until enough of the oldest complete.
        while self.inflight.len() > self.buffer_pages {
            let Some(std::cmp::Reverse(t)) = self.inflight.pop() else {
                break;
            };
            ack = ack.max(t);
            self.stats.buffer_stalls += 1;
        }
        Ok(ack)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn nvmc() -> Nvmc {
        let mut n = Nvmc::new(NvmcConfig::small_for_tests()).unwrap();
        n.ftl_mut().media_mut().set_ber_per_read(0.0);
        n
    }

    fn page(fill: u8) -> Vec<u8> {
        vec![fill; 4096]
    }

    #[test]
    fn ack_precedes_program_completion() {
        let mut n = nvmc();
        let ack = n.write_page(0, page(1), SimTime::ZERO).unwrap();
        // Buffer latency 1us; program is 100us + transfer.
        assert!(ack <= SimTime::from_us(2));
    }

    #[test]
    fn read_after_write_served_from_buffer() {
        let mut n = nvmc();
        let ack = n.write_page(4, page(0x55), SimTime::ZERO).unwrap();
        let (data, ready) = n.read_page(4, ack).unwrap();
        assert_eq!(data, page(0x55));
        assert!(ready <= ack + SimDuration::from_us(1.5));
        assert_eq!(n.stats().buffer_hits, 1);
        // Buffer and media hand out the one stored buffer, uncopied.
        let late = ack + SimDuration::from_ms(10.0);
        let (media, _) = n.read_page(4, late).unwrap();
        assert_eq!(n.stats().buffer_hits, 1, "served from media");
        assert!(media.same_bytes(&data));
    }

    #[test]
    fn buffer_backpressure_stalls_acks() {
        let mut n = nvmc();
        let mut t = SimTime::ZERO;
        let mut stalled = false;
        // Slam writes at time zero; with 16 slots and ~100us programs on 2
        // dies, acks must eventually wait.
        for i in 0..64u64 {
            let ack = n.write_page(i, page(i as u8), t).unwrap();
            if ack.since(t) > SimDuration::from_us(10.0) {
                stalled = true;
            }
            t = t.max(SimTime::ZERO); // issue all at ~0
        }
        assert!(stalled, "write buffer never exerted backpressure");
        assert!(n.stats().buffer_stalls > 0);
    }

    #[test]
    fn read_latency_is_znand_class() {
        let mut n = nvmc();
        let ack = n.write_page(7, page(9), SimTime::ZERO).unwrap();
        // Move past buffering so the read hits media.
        let late = ack + SimDuration::from_ms(10.0);
        let (data, ready) = n.read_page(7, late).unwrap();
        assert_eq!(data, page(9));
        // tR 3us + PoC transfer 8us = 11us.
        assert_eq!(ready.since(late), SimDuration::from_us(11.0));
        assert_eq!(n.stats().buffer_hits, 0, "served from media");
    }

    #[test]
    fn data_integrity_across_buffer_and_media() {
        let mut n = nvmc();
        let mut t = SimTime::ZERO;
        for i in 0..100u64 {
            t = n.write_page(i % 10, page((i % 256) as u8), t).unwrap();
        }
        // Drain everything, then verify the final values.
        let late = t + SimDuration::from_ms(50.0);
        for lpn in 0..10u64 {
            let expect = ((90 + lpn) % 256) as u8;
            let (data, _) = n.read_page(lpn, late).unwrap();
            assert_eq!(data, page(expect), "lpn {lpn}");
        }
    }

    #[test]
    fn power_cycle_drops_buffer_but_keeps_data() {
        let mut n = nvmc();
        let ack = n.write_page(3, page(0x77), SimTime::ZERO).unwrap();
        // Fill the buffer with programs still in flight at `ack`.
        for lpn in 10..26u64 {
            n.write_page(lpn, page(lpn as u8), ack).unwrap();
        }
        assert!(n.stats().buffer_stalls > 0);
        let stats = n.stats();
        n.power_cycle();
        assert_eq!(n.stats(), stats, "counters kept");
        // The acknowledged write survives the reboot — from media, not
        // the (now empty) buffer — and the first read of the new boot,
        // at t = 0, takes tR + xfer = 11 us.
        let (data, ready) = n.read_page(3, SimTime::ZERO).unwrap();
        assert_eq!(data, page(0x77));
        assert_eq!(ready, SimTime::from_us(11));
        assert_eq!(n.stats().buffer_hits, 0, "buffer emptied by the reboot");
        // No program of the old boot is in flight: a write at t = 0 is
        // acked after the buffer latency alone.
        let ack = n.write_page(4, page(0x66), SimTime::ZERO).unwrap();
        assert_eq!(ack, SimTime::from_us(1));
    }

    #[test]
    fn export_capacity_fraction() {
        let n = nvmc();
        let raw = n.ftl().media().geometry().raw_bytes();
        assert_eq!(n.export_bytes(), (raw as f64 * 0.75) as u64);
    }
}
