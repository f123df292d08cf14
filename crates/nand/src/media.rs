//! The raw Z-NAND array.
//!
//! Models the physical constraints the FTL exists to hide: erase-before-
//! program, sequential page programming within a block, per-die busy times
//! (Z-NAND reads are ~3 µs but programs are ~100 µs and erases ~1 ms),
//! wear accumulation, wear-dependent bit errors, and end-of-life block
//! failure.

use crate::error::NandError;
use crate::geometry::{NandGeometry, PhysPage};
use crate::page::PageBuf;
use nvdimmc_sim::{DeterministicRng, SimDuration, SimTime};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// NAND operation latencies.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct NandTiming {
    /// Array read time (tR). Z-NAND's headline feature: ~3 µs.
    pub read: SimDuration,
    /// Page program time (tPROG), ~100 µs for SLC Z-NAND.
    pub program: SimDuration,
    /// Block erase time (tBERS), ~1 ms.
    pub erase: SimDuration,
    /// Channel transfer time for one stored page. The paper's PoC clocks
    /// the NAND PHY at 50 MHz — "a tenfold of the maximum operating
    /// frequency supported by the Z-NAND devices" slower — so this is
    /// configurable (PoC ≈ 8 µs, ASIC-class ≈ 1 µs).
    pub xfer: SimDuration,
}

impl NandTiming {
    /// Z-NAND behind the PoC's 50 MHz FPGA PHY.
    pub fn znand_poc() -> Self {
        NandTiming {
            read: SimDuration::from_us(3.0),
            program: SimDuration::from_us(100.0),
            erase: SimDuration::from_ms(1.0),
            xfer: SimDuration::from_us(8.0),
        }
    }
}

/// Media counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct MediaStats {
    /// Page reads served.
    pub reads: u64,
    /// Pages programmed.
    pub programs: u64,
    /// Blocks erased.
    pub erases: u64,
    /// Bit flips injected (wear model).
    pub bitflips_injected: u64,
    /// Reads that preempted (suspended) an in-flight program/erase.
    pub reads_suspending: u64,
    /// Program/erase operations that failed and marked a block bad.
    pub failures: u64,
    /// Forced-uncorrectable faults fired by the injection hook
    /// ([`ZNandArray::arm_uncorrectable`]).
    pub uncorrectable_injected: u64,
}

/// One stored page and its decode mark.
#[derive(Debug, Clone)]
struct Stored {
    bytes: PageBuf,
    /// This exact copy decodes clean with no word corrected (set by
    /// [`ZNandArray::mark_verified`]). Every path that changes or drops
    /// the bytes replaces the whole entry, so the mark cannot outlive
    /// the bytes it vouches for.
    verified: bool,
}

/// One page read, as [`ZNandArray::read`] returns it.
#[derive(Debug, Clone)]
pub struct MediaRead {
    /// The bytes read: the stored copy itself, shared, unless this read
    /// injected an error.
    pub bytes: PageBuf,
    /// Completion instant (tR + transfer).
    pub done: SimTime,
    /// No bit flip or forced fault hit this read, so `bytes` is the
    /// stored copy as it is.
    pub intact: bool,
    /// The stored copy carries the decode mark (see
    /// [`ZNandArray::mark_verified`]). With `intact`, decoding `bytes`
    /// would return its data prefix with zero corrections.
    pub verified: bool,
}

#[derive(Debug, Clone)]
struct BlockMeta {
    erase_count: u32,
    /// Next programmable page (sequential-programming pointer). Pages
    /// below this are programmed.
    next_page: u32,
    bad: bool,
}

/// The Z-NAND array: all channels/dies/planes/blocks.
///
/// Stores real bytes (sparsely) so data survives end-to-end through the
/// FTL and the NVDIMM-C cache above it. Only live pages keep their bytes:
/// the FTL [`discard`](ZNandArray::discard)s a page's payload when it
/// invalidates the page, so host memory follows the mapped data rather
/// than the write history. Real NAND keeps a stale page's cells until
/// its block's erase, but nothing reads them again, so dropping them
/// early changes no result.
///
/// Each stored page carries a decode mark ([`ZNandArray::mark_verified`]):
/// decoding this exact copy gives its data prefix with no word
/// corrected. The FTL decodes a page read only when the copy is unmarked
/// or the read injected a bit flip or a forced fault ([`MediaRead`]). It
/// marks every copy it programs, since it programs only codec output,
/// and a copy that decodes clean on an intact read. `program`, `erase`,
/// `discard`, a persistent forced fault and the `corrupt` hook each
/// replace or drop the whole entry, mark included, so the codec runs on
/// every read whose bytes differ from a marked copy.
#[derive(Debug)]
pub struct ZNandArray {
    geo: NandGeometry,
    timing: NandTiming,
    blocks: Vec<BlockMeta>,
    data: HashMap<u64, Stored>,
    die_busy: Vec<SimTime>,
    rng: DeterministicRng,
    /// Probability of one injected bit flip per page read at zero wear;
    /// scales linearly up to 100× at the endurance limit.
    ber_per_read: f64,
    /// Erase-count endurance limit; beyond it erases may brick the block.
    endurance: u32,
    /// Armed forced-uncorrectable faults: `(remaining, persistent)`. Each
    /// fault fires on one subsequent page read, flipping two bits inside a
    /// single 64-bit data word — exactly the pattern SEC-DED detects but
    /// cannot correct.
    forced_transient: u32,
    forced_persistent: u32,
    stats: MediaStats,
}

impl ZNandArray {
    /// Creates a pristine array.
    pub fn new(geo: NandGeometry, timing: NandTiming, seed: u64) -> Self {
        let nblocks = geo.total_blocks() as usize;
        let ndies = (geo.channels * geo.dies_per_channel) as usize;
        ZNandArray {
            geo,
            timing,
            blocks: vec![
                BlockMeta {
                    erase_count: 0,
                    next_page: 0,
                    bad: false,
                };
                nblocks
            ],
            data: HashMap::new(),
            die_busy: vec![SimTime::ZERO; ndies],
            rng: DeterministicRng::new(seed),
            ber_per_read: 1e-4,
            endurance: 50_000,
            forced_transient: 0,
            forced_persistent: 0,
            stats: MediaStats::default(),
        }
    }

    /// Models a reboot of the device: the per-die busy clocks reset to
    /// zero because the new boot starts a fresh timing domain. Cells,
    /// wear, bad-block marks, armed faults, counters and the error-model
    /// RNG stream are persistent and stay as they are.
    pub fn power_cycle(&mut self) {
        self.die_busy.fill(SimTime::ZERO);
    }

    /// Arms one forced-uncorrectable fault: the next page read returns
    /// data with two bits flipped inside one 64-bit word of the data
    /// region, which SEC-DED detects but cannot correct. A `persistent`
    /// fault also damages the stored copy, so re-reads keep failing; a
    /// transient fault corrupts only the returned copy, so a re-read (the
    /// read-retry ladder) can succeed.
    pub fn arm_uncorrectable(&mut self, persistent: bool) {
        if persistent {
            self.forced_persistent += 1;
        } else {
            self.forced_transient += 1;
        }
    }

    /// Forced-uncorrectable faults armed but not yet fired.
    pub fn armed_uncorrectable(&self) -> u32 {
        self.forced_transient + self.forced_persistent
    }

    /// Sets the base bit-error rate per page read (testing hook).
    pub fn set_ber_per_read(&mut self, p: f64) {
        assert!((0.0..=1.0).contains(&p), "probability must be in 0..=1");
        self.ber_per_read = p;
    }

    /// The geometry.
    pub fn geometry(&self) -> &NandGeometry {
        &self.geo
    }

    /// The timing parameters.
    pub fn timing(&self) -> &NandTiming {
        &self.timing
    }

    /// Counters.
    pub fn stats(&self) -> MediaStats {
        self.stats
    }

    /// The error-model RNG as it stands, for tests that compare streams.
    pub fn rng(&self) -> &DeterministicRng {
        &self.rng
    }

    /// Erase count of `block`.
    pub fn erase_count(&self, block: u64) -> u32 {
        self.blocks[block as usize].erase_count
    }

    /// Whether `block` is marked bad.
    pub fn is_bad(&self, block: u64) -> bool {
        self.blocks[block as usize].bad
    }

    /// Next programmable page index in `block`.
    pub fn write_pointer(&self, block: u64) -> u32 {
        self.blocks[block as usize].next_page
    }

    /// 64-bit words in the data region of a stored page. For codec-shaped
    /// pages (`data + data/8 parity + 4 CRC`) this excludes the parity and
    /// CRC tail; for raw test pages it falls back to the whole buffer.
    fn data_words(stored_len: usize) -> u64 {
        let len = stored_len as u64;
        if len > 4 && (len - 4).is_multiple_of(9) {
            (len - 4) * 8 / 9 / 8
        } else {
            (len / 8).max(1)
        }
    }

    fn die_index(&self, block: u64) -> usize {
        let (ch, die, _, _) = self.geo.split_block(block);
        (ch * self.geo.dies_per_channel + die) as usize
    }

    fn check(&self, p: PhysPage) -> Result<(), NandError> {
        if p.block >= self.geo.total_blocks() || p.page >= self.geo.pages_per_block {
            return Err(NandError::AddressOutOfRange { page: p });
        }
        if self.blocks[p.block as usize].bad {
            return Err(NandError::BadBlock { page: p });
        }
        Ok(())
    }

    fn occupy_die(&mut self, block: u64, at: SimTime, dur: SimDuration) -> SimTime {
        let die = self.die_index(block);
        let start = self.die_busy[die].max(at);
        let done = start + dur;
        self.die_busy[die] = done;
        done
    }

    /// When the die owning `block` becomes free.
    pub fn die_free_at(&self, block: u64) -> SimTime {
        self.die_busy[self.die_index(block)]
    }

    /// Reads a stored page: the bytes as read, whether this read injected
    /// an error, whether the stored copy is marked, and the completion
    /// instant (tR + transfer; see below).
    ///
    /// # Errors
    ///
    /// Fails for out-of-range/bad-block addresses or unprogrammed pages.
    pub fn read(&mut self, p: PhysPage, at: SimTime) -> Result<MediaRead, NandError> {
        self.check(p)?;
        let meta = &self.blocks[p.block as usize];
        if p.page >= meta.next_page {
            return Err(NandError::ReadUnwritten { page: p });
        }
        let wear_scale = 1.0 + 99.0 * f64::from(meta.erase_count) / f64::from(self.endurance);
        let flip = self.rng.gen_bool((self.ber_per_read * wear_scale).min(1.0));
        let idx = p.flat_index(&self.geo);
        // `next_page` said the page is programmed; a missing backing
        // entry means it was discarded as stale — surface, don't panic.
        let Some(stored) = self.data.get(&idx) else {
            return Err(NandError::ReadUnwritten { page: p });
        };
        let mut bytes = stored.bytes.clone();
        let verified = stored.verified;
        let mut intact = true;
        if flip {
            let bit = self.rng.gen_range(0..(bytes.len() as u64 * 8));
            bytes = flip_bits(&bytes, &[bit]);
            intact = false;
            self.stats.bitflips_injected += 1;
        }
        if (self.forced_transient > 0 || self.forced_persistent > 0) && bytes.len() >= 8 {
            let persistent = self.forced_transient == 0;
            if persistent {
                self.forced_persistent -= 1;
            } else {
                self.forced_transient -= 1;
            }
            // Two flips inside one 64-bit word of the data region: SEC-DED
            // sees a double error it can detect but not correct.
            let data_words = Self::data_words(bytes.len());
            let wi = self.rng.gen_range(0..data_words);
            let b1 = self.rng.gen_range(0..64);
            let b2 = (b1 + 1 + self.rng.gen_range(0..63)) % 64;
            bytes = flip_bits(&bytes, &[wi * 64 + b1, wi * 64 + b2]);
            intact = false;
            if persistent {
                self.data.insert(
                    idx,
                    Stored {
                        bytes: bytes.clone(),
                        verified: false,
                    },
                );
            }
            self.stats.uncorrectable_injected += 1;
        }
        // Z-NAND supports program/erase suspend: reads preempt queued
        // programs instead of waiting out their ~100 us tPROG. The die's
        // program backlog is unaffected (suspend-resume), so reads see
        // only tR + transfer.
        let die = self.die_index(p.block);
        if self.die_busy[die] > at {
            self.stats.reads_suspending += 1;
        }
        let done = at + self.timing.read + self.timing.xfer;
        self.stats.reads += 1;
        Ok(MediaRead {
            bytes,
            done,
            intact,
            verified,
        })
    }

    /// Marks the stored copy of `p` as one that decodes clean with no word
    /// corrected, if `bytes` is that copy itself (the same buffer, as
    /// `program` took it or an intact [`MediaRead`] returned it);
    /// otherwise does nothing. The FTL calls this after programming codec
    /// output and after a clean decode of an intact read.
    pub fn mark_verified(&mut self, p: PhysPage, bytes: &PageBuf) {
        if let Some(stored) = self.data.get_mut(&p.flat_index(&self.geo)) {
            if stored.bytes.same_bytes(bytes) {
                stored.verified = true;
            }
        }
    }

    /// Programs a page. NAND constraints: the block's pages must be
    /// programmed in order, each exactly once between erases.
    ///
    /// # Errors
    ///
    /// Fails for bad blocks, reprogramming, or out-of-order programming.
    pub fn program(
        &mut self,
        p: PhysPage,
        stored: PageBuf,
        at: SimTime,
    ) -> Result<SimTime, NandError> {
        self.check(p)?;
        let meta = &mut self.blocks[p.block as usize];
        if p.page < meta.next_page {
            return Err(NandError::ProgramWithoutErase { page: p });
        }
        if p.page > meta.next_page {
            return Err(NandError::NonSequentialProgram {
                page: p,
                expected_page: meta.next_page,
            });
        }
        meta.next_page += 1;
        let idx = p.flat_index(&self.geo);
        self.data.insert(
            idx,
            Stored {
                bytes: stored,
                verified: false,
            },
        );
        let done = self.occupy_die(p.block, at, self.timing.xfer + self.timing.program);
        self.stats.programs += 1;
        Ok(done)
    }

    /// Erases a block. Past the endurance limit, erases may fail and mark
    /// the block bad.
    ///
    /// # Errors
    ///
    /// Fails for out-of-range/bad blocks, or probabilistically at end of
    /// life (returning [`NandError::BadBlock`] after marking it).
    pub fn erase(&mut self, block: u64, at: SimTime) -> Result<SimTime, NandError> {
        let p = PhysPage { block, page: 0 };
        self.check(p)?;
        let endurance = self.endurance;
        let meta = &mut self.blocks[block as usize];
        meta.erase_count += 1;
        if meta.erase_count > endurance {
            // Past rated life: 2% failure chance per further erase.
            let dies = self.rng.gen_bool(0.02);
            if dies {
                self.blocks[block as usize].bad = true;
                self.stats.failures += 1;
                return Err(NandError::BadBlock { page: p });
            }
        }
        let meta = &mut self.blocks[block as usize];
        meta.next_page = 0;
        let pages = u64::from(self.geo.pages_per_block);
        let base = block * pages;
        for page in 0..pages {
            self.data.remove(&(base + page));
        }
        let done = self.occupy_die(block, at, self.timing.erase);
        self.stats.erases += 1;
        Ok(done)
    }

    /// Drops the stored payload of `p`, which the FTL has just invalidated.
    /// Block metadata (write pointer, erase count, bad mark), die clocks
    /// and the RNG are untouched; the page stays programmed until its
    /// block is erased, but no caller may read it again.
    pub fn discard(&mut self, p: PhysPage) {
        self.data.remove(&p.flat_index(&self.geo));
    }

    /// Pages whose payload the array currently holds.
    pub fn stored_pages(&self) -> usize {
        self.data.len()
    }

    /// Marks a block bad (factory bad-block table or controller decision).
    pub fn mark_bad(&mut self, block: u64) {
        self.blocks[block as usize].bad = true;
    }

    /// Test hook: flip `n` specific bits of a stored page in place.
    ///
    /// # Panics
    ///
    /// Panics if the page holds no payload (never programmed, erased or
    /// discarded).
    #[allow(clippy::expect_used)] // fault-injection hook, documented to panic
    pub fn corrupt(&mut self, p: PhysPage, bit_offsets: &[u64]) {
        let idx = p.flat_index(&self.geo);
        let stored = self.data.get_mut(&idx).expect("page not programmed");
        *stored = Stored {
            bytes: flip_bits(&stored.bytes, bit_offsets),
            verified: false,
        };
    }
}

/// A copy of `bytes` with the given bits flipped.
fn flip_bits(bytes: &[u8], bits: &[u64]) -> PageBuf {
    let mut out = bytes.to_vec();
    for &bit in bits {
        out[(bit / 8) as usize] ^= 1 << (bit % 8);
    }
    PageBuf::from(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn array() -> ZNandArray {
        let mut a = ZNandArray::new(NandGeometry::small_for_tests(), NandTiming::znand_poc(), 42);
        a.set_ber_per_read(0.0);
        a
    }

    #[test]
    fn program_read_roundtrip() {
        let mut a = array();
        let p = PhysPage { block: 0, page: 0 };
        let stored = vec![9u8; 100];
        let done = a.program(p, stored.clone().into(), SimTime::ZERO).unwrap();
        assert!(done >= SimTime::ZERO + a.timing().program);
        let bytes = a.read(p, done).unwrap().bytes;
        assert_eq!(bytes, stored);
    }

    #[test]
    fn sequential_programming_enforced() {
        let mut a = array();
        let err = a.program(
            PhysPage { block: 0, page: 1 },
            vec![0].into(),
            SimTime::ZERO,
        );
        assert!(matches!(err, Err(NandError::NonSequentialProgram { .. })));
    }

    #[test]
    fn reprogram_without_erase_rejected() {
        let mut a = array();
        let p = PhysPage { block: 0, page: 0 };
        a.program(p, vec![1].into(), SimTime::ZERO).unwrap();
        let err = a.program(p, vec![2].into(), SimTime::from_us(200));
        assert!(matches!(err, Err(NandError::ProgramWithoutErase { .. })));
    }

    #[test]
    fn erase_resets_block() {
        let mut a = array();
        let p = PhysPage { block: 3, page: 0 };
        a.program(p, vec![1].into(), SimTime::ZERO).unwrap();
        let done = a.erase(3, SimTime::from_us(1_000)).unwrap();
        assert_eq!(a.erase_count(3), 1);
        assert_eq!(a.write_pointer(3), 0);
        assert!(matches!(
            a.read(p, done),
            Err(NandError::ReadUnwritten { .. })
        ));
        // Reprogramming page 0 is legal again.
        a.program(p, vec![2].into(), done).unwrap();
    }

    #[test]
    fn read_unwritten_rejected() {
        let mut a = array();
        let err = a.read(PhysPage { block: 0, page: 0 }, SimTime::ZERO);
        assert!(matches!(err, Err(NandError::ReadUnwritten { .. })));
    }

    #[test]
    fn die_busy_serializes_same_die_parallelizes_other_channel() {
        let mut a = array();
        // Blocks 0 and 2 share channel 0 (stride 2); block 1 is channel 1.
        let d0 = a
            .program(
                PhysPage { block: 0, page: 0 },
                vec![1].into(),
                SimTime::ZERO,
            )
            .unwrap();
        let d2 = a
            .program(
                PhysPage { block: 2, page: 0 },
                vec![1].into(),
                SimTime::ZERO,
            )
            .unwrap();
        let d1 = a
            .program(
                PhysPage { block: 1, page: 0 },
                vec![1].into(),
                SimTime::ZERO,
            )
            .unwrap();
        assert!(d2 > d0, "same die serializes");
        assert_eq!(d1, d0, "other channel runs in parallel");
    }

    #[test]
    fn bad_block_rejected() {
        let mut a = array();
        a.mark_bad(5);
        assert!(matches!(
            a.program(
                PhysPage { block: 5, page: 0 },
                vec![1].into(),
                SimTime::ZERO
            ),
            Err(NandError::BadBlock { .. })
        ));
        assert!(a.is_bad(5));
    }

    #[test]
    fn wear_increases_bitflip_rate() {
        let mut a = ZNandArray::new(NandGeometry::small_for_tests(), NandTiming::znand_poc(), 7);
        a.set_ber_per_read(0.005);
        let mut t = SimTime::ZERO;
        let p = PhysPage { block: 0, page: 0 };
        // Phase 1: young block, 300 reads.
        t = a.program(p, vec![0u8; 64].into(), t).unwrap();
        for _ in 0..300 {
            t = a.read(p, t).unwrap().done;
        }
        let flips_young = a.stats().bitflips_injected;
        // Phase 2: artificially worn to end of life, 300 reads.
        a.blocks[0].erase_count = a.endurance;
        for _ in 0..300 {
            t = a.read(p, t).unwrap().done;
        }
        let flips_old = a.stats().bitflips_injected - flips_young;
        assert!(
            flips_old > flips_young.max(1) * 5,
            "worn block flipped {flips_old} vs young {flips_young}"
        );
    }

    #[test]
    fn armed_uncorrectable_fires_once_transient_vs_persistent() {
        let mut a = array();
        let p = PhysPage { block: 0, page: 0 };
        let stored = vec![0u8; 64];
        let t = a.program(p, stored.clone().into(), SimTime::ZERO).unwrap();

        // Transient: the read copy is damaged, the stored copy is not.
        a.arm_uncorrectable(false);
        assert_eq!(a.armed_uncorrectable(), 1);
        let bad = a.read(p, t).unwrap();
        assert_ne!(bad.bytes, stored, "fault must corrupt the returned copy");
        assert_eq!(a.armed_uncorrectable(), 0);
        let clean = a.read(p, bad.done).unwrap();
        assert_eq!(clean.bytes, stored, "transient fault must not persist");

        // Persistent: the stored copy is damaged too.
        a.arm_uncorrectable(true);
        let bad = a.read(p, clean.done).unwrap();
        let still_bad = a.read(p, bad.done).unwrap().bytes;
        assert_eq!(
            bad.bytes, still_bad,
            "persistent fault must survive re-reads"
        );
        assert_ne!(still_bad, stored);
        assert_eq!(a.stats().uncorrectable_injected, 2);
    }

    #[test]
    fn power_cycle_resets_die_clocks_and_keeps_cells() {
        let mut a = array();
        let p = PhysPage { block: 0, page: 0 };
        let stored = vec![0x5Au8; 64];
        let t = a.program(p, stored.clone().into(), SimTime::ZERO).unwrap();
        a.erase(3, t).unwrap();
        a.mark_bad(5);
        assert!(a.die_free_at(0) > SimTime::ZERO);
        a.power_cycle();
        // The timing domain reset: every die is free at zero.
        assert_eq!(a.die_free_at(0), SimTime::ZERO);
        // Persistent facts are kept.
        assert_eq!(a.write_pointer(0), 1, "write pointer kept");
        assert_eq!(a.erase_count(3), 1, "erase count kept");
        assert!(a.is_bad(5), "bad-block mark kept");
        let bytes = a.read(p, SimTime::ZERO).unwrap().bytes;
        assert_eq!(bytes, stored, "page data kept");
        // A program on the idle die completes after xfer + tPROG.
        let q = PhysPage { block: 0, page: 1 };
        let done = a.program(q, stored.clone().into(), SimTime::ZERO).unwrap();
        assert_eq!(done, SimTime::ZERO + a.timing().xfer + a.timing().program);
    }

    #[test]
    fn power_cycle_leaves_the_rng_stream_alone() {
        // A reboot mid-run must not perturb the error-injection draws —
        // the crash sweep's bit-identical replay property.
        let run = |reboot: bool| {
            let mut a =
                ZNandArray::new(NandGeometry::small_for_tests(), NandTiming::znand_poc(), 9);
            a.set_ber_per_read(0.05);
            let p = PhysPage { block: 0, page: 0 };
            let mut t = a.program(p, vec![0u8; 64].into(), SimTime::ZERO).unwrap();
            let mut reads = Vec::new();
            for i in 0..60 {
                if reboot && i == 10 {
                    a.power_cycle();
                }
                let r = a.read(p, t).unwrap();
                reads.push(r.bytes);
                t = r.done;
            }
            (reads, a.stats())
        };
        assert_eq!(run(false), run(true));
    }

    #[test]
    fn discard_drops_the_payload_but_not_the_block_state() {
        let mut a = array();
        let p = PhysPage { block: 0, page: 0 };
        let t = a.program(p, vec![1u8; 64].into(), SimTime::ZERO).unwrap();
        a.program(PhysPage { block: 0, page: 1 }, vec![2u8; 64].into(), t)
            .unwrap();
        assert_eq!(a.stored_pages(), 2);
        let busy = a.die_free_at(0);
        a.discard(p);
        assert_eq!(a.stored_pages(), 1);
        assert_eq!(a.write_pointer(0), 2, "page stays programmed");
        assert_eq!(a.die_free_at(0), busy, "no die time spent");
        assert!(matches!(
            a.read(p, busy),
            Err(NandError::ReadUnwritten { .. })
        ));
        // The erase still resets the block for reprogramming.
        let done = a.erase(0, busy).unwrap();
        assert_eq!(a.stored_pages(), 0);
        a.program(p, vec![3u8; 64].into(), done).unwrap();
    }

    #[test]
    fn corrupt_hook_flips_bits() {
        let mut a = array();
        let p = PhysPage { block: 0, page: 0 };
        a.program(p, vec![0u8; 8].into(), SimTime::ZERO).unwrap();
        a.corrupt(p, &[0, 9]);
        let bytes = a.read(p, SimTime::from_us(1_000)).unwrap().bytes;
        assert_eq!(bytes[0], 0x01);
        assert_eq!(bytes[1], 0x02);
    }

    #[test]
    fn the_decode_mark_lives_exactly_as_long_as_its_bytes() {
        let mut a = array();
        let p = PhysPage { block: 0, page: 0 };
        let t = a.program(p, vec![0u8; 64].into(), SimTime::ZERO).unwrap();
        let first = a.read(p, t).unwrap();
        assert!(first.intact && !first.verified, "a fresh copy is unmarked");
        // Equal bytes in another buffer are not the stored copy.
        a.mark_verified(p, &vec![0u8; 64].into());
        assert!(!a.read(p, t).unwrap().verified);
        a.mark_verified(p, &first.bytes);
        let again = a.read(p, t).unwrap();
        assert!(again.intact && again.verified);
        assert!(again.bytes.same_bytes(&first.bytes), "reads share the copy");

        // A transient fault damages only the returned copy: the mark stays
        // and the next read is intact again.
        a.arm_uncorrectable(false);
        let hit = a.read(p, t).unwrap();
        assert!(!hit.intact && hit.verified);
        assert!(a.read(p, t).unwrap().verified);

        // A persistent fault replaces the stored copy and drops the mark.
        a.arm_uncorrectable(true);
        let hit = a.read(p, t).unwrap();
        assert!(!hit.intact);
        let after = a.read(p, t).unwrap();
        assert!(after.intact && !after.verified);
        assert_eq!(after.bytes, hit.bytes);

        // The corrupt hook and a bit flip: likewise.
        a.mark_verified(p, &after.bytes);
        a.corrupt(p, &[3]);
        assert!(!a.read(p, t).unwrap().verified);
        a.set_ber_per_read(1.0);
        let flipped = a.read(p, t).unwrap();
        assert!(!flipped.intact);
        a.set_ber_per_read(0.0);

        // Discard and erase drop the entry, mark included; a new program
        // starts unmarked.
        let stored = a.read(p, t).unwrap().bytes;
        a.mark_verified(p, &stored);
        a.discard(p);
        a.mark_verified(p, &stored);
        assert_eq!(a.stored_pages(), 0, "marking never recreates an entry");
        let done = a.erase(0, t).unwrap();
        a.program(p, stored.clone(), done).unwrap();
        assert!(!a.read(p, done).unwrap().verified);
    }
}
