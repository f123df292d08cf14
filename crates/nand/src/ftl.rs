//! The flash translation layer.
//!
//! Page-mapped FTL with the feature set the paper attributes to the NVMC
//! (§III-A): logical-to-physical mapping, greedy garbage collection,
//! wear-leveling (least-worn allocation plus a static-WL victim override),
//! and bad-block management. ECC is applied on the way in/out via
//! [`crate::PageCodec`].

use crate::ecc::{PageCodec, PageDecodeError};
use crate::error::NandError;
use crate::geometry::{NandGeometry, PhysPage};
use crate::media::{MediaRead, NandTiming, ZNandArray};
use crate::page::PageBuf;
use nvdimmc_sim::SimTime;
use serde::{Deserialize, Serialize};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};

/// FTL configuration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FtlConfig {
    /// Array geometry.
    pub geometry: NandGeometry,
    /// Media timing.
    pub timing: NandTiming,
    /// Fraction of raw capacity exported as logical space. The paper's
    /// firmware exports 120 GB of the 128 GB media (§VI) — 93.75%.
    pub export_fraction: f64,
    /// Run GC when free blocks drop below this.
    pub gc_low_watermark: usize,
    /// If the erase-count spread exceeds this, GC picks the coldest block
    /// instead of the emptiest (static wear leveling).
    pub static_wl_threshold: u32,
    /// Read-retry ladder depth: how many times an uncorrectable page read
    /// is retried before the error surfaces. Z-NAND transient read noise
    /// makes re-reads worthwhile; a retry that succeeds also triggers a
    /// scrub-remap of the page onto fresh cells.
    pub read_retries: u32,
    /// RNG seed for the media's error-injection model.
    pub seed: u64,
}

impl FtlConfig {
    /// The paper's PoC: 128 GB raw, 120 GB exported.
    pub fn znand_poc() -> Self {
        FtlConfig {
            geometry: NandGeometry::znand_128gb(),
            timing: NandTiming::znand_poc(),
            export_fraction: 120.0 / 128.0,
            gc_low_watermark: 8,
            static_wl_threshold: 1000,
            read_retries: 3,
            seed: 42,
        }
    }

    /// Figure-scale media (512 MB raw, 480 MB exported).
    pub fn medium() -> Self {
        FtlConfig {
            geometry: NandGeometry::medium(),
            ..Self::znand_poc()
        }
    }

    /// Small geometry with generous over-provisioning for fast tests.
    pub fn small_for_tests() -> Self {
        FtlConfig {
            geometry: NandGeometry::small_for_tests(),
            timing: NandTiming::znand_poc(),
            export_fraction: 0.75,
            gc_low_watermark: 4,
            static_wl_threshold: 50,
            read_retries: 3,
            seed: 42,
        }
    }

    /// Number of exported logical pages.
    pub fn export_pages(&self) -> u64 {
        (self.geometry.total_pages() as f64 * self.export_fraction) as u64
    }
}

/// FTL counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct FtlStats {
    /// Host page writes.
    pub host_writes: u64,
    /// Host page reads (mapped).
    pub host_reads: u64,
    /// Host reads of never-written pages (served as zeros).
    pub unmapped_reads: u64,
    /// GC invocations.
    pub gc_runs: u64,
    /// Pages relocated by GC.
    pub gc_moved_pages: u64,
    /// Blocks retired as bad.
    pub blocks_retired: u64,
    /// ECC words corrected across all reads.
    pub words_corrected: u64,
    /// Re-reads issued by the read-retry ladder.
    pub read_retries: u64,
    /// Reads that failed decode but were recovered by a re-read.
    pub read_retry_recovered: u64,
    /// Pages scrub-remapped onto fresh cells after a retry recovery.
    pub retry_remaps: u64,
    /// Reads that exhausted the retry ladder and surfaced
    /// [`NandError::Uncorrectable`].
    pub uncorrectable_surfaced: u64,
    /// Proactive housekeeping invocations that found work to do.
    pub hk_runs: u64,
    /// Pages relocated by proactive housekeeping.
    pub hk_moved_pages: u64,
    /// Page reads run through [`PageCodec::decode`]. A read that injected
    /// no error into a marked copy skips the decode (see [`ZNandArray`]),
    /// so this counts host work, not simulated work.
    pub pages_decoded: u64,
}

impl FtlStats {
    /// Write amplification factor: (host + GC writes) / host writes.
    pub fn write_amplification(&self) -> f64 {
        if self.host_writes == 0 {
            return 1.0;
        }
        (self.host_writes + self.gc_moved_pages) as f64 / self.host_writes as f64
    }
}

/// A page read through the codec (see [`Ftl::read_decoded`]).
struct Decoded {
    data: PageBuf,
    done: SimTime,
    /// The page decoded only on a re-read.
    retried: bool,
    /// The bytes read, when they decoded with no word corrected: then
    /// they are exactly `encode(data)`, and a relocation programs them as
    /// they are.
    codeword: Option<PageBuf>,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum BlockState {
    Free,
    Active,
    Closed,
    Bad,
}

/// The flash translation layer over a [`ZNandArray`].
///
/// # Example
///
/// ```
/// use nvdimmc_nand::{Ftl, FtlConfig};
/// use nvdimmc_sim::SimTime;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut ftl = Ftl::new(FtlConfig::small_for_tests());
/// let page = vec![0x42u8; 4096];
/// let (_, done) = ftl.write(10, page.clone(), SimTime::ZERO)?;
/// let (data, _) = ftl.read(10, done)?;
/// assert_eq!(data, page);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct Ftl {
    media: ZNandArray,
    codec: PageCodec,
    export_pages: u64,
    gc_low: usize,
    static_wl_threshold: u32,
    read_retries: u32,
    l2p: HashMap<u64, PhysPage>,
    p2l: HashMap<u64, u64>,
    valid: Vec<u32>,
    state: Vec<BlockState>,
    /// Per-channel min-heaps of (erase_count, block) for least-worn
    /// allocation.
    free: Vec<BinaryHeap<Reverse<(u32, u64)>>>,
    /// Per-channel active (partially programmed) blocks.
    actives: Vec<Option<u64>>,
    rr: usize,
    /// The page a never-written LPN reads as.
    zeros: PageBuf,
    stats: FtlStats,
}

impl Ftl {
    /// Creates a pristine FTL.
    pub fn new(cfg: FtlConfig) -> Self {
        let geo = cfg.geometry;
        let media = ZNandArray::new(geo, cfg.timing, cfg.seed);
        let nblocks = geo.total_blocks();
        let mut free: Vec<BinaryHeap<Reverse<(u32, u64)>>> =
            (0..geo.channels).map(|_| BinaryHeap::new()).collect();
        for b in 0..nblocks {
            let (ch, _, _, _) = geo.split_block(b);
            free[ch as usize].push(Reverse((0, b)));
        }
        Ftl {
            media,
            codec: PageCodec::new(geo.page_bytes as usize),
            export_pages: cfg.export_pages(),
            gc_low: cfg.gc_low_watermark,
            static_wl_threshold: cfg.static_wl_threshold,
            read_retries: cfg.read_retries,
            l2p: HashMap::new(),
            p2l: HashMap::new(),
            valid: vec![0; nblocks as usize],
            state: vec![BlockState::Free; nblocks as usize],
            free,
            actives: vec![None; geo.channels as usize],
            rr: 0,
            zeros: PageBuf::from(vec![0u8; geo.page_bytes as usize]),
            stats: FtlStats::default(),
        }
    }

    /// Number of exported logical pages.
    pub fn export_pages(&self) -> u64 {
        self.export_pages
    }

    /// Exported capacity in bytes.
    pub fn export_bytes(&self) -> u64 {
        self.export_pages * u64::from(self.media.geometry().page_bytes)
    }

    /// Counters.
    pub fn stats(&self) -> FtlStats {
        self.stats
    }

    /// The media under the FTL (for test oracles and wear inspection).
    pub fn media(&self) -> &ZNandArray {
        &self.media
    }

    /// Mutable media access (test hooks: error injection).
    pub fn media_mut(&mut self) -> &mut ZNandArray {
        &mut self.media
    }

    /// Spread between the most- and least-erased usable blocks.
    pub fn wear_spread(&self) -> u32 {
        let geo = *self.media.geometry();
        let mut lo = u32::MAX;
        let mut hi = 0;
        for b in 0..geo.total_blocks() {
            if self.state[b as usize] == BlockState::Bad {
                continue;
            }
            let e = self.media.erase_count(b);
            lo = lo.min(e);
            hi = hi.max(e);
        }
        hi.saturating_sub(lo)
    }

    /// Total free blocks across channels.
    pub fn free_blocks(&self) -> usize {
        self.free.iter().map(BinaryHeap::len).sum()
    }

    fn check_lpn(&self, lpn: u64) -> Result<(), NandError> {
        if lpn >= self.export_pages {
            return Err(NandError::LogicalOutOfRange {
                lpn,
                capacity_pages: self.export_pages,
            });
        }
        Ok(())
    }

    /// Whether `lpn` currently maps to physical media (i.e. has ever been
    /// written and not trimmed).
    pub fn is_mapped(&self, lpn: u64) -> bool {
        self.l2p.contains_key(&lpn)
    }

    /// Reads logical page `lpn`. Never-written pages read as zeros (like a
    /// fresh block device).
    ///
    /// # Errors
    ///
    /// Fails for out-of-range LPNs and uncorrectable media errors.
    pub fn read(&mut self, lpn: u64, at: SimTime) -> Result<(PageBuf, SimTime), NandError> {
        self.check_lpn(lpn)?;
        let Some(&phys) = self.l2p.get(&lpn) else {
            self.stats.unmapped_reads += 1;
            return Ok((self.zeros.clone(), at));
        };
        let page = self.read_decoded(phys, at)?;
        self.stats.host_reads += 1;
        let (data, done) = (page.data.clone(), page.done);
        if page.retried {
            // The page decoded only on a re-read: its cells are marginal.
            // Scrub-remap it onto a fresh physical page so the next read
            // does not start from the same cliff edge. The remap is a
            // background relocation (GC-class write): it must not turn a
            // successful read into an error, so a full device is tolerated.
            if self.relocate(lpn, page, done).is_ok() {
                self.stats.retry_remaps += 1;
            }
        }
        Ok((data, done))
    }

    /// Reads and decodes a physical page, climbing the read-retry ladder
    /// on decode failure.
    fn read_decoded(&mut self, phys: PhysPage, at: SimTime) -> Result<Decoded, NandError> {
        let read = self.media.read(phys, at)?;
        let mut done = read.done;
        if let Ok(page) = self.decode(phys, read, false) {
            return Ok(page);
        }
        for _ in 0..self.read_retries {
            self.stats.read_retries += 1;
            let read = self.media.read(phys, done)?;
            done = read.done;
            if let Ok(page) = self.decode(phys, read, true) {
                self.stats.read_retry_recovered += 1;
                return Ok(page);
            }
        }
        self.stats.uncorrectable_surfaced += 1;
        Err(NandError::Uncorrectable { page: phys })
    }

    /// Decodes one media read of `phys`. An intact read of a marked copy
    /// skips the codec: decoding it would give its data prefix with no
    /// word corrected. A clean decode of an intact read marks the copy.
    fn decode(
        &mut self,
        phys: PhysPage,
        read: MediaRead,
        retried: bool,
    ) -> Result<Decoded, PageDecodeError> {
        let (data, corrected) = if read.intact && read.verified {
            (read.bytes.prefix(self.codec.page_bytes()), 0)
        } else {
            self.stats.pages_decoded += 1;
            let (data, corrected) = self.codec.decode(&read.bytes)?;
            if corrected == 0 && read.intact {
                self.media.mark_verified(phys, &read.bytes);
            }
            (data, corrected)
        };
        self.stats.words_corrected += corrected;
        Ok(Decoded {
            data,
            done: read.done,
            retried,
            codeword: (corrected == 0).then_some(read.bytes),
        })
    }

    /// Programs `lpn`'s page, as read into `page`, onto a fresh physical
    /// page: a codeword as it is, corrected data encoded afresh. Either way
    /// the new copy is `encode(data)`.
    fn relocate(&mut self, lpn: u64, page: Decoded, at: SimTime) -> Result<SimTime, NandError> {
        let stored = match page.codeword {
            Some(stored) => stored,
            None => self.codec.encode(page.data.to_vec())?,
        };
        self.write_stored(lpn, &stored, at, true)
    }

    /// Writes logical page `lpn`, remapping it to a fresh physical page.
    /// Returns the written page, sharing the stored copy's buffer, and the
    /// program completion instant.
    ///
    /// # Errors
    ///
    /// Fails for out-of-range LPNs, wrong-sized buffers, or when the
    /// device is truly out of writable space.
    pub fn write(
        &mut self,
        lpn: u64,
        data: Vec<u8>,
        at: SimTime,
    ) -> Result<(PageBuf, SimTime), NandError> {
        self.check_lpn(lpn)?;
        let stored = self.codec.encode(data)?;
        let page = stored.prefix(self.codec.page_bytes());
        let done = self.write_stored(lpn, &stored, at, false)?;
        self.stats.host_writes += 1;
        Ok((page, done))
    }

    /// Drops the mapping for `lpn` (TRIM/discard).
    ///
    /// # Errors
    ///
    /// Fails for out-of-range LPNs.
    pub fn trim(&mut self, lpn: u64) -> Result<(), NandError> {
        self.check_lpn(lpn)?;
        if let Some(phys) = self.l2p.remove(&lpn) {
            self.invalidate(phys);
        }
        Ok(())
    }

    /// Marks `phys` stale after an overwrite, trim or relocation, and
    /// drops its payload: nothing reads a stale page before its block's
    /// erase, so the media keeps one stored page per mapped LPN.
    fn invalidate(&mut self, phys: PhysPage) {
        let geo = *self.media.geometry();
        let flat = phys.flat_index(&geo);
        if self.p2l.remove(&flat).is_some() {
            let v = &mut self.valid[phys.block as usize];
            debug_assert!(*v > 0, "valid-count underflow on block {}", phys.block);
            *v = v.saturating_sub(1);
        }
        self.media.discard(phys);
    }

    /// Programs `stored`, which is `encode(data)` for `lpn`'s data, on the
    /// next free page, and marks the new copy: decoding it would return
    /// `data` with no word corrected, since every parity byte is
    /// [`crate::Ecc::encode`] of its word and the CRC is the data's.
    fn write_stored(
        &mut self,
        lpn: u64,
        stored: &PageBuf,
        at: SimTime,
        is_gc: bool,
    ) -> Result<SimTime, NandError> {
        let geo = *self.media.geometry();
        // Bounded retries across bad-block failures.
        for _ in 0..64 {
            let ch = self.rr % geo.channels as usize;
            self.rr += 1;
            let Some(block) = self.ensure_active(ch, at, is_gc)? else {
                continue; // this channel is out of blocks; try next
            };
            let page = self.media.write_pointer(block);
            let phys = PhysPage { block, page };
            match self.media.program(phys, stored.clone(), at) {
                Ok(done) => {
                    self.media.mark_verified(phys, stored);
                    if let Some(old) = self.l2p.insert(lpn, phys) {
                        self.invalidate(old);
                    }
                    self.p2l.insert(phys.flat_index(&geo), lpn);
                    self.valid[block as usize] += 1;
                    if self.media.write_pointer(block) == geo.pages_per_block {
                        self.state[block as usize] = BlockState::Closed;
                        self.actives[ch] = None;
                    }
                    return Ok(done);
                }
                Err(NandError::BadBlock { .. }) => {
                    self.retire(block);
                    self.actives[ch] = None;
                }
                Err(e) => return Err(e),
            }
        }
        Err(NandError::OutOfSpace)
    }

    fn retire(&mut self, block: u64) {
        self.state[block as usize] = BlockState::Bad;
        self.media.mark_bad(block);
        self.stats.blocks_retired += 1;
    }

    /// Returns the active block for `ch`, allocating (and running GC if
    /// needed) when none is open.
    fn ensure_active(
        &mut self,
        ch: usize,
        at: SimTime,
        is_gc: bool,
    ) -> Result<Option<u64>, NandError> {
        if let Some(b) = self.actives[ch] {
            return Ok(Some(b));
        }
        // Host writes keep a GC reserve; GC itself may dig into it.
        if !is_gc && self.free_blocks() <= self.gc_low {
            self.collect(at)?;
            // GC's own relocation writes may have opened an active block on
            // this channel; reuse it rather than orphaning it.
            if let Some(b) = self.actives[ch] {
                return Ok(Some(b));
            }
        }
        match self.free[ch].pop() {
            Some(Reverse((_, b))) => {
                self.state[b as usize] = BlockState::Active;
                self.actives[ch] = Some(b);
                Ok(Some(b))
            }
            None => Ok(None),
        }
    }

    /// Greedy garbage collection: free blocks until above the watermark.
    fn collect(&mut self, at: SimTime) -> Result<(), NandError> {
        let geo = *self.media.geometry();
        self.stats.gc_runs += 1;
        let mut guard = 0;
        while self.free_blocks() <= self.gc_low {
            guard += 1;
            if guard > geo.total_blocks() {
                break;
            }
            let Some(victim) = self.pick_victim() else {
                break;
            };
            self.reclaim(victim, at, true)?;
        }
        Ok(())
    }

    /// Proactive housekeeping: when the free pool is merely *getting*
    /// low (at or below twice the GC watermark), reclaim a single victim
    /// block so foreground writes do not hit the synchronous
    /// `Ftl::collect` cliff later. One victim per call keeps each
    /// maintenance slot bounded; returns the number of pages relocated
    /// (0 when the pool is comfortable or no victim qualifies).
    ///
    /// # Errors
    ///
    /// Surfaces media errors from the relocation reads/writes; bad
    /// blocks discovered by the erase are retired, not errors.
    pub fn housekeeping(&mut self, at: SimTime) -> Result<u64, NandError> {
        if self.free_blocks() > self.gc_low * 2 {
            return Ok(0);
        }
        let Some(victim) = self.pick_victim() else {
            return Ok(0);
        };
        let moved = self.reclaim(victim, at, false)?;
        self.stats.hk_runs += 1;
        self.stats.hk_moved_pages += moved;
        Ok(moved)
    }

    /// Relocates every valid page of `victim`, then erases it (retiring
    /// it if the erase finds it bad); returns the pages moved. GC counts
    /// each page as it moves, housekeeping only once the erase is done.
    fn reclaim(&mut self, victim: u64, at: SimTime, gc: bool) -> Result<u64, NandError> {
        let geo = *self.media.geometry();
        let mut moved = 0;
        for page in 0..self.media.write_pointer(victim) {
            let phys = PhysPage {
                block: victim,
                page,
            };
            let Some(&lpn) = self.p2l.get(&phys.flat_index(&geo)) else {
                continue;
            };
            // Scrub through the codec (with the same read-retry ladder as
            // host reads) so latent single-bit errors do not accumulate
            // across relocations.
            let page = self.read_decoded(phys, at)?;
            self.relocate(lpn, page, at)?;
            moved += 1;
            if gc {
                self.stats.gc_moved_pages += 1;
            }
        }
        match self.media.erase(victim, at) {
            Ok(_) => {
                self.state[victim as usize] = BlockState::Free;
                self.valid[victim as usize] = 0;
                let (ch, _, _, _) = geo.split_block(victim);
                self.free[ch as usize].push(Reverse((self.media.erase_count(victim), victim)));
            }
            Err(NandError::BadBlock { .. }) => {
                self.retire(victim);
                self.valid[victim as usize] = 0;
            }
            Err(e) => return Err(e),
        }
        Ok(moved)
    }

    /// Picks the GC victim: the closed block with the fewest valid pages;
    /// under high wear spread, the coldest (least-erased) closed block
    /// instead, so cold data gets recycled onto worn blocks.
    fn pick_victim(&self) -> Option<u64> {
        let geo = self.media.geometry();
        let ppb = geo.pages_per_block;
        let static_wl = self.wear_spread() > self.static_wl_threshold;
        let mut best: Option<(u64, u64)> = None; // (score, block)
        for b in 0..geo.total_blocks() {
            if self.state[b as usize] != BlockState::Closed {
                continue;
            }
            let v = self.valid[b as usize];
            if v >= ppb {
                continue; // nothing to gain
            }
            let score = if static_wl {
                u64::from(self.media.erase_count(b)) * u64::from(ppb) + u64::from(v)
            } else {
                u64::from(v)
            };
            match best {
                Some((s, _)) if s <= score => {}
                _ => best = Some((score, b)),
            }
        }
        best.map(|(_, b)| b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nvdimmc_sim::DeterministicRng;

    fn ftl() -> Ftl {
        let mut f = Ftl::new(FtlConfig::small_for_tests());
        f.media_mut().set_ber_per_read(0.0);
        f
    }

    fn page(fill: u8) -> Vec<u8> {
        vec![fill; 4096]
    }

    #[test]
    fn write_read_roundtrip() {
        let mut f = ftl();
        let done = f.write(5, page(0xAB), SimTime::ZERO).unwrap().1;
        let (data, _) = f.read(5, done).unwrap();
        assert_eq!(data, page(0xAB));
    }

    #[test]
    fn unwritten_page_reads_zero() {
        let mut f = ftl();
        let (data, ready) = f.read(100, SimTime::from_us(3)).unwrap();
        assert_eq!(data, page(0));
        assert_eq!(ready, SimTime::from_us(3), "no media access needed");
        assert_eq!(f.stats().unmapped_reads, 1);
    }

    #[test]
    fn overwrite_remaps_and_invalidates() {
        let mut f = ftl();
        let t1 = f.write(7, page(1), SimTime::ZERO).unwrap().1;
        let p1 = f.l2p[&7];
        let t2 = f.write(7, page(2), t1).unwrap().1;
        let p2 = f.l2p[&7];
        assert_ne!(p1, p2, "out-of-place update");
        let (data, _) = f.read(7, t2).unwrap();
        assert_eq!(data, page(2));
    }

    #[test]
    fn lpn_out_of_range_rejected() {
        let mut f = ftl();
        let too_big = f.export_pages();
        assert!(matches!(
            f.write(too_big, page(0), SimTime::ZERO),
            Err(NandError::LogicalOutOfRange { .. })
        ));
        assert!(f.read(too_big, SimTime::ZERO).is_err());
    }

    #[test]
    fn trim_drops_mapping() {
        let mut f = ftl();
        let done = f.write(9, page(9), SimTime::ZERO).unwrap().1;
        f.trim(9).unwrap();
        let (data, _) = f.read(9, done).unwrap();
        assert_eq!(data, page(0));
    }

    #[test]
    fn gc_reclaims_overwritten_space() {
        let mut f = ftl();
        let export = f.export_pages();
        let mut t = SimTime::ZERO;
        let mut rng = DeterministicRng::new(1);
        // Write ~3x the exported capacity at random: forces GC.
        for i in 0..(export * 3) {
            let lpn = rng.gen_range(0..export);
            t = f.write(lpn, page((i % 256) as u8), t).unwrap().1;
        }
        assert!(f.stats().gc_runs > 0, "GC never ran");
        assert!(
            f.stats().write_amplification() > 1.0,
            "GC moved no pages (WAF = {})",
            f.stats().write_amplification()
        );
        // Device still readable and consistent for a fresh write.
        let t2 = f.write(0, page(0xEE), t).unwrap().1;
        let (data, _) = f.read(0, t2).unwrap();
        assert_eq!(data, page(0xEE));
    }

    #[test]
    fn data_survives_gc() {
        let mut f = ftl();
        let export = f.export_pages();
        let keep = 16u64.min(export / 4);
        let mut t = SimTime::ZERO;
        // Pin distinctive data in the first `keep` pages.
        for lpn in 0..keep {
            t = f.write(lpn, page(0x80 | lpn as u8), t).unwrap().1;
        }
        // Churn the rest hard.
        let mut rng = DeterministicRng::new(2);
        for i in 0..(export * 2) {
            let lpn = keep + rng.gen_range(0..(export - keep));
            t = f.write(lpn, page((i % 251) as u8), t).unwrap().1;
        }
        for lpn in 0..keep {
            let (data, _) = f.read(lpn, t).unwrap();
            assert_eq!(data, page(0x80 | lpn as u8), "lpn {lpn} corrupted by GC");
        }
    }

    #[test]
    fn wear_stays_level_under_churn() {
        let mut f = ftl();
        let export = f.export_pages();
        let mut t = SimTime::ZERO;
        let mut rng = DeterministicRng::new(3);
        for i in 0..(export * 4) {
            let lpn = rng.gen_range(0..export);
            t = f.write(lpn, page((i % 256) as u8), t).unwrap().1;
        }
        let spread = f.wear_spread();
        let max_seen = (0..f.media().geometry().total_blocks())
            .map(|b| f.media().erase_count(b))
            .max()
            .unwrap();
        assert!(
            spread <= max_seen.max(4),
            "wear spread {spread} vs max {max_seen}"
        );
    }

    #[test]
    fn ecc_corrects_media_bitflips_end_to_end() {
        let mut f = Ftl::new(FtlConfig::small_for_tests());
        f.media_mut().set_ber_per_read(0.9); // flip a bit on ~every read
        let done = f.write(1, page(0x77), SimTime::ZERO).unwrap().1;
        for _ in 0..50 {
            let (data, _) = f.read(1, done).unwrap();
            assert_eq!(data, page(0x77));
        }
        assert!(f.stats().words_corrected > 0, "ECC never engaged");
    }

    #[test]
    fn uncorrectable_error_surfaces() {
        let mut f = ftl();
        let done = f.write(1, page(0x11), SimTime::ZERO).unwrap().1;
        let phys = f.l2p[&1];
        // Two bit flips inside the same 64-bit word: beyond SEC-DED.
        f.media_mut().corrupt(phys, &[0, 1]);
        assert!(matches!(
            f.read(1, done),
            Err(NandError::Uncorrectable { .. })
        ));
        // The whole ladder was climbed before giving up.
        assert_eq!(f.stats().read_retries, 3);
        assert_eq!(f.stats().uncorrectable_surfaced, 1);
        assert_eq!(f.stats().read_retry_recovered, 0);
    }

    #[test]
    fn transient_uncorrectable_recovered_by_retry_and_remapped() {
        let mut f = ftl();
        let done = f.write(1, page(0x33), SimTime::ZERO).unwrap().1;
        let before = f.l2p[&1];
        f.media_mut().arm_uncorrectable(false);
        let (data, _) = f.read(1, done).expect("retry ladder must recover");
        assert_eq!(data, page(0x33));
        let s = f.stats();
        assert_eq!(s.read_retry_recovered, 1);
        assert!(s.read_retries >= 1);
        assert_eq!(s.uncorrectable_surfaced, 0);
        assert_eq!(s.retry_remaps, 1, "marginal page must be scrubbed");
        assert_ne!(f.l2p[&1], before, "remap must move the page");
        // And the relocated copy reads back clean.
        let (data, _) = f.read(1, done).unwrap();
        assert_eq!(data, page(0x33));
    }

    #[test]
    fn persistent_uncorrectable_exhausts_ladder() {
        let mut f = ftl();
        let done = f.write(2, page(0x44), SimTime::ZERO).unwrap().1;
        f.media_mut().arm_uncorrectable(true);
        assert!(matches!(
            f.read(2, done),
            Err(NandError::Uncorrectable { .. })
        ));
        let s = f.stats();
        assert_eq!(s.read_retries, 3);
        assert_eq!(s.uncorrectable_surfaced, 1);
        assert_eq!(f.media().stats().uncorrectable_injected, 1);
    }

    #[test]
    fn only_disturbed_reads_decode() {
        let mut f = ftl();
        let t = f.write(3, page(0x3C), SimTime::ZERO).unwrap().1;
        for _ in 0..5 {
            let (data, _) = f.read(3, t).unwrap();
            assert_eq!(data, page(0x3C));
        }
        assert_eq!(f.stats().pages_decoded, 0, "codec output is marked");
        assert_eq!(f.media().stats().reads, 5);
        // A transient fault forces a decode of the damaged read only: the
        // retry that recovers it is intact, and the remap moves the marked
        // copy as it is.
        f.media_mut().arm_uncorrectable(false);
        let (data, _) = f.read(3, t).unwrap();
        assert_eq!(data, page(0x3C));
        assert_eq!(f.stats().pages_decoded, 1);
        assert_eq!(f.stats().retry_remaps, 1);
        f.read(3, t).unwrap();
        assert_eq!(f.stats().pages_decoded, 1, "the remapped copy is marked");
        // Bit flips on every read: each read decodes and corrects.
        f.media_mut().set_ber_per_read(1.0);
        for _ in 0..4 {
            let (data, _) = f.read(3, t).unwrap();
            assert_eq!(data, page(0x3C));
        }
        assert_eq!(f.stats().pages_decoded, 5);
    }

    #[test]
    fn a_damaged_copy_decodes_on_every_read() {
        let mut f = ftl();
        let done = f.write(2, page(0x44), SimTime::ZERO).unwrap().1;
        f.read(2, done).unwrap();
        assert_eq!(f.stats().pages_decoded, 0);
        // A persistent fault replaces the marked copy: the faulting read
        // and all three retries decode, and the ladder fails as before.
        f.media_mut().arm_uncorrectable(true);
        assert!(matches!(
            f.read(2, done),
            Err(NandError::Uncorrectable { .. })
        ));
        let s = f.stats();
        assert_eq!(s.read_retries, 3);
        assert_eq!(s.uncorrectable_surfaced, 1);
        assert_eq!(s.pages_decoded, 4);
        // One flipped bit, fixed by the codec: corrected on every read,
        // never marked.
        let done = f.write(5, page(0x55), done).unwrap().1;
        let phys = f.l2p[&5];
        f.media_mut().corrupt(phys, &[7]);
        for _ in 0..3 {
            let (data, _) = f.read(5, done).unwrap();
            assert_eq!(data, page(0x55));
        }
        assert_eq!(f.stats().pages_decoded, 7);
        assert_eq!(f.stats().words_corrected, 3);
    }

    #[test]
    fn housekeeping_reclaims_before_the_gc_cliff() {
        let mut f = ftl();
        let export = f.export_pages();
        let mut t = SimTime::ZERO;
        let mut rng = DeterministicRng::new(4);
        // Comfortable pool: housekeeping is a no-op.
        assert_eq!(f.housekeeping(t).unwrap(), 0);
        // Churn until the pool is inside the proactive band.
        let mut i = 0u64;
        while f.free_blocks() > f.gc_low * 2 && i < export * 4 {
            let lpn = rng.gen_range(0..export);
            t = f.write(lpn, page((i % 256) as u8), t).unwrap().1;
            i += 1;
        }
        let before = f.free_blocks();
        f.housekeeping(t).unwrap();
        assert!(f.stats().hk_runs >= 1, "housekeeping never engaged");
        assert!(
            f.free_blocks() >= before,
            "housekeeping must not shrink the free pool"
        );
        // Data still intact after background relocation.
        let t2 = f.write(0, page(0xCD), t).unwrap().1;
        let (data, _) = f.read(0, t2).unwrap();
        assert_eq!(data, page(0xCD));
    }

    #[test]
    fn power_cycle_keeps_map_and_data() {
        let mut f = ftl();
        let export = f.export_pages();
        let mut t = SimTime::ZERO;
        // Enough churn to open actives on both channels and run GC once.
        let mut rng = DeterministicRng::new(11);
        for i in 0..(export * 2) {
            let lpn = rng.gen_range(0..export);
            t = f.write(lpn, page((i % 256) as u8), t).unwrap().1;
        }
        assert!(f.stats().gc_runs > 0);
        let l2p_before = f.l2p.clone();
        let free_before = f.free_blocks();
        let stats_before = f.stats();
        f.media_mut().power_cycle();
        assert_eq!(f.l2p, l2p_before, "mapping table kept");
        assert_eq!(f.free_blocks(), free_before, "free pool kept");
        assert_eq!(f.stats(), stats_before, "counters kept");
        // The first media read of the new boot takes tR + xfer = 11 us.
        let (&lpn, _) = l2p_before.iter().next().unwrap();
        let (_, ready) = f.read(lpn, SimTime::ZERO).unwrap();
        assert_eq!(ready, SimTime::from_us(11));
        // Every mapped page reads back as a decodable, CRC-clean page.
        for &lpn in l2p_before.keys() {
            f.read(lpn, t).unwrap();
        }
        // The FTL stays fully writable (heaps/actives consistent).
        let t2 = f.write(0, page(0xAB), t).unwrap().1;
        let (data, _) = f.read(0, t2).unwrap();
        assert_eq!(data, page(0xAB));
    }

    #[test]
    fn media_holds_one_payload_per_mapped_page() {
        let mut f = ftl();
        let export = f.export_pages();
        let mut t = SimTime::ZERO;
        let mut rng = DeterministicRng::new(12);
        // Churn 2x the export size through overwrite, trim, retry remap,
        // synchronous GC and housekeeping.
        for i in 0..(export * 2) {
            let lpn = rng.gen_range(0..export);
            match i % 256 {
                0 => {
                    f.housekeeping(t).unwrap();
                }
                n if n % 16 == 1 => f.trim(lpn).unwrap(),
                n if n % 16 == 2 && f.is_mapped(lpn) => {
                    f.media_mut().arm_uncorrectable(false);
                    f.read(lpn, t).unwrap();
                }
                _ => t = f.write(lpn, page((i % 256) as u8), t).unwrap().1,
            }
            assert_eq!(f.media().stored_pages(), f.l2p.len(), "op {i}");
        }
        let s = f.stats();
        assert!(
            s.gc_runs > 0 && s.hk_runs > 0 && s.retry_remaps > 0,
            "{s:?}"
        );
        assert!(s.gc_moved_pages > 0 && s.hk_moved_pages > 0, "{s:?}");
    }

    #[test]
    fn writes_spread_across_channels() {
        let mut f = ftl();
        let mut t = SimTime::ZERO;
        for lpn in 0..8 {
            t = f.write(lpn, page(lpn as u8), t).unwrap().1;
        }
        let geo = *f.media().geometry();
        let channels: std::collections::HashSet<u32> =
            (0..8u64).map(|lpn| f.l2p[&lpn].channel(&geo)).collect();
        assert_eq!(channels.len(), 2, "both channels used");
    }

    #[test]
    fn bad_page_size_rejected() {
        let mut f = ftl();
        assert!(matches!(
            f.write(0, vec![0u8; 100], SimTime::ZERO),
            Err(NandError::BadPageSize { .. })
        ));
    }
}
