//! A set-associative write-back CPU cache with explicit-coherence line
//! operations.
//!
//! The paper's FPGA moves data underneath the CPU's caches, which "is
//! invisible to the cache and uncore hardware" (§V-B). The nvdc driver
//! therefore `clflush`es dirty lines before writebacks and invalidates
//! lines after cachefills. This model holds real bytes so both failure
//! modes — stale reads and stale write-back clobbering fresh data — are
//! directly observable in tests.

use crate::journal::PersistEvent;
use crate::memory::Memory;
use serde::{Deserialize, Serialize};

const LINE: u64 = 64;

/// Cache event counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct CacheStats {
    /// Loads that hit.
    pub load_hits: u64,
    /// Loads that missed (line filled from memory).
    pub load_misses: u64,
    /// Stores that hit.
    pub store_hits: u64,
    /// Stores that missed (write-allocate).
    pub store_misses: u64,
    /// Lines written back (evictions + clflush/clwb of dirty lines).
    pub writebacks: u64,
    /// `clflush` operations.
    pub clflushes: u64,
    /// `sfence` operations.
    pub sfences: u64,
    /// Lines dropped by `invalidate` without writeback.
    pub invalidations: u64,
}

#[derive(Debug, Clone)]
struct Line {
    tag: u64,
    dirty: bool,
    data: [u8; LINE as usize],
    lru: u64,
}

/// A set-associative write-back cache of 64-byte lines.
///
/// # Example
///
/// ```
/// use nvdimmc_host::{CpuCache, Memory, VecMemory};
///
/// let mut mem = VecMemory::new(4096);
/// let mut cache = CpuCache::new(1024, 2);
/// mem.write(0, &[9u8; 64]);
/// let mut buf = [0u8; 1];
/// cache.load(&mut mem, 0, &mut buf);
/// assert_eq!(buf[0], 9);
/// // Device writes behind the cache are invisible until invalidation:
/// mem.write(0, &[7u8; 64]);
/// cache.load(&mut mem, 0, &mut buf);
/// assert_eq!(buf[0], 9, "stale!");
/// cache.invalidate(0);
/// cache.load(&mut mem, 0, &mut buf);
/// assert_eq!(buf[0], 7);
/// ```
#[derive(Debug)]
pub struct CpuCache {
    sets: Vec<Vec<Line>>,
    ways: usize,
    tick: u64,
    stats: CacheStats,
    journal: Option<Vec<PersistEvent>>,
}

impl CpuCache {
    /// Creates a cache of `size_bytes` with `ways` associativity.
    ///
    /// # Panics
    ///
    /// Panics unless `size_bytes` is a multiple of `ways * 64` and the
    /// resulting set count is a power of two.
    pub fn new(size_bytes: usize, ways: usize) -> Self {
        assert!(ways > 0, "associativity must be positive");
        assert!(
            size_bytes.is_multiple_of(ways * LINE as usize),
            "size must be a multiple of ways*64"
        );
        let nsets = size_bytes / (ways * LINE as usize);
        assert!(nsets.is_power_of_two(), "set count must be a power of two");
        CpuCache {
            sets: vec![Vec::new(); nsets],
            ways,
            tick: 0,
            stats: CacheStats::default(),
            journal: None,
        }
    }

    /// Counters.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Enables (or disables) the persistence journal consumed by
    /// `nvdimmc-check`'s ordering checker. Enabling clears any previous
    /// journal.
    pub fn set_journal(&mut self, on: bool) {
        self.journal = if on { Some(Vec::new()) } else { None };
    }

    /// Appends a marker event (durability claims, power-fail points) from
    /// a higher layer. No-op when the journal is disabled.
    pub fn journal_push(&mut self, event: PersistEvent) {
        if let Some(j) = self.journal.as_mut() {
            j.push(event);
        }
    }

    /// Takes the journal contents, leaving journaling enabled and empty.
    /// Returns an empty vec when journaling is disabled.
    pub fn take_journal(&mut self) -> Vec<PersistEvent> {
        self.journal.as_mut().map_or_else(Vec::new, std::mem::take)
    }

    fn set_of(&self, line_addr: u64) -> usize {
        (line_addr as usize) & (self.sets.len() - 1)
    }

    fn touch(&mut self) -> u64 {
        self.tick += 1;
        self.tick
    }

    /// Loads `buf.len()` bytes from `addr` through the cache.
    pub fn load(&mut self, mem: &mut impl Memory, addr: u64, buf: &mut [u8]) {
        self.for_each_span(
            addr,
            buf.len(),
            mem,
            |cache, mem, line_addr, off, pos, n| {
                let data = cache.line_data(mem, line_addr, false);
                buf[pos..pos + n].copy_from_slice(&data[off..off + n]);
            },
        );
    }

    /// Stores `data` to `addr` through the cache (write-allocate,
    /// write-back).
    pub fn store(&mut self, mem: &mut impl Memory, addr: u64, data: &[u8]) {
        self.journal_push(PersistEvent::Store {
            addr,
            len: data.len() as u64,
        });
        self.for_each_span(
            addr,
            data.len(),
            mem,
            |cache, mem, line_addr, off, pos, n| {
                let line = cache.line_data_mut(mem, line_addr);
                line[off..off + n].copy_from_slice(&data[pos..pos + n]);
            },
        );
    }

    /// Calls `f(cache, mem, line_addr, offset_in_line, pos, n)` for each
    /// line-sized piece of `len` bytes starting at `addr`.
    fn for_each_span<M: Memory>(
        &mut self,
        addr: u64,
        len: usize,
        mem: &mut M,
        mut f: impl FnMut(&mut Self, &mut M, u64, usize, usize, usize),
    ) {
        let mut pos = 0;
        while pos < len {
            let a = addr + pos as u64;
            let line_addr = a / LINE;
            let off = (a % LINE) as usize;
            let n = (LINE as usize - off).min(len - pos);
            f(self, mem, line_addr, off, pos, n);
            pos += n;
        }
    }

    fn find(&mut self, line_addr: u64) -> Option<(usize, usize)> {
        let set = self.set_of(line_addr);
        self.sets[set]
            .iter()
            .position(|l| l.tag == line_addr)
            .map(|w| (set, w))
    }

    fn line_data(&mut self, mem: &mut impl Memory, line_addr: u64, _for_write: bool) -> [u8; 64] {
        if let Some((s, w)) = self.find(line_addr) {
            self.stats.load_hits += 1;
            let t = self.touch();
            self.sets[s][w].lru = t;
            return self.sets[s][w].data;
        }
        self.stats.load_misses += 1;

        self.fill(mem, line_addr)
    }

    fn line_data_mut<'a>(&'a mut self, mem: &mut impl Memory, line_addr: u64) -> &'a mut [u8; 64] {
        if self.find(line_addr).is_some() {
            self.stats.store_hits += 1;
        } else {
            self.stats.store_misses += 1;
            self.fill(mem, line_addr);
        }
        let (s, w) = self.find(line_addr).expect("just filled");
        let t = self.touch();
        let line = &mut self.sets[s][w];
        line.lru = t;
        line.dirty = true;
        &mut line.data
    }

    /// Fetches a line from memory, evicting the LRU way if the set is full.
    fn fill(&mut self, mem: &mut impl Memory, line_addr: u64) -> [u8; 64] {
        let set = self.set_of(line_addr);
        if self.sets[set].len() >= self.ways {
            let victim_idx = self.sets[set]
                .iter()
                .enumerate()
                .min_by_key(|(_, l)| l.lru)
                .map(|(i, _)| i)
                .expect("set non-empty");
            let victim = self.sets[set].swap_remove(victim_idx);
            if victim.dirty {
                mem.write(victim.tag * LINE, &victim.data);
                self.stats.writebacks += 1;
            }
        }
        let mut data = [0u8; 64];
        mem.read(line_addr * LINE, &mut data);
        let t = self.touch();
        self.sets[set].push(Line {
            tag: line_addr,
            dirty: false,
            data,
            lru: t,
        });
        data
    }

    /// `clflush`: writes back (if dirty) and invalidates the line holding
    /// `addr`. No-op if the line is not cached.
    pub fn clflush(&mut self, mem: &mut impl Memory, addr: u64) {
        self.stats.clflushes += 1;
        self.journal_push(PersistEvent::Clflush {
            addr: addr / LINE * LINE,
        });
        let line_addr = addr / LINE;
        if let Some((s, w)) = self.find(line_addr) {
            let line = self.sets[s].swap_remove(w);
            if line.dirty {
                mem.write(line.tag * LINE, &line.data);
                self.stats.writebacks += 1;
            }
        }
    }

    /// `clwb`: writes back (if dirty) but keeps the line resident clean.
    pub fn clwb(&mut self, mem: &mut impl Memory, addr: u64) {
        self.journal_push(PersistEvent::Clwb {
            addr: addr / LINE * LINE,
        });
        let line_addr = addr / LINE;
        if let Some((s, w)) = self.find(line_addr) {
            if self.sets[s][w].dirty {
                let data = self.sets[s][w].data;
                mem.write(line_addr * LINE, &data);
                self.sets[s][w].dirty = false;
                self.stats.writebacks += 1;
            }
        }
    }

    /// Drops the line holding `addr` **without** writeback — the driver's
    /// post-cachefill invalidation (stale-data discard).
    pub fn invalidate(&mut self, addr: u64) {
        let line_addr = addr / LINE;
        if let Some((s, w)) = self.find(line_addr) {
            self.sets[s].swap_remove(w);
            self.stats.invalidations += 1;
        }
    }

    /// Flushes every line in `[addr, addr+len)` (the driver flushes a 4 KB
    /// page as 64 clflushes).
    pub fn clflush_range(&mut self, mem: &mut impl Memory, addr: u64, len: u64) {
        let first = addr / LINE;
        let last = (addr + len - 1) / LINE;
        for line in first..=last {
            self.clflush(mem, line * LINE);
        }
    }

    /// Invalidates every line in `[addr, addr+len)`.
    pub fn invalidate_range(&mut self, addr: u64, len: u64) {
        let first = addr / LINE;
        let last = (addr + len - 1) / LINE;
        for line in first..=last {
            self.invalidate(line * LINE);
        }
    }

    /// `sfence`: in this model stores drain immediately, so the fence is a
    /// counted ordering marker.
    pub fn sfence(&mut self) {
        self.stats.sfences += 1;
        self.journal_push(PersistEvent::Sfence);
    }

    /// Writes back every dirty line and leaves the cache clean (ADR-style
    /// flush on power failure).
    pub fn flush_all(&mut self, mem: &mut impl Memory) {
        for set in &mut self.sets {
            for line in set.iter_mut() {
                if line.dirty {
                    mem.write(line.tag * LINE, &line.data);
                    line.dirty = false;
                    self.stats.writebacks += 1;
                }
            }
        }
    }

    /// Drops every line without writeback — what a power failure does to
    /// volatile CPU caches.
    pub fn discard_all(&mut self) {
        for set in &mut self.sets {
            self.stats.invalidations += set.len() as u64;
            set.clear();
        }
    }

    /// Whether the line holding `addr` is resident and dirty.
    pub fn is_dirty(&mut self, addr: u64) -> bool {
        let line_addr = addr / LINE;
        self.find(line_addr)
            .is_some_and(|(s, w)| self.sets[s][w].dirty)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::memory::VecMemory;

    fn setup() -> (CpuCache, VecMemory) {
        (CpuCache::new(4096, 4), VecMemory::new(1 << 16))
    }

    #[test]
    fn store_is_write_back_not_write_through() {
        let (mut c, mut m) = setup();
        c.store(&mut m, 128, &[5u8; 64]);
        let mut raw = [0u8; 64];
        m.read(128, &mut raw);
        assert_eq!(raw, [0u8; 64], "store must stay in cache");
        assert!(c.is_dirty(128));
    }

    #[test]
    fn clflush_publishes_dirty_line() {
        let (mut c, mut m) = setup();
        c.store(&mut m, 128, &[5u8; 64]);
        c.clflush(&mut m, 128);
        let mut raw = [0u8; 64];
        m.read(128, &mut raw);
        assert_eq!(raw, [5u8; 64]);
        assert!(!c.is_dirty(128), "line gone after flush");
    }

    #[test]
    fn clwb_publishes_but_keeps_line() {
        let (mut c, mut m) = setup();
        c.store(&mut m, 0, &[3u8; 8]);
        c.clwb(&mut m, 0);
        let mut raw = [0u8; 8];
        m.read(0, &mut raw);
        assert_eq!(raw, [3u8; 8]);
        // Line still resident: a device write underneath is now invisible.
        m.write(0, &[9u8; 8]);
        let mut buf = [0u8; 8];
        c.load(&mut m, 0, &mut buf);
        assert_eq!(buf, [3u8; 8]);
    }

    #[test]
    fn paper_incoherence_scenario_stale_read() {
        // §V-B: FPGA cachefills under a line the CPU already cached.
        let (mut c, mut m) = setup();
        m.write(4096, b"old data");
        let mut buf = [0u8; 8];
        c.load(&mut m, 4096, &mut buf); // CPU caches "old data"
        m.write(4096, b"new data"); // FPGA updates DRAM under the cache
        c.load(&mut m, 4096, &mut buf);
        assert_eq!(&buf, b"old data", "CPU must see stale data");
        c.invalidate(4096); // the driver's fix
        c.load(&mut m, 4096, &mut buf);
        assert_eq!(&buf, b"new data");
    }

    #[test]
    fn paper_incoherence_scenario_stale_writeback_clobbers() {
        // §V-B: an old dirty line flushed late overwrites FPGA data.
        let (mut c, mut m) = setup();
        c.store(&mut m, 8192, b"cpu-old!");
        m.write(8192, b"fpga-new"); // device fills the page
                                    // Natural eviction (not invalidation) writes the stale line back:
        c.clflush(&mut m, 8192);
        let mut raw = [0u8; 8];
        m.read(8192, &mut raw);
        assert_eq!(&raw, b"cpu-old!", "stale writeback clobbered new data");
    }

    #[test]
    fn eviction_writes_back_dirty_victim() {
        let mut c = CpuCache::new(2 * 64, 1); // 2 sets, direct-mapped
        let mut m = VecMemory::new(1 << 16);
        c.store(&mut m, 0, &[1u8; 64]);
        // Same set (set index = line_addr & 1): line_addr 2 -> addr 128.
        c.store(&mut m, 128, &[2u8; 64]);
        let mut raw = [0u8; 64];
        m.read(0, &mut raw);
        assert_eq!(raw, [1u8; 64], "victim written back on eviction");
        assert_eq!(c.stats().writebacks, 1);
    }

    #[test]
    fn lru_keeps_hot_line() {
        let mut c = CpuCache::new(2 * 64 * 2, 2); // 2 sets, 2 ways
        let mut m = VecMemory::new(1 << 16);
        let mut buf = [0u8; 1];
        // Two lines in set 0: line 0 (addr 0) and line 2 (addr 128).
        c.load(&mut m, 0, &mut buf);
        c.load(&mut m, 128, &mut buf);
        c.load(&mut m, 0, &mut buf); // re-touch line 0
        c.load(&mut m, 256, &mut buf); // evicts line 2 (LRU), not 0
        let before = c.stats().load_hits;
        c.load(&mut m, 0, &mut buf);
        assert_eq!(c.stats().load_hits, before + 1, "hot line evicted");
    }

    #[test]
    fn range_helpers_cover_pages() {
        let (mut c, mut m) = setup();
        let page = vec![0xAAu8; 4096];
        c.store(&mut m, 0, &page);
        c.clflush_range(&mut m, 0, 4096);
        assert_eq!(c.stats().clflushes, 64);
        let mut raw = vec![0u8; 4096];
        m.read(0, &mut raw);
        assert_eq!(raw, page);
    }

    #[test]
    fn unaligned_load_spans_lines() {
        let (mut c, mut m) = setup();
        m.write(60, &[1, 2, 3, 4, 5, 6, 7, 8]);
        let mut buf = [0u8; 8];
        c.load(&mut m, 60, &mut buf);
        assert_eq!(buf, [1, 2, 3, 4, 5, 6, 7, 8]);
    }

    #[test]
    fn sfence_counts() {
        let (mut c, _) = setup();
        c.sfence();
        c.sfence();
        assert_eq!(c.stats().sfences, 2);
    }
}
