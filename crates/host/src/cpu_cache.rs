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

const LINE_BYTES: usize = 64;
const LINE: u64 = LINE_BYTES as u64;

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

/// Most ways one set record holds.
const MAX_WAYS: usize = 8;

/// The rank of an invalid way. It is above every valid rank, so no touch
/// ever ages it.
const NO_RANK: u8 = u8::MAX;

/// The metadata of one set: a fixed record of at most [`MAX_WAYS`] ways.
#[derive(Debug, Clone, Copy)]
struct Set {
    /// The line address held by each valid way.
    tags: [u64; MAX_WAYS],
    /// Exact-LRU rank of each valid way among the valid ways (0 = most
    /// recently used); [`NO_RANK`] for an invalid way.
    ranks: [u8; MAX_WAYS],
    /// Bit `w` set: way `w` holds a line.
    valid: u8,
    /// Bit `w` set: way `w` holds a line newer than memory.
    dirty: u8,
}

impl Set {
    const EMPTY: Set = Set {
        tags: [0; MAX_WAYS],
        ranks: [NO_RANK; MAX_WAYS],
        valid: 0,
        dirty: 0,
    };

    /// The valid way holding `tag`.
    fn find(&self, tag: u64) -> Option<usize> {
        let mut hits = 0u8;
        for (w, &t) in self.tags.iter().enumerate() {
            hits |= u8::from(t == tag) << w;
        }
        hits &= self.valid;
        (hits != 0).then(|| hits.trailing_zeros() as usize)
    }

    /// Makes `way` the most recent. Every valid way more recent than it
    /// ages by one; an invalid `way` (rank [`NO_RANK`]) ages them all.
    fn touch(&mut self, way: usize) {
        let rank = self.ranks[way];
        for r in &mut self.ranks {
            *r += u8::from(*r < rank);
        }
        self.ranks[way] = 0;
    }

    /// Drops `way`. Every valid way older than it moves up by one.
    fn remove(&mut self, way: usize) {
        let rank = self.ranks[way];
        for r in &mut self.ranks {
            *r -= u8::from(*r > rank) & u8::from(*r != NO_RANK);
        }
        self.ranks[way] = NO_RANK;
        self.valid &= !(1 << way);
        self.dirty &= !(1 << way);
    }

    /// The way a new line goes to: the first invalid way, or, in a full
    /// set, the least recently used one (rank `ways - 1`).
    fn slot(&self, ways: usize) -> usize {
        let free = !self.valid & (u8::MAX >> (MAX_WAYS - ways));
        if free != 0 {
            return free.trailing_zeros() as usize;
        }
        let oldest = ways as u8 - 1;
        let mut lru = 0u8;
        for (w, &r) in self.ranks.iter().enumerate() {
            lru |= u8::from(r == oldest) << w;
        }
        lru.trailing_zeros() as usize
    }
}

/// A set-associative write-back cache of 64-byte lines with exact LRU
/// replacement.
///
/// The metadata of each set is one fixed `Set` record: tags, LRU ranks
/// and `valid`/`dirty` bit masks. Line data lives in one slab of 64-byte
/// lines indexed `set * ways + way`. The victim of a full set is the way of
/// rank `ways - 1`.
///
/// [`load`](Self::load) reads a span in chunks of at most `nsets` lines,
/// each with one [`Memory::read`]. Then a hit overwrites its piece of the
/// buffer from the cache and a miss installs its line from the buffer. A
/// chunk holds consecutive lines, so no two of its lines share a set, and
/// a victim evicted inside the chunk is never one of the chunk's lines:
/// its writeback cannot touch bytes the chunk already read. A partial line
/// at either end of the span reads its whole line on a miss.
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
    sets: Vec<Set>,
    data: Vec<[u8; LINE_BYTES]>,
    ways: usize,
    stats: CacheStats,
    journal: Option<Vec<PersistEvent>>,
}

impl CpuCache {
    /// Creates a cache of `size_bytes` with `ways` associativity.
    ///
    /// # Panics
    ///
    /// Panics unless `ways` is in `1..=8`, `size_bytes` is a multiple of
    /// `ways * 64` and the resulting set count is a power of two.
    pub fn new(size_bytes: usize, ways: usize) -> Self {
        assert!(ways > 0, "associativity must be positive");
        assert!(ways <= MAX_WAYS, "associativity must be at most {MAX_WAYS}");
        assert!(
            size_bytes.is_multiple_of(ways * LINE_BYTES),
            "size must be a multiple of ways*64"
        );
        let nsets = size_bytes / (ways * LINE_BYTES);
        assert!(nsets.is_power_of_two(), "set count must be a power of two");
        CpuCache {
            sets: vec![Set::EMPTY; nsets],
            data: vec![[0; LINE_BYTES]; nsets * ways],
            ways,
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

    /// The `(set, way)` holding `line_addr`, without touching it.
    fn find(&self, line_addr: u64) -> Option<(usize, usize)> {
        let set = self.set_of(line_addr);
        self.sets[set].find(line_addr).map(|w| (set, w))
    }

    /// The data of way `w` of set `s`.
    fn line(&mut self, s: usize, w: usize) -> &mut [u8; LINE_BYTES] {
        &mut self.data[s * self.ways + w]
    }

    /// Looks `line_addr` up in set `s` and touches it on a hit. Returns
    /// its way.
    fn hit(&mut self, s: usize, line_addr: u64) -> Option<usize> {
        let w = self.sets[s].find(line_addr)?;
        self.sets[s].touch(w);
        Some(w)
    }

    /// Makes room for `line_addr` in set `s` as its most recent clean line,
    /// writing back a dirty victim. Returns its way; the caller fills the
    /// line's data.
    fn install(&mut self, mem: &mut impl Memory, s: usize, line_addr: u64) -> usize {
        let w = self.sets[s].slot(self.ways);
        self.write_back(mem, s, w);
        let set = &mut self.sets[s];
        set.tags[w] = line_addr;
        set.valid |= 1 << w;
        set.touch(w);
        w
    }

    /// Loads `buf.len()` bytes from `addr` through the cache.
    pub fn load(&mut self, mem: &mut impl Memory, addr: u64, buf: &mut [u8]) {
        let chunk_lines = self.sets.len() as u64;
        let mut pos = 0;
        while pos < buf.len() {
            let a = addr + pos as u64;
            let chunk_end = (a / LINE + chunk_lines) * LINE;
            let n = ((chunk_end - a) as usize).min(buf.len() - pos);
            self.load_chunk(mem, a, &mut buf[pos..pos + n]);
            pos += n;
        }
    }

    /// Loads a span of at most `nsets` lines: one memory read, then one
    /// hit or install per line (see the type's doc for why that is exact).
    fn load_chunk(&mut self, mem: &mut impl Memory, addr: u64, buf: &mut [u8]) {
        mem.read(addr, buf);
        let off = (addr % LINE) as usize;
        let head = ((LINE_BYTES - off) % LINE_BYTES).min(buf.len());
        let (head, body) = buf.split_at_mut(head);
        if !head.is_empty() {
            self.load_piece(mem, addr / LINE, off, head);
        }
        let mut line_addr = (addr + head.len() as u64) / LINE;
        let (lines, tail) = body.as_chunks_mut::<LINE_BYTES>();
        for line in lines {
            self.load_piece(mem, line_addr, 0, line);
            line_addr += 1;
        }
        if !tail.is_empty() {
            self.load_piece(mem, line_addr, 0, tail);
        }
    }

    /// Loads the `piece` of line `line_addr` that starts `off` bytes into
    /// it. `piece` already holds memory's bytes: a hit overwrites them from
    /// the cache, a miss installs them (reading the whole line if the piece
    /// is partial).
    // Inlined so the whole-line loop's copies are fixed 64-byte moves; left
    // to itself the compiler keeps one out-of-line copy for all three
    // callers.
    #[inline(always)]
    fn load_piece(&mut self, mem: &mut impl Memory, line_addr: u64, off: usize, piece: &mut [u8]) {
        let s = self.set_of(line_addr);
        if let Some(w) = self.hit(s, line_addr) {
            self.stats.load_hits += 1;
            piece.copy_from_slice(&self.line(s, w)[off..off + piece.len()]);
        } else {
            self.stats.load_misses += 1;
            let w = self.install(mem, s, line_addr);
            let line = self.line(s, w);
            match <&[u8; LINE_BYTES]>::try_from(&*piece) {
                Ok(full) => *line = *full,
                Err(_) => mem.read(line_addr * LINE, line),
            }
        }
    }

    /// Stores `data` to `addr` through the cache (write-allocate,
    /// write-back). A miss on a whole line skips the allocate read, since
    /// the store overwrites all of it.
    pub fn store(&mut self, mem: &mut impl Memory, addr: u64, data: &[u8]) {
        self.journal_push(PersistEvent::Store {
            addr,
            len: data.len() as u64,
        });
        let mut pos = 0;
        while pos < data.len() {
            let a = addr + pos as u64;
            let (line_addr, off) = (a / LINE, (a % LINE) as usize);
            let n = (LINE_BYTES - off).min(data.len() - pos);
            let s = self.set_of(line_addr);
            let w = if let Some(w) = self.hit(s, line_addr) {
                self.stats.store_hits += 1;
                w
            } else {
                self.stats.store_misses += 1;
                let w = self.install(mem, s, line_addr);
                if n < LINE_BYTES {
                    mem.read(line_addr * LINE, self.line(s, w));
                }
                w
            };
            self.line(s, w)[off..off + n].copy_from_slice(&data[pos..pos + n]);
            self.sets[s].dirty |= 1 << w;
            pos += n;
        }
    }

    /// Writes back way `w` of set `s` if it is dirty and marks it clean.
    /// Only a valid way can be dirty.
    fn write_back(&mut self, mem: &mut impl Memory, s: usize, w: usize) {
        let set = &mut self.sets[s];
        if set.dirty & (1 << w) != 0 {
            mem.write(set.tags[w] * LINE, &self.data[s * self.ways + w]);
            set.dirty &= !(1 << w);
            self.stats.writebacks += 1;
        }
    }

    /// `clflush`: writes back (if dirty) and invalidates the line holding
    /// `addr`. No-op if the line is not cached.
    pub fn clflush(&mut self, mem: &mut impl Memory, addr: u64) {
        self.stats.clflushes += 1;
        self.journal_push(PersistEvent::Clflush {
            addr: addr / LINE * LINE,
        });
        if let Some((s, w)) = self.find(addr / LINE) {
            self.write_back(mem, s, w);
            self.sets[s].remove(w);
        }
    }

    /// `clwb`: writes back (if dirty) but keeps the line resident clean.
    pub fn clwb(&mut self, mem: &mut impl Memory, addr: u64) {
        self.journal_push(PersistEvent::Clwb {
            addr: addr / LINE * LINE,
        });
        if let Some((s, w)) = self.find(addr / LINE) {
            self.write_back(mem, s, w);
        }
    }

    /// Drops the line holding `addr` **without** writeback — the driver's
    /// post-cachefill invalidation (stale-data discard).
    pub fn invalidate(&mut self, addr: u64) {
        if let Some((s, w)) = self.find(addr / LINE) {
            self.sets[s].remove(w);
            self.stats.invalidations += 1;
        }
    }

    /// Flushes every line in `[addr, addr+len)` (the driver flushes a 4 KB
    /// page as 64 clflushes). An empty range flushes nothing.
    pub fn clflush_range(&mut self, mem: &mut impl Memory, addr: u64, len: u64) {
        for line in lines_of(addr, len) {
            self.clflush(mem, line * LINE);
        }
    }

    /// Invalidates every line in `[addr, addr+len)`. An empty range
    /// invalidates nothing.
    pub fn invalidate_range(&mut self, addr: u64, len: u64) {
        for line in lines_of(addr, len) {
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
        for s in 0..self.sets.len() {
            for w in 0..self.ways {
                self.write_back(mem, s, w);
            }
        }
    }

    /// Drops every line without writeback — what a power failure does to
    /// volatile CPU caches.
    pub fn discard_all(&mut self) {
        for set in &mut self.sets {
            self.stats.invalidations += u64::from(set.valid.count_ones());
            *set = Set::EMPTY;
        }
    }

    /// Whether the line holding `addr` is resident and dirty.
    pub fn is_dirty(&self, addr: u64) -> bool {
        self.find(addr / LINE)
            .is_some_and(|(s, w)| self.sets[s].dirty & (1 << w) != 0)
    }
}

/// The line addresses `[addr, addr+len)` touches: none when `len` is 0.
fn lines_of(addr: u64, len: u64) -> std::ops::Range<u64> {
    if len == 0 {
        return 0..0;
    }
    addr / LINE..(addr + len - 1) / LINE + 1
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
    fn empty_flush_range_flushes_nothing() {
        let (mut c, mut m) = setup();
        c.store(&mut m, 64, &[5u8; 64]);
        c.clflush_range(&mut m, 100, 0);
        assert!(c.is_dirty(64), "an empty range flushed the line at 64");
        assert_eq!(c.stats().clflushes, 0);
        assert_eq!(c.stats().writebacks, 0);
    }

    #[test]
    fn empty_invalidate_range_drops_nothing() {
        let (mut c, mut m) = setup();
        c.store(&mut m, 0, &[5u8; 128]);
        c.invalidate_range(0, 0);
        c.invalidate_range(100, 0);
        assert!(c.is_dirty(0) && c.is_dirty(64));
        assert_eq!(c.stats().invalidations, 0);
    }

    /// Counts the reads that reach memory.
    struct CountingMemory {
        inner: VecMemory,
        reads: usize,
    }

    impl Memory for CountingMemory {
        fn read(&mut self, addr: u64, buf: &mut [u8]) {
            self.reads += 1;
            self.inner.read(addr, buf);
        }
        fn write(&mut self, addr: u64, data: &[u8]) {
            self.inner.write(addr, data);
        }
        fn capacity(&self) -> u64 {
            self.inner.capacity()
        }
    }

    #[test]
    fn a_page_load_reads_memory_once_per_chunk() {
        // 16 sets: a chunk is 16 lines, so an aligned 4 KB page is 4 reads.
        let mut c = CpuCache::new(16 * 4 * 64, 4);
        let mut m = CountingMemory {
            inner: VecMemory::new(1 << 16),
            reads: 0,
        };
        let page: Vec<u8> = (0..4096).map(|i| i as u8).collect();
        m.inner.write(4096, &page);
        let mut buf = vec![0u8; 4096];
        c.load(&mut m, 4096, &mut buf);
        assert_eq!(buf, page);
        assert_eq!(m.reads, 4);
        assert_eq!(c.stats().load_misses, 64);
        // Unaligned: 64 pieces over 65 lines, with two partial edge lines
        // that miss and read their whole line.
        m.reads = 0;
        c.load(&mut m, 4096 * 2 + 8, &mut buf);
        assert_eq!(m.reads, 5 + 2);
    }

    #[test]
    fn a_full_line_store_miss_skips_the_allocate_read() {
        let mut c = CpuCache::new(4096, 4);
        let mut m = CountingMemory {
            inner: VecMemory::new(1 << 16),
            reads: 0,
        };
        c.store(&mut m, 128, &[1u8; 128]);
        assert_eq!(m.reads, 0);
        c.store(&mut m, 512 + 8, &[1u8; 8]);
        assert_eq!(m.reads, 1, "a partial line still allocates from memory");
        assert_eq!(c.stats().store_misses, 3);
    }

    #[test]
    #[should_panic(expected = "at most 8")]
    fn more_than_eight_ways_is_rejected() {
        let _ = CpuCache::new(16 * 64, 16);
    }

    #[test]
    fn sfence_counts() {
        let (mut c, _) = setup();
        c.sfence();
        c.sfence();
        assert_eq!(c.stats().sfences, 2);
    }
}
