//! The DRAM cache slot manager (paper §IV-B).
//!
//! A fully associative cache of 4 KB slots over the reserved DRAM region.
//! The PoC's replacement policy is **LRC** — least-recently *cached*: "the
//! nvdc driver stores the pointer to the associated PTE in a FIFO manner
//! ... whenever eviction is needed, the first entry of the FIFO queue is
//! selected as a victim". LRU and CLOCK are provided for the paper's
//! §VII-B5 policy study.

use crate::config::EvictionPolicyKind;
use serde::{Deserialize, Serialize};
use std::collections::{BTreeSet, HashMap, VecDeque};

/// Cache statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct CacheStats {
    /// Lookups that hit.
    pub hits: u64,
    /// Lookups that missed.
    pub misses: u64,
    /// Evictions performed.
    pub evictions: u64,
    /// Evictions whose victim was dirty (required writeback).
    pub dirty_evictions: u64,
}

impl CacheStats {
    /// Hit ratio in `[0, 1]`; 0 when no lookups happened.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct SlotMeta {
    nand_page: Option<u64>,
    dirty: bool,
    /// CLOCK reference bit.
    referenced: bool,
    /// LRU timestamp.
    last_touch: u64,
    /// Tick at which the slot was last filled (validates LRC queue
    /// entries lazily).
    fill_tick: u64,
}

/// The slot manager: NAND page → slot mapping plus eviction policy state.
///
/// Pure bookkeeping — data movement and timing live in the driver/FPGA.
///
/// # Example
///
/// ```
/// use nvdimmc_core::cache::DramCache;
/// use nvdimmc_core::config::EvictionPolicyKind;
///
/// let mut cache = DramCache::new(2, EvictionPolicyKind::Lrc);
/// assert_eq!(cache.lookup(10), None);
/// let slot = cache.take_free_slot().unwrap();
/// cache.fill(slot, 10);
/// assert_eq!(cache.lookup(10), Some(slot));
/// ```
#[derive(Debug)]
pub struct DramCache {
    slots: Vec<SlotMeta>,
    map: HashMap<u64, u64>,
    free: VecDeque<u64>,
    policy: EvictionPolicyKind,
    /// LRC: FIFO of (slot, fill_tick); stale entries are skipped lazily.
    lrc_queue: VecDeque<(u64, u64)>,
    /// LRU: ordered (last_touch, slot) set.
    lru_index: BTreeSet<(u64, u64)>,
    /// CLOCK hand position.
    clock_hand: u64,
    tick: u64,
    stats: CacheStats,
}

impl DramCache {
    /// Creates an empty cache of `slot_count` slots.
    ///
    /// # Panics
    ///
    /// Panics if `slot_count` is zero.
    pub fn new(slot_count: u64, policy: EvictionPolicyKind) -> Self {
        assert!(slot_count > 0, "cache needs at least one slot");
        DramCache {
            slots: vec![
                SlotMeta {
                    nand_page: None,
                    dirty: false,
                    referenced: false,
                    last_touch: 0,
                    fill_tick: 0,
                };
                slot_count as usize
            ],
            map: HashMap::new(),
            free: (0..slot_count).collect(),
            policy,
            lrc_queue: VecDeque::new(),
            lru_index: BTreeSet::new(),
            clock_hand: 0,
            tick: 0,
            stats: CacheStats::default(),
        }
    }

    /// Total slots.
    pub fn slot_count(&self) -> u64 {
        self.slots.len() as u64
    }

    /// Free slots remaining.
    pub fn free_slots(&self) -> u64 {
        self.free.len() as u64
    }

    /// Occupied slots.
    pub fn resident(&self) -> u64 {
        self.map.len() as u64
    }

    /// The policy in use.
    pub fn policy(&self) -> EvictionPolicyKind {
        self.policy
    }

    /// Counters.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Looks up a NAND page; touches policy state on hit.
    pub fn lookup(&mut self, nand_page: u64) -> Option<u64> {
        match self.map.get(&nand_page).copied() {
            Some(slot) => {
                self.stats.hits += 1;
                self.touch(slot);
                Some(slot)
            }
            None => {
                self.stats.misses += 1;
                None
            }
        }
    }

    /// Peeks without counting a hit/miss or touching recency.
    pub fn peek(&self, nand_page: u64) -> Option<u64> {
        self.map.get(&nand_page).copied()
    }

    fn touch(&mut self, slot: u64) {
        self.tick += 1;
        let meta = &mut self.slots[slot as usize];
        meta.referenced = true;
        match self.policy {
            EvictionPolicyKind::Lru => {
                self.lru_index.remove(&(meta.last_touch, slot));
                meta.last_touch = self.tick;
                self.lru_index.insert((meta.last_touch, slot));
            }
            EvictionPolicyKind::Lrc | EvictionPolicyKind::Clock => {
                meta.last_touch = self.tick;
            }
        }
    }

    /// Marks a resident slot dirty (CPU stored to it).
    ///
    /// # Panics
    ///
    /// Panics if the slot is not resident.
    pub fn mark_dirty(&mut self, slot: u64) {
        let meta = &mut self.slots[slot as usize];
        assert!(meta.nand_page.is_some(), "dirtying a free slot");
        meta.dirty = true;
    }

    /// Marks a resident slot clean again (its contents were written back
    /// to NAND by the rebuild path, so DRAM and media agree).
    ///
    /// # Panics
    ///
    /// Panics if the slot is not resident.
    pub fn mark_clean(&mut self, slot: u64) {
        let meta = &mut self.slots[slot as usize];
        assert!(meta.nand_page.is_some(), "cleaning a free slot");
        meta.dirty = false;
    }

    /// Whether the slot is dirty.
    pub fn is_dirty(&self, slot: u64) -> bool {
        self.slots[slot as usize].dirty
    }

    /// The NAND page resident in `slot`, if any.
    pub fn page_of(&self, slot: u64) -> Option<u64> {
        self.slots[slot as usize].nand_page
    }

    /// Takes a free slot, if any.
    pub fn take_free_slot(&mut self) -> Option<u64> {
        self.free.pop_front()
    }

    /// Chooses the eviction victim per the configured policy without
    /// removing it. Returns `(slot, page, dirty)`.
    ///
    /// Returns `None` when nothing is resident.
    pub fn pick_victim(&mut self) -> Option<(u64, u64, bool)> {
        if self.map.is_empty() {
            return None;
        }
        let slot = match self.policy {
            // The first *live* FIFO entry; stale front entries are
            // dropped on the way (cheap, keeps the queue bounded).
            EvictionPolicyKind::Lrc => loop {
                let &(s, t) = self.lrc_queue.front()?;
                let meta = &self.slots[s as usize];
                if meta.nand_page.is_some() && meta.fill_tick == t {
                    break s;
                }
                self.lrc_queue.pop_front();
            },
            EvictionPolicyKind::Lru => self.lru_index.first()?.1,
            EvictionPolicyKind::Clock => {
                let n = self.slots.len() as u64;
                loop {
                    let s = self.clock_hand % n;
                    self.clock_hand = (self.clock_hand + 1) % n;
                    let meta = &mut self.slots[s as usize];
                    if meta.nand_page.is_none() {
                        continue;
                    }
                    if meta.referenced {
                        meta.referenced = false;
                    } else {
                        break s;
                    }
                }
            }
        };
        let meta = self.slots[slot as usize];
        Some((slot, meta.nand_page?, meta.dirty))
    }

    /// Evicts a resident slot. Returns the page it held. The slot is NOT
    /// returned to the free list — the caller either refills it (the
    /// fault path) or hands it back with [`DramCache::release`].
    ///
    /// # Panics
    ///
    /// Panics if the slot is not resident.
    #[allow(clippy::expect_used)] // documented contract: resident slot required
    pub fn evict(&mut self, slot: u64) -> u64 {
        let meta = &mut self.slots[slot as usize];
        let page = meta.nand_page.take().expect("evicting a free slot");
        let was_dirty = meta.dirty;
        let last = meta.last_touch;
        meta.dirty = false;
        meta.referenced = false;
        self.map.remove(&page);
        // The LRC queue entry goes stale and is skipped lazily.
        self.lru_index.remove(&(last, slot));
        self.stats.evictions += 1;
        if was_dirty {
            self.stats.dirty_evictions += 1;
        }
        page
    }

    /// Returns an evicted (or never-used) slot to the free list.
    ///
    /// # Panics
    ///
    /// Panics if the slot is resident.
    pub fn release(&mut self, slot: u64) {
        assert!(
            self.slots[slot as usize].nand_page.is_none(),
            "releasing a resident slot"
        );
        self.free.push_back(slot);
    }

    /// Fills a free slot with `nand_page`.
    ///
    /// # Panics
    ///
    /// Panics if the slot is occupied or the page is already resident.
    pub fn fill(&mut self, slot: u64, nand_page: u64) {
        assert!(
            self.slots[slot as usize].nand_page.is_none(),
            "filling an occupied slot"
        );
        assert!(
            !self.map.contains_key(&nand_page),
            "page {nand_page} already resident"
        );
        self.tick += 1;
        let meta = &mut self.slots[slot as usize];
        meta.nand_page = Some(nand_page);
        meta.dirty = false;
        meta.referenced = true;
        meta.last_touch = self.tick;
        meta.fill_tick = self.tick;
        self.map.insert(nand_page, slot);
        self.lrc_queue.push_back((slot, self.tick));
        if self.policy == EvictionPolicyKind::Lru {
            self.lru_index.insert((self.tick, slot));
        }
    }

    /// Iterates over resident `(slot, page, dirty)` entries — the
    /// power-fail flush walks this via the metadata area.
    pub fn resident_entries(&self) -> impl Iterator<Item = (u64, u64, bool)> + '_ {
        self.slots
            .iter()
            .enumerate()
            .filter_map(|(i, m)| m.nand_page.map(|p| (i as u64, p, m.dirty)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fill_next(c: &mut DramCache, page: u64) -> u64 {
        let slot = c.take_free_slot().expect("free slot");
        c.fill(slot, page);
        slot
    }

    #[test]
    fn hit_and_miss_accounting() {
        let mut c = DramCache::new(4, EvictionPolicyKind::Lrc);
        assert_eq!(c.lookup(1), None);
        let s = fill_next(&mut c, 1);
        assert_eq!(c.lookup(1), Some(s));
        let st = c.stats();
        assert_eq!((st.hits, st.misses), (1, 1));
        assert!((st.hit_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn lrc_evicts_fill_order_regardless_of_use() {
        let mut c = DramCache::new(3, EvictionPolicyKind::Lrc);
        let s0 = fill_next(&mut c, 10);
        fill_next(&mut c, 11);
        fill_next(&mut c, 12);
        // Heavy re-use of the oldest page must NOT save it under LRC.
        for _ in 0..10 {
            c.lookup(10);
        }
        let (victim, page, _) = c.pick_victim().unwrap();
        assert_eq!((victim, page), (s0, 10), "LRC ignores recency of use");
    }

    #[test]
    fn lru_spares_recently_used() {
        let mut c = DramCache::new(3, EvictionPolicyKind::Lru);
        fill_next(&mut c, 10);
        let s1 = fill_next(&mut c, 11);
        fill_next(&mut c, 12);
        c.lookup(10); // refresh page 10
        let (victim, page, _) = c.pick_victim().unwrap();
        assert_eq!((victim, page), (s1, 11), "LRU evicts the stale page");
    }

    #[test]
    fn clock_gives_second_chance() {
        let mut c = DramCache::new(3, EvictionPolicyKind::Clock);
        fill_next(&mut c, 10);
        fill_next(&mut c, 11);
        fill_next(&mut c, 12);
        // All referenced: first sweep clears bits, victim is slot 0 on the
        // second pass.
        let (v1, _, _) = c.pick_victim().unwrap();
        assert_eq!(v1, 0);
        // Touch page 10 (slot 0): now slot 1 is the victim.
        c.lookup(10);
        let (v2, _, _) = c.pick_victim().unwrap();
        assert_eq!(v2, 1, "referenced slot got its second chance");
    }

    #[test]
    fn evict_frees_and_forgets() {
        let mut c = DramCache::new(2, EvictionPolicyKind::Lrc);
        let s = fill_next(&mut c, 5);
        c.mark_dirty(s);
        let page = c.evict(s);
        assert_eq!(page, 5);
        assert_eq!(c.peek(5), None);
        assert_eq!(c.free_slots(), 1, "evicted slot reserved for refill");
        c.release(s);
        assert_eq!(c.free_slots(), 2);
        assert!(!c.is_dirty(s), "dirty bit cleared on eviction");
        assert_eq!(c.stats().dirty_evictions, 1);
    }

    #[test]
    fn refill_after_evict_works() {
        let mut c = DramCache::new(1, EvictionPolicyKind::Lru);
        let s = fill_next(&mut c, 1);
        c.evict(s);
        // The fault path refills the evicted slot directly.
        c.fill(s, 2);
        assert_eq!(c.lookup(2), Some(s));
    }

    #[test]
    #[should_panic(expected = "already resident")]
    fn double_fill_same_page_panics() {
        let mut c = DramCache::new(2, EvictionPolicyKind::Lrc);
        fill_next(&mut c, 1);
        fill_next(&mut c, 1);
    }

    #[test]
    #[should_panic(expected = "occupied slot")]
    fn fill_occupied_slot_panics() {
        let mut c = DramCache::new(2, EvictionPolicyKind::Lrc);
        let s = fill_next(&mut c, 1);
        c.fill(s, 2);
    }

    #[test]
    fn resident_entries_reports_dirty() {
        let mut c = DramCache::new(4, EvictionPolicyKind::Lrc);
        let a = fill_next(&mut c, 7);
        fill_next(&mut c, 8);
        c.mark_dirty(a);
        let entries: Vec<_> = c.resident_entries().collect();
        assert_eq!(entries.len(), 2);
        assert!(entries.contains(&(a, 7, true)));
    }

    /// The three victim policies from their textbook definitions, kept
    /// apart from the cache's own bookkeeping.
    struct Reference {
        policy: EvictionPolicyKind,
        /// LRC: resident pages in fill order. LRU: in recency order. The
        /// victim is the front.
        queue: VecDeque<u64>,
        /// CLOCK: each slot's page and reference bit, and the hand.
        frames: Vec<Option<(u64, bool)>>,
        hand: usize,
    }

    impl Reference {
        fn new(policy: EvictionPolicyKind, slots: usize) -> Self {
            Reference {
                policy,
                queue: VecDeque::new(),
                frames: vec![None; slots],
                hand: 0,
            }
        }

        fn hit(&mut self, slot: u64, page: u64) {
            match self.policy {
                EvictionPolicyKind::Lrc => {}
                EvictionPolicyKind::Lru => {
                    self.queue.retain(|&p| p != page);
                    self.queue.push_back(page);
                }
                EvictionPolicyKind::Clock => self.frames[slot as usize] = Some((page, true)),
            }
        }

        fn fill(&mut self, slot: u64, page: u64) {
            self.queue.push_back(page);
            self.frames[slot as usize] = Some((page, true));
        }

        /// Removes the victim and returns its page.
        fn evict(&mut self) -> u64 {
            match self.policy {
                EvictionPolicyKind::Lrc | EvictionPolicyKind::Lru => {
                    self.queue.pop_front().expect("resident page")
                }
                EvictionPolicyKind::Clock => loop {
                    let n = self.frames.len();
                    let frame = &mut self.frames[self.hand];
                    self.hand = (self.hand + 1) % n;
                    match frame {
                        Some((_, referenced)) if *referenced => *referenced = false,
                        Some(_) => break frame.take().expect("resident frame").0,
                        None => {}
                    }
                },
            }
        }
    }

    /// Drives `policy` and its reference model through the same seeded
    /// lookup/fill/evict workload and checks every victim.
    fn workout_matches_reference(policy: EvictionPolicyKind) {
        use nvdimmc_sim::DeterministicRng;
        const SLOTS: u64 = 8;
        let mut rng = DeterministicRng::new(11);
        let mut c = DramCache::new(SLOTS, policy);
        let mut reference = Reference::new(policy, SLOTS as usize);
        let mut evictions = 0;
        for _ in 0..2000 {
            let page = rng.gen_range(0..24);
            if let Some(slot) = c.lookup(page) {
                reference.hit(slot, page);
                continue;
            }
            let slot = match c.take_free_slot() {
                Some(s) => s,
                None => {
                    let (victim, vpage, _) = c.pick_victim().unwrap();
                    assert_eq!(
                        vpage,
                        reference.evict(),
                        "{policy:?} victim diverged from reference"
                    );
                    assert_eq!(c.evict(victim), vpage);
                    evictions += 1;
                    victim
                }
            };
            c.fill(slot, page);
            reference.fill(slot, page);
        }
        assert!(evictions > 1000, "{policy:?}: only {evictions} evictions");
    }

    #[test]
    fn lrc_workout_matches_reference() {
        workout_matches_reference(EvictionPolicyKind::Lrc);
    }

    #[test]
    fn lru_full_workout_matches_reference() {
        workout_matches_reference(EvictionPolicyKind::Lru);
    }

    #[test]
    fn clock_workout_matches_reference() {
        workout_matches_reference(EvictionPolicyKind::Clock);
    }
}
