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
use std::collections::{HashMap, VecDeque};

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

/// End-of-list marker for the slot links.
const NIL: u64 = u64::MAX;

/// One slot's record. Resident slots are linked in fill order (LRU: in
/// recency order), oldest at the head; a free slot's links are unused.
#[derive(Debug, Clone, Copy, Default)]
struct Slot {
    nand_page: Option<u64>,
    dirty: bool,
    /// CLOCK reference bit.
    referenced: bool,
    prev: u64,
    next: u64,
}

/// The slot manager: NAND page → slot mapping plus eviction policy state.
///
/// Pure bookkeeping — data movement and timing live in the driver/FPGA.
/// Records exist only for slots below a high-water mark, so building and
/// dropping a cache costs nothing per slot: slots at or above the mark
/// are free and never used, and are handed out in ascending order before
/// any released slot, which come back in release order.
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
    slot_count: u64,
    /// Records of the slots below the high-water mark (`slots.len()`).
    slots: Vec<Slot>,
    map: HashMap<u64, u64>,
    /// Released slots below the mark, in release order.
    released: VecDeque<u64>,
    /// Oldest and newest resident slot of the fill/recency list.
    head: u64,
    tail: u64,
    policy: EvictionPolicyKind,
    /// CLOCK hand position.
    clock_hand: u64,
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
            slot_count,
            slots: Vec::new(),
            map: HashMap::new(),
            released: VecDeque::new(),
            head: NIL,
            tail: NIL,
            policy,
            clock_hand: 0,
            stats: CacheStats::default(),
        }
    }

    /// Total slots.
    pub fn slot_count(&self) -> u64 {
        self.slot_count
    }

    /// Free slots remaining.
    pub fn free_slots(&self) -> u64 {
        self.slot_count - self.slots.len() as u64 + self.released.len() as u64
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
        let Some(slot) = self.map.get(&nand_page).copied() else {
            self.stats.misses += 1;
            return None;
        };
        self.stats.hits += 1;
        self.slots[slot as usize].referenced = true;
        if self.policy == EvictionPolicyKind::Lru {
            self.unlink(slot);
            self.push_tail(slot);
        }
        Some(slot)
    }

    /// Peeks without counting a hit/miss or touching recency.
    pub fn peek(&self, nand_page: u64) -> Option<u64> {
        self.map.get(&nand_page).copied()
    }

    fn unlink(&mut self, slot: u64) {
        let Slot { prev, next, .. } = self.slots[slot as usize];
        match prev {
            NIL => self.head = next,
            p => self.slots[p as usize].next = next,
        }
        match next {
            NIL => self.tail = prev,
            n => self.slots[n as usize].prev = prev,
        }
    }

    fn push_tail(&mut self, slot: u64) {
        let meta = &mut self.slots[slot as usize];
        meta.prev = self.tail;
        meta.next = NIL;
        match self.tail {
            NIL => self.head = slot,
            t => self.slots[t as usize].next = slot,
        }
        self.tail = slot;
    }

    /// The record of a resident slot.
    fn resident_slot(&mut self, slot: u64, what: &str) -> &mut Slot {
        assert!(self.page_of(slot).is_some(), "{what} a free slot");
        &mut self.slots[slot as usize]
    }

    /// Marks a resident slot dirty (CPU stored to it).
    ///
    /// # Panics
    ///
    /// Panics if the slot is not resident.
    pub fn mark_dirty(&mut self, slot: u64) {
        self.resident_slot(slot, "dirtying").dirty = true;
    }

    /// Marks a resident slot clean again (its contents were written back
    /// to NAND by the rebuild path, so DRAM and media agree).
    ///
    /// # Panics
    ///
    /// Panics if the slot is not resident.
    pub fn mark_clean(&mut self, slot: u64) {
        self.resident_slot(slot, "cleaning").dirty = false;
    }

    /// Whether the slot is dirty.
    pub fn is_dirty(&self, slot: u64) -> bool {
        self.slots.get(slot as usize).is_some_and(|m| m.dirty)
    }

    /// The NAND page resident in `slot`, if any.
    pub fn page_of(&self, slot: u64) -> Option<u64> {
        self.slots.get(slot as usize).and_then(|m| m.nand_page)
    }

    /// Takes a free slot, if any: the lowest never-used slot, else the
    /// earliest released one.
    pub fn take_free_slot(&mut self) -> Option<u64> {
        let mark = self.slots.len() as u64;
        if mark == self.slot_count {
            return self.released.pop_front();
        }
        self.slots.push(Slot::default());
        Some(mark)
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
            EvictionPolicyKind::Lrc | EvictionPolicyKind::Lru => self.head,
            EvictionPolicyKind::Clock => loop {
                let s = self.clock_hand;
                self.clock_hand = (s + 1) % self.slot_count;
                match self.slots.get_mut(s as usize) {
                    Some(meta) if meta.nand_page.is_some() => {
                        if !meta.referenced {
                            break s;
                        }
                        meta.referenced = false;
                    }
                    Some(_) => {}
                    // Every slot from the mark up is free: wrap.
                    None => self.clock_hand = 0,
                }
            },
        };
        let Slot {
            nand_page, dirty, ..
        } = self.slots[slot as usize];
        Some((slot, nand_page?, dirty))
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
        let page = self.page_of(slot).expect("evicting a free slot");
        let meta = &mut self.slots[slot as usize];
        meta.nand_page = None;
        let was_dirty = meta.dirty;
        meta.dirty = false;
        meta.referenced = false;
        self.map.remove(&page);
        self.unlink(slot);
        self.stats.evictions += 1;
        if was_dirty {
            self.stats.dirty_evictions += 1;
        }
        page
    }

    /// Returns an evicted (or taken but never filled) slot to the free
    /// list.
    ///
    /// # Panics
    ///
    /// Panics if the slot is resident.
    pub fn release(&mut self, slot: u64) {
        assert!(self.page_of(slot).is_none(), "releasing a resident slot");
        self.released.push_back(slot);
    }

    /// Fills a slot taken from the free list (or just evicted) with
    /// `nand_page`.
    ///
    /// # Panics
    ///
    /// Panics if the slot is occupied or was never taken, or the page is
    /// already resident.
    pub fn fill(&mut self, slot: u64, nand_page: u64) {
        let meta = &mut self.slots[slot as usize];
        assert!(meta.nand_page.is_none(), "filling an occupied slot");
        assert!(
            !self.map.contains_key(&nand_page),
            "page {nand_page} already resident"
        );
        meta.nand_page = Some(nand_page);
        meta.dirty = false;
        meta.referenced = true;
        self.map.insert(nand_page, slot);
        self.push_tail(slot);
    }

    /// Iterates over resident `(slot, page, dirty)` entries in slot order
    /// — the power-fail flush walks this via the metadata area.
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

    #[test]
    fn new_builds_no_slot_records() {
        let c = DramCache::new(3_932_160, EvictionPolicyKind::Lru);
        assert_eq!(c.slots.capacity(), 0);
        assert_eq!(c.free_slots(), 3_932_160);
        assert_eq!((c.page_of(3_932_159), c.is_dirty(7)), (None, false));
        assert_eq!(c.resident_entries().count(), 0);
    }

    #[test]
    fn free_slots_come_unused_ascending_then_in_release_order() {
        let mut c = DramCache::new(4, EvictionPolicyKind::Lrc);
        let a = fill_next(&mut c, 1);
        let b = fill_next(&mut c, 2);
        c.evict(b);
        c.release(b);
        c.evict(a);
        c.release(a);
        let order: Vec<_> = std::iter::from_fn(|| c.take_free_slot()).collect();
        assert_eq!(order, [2, 3, b, a]);
    }

    #[test]
    fn clock_hand_wraps_past_never_used_slots() {
        let mut c = DramCache::new(6, EvictionPolicyKind::Clock);
        fill_next(&mut c, 10);
        fill_next(&mut c, 11);
        // Slots 2..6 are free: the hand sweeps them, clears both bits and
        // comes back round to slot 0.
        assert_eq!(c.pick_victim(), Some((0, 10, false)));
        assert_eq!(c.pick_victim(), Some((1, 11, false)));
    }

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
