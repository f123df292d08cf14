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
    /// Tenant priority class (0 = background/default). Victim selection
    /// is restricted to the lowest class present, so a low-priority fill
    /// can never evict a higher-priority tenant's slot while any slot of
    /// its own class remains.
    prio: u8,
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
                    prio: 0,
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

    /// The lowest priority class among resident slots — the only class
    /// victims may come from.
    fn prio_floor(&self) -> u8 {
        self.slots
            .iter()
            .filter(|m| m.nand_page.is_some())
            .map(|m| m.prio)
            .min()
            .unwrap_or(0)
    }

    /// Chooses the eviction victim per the configured policy without
    /// removing it. Returns `(slot, page, dirty)`.
    ///
    /// Victim selection is *priority-aware*: only slots in the lowest
    /// priority class currently resident are candidates, so a background
    /// tenant's fill can never displace a foreground tenant's hot slot
    /// while any background slot remains. When every slot carries the
    /// default priority 0 (all pre-tenancy callers), the floor is 0 and
    /// the selection is exactly the classic policy.
    ///
    /// Returns `None` when nothing is resident.
    pub fn pick_victim(&mut self) -> Option<(u64, u64, bool)> {
        if self.map.is_empty() {
            return None;
        }
        let floor = self.prio_floor();
        let slot = match self.policy {
            EvictionPolicyKind::Lrc => {
                // Drop stale front entries eagerly (cheap, keeps the
                // queue bounded), then take the first *live* entry in the
                // floor class — higher-priority entries are passed over
                // in place, preserving their FIFO position.
                loop {
                    let &(s, t) = self.lrc_queue.front()?;
                    let meta = &self.slots[s as usize];
                    if meta.nand_page.is_some() && meta.fill_tick == t {
                        break;
                    }
                    self.lrc_queue.pop_front();
                }
                self.lrc_queue
                    .iter()
                    .find(|&&(s, t)| {
                        let meta = &self.slots[s as usize];
                        meta.nand_page.is_some() && meta.fill_tick == t && meta.prio == floor
                    })
                    .map(|&(s, _)| s)?
            }
            EvictionPolicyKind::Lru => {
                self.lru_index
                    .iter()
                    .find(|&&(_, s)| self.slots[s as usize].prio == floor)?
                    .1
            }
            EvictionPolicyKind::Clock => {
                let n = self.slots.len() as u64;
                loop {
                    let s = self.clock_hand % n;
                    self.clock_hand = (self.clock_hand + 1) % n;
                    let meta = &mut self.slots[s as usize];
                    if meta.nand_page.is_none() || meta.prio != floor {
                        // Protected slots keep their reference bit — the
                        // hand passes without aging them.
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
        meta.prio = 0;
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
        meta.prio = 0;
        self.map.insert(nand_page, slot);
        self.lrc_queue.push_back((slot, self.tick));
        if self.policy == EvictionPolicyKind::Lru {
            self.lru_index.insert((self.tick, slot));
        }
    }

    /// Sets a resident slot's priority class.
    ///
    /// # Panics
    ///
    /// Panics if the slot is not resident.
    pub fn set_priority(&mut self, slot: u64, prio: u8) {
        let meta = &mut self.slots[slot as usize];
        assert!(meta.nand_page.is_some(), "prioritising a free slot");
        meta.prio = prio;
    }

    /// Raises a resident slot's priority class to at least `prio`
    /// (never lowers it) — the hit path calls this so a slot shared by
    /// tenants of different classes keeps the strongest protection.
    ///
    /// # Panics
    ///
    /// Panics if the slot is not resident.
    pub fn promote(&mut self, slot: u64, prio: u8) {
        let meta = &mut self.slots[slot as usize];
        assert!(meta.nand_page.is_some(), "promoting a free slot");
        meta.prio = meta.prio.max(prio);
    }

    /// A resident slot's priority class (0 for free slots).
    pub fn priority_of(&self, slot: u64) -> u8 {
        self.slots[slot as usize].prio
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

    #[test]
    fn priority_floor_protects_foreground_slots() {
        for policy in [
            EvictionPolicyKind::Lrc,
            EvictionPolicyKind::Lru,
            EvictionPolicyKind::Clock,
        ] {
            let mut c = DramCache::new(3, policy);
            let fg = fill_next(&mut c, 10); // oldest fill, foreground
            c.set_priority(fg, 1);
            let bg1 = fill_next(&mut c, 11);
            let bg2 = fill_next(&mut c, 12);
            // Despite being oldest/least-recent, the foreground slot is
            // never the victim while any background slot remains.
            let (v1, _, _) = c.pick_victim().unwrap();
            assert!(v1 == bg1 || v1 == bg2, "{policy:?} evicted foreground");
            c.evict(v1);
            let (v2, _, _) = c.pick_victim().unwrap();
            assert!(v2 == bg1 || v2 == bg2, "{policy:?} evicted foreground");
            assert_ne!(v1, v2);
            c.evict(v2);
            // Only the foreground slot remains: the floor drops to 1 and
            // it becomes evictable — no deadlock.
            let (v3, page, _) = c.pick_victim().unwrap();
            assert_eq!((v3, page), (fg, 10));
        }
    }

    #[test]
    fn promote_raises_but_never_lowers() {
        let mut c = DramCache::new(2, EvictionPolicyKind::Lrc);
        let s = fill_next(&mut c, 1);
        assert_eq!(c.priority_of(s), 0);
        c.promote(s, 1);
        c.promote(s, 0); // no-op: promote never demotes
        assert_eq!(c.priority_of(s), 1);
        // Eviction resets the class; a refill starts at 0 again.
        c.evict(s);
        c.fill(s, 2);
        assert_eq!(c.priority_of(s), 0);
    }

    #[test]
    fn uniform_priority_matches_classic_policies() {
        // With every slot at the default class the floor logic must
        // reproduce the classic victims (the bit-identity guarantee for
        // pre-tenancy callers). Re-run the LRC scenario explicitly.
        let mut c = DramCache::new(3, EvictionPolicyKind::Lrc);
        let s0 = fill_next(&mut c, 10);
        fill_next(&mut c, 11);
        fill_next(&mut c, 12);
        assert_eq!(c.pick_victim().unwrap().0, s0);
    }

    #[test]
    fn lru_full_workout_matches_reference() {
        // Cross-check LRU against a simple reference model under a random
        // workload.
        use nvdimmc_sim::DeterministicRng;
        let mut rng = DeterministicRng::new(11);
        let mut c = DramCache::new(8, EvictionPolicyKind::Lru);
        let mut reference: Vec<u64> = Vec::new(); // most recent at back
        for _ in 0..2000 {
            let page = rng.gen_range(0..24);
            if c.lookup(page).is_some() {
                reference.retain(|&p| p != page);
                reference.push(page);
            } else {
                let slot = match c.take_free_slot() {
                    Some(s) => s,
                    None => {
                        let (victim, vpage, _) = c.pick_victim().unwrap();
                        assert_eq!(vpage, reference[0], "LRU victim diverged from reference");
                        reference.remove(0);
                        c.evict(victim);
                        victim
                    }
                };
                c.fill(slot, page);
                reference.push(page);
            }
        }
    }
}
