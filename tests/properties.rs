//! Property-based tests (proptest) over the core data structures and
//! invariants:
//!
//! - SEC-DED corrects any single-bit error and never miscorrects double
//!   errors;
//! - the DDR4 CA encode/decode truth table round-trips every command;
//! - the DRAM cache never aliases pages or leaks slots under arbitrary
//!   operation sequences, for all three policies, and its slot table
//!   matches the timestamped cache it replaced call for call;
//! - the FTL matches a flat HashMap model under arbitrary I/O, and its
//!   decode memo matches an FTL that decodes every read, under bit flips
//!   and forced faults;
//! - the full System matches an in-memory oracle under arbitrary
//!   byte-granular traffic, with zero bus violations.

use proptest::prelude::*;

mod ecc_props {
    use super::*;
    use nvdimmc::nand::ecc::{Decode, Ecc};

    proptest! {
        #[test]
        fn clean_words_decode_clean(word in any::<u64>()) {
            let parity = Ecc::encode(word);
            prop_assert_eq!(Ecc::decode(word, parity), Decode::Clean(word));
        }

        #[test]
        fn any_single_data_bit_flip_corrected(word in any::<u64>(), bit in 0u32..64) {
            let parity = Ecc::encode(word);
            let corrupted = word ^ (1u64 << bit);
            prop_assert_eq!(Ecc::decode(corrupted, parity), Decode::Corrected(word));
        }

        #[test]
        fn any_single_parity_bit_flip_harmless(word in any::<u64>(), bit in 0u32..8) {
            let parity = Ecc::encode(word) ^ (1u8 << bit);
            match Ecc::decode(word, parity) {
                Decode::Corrected(w) => prop_assert_eq!(w, word),
                other => prop_assert!(false, "parity flip mishandled: {:?}", other),
            }
        }

        #[test]
        fn double_data_flips_detected(word in any::<u64>(), a in 0u32..64, b in 0u32..64) {
            prop_assume!(a != b);
            let parity = Ecc::encode(word);
            let corrupted = word ^ (1u64 << a) ^ (1u64 << b);
            prop_assert_eq!(Ecc::decode(corrupted, parity), Decode::Uncorrectable);
        }
    }
}

mod ca_props {
    use super::*;
    use nvdimmc::ddr::{BankAddr, CaPins, Command};

    fn arb_command() -> impl Strategy<Value = Command> {
        let bank = (0u8..4, 0u8..4).prop_map(|(g, b)| BankAddr::new(g, b));
        prop_oneof![
            Just(Command::Deselect),
            Just(Command::Refresh),
            Just(Command::PrechargeAll),
            Just(Command::SelfRefreshEnter),
            Just(Command::SelfRefreshExit),
            Just(Command::ZqCalibration),
            (bank.clone(), 0u32..(1 << 17)).prop_map(|(bank, row)| Command::Activate { bank, row }),
            (bank.clone(), 0u16..1024, any::<bool>()).prop_map(|(bank, col, ap)| Command::Read {
                bank,
                col,
                auto_precharge: ap
            }),
            (bank.clone(), 0u16..1024, any::<bool>()).prop_map(|(bank, col, ap)| Command::Write {
                bank,
                col,
                auto_precharge: ap
            }),
            bank.prop_map(|bank| Command::Precharge { bank }),
            (0u8..8, 0u16..(1 << 14))
                .prop_map(|(register, value)| Command::ModeRegisterSet { register, value }),
        ]
    }

    proptest! {
        #[test]
        fn encode_decode_roundtrip(cmd in arb_command()) {
            let pins = CaPins::encode(&cmd);
            prop_assert_eq!(CaPins::decode(&pins), Some(cmd));
        }

        #[test]
        fn only_refresh_matches_detector_state(cmd in arb_command()) {
            let pins = CaPins::encode(&cmd);
            if pins.is_refresh_state() && pins.cke_prev {
                prop_assert_eq!(cmd, Command::Refresh);
            }
        }
    }
}

mod cache_props {
    use super::*;
    use nvdimmc::core::{DramCache, EvictionPolicyKind};
    use std::collections::HashMap;

    #[derive(Debug, Clone)]
    enum Op {
        Lookup(u64),
        Insert(u64),
        Dirty(u64),
    }

    fn arb_ops() -> impl Strategy<Value = Vec<Op>> {
        prop::collection::vec(
            prop_oneof![
                (0u64..64).prop_map(Op::Lookup),
                (0u64..64).prop_map(Op::Insert),
                (0u64..64).prop_map(Op::Dirty),
            ],
            1..200,
        )
    }

    fn arb_policy() -> impl Strategy<Value = EvictionPolicyKind> {
        prop_oneof![
            Just(EvictionPolicyKind::Lrc),
            Just(EvictionPolicyKind::Lru),
            Just(EvictionPolicyKind::Clock),
        ]
    }

    proptest! {
        #[test]
        fn cache_never_aliases_or_leaks(ops in arb_ops(), policy in arb_policy(), slots in 1u64..16) {
            let mut cache = DramCache::new(slots, policy);
            let mut model: HashMap<u64, u64> = HashMap::new(); // page -> slot
            for op in ops {
                match op {
                    Op::Lookup(p) => {
                        prop_assert_eq!(cache.peek(p), model.get(&p).copied());
                        cache.lookup(p);
                    }
                    Op::Insert(p) => {
                        if model.contains_key(&p) {
                            continue;
                        }
                        let slot = match cache.take_free_slot() {
                            Some(s) => s,
                            None => {
                                let (victim, vpage, _) =
                                    cache.pick_victim().expect("full cache has victims");
                                let freed = cache.evict(victim);
                                prop_assert_eq!(freed, vpage);
                                model.remove(&vpage);
                                victim
                            }
                        };
                        cache.fill(slot, p);
                        model.insert(p, slot);
                    }
                    Op::Dirty(p) => {
                        if let Some(&slot) = model.get(&p) {
                            cache.mark_dirty(slot);
                            prop_assert!(cache.is_dirty(slot));
                        }
                    }
                }
                // Invariants after every step.
                prop_assert_eq!(cache.resident(), model.len() as u64);
                prop_assert!(cache.resident() <= slots);
                // No two pages share a slot.
                let mut seen = std::collections::HashSet::new();
                for &s in model.values() {
                    prop_assert!(seen.insert(s), "slot {} aliased", s);
                }
            }
        }
    }
}

mod dram_cache_props {
    use super::*;
    use nvdimmc::core::cache::CacheStats;
    use nvdimmc::core::{DramCache, EvictionPolicyKind};
    use std::collections::{BTreeSet, HashMap, VecDeque};

    /// The slot manager as it was before the slot table: a record per
    /// slot built up front, a free list of every slot, a global tick, an
    /// LRC FIFO of `(slot, fill_tick)` whose stale entries are skipped
    /// lazily, and an LRU index ordered by last-touch tick.
    struct RefDramCache {
        slots: Vec<RefSlot>,
        map: HashMap<u64, u64>,
        free: VecDeque<u64>,
        policy: EvictionPolicyKind,
        lrc_queue: VecDeque<(u64, u64)>,
        lru_index: BTreeSet<(u64, u64)>,
        clock_hand: u64,
        tick: u64,
        stats: CacheStats,
    }

    #[derive(Clone, Copy)]
    struct RefSlot {
        nand_page: Option<u64>,
        dirty: bool,
        referenced: bool,
        last_touch: u64,
        fill_tick: u64,
    }

    impl RefDramCache {
        fn new(slot_count: u64, policy: EvictionPolicyKind) -> Self {
            let slot = RefSlot {
                nand_page: None,
                dirty: false,
                referenced: false,
                last_touch: 0,
                fill_tick: 0,
            };
            RefDramCache {
                slots: vec![slot; slot_count as usize],
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

        fn lookup(&mut self, nand_page: u64) -> Option<u64> {
            let Some(slot) = self.map.get(&nand_page).copied() else {
                self.stats.misses += 1;
                return None;
            };
            self.stats.hits += 1;
            self.tick += 1;
            let meta = &mut self.slots[slot as usize];
            meta.referenced = true;
            if self.policy == EvictionPolicyKind::Lru {
                self.lru_index.remove(&(meta.last_touch, slot));
                self.lru_index.insert((self.tick, slot));
            }
            meta.last_touch = self.tick;
            Some(slot)
        }

        fn pick_victim(&mut self) -> Option<(u64, u64, bool)> {
            if self.map.is_empty() {
                return None;
            }
            let slot = match self.policy {
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

        fn evict(&mut self, slot: u64) -> u64 {
            let meta = &mut self.slots[slot as usize];
            let page = meta.nand_page.take().expect("evicting a free slot");
            let was_dirty = meta.dirty;
            meta.dirty = false;
            meta.referenced = false;
            self.map.remove(&page);
            self.lru_index.remove(&(meta.last_touch, slot));
            self.stats.evictions += 1;
            if was_dirty {
                self.stats.dirty_evictions += 1;
            }
            page
        }

        fn fill(&mut self, slot: u64, nand_page: u64) {
            assert!(self.slots[slot as usize].nand_page.is_none());
            assert!(!self.map.contains_key(&nand_page));
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

        fn resident_entries(&self) -> Vec<(u64, u64, bool)> {
            let entries = self.slots.iter().enumerate();
            entries
                .filter_map(|(i, m)| m.nand_page.map(|p| (i as u64, p, m.dirty)))
                .collect()
        }
    }

    /// One call on the cache. Slot arguments index the resident slots
    /// (in slot order) or the slots the caller holds — taken or evicted,
    /// not yet filled or released — so every call keeps to the contract.
    #[derive(Debug, Clone)]
    enum Op {
        Lookup(u64),
        Peek(u64),
        TakeFree,
        PickVictim,
        EvictVictim,
        Evict(usize),
        Release(usize),
        Fill(usize, u64),
        MarkDirty(usize),
        MarkClean(usize),
    }

    const PAGES: u64 = 64;

    fn arb_ops() -> impl Strategy<Value = Vec<Op>> {
        prop::collection::vec(
            prop_oneof![
                6 => (0..PAGES).prop_map(Op::Lookup),
                1 => (0..PAGES).prop_map(Op::Peek),
                4 => Just(Op::TakeFree),
                2 => Just(Op::PickVictim),
                3 => Just(Op::EvictVictim),
                1 => any::<usize>().prop_map(Op::Evict),
                2 => any::<usize>().prop_map(Op::Release),
                6 => (any::<usize>(), 0..PAGES).prop_map(|(i, p)| Op::Fill(i, p)),
                2 => any::<usize>().prop_map(Op::MarkDirty),
                1 => any::<usize>().prop_map(Op::MarkClean),
            ],
            1..300,
        )
    }

    fn arb_policy() -> impl Strategy<Value = EvictionPolicyKind> {
        prop_oneof![
            Just(EvictionPolicyKind::Lrc),
            Just(EvictionPolicyKind::Lru),
            Just(EvictionPolicyKind::Clock),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// The slot table against the timestamped cache it replaced:
        /// same return values, counters, free and resident counts, and
        /// resident entries in slot order after every call, for all three
        /// policies.
        #[test]
        fn slot_table_matches_the_timestamped_cache(
            slots in 1u64..=40,
            policy in arb_policy(),
            ops in arb_ops(),
        ) {
            let mut cache = DramCache::new(slots, policy);
            let mut reference = RefDramCache::new(slots, policy);
            let mut held: Vec<u64> = Vec::new();
            for (step, op) in ops.iter().enumerate() {
                let resident = reference.resident_entries();
                let pick = |i: usize| resident.get(i % resident.len().max(1)).map(|e| e.0);
                match *op {
                    Op::Lookup(page) => {
                        prop_assert_eq!(cache.lookup(page), reference.lookup(page), "step {}", step);
                    }
                    Op::Peek(page) => {
                        prop_assert_eq!(cache.peek(page), reference.map.get(&page).copied());
                    }
                    Op::TakeFree => {
                        let slot = cache.take_free_slot();
                        prop_assert_eq!(slot, reference.free.pop_front(), "step {}", step);
                        held.extend(slot);
                    }
                    Op::PickVictim => {
                        prop_assert_eq!(cache.pick_victim(), reference.pick_victim(), "step {}", step);
                    }
                    Op::EvictVictim => {
                        let victim = cache.pick_victim();
                        prop_assert_eq!(victim, reference.pick_victim(), "step {}", step);
                        if let Some((slot, _, _)) = victim {
                            prop_assert_eq!(cache.evict(slot), reference.evict(slot));
                            held.push(slot);
                        }
                    }
                    Op::Evict(i) => {
                        if let Some(slot) = pick(i) {
                            prop_assert_eq!(cache.evict(slot), reference.evict(slot));
                            held.push(slot);
                        }
                    }
                    Op::Release(i) => {
                        if !held.is_empty() {
                            let slot = held.swap_remove(i % held.len());
                            cache.release(slot);
                            reference.free.push_back(slot);
                        }
                    }
                    Op::Fill(i, page) => {
                        if !held.is_empty() && !reference.map.contains_key(&page) {
                            let slot = held.swap_remove(i % held.len());
                            cache.fill(slot, page);
                            reference.fill(slot, page);
                        }
                    }
                    Op::MarkDirty(i) => {
                        if let Some(slot) = pick(i) {
                            cache.mark_dirty(slot);
                            reference.slots[slot as usize].dirty = true;
                        }
                    }
                    Op::MarkClean(i) => {
                        if let Some(slot) = pick(i) {
                            cache.mark_clean(slot);
                            reference.slots[slot as usize].dirty = false;
                        }
                    }
                }
                prop_assert_eq!(cache.stats(), reference.stats, "stats at step {}: {:?}", step, op);
                prop_assert_eq!(cache.free_slots(), reference.free.len() as u64, "step {}", step);
                prop_assert_eq!(cache.resident(), reference.map.len() as u64, "step {}", step);
                let entries: Vec<_> = cache.resident_entries().collect();
                prop_assert_eq!(entries, reference.resident_entries(), "step {}: {:?}", step, op);
                for slot in 0..slots {
                    let meta = reference.slots[slot as usize];
                    prop_assert_eq!(cache.page_of(slot), meta.nand_page);
                    prop_assert_eq!(cache.is_dirty(slot), meta.dirty);
                }
            }
        }
    }
}

mod ftl_props {
    use super::*;
    use nvdimmc::nand::{Ftl, FtlConfig};
    use nvdimmc::sim::SimTime;
    use std::collections::HashMap;

    #[derive(Debug, Clone)]
    enum Op {
        Write(u64, u8),
        Read(u64),
        Trim(u64),
    }

    fn arb_ops() -> impl Strategy<Value = Vec<Op>> {
        prop::collection::vec(
            prop_oneof![
                3 => (0u64..128, any::<u8>()).prop_map(|(l, f)| Op::Write(l, f)),
                2 => (0u64..128).prop_map(Op::Read),
                1 => (0u64..128).prop_map(Op::Trim),
            ],
            1..120,
        )
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]
        #[test]
        fn ftl_matches_flat_model(ops in arb_ops()) {
            let mut ftl = Ftl::new(FtlConfig::small_for_tests());
            ftl.media_mut().set_ber_per_read(0.0);
            let mut model: HashMap<u64, u8> = HashMap::new();
            let mut t = SimTime::ZERO;
            for op in ops {
                match op {
                    Op::Write(lpn, fill) => {
                        t = ftl.write(lpn, vec![fill; 4096], t).unwrap().1;
                        model.insert(lpn, fill);
                    }
                    Op::Read(lpn) => {
                        let (data, t2) = ftl.read(lpn, t).unwrap();
                        t = t2;
                        let expect = model.get(&lpn).copied().unwrap_or(0);
                        prop_assert!(data.iter().all(|&b| b == expect),
                            "lpn {} expected {:#x}", lpn, expect);
                    }
                    Op::Trim(lpn) => {
                        ftl.trim(lpn).unwrap();
                        model.remove(&lpn);
                    }
                }
                // Stale copies are dropped at invalidation: the media
                // holds exactly one payload per live logical page.
                prop_assert_eq!(ftl.media().stored_pages(), model.len());
            }
        }
    }
}

mod system_props {
    use super::*;
    use nvdimmc::core::{BlockDevice, NvdimmCConfig, System, PAGE_BYTES};

    #[derive(Debug, Clone)]
    enum Op {
        Write { off: u64, len: usize, fill: u8 },
        Read { off: u64, len: usize },
    }

    fn arb_ops() -> impl Strategy<Value = Vec<Op>> {
        let span = 48 * PAGE_BYTES;
        prop::collection::vec(
            prop_oneof![
                (0..span - 8192, 1usize..8192, any::<u8>())
                    .prop_map(|(off, len, fill)| Op::Write { off, len, fill }),
                (0..span - 8192, 1usize..8192).prop_map(|(off, len)| Op::Read { off, len }),
            ],
            1..40,
        )
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]
        #[test]
        fn system_matches_flat_oracle(ops in arb_ops()) {
            let mut cfg = NvdimmCConfig::small_for_tests();
            cfg.cache_slots = 16; // force eviction traffic
            let mut sys = System::new(cfg).unwrap();
            let span = 48 * PAGE_BYTES as usize;
            let mut oracle = vec![0u8; span];
            for op in ops {
                match op {
                    Op::Write { off, len, fill } => {
                        let data = vec![fill; len];
                        sys.write_at(off, &data).unwrap();
                        oracle[off as usize..off as usize + len].copy_from_slice(&data);
                    }
                    Op::Read { off, len } => {
                        let mut buf = vec![0u8; len];
                        sys.read_at(off, &mut buf).unwrap();
                        prop_assert_eq!(&buf[..], &oracle[off as usize..off as usize + len]);
                    }
                }
            }
            prop_assert_eq!(sys.bus_stats().violations_rejected, 0);
        }
    }
}

mod interleave_props {
    use super::*;
    use nvdimmc::core::{InterleaveMap, PAGE_BYTES};

    fn arb_map() -> impl Strategy<Value = InterleaveMap> {
        (1u32..=8, 1u64..=8)
            .prop_map(|(channels, pages)| InterleaveMap::new(channels, pages * PAGE_BYTES).unwrap())
    }

    proptest! {
        #[test]
        fn locate_to_global_roundtrip(map in arb_map(), addr in 0u64..(1u64 << 40)) {
            let (shard, local) = map.locate(addr);
            prop_assert!(shard < map.channels());
            prop_assert_eq!(map.to_global(shard, local), addr);
        }

        #[test]
        fn to_global_locate_roundtrip(
            map in arb_map(),
            shard in 0u32..8,
            local in 0u64..(1u64 << 38),
        ) {
            prop_assume!(shard < map.channels());
            let addr = map.to_global(shard, local);
            prop_assert_eq!(map.locate(addr), (shard, local));
        }

        #[test]
        fn split_range_covers_exactly_in_order(
            map in arb_map(),
            offset in 0u64..(1u64 << 32),
            len in 1u64..(1u64 << 18),
        ) {
            let segs = map.split_range(offset, len);
            let mut covered = 0u64;
            for seg in &segs {
                prop_assert_eq!(seg.pos as u64, covered, "buffer positions contiguous");
                prop_assert_eq!(
                    map.locate(offset + covered),
                    (seg.shard, seg.local_offset)
                );
                prop_assert!(seg.len > 0);
                covered += seg.len;
            }
            prop_assert_eq!(covered, len);
            if map.channels() == 1 {
                prop_assert_eq!(segs.len(), 1, "one channel is always one segment");
            }
        }
    }
}

mod sim_props {
    use super::*;
    use nvdimmc::sim::{DeterministicRng, SimDuration, SimTime, Zipf};

    proptest! {
        #[test]
        fn time_arithmetic_consistent(a in 0u64..1 << 40, d in 0u64..1 << 40) {
            let t0 = SimTime::from_ps(a);
            let dur = SimDuration::from_ps(d);
            let t1 = t0 + dur;
            prop_assert_eq!(t1.since(t0), dur);
            prop_assert_eq!(t1 - dur, t0);
        }

        #[test]
        fn div_ceil_covers(work in 1u64..1 << 30, step in 1u64..1 << 20) {
            let w = SimDuration::from_ps(work);
            let s = SimDuration::from_ps(step);
            let n = w.div_ceil(s);
            prop_assert!(s * n >= w);
            prop_assert!(s * (n - 1) < w);
        }

        #[test]
        fn zipf_in_range(n in 1u64..100_000, theta in 0.0f64..0.999, seed in any::<u64>()) {
            let mut rng = DeterministicRng::new(seed);
            let z = Zipf::new(n, theta);
            for _ in 0..50 {
                prop_assert!(z.sample(&mut rng) < n);
            }
        }
    }
}

mod cp_props {
    use super::*;
    use nvdimmc::core::{CpAck, CpCommand, CpOpcode};

    fn arb_cmd() -> impl Strategy<Value = CpCommand> {
        (
            0u8..16,
            any::<u8>(),
            prop_oneof![
                Just(CpOpcode::Cachefill),
                Just(CpOpcode::Writeback),
                Just(CpOpcode::WritebackCachefill),
            ],
            0u64..(1 << 28),
            0u64..(1 << 28),
            prop::option::of(0u64..(1 << 28)),
        )
            .prop_map(|(phase, seq, opcode, dram_slot, nand_page, wb)| CpCommand {
                phase,
                seq,
                opcode,
                dram_slot,
                nand_page,
                wb_nand_page: if opcode == CpOpcode::WritebackCachefill {
                    wb
                } else {
                    None
                },
            })
    }

    proptest! {
        #[test]
        fn cp_command_roundtrip(cmd in arb_cmd()) {
            prop_assert_eq!(CpCommand::decode(&cmd.encode()), Some(cmd));
        }

        #[test]
        fn cp_ack_roundtrip(
            phase in 0u8..16,
            seq in any::<u8>(),
            ok in any::<bool>(),
            code in any::<u8>(),
        ) {
            let ack = CpAck { phase, seq, ok, code: if ok { 0 } else { code } };
            prop_assert_eq!(CpAck::decode(&ack.encode()), Some(ack));
        }
    }
}

mod media_props {
    use super::*;
    use nvdimmc::nand::{NandGeometry, NandTiming, PhysPage, ZNandArray};
    use nvdimmc::sim::SimTime;

    #[derive(Debug, Clone)]
    enum Op {
        Program(u64),
        Erase(u64),
        Read(u64, u32),
    }

    fn arb_ops() -> impl Strategy<Value = Vec<Op>> {
        prop::collection::vec(
            prop_oneof![
                3 => (0u64..8).prop_map(Op::Program),
                1 => (0u64..8).prop_map(Op::Erase),
                2 => (0u64..8, 0u32..64).prop_map(|(b, p)| Op::Read(b, p)),
            ],
            1..150,
        )
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]
        #[test]
        fn media_enforces_nand_physics(ops in arb_ops()) {
            let mut media = ZNandArray::new(
                NandGeometry::small_for_tests(),
                NandTiming::znand_poc(),
                1,
            );
            media.set_ber_per_read(0.0);
            // Model: per-block write pointer.
            let mut wp = [0u32; 8];
            let mut t = SimTime::ZERO;
            for op in ops {
                match op {
                    Op::Program(b) => {
                        let page = PhysPage { block: b, page: wp[b as usize] };
                        if wp[b as usize] < 64 {
                            t = media.program(page, vec![b as u8; 16].into(), t).unwrap();
                            wp[b as usize] += 1;
                        }
                        prop_assert_eq!(media.write_pointer(b), wp[b as usize]);
                    }
                    Op::Erase(b) => {
                        t = media.erase(b, t).unwrap();
                        wp[b as usize] = 0;
                    }
                    Op::Read(b, p) => {
                        let res = media.read(PhysPage { block: b, page: p }, t);
                        if p < wp[b as usize] {
                            let read = res.unwrap();
                            prop_assert_eq!(read.bytes[0], b as u8);
                            t = read.done;
                        } else {
                            prop_assert!(res.is_err(), "read of unwritten page succeeded");
                        }
                    }
                }
            }
        }
    }
}

mod cpu_cache_props {
    use super::*;
    use nvdimmc::host::{CacheStats, CpuCache, Memory, PersistEvent, VecMemory};

    #[derive(Debug, Clone)]
    enum Op {
        Load { addr: u64, len: usize },
        Store { addr: u64, len: usize, fill: u8 },
        Clflush(u64),
        Clwb(u64),
    }

    fn arb_ops() -> impl Strategy<Value = Vec<Op>> {
        let span = 4096u64;
        prop::collection::vec(
            prop_oneof![
                (0..span - 128, 1usize..128).prop_map(|(addr, len)| Op::Load { addr, len }),
                (0..span - 128, 1usize..128, any::<u8>()).prop_map(|(addr, len, fill)| Op::Store {
                    addr,
                    len,
                    fill
                }),
                (0..span).prop_map(Op::Clflush),
                (0..span).prop_map(Op::Clwb),
            ],
            1..150,
        )
    }

    /// A per-line reference model of `CpuCache`: one `Vec` of lines per
    /// set, LRU by a global tick and a `min_by_key` victim scan, one
    /// memory read per missed line. It is the differential oracle for
    /// `CpuCache`'s set records, rank LRU and chunked loads. An empty
    /// range acts on no line, as in `CpuCache`.
    struct RefCache {
        sets: Vec<Vec<RefLine>>,
        ways: usize,
        tick: u64,
        stats: CacheStats,
        journal: Vec<PersistEvent>,
    }

    struct RefLine {
        tag: u64,
        dirty: bool,
        data: [u8; 64],
        lru: u64,
    }

    impl RefCache {
        fn new(size_bytes: usize, ways: usize) -> Self {
            RefCache {
                sets: (0..size_bytes / (ways * 64)).map(|_| Vec::new()).collect(),
                ways,
                tick: 0,
                stats: CacheStats::default(),
                journal: Vec::new(),
            }
        }

        fn touch(&mut self) -> u64 {
            self.tick += 1;
            self.tick
        }

        fn find(&self, line_addr: u64) -> Option<(usize, usize)> {
            let set = (line_addr as usize) & (self.sets.len() - 1);
            self.sets[set]
                .iter()
                .position(|l| l.tag == line_addr)
                .map(|w| (set, w))
        }

        fn fill(&mut self, mem: &mut VecMemory, line_addr: u64) -> (usize, usize) {
            let set = (line_addr as usize) & (self.sets.len() - 1);
            if self.sets[set].len() >= self.ways {
                let victim_idx = self.sets[set]
                    .iter()
                    .enumerate()
                    .min_by_key(|(_, l)| l.lru)
                    .map(|(i, _)| i)
                    .unwrap();
                let victim = self.sets[set].swap_remove(victim_idx);
                if victim.dirty {
                    mem.write(victim.tag * 64, &victim.data);
                    self.stats.writebacks += 1;
                }
            }
            let mut data = [0u8; 64];
            mem.read(line_addr * 64, &mut data);
            let lru = self.touch();
            self.sets[set].push(RefLine {
                tag: line_addr,
                dirty: false,
                data,
                lru,
            });
            (set, self.sets[set].len() - 1)
        }

        fn pieces(addr: u64, len: usize) -> Vec<(u64, usize, usize, usize)> {
            let mut out = Vec::new();
            let mut pos = 0;
            while pos < len {
                let a = addr + pos as u64;
                let off = (a % 64) as usize;
                let n = (64 - off).min(len - pos);
                out.push((a / 64, off, pos, n));
                pos += n;
            }
            out
        }

        fn load(&mut self, mem: &mut VecMemory, addr: u64, buf: &mut [u8]) {
            for (line_addr, off, pos, n) in Self::pieces(addr, buf.len()) {
                let (s, w) = match self.find(line_addr) {
                    Some((s, w)) => {
                        self.stats.load_hits += 1;
                        self.sets[s][w].lru = self.touch();
                        (s, w)
                    }
                    None => {
                        self.stats.load_misses += 1;
                        self.fill(mem, line_addr)
                    }
                };
                buf[pos..pos + n].copy_from_slice(&self.sets[s][w].data[off..off + n]);
            }
        }

        fn store(&mut self, mem: &mut VecMemory, addr: u64, data: &[u8]) {
            self.journal.push(PersistEvent::Store {
                addr,
                len: data.len() as u64,
            });
            for (line_addr, off, pos, n) in Self::pieces(addr, data.len()) {
                if self.find(line_addr).is_some() {
                    self.stats.store_hits += 1;
                } else {
                    self.stats.store_misses += 1;
                    self.fill(mem, line_addr);
                }
                let (s, w) = self.find(line_addr).unwrap();
                let lru = self.touch();
                let line = &mut self.sets[s][w];
                line.lru = lru;
                line.dirty = true;
                line.data[off..off + n].copy_from_slice(&data[pos..pos + n]);
            }
        }

        fn clflush(&mut self, mem: &mut VecMemory, addr: u64) {
            self.stats.clflushes += 1;
            self.journal.push(PersistEvent::Clflush {
                addr: addr / 64 * 64,
            });
            if let Some((s, w)) = self.find(addr / 64) {
                let line = self.sets[s].swap_remove(w);
                if line.dirty {
                    mem.write(line.tag * 64, &line.data);
                    self.stats.writebacks += 1;
                }
            }
        }

        fn clwb(&mut self, mem: &mut VecMemory, addr: u64) {
            self.journal.push(PersistEvent::Clwb {
                addr: addr / 64 * 64,
            });
            if let Some((s, w)) = self.find(addr / 64) {
                let line = &mut self.sets[s][w];
                if line.dirty {
                    mem.write(line.tag * 64, &line.data);
                    line.dirty = false;
                    self.stats.writebacks += 1;
                }
            }
        }

        fn invalidate(&mut self, addr: u64) {
            if let Some((s, w)) = self.find(addr / 64) {
                self.sets[s].swap_remove(w);
                self.stats.invalidations += 1;
            }
        }

        fn range(addr: u64, len: u64) -> std::ops::Range<u64> {
            if len == 0 {
                return 0..0;
            }
            addr / 64..(addr + len - 1) / 64 + 1
        }

        fn sfence(&mut self) {
            self.stats.sfences += 1;
            self.journal.push(PersistEvent::Sfence);
        }

        fn flush_all(&mut self, mem: &mut VecMemory) {
            for set in &mut self.sets {
                for line in set.iter_mut().filter(|l| l.dirty) {
                    mem.write(line.tag * 64, &line.data);
                    line.dirty = false;
                    self.stats.writebacks += 1;
                }
            }
        }

        fn discard_all(&mut self) {
            for set in &mut self.sets {
                self.stats.invalidations += set.len() as u64;
                set.clear();
            }
        }

        fn is_dirty(&self, addr: u64) -> bool {
            self.find(addr / 64)
                .is_some_and(|(s, w)| self.sets[s][w].dirty)
        }
    }

    /// Differential memory: 8 KB, so a span of up to 1.2 KB crosses
    /// several chunks of a cache with 1, 4 or 8 sets.
    const DIFF_MEM: u64 = 8192;
    const DIFF_SPAN: u64 = 1200;

    #[derive(Debug, Clone)]
    enum DiffOp {
        Load { addr: u64, len: usize },
        Store { addr: u64, len: usize, seed: u8 },
        DeviceWrite { addr: u64, len: usize, seed: u8 },
        Clflush(u64),
        Clwb(u64),
        Invalidate(u64),
        ClflushRange { addr: u64, len: u64 },
        InvalidateRange { addr: u64, len: u64 },
        Sfence,
        FlushAll,
        DiscardAll,
    }

    fn arb_diff_ops() -> impl Strategy<Value = Vec<DiffOp>> {
        let span = (0..DIFF_MEM - DIFF_SPAN, 1..DIFF_SPAN as usize);
        let range = (0..DIFF_MEM - DIFF_SPAN, 0..DIFF_SPAN);
        prop::collection::vec(
            prop_oneof![
                8 => span.clone().prop_map(|(addr, len)| DiffOp::Load { addr, len }),
                6 => (span.clone(), any::<u8>())
                    .prop_map(|((addr, len), seed)| DiffOp::Store { addr, len, seed }),
                2 => (span, any::<u8>())
                    .prop_map(|((addr, len), seed)| DiffOp::DeviceWrite { addr, len, seed }),
                2 => (0..DIFF_MEM).prop_map(DiffOp::Clflush),
                2 => (0..DIFF_MEM).prop_map(DiffOp::Clwb),
                2 => (0..DIFF_MEM).prop_map(DiffOp::Invalidate),
                1 => range.clone().prop_map(|(addr, len)| DiffOp::ClflushRange { addr, len }),
                1 => range.prop_map(|(addr, len)| DiffOp::InvalidateRange { addr, len }),
                1 => Just(DiffOp::Sfence),
                1 => Just(DiffOp::FlushAll),
                1 => Just(DiffOp::DiscardAll),
            ],
            1..200,
        )
    }

    /// Bytes that differ along the span, so a misplaced piece shows.
    fn pattern(len: usize, seed: u8) -> Vec<u8> {
        (0..len)
            .map(|i| seed.wrapping_add((i as u8).wrapping_mul(31)))
            .collect()
    }

    proptest! {
        #[test]
        fn cache_plus_memory_equals_oracle(ops in arb_ops()) {
            let mut mem = VecMemory::new(4096);
            let mut cache = CpuCache::new(512, 2); // tiny: lots of eviction
            let mut oracle = vec![0u8; 4096];
            for op in ops {
                match op {
                    Op::Load { addr, len } => {
                        let mut buf = vec![0u8; len];
                        cache.load(&mut mem, addr, &mut buf);
                        prop_assert_eq!(&buf[..], &oracle[addr as usize..addr as usize + len]);
                    }
                    Op::Store { addr, len, fill } => {
                        let data = vec![fill; len];
                        cache.store(&mut mem, addr, &data);
                        oracle[addr as usize..addr as usize + len].fill(fill);
                    }
                    Op::Clflush(addr) => cache.clflush(&mut mem, addr),
                    Op::Clwb(addr) => cache.clwb(&mut mem, addr),
                }
            }
            // After flushing everything, raw memory must equal the oracle.
            cache.flush_all(&mut mem);
            let mut raw = vec![0u8; 4096];
            mem.read(0, &mut raw);
            prop_assert_eq!(raw, oracle);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// `CpuCache` against the old per-line model: same bytes, memory
        /// image, counters, dirty bits and journal after every op, for
        /// every associativity the shard and the tests use.
        #[test]
        fn set_packed_cache_matches_the_per_line_model(
            way_log in 0u32..4,
            nsets in prop_oneof![Just(1usize), Just(4), Just(8)],
            ops in arb_diff_ops(),
        ) {
            let ways = 1usize << way_log;
            let size = nsets * ways * 64;
            let mut cache = CpuCache::new(size, ways);
            let mut reference = RefCache::new(size, ways);
            cache.set_journal(true);
            let mut mem = VecMemory::new(DIFF_MEM as usize);
            let mut ref_mem = VecMemory::new(DIFF_MEM as usize);
            for (step, op) in ops.iter().enumerate() {
                match *op {
                    DiffOp::Load { addr, len } => {
                        let mut got = vec![0u8; len];
                        let mut want = vec![0u8; len];
                        cache.load(&mut mem, addr, &mut got);
                        reference.load(&mut ref_mem, addr, &mut want);
                        prop_assert_eq!(got, want, "load bytes at step {}: {:?}", step, op);
                    }
                    DiffOp::Store { addr, len, seed } => {
                        let data = pattern(len, seed);
                        cache.store(&mut mem, addr, &data);
                        reference.store(&mut ref_mem, addr, &data);
                    }
                    DiffOp::DeviceWrite { addr, len, seed } => {
                        let data = pattern(len, seed);
                        mem.write(addr, &data);
                        ref_mem.write(addr, &data);
                    }
                    DiffOp::Clflush(addr) => {
                        cache.clflush(&mut mem, addr);
                        reference.clflush(&mut ref_mem, addr);
                    }
                    DiffOp::Clwb(addr) => {
                        cache.clwb(&mut mem, addr);
                        reference.clwb(&mut ref_mem, addr);
                    }
                    DiffOp::Invalidate(addr) => {
                        cache.invalidate(addr);
                        reference.invalidate(addr);
                    }
                    DiffOp::ClflushRange { addr, len } => {
                        cache.clflush_range(&mut mem, addr, len);
                        for line in RefCache::range(addr, len) {
                            reference.clflush(&mut ref_mem, line * 64);
                        }
                    }
                    DiffOp::InvalidateRange { addr, len } => {
                        cache.invalidate_range(addr, len);
                        for line in RefCache::range(addr, len) {
                            reference.invalidate(line * 64);
                        }
                    }
                    DiffOp::Sfence => {
                        cache.sfence();
                        reference.sfence();
                    }
                    DiffOp::FlushAll => {
                        cache.flush_all(&mut mem);
                        reference.flush_all(&mut ref_mem);
                    }
                    DiffOp::DiscardAll => {
                        cache.discard_all();
                        reference.discard_all();
                    }
                }
                let mut image = vec![0u8; DIFF_MEM as usize];
                let mut ref_image = vec![0u8; DIFF_MEM as usize];
                mem.read(0, &mut image);
                ref_mem.read(0, &mut ref_image);
                prop_assert!(image == ref_image, "memory image at step {}: {:?}", step, op);
                prop_assert_eq!(cache.stats(), reference.stats, "stats at step {}: {:?}", step, op);
                for addr in (0..DIFF_MEM).step_by(64) {
                    prop_assert_eq!(
                        cache.is_dirty(addr),
                        reference.is_dirty(addr),
                        "dirty bit of {} at step {}: {:?}", addr, step, op
                    );
                }
                prop_assert_eq!(
                    cache.take_journal(),
                    std::mem::take(&mut reference.journal),
                    "journal at step {}: {:?}", step, op
                );
            }
        }
    }
}

mod ftl_memo_props {
    use super::*;
    use nvdimmc::nand::{
        Ftl, FtlConfig, FtlStats, NandError, NandGeometry, NandTiming, PageBuf, PageCodec,
        PhysPage, ZNandArray,
    };
    use nvdimmc::sim::{DeterministicRng, SimTime};
    use std::cmp::Reverse;
    use std::collections::{BinaryHeap, HashMap};

    /// 16 blocks of 8 pages of 256 bytes, 96 exported pages: GC, static
    /// wear levelling and housekeeping run every few dozen writes.
    fn config() -> FtlConfig {
        FtlConfig {
            geometry: NandGeometry {
                channels: 2,
                dies_per_channel: 1,
                planes_per_die: 1,
                blocks_per_plane: 8,
                pages_per_block: 8,
                page_bytes: 256,
            },
            timing: NandTiming::znand_poc(),
            export_fraction: 0.75,
            gc_low_watermark: 3,
            static_wl_threshold: 4,
            read_retries: 3,
            seed: 7,
        }
    }

    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    enum State {
        Free,
        Active,
        Closed,
        Bad,
    }

    /// The FTL without the decode memo, as it was before it: every page
    /// read goes through `PageCodec::decode`, and every relocation decodes
    /// and re-encodes. It is the differential oracle for `Ftl`'s mark and
    /// its by-reference relocation; it uses only the media's public API
    /// and ignores the mark the media reports.
    struct RefFtl {
        media: ZNandArray,
        codec: PageCodec,
        export_pages: u64,
        gc_low: usize,
        static_wl_threshold: u32,
        read_retries: u32,
        l2p: HashMap<u64, PhysPage>,
        p2l: HashMap<u64, u64>,
        valid: Vec<u32>,
        state: Vec<State>,
        free: Vec<BinaryHeap<Reverse<(u32, u64)>>>,
        actives: Vec<Option<u64>>,
        rr: usize,
        stats: FtlStats,
    }

    impl RefFtl {
        fn new(cfg: FtlConfig) -> Self {
            let geo = cfg.geometry;
            let nblocks = geo.total_blocks();
            let mut free: Vec<_> = (0..geo.channels).map(|_| BinaryHeap::new()).collect();
            for b in 0..nblocks {
                free[geo.split_block(b).0 as usize].push(Reverse((0, b)));
            }
            RefFtl {
                media: ZNandArray::new(geo, cfg.timing, cfg.seed),
                codec: PageCodec::new(geo.page_bytes as usize),
                export_pages: cfg.export_pages(),
                gc_low: cfg.gc_low_watermark,
                static_wl_threshold: cfg.static_wl_threshold,
                read_retries: cfg.read_retries,
                l2p: HashMap::new(),
                p2l: HashMap::new(),
                valid: vec![0; nblocks as usize],
                state: vec![State::Free; nblocks as usize],
                free,
                actives: vec![None; geo.channels as usize],
                rr: 0,
                stats: FtlStats::default(),
            }
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

        fn read(&mut self, lpn: u64, at: SimTime) -> Result<(Vec<u8>, SimTime), NandError> {
            self.check_lpn(lpn)?;
            let Some(&phys) = self.l2p.get(&lpn) else {
                self.stats.unmapped_reads += 1;
                return Ok((vec![0u8; self.codec.page_bytes()], at));
            };
            let (data, done, retried) = self.read_decoded(phys, at)?;
            self.stats.host_reads += 1;
            if retried {
                if let Ok(fresh) = self.codec.encode(data.clone()) {
                    if self.write_stored(lpn, &fresh, done, true).is_ok() {
                        self.stats.retry_remaps += 1;
                    }
                }
            }
            Ok((data, done))
        }

        fn decode(&mut self, stored: &PageBuf) -> Option<Vec<u8>> {
            self.stats.pages_decoded += 1;
            let (data, corrected) = self.codec.decode(stored).ok()?;
            self.stats.words_corrected += corrected;
            Some(data.to_vec())
        }

        fn read_decoded(
            &mut self,
            phys: PhysPage,
            at: SimTime,
        ) -> Result<(Vec<u8>, SimTime, bool), NandError> {
            let read = self.media.read(phys, at)?;
            let mut done = read.done;
            if let Some(data) = self.decode(&read.bytes) {
                return Ok((data, done, false));
            }
            for _ in 0..self.read_retries {
                self.stats.read_retries += 1;
                let read = self.media.read(phys, done)?;
                done = read.done;
                if let Some(data) = self.decode(&read.bytes) {
                    self.stats.read_retry_recovered += 1;
                    return Ok((data, done, true));
                }
            }
            self.stats.uncorrectable_surfaced += 1;
            Err(NandError::Uncorrectable { page: phys })
        }

        fn write(&mut self, lpn: u64, data: &[u8], at: SimTime) -> Result<SimTime, NandError> {
            self.check_lpn(lpn)?;
            let stored = self.codec.encode(data.to_vec())?;
            let done = self.write_stored(lpn, &stored, at, false)?;
            self.stats.host_writes += 1;
            Ok(done)
        }

        fn trim(&mut self, lpn: u64) -> Result<(), NandError> {
            self.check_lpn(lpn)?;
            if let Some(phys) = self.l2p.remove(&lpn) {
                self.invalidate(phys);
            }
            Ok(())
        }

        fn invalidate(&mut self, phys: PhysPage) {
            let flat = phys.flat_index(self.media.geometry());
            if self.p2l.remove(&flat).is_some() {
                self.valid[phys.block as usize] -= 1;
            }
            self.media.discard(phys);
        }

        fn write_stored(
            &mut self,
            lpn: u64,
            stored: &PageBuf,
            at: SimTime,
            is_gc: bool,
        ) -> Result<SimTime, NandError> {
            let geo = *self.media.geometry();
            for _ in 0..64 {
                let ch = self.rr % geo.channels as usize;
                self.rr += 1;
                let Some(block) = self.ensure_active(ch, at, is_gc)? else {
                    continue;
                };
                let phys = PhysPage {
                    block,
                    page: self.media.write_pointer(block),
                };
                match self.media.program(phys, stored.clone(), at) {
                    Ok(done) => {
                        if let Some(old) = self.l2p.insert(lpn, phys) {
                            self.invalidate(old);
                        }
                        self.p2l.insert(phys.flat_index(&geo), lpn);
                        self.valid[block as usize] += 1;
                        if self.media.write_pointer(block) == geo.pages_per_block {
                            self.state[block as usize] = State::Closed;
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
            self.state[block as usize] = State::Bad;
            self.media.mark_bad(block);
            self.stats.blocks_retired += 1;
        }

        fn free_blocks(&self) -> usize {
            self.free.iter().map(BinaryHeap::len).sum()
        }

        fn ensure_active(
            &mut self,
            ch: usize,
            at: SimTime,
            is_gc: bool,
        ) -> Result<Option<u64>, NandError> {
            if let Some(b) = self.actives[ch] {
                return Ok(Some(b));
            }
            if !is_gc && self.free_blocks() <= self.gc_low {
                self.collect(at)?;
                if let Some(b) = self.actives[ch] {
                    return Ok(Some(b));
                }
            }
            Ok(self.free[ch].pop().map(|Reverse((_, b))| {
                self.state[b as usize] = State::Active;
                self.actives[ch] = Some(b);
                b
            }))
        }

        /// Relocates every valid page of `victim`, then erases it. GC
        /// counts each page as it moves, housekeeping only once the erase
        /// is done.
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
                let (data, _, _) = self.read_decoded(phys, at)?;
                let fresh = self.codec.encode(data)?;
                self.write_stored(lpn, &fresh, at, true)?;
                moved += 1;
                if gc {
                    self.stats.gc_moved_pages += 1;
                }
            }
            match self.media.erase(victim, at) {
                Ok(_) => {
                    self.state[victim as usize] = State::Free;
                    self.valid[victim as usize] = 0;
                    let ch = geo.split_block(victim).0 as usize;
                    self.free[ch].push(Reverse((self.media.erase_count(victim), victim)));
                }
                Err(NandError::BadBlock { .. }) => {
                    self.retire(victim);
                    self.valid[victim as usize] = 0;
                }
                Err(e) => return Err(e),
            }
            Ok(moved)
        }

        fn collect(&mut self, at: SimTime) -> Result<(), NandError> {
            self.stats.gc_runs += 1;
            let mut guard = 0;
            while self.free_blocks() <= self.gc_low {
                guard += 1;
                if guard > self.media.geometry().total_blocks() {
                    break;
                }
                let Some(victim) = self.pick_victim() else {
                    break;
                };
                self.reclaim(victim, at, true)?;
            }
            Ok(())
        }

        fn housekeeping(&mut self, at: SimTime) -> Result<u64, NandError> {
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

        fn wear_spread(&self) -> u32 {
            let blocks = self.media.geometry().total_blocks();
            let worn = (0..blocks).filter(|&b| self.state[b as usize] != State::Bad);
            let counts: Vec<u32> = worn.map(|b| self.media.erase_count(b)).collect();
            match (counts.iter().min(), counts.iter().max()) {
                (Some(lo), Some(hi)) => hi - lo,
                _ => 0,
            }
        }

        fn pick_victim(&self) -> Option<u64> {
            let ppb = self.media.geometry().pages_per_block;
            let static_wl = self.wear_spread() > self.static_wl_threshold;
            let mut best: Option<(u64, u64)> = None;
            for b in 0..self.media.geometry().total_blocks() {
                let v = self.valid[b as usize];
                if self.state[b as usize] != State::Closed || v >= ppb {
                    continue;
                }
                let score = if static_wl {
                    u64::from(self.media.erase_count(b)) * u64::from(ppb) + u64::from(v)
                } else {
                    u64::from(v)
                };
                if best.is_none_or(|(s, _)| score < s) {
                    best = Some((score, b));
                }
            }
            best.map(|(_, b)| b)
        }
    }

    #[derive(Debug, Clone)]
    enum Op {
        Write(u64, u64),
        Read(u64),
        Trim(u64),
        Housekeeping,
        /// Arms a forced-uncorrectable fault, persistent or transient.
        Fault(bool),
        /// Per-read bit-flip probability, in percent.
        Ber(u8),
    }

    fn arb_ops() -> impl Strategy<Value = Vec<Op>> {
        prop::collection::vec(
            prop_oneof![
                6 => (0u64..100, any::<u64>()).prop_map(|(l, s)| Op::Write(l, s)),
                6 => (0u64..100).prop_map(Op::Read),
                1 => (0u64..100).prop_map(Op::Trim),
                1 => Just(Op::Housekeeping),
                1 => any::<bool>().prop_map(Op::Fault),
                1 => prop_oneof![Just(0u8), Just(2), Just(50)].prop_map(Op::Ber),
            ],
            1..400,
        )
    }

    fn payload(seed: u64) -> Vec<u8> {
        let mut page = vec![0u8; 256];
        DeterministicRng::new(seed).fill_bytes(&mut page);
        page
    }

    /// Applies `op` to both FTLs and checks that they agree on the
    /// returned data or error, every counter but `pages_decoded`, the
    /// stored pages and the media's next random draw.
    fn step(ftl: &mut Ftl, reference: &mut RefFtl, op: &Op, t: &mut SimTime) {
        match *op {
            Op::Write(lpn, seed) => {
                let got = ftl.write(lpn, payload(seed), *t).map(|(_, done)| done);
                let want = reference.write(lpn, &payload(seed), *t);
                assert_eq!(got, want, "{op:?}");
                if let Ok(done) = got {
                    *t = done;
                }
            }
            Op::Read(lpn) => {
                let got = ftl.read(lpn, *t).map(|(data, done)| (data.to_vec(), done));
                let want = reference.read(lpn, *t);
                assert_eq!(got, want, "{op:?}");
                if let Ok((_, done)) = got {
                    *t = done;
                }
            }
            Op::Trim(lpn) => assert_eq!(ftl.trim(lpn), reference.trim(lpn)),
            Op::Housekeeping => {
                assert_eq!(ftl.housekeeping(*t), reference.housekeeping(*t));
            }
            Op::Fault(persistent) => {
                ftl.media_mut().arm_uncorrectable(persistent);
                reference.media.arm_uncorrectable(persistent);
            }
            Op::Ber(percent) => {
                let p = f64::from(percent) / 100.0;
                ftl.media_mut().set_ber_per_read(p);
                reference.media.set_ber_per_read(p);
            }
        }
        let (memo, full) = (ftl.stats(), reference.stats);
        assert!(memo.pages_decoded <= full.pages_decoded);
        let all_but_decodes = |s: FtlStats| FtlStats {
            pages_decoded: 0,
            ..s
        };
        assert_eq!(all_but_decodes(memo), all_but_decodes(full), "{op:?}");
        assert_eq!(ftl.media().stats(), reference.media.stats(), "{op:?}");
        assert_eq!(ftl.media().stored_pages(), reference.media.stored_pages());
        assert_eq!(
            ftl.media().armed_uncorrectable(),
            reference.media.armed_uncorrectable()
        );
        assert_eq!(
            ftl.media().rng().clone().gen_u64(),
            reference.media.rng().clone().gen_u64(),
            "{op:?}"
        );
    }

    fn run(ops: &[Op]) -> (Ftl, RefFtl) {
        let mut ftl = Ftl::new(config());
        let mut reference = RefFtl::new(config());
        let mut t = SimTime::ZERO;
        for op in ops {
            step(&mut ftl, &mut reference, op, &mut t);
        }
        (ftl, reference)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]
        #[test]
        fn memoised_ftl_matches_the_decode_every_read_reference(ops in arb_ops()) {
            run(&ops);
        }
    }

    #[test]
    fn a_marked_page_hit_by_a_persistent_fault_fails_as_before() {
        // Written (so marked), read clean, then damaged for good: the read
        // and all three retries decode and fail, then every later read
        // fails the same way.
        let (ftl, reference) = run(&[
            Op::Write(5, 1),
            Op::Read(5),
            Op::Read(5),
            Op::Fault(true),
            Op::Read(5),
            Op::Read(5),
        ]);
        let s = ftl.stats();
        assert_eq!(s.uncorrectable_surfaced, 2);
        assert_eq!(s.read_retries, 6);
        assert_eq!(s.pages_decoded, 8);
        assert_eq!(reference.stats.pages_decoded, 10);
    }

    #[test]
    fn the_reference_exercises_every_path() {
        // A fixed long sequence drives GC, housekeeping, retry remaps and
        // a surfaced error, so the property above is not vacuous. (A
        // persistent fault comes last: GC stops at a page it cannot read,
        // so one early on would fail most later writes.)
        let mut rng = DeterministicRng::new(0x3E30);
        let mut ops: Vec<Op> = (0..3000)
            .map(|i| match rng.gen_range(0..40) {
                0 => Op::Housekeeping,
                1 => Op::Fault(false),
                2 => Op::Trim(rng.gen_range(0..100)),
                3 => Op::Ber(if i % 5 == 0 { 50 } else { (i % 3) as u8 }),
                n if n < 22 => Op::Write(rng.gen_range(0..100), rng.gen_u64()),
                _ => Op::Read(rng.gen_range(0..100)),
            })
            .collect();
        ops.extend([Op::Write(5, 1), Op::Fault(true), Op::Read(5)]);
        let (ftl, reference) = run(&ops);
        let s = ftl.stats();
        assert!(s.gc_moved_pages > 0 && s.hk_moved_pages > 0, "{s:?}");
        assert!(s.retry_remaps > 0 && s.uncorrectable_surfaced > 0, "{s:?}");
        assert!(s.words_corrected > 0, "{s:?}");
        assert!(
            s.pages_decoded * 2 < reference.stats.pages_decoded,
            "{} of {}",
            s.pages_decoded,
            reference.stats.pages_decoded
        );
    }
}

mod histogram_props {
    use super::*;
    use nvdimmc::sim::{Histogram, SimDuration};

    proptest! {
        #[test]
        fn percentiles_monotone_and_bounded(samples in prop::collection::vec(1u64..1 << 40, 1..200)) {
            let mut h = Histogram::new();
            let mut min = u64::MAX;
            let mut max = 0;
            for &s in &samples {
                h.record(SimDuration::from_ps(s));
                min = min.min(s);
                max = max.max(s);
            }
            prop_assert_eq!(h.count(), samples.len() as u64);
            let mut last = SimDuration::ZERO;
            for p in [0.0, 25.0, 50.0, 75.0, 90.0, 99.0, 100.0] {
                let v = h.percentile(p);
                prop_assert!(v >= last);
                prop_assert!(v <= SimDuration::from_ps(max));
                last = v;
            }
            // Mean within [min, max].
            prop_assert!(h.mean() >= SimDuration::from_ps(min).min(h.mean()));
            prop_assert!(h.mean() <= SimDuration::from_ps(max));
        }
    }
}

mod coalesce_props {
    use super::*;
    use nvdimmc::core::{coalesce, ReqKind, ShardRequest};
    use nvdimmc::sim::SimTime;

    /// A batch of shard requests with adjacency planted often enough
    /// that merging actually happens: offsets walk forward with random
    /// gaps (gap 0 = exactly contiguous).
    fn arb_batch() -> impl Strategy<Value = Vec<ShardRequest>> {
        proptest::collection::vec((any::<bool>(), 0u64..3, 1u64..5, 0u64..1000), 1..40).prop_map(
            |specs| {
                let mut offset = 0u64;
                specs
                    .into_iter()
                    .enumerate()
                    .map(|(i, (is_read, gap_pages, len_pages, ps))| {
                        offset += gap_pages * 4096;
                        let local_offset = offset;
                        let len = len_pages * 4096;
                        offset += len;
                        let kind = if is_read {
                            ReqKind::Read
                        } else {
                            ReqKind::Write
                        };
                        ShardRequest {
                            seq: i as u64,
                            thread: (i % 5) as u32,
                            kind,
                            local_offset,
                            len,
                            not_before: SimTime::ZERO + nvdimmc::sim::SimDuration::from_ps(ps),
                            data: if is_read {
                                Vec::new()
                            } else {
                                vec![i as u8; len as usize]
                            },
                        }
                    })
                    .collect()
            },
        )
    }

    proptest! {
        /// Every coalesced run covers exactly the union of its parents'
        /// pages — the parents tile `[local_offset, local_offset+len)`
        /// with no gap and no overlap — and the whole input multiset is
        /// preserved across the outputs in FIFO order.
        #[test]
        fn coalesced_runs_tile_their_parents_exactly(
            batch in arb_batch(),
            cap_pages in 1u64..8,
        ) {
            let inputs: Vec<(u64, ReqKind, u64, u64)> = batch
                .iter()
                .map(|r| (r.seq, r.kind, r.local_offset, r.len))
                .collect();
            let runs = coalesce(batch, cap_pages * 4096);
            let mut seen = Vec::new();
            for run in &runs {
                // Parents tile the merged span exactly.
                let mut cursor = run.local_offset;
                for p in &run.parents {
                    prop_assert_eq!(p.local_offset, cursor, "gap or overlap inside a run");
                    cursor += p.len;
                    seen.push((p.seq, run.kind, p.local_offset, p.len));
                }
                prop_assert_eq!(cursor, run.local_offset + run.len, "run length != parent union");
                // A multi-parent run respects the byte cap; singletons may
                // exceed it (one oversized request still has to be served).
                if run.parents.len() > 1 {
                    prop_assert!(run.len <= cap_pages * 4096, "merged run exceeds the DMA cap");
                }
                // Write runs carry the concatenated payloads.
                if run.kind == ReqKind::Write {
                    prop_assert_eq!(run.data.len() as u64, run.len);
                }
            }
            // Nothing lost, nothing invented, FIFO order preserved.
            prop_assert_eq!(seen, inputs);
        }
    }
}

mod merge_props {
    use super::*;
    use nvdimmc::core::{PowerFailReport, RecoveryStats};

    /// Builds a fully-populated ledger from 31 raw counters (one per
    /// field, in declaration order), so the merge laws are exercised
    /// over *every* field — a field someone forgets to merge would
    /// freeze at the left operand and break order independence.
    fn stats_from(v: &[u64]) -> RecoveryStats {
        let f = |i: usize| v[i % v.len()];
        RecoveryStats {
            nand_faults_injected: f(0),
            nand_read_retries: f(1),
            nand_retry_recovered: f(2),
            nand_retry_remaps: f(3),
            nand_uncorrectable_surfaced: f(4),
            acks_dropped: f(5),
            acks_corrupted: f(6),
            cmd_decode_failures: f(7),
            nand_errors_nacked: f(8),
            replayed_acks: f(9),
            cp_attempt_timeouts: f(10),
            cp_retransmits: f(11),
            cp_recovered: f(12),
            cp_transactions_failed: f(13),
            overrun_stalls: f(14),
            bursts_split: f(15),
            bursts_resumed: f(16),
            slots_corrupted: f(17),
            scrub_detected: f(18),
            scrub_refills: f(19),
            scrub_dropped_clean: f(20),
            cache_corruption_surfaced: f(21),
            power_fails_fired: f(22),
            power_fails_recovered: f(23),
            degraded_entries: f(24),
            rebuilds_started: f(25),
            rebuilds_completed: f(26),
            rebuilds_failed: f(27),
            rebuild_writebacks: f(28),
            rebuild_pages_lost: f(29),
            faults_scheduled: f(30),
            faults_fired: f(31),
        }
    }

    fn merged(a: &RecoveryStats, b: &RecoveryStats) -> RecoveryStats {
        let mut out = *a;
        out.merge(b);
        out
    }

    fn dump_merged(a: &PowerFailReport, b: &PowerFailReport) -> PowerFailReport {
        let mut out = *a;
        out.merge(b);
        out
    }

    /// Small counters (u32 range) so three-way sums cannot overflow.
    fn arb_counters() -> impl Strategy<Value = Vec<u64>> {
        prop::collection::vec(any::<u32>().prop_map(u64::from), 32usize)
    }

    fn arb_dump() -> impl Strategy<Value = PowerFailReport> {
        (any::<u32>(), any::<u32>(), any::<u32>(), any::<bool>()).prop_map(|(s, b, d, adr)| {
            PowerFailReport {
                slots_flushed: u64::from(s),
                bytes_flushed: u64::from(b),
                slots_dropped: u64::from(d),
                adr_worked: adr,
            }
        })
    }

    proptest! {
        /// `RecoveryStats::merge` is associative: fanning shard ledgers
        /// into a tree or a left fold gives the same machine total.
        #[test]
        fn recovery_stats_merge_is_associative(
            a in arb_counters(),
            b in arb_counters(),
            c in arb_counters(),
        ) {
            let (a, b, c) = (stats_from(&a), stats_from(&b), stats_from(&c));
            prop_assert_eq!(merged(&merged(&a, &b), &c), merged(&a, &merged(&b, &c)));
        }

        /// ...and commutative, so the merged report is independent of
        /// shard iteration order.
        #[test]
        fn recovery_stats_merge_is_order_independent(
            a in arb_counters(),
            b in arb_counters(),
            c in arb_counters(),
        ) {
            let (a, b, c) = (stats_from(&a), stats_from(&b), stats_from(&c));
            let fwd = merged(&merged(&a, &b), &c);
            let rev = merged(&merged(&c, &b), &a);
            prop_assert_eq!(fwd, rev);
        }

        /// `PowerFailReport::merge` (the §V-C power-fail dump) is associative
        /// across shards, counters and `adr_worked` alike.
        #[test]
        fn dump_report_merge_is_associative(
            a in arb_dump(),
            b in arb_dump(),
            c in arb_dump(),
        ) {
            prop_assert_eq!(
                dump_merged(&dump_merged(&a, &b), &c),
                dump_merged(&a, &dump_merged(&b, &c))
            );
        }

        /// The `adr_worked` AND-merge is order-independent: one shard's
        /// lost WPQ taints the machine-wide strong-domain claim no
        /// matter where it sits in the fold.
        #[test]
        fn adr_worked_and_merge_is_order_independent(
            dumps in prop::collection::vec(arb_dump(), 1..8),
        ) {
            let fold = |iter: &mut dyn Iterator<Item = &PowerFailReport>| {
                let mut out = PowerFailReport {
                    adr_worked: true,
                    ..PowerFailReport::default()
                };
                for d in iter {
                    out.merge(d);
                }
                out
            };
            let fwd = fold(&mut dumps.iter());
            let rev = fold(&mut dumps.iter().rev());
            prop_assert_eq!(fwd, rev);
            prop_assert_eq!(fwd.adr_worked, dumps.iter().all(|d| d.adr_worked));
        }
    }
}
