//! Property-based tests (proptest) over the core data structures and
//! invariants:
//!
//! - SEC-DED corrects any single-bit error and never miscorrects double
//!   errors;
//! - the DDR4 CA encode/decode truth table round-trips every command;
//! - the DRAM cache never aliases pages or leaks slots under arbitrary
//!   operation sequences, for all three policies;
//! - the FTL matches a flat HashMap model under arbitrary I/O;
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
                        t = ftl.write(lpn, &vec![fill; 4096], t).unwrap();
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
                            t = media.program(page, &[b as u8; 16], t).unwrap();
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
                            let (data, t2) = res.unwrap();
                            prop_assert_eq!(data[0], b as u8);
                            t = t2;
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
    use nvdimmc::host::{CpuCache, Memory, VecMemory};

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
    use nvdimmc::core::{DumpReport, RecoveryStats};

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

    fn dump_merged(a: &DumpReport, b: &DumpReport) -> DumpReport {
        let mut out = *a;
        out.merge(b);
        out
    }

    /// Small counters (u32 range) so three-way sums cannot overflow.
    fn arb_counters() -> impl Strategy<Value = Vec<u64>> {
        prop::collection::vec(any::<u32>().prop_map(u64::from), 32usize)
    }

    fn arb_dump() -> impl Strategy<Value = DumpReport> {
        (any::<u32>(), any::<u32>(), any::<u32>(), any::<bool>()).prop_map(|(s, b, d, adr)| {
            DumpReport {
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

        /// `DumpReport::merge` (the §V-C power-fail dump) is associative
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
            let fold = |iter: &mut dyn Iterator<Item = &DumpReport>| {
                let mut out = DumpReport {
                    adr_worked: true,
                    ..DumpReport::default()
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
