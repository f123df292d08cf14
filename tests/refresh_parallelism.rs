//! Refresh–access parallelism: the per-bank NVMC window mode against the
//! rank-level legacy mode, differentially.
//!
//! - **Differential runs** — the same seed and workload under both
//!   refresh modes return bit-identical host-visible data (an
//!   order-independent digest over every read payload), produce traces
//!   that pass every `nvdimmc-check` pass, and the per-bank mode is
//!   strictly faster at 4+ channels (the whole point: the iMC keeps
//!   serving idle banks while the NVMC works the refreshing one).
//! - **Checker properties** — generated per-bank window schedules
//!   round-trip clean through `check_refresh_windows`; an injected
//!   out-of-window NVMC beat or same-bank host/NVMC overlap is flagged
//!   with exactly one diagnostic.
//! - **Golden corpus** — two small captured traces (one legal per-bank
//!   interleaving, one known violation) under `tests/refresh_corpus/`
//!   replay bit-identically on every run.
//! - **Miss path** — blocking 4 KB misses on one shard at all 16 stretch
//!   levels against rank level, with the refresh cadence audited; the
//!   table prints under `--nocapture`.

use nvdimmc::check::{check_refresh_windows, check_shards};
use nvdimmc::core::{
    BlockDevice, MultiChannelConfig, MultiChannelSystem, NvdimmCConfig, PAGE_BYTES,
};
use nvdimmc::ddr::{BankAddr, BusMaster, Command, RefreshMode, SpeedBin, TimingParams, TraceEntry};
use nvdimmc::sim::{SimDuration, SimTime};
use nvdimmc::workloads::{ConcurrentFio, ConcurrentReport, FioJob};
use proptest::prelude::*;

const CHANNELS: u32 = 4;
const PAGES_PER_CHANNEL: u64 = 48;

/// Builds a front in the given mode, writes a distinct pattern to every
/// page single-threadedly (so concurrent reads observe deterministic
/// data with no cross-thread write races), then drives the same-seeded
/// concurrent random-read job over it with trace capture on.
fn run_mode(mode: RefreshMode) -> (ConcurrentReport, Vec<Vec<TraceEntry>>, TimingParams) {
    let cfg = NvdimmCConfig::small_for_tests().with_refresh_mode(mode);
    let timing = cfg.timing;
    let mut sys = MultiChannelSystem::new(MultiChannelConfig::new(cfg, CHANNELS)).unwrap();
    let span = PAGES_PER_CHANNEL * PAGE_BYTES * u64::from(CHANNELS);
    let mut page = vec![0u8; PAGE_BYTES as usize];
    for p in 0..span / PAGE_BYTES {
        page.fill((p % 251) as u8);
        sys.write_at(p * PAGE_BYTES, &page).unwrap();
    }
    sys.set_trace_capture(true);
    let threads = 4 * CHANNELS;
    let report = ConcurrentFio {
        job: FioJob::rand_read_4k(span, u64::from(threads) * 16),
        threads,
    }
    .run_multichannel(&mut sys)
    .unwrap();
    let traces = sys
        .set_trace_capture(false)
        .expect("disabling capture returns the epoch");
    (report, traces, timing)
}

#[test]
fn same_seed_workload_is_host_visibly_identical_and_per_bank_is_faster() {
    let (rank, rank_traces, timing) = run_mode(RefreshMode::RankLevel);
    let (pb, pb_traces, _) = run_mode(RefreshMode::PerBank);

    // Host-visible equality: every read returned the same bytes from the
    // same offsets, whichever refresh mode carried the refreshes.
    assert_ne!(rank.data_digest, 0, "digest never folded a read payload");
    assert_eq!(
        rank.data_digest, pb.data_digest,
        "refresh mode changed host-visible data"
    );

    // Both modes' traces pass every checker pass — including the
    // per-bank legality rules on the per-bank trace.
    for (label, traces) in [("rank", &rank_traces), ("per-bank", &pb_traces)] {
        assert_eq!(traces.len(), CHANNELS as usize);
        for (shard, rep) in check_shards(traces, &timing).iter().enumerate() {
            assert!(rep.is_clean(), "{label} shard {shard} trace dirty:\n{rep}");
        }
    }
    // The per-bank trace really used per-bank refreshes.
    assert!(
        pb_traces
            .iter()
            .flatten()
            .any(|e| matches!(e.cmd, Command::RefreshBank { .. })),
        "per-bank run shows no REFpb on the bus"
    );

    // Refresh–access parallelism: strictly more ops/s at 4 channels.
    assert!(
        pb.kiops() > rank.kiops(),
        "per-bank mode not faster: {:.0} vs {:.0} KIOPS",
        pb.kiops(),
        rank.kiops()
    );
}

#[test]
fn same_seed_reruns_are_bit_identical_in_both_modes() {
    for mode in [RefreshMode::RankLevel, RefreshMode::PerBank] {
        let (a, _, _) = run_mode(mode);
        let (b, _, _) = run_mode(mode);
        assert_eq!(a.data_digest, b.data_digest, "{mode:?} digest diverged");
        assert_eq!(a.kiops(), b.kiops(), "{mode:?} throughput diverged");
        assert_eq!(a.mean_latency(), b.mean_latency(), "{mode:?}");
        assert_eq!(a.utilisation, b.utilisation, "{mode:?}");
        assert_eq!(a.exec, b.exec, "{mode:?} executor ledger diverged");
    }
}

// ---------------------------------------------------------------------
// Checker properties over synthetic per-bank schedules.
// ---------------------------------------------------------------------

fn timing() -> TimingParams {
    TimingParams::nvdimmc_poc(SpeedBin::Ddr4_1600)
}

fn entry(master: BusMaster, at: SimTime, cmd: Command) -> TraceEntry {
    TraceEntry::observe(master, at, cmd, &timing())
}

/// One slot of a generated per-bank schedule.
#[derive(Debug, Clone, Copy)]
struct Slot {
    stretch: u8,
    nvmc_uses_window: bool,
    host_hits_other_bank: bool,
}

/// A legal per-bank schedule: REFpb slots at the per-bank cadence in
/// bank round-robin order (so no bank ever starves and no window is
/// reopened while live), with optional NVMC work inside each window and
/// optional host work in a far-away bank mid-window.
fn legal_schedule(slots: &[Slot]) -> Vec<TraceEntry> {
    let t = timing();
    let base = SimTime::from_us(10);
    // Wide enough that a bank's previous (fully stretched) window has
    // always closed before any traffic targets it again.
    let spacing = t.trefi_pb().max(SimDuration::from_ns(500));
    let mut trace = Vec::new();
    for (i, slot) in slots.iter().enumerate() {
        let bank = BankAddr::from_index((i % 16) as u8);
        let ref_at = base + spacing * i as u64;
        trace.push(entry(
            BusMaster::HostImc,
            ref_at,
            Command::RefreshBank {
                bank,
                stretch: slot.stretch,
            },
        ));
        let (opens, _closes) = t.nvmc_window_bounds_pb(ref_at, slot.stretch);
        if slot.nvmc_uses_window {
            trace.push(entry(
                BusMaster::Nvmc,
                opens,
                Command::Activate { bank, row: 1 },
            ));
            trace.push(entry(
                BusMaster::Nvmc,
                opens + t.tras,
                Command::Precharge { bank },
            ));
        }
        if slot.host_hits_other_bank {
            // Eight slots away in the round-robin: that bank's own window
            // closed microseconds ago. Close the row afterwards so the
            // bank is idle when its next REFpb comes round.
            let other = BankAddr::from_index(((i + 8) % 16) as u8);
            trace.push(entry(
                BusMaster::HostImc,
                opens + t.trrd_s,
                Command::Activate {
                    bank: other,
                    row: 2,
                },
            ));
            trace.push(entry(
                BusMaster::HostImc,
                opens + t.trrd_s + t.tras,
                Command::Precharge { bank: other },
            ));
        }
    }
    trace
}

fn arb_slots() -> impl Strategy<Value = Vec<Slot>> {
    prop::collection::vec(
        (0u8..=15, any::<bool>(), any::<bool>()).prop_map(|(stretch, nvmc, host)| Slot {
            stretch,
            nvmc_uses_window: nvmc,
            host_hits_other_bank: host,
        }),
        1..48,
    )
}

proptest! {
    /// Any generated bank/window schedule round-trips clean: windows at
    /// the per-bank cadence with in-window NVMC work and other-bank host
    /// work carry no diagnostics.
    #[test]
    fn generated_pb_schedules_check_clean(slots in arb_slots()) {
        let trace = legal_schedule(&slots);
        let diags = check_refresh_windows(&trace, &timing());
        prop_assert!(diags.is_empty(), "{diags:?}");
    }

    /// The schedule also survives the text round-trip: serialising every
    /// entry and parsing it back reproduces the same clean verdict on
    /// identical entries.
    #[test]
    fn schedules_survive_the_trace_text_roundtrip(slots in arb_slots()) {
        let trace = legal_schedule(&slots);
        let back: Vec<TraceEntry> = trace
            .iter()
            .map(|e| TraceEntry::from_line(&e.to_line()).expect("roundtrip"))
            .collect();
        prop_assert_eq!(&back, &trace);
        prop_assert!(check_refresh_windows(&back, &timing()).is_empty());
    }

    /// An NVMC beat injected before its bank's window opens is flagged
    /// with exactly one diagnostic.
    #[test]
    fn injected_early_nvmc_beat_is_flagged_exactly_once(
        slots in arb_slots(),
        pick in 0usize..4096,
    ) {
        let t = timing();
        let mut trace = legal_schedule(&slots);
        let refpbs: Vec<(SimTime, BankAddr)> = trace
            .iter()
            .filter_map(|e| match e.cmd {
                Command::RefreshBank { bank, .. } => Some((e.at, bank)),
                _ => None,
            })
            .collect();
        let (ref_at, bank) = refpbs[pick % refpbs.len()];
        // One nanosecond before tRFCpb elapses: the bank silicon is
        // still refreshing, so the NVMC may not touch it.
        trace.push(entry(
            BusMaster::Nvmc,
            ref_at + (t.trfc_pb - SimDuration::from_ns(1)),
            Command::Activate { bank, row: 7 },
        ));
        let diags = check_refresh_windows(&trace, &t);
        prop_assert_eq!(diags.len(), 1, "{:?}", diags);
        prop_assert_eq!(diags[0].rule, "refresh/nvmc-outside-window");
    }

    /// A host beat injected into the refreshing bank mid-window is
    /// flagged with exactly one diagnostic.
    #[test]
    fn injected_same_bank_host_overlap_is_flagged_exactly_once(
        slots in arb_slots(),
        pick in 0usize..4096,
    ) {
        let t = timing();
        let mut trace = legal_schedule(&slots);
        let refpbs: Vec<(SimTime, BankAddr, u8)> = trace
            .iter()
            .filter_map(|e| match e.cmd {
                Command::RefreshBank { bank, stretch } => Some((e.at, bank, stretch)),
                _ => None,
            })
            .collect();
        let (ref_at, bank, stretch) = refpbs[pick % refpbs.len()];
        let (opens, _) = t.nvmc_window_bounds_pb(ref_at, stretch);
        trace.push(entry(
            BusMaster::HostImc,
            opens,
            Command::Activate { bank, row: 9 },
        ));
        let diags = check_refresh_windows(&trace, &t);
        prop_assert_eq!(diags.len(), 1, "{:?}", diags);
        prop_assert_eq!(diags[0].rule, "refresh/host-inside-trfc");
    }
}

// ---------------------------------------------------------------------
// Golden-trace corpus replays.
// ---------------------------------------------------------------------

const CORPUS_LEGAL: &str = include_str!("refresh_corpus/pb_parallel_legal.trace");
const CORPUS_VIOLATION: &str = include_str!("refresh_corpus/pb_host_overlap_violation.trace");

fn parse_corpus(text: &str) -> Vec<TraceEntry> {
    text.lines()
        .filter(|l| !l.trim().is_empty() && !l.trim_start().starts_with('#'))
        .map(|l| TraceEntry::from_line(l).expect("corpus line parses"))
        .collect()
}

/// The committed legal interleaving — NVMC inside per-bank windows,
/// host in other banks mid-window, banks refreshed round-robin — stays
/// clean under the full checker.
#[test]
fn corpus_legal_per_bank_interleaving_replays_clean() {
    let trace = parse_corpus(CORPUS_LEGAL);
    assert!(trace.len() > 16, "corpus artifact truncated");
    let report = nvdimmc::check::check_trace(&trace, &timing());
    assert!(report.is_clean(), "{report}");
}

/// The committed violation — a host ACT into the refreshing bank
/// mid-window — keeps firing exactly the recorded diagnostic.
#[test]
fn corpus_host_overlap_violation_still_fires() {
    let trace = parse_corpus(CORPUS_VIOLATION);
    let diags = check_refresh_windows(&trace, &timing());
    assert_eq!(diags.len(), 1, "{diags:?}");
    assert_eq!(diags[0].rule, "refresh/host-inside-trfc");
    assert!(
        diags[0].message.contains("per-bank window"),
        "{}",
        diags[0].message
    );
}

/// Regenerates the committed corpus artifacts. Run explicitly after a
/// deliberate trace-format or timing change:
/// `cargo test --test refresh_parallelism regenerate -- --ignored`
#[test]
#[ignore = "writes tests/refresh_corpus/; run on deliberate format changes only"]
fn regenerate_refresh_corpus() {
    let slots: Vec<Slot> = (0..24)
        .map(|i| Slot {
            stretch: (i % 7) as u8 * 2,
            nvmc_uses_window: i % 2 == 0,
            host_hits_other_bank: i % 3 != 0,
        })
        .collect();
    let legal = legal_schedule(&slots);
    assert!(check_refresh_windows(&legal, &timing()).is_empty());

    let t = timing();
    let mut violation = legal_schedule(&slots[..4]);
    let (ref_at, bank, stretch) = violation
        .iter()
        .filter_map(|e| match e.cmd {
            Command::RefreshBank { bank, stretch } => Some((e.at, bank, stretch)),
            _ => None,
        })
        .nth(1)
        .unwrap();
    let (opens, _) = t.nvmc_window_bounds_pb(ref_at, stretch);
    violation.push(entry(
        BusMaster::HostImc,
        opens,
        Command::Activate { bank, row: 9 },
    ));

    let render = |header: &str, trace: &[TraceEntry]| {
        let mut lines: Vec<String> = header.lines().map(|l| format!("# {l}")).collect();
        lines.extend(trace.iter().map(TraceEntry::to_line));
        lines.join("\n") + "\n"
    };
    std::fs::write(
        "tests/refresh_corpus/pb_parallel_legal.trace",
        render(
            "Legal per-bank interleaving: REFpb round-robin at the per-bank\n\
             cadence, NVMC ACT/PRE inside each window, host ACTs to a bank\n\
             eight slots away mid-window. Must stay check-clean.",
            &legal,
        ),
    )
    .unwrap();
    std::fs::write(
        "tests/refresh_corpus/pb_host_overlap_violation.trace",
        render(
            "Known violation: the final host ACT lands in the refreshing\n\
             bank inside its still-open per-bank window. Must keep firing\n\
             exactly one refresh/host-inside-trfc diagnostic.",
            &violation,
        ),
    )
    .unwrap();
}

// ---------------------------------------------------------------------
// Power-fail injection mid-refresh-window (crash-sweep machinery).
// ---------------------------------------------------------------------

use nvdimmc::core::{CoreError, CrashPointKind, QueuedDevice};

const SENTINEL_OFF: u64 = 40 * PAGE_BYTES;
const SENTINEL_BYTE: u8 = 0xA7;

/// One channel with a two-slot cache: every churn access misses, so the
/// NVMC has transfers pending in essentially every refresh window and
/// the run crosses NVMC-burst crash boundaries in both refresh modes.
fn crashable_sys(mode: RefreshMode) -> MultiChannelSystem {
    let mut cfg = NvdimmCConfig::small_for_tests().with_refresh_mode(mode);
    cfg.cache_slots = 2;
    MultiChannelSystem::new(MultiChannelConfig::new(cfg, 1)).unwrap()
}

/// Persists a sentinel page, then churns a small footprint to keep NVMC
/// windows busy. Returns `(persist_done, resize_crossed)`: the crash
/// -boundary counts at which the sentinel's persist had completed and at
/// which the queue-depth hint jumped (forcing the per-bank planner to
/// shrink its window stretch — the mid-run stretch resize).
fn drive_churn(
    sys: &mut MultiChannelSystem,
    resize_at: Option<usize>,
) -> Result<(u64, u64), CoreError> {
    let pat = vec![SENTINEL_BYTE; PAGE_BYTES as usize];
    sys.write_at(SENTINEL_OFF, &pat)?;
    sys.persist(SENTINEL_OFF, PAGE_BYTES)?;
    let persist_done = sys.shards_mut()[0].crash_boundaries_crossed();
    let mut resize_crossed = 0;
    let mut buf = vec![0u8; PAGE_BYTES as usize];
    for i in 0..24usize {
        if resize_at == Some(i) {
            for s in sys.shards_mut() {
                s.note_queue_depth(12);
            }
            resize_crossed = sys.shards_mut()[0].crash_boundaries_crossed();
        }
        let page = (i % 8) as u64;
        if i % 3 == 0 {
            sys.read_at(page * PAGE_BYTES, &mut buf)?;
        } else {
            buf.fill((i % 251) as u8);
            sys.write_at(page * PAGE_BYTES, &buf)?;
        }
    }
    Ok((persist_done, resize_crossed))
}

/// Arms a power cut at boundary `k`, reruns the identical schedule,
/// recovers through the battery-backed dump + in-place reboot, and
/// asserts the persisted sentinel survived byte-exactly.
fn cut_and_verify(mode: RefreshMode, resize_at: Option<usize>, k: u64) {
    let mut sys = crashable_sys(mode);
    sys.crash_arm(0, k);
    match drive_churn(&mut sys, resize_at) {
        Err(CoreError::PowerInterrupted) => {
            sys.power_cycle(true).unwrap();
        }
        Ok(_) => panic!("{mode:?}: armed boundary {k} never fired"),
        Err(e) => panic!("{mode:?}: unexpected error at boundary {k}: {e}"),
    }
    let mut buf = vec![0u8; PAGE_BYTES as usize];
    sys.read_at(SENTINEL_OFF, &mut buf).unwrap();
    assert!(
        buf.iter().all(|&b| b == SENTINEL_BYTE),
        "{mode:?}: persisted sentinel lost across a cut at boundary {k}"
    );
}

/// A power cut landing *inside* a refresh window — between NVMC burst
/// edges, while the window is servicing transfers — must never lose
/// acked-persisted data, in rank-level or per-bank (REFpb) mode.
#[test]
fn power_fail_mid_refresh_window_preserves_persisted_data_in_both_modes() {
    for mode in [RefreshMode::RankLevel, RefreshMode::PerBank] {
        let mut sys = crashable_sys(mode);
        sys.crash_enumerate_begin();
        let (persist_done, _) = drive_churn(&mut sys, None).unwrap();
        let points = sys.crash_enumerate_take();
        let bursts: Vec<u64> = points[0]
            .iter()
            .filter(|p| p.kind == CrashPointKind::NvmcBurst && p.index >= persist_done)
            .map(|p| p.index)
            .collect();
        assert!(
            !bursts.is_empty(),
            "{mode:?}: churn never crossed a post-persist NVMC-burst boundary"
        );
        for &k in bursts.iter().step_by((bursts.len() / 6).max(1)) {
            cut_and_verify(mode, None, k);
        }
    }
}

/// A power cut in the window(s) right after the per-bank planner
/// resizes its stretch (a deep queue-depth hint shrinks windows toward
/// the base REFpb span mid-run) must equally preserve persisted data.
/// Runs in both modes: rank level ignores the hint but takes the same
/// cuts, pinning the differential behaviour down.
#[test]
fn power_fail_mid_stretch_resize_preserves_persisted_data_in_both_modes() {
    const RESIZE_AT: usize = 8;
    for mode in [RefreshMode::RankLevel, RefreshMode::PerBank] {
        let mut sys = crashable_sys(mode);
        sys.set_trace_capture(true);
        sys.crash_enumerate_begin();
        let (_, resize_crossed) = drive_churn(&mut sys, Some(RESIZE_AT)).unwrap();
        let points = sys.crash_enumerate_take();
        let traces = sys.set_trace_capture(false).unwrap();
        if mode == RefreshMode::PerBank {
            // The hint really resized the windows: REFpb stretch codes
            // before and after the jump differ.
            let stretches: std::collections::BTreeSet<u8> = traces
                .iter()
                .flatten()
                .filter_map(|e| match e.cmd {
                    Command::RefreshBank { stretch, .. } => Some(stretch),
                    _ => None,
                })
                .collect();
            assert!(
                stretches.len() >= 2,
                "queue-depth jump never resized the stretch: {stretches:?}"
            );
        }
        let bursts: Vec<u64> = points[0]
            .iter()
            .filter(|p| p.kind == CrashPointKind::NvmcBurst && p.index >= resize_crossed)
            .map(|p| p.index)
            .collect();
        assert!(
            !bursts.is_empty(),
            "{mode:?}: no NVMC-burst boundary after the stretch resize"
        );
        for &k in bursts.iter().step_by((bursts.len() / 4).max(1)) {
            cut_and_verify(mode, Some(RESIZE_AT), k);
        }
    }
}

// ---------------------------------------------------------------------
// Per-bank miss path at every stretch level, against rank level.
// ---------------------------------------------------------------------

use nvdimmc::check::refresh::STARVE_LIMIT;
use nvdimmc::core::{RefreshPlanner, System};
use nvdimmc::ddr::Imc;

/// Pages written before the probe; four times the cache, so the timed
/// reads cycle through them and every one misses.
const PROBE_PAGES: u64 = 64;
const PROBE_SLOTS: u64 = 16;
const PROBE_READS: u64 = 200;

/// What one miss-path probe measured over its timed reads.
struct MissPath {
    us_per_op: f64,
    windows_seen: u64,
    wrong_bank: u64,
    demand: u64,
    forced: u64,
}

/// One shard with a 16-slot cache and 64 dirty pages, then 200 blocking
/// 4 KB read misses with the executor's queue-depth hint fixed at
/// `hint` (per-bank stretch `15 - hint`). Every read is checked, and so
/// is the refresh cadence over the timed reads: no refresh was postponed
/// past the JEDEC backlog and written off as elided, and one was issued
/// per refresh tick (tREFI, or tREFI/16 per bank) of simulated time.
fn probe_miss_path(mode: RefreshMode, hint: usize) -> MissPath {
    let mut cfg = NvdimmCConfig::small_for_tests().with_refresh_mode(mode);
    cfg.cache_slots = PROBE_SLOTS;
    let tick = match mode {
        RefreshMode::RankLevel => cfg.timing.trefi,
        RefreshMode::PerBank => cfg.timing.trefi / u64::from(BankAddr::COUNT),
    };
    let mut sys = System::new(cfg).unwrap();
    let mut page = vec![0u8; PAGE_BYTES as usize];
    for p in 0..PROBE_PAGES {
        page.fill(p as u8);
        sys.write_at(p * PAGE_BYTES, &page).unwrap();
    }
    let (imc0, fpga0, (demand0, forced0)) = (
        sys.imc_stats(),
        sys.fpga_stats(),
        sys.refresh_planner_counts(),
    );
    let t0 = sys.now();
    for k in 0..PROBE_READS {
        sys.note_queue_depth(hint);
        let p = k % PROBE_PAGES;
        sys.read_at(p * PAGE_BYTES, &mut page).unwrap();
        assert!(
            page.iter().all(|&b| b == p as u8),
            "{mode:?} hint {hint}: page {p} came back corrupted"
        );
    }
    let sim = sys.now().since(t0);
    let (imc, fpga, (demand, forced)) = (
        sys.imc_stats(),
        sys.fpga_stats(),
        sys.refresh_planner_counts(),
    );
    assert_eq!(sys.bus_stats().violations_rejected, 0);
    assert_eq!(
        imc.refreshes_elided, imc0.refreshes_elided,
        "{mode:?} hint {hint}: refreshes elided during the reads"
    );
    let refreshes = imc.refreshes - imc0.refreshes;
    let ticks = sim.as_ns_f64() / tick.as_ns_f64();
    assert!(
        (refreshes as f64 - ticks).abs() <= 1.0,
        "{mode:?} hint {hint}: {refreshes} refreshes over {ticks:.1} ticks"
    );
    MissPath {
        us_per_op: sim.as_us_f64() / PROBE_READS as f64,
        windows_seen: fpga.windows_seen - fpga0.windows_seen,
        wrong_bank: fpga.windows_wrong_bank - fpga0.windows_wrong_bank,
        demand: demand - demand0,
        forced: forced - forced0,
    }
}

/// Per-bank µs/op at hints 14 and 15 (stretch 1 and 0: 270 ns and
/// 210 ns windows) before the iMC consumed each planner preference once
/// and the planner had postpone credit. Those levels must not get
/// slower than this.
const SHORT_WINDOW_BEFORE_US: [f64; 2] = [61.0, 66.4];

/// The miss path at all 16 stretch levels. A per-bank REFpb comes every
/// tREFI/16, so a miss can start its next FSM step within one slot of
/// the FSM being ready instead of waiting for the next rank REF. From
/// stretch 5 up a window holds a whole 4 KB burst and per-bank must beat
/// rank level. Below that the burst splits, and every piece costs
/// another FSM step: stretch 2–4 must stay within 10 % of rank level,
/// and stretch 0–1 must not regress.
#[test]
fn per_bank_miss_path_keeps_pace_with_rank_level_at_every_stretch() {
    let row = |label: &str, r: &MissPath| {
        println!(
            "{label:<22}  {:6.1}  {:7}  {:10}  {:6}  {:6}",
            r.us_per_op, r.windows_seen, r.wrong_bank, r.demand, r.forced
        );
    };
    println!("mode / stretch           us/op  windows  wrong-bank  demand  forced");
    let rank = probe_miss_path(RefreshMode::RankLevel, 0);
    row("rank-level", &rank);
    for hint in 0..16 {
        let pb = probe_miss_path(RefreshMode::PerBank, hint);
        row(&format!("per-bank hint {hint} / {}", 15 - hint), &pb);
        let bound = match hint {
            0..=10 => rank.us_per_op,
            11..=13 => rank.us_per_op * 1.10,
            _ => SHORT_WINDOW_BEFORE_US[hint - 14],
        };
        assert!(
            pb.us_per_op <= bound,
            "hint {hint}: {:.1} us/op, bound {bound:.1}",
            pb.us_per_op
        );
    }
}

/// The planner's postpone credit sits inside the iMC's own forcing
/// limit, which sits inside the checker's starvation bound: a bank the
/// planner postpones is never forced by the iMC, and never flagged.
#[test]
fn postpone_credit_nests_inside_imc_forcing_and_checker_starvation() {
    let per_interval = u32::from(BankAddr::COUNT);
    assert!(per_interval + RefreshPlanner::SLACK_SLOTS < Imc::PB_FORCE_LIMIT);
    assert!(u64::from(Imc::PB_FORCE_LIMIT) <= STARVE_LIMIT);
    assert_eq!(STARVE_LIMIT, 48);
}
