//! Differential test of column runs: a [`ColumnRun`] through
//! `SharedBus::issue_column_run` against the same commands through
//! `SharedBus::issue` one at a time. Two buses run the same script in
//! lockstep, one per path, and after every run must agree on the returned
//! instants, bus and device counters, bank and window state, the recorded
//! trace and the CA capture (a run's one capture entry expanded to its
//! edges). An invalid run must return the per-command path's violation
//! and leave its bus untouched.

use nvdimmc_ddr::bus::RefreshWindow;
use nvdimmc_ddr::{
    AccessKind, BankAddr, BankState, BusMaster, BusStats, BusViolation, ColumnRun, Command,
    DramDevice, RefreshMode, SharedBus, SpeedBin, TimingParams, TraceEntry,
};
use nvdimmc_sim::{DeterministicRng, SimDuration, SimTime};

const CAP: u64 = 1 << 27;
const COLS: u16 = 128;

fn timing() -> TimingParams {
    TimingParams::nvdimmc_poc(SpeedBin::Ddr4_1600)
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Path {
    Run,
    PerCommand,
}

fn fresh_bus(mode: RefreshMode) -> SharedBus {
    let mut bus = SharedBus::new(DramDevice::new(timing(), CAP));
    bus.set_refresh_mode(mode);
    bus.attach_recorder();
    bus.set_ca_capture(true);
    bus
}

/// Issues `run` along `path`, its first command at `at` or — when that
/// is bumped by a retryable violation — at the legal instant the violation
/// names. Returns the first command's instant and the last data end.
fn issue(
    bus: &mut SharedBus,
    path: Path,
    master: BusMaster,
    mut at: SimTime,
    run: &ColumnRun,
) -> Result<(SimTime, SimTime), BusViolation> {
    for _ in 0..16 {
        let first = match path {
            Path::Run => bus.issue_column_run(master, at, run),
            Path::PerCommand => bus.issue(master, at, run.command(0)),
        };
        match first {
            Ok(mut end) => {
                if path == Path::PerCommand {
                    for k in 1..run.count {
                        end = bus.issue(master, run.issue_at(at, k), run.command(k))?;
                    }
                }
                return Ok((at, end));
            }
            Err(
                BusViolation::Timing { legal_at, .. }
                | BusViolation::CommandDuringRefresh {
                    busy_until: legal_at,
                    ..
                },
            ) if legal_at > at => at = legal_at,
            Err(v) => return Err(v),
        }
    }
    panic!("first command of {run:?} bumped past the retry budget");
}

/// Everything observable about a bus except the recorder and CA log.
#[derive(Debug, Clone, PartialEq)]
struct Snapshot {
    stats: BusStats,
    device: nvdimmc_ddr::device::DeviceStats,
    banks: Vec<(BankState, SimTime, SimTime, SimTime)>,
    window: Option<RefreshWindow>,
    bank_windows: Vec<Option<RefreshWindow>>,
}

fn snapshot(bus: &SharedBus) -> Snapshot {
    let banks = (0..BankAddr::COUNT).map(BankAddr::from_index);
    Snapshot {
        stats: bus.stats(),
        device: bus.device().stats(),
        banks: banks
            .clone()
            .map(|b| {
                let bank = bus.device().bank(b);
                (
                    bank.state(),
                    bank.earliest_activate(),
                    bank.earliest_rw(),
                    bank.earliest_precharge(),
                )
            })
            .collect(),
        window: bus.window(),
        bank_windows: banks.map(|b| bus.bank_window(b)).collect(),
    }
}

/// The snapshot without the rejection counters, which count attempts.
fn effects(mut s: Snapshot) -> Snapshot {
    s.stats.retries_rejected = 0;
    s.stats.violations_rejected = 0;
    s
}

/// One CA edge: instant, the six monitored pins, CKE at the previous edge.
type Edge = (SimTime, [bool; 6], bool);

fn drain_edges(bus: &mut SharedBus) -> Vec<Edge> {
    bus.drain_ca_log()
        .iter()
        .flat_map(|c| {
            (0..c.count).map(move |k| (c.edge_at(k), c.pins.monitored_pins(), c.pins.cke_prev))
        })
        .collect()
}

fn drain(bus: &mut SharedBus) -> (Vec<TraceEntry>, Vec<Edge>) {
    (bus.take_trace(), drain_edges(bus))
}

/// Opens the window the scenario works in and returns it with the bank
/// the runs target. Rank mode: PREA + REF. Per-bank mode: a REFpb to a
/// bank other than the runs' (the host) or to the runs' bank (the NVMC).
fn open_window(
    bus: &mut SharedBus,
    mode: RefreshMode,
    master: BusMaster,
    rng: &mut DeterministicRng,
) -> (RefreshWindow, BankAddr) {
    let t = timing();
    let host = BusMaster::HostImc;
    let t0 = SimTime::from_us(1);
    let bank = BankAddr::from_index(rng.gen_range(0..16) as u8);
    match mode {
        RefreshMode::RankLevel => {
            bus.issue(host, t0, Command::PrechargeAll).unwrap();
            bus.issue(host, t0 + t.trp, Command::Refresh).unwrap();
            (bus.window().unwrap(), bank)
        }
        RefreshMode::PerBank => {
            let refreshed = match master {
                BusMaster::Nvmc => bank,
                BusMaster::HostImc => BankAddr::from_index((bank.index() + 1) % 16),
            };
            let stretch = rng.gen_range(0..16) as u8;
            bus.issue(
                host,
                t0,
                Command::RefreshBank {
                    bank: refreshed,
                    stretch,
                },
            )
            .unwrap();
            (bus.bank_window(refreshed).unwrap(), bank)
        }
    }
}

/// A random valid-shape run (interval at least tCCD_L, inside the row).
fn random_run(rng: &mut DeterministicRng, bank: BankAddr) -> ColumnRun {
    let t = timing();
    let col = rng.gen_range(0..u64::from(COLS)) as u16;
    let count = rng.gen_range(1..u64::from(COLS - col).min(64) + 1) as u16;
    let extra = match rng.gen_range(0..4) {
        0 => SimDuration::ZERO,
        1 => t.speed.tck() * rng.gen_range(1..6),
        2 => SimDuration::from_ps(rng.gen_range(1..20_000)),
        _ => t.tccd_l * rng.gen_range(1..4),
    };
    ColumnRun {
        kind: if rng.gen_bool(0.5) {
            AccessKind::Read
        } else {
            AccessKind::Write
        },
        bank,
        col,
        count,
        interval: t.tccd_l + extra,
    }
}

/// Drives both paths through one random script in lockstep.
fn lockstep(mode: RefreshMode, master: BusMaster, seed: u64) -> (u32, u32) {
    let t = timing();
    let mut rng = DeterministicRng::new(seed);
    let mut buses = [fresh_bus(mode), fresh_bus(mode)];
    let paths = [Path::Run, Path::PerCommand];
    let mut opened = None;
    for bus in &mut buses {
        let mut setup = DeterministicRng::new(seed ^ 0x5EED);
        opened = Some(open_window(bus, mode, master, &mut setup));
    }
    let (window, bank) = opened.unwrap();
    // The host resumes after the window; the NVMC works inside it.
    let act_at = match master {
        BusMaster::HostImc => buses[0].host_ready_at(window.ref_at),
        BusMaster::Nvmc => window.opens,
    };
    for bus in &mut buses {
        bus.issue(master, act_at, Command::Activate { bank, row: 77 })
            .unwrap();
    }
    let [a, b] = &mut buses;
    assert_eq!(drain(a), drain(b));
    // The first run is bumped by tRCD.
    let mut at = act_at;
    let (mut accepted, mut rejected) = (0, 0);
    for _ in 0..12 {
        let run = random_run(&mut rng, bank);
        let before = snapshot(&buses[0]);
        let results: Vec<_> = buses
            .iter_mut()
            .zip(paths)
            .map(|(bus, path)| issue(bus, path, master, at, &run))
            .collect();
        assert_eq!(results[0], results[1], "{run:?} at {at}");
        match results[0] {
            Ok((first, _)) => {
                accepted += 1;
                assert_eq!(snapshot(&buses[0]), snapshot(&buses[1]), "{run:?}");
                let [a, b] = &mut buses;
                assert_eq!(drain(a), drain(b), "{run:?}");
                // Next run: right behind this one's last command (bumped
                // by tCCD, tWTR or the read-to-write turnaround), or later.
                let last = run.issue_at(first, run.count - 1);
                // The other master in the run's last CA slot: a conflict
                // naming the run's last command (rank mode) or a tCK retry
                // (per-bank mode), on both paths alike.
                let other = match master {
                    BusMaster::HostImc => BusMaster::Nvmc,
                    BusMaster::Nvmc => BusMaster::HostImc,
                };
                let probes: Vec<_> = buses
                    .iter_mut()
                    .map(|bus| bus.issue(other, last, Command::Deselect))
                    .collect();
                assert_eq!(probes[0], probes[1], "{run:?}");
                assert!(probes[0].is_err(), "{run:?}: {probes:?}");
                at = last + t.speed.tck() * rng.gen_range(0..12);
            }
            Err(_) => {
                // Only the NVMC's window close can fail a valid-shape run.
                assert_eq!(master, BusMaster::Nvmc, "{run:?}: {results:?}");
                rejected += 1;
                assert_eq!(effects(snapshot(&buses[0])), effects(before.clone()));
                let (trace, edges) = drain(&mut buses[0]);
                assert!(trace.is_empty() && edges.is_empty(), "{run:?} left traces");
                break;
            }
        }
    }
    (accepted, rejected)
}

#[test]
fn runs_match_per_command_issue_in_every_mode_for_both_masters() {
    let mut nvmc_rejected = 0;
    for mode in [RefreshMode::RankLevel, RefreshMode::PerBank] {
        for master in [BusMaster::HostImc, BusMaster::Nvmc] {
            let mut accepted = 0;
            for seed in 0..48 {
                let (a, r) = lockstep(mode, master, seed);
                accepted += a;
                if master == BusMaster::Nvmc {
                    nvmc_rejected += r;
                }
            }
            assert!(accepted >= 48, "{mode:?} {master}: only {accepted} runs");
        }
    }
    assert!(nvmc_rejected > 0, "no NVMC run overran its window");
}

/// Sets up a bus with bank (0,0) row 5 open and returns it with the first
/// legal column instant. The NVMC works inside a rank window, the host
/// after it.
fn open_row(master: BusMaster) -> (SharedBus, SimTime, RefreshWindow) {
    let t = timing();
    let mut bus = fresh_bus(RefreshMode::RankLevel);
    let host = BusMaster::HostImc;
    let t0 = SimTime::from_us(1);
    bus.issue(host, t0, Command::PrechargeAll).unwrap();
    bus.issue(host, t0 + t.trp, Command::Refresh).unwrap();
    let w = bus.window().unwrap();
    let act_at = match master {
        BusMaster::HostImc => w.closes,
        BusMaster::Nvmc => w.opens,
    };
    let bank = BankAddr::new(0, 0);
    bus.issue(master, act_at, Command::Activate { bank, row: 5 })
        .unwrap();
    drain(&mut bus);
    (bus, act_at + t.trcd, w)
}

/// The per-command path at fixed instants, stopping at the first error.
fn per_command_at(
    bus: &mut SharedBus,
    master: BusMaster,
    at: SimTime,
    run: &ColumnRun,
) -> Result<SimTime, BusViolation> {
    let mut end = at;
    for k in 0..run.count {
        end = bus.issue(master, run.issue_at(at, k), run.command(k))?;
    }
    Ok(end)
}

fn assert_invalid(master: BusMaster, at_offset: SimDuration, run: ColumnRun) -> BusViolation {
    let (mut reference, first, _) = open_row(master);
    let want = per_command_at(&mut reference, master, first + at_offset, &run)
        .expect_err("the per-command path must reject this run");
    let (mut bus, first, _) = open_row(master);
    let before = snapshot(&bus);
    let got = bus
        .issue_column_run(master, first + at_offset, &run)
        .expect_err("the run must be rejected");
    assert_eq!(got, want, "{run:?}");
    assert_eq!(
        effects(snapshot(&bus)),
        effects(before),
        "{run:?} changed state"
    );
    let (trace, edges) = drain(&mut bus);
    assert!(trace.is_empty() && edges.is_empty(), "{run:?} left traces");
    let rejections = |s: BusStats| s.retries_rejected + s.violations_rejected;
    assert_eq!(rejections(bus.stats()), 1, "one rejection counted");
    got
}

#[test]
fn invalid_runs_fail_like_the_per_command_path_and_change_nothing() {
    let t = timing();
    let bank = BankAddr::new(0, 0);
    let run = |kind, col, count, interval| ColumnRun {
        kind,
        bank,
        col,
        count,
        interval,
    };
    for master in [BusMaster::HostImc, BusMaster::Nvmc] {
        for kind in [AccessKind::Read, AccessKind::Write] {
            // Interval below tCK: the second command collides on CA.
            let v = assert_invalid(
                master,
                SimDuration::ZERO,
                run(kind, 0, 4, t.speed.tck() / 2),
            );
            assert!(
                matches!(
                    v,
                    BusViolation::Timing {
                        parameter: "tCK",
                        ..
                    }
                ),
                "{v:?}"
            );
            // Interval in [tCK, tCCD_L): tCCD rejects the second command.
            let v = assert_invalid(
                master,
                SimDuration::ZERO,
                run(kind, 0, 4, t.tccd_l - t.speed.tck()),
            );
            assert!(
                matches!(
                    v,
                    BusViolation::Timing {
                        parameter: "tCCD",
                        ..
                    }
                ),
                "{v:?}"
            );
            // Crossing the row end.
            let v = assert_invalid(master, SimDuration::ZERO, run(kind, COLS - 3, 5, t.tccd_l));
            assert!(
                matches!(v, BusViolation::BankState { command, .. } if command == run(kind, COLS - 3, 5, t.tccd_l).command(3)),
                "{v:?}"
            );
        }
    }
    // An invalid tail behind a first command that is itself illegal
    // (before tRCD): the first command's violation wins.
    let (mut reference, first, _) = open_row(BusMaster::HostImc);
    let early = first - t.speed.tck();
    let bad = run(AccessKind::Read, 0, 3, t.speed.tck());
    let want = per_command_at(&mut reference, BusMaster::HostImc, early, &bad).unwrap_err();
    assert!(
        matches!(
            want,
            BusViolation::Timing {
                parameter: "tRCD",
                ..
            }
        ),
        "{want:?}"
    );
    let (mut bus, _, _) = open_row(BusMaster::HostImc);
    assert_eq!(
        bus.issue_column_run(BusMaster::HostImc, early, &bad),
        Err(want)
    );
    // The NVMC past the window close: a train whose last command issues
    // inside the window but whose burst ends past the close, and one whose
    // commands run past the close. The first overrunning command is
    // reported, nothing is applied.
    let (_, first, w) = open_row(BusMaster::Nvmc);
    let span = w.closes.since(first);
    let last_inside = SimDuration::from_ps((span - t.tcl.min(t.tcwl) / 2).as_ps() / 63);
    let past = t.tccd_l * 2;
    let runs_past = (span.as_ps() / past.as_ps()) as u16 + 2;
    for kind in [AccessKind::Read, AccessKind::Write] {
        for (count, interval) in [(64, last_inside), (runs_past, past)] {
            let v = assert_invalid(
                BusMaster::Nvmc,
                SimDuration::ZERO,
                run(kind, 0, count, interval),
            );
            assert!(matches!(v, BusViolation::NvmcOutsideWindow { .. }), "{v:?}");
        }
    }
}

#[test]
fn read_run_behind_a_write_run_is_bumped_by_twtr() {
    let t = timing();
    let bank = BankAddr::new(0, 0);
    for master in [BusMaster::HostImc, BusMaster::Nvmc] {
        let mut buses = [open_row(master).0, open_row(master).0];
        let (_, first, _) = open_row(master);
        let write = ColumnRun {
            kind: AccessKind::Write,
            bank,
            col: 0,
            count: 16,
            interval: t.tccd_l,
        };
        let read = ColumnRun {
            kind: AccessKind::Read,
            col: 16,
            ..write
        };
        let mut ends = Vec::new();
        for (bus, path) in buses.iter_mut().zip([Path::Run, Path::PerCommand]) {
            let (_, write_end) = issue(bus, path, master, first, &write).unwrap();
            let behind = write.issue_at(first, write.count - 1) + t.tccd_l;
            let (read_at, read_end) = issue(bus, path, master, behind, &read).unwrap();
            assert_eq!(read_at, write_end + t.twtr, "bumped to the tWTR gate");
            ends.push((write_end, read_at, read_end));
        }
        assert_eq!(ends[0], ends[1]);
        assert_eq!(snapshot(&buses[0]), snapshot(&buses[1]));
        let [a, b] = &mut buses;
        assert_eq!(drain(a), drain(b));
    }
}

#[test]
fn host_run_into_a_refreshing_bank_is_bumped_then_rejected_alike() {
    // Per-bank mode: the run's bank is inside its REFpb window, so the
    // first command is refresh-blocked; at the close the bank is still
    // precharged, which is a hard violation on both paths.
    let bank = BankAddr::new(2, 1);
    let run = ColumnRun {
        kind: AccessKind::Read,
        bank,
        col: 8,
        count: 8,
        interval: timing().tccd_l,
    };
    let mut outcomes = Vec::new();
    for path in [Path::Run, Path::PerCommand] {
        let mut bus = fresh_bus(RefreshMode::PerBank);
        let t0 = SimTime::from_us(1);
        bus.issue(
            BusMaster::HostImc,
            t0,
            Command::RefreshBank { bank, stretch: 3 },
        )
        .unwrap();
        let w = bus.bank_window(bank).unwrap();
        let result = issue(&mut bus, path, BusMaster::HostImc, w.opens, &run);
        assert!(
            matches!(result, Err(BusViolation::BankState { at, .. }) if at == w.closes),
            "{result:?}"
        );
        outcomes.push((result, snapshot(&bus), drain(&mut bus)));
    }
    assert_eq!(outcomes[0], outcomes[1]);
}
