//! The FPGA's refresh-detection pipeline (paper §IV-A, Figure 4).
//!
//! Six CA pins (CKE, CS_n, ACT_n, RAS_n, CAS_n, WE_n) are routed into the
//! FPGA. Each feeds a **1:8 deserializer** that parallelises the
//! double-data-rate pin stream into 8-bit words every four clock cycles.
//! The **refresh detector** then checks whether any captured bit position
//! shows the REFRESH state — CKE, ACT_n, WE_n high with CS_n, RAS_n,
//! CAS_n low — and asserts `is_refresh`. Self-refresh entry/exit must not
//! trigger it (SRE carries CKE low).
//!
//! The per-bank extension detects REFpb too: the same six pins in the
//! (formerly reserved) state with CAS_n *high* instead of low. The bank
//! and stretch level ride on BG/BA and the address pins, which the
//! detector state machine does not monitor — the [`DetectorPipeline`]
//! recovers them from the full captured CA word, as the production FPGA
//! would from additionally-tapped pins.
//!
//! A command edge holds its pin state across one aligned capture, so each
//! pin's word is all ones or all zeros: [`RefreshDetector::feed_command`]
//! evaluates that constant word in closed form, once per CA-log entry (a
//! column run is one entry for its whole train). The bit-serial
//! [`Deserializer`] and [`RefreshDetector::push_sample`] are the RTL-level
//! model the closed form is tested against.

use nvdimmc_ddr::{BankAddr, CaCapture, CaPins, Command};
use nvdimmc_sim::SimTime;
use serde::{Deserialize, Serialize};

/// Number of monitored CA pins.
pub const MONITORED_PINS: usize = 6;
/// Deserialization ratio (bits per parallel word).
pub const DESER_RATIO: usize = 8;

/// A 1:8 serial-to-parallel converter for one pin.
#[derive(Debug, Clone, Default)]
struct PinDeserializer {
    shift: u8,
    count: u8,
}

impl PinDeserializer {
    /// Pushes one serial sample; returns the parallel word every eighth
    /// sample.
    fn push(&mut self, level: bool) -> Option<u8> {
        self.shift = (self.shift << 1) | u8::from(level);
        self.count += 1;
        if self.count == DESER_RATIO as u8 {
            self.count = 0;
            let w = self.shift;
            self.shift = 0;
            Some(w)
        } else {
            None
        }
    }
}

/// The six-pin deserializer bank.
#[derive(Debug, Clone, Default)]
pub struct Deserializer {
    pins: [PinDeserializer; MONITORED_PINS],
}

impl Deserializer {
    /// Creates an empty deserializer bank.
    pub fn new() -> Self {
        Self::default()
    }

    /// Pushes one sample of all six pins (paper order: CKE, CS_n, ACT_n,
    /// RAS_n, CAS_n, WE_n); returns the six parallel 8-bit words when a
    /// capture completes.
    pub fn push(&mut self, sample: [bool; MONITORED_PINS]) -> Option<[u8; MONITORED_PINS]> {
        let mut out = [0u8; MONITORED_PINS];
        let mut ready = false;
        for (i, (pin, &level)) in self.pins.iter_mut().zip(sample.iter()).enumerate() {
            if let Some(w) = pin.push(level) {
                out[i] = w;
                ready = true;
            }
        }
        ready.then_some(out)
    }
}

/// Detector statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct DetectorStats {
    /// Parallel words examined.
    pub words: u64,
    /// Refresh detections asserted (rank REF and per-bank REFpb).
    pub detections: u64,
    /// Of [`Self::detections`], how many were per-bank REFpb states.
    pub pb_detections: u64,
    /// Samples matching refresh-family encodings rejected for CKE
    /// transitions (SRE).
    pub sre_rejected: u64,
}

/// The combinational refresh detector over deserialized pin words.
///
/// # Example
///
/// ```
/// use nvdimmc_core::refresh::RefreshDetector;
/// use nvdimmc_ddr::{CaPins, Command};
///
/// let mut det = RefreshDetector::new();
/// let hits = det.feed_command(&CaPins::encode(&Command::Refresh));
/// assert_eq!(hits, 1);
/// let miss = det.feed_command(&CaPins::encode(&Command::PrechargeAll));
/// assert_eq!(miss, 0);
/// ```
#[derive(Debug, Clone, Default)]
pub struct RefreshDetector {
    deser: Deserializer,
    prev_cke_bit: bool,
    stats: DetectorStats,
}

impl RefreshDetector {
    /// Creates a detector with idle-bus history.
    pub fn new() -> Self {
        RefreshDetector {
            deser: Deserializer::new(),
            prev_cke_bit: true,
            stats: DetectorStats::default(),
        }
    }

    /// Counters.
    pub fn stats(&self) -> DetectorStats {
        self.stats
    }

    /// Feeds one raw pin sample; returns `true` when a completed capture
    /// contains the REFRESH state.
    pub fn push_sample(&mut self, sample: [bool; MONITORED_PINS]) -> bool {
        match self.deser.push(sample) {
            Some(words) => self.examine(words),
            None => false,
        }
    }

    /// Examines one parallel capture (six 8-bit words).
    fn examine(&mut self, words: [u8; MONITORED_PINS]) -> bool {
        self.stats.words += 1;
        let [cke, cs_n, act_n, ras_n, cas_n, we_n] = words;
        let mut hit = false;
        let mut pb_hit = false;
        for bit in (0..DESER_RATIO).rev() {
            let m = 1u8 << bit;
            let lv = |w: u8| w & m != 0;
            let is_ref_state =
                lv(cke) && lv(act_n) && lv(we_n) && !lv(cs_n) && !lv(ras_n) && !lv(cas_n);
            // Per-bank REFpb: the same state with CAS_n high (the formerly
            // reserved RAS_n-low CAS_n-high WE_n-high decode slot).
            let is_refpb_state =
                lv(cke) && lv(act_n) && lv(we_n) && !lv(cs_n) && !lv(ras_n) && lv(cas_n);
            // SRE shows the REF pin pattern *with CKE dropping*: the
            // refresh state requires CKE high at the command edge and at
            // the previous sample.
            let sre_like =
                !lv(cke) && lv(act_n) && lv(we_n) && !lv(cs_n) && !lv(ras_n) && !lv(cas_n);
            if sre_like {
                self.stats.sre_rejected += 1;
            }
            if is_ref_state && self.prev_cke_bit {
                hit = true;
            }
            if is_refpb_state && self.prev_cke_bit {
                pb_hit = true;
            }
            self.prev_cke_bit = lv(cke);
        }
        if hit || pb_hit {
            self.stats.detections += 1;
        }
        if pb_hit {
            self.stats.pb_detections += 1;
        }
        hit || pb_hit
    }

    /// Feeds one held command edge — the eight samples of one aligned
    /// capture — and returns how many detections fired. Evaluated in
    /// closed form; a command edge is always latched on a capture
    /// boundary, never mid-way through a word [`Self::push_sample`]
    /// started.
    pub fn feed_command(&mut self, pins: &CaPins) -> u64 {
        let before = self.stats.detections;
        self.examine_held(pins, 1);
        self.stats.detections - before
    }

    /// [`Self::examine`] of `count` captures of the held edge `pins`: each
    /// pin's word is all ones or all zeros. Within such a word every
    /// sample after the first has its own CKE as the previous sample's,
    /// and both refresh states need CKE high, so the carried-in CKE level
    /// never decides a match; the level carried out is the edge's CKE.
    fn examine_held(&mut self, pins: &CaPins, count: u16) -> bool {
        let n = u64::from(count);
        self.stats.words += n;
        if !pins.cke && pins.act_n && pins.we_n && !pins.cs_n && !pins.ras_n && !pins.cas_n {
            self.stats.sre_rejected += DESER_RATIO as u64 * n;
        }
        let pb_hit = pins.is_refresh_bank_state();
        let hit = pb_hit || pins.is_refresh_state();
        if hit {
            self.stats.detections += n;
        }
        if pb_hit {
            self.stats.pb_detections += n;
        }
        self.prev_cke_bit = pins.cke;
        hit
    }
}

/// A detected refresh with its command time — what the FPGA's window
/// scheduler consumes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RefreshEvent {
    /// When the REFRESH / REFpb command was captured.
    pub at: SimTime,
    /// `Some(bank)` for a per-bank REFpb (the window covers only that
    /// bank), `None` for a rank-level REF.
    pub bank: Option<BankAddr>,
    /// Window stretch level recovered from the address pins (REFpb only;
    /// zero for rank REF).
    pub stretch: u8,
}

impl RefreshEvent {
    /// A rank-level refresh event at `at`.
    pub fn rank(at: SimTime) -> Self {
        RefreshEvent {
            at,
            bank: None,
            stretch: 0,
        }
    }
}

/// Runs CA-bus captures through the detector and emits timed refresh
/// events.
#[derive(Debug, Default)]
pub struct DetectorPipeline {
    detector: RefreshDetector,
}

impl DetectorPipeline {
    /// Creates an empty pipeline.
    pub fn new() -> Self {
        Self::default()
    }

    /// The inner detector (stats).
    pub fn detector(&self) -> &RefreshDetector {
        &self.detector
    }

    /// Processes a drained CA log, returning one event per detected
    /// REFRESH or REFpb. For REFpb the bank and stretch are recovered
    /// from the captured BG/BA/address pins.
    pub fn process(&mut self, log: &[CaCapture]) -> Vec<RefreshEvent> {
        let mut out = Vec::new();
        for entry in log {
            if self.detector.examine_held(&entry.pins, entry.count) {
                let (bank, stretch) = match CaPins::decode(&entry.pins) {
                    Some(Command::RefreshBank { bank, stretch }) => (Some(bank), stretch),
                    _ => (None, 0),
                };
                out.extend((0..entry.count).map(|k| RefreshEvent {
                    at: entry.edge_at(k),
                    bank,
                    stretch,
                }));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nvdimmc_ddr::{BankAddr, Command};
    use nvdimmc_sim::SimDuration;

    /// A single command edge as the bus logs it.
    fn edge(at: SimTime, cmd: &Command) -> CaCapture {
        CaCapture {
            at,
            interval: SimDuration::ZERO,
            pins: CaPins::encode(cmd),
            count: 1,
        }
    }

    /// Every DDR4 command encoding, with the variants that change the
    /// monitored pins or the address pins the pipeline decodes.
    fn every_encoding() -> Vec<Command> {
        let b = BankAddr::new(2, 1);
        let mut cmds = vec![
            Command::Deselect,
            Command::PrechargeAll,
            Command::Precharge { bank: b },
            Command::Refresh,
            Command::SelfRefreshEnter,
            Command::SelfRefreshExit,
            Command::ZqCalibration,
            Command::ModeRegisterSet {
                register: 6,
                value: 0x155,
            },
        ];
        // ACT carries row bits on RAS_n/CAS_n/WE_n: all eight patterns.
        cmds.extend((0..8u32).map(|bits| Command::Activate {
            bank: b,
            row: bits << 14 | 0x2A5,
        }));
        for auto_precharge in [false, true] {
            cmds.push(Command::Read {
                bank: b,
                col: 0x3F,
                auto_precharge,
            });
            cmds.push(Command::Write {
                bank: b,
                col: 0x10,
                auto_precharge,
            });
        }
        cmds.extend((0..=15u8).map(|stretch| Command::RefreshBank { bank: b, stretch }));
        cmds
    }

    #[test]
    fn closed_form_word_matches_bit_serial_deserializer() {
        for cmd in every_encoding() {
            let pins = CaPins::encode(&cmd);
            for carried_cke in [false, true] {
                for count in [1u16, 3] {
                    let mut serial = RefreshDetector::new();
                    serial.prev_cke_bit = carried_cke;
                    let mut serial_hits = 0;
                    for _ in 0..usize::from(count) * DESER_RATIO {
                        serial_hits += u64::from(serial.push_sample(pins.monitored_pins()));
                    }
                    let mut closed = RefreshDetector::new();
                    closed.prev_cke_bit = carried_cke;
                    let hit = closed.examine_held(&pins, count);
                    let what = format!("{cmd:?}, carried CKE {carried_cke}, {count} words");
                    assert_eq!(closed.stats(), serial.stats(), "{what}");
                    assert_eq!(closed.prev_cke_bit, serial.prev_cke_bit, "{what}");
                    assert_eq!(u64::from(hit) * u64::from(count), serial_hits, "{what}");
                    if count == 1 {
                        let mut single = RefreshDetector::new();
                        single.prev_cke_bit = carried_cke;
                        assert_eq!(single.feed_command(&pins), serial_hits, "{what}");
                        assert_eq!(single.stats(), serial.stats(), "{what}");
                    }
                }
            }
        }
    }

    #[test]
    fn column_run_capture_detects_like_its_commands() {
        use nvdimmc_ddr::{
            AccessKind, BusMaster, ColumnRun, DramDevice, SharedBus, SpeedBin, TimingParams,
        };
        let timing = TimingParams::nvdimmc_poc(SpeedBin::Ddr4_1600);
        let bank = BankAddr::new(1, 3);
        let run = ColumnRun {
            kind: AccessKind::Read,
            bank,
            col: 5,
            count: 40,
            interval: timing.tccd_l,
        };
        // The same traffic — PREA, REF, then after the window an ACT and
        // the run — once as a run and once command by command.
        let logs: Vec<Vec<CaCapture>> = [true, false]
            .into_iter()
            .map(|as_run| {
                let mut bus = SharedBus::new(DramDevice::new(timing, 1 << 27));
                bus.set_ca_capture(true);
                let host = BusMaster::HostImc;
                let t0 = SimTime::from_us(1);
                bus.issue(host, t0, Command::PrechargeAll).unwrap();
                let ref_at = t0 + timing.trp;
                bus.issue(host, ref_at, Command::Refresh).unwrap();
                let act_at = bus.host_ready_at(ref_at);
                bus.issue(host, act_at, Command::Activate { bank, row: 9 })
                    .unwrap();
                let first = act_at + timing.trcd;
                if as_run {
                    bus.issue_column_run(host, first, &run).unwrap();
                } else {
                    for k in 0..run.count {
                        bus.issue(host, run.issue_at(first, k), run.command(k))
                            .unwrap();
                    }
                }
                bus.drain_ca_log()
            })
            .collect();
        assert_eq!(logs[0].len(), 4, "PREA, REF, ACT and one run entry");
        assert_eq!(logs[1].len(), 3 + usize::from(run.count));
        let mut as_run = DetectorPipeline::new();
        let mut per_command = DetectorPipeline::new();
        assert_eq!(as_run.process(&logs[0]), per_command.process(&logs[1]));
        assert_eq!(as_run.detector().stats(), per_command.detector().stats());
        assert_eq!(
            as_run.detector().prev_cke_bit,
            per_command.detector().prev_cke_bit
        );
        assert_eq!(as_run.detector().stats().words, 3 + u64::from(run.count));
    }

    #[test]
    fn deserializer_is_one_to_eight() {
        let mut d = Deserializer::new();
        for i in 0..7 {
            assert!(d.push([true; 6]).is_none(), "sample {i} completed early");
        }
        let words = d.push([true; 6]).unwrap();
        assert_eq!(words, [0xFF; 6]);
    }

    #[test]
    fn deserializer_preserves_bit_order() {
        let mut d = Deserializer::new();
        // Pin 0 pattern: 1,0,0,0,0,0,0,1 -> MSB-first 0b1000_0001.
        let pattern = [true, false, false, false, false, false, false, true];
        let mut out = None;
        for &b in &pattern {
            out = d.push([b, false, false, false, false, false]);
        }
        assert_eq!(out.unwrap()[0], 0b1000_0001);
    }

    #[test]
    fn detects_refresh_and_only_refresh() {
        let b = BankAddr::new(0, 0);
        let commands = [
            (Command::Refresh, true),
            (Command::PrechargeAll, false),
            (
                Command::Activate {
                    bank: b,
                    row: 0x1_4000, // row bits that set A16/A14 high
                },
                false,
            ),
            (
                Command::Read {
                    bank: b,
                    col: 0,
                    auto_precharge: false,
                },
                false,
            ),
            (
                Command::Write {
                    bank: b,
                    col: 0,
                    auto_precharge: true,
                },
                false,
            ),
            (Command::Deselect, false),
            (Command::ZqCalibration, false),
            (
                Command::ModeRegisterSet {
                    register: 0,
                    value: 0,
                },
                false,
            ),
        ];
        for (cmd, expect) in commands {
            let mut det = RefreshDetector::new();
            let hits = det.feed_command(&CaPins::encode(&cmd));
            assert_eq!(hits > 0, expect, "{cmd:?}");
        }
    }

    #[test]
    fn self_refresh_entry_not_detected() {
        let mut det = RefreshDetector::new();
        assert_eq!(
            det.feed_command(&CaPins::encode(&Command::SelfRefreshEnter)),
            0
        );
        assert!(
            det.stats().sre_rejected > 0,
            "SRE pattern seen and rejected"
        );
    }

    #[test]
    fn self_refresh_exit_not_detected() {
        let mut det = RefreshDetector::new();
        assert_eq!(
            det.feed_command(&CaPins::encode(&Command::SelfRefreshExit)),
            0
        );
    }

    #[test]
    fn refresh_right_after_sre_requires_cke_high_history() {
        let mut det = RefreshDetector::new();
        det.feed_command(&CaPins::encode(&Command::SelfRefreshEnter));
        // First sample after SRE has prev CKE low; a real REF (held 8
        // samples with CKE high) is still detected from the second sample.
        let hits = det.feed_command(&CaPins::encode(&Command::Refresh));
        assert_eq!(hits, 1);
    }

    #[test]
    fn pipeline_emits_timed_events() {
        let mut p = DetectorPipeline::new();
        let log = vec![
            edge(SimTime::from_ns(100), &Command::PrechargeAll),
            edge(SimTime::from_ns(120), &Command::Refresh),
            edge(SimTime::from_ns(900), &Command::Deselect),
            edge(SimTime::from_us(8), &Command::Refresh),
        ];
        let events = p.process(&log);
        assert_eq!(
            events,
            vec![
                RefreshEvent::rank(SimTime::from_ns(120)),
                RefreshEvent::rank(SimTime::from_us(8)),
            ]
        );
        assert_eq!(p.detector().stats().detections, 2);
    }

    #[test]
    fn per_bank_refresh_detected_with_bank_and_stretch() {
        let mut p = DetectorPipeline::new();
        let b = BankAddr::new(2, 3);
        let log = vec![
            edge(SimTime::from_ns(100), &Command::Precharge { bank: b }),
            edge(
                SimTime::from_ns(120),
                &Command::RefreshBank {
                    bank: b,
                    stretch: 9,
                },
            ),
            edge(SimTime::from_ns(140), &Command::Refresh),
        ];
        let events = p.process(&log);
        assert_eq!(
            events,
            vec![
                RefreshEvent {
                    at: SimTime::from_ns(120),
                    bank: Some(b),
                    stretch: 9,
                },
                RefreshEvent::rank(SimTime::from_ns(140)),
            ]
        );
        let s = p.detector().stats();
        assert_eq!(s.detections, 2);
        assert_eq!(s.pb_detections, 1);
    }

    #[test]
    fn refpb_after_sre_requires_cke_high_history() {
        let mut det = RefreshDetector::new();
        det.feed_command(&CaPins::encode(&Command::SelfRefreshEnter));
        let hits = det.feed_command(&CaPins::encode(&Command::RefreshBank {
            bank: BankAddr::new(0, 1),
            stretch: 0,
        }));
        assert_eq!(hits, 1);
        assert_eq!(det.stats().pb_detections, 1);
    }

    #[test]
    fn long_random_stream_no_false_positives() {
        use nvdimmc_sim::DeterministicRng;
        let mut rng = DeterministicRng::new(99);
        let mut det = RefreshDetector::new();
        let b = BankAddr::new(1, 1);
        for _ in 0..5_000 {
            let cmd = match rng.gen_range(0..5) {
                0 => Command::Activate {
                    bank: b,
                    row: rng.gen_range(0..1 << 17) as u32,
                },
                1 => Command::Read {
                    bank: b,
                    col: rng.gen_range(0..1024) as u16,
                    auto_precharge: rng.gen_bool(0.5),
                },
                2 => Command::Write {
                    bank: b,
                    col: rng.gen_range(0..1024) as u16,
                    auto_precharge: rng.gen_bool(0.5),
                },
                3 => Command::Precharge { bank: b },
                _ => Command::Deselect,
            };
            assert_eq!(det.feed_command(&CaPins::encode(&cmd)), 0, "{cmd:?}");
        }
    }
}
