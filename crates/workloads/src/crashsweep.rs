//! Crash-point sweep: exhaustive power-cut torture with a persistence
//! oracle, schedule shrinking, and a replayable crash corpus.
//!
//! CrashMonkey/ALICE for the NVDIMM-C stack. One deterministic workload
//! (generation-stamped multi-sector records: write / persist / read /
//! maintenance slots) is run three ways:
//!
//! 1. **Rehearse** — one fault-free pass with every shard in
//!    crash-enumerate mode records each crash boundary the run crosses:
//!    bus operations (per page of every read/write and per `clflush` of
//!    a persist), CP mailbox transitions (each ack-poll window), NVMC
//!    burst edges (each serviced refresh window, rank-level *and*
//!    per-bank), and maintenance slots (scrub / FTL housekeeping steps).
//! 2. **Sweep** — for each selected boundary `k`, replay the identical
//!    schedule with shard `s` armed to cut power exactly at `k`
//!    (determinism makes the boundary sequence bit-identical), dump the
//!    battery-backed state per the ADR policy and reboot from what the
//!    Z-NAND holds (one [`power_cycle`]), and run
//!    the [`check_crash`] persistence oracle over the read-back:
//!    acked-persisted generations survive, no invented generations, no
//!    torn multi-sector record (in-flight writes leave a clean prefix),
//!    recovery ledgers balance. Small runs sweep exhaustively;
//!    [`Sampling::Stratified`] keeps every boundary *class* covered at
//!    scale and bisects from a failing sample toward the earliest
//!    failing boundary of its stratum.
//! 3. **Shrink** — a failing point is delta-debugged to a 1-minimal op
//!    schedule (greedy single-op elimination after truncating past the
//!    crash) that still reproduces the violated rule class, then
//!    serialized as a `# nvdimmc-crash schedule v1` artifact for
//!    `tests/crash_corpus/` — the same replay-from-text shape as the
//!    model checker's counterexample corpus.
//!
//! [`power_cycle`]: MultiChannelSystem::power_cycle
//! [`check_crash`]: nvdimmc_check::check_crash

use crate::{fnv_fold, FNV_OFFSET};
use nvdimmc_check::{check_crash, CrashObservation, Diagnostic, RecordExpectation, SectorView};
use nvdimmc_core::{
    BlockDevice, CoreError, CrashPoint, CrashPointKind, MultiChannelConfig, MultiChannelSystem,
    NvdimmCConfig, PAGE_BYTES,
};
use nvdimmc_ddr::RefreshMode;
use nvdimmc_nand::ecc::crc32;
use nvdimmc_sim::DeterministicRng;
use serde::{Deserialize, Serialize};

/// Magic prefix of every sector stamp.
const STAMP_MAGIC: u64 = 0x4E56_4443_5245_C0DE;

/// One operation of the crash schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum CrashOp {
    /// Write the next generation of record `r` (all sectors, in order).
    Write(u64),
    /// `clflush`+`sfence` record `r`'s byte range; on ack the current
    /// written generation becomes the persisted generation.
    Persist(u64),
    /// Read record `r` back (drives eviction traffic; no ledger change).
    Read(u64),
    /// One maintenance slot: a bounded scrub step and an FTL
    /// housekeeping step on every shard, with crash boundaries between.
    Maintenance,
}

/// How much of the boundary space a sweep visits.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Sampling {
    /// Every boundary of every shard — the bounded-exhaustive mode.
    Exhaustive,
    /// Every `stride`-th boundary *per boundary class* (plus each
    /// class's first and last), so no class is starved at scale. A
    /// failing sample is bisected toward the earliest failing boundary
    /// between it and the previous sampled point of its class.
    Stratified {
        /// Keep one in `stride` boundaries of each class (min 1).
        stride: u64,
    },
}

/// A reproducing crash point: `(shard, boundary, kind, violated rules)`.
type Witness = (usize, u64, CrashPointKind, Vec<String>);

/// Crash-sweep configuration: the workload shape and the cut policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct CrashSweep {
    /// Channels (= shards) behind the front-end; records interleave
    /// across all of them, so multi-channel runs cover cross-shard
    /// record tears.
    pub channels: u32,
    /// Records in the working set.
    pub records: u64,
    /// Sectors (4 KB pages) per record; `> 1` makes torn-record states
    /// observable.
    pub sectors_per_record: u64,
    /// Scheduled operations generated from the seed.
    pub ops: u64,
    /// Seed for the op generator and the sector payloads.
    pub seed: u64,
    /// Refresh scheduling mode under test (rank-level or per-bank).
    pub refresh_mode: RefreshMode,
    /// Insert a [`CrashOp::Maintenance`] slot every this many ops
    /// (0 = never).
    pub maintenance_every: u64,
    /// Whether ADR holds at the cut. `true` is the strong-domain
    /// contract the oracle enforces; `false` reproduces the §V-C
    /// weak-domain tear (expected findings, kept as corpus artifacts).
    pub adr_works: bool,
    /// Boundary selection policy.
    pub sampling: Sampling,
}

impl CrashSweep {
    /// A bounded-exhaustive configuration small enough to sweep every
    /// boundary in a test run. The record count scales with the channel
    /// count so every shard's slice of the page-interleaved footprint
    /// overflows its deliberately tiny two-slot DRAM cache — without
    /// that pressure the sweep would never cross a CP-window or
    /// NVMC-burst boundary.
    pub fn small(channels: u32) -> Self {
        CrashSweep {
            channels,
            records: 4 * u64::from(channels),
            sectors_per_record: 2,
            ops: 4 + 4 * u64::from(channels),
            seed: 0x00C4_A54E_5EED,
            refresh_mode: RefreshMode::RankLevel,
            maintenance_every: 3,
            adr_works: true,
            sampling: Sampling::Exhaustive,
        }
    }

    /// The bounded-exhaustive configuration for per-bank refresh
    /// windows. Per-bank mode services one NVMC burst per *bank* window
    /// instead of one per rank window, which multiplies the crash
    /// boundary density roughly tenfold for the same op schedule — and
    /// an exhaustive sweep pays O(boundaries · replay) for it. This
    /// preset trims the op schedule and working set so that sweeping
    /// *every* boundary stays tractable while still crossing all four
    /// boundary classes on every shard.
    pub fn small_per_bank(channels: u32) -> Self {
        CrashSweep {
            records: 2 * u64::from(channels.max(2)),
            ops: 4 + 2 * u64::from(channels.min(2)),
            refresh_mode: RefreshMode::PerBank,
            ..CrashSweep::small(channels)
        }
    }

    /// Replaces the refresh mode.
    #[must_use]
    pub fn with_refresh_mode(mut self, mode: RefreshMode) -> Self {
        self.refresh_mode = mode;
        self
    }

    /// Replaces the sampling policy.
    #[must_use]
    pub fn with_sampling(mut self, sampling: Sampling) -> Self {
        self.sampling = sampling;
        self
    }

    /// Replaces the ADR policy.
    #[must_use]
    pub fn with_adr(mut self, adr_works: bool) -> Self {
        self.adr_works = adr_works;
        self
    }

    /// Replaces the seed.
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    fn record_bytes(&self) -> u64 {
        self.sectors_per_record * PAGE_BYTES
    }

    fn record_offset(&self, record: u64) -> u64 {
        record * self.record_bytes()
    }

    fn config(&self) -> MultiChannelConfig {
        let mut shard = NvdimmCConfig::small_for_tests();
        // A deliberately tiny cache: near-constant eviction keeps
        // CP/NVMC traffic — and with it CP-window and NVMC-burst crash
        // boundaries — alive for the whole schedule on every shard.
        shard.cache_slots = 2;
        shard = shard.with_refresh_mode(self.refresh_mode);
        MultiChannelConfig::new(shard, self.channels)
    }

    fn boot(&self) -> Result<MultiChannelSystem, CoreError> {
        let mut sys = MultiChannelSystem::new(self.config())?;
        if self.maintenance_every > 0 {
            // Arm CRC tracking so the maintenance slots' scrub steps do
            // real verification work between crash boundaries.
            for s in sys.shards_mut() {
                s.enable_scrub();
            }
        }
        Ok(sys)
    }

    /// The deterministic op schedule this configuration generates.
    ///
    /// # Panics
    ///
    /// Panics on an empty configuration (no records or sectors).
    pub fn make_ops(&self) -> Vec<CrashOp> {
        assert!(
            self.records > 0 && self.sectors_per_record > 0,
            "empty crash sweep"
        );
        let mut rng = DeterministicRng::new(self.seed).fork(0x5EE1);
        let mut ops = Vec::new();
        for i in 0..self.ops {
            if self.maintenance_every > 0 && i > 0 && i % self.maintenance_every == 0 {
                ops.push(CrashOp::Maintenance);
            }
            let r = rng.gen_range(0..self.records);
            // Write-heavy: tears need in-flight data to bite on.
            ops.push(match rng.gen_range(0..10u64) {
                0..=4 => CrashOp::Write(r),
                5..=7 => CrashOp::Persist(r),
                _ => CrashOp::Read(r),
            });
        }
        ops
    }

    /// Fills `buf` (one sector) with the generation stamp.
    fn fill_sector(&self, buf: &mut [u8], record: u64, sector: u64, gen: u64) {
        let n = buf.len();
        buf[0..8].copy_from_slice(&STAMP_MAGIC.to_le_bytes());
        buf[8..16].copy_from_slice(&record.to_le_bytes());
        buf[16..24].copy_from_slice(&sector.to_le_bytes());
        buf[24..32].copy_from_slice(&gen.to_le_bytes());
        buf[32..40].copy_from_slice(&self.seed.to_le_bytes());
        let mut payload = DeterministicRng::new(
            self.seed
                ^ record.wrapping_mul(0x9E37_79B9_7F4A_7C15)
                ^ gen.wrapping_mul(0xD134_2543_DE82_EF95)
                ^ sector,
        );
        payload.fill_bytes(&mut buf[40..n - 4]);
        let crc = crc32(&buf[..n - 4]);
        buf[n - 4..].copy_from_slice(&crc.to_le_bytes());
    }

    /// Parses one read-back sector into the oracle's view of it.
    fn parse_sector(buf: &[u8]) -> SectorView {
        if buf.iter().all(|&b| b == 0) {
            return SectorView::Zero;
        }
        let n = buf.len();
        let stored = u32::from_le_bytes([buf[n - 4], buf[n - 3], buf[n - 2], buf[n - 1]]);
        if crc32(&buf[..n - 4]) != stored {
            return SectorView::Garbage;
        }
        let word = |at: usize| {
            let mut b = [0u8; 8];
            b.copy_from_slice(&buf[at..at + 8]);
            u64::from_le_bytes(b)
        };
        if word(0) != STAMP_MAGIC {
            return SectorView::Garbage;
        }
        SectorView::Valid {
            record: word(8),
            sector: word(16),
            gen: word(24),
        }
    }

    /// Executes `ops` against `sys`, maintaining the expectation ledger.
    /// Returns the index of the op a power cut interrupted, or `None`
    /// when the schedule completed.
    fn run_ops(
        &self,
        sys: &mut MultiChannelSystem,
        ops: &[CrashOp],
        ledger: &mut Ledger,
    ) -> Result<Option<usize>, CoreError> {
        let mut buf = vec![0u8; self.record_bytes() as usize];
        for (i, &op) in ops.iter().enumerate() {
            let res = match op {
                CrashOp::Write(r) => {
                    let gen = ledger.written[r as usize] + 1;
                    let sector = PAGE_BYTES as usize;
                    for s in 0..self.sectors_per_record {
                        let at = s as usize * sector;
                        self.fill_sector(&mut buf[at..at + sector], r, s, gen);
                    }
                    // The device sees the sectors page by page in page
                    // order ([`split_range`] walks the address space
                    // forward), so a cut leaves a clean new-gen prefix.
                    ledger.in_flight = Some((r, gen));
                    let res = sys.write_at(self.record_offset(r), &buf).map(|_| ());
                    if res.is_ok() {
                        ledger.written[r as usize] = gen;
                        ledger.in_flight = None;
                    }
                    res
                }
                CrashOp::Persist(r) => {
                    let res = sys.persist(self.record_offset(r), self.record_bytes());
                    if res.is_ok() {
                        ledger.persisted[r as usize] = ledger.written[r as usize];
                    }
                    res
                }
                CrashOp::Read(r) => sys.read_at(self.record_offset(r), &mut buf).map(|_| ()),
                CrashOp::Maintenance => Self::maintenance_slot(sys),
            };
            match res {
                Ok(()) => {}
                Err(CoreError::PowerInterrupted) => return Ok(Some(i)),
                Err(e) => return Err(e),
            }
        }
        Ok(None)
    }

    /// One maintenance slot: crash boundaries bracket each shard's
    /// scrub step and FTL housekeeping step.
    fn maintenance_slot(sys: &mut MultiChannelSystem) -> Result<(), CoreError> {
        for s in sys.shards_mut() {
            s.crash_tick_maintenance()?;
            let _ = s.scrub_step(2);
            s.crash_tick_maintenance()?;
            let _ = s.ftl_housekeeping();
        }
        Ok(())
    }

    /// Rehearses `ops` once, fault-free, and returns every crash
    /// boundary each shard crossed.
    ///
    /// # Errors
    ///
    /// Propagates device errors (none expected in a fault-free pass).
    pub fn rehearse(&self, ops: &[CrashOp]) -> Result<Vec<Vec<CrashPoint>>, CoreError> {
        let mut sys = self.boot()?;
        sys.crash_enumerate_begin();
        let mut ledger = Ledger::new(self.records);
        let fired = self.run_ops(&mut sys, ops, &mut ledger)?;
        debug_assert!(fired.is_none(), "enumeration must not cut power");
        Ok(sys.crash_enumerate_take())
    }

    /// Replays `ops` with shard `shard` armed to cut power at boundary
    /// `boundary`, recovers, and runs the persistence oracle.
    ///
    /// # Errors
    ///
    /// Propagates device errors outside the modelled power cut.
    pub fn run_trial(
        &self,
        ops: &[CrashOp],
        shard: usize,
        boundary: u64,
    ) -> Result<TrialReport, CoreError> {
        let mut sys = self.boot()?;
        sys.crash_arm(shard, boundary);
        let mut ledger = Ledger::new(self.records);
        let fired_at_op = self.run_ops(&mut sys, ops, &mut ledger)?;
        let fired = fired_at_op.is_some();
        if fired {
            sys.power_cycle(self.adr_works)?;
        } else {
            // The armed boundary was past the end of the run; disarm
            // and audit the completed state (no cut, so no in-flight).
            sys.crash_disarm();
            ledger.in_flight = None;
        }
        let mut expectations = Vec::with_capacity(self.records as usize);
        let mut observations = Vec::with_capacity(self.records as usize);
        let mut digest = FNV_OFFSET;
        let mut buf = vec![0u8; self.record_bytes() as usize];
        for r in 0..self.records {
            let in_flight = match ledger.in_flight {
                Some((rec, gen)) if rec == r => Some(gen),
                _ => None,
            };
            expectations.push(RecordExpectation {
                id: r,
                written_gen: ledger.written[r as usize],
                persisted_gen: ledger.persisted[r as usize],
                in_flight,
            });
            sys.read_at(self.record_offset(r), &mut buf)?;
            let sector = PAGE_BYTES as usize;
            let sectors = (0..self.sectors_per_record)
                .map(|s| {
                    let bytes = &buf[s as usize * sector..(s as usize + 1) * sector];
                    digest = fnv_fold(digest, u64::from(crc32(bytes)));
                    Self::parse_sector(bytes)
                })
                .collect();
            observations.push(CrashObservation { record: r, sectors });
        }
        let stats = sys.recovery_stats();
        let violations = check_crash(&expectations, &observations, &stats);
        Ok(TrialReport {
            fired,
            fired_at_op,
            violations,
            digest,
        })
    }

    /// Selects the boundaries to probe on one shard per the sampling
    /// policy. Points come back in ascending boundary order.
    fn select(&self, points: &[CrashPoint]) -> Vec<(u64, CrashPointKind)> {
        match self.sampling {
            Sampling::Exhaustive => points.iter().map(|p| (p.index, p.kind)).collect(),
            Sampling::Stratified { stride } => {
                let stride = stride.max(1) as usize;
                let mut picked = Vec::new();
                for kind in KINDS {
                    let of_kind: Vec<&CrashPoint> =
                        points.iter().filter(|p| p.kind == kind).collect();
                    for (pos, p) in of_kind.iter().enumerate() {
                        if pos % stride == 0 || pos + 1 == of_kind.len() {
                            picked.push((p.index, p.kind));
                        }
                    }
                }
                picked.sort_unstable_by_key(|&(idx, _)| idx);
                picked.dedup_by_key(|&mut (idx, _)| idx);
                picked
            }
        }
    }

    /// Runs the full sweep: rehearse, probe every selected boundary of
    /// every shard, and (in stratified mode) bisect each failure toward
    /// the earliest failing boundary of its stratum.
    ///
    /// # Errors
    ///
    /// Propagates device errors outside the modelled power cuts.
    pub fn sweep(&self) -> Result<SweepReport, CoreError> {
        let ops = self.make_ops();
        self.sweep_ops(&ops)
    }

    /// [`CrashSweep::sweep`] over an explicit op schedule.
    ///
    /// # Errors
    ///
    /// Propagates device errors outside the modelled power cuts.
    pub fn sweep_ops(&self, ops: &[CrashOp]) -> Result<SweepReport, CoreError> {
        let boundaries = self.rehearse(ops)?;
        let mut report = SweepReport {
            channels: self.channels,
            boundaries_per_shard: boundaries.iter().map(|b| b.len() as u64).collect(),
            per_kind: [0; 4],
            trials: 0,
            failures: Vec::new(),
            digest: FNV_OFFSET,
        };
        for points in &boundaries {
            for p in points {
                report.per_kind[kind_index(p.kind)] += 1;
            }
        }
        for (shard, points) in boundaries.iter().enumerate() {
            // Last *passing* probed boundary, per kind: the bisection
            // floor for a stratified failure.
            let mut last_pass: [Option<u64>; 4] = [None; 4];
            for (k, kind) in self.select(points) {
                let trial = self.run_trial(ops, shard, k)?;
                report.trials += 1;
                report.digest = fnv_fold(report.digest, trial.digest);
                if trial.violations.is_empty() {
                    last_pass[kind_index(kind)] = Some(k);
                    continue;
                }
                let (boundary, rules) = if matches!(self.sampling, Sampling::Stratified { .. }) {
                    let lo = last_pass[kind_index(kind)];
                    self.bisect(ops, shard, lo, k, &trial)?
                } else {
                    (k, rule_names(&trial.violations))
                };
                report.failures.push(FailingPoint {
                    shard,
                    boundary,
                    kind,
                    rules,
                });
            }
        }
        Ok(report)
    }

    /// Bisects between a passing floor `lo` and a failing boundary `hi`
    /// toward the earliest failing boundary of the gap (failure is
    /// treated as locally monotone within a stratum — a heuristic that
    /// converges on *a* minimal failing point, which the shrinker then
    /// reduces further).
    fn bisect(
        &self,
        ops: &[CrashOp],
        shard: usize,
        lo: Option<u64>,
        hi: u64,
        at_hi: &TrialReport,
    ) -> Result<(u64, Vec<String>), CoreError> {
        let mut lo = lo.unwrap_or(0);
        let mut hi = hi;
        let mut rules = rule_names(&at_hi.violations);
        while hi > lo + 1 {
            let mid = lo + (hi - lo) / 2;
            let t = self.run_trial(ops, shard, mid)?;
            if t.violations.is_empty() {
                lo = mid;
            } else {
                hi = mid;
                rules = rule_names(&t.violations);
            }
        }
        Ok((hi, rules))
    }

    /// Delta-debugs a failing point to a 1-minimal crash schedule that
    /// still reproduces at least one of its violated rules: truncate
    /// everything after the interrupted op, then greedily drop single
    /// ops (re-enumerating boundaries each time) until no further op can
    /// go. Returns the shrunk schedule with a boundary that reproduces.
    ///
    /// # Errors
    ///
    /// Propagates device errors outside the modelled power cuts.
    ///
    /// # Panics
    ///
    /// Panics if `failing` does not actually fail under `ops` — shrink
    /// only what the sweep reported.
    pub fn shrink_failure(
        &self,
        ops: &[CrashOp],
        failing: &FailingPoint,
    ) -> Result<ShrunkCrash, CoreError> {
        let first = self.run_trial(ops, failing.shard, failing.boundary)?;
        assert!(
            !first.violations.is_empty(),
            "shrink target does not reproduce"
        );
        let target: Vec<String> = rule_names(&first.violations);
        // Truncate: ops after the interrupted one never ran.
        let cut = first.fired_at_op.map_or(ops.len(), |i| i + 1);
        let mut ops: Vec<CrashOp> = ops[..cut].to_vec();
        let mut witness = self.reproduces(&ops, &target)?.unwrap_or((
            failing.shard,
            failing.boundary,
            failing.kind,
            target.clone(),
        ));
        // Greedy 1-minimal elimination: drop any single op whose removal
        // still reproduces a target rule, until no op can go.
        let mut changed = true;
        while changed {
            changed = false;
            let mut i = ops.len();
            while i > 0 {
                i -= 1;
                let mut candidate = ops.clone();
                candidate.remove(i);
                if candidate.is_empty() {
                    continue;
                }
                if let Some(w) = self.reproduces(&candidate, &target)? {
                    ops = candidate;
                    witness = w;
                    changed = true;
                }
            }
        }
        let (shard, boundary, kind, rules) = witness;
        Ok(ShrunkCrash {
            ops,
            shard,
            boundary,
            kind,
            rules,
        })
    }

    /// Whether any boundary of `ops` reproduces one of the target
    /// rules; returns the first witnessing point.
    fn reproduces(&self, ops: &[CrashOp], target: &[String]) -> Result<Option<Witness>, CoreError> {
        let boundaries = self.rehearse(ops)?;
        for (shard, points) in boundaries.iter().enumerate() {
            for p in points {
                let t = self.run_trial(ops, shard, p.index)?;
                let rules = rule_names(&t.violations);
                if rules.iter().any(|r| target.contains(r)) {
                    return Ok(Some((shard, p.index, p.kind, rules)));
                }
            }
        }
        Ok(None)
    }

    /// Serializes a crash schedule as a `# nvdimmc-crash schedule v1`
    /// corpus artifact.
    pub fn to_schedule(
        &self,
        ops: &[CrashOp],
        shard: usize,
        boundary: u64,
        kind: CrashPointKind,
        expect: &[String],
    ) -> String {
        let mut out = String::from("# nvdimmc-crash schedule v1\n");
        out.push_str(&format!(
            "# params channels={} records={} sectors={} seed={:#x} refresh={} maintenance_every={} adr={}\n",
            self.channels,
            self.records,
            self.sectors_per_record,
            self.seed,
            refresh_name(self.refresh_mode),
            self.maintenance_every,
            u8::from(self.adr_works),
        ));
        out.push_str(&format!(
            "# crash shard={shard} boundary={boundary} kind={}\n",
            kind.name()
        ));
        for rule in expect {
            out.push_str(&format!("# expect {rule}\n"));
        }
        for op in ops {
            out.push_str(&match *op {
                CrashOp::Write(r) => format!("w {r}\n"),
                CrashOp::Persist(r) => format!("p {r}\n"),
                CrashOp::Read(r) => format!("r {r}\n"),
                CrashOp::Maintenance => "m\n".to_string(),
            });
        }
        out
    }

    /// Parses a corpus artifact back into a replayable schedule.
    ///
    /// # Errors
    ///
    /// Returns a message describing the first malformed line.
    pub fn parse_schedule(text: &str) -> Result<ParsedSchedule, String> {
        let mut lines = text.lines();
        if lines.next().map(str::trim) != Some("# nvdimmc-crash schedule v1") {
            return Err("missing `# nvdimmc-crash schedule v1` header".into());
        }
        let mut sweep = CrashSweep::small(1);
        let mut crash: Option<(usize, u64, CrashPointKind)> = None;
        let mut expect = Vec::new();
        let mut ops = Vec::new();
        for line in lines {
            let line = line.trim();
            if line.is_empty() {
                continue;
            }
            if let Some(params) = line.strip_prefix("# params ") {
                for kv in params.split_whitespace() {
                    let (key, val) = kv
                        .split_once('=')
                        .ok_or_else(|| format!("malformed param `{kv}`"))?;
                    parse_param(&mut sweep, key, val)?;
                }
            } else if let Some(spec) = line.strip_prefix("# crash ") {
                let mut shard = None;
                let mut boundary = None;
                let mut kind = None;
                for kv in spec.split_whitespace() {
                    let (key, val) = kv
                        .split_once('=')
                        .ok_or_else(|| format!("malformed crash spec `{kv}`"))?;
                    match key {
                        "shard" => shard = val.parse::<usize>().ok(),
                        "boundary" => boundary = val.parse::<u64>().ok(),
                        "kind" => kind = CrashPointKind::from_name(val),
                        _ => return Err(format!("unknown crash key `{key}`")),
                    }
                }
                crash = Some((
                    shard.ok_or("crash spec missing shard")?,
                    boundary.ok_or("crash spec missing boundary")?,
                    kind.ok_or("crash spec missing/unknown kind")?,
                ));
            } else if let Some(rule) = line.strip_prefix("# expect ") {
                expect.push(rule.trim().to_string());
            } else if line.starts_with('#') {
                // Free-form commentary.
            } else {
                let mut parts = line.split_whitespace();
                let op = parts.next().unwrap_or_default();
                ops.push(match op {
                    "m" => CrashOp::Maintenance,
                    "w" | "p" | "r" => {
                        let rec: u64 = parts
                            .next()
                            .and_then(|v| v.parse().ok())
                            .ok_or_else(|| format!("op `{line}` missing record"))?;
                        match op {
                            "w" => CrashOp::Write(rec),
                            "p" => CrashOp::Persist(rec),
                            _ => CrashOp::Read(rec),
                        }
                    }
                    _ => return Err(format!("unknown op line `{line}`")),
                });
            }
        }
        let (shard, boundary, kind) = crash.ok_or("missing `# crash` line")?;
        sweep.ops = ops.len() as u64;
        Ok(ParsedSchedule {
            sweep,
            ops,
            shard,
            boundary,
            kind,
            expect,
        })
    }

    /// Replays a corpus artifact: runs its trial and checks the outcome
    /// against the artifact's `# expect` lines (none = must be clean).
    ///
    /// # Errors
    ///
    /// Returns a message for parse failures, device errors, or an
    /// outcome that contradicts the artifact.
    pub fn replay_schedule(text: &str) -> Result<TrialReport, String> {
        let parsed = Self::parse_schedule(text)?;
        let trial = parsed
            .sweep
            .run_trial(&parsed.ops, parsed.shard, parsed.boundary)
            .map_err(|e| format!("replay failed: {e}"))?;
        let rules = rule_names(&trial.violations);
        if parsed.expect.is_empty() {
            if !rules.is_empty() {
                return Err(format!("expected a clean replay, found {rules:?}"));
            }
        } else {
            for want in &parsed.expect {
                if !rules.contains(want) {
                    return Err(format!(
                        "expected rule `{want}` to reproduce, found {rules:?}"
                    ));
                }
            }
        }
        Ok(trial)
    }
}

/// The four boundary classes, in ledger order.
const KINDS: [CrashPointKind; 4] = [
    CrashPointKind::BusOp,
    CrashPointKind::CpWindow,
    CrashPointKind::NvmcBurst,
    CrashPointKind::Maintenance,
];

fn kind_index(kind: CrashPointKind) -> usize {
    match kind {
        CrashPointKind::BusOp => 0,
        CrashPointKind::CpWindow => 1,
        CrashPointKind::NvmcBurst => 2,
        CrashPointKind::Maintenance => 3,
    }
}

fn refresh_name(mode: RefreshMode) -> &'static str {
    match mode {
        RefreshMode::RankLevel => "rank",
        RefreshMode::PerBank => "per-bank",
    }
}

fn rule_names(diags: &[Diagnostic]) -> Vec<String> {
    let mut rules: Vec<String> = diags.iter().map(|d| d.rule.to_string()).collect();
    rules.sort_unstable();
    rules.dedup();
    rules
}

fn parse_param(sweep: &mut CrashSweep, key: &str, val: &str) -> Result<(), String> {
    let num = |v: &str| -> Result<u64, String> {
        let parsed = if let Some(hex) = v.strip_prefix("0x") {
            u64::from_str_radix(hex, 16)
        } else {
            v.parse()
        };
        parsed.map_err(|_| format!("malformed number `{v}` for `{key}`"))
    };
    match key {
        "channels" => sweep.channels = u32::try_from(num(val)?).map_err(|e| e.to_string())?,
        "records" => sweep.records = num(val)?,
        "sectors" => sweep.sectors_per_record = num(val)?,
        "seed" => sweep.seed = num(val)?,
        "maintenance_every" => sweep.maintenance_every = num(val)?,
        "adr" => sweep.adr_works = num(val)? != 0,
        "refresh" => {
            sweep.refresh_mode = match val {
                "rank" => RefreshMode::RankLevel,
                "per-bank" => RefreshMode::PerBank,
                _ => return Err(format!("unknown refresh mode `{val}`")),
            };
        }
        _ => return Err(format!("unknown param `{key}`")),
    }
    Ok(())
}

/// Host-side expectation ledger maintained while the schedule runs.
struct Ledger {
    /// Generation of the last completed write, per record.
    written: Vec<u64>,
    /// Generation covered by the last acked persist, per record.
    persisted: Vec<u64>,
    /// The write the cut interrupted, if any: `(record, new_gen)`.
    in_flight: Option<(u64, u64)>,
}

impl Ledger {
    fn new(records: u64) -> Self {
        Ledger {
            written: vec![0; records as usize],
            persisted: vec![0; records as usize],
            in_flight: None,
        }
    }
}

/// Outcome of one crash trial.
#[derive(Debug, Clone)]
pub struct TrialReport {
    /// Whether the armed boundary actually fired.
    pub fired: bool,
    /// Index of the op the cut interrupted.
    pub fired_at_op: Option<usize>,
    /// Persistence-oracle findings (empty = the trial passed).
    pub violations: Vec<Diagnostic>,
    /// FNV-folded CRC digest of the post-recovery read-back
    /// (bit-identity probe across reruns).
    pub digest: u64,
}

/// One boundary whose trial violated the oracle.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FailingPoint {
    /// Shard the cut was armed on.
    pub shard: usize,
    /// Boundary index within that shard's rehearsal sequence.
    pub boundary: u64,
    /// Boundary class.
    pub kind: CrashPointKind,
    /// Violated rules (sorted, deduplicated).
    pub rules: Vec<String>,
}

/// Aggregate sweep outcome.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SweepReport {
    /// Channels the sweep ran on.
    pub channels: u32,
    /// Crash boundaries each shard's rehearsal crossed.
    pub boundaries_per_shard: Vec<u64>,
    /// Boundary counts per class (bus-op, cp-window, nvmc-burst,
    /// maintenance).
    pub per_kind: [u64; 4],
    /// Trials actually run (= boundaries probed).
    pub trials: u64,
    /// Boundaries whose trial violated the oracle.
    pub failures: Vec<FailingPoint>,
    /// FNV fold of every trial digest (bit-identity probe).
    pub digest: u64,
}

impl SweepReport {
    /// Whether every probed boundary passed the persistence oracle.
    pub fn is_clean(&self) -> bool {
        self.failures.is_empty()
    }

    /// Total boundaries across all shards.
    pub fn boundaries_total(&self) -> u64 {
        self.boundaries_per_shard.iter().sum()
    }
}

/// A parsed corpus artifact.
#[derive(Debug, Clone)]
pub struct ParsedSchedule {
    /// The sweep configuration the artifact encodes.
    pub sweep: CrashSweep,
    /// The op schedule.
    pub ops: Vec<CrashOp>,
    /// Armed shard.
    pub shard: usize,
    /// Armed boundary index.
    pub boundary: u64,
    /// Boundary class recorded for the artifact.
    pub kind: CrashPointKind,
    /// Rules the replay must reproduce (empty = must be clean).
    pub expect: Vec<String>,
}

/// A shrunk, 1-minimal failing crash schedule.
#[derive(Debug, Clone)]
pub struct ShrunkCrash {
    /// The minimal op schedule.
    pub ops: Vec<CrashOp>,
    /// Witnessing shard.
    pub shard: usize,
    /// Witnessing boundary index.
    pub boundary: u64,
    /// Witnessing boundary class.
    pub kind: CrashPointKind,
    /// Rules the witness reproduces.
    pub rules: Vec<String>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rehearsal_is_deterministic() {
        let sweep = CrashSweep::small(1);
        let ops = sweep.make_ops();
        let a = sweep.rehearse(&ops).unwrap();
        let b = sweep.rehearse(&ops).unwrap();
        assert_eq!(a, b);
        assert!(!a[0].is_empty());
    }

    #[test]
    fn small_exhaustive_sweep_is_clean_and_reproducible() {
        let sweep = CrashSweep::small(1);
        let a = sweep.sweep().unwrap();
        assert!(a.is_clean(), "{:?}", a.failures);
        assert_eq!(a.trials, a.boundaries_total());
        // Every boundary class the schedule can cross is covered.
        assert!(a.per_kind[0] > 0, "bus-op boundaries");
        assert!(a.per_kind[1] > 0, "cp-window boundaries");
        assert!(a.per_kind[2] > 0, "nvmc-burst boundaries");
        assert!(a.per_kind[3] > 0, "maintenance boundaries");
        let b = sweep.sweep().unwrap();
        assert_eq!(a, b, "sweep must be bit-identical across reruns");
    }

    #[test]
    fn stratified_sampling_covers_every_class_with_fewer_trials() {
        let exhaustive = CrashSweep::small(1);
        let strat = exhaustive.with_sampling(Sampling::Stratified { stride: 7 });
        let e = exhaustive.sweep().unwrap();
        let s = strat.sweep().unwrap();
        assert!(s.is_clean(), "{:?}", s.failures);
        assert!(s.trials < e.trials, "{} !< {}", s.trials, e.trials);
        assert_eq!(s.per_kind, e.per_kind, "rehearsal sees the same space");
    }

    /// A schedule that crosses the torn-flush window with stale
    /// persisted state: the second persist's per-page `clflush` loop is
    /// where a weak-domain cut leaves a mixed-generation record.
    fn tearing_ops() -> Vec<CrashOp> {
        vec![
            CrashOp::Write(1),
            CrashOp::Read(2),
            CrashOp::Write(0),
            CrashOp::Persist(0),
            CrashOp::Maintenance,
            CrashOp::Write(0),
            CrashOp::Read(1),
            CrashOp::Persist(0),
        ]
    }

    #[test]
    fn weak_domain_sweep_finds_tears() {
        // adr_works = false reproduces the §V-C weak-domain hazard: a
        // cut between a persist's per-page clflushes drops the not-yet
        // flushed CPU lines, leaving a mixed-generation record. The
        // strict oracle must catch it.
        let sweep = CrashSweep::small(1).with_adr(false);
        let r = sweep.sweep_ops(&tearing_ops()).unwrap();
        assert!(!r.is_clean(), "weak domain must tear somewhere");
        let rules: Vec<&String> = r.failures.iter().flat_map(|f| &f.rules).collect();
        assert!(
            rules.iter().any(|r| {
                r.as_str() == "crash/unparseable-sector" || r.as_str() == "crash/torn-record"
            }),
            "{rules:?}"
        );
        // The identical boundaries with ADR intact stay clean: the
        // pre-dump flush closes the torn-flush window.
        let strong = sweep.with_adr(true).sweep_ops(&tearing_ops()).unwrap();
        assert!(strong.is_clean(), "{:?}", strong.failures);
    }

    #[test]
    fn shrunk_schedule_reproduces_and_is_minimal() {
        let sweep = CrashSweep::small(1).with_adr(false);
        let ops = tearing_ops();
        let r = sweep.sweep_ops(&ops).unwrap();
        let failing = r.failures.first().expect("weak domain fails");
        let shrunk = sweep.shrink_failure(&ops, failing).unwrap();
        assert!(shrunk.ops.len() <= ops.len());
        assert!(!shrunk.rules.is_empty());
        // The witness reproduces on the shrunk schedule...
        let t = sweep
            .run_trial(&shrunk.ops, shrunk.shard, shrunk.boundary)
            .unwrap();
        let got = rule_names(&t.violations);
        assert!(
            shrunk.rules.iter().any(|r| got.contains(r)),
            "{got:?} vs {:?}",
            shrunk.rules
        );
        // ...and no single op can be removed (1-minimality).
        for i in 0..shrunk.ops.len() {
            let mut candidate = shrunk.ops.clone();
            candidate.remove(i);
            if candidate.is_empty() {
                continue;
            }
            let again = sweep.reproduces(&candidate, &shrunk.rules).unwrap();
            assert!(again.is_none(), "op {i} was removable");
        }
    }

    #[test]
    fn schedule_roundtrips_through_text() {
        let sweep = CrashSweep::small(2).with_adr(false);
        let ops = vec![
            CrashOp::Write(0),
            CrashOp::Persist(0),
            CrashOp::Maintenance,
            CrashOp::Read(1),
        ];
        let text = sweep.to_schedule(
            &ops,
            1,
            17,
            CrashPointKind::CpWindow,
            &["crash/torn-record".to_string()],
        );
        let parsed = CrashSweep::parse_schedule(&text).unwrap();
        assert_eq!(parsed.ops, ops);
        assert_eq!(parsed.shard, 1);
        assert_eq!(parsed.boundary, 17);
        assert_eq!(parsed.kind, CrashPointKind::CpWindow);
        assert_eq!(parsed.expect, vec!["crash/torn-record".to_string()]);
        assert_eq!(parsed.sweep.channels, 2);
        assert!(!parsed.sweep.adr_works);
        assert_eq!(parsed.sweep.seed, sweep.seed);
    }

    #[test]
    fn malformed_schedules_are_rejected() {
        assert!(CrashSweep::parse_schedule("not a schedule").is_err());
        let missing_crash = "# nvdimmc-crash schedule v1\n# params channels=1\nw 0\n";
        assert!(CrashSweep::parse_schedule(missing_crash).is_err());
        let bad_op = "# nvdimmc-crash schedule v1\n# crash shard=0 boundary=0 kind=bus-op\nx 0\n";
        assert!(CrashSweep::parse_schedule(bad_op).is_err());
    }

    #[test]
    fn sector_stamps_roundtrip_and_reject_tears() {
        let sweep = CrashSweep::small(1);
        let mut buf = vec![0u8; PAGE_BYTES as usize];
        sweep.fill_sector(&mut buf, 2, 1, 7);
        assert_eq!(
            CrashSweep::parse_sector(&buf),
            SectorView::Valid {
                record: 2,
                sector: 1,
                gen: 7
            }
        );
        // A 64-byte tear (one lost cache line) breaks the CRC.
        let mut torn = buf.clone();
        for b in &mut torn[1024..1088] {
            *b = 0;
        }
        assert_eq!(CrashSweep::parse_sector(&torn), SectorView::Garbage);
        assert_eq!(
            CrashSweep::parse_sector(&vec![0u8; PAGE_BYTES as usize]),
            SectorView::Zero
        );
    }
}
