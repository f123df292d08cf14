//! Multi-tenant quality of service: per-tenant quotas, weighted fair
//! dequeue, priority classes, and self-managing maintenance.
//!
//! PR 7 scaled the request path to 256 channels but left it a commons:
//! a single greedy caller could fill every per-shard ring and starve
//! everyone, and scrub/repair work competed directly with foreground
//! requests. This module adds the isolation layer:
//!
//! - [`TenantId`] rides on every [`ShardRequest`]
//!   so request-path structures can account per caller;
//! - [`TokenBucket`] enforces bytes/s and ops/s quotas with *integer*
//!   refill arithmetic on the simulated clock — no float drift, so the
//!   admission sequence is a pure function of the clock and bit-identical
//!   across reruns. Every token is ledgered: granted = consumed +
//!   expired + residual, audited by `check::qos`;
//! - [`QosEngine`] combines the buckets with per-tenant request
//!   conservation counters (submitted = throttled + admitted; admitted =
//!   completed + failed + shed + inflight);
//! - [`WfqArbiter`] reorders each shard's drained batch by per-tenant
//!   virtual time (start-time-fair queueing over byte cost / weight), so
//!   a flooding tenant cannot push a trickling tenant to the back of the
//!   ring — no-starvation is property-tested;
//! - two SLO classes ([`SloClass`]) with latency targets
//!   ([`SloTargets`]): cached-class tenants are promised DRAM-hit
//!   latency, uncached-class tenants the Z-NAND fault path;
//! - [`MaintenanceScheduler`] runs CRC scrub sweeps, degraded-shard
//!   repair and FTL housekeeping out of a
//!   [`ShardCalendar`], *only* when the
//!   shard's foreground queue is empty — rising queue depth preempts the
//!   slot and reschedules it, so maintenance never sits on the request
//!   path (the *Self-Managing DRAM* idea applied to the module).

use crate::error::CoreError;
use crate::sched::ShardRequest;
use crate::shard::{BlockDevice, ChannelShard};
use nvdimmc_sim::{ShardCalendar, SimDuration, SimTime};
use std::fmt;

/// Picoseconds per second — the token-bucket refill base.
const PS_PER_SEC: u128 = 1_000_000_000_000;

/// A tenant identity carried on every request. Tenant 0 is the host
/// (the default for drivers that never configured QoS), so all
/// pre-tenancy call sites keep their exact behaviour.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct TenantId(pub u16);

impl TenantId {
    /// The default tenant: the host itself, used by every legacy call
    /// site that predates multi-tenancy.
    pub const HOST: TenantId = TenantId(0);
}

impl fmt::Display for TenantId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t{}", self.0)
    }
}

/// Cache-priority class of a tenant. Drives both WFQ weight defaults
/// and the DRAM cache's priority-aware eviction: a background tenant's
/// fills can never evict a foreground tenant's slots while any
/// background slot remains resident.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Priority {
    /// Best-effort: fills tagged priority 0 (evicted first).
    Background,
    /// Latency-sensitive: fills tagged priority 1 (evicted only when no
    /// background slot is left).
    Foreground,
}

impl Priority {
    /// The cache fill tag for this class.
    pub fn cache_tag(self) -> u8 {
        match self {
            Priority::Background => 0,
            Priority::Foreground => 1,
        }
    }
}

/// Which latency promise a tenant bought.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SloClass {
    /// Working set sized to stay DRAM-resident: p99 judged against
    /// [`SloTargets::cached_p99`].
    Cached,
    /// Working set overflows the cache (Z-NAND fault path in the loop):
    /// p99 judged against [`SloTargets::uncached_p99`].
    Uncached,
}

/// Per-class p99 latency targets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SloTargets {
    /// p99 bound for [`SloClass::Cached`] tenants.
    pub cached_p99: SimDuration,
    /// p99 bound for [`SloClass::Uncached`] tenants.
    pub uncached_p99: SimDuration,
}

impl SloTargets {
    /// Returns the target for `class`.
    pub fn for_class(&self, class: SloClass) -> SimDuration {
        match class {
            SloClass::Cached => self.cached_p99,
            SloClass::Uncached => self.uncached_p99,
        }
    }
}

/// One tenant's contract: identity, fair-share weight, cache priority,
/// SLO class and quotas.
#[derive(Debug, Clone, Copy)]
pub struct TenantSpec {
    /// Tenant identity.
    pub id: TenantId,
    /// WFQ weight (larger = bigger share of a contended shard ring).
    /// Clamped to at least 1.
    pub weight: u32,
    /// Cache priority class.
    pub priority: Priority,
    /// Latency class the SLO is judged against.
    pub slo: SloClass,
    /// Bytes-per-second quota (0 = unlimited).
    pub bytes_per_sec: u64,
    /// Operations-per-second quota (0 = unlimited).
    pub ops_per_sec: u64,
}

impl TenantSpec {
    /// An unthrottled foreground tenant with weight 1.
    pub fn foreground(id: TenantId) -> Self {
        TenantSpec {
            id,
            weight: 1,
            priority: Priority::Foreground,
            slo: SloClass::Cached,
            bytes_per_sec: 0,
            ops_per_sec: 0,
        }
    }

    /// An unthrottled background tenant with weight 1.
    pub fn background(id: TenantId) -> Self {
        TenantSpec {
            id,
            weight: 1,
            priority: Priority::Background,
            slo: SloClass::Uncached,
            bytes_per_sec: 0,
            ops_per_sec: 0,
        }
    }

    /// Overrides the WFQ weight.
    #[must_use]
    pub fn with_weight(mut self, weight: u32) -> Self {
        self.weight = weight;
        self
    }

    /// Overrides the quotas (0 = unlimited).
    #[must_use]
    pub fn with_quota(mut self, bytes_per_sec: u64, ops_per_sec: u64) -> Self {
        self.bytes_per_sec = bytes_per_sec;
        self.ops_per_sec = ops_per_sec;
        self
    }
}

/// Conservation ledger of one [`TokenBucket`]: `granted` must equal
/// `consumed + expired + residual` at every instant.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct BucketLedger {
    /// Tokens ever made available: the initial burst allowance plus
    /// every token minted by refill.
    pub granted: u64,
    /// Tokens handed to admitted requests.
    pub consumed: u64,
    /// Minted tokens that found the bucket full and were discarded.
    pub expired: u64,
    /// Tokens currently sitting in the bucket.
    pub residual: u64,
    /// Whether the bucket actually meters (false for rate 0 =
    /// unlimited, whose counters never move past the initial burst).
    pub limited: bool,
}

impl BucketLedger {
    /// Whether the ledger balances.
    pub fn balanced(&self) -> bool {
        self.granted == self.consumed + self.expired + self.residual
    }
}

/// A deterministic token bucket on the simulated clock.
///
/// Refill is integer-exact: the accumulator carries `rate × elapsed`
/// in token-picoseconds and mints a whole token per `10^12` accumulated,
/// so two runs that present the same clock values always admit the same
/// request sequence. A zero rate means *unlimited* — every take
/// succeeds and the ledger stays trivially balanced.
///
/// # Example
///
/// ```
/// use nvdimmc_core::qos::TokenBucket;
/// use nvdimmc_sim::SimTime;
///
/// // 1000 tokens/s, burst of 2.
/// let mut b = TokenBucket::new(1000, 2);
/// assert!(b.try_take(SimTime::ZERO, 2).is_ok());
/// // Bucket empty: the denial hints exactly when one token exists.
/// let wait = b.try_take(SimTime::ZERO, 1).unwrap_err();
/// assert_eq!(wait.as_ps(), 1_000_000_000); // 1 ms at 1000/s
/// assert!(b.try_take(SimTime::ZERO + wait, 1).is_ok());
/// assert!(b.ledger().balanced());
/// ```
#[derive(Debug, Clone)]
pub struct TokenBucket {
    rate_per_sec: u64,
    capacity: u64,
    tokens: u64,
    /// Sub-token refill remainder, in token-picoseconds.
    acc: u128,
    last_refill: SimTime,
    granted: u64,
    consumed: u64,
    expired: u64,
}

impl TokenBucket {
    /// A bucket refilling at `rate_per_sec`, holding at most `capacity`
    /// tokens, starting full (the burst allowance). `rate_per_sec == 0`
    /// disables the bucket (every take succeeds).
    pub fn new(rate_per_sec: u64, capacity: u64) -> Self {
        let capacity = capacity.max(1);
        TokenBucket {
            rate_per_sec,
            capacity,
            tokens: capacity,
            acc: 0,
            last_refill: SimTime::ZERO,
            granted: capacity,
            consumed: 0,
            expired: 0,
        }
    }

    /// Mints tokens for the clock advance since the last refill.
    /// A rewound clock (a shard lagging the global max) mints nothing —
    /// refill is monotone, so admission stays deterministic.
    pub fn refill(&mut self, now: SimTime) {
        if self.rate_per_sec == 0 || now <= self.last_refill {
            return;
        }
        let elapsed = now.since(self.last_refill);
        self.last_refill = now;
        self.acc += u128::from(self.rate_per_sec) * u128::from(elapsed.as_ps());
        let minted64 = u64::try_from(self.acc / PS_PER_SEC).unwrap_or(u64::MAX);
        self.acc %= PS_PER_SEC;
        self.granted = self.granted.saturating_add(minted64);
        let credit = minted64.min(self.capacity - self.tokens);
        self.tokens += credit;
        self.expired = self.expired.saturating_add(minted64 - credit);
    }

    /// Takes `n` tokens at `now`, or returns how long to wait until the
    /// deficit will have refilled.
    ///
    /// # Errors
    ///
    /// The retry-after hint when the bucket lacks `n` tokens.
    pub fn try_take(&mut self, now: SimTime, n: u64) -> Result<(), SimDuration> {
        if self.rate_per_sec == 0 {
            return Ok(());
        }
        self.refill(now);
        if self.tokens >= n {
            self.tokens -= n;
            self.consumed += n;
            return Ok(());
        }
        // How long until `deficit` whole tokens exist, given the refill
        // remainder already accumulated: ceil((deficit*PS - acc) / rate).
        let deficit = u128::from(n.min(self.capacity) - self.tokens);
        let need = (deficit * PS_PER_SEC).saturating_sub(self.acc);
        let wait_ps = need.div_ceil(u128::from(self.rate_per_sec));
        Err(SimDuration::from_ps(
            u64::try_from(wait_ps).unwrap_or(u64::MAX).max(1),
        ))
    }

    /// Peeks whether `n` tokens are available at `now` without taking
    /// them (refill still happens — refill is monotone bookkeeping).
    pub fn can_take(&mut self, now: SimTime, n: u64) -> Result<(), SimDuration> {
        if self.rate_per_sec == 0 {
            return Ok(());
        }
        self.refill(now);
        if self.tokens >= n {
            return Ok(());
        }
        let deficit = u128::from(n.min(self.capacity) - self.tokens);
        let need = (deficit * PS_PER_SEC).saturating_sub(self.acc);
        let wait_ps = need.div_ceil(u128::from(self.rate_per_sec));
        Err(SimDuration::from_ps(
            u64::try_from(wait_ps).unwrap_or(u64::MAX).max(1),
        ))
    }

    /// Tokens currently available.
    pub fn available(&self) -> u64 {
        self.tokens
    }

    /// The conservation ledger.
    pub fn ledger(&self) -> BucketLedger {
        BucketLedger {
            granted: self.granted,
            consumed: self.consumed,
            expired: self.expired,
            residual: self.tokens,
            limited: self.rate_per_sec != 0,
        }
    }
}

/// Per-tenant request conservation counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TenantStats {
    /// Requests presented to [`QosEngine::admit`].
    pub submitted: u64,
    /// Requests refused by a quota bucket.
    pub throttled: u64,
    /// Requests past admission (`submitted = throttled + admitted`).
    pub admitted: u64,
    /// Admitted requests that completed successfully.
    pub completed: u64,
    /// Admitted requests that failed with a device error.
    pub failed: u64,
    /// Admitted requests shed by backpressure (ring full, shard
    /// rebuilding) and returned to the issuer.
    pub shed: u64,
}

impl TenantStats {
    /// Admitted requests not yet accounted as completed/failed/shed.
    pub fn inflight(&self) -> u64 {
        self.admitted
            .saturating_sub(self.completed + self.failed + self.shed)
    }
}

/// One tenant's audited view, extracted by [`QosEngine::snapshot`].
#[derive(Debug, Clone, Copy)]
pub struct TenantSnapshot {
    /// Tenant identity.
    pub id: TenantId,
    /// SLO class from the spec.
    pub slo: SloClass,
    /// Request conservation counters.
    pub stats: TenantStats,
    /// Bytes-bucket ledger.
    pub bytes: BucketLedger,
    /// Ops-bucket ledger.
    pub ops: BucketLedger,
}

/// Everything `check::qos` needs: one [`TenantSnapshot`] per tenant.
#[derive(Debug, Clone, Default)]
pub struct QosSnapshot {
    /// Per-tenant audited state, in registration order.
    pub tenants: Vec<TenantSnapshot>,
}

struct TenantState {
    spec: TenantSpec,
    bytes: TokenBucket,
    ops: TokenBucket,
    stats: TenantStats,
}

/// The per-tenant admission controller: token buckets plus the request
/// conservation ledger.
///
/// Quota admission is all-or-nothing across the two buckets: both are
/// checked first and only then both debited, so a denial never leaks
/// half a request's tokens.
pub struct QosEngine {
    tenants: Vec<TenantState>,
}

impl fmt::Debug for QosEngine {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("QosEngine")
            .field("tenants", &self.tenants.len())
            .finish()
    }
}

impl QosEngine {
    /// An engine over `specs`. Burst capacity is 5 ms worth of refill
    /// (bounded to at least one op / one page of bytes), so a quota
    /// bounds sustained rate without granting a free second of burst.
    pub fn new(specs: &[TenantSpec]) -> Self {
        QosEngine {
            tenants: specs
                .iter()
                .map(|&spec| TenantState {
                    spec,
                    bytes: TokenBucket::new(
                        spec.bytes_per_sec,
                        (spec.bytes_per_sec / 200).max(4096),
                    ),
                    ops: TokenBucket::new(spec.ops_per_sec, (spec.ops_per_sec / 200).max(1)),
                    stats: TenantStats::default(),
                })
                .collect(),
        }
    }

    /// The registered specs, in registration order.
    pub fn specs(&self) -> Vec<TenantSpec> {
        self.tenants.iter().map(|t| t.spec).collect()
    }

    fn state_mut(&mut self, id: TenantId) -> Result<&mut TenantState, CoreError> {
        self.tenants
            .iter_mut()
            .find(|t| t.spec.id == id)
            .ok_or_else(|| CoreError::Config(format!("unknown tenant {id}")))
    }

    /// Admits one `bytes`-byte operation for `id` at `now`, debiting
    /// both quota buckets, or refuses it with a typed
    /// [`CoreError::Throttled`] carrying the earliest instant the quota
    /// will cover it.
    ///
    /// # Errors
    ///
    /// `Throttled` on quota exhaustion; `Config` for an unknown tenant.
    pub fn admit(&mut self, id: TenantId, bytes: u64, now: SimTime) -> Result<(), CoreError> {
        let t = self.state_mut(id)?;
        t.stats.submitted += 1;
        // All-or-nothing: peek both buckets, then debit both.
        let verdict = t
            .ops
            .can_take(now, 1)
            .and(t.bytes.can_take(now, bytes))
            .err();
        if let Some(wait) = verdict {
            t.stats.throttled += 1;
            return Err(CoreError::Throttled {
                tenant: id,
                retry_after: wait,
            });
        }
        // INVARIANT: both peeks succeeded and nothing refilled between —
        // the takes cannot fail.
        let _ = t.ops.try_take(now, 1);
        let _ = t.bytes.try_take(now, bytes);
        t.stats.admitted += 1;
        Ok(())
    }

    /// Records a successful completion for `id`.
    pub fn note_completed(&mut self, id: TenantId) {
        if let Ok(t) = self.state_mut(id) {
            t.stats.completed += 1;
        }
    }

    /// Records a device-error failure for `id`.
    pub fn note_failed(&mut self, id: TenantId) {
        if let Ok(t) = self.state_mut(id) {
            t.stats.failed += 1;
        }
    }

    /// Records a shed (backpressure bounce after admission) for `id`.
    pub fn note_shed(&mut self, id: TenantId) {
        if let Ok(t) = self.state_mut(id) {
            t.stats.shed += 1;
        }
    }

    /// One tenant's counters.
    pub fn stats(&self, id: TenantId) -> Option<TenantStats> {
        self.tenants
            .iter()
            .find(|t| t.spec.id == id)
            .map(|t| t.stats)
    }

    /// The audited snapshot for `check::qos`.
    pub fn snapshot(&self) -> QosSnapshot {
        QosSnapshot {
            tenants: self
                .tenants
                .iter()
                .map(|t| TenantSnapshot {
                    id: t.spec.id,
                    slo: t.spec.slo,
                    stats: t.stats,
                    bytes: t.bytes.ledger(),
                    ops: t.ops.ledger(),
                })
                .collect(),
        }
    }
}

/// Weighted fair dequeue across tenants sharing a shard ring.
///
/// Start-time fair queueing over the drained batch: each request's
/// virtual finish tag is `max(tenant_vtime, shard_vclock) + cost /
/// weight` (cost = bytes, minimum one page so zero-length metadata ops
/// still advance), and the batch is stably sorted by `(tag, seq)`.
/// An idle tenant's virtual time is clamped up to the shard's virtual
/// clock, so a trickling tenant re-enters at the front instead of
/// inheriting an ancient lag; a flooding tenant's time races ahead and
/// its excess requests sort behind everyone else's. FIFO order within a
/// tenant is preserved (tags are monotone per tenant, ties break by
/// seq).
#[derive(Debug)]
pub struct WfqArbiter {
    /// Weight and cache tag per registered tenant.
    specs: Vec<(TenantId, u32, u8)>,
    /// `vtime[shard][tenant-index]` virtual time, token = byte/weight.
    vtime: Vec<Vec<u128>>,
    /// Per-shard virtual clock: the max finish tag ever issued.
    vclock: Vec<u128>,
}

impl WfqArbiter {
    /// An arbiter over `shards` shards for `specs` tenants. Requests
    /// from unregistered tenants (e.g. [`TenantId::HOST`] when absent)
    /// get weight 1 and priority 0.
    pub fn new(shards: usize, specs: &[TenantSpec]) -> Self {
        let specs: Vec<(TenantId, u32, u8)> = specs
            .iter()
            .map(|s| (s.id, s.weight.max(1), s.priority.cache_tag()))
            .collect();
        WfqArbiter {
            vtime: vec![vec![0; specs.len() + 1]; shards],
            vclock: vec![0; shards],
            specs,
        }
    }

    fn tenant_index(&self, id: TenantId) -> usize {
        self.specs
            .iter()
            .position(|&(t, _, _)| t == id)
            // Unregistered tenants share the last (default) slot.
            .unwrap_or(self.specs.len())
    }

    fn weight(&self, idx: usize) -> u128 {
        u128::from(self.specs.get(idx).map_or(1, |&(_, w, _)| w))
    }

    /// The cache fill tag for `id` (0 for unregistered tenants).
    pub fn fill_priority(&self, id: TenantId) -> u8 {
        self.specs
            .iter()
            .find(|&&(t, _, _)| t == id)
            .map_or(0, |&(_, _, p)| p)
    }

    /// Reorders one shard's drained FIFO batch into weighted-fair
    /// order. A batch whose requests all belong to one tenant passes
    /// through untouched (single-tenant runs keep pre-QoS behaviour
    /// bit-identical).
    pub fn order(&mut self, shard: usize, batch: &mut Vec<ShardRequest>) {
        if batch.len() < 2 {
            if let Some(req) = batch.first() {
                self.account(shard, req.tenant, req.len);
            }
            return;
        }
        let first = batch[0].tenant;
        if batch.iter().all(|r| r.tenant == first) {
            for req in batch.iter() {
                self.account(shard, req.tenant, req.len);
            }
            return;
        }
        // Clamp idle tenants up to the shard's virtual clock before
        // tagging, so lag never accumulates across batches.
        let vclock = self.vclock[shard];
        for r in batch.iter() {
            let ti = self.tenant_index(r.tenant);
            let v = &mut self.vtime[shard][ti];
            *v = (*v).max(vclock);
        }
        let mut tagged: Vec<(u128, u64, ShardRequest)> = std::mem::take(batch)
            .into_iter()
            .map(|req| {
                let tag = self.account(shard, req.tenant, req.len);
                (tag, req.seq, req)
            })
            .collect();
        tagged.sort_by_key(|a| (a.0, a.1));
        *batch = tagged.into_iter().map(|(_, _, req)| req).collect();
    }

    /// Advances `tenant`'s virtual time for a `len`-byte request on
    /// `shard`; returns the finish tag.
    fn account(&mut self, shard: usize, tenant: TenantId, len: u64) -> u128 {
        let ti = self.tenant_index(tenant);
        let w = self.weight(ti);
        let cost = u128::from(len.max(1));
        // The idle-tenant clamp happens once per batch in `order()`;
        // clamping here too would re-anchor every tag at the running max
        // and collapse the ordering back to FIFO.
        let start = self.vtime[shard][ti];
        let finish = start + cost.div_ceil(w);
        self.vtime[shard][ti] = finish;
        self.vclock[shard] = self.vclock[shard].max(finish);
        finish
    }
}

/// Maintenance counters, per shard.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MaintStats {
    /// Maintenance slots that ran to completion.
    pub steps: u64,
    /// Slots deferred because foreground work was queued.
    pub preemptions: u64,
    /// Cache slots CRC-verified by background scrub.
    pub scrub_slots: u64,
    /// Repairs attempted on degraded shards.
    pub repairs_attempted: u64,
    /// Repairs that re-admitted the shard.
    pub repairs_completed: u64,
    /// FTL housekeeping invocations that moved at least one page.
    pub ftl_hk_runs: u64,
    /// Pages relocated by FTL housekeeping.
    pub ftl_hk_pages: u64,
}

impl MaintStats {
    /// Accumulates another shard's counters.
    pub fn merge(&mut self, other: &MaintStats) {
        self.steps += other.steps;
        self.preemptions += other.preemptions;
        self.scrub_slots += other.scrub_slots;
        self.repairs_attempted += other.repairs_attempted;
        self.repairs_completed += other.repairs_completed;
        self.ftl_hk_runs += other.ftl_hk_runs;
        self.ftl_hk_pages += other.ftl_hk_pages;
    }
}

/// Self-managing maintenance: per-shard scrub/repair/housekeeping slots
/// scheduled through a [`ShardCalendar`] and run only while the shard's
/// foreground queue is empty.
///
/// The driver calls [`MaintenanceScheduler::run_due`] between executor
/// dispatch rounds with each shard's current queue depth: every due
/// slot either runs one maintenance step (queue empty) or is preempted
/// and pushed one interval out (queue non-empty). Degraded shards get a
/// repair attempt; healthy shards get a CRC scrub step plus bounded FTL
/// garbage collection. All work happens on the shard's own clock inside
/// the same extra-tRFC window machinery as foreground CP traffic, so
/// the schedule — like everything else — is bit-identical across
/// reruns.
#[derive(Debug)]
pub struct MaintenanceScheduler {
    cal: ShardCalendar,
    stats: Vec<MaintStats>,
}

impl MaintenanceScheduler {
    /// Gap between one shard's maintenance slots.
    pub const INTERVAL: SimDuration = SimDuration::from_ns(50_000);

    /// Resident slots CRC-verified per scrub step.
    pub const SCRUB_SLOTS_PER_STEP: u64 = 4;

    /// A scheduler over `shards` shards with every shard's first slot
    /// due one interval in.
    pub fn new(shards: usize) -> Self {
        let mut cal = ShardCalendar::new(shards);
        for s in 0..shards {
            cal.set(s, SimTime::ZERO + Self::INTERVAL);
        }
        MaintenanceScheduler {
            cal,
            stats: vec![MaintStats::default(); shards],
        }
    }

    /// Per-shard counters.
    pub fn stats(&self, shard: usize) -> MaintStats {
        self.stats[shard]
    }

    /// All shards' counters summed.
    pub fn total_stats(&self) -> MaintStats {
        let mut t = MaintStats::default();
        for s in &self.stats {
            t.merge(s);
        }
        t
    }

    /// Runs every maintenance slot due at or before `now`.
    /// `queue_depth(shard)` reports the shard's pending foreground work;
    /// a non-empty queue preempts the slot (counted, rescheduled one
    /// interval out). Returns the number of steps that actually ran.
    pub fn run_due(
        &mut self,
        shards: &mut [ChannelShard],
        now: SimTime,
        mut queue_depth: impl FnMut(usize) -> usize,
    ) -> usize {
        let mut ran = 0;
        while let Some((due, shard)) = self.cal.pop_due(now) {
            if queue_depth(shard) > 0 {
                // Foreground pressure rose: yield the window.
                self.stats[shard].preemptions += 1;
                self.cal.set(shard, due + Self::INTERVAL);
                continue;
            }
            self.step(&mut shards[shard], shard);
            ran += 1;
            // Next slot one interval after the work finished on the
            // shard's own clock (maintenance advanced it).
            let next = shards[shard].now().max(due) + Self::INTERVAL;
            self.cal.set(shard, next);
        }
        ran
    }

    /// One maintenance step on one shard: repair when degraded,
    /// scrub + FTL housekeeping when healthy.
    fn step(&mut self, shard: &mut ChannelShard, idx: usize) {
        let st = &mut self.stats[idx];
        st.steps += 1;
        if shard.is_degraded() {
            st.repairs_attempted += 1;
            if shard.repair().is_ok() {
                st.repairs_completed += 1;
            }
            return;
        }
        st.scrub_slots += shard.scrub_step(Self::SCRUB_SLOTS_PER_STEP);
        let moved = shard.ftl_housekeeping();
        if moved > 0 {
            st.ftl_hk_runs += 1;
            st.ftl_hk_pages += moved;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sched::ReqKind;

    fn req(seq: u64, tenant: TenantId, len: u64) -> ShardRequest {
        ShardRequest {
            seq,
            tenant,
            thread: 0,
            kind: ReqKind::Read,
            local_offset: seq * len,
            len,
            not_before: SimTime::ZERO,
            data: Vec::new(),
        }
    }

    #[test]
    fn bucket_refill_is_integer_exact() {
        // 3 tokens/s: one token every 333_333_333_334 ps (ceil), with no
        // drift over many refills.
        let mut b = TokenBucket::new(3, 1);
        assert!(b.try_take(SimTime::ZERO, 1).is_ok());
        let mut now = SimTime::ZERO;
        for _ in 0..30 {
            let wait = b.try_take(now, 1).unwrap_err();
            now += wait;
            assert!(b.try_take(now, 1).is_ok(), "hint must be sufficient");
        }
        // 31 takes in just over 10 s at 3/s: the clock stayed exact.
        assert!(now.as_secs_f64() > 9.99 && now.as_secs_f64() < 10.01);
        assert!(b.ledger().balanced());
    }

    #[test]
    fn bucket_ledger_accounts_expiry() {
        let mut b = TokenBucket::new(10, 5);
        // Long idle: refill overflows the capacity, excess must expire.
        b.refill(SimTime::from_us(2_000_000)); // 2 s → 20 minted, 0 fit
        let l = b.ledger();
        assert_eq!(l.residual, 5);
        assert_eq!(l.expired, 20);
        assert!(l.balanced(), "{l:?}");
    }

    #[test]
    fn unlimited_bucket_never_denies() {
        let mut b = TokenBucket::new(0, 1);
        for i in 0..1000 {
            assert!(b.try_take(SimTime::from_ns(i), u64::MAX).is_ok());
        }
        assert!(b.ledger().balanced());
    }

    #[test]
    fn admit_is_all_or_nothing_across_buckets() {
        // Ops bucket allows, bytes bucket denies: nothing is debited.
        let specs = [TenantSpec::foreground(TenantId(1)).with_quota(4096, 100)];
        let mut q = QosEngine::new(&specs);
        assert!(q.admit(TenantId(1), 4096, SimTime::ZERO).is_ok());
        let err = q.admit(TenantId(1), 4096, SimTime::ZERO).unwrap_err();
        assert!(matches!(err, CoreError::Throttled { tenant, .. } if tenant == TenantId(1)));
        let snap = q.snapshot();
        let t = &snap.tenants[0];
        assert_eq!(
            (t.stats.submitted, t.stats.admitted, t.stats.throttled),
            (2, 1, 1)
        );
        // The denied op consumed nothing from the ops bucket.
        assert!(t.ops.balanced() && t.bytes.balanced());
        assert_eq!(t.ops.consumed, 1);
    }

    #[test]
    fn wfq_interleaves_flood_and_trickle() {
        let specs = [
            TenantSpec::background(TenantId(1)),
            TenantSpec::foreground(TenantId(2)),
        ];
        let mut arb = WfqArbiter::new(1, &specs);
        // Tenant 1 floods 8 requests, tenant 2 trickles 1, arriving last.
        let mut batch: Vec<ShardRequest> = (0..8).map(|i| req(i, TenantId(1), 4096)).collect();
        batch.push(req(8, TenantId(2), 4096));
        arb.order(0, &mut batch);
        let pos = batch.iter().position(|r| r.tenant == TenantId(2)).unwrap();
        assert!(pos <= 1, "trickle tenant pushed to position {pos}");
        // FIFO within the flooding tenant is preserved.
        let flood: Vec<u64> = batch
            .iter()
            .filter(|r| r.tenant == TenantId(1))
            .map(|r| r.seq)
            .collect();
        assert_eq!(flood, (0..8).collect::<Vec<_>>());
    }

    #[test]
    fn wfq_weights_shift_the_share() {
        let specs = [
            TenantSpec::background(TenantId(1)).with_weight(1),
            TenantSpec::foreground(TenantId(2)).with_weight(3),
        ];
        let mut arb = WfqArbiter::new(1, &specs);
        let mut batch: Vec<ShardRequest> = Vec::new();
        for i in 0..4 {
            batch.push(req(i, TenantId(1), 4096));
        }
        for i in 4..16 {
            batch.push(req(i, TenantId(2), 4096));
        }
        arb.order(0, &mut batch);
        // Weight 3 tenant gets ~3 of the first 4 positions.
        let head: Vec<TenantId> = batch.iter().take(4).map(|r| r.tenant).collect();
        let w2 = head.iter().filter(|&&t| t == TenantId(2)).count();
        assert!(w2 >= 2, "weighted tenant underserved in {head:?}");
    }

    #[test]
    fn wfq_single_tenant_batch_passes_through() {
        let specs = [TenantSpec::foreground(TenantId(1))];
        let mut arb = WfqArbiter::new(1, &specs);
        let mut batch: Vec<ShardRequest> = (0..5).map(|i| req(i, TenantId(1), 64)).collect();
        let before: Vec<u64> = batch.iter().map(|r| r.seq).collect();
        arb.order(0, &mut batch);
        let after: Vec<u64> = batch.iter().map(|r| r.seq).collect();
        assert_eq!(before, after);
    }
}
