//! Error type for the NVDIMM-C core.

use crate::health::DegradeReason;
use nvdimmc_ddr::BusViolation;
use nvdimmc_nand::NandError;
use nvdimmc_sim::SimDuration;
use std::error::Error;
use std::fmt;

/// Errors surfaced by the NVDIMM-C device, driver or baseline.
#[derive(Debug, Clone, PartialEq)]
pub enum CoreError {
    /// A shared-bus discipline violation leaked through — on hardware this
    /// is a memory error; in the simulator it means a bug in the window
    /// scheduler.
    Bus(BusViolation),
    /// The NAND back end failed.
    Nand(NandError),
    /// An access fell outside the exported block device.
    OutOfRange {
        /// Offending byte offset.
        offset: u64,
        /// Device capacity in bytes.
        capacity: u64,
    },
    /// The CP mailbox protocol desynchronised (phase mismatch).
    Protocol(String),
    /// Configuration rejected.
    Config(String),
    /// A CP transaction exhausted its retransmit budget without an ack;
    /// the shard has entered degraded mode.
    CpTimeout {
        /// Publish attempts made (1 initial + retransmits).
        attempts: u32,
    },
    /// The shard is degraded (a CP transaction previously failed): writes
    /// and NAND-backed fills are refused until a repair runs.
    DegradedShard {
        /// Index of the degraded shard (0 for a single-channel system).
        shard: u32,
        /// Why the shard degraded.
        reason: DegradeReason,
    },
    /// The shard is rebuilding (or repair attempts were exhausted without
    /// re-admission); retry after the hinted delay.
    Rebuilding {
        /// Index of the rebuilding shard.
        shard: u32,
        /// How long the caller should wait before retrying.
        retry_after: SimDuration,
    },
    /// The shard's request queue is full and the failover policy sheds
    /// load instead of blocking; retry after the hinted delay.
    ///
    /// `queued` / `queue_limit` expose the shard's congestion at shed
    /// time so callers can back off *proportionally* (deep queue → long
    /// wait) instead of hot-looping on the fixed hint.
    Overloaded {
        /// Index of the overloaded shard.
        shard: u32,
        /// Base delay the caller should wait before retrying; scale it by
        /// `queued / queue_limit` for fairness under congestion.
        retry_after: SimDuration,
        /// Requests sitting in the shard's queue when the request bounced.
        queued: usize,
        /// The queue's configured bound (`queued == queue_limit` when the
        /// bounce came from a full queue).
        queue_limit: usize,
    },
    /// A simulated power failure interrupted the operation; recover with
    /// the power-fail dump and a rebuild.
    PowerInterrupted,
    /// The DRAM-cache scrub found corruption in a dirty slot — no clean
    /// copy exists anywhere, so the loss must surface.
    CacheCorruption {
        /// The NAND logical page whose cached copy was corrupted.
        page: u64,
    },
    /// The NAND backend reported an uncorrectable media error for a page
    /// during a CP transaction.
    MediaFailed {
        /// The failing NAND logical page.
        page: u64,
        /// The CP ack status code (see [`crate::cp::ACK_ERR_UNCORRECTABLE`]).
        code: u8,
    },
}

/// Checks that `len` bytes at `offset` lie inside a device of `capacity`
/// bytes. A range whose end overflows `u64` is out of range too, never
/// wrapped round to a small address.
pub(crate) fn check_range(offset: u64, len: u64, capacity: u64) -> Result<(), CoreError> {
    match offset.checked_add(len) {
        Some(end) if end <= capacity => Ok(()),
        _ => Err(CoreError::OutOfRange { offset, capacity }),
    }
}

impl fmt::Display for CoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoreError::Bus(v) => write!(f, "bus violation: {v}"),
            CoreError::Nand(e) => write!(f, "nand error: {e}"),
            CoreError::OutOfRange { offset, capacity } => {
                write!(f, "offset {offset:#x} out of range ({capacity:#x})")
            }
            CoreError::Protocol(msg) => write!(f, "CP protocol error: {msg}"),
            CoreError::Config(msg) => write!(f, "invalid configuration: {msg}"),
            CoreError::CpTimeout { attempts } => {
                write!(f, "CP transaction unacked after {attempts} attempts")
            }
            CoreError::DegradedShard { shard, reason } => {
                write!(f, "shard {shard} is degraded: {reason}")
            }
            CoreError::Rebuilding { shard, retry_after } => {
                write!(f, "shard {shard} is rebuilding; retry after {retry_after}")
            }
            CoreError::Overloaded {
                shard,
                retry_after,
                queued,
                queue_limit,
            } => {
                write!(
                    f,
                    "shard {shard} is overloaded ({queued}/{queue_limit} queued); \
                     retry after {retry_after}"
                )
            }
            CoreError::PowerInterrupted => write!(f, "power failure interrupted the operation"),
            CoreError::CacheCorruption { page } => {
                write!(f, "dirty cache slot for page {page:#x} is corrupt")
            }
            CoreError::MediaFailed { page, code } => {
                write!(f, "NAND media failed for page {page:#x} (ack code {code})")
            }
        }
    }
}

impl Error for CoreError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            CoreError::Bus(v) => Some(v),
            CoreError::Nand(e) => Some(e),
            _ => None,
        }
    }
}

impl From<BusViolation> for CoreError {
    fn from(v: BusViolation) -> Self {
        CoreError::Bus(v)
    }
}

impl From<NandError> for CoreError {
    fn from(e: NandError) -> Self {
        CoreError::Nand(e)
    }
}
