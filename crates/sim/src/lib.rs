//! # nvdimmc-sim — discrete-event simulation engine
//!
//! Foundation crate for the NVDIMM-C reproduction. It provides:
//!
//! - [`SimTime`] / [`SimDuration`] — integer picosecond simulation time, so
//!   that DDR4 clock arithmetic (e.g. 1.25 ns cycles at DDR4-1600) is exact;
//! - [`ShardCalendar`] — the discrete-event fast path for multi-shard
//!   front-ends: per-shard next-event registration with deterministic
//!   pop-min ordering, so executors advance each shard's clock straight
//!   to its next scheduled event instead of ticking idle shards;
//! - [`stats`] — counters, latency histograms with percentiles, bandwidth
//!   time series and rate meters used by every experiment harness;
//! - [`rng`] — deterministic random number helpers (uniform, Zipfian) so
//!   every experiment is reproducible from a seed.
//!
//! # Example
//!
//! ```
//! use nvdimmc_sim::{ShardCalendar, SimDuration, SimTime};
//!
//! // Two shards register their next events; the earlier one is served first.
//! let mut cal = ShardCalendar::new(2);
//! cal.set(0, SimTime::ZERO + SimDuration::from_ns(30));
//! cal.set(1, SimTime::from_ns(10));
//! assert_eq!(cal.pop(), Some((SimTime::from_ns(10), 1)));
//! assert_eq!(cal.pop(), Some((SimTime::from_ns(30), 0)));
//! assert_eq!(cal.pop(), None);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod calendar;
pub mod rng;
pub mod stats;
pub mod time;

pub use calendar::ShardCalendar;
pub use rng::{DeterministicRng, Zipf};
pub use stats::{Counter, Histogram, RateMeter, TimeSeries};
pub use time::{SimDuration, SimTime};
