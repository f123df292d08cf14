//! # nvdimmc-sim — simulation foundation
//!
//! Foundation crate for the NVDIMM-C reproduction. It provides:
//!
//! - [`SimTime`] / [`SimDuration`] — integer picosecond simulation time, so
//!   that DDR4 clock arithmetic (e.g. 1.25 ns cycles at DDR4-1600) is exact;
//! - [`stats`] — latency histograms with percentiles, bandwidth time
//!   series and rate meters used by every experiment harness;
//! - [`rng`] — deterministic random number helpers (uniform, Zipfian) so
//!   every experiment is reproducible from a seed.
//!
//! # Example
//!
//! ```
//! use nvdimmc_sim::{Histogram, SimDuration, SimTime};
//!
//! // DDR4-1600 clock arithmetic stays exact in integer picoseconds.
//! let tck = SimDuration::from_ps(1250);
//! assert_eq!(SimTime::ZERO + tck * 8, SimTime::from_ns(10));
//!
//! // Latencies land in a histogram that reports percentiles.
//! let mut lat = Histogram::new();
//! for us in [1.0, 2.0, 3.0, 4.0] {
//!     lat.record(SimDuration::from_us(us));
//! }
//! assert_eq!(lat.count(), 4);
//! assert!(lat.percentile(50.0) <= lat.percentile(99.0));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod rng;
pub mod stats;
pub mod time;

pub use rng::{DeterministicRng, Zipf};
pub use stats::{Histogram, RateMeter, TimeSeries};
pub use time::{SimDuration, SimTime};
