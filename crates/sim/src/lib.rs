//! # netaware-sim — deterministic discrete-event simulation engine
//!
//! A minimal, fast DES core used to drive the P2P-TV protocol models:
//!
//! * [`SimTime`] — microsecond-resolution simulated clock;
//! * [`Scheduler`] — a calendar event queue that pops in `(time,
//!   origin, oseq)` lane-key order, so runs are reproducible;
//! * [`DetRng`] — named, independently-seeded RNG streams so adding a
//!   random draw in one component never perturbs another;
//! * [`AccessSerializer`] — FIFO transmission-queue model of an access
//!   link, the mechanism that turns "peer sends a chunk" into a train of
//!   packets whose inter-packet gaps encode the bottleneck capacity (the
//!   packet-pair signal the paper's BW inference exploits);
//! * [`LinkFaults`] — per-link impairment model (packet loss, latency
//!   jitter, transient outages) drawing from a dedicated [`DetRng`]
//!   stream, so fault injection stays inside the determinism contract;
//! * [`stats`] — streaming mean/max/variance, rate meters and integer
//!   histograms used by both the protocol models and the benchmarks.
//!
//! One simulation runs on one thread, and nothing here spawns threads
//! or takes locks: parallelism lives a level up, across independent
//! experiments and across probes in the analysis.

#![warn(missing_docs)]

pub mod event;
pub mod fault;
pub mod link;
pub mod rng;
pub mod stats;
pub mod time;

pub use event::{Scheduler, ORIGIN_CHURN, ORIGIN_INIT};
pub use fault::{LinkFaultParams, LinkFaults, PacketFate};
pub use link::AccessSerializer;
pub use rng::DetRng;
pub use stats::{Histogram, MeanMax, RateMeter, Welford};
pub use time::SimTime;
