//! # netaware — Network Awareness of P2P Live Streaming Applications
//!
//! A full reproduction of Ciullo et al., *"Network Awareness of P2P Live
//! Streaming Applications"*, IEEE IPDPS 2009 (the NAPA-WINE measurement
//! study), as a Rust workspace:
//!
//! * [`net`] — AS-level Internet substrate (geolocation, access links,
//!   hop/TTL and delay models);
//! * [`sim`] — deterministic discrete-event engine with packet-timing
//!   link models;
//! * [`trace`] — probe-side packet capture, binary trace format, pcap
//!   import/export;
//! * [`proto`] — the mesh-pull P2P-TV protocol with PPLive-, SopCast-
//!   and TVAnts-like behaviour profiles;
//! * [`analysis`] — the paper's passive network-awareness framework
//!   (contributor heuristic, packet-pair BW inference, TTL hop counting,
//!   preferential partitions, peer-/byte-wise preference metrics);
//! * [`testbed`] — the Table I testbed, the synthetic overlay
//!   population, and one-call experiment orchestration;
//! * [`obs`] — deterministic sim-time observability: structured event
//!   log, metrics registry, and span profiler for the whole pipeline;
//! * [`faults`] — deterministic fault-injection plans: link
//!   loss/jitter/outages and peer churn, with protocol-level recovery
//!   in [`proto`].
//!
//! ## Quickstart
//!
//! ```no_run
//! use netaware::testbed::{run_paper_suite, ExperimentOptions};
//!
//! // A CI-scale rendition of the paper's experiment suite.
//! let outputs = run_paper_suite(&ExperimentOptions::ci_scale(42));
//! for out in &outputs {
//!     let bw = out.analysis.preference("BW").unwrap();
//!     println!(
//!         "{}: {:.0}% of received bytes come from high-bandwidth peers",
//!         out.app, bw.download_all.bytes_pct
//!     );
//! }
//! ```

#![warn(missing_docs)]

pub use netaware_analysis as analysis;
pub use netaware_faults as faults;
pub use netaware_net as net;
pub use netaware_obs as obs;
pub use netaware_proto as proto;
pub use netaware_sim as sim;
pub use netaware_testbed as testbed;
pub use netaware_trace as trace;

pub use netaware_analysis::{analyze, analyze_corpus, AnalysisConfig, ExperimentAnalysis};
pub use netaware_faults::{ChurnPlan, FaultPlan, LinkFaultPlan, SessionModel, TrackerOutage};
pub use netaware_obs::Obs;
pub use netaware_proto::AppProfile;
pub use netaware_testbed::{
    run_experiment, run_paper_suite, run_streamed, ExperimentOptions,
};
