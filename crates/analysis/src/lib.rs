//! # netaware-analysis — the paper's passive network-awareness framework
//!
//! This crate is the reproduction's core contribution: the methodology of
//! Ciullo et al. (IPDPS 2009) for inferring, from packet traces alone,
//! which network properties a P2P-TV application's peer selection and
//! byte scheduling respond to.
//!
//! Pipeline (all strictly passive — no simulator ground truth crosses
//! this boundary):
//!
//! 1. [`pass`] — the streaming engine: [`pass::AnalysisPass`]
//!    accumulators observe each record of a probe exactly once (flow
//!    aggregation, windowed rates); the drivers in [`report`] feed one
//!    sweep per probe through all of them;
//! 2. [`flows`] — aggregate each probe's trace into per-remote flow
//!    statistics: bytes/packets per direction, video bytes by the size
//!    heuristic, minimum inter-packet gap of received video trains, and
//!    received TTLs;
//! 2. [`contributors`] — the heuristic of the NAPA-WINE tech report
//!    (ref. \[14\]): a remote is a contributor in a direction when it
//!    moved at least a chunk's worth of video-sized payload;
//! 3. [`ipg`] — packet-pair capacity inference: a remote has a
//!    high-bandwidth (>10 Mb/s) path when some 1250-byte packet pair
//!    arrived less than 1 ms apart;
//! 4. [`hop`] — `128 − TTL` hop estimation and the median split;
//! 5. [`partition`] — the preferential-partition abstraction
//!    `X = X_P ∪ X̄_P` with the five instances the paper studies (BW,
//!    AS, CC, NET, HOP);
//! 6. [`preference`] — the `P` (peer-wise) and `B` (byte-wise)
//!    preference percentages of Eq. (7)–(8), in the four variants of
//!    Table IV ({download, upload} × {all contributors, excluding the
//!    probe set `W`});
//! 7. [`summary`], [`selfbias`], [`geo`], [`asmatrix`] — the remaining
//!    tables and figures (Table II, Table III, Fig. 1, Fig. 2);
//! 8. [`report`] — one-call orchestration producing a serialisable
//!    [`report::ExperimentAnalysis`] and the
//!    paper-style text tables.
//!
//! Per-probe work is embarrassingly parallel and runs under rayon.

#![warn(missing_docs)]

pub mod asmatrix;
pub mod confidence;
pub mod contributors;
pub mod csv;
pub mod flows;
pub mod geo;
pub mod heuristics;
pub mod hop;
pub mod hopdist;
pub mod ipg;
pub mod markdown;
pub mod netfriend;
pub mod partition;
pub mod pass;
pub mod persite;
pub mod preference;
pub mod report;
pub mod scenario;
pub mod selfbias;
pub mod summary;
pub mod tables;
pub mod validation;

pub use heuristics::AnalysisConfig;
pub use pass::{run_pass, AnalysisPass};
pub use report::{
    analyze, analyze_corpus, analyze_corpus_with_obs, analyze_with_obs, ExperimentAnalysis,
};
