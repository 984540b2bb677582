//! # netaware-trace — packet traces captured at probe vantage points
//!
//! The NAPA-WINE study is strictly passive: everything it knows comes from
//! packet-level traces collected at 44 probe hosts. This crate is that
//! capture layer:
//!
//! * [`PacketRecord`] — one captured packet: timestamp, endpoints, ports,
//!   size, received TTL and (ground-truth, for validation only) payload
//!   kind;
//! * [`ProbeTrace`] — the time-ordered capture at one vantage point;
//! * [`TraceSet`] — all probes of one experiment plus metadata (which
//!   application, how long, who the probes were — the set `W`);
//! * [`format`](mod@format) — a compact binary on-disk format with round-trip
//!   guarantees;
//! * [`pcap`] — classic libpcap export/import (synthesising Ethernet,
//!   IPv4 and UDP headers), so traces open in standard tooling;
//! * [`stream`] — incremental readers ([`RecordStream`],
//!   [`CorpusStream`]) that yield records straight off disk so analyses
//!   can run without materialising a [`TraceSet`];
//! * [`sink`] — [`RecordSink`] consumers that take the captures in
//!   rounds of time-sorted segments as they are produced: in-memory
//!   ([`MemorySink`]) or spill-to-disk ([`CorpusSink`]).
//!
//! The analysis crate never looks at [`PayloadKind`] ground truth — it
//! classifies video vs. signalling from packet sizes exactly like the
//! paper; the ground-truth tag exists so tests can *score* that heuristic.

#![warn(missing_docs)]

pub mod corpus;
pub mod format;
pub mod pcap;
pub mod record;
pub mod set;
pub mod sink;
pub mod stream;

pub use format::{read_trace, write_trace, TraceError};
pub use record::{PacketRecord, PayloadKind};
pub use set::{ProbeTrace, TraceSet};
pub use sink::{CorpusSink, MemorySink, RecordSink, Round};
pub use stream::{CorpusStream, FileRecordStream, RecordStream};
