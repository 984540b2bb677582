//! # netaware-proto — mesh-pull P2P-TV protocol models
//!
//! The three applications the paper measures (PPLive, SopCast, TVAnts)
//! were proprietary; what is reproducible about them is their *observable
//! behaviour*. This crate implements one complete mesh-pull live
//! streaming protocol — chunked stream, buffer maps, tracker + gossip
//! discovery, provider selection, upload scheduling, churn, signalling —
//! and three [`profiles::AppProfile`]s that parameterise it
//! to each application's measured character.
//!
//! The deliverable of a [`swarm::Swarm`] run is a
//! [`TraceSet`](netaware_trace::TraceSet): the packet captures at the
//! probe vantage points, which feed the `netaware-analysis` crate exactly
//! as tcpdump captures fed the original study.

#![warn(missing_docs)]

pub mod chunk;
pub mod mesh;
pub mod message;
pub mod peer;
pub mod policy;
pub mod profiles;
pub mod swarm;

pub use chunk::{BufferMap, ChunkId, StreamParams, BUFFER_WINDOW};
pub use mesh::{run_mesh, MeshConfig, MeshReport};
pub use message::{Signal, MAX_SIGNAL_SIZE};
pub use peer::{PeerId, PeerInfo, PeerRole};
pub use policy::{Candidate, SelectionPolicy};
pub use profiles::AppProfile;
pub use swarm::{ExternalSpec, NetworkEnv, PeerSetup, ProbeSpec, Swarm, SwarmConfig, SwarmReport};
