//! # netaware-testbed — the NAPA-WINE testbed, reconstructed
//!
//! Builds the measurement scenario of the paper: the Table I probe
//! hosts across seven European sites (with their LAN/DSL/CATV access,
//! NAT and firewall flags, ASes and countries), a synthetic external
//! overlay population with 2008-plausible geography (China-dominant)
//! and access-capacity mix, the geolocation registry covering everyone,
//! and an orchestration layer that runs the three application profiles
//! and feeds the captured traces to the analysis — reproducing every
//! table and figure of the paper in one call.

#![warn(missing_docs)]

pub mod hosts;
pub mod matrix;
pub mod population;
pub mod replication;
pub mod runner;
pub mod scenario;

pub use hosts::{table1_hosts, HostDef, Site, SITES};
pub use matrix::{run_matrix, FaultSpec, MatrixConfig, SessionSpec};
pub use population::PopulationConfig;
pub use replication::{run_replicated, ReplicatedSummary, RunStat};
pub use runner::{
    run_ablation, run_experiment, run_on_scenario, run_paper_suite, run_streamed,
    ExperimentOptions, ExperimentOutput,
};
pub use scenario::{BuiltScenario, ScenarioConfig};
