//! # parsched
//!
//! A full reproduction of **"Performance Comparison of Processor Scheduling
//! Strategies in a Distributed-Memory Multicomputer System"** (Chan,
//! Dandamudi & Majumdar, IPPS 1997) as a Rust library, built on a
//! deterministic discrete-event model of the paper's 16-node Transputer
//! machine.
//!
//! This facade crate re-exports the whole workspace:
//!
//! * [`des`] — the discrete-event kernel (time, event queues, statistics,
//!   deterministic RNG);
//! * [`topology`] — interconnects (linear/ring/mesh/hypercube), routing and
//!   partitioning;
//! * [`machine`] — the simulated multicomputer (two-priority CPUs, MMU,
//!   links, packetized store-and-forward, mailboxes, host-link loader);
//! * [`workload`] — the paper's applications (matrix multiplication,
//!   divide-and-conquer sort) plus synthetic fork-join jobs;
//! * [`obs`] — observability: typed event telemetry, the time-weighted
//!   metrics registry and the Chrome-trace exporter;
//! * [`core`] — the scheduling policies (static space-sharing,
//!   time-sharing/hybrid), the experiment harness and the paper figures.
//!
//! ## Quick taste
//!
//! ```
//! use parsched::prelude::*;
//!
//! // One 4-processor ring partition; two tiny jobs; static space-sharing.
//! let cost = CostModel::default();
//! let batch = vec![
//!     matmul_job("a", 32, 4, &cost),
//!     matmul_job("b", 32, 4, &cost),
//! ];
//! let mut config = ExperimentConfig::paper(4, TopologyKind::Ring, PolicyKind::Static);
//! config.system_size = 4;
//! let result = run_experiment(&config, &batch).expect("simulation completed");
//! assert_eq!(result.primary.response_times.len(), 2);
//! assert!(result.mean_response > 0.0);
//! ```
//!
//! See `examples/` for runnable scenarios, `crates/bench` for the harness
//! that regenerates every figure of the paper, and EXPERIMENTS.md for the
//! paper-vs-measured record.

pub use parsched_core as core;
pub use parsched_des as des;
pub use parsched_machine as machine;
pub use parsched_obs as obs;
pub use parsched_topology as topology;
pub use parsched_workload as workload;

/// Everything a typical experiment needs in one import.
pub mod prelude {
    pub use parsched_core::prelude::*;
    pub use parsched_des::prelude::*;
    pub use parsched_machine::prelude::*;
    pub use parsched_obs::prelude::*;
    pub use parsched_topology::{
        build, config_label, metrics, paper_configs, NodeId, PartitionPlan, Router, Topology,
        TopologyKind,
    };
    pub use parsched_workload::prelude::*;
}
