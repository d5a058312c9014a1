//! # parsched-core
//!
//! The paper's contribution: processor scheduling policies for a
//! distributed-memory multicomputer, implemented over the simulated
//! Transputer machine of `parsched-machine` and evaluated exactly as
//! Chan, Dandamudi & Majumdar (IPPS 1997) evaluate them.
//!
//! * [`policy`] — static space-sharing, time-sharing/hybrid, the RR-job
//!   quantum rule, and process placement;
//! * [`driver`] — the hierarchical super/partition/local scheduler;
//! * [`experiment`] — run configuration, best/worst static orderings, and
//!   the mean-response-time metric;
//! * [`figures`] — one function per paper figure and ablation;
//! * [`open`] — the open-system front door: arrival streams, heavy-tailed
//!   demand, warm-up-truncated response/slowdown curves over a ρ grid;
//! * [`report`] — the row/series output the paper's figures plot;
//! * [`runner`] — parallel execution of configuration grids;
//! * [`sharded`] — conservative-parallel execution of a single run,
//!   partitioned into topology-region shards with bit-identical results.
//!
//! ```no_run
//! use parsched_core::prelude::*;
//!
//! // Regenerate Figure 4 (matrix multiplication, adaptive architecture).
//! let table = fig4(&FigureOpts::default()).expect("simulation completed");
//! println!("{}", table.to_text());
//! ```

#![warn(missing_docs)]

pub mod driver;
pub mod experiment;
pub mod figures;
pub mod open;
pub mod policy;
pub mod report;
pub mod runner;
pub mod sharded;

/// The core crate's commonly used names in one import.
pub mod prelude {
    pub use crate::driver::{Driver, EntryRecord};
    pub use crate::experiment::{
        order_batch, run_batch, run_batch_observed, run_batch_with_arrivals, run_experiment,
        run_replicated, BatchOrder, ExperimentConfig, ExperimentResult, ObsArtifacts,
        ReplicatedResult, Run, RunError, RunResult,
    };
    pub use crate::figures::{
        ablation_flow_control, ablation_gang, ablation_load, ablation_memory, ablation_mpl,
        ablation_overheads, ablation_partition_tuning, ablation_pipeline, ablation_quantum,
        ablation_topology, ablation_variance, ablation_wormhole, fig3, fig4, fig5, fig6, figure,
        FigureOpts,
    };
    pub use crate::open::{
        run_open_stream, run_open_system, sweep_load, DemandSpec, LoadPoint, LoadSweep, OpenConfig,
        OpenJobRecord, OpenRunResult, StopRule, TailStats,
    };
    pub use crate::policy::{Discipline, Placement, PolicyKind, QuantumRule};
    pub use crate::report::{metrics_table, FigureRow, FigureTable};
    pub use crate::runner::run_parallel;
    pub use crate::sharded::{
        default_shards, run_batch_sharded, shard_eligibility, ShardTiming, ShardedRunResult,
    };
}

pub use prelude::*;
