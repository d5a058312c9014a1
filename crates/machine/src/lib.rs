//! # parsched-machine
//!
//! A deterministic discrete-event model of the paper's hardware: a 16-node
//! INMOS T805 Transputer multicomputer with 4 MB per node, four 20 Mbit/s
//! links per node, two-priority hardware scheduling (high priority runs to
//! completion; low priority round-robins with a quantum and *loses* the
//! unfinished quantum when preempted), store-and-forward software routing
//! with per-hop buffer reservation through a FIFO MMU, and mailbox-based
//! asynchronous messaging (§3 of Chan, Dandamudi & Majumdar, IPPS 1997).
//!
//! The machine executes [`JobSpec`]s — straight-line programs of compute
//! bursts, asynchronous sends and blocking receives — placed on global
//! processors by a scheduling policy (see `parsched-core`). It implements
//! [`parsched_des::Model`], so driving it is three lines:
//!
//! ```
//! use parsched_des::prelude::*;
//! use parsched_machine::prelude::*;
//! use parsched_topology::build;
//!
//! let mut machine = Machine::new(
//!     MachineConfig::default(),
//!     SystemNet::single(&build::ring(4).unwrap()),
//! );
//! let job = machine.queue_job(
//!     JobSpec {
//!         name: "hello".into(),
//!         ship_bytes: 0, // ship the whole footprint at load time
//!         procs: vec![ProcSpec {
//!             program: vec![Op::Compute(SimDuration::from_millis(5))],
//!             mem_bytes: 1024,
//!         }],
//!     },
//!     vec![0],                       // rank 0 on processor 0
//!     SimDuration::from_millis(2),   // quantum
//! );
//! let mut engine = Engine::new(QueueKind::BinaryHeap);
//! engine.seed(SimTime::ZERO, Event::Admit { job });
//! assert_eq!(engine.run(&mut machine), RunOutcome::Drained);
//! assert!(machine.all_jobs_done());
//! ```

#![warn(missing_docs)]

pub mod config;
pub mod cpu;
pub mod fault;
pub mod instrument;
pub mod memory;
pub mod net;
pub mod process;
pub mod program;
pub mod rotation;
pub mod stats;
pub mod system;
pub mod timeline;
pub mod wiring;
pub mod wormhole;

/// The machine's commonly used names in one import.
pub mod prelude {
    pub use crate::config::{FlowControl, MachineConfig, SendMode, Switching};
    pub use crate::fault::{FaultPlan, LinkWindow, NodeCrash, RetryPolicy};
    pub use crate::instrument::MachineMetrics;
    pub use crate::memory::AllocPolicy;
    pub use crate::process::{JobId, PState, ProcKey};
    pub use crate::program::{JobSpec, Op, ProcSpec, Rank, Tag};
    pub use crate::rotation::{CpuExpressStats, DeclineReason, SettleReason};
    pub use crate::stats::{JobSummary, MachineStats};
    pub use crate::system::{Counters, Event, JobState, Machine, Note};
    pub use crate::timeline::{Span, SpanKind, Timeline};
    pub use crate::wiring::SystemNet;
    pub use crate::wormhole::{ExpressStats, FlitReason};
}

pub use prelude::*;
