//! # parsched-oracle
//!
//! The correctness backstop for the optimized simulation stack: the hot
//! paths (slab messaging, the now-queue bypass, the 4-ary future-event
//! heap with slot-slab timer cancellation, the wormhole express path) are
//! held to a promise of bit-identical simulated results, and this crate is
//! what holds them to it.
//!
//! Three layers:
//!
//! * [`engine`] — a deliberately naive reference engine (one flat
//!   `BinaryHeap`, tombstone cancellation, nothing else) that honors the
//!   same [`parsched_des::EventScheduler`] contract as the optimized
//!   engine, so the *same* machine/driver code runs under both;
//! * [`scenario`] + [`diff`] — a seeded generator over topology ×
//!   partition size × policy × workload × software architecture × batch
//!   mix, and a differential harness asserting bit-identical event order,
//!   response times, and final stats between the two engines, with
//!   self-contained replay seeds on failure. Wormhole scenarios also run
//!   on the machine's flit reference path, which the wormhole express
//!   path must match on everything but the event history;
//! * [`invariants`] — runtime checkers for conservation laws, causality,
//!   and FCFS admission ordering, callable from any test with recording
//!   on or off.
//!
//! Run the fast sweep with `cargo test -p parsched-oracle`; the long
//! randomized sweep with `ORACLE_CASES=400 cargo test -p parsched-oracle
//! -- --include-ignored` (or `scripts/tier1.sh tier1-full`). A failing
//! case prints its `(seed, case)` replay line and dumps the report under
//! `target/repro/`.

#![warn(missing_docs)]

pub mod diff;
pub mod engine;
pub mod invariants;
pub mod scenario;

pub use diff::{
    dump_repro, run_differential, run_eager_build, run_flit_reference, run_slice_reference,
    Divergence, RunCapture, TraceModel,
};
pub use engine::OracleEngine;
pub use scenario::{Order, PolicyClass, Scenario};
