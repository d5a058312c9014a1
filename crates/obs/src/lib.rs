//! # parsched-obs
//!
//! Observability for the simulated multicomputer, designed around one hard
//! rule: **instrumentation may observe, never perturb**. Recorders and
//! metrics never schedule events, never touch the RNG and never feed back
//! into the model, so a fully instrumented run is bit-identical to an
//! uninstrumented one — the golden figures stay exact with recording on or
//! off.
//!
//! Three layers:
//!
//! * [`event`] — a compact [`ObsEvent`] enum of simulation
//!   events (job lifecycle, CPU quanta, message hops, partition admission)
//!   recorded through the [`Recorder`] trait. The disabled
//!   path is a single `Option` branch: no formatting, no allocation.
//! * [`metrics`] — a [`MetricsRegistry`] of
//!   counters and time-weighted gauges (piecewise-constant signals with
//!   exact `value x duration` integrals) plus bounded change-point series.
//! * [`chrome`] + [`ring`] — exporters: a Chrome-trace (catapult JSON)
//!   writer whose output opens in `chrome://tracing` or Perfetto, and a
//!   bounded human-readable ring buffer for the deadlock watchdog.
//!
//! The crate is domain-light on purpose: events carry plain integer ids
//! (node, job, rank, message, channel), so it depends only on
//! `parsched-des` for simulated time. The machine model wires the hooks;
//! see `parsched-machine` and `parsched-core`.

#![warn(missing_docs)]

pub mod chrome;
pub mod event;
pub mod metrics;
pub mod ring;

/// The observability crate's commonly used names in one import.
pub mod prelude {
    pub use crate::chrome::{ChromeTrace, TraceLayout};
    pub use crate::event::{CollectRecorder, ObsEvent, QuantumEndReason, Recorder, TimedEvent};
    pub use crate::metrics::{CounterId, GaugeId, MetricsRegistry};
    pub use crate::ring::RingRecorder;
}

pub use prelude::*;
