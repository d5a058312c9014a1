//! # parsched-des
//!
//! The deterministic discrete-event simulation kernel underneath the
//! `parsched` reproduction of Chan, Dandamudi & Majumdar (IPPS 1997).
//!
//! The kernel is domain-agnostic: it provides simulated [time](time), the
//! [event loop](engine) over a now-queue, one [future-event heap](queue)
//! with lazy timer cancellation and two ordered lanes for event streams
//! whose keys only increase, the [ordering primitives](order) a model
//! uses to place work it defers in closed form, [output statistics](stats),
//! a [deterministic RNG](rng) with labelled substreams, and a bounded
//! [trace](trace) buffer. Everything Transputer-specific lives in
//! `parsched-machine` on top of this crate.
//!
//! ## Determinism
//!
//! Simulations built on this kernel are bit-for-bit reproducible: integer
//! nanosecond timestamps, sequence-number tiebreaks for simultaneous events,
//! and seeded RNG substreams. The engine's now-queue/heap merge pops in
//! exact `(time, seq)` order (each ordered lane keeps its head in the
//! heap), and the differential oracle holds it to a naive single-heap
//! engine event for event.
//!
//! ## Example
//!
//! ```
//! use parsched_des::prelude::*;
//!
//! struct Pinger { pongs: u32 }
//! impl Model for Pinger {
//!     type Event = &'static str;
//!     fn handle(
//!         &mut self,
//!         _now: SimTime,
//!         ev: &'static str,
//!         s: &mut impl EventScheduler<&'static str>,
//!     ) {
//!         match ev {
//!             "ping" => s.schedule(SimDuration::from_micros(10), "pong"),
//!             "pong" => self.pongs += 1,
//!             _ => unreachable!(),
//!         }
//!     }
//! }
//!
//! let mut engine = Engine::new(QueueKind::BinaryHeap);
//! engine.seed(SimTime::ZERO, "ping");
//! let mut model = Pinger { pongs: 0 };
//! assert_eq!(engine.run(&mut model), RunOutcome::Drained);
//! assert_eq!(model.pongs, 1);
//! assert_eq!(engine.now(), SimTime::ZERO + SimDuration::from_micros(10));
//! ```

#![warn(missing_docs)]

pub mod engine;
pub mod order;
pub mod queue;
pub mod rng;
pub mod stats;
pub mod time;
pub mod trace;

/// The kernel's commonly used names in one import.
pub mod prelude {
    pub use crate::engine::{
        Engine, EventScheduler, EventSeeder, Model, QueueKind, RunOutcome, Scheduler, TimerHandle,
    };
    pub use crate::order::{Cursor, Key};
    pub use crate::queue::{BinaryHeapQueue, Scheduled};
    pub use crate::rng::DetRng;
    pub use crate::stats::{percentile, BusyTime, Histogram, Summary, TimeWeighted, Welford};
    pub use crate::time::{SimDuration, SimTime};
    pub use crate::trace::{Trace, TraceRecord};
}

pub use prelude::*;
