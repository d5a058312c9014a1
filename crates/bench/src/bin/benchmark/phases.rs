//! The sequential phase-split path: the same calls the public entry points
//! make, taken one at a time so each layer can be timed from outside, and
//! run on either the production engine or the oracle's reference engine.

use crate::workloads::{digest_open, digest_run, fnv_words, Cell, Input};
use parsched_core::prelude::*;
use parsched_des::{
    Engine, EventScheduler, EventSeeder, Model, RunOutcome, SimDuration, SimTime, Summary,
};
use parsched_machine::{Counters, Event, Machine, MachineStats, SystemNet};
use parsched_oracle::OracleEngine;
use parsched_workload::cost::CostModel;
use parsched_workload::synthetic::synthetic_job;
use std::time::{Duration, Instant};

/// Span names of one phase-split run, in order.
pub const PHASES: [&str; 6] = ["plan", "wiring", "build", "driver", "run", "reduce"];

/// The 14 machine event kinds, in declaration order.
pub const KINDS: [&str; 14] = [
    "Admit",
    "LoadJob",
    "Dispatch",
    "SliceEnd",
    "TransferDone",
    "FlitTick",
    "HopStart",
    "AllocEscape",
    "PolicyTick",
    "NodeCrash",
    "LinkDown",
    "LinkUp",
    "MsgRetry",
    "MsgTimeout",
];

fn kind(e: &Event) -> usize {
    match e {
        Event::Admit { .. } => 0,
        Event::LoadJob { .. } => 1,
        Event::Dispatch { .. } => 2,
        Event::SliceEnd { .. } => 3,
        Event::TransferDone { .. } => 4,
        Event::FlitTick { .. } => 5,
        Event::HopStart { .. } => 6,
        Event::AllocEscape { .. } => 7,
        Event::PolicyTick { .. } => 8,
        Event::NodeCrash { .. } => 9,
        Event::LinkDown { .. } => 10,
        Event::LinkUp { .. } => 11,
        Event::MsgRetry { .. } => 12,
        Event::MsgTimeout { .. } => 13,
    }
}

/// A model wrapper that counts and times every `handle` call per event
/// kind. Aggregated in place: a run of millions of events costs two clock
/// reads each, not a span each.
struct KindProfile<M> {
    inner: M,
    count: [u64; 14],
    nanos: [u64; 14],
}

impl<M: Model<Event = Event>> Model for KindProfile<M> {
    type Event = Event;

    fn handle(&mut self, now: SimTime, event: Event, sched: &mut impl EventScheduler<Event>) {
        let k = kind(&event);
        let t = Instant::now();
        self.inner.handle(now, event, sched);
        self.nanos[k] += t.elapsed().as_nanos() as u64;
        self.count[k] += 1;
    }
}

/// The engine surface the phase-split path needs; both engines provide it.
pub trait Runner: EventSeeder<Event> {
    fn limit(&mut self, max_events: u64);
    fn drive<M: Model<Event = Event>>(&mut self, model: &mut M) -> RunOutcome;
    fn clock(&self) -> SimTime;
    fn processed(&self) -> u64;
}

impl Runner for Engine<Event> {
    fn limit(&mut self, max_events: u64) {
        self.max_events = max_events;
    }
    fn drive<M: Model<Event = Event>>(&mut self, model: &mut M) -> RunOutcome {
        self.run(model)
    }
    fn clock(&self) -> SimTime {
        self.now()
    }
    fn processed(&self) -> u64 {
        self.events_processed()
    }
}

impl Runner for OracleEngine<Event> {
    fn limit(&mut self, max_events: u64) {
        self.max_events = max_events;
    }
    fn drive<M: Model<Event = Event>>(&mut self, model: &mut M) -> RunOutcome {
        self.run(model)
    }
    fn clock(&self) -> SimTime {
        self.now()
    }
    fn processed(&self) -> u64 {
        self.events_processed()
    }
}

/// A built, started run, with the host time of each set-up phase.
pub struct Started<R> {
    driver: Driver,
    engine: R,
    /// plan, wiring, build, driver.
    pub setup: [Duration; 4],
}

/// Set one run up the way the input's entry point does: plan, wire,
/// build the machine, build and start the driver.
pub fn setup<R: Runner>(input: &Input, engine: impl FnOnce() -> R) -> Result<Started<R>, String> {
    let cfg = input.experiment();
    let t = Instant::now();
    let plan = cfg
        .try_plan()
        .map_err(|e| format!("{}: {e}", cfg.label()))?;
    let plan_t = t.elapsed();

    let t = Instant::now();
    let net = SystemNet::from_plan(&plan);
    let wiring_t = t.elapsed();

    let t = Instant::now();
    let machine = Machine::new(cfg.machine.clone(), net);
    let build_t = t.elapsed();

    // The benchmark's own copy of a closed batch is made off the clock; an
    // open stream's jobs are built by the entry point, so on it.
    let copy = match input {
        Input::Batch { batch, .. } | Input::Sharded { batch, .. } => batch.clone(),
        Input::Open { .. } => Vec::new(),
    };
    let t = Instant::now();
    let (batch, arrivals) = match input {
        Input::Batch { .. } | Input::Sharded { .. } => (copy, Vec::new()),
        // As `run_open_stream`: demands floored at one hardware quantum,
        // one synthetic fork-join job each.
        Input::Open {
            cfg: open,
            times,
            demands,
        } => {
            let cost = CostModel::default();
            let batch = demands
                .iter()
                .enumerate()
                .map(|(i, &d)| {
                    let d = d.max(SimDuration::from_millis(2));
                    synthetic_job(format!("open{i}"), d, &open.params, &cost)
                })
                .collect();
            (batch, times.clone())
        }
    };
    let mut driver = Driver::new(machine, plan, cfg.policy, cfg.rule, cfg.placement, batch)
        .with_discipline(cfg.discipline);
    if let Some(mpl) = cfg.mpl {
        driver = driver.with_mpl(mpl);
    }
    if !arrivals.is_empty() {
        driver = driver.with_arrivals(arrivals);
    }
    let mut engine = engine();
    engine.limit(cfg.machine.max_events);
    driver.start(&mut engine);
    let driver_t = t.elapsed();

    Ok(Started {
        driver,
        engine,
        setup: [plan_t, wiring_t, build_t, driver_t],
    })
}

/// Everything one phase-split run produced.
pub struct Capture {
    pub response_times: Vec<SimDuration>,
    pub makespan: SimDuration,
    pub events: u64,
    pub counters: Counters,
    pub stats: MachineStats,
    /// Host time per phase, in [`PHASES`] order.
    pub phases: [Duration; 6],
    /// Per-kind (count, handle nanoseconds) when profiled.
    pub kinds: Option<([u64; 14], [u64; 14])>,
}

impl Capture {
    /// Digest of the observables both engines must agree on.
    pub fn fingerprint(&self) -> u64 {
        fnv_words(
            self.response_times
                .iter()
                .map(|d| d.nanos())
                .chain([self.makespan.nanos(), self.events])
                .chain(format!("{:?}", self.counters).bytes().map(u64::from)),
        )
    }
}

impl<R: Runner> Started<R> {
    /// Run to completion and reduce the results; `profile` wraps the
    /// driver in the per-kind profiler.
    pub fn finish(self, profile: bool) -> Result<Capture, String> {
        let Started {
            mut driver,
            mut engine,
            setup,
        } = self;
        let t = Instant::now();
        let (outcome, kinds) = if profile {
            let mut model = KindProfile {
                inner: driver,
                count: [0; 14],
                nanos: [0; 14],
            };
            let outcome = engine.drive(&mut model);
            driver = model.inner;
            (outcome, Some((model.count, model.nanos)))
        } else {
            (engine.drive(&mut driver), None)
        };
        let run_t = t.elapsed();
        if outcome != RunOutcome::Drained || !driver.all_done() {
            return Err(format!("run failed ({outcome:?}):\n{}", driver.diagnose()));
        }

        let t = Instant::now();
        let response_times = driver.response_times();
        let records = driver.entry_records();
        let summary = Summary::of_durations(&response_times);
        let stats = MachineStats::capture(&driver.machine, engine.clock());
        let reduce_t = t.elapsed();
        std::hint::black_box((&records, &summary));

        let [plan, wiring, build, drv] = setup;
        Ok(Capture {
            response_times,
            makespan: engine.clock().since(SimTime::ZERO),
            events: engine.processed(),
            counters: driver.machine.counters.clone(),
            stats,
            phases: [plan, wiring, build, drv, run_t, reduce_t],
            kinds,
        })
    }
}

/// One phase-split run on the production engine.
pub fn production(input: &Input, profile: bool) -> Result<Capture, String> {
    let queue = input.experiment().queue;
    setup(input, || Engine::<Event>::new(queue))?.finish(profile)
}

/// What verification established for one cell.
pub struct Verified {
    /// Fingerprint of the oracle-checked phase-split run.
    pub fingerprint: u64,
    /// Digest the entry point must return on every timed run.
    pub reference: u64,
    /// Shards the entry point used.
    pub shards: usize,
}

/// Run `v` on the oracle engine and on the production engine and demand
/// bit-identical response times, makespan, event count and counters; then
/// check that the public entry point returns the same observables and
/// record its digest as the reference for timed runs. The sharded entry
/// point must also agree with itself at one shard.
pub fn verify(v: &Cell) -> Result<Verified, String> {
    let fail = |what: &str, detail: String| format!("{}: {what}\n{detail}", v.label);
    let oracle = setup(&v.input, OracleEngine::<Event>::new)
        .and_then(|s| s.finish(false))
        .map_err(|e| fail("oracle run failed", e))?;
    let prod = production(&v.input, false).map_err(|e| fail("production run failed", e))?;
    if oracle.response_times != prod.response_times {
        return Err(fail(
            "response times differ between oracle and production",
            format!(
                "oracle {:?}\nproduction {:?}",
                oracle.response_times, prod.response_times
            ),
        ));
    }
    if oracle.makespan != prod.makespan {
        return Err(fail(
            "makespan differs",
            format!("oracle {} vs production {}", oracle.makespan, prod.makespan),
        ));
    }
    if oracle.events != prod.events {
        return Err(fail(
            "event count differs",
            format!("oracle {} vs production {}", oracle.events, prod.events),
        ));
    }
    if oracle.counters != prod.counters {
        return Err(fail(
            "counters differ",
            format!(
                "oracle {:?}\nproduction {:?}",
                oracle.counters, prod.counters
            ),
        ));
    }

    let disagree = |entry: &str| {
        fail(
            &format!("{entry} disagrees with the phase-split run"),
            String::new(),
        )
    };
    let (reference, shards) = match &v.input {
        Input::Batch { cfg, batch } => {
            let r = run_batch(cfg, batch.clone())
                .map_err(|e| fail("run_batch failed", e.to_string()))?;
            if r.response_times != prod.response_times
                || r.makespan != prod.makespan
                || r.events != prod.events
            {
                return Err(disagree("run_batch"));
            }
            (digest_run(&r), 1)
        }
        Input::Sharded { cfg, batch } => {
            let one = run_batch_sharded(cfg, batch.clone(), 1)
                .map_err(|e| fail("run_batch_sharded(1) failed", e.to_string()))?;
            if one.response_times != prod.response_times
                || one.makespan != prod.makespan
                || one.events != prod.events
                || one.counters != prod.counters
            {
                return Err(disagree("run_batch_sharded(1)"));
            }
            let k = default_shards(cfg);
            let many = run_batch_sharded(cfg, batch.clone(), k)
                .map_err(|e| fail("run_batch_sharded(default) failed", e.to_string()))?;
            if many.fingerprint() != one.fingerprint() {
                return Err(fail(
                    "the default shard count changes the result",
                    format!(
                        "K=1 {:#018x} vs K={k} {:#018x}",
                        one.fingerprint(),
                        many.fingerprint()
                    ),
                ));
            }
            (many.fingerprint(), many.shards)
        }
        Input::Open {
            cfg,
            times,
            demands,
        } => {
            let r = run_open_stream(cfg, times.clone(), demands.clone())
                .map_err(|e| fail("run_open_stream failed", e.to_string()))?;
            let got: Vec<Option<SimDuration>> = r.records.iter().map(|j| j.response).collect();
            let want: Vec<Option<SimDuration>> =
                prod.response_times.iter().copied().map(Some).collect();
            if got != want || r.end.since(SimTime::ZERO) != prod.makespan {
                return Err(disagree("run_open_stream"));
            }
            (digest_open(&r), 1)
        }
    };
    Ok(Verified {
        fingerprint: prod.fingerprint(),
        reference,
        shards,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_names_match_the_event_variants() {
        use parsched_machine::net::MsgId;
        use parsched_machine::JobId;
        let (job, msg) = (JobId(0), MsgId(0));
        let samples = [
            Event::Admit { job },
            Event::LoadJob { job },
            Event::Dispatch { node: 0 },
            Event::SliceEnd { node: 0, seq: 0 },
            Event::TransferDone { chan: 0 },
            Event::FlitTick { chan: 0 },
            Event::HopStart { msg, edge: 0 },
            Event::AllocEscape {
                node: 0,
                msg,
                gen: 0,
            },
            Event::PolicyTick { token: 0 },
            Event::NodeCrash { node: 0 },
            Event::LinkDown { chan: 0 },
            Event::LinkUp { chan: 0 },
            Event::MsgRetry { msg, gen: 0 },
            Event::MsgTimeout { msg, gen: 0 },
        ];
        for (i, e) in samples.iter().enumerate() {
            assert_eq!(kind(e), i);
            assert!(format!("{e:?}").starts_with(KINDS[i]), "{e:?}");
        }
    }
}
