//! The differential harness: one scenario, two engines, zero tolerance.
//!
//! Both runs construct identical machines and drivers; the only difference
//! is the engine driving them — the optimized two-tier
//! [`parsched_des::Engine`] versus the naive [`OracleEngine`]. The
//! [`TraceModel`] wrapper records every `(time, event)` the engine hands
//! the model, so a comparison failure points at the *first* event where
//! the histories fork, not just at diverged end-of-run statistics.
//!
//! Wormhole scenarios run a third time on the flit reference path
//! ([`run_flit_reference`]): the express path replaces flit ticks with
//! closed-form timers, so event histories differ, but response times,
//! makespan, [`Counters`] and [`MachineStats`] must not.
//!
//! Every scenario also runs on the slice reference path
//! ([`run_slice_reference`]): the CPU express path replaces a node's
//! round-robin slices between interrupts with one closed-form window, so
//! event histories differ, but response times, makespan, events processed
//! (replayed slices count), [`Counters`] and [`MachineStats`] (its f64
//! fields bit for bit) must not.
//!
//! Every scenario also runs on a machine built whole at construction
//! ([`run_eager_build`]) against the optimized run's machine, which builds
//! partitions as jobs and faults reach them. Building late must change
//! nothing: the event history, events processed, response times,
//! makespan, [`Counters`] and the full [`MachineStats`] agree bit for bit.
//!
//! On divergence, [`run_differential`] returns a [`Divergence`] whose
//! `detail` embeds the scenario's replay line, and [`dump_repro`] writes
//! the whole report under `target/repro/` for offline triage.

use crate::engine::OracleEngine;
use crate::scenario::Scenario;
use parsched_core::{run_batch_sharded, Driver, ExperimentConfig};
use parsched_des::{Engine, EventScheduler, EventSeeder, Model, RunOutcome, SimDuration, SimTime};
use parsched_machine::{
    Counters, CpuExpressStats, Event, ExpressStats, JobSpec, Machine, MachineStats, Switching,
    SystemNet,
};
use std::path::PathBuf;

/// A model wrapper that records every event the engine delivers, in
/// order, alongside its firing time. Recording is pure observation: the
/// wrapped model sees exactly the calls it would see bare.
pub struct TraceModel<M: Model> {
    /// The wrapped model.
    pub inner: M,
    /// Every `(time, event)` handled so far, in simulation order.
    pub trace: Vec<(SimTime, M::Event)>,
}

impl<M: Model> TraceModel<M> {
    /// Wrap `inner` with an empty trace.
    pub fn new(inner: M) -> Self {
        TraceModel {
            inner,
            trace: Vec::new(),
        }
    }
}

impl<M: Model> Model for TraceModel<M>
where
    M::Event: Clone,
{
    type Event = M::Event;

    fn handle(
        &mut self,
        now: SimTime,
        event: Self::Event,
        sched: &mut impl EventScheduler<Self::Event>,
    ) {
        self.trace.push((now, event.clone()));
        self.inner.handle(now, event, sched);
    }

    fn run_ended(&mut self, sched: &mut impl EventScheduler<Self::Event>) {
        self.inner.run_ended(sched);
    }
}

/// Everything one run produces that the other run must reproduce exactly.
#[derive(Debug, Clone)]
pub struct RunCapture {
    /// The full event history.
    pub trace: Vec<(SimTime, Event)>,
    /// Per-job response times in submission order.
    pub response_times: Vec<SimDuration>,
    /// Batch completion time.
    pub makespan: SimDuration,
    /// Machine-wide counters at completion.
    pub counters: Counters,
    /// Engine events processed.
    pub events: u64,
    /// Machine statistics at completion.
    pub stats: MachineStats,
    /// Which path each worm took (all zero off wormhole switching).
    pub express: ExpressStats,
    /// How the CPUs used the express path.
    pub cpu_express: CpuExpressStats,
}

/// The engine surface the harness needs, implemented by both engines so
/// one generic runner drives either.
trait DiffEngine<E>: EventSeeder<E> {
    fn set_max_events(&mut self, n: u64);
    fn run_model<M: Model<Event = E>>(&mut self, model: &mut M) -> RunOutcome;
    fn now(&self) -> SimTime;
    fn events_processed(&self) -> u64;
}

impl<E> DiffEngine<E> for Engine<E> {
    fn set_max_events(&mut self, n: u64) {
        self.max_events = n;
    }
    fn run_model<M: Model<Event = E>>(&mut self, model: &mut M) -> RunOutcome {
        self.run(model)
    }
    fn now(&self) -> SimTime {
        Engine::now(self)
    }
    fn events_processed(&self) -> u64 {
        Engine::events_processed(self)
    }
}

impl<E> DiffEngine<E> for OracleEngine<E> {
    fn set_max_events(&mut self, n: u64) {
        self.max_events = n;
    }
    fn run_model<M: Model<Event = E>>(&mut self, model: &mut M) -> RunOutcome {
        self.run(model)
    }
    fn now(&self) -> SimTime {
        OracleEngine::now(self)
    }
    fn events_processed(&self) -> u64 {
        OracleEngine::events_processed(self)
    }
}

/// Which machine a capture runs: the production one, or one of its two
/// reference paths.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Build {
    /// Partitions built on demand, worms express where they can.
    Production,
    /// Every worm on the flit reference path.
    FlitReference,
    /// Every slice on the slice reference path.
    SliceReference,
    /// Every partition built at construction ([`Machine::build_all`]).
    Eager,
}

fn run_capture<Eng: DiffEngine<Event>>(
    mut engine: Eng,
    config: &ExperimentConfig,
    batch: Vec<JobSpec>,
    arrivals: &[SimTime],
    build: Build,
) -> Result<RunCapture, String> {
    let plan = config.plan();
    let net = SystemNet::from_plan(&plan);
    let mut machine = Machine::new(config.machine.clone(), net);
    machine.set_flit_reference(build == Build::FlitReference);
    machine.set_slice_reference(build == Build::SliceReference);
    if build == Build::Eager {
        machine.build_all();
    }
    let mut driver = Driver::new(
        machine,
        plan,
        config.policy,
        config.rule,
        config.placement,
        batch,
    );
    if let Some(mpl) = config.mpl {
        driver = driver.with_mpl(mpl);
    }
    driver = driver.with_discipline(config.discipline);
    if !arrivals.is_empty() {
        driver = driver.with_arrivals(arrivals.to_vec());
    }
    engine.set_max_events(config.machine.max_events);
    driver.start(&mut engine);
    let mut model = TraceModel::new(driver);
    let outcome = engine.run_model(&mut model);
    let TraceModel { inner: driver, trace } = model;
    if outcome != RunOutcome::Drained || !driver.all_done() {
        return Err(format!(
            "run failed ({outcome:?}):\n{}",
            driver.diagnose()
        ));
    }
    Ok(RunCapture {
        trace,
        response_times: driver.response_times(),
        makespan: engine.now().since(SimTime::ZERO),
        counters: driver.machine.counters.clone(),
        events: engine.events_processed(),
        stats: MachineStats::capture(&driver.machine, engine.now()),
        express: driver.machine.wormhole().map(|wh| wh.stats).unwrap_or_default(),
        cpu_express: driver.machine.cpu_express_stats(),
    })
}

/// Run `scenario` under the optimized engine.
pub fn run_optimized(scenario: &Scenario) -> Result<RunCapture, String> {
    let config = scenario.config();
    run_capture(
        Engine::new(config.queue),
        &config,
        scenario.batch(),
        &scenario.arrivals,
        Build::Production,
    )
}

/// Run `scenario` under the naive reference engine.
pub fn run_oracle(scenario: &Scenario) -> Result<RunCapture, String> {
    let config = scenario.config();
    run_capture(
        OracleEngine::new(),
        &config,
        scenario.batch(),
        &scenario.arrivals,
        Build::Production,
    )
}

/// Run `scenario` under the optimized engine with every worm on the flit
/// reference path.
pub fn run_flit_reference(scenario: &Scenario) -> Result<RunCapture, String> {
    let config = scenario.config();
    run_capture(
        Engine::new(config.queue),
        &config,
        scenario.batch(),
        &scenario.arrivals,
        Build::FlitReference,
    )
}

/// Run `scenario` under the optimized engine with every slice on the
/// slice reference path.
pub fn run_slice_reference(scenario: &Scenario) -> Result<RunCapture, String> {
    let config = scenario.config();
    run_capture(
        Engine::new(config.queue),
        &config,
        scenario.batch(),
        &scenario.arrivals,
        Build::SliceReference,
    )
}

/// Run `scenario` under the optimized engine on a machine whose every
/// partition is built at construction.
pub fn run_eager_build(scenario: &Scenario) -> Result<RunCapture, String> {
    let config = scenario.config();
    run_capture(
        Engine::new(config.queue),
        &config,
        scenario.batch(),
        &scenario.arrivals,
        Build::Eager,
    )
}

/// A confirmed difference between the two engines on one scenario.
#[derive(Debug, Clone)]
pub struct Divergence {
    /// One-line classification (which comparison failed).
    pub summary: String,
    /// Full report: mismatch context plus the scenario replay line.
    pub detail: String,
}

impl std::fmt::Display for Divergence {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}\n{}", self.summary, self.detail)
    }
}

fn diverge(scenario: &Scenario, summary: &str, context: String) -> Divergence {
    Divergence {
        summary: summary.to_string(),
        detail: format!("{context}\n{}", scenario.describe()),
    }
}

/// Compare two event histories; on mismatch, show a window around the
/// first forked index.
fn compare_traces(
    scenario: &Scenario,
    opt: &[(SimTime, Event)],
    ora: &[(SimTime, Event)],
) -> Result<(), Divergence> {
    let n = opt.len().min(ora.len());
    for i in 0..n {
        if opt[i] != ora[i] {
            let lo = i.saturating_sub(3);
            let mut ctx = format!(
                "event histories fork at index {i} (of {} opt / {} oracle):\n",
                opt.len(),
                ora.len()
            );
            for j in lo..(i + 4).min(n) {
                let mark = if j == i { ">>" } else { "  " };
                ctx.push_str(&format!(
                    "{mark} [{j}] opt    {:?} @ {}\n{mark} [{j}] oracle {:?} @ {}\n",
                    opt[j].1, opt[j].0, ora[j].1, ora[j].0
                ));
            }
            return Err(diverge(scenario, "event-order divergence", ctx));
        }
    }
    if opt.len() != ora.len() {
        let ctx = format!(
            "histories agree for {n} events but lengths differ: \
             optimized {} vs oracle {}; first extra event: {:?}",
            opt.len(),
            ora.len(),
            if opt.len() > n { &opt[n] } else { &ora[n] }
        );
        return Err(diverge(scenario, "event-count divergence", ctx));
    }
    Ok(())
}

/// Hold a wormhole scenario's express-path run to the flit reference.
/// Events processed differ: skipping flit ticks is the point of the
/// express path.
fn compare_flit_reference(scenario: &Scenario, capture: &RunCapture) -> Result<(), Divergence> {
    if scenario.switching != Switching::Wormhole {
        return Ok(());
    }
    let flit = run_flit_reference(scenario)
        .map_err(|e| diverge(scenario, "flit reference run failed", e))?;
    compare_paths(scenario, capture, &flit, "express-path", "flit reference", false)
        .map_err(|mut d| {
            d.detail = format!("{}\n({})", d.detail, capture.express);
            d
        })
}

/// Hold a scenario's CPU express run to the slice reference, events
/// processed included (replayed slices count).
fn compare_slice_reference(scenario: &Scenario, capture: &RunCapture) -> Result<(), Divergence> {
    let slices = run_slice_reference(scenario)
        .map_err(|e| diverge(scenario, "slice reference run failed", e))?;
    compare_paths(scenario, capture, &slices, "CPU express", "slice reference", true)
        .map_err(|mut d| {
            d.detail = format!("{}\n({})", d.detail, capture.cpu_express);
            d
        })
}

/// Hold a fast path's run to its reference path's: identical response
/// times, makespan, counters and machine statistics, the f64 utilization
/// fields included, bit for bit (compared through their `Debug` text,
/// which round-trips every f64), and events processed when `events` is
/// set. Event histories differ by design.
fn compare_paths(
    scenario: &Scenario,
    fast: &RunCapture,
    reference: &RunCapture,
    fast_name: &str,
    reference_name: &str,
    events: bool,
) -> Result<(), Divergence> {
    let observables = |c: &RunCapture| {
        [
            format!("{:?}", c.response_times),
            format!("{:?}", c.makespan),
            if events { format!("{}", c.events) } else { String::new() },
            format!("{:?}", c.counters),
            format!("{:?}", c.stats),
        ]
    };
    let names = ["response-time", "makespan", "events-processed", "counter", "machine-stats"];
    let pairs = observables(fast).into_iter().zip(observables(reference));
    for (what, (got, want)) in names.iter().zip(pairs) {
        if got != want {
            return Err(diverge(
                scenario,
                &format!("{fast_name} {what} divergence from the {reference_name}"),
                format!("{fast_name} {got}\n{reference_name} {want}"),
            ));
        }
    }
    Ok(())
}

/// Hold the on-demand machine to one built whole at construction: the
/// same event history and, bit for bit, the same response times,
/// makespan, events processed, counters and machine statistics (the
/// per-node utilization vector and the f64 means included, compared
/// through their `Debug` text, which round-trips every f64).
fn compare_eager_build(scenario: &Scenario, capture: &RunCapture) -> Result<(), Divergence> {
    let eager = run_eager_build(scenario)
        .map_err(|e| diverge(scenario, "eager-build run failed", e))?;
    let observables = |c: &RunCapture| {
        [
            format!("{:?}", c.response_times),
            format!("{:?}", c.makespan),
            format!("{}", c.events),
            format!("{:?}", c.counters),
            format!("{:?}", c.stats),
        ]
    };
    let names = ["response-time", "makespan", "events-processed", "counter", "machine-stats"];
    let pairs = observables(capture).into_iter().zip(observables(&eager));
    for (what, (lazy, reference)) in names.iter().zip(pairs) {
        if lazy != reference {
            return Err(diverge(
                scenario,
                &format!("on-demand build {what} divergence from the eager build"),
                format!("on demand {lazy}\neager     {reference}"),
            ));
        }
    }
    if capture.trace != eager.trace {
        return Err(diverge(
            scenario,
            "on-demand build event-history divergence from the eager build",
            format!("{} vs {} events traced", capture.trace.len(), eager.trace.len()),
        ));
    }
    Ok(())
}

/// Re-run a `shards > 1` scenario through the conservative-parallel
/// runner — twice, so a thread-interleaving nondeterminism shows up as a
/// fingerprint mismatch between the two passes — and demand the
/// observables match the sequential capture bit for bit. Ineligible
/// configurations exercise the runner's sequential fallback, which must
/// match just the same.
fn compare_sharded(scenario: &Scenario, capture: &RunCapture) -> Result<(), Divergence> {
    if scenario.shards <= 1 {
        return Ok(());
    }
    let config = scenario.config();
    let first = run_batch_sharded(&config, scenario.batch(), scenario.shards)
        .map_err(|e| diverge(scenario, "sharded run failed", e.to_string()))?;
    let second = run_batch_sharded(&config, scenario.batch(), scenario.shards)
        .map_err(|e| diverge(scenario, "sharded rerun failed", e.to_string()))?;
    if first.fingerprint() != second.fingerprint() {
        return Err(diverge(
            scenario,
            "sharded interleaving nondeterminism",
            format!(
                "two identical {}-shard runs fingerprint {:#018x} vs {:#018x}",
                first.shards,
                first.fingerprint(),
                second.fingerprint()
            ),
        ));
    }
    if first.response_times != capture.response_times {
        return Err(diverge(
            scenario,
            "sharded response-time divergence",
            format!(
                "sharded    {:?}\nsequential {:?}\n(shards used: {}, fallback: {:?})",
                first.response_times, capture.response_times, first.shards, first.fallback
            ),
        ));
    }
    if first.makespan != capture.makespan {
        return Err(diverge(
            scenario,
            "sharded makespan divergence",
            format!("sharded {} vs sequential {}", first.makespan, capture.makespan),
        ));
    }
    if first.counters != capture.counters {
        return Err(diverge(
            scenario,
            "sharded counter divergence",
            format!(
                "sharded    {:?}\nsequential {:?}",
                first.counters, capture.counters
            ),
        ));
    }
    if first.events != capture.events {
        return Err(diverge(
            scenario,
            "sharded events-processed divergence",
            format!("sharded {} vs sequential {}", first.events, capture.events),
        ));
    }
    Ok(())
}

/// Run one scenario through both engines and assert bit-identical
/// behavior: event order, per-job response times, makespan, machine
/// counters, and events-processed accounting. Every scenario must match
/// its run on an eagerly built machine and on the slice reference path,
/// and wormhole scenarios the flit reference path, the reference paths on
/// everything but the event history. Scenarios drawn
/// with `shards > 1` additionally run through the conservative-parallel
/// runner (twice) and must reproduce the same observables. Returns the
/// (shared) capture on success for further invariant checking.
pub fn run_differential(scenario: &Scenario) -> Result<RunCapture, Divergence> {
    let opt = run_optimized(scenario)
        .map_err(|e| diverge(scenario, "optimized run failed", e))?;
    let ora = run_oracle(scenario)
        .map_err(|e| diverge(scenario, "oracle run failed", e))?;

    compare_traces(scenario, &opt.trace, &ora.trace)?;
    if opt.response_times != ora.response_times {
        return Err(diverge(
            scenario,
            "response-time divergence",
            format!(
                "optimized {:?}\noracle    {:?}",
                opt.response_times, ora.response_times
            ),
        ));
    }
    if opt.makespan != ora.makespan {
        return Err(diverge(
            scenario,
            "makespan divergence",
            format!("optimized {} vs oracle {}", opt.makespan, ora.makespan),
        ));
    }
    if opt.counters != ora.counters {
        return Err(diverge(
            scenario,
            "counter divergence",
            format!("optimized {:?}\noracle    {:?}", opt.counters, ora.counters),
        ));
    }
    if opt.events != ora.events {
        return Err(diverge(
            scenario,
            "events-processed divergence",
            format!("optimized {} vs oracle {}", opt.events, ora.events),
        ));
    }
    // Conservation is an absolute law, not a relative one: both engines
    // agreeing on leaked flits would pass every comparison above.
    crate::invariants::check_flit_conservation(&opt.counters);
    compare_eager_build(scenario, &opt)?;
    compare_flit_reference(scenario, &opt)?;
    compare_slice_reference(scenario, &opt)?;
    compare_sharded(scenario, &opt)?;
    Ok(opt)
}

/// Write a failing scenario's full report to
/// `target/repro/oracle_case_<case>.txt` (workspace-relative) and return
/// the path. Best-effort: IO failure returns the error instead of
/// masking the divergence.
pub fn dump_repro(scenario: &Scenario, divergence: &Divergence) -> std::io::Result<PathBuf> {
    let dir = PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/../../target/repro"));
    std::fs::create_dir_all(&dir)?;
    let path = dir.join(format!("oracle_case_{}.txt", scenario.case));
    std::fs::write(&path, format!("{divergence}\n"))?;
    Ok(path)
}
