//! Sharded conservative-parallel run execution.
//!
//! The paper's machine wires each partition as its own closed interconnect
//! (the C004 crossbar links partitions only through the host), so no event
//! ever crosses from one partition to another: the partitions evolve
//! independently once the *global* super-scheduler decisions — admission
//! order, host-link load serialization, queue pops, fault requeues — are
//! accounted for. [`run_batch_sharded`] cuts the partition plan into at
//! most `K` contiguous shards ([`ShardPlan`]): the shards the batch's
//! t = 0 placement reaches, the last of them also owning the idle tail
//! ([`ShardPlan::fold_after`]). Each shard builds its own [`Machine`] +
//! [`Driver`] on its own thread, over only its partitions renumbered from
//! processor 0 ([`SystemNet::for_partitions`], [`PartitionPlan::sub_plan`]),
//! starts it as every run starts (`Run::start`), runs it in rounds of
//! `Run::until` and drops it there.
//!
//! One runner serves every eligible configuration ([`shard_eligibility`]):
//!
//! * **Precomputed admission.** The sequential t = 0 admission fills every
//!   partition up to its execution + prefetch capacity round-robin (job
//!   `i` lands on partition `i mod P`) and its loads serialize on the host
//!   link in submission order, so each prefilled job's shard, global index
//!   and load floor are known up front ([`Driver::with_coordination`]).
//!   The rest of the batch waits in a global FCFS queue.
//! * **Leader rounds.** Shards run in rounds between two barriers. A
//!   decision no shard can take alone — a queue pop under the static
//!   policy or a bounded MPL, a fault requeue — pauses the deciding
//!   shard's engine at the exact instant
//!   ([`parsched_des::engine::EventScheduler::request_pause`]) and raises
//!   a [`CoordRequest`]. Between the barriers shard 0, the leader, serves
//!   requests across shards in the sequential order — global
//!   `(time, partition)` — handing back [`CoordGrant`]s that seed the
//!   admission into the paused engine. Declared crashes are wakeups every
//!   shard pauses at, and fault plans are split along shard boundaries
//!   ([`parsched_machine::FaultPlan::slice_for_range`]) so each declared
//!   fault is seeded exactly once, by its owner.
//!
//! Uncoordinated time-sharing of a fault-free batch has nothing to
//! coordinate: the whole batch is prefilled, the queue is never active,
//! there is no wakeup and the horizon is `SimTime::MAX`, so every shard
//! runs its engine to the end in the first round and the leader finishes
//! the run.
//!
//! A sharded run reproduces the sequential run's observables — per-job
//! response times, makespan, machine counters, events processed — *bit
//! for bit*; the differential oracle sweeps assert exactly that. The
//! sequential path is one `Run` over the whole plan, merged as a single
//! shard. `K ≤ 1` takes it, and so, with the reason in
//! [`ShardedRunResult::fallback`], do configurations whose global order
//! is not locally derivable (gang rotation ticks, fault plans under a
//! bounded MPL), batches whose placement reaches one shard, and
//! coordinated runs that abort (a same-instant cross-shard queue pop).

use crate::driver::{CoordGrant, CoordRequest, Driver};
use crate::experiment::{ExperimentConfig, Run, RunError};
use crate::policy::{Discipline, PolicyKind};
use parsched_des::{RunOutcome, SimDuration, SimTime, Summary};
use parsched_machine::{Counters, JobSpec, Machine, SystemNet};
use parsched_topology::{PartitionPlan, ShardPlan};
use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier, Mutex, MutexGuard};
use std::time::Instant;

/// Output of one (possibly sharded) run: the observables a sequential run
/// of the same configuration and batch produces bit-identically.
#[derive(Debug, Clone)]
pub struct ShardedRunResult {
    /// Per-job response times in global submission order.
    pub response_times: Vec<SimDuration>,
    /// Summary of the response times (seconds).
    pub summary: Summary,
    /// Completion time of the whole batch (the latest shard clock).
    pub makespan: SimDuration,
    /// Machine-wide counters summed across shards.
    pub counters: Counters,
    /// Engine events processed, summed across shards.
    pub events: u64,
    /// Shards actually used (1 = the sequential path ran).
    pub shards: usize,
    /// Why the run took the sequential path although `K ≥ 2` was asked:
    /// the configuration, the placement or the coordination's abort.
    pub fallback: Option<&'static str>,
    /// Wall-clock phase breakdown per shard (simulation work vs. barrier
    /// waits vs. the leader's coordination). Empty on the sequential
    /// path. Host timing, not simulation state: excluded from
    /// [`ShardedRunResult::fingerprint`].
    pub timings: Vec<ShardTiming>,
}

/// Wall-clock breakdown of one shard thread's run, for diagnosing where a
/// sharded run spends its time: building and tearing down its machine
/// (`build_ns`), simulating (`work_ns`), waiting at the round barriers
/// (`barrier_ns`), or coordinating as the leader (`merge_ns`), plus the
/// size of the machine the shard simulated (`nodes`) and how much of it
/// the shard's run built (`built_nodes`). Wall-clock and shape only — it
/// never feeds a simulated result or a fingerprint.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ShardTiming {
    /// Time spent in the shard's own part of each round: applying grants,
    /// running its engine to the horizon and publishing its report.
    pub work_ns: u64,
    /// Time spent waiting at the two barriers of each round.
    pub barrier_ns: u64,
    /// Time spent in the leader's round (serving requests, advancing the
    /// horizon, deciding termination): shard 0's; 0 on every other shard.
    pub merge_ns: u64,
    /// Time spent building the shard's driver and engine on its own
    /// thread, and dropping them there at the end.
    pub build_ns: u64,
    /// Processors in the shard's machine.
    pub nodes: usize,
    /// Processors whose state the shard's run built by the end: the
    /// partitions its jobs and faults reached.
    pub built_nodes: usize,
}

fn fnv(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

impl ShardedRunResult {
    /// Mean response time in seconds — the paper's performance metric.
    pub fn mean_response(&self) -> f64 {
        self.summary.mean
    }

    /// FNV-1a digest of the run's observables (response times, makespan,
    /// counters, events). Two runs of the same scenario — sequential or
    /// sharded, any shard count, any thread interleaving — must digest
    /// identically; the determinism property tests compare these.
    pub fn fingerprint(&self) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for d in &self.response_times {
            h = fnv(h, &d.nanos().to_le_bytes());
        }
        h = fnv(h, &self.makespan.nanos().to_le_bytes());
        h = fnv(h, format!("{:?}", self.counters).as_bytes());
        h = fnv(h, &self.events.to_le_bytes());
        h
    }
}

/// Can `config` run sharded? `Err` names the global coupling that forces
/// the sequential path:
///
/// * gang scheduling's rotation ticks synchronize a partition's jobs on a
///   schedule the pause protocol cannot reproduce;
/// * a fault plan under a bounded MPL interleaves requeues with queue pops
///   in an order that is not locally derivable;
/// * a crash at t = 0 would have to precede the arrival admissions it must
///   follow;
/// * grants seed admissions into a paused engine, which is only safe when
///   the job's load lands strictly later (`job_load_latency > 0`); a run
///   that can raise no request (no queue, no faults) is exempt;
/// * a single partition cannot be cut (shards respect partition
///   granularity — one partition shares one interconnect and one queue).
///
/// Open arrivals are rejected at the entry point ([`run_batch_sharded`]
/// takes a closed batch); an arrival-time admission also depends on the
/// global load picture.
pub fn shard_eligibility(config: &ExperimentConfig) -> Result<(), &'static str> {
    eligibility(config, config.try_plan().ok().as_ref())
}

/// [`shard_eligibility`] over the call's partition plan (`None` when the
/// configuration has no realizable plan), so a sharded call builds its
/// plan once.
fn eligibility(
    config: &ExperimentConfig,
    plan: Option<&PartitionPlan>,
) -> Result<(), &'static str> {
    if matches!(config.discipline, Discipline::Gang { .. }) {
        return Err("gang scheduling: rotation ticks couple partitions");
    }
    let faults = &config.machine.faults;
    let queued = config.policy == PolicyKind::Static || config.mpl.is_some();
    if !faults.is_empty() {
        if queued {
            return Err(
                "fault plan under a bounded MPL: requeues and queue pops interleave globally",
            );
        }
        if faults.crashes.iter().any(|c| c.at == SimTime::ZERO) {
            return Err("a crash at t = 0 would precede the arrivals it must follow");
        }
    }
    let requests = queued || !faults.is_empty();
    if requests && config.machine.job_load_latency == SimDuration::ZERO {
        return Err("zero-latency job loads: a granted admission would race same-instant starts");
    }
    match plan {
        None => Err("unrealizable partition plan"),
        Some(plan) if plan.count() < 2 => {
            Err("single partition: shards cannot cut below partition granularity")
        }
        Some(_) => Ok(()),
    }
}

/// A sensible shard cap for `config` on this host: one shard per
/// partition, capped by available parallelism and 8 (barrier costs grow
/// with width faster than these closed batches can amortize).
/// [`run_batch_sharded`] starts threads only for the shards its batch's
/// t = 0 placement reaches, and runs sequentially when that is one.
pub fn default_shards(config: &ExperimentConfig) -> usize {
    let parts = config.system_size / config.partition_size.max(1);
    let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    parts.min(cpus).clamp(1, 8)
}

/// How many of `jobs` the sequential t = 0 admission places on
/// `partitions` partitions: it fills every partition up to its execution +
/// prefetch capacity round-robin (job `i` → partition `i mod P`) and
/// queues the rest FCFS. The MPL defaults to 1 under the static policy and
/// to unbounded under time-sharing; the driver's default prefetch depth is
/// 1 (double buffering). Both the shard cut and the leader's precomputed
/// admission read this one value.
fn prefill(config: &ExperimentConfig, partitions: usize, jobs: usize) -> usize {
    let mpl = config.mpl.unwrap_or(match config.policy {
        PolicyKind::Static => 1,
        PolicyKind::TimeSharing => usize::MAX,
    });
    let cap = mpl.saturating_add(1);
    jobs.min(partitions.saturating_mul(cap))
}

/// The sequential path: the run lifecycle ([`Run`]) over the whole
/// plan, merged as the one shard, with no timings and the `fallback`
/// reason.
fn run_sequential(
    config: &ExperimentConfig,
    plan: PartitionPlan,
    batch: Vec<JobSpec>,
    fallback: Option<&'static str>,
) -> Result<ShardedRunResult, RunError> {
    let n = batch.len();
    let run = Run::build(config, plan, batch, None, |_| {}).complete(None)?;
    let merged = merge(vec![ShardOut::finish(run, ShardTiming::default())], n)?;
    Ok(ShardedRunResult {
        fallback,
        timings: Vec::new(),
        ..merged
    })
}

/// Execute one closed-batch run of `config`, sharded over at most `shards`
/// threads when the configuration is eligible ([`shard_eligibility`]);
/// otherwise run sequentially and record why. The observables are
/// bit-identical either way.
///
/// `shards` is a cap. The t = 0 placement puts job `i` on partition
/// `i mod P`, so it reaches partitions `0..min(prefill, P)`; under the
/// contiguous cut ([`ShardPlan::contiguous`]) the shards after the last one
/// it reaches would get no job. They fold into that last reached shard
/// ([`ShardPlan::fold_after`]), which then also owns the idle tail, so a
/// crash on a tail node or a requeue onto a tail partition still has an
/// owner, and lazy construction builds none of it until then. A batch
/// larger than the prefill reaches every partition and keeps all `shards`.
/// When the placement reaches only one shard, or the batch is empty, the
/// run is sequential and [`ShardedRunResult::fallback`] says so;
/// [`ShardedRunResult::shards`] is the count actually used.
pub fn run_batch_sharded(
    config: &ExperimentConfig,
    batch: Vec<JobSpec>,
    shards: usize,
) -> Result<ShardedRunResult, RunError> {
    let plan = Run::prepare(config, &batch, None)?;
    if shards <= 1 {
        return run_sequential(config, plan, batch, None);
    }
    if let Err(reason) = eligibility(config, Some(&plan)) {
        return run_sequential(config, plan, batch, Some(reason));
    }
    let p = plan.count();
    let prefill = prefill(config, p, batch.len());
    let reached = prefill.min(p);
    let cut = ShardPlan::contiguous(p, shards);
    if reached == 0 || cut.shard_of(reached - 1) == 0 {
        let reason = "the batch's t = 0 placement reaches at most one shard";
        return run_sequential(config, plan, batch, Some(reason));
    }
    run_coordinated(config, batch, plan, &cut.fold_after(reached - 1), prefill)
}

/// Build and start ([`Run::start`]) shard `s` on the calling (shard)
/// thread: a driver over a machine of only the partitions it owns,
/// renumbered from 0 — the sub-network ([`SystemNet::for_partitions`]),
/// the matching sub-plan and the shard's slice of the fault plan —
/// enrolled in the leader protocol with its `members` (global batch index
/// and load floor, `None` while queued). Everything that depends on the
/// whole machine's numbering is fixed here, at construction: placement
/// staggering reads the global batch index, and the drop lottery the
/// machine-wide channel index (`SystemNet::channel_base`).
fn start_shard(
    config: &ExperimentConfig,
    plan: &PartitionPlan,
    shard_plan: &ShardPlan,
    s: usize,
    specs: &Arc<Vec<JobSpec>>,
    members: &[(usize, Option<SimTime>)],
    queue_active: &Arc<AtomicBool>,
) -> Run {
    let parts = shard_plan.range_of(s);
    let nodes = plan.node_range(parts.clone());
    let id = |n: usize| u32::try_from(n).expect("processor index fits u32");
    let mut mc = config.machine.clone();
    mc.faults = config
        .machine
        .faults
        .slice_for_range(id(nodes.start)..id(nodes.end));
    let machine = Machine::new(mc, SystemNet::for_partitions(plan, parts.clone()));
    let batch = members.iter().map(|&(i, _)| specs[i].clone()).collect();
    let driver = Driver::for_config(config, machine, plan.sub_plan(parts), batch)
        .with_coordination(
            queue_active.clone(),
            specs.clone(),
            shard_plan.partitions_of(s),
            members,
        );
    Run::start(config, driver)
}

/// What a shard thread hands back once its machine is gone.
struct ShardOut {
    /// `(global batch index, response time)` of every job the shard owns
    /// at the end; empty when it left work unfinished.
    responses: Vec<(usize, SimDuration)>,
    counters: Counters,
    events: u64,
    now: SimTime,
    /// The driver's stall diagnosis, when the shard left work unfinished.
    unfinished: Option<String>,
    timing: ShardTiming,
}

impl ShardOut {
    /// Summarize a shard, then drop its driver (machine included) and
    /// engine on the calling thread, timing the teardown as construction.
    fn finish(Run { driver, engine }: Run, mut timing: ShardTiming) -> ShardOut {
        let done = driver.all_done();
        let machine = &driver.machine;
        timing.nodes = machine.net().nodes();
        timing.built_nodes = machine.built_partitions() * machine.net().partition_size();
        let mut out = ShardOut {
            responses: if done {
                driver.owned_responses()
            } else {
                Vec::new()
            },
            counters: driver.machine.counters.clone(),
            events: engine.events_processed(),
            now: engine.now(),
            unfinished: (!done).then(|| driver.diagnose()),
            timing,
        };
        let t = Instant::now();
        drop((driver, engine));
        out.timing.build_ns += t.elapsed().as_nanos() as u64;
        out
    }
}

/// Run `body(s)` for every shard `s < k`, each on its own scoped thread,
/// and collect the results in shard order. A panicking shard re-raises
/// its panic here, after every thread has joined.
fn in_shard_threads<T: Send>(k: usize, body: impl Fn(usize) -> T + Sync) -> Vec<T> {
    std::thread::scope(|scope| {
        let body = &body;
        let handles: Vec<_> = (0..k).map(|s| scope.spawn(move || body(s))).collect();
        handles
            .into_iter()
            .map(|h| h.join().unwrap_or_else(|payload| resume_unwind(payload)))
            .collect()
    })
}

/// Merge the shards' outputs into the run's observables: responses by
/// global batch index, counters and events summed, the latest clock as the
/// makespan. A shard that left work unfinished makes the run an error
/// carrying every unfinished shard's diagnosis.
fn merge(outs: Vec<ShardOut>, n: usize) -> Result<ShardedRunResult, RunError> {
    if outs.iter().any(|o| o.unfinished.is_some()) {
        let mut diagnosis = String::new();
        for (s, out) in outs.iter().enumerate() {
            if let Some(d) = &out.unfinished {
                diagnosis.push_str(&format!("shard {s}:\n{d}\n"));
            }
        }
        return Err(RunError {
            outcome: Some(RunOutcome::Drained),
            diagnosis,
        });
    }
    let shards = outs.len();
    let mut response_times = vec![SimDuration::ZERO; n];
    let mut seen = vec![false; n];
    let mut counters = Counters::default();
    let mut events = 0u64;
    let mut makespan = SimTime::ZERO;
    let mut timings = Vec::with_capacity(shards);
    for out in outs {
        for (g, d) in out.responses {
            debug_assert!(!seen[g], "two shards report the same job");
            seen[g] = true;
            response_times[g] = d;
        }
        counters.absorb(&out.counters);
        events += out.events;
        makespan = makespan.max(out.now);
        timings.push(out.timing);
    }
    debug_assert!(
        seen.iter().all(|&done| done),
        "every job reported exactly once"
    );
    let summary = Summary::of_durations(&response_times);
    Ok(ShardedRunResult {
        response_times,
        summary,
        makespan: makespan.since(SimTime::ZERO),
        counters,
        events,
        shards,
        fallback: None,
        timings,
    })
}

/// What one shard publishes to the leader at the end of each round.
#[derive(Debug, Clone, Default)]
struct Report {
    /// The shard's engine clock after its run slice.
    now: SimTime,
    /// Pending-event set is empty.
    drained: bool,
    /// Every owned entry finished (or was released to another shard).
    done: bool,
    /// The shard's engine hit its event budget.
    budget_hit: bool,
    /// `(global partition id, assigned-job count, alive)` per partition.
    loads: Vec<(usize, usize, bool)>,
}

/// Leader-owned coordination state, shared under one mutex.
struct Ctrl {
    /// Current run horizon: the next wakeup instant (shards pause there so
    /// requeue grants always target clocks at the same instant), `MAX`
    /// once exhausted — and from the start, for fault-free runs.
    horizon: SimTime,
    /// Per-shard requests raised and not yet served. All requests of one
    /// shard share one instant (the shard pauses at its first decision).
    outstanding: Vec<Vec<CoordRequest>>,
    /// The global FCFS queue: batch indices not admitted at t = 0.
    pending: VecDeque<usize>,
    /// End of the host-link load chain granted so far (nanoseconds) — the
    /// sequential machine's `loader_free_at`, mirrored.
    loader_clock: u64,
    /// Sorted, deduplicated declared crash instants.
    crash_times: Vec<SimTime>,
    /// Future wakeup instants the horizon walks through: declared crashes
    /// plus crash-exposed load completions (a job shipped onto a partition
    /// whose node dies mid-load fails at the *completion* instant, not the
    /// crash instant — `finish_load` checks the dead flags then).
    wakeups: std::collections::BTreeSet<SimTime>,
    /// Crash-exposed load-completion instants ever scheduled (kept after
    /// the horizon passes them): a cross-shard tie at one of these is not
    /// orderable by the crash sort, even when it collides with a declared
    /// crash instant.
    exposed: std::collections::BTreeSet<SimTime>,
    /// Earliest declared crash instant per global partition (`MAX` where
    /// none): a load completing at or after this on that partition fails
    /// there and then.
    min_crash: Vec<SimTime>,
    /// Leader decided the run is over (all done or aborting).
    finished: bool,
    /// Deterministic bail-out to the sequential path, with the reason.
    abort: Option<&'static str>,
    /// Consecutive rounds without requests served, a horizon advance, or
    /// termination — a protocol-bug backstop.
    stall: u32,
}

/// Lock, riding through poisoning: a panicked peer already routed its
/// payload through the panic box, and the leader aborts the run.
fn lk<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// One leader pass between the barriers: ingest reports, serve the
/// globally-first batch of requests, advance the crash horizon, decide
/// termination.
#[allow(clippy::too_many_arguments)]
fn leader_round(
    ctrl: &Mutex<Ctrl>,
    reports: &[Mutex<Report>],
    grants: &[Mutex<Vec<CoordGrant>>],
    queue_active: &AtomicBool,
    specs: &[JobSpec],
    config: &ExperimentConfig,
    shard_plan: &ShardPlan,
    partitions: usize,
) {
    let mut c = lk(ctrl);
    if c.abort.is_some() {
        c.finished = true;
        return;
    }
    let reps: Vec<Report> = reports.iter().map(|m| lk(m).clone()).collect();
    if reps.iter().any(|r| r.budget_hit) {
        c.abort = Some("a shard exhausted its event budget");
        c.finished = true;
        return;
    }
    let k = reps.len();
    let mut progressed = false;

    // Serve the globally-first shard batch: the shard whose first
    // outstanding request has the least (time, partition) key. Contiguous
    // shard cuts make partition order and shard order agree, so serving
    // one whole same-instant batch per round reproduces the sequential
    // global order.
    let s_star = (0..k)
        .filter(|&s| !c.outstanding[s].is_empty())
        .min_by_key(|&s| {
            let r = &c.outstanding[s][0];
            (r.time(), r.part())
        });
    if let Some(s) = s_star {
        let t_star = c.outstanding[s][0].time();
        // A same-instant decision on another shard is only orderable when
        // both are crash-driven requeues: `seed_faults` sorts crashes by
        // (time, node), so the sequential order is partition order, which
        // the (time, part) key serves exactly. Anything else (a queue-pop
        // tie, or a dynamic-time failure coinciding) has a sequential
        // order determined by event seq history no shard can see.
        let tied =
            (0..k).any(|o| o != s && c.outstanding[o].first().is_some_and(|r| r.time() == t_star));
        if tied {
            let crash_instant =
                c.crash_times.binary_search(&t_star).is_ok() && !c.exposed.contains(&t_star);
            let all_requeues = (0..k).all(|o| {
                c.outstanding[o]
                    .iter()
                    .all(|r| r.time() != t_star || matches!(r, CoordRequest::Requeue { .. }))
            });
            if !(crash_instant && all_requeues) {
                c.abort =
                    Some("same-instant cross-shard scheduler decisions have no derivable order");
                c.finished = true;
                return;
            }
        }
        let batch = std::mem::take(&mut c.outstanding[s]);
        debug_assert!(batch.iter().all(|r| r.time() == t_star));
        // Global load lens for requeue targeting: every shard's published
        // per-partition view, plus the grants issued within this batch.
        let mut view = vec![(0usize, false); partitions];
        for r in &reps {
            for &(gid, len, alive) in &r.loads {
                view[gid] = (len, alive);
            }
        }
        for req in batch {
            match req {
                CoordRequest::Pop { time, part } => {
                    let Some(g) = c.pending.pop_front() else {
                        // The queue drained since the shard paused: the
                        // sequential completion would find it empty too.
                        continue;
                    };
                    let floor = SimTime(time.nanos().max(c.loader_clock));
                    c.loader_clock = floor.nanos()
                        + config
                            .machine
                            .load_duration(specs[g].effective_ship_bytes())
                            .nanos();
                    lk(&grants[s]).push(CoordGrant::Admit {
                        time,
                        global_idx: g,
                        part,
                        floor,
                        failures: 0,
                    });
                    view[part].0 += 1;
                    // Deferred entries are registered on shard 0; an
                    // admission elsewhere migrates them.
                    if s != 0 {
                        lk(&grants[0]).push(CoordGrant::Release { global_idx: g });
                    }
                    if c.pending.is_empty() {
                        // No shard may raise (or hold) a pop once the
                        // queue is dry: clear stale ones as no-ops before
                        // anyone resumes.
                        queue_active.store(false, Ordering::Relaxed);
                        for o in 0..k {
                            c.outstanding[o].retain(|r| !matches!(r, CoordRequest::Pop { .. }));
                        }
                    }
                }
                CoordRequest::Requeue {
                    time,
                    global_idx,
                    from_part: _,
                    failures,
                } => {
                    // The grant seeds an admission at `time` and reads the
                    // load lens as of `time`: both are invalid once any
                    // other shard's clock passed it (dynamic-time failures
                    // between crash horizons land here — deterministically,
                    // so the sequential rerun is bit-faithful).
                    if (0..k).any(|o| o != s && reps[o].now > time) {
                        c.abort = Some("a requeue instant already passed on another shard");
                        c.finished = true;
                        return;
                    }
                    // Sequential re-placement: least-loaded alive
                    // partition, ties to the lowest index.
                    let target = (0..partitions)
                        .filter(|&q| view[q].1)
                        .min_by_key(|&q| view[q].0);
                    let Some(q) = target else {
                        c.abort = Some("no alive partition can take a requeued job");
                        c.finished = true;
                        return;
                    };
                    view[q].0 += 1;
                    let floor = SimTime(time.nanos().max(c.loader_clock));
                    c.loader_clock = floor.nanos()
                        + config
                            .machine
                            .load_duration(specs[global_idx].effective_ship_bytes())
                            .nanos();
                    // A grant onto a partition with a pending crash fails
                    // again at load completion — an instant no declared
                    // horizon covers. Schedule it as a wakeup so every
                    // shard pauses there; if a shard's clock already
                    // passed it, the requeue it will raise is unservable.
                    let completion = SimTime(c.loader_clock);
                    if c.min_crash[q] <= completion {
                        if reps.iter().any(|r| r.now > completion) {
                            c.abort =
                                Some("a crash-exposed load grant lands in another shard's past");
                            c.finished = true;
                            return;
                        }
                        c.exposed.insert(completion);
                        c.wakeups.insert(completion);
                        if completion < c.horizon {
                            c.horizon = completion;
                        }
                    }
                    let owner = shard_plan.shard_of(q);
                    lk(&grants[owner]).push(CoordGrant::Admit {
                        time,
                        global_idx,
                        part: q,
                        floor,
                        failures,
                    });
                    if owner != s {
                        lk(&grants[s]).push(CoordGrant::Release { global_idx });
                    }
                }
            }
        }
        progressed = true;
    } else {
        // Nothing outstanding: every shard ran to the horizon (or
        // drained). Advance past the current wakeup instant, or finish.
        while c.wakeups.first().is_some_and(|&t| t <= c.horizon) {
            c.wakeups.pop_first();
        }
        let next = c.wakeups.first().copied().unwrap_or(SimTime::MAX);
        if next != c.horizon {
            c.horizon = next;
            progressed = true;
        }
        if reps.iter().all(|r| r.done && r.drained) {
            c.finished = true;
            return;
        }
    }

    if progressed {
        c.stall = 0;
    } else {
        c.stall += 1;
        if c.stall >= 3 {
            c.abort = Some("coordination made no progress");
            c.finished = true;
        }
    }
}

/// The sharded runner: shards pause at global scheduler decisions and a
/// barrier-round leader serves them in the sequential global order.
///
/// The first `prefill` jobs are the sequential t = 0 admission ([`prefill`]):
/// that prefix (the whole batch under an unbounded MPL) is precomputable,
/// and the leftovers defer to the leader's queue.
fn run_coordinated(
    config: &ExperimentConfig,
    batch: Vec<JobSpec>,
    plan: PartitionPlan,
    shard_plan: &ShardPlan,
    prefill: usize,
) -> Result<ShardedRunResult, RunError> {
    let p = plan.count();
    let k = shard_plan.shards;
    let n = batch.len();

    // Earliest declared crash per partition: a load completing at or after
    // it on that partition is wasted — the job fails at the completion
    // instant, which must therefore be a coordination wakeup.
    let mut min_crash = vec![SimTime::MAX; p];
    for cr in &config.machine.faults.crashes {
        for (q, part) in plan.partitions.iter().enumerate() {
            if part.contains(cr.node as usize) {
                min_crash[q] = min_crash[q].min(cr.at);
            }
        }
    }

    // Host-link serialization of the prefilled loads: job i's load starts
    // once loads 0..i are done. Prefilled jobs live with the shard owning
    // their partition, with that floor; deferred jobs register their
    // arrival on shard 0 and migrate on admission. The leader's clock
    // picks up where the prefix chain ends and floors every granted
    // admission after it.
    let mut members_of: Vec<Vec<(usize, Option<SimTime>)>> = vec![Vec::new(); k];
    let mut exposed = std::collections::BTreeSet::new();
    let mut at = 0u64;
    for (i, spec) in batch[..prefill].iter().enumerate() {
        members_of[shard_plan.shard_of(i % p)].push((i, Some(SimTime(at))));
        at += config
            .machine
            .load_duration(spec.effective_ship_bytes())
            .nanos();
        if min_crash[i % p] <= SimTime(at) {
            exposed.insert(SimTime(at));
        }
    }
    members_of[0].extend((prefill..n).map(|i| (i, None)));

    let specs = Arc::new(batch);
    let queue_active = Arc::new(AtomicBool::new(prefill < n));

    let mut crash_times: Vec<SimTime> =
        config.machine.faults.crashes.iter().map(|c| c.at).collect();
    crash_times.sort_unstable();
    crash_times.dedup();
    let wakeups: std::collections::BTreeSet<SimTime> = crash_times
        .iter()
        .copied()
        .chain(exposed.iter().copied())
        .collect();
    let ctrl = Mutex::new(Ctrl {
        horizon: wakeups.first().copied().unwrap_or(SimTime::MAX),
        outstanding: vec![Vec::new(); k],
        pending: (prefill..n).collect(),
        loader_clock: at,
        crash_times,
        wakeups,
        exposed,
        min_crash,
        finished: false,
        abort: None,
        stall: 0,
    });
    let reports: Vec<Mutex<Report>> = (0..k).map(|_| Mutex::new(Report::default())).collect();
    let grants: Vec<Mutex<Vec<CoordGrant>>> = (0..k).map(|_| Mutex::new(Vec::new())).collect();
    let barrier = Barrier::new(k);
    let panic_box: Mutex<Option<Box<dyn std::any::Any + Send>>> = Mutex::new(None);
    // Keep a shard's panic payload for the caller and abort the run. The
    // panicking shard keeps meeting the barriers with nothing to run.
    let aborted_by = |payload, why| {
        lk(&panic_box).get_or_insert(payload);
        let mut c = lk(&ctrl);
        c.abort.get_or_insert(why);
        c.finished = true;
    };

    // Each shard builds its driver on its own thread before its first
    // round. No shard reads another's state before the first barrier, so
    // this leaves the protocol unchanged; a panic while building takes the
    // same abort path as one while running.
    let shard_results: Vec<Option<ShardOut>> = in_shard_threads(k, |s| {
        let t_build = Instant::now();
        let mut shard = catch_unwind(AssertUnwindSafe(|| {
            start_shard(
                config,
                &plan,
                shard_plan,
                s,
                &specs,
                &members_of[s],
                &queue_active,
            )
        }))
        .map_err(|payload| aborted_by(payload, "a shard thread panicked"))
        .ok();
        let mut timing = ShardTiming {
            build_ns: t_build.elapsed().as_nanos() as u64,
            ..ShardTiming::default()
        };
        loop {
            let t_work = Instant::now();
            let round = catch_unwind(AssertUnwindSafe(|| {
                let Some(run) = shard.as_mut() else {
                    return;
                };
                let (my_grants, may_run, horizon) = {
                    let c = lk(&ctrl);
                    (
                        std::mem::take(&mut *lk(&grants[s])),
                        c.outstanding[s].is_empty(),
                        c.horizon,
                    )
                };
                run.engine
                    .between_runs(|sched| run.driver.apply_grants(&my_grants, sched));
                let outcome = may_run.then(|| run.until(horizon));
                let Run { driver, engine } = run;
                let requests = driver.take_requests();
                if !requests.is_empty() {
                    lk(&ctrl).outstanding[s].extend(requests);
                }
                *lk(&reports[s]) = Report {
                    now: engine.now(),
                    drained: engine.pending() == 0,
                    done: driver.all_done(),
                    budget_hit: outcome == Some(RunOutcome::BudgetExhausted),
                    loads: driver.partition_loads(),
                };
            }));
            if let Err(payload) = round {
                // The shard's state is broken mid-event: drop it rather
                // than summarize it.
                shard = None;
                aborted_by(payload, "a shard thread panicked");
            }
            timing.work_ns += t_work.elapsed().as_nanos() as u64;
            let t_bar = Instant::now();
            barrier.wait();
            timing.barrier_ns += t_bar.elapsed().as_nanos() as u64;
            if s == 0 {
                let t_merge = Instant::now();
                let led = catch_unwind(AssertUnwindSafe(|| {
                    leader_round(
                        &ctrl,
                        &reports,
                        &grants,
                        &queue_active,
                        &specs,
                        config,
                        shard_plan,
                        p,
                    );
                }));
                if let Err(payload) = led {
                    aborted_by(payload, "the coordination leader panicked");
                }
                timing.merge_ns += t_merge.elapsed().as_nanos() as u64;
            }
            let t_bar = Instant::now();
            barrier.wait();
            timing.barrier_ns += t_bar.elapsed().as_nanos() as u64;
            if lk(&ctrl).finished {
                break;
            }
        }
        shard.map(|run| ShardOut::finish(run, timing))
    });

    if let Some(payload) = lk(&panic_box).take() {
        resume_unwind(payload);
    }
    if let Some(reason) = lk(&ctrl).abort {
        // Every shard dropped its driver, so the batch is usually ours
        // alone again and comes back without a copy.
        return run_sequential(config, plan, Arc::unwrap_or_clone(specs), Some(reason));
    }
    // A shard that panicked resumed its panic above.
    merge(shard_results.into_iter().flatten().collect(), n)
}

#[cfg(test)]
mod tests {
    use super::*;
    use parsched_machine::{FaultPlan, LinkWindow, NodeCrash, Op, ProcSpec, Rank, Switching, Tag};
    use parsched_topology::TopologyKind;

    /// 16 nodes in 4-node hypercube partitions under uncoordinated
    /// time-sharing: a sharded run with nothing to coordinate.
    fn eligible_config() -> ExperimentConfig {
        ExperimentConfig::paper(
            4,
            TopologyKind::Hypercube { dim: 0 },
            PolicyKind::TimeSharing,
        )
    }

    /// Jobs of two chatty processes: compute, exchange a message pair,
    /// compute again. Exercises the in-partition network and the host-link
    /// loader (distinct footprints => distinct load durations).
    fn chatty_batch(count: usize) -> Vec<JobSpec> {
        (0..count)
            .map(|i| {
                let ms = 2 + i as u64;
                JobSpec {
                    name: format!("chat{i}"),
                    ship_bytes: 0,
                    procs: vec![
                        ProcSpec {
                            program: vec![
                                Op::Compute(SimDuration::from_millis(ms)),
                                Op::Send {
                                    to: Rank(1),
                                    bytes: 5_000 + 1_000 * i as u64,
                                    tag: Tag(1),
                                },
                                Op::Recv { tag: Tag(2) },
                                Op::Compute(SimDuration::from_millis(1)),
                            ],
                            mem_bytes: 50_000 + 10_000 * i as u64,
                        },
                        ProcSpec {
                            program: vec![
                                Op::Recv { tag: Tag(1) },
                                Op::Send {
                                    to: Rank(0),
                                    bytes: 3_000,
                                    tag: Tag(2),
                                },
                                Op::Compute(SimDuration::from_millis(ms / 2 + 1)),
                            ],
                            mem_bytes: 40_000,
                        },
                    ],
                }
            })
            .collect()
    }

    /// Run `config` over `batch` at `k` shards and assert the observables
    /// are bit-identical to the sequential run `seq`.
    fn run_matching(
        config: &ExperimentConfig,
        batch: &[JobSpec],
        k: usize,
        seq: &ShardedRunResult,
    ) -> ShardedRunResult {
        let par = run_batch_sharded(config, batch.to_vec(), k).unwrap();
        assert_eq!(par.response_times, seq.response_times, "k={k}");
        assert_eq!(par.makespan, seq.makespan, "k={k}");
        assert_eq!(par.counters, seq.counters, "k={k}");
        assert_eq!(par.events, seq.events, "k={k}");
        assert_eq!(par.fingerprint(), seq.fingerprint(), "k={k}");
        assert_eq!(
            par.timings.len(),
            if par.shards > 1 { par.shards } else { 0 },
            "k={k}"
        );
        par
    }

    /// Assert `config` over `batch` is bit-identical between the
    /// sequential path and every shard count in `ks`, each really running
    /// `min(k, partitions)` shards (the batch must reach every partition),
    /// and return the sequential result for further checks.
    fn assert_bit_identical(
        config: &ExperimentConfig,
        batch: &[JobSpec],
        ks: &[usize],
    ) -> ShardedRunResult {
        let seq = run_batch_sharded(config, batch.to_vec(), 1).unwrap();
        assert_eq!(seq.shards, 1);
        let parts = config.system_size / config.partition_size;
        for &k in ks {
            let par = run_matching(config, batch, k, &seq);
            assert_eq!(par.fallback, None, "k={k}");
            assert_eq!(par.shards, k.min(parts), "k={k}");
        }
        seq
    }

    #[test]
    fn eligibility_gate_names_each_coupling() {
        assert_eq!(shard_eligibility(&eligible_config()), Ok(()));

        // Queued policies and fault plans shard too, through the leader.
        let mut c = eligible_config();
        c.policy = PolicyKind::Static;
        assert_eq!(shard_eligibility(&c), Ok(()));

        let mut c = eligible_config();
        c.mpl = Some(2);
        assert_eq!(shard_eligibility(&c), Ok(()));

        let mut c = eligible_config();
        c.machine.faults = FaultPlan {
            crashes: vec![NodeCrash {
                node: 1,
                at: SimTime(5),
            }],
            ..FaultPlan::default()
        };
        assert_eq!(shard_eligibility(&c), Ok(()));

        // Still sequential, each with its reason on record.
        let mut c = eligible_config();
        c.discipline = Discipline::Gang {
            slot: SimDuration::from_millis(4),
        };
        assert!(shard_eligibility(&c).unwrap_err().contains("gang"));

        let mut c = eligible_config();
        c.policy = PolicyKind::Static;
        c.machine.faults = FaultPlan {
            crashes: vec![NodeCrash {
                node: 1,
                at: SimTime(5),
            }],
            ..FaultPlan::default()
        };
        assert!(shard_eligibility(&c).unwrap_err().contains("fault plan"));

        let mut c = eligible_config();
        c.machine.faults = FaultPlan {
            crashes: vec![NodeCrash {
                node: 1,
                at: SimTime::ZERO,
            }],
            ..FaultPlan::default()
        };
        assert!(shard_eligibility(&c).unwrap_err().contains("t = 0"));

        let mut c = eligible_config();
        c.policy = PolicyKind::Static;
        c.machine.job_load_latency = SimDuration::ZERO;
        assert!(shard_eligibility(&c)
            .unwrap_err()
            .contains("zero-latency job loads"));

        let c = ExperimentConfig::paper(16, TopologyKind::Linear, PolicyKind::TimeSharing);
        assert!(shard_eligibility(&c)
            .unwrap_err()
            .contains("single partition"));
    }

    #[test]
    fn sharded_observables_match_sequential_bit_for_bit() {
        assert_bit_identical(&eligible_config(), &chatty_batch(9), &[2, 3, 4, 8]);
    }

    #[test]
    fn static_policy_shards_bit_identically() {
        // 4 partitions, cap 2 (MPL 1 + prefetch 1): 8 prefilled, 4 queued
        // — every pop round-trips through the leader.
        let mut config = eligible_config();
        config.policy = PolicyKind::Static;
        let seq = assert_bit_identical(&config, &chatty_batch(12), &[2, 4, 8]);
        assert!(seq.makespan > SimDuration::ZERO);
    }

    #[test]
    fn mpl_capped_time_sharing_shards_bit_identically() {
        // Hybrid shape: time-sharing under a finite MPL. Cap 3 per
        // partition => 12 prefilled, 2 queued.
        let mut config = eligible_config();
        config.mpl = Some(2);
        assert_bit_identical(&config, &chatty_batch(14), &[2, 4, 8]);
    }

    #[test]
    fn crash_fault_plan_shards_bit_identically() {
        // Crashes land mid-run on two different shards' partitions; the
        // killed jobs requeue through the leader onto the globally
        // least-loaded partition.
        let mut config = eligible_config();
        config.machine.faults = FaultPlan {
            crashes: vec![
                NodeCrash {
                    node: 1,
                    at: SimTime(120_000_000),
                },
                NodeCrash {
                    node: 13,
                    at: SimTime(200_000_000),
                },
            ],
            ..FaultPlan::default()
        };
        let seq = assert_bit_identical(&config, &chatty_batch(9), &[2, 3, 4]);
        assert!(
            seq.counters.jobs_requeued > 0,
            "the crashes must actually kill and requeue work"
        );
    }

    #[test]
    fn flaky_link_fault_plan_shards_bit_identically() {
        // A link outage window plus probabilistic corruption: retries and
        // retransmissions stay shard-local (per-channel drop streams), so
        // the run coordinates only if a job actually dies.
        let mut config = eligible_config();
        config.machine.faults = FaultPlan {
            links: vec![LinkWindow {
                from: 0,
                to: 1,
                down_at: SimTime(60_000_000),
                up_at: SimTime(90_000_000),
            }],
            drop_prob: 0.05,
            drop_seed: 11,
            ..FaultPlan::default()
        };
        let seq = assert_bit_identical(&config, &chatty_batch(8), &[2, 4]);
        assert_eq!(seq.counters.jobs_requeued, 0, "nobody should die here");
    }

    /// 32 nodes in eight 4-node hypercube partitions, so K = 8 really
    /// runs eight shards, under the given switching mode.
    fn eight_partition_config(switching: Switching) -> ExperimentConfig {
        let mut config = ExperimentConfig {
            system_size: 32,
            ..eligible_config()
        };
        config.machine.switching = switching;
        config
    }

    const SWITCHINGS: [Switching; 2] = [Switching::StoreAndForward, Switching::Wormhole];

    /// Shard machines number channels from 0, but each channel's drop
    /// lottery must stay keyed by its machine-wide index: every shard
    /// count must corrupt exactly the transfers the sequential run does.
    #[test]
    fn drop_lottery_survives_shard_renumbering() {
        for switching in SWITCHINGS {
            let mut config = eight_partition_config(switching);
            config.machine.faults = FaultPlan {
                drop_prob: 0.25,
                drop_seed: 5,
                ..FaultPlan::default()
            };
            config.machine.faults.retry.max_retries = 16;
            let seq = assert_bit_identical(&config, &chatty_batch(16), &[2, 3, 4, 8]);
            assert!(
                seq.counters.retries > 0,
                "{switching:?}: the lottery must fire"
            );
        }
    }

    /// A crash and a link window on the last shard's processors reach that
    /// shard renumbered to its own machine, at every shard count.
    #[test]
    fn last_shard_faults_survive_shard_renumbering() {
        for switching in SWITCHINGS {
            let mut config = eight_partition_config(switching);
            config.machine.faults = FaultPlan {
                crashes: vec![NodeCrash {
                    node: 29,
                    at: SimTime(592_000_000),
                }],
                links: vec![LinkWindow {
                    from: 28,
                    to: 29,
                    down_at: SimTime(580_000_000),
                    up_at: SimTime(620_000_000),
                }],
                ..FaultPlan::default()
            };
            let seq = assert_bit_identical(&config, &chatty_batch(16), &[2, 3, 4, 8]);
            assert_eq!(seq.counters.node_crashes, 1, "{switching:?}");
            assert!(seq.counters.link_downs > 0, "{switching:?}");
            assert!(
                seq.counters.jobs_requeued > 0,
                "{switching:?}: the crash must kill work"
            );
        }
    }

    #[test]
    fn sharded_matches_run_batch_front_door() {
        let config = eligible_config();
        let batch = chatty_batch(6);
        let front = crate::experiment::run_batch(&config, batch.clone()).unwrap();
        let par = run_batch_sharded(&config, batch, 4).unwrap();
        assert_eq!(par.response_times, front.response_times);
        assert_eq!(par.makespan, front.makespan);
        assert_eq!(par.events, front.events);
    }

    /// A job with no processes is refused by name before any machine is
    /// built: by `run_batch`, sequentially, and at K = 2, where the job
    /// would otherwise reach shard 1's thread.
    #[test]
    fn job_without_processes_is_an_error_not_a_panic() {
        let config = eligible_config();
        let mut batch = chatty_batch(4);
        batch[2].procs.clear();
        let front = crate::experiment::run_batch(&config, batch.clone());
        let errs = [1, 2].map(|k| run_batch_sharded(&config, batch.clone(), k).unwrap_err());
        for err in std::iter::once(front.unwrap_err()).chain(errs) {
            assert_eq!(err.outcome, None);
            assert!(
                err.diagnosis.contains("job 'chat2' has no processes"),
                "{err}"
            );
        }
    }

    /// An MPL of 0 is refused before any driver is built, by `run_batch`
    /// and by the sharded runner sequentially and at K = 2.
    #[test]
    fn zero_mpl_is_an_error_not_a_panic() {
        let config = ExperimentConfig {
            mpl: Some(0),
            ..eligible_config()
        };
        let batch = chatty_batch(4);
        let front = crate::experiment::run_batch(&config, batch.clone());
        let errs = [1, 2].map(|k| run_batch_sharded(&config, batch.clone(), k).unwrap_err());
        for err in std::iter::once(front.unwrap_err()).chain(errs) {
            assert_eq!(err.outcome, None);
            assert!(err.diagnosis.contains("mpl 0"), "{err}");
        }
    }

    /// A send to a rank outside its own job is refused by job, process,
    /// rank and width before it can index past the job's placement.
    #[test]
    fn send_outside_the_job_is_an_error_not_a_panic() {
        let config = eligible_config();
        let mut batch = chatty_batch(4);
        batch[2].procs[1].program[1] = Op::Send {
            to: Rank(99),
            bytes: 64,
            tag: Tag(2),
        };
        let front = crate::experiment::run_batch(&config, batch.clone());
        let errs = [1, 2].map(|k| run_batch_sharded(&config, batch.clone(), k).unwrap_err());
        for err in std::iter::once(front.unwrap_err()).chain(errs) {
            assert_eq!(err.outcome, None);
            assert!(
                err.diagnosis
                    .contains("job 'chat2' process 1 sends to rank 99, outside the job's 2 ranks"),
                "{err}"
            );
        }
    }

    #[test]
    fn ineligible_config_falls_back_with_reason() {
        let mut config = eligible_config();
        config.discipline = Discipline::Gang {
            slot: SimDuration::from_millis(4),
        };
        let batch = chatty_batch(4);
        let r = run_batch_sharded(&config, batch.clone(), 4).unwrap();
        assert_eq!(r.shards, 1);
        assert!(r.fallback.unwrap().contains("gang"));
        let seq = run_batch_sharded(&config, batch, 1).unwrap();
        assert_eq!(r.response_times, seq.response_times);
    }

    /// Two jobs on four partitions land on partitions 0 and 1, both in
    /// shard 0 of the K = 2 cut `[0, 0, 1, 1]`; one job at K = 4 reaches
    /// only shard 0 too. Neither run starts a thread.
    #[test]
    fn placement_reaching_one_shard_runs_sequentially() {
        let config = eligible_config();
        for (jobs, k) in [(2, 2), (1, 4), (2, 3)] {
            let batch = chatty_batch(jobs);
            let seq = run_batch_sharded(&config, batch.clone(), 1).unwrap();
            let r = run_matching(&config, &batch, k, &seq);
            assert_eq!(r.shards, 1, "{jobs} jobs at K={k}");
            assert_eq!(
                r.fallback,
                Some("the batch's t = 0 placement reaches at most one shard"),
                "{jobs} jobs at K={k}"
            );
            assert!(r.timings.is_empty());
        }
    }

    /// Three jobs on four partitions at K = 4: shards 0, 1 and 2 each get
    /// one job, and shard 2 also owns the idle partition 3 that shard 3
    /// would have had. Three jobs on four partitions at K = 2 cut
    /// `[0, 0, 1, 1]` and reach partition 2, so both shards run and shard
    /// 1 keeps its own idle partition 3.
    #[test]
    fn the_last_reached_shard_owns_the_idle_tail() {
        let config = eligible_config();
        let batch = chatty_batch(3);
        let seq = run_batch_sharded(&config, batch.clone(), 1).unwrap();
        // (K, owned nodes per shard, built nodes per shard): a shard
        // builds exactly the partitions its jobs landed on.
        let cases: [(usize, &[usize], &[usize]); 2] =
            [(4, &[4, 4, 8], &[4, 4, 4]), (2, &[8, 8], &[8, 4])];
        for (k, owned, built) in cases {
            let par = run_matching(&config, &batch, k, &seq);
            assert_eq!(par.fallback, None, "k={k}");
            assert_eq!(par.shards, owned.len(), "k={k}");
            let nodes: Vec<usize> = par.timings.iter().map(|t| t.nodes).collect();
            assert_eq!(nodes, owned, "k={k}");
            let made: Vec<usize> = par.timings.iter().map(|t| t.built_nodes).collect();
            assert_eq!(made, built, "k={k}");
        }
    }

    /// Six jobs on eight 4-node partitions reach partitions 0..=5. At
    /// K = 4 the cut `[0, 0, 1, 1, 2, 2, 3, 3]` folds shard 3 into shard
    /// 2, which then owns partitions 4..=7; at K = 8 shard 5 owns 5..=7.
    /// Crashing all of partition 0 while job 0 loads requeues that job
    /// onto the least-loaded alive partition, the idle partition 6: a
    /// folded tail partition at K = 4 and 8, and shard 1's own idle one
    /// at K = 2. The requeue builds it there, so the last shard's built
    /// prefix reaches partition 6.
    #[test]
    fn requeues_onto_the_folded_tail_stay_bit_identical() {
        let mut config = eight_partition_config(Switching::StoreAndForward);
        config.machine.faults = FaultPlan {
            crashes: (0..4)
                .map(|node| NodeCrash {
                    node,
                    at: SimTime(30_000_000),
                })
                .collect(),
            ..FaultPlan::default()
        };
        let batch = chatty_batch(6);
        let seq = run_batch_sharded(&config, batch.clone(), 1).unwrap();
        assert_eq!(
            seq.counters.jobs_requeued, 1,
            "the crash must requeue one job"
        );
        // (K, shards used, partitions before the last shard's first).
        for (k, shards, first) in [(2, 2, 4), (4, 3, 4), (8, 6, 5)] {
            let par = run_matching(&config, &batch, k, &seq);
            assert_eq!(par.fallback, None, "k={k}");
            assert_eq!(par.shards, shards, "k={k}");
            let last = par.timings.last().unwrap();
            assert_eq!(last.nodes, 4 * (8 - first), "k={k}");
            assert_eq!(last.built_nodes, 4 * (6 + 1 - first), "k={k}");
        }
    }

    #[test]
    fn empty_batch_runs_sequentially() {
        let config = eligible_config();
        let seq = run_batch_sharded(&config, Vec::new(), 1).unwrap();
        let r = run_matching(&config, &[], 2, &seq);
        assert_eq!(r.shards, 1);
        assert_eq!(
            r.fallback,
            Some("the batch's t = 0 placement reaches at most one shard")
        );
        assert!(r.response_times.is_empty());
    }

    #[test]
    fn repeated_sharded_runs_are_interleaving_deterministic() {
        let config = eligible_config();
        let batch = chatty_batch(7);
        let first = run_batch_sharded(&config, batch.clone(), 4).unwrap();
        for _ in 0..3 {
            let again = run_batch_sharded(&config, batch.clone(), 4).unwrap();
            assert_eq!(again.fingerprint(), first.fingerprint());
            assert_eq!(again.response_times, first.response_times);
        }
        // The coordinated path must be just as interleaving-proof.
        let mut config = eligible_config();
        config.policy = PolicyKind::Static;
        let first = run_batch_sharded(&config, batch.clone(), 4).unwrap();
        for _ in 0..3 {
            let again = run_batch_sharded(&config, batch.clone(), 4).unwrap();
            assert_eq!(again.fingerprint(), first.fingerprint());
        }
    }

    /// A job whose memory cannot fit panics in `queue_job_with` when its
    /// shard admits it, on the leader (job 0, partition 0) or on shard 1
    /// (job 2, partition 2). The caller must get that panic's payload once
    /// every shard has joined: no hang at a barrier, and no sequential
    /// rerun, which would panic again on the caller's own thread and name
    /// the job's global node rather than the shard's local one.
    #[test]
    fn shard_panics_reach_the_caller_without_deadlock() {
        use std::sync::atomic::AtomicUsize;
        use std::time::Duration;
        const CALLER: &str = "sharded-panic-caller";
        static CALLER_PANICS: AtomicUsize = AtomicUsize::new(0);
        // `resume_unwind` skips the hook, so only a fresh panic on the
        // caller's thread counts. The hook is process-wide: it chains to
        // the previous one and counts only the uniquely named caller, so
        // tests running beside this one are unaffected.
        let prev = Arc::new(std::panic::take_hook());
        let chained = prev.clone();
        std::panic::set_hook(Box::new(move |info| {
            if std::thread::current().name() == Some(CALLER) {
                CALLER_PANICS.fetch_add(1, Ordering::SeqCst);
            }
            chained(info);
        }));
        let mut outcomes = Vec::new();
        for (job, node) in [(0, 0), (2, 0)] {
            let mut batch = chatty_batch(4);
            batch[job].procs[0].mem_bytes = 64 << 20;
            let (tx, rx) = std::sync::mpsc::channel();
            std::thread::Builder::new()
                .name(CALLER.into())
                .spawn(move || {
                    let run = catch_unwind(AssertUnwindSafe(|| {
                        run_batch_sharded(&eligible_config(), batch, 2)
                    }));
                    let message = run.err().map(|payload| {
                        payload
                            .downcast_ref::<String>()
                            .cloned()
                            .unwrap_or_default()
                    });
                    tx.send(message).expect("the test waits for the caller");
                })
                .expect("spawn the caller");
            let message = rx.recv_timeout(Duration::from_secs(60));
            outcomes.push((job, node, message));
        }
        let _ = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| prev(info)));
        for (job, node, message) in outcomes {
            let message = message
                .unwrap_or_else(|_| panic!("job {job}: the sharded run hung"))
                .unwrap_or_else(|| panic!("job {job}: the sharded run did not panic"));
            let want = format!("job 'chat{job}' needs {} B on node {node} but", 64 << 20);
            assert!(message.contains(&want), "job {job}: {message}");
        }
        assert_eq!(
            CALLER_PANICS.load(Ordering::SeqCst),
            0,
            "the run panicked again on the caller's thread"
        );
    }

    #[test]
    fn default_shards_respects_partitions_and_caps() {
        let c = eligible_config(); // 4 partitions
        assert!(default_shards(&c) >= 1);
        assert!(default_shards(&c) <= 4);
        let c = ExperimentConfig::paper(1, TopologyKind::Linear, PolicyKind::TimeSharing);
        assert!(default_shards(&c) <= 8, "16 partitions cap at 8");
    }
}
