//! The hierarchical scheduler (§3.2 of the paper).
//!
//! The paper structures scheduling as a *super scheduler* (global FCFS job
//! queue), one *partition scheduler* per partition (admission), and *local
//! schedulers* per processor (the round-robin quanta executed by the
//! machine's CPUs). [`Driver`] implements the super and partition levels on
//! top of [`Machine`]; the policies differ only in the per-partition
//! multiprogramming limit and the quantum rule:
//!
//! * **static space-sharing** — MPL 1 per partition, default quantum;
//! * **time-sharing / hybrid** — unbounded MPL (the batch spreads
//!   equitably), RR-job quanta.

use crate::experiment::ExperimentConfig;
use crate::policy::{Discipline, Placement, PolicyKind, QuantumRule};
use parsched_des::{EventScheduler, Model, SimDuration, SimTime};

/// `PolicyTick` token tag for job arrivals (low bits = batch index); tokens
/// below this are gang-rotation ticks (partition indices).
const ARRIVAL_TOKEN: u64 = 1 << 32;
use parsched_machine::{Event, JobId, JobSpec, Machine, Note};
use parsched_topology::PartitionPlan;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// One batch entry's lifecycle record.
#[derive(Debug, Clone)]
struct Entry {
    /// The job blueprint; kept (not consumed) so a fault-killed job can be
    /// requeued and rerun under a fresh machine job id.
    spec: JobSpec,
    job_id: Option<JobId>,
    partition: Option<usize>,
    arrival: SimTime,
    finished: Option<SimTime>,
    /// Where the current incarnation stands on its partition.
    stage: Stage,
    /// Times this entry's job was killed by a fault.
    failures: u32,
    /// Terminally given up on after exhausting the requeue budget
    /// (`finished` records the abandonment instant).
    abandoned: bool,
    /// Coordinated sharded runs: the entry sits in the *global* FCFS queue
    /// (held by the coordinator, not this driver's `pending`); its arrival
    /// only registers it, and a [`CoordGrant::Admit`] places it later.
    deferred: bool,
    /// Coordinated sharded runs: a grant re-placed this entry on another
    /// shard; the new owner reports its completion.
    released: bool,
}

/// Where an entry's current incarnation stands on its partition.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Stage {
    /// Not started and not loaded: loading, queued or departed.
    Loading,
    /// Loaded and resident, waiting for an execution slot.
    Ready,
    /// Executing (listed in [`Part::started`]).
    Running,
}

/// Gang-scheduling rotation state for one partition.
#[derive(Debug, Clone, Default)]
struct GangState {
    /// Live jobs (batch indices); the front is the active one.
    rotation: VecDeque<usize>,
    /// A rotation tick is scheduled.
    tick_live: bool,
}

/// One partition's scheduler state, built when its first job is admitted.
/// Besides the member list it keeps the counts that the start and retune
/// paths would otherwise rescan `assigned` for on every event: under
/// time-sharing every admitted job is a member, and an open stream that
/// outruns the host loader leaves hundreds of them waiting for their load.
#[derive(Debug, Clone, Default)]
struct Part {
    /// Batch indices assigned here (loading, ready or running), in
    /// admission order.
    assigned: VecDeque<usize>,
    /// Members at [`Stage::Ready`].
    ready: usize,
    /// Members at [`Stage::Running`], in admission order: the executing
    /// jobs.
    started: Vec<usize>,
    /// Summed `total_compute` (ns) of the members not started: what
    /// `Machine::job_remaining` reports for a job with no processes.
    unstarted_demand: u128,
    /// The dynamic quantum the last retune set; a member that starts
    /// later takes it at its start.
    quantum: SimDuration,
    /// Gang rotation.
    gang: GangState,
}

/// A super-scheduler decision a shard cannot take locally, surfaced to the
/// coordinated sharded runner's leader (see `core::sharded`). The shard
/// records the request, pauses its engine at the triggering instant, and
/// stays paused until the leader answers with [`CoordGrant`]s.
///
/// All partition indices here are **global** (the sequential plan's), not
/// the shard's local sub-plan indices.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CoordRequest {
    /// A completion freed a slot on `part` while the global FCFS queue was
    /// non-empty: pop the queue head and admit it here (the sequential
    /// super scheduler admits the popped job to the completing partition).
    Pop {
        /// The completion instant.
        time: SimTime,
        /// Global partition index of the completing partition.
        part: usize,
    },
    /// A fault killed `global_idx` on `from_part` (`failures` counts the
    /// kill just taken): re-place it on the globally least-loaded alive
    /// partition, exactly as the sequential requeue path would.
    Requeue {
        /// The kill instant.
        time: SimTime,
        /// Global batch index of the killed job.
        global_idx: usize,
        /// Global partition index the job died on.
        from_part: usize,
        /// Failure count including the kill just taken.
        failures: u32,
    },
}

impl CoordRequest {
    /// The simulated instant the request was raised at.
    pub fn time(&self) -> SimTime {
        match *self {
            CoordRequest::Pop { time, .. } | CoordRequest::Requeue { time, .. } => time,
        }
    }

    /// The global partition the request concerns — the cross-shard
    /// tie-break key (partitions are disjoint across shards, so
    /// `(time, part)` totally orders same-instant requests).
    pub fn part(&self) -> usize {
        match *self {
            CoordRequest::Pop { part, .. } => part,
            CoordRequest::Requeue { from_part, .. } => from_part,
        }
    }
}

/// The leader's answer to [`CoordRequest`]s, applied by the destination
/// shard before it resumes. Partition indices are global.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CoordGrant {
    /// Admit global job `global_idx` on global partition `part` at `time`,
    /// with the loader floor the global admission chain dictates.
    /// `failures` carries the entry's failure count across a shard
    /// migration (nonzero exactly for fault requeues).
    Admit {
        /// The admission instant (the granted request's time).
        time: SimTime,
        /// Global batch index of the job to admit.
        global_idx: usize,
        /// Global partition index to admit onto (must be local here).
        part: usize,
        /// Host-link loader floor for the (re)load.
        floor: SimTime,
        /// Failure count to carry onto the (possibly migrated) entry.
        failures: u32,
    },
    /// Forget the local incarnation of `global_idx`: the leader re-placed
    /// it on another shard, whose driver now owns (and reports) it.
    Release {
        /// Global batch index of the job to forget.
        global_idx: usize,
    },
}

/// Per-driver state of the coordinated sharded protocol
/// ([`Driver::with_coordination`]).
struct CoordClient {
    /// Live broadcast: the global FCFS queue is non-empty. Completions
    /// raise [`CoordRequest::Pop`] only while set, mirroring the
    /// sequential "pop on completion" exactly (the leader clears it the
    /// instant the queue drains, before any shard resumes).
    queue_active: Arc<AtomicBool>,
    /// The full global batch, for re-materializing a job spec when a grant
    /// migrates an entry onto this shard.
    specs: Arc<Vec<JobSpec>>,
    /// Global partition id of each local partition, ascending.
    partition_ids: Vec<usize>,
    /// Global batch index of each local entry: placement staggering reads
    /// it, so a shard's sub-batch keeps the sequential run's placements.
    job_indices: Vec<usize>,
    /// Host-link loader floor of each local entry (see
    /// `Machine::set_load_floor`): its loader start in the global
    /// admission order.
    load_floors: Vec<SimTime>,
    /// Global batch index → local entry index (None = not resident here).
    local_of: Vec<Option<usize>>,
    /// Requests raised since the last [`Driver::take_requests`].
    requests: Vec<CoordRequest>,
}

/// The super + partition scheduler driving one machine through one batch.
pub struct Driver {
    /// The machine under control (public for post-run statistics capture).
    pub machine: Machine,
    plan: PartitionPlan,
    policy: PolicyKind,
    rule: QuantumRule,
    placement: Placement,
    /// Maximum jobs *executing* per partition at once.
    mpl: usize,
    /// Extra job loads staged ahead per partition (classic double
    /// buffering: the next job's code/data ships while the current one
    /// runs; its processes only start when an execution slot frees).
    prefetch: usize,
    /// Time-sharing coordination discipline.
    discipline: Discipline,
    /// Per-entry arrival instants (empty = whole batch at t = 0).
    arrivals: Vec<SimTime>,
    entries: Vec<Entry>,
    /// Super scheduler's FCFS queue of batch indices.
    pending: VecDeque<usize>,
    /// Per-partition scheduler state, up to the highest partition a job
    /// was admitted to (a partition past the end has none yet).
    parts: Vec<Part>,
    /// batch index by machine JobId.
    by_job: Vec<usize>,
    /// Fault-requeue budget per entry: a job killed more than this many
    /// times is abandoned (terminal drop-and-account) instead of requeued
    /// — any finite per-message timeout below the congested delivery tail
    /// would otherwise requeue the same doomed job forever.
    max_requeues: u32,
    /// Adaptive re-fork hook: given a failed entry's batch index and the
    /// survivor count of its new partition, produce the spec to rerun
    /// (`None` = rerun the original spec unchanged, the fixed architecture).
    respawner: Option<Respawner>,
    /// Jobs currently in the system (arrived, not yet departed): the
    /// open-system population behind the `machine.in_system` gauge and the
    /// `JobSubmitted`/`JobDeparted` events.
    in_system: u32,
    /// Sharded protocol client (`None` = sequential execution; global
    /// decisions stay local).
    coord: Option<CoordClient>,
}

/// Boxed [`Driver::with_respawner`] hook: `(batch index, survivor count)`
/// to the replacement spec (`None` = rerun the original unchanged).
type Respawner = Box<dyn Fn(usize, usize) -> Option<JobSpec> + Send>;

/// One batch entry's lifecycle as seen from outside the driver
/// ([`Driver::entry_records`]): when it arrived, when (if) it departed, and
/// whether the departure was a terminal abandonment rather than a
/// completion.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EntryRecord {
    /// The entry's arrival instant at the super scheduler.
    pub arrival: SimTime,
    /// Completion (or abandonment) instant; `None` if still in the system
    /// when the run stopped.
    pub finished: Option<SimTime>,
    /// The entry was terminally abandoned after exhausting its requeue
    /// budget.
    pub abandoned: bool,
}

impl Driver {
    /// Build a driver for `batch` (in submission order) under the given
    /// policy. The multiprogramming limit is 1 for the static policy and
    /// unbounded for time-sharing; [`Driver::with_mpl`] overrides it.
    pub fn new(
        machine: Machine,
        plan: PartitionPlan,
        policy: PolicyKind,
        rule: QuantumRule,
        placement: Placement,
        batch: Vec<JobSpec>,
    ) -> Driver {
        let mpl = match policy {
            PolicyKind::Static => 1,
            PolicyKind::TimeSharing => usize::MAX,
        };
        Driver {
            machine,
            plan,
            policy,
            rule,
            placement,
            mpl,
            prefetch: 1,
            discipline: Discipline::Uncoordinated,
            arrivals: Vec::new(),
            entries: batch
                .into_iter()
                .map(|spec| Entry {
                    spec,
                    job_id: None,
                    partition: None,
                    arrival: SimTime::ZERO,
                    finished: None,
                    stage: Stage::Loading,
                    failures: 0,
                    abandoned: false,
                    deferred: false,
                    released: false,
                })
                .collect(),
            pending: VecDeque::new(),
            parts: Vec::new(),
            by_job: Vec::new(),
            max_requeues: 16,
            respawner: None,
            in_system: 0,
            coord: None,
        }
    }

    /// A driver for `batch` under `config`'s policy, quantum rule,
    /// placement, multiprogramming limit and discipline: the one place the
    /// run entry points build theirs.
    pub(crate) fn for_config(
        config: &ExperimentConfig,
        machine: Machine,
        plan: PartitionPlan,
        batch: Vec<JobSpec>,
    ) -> Driver {
        let driver = Driver::new(
            machine,
            plan,
            config.policy,
            config.rule,
            config.placement,
            batch,
        )
        .with_discipline(config.discipline);
        match config.mpl {
            Some(mpl) => driver.with_mpl(mpl),
            None => driver,
        }
    }

    /// Override the per-partition multiprogramming limit (the hybrid
    /// policy's "set size" tuning parameter, §2.3).
    pub fn with_mpl(mut self, mpl: usize) -> Driver {
        assert!(mpl >= 1);
        self.mpl = mpl;
        self
    }

    /// Override the per-partition load-prefetch depth (0 disables
    /// double-buffered loading).
    pub fn with_prefetch(mut self, prefetch: usize) -> Driver {
        self.prefetch = prefetch;
        self
    }

    /// Select the time-sharing coordination discipline (gang scheduling or
    /// the paper's uncoordinated local round-robin).
    pub fn with_discipline(mut self, discipline: Discipline) -> Driver {
        self.discipline = discipline;
        self
    }

    /// Override the fault-requeue budget (default 16): a job killed more
    /// than this many times is abandoned — its messages stay terminally
    /// dropped and accounted, `Counters::jobs_abandoned` increments, and
    /// its response time is measured to the abandonment instant. A budget
    /// of 0 disables requeueing entirely.
    pub fn with_max_requeues(mut self, budget: u32) -> Driver {
        self.max_requeues = budget;
        self
    }

    /// Install an adaptive re-fork hook: when a fault-killed job is
    /// requeued, the hook receives its batch index and the survivor count
    /// of the partition it is being re-admitted to, and may return a
    /// replacement spec (e.g. the same work re-forked over fewer
    /// processes, the paper's adaptive architecture). Returning `None`
    /// reruns the original spec unchanged (the fixed architecture).
    pub fn with_respawner(
        mut self,
        f: impl Fn(usize, usize) -> Option<JobSpec> + Send + 'static,
    ) -> Driver {
        self.respawner = Some(Box::new(f));
        self
    }

    /// Run an *open* workload: entry `i` arrives at `arrivals[i]` instead of
    /// the whole batch arriving at t = 0. Response times are measured from
    /// each job's own arrival.
    ///
    /// # Panics
    /// Panics if the length does not match the batch.
    pub fn with_arrivals(mut self, arrivals: Vec<SimTime>) -> Driver {
        assert_eq!(arrivals.len(), self.entries.len(), "one arrival per job");
        self.arrivals = arrivals;
        self
    }

    /// Enroll this driver, one shard of a sharded run, in the sharded
    /// protocol (see `core::sharded`): global super-scheduler decisions —
    /// FCFS-queue pops and fault requeues — are raised as
    /// [`CoordRequest`]s (pausing the engine) instead of being taken
    /// locally, and the leader's [`CoordGrant`]s apply them.
    ///
    /// `partition_ids` maps each local partition to its global id.
    /// `members` gives each local entry's global batch index and its
    /// host-link loader floor, or `None` for an entry the coordinator
    /// holds in the global queue: its arrival only registers it, and the
    /// grant that admits it brings its floor.
    ///
    /// # Panics
    /// Panics if `partition_ids` does not match the plan or `members` the
    /// batch.
    pub fn with_coordination(
        mut self,
        queue_active: Arc<AtomicBool>,
        specs: Arc<Vec<JobSpec>>,
        partition_ids: Vec<usize>,
        members: &[(usize, Option<SimTime>)],
    ) -> Driver {
        assert_eq!(
            partition_ids.len(),
            self.plan.count(),
            "one global id per partition"
        );
        assert_eq!(members.len(), self.entries.len(), "one member per entry");
        let mut local_of = vec![None; specs.len()];
        for (li, &(g, floor)) in members.iter().enumerate() {
            local_of[g] = Some(li);
            self.entries[li].deferred = floor.is_none();
        }
        self.coord = Some(CoordClient {
            queue_active,
            specs,
            partition_ids,
            job_indices: members.iter().map(|&(g, _)| g).collect(),
            load_floors: members
                .iter()
                .map(|&(_, f)| f.unwrap_or(SimTime::ZERO))
                .collect(),
            local_of,
            requests: Vec::new(),
        });
        self
    }

    /// Drain the [`CoordRequest`]s raised since the last call (empty when
    /// the driver is not coordinated or ran without pausing).
    pub fn take_requests(&mut self) -> Vec<CoordRequest> {
        self.coord
            .as_mut()
            .map_or_else(Vec::new, |c| std::mem::take(&mut c.requests))
    }

    /// Snapshot `(global partition id, assigned-job count, alive)` per
    /// local partition — the leader's view for global requeue targeting.
    pub fn partition_loads(&self) -> Vec<(usize, usize, bool)> {
        (0..self.plan.count())
            .map(|p| {
                let gid = self.coord.as_ref().map_or(p, |c| c.partition_ids[p]);
                (gid, self.load(p), self.partition_alive(p))
            })
            .collect()
    }

    /// Apply the leader's grants, seeding each admission into the shard's
    /// engine at the grant instant. Must run before the engine resumes.
    pub fn apply_grants(&mut self, grants: &[CoordGrant], sched: &mut impl EventScheduler<Event>) {
        for &g in grants {
            match g {
                CoordGrant::Release { global_idx } => {
                    let c = self.coord.as_mut().expect("grants require coordination");
                    let li = c.local_of[global_idx]
                        .take()
                        .expect("release of an entry this shard does not hold");
                    self.entries[li].released = true;
                    // The entry's departure now happens on its new owner;
                    // hand the population count over silently (the
                    // observable submit/depart events are not duplicated).
                    self.in_system -= 1;
                }
                CoordGrant::Admit {
                    time,
                    global_idx,
                    part,
                    floor,
                    failures,
                } => {
                    let c = self.coord.as_mut().expect("grants require coordination");
                    let local_part = c
                        .partition_ids
                        .iter()
                        .position(|&gp| gp == part)
                        .expect("admit grant for a partition this shard does not own");
                    let li = match c.local_of[global_idx] {
                        Some(li) => {
                            c.load_floors[li] = floor;
                            li
                        }
                        None => {
                            // Migration: materialize the entry here from the
                            // shared batch. Closed-batch arrival (t = 0) and
                            // the failure count carry over; the original
                            // owner gets a matching `Release`.
                            let li = self.entries.len();
                            self.entries.push(Entry {
                                spec: c.specs[global_idx].clone(),
                                job_id: None,
                                partition: None,
                                arrival: SimTime::ZERO,
                                finished: None,
                                stage: Stage::Loading,
                                failures,
                                abandoned: false,
                                deferred: false,
                                released: false,
                            });
                            c.local_of[global_idx] = Some(li);
                            c.job_indices.push(global_idx);
                            c.load_floors.push(floor);
                            self.in_system += 1;
                            li
                        }
                    };
                    debug_assert_eq!(self.entries[li].failures, failures);
                    self.entries[li].deferred = false;
                    let job = self.admit_body(local_part, li, time);
                    sched.schedule_at(time, Event::Admit { job });
                    self.retune_quantum(local_part, sched);
                }
            }
        }
    }

    /// The policy this driver runs.
    pub fn policy(&self) -> PolicyKind {
        self.policy
    }

    /// Seed every job's arrival with the engine. Call once, before
    /// `engine.run`. With no [`Driver::with_arrivals`] the whole batch
    /// arrives at t = 0 (the paper's setting); admission then spreads jobs
    /// equitably over the partitions (§5.1) because each arrival picks the
    /// least-loaded partition.
    pub fn start(&mut self, engine: &mut impl parsched_des::EventSeeder<Event>) {
        // Declared faults go in first: an empty plan seeds nothing, so
        // fault-free runs allocate the exact same event sequence as before.
        self.machine.seed_faults(engine);
        for idx in 0..self.entries.len() {
            let at = self.arrivals.get(idx).copied().unwrap_or(SimTime::ZERO);
            engine.seed(
                at,
                Event::PolicyTick {
                    token: ARRIVAL_TOKEN | idx as u64,
                },
            );
        }
    }

    /// Super scheduler: a job arrives. Assign it to the least-loaded
    /// viable partition with a free (execution or prefetch) slot, or
    /// queue it.
    fn on_arrival(&mut self, idx: usize, now: SimTime, sched: &mut impl EventScheduler<Event>) {
        self.entries[idx].arrival = now;
        self.in_system += 1;
        self.machine.observe(
            now,
            parsched_obs::ObsEvent::JobSubmitted {
                index: idx as u32,
                in_system: self.in_system,
            },
        );
        if let Some(m) = self.machine.metrics.as_deref_mut() {
            m.set_in_system(now, self.in_system);
        }
        if self.entries[idx].deferred {
            // Coordinated sharded run: the coordinator holds this entry in
            // the global FCFS queue; a grant admits it later.
            return;
        }
        self.admit_or_queue(idx, now, sched, false);
    }

    /// A batch entry left the system (completed or terminally abandoned):
    /// step the population gauge down and record the departure.
    fn on_departure(&mut self, idx: usize, now: SimTime) {
        self.in_system -= 1;
        self.machine.observe(
            now,
            parsched_obs::ObsEvent::JobDeparted {
                index: idx as u32,
                in_system: self.in_system,
            },
        );
        if let Some(m) = self.machine.metrics.as_deref_mut() {
            m.set_in_system(now, self.in_system);
        }
    }

    /// The surviving (alive) nodes of a partition, in index order. The
    /// full contiguous range on a fault-free run.
    fn alive_nodes(&self, part: usize) -> Vec<u32> {
        let base = self.plan.partitions[part].base;
        (base..base + self.plan.partition_size)
            .map(|n| n as u32)
            .filter(|&n| self.machine.node_alive(n))
            .collect()
    }

    /// A partition can host jobs while at least one of its nodes is alive.
    fn partition_alive(&self, part: usize) -> bool {
        let base = self.plan.partitions[part].base;
        (base..base + self.plan.partition_size).any(|n| self.machine.node_alive(n as u32))
    }

    /// Admit `idx` to the least-loaded partition that is alive and has a
    /// free (execution or prefetch) slot; otherwise leave it on the FCFS
    /// queue — at the front for a requeued failure (it keeps its turn), at
    /// the back for a fresh arrival.
    fn admit_or_queue(
        &mut self,
        idx: usize,
        now: SimTime,
        sched: &mut impl EventScheduler<Event>,
        front: bool,
    ) {
        let cap = self.mpl.saturating_add(self.prefetch);
        let target = (0..self.plan.count())
            .filter(|&part| self.load(part) < cap && self.partition_alive(part))
            .min_by_key(|&part| self.load(part));
        match target {
            Some(part) => self.admit_to(part, idx, now, sched),
            None => {
                // Coordinated shards prefill every local arrival into a
                // free slot; anything else sits deferred in the global
                // queue, so the local queue must stay empty.
                debug_assert!(
                    self.coord.is_none(),
                    "coordinated arrival missed its prefilled slot"
                );
                if front {
                    self.pending.push_front(idx);
                } else {
                    self.pending.push_back(idx);
                }
            }
        }
    }

    /// Partition scheduler: place `idx` on `part` and schedule its
    /// admission, emitting `PartitionAdmit` (plus `JobRequeued` for a
    /// fault rerun).
    fn admit_to(
        &mut self,
        part: usize,
        idx: usize,
        now: SimTime,
        sched: &mut impl EventScheduler<Event>,
    ) {
        let job = self.admit_body(part, idx, now);
        sched.schedule_now(Event::Admit { job });
        self.retune_quantum(part, sched);
    }

    /// The state mutations of an admission (shared by [`Self::admit_to`]
    /// and the coordinated grant path, which seeds the `Admit` event into
    /// the paused engine instead of scheduling it from inside a handler).
    fn admit_body(&mut self, part: usize, idx: usize, now: SimTime) -> JobId {
        if part >= self.parts.len() {
            self.parts.resize_with(part + 1, Part::default);
        }
        self.parts[part].assigned.push_back(idx);
        let job = self.queue_on(idx, part);
        self.parts[part].unstarted_demand += self.machine.job(job).total_compute.nanos() as u128;
        self.machine.observe(
            now,
            parsched_obs::ObsEvent::PartitionAdmit {
                job: job.0,
                partition: part as u32,
            },
        );
        if self.entries[idx].failures > 0 {
            self.machine.counters.jobs_requeued += 1;
            self.machine.observe(
                now,
                parsched_obs::ObsEvent::JobRequeued {
                    job: job.0,
                    partition: part as u32,
                },
            );
        }
        job
    }

    /// Recompute the dynamic quantum for every job resident on `part`
    /// (no-op under any other discipline): the mean per-process *remaining*
    /// demand across the partition's jobs, floored at the discipline's
    /// `base`. Called at every membership change (admission, completion,
    /// failure), so a lone job runs essentially preemption-free while a
    /// crowded partition reverts toward short, fair slices. Changing a
    /// process's quantum never reschedules a slice already under way — the
    /// new value takes effect at its next dispatch — so this is pure state
    /// and replays bit-identically on any engine.
    ///
    /// Only the started members are visited. A member with no processes
    /// yet counts its whole demand at width 1, which
    /// [`Part::unstarted_demand`] already sums, and its quantum is read
    /// only when it spawns, so [`Self::start_ready`] hands it the last
    /// value set here just before starting it.
    fn retune_quantum(&mut self, part: usize, sched: &mut impl EventScheduler<Event>) {
        #[cfg(debug_assertions)]
        self.check_part(part);
        let Discipline::DynamicQuantum { base } = self.discipline else {
            return;
        };
        let members = self.parts[part].assigned.len();
        if members == 0 {
            return;
        }
        let mut total = self.parts[part].unstarted_demand;
        for k in 0..self.parts[part].started.len() {
            let id = self.live_job(self.parts[part].started[k]);
            let rem = self.machine.job_remaining(id, sched);
            let width = self.machine.job(id).proc_keys.len().max(1) as u64;
            total += (rem.nanos() / width) as u128;
        }
        let mean = (total / members as u128) as u64;
        let q = SimDuration::from_nanos(mean.max(base.nanos()));
        self.parts[part].quantum = q;
        for k in 0..self.parts[part].started.len() {
            let id = self.live_job(self.parts[part].started[k]);
            self.machine.set_job_quantum(id, q, sched);
        }
    }

    /// Jobs assigned to `part`.
    fn load(&self, part: usize) -> usize {
        self.parts.get(part).map_or(0, |p| p.assigned.len())
    }

    /// The machine job of an assigned entry.
    fn live_job(&self, idx: usize) -> JobId {
        self.entries[idx]
            .job_id
            .expect("assigned entries hold a job")
    }

    /// Register a batch entry with the machine on a partition; returns the
    /// machine job id (the caller schedules the `Admit`). A rerun after a
    /// fault maps onto the partition's surviving nodes only, and may be
    /// re-forked by the [`Driver::with_respawner`] hook.
    fn queue_on(&mut self, idx: usize, part: usize) -> JobId {
        let alive = self.alive_nodes(part);
        let respawned = if self.entries[idx].failures > 0 {
            self.respawner.as_ref().and_then(|f| f(idx, alive.len()))
        } else {
            None
        };
        let spec = respawned.unwrap_or_else(|| self.entries[idx].spec.clone());
        let width = spec.width();
        let quantum = match (self.policy, self.discipline) {
            (PolicyKind::Static, _) => self.machine.cfg.default_quantum,
            // Dynamic quantum: start at the floor; the retune that follows
            // this admission (same event) sets the real value.
            (PolicyKind::TimeSharing, Discipline::DynamicQuantum { base }) => base,
            (PolicyKind::TimeSharing, _) => self.rule.quantum(alive.len(), width),
        };
        let global_idx = self.coord.as_ref().map_or(idx, |c| c.job_indices[idx]);
        let placement = self.placement.assign_nodes(&alive, width, global_idx);
        let job = self.machine.queue_job_with(spec, placement, quantum, false);
        if let Some(c) = &self.coord {
            self.machine.set_load_floor(job, c.load_floors[idx]);
        }
        debug_assert_eq!(self.by_job.len(), job.idx(), "job ids must be dense");
        self.by_job.push(idx);
        self.entries[idx].job_id = Some(job);
        self.entries[idx].partition = Some(part);
        job
    }

    /// Start Ready jobs assigned to `part`, first in `assigned` order, while
    /// an execution slot is free. [`Part::ready`] counts them, so a
    /// partition with none returns at once instead of scanning its whole
    /// member list.
    fn start_ready(&mut self, part: usize, now: SimTime, sched: &mut impl EventScheduler<Event>) {
        loop {
            self.absorb_notes();
            #[cfg(debug_assertions)]
            self.check_part(part);
            let p = &self.parts[part];
            if p.started.len() >= self.mpl || p.ready == 0 {
                return;
            }
            // The started members ahead of it in `assigned` are ahead of it
            // in `started` too.
            let mut ahead = 0;
            let idx = p
                .assigned
                .iter()
                .copied()
                .find(|&i| match self.entries[i].stage {
                    Stage::Ready => true,
                    Stage::Running => {
                        ahead += 1;
                        false
                    }
                    Stage::Loading => false,
                })
                .expect("a Ready member is assigned");
            let id = self.live_job(idx);
            let p = &mut self.parts[part];
            p.ready -= 1;
            p.unstarted_demand -= self.machine.job(id).total_compute.nanos() as u128;
            p.started.insert(ahead, idx);
            if let Discipline::DynamicQuantum { .. } = self.discipline {
                let q = self.parts[part].quantum;
                self.machine.set_job_quantum(id, q, sched);
            }
            self.machine.start_job(id, now, sched);
            self.entries[idx].stage = Stage::Running;
            self.note_mpl(part, now);
        }
    }

    /// Bring entry stages up to date with the notes the machine has raised
    /// but the driver has not served yet. A job turns Ready only with a
    /// `JobReady` note and stops being Ready only when the driver starts it
    /// or with a `JobFailed` note, so after this an assigned entry is at
    /// [`Stage::Ready`] exactly when its job is Ready. Start decisions may
    /// pick any Ready job, not just the one whose note is being served.
    /// Marking is idempotent, so a note absorbed twice counts once.
    fn absorb_notes(&mut self) {
        for note in self.machine.pending_notes() {
            let (Note::JobReady(id) | Note::JobFailed(id)) = *note else {
                continue;
            };
            let idx = self.by_job[id.idx()];
            let e = &mut self.entries[idx];
            debug_assert_eq!(e.job_id, Some(id), "notes name the current incarnation");
            let part = e.partition.expect("a job with notes is placed");
            match (*note, e.stage) {
                (Note::JobReady(_), Stage::Loading) => {
                    e.stage = Stage::Ready;
                    self.parts[part].ready += 1;
                }
                (Note::JobFailed(_), Stage::Ready) => {
                    e.stage = Stage::Loading;
                    self.parts[part].ready -= 1;
                }
                _ => {}
            }
        }
    }

    /// Debug-build reference for a partition's incremental state: recount
    /// it from `assigned` and the machine's job table the way the scans it
    /// replaced did. The machine view is current here: every note it has
    /// raised has been absorbed.
    #[cfg(debug_assertions)]
    fn check_part(&self, part: usize) {
        use parsched_machine::JobState;
        let p = &self.parts[part];
        let mut ready = 0;
        let mut demand: u128 = 0;
        let mut started = Vec::new();
        for &i in &p.assigned {
            let job = self.machine.job(self.live_job(i));
            if job.state == JobState::Ready {
                ready += 1;
            }
            if job.proc_keys.is_empty() {
                demand += job.total_compute.nanos() as u128;
            } else {
                started.push(i);
            }
            assert_eq!(
                self.entries[i].stage == Stage::Ready,
                job.state == JobState::Ready,
                "entry {i}'s stage disagrees with its job's state"
            );
        }
        assert_eq!(p.ready, ready, "partition {part}: Ready count");
        assert_eq!(
            p.unstarted_demand, demand,
            "partition {part}: unstarted demand"
        );
        assert_eq!(p.started, started, "partition {part}: started members");
    }

    /// Sample a partition's executing-job count (its effective MPL) into
    /// the machine's metrics registry, when metrics are enabled.
    fn note_mpl(&mut self, part: usize, now: SimTime) {
        if let Some(m) = self.machine.metrics.as_deref_mut() {
            m.set_partition_mpl(part, now, self.parts[part].started.len() as f64);
        }
    }

    fn on_note(&mut self, note: Note, now: SimTime, sched: &mut impl EventScheduler<Event>) {
        match note {
            Note::JobLoaded(id) => {
                if let Discipline::Gang { slot } = self.discipline {
                    let idx = self.by_job[id.idx()];
                    let part = self.entries[idx].partition.expect("loaded unplaced job");
                    self.parts[part].gang.rotation.push_back(idx);
                    if self.parts[part].gang.rotation.len() > 1 {
                        // Not this job's turn yet: park it.
                        self.machine.set_job_active(id, false, now, sched);
                        if !self.parts[part].gang.tick_live {
                            self.parts[part].gang.tick_live = true;
                            sched.schedule(slot, Event::PolicyTick { token: part as u64 });
                        }
                    }
                }
            }
            Note::JobReady(id) => {
                let idx = self.by_job[id.idx()];
                let part = self.entries[idx].partition.expect("ready unplaced job");
                self.start_ready(part, now, sched);
            }
            Note::JobCompleted(id) => {
                let idx = self.by_job[id.idx()];
                self.entries[idx].finished = Some(now);
                let part = self.entries[idx].partition.expect("completed unplaced job");
                self.leave_started(part, idx);
                self.note_mpl(part, now);
                self.leave_assigned(part, idx);
                self.drop_from_gang(part, idx, now, sched);
                self.on_departure(idx, now);
                self.retune_quantum(part, sched);
                // Partition scheduler: begin loading the next queued job
                // into the freed assignment slot, and start any staged job
                // that is already resident. (The liveness check only bites
                // after a fault; completion targets the freed partition
                // directly, as always.) Under coordination the FCFS queue
                // lives with the leader: raise a pop request and pause —
                // the grant seeds the admission at this same instant, and
                // starting resident work first is safe because the popped
                // job cannot be Ready yet (it has not even loaded).
                if self.partition_alive(part) {
                    if let Some(c) = &mut self.coord {
                        if c.queue_active.load(Ordering::Relaxed) {
                            let gp = c.partition_ids[part];
                            c.requests.push(CoordRequest::Pop {
                                time: now,
                                part: gp,
                            });
                            sched.request_pause();
                        }
                    } else if let Some(next) = self.pending.pop_front() {
                        self.admit_to(part, next, now, sched);
                    }
                    self.start_ready(part, now, sched);
                }
            }
            Note::JobFailed(id) => {
                let idx = self.by_job[id.idx()];
                let part = self.entries[idx].partition.expect("failed unplaced job");
                if self.entries[idx].stage == Stage::Running {
                    self.leave_started(part, idx);
                    self.note_mpl(part, now);
                } else {
                    // Absorbing this note already took a Ready job out of
                    // the Ready count.
                    debug_assert_eq!(self.entries[idx].stage, Stage::Loading);
                    self.parts[part].unstarted_demand -=
                        self.machine.job(id).total_compute.nanos() as u128;
                }
                self.entries[idx].failures += 1;
                self.entries[idx].job_id = None;
                self.entries[idx].partition = None;
                self.leave_assigned(part, idx);
                self.drop_from_gang(part, idx, now, sched);
                self.retune_quantum(part, sched);
                if self.entries[idx].failures > self.max_requeues {
                    // Budget exhausted: abandon terminally. The machine
                    // already dropped and accounted the dead incarnation's
                    // messages (conservation stays green); recording a
                    // finish time keeps the batch able to complete.
                    self.entries[idx].abandoned = true;
                    self.entries[idx].finished = Some(now);
                    self.machine.counters.jobs_abandoned += 1;
                    self.on_departure(idx, now);
                } else if self.coord.is_some() {
                    // Coordinated sharded run: the re-placement target is a
                    // global least-loaded choice only the leader can make.
                    // Raise the request and pause at this instant.
                    let failures = self.entries[idx].failures;
                    let c = self.coord.as_mut().expect("checked");
                    c.requests.push(CoordRequest::Requeue {
                        time: now,
                        global_idx: c.job_indices[idx],
                        from_part: c.partition_ids[part],
                        failures,
                    });
                    sched.request_pause();
                } else {
                    // Requeue at the front of the FCFS queue (the job
                    // keeps its turn) and re-place immediately if any
                    // partition can take it — its own partition's
                    // survivors when that is the least-loaded viable
                    // choice.
                    self.admit_or_queue(idx, now, sched, true);
                }
                // The failure also freed a slot on its old partition;
                // offer it to the queue and restart staged work there.
                // (Coordinated shards never hold a local queue — the
                // eligible faulty class runs an unbounded MPL, so the
                // global queue is empty too and there is nothing to pop.)
                if self.partition_alive(part) {
                    let cap = self.mpl.saturating_add(self.prefetch);
                    if self.load(part) < cap && self.coord.is_none() {
                        if let Some(next) = self.pending.pop_front() {
                            self.admit_to(part, next, now, sched);
                        }
                    }
                    self.start_ready(part, now, sched);
                }
            }
        }
    }

    /// A started member of `part` completed or failed: it no longer runs.
    fn leave_started(&mut self, part: usize, idx: usize) {
        let p = &mut self.parts[part];
        let at = p
            .started
            .iter()
            .position(|&i| i == idx)
            .expect("a started member");
        p.started.remove(at);
        self.entries[idx].stage = Stage::Loading;
    }

    /// Drop `idx` from `part`'s members, at its position.
    fn leave_assigned(&mut self, part: usize, idx: usize) {
        let p = &mut self.parts[part].assigned;
        let at = p
            .iter()
            .position(|&i| i == idx)
            .expect("an assigned member");
        p.remove(at);
    }

    /// Remove a finished or failed job from a partition's gang rotation,
    /// activating the next job if the departing one held the slot.
    fn drop_from_gang(
        &mut self,
        part: usize,
        idx: usize,
        now: SimTime,
        sched: &mut impl EventScheduler<Event>,
    ) {
        if matches!(self.discipline, Discipline::Gang { .. }) {
            let was_active = self.parts[part].gang.rotation.front() == Some(&idx);
            self.parts[part].gang.rotation.retain(|&i| i != idx);
            if was_active {
                if let Some(&next) = self.parts[part].gang.rotation.front() {
                    let next_id = self.entries[next].job_id.expect("rotation holds live jobs");
                    self.machine.set_job_active(next_id, true, now, sched);
                }
            }
        }
    }

    /// True once every batch entry has completed (or been abandoned), not
    /// counting entries a coordination grant re-placed on another shard.
    pub fn all_done(&self) -> bool {
        self.entries
            .iter()
            .all(|e| e.finished.is_some() || e.released)
    }

    /// `(global batch index, response time)` for every entry this shard
    /// owns at the end of a run — coordinated runs migrate entries between
    /// shards, and the owner at completion reports. Sequential drivers
    /// (no [`Driver::with_coordination`]) report local indices.
    ///
    /// # Panics
    /// Panics if an owned entry has not finished.
    pub fn owned_responses(&self) -> Vec<(usize, SimDuration)> {
        self.entries
            .iter()
            .enumerate()
            .filter(|(_, e)| !e.released)
            .map(|(i, e)| {
                let g = self.coord.as_ref().map_or(i, |c| c.job_indices[i]);
                let done = e.finished.expect("owned_responses before completion");
                (g, done.since(e.arrival))
            })
            .collect()
    }

    /// Batch entries terminally abandoned after exhausting the requeue
    /// budget ([`Driver::with_max_requeues`]).
    pub fn abandoned_count(&self) -> usize {
        self.entries.iter().filter(|e| e.abandoned).count()
    }

    /// Per-entry lifecycle records in batch order. Unlike
    /// [`Driver::response_times`] this never panics: a horizon-stopped open
    /// run reports unfinished entries with `finished: None` and the caller
    /// decides what to do with the partial sample.
    pub fn entry_records(&self) -> Vec<EntryRecord> {
        self.entries
            .iter()
            .map(|e| EntryRecord {
                arrival: e.arrival,
                finished: e.finished,
                abandoned: e.abandoned,
            })
            .collect()
    }

    /// Per-job response times in batch order, measured from each job's own
    /// arrival (t = 0 for the whole batch in the paper's closed setting).
    ///
    /// # Panics
    /// Panics if the batch has not fully completed.
    pub fn response_times(&self) -> Vec<SimDuration> {
        self.entries
            .iter()
            .map(|e| {
                e.finished
                    .expect("response_times before completion")
                    .since(e.arrival)
            })
            .collect()
    }

    /// Render a stall diagnosis: which jobs have not finished and what the
    /// machine's processes are doing. Used when a run drains without
    /// completing (e.g. store-and-forward deadlock under `ReservedFifo`).
    pub fn diagnose(&self) -> String {
        use parsched_machine::PState;
        let mut out = String::new();
        let unfinished: Vec<usize> = self
            .entries
            .iter()
            .enumerate()
            .filter(|(_, e)| e.finished.is_none())
            .map(|(i, _)| i)
            .collect();
        out.push_str(&format!(
            "stalled with {} unfinished of {} jobs: {:?}\n",
            unfinished.len(),
            self.entries.len(),
            unfinished
        ));
        out.push_str(&format!(
            "pending (never admitted): {:?}\n",
            self.pending.iter().collect::<Vec<_>>()
        ));
        let mut ready = 0;
        let mut running = 0;
        let mut brecv = 0;
        let mut balloc = 0;
        let mut done = 0;
        for p in self.machine.processes() {
            match p.state {
                PState::Ready => ready += 1,
                PState::Running => running += 1,
                PState::BlockedRecv(_) => brecv += 1,
                PState::BlockedAlloc => balloc += 1,
                PState::Finished => done += 1,
            }
        }
        out.push_str(&format!(
            "processes: ready={ready} running={running} blocked-recv={brecv} \
             blocked-alloc={balloc} finished={done}\n"
        ));
        let dead: Vec<usize> = (0..self.machine.node_count())
            .filter(|&n| !self.machine.node_alive(n as u32))
            .collect();
        if !dead.is_empty() {
            out.push_str(&format!("dead nodes: {dead:?}\n"));
        }
        for n in 0..self.machine.node_count() {
            let node = self.machine.node(n as u32);
            if node.mmu.queue_len() > 0 {
                out.push_str(&format!(
                    "node {n}: mmu queue {} (used {}/{})\n",
                    node.mmu.queue_len(),
                    node.mmu.used(),
                    node.mmu.capacity()
                ));
            }
        }
        if let Some(ring) = self
            .machine
            .recorder
            .as_deref()
            .and_then(|r| r.as_any().downcast_ref::<parsched_obs::RingRecorder>())
        {
            out.push_str("last recorded events:\n");
            out.push_str(&ring.dump());
        }
        out
    }
}

impl Driver {
    /// Rotate a partition's gang: park the running job, release the next.
    fn on_policy_tick(
        &mut self,
        part: usize,
        now: SimTime,
        sched: &mut impl EventScheduler<Event>,
    ) {
        let Discipline::Gang { slot } = self.discipline else {
            return;
        };
        if self.parts[part].gang.rotation.len() < 2 {
            // Nothing to rotate; stop ticking until a second job arrives.
            self.parts[part].gang.tick_live = false;
            return;
        }
        let old = *self.parts[part].gang.rotation.front().expect("len >= 2");
        self.parts[part].gang.rotation.rotate_left(1);
        let new = *self.parts[part].gang.rotation.front().expect("len >= 2");
        let old_id = self.entries[old].job_id.expect("rotation holds live jobs");
        let new_id = self.entries[new].job_id.expect("rotation holds live jobs");
        self.machine.set_job_active(old_id, false, now, sched);
        self.machine.set_job_active(new_id, true, now, sched);
        sched.schedule(slot, Event::PolicyTick { token: part as u64 });
    }
}

impl Model for Driver {
    type Event = Event;

    fn handle(&mut self, now: SimTime, event: Event, sched: &mut impl EventScheduler<Event>) {
        if let Event::PolicyTick { token } = event {
            if token >= ARRIVAL_TOKEN {
                self.on_arrival((token - ARRIVAL_TOKEN) as usize, now, sched);
            } else {
                self.on_policy_tick(token as usize, now, sched);
            }
            return;
        }
        self.machine.handle(now, event, sched);
        // Acting on a note can raise more (a start emits `JobLoaded`):
        // serve them all at this instant, not at whatever event comes next.
        loop {
            self.absorb_notes();
            let notes = self.machine.drain_notes();
            if notes.is_empty() {
                break;
            }
            for note in notes {
                self.on_note(note, now, sched);
            }
        }
    }

    fn run_ended(&mut self, sched: &mut impl EventScheduler<Event>) {
        self.machine.run_ended(sched);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use parsched_des::{Engine, QueueKind, RunOutcome};
    use parsched_machine::program::ProcSpec;
    use parsched_machine::{MachineConfig, Op, SystemNet};
    use parsched_topology::TopologyKind;

    fn job(name: &str, ms: u64) -> JobSpec {
        JobSpec {
            name: name.into(),
            ship_bytes: 0,
            procs: vec![ProcSpec {
                program: vec![Op::Compute(SimDuration::from_millis(ms))],
                mem_bytes: 1024,
            }],
        }
    }

    fn driver_for(
        policy: PolicyKind,
        partitions: (usize, usize), // (system, partition size)
        batch: Vec<JobSpec>,
    ) -> Driver {
        let plan = PartitionPlan::equal(partitions.0, partitions.1, TopologyKind::Linear).unwrap();
        let cfg = MachineConfig {
            host_link_per_byte: SimDuration::ZERO,
            job_load_latency: SimDuration::from_millis(1),
            ..MachineConfig::default()
        };
        let machine = Machine::new(cfg, SystemNet::from_plan(&plan));
        Driver::new(
            machine,
            plan,
            policy,
            QuantumRule::default(),
            Placement::RoundRobin,
            batch,
        )
    }

    fn run(driver: &mut Driver) {
        let mut engine: Engine<Event> = Engine::new(QueueKind::BinaryHeap);
        driver.start(&mut engine);
        assert_eq!(engine.run(driver), RunOutcome::Drained);
        assert!(driver.all_done(), "{}", driver.diagnose());
    }

    #[test]
    fn static_driver_completes_fcfs() {
        let batch = (0..6).map(|i| job(&format!("j{i}"), 10 + i)).collect();
        let mut d = driver_for(PolicyKind::Static, (2, 1), batch);
        run(&mut d);
        let rts = d.response_times();
        assert_eq!(rts.len(), 6);
        // Two partitions, FCFS: jobs 0/1 finish first, 4/5 last.
        assert!(rts[0] < rts[4]);
        assert!(rts[1] < rts[5]);
    }

    #[test]
    fn time_sharing_driver_admits_everything() {
        let batch = (0..5).map(|i| job(&format!("j{i}"), 20)).collect();
        let mut d = driver_for(PolicyKind::TimeSharing, (1, 1), batch);
        run(&mut d);
        let rts = d.response_times();
        // All five share one CPU: everyone finishes near 5 x 20 ms.
        let min = rts.iter().min().unwrap();
        assert!(
            *min >= SimDuration::from_millis(80),
            "shortest finished too early: {min}"
        );
    }

    #[test]
    fn mpl_override_caps_concurrency() {
        let batch = (0..4).map(|i| job(&format!("j{i}"), 20)).collect();
        let mut d = driver_for(PolicyKind::TimeSharing, (1, 1), batch).with_mpl(1);
        run(&mut d);
        let rts = d.response_times();
        // MPL 1 == FCFS: strictly increasing finish times.
        for w in rts.windows(2) {
            assert!(w[0] < w[1], "not FCFS: {rts:?}");
        }
    }

    #[test]
    #[should_panic(expected = "one arrival per job")]
    fn with_arrivals_checks_length() {
        let batch = vec![job("a", 1), job("b", 1)];
        let _ = driver_for(PolicyKind::Static, (1, 1), batch).with_arrivals(vec![SimTime::ZERO]);
    }

    #[test]
    fn arrivals_admit_to_least_loaded_partition() {
        // 4 jobs arriving in sequence over 2 partitions: each partition
        // must get two.
        let batch = (0..4).map(|i| job(&format!("j{i}"), 5)).collect();
        let arrivals = (0..4)
            .map(|i| SimTime::ZERO + SimDuration::from_millis(i))
            .collect();
        let mut d = driver_for(PolicyKind::TimeSharing, (2, 1), batch).with_arrivals(arrivals);
        run(&mut d);
        let parts: Vec<usize> = d
            .entries
            .iter()
            .map(|e| e.partition.expect("placed"))
            .collect();
        assert_eq!(parts.iter().filter(|&&p| p == 0).count(), 2, "{parts:?}");
        assert_eq!(parts.iter().filter(|&&p| p == 1).count(), 2, "{parts:?}");
    }

    #[test]
    fn diagnose_reports_pending_jobs() {
        let batch = vec![job("a", 1), job("b", 1), job("c", 1)];
        let d = driver_for(PolicyKind::Static, (1, 1), batch);
        // Nothing started: all unfinished; pending is empty until start().
        let diag = d.diagnose();
        assert!(diag.contains("3 unfinished of 3 jobs"), "{diag}");
    }

    #[test]
    fn diagnose_dumps_installed_ring_recorder() {
        let batch = vec![job("a", 1)];
        let mut d = driver_for(PolicyKind::Static, (1, 1), batch);
        d.machine.recorder = Some(Box::new(parsched_obs::RingRecorder::with_capacity(64)));
        run(&mut d);
        let diag = d.diagnose();
        assert!(diag.contains("last recorded events:"), "{diag}");
        assert!(diag.contains("JobFinished"), "{diag}");
    }

    fn faulty_driver(faults: parsched_machine::FaultPlan, batch: Vec<JobSpec>) -> Driver {
        let plan = PartitionPlan::equal(2, 2, TopologyKind::Linear).unwrap();
        let cfg = MachineConfig {
            host_link_per_byte: SimDuration::ZERO,
            job_load_latency: SimDuration::from_millis(1),
            faults,
            ..MachineConfig::default()
        };
        let machine = Machine::new(cfg, SystemNet::from_plan(&plan));
        Driver::new(
            machine,
            plan,
            PolicyKind::TimeSharing,
            QuantumRule::default(),
            Placement::RoundRobin,
            batch,
        )
    }

    fn wide_job(ms: u64, width: usize) -> JobSpec {
        JobSpec {
            name: "wide".into(),
            ship_bytes: 0,
            procs: (0..width)
                .map(|_| ProcSpec {
                    program: vec![Op::Compute(SimDuration::from_millis(ms))],
                    mem_bytes: 1024,
                })
                .collect(),
        }
    }

    fn crash(node: u32, ms: u64) -> parsched_machine::FaultPlan {
        let mut faults = parsched_machine::FaultPlan::default();
        faults.crashes.push(parsched_machine::NodeCrash {
            node,
            at: SimTime::ZERO + SimDuration::from_millis(ms),
        });
        faults
    }

    #[test]
    fn crashed_job_requeues_on_survivors() {
        // A 2-wide job on nodes [0,1]; node 1 dies mid-run. The rerun must
        // map every rank onto the surviving node 0 and complete there.
        let mut d = faulty_driver(crash(1, 5), vec![wide_job(20, 2)]);
        run(&mut d);
        assert_eq!(d.entries[0].failures, 1);
        assert_eq!(d.machine.counters.jobs_failed, 1);
        assert_eq!(d.machine.counters.jobs_requeued, 1);
        let rerun = d.entries[0].job_id.expect("rerun placed");
        assert_eq!(d.machine.job(rerun).placement, vec![0, 0]);
        // Response time covers both incarnations, measured from the
        // original arrival.
        let rts = d.response_times();
        assert!(
            rts[0] >= SimDuration::from_millis(25),
            "rerun too fast: {}",
            rts[0]
        );
    }

    #[test]
    fn respawner_reforks_over_survivors() {
        // Adaptive architecture: on requeue the job re-forks with one
        // process per surviving node instead of its original two.
        let mut d = faulty_driver(crash(1, 5), vec![wide_job(20, 2)])
            .with_respawner(|_idx, alive| Some(wide_job(40, alive)));
        run(&mut d);
        assert_eq!(d.entries[0].failures, 1);
        let rerun = d.entries[0].job_id.expect("rerun placed");
        assert_eq!(d.machine.job(rerun).proc_keys.len(), 1);
        assert_eq!(d.machine.job(rerun).placement, vec![0]);
    }

    #[test]
    fn fault_recovery_replays_identically() {
        let mk = || {
            let mut d = faulty_driver(crash(1, 5), (0..3).map(|_| wide_job(10, 2)).collect());
            run(&mut d);
            (d.response_times(), d.machine.counters.jobs_requeued)
        };
        assert_eq!(mk(), mk());
    }

    #[test]
    fn too_low_msg_timeout_abandons_instead_of_livelocking() {
        // A finite msg_timeout far below the ~6 ms delivery tail times out
        // every attempt of every incarnation: the job is killed, requeued,
        // and killed again identically. Before the requeue budget this
        // looped forever; now the budget abandons the entry terminally,
        // the run drains, and message conservation still holds.
        use parsched_machine::{Rank, RetryPolicy, Tag};
        let faults = parsched_machine::FaultPlan {
            retry: RetryPolicy {
                max_retries: 1,
                base_backoff: SimDuration::from_micros(10),
                backoff_cap: SimDuration::from_micros(10),
                msg_timeout: Some(SimDuration::from_micros(100)),
            },
            ..Default::default()
        };
        let chatty = JobSpec {
            name: "chatty".into(),
            ship_bytes: 0,
            procs: vec![
                ProcSpec {
                    program: vec![Op::Send {
                        to: Rank(1),
                        bytes: 10_000,
                        tag: Tag(7),
                    }],
                    mem_bytes: 1024,
                },
                ProcSpec {
                    program: vec![Op::Recv { tag: Tag(7) }],
                    mem_bytes: 1024,
                },
            ],
        };
        let mut d = faulty_driver(faults, vec![chatty]).with_max_requeues(3);
        run(&mut d);
        assert_eq!(d.abandoned_count(), 1);
        assert_eq!(d.machine.counters.jobs_abandoned, 1);
        assert_eq!(d.entries[0].failures, 4, "budget 3 = four incarnations");
        assert!(d.entries[0].abandoned);
        let c = &d.machine.counters;
        assert_eq!(c.messages_sent, c.messages_consumed + c.messages_dropped);
        assert!(c.messages_dropped > 0, "doomed sends must be accounted");
        let rts = d.response_times();
        assert_eq!(rts.len(), 1, "abandoned entries still report");
    }

    #[test]
    fn requeue_budget_zero_abandons_on_first_failure() {
        let mut d = faulty_driver(crash(1, 5), vec![wide_job(20, 2)]).with_max_requeues(0);
        run(&mut d);
        assert_eq!(d.entries[0].failures, 1);
        assert!(d.entries[0].abandoned);
        assert_eq!(d.machine.counters.jobs_requeued, 0);
        assert_eq!(d.machine.counters.jobs_abandoned, 1);
    }

    #[test]
    fn dynamic_quantum_survives_a_crash_between_load_and_start() {
        // One 2-node partition at MPL 1 with two loads staged ahead, 1 ms
        // per load: job 0 starts at 1 ms, job 1 is Ready from 2 ms waiting
        // for the slot, job 2 is still loading when node 1 crashes at
        // 2.5 ms. All three fail (running, Ready, mid-load) and rerun on
        // node 0. Debug builds hold the partition's Ready count, unstarted
        // demand and started list to a rescan at every start and retune.
        let mut faults = crash(1, 0);
        faults.crashes[0].at = SimTime::ZERO + SimDuration::from_micros(2_500);
        let mut d = faulty_driver(faults, (0..3).map(|_| wide_job(20, 2)).collect())
            .with_mpl(1)
            .with_prefetch(2)
            .with_discipline(Discipline::DynamicQuantum {
                base: SimDuration::from_millis(2),
            });
        run(&mut d);
        assert_eq!(d.machine.counters.jobs_failed, 3);
        assert!(
            d.entries.iter().all(|e| e.failures == 1),
            "every stage failed once"
        );
        let p = &d.parts[0];
        assert_eq!((p.ready, p.unstarted_demand), (0, 0));
        assert!(p.assigned.is_empty() && p.started.is_empty());
    }

    #[test]
    fn prefetch_zero_serializes_loads_behind_execution() {
        // With prefetch 0 the next job's load cannot overlap the current
        // job's run; makespan grows by one load latency per extra job.
        let mk = |prefetch: usize| {
            let batch = (0..3).map(|i| job(&format!("j{i}"), 50)).collect();
            let plan = PartitionPlan::equal(1, 1, TopologyKind::Linear).unwrap();
            let cfg = MachineConfig {
                host_link_per_byte: SimDuration::ZERO,
                job_load_latency: SimDuration::from_millis(20),
                ..MachineConfig::default()
            };
            let machine = Machine::new(cfg, SystemNet::from_plan(&plan));
            let mut d = Driver::new(
                machine,
                plan,
                PolicyKind::Static,
                QuantumRule::default(),
                Placement::RoundRobin,
                batch,
            )
            .with_prefetch(prefetch);
            let mut engine: Engine<Event> = Engine::new(QueueKind::BinaryHeap);
            d.start(&mut engine);
            assert_eq!(engine.run(&mut d), RunOutcome::Drained);
            *d.response_times().iter().max().unwrap()
        };
        let without = mk(0);
        let with = mk(1);
        // Prefetch hides two of the three 20 ms loads.
        assert!(
            without >= with + SimDuration::from_millis(30),
            "prefetch gained too little: {without} vs {with}"
        );
    }
}
