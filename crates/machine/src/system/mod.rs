//! The machine: nodes, network and the event protocol tying them together.
//!
//! [`Machine`] implements [`parsched_des::Model`]; driving it with an
//! [`Engine`](parsched_des::Engine) executes submitted jobs to completion.
//! Scheduling *policies* (who gets which partition, when, with what quantum)
//! live in `parsched-core`; this crate provides the mechanism:
//!
//! * two-priority CPUs with round-robin quanta and quantum-loss preemption;
//! * per-node memory with a FIFO-queued MMU;
//! * store-and-forward message passing over serialized links, whole
//!   messages or pipelined packets, with per-hop buffer reservation and
//!   handler CPU costs;
//! * wormhole switching with virtual channels and credits, flit by flit
//!   or, across a quiescent partition, in closed form (the express path);
//! * mailbox matching and blocking receives.
//!
//! This module holds the events, the [`Machine`] state, its public API
//! and the event dispatch in [`Model::handle`]. Each layer of the
//! mechanism lives in a child module:
//!
//! * `jobs`: job lifecycle, the host-link loader and process programs;
//! * `dispatch`: CPU dispatch and slices (the express path is in
//!   [`crate::rotation`]);
//! * `messaging`: whole-message and packetized store-and-forward;
//! * `flits`: wormhole flow (its state types are in [`crate::wormhole`]);
//! * `faults`: retry, timeouts, link outages and node crashes;
//! * `delivery`: the message slab, delivery and the MMU release pump.

mod delivery;
mod dispatch;
mod faults;
mod flits;
mod jobs;
mod messaging;

use crate::config::{MachineConfig, Switching};
use crate::cpu::Cpu;
use crate::instrument::MachineMetrics;
use crate::memory::Mmu;
use crate::net::{ChannelState, Message, MsgId};
use crate::process::{JobId, PState, ProcKey, Process};
use crate::program::JobSpec;
use crate::rotation::{CpuExpress, CpuExpressStats, SettleReason};
use crate::timeline::{Span, SpanKind, Timeline};
use crate::wiring::SystemNet;
use crate::wormhole::WormholeState;
use parsched_des::rng::DetRng;
use parsched_des::{EventScheduler, Model, SimDuration, SimTime, TimerHandle};
use parsched_obs::{ObsEvent, Recorder};
use std::collections::VecDeque;

/// Events of the machine model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Event {
    /// A queued job arrives (begins loading).
    Admit {
        /// Which job.
        job: JobId,
    },
    /// Load latency elapsed: allocate the job's memory and spawn processes.
    LoadJob {
        /// Which job.
        job: JobId,
    },
    /// Poke a node's CPU to dispatch if idle.
    Dispatch {
        /// Global node index.
        node: u32,
    },
    /// The running item on `node` reached its scheduled boundary.
    SliceEnd {
        /// Global node index.
        node: u32,
        /// Dispatch sequence (stale events are ignored).
        seq: u64,
    },
    /// The transfer occupying channel `chan` finished.
    TransferDone {
        /// Channel table index.
        chan: u32,
    },
    /// Wormhole: one flit time elapsed on a ticking channel — arbitrate
    /// the link among its virtual channels and move one flit.
    FlitTick {
        /// Channel table index.
        chan: u32,
    },
    /// Packetized store-and-forward: the pipelined start of a message's
    /// next path edge, one packet latency after the previous edge started.
    HopStart {
        /// Which message.
        msg: MsgId,
        /// Path-edge index to start.
        edge: usize,
    },
    /// A starved transit buffer request escapes to the emergency pool.
    AllocEscape {
        /// Node whose MMU queue holds the request.
        node: u32,
        /// The waiting message.
        msg: MsgId,
        /// Slot generation at schedule time. Message slots are recycled,
        /// so a timer can outlive its message; a stale generation means
        /// the slot now holds a different message and the timer is void.
        gen: u32,
    },
    /// A scheduling-policy timer. The machine ignores it; policy drivers
    /// (e.g. the gang scheduler) intercept it before forwarding events.
    PolicyTick {
        /// Opaque policy-defined token (e.g. a partition index).
        token: u64,
    },
    /// A node fail-stops (declared in the fault plan): its resident jobs
    /// are killed and reported via [`Note::JobFailed`]. The node's link
    /// engines keep forwarding traffic (Transputer links ran independently
    /// of the CPU), so no in-transit message is stranded.
    NodeCrash {
        /// Global node index.
        node: u32,
    },
    /// A declared link-outage window opens.
    LinkDown {
        /// Channel table index.
        chan: u32,
    },
    /// A declared link-outage window closes.
    LinkUp {
        /// Channel table index.
        chan: u32,
    },
    /// A failed delivery attempt's backoff elapsed: retransmit from the
    /// source.
    MsgRetry {
        /// Which message.
        msg: MsgId,
        /// Slot generation at schedule time (stale = slot recycled).
        gen: u32,
    },
    /// A message's delivery timeout fired before the attempt completed.
    MsgTimeout {
        /// Which message.
        msg: MsgId,
        /// Slot generation at schedule time (stale = slot recycled).
        gen: u32,
    },
}

/// Notifications the machine emits for the scheduling policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Note {
    /// The job's memory is resident; it awaits [`Machine::start_job`]
    /// (emitted for jobs queued with `auto_start = false`).
    JobReady(JobId),
    /// The job's processes are runnable.
    JobLoaded(JobId),
    /// All of the job's processes finished; memory has been freed.
    JobCompleted(JobId),
    /// The job was killed by a fault (node crash or retry-budget
    /// exhaustion); its memory has been freed and its messages accounted
    /// as dropped. The scheduler may requeue the work under a fresh id.
    JobFailed(JobId),
}

/// Lifecycle state of a job inside the machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobState {
    /// Queued via [`Machine::queue_job`], not yet admitted.
    Queued,
    /// Admitted; load latency or memory allocation outstanding.
    Loading,
    /// Loaded and resident, waiting for [`Machine::start_job`].
    Ready,
    /// Processes runnable/running.
    Running,
    /// Complete.
    Done,
    /// Killed by a fault; terminal like [`JobState::Done`] but without
    /// producing results (the scheduler reruns the work as a new job).
    Failed,
}

/// Per-job runtime bookkeeping.
#[derive(Debug)]
pub struct JobRuntime {
    /// Identifier.
    pub id: JobId,
    /// Name from the [`JobSpec`].
    pub name: String,
    /// rank -> global node.
    pub placement: Vec<u32>,
    /// rank -> process key (filled at spawn).
    pub proc_keys: Vec<ProcKey>,
    /// Memory charged per node, for release at completion.
    pub mem_per_node: Vec<(u32, u64)>,
    /// Outstanding job-load allocations.
    pub pending_allocs: u32,
    /// Processes not yet finished.
    pub live_procs: u32,
    /// Per-rank mailboxes of delivered, unconsumed messages.
    pub mailboxes: Vec<VecDeque<MsgId>>,
    /// Round-robin quantum for this job's processes.
    pub quantum: SimDuration,
    /// Lifecycle state.
    pub state: JobState,
    /// When the job was admitted (arrival).
    pub submitted_at: SimTime,
    /// When its processes became runnable.
    pub loaded_at: SimTime,
    /// When it completed.
    pub finished_at: SimTime,
    /// Sequential CPU demand (from the spec; for reporting).
    pub total_compute: SimDuration,
    /// Bytes shipped through the host link at load time.
    pub ship_bytes: u64,
    /// Spawn processes as soon as the load completes (vs. waiting for
    /// [`Machine::start_job`]).
    pub auto_start: bool,
    /// Parked by the policy (gang scheduling): processes exist but are
    /// withheld from the ready queues.
    pub parked: bool,
    /// Earliest instant the host-link loader may start shipping this job
    /// (zero = no constraint). The sharded runner sets it to the job's
    /// loader start in the *global* admission order, so per-shard machines
    /// reproduce the sequential loader serialization exactly.
    pub load_floor: SimTime,
    /// Blueprint, held until spawn.
    spec: Option<JobSpec>,
}

impl JobRuntime {
    /// Response time: completion minus arrival.
    ///
    /// # Panics
    /// Panics if the job has not completed.
    pub fn response_time(&self) -> SimDuration {
        assert_eq!(self.state, JobState::Done, "job {:?} not done", self.id);
        self.finished_at.since(self.submitted_at)
    }
}

/// One node: a CPU plus its memory.
#[derive(Debug)]
pub struct Node {
    /// The CPU.
    pub cpu: Cpu,
    /// The memory pool + MMU queue.
    pub mmu: Mmu,
}

/// Machine-wide counters (see also per-node and per-channel state).
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct Counters {
    /// Messages injected.
    pub messages_sent: u64,
    /// Messages consumed by receivers.
    pub messages_consumed: u64,
    /// Total payload bytes injected.
    pub bytes_sent: u64,
    /// Total hop transfers completed.
    pub hop_transfers: u64,
    /// Self-addressed messages (same-node mailbox traffic).
    pub self_sends: u64,
    /// Processes that blocked at least once waiting for a send buffer.
    pub send_blocks: u64,
    /// Transit requests that starved past the escape timeout and were
    /// satisfied from the emergency pool.
    pub transit_escapes: u64,
    /// Jobs completed.
    pub jobs_completed: u64,
    /// Messages terminally dropped and accounted (owning job killed).
    /// Conservation holds as `messages_sent == messages_consumed +
    /// messages_dropped`; nothing is ever silently lost.
    pub messages_dropped: u64,
    /// Retransmission attempts scheduled after failed deliveries.
    pub retries: u64,
    /// Delivery timeouts fired.
    pub timeouts: u64,
    /// Node crashes executed from the fault plan.
    pub node_crashes: u64,
    /// Link-outage windows opened (per direction).
    pub link_downs: u64,
    /// Jobs killed by faults.
    pub jobs_failed: u64,
    /// Failed jobs requeued by the scheduler under a fresh job id.
    pub jobs_requeued: u64,
    /// Failed jobs the scheduler gave up on after exhausting its requeue
    /// budget (terminal: counted once, never requeued again).
    pub jobs_abandoned: u64,
    /// Wormhole: flits entering the network (counted per attempt at worm
    /// creation; a retried message injects its flits again).
    pub flits_injected: u64,
    /// Wormhole: flits ejected into destination memory. Conservation:
    /// `flits_injected == flits_ejected + flits_dropped` at quiesce.
    pub flits_ejected: u64,
    /// Wormhole: flits lost when a fault drained an in-flight worm
    /// (including source flits the drained attempt never transmitted).
    pub flits_dropped: u64,
    /// Wormhole: flit credits consumed (one per flit-link transmission).
    pub credits_issued: u64,
    /// Wormhole: flit credits returned (buffer drained downstream, flit
    /// ejected, or worm drained by a fault). Conservation:
    /// `credits_issued == credits_returned` at quiesce.
    pub credits_returned: u64,
    /// Wormhole: virtual-channel grants (fresh allocations and handoffs
    /// to queued waiters).
    pub vc_allocs: u64,
    /// Wormhole: link arbitrations that found every resident worm blocked
    /// on the credit window (head-of-line back-pressure, not VC scarcity).
    pub credit_stalls: u64,
}

impl Counters {
    /// Fold another machine's counters into this one (the sharded runner
    /// sums per-shard counters into the machine-wide totals).
    pub fn absorb(&mut self, other: &Counters) {
        let Counters {
            messages_sent,
            messages_consumed,
            bytes_sent,
            hop_transfers,
            self_sends,
            send_blocks,
            transit_escapes,
            jobs_completed,
            messages_dropped,
            retries,
            timeouts,
            node_crashes,
            link_downs,
            jobs_failed,
            jobs_requeued,
            jobs_abandoned,
            flits_injected,
            flits_ejected,
            flits_dropped,
            credits_issued,
            credits_returned,
            vc_allocs,
            credit_stalls,
        } = other;
        self.messages_sent += messages_sent;
        self.messages_consumed += messages_consumed;
        self.bytes_sent += bytes_sent;
        self.hop_transfers += hop_transfers;
        self.self_sends += self_sends;
        self.send_blocks += send_blocks;
        self.transit_escapes += transit_escapes;
        self.jobs_completed += jobs_completed;
        self.messages_dropped += messages_dropped;
        self.retries += retries;
        self.timeouts += timeouts;
        self.node_crashes += node_crashes;
        self.link_downs += link_downs;
        self.jobs_failed += jobs_failed;
        self.jobs_requeued += jobs_requeued;
        self.jobs_abandoned += jobs_abandoned;
        self.flits_injected += flits_injected;
        self.flits_ejected += flits_ejected;
        self.flits_dropped += flits_dropped;
        self.credits_issued += credits_issued;
        self.credits_returned += credits_returned;
        self.vc_allocs += vc_allocs;
        self.credit_stalls += credit_stalls;
    }
}

/// The simulated multicomputer.
///
/// Per-node and per-channel state is built for a prefix of the machine's
/// partitions: partitions `0..built` (see [`Machine::built_partitions`]).
/// It starts empty and grows, with idle state stamped at `t0`, to cover a
/// partition when a job is queued onto it or a fault names one of its
/// nodes or channels. Until then nothing can have touched that state, so
/// building it late is the same as building it at construction. The
/// state stays in flat vectors indexed by global id, so every access on
/// the event path is a plain index.
pub struct Machine {
    /// Timing and policy-mechanism configuration.
    pub cfg: MachineConfig,
    net: SystemNet,
    /// Per-node state of the built partitions.
    pub(crate) nodes: Vec<Node>,
    /// What [`Machine::node`] returns for a node not built yet.
    idle: Node,
    /// Partitions whose state is built (a prefix of the plan).
    built: usize,
    /// Per-channel state of the built partitions.
    channels: Vec<ChannelState>,
    pub(crate) procs: Vec<Process>,
    jobs: Vec<JobRuntime>,
    /// Message slab: slots of retired messages are recycled via
    /// `free_msgs`, so the arena stays at the peak number of messages
    /// simultaneously in flight instead of growing with every send.
    messages: Vec<Option<Message>>,
    /// Free slot indices in `messages`, reused LIFO.
    free_msgs: Vec<u32>,
    /// Per-slot generation, bumped at each free; guards stale
    /// [`Event::AllocEscape`] timers against slot reuse.
    msg_gen: Vec<u32>,
    /// Per-slot pending transit-escape timer, cancelled when the queued
    /// transit reservation is granted normally (the common case). The
    /// generation check in `on_alloc_escape` remains the correctness
    /// backstop for any timer that outlives its message.
    escape_timers: Vec<Option<TimerHandle>>,
    /// Per-slot pending fault-protocol timer: either the delivery timeout
    /// of the attempt in flight or the backoff timer of the next retry
    /// (never both at once). Guarded by `msg_gen` like the escape timers;
    /// `None` whenever the fault plan sets no `msg_timeout`.
    fault_timers: Vec<Option<TimerHandle>>,
    /// Per-node fail-stop flag (fault plan), over the built nodes. A dead
    /// node's CPU schedules no new job work, but its link engines keep
    /// forwarding traffic.
    dead: Vec<bool>,
    /// Deterministic per-hop drop lottery: one independent substream per
    /// channel (`drop_seed` → `substream_idx("drop", chan)`), so the draw
    /// sequence a channel sees depends only on its own completed hops —
    /// never on traffic elsewhere. Substreams are numbered by the
    /// machine-wide channel index ([`SystemNet::channel_base`] plus the
    /// local one), which makes the lottery identical whether the machine
    /// simulates the whole system or one shard's partitions. Built
    /// (and drawn) only while `cfg.faults.drop_prob > 0`, for the built
    /// channels; an empty plan allocates nothing and performs zero draws.
    drop_rngs: Vec<DetRng>,
    /// Cached `!cfg.faults.is_empty()`: gates every fault-path branch so a
    /// clean run stays on the exact pre-fault code path.
    faults_on: bool,
    /// The switching fabric `cfg.switching` selects, fixed at
    /// construction.
    fabric: Fabric,
    /// Round-robin windows running in closed form (see [`crate::rotation`]).
    pub(crate) cpu_express: CpuExpress,
    notes: Vec<Note>,
    /// Machine-wide counters.
    pub counters: Counters,
    /// Typed event sink. `None` (the default) is the zero-cost disabled
    /// state: hook sites pay one branch, no formatting, no allocation.
    /// Install a [`parsched_obs::CollectRecorder`] for exporters or a
    /// [`parsched_obs::RingRecorder`] for a bounded human-readable log.
    pub recorder: Option<Box<dyn Recorder>>,
    /// Time-weighted gauges (CPU busy/idle, ready depth, link occupancy,
    /// partition MPL). `None` disables sampling entirely.
    pub metrics: Option<Box<MachineMetrics>>,
    /// Execution spans (enable via `MachineConfig::record_timeline`).
    pub timeline: Timeline,
    /// When the host-link loader next becomes free (loads serialize).
    loader_free_at: SimTime,
    t0: SimTime,
}

impl Machine {
    /// Build a machine over the given wiring. No partition's state is
    /// built yet: it grows as jobs and faults reach partitions.
    pub fn new(cfg: MachineConfig, net: SystemNet) -> Machine {
        let t0 = SimTime::ZERO;
        let timeline = if cfg.record_timeline {
            Timeline::enabled(2_000_000)
        } else {
            Timeline::disabled()
        };
        let faults_on = !cfg.faults.is_empty();
        let fabric = Fabric::new(&cfg, &net);
        Machine {
            idle: idle_node(&cfg, t0),
            cfg,
            net,
            nodes: Vec::new(),
            built: 0,
            channels: Vec::new(),
            procs: Vec::new(),
            jobs: Vec::new(),
            messages: Vec::new(),
            free_msgs: Vec::new(),
            msg_gen: Vec::new(),
            escape_timers: Vec::new(),
            fault_timers: Vec::new(),
            dead: Vec::new(),
            drop_rngs: Vec::new(),
            faults_on,
            fabric,
            cpu_express: CpuExpress::default(),
            notes: Vec::new(),
            counters: Counters::default(),
            recorder: None,
            metrics: None,
            timeline,
            loader_free_at: SimTime::ZERO,
            t0,
        }
    }

    /// Build every partition's state now. A machine built whole is the
    /// reference the differential oracle holds the on-demand one to.
    #[doc(hidden)]
    pub fn build_all(&mut self) {
        if let Some(last) = self.net.partitions().checked_sub(1) {
            self.grow_to(last);
        }
    }

    /// Partitions whose per-node and per-channel state is built: jobs
    /// queued onto them, faults naming them, and every partition before.
    pub fn built_partitions(&self) -> usize {
        self.built
    }

    /// Build idle state, stamped `t0`, for every partition up to and
    /// including `p`.
    fn grow_to(&mut self, p: usize) {
        if p < self.built {
            return;
        }
        self.built = p + 1;
        let nodes = self.built * self.net.partition_size();
        let chans = self.built * self.net.channels_per_partition();
        let (cfg, t0) = (&self.cfg, self.t0);
        self.nodes.resize_with(nodes, || idle_node(cfg, t0));
        self.dead.resize(nodes, false);
        self.cpu_express.grow(nodes);
        let net = &self.net;
        self.channels.extend((self.channels.len()..chans).map(|c| {
            let g = net.channel(c);
            ChannelState::new(g.from, g.to, t0)
        }));
        if self.cfg.faults.drop_prob > 0.0 {
            // Keyed by the machine-wide channel index, so a sub-network
            // draws exactly the whole machine's numbers on its channels.
            let root = DetRng::new(self.cfg.faults.drop_seed);
            let base = self.net.channel_base();
            self.drop_rngs.extend(
                (self.drop_rngs.len()..chans)
                    .map(|c| root.substream_idx("drop", (base + c) as u64)),
            );
        }
        if let Some(wh) = self.fabric.wormhole_mut() {
            wh.grow(chans);
        }
    }

    /// Build the partition of channel `c`, if it is not built yet.
    fn grow_for_channel(&mut self, c: u32) {
        self.grow_to(c as usize / self.net.channels_per_partition());
    }

    /// Emit a typed event (single branch when no recorder is installed).
    #[inline]
    fn obs(&mut self, now: SimTime, ev: ObsEvent) {
        if let Some(r) = self.recorder.as_deref_mut() {
            r.record(now, ev);
        }
    }

    /// Emit a typed event from outside the machine (the policy driver uses
    /// this for partition-admission events).
    #[inline]
    pub fn observe(&mut self, now: SimTime, ev: ObsEvent) {
        self.obs(now, ev);
    }

    /// Sample a node's CPU busy signal into the metrics registry.
    #[inline]
    fn note_cpu_busy(&mut self, node: u32, now: SimTime, busy: f64) {
        if let Some(m) = self.metrics.as_deref_mut() {
            m.set_cpu_busy(node, now, busy);
        }
    }

    /// Sample a node's ready-queue depth into the metrics registry.
    #[inline]
    fn note_ready_depth(&mut self, node: u32, now: SimTime) {
        if self.metrics.is_some() {
            let depth = self.nodes[node as usize].cpu.ready_depth();
            if let Some(m) = self.metrics.as_deref_mut() {
                m.set_ready_depth(node, now, depth);
            }
        }
    }

    /// Sample a link's occupancy signal into the metrics registry.
    #[inline]
    fn note_link_busy(&mut self, chan: u32, now: SimTime, busy: f64) {
        if let Some(m) = self.metrics.as_deref_mut() {
            m.set_link_busy(chan, now, busy);
        }
    }

    /// Sample the engine's pending cancellable timers into the metrics
    /// registry.
    #[inline]
    fn note_timers_pending(&mut self, now: SimTime, sched: &impl EventScheduler<Event>) {
        if let Some(m) = self.metrics.as_deref_mut() {
            m.set_timers_pending(now, sched.timer_count());
        }
    }

    /// Sample the fraction of nodes still alive into the metrics registry.
    #[inline]
    fn note_alive_capacity(&mut self, now: SimTime) {
        if self.metrics.is_some() {
            let dead = self.dead.iter().filter(|&&d| d).count();
            let nodes = self.node_count();
            let frac = (nodes - dead) as f64 / nodes.max(1) as f64;
            if let Some(m) = self.metrics.as_deref_mut() {
                m.set_alive_capacity(now, frac);
            }
        }
    }

    /// Record a compute span for `pk` (no-op when the timeline is off).
    fn record_compute(&mut self, pk: ProcKey, start: SimTime, end: SimTime) {
        if !self.timeline.is_enabled() || end <= start {
            return;
        }
        let p = &self.procs[pk.idx()];
        self.timeline.record(Span {
            kind: SpanKind::Compute,
            node: p.node,
            job: Some(p.job),
            proc_: Some(pk),
            rank: Some(p.rank),
            start,
            end,
        });
    }

    /// Number of processors (built or not).
    pub fn node_count(&self) -> usize {
        self.net.nodes()
    }

    /// The wiring.
    pub fn net(&self) -> &SystemNet {
        &self.net
    }

    /// Per-node state (read-only). A node whose partition is not built
    /// reads as one shared idle node.
    ///
    /// # Panics
    /// Panics when `n` is not below [`Machine::node_count`].
    pub fn node(&self, n: u32) -> &Node {
        assert!((n as usize) < self.node_count(), "node {n} out of range");
        self.nodes.get(n as usize).unwrap_or(&self.idle)
    }

    /// Per-node state of the built partitions, indexed by node id. Every
    /// node past the end is idle.
    pub(crate) fn built_nodes(&self) -> &[Node] {
        &self.nodes
    }

    /// Per-channel state of the built partitions, indexed by channel id.
    /// Every channel past the end is idle.
    pub fn channel_states(&self) -> &[ChannelState] {
        &self.channels
    }

    /// Job runtime info.
    pub fn job(&self, id: JobId) -> &JobRuntime {
        &self.jobs[id.idx()]
    }

    /// All jobs.
    pub fn jobs(&self) -> &[JobRuntime] {
        &self.jobs
    }

    /// Estimated remaining sequential compute demand of a job: its spec's
    /// total demand minus the CPU time its processes have accrued so far
    /// (the whole demand while the job is still loading). Saturates at
    /// zero — accrued CPU time includes messaging overheads, which are not
    /// part of the spec's compute demand.
    ///
    /// Brings the CPU express windows of the job's nodes up to the event
    /// being handled first, so the accrued time is the slice-by-slice
    /// value.
    pub fn job_remaining(
        &mut self,
        id: JobId,
        sched: &mut impl EventScheduler<Event>,
    ) -> SimDuration {
        if self.cpu_express.any_open() {
            let point = sched.cursor().key;
            for i in 0..self.jobs[id.idx()].placement.len() {
                let node = self.jobs[id.idx()].placement[i];
                self.express_read(node, point, SettleReason::Read, sched);
            }
        }
        let job = &self.jobs[id.idx()];
        let accrued = job
            .proc_keys
            .iter()
            .map(|pk| self.procs[pk.idx()].cpu_time)
            .fold(SimDuration::ZERO, |a, b| a + b);
        job.total_compute.saturating_sub(accrued)
    }

    /// Retarget the round-robin quantum of a job and all its live
    /// processes (dynamic-quantum disciplines recompute quanta as the
    /// partition's population changes). Takes effect at each process's
    /// *next dispatch*: a currently-running slice keeps the expiry it was
    /// dispatched with, exactly like a real kernel re-tuning its timeslice.
    /// A node whose rotation runs in closed form is settled first.
    pub fn set_job_quantum(
        &mut self,
        id: JobId,
        quantum: SimDuration,
        sched: &mut impl EventScheduler<Event>,
    ) {
        self.jobs[id.idx()].quantum = quantum;
        for k in 0..self.jobs[id.idx()].proc_keys.len() {
            let pk = self.jobs[id.idx()].proc_keys[k];
            let p = &self.procs[pk.idx()];
            if p.quantum != quantum {
                self.settle_cpu(p.node, SettleReason::Quantum, sched);
            }
            self.procs[pk.idx()].quantum = quantum;
        }
    }

    /// Run every slice as an event: the reference the CPU express path
    /// is held to (see [`crate::rotation`]).
    #[doc(hidden)]
    pub fn set_slice_reference(&mut self, on: bool) {
        self.cpu_express.reference = on;
    }

    /// How the CPUs used the express path.
    pub fn cpu_express_stats(&self) -> CpuExpressStats {
        self.cpu_express.stats
    }

    /// Process table (read-only).
    pub fn processes(&self) -> &[Process] {
        &self.procs
    }

    /// True once every queued job has reached a terminal state (completed,
    /// or killed by a fault — a failed job makes no further progress; its
    /// rerun is a separate job).
    pub fn all_jobs_done(&self) -> bool {
        self.jobs
            .iter()
            .all(|j| matches!(j.state, JobState::Done | JobState::Failed))
    }

    /// Drain accumulated notifications (the policy driver calls this after
    /// every event).
    pub fn drain_notes(&mut self) -> Vec<Note> {
        std::mem::take(&mut self.notes)
    }

    /// Notifications raised and not yet drained, oldest first.
    pub fn pending_notes(&self) -> &[Note] {
        &self.notes
    }

    /// Register a job without admitting it. `placement[rank]` is the global
    /// node for that rank; every rank must be inside one partition.
    /// Returns the id to use with [`Event::Admit`].
    ///
    /// # Panics
    /// Panics if the placement length differs from the spec width, a node
    /// index is out of range, or the job spans partitions.
    pub fn queue_job(&mut self, spec: JobSpec, placement: Vec<u32>, quantum: SimDuration) -> JobId {
        self.queue_job_with(spec, placement, quantum, true)
    }

    /// Like [`Machine::queue_job`], with control over whether the job's
    /// processes spawn automatically when its load completes
    /// (`auto_start = true`) or wait for [`Machine::start_job`].
    pub fn queue_job_with(
        &mut self,
        spec: JobSpec,
        placement: Vec<u32>,
        quantum: SimDuration,
        auto_start: bool,
    ) -> JobId {
        assert_eq!(
            placement.len(),
            spec.width(),
            "placement must cover every rank"
        );
        assert!(!placement.is_empty(), "job needs at least one process");
        let part = self.net.partition_of(placement[0]);
        for &n in &placement {
            assert!((n as usize) < self.node_count(), "node {n} out of range");
            assert_eq!(
                self.net.partition_of(n),
                part,
                "job '{}' spans partitions",
                spec.name
            );
        }
        self.grow_to(part);
        let id = JobId(self.jobs.len() as u32);
        if let Some(wh) = self.fabric.wormhole_mut() {
            wh.jobs[part].push(id);
        }
        let width = spec.width();
        // Sum the per-node memory demand once.
        let mut per_node: Vec<(u32, u64)> = Vec::new();
        for (rank, p) in spec.procs.iter().enumerate() {
            let node = placement[rank];
            match per_node.iter_mut().find(|(n, _)| *n == node) {
                Some((_, b)) => *b += p.mem_bytes,
                None => per_node.push((node, p.mem_bytes)),
            }
        }
        // Fail fast on a job that can never load: stalling later is much
        // harder to diagnose.
        let usable = self.cfg.mem_capacity.saturating_sub(self.cfg.os_overhead);
        for &(node, bytes) in &per_node {
            assert!(
                bytes <= usable,
                "job '{}' needs {bytes} B on node {node} but only {usable} B \
                 of the {} B node memory is usable",
                spec.name,
                self.cfg.mem_capacity,
            );
        }
        self.jobs.push(JobRuntime {
            id,
            name: spec.name.clone(),
            placement,
            proc_keys: Vec::new(),
            mem_per_node: per_node,
            pending_allocs: 0,
            live_procs: width as u32,
            mailboxes: (0..width).map(|_| VecDeque::new()).collect(),
            quantum,
            state: JobState::Queued,
            submitted_at: SimTime::ZERO,
            loaded_at: SimTime::ZERO,
            finished_at: SimTime::ZERO,
            total_compute: spec.total_compute(),
            ship_bytes: spec.effective_ship_bytes(),
            auto_start,
            parked: false,
            load_floor: SimTime::ZERO,
            spec: Some(spec),
        });
        id
    }

    /// Constrain a queued job's host-link load to start no earlier than
    /// `floor` (see [`JobRuntime::load_floor`]). Must be called before the
    /// job is admitted.
    pub fn set_load_floor(&mut self, job: JobId, floor: SimTime) {
        let j = &mut self.jobs[job.idx()];
        assert_eq!(j.state, JobState::Queued, "load floor after admission");
        j.load_floor = floor;
    }

    /// Start a [`JobState::Ready`] job's processes.
    ///
    /// # Panics
    /// Panics if the job is not `Ready`.
    pub fn start_job(&mut self, job: JobId, now: SimTime, sched: &mut impl EventScheduler<Event>) {
        assert_eq!(
            self.jobs[job.idx()].state,
            JobState::Ready,
            "start_job on a job that is not ready"
        );
        self.spawn_job(job, now, sched);
    }

    /// Seed the fault plan's declared events (node crashes and link-outage
    /// windows) with the engine. Call once before the run, alongside
    /// arrival seeding. An empty plan seeds nothing, so fault-free runs
    /// allocate identical event sequence numbers and stay bit-identical.
    /// Crashes on out-of-range nodes and windows on out-of-range or
    /// non-adjacent node pairs are ignored.
    pub fn seed_faults(&mut self, seeder: &mut impl parsched_des::EventSeeder<Event>) {
        let plan = self.cfg.faults.clone();
        // Canonical same-instant order: crashes fire in (time, node) order
        // regardless of declaration order, so a sharded run — whose
        // coordinator serves same-instant crash fallout in partition
        // order — agrees with the sequential engine on ties.
        let mut crashes = plan.crashes.clone();
        crashes.sort_by_key(|c| (c.at, c.node));
        for c in &crashes {
            if (c.node as usize) < self.node_count() {
                seeder.seed(c.at, Event::NodeCrash { node: c.node });
            }
        }
        let nodes = self.node_count();
        for w in &plan.links {
            if w.up_at <= w.down_at || w.from as usize >= nodes || w.to as usize >= nodes {
                continue;
            }
            for (a, b) in [(w.from, w.to), (w.to, w.from)] {
                if let Some(chan) = self.net.channel_id(a, b) {
                    seeder.seed(w.down_at, Event::LinkDown { chan: chan as u32 });
                    seeder.seed(w.up_at, Event::LinkUp { chan: chan as u32 });
                }
            }
        }
    }

    /// False once the node's CPU has fail-stopped (fault plan).
    pub fn node_alive(&self, n: u32) -> bool {
        !self.dead.get(n as usize).copied().unwrap_or(false)
    }

    /// Park or release a job's processes (gang scheduling support).
    ///
    /// Parking removes the job's Ready processes from their ready queues
    /// and preempts its Running ones (they lose the rest of their quantum,
    /// like any preemption on this machine); blocked processes stay blocked
    /// but will not re-enter a queue until released. Releasing re-enqueues
    /// every Ready process. High-priority system work is unaffected.
    pub fn set_job_active(
        &mut self,
        job: JobId,
        active: bool,
        now: SimTime,
        sched: &mut impl EventScheduler<Event>,
    ) {
        if self.jobs[job.idx()].state != JobState::Running {
            // Not spawned yet (or already done): just record the wish; the
            // spawn path reads `parked` from the PCB default (false), so
            // pre-spawn parking is applied at spawn time via job record.
            self.jobs[job.idx()].parked = !active;
            return;
        }
        self.jobs[job.idx()].parked = !active;
        let keys = self.jobs[job.idx()].proc_keys.clone();
        for pk in keys {
            self.procs[pk.idx()].parked = !active;
            let node = self.procs[pk.idx()].node;
            self.settle_cpu(node, SettleReason::Parking, sched);
            let state = self.procs[pk.idx()].state;
            if !active {
                match state {
                    PState::Ready => {
                        self.nodes[node as usize].cpu.remove_low(pk);
                        self.note_ready_depth(node, now);
                    }
                    PState::Running if self.running_low(node) == Some(pk) => {
                        // Preempt in place; the parked process waits off
                        // the queue.
                        self.preempt_and_requeue(node, now, sched);
                    }
                    _ => {}
                }
            } else if state == PState::Ready {
                self.nodes[node as usize].cpu.low.push_back(pk);
                self.note_ready_depth(node, now);
                self.dispatch(node, now, sched);
            }
        }
    }

    /// Current size of the message slab (its high-water mark: slots are
    /// recycled, so this is the peak number of messages simultaneously
    /// retained, not the total ever sent).
    pub fn message_arena_len(&self) -> usize {
        self.messages.len()
    }

    /// Wormhole state (tests and exporters; `None` unless
    /// `cfg.switching == Switching::Wormhole`).
    pub fn wormhole(&self) -> Option<&WormholeState> {
        self.fabric.wormhole()
    }

    /// Run every worm flit by flit: the reference the express path is
    /// held to. For differential tests only; results are identical either
    /// way, only the host work differs. No-op off wormhole switching.
    #[doc(hidden)]
    pub fn set_flit_reference(&mut self, on: bool) {
        if let Some(wh) = self.fabric.wormhole_mut() {
            wh.flit_reference = on;
        }
    }
}

/// The switching fabric, fixed by `cfg.switching` at construction: the
/// event path branches on this, never on the config, and wormhole state
/// exists exactly when the fabric is wormhole.
enum Fabric {
    /// [`Switching::StoreAndForward`].
    StoreAndForward,
    /// [`Switching::PacketizedSaf`].
    Packetized,
    /// [`Switching::Wormhole`]: per-link virtual-channel tables and the
    /// in-flight worm table.
    Wormhole(Box<WormholeState>),
}

impl Fabric {
    fn new(cfg: &MachineConfig, net: &SystemNet) -> Fabric {
        match cfg.switching {
            Switching::StoreAndForward => Fabric::StoreAndForward,
            Switching::PacketizedSaf => Fabric::Packetized,
            Switching::Wormhole => Fabric::Wormhole(Box::new(WormholeState::new(cfg, net))),
        }
    }

    fn wormhole(&self) -> Option<&WormholeState> {
        match self {
            Fabric::Wormhole(wh) => Some(wh),
            _ => None,
        }
    }

    fn wormhole_mut(&mut self) -> Option<&mut WormholeState> {
        match self {
            Fabric::Wormhole(wh) => Some(wh),
            _ => None,
        }
    }

    /// The wormhole state, for the wormhole layer: only a wormhole fabric
    /// routes a message into it.
    fn wh(&self) -> &WormholeState {
        self.wormhole()
            .expect("wormhole layer on a non-wormhole fabric")
    }

    /// Mutable [`Fabric::wh`].
    fn wh_mut(&mut self) -> &mut WormholeState {
        self.wormhole_mut()
            .expect("wormhole layer on a non-wormhole fabric")
    }
}

/// The message slab's live slots.
trait MsgSlab {
    /// The live message in slot `id`.
    fn live(&self, id: MsgId) -> &Message;
    /// Mutable [`MsgSlab::live`].
    fn live_mut(&mut self, id: MsgId) -> &mut Message;
}

impl MsgSlab for [Option<Message>] {
    fn live(&self, id: MsgId) -> &Message {
        self[id.idx()].as_ref().expect("dead message")
    }

    fn live_mut(&mut self, id: MsgId) -> &mut Message {
        self[id.idx()].as_mut().expect("dead message")
    }
}

/// Disposition after loading or completing a CPU phase.
enum PhaseLoad {
    NeedCpu,
    Blocked,
    Finished,
}

impl Model for Machine {
    type Event = Event;

    fn handle(&mut self, now: SimTime, event: Event, sched: &mut impl EventScheduler<Event>) {
        match event {
            Event::Admit { job } => self.on_admit(job, now, sched),
            Event::LoadJob { job } => self.on_load_job(job, now, sched),
            Event::Dispatch { node } => self.dispatch(node, now, sched),
            Event::SliceEnd { node, seq } => self.on_slice_end(node, seq, now, sched),
            Event::TransferDone { chan } => self.on_transfer_done(chan, now, sched),
            Event::FlitTick { chan } => self.on_flit_tick(chan, now, sched),
            Event::HopStart { msg, edge } => self.on_hop_start(msg, edge, now, sched),
            Event::AllocEscape { node, msg, gen } => {
                self.on_alloc_escape(node, msg, gen, now, sched)
            }
            Event::PolicyTick { .. } => {} // policy drivers intercept these
            Event::NodeCrash { node } => self.on_node_crash(node, now, sched),
            Event::LinkDown { chan } => self.on_link_down(chan, now, sched),
            Event::LinkUp { chan } => self.on_link_up(chan, now, sched),
            Event::MsgRetry { msg, gen } => self.on_msg_retry(msg, gen, now, sched),
            Event::MsgTimeout { msg, gen } => self.on_msg_timeout(msg, gen, now, sched),
        }
    }

    fn run_ended(&mut self, sched: &mut impl EventScheduler<Event>) {
        self.express_run_ended(sched);
    }
}

/// An idle node stamped `t0`: the state a node has until something runs
/// on it.
fn idle_node(cfg: &MachineConfig, t0: SimTime) -> Node {
    let mut mmu = Mmu::new(cfg.mem_capacity.saturating_sub(cfg.os_overhead), t0);
    mmu.policy = cfg.alloc_policy;
    mmu.set_transit_reserve(cfg.transit_reserve);
    Node {
        cpu: Cpu::new(t0),
        mmu,
    }
}

impl Machine {
    /// The machine's start-of-time (for statistics baselines).
    pub fn t0(&self) -> SimTime {
        self.t0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::{Op, ProcSpec, Rank, Tag};
    use parsched_des::{Engine, QueueKind, RunOutcome};
    use parsched_topology::{build, PartitionPlan, TopologyKind};

    fn single_node_machine() -> Machine {
        Machine::new(
            MachineConfig::default(),
            SystemNet::single(&build::linear(1).unwrap()),
        )
    }

    fn compute_spec(name: &str, ms: u64, mem: u64) -> JobSpec {
        JobSpec {
            name: name.into(),
            ship_bytes: 0,
            procs: vec![ProcSpec {
                program: vec![Op::Compute(SimDuration::from_millis(ms))],
                mem_bytes: mem,
            }],
        }
    }

    #[test]
    fn event_size_is_pinned() {
        // Every pending event is a heap entry: a wider `Event` (say, a
        // generation field on `FlitTick`) would grow every entry of every
        // run. Express timers ride on plain `FlitTick`s instead.
        assert_eq!(std::mem::size_of::<Event>(), 16);
    }

    #[test]
    #[should_panic(expected = "placement must cover every rank")]
    fn queue_job_rejects_short_placement() {
        let mut m = single_node_machine();
        let spec = JobSpec {
            name: "two".into(),
            ship_bytes: 0,
            procs: vec![
                ProcSpec {
                    program: vec![],
                    mem_bytes: 0,
                },
                ProcSpec {
                    program: vec![],
                    mem_bytes: 0,
                },
            ],
        };
        m.queue_job(spec, vec![0], SimDuration::from_millis(2));
    }

    #[test]
    #[should_panic(expected = "spans partitions")]
    fn queue_job_rejects_cross_partition_jobs() {
        let plan = PartitionPlan::equal(4, 2, TopologyKind::Linear).unwrap();
        let mut m = Machine::new(MachineConfig::default(), SystemNet::from_plan(&plan));
        let spec = JobSpec {
            name: "straddle".into(),
            ship_bytes: 0,
            procs: vec![
                ProcSpec {
                    program: vec![],
                    mem_bytes: 0,
                },
                ProcSpec {
                    program: vec![],
                    mem_bytes: 0,
                },
            ],
        };
        m.queue_job(spec, vec![1, 2], SimDuration::from_millis(2));
    }

    #[test]
    #[should_panic(expected = "but only 2883584 B of the 4194304 B node memory is usable")]
    fn queue_job_rejects_impossible_memory() {
        let mut m = single_node_machine();
        m.queue_job(
            compute_spec("huge", 1, 64 * 1024 * 1024),
            vec![0],
            SimDuration::from_millis(2),
        );
    }

    #[test]
    #[should_panic(expected = "not ready")]
    fn start_job_requires_ready_state() {
        let mut m = single_node_machine();
        let id = m.queue_job(
            compute_spec("j", 1, 0),
            vec![0],
            SimDuration::from_millis(2),
        );
        let mut engine: Engine<Event> = Engine::new(QueueKind::BinaryHeap);
        // Never admitted: still Queued.
        engine.seed(SimTime::ZERO, Event::Dispatch { node: 0 });
        engine.run(&mut m);
        // Calling start_job on a Queued job must panic; drive through the
        // model API to get a Scheduler.
        let mut e2: Engine<Event> = Engine::new(QueueKind::BinaryHeap);
        e2.seed(SimTime::ZERO, Event::Dispatch { node: 0 });
        struct Caller {
            m: Machine,
            id: JobId,
        }
        impl Model for Caller {
            type Event = Event;
            fn handle(&mut self, now: SimTime, _: Event, sched: &mut impl EventScheduler<Event>) {
                self.m.start_job(self.id, now, sched);
            }
        }
        let mut caller = Caller { m, id };
        e2.run(&mut caller);
    }

    #[test]
    fn loader_serializes_admissions() {
        // Two jobs admitted at t=0 with nonzero ship bytes: the second's
        // load completes one full load-duration after the first's.
        let cfg = MachineConfig {
            job_load_latency: SimDuration::from_millis(10),
            host_link_per_byte: SimDuration::from_micros(1), // 1 ms per KB
            ..MachineConfig::default()
        };
        let mut m = Machine::new(cfg, SystemNet::single(&build::linear(2).unwrap()));
        let a = m.queue_job(
            compute_spec("a", 1, 10_000),
            vec![0],
            SimDuration::from_millis(2),
        );
        let b = m.queue_job(
            compute_spec("b", 1, 10_000),
            vec![1],
            SimDuration::from_millis(2),
        );
        let mut engine: Engine<Event> = Engine::new(QueueKind::BinaryHeap);
        engine.seed(SimTime::ZERO, Event::Admit { job: a });
        engine.seed(SimTime::ZERO, Event::Admit { job: b });
        assert_eq!(engine.run(&mut m), RunOutcome::Drained);
        let ja = m.job(a);
        let jb = m.job(b);
        // Each load = 10 ms fixed + 10 ms shipping = 20 ms.
        assert_eq!(ja.loaded_at, SimTime::ZERO + SimDuration::from_millis(20));
        assert_eq!(jb.loaded_at, SimTime::ZERO + SimDuration::from_millis(40));
    }

    #[test]
    fn ship_bytes_override_shortens_loads() {
        let cfg = MachineConfig {
            job_load_latency: SimDuration::ZERO,
            host_link_per_byte: SimDuration::from_micros(1),
            ..MachineConfig::default()
        };
        let mut m = Machine::new(cfg, SystemNet::single(&build::linear(1).unwrap()));
        let mut spec = compute_spec("light", 1, 100_000);
        spec.ship_bytes = 1_000; // resident 100 KB but only 1 KB shipped
        let id = m.queue_job(spec, vec![0], SimDuration::from_millis(2));
        let mut engine: Engine<Event> = Engine::new(QueueKind::BinaryHeap);
        engine.seed(SimTime::ZERO, Event::Admit { job: id });
        engine.run(&mut m);
        assert_eq!(
            m.job(id).loaded_at,
            SimTime::ZERO + SimDuration::from_millis(1)
        );
    }

    #[test]
    fn parked_job_makes_no_progress_until_released() {
        let mut m = single_node_machine();
        let id = m.queue_job(
            compute_spec("parked", 5, 0),
            vec![0],
            SimDuration::from_millis(2),
        );
        // Park before it spawns.
        struct ParkThenRelease {
            m: Machine,
            id: JobId,
            released: bool,
        }
        impl Model for ParkThenRelease {
            type Event = Event;
            fn handle(&mut self, now: SimTime, ev: Event, sched: &mut impl EventScheduler<Event>) {
                if let Event::PolicyTick { token } = ev {
                    match token {
                        0 => self.m.set_job_active(self.id, false, now, sched),
                        1 => {
                            // Job must not have finished while parked.
                            assert_ne!(self.m.job(self.id).state, JobState::Done);
                            self.m.set_job_active(self.id, true, now, sched);
                            self.released = true;
                        }
                        _ => unreachable!(),
                    }
                    return;
                }
                self.m.handle(now, ev, sched);
            }
        }
        let mut engine: Engine<Event> = Engine::new(QueueKind::BinaryHeap);
        engine.seed(SimTime::ZERO, Event::PolicyTick { token: 0 }); // park first
        engine.seed(SimTime::ZERO, Event::Admit { job: id });
        engine.seed(
            SimTime::ZERO + SimDuration::from_secs(1),
            Event::PolicyTick { token: 1 },
        );
        let mut model = ParkThenRelease {
            m,
            id,
            released: false,
        };
        assert_eq!(engine.run(&mut model), RunOutcome::Drained);
        assert!(model.released);
        let job = model.m.job(id);
        assert_eq!(job.state, JobState::Done);
        // The 5 ms of compute could only happen after the 1 s release.
        assert!(job.finished_at >= SimTime::ZERO + SimDuration::from_secs(1));
    }

    #[test]
    fn counters_track_a_simple_exchange() {
        let mut m = Machine::new(
            MachineConfig::default(),
            SystemNet::single(&build::linear(2).unwrap()),
        );
        let spec = JobSpec {
            name: "pair".into(),
            ship_bytes: 0,
            procs: vec![
                ProcSpec {
                    program: vec![Op::Send {
                        to: Rank(1),
                        bytes: 500,
                        tag: Tag(1),
                    }],
                    mem_bytes: 0,
                },
                ProcSpec {
                    program: vec![Op::Recv { tag: Tag(1) }],
                    mem_bytes: 0,
                },
            ],
        };
        let id = m.queue_job(spec, vec![0, 1], SimDuration::from_millis(2));
        let mut engine: Engine<Event> = Engine::new(QueueKind::BinaryHeap);
        engine.seed(SimTime::ZERO, Event::Admit { job: id });
        engine.run(&mut m);
        assert_eq!(m.counters.messages_sent, 1);
        assert_eq!(m.counters.bytes_sent, 500);
        assert_eq!(m.counters.hop_transfers, 1);
        assert_eq!(m.counters.self_sends, 0);
        assert_eq!(m.counters.jobs_completed, 1);
        // No fault plan: the fault machinery must not register anything.
        assert_eq!(m.counters.messages_dropped, 0);
        assert_eq!(m.counters.retries, 0);
        assert_eq!(m.counters.timeouts, 0);
        assert_eq!(m.counters.node_crashes, 0);
        assert_eq!(m.counters.link_downs, 0);
        assert_eq!(m.counters.jobs_failed, 0);
    }

    // --- fault injection ---

    use crate::fault::{FaultPlan, LinkWindow, NodeCrash};

    fn faulty_machine(faults: FaultPlan) -> Machine {
        let cfg = MachineConfig {
            job_load_latency: SimDuration::ZERO,
            host_link_per_byte: SimDuration::ZERO,
            faults,
            ..MachineConfig::default()
        };
        Machine::new(cfg, SystemNet::single(&build::linear(2).unwrap()))
    }

    fn pair_spec(sender: Vec<Op>, receiver: Vec<Op>) -> JobSpec {
        JobSpec {
            name: "pair".into(),
            ship_bytes: 0,
            procs: vec![
                ProcSpec {
                    program: sender,
                    mem_bytes: 0,
                },
                ProcSpec {
                    program: receiver,
                    mem_bytes: 0,
                },
            ],
        }
    }

    fn run_faulty(m: &mut Machine, id: JobId) {
        let mut engine: Engine<Event> = Engine::new(QueueKind::BinaryHeap);
        m.seed_faults(&mut engine);
        engine.seed(SimTime::ZERO, Event::Admit { job: id });
        assert_eq!(engine.run(m), RunOutcome::Drained);
    }

    #[test]
    fn node_crash_kills_job_and_accounts_messages() {
        let mut faults = FaultPlan::default();
        faults.crashes.push(NodeCrash {
            node: 1,
            at: SimTime::ZERO + SimDuration::from_millis(100),
        });
        let mut m = faulty_machine(faults);
        // Rank 1 consumes one of two messages, then computes far past the
        // crash instant; the second message dies unconsumed in its mailbox.
        let spec = pair_spec(
            vec![
                Op::Send {
                    to: Rank(1),
                    bytes: 500,
                    tag: Tag(1),
                },
                Op::Send {
                    to: Rank(1),
                    bytes: 500,
                    tag: Tag(2),
                },
            ],
            vec![
                Op::Recv { tag: Tag(1) },
                Op::Compute(SimDuration::from_secs(1)),
            ],
        );
        let id = m.queue_job(spec, vec![0, 1], SimDuration::from_millis(2));
        run_faulty(&mut m, id);
        assert_eq!(m.job(id).state, JobState::Failed);
        assert!(!m.node_alive(1));
        assert!(m.node_alive(0));
        assert_eq!(m.counters.node_crashes, 1);
        assert_eq!(m.counters.jobs_failed, 1);
        assert_eq!(m.counters.messages_sent, 2);
        // Dropped-and-accounted: nothing silently lost.
        assert_eq!(
            m.counters.messages_sent,
            m.counters.messages_consumed + m.counters.messages_dropped
        );
        assert!(m.counters.messages_dropped >= 1);
        let notes = m.drain_notes();
        assert!(
            notes
                .iter()
                .any(|n| matches!(n, Note::JobFailed(j) if *j == id)),
            "driver must be told: {notes:?}"
        );
    }

    #[test]
    fn mailbox_overflow_retries_until_healed() {
        let mut faults = FaultPlan {
            mailbox_capacity: Some(1),
            ..FaultPlan::default()
        };
        faults.retry.max_retries = 10;
        let mut m = faulty_machine(faults);
        // Two sends race into a one-slot mailbox while the receiver is
        // busy; the rejected delivery must back off and eventually land.
        let spec = pair_spec(
            vec![
                Op::Send {
                    to: Rank(1),
                    bytes: 500,
                    tag: Tag(1),
                },
                Op::Send {
                    to: Rank(1),
                    bytes: 500,
                    tag: Tag(2),
                },
            ],
            vec![
                Op::Compute(SimDuration::from_millis(5)),
                Op::Recv { tag: Tag(1) },
                Op::Recv { tag: Tag(2) },
            ],
        );
        let id = m.queue_job(spec, vec![0, 1], SimDuration::from_millis(2));
        run_faulty(&mut m, id);
        assert_eq!(m.job(id).state, JobState::Done);
        assert!(m.counters.retries >= 1, "no retry recorded");
        assert_eq!(m.counters.messages_sent, 2);
        assert_eq!(m.counters.messages_consumed, 2);
        assert_eq!(m.counters.messages_dropped, 0);
    }

    #[test]
    fn link_window_delays_delivery_until_repair() {
        let mut faults = FaultPlan::default();
        let up_at = SimTime::ZERO + SimDuration::from_millis(20);
        faults.links.push(LinkWindow {
            from: 0,
            to: 1,
            down_at: SimTime::ZERO,
            up_at,
        });
        let mut m = faulty_machine(faults);
        let spec = pair_spec(
            vec![Op::Send {
                to: Rank(1),
                bytes: 500,
                tag: Tag(1),
            }],
            vec![Op::Recv { tag: Tag(1) }],
        );
        let id = m.queue_job(spec, vec![0, 1], SimDuration::from_millis(2));
        run_faulty(&mut m, id);
        assert_eq!(m.job(id).state, JobState::Done);
        // Both directions of the pair go down and come back.
        assert_eq!(m.counters.link_downs, 2);
        assert!(
            m.job(id).finished_at >= up_at,
            "delivery crossed a down link: finished {} < repair {}",
            m.job(id).finished_at,
            up_at
        );
        assert_eq!(m.counters.messages_consumed, 1);
    }

    #[test]
    fn out_of_range_faults_are_ignored() {
        let mut faults = FaultPlan::default();
        let late = SimTime::ZERO + SimDuration::from_millis(1);
        faults.crashes.push(NodeCrash {
            node: 1_000,
            at: late,
        });
        faults.links.push(LinkWindow {
            from: 1_000,
            to: 1_001,
            down_at: late,
            up_at: late + SimDuration::from_millis(1),
        });
        let mut m = faulty_machine(faults);
        let spec = pair_spec(
            vec![Op::Send {
                to: Rank(1),
                bytes: 500,
                tag: Tag(1),
            }],
            vec![Op::Recv { tag: Tag(1) }],
        );
        let id = m.queue_job(spec, vec![0, 1], SimDuration::from_millis(2));
        run_faulty(&mut m, id);
        assert_eq!(m.job(id).state, JobState::Done);
        assert_eq!(m.counters.node_crashes, 0);
        assert_eq!(m.counters.link_downs, 0);
    }

    #[test]
    fn certain_corruption_exhausts_retry_budget() {
        let faults = FaultPlan {
            drop_prob: 1.0,
            ..FaultPlan::default()
        };
        let mut m = faulty_machine(faults);
        let spec = pair_spec(
            vec![Op::Send {
                to: Rank(1),
                bytes: 500,
                tag: Tag(1),
            }],
            vec![Op::Recv { tag: Tag(1) }],
        );
        let id = m.queue_job(spec, vec![0, 1], SimDuration::from_millis(2));
        run_faulty(&mut m, id);
        assert_eq!(m.job(id).state, JobState::Failed);
        assert_eq!(m.counters.retries, m.cfg.faults.retry.max_retries as u64);
        assert_eq!(m.counters.jobs_failed, 1);
        assert_eq!(m.counters.messages_sent, 1);
        assert_eq!(m.counters.messages_consumed, 0);
        assert_eq!(m.counters.messages_dropped, 1);
    }

    #[test]
    fn crash_replay_is_deterministic() {
        fn run_once() -> Vec<parsched_obs::TimedEvent> {
            let mut faults = FaultPlan::default();
            faults.crashes.push(NodeCrash {
                node: 1,
                at: SimTime::ZERO + SimDuration::from_millis(3),
            });
            faults.drop_prob = 0.05;
            faults.drop_seed = 7;
            faults.retry.max_retries = 10;
            let mut m = faulty_machine(faults);
            m.recorder = Some(Box::new(parsched_obs::CollectRecorder::new()));
            let spec = pair_spec(
                vec![
                    Op::Send {
                        to: Rank(1),
                        bytes: 2_000,
                        tag: Tag(1),
                    },
                    Op::Compute(SimDuration::from_millis(10)),
                ],
                vec![
                    Op::Recv { tag: Tag(1) },
                    Op::Compute(SimDuration::from_millis(10)),
                ],
            );
            let id = m.queue_job(spec, vec![0, 1], SimDuration::from_millis(2));
            run_faulty(&mut m, id);
            m.recorder
                .as_deref_mut()
                .and_then(|r| {
                    r.as_any_mut()
                        .downcast_mut::<parsched_obs::CollectRecorder>()
                })
                .expect("collector installed")
                .take_events()
        }
        let a = run_once();
        let b = run_once();
        assert!(!a.is_empty());
        assert!(
            a.iter()
                .any(|(_, ev)| matches!(ev, parsched_obs::ObsEvent::NodeCrashed { .. })),
            "crash not recorded"
        );
        assert_eq!(a, b, "fault replay diverged");
    }
}
