//! The machine: nodes, network and the event protocol tying them together.
//!
//! [`Machine`] implements [`parsched_des::Model`]; driving it with an
//! [`Engine`](parsched_des::Engine) executes submitted jobs to completion.
//! Scheduling *policies* (who gets which partition, when, with what quantum)
//! live in `parsched-core`; this crate provides the mechanism:
//!
//! * two-priority CPUs with round-robin quanta and quantum-loss preemption;
//! * per-node memory with a FIFO-queued MMU;
//! * store-and-forward (or cut-through) message passing over serialized
//!   links, with per-hop buffer reservation and handler CPU costs;
//! * wormhole switching with virtual channels and credits, flit by flit
//!   or, across a quiescent partition, in closed form (the express path);
//! * mailbox matching and blocking receives.

use crate::config::{FlowControl, MachineConfig, SendMode, Switching};
use crate::cpu::{Cpu, HandlerAction, HandlerTask, RunKind, Running};
use crate::memory::{AllocResult, AllocWaiter, Mmu};
use crate::net::{ChannelState, Message, MsgId};
use crate::process::{JobId, PState, Phase, ProcKey, Process};
use crate::timeline::{Span, SpanKind, Timeline};
use crate::program::{JobSpec, Op, Rank, Tag};
use crate::rotation::{CpuExpress, CpuExpressStats, SettleReason};
use crate::instrument::MachineMetrics;
use crate::wiring::SystemNet;
use crate::wormhole::{
    progress, replay_busy, Express, ExpressStep, FlitReason, Worm, WormLink, WormholeState,
};
use parsched_des::rng::DetRng;
use parsched_des::{EventScheduler, Model, SimDuration, SimTime, TimerHandle};
use parsched_obs::{ObsEvent, QuantumEndReason, Recorder};
use parsched_topology::{vc_classes, NodeId};
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
    /// Cut-through: the pipelined start of a message's next path edge.
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
    /// Wormhole switching state (`Some` iff `cfg.switching` is
    /// [`Switching::Wormhole`]): per-link virtual-channel tables and the
    /// in-flight worm table.
    wormhole: Option<WormholeState>,
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
        let wormhole =
            (cfg.switching == Switching::Wormhole).then(|| WormholeState::new(&cfg, &net));
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
            wormhole,
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
                (self.drop_rngs.len()..chans).map(|c| root.substream_idx("drop", (base + c) as u64)),
            );
        }
        if let Some(wh) = self.wormhole.as_mut() {
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

    /// Count an engine-held reference to a message slot (a wire occupancy,
    /// a scheduled pipelined-edge start, or a queued arrival handler).
    /// Pure bookkeeping on clean runs: a cancelled slot is reclaimed only
    /// once every counted reference has drained, so no stale event can
    /// observe a recycled slot. Packet-relay handler tasks are *not*
    /// counted — they never act on the slot and may legitimately outlive
    /// it even on clean runs.
    #[inline]
    fn ref_msg(&mut self, msg: MsgId) {
        if let Some(m) = self.messages[msg.idx()].as_mut() {
            m.live_refs += 1;
        }
    }

    /// Drop one counted reference (see [`Machine::ref_msg`]).
    #[inline]
    fn unref_msg(&mut self, msg: MsgId) {
        if let Some(m) = self.messages[msg.idx()].as_mut() {
            m.live_refs = m.live_refs.saturating_sub(1);
        }
    }

    /// Reclaim a cancelled message's slot once nothing references it.
    fn maybe_reclaim(&mut self, msg: MsgId) {
        let reclaim = self.messages[msg.idx()]
            .as_ref()
            .filter(|m| m.cancelled && m.live_refs == 0)
            .map(|m| m.src_node);
        if let Some(src) = reclaim {
            self.messages[msg.idx()] = None;
            self.free_msg(msg, src);
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
    pub fn job_remaining(&mut self, id: JobId, sched: &mut impl EventScheduler<Event>) -> SimDuration {
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
    pub fn queue_job(
        &mut self,
        spec: JobSpec,
        placement: Vec<u32>,
        quantum: SimDuration,
    ) -> JobId {
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
        if let Some(wh) = self.wormhole.as_mut() {
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

    // ------------------------------------------------------------------
    // Job lifecycle
    // ------------------------------------------------------------------

    fn on_admit(&mut self, job: JobId, now: SimTime, sched: &mut impl EventScheduler<Event>) {
        // The new job's processes may contend for an express worm's route:
        // hand the worm back to the flit path first.
        let part = self.net.partition_of(self.jobs[job.idx()].placement[0]);
        self.materialize_partition(part, now, sched);
        self.obs(now, ObsEvent::JobArrived { job: job.0 });
        let ship = self.jobs[job.idx()].ship_bytes;
        let j = &mut self.jobs[job.idx()];
        assert_eq!(j.state, JobState::Queued, "job admitted twice");
        j.state = JobState::Loading;
        j.submitted_at = now;
        // Ship the job's code + data through the single host link: loads
        // are globally serialized (FIFO in admission order). The floor
        // models loader occupancy this machine instance cannot see (jobs
        // admitted on other shards of a sharded run).
        let duration = self.cfg.load_duration(ship);
        let start = if self.loader_free_at > now {
            self.loader_free_at
        } else {
            now
        }
        .max(j.load_floor);
        self.loader_free_at = start + duration;
        // `loader_free_at` never decreases, so the loads form an ordered
        // stream.
        sched.schedule_ordered(self.loader_free_at, Event::LoadJob { job });
    }

    fn on_load_job(&mut self, job: JobId, now: SimTime, sched: &mut impl EventScheduler<Event>) {
        // Request the job's resident memory on every node it touches. Any
        // allocation that cannot be satisfied queues on that node's MMU;
        // the job spawns when the last grant lands.
        let per_node = self.jobs[job.idx()].mem_per_node.clone();
        let mut pending = 0;
        for (node, bytes) in per_node {
            if bytes == 0 {
                continue;
            }
            match self.nodes[node as usize]
                .mmu
                .request(now, bytes, AllocWaiter::JobLoad(job))
            {
                AllocResult::Granted => {}
                AllocResult::Queued => pending += 1,
            }
        }
        self.jobs[job.idx()].pending_allocs = pending;
        if pending == 0 {
            self.finish_load(job, now, sched);
        }
    }

    /// The job's memory is fully resident: spawn or park it.
    fn finish_load(&mut self, job: JobId, now: SimTime, sched: &mut impl EventScheduler<Event>) {
        if self.faults_on
            && self.jobs[job.idx()]
                .placement
                .iter()
                .any(|&n| self.dead[n as usize])
        {
            // A node this job was placed on crashed while it was loading:
            // the load is wasted and the job fails immediately (the
            // scheduler requeues it onto survivors).
            self.fail_job(job, now, sched);
            return;
        }
        if self.jobs[job.idx()].auto_start {
            self.spawn_job(job, now, sched);
        } else {
            self.jobs[job.idx()].state = JobState::Ready;
            self.notes.push(Note::JobReady(job));
        }
    }

    fn spawn_job(&mut self, job: JobId, now: SimTime, sched: &mut impl EventScheduler<Event>) {
        debug_assert!(
            matches!(
                self.jobs[job.idx()].state,
                JobState::Loading | JobState::Ready
            ),
            "spawning a job in the wrong state"
        );
        let spec = self.jobs[job.idx()]
            .spec
            .take()
            .expect("job spawned twice");
        let quantum = self.jobs[job.idx()].quantum;
        let placement = self.jobs[job.idx()].placement.clone();
        self.jobs[job.idx()].state = JobState::Running;
        self.jobs[job.idx()].loaded_at = now;
        let mut keys = Vec::with_capacity(spec.width());
        for (rank, pspec) in spec.procs.into_iter().enumerate() {
            let key = ProcKey(self.procs.len() as u32);
            keys.push(key);
            self.procs.push(Process::new(
                key,
                job,
                Rank(rank as u32),
                placement[rank],
                pspec.program,
                quantum,
                now,
            ));
        }
        self.jobs[job.idx()].proc_keys = keys.clone();
        if self.jobs[job.idx()].parked {
            for &key in &keys {
                self.procs[key.idx()].parked = true;
            }
        }
        self.notes.push(Note::JobLoaded(job));
        self.obs(now, ObsEvent::JobLoaded { job: job.0 });
        for key in keys {
            self.make_runnable(key, now, sched);
        }
    }

    fn finish_process(&mut self, pk: ProcKey, now: SimTime, sched: &mut impl EventScheduler<Event>) {
        let p = &mut self.procs[pk.idx()];
        p.state = PState::Finished;
        p.finished_at = now;
        let job = p.job;
        let j = &mut self.jobs[job.idx()];
        j.live_procs -= 1;
        if j.live_procs == 0 {
            j.state = JobState::Done;
            j.finished_at = now;
            debug_assert!(
                j.mailboxes.iter().all(|m| m.is_empty()),
                "job '{}' finished with unconsumed messages",
                j.name
            );
            self.counters.jobs_completed += 1;
            let mem = j.mem_per_node.clone();
            for (node, bytes) in mem {
                if bytes > 0 {
                    self.release_memory(node, bytes, now, sched);
                }
            }
            self.notes.push(Note::JobCompleted(job));
            self.obs(now, ObsEvent::JobFinished { job: job.0 });
        }
    }

    // ------------------------------------------------------------------
    // Process execution
    // ------------------------------------------------------------------

    /// Load the process's next CPU phase (possibly advancing over zero-cost
    /// ops). Returns `true` if the process needs the CPU, `false` if it
    /// blocked or finished (in which case its state has been updated and
    /// any finish bookkeeping done).
    fn make_runnable(&mut self, pk: ProcKey, now: SimTime, sched: &mut impl EventScheduler<Event>) -> bool {
        match self.load_phase(pk, now) {
            PhaseLoad::NeedCpu => {
                self.enqueue_ready(pk, now, sched);
                true
            }
            PhaseLoad::Blocked => false,
            PhaseLoad::Finished => {
                self.finish_process(pk, now, sched);
                false
            }
        }
    }

    /// Mark a process Ready and put it on its node's low-priority queue —
    /// unless its job is parked (gang scheduling), in which case it stays
    /// Ready but off-queue until [`Machine::set_job_active`] releases it.
    fn enqueue_ready(&mut self, pk: ProcKey, now: SimTime, sched: &mut impl EventScheduler<Event>) {
        let p = &mut self.procs[pk.idx()];
        p.state = PState::Ready;
        if p.parked {
            return;
        }
        let node = p.node;
        self.settle_cpu(node, SettleReason::Wakeup, sched);
        self.nodes[node as usize].cpu.low.push_back(pk);
        self.note_ready_depth(node, now);
        self.dispatch(node, now, sched);
    }

    /// Examine ops from `pc` until a CPU phase is loaded, the process
    /// blocks, or the program ends. Does not touch ready queues.
    fn load_phase(&mut self, pk: ProcKey, _now: SimTime) -> PhaseLoad {
        loop {
            let p = &self.procs[pk.idx()];
            let Some(op) = p.current_op() else {
                return PhaseLoad::Finished;
            };
            match *op {
                Op::Compute(d) => {
                    if d.is_zero() {
                        self.procs[pk.idx()].pc += 1;
                        continue;
                    }
                    let p = &mut self.procs[pk.idx()];
                    p.phase = Phase::Compute;
                    p.remaining = d;
                    return PhaseLoad::NeedCpu;
                }
                Op::Send { bytes, .. } => {
                    let cost = self.cfg.send_cost(bytes);
                    let p = &mut self.procs[pk.idx()];
                    p.phase = Phase::SendOverhead;
                    p.remaining = cost;
                    return PhaseLoad::NeedCpu;
                }
                Op::Recv { tag } => {
                    if self.try_claim(pk, tag) {
                        return PhaseLoad::NeedCpu;
                    }
                    self.procs[pk.idx()].state = PState::BlockedRecv(tag);
                    return PhaseLoad::Blocked;
                }
                Op::RecvAny { count, tag } => {
                    let p = &mut self.procs[pk.idx()];
                    if p.recv_left == 0 {
                        if count == 0 {
                            p.pc += 1;
                            continue;
                        }
                        p.recv_left = count;
                    }
                    if self.try_claim(pk, tag) {
                        return PhaseLoad::NeedCpu;
                    }
                    self.procs[pk.idx()].state = PState::BlockedRecv(tag);
                    return PhaseLoad::Blocked;
                }
            }
        }
    }

    /// Pop a matching message from the process's mailbox and load the
    /// receive-overhead phase. Returns `false` if no message matches.
    fn try_claim(&mut self, pk: ProcKey, tag: Tag) -> bool {
        let (job, rank) = {
            let p = &self.procs[pk.idx()];
            (p.job, p.rank)
        };
        let messages = &self.messages;
        let pos = self.jobs[job.idx()].mailboxes[rank.idx()]
            .iter()
            .position(|&m| messages[m.idx()].as_ref().is_some_and(|mm| mm.tag == tag));
        let Some(pos) = pos else {
            return false;
        };
        let msg = self.jobs[job.idx()].mailboxes[rank.idx()]
            .remove(pos)
            .expect("position valid");
        let bytes = self.messages[msg.idx()].as_ref().expect("claimed dead message").bytes;
        let cost = self.cfg.recv_cost(bytes);
        let p = &mut self.procs[pk.idx()];
        p.claimed = Some(msg);
        p.phase = Phase::RecvOverhead;
        p.remaining = cost;
        true
    }

    /// The loaded CPU phase just completed (remaining hit zero). Advance the
    /// program. Returns the next disposition (same meanings as
    /// [`Machine::load_phase`]).
    fn complete_phase(&mut self, pk: ProcKey, now: SimTime, sched: &mut impl EventScheduler<Event>) -> PhaseLoad {
        let phase = self.procs[pk.idx()].phase;
        self.procs[pk.idx()].phase = Phase::Idle;
        match phase {
            Phase::Compute => {
                self.procs[pk.idx()].pc += 1;
                self.load_phase(pk, now)
            }
            Phase::SendOverhead => {
                // Overhead paid; now stage the message and (maybe) block for
                // the source buffer.
                if self.begin_injection(pk, now, sched) {
                    self.procs[pk.idx()].pc += 1;
                    self.load_phase(pk, now)
                } else {
                    self.procs[pk.idx()].state = PState::BlockedAlloc;
                    PhaseLoad::Blocked
                }
            }
            Phase::RecvOverhead => {
                let msg = self.procs[pk.idx()]
                    .claimed
                    .take()
                    .expect("RecvOverhead with no claimed message");
                self.consume_message(msg, now, sched);
                let p = &mut self.procs[pk.idx()];
                match p.current_op() {
                    Some(Op::Recv { .. }) => {
                        p.pc += 1;
                        self.load_phase(pk, now)
                    }
                    Some(Op::RecvAny { tag, .. }) => {
                        let tag = *tag;
                        p.recv_left -= 1;
                        if p.recv_left == 0 {
                            p.pc += 1;
                            self.load_phase(pk, now)
                        } else if self.try_claim(pk, tag) {
                            PhaseLoad::NeedCpu
                        } else {
                            self.procs[pk.idx()].state = PState::BlockedRecv(tag);
                            PhaseLoad::Blocked
                        }
                    }
                    other => panic!("RecvOverhead completed on non-recv op {other:?}"),
                }
            }
            Phase::Idle => panic!("complete_phase on Idle"),
        }
    }

    /// Requeue a process at its node's queue tail (unless parked). Callers
    /// dispatch afterwards.
    fn requeue_ready(&mut self, pk: ProcKey, now: SimTime) {
        let p = &mut self.procs[pk.idx()];
        p.state = PState::Ready;
        if p.parked {
            return;
        }
        let node = p.node;
        self.nodes[node as usize].cpu.low.push_back(pk);
        self.note_ready_depth(node, now);
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

    // ------------------------------------------------------------------
    // CPU scheduling
    // ------------------------------------------------------------------

    /// Enqueue high-priority work on a node, preempting low-priority work.
    fn enqueue_high(&mut self, node: u32, task: HandlerTask, now: SimTime, sched: &mut impl EventScheduler<Event>) {
        if let HandlerAction::HopArrived(m) = task.action {
            self.ref_msg(m);
        }
        self.settle_cpu(node, SettleReason::Interrupt, sched);
        self.nodes[node as usize].cpu.high.push_back(task);
        match self.nodes[node as usize].cpu.running {
            None => self.dispatch(node, now, sched),
            Some(Running { kind: RunKind::Low(_), .. }) => self.preempt_and_requeue(node, now, sched),
            Some(Running { kind: RunKind::High(_), .. }) => {
                // High-priority work runs to completion; the new task waits
                // its turn in FIFO order.
            }
        }
    }

    /// The low-priority process running on `node`, if any.
    fn running_low(&self, node: u32) -> Option<ProcKey> {
        match self.nodes[node as usize].cpu.running {
            Some(Running { kind: RunKind::Low(pk), .. }) => Some(pk),
            _ => None,
        }
    }

    /// Preempt the low-priority process running on `node` (a caller has
    /// settled the node): account its partial slice; it loses the rest of
    /// its quantum (T805 rule). Returns the process.
    fn preempt_low(&mut self, node: u32, now: SimTime, sched: &mut impl EventScheduler<Event>) -> ProcKey {
        let cpu = &mut self.nodes[node as usize].cpu;
        let Some(Running { kind: RunKind::Low(pk), work_started, .. }) = cpu.running.take() else {
            unreachable!("no low-priority process to preempt");
        };
        cpu.preemptions += 1;
        cpu.bump_seq();
        if let Some(h) = cpu.slice_timer.take() {
            sched.cancel_timer(h);
        }
        let elapsed = now.saturating_since(work_started);
        self.record_compute(pk, work_started, now);
        let p = &mut self.procs[pk.idx()];
        let used = elapsed.min(p.remaining);
        p.remaining -= used;
        p.cpu_time += used;
        let (job, rank) = (p.job.0, p.rank.0);
        self.obs(
            now,
            ObsEvent::QuantumEnd {
                node,
                job,
                rank,
                reason: QuantumEndReason::Preempted,
            },
        );
        pk
    }

    /// Preempt the low-priority process running on `node`, put it back at
    /// its queue's tail (unless parked) and dispatch. A phase that ended at
    /// this very instant is treated as a normal boundary.
    fn preempt_and_requeue(&mut self, node: u32, now: SimTime, sched: &mut impl EventScheduler<Event>) {
        let pk = self.preempt_low(node, now, sched);
        if self.procs[pk.idx()].remaining.is_zero() {
            match self.complete_phase(pk, now, sched) {
                PhaseLoad::NeedCpu => self.requeue_ready(pk, now),
                PhaseLoad::Blocked => {}
                PhaseLoad::Finished => self.finish_process(pk, now, sched),
            }
        } else {
            self.requeue_ready(pk, now);
        }
        self.dispatch(node, now, sched);
    }

    /// Start the next item on an idle CPU.
    fn dispatch(&mut self, node: u32, now: SimTime, sched: &mut impl EventScheduler<Event>) {
        let cpu = &mut self.nodes[node as usize].cpu;
        if cpu.running.is_some() || cpu.hold {
            return;
        }
        if let Some(task) = cpu.high.pop_front() {
            let seq = cpu.bump_seq();
            let work_started = now + self.cfg.ctx_switch_high;
            let end = work_started + task.cost;
            cpu.running = Some(Running {
                kind: RunKind::High(task),
                work_started,
                quantum_end: end,
                seq,
            });
            cpu.handler_runs += 1;
            cpu.busy.set(now, true);
            cpu.slice_timer = Some(sched.schedule_timer_at(end, Event::SliceEnd { node, seq }));
            self.note_cpu_busy(node, now, 1.0);
            let (HandlerAction::HopArrived(msg) | HandlerAction::PacketRelay(msg)) =
                task.action;
            self.obs(now, ObsEvent::HandlerStart { node, msg: msg.0 });
            return;
        }
        let Some(pk) = cpu.low.pop_front() else {
            cpu.busy.set(now, false);
            self.note_cpu_busy(node, now, 0.0);
            return;
        };
        self.note_ready_depth(node, now);
        let cpu = &mut self.nodes[node as usize].cpu;
        let seq = cpu.bump_seq();
        cpu.ctx_switches += 1;
        let p = &mut self.procs[pk.idx()];
        debug_assert_eq!(p.state, PState::Ready, "dispatching non-ready process");
        p.state = PState::Running;
        let work_started = now + self.cfg.ctx_switch_low;
        let quantum_end = work_started + p.quantum;
        let end = quantum_end.min(work_started + p.remaining);
        let (job, rank) = (p.job.0, p.rank.0);
        let cpu = &mut self.nodes[node as usize].cpu;
        cpu.running = Some(Running {
            kind: RunKind::Low(pk),
            work_started,
            quantum_end,
            seq,
        });
        cpu.busy.set(now, true);
        let timer = self.arm_low_slice(node, end, sched);
        self.nodes[node as usize].cpu.slice_timer = Some(timer);
        self.note_cpu_busy(node, now, 1.0);
        self.note_timers_pending(now, sched);
        self.obs(now, ObsEvent::QuantumStart { node, job, rank });
    }

    fn on_slice_end(&mut self, node: u32, seq: u64, now: SimTime, sched: &mut impl EventScheduler<Event>) {
        if self.cpu_express.active(node) && !self.express_slice_end(node, seq, sched) {
            return;
        }
        let cpu = &mut self.nodes[node as usize].cpu;
        let Some(running) = cpu.running else {
            return; // stale
        };
        if running.seq != seq {
            return; // stale
        }
        cpu.running = None;
        cpu.slice_timer = None;
        match running.kind {
            RunKind::High(task) => {
                if self.timeline.is_enabled() {
                    let (HandlerAction::HopArrived(msg) | HandlerAction::PacketRelay(msg)) =
                        task.action;
                    let job = self.messages[msg.idx()].as_ref().map(|m| m.job);
                    self.timeline.record(Span {
                        kind: SpanKind::Handler,
                        node,
                        job,
                        proc_: None,
                        rank: None,
                        start: running.work_started,
                        end: now,
                    });
                }
                let (HandlerAction::HopArrived(msg) | HandlerAction::PacketRelay(msg)) =
                    task.action;
                self.obs(now, ObsEvent::HandlerEnd { node, msg: msg.0 });
                if let HandlerAction::HopArrived(m) = task.action {
                    self.unref_msg(m);
                    // A killed job's handler still burned its CPU cost
                    // (recovery is not free) but must not act on the slot.
                    let cancelled = match self.messages[m.idx()].as_ref() {
                        Some(mm) => mm.cancelled,
                        None => true,
                    };
                    if cancelled {
                        self.maybe_reclaim(m);
                        self.dispatch(node, now, sched);
                        return;
                    }
                }
                self.run_handler_action(task.action, node, now, sched);
                self.dispatch(node, now, sched);
            }
            RunKind::Low(pk) => {
                let elapsed = now.saturating_since(running.work_started);
                self.record_compute(pk, running.work_started, now);
                let p = &mut self.procs[pk.idx()];
                let used = elapsed.min(p.remaining);
                p.remaining -= used;
                p.cpu_time += used;
                let (job, rank) = (p.job.0, p.rank.0);
                let quantum_end = |reason| ObsEvent::QuantumEnd { node, job, rank, reason };
                if p.remaining.is_zero() {
                    // Advancing the program can have re-entrant side effects
                    // (self-send handlers, wakeups) that would otherwise
                    // dispatch onto this CPU while we still own the decision.
                    self.nodes[node as usize].cpu.hold = true;
                    let load = self.complete_phase(pk, now, sched);
                    self.nodes[node as usize].cpu.hold = false;
                    match load {
                        PhaseLoad::NeedCpu => {
                            let quantum_left = now < running.quantum_end;
                            let high_waiting =
                                !self.nodes[node as usize].cpu.high.is_empty();
                            if quantum_left && !high_waiting {
                                // Quantum not exhausted and nothing urgent:
                                // keep running.
                                let p = &mut self.procs[pk.idx()];
                                p.state = PState::Running;
                                let end = running.quantum_end.min(now + p.remaining);
                                let cpu = &mut self.nodes[node as usize].cpu;
                                let seq = cpu.bump_seq();
                                cpu.running = Some(Running {
                                    kind: RunKind::Low(pk),
                                    work_started: now,
                                    quantum_end: running.quantum_end,
                                    seq,
                                });
                                let timer = self.arm_low_slice(node, end, sched);
                                self.nodes[node as usize].cpu.slice_timer = Some(timer);
                                // The slice continues (same process, same
                                // quantum): no end event.
                                return;
                            }
                            let reason = if quantum_left {
                                QuantumEndReason::Preempted
                            } else {
                                QuantumEndReason::Expired
                            };
                            self.obs(now, quantum_end(reason));
                            self.requeue_ready(pk, now);
                            let cpu = &mut self.nodes[node as usize].cpu;
                            if quantum_left {
                                cpu.preemptions += 1;
                            } else {
                                cpu.quantum_expiries += 1;
                            }
                        }
                        PhaseLoad::Blocked => {
                            self.obs(now, quantum_end(QuantumEndReason::Blocked));
                        }
                        PhaseLoad::Finished => {
                            self.obs(now, quantum_end(QuantumEndReason::Completed));
                            self.finish_process(pk, now, sched)
                        }
                    }
                } else {
                    // Quantum expired mid-phase: round-robin requeue.
                    self.obs(now, quantum_end(QuantumEndReason::Expired));
                    self.requeue_ready(pk, now);
                    self.nodes[node as usize].cpu.quantum_expiries += 1;
                }
                self.dispatch(node, now, sched);
            }
        }
    }

    // ------------------------------------------------------------------
    // Messaging
    // ------------------------------------------------------------------

    /// Place a message in the slab, reusing a retired slot when one is
    /// free. Returns the id (also written into the message).
    fn alloc_msg(&mut self, mut m: Message) -> MsgId {
        if let Some(wh) = self.wormhole.as_mut() {
            wh.live_msgs[self.net.partition_of(m.src_node)] += 1;
        }
        match self.free_msgs.pop() {
            Some(i) => {
                let id = MsgId(i);
                m.id = id;
                debug_assert!(self.messages[id.idx()].is_none(), "slot still live");
                self.messages[id.idx()] = Some(m);
                id
            }
            None => {
                let id = MsgId(self.messages.len() as u32);
                m.id = id;
                self.messages.push(Some(m));
                self.msg_gen.push(0);
                self.escape_timers.push(None);
                self.fault_timers.push(None);
                id
            }
        }
    }

    /// Retire the slot of a message injected at `src` for reuse and
    /// invalidate outstanding timers.
    fn free_msg(&mut self, id: MsgId, src: u32) {
        if let Some(wh) = self.wormhole.as_mut() {
            wh.live_msgs[self.net.partition_of(src)] -= 1;
        }
        self.msg_gen[id.idx()] = self.msg_gen[id.idx()].wrapping_add(1);
        self.escape_timers[id.idx()] = None;
        self.fault_timers[id.idx()] = None;
        self.free_msgs.push(id.0);
    }

    /// Current size of the message slab (its high-water mark: slots are
    /// recycled, so this is the peak number of messages simultaneously
    /// retained, not the total ever sent).
    pub fn message_arena_len(&self) -> usize {
        self.messages.len()
    }

    /// Create the message for the `Send` op at the process's `pc` and claim
    /// its source buffer. Returns `true` if injection proceeded; `false` if
    /// the process must block until the buffer is granted.
    fn begin_injection(&mut self, pk: ProcKey, now: SimTime, sched: &mut impl EventScheduler<Event>) -> bool {
        let (job, from, node, to, bytes, tag) = {
            let p = &self.procs[pk.idx()];
            let Some(Op::Send { to, bytes, tag }) = p.current_op().cloned() else {
                panic!("begin_injection on non-send op");
            };
            (p.job, p.rank, p.node, to, bytes, tag)
        };
        let dst_node = self.jobs[job.idx()].placement[to.idx()];
        let hops = u32::try_from(
            self.net
                .hops(node, dst_node)
                .expect("job placement spans partitions"),
        )
        .expect("hop count exceeds u32");
        let id = self.alloc_msg(Message {
            id: MsgId(0), // overwritten by alloc_msg
            job,
            from,
            to,
            bytes,
            tag,
            src_node: node,
            dst_node,
            hops,
            at_node: node,
            front_node: node,
            done_node: node,
            edges_done: 0,
            edges_started: 0,
            injected_at: now,
            buffered_on: None,
            attempts: 0,
            corrupt: false,
            timed_out: false,
            cancelled: false,
            live_refs: 0,
        });
        self.counters.messages_sent += 1;
        self.counters.bytes_sent += bytes;
        self.obs(
            now,
            ObsEvent::MsgSend {
                msg: id.0,
                job: job.0,
                src: node,
                dst: dst_node,
                bytes: u32::try_from(bytes).unwrap_or(u32::MAX),
            },
        );
        let buf = bytes + self.cfg.msg_header_bytes;
        let waiter = match self.cfg.send_mode {
            SendMode::Async => AllocWaiter::PendingSend(id),
            SendMode::Blocking => AllocWaiter::Sender(pk),
        };
        match self.nodes[node as usize].mmu.request(now, buf, waiter) {
            AllocResult::Granted => {
                self.messages[id.idx()].as_mut().expect("just created").buffered_on =
                    Some(node);
                self.route_message(id, now, sched);
                true
            }
            AllocResult::Queued => {
                self.counters.send_blocks += 1;
                match self.cfg.send_mode {
                    // Asynchronous mailbox semantics: the message waits in
                    // the MMU queue; the process moves on immediately.
                    SendMode::Async => true,
                    SendMode::Blocking => {
                        self.procs[pk.idx()].pending_msg = Some(id);
                        false
                    }
                }
            }
        }
    }

    /// An asynchronously queued send finally got its source buffer.
    fn start_pending_send(&mut self, msg: MsgId, now: SimTime, sched: &mut impl EventScheduler<Event>) {
        let node = self.messages[msg.idx()]
            .as_ref()
            .expect("pending send dead")
            .src_node;
        self.messages[msg.idx()]
            .as_mut()
            .expect("pending send dead")
            .buffered_on = Some(node);
        self.route_message(msg, now, sched);
    }

    /// A blocked sender's buffer was granted: finish the injection and wake
    /// the process.
    fn finish_blocked_injection(&mut self, pk: ProcKey, now: SimTime, sched: &mut impl EventScheduler<Event>) {
        let msg = self.procs[pk.idx()]
            .pending_msg
            .take()
            .expect("sender unblocked with no pending message");
        let node = self.procs[pk.idx()].node;
        self.messages[msg.idx()]
            .as_mut()
            .expect("pending message alive")
            .buffered_on = Some(node);
        self.route_message(msg, now, sched);
        self.procs[pk.idx()].pc += 1;
        self.make_runnable(pk, now, sched);
    }

    /// Arm (or re-arm) the delivery timeout for the attempt now starting.
    /// No-op unless the fault plan sets `retry.msg_timeout`. The timeout
    /// clock starts when an attempt leaves the source buffer, so a send
    /// still queued in the source MMU is not yet covered (it is not in
    /// flight; memory pressure is the senders' own back-pressure).
    fn arm_timeout(&mut self, msg: MsgId, sched: &mut impl EventScheduler<Event>) {
        let Some(t) = self.cfg.faults.retry.msg_timeout else {
            return;
        };
        if let Some(h) = self.fault_timers[msg.idx()].take() {
            sched.cancel_timer(h);
        }
        let gen = self.msg_gen[msg.idx()];
        self.fault_timers[msg.idx()] =
            Some(sched.schedule_timer(t, Event::MsgTimeout { msg, gen }));
    }

    /// Start moving a freshly buffered-at-source message.
    fn route_message(&mut self, msg: MsgId, now: SimTime, sched: &mut impl EventScheduler<Event>) {
        self.arm_timeout(msg, sched);
        let (is_self, node) = {
            let m = self.messages[msg.idx()].as_ref().expect("routing dead message");
            (m.at_destination(), m.current_node())
        };
        if is_self {
            // Same-node sends still traverse the mailbox machinery (§5.2):
            // a high-priority delivery handler on the local CPU.
            self.counters.self_sends += 1;
            let bytes = self.messages[msg.idx()].as_ref().expect("dead message").bytes;
            self.enqueue_high(
                node,
                HandlerTask {
                    cost: self.cfg.self_delivery_cost(bytes),
                    action: HandlerAction::HopArrived(msg),
                },
                now,
                sched,
            );
            return;
        }
        match self.cfg.switching {
            Switching::StoreAndForward => self.saf_next_hop(msg, now, sched),
            // Pipelined modes: start the first path edge; the rest follow.
            Switching::PacketizedSaf | Switching::CutThrough => {
                self.enqueue_channel(msg, now, sched)
            }
            Switching::Wormhole => self.start_worm(msg, now, sched),
        }
    }

    /// Store-and-forward: reserve a buffer at the next node, then queue on
    /// the connecting channel.
    fn saf_next_hop(&mut self, msg: MsgId, now: SimTime, sched: &mut impl EventScheduler<Event>) {
        let (next, bytes) = {
            let m = self.messages[msg.idx()].as_ref().expect("dead message");
            let next = self
                .net
                .next_hop(m.at_node, m.dst_node)
                .expect("saf_next_hop at destination");
            (next, m.bytes)
        };
        let buf = bytes + self.cfg.msg_header_bytes;
        let granted = match self.cfg.flow {
            FlowControl::InjectionLimited => {
                self.nodes[next as usize].mmu.force_alloc(now, buf);
                true
            }
            FlowControl::Reserved | FlowControl::ReservedStrict => {
                let res = matches!(
                    self.nodes[next as usize]
                        .mmu
                        .request(now, buf, AllocWaiter::Transit(msg)),
                    AllocResult::Granted
                );
                if !res && self.cfg.flow == FlowControl::Reserved {
                    let gen = self.msg_gen[msg.idx()];
                    self.escape_timers[msg.idx()] = Some(sched.schedule_timer(
                        self.cfg.transit_escape_after,
                        Event::AllocEscape { node: next, msg, gen },
                    ));
                }
                res
            }
        };
        if granted {
            self.enqueue_channel(msg, now, sched);
        }
        // else: the Transit waiter resumes when memory frees (or via the
        // emergency-pool escape under FlowControl::Reserved).
    }

    /// A starved transit request escapes to the emergency pool.
    fn on_alloc_escape(&mut self, node: u32, msg: MsgId, gen: u32, now: SimTime, sched: &mut impl EventScheduler<Event>) {
        if self.msg_gen[msg.idx()] != gen {
            return; // the slot was recycled; this timer's message is gone
        }
        self.escape_timers[msg.idx()] = None;
        let Some(bytes) = self.nodes[node as usize].mmu.cancel_transit(msg) else {
            return; // already granted normally
        };
        let mmu = &mut self.nodes[node as usize].mmu;
        mmu.delayed_grants += 1;
        mmu.total_wait += self.cfg.transit_escape_after;
        mmu.force_alloc(now, bytes);
        self.counters.transit_escapes += 1;
        self.enqueue_channel(msg, now, sched);
    }

    /// Put a message on the channel for its current SAF hop (or CT edge),
    /// starting the transfer if the channel is free.
    fn enqueue_channel(&mut self, msg: MsgId, now: SimTime, sched: &mut impl EventScheduler<Event>) {
        let pipelined = matches!(
            self.cfg.switching,
            Switching::PacketizedSaf | Switching::CutThrough
        );
        let (chan, to) = {
            let m = self.messages[msg.idx()].as_ref().expect("dead message");
            // Pipelined: the next edge starts from wherever the previous
            // started edge leads (`front_node`); SAF moves the single
            // buffered copy from `at_node`.
            let from = if pipelined { m.front_node } else { m.at_node };
            let to = self
                .net
                .next_hop(from, m.dst_node)
                .expect("enqueue_channel at destination");
            let chan = self
                .net
                .channel_id(from, to)
                .unwrap_or_else(|| panic!("no channel {from}->{to}"));
            (chan, to)
        };
        if pipelined {
            let m = self.messages[msg.idx()].as_mut().expect("dead message");
            m.front_node = to;
            m.edges_started += 1;
        }
        let ch = &mut self.channels[chan];
        if ch.busy_with.is_none() && ch.up {
            self.start_transfer(chan, msg, now, sched);
        } else {
            ch.queue.push_back(msg);
        }
    }

    fn start_transfer(&mut self, chan: usize, msg: MsgId, now: SimTime, sched: &mut impl EventScheduler<Event>) {
        let bytes = self.messages[msg.idx()].as_ref().expect("dead message").bytes;
        self.ref_msg(msg); // the wire holds a reference until TransferDone
        let ch = &mut self.channels[chan];
        debug_assert!(ch.busy_with.is_none());
        ch.busy_with = Some(msg);
        ch.busy.set(now, true);
        let dur = self.cfg.transfer_time(bytes);
        sched.schedule(dur, Event::TransferDone { chan: chan as u32 });
        self.note_link_busy(chan as u32, now, 1.0);
        self.obs(now, ObsEvent::HopStart { msg: msg.0, chan: chan as u32 });
        // Pipelining: the next edge starts one header/packet latency after
        // this one starts (if the message has further to go).
        let offset = match self.cfg.switching {
            Switching::CutThrough => Some(self.cfg.cut_through_header),
            Switching::PacketizedSaf => Some(self.cfg.packet_latency()),
            // Wormhole traffic never reaches `start_transfer` (flit ticks
            // drive it), so only the non-pipelined arm below is live.
            Switching::StoreAndForward | Switching::Wormhole => None,
        };
        if let Some(offset) = offset {
            let (started, hops) = {
                let m = self.messages[msg.idx()].as_ref().expect("dead message");
                (m.edges_started as usize, m.hops())
            };
            if started < hops {
                self.ref_msg(msg); // the scheduled edge start references the slot
                sched.schedule(offset, Event::HopStart { msg, edge: started });
            }
        }
    }

    fn on_transfer_done(&mut self, chan: u32, now: SimTime, sched: &mut impl EventScheduler<Event>) {
        let chan = chan as usize;
        let msg = {
            let ch = &mut self.channels[chan];
            let msg = ch.busy_with.take().expect("TransferDone on idle channel");
            ch.busy.set(now, false);
            ch.transfers += 1;
            msg
        };
        self.note_link_busy(chan as u32, now, 0.0);
        self.obs(now, ObsEvent::HopEnd { msg: msg.0, chan: chan as u32 });
        let (bytes, cancelled) = {
            let m = self.messages[msg.idx()].as_ref().expect("dead message");
            (m.bytes, m.cancelled)
        };
        self.channels[chan].bytes_carried += bytes;
        self.counters.hop_transfers += 1;
        self.unref_msg(msg);

        // Drop lottery: one draw per completed hop while the plan declares
        // a drop probability. Corruption is detected by the delivery
        // checksum at the destination, so the damaged message still
        // traverses (and congests) the rest of its route.
        if self.cfg.faults.drop_prob > 0.0 {
            let corrupt = self.drop_rngs[chan].uniform01() < self.cfg.faults.drop_prob;
            if corrupt && !cancelled {
                if let Some(m) = self.messages[msg.idx()].as_mut() {
                    m.corrupt = true;
                }
            }
        }

        // Hand the channel to the next queued message *before* releasing any
        // memory: a release can grant a blocked transit message that would
        // otherwise race this queue for the just-freed channel. A link that
        // went down mid-transfer finishes the wire but starts nothing new.
        if self.channels[chan].up {
            if let Some(next) = self.channels[chan].queue.pop_front() {
                self.start_transfer(chan, next, now, sched);
            }
        }

        if cancelled {
            // A killed job's transfer completed on the wire. Under
            // store-and-forward the hop had already reserved its buffer on
            // the receiving node (untracked by `buffered_on`): return it.
            // All advancement and handler work is skipped.
            if self.cfg.switching == Switching::StoreAndForward {
                let to = self.channels[chan].to;
                self.release_memory(to, bytes + self.cfg.msg_header_bytes, now, sched);
            }
            self.maybe_reclaim(msg);
            return;
        }

        match self.cfg.switching {
            Switching::StoreAndForward => {
                // Free the buffer on the node the message just left, advance
                // it, and run the arrival handler on the new node.
                let (prev, bytes) = {
                    let m = self.messages[msg.idx()].as_mut().expect("dead message");
                    let prev = m.at_node;
                    m.at_node = self
                        .net
                        .next_hop(prev, m.dst_node)
                        .expect("transfer completed at destination");
                    m.buffered_on = Some(m.at_node);
                    (prev, m.bytes)
                };
                self.release_memory(prev, bytes + self.cfg.msg_header_bytes, now, sched);
                let (node, cost) = {
                    let m = self.messages[msg.idx()].as_ref().expect("dead message");
                    (m.current_node(), self.cfg.handler_cost(m.bytes))
                };
                self.enqueue_high(
                    node,
                    HandlerTask {
                        cost,
                        action: HandlerAction::HopArrived(msg),
                    },
                    now,
                    sched,
                );
            }
            Switching::PacketizedSaf | Switching::CutThrough => {
                let packetized = self.cfg.switching == Switching::PacketizedSaf;
                // Pipelined edges serialize per channel, so they complete
                // in path order: the head has now fully crossed to the node
                // one hop past `done_node`.
                let (edges_done, hops, bytes, src, via) = {
                    let m = self.messages[msg.idx()].as_mut().expect("dead message");
                    m.edges_done += 1;
                    m.done_node = self
                        .net
                        .next_hop(m.done_node, m.dst_node)
                        .expect("edge completed past destination");
                    (m.edges_done as usize, m.hops(), m.bytes, m.src_node, m.done_node)
                };
                if edges_done == 1 {
                    // The message has fully left the source: free its buffer.
                    self.release_memory(src, bytes + self.cfg.msg_header_bytes, now, sched);
                    self.messages[msg.idx()].as_mut().expect("dead").buffered_on = None;
                }
                if edges_done == hops {
                    // Head reached the destination; deliver there.
                    let dst = {
                        let m = self.messages[msg.idx()].as_mut().expect("dead message");
                        m.at_node = m.dst_node;
                        m.current_node()
                    };
                    if packetized {
                        // The destination buffers the message until the
                        // receiver consumes it. Packet buffers are granted
                        // from the system pool (overdraft): per-packet
                        // back-pressure is below this model's resolution.
                        self.nodes[dst as usize]
                            .mmu
                            .force_alloc(now, bytes + self.cfg.msg_header_bytes);
                        self.messages[msg.idx()].as_mut().expect("dead").buffered_on =
                            Some(dst);
                    }
                    self.enqueue_high(
                        dst,
                        HandlerTask {
                            cost: self.cfg.handler_cost(bytes),
                            action: HandlerAction::HopArrived(msg),
                        },
                        now,
                        sched,
                    );
                } else if packetized {
                    // Intermediate node: every byte crossed its memory; the
                    // relay CPU cost preempts local compute but does not
                    // gate the (already pipelined) next edge.
                    self.enqueue_high(
                        via,
                        HandlerTask {
                            cost: self.cfg.handler_cost(bytes),
                            action: HandlerAction::PacketRelay(msg),
                        },
                        now,
                        sched,
                    );
                }
            }
            Switching::Wormhole => {
                unreachable!("wormhole moves flits via FlitTick, never TransferDone")
            }
        }
    }

    fn on_hop_start(&mut self, msg: MsgId, _edge: usize, now: SimTime, sched: &mut impl EventScheduler<Event>) {
        // Cut-through pipelined edge start.
        self.unref_msg(msg);
        let cancelled = match self.messages[msg.idx()].as_ref() {
            Some(m) => m.cancelled,
            None => true,
        };
        if cancelled {
            self.maybe_reclaim(msg);
            return;
        }
        self.enqueue_channel(msg, now, sched);
    }

    // ------------------------------------------------------------------
    // Wormhole switching (`Switching::Wormhole` only)
    //
    // A message travels as a worm of `cfg.worm_flits(bytes)` flits that
    // holds a virtual channel on every link between head and tail. Each
    // channel with a movable flit runs a `FlitTick` chain: one tick per
    // `cfg.flit_time()`, each tick arbitrating the physical link round-
    // robin among its VCs and moving exactly one flit under credit-based
    // flow control. Deadlock freedom rests on the escape-class assignment
    // from `parsched_topology::flow` (dateline / phase rules), whose
    // channel-dependency graph is acyclic for every shipped topology.
    //
    // Express path. A worm whose partition is quiescent (`express_check`:
    // no observer, two or more credits, it is the partition's only live
    // message, every other resident process is finished, blocked in a
    // receive or done sending, no job is queued, loading or ready there,
    // and no declared fault or delivery timeout falls inside its flight)
    // cannot meet another worm, so its pipeline has a closed form: flit k
    // crosses route link i at t0 + (i + k) * ft. It starts no tick chain.
    // Its two visible moments, the source release at t0 + F * ft and the
    // delivery at t0 + (L - 1 + F) * ft, run as cancellable `FlitTick`
    // timers on a route channel, each armed one flit time ahead by a
    // pre-step so it is scheduled from the same instant as the flit tick
    // it replaces. At delivery the worm applies in hop order everything
    // the flit ticks would have done (`apply_express_progress`). A job
    // admitted onto the partition mid-flight first materializes the worm
    // into the flit-level state its ticks would have reached
    // (`materialize_partition`); the flit path takes over from there. The
    // flit path is the reference (`set_flit_reference`), and the
    // differential oracle holds the two to identical results.
    // ------------------------------------------------------------------

    /// Wormhole state (tests and exporters; `None` unless
    /// `cfg.switching == Switching::Wormhole`).
    pub fn wormhole(&self) -> Option<&WormholeState> {
        self.wormhole.as_ref()
    }

    /// Run every worm flit by flit: the reference the express path is
    /// held to. For differential tests only; results are identical either
    /// way, only the host work differs. No-op off wormhole switching.
    #[doc(hidden)]
    pub fn set_flit_reference(&mut self, on: bool) {
        if let Some(wh) = self.wormhole.as_mut() {
            wh.flit_reference = on;
        }
    }

    /// Sample the machine-wide count of held VCs into the metrics registry.
    #[inline]
    fn note_vc_occupancy(&mut self, now: SimTime) {
        if self.metrics.is_some() {
            let occ = self.wormhole.as_ref().map_or(0, |wh| wh.occupied_vcs());
            if let Some(m) = self.metrics.as_deref_mut() {
                m.set_vc_occupancy(now, occ);
            }
        }
    }

    /// Sample the cumulative credit-stall count into the metrics registry.
    #[inline]
    fn note_credit_stalls(&mut self, now: SimTime) {
        if self.metrics.is_some() {
            let stalls = self.counters.credit_stalls;
            if let Some(m) = self.metrics.as_deref_mut() {
                m.set_credit_stalls(now, stalls);
            }
        }
    }

    /// Route index of the link of `msg`'s worm that runs over channel
    /// `chan` (routes never revisit a node, so the link is unique).
    fn worm_link_on(&self, msg: MsgId, chan: usize) -> usize {
        let wh = self.wormhole.as_ref().expect("wormhole state");
        let w = wh.worm(msg).expect("message has no worm");
        w.links
            .iter()
            .position(|l| l.chan == chan as u32)
            .expect("worm does not cross this channel")
    }

    /// Build the worm for a freshly buffered-at-source message and request
    /// a virtual channel for its first link.
    fn start_worm(&mut self, msg: MsgId, now: SimTime, sched: &mut impl EventScheduler<Event>) {
        let (src, dst, bytes) = {
            let m = self.messages[msg.idx()].as_ref().expect("dead message");
            (m.src_node, m.dst_node, m.bytes)
        };
        let (p, base, local) = self
            .net
            .local_route(src, dst)
            .expect("job placement spans partitions");
        let kind = self.net.kind();
        let classes = vc_classes(kind, self.net.partition_size(), NodeId(src - base), &local);
        let mut links = Vec::with_capacity(local.len());
        let mut prev = src;
        for (i, hop) in local.iter().enumerate() {
            let to = base + hop.0;
            let chan = self
                .net
                .channel_id(prev, to)
                .unwrap_or_else(|| panic!("no channel {prev}->{to}"));
            links.push(WormLink { chan: chan as u32, class: classes[i], vc: None, sent: 0 });
            prev = to;
        }
        let total_flits = self.cfg.worm_flits(bytes);
        self.counters.flits_injected += total_flits;
        self.ref_msg(msg); // the worm holds a reference until teardown/drain
        // A second worm in the partition may claim an express worm's
        // route: that worm goes back to the flit path first.
        self.materialize_partition(p, now, sched);
        let verdict = self.express_check(p, &links, total_flits, now);
        let wh = self.wormhole.as_mut().expect("wormhole state");
        match verdict {
            Ok(()) => {
                // Arm the release directly when it is the first flit
                // tick (a one-flit worm), else one flit time ahead.
                let chan = links[0].chan;
                let ft = wh.flit_time;
                let (step, at) = if total_flits > 1 {
                    (ExpressStep::ArmRelease, now + ft * (total_flits - 1))
                } else {
                    (ExpressStep::Release, now + ft)
                };
                let timer = sched.schedule_timer_at(at, Event::FlitTick { chan });
                wh.chans[chan as usize].express = Some(msg);
                wh.express_in[p] = Some(msg);
                wh.stats.express += 1;
                let express = Some(Express { t0: now, step, timer });
                wh.insert(msg, Worm { total_flits, links, express });
            }
            Err(reason) => {
                wh.stats.flit[reason as usize] += 1;
                wh.insert(msg, Worm { total_flits, links, express: None });
                self.request_vc(msg, 0, now, sched);
            }
        }
    }

    /// Whether a worm of `flits` flits over `links` in partition `p`,
    /// starting now, may take the express path. The partition must be
    /// quiescent: partitions are wired closed, so once nothing else in
    /// `p` can inject, queue a job, or fail before the tail clears, no
    /// other worm can contend for the route and the flit pipeline runs in
    /// closed form. Nothing may observe the flit ticks either.
    fn express_check(&mut self, p: usize, links: &[WormLink], flits: u64, now: SimTime) -> Result<(), FlitReason> {
        let wh = self.wormhole.as_ref().expect("wormhole state");
        if wh.flit_reference {
            return Err(FlitReason::Reference);
        }
        if self.recorder.is_some() || self.metrics.is_some() || self.timeline.is_enabled() {
            return Err(FlitReason::Observed);
        }
        let ft = wh.flit_time;
        if wh.credits < 2 || ft.is_zero() {
            return Err(FlitReason::Config);
        }
        if wh.live_msgs[p] != 1 {
            return Err(FlitReason::Contended);
        }
        let route_busy = links.iter().any(|l| {
            let c = l.chan as usize;
            let vch = &wh.chans[c];
            !self.channels[c].up
                || vch.ticking
                || vch.occupied() > 0
                || vch.waiting.iter().any(|q| !q.is_empty())
        });
        if route_busy {
            return Err(FlitReason::Route);
        }
        let end = now + ft * (links.len() as u64 - 1 + flits);
        if self.faults_on && self.fault_within(p, now, end) {
            return Err(FlitReason::Fault);
        }
        let mut jobs = std::mem::take(&mut self.wormhole.as_mut().expect("wormhole state").jobs[p]);
        jobs.retain(|j| !matches!(self.jobs[j.idx()].state, JobState::Done | JobState::Failed));
        let verdict = jobs.iter().try_for_each(|&j| {
            let job = &self.jobs[j.idx()];
            if job.state != JobState::Running {
                return Err(FlitReason::JobPending);
            }
            // A process blocked in a receive can only wake on a delivery,
            // and this worm is the partition's only live message.
            let may_send = job.proc_keys.iter().any(|pk| {
                let pr = &self.procs[pk.idx()];
                !matches!(pr.state, PState::Finished | PState::BlockedRecv(_))
                    && (pr.phase == Phase::SendOverhead
                        || pr.program.get(pr.pc + 1..).is_some_and(|ops| {
                            ops.iter().any(|op| matches!(op, Op::Send { .. }))
                        }))
            });
            if may_send {
                Err(FlitReason::Sender)
            } else {
                Ok(())
            }
        });
        self.wormhole.as_mut().expect("wormhole state").jobs[p] = jobs;
        verdict
    }

    /// Whether a declared crash on partition `p`, an outage edge on one
    /// of its links, or the delivery timeout falls in `[from, to]`.
    fn fault_within(&self, p: usize, from: SimTime, to: SimTime) -> bool {
        let size = self.net.partition_size() as u32;
        let nodes = p as u32 * size..(p as u32 + 1) * size;
        let window = from..=to;
        let plan = &self.cfg.faults;
        plan.crashes
            .iter()
            .any(|c| nodes.contains(&c.node) && window.contains(&c.at))
            || plan.links.iter().any(|w| {
                (nodes.contains(&w.from) || nodes.contains(&w.to))
                    && (window.contains(&w.down_at) || window.contains(&w.up_at))
            })
            || plan.retry.msg_timeout.is_some_and(|t| from + t <= to)
    }

    /// Route index of the link whose channel carries an express worm's
    /// pending timer: link 0 up to the release, the last link after it.
    fn express_link(step: ExpressStep, len: usize) -> usize {
        match step {
            ExpressStep::ArmRelease | ExpressStep::Release => 0,
            ExpressStep::ArmFinish | ExpressStep::Finish => len - 1,
        }
    }

    /// Schedule an express worm's next step as a `FlitTick` on the route
    /// channel that carries it.
    fn arm_express(&mut self, msg: MsgId, step: ExpressStep, at: SimTime, sched: &mut impl EventScheduler<Event>) {
        let wh = self.wormhole.as_mut().expect("wormhole state");
        let w = wh.worm_mut(msg).expect("worm gone");
        let len = w.links.len();
        let old = w.links[Self::express_link(w.express.expect("express worm").step, len)].chan;
        let chan = w.links[Self::express_link(step, len)].chan;
        let timer = sched.schedule_timer_at(at, Event::FlitTick { chan });
        let x = w.express.as_mut().expect("express worm");
        x.step = step;
        x.timer = timer;
        wh.chans[old as usize].express = None;
        wh.chans[chan as usize].express = Some(msg);
    }

    /// An express worm's timer fired: perform its step and arm the next.
    fn on_express_tick(&mut self, msg: MsgId, now: SimTime, sched: &mut impl EventScheduler<Event>) {
        let (x, len, flits, ft) = {
            let wh = self.wormhole.as_ref().expect("wormhole state");
            let w = wh.worm(msg).expect("worm gone");
            (w.express.expect("express worm"), w.links.len(), w.total_flits, wh.flit_time)
        };
        match x.step {
            ExpressStep::ArmRelease => self.arm_express(msg, ExpressStep::Release, now + ft, sched),
            ExpressStep::Release => {
                self.release_source(msg, now, sched);
                match len {
                    1 => self.finish_express(msg, now, sched),
                    2 => self.arm_express(msg, ExpressStep::Finish, now + ft, sched),
                    _ => {
                        let at = x.t0 + ft * (len as u64 + flits - 2);
                        self.arm_express(msg, ExpressStep::ArmFinish, at, sched);
                    }
                }
            }
            ExpressStep::ArmFinish => self.arm_express(msg, ExpressStep::Finish, now + ft, sched),
            ExpressStep::Finish => self.finish_express(msg, now, sched),
        }
    }

    /// The worm's tail left the source: the sender's buffered copy is gone.
    fn release_source(&mut self, msg: MsgId, now: SimTime, sched: &mut impl EventScheduler<Event>) {
        let (released, bytes) = {
            let m = self.messages[msg.idx()].as_mut().expect("dead message");
            (m.buffered_on.take(), m.bytes)
        };
        if let Some(node) = released {
            self.release_memory(node, bytes + self.cfg.msg_header_bytes, now, sched);
        }
    }

    /// Take an express worm off its timers (and its partition's slot).
    fn detach_express(&mut self, msg: MsgId) -> Express {
        let p = {
            let m = self.messages[msg.idx()].as_ref().expect("dead message");
            self.net.partition_of(m.src_node)
        };
        let wh = self.wormhole.as_mut().expect("wormhole state");
        let w = wh.worm_mut(msg).expect("worm gone");
        let x = w.express.take().expect("express worm");
        let chan = w.links[Self::express_link(x.step, w.links.len())].chan;
        wh.chans[chan as usize].express = None;
        wh.express_in[p] = None;
        x
    }

    /// The express worm's tail reached the destination: apply every flit
    /// tick's effects and deliver, exactly as the last flit tick would.
    fn finish_express(&mut self, msg: MsgId, now: SimTime, sched: &mut impl EventScheduler<Event>) {
        let x = self.detach_express(msg);
        let last = {
            let w = self.wormhole.as_ref().expect("wormhole state").worm(msg).expect("worm gone");
            w.links.len() as u64 - 1 + w.total_flits
        };
        self.apply_express_progress(msg, x.t0, last);
        self.finish_worm(msg, now, sched);
    }

    /// Apply, in hop order, what the flit ticks of an express worm that
    /// started at `t0` did through flit step `j`: link cursors, credits,
    /// flits, VC grants, completed hops with their drop-lottery draws,
    /// message cursors, round-robin cursors and the link busy signals. The
    /// source-buffer release and the VC tables are the caller's.
    fn apply_express_progress(&mut self, msg: MsgId, t0: SimTime, j: u64) {
        let wh = self.wormhole.as_mut().expect("wormhole state");
        let ft = wh.flit_time;
        let w = wh.worm_mut(msg).expect("worm gone");
        let flits = w.total_flits;
        let mut links = std::mem::take(&mut w.links);
        let len = links.len();
        let bytes = self.messages[msg.idx()].as_ref().expect("dead message").bytes;
        let (mut started, mut done, mut corrupt) = (0, 0, false);
        let (mut front, mut reached) = (None, None);
        for (i, l) in links.iter_mut().enumerate() {
            let (sent, granted, _) = progress(j, i, len, flits);
            let ci = l.chan as usize;
            l.sent = sent;
            self.counters.credits_issued += sent;
            if i > 0 {
                self.counters.credits_returned += sent;
            }
            if i + 1 == len {
                self.counters.credits_returned += sent;
                self.counters.flits_ejected += sent;
            }
            if granted {
                self.counters.vc_allocs += 1;
            }
            let to = self.channels[ci].to;
            if sent > 0 {
                let vch = &mut wh.chans[ci];
                let vc = l.class as usize * vch.per_class as usize;
                vch.rr = ((vc + 1) % vch.vcs.len()) as u8;
                started += 1;
                front = Some(to);
            }
            if sent == flits {
                let ch = &mut self.channels[ci];
                ch.transfers += 1;
                ch.bytes_carried += bytes;
                self.counters.hop_transfers += 1;
                if self.cfg.faults.drop_prob > 0.0 {
                    corrupt |= self.drop_rngs[ci].uniform01() < self.cfg.faults.drop_prob;
                }
                done += 1;
                reached = Some(to);
            }
            replay_busy(&mut self.channels[ci].busy, t0, ft, i as u64, flits, j);
        }
        wh.worm_mut(msg).expect("worm gone").links = links;
        let m = self.messages[msg.idx()].as_mut().expect("dead message");
        m.edges_started += started;
        m.edges_done += done;
        if let Some(to) = front {
            m.front_node = to;
        }
        if let Some(to) = reached {
            m.done_node = to;
        }
        m.corrupt |= corrupt;
    }

    /// Hand partition `p`'s express worm, if any, back to the flit path:
    /// rebuild the flit-level state its ticks would have reached by now —
    /// link cursors, held VCs, ticking flags — and start the tick chains
    /// in descending link order, the order the flit ticks of one instant
    /// schedule the next instant's. A worm whose finish falls due at this
    /// very instant is rebuilt one step short and finishes on a flit tick
    /// now.
    fn materialize_partition(&mut self, p: usize, now: SimTime, sched: &mut impl EventScheduler<Event>) {
        let Some(msg) = self.wormhole.as_ref().and_then(|wh| wh.express_in[p]) else {
            return;
        };
        let x = self.detach_express(msg);
        sched.cancel_timer(x.timer);
        let (len, flits, ft) = {
            let wh = self.wormhole.as_mut().expect("wormhole state");
            wh.stats.materialized += 1;
            let w = wh.worm(msg).expect("worm gone");
            (w.links.len(), w.total_flits, wh.flit_time)
        };
        let j = (now.since(x.t0).nanos() / ft.nanos()).min(len as u64 + flits - 2);
        if !x.released() && j >= flits {
            self.release_source(msg, now, sched);
        }
        self.apply_express_progress(msg, x.t0, j);
        let wh = self.wormhole.as_mut().expect("wormhole state");
        let w = wh.worms[msg.idx()].as_mut().expect("worm gone");
        for (i, l) in w.links.iter_mut().enumerate() {
            if progress(j, i, len, flits).2 {
                l.vc = wh.chans[l.chan as usize].alloc_vc(l.class, msg);
                debug_assert!(l.vc.is_some(), "express route VC taken");
                wh.held += 1;
            }
        }
        let next = x.t0 + ft * (j + 1);
        for i in (0..len).rev() {
            // Link `i` moves flit `j + 1 - i` at the next step.
            if i as u64 <= j && j + 1 - i as u64 <= flits {
                let chan = w.links[i].chan;
                wh.chans[chan as usize].ticking = true;
                sched.schedule_at(next, Event::FlitTick { chan });
            }
        }
    }

    /// Ask for a VC of the link's escape class: granted immediately when
    /// the link is up and the class band has a free VC, otherwise the worm
    /// queues in the class's FIFO (head-of-line blocking, the wormhole
    /// hazard the escape classes keep acyclic).
    fn request_vc(&mut self, msg: MsgId, link: usize, now: SimTime, sched: &mut impl EventScheduler<Event>) {
        let (chan, class) = {
            let wh = self.wormhole.as_ref().expect("wormhole state");
            let l = &wh.worm(msg).expect("worm gone").links[link];
            (l.chan as usize, l.class)
        };
        let up = self.channels[chan].up;
        let granted = {
            let wh = self.wormhole.as_mut().expect("wormhole state");
            if up {
                wh.chans[chan].alloc_vc(class, msg)
            } else {
                None // a downed link grants nothing until its window closes
            }
        };
        match granted {
            Some(vc) => {
                let wh = self.wormhole.as_mut().expect("wormhole state");
                wh.held += 1;
                wh.worm_mut(msg).expect("worm gone").links[link].vc = Some(vc);
                self.counters.vc_allocs += 1;
                self.obs(now, ObsEvent::WormVcAlloc { msg: msg.0, chan: chan as u32, vc });
                self.note_vc_occupancy(now);
                self.ensure_flit_ticking(chan, now, sched);
            }
            None => {
                let wh = self.wormhole.as_mut().expect("wormhole state");
                wh.chans[chan].waiting[class as usize].push_back(msg);
                self.obs(now, ObsEvent::WormStall { msg: msg.0, chan: chan as u32 });
            }
        }
    }

    /// Whether any VC of `chan` holds a worm that can move a flit now.
    fn chan_can_transmit(&self, chan: usize) -> bool {
        let wh = self.wormhole.as_ref().expect("wormhole state");
        wh.chans[chan].holders().any(|msg| {
            let w = wh.worm(msg).expect("holder has worm");
            wh.can_transmit(w, self.worm_link_on(msg, chan))
        })
    }

    /// Start a `FlitTick` chain for the channel unless one is already live
    /// (or the link is down, or nothing can move). The per-channel chain
    /// is what serializes the physical link: one flit per flit time, no
    /// matter how many VCs are resident.
    fn ensure_flit_ticking(&mut self, chan: usize, now: SimTime, sched: &mut impl EventScheduler<Event>) {
        if !self.channels[chan].up
            || self.wormhole.as_ref().expect("wormhole state").chans[chan].ticking
            || !self.chan_can_transmit(chan)
        {
            return;
        }
        let wh = self.wormhole.as_mut().expect("wormhole state");
        wh.chans[chan].ticking = true;
        let dt = wh.flit_time;
        self.channels[chan].busy.set(now, true);
        self.note_link_busy(chan as u32, now, 1.0);
        sched.schedule(dt, Event::FlitTick { chan: chan as u32 });
    }

    /// Park a channel's tick chain (nothing movable); whatever unblocks it
    /// — a credit return, a VC grant, a link-up — re-arms it.
    fn stop_flit_ticking(&mut self, chan: usize, now: SimTime) {
        self.wormhole.as_mut().expect("wormhole state").chans[chan].ticking = false;
        self.channels[chan].busy.set(now, false);
        self.note_link_busy(chan as u32, now, 0.0);
    }

    /// One flit time elapsed on a ticking channel: pick the next resident
    /// worm round-robin, move one of its flits, and keep ticking while any
    /// flit remains movable.
    fn on_flit_tick(&mut self, chan: u32, now: SimTime, sched: &mut impl EventScheduler<Event>) {
        let ci = chan as usize;
        if let Some(msg) = self.wormhole.as_ref().expect("wormhole state").chans[ci].express {
            self.on_express_tick(msg, now, sched);
            return;
        }
        let picked = {
            let wh = self.wormhole.as_ref().expect("wormhole state");
            let vch = &wh.chans[ci];
            debug_assert!(vch.ticking, "FlitTick on a parked channel");
            let nvc = vch.vcs.len();
            let mut picked = None;
            if self.channels[ci].up {
                for off in 0..nvc {
                    let vc = (vch.rr as usize + off) % nvc;
                    let Some(msg) = vch.vcs[vc] else { continue };
                    let w = wh.worm(msg).expect("holder has worm");
                    let link = self.worm_link_on(msg, ci);
                    if wh.can_transmit(w, link) {
                        picked = Some((vc, msg, link));
                        break;
                    }
                }
            }
            picked
        };
        let Some((vc, msg, link)) = picked else {
            // Nothing movable. Residents blocked purely on the credit
            // window are genuine back-pressure stalls; account them once
            // per parking, not per tick.
            let stalled: Vec<MsgId> = {
                let wh = self.wormhole.as_ref().expect("wormhole state");
                wh.chans[ci]
                    .holders()
                    .filter(|&m| {
                        let w = wh.worm(m).expect("holder has worm");
                        wh.credit_blocked(w, self.worm_link_on(m, ci))
                    })
                    .collect()
            };
            for m in stalled {
                self.counters.credit_stalls += 1;
                self.obs(now, ObsEvent::WormStall { msg: m.0, chan });
            }
            self.note_credit_stalls(now);
            self.stop_flit_ticking(ci, now);
            return;
        };
        {
            let wh = self.wormhole.as_mut().expect("wormhole state");
            let nvc = wh.chans[ci].vcs.len();
            wh.chans[ci].rr = ((vc + 1) % nvc) as u8;
        }
        self.transmit_flit(msg, link, now, sched);
        if self.chan_can_transmit(ci) {
            let dt = self.wormhole.as_ref().expect("wormhole state").flit_time;
            sched.schedule(dt, Event::FlitTick { chan });
        } else {
            self.stop_flit_ticking(ci, now);
        }
    }

    /// Move one flit of `msg` across route link `link`, with credit
    /// accounting, head/tail protocol steps, and neighbour wake-ups.
    fn transmit_flit(&mut self, msg: MsgId, link: usize, now: SimTime, sched: &mut impl EventScheduler<Event>) {
        let (chan, sent, total, len, prev_chan, next_chan) = {
            let wh = self.wormhole.as_mut().expect("wormhole state");
            let w = wh.worm_mut(msg).expect("worm gone");
            w.links[link].sent += 1;
            (
                w.links[link].chan,
                w.links[link].sent,
                w.total_flits,
                w.links.len(),
                link.checked_sub(1).map(|i| w.links[i].chan),
                w.links.get(link + 1).map(|l| l.chan),
            )
        };
        self.counters.credits_issued += 1;
        if link > 0 {
            // The flit left the previous link's VC buffer: credit back.
            self.counters.credits_returned += 1;
        }
        if link + 1 == len {
            // Ejection into destination memory drains the last buffer
            // immediately (node memory is not credit-limited).
            self.counters.credits_returned += 1;
            self.counters.flits_ejected += 1;
        }
        if sent == 1 {
            self.on_worm_head(msg, link, chan, now, sched);
        }
        if sent == total {
            self.on_worm_tail(msg, link, chan, now, sched);
        }
        // A flit arrival can unblock the next link; a credit return can
        // unblock the previous one.
        if let Some(pc) = prev_chan {
            self.ensure_flit_ticking(pc as usize, now, sched);
        }
        if let Some(nc) = next_chan {
            self.ensure_flit_ticking(nc as usize, now, sched);
        }
    }

    /// The worm's head crossed a link for the first time: advance the head
    /// cursors and request a VC for the next link.
    fn on_worm_head(&mut self, msg: MsgId, link: usize, chan: u32, now: SimTime, sched: &mut impl EventScheduler<Event>) {
        self.obs(now, ObsEvent::HopStart { msg: msg.0, chan });
        let to = self.channels[chan as usize].to;
        {
            let m = self.messages[msg.idx()].as_mut().expect("dead message");
            m.front_node = to;
            m.edges_started += 1;
        }
        let more = {
            let wh = self.wormhole.as_ref().expect("wormhole state");
            link + 1 < wh.worm(msg).expect("worm gone").links.len()
        };
        if more {
            self.request_vc(msg, link + 1, now, sched);
        }
    }

    /// The worm's tail crossed a link: the hop is complete — account it,
    /// free what the tail no longer occupies, and deliver at the end.
    fn on_worm_tail(&mut self, msg: MsgId, link: usize, chan: u32, now: SimTime, sched: &mut impl EventScheduler<Event>) {
        let ci = chan as usize;
        self.obs(now, ObsEvent::HopEnd { msg: msg.0, chan });
        let bytes = self.messages[msg.idx()].as_ref().expect("dead message").bytes;
        self.channels[ci].transfers += 1;
        self.channels[ci].bytes_carried += bytes;
        self.counters.hop_transfers += 1;
        // Per-hop drop lottery, as under the other switching modes: the
        // per-channel substream draws once per completed hop.
        if self.cfg.faults.drop_prob > 0.0 {
            let corrupt = self.drop_rngs[ci].uniform01() < self.cfg.faults.drop_prob;
            if corrupt {
                if let Some(m) = self.messages[msg.idx()].as_mut() {
                    m.corrupt = true;
                }
            }
        }
        let to = self.channels[ci].to;
        let (done, hops) = {
            let m = self.messages[msg.idx()].as_mut().expect("dead message");
            m.edges_done += 1;
            m.done_node = to;
            (m.edges_done as usize, m.hops())
        };
        if link == 0 {
            self.release_source(msg, now, sched);
        }
        if link > 0 {
            // The previous link's VC buffer has fully drained.
            self.release_worm_vc(msg, link - 1, now, sched);
        }
        if done == hops {
            self.release_worm_vc(msg, link, now, sched);
            self.finish_worm(msg, now, sched);
        }
    }

    /// Release the VC a worm holds on route link `link`, handing it to the
    /// head of the class's waiter FIFO (links in an outage window hand
    /// over nothing; `on_link_up` pumps their FIFOs instead).
    fn release_worm_vc(&mut self, msg: MsgId, link: usize, now: SimTime, sched: &mut impl EventScheduler<Event>) {
        let (chan, vc) = {
            let wh = self.wormhole.as_mut().expect("wormhole state");
            let l = &mut wh.worm_mut(msg).expect("worm gone").links[link];
            (l.chan as usize, l.vc.take().expect("releasing unheld VC"))
        };
        let up = self.channels[chan].up;
        let granted = {
            let wh = self.wormhole.as_mut().expect("wormhole state");
            let granted = wh.chans[chan].release_vc(vc, up);
            if granted.is_none() {
                // A served waiter keeps the slot held; only a true free
                // drops the occupancy count.
                wh.held -= 1;
            }
            granted
        };
        if let Some(next) = granted {
            let next_link = self.worm_link_on(next, chan);
            let wh = self.wormhole.as_mut().expect("wormhole state");
            wh.worm_mut(next).expect("waiter has worm").links[next_link].vc = Some(vc);
            self.counters.vc_allocs += 1;
            self.obs(now, ObsEvent::WormVcAlloc { msg: next.0, chan: chan as u32, vc });
        }
        self.note_vc_occupancy(now);
        self.ensure_flit_ticking(chan, now, sched);
    }

    /// The whole worm reached the destination: retire it, buffer the
    /// message at the destination (system-pool overdraft, as under
    /// `PacketizedSaf`) and run the delivery handler.
    fn finish_worm(&mut self, msg: MsgId, now: SimTime, sched: &mut impl EventScheduler<Event>) {
        let worm = self
            .wormhole
            .as_mut()
            .expect("wormhole state")
            .remove(msg)
            .expect("finishing a missing worm");
        debug_assert!(worm.links.iter().all(|l| l.vc.is_none()), "VC leak");
        debug_assert_eq!(worm.ejected(), worm.total_flits, "flits unaccounted");
        self.unref_msg(msg);
        let (dst, bytes) = {
            let m = self.messages[msg.idx()].as_mut().expect("dead message");
            m.at_node = m.dst_node;
            (m.dst_node, m.bytes)
        };
        self.nodes[dst as usize]
            .mmu
            .force_alloc(now, bytes + self.cfg.msg_header_bytes);
        self.messages[msg.idx()].as_mut().expect("dead").buffered_on = Some(dst);
        self.enqueue_high(
            dst,
            HandlerTask {
                cost: self.cfg.handler_cost(bytes),
                action: HandlerAction::HopArrived(msg),
            },
            now,
            sched,
        );
    }

    /// Tear an in-flight worm out of the network deterministically (link
    /// outage or job kill): released VCs pass to waiters, buffered flits
    /// return their credits, untransmitted and in-network flits are
    /// accounted dropped. Returns `false` when the message has no worm.
    /// The caller decides what happens to the message itself (retry
    /// protocol for outages; the kill sweep for dead jobs).
    fn drain_worm(&mut self, msg: MsgId, now: SimTime, sched: &mut impl EventScheduler<Event>) -> bool {
        let Some(worm) = self.wormhole.as_ref().and_then(|wh| wh.worm(msg)) else {
            return false;
        };
        if worm.express.is_some() {
            let src = self.messages[msg.idx()].as_ref().expect("dead message").src_node;
            self.materialize_partition(self.net.partition_of(src), now, sched);
        }
        // Yank an outstanding VC request from its waiter FIFO.
        {
            let wh = self.wormhole.as_mut().expect("wormhole state");
            if let Some(k) = wh.worm(msg).expect("checked").pending_vc_request() {
                let (chan, class) = {
                    let l = &wh.worm(msg).expect("checked").links[k];
                    (l.chan as usize, l.class as usize)
                };
                wh.chans[chan].waiting[class].retain(|&m| m != msg);
            }
        }
        // Hand every held VC over (front to back keeps grants ordered).
        let held: Vec<usize> = {
            let wh = self.wormhole.as_ref().expect("wormhole state");
            wh.worm(msg)
                .expect("checked")
                .links
                .iter()
                .enumerate()
                .filter_map(|(i, l)| l.vc.is_some().then_some(i))
                .collect()
        };
        for i in held {
            self.release_worm_vc(msg, i, now, sched);
        }
        let worm = self
            .wormhole
            .as_mut()
            .expect("wormhole state")
            .remove(msg)
            .expect("checked");
        self.counters.credits_returned += worm.buffered();
        self.counters.flits_dropped += worm.total_flits - worm.ejected();
        let chan = worm.links[worm.head_link()].chan;
        self.obs(now, ObsEvent::WormDrained { msg: msg.0, chan });
        self.unref_msg(msg);
        true
    }

    fn run_handler_action(&mut self, action: HandlerAction, node: u32, now: SimTime, sched: &mut impl EventScheduler<Event>) {
        match action {
            HandlerAction::PacketRelay(_) => {
                // Pure CPU cost; the pipeline drives itself.
            }
            HandlerAction::HopArrived(msg) => {
                let at_dest = {
                    let m = self.messages[msg.idx()].as_ref().expect("dead message");
                    debug_assert_eq!(m.current_node(), node);
                    m.at_destination()
                };
                if at_dest {
                    self.deliver(msg, now, sched);
                } else {
                    self.saf_next_hop(msg, now, sched);
                }
            }
        }
    }

    /// Put a message in its destination mailbox and wake a blocked receiver.
    fn deliver(&mut self, msg: MsgId, now: SimTime, sched: &mut impl EventScheduler<Event>) {
        // The attempt reached the destination: its delivery timeout (if
        // armed) is settled either way.
        if let Some(h) = self.fault_timers[msg.idx()].take() {
            sched.cancel_timer(h);
        }
        let (job, to, tag, dst) = {
            let m = self.messages[msg.idx()].as_ref().expect("dead message");
            (m.job, m.to, m.tag, m.dst_node)
        };
        if self.faults_on {
            // Delivery checksum + finite mailbox: a corrupted or stale
            // attempt (or one arriving at a full mailbox) is rejected and
            // retransmitted after backoff. No MsgDeliver is emitted for a
            // rejected attempt.
            let bad = {
                let m = self.messages[msg.idx()].as_ref().expect("dead message");
                m.corrupt || m.timed_out
            };
            let overflow = self
                .cfg
                .faults
                .mailbox_capacity
                .is_some_and(|cap| self.jobs[job.idx()].mailboxes[to.idx()].len() >= cap);
            if bad || overflow {
                self.retry_message(msg, now, sched);
                return;
            }
        }
        self.obs(
            now,
            ObsEvent::MsgDeliver {
                msg: msg.0,
                job: job.0,
                node: dst,
            },
        );
        self.jobs[job.idx()].mailboxes[to.idx()].push_back(msg);
        let pk = self.jobs[job.idx()].proc_keys[to.idx()];
        if self.procs[pk.idx()].state == PState::BlockedRecv(tag)
            && self.try_claim(pk, tag) {
                self.enqueue_ready(pk, now, sched);
            }
    }

    /// A receiver finished consuming a message: free its buffer and retire
    /// its slot for reuse.
    fn consume_message(&mut self, msg: MsgId, now: SimTime, sched: &mut impl EventScheduler<Event>) {
        let m = self.messages[msg.idx()].take().expect("consuming dead message");
        self.free_msg(msg, m.src_node);
        self.counters.messages_consumed += 1;
        if self.timeline.is_enabled() {
            self.timeline.record(Span {
                kind: SpanKind::Message,
                node: m.dst_node,
                job: Some(m.job),
                proc_: None,
                rank: Some(m.to),
                start: m.injected_at,
                end: now,
            });
        }
        if let Some(node) = m.buffered_on {
            self.release_memory(node, m.bytes + self.cfg.msg_header_bytes, now, sched);
        }
    }

    // ------------------------------------------------------------------
    // Faults (every path below is unreachable under an empty FaultPlan)
    // ------------------------------------------------------------------

    /// A delivery attempt failed (corruption, timeout or mailbox
    /// overflow): release the buffered copy, reset the route cursors and
    /// schedule a retransmission from the source after exponential
    /// backoff — or kill the owning job once the retry budget is spent.
    /// The caller has already taken the slot's fault timer.
    fn retry_message(&mut self, msg: MsgId, now: SimTime, sched: &mut impl EventScheduler<Event>) {
        let (job, attempts) = {
            let m = self.messages[msg.idx()].as_ref().expect("retrying dead message");
            (m.job, m.attempts + 1)
        };
        if attempts > self.cfg.faults.retry.max_retries {
            // Budget exhausted: the job cannot make progress without this
            // message. Fail-stop it; the sweep accounts the message as
            // dropped, so conservation still balances.
            self.kill_job(job, now, sched);
            return;
        }
        self.counters.retries += 1;
        let (released, bytes) = {
            let m = self.messages[msg.idx()].as_mut().expect("retrying dead message");
            m.attempts = attempts;
            m.corrupt = false;
            m.timed_out = false;
            m.at_node = m.src_node;
            m.front_node = m.src_node;
            m.done_node = m.src_node;
            m.edges_done = 0;
            m.edges_started = 0;
            (m.buffered_on.take(), m.bytes)
        };
        if let Some(node) = released {
            self.release_memory(node, bytes + self.cfg.msg_header_bytes, now, sched);
        }
        self.obs(now, ObsEvent::MsgRetry { msg: msg.0, attempt: attempts });
        let gen = self.msg_gen[msg.idx()];
        let backoff = self.cfg.faults.retry.backoff(attempts);
        self.fault_timers[msg.idx()] =
            Some(sched.schedule_timer(backoff, Event::MsgRetry { msg, gen }));
    }

    /// Backoff elapsed: retransmit from the source's retained copy. The
    /// buffer is granted from the system pool and no software send cost is
    /// re-charged — the link engine retransmits the copy the sender's
    /// original `Send` already paid for.
    fn on_msg_retry(&mut self, msg: MsgId, gen: u32, now: SimTime, sched: &mut impl EventScheduler<Event>) {
        if self.msg_gen[msg.idx()] != gen {
            return; // the slot was recycled; this timer's message is gone
        }
        self.fault_timers[msg.idx()] = None;
        let src = match self.messages[msg.idx()].as_ref() {
            Some(m) if !m.cancelled => m.src_node,
            _ => return, // killed between backoff and retransmission
        };
        let bytes = self.messages[msg.idx()].as_ref().expect("checked").bytes;
        self.nodes[src as usize]
            .mmu
            .force_alloc(now, bytes + self.cfg.msg_header_bytes);
        self.messages[msg.idx()].as_mut().expect("checked").buffered_on = Some(src);
        self.route_message(msg, now, sched);
    }

    /// The delivery timeout fired while the attempt was still outstanding.
    fn on_msg_timeout(&mut self, msg: MsgId, gen: u32, now: SimTime, sched: &mut impl EventScheduler<Event>) {
        if self.msg_gen[msg.idx()] != gen {
            return; // stale timer on a recycled slot
        }
        self.fault_timers[msg.idx()] = None;
        let (quiescent, marked) = match self.messages[msg.idx()].as_ref() {
            Some(m) if !m.cancelled => (m.live_refs == 0, m.timed_out),
            _ => return,
        };
        self.counters.timeouts += 1;
        self.obs(now, ObsEvent::MsgTimeout { msg: msg.0 });
        if quiescent {
            // Not on any wire and no pending hop event or handler: the
            // attempt can only be parked in one channel queue (behind a
            // busy or downed link) or in an MMU transit queue. A queued
            // edge is yanked and retransmitted now; a queued transit
            // reservation is left to its own escape-timer machinery.
            if let Some((chan, pos)) = self.find_queued_edge(msg) {
                self.channels[chan].queue.remove(pos);
                if self.cfg.switching == Switching::StoreAndForward {
                    // The yanked hop had already reserved its buffer on
                    // the receiving node: give it back.
                    let to = self.channels[chan].to;
                    let bytes =
                        self.messages[msg.idx()].as_ref().expect("checked").bytes;
                    self.release_memory(
                        to,
                        bytes + self.cfg.msg_header_bytes,
                        now,
                        sched,
                    );
                }
                self.retry_message(msg, now, sched);
                return;
            }
        }
        // Still moving (or stuck awaiting a transit buffer): mark the
        // attempt stale — the delivery checksum rejects marked copies on
        // arrival — and re-arm once so an attempt that goes quiescent
        // later is still rescued. A marked attempt is not re-marked, which
        // bounds timeout traffic for runs that legitimately stall (e.g.
        // `ReservedStrict` deadlocks must still drain).
        if !marked {
            self.messages[msg.idx()].as_mut().expect("checked").timed_out = true;
            self.arm_timeout(msg, sched);
        }
    }

    /// Locate the (single) channel queue entry of a quiescent message.
    /// At most one edge of a message is ever queued: the next pipelined
    /// edge is only scheduled when the previous one starts its transfer.
    fn find_queued_edge(&self, msg: MsgId) -> Option<(usize, usize)> {
        for (ci, ch) in self.channels.iter().enumerate() {
            if let Some(pos) = ch.queue.iter().position(|&m| m == msg) {
                return Some((ci, pos));
            }
        }
        None
    }

    /// A declared link-outage window opens: in-flight transfers finish on
    /// the wire (outages quantize to transfer boundaries), but the channel
    /// starts nothing new until the window closes. Under wormhole
    /// switching the quantization doesn't apply — worms resident on the
    /// link are drained deterministically (ascending message id) and their
    /// messages re-enter via the retry protocol.
    fn on_link_down(&mut self, chan: u32, now: SimTime, sched: &mut impl EventScheduler<Event>) {
        self.grow_for_channel(chan);
        let ch = &mut self.channels[chan as usize];
        if !ch.up {
            return;
        }
        ch.up = false;
        self.counters.link_downs += 1;
        self.obs(now, ObsEvent::LinkDown { chan });
        if self.wormhole.is_some() {
            let mut holders: Vec<MsgId> = self
                .wormhole
                .as_ref()
                .expect("wormhole state")
                .chans[chan as usize]
                .holders()
                .collect();
            holders.sort();
            holders.dedup();
            for msg in holders {
                if self.drain_worm(msg, now, sched) {
                    // The drain supersedes any pending delivery timeout:
                    // the retry protocol re-arms its own timer.
                    if let Some(h) = self.fault_timers[msg.idx()].take() {
                        sched.cancel_timer(h);
                    }
                    self.retry_message(msg, now, sched);
                }
            }
        }
    }

    /// A declared link-outage window closes: resume the channel's queue.
    fn on_link_up(&mut self, chan: u32, now: SimTime, sched: &mut impl EventScheduler<Event>) {
        self.grow_for_channel(chan);
        let ci = chan as usize;
        if self.channels[ci].up {
            return;
        }
        self.channels[ci].up = true;
        self.obs(now, ObsEvent::LinkUp { chan });
        if self.channels[ci].busy_with.is_none() {
            if let Some(next) = self.channels[ci].queue.pop_front() {
                self.start_transfer(ci, next, now, sched);
            }
        }
        if self.wormhole.is_some() {
            // Grant VCs to worms that queued against the downed link (its
            // VCs are all free: resident worms were drained at link-down
            // and allocation is gated on `up`).
            let mut grants: Vec<(MsgId, u8)> = Vec::new();
            {
                let wh = self.wormhole.as_mut().expect("wormhole state");
                let vch = &mut wh.chans[ci];
                for class in 0..vch.waiting.len() {
                    while let Some(&msg) = vch.waiting[class].front() {
                        match vch.alloc_vc(class as u8, msg) {
                            Some(vc) => {
                                vch.waiting[class].pop_front();
                                grants.push((msg, vc));
                            }
                            None => break,
                        }
                    }
                }
            }
            self.wormhole.as_mut().expect("wormhole state").held += grants.len();
            for (msg, vc) in grants {
                let link = self.worm_link_on(msg, ci);
                self.wormhole
                    .as_mut()
                    .expect("wormhole state")
                    .worm_mut(msg)
                    .expect("waiter has worm")
                    .links[link]
                    .vc = Some(vc);
                self.counters.vc_allocs += 1;
                self.obs(now, ObsEvent::WormVcAlloc { msg: msg.0, chan, vc });
            }
            self.note_vc_occupancy(now);
            self.ensure_flit_ticking(ci, now, sched);
        }
    }

    /// A declared node crash: fail-stop the node's CPU. Jobs with a
    /// process placed on it are killed (running) or failed (resident but
    /// not started); the node's link engines keep forwarding other jobs'
    /// traffic. Messages never cross jobs, so no surviving job ever
    /// addresses the dead CPU.
    fn on_node_crash(&mut self, node: u32, now: SimTime, sched: &mut impl EventScheduler<Event>) {
        self.grow_to(self.net.partition_of(node));
        if self.dead[node as usize] {
            return;
        }
        self.dead[node as usize] = true;
        self.counters.node_crashes += 1;
        self.obs(now, ObsEvent::NodeCrashed { node });
        self.note_alive_capacity(now);
        let victims: Vec<(JobId, JobState)> = self
            .jobs
            .iter()
            .filter(|j| {
                matches!(j.state, JobState::Ready | JobState::Running)
                    && j.placement.contains(&node)
            })
            .map(|j| (j.id, j.state))
            .collect();
        for (job, state) in victims {
            if state == JobState::Running {
                self.kill_job(job, now, sched);
            } else {
                self.fail_job(job, now, sched);
            }
        }
    }

    /// Fail-stop a running job: preempt and retire its processes, purge
    /// its queued work from every CPU/MMU/channel queue, cancel and
    /// account every message it owns as dropped, then mark it failed.
    fn kill_job(&mut self, job: JobId, now: SimTime, sched: &mut impl EventScheduler<Event>) {
        if self.jobs[job.idx()].state != JobState::Running {
            return; // a second fault raced the first kill
        }
        let keys = self.jobs[job.idx()].proc_keys.clone();
        let mut redispatch: Vec<u32> = Vec::new();
        for pk in keys {
            let node = self.procs[pk.idx()].node;
            self.settle_cpu(node, SettleReason::Fault, sched);
            let state = self.procs[pk.idx()].state;
            match state {
                PState::Running if self.running_low(node) == Some(pk) => {
                    // Preempt in place, then retire the process below.
                    self.preempt_low(node, now, sched);
                    redispatch.push(node);
                }
                PState::Ready if !self.procs[pk.idx()].parked => {
                    self.nodes[node as usize].cpu.remove_low(pk);
                    self.note_ready_depth(node, now);
                }
                PState::BlockedAlloc => {
                    // Cancel the blocked sender's queued buffer request;
                    // its staged message is swept below.
                    self.nodes[node as usize]
                        .mmu
                        .cancel_where(|w| w == AllocWaiter::Sender(pk));
                    self.procs[pk.idx()].pending_msg = None;
                }
                _ => {}
            }
            let p = &mut self.procs[pk.idx()];
            p.state = PState::Finished;
            p.finished_at = now;
        }
        // Sweep the job's messages in two passes. Pass 1 cancels every
        // owned message and detaches it from queues and timers *before*
        // any memory is released, so the MMU pump can never re-grant the
        // dying job's own queued requests.
        let owned: Vec<MsgId> = self
            .messages
            .iter()
            .filter_map(|slot| slot.as_ref())
            .filter(|m| m.job == job && !m.cancelled)
            .map(|m| m.id)
            .collect();
        let mut releases: Vec<(u32, u64)> = Vec::new();
        for &msg in &owned {
            // A dying job's in-flight worm is torn out of the network
            // first (no retry — the sweep below accounts the drop).
            self.drain_worm(msg, now, sched);
            let bytes = self.messages[msg.idx()].as_ref().expect("owned").bytes;
            for ci in 0..self.channels.len() {
                let before = self.channels[ci].queue.len();
                self.channels[ci].queue.retain(|&m| m != msg);
                if self.channels[ci].queue.len() != before
                    && self.cfg.switching == Switching::StoreAndForward
                {
                    // A queued SAF hop already holds its reservation on
                    // the receiving node.
                    releases.push((self.channels[ci].to, bytes + self.cfg.msg_header_bytes));
                }
            }
            for n in 0..self.nodes.len() {
                self.nodes[n].mmu.cancel_where(|w| {
                    matches!(
                        w,
                        AllocWaiter::Transit(m) | AllocWaiter::PendingSend(m) if m == msg
                    )
                });
            }
            if let Some(h) = self.escape_timers[msg.idx()].take() {
                sched.cancel_timer(h);
            }
            if let Some(h) = self.fault_timers[msg.idx()].take() {
                sched.cancel_timer(h);
            }
            let (at, buffered) = {
                let m = self.messages[msg.idx()].as_mut().expect("owned");
                m.cancelled = true;
                (m.at_node, m.buffered_on.take())
            };
            if let Some(node) = buffered {
                releases.push((node, bytes + self.cfg.msg_header_bytes));
            }
            self.counters.messages_dropped += 1;
            self.obs(now, ObsEvent::MsgDropped { msg: msg.0, job: job.0, node: at });
        }
        for mb in self.jobs[job.idx()].mailboxes.iter_mut() {
            mb.clear();
        }
        // Pass 2: give the buffers back (the pump only grants surviving
        // jobs now) and reclaim whatever nothing references any more;
        // slots with in-flight wire or handler references drain later.
        for (node, bytes) in releases {
            self.release_memory(node, bytes, now, sched);
        }
        for &msg in &owned {
            self.maybe_reclaim(msg);
        }
        for node in redispatch {
            self.dispatch(node, now, sched);
        }
        self.fail_job(job, now, sched);
    }

    /// Mark a job failed, release its resident memory and notify the
    /// scheduler (which may requeue the work under a fresh id).
    fn fail_job(&mut self, job: JobId, now: SimTime, sched: &mut impl EventScheduler<Event>) {
        debug_assert!(
            !matches!(self.jobs[job.idx()].state, JobState::Done | JobState::Failed),
            "failing a terminal job"
        );
        self.jobs[job.idx()].state = JobState::Failed;
        self.jobs[job.idx()].finished_at = now;
        self.counters.jobs_failed += 1;
        let mem = self.jobs[job.idx()].mem_per_node.clone();
        for (node, bytes) in mem {
            if bytes > 0 {
                self.release_memory(node, bytes, now, sched);
            }
        }
        self.notes.push(Note::JobFailed(job));
        self.obs(now, ObsEvent::JobFailed { job: job.0 });
    }

    // ------------------------------------------------------------------
    // Memory
    // ------------------------------------------------------------------

    /// Release memory on a node and grant whatever queued requests now fit.
    fn release_memory(&mut self, node: u32, bytes: u64, now: SimTime, sched: &mut impl EventScheduler<Event>) {
        self.nodes[node as usize].mmu.release(now, bytes);
        let granted = self.nodes[node as usize].mmu.pump(now);
        for req in granted {
            match req.waiter {
                AllocWaiter::Sender(pk) => self.finish_blocked_injection(pk, now, sched),
                AllocWaiter::PendingSend(msg) => self.start_pending_send(msg, now, sched),
                AllocWaiter::Transit(msg) => {
                    if let Some(h) = self.escape_timers[msg.idx()].take() {
                        sched.cancel_timer(h);
                    }
                    self.enqueue_channel(msg, now, sched);
                }
                AllocWaiter::JobLoad(job) => {
                    let j = &mut self.jobs[job.idx()];
                    j.pending_allocs -= 1;
                    if j.pending_allocs == 0 {
                        self.finish_load(job, now, sched);
                    }
                }
            }
        }
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
    use crate::program::ProcSpec;
    use parsched_des::{Engine, QueueKind, RunOutcome};
    use parsched_topology::{build, PartitionPlan, TopologyKind};

    fn single_node_machine() -> Machine {
        Machine::new(MachineConfig::default(), SystemNet::single(&build::linear(1).unwrap()))
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
                ProcSpec { program: vec![], mem_bytes: 0 },
                ProcSpec { program: vec![], mem_bytes: 0 },
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
                ProcSpec { program: vec![], mem_bytes: 0 },
                ProcSpec { program: vec![], mem_bytes: 0 },
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
        let id = m.queue_job(compute_spec("j", 1, 0), vec![0], SimDuration::from_millis(2));
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
        let a = m.queue_job(compute_spec("a", 1, 10_000), vec![0], SimDuration::from_millis(2));
        let b = m.queue_job(compute_spec("b", 1, 10_000), vec![1], SimDuration::from_millis(2));
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
        assert_eq!(m.job(id).loaded_at, SimTime::ZERO + SimDuration::from_millis(1));
    }

    #[test]
    fn parked_job_makes_no_progress_until_released() {
        let mut m = single_node_machine();
        let id = m.queue_job(compute_spec("parked", 5, 0), vec![0], SimDuration::from_millis(2));
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
        let mut model = ParkThenRelease { m, id, released: false };
        assert_eq!(engine.run(&mut model), RunOutcome::Drained);
        assert!(model.released);
        let job = model.m.job(id);
        assert_eq!(job.state, JobState::Done);
        // The 5 ms of compute could only happen after the 1 s release.
        assert!(job.finished_at >= SimTime::ZERO + SimDuration::from_secs(1));
    }

    #[test]
    fn counters_track_a_simple_exchange() {
        let mut m = Machine::new(MachineConfig::default(), SystemNet::single(&build::linear(2).unwrap()));
        let spec = JobSpec {
            name: "pair".into(),
            ship_bytes: 0,
            procs: vec![
                ProcSpec {
                    program: vec![Op::Send { to: Rank(1), bytes: 500, tag: Tag(1) }],
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
                ProcSpec { program: sender, mem_bytes: 0 },
                ProcSpec { program: receiver, mem_bytes: 0 },
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
                Op::Send { to: Rank(1), bytes: 500, tag: Tag(1) },
                Op::Send { to: Rank(1), bytes: 500, tag: Tag(2) },
            ],
            vec![Op::Recv { tag: Tag(1) }, Op::Compute(SimDuration::from_secs(1))],
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
            notes.iter().any(|n| matches!(n, Note::JobFailed(j) if *j == id)),
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
                Op::Send { to: Rank(1), bytes: 500, tag: Tag(1) },
                Op::Send { to: Rank(1), bytes: 500, tag: Tag(2) },
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
            vec![Op::Send { to: Rank(1), bytes: 500, tag: Tag(1) }],
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
        faults.crashes.push(NodeCrash { node: 1_000, at: late });
        faults.links.push(LinkWindow {
            from: 1_000,
            to: 1_001,
            down_at: late,
            up_at: late + SimDuration::from_millis(1),
        });
        let mut m = faulty_machine(faults);
        let spec = pair_spec(
            vec![Op::Send { to: Rank(1), bytes: 500, tag: Tag(1) }],
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
            vec![Op::Send { to: Rank(1), bytes: 500, tag: Tag(1) }],
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
                    Op::Send { to: Rank(1), bytes: 2_000, tag: Tag(1) },
                    Op::Compute(SimDuration::from_millis(10)),
                ],
                vec![Op::Recv { tag: Tag(1) }, Op::Compute(SimDuration::from_millis(10))],
            );
            let id = m.queue_job(spec, vec![0, 1], SimDuration::from_millis(2));
            run_faulty(&mut m, id);
            m.recorder
                .as_deref_mut()
                .and_then(|r| r.as_any_mut().downcast_mut::<parsched_obs::CollectRecorder>())
                .expect("collector installed")
                .take_events()
        }
        let a = run_once();
        let b = run_once();
        assert!(!a.is_empty());
        assert!(
            a.iter().any(|(_, ev)| matches!(ev, parsched_obs::ObsEvent::NodeCrashed { .. })),
            "crash not recorded"
        );
        assert_eq!(a, b, "fault replay diverged");
    }
}
