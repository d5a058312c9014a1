//! Machine timing/geometry configuration.
//!
//! Defaults are calibrated to the paper's hardware — a 16-node INMOS T805
//! system at 25 MHz with 4 MB per node and 20 Mbit/s links — using published
//! Transputer figures for raw link bandwidth and context-switch cost, and
//! software-stack costs (mailbox send/receive, store-and-forward hop
//! handling) in the range reported for Transputer router layers of the era.
//! Absolute values matter less than their ratios; every experiment in
//! `EXPERIMENTS.md` states which knobs it sweeps.

use crate::memory::AllocPolicy;
use parsched_des::SimDuration;

/// How messages move through the network.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Switching {
    /// Store-and-forward at *packet* granularity, the way real Transputer
    /// software routers worked: the message is cut into `packet_bytes`
    /// packets that pipeline through the route (hop `h+1` starts one packet
    /// time after hop `h`), so multi-hop latency is `transfer + hops x
    /// packet_time` instead of `hops x transfer`. Every intermediate node
    /// still pays the full per-byte handler CPU cost (each byte crosses its
    /// memory), and the destination holds the message buffer until the
    /// receiver consumes it. The default.
    PacketizedSaf,
    /// Whole-message store-and-forward: each hop fully buffers the message
    /// at the receiving node (buffer allocated from node memory) before
    /// forwarding, and pays a software router-handler cost on that node's
    /// CPU. Ablation: the most literal reading of §3.2.
    StoreAndForward,
    /// Flit-level wormhole routing, the interconnect the paper conjectures
    /// about in §5.2, modelled for real: messages move as a train of
    /// `flit_bytes` flits behind a header that allocates one virtual
    /// channel per link as it advances; flits pipeline behind it under
    /// credit-based flow control (`vc_credits` flit buffers per VC), and a
    /// blocked header stalls the whole worm *in place*, holding its VCs —
    /// link contention, VC occupancy and credit stalls are all simulated.
    /// Dateline/phase escape classes from `parsched_topology::flow` keep
    /// the channel-dependency graph acyclic (deadlock-free by
    /// construction; tested). Intermediate nodes buffer nothing and spend
    /// no CPU — router logic is hardware, not software — so only the
    /// destination pays a handler cost.
    Wormhole,
}

/// How store-and-forward transit buffers interact with node memory.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlowControl {
    /// Transit-buffer allocations may overdraw node memory (modelling
    /// pre-reserved system buffer pools); only *injection* (the sending
    /// process) and job loading block on memory. Store-and-forward progress
    /// can then never deadlock, while memory pressure still throttles
    /// senders.
    InjectionLimited,
    /// Transit hops queue on the destination node's MMU like any other
    /// request (§3.2) — under pressure links sit idle waiting for buffer
    /// space, the paper's memory-contention effect. To stay deadlock-free
    /// (bidirectional traffic on a chain can otherwise cycle), a transit
    /// request that has waited `transit_escape_after` is force-granted from
    /// an emergency system pool (overdraft). The default.
    Reserved,
    /// Like [`FlowControl::Reserved`] but with no escape: faithful
    /// buffer-reservation store-and-forward, which *can* deadlock exactly
    /// as the real scheme could; the simulation then ends with blocked jobs
    /// and the harness reports it rather than hanging.
    ReservedStrict,
}

/// How a process's `Send` interacts with source-buffer allocation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SendMode {
    /// The paper's mailbox semantics: the send is asynchronous — the
    /// process pays the send CPU cost and *continues*; if no buffer is
    /// available the message waits in the source MMU's queue (the data
    /// stays in the process's resident arrays meanwhile). No back-pressure
    /// on the application.
    Async,
    /// The sender blocks until its outgoing buffer is granted (end-to-end
    /// flow control; ablation).
    Blocking,
}

/// All tunable machine parameters.
#[derive(Debug, Clone)]
pub struct MachineConfig {
    /// Memory per node in bytes (T805 boards in the paper: 4 MB).
    pub mem_capacity: u64,
    /// Message switching scheme.
    pub switching: Switching,
    /// Transit-buffer flow control (store-and-forward only).
    pub flow: FlowControl,
    /// Grant discipline of each node's MMU queue.
    pub alloc_policy: AllocPolicy,
    /// Send-side flow control.
    pub send_mode: SendMode,
    /// Bytes per node withheld from non-transit allocations so forwarding
    /// always has headroom (a pre-reserved system buffer pool).
    pub transit_reserve: u64,
    /// Under [`FlowControl::Reserved`], how long a transit buffer request
    /// may starve before the emergency pool satisfies it.
    pub transit_escape_after: SimDuration,
    /// Bytes per node consumed by the kernel, mailbox system and router
    /// code; unavailable to jobs and buffers. The paper's 4 MB nodes ran
    /// the whole software stack out of that memory, which is why the
    /// matrix sizes were memory-constrained (§5.2 footnote).
    pub os_overhead: u64,
    /// Default low-priority process quantum (T805 hardware: 2 ms; policies
    /// override per process with the RR-job rule).
    pub default_quantum: SimDuration,
    /// Overhead charged when the CPU switches to a low-priority process
    /// (hardware switch plus the paper's software preemption control).
    pub ctx_switch_low: SimDuration,
    /// Overhead charged when a high-priority handler starts (the T805
    /// hardware switch is sub-microsecond).
    pub ctx_switch_high: SimDuration,
    /// Fixed CPU time a process spends issuing an asynchronous mailbox send.
    pub send_overhead: SimDuration,
    /// Per-byte CPU time of a send (copying the payload into the mailbox
    /// buffer; T805 memcpy runs at a handful of MB/s).
    pub send_per_byte: SimDuration,
    /// Fixed CPU time a process spends consuming one message from its
    /// mailbox.
    pub recv_overhead: SimDuration,
    /// Per-byte CPU time of a receive (copying the payload out of the
    /// buffer into user space).
    pub recv_per_byte: SimDuration,
    /// Fixed high-priority CPU cost of the store-and-forward router handler
    /// per arriving message (runs on the node the message just reached).
    pub hop_handler: SimDuration,
    /// Per-byte high-priority CPU cost of handling an arrived message
    /// (software store-and-forward moves every byte through memory). This
    /// is the dominant "message congestion" cost the paper attributes
    /// time-sharing's losses to: under high MPL it preempts and starves
    /// co-resident jobs' computation.
    pub handler_per_byte: SimDuration,
    /// Fixed high-priority CPU cost of delivering a self-addressed message
    /// (same-node sends still traverse the mailbox machinery, §5.2);
    /// `handler_per_byte` applies on top.
    pub self_delivery: SimDuration,
    /// Fixed per-transfer link startup time.
    pub link_startup: SimDuration,
    /// Link time per payload byte (20 Mbit/s links deliver ~1.7 MB/s of
    /// payload after protocol overhead, i.e. ~588 ns/byte).
    pub link_per_byte: SimDuration,
    /// Flit size for [`Switching::Wormhole`] (payload bytes per flit; one
    /// extra header flit is prepended to every worm).
    pub flit_bytes: u64,
    /// Virtual channels per escape class per link direction under
    /// [`Switching::Wormhole`]. Escape-class counts come from the
    /// topology (`parsched_topology::flow::vc_class_count`).
    pub vcs_per_class: u8,
    /// Flit buffers per virtual channel (the credit loop depth) under
    /// [`Switching::Wormhole`].
    pub vc_credits: u8,
    /// Packet size for [`Switching::PacketizedSaf`].
    pub packet_bytes: u64,
    /// Per-message buffer bookkeeping overhead added to every allocation.
    pub msg_header_bytes: u64,
    /// Fixed part of a job load (boot protocol, process setup).
    pub job_load_latency: SimDuration,
    /// Per-byte time to ship a job's code + data from the host workstation
    /// into the machine. Every job enters through the single host link
    /// (the paper reserves one transputer for it), so loads are globally
    /// serialized — the effect behind "the time-sharing policy loads and
    /// starts execution of all 16 jobs" (§5.2).
    pub host_link_per_byte: SimDuration,
    /// Record per-process/per-handler/per-message execution spans in
    /// [`Machine::timeline`](crate::system::Machine) (off by default; adds
    /// memory proportional to activity).
    pub record_timeline: bool,
    /// Safety valve: abort a run after this many engine events.
    pub max_events: u64,
    /// Declared fault schedule (crashes, link windows, drop probability,
    /// mailbox capacity, retry policy). The default — an empty plan — makes
    /// every fault-handling path unreachable; see [`crate::fault`].
    pub faults: crate::fault::FaultPlan,
}

impl Default for MachineConfig {
    fn default() -> Self {
        MachineConfig {
            mem_capacity: 4 * 1024 * 1024,
            switching: Switching::PacketizedSaf,
            flow: FlowControl::Reserved,
            alloc_policy: AllocPolicy::FirstFit,
            send_mode: SendMode::Async,
            transit_reserve: 128 * 1024,
            transit_escape_after: SimDuration::from_millis(25),
            os_overhead: 1280 * 1024,
            default_quantum: SimDuration::from_millis(2),
            ctx_switch_low: SimDuration::from_micros(50),
            ctx_switch_high: SimDuration::from_micros(3),
            send_overhead: SimDuration::from_micros(200),
            send_per_byte: SimDuration::from_nanos(600),
            recv_overhead: SimDuration::from_micros(200),
            recv_per_byte: SimDuration::from_nanos(600),
            hop_handler: SimDuration::from_micros(400),
            handler_per_byte: SimDuration::from_nanos(600),
            self_delivery: SimDuration::from_micros(60),
            link_startup: SimDuration::from_micros(20),
            link_per_byte: SimDuration::from_nanos(588),
            flit_bytes: 64,
            vcs_per_class: 1,
            vc_credits: 4,
            packet_bytes: 4096,
            msg_header_bytes: 64,
            job_load_latency: SimDuration::from_millis(50),
            host_link_per_byte: SimDuration::from_nanos(150),
            record_timeline: false,
            max_events: 500_000_000,
            faults: crate::fault::FaultPlan::default(),
        }
    }
}

impl MachineConfig {
    /// Link time to move `bytes` across one channel (startup + serialization).
    pub fn transfer_time(&self, bytes: u64) -> SimDuration {
        self.link_startup + SimDuration::from_nanos(self.link_per_byte.nanos() * bytes)
    }

    /// Host-link occupancy of loading one job that ships `ship_bytes`
    /// (fixed latency plus serialization). Loads are globally serialized
    /// in admission order; the sharded runner precomputes each job's
    /// loader start from these durations.
    pub fn load_duration(&self, ship_bytes: u64) -> SimDuration {
        self.job_load_latency
            + SimDuration::from_nanos(self.host_link_per_byte.nanos() * ship_bytes)
    }

    /// Pipeline offset between consecutive hops under packetized
    /// store-and-forward: the time for one packet to cross a link.
    pub fn packet_latency(&self) -> SimDuration {
        self.transfer_time(self.packet_bytes.max(1))
    }

    /// CPU time a sender spends issuing a `bytes`-byte send.
    pub fn send_cost(&self, bytes: u64) -> SimDuration {
        self.send_overhead + SimDuration::from_nanos(self.send_per_byte.nanos() * bytes)
    }

    /// CPU time a receiver spends consuming a `bytes`-byte message.
    pub fn recv_cost(&self, bytes: u64) -> SimDuration {
        self.recv_overhead + SimDuration::from_nanos(self.recv_per_byte.nanos() * bytes)
    }

    /// Serialization time of one flit across one link under wormhole
    /// switching (no per-flit startup; the header flit paid `link_startup`
    /// conceptually folds into `flit_bytes` of header).
    pub fn flit_time(&self) -> SimDuration {
        SimDuration::from_nanos(self.link_per_byte.nanos() * self.flit_bytes.max(1))
    }

    /// Flits in a `bytes`-byte worm: payload flits plus one header flit.
    pub fn worm_flits(&self, bytes: u64) -> u64 {
        bytes.div_ceil(self.flit_bytes.max(1)) + 1
    }

    /// High-priority CPU time to handle a `bytes`-byte message arrival.
    pub fn handler_cost(&self, bytes: u64) -> SimDuration {
        self.hop_handler + SimDuration::from_nanos(self.handler_per_byte.nanos() * bytes)
    }

    /// High-priority CPU time to deliver a `bytes`-byte self-addressed
    /// message.
    pub fn self_delivery_cost(&self, bytes: u64) -> SimDuration {
        self.self_delivery + SimDuration::from_nanos(self.handler_per_byte.nanos() * bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_t805_like() {
        let c = MachineConfig::default();
        assert_eq!(c.mem_capacity, 4 * 1024 * 1024);
        assert_eq!(c.default_quantum, SimDuration::from_millis(2));
        assert_eq!(c.switching, Switching::PacketizedSaf);
    }

    #[test]
    fn transfer_time_scales_with_bytes() {
        let c = MachineConfig::default();
        let t0 = c.transfer_time(0);
        assert_eq!(t0, c.link_startup);
        let t1k = c.transfer_time(1000);
        assert_eq!(t1k, c.link_startup + SimDuration::from_nanos(588_000));
        // 80 KB (a large matrix B) takes ~48 ms per hop: congestion is real.
        let tb = c.transfer_time(80_000);
        assert!(tb > SimDuration::from_millis(40) && tb < SimDuration::from_millis(60));
    }
}
