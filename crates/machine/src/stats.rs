//! Machine-level statistics snapshots.
//!
//! The paper attributes the static-vs-time-sharing gap to concrete system
//! effects — link congestion, memory contention, context-switch overhead —
//! so the machine exposes them all: per-node CPU utilization and preemption
//! counts, per-channel utilization, MMU queueing delay, and message volume.

use crate::process::JobId;
use crate::system::{JobState, Machine};
use parsched_des::{SimDuration, SimTime};

/// Per-job accounting, aggregated over the job's processes.
#[derive(Debug, Clone)]
pub struct JobSummary {
    /// The job.
    pub id: JobId,
    /// Name from the spec.
    pub name: String,
    /// Response time (completion minus admission).
    pub response: SimDuration,
    /// Load time (processes runnable minus admission): host-link queueing
    /// plus shipping plus memory waits.
    pub load_time: SimDuration,
    /// CPU time accrued by the job's processes (compute + messaging
    /// software costs).
    pub cpu_time: SimDuration,
    /// Sequential compute demand from the spec.
    pub demand: SimDuration,
    /// Processes in the job.
    pub width: usize,
}

impl JobSummary {
    /// Aggregate a finished job (completed, or killed by a fault — a
    /// failed attempt still consumed CPU and link time worth accounting).
    ///
    /// # Panics
    /// Panics if the job is not in a terminal state.
    pub fn capture(machine: &Machine, id: JobId) -> JobSummary {
        let job = machine.job(id);
        assert!(
            matches!(job.state, JobState::Done | JobState::Failed),
            "job must be complete"
        );
        let cpu_time = job
            .proc_keys
            .iter()
            .map(|pk| machine.processes()[pk.idx()].cpu_time)
            .sum();
        JobSummary {
            id,
            name: job.name.clone(),
            response: job.response_time(),
            load_time: job.loaded_at.since(job.submitted_at),
            cpu_time,
            demand: job.total_compute,
            width: job.proc_keys.len(),
        }
    }

    /// Fraction of the response spent on the CPUs doing the job's own work
    /// (compute + its messaging costs), summed across processes — can
    /// exceed 1.0 when the job runs with real parallelism.
    pub fn cpu_share(&self) -> f64 {
        if self.response.is_zero() {
            0.0
        } else {
            self.cpu_time.as_secs_f64() / self.response.as_secs_f64()
        }
    }
}

/// A point-in-time summary of machine activity (typically taken at the end
/// of a run).
#[derive(Debug, Clone)]
pub struct MachineStats {
    /// When the snapshot was taken.
    pub at: SimTime,
    /// Mean CPU utilization across nodes (0..1).
    pub mean_cpu_utilization: f64,
    /// Per-node CPU utilization.
    pub cpu_utilization: Vec<f64>,
    /// Total low-priority dispatches.
    pub ctx_switches: u64,
    /// Total high-priority handler executions.
    pub handler_runs: u64,
    /// Total quantum expiries.
    pub quantum_expiries: u64,
    /// Total quantum-loss preemptions by high-priority work.
    pub preemptions: u64,
    /// Mean link utilization across channels (0..1; 0 if no channels).
    pub mean_link_utilization: f64,
    /// Highest single-channel utilization.
    pub max_link_utilization: f64,
    /// Total bytes carried over links.
    pub link_bytes: u64,
    /// Mean bytes-in-use across node memories.
    pub mean_mem_used: f64,
    /// Peak bytes allocated on any single node (including overdraft).
    pub peak_mem_used: u64,
    /// Allocation requests that had to queue.
    pub mmu_delayed_grants: u64,
    /// Total time allocation requests spent queued.
    pub mmu_total_wait: SimDuration,
    /// Messages injected / consumed / self-addressed.
    pub messages_sent: u64,
    /// Messages consumed by receivers.
    pub messages_consumed: u64,
    /// Same-node messages.
    pub self_sends: u64,
    /// Hop transfers completed.
    pub hop_transfers: u64,
    /// Senders that blocked for a buffer at least once.
    pub send_blocks: u64,
    /// Transit requests satisfied from the emergency pool after starving.
    pub transit_escapes: u64,
    /// Jobs completed.
    pub jobs_completed: u64,
    /// Messages terminally dropped by declared faults (0 on clean runs).
    pub messages_dropped: u64,
    /// Retransmissions performed by the timeout-retry protocol.
    pub retries: u64,
    /// Delivery timeouts fired.
    pub timeouts: u64,
    /// Fail-stop node crashes executed.
    pub node_crashes: u64,
    /// Link-outage windows opened.
    pub link_downs: u64,
    /// Job incarnations killed by faults.
    pub jobs_failed: u64,
    /// Jobs re-admitted after a fault killed an earlier incarnation.
    pub jobs_requeued: u64,
}

impl MachineStats {
    /// CSV header matching [`MachineStats::to_csv_row`].
    pub fn csv_header() -> &'static str {
        "at_ns,mean_cpu,ctx_switches,handler_runs,quantum_expiries,preemptions,\
         mean_link,max_link,link_bytes,mean_mem,peak_mem,mmu_delayed,\
         mmu_wait_ns,msgs_sent,msgs_consumed,self_sends,hops,send_blocks,\
         transit_escapes,jobs_done,msgs_dropped,retries,timeouts,\
         node_crashes,link_downs,jobs_failed,jobs_requeued"
    }

    /// One CSV row of the snapshot's scalars.
    pub fn to_csv_row(&self) -> String {
        format!(
            "{},{:.6},{},{},{},{},{:.6},{:.6},{},{:.0},{},{},{},{},{},{},{},{},{},{},\
             {},{},{},{},{},{},{}",
            self.at.nanos(),
            self.mean_cpu_utilization,
            self.ctx_switches,
            self.handler_runs,
            self.quantum_expiries,
            self.preemptions,
            self.mean_link_utilization,
            self.max_link_utilization,
            self.link_bytes,
            self.mean_mem_used,
            self.peak_mem_used,
            self.mmu_delayed_grants,
            self.mmu_total_wait.nanos(),
            self.messages_sent,
            self.messages_consumed,
            self.self_sends,
            self.hop_transfers,
            self.send_blocks,
            self.transit_escapes,
            self.jobs_completed,
            self.messages_dropped,
            self.retries,
            self.timeouts,
            self.node_crashes,
            self.link_downs,
            self.jobs_failed,
            self.jobs_requeued,
        )
    }

    /// Snapshot `machine` at time `at`.
    ///
    /// Only built state is walked. A node or channel the machine never
    /// built is idle since `t0`, so its utilization and mean memory are
    /// exactly `0.0` and its counts are zero; adding `+0.0` leaves an f64
    /// sum unchanged, so every field equals what walking the whole machine
    /// gives. Denominators are the machine's full node and channel counts.
    pub fn capture(machine: &Machine, at: SimTime) -> MachineStats {
        let n = machine.node_count();
        let mut cpu_utilization = Vec::with_capacity(n);
        let mut ctx_switches = 0;
        let mut handler_runs = 0;
        let mut quantum_expiries = 0;
        let mut preemptions = 0;
        let mut mem_mean_sum = 0.0;
        let mut peak_mem = 0;
        let mut delayed = 0;
        let mut wait = SimDuration::ZERO;
        for node in machine.built_nodes() {
            cpu_utilization.push(node.cpu.busy.mean(at));
            ctx_switches += node.cpu.ctx_switches;
            handler_runs += node.cpu.handler_runs;
            quantum_expiries += node.cpu.quantum_expiries;
            preemptions += node.cpu.preemptions;
            mem_mean_sum += node.mmu.usage.mean(at);
            peak_mem = peak_mem.max(node.mmu.peak_used);
            delayed += node.mmu.delayed_grants;
            wait += node.mmu.total_wait;
        }
        cpu_utilization.resize(n, 0.0);
        let mut link_sum = 0.0;
        let mut link_max: f64 = 0.0;
        let mut link_bytes = 0;
        for ch in machine.channel_states() {
            let u = ch.busy.mean(at);
            link_sum += u;
            link_max = link_max.max(u);
            link_bytes += ch.bytes_carried;
        }
        let chans = machine.net().channel_count();
        MachineStats {
            at,
            mean_cpu_utilization: if n == 0 {
                0.0
            } else {
                cpu_utilization.iter().sum::<f64>() / n as f64
            },
            cpu_utilization,
            ctx_switches,
            handler_runs,
            quantum_expiries,
            preemptions,
            mean_link_utilization: if chans == 0 {
                0.0
            } else {
                link_sum / chans as f64
            },
            max_link_utilization: link_max,
            link_bytes,
            mean_mem_used: if n == 0 { 0.0 } else { mem_mean_sum / n as f64 },
            peak_mem_used: peak_mem,
            mmu_delayed_grants: delayed,
            mmu_total_wait: wait,
            messages_sent: machine.counters.messages_sent,
            messages_consumed: machine.counters.messages_consumed,
            self_sends: machine.counters.self_sends,
            hop_transfers: machine.counters.hop_transfers,
            send_blocks: machine.counters.send_blocks,
            transit_escapes: machine.counters.transit_escapes,
            jobs_completed: machine.counters.jobs_completed,
            messages_dropped: machine.counters.messages_dropped,
            retries: machine.counters.retries,
            timeouts: machine.counters.timeouts,
            node_crashes: machine.counters.node_crashes,
            link_downs: machine.counters.link_downs,
            jobs_failed: machine.counters.jobs_failed,
            jobs_requeued: machine.counters.jobs_requeued,
        }
    }
}
