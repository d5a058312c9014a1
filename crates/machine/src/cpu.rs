//! Per-node CPU state.
//!
//! The T805 maintains two hardware ready queues (§3.1): a high-priority
//! queue whose processes run to completion, and a low-priority round-robin
//! queue with a fixed quantum. High-priority work preempts low-priority work
//! immediately, and the preempted process *loses* the unfinished part of its
//! quantum. We reserve the high-priority queue for system work (the
//! store-and-forward router handlers and mailbox delivery), exactly as the
//! paper's communication system did; application processes run at low
//! priority with a per-process quantum the scheduling policy chooses.
//!
//! This module holds the data structure; the scheduling mechanics live in
//! [`crate::system`] because they touch processes, memory and the network.

use crate::net::MsgId;
use crate::process::ProcKey;
use parsched_des::{BusyTime, SimTime, TimerHandle};
use std::collections::VecDeque;

/// What a high-priority handler does once its CPU cost has been paid.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HandlerAction {
    /// A message has fully arrived at this node: forward it or deliver it.
    HopArrived(MsgId),
    /// Packetized store-and-forward: the per-byte copy work of relaying a
    /// message through this node (CPU cost only; the pipeline drives
    /// itself).
    PacketRelay(MsgId),
}

/// A unit of high-priority system work.
#[derive(Debug, Clone, Copy)]
pub struct HandlerTask {
    /// CPU time the handler consumes.
    pub cost: parsched_des::SimDuration,
    /// What happens when it completes.
    pub action: HandlerAction,
}

/// What the CPU is currently executing.
#[derive(Debug, Clone, Copy)]
pub enum RunKind {
    /// A low-priority application process.
    Low(ProcKey),
    /// A high-priority handler.
    High(HandlerTask),
}

/// The currently running item plus its timing bookkeeping.
#[derive(Debug, Clone, Copy)]
pub struct Running {
    /// What is running.
    pub kind: RunKind,
    /// When useful work started (dispatch time + context-switch overhead).
    pub work_started: SimTime,
    /// When the current quantum expires (low-priority only; for handlers
    /// this is simply the completion time).
    pub quantum_end: SimTime,
    /// Dispatch sequence number; a `SliceEnd` event carrying a stale number
    /// is ignored (lazy event invalidation).
    pub seq: u64,
}

/// One node's CPU.
#[derive(Debug)]
pub struct Cpu {
    /// High-priority FIFO queue (run to completion).
    pub high: VecDeque<HandlerTask>,
    /// Low-priority round-robin queue.
    pub low: VecDeque<ProcKey>,
    /// The running item, if any.
    pub running: Option<Running>,
    /// While set, `dispatch` is a no-op: the scheduler is mid-decision about
    /// this CPU and will dispatch itself (prevents re-entrant event handlers
    /// from racing it onto the CPU).
    pub hold: bool,
    /// Monotone dispatch counter for lazy invalidation.
    pub seq: u64,
    /// The pending `SliceEnd` timer for the running item, if any. Cancelled
    /// eagerly on preemption so stale expiries leave the pending-event set
    /// instead of firing and being discarded; the `seq` check stays as a
    /// correctness backstop.
    pub slice_timer: Option<TimerHandle>,
    /// Busy/idle signal for utilization statistics.
    pub busy: BusyTime,
    /// Low-priority dispatches performed.
    pub ctx_switches: u64,
    /// Handler executions.
    pub handler_runs: u64,
    /// Times a low-priority process exhausted its quantum.
    pub quantum_expiries: u64,
    /// Times a low-priority process was preempted by high-priority work
    /// (losing its quantum, per the T805 rule).
    pub preemptions: u64,
}

impl Cpu {
    /// An idle CPU.
    pub fn new(t0: SimTime) -> Cpu {
        Cpu {
            high: VecDeque::new(),
            low: VecDeque::new(),
            running: None,
            hold: false,
            seq: 0,
            slice_timer: None,
            busy: BusyTime::new(t0),
            ctx_switches: 0,
            handler_runs: 0,
            quantum_expiries: 0,
            preemptions: 0,
        }
    }

    /// True if nothing is running and both queues are empty.
    pub fn is_idle(&self) -> bool {
        self.running.is_none() && self.high.is_empty() && self.low.is_empty()
    }

    /// Advance the dispatch sequence, invalidating outstanding `SliceEnd`s.
    pub fn bump_seq(&mut self) -> u64 {
        self.seq += 1;
        self.seq
    }

    /// Remove a process from the low-priority queue (used when a blocked
    /// state is discovered while it is still queued; rare but possible when
    /// wake and block race within one instant).
    pub fn remove_low(&mut self, key: ProcKey) {
        self.low.retain(|&k| k != key);
    }

    /// Depth of the low-priority (application) ready queue — the
    /// "ready-queue length" signal the observability layer samples.
    pub fn ready_depth(&self) -> usize {
        self.low.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use parsched_des::SimDuration;

    #[test]
    fn fresh_cpu_is_idle() {
        let cpu = Cpu::new(SimTime::ZERO);
        assert!(cpu.is_idle());
        assert_eq!(cpu.seq, 0);
    }

    #[test]
    fn bump_seq_is_monotone() {
        let mut cpu = Cpu::new(SimTime::ZERO);
        assert_eq!(cpu.bump_seq(), 1);
        assert_eq!(cpu.bump_seq(), 2);
    }

    #[test]
    fn remove_low_filters() {
        let mut cpu = Cpu::new(SimTime::ZERO);
        cpu.low.push_back(ProcKey(1));
        cpu.low.push_back(ProcKey(2));
        cpu.low.push_back(ProcKey(1));
        cpu.remove_low(ProcKey(1));
        assert_eq!(
            cpu.low.iter().copied().collect::<Vec<_>>(),
            vec![ProcKey(2)]
        );
    }

    #[test]
    fn queues_make_cpu_non_idle() {
        let mut cpu = Cpu::new(SimTime::ZERO);
        cpu.high.push_back(HandlerTask {
            cost: SimDuration::from_micros(10),
            action: HandlerAction::HopArrived(MsgId(0)),
        });
        assert!(!cpu.is_idle());
    }
}
