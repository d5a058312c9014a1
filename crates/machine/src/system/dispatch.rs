//! CPU dispatch and slices: the two-priority round-robin, preemption
//! with quantum loss, and slice ends. [`crate::rotation`] holds the
//! closed-form express path of the same rotation.

use super::{Event, Machine, PhaseLoad};
use crate::cpu::{HandlerAction, HandlerTask, RunKind, Running};
use crate::process::{PState, ProcKey};
use crate::rotation::SettleReason;
use crate::timeline::{Span, SpanKind};
use parsched_des::{EventScheduler, SimTime};
use parsched_obs::{ObsEvent, QuantumEndReason};

impl Machine {
    /// Enqueue high-priority work on a node, preempting low-priority work.
    pub(super) fn enqueue_high(
        &mut self,
        node: u32,
        task: HandlerTask,
        now: SimTime,
        sched: &mut impl EventScheduler<Event>,
    ) {
        if let HandlerAction::HopArrived(m) = task.action {
            self.ref_msg(m);
        }
        self.settle_cpu(node, SettleReason::Interrupt, sched);
        self.nodes[node as usize].cpu.high.push_back(task);
        match self.nodes[node as usize].cpu.running {
            None => self.dispatch(node, now, sched),
            Some(Running {
                kind: RunKind::Low(_),
                ..
            }) => self.preempt_and_requeue(node, now, sched),
            Some(Running {
                kind: RunKind::High(_),
                ..
            }) => {
                // High-priority work runs to completion; the new task waits
                // its turn in FIFO order.
            }
        }
    }

    /// The low-priority process running on `node`, if any.
    pub(super) fn running_low(&self, node: u32) -> Option<ProcKey> {
        match self.nodes[node as usize].cpu.running {
            Some(Running {
                kind: RunKind::Low(pk),
                ..
            }) => Some(pk),
            _ => None,
        }
    }

    /// Preempt the low-priority process running on `node` (a caller has
    /// settled the node): account its partial slice; it loses the rest of
    /// its quantum (T805 rule). Returns the process.
    pub(super) fn preempt_low(
        &mut self,
        node: u32,
        now: SimTime,
        sched: &mut impl EventScheduler<Event>,
    ) -> ProcKey {
        let cpu = &mut self.nodes[node as usize].cpu;
        let Some(Running {
            kind: RunKind::Low(pk),
            work_started,
            ..
        }) = cpu.running.take()
        else {
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
    pub(super) fn preempt_and_requeue(
        &mut self,
        node: u32,
        now: SimTime,
        sched: &mut impl EventScheduler<Event>,
    ) {
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
    pub(super) fn dispatch(
        &mut self,
        node: u32,
        now: SimTime,
        sched: &mut impl EventScheduler<Event>,
    ) {
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
            let (HandlerAction::HopArrived(msg) | HandlerAction::PacketRelay(msg)) = task.action;
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

    pub(super) fn on_slice_end(
        &mut self,
        node: u32,
        seq: u64,
        now: SimTime,
        sched: &mut impl EventScheduler<Event>,
    ) {
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
                let quantum_end = |reason| ObsEvent::QuantumEnd {
                    node,
                    job,
                    rank,
                    reason,
                };
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
                            let high_waiting = !self.nodes[node as usize].cpu.high.is_empty();
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
}
