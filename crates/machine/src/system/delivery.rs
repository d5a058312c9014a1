//! Memory and delivery: the recycled message slab, arrival handlers,
//! mailbox delivery and consumption, and the MMU release pump.

use super::{Event, Machine, MsgSlab};
use crate::cpu::HandlerAction;
use crate::memory::AllocWaiter;
use crate::net::{Message, MsgId};
use crate::process::PState;
use crate::timeline::{Span, SpanKind};
use parsched_des::{EventScheduler, SimTime};
use parsched_obs::ObsEvent;

impl Machine {
    /// Count an engine-held reference to a message slot (a wire occupancy,
    /// a scheduled pipelined-edge start, or a queued arrival handler).
    /// Pure bookkeeping on clean runs: a cancelled slot is reclaimed only
    /// once every counted reference has drained, so no stale event can
    /// observe a recycled slot. Packet-relay handler tasks are *not*
    /// counted — they never act on the slot and may legitimately outlive
    /// it even on clean runs.
    #[inline]
    pub(super) fn ref_msg(&mut self, msg: MsgId) {
        if let Some(m) = self.messages[msg.idx()].as_mut() {
            m.live_refs += 1;
        }
    }

    /// Drop one counted reference (see [`Machine::ref_msg`]).
    #[inline]
    pub(super) fn unref_msg(&mut self, msg: MsgId) {
        if let Some(m) = self.messages[msg.idx()].as_mut() {
            m.live_refs = m.live_refs.saturating_sub(1);
        }
    }

    /// Reclaim a cancelled message's slot once nothing references it.
    pub(super) fn maybe_reclaim(&mut self, msg: MsgId) {
        let reclaim = self.messages[msg.idx()]
            .as_ref()
            .filter(|m| m.cancelled && m.live_refs == 0)
            .map(|m| m.src_node);
        if let Some(src) = reclaim {
            self.messages[msg.idx()] = None;
            self.free_msg(msg, src);
        }
    }

    /// Place a message in the slab, reusing a retired slot when one is
    /// free. Returns the id (also written into the message).
    pub(super) fn alloc_msg(&mut self, mut m: Message) -> MsgId {
        if let Some(wh) = self.fabric.wormhole_mut() {
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
        if let Some(wh) = self.fabric.wormhole_mut() {
            wh.live_msgs[self.net.partition_of(src)] -= 1;
        }
        self.msg_gen[id.idx()] = self.msg_gen[id.idx()].wrapping_add(1);
        self.escape_timers[id.idx()] = None;
        self.fault_timers[id.idx()] = None;
        self.free_msgs.push(id.0);
    }

    pub(super) fn run_handler_action(
        &mut self,
        action: HandlerAction,
        node: u32,
        now: SimTime,
        sched: &mut impl EventScheduler<Event>,
    ) {
        match action {
            HandlerAction::PacketRelay(_) => {
                // Pure CPU cost; the pipeline drives itself.
            }
            HandlerAction::HopArrived(msg) => {
                let at_dest = {
                    let m = self.messages.live(msg);
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
            let m = self.messages.live(msg);
            (m.job, m.to, m.tag, m.dst_node)
        };
        if self.faults_on {
            // Delivery checksum + finite mailbox: a corrupted or stale
            // attempt (or one arriving at a full mailbox) is rejected and
            // retransmitted after backoff. No MsgDeliver is emitted for a
            // rejected attempt.
            let bad = {
                let m = self.messages.live(msg);
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
        if self.procs[pk.idx()].state == PState::BlockedRecv(tag) && self.try_claim(pk, tag) {
            self.enqueue_ready(pk, now, sched);
        }
    }

    /// A receiver finished consuming a message: free its buffer and retire
    /// its slot for reuse.
    pub(super) fn consume_message(
        &mut self,
        msg: MsgId,
        now: SimTime,
        sched: &mut impl EventScheduler<Event>,
    ) {
        let m = self.messages[msg.idx()]
            .take()
            .expect("consuming dead message");
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

    /// Release memory on a node and grant whatever queued requests now fit.
    pub(super) fn release_memory(
        &mut self,
        node: u32,
        bytes: u64,
        now: SimTime,
        sched: &mut impl EventScheduler<Event>,
    ) {
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
