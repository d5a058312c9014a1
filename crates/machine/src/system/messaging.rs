//! Store-and-forward messaging, whole-message and packetized:
//! injection, per-hop buffer reservation, channel queues and
//! transfers, and the pipelined edge starts of packetized switching.

use super::{Event, Fabric, Machine, MsgSlab};
use crate::config::{FlowControl, SendMode};
use crate::cpu::{HandlerAction, HandlerTask};
use crate::memory::{AllocResult, AllocWaiter};
use crate::net::{Message, MsgId};
use crate::process::ProcKey;
use crate::program::Op;
use parsched_des::{EventScheduler, SimTime};
use parsched_obs::ObsEvent;

impl Machine {
    /// Create the message for the `Send` op at the process's `pc` and claim
    /// its source buffer. Returns `true` if injection proceeded; `false` if
    /// the process must block until the buffer is granted.
    pub(super) fn begin_injection(
        &mut self,
        pk: ProcKey,
        now: SimTime,
        sched: &mut impl EventScheduler<Event>,
    ) -> bool {
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
                self.messages.live_mut(id).buffered_on = Some(node);
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
    pub(super) fn start_pending_send(
        &mut self,
        msg: MsgId,
        now: SimTime,
        sched: &mut impl EventScheduler<Event>,
    ) {
        let node = self.messages.live(msg).src_node;
        self.messages.live_mut(msg).buffered_on = Some(node);
        self.route_message(msg, now, sched);
    }

    /// A blocked sender's buffer was granted: finish the injection and wake
    /// the process.
    pub(super) fn finish_blocked_injection(
        &mut self,
        pk: ProcKey,
        now: SimTime,
        sched: &mut impl EventScheduler<Event>,
    ) {
        let msg = self.procs[pk.idx()]
            .pending_msg
            .take()
            .expect("sender unblocked with no pending message");
        let node = self.procs[pk.idx()].node;
        self.messages.live_mut(msg).buffered_on = Some(node);
        self.route_message(msg, now, sched);
        self.procs[pk.idx()].pc += 1;
        self.make_runnable(pk, now, sched);
    }

    /// Arm (or re-arm) the delivery timeout for the attempt now starting.
    /// No-op unless the fault plan sets `retry.msg_timeout`. The timeout
    /// clock starts when an attempt leaves the source buffer, so a send
    /// still queued in the source MMU is not yet covered (it is not in
    /// flight; memory pressure is the senders' own back-pressure).
    pub(super) fn arm_timeout(&mut self, msg: MsgId, sched: &mut impl EventScheduler<Event>) {
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
    pub(super) fn route_message(
        &mut self,
        msg: MsgId,
        now: SimTime,
        sched: &mut impl EventScheduler<Event>,
    ) {
        self.arm_timeout(msg, sched);
        let (is_self, node) = {
            let m = self.messages.live(msg);
            (m.at_destination(), m.current_node())
        };
        if is_self {
            // Same-node sends still traverse the mailbox machinery (§5.2):
            // a high-priority delivery handler on the local CPU.
            self.counters.self_sends += 1;
            let bytes = self.messages.live(msg).bytes;
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
        match self.fabric {
            Fabric::StoreAndForward => self.saf_next_hop(msg, now, sched),
            // Pipelined: start the first path edge; the rest follow.
            Fabric::Packetized => self.enqueue_channel(msg, now, sched),
            Fabric::Wormhole(_) => self.start_worm(msg, now, sched),
        }
    }

    /// Store-and-forward: reserve a buffer at the next node, then queue on
    /// the connecting channel.
    pub(super) fn saf_next_hop(
        &mut self,
        msg: MsgId,
        now: SimTime,
        sched: &mut impl EventScheduler<Event>,
    ) {
        let (next, bytes) = {
            let m = self.messages.live(msg);
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
                        Event::AllocEscape {
                            node: next,
                            msg,
                            gen,
                        },
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
    pub(super) fn on_alloc_escape(
        &mut self,
        node: u32,
        msg: MsgId,
        gen: u32,
        now: SimTime,
        sched: &mut impl EventScheduler<Event>,
    ) {
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

    /// Put a message on the channel for its current SAF hop (or packetized
    /// edge), starting the transfer if the channel is free.
    pub(super) fn enqueue_channel(
        &mut self,
        msg: MsgId,
        now: SimTime,
        sched: &mut impl EventScheduler<Event>,
    ) {
        let pipelined = matches!(self.fabric, Fabric::Packetized);
        let (chan, to) = {
            let m = self.messages.live(msg);
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
            let m = self.messages.live_mut(msg);
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

    pub(super) fn start_transfer(
        &mut self,
        chan: usize,
        msg: MsgId,
        now: SimTime,
        sched: &mut impl EventScheduler<Event>,
    ) {
        let bytes = self.messages.live(msg).bytes;
        self.ref_msg(msg); // the wire holds a reference until TransferDone
        let ch = &mut self.channels[chan];
        debug_assert!(ch.busy_with.is_none());
        ch.busy_with = Some(msg);
        ch.busy.set(now, true);
        let dur = self.cfg.transfer_time(bytes);
        sched.schedule(dur, Event::TransferDone { chan: chan as u32 });
        self.note_link_busy(chan as u32, now, 1.0);
        self.obs(
            now,
            ObsEvent::HopStart {
                msg: msg.0,
                chan: chan as u32,
            },
        );
        // Pipelining: the next edge starts one packet latency after this
        // one starts (if the message has further to go). Wormhole traffic
        // never reaches `start_transfer` (flit ticks drive it).
        if matches!(self.fabric, Fabric::Packetized) {
            let (started, hops) = {
                let m = self.messages.live(msg);
                (m.edges_started as usize, m.hops())
            };
            if started < hops {
                self.ref_msg(msg); // the scheduled edge start references the slot
                let offset = self.cfg.packet_latency();
                sched.schedule(offset, Event::HopStart { msg, edge: started });
            }
        }
    }

    pub(super) fn on_transfer_done(
        &mut self,
        chan: u32,
        now: SimTime,
        sched: &mut impl EventScheduler<Event>,
    ) {
        let chan = chan as usize;
        let msg = {
            let ch = &mut self.channels[chan];
            let msg = ch.busy_with.take().expect("TransferDone on idle channel");
            ch.busy.set(now, false);
            ch.transfers += 1;
            msg
        };
        self.note_link_busy(chan as u32, now, 0.0);
        self.obs(
            now,
            ObsEvent::HopEnd {
                msg: msg.0,
                chan: chan as u32,
            },
        );
        let (bytes, cancelled) = {
            let m = self.messages.live(msg);
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
            if matches!(self.fabric, Fabric::StoreAndForward) {
                let to = self.channels[chan].to;
                self.release_memory(to, bytes + self.cfg.msg_header_bytes, now, sched);
            }
            self.maybe_reclaim(msg);
            return;
        }

        match self.fabric {
            Fabric::StoreAndForward => {
                // Free the buffer on the node the message just left, advance
                // it, and run the arrival handler on the new node.
                let (prev, bytes) = {
                    let m = self.messages.live_mut(msg);
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
                    let m = self.messages.live(msg);
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
            Fabric::Packetized => {
                // Pipelined edges serialize per channel, so they complete
                // in path order: the head has now fully crossed to the node
                // one hop past `done_node`.
                let (edges_done, hops, bytes, src, via) = {
                    let m = self.messages.live_mut(msg);
                    m.edges_done += 1;
                    m.done_node = self
                        .net
                        .next_hop(m.done_node, m.dst_node)
                        .expect("edge completed past destination");
                    (
                        m.edges_done as usize,
                        m.hops(),
                        m.bytes,
                        m.src_node,
                        m.done_node,
                    )
                };
                if edges_done == 1 {
                    // The message has fully left the source: free its buffer.
                    self.release_memory(src, bytes + self.cfg.msg_header_bytes, now, sched);
                    self.messages.live_mut(msg).buffered_on = None;
                }
                if edges_done == hops {
                    // Head reached the destination; deliver there.
                    let dst = {
                        let m = self.messages.live_mut(msg);
                        m.at_node = m.dst_node;
                        m.current_node()
                    };
                    // The destination buffers the message until the
                    // receiver consumes it. Packet buffers are granted from
                    // the system pool (overdraft): per-packet back-pressure
                    // is below this model's resolution.
                    self.nodes[dst as usize]
                        .mmu
                        .force_alloc(now, bytes + self.cfg.msg_header_bytes);
                    self.messages.live_mut(msg).buffered_on = Some(dst);
                    self.enqueue_high(
                        dst,
                        HandlerTask {
                            cost: self.cfg.handler_cost(bytes),
                            action: HandlerAction::HopArrived(msg),
                        },
                        now,
                        sched,
                    );
                } else {
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
            Fabric::Wormhole(_) => {
                unreachable!("wormhole moves flits via FlitTick, never TransferDone")
            }
        }
    }

    pub(super) fn on_hop_start(
        &mut self,
        msg: MsgId,
        edge: usize,
        now: SimTime,
        sched: &mut impl EventScheduler<Event>,
    ) {
        // Packetized pipelined edge start.
        self.unref_msg(msg);
        let cancelled = match self.messages[msg.idx()].as_ref() {
            Some(m) => m.cancelled,
            None => true,
        };
        if cancelled {
            self.maybe_reclaim(msg);
            return;
        }
        // `start_transfer` scheduled this start for the attempt's next edge.
        debug_assert_eq!(edge, self.messages.live(msg).edges_started as usize);
        self.enqueue_channel(msg, now, sched);
    }
}
