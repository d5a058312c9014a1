//! Faults: message retry and timeout, link outages, node crashes and
//! job kills. Every path here is unreachable under an empty
//! [`crate::fault::FaultPlan`].

use super::{Event, Fabric, JobState, Machine, MsgSlab, Note};
use crate::memory::AllocWaiter;
use crate::net::MsgId;
use crate::process::{JobId, PState};
use crate::rotation::SettleReason;
use parsched_des::{EventScheduler, SimTime};
use parsched_obs::ObsEvent;

impl Machine {
    /// A delivery attempt failed (corruption, timeout or mailbox
    /// overflow): release the buffered copy, reset the route cursors and
    /// schedule a retransmission from the source after exponential
    /// backoff — or kill the owning job once the retry budget is spent.
    /// The caller has already taken the slot's fault timer.
    pub(super) fn retry_message(
        &mut self,
        msg: MsgId,
        now: SimTime,
        sched: &mut impl EventScheduler<Event>,
    ) {
        let (job, attempts) = {
            let m = self.messages.live(msg);
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
            let m = self.messages.live_mut(msg);
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
        self.obs(
            now,
            ObsEvent::MsgRetry {
                msg: msg.0,
                attempt: attempts,
            },
        );
        let gen = self.msg_gen[msg.idx()];
        let backoff = self.cfg.faults.retry.backoff(attempts);
        self.fault_timers[msg.idx()] =
            Some(sched.schedule_timer(backoff, Event::MsgRetry { msg, gen }));
    }

    /// Backoff elapsed: retransmit from the source's retained copy. The
    /// buffer is granted from the system pool and no software send cost is
    /// re-charged — the link engine retransmits the copy the sender's
    /// original `Send` already paid for.
    pub(super) fn on_msg_retry(
        &mut self,
        msg: MsgId,
        gen: u32,
        now: SimTime,
        sched: &mut impl EventScheduler<Event>,
    ) {
        if self.msg_gen[msg.idx()] != gen {
            return; // the slot was recycled; this timer's message is gone
        }
        self.fault_timers[msg.idx()] = None;
        let src = match self.messages[msg.idx()].as_ref() {
            Some(m) if !m.cancelled => m.src_node,
            _ => return, // killed between backoff and retransmission
        };
        let bytes = self.messages.live(msg).bytes;
        self.nodes[src as usize]
            .mmu
            .force_alloc(now, bytes + self.cfg.msg_header_bytes);
        self.messages.live_mut(msg).buffered_on = Some(src);
        self.route_message(msg, now, sched);
    }

    /// The delivery timeout fired while the attempt was still outstanding.
    pub(super) fn on_msg_timeout(
        &mut self,
        msg: MsgId,
        gen: u32,
        now: SimTime,
        sched: &mut impl EventScheduler<Event>,
    ) {
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
                if matches!(self.fabric, Fabric::StoreAndForward) {
                    // The yanked hop had already reserved its buffer on
                    // the receiving node: give it back.
                    let to = self.channels[chan].to;
                    let bytes = self.messages.live(msg).bytes;
                    self.release_memory(to, bytes + self.cfg.msg_header_bytes, now, sched);
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
            self.messages.live_mut(msg).timed_out = true;
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
    pub(super) fn on_link_down(
        &mut self,
        chan: u32,
        now: SimTime,
        sched: &mut impl EventScheduler<Event>,
    ) {
        self.grow_for_channel(chan);
        let ch = &mut self.channels[chan as usize];
        if !ch.up {
            return;
        }
        ch.up = false;
        self.counters.link_downs += 1;
        self.obs(now, ObsEvent::LinkDown { chan });
        if self.fabric.wormhole().is_some() {
            let mut holders: Vec<MsgId> = self.fabric.wh().chans[chan as usize].holders().collect();
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
    pub(super) fn on_link_up(
        &mut self,
        chan: u32,
        now: SimTime,
        sched: &mut impl EventScheduler<Event>,
    ) {
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
        if self.fabric.wormhole().is_some() {
            // Grant VCs to worms that queued against the downed link (its
            // VCs are all free: resident worms were drained at link-down
            // and allocation is gated on `up`).
            let mut grants: Vec<(MsgId, u8)> = Vec::new();
            {
                let wh = self.fabric.wh_mut();
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
            self.fabric.wh_mut().held += grants.len();
            for (msg, vc) in grants {
                let link = self.worm_link_on(msg, ci);
                self.fabric.wh_mut().live_worm_mut(msg).links[link].vc = Some(vc);
                self.counters.vc_allocs += 1;
                self.obs(
                    now,
                    ObsEvent::WormVcAlloc {
                        msg: msg.0,
                        chan,
                        vc,
                    },
                );
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
    pub(super) fn on_node_crash(
        &mut self,
        node: u32,
        now: SimTime,
        sched: &mut impl EventScheduler<Event>,
    ) {
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
            let bytes = self.messages.live(msg).bytes;
            for ci in 0..self.channels.len() {
                let before = self.channels[ci].queue.len();
                self.channels[ci].queue.retain(|&m| m != msg);
                if self.channels[ci].queue.len() != before
                    && matches!(self.fabric, Fabric::StoreAndForward)
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
                let m = self.messages.live_mut(msg);
                m.cancelled = true;
                (m.at_node, m.buffered_on.take())
            };
            if let Some(node) = buffered {
                releases.push((node, bytes + self.cfg.msg_header_bytes));
            }
            self.counters.messages_dropped += 1;
            self.obs(
                now,
                ObsEvent::MsgDropped {
                    msg: msg.0,
                    job: job.0,
                    node: at,
                },
            );
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
    pub(super) fn fail_job(
        &mut self,
        job: JobId,
        now: SimTime,
        sched: &mut impl EventScheduler<Event>,
    ) {
        debug_assert!(
            !matches!(
                self.jobs[job.idx()].state,
                JobState::Done | JobState::Failed
            ),
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
}
