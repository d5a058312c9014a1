//! Wormhole flow: worms, virtual channels and flit ticks
//! (`Switching::Wormhole` only).
//!
//! A message travels as a worm of `cfg.worm_flits(bytes)` flits that
//! holds a virtual channel on every link between head and tail. Each
//! channel with a movable flit runs a `FlitTick` chain: one tick per
//! `cfg.flit_time()`, each tick arbitrating the physical link round-
//! robin among its VCs and moving exactly one flit under credit-based
//! flow control. Deadlock freedom rests on the escape-class assignment
//! from `parsched_topology::flow` (dateline / phase rules), whose
//! channel-dependency graph is acyclic for every shipped topology.
//!
//! Express path. A worm whose partition is quiescent (`express_check`:
//! no observer, two or more credits, it is the partition's only live
//! message, every other resident process is finished, blocked in a
//! receive or done sending, no job is queued, loading or ready there,
//! and no declared fault or delivery timeout falls inside its flight)
//! cannot meet another worm, so its pipeline has a closed form: flit k
//! crosses route link i at t0 + (i + k) * ft. It starts no tick chain.
//! Its two visible moments, the source release at t0 + F * ft and the
//! delivery at t0 + (L - 1 + F) * ft, run as cancellable `FlitTick`
//! timers on a route channel, each armed one flit time ahead by a
//! pre-step so it is scheduled from the same instant as the flit tick
//! it replaces. At delivery the worm applies in hop order everything
//! the flit ticks would have done (`apply_express_progress`). A job
//! admitted onto the partition mid-flight first materializes the worm
//! into the flit-level state its ticks would have reached
//! (`materialize_partition`); the flit path takes over from there. The
//! flit path is the reference (`set_flit_reference`), and the
//! differential oracle holds the two to identical results.

use super::{Event, JobState, Machine, MsgSlab};
use crate::cpu::{HandlerAction, HandlerTask};
use crate::net::MsgId;
use crate::process::{PState, Phase};
use crate::program::Op;
use crate::wormhole::{
    progress, replay_busy, Express, ExpressStep, FlitReason, Worm, WormLink, WormholeState,
};
use parsched_des::{EventScheduler, SimTime};
use parsched_obs::ObsEvent;
use parsched_topology::{vc_classes, NodeId};

impl Machine {
    /// Sample the machine-wide count of held VCs into the metrics registry.
    #[inline]
    pub(super) fn note_vc_occupancy(&mut self, now: SimTime) {
        if self.metrics.is_some() {
            let occ = self.fabric.wormhole().map_or(0, |wh| wh.occupied_vcs());
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
    pub(super) fn worm_link_on(&self, msg: MsgId, chan: usize) -> usize {
        let wh = self.fabric.wh();
        let w = wh.live_worm(msg);
        w.links
            .iter()
            .position(|l| l.chan == chan as u32)
            .expect("worm does not cross this channel")
    }

    /// Build the worm for a freshly buffered-at-source message and request
    /// a virtual channel for its first link.
    pub(super) fn start_worm(
        &mut self,
        msg: MsgId,
        now: SimTime,
        sched: &mut impl EventScheduler<Event>,
    ) {
        let (src, dst, bytes) = {
            let m = self.messages.live(msg);
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
            links.push(WormLink {
                chan: chan as u32,
                class: classes[i],
                vc: None,
                sent: 0,
            });
            prev = to;
        }
        let total_flits = self.cfg.worm_flits(bytes);
        self.counters.flits_injected += total_flits;
        self.ref_msg(msg); // the worm holds a reference until teardown/drain
                           // A second worm in the partition may claim an express worm's
                           // route: that worm goes back to the flit path first.
        self.materialize_partition(p, now, sched);
        let verdict = self.express_check(p, &links, total_flits, now);
        let wh = self.fabric.wh_mut();
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
                let express = Some(Express {
                    t0: now,
                    step,
                    timer,
                });
                wh.insert(
                    msg,
                    Worm {
                        total_flits,
                        links,
                        express,
                    },
                );
            }
            Err(reason) => {
                wh.stats.flit[reason as usize] += 1;
                wh.insert(
                    msg,
                    Worm {
                        total_flits,
                        links,
                        express: None,
                    },
                );
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
    fn express_check(
        &mut self,
        p: usize,
        links: &[WormLink],
        flits: u64,
        now: SimTime,
    ) -> Result<(), FlitReason> {
        let wh = self.fabric.wh();
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
        let mut jobs = std::mem::take(&mut self.fabric.wh_mut().jobs[p]);
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
                        || pr
                            .program
                            .get(pr.pc + 1..)
                            .is_some_and(|ops| ops.iter().any(|op| matches!(op, Op::Send { .. }))))
            });
            if may_send {
                Err(FlitReason::Sender)
            } else {
                Ok(())
            }
        });
        self.fabric.wh_mut().jobs[p] = jobs;
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
    fn arm_express(
        &mut self,
        msg: MsgId,
        step: ExpressStep,
        at: SimTime,
        sched: &mut impl EventScheduler<Event>,
    ) {
        let wh = self.fabric.wh_mut();
        let w = wh.live_worm_mut(msg);
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
    fn on_express_tick(
        &mut self,
        msg: MsgId,
        now: SimTime,
        sched: &mut impl EventScheduler<Event>,
    ) {
        let (x, len, flits, ft) = {
            let wh = self.fabric.wh();
            let w = wh.live_worm(msg);
            (
                w.express.expect("express worm"),
                w.links.len(),
                w.total_flits,
                wh.flit_time,
            )
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
            let m = self.messages.live_mut(msg);
            (m.buffered_on.take(), m.bytes)
        };
        if let Some(node) = released {
            self.release_memory(node, bytes + self.cfg.msg_header_bytes, now, sched);
        }
    }

    /// Take an express worm off its timers (and its partition's slot).
    fn detach_express(&mut self, msg: MsgId) -> Express {
        let p = {
            let m = self.messages.live(msg);
            self.net.partition_of(m.src_node)
        };
        let wh = self.fabric.wh_mut();
        let w = wh.live_worm_mut(msg);
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
            let w = self.fabric.wh().live_worm(msg);
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
        let wh = self.fabric.wh_mut();
        let ft = wh.flit_time;
        let w = wh.live_worm_mut(msg);
        let flits = w.total_flits;
        let mut links = std::mem::take(&mut w.links);
        let len = links.len();
        let bytes = self.messages.live(msg).bytes;
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
        wh.live_worm_mut(msg).links = links;
        let m = self.messages.live_mut(msg);
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
    pub(super) fn materialize_partition(
        &mut self,
        p: usize,
        now: SimTime,
        sched: &mut impl EventScheduler<Event>,
    ) {
        let Some(msg) = self.fabric.wormhole().and_then(|wh| wh.express_in[p]) else {
            return;
        };
        let x = self.detach_express(msg);
        sched.cancel_timer(x.timer);
        let (len, flits, ft) = {
            let wh = self.fabric.wh_mut();
            wh.stats.materialized += 1;
            let w = wh.live_worm(msg);
            (w.links.len(), w.total_flits, wh.flit_time)
        };
        let j = (now.since(x.t0).nanos() / ft.nanos()).min(len as u64 + flits - 2);
        if !x.released() && j >= flits {
            self.release_source(msg, now, sched);
        }
        self.apply_express_progress(msg, x.t0, j);
        let wh = self.fabric.wh_mut();
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
    fn request_vc(
        &mut self,
        msg: MsgId,
        link: usize,
        now: SimTime,
        sched: &mut impl EventScheduler<Event>,
    ) {
        let (chan, class) = {
            let wh = self.fabric.wh();
            let l = &wh.live_worm(msg).links[link];
            (l.chan as usize, l.class)
        };
        let up = self.channels[chan].up;
        let granted = {
            let wh = self.fabric.wh_mut();
            if up {
                wh.chans[chan].alloc_vc(class, msg)
            } else {
                None // a downed link grants nothing until its window closes
            }
        };
        match granted {
            Some(vc) => {
                let wh = self.fabric.wh_mut();
                wh.held += 1;
                wh.live_worm_mut(msg).links[link].vc = Some(vc);
                self.counters.vc_allocs += 1;
                self.obs(
                    now,
                    ObsEvent::WormVcAlloc {
                        msg: msg.0,
                        chan: chan as u32,
                        vc,
                    },
                );
                self.note_vc_occupancy(now);
                self.ensure_flit_ticking(chan, now, sched);
            }
            None => {
                let wh = self.fabric.wh_mut();
                wh.chans[chan].waiting[class as usize].push_back(msg);
                self.obs(
                    now,
                    ObsEvent::WormStall {
                        msg: msg.0,
                        chan: chan as u32,
                    },
                );
            }
        }
    }

    /// Whether any VC of `chan` holds a worm that can move a flit now.
    fn chan_can_transmit(&self, chan: usize) -> bool {
        let wh = self.fabric.wh();
        wh.chans[chan].holders().any(|msg| {
            let w = wh.live_worm(msg);
            wh.can_transmit(w, self.worm_link_on(msg, chan))
        })
    }

    /// Start a `FlitTick` chain for the channel unless one is already live
    /// (or the link is down, or nothing can move). The per-channel chain
    /// is what serializes the physical link: one flit per flit time, no
    /// matter how many VCs are resident.
    pub(super) fn ensure_flit_ticking(
        &mut self,
        chan: usize,
        now: SimTime,
        sched: &mut impl EventScheduler<Event>,
    ) {
        if !self.channels[chan].up
            || self.fabric.wh().chans[chan].ticking
            || !self.chan_can_transmit(chan)
        {
            return;
        }
        let wh = self.fabric.wh_mut();
        wh.chans[chan].ticking = true;
        let dt = wh.flit_time;
        self.channels[chan].busy.set(now, true);
        self.note_link_busy(chan as u32, now, 1.0);
        sched.schedule(dt, Event::FlitTick { chan: chan as u32 });
    }

    /// Park a channel's tick chain (nothing movable); whatever unblocks it
    /// — a credit return, a VC grant, a link-up — re-arms it.
    fn stop_flit_ticking(&mut self, chan: usize, now: SimTime) {
        self.fabric.wh_mut().chans[chan].ticking = false;
        self.channels[chan].busy.set(now, false);
        self.note_link_busy(chan as u32, now, 0.0);
    }

    /// One flit time elapsed on a ticking channel: pick the next resident
    /// worm round-robin, move one of its flits, and keep ticking while any
    /// flit remains movable.
    pub(super) fn on_flit_tick(
        &mut self,
        chan: u32,
        now: SimTime,
        sched: &mut impl EventScheduler<Event>,
    ) {
        let ci = chan as usize;
        if let Some(msg) = self.fabric.wh().chans[ci].express {
            self.on_express_tick(msg, now, sched);
            return;
        }
        let picked = {
            let wh = self.fabric.wh();
            let vch = &wh.chans[ci];
            debug_assert!(vch.ticking, "FlitTick on a parked channel");
            let nvc = vch.vcs.len();
            let mut picked = None;
            if self.channels[ci].up {
                for off in 0..nvc {
                    let vc = (vch.rr as usize + off) % nvc;
                    let Some(msg) = vch.vcs[vc] else { continue };
                    let w = wh.live_worm(msg);
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
                let wh = self.fabric.wh();
                wh.chans[ci]
                    .holders()
                    .filter(|&m| {
                        let w = wh.live_worm(m);
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
            let wh = self.fabric.wh_mut();
            let nvc = wh.chans[ci].vcs.len();
            wh.chans[ci].rr = ((vc + 1) % nvc) as u8;
        }
        self.transmit_flit(msg, link, now, sched);
        if self.chan_can_transmit(ci) {
            let dt = self.fabric.wh().flit_time;
            sched.schedule(dt, Event::FlitTick { chan });
        } else {
            self.stop_flit_ticking(ci, now);
        }
    }

    /// Move one flit of `msg` across route link `link`, with credit
    /// accounting, head/tail protocol steps, and neighbour wake-ups.
    fn transmit_flit(
        &mut self,
        msg: MsgId,
        link: usize,
        now: SimTime,
        sched: &mut impl EventScheduler<Event>,
    ) {
        let (chan, sent, total, len, prev_chan, next_chan) = {
            let wh = self.fabric.wh_mut();
            let w = wh.live_worm_mut(msg);
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
    fn on_worm_head(
        &mut self,
        msg: MsgId,
        link: usize,
        chan: u32,
        now: SimTime,
        sched: &mut impl EventScheduler<Event>,
    ) {
        self.obs(now, ObsEvent::HopStart { msg: msg.0, chan });
        let to = self.channels[chan as usize].to;
        {
            let m = self.messages.live_mut(msg);
            m.front_node = to;
            m.edges_started += 1;
        }
        let more = {
            let wh = self.fabric.wh();
            link + 1 < wh.live_worm(msg).links.len()
        };
        if more {
            self.request_vc(msg, link + 1, now, sched);
        }
    }

    /// The worm's tail crossed a link: the hop is complete — account it,
    /// free what the tail no longer occupies, and deliver at the end.
    fn on_worm_tail(
        &mut self,
        msg: MsgId,
        link: usize,
        chan: u32,
        now: SimTime,
        sched: &mut impl EventScheduler<Event>,
    ) {
        let ci = chan as usize;
        self.obs(now, ObsEvent::HopEnd { msg: msg.0, chan });
        let bytes = self.messages.live(msg).bytes;
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
            let m = self.messages.live_mut(msg);
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
    fn release_worm_vc(
        &mut self,
        msg: MsgId,
        link: usize,
        now: SimTime,
        sched: &mut impl EventScheduler<Event>,
    ) {
        let (chan, vc) = {
            let wh = self.fabric.wh_mut();
            let l = &mut wh.live_worm_mut(msg).links[link];
            (l.chan as usize, l.vc.take().expect("releasing unheld VC"))
        };
        let up = self.channels[chan].up;
        let granted = {
            let wh = self.fabric.wh_mut();
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
            let wh = self.fabric.wh_mut();
            wh.live_worm_mut(next).links[next_link].vc = Some(vc);
            self.counters.vc_allocs += 1;
            self.obs(
                now,
                ObsEvent::WormVcAlloc {
                    msg: next.0,
                    chan: chan as u32,
                    vc,
                },
            );
        }
        self.note_vc_occupancy(now);
        self.ensure_flit_ticking(chan, now, sched);
    }

    /// The whole worm reached the destination: retire it, buffer the
    /// message at the destination (system-pool overdraft, as under
    /// `PacketizedSaf`) and run the delivery handler.
    fn finish_worm(&mut self, msg: MsgId, now: SimTime, sched: &mut impl EventScheduler<Event>) {
        let worm = self
            .fabric
            .wh_mut()
            .remove(msg)
            .expect("finishing a missing worm");
        debug_assert!(worm.links.iter().all(|l| l.vc.is_none()), "VC leak");
        debug_assert_eq!(worm.ejected(), worm.total_flits, "flits unaccounted");
        self.unref_msg(msg);
        let (dst, bytes) = {
            let m = self.messages.live_mut(msg);
            m.at_node = m.dst_node;
            (m.dst_node, m.bytes)
        };
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
    }

    /// Tear an in-flight worm out of the network deterministically (link
    /// outage or job kill): released VCs pass to waiters, buffered flits
    /// return their credits, untransmitted and in-network flits are
    /// accounted dropped. Returns `false` when the message has no worm.
    /// The caller decides what happens to the message itself (retry
    /// protocol for outages; the kill sweep for dead jobs).
    pub(super) fn drain_worm(
        &mut self,
        msg: MsgId,
        now: SimTime,
        sched: &mut impl EventScheduler<Event>,
    ) -> bool {
        let Some(worm) = self.fabric.wormhole().and_then(|wh| wh.worm(msg)) else {
            return false;
        };
        if worm.express.is_some() {
            let src = self.messages.live(msg).src_node;
            self.materialize_partition(self.net.partition_of(src), now, sched);
        }
        // Yank an outstanding VC request from its waiter FIFO.
        {
            let wh = self.fabric.wh_mut();
            if let Some(k) = wh.live_worm(msg).pending_vc_request() {
                let (chan, class) = {
                    let l = &wh.live_worm(msg).links[k];
                    (l.chan as usize, l.class as usize)
                };
                wh.chans[chan].waiting[class].retain(|&m| m != msg);
            }
        }
        // Hand every held VC over (front to back keeps grants ordered).
        let held: Vec<usize> = {
            let wh = self.fabric.wh();
            wh.live_worm(msg)
                .links
                .iter()
                .enumerate()
                .filter_map(|(i, l)| l.vc.is_some().then_some(i))
                .collect()
        };
        for i in held {
            self.release_worm_vc(msg, i, now, sched);
        }
        let worm = self.fabric.wh_mut().remove(msg).expect("checked");
        self.counters.credits_returned += worm.buffered();
        self.counters.flits_dropped += worm.total_flits - worm.ejected();
        let chan = worm.links[worm.head_link()].chan;
        self.obs(now, ObsEvent::WormDrained { msg: msg.0, chan });
        self.unref_msg(msg);
        true
    }
}

impl WormholeState {
    /// The worm of a message in flight on the wormhole layer.
    fn live_worm(&self, msg: MsgId) -> &Worm {
        self.worm(msg).expect("worm gone")
    }

    /// Mutable [`WormholeState::live_worm`].
    pub(super) fn live_worm_mut(&mut self, msg: MsgId) -> &mut Worm {
        self.worm_mut(msg).expect("worm gone")
    }
}
