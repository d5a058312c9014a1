//! Wormhole-switching state: virtual channels, credits and worms.
//!
//! Under [`crate::config::Switching::Wormhole`] a message travels as a
//! *worm* of flits that snakes across its whole route at once, holding a
//! virtual channel (VC) on every link between its head and tail. This
//! module owns the bookkeeping: per-link VC tables with per-class waiter
//! FIFOs, and per-worm link cursors tracking how many flits have crossed
//! each route edge. The *protocol* — flit ticks, credit accounting,
//! delivery, fault drains — lives in [`crate::system`], which drives these
//! structures; everything here is pure state manipulation, so it can be
//! unit-tested without an engine.
//!
//! Deadlock freedom comes from the topology layer: each link exposes
//! `vc_class_count(kind)` escape classes, every hop of a route is assigned
//! a class by `vc_classes` (dateline / phase rules), and the channel
//! dependency graph over `(link, class)` pairs is acyclic (asserted by
//! `parsched_topology::flow`'s test suite). A worm only ever waits for a
//! VC of its hop's class, so the wait graph is a subgraph of that CDG.
//!
//! A worm that crosses a *quiescent* partition — nothing else can contend
//! for its route until its tail clears — runs on the **express path**
//! instead: its flit pipeline has a closed form, so the machine schedules
//! only the worm's externally visible moments ([`Express`]) and applies
//! the flit ticks' side effects in bulk. The flit path stays the
//! reference; [`ExpressStats`] counts which path each worm took.

use crate::config::MachineConfig;
use crate::net::MsgId;
use crate::process::JobId;
use crate::wiring::SystemNet;
use parsched_des::{BusyTime, SimDuration, SimTime, TimerHandle};
use parsched_topology::vc_class_count;
use std::collections::VecDeque;

/// One route edge of a worm: which link, which escape class, the VC held
/// (once granted) and how many flits have crossed.
#[derive(Debug, Clone)]
pub struct WormLink {
    /// Channel table index of this route edge.
    pub chan: u32,
    /// Virtual-channel escape class `vc_classes` assigned to this hop.
    pub class: u8,
    /// VC index held on the channel (`None` until granted).
    pub vc: Option<u8>,
    /// Flits that have fully crossed this link so far.
    pub sent: u64,
}

/// An in-flight worm: the message's route as link cursors.
///
/// Flit conservation per worm: the head advances a link only after the
/// flit arrived on the previous one (`sent` is non-increasing along the
/// route), and the buffer occupancy of link `i` is `sent[i] - sent[i+1]`,
/// bounded by the credit window.
#[derive(Debug, Clone)]
pub struct Worm {
    /// Flits in the worm (payload + header flit).
    pub total_flits: u64,
    /// Route edges in path order.
    pub links: Vec<WormLink>,
    /// Express-path state while the worm moves in closed form (`None` for
    /// a flit-level worm). An express worm holds no VC and has sent
    /// nothing in the tables until it finishes or is materialized.
    pub express: Option<Express>,
}

/// The next visible moment an express worm's timer waits for. Each
/// moment is armed one flit time ahead by the step before it, so the
/// timer that performs it is scheduled from the same instant as the flit
/// tick it replaces.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExpressStep {
    /// One flit time before the tail leaves link 0: arm [`Self::Release`].
    ArmRelease,
    /// The tail leaves link 0: free the source buffer (and finish, for a
    /// one-link route).
    Release,
    /// One flit time before the tail reaches the destination: arm
    /// [`Self::Finish`].
    ArmFinish,
    /// The tail reaches the destination: apply every flit tick's effects
    /// and deliver.
    Finish,
}

/// A worm moving in closed form. Flit `k` (1-based) crosses route link
/// `i` at `t0 + (i + k) * flit_time`, so the tail leaves link 0 at
/// `t0 + F * flit_time` and reaches the destination at
/// `t0 + (L - 1 + F) * flit_time` for `F` flits over `L` links.
#[derive(Debug, Clone, Copy)]
pub struct Express {
    /// When the worm started (its link-0 VC grant).
    pub t0: SimTime,
    /// The step the pending timer performs.
    pub step: ExpressStep,
    /// The pending timer (a `FlitTick` on a route channel).
    pub timer: TimerHandle,
}

impl Express {
    /// The source buffer has been freed (the release step ran).
    pub fn released(&self) -> bool {
        matches!(self.step, ExpressStep::ArmFinish | ExpressStep::Finish)
    }
}

/// What an express worm's flit ticks have done by flit step `j` (the
/// ticks at `t0 + s * flit_time` for every `s <= j`): how many flits
/// crossed route link `i` of `len` links, whether the link's VC was
/// granted, and whether it is still held.
pub(crate) fn progress(j: u64, i: usize, len: usize, flits: u64) -> (u64, bool, bool) {
    let sent = |i: usize| j.saturating_sub(i as u64).min(flits);
    let granted = i == 0 || j >= i as u64;
    let held = granted && (i + 1 == len || sent(i + 1) < flits);
    (sent(i), granted, held)
}

/// Replay onto route link `i`'s `busy` signal what the flit path does to
/// it through flit step `j`, starting at `t0` with flit time `ft`. Link 0
/// streams without a pause from its grant to its tail. Every later link
/// turns on when the head arrives, parks after each flit (the next one
/// arrives later in the same instant) and is restarted by its upstream
/// neighbour's tick at once, and turns off after its tail. Busy time is
/// an integer sum and each park/restart pair falls in one instant, so on
/// at the head and off at the tail give the same busy time on every link.
pub(crate) fn replay_busy(
    busy: &mut BusyTime,
    t0: SimTime,
    ft: SimDuration,
    i: u64,
    flits: u64,
    j: u64,
) {
    let at = |s: u64| t0 + ft * s;
    if j < i {
        return;
    }
    busy.set(at(i), true);
    if j >= i + flits {
        busy.set(at(i + flits), false);
    }
}

/// Why a worm ran flit by flit instead of on the express path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlitReason {
    /// The machine runs the flit reference path for every worm.
    Reference,
    /// A recorder, metrics registry or timeline observes the run.
    Observed,
    /// No closed form: one credit per VC halves the pipeline rate, and a
    /// zero flit time puts every tick at one instant.
    Config,
    /// Another message of the partition is live.
    Contended,
    /// A process of the partition may still send.
    Sender,
    /// A job is queued, loading or ready on the partition.
    JobPending,
    /// A declared fault or the message's delivery timeout falls inside
    /// the worm's flight.
    Fault,
    /// A route link is down, or still ticking after a drained worm.
    Route,
}

impl FlitReason {
    /// Every reason, in [`ExpressStats::flit`] order.
    pub const ALL: [FlitReason; 8] = [
        FlitReason::Reference,
        FlitReason::Observed,
        FlitReason::Config,
        FlitReason::Contended,
        FlitReason::Sender,
        FlitReason::JobPending,
        FlitReason::Fault,
        FlitReason::Route,
    ];
}

/// Diagnostic counts of the path each worm took. Kept outside
/// [`crate::Counters`], which the express and flit paths must agree on.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExpressStats {
    /// Worms started on the express path.
    pub express: u64,
    /// Express worms turned back into flit-level state mid-flight.
    pub materialized: u64,
    /// Worms started flit by flit, per [`FlitReason::ALL`] entry.
    pub flit: [u64; 8],
}

impl ExpressStats {
    /// Fold another machine's counts into this one.
    pub fn absorb(&mut self, other: &ExpressStats) {
        self.express += other.express;
        self.materialized += other.materialized;
        for (a, b) in self.flit.iter_mut().zip(other.flit) {
            *a += b;
        }
    }
}

impl std::fmt::Display for ExpressStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let (express, materialized) = (self.express, self.materialized);
        write!(f, "express {express} (materialized {materialized}), flit")?;
        for (reason, n) in FlitReason::ALL.iter().zip(self.flit) {
            write!(f, " {reason:?} {n}")?;
        }
        Ok(())
    }
}

impl Worm {
    /// Index of the first link whose VC request is outstanding (issued but
    /// not granted — the worm sits in that channel's waiter FIFO), if any.
    /// A VC for link `k > 0` is requested exactly when the head crosses
    /// link `k - 1`, so the pending request is the first unheld link after
    /// the held window — or link 0 for a worm that never started.
    pub fn pending_vc_request(&self) -> Option<usize> {
        match self.links.iter().rposition(|l| l.vc.is_some()) {
            None => Some(0),
            Some(m) => {
                let k = m + 1;
                (k < self.links.len() && self.links[m].sent > 0).then_some(k)
            }
        }
    }

    /// Index of the link the head most recently occupied (for drain
    /// reporting): the last link any flit has crossed, or the first link
    /// for a worm that never transmitted.
    pub fn head_link(&self) -> usize {
        self.links.iter().rposition(|l| l.sent > 0).unwrap_or(0)
    }

    /// Flits that reached the destination (crossed the last link).
    pub fn ejected(&self) -> u64 {
        self.links.last().map_or(0, |l| l.sent)
    }

    /// Flits currently buffered inside the network (between links), i.e.
    /// credits issued but not yet returned. The last link's buffer is
    /// always empty: ejection into node memory returns its credit at
    /// transmit time.
    pub fn buffered(&self) -> u64 {
        self.links.windows(2).map(|w| w[0].sent - w[1].sent).sum()
    }
}

/// One physical link's virtual-channel table.
#[derive(Debug)]
pub struct VcChannel {
    /// VCs per escape class on this link.
    pub per_class: u8,
    /// Worm holding each VC (`classes * per_class` slots; class `c` owns
    /// the band `c * per_class ..`).
    pub vcs: Vec<Option<MsgId>>,
    /// Per-class FIFO of worms waiting for a VC of that class.
    pub waiting: Vec<VecDeque<MsgId>>,
    /// Round-robin cursor for flit arbitration across VCs.
    pub rr: u8,
    /// A `FlitTick` chain is live for this channel.
    pub ticking: bool,
    /// The express worm whose pending timer rides this channel's
    /// `FlitTick`, if any.
    pub express: Option<MsgId>,
}

impl VcChannel {
    fn new(classes: u8, per_class: u8) -> VcChannel {
        VcChannel {
            per_class,
            vcs: vec![None; classes as usize * per_class as usize],
            waiting: (0..classes).map(|_| VecDeque::new()).collect(),
            rr: 0,
            ticking: false,
            express: None,
        }
    }

    /// Grant the first free VC of `class` to `msg`, or `None` if the band
    /// is fully occupied.
    pub fn alloc_vc(&mut self, class: u8, msg: MsgId) -> Option<u8> {
        let base = class as usize * self.per_class as usize;
        for vc in base..base + self.per_class as usize {
            if self.vcs[vc].is_none() {
                self.vcs[vc] = Some(msg);
                return Some(vc as u8);
            }
        }
        None
    }

    /// Class of a VC index.
    pub fn class_of(&self, vc: u8) -> u8 {
        vc / self.per_class
    }

    /// Clear a VC and hand it to the head of its class's waiter FIFO, if
    /// any. Returns the new holder so the caller can resume it.
    pub fn release_vc(&mut self, vc: u8, serve_waiters: bool) -> Option<MsgId> {
        let slot = vc as usize;
        debug_assert!(self.vcs[slot].is_some(), "releasing a free VC");
        self.vcs[slot] = None;
        if !serve_waiters {
            return None;
        }
        let class = self.class_of(vc) as usize;
        let next = self.waiting[class].pop_front()?;
        self.vcs[slot] = Some(next);
        Some(next)
    }

    /// Worms currently holding a VC on this link, in VC order.
    pub fn holders(&self) -> impl Iterator<Item = MsgId> + '_ {
        self.vcs.iter().filter_map(|v| *v)
    }

    /// VCs currently held.
    pub fn occupied(&self) -> usize {
        self.vcs.iter().filter(|v| v.is_some()).count()
    }
}

/// Machine-wide wormhole state: one VC table per channel plus the worm
/// table (indexed like the message slab).
#[derive(Debug)]
pub struct WormholeState {
    /// Time for one flit to cross one link.
    pub flit_time: SimDuration,
    /// Flit credits per VC buffer (downstream slots per link).
    pub credits: u64,
    /// Per-channel VC tables, parallel to the machine's channel state:
    /// they cover the partitions the machine has built
    /// (`WormholeState::grow`).
    pub chans: Vec<VcChannel>,
    /// Escape classes per link (one topology shape per machine).
    classes: u8,
    /// VCs per escape class.
    per_class: u8,
    /// Per-message worm slots (grown on demand, like the message slab).
    pub worms: Vec<Option<Worm>>,
    /// Running count of held VCs across all channels. The occupancy gauge
    /// samples this on every grant; a recount would be O(channels) per
    /// sample, which dominated whole runs on 64k-node machines.
    pub held: usize,
    /// Run every worm flit by flit (the reference path).
    pub(crate) flit_reference: bool,
    /// Per partition: live messages (the express path needs exactly one).
    pub(crate) live_msgs: Vec<u32>,
    /// Per partition: jobs queued onto it, pruned of finished ones as the
    /// express check scans them.
    pub(crate) jobs: Vec<Vec<JobId>>,
    /// Per partition: the express worm in flight there, if any.
    pub(crate) express_in: Vec<Option<MsgId>>,
    /// Which path each worm took (diagnostics only).
    pub stats: ExpressStats,
}

impl WormholeState {
    /// Wormhole state for `net` with no VC tables yet: each link carries
    /// the escape classes its partitions' topology shape requires, and the
    /// machine grows the tables with its channel state.
    pub fn new(cfg: &MachineConfig, net: &SystemNet) -> WormholeState {
        WormholeState {
            flit_time: cfg.flit_time(),
            credits: u64::from(cfg.vc_credits.max(1)),
            chans: Vec::new(),
            classes: vc_class_count(net.kind()),
            per_class: cfg.vcs_per_class.max(1),
            worms: Vec::new(),
            held: 0,
            flit_reference: false,
            live_msgs: vec![0; net.partitions()],
            jobs: vec![Vec::new(); net.partitions()],
            express_in: vec![None; net.partitions()],
            stats: ExpressStats::default(),
        }
    }

    /// Extend the VC tables with idle links up to `chans` channels.
    pub(crate) fn grow(&mut self, chans: usize) {
        let (classes, per_class) = (self.classes, self.per_class);
        self.chans
            .resize_with(chans, || VcChannel::new(classes, per_class));
    }

    /// The worm of a message, if one is in flight.
    pub fn worm(&self, msg: MsgId) -> Option<&Worm> {
        self.worms.get(msg.idx()).and_then(|w| w.as_ref())
    }

    /// Mutable access to a message's worm.
    pub fn worm_mut(&mut self, msg: MsgId) -> Option<&mut Worm> {
        self.worms.get_mut(msg.idx()).and_then(|w| w.as_mut())
    }

    /// Install a worm for `msg` (slot grown on demand).
    pub fn insert(&mut self, msg: MsgId, worm: Worm) {
        if self.worms.len() <= msg.idx() {
            self.worms.resize_with(msg.idx() + 1, || None);
        }
        debug_assert!(self.worms[msg.idx()].is_none(), "worm slot still live");
        self.worms[msg.idx()] = Some(worm);
    }

    /// Remove and return a message's worm.
    pub fn remove(&mut self, msg: MsgId) -> Option<Worm> {
        self.worms.get_mut(msg.idx()).and_then(|w| w.take())
    }

    /// Whether link `i` of `worm` can move a flit right now: it holds a
    /// VC, has flits left, the flit has arrived over the previous link,
    /// and the downstream VC buffer has a credit. (Link liveness is the
    /// caller's check — the VC table does not track outages.)
    pub fn can_transmit(&self, worm: &Worm, i: usize) -> bool {
        let l = &worm.links[i];
        l.vc.is_some()
            && l.sent < worm.total_flits
            && (i == 0 || worm.links[i - 1].sent > l.sent)
            && (i + 1 == worm.links.len() || l.sent - worm.links[i + 1].sent < self.credits)
    }

    /// Like [`WormholeState::can_transmit`] but true only when the credit
    /// window is the *sole* blocker (for stall accounting).
    pub fn credit_blocked(&self, worm: &Worm, i: usize) -> bool {
        let l = &worm.links[i];
        l.vc.is_some()
            && l.sent < worm.total_flits
            && (i == 0 || worm.links[i - 1].sent > l.sent)
            && i + 1 < worm.links.len()
            && l.sent - worm.links[i + 1].sent >= self.credits
    }

    /// Total VCs currently held across all channels (occupancy gauge).
    pub fn occupied_vcs(&self) -> usize {
        debug_assert_eq!(
            self.held,
            self.chans.iter().map(|c| c.occupied()).sum::<usize>(),
            "held-VC counter out of sync with the channel tables"
        );
        self.held
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn worm3() -> Worm {
        Worm {
            total_flits: 5,
            links: [(0u32, 0u8), (1, 0), (2, 1)]
                .iter()
                .map(|&(chan, class)| WormLink {
                    chan,
                    class,
                    vc: None,
                    sent: 0,
                })
                .collect(),
            express: None,
        }
    }

    fn state(credits: u64) -> WormholeState {
        WormholeState {
            flit_time: SimDuration::from_nanos(10),
            credits,
            chans: (0..3).map(|_| VcChannel::new(2, 1)).collect(),
            classes: 2,
            per_class: 1,
            worms: Vec::new(),
            held: 0,
            flit_reference: false,
            live_msgs: Vec::new(),
            jobs: Vec::new(),
            express_in: Vec::new(),
            stats: ExpressStats::default(),
        }
    }

    #[test]
    fn progress_follows_the_closed_form_pipeline() {
        // 3 links, 4 flits: flit k crosses link i at step i + k.
        let at = |j| (0..3).map(|i| progress(j, i, 3, 4)).collect::<Vec<_>>();
        assert_eq!(
            at(0),
            [(0, true, true), (0, false, false), (0, false, false)]
        );
        assert_eq!(at(2), [(2, true, true), (1, true, true), (0, true, true)]);
        // Step 5: the tail crossed link 1, so link 0's VC is released.
        assert_eq!(at(5), [(4, true, false), (4, true, true), (3, true, true)]);
        assert_eq!(at(6), [(4, true, false), (4, true, false), (4, true, true)]);
    }

    /// The `busy` updates the flit ticks make on route link `i` through
    /// flit step `j`: link 0 streams, every later link parks and restarts
    /// after each flit.
    fn flit_by_flit(busy: &mut BusyTime, t0: SimTime, ft: SimDuration, i: u64, flits: u64, j: u64) {
        let at = |s: u64| t0 + ft * s;
        if j < i {
            return;
        }
        busy.set(at(i), true);
        if i > 0 {
            for s in i + 1..(i + flits).min(j + 1) {
                busy.set(at(s), false);
                busy.set(at(s), true);
            }
        }
        if j >= i + flits {
            busy.set(at(i + flits), false);
        }
    }

    #[test]
    fn busy_replay_matches_the_flit_ticks() {
        let t0 = SimTime(1_000);
        let ft = SimDuration::from_nanos(10);
        let flits = 4;
        for i in 0..4u64 {
            for j in 0..=i + flits + 1 {
                let mut replayed = BusyTime::new(SimTime::ZERO);
                replay_busy(&mut replayed, t0, ft, i, flits, j);
                let mut ticked = BusyTime::new(SimTime::ZERO);
                flit_by_flit(&mut ticked, t0, ft, i, flits, j);
                let here = format!("link {i}, step {j}");
                assert_eq!(replayed.is_on(), ticked.is_on(), "{here}");
                assert_eq!(replayed.is_on(), (i..i + flits).contains(&j), "{here}");
                for at in [t0 + ft * j, t0 + ft * (j + 3)] {
                    assert_eq!(replayed.busy_ns(at), ticked.busy_ns(at), "{here} at {at:?}");
                }
                // The flit path goes on from step j: both agree after it.
                let later = t0 + ft * (j + 2);
                replayed.set(later, false);
                ticked.set(later, false);
                assert_eq!(
                    replayed.busy_ns(later),
                    ticked.busy_ns(later),
                    "{here}, then off"
                );
            }
            // A whole worm keeps link i busy for exactly its flits.
            let mut g = BusyTime::new(SimTime::ZERO);
            replay_busy(&mut g, t0, ft, i, flits, i + flits);
            assert_eq!(
                g.busy_ns(SimTime(u64::MAX / 2)),
                flits * ft.nanos(),
                "link {i}"
            );
        }
    }

    #[test]
    fn head_waits_for_upstream_flits() {
        let st = state(4);
        let mut w = worm3();
        w.links[0].vc = Some(0);
        w.links[1].vc = Some(0);
        assert!(st.can_transmit(&w, 0), "source flits are always available");
        assert!(!st.can_transmit(&w, 1), "no flit has arrived yet");
        w.links[0].sent = 1;
        assert!(st.can_transmit(&w, 1));
    }

    #[test]
    fn credit_window_throttles_upstream() {
        let st = state(2);
        let mut w = worm3();
        w.links[0].vc = Some(0);
        w.links[0].sent = 2; // two flits buffered downstream of link 0
        assert!(!st.can_transmit(&w, 0), "credit window full");
        assert!(st.credit_blocked(&w, 0));
        w.links[1].vc = Some(0);
        w.links[1].sent = 1; // one drained onward: a credit came back
        assert!(st.can_transmit(&w, 0));
        assert!(!st.credit_blocked(&w, 0));
    }

    #[test]
    fn last_link_never_credit_blocks() {
        let st = state(1);
        let mut w = worm3();
        w.links[2].vc = Some(2);
        w.links[0].sent = 5;
        w.links[1].sent = 5;
        w.links[2].sent = 4;
        assert!(st.can_transmit(&w, 2), "ejection returns credits instantly");
    }

    #[test]
    fn vc_bands_are_per_class() {
        let mut ch = VcChannel::new(2, 2);
        assert_eq!(ch.alloc_vc(0, MsgId(1)), Some(0));
        assert_eq!(ch.alloc_vc(0, MsgId(2)), Some(1));
        assert_eq!(ch.alloc_vc(0, MsgId(3)), None, "class 0 band full");
        assert_eq!(ch.alloc_vc(1, MsgId(4)), Some(2), "class 1 band free");
        assert_eq!(ch.class_of(2), 1);
        assert_eq!(ch.occupied(), 3);
    }

    #[test]
    fn release_serves_same_class_fifo() {
        let mut ch = VcChannel::new(2, 1);
        assert_eq!(ch.alloc_vc(0, MsgId(1)), Some(0));
        ch.waiting[0].push_back(MsgId(7));
        ch.waiting[0].push_back(MsgId(8));
        assert_eq!(ch.release_vc(0, true), Some(MsgId(7)));
        assert_eq!(ch.vcs[0], Some(MsgId(7)));
        assert_eq!(ch.release_vc(0, false), None, "down link grants nobody");
        assert_eq!(ch.vcs[0], None);
        assert_eq!(ch.waiting[0].front(), Some(&MsgId(8)));
    }

    #[test]
    fn pending_request_tracks_the_head() {
        let mut w = worm3();
        assert_eq!(w.pending_vc_request(), Some(0), "fresh worm awaits link 0");
        w.links[0].vc = Some(0);
        assert_eq!(w.pending_vc_request(), None, "head not across yet");
        w.links[0].sent = 1;
        assert_eq!(w.pending_vc_request(), Some(1));
        w.links[1].vc = Some(0);
        w.links[1].sent = 1;
        w.links[2].vc = Some(2);
        assert_eq!(w.pending_vc_request(), None, "whole route held");
        assert_eq!(w.head_link(), 1);
        assert_eq!(w.buffered(), 1);
        assert_eq!(w.ejected(), 0);
    }
}
