//! The CPU express path: a node's low-priority round-robin between
//! interrupts, in closed form.
//!
//! A node with no high-priority work rotates its ready processes under
//! fixed quanta. Until the first of them finishes its current phase, every
//! slice boundary does the same thing: the running process uses up its
//! quantum with work left, goes to the tail of the ready queue, and the
//! head is dispatched. Slice `i` lasts `ctx_switch_low + Q_i`, so the
//! boundaries before the first phase completion fall in uniform rounds and
//! the completion instant is a closed form. A [`Window`] arms one
//! `SliceEnd` timer there instead of one per slice.
//!
//! Anything that touches the node *settles* the window at that point in
//! the global event order: the skipped boundaries the run has passed are
//! replayed exactly — per-process `remaining` and `cpu_time`, the CPU's
//! dispatch seq, `ctx_switches` and `quantum_expiries`, the ready-queue
//! rotation, and the `busy` signal. `busy` stays on through a window and
//! sums integer nanoseconds, so one `set` at the last boundary passed
//! leaves it as the slices' own `set`s do, and a settle costs the same
//! however many boundaries it passes. A read settles in place and the
//! window goes on; a change (a handler, a wakeup, a quantum, a park, a
//! fault) hands the node back to the slice-by-slice path with the current
//! slice's timer armed at the key the reference would have given it.
//!
//! # Where a skipped boundary sits in the event order
//!
//! In the slice-by-slice reference, boundary `B_k`'s timer is issued while
//! `B_{k−1}` is handled, so it precedes exactly the same-instant events
//! issued before the run passed `B_{k−1}`. The engine's handled-event log
//! answers how many events had been issued by then
//! ([`EventScheduler::issued_passing`]), and a virtual [`Key`] in that
//! gap places the boundary among real events without moving any of them.
//! That count depends on `B_{k−1}`'s own key only when handled events
//! share `B_{k−1}`'s instant, so the recursion is short. The natural-end
//! timer is armed in the gap of its window's start, a lower bound of its
//! reference key; when it fires the true key is known, and the timer
//! re-arms there if an event still pending precedes it. Two nodes'
//! boundaries at the same instant in the same gap order by their windows'
//! lanes (window start order).

use crate::cpu::{RunKind, Running};
use crate::process::{PState, ProcKey};
use crate::system::{Event, Machine};
use parsched_des::{EventScheduler, Key, SimDuration, SimTime, TimerHandle};

/// Why a node's rotation did not go express when a slice was armed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeclineReason {
    /// A recorder, metrics registry or timeline observes every slice.
    Observed,
    /// The machine runs slice by slice ([`Machine::set_slice_reference`]).
    Reference,
    /// Fewer than two slice boundaries fall before the first phase
    /// completion (or a quantum is zero, or the closed form overflows).
    TooShort,
}

impl DeclineReason {
    /// Every reason, in [`CpuExpressStats::declined`] order.
    pub const ALL: [DeclineReason; 3] = [
        DeclineReason::Observed,
        DeclineReason::Reference,
        DeclineReason::TooShort,
    ];
}

/// What settled an express window.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SettleReason {
    /// High-priority work arrived (a message handler).
    Interrupt,
    /// A process became ready on the node (wakeup or spawn).
    Wakeup,
    /// A resident job's quantum changed.
    Quantum,
    /// A resident job was parked or released.
    Parking,
    /// A crash or a fault kill.
    Fault,
    /// A read of the node's state (the window goes on).
    Read,
    /// The engine's run returned (the window goes on).
    RunEnd,
}

impl SettleReason {
    /// Every reason, in [`CpuExpressStats::settled`] order.
    pub const ALL: [SettleReason; 7] = [
        SettleReason::Interrupt,
        SettleReason::Wakeup,
        SettleReason::Quantum,
        SettleReason::Parking,
        SettleReason::Fault,
        SettleReason::Read,
        SettleReason::RunEnd,
    ];
}

/// How a machine's CPUs used the express path.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct CpuExpressStats {
    /// Windows opened.
    pub windows: u64,
    /// Slice boundaries replayed in closed form instead of handled.
    pub slices_skipped: u64,
    /// Windows that reached their natural end.
    pub completed: u64,
    /// Natural-end timers that re-armed behind a pending same-instant
    /// event.
    pub rearmed: u64,
    /// Settles per [`SettleReason::ALL`] entry.
    pub settled: [u64; 7],
    /// Same-instant ties between a window's boundary and another event,
    /// by which came first: `[boundary first, other event first]`. Counted
    /// where a settle meets a skipped boundary at its own instant, and
    /// where a natural end meets a pending event at its instant.
    pub ties: [u64; 2],
    /// Slices armed without a window, per [`DeclineReason::ALL`] entry.
    pub declined: [u64; 3],
}

impl CpuExpressStats {
    /// Fold another machine's counts into this one.
    pub fn absorb(&mut self, other: &CpuExpressStats) {
        self.windows += other.windows;
        self.slices_skipped += other.slices_skipped;
        self.completed += other.completed;
        self.rearmed += other.rearmed;
        for (a, b) in self.settled.iter_mut().zip(other.settled) {
            *a += b;
        }
        for (a, b) in self.ties.iter_mut().zip(other.ties) {
            *a += b;
        }
        for (a, b) in self.declined.iter_mut().zip(other.declined) {
            *a += b;
        }
    }
}

impl std::fmt::Display for CpuExpressStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "windows {} ({} completed, {} re-armed), slices skipped {}, ties {} boundary-first / {} event-first, settled",
            self.windows, self.completed, self.rearmed, self.slices_skipped, self.ties[0], self.ties[1]
        )?;
        for (reason, n) in SettleReason::ALL.iter().zip(self.settled) {
            write!(f, " {reason:?} {n}")?;
        }
        write!(f, ", declined")?;
        for (reason, n) in DeclineReason::ALL.iter().zip(self.declined) {
            write!(f, " {reason:?} {n}")?;
        }
        Ok(())
    }
}

/// One node's rotation in closed form.
///
/// Boundary `B(1)` ends the slice running when the window opened; after it
/// the processes rotate in `rot` order (the queue, then that first
/// process), slice `x` starting at boundary `B(x + 1)`. Boundaries
/// `B(1..=m)` are skipped; the slice starting at `B(m)` is the first to
/// finish a phase, at `end`.
#[derive(Debug)]
pub(crate) struct Window {
    lane: u32,
    /// Dispatch seq of the completing slice (its `SliceEnd` carries it).
    end_seq: u64,
    /// When the window opened (the log must reach back this far).
    opened: SimTime,
    rot: Vec<ProcKey>,
    quanta: Vec<SimDuration>,
    /// `pre[k]`: nanoseconds from a round's start to rotation slot `k`'s
    /// slice start; `pre[n]` is the round length.
    pre: Vec<u64>,
    /// Context-switch cost of a low-priority dispatch.
    ctx: SimDuration,
    /// When useful work of the first slice started.
    w0: SimTime,
    b1: SimTime,
    /// Issue count (gap) of the first boundary's key.
    gap1: u64,
    m: u64,
    end: SimTime,
    /// Boundaries already replayed into machine state.
    applied: u64,
    timer: TimerHandle,
}

impl Window {
    fn n(&self) -> u64 {
        self.rot.len() as u64
    }

    /// Instant of boundary `b` (`1 ..= m + 1`; `m + 1` is the natural end).
    fn boundary(&self, b: u64) -> SimTime {
        debug_assert!((1..=self.m + 1).contains(&b));
        if b > self.m {
            return self.end;
        }
        let x = b - 1;
        let n = self.n();
        self.b1
            + SimDuration::from_nanos(
                (x / n) * self.pre[self.rot.len()] + self.pre[(x % n) as usize],
            )
    }

    /// Skipped boundaries strictly before `t`.
    fn before(&self, t: SimTime) -> u64 {
        if t <= self.b1 {
            return 0;
        }
        let d = t.since(self.b1).nanos();
        let round = self.pre[self.rot.len()];
        let (full, rest) = (d / round, d % round);
        let within = self.pre[..self.rot.len()].partition_point(|&p| p < rest) as u64;
        (full * self.n() + within).min(self.m)
    }

    /// The gap of boundary `b`'s key: events issued when the run passed
    /// boundary `b − 1`, which needs `b − 1`'s own key only when handled
    /// events share its instant.
    fn gap(&self, b: u64, sched: &impl EventScheduler<Event>) -> u64 {
        let split = |t: SimTime| {
            let lo = sched.issued_passing(Key::first_at(t));
            (lo, lo != sched.issued_passing(Key::last_at(t)))
        };
        // Walk back to the latest boundary whose successor's gap is
        // settled by its instant alone.
        let mut i = b - 1;
        let mut g = self.gap1;
        while i >= 1 {
            let (lo, ambiguous) = split(self.boundary(i));
            if !ambiguous {
                g = lo;
                break;
            }
            i -= 1;
        }
        for k in i + 1..b {
            g = sched.issued_passing(Key::virtual_at(self.boundary(k), g, self.lane));
        }
        g
    }

    /// Boundary `b`'s key.
    fn key(&self, b: u64, sched: &impl EventScheduler<Event>) -> Key {
        Key::virtual_at(self.boundary(b), self.gap(b, sched), self.lane)
    }

    /// Skipped boundaries the run has passed at `point`.
    fn passed(&self, point: Key, sched: &impl EventScheduler<Event>, ties: &mut [u64; 2]) -> u64 {
        let t = point.time();
        let j = self.before(t);
        if j == self.m || self.boundary(j + 1) != t {
            return j;
        }
        if point == Key::last_at(t) {
            return j + 1;
        }
        let first = self.key(j + 1, sched) < point;
        ties[usize::from(!first)] += 1;
        j + u64::from(first)
    }
}

/// Window closes between two scans for the oldest open window, which
/// lets the engine forget handled events older than it.
const TRIM_EVERY: u32 = 128;

/// The machine's express-path state.
#[derive(Debug, Default)]
pub(crate) struct CpuExpress {
    /// Per built node: its open window.
    windows: Vec<Option<Box<Window>>>,
    open: usize,
    /// Closes since the handled-event log was last trimmed.
    closes: u32,
    next_lane: u32,
    /// Run every slice as an event.
    pub(crate) reference: bool,
    pub(crate) stats: CpuExpressStats,
}

impl CpuExpress {
    pub(crate) fn grow(&mut self, nodes: usize) {
        self.windows.resize_with(nodes, || None);
    }

    /// True while some node's rotation runs in closed form.
    #[inline]
    pub(crate) fn any_open(&self) -> bool {
        self.open > 0
    }

    /// True while `node`'s rotation runs in closed form.
    #[inline]
    pub(crate) fn active(&self, node: u32) -> bool {
        self.windows.get(node as usize).is_some_and(|w| w.is_some())
    }

    fn open_window(&mut self, node: u32, w: Box<Window>, sched: &mut impl EventScheduler<Event>) {
        if self.open == 0 {
            sched.keep_log_from(Some(w.opened));
        }
        self.open += 1;
        self.stats.windows += 1;
        self.windows[node as usize] = Some(w);
    }

    /// Close `node`'s window.
    fn close_window(&mut self, node: u32, sched: &mut impl EventScheduler<Event>) -> Box<Window> {
        let w = self.windows[node as usize].take().expect("open window");
        self.open -= 1;
        self.closes += 1;
        if self.open == 0 {
            sched.keep_log_from(None);
            self.closes = 0;
        } else if self.closes >= TRIM_EVERY {
            let oldest = self.windows.iter().flatten().map(|w| w.opened).min();
            sched.keep_log_from(oldest);
            self.closes = 0;
        }
        w
    }
}

impl Machine {
    /// Arm the `SliceEnd` of the low-priority slice just dispatched on
    /// `node` (ending at `end`), in closed form when the rotation allows.
    pub(crate) fn arm_low_slice(
        &mut self,
        node: u32,
        end: SimTime,
        sched: &mut impl EventScheduler<Event>,
    ) -> TimerHandle {
        match self.plan_window(node, end, sched) {
            Ok(w) => {
                let h = w.timer;
                self.cpu_express.open_window(node, w, sched);
                h
            }
            Err(why) => {
                self.cpu_express.stats.declined[why as usize] += 1;
                let seq = self.nodes[node as usize].cpu.seq;
                sched.schedule_timer_at(end, Event::SliceEnd { node, seq })
            }
        }
    }

    /// Open the window a slice ending at `end` starts, with its natural-end
    /// timer armed, or say why there is none. Nothing is allocated before
    /// the window is known to open.
    fn plan_window(
        &mut self,
        node: u32,
        end: SimTime,
        sched: &mut impl EventScheduler<Event>,
    ) -> Result<Box<Window>, DeclineReason> {
        if self.recorder.is_some() || self.metrics.is_some() || self.timeline.is_enabled() {
            return Err(DeclineReason::Observed);
        }
        if self.cpu_express.reference {
            return Err(DeclineReason::Reference);
        }
        let cursor = sched.cursor();
        let cpu = &self.nodes[node as usize].cpu;
        let Some(Running {
            kind: RunKind::Low(p0),
            work_started: w0,
            ..
        }) = cpu.running
        else {
            unreachable!("arming a low slice with no low process running");
        };
        debug_assert!(
            cpu.high.is_empty(),
            "high-priority work waits behind a low slice"
        );
        let ctx = self.cfg.ctx_switch_low;
        let first_left = self.procs[p0.idx()].remaining.saturating_sub(end.since(w0));
        // The slice after the first boundary must not finish its phase
        // either; most rotations that cannot go express fail here.
        let head = cpu
            .low
            .front()
            .map_or((first_left, self.procs[p0.idx()].quantum), |pk| {
                let p = &self.procs[pk.idx()];
                (p.remaining, p.quantum)
            });
        if first_left.is_zero() || head.0 <= head.1 {
            return Err(DeclineReason::TooShort);
        }
        let n = cpu.low.len() as u64 + 1;
        let rotation = || cpu.low.iter().copied().chain([p0]);
        // The first slice (in rotation order) to finish its phase, the work
        // it has left then, and the round length.
        let mut first: Option<(u64, SimDuration)> = None;
        let mut round = 0u64;
        for (k, pk) in rotation().enumerate() {
            let p = &self.procs[pk.idx()];
            let q = p.quantum;
            if q.is_zero() {
                return Err(DeclineReason::TooShort);
            }
            let left = if pk == p0 { first_left } else { p.remaining };
            let full = left.nanos().saturating_sub(1) / q.nanos();
            let slice = full.checked_mul(n).and_then(|x| x.checked_add(k as u64));
            let Some(slice) = slice else {
                return Err(DeclineReason::TooShort);
            };
            if first.is_none_or(|(s, _)| slice < s) {
                first = Some((
                    slice,
                    SimDuration::from_nanos(left.nanos() - full * q.nanos()),
                ));
            }
            round = round
                .checked_add((ctx + q).nanos())
                .ok_or(DeclineReason::TooShort)?;
        }
        let (slice, last) = first.expect("at least one process");
        if slice == 0 {
            return Err(DeclineReason::TooShort);
        }
        let rot: Vec<ProcKey> = rotation().collect();
        let quanta: Vec<SimDuration> = rot.iter().map(|pk| self.procs[pk.idx()].quantum).collect();
        let pre: Vec<u64> = std::iter::once(0)
            .chain(quanta.iter().scan(0, |at, &q| {
                *at += (ctx + q).nanos();
                Some(*at)
            }))
            .collect();
        let natural_end = (slice / n)
            .checked_mul(round)
            .and_then(|x| x.checked_add(pre[(slice % n) as usize]))
            .and_then(|x| x.checked_add((ctx + last).nanos()))
            .and_then(|x| end.nanos().checked_add(x))
            .map(SimTime)
            .ok_or(DeclineReason::TooShort)?;
        let end_seq = cpu.seq + slice + 1;
        let lane = self.cpu_express.next_lane;
        self.cpu_express.next_lane = lane.checked_add(1).filter(|&l| l < u32::MAX).unwrap_or(0);
        let timer = sched.schedule_timer_at_key(
            Key::virtual_at(natural_end, cursor.issued, lane),
            Event::SliceEnd { node, seq: end_seq },
        );
        Ok(Box::new(Window {
            lane,
            end_seq,
            opened: cursor.key.time(),
            rot,
            quanta,
            pre,
            ctx,
            w0,
            b1: end,
            gap1: cursor.issued,
            m: slice + 1,
            end: natural_end,
            applied: 0,
            timer,
        }))
    }

    /// Replay boundaries `applied + 1 ..= j` of `node`'s window into the
    /// CPU and process state, exactly as the slice-by-slice path leaves
    /// it, and count them as processed events. The cost does not grow
    /// with `j − applied`.
    fn replay(&mut self, node: u32, j: u64, sched: &mut impl EventScheduler<Event>) {
        let w = self.cpu_express.windows[node as usize]
            .as_mut()
            .expect("open window");
        let a = w.applied;
        if j <= a {
            return;
        }
        let n = w.n();
        let cpu = &mut self.nodes[node as usize].cpu;
        if a == 0 {
            let p = &mut self.procs[w.rot[w.rot.len() - 1].idx()];
            let used = w.b1.since(w.w0);
            p.remaining -= used;
            p.cpu_time += used;
        }
        // Boundary b ≥ 2 ends full slice b − 2; these end slices [lo, hi).
        let (lo, hi) = (a.max(1) - 1, j - 1);
        let ended = |x: u64, k: u64| x / n + u64::from(k < x % n);
        for (k, (&pk, &q)) in w.rot.iter().zip(&w.quanta).enumerate() {
            let count = ended(hi, k as u64) - ended(lo, k as u64);
            let used = SimDuration::from_nanos(count * q.nanos());
            let p = &mut self.procs[pk.idx()];
            p.remaining -= used;
            p.cpu_time += used;
            p.state = PState::Ready;
        }
        // The slice path turns `busy` on at every boundary while it is
        // already on; only the last one moves its state.
        cpu.busy.set(w.boundary(j), true);
        let passed = j - a;
        cpu.quantum_expiries += passed;
        cpu.ctx_switches += passed;
        cpu.seq += passed;
        let run = ((j - 1) % n) as usize;
        let pk = w.rot[run];
        let work_started = w.boundary(j) + w.ctx;
        cpu.running = Some(Running {
            kind: RunKind::Low(pk),
            work_started,
            quantum_end: work_started + w.quanta[run],
            seq: cpu.seq,
        });
        self.procs[pk.idx()].state = PState::Running;
        cpu.low.clear();
        cpu.low
            .extend((1..n).map(|i| w.rot[((j - 1 + i) % n) as usize]));
        w.applied = j;
        self.cpu_express.stats.slices_skipped += passed;
        sched.adjust_processed(passed as i64);
    }

    /// Bring `node`'s window up to the point the run has reached (the
    /// event being handled), keeping it open.
    pub(crate) fn express_read(
        &mut self,
        node: u32,
        point: Key,
        why: SettleReason,
        sched: &mut impl EventScheduler<Event>,
    ) {
        let Some(w) = self.cpu_express.windows[node as usize].as_deref() else {
            return;
        };
        let j = w.passed(point, sched, &mut self.cpu_express.stats.ties);
        self.cpu_express.stats.settled[why as usize] += 1;
        self.replay(node, j, sched);
    }

    /// Settle `node`'s window at the event being handled and hand the node
    /// back to the slice-by-slice path: the current slice's `SliceEnd` is
    /// armed at its reference key.
    pub(crate) fn settle_cpu(
        &mut self,
        node: u32,
        why: SettleReason,
        sched: &mut impl EventScheduler<Event>,
    ) {
        if !self.cpu_express.active(node) {
            return;
        }
        let point = sched.cursor().key;
        self.express_read(node, point, why, sched);
        let w = self.cpu_express.close_window(node, sched);
        let key = w.key(w.applied + 1, sched);
        let timer = if key.0 == w.timer.key() {
            // The natural-end timer (first armed or re-armed) already sits
            // at the reference key; a key is never armed twice.
            w.timer
        } else {
            sched.cancel_timer(w.timer);
            let seq = self.nodes[node as usize].cpu.seq;
            sched.schedule_timer_at_key(key, Event::SliceEnd { node, seq })
        };
        self.nodes[node as usize].cpu.slice_timer = Some(timer);
    }

    /// A `SliceEnd` for `node`, which has a window open. Returns `true`
    /// when the window reached its natural end and has been replayed, so
    /// the slice-by-slice handler takes over; `false` when the event was
    /// stale or the timer re-armed behind a pending event.
    pub(crate) fn express_slice_end(
        &mut self,
        node: u32,
        seq: u64,
        sched: &mut impl EventScheduler<Event>,
    ) -> bool {
        let w = self.cpu_express.windows[node as usize]
            .as_deref()
            .expect("open window");
        if seq != w.end_seq {
            return false;
        }
        let key = w.key(w.m + 1, sched);
        let next = sched.next_pending();
        if let Some(next) = next.filter(|n| n.time() == w.end) {
            self.cpu_express.stats.ties[usize::from(next < key)] += 1;
        }
        if next.is_some_and(|next| next < key) {
            let h = sched.schedule_timer_at_key(key, Event::SliceEnd { node, seq });
            let w = self.cpu_express.windows[node as usize]
                .as_mut()
                .expect("open window");
            w.timer = h;
            self.cpu_express.stats.rearmed += 1;
            // The reference handles this slice end once, at the later key.
            sched.adjust_processed(-1);
            return false;
        }
        let current = sched.cursor().key;
        if key != current {
            sched.rekey_current(key);
        }
        let m = w.m;
        self.replay(node, m, sched);
        self.cpu_express.close_window(node, sched);
        self.cpu_express.stats.completed += 1;
        true
    }

    /// Bring every open window up to `point` (the run is returning).
    pub(crate) fn express_run_ended(&mut self, sched: &mut impl EventScheduler<Event>) {
        if self.cpu_express.open == 0 {
            return;
        }
        let point = sched.cursor().key;
        for node in 0..self.cpu_express.windows.len() as u32 {
            self.express_read(node, point, SettleReason::RunEnd, sched);
        }
    }
}
