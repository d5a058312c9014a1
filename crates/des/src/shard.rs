//! Conservative parallel simulation: one [`Engine`] per shard, each on its
//! own thread, synchronized by barrier lookahead windows.
//!
//! # The protocol
//!
//! The machine is partitioned into `K` shards. Each shard owns a private
//! engine (clock, pending-event set, seq counter) and a private model. A
//! run proceeds in *windows*:
//!
//! 1. **Floor.** Every shard publishes the timestamp of its earliest
//!    pending event; the leader takes the global minimum `t_min`. If every
//!    shard is drained the run is over.
//! 2. **Window.** With [`Lookahead::Finite`] `L`, every event strictly
//!    before `t_min + L` is *safe*: no cross-shard send made at or after
//!    `t_min` can influence it, because a remote send takes at least `L`
//!    of simulated time (the store-and-forward hop cost). Each shard runs
//!    its engine up to the inclusive horizon `t_min + L − 1` ns in
//!    parallel, buffering remote sends in an outbox. With
//!    [`Lookahead::Independent`] there is a single unbounded window.
//! 3. **Exchange.** At the barrier, outboxes are routed to the destination
//!    shards, sorted by `(deliver_time, source_shard, emit_index)` — a
//!    total order independent of thread interleaving — and seeded into the
//!    destination engines. Repeat from step 1.
//!
//! Because every shard processes a deterministic event sequence between
//! barriers and mail is merged in a fixed order, a `K`-shard run is
//! bit-for-bit reproducible for a fixed `K`, regardless of how the OS
//! schedules the threads. No null messages are needed: the nonzero
//! lookahead plus the barrier make every window self-sufficient.
//!
//! Models run under a shard via the [`ShardModel`] trait, whose handler
//! receives a [`ShardCtx`] — a normal [`EventScheduler`] plus
//! [`ShardCtx::send`] for cross-shard messages. A plain [`Model`] that
//! never needs to send remotely lifts via [`Solo`].

use crate::engine::{Engine, EventScheduler, Model, QueueKind, RunOutcome, TimerHandle};
use crate::time::{SimDuration, SimTime};
use std::any::Any;
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Barrier, Mutex};

/// How far ahead of the global window floor every shard may safely run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Lookahead {
    /// The shards cannot influence each other at all (no cross-shard
    /// channels exist). The run is a single unbounded window with no
    /// barrier traffic; cross-shard sends panic.
    Independent,
    /// A cross-shard interaction takes at least this much simulated time
    /// (must be nonzero). Derived from the minimum store-and-forward hop
    /// cost across the shard boundary.
    Finite(SimDuration),
}

/// A model driven by one shard of a [`ShardedEngine`].
///
/// Identical to [`Model`] except the scheduling handle is a [`ShardCtx`],
/// which adds cross-shard [`send`](ShardCtx::send). The handler is generic
/// over the inner scheduler for the same reason `Model::handle` is: zero
/// dynamic dispatch on the hot path.
pub trait ShardModel {
    /// The event alphabet of this model.
    type Event;

    /// Process one event at simulated time `now`.
    fn handle<S: EventScheduler<Self::Event>>(
        &mut self,
        now: SimTime,
        event: Self::Event,
        ctx: &mut ShardCtx<'_, Self::Event, S>,
    );
}

/// Adapter lifting a plain [`Model`] into a [`ShardModel`] that never
/// sends cross-shard (the shard-local case, e.g. one driver per shard
/// over disjoint partitions).
pub struct Solo<M>(pub M);

impl<M: Model> ShardModel for Solo<M> {
    type Event = M::Event;

    fn handle<S: EventScheduler<M::Event>>(
        &mut self,
        now: SimTime,
        event: M::Event,
        ctx: &mut ShardCtx<'_, M::Event, S>,
    ) {
        self.0.handle(now, event, ctx);
    }
}

/// An outgoing cross-shard message, buffered until the window barrier.
struct OutMail<E> {
    dst: usize,
    time: SimTime,
    event: E,
}

/// An incoming cross-shard message with its deterministic merge key.
struct InMail<E> {
    time: SimTime,
    src: usize,
    idx: usize,
    event: E,
}

/// The scheduling handle a [`ShardModel`] sees: the shard-local
/// [`EventScheduler`] plus cross-shard [`send`](Self::send).
pub struct ShardCtx<'a, E, S: EventScheduler<E>> {
    sched: &'a mut S,
    outbox: &'a mut Vec<OutMail<E>>,
    shard: usize,
    shards: usize,
    lookahead: Lookahead,
}

impl<E, S: EventScheduler<E>> ShardCtx<'_, E, S> {
    /// The index of the shard this handler is running on.
    pub fn shard(&self) -> usize {
        self.shard
    }

    /// Total number of shards in the run.
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// Deliver `event` to shard `dst` after `delay`.
    ///
    /// A send to the local shard is an ordinary
    /// [`schedule`](EventScheduler::schedule). A remote send must respect
    /// the lookahead: `delay` must be at least [`Lookahead::Finite`]'s
    /// bound (and is forbidden entirely under
    /// [`Lookahead::Independent`]) — that is the contract that makes the
    /// windows safe.
    pub fn send(&mut self, dst: usize, delay: SimDuration, event: E) {
        assert!(dst < self.shards, "shard {dst} out of range");
        if dst == self.shard {
            self.sched.schedule(delay, event);
            return;
        }
        match self.lookahead {
            Lookahead::Independent => {
                panic!("cross-shard send under Lookahead::Independent: the shard plan promised isolation")
            }
            Lookahead::Finite(min) => assert!(
                delay >= min,
                "cross-shard send with delay {delay} below the lookahead {min}"
            ),
        }
        self.outbox.push(OutMail {
            dst,
            time: self.sched.now() + delay,
            event,
        });
    }
}

impl<E, S: EventScheduler<E>> EventScheduler<E> for ShardCtx<'_, E, S> {
    fn now(&self) -> SimTime {
        self.sched.now()
    }
    fn schedule_at(&mut self, time: SimTime, event: E) {
        self.sched.schedule_at(time, event);
    }
    fn schedule_timer_at(&mut self, time: SimTime, event: E) -> TimerHandle {
        self.sched.schedule_timer_at(time, event)
    }
    fn cancel_timer(&mut self, handle: TimerHandle) -> bool {
        self.sched.cancel_timer(handle)
    }
    fn timer_count(&self) -> usize {
        self.sched.timer_count()
    }
    fn request_pause(&mut self) {
        self.sched.request_pause();
    }
}

/// Bridges a [`ShardModel`] to the plain [`Model`] interface
/// [`Engine::run_until`] expects, routing remote sends into the outbox.
struct WindowShim<'a, M: ShardModel> {
    inner: &'a mut M,
    outbox: &'a mut Vec<OutMail<M::Event>>,
    shard: usize,
    shards: usize,
    lookahead: Lookahead,
}

impl<M: ShardModel> Model for WindowShim<'_, M> {
    type Event = M::Event;

    fn handle(
        &mut self,
        now: SimTime,
        event: Self::Event,
        sched: &mut impl EventScheduler<Self::Event>,
    ) {
        let mut ctx = ShardCtx {
            sched,
            outbox: self.outbox,
            shard: self.shard,
            shards: self.shards,
            lookahead: self.lookahead,
        };
        self.inner.handle(now, event, &mut ctx);
    }
}

/// Wall-clock breakdown of one shard thread's run, for diagnosing where a
/// sharded run spends its time: building and tearing down its model
/// (`build_ns`), simulating (`work_ns`), blocked on the window barriers
/// (`barrier_ns`), or routing/merging cross-shard mail (`merge_ns`), plus
/// the size of the machine the shard simulated (`nodes`) and how much of
/// it the shard's run built (`built_nodes`). Wall-clock and shape only —
/// it never feeds a simulated result or a fingerprint.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ShardTiming {
    /// Time spent in the engine's run loop (event processing).
    pub work_ns: u64,
    /// Time spent waiting at the three window barriers.
    pub barrier_ns: u64,
    /// Time spent routing the outbox and sorting/seeding inbound mail.
    pub merge_ns: u64,
    /// Time spent building the shard's model and engine on its own thread,
    /// and dropping them there at the end (0 when the caller built them).
    pub build_ns: u64,
    /// Processors in the shard's model (0 when the caller built it).
    pub nodes: usize,
    /// Processors whose state the shard's model built by the end of its
    /// run: the partitions its jobs and faults reached (0 when the caller
    /// built the model).
    pub built_nodes: usize,
}

/// `K` independent engines plus the window/barrier/mailbox machinery.
///
/// Seed each shard through [`shard_mut`](Self::shard_mut) (an [`Engine`]
/// is an [`EventSeeder`](crate::engine::EventSeeder), so engine-agnostic
/// setup code works unchanged), then [`run`](Self::run) with one
/// [`ShardModel`] per shard.
pub struct ShardedEngine<E> {
    cells: Vec<Engine<E>>,
    lookahead: Lookahead,
    timings: Vec<ShardTiming>,
}

impl<E> ShardedEngine<E> {
    /// `shards` fresh engines at time zero.
    ///
    /// # Panics
    /// Panics when `shards` is zero or a [`Lookahead::Finite`] bound is
    /// zero (a zero lookahead admits no safe window).
    pub fn new(shards: usize, lookahead: Lookahead) -> Self {
        let engines = (0..shards)
            .map(|_| Engine::new(QueueKind::BinaryHeap))
            .collect();
        Self::from_engines(engines, lookahead)
    }

    /// Wrap pre-built (possibly pre-seeded) engines as shards.
    pub fn from_engines(engines: Vec<Engine<E>>, lookahead: Lookahead) -> Self {
        assert!(!engines.is_empty(), "need at least one shard");
        if let Lookahead::Finite(l) = lookahead {
            assert!(l.nanos() > 0, "a zero lookahead admits no safe window");
        }
        let timings = vec![ShardTiming::default(); engines.len()];
        ShardedEngine { cells: engines, lookahead, timings }
    }

    /// Number of shards.
    pub fn shards(&self) -> usize {
        self.cells.len()
    }

    /// The engine of shard `i`.
    pub fn shard(&self, i: usize) -> &Engine<E> {
        &self.cells[i]
    }

    /// Mutable access to shard `i`'s engine, for seeding and budgets.
    pub fn shard_mut(&mut self, i: usize) -> &mut Engine<E> {
        &mut self.cells[i]
    }

    /// The latest shard clock — the global virtual time of the run.
    pub fn now(&self) -> SimTime {
        self.cells.iter().map(|e| e.now()).max().unwrap_or(SimTime::ZERO)
    }

    /// Total events processed across all shards.
    pub fn events_processed(&self) -> u64 {
        self.cells.iter().map(|e| e.events_processed()).sum()
    }

    /// Per-shard wall-clock breakdown of the most recent [`run`](Self::run)
    /// (work vs. barrier-wait vs. mail merge). All zeros before a run.
    pub fn timings(&self) -> &[ShardTiming] {
        &self.timings
    }

    /// Drive one model per shard until every shard drains (or a budget
    /// runs out). Blocks until all shard threads join.
    ///
    /// A panic on any shard thread aborts the remaining windows and is
    /// re-raised on the calling thread.
    pub fn run<M>(&mut self, models: &mut [M]) -> RunOutcome
    where
        M: ShardModel<Event = E> + Send,
        E: Send,
    {
        let k = self.cells.len();
        assert_eq!(models.len(), k, "one model per shard");
        let lookahead = self.lookahead;
        let barrier = Barrier::new(k);
        // Earliest pending event per shard, u64::MAX when drained.
        let floors: Vec<AtomicU64> = (0..k).map(|_| AtomicU64::new(u64::MAX)).collect();
        // Inclusive horizon of the current window, written by the leader.
        let window = AtomicU64::new(0);
        let done = AtomicBool::new(false);
        let budget_hit = AtomicBool::new(false);
        let inboxes: Vec<Mutex<Vec<InMail<E>>>> = (0..k).map(|_| Mutex::new(Vec::new())).collect();
        let panic_box: Mutex<Option<Box<dyn Any + Send>>> = Mutex::new(None);
        let timing_out: Vec<Mutex<ShardTiming>> =
            (0..k).map(|_| Mutex::new(ShardTiming::default())).collect();

        std::thread::scope(|scope| {
            for (i, (engine, model)) in self.cells.iter_mut().zip(models.iter_mut()).enumerate() {
                let (barrier, floors, window, done, budget_hit, inboxes, panic_box, timing_out) = (
                    &barrier, &floors, &window, &done, &budget_hit, &inboxes, &panic_box,
                    &timing_out,
                );
                scope.spawn(move || {
                    let mut outbox: Vec<OutMail<E>> = Vec::new();
                    let mut timing = ShardTiming::default();
                    // Set when this shard's model panicked: keep joining the
                    // barriers (so the others aren't deadlocked) but stop
                    // touching the poisoned engine/model.
                    let mut poisoned = false;
                    loop {
                        let floor = if poisoned {
                            u64::MAX
                        } else {
                            engine.next_event_time().map_or(u64::MAX, |t| t.nanos())
                        };
                        floors[i].store(floor, Ordering::Relaxed);
                        let wait = std::time::Instant::now();
                        barrier.wait();
                        timing.barrier_ns += wait.elapsed().as_nanos() as u64;
                        if i == 0 {
                            let t_min = floors
                                .iter()
                                .map(|f| f.load(Ordering::Relaxed))
                                .min()
                                .expect("at least one shard");
                            let abort = budget_hit.load(Ordering::Relaxed)
                                || panic_box.lock().expect("panic box").is_some();
                            if t_min == u64::MAX || abort {
                                done.store(true, Ordering::Relaxed);
                            } else {
                                let end = match lookahead {
                                    // One unbounded window; the next floor
                                    // round finds every shard drained.
                                    Lookahead::Independent => u64::MAX,
                                    // Events strictly before t_min + L are
                                    // safe; the horizon is inclusive.
                                    Lookahead::Finite(l) => {
                                        t_min.saturating_add(l.nanos()).saturating_sub(1)
                                    }
                                };
                                window.store(end, Ordering::Relaxed);
                            }
                        }
                        let wait = std::time::Instant::now();
                        barrier.wait();
                        timing.barrier_ns += wait.elapsed().as_nanos() as u64;
                        if done.load(Ordering::Relaxed) {
                            break;
                        }
                        let end = SimTime(window.load(Ordering::Relaxed));
                        if !poisoned {
                            let mut shim = WindowShim {
                                inner: model,
                                outbox: &mut outbox,
                                shard: i,
                                shards: k,
                                lookahead,
                            };
                            let work = std::time::Instant::now();
                            let run = std::panic::catch_unwind(AssertUnwindSafe(|| {
                                engine.run_until(&mut shim, end)
                            }));
                            timing.work_ns += work.elapsed().as_nanos() as u64;
                            match run {
                                Ok(RunOutcome::BudgetExhausted) => {
                                    budget_hit.store(true, Ordering::Relaxed);
                                }
                                Ok(_) => {}
                                Err(payload) => {
                                    poisoned = true;
                                    outbox.clear();
                                    let mut slot = panic_box.lock().expect("panic box");
                                    if slot.is_none() {
                                        *slot = Some(payload);
                                    }
                                }
                            }
                        }
                        let route = std::time::Instant::now();
                        for (idx, m) in outbox.drain(..).enumerate() {
                            inboxes[m.dst].lock().expect("inbox").push(InMail {
                                time: m.time,
                                src: i,
                                idx,
                                event: m.event,
                            });
                        }
                        timing.merge_ns += route.elapsed().as_nanos() as u64;
                        let wait = std::time::Instant::now();
                        barrier.wait();
                        timing.barrier_ns += wait.elapsed().as_nanos() as u64;
                        let merge = std::time::Instant::now();
                        let mut mail = std::mem::take(&mut *inboxes[i].lock().expect("inbox"));
                        if !poisoned {
                            // (time, src, idx) is a total order independent
                            // of thread interleaving, and the engine seeds in
                            // this order, so seq allocation is deterministic.
                            mail.sort_by_key(|m| (m.time, m.src, m.idx));
                            for m in mail {
                                engine.seed(m.time, m.event);
                            }
                        }
                        timing.merge_ns += merge.elapsed().as_nanos() as u64;
                    }
                    *timing_out[i].lock().expect("timing slot") = timing;
                });
            }
        });

        self.timings = timing_out
            .into_iter()
            .map(|m| m.into_inner().expect("timing slot"))
            .collect();
        if let Some(payload) = panic_box.into_inner().expect("panic box") {
            std::panic::resume_unwind(payload);
        }
        if budget_hit.into_inner() {
            RunOutcome::BudgetExhausted
        } else {
            RunOutcome::Drained
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Ping-pong across two shards: on hop `h`, send `h + 1` to the peer
    /// after exactly the lookahead, plus a same-window local echo.
    struct PingPong {
        max_hops: u32,
        delay: SimDuration,
        log: Vec<(u64, u32)>,
    }

    impl ShardModel for PingPong {
        type Event = u32;
        fn handle<S: EventScheduler<u32>>(
            &mut self,
            now: SimTime,
            hop: u32,
            ctx: &mut ShardCtx<'_, u32, S>,
        ) {
            self.log.push((now.nanos(), hop));
            // Odd values are local echoes; even values are hops.
            if hop.is_multiple_of(2) && hop < self.max_hops {
                let peer = 1 - ctx.shard();
                ctx.send(peer, self.delay, hop + 2);
                // A zero-ish-delay local chain that must stay in-window.
                ctx.schedule(SimDuration::from_nanos(1), hop + 1);
            }
        }
    }

    fn ping_pong_run(hops: u32) -> Vec<Vec<(u64, u32)>> {
        let delay = SimDuration::from_micros(5);
        let mut sharded = ShardedEngine::new(2, Lookahead::Finite(delay));
        sharded.shard_mut(0).seed(SimTime::ZERO, 0u32);
        let mut models = vec![
            PingPong { max_hops: hops, delay, log: Vec::new() },
            PingPong { max_hops: hops, delay, log: Vec::new() },
        ];
        assert_eq!(sharded.run(&mut models), RunOutcome::Drained);
        models.into_iter().map(|m| m.log).collect()
    }

    #[test]
    fn finite_lookahead_ping_pong_crosses_windows() {
        let logs = ping_pong_run(8);
        let step = SimDuration::from_micros(5).nanos();
        // Shard 0 sees hops 0, 4, 8 (+ echoes 1, 5); shard 1 sees 2, 6 (+ 3, 7).
        assert_eq!(
            logs[0],
            vec![
                (0, 0),
                (1, 1),
                (2 * step, 4),
                (2 * step + 1, 5),
                (4 * step, 8)
            ]
        );
        assert_eq!(
            logs[1],
            vec![(step, 2), (step + 1, 3), (3 * step, 6), (3 * step + 1, 7)]
        );
    }

    #[test]
    fn sharded_runs_are_deterministic_across_interleavings() {
        let first = ping_pong_run(64);
        for _ in 0..4 {
            assert_eq!(ping_pong_run(64), first);
        }
    }

    #[test]
    fn independent_shards_drain_in_one_window() {
        struct Countdown(Vec<u64>);
        impl ShardModel for Countdown {
            type Event = u32;
            fn handle<S: EventScheduler<u32>>(
                &mut self,
                now: SimTime,
                n: u32,
                ctx: &mut ShardCtx<'_, u32, S>,
            ) {
                self.0.push(now.nanos());
                if n > 0 {
                    ctx.schedule(SimDuration::from_nanos(10), n - 1);
                }
            }
        }
        let mut sharded = ShardedEngine::new(4, Lookahead::Independent);
        for i in 0..4 {
            sharded.shard_mut(i).seed(SimTime(i as u64), 5u32);
        }
        let mut models: Vec<Countdown> = (0..4).map(|_| Countdown(Vec::new())).collect();
        assert_eq!(sharded.run(&mut models), RunOutcome::Drained);
        for (i, m) in models.iter().enumerate() {
            assert_eq!(m.0.len(), 6);
            assert_eq!(m.0[0], i as u64);
        }
        assert_eq!(sharded.events_processed(), 24);
        assert_eq!(sharded.now(), SimTime(53));
    }

    #[test]
    fn solo_adapter_matches_plain_engine() {
        struct Countdown(Vec<(u64, u64)>);
        impl Model for Countdown {
            type Event = u64;
            fn handle(&mut self, now: SimTime, ev: u64, sched: &mut impl EventScheduler<u64>) {
                self.0.push((now.nanos(), ev));
                if ev > 0 {
                    sched.schedule(SimDuration::from_nanos(10), ev - 1);
                }
            }
        }
        let mut plain = Engine::new(QueueKind::BinaryHeap);
        plain.seed(SimTime(5), 3u64);
        let mut reference = Countdown(Vec::new());
        assert_eq!(plain.run(&mut reference), RunOutcome::Drained);

        let mut sharded = ShardedEngine::new(1, Lookahead::Independent);
        sharded.shard_mut(0).seed(SimTime(5), 3u64);
        let mut models = vec![Solo(Countdown(Vec::new()))];
        assert_eq!(sharded.run(&mut models), RunOutcome::Drained);
        assert_eq!(models[0].0 .0, reference.0);
        assert_eq!(sharded.now(), plain.now());
        assert_eq!(sharded.events_processed(), plain.events_processed());
    }

    #[test]
    fn budget_exhaustion_surfaces_from_any_shard() {
        struct Forever;
        impl ShardModel for Forever {
            type Event = ();
            fn handle<S: EventScheduler<()>>(
                &mut self,
                _: SimTime,
                _: (),
                ctx: &mut ShardCtx<'_, (), S>,
            ) {
                ctx.schedule(SimDuration::from_nanos(1), ());
            }
        }
        let mut sharded = ShardedEngine::new(2, Lookahead::Independent);
        sharded.shard_mut(1).max_events = 100;
        sharded.shard_mut(1).seed(SimTime::ZERO, ());
        let mut models = vec![Forever, Forever];
        assert_eq!(sharded.run(&mut models), RunOutcome::BudgetExhausted);
    }

    #[test]
    #[should_panic(expected = "model exploded")]
    fn shard_panics_propagate_without_deadlock() {
        struct Bomb;
        impl ShardModel for Bomb {
            type Event = ();
            fn handle<S: EventScheduler<()>>(
                &mut self,
                _: SimTime,
                _: (),
                _: &mut ShardCtx<'_, (), S>,
            ) {
                panic!("model exploded");
            }
        }
        let mut sharded = ShardedEngine::new(4, Lookahead::Independent);
        sharded.shard_mut(2).seed(SimTime::ZERO, ());
        let mut models = vec![Bomb, Bomb, Bomb, Bomb];
        sharded.run(&mut models);
    }

    #[test]
    #[should_panic(expected = "below the lookahead")]
    fn undershooting_the_lookahead_is_rejected() {
        struct Eager;
        impl ShardModel for Eager {
            type Event = ();
            fn handle<S: EventScheduler<()>>(
                &mut self,
                _: SimTime,
                _: (),
                ctx: &mut ShardCtx<'_, (), S>,
            ) {
                ctx.send(1, SimDuration::from_nanos(1), ());
            }
        }
        let mut sharded = ShardedEngine::new(2, Lookahead::Finite(SimDuration::from_micros(1)));
        sharded.shard_mut(0).seed(SimTime::ZERO, ());
        sharded.run(&mut [Eager, Eager]);
    }
}
