//! The event loop.
//!
//! [`Engine`] owns the simulation clock and the pending-event set. The model
//! (one per simulation; in this repository the multicomputer in
//! `parsched-machine`) implements [`Model`] and is driven by
//! [`Engine::run`]. The engine is deliberately dumb: it knows nothing about
//! nodes, processes, or messages — only timestamps and opaque events.

use crate::order::{issue_space_spent, real_seq, Cursor, Key, PassLog};
use crate::queue::{pack, BinaryHeapQueue, Scheduled};
use crate::time::{SimDuration, SimTime};
use std::collections::VecDeque;

/// A simulation model: consumes events, may schedule more via the
/// [`EventScheduler`] handle passed to `handle`.
///
/// `handle` is generic over the scheduler so a model written once runs
/// unchanged under any engine that can provide the scheduling contract —
/// the optimized [`Engine`] in this crate or the naive
/// reference engine in `parsched-oracle`. Monomorphization keeps the hot
/// path free of dynamic dispatch.
pub trait Model {
    /// The event alphabet of this model.
    type Event;

    /// Process one event at simulated time `now`.
    fn handle(
        &mut self,
        now: SimTime,
        event: Self::Event,
        sched: &mut impl EventScheduler<Self::Event>,
    );

    /// The engine's `run` is returning. `sched`'s cursor is the point the
    /// run reached: after every event at the final instant or the horizon,
    /// or the last handled event when the run paused or ran out of budget.
    /// A model that defers work in closed form brings its state up to that
    /// point here, so whatever reads it between runs sees every event the
    /// run passed. The default does nothing.
    fn run_ended(&mut self, sched: &mut impl EventScheduler<Self::Event>) {
        let _ = sched;
    }
}

/// The scheduling contract an engine offers a [`Model`] during `handle`.
///
/// Every engine must preserve the same semantics: events fire in strictly
/// nondecreasing `(time, seq)` order, where `seq` is allocated in call
/// order across *all* scheduling methods (including timers), and a
/// cancelled timer never fires. Any two engines honoring this contract
/// drive a deterministic model through the identical event history — the
/// property the differential oracle tests assert.
pub trait EventScheduler<E> {
    /// The current simulated time.
    fn now(&self) -> SimTime;

    /// Schedule `event` at an absolute instant (must not be in the past).
    fn schedule_at(&mut self, time: SimTime, event: E);

    /// Schedule a cancellable event at an absolute instant
    /// (must not be in the past).
    fn schedule_timer_at(&mut self, time: SimTime, event: E) -> TimerHandle;

    /// Schedule `event` at an absolute instant, as
    /// [`schedule_at`](Self::schedule_at) does, as the next event of a
    /// stream whose `(time, seq)` keys only increase (the host loader's
    /// completions). The event takes the same seq and fires at the same
    /// point of the order as with `schedule_at`; an engine may keep such a
    /// stream outside its heap until the stream's turn. A call that breaks
    /// the promise costs speed, never order.
    fn schedule_ordered(&mut self, time: SimTime, event: E) {
        self.schedule_at(time, event);
    }

    /// Cancel a timer scheduled with
    /// [`schedule_timer`](Self::schedule_timer). Returns `true` if the
    /// timer was still pending (and is now gone), `false` if it already
    /// fired or was already cancelled.
    fn cancel_timer(&mut self, handle: TimerHandle) -> bool;

    /// Number of pending (not yet fired or cancelled) timers, exposed for
    /// observability gauges.
    fn timer_count(&self) -> usize;

    /// Schedule `event` to fire `delay` after the current instant.
    fn schedule(&mut self, delay: SimDuration, event: E) {
        self.schedule_at(self.now() + delay, event);
    }

    /// Schedule `event` to fire immediately (at the current instant, after
    /// every event already pending for this instant).
    fn schedule_now(&mut self, event: E) {
        let now = self.now();
        self.schedule_at(now, event);
    }

    /// Schedule a *cancellable* event `delay` after the current instant.
    ///
    /// Functionally identical to [`schedule`](Self::schedule) — the event
    /// fires in exactly the same global order — but it supports `O(1)`
    /// [cancellation](Self::cancel_timer). Use it for events that are
    /// usually invalidated before they fire (quantum expiries, timeout
    /// guards): a cancelled timer never reaches the model and is never
    /// counted as processed.
    fn schedule_timer(&mut self, delay: SimDuration, event: E) -> TimerHandle {
        let at = self.now() + delay;
        self.schedule_timer_at(at, event)
    }

    /// Ask the engine to stop after the current event's handler returns
    /// ([`RunOutcome::Paused`]). A model uses this when it cannot proceed
    /// without information the engine does not have — the sharded
    /// runner's global-queue admissions — and the caller resolves
    /// the dependency before resuming. Engines without pause support (the
    /// oracle's reference engine) ignore the request.
    fn request_pause(&mut self) {}

    /// Where the run stands: the handled event's key and the number of
    /// events issued so far.
    fn cursor(&self) -> Cursor;

    /// Key of the earliest pending event (cancelled timers excluded).
    fn next_pending(&mut self) -> Option<Key>;

    /// Events issued when the run passed `key`: the count issued before
    /// the first handled event after `key`, or the count so far if the run
    /// has handled none yet. Answers only for keys at or after the instant
    /// the log is kept from ([`keep_log_from`](Self::keep_log_from)).
    fn issued_passing(&self, key: Key) -> u64;

    /// Log handled events from instant `floor` on (`None` stops logging).
    fn keep_log_from(&mut self, floor: Option<SimTime>);

    /// Schedule a cancellable event at an explicit key, which must lie
    /// after the event being handled, not be a real event's key, and not
    /// have been given to any timer before (even a cancelled one). A
    /// virtual key takes no issue index, so no real event's key moves.
    fn schedule_timer_at_key(&mut self, key: Key, event: E) -> TimerHandle;

    /// Relabel the event being handled with a later `key` that still lies
    /// before every pending event, for the cursor and the log.
    fn rekey_current(&mut self, key: Key);

    /// Adjust the processed-event count by `delta`. A model that replays
    /// events in closed form instead of handling them counts them here
    /// (and takes back any extra event it handled to get there), so the
    /// count is the one a run handling them one by one reports.
    fn adjust_processed(&mut self, delta: i64);
}

/// An engine that accepts events seeded from outside a run (the driver's
/// batch arrivals). Both the optimized [`Engine`] and the oracle's naive
/// engine implement it, so setup code is engine-agnostic too.
pub trait EventSeeder<E> {
    /// Schedule an event before the run starts (or between runs).
    fn seed(&mut self, time: SimTime, event: E);
}

impl<E> EventSeeder<E> for Engine<E> {
    fn seed(&mut self, time: SimTime, event: E) {
        Engine::seed(self, time, event);
    }
}

/// Handle through which a model schedules future events during `handle`.
///
/// New events go straight into the engine's pending-event set — the
/// now-queue for the current instant, the future-event heap for everything
/// later, cancellable timers included, and the ordered lane for
/// [`schedule_ordered`](EventScheduler::schedule_ordered) streams — with no
/// intermediate buffering. All of them order by the same `(time, seq)`
/// key, so the pop order is identical to what a single buffered queue
/// would give.
pub struct Scheduler<'w, E> {
    now: SimTime,
    /// Issue index of the next scheduled event.
    next_seq: u64,
    /// Key of the event being handled, and the count issued before it.
    current: (Key, u64),
    future: &'w mut FutureEvents<E>,
    now_queue: &'w mut VecDeque<Scheduled<E>>,
    log: &'w mut PassLog,
    /// Net [`adjust_processed`](EventScheduler::adjust_processed) calls.
    credit: i64,
    pause: bool,
}

impl<E> EventScheduler<E> for Scheduler<'_, E> {
    #[inline]
    fn now(&self) -> SimTime {
        self.now
    }

    fn schedule_at(&mut self, time: SimTime, event: E) {
        assert!(
            time >= self.now,
            "cannot schedule into the past: {time} < {now}",
            now = self.now
        );
        let seq = real_seq(self.next_seq);
        self.next_seq += 1;
        if time == self.now {
            // Zero-delay bypass: stays out of the heap, FIFO (= seq) order
            // preserved.
            self.now_queue.push_back(Scheduled { time, seq, event });
        } else {
            self.future.push(time, seq, event);
        }
    }

    fn schedule_timer_at(&mut self, time: SimTime, event: E) -> TimerHandle {
        assert!(
            time >= self.now,
            "cannot schedule into the past: {time} < {now}",
            now = self.now
        );
        let seq = real_seq(self.next_seq);
        self.next_seq += 1;
        self.future.push_timer(time, seq, event)
    }

    fn schedule_ordered(&mut self, time: SimTime, event: E) {
        if time == self.now {
            self.schedule_at(time, event);
            return;
        }
        assert!(
            time > self.now,
            "cannot schedule into the past: {time} < {now}",
            now = self.now
        );
        let seq = real_seq(self.next_seq);
        self.next_seq += 1;
        self.future.push_ordered(ORDERED_LANE, time, seq, event);
    }

    fn cancel_timer(&mut self, handle: TimerHandle) -> bool {
        self.future.cancel(handle)
    }

    fn timer_count(&self) -> usize {
        self.future.timer_count()
    }

    fn request_pause(&mut self) {
        self.pause = true;
    }

    fn cursor(&self) -> Cursor {
        Cursor {
            key: self.current.0,
            issued: self.next_seq,
        }
    }

    fn next_pending(&mut self) -> Option<Key> {
        next_key(self.now_queue, self.future).map(|(key, _)| Key(key))
    }

    fn issued_passing(&self, key: Key) -> u64 {
        self.log.issued_passing(key, self.next_seq)
    }

    fn keep_log_from(&mut self, floor: Option<SimTime>) {
        self.log.keep_from(floor, self.current);
    }

    fn schedule_timer_at_key(&mut self, key: Key, event: E) -> TimerHandle {
        assert!(key > self.current.0, "cannot schedule into the past: {key:?}");
        assert!(key.is_virtual(), "explicit keys must be virtual: {key:?}");
        self.future.push_timer(key.time(), key.seq(), event)
    }

    fn rekey_current(&mut self, key: Key) {
        assert!(key >= self.current.0 && key.time() == self.now, "rekey backwards");
        self.current.0 = key;
        self.log.rekey_last(key);
    }

    fn adjust_processed(&mut self, delta: i64) {
        self.credit += delta;
    }
}

/// Which pending-event set an [`Engine`] uses. There is one: the
/// now-queue, the future-event heap and its ordered lanes. The enum stays
/// so configurations that name a backend ([`Engine::new`]'s argument) keep
/// working.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum QueueKind {
    /// The 4-ary future-event heap ([`BinaryHeapQueue`]).
    #[default]
    BinaryHeap,
}

/// A claim ticket for a pending timer, returned by
/// [`EventScheduler::schedule_timer`].
///
/// Handles are `Copy` and cheap to store. A handle names the timer's
/// packed `(time, seq)` key and, on [`Engine`], the slab slot that records
/// the timer as live. Sequence numbers are never reused, so cancelling a
/// timer that already fired or was already cancelled — even one whose slot
/// now holds a newer timer — is detected and never affects an unrelated
/// timer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TimerHandle {
    key: u128,
    slot: u32,
}

impl TimerHandle {
    /// Build a handle for an engine that tracks timers by key alone (the
    /// differential oracle's flat heap). It names no slot, so passing it
    /// to an [`Engine`] cancels nothing.
    pub fn external(key: u128) -> TimerHandle {
        TimerHandle { key, slot: NO_SLOT }
    }

    /// The packed `(time, seq)` key this handle refers to.
    pub fn key(&self) -> u128 {
        self.key
    }
}

/// Slot of the heap entry that heads ordered lane `i`: `LANE_HEAD + i`.
/// Lane slots sit above every timer slot, so one comparison
/// (`slot >= LANE_HEAD`) tells a timer from everything else.
const LANE_HEAD: u32 = u32::MAX - LANES as u32;
/// Slot of a heap entry that is not a timer and heads no lane.
const NO_SLOT: u32 = u32::MAX;
/// Content of a free timer slot; sequence numbers never reach it.
const FREE: u64 = u64::MAX;

/// Ordered lanes an engine keeps.
const LANES: usize = 2;
/// The lane [`Engine::seed`] feeds: arrivals, after any fault seeds.
const SEED_LANE: usize = 0;
/// The lane [`EventScheduler::schedule_ordered`] feeds.
const ORDERED_LANE: usize = 1;

/// A future-event heap entry: the payload plus, for a timer, its slot.
struct Entry<E> {
    slot: u32,
    event: E,
}

/// A FIFO of pending events whose keys only increase. Only its head sits
/// in the heap; the rest wait here and skip the heap until they reach the
/// front.
struct OrderedLane<E> {
    /// The events behind the head, in key order.
    queue: VecDeque<Scheduled<E>>,
    /// Key of the last event that joined; a later event joins only with a
    /// greater key.
    last: u128,
    /// The head is in the heap.
    headed: bool,
}

impl<E> OrderedLane<E> {
    fn new() -> Self {
        OrderedLane {
            queue: VecDeque::new(),
            last: 0,
            headed: false,
        }
    }
}

/// Every event scheduled past the current instant, timers included, in one
/// heap, with lazy timer cancellation, and two ordered lanes beside it.
///
/// Each timer holds a slot in a small slab that records the seq of the
/// live timer occupying it. Cancelling frees the slot; the heap entry
/// stays behind as a *corpse* and is dropped when it reaches the top
/// (its slot no longer holds its seq). Freed slots are reused, so the slab
/// is as large as the most timers ever live at once.
///
/// An ordered lane holds a stream of events with increasing keys (the
/// arrival seeds, the host loader's completions). Only each lane's head
/// is in the heap, marked by its lane slot; popping it pushes the lane's
/// next event. Every lane's earliest event is thus in the heap, so the
/// heap's top is still the earliest pending event, and a backlog of
/// thousands of queued loads no longer deepens every sift.
struct FutureEvents<E> {
    heap: BinaryHeapQueue<Entry<E>>,
    /// Per slot: the seq of the live timer holding it, or [`FREE`].
    slots: Vec<u64>,
    /// Free slot indices.
    free: Vec<u32>,
    /// Cancelled timers whose corpses are still in the heap.
    corpses: usize,
    lanes: [OrderedLane<E>; LANES],
}

impl<E> FutureEvents<E> {
    fn new() -> Self {
        FutureEvents {
            heap: BinaryHeapQueue::new(),
            slots: Vec::new(),
            free: Vec::new(),
            corpses: 0,
            lanes: std::array::from_fn(|_| OrderedLane::new()),
        }
    }

    /// Live events: every heap entry but the corpses, and every lane
    /// event behind its head.
    fn len(&self) -> usize {
        self.heap.len() - self.corpses + self.lanes.iter().map(|l| l.queue.len()).sum::<usize>()
    }

    /// Live timers: every slot in use.
    fn timer_count(&self) -> usize {
        self.slots.len() - self.free.len()
    }

    fn push(&mut self, time: SimTime, seq: u64, event: E) {
        let event = Entry {
            slot: NO_SLOT,
            event,
        };
        self.heap.push(Scheduled { time, seq, event });
    }

    /// Queue an event on ordered lane `lane`, or in the heap when its key
    /// is not after the lane's last one.
    fn push_ordered(&mut self, lane: usize, time: SimTime, seq: u64, event: E) {
        let l = &mut self.lanes[lane];
        if pack(time, seq) <= l.last {
            return self.push(time, seq, event);
        }
        l.last = pack(time, seq);
        if l.headed {
            l.queue.push_back(Scheduled { time, seq, event });
        } else {
            l.headed = true;
            let event = Entry {
                slot: LANE_HEAD + lane as u32,
                event,
            };
            self.heap.push(Scheduled { time, seq, event });
        }
    }

    fn push_timer(&mut self, time: SimTime, seq: u64, event: E) -> TimerHandle {
        let slot = match self.free.pop() {
            Some(slot) => {
                self.slots[slot as usize] = seq;
                slot
            }
            None => {
                let slot = u32::try_from(self.slots.len())
                    .ok()
                    .filter(|&s| s < LANE_HEAD)
                    .expect("fewer than u32::MAX - 2 live timers");
                self.slots.push(seq);
                slot
            }
        };
        self.heap.push(Scheduled {
            time,
            seq,
            event: Entry { slot, event },
        });
        TimerHandle {
            key: pack(time, seq),
            slot,
        }
    }

    fn cancel(&mut self, handle: TimerHandle) -> bool {
        match self.slots.get_mut(handle.slot as usize) {
            Some(held) if *held == handle.key as u64 => {
                *held = FREE;
                self.free.push(handle.slot);
                self.corpses += 1;
                true
            }
            _ => false,
        }
    }

    /// The packed key of the earliest live event, dropping any corpses
    /// above it.
    #[inline]
    fn peek_key(&mut self) -> Option<u128> {
        loop {
            let (key, entry) = self.heap.peek()?;
            if entry.slot >= LANE_HEAD || self.slots[entry.slot as usize] == key as u64 {
                return Some(key);
            }
            self.heap.pop();
            self.corpses -= 1;
        }
    }

    /// Remove the earliest entry, which [`peek_key`](Self::peek_key) has
    /// just found live, releasing its timer slot or moving its lane's next
    /// event into the heap.
    #[inline]
    fn pop_live(&mut self) -> Scheduled<E> {
        let Scheduled { time, seq, event } = self.heap.pop().expect("peeked the head");
        if event.slot < LANE_HEAD {
            self.slots[event.slot as usize] = FREE;
            self.free.push(event.slot);
        } else if event.slot != NO_SLOT {
            let slot = event.slot;
            let l = &mut self.lanes[(slot - LANE_HEAD) as usize];
            match l.queue.pop_front() {
                Some(next) => self.heap.push(Scheduled {
                    time: next.time,
                    seq: next.seq,
                    event: Entry { slot, event: next.event },
                }),
                None => l.headed = false,
            }
        }
        Scheduled {
            time,
            seq,
            event: event.event,
        }
    }
}

/// The packed key of the earliest live event across the now-queue and the
/// heap, and whether it is the now-queue front.
#[inline]
fn next_key<E>(
    now_queue: &VecDeque<Scheduled<E>>,
    future: &mut FutureEvents<E>,
) -> Option<(u128, bool)> {
    let front = now_queue.front().map(|s| pack(s.time, s.seq));
    match (front, future.peek_key()) {
        (Some(f), Some(h)) if h < f => Some((h, false)),
        (Some(f), _) => Some((f, true)),
        (None, Some(h)) => Some((h, false)),
        (None, None) => None,
    }
}

/// Why [`Engine::run`] returned.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunOutcome {
    /// The pending-event set drained completely.
    Drained,
    /// The time horizon was reached with events still pending.
    HorizonReached,
    /// The event budget was exhausted (runaway-simulation guard), or the
    /// run came within [`ISSUE_HEADROOM`](crate::order::ISSUE_HEADROOM) of
    /// the [`ISSUE_LIMIT`](crate::order::ISSUE_LIMIT) events an engine can
    /// issue.
    BudgetExhausted,
    /// The model asked to stop after the current event
    /// ([`EventScheduler::request_pause`]); the clock sits at that event's
    /// instant and the run can be resumed by calling `run` again.
    Paused,
}

/// The discrete-event engine: a clock plus a pending-event set.
///
/// Pending events live in one of three places, all ordered by the same
/// packed `(time, seq)` key so a merge-pop across them reproduces the exact
/// global order a single queue would give:
///
/// * the **now-queue** — a FIFO ring holding events scheduled *for the
///   current instant* (zero-delay handler chains); pushing and popping it
///   never touches the heap,
/// * the **future-event heap** — everything later, cancellable timers
///   included. A cancelled timer stays in the heap until it reaches the
///   top, where the merge-peek drops it before it is counted or checked
///   against the horizon, so it never fires and never shows in
///   [`pending`](Self::pending) or `timer_count`,
/// * two **ordered lanes** — FIFOs of events whose keys only increase: the
///   [`seed`](Self::seed) stream (a driver's arrivals) and the
///   [`schedule_ordered`](EventScheduler::schedule_ordered) stream (the
///   host loader's completions). Only each lane's head sits in the heap,
///   so a backlog of thousands of such events costs the heap one entry per
///   lane. An event whose key is not after its lane's last one goes to the
///   heap instead, so order never rests on the caller.
///
/// An engine issues at most [`ISSUE_LIMIT`](crate::order::ISSUE_LIMIT)
/// events over its life (about 4.29 billion schedule calls, timers and
/// seeds, cancelled timers included), because each real seq leaves room
/// for virtual keys below it. [`run`](Self::run) checks this beside
/// [`max_events`](Self::max_events) and returns
/// [`RunOutcome::BudgetExhausted`] before the limit is reached.
pub struct Engine<E> {
    future: FutureEvents<E>,
    /// Events scheduled for the current instant, in FIFO (= seq) order.
    /// Invariant: every entry's time equals the time of the most recently
    /// popped event, so entries are totally ordered against the heap by
    /// `(time, seq)` like everything else.
    now_queue: VecDeque<Scheduled<E>>,
    now: SimTime,
    /// Issue index of the next scheduled event (its seq is
    /// [`real_seq`] of it).
    next_seq: u64,
    events_processed: u64,
    /// Key of the most recently handled event.
    last: Key,
    /// Handled events, kept while a model asks for them.
    log: PassLog,
    /// Stop processing events scheduled after this instant.
    pub horizon: SimTime,
    /// Abort after this many events (guards against accidental infinite
    /// event loops in model code).
    pub max_events: u64,
}

impl<E> Engine<E> {
    /// A fresh engine at time zero. [`QueueKind`] has a single variant,
    /// so every engine uses the same pending-event set.
    pub fn new(_kind: QueueKind) -> Self {
        Engine {
            future: FutureEvents::new(),
            now_queue: VecDeque::with_capacity(64),
            now: SimTime::ZERO,
            next_seq: 0,
            events_processed: 0,
            last: Key::first_at(SimTime::ZERO),
            log: PassLog::default(),
            horizon: SimTime::MAX,
            max_events: u64::MAX,
        }
    }

    /// The current simulated time.
    #[inline]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Total events processed so far, counting those a model replayed in
    /// closed form ([`EventScheduler::adjust_processed`]).
    #[inline]
    pub fn events_processed(&self) -> u64 {
        self.events_processed
    }

    /// Number of pending events (including pending timers; cancelled
    /// timers are not counted).
    pub fn pending(&self) -> usize {
        self.future.len() + self.now_queue.len()
    }

    /// Schedule an event before the run starts (or between runs). Seeds
    /// in key order (a driver's arrivals) queue on an ordered lane rather
    /// than in the heap; any seed fires at its `(time, seq)` place.
    pub fn seed(&mut self, time: SimTime, event: E) {
        assert!(time >= self.now, "cannot seed into the past");
        let seq = real_seq(self.next_seq);
        self.next_seq += 1;
        self.future.push_ordered(SEED_LANE, time, seq, event);
    }

    /// The packed key of the earliest live event and whether it is the
    /// now-queue front, or `None` when nothing is pending.
    #[inline]
    fn next_key(&mut self) -> Option<(u128, bool)> {
        next_key(&self.now_queue, &mut self.future)
    }

    /// Drive `model` until the queue drains, the horizon passes, or the
    /// event budget runs out.
    pub fn run<M: Model<Event = E>>(&mut self, model: &mut M) -> RunOutcome {
        let outcome = self.run_loop(model);
        let at = match outcome {
            RunOutcome::Drained | RunOutcome::HorizonReached => Key::last_at(self.now),
            RunOutcome::BudgetExhausted | RunOutcome::Paused => self.last,
        };
        self.last = at;
        self.between_runs(|sched| model.run_ended(sched));
        outcome
    }

    /// Call `f` with a scheduling handle between runs, positioned where the
    /// last run stopped (the same point [`Model::run_ended`] saw). A driver
    /// that acts on its model while the engine is paused schedules through
    /// it, so work deferred in closed form stays in the event order.
    pub fn between_runs<R>(&mut self, f: impl FnOnce(&mut Scheduler<'_, E>) -> R) -> R {
        let mut sched = Scheduler {
            now: self.now,
            next_seq: self.next_seq,
            current: (self.last, self.next_seq),
            future: &mut self.future,
            now_queue: &mut self.now_queue,
            log: &mut self.log,
            credit: 0,
            pause: false,
        };
        let r = f(&mut sched);
        self.next_seq = sched.next_seq;
        self.events_processed = self.events_processed.saturating_add_signed(sched.credit);
        r
    }

    fn run_loop<M: Model<Event = E>>(&mut self, model: &mut M) -> RunOutcome {
        loop {
            if self.events_processed >= self.max_events || issue_space_spent(self.next_seq) {
                return RunOutcome::BudgetExhausted;
            }
            // Merge-peek: the next event is the lesser (time, seq) of the
            // now-queue front and the earliest live heap entry.
            let Some((key, from_now)) = self.next_key() else {
                return RunOutcome::Drained;
            };
            if SimTime((key >> 64) as u64) > self.horizon {
                // Nothing was popped; the caller can inspect `pending()`
                // to see there was more to do.
                self.now = self.horizon;
                return RunOutcome::HorizonReached;
            }
            let item = if from_now {
                self.now_queue.pop_front().expect("peeked the front")
            } else {
                self.future.pop_live()
            };
            debug_assert!(item.time >= self.now, "event queue returned the past");
            self.now = item.time;
            self.events_processed += 1;
            let key = Key(key);
            self.log.push(key, self.next_seq);

            let mut sched = Scheduler {
                now: self.now,
                next_seq: self.next_seq,
                current: (key, self.next_seq),
                future: &mut self.future,
                now_queue: &mut self.now_queue,
                log: &mut self.log,
                credit: 0,
                pause: false,
            };
            model.handle(self.now, item.event, &mut sched);
            self.next_seq = sched.next_seq;
            self.events_processed = self.events_processed.saturating_add_signed(sched.credit);
            self.last = sched.current.0;
            if sched.pause {
                return RunOutcome::Paused;
            }
        }
    }

    /// Like [`Engine::run`] but stops once simulated time would exceed
    /// `deadline` (a convenience for watchdog-style callers).
    pub fn run_until<M: Model<Event = E>>(
        &mut self,
        model: &mut M,
        deadline: SimTime,
    ) -> RunOutcome {
        let saved = self.horizon;
        self.horizon = deadline.min(saved);
        let outcome = self.run(model);
        self.horizon = saved;
        outcome
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A model that counts down: event `n` schedules `n-1` after 10 ns.
    struct Countdown {
        fired: Vec<(u64, u64)>, // (time, value)
    }

    impl Model for Countdown {
        type Event = u64;
        fn handle(&mut self, now: SimTime, ev: u64, sched: &mut impl EventScheduler<u64>) {
            self.fired.push((now.nanos(), ev));
            if ev > 0 {
                sched.schedule(SimDuration::from_nanos(10), ev - 1);
            }
        }
    }

    #[test]
    fn countdown_runs_to_completion() {
        let mut engine = Engine::new(QueueKind::BinaryHeap);
        engine.seed(SimTime(5), 3u64);
        let mut model = Countdown { fired: Vec::new() };
        assert_eq!(engine.run(&mut model), RunOutcome::Drained);
        assert_eq!(model.fired, vec![(5, 3), (15, 2), (25, 1), (35, 0)]);
        assert_eq!(engine.now(), SimTime(35));
        assert_eq!(engine.events_processed(), 4);
    }

    #[test]
    fn horizon_stops_the_run() {
        let mut engine = Engine::new(QueueKind::BinaryHeap);
        engine.horizon = SimTime(20);
        engine.seed(SimTime(5), 3u64);
        let mut model = Countdown { fired: Vec::new() };
        assert_eq!(engine.run(&mut model), RunOutcome::HorizonReached);
        assert_eq!(model.fired, vec![(5, 3), (15, 2)]);
        assert_eq!(engine.pending(), 1);
        assert_eq!(engine.now(), SimTime(20));
    }

    #[test]
    fn event_budget_guards_runaway_models() {
        struct Forever;
        impl Model for Forever {
            type Event = ();
            fn handle(&mut self, _: SimTime, _: (), sched: &mut impl EventScheduler<()>) {
                sched.schedule(SimDuration::from_nanos(1), ());
            }
        }
        let mut engine = Engine::new(QueueKind::BinaryHeap);
        engine.max_events = 1000;
        engine.seed(SimTime::ZERO, ());
        assert_eq!(engine.run(&mut Forever), RunOutcome::BudgetExhausted);
        assert_eq!(engine.events_processed(), 1000);

        // Running out of issue indices is reported the same way, before
        // any seq would overflow.
        let mut engine = Engine::new(QueueKind::BinaryHeap);
        engine.seed(SimTime::ZERO, ());
        engine.next_seq = crate::order::ISSUE_LIMIT - crate::order::ISSUE_HEADROOM - 5;
        assert_eq!(engine.run(&mut Forever), RunOutcome::BudgetExhausted);
        assert_eq!(engine.events_processed(), 6);
    }

    #[test]
    fn same_instant_events_fire_in_schedule_order() {
        struct Recorder(Vec<u32>);
        impl Model for Recorder {
            type Event = u32;
            fn handle(&mut self, _: SimTime, ev: u32, sched: &mut impl EventScheduler<u32>) {
                self.0.push(ev);
                if ev == 0 {
                    // Three events at the same instant must pop FIFO.
                    sched.schedule_now(1);
                    sched.schedule_now(2);
                    sched.schedule_now(3);
                }
            }
        }
        let mut engine = Engine::new(QueueKind::BinaryHeap);
        engine.seed(SimTime::ZERO, 0u32);
        let mut m = Recorder(Vec::new());
        engine.run(&mut m);
        assert_eq!(m.0, vec![0, 1, 2, 3]);
    }

    #[test]
    fn run_until_respects_deadline_and_restores_horizon() {
        let mut engine = Engine::new(QueueKind::BinaryHeap);
        engine.seed(SimTime(5), 3u64);
        let mut model = Countdown { fired: Vec::new() };
        assert_eq!(
            engine.run_until(&mut model, SimTime(20)),
            RunOutcome::HorizonReached
        );
        assert_eq!(engine.now(), SimTime(20));
        assert_eq!(engine.horizon, SimTime::MAX, "horizon must be restored");
        // Resuming finishes the countdown.
        assert_eq!(engine.run(&mut model), RunOutcome::Drained);
        assert_eq!(model.fired.len(), 4);
    }

    #[test]
    fn pending_and_counters_track_queue_state() {
        let mut engine: Engine<u64> = Engine::new(QueueKind::BinaryHeap);
        assert_eq!(engine.pending(), 0);
        engine.seed(SimTime(1), 1);
        engine.seed(SimTime(2), 2);
        assert_eq!(engine.pending(), 2);
        assert_eq!(engine.events_processed(), 0);
    }

    #[test]
    #[should_panic(expected = "cannot seed into the past")]
    fn seeding_into_the_past_panics() {
        let mut engine = Engine::new(QueueKind::BinaryHeap);
        engine.seed(SimTime(10), 0u64);
        let mut model = Countdown { fired: Vec::new() };
        engine.run(&mut model);
        engine.seed(SimTime(5), 1u64);
    }

    #[test]
    #[should_panic(expected = "cannot schedule into the past")]
    fn scheduling_into_the_past_panics() {
        struct Bad;
        impl Model for Bad {
            type Event = ();
            fn handle(&mut self, now: SimTime, _: (), sched: &mut impl EventScheduler<()>) {
                sched.schedule_at(SimTime(now.nanos() - 1), ());
            }
        }
        let mut engine = Engine::new(QueueKind::BinaryHeap);
        engine.seed(SimTime(10), ());
        engine.run(&mut Bad);
    }
}
