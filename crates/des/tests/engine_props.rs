//! The engine's scheduling contract, checked against a naive reference.
//!
//! Random interleavings of `schedule`, `schedule_now`, `schedule_timer`
//! and `cancel_timer` are driven through [`Engine`] one event at a time
//! and mirrored on a sorted list of `(time, seq)` entries. After every
//! event the fire order, every `cancel_timer` return value, `timer_count()`
//! and `pending()` must agree with the reference. A second script adds the
//! ordered lanes' inputs (`schedule_ordered` and seeds, in order and out
//! of order) with horizon stops and scheduling between runs. Explicit
//! cases below pin the lazy-cancellation corners: a stale handle whose
//! slot now holds a newer timer, cancel-after-fire, cancelled timers near
//! the horizon, and the merge order of the at-now bypass against the heap.
//!
//! Seeded [`DetRng`] loops; each case derives its own substream, so a
//! failure's case index is enough to replay it exactly.

use parsched_des::prelude::*;
use parsched_des::rng::DetRng;

/// The naive pending-event set: every live event, searched linearly.
#[derive(Default)]
struct Reference {
    /// `(time, seq, id, is_timer)` of every pending event.
    pending: Vec<(u64, u64, u64, bool)>,
    next_seq: u64,
}

impl Reference {
    fn push(&mut self, time: u64, id: u64, timer: bool) {
        self.pending.push((time, self.next_seq, id, timer));
        self.next_seq += 1;
    }

    /// Remove and return the `(time, id)` of the earliest event.
    fn pop(&mut self) -> Option<(u64, u64)> {
        let (i, _) = self
            .pending
            .iter()
            .enumerate()
            .min_by_key(|(_, &(t, s, _, _))| (t, s))?;
        let (t, _, id, _) = self.pending.swap_remove(i);
        Some((t, id))
    }

    /// Cancel the pending timer `id`; `false` if it is not pending.
    fn cancel(&mut self, id: u64) -> bool {
        match self.pending.iter().position(|e| e.2 == id && e.3) {
            Some(i) => {
                self.pending.swap_remove(i);
                true
            }
            None => false,
        }
    }

    fn timers(&self) -> usize {
        self.pending.iter().filter(|e| e.3).count()
    }
}

/// A model that, on every event, checks it against the reference and then
/// issues a random burst of scheduling calls, mirroring each one.
struct Script {
    rng: DetRng,
    reference: Reference,
    /// Every timer handle ever issued, with its event id.
    handles: Vec<(TimerHandle, u64)>,
    next_id: u64,
    /// Events still allowed to schedule more (bounds the run).
    budget: u32,
    case: u64,
}

impl Script {
    fn delay(&mut self) -> u64 {
        // Zero, a handful of near-ties, and a wide spread.
        match self.rng.uniform_u64(0, 4) {
            0 => 0,
            1 => self.rng.uniform_u64(1, 4),
            _ => self.rng.uniform_u64(1, 1_000),
        }
    }

    fn fresh_id(&mut self) -> u64 {
        self.next_id += 1;
        self.next_id
    }
}

impl Model for Script {
    type Event = u64;

    fn handle(&mut self, now: SimTime, id: u64, sched: &mut impl EventScheduler<u64>) {
        let case = self.case;
        let want = self.reference.pop();
        assert_eq!(Some((now.nanos(), id)), want, "case {case}: fire order");
        assert_eq!(sched.timer_count(), self.reference.timers(), "case {case}");
        if self.budget == 0 {
            return;
        }
        self.budget -= 1;
        for _ in 0..self.rng.uniform_u64(0, 5) {
            match self.rng.uniform_u64(0, 8) {
                0 | 1 => {
                    let (d, id) = (self.delay(), self.fresh_id());
                    sched.schedule(SimDuration::from_nanos(d), id);
                    self.reference.push(now.nanos() + d, id, false);
                }
                2 => {
                    let id = self.fresh_id();
                    sched.schedule_now(id);
                    self.reference.push(now.nanos(), id, false);
                }
                3..=5 => {
                    let (d, id) = (self.delay(), self.fresh_id());
                    let h = sched.schedule_timer(SimDuration::from_nanos(d), id);
                    self.reference.push(now.nanos() + d, id, true);
                    self.handles.push((h, id));
                }
                _ => {
                    if self.handles.is_empty() {
                        continue;
                    }
                    // Any handle ever issued: live, fired or cancelled.
                    let k = self.rng.uniform_u64(0, self.handles.len() as u64) as usize;
                    let (h, id) = self.handles[k];
                    let got = sched.cancel_timer(h);
                    assert_eq!(
                        got,
                        self.reference.cancel(id),
                        "case {case}: cancel of {id}"
                    );
                }
            }
            assert_eq!(sched.timer_count(), self.reference.timers(), "case {case}");
        }
    }
}

#[test]
fn random_interleavings_match_the_reference() {
    let root = DetRng::new(0xE5C);
    for case in 0..200u64 {
        let mut rng = root.substream_idx("engine-vs-reference", case);
        let budget = rng.uniform_u64(1, 300) as u32;
        let mut model = Script {
            rng,
            reference: Reference::default(),
            handles: Vec::new(),
            next_id: 0,
            budget,
            case,
        };
        let mut engine = Engine::new(QueueKind::BinaryHeap);
        for _ in 0..model.rng.uniform_u64(1, 4) {
            let (t, id) = (model.rng.uniform_u64(0, 50), model.fresh_id());
            engine.seed(SimTime(t), id);
            model.reference.push(t, id, false);
        }
        // One event per `run` call, so `pending()` is compared after every
        // event (`timer_count()` is compared inside every handler call).
        loop {
            engine.max_events = engine.events_processed() + 1;
            let outcome = engine.run(&mut model);
            assert_eq!(
                engine.pending(),
                model.reference.pending.len(),
                "case {case}"
            );
            if outcome == RunOutcome::Drained {
                break;
            }
            assert_eq!(outcome, RunOutcome::BudgetExhausted, "case {case}");
        }
        assert!(model.reference.pending.is_empty(), "case {case}");
    }
}

/// Random calls that feed the engine's ordered lanes, beside plain,
/// at-now and timer events and cancels. The ordered calls mostly keep
/// their promise (each at or after the previous one's instant) and
/// sometimes break it; the engine must fire both exactly where the
/// reference puts them.
struct LaneScript {
    rng: DetRng,
    reference: Reference,
    handles: Vec<(TimerHandle, u64)>,
    next_id: u64,
    /// Events still allowed to schedule more (bounds the run).
    budget: u32,
    /// Instant of the latest `schedule_ordered` call.
    ordered_at: u64,
    case: u64,
}

impl LaneScript {
    fn fresh_id(&mut self) -> u64 {
        self.next_id += 1;
        self.next_id
    }

    /// The next instant of an ordered stream that starts no earlier than
    /// `floor`: usually at or after `last`, one time in four anywhere
    /// from `floor` on.
    fn stream_time(&mut self, floor: u64, last: u64) -> u64 {
        match self.rng.uniform_u64(0, 4) {
            0 => floor + self.rng.uniform_u64(0, 400),
            1 => floor.max(last),
            _ => floor.max(last) + self.rng.uniform_u64(1, 60),
        }
    }

    /// A random burst of scheduling calls at `now`, mirrored on the
    /// reference, then a check of `timer_count()` and `next_pending()`.
    fn burst(&mut self, now: u64, sched: &mut impl EventScheduler<u64>) {
        let case = self.case;
        for _ in 0..self.rng.uniform_u64(0, 6) {
            match self.rng.uniform_u64(0, 10) {
                0 => {
                    let (t, id) = (now + self.rng.uniform_u64(0, 300), self.fresh_id());
                    sched.schedule_at(SimTime(t), id);
                    self.reference.push(t, id, false);
                }
                1 => {
                    let id = self.fresh_id();
                    sched.schedule_now(id);
                    self.reference.push(now, id, false);
                }
                2..=5 => {
                    let t = self.stream_time(now, self.ordered_at);
                    self.ordered_at = self.ordered_at.max(t);
                    let id = self.fresh_id();
                    sched.schedule_ordered(SimTime(t), id);
                    self.reference.push(t, id, false);
                }
                6 | 7 => {
                    let (t, id) = (now + self.rng.uniform_u64(0, 300), self.fresh_id());
                    let h = sched.schedule_timer_at(SimTime(t), id);
                    self.reference.push(t, id, true);
                    self.handles.push((h, id));
                }
                _ => {
                    if self.handles.is_empty() {
                        continue;
                    }
                    let k = self.rng.uniform_u64(0, self.handles.len() as u64) as usize;
                    let (h, id) = self.handles[k];
                    assert_eq!(
                        sched.cancel_timer(h),
                        self.reference.cancel(id),
                        "case {case}: cancel of {id}"
                    );
                }
            }
            assert_eq!(sched.timer_count(), self.reference.timers(), "case {case}");
        }
        let next = self
            .reference
            .pending
            .iter()
            .map(|&(t, seq, _, _)| Key::real(SimTime(t), seq))
            .min();
        assert_eq!(sched.next_pending(), next, "case {case}: next pending");
    }
}

impl Model for LaneScript {
    type Event = u64;

    fn handle(&mut self, now: SimTime, id: u64, sched: &mut impl EventScheduler<u64>) {
        let case = self.case;
        let want = self.reference.pop();
        assert_eq!(Some((now.nanos(), id)), want, "case {case}: fire order");
        assert_eq!(sched.timer_count(), self.reference.timers(), "case {case}");
        if self.budget > 0 {
            self.budget -= 1;
            self.burst(now.nanos(), sched);
        }
    }
}

#[test]
fn ordered_lanes_match_the_reference() {
    let root = DetRng::new(0x1A7E);
    for case in 0..300u64 {
        let mut rng = root.substream_idx("lanes-vs-reference", case);
        let budget = rng.uniform_u64(1, 250) as u32;
        let mut model = LaneScript {
            rng,
            reference: Reference::default(),
            handles: Vec::new(),
            next_id: 0,
            budget,
            ordered_at: 0,
            case,
        };
        let mut engine = Engine::new(QueueKind::BinaryHeap);
        let mut seeded_at = 0;
        for round in 0..model.rng.uniform_u64(1, 12) {
            // Seeds, in order and out of order, from the engine's instant.
            let now = engine.now().nanos();
            for _ in 0..model.rng.uniform_u64(0, 8) {
                let t = model.stream_time(now, seeded_at);
                seeded_at = seeded_at.max(t);
                let id = model.fresh_id();
                engine.seed(SimTime(t), id);
                model.reference.push(t, id, false);
            }
            if round > 0 && model.rng.uniform_u64(0, 2) == 0 {
                engine.between_runs(|sched| model.burst(now, sched));
            }
            // A few events one at a time (so `pending()` is compared after
            // each), then on to a horizon.
            for _ in 0..model.rng.uniform_u64(0, 20) {
                engine.max_events = engine.events_processed() + 1;
                let outcome = engine.run(&mut model);
                assert_eq!(engine.pending(), model.reference.pending.len(), "case {case}");
                if outcome == RunOutcome::Drained {
                    break;
                }
            }
            engine.max_events = u64::MAX;
            engine.horizon = SimTime(engine.now().nanos() + model.rng.uniform_u64(0, 500));
            let outcome = engine.run(&mut model);
            assert_ne!(outcome, RunOutcome::BudgetExhausted, "case {case}");
            assert_eq!(engine.pending(), model.reference.pending.len(), "case {case}");
            engine.horizon = SimTime::MAX;
        }
        assert_eq!(engine.run(&mut model), RunOutcome::Drained, "case {case}");
        assert!(model.reference.pending.is_empty(), "case {case}");
    }
}

/// Fires a batch of timers set at event `u64::MAX` and records the order
/// in which they come back.
struct TimerBatch {
    at: Vec<u64>,
    fired: Vec<u64>,
}

impl Model for TimerBatch {
    type Event = u64;
    fn handle(&mut self, now: SimTime, ev: u64, sched: &mut impl EventScheduler<u64>) {
        if ev == u64::MAX {
            for &t in &self.at {
                sched.schedule_timer_at(SimTime(t), t);
            }
        } else {
            assert_eq!(now.nanos(), ev, "timer fired at the wrong instant");
            self.fired.push(ev);
        }
    }
}

#[test]
fn timers_fire_in_time_order_across_wide_spans() {
    // Nanoseconds next to hours: nothing about the heap depends on the
    // spread of firing times.
    let at = vec![
        (1 << 45) + 3,
        (1 << 36) + 9,
        (1 << 36) - 9,
        7,
        (1 << 28) - 1,
        1 << 28,
    ];
    let mut model = TimerBatch {
        at: at.clone(),
        fired: Vec::new(),
    };
    let mut engine = Engine::new(QueueKind::BinaryHeap);
    engine.seed(SimTime::ZERO, u64::MAX);
    assert_eq!(engine.run(&mut model), RunOutcome::Drained);
    let mut sorted = at;
    sorted.sort_unstable();
    assert_eq!(model.fired, sorted);
}

#[test]
fn stale_handles_stay_dead_when_their_slot_is_reused() {
    // A cancelled or fired timer's slot goes to the next timer. The old
    // handle must then cancel nothing, and the newer timer must still fire.
    #[derive(Default)]
    struct Reuse {
        cancelled: Option<TimerHandle>,
        fired_early: Option<TimerHandle>,
        fired: Vec<(u64, u64)>,
        stale_results: Vec<bool>,
    }
    impl Model for Reuse {
        type Event = u64;
        fn handle(&mut self, now: SimTime, ev: u64, sched: &mut impl EventScheduler<u64>) {
            self.fired.push((now.nanos(), ev));
            match ev {
                0 => {
                    let doomed = sched.schedule_timer_at(SimTime(1000), 1);
                    assert!(sched.cancel_timer(doomed), "a live timer cancels");
                    self.cancelled = Some(doomed);
                    // Takes the slot the cancelled timer just freed.
                    sched.schedule_timer_at(SimTime(2000), 2);
                    self.stale_results.push(sched.cancel_timer(doomed));
                    assert_eq!(sched.timer_count(), 1, "the new tenant is untouched");
                    self.fired_early = Some(sched.schedule_timer_at(SimTime(1500), 3));
                    sched.schedule_at(SimTime(3000), 4);
                }
                3 => {
                    // Timer 3 fired; timer 5 takes its slot.
                    sched.schedule_timer_at(SimTime(2500), 5);
                    self.stale_results
                        .push(sched.cancel_timer(self.fired_early.unwrap()));
                    assert_eq!(sched.timer_count(), 2, "timers 2 and 5");
                }
                4 => {
                    self.stale_results
                        .push(sched.cancel_timer(self.cancelled.unwrap()));
                    self.stale_results
                        .push(sched.cancel_timer(self.fired_early.unwrap()));
                    assert_eq!(sched.timer_count(), 0);
                }
                _ => {}
            }
        }
    }
    let mut model = Reuse::default();
    let mut engine = Engine::new(QueueKind::BinaryHeap);
    engine.seed(SimTime::ZERO, 0);
    assert_eq!(engine.run(&mut model), RunOutcome::Drained);
    assert_eq!(model.stale_results, vec![false; 4]);
    assert_eq!(
        model.fired,
        vec![(0, 0), (1500, 3), (2000, 2), (2500, 5), (3000, 4)]
    );
    assert_eq!(
        engine.events_processed(),
        5,
        "the cancelled timer never counts"
    );
}

#[test]
fn cancel_after_fire_is_a_no_op() {
    #[derive(Default)]
    struct Late {
        timer: Option<TimerHandle>,
        results: Vec<bool>,
    }
    impl Model for Late {
        type Event = u64;
        fn handle(&mut self, _: SimTime, ev: u64, sched: &mut impl EventScheduler<u64>) {
            match ev {
                0 => {
                    self.timer = Some(sched.schedule_timer(SimDuration::from_nanos(10), 1));
                    sched.schedule(SimDuration::from_nanos(20), 2);
                }
                1 => assert_eq!(sched.timer_count(), 0, "a fired timer is not pending"),
                _ => {
                    let h = self.timer.unwrap();
                    self.results.push(sched.cancel_timer(h));
                    self.results.push(sched.cancel_timer(h));
                    // A handle from a key-only engine names no timer here.
                    self.results
                        .push(sched.cancel_timer(TimerHandle::external(h.key())));
                }
            }
        }
    }
    let mut model = Late::default();
    let mut engine = Engine::new(QueueKind::BinaryHeap);
    engine.seed(SimTime::ZERO, 0);
    assert_eq!(engine.run(&mut model), RunOutcome::Drained);
    assert_eq!(model.results, vec![false, false, false]);
    assert_eq!(engine.events_processed(), 3);
}

#[test]
fn cancelled_timers_are_invisible_to_horizon_pending_and_counts() {
    // A cancelled timer still sits in the heap, ahead of the horizon; the
    // run must neither fire nor count it, and `pending()` must not see it.
    struct Guard;
    impl Model for Guard {
        type Event = u64;
        fn handle(&mut self, _: SimTime, ev: u64, sched: &mut impl EventScheduler<u64>) {
            assert_eq!(ev, 0, "only the seed may fire before the horizon");
            let guard = sched.schedule_timer(SimDuration::from_nanos(10), 1);
            sched.schedule(SimDuration::from_nanos(30), 2);
            assert!(sched.cancel_timer(guard));
            assert_eq!(sched.timer_count(), 0);
        }
    }
    let mut engine = Engine::new(QueueKind::BinaryHeap);
    engine.horizon = SimTime(20);
    engine.seed(SimTime::ZERO, 0);
    assert_eq!(engine.run(&mut Guard), RunOutcome::HorizonReached);
    assert_eq!(engine.events_processed(), 1);
    assert_eq!(engine.pending(), 1);
    let next = engine.between_runs(|sched| sched.next_pending());
    assert_eq!(next.map(|key| key.time()), Some(SimTime(30)));
}

#[test]
fn schedule_at_now_merges_in_seq_order_with_the_heap() {
    // At one instant, events sit in both tiers: the now-queue
    // (schedule_at(now) bypass) and the heap (schedule_timer_at(now), and
    // a previously seeded event at the same time). Delivery must follow
    // creation (seq) order exactly.
    struct Mixer {
        order: Vec<u64>,
    }
    impl Model for Mixer {
        type Event = u64;
        fn handle(&mut self, now: SimTime, ev: u64, sched: &mut impl EventScheduler<u64>) {
            self.order.push(ev);
            if ev == 0 {
                assert_eq!(now, SimTime(100));
                sched.schedule_at(SimTime(100), 10); // now-queue, seq 2
                sched.schedule_timer_at(SimTime(100), 11); // heap, seq 3
                sched.schedule_at(SimTime(100), 12); // now-queue, seq 4
                sched.schedule_at(SimTime(200), 13); // heap, seq 5
            }
        }
    }
    let mut model = Mixer { order: Vec::new() };
    let mut engine = Engine::new(QueueKind::BinaryHeap);
    engine.seed(SimTime(100), 0); // seq 0
    engine.seed(SimTime(100), 1); // seq 1: heap event at the same time
    assert_eq!(engine.run(&mut model), RunOutcome::Drained);
    // Seq order at t=100: the seeded 1 (seq 1) precedes the bypassed 10
    // (seq 2) even though the now-queue is the cheaper tier to peek.
    assert_eq!(model.order, vec![0, 1, 10, 11, 12, 13]);
}

#[test]
fn zero_delay_schedule_is_the_now_queue_bypass() {
    // schedule(0, ..) and schedule_now(..) route through schedule_at(now)
    // and must behave identically to it: same-time FIFO.
    struct Zero {
        order: Vec<u64>,
    }
    impl Model for Zero {
        type Event = u64;
        fn handle(&mut self, _now: SimTime, ev: u64, sched: &mut impl EventScheduler<u64>) {
            self.order.push(ev);
            if ev == 0 {
                sched.schedule_now(1);
                sched.schedule(SimDuration::ZERO, 2);
                sched.schedule_now(3);
            }
        }
    }
    let mut model = Zero { order: Vec::new() };
    let mut engine = Engine::new(QueueKind::BinaryHeap);
    engine.seed(SimTime(50), 0);
    assert_eq!(engine.run(&mut model), RunOutcome::Drained);
    assert_eq!(model.order, vec![0, 1, 2, 3]);
    assert_eq!(
        engine.now(),
        SimTime(50),
        "zero-delay events do not advance time"
    );
}

// ---------------------------------------------------------------------
// Ordering primitives: cursor, explicit (virtual) keys, the pass log.
// ---------------------------------------------------------------------

/// The naive keyed pending set: `(key, id, is_timer)`, searched linearly,
/// with real keys issued by a plain counter.
#[derive(Default)]
struct KeyedReference {
    pending: Vec<(Key, u64, bool)>,
    issued: u64,
    /// Every handled event's key with the count issued before it.
    handled: Vec<(Key, u64)>,
}

impl KeyedReference {
    fn push_real(&mut self, time: u64, id: u64, timer: bool) {
        self.pending.push((Key::real(SimTime(time), self.issued), id, timer));
        self.issued += 1;
    }

    fn pop(&mut self) -> Option<(Key, u64)> {
        let (i, _) = self.pending.iter().enumerate().min_by_key(|(_, e)| e.0)?;
        let (key, id, _) = self.pending.swap_remove(i);
        self.handled.push((key, self.issued));
        Some((key, id))
    }

    fn cancel(&mut self, id: u64) -> bool {
        match self.pending.iter().position(|e| e.1 == id && e.2) {
            Some(i) => {
                self.pending.swap_remove(i);
                true
            }
            None => false,
        }
    }

    /// Brute force: the count issued before the first handled key after
    /// `key`, or the count so far.
    fn issued_passing(&self, key: Key) -> u64 {
        self.handled
            .iter()
            .find(|&&(k, _)| k > key)
            .map_or(self.issued, |&(_, n)| n)
    }
}

/// Random schedule, cancel and explicit-key calls, checked after every
/// event against [`KeyedReference`]: fire order and keys, the cursor,
/// cancel results, and `issued_passing` for keys around every handled
/// instant.
struct KeyedScript {
    rng: DetRng,
    reference: KeyedReference,
    handles: Vec<(TimerHandle, u64)>,
    next_id: u64,
    budget: u32,
    lane: u32,
    case: u64,
}

impl KeyedScript {
    fn fresh_id(&mut self) -> u64 {
        self.next_id += 1;
        self.next_id
    }

    /// A past or present instant the log covers, or a nearby future one.
    fn probe(&mut self, now: u64) -> Key {
        let t = SimTime(self.rng.uniform_u64(0, now + 3));
        match self.rng.uniform_u64(0, 4) {
            0 => Key::first_at(t),
            1 => Key::last_at(t),
            2 => Key::virtual_at(t, self.rng.uniform_u64(0, self.reference.issued + 1), 0),
            _ => match self.reference.handled.len() {
                0 => Key::first_at(t),
                n => self.reference.handled[self.rng.uniform_u64(0, n as u64) as usize].0,
            },
        }
    }
}

impl Model for KeyedScript {
    type Event = u64;

    fn handle(&mut self, now: SimTime, id: u64, sched: &mut impl EventScheduler<u64>) {
        let case = self.case;
        let (key, want) = self.reference.pop().expect("reference has the event");
        assert_eq!(id, want, "case {case}: fire order");
        let cursor = sched.cursor();
        assert_eq!(cursor.key, key, "case {case}: cursor key");
        assert_eq!(cursor.issued, self.reference.issued, "case {case}: issued");
        if self.reference.handled.len() == 1 {
            sched.keep_log_from(Some(SimTime::ZERO));
        }
        for _ in 0..4 {
            let probe = self.probe(now.nanos());
            assert_eq!(
                sched.issued_passing(probe),
                self.reference.issued_passing(probe),
                "case {case}: issued when passing {probe:?}"
            );
        }
        if self.budget == 0 {
            return;
        }
        self.budget -= 1;
        for _ in 0..self.rng.uniform_u64(0, 5) {
            let d = match self.rng.uniform_u64(0, 3) {
                0 => 0,
                _ => self.rng.uniform_u64(0, 6),
            };
            let at = now.nanos() + d;
            match self.rng.uniform_u64(0, 8) {
                0 | 1 => {
                    let id = self.fresh_id();
                    sched.schedule_at(SimTime(at), id);
                    self.reference.push_real(at, id, false);
                }
                2 | 3 => {
                    let id = self.fresh_id();
                    let h = sched.schedule_timer_at(SimTime(at), id);
                    self.reference.push_real(at, id, true);
                    self.handles.push((h, id));
                }
                4 | 5 => {
                    // A virtual key in any gap, strictly after this event.
                    let gap = self.rng.uniform_u64(0, self.reference.issued + 1);
                    self.lane += 1;
                    let k = Key::virtual_at(SimTime(at), gap, self.lane);
                    if k <= key {
                        continue;
                    }
                    let id = self.fresh_id();
                    let h = sched.schedule_timer_at_key(k, id);
                    self.reference.pending.push((k, id, true));
                    self.handles.push((h, id));
                }
                _ => {
                    if self.handles.is_empty() {
                        continue;
                    }
                    let k = self.rng.uniform_u64(0, self.handles.len() as u64) as usize;
                    let (h, id) = self.handles[k];
                    assert_eq!(
                        sched.cancel_timer(h),
                        self.reference.cancel(id),
                        "case {case}: cancel of {id}"
                    );
                }
            }
        }
        let next = self.reference.pending.iter().map(|e| e.0).min();
        assert_eq!(sched.next_pending(), next, "case {case}: next pending");
    }
}

#[test]
fn explicit_keys_and_the_pass_log_match_the_reference() {
    let root = DetRng::new(0x0DE5);
    for case in 0..200u64 {
        let mut rng = root.substream_idx("keyed-vs-reference", case);
        let budget = rng.uniform_u64(1, 200) as u32;
        let mut model = KeyedScript {
            rng,
            reference: KeyedReference::default(),
            handles: Vec::new(),
            next_id: 0,
            budget,
            lane: 0,
            case,
        };
        let mut engine = Engine::new(QueueKind::BinaryHeap);
        for _ in 0..model.rng.uniform_u64(1, 4) {
            let (t, id) = (model.rng.uniform_u64(0, 20), model.fresh_id());
            engine.seed(SimTime(t), id);
            model.reference.push_real(t, id, false);
        }
        assert_eq!(engine.run(&mut model), RunOutcome::Drained, "case {case}");
        assert!(model.reference.pending.is_empty(), "case {case}");
    }
}

/// Schedules a fixed pseudo-random web of real events, and optionally a
/// virtual-key timer beside each one; records the real events' order.
struct Web {
    rng: DetRng,
    budget: u32,
    virtuals: bool,
    lane: u32,
    next_id: u64,
    fired: Vec<(u64, u64)>,
}

impl Model for Web {
    type Event = (u64, bool);

    fn handle(
        &mut self,
        now: SimTime,
        (id, virt): (u64, bool),
        sched: &mut impl EventScheduler<(u64, bool)>,
    ) {
        if virt {
            return;
        }
        self.fired.push((now.nanos(), id));
        if self.budget == 0 {
            return;
        }
        self.budget -= 1;
        // The real calls draw from the rng identically in both modes.
        for _ in 0..self.rng.uniform_u64(0, 4) {
            let at = now + SimDuration::from_nanos(self.rng.uniform_u64(0, 3));
            let gap = self.rng.uniform_u64(0, 1 + sched.cursor().issued);
            self.next_id += 1;
            sched.schedule_at(at, (self.next_id, false));
            if self.virtuals {
                self.lane += 1;
                let v = Key::virtual_at(at, gap, self.lane);
                if v > sched.cursor().key {
                    sched.schedule_timer_at_key(v, (0, true));
                }
            }
        }
    }
}

#[test]
fn virtual_keys_leave_the_real_order_unchanged() {
    let root = DetRng::new(0x5EA1);
    for case in 0..100u64 {
        let fired = |virtuals| {
            let mut model = Web {
                rng: root.substream_idx("web", case),
                budget: 150,
                virtuals,
                lane: 0,
                next_id: 2,
                fired: Vec::new(),
            };
            let mut engine = Engine::new(QueueKind::BinaryHeap);
            engine.seed(SimTime(0), (1, false));
            engine.seed(SimTime(0), (2, false));
            assert_eq!(engine.run(&mut model), RunOutcome::Drained);
            model.fired
        };
        assert_eq!(fired(false), fired(true), "case {case}");
    }
}
