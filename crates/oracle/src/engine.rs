//! The naive reference engine.
//!
//! [`OracleEngine`] is the simplest event loop that can honor the
//! [`EventScheduler`] contract: one `std::collections::BinaryHeap` ordered
//! by the packed `(time, seq)` key, nothing else. No now-queue bypass, no
//! hand-rolled 4-ary heap, no timer slot slab — every optimization in
//! `parsched-des` is deliberately absent, so any divergence between the
//! two engines on the same model is a bug in one of them (and the smart
//! money is on the optimized one).
//!
//! The only subtlety is cancellation. Neither engine can remove from the
//! middle of a heap, so both cancel lazily, by different means: the
//! optimized engine frees the timer's slab slot and recognises the corpse
//! by a seq mismatch; the oracle keeps plain sets of live and cancelled
//! keys and discards matching corpses at peek time — before the horizon
//! check and before anything is counted. A cancelled timer therefore never
//! fires, never counts toward `events_processed` and never shows in
//! `pending()`, in either engine.
//!
//! The ordering primitives a model uses to replay skipped events (the
//! cursor, the handled-event log, timers at explicit keys) are implemented
//! here from scratch too: the log is a plain vector scanned from its end,
//! and an explicit-key timer is one more heap entry.

use parsched_des::order::issue_space_spent;
use parsched_des::{
    Cursor, EventScheduler, EventSeeder, Key, Model, RunOutcome, SimTime, TimerHandle,
};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashSet};

/// A pending event: the packed `(time, seq)` key plus the payload. Ordered
/// by key alone (keys are unique — `seq` never repeats).
struct Entry<E> {
    key: u128,
    event: E,
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.key == other.key
    }
}
impl<E> Eq for Entry<E> {}
impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.key.cmp(&other.key)
    }
}

/// The key of the `index`-th issued event.
#[inline]
fn pack(time: SimTime, index: u64) -> u128 {
    Key::real(time, index).0
}

/// Handled events `(key, issued before it)`, and the instant they are kept
/// from (`None` = not logging).
struct Log {
    entries: Vec<(u128, u64)>,
    floor: Option<SimTime>,
}

/// The reference engine: a flat min-heap and a simulation clock.
///
/// API mirrors [`parsched_des::Engine`] (`seed` / `run` / `run_until` /
/// `pending` / `events_processed` / public `horizon` and `max_events`), so
/// harness code can drive either engine through the same motions.
pub struct OracleEngine<E> {
    heap: BinaryHeap<Reverse<Entry<E>>>,
    /// Keys of cancelled timers whose corpses are still in the heap.
    cancelled: HashSet<u128>,
    /// Keys of pending (live) timers, for `cancel`'s return value and
    /// `timer_count`.
    timers: HashSet<u128>,
    now: SimTime,
    next_seq: u64,
    events_processed: u64,
    last: u128,
    log: Log,
    /// Stop processing events scheduled after this instant.
    pub horizon: SimTime,
    /// Abort after this many events.
    pub max_events: u64,
}

impl<E> Default for OracleEngine<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> OracleEngine<E> {
    /// A fresh engine at time zero.
    pub fn new() -> Self {
        OracleEngine {
            heap: BinaryHeap::new(),
            cancelled: HashSet::new(),
            timers: HashSet::new(),
            now: SimTime::ZERO,
            next_seq: 0,
            events_processed: 0,
            last: 0,
            log: Log {
                entries: Vec::new(),
                floor: None,
            },
            horizon: SimTime::MAX,
            max_events: u64::MAX,
        }
    }

    /// The current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Total events processed so far (cancelled timers never count, same
    /// as in the optimized engine).
    pub fn events_processed(&self) -> u64 {
        self.events_processed
    }

    /// Number of pending live events (tombstoned corpses excluded).
    pub fn pending(&self) -> usize {
        self.heap.len() - self.cancelled.len()
    }

    /// Discard cancelled corpses sitting at the heap head so the next peek
    /// or pop sees a live event.
    fn purge_cancelled_head(&mut self) {
        while let Some(Reverse(head)) = self.heap.peek() {
            if self.cancelled.remove(&head.key) {
                self.heap.pop();
            } else {
                break;
            }
        }
    }

    /// Drive `model` until the queue drains, the horizon passes, or the
    /// event budget runs out. Semantics identical to
    /// [`parsched_des::Engine::run`].
    pub fn run<M: Model<Event = E>>(&mut self, model: &mut M) -> RunOutcome {
        let outcome = self.run_loop(model);
        let at = match outcome {
            RunOutcome::Drained | RunOutcome::HorizonReached => Key::last_at(self.now).0,
            RunOutcome::BudgetExhausted | RunOutcome::Paused => self.last,
        };
        let mut sched = OracleScheduler {
            now: self.now,
            next_seq: self.next_seq,
            current: at,
            issued_before: self.next_seq,
            heap: &mut self.heap,
            cancelled: &mut self.cancelled,
            timers: &mut self.timers,
            log: &mut self.log,
            processed: &mut self.events_processed,
        };
        model.run_ended(&mut sched);
        self.next_seq = sched.next_seq;
        outcome
    }

    fn run_loop<M: Model<Event = E>>(&mut self, model: &mut M) -> RunOutcome {
        loop {
            if self.events_processed >= self.max_events || issue_space_spent(self.next_seq) {
                return RunOutcome::BudgetExhausted;
            }
            self.purge_cancelled_head();
            let Some(Reverse(head)) = self.heap.peek() else {
                return RunOutcome::Drained;
            };
            let time = SimTime((head.key >> 64) as u64);
            if time > self.horizon {
                self.now = self.horizon;
                return RunOutcome::HorizonReached;
            }
            let Reverse(entry) = self.heap.pop().expect("peeked the head");
            self.timers.remove(&entry.key);
            debug_assert!(time >= self.now, "event queue returned the past");
            self.now = time;
            self.events_processed += 1;
            if self.log.floor.is_some() {
                self.log.entries.push((entry.key, self.next_seq));
            }

            let mut sched = OracleScheduler {
                now: self.now,
                next_seq: self.next_seq,
                current: entry.key,
                issued_before: self.next_seq,
                heap: &mut self.heap,
                cancelled: &mut self.cancelled,
                timers: &mut self.timers,
                log: &mut self.log,
                processed: &mut self.events_processed,
            };
            model.handle(self.now, entry.event, &mut sched);
            self.next_seq = sched.next_seq;
            self.last = sched.current;
        }
    }

    /// Like [`run`](Self::run) but stops once simulated time would exceed
    /// `deadline`.
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

impl<E> EventSeeder<E> for OracleEngine<E> {
    fn seed(&mut self, time: SimTime, event: E) {
        assert!(time >= self.now, "cannot seed into the past");
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Reverse(Entry {
            key: pack(time, seq),
            event,
        }));
    }
}

/// The scheduling handle the oracle passes to `Model::handle`. Allocates
/// sequence numbers exactly like the optimized engine's scheduler — one
/// per call, across plain events and timers alike — so both engines hand
/// identical `(time, seq)` keys to identical scheduling histories.
struct OracleScheduler<'h, E> {
    now: SimTime,
    next_seq: u64,
    current: u128,
    issued_before: u64,
    heap: &'h mut BinaryHeap<Reverse<Entry<E>>>,
    cancelled: &'h mut HashSet<u128>,
    timers: &'h mut HashSet<u128>,
    log: &'h mut Log,
    processed: &'h mut u64,
}

impl<E> EventScheduler<E> for OracleScheduler<'_, E> {
    fn now(&self) -> SimTime {
        self.now
    }

    fn schedule_at(&mut self, time: SimTime, event: E) {
        assert!(
            time >= self.now,
            "cannot schedule into the past: {time} < {now}",
            now = self.now
        );
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Reverse(Entry {
            key: pack(time, seq),
            event,
        }));
    }

    fn schedule_timer_at(&mut self, time: SimTime, event: E) -> TimerHandle {
        assert!(
            time >= self.now,
            "cannot schedule into the past: {time} < {now}",
            now = self.now
        );
        let seq = self.next_seq;
        self.next_seq += 1;
        let key = pack(time, seq);
        self.heap.push(Reverse(Entry { key, event }));
        self.timers.insert(key);
        TimerHandle::external(key)
    }

    fn cancel_timer(&mut self, handle: TimerHandle) -> bool {
        let key = handle.key();
        if self.timers.remove(&key) {
            self.cancelled.insert(key);
            true
        } else {
            false
        }
    }

    fn timer_count(&self) -> usize {
        self.timers.len()
    }

    fn cursor(&self) -> Cursor {
        Cursor {
            key: Key(self.current),
            issued: self.next_seq,
        }
    }

    fn next_pending(&mut self) -> Option<Key> {
        // Drop cancelled corpses from the head, then read it.
        while let Some(Reverse(head)) = self.heap.peek() {
            if self.cancelled.remove(&head.key) {
                self.heap.pop();
            } else {
                return Some(Key(head.key));
            }
        }
        None
    }

    fn issued_passing(&self, key: Key) -> u64 {
        // The earliest logged event after `key`: scan back from the end.
        let mut answer = self.next_seq;
        for &(k, issued) in self.log.entries.iter().rev() {
            if k <= key.0 {
                break;
            }
            answer = issued;
        }
        answer
    }

    fn keep_log_from(&mut self, floor: Option<SimTime>) {
        match floor {
            None => {
                self.log.entries.clear();
                self.log.floor = None;
            }
            Some(t) => {
                if self.log.floor.is_none() {
                    self.log.entries.push((self.current, self.issued_before));
                }
                self.log.floor = Some(t);
                self.log.entries.retain(|&(k, _)| Key(k).time() >= t);
            }
        }
    }

    fn schedule_timer_at_key(&mut self, key: Key, event: E) -> TimerHandle {
        assert!(key.0 > self.current, "cannot schedule into the past");
        assert!(key.is_virtual(), "explicit keys must be virtual");
        // Keys identify timers here (`cancelled` is a set), so a key armed
        // twice would let a cancelled timer's twin fire.
        assert!(
            !self.timers.contains(&key.0) && !self.cancelled.contains(&key.0),
            "explicit key {key:?} armed twice"
        );
        self.heap.push(Reverse(Entry { key: key.0, event }));
        self.timers.insert(key.0);
        TimerHandle::external(key.0)
    }

    fn adjust_processed(&mut self, delta: i64) {
        *self.processed = self.processed.checked_add_signed(delta).expect("count underflow");
    }

    fn rekey_current(&mut self, key: Key) {
        assert!(key.0 >= self.current, "rekey backwards");
        self.current = key.0;
        if let Some(last) = self.log.entries.last_mut() {
            last.0 = key.0;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use parsched_des::SimDuration;

    struct Countdown {
        fired: Vec<(u64, u64)>,
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
    fn countdown_matches_reference_semantics() {
        let mut engine = OracleEngine::new();
        engine.seed(SimTime(5), 3u64);
        let mut model = Countdown { fired: Vec::new() };
        assert_eq!(engine.run(&mut model), RunOutcome::Drained);
        assert_eq!(model.fired, vec![(5, 3), (15, 2), (25, 1), (35, 0)]);
        assert_eq!(engine.now(), SimTime(35));
        assert_eq!(engine.events_processed(), 4);
    }

    #[test]
    fn horizon_and_budget_mirror_the_optimized_engine() {
        let mut engine = OracleEngine::new();
        engine.horizon = SimTime(20);
        engine.seed(SimTime(5), 3u64);
        let mut model = Countdown { fired: Vec::new() };
        assert_eq!(engine.run(&mut model), RunOutcome::HorizonReached);
        assert_eq!(model.fired.len(), 2);
        assert_eq!(engine.pending(), 1);
        assert_eq!(engine.now(), SimTime(20));

        let mut engine = OracleEngine::new();
        engine.max_events = 2;
        engine.seed(SimTime(5), 3u64);
        let mut model = Countdown { fired: Vec::new() };
        assert_eq!(engine.run(&mut model), RunOutcome::BudgetExhausted);
        assert_eq!(engine.events_processed(), 2);

        let mut engine = OracleEngine::new();
        engine.seed(SimTime(5), 3u64);
        engine.next_seq = parsched_des::order::ISSUE_LIMIT - parsched_des::order::ISSUE_HEADROOM;
        let mut model = Countdown { fired: Vec::new() };
        assert_eq!(engine.run(&mut model), RunOutcome::BudgetExhausted);
        assert_eq!(engine.events_processed(), 1);
    }

    /// A model that schedules a timer and cancels it from a later event:
    /// the cancelled timer must not fire, must not count, and must leave
    /// the pending gauge.
    struct CancelHalf {
        handles: Vec<TimerHandle>,
        fired: Vec<u64>,
    }

    impl Model for CancelHalf {
        type Event = u64;
        fn handle(&mut self, _now: SimTime, ev: u64, sched: &mut impl EventScheduler<u64>) {
            match ev {
                0 => {
                    for i in 0..6u64 {
                        let h = sched.schedule_timer(
                            SimDuration::from_nanos(100 + i),
                            10 + i,
                        );
                        self.handles.push(h);
                    }
                    sched.schedule(SimDuration::from_nanos(50), 1);
                }
                1 => {
                    for h in self.handles.drain(..).step_by(2) {
                        assert!(sched.cancel_timer(h), "live timer must cancel");
                        assert!(!sched.cancel_timer(h), "double cancel must fail");
                    }
                    assert_eq!(sched.timer_count(), 3);
                }
                f => self.fired.push(f),
            }
        }
    }

    #[test]
    fn cancelled_timers_never_fire_and_never_count() {
        let mut engine = OracleEngine::new();
        engine.seed(SimTime::ZERO, 0u64);
        let mut model = CancelHalf {
            handles: Vec::new(),
            fired: Vec::new(),
        };
        assert_eq!(engine.run(&mut model), RunOutcome::Drained);
        assert_eq!(model.fired, vec![11, 13, 15]);
        // 0, 1, and the three surviving timers.
        assert_eq!(engine.events_processed(), 5);
        assert_eq!(engine.pending(), 0);
    }

    /// Arms a timer at an explicit key, cancels it and arms the same key
    /// again.
    struct ReuseKey;

    impl Model for ReuseKey {
        type Event = u64;
        fn handle(&mut self, now: SimTime, _: u64, sched: &mut impl EventScheduler<u64>) {
            let key = Key::virtual_at(now + SimDuration::from_nanos(5), 1, 0);
            let h = sched.schedule_timer_at_key(key, 1);
            assert!(sched.cancel_timer(h));
            sched.schedule_timer_at_key(key, 2);
        }
    }

    #[test]
    #[should_panic(expected = "armed twice")]
    fn an_explicit_key_is_armed_once() {
        let mut engine = OracleEngine::new();
        engine.seed(SimTime::ZERO, 0u64);
        engine.run(&mut ReuseKey);
    }
}
