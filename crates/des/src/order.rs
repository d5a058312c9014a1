//! Positions in the global event order.
//!
//! Both engines fire events in ascending packed `(time, seq)` order. A
//! model that replays skipped work in closed form (the machine's CPU
//! express path) must still place that work exactly where the skipped
//! events would have fired, among the events that really run. [`Key`] is
//! that position, and [`Cursor`] says where a run currently stands.
//!
//! Real events get seq `(i + 1) << 32`, where `i` counts the events issued
//! before them. The 2³² − 1 seqs strictly between two real seqs form a
//! *gap*: gap `g` holds the positions after the `g`-th issued event and
//! before the `g + 1`-th. A *virtual* key names a position in gap `g` at
//! some instant; its low 32 bits are a *lane* that orders virtual keys of
//! the same instant and gap among themselves. Virtual keys never move a
//! real event: the real seqs, and so their relative order, are exactly
//! what the engine would issue without them.

use crate::time::SimTime;

/// Bits of a seq below the issue index: the lane of a virtual key.
const LANE_BITS: u32 = 32;

/// Events an engine can issue over its life (schedule calls, timers and
/// seeds alike): issue indices run `0 .. ISSUE_LIMIT`, about 4.29 billion.
pub const ISSUE_LIMIT: u64 = (1 << (64 - LANE_BITS)) - 1;

/// Issue indices held back for the event being handled: an engine stops
/// with [`RunOutcome::BudgetExhausted`](crate::engine::RunOutcome::BudgetExhausted)
/// before handling an event once fewer than this many are left, so only a
/// single handler issuing more than 2²⁴ events can reach the limit.
pub const ISSUE_HEADROOM: u64 = 1 << 24;

/// True once `issued` events leave less than [`ISSUE_HEADROOM`] before
/// [`ISSUE_LIMIT`]: the run must stop.
#[inline]
pub fn issue_space_spent(issued: u64) -> bool {
    issued > ISSUE_LIMIT - ISSUE_HEADROOM
}

/// A position in the global `(time, seq)` event order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Key(pub u128);

impl Key {
    /// The key of the real event with issue index `index` firing at `time`.
    #[inline]
    pub fn real(time: SimTime, index: u64) -> Key {
        Key::pack(time, real_seq(index))
    }

    /// A virtual key at `time` in gap `gap` (after `gap` events were
    /// issued), on lane `lane`.
    ///
    /// # Panics
    /// Panics if `lane` is `u32::MAX` or `gap` does not fit 32 bits.
    #[inline]
    pub fn virtual_at(time: SimTime, gap: u64, lane: u32) -> Key {
        assert!(lane < u32::MAX, "lane out of range");
        assert!(gap < 1 << (64 - LANE_BITS), "issue index overflow");
        Key::pack(time, (gap << LANE_BITS) | (lane as u64 + 1))
    }

    /// Before every key at `time`.
    #[inline]
    pub fn first_at(time: SimTime) -> Key {
        Key::pack(time, 0)
    }

    /// After every key at `time`.
    #[inline]
    pub fn last_at(time: SimTime) -> Key {
        Key::pack(time, u64::MAX)
    }

    /// Pack an instant and a raw seq.
    #[inline]
    pub fn pack(time: SimTime, seq: u64) -> Key {
        Key(((time.nanos() as u128) << 64) | seq as u128)
    }

    /// The instant.
    #[inline]
    pub fn time(self) -> SimTime {
        SimTime((self.0 >> 64) as u64)
    }

    /// The raw seq.
    #[inline]
    pub fn seq(self) -> u64 {
        self.0 as u64
    }

    /// True for a key no real event can carry.
    #[inline]
    pub fn is_virtual(self) -> bool {
        self.seq() & ((1 << LANE_BITS) - 1) != 0
    }
}

/// The seq of the real event with issue index `index`.
///
/// # Panics
/// Panics once [`ISSUE_LIMIT`] events have been issued. A run stops well
/// before that ([`issue_space_spent`]); only seeding that many can get here.
#[inline]
pub fn real_seq(index: u64) -> u64 {
    assert!(index < ISSUE_LIMIT, "issue index overflow");
    (index + 1) << LANE_BITS
}

/// Where a run stands while a model handles an event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Cursor {
    /// Key of the event being handled.
    pub key: Key,
    /// Events issued so far (schedule calls, timers and seeds alike).
    pub issued: u64,
}

/// The handled-event log behind
/// [`EventScheduler::issued_passing`](crate::engine::EventScheduler::issued_passing):
/// each handled event's key with the count issued before it. Engines keep
/// it only while a model asks them to, from an instant on.
#[derive(Debug, Default)]
pub struct PassLog {
    entries: std::collections::VecDeque<(Key, u64)>,
    floor: Option<SimTime>,
}

impl PassLog {
    /// Log a handled event (a no-op while the log is off).
    #[inline]
    pub fn push(&mut self, key: Key, issued_before: u64) {
        if self.floor.is_some() {
            debug_assert!(self.entries.back().is_none_or(|&(k, _)| k < key));
            self.entries.push_back((key, issued_before));
        }
    }

    /// Keep events from `floor` on (`None` stops logging and forgets
    /// everything). Turning the log on logs the event being handled,
    /// `current`, so a question about any later key finds it.
    pub fn keep_from(&mut self, floor: Option<SimTime>, current: (Key, u64)) {
        match floor {
            None => {
                self.entries.clear();
                self.floor = None;
            }
            Some(t) => {
                if self.floor.is_none() {
                    self.entries.push_back(current);
                }
                self.floor = Some(t);
                while self.entries.front().is_some_and(|&(k, _)| k.time() < t) {
                    self.entries.pop_front();
                }
            }
        }
    }

    /// Relabel the most recent entry (the event being handled).
    pub fn rekey_last(&mut self, key: Key) {
        if let Some(last) = self.entries.back_mut() {
            last.0 = key;
        }
    }

    /// Events issued when the run passed `key`: the count before the first
    /// logged event after it, or `issued_now` when the run has logged
    /// nothing past it yet.
    pub fn issued_passing(&self, key: Key, issued_now: u64) -> u64 {
        let after = self.entries.partition_point(|&(k, _)| k <= key);
        self.entries.get(after).map_or(issued_now, |&(_, n)| n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn virtual_keys_sit_between_real_ones() {
        let t = SimTime(7);
        let before = Key::real(t, 4);
        let after = Key::real(t, 5);
        let v = Key::virtual_at(t, 5, 0);
        let w = Key::virtual_at(t, 5, 9);
        assert!(before < v && v < w && w < after);
        assert!(v.is_virtual() && !before.is_virtual());
        assert!(Key::virtual_at(t, 0, 3) < Key::real(t, 0));
        assert!(Key::first_at(t) < Key::virtual_at(t, 0, 0));
        assert!(Key::real(t, 1 << 20) < Key::last_at(t));
        assert_eq!(v.time(), t);
    }

    #[test]
    fn log_answers_from_the_first_later_entry() {
        let mut log = PassLog::default();
        log.push(Key::real(SimTime(1), 0), 1);
        assert_eq!(log.issued_passing(Key::first_at(SimTime(0)), 9), 9, "off: nothing logged");
        log.keep_from(Some(SimTime(1)), (Key::real(SimTime(1), 0), 1));
        log.push(Key::real(SimTime(3), 1), 4);
        log.push(Key::real(SimTime(5), 4), 6);
        assert_eq!(log.issued_passing(Key::first_at(SimTime(2)), 9), 4);
        assert_eq!(log.issued_passing(Key::last_at(SimTime(3)), 9), 6);
        assert_eq!(log.issued_passing(Key::last_at(SimTime(5)), 9), 9);
        log.keep_from(Some(SimTime(4)), (Key(0), 0));
        assert_eq!(log.issued_passing(Key::first_at(SimTime(4)), 9), 6);
        log.keep_from(None, (Key(0), 0));
        assert_eq!(log.issued_passing(Key::first_at(SimTime(4)), 9), 9);
    }
}
