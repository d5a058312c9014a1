//! The future-event heap.
//!
//! [`BinaryHeapQueue`] is the engine's one store for events scheduled past
//! the current instant, cancellable timers included (the engine layers
//! lazy cancellation on top; see [`Engine`](crate::engine::Engine)). Events
//! order by the packed `(time, seq)` key, so the pop sequence is the
//! deterministic global event order.

use crate::time::SimTime;

/// An event of type `E` scheduled for a particular simulated instant.
#[derive(Debug, Clone)]
pub struct Scheduled<E> {
    /// When the event fires.
    pub time: SimTime,
    /// Monotone insertion sequence; the deterministic tiebreaker.
    pub seq: u64,
    /// The event payload.
    pub event: E,
}

/// Heap-backed pending-event set.
///
/// Internally a 4-ary implicit min-heap over the packed `(time, seq)` key
/// (one `u128` comparison instead of two chained `u64` compares): the
/// shallower tree halves the number of levels a sift touches, which is
/// where the time goes for the small-to-medium pending sets a machine
/// simulation keeps. The name predates the arity change; the observable
/// behaviour — pops ascending by `(time, seq)` — is that of any min-heap.
#[derive(Debug)]
pub struct BinaryHeapQueue<E> {
    /// `(packed key, payload)` in implicit 4-ary heap order.
    heap: Vec<(u128, E)>,
}

/// Pack `(time, seq)` so one integer compare gives the event order.
#[inline]
pub(crate) fn pack(time: SimTime, seq: u64) -> u128 {
    ((time.nanos() as u128) << 64) | seq as u128
}

#[inline]
fn unpack<E>((key, event): (u128, E)) -> Scheduled<E> {
    Scheduled {
        time: SimTime((key >> 64) as u64),
        seq: key as u64,
        event,
    }
}

const HEAP_ARITY: usize = 4;

impl<E> Default for BinaryHeapQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> BinaryHeapQueue<E> {
    /// An empty queue.
    pub fn new() -> Self {
        BinaryHeapQueue { heap: Vec::new() }
    }

    /// Insert an event.
    pub fn push(&mut self, item: Scheduled<E>) {
        self.heap.push((pack(item.time, item.seq), item.event));
        self.sift_up(self.heap.len() - 1);
    }

    /// Remove and return the earliest event, or `None` if empty.
    pub fn pop(&mut self) -> Option<Scheduled<E>> {
        let len = self.heap.len();
        match len {
            0 => None,
            1 => self.heap.pop().map(unpack),
            _ => {
                self.heap.swap(0, len - 1);
                let top = self.heap.pop().expect("len >= 2");
                self.sift_down();
                Some(unpack(top))
            }
        }
    }

    /// The packed `(time << 64) | seq` key and payload of the earliest
    /// event, without removing it.
    #[inline]
    pub fn peek(&self) -> Option<(u128, &E)> {
        self.heap.first().map(|(key, event)| (*key, event))
    }

    /// Number of queued events.
    #[inline]
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// True if no events are queued.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Restore the heap property upward from `pos` (a freshly pushed slot).
    fn sift_up(&mut self, mut pos: usize) {
        while pos > 0 {
            let parent = (pos - 1) / HEAP_ARITY;
            if self.heap[pos].0 >= self.heap[parent].0 {
                break;
            }
            self.heap.swap(pos, parent);
            pos = parent;
        }
    }

    /// Restore the heap property downward from the root (after a pop moved
    /// the last element there).
    fn sift_down(&mut self) {
        let len = self.heap.len();
        let mut pos = 0;
        loop {
            let first = pos * HEAP_ARITY + 1;
            if first >= len {
                break;
            }
            let mut min = first;
            let mut min_key = self.heap[first].0;
            for c in (first + 1)..(first + HEAP_ARITY).min(len) {
                let k = self.heap[c].0;
                if k < min_key {
                    min = c;
                    min_key = k;
                }
            }
            if min_key >= self.heap[pos].0 {
                break;
            }
            self.heap.swap(pos, min);
            pos = min;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sched(t: u64, seq: u64) -> Scheduled<u64> {
        Scheduled {
            time: SimTime(t),
            seq,
            event: seq,
        }
    }

    fn drain(q: &mut BinaryHeapQueue<u64>) -> Vec<(u64, u64)> {
        let mut out = Vec::new();
        while let Some(s) = q.pop() {
            out.push((s.time.nanos(), s.seq));
        }
        out
    }

    #[test]
    fn heap_orders_by_time_then_seq() {
        let mut q = BinaryHeapQueue::new();
        q.push(sched(10, 2));
        q.push(sched(5, 3));
        q.push(sched(10, 1));
        q.push(sched(5, 0));
        assert_eq!(q.peek().map(|(key, _)| key), Some(pack(SimTime(5), 0)));
        assert_eq!(drain(&mut q), vec![(5, 0), (5, 3), (10, 1), (10, 2)]);
    }

    #[test]
    fn interleaved_push_pop_matches_a_sorted_reference() {
        let mut q = BinaryHeapQueue::new();
        let mut reference: Vec<(u64, u64)> = Vec::new();
        let mut seq = 0u64;
        let mut last_popped = 0u64;
        for round in 0..200u64 {
            for k in 0..5 {
                let t = last_popped + 1 + (round * 31 + k * 17) % 1000;
                q.push(sched(t, seq));
                reference.push((t, seq));
                seq += 1;
            }
            reference.sort_unstable();
            for _ in 0..3 {
                let s = q.pop().expect("populated");
                assert_eq!((s.time.nanos(), s.seq), reference.remove(0));
                last_popped = s.time.nanos();
            }
        }
        reference.sort_unstable();
        assert_eq!(drain(&mut q), reference);
    }

    #[test]
    fn empty_queue_behaves() {
        let mut h: BinaryHeapQueue<u64> = BinaryHeapQueue::new();
        assert!(h.pop().is_none());
        assert!(h.peek().is_none());
        assert!(h.is_empty());
    }
}
