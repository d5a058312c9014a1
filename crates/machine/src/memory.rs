//! Per-node memory management.
//!
//! Every node runs an MMU (§3.2 of the paper) that hands out buffer space
//! from the node's memory. Requests that cannot be satisfied wait in a FIFO
//! queue and are granted, in order, as memory frees — "a message can suffer
//! a delay if an intermediate processor delays allocation of memory for the
//! mailbox". Job data allocations go through the same pool, so a heavily
//! multiprogrammed node has little room for buffers: the memory-contention
//! channel the paper's time-sharing results hinge on.

use crate::process::{JobId, ProcKey};
use parsched_des::{SimDuration, SimTime, TimeWeighted};
use std::collections::VecDeque;

/// Who is waiting for an allocation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AllocWaiter {
    /// A process blocked injecting a message (wakes and injects on grant).
    Sender(ProcKey),
    /// An asynchronously sent message waiting for its source buffer (the
    /// sending process has already moved on).
    PendingSend(crate::net::MsgId),
    /// A message in transit needing a buffer at its next hop.
    Transit(crate::net::MsgId),
    /// A job waiting to load its resident data onto this node.
    JobLoad(JobId),
}

/// A queued allocation request.
#[derive(Debug, Clone, Copy)]
pub struct AllocReq {
    /// Bytes requested.
    pub bytes: u64,
    /// Whom to notify on grant.
    pub waiter: AllocWaiter,
    /// When the request was enqueued (for wait-time statistics).
    pub since: SimTime,
}

/// How queued allocation requests are granted when memory frees.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum AllocPolicy {
    /// Strict FIFO: the head request blocks everything behind it until it
    /// fits (simple, but prone to head-of-line stalls and store-and-forward
    /// deadlock under pressure).
    Fifo,
    /// First-fit in arrival order: every queued request that fits is
    /// granted, so small transit buffers slip past large blocked senders.
    /// The default — it matches how real mailbox systems kept the network
    /// draining under memory pressure.
    #[default]
    FirstFit,
}

/// One node's memory pool + allocation queue.
#[derive(Debug)]
pub struct Mmu {
    capacity: u64,
    /// Bytes withheld from non-transit requests, so forwarding always has
    /// headroom (a pre-reserved system buffer pool).
    transit_reserve: u64,
    /// Grant discipline for the queue.
    pub policy: AllocPolicy,
    /// Bytes currently allocated. May exceed `capacity` when overdraft
    /// allocations (pre-reserved transit pools) are in use.
    used: u64,
    queue: VecDeque<AllocReq>,
    /// Time-weighted bytes-in-use signal.
    pub usage: TimeWeighted,
    /// Total grants that had to wait.
    pub delayed_grants: u64,
    /// Cumulative time requests spent queued.
    pub total_wait: SimDuration,
    /// Peak bytes allocated (including overdraft).
    pub peak_used: u64,
}

/// Result of an immediate allocation attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AllocResult {
    /// Granted immediately.
    Granted,
    /// Queued behind earlier requests or insufficient memory.
    Queued,
}

impl Mmu {
    /// A pool of `capacity` bytes, empty queue, no transit reserve.
    pub fn new(capacity: u64, t0: SimTime) -> Mmu {
        Mmu {
            capacity,
            transit_reserve: 0,
            policy: AllocPolicy::default(),
            used: 0,
            queue: VecDeque::new(),
            usage: TimeWeighted::new(t0, 0.0),
            delayed_grants: 0,
            total_wait: SimDuration::ZERO,
            peak_used: 0,
        }
    }

    /// Withhold `bytes` from non-transit requests.
    pub fn set_transit_reserve(&mut self, bytes: u64) {
        self.transit_reserve = bytes.min(self.capacity);
    }

    /// Effective capacity for a request of this kind.
    fn limit_for(&self, waiter: AllocWaiter) -> u64 {
        match waiter {
            AllocWaiter::Transit(_) => self.capacity,
            _ => self.capacity - self.transit_reserve,
        }
    }

    /// Bytes currently allocated.
    pub fn used(&self) -> u64 {
        self.used
    }

    /// Bytes free (zero when overdrafted).
    pub fn free(&self) -> u64 {
        self.capacity.saturating_sub(self.used)
    }

    /// Pool capacity.
    pub fn capacity(&self) -> u64 {
        self.capacity
    }

    /// Pending requests.
    pub fn queue_len(&self) -> usize {
        self.queue.len()
    }

    /// Try to allocate, queueing on failure. Under [`AllocPolicy::Fifo`] a
    /// request also queues when anyone is already waiting (no overtaking);
    /// under [`AllocPolicy::FirstFit`] it is granted whenever it fits.
    pub fn request(&mut self, now: SimTime, bytes: u64, waiter: AllocWaiter) -> AllocResult {
        let blocked_by_queue = self.policy == AllocPolicy::Fifo && !self.queue.is_empty();
        if !blocked_by_queue && self.used + bytes <= self.limit_for(waiter) {
            self.take(now, bytes);
            AllocResult::Granted
        } else {
            self.queue.push_back(AllocReq {
                bytes,
                waiter,
                since: now,
            });
            AllocResult::Queued
        }
    }

    /// Allocate unconditionally, allowing the pool to overdraw (used for
    /// transit buffers under
    /// [`FlowControl::InjectionLimited`](crate::config::FlowControl::InjectionLimited),
    /// which models a
    /// pre-reserved system buffer pool).
    pub fn force_alloc(&mut self, now: SimTime, bytes: u64) {
        self.take(now, bytes);
    }

    /// Release `bytes` back to the pool.
    ///
    /// # Panics
    /// Panics if more is freed than is allocated (double-free bug).
    pub fn release(&mut self, now: SimTime, bytes: u64) {
        assert!(
            self.used >= bytes,
            "MMU double free: {} < {bytes}",
            self.used
        );
        self.used -= bytes;
        self.usage.set(now, self.used as f64);
    }

    /// After a release, grant whatever queued requests now fit, according
    /// to the [`AllocPolicy`]: FIFO stops at the first misfit (head-of-line
    /// blocking); first-fit scans the whole queue in arrival order. Returns
    /// the granted requests; the caller wakes the waiters.
    pub fn pump(&mut self, now: SimTime) -> Vec<AllocReq> {
        let mut granted = Vec::new();
        match self.policy {
            AllocPolicy::Fifo => {
                while let Some(head) = self.queue.front() {
                    if self.used + head.bytes <= self.limit_for(head.waiter) {
                        let req = self.queue.pop_front().expect("checked front");
                        self.take(now, req.bytes);
                        self.delayed_grants += 1;
                        self.total_wait += now.since(req.since);
                        granted.push(req);
                    } else {
                        break;
                    }
                }
            }
            AllocPolicy::FirstFit => {
                let mut i = 0;
                while i < self.queue.len() {
                    let req = self.queue[i];
                    if self.used + req.bytes <= self.limit_for(req.waiter) {
                        self.queue.remove(i);
                        self.take(now, req.bytes);
                        self.delayed_grants += 1;
                        self.total_wait += now.since(req.since);
                        granted.push(req);
                    } else {
                        i += 1;
                    }
                }
            }
        }
        granted
    }

    /// Remove a queued transit request for `msg`, returning its size
    /// (used by the emergency-pool escape).
    pub fn cancel_transit(&mut self, msg: crate::net::MsgId) -> Option<u64> {
        let pos = self
            .queue
            .iter()
            .position(|r| matches!(r.waiter, AllocWaiter::Transit(m) if m == msg))?;
        let req = self.queue.remove(pos).expect("position valid");
        Some(req.bytes)
    }

    /// Remove every queued request whose waiter matches `pred`, returning
    /// the removed requests (fault recovery: a killed job's pending
    /// allocations must never be granted). Like [`Mmu::cancel_transit`],
    /// no memory is freed — queued requests never held any.
    pub fn cancel_where(&mut self, pred: impl Fn(AllocWaiter) -> bool) -> Vec<AllocReq> {
        let mut removed = Vec::new();
        self.queue.retain(|r| {
            if pred(r.waiter) {
                removed.push(*r);
                false
            } else {
                true
            }
        });
        removed
    }

    fn take(&mut self, now: SimTime, bytes: u64) {
        self.used += bytes;
        self.peak_used = self.peak_used.max(self.used);
        self.usage.set(now, self.used as f64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const K: u64 = 1024;

    #[test]
    fn grant_and_release() {
        let mut m = Mmu::new(10 * K, SimTime::ZERO);
        assert_eq!(
            m.request(SimTime(1), 4 * K, AllocWaiter::JobLoad(JobId(0))),
            AllocResult::Granted
        );
        assert_eq!(m.used(), 4 * K);
        assert_eq!(m.free(), 6 * K);
        m.release(SimTime(2), 4 * K);
        assert_eq!(m.used(), 0);
    }

    #[test]
    fn fifo_no_overtaking() {
        let mut m = Mmu::new(10 * K, SimTime::ZERO);
        m.policy = AllocPolicy::Fifo;
        assert_eq!(
            m.request(SimTime(0), 8 * K, AllocWaiter::JobLoad(JobId(0))),
            AllocResult::Granted
        );
        // 4K does not fit -> queued.
        assert_eq!(
            m.request(SimTime(1), 4 * K, AllocWaiter::JobLoad(JobId(1))),
            AllocResult::Queued
        );
        // 1K would fit, but must not overtake the queued 4K request.
        assert_eq!(
            m.request(SimTime(2), K, AllocWaiter::JobLoad(JobId(2))),
            AllocResult::Queued
        );
        m.release(SimTime(5), 8 * K);
        let granted = m.pump(SimTime(5));
        assert_eq!(granted.len(), 2);
        assert!(matches!(granted[0].waiter, AllocWaiter::JobLoad(JobId(1))));
        assert!(matches!(granted[1].waiter, AllocWaiter::JobLoad(JobId(2))));
        assert_eq!(m.used(), 5 * K);
        assert_eq!(m.delayed_grants, 2);
        assert_eq!(m.total_wait, SimDuration::from_nanos(4 + 3));
    }

    #[test]
    fn pump_stops_at_first_misfit() {
        let mut m = Mmu::new(10 * K, SimTime::ZERO);
        m.policy = AllocPolicy::Fifo;
        m.request(SimTime(0), 10 * K, AllocWaiter::JobLoad(JobId(0)));
        m.request(SimTime(0), 9 * K, AllocWaiter::JobLoad(JobId(1)));
        m.request(SimTime(0), 2 * K, AllocWaiter::JobLoad(JobId(2)));
        m.release(SimTime(1), 10 * K);
        let granted = m.pump(SimTime(1));
        // 9K fits; the 2K behind it (9K + 2K > 10K) must wait for the next
        // release (FIFO head-of-line).
        assert_eq!(granted.len(), 1);
        assert_eq!(m.queue_len(), 1);
    }

    #[test]
    fn overdraft_allocation() {
        let mut m = Mmu::new(K, SimTime::ZERO);
        m.force_alloc(SimTime(0), 5 * K);
        assert_eq!(m.used(), 5 * K);
        assert_eq!(m.free(), 0);
        assert_eq!(m.peak_used, 5 * K);
        m.release(SimTime(1), 5 * K);
        assert_eq!(m.used(), 0);
    }

    #[test]
    #[should_panic(expected = "double free")]
    fn double_free_panics() {
        let mut m = Mmu::new(K, SimTime::ZERO);
        m.release(SimTime(0), 1);
    }

    #[test]
    fn usage_signal_tracks_allocations() {
        let mut m = Mmu::new(10 * K, SimTime::ZERO);
        m.force_alloc(SimTime(0), 2 * K);
        m.release(SimTime(1_000_000_000), 2 * K);
        // 2K for 1 s then 0 for 1 s => mean 1K over 2 s.
        let mean = m.usage.mean(SimTime(2_000_000_000));
        assert!((mean - K as f64).abs() < 1.0, "mean {mean}");
    }
}
