//! Deterministic fault injection.
//!
//! A [`FaultPlan`] declares, up front and in simulated time, every failure a
//! run will experience: node crashes, link down/up windows, a per-hop
//! message corruption probability, and an optional mailbox capacity. The
//! plan is part of [`MachineConfig`](crate::config::MachineConfig), so the
//! same plan replays the same faults — in the same order, at the same
//! instants — under any engine (the differential oracle runs faulty plans
//! through both engines and demands bit-identical traces).
//!
//! Determinism guarantees:
//!
//! * crashes and link windows are seeded as ordinary simulation events at
//!   their declared times, so they order against all other events by the
//!   engine's `(time, seq)` rule;
//! * probabilistic drops draw from a dedicated [`DetRng`]
//!   (`parsched_des::rng::DetRng`) stream seeded by `drop_seed`, with
//!   exactly one draw per completed hop — never from shared state;
//! * an **empty plan is free**: no RNG draw, no timer, no extra event, no
//!   branch that schedules anything, so every golden output stays
//!   bit-identical to a build without this module.

use parsched_des::{SimDuration, SimTime};
use std::ops::Range;

/// A fail-stop node crash at a declared instant.
///
/// The crash model is *fail-stop compute*: the node's CPU stops (running
/// and ready work on it is killed, jobs placed there fail and are requeued
/// by the driver), while the node's link hardware keeps forwarding —
/// matching the Transputer, whose link engines ran independently of the
/// CPU. Take a link down too if the full node should vanish.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NodeCrash {
    /// Global processor index.
    pub node: u32,
    /// When the node stops.
    pub at: SimTime,
}

/// A link outage window: the channel between two adjacent nodes is down in
/// `[down_at, up_at)` — in **both** directions. Transfers already on the
/// wire complete (outages quantize to transfer boundaries); new transfers
/// queue until the link comes back. Pairs that are not adjacent in the
/// machine's topology are ignored.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LinkWindow {
    /// One endpoint.
    pub from: u32,
    /// The other endpoint.
    pub to: u32,
    /// When the link goes down.
    pub down_at: SimTime,
    /// When it comes back up (must be finite and after `down_at`).
    pub up_at: SimTime,
}

/// Timeout / retry / backoff parameters for unreliable delivery.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Retransmissions allowed per message before the sending job is
    /// failed (the budget does not count the first attempt).
    pub max_retries: u32,
    /// Backoff before the first retransmission; doubles per attempt.
    pub base_backoff: SimDuration,
    /// Ceiling on the exponential backoff.
    pub backoff_cap: SimDuration,
    /// If set, a message not delivered within this span of its injection
    /// (or last retransmission) is timed out and retransmitted, which is
    /// what rescues messages stranded behind a long link outage.
    pub msg_timeout: Option<SimDuration>,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_retries: 4,
            base_backoff: SimDuration::from_millis(1),
            backoff_cap: SimDuration::from_millis(32),
            msg_timeout: None,
        }
    }
}

impl RetryPolicy {
    /// Backoff before retransmission number `attempt` (1-based):
    /// `base * 2^(attempt-1)`, capped.
    pub fn backoff(&self, attempt: u32) -> SimDuration {
        let shift = attempt.saturating_sub(1).min(32);
        let ns = self
            .base_backoff
            .nanos()
            .saturating_mul(1u64 << shift)
            .min(self.backoff_cap.nanos());
        SimDuration::from_nanos(ns)
    }
}

/// The complete, declared fault schedule of one run.
#[derive(Debug, Clone, Default)]
pub struct FaultPlan {
    /// Fail-stop node crashes.
    pub crashes: Vec<NodeCrash>,
    /// Link outage windows.
    pub links: Vec<LinkWindow>,
    /// Per-hop probability that a completed transfer corrupts the message
    /// (detected by checksum at delivery, triggering a retransmission).
    pub drop_prob: f64,
    /// Seed of the dedicated drop-decision RNG stream.
    pub drop_seed: u64,
    /// If set, a destination mailbox holding this many undelivered
    /// messages rejects further deliveries (retried with backoff).
    pub mailbox_capacity: Option<usize>,
    /// Timeout/retry/backoff parameters.
    pub retry: RetryPolicy,
}

impl FaultPlan {
    /// True when the plan injects nothing — the guarantee that every
    /// fault-handling code path is unreachable and goldens stay
    /// bit-identical.
    pub fn is_empty(&self) -> bool {
        self.crashes.is_empty()
            && self.links.is_empty()
            && self.drop_prob == 0.0
            && self.mailbox_capacity.is_none()
            && self.retry.msg_timeout.is_none()
    }

    /// The slice of this plan a shard owning processors `nodes` should
    /// seed, renumbered to the shard's machine, whose processor 0 is
    /// `nodes.start`.
    ///
    /// Declared events are kept only where the shard can observe them:
    /// crashes on owned nodes, link windows with **both** endpoints owned.
    /// A window straddling the ownership boundary is dropped — safe because
    /// shard ownership follows partition boundaries and partitions share no
    /// channels, so such a window names a non-adjacent pair the machine
    /// would ignore anyway. The scalar knobs (drop probability/seed,
    /// mailbox capacity, retry policy) apply machine-wide and are copied
    /// verbatim: the per-channel drop streams, keyed by the machine-wide
    /// channel index, make the slice draw exactly the sequential numbers
    /// on the channels it owns.
    pub fn slice_for_range(&self, nodes: Range<u32>) -> FaultPlan {
        let local = |n: u32| n - nodes.start;
        FaultPlan {
            crashes: self
                .crashes
                .iter()
                .filter(|c| nodes.contains(&c.node))
                .map(|c| NodeCrash {
                    node: local(c.node),
                    ..*c
                })
                .collect(),
            links: self
                .links
                .iter()
                .filter(|w| nodes.contains(&w.from) && nodes.contains(&w.to))
                .map(|w| LinkWindow {
                    from: local(w.from),
                    to: local(w.to),
                    ..*w
                })
                .collect(),
            ..self.clone()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_plan_is_empty() {
        assert!(FaultPlan::default().is_empty());
    }

    #[test]
    fn any_fault_source_makes_the_plan_nonempty() {
        let crash = FaultPlan {
            crashes: vec![NodeCrash {
                node: 0,
                at: SimTime(1),
            }],
            ..FaultPlan::default()
        };
        assert!(!crash.is_empty());
        let drops = FaultPlan {
            drop_prob: 0.1,
            ..FaultPlan::default()
        };
        assert!(!drops.is_empty());
        let mailbox = FaultPlan {
            mailbox_capacity: Some(4),
            ..FaultPlan::default()
        };
        assert!(!mailbox.is_empty());
        let timeout = FaultPlan {
            retry: RetryPolicy {
                msg_timeout: Some(SimDuration::from_millis(5)),
                ..RetryPolicy::default()
            },
            ..FaultPlan::default()
        };
        assert!(!timeout.is_empty());
    }

    #[test]
    fn slicing_keeps_owned_events_and_scalar_knobs() {
        let plan = FaultPlan {
            crashes: vec![
                NodeCrash {
                    node: 1,
                    at: SimTime(10),
                },
                NodeCrash {
                    node: 5,
                    at: SimTime(20),
                },
            ],
            links: vec![
                LinkWindow {
                    from: 0,
                    to: 1,
                    down_at: SimTime(1),
                    up_at: SimTime(2),
                },
                LinkWindow {
                    from: 3,
                    to: 4,
                    down_at: SimTime(1),
                    up_at: SimTime(2),
                },
                LinkWindow {
                    from: 4,
                    to: 5,
                    down_at: SimTime(1),
                    up_at: SimTime(2),
                },
            ],
            drop_prob: 0.25,
            drop_seed: 7,
            mailbox_capacity: Some(3),
            retry: RetryPolicy::default(),
        };
        let lo = plan.slice_for_range(0..4);
        assert_eq!(
            lo.crashes,
            vec![NodeCrash {
                node: 1,
                at: SimTime(10)
            }]
        );
        assert_eq!(
            lo.links,
            vec![LinkWindow {
                from: 0,
                to: 1,
                down_at: SimTime(1),
                up_at: SimTime(2)
            }]
        );
        assert_eq!(lo.drop_prob, 0.25);
        assert_eq!(lo.drop_seed, 7);
        assert_eq!(lo.mailbox_capacity, Some(3));
        // The upper slice is renumbered: processor 4 becomes its 0.
        let hi = plan.slice_for_range(4..8);
        assert_eq!(
            hi.crashes,
            vec![NodeCrash {
                node: 1,
                at: SimTime(20)
            }]
        );
        assert_eq!(
            hi.links,
            vec![LinkWindow {
                from: 0,
                to: 1,
                down_at: SimTime(1),
                up_at: SimTime(2)
            }],
            "only the 4–5 window is fully owned"
        );
        assert_eq!(hi.drop_seed, 7);
    }

    #[test]
    fn backoff_doubles_and_caps() {
        let r = RetryPolicy::default(); // 1 ms base, 32 ms cap
        assert_eq!(r.backoff(1), SimDuration::from_millis(1));
        assert_eq!(r.backoff(2), SimDuration::from_millis(2));
        assert_eq!(r.backoff(4), SimDuration::from_millis(8));
        assert_eq!(r.backoff(7), SimDuration::from_millis(32));
        assert_eq!(r.backoff(60), SimDuration::from_millis(32));
    }
}
