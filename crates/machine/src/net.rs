//! Messages and links.
//!
//! Data structures for the communication subsystem: in-flight messages and
//! the per-channel serialization state. The message *protocol* (buffer
//! reservation, forwarding, delivery) is implemented in [`crate::system`].

use crate::process::JobId;
use crate::program::{Rank, Tag};
use parsched_des::{BusyTime, SimTime};
use std::collections::VecDeque;

/// Machine-wide message identifier (index into the message table).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct MsgId(pub u32);

impl MsgId {
    /// The id as a `usize` for table lookups.
    #[inline]
    pub fn idx(self) -> usize {
        self.0 as usize
    }
}

/// An in-flight (or delivered-but-unconsumed) message.
///
/// The route is *not* materialized: minimal routes are deterministic, so a
/// message only carries its endpoints plus a handful of progress cursors,
/// and every "next node" question is answered by the machine's next-hop
/// table. Keeping the struct flat (no heap data) lets the message table
/// recycle slots without allocator traffic.
#[derive(Debug, Clone)]
pub struct Message {
    /// Identifier.
    pub id: MsgId,
    /// Owning job (messages never cross jobs).
    pub job: JobId,
    /// Sending rank.
    pub from: Rank,
    /// Receiving rank.
    pub to: Rank,
    /// Payload bytes.
    pub bytes: u64,
    /// Mailbox tag.
    pub tag: Tag,
    /// Global node the sender injected from.
    pub src_node: u32,
    /// Global node of the receiver.
    pub dst_node: u32,
    /// Route length in edges (0 for self-sends).
    pub hops: u32,
    /// Node holding the (store-and-forward) buffered copy.
    pub at_node: u32,
    /// Pipelined (packetized or wormhole): head of the next edge to
    /// enqueue (the route walked `edges_started` hops from `src_node`).
    pub front_node: u32,
    /// Pipelined: node the head has fully crossed to (the route walked
    /// `edges_done` hops from `src_node`).
    pub done_node: u32,
    /// Pipelined: number of route edges whose transfer has completed.
    pub edges_done: u32,
    /// Pipelined: number of route edges enqueued on their channel so far.
    pub edges_started: u32,
    /// When the sender injected it.
    pub injected_at: SimTime,
    /// Node currently charged for this message's buffer, if any.
    pub buffered_on: Option<u32>,
    /// Retransmissions performed so far (fault plan; 0 on a clean network).
    pub attempts: u32,
    /// A hop corrupted the payload; the delivery checksum will reject it.
    pub corrupt: bool,
    /// The delivery timeout fired while this attempt was still in flight.
    pub timed_out: bool,
    /// The message was terminally dropped (owner killed / budget spent);
    /// in-flight references drain without acting on it.
    pub cancelled: bool,
    /// Outstanding engine references (scheduled transfers, hop events,
    /// handler tasks) that will still observe this slot; a cancelled slot
    /// is reclaimed only once this reaches zero.
    pub live_refs: u16,
}

impl Message {
    /// Total hops (route edges).
    #[inline]
    pub fn hops(&self) -> usize {
        self.hops as usize
    }

    /// True when the buffered copy sits at the destination.
    #[inline]
    pub fn at_destination(&self) -> bool {
        self.at_node == self.dst_node
    }

    /// The node the buffered copy currently sits on.
    #[inline]
    pub fn current_node(&self) -> u32 {
        self.at_node
    }
}

/// One directed link's serialization state.
#[derive(Debug)]
pub struct ChannelState {
    /// Sending endpoint (global).
    pub from: u32,
    /// Receiving endpoint (global).
    pub to: u32,
    /// Message currently occupying the channel.
    pub busy_with: Option<MsgId>,
    /// FIFO of messages waiting for the channel.
    pub queue: VecDeque<MsgId>,
    /// Busy/idle signal for utilization statistics.
    pub busy: BusyTime,
    /// Total payload bytes carried.
    pub bytes_carried: u64,
    /// Transfers completed.
    pub transfers: u64,
    /// Link is operational (fault plan may toggle this). A down link
    /// finishes the transfer on the wire but starts no new one.
    pub up: bool,
}

impl ChannelState {
    /// Display label, e.g. `"3->7"` (used by observability exporters).
    pub fn label(&self) -> String {
        format!("{}->{}", self.from, self.to)
    }

    /// An idle channel.
    pub fn new(from: u32, to: u32, t0: SimTime) -> ChannelState {
        ChannelState {
            from,
            to,
            busy_with: None,
            queue: VecDeque::new(),
            busy: BusyTime::new(t0),
            bytes_carried: 0,
            transfers: 0,
            up: true,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn msg(src: u32, dst: u32, hops: u32) -> Message {
        Message {
            id: MsgId(0),
            job: JobId(0),
            from: Rank(0),
            to: Rank(1),
            bytes: 100,
            tag: Tag(1),
            src_node: src,
            dst_node: dst,
            hops,
            at_node: src,
            front_node: src,
            done_node: src,
            edges_done: 0,
            edges_started: 0,
            injected_at: SimTime::ZERO,
            buffered_on: None,
            attempts: 0,
            corrupt: false,
            timed_out: false,
            cancelled: false,
            live_refs: 0,
        }
    }

    #[test]
    fn route_geometry() {
        let m = msg(0, 3, 3);
        assert_eq!(m.hops(), 3);
        assert_eq!(m.current_node(), 0);
        assert!(!m.at_destination());
    }

    #[test]
    fn self_send_is_at_destination() {
        let m = msg(5, 5, 0);
        assert_eq!(m.hops(), 0);
        assert!(m.at_destination());
        assert_eq!(m.current_node(), 5);
    }

    #[test]
    fn advancing_reaches_destination() {
        let mut m = msg(0, 2, 2);
        m.at_node = 1;
        assert!(!m.at_destination());
        m.at_node = 2;
        assert!(m.at_destination());
        assert_eq!(m.current_node(), 2);
    }
}
