//! Runtime invariant checkers, usable from any test.
//!
//! Each checker asserts a law the simulation must obey regardless of
//! policy, topology, workload, or engine; a violation panics with a
//! message naming the law and the offending state, so these slot directly
//! into `#[test]` bodies. They come in two groups:
//!
//! * **machine-state checkers** ([`check_message_conservation`],
//!   [`check_work_conservation`]) read only the machine's public counters
//!   and job records — they work with observability recording *off*;
//! * **event-stream checkers** ([`check_event_stream`],
//!   [`check_fcfs_admission`]) and the gauge checker
//!   ([`check_cpu_conservation`]) consume what a `CollectRecorder` /
//!   `MachineMetrics` captured — recording *on*.

use parsched_des::SimDuration;
use parsched_machine::{Counters, JobState, JobSummary, Machine, MachineMetrics};
use parsched_obs::{ObsEvent, TimedEvent};
use std::collections::HashMap;

/// At quiesce every injected message has been consumed or declared
/// dropped by a fault: nothing is *silently* lost. On a fault-free run
/// `messages_dropped` is zero and this is the strict sent == consumed
/// law. Valid after a run that drained with all jobs in a terminal
/// state. Works with recording off.
pub fn check_message_conservation(machine: &Machine) {
    let c = &machine.counters;
    assert_eq!(
        c.messages_sent,
        c.messages_consumed + c.messages_dropped,
        "message conservation violated: {} sent != {} consumed + {} dropped at quiesce",
        c.messages_sent,
        c.messages_consumed,
        c.messages_dropped
    );
}

/// Flit and credit conservation under wormhole switching, from the
/// counters alone (recording off). Every flit a worm injected was either
/// ejected at a destination or accounted dropped by a drain (link outage
/// or job kill), and every credit a link transmit consumed was returned
/// by the downstream buffer drain — nothing leaks, nothing is minted.
/// Trivially true (all zeros) under the other switching modes, so it is
/// safe to call unconditionally after any drained run.
pub fn check_flit_conservation(counters: &Counters) {
    assert_eq!(
        counters.flits_injected,
        counters.flits_ejected + counters.flits_dropped,
        "flit conservation violated: {} injected != {} ejected + {} dropped",
        counters.flits_injected,
        counters.flits_ejected,
        counters.flits_dropped
    );
    assert_eq!(
        counters.credits_issued, counters.credits_returned,
        "credit conservation violated: {} issued != {} returned at quiesce",
        counters.credits_issued, counters.credits_returned
    );
}

/// Work conservation at completion, with recording off:
///
/// * every *completed* job accrued at least its sequential compute demand
///   (CPU time = compute + messaging software costs, so demand is a hard
///   floor — losing a quantum must never lose *work*); a fault-killed
///   incarnation (`Failed`) owes no floor, but the CPU it did burn still
///   counts against capacity;
/// * total CPU time across jobs fits in `nodes x makespan` (the machine
///   cannot mint CPU time, faults or not).
pub fn check_work_conservation(machine: &Machine, makespan: SimDuration) {
    let nodes = machine.net().nodes() as u64;
    let mut total = SimDuration::ZERO;
    for job in machine.jobs() {
        assert!(
            matches!(job.state, JobState::Done | JobState::Failed),
            "job {} not terminal at quiesce",
            job.name
        );
        let summary = JobSummary::capture(machine, job.id);
        if job.state == JobState::Done {
            assert!(
                summary.cpu_time >= summary.demand,
                "work lost: job {} accrued {} CPU < demand {}",
                job.name,
                summary.cpu_time,
                summary.demand
            );
        }
        total += summary.cpu_time;
    }
    let capacity = SimDuration::from_nanos(makespan.nanos() * nodes);
    assert!(
        total <= capacity,
        "CPU time minted: jobs accrued {total} > {nodes} nodes x {makespan} span"
    );
}

/// Causality and protocol well-formedness of a recorded event stream:
///
/// * timestamps never decrease;
/// * a message is delivered only after it was sent, to the node it was
///   sent to, under the job that sent it (message-id recycling respected:
///   an id may be reused only once its previous flight delivered);
/// * hops only move messages that are in flight or declared dropped (a
///   dropped message's in-flight references drain without acting on it);
/// * per node, handler and quantum start/end events strictly alternate
///   and agree on what was running;
/// * at the end of the stream nothing is left in flight or running —
///   undelivered messages are allowed only if a `MsgDropped` accounted
///   for them.
pub fn check_event_stream(events: &[TimedEvent]) {
    use std::collections::HashSet;
    let mut last = None;
    // msg id -> (job, dst) while in flight (sent, not yet delivered).
    let mut in_flight: HashMap<u32, (u32, u32)> = HashMap::new();
    // msg ids terminally dropped by a fault (slot may be recycled later).
    let mut dropped: HashSet<u32> = HashSet::new();
    // node -> msg of the running handler.
    let mut handler: HashMap<u32, u32> = HashMap::new();
    // node -> (job, rank) of the running low-priority slice.
    let mut quantum: HashMap<u32, (u32, u32)> = HashMap::new();
    for (i, (at, ev)) in events.iter().enumerate() {
        if let Some(prev) = last {
            assert!(
                *at >= prev,
                "event {i} at {at} precedes its predecessor at {prev}"
            );
        }
        last = Some(*at);
        match *ev {
            ObsEvent::MsgSend { msg, job, dst, .. } => {
                // A dropped message's slot may be recycled by a new send.
                dropped.remove(&msg);
                let stale = in_flight.insert(msg, (job, dst));
                assert!(
                    stale.is_none(),
                    "event {i}: msg {msg} re-sent while still in flight"
                );
            }
            ObsEvent::MsgDeliver { msg, job, node } => {
                let Some((sjob, sdst)) = in_flight.remove(&msg) else {
                    panic!("event {i}: msg {msg} delivered but never sent (causality)")
                };
                assert_eq!(
                    (sjob, sdst),
                    (job, node),
                    "event {i}: msg {msg} delivered to job {job}/node {node}, \
                     sent for job {sjob}/node {sdst}"
                );
            }
            ObsEvent::HopStart { msg, .. } | ObsEvent::HopEnd { msg, .. } => {
                assert!(
                    in_flight.contains_key(&msg) || dropped.contains(&msg),
                    "event {i}: hop of msg {msg} which is not in flight"
                );
            }
            // Wormhole protocol events name in-flight worms (a drain fires
            // before the retry/drop that disposes of the message, so its
            // message is still in flight at that point).
            ObsEvent::WormVcAlloc { msg, .. }
            | ObsEvent::WormStall { msg, .. }
            | ObsEvent::WormDrained { msg, .. } => {
                assert!(
                    in_flight.contains_key(&msg) || dropped.contains(&msg),
                    "event {i}: worm event for msg {msg} which is not in flight"
                );
            }
            ObsEvent::MsgDropped { msg, .. } => {
                // In flight (fault killed it mid-route) or already
                // delivered but never to be consumed (mailbox purge of a
                // killed job) — either way it is accounted, not lost.
                in_flight.remove(&msg);
                dropped.insert(msg);
            }
            ObsEvent::HandlerStart { node, msg } => {
                let prev = handler.insert(node, msg);
                assert!(
                    prev.is_none(),
                    "event {i}: handler for msg {msg} started on node {node} \
                     while handler for msg {prev:?} still runs"
                );
            }
            ObsEvent::HandlerEnd { node, msg } => {
                assert_eq!(
                    handler.remove(&node),
                    Some(msg),
                    "event {i}: handler end on node {node} without matching start"
                );
            }
            ObsEvent::QuantumStart { node, job, rank } => {
                let prev = quantum.insert(node, (job, rank));
                assert!(
                    prev.is_none(),
                    "event {i}: quantum started on node {node} \
                     while {prev:?} still runs"
                );
            }
            ObsEvent::QuantumEnd {
                node, job, rank, ..
            } => {
                assert_eq!(
                    quantum.remove(&node),
                    Some((job, rank)),
                    "event {i}: quantum end on node {node} without matching start"
                );
            }
            ObsEvent::JobArrived { .. }
            | ObsEvent::JobLoaded { .. }
            | ObsEvent::JobFinished { .. }
            | ObsEvent::PartitionAdmit { .. }
            | ObsEvent::NodeCrashed { .. }
            | ObsEvent::LinkDown { .. }
            | ObsEvent::LinkUp { .. }
            | ObsEvent::MsgRetry { .. }
            | ObsEvent::MsgTimeout { .. }
            | ObsEvent::JobFailed { .. }
            | ObsEvent::JobRequeued { .. }
            | ObsEvent::JobSubmitted { .. }
            | ObsEvent::JobDeparted { .. }
            | ObsEvent::ShardPhase { .. } => {}
        }
    }
    assert!(
        in_flight.is_empty(),
        "{} messages still in flight at end of stream: {:?}",
        in_flight.len(),
        in_flight.keys().take(8).collect::<Vec<_>>()
    );
    assert!(handler.is_empty(), "handlers still running: {handler:?}");
    assert!(quantum.is_empty(), "quanta still open: {quantum:?}");
}

/// FCFS admission under the paper's policies: job ids are assigned in
/// arrival order and the super scheduler's queue never lets a later job
/// overtake an earlier one, so `PartitionAdmit` events carry strictly
/// increasing job ids. Valid for FCFS runs (any closed batch; open
/// arrivals seeded in index order).
pub fn check_fcfs_admission(events: &[TimedEvent]) {
    let mut last: Option<u32> = None;
    for (at, ev) in events {
        if let ObsEvent::PartitionAdmit { job, partition } = *ev {
            if let Some(prev) = last {
                assert!(
                    job > prev,
                    "FCFS violated at {at}: job {job} admitted to partition \
                     {partition} after job {prev}"
                );
            }
            last = Some(job);
        }
    }
}

/// Per-node CPU conservation from the time-weighted gauges: busy and idle
/// are exact complements, so their integrals sum to the run span exactly
/// (0/1 gauges stepped at integer-nanosecond instants are exact in f64).
/// Recording on.
pub fn check_cpu_conservation(metrics: &MachineMetrics, node_count: u32, span: SimDuration) {
    let span = span.nanos() as f64;
    for node in 0..node_count {
        let busy = metrics.registry.integral_ns(metrics.cpu_busy_id(node));
        let idle = metrics.registry.integral_ns(metrics.cpu_idle_id(node));
        assert_eq!(
            busy + idle,
            span,
            "CPU conservation violated on node {node}: busy {busy} + idle {idle} != span {span}"
        );
    }
}
