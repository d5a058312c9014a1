//! A CPU express window whose natural-end timer re-armed behind a
//! same-instant event, which then parks the completing job, on the oracle
//! engine.
//!
//! The park settles the window when the re-armed timer already sits at the
//! slice path's key, and its preemption cancels that timer. The oracle
//! tracks cancelled timers by key, so a settle that armed the same key a
//! second time would let the cancelled twin fire and count one event more
//! than the slice reference; the oracle now refuses the second arming.

use parsched_des::prelude::*;
use parsched_machine::prelude::*;
use parsched_obs::{CollectRecorder, ObsEvent, QuantumEndReason};
use parsched_oracle::OracleEngine;
use parsched_topology::build;

/// Node 0 rotates three compute jobs under a 2 ms quantum; tick 1
/// schedules tick 0 after `delay`, tick 0 parks job 2 and tick 2 releases
/// it.
struct Harness {
    m: Machine,
    jobs: Vec<JobId>,
    delay: SimDuration,
}

impl Model for Harness {
    type Event = Event;

    fn handle(&mut self, now: SimTime, event: Event, sched: &mut impl EventScheduler<Event>) {
        match event {
            Event::PolicyTick { token: 0 } => self.m.set_job_active(self.jobs[2], false, now, sched),
            Event::PolicyTick { token: 1 } => sched.schedule(self.delay, Event::PolicyTick { token: 0 }),
            Event::PolicyTick { .. } => self.m.set_job_active(self.jobs[2], true, now, sched),
            _ => {
                self.m.handle(now, event, sched);
                self.m.drain_notes();
            }
        }
    }

    fn run_ended(&mut self, sched: &mut impl EventScheduler<Event>) {
        self.m.run_ended(sched);
    }
}

/// The machine with its jobs and `ticks` seeded into `seeder`.
fn harness(
    reference: bool,
    ticks: &[(SimTime, u64)],
    delay: SimDuration,
    seeder: &mut impl EventSeeder<Event>,
) -> Harness {
    let cfg = MachineConfig {
        job_load_latency: SimDuration::from_micros(100),
        host_link_per_byte: SimDuration::from_nanos(1),
        ..MachineConfig::default()
    };
    let mut m = Machine::new(cfg, SystemNet::single(&build::linear(2).unwrap()));
    m.set_slice_reference(reference);
    let jobs = [40, 35, 28]
        .map(|ms| {
            let spec = JobSpec {
                name: "compute".into(),
                ship_bytes: 0,
                procs: vec![ProcSpec {
                    program: vec![Op::Compute(SimDuration::from_millis(ms))],
                    mem_bytes: 1024,
                }],
            };
            let id = m.queue_job(spec, vec![0], SimDuration::from_millis(2));
            seeder.seed(SimTime::ZERO, Event::Admit { job: id });
            id
        })
        .to_vec();
    for &(at, token) in ticks {
        seeder.seed(at, Event::PolicyTick { token });
    }
    Harness { m, jobs, delay }
}

#[test]
fn a_park_at_a_rearmed_natural_end_matches_the_slice_reference() {
    // Where node 0's slices end, from an observed slice-by-slice run.
    let mut engine = Engine::new(QueueKind::BinaryHeap);
    let mut h = harness(true, &[], SimDuration::ZERO, &mut engine);
    h.m.recorder = Some(Box::new(CollectRecorder::new()));
    engine.run(&mut h);
    let mut rec = h.m.recorder.take().expect("installed");
    let rec = rec.as_any_mut().downcast_mut::<CollectRecorder>().expect("collector");
    let ends = |why: QuantumEndReason| -> Vec<SimTime> {
        rec.events()
            .iter()
            .filter(|e| matches!(e.1, ObsEvent::QuantumEnd { node: 0, reason, .. } if reason == why))
            .map(|e| e.0)
            .collect()
    };
    let end = ends(QuantumEndReason::Completed)[0];
    // Issued mid-window, so the park lands on the natural end after the
    // window opened but before the run passes the last skipped boundary.
    let issued = ends(QuantumEndReason::Expired)[3] + SimDuration::from_nanos(1);
    let ticks = [(issued, 1), (end + SimDuration::from_millis(5), 2)];
    let delay = end.since(issued);

    let mut reference = Engine::new(QueueKind::BinaryHeap);
    let mut r = harness(true, &ticks, delay, &mut reference);
    assert_eq!(reference.run(&mut r), RunOutcome::Drained);

    let mut oracle = OracleEngine::new();
    let mut x = harness(false, &ticks, delay, &mut oracle);
    assert_eq!(oracle.run(&mut x), RunOutcome::Drained);

    let stats = x.m.cpu_express_stats();
    assert!(stats.rearmed > 0 && stats.slices_skipped > 0, "{stats}");
    let finished = |h: &Harness| h.m.jobs().iter().map(|j| j.finished_at).collect::<Vec<_>>();
    assert_eq!(finished(&x), finished(&r));
    assert_eq!(x.m.counters, r.m.counters);
    assert_eq!(oracle.events_processed(), reference.events_processed(), "{stats}");
}
