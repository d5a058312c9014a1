//! The CPU express path against the slice reference.
//!
//! Each case runs one small machine twice — as built, where a node's
//! round-robin between interrupts runs in closed form, and with
//! [`Machine::set_slice_reference`], where every slice is an event — and
//! demands the same response times, process accounting, counters,
//! [`MachineStats`] (f64 fields bit for bit, through their `Debug` text),
//! events processed and mid-run reads, each with node 0's `busy` signal
//! as the read leaves it. Each case also asserts the express path did
//! what it is there to exercise: one case per settle reason, a lone
//! process, unequal quanta, and same-instant ties in both orders,
//! including the second-order one where the touching event was itself
//! scheduled at the previous boundary's instant. A sweep lands a message
//! handler at every boundary instant of a window and 1 ns either side.

use parsched_des::prelude::*;
use parsched_machine::prelude::*;
use parsched_machine::{CpuExpressStats, SettleReason};
use parsched_obs::{CollectRecorder, ObsEvent, QuantumEndReason, TimedEvent};
use parsched_topology::build;

/// What a `PolicyTick { token }` does: `actions[token]`.
#[derive(Debug, Clone, Copy)]
enum Action {
    /// Retarget a job's quantum.
    Quantum(usize, SimDuration),
    /// Read a job's remaining demand.
    Read(usize),
    /// Park (`false`) or release (`true`) a job.
    Active(usize, bool),
    /// Schedule tick `token` after `delay`.
    Then(SimDuration, u64),
}

/// The machine plus a scripted policy on `PolicyTick`s.
struct Harness {
    m: Machine,
    jobs: Vec<JobId>,
    actions: Vec<Action>,
    /// `(instant, remaining demand, node 0's busy signal)` per read.
    reads: Vec<(SimTime, SimDuration, String)>,
}

impl Model for Harness {
    type Event = Event;

    fn handle(&mut self, now: SimTime, event: Event, sched: &mut impl EventScheduler<Event>) {
        let Event::PolicyTick { token } = event else {
            self.m.handle(now, event, sched);
            self.m.drain_notes();
            return;
        };
        match self.actions[token as usize] {
            Action::Quantum(j, q) => self.m.set_job_quantum(self.jobs[j], q, sched),
            Action::Read(j) => {
                let left = self.m.job_remaining(self.jobs[j], sched);
                let busy = format!("{:?}", self.m.node(0).cpu.busy);
                self.reads.push((now, left, busy));
            }
            Action::Active(j, on) => self.m.set_job_active(self.jobs[j], on, now, sched),
            Action::Then(delay, next) => sched.schedule(delay, Event::PolicyTick { token: next }),
        }
    }

    fn run_ended(&mut self, sched: &mut impl EventScheduler<Event>) {
        self.m.run_ended(sched);
    }
}

/// One scripted machine run.
#[derive(Clone)]
struct Case {
    nodes: usize,
    faults: FaultPlan,
    /// `(spec, placement, quantum, admitted at)`.
    jobs: Vec<(JobSpec, Vec<u32>, SimDuration, SimTime)>,
    actions: Vec<Action>,
    /// `(instant, token)` ticks seeded before the run.
    ticks: Vec<(SimTime, u64)>,
    horizon: SimTime,
}

/// Everything the two paths must agree on.
#[derive(Debug, PartialEq)]
struct Outcome {
    jobs: Vec<(JobState, SimTime)>,
    procs: Vec<(PState, SimDuration, SimDuration, SimTime)>,
    counters: Counters,
    stats: String,
    events: u64,
    reads: Vec<(SimTime, SimDuration, String)>,
    now: SimTime,
}

fn compute(ms: &[u64]) -> JobSpec {
    JobSpec {
        name: "compute".into(),
        ship_bytes: 0,
        procs: ms
            .iter()
            .map(|&ms| ProcSpec {
                program: vec![Op::Compute(SimDuration::from_millis(ms))],
                mem_bytes: 1024,
            })
            .collect(),
    }
}

fn ms(x: u64) -> SimDuration {
    SimDuration::from_millis(x)
}

impl Case {
    /// Node 0 rotates `procs` (`(compute ms, quantum ms)`), each its own
    /// job, all admitted at zero.
    fn rotation(procs: &[(u64, u64)]) -> Case {
        Case {
            nodes: 2,
            faults: FaultPlan::default(),
            jobs: procs
                .iter()
                .map(|&(c, q)| (compute(&[c]), vec![0], ms(q), SimTime::ZERO))
                .collect(),
            actions: Vec::new(),
            ticks: Vec::new(),
            horizon: SimTime::MAX,
        }
    }

    fn machine(&self, reference: bool, recorder: bool) -> (Harness, Engine<Event>) {
        // Near-instant loads, so every job is resident and rotating early.
        let cfg = MachineConfig {
            faults: self.faults.clone(),
            job_load_latency: SimDuration::from_micros(100),
            host_link_per_byte: SimDuration::from_nanos(1),
            ..MachineConfig::default()
        };
        let mut m = Machine::new(cfg, SystemNet::single(&build::linear(self.nodes).unwrap()));
        m.set_slice_reference(reference);
        if recorder {
            m.recorder = Some(Box::new(CollectRecorder::new()));
        }
        let mut engine = Engine::new(QueueKind::BinaryHeap);
        engine.horizon = self.horizon;
        m.seed_faults(&mut engine);
        let mut jobs = Vec::new();
        for (spec, placement, q, at) in &self.jobs {
            let id = m.queue_job(spec.clone(), placement.clone(), *q);
            engine.seed(*at, Event::Admit { job: id });
            jobs.push(id);
        }
        for &(at, token) in &self.ticks {
            engine.seed(at, Event::PolicyTick { token });
        }
        let h = Harness {
            m,
            jobs,
            actions: self.actions.clone(),
            reads: Vec::new(),
        };
        (h, engine)
    }

    fn run(&self, reference: bool) -> (Outcome, CpuExpressStats) {
        let (mut h, mut engine) = self.machine(reference, false);
        let outcome = engine.run(&mut h);
        if self.horizon == SimTime::MAX {
            assert_eq!(outcome, RunOutcome::Drained);
        }
        let m = &h.m;
        let out = Outcome {
            jobs: m.jobs().iter().map(|j| (j.state, j.finished_at)).collect(),
            procs: m
                .processes()
                .iter()
                .map(|p| (p.state, p.remaining, p.cpu_time, p.finished_at))
                .collect(),
            counters: m.counters.clone(),
            stats: format!("{:?}", MachineStats::capture(m, engine.now())),
            events: engine.events_processed(),
            reads: h.reads,
            now: engine.now(),
        };
        (out, m.cpu_express_stats())
    }

    /// Run both paths, demand identical outcomes, and return the express
    /// run's statistics.
    fn check(&self) -> CpuExpressStats {
        let (express, stats) = self.run(false);
        let (reference, none) = self.run(true);
        assert_eq!(none.windows, 0, "the reference opened a window");
        assert_eq!(
            express, reference,
            "express diverged from the slice reference ({stats})"
        );
        assert!(
            stats.windows > 0 && stats.slices_skipped > 0,
            "nothing went express: {stats}"
        );
        stats
    }

    /// Every event of an observed slice-by-slice run.
    fn observed(&self) -> Vec<TimedEvent> {
        let (mut h, mut engine) = self.machine(true, true);
        engine.run(&mut h);
        let mut rec = h.m.recorder.take().expect("installed");
        let rec = rec
            .as_any_mut()
            .downcast_mut::<CollectRecorder>()
            .expect("collector");
        rec.take_events()
    }

    /// The instants on node 0 where a slice ended for `why`, from an
    /// observed slice-by-slice run.
    fn quantum_ends(&self, why: QuantumEndReason) -> Vec<SimTime> {
        self.observed()
            .iter()
            .filter(
                |e| matches!(e.1, ObsEvent::QuantumEnd { node: 0, reason, .. } if reason == why),
            )
            .map(|e| e.0)
            .collect()
    }
}

fn settled(stats: &CpuExpressStats, why: SettleReason) -> u64 {
    stats.settled[why as usize]
}

#[test]
fn a_lone_process_rotates_in_closed_form() {
    let stats = Case::rotation(&[(23, 2)]).check();
    assert_eq!(stats.completed, stats.windows, "{stats}");
}

#[test]
fn unequal_quanta_rotate_in_closed_form() {
    let stats = Case::rotation(&[(15, 1), (22, 2), (31, 3), (9, 2)]).check();
    assert!(stats.windows >= 3, "{stats}");
}

#[test]
fn a_handler_arrival_settles_the_window() {
    // Rank 1 on node 1 sends to rank 0 on node 0 while node 0 rotates.
    let mut case = Case::rotation(&[(40, 2), (35, 2)]);
    let pair = JobSpec {
        name: "pair".into(),
        ship_bytes: 0,
        procs: vec![
            ProcSpec {
                program: vec![Op::Compute(ms(30)), Op::Recv { tag: Tag(1) }],
                mem_bytes: 1024,
            },
            ProcSpec {
                program: vec![
                    Op::Compute(SimDuration::from_micros(7_321)),
                    Op::Send {
                        to: Rank(0),
                        tag: Tag(1),
                        bytes: 4096,
                    },
                ],
                mem_bytes: 1024,
            },
        ],
    };
    case.jobs.push((pair, vec![0, 1], ms(2), SimTime::ZERO));
    let stats = case.check();
    assert!(settled(&stats, SettleReason::Interrupt) > 0, "{stats}");
}

#[test]
fn a_spawn_onto_the_node_settles_the_window() {
    let mut case = Case::rotation(&[(40, 2), (35, 2)]);
    case.jobs
        .push((compute(&[12]), vec![0], ms(2), SimTime(9_123_457)));
    let stats = case.check();
    assert!(settled(&stats, SettleReason::Wakeup) > 0, "{stats}");
}

#[test]
fn a_quantum_change_settles_the_window() {
    let mut case = Case::rotation(&[(40, 2), (35, 2), (28, 2)]);
    case.actions = vec![
        Action::Quantum(1, ms(3)),
        Action::Quantum(0, SimDuration::from_micros(1_500)),
    ];
    case.ticks = vec![(SimTime(9_300_001), 0), (SimTime(31_000_017), 1)];
    let stats = case.check();
    assert!(settled(&stats, SettleReason::Quantum) >= 2, "{stats}");
}

#[test]
fn parking_and_release_settle_the_window() {
    let mut case = Case::rotation(&[(40, 2), (35, 2), (28, 2)]);
    case.actions = vec![Action::Active(1, false), Action::Active(1, true)];
    case.ticks = vec![(SimTime(8_700_003), 0), (SimTime(21_100_011), 1)];
    let stats = case.check();
    assert!(settled(&stats, SettleReason::Parking) >= 2, "{stats}");
}

#[test]
fn a_crash_settles_the_window() {
    let mut case = Case::rotation(&[(40, 2), (35, 2)]);
    case.jobs
        .push((compute(&[30]), vec![1], ms(2), SimTime::ZERO));
    case.jobs
        .push((compute(&[25]), vec![1], ms(2), SimTime::ZERO));
    case.faults.crashes = vec![NodeCrash {
        node: 0,
        at: SimTime(17_654_321),
    }];
    let stats = case.check();
    assert!(settled(&stats, SettleReason::Fault) > 0, "{stats}");
}

#[test]
fn a_remaining_demand_read_sees_the_reference_value() {
    let mut case = Case::rotation(&[(40, 2), (35, 2), (28, 3)]);
    case.actions = vec![Action::Read(0), Action::Read(1), Action::Read(2)];
    case.ticks = vec![
        (SimTime(10_200_007), 0),
        (SimTime(10_200_007), 2),
        (SimTime(33_333_333), 1),
    ];
    let stats = case.check();
    assert!(settled(&stats, SettleReason::Read) >= 3, "{stats}");
    let (out, _) = case.run(false);
    assert_eq!(out.reads.len(), 3);
    assert!(out.reads.iter().all(|(_, left, _)| !left.is_zero()));
}

#[test]
fn a_stop_mid_window_leaves_reference_state() {
    let mut case = Case::rotation(&[(40, 2), (35, 2), (28, 3)]);
    case.horizon = SimTime(26_543_210);
    let stats = case.check();
    assert!(settled(&stats, SettleReason::RunEnd) > 0, "{stats}");
}

/// Three processes on node 0 under a 2 ms quantum; a quantum change lands
/// exactly on expiry `k`, scheduled so that it fires `first` (before the
/// boundary's `SliceEnd` in the reference) or after it.
fn tie_case(first: bool) -> (Case, SimTime) {
    let mut case = Case::rotation(&[(40, 2), (35, 2), (28, 2)]);
    let expiries = case.quantum_ends(QuantumEndReason::Expired);
    let (prev, at) = (expiries[5], expiries[6]);
    case.actions = vec![
        Action::Quantum(2, ms(3)),
        Action::Then(at.since(prev) - SimDuration::from_nanos(1), 0),
    ];
    case.ticks = if first {
        // Seeded before the run: issued before the boundary's timer.
        vec![(at, 0)]
    } else {
        // Issued just after the previous boundary was handled, so after
        // the boundary's timer.
        vec![(prev + SimDuration::from_nanos(1), 1)]
    };
    (case, at)
}

#[test]
fn a_touch_issued_before_the_boundary_fires_first() {
    let (case, _) = tie_case(true);
    let stats = case.check();
    assert!(stats.ties[1] > 0, "{stats}");
}

#[test]
fn a_touch_issued_after_the_boundary_fires_second() {
    let (case, _) = tie_case(false);
    let stats = case.check();
    assert!(stats.ties[0] > 0, "{stats}");
}

/// The second-order tie: the touch at boundary `k` was scheduled by an
/// event at boundary `k − 1`'s very instant, with a delay of one slice, so
/// which of the two fires first at `k` depends on the order at `k − 1`.
#[test]
fn a_touch_scheduled_at_the_previous_boundary_inherits_its_order() {
    let base = Case::rotation(&[(40, 2), (35, 2), (28, 2)]);
    let expiries = base.quantum_ends(QuantumEndReason::Expired);
    let (before, prev, at) = (expiries[4], expiries[5], expiries[6]);
    let slice = at.since(prev);
    let mut seen = [0, 0];
    for first in [true, false] {
        let mut case = base.clone();
        case.actions = vec![
            Action::Quantum(1, ms(3)),
            Action::Then(slice, 0),
            Action::Then(prev.since(before) - SimDuration::from_nanos(1), 1),
        ];
        case.ticks = if first {
            // The tick at `prev` is seeded, so it precedes that boundary
            // and its follow-up precedes boundary `k`.
            vec![(prev, 1)]
        } else {
            // The tick at `prev` is issued after boundary `k − 2`, so it
            // follows boundary `k − 1` and its follow-up boundary `k`.
            vec![(before + SimDuration::from_nanos(1), 2)]
        };
        let stats = case.check();
        seen[0] += stats.ties[0];
        seen[1] += stats.ties[1];
    }
    assert!(seen[0] > 0 && seen[1] > 0, "ties {seen:?}");
}

/// A natural end that re-arms behind a same-instant tick issued during its
/// window, where the tick parks the completing job: the settle keeps the
/// re-armed timer, which already sits at the reference key, and the
/// preemption cancels it.
#[test]
fn a_park_at_the_natural_end_cancels_the_rearmed_timer() {
    let mut case = Case::rotation(&[(40, 2), (35, 2), (28, 2)]);
    let end = case.quantum_ends(QuantumEndReason::Completed)[0];
    let issued = case.quantum_ends(QuantumEndReason::Expired)[3] + SimDuration::from_nanos(1);
    case.actions = vec![
        Action::Active(2, false),
        Action::Then(end.since(issued), 0),
        Action::Active(2, true),
    ];
    case.ticks = vec![(issued, 1), (end + ms(5), 2)];
    let stats = case.check();
    assert!(
        stats.rearmed > 0 && settled(&stats, SettleReason::Parking) > 0,
        "{stats}"
    );
}

/// Node 0 rotates three jobs admitted at 20 ms while rank 1 of a fourth
/// job, admitted at zero and alone on node 1, computes `c` and sends
/// `bytes` to rank 0, which waits in `Recv` on node 0: the message's
/// handler interrupts node 0's rotation. The late admission puts every
/// boundary of the rotation beyond the shortest send.
fn interrupted(c: SimDuration, bytes: u64) -> Case {
    let mut case = Case::rotation(&[(40, 2), (35, 2), (28, 2)]);
    for job in &mut case.jobs {
        job.3 = SimTime::ZERO + ms(20);
    }
    let pair = JobSpec {
        name: "pair".into(),
        ship_bytes: 0,
        procs: vec![
            ProcSpec {
                program: vec![Op::Recv { tag: Tag(1) }],
                mem_bytes: 1024,
            },
            ProcSpec {
                program: vec![
                    Op::Compute(c),
                    Op::Send {
                        to: Rank(0),
                        tag: Tag(1),
                        bytes,
                    },
                ],
                mem_bytes: 1024,
            },
        ],
    };
    // One slice on node 1, so the send leaves exactly `c` after its start.
    case.jobs
        .push((pair, vec![0, 1], SimDuration::from_secs(1), SimTime::ZERO));
    case
}

/// When the message's handler starts on node 0, from an observed
/// slice-by-slice run.
fn handler_arrival(case: &Case) -> SimTime {
    case.observed()
        .iter()
        .find(|e| matches!(e.1, ObsEvent::HandlerStart { node: 0, .. }))
        .expect("the message reaches node 0")
        .0
}

/// A message handler lands on every boundary instant `B(1) ..= B(m + 1)`
/// of node 0's first window, and 1 ns either side of each. A small
/// message is issued within the slice it lands in, so at a boundary the
/// boundary goes first; a large one is issued two slices earlier, so it
/// goes first, and at the natural end the window's timer re-arms behind
/// it. Every settle replays up to exactly the boundary it lands on or
/// the one before.
#[test]
fn an_interrupt_at_every_boundary_of_a_window_matches_the_slice_reference() {
    // With the message far off, node 0's first window runs undisturbed:
    // its boundaries are the expiries before the first completion, which
    // is its natural end.
    let quiet = interrupted(ms(900), 64);
    let end = quiet.quantum_ends(QuantumEndReason::Completed)[0];
    let mut boundaries = quiet.quantum_ends(QuantumEndReason::Expired);
    boundaries.retain(|&t| t < end);
    boundaries.push(end);
    assert!(boundaries.len() > 30, "{} boundaries", boundaries.len());
    let mut seen = CpuExpressStats::default();
    let mut cases = 0u64;
    for bytes in [64, 8_192] {
        // The handler starts a fixed lag after the send's compute.
        let lag = |c: SimDuration| handler_arrival(&interrupted(c, bytes)).nanos() - c.nanos();
        let lag0 = lag(ms(300));
        assert_eq!(lag0, lag(ms(301) + SimDuration::from_nanos(7)), "{bytes} B");
        for b in &boundaries {
            for at in [b.nanos() - 1, b.nanos(), b.nanos() + 1] {
                let c = SimDuration::from_nanos(at - lag0);
                seen.absorb(&interrupted(c, bytes).check());
                cases += 1;
            }
        }
    }
    assert!(
        seen.settled[SettleReason::Interrupt as usize] >= cases / 2,
        "{seen}"
    );
    assert!(seen.rearmed > 0, "no natural end re-armed: {seen}");
    assert!(seen.ties[0] > 0 && seen.ties[1] > 0, "ties {:?}", seen.ties);
}
