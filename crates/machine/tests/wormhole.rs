//! End-to-end tests of wormhole switching: flit-pipelined delivery across
//! every topology family, credit/flit conservation, VC contention, fault
//! drains (link outages and job kills), and deterministic replay.
#![allow(clippy::field_reassign_with_default)]

use parsched_des::prelude::*;
use parsched_machine::fault::{LinkWindow, NodeCrash};
use parsched_machine::prelude::*;
use parsched_topology::{build, Topology};

fn wormhole_cfg() -> MachineConfig {
    MachineConfig {
        switching: Switching::Wormhole,
        job_load_latency: SimDuration::ZERO,
        host_link_per_byte: SimDuration::ZERO,
        ..MachineConfig::default()
    }
}

fn run(machine: &mut Machine, jobs: &[JobId]) -> SimTime {
    let mut engine = Engine::new(QueueKind::BinaryHeap);
    engine.max_events = 10_000_000;
    machine.seed_faults(&mut engine);
    for &j in jobs {
        engine.seed(SimTime::ZERO, Event::Admit { job: j });
    }
    let outcome = engine.run(machine);
    assert_eq!(outcome, RunOutcome::Drained, "simulation did not drain");
    engine.now()
}

fn pair_spec(bytes: u64) -> JobSpec {
    JobSpec {
        name: "worm".into(),
        ship_bytes: 0,
        procs: vec![
            ProcSpec {
                program: vec![Op::Send {
                    to: Rank(1),
                    bytes,
                    tag: Tag(1),
                }],
                mem_bytes: 0,
            },
            ProcSpec {
                program: vec![Op::Recv { tag: Tag(1) }],
                mem_bytes: 0,
            },
        ],
    }
}

/// The invariant the differential oracle also checks: every injected flit
/// is ejected or accounted dropped, every issued credit came back, and no
/// virtual channel or worm outlives the run.
fn assert_flit_conservation(m: &Machine) {
    let c = &m.counters;
    assert_eq!(
        c.flits_injected,
        c.flits_ejected + c.flits_dropped,
        "flit conservation"
    );
    assert_eq!(c.credits_issued, c.credits_returned, "credit conservation");
    let wh = m.wormhole().expect("wormhole machine");
    assert_eq!(wh.occupied_vcs(), 0, "VC leak");
    assert!(wh.worms.iter().all(|w| w.is_none()), "worm leak");
}

#[test]
fn wormhole_delivers_across_every_topology_family() {
    // (topology, src host, dst host): each pair crosses the part of the
    // fabric its escape classes exist for (ring/torus wraparound, fat-tree
    // up/down turn, dragonfly global link).
    let cases: Vec<(Topology, u32, u32)> = vec![
        (build::linear(4).unwrap(), 0, 3),
        (build::ring(6).unwrap(), 0, 4),
        (build::torus(4, 4).unwrap(), 0, 15),
        (build::fat_tree(4).unwrap(), 0, 15),
        (build::dragonfly(2, 1, 1).unwrap(), 1, 11),
    ];
    for (topo, src, dst) in cases {
        let kind = topo.kind();
        let mut m = Machine::new(wormhole_cfg(), SystemNet::single(&topo));
        let job = m.queue_job(pair_spec(4096), vec![src, dst], SimDuration::from_millis(2));
        run(&mut m, &[job]);
        assert!(m.all_jobs_done(), "undelivered on {kind:?}");
        assert_eq!(m.counters.messages_consumed, 1, "{kind:?}");
        // 4096 B = 64 payload flits + 1 header, injected exactly once.
        assert_eq!(m.counters.flits_injected, 65, "{kind:?}");
        assert_eq!(m.counters.flits_dropped, 0, "{kind:?}");
        assert!(m.counters.vc_allocs as usize >= 1, "{kind:?}");
        assert_flit_conservation(&m);
        for n in 0..m.node_count() {
            assert_eq!(m.node(n as u32).mmu.used(), 0, "leak on {kind:?} node {n}");
        }
    }
}

#[test]
fn wormhole_pipelines_long_messages_unlike_saf() {
    // A 50 KB worm over 7 links: the head streams while the tail is still
    // at the source, so the makespan is one serialization plus the
    // pipeline fill — not 7 serializations like store-and-forward.
    let mut times = Vec::new();
    for switching in [Switching::StoreAndForward, Switching::Wormhole] {
        let mut cfg = wormhole_cfg();
        cfg.switching = switching;
        let mut m = Machine::new(cfg, SystemNet::single(&build::linear(8).unwrap()));
        let job = m.queue_job(pair_spec(50_000), vec![0, 7], SimDuration::from_millis(2));
        let end = run(&mut m, &[job]);
        assert!(m.all_jobs_done());
        times.push(end.since(SimTime::ZERO));
        for n in 0..8 {
            assert_eq!(m.node(n).mmu.used(), 0, "leak ({switching:?}) node {n}");
        }
    }
    assert!(
        times[1].as_secs_f64() < times[0].as_secs_f64() * 0.4,
        "wormhole {} not much faster than SAF {}",
        times[1],
        times[0]
    );
}

#[test]
fn worms_contend_for_the_single_escape_vc() {
    // Two jobs funnel through the shared middle links of a linear array.
    // With one escape class x one VC per class, the second worm must wait
    // for the first to release each link's only VC — both still deliver.
    let mut m = Machine::new(
        wormhole_cfg(),
        SystemNet::single(&build::linear(4).unwrap()),
    );
    let a = m.queue_job(pair_spec(8192), vec![0, 3], SimDuration::from_millis(2));
    let b = m.queue_job(pair_spec(8192), vec![0, 3], SimDuration::from_millis(2));
    run(&mut m, &[a, b]);
    assert!(m.all_jobs_done());
    assert_eq!(m.counters.messages_consumed, 2);
    // Each worm allocates a VC on each of its 3 links.
    assert_eq!(m.counters.vc_allocs, 6);
    assert_flit_conservation(&m);
}

#[test]
fn link_outage_drains_the_worm_and_retry_redelivers() {
    // The outage window opens mid-worm (injection ~30.5 ms after t=0, the
    // 783-flit worm occupies its only link for ~29.5 ms): the resident
    // worm is torn down, its untransmitted flits are accounted dropped,
    // and the retry protocol re-runs the whole worm after repair.
    let mut cfg = wormhole_cfg();
    cfg.faults.links.push(LinkWindow {
        from: 0,
        to: 1,
        down_at: SimTime::ZERO + SimDuration::from_millis(40),
        up_at: SimTime::ZERO + SimDuration::from_millis(55),
    });
    let mut m = Machine::new(cfg, SystemNet::single(&build::linear(2).unwrap()));
    let job = m.queue_job(pair_spec(50_000), vec![0, 1], SimDuration::from_millis(2));
    run(&mut m, &[job]);
    assert_eq!(m.job(job).state, JobState::Done);
    assert!(m.counters.retries >= 1, "outage must force a retry");
    assert!(
        m.counters.flits_dropped > 0,
        "drained flits must be accounted"
    );
    assert_eq!(m.counters.messages_consumed, 1);
    assert_flit_conservation(&m);
    for n in 0..2 {
        assert_eq!(m.node(n).mmu.used(), 0, "leak on node {n}");
    }
}

#[test]
fn node_crash_mid_worm_drains_without_retry() {
    // The destination CPU fail-stops while the worm is on the wire: the
    // job is killed, the worm drained, and every in-network flit accounted
    // dropped — conservation must still balance.
    let mut cfg = wormhole_cfg();
    cfg.faults.crashes.push(NodeCrash {
        node: 1,
        at: SimTime::ZERO + SimDuration::from_millis(40),
    });
    let mut m = Machine::new(cfg, SystemNet::single(&build::linear(2).unwrap()));
    let job = m.queue_job(pair_spec(50_000), vec![0, 1], SimDuration::from_millis(2));
    run(&mut m, &[job]);
    assert_eq!(m.job(job).state, JobState::Failed);
    assert!(m.counters.flits_dropped > 0, "killed worm must drop flits");
    assert_eq!(
        m.counters.messages_sent,
        m.counters.messages_consumed + m.counters.messages_dropped
    );
    assert_flit_conservation(&m);
}

#[test]
fn wormhole_replay_is_deterministic() {
    fn run_once() -> Vec<parsched_obs::TimedEvent> {
        let mut cfg = wormhole_cfg();
        cfg.faults.links.push(LinkWindow {
            from: 1,
            to: 2,
            down_at: SimTime::ZERO + SimDuration::from_millis(35),
            up_at: SimTime::ZERO + SimDuration::from_millis(45),
        });
        cfg.faults.drop_prob = 0.05;
        cfg.faults.drop_seed = 11;
        let mut m = Machine::new(cfg, SystemNet::single(&build::ring(6).unwrap()));
        let a = m.queue_job(pair_spec(20_000), vec![0, 4], SimDuration::from_millis(2));
        let b = m.queue_job(pair_spec(20_000), vec![2, 5], SimDuration::from_millis(2));
        m.recorder = Some(Box::new(parsched_obs::CollectRecorder::new()));
        run(&mut m, &[a, b]);
        assert_flit_conservation(&m);
        let rec = m
            .recorder
            .as_mut()
            .and_then(|r| {
                r.as_any_mut()
                    .downcast_mut::<parsched_obs::CollectRecorder>()
            })
            .expect("collector installed");
        rec.take_events()
    }
    let first = run_once();
    let second = run_once();
    assert!(!first.is_empty());
    assert_eq!(first, second, "wormhole replay diverged");
}

// ----------------------------------------------------------------------
// Express path: every case runs twice, on the express path and on the
// flit reference, and the two must agree on everything but the events.
// ----------------------------------------------------------------------

/// Everything a run produces that the express path must reproduce.
#[derive(Debug, PartialEq)]
struct Outcome {
    end: SimTime,
    jobs: Vec<(JobState, SimTime, SimTime)>,
    counters: Counters,
    /// `MachineStats` through `Debug`, which round-trips every f64.
    stats: String,
}

/// A machine plus jobs that arrive mid-run. `PolicyTick { token: i }`
/// queues `late[i]` onto the machine and admits it: after every event
/// already due at that instant (`inline == false`, as the policy driver
/// does) or inside the tick itself (`inline == true`, ahead of the flit
/// ticks that fall due at the same instant).
struct Harness {
    m: Machine,
    late: Vec<(JobSpec, Vec<u32>)>,
    inline: bool,
}

impl Model for Harness {
    type Event = Event;
    fn handle(&mut self, now: SimTime, ev: Event, sched: &mut impl EventScheduler<Event>) {
        let Event::PolicyTick { token } = ev else {
            return self.m.handle(now, ev, sched);
        };
        let (spec, placement) = self.late[token as usize].clone();
        let job = self
            .m
            .queue_job(spec, placement, SimDuration::from_millis(2));
        if self.inline {
            self.m.handle(now, Event::Admit { job }, sched);
        } else {
            sched.schedule_now(Event::Admit { job });
        }
    }
}

/// One express-vs-flit case: jobs admitted at t = 0, jobs admitted at
/// given instants, and optional recorder.
struct Case {
    cfg: MachineConfig,
    topo: Topology,
    jobs: Vec<(JobSpec, Vec<u32>)>,
    late: Vec<(SimTime, JobSpec, Vec<u32>)>,
    inline: bool,
    record: bool,
}

impl Case {
    fn new(cfg: MachineConfig, topo: Topology, jobs: Vec<(JobSpec, Vec<u32>)>) -> Case {
        Case {
            cfg,
            topo,
            jobs,
            late: Vec::new(),
            inline: false,
            record: false,
        }
    }

    fn machine(&self, flit_reference: bool) -> (Harness, Engine<Event>) {
        let mut m = Machine::new(self.cfg.clone(), SystemNet::single(&self.topo));
        m.set_flit_reference(flit_reference);
        if self.record {
            m.recorder = Some(Box::new(parsched_obs::CollectRecorder::new()));
        }
        let mut engine = Engine::new(QueueKind::BinaryHeap);
        engine.max_events = 10_000_000;
        m.seed_faults(&mut engine);
        for (spec, placement) in &self.jobs {
            let job = m.queue_job(spec.clone(), placement.clone(), SimDuration::from_millis(2));
            engine.seed(SimTime::ZERO, Event::Admit { job });
        }
        for (i, (at, _, _)) in self.late.iter().enumerate() {
            engine.seed(*at, Event::PolicyTick { token: i as u64 });
        }
        let late = self
            .late
            .iter()
            .map(|(_, s, p)| (s.clone(), p.clone()))
            .collect();
        (
            Harness {
                m,
                late,
                inline: self.inline,
            },
            engine,
        )
    }

    fn run(&self, flit_reference: bool) -> (Outcome, ExpressStats) {
        let (mut h, mut engine) = self.machine(flit_reference);
        assert_eq!(
            engine.run(&mut h),
            RunOutcome::Drained,
            "simulation did not drain"
        );
        let m = &h.m;
        assert_flit_conservation(m);
        let outcome = Outcome {
            end: engine.now(),
            jobs: m
                .jobs()
                .iter()
                .map(|j| (j.state, j.submitted_at, j.finished_at))
                .collect(),
            counters: m.counters.clone(),
            stats: format!("{:?}", MachineStats::capture(m, engine.now())),
        };
        (outcome, m.wormhole().expect("wormhole machine").stats)
    }

    /// Run both paths, demand identical outcomes, return the express
    /// run's path counts.
    fn check(&self) -> ExpressStats {
        let (express, stats) = self.run(false);
        let (flit, reference) = self.run(true);
        assert_eq!(
            express, flit,
            "express path diverged from the flit reference ({stats})"
        );
        assert_eq!(reference.express, 0, "the reference runs no express worm");
        stats
    }
}

fn reason(stats: &ExpressStats, why: FlitReason) -> u64 {
    stats.flit[FlitReason::ALL
        .iter()
        .position(|&r| r == why)
        .expect("listed reason")]
}

/// When the case's first worm starts, read off an observed flit
/// reference run.
fn first_injection(case: &Case) -> SimTime {
    let (mut h, mut engine) = case.machine(true);
    h.m.recorder = Some(Box::new(parsched_obs::CollectRecorder::new()));
    assert_eq!(engine.run(&mut h), RunOutcome::Drained);
    let rec =
        h.m.recorder
            .as_mut()
            .and_then(|r| {
                r.as_any_mut()
                    .downcast_mut::<parsched_obs::CollectRecorder>()
            })
            .expect("collector installed");
    rec.events()
        .iter()
        .find(|(_, e)| matches!(e, parsched_obs::ObsEvent::MsgSend { .. }))
        .map(|&(t, _)| t)
        .expect("the case sends")
}

#[test]
fn isolated_worm_moves_in_closed_form() {
    // 4096 B over 4 links: F = 65 flits, L = 4.
    let cfg = wormhole_cfg();
    let ft = cfg.flit_time();
    let buffer = 4096 + cfg.msg_header_bytes;
    let case = Case::new(
        cfg,
        build::linear(5).unwrap(),
        vec![(pair_spec(4096), vec![0, 4])],
    );
    let t0 = first_injection(&case);
    let release = t0 + ft * 65;
    let arrival = t0 + ft * (4 - 1 + 65);
    for flit_reference in [false, true] {
        let (mut h, mut engine) = case.machine(flit_reference);
        let step = |h: &mut Harness, engine: &mut Engine<Event>, until: SimTime| {
            engine.run_until(h, until);
            (h.m.node(0).mmu.used(), h.m.node(4).mmu.used())
        };
        assert_eq!(
            step(&mut h, &mut engine, SimTime(release.nanos() - 1)),
            (buffer, 0)
        );
        assert_eq!(
            step(&mut h, &mut engine, release),
            (0, 0),
            "source frees at t0 + F ft"
        );
        assert_eq!(
            step(&mut h, &mut engine, SimTime(arrival.nanos() - 1)),
            (0, 0)
        );
        assert_eq!(
            step(&mut h, &mut engine, arrival),
            (0, buffer),
            "delivery at t0 + (L-1+F) ft"
        );
        assert_eq!(engine.run(&mut h), RunOutcome::Drained);
        let stats = h.m.wormhole().expect("wormhole machine").stats;
        assert_eq!(stats.express, u64::from(!flit_reference));
    }
    let stats = case.check();
    assert_eq!((stats.express, stats.materialized), (1, 0));
}

#[test]
fn express_worms_replace_flit_ticks_on_every_topology_family() {
    let cases: Vec<(Topology, u32, u32)> = vec![
        (build::linear(2).unwrap(), 0, 1),
        (build::linear(4).unwrap(), 0, 3),
        (build::ring(6).unwrap(), 0, 4),
        (build::torus(4, 4).unwrap(), 0, 15),
        (build::fat_tree(4).unwrap(), 0, 15),
        (build::dragonfly(2, 1, 1).unwrap(), 1, 11),
    ];
    // One- and two-link routes and one-flit worms take the short step
    // sequences (release and finish together, or armed directly).
    for (topo, src, dst) in cases {
        for bytes in [0, 64, 4096] {
            let jobs = vec![(pair_spec(bytes), vec![src, dst])];
            let case = Case::new(wormhole_cfg(), topo.clone(), jobs);
            assert_eq!(case.check().express, 1, "{:?} {bytes} B", topo.kind());
        }
    }
}

/// A relay through `width` ranks: one message in flight at a time, every
/// other rank blocked in a receive — the express path's home ground.
fn relay_spec(width: u32, bytes: u64) -> JobSpec {
    let procs = (0..width)
        .map(|r| {
            let mut program = Vec::new();
            if r > 0 {
                program.push(Op::Recv { tag: Tag(1) });
            }
            program.push(Op::Compute(SimDuration::from_micros(300)));
            if r + 1 < width {
                program.push(Op::Send {
                    to: Rank(r + 1),
                    bytes,
                    tag: Tag(1),
                });
            }
            ProcSpec {
                program,
                mem_bytes: 0,
            }
        })
        .collect();
    JobSpec {
        name: "relay".into(),
        ship_bytes: 0,
        procs,
    }
}

#[test]
fn a_relay_runs_every_hop_express() {
    let case = Case::new(
        wormhole_cfg(),
        build::torus(4, 4).unwrap(),
        vec![(relay_spec(16, 2048), (0..16).rev().collect())],
    );
    let stats = case.check();
    assert_eq!(stats.express, 15);
    assert_eq!(stats.flit, [0; 8]);
}

#[test]
fn an_observer_keeps_the_flit_path() {
    let jobs = vec![(pair_spec(4096), vec![0, 3])];
    let mut case = Case::new(wormhole_cfg(), build::linear(4).unwrap(), jobs);
    case.record = true;
    let stats = case.check();
    assert_eq!(
        (stats.express, reason(&stats, FlitReason::Observed)),
        (0, 1)
    );
}

#[test]
fn a_second_live_message_keeps_the_flit_path() {
    // Rank 0 sends twice back to back: the second worm starts while the
    // first is in flight (and the first saw a sender with a send left).
    let spec = JobSpec {
        name: "burst".into(),
        ship_bytes: 0,
        procs: vec![
            ProcSpec {
                program: vec![
                    Op::Send {
                        to: Rank(1),
                        bytes: 8192,
                        tag: Tag(1),
                    },
                    Op::Send {
                        to: Rank(1),
                        bytes: 8192,
                        tag: Tag(1),
                    },
                ],
                mem_bytes: 0,
            },
            ProcSpec {
                program: vec![Op::Recv { tag: Tag(1) }, Op::Recv { tag: Tag(1) }],
                mem_bytes: 0,
            },
        ],
    };
    let linear = build::linear(4).unwrap();
    let stats = Case::new(wormhole_cfg(), linear, vec![(spec, vec![0, 3])]).check();
    assert_eq!(stats.express, 0);
    assert_eq!(reason(&stats, FlitReason::Sender), 1);
    assert_eq!(reason(&stats, FlitReason::Contended), 1);
}

#[test]
fn a_pending_sender_keeps_the_flit_path() {
    // Rank 2 computes, then sends: while rank 0's worm flies, rank 2 is
    // on the CPU with a send left and could contend for the route.
    let spec = JobSpec {
        name: "late sender".into(),
        ship_bytes: 0,
        procs: vec![
            ProcSpec {
                program: vec![Op::Send {
                    to: Rank(1),
                    bytes: 8192,
                    tag: Tag(1),
                }],
                mem_bytes: 0,
            },
            ProcSpec {
                program: vec![Op::Recv { tag: Tag(1) }, Op::Recv { tag: Tag(1) }],
                mem_bytes: 0,
            },
            ProcSpec {
                program: vec![
                    Op::Compute(SimDuration::from_millis(1)),
                    Op::Send {
                        to: Rank(1),
                        bytes: 8192,
                        tag: Tag(1),
                    },
                ],
                mem_bytes: 0,
            },
        ],
    };
    let linear = build::linear(5).unwrap();
    let stats = Case::new(wormhole_cfg(), linear, vec![(spec, vec![0, 4, 2])]).check();
    assert_eq!((stats.express, reason(&stats, FlitReason::Sender)), (0, 1));
}

#[test]
fn a_link_window_in_flight_keeps_the_flit_path() {
    // The outage is on a link of the partition the worm never uses, but
    // it opens before the tail clears.
    let jobs = vec![(pair_spec(50_000), vec![0, 3])];
    let mut case = Case::new(wormhole_cfg(), build::linear(6).unwrap(), jobs);
    let t0 = first_injection(&case);
    case.cfg.faults.links.push(LinkWindow {
        from: 4,
        to: 5,
        down_at: t0 + SimDuration::from_millis(5),
        up_at: t0 + SimDuration::from_millis(6),
    });
    let stats = case.check();
    assert_eq!((stats.express, reason(&stats, FlitReason::Fault)), (0, 1));
}

#[test]
fn a_short_message_timeout_keeps_the_flit_path() {
    // Every attempt times out before its tail clears: the retries run
    // flit by flit until the budget kills the job, on both paths alike.
    let mut cfg = wormhole_cfg();
    cfg.faults.retry.msg_timeout = Some(SimDuration::from_millis(1));
    cfg.faults.retry.max_retries = 2;
    let case = Case::new(
        cfg,
        build::linear(4).unwrap(),
        vec![(pair_spec(8192), vec![0, 3])],
    );
    let (outcome, _) = case.run(false);
    assert_eq!(outcome.jobs[0].0, JobState::Failed);
    let stats = case.check();
    assert_eq!((stats.express, reason(&stats, FlitReason::Fault)), (0, 3));
}

#[test]
fn one_credit_per_vc_keeps_the_flit_path() {
    let mut cfg = wormhole_cfg();
    cfg.vc_credits = 1;
    let jobs = vec![(pair_spec(4096), vec![0, 3])];
    let stats = Case::new(cfg, build::linear(4).unwrap(), jobs).check();
    assert_eq!((stats.express, reason(&stats, FlitReason::Config)), (0, 1));
}

#[test]
fn express_worms_draw_the_drop_lottery_per_hop() {
    // Corrupted attempts are retried; every attempt crosses a quiescent
    // partition, so all of them go express and must consume the per-hop
    // drop draws exactly as the flit ticks would.
    let mut cfg = wormhole_cfg();
    cfg.faults.drop_prob = 0.2;
    cfg.faults.drop_seed = 5;
    cfg.faults.retry.max_retries = 64;
    let jobs = vec![(relay_spec(16, 2048), (0..16).collect())];
    let case = Case::new(cfg, build::torus(4, 4).unwrap(), jobs);
    let stats = case.check();
    let (outcome, _) = case.run(false);
    assert!(
        outcome.counters.retries > 0,
        "the lottery must corrupt some attempts"
    );
    assert_eq!(stats.express, 15 + outcome.counters.retries);
}

/// The long worm alone: 50 000 B from node 0 to node 5 of a 6-node array.
fn long_worm(cfg: MachineConfig) -> Case {
    Case::new(
        cfg,
        build::linear(6).unwrap(),
        vec![(pair_spec(50_000), vec![0, 5])],
    )
}

/// Two jobs on one 6-node linear partition: a long worm 0 -> 5, and a
/// second pair job admitted mid-flight whose worm 1 -> 4 contends for the
/// middle links once the first is materialized.
fn materializing_case(cfg: MachineConfig, at: SimTime, inline: bool) -> Case {
    let mut case = long_worm(cfg);
    case.late.push((at, pair_spec(20_000), vec![1, 4]));
    case.inline = inline;
    case
}

#[test]
fn a_job_admitted_mid_flight_materializes_the_worm() {
    let cfg = wormhole_cfg();
    let ft = cfg.flit_time();
    let flits = cfg.worm_flits(50_000);
    let t0 = first_injection(&long_worm(cfg.clone()));
    // On the flit grid (early, mid-stream, around the release at step F,
    // and one step before the finish at step L - 1 + F = F + 4) and off it.
    let steps = [1, 2, 100, flits - 1, flits, flits + 1, flits + 3];
    let mut instants: Vec<SimTime> = steps.iter().map(|&k| t0 + ft * k).collect();
    instants.push(t0 + ft * 10 + SimDuration::from_nanos(ft.nanos() / 2));
    for at in instants {
        for inline in [false, true] {
            let stats = materializing_case(cfg.clone(), at, inline).check();
            assert_eq!(stats.materialized, 1, "admission at {at} (inline {inline})");
        }
    }
}

#[test]
fn materialized_worms_share_vc_bands() {
    // Two VCs per class: after materialization the second worm takes the
    // other VC of each shared link and both stream round-robin.
    let mut cfg = wormhole_cfg();
    cfg.vcs_per_class = 2;
    let t0 = first_injection(&long_worm(cfg.clone()));
    let stats = materializing_case(cfg.clone(), t0 + cfg.flit_time() * 40, false).check();
    assert_eq!(stats.materialized, 1);
}

#[test]
fn a_job_admitted_after_the_tail_clears_finds_nothing_to_materialize() {
    let cfg = wormhole_cfg();
    let t0 = first_injection(&long_worm(cfg.clone()));
    let at = t0 + cfg.flit_time() * (cfg.worm_flits(50_000) + 5);
    let stats = materializing_case(cfg, at, false).check();
    assert_eq!(stats.materialized, 0);
    assert!(stats.express >= 1);
}

#[test]
fn round_robin_cursors_survive_an_express_worm() {
    // Two VCs per class on a 3-node array. An express worm 0 -> 2 leaves
    // link 1->2's arbitration cursor past its VC, as its flit ticks would.
    // Later worm Y starts at node 1 one flit time after worm X left node
    // 0: X's head reaches node 1 as Y starts, so both are ready at link
    // 1->2's first tick and the leftover cursor picks who moves first.
    // The receiver takes X before Y, so the pick shows in the response.
    let mut cfg = wormhole_cfg();
    cfg.vcs_per_class = 2;
    let ft = cfg.flit_time();
    let sender = |delay: SimDuration, tag: u32| ProcSpec {
        program: vec![
            Op::Compute(SimDuration::from_micros(100) + delay),
            Op::Send {
                to: Rank(2),
                bytes: 8192,
                tag: Tag(tag),
            },
        ],
        mem_bytes: 0,
    };
    let converge = JobSpec {
        name: "converge".into(),
        ship_bytes: 0,
        procs: vec![
            sender(SimDuration::ZERO, 1),
            sender(ft, 2),
            ProcSpec {
                program: vec![
                    Op::Recv { tag: Tag(1) },
                    Op::Compute(SimDuration::from_millis(1)),
                    Op::Recv { tag: Tag(2) },
                ],
                mem_bytes: 0,
            },
        ],
    };
    let mut case = Case::new(
        cfg,
        build::linear(3).unwrap(),
        vec![(pair_spec(4096), vec![0, 2])],
    );
    case.late.push((
        SimTime::ZERO + SimDuration::from_millis(50),
        converge,
        vec![0, 1, 2],
    ));
    let stats = case.check();
    assert_eq!(stats.express, 1);
}
