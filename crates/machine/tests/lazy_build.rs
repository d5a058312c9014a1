//! The machine builds a partition's state only when a job or a fault
//! reaches it. Every case here runs twice — on demand, and on a machine
//! built whole at construction (`Machine::build_all`) — and the two must
//! agree on every observable, bit for bit: job timings, makespan, events
//! processed, counters and the full `MachineStats`, plus the recorder's
//! events, the metrics registry and the timeline when the run is
//! observed.
#![allow(clippy::field_reassign_with_default)]

use parsched_des::prelude::*;
use parsched_machine::prelude::*;
use parsched_obs::CollectRecorder;
use parsched_topology::{PartitionPlan, TopologyKind};

const QUANTUM: SimDuration = SimDuration::from_millis(2);

/// A relay of `width` ranks passing `bytes` from rank to rank.
fn relay_spec(width: u32, bytes: u64) -> JobSpec {
    let procs = (0..width)
        .map(|r| {
            let mut program = Vec::new();
            if r > 0 {
                program.push(Op::Recv { tag: Tag(1) });
            }
            program.push(Op::Compute(SimDuration::from_micros(700)));
            if r + 1 < width {
                program.push(Op::Send {
                    to: Rank(r + 1),
                    bytes,
                    tag: Tag(1),
                });
            }
            ProcSpec {
                program,
                mem_bytes: 4096,
            }
        })
        .collect();
    JobSpec {
        name: "relay".into(),
        ship_bytes: 0,
        procs,
    }
}

/// `width` ranks on partition `p`, spread over its nodes.
fn spread(plan: &PartitionPlan, p: usize, width: u32) -> Vec<u32> {
    let base = plan.partitions[p].base as u32;
    let size = plan.partition_size as u32;
    (0..width).map(|r| base + (r * 5) % size).collect()
}

/// One case: a machine, jobs queued up front, and jobs queued later in
/// the run (when a `PolicyTick` carrying their index fires).
struct Case {
    cfg: MachineConfig,
    plan: PartitionPlan,
    early: Vec<(JobSpec, Vec<u32>)>,
    late: Vec<(SimTime, JobSpec, Vec<u32>)>,
    observe: bool,
}

/// What one run of a case produced.
struct Outcome {
    /// `built_partitions()` at the end of the run.
    built: usize,
    /// `built_partitions()` just before each late job was queued.
    built_before_late: Vec<usize>,
    counters: Counters,
    /// Every compared observable as `(name, Debug text)`; the text
    /// round-trips every f64, so equal text is bit-equal values.
    observables: Vec<(&'static str, String)>,
}

/// The machine plus the late jobs it queues on cue.
struct Script {
    m: Machine,
    late: Vec<Option<(JobSpec, Vec<u32>)>>,
    built_before_late: Vec<usize>,
}

impl Model for Script {
    type Event = Event;

    fn handle(&mut self, now: SimTime, ev: Event, sched: &mut impl EventScheduler<Event>) {
        if let Event::PolicyTick { token } = ev {
            let (spec, placement) = self.late[token as usize].take().expect("queued once");
            self.built_before_late.push(self.m.built_partitions());
            let job = self.m.queue_job(spec, placement, QUANTUM);
            sched.schedule_at(now, Event::Admit { job });
        }
        self.m.handle(now, ev, sched);
    }
}

impl Case {
    fn new(cfg: MachineConfig, plan: PartitionPlan) -> Case {
        Case {
            cfg,
            plan,
            early: Vec::new(),
            late: Vec::new(),
            observe: false,
        }
    }

    fn run(&self, eager: bool) -> Outcome {
        let mut cfg = self.cfg.clone();
        cfg.record_timeline = self.observe;
        let mut m = Machine::new(cfg, SystemNet::from_plan(&self.plan));
        if eager {
            m.build_all();
        }
        if self.observe {
            m.recorder = Some(Box::new(CollectRecorder::new()));
            m.metrics = Some(Box::new(MachineMetrics::new(m.net(), m.t0())));
        }
        let mut engine = Engine::new(QueueKind::BinaryHeap);
        engine.max_events = 10_000_000;
        m.seed_faults(&mut engine);
        for (spec, placement) in &self.early {
            let job = m.queue_job(spec.clone(), placement.clone(), QUANTUM);
            engine.seed(SimTime::ZERO, Event::Admit { job });
        }
        for (i, (at, _, _)) in self.late.iter().enumerate() {
            engine.seed(*at, Event::PolicyTick { token: i as u64 });
        }
        let late = self
            .late
            .iter()
            .map(|(_, s, p)| Some((s.clone(), p.clone())))
            .collect();
        let mut script = Script {
            m,
            late,
            built_before_late: Vec::new(),
        };
        assert_eq!(
            engine.run(&mut script),
            RunOutcome::Drained,
            "run did not drain"
        );
        let Script {
            mut m,
            built_before_late,
            ..
        } = script;
        assert!(m.all_jobs_done());
        let now = engine.now();
        let timings: Vec<_> = m
            .jobs()
            .iter()
            .map(|j| (j.state, j.submitted_at, j.loaded_at, j.finished_at))
            .collect();
        let mut observables = vec![
            ("job timings", format!("{timings:?}")),
            ("makespan", format!("{now:?}")),
            ("events", engine.events_processed().to_string()),
            ("counters", format!("{:?}", m.counters)),
            (
                "machine stats",
                format!("{:?}", MachineStats::capture(&m, now)),
            ),
        ];
        if self.observe {
            let mut metrics = m.metrics.take().expect("installed");
            metrics.registry.finish(now);
            let mut recorder = m.recorder.take().expect("installed");
            let events = recorder
                .as_any_mut()
                .downcast_mut::<CollectRecorder>()
                .expect("a collector")
                .take_events();
            assert!(!events.is_empty());
            observables.push(("recorded events", format!("{events:?}")));
            observables.push(("metrics", metrics.registry.to_text()));
            observables.push(("timeline", format!("{:?}", m.timeline.spans())));
        }
        Outcome {
            built: m.built_partitions(),
            built_before_late,
            counters: m.counters.clone(),
            observables,
        }
    }

    /// Run on demand and eagerly, demand identical observables, and
    /// return the on-demand outcome.
    fn check(&self) -> Outcome {
        let lazy = self.run(false);
        let eager = self.run(true);
        assert_eq!(
            eager.built,
            self.plan.count(),
            "build_all builds every partition"
        );
        for ((what, a), (_, b)) in lazy.observables.iter().zip(&eager.observables) {
            assert!(
                a == b,
                "{what} differ between the on-demand and the eager build"
            );
        }
        assert_eq!(lazy.observables.len(), eager.observables.len());
        lazy
    }
}

/// The saf64k torus: 1 028 partitions of 8x8 tori, 65 792 nodes.
fn torus_64k() -> PartitionPlan {
    PartitionPlan::try_equal(65_792, 64, TopologyKind::Torus { rows: 0, cols: 0 }).unwrap()
}

#[test]
fn a_job_on_partition_zero_of_a_65k_torus_builds_one_partition() {
    for switching in [Switching::StoreAndForward, Switching::Wormhole] {
        let mut cfg = MachineConfig::default();
        cfg.switching = switching;
        let mut case = Case::new(cfg, torus_64k());
        case.early
            .push((relay_spec(8, 4096), spread(&case.plan, 0, 8)));
        let lazy = case.check();
        assert_eq!(lazy.built, 1, "{switching:?}");
        assert_eq!(lazy.counters.jobs_completed, 1);
    }
}

#[test]
fn a_job_on_the_last_partition_builds_the_whole_prefix() {
    let mut case = Case::new(MachineConfig::default(), torus_64k());
    let last = case.plan.count() - 1;
    case.early
        .push((relay_spec(8, 4096), spread(&case.plan, last, 8)));
    assert_eq!(case.check().built, case.plan.count());
}

#[test]
fn faults_on_an_untouched_partition_build_it_before_a_job_lands() {
    let plan = PartitionPlan::try_equal(256, 16, TopologyKind::Mesh { rows: 0, cols: 0 }).unwrap();
    let ms = |n: u64| SimTime::ZERO + SimDuration::from_millis(n);
    for switching in [Switching::StoreAndForward, Switching::Wormhole] {
        let mut cfg = MachineConfig::default();
        cfg.switching = switching;
        // A crash on partition 5 and an outage on partition 6, both long
        // before any job reaches either.
        cfg.faults.crashes.push(NodeCrash {
            node: 5 * 16 + 3,
            at: ms(1),
        });
        cfg.faults.links.push(LinkWindow {
            from: 96,
            to: 97,
            down_at: ms(1),
            up_at: ms(9),
        });
        let mut case = Case::new(cfg, plan.clone());
        case.early.push((relay_spec(4, 2048), spread(&plan, 0, 4)));
        // Onto the outage's endpoints while the link is down, and onto
        // the crashed node's partition, clear of the dead node.
        case.late.push((ms(2), relay_spec(2, 2048), vec![96, 97]));
        case.late
            .push((ms(3), relay_spec(3, 2048), vec![80, 81, 82]));
        let lazy = case.check();
        assert_eq!(
            lazy.built_before_late,
            vec![7, 7],
            "{switching:?}: faults built 0..=6"
        );
        assert_eq!(lazy.built, 7, "{switching:?}");
        assert_eq!(
            (lazy.counters.node_crashes, lazy.counters.link_downs),
            (1, 2)
        );
        assert_eq!(lazy.counters.jobs_completed, 3, "{switching:?}");
    }
}

#[test]
fn an_observed_run_on_a_lazily_built_machine_matches_the_eager_one() {
    let plan = PartitionPlan::try_equal(64, 16, TopologyKind::Hypercube { dim: 0 }).unwrap();
    for switching in [Switching::PacketizedSaf, Switching::Wormhole] {
        let mut cfg = MachineConfig::default();
        cfg.switching = switching;
        let mut case = Case::new(cfg, plan.clone());
        case.observe = true;
        case.early.push((relay_spec(6, 4096), spread(&plan, 2, 6)));
        case.late.push((
            SimTime::ZERO + SimDuration::from_millis(3),
            relay_spec(4, 1024),
            spread(&plan, 1, 4),
        ));
        let lazy = case.check();
        assert_eq!(lazy.built, 3, "{switching:?}");
        assert_eq!(lazy.built_before_late, vec![3]);
    }
}

#[test]
fn the_drop_lottery_on_a_grown_partition_draws_the_machine_wide_streams() {
    let plan = PartitionPlan::try_equal(128, 16, TopologyKind::Ring).unwrap();
    for switching in [Switching::StoreAndForward, Switching::Wormhole] {
        let mut cfg = MachineConfig::default();
        cfg.switching = switching;
        cfg.faults.drop_prob = 0.2;
        cfg.faults.drop_seed = 9;
        cfg.faults.retry.max_retries = 64;
        let mut case = Case::new(cfg, plan.clone());
        // Partition 2 first, then partition 5 mid-run: the second growth
        // appends the streams of channels the first never built.
        case.early.push((relay_spec(8, 4096), spread(&plan, 2, 8)));
        case.late.push((
            SimTime::ZERO + SimDuration::from_millis(2),
            relay_spec(8, 4096),
            spread(&plan, 5, 8),
        ));
        let lazy = case.check();
        assert_eq!(lazy.built_before_late, vec![3], "{switching:?}");
        assert_eq!(lazy.built, 6, "{switching:?}");
        assert!(
            lazy.counters.retries > 0,
            "{switching:?}: the lottery must corrupt some hops"
        );
    }
}

#[test]
fn unbuilt_nodes_read_as_idle() {
    let plan = torus_64k();
    let m = Machine::new(MachineConfig::default(), SystemNet::from_plan(&plan));
    assert_eq!((m.built_partitions(), m.node_count()), (0, 65_792));
    assert!(m.channel_states().is_empty());
    let last = m.node(65_791);
    assert!(last.cpu.is_idle() && last.mmu.used() == 0);
    assert!(m.node_alive(65_791));
    let stats = MachineStats::capture(&m, SimTime::ZERO + SimDuration::from_millis(5));
    assert_eq!(stats.cpu_utilization.len(), 65_792);
    assert!(stats.cpu_utilization.iter().all(|&u| u.to_bits() == 0));
    assert_eq!(stats.mean_link_utilization.to_bits(), 0);
}
