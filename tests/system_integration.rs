//! Cross-crate integration tests: conservation laws, determinism, and
//! policy-mechanism interactions that no single crate can check alone.
#![allow(clippy::field_reassign_with_default)]

use parsched::machine::memory::AllocPolicy;
use parsched::prelude::*;

const MESH: TopologyKind = TopologyKind::Mesh { rows: 0, cols: 0 };

fn small_batch() -> Vec<JobSpec> {
    let cost = CostModel::default();
    let sizes = BatchSizes {
        jobs: 8,
        small_count: 6,
        ..BatchSizes::default()
    };
    paper_batch(App::MatMul, Arch::Adaptive, 8, &sizes, &cost)
}

/// Every run is bit-identical given the same inputs.
#[test]
fn experiments_are_deterministic() {
    let cfg = ExperimentConfig::paper(8, TopologyKind::Ring, PolicyKind::TimeSharing);
    let a = run_batch(&cfg, small_batch()).unwrap();
    let b = run_batch(&cfg, small_batch()).unwrap();
    assert_eq!(a.response_times, b.response_times);
    assert_eq!(a.events, b.events);
    assert_eq!(a.makespan, b.makespan);
}

/// Message conservation: everything sent is consumed, everything allocated
/// is freed, for every paper configuration of both applications.
#[test]
fn conservation_across_the_paper_grid() {
    let sizes = BatchSizes::default();
    let cost = CostModel::default();
    for app in [App::MatMul, App::Sort] {
        for arch in [Arch::Fixed, Arch::Adaptive] {
            for (p, kind) in paper_configs(false) {
                let batch = paper_batch(app, arch, p, &sizes, &cost);
                let expected_msgs: u64 = batch
                    .iter()
                    .map(|j| j.procs.iter().map(|pr| pr.send_count()).sum::<u64>())
                    .sum();
                for policy in [PolicyKind::Static, PolicyKind::TimeSharing] {
                    let cfg = ExperimentConfig::paper(p, kind, policy);
                    let r = run_batch(&cfg, batch.clone()).unwrap_or_else(|e| {
                        panic!("{app:?}/{arch:?}/{p}{} {policy:?}: {e}", kind.label())
                    });
                    let s = &r.stats;
                    assert_eq!(
                        s.messages_sent, expected_msgs,
                        "{app:?}/{arch:?}/{p}{}: sent",
                        kind.label()
                    );
                    assert_eq!(
                        s.messages_consumed, s.messages_sent,
                        "{app:?}/{arch:?}/{p}{}: consumed != sent",
                        kind.label()
                    );
                    assert_eq!(s.jobs_completed, batch.len() as u64);
                }
            }
        }
    }
}

/// After a complete run, all node memory has been returned (no leaks in
/// buffers, job data, or mailboxes), checked through the driver.
#[test]
fn memory_is_conserved_end_to_end() {
    let cost = CostModel::default();
    let batch: Vec<JobSpec> = (0..6)
        .map(|i| sort_job(format!("s{i}"), 4000 + i * 500, 8, &cost))
        .collect();
    let plan = PartitionPlan::equal(16, 8, TopologyKind::Ring).unwrap();
    let machine = parsched::machine::Machine::new(
        parsched::machine::MachineConfig::default(),
        parsched::machine::SystemNet::from_plan(&plan),
    );
    let mut driver = Driver::new(
        machine,
        plan,
        PolicyKind::TimeSharing,
        QuantumRule::default(),
        Placement::RoundRobin,
        batch,
    );
    let mut engine: Engine<parsched::machine::Event> = Engine::new(QueueKind::BinaryHeap);
    driver.start(&mut engine);
    assert_eq!(engine.run(&mut driver), RunOutcome::Drained);
    assert!(driver.all_done());
    for n in 0..driver.machine.node_count() {
        let node = driver.machine.node(n as u32);
        assert_eq!(node.mmu.used(), 0, "node {n} leaked memory");
        assert_eq!(node.mmu.queue_len(), 0, "node {n} has stranded requests");
        assert!(node.cpu.is_idle(), "node {n} CPU not idle at drain");
    }
}

/// Static policy truly space-shares: with one job per partition, no node
/// ever hosts processes from two live jobs at once — verified indirectly by
/// watching that a static run with equal-size jobs completes them in strict
/// partition batches.
#[test]
fn static_policy_runs_one_job_per_partition() {
    let cost = CostModel::default();
    // 8 identical jobs, 4 partitions: completions must come in two waves.
    let batch: Vec<JobSpec> = (0..8)
        .map(|i| matmul_job(format!("m{i}"), 64, 4, &cost))
        .collect();
    let mut cfg = ExperimentConfig::paper(4, TopologyKind::Ring, PolicyKind::Static);
    // Disable host-link serialization so the wave structure is pure
    // scheduling.
    cfg.machine.host_link_per_byte = SimDuration::ZERO;
    cfg.machine.job_load_latency = SimDuration::from_millis(1);
    let r = run_batch(&cfg, batch).unwrap();
    let mut rts: Vec<f64> = r.response_times.iter().map(|d| d.as_secs_f64()).collect();
    rts.sort_by(f64::total_cmp);
    // First four finish together, then the second wave roughly doubles.
    assert!(rts[3] < rts[0] * 1.1, "first wave spread: {rts:?}");
    assert!(rts[4] > rts[3] * 1.7, "no wave gap: {rts:?}");
    assert!(rts[7] < rts[4] * 1.1, "second wave spread: {rts:?}");
}

/// Time-sharing really does share: with one partition and identical jobs,
/// everyone finishes at nearly the same (late) time.
#[test]
fn time_sharing_finishes_equal_jobs_together() {
    let cost = CostModel::default();
    let batch: Vec<JobSpec> = (0..6)
        .map(|i| matmul_job(format!("m{i}"), 64, 8, &cost))
        .collect();
    let mut cfg = ExperimentConfig::paper(8, TopologyKind::Ring, PolicyKind::TimeSharing);
    // Disable host-link serialization so the finish times reflect pure
    // round-robin sharing.
    cfg.machine.host_link_per_byte = SimDuration::ZERO;
    cfg.machine.job_load_latency = SimDuration::from_millis(1);
    let r = run_batch(&cfg, batch).unwrap();
    // Jobs spread across 2 partitions; within each partition, the 3 jobs
    // round-robin and finish close together.
    let min = r.response_times.iter().min().unwrap().as_secs_f64();
    let max = r.response_times.iter().max().unwrap().as_secs_f64();
    assert!(max / min < 1.6, "finish spread too wide: {min}..{max}");
}

/// The flow-control and MMU-policy design alternatives all complete the
/// paper workload (the defaults are choices, not requirements).
#[test]
fn design_alternatives_complete() {
    let sizes = BatchSizes::default();
    let cost = CostModel::default();
    let batch = paper_batch(App::MatMul, Arch::Adaptive, 8, &sizes, &cost);
    for flow in [FlowControl::InjectionLimited, FlowControl::Reserved] {
        for policy in [AllocPolicy::Fifo, AllocPolicy::FirstFit] {
            for send in [SendMode::Async, SendMode::Blocking] {
                let mut cfg =
                    ExperimentConfig::paper(8, TopologyKind::Ring, PolicyKind::TimeSharing);
                cfg.machine.flow = flow;
                cfg.machine.alloc_policy = policy;
                cfg.machine.send_mode = send;
                let r = run_batch(&cfg, batch.clone()).unwrap_or_else(|e| {
                    panic!("{flow:?}/{policy:?}/{send:?}: {e}")
                });
                assert_eq!(r.response_times.len(), batch.len());
            }
        }
    }
}

/// Placement strategies are behaviour-preserving (same completions, maybe
/// different times).
#[test]
fn placements_all_complete() {
    let sizes = BatchSizes::default();
    let cost = CostModel::default();
    let batch = paper_batch(App::Sort, Arch::Fixed, 8, &sizes, &cost);
    for placement in [Placement::RoundRobin, Placement::Staggered, Placement::Blocked] {
        let mut cfg = ExperimentConfig::paper(8, MESH, PolicyKind::TimeSharing);
        cfg.placement = placement;
        let r = run_batch(&cfg, batch.clone()).unwrap();
        assert_eq!(r.response_times.len(), batch.len(), "{placement:?}");
    }
}

/// Gang scheduling: completes the paper workload, conserves everything,
/// and with a generous slot beats uncoordinated time-sharing on the
/// communication-heavy batch (the classic coscheduling result).
#[test]
fn gang_scheduling_works_and_helps_with_long_slots() {
    let sizes = BatchSizes::default();
    let cost = CostModel::default();
    let batch = paper_batch(App::MatMul, Arch::Fixed, 16, &sizes, &cost);
    let uncoordinated = run_batch(
        &ExperimentConfig::paper(16, MESH, PolicyKind::TimeSharing),
        batch.clone(),
    )
    .unwrap();
    let mut cfg = ExperimentConfig::paper(16, MESH, PolicyKind::TimeSharing);
    cfg.discipline = Discipline::Gang {
        slot: SimDuration::from_millis(200),
    };
    let gang = run_batch(&cfg, batch.clone()).unwrap();
    assert_eq!(gang.response_times.len(), batch.len());
    assert_eq!(gang.stats.messages_sent, gang.stats.messages_consumed);
    assert!(
        gang.summary.mean < uncoordinated.summary.mean,
        "gang {:.3} !< uncoordinated {:.3}",
        gang.summary.mean,
        uncoordinated.summary.mean
    );
}

/// Gang scheduling with a single job per partition degenerates to plain
/// time-sharing (no rotation partner, no parking).
#[test]
fn gang_with_one_job_equals_uncoordinated() {
    let cost = CostModel::default();
    let batch = vec![matmul_job("solo", 64, 8, &cost)];
    let base = ExperimentConfig::paper(8, TopologyKind::Ring, PolicyKind::TimeSharing);
    let mut gang_cfg = base.clone();
    gang_cfg.discipline = Discipline::Gang {
        slot: SimDuration::from_millis(50),
    };
    let a = run_batch(&base, batch.clone()).unwrap();
    let b = run_batch(&gang_cfg, batch).unwrap();
    assert_eq!(a.response_times, b.response_times);
}

/// Open arrivals: responses are measured from each job's own arrival, and
/// a lightly loaded system answers in ~constant time while a saturated one
/// queues.
#[test]
fn open_arrivals_measure_from_arrival() {
    let cost = CostModel::default();
    let params = SyntheticParams {
        width: 4,
        msg_bytes: 1024,
        cv: 0.0,
        ..SyntheticParams::default()
    };
    let mut rng = DetRng::new(3).substream("open");
    let batch = synthetic_batch(12, &params, &cost, &mut rng);
    let cfg = ExperimentConfig::paper(4, TopologyKind::Ring, PolicyKind::Static);
    // Far-apart arrivals: every job sees an empty system; responses are all
    // (almost) the standalone time.
    let sparse: Vec<SimTime> = (0..12)
        .map(|i| SimTime::ZERO + SimDuration::from_secs(10 * (i as u64 + 1)))
        .collect();
    let relaxed = run_batch_with_arrivals(&cfg, batch.clone(), sparse).unwrap();
    let min = relaxed.response_times.iter().min().unwrap().as_secs_f64();
    let max = relaxed.response_times.iter().max().unwrap().as_secs_f64();
    assert!(
        max / min < 1.05,
        "idle-system responses should be identical: {min}..{max}"
    );
    // The same jobs arriving together must queue (mean response strictly
    // larger).
    let slammed = run_batch(&cfg, batch).unwrap();
    assert!(slammed.summary.mean > relaxed.summary.mean * 1.3);
}

/// The figures pipeline end-to-end: tables have the full label axis and
/// positive means, and the CSV round-trips the row count.
#[test]
fn figure_tables_are_well_formed() {
    let mut opts = FigureOpts::default();
    opts.parallel = true;
    let table = fig4(&opts).expect("figure 4 generated");
    assert_eq!(table.rows.len(), 13);
    assert_eq!(table.rows[0].label, "1");
    assert!(table.row("16M").is_some());
    for row in &table.rows {
        assert!(row.static_mean.unwrap() > 0.0);
        assert!(row.ts_mean.unwrap() > 0.0);
    }
    let csv = table.to_csv();
    assert_eq!(csv.lines().count(), 14); // header + 13 rows
    let text = table.to_text();
    assert!(text.contains("16M"));
}

/// Stall diagnosis machinery: an impossible configuration reports instead
/// of hanging (strict reservation mode on a tight machine may deadlock,
/// which must surface as a RunError with a readable diagnosis).
#[test]
fn impossible_runs_error_cleanly() {
    let cost = CostModel::default();
    // A job whose receives can never be satisfied (unbalanced on purpose,
    // bypassing check_balanced): one process waits for a message nobody
    // sends.
    let batch = vec![JobSpec {
        name: "stuck".into(),
        ship_bytes: 0,
        procs: vec![ProcSpec {
            program: vec![Op::Recv { tag: Tag(999) }],
            mem_bytes: 1024,
        }],
    }];
    let _ = cost;
    let cfg = ExperimentConfig::paper(1, TopologyKind::Linear, PolicyKind::Static);
    let err = run_batch(&cfg, batch).expect_err("must stall");
    assert!(err.diagnosis.contains("blocked-recv=1"), "{}", err.diagnosis);
    assert!(err.diagnosis.contains("1 unfinished"), "{}", err.diagnosis);
}

/// Gang scheduling completes and conserves for a spread of slot lengths.
#[test]
fn gang_completes_for_all_slot_lengths() {
    let sizes = BatchSizes {
        jobs: 8,
        small_count: 6,
        ..BatchSizes::default()
    };
    let cost = CostModel::default();
    let batch = paper_batch(App::MatMul, Arch::Adaptive, 8, &sizes, &cost);
    for slot_ms in [1u64, 7, 33, 150, 1000] {
        let mut cfg = ExperimentConfig::paper(8, MESH, PolicyKind::TimeSharing);
        cfg.discipline = Discipline::Gang {
            slot: SimDuration::from_millis(slot_ms),
        };
        let r = run_batch(&cfg, batch.clone())
            .unwrap_or_else(|e| panic!("slot {slot_ms}ms: {e}"));
        assert_eq!(r.response_times.len(), batch.len());
        assert_eq!(r.stats.messages_sent, r.stats.messages_consumed);
    }
}

/// The oracle crate's invariant checkers hold across policies and
/// topologies, with observability recording both OFF (machine-state
/// checkers against a bare run) and ON (event-stream and gauge checkers
/// against an instrumented run of the same configuration).
#[test]
fn invariants_hold_with_recording_off_and_on() {
    use parsched_oracle::invariants;
    let sizes = BatchSizes {
        jobs: 8,
        small_count: 6,
        ..BatchSizes::default()
    };
    let cost = CostModel::default();
    for (p, kind, policy) in [
        (4, TopologyKind::Ring, PolicyKind::Static),
        (8, MESH, PolicyKind::TimeSharing),
        (16, TopologyKind::Hypercube { dim: 0 }, PolicyKind::TimeSharing),
    ] {
        let batch = paper_batch(App::MatMul, Arch::Adaptive, p, &sizes, &cost);

        // Recording off: drive the machine directly, check its state.
        let plan = PartitionPlan::equal(16, p, kind).unwrap();
        let machine = parsched::machine::Machine::new(
            parsched::machine::MachineConfig::default(),
            parsched::machine::SystemNet::from_plan(&plan),
        );
        let mut driver = Driver::new(
            machine,
            plan,
            policy,
            QuantumRule::default(),
            Placement::RoundRobin,
            batch.clone(),
        );
        let mut engine: Engine<parsched::machine::Event> = Engine::new(QueueKind::default());
        driver.start(&mut engine);
        assert_eq!(engine.run(&mut driver), RunOutcome::Drained);
        assert!(driver.all_done());
        invariants::check_message_conservation(&driver.machine);
        invariants::check_work_conservation(&driver.machine, engine.now().since(SimTime::ZERO));

        // Recording on: the same configuration instrumented.
        let cfg = ExperimentConfig::paper(p, kind, policy);
        let (result, obs) = run_batch_observed(&cfg, batch).unwrap();
        invariants::check_event_stream(&obs.events);
        invariants::check_fcfs_admission(&obs.events);
        invariants::check_cpu_conservation(&obs.metrics, obs.layout.node_count, result.makespan);
    }
}

/// Gang scheduling composed with open arrivals: rotation must absorb jobs
/// arriving mid-run and still complete everything.
#[test]
fn gang_with_open_arrivals_completes() {
    let cost = CostModel::default();
    let batch: Vec<JobSpec> = (0..10)
        .map(|i| matmul_job(format!("g{i}"), 64, 8, &cost))
        .collect();
    let arrivals: Vec<SimTime> = (0..10)
        .map(|i| SimTime::ZERO + SimDuration::from_millis(137 * i))
        .collect();
    let mut cfg = ExperimentConfig::paper(8, TopologyKind::Ring, PolicyKind::TimeSharing);
    cfg.discipline = Discipline::Gang {
        slot: SimDuration::from_millis(100),
    };
    let r = run_batch_with_arrivals(&cfg, batch, arrivals).unwrap();
    assert_eq!(r.response_times.len(), 10);
    assert_eq!(r.stats.jobs_completed, 10);
    assert_eq!(r.stats.messages_sent, r.stats.messages_consumed);
}

/// Every front door runs the same lifecycle, so on one shard-eligible
/// configuration and batch they agree bit for bit: `run_batch`,
/// `run_batch_observed`, `run_batch_with_arrivals` with every arrival at
/// 0, and `run_batch_sharded` at K = 1 and at K = 2, whose four jobs land
/// on partitions 0..=3, all in shard 0 of eight partitions, so it takes a
/// sequential exit. `run_open_stream` under `StopRule::Completions`
/// finishes the same synthetic jobs at the same instants as
/// `run_batch_with_arrivals` given their arrival times.
#[test]
fn front_doors_agree_bit_for_bit() {
    let cfg = ExperimentConfig {
        system_size: 32,
        ..ExperimentConfig::paper(
            4,
            TopologyKind::Hypercube { dim: 0 },
            PolicyKind::TimeSharing,
        )
    };
    let mut open = OpenConfig::new(cfg.clone(), 1);
    open.warmup = 0;
    open.stop = StopRule::Completions(4);
    let demands = [30, 5, 12, 21].map(SimDuration::from_millis).to_vec();
    let cost = CostModel::default();
    let batch: Vec<JobSpec> = demands
        .iter()
        .enumerate()
        .map(|(i, &d)| synthetic_job(format!("open{i}"), d, &open.params, &cost))
        .collect();

    let front = run_batch(&cfg, batch.clone()).unwrap();
    let (observed, _) = run_batch_observed(&cfg, batch.clone()).unwrap();
    let at_zero = run_batch_with_arrivals(&cfg, batch.clone(), vec![SimTime::ZERO; 4]).unwrap();
    for (door, r) in [("observed", &observed), ("arrivals at 0", &at_zero)] {
        assert_eq!(r.response_times, front.response_times, "{door}");
        assert_eq!(r.makespan, front.makespan, "{door}");
        assert_eq!(r.events, front.events, "{door}");
    }
    for k in [1, 2] {
        let r = run_batch_sharded(&cfg, batch.clone(), k).unwrap();
        assert_eq!(r.shards, 1, "k={k}");
        assert_eq!(r.fallback.is_some(), k > 1, "k={k}: {:?}", r.fallback);
        assert_eq!(r.response_times, front.response_times, "k={k}");
        assert_eq!(r.makespan, front.makespan, "k={k}");
        assert_eq!(r.events, front.events, "k={k}");
    }

    let times = [0, 3, 7, 20]
        .map(|ms| SimTime::ZERO + SimDuration::from_millis(ms))
        .to_vec();
    let arrived = run_batch_with_arrivals(&cfg, batch, times.clone()).unwrap();
    let streamed = run_open_stream(&open, times.clone(), demands).unwrap();
    let finished: Vec<Option<SimTime>> = streamed.records.iter().map(|r| r.finished).collect();
    let expected: Vec<Option<SimTime>> = times
        .iter()
        .zip(&arrived.response_times)
        .map(|(&t, &response)| Some(t + response))
        .collect();
    assert_eq!(finished, expected);
    assert_eq!(streamed.end.since(SimTime::ZERO), arrived.makespan);
}
