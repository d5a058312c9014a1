//! Driver for the widened-index machine band (16k–64k+ processors).
//!
//! ```text
//! scale --smoke            tier-1 gate: construct + route a 16k-node
//!                          torus, one short wormhole run at 16 384
//!                          nodes, and one observed run on a machine
//!                          crossing the old 65 536-node index ceiling
//!                          (no goldens — `tests/perf_goldens.rs`
//!                          pins those)
//! scale --ranking          the P10 experiment (EXPERIMENTS.md): does
//!                          static ≻ hybrid ≻ time-sharing survive at
//!                          16k–64k under wormhole on one fixed fabric,
//!                          and where does the A1 variance crossover
//!                          move relative to the 16-node machine
//! scale --ranking --skip-64k
//!                          only the 16 384-node half of the sweep
//! ```
//!
//! The smoke exists so the widened `u32` node-index paths are exercised
//! end to end on every tier-1 run: the crossing case places a job's ranks
//! across a 70 225-node single-partition torus with blocked placement, so
//! real messages route between nodes whose indices do not fit the
//! pre-widening `u16`, and the observed event stream is asserted to
//! contain them. Both runs go through the public run lifecycle (`Run`),
//! so each keeps its finished machine and can check its work counter: it
//! built exactly the partitions up to the highest one a job landed on
//! (`Machine::built_partitions`), not the whole machine. The crossing
//! run's set-up step installs the event recorder and metrics registry,
//! and `Run::take_artifacts` hands back the event stream.
//!
//! The ranking sweep holds the fabric fixed (64-node 8×8-torus
//! partitions, wormhole switching) and scales only the machine: 256
//! partitions (16 384 nodes) and 1028 partitions (65 792 nodes, past the
//! old ceiling). At every service-demand CV the three policy classes run
//! the *same* drawn batch (common random numbers, seed `0x50A1E`), four
//! jobs per partition, so columns differ only through the policy.

use parsched_bench::scale::{tscale, Cell4k, ScalePoint};
use parsched_core::prelude::*;
use parsched_des::prelude::*;
use parsched_machine::{JobSpec, Machine, MachineMetrics, Switching};
use parsched_obs::{CollectRecorder, ObsEvent};
use parsched_topology::{build, NodeId, Router, Topology, TopologyKind};
use parsched_workload::prelude::*;

/// The ranking fabric: 64-node 8×8-torus partitions, `parts` of them.
/// Host-link costs are zeroed: at hundreds-to-thousands of jobs the
/// default 50 ms serial load through one host link adds a ~13 s constant
/// that swamps every scheduling difference (the first thing this sweep
/// found). Zeroing it models a machine with parallel I/O nodes and lets
/// the table measure the policies.
fn ranking_config(parts: usize, policy: PolicyKind, mpl: Option<usize>) -> ExperimentConfig {
    let mut cfg = ExperimentConfig {
        system_size: 64 * parts,
        mpl,
        ..ExperimentConfig::paper(64, TopologyKind::Torus { rows: 0, cols: 0 }, policy)
    };
    cfg.machine.switching = Switching::Wormhole;
    cfg.machine.job_load_latency = SimDuration::ZERO;
    cfg.machine.host_link_per_byte = SimDuration::ZERO;
    cfg
}

/// Four width-64 fork-join jobs per partition (the A1 ablation's
/// multiprogramming depth) with total demand drawn at the given CV
/// (mean 2 s).
fn ranking_batch(parts: usize, cv_idx: u64, cv: f64) -> Vec<JobSpec> {
    let params = SyntheticParams {
        mean_demand: SimDuration::from_secs(2),
        cv,
        width: 64,
        msg_bytes: 2_048,
        mem_per_proc: 4_096,
    };
    let mut rng = DetRng::new(0x50A1E).substream_idx("p10", cv_idx);
    let mut batch = synthetic_batch(4 * parts, &params, &CostModel::default(), &mut rng);
    for j in &mut batch {
        j.ship_bytes = 4_096;
    }
    batch
}

/// One policy column of the ranking table.
fn ranking_cell(parts: usize, policy: PolicyKind, mpl: Option<usize>, batch: Vec<JobSpec>) -> f64 {
    let cfg = ranking_config(parts, policy, mpl);
    run_batch(&cfg, batch)
        .expect("ranking cell simulates")
        .mean_response()
}

fn ranking(skip_64k: bool) {
    let sizes: &[(usize, &str)] = if skip_64k {
        &[(256, "16 384 nodes")]
    } else {
        &[(256, "16 384 nodes"), (1028, "65 792 nodes")]
    };
    let cvs = [0.0, 0.5, 1.0, 2.0, 3.0, 5.0];
    for &(parts, label) in sizes {
        println!(
            "# P10 ranking: {label}, {parts} x 64-node torus partitions, wormhole, \
             {} width-64 jobs (mean demand 2 s), host link zeroed",
            4 * parts
        );
        println!(
            "{:>6} {:>10} {:>10} {:>10} {:>12}",
            "cv", "static", "hybrid2", "ts", "ts/static"
        );
        for (i, &cv) in cvs.iter().enumerate() {
            let batch = ranking_batch(parts, i as u64, cv);
            let st = ranking_cell(parts, PolicyKind::Static, None, batch.clone());
            let hy = ranking_cell(parts, PolicyKind::TimeSharing, Some(2), batch.clone());
            let ts = ranking_cell(parts, PolicyKind::TimeSharing, None, batch);
            println!(
                "{cv:>6.1} {st:>10.3} {hy:>10.3} {ts:>10.3} {:>12.3}",
                ts / st
            );
        }
        println!();
    }
}

/// Walk the router's minimal path between two sample nodes and assert
/// every hop crosses a real edge (a wrapped index would produce a
/// phantom neighbor the adjacency does not contain).
fn assert_route(topo: &Topology, router: &Router, src: usize, dst: usize) {
    let (src, dst) = (NodeId::from_index(src), NodeId::from_index(dst));
    let mut cur = src;
    let mut hops = 0usize;
    while cur != dst {
        let next = router
            .next_hop(cur, dst)
            .unwrap_or_else(|| panic!("no hop at {cur} toward {dst}"));
        assert!(
            topo.neighbors(cur).contains(&next),
            "hop {cur} -> {next} is not an edge"
        );
        cur = next;
        hops += 1;
        assert!(
            hops <= topo.len(),
            "route {src} -> {dst} does not terminate"
        );
    }
}

/// The machine built exactly the partitions up to the highest one a job
/// landed on — not the whole machine. Returns `(built, partitions)`.
fn assert_built_only_where_jobs_landed(driver: &Driver, what: &str) -> (usize, usize) {
    let m = &driver.machine;
    let landed = m
        .jobs()
        .iter()
        .map(|j| m.net().partition_of(j.placement[0]) + 1)
        .max()
        .expect("the run had jobs");
    assert_eq!(
        m.built_partitions(),
        landed,
        "{what}: built {} partitions, but jobs reached only 0..{landed}",
        m.built_partitions()
    );
    (landed, m.net().partitions())
}

fn smoke() {
    let t0 = std::time::Instant::now();
    // 1. Construct + route a 16k-node torus at the topology layer.
    let topo = build::torus(128, 128).expect("16k torus constructs");
    assert_eq!(topo.len(), 16_384);
    let router = Router::for_topology(&topo);
    for (s, d) in [(0, 16_383), (1, 8_200), (16_000, 77)] {
        assert_route(&topo, &router, s, d);
    }
    println!(
        "scale --smoke: 128x128 torus constructs and routes [{:.2?}]",
        t0.elapsed()
    );
    let t1 = std::time::Instant::now();

    // 2. One short wormhole run at 16 384 nodes (the t16k torus cell,
    //    sequential, no golden — `tests/perf_goldens.rs` pins it).
    let (cfg, batch) = tscale(Cell4k::Torus, ScalePoint::T16k, Switching::Wormhole);
    let jobs = batch.len();
    let plan = Run::prepare(&cfg, &batch, None).expect("realizable configuration");
    let d = Run::build(&cfg, plan, batch, None, |_| {})
        .complete(None)
        .expect("16k run");
    let mean = Summary::of_durations(&d.driver.response_times()).mean;
    assert!(mean.is_finite() && mean > 0.0, "16k mean response {mean}");
    let (built, parts) = assert_built_only_where_jobs_landed(&d.driver, "16k wormhole run");
    assert!(
        built <= jobs && built < parts,
        "{jobs} jobs built {built} of {parts} partitions"
    );
    println!(
        "scale --smoke: 16 384-node wormhole run OK (mean response {mean:.3} s, \
         built {built} of {parts} partitions) [{:.2?}]",
        t1.elapsed()
    );
    let t2 = std::time::Instant::now();

    // 3. The crossing run: a 70 225-node (265x265 torus) single-partition
    //    machine under blocked placement spreads a width-64 job's ranks
    //    ~1 100 nodes apart, so real wormhole traffic routes between
    //    nodes past the old 65 536 index ceiling. Observed, and the
    //    event stream must actually contain such traffic. Static policy:
    //    time-sharing would arm quantum timers on all 70k nodes and blow
    //    the smoke's wall-clock budget without exercising anything extra.
    const CROSS_NODES: usize = 265 * 265; // 70 225 > 65 536
    let mut cfg = ExperimentConfig {
        system_size: CROSS_NODES,
        placement: Placement::Blocked,
        ..ExperimentConfig::paper(
            CROSS_NODES,
            TopologyKind::Torus { rows: 0, cols: 0 },
            PolicyKind::Static,
        )
    };
    cfg.machine.switching = Switching::Wormhole;
    let params = SyntheticParams {
        mean_demand: SimDuration::from_millis(100),
        cv: 0.0,
        width: 64,
        msg_bytes: 512,
        mem_per_proc: 4_096,
    };
    let batch: Vec<JobSpec> = (0..2)
        .map(|i| {
            let mut j = synthetic_job(
                format!("cross{i}"),
                SimDuration::from_millis(100),
                &params,
                &CostModel::default(),
            );
            j.ship_bytes = 4_096; // keep the host link off the critical path
            j
        })
        .collect();
    let plan = Run::prepare(&cfg, &batch, None).expect("realizable configuration");
    let observe = |m: &mut Machine| {
        m.recorder = Some(Box::new(CollectRecorder::new()));
        m.metrics = Some(Box::new(MachineMetrics::new(m.net(), m.t0())));
    };
    let mut d = Run::build(&cfg, plan, batch, None, observe)
        .complete(None)
        .expect("crossing run");
    let mean = Summary::of_durations(&d.driver.response_times()).mean;
    assert!(
        mean.is_finite() && mean > 0.0,
        "crossing mean response {mean}"
    );
    assert_built_only_where_jobs_landed(&d.driver, "crossing run");
    let events = d.take_artifacts().expect("an observed run").events;
    let high_traffic = events
        .iter()
        .filter(|(_, e)| {
            matches!(e, ObsEvent::MsgSend { src, dst, .. } if *src > 65_535 || *dst > 65_535)
        })
        .count();
    assert!(
        high_traffic > 0,
        "crossing run routed no traffic past node 65 535 — blocked placement broken?"
    );
    println!(
        "scale --smoke: 70 225-node crossing run OK ({high_traffic} sends touch nodes > 65 535) [{:.2?}]",
        t2.elapsed()
    );
    println!("scale --smoke: OK");
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--smoke") {
        smoke();
    } else if args.iter().any(|a| a == "--ranking") {
        ranking(args.iter().any(|a| a == "--skip-64k"));
    } else {
        eprintln!("usage: scale --smoke | --ranking [--skip-64k]");
        std::process::exit(2);
    }
}
