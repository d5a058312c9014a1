//! The two express paths against their reference paths, in the root
//! package's own test run.
//!
//! The CPU express path runs a node's round-robin between interrupts in
//! closed form, and the wormhole express path moves a lone worm in closed
//! form. Each has a reference path that runs every slice and every flit
//! as an event ([`Machine::set_slice_reference`],
//! [`Machine::set_flit_reference`]). A paper-style hybrid matmul cell and
//! a wormhole relay cell each run both ways and must agree on response
//! times, makespan, counters and [`MachineStats`] (its f64 fields bit for
//! bit, through their `Debug` text); each express path must also have
//! fired. The differential oracle sweeps many more such pairs; this file
//! keeps the invariant inside `cargo test` of the root package.

use parsched::prelude::*;

/// What the express run and the reference run must agree on.
#[derive(Debug, PartialEq)]
struct Outcome {
    response_times: Vec<SimDuration>,
    makespan: SimDuration,
    counters: Counters,
    stats: String,
}

/// One run of `batch` under `cfg`, with every express path on or every
/// reference path on; also returns the events processed, the slices the
/// CPU express path skipped and the worms that went express.
fn run(cfg: &ExperimentConfig, batch: &[JobSpec], reference: bool) -> (Outcome, u64, u64, u64) {
    let plan = cfg.plan();
    let mut machine = Machine::new(cfg.machine.clone(), SystemNet::from_plan(&plan));
    machine.set_slice_reference(reference);
    machine.set_flit_reference(reference);
    let mut driver = Driver::new(
        machine,
        plan,
        cfg.policy,
        cfg.rule,
        cfg.placement,
        batch.to_vec(),
    )
    .with_discipline(cfg.discipline);
    if let Some(mpl) = cfg.mpl {
        driver = driver.with_mpl(mpl);
    }
    let mut engine = Engine::new(cfg.queue);
    driver.start(&mut engine);
    assert_eq!(engine.run(&mut driver), RunOutcome::Drained);
    assert!(driver.all_done(), "{}", driver.diagnose());
    let m = &driver.machine;
    let outcome = Outcome {
        response_times: driver.response_times(),
        makespan: engine.now().since(SimTime::ZERO),
        counters: m.counters.clone(),
        stats: format!("{:?}", MachineStats::capture(m, engine.now())),
    };
    let worms = m.wormhole().map_or(0, |wh| wh.stats.express);
    (
        outcome,
        engine.events_processed(),
        m.cpu_express_stats().slices_skipped,
        worms,
    )
}

/// The paper's hybrid policy on the 16-node hypercube: time-sharing in
/// four 4-node partitions, the full matmul batch.
#[test]
fn hybrid_matmul_matches_the_slice_reference() {
    let cfg = ExperimentConfig::paper(
        4,
        TopologyKind::Hypercube { dim: 0 },
        PolicyKind::TimeSharing,
    );
    let batch = paper_batch(
        App::MatMul,
        Arch::Fixed,
        4,
        &BatchSizes::default(),
        &CostModel::default(),
    );
    let (express, events, skipped, _) = run(&cfg, &batch, false);
    let (reference, reference_events, none, _) = run(&cfg, &batch, true);
    assert_eq!(none, 0, "the reference skipped slices");
    assert!(skipped > 0, "no slice went express");
    assert_eq!(express, reference);
    // Replayed slices count as processed events.
    assert_eq!(events, reference_events);
}

/// One relay job of `width` ranks: a baton of `bytes` visits every rank in
/// `stride` order (odd, so the tour closes), each rank computing `ms`
/// before passing it on.
fn relay(width: u32, stride: u32, ms: u64, bytes: u64) -> JobSpec {
    let mut procs: Vec<ProcSpec> = (0..width)
        .map(|_| ProcSpec {
            program: Vec::new(),
            mem_bytes: 64 * 1024,
        })
        .collect();
    let mut rank = 0;
    for leg in 0..width {
        let next = (rank + stride) % width;
        let program = &mut procs[rank as usize].program;
        if leg > 0 {
            program.push(Op::Recv { tag: Tag(1) });
        }
        program.push(Op::Compute(SimDuration::from_millis(ms)));
        program.push(Op::Send {
            to: Rank(next),
            bytes,
            tag: if next == 0 { Tag(2) } else { Tag(1) },
        });
        rank = next;
    }
    procs[0].program.push(Op::Recv { tag: Tag(2) });
    JobSpec {
        name: format!("relay-{stride}"),
        ship_bytes: 16 * 1024,
        procs,
    }
}

/// Relay batons on a 64-node wormhole machine of four 4x4 torus
/// partitions under static space-sharing: one job per partition, one worm
/// in flight per job.
#[test]
fn wormhole_relay_matches_the_flit_reference() {
    let mut cfg = ExperimentConfig {
        system_size: 64,
        ..ExperimentConfig::paper(
            16,
            TopologyKind::Torus { rows: 4, cols: 4 },
            PolicyKind::Static,
        )
    };
    cfg.machine.switching = Switching::Wormhole;
    let batch: Vec<JobSpec> = [(3, 2), (5, 3), (7, 1), (9, 4), (11, 2)]
        .into_iter()
        .map(|(stride, ms)| relay(16, stride, ms, 2_048))
        .collect();
    let (express, _, _, worms) = run(&cfg, &batch, false);
    let (reference, _, none, flit_worms) = run(&cfg, &batch, true);
    assert_eq!((none, flit_worms), (0, 0), "the reference went express");
    assert!(worms > 0, "no worm went express");
    assert_eq!(express, reference);
}
