//! Property-based tests: randomly generated (but always well-formed)
//! workloads on random machines must satisfy the machine's conservation
//! laws and determinism guarantees.
//!
//! Ported from proptest to seeded [`DetRng`] loops so the suite runs with
//! no external dependencies; each case derives its own substream, so a
//! failure report's case index is enough to replay it exactly.
#![allow(clippy::field_reassign_with_default)]

use parsched_des::prelude::*;
use parsched_des::rng::DetRng;
use parsched_machine::prelude::*;
use parsched_topology::build;

const CASES: u64 = 64;

/// A randomly shaped fork-join job: the coordinator scatters to every
/// worker and gathers one reply from each; everyone computes. Always
/// balanced by construction.
#[derive(Debug, Clone)]
struct ForkJoin {
    width: usize,
    scatter_bytes: u64,
    gather_bytes: u64,
    work_us: u64,
    mem: u64,
}

fn random_forkjoin(rng: &mut DetRng) -> ForkJoin {
    ForkJoin {
        width: rng.uniform_u64(1, 9) as usize,
        scatter_bytes: rng.uniform_u64(0, 40_000),
        gather_bytes: rng.uniform_u64(0, 10_000),
        work_us: rng.uniform_u64(0, 20_000),
        mem: rng.uniform_u64(0, 100_000),
    }
}

fn random_forkjoins(rng: &mut DetRng, lo: u64, hi: u64) -> Vec<ForkJoin> {
    let count = rng.uniform_u64(lo, hi);
    (0..count).map(|_| random_forkjoin(rng)).collect()
}

fn build_job(idx: usize, fj: &ForkJoin) -> JobSpec {
    let work = SimDuration::from_micros(fj.work_us);
    if fj.width == 1 {
        return JobSpec {
            name: format!("fj{idx}"),
            ship_bytes: 0,
            procs: vec![ProcSpec {
                program: vec![Op::Compute(work)],
                mem_bytes: fj.mem,
            }],
        };
    }
    let mut procs = Vec::with_capacity(fj.width);
    let mut coord = Vec::new();
    for w in 1..fj.width {
        coord.push(Op::Send {
            to: Rank(w as u32),
            bytes: fj.scatter_bytes,
            tag: Tag(1),
        });
    }
    coord.push(Op::Compute(work));
    coord.push(Op::RecvAny {
        count: (fj.width - 1) as u32,
        tag: Tag(2),
    });
    procs.push(ProcSpec {
        program: coord,
        mem_bytes: fj.mem,
    });
    for _ in 1..fj.width {
        procs.push(ProcSpec {
            program: vec![
                Op::Recv { tag: Tag(1) },
                Op::Compute(work),
                Op::Send {
                    to: Rank(0),
                    bytes: fj.gather_bytes,
                    tag: Tag(2),
                },
            ],
            mem_bytes: fj.mem,
        });
    }
    JobSpec {
        name: format!("fj{idx}"),
        ship_bytes: 0,
        procs,
    }
}

#[derive(Debug, Clone, Copy)]
enum Topo {
    Linear(usize),
    Ring(usize),
    Mesh(usize, usize),
    Cube(u8),
}

fn random_topo(rng: &mut DetRng) -> Topo {
    match rng.uniform_u64(0, 4) {
        0 => Topo::Linear(rng.uniform_u64(2, 9) as usize),
        1 => Topo::Ring(rng.uniform_u64(3, 9) as usize),
        2 => Topo::Mesh(
            rng.uniform_u64(2, 4) as usize,
            rng.uniform_u64(2, 4) as usize,
        ),
        _ => Topo::Cube(rng.uniform_u64(1, 4) as u8),
    }
}

fn make_net(t: Topo) -> SystemNet {
    let topo = match t {
        Topo::Linear(n) => build::linear(n).unwrap(),
        Topo::Ring(n) => build::ring(n).unwrap(),
        Topo::Mesh(r, c) => build::mesh(r, c).unwrap(),
        Topo::Cube(d) => build::hypercube(d).unwrap(),
    };
    SystemNet::single(&topo)
}

/// Run a set of jobs on a machine and return it for inspection.
fn run_jobs(cfg: MachineConfig, net: SystemNet, jobs: &[ForkJoin]) -> Machine {
    let nodes = net.nodes() as u32;
    let mut m = Machine::new(cfg, net);
    let ids: Vec<JobId> = jobs
        .iter()
        .enumerate()
        .map(|(i, fj)| {
            let spec = build_job(i, fj);
            spec.check_balanced()
                .expect("generator emits balanced jobs");
            let placement: Vec<u32> = (0..spec.width())
                .map(|r| (r as u32 + i as u32) % nodes)
                .collect();
            m.queue_job(spec, placement, SimDuration::from_millis(2))
        })
        .collect();
    let mut engine = Engine::new(QueueKind::BinaryHeap);
    engine.max_events = 5_000_000;
    for id in ids {
        engine.seed(SimTime::ZERO, Event::Admit { job: id });
    }
    let outcome = engine.run(&mut m);
    assert_eq!(outcome, RunOutcome::Drained, "simulation must drain");
    m
}

/// Any balanced workload completes, consumes what it sends, and
/// returns all memory.
#[test]
fn conservation_laws_hold() {
    let root = DetRng::new(0xC0);
    for case in 0..CASES {
        let mut rng = root.substream_idx("conservation", case);
        let topo = random_topo(&mut rng);
        let jobs = random_forkjoins(&mut rng, 1, 5);
        let m = run_jobs(MachineConfig::default(), make_net(topo), &jobs);
        assert!(m.all_jobs_done(), "case {case}");
        assert_eq!(
            m.counters.messages_sent, m.counters.messages_consumed,
            "case {case}"
        );
        let expected: u64 = jobs.iter().map(|fj| 2 * (fj.width as u64 - 1)).sum();
        assert_eq!(m.counters.messages_sent, expected, "case {case}");
        for n in 0..m.node_count() {
            let node = m.node(n as u32);
            assert_eq!(node.mmu.used(), 0, "case {case} node {n}");
            assert_eq!(node.mmu.queue_len(), 0, "case {case} node {n}");
            assert!(node.cpu.is_idle(), "case {case} node {n}");
        }
    }
}

/// Process CPU accounting: every process accrues exactly its compute
/// demand plus its messaging costs (nothing lost to preemption).
#[test]
fn cpu_time_accounts_for_all_work() {
    let root = DetRng::new(0xC1);
    for case in 0..CASES {
        let mut rng = root.substream_idx("cpu-accounting", case);
        let topo = random_topo(&mut rng);
        let fj = random_forkjoin(&mut rng);
        let cfg = MachineConfig::default();
        let spec = build_job(0, &fj);
        let expected: Vec<SimDuration> = spec
            .procs
            .iter()
            .map(|p| {
                let mut t = p.compute_demand();
                for op in &p.program {
                    match op {
                        Op::Send { bytes, .. } => t += cfg.send_cost(*bytes),
                        Op::Recv { .. } => {} // cost depends on the message
                        _ => {}
                    }
                }
                t
            })
            .collect();
        let m = run_jobs(cfg.clone(), make_net(topo), std::slice::from_ref(&fj));
        for (proc_, exp) in m.processes().iter().zip(expected) {
            // recv costs add the per-byte cost of whatever messages the
            // process consumed; build the exact expectation.
            let recv_extra = match proc_.rank.0 {
                0 => {
                    // coordinator consumed width-1 gathers
                    SimDuration::from_nanos(
                        (fj.width as u64 - 1) * cfg.recv_cost(fj.gather_bytes).nanos(),
                    )
                }
                _ => cfg.recv_cost(fj.scatter_bytes),
            };
            let want = if fj.width == 1 { exp } else { exp + recv_extra };
            assert_eq!(
                proc_.cpu_time, want,
                "case {case}: rank {} accrued {} expected {}",
                proc_.rank.0, proc_.cpu_time, want
            );
        }
    }
}

/// Response time is bounded below by the critical path: load plus the
/// coordinator's own compute and messaging costs.
#[test]
fn response_respects_critical_path() {
    let root = DetRng::new(0xC3);
    for case in 0..CASES {
        let mut rng = root.substream_idx("critical-path", case);
        let topo = random_topo(&mut rng);
        let fj = random_forkjoin(&mut rng);
        let cfg = MachineConfig::default();
        let m = run_jobs(cfg.clone(), make_net(topo), std::slice::from_ref(&fj));
        let job = m.job(JobId(0));
        let lower = SimDuration::from_micros(fj.work_us); // one work phase
        assert!(
            job.response_time() >= lower,
            "case {case}: response {} below compute lower bound {}",
            job.response_time(),
            lower
        );
        // And the load must have happened before anything ran.
        assert!(job.loaded_at >= job.submitted_at, "case {case}");
        assert!(job.finished_at >= job.loaded_at, "case {case}");
    }
}

/// Switching modes all complete arbitrary workloads with the same
/// message accounting.
#[test]
fn switching_modes_complete() {
    let root = DetRng::new(0xC4);
    for case in 0..CASES {
        let mut rng = root.substream_idx("switching", case);
        let topo = random_topo(&mut rng);
        let jobs = random_forkjoins(&mut rng, 1, 3);
        let mut counts = Vec::new();
        for switching in [
            Switching::PacketizedSaf,
            Switching::StoreAndForward,
            Switching::Wormhole,
        ] {
            let mut cfg = MachineConfig::default();
            cfg.switching = switching;
            let m = run_jobs(cfg, make_net(topo), &jobs);
            assert!(m.all_jobs_done(), "case {case}: {switching:?} stalled");
            counts.push(m.counters.messages_consumed);
        }
        assert_eq!(counts[0], counts[1], "case {case}");
        assert_eq!(counts[1], counts[2], "case {case}");
    }
}
