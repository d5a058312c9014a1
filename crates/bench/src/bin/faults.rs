//! Fault-injection scenarios: response-time inflation vs fault rate.
//!
//! ```text
//! faults [--smoke]
//! ```
//!
//! Full mode sweeps per-hop corruption rates (plus one node-crash plan)
//! over the four paper topologies at partition size 4, under both
//! policies, and prints each cell's mean response time and its inflation
//! over the fault-free baseline — the source of the fault appendix in
//! `EXPERIMENTS.md`.
//!
//! `--smoke` is the tier-1 gate: one crash scenario and one flaky-link
//! scenario per policy class, each run twice fully instrumented, with
//! the oracle's invariant checkers on and deterministic replay asserted
//! (both runs must agree bit-exactly on response times and counters).

use parsched_core::prelude::*;
use parsched_des::SimTime;
use parsched_machine::{FaultPlan, JobSpec, LinkWindow, NodeCrash, RetryPolicy};
use parsched_oracle::invariants;
use parsched_topology::TopologyKind;
use parsched_workload::prelude::*;

/// The scenario family's batch: small enough that the full sweep runs in
/// seconds, large enough to multiprogram every partition.
fn batch(partition_size: usize) -> Vec<JobSpec> {
    let sizes = BatchSizes {
        jobs: 8,
        small_count: 6,
        mm_small: 32,
        mm_large: 64,
        ..BatchSizes::default()
    };
    paper_batch(
        App::MatMul,
        Arch::Fixed,
        partition_size,
        &sizes,
        &CostModel::default(),
    )
}

fn config(topology: TopologyKind, policy: PolicyKind, faults: FaultPlan) -> ExperimentConfig {
    let mut config = ExperimentConfig::paper(4, topology, policy);
    config.machine.faults = faults;
    config
}

/// A generous retry budget: the sweep measures recovery cost, not the
/// (astronomically unlikely) exhaustion of 16 retries at <= 8% corruption.
fn retrying() -> RetryPolicy {
    RetryPolicy {
        max_retries: 16,
        ..RetryPolicy::default()
    }
}

/// One fail-stop crash mid-run: node 1 dies at 150 ms, killing whatever
/// partition 0 is running; the scheduler requeues it onto survivors.
fn crash_plan() -> FaultPlan {
    FaultPlan {
        crashes: vec![NodeCrash {
            node: 1,
            at: SimTime(150_000_000),
        }],
        retry: retrying(),
        ..FaultPlan::default()
    }
}

/// A flaky link: the 0-1 channel drops out for 30 ms mid-run and its
/// queued traffic resumes on repair.
fn flaky_plan() -> FaultPlan {
    FaultPlan {
        links: vec![LinkWindow {
            from: 0,
            to: 1,
            down_at: SimTime(20_000_000),
            up_at: SimTime(50_000_000),
        }],
        retry: retrying(),
        ..FaultPlan::default()
    }
}

/// Per-hop corruption at `prob` through the seeded drop lottery.
fn drop_plan(prob: f64) -> FaultPlan {
    FaultPlan {
        drop_prob: prob,
        drop_seed: 0x0FA1_7B17,
        retry: retrying(),
        ..FaultPlan::default()
    }
}

fn mean_response(topology: TopologyKind, policy: PolicyKind, faults: FaultPlan) -> f64 {
    let cfg = config(topology, policy, faults);
    let batch = order_batch(batch(4), BatchOrder::SmallestFirst);
    match run_batch(&cfg, batch) {
        Ok(r) => r.summary.mean,
        Err(e) => {
            eprintln!("faults: run failed:\n{e}");
            std::process::exit(1);
        }
    }
}

/// The full sweep: the response-time-vs-fault-rate table.
fn sweep() {
    let rates = [0.01, 0.02, 0.04, 0.08];
    let topologies = [
        ("4L", TopologyKind::Linear),
        ("4R", TopologyKind::Ring),
        ("4M", TopologyKind::Mesh { rows: 0, cols: 0 }),
        ("4H", TopologyKind::Hypercube { dim: 0 }),
    ];
    println!(
        "mean response time (s) and inflation over the fault-free baseline\n\
         (8-job mm-f batch, partition size 4, crash = node 1 at 150 ms)\n"
    );
    println!(
        "{:<10} {:>10} {:>9} {:>9} {:>9} {:>9} {:>9}",
        "config", "baseline", "p=1%", "p=2%", "p=4%", "p=8%", "crash"
    );
    for policy in [PolicyKind::Static, PolicyKind::TimeSharing] {
        let tag = match policy {
            PolicyKind::Static => "static",
            PolicyKind::TimeSharing => "ts",
        };
        for (label, topology) in topologies {
            let base = mean_response(topology, policy, FaultPlan::default());
            let mut row = format!("{:<10} {base:>9.4}s", format!("{label} {tag}"));
            for p in rates {
                let m = mean_response(topology, policy, drop_plan(p));
                row.push_str(&format!(" {:>+8.1}%", 100.0 * (m / base - 1.0)));
            }
            let m = mean_response(topology, policy, crash_plan());
            row.push_str(&format!(" {:>+8.1}%", 100.0 * (m / base - 1.0)));
            println!("{row}");
        }
    }
}

/// The tier-1 gate: crash + flaky-link per policy class, invariants on,
/// deterministic replay asserted.
fn smoke() {
    let cases = [
        (
            "static/crash",
            TopologyKind::Linear,
            PolicyKind::Static,
            crash_plan(),
        ),
        (
            "static/flaky",
            TopologyKind::Linear,
            PolicyKind::Static,
            flaky_plan(),
        ),
        (
            "ts/crash",
            TopologyKind::Hypercube { dim: 0 },
            PolicyKind::TimeSharing,
            crash_plan(),
        ),
        (
            "ts/flaky",
            TopologyKind::Hypercube { dim: 0 },
            PolicyKind::TimeSharing,
            flaky_plan(),
        ),
    ];
    for (name, topology, policy, plan) in cases {
        let cfg = config(topology, policy, plan);
        let jobs = batch(4).len();
        let run = || {
            let batch = order_batch(batch(4), BatchOrder::SmallestFirst);
            run_batch_observed(&cfg, batch).unwrap_or_else(|e| {
                eprintln!("faults: smoke case {name} failed:\n{e}");
                std::process::exit(1);
            })
        };
        let (first, obs) = run();
        let (second, _) = run();

        // Deterministic replay: same plan, same everything.
        assert_eq!(
            first.response_times, second.response_times,
            "{name}: fault recovery did not replay deterministically"
        );
        assert_eq!(
            first.stats.to_csv_row(),
            second.stats.to_csv_row(),
            "{name}: counters diverged across replays"
        );

        // Invariants on the instrumented stream and gauges.
        invariants::check_event_stream(&obs.events);
        invariants::check_fcfs_admission(&obs.events);
        invariants::check_cpu_conservation(&obs.metrics, obs.layout.node_count, first.makespan);
        // Conservation in dropped-and-accounted form, from the snapshot.
        assert_eq!(
            first.stats.messages_sent,
            first.stats.messages_consumed + first.stats.messages_dropped,
            "{name}: message conservation violated"
        );
        assert_eq!(
            first.stats.jobs_completed as usize, jobs,
            "{name}: not every job recovered to completion"
        );

        println!(
            "  {name:<14} mean {:.4}s  crashes {} downs {} drops {} retries {} requeues {}  ({} jobs ok)",
            first.summary.mean,
            first.stats.node_crashes,
            first.stats.link_downs,
            first.stats.messages_dropped,
            first.stats.retries,
            first.stats.jobs_requeued,
            first.stats.jobs_completed,
        );
    }
    println!("fault smoke: OK");
}

fn main() {
    let smoke_mode = std::env::args().skip(1).any(|a| a == "--smoke");
    if smoke_mode {
        smoke();
    } else {
        sweep();
    }
}
