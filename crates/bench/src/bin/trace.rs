//! Trace one named experiment configuration and export its timeline.
//!
//! ```text
//! trace [LABEL] [--policy ts|static] [--out-dir DIR] [--list]
//! ```
//!
//! `LABEL` is a figure-axis configuration label (`1`, `4H`, `8L`, `16M`,
//! ... — see `--list`); the default is `16H`, the 16-node hypercube, under
//! time-sharing: the paper's most communication-intensive configuration.
//!
//! The run is fully instrumented ([`run_batch_observed`]): the typed event
//! stream becomes a Chrome-trace (catapult JSON) timeline — open it at
//! `chrome://tracing` or <https://ui.perfetto.dev> — with one process per
//! node (CPU + link tracks) plus scheduler instants, per-partition MPL and
//! per-node ready-queue-depth counter tracks; the time-weighted gauges are
//! written alongside as a CSV. Instrumentation only observes, so the
//! simulated result printed here is bit-identical to an untraced run.

use parsched_core::prelude::*;
use parsched_obs::ChromeTrace;
use parsched_topology::{config_label, paper_configs, TopologyKind};
use parsched_workload::prelude::*;
use std::path::PathBuf;

/// The configurations this binary can trace: the paper's X-axis grid
/// including the host-link-impossible `16H` (the headline trace).
fn known_configs() -> Vec<(String, usize, TopologyKind)> {
    paper_configs(true)
        .into_iter()
        .map(|(size, kind)| (config_label(size, kind), size, kind))
        .collect()
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let configs = known_configs();
    if args.iter().any(|a| a == "--list") {
        println!("known configuration labels:");
        for (label, size, kind) in &configs {
            let topo = match kind {
                TopologyKind::Linear => "linear array",
                TopologyKind::Ring => "ring",
                TopologyKind::Mesh { .. } => "mesh",
                TopologyKind::Hypercube { .. } => "hypercube",
                // Test-only topologies never appear in paper_configs.
                _ => "other",
            };
            println!("  {label:<4} {size} nodes per partition, {topo}");
        }
        return;
    }
    let flag = |name: &str| {
        args.iter()
            .position(|a| a == name)
            .and_then(|i| args.get(i + 1))
    };
    let label = args
        .iter()
        .find(|a| {
            !a.starts_with("--") && Some(*a) != flag("--policy") && Some(*a) != flag("--out-dir")
        })
        .cloned()
        .unwrap_or_else(|| "16H".to_string());
    let policy = match flag("--policy").map(String::as_str) {
        None | Some("ts") => PolicyKind::TimeSharing,
        Some("static") => PolicyKind::Static,
        Some(other) => {
            eprintln!("trace: unknown policy {other:?} (expected ts|static)");
            std::process::exit(2);
        }
    };
    let out_dir = PathBuf::from(flag("--out-dir").cloned().unwrap_or_else(|| ".".into()));
    let Some((_, partition_size, topology)) = configs.iter().find(|(l, _, _)| *l == label).cloned()
    else {
        eprintln!("trace: unknown configuration {label:?}; use --list");
        std::process::exit(2);
    };

    let config = ExperimentConfig::paper(partition_size, topology, policy);
    let batch = order_batch(
        paper_batch(
            App::MatMul,
            Arch::Fixed,
            partition_size,
            &BatchSizes::default(),
            &CostModel::default(),
        ),
        BatchOrder::SmallestFirst,
    );
    let jobs = batch.len();
    let policy_tag = match policy {
        PolicyKind::TimeSharing => "ts",
        PolicyKind::Static => "static",
    };
    println!("tracing {label} under {policy_tag}: {jobs} jobs (mm-f, smallest first)");

    let (result, obs) = match run_batch_observed(&config, batch) {
        Ok(pair) => pair,
        Err(e) => {
            eprintln!("trace: {e}");
            std::process::exit(1);
        }
    };

    let mut trace = ChromeTrace::build(&obs.layout, &obs.events);
    // Counter tracks: per-partition MPL on the scheduler process, then each
    // node's ready-queue depth on its own process.
    let reg = &obs.metrics.registry;
    for part in 0..obs.metrics.partition_count() {
        let id = obs.metrics.partition_mpl_id(part);
        let name = reg.gauge_name(id);
        for &(t, v) in reg.series(id) {
            trace.counter(t, 0, name, v);
        }
    }
    for node in 0..obs.layout.node_count {
        let id = obs.metrics.ready_depth_id(node);
        for &(t, v) in reg.series(id) {
            trace.counter(t, node + 1, "ready_depth", v);
        }
    }

    std::fs::create_dir_all(&out_dir).expect("create output directory");
    let trace_path = out_dir.join(format!("trace_{label}_{policy_tag}.json"));
    let metrics_path = out_dir.join(format!("metrics_{label}_{policy_tag}.csv"));
    std::fs::write(&trace_path, trace.render()).expect("write trace file");
    let table = metrics_table(reg, &format!("{label} {policy_tag} time-weighted metrics"));
    std::fs::write(&metrics_path, table.to_csv()).expect("write metrics file");

    println!(
        "  mean response {:.6}s  makespan {:.6}s  ({} engine events)",
        result.summary.mean,
        result.makespan.as_secs_f64(),
        result.events,
    );
    println!(
        "  {} recorded events -> {} trace events ({} unmatched), {} dropped",
        obs.events.len(),
        trace.len(),
        trace.unmatched(),
        obs.dropped,
    );
    // The interesting aggregate: how busy each partition's CPUs were.
    let nodes = obs.layout.node_count;
    let mean_busy: f64 = (0..nodes)
        .map(|n| reg.mean(obs.metrics.cpu_busy_id(n)))
        .sum::<f64>()
        / nodes as f64;
    println!(
        "  mean CPU utilization across {nodes} nodes: {:.1}%",
        100.0 * mean_busy
    );
    println!("trace written to {}", trace_path.display());
    println!("metrics written to {}", metrics_path.display());
    println!("open the trace at chrome://tracing or https://ui.perfetto.dev");
}
