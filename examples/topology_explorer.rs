//! Explore the interconnects the paper configures through its C004
//! switches: graph metrics, routing behaviour, and the measured effect of
//! topology on scheduling performance.
//!
//! ```text
//! cargo run --release --example topology_explorer
//! ```

use parsched::prelude::*;
use parsched::topology::distance;

fn main() {
    println!("16-node topology metrics (the paper's §3.1 configurations):\n");
    println!(
        "{:<12} {:>9} {:>10} {:>10} {:>7} {:>6}",
        "topology", "diameter", "avg dist", "bisection", "degree", "edges"
    );
    let topos = [
        ("linear", build::linear(16).unwrap()),
        ("ring", build::ring(16).unwrap()),
        ("mesh 4x4", build::mesh(4, 4).unwrap()),
        ("hypercube", build::hypercube(4).unwrap()),
        ("nap chain", build::nap_backbone()),
    ];
    for (name, topo) in &topos {
        let m = metrics::metrics(topo);
        println!(
            "{:<12} {:>9} {:>10.3} {:>10} {:>7} {:>6}",
            name, m.diameter, m.avg_distance, m.bisection_width, m.max_degree, m.edges
        );
    }

    // Routing demo: how a message travels 0 -> 11 in each network.
    println!("\nroute from processor 0 to processor 11:");
    for (name, topo) in &topos {
        let router = Router::for_topology(topo);
        let path: Vec<String> = std::iter::once(0u32)
            .chain(router.path(NodeId(0), NodeId(11)).iter().map(|n| n.0))
            .map(|n| n.to_string())
            .collect();
        println!(
            "  {:<12} {} ({} hops)",
            name,
            path.join(" -> "),
            path.len() - 1
        );
        assert_eq!(
            router.hops(NodeId(0), NodeId(11)) as u32,
            distance(topo, NodeId(0), NodeId(11)),
            "routing must be minimal"
        );
    }

    // The scheduling consequence: one matmul batch, pure time-sharing, per
    // topology. Low-degree/long-diameter networks hurt most (§5.2).
    println!("\ntime-sharing mean response on one 16-node partition, by topology:");
    let sizes = BatchSizes::default();
    let cost = CostModel::default();
    let batch = paper_batch(App::MatMul, Arch::Fixed, 16, &sizes, &cost);
    for kind in [
        TopologyKind::Linear,
        TopologyKind::Ring,
        TopologyKind::Mesh { rows: 0, cols: 0 },
        TopologyKind::Hypercube { dim: 0 },
    ] {
        if PartitionPlan::equal(16, 16, kind).is_none() {
            println!("  {kind:<18} (not realizable on the real machine)");
            continue;
        }
        let r = run_experiment(
            &ExperimentConfig::paper(16, kind, PolicyKind::TimeSharing),
            &batch,
        )
        .expect("run completed");
        println!("  {:<18} {:>7.3} s", format!("{kind}"), r.mean_response);
    }
}
