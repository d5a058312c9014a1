//! Differential gate for the benchmarked configurations.
//!
//! `src/bin/perf.rs` times the F3 cell (16-node hypercube, full paper
//! batch) and pins its simulated result in the golden map — so a hot-path
//! "optimization" that changes *behavior* would show up there as a golden
//! drift. This test closes the loop from the other side: the exact same
//! configurations must also be bit-identical to the naive reference
//! engine.

use parsched_core::{Discipline, Placement};
use parsched_machine::{FaultPlan, Switching};
use parsched_oracle::{run_differential, Order, PolicyClass, Scenario};
use parsched_topology::TopologyKind;
use parsched_workload::{App, Arch, BatchSizes};

/// The F3 benchmark cell as a differential scenario: identical to
/// `f3_config` in `src/bin/perf.rs` (paper config on the 16-node
/// hypercube, default batch sizes, as-given order).
fn f3_scenario(class: PolicyClass, mpl: Option<usize>) -> Scenario {
    Scenario {
        case: 0,
        seed: 0,
        topology: TopologyKind::Hypercube { dim: 0 },
        system_size: 16,
        partition_size: 16,
        class,
        app: App::MatMul,
        arch: Arch::Fixed,
        sizes: BatchSizes::default(),
        order: Order::AsGiven,
        switching: Switching::PacketizedSaf,
        discipline: Discipline::Uncoordinated,
        placement: Placement::RoundRobin,
        mpl,
        arrivals: Vec::new(),
        faults: FaultPlan::default(),
        shards: 1,
        relay: None,
    }
}

#[test]
fn benchmarked_f3_cells_match_the_oracle() {
    for class in [PolicyClass::Static, PolicyClass::PureTs] {
        let scenario = f3_scenario(class, None);
        assert_eq!(scenario.config().policy, class.policy());
        if let Err(div) = run_differential(&scenario) {
            panic!("benchmarked cell {class:?} diverged:\n{div}");
        }
    }
}

#[test]
fn benchmarked_mpl_cell_matches_the_oracle() {
    // perf.rs also times the MPL-bounded time-sharing variant.
    let scenario = f3_scenario(PolicyClass::PureTs, Some(2));
    if let Err(div) = run_differential(&scenario) {
        panic!("benchmarked MPL cell diverged:\n{div}");
    }
}
