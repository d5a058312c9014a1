//! Differential gate for the benchmarked configurations.
//!
//! The F3 cell (16-node hypercube, full paper batch) has its simulated
//! results pinned bit-exactly: the static and time-sharing means in
//! `tests/golden_f3.rs`'s 16H row and the MPL-4 hybrid in
//! `tests/perf_goldens.rs` — so a hot-path "optimization" that changes
//! *behavior* shows up there as a golden drift. This test closes the loop
//! from the other side: the same configurations must also be
//! bit-identical to the naive reference engine.

use parsched_core::{Discipline, Placement};
use parsched_machine::{FaultPlan, Switching};
use parsched_oracle::{run_differential, Order, PolicyClass, Scenario};
use parsched_topology::TopologyKind;
use parsched_workload::{App, Arch, BatchSizes};

/// The F3 cell as a differential scenario: the paper config on the
/// 16-node hypercube, default batch sizes, as-given order — the cell the
/// root goldens pin.
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
    // The goldens pin the MPL-4 hybrid; this holds the MPL-capped
    // time-sharing path to the oracle at MPL 2.
    let scenario = f3_scenario(PolicyClass::PureTs, Some(2));
    if let Err(div) = run_differential(&scenario) {
        panic!("benchmarked MPL cell diverged:\n{div}");
    }
}
