//! The observability layer's two hard guarantees, checked end-to-end:
//!
//! 1. **Determinism** — instrumentation observes and never perturbs: an
//!    instrumented run is bit-identical to an uninstrumented run of the
//!    same configuration, event for event and bit for bit.
//! 2. **Conservation** — each node's CPU busy and idle gauges are exact
//!    complements, so their time integrals sum to the run span *exactly*
//!    (0/1 gauges times integer-nanosecond durations stay exact in f64
//!    well past any simulated makespan).

use parsched_core::prelude::*;
use parsched_machine::JobSpec;
use parsched_obs::ObsEvent;
use parsched_topology::TopologyKind;
use parsched_workload::prelude::*;

fn paper_16h(policy: PolicyKind) -> (ExperimentConfig, Vec<JobSpec>) {
    let config = ExperimentConfig::paper(16, TopologyKind::Hypercube { dim: 0 }, policy);
    let batch = order_batch(
        paper_batch(
            App::MatMul,
            Arch::Fixed,
            16,
            &BatchSizes::default(),
            &CostModel::default(),
        ),
        BatchOrder::SmallestFirst,
    );
    (config, batch)
}

#[test]
fn instrumented_run_is_bit_identical() {
    for policy in [PolicyKind::TimeSharing, PolicyKind::Static] {
        let (config, batch) = paper_16h(policy);
        let plain = run_batch(&config, batch.clone()).expect("uninstrumented run");
        let (observed, obs) = run_batch_observed(&config, batch).expect("instrumented run");
        assert_eq!(plain.response_times, observed.response_times);
        assert_eq!(plain.makespan, observed.makespan);
        assert_eq!(plain.events, observed.events);
        assert_eq!(
            plain.summary.mean.to_bits(),
            observed.summary.mean.to_bits(),
            "instrumentation perturbed the simulated mean under {policy:?}"
        );
        assert!(!obs.events.is_empty());
        assert_eq!(obs.dropped, 0);
    }
}

#[test]
fn per_node_busy_plus_idle_equals_run_span() {
    // 4-node partitions of the hypercube so the batch messages across
    // links while several partitions run concurrently.
    let config = ExperimentConfig::paper(
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
    let (result, obs) = run_batch_observed(&config, batch).expect("instrumented run");
    let span = result.makespan.nanos() as f64;
    assert!(span > 0.0);
    let reg = &obs.metrics.registry;
    for node in 0..obs.layout.node_count {
        let busy = reg.integral_ns(obs.metrics.cpu_busy_id(node));
        let idle = reg.integral_ns(obs.metrics.cpu_idle_id(node));
        // Exact equality on purpose: both gauges step between 0.0 and 1.0
        // at integer-nanosecond instants, so the sum of the two integrals
        // is an exactly representable integer equal to the span.
        assert_eq!(
            busy + idle,
            span,
            "node {node}: busy {busy} + idle {idle} != span {span}"
        );
        assert!(busy > 0.0, "node {node} never ran anything");
    }
}

#[test]
fn event_stream_is_well_formed() {
    let (config, batch) = paper_16h(PolicyKind::TimeSharing);
    let jobs = batch.len() as u32;
    let (_, obs) = run_batch_observed(&config, batch).expect("instrumented run");
    // Timestamps never run backwards.
    for w in obs.events.windows(2) {
        assert!(w[0].0 <= w[1].0, "event stream out of order");
    }
    // Every job arrives, loads and finishes exactly once.
    let count =
        |f: &dyn Fn(&ObsEvent) -> bool| obs.events.iter().filter(|(_, e)| f(e)).count() as u32;
    assert_eq!(count(&|e| matches!(e, ObsEvent::JobArrived { .. })), jobs);
    assert_eq!(count(&|e| matches!(e, ObsEvent::JobLoaded { .. })), jobs);
    assert_eq!(count(&|e| matches!(e, ObsEvent::JobFinished { .. })), jobs);
    // Under time-sharing every job is admitted to some partition.
    assert_eq!(
        count(&|e| matches!(e, ObsEvent::PartitionAdmit { .. })),
        jobs
    );
    // Message sends pair with deliveries, hops pair start/end.
    assert_eq!(
        count(&|e| matches!(e, ObsEvent::MsgSend { .. })),
        count(&|e| matches!(e, ObsEvent::MsgDeliver { .. })),
    );
    assert_eq!(
        count(&|e| matches!(e, ObsEvent::HopStart { .. })),
        count(&|e| matches!(e, ObsEvent::HopEnd { .. })),
    );
}
