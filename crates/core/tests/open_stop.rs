//! An open stream stopped at a horizon in the middle of CPU express
//! windows: the run's end brings every window up to the horizon, so what
//! the caller reads afterwards — each entry's record, the machine's
//! statistics, the events processed — is what the slice-by-slice
//! reference leaves there, under both the fixed and the dynamic quantum.

use parsched_core::prelude::*;
use parsched_des::{RunOutcome, SimDuration, SimTime};
use parsched_machine::{CpuExpressStats, Machine, MachineStats, SettleReason};
use parsched_topology::TopologyKind;
use parsched_workload::cost::CostModel;
use parsched_workload::synthetic::{synthetic_job, SyntheticParams};

/// `(entry records, machine statistics, events processed)` of a run
/// stopped at `horizon`, and how its CPUs used the express path.
fn stopped_run(
    discipline: Discipline,
    horizon: SimTime,
    reference: bool,
) -> ((String, String, u64), CpuExpressStats) {
    let mut cfg = ExperimentConfig::paper(
        4,
        TopologyKind::Hypercube { dim: 0 },
        PolicyKind::TimeSharing,
    );
    cfg.discipline = discipline;
    let params = SyntheticParams {
        mean_demand: SimDuration::from_millis(60),
        cv: 1.0,
        width: 4,
        msg_bytes: 1024,
        mem_per_proc: 4 * 1024,
    };
    let (mut arrivals, mut batch) = (Vec::new(), Vec::new());
    for i in 0..40u64 {
        arrivals.push(SimTime(i * 7_654_321));
        let demand = SimDuration::from_millis(20 + (i * 37) % 150);
        batch.push(synthetic_job(
            format!("open{i}"),
            demand,
            &params,
            &CostModel::default(),
        ));
    }
    let plan = Run::prepare(&cfg, &batch, Some(&arrivals)).expect("plan");
    let reference_path = |m: &mut Machine| m.set_slice_reference(reference);
    let mut run = Run::build(&cfg, plan, batch, Some(arrivals), reference_path);
    assert_eq!(run.until(horizon), RunOutcome::HorizonReached);
    let Run { driver, engine } = run;
    (
        (
            format!("{:?}", driver.entry_records()),
            format!("{:?}", MachineStats::capture(&driver.machine, engine.now())),
            engine.events_processed(),
        ),
        driver.machine.cpu_express_stats(),
    )
}

#[test]
fn a_horizon_mid_window_reads_the_reference_state() {
    for discipline in [
        Discipline::Uncoordinated,
        Discipline::DynamicQuantum {
            base: SimDuration::from_millis(2),
        },
    ] {
        let mut stopped_in_window = 0;
        for k in 1..=8u64 {
            let horizon = SimTime(k * 37_654_321);
            let (express, stats) = stopped_run(discipline, horizon, false);
            let (reference, none) = stopped_run(discipline, horizon, true);
            assert_eq!(none.windows, 0, "{discipline:?}");
            assert_eq!(express, reference, "{discipline:?} stopped at {horizon}");
            stopped_in_window += stats.settled[SettleReason::RunEnd as usize];
        }
        // A dynamic quantum is the partition's mean remaining demand, so
        // its rotations seldom reach two boundaries; the fixed one must
        // be stopped inside open windows.
        if discipline == Discipline::Uncoordinated {
            assert!(stopped_in_window > 0, "no stop fell inside a window");
        }
    }
}
