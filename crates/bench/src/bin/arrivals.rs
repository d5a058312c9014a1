//! Open-system load sweep: response/slowdown curves versus offered load.
//!
//! ```text
//! arrivals [--smoke] [--seed N] [--out DIR]
//! ```
//!
//! `--smoke` is the tier-1 gate: one Poisson/exponential cell and one
//! heavy-tailed (bounded-Pareto) cell per policy class — static
//! space-sharing, uncoordinated time-sharing, and dynamic-quantum
//! time-sharing — each run twice with bit-identical records demanded,
//! plus a three-point ρ sweep whose mean response must be
//! monotone-nondecreasing in ρ.
//!
//! Full mode runs the ρ grid {0.2 .. 0.9} for each policy class under
//! both demand distributions and prints one table per sweep — the
//! source of the W1 appendix in `EXPERIMENTS.md`. `--out DIR` also
//! writes each table to `DIR/open_<policy>_<demand>.txt`.

use parsched_core::prelude::*;
use parsched_des::{SimDuration, SimTime};
use parsched_topology::TopologyKind;

/// The open-system machine: 16 nodes in four 4-node hypercube
/// partitions, 4-wide fork-join jobs with a 200 ms mean demand.
fn open_config(policy: PolicyKind, discipline: Discipline, seed: u64) -> OpenConfig {
    let mut exp = ExperimentConfig::paper(4, TopologyKind::Hypercube { dim: 0 }, policy);
    exp.discipline = discipline;
    OpenConfig::new(exp, seed)
}

/// The three policy classes a sweep covers, with table-friendly names.
fn classes() -> Vec<(&'static str, PolicyKind, Discipline)> {
    vec![
        ("static", PolicyKind::Static, Discipline::Uncoordinated),
        ("ts", PolicyKind::TimeSharing, Discipline::Uncoordinated),
        (
            "ts-dynq",
            PolicyKind::TimeSharing,
            Discipline::DynamicQuantum {
                base: SimDuration::from_millis(2),
            },
        ),
    ]
}

/// The heavy-tailed demand cell: bounded Pareto with the same 200 ms
/// scale as the exponential baseline but a long truncated tail.
fn pareto() -> DemandSpec {
    DemandSpec::BoundedPareto {
        alpha: 1.5,
        lo: SimDuration::from_millis(20),
        hi: SimDuration::from_secs(10),
    }
}

/// A small, fast cell for the smoke gate: fewer measured jobs, lighter
/// demands, single-digit milliseconds of simulated work per job.
fn smoke_config(policy: PolicyKind, discipline: Discipline, demand: DemandSpec) -> OpenConfig {
    let mut cfg = open_config(policy, discipline, 0xA11);
    cfg.params.mean_demand = SimDuration::from_millis(20);
    cfg.demand = demand;
    cfg.warmup = 5;
    cfg.stop = StopRule::Completions(25);
    cfg
}

fn smoke() {
    for (name, policy, discipline) in classes() {
        let cells = [
            (
                "exp",
                DemandSpec::Exponential {
                    mean: SimDuration::from_millis(20),
                },
            ),
            (
                "pareto",
                DemandSpec::BoundedPareto {
                    alpha: 1.5,
                    lo: SimDuration::from_millis(4),
                    hi: SimDuration::from_secs(1),
                },
            ),
        ];
        for (demand_name, demand) in cells {
            let cfg = smoke_config(policy, discipline, demand);
            let first = run_open_system(&cfg, 0.5)
                .unwrap_or_else(|e| panic!("{name}/{demand_name} failed: {e}"));
            assert_eq!(
                first.measured, 25,
                "{name}/{demand_name}: measured sample incomplete"
            );
            assert_eq!(
                first.unfinished, 0,
                "{name}/{demand_name}: jobs left behind"
            );
            let again = run_open_system(&cfg, 0.5)
                .unwrap_or_else(|e| panic!("{name}/{demand_name} rerun failed: {e}"));
            assert_eq!(
                first.records, again.records,
                "{name}/{demand_name}: replay diverged"
            );
            assert_eq!(first.end, again.end, "{name}/{demand_name}: end diverged");
        }
    }

    // The acceptance curve: mean response monotone-nondecreasing in ρ.
    let cfg = smoke_config(
        PolicyKind::TimeSharing,
        Discipline::Uncoordinated,
        DemandSpec::Exponential {
            mean: SimDuration::from_millis(20),
        },
    );
    let sweep = sweep_load(&cfg, &[0.3, 0.6, 0.9]).expect("smoke sweep completes");
    let means: Vec<f64> = sweep
        .mean_responses()
        .into_iter()
        .map(|m| m.expect("every point measures"))
        .collect();
    assert!(
        means.windows(2).all(|w| w[0] <= w[1]),
        "mean response not monotone in rho: {means:?}"
    );

    // A horizon-stopped run reports its unfinished tail instead of
    // hanging the gate on a saturated queue.
    let mut sat = cfg;
    sat.stop = StopRule::Horizon(SimTime::ZERO + SimDuration::from_millis(500));
    let r = run_open_system(&sat, 1.2).expect("horizon run completes");
    assert!(
        r.end <= SimTime::ZERO + SimDuration::from_millis(500),
        "horizon overrun"
    );

    println!(
        "arrivals --smoke: OK (3 policy classes x 2 demand cells replay \
         bit-identically, rho curve monotone: {means:?})"
    );
}

fn full(seed: u64, out: Option<&str>) {
    let rhos = [0.2, 0.4, 0.6, 0.8, 0.9];
    for (name, policy, discipline) in classes() {
        for demand in [
            DemandSpec::Exponential {
                mean: SimDuration::from_millis(200),
            },
            pareto(),
        ] {
            let mut cfg = open_config(policy, discipline, seed);
            cfg.demand = demand;
            let sweep = sweep_load(&cfg, &rhos)
                .unwrap_or_else(|e| panic!("sweep {name}/{} failed: {e}", demand.label()));
            let text = sweep.to_text();
            println!("{text}");
            if let Some(dir) = out {
                std::fs::create_dir_all(dir).expect("create out dir");
                let path =
                    std::path::Path::new(dir).join(format!("open_{name}_{}.txt", demand.label()));
                std::fs::write(&path, &text).expect("write sweep table");
                eprintln!("wrote {}", path.display());
            }
        }
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--smoke") {
        smoke();
        return;
    }
    let seed = args
        .iter()
        .position(|a| a == "--seed")
        .and_then(|i| args.get(i + 1))
        .and_then(|s| s.parse().ok())
        .unwrap_or(0xA11);
    let out = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .map(String::as_str);
    full(seed, out);
}
