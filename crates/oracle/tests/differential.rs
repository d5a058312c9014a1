//! The differential sweep: randomized scenarios through both engines.
//!
//! * `differential_sweep_fast` — the deterministic tier-1 subset (96
//!   cases, two full passes over the covered cross product). Runs on
//!   every `cargo test`.
//! * `differential_sweep_full` — the long randomized sweep, `#[ignore]`d
//!   by default; `scripts/tier1.sh tier1-full` runs it with elevated case
//!   counts. `ORACLE_CASES` sets the count, `ORACLE_SEED` the root seed,
//!   `ORACLE_ONLY_CASE` replays a single case (all three read by both
//!   sweeps, so a failure's printed replay line works verbatim).
//!
//! Both sweeps print how many worms took the wormhole express path, were
//! materialized back into flit state, or ran flit by flit (by reason), and
//! how the CPUs used their express path: windows, slices skipped, settles
//! and declines by reason, and same-instant ties by which came first.
//! Under the default seed (and at least the full sweep's 240 cases) the
//! full sweep also fails if no worm was materialized or no same-instant
//! tie went to the other event first, so those branches stay exercised.
//!
//! Every failing case panics with a self-contained replay description and
//! dumps the full report under `target/repro/oracle_case_<n>.txt`.

use parsched_machine::{CpuExpressStats, ExpressStats};
use parsched_oracle::{dump_repro, run_differential, Scenario};

/// Root seed of the sweeps (override with `ORACLE_SEED`, hex or decimal).
const DEFAULT_SEED: u64 = 0x0DD5_0F0A;

fn env_u64(name: &str) -> Option<u64> {
    let raw = std::env::var(name).ok()?;
    let parsed = raw
        .strip_prefix("0x")
        .map(|h| u64::from_str_radix(h, 16))
        .unwrap_or_else(|| raw.parse());
    Some(parsed.unwrap_or_else(|e| panic!("bad {name}={raw}: {e}")))
}

/// Run the sweep; returns the summed wormhole and CPU express-path counts.
fn sweep(default_cases: u64) -> (ExpressStats, CpuExpressStats) {
    let seed = env_u64("ORACLE_SEED").unwrap_or(DEFAULT_SEED);
    let cases: Vec<u64> = match env_u64("ORACLE_ONLY_CASE") {
        Some(case) => {
            // Print the knobs before running: a replayed case that hangs or
            // crashes should still have identified itself.
            eprintln!("{}", Scenario::generate(seed, case).describe());
            vec![case]
        }
        None => (0..env_u64("ORACLE_CASES").unwrap_or(default_cases)).collect(),
    };
    let mut divergences = 0u32;
    let mut express = ExpressStats::default();
    let mut cpu = CpuExpressStats::default();
    for &case in &cases {
        let scenario = Scenario::generate(seed, case);
        match run_differential(&scenario) {
            Ok(capture) => {
                express.absorb(&capture.express);
                cpu.absorb(&capture.cpu_express);
            }
            Err(div) => {
                divergences += 1;
                match dump_repro(&scenario, &div) {
                    Ok(path) => eprintln!("{div}\nrepro dumped to {}", path.display()),
                    Err(io) => eprintln!("{div}\n(repro dump failed: {io})"),
                }
            }
        }
    }
    eprintln!("wormhole worms over {} cases: {express}", cases.len());
    eprintln!("CPU express over {} cases: {cpu}", cases.len());
    assert_eq!(
        divergences,
        0,
        "{divergences} of {} scenarios diverged from the oracle (see above)",
        cases.len()
    );
    (express, cpu)
}

#[test]
fn differential_sweep_fast() {
    // Two passes over the 48-cell cross product; ~seconds in debug.
    sweep(96);
}

#[test]
#[ignore = "long sweep; run via scripts/tier1.sh tier1-full or ORACLE_CASES=N cargo test -- --include-ignored"]
fn differential_sweep_full() {
    let (express, cpu) = sweep(240);
    // The default seed's first 240 cases materialize express worms twice
    // and meet same-instant ties at CPU window boundaries in both orders;
    // smaller or reseeded sweeps may legitimately see none.
    let default_sweep = env_u64("ORACLE_SEED").is_none_or(|s| s == DEFAULT_SEED)
        && env_u64("ORACLE_ONLY_CASE").is_none()
        && env_u64("ORACLE_CASES").is_none_or(|n| n >= 240);
    if default_sweep {
        assert!(express.materialized > 0, "no express worm was materialized: {express}");
        assert!(cpu.ties[1] > 0, "no event-first tie was resolved: {cpu}");
    }
}

/// The shards a run of `jobs` jobs under `config` uses at cap `k`, read
/// off the placement: the t = 0 admission puts job `i` on partition
/// `i mod P` until each partition holds MPL + 1 jobs (MPL 1 under the
/// static policy and unbounded under time-sharing unless capped), and of
/// the contiguous `k`-cut only the shards holding a placed job run.
fn shards_reached(config: &parsched_core::ExperimentConfig, jobs: usize, k: usize) -> usize {
    use parsched_core::PolicyKind;
    use parsched_topology::ShardPlan;
    let parts = config.system_size / config.partition_size;
    let per_partition = match (config.mpl, config.policy) {
        (Some(mpl), _) => mpl + 1,
        (None, PolicyKind::Static) => 2,
        (None, PolicyKind::TimeSharing) => usize::MAX,
    };
    let placed = jobs.min(parts.saturating_mul(per_partition));
    let cut = ShardPlan::contiguous(parts, k);
    let mut used: Vec<usize> = (0..placed.min(parts)).map(|q| cut.shard_of(q)).collect();
    used.dedup();
    used.len().max(1)
}

/// The invariant checkers hold on randomized scenarios too, not just the
/// handpicked integration configurations: every closed-batch case in one
/// cross-product pass runs instrumented and must satisfy conservation,
/// causality, and FCFS admission.
/// Shard-count invariance: an eligible scenario produces bit-identical
/// observables at every shard count K ∈ {1, 2, 4, 8}, and every sharded
/// run is deterministic across thread interleavings (each K runs twice
/// and the fingerprints must agree). Each run uses exactly the shards its
/// placement reaches ([`shards_reached`]), and at least three checked
/// cases really shard at K = 2.
#[test]
fn sharded_runs_are_bit_identical_across_shard_counts() {
    use parsched_core::{run_batch_sharded, shard_eligibility};
    let seed = env_u64("ORACLE_SEED").unwrap_or(DEFAULT_SEED);
    let mut checked = 0;
    let mut sharded_at_two = 0;
    for case in 0..96 {
        let scenario = Scenario::generate(seed, case);
        let config = scenario.config();
        if !scenario.arrivals.is_empty() || shard_eligibility(&config).is_err() {
            continue;
        }
        let batch = scenario.batch();
        let seq = run_batch_sharded(&config, batch.clone(), 1)
            .unwrap_or_else(|e| panic!("{e}\n{}", scenario.describe()));
        for k in [2usize, 4, 8] {
            let want = shards_reached(&config, batch.len(), k);
            if k == 2 && want > 1 {
                sharded_at_two += 1;
            }
            let mut fingerprints = Vec::new();
            for pass in 0..2 {
                let par = run_batch_sharded(&config, batch.clone(), k)
                    .unwrap_or_else(|e| panic!("{e}\n{}", scenario.describe()));
                assert_eq!(par.shards, want, "K={k}\n{}", scenario.describe());
                assert_eq!(par.fallback.is_none(), want > 1, "K={k}: {:?}", par.fallback);
                assert_eq!(
                    par.response_times,
                    seq.response_times,
                    "K={k} pass={pass}\n{}",
                    scenario.describe()
                );
                assert_eq!(par.makespan, seq.makespan, "K={k}");
                assert_eq!(par.counters, seq.counters, "K={k}");
                assert_eq!(par.events, seq.events, "K={k}");
                fingerprints.push(par.fingerprint());
            }
            assert_eq!(
                fingerprints[0],
                fingerprints[1],
                "interleaving nondeterminism at K={k}\n{}",
                scenario.describe()
            );
            assert_eq!(fingerprints[0], seq.fingerprint(), "K={k}");
        }
        checked += 1;
        if checked >= 6 {
            break; // bounded test time; the sweep covers the rest
        }
    }
    assert!(checked >= 3, "too few eligible scenarios: {checked}");
    assert!(sharded_at_two >= 3, "too few cases shard at K = 2: {sharded_at_two}");
}

/// Targeted coverage for the widened shard-eligibility gate: every
/// coordinated class — static space-sharing, the hybrid discipline
/// (time-sharing under an MPL cap), an MPL-capped static run, and
/// time-sharing under crash and flaky-link fault plans — must match the
/// oracle AND be bit-identical to its sequential run at K ∈ {2, 4, 8}.
/// Hand-built scenarios, not sweep draws, so the coverage holds on every
/// `cargo test` regardless of the dice: a 16-node linear machine in eight
/// 2-node partitions, so even K = 8 cuts along real partition boundaries.
/// The six jobs land on partitions 0..=5, so the cuts `[0,0,0,0,1,1,1,1]`,
/// `[0,0,1,1,2,2,3,3]` and one partition per shard run 2, 3 and 6 shards
/// at K = 2, 4 and 8, the last of them also owning the idle partitions.
#[test]
fn coordinated_classes_shard_bit_identically() {
    use parsched_core::{shard_eligibility, Discipline, Placement};
    use parsched_des::SimTime;
    use parsched_machine::{FaultPlan, LinkWindow, NodeCrash, Switching};
    use parsched_oracle::{Order, PolicyClass};
    use parsched_topology::TopologyKind;
    use parsched_workload::{App, Arch, BatchSizes};

    let crash_plan = FaultPlan {
        crashes: vec![NodeCrash {
            node: 3,
            at: SimTime(30_000_000), // 30 ms: mid-batch, kills a running job
        }],
        ..FaultPlan::default()
    };
    let flaky_plan = FaultPlan {
        links: vec![LinkWindow {
            from: 0,
            to: 1,
            down_at: SimTime(5_000_000),
            up_at: SimTime(12_000_000),
        }],
        drop_prob: 0.03,
        drop_seed: 7,
        ..FaultPlan::default()
    };
    let classes: [(&str, PolicyClass, Option<usize>, FaultPlan); 5] = [
        ("static", PolicyClass::Static, None, FaultPlan::default()),
        ("hybrid (MPL-2 time-sharing)", PolicyClass::Hybrid, Some(2), FaultPlan::default()),
        ("MPL-capped static", PolicyClass::Static, Some(2), FaultPlan::default()),
        ("crash fault plan", PolicyClass::Hybrid, None, crash_plan),
        ("flaky-link fault plan", PolicyClass::Hybrid, None, flaky_plan),
    ];
    for (what, class, mpl, faults) in classes {
        for (shards, used) in [(2usize, 2usize), (4, 3), (8, 6)] {
            let scenario = Scenario {
                case: 9000 + shards as u64, // marks hand-built cases in reports
                seed: 0,
                topology: TopologyKind::Linear,
                system_size: 16,
                partition_size: 2,
                class,
                app: App::MatMul,
                arch: Arch::Fixed,
                sizes: BatchSizes {
                    jobs: 6,
                    small_count: 3,
                    mm_small: 20,
                    mm_large: 40,
                    sort_small: 600,
                    sort_large: 2000,
                },
                order: Order::AsGiven,
                switching: Switching::PacketizedSaf,
                discipline: Discipline::Uncoordinated,
                placement: Placement::RoundRobin,
                mpl,
                arrivals: Vec::new(),
                faults: faults.clone(),
                shards,
                relay: None,
            };
            assert_eq!(
                shard_eligibility(&scenario.config()),
                Ok(()),
                "{what}: must be shard-eligible"
            );
            if let Err(div) = run_differential(&scenario) {
                panic!("{what} at K={shards}: {div}");
            }
            // run_differential proves bit-identity even through a runtime
            // fallback; additionally demand these classes really shard.
            let par = parsched_core::run_batch_sharded(
                &scenario.config(),
                scenario.batch(),
                shards,
            )
            .unwrap_or_else(|e| panic!("{what} at K={shards}: {e}"));
            assert_eq!(par.fallback, None, "{what} at K={shards} fell back");
            assert_eq!(par.shards, used, "{what} at K={shards}");
        }
    }
}

#[test]
fn invariants_hold_on_random_scenarios() {
    use parsched_core::run_batch_observed;
    use parsched_oracle::invariants;
    let seed = env_u64("ORACLE_SEED").unwrap_or(DEFAULT_SEED);
    let mut checked = 0;
    for case in 0..48 {
        let scenario = Scenario::generate(seed, case);
        if !scenario.arrivals.is_empty() {
            // run_batch_observed models the paper's closed setting.
            continue;
        }
        let (result, obs) = run_batch_observed(&scenario.config(), scenario.batch())
            .unwrap_or_else(|e| panic!("{e}\n{}", scenario.describe()));
        invariants::check_event_stream(&obs.events);
        invariants::check_fcfs_admission(&obs.events);
        invariants::check_cpu_conservation(&obs.metrics, obs.layout.node_count, result.makespan);
        checked += 1;
    }
    assert!(checked >= 24, "too few closed-batch cases: {checked}");
}
