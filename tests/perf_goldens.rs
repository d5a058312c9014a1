//! Bit-exact goldens for the multi-partition cells: one row per shard
//! family, plus the hybrid F3 cell and three open-stream cells.
//!
//! Each shard family — the 64-node `shard_scale` machine, the 1024-node
//! `t1k` cells and the relay cells at ~4k, ~16k and ~64k nodes (see
//! `parsched_bench::scale`) — runs at K = 1, 2 and 4 shards, and every run
//! must equal its row bit for bit: the shard count may move wall-clock
//! time, never simulated time. Each sharded run also checks the shards it
//! used. The static and time-sharing F3 cells on the 16-node hypercube are
//! `tests/golden_f3.rs`'s 16H row.
//!
//! A drifting run prints what it got and the row to paste over its golden.
//! Re-record only after an intentional model change, with EXPERIMENTS.md
//! updated to match.

use parsched::prelude::*;
use parsched::topology::ShardPlan;
use parsched_bench::scale::{shard_scale, t4k, torus1k, tscale, Cell1k, Cell4k, ScalePoint};

/// (row, mean response bits), in the order [`runs`] produces them.
const GOLDEN: &[(&str, u64)] = &[
    ("f3_hc16_hybrid", 0x401588d55c70f7c3),
    ("open_hc4_static", 0x4007a4d80f7a7f9f),
    ("open_hc4_ts", 0x4008015f95270a67),
    ("open_hc4_dynq", 0x4008609b4f209461),
    ("shard_scale", 0x3ffadd67fa06b926),
    ("t1k_static", 0x401721d3bd167665),
    ("t1k_hybrid", 0x4018df89f319a3d1),
    ("t1k_faulted", 0x401b46a831105d0b),
    ("t4k_torus_worm", 0x4025ba1da636be8c),
    ("t4k_torus_saf", 0x403f0c81709cb9f8),
    ("t4k_fattree_worm", 0x40258b69adc39d24),
    ("t4k_fattree_saf", 0x4041e781b3e38b9a),
    ("t4k_dragonfly_worm", 0x4025aaa9fed2bf92),
    ("t4k_dragonfly_saf", 0x4038cc65523f3d02),
    ("t16k_torus_worm", 0x4025ba1da636be8c),
    ("t16k_torus_saf", 0x403f0c81709cb9f8),
    ("t16k_fattree_worm", 0x40258b69adc39d24),
    ("t16k_fattree_saf", 0x4041e781b3e38b9a),
    ("t16k_dragonfly_worm", 0x4025aaa9fed2bf92),
    ("t16k_dragonfly_saf", 0x4038cc65523f3d02),
    ("t64k_torus_worm", 0x4025ba1da636be8c),
    ("t64k_torus_saf", 0x403f0c81709cb9f8),
    ("t64k_fattree_worm", 0x40258b69adc39d24),
    ("t64k_fattree_saf", 0x4041e781b3e38b9a),
    ("t64k_dragonfly_worm", 0x4025aaa9fed2bf92),
    ("t64k_dragonfly_saf", 0x4038cc65523f3d02),
];

/// The shard counts every family runs at.
const SHARDS: [usize; 3] = [1, 2, 4];

/// One pinned run: its row, its shard count (`None` off the sharded
/// runner) and its mean response.
type Run = (String, Option<usize>, f64);

/// Run one shard family at every shard count, checking each result with
/// `check` before recording its mean.
fn family(
    runs: &mut Vec<Run>,
    row: &str,
    (cfg, batch): (ExperimentConfig, Vec<JobSpec>),
    check: impl Fn(&ShardedRunResult, usize),
) {
    for k in SHARDS {
        let r = run_batch_sharded(&cfg, batch.clone(), k)
            .unwrap_or_else(|e| panic!("{row} at K = {k}: {e}"));
        check(&r, k);
        runs.push((row.to_string(), Some(k), r.mean_response()));
    }
}

/// A relay cell (t4k, t16k, t64k) must run on exactly the shards its
/// batch reaches. The t = 0 placement puts relay job `i` on partition `i`,
/// and of the contiguous `k`-cut only the shards holding those partitions
/// run: most cells' 8 jobs reach shard 0 alone and run sequentially with
/// the runner's reason, while `t4k_fattree` at K = 4 (five partitions a
/// shard) runs 2. Anything else, a silent fallback included, fails.
fn relay(runs: &mut Vec<Run>, row: &str, cell: (ExperimentConfig, Vec<JobSpec>)) {
    let parts = cell.0.system_size / cell.0.partition_size;
    let jobs = cell.1.len();
    assert!(
        jobs <= parts,
        "{row}: relay jobs must fit one per partition"
    );
    family(runs, row, cell, |r, k| {
        let used = ShardPlan::contiguous(parts, k).shard_of(jobs - 1) + 1;
        let sequential = "the batch's t = 0 placement reaches at most one shard";
        let reason = (k > 1 && used == 1).then_some(sequential);
        assert_eq!((r.shards, r.fallback), (used, reason), "{row} at K = {k}");
    });
}

/// One open-stream cell on the paper's 16 nodes as four 4-node hypercube
/// partitions: 300 Poisson arrivals at rho 0.7 of 4-wide jobs with
/// bounded-Pareto demand (200 ms to 100 s). Arrivals outrun the host
/// loader, so a backlog builds on every partition. The mean is over the
/// 280 jobs after a 20-job warm-up.
fn open_hc4(policy: PolicyKind, discipline: Discipline) -> f64 {
    let mut exp = ExperimentConfig::paper(4, TopologyKind::Hypercube { dim: 0 }, policy);
    exp.discipline = discipline;
    let mut cfg = OpenConfig::new(exp, 20);
    cfg.demand = DemandSpec::BoundedPareto {
        alpha: 1.5,
        lo: SimDuration::from_millis(200),
        hi: SimDuration::from_secs(100),
    };
    cfg.warmup = 20;
    cfg.stop = StopRule::Completions(280);
    let r = run_open_system(&cfg, 0.7).expect("open_hc4 cell simulates");
    r.response.expect("measured jobs finished").mean
}

/// Every pinned run, in table order.
fn runs() -> Vec<Run> {
    let mut runs = Vec::new();

    // Figure 3's 16-node hypercube cell under time-sharing capped at MPL 4
    // (the paper's hybrid discipline).
    let hybrid = ExperimentConfig {
        mpl: Some(4),
        ..ExperimentConfig::paper(
            16,
            TopologyKind::Hypercube { dim: 0 },
            PolicyKind::TimeSharing,
        )
    };
    let batch = paper_batch(
        App::MatMul,
        Arch::Fixed,
        16,
        &BatchSizes::default(),
        &CostModel::default(),
    );
    let f3 = run_experiment(&hybrid, &batch).expect("f3 cell simulates");
    runs.push(("f3_hc16_hybrid".into(), None, f3.mean_response));

    let dynq = Discipline::DynamicQuantum {
        base: SimDuration::from_millis(2),
    };
    for (label, policy, discipline) in [
        ("static", PolicyKind::Static, Discipline::Uncoordinated),
        ("ts", PolicyKind::TimeSharing, Discipline::Uncoordinated),
        ("dynq", PolicyKind::TimeSharing, dynq),
    ] {
        let mean = open_hc4(policy, discipline);
        runs.push((format!("open_hc4_{label}"), None, mean));
    }

    family(&mut runs, "shard_scale", shard_scale(), |_, _| {});
    for cell in Cell1k::all() {
        let row = format!("t1k_{}", cell.label());
        family(&mut runs, &row, torus1k(cell), |r, k| {
            assert_eq!(r.fallback, None, "{row} at K = {k} fell back");
        });
    }
    let switchings = [
        (Switching::Wormhole, "worm"),
        (Switching::StoreAndForward, "saf"),
    ];
    for cell in Cell4k::all() {
        for (switching, sw) in switchings {
            let row = format!("t4k_{}_{sw}", cell.label());
            relay(&mut runs, &row, t4k(cell, switching));
        }
    }
    for point in ScalePoint::all() {
        for cell in Cell4k::all() {
            for (switching, sw) in switchings {
                let row = format!("{}_{}_{sw}", point.label(), cell.label());
                relay(&mut runs, &row, tscale(cell, point, switching));
            }
        }
    }
    runs
}

#[test]
fn every_run_matches_its_row_bit_for_bit() {
    let runs = runs();
    let mut rows: Vec<&str> = runs.iter().map(|(row, _, _)| row.as_str()).collect();
    rows.dedup();
    let golden: Vec<&str> = GOLDEN.iter().map(|&(row, _)| row).collect();
    assert_eq!(rows, golden, "the table's rows changed");

    let mut drifted = Vec::new();
    for (row, k, got) in &runs {
        let bits = GOLDEN.iter().find(|(r, _)| r == row).expect("row listed").1;
        if got.to_bits() != bits {
            let at = k.map_or(String::new(), |k| format!(" at K = {k}"));
            drifted.push(format!(
                "{row}{at}: got {got} ({:#018x}), golden {} ({bits:#018x}); replacement row:\n    \
                 (\"{row}\", {:#018x}),",
                got.to_bits(),
                f64::from_bits(bits),
                got.to_bits(),
            ));
        }
    }
    assert!(
        drifted.is_empty(),
        "{} of {} runs drifted:\n{}",
        drifted.len(),
        runs.len(),
        drifted.join("\n")
    );
}
