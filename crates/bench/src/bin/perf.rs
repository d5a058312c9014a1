//! Wall-clock benchmark of the simulator's hot paths.
//!
//! ```text
//! perf [--check] [--quick] [--heavy] [--iters N] [--warmup N]
//!      [--save-baseline] [--out PATH] [--only NAME[,NAME...]]
//! ```
//!
//! Scenarios:
//!
//! * `f3_hc16_ts` — the headline: Figure 3's 16-node hypercube partition
//!   under time-sharing, full paper batch (the configuration with the most
//!   traffic and the deepest event queue);
//! * `f3_hc16_static` — same machine under static space-sharing;
//! * `f3_hc16_hybrid` — time-sharing capped at MPL 4 (the paper's hybrid
//!   discipline), which drives the slice-timer cancel path hardest;
//! * `queue_hold_heap_n{64,4096}` — the bare future-event heap under the
//!   hold model (pop-then-push at a steady population), the classic queue
//!   benchmark;
//! * `shard_scale_{seq,s2,s4}` — the conservative-parallel runner on a
//!   64-node machine of four 16-node hypercube partitions (the 16-node
//!   paper machine is a single partition and cannot shard): the same
//!   workload at 1, 2 and 4 shards. All three pin the *same* simulated
//!   mean response — sharding may only move wall-clock time;
//! * `t1k_{static,hybrid,faulted}_{seq,s2,s4}` — the coordinated sharding
//!   classes at scale: a 1024-node torus of sixteen 64-node partitions
//!   under static space-sharing, the hybrid MPL-2 discipline, and
//!   time-sharing with a two-crash fault plan (see
//!   `parsched_bench::scale`). Within each cell the three shard counts
//!   pin the *same* golden; `--check` also verifies that cross-scenario
//!   equality, so a shard-count-dependent divergence cannot hide behind
//!   three individually-updated goldens;
//! * `t4k_{torus,fattree,dragonfly}_{worm,saf}_{seq,s2,s4}` — the
//!   wormhole-vs-store-and-forward headline at ~4096 nodes (the paper's
//!   §5.2 conjecture at scale; see `parsched_bench::scale::t4k`): one
//!   topology family per policy class, each switching mode pinned as its
//!   own golden and each (cell, switching) family asserted shard-count
//!   independent at K ∈ {1, 2, 4}. The runner starts only the shards a
//!   batch reaches, and the 8 relay jobs land on partitions 0..8, so
//!   every `_s2`/`_s4` relay run but `t4k_fattree_*_s4` (2 shards) takes
//!   the sequential path; each run asserts its exact shard count;
//! * `t{16k,64k}_{torus,fattree,dragonfly}_{worm,saf}_{seq,s2,s4}` — the
//!   t4k cells scaled into the index space the widened `u32` `NodeId`
//!   opened (16 384–16 640 and 65 728–65 920 processors; every t64k size
//!   deliberately crosses the old 65 536 ceiling). These are **heavy**
//!   scenarios: plain runs and `--check` skip them unless `--heavy` is
//!   passed (or `--only` names one explicitly), so the tier-1 gate stays
//!   fast while the goldens and their shard families remain pinned for
//!   the full run;
//! * `open_hc4_{static,ts,dynq}` — an open stream on the paper's 16 nodes
//!   as four 4-node hypercube partitions: 300 Poisson arrivals at rho 0.7
//!   of 4-wide jobs with bounded-Pareto demand (200 ms to 100 s), under
//!   static, time-sharing and dynamic-quantum (2 ms) policies. Arrivals
//!   outrun the serialized host loader, so a backlog of admitted, unloaded
//!   jobs builds on every partition: these pin the driver's partition
//!   bookkeeping, the dynamic quantum and the loader's event stream.
//!
//! Results append to `BENCH_parsched.json` (see `parsched_bench::harness`):
//! `baseline` medians are captured the first time a scenario appears and
//! then *frozen* — later runs print speedups against them but refuse to
//! touch them unless `--save-baseline` is passed. Every f3 scenario's
//! *simulated* mean response is pinned bit-exactly in the `golden` map: an
//! optimization may only move wall-clock time, never simulated time.
//!
//! `--check` is the CI mode (`scripts/tier1.sh`): one untimed run of the
//! f3 scenarios, verified bit-identical against the goldens; exits
//! non-zero on any mismatch, if no goldens are recorded, or if a golden
//! or baseline names no defined scenario. `--quick`
//! drops the batch repetition count to 1 — every repetition simulates the
//! identical batch, so the golden comparison is unaffected and the gate
//! runs in a couple of seconds.

use parsched_bench::harness::{bench, host_parallelism, BenchOpts, Report, Sample};
use parsched_bench::scale::{t4k, torus1k, tscale, Cell1k, Cell4k, ScalePoint};
use parsched_machine::Switching;
use parsched_core::prelude::*;
use parsched_des::prelude::*;
use parsched_machine::JobSpec;
use parsched_topology::{ShardPlan, TopologyKind};
use parsched_workload::prelude::*;
use std::sync::atomic::{AtomicBool, Ordering};

/// `--quick`: time/check one repetition of the f3 batch instead of
/// [`F3_REPS`] (bit-identical simulated results, ~10x less wall time).
static QUICK: AtomicBool = AtomicBool::new(false);

fn f3_config(policy: PolicyKind, mpl: Option<usize>) -> (ExperimentConfig, Vec<JobSpec>) {
    let cfg = ExperimentConfig {
        mpl,
        ..ExperimentConfig::paper(16, TopologyKind::Hypercube { dim: 0 }, policy)
    };
    let batch = paper_batch(
        App::MatMul,
        Arch::Fixed,
        16,
        &BatchSizes::default(),
        &CostModel::default(),
    );
    (cfg, batch)
}

/// One full F3 batch takes only a few milliseconds, too short to time
/// reliably; every timed iteration repeats it this many times.
const F3_REPS: u32 = 10;

fn run_f3(policy: PolicyKind, mpl: Option<usize>) -> f64 {
    let (cfg, batch) = f3_config(policy, mpl);
    let reps = if QUICK.load(Ordering::Relaxed) { 1 } else { F3_REPS };
    let mut metric = 0.0;
    for _ in 0..reps {
        metric = std::hint::black_box(
            run_experiment(&cfg, &batch)
                .expect("f3 configuration simulates")
                .mean_response,
        );
    }
    metric
}

/// The shard-scale machine: 64 nodes in four 16-node hypercube partitions
/// under uncoordinated time-sharing, with the f3 workload family sized to
/// multiprogram every partition. Eligible for the conservative-parallel
/// runner, which must reproduce the sequential observables bit for bit.
fn shard_scale_config() -> (ExperimentConfig, Vec<JobSpec>) {
    let cfg = ExperimentConfig {
        system_size: 64,
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
    (cfg, batch)
}

fn run_shard_scale(shards: usize) -> f64 {
    let (cfg, batch) = shard_scale_config();
    let reps = if QUICK.load(Ordering::Relaxed) { 1 } else { F3_REPS };
    let mut metric = 0.0;
    for _ in 0..reps {
        metric = std::hint::black_box(
            run_batch_sharded(&cfg, batch.clone(), shards)
                .expect("shard-scale configuration simulates")
                .mean_response(),
        );
    }
    metric
}

/// One 1024-node cell at a given shard count. The run must actually use
/// the requested shards — a silent fallback would time the sequential
/// path while claiming to bench the parallel one.
fn run_t1k(cell: Cell1k, shards: usize) -> f64 {
    let (cfg, batch) = torus1k(cell);
    let r = run_batch_sharded(&cfg, batch, shards).expect("t1k cell simulates");
    assert_eq!(
        r.fallback, None,
        "t1k_{} at {shards} shards fell back to sequential",
        cell.label()
    );
    std::hint::black_box(r.mean_response())
}

/// Assert a relay cell's run (t4k, t16k, t64k) used exactly the shards
/// its batch reaches. The t = 0 placement puts relay job `i` on partition
/// `i` (every cell has more partitions than jobs, each with room for one),
/// and of the contiguous `shards`-cut only the shards holding those
/// partitions run. Most cells' 8 jobs reach shard 0 alone and run
/// sequentially with the runner's reason; `t4k_fattree` at 4 shards
/// (five partitions each) runs 2. Anything else — a silent fallback
/// included — fails.
fn assert_relay_shards(
    r: &ShardedRunResult,
    cfg: &ExperimentConfig,
    jobs: usize,
    shards: usize,
    what: &str,
) {
    let parts = cfg.system_size / cfg.partition_size;
    assert!(jobs <= parts, "{what}: relay jobs must fit one per partition");
    let used = ShardPlan::contiguous(parts, shards).shard_of(jobs - 1) + 1;
    let sequential = "the batch's t = 0 placement reaches at most one shard";
    let reason = (shards > 1 && used == 1).then_some(sequential);
    assert_eq!((r.shards, r.fallback), (used, reason), "{what} at {shards} shards");
}

/// One t4k interconnect cell (see `parsched_bench::scale::t4k`): a
/// ~4096-node torus / fat-tree / dragonfly machine under wormhole or
/// store-and-forward switching, at exactly the shards its batch reaches.
fn run_t4k(cell: Cell4k, switching: Switching, shards: usize) -> f64 {
    let (cfg, batch) = t4k(cell, switching);
    let jobs = batch.len();
    let r = run_batch_sharded(&cfg, batch, shards).expect("t4k cell simulates");
    assert_relay_shards(&r, &cfg, jobs, shards, &format!("t4k_{}", cell.label()));
    std::hint::black_box(r.mean_response())
}

/// One t16k/t64k cell (see `parsched_bench::scale::tscale`): the t4k
/// experiment scaled past the old `u16` node-index ceiling, under the same
/// shard-count contract.
fn run_tscale(cell: Cell4k, point: ScalePoint, switching: Switching, shards: usize) -> f64 {
    let (cfg, batch) = tscale(cell, point, switching);
    let jobs = batch.len();
    let r = run_batch_sharded(&cfg, batch, shards).expect("tscale cell simulates");
    let what = format!("{}_{}", point.label(), cell.label());
    assert_relay_shards(&r, &cfg, jobs, shards, &what);
    std::hint::black_box(r.mean_response())
}

/// One open-stream cell (`open_hc4_*`): the pinned metric is the mean
/// response over the measured jobs.
fn run_open_hc4(policy: PolicyKind, discipline: Discipline) -> f64 {
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
    std::hint::black_box(r.response.expect("measured jobs finished").mean)
}

/// Classic hold-model queue benchmark on the future-event heap: fill to
/// `n`, then `ops` rounds of pop-one push-one with a uniform increment,
/// which keeps the population steady.
fn queue_hold(n: u64, ops: u64) -> f64 {
    let mut q = BinaryHeapQueue::new();
    let mut rng = DetRng::new(0xBE7C);
    let mut seq = 0u64;
    for _ in 0..n {
        seq += 1;
        q.push(Scheduled {
            time: SimTime(rng.uniform_u64(0, 1_000_000)),
            seq,
            event: seq,
        });
    }
    let mut acc = 0u64;
    for _ in 0..ops {
        let head = q.pop().expect("population is steady");
        acc = acc.wrapping_add(head.time.nanos());
        seq += 1;
        q.push(Scheduled {
            time: SimTime(head.time.nanos() + rng.uniform_u64(1, 1_000_000)),
            seq,
            event: seq,
        });
    }
    acc as f64 // fold into the metric slot so the work cannot be elided
}

struct Scenario {
    name: String,
    /// f3 scenarios pin their simulated result in the golden map.
    pinned: bool,
    /// t16k/t64k cells: skipped by plain runs and `--check` unless
    /// `--heavy` is passed or `--only` names them explicitly.
    heavy: bool,
    /// Worker threads the scenario runs with (recorded per sample).
    threads: u32,
    /// Simulated machine size, recorded in the report's `nodes` field
    /// (`None` for the queue micro-benchmarks).
    nodes: Option<u64>,
    run: Box<dyn Fn() -> Option<f64>>,
}

/// The shard counts every sharded family is pinned at, with their
/// scenario-name suffixes.
const SHARD_COUNTS: [(usize, &str); 3] = [(1, "seq"), (2, "s2"), (4, "s4")];

/// The two switching modes of the t4k/t16k/t64k cells, with their
/// scenario-name fragments.
const SWITCHINGS: [(Switching, &str); 2] = [
    (Switching::Wormhole, "worm"),
    (Switching::StoreAndForward, "saf"),
];

/// Scenario families whose goldens must be bit-equal: the same simulated
/// cell at different shard counts. The flag marks heavy (t16k/t64k)
/// families, checked only under `--heavy`.
fn shard_families() -> Vec<(bool, Vec<String>)> {
    let family = |heavy: bool, stem: String| {
        (heavy, SHARD_COUNTS.iter().map(|(_, sfx)| format!("{stem}_{sfx}")).collect())
    };
    let mut fams = vec![family(false, "shard_scale".into())];
    for cell in Cell1k::all() {
        fams.push(family(false, format!("t1k_{}", cell.label())));
    }
    for cell in Cell4k::all() {
        for (_, sw) in SWITCHINGS {
            fams.push(family(false, format!("t4k_{}_{sw}", cell.label())));
        }
    }
    for point in ScalePoint::all() {
        for cell in Cell4k::all() {
            for (_, sw) in SWITCHINGS {
                fams.push(family(true, format!("{}_{}_{sw}", point.label(), cell.label())));
            }
        }
    }
    fams
}

/// Build the full scenario list: the light tier first (always run), then
/// the heavy t16k/t64k cells (gated behind `--heavy`).
fn scenarios() -> Vec<Scenario> {
    fn light(
        name: &str,
        pinned: bool,
        nodes: Option<u64>,
        run: impl Fn() -> Option<f64> + 'static,
    ) -> Scenario {
        Scenario {
            name: name.to_string(),
            pinned,
            heavy: false,
            threads: 1,
            nodes,
            run: Box::new(run),
        }
    }
    let mut v = vec![
        light("f3_hc16_ts", true, Some(16), || {
            Some(run_f3(PolicyKind::TimeSharing, None))
        }),
        light("f3_hc16_static", true, Some(16), || {
            Some(run_f3(PolicyKind::Static, None))
        }),
        light("f3_hc16_hybrid", true, Some(16), || {
            Some(run_f3(PolicyKind::TimeSharing, Some(4)))
        }),
        light("queue_hold_heap_n64", false, None, || {
            queue_hold(64, 2_000_000);
            None
        }),
        light("queue_hold_heap_n4096", false, None, || {
            queue_hold(4096, 2_000_000);
            None
        }),
    ];
    for (label, policy, discipline) in [
        ("static", PolicyKind::Static, Discipline::Uncoordinated),
        ("ts", PolicyKind::TimeSharing, Discipline::Uncoordinated),
        (
            "dynq",
            PolicyKind::TimeSharing,
            Discipline::DynamicQuantum {
                base: SimDuration::from_millis(2),
            },
        ),
    ] {
        v.push(light(&format!("open_hc4_{label}"), true, Some(16), move || {
            Some(run_open_hc4(policy, discipline))
        }));
    }
    for (shards, sfx) in SHARD_COUNTS {
        v.push(Scenario {
            name: format!("shard_scale_{sfx}"),
            pinned: true,
            heavy: false,
            threads: shards as u32,
            nodes: Some(64),
            run: Box::new(move || Some(run_shard_scale(shards))),
        });
    }
    for cell in Cell1k::all() {
        for (shards, sfx) in SHARD_COUNTS {
            v.push(Scenario {
                name: format!("t1k_{}_{sfx}", cell.label()),
                pinned: true,
                heavy: false,
                threads: shards as u32,
                nodes: Some(1024),
                run: Box::new(move || Some(run_t1k(cell, shards))),
            });
        }
    }
    for cell in Cell4k::all() {
        for (switching, sw) in SWITCHINGS {
            for (shards, sfx) in SHARD_COUNTS {
                let nodes = t4k(cell, switching).0.system_size as u64;
                v.push(Scenario {
                    name: format!("t4k_{}_{sw}_{sfx}", cell.label()),
                    pinned: true,
                    heavy: false,
                    threads: shards as u32,
                    nodes: Some(nodes),
                    run: Box::new(move || Some(run_t4k(cell, switching, shards))),
                });
            }
        }
    }
    for point in ScalePoint::all() {
        for cell in Cell4k::all() {
            for (switching, sw) in SWITCHINGS {
                for (shards, sfx) in SHARD_COUNTS {
                    let nodes = tscale(cell, point, switching).0.system_size as u64;
                    v.push(Scenario {
                        name: format!("{}_{}_{sw}_{sfx}", point.label(), cell.label()),
                        pinned: true,
                        heavy: true,
                        threads: shards as u32,
                        nodes: Some(nodes),
                        run: Box::new(move || Some(run_tscale(cell, point, switching, shards))),
                    });
                }
            }
        }
    }
    v
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let check = args.iter().any(|a| a == "--check");
    let heavy = args.iter().any(|a| a == "--heavy");
    let save_baseline = args.iter().any(|a| a == "--save-baseline");
    if args.iter().any(|a| a == "--quick") {
        QUICK.store(true, Ordering::Relaxed);
    }
    let flag = |name: &str| {
        args.iter()
            .position(|a| a == name)
            .and_then(|i| args.get(i + 1))
    };
    let out = std::path::PathBuf::from(
        flag("--out").cloned().unwrap_or_else(|| "BENCH_parsched.json".into()),
    );
    let opts = BenchOpts {
        warmup: flag("--warmup").and_then(|s| s.parse().ok()).unwrap_or(1),
        iters: flag("--iters").and_then(|s| s.parse().ok()).unwrap_or(5),
    };

    let mut report = Report::load(&out).unwrap_or_default();
    let scenarios = scenarios();

    if check {
        // CI mode: one untimed run of each pinned scenario, compared
        // bit-exactly against the recorded goldens. Heavy (t16k/t64k)
        // cells only join the gate under --heavy.
        if report.golden.is_empty() {
            eprintln!("perf --check: no goldens recorded in {}", out.display());
            std::process::exit(2);
        }
        let mut failed = false;
        // A golden or baseline must name a defined scenario: a deleted or
        // renamed scenario may not leave a stale pin behind.
        for (what, pins) in [("golden", &report.golden), ("baseline", &report.baseline)] {
            for name in pins.keys() {
                if !scenarios.iter().any(|sc| &sc.name == name) {
                    eprintln!("perf --check: {what} {name:?} names no defined scenario");
                    failed = true;
                }
            }
        }
        for sc in scenarios.iter().filter(|sc| sc.pinned && (heavy || !sc.heavy)) {
            let got = (sc.run)().expect("pinned scenarios return a metric");
            match report.golden.get(&sc.name) {
                Some(&bits) if bits == got.to_bits() => {
                    println!("perf --check: {} = {got} (matches golden)", sc.name);
                }
                Some(&bits) => {
                    eprintln!(
                        "perf --check: {} DIVERGED: got {got} ({:#018x}), golden {} ({bits:#018x})",
                        sc.name,
                        got.to_bits(),
                        f64::from_bits(bits),
                    );
                    failed = true;
                }
                None => {
                    eprintln!("perf --check: {} has no recorded golden", sc.name);
                    failed = true;
                }
            }
        }
        // Shard-count independence: every member of a family pins the
        // same simulated result, bit for bit.
        for (_, family) in shard_families().iter().filter(|(h, _)| heavy || !h) {
            let bits: Vec<Option<&u64>> =
                family.iter().map(|n| report.golden.get(n)).collect();
            if bits.iter().any(Option::is_none) {
                eprintln!("perf --check: family {family:?} has unrecorded goldens");
                failed = true;
                continue;
            }
            if bits.windows(2).any(|w| w[0] != w[1]) {
                eprintln!(
                    "perf --check: shard-count DEPENDENCE in {family:?}: goldens {:?}",
                    bits.iter().map(|b| format!("{:#018x}", *b.unwrap())).collect::<Vec<_>>()
                );
                failed = true;
            } else {
                println!("perf --check: {family:?} goldens agree (shard-count independent)");
            }
        }
        std::process::exit(if failed { 1 } else { 0 });
    }

    // --only a,b,c limits the run to the named scenarios (e.g. for
    // profiling one of them); baselines and goldens of the rest persist.
    // An explicit --only name overrides the heavy gate for that scenario.
    let only = flag("--only");
    if let Some(list) = only {
        for n in list.split(',') {
            if !scenarios.iter().any(|sc| sc.name == n) {
                eprintln!("perf: unknown scenario {n:?}; known scenarios:");
                for sc in &scenarios {
                    eprintln!("  {}", sc.name);
                }
                std::process::exit(2);
            }
        }
    }
    let picked: Vec<&Scenario> = scenarios
        .iter()
        .filter(|sc| match only {
            Some(list) => list.split(',').any(|n| n == sc.name),
            None => heavy || !sc.heavy,
        })
        .collect();
    println!(
        "running {} scenarios ({} warmup + {} timed runs each)\n",
        picked.len(),
        opts.warmup,
        opts.iters
    );
    let mut samples: Vec<Sample> = Vec::new();
    for sc in picked {
        let mut s = bench(&opts, &sc.name, &sc.run);
        s.threads = sc.threads;
        s.nodes = sc.nodes;
        let vs = match report.baseline.get(&sc.name) {
            Some(&base) if base > 0 => {
                let pct = 100.0 * (base as f64 - s.median_ns as f64) / base as f64;
                format!("{pct:+.1}% vs baseline {:.3}s", base as f64 / 1e9)
            }
            _ => "no baseline".to_string(),
        };
        println!(
            "{:<24} median {:>9.3}s  (min {:.3}s, max {:.3}s)  {vs}",
            sc.name,
            s.median_ns as f64 / 1e9,
            s.min_ns as f64 / 1e9,
            s.max_ns as f64 / 1e9,
        );
        if sc.pinned {
            let got = s.metric.expect("pinned scenarios return a metric");
            match report.golden.get(&sc.name) {
                Some(&bits) if bits != got.to_bits() => {
                    eprintln!(
                        "  WARNING: simulated result {got} diverges from golden {}",
                        f64::from_bits(bits)
                    );
                }
                Some(_) => {}
                None => {
                    report.golden.insert(sc.name.clone(), got.to_bits());
                }
            }
        }
        // Baselines are frozen once captured: a plain timing run must
        // never silently move the yardstick it is judged against.
        if save_baseline || !report.baseline.contains_key(&sc.name) {
            report.baseline.insert(sc.name.clone(), s.median_ns);
        }
        samples.push(s);
    }
    report.current = samples;
    report.host_parallelism = Some(host_parallelism());
    std::fs::write(&out, report.render()).expect("write benchmark report");
    println!("\nreport written to {}", out.display());
}
