//! The repository benchmark: host time of the simulator, end to end and
//! split by layer, on four workloads whose simulated results are first
//! checked against the differential oracle.
//!
//! ```text
//! benchmark --workload <paper16|worm4k|saf64k|open16|all> --seed <u64>
//!           --seconds <n> --trace <0|1> [--out results.jsonl]
//! benchmark --compare A.jsonl B.jsonl
//! ```
//!
//! Build it from a checkout with
//! `cargo run --release --manifest-path crates/bench/src/bin/benchmark/Cargo.toml -- ...`
//! (the command `BENCHMARK.json` names).
//!
//! # What is measured
//!
//! Host time only. Simulated results are checked for *identity* — the
//! production engine against the oracle's reference engine, and every timed
//! call against that verified reference — never for accuracy, and they are
//! never reported as metrics; the comparison with the paper stays in
//! EXPERIMENTS.md.
//!
//! Each invocation first builds the workload's cells from `--seed` (the
//! program receives only the generated `JobSpec`s, arrival instants and
//! demands), runs every cell once on `parsched_oracle::OracleEngine` and
//! once on the production engine, and exits non-zero unless response times,
//! makespan, event count and machine counters agree bit for bit. The public
//! entry point's result digest then becomes the reference each timed call
//! must reproduce; a call that errs or differs counts as failed.
//!
//! A *run* of a workload is one entry-point call per cell, in order. The
//! host loop is closed: each call starts when the previous one returns, so
//! host drift hits every cell alike. Timing happens in a child process, so
//! `peak_rss_mb` belongs to the timed workload alone and not to the oracle.
//! Calls are single-threaded except saf64k's, which use `default_shards`
//! threads (never more than the host's parallelism).
//!
//! # Workloads
//!
//! * `paper16` — the paper's own machine: a 16-node hypercube, {matmul,
//!   sort} x {static p=4, hybrid (time-sharing in four 4-node partitions),
//!   time-sharing p=16}, fixed architecture, through `run_batch`; the seed
//!   permutes submission order. `SliceEnd` is nearly every event and set-up
//!   is well under 1% of a run, so this is where event-store and CPU
//!   scheduler work shows, while topology, wiring, wormhole and sharding
//!   code does almost nothing.
//! * `worm4k` — 8-job relay batches (an 8 KiB baton passed through 64
//!   ranks) on a 4 096-node torus (static), a 4 160-node `fat_tree(8)`
//!   (hybrid MPL 2) and a 4 160-node `dragonfly(4,3,1)` (time-sharing)
//!   under wormhole switching, sequential. The seed deals the jobs' strides
//!   and compute times out of fixed sets. `FlitTick` is over 95% of events:
//!   the workload for a wormhole express path or a faster flit handler,
//!   which the other three bypass.
//! * `saf64k` — the same three families tiled to 65 728-65 920 nodes under
//!   store-and-forward, through `run_batch_sharded` at `default_shards`.
//!   Construction is most of a run: the workload for topology, wiring and
//!   machine-build work, and for the shard count the default picks.
//! * `open16` — the open system: four 4-node hypercube partitions, Poisson
//!   arrivals at rho = 0.7 of 4-wide fork-join jobs with bounded-Pareto
//!   demand (alpha 1.5, 20 ms to 10 s), 200 warm-up plus 2 000 measured
//!   jobs, under static, time-sharing and dynamic-quantum (2 ms) policies,
//!   through `run_open_stream`. A stream of short jobs rather than a closed
//!   batch: admission, spawn and teardown dominate, and host cost per job
//!   grows with the backlog. Demands and gaps are drawn one per
//!   equal-probability stratum, so each seed offers nearly the same work in
//!   a different order.
//!
//! # End-to-end metrics (`--trace 0`)
//!
//! * `run_s_p50` — median host seconds of one run (the calls alone), over
//!   at least 100 runs and `--seconds` of timing less set-up sampling;
//! * `setup_s` — median host seconds to set every cell up once (plan,
//!   wiring, machine build, driver build and start), sampled between runs
//!   across the whole timing loop, over at least 100 cell set-ups;
//! * `peak_rss_mb` — the timing process's `VmHWM`.
//!
//! The `--out` manifest also records `runs_per_s` (runs over the host
//! seconds of the timed runs, input copies and digest checks included) and
//! `run_s_p90` (over `runs` samples). Neither is a gated metric: every run
//! of a workload does the same simulated work, so what they add to the
//! median is host stalls and the benchmark's own overhead. Across seeds on
//! a shared two-vCPU host the p90 spread over 25% of its median, and
//! `runs_per_s` moved 16% between two sets of the same build while the
//! median moved 12%.
//!
//! Failed calls are the result's `failed` count; every workload here runs
//! without failures.
//!
//! # Per-layer metrics (`--trace 1`)
//!
//! A separate pass repeats, for `--seconds` and at least once, one
//! untraced entry-point call and one traced phase-split run per cell: the
//! calls the entry point makes, on its sequential path, timed one by one
//! from outside, with a model wrapper that counts and times `handle` per
//! event kind. Values are summed over the cells; times are medians over
//! repeats. With `--out`, the spans (`plan`, `wiring`, `build`, `driver`,
//! `run`, `reduce`; one run id per phase-split run) are written as a
//! Chrome trace beside the results file (`R.jsonl` gives
//! `R.<workload>.trace.json`).
//!
//! | per-layer metric | timed call | should move | expected flat on |
//! |---|---|---|---|
//! | `topology.plan_s` | `ExperimentConfig::try_plan` | `setup_s` on saf64k | paper16, open16 |
//! | `machine.wiring_s` | `SystemNet::from_plan` | `setup_s`, `peak_rss_mb` on saf64k | paper16 |
//! | `machine.build_s` | `Machine::new` | `setup_s`, `peak_rss_mb` on saf64k | paper16 |
//! | `core.driver_build_s` | `Driver::new` + `with_*` + `start` | `setup_s` on open16 | worm4k |
//! | `des.run_s`, `des.events`, `des.ns_per_event` | `Engine::run` | `run_s_p50` on paper16, worm4k | saf64k |
//! | `des.self_s` | `des.run_s` minus all handle time | `run_s_p50` on paper16, worm4k | saf64k |
//! | `model.handle_s.{cpu,net,jobs}`, `des.events.<Kind>` | `Driver::handle` per kind | net: worm4k; cpu: paper16, open16 | — |
//! | `machine.flit_ticks_per_credit` | `FlitTick` events per credit issued | `run_s_p50` on worm4k | paper16 |
//! | `core.reduce_s` | response times, `Summary`, `MachineStats::capture` | `run_s_p50` on saf64k | paper16 |
//! | `core.sharded.shards`, `core.sharded.outside_s` | `run_batch_sharded` shard timings | `run_s_p50`, `peak_rss_mb` on saf64k | paper16 |
//! | `machine.<counter>` | `Counters` / `MachineStats` of the run | deterministic work counts | — |
//! | `trace.overhead_ratio` | traced round over untraced round | (diagnostic) | — |
//!
//! Handle time is grouped by layer — `cpu` is `Dispatch` + `SliceEnd`,
//! `net` is `TransferDone` + `FlitTick` + `HopStart` + `AllocEscape`,
//! `jobs` is `Admit` + `LoadJob` — so every reported time is non-zero on
//! every workload; the per-kind event counts are all reported.
//! `core.sharded.outside_s` is the entry point's wall time minus the
//! busiest shard's work, barrier and merge time (all of it when the call
//! does not shard); the per-shard split goes to the `--out` record. On
//! saf64k `trace.overhead_ratio` compares the sequential traced path with
//! the sharded entry point, so it also shows what sharding costs there.

mod json;
mod phases;
mod workloads;

use json::{parse_json, Json, Lookup};
use parsched_bench::harness::host_parallelism;
use phases::{production, setup, verify, Verified, KINDS, PHASES};
use std::collections::BTreeMap;
use std::io::Write as _;
use std::process::{Command, ExitCode};
use std::time::{Duration, Instant};
use workloads::{Cell, Size, Workload, WORKLOADS};

/// An end-to-end metric; lower is better for every one.
struct EndToEnd {
    name: &'static str,
    unit: &'static str,
    /// Share of the baseline median by which the metric may rise before a
    /// change counts as a regression.
    bound: f64,
}

const END_TO_END: [EndToEnd; 3] = [
    EndToEnd {
        name: "run_s_p50",
        unit: "s",
        bound: 0.2,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MiB",
        bound: 0.15,
    },
];

/// Timed runs per workload, at least (so ten lie beyond p90).
const MIN_RUNS: usize = 100;
/// Cell set-ups sampled for `setup_s`, at least.
const MIN_SETUPS: usize = 100;
/// Share of the timing loop spent sampling set-up between runs, so set-up
/// is sampled across the whole loop, under the same host conditions as the
/// runs, rather than in one burst before them.
const SETUP_SHARE: f64 = 0.1;

/// `machine.*` work counters, in report order.
const COUNTERS: [&str; 11] = [
    "messages_sent",
    "hop_transfers",
    "flits_injected",
    "credits_issued",
    "vc_allocs",
    "credit_stalls",
    "send_blocks",
    "ctx_switches",
    "quantum_expiries",
    "preemptions",
    "mmu_delayed_grants",
];

/// Handle-time groups: name and member kinds (indices into [`KINDS`]).
const HANDLE_GROUPS: [(&str, &[usize]); 3] =
    [("cpu", &[2, 3]), ("net", &[4, 5, 6, 7]), ("jobs", &[0, 1])];

/// Every per-layer metric name with its unit, in report order.
fn per_layer() -> Vec<(String, &'static str)> {
    let mut v: Vec<(String, &'static str)> = vec![
        ("topology.plan_s".into(), "s"),
        ("machine.wiring_s".into(), "s"),
        ("machine.build_s".into(), "s"),
        ("core.driver_build_s".into(), "s"),
        ("des.run_s".into(), "s"),
        ("des.self_s".into(), "s"),
        ("des.events".into(), "count"),
        ("des.ns_per_event".into(), "ns"),
    ];
    v.extend(KINDS.iter().map(|k| (format!("des.events.{k}"), "count")));
    v.extend(
        HANDLE_GROUPS
            .iter()
            .map(|(g, _)| (format!("model.handle_s.{g}"), "s")),
    );
    v.push(("machine.flit_ticks_per_credit".into(), "1"));
    v.push(("core.reduce_s".into(), "s"));
    v.push(("core.sharded.shards".into(), "count"));
    v.push(("core.sharded.outside_s".into(), "s"));
    v.extend(COUNTERS.iter().map(|c| (format!("machine.{c}"), "count")));
    v.push(("trace.overhead_ratio".into(), "1"));
    v
}

/// Nearest-rank `pct`-th percentile of `xs`, refused unless at least ten
/// samples lie beyond it.
fn percentile(xs: &[f64], pct: usize) -> Result<f64, String> {
    let n = xs.len();
    let rank = (pct * n).div_ceil(100).max(1);
    if n < rank + 10 {
        return Err(format!(
            "p{pct} of {n} samples leaves {} beyond it; need 10",
            n.saturating_sub(rank)
        ));
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    Ok(v[rank - 1])
}

fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => f64::NAN,
        _ if n % 2 == 1 => v[n / 2],
        _ => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// First and third quartiles, as Python's `statistics.quantiles(xs, n=4)`
/// computes them (the default "exclusive" method).
fn quartiles(xs: &[f64]) -> Option<(f64, f64)> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n < 2 {
        return None;
    }
    let m = n + 1;
    let q = |i: usize| {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    Some((q(1), q(3)))
}

/// Peak resident set of this process in MiB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".into())
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    out: Option<String>,
    /// Child mode: the verified reference digest of each cell.
    expect: Option<Vec<u64>>,
}

const USAGE: &str = "usage: benchmark --workload <paper16|worm4k|saf64k|open16|all> \
--seed <u64> --seconds <n> --trace <0|1> [--out FILE]\n       benchmark --compare A B";

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut flags: BTreeMap<&str, &str> = BTreeMap::new();
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let known = [
            "--workload",
            "--seed",
            "--seconds",
            "--trace",
            "--out",
            "--expect",
        ];
        if !known.contains(&flag.as_str()) {
            return Err(format!("unknown argument {flag:?}"));
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        if flags.insert(flag, value).is_some() {
            return Err(format!("{flag} given twice"));
        }
    }
    let need = |f: &str| flags.get(f).copied().ok_or_else(|| format!("missing {f}"));
    let workload = need("--workload")?.to_string();
    if workload != "all" && !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload:?}"));
    }
    let seed = need("--seed")?
        .parse()
        .map_err(|e| format!("--seed: {e}"))?;
    let seconds = need("--seconds")?
        .parse()
        .ok()
        .filter(|s| (1..=600).contains(s))
        .ok_or("--seconds must be a whole number from 1 to 600")?;
    let trace = match need("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, not {other:?}")),
    };
    let expect = match flags.get("--expect") {
        None => None,
        Some(list) => Some(
            list.split(',')
                .map(|h| u64::from_str_radix(h, 16).map_err(|e| format!("--expect: {e}")))
                .collect::<Result<_, _>>()?,
        ),
    };
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
        out: flags.get("--out").map(|s| s.to_string()),
        expect,
    })
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("--compare") {
        return match argv.as_slice() {
            [_, a, b] => compare(a, b),
            _ => {
                eprintln!("{USAGE}");
                ExitCode::from(2)
            }
        };
    }
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("benchmark: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if let Some(expect) = &args.expect {
        return match timed_child(&args, expect) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("benchmark (timing): {e}");
                ExitCode::FAILURE
            }
        };
    }
    if args.workload == "all" {
        return run_all(&argv);
    }
    match run_workload(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("benchmark: {e}");
            ExitCode::FAILURE
        }
    }
}

/// `--workload all`: every workload in its own process, one at a time.
fn run_all(argv: &[String]) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(p) => p,
        Err(e) => {
            eprintln!("benchmark: cannot find own executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut ok = true;
    for w in WORKLOADS {
        let mut args = argv.to_vec();
        let at = args
            .iter()
            .position(|a| a == "--workload")
            .expect("parsed above")
            + 1;
        args[at] = w.to_string();
        match Command::new(&exe).args(&args).status() {
            Ok(s) if s.success() => {}
            Ok(s) => {
                eprintln!("benchmark: {w} exited with {s}");
                ok = false;
            }
            Err(e) => {
                eprintln!("benchmark: cannot run {w}: {e}");
                ok = false;
            }
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// One workload: verify, then time (in a child process) or trace. Returns
/// whether everything was correct.
fn run_workload(args: &Args) -> Result<bool, String> {
    let workload = workloads::build(&args.workload, args.seed, Size::Full)
        .ok_or_else(|| format!("unknown workload {:?}", args.workload))?;
    let cells = &workload.cells;
    eprintln!(
        "{}: verifying {} cells against the oracle engine",
        args.workload,
        cells.len()
    );
    let mut verified = Vec::with_capacity(cells.len());
    for v in cells {
        match verify(v) {
            Ok(x) => verified.push(x),
            Err(e) => {
                eprintln!("{}: verification FAILED: {e}", args.workload);
                let n = cells.len() as f64;
                let result = json::obj([
                    ("correct", Json::Bool(false)),
                    ("attempted", Json::Num(n)),
                    ("failed", Json::Num(n)),
                    ("metrics", Json::Obj(Default::default())),
                ]);
                println!("{}", json::render(&result));
                return Ok(false);
            }
        }
    }

    let report = if args.trace {
        trace_pass(
            &args.workload,
            cells,
            &verified,
            Duration::from_secs(args.seconds),
        )?
    } else {
        timed(args, &verified)?
    };

    let correct = report.failed == 0;
    let mut metrics = Vec::new();
    for (name, unit, value) in &report.metrics {
        println!("{} {name} {value} {unit}", args.workload);
        metrics.push((
            name.clone(),
            json::obj([("value", Json::Num(*value)), ("unit", json::str(*unit))]),
        ));
    }
    let metrics = json::obj(metrics);
    if let Some(out) = &args.out {
        let cell_records = cells
            .iter()
            .zip(&verified)
            .map(|(v, x)| {
                json::obj([
                    ("label", json::str(v.label.clone())),
                    (
                        "input_digest",
                        json::str(format!("{:016x}", v.input.digest())),
                    ),
                    ("fingerprint", json::str(format!("{:016x}", x.fingerprint))),
                    ("reference", json::str(format!("{:016x}", x.reference))),
                    ("shards", Json::Num(x.shards as f64)),
                ])
            })
            .collect();
        let record = json::obj([
            ("workload", json::str(args.workload.clone())),
            ("seed", json::str(args.seed.to_string())),
            ("trace", Json::Bool(args.trace)),
            ("seconds", Json::Num(args.seconds as f64)),
            ("correct", Json::Bool(correct)),
            ("attempted", Json::Num(report.attempted as f64)),
            ("failed", Json::Num(report.failed as f64)),
            ("metrics", metrics.clone()),
            (
                "manifest",
                json::obj(
                    [
                        ("nproc", Json::Num(host_parallelism() as f64)),
                        (
                            "profile",
                            json::str(if cfg!(debug_assertions) {
                                "debug"
                            } else {
                                "release"
                            }),
                        ),
                        ("cells", Json::Arr(cell_records)),
                    ]
                    .into_iter()
                    .chain(report.manifest.clone()),
                ),
            ),
        ]);
        let mut f = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(out)
            .map_err(|e| format!("{out}: {e}"))?;
        writeln!(f, "{}", json::render(&record)).map_err(|e| format!("{out}: {e}"))?;
        if let Some(spans) = &report.spans {
            let stem = out.trim_end_matches(".jsonl");
            let path = format!("{stem}.{}.trace.json", args.workload);
            std::fs::write(&path, json::render(spans)).map_err(|e| format!("{path}: {e}"))?;
            eprintln!("{}: Chrome trace written to {path}", args.workload);
        }
    }
    let result = json::obj([
        ("correct", Json::Bool(correct)),
        ("attempted", Json::Num(report.attempted as f64)),
        ("failed", Json::Num(report.failed as f64)),
        ("metrics", metrics),
    ]);
    println!("{}", json::render(&result));
    Ok(correct)
}

/// What a timed or traced pass measured.
struct Report {
    attempted: usize,
    failed: usize,
    /// (name, unit, value), in report order.
    metrics: Vec<(String, &'static str, f64)>,
    /// Extra manifest entries (run counts, shard split).
    manifest: Vec<(&'static str, Json)>,
    /// Chrome-trace document (traced pass only).
    spans: Option<Json>,
}

/// Run the timed phase in a child process, so its peak RSS is its own.
fn timed(args: &Args, verified: &[Verified]) -> Result<Report, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let expect: Vec<String> = verified
        .iter()
        .map(|x| format!("{:x}", x.reference))
        .collect();
    let output = Command::new(exe)
        .args(["--workload", &args.workload])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", "0", "--expect", &expect.join(",")])
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start the timing process: {e}"))?;
    if !output.status.success() {
        return Err(format!("timing process exited with {}", output.status));
    }
    let stdout = String::from_utf8_lossy(&output.stdout);
    let got: BTreeMap<&str, f64> = stdout
        .lines()
        .filter_map(|l| l.split_once(' '))
        .filter_map(|(k, v)| Some((k, v.parse().ok()?)))
        .collect();
    let take = |k: &str| {
        got.get(k)
            .copied()
            .ok_or_else(|| format!("timing process reported no {k}"))
    };
    let metrics = END_TO_END
        .iter()
        .map(|m| Ok((m.name.to_string(), m.unit, take(m.name)?)))
        .collect::<Result<_, String>>()?;
    Ok(Report {
        attempted: take("attempted")? as usize,
        failed: take("failed")? as usize,
        metrics,
        manifest: vec![
            ("runs", Json::Num(take("runs")?)),
            ("runs_per_s", Json::Num(take("runs_per_s")?)),
            ("run_s_p90", Json::Num(take("run_s_p90")?)),
            ("setups", Json::Num(take("setups")?)),
            ("shards", Json::Num(take("shards")?)),
        ],
        spans: None,
    })
}

/// Child side of [`timed`]: prints `key value` lines.
fn timed_child(args: &Args, expect: &[u64]) -> Result<(), String> {
    let workload = workloads::build(&args.workload, args.seed, Size::Full)
        .ok_or_else(|| format!("unknown workload {:?}", args.workload))?;
    if expect.len() != workload.cells.len() {
        return Err(format!(
            "{} references for {} cells",
            expect.len(),
            workload.cells.len()
        ));
    }
    let t = measure(&workload, expect, Duration::from_secs(args.seconds))?;
    for (m, v) in END_TO_END.iter().zip(t.values) {
        println!("{} {v}", m.name);
    }
    println!("runs {}", t.runs);
    println!("runs_per_s {}", t.runs_per_s);
    println!("run_s_p90 {}", t.p90);
    println!("attempted {}", t.attempted);
    println!("failed {}", t.failed);
    println!("setups {}", t.setups);
    println!("shards {}", t.shards);
    Ok(())
}

/// What the timed phase measured.
struct Timed {
    /// In [`END_TO_END`] order.
    values: [f64; 3],
    /// Runs over the host seconds of the timed runs, and the p90 host
    /// seconds of a run, for the results manifest.
    runs_per_s: f64,
    p90: f64,
    runs: usize,
    /// Entry-point calls made and failed.
    attempted: usize,
    failed: usize,
    setups: usize,
    /// The most shards any call used.
    shards: usize,
}

/// Make one untimed warm-up call per cell, then run the workload for
/// `budget` (and at least [`MIN_RUNS`] runs), checking each call against
/// its verified reference digest in `expect` and sampling set-up between
/// runs.
///
/// Peak RSS is read after the warm-up: every cell has then been set up
/// and run, and later runs repeat the same allocations. Reading it at exit
/// instead lets a rare allocator-timing peak late in the loop (seen on the
/// two-thread saf64k runs) decide the number.
fn measure(w: &Workload, expect: &[u64], budget: Duration) -> Result<Timed, String> {
    for v in &w.cells {
        let _ = v.input.call();
    }
    let rss = peak_rss_mb()?;
    let l = run_cells(w, expect, budget, MIN_RUNS)?;
    Ok(Timed {
        values: [percentile(&l.runs, 50)?, percentile(&l.setups, 50)?, rss],
        runs_per_s: l.runs.len() as f64 / l.wall.as_secs_f64(),
        p90: percentile(&l.runs, 90)?,
        runs: l.runs.len(),
        attempted: l.runs.len() * w.passes * w.cells.len(),
        failed: l.failed,
        setups: l.setups.len(),
        shards: l.shards,
    })
}

/// Host seconds to set every cell up once (plan through driver start); the
/// built runs are dropped off the clock.
fn sample_setup(cells: &[Cell]) -> Result<f64, String> {
    let mut total = Duration::ZERO;
    for v in cells {
        let queue = v.input.experiment().queue;
        let started = setup(&v.input, || parsched_des::Engine::new(queue))?;
        total += started.setup.iter().sum::<Duration>();
    }
    Ok(total.as_secs_f64())
}

/// What the closed timing loop saw.
struct Loop {
    /// Host seconds of each run (the entry-point calls alone).
    runs: Vec<f64>,
    failed: usize,
    /// The most shards any call used.
    shards: usize,
    /// Wall time of the timed runs, inputs copying and checks included,
    /// set-up sampling excluded.
    wall: Duration,
    /// Host seconds of each whole-workload set-up sample.
    setups: Vec<f64>,
}

/// The closed timing loop: runs (each `passes` calls per cell, in order)
/// until `budget` has passed and at least `min` runs were made. After each
/// run, set-up is sampled until sampling has taken [`SETUP_SHARE`] of the
/// loop; then it is topped up to [`MIN_SETUPS`] cell set-ups.
fn run_cells(w: &Workload, expect: &[u64], budget: Duration, min: usize) -> Result<Loop, String> {
    let (mut runs, mut failed, mut shards) = (Vec::new(), 0, 1);
    let (mut setups, mut sampling) = (Vec::new(), Duration::ZERO);
    let start = Instant::now();
    while start.elapsed() < budget || runs.len() < min {
        while sampling.as_secs_f64() < SETUP_SHARE * start.elapsed().as_secs_f64() {
            let t = Instant::now();
            setups.push(sample_setup(&w.cells)?);
            sampling += t.elapsed();
        }
        let mut run = Duration::ZERO;
        let calls = (0..w.passes).flat_map(|_| w.cells.iter().zip(expect));
        for (v, &want) in calls {
            let (dt, result) = v.input.call();
            run += dt;
            match result {
                Ok(done) if done.digest == want => shards = shards.max(done.shards),
                Ok(done) => {
                    eprintln!(
                        "{}: digest {:016x} != reference {want:016x}",
                        v.label, done.digest
                    );
                    failed += 1;
                }
                Err(e) => {
                    eprintln!("{}: run failed: {e}", v.label);
                    failed += 1;
                }
            }
        }
        runs.push(run.as_secs_f64());
    }
    let wall = start.elapsed() - sampling;
    while setups.len() * w.cells.len() < MIN_SETUPS {
        setups.push(sample_setup(&w.cells)?);
    }
    Ok(Loop {
        runs,
        failed,
        shards,
        wall,
        setups,
    })
}

/// The traced pass: rounds of (untraced entry-point call, traced
/// phase-split run) per cell for `budget`, at least one round.
fn trace_pass(
    workload: &str,
    cells: &[Cell],
    verified: &[Verified],
    budget: Duration,
) -> Result<Report, String> {
    let names = per_layer();
    let index = |n: &str| {
        names
            .iter()
            .position(|(m, _)| m == n)
            .expect("per-layer name")
    };
    let mut rounds: Vec<Vec<f64>> = Vec::new();
    let mut spans = Vec::new();
    let (mut attempted, mut failed) = (0, 0);
    let mut shard_split = [Duration::ZERO; 3];
    let epoch = Instant::now();
    let mut run_id = 0u64;
    while rounds.is_empty() || epoch.elapsed() < budget {
        let mut row = vec![0.0_f64; names.len()];
        let (mut untraced, mut traced) = (0.0, 0.0);
        for (v, x) in cells.iter().zip(verified) {
            let (dt, result) = v.input.call();
            attempted += 1;
            untraced += dt.as_secs_f64();
            match result {
                Ok(done) if done.digest == x.reference => {
                    let s = index("core.sharded.shards");
                    row[s] = row[s].max(done.shards as f64);
                    row[index("core.sharded.outside_s")] +=
                        dt.saturating_sub(done.shard_busy).as_secs_f64();
                    for (acc, d) in shard_split.iter_mut().zip(done.shard_split) {
                        *acc += d;
                    }
                }
                _ => failed += 1,
            }

            let t0 = epoch.elapsed();
            let cap = production(&v.input, true).map_err(|e| format!("{}: {e}", v.label))?;
            traced += cap.phases.iter().sum::<Duration>().as_secs_f64();
            let (count, nanos) = cap.kinds.expect("profiled run");
            let mut at = t0;
            for (name, d) in PHASES.iter().zip(cap.phases) {
                spans.push(json::obj([
                    ("name", json::str(*name)),
                    ("ph", json::str("X")),
                    ("ts", Json::Num(at.as_secs_f64() * 1e6)),
                    ("dur", Json::Num(d.as_secs_f64() * 1e6)),
                    ("pid", Json::Num(1.0)),
                    ("tid", Json::Num(1.0)),
                    (
                        "args",
                        json::obj([
                            ("run", Json::Num(run_id as f64)),
                            ("cell", json::str(v.label.clone())),
                        ]),
                    ),
                ]));
                at += d;
            }
            run_id += 1;

            let secs = |d: Duration| d.as_secs_f64();
            for (name, d) in ["topology.plan_s", "machine.wiring_s", "machine.build_s"]
                .iter()
                .chain(&["core.driver_build_s", "des.run_s", "core.reduce_s"])
                .zip(cap.phases)
            {
                row[index(name)] += secs(d);
            }
            row[index("des.events")] += cap.events as f64;
            for (k, c) in KINDS.iter().zip(count) {
                row[index(&format!("des.events.{k}"))] += c as f64;
            }
            let handled: u64 = nanos.iter().sum();
            row[index("des.self_s")] += secs(cap.phases[4]) - handled as f64 * 1e-9;
            for (g, members) in HANDLE_GROUPS {
                row[index(&format!("model.handle_s.{g}"))] +=
                    members.iter().map(|&k| nanos[k]).sum::<u64>() as f64 * 1e-9;
            }
            let c = &cap.counters;
            let s = &cap.stats;
            let counts = [
                c.messages_sent,
                c.hop_transfers,
                c.flits_injected,
                c.credits_issued,
                c.vc_allocs,
                c.credit_stalls,
                c.send_blocks,
                s.ctx_switches,
                s.quantum_expiries,
                s.preemptions,
                s.mmu_delayed_grants,
            ];
            for (name, n) in COUNTERS.iter().zip(counts) {
                row[index(&format!("machine.{name}"))] += n as f64;
            }
        }
        let events = row[index("des.events")];
        row[index("des.ns_per_event")] = row[index("des.run_s")] * 1e9 / events.max(1.0);
        let (ticks, credits) = (
            row[index("des.events.FlitTick")],
            row[index("machine.credits_issued")],
        );
        row[index("machine.flit_ticks_per_credit")] =
            if credits == 0.0 { 0.0 } else { ticks / credits };
        row[index("trace.overhead_ratio")] = traced / untraced;
        rounds.push(row);
    }
    eprintln!(
        "{workload}: traced {} rounds of {} cells",
        rounds.len(),
        cells.len()
    );
    let metrics = names
        .iter()
        .enumerate()
        .map(|(i, (name, unit))| {
            let column: Vec<f64> = rounds.iter().map(|r| r[i]).collect();
            (name.clone(), *unit, median(&column))
        })
        .collect();
    let per_round = |d: Duration| Json::Num(d.as_secs_f64() / rounds.len() as f64);
    Ok(Report {
        attempted,
        failed,
        metrics,
        manifest: vec![
            ("rounds", Json::Num(rounds.len() as f64)),
            (
                "shard_split_s_per_round",
                json::obj([
                    ("work", per_round(shard_split[0])),
                    ("barrier", per_round(shard_split[1])),
                    ("merge", per_round(shard_split[2])),
                ]),
            ),
        ],
        spans: Some(json::obj([
            ("traceEvents", Json::Arr(spans)),
            ("displayTimeUnit", json::str("ms")),
        ])),
    })
}

/// `--compare A B`: load both results files and print the comparison.
/// Exits 1 on a breach and 2 when a file cannot be read.
fn compare(a: &str, b: &str) -> ExitCode {
    let load = |path: &str| -> Result<Vec<Json>, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        text.lines()
            .filter(|l| !l.trim().is_empty())
            .map(|l| parse_json(l).ok_or_else(|| format!("{path}: a line is not JSON")))
            .collect()
    };
    match (load(a), load(b)) {
        (Ok(ra), Ok(rb)) => {
            let (lines, breach) = compare_records(&ra, &rb);
            for l in lines {
                println!("{l}");
            }
            if breach {
                ExitCode::FAILURE
            } else {
                ExitCode::SUCCESS
            }
        }
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("benchmark --compare: {e}");
            ExitCode::from(2)
        }
    }
}

/// For every end-to-end metric and workload present in both sets of
/// untraced records: both medians, the change from A to B, the bound, the
/// run-to-run spread (interquartile range over median, the wider side),
/// and a verdict. A pair whose spread exceeds its bound is `unresolved`
/// unless every B run beats every A run; a resolved pair that worsens by
/// more than its bound is a `REGRESSION`. Returns the table and whether
/// anything regressed or B recorded failed runs.
fn compare_records(a: &[Json], b: &[Json]) -> (Vec<String>, bool) {
    let of = |records: &[Json], w: &str| -> Vec<Json> {
        records
            .iter()
            .filter(|r| r.get("workload").and_then(Json::as_str) == Some(w))
            .filter(|r| r.get("trace") == Some(&Json::Bool(false)))
            .cloned()
            .collect()
    };
    let values = |records: &[Json], m: &str| -> Vec<f64> {
        records
            .iter()
            .filter_map(|r| r.get("metrics")?.get(m)?.get("value")?.as_f64())
            .collect()
    };
    let spread = |v: &[f64]| quartiles(v).map_or(f64::INFINITY, |(q1, q3)| (q3 - q1) / median(v));
    let mut lines = vec![format!(
        "{:<8} {:<12} {:>5} {:>13} {:>13} {:>8} {:>6} {:>7}  verdict",
        "workload", "metric", "n", "median A", "median B", "change", "bound", "spread"
    )];
    let mut breach = false;
    for w in WORKLOADS {
        let (ra, rb) = (of(a, w), of(b, w));
        for m in &END_TO_END {
            let (va, vb) = (values(&ra, m.name), values(&rb, m.name));
            if va.is_empty() || vb.is_empty() {
                continue;
            }
            let (ma, mb) = (median(&va), median(&vb));
            let change = (mb - ma) / ma;
            let b_wins = vb.iter().all(|y| va.iter().all(|x| y < x));
            let spread = spread(&va).max(spread(&vb));
            let verdict = if spread > m.bound && !b_wins {
                "unresolved"
            } else if change > m.bound {
                breach = true;
                "REGRESSION"
            } else {
                "ok"
            };
            lines.push(format!(
                "{w:<8} {:<12} {:>5} {ma:>13.6e} {mb:>13.6e} {:>+7.2}% {:>5.1}% {:>6.2}%  {verdict}",
                m.name,
                format!("{}/{}", va.len(), vb.len()),
                100.0 * change,
                100.0 * m.bound,
                100.0 * spread,
            ));
        }
        let failed: f64 = rb.iter().filter_map(|r| r.get("failed")?.as_f64()).sum();
        if failed > 0.0 {
            lines.push(format!("{w:<8} B recorded {failed} failed runs"));
            breach = true;
        }
    }
    (lines, breach)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::Path;

    #[test]
    fn p90_needs_ten_samples_beyond_it() {
        let xs: Vec<f64> = (1..=99).map(f64::from).collect();
        assert!(percentile(&xs, 90).is_err());
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&xs, 90), Ok(90.0));
        assert_eq!(percentile(&xs, 50), Ok(50.0));
        assert!(percentile(&xs[..19], 50).is_err());
    }

    #[test]
    fn quartiles_match_python_statistics() {
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), Some((2.75, 8.25)));
        assert_eq!(quartiles(&[1.0, 2.0]), Some((0.75, 2.25)));
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), Some((1.0, 3.0)));
        assert_eq!(quartiles(&[1.0]), None);
    }

    fn is_name(s: &str) -> bool {
        s.len() <= 64
            && s.starts_with(|c: char| c.is_ascii_alphanumeric())
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    fn is_unit(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 16
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    #[test]
    fn metric_names_and_units_fit_the_results_format() {
        let layer = per_layer();
        assert!(END_TO_END.len() <= 16);
        assert!(layer.len() <= 128);
        let mut seen = std::collections::BTreeSet::new();
        let all = END_TO_END
            .iter()
            .map(|m| (m.name, m.unit))
            .chain(layer.iter().map(|(n, u)| (n.as_str(), *u)));
        for (name, unit) in all {
            assert!(is_name(name), "bad metric name {name:?}");
            assert!(is_unit(unit), "bad unit {unit:?} of {name}");
            assert!(seen.insert(name), "{name} used twice");
        }
        for m in &END_TO_END {
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
        }
        let setup = END_TO_END
            .iter()
            .find(|m| m.name == "setup_s")
            .expect("setup_s");
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
    }

    #[test]
    fn benchmark_json_matches_the_metric_tables() {
        let root = Path::new(env!("CARGO_MANIFEST_DIR"))
            .ancestors()
            .find(|d| d.join("BENCHMARK.json").is_file())
            .expect("BENCHMARK.json above the package");
        let text = std::fs::read_to_string(root.join("BENCHMARK.json")).expect("readable");
        let doc = parse_json(&text).expect("valid JSON");
        let keys: Vec<&str> = doc
            .as_object()
            .expect("an object")
            .keys()
            .map(String::as_str)
            .collect();
        // The parser's objects are sorted maps, so compare as sets.
        let mut want = [
            "command",
            "paths",
            "run_seconds",
            "workloads",
            "end_to_end",
            "per_layer",
        ];
        want.sort_unstable();
        assert_eq!(keys, want);
        let list = |k: &str| -> Vec<Json> {
            let Some(Json::Arr(v)) = doc.get(k) else {
                panic!("{k} is not a list")
            };
            v.clone()
        };
        let field = |j: &Json, k: &str| j.get(k).and_then(Json::as_str).expect(k).to_string();
        let paths: Vec<String> = list("paths")
            .iter()
            .map(|p| p.as_str().expect("path").into())
            .collect();
        assert_eq!(paths, ["crates/bench/src/bin/benchmark"]);
        let secs = doc
            .get("run_seconds")
            .and_then(Json::as_f64)
            .expect("run_seconds");
        assert!(secs.fract() == 0.0 && (1.0..=60.0).contains(&secs));

        let workloads = list("workloads");
        let names: Vec<String> = workloads.iter().map(|w| field(w, "name")).collect();
        assert_eq!(names, WORKLOADS);
        assert!(workloads.iter().all(|w| !field(w, "why").is_empty()));

        let e2e = list("end_to_end");
        assert_eq!(e2e.len(), END_TO_END.len());
        for (j, m) in e2e.iter().zip(&END_TO_END) {
            assert_eq!(field(j, "name"), m.name);
            assert_eq!(field(j, "unit"), m.unit);
            assert_eq!(field(j, "better"), "lower", "{}", m.name);
            assert_eq!(
                j.get("bound").and_then(Json::as_f64),
                Some(m.bound),
                "{}",
                m.name
            );
        }

        let layer = list("per_layer");
        let want = per_layer();
        assert_eq!(layer.len(), want.len());
        for (j, (name, unit)) in layer.iter().zip(&want) {
            assert_eq!(&field(j, "name"), name);
            assert_eq!(field(j, "unit"), *unit, "{name}");
            assert!(["lower", "higher"].contains(&field(j, "better").as_str()));
        }
    }

    fn record(workload: &str, run_s_p50: f64, failed: f64) -> Json {
        let metric = |v: f64| json::obj([("value", Json::Num(v)), ("unit", json::str("s"))]);
        json::obj([
            ("workload", json::str(workload)),
            ("trace", Json::Bool(false)),
            ("failed", Json::Num(failed)),
            ("metrics", json::obj([("run_s_p50", metric(run_s_p50))])),
        ])
    }

    #[test]
    fn compare_flags_regressions_and_unresolved_pairs() {
        let steady = |base: f64| -> Vec<Json> {
            (0..10)
                .map(|i| record("paper16", base + f64::from(i) * 0.001, 0.0))
                .collect()
        };
        let verdict = |a: &[Json], b: &[Json]| {
            let (lines, breach) = compare_records(a, b);
            (
                lines[1].split_whitespace().last().unwrap().to_string(),
                breach,
            )
        };
        assert_eq!(
            verdict(&steady(100.0), &steady(101.0)),
            ("ok".into(), false)
        );
        assert_eq!(
            verdict(&steady(100.0), &steady(130.0)),
            ("REGRESSION".into(), true)
        );
        let noisy: Vec<Json> = (0..10)
            .map(|i| record("paper16", if i % 2 == 0 { 60.0 } else { 140.0 }, 0.0))
            .collect();
        assert_eq!(
            verdict(&steady(100.0), &noisy),
            ("unresolved".into(), false)
        );
        let failing = vec![record("paper16", 100.0, 3.0)];
        assert!(compare_records(&steady(100.0), &failing).1);
    }

    #[test]
    fn every_workload_verifies_and_reports_at_tiny_size() {
        for name in WORKLOADS {
            let workload = workloads::build(name, 5, Size::Tiny).expect("known workload");
            let cells = &workload.cells;
            let verified: Vec<Verified> = cells
                .iter()
                .map(|v| verify(v).unwrap_or_else(|e| panic!("{name}: {e}")))
                .collect();
            let expect: Vec<u64> = verified.iter().map(|x| x.reference).collect();

            let t = measure(&workload, &expect, Duration::ZERO).expect("measured");
            assert_eq!(t.failed, 0, "{name}");
            assert_eq!(
                t.attempted,
                t.runs * workload.passes * cells.len(),
                "{name}"
            );
            assert!(t.runs >= MIN_RUNS, "{name}");
            assert!(t.setups * cells.len() >= MIN_SETUPS, "{name}");
            assert!(
                t.values.iter().all(|v| v.is_finite() && *v > 0.0),
                "{name}: {:?}",
                t.values
            );

            let wrong: Vec<u64> = expect.iter().map(|e| e ^ 1).collect();
            let l = run_cells(&workload, &wrong, Duration::ZERO, 1).expect("set up");
            assert_eq!(
                l.failed,
                workload.passes * cells.len(),
                "{name}: a digest mismatch must count as failed"
            );

            let r = trace_pass(name, cells, &verified, Duration::ZERO).expect("traced");
            assert_eq!(r.failed, 0, "{name}");
            let names: Vec<&str> = r.metrics.iter().map(|(n, _, _)| n.as_str()).collect();
            let want: Vec<String> = per_layer().into_iter().map(|(n, _)| n).collect();
            assert_eq!(names, want);
            for (metric, unit, v) in &r.metrics {
                assert!(v.is_finite(), "{name} {metric}");
                if matches!(*unit, "s" | "ns") {
                    assert!(*v > 0.0, "{name} {metric} = {v}");
                }
            }
        }
    }
}
