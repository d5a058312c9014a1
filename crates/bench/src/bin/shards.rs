//! Sharded-execution smoke and scaling demonstration.
//!
//! ```text
//! shards [--smoke] [--shards K] [--csv] [--out DIR]
//! ```
//!
//! `--smoke` is the tier-1 gate. One uncoordinated time-sharing
//! configuration (four 16-node hypercube partitions) runs
//! sequentially and at 2 shards, and the observables — per-job response
//! times, makespan, machine counters, events processed — must agree bit
//! for bit; the 2-shard run then repeats and must fingerprint identically
//! (no thread-interleaving nondeterminism). Then one K = 2 case per
//! class the leader coordinates runs on the 1024-node torus cells:
//! static space-sharing, the hybrid MPL-2 discipline, an MPL-capped
//! static run, and time-sharing under a crash + flaky-link fault plan —
//! each bit-identical to its sequential run, none falling back. The runner
//! starts only the shards a batch's t = 0 placement reaches, so the
//! 8-job cases below — a 4096-node torus under uncoordinated
//! time-sharing, the 65 792-node store-and-forward torus (the t64k cell)
//! and one flit-switched case per topology family (torus, fat-tree,
//! dragonfly — the t4k cells) — must collapse to one shard at K = 2,
//! with the reason recorded and no shard thread, bit-identically. Two
//! larger batches keep the cut gated at scale: 40 static relay jobs on the
//! 4096-node torus and 12 hybrid relay jobs on the wormhole fat-tree reach
//! both shards and must run at K = 2 without falling back. A
//! gang-scheduled configuration must still fall back with a recorded
//! reason. Every
//! sharded case also checks that the shards' machines add up to the whole
//! machine (`ShardTiming::nodes`): each shard owns only its own
//! partitions, and builds at most those (`ShardTiming::built_nodes`, the
//! partitions its jobs and faults reached; printed per shard as
//! built/owned).
//!
//! Full mode sweeps shard counts 1, 2, 4 and prints each run's wall
//! clock, speedup over sequential, the (identical) simulated mean, and —
//! when a run fell back to the sequential path — the recorded reason.
//! A second table breaks each parallel run down per shard (in-thread
//! machine build and teardown vs. event-loop work vs. barrier wait vs.
//! the leader's coordination, plus the shard machine's owned and built node
//! counts, from `ShardedRunResult::timings`); the work/barrier/merge numbers feed
//! `ObsEvent::ShardPhase` events into a `MetricsRegistry` gauge so the
//! breakdown lands in the metrics CSV next to the simulated gauges.
//! Both tables render to CSV (`--csv`, or `--out DIR` for `shards.csv`,
//! `shard_phases.csv` and `shard_phase_gauges.csv`). This is the source
//! of the scaling tables in `EXPERIMENTS.md`.

use parsched_bench::scale::{
    shard_scale, t4k, t4k_job, torus1k, torus4k, tscale, Cell1k, Cell4k, ScalePoint,
};
use parsched_core::prelude::*;
use parsched_core::sharded::run_batch_sharded;
use parsched_des::{SimDuration, SimTime};
use parsched_machine::{FaultPlan, JobSpec, LinkWindow, Switching};
use parsched_obs::{MetricsRegistry, ObsEvent, Recorder};
use std::time::Instant;

fn assert_matches(seq: &ShardedRunResult, par: &ShardedRunResult, what: &str) {
    assert_eq!(
        par.response_times, seq.response_times,
        "{what}: response times diverged"
    );
    assert_eq!(par.makespan, seq.makespan, "{what}: makespan diverged");
    assert_eq!(par.counters, seq.counters, "{what}: counters diverged");
    assert_eq!(par.events, seq.events, "{what}: events diverged");
    assert_eq!(
        par.fingerprint(),
        seq.fingerprint(),
        "{what}: fingerprint diverged"
    );
}

/// Every shard of a parallel run simulates only its own partitions: the
/// shards' machines together cover the machine exactly once, and each
/// builds at most the partitions it owns.
fn assert_shards_own_their_partitions(cfg: &ExperimentConfig, par: &ShardedRunResult, what: &str) {
    let nodes: Vec<usize> = par.timings.iter().map(|t| t.nodes).collect();
    let built: Vec<usize> = par.timings.iter().map(|t| t.built_nodes).collect();
    assert_eq!(
        nodes.iter().sum::<usize>(),
        cfg.system_size,
        "{what}: shard machines {nodes:?} must partition the {}-node machine",
        cfg.system_size
    );
    assert!(
        built.iter().zip(&nodes).all(|(b, n)| b <= n),
        "{what}: shards built {built:?} of {nodes:?} nodes"
    );
}

/// Run `cfg` sequentially and at 2 shards; the parallel run must really
/// shard (no fallback), match bit for bit, and build only each shard's
/// own partitions.
fn assert_shards_bit_identically(cfg: &ExperimentConfig, batch: &[JobSpec], what: &str) {
    let seq = run_batch_sharded(cfg, batch.to_vec(), 1)
        .unwrap_or_else(|e| panic!("{what}: sequential run failed: {e}"));
    let par = run_batch_sharded(cfg, batch.to_vec(), 2)
        .unwrap_or_else(|e| panic!("{what}: 2-shard run failed: {e}"));
    assert_eq!(par.fallback, None, "{what}: must not fall back");
    assert_eq!(par.shards, 2, "{what}: must use 2 shards");
    assert_matches(&seq, &par, what);
    assert_shards_own_their_partitions(cfg, &par, what);
    let built: Vec<String> = par
        .timings
        .iter()
        .map(|t| format!("{}/{}", t.built_nodes, t.nodes))
        .collect();
    println!(
        "shards --smoke: {what}: OK (K=2 bit-identical; built/owned nodes per shard {})",
        built.join(", ")
    );
}

/// Run `cfg` sequentially and at 2 shards where the batch's t = 0
/// placement reaches only shard 0 of the cut: the K = 2 run must take the
/// sequential path with the runner's reason, start no shard thread, and
/// match bit for bit.
fn assert_collapses_to_one_shard(cfg: &ExperimentConfig, batch: &[JobSpec], what: &str) {
    let seq = run_batch_sharded(cfg, batch.to_vec(), 1)
        .unwrap_or_else(|e| panic!("{what}: sequential run failed: {e}"));
    let par = run_batch_sharded(cfg, batch.to_vec(), 2)
        .unwrap_or_else(|e| panic!("{what}: K = 2 run failed: {e}"));
    assert_eq!(par.shards, 1, "{what}: the batch reaches one shard");
    assert_eq!(
        par.fallback,
        Some("the batch's t = 0 placement reaches at most one shard"),
        "{what}: fallback reason"
    );
    assert!(par.timings.is_empty(), "{what}: no shard thread may run");
    assert_matches(&seq, &par, what);
    println!("shards --smoke: {what}: OK (K=2 collapses to one shard, bit-identical)");
}

fn smoke() {
    let (cfg, batch) = shard_scale();
    let seq = run_batch_sharded(&cfg, batch.clone(), 1).expect("sequential run completes");
    assert_eq!(seq.shards, 1);

    let par = run_batch_sharded(&cfg, batch.clone(), 2).expect("2-shard run completes");
    assert_eq!(par.shards, 2, "eligible configuration must shard");
    assert_eq!(par.fallback, None);
    assert_matches(&seq, &par, "2-shard vs sequential");
    assert_shards_own_their_partitions(&cfg, &par, "uncoordinated time-sharing");

    let again = run_batch_sharded(&cfg, batch.clone(), 2).expect("2-shard rerun completes");
    assert_eq!(
        again.fingerprint(),
        par.fingerprint(),
        "2-shard rerun: interleaving nondeterminism"
    );
    println!(
        "shards --smoke: uncoordinated time-sharing: OK (K=2 bit-identical, deterministic rerun)"
    );

    // One K = 2 case per class the leader coordinates, on the 1024-node
    // cells whose goldens `tests/perf_goldens.rs` pins.
    let (s_cfg, s_batch) = torus1k(Cell1k::Static);
    assert_shards_bit_identically(&s_cfg, &s_batch, "static policy");

    let (h_cfg, h_batch) = torus1k(Cell1k::Hybrid);
    assert_shards_bit_identically(&h_cfg, &h_batch, "hybrid (MPL-2 time-sharing)");

    let (mut m_cfg, m_batch) = torus1k(Cell1k::Static);
    m_cfg.mpl = Some(2);
    assert_shards_bit_identically(&m_cfg, &m_batch, "MPL-capped static");

    let (mut f_cfg, f_batch) = torus1k(Cell1k::FaultedTs);
    // Crashes and a flaky link window in one plan: requeues cross shards
    // while per-channel drop streams stay shard-local.
    f_cfg.machine.faults = FaultPlan {
        links: vec![LinkWindow {
            from: 0,
            to: 1,
            down_at: SimTime(60_000_000),
            up_at: SimTime(90_000_000),
        }],
        drop_prob: 0.02,
        drop_seed: 11,
        ..f_cfg.machine.faults
    };
    assert_shards_bit_identically(&f_cfg, &f_batch, "crash + flaky-link fault plan");

    // The relay and wide-job batches of 8 jobs land on partitions 0..8,
    // all in shard 0 of the K = 2 cut of these machines: the run starts
    // no shard thread.
    let (t4_cfg, t4_batch) = torus4k();
    let what = "4096-node torus (uncoordinated time-sharing)";
    assert_collapses_to_one_shard(&t4_cfg, &t4_batch, what);

    // The largest store-and-forward cell: 65 792 nodes.
    let (t64_cfg, t64_batch) = tscale(Cell4k::Torus, ScalePoint::T64k, Switching::StoreAndForward);
    assert_collapses_to_one_shard(&t64_cfg, &t64_batch, "t64k torus store-and-forward");

    // Wormhole smoke gate: one case per topology family under flit-level
    // switching — the t4k cells whose goldens `tests/perf_goldens.rs` pins.
    for cell in Cell4k::all() {
        let (w_cfg, w_batch) = t4k(cell, Switching::Wormhole);
        let what = format!("wormhole {} (t4k)", cell.label());
        assert_collapses_to_one_shard(&w_cfg, &w_batch, &what);
    }

    // Batches that reach both shards at these sizes keep the cut gated:
    // 40 static relay jobs on the 64-partition 4096-node torus fill
    // partitions 0..40, and 12 hybrid relay jobs on the 20-partition
    // fat-tree fill partitions 0..12, past each machine's half. Flit
    // ticks, VC grants and credit stalls must replay bit-identically
    // across the shard cut.
    let (big_cfg, _) = t4k(Cell4k::Torus, Switching::StoreAndForward);
    let big_batch: Vec<JobSpec> = (0..40).map(|i| t4k_job(i, 64)).collect();
    assert_shards_bit_identically(&big_cfg, &big_batch, "4096-node torus, 40 relay jobs");
    let (w_cfg, _) = t4k(Cell4k::FatTree, Switching::Wormhole);
    let w_batch: Vec<JobSpec> = (0..12).map(|i| t4k_job(i, 64)).collect();
    assert_shards_bit_identically(&w_cfg, &w_batch, "wormhole fattree (t4k), 12 relay jobs");

    // An ineligible configuration must fall back, say why, and match.
    let (mut g_cfg, g_batch) = shard_scale();
    g_cfg.discipline = Discipline::Gang {
        slot: SimDuration::from_millis(4),
    };
    let gseq = run_batch_sharded(&g_cfg, g_batch.clone(), 1).expect("gang run completes");
    let gfall = run_batch_sharded(&g_cfg, g_batch, 4).expect("gang fallback completes");
    assert_eq!(gfall.shards, 1, "gang scheduling must fall back");
    assert!(gfall.fallback.is_some(), "fallback reason must be recorded");
    assert_matches(&gseq, &gfall, "gang fallback vs sequential");

    println!(
        "shards --smoke: OK (every eligibility class bit-identical, \
         gang fallback: {:?})",
        gfall.fallback.unwrap()
    );
}

/// Fold one parallel run's per-shard phase times into a
/// [`MetricsRegistry`] via [`ObsEvent::ShardPhase`] events — the same
/// recorder pipeline the machine's own gauges use, so the breakdown can
/// travel with simulated metrics instead of living in a bespoke format.
/// Events are stamped at the run's makespan: the timing exists only once
/// the run is over.
fn phase_gauge_csv(r: &ShardedRunResult) -> String {
    let end = SimTime::ZERO + r.makespan;
    let mut rec = parsched_obs::CollectRecorder::new();
    for (s, t) in r.timings.iter().enumerate() {
        for (phase, ns) in [(0u8, t.work_ns), (1, t.barrier_ns), (2, t.merge_ns)] {
            rec.record(
                end,
                ObsEvent::ShardPhase {
                    shard: s as u16,
                    phase,
                    ns,
                },
            );
        }
    }
    let mut reg = MetricsRegistry::new(SimTime::ZERO);
    for &(at, ev) in rec.events() {
        if let ObsEvent::ShardPhase { shard, phase, ns } = ev {
            let name = match phase {
                0 => format!("shard{shard}.work_ms"),
                1 => format!("shard{shard}.barrier_ms"),
                _ => format!("shard{shard}.merge_ms"),
            };
            let g = reg.gauge(name, 0.0);
            reg.set(g, at, ns as f64 / 1e6);
        }
    }
    reg.finish(end);
    reg.to_csv()
}

/// One sweep over shard counts as two [`FigureTable`]s: the scaling
/// summary and the per-shard phase breakdown. The `fallback` column
/// records why a run used the sequential path (`-` when it sharded), so
/// the reason travels with the numbers instead of vanishing into stderr.
fn sweep(counts: &[usize]) -> (FigureTable, FigureTable, String) {
    let (cfg, batch) = shard_scale();
    let mut base_ns = 0u128;
    let mut reference: Option<ShardedRunResult> = None;
    let mut rows = Vec::new();
    let mut phase_rows = Vec::new();
    let mut gauge_csv = String::new();
    for &k in counts {
        let t0 = Instant::now();
        let r = run_batch_sharded(&cfg, batch.clone(), k).expect("shard-scale run completes");
        let ns = t0.elapsed().as_nanos();
        if k == 1 {
            base_ns = ns;
        }
        if let Some(seq) = &reference {
            assert_matches(seq, &r, "sweep");
        } else {
            reference = Some(r.clone());
        }
        for (s, t) in r.timings.iter().enumerate() {
            phase_rows.push(FigureRow {
                label: format!("{k}/{s}"),
                static_mean: None,
                ts_mean: None,
                extra: vec![
                    format!("{:.3}", t.build_ns as f64 / 1e9),
                    format!("{:.3}", t.work_ns as f64 / 1e9),
                    format!("{:.3}", t.barrier_ns as f64 / 1e9),
                    format!("{:.3}", t.merge_ns as f64 / 1e9),
                    format!("{}", t.nodes),
                    format!("{}", t.built_nodes),
                ],
            });
        }
        if r.shards > 1 {
            gauge_csv = phase_gauge_csv(&r);
        }
        rows.push(FigureRow {
            label: format!("{k}"),
            static_mean: None,
            ts_mean: None,
            extra: vec![
                format!("{:.3}", ns as f64 / 1e9),
                format!("{:.2}", base_ns as f64 / ns as f64),
                format!("{:.6}", r.mean_response()),
                format!("{}", r.shards),
                r.fallback.unwrap_or("-").to_string(),
            ],
        });
    }
    let table = FigureTable {
        title: "Sharded scaling: 64-node machine, four 16-node hypercube partitions".into(),
        columns: vec![
            "wall (s)".into(),
            "speedup".into(),
            "mean resp (s)".into(),
            "used".into(),
            "fallback".into(),
        ],
        rows,
    };
    let phases = FigureTable {
        title: "Per-shard wall-clock phases (rows are shards/run)".into(),
        columns: vec![
            "build (s)".into(),
            "work (s)".into(),
            "barrier (s)".into(),
            "merge (s)".into(),
            "nodes".into(),
            "built".into(),
        ],
        rows: phase_rows,
    };
    (table, phases, gauge_csv)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--smoke") {
        smoke();
        return;
    }
    let shards = args
        .iter()
        .position(|a| a == "--shards")
        .and_then(|i| args.get(i + 1))
        .and_then(|s| s.parse().ok());
    let (table, phases, gauge_csv) = match shards {
        Some(k) => sweep(&[1, k]),
        None => sweep(&[1, 2, 4]),
    };
    if args.iter().any(|a| a == "--csv") {
        print!("{}", table.to_csv());
        print!("{}", phases.to_csv());
    } else {
        print!("{}", table.to_text());
        print!("{}", phases.to_text());
    }
    if let Some(dir) = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
    {
        std::fs::create_dir_all(dir).expect("create out dir");
        let base = std::path::Path::new(dir).join("shards");
        std::fs::write(base.with_extension("csv"), table.to_csv()).expect("write csv");
        std::fs::write(base.with_extension("md"), table.to_markdown()).expect("write md");
        let pbase = std::path::Path::new(dir).join("shard_phases");
        std::fs::write(pbase.with_extension("csv"), phases.to_csv()).expect("write phases csv");
        let gbase = std::path::Path::new(dir).join("shard_phase_gauges");
        std::fs::write(gbase.with_extension("csv"), gauge_csv).expect("write gauge csv");
        eprintln!(
            "wrote {}.csv/.md, {}.csv and {}.csv",
            base.display(),
            pbase.display(),
            gbase.display()
        );
    }
}
