//! The paper's qualitative claims, asserted against the simulation.
//!
//! Each test reproduces one finding of Chan, Dandamudi & Majumdar (IPPS
//! 1997) §5 end-to-end: generate the paper batch, run the policies, check
//! the ordering the paper reports. EXPERIMENTS.md records the quantitative
//! side; these tests pin the *shape* so a regression in any crate that
//! flips a conclusion fails CI.

use parsched::prelude::*;

fn experiment(
    app: App,
    arch: Arch,
    p: usize,
    kind: TopologyKind,
    policy: PolicyKind,
) -> ExperimentResult {
    let sizes = BatchSizes::default();
    let cost = CostModel::default();
    let batch = paper_batch(app, arch, p, &sizes, &cost);
    run_experiment(&ExperimentConfig::paper(p, kind, policy), &batch)
        .expect("paper configuration must simulate to completion")
}

const MESH: TopologyKind = TopologyKind::Mesh { rows: 0, cols: 0 };

/// §5.2: "when there are 16 partitions of 1 processor each, both policies
/// behave the same way" — and both software architectures coincide there
/// for the adaptive case.
#[test]
fn all_policies_coincide_on_single_processor_partitions() {
    for app in [App::MatMul, App::Sort] {
        for arch in [Arch::Fixed, Arch::Adaptive] {
            let st = experiment(app, arch, 1, TopologyKind::Linear, PolicyKind::Static);
            let ts = experiment(app, arch, 1, TopologyKind::Linear, PolicyKind::TimeSharing);
            let rel = (st.mean_response - ts.mean_response).abs() / st.mean_response;
            assert!(
                rel < 0.02,
                "{app:?}/{arch:?} at p=1: static {} vs ts {} differ by {rel:.3}",
                st.mean_response,
                ts.mean_response
            );
        }
    }
}

/// §5.2: "time-sharing always performs worse than the static policy for
/// this application" — sharpest at the single 16-processor partition, where
/// the multiprogramming level is highest.
#[test]
fn static_beats_time_sharing_for_matmul_at_large_partitions() {
    for kind in [TopologyKind::Linear, TopologyKind::Ring, MESH] {
        for arch in [Arch::Fixed, Arch::Adaptive] {
            let st = experiment(App::MatMul, arch, 16, kind, PolicyKind::Static);
            let ts = experiment(App::MatMul, arch, 16, kind, PolicyKind::TimeSharing);
            assert!(
                ts.mean_response > st.mean_response * 1.1,
                "{arch:?}/16{}: ts {} !>> static {}",
                kind.label(),
                ts.mean_response,
                st.mean_response
            );
        }
    }
}

/// §5.2: the gap between static and time-sharing *grows* as partitions get
/// larger (moving right along the figures' x axes).
#[test]
fn time_sharing_penalty_grows_with_partition_size() {
    let ratio = |p: usize, kind: TopologyKind| {
        let st = experiment(App::MatMul, Arch::Fixed, p, kind, PolicyKind::Static);
        let ts = experiment(App::MatMul, Arch::Fixed, p, kind, PolicyKind::TimeSharing);
        ts.mean_response / st.mean_response
    };
    let r1 = ratio(1, TopologyKind::Linear);
    let r8 = ratio(8, TopologyKind::Ring);
    let r16 = ratio(16, TopologyKind::Ring);
    assert!(
        r1 < r8 + 0.05 && r8 < r16,
        "penalty not monotone: p=1 {r1:.3}, p=8 {r8:.3}, p=16 {r16:.3}"
    );
    assert!((r1 - 1.0).abs() < 0.02, "p=1 must be a tie, got {r1:.3}");
}

/// §5.1/§5.2: "the hybrid policy performs much better than the true
/// time-sharing policy" — hybrid = time-sharing at smaller partitions.
#[test]
fn hybrid_beats_pure_time_sharing() {
    for arch in [Arch::Fixed, Arch::Adaptive] {
        let hybrid = experiment(
            App::MatMul,
            arch,
            4,
            TopologyKind::Ring,
            PolicyKind::TimeSharing,
        );
        let pure = experiment(
            App::MatMul,
            arch,
            16,
            TopologyKind::Ring,
            PolicyKind::TimeSharing,
        );
        assert!(
            hybrid.mean_response * 1.5 < pure.mean_response,
            "{arch:?}: hybrid 4R {} not much better than pure TS 16R {}",
            hybrid.mean_response,
            pure.mean_response
        );
    }
}

/// §5.2: "the adaptive software architecture is better than the fixed
/// architecture for this [matmul] application" — fewer processes mean fewer
/// B copies and messages at small partitions.
#[test]
fn adaptive_beats_fixed_for_matmul() {
    for p in [2usize, 4, 8] {
        let kind = TopologyKind::Ring;
        for policy in [PolicyKind::Static, PolicyKind::TimeSharing] {
            let fixed = experiment(App::MatMul, Arch::Fixed, p, kind, policy);
            let adaptive = experiment(App::MatMul, Arch::Adaptive, p, kind, policy);
            assert!(
                adaptive.mean_response < fixed.mean_response,
                "p={p} {policy:?}: adaptive {} !< fixed {}",
                adaptive.mean_response,
                fixed.mean_response
            );
        }
    }
}

/// §5.3: "the fixed architecture exhibits substantial speedups ... fixed
/// architecture is better suited to this type of application" — selection
/// sort's O(n²) leaves reward more, smaller pieces.
#[test]
fn fixed_beats_adaptive_for_sort() {
    for p in [1usize, 2, 4] {
        let kind = TopologyKind::Linear;
        let fixed = experiment(App::Sort, Arch::Fixed, p, kind, PolicyKind::Static);
        let adaptive = experiment(App::Sort, Arch::Adaptive, p, kind, PolicyKind::Static);
        assert!(
            fixed.mean_response * 2.0 < adaptive.mean_response,
            "p={p}: fixed {} not substantially better than adaptive {}",
            fixed.mean_response,
            adaptive.mean_response
        );
    }
}

/// §5.2: "when the number of partitions is one, both software architectures
/// are equivalent and produce the same results."
#[test]
fn architectures_coincide_on_one_partition() {
    for app in [App::MatMul, App::Sort] {
        let fixed = experiment(app, Arch::Fixed, 16, MESH, PolicyKind::TimeSharing);
        let adaptive = experiment(app, Arch::Adaptive, 16, MESH, PolicyKind::TimeSharing);
        assert_eq!(
            fixed.mean_response, adaptive.mean_response,
            "{app:?}: T=16 must make the architectures identical"
        );
    }
}

/// §5.2: "the low degree, long diameter networks (as exemplified by the
/// linear network) cause performance deterioration when time-sharing is
/// used", and time-sharing is more sensitive to topology than static.
#[test]
fn linear_network_hurts_time_sharing_most() {
    let mean = |kind, policy| experiment(App::MatMul, Arch::Fixed, 16, kind, policy).mean_response;
    let ts_linear = mean(TopologyKind::Linear, PolicyKind::TimeSharing);
    let ts_mesh = mean(MESH, PolicyKind::TimeSharing);
    let ts_cube_like = mean(TopologyKind::Ring, PolicyKind::TimeSharing);
    assert!(
        ts_linear >= ts_mesh && ts_linear >= ts_cube_like.min(ts_mesh),
        "linear should be the worst for ts: L={ts_linear} R={ts_cube_like} M={ts_mesh}"
    );
    // Sensitivity = worst/best spread across topologies, per policy.
    let st_spread = {
        let l = mean(TopologyKind::Linear, PolicyKind::Static);
        let m = mean(MESH, PolicyKind::Static);
        let r = mean(TopologyKind::Ring, PolicyKind::Static);
        let lo = l.min(m).min(r);
        let hi = l.max(m).max(r);
        hi / lo
    };
    let ts_spread = {
        let lo = ts_linear.min(ts_mesh).min(ts_cube_like);
        let hi = ts_linear.max(ts_mesh).max(ts_cube_like);
        hi / lo
    };
    assert!(
        ts_spread >= st_spread * 0.95,
        "ts not more topology-sensitive: ts {ts_spread:.3} vs static {st_spread:.3}"
    );
}

/// §5.2 conjecture: wormhole-style routing "can significantly reduce the
/// need for buffers at intermediate processors" and the topology
/// sensitivity of the policies. The baseline is the paper machine's own
/// packetized store-and-forward, as in ablation A3. (Whole-message
/// store-and-forward reads 6.41 s on this cell, below wormhole's 6.76 s;
/// EXPERIMENTS.md A3 records it.)
#[test]
fn wormhole_reduces_time_sharing_penalty() {
    let run = |switching| {
        let sizes = BatchSizes::default();
        let cost = CostModel::default();
        let batch = paper_batch(App::MatMul, Arch::Fixed, 16, &sizes, &cost);
        let mut cfg = ExperimentConfig::paper(16, TopologyKind::Linear, PolicyKind::TimeSharing);
        cfg.machine.switching = switching;
        run_experiment(&cfg, &batch)
            .expect("run completed")
            .mean_response
    };
    let saf = run(Switching::PacketizedSaf);
    let worm = run(Switching::Wormhole);
    assert!(
        worm < saf,
        "wormhole {worm} !< packetized store-and-forward {saf}"
    );
}

/// §5.2 / refs [2,3]: with higher service-demand variance, time-sharing
/// overtakes static space-sharing.
#[test]
fn variance_crossover_exists() {
    let cost = CostModel::default();
    let ratio_at = |cv: f64, idx: u64| {
        let params = SyntheticParams {
            cv,
            width: 4,
            msg_bytes: 1024,
            ..SyntheticParams::default()
        };
        let mut rng = DetRng::new(42).substream_idx("crossover-test", idx);
        let batch = synthetic_batch(16, &params, &cost, &mut rng);
        let st = run_experiment(
            &ExperimentConfig::paper(16, MESH, PolicyKind::Static),
            &batch,
        )
        .expect("static run");
        let ts = run_experiment(
            &ExperimentConfig::paper(16, MESH, PolicyKind::TimeSharing),
            &batch,
        )
        .expect("ts run");
        ts.mean_response / st.mean_response
    };
    let low = ratio_at(0.0, 0);
    let high = ratio_at(2.0, 1);
    assert!(low > 1.1, "at cv=0 static must win clearly, ratio {low:.3}");
    assert!(high < 1.0, "at cv=2 time-sharing must win, ratio {high:.3}");
}

/// §2.2: the RR-job quantum rule shares processing power equally among
/// *jobs*; plain RR-process favours jobs with more processes.
#[test]
fn rr_job_is_fairer_than_rr_process() {
    let cost = CostModel::default();
    let demand = SimDuration::from_secs(2);
    let narrow = SyntheticParams {
        width: 4,
        msg_bytes: 1024,
        ..SyntheticParams::default()
    };
    let wide = SyntheticParams {
        width: 16,
        msg_bytes: 1024,
        ..SyntheticParams::default()
    };
    let batch: Vec<_> = (0..16)
        .map(|i| {
            let p = if i % 2 == 0 { &narrow } else { &wide };
            synthetic_job(format!("mix{i}"), demand, p, &cost)
        })
        .collect();
    let unfairness = |rule: QuantumRule| {
        let mut cfg = ExperimentConfig::paper(16, MESH, PolicyKind::TimeSharing);
        cfg.rule = rule;
        let r = run_experiment(&cfg, &batch).expect("run completed");
        let rts = &r.primary.response_times;
        let narrow_mean: f64 = rts.iter().step_by(2).map(|d| d.as_secs_f64()).sum::<f64>() / 8.0;
        let wide_mean: f64 = rts
            .iter()
            .skip(1)
            .step_by(2)
            .map(|d| d.as_secs_f64())
            .sum::<f64>()
            / 8.0;
        narrow_mean / wide_mean
    };
    let rr_job = unfairness(QuantumRule::RrJob {
        base: SimDuration::from_millis(2),
    });
    let rr_proc = unfairness(QuantumRule::RrProcess {
        quantum: SimDuration::from_millis(2),
    });
    assert!(
        (rr_job - 1.0).abs() < 0.25,
        "RR-job should treat widths near-equally, got {rr_job:.3}"
    );
    assert!(
        rr_proc > rr_job + 0.3,
        "RR-process should starve narrow jobs: rr-proc {rr_proc:.3} vs rr-job {rr_job:.3}"
    );
}

/// §2.1's implicit tuning problem: the optimal static partition size
/// shrinks (weakly) as the batch grows.
#[test]
fn optimal_partition_shrinks_with_load() {
    let cost = CostModel::default();
    let best_p = |jobs: usize| {
        let sizes = BatchSizes {
            jobs,
            small_count: jobs * 3 / 4,
            ..BatchSizes::default()
        };
        [1usize, 2, 4, 8, 16]
            .into_iter()
            .map(|p| {
                let batch = paper_batch(App::MatMul, Arch::Adaptive, p, &sizes, &cost);
                let r = run_experiment(
                    &ExperimentConfig::paper(p, TopologyKind::Ring, PolicyKind::Static),
                    &batch,
                )
                .expect("tuning run");
                (r.mean_response, p)
            })
            .min_by(|a, b| a.0.total_cmp(&b.0))
            .expect("nonempty")
            .1
    };
    let small_batch = best_p(4);
    let large_batch = best_p(32);
    assert!(
        large_batch <= small_batch,
        "optimal partition must shrink with load: {small_batch} -> {large_batch}"
    );
    assert!(
        small_batch > 1,
        "small batches must prefer real parallelism"
    );
}

/// §2.3: the hybrid's set size is a tuning parameter — every MPL must at
/// least complete, and MPL 1 must match the static policy's admission
/// behaviour (modulo the quantum rule).
#[test]
fn hybrid_set_size_sweep_completes() {
    let sizes = BatchSizes::default();
    let cost = CostModel::default();
    let batch = paper_batch(App::MatMul, Arch::Adaptive, 8, &sizes, &cost);
    let mut last = None;
    for mpl in [1usize, 2, 4, 8] {
        let mut cfg = ExperimentConfig::paper(8, MESH, PolicyKind::TimeSharing);
        cfg.mpl = Some(mpl);
        let r = run_experiment(&cfg, &batch).expect("mpl sweep run");
        assert!(r.mean_response > 0.0);
        last = Some(r.mean_response);
    }
    assert!(last.is_some());
}
