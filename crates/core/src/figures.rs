//! Paper-figure experiment definitions.
//!
//! One function per figure/ablation of DESIGN.md's experiment index. Each
//! returns a [`FigureTable`] of mean response times that the `figures`
//! binary prints and EXPERIMENTS.md records.

use crate::experiment::{run_experiment, ExperimentConfig, RunError};
use crate::policy::{Discipline, Placement, PolicyKind, QuantumRule};
use crate::report::{FigureRow, FigureTable};
use crate::runner::run_parallel;
use parsched_des::rng::DetRng;
use parsched_des::SimDuration;
use parsched_machine::{FlowControl, JobSpec, MachineConfig, Switching};
use parsched_topology::{paper_configs, PartitionPlan, TopologyKind};
use parsched_workload::{
    paper_batch, pipeline_job, synthetic_batch, App, Arch, BatchSizes, CostModel, PipelineParams,
    SyntheticParams,
};

/// Shared options for figure generation.
#[derive(Debug, Clone)]
pub struct FigureOpts {
    /// Batch composition and problem sizes.
    pub sizes: BatchSizes,
    /// Cost model.
    pub cost: CostModel,
    /// Machine parameters.
    pub machine: MachineConfig,
    /// Quantum rule for time-sharing.
    pub rule: QuantumRule,
    /// Placement strategy.
    pub placement: Placement,
    /// Include the 16-node hypercube the real machine could not wire.
    pub include_16h: bool,
    /// Run the grid's configurations on multiple threads.
    pub parallel: bool,
    /// Master seed for stochastic workloads (ablations).
    pub seed: u64,
}

impl Default for FigureOpts {
    fn default() -> Self {
        FigureOpts {
            sizes: BatchSizes::default(),
            cost: CostModel::default(),
            machine: MachineConfig::default(),
            rule: QuantumRule::default(),
            placement: Placement::default(),
            include_16h: false,
            parallel: true,
            seed: 42,
        }
    }
}

impl FigureOpts {
    fn config(
        &self,
        partition_size: usize,
        topology: TopologyKind,
        policy: PolicyKind,
    ) -> ExperimentConfig {
        ExperimentConfig {
            system_size: 16,
            partition_size,
            topology,
            policy,
            rule: self.rule,
            placement: self.placement,
            discipline: Discipline::default(),
            mpl: None,
            machine: self.machine.clone(),
            queue: parsched_des::QueueKind::default(),
        }
    }
}

/// Run `static` and `ts` over the whole partition-configuration axis for
/// one (app, arch) pair — the generic paper figure.
pub fn figure(app: App, arch: Arch, opts: &FigureOpts) -> Result<FigureTable, RunError> {
    let configs = paper_configs(opts.include_16h);
    let mut tasks: Vec<(ExperimentConfig, Vec<JobSpec>)> = Vec::new();
    for &(p, kind) in &configs {
        let batch = paper_batch(app, arch, p, &opts.sizes, &opts.cost);
        tasks.push((opts.config(p, kind, PolicyKind::Static), batch.clone()));
        tasks.push((opts.config(p, kind, PolicyKind::TimeSharing), batch));
    }
    let results = run_parallel(tasks, opts.parallel)?;
    let mut rows = Vec::new();
    for pair in results.chunks(2) {
        rows.push(FigureRow {
            label: pair[0].label.clone(),
            static_mean: Some(pair[0].mean_response),
            ts_mean: Some(pair[1].mean_response),
            extra: Vec::new(),
        });
    }
    Ok(FigureTable {
        title: format!(
            "Mean response time (s): {} application, {} software architecture",
            app.label(),
            arch.label()
        ),
        columns: vec!["static".into(), "ts".into()],
        rows,
    })
}

/// Figure 3: matrix multiplication, fixed architecture.
pub fn fig3(opts: &FigureOpts) -> Result<FigureTable, RunError> {
    figure(App::MatMul, Arch::Fixed, opts)
}

/// Figure 4: matrix multiplication, adaptive architecture.
pub fn fig4(opts: &FigureOpts) -> Result<FigureTable, RunError> {
    figure(App::MatMul, Arch::Adaptive, opts)
}

/// Figure 5: sort, fixed architecture.
pub fn fig5(opts: &FigureOpts) -> Result<FigureTable, RunError> {
    figure(App::Sort, Arch::Fixed, opts)
}

/// Figure 6: sort, adaptive architecture.
pub fn fig6(opts: &FigureOpts) -> Result<FigureTable, RunError> {
    figure(App::Sort, Arch::Adaptive, opts)
}

/// A1 — service-demand variance sweep (§5.2 / refs [2,3]): at high CV
/// time-sharing overtakes static space-sharing.
pub fn ablation_variance(opts: &FigureOpts) -> Result<FigureTable, RunError> {
    let cvs = [0.0, 0.5, 1.0, 2.0, 3.0, 5.0];
    let rng = DetRng::new(opts.seed);
    let mut tasks = Vec::new();
    for (i, &cv) in cvs.iter().enumerate() {
        let params = SyntheticParams {
            cv,
            width: 4,
            msg_bytes: 1024,
            ..SyntheticParams::default()
        };
        let mut stream = rng.substream_idx("variance", i as u64);
        let batch = synthetic_batch(16, &params, &opts.cost, &mut stream);
        let kind = TopologyKind::Mesh { rows: 0, cols: 0 };
        tasks.push((opts.config(16, kind, PolicyKind::Static), batch.clone()));
        tasks.push((opts.config(16, kind, PolicyKind::TimeSharing), batch));
    }
    let results = run_parallel(tasks, opts.parallel)?;
    let rows = results
        .chunks(2)
        .zip(cvs.iter())
        .map(|(pair, cv)| FigureRow {
            label: format!("cv={cv}"),
            static_mean: Some(pair[0].mean_response),
            ts_mean: Some(pair[1].mean_response),
            extra: Vec::new(),
        })
        .collect();
    Ok(FigureTable {
        title: "Mean response time (s) vs service-demand variance \
                (synthetic 4-wide fork-join, 16M, MPL 16)"
            .into(),
        columns: vec!["static".into(), "ts".into()],
        rows,
    })
}

/// A2 — topology sensitivity (§5.2): spread of mean response across
/// topologies, per policy, at fixed partition sizes.
pub fn ablation_topology(opts: &FigureOpts) -> Result<FigureTable, RunError> {
    let mut rows = Vec::new();
    for p in [8usize, 16] {
        let kinds: Vec<TopologyKind> = [
            TopologyKind::Linear,
            TopologyKind::Ring,
            TopologyKind::Mesh { rows: 0, cols: 0 },
            TopologyKind::Hypercube { dim: 0 },
        ]
        .into_iter()
        .filter(|k| PartitionPlan::equal(16, p, *k).is_some())
        .collect();
        for policy in [PolicyKind::Static, PolicyKind::TimeSharing] {
            let mut tasks = Vec::new();
            for &kind in &kinds {
                let batch = paper_batch(App::MatMul, Arch::Fixed, p, &opts.sizes, &opts.cost);
                tasks.push((opts.config(p, kind, policy), batch));
            }
            let results = run_parallel(tasks, opts.parallel)?;
            let means: Vec<f64> = results.iter().map(|r| r.mean_response).collect();
            let best = means.iter().cloned().fold(f64::INFINITY, f64::min);
            let worst = means.iter().cloned().fold(0.0, f64::max);
            rows.push(FigureRow {
                label: format!("p={p} {}", policy.label()),
                static_mean: Some(best),
                ts_mean: Some(worst),
                extra: vec![format!("{:.3}", worst / best)],
            });
        }
    }
    Ok(FigureTable {
        title: "Topology sensitivity (matmul fixed): best/worst topology mean \
                response (s) and their ratio, per policy"
            .into(),
        columns: vec!["best-topo".into(), "worst-topo".into(), "worst/best".into()],
        rows,
    })
}

/// A3 — wormhole conjecture (§5.2): the paper figures re-run under
/// flit-level wormhole switching.
pub fn ablation_wormhole(opts: &FigureOpts) -> Result<FigureTable, RunError> {
    let mut worm_opts = opts.clone();
    worm_opts.machine.switching = Switching::Wormhole;
    let saf = figure(App::MatMul, Arch::Fixed, opts)?;
    let worm = figure(App::MatMul, Arch::Fixed, &worm_opts)?;
    let rows = saf
        .rows
        .iter()
        .zip(worm.rows.iter())
        .map(|(s, c)| FigureRow {
            label: s.label.clone(),
            static_mean: c.static_mean,
            ts_mean: c.ts_mean,
            extra: vec![
                format!("{:.3}", s.static_mean.unwrap_or(0.0)),
                format!("{:.3}", s.ts_mean.unwrap_or(0.0)),
            ],
        })
        .collect();
    Ok(FigureTable {
        title: "Wormhole vs store-and-forward (matmul fixed): \
                mean response (s)"
            .into(),
        columns: vec![
            "worm-static".into(),
            "worm-ts".into(),
            "saf-static".into(),
            "saf-ts".into(),
        ],
        rows,
    })
}

/// A4 — basic-quantum sweep, and RR-job vs RR-process fairness.
///
/// The quantum sweep uses the paper batch; the rule comparison uses a
/// mixed batch where half the jobs have 4 processes and half 16 on a
/// 16-processor partition — under RR-process the 16-wide jobs grab 4x the
/// processing power (the unfairness §2.2 argues against), while RR-job
/// gives the narrow jobs 4x quanta to compensate.
pub fn ablation_quantum(opts: &FigureOpts) -> Result<FigureTable, RunError> {
    let kind = TopologyKind::Mesh { rows: 0, cols: 0 };
    let mut rows = Vec::new();
    for &q in &[1u64, 2, 5, 10, 20] {
        let mut o = opts.clone();
        o.rule = QuantumRule::RrJob {
            base: SimDuration::from_millis(q),
        };
        let batch = paper_batch(App::MatMul, Arch::Fixed, 16, &o.sizes, &o.cost);
        let r = run_experiment(&o.config(16, kind, PolicyKind::TimeSharing), &batch)?;
        rows.push(FigureRow {
            label: format!("q={q}ms"),
            static_mean: None,
            ts_mean: Some(r.mean_response),
            extra: vec!["-".into()],
        });
    }
    // Rule fairness: equal-demand jobs, alternating widths 4 and 16.
    let params4 = SyntheticParams {
        width: 4,
        msg_bytes: 1024,
        ..SyntheticParams::default()
    };
    let params16 = SyntheticParams {
        width: 16,
        msg_bytes: 1024,
        ..SyntheticParams::default()
    };
    let demand = SimDuration::from_secs(2);
    let batch: Vec<parsched_machine::JobSpec> = (0..16)
        .map(|i| {
            let p = if i % 2 == 0 { &params4 } else { &params16 };
            parsched_workload::synthetic_job(format!("mix{i}"), demand, p, &opts.cost)
        })
        .collect();
    for (name, rule) in [
        (
            "rr-job",
            QuantumRule::RrJob {
                base: SimDuration::from_millis(2),
            },
        ),
        (
            "rr-proc",
            QuantumRule::RrProcess {
                quantum: SimDuration::from_millis(2),
            },
        ),
    ] {
        let mut o = opts.clone();
        o.rule = rule;
        let r = run_experiment(&o.config(16, kind, PolicyKind::TimeSharing), &batch)?;
        // Fairness: how much later do the narrow (width-4) jobs finish than
        // the wide ones, given equal total demand?
        let rts = &r.primary.response_times;
        let narrow: f64 = rts.iter().step_by(2).map(|d| d.as_secs_f64()).sum::<f64>() / 8.0;
        let wide: f64 = rts
            .iter()
            .skip(1)
            .step_by(2)
            .map(|d| d.as_secs_f64())
            .sum::<f64>()
            / 8.0;
        rows.push(FigureRow {
            label: format!("mixed {name}"),
            static_mean: None,
            ts_mean: Some(r.mean_response),
            extra: vec![format!("{:.3}", narrow / wide)],
        });
    }
    Ok(FigureTable {
        title: "Quantum sensitivity (matmul fixed, 16M, time-sharing) and \
                RR-job vs RR-process fairness (mixed-width batch; last \
                column = narrow/wide mean-response ratio)"
            .into(),
        columns: vec!["ts".into(), "narrow/wide".into()],
        rows,
    })
}

/// A5 — the hybrid policy's set-size (MPL) tuning parameter (§2.3).
pub fn ablation_mpl(opts: &FigureOpts) -> Result<FigureTable, RunError> {
    let kind = TopologyKind::Mesh { rows: 0, cols: 0 };
    let p = 8;
    let batch = paper_batch(App::MatMul, Arch::Adaptive, p, &opts.sizes, &opts.cost);
    let mut rows = Vec::new();
    for mpl in [1usize, 2, 4, 8] {
        let mut config = opts.config(p, kind, PolicyKind::TimeSharing);
        config.mpl = Some(mpl);
        let r = run_experiment(&config, &batch)?;
        rows.push(FigureRow {
            label: format!("mpl={mpl}"),
            static_mean: None,
            ts_mean: Some(r.mean_response),
            extra: Vec::new(),
        });
    }
    Ok(FigureTable {
        title: "Hybrid set-size tuning (matmul adaptive, 8M, 2 partitions): \
                mean response (s) vs per-partition MPL"
            .into(),
        columns: vec!["ts".into()],
        rows,
    })
}

/// A6 — system-overhead sensitivity: context switch and hop-handler sweep.
pub fn ablation_overheads(opts: &FigureOpts) -> Result<FigureTable, RunError> {
    let factors = [0.0, 0.5, 1.0, 2.0, 4.0];
    let base_cs = opts.machine.ctx_switch_low;
    let base_handler = opts.machine.hop_handler;
    let kind = TopologyKind::Linear;
    let mut rows = Vec::new();
    for &f in &factors {
        let mut o = opts.clone();
        o.machine.ctx_switch_low = base_cs.mul_f64(f);
        o.machine.hop_handler = base_handler.mul_f64(f);
        let batch = paper_batch(App::MatMul, Arch::Fixed, 16, &o.sizes, &o.cost);
        let st = run_experiment(&o.config(16, kind, PolicyKind::Static), &batch)?;
        let ts = run_experiment(&o.config(16, kind, PolicyKind::TimeSharing), &batch)?;
        rows.push(FigureRow {
            label: format!("x{f}"),
            static_mean: Some(st.mean_response),
            ts_mean: Some(ts.mean_response),
            extra: Vec::new(),
        });
    }
    Ok(FigureTable {
        title: "Overhead sensitivity (matmul fixed, 16L): mean response (s) \
                vs context-switch & handler cost scale"
            .into(),
        columns: vec!["static".into(), "ts".into()],
        rows,
    })
}

/// A7 — memory-size sensitivity (§6 "size of memory").
pub fn ablation_memory(opts: &FigureOpts) -> Result<FigureTable, RunError> {
    // Below ~3 MB the paper workload's resident sets no longer fit at all
    // (the paper sized its problems against 4 MB nodes for this reason).
    let sizes_mb = [3u64, 4, 6, 8, 16];
    let kind = TopologyKind::Linear;
    let mut rows = Vec::new();
    for &mb in &sizes_mb {
        let mut o = opts.clone();
        o.machine.mem_capacity = mb * 1024 * 1024;
        let batch = paper_batch(App::MatMul, Arch::Fixed, 16, &o.sizes, &o.cost);
        let st = run_experiment(&o.config(16, kind, PolicyKind::Static), &batch)?;
        let ts = run_experiment(&o.config(16, kind, PolicyKind::TimeSharing), &batch)?;
        rows.push(FigureRow {
            label: format!("{mb}MB"),
            static_mean: Some(st.mean_response),
            ts_mean: Some(ts.mean_response),
            extra: Vec::new(),
        });
    }
    Ok(FigureTable {
        title: "Memory-size sensitivity (matmul fixed, 16L): mean response (s)".into(),
        columns: vec!["static".into(), "ts".into()],
        rows,
    })
}

/// A9 — gang scheduling (coscheduling) vs the paper's uncoordinated local
/// round-robin, with a slot-length sweep. Gang scheduling aligns a job's
/// processes in time so peers exchange messages within their own slot —
/// the classic cure for exactly the fine-grain-communication penalty the
/// paper's time-sharing policy pays.
pub fn ablation_gang(opts: &FigureOpts) -> Result<FigureTable, RunError> {
    let kind = TopologyKind::Mesh { rows: 0, cols: 0 };
    let mut rows = Vec::new();
    for (app, arch) in [(App::MatMul, Arch::Fixed), (App::Sort, Arch::Fixed)] {
        let batch = paper_batch(app, arch, 16, &opts.sizes, &opts.cost);
        let uncoordinated =
            run_experiment(&opts.config(16, kind, PolicyKind::TimeSharing), &batch)?;
        rows.push(FigureRow {
            label: format!("{} uncoord", app.label()),
            static_mean: None,
            ts_mean: Some(uncoordinated.mean_response),
            extra: Vec::new(),
        });
        for slot_ms in [10u64, 50, 200] {
            let mut config = opts.config(16, kind, PolicyKind::TimeSharing);
            config.discipline = Discipline::Gang {
                slot: SimDuration::from_millis(slot_ms),
            };
            let gang = run_experiment(&config, &batch)?;
            rows.push(FigureRow {
                label: format!("{} gang {slot_ms}ms", app.label()),
                static_mean: None,
                ts_mean: Some(gang.mean_response),
                extra: Vec::new(),
            });
        }
    }
    Ok(FigureTable {
        title: "Gang scheduling vs uncoordinated time-sharing (16M, MPL 16): \
                mean response (s)"
            .into(),
        columns: vec!["ts".into()],
        rows,
    })
}

/// A10 — open-arrival load sweep (extension): a Poisson stream of
/// fork-join jobs at increasing offered load; mean response per policy.
/// The paper's batch setting is the instantaneous-saturation limit of this
/// curve; sustained-load behaviour is where the hybrid policy earns its
/// keep in later literature.
pub fn ablation_load(opts: &FigureOpts) -> Result<FigureTable, RunError> {
    use crate::experiment::run_batch_with_arrivals;
    let kind = TopologyKind::Mesh { rows: 0, cols: 0 };
    let params = SyntheticParams {
        width: 4,
        msg_bytes: 1024,
        ..SyntheticParams::default()
    };
    let jobs = 48usize;
    // Offered utilization: mean demand (2 s of work over 16 CPUs = 125 ms
    // of machine time per job) divided by the mean interarrival time.
    let service_machine_time = params.mean_demand.as_secs_f64() / 16.0;
    let rng = DetRng::new(opts.seed);
    let mut rows = Vec::new();
    for (i, rho) in [0.3f64, 0.5, 0.7, 0.9].into_iter().enumerate() {
        let mut demand_rng = rng.substream_idx("load-demand", i as u64);
        let batch = synthetic_batch(jobs, &params, &opts.cost, &mut demand_rng);
        let mut arr_rng = rng.substream_idx("load-arrivals", i as u64);
        let arrivals = parsched_workload::poisson_arrivals(
            jobs,
            SimDuration::from_secs_f64(service_machine_time / rho),
            &mut arr_rng,
        );
        let mut means = Vec::new();
        for policy in [PolicyKind::Static, PolicyKind::TimeSharing] {
            // Open workloads are not order-scored: arrivals fix the order.
            let r = run_batch_with_arrivals(
                &opts.config(4, kind, policy),
                batch.clone(),
                arrivals.clone(),
            )?;
            means.push(r.mean_response());
        }
        rows.push(FigureRow {
            label: format!("rho={rho}"),
            static_mean: Some(means[0]),
            ts_mean: Some(means[1]),
            extra: Vec::new(),
        });
    }
    Ok(FigureTable {
        title: "Open Poisson arrivals (48 synthetic jobs, 4 partitions of 4, \
                mesh): mean response (s) vs offered load"
            .into(),
        columns: vec!["static".into(), "ts".into()],
        rows,
    })
}

/// A11 — pipeline workload (extension): steady neighbour-to-neighbour
/// traffic. A deep pipeline is the worst case for slot-based coscheduling:
/// filling 16 stages takes longer than any reasonable gang slot, so waves
/// straddle rotations and every straddle costs a whole rotation period —
/// uncoordinated sharing (which lets the pipeline trickle continuously)
/// beats gang here, and dedicated processors beat both.
pub fn ablation_pipeline(opts: &FigureOpts) -> Result<FigureTable, RunError> {
    let kind = TopologyKind::Linear; // stages map to consecutive nodes
    let params = PipelineParams {
        stages: 16,
        waves: 12,
        wave_bytes: 8 * 1024,
        stage_work: SimDuration::from_millis(20),
    };
    let batch: Vec<JobSpec> = (0..16)
        .map(|i| pipeline_job(format!("pipe{i}"), &params, &opts.cost))
        .collect();
    let mut rows = Vec::new();
    let st = run_experiment(&opts.config(16, kind, PolicyKind::Static), &batch)?;
    rows.push(FigureRow {
        label: "static".into(),
        static_mean: None,
        ts_mean: Some(st.mean_response),
        extra: Vec::new(),
    });
    let ts = run_experiment(&opts.config(16, kind, PolicyKind::TimeSharing), &batch)?;
    rows.push(FigureRow {
        label: "ts uncoord".into(),
        static_mean: None,
        ts_mean: Some(ts.mean_response),
        extra: Vec::new(),
    });
    for slot_ms in [50u64, 200] {
        let mut cfg = opts.config(16, kind, PolicyKind::TimeSharing);
        cfg.discipline = Discipline::Gang {
            slot: SimDuration::from_millis(slot_ms),
        };
        let gang = run_experiment(&cfg, &batch)?;
        rows.push(FigureRow {
            label: format!("ts gang {slot_ms}ms"),
            static_mean: None,
            ts_mean: Some(gang.mean_response),
            extra: Vec::new(),
        });
    }
    Ok(FigureTable {
        title: "Pipeline workload (16 stages x 12 waves, 16L): mean response \
                (s) per policy"
            .into(),
        columns: vec!["mean".into()],
        rows,
    })
}

/// A12 — the space-sharing tuning surface (extension): which equal
/// partition size minimizes static mean response, as a function of how
/// many jobs contend? Small batches want big partitions (speedup), big
/// batches want small ones (parallel slots) — the trade-off every
/// space-sharing installation has to tune, quantified on the paper's
/// machine and workload.
pub fn ablation_partition_tuning(opts: &FigureOpts) -> Result<FigureTable, RunError> {
    let kind = TopologyKind::Ring;
    let psizes = [1usize, 2, 4, 8, 16];
    let mut rows = Vec::new();
    for jobs in [4usize, 8, 16, 32] {
        let sizes = BatchSizes {
            jobs,
            small_count: jobs * 3 / 4,
            ..opts.sizes.clone()
        };
        let mut extra = Vec::new();
        let mut best = (f64::INFINITY, 0usize);
        for &p in &psizes {
            let batch = paper_batch(App::MatMul, Arch::Adaptive, p, &sizes, &opts.cost);
            let r = run_experiment(&opts.config(p, kind, PolicyKind::Static), &batch)?;
            if r.mean_response < best.0 {
                best = (r.mean_response, p);
            }
            extra.push(format!("{:.3}", r.mean_response));
        }
        extra.push(format!("p={}", best.1));
        rows.push(FigureRow {
            label: format!("jobs={jobs}"),
            static_mean: None,
            ts_mean: None,
            extra,
        });
    }
    Ok(FigureTable {
        title: "Static space-sharing tuning surface (matmul adaptive, ring): \
                mean response (s) by partition size and batch size"
            .into(),
        columns: psizes
            .iter()
            .map(|p| format!("p={p}"))
            .chain(["best".to_string()])
            .collect(),
        rows,
    })
}

/// A8 — flow-control ablation: injection-limited vs reserved-FIFO transit
/// buffering (DESIGN.md §6).
pub fn ablation_flow_control(opts: &FigureOpts) -> Result<FigureTable, RunError> {
    let kind = TopologyKind::Mesh { rows: 0, cols: 0 };
    let mut rows = Vec::new();
    for (name, flow) in [
        ("injection-limited", FlowControl::InjectionLimited),
        ("reserved", FlowControl::Reserved),
    ] {
        let mut o = opts.clone();
        o.machine.flow = flow;
        let batch = paper_batch(App::MatMul, Arch::Adaptive, 16, &o.sizes, &o.cost);
        let ts = run_experiment(&o.config(16, kind, PolicyKind::TimeSharing), &batch)?;
        rows.push(FigureRow {
            label: name.into(),
            static_mean: None,
            ts_mean: Some(ts.mean_response),
            extra: Vec::new(),
        });
    }
    Ok(FigureTable {
        title: "Flow-control ablation (matmul adaptive, 16M, time-sharing): \
                mean response (s)"
            .into(),
        columns: vec!["ts".into()],
        rows,
    })
}
