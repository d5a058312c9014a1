//! Experiment configuration and execution.
//!
//! One *run* = one batch through one machine under one policy. One
//! *experiment* = the paper's scoring of a configuration: a single run for
//! time-sharing (all jobs start together, order is immaterial), and the
//! average of best-ordered and worst-ordered runs for the static policy
//! (§5.1: "the response time in the static policy is taken as the average
//! of best and worst response times").

use crate::driver::Driver;
use crate::policy::{Discipline, Placement, PolicyKind, QuantumRule};
use parsched_des::{Engine, QueueKind, RunOutcome, SimDuration, SimTime, Summary};
use parsched_machine::{
    Event, JobSpec, Machine, MachineConfig, MachineMetrics, MachineStats, SystemNet,
};
use parsched_obs::{CollectRecorder, TimedEvent, TraceLayout};
use parsched_topology::{config_label, PartitionPlan, PlanError, TopologyKind};
use std::fmt;

/// Everything needed to run one configuration.
#[derive(Debug, Clone)]
pub struct ExperimentConfig {
    /// Total processors (the paper's machine: 16).
    pub system_size: usize,
    /// Processors per partition (1, 2, 4, 8 or 16).
    pub partition_size: usize,
    /// Interconnect of each partition.
    pub topology: TopologyKind,
    /// Policy under test.
    pub policy: PolicyKind,
    /// Quantum derivation for time-sharing.
    pub rule: QuantumRule,
    /// Process-to-processor mapping.
    pub placement: Placement,
    /// Time-sharing coordination discipline (gang vs. uncoordinated).
    pub discipline: Discipline,
    /// Per-partition multiprogramming limit override (`None` = policy
    /// default: 1 for static, unbounded for time-sharing).
    pub mpl: Option<usize>,
    /// Machine timing parameters.
    pub machine: MachineConfig,
    /// Engine pending-event set ([`QueueKind`] has one variant).
    pub queue: QueueKind,
}

impl ExperimentConfig {
    /// The paper's default machine with the given partitioning and policy.
    pub fn paper(partition_size: usize, topology: TopologyKind, policy: PolicyKind) -> Self {
        ExperimentConfig {
            system_size: 16,
            partition_size,
            topology,
            policy,
            rule: QuantumRule::default(),
            placement: Placement::default(),
            discipline: Discipline::default(),
            mpl: None,
            machine: MachineConfig::default(),
            queue: QueueKind::default(),
        }
    }

    /// The figure-axis label, e.g. `8L`.
    pub fn label(&self) -> String {
        config_label(self.partition_size, self.topology)
    }

    /// Build the partition plan, reporting an unrealizable combination as
    /// a typed [`PlanError`] (the run entry points surface it as a
    /// [`RunError`] instead of panicking).
    pub fn try_plan(&self) -> Result<PartitionPlan, PlanError> {
        PartitionPlan::try_equal(self.system_size, self.partition_size, self.topology)
    }

    /// Build the partition plan (panics on unrealizable combinations; use
    /// [`ExperimentConfig::try_plan`] to probe first).
    pub fn plan(&self) -> PartitionPlan {
        self.try_plan().unwrap_or_else(|e| {
            panic!(
                "unrealizable partitioning: {} processors into {}-{}: {e}",
                self.system_size, self.partition_size, self.topology
            )
        })
    }
}

/// Batch submission order for a run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BatchOrder {
    /// As generated.
    AsGiven,
    /// Ascending sequential demand (the static policy's best case).
    SmallestFirst,
    /// Descending sequential demand (the static policy's worst case).
    LargestFirst,
}

/// A failed run.
#[derive(Debug, Clone)]
pub struct RunError {
    /// The engine outcome when the simulation itself stalled or overran
    /// its budget; `None` when the run never produced one (rejected
    /// configuration, panicking task, or a lost parallel task).
    pub outcome: Option<RunOutcome>,
    /// Diagnostic dump from the driver, or the rejection/panic message.
    pub diagnosis: String,
}

impl RunError {
    /// A run that aborted before (or without) an engine outcome.
    pub fn aborted(diagnosis: impl Into<String>) -> RunError {
        RunError {
            outcome: None,
            diagnosis: diagnosis.into(),
        }
    }

    /// Task `index` panicked; `payload` is what `catch_unwind` caught.
    pub fn panicked(index: usize, payload: &(dyn std::any::Any + Send)) -> RunError {
        let msg = payload
            .downcast_ref::<&str>()
            .map(|s| (*s).to_string())
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "non-string panic payload".to_string());
        RunError::aborted(format!("task {index} panicked: {msg}"))
    }

    /// A parallel worker exited without reporting a result for task
    /// `index` (should be unreachable; named so it is diagnosable if not).
    pub fn lost(index: usize) -> RunError {
        RunError::aborted(format!(
            "task {index} lost: worker exited without reporting a result"
        ))
    }
}

impl fmt::Display for RunError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.outcome {
            Some(outcome) => write!(f, "run failed ({outcome:?}):\n{}", self.diagnosis),
            None => write!(f, "run aborted:\n{}", self.diagnosis),
        }
    }
}

impl std::error::Error for RunError {}

/// Output of one run.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// Per-job response times in submission order.
    pub response_times: Vec<SimDuration>,
    /// Summary of the response times (seconds).
    pub summary: Summary,
    /// Completion time of the whole batch.
    pub makespan: SimDuration,
    /// Machine statistics at completion.
    pub stats: MachineStats,
    /// Engine events processed.
    pub events: u64,
}

impl RunResult {
    /// Mean response time in seconds — the paper's performance metric.
    pub fn mean_response(&self) -> f64 {
        self.summary.mean
    }
}

/// Order a batch according to `order` (stable, by sequential demand).
pub fn order_batch(mut batch: Vec<JobSpec>, order: BatchOrder) -> Vec<JobSpec> {
    match order {
        BatchOrder::AsGiven => {}
        BatchOrder::SmallestFirst => {
            batch.sort_by_key(|j| j.total_compute());
        }
        BatchOrder::LargestFirst => {
            batch.sort_by_key(|j| std::cmp::Reverse(j.total_compute()));
        }
    }
    batch
}

/// Execute one run of `batch` (already ordered) under `config`, with the
/// whole batch arriving at t = 0 (the paper's closed setting).
pub fn run_batch(config: &ExperimentConfig, batch: Vec<JobSpec>) -> Result<RunResult, RunError> {
    execute(config, batch, None, false).map(|(r, _)| r)
}

/// Execute one run of an *open* workload: job `i` arrives at `arrivals[i]`
/// (an empty vector means the whole batch arrives at t = 0; any other
/// length than the batch's is a [`RunError`]). Response times are measured
/// from each job's own arrival.
pub fn run_batch_with_arrivals(
    config: &ExperimentConfig,
    batch: Vec<JobSpec>,
    arrivals: Vec<SimTime>,
) -> Result<RunResult, RunError> {
    let arrivals = (!arrivals.is_empty()).then_some(arrivals);
    execute(config, batch, arrivals, false).map(|(r, _)| r)
}

/// Everything the observability layer captured during one run.
///
/// Produced by [`run_batch_observed`]; feed `events` + `layout` to
/// [`parsched_obs::ChromeTrace::build`] and render `metrics.registry` with
/// [`crate::report::metrics_table`].
#[derive(Debug)]
pub struct ObsArtifacts {
    /// The typed event stream, in simulation order.
    pub events: Vec<TimedEvent>,
    /// Events discarded by the collector's capacity bound (0 normally).
    pub dropped: u64,
    /// The machine's time-weighted gauges, closed at the run's end time.
    pub metrics: MachineMetrics,
    /// Node/link/job naming for the Chrome-trace exporter.
    pub layout: TraceLayout,
}

/// Like [`run_batch`], with full instrumentation: a typed event recorder
/// and the machine metrics registry are installed for the run and returned
/// alongside the (bit-identical) simulated result.
///
/// Instrumentation only observes — it never schedules events or touches
/// the RNG — so the `RunResult` here is exactly what [`run_batch`] returns
/// for the same inputs.
pub fn run_batch_observed(
    config: &ExperimentConfig,
    batch: Vec<JobSpec>,
) -> Result<(RunResult, ObsArtifacts), RunError> {
    execute(config, batch, None, true)
        .map(|(r, obs)| (r, obs.expect("instrumented run returns artifacts")))
}

/// A driver started into its engine: the one run lifecycle. Every entry
/// point goes [`Run::prepare`], [`Run::build`] (a shard builds its own
/// driver for [`Run::start`]) and [`Run::complete`], then reduces the run.
pub(crate) struct Run {
    pub(crate) driver: Driver,
    pub(crate) engine: Engine<Event>,
}

impl Run {
    /// Check a run's inputs — every job has a process and `arrivals`, when
    /// given, one instant per job — then plan its partitions. Nothing is
    /// built before this passes.
    pub(crate) fn prepare(
        config: &ExperimentConfig,
        batch: &[JobSpec],
        arrivals: Option<&[SimTime]>,
    ) -> Result<PartitionPlan, RunError> {
        if let Some(job) = batch.iter().find(|j| j.procs.is_empty()) {
            return Err(RunError::aborted(format!(
                "job '{}' has no processes: a job needs at least one",
                job.name
            )));
        }
        if let Some(arrivals) = arrivals.filter(|a| a.len() != batch.len()) {
            return Err(RunError::aborted(format!(
                "one arrival per job: {} arrival times but {} jobs",
                arrivals.len(),
                batch.len()
            )));
        }
        config.try_plan().map_err(|e| {
            RunError::aborted(format!(
                "unrealizable configuration {}: {e}",
                config.label()
            ))
        })
    }

    /// Build the machine of `plan`, with the event recorder and metrics
    /// registry when `instrument` is set, and a driver for `batch` (job `i`
    /// arriving at `arrivals[i]`, or all at t = 0), then start it.
    pub(crate) fn build(
        config: &ExperimentConfig,
        plan: PartitionPlan,
        batch: Vec<JobSpec>,
        arrivals: Option<Vec<SimTime>>,
        instrument: bool,
    ) -> Run {
        let mut machine = Machine::new(config.machine.clone(), SystemNet::from_plan(&plan));
        if instrument {
            machine.recorder = Some(Box::new(CollectRecorder::new()));
            machine.metrics = Some(Box::new(MachineMetrics::new(machine.net(), machine.t0())));
        }
        let mut driver = Driver::for_config(config, machine, plan, batch);
        if let Some(arrivals) = arrivals {
            driver = driver.with_arrivals(arrivals);
        }
        Run::start(config, driver)
    }

    /// Seed `driver` into a fresh engine with `config`'s queue and event
    /// budget.
    pub(crate) fn start(config: &ExperimentConfig, mut driver: Driver) -> Run {
        let mut engine = Engine::new(config.queue);
        engine.max_events = config.machine.max_events;
        driver.start(&mut engine);
        Run { driver, engine }
    }

    /// Run the engine until it would pass `horizon` (a shard's round).
    pub(crate) fn until(&mut self, horizon: SimTime) -> RunOutcome {
        self.engine.run_until(&mut self.driver, horizon)
    }

    /// Run to the end, or to an open stream's `horizon`. A run to the end
    /// must drain with every job done, one to a horizon drain or reach it;
    /// anything else is an error with the outcome and the diagnosis.
    pub(crate) fn complete(mut self, horizon: Option<SimTime>) -> Result<Run, RunError> {
        let outcome = self.until(horizon.unwrap_or(SimTime::MAX));
        let complete = match horizon {
            None => outcome == RunOutcome::Drained && self.driver.all_done(),
            Some(_) => matches!(outcome, RunOutcome::Drained | RunOutcome::HorizonReached),
        };
        if complete {
            return Ok(self);
        }
        Err(RunError {
            outcome: Some(outcome),
            diagnosis: self.driver.diagnose(),
        })
    }
}

/// Shared run executor: the run lifecycle ([`Run`]) reduced to a
/// [`RunResult`]; `instrument` installs the event recorder + metrics
/// registry and returns them as [`ObsArtifacts`].
fn execute(
    config: &ExperimentConfig,
    batch: Vec<JobSpec>,
    arrivals: Option<Vec<SimTime>>,
    instrument: bool,
) -> Result<(RunResult, Option<ObsArtifacts>), RunError> {
    let plan = Run::prepare(config, &batch, arrivals.as_deref())?;
    let Run { mut driver, engine } =
        Run::build(config, plan, batch, arrivals, instrument).complete(None)?;
    let response_times = driver.response_times();
    let result = RunResult {
        summary: Summary::of_durations(&response_times),
        response_times,
        makespan: engine.now().since(SimTime::ZERO),
        stats: MachineStats::capture(&driver.machine, engine.now()),
        events: engine.events_processed(),
    };
    let obs = instrument.then(|| {
        let machine = &mut driver.machine;
        let mut metrics = machine.metrics.take().expect("instrumented build");
        metrics.registry.finish(engine.now());
        let mut recorder = machine.recorder.take().expect("instrumented build");
        let collector = recorder
            .as_any_mut()
            .downcast_mut::<CollectRecorder>()
            .expect("an instrumented build installs a CollectRecorder");
        let layout = TraceLayout {
            node_count: u32::try_from(machine.net().nodes()).expect("node count exceeds u32"),
            links: (0..machine.net().channel_count())
                .map(|c| machine.net().channel(c))
                .map(|c| (c.from, c.to))
                .collect(),
            job_names: machine.jobs().iter().map(|j| j.name.clone()).collect(),
        };
        ObsArtifacts {
            events: collector.take_events(),
            dropped: collector.dropped(),
            metrics: *metrics,
            layout,
        }
    });
    Ok((result, obs))
}

/// A replicated experiment's aggregate: mean of per-replication scores
/// with a Student-t confidence interval.
#[derive(Debug, Clone)]
pub struct ReplicatedResult {
    /// Per-replication scored means (seconds).
    pub means: Vec<f64>,
    /// Grand mean.
    pub mean: f64,
    /// Half-width of the two-sided confidence interval.
    pub half_width: f64,
    /// Confidence level used.
    pub confidence: f64,
}

/// Run `replications` independent experiments, one per batch produced by
/// `make_batch(replication_index)`, and aggregate the scored means with a
/// Student-t confidence interval. Use for stochastic workloads (synthetic
/// batches with different seeds); the paper's fixed batches are
/// deterministic and need no replication.
///
/// # Errors
/// [`RunError`] if `replications < 2` (a confidence interval needs two
/// runs) or if any replication fails.
pub fn run_replicated(
    config: &ExperimentConfig,
    replications: usize,
    confidence: f64,
    mut make_batch: impl FnMut(usize) -> Vec<JobSpec>,
) -> Result<ReplicatedResult, RunError> {
    if replications < 2 {
        return Err(RunError::aborted(format!(
            "need at least two replications for a confidence interval, got {replications}"
        )));
    }
    let mut means = Vec::with_capacity(replications);
    for i in 0..replications {
        let batch = make_batch(i);
        let r = run_experiment(config, &batch)?;
        means.push(r.mean_response);
    }
    let mut w = parsched_des::Welford::new();
    for &m in &means {
        w.record(m);
    }
    let t = parsched_des::stats::t_critical(replications - 1, confidence);
    let half_width = t * w.std_dev() / (replications as f64).sqrt();
    Ok(ReplicatedResult {
        mean: w.mean(),
        means,
        half_width,
        confidence,
    })
}

/// The paper's score for one configuration.
#[derive(Debug, Clone)]
pub struct ExperimentResult {
    /// Figure-axis label of the configuration.
    pub label: String,
    /// Policy run.
    pub policy: PolicyKind,
    /// The scored mean response time (seconds): the average of the best
    /// and worst orderings.
    pub mean_response: f64,
    /// Best-ordering (smallest-first) run.
    pub primary: RunResult,
    /// Worst-ordering (largest-first) run.
    pub worst: Option<RunResult>,
}

/// Run the full experiment for one configuration and batch.
pub fn run_experiment(
    config: &ExperimentConfig,
    batch: &[JobSpec],
) -> Result<ExperimentResult, RunError> {
    // Submission order matters under static space-sharing, and also
    // (mildly) under time-sharing because job loads serialize on the host
    // link: score both policies on the best and worst orderings so neither
    // gets an ordering advantage.
    let best = run_batch(
        config,
        order_batch(batch.to_vec(), BatchOrder::SmallestFirst),
    )?;
    let worst = run_batch(
        config,
        order_batch(batch.to_vec(), BatchOrder::LargestFirst),
    )?;
    let mean = (best.mean_response() + worst.mean_response()) / 2.0;
    Ok(ExperimentResult {
        label: config.label(),
        policy: config.policy,
        mean_response: mean,
        primary: best,
        worst: Some(worst),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use parsched_des::SimDuration;
    use parsched_machine::{Op, ProcSpec};

    /// Config with loader costs zeroed so tests measure pure scheduling.
    fn quick(system_size: usize, policy: PolicyKind) -> ExperimentConfig {
        let mut cfg = ExperimentConfig {
            system_size,
            ..ExperimentConfig::paper(1, TopologyKind::Linear, policy)
        };
        cfg.machine.job_load_latency = SimDuration::from_millis(1);
        cfg.machine.host_link_per_byte = SimDuration::ZERO;
        cfg
    }

    fn tiny_batch(count: usize, millis: u64) -> Vec<JobSpec> {
        (0..count)
            .map(|i| JobSpec {
                name: format!("tiny{i}"),
                ship_bytes: 0,
                procs: vec![ProcSpec {
                    program: vec![Op::Compute(SimDuration::from_millis(
                        millis * (i as u64 + 1),
                    ))],
                    mem_bytes: 1000,
                }],
            })
            .collect()
    }

    #[test]
    fn order_batch_sorts_by_demand() {
        let batch = tiny_batch(4, 10);
        let best = order_batch(batch.clone(), BatchOrder::SmallestFirst);
        assert_eq!(best[0].name, "tiny0");
        assert_eq!(best[3].name, "tiny3");
        let worst = order_batch(batch.clone(), BatchOrder::LargestFirst);
        assert_eq!(worst[0].name, "tiny3");
        let given = order_batch(batch, BatchOrder::AsGiven);
        assert_eq!(given[0].name, "tiny0");
    }

    #[test]
    fn static_run_is_serial_per_partition() {
        // 4 single-process jobs on 4 single-node partitions: all parallel.
        let config = quick(4, PolicyKind::Static);
        let r = run_batch(&config, tiny_batch(4, 10)).unwrap();
        assert_eq!(r.response_times.len(), 4);
        // Longest job is 40 ms; makespan ~ load + 40 ms.
        assert!(r.makespan >= SimDuration::from_millis(40));
        assert!(r.makespan <= SimDuration::from_millis(45));
    }

    #[test]
    fn static_queues_when_partitions_busy() {
        // 4 jobs, ONE single-node partition: strictly serial.
        let config = quick(1, PolicyKind::Static);
        let r = run_batch(&config, tiny_batch(4, 10)).unwrap();
        // 10+20+30+40 ms of work; later loads hide behind execution
        // (prefetch), so only the first load latency is exposed.
        assert!(r.makespan >= SimDuration::from_millis(100));
        assert!(r.makespan <= SimDuration::from_millis(110));
        // FCFS: response times strictly increase in submission order.
        for w in r.response_times.windows(2) {
            assert!(w[0] < w[1]);
        }
    }

    #[test]
    fn time_sharing_admits_everything_at_once() {
        let config = quick(1, PolicyKind::TimeSharing);
        let r = run_batch(&config, tiny_batch(4, 10)).unwrap();
        // Under RR the shortest job (10 ms) finishes around 4x10 ms, far
        // sooner than it would behind 90 ms of FCFS backlog... and the
        // longest finishes last at ~the total work.
        assert!(r.response_times[0] < SimDuration::from_millis(60));
        assert!(r.response_times[3] >= SimDuration::from_millis(99));
    }

    #[test]
    fn rr_beats_fcfs_for_short_jobs_in_the_mean() {
        // One CPU, highly skewed demands: time-sharing's mean response must
        // beat the static average of best/worst orderings.
        let batch: Vec<JobSpec> = [400u64, 10, 10, 10, 10, 10]
            .iter()
            .enumerate()
            .map(|(i, &ms)| JobSpec {
                name: format!("skew{i}"),
                ship_bytes: 0,
                procs: vec![ProcSpec {
                    program: vec![Op::Compute(SimDuration::from_millis(ms))],
                    mem_bytes: 0,
                }],
            })
            .collect();
        let st = run_experiment(&quick(1, PolicyKind::Static), &batch).unwrap();
        let ts = run_experiment(&quick(1, PolicyKind::TimeSharing), &batch).unwrap();
        assert!(
            ts.mean_response < st.mean_response,
            "ts {} !< static {}",
            ts.mean_response,
            st.mean_response
        );
        assert!(st.worst.is_some());
        assert!(ts.worst.is_some());
    }

    #[test]
    fn replicated_experiments_aggregate_with_ci() {
        let config = quick(2, PolicyKind::Static);
        let result = run_replicated(&config, 5, 0.95, |i| tiny_batch(4, 5 + i as u64)).unwrap();
        assert_eq!(result.means.len(), 5);
        assert!(result.mean > 0.0);
        assert!(result.half_width >= 0.0);
        // Means grow with i (work scales), so the CI is non-degenerate.
        assert!(result.half_width > 0.0);
        assert!((result.confidence - 0.95).abs() < 1e-12);
    }

    #[test]
    fn unrealizable_config_is_an_error_not_a_panic() {
        let mut config = quick(16, PolicyKind::Static);
        config.partition_size = 3;
        let err = run_batch(&config, tiny_batch(1, 1)).unwrap_err();
        assert!(err.outcome.is_none());
        let msg = format!("{err}");
        assert!(msg.contains("does not divide"), "unexpected error: {msg}");
        assert!(msg.contains("run aborted"), "unexpected error: {msg}");
    }

    /// A wrong-length arrival vector is refused before anything is built,
    /// naming both counts; an empty one still means "all at t = 0".
    #[test]
    fn arrival_count_mismatch_is_an_error_not_a_panic() {
        let config = quick(2, PolicyKind::Static);
        let arrivals = vec![SimTime::ZERO; 2];
        let err = run_batch_with_arrivals(&config, tiny_batch(3, 1), arrivals).unwrap_err();
        assert_eq!(err.outcome, None);
        assert!(
            err.diagnosis.contains("2 arrival times but 3 jobs"),
            "{err}"
        );
        assert!(run_batch_with_arrivals(&config, tiny_batch(3, 1), Vec::new()).is_ok());
    }

    #[test]
    fn replication_requires_two_runs() {
        let config = quick(1, PolicyKind::Static);
        let err = run_replicated(&config, 1, 0.95, |_| tiny_batch(1, 1)).unwrap_err();
        assert_eq!(err.outcome, None);
        assert!(
            err.diagnosis.contains("at least two replications") && err.diagnosis.contains("got 1"),
            "{err}"
        );
    }

    #[test]
    fn dynamic_quantum_lone_job_runs_preemption_free() {
        // With only one resident job the dynamic quantum equals the job's
        // whole remaining demand: it should never timeslice.
        let mut config = quick(1, PolicyKind::TimeSharing);
        config.discipline = Discipline::DynamicQuantum {
            base: SimDuration::from_millis(2),
        };
        let r = run_batch(&config, tiny_batch(1, 100)).unwrap();
        assert!(
            r.stats.quantum_expiries <= 1,
            "lone job timesliced {} times",
            r.stats.quantum_expiries
        );
    }

    #[test]
    fn dynamic_quantum_cuts_context_switches() {
        // Same batch, same machine: the dynamic discipline must complete
        // everything with far fewer quantum expiries than the fixed 2 ms
        // RR-job rule (that is its whole point).
        let batch = tiny_batch(4, 50);
        let fixed = run_batch(&quick(1, PolicyKind::TimeSharing), batch.clone()).unwrap();
        let mut config = quick(1, PolicyKind::TimeSharing);
        config.discipline = Discipline::DynamicQuantum {
            base: SimDuration::from_millis(2),
        };
        let dynq = run_batch(&config, batch).unwrap();
        assert_eq!(dynq.response_times.len(), 4);
        assert!(
            dynq.stats.quantum_expiries * 4 < fixed.stats.quantum_expiries,
            "dynamic {} !<< fixed {}",
            dynq.stats.quantum_expiries,
            fixed.stats.quantum_expiries
        );
    }

    #[test]
    fn dynamic_quantum_replays_identically() {
        let mut config = quick(2, PolicyKind::TimeSharing);
        config.discipline = Discipline::DynamicQuantum {
            base: SimDuration::from_millis(2),
        };
        let a = run_batch(&config, tiny_batch(6, 10)).unwrap();
        let b = run_batch(&config, tiny_batch(6, 10)).unwrap();
        assert_eq!(a.response_times, b.response_times);
        assert_eq!(a.events, b.events);
    }

    #[test]
    fn mpl_override_bounds_admission() {
        // MPL 2 on one partition of one node: jobs 3 and 4 must wait.
        let mut config = quick(1, PolicyKind::TimeSharing);
        config.mpl = Some(2);
        let r = run_batch(&config, tiny_batch(4, 10)).unwrap();
        // With MPL 2 the first two (10, 20 ms) share; job 1 done ~20 ms.
        assert!(r.response_times[0] <= SimDuration::from_millis(25));
        // Everything completes.
        assert_eq!(r.response_times.len(), 4);
    }
}
