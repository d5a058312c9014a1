//! The open-system front door: arrival streams driving the live scheduler.
//!
//! The paper evaluates its policies on *closed* batches (everything arrives
//! at t = 0 and the score is the batch's mean response time). The companion
//! reports it cites — and the broader dynamic-quantum literature — work in
//! the *open* setting instead: jobs arrive over time from an external
//! source at offered load ρ, and the interesting quantities are the
//! steady-state response-time and slowdown distributions as ρ climbs
//! toward saturation. This module provides that front door on top of the
//! unchanged [`Driver`](crate::driver::Driver):
//!
//! * [`run_open_system`] injects a Poisson stream of synthetic fork-join
//!   jobs (demands from a configurable [`DemandSpec`]) into one machine and
//!   reports warm-up-truncated response/slowdown statistics;
//! * [`run_open_stream`] is the trace-level variant: explicit arrival
//!   instants and demands, for differential testing and replay;
//! * [`sweep_load`] runs a ρ grid with common random numbers (the same
//!   demand stream at every load point) and tabulates the curves.
//!
//! Everything is driven by the in-tree deterministic RNG: the same seed
//! replays the same arrivals, the same demands, and therefore the same
//! simulation, event for event, on either engine.

use crate::experiment::{ExperimentConfig, Run, RunError};
use parsched_arrivals::{
    mean_interarrival_for_load, ArrivalProcess, BoundedParetoDemand, ExponentialDemand,
    HyperexponentialDemand, PoissonArrivals, ServiceDemand,
};
use parsched_des::rng::DetRng;
use parsched_des::stats::percentile;
use parsched_des::{SimDuration, SimTime};
use parsched_machine::JobSpec;
use parsched_workload::cost::CostModel;
use parsched_workload::synthetic::{synthetic_job, SyntheticParams};
use std::fmt::Write as _;

/// Service-demand distribution for the open stream, rebuildable from a
/// seed so a load sweep can reuse the identical demand sequence at every
/// ρ (common random numbers).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum DemandSpec {
    /// Exponential demand (CV 1, the classic M/M baseline).
    Exponential {
        /// Mean sequential demand.
        mean: SimDuration,
    },
    /// Bounded Pareto demand (the heavy-tailed regime where dynamic
    /// quanta and time-sharing earn their keep).
    BoundedPareto {
        /// Tail index (heavier tail as it approaches 1).
        alpha: f64,
        /// Smallest demand.
        lo: SimDuration,
        /// Largest demand (truncation point).
        hi: SimDuration,
    },
    /// Two-phase hyperexponential demand with a chosen CV ≥ 1.
    Hyperexponential {
        /// Mean sequential demand.
        mean: SimDuration,
        /// Coefficient of variation (≥ 1).
        cv: f64,
    },
}

impl DemandSpec {
    /// Build the sampler on its own RNG substream.
    pub fn sampler(self, rng: DetRng) -> Box<dyn ServiceDemand> {
        match self {
            DemandSpec::Exponential { mean } => Box::new(ExponentialDemand::new(mean, rng)),
            DemandSpec::BoundedPareto { alpha, lo, hi } => {
                Box::new(BoundedParetoDemand::new(alpha, lo, hi, rng))
            }
            DemandSpec::Hyperexponential { mean, cv } => {
                Box::new(HyperexponentialDemand::new(mean, cv, rng))
            }
        }
    }

    /// The distribution's analytic mean (used to convert ρ to a rate).
    pub fn mean(self) -> SimDuration {
        match self {
            DemandSpec::Exponential { mean } => mean,
            DemandSpec::BoundedPareto { alpha, lo, hi } => {
                // Delegate to the sampler's closed form (the RNG is unused
                // for the mean).
                BoundedParetoDemand::new(alpha, lo, hi, DetRng::new(0)).mean()
            }
            DemandSpec::Hyperexponential { mean, .. } => mean,
        }
    }

    /// Short label for tables.
    pub fn label(self) -> &'static str {
        match self {
            DemandSpec::Exponential { .. } => "exp",
            DemandSpec::BoundedPareto { .. } => "pareto",
            DemandSpec::Hyperexponential { .. } => "hyperexp",
        }
    }
}

/// When an open run stops injecting and winds down.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StopRule {
    /// Inject warm-up + this many measured jobs, then run until every
    /// injected job departs (the measured sample is complete).
    Completions(usize),
    /// Inject every arrival before the horizon and stop the clock there;
    /// jobs still in the system at the horizon are reported unfinished.
    Horizon(SimTime),
}

/// Configuration of one open-system run.
#[derive(Debug, Clone)]
pub struct OpenConfig {
    /// Machine/policy configuration (the closed-batch experiment config,
    /// reused unchanged).
    pub experiment: ExperimentConfig,
    /// Fork-join shape of the injected jobs (`mean_demand`/`cv` are
    /// ignored; demand comes from [`OpenConfig::demand`]).
    pub params: SyntheticParams,
    /// Service-demand distribution.
    pub demand: DemandSpec,
    /// Completed jobs discarded from the front of the sample (warm-up
    /// truncation — the empty-system start biases early response times
    /// down).
    pub warmup: usize,
    /// Stopping rule.
    pub stop: StopRule,
    /// Master seed for the arrival and demand streams.
    pub seed: u64,
}

impl OpenConfig {
    /// A small open-system config over the given experiment config:
    /// exponential demands, 4-wide jobs, a modest measured sample.
    pub fn new(experiment: ExperimentConfig, seed: u64) -> OpenConfig {
        OpenConfig {
            experiment,
            params: SyntheticParams {
                mean_demand: SimDuration::from_millis(200),
                cv: 1.0,
                width: 4,
                msg_bytes: 1024,
                mem_per_proc: 4 * 1024,
            },
            demand: DemandSpec::Exponential {
                mean: SimDuration::from_millis(200),
            },
            warmup: 20,
            stop: StopRule::Completions(100),
            seed,
        }
    }
}

/// One measured job of an open run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OpenJobRecord {
    /// Submission index.
    pub index: usize,
    /// Arrival instant.
    pub arrival: SimTime,
    /// Departure instant (`None` if still in the system at the horizon).
    pub finished: Option<SimTime>,
    /// The job's sequential demand (the slowdown denominator).
    pub demand: SimDuration,
    /// Response time (departure − arrival), when finished.
    pub response: Option<SimDuration>,
}

impl OpenJobRecord {
    /// Slowdown = response / sequential demand (`None` while unfinished).
    pub fn slowdown(&self) -> Option<f64> {
        self.response
            .map(|r| r.as_secs_f64() / self.demand.as_secs_f64().max(f64::MIN_POSITIVE))
    }
}

/// Mean and tail statistics of one metric over the measured sample.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TailStats {
    /// Sample mean.
    pub mean: f64,
    /// 95th percentile.
    pub p95: f64,
    /// 99th percentile.
    pub p99: f64,
}

impl TailStats {
    fn of(xs: &[f64]) -> Option<TailStats> {
        if xs.is_empty() {
            return None;
        }
        Some(TailStats {
            mean: xs.iter().sum::<f64>() / xs.len() as f64,
            p95: percentile(xs, 0.95).expect("non-empty"),
            p99: percentile(xs, 0.99).expect("non-empty"),
        })
    }
}

/// Outcome of one open-system run.
#[derive(Debug, Clone)]
pub struct OpenRunResult {
    /// Per-job records in submission order (warm-up jobs included, flagged
    /// by index < warmup).
    pub records: Vec<OpenJobRecord>,
    /// Jobs past warm-up that finished (the measured sample size).
    pub measured: usize,
    /// Jobs still in the system when the run stopped (0 under
    /// [`StopRule::Completions`]).
    pub unfinished: usize,
    /// Response-time statistics (seconds) over the measured sample.
    pub response: Option<TailStats>,
    /// Slowdown statistics over the measured sample.
    pub slowdown: Option<TailStats>,
    /// Final simulated time.
    pub end: SimTime,
}

/// Run an open stream of synthetic fork-join jobs: Poisson arrivals at
/// offered load `rho` (per-processor utilization demanded of the whole
/// machine), demands from the configured [`DemandSpec`]. Deterministic in
/// `config.seed`.
///
/// # Errors
/// [`RunError`] if `rho` is not finite and positive, or if the run fails.
pub fn run_open_system(config: &OpenConfig, rho: f64) -> Result<OpenRunResult, RunError> {
    if !(rho.is_finite() && rho > 0.0) {
        return Err(RunError::aborted(format!(
            "offered load must be finite and positive, got rho = {rho}"
        )));
    }
    let mean_ia =
        mean_interarrival_for_load(rho, config.demand.mean(), config.experiment.system_size);
    let master = DetRng::new(config.seed);
    let mut arrivals = PoissonArrivals::new(mean_ia, master.substream("open.arrivals"));
    let mut demand = config.demand.sampler(master.substream("open.demand"));
    let (times, demands) = match config.stop {
        StopRule::Completions(n) => {
            let count = config.warmup + n;
            let times = arrivals.take_arrivals(count);
            let demands: Vec<SimDuration> = (0..count).map(|_| demand.sample()).collect();
            (times, demands)
        }
        StopRule::Horizon(t) => {
            let mut times = Vec::new();
            let mut demands = Vec::new();
            while let Some(at) = arrivals.next_arrival() {
                if at > t {
                    break;
                }
                times.push(at);
                demands.push(demand.sample());
            }
            (times, demands)
        }
    };
    run_open_stream(config, times, demands)
}

/// Trace-level open run: explicit arrival instants (nondecreasing) and
/// sequential demands, one per job. This is the replayable core that
/// [`run_open_system`] samples its streams into; the differential oracle
/// calls it directly.
///
/// # Errors
/// [`RunError`] if `times` and `demands` differ in length, the
/// configuration is unrealizable, or the run fails.
pub fn run_open_stream(
    config: &OpenConfig,
    times: Vec<SimTime>,
    demands: Vec<SimDuration>,
) -> Result<OpenRunResult, RunError> {
    let cfg = &config.experiment;
    let cost = CostModel::default();
    // Floor at one hardware quantum so every job is real work; the floored
    // value is also the slowdown denominator (the demand actually
    // injected), so a micro-draw from a long-tailed sampler cannot
    // manufacture a thousand-fold slowdown out of a sub-quantum job.
    let demands: Vec<SimDuration> = demands
        .into_iter()
        .map(|d| d.max(SimDuration::from_millis(2)))
        .collect();
    let batch: Vec<JobSpec> = demands
        .iter()
        .enumerate()
        .map(|(i, &d)| synthetic_job(format!("open{i}"), d, &config.params, &cost))
        .collect();
    let plan = Run::prepare(cfg, &batch, Some(&times))?;
    let horizon = match config.stop {
        StopRule::Completions(_) => None,
        StopRule::Horizon(t) => Some(t),
    };
    let Run { driver, engine } =
        Run::build(cfg, plan, batch, Some(times), false).complete(horizon)?;
    let records: Vec<OpenJobRecord> = driver
        .entry_records()
        .iter()
        .zip(&demands)
        .enumerate()
        .map(|(index, (e, &demand))| OpenJobRecord {
            index,
            arrival: e.arrival,
            finished: e.finished,
            demand,
            response: e.finished.map(|f| f.since(e.arrival)),
        })
        .collect();
    Ok(summarize(config.warmup, records, engine.now()))
}

fn summarize(warmup: usize, records: Vec<OpenJobRecord>, end: SimTime) -> OpenRunResult {
    let measured: Vec<&OpenJobRecord> = records
        .iter()
        .filter(|r| r.index >= warmup && r.finished.is_some())
        .collect();
    let unfinished = records.iter().filter(|r| r.finished.is_none()).count();
    let responses: Vec<f64> = measured
        .iter()
        .map(|r| r.response.expect("filtered").as_secs_f64())
        .collect();
    let slowdowns: Vec<f64> = measured
        .iter()
        .map(|r| r.slowdown().expect("filtered"))
        .collect();
    OpenRunResult {
        measured: measured.len(),
        unfinished,
        response: TailStats::of(&responses),
        slowdown: TailStats::of(&slowdowns),
        records,
        end,
    }
}

/// One row of a load sweep.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LoadPoint {
    /// Offered load ρ.
    pub rho: f64,
    /// Measured completions behind the statistics.
    pub measured: usize,
    /// Jobs unfinished at the stop point.
    pub unfinished: usize,
    /// Response-time statistics (seconds).
    pub response: Option<TailStats>,
    /// Slowdown statistics.
    pub slowdown: Option<TailStats>,
}

/// A ρ grid's response/slowdown curves for one configuration.
#[derive(Debug, Clone)]
pub struct LoadSweep {
    /// Configuration label (partitioning + policy + demand).
    pub label: String,
    /// One point per requested ρ, in order.
    pub points: Vec<LoadPoint>,
}

impl LoadSweep {
    /// Render as a fixed-width text table.
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "# {}", self.label);
        let _ = writeln!(
            out,
            "{:>6} {:>6} {:>6} {:>10} {:>10} {:>10} {:>10} {:>10} {:>10}",
            "rho", "done", "left", "mean(s)", "p95(s)", "p99(s)", "slowdown", "sd-p95", "sd-p99"
        );
        for p in &self.points {
            let r = p.response;
            let s = p.slowdown;
            let cell = |v: Option<f64>| match v {
                Some(x) => format!("{x:.4}"),
                None => "-".to_string(),
            };
            let _ = writeln!(
                out,
                "{:>6.2} {:>6} {:>6} {:>10} {:>10} {:>10} {:>10} {:>10} {:>10}",
                p.rho,
                p.measured,
                p.unfinished,
                cell(r.map(|t| t.mean)),
                cell(r.map(|t| t.p95)),
                cell(r.map(|t| t.p99)),
                cell(s.map(|t| t.mean)),
                cell(s.map(|t| t.p95)),
                cell(s.map(|t| t.p99)),
            );
        }
        out
    }

    /// Mean response times in ρ order (`None` where a point measured
    /// nothing) — the monotonicity acceptance check reads this.
    pub fn mean_responses(&self) -> Vec<Option<f64>> {
        self.points
            .iter()
            .map(|p| p.response.map(|t| t.mean))
            .collect()
    }
}

/// Run the same open config across a ρ grid with common random numbers:
/// every load point replays the identical demand sequence, so the curves
/// differ only through the arrival rate (and the arrival stream's own
/// thinning), not through sampling noise.
pub fn sweep_load(config: &OpenConfig, rhos: &[f64]) -> Result<LoadSweep, RunError> {
    let mut points = Vec::with_capacity(rhos.len());
    for &rho in rhos {
        let r = run_open_system(config, rho)?;
        points.push(LoadPoint {
            rho,
            measured: r.measured,
            unfinished: r.unfinished,
            response: r.response,
            slowdown: r.slowdown,
        });
    }
    let discipline = match config.experiment.discipline {
        crate::policy::Discipline::Uncoordinated => "",
        crate::policy::Discipline::Gang { .. } => " gang",
        crate::policy::Discipline::DynamicQuantum { .. } => " dynq",
    };
    Ok(LoadSweep {
        label: format!(
            "{} {}{} {} demand",
            config.experiment.label(),
            config.experiment.policy.label(),
            discipline,
            config.demand.label()
        ),
        points,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::{Discipline, PolicyKind};
    use parsched_topology::TopologyKind;

    /// A small, fast open config: 4 single-node partitions, light jobs.
    fn quick(policy: PolicyKind) -> OpenConfig {
        let mut exp = ExperimentConfig::paper(1, TopologyKind::Linear, policy);
        exp.system_size = 4;
        exp.machine.job_load_latency = SimDuration::from_millis(1);
        exp.machine.host_link_per_byte = SimDuration::ZERO;
        let mut cfg = OpenConfig::new(exp, 0xBEEF);
        cfg.params.width = 1;
        cfg.params.mean_demand = SimDuration::from_millis(20);
        cfg.demand = DemandSpec::Exponential {
            mean: SimDuration::from_millis(20),
        };
        cfg.warmup = 10;
        cfg.stop = StopRule::Completions(60);
        cfg
    }

    #[test]
    fn open_run_rejects_bad_offered_load() {
        let cfg = quick(PolicyKind::TimeSharing);
        for rho in [0.0, -0.5, f64::NAN, f64::INFINITY] {
            let err = run_open_system(&cfg, rho).unwrap_err();
            assert_eq!(err.outcome, None);
            assert!(err.diagnosis.contains(&format!("rho = {rho}")), "{err}");
        }
    }

    #[test]
    fn open_stream_rejects_mismatched_demands() {
        let times = vec![SimTime::ZERO, SimTime::ZERO];
        let demands = vec![SimDuration::from_millis(20)];
        let err = run_open_stream(&quick(PolicyKind::TimeSharing), times, demands).unwrap_err();
        assert_eq!(err.outcome, None);
        assert!(
            err.diagnosis.contains("2 arrival times but 1 jobs"),
            "{err}"
        );
    }

    #[test]
    fn open_run_completes_and_measures() {
        let r = run_open_system(&quick(PolicyKind::TimeSharing), 0.5).unwrap();
        assert_eq!(r.measured, 60);
        assert_eq!(r.unfinished, 0);
        let resp = r.response.expect("measured jobs");
        assert!(resp.mean > 0.0);
        assert!(resp.p95 >= resp.mean * 0.5);
        assert!(resp.p99 >= resp.p95);
        let sd = r.slowdown.expect("measured jobs");
        assert!(sd.mean >= 1.0, "slowdown below 1: {}", sd.mean);
    }

    #[test]
    fn open_run_replays_bit_identically() {
        let cfg = quick(PolicyKind::TimeSharing);
        let a = run_open_system(&cfg, 0.7).unwrap();
        let b = run_open_system(&cfg, 0.7).unwrap();
        assert_eq!(a.records, b.records);
        assert_eq!(a.end, b.end);
    }

    #[test]
    fn horizon_stop_reports_unfinished() {
        let mut cfg = quick(PolicyKind::TimeSharing);
        cfg.stop = StopRule::Horizon(SimTime::ZERO + SimDuration::from_millis(400));
        let r = run_open_system(&cfg, 0.9).unwrap();
        assert!(r.end <= SimTime::ZERO + SimDuration::from_millis(400));
        // At ρ 0.9 something is almost surely mid-service at the cut.
        assert!(!r.records.is_empty());
        for rec in &r.records {
            if let Some(f) = rec.finished {
                assert!(f >= rec.arrival);
            }
        }
    }

    #[test]
    fn mean_response_grows_with_load() {
        let cfg = quick(PolicyKind::TimeSharing);
        let sweep = sweep_load(&cfg, &[0.3, 0.6, 0.9]).unwrap();
        let means: Vec<f64> = sweep
            .mean_responses()
            .into_iter()
            .map(|m| m.expect("all points measured"))
            .collect();
        assert!(
            means[0] <= means[1] && means[1] <= means[2],
            "mean response not monotone in rho: {means:?}"
        );
        let text = sweep.to_text();
        assert!(text.contains("rho"), "{text}");
    }

    #[test]
    fn dynamic_quantum_open_run_completes() {
        let mut cfg = quick(PolicyKind::TimeSharing);
        cfg.experiment.discipline = Discipline::DynamicQuantum {
            base: SimDuration::from_millis(2),
        };
        let r = run_open_system(&cfg, 0.6).unwrap();
        assert_eq!(r.measured, 60);
        // Same seed replays identically under the dynamic discipline too.
        let again = run_open_system(&cfg, 0.6).unwrap();
        assert_eq!(r.records, again.records);
    }

    #[test]
    fn heavy_tail_demands_run_to_completion() {
        let mut cfg = quick(PolicyKind::TimeSharing);
        cfg.demand = DemandSpec::BoundedPareto {
            alpha: 1.5,
            lo: SimDuration::from_millis(4),
            hi: SimDuration::from_secs(2),
        };
        cfg.stop = StopRule::Completions(40);
        let r = run_open_system(&cfg, 0.5).unwrap();
        assert_eq!(r.measured, 40);
        let sd = r.slowdown.expect("measured");
        assert!(sd.p99 >= sd.mean);
    }
}
