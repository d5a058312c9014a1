//! Analytic validation: drive the full stack (driver + machine + engine)
//! with workloads whose steady-state behaviour queueing theory predicts in
//! closed form, and check the simulator against the formulas. This is the
//! strongest correctness evidence a simulator can offer short of the
//! original hardware.

use parsched::prelude::*;

/// Build `n` single-process jobs of the given demands, with zero memory
/// and no messaging: a pure queueing workload.
fn queueing_jobs(demands: &[f64]) -> Vec<JobSpec> {
    demands
        .iter()
        .enumerate()
        .map(|(i, &d)| JobSpec {
            name: format!("q{i}"),
            ship_bytes: 0,
            procs: vec![ProcSpec {
                program: vec![Op::Compute(SimDuration::from_secs_f64(d))],
                mem_bytes: 0,
            }],
        })
        .collect()
}

/// A single-node machine with loader/scheduling overheads zeroed, so the
/// only delays are queueing delays.
fn clean_config(policy: PolicyKind) -> ExperimentConfig {
    let mut cfg = ExperimentConfig {
        system_size: 1,
        ..ExperimentConfig::paper(1, TopologyKind::Linear, policy)
    };
    cfg.machine.job_load_latency = SimDuration::ZERO;
    cfg.machine.host_link_per_byte = SimDuration::ZERO;
    cfg.machine.ctx_switch_low = SimDuration::ZERO;
    cfg
}

/// M/D/1: Poisson arrivals, deterministic service, FCFS single server.
/// Mean response W = s + rho * s / (2 (1 - rho)).
#[test]
fn mm_style_md1_queue_matches_pollaczek_khinchine() {
    let n = 4000;
    let service = 0.010; // 10 ms
    for rho in [0.3f64, 0.6, 0.8] {
        let mut rng = DetRng::new(99).substream(&format!("md1-{rho}"));
        let arrivals = poisson_arrivals(n, SimDuration::from_secs_f64(service / rho), &mut rng);
        let batch = queueing_jobs(&vec![service; n]);
        let cfg = clean_config(PolicyKind::Static);
        let r = run_batch_with_arrivals(&cfg, batch, arrivals).expect("md1 run");
        // Drop a warmup prefix; average the rest.
        let tail = &r.response_times[n / 10..];
        let mean: f64 = tail.iter().map(|d| d.as_secs_f64()).sum::<f64>() / tail.len() as f64;
        let expect = service + rho * service / (2.0 * (1.0 - rho));
        let rel = (mean - expect).abs() / expect;
        assert!(
            rel < 0.12,
            "M/D/1 at rho={rho}: simulated {mean:.5}s vs P-K {expect:.5}s ({rel:.3} off)"
        );
    }
}

/// M/M/1: Poisson arrivals, exponential service, FCFS single server.
/// Mean response W = s / (1 - rho).
#[test]
fn mm1_queue_matches_closed_form() {
    let n = 6000;
    let service = 0.010;
    for rho in [0.4f64, 0.7] {
        let root = DetRng::new(7).substream(&format!("mm1-{rho}"));
        let mut arr_rng = root.substream("arrivals");
        let mut svc_rng = root.substream("service");
        let arrivals = poisson_arrivals(n, SimDuration::from_secs_f64(service / rho), &mut arr_rng);
        let demands: Vec<f64> = (0..n).map(|_| svc_rng.exponential(service)).collect();
        let batch = queueing_jobs(&demands);
        let cfg = clean_config(PolicyKind::Static);
        let r = run_batch_with_arrivals(&cfg, batch, arrivals).expect("mm1 run");
        let tail = &r.response_times[n / 10..];
        let mean: f64 = tail.iter().map(|d| d.as_secs_f64()).sum::<f64>() / tail.len() as f64;
        let expect = service / (1.0 - rho);
        let rel = (mean - expect).abs() / expect;
        assert!(
            rel < 0.15,
            "M/M/1 at rho={rho}: simulated {mean:.5}s vs {expect:.5}s ({rel:.3} off)"
        );
    }
}

/// Processor sharing: under time-sharing with a small quantum, the M/M/1-PS
/// mean response equals the M/M/1-FCFS mean (a classic, non-obvious
/// identity) — but the *conditional* response of short jobs is better.
#[test]
fn mm1_processor_sharing_matches_fcfs_mean() {
    let n = 4000;
    let service = 0.020;
    let rho = 0.6;
    let root = DetRng::new(21).substream("ps");
    let mut arr_rng = root.substream("arrivals");
    let mut svc_rng = root.substream("service");
    let arrivals = poisson_arrivals(n, SimDuration::from_secs_f64(service / rho), &mut arr_rng);
    let demands: Vec<f64> = (0..n).map(|_| svc_rng.exponential(service)).collect();
    let batch = queueing_jobs(&demands);
    let mut cfg = clean_config(PolicyKind::TimeSharing);
    cfg.rule = QuantumRule::RrProcess {
        quantum: SimDuration::from_micros(200), // quantum << service: ~PS
    };
    let r = run_batch_with_arrivals(&cfg, batch.clone(), arrivals.clone()).expect("ps run");
    let tail = &r.response_times[n / 10..];
    let mean: f64 = tail.iter().map(|d| d.as_secs_f64()).sum::<f64>() / tail.len() as f64;
    let expect = service / (1.0 - rho);
    let rel = (mean - expect).abs() / expect;
    assert!(
        rel < 0.15,
        "M/M/1-PS at rho={rho}: simulated {mean:.5}s vs {expect:.5}s ({rel:.3} off)"
    );
    // Conditional improvement for short jobs: the shortest-quartile jobs
    // respond faster under PS than under FCFS.
    let fcfs = run_batch_with_arrivals(&clean_config(PolicyKind::Static), batch, arrivals)
        .expect("fcfs run");
    let mut by_demand: Vec<(f64, f64, f64)> = demands
        .iter()
        .zip(&r.response_times)
        .zip(&fcfs.response_times)
        .skip(n / 10)
        .map(|((d, ps), fc)| (*d, ps.as_secs_f64(), fc.as_secs_f64()))
        .collect();
    by_demand.sort_by(|a, b| a.0.total_cmp(&b.0));
    let quartile = &by_demand[..by_demand.len() / 4];
    let ps_short: f64 = quartile.iter().map(|x| x.1).sum::<f64>() / quartile.len() as f64;
    let fcfs_short: f64 = quartile.iter().map(|x| x.2).sum::<f64>() / quartile.len() as f64;
    assert!(
        ps_short < fcfs_short,
        "short jobs must prefer PS: ps {ps_short:.5} vs fcfs {fcfs_short:.5}"
    );
}

/// Two single-node partitions under static space-sharing behave like M/D/2:
/// mean response must sit strictly between the M/D/1 response at the same
/// per-server load and the no-wait service time.
#[test]
fn two_partitions_behave_like_two_servers() {
    let n = 4000;
    let service = 0.010;
    let rho_per_server = 0.7;
    let mut rng = DetRng::new(5).substream("md2");
    // Total arrival rate = 2 x rho / s.
    let arrivals = poisson_arrivals(
        n,
        SimDuration::from_secs_f64(service / (2.0 * rho_per_server)),
        &mut rng,
    );
    let batch = queueing_jobs(&vec![service; n]);
    let mut cfg = clean_config(PolicyKind::Static);
    cfg.system_size = 2;
    let r = run_batch_with_arrivals(&cfg, batch, arrivals).expect("md2 run");
    let tail = &r.response_times[n / 10..];
    let mean: f64 = tail.iter().map(|d| d.as_secs_f64()).sum::<f64>() / tail.len() as f64;
    let md1 = service + rho_per_server * service / (2.0 * (1.0 - rho_per_server));
    assert!(
        mean > service && mean < md1,
        "M/D/2 mean {mean:.5} must lie in ({service:.5}, {md1:.5})"
    );
}

/// Sixteen single-node partitions under static space-sharing form an
/// M/M/16 queue; the simulated mean response must match Erlang-C.
#[test]
fn mm16_matches_erlang_c() {
    let n = 12_000;
    let service = 0.020;
    let m_servers = 16usize;
    let rho = 0.8; // per-server utilization
    let root = DetRng::new(3).substream("mm16");
    let mut arr_rng = root.substream("arrivals");
    let mut svc_rng = root.substream("service");
    // lambda = m * rho / s  =>  mean interarrival = s / (m * rho).
    let arrivals = poisson_arrivals(
        n,
        SimDuration::from_secs_f64(service / (m_servers as f64 * rho)),
        &mut arr_rng,
    );
    let demands: Vec<f64> = (0..n).map(|_| svc_rng.exponential(service)).collect();
    let batch = queueing_jobs(&demands);
    let mut cfg = clean_config(PolicyKind::Static);
    cfg.system_size = m_servers;
    let r = run_batch_with_arrivals(&cfg, batch, arrivals).expect("mm16 run");
    let tail = &r.response_times[n / 10..];
    let mean: f64 = tail.iter().map(|d| d.as_secs_f64()).sum::<f64>() / tail.len() as f64;

    // Erlang C: offered load a = m * rho; P(wait) = C(m, a);
    // W = s + C * s / (m (1 - rho)).
    let a = m_servers as f64 * rho;
    let mut term = 1.0; // a^k / k!
    let mut sum = 0.0;
    for k in 0..m_servers {
        if k > 0 {
            term *= a / k as f64;
        }
        sum += term;
    }
    let top = term * a / m_servers as f64 / (1.0 - rho); // a^m / m! * 1/(1-rho)
    let c = top / (sum + top);
    let expect = service + c * service / (m_servers as f64 * (1.0 - rho));
    let rel = (mean - expect).abs() / expect;
    assert!(
        rel < 0.15,
        "M/M/16 at rho={rho}: simulated {mean:.5}s vs Erlang-C {expect:.5}s ({rel:.3} off)"
    );
}
