//! The four workloads' inputs, generated from the seed alone.
//!
//! The program under test receives only what is built here: `JobSpec`s,
//! arrival instants and sequential demands. Nothing reads the program's own
//! random streams, so a change to the simulator cannot change its inputs.

use parsched_core::prelude::*;
use parsched_des::{SimDuration, SimTime};
use parsched_machine::{JobSpec, Op, ProcSpec, Rank, Switching, Tag};
use parsched_topology::TopologyKind;
use parsched_workload::prelude::*;
use std::time::{Duration, Instant};

/// Workload names, in the order `--workload all` runs them.
pub const WORKLOADS: [&str; 4] = ["paper16", "worm4k", "saf64k", "open16"];

/// Full size for measurement; tiny for the debug-build smoke test.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    Full,
    #[cfg_attr(not(test), allow(dead_code))]
    Tiny,
}

/// SplitMix64: small, seedable and independent of the simulator's RNG.
pub struct Rng(u64);

impl Rng {
    /// A stream for `label` under `seed`; distinct labels give unrelated
    /// streams.
    pub fn new(seed: u64, label: &str) -> Rng {
        Rng(seed ^ fnv(FNV_OFFSET, label.as_bytes()))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (the modulo bias is below 2^-50 for these `n`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            let j = self.below(i as u64 + 1) as usize;
            v.swap(i, j);
        }
    }

    /// `n` draws of the distribution with inverse CDF `inv`, one from each
    /// of `n` equal-probability strata, in random order. Every seed then
    /// gets nearly the same multiset of values, so host cost varies little
    /// from seed to seed while the order, and with it the schedule, varies.
    pub fn stratified(&mut self, n: usize, inv: impl Fn(f64) -> f64) -> Vec<f64> {
        let mut v: Vec<f64> = (0..n)
            .map(|i| inv((i as f64 + self.unit()) / n as f64))
            .collect();
        self.shuffle(&mut v);
        v
    }
}

pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// FNV-1a over `bytes`, continuing from `h`.
pub fn fnv(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// FNV-1a over a sequence of words.
pub fn fnv_words(words: impl IntoIterator<Item = u64>) -> u64 {
    words
        .into_iter()
        .fold(FNV_OFFSET, |h, w| fnv(h, &w.to_le_bytes()))
}

/// One cell of a workload: inputs plus the public entry point they go
/// through.
pub struct Cell {
    pub label: String,
    pub input: Input,
}

pub enum Input {
    /// `run_batch`.
    Batch {
        cfg: ExperimentConfig,
        batch: Vec<JobSpec>,
    },
    /// `run_batch_sharded(cfg, batch, default_shards(&cfg))`.
    Sharded {
        cfg: ExperimentConfig,
        batch: Vec<JobSpec>,
    },
    /// `run_open_stream`.
    Open {
        cfg: OpenConfig,
        times: Vec<SimTime>,
        demands: Vec<SimDuration>,
    },
}

/// What one front-door call returned, reduced to what the benchmark checks
/// and reports.
pub struct Done {
    /// Digest of the simulated result (see [`Input::call`]).
    pub digest: u64,
    /// Shards the call used (1 unless the sharded entry point split it).
    pub shards: usize,
    /// Largest per-shard busy time (work + barrier + merge); zero when the
    /// run did not shard.
    pub shard_busy: Duration,
    /// Summed per-shard (work, barrier, merge) time.
    pub shard_split: [Duration; 3],
}

impl Input {
    pub fn experiment(&self) -> &ExperimentConfig {
        match self {
            Input::Batch { cfg, .. } | Input::Sharded { cfg, .. } => cfg,
            Input::Open { cfg, .. } => &cfg.experiment,
        }
    }

    /// Digest of the inputs as the program receives them.
    pub fn digest(&self) -> u64 {
        let text = match self {
            Input::Batch { cfg, batch } | Input::Sharded { cfg, batch } => {
                format!("{cfg:?}{batch:?}")
            }
            Input::Open {
                cfg,
                times,
                demands,
            } => format!("{cfg:?}{times:?}{demands:?}"),
        };
        fnv(FNV_OFFSET, text.as_bytes())
    }

    /// Call the workload's public entry point on a fresh copy of the
    /// inputs, timing the call alone (copying inputs and digesting the
    /// result stay outside the clock).
    ///
    /// The digest covers every simulated observable the entry point
    /// returns: response times and makespan everywhere; events and the
    /// integer machine statistics for `run_batch`; the crate's own
    /// fingerprint (which adds the counters) for `run_batch_sharded`; and
    /// every job record for `run_open_stream`.
    pub fn call(&self) -> (Duration, Result<Done, RunError>) {
        let plain = |digest| Done {
            digest,
            shards: 1,
            shard_busy: Duration::ZERO,
            shard_split: [Duration::ZERO; 3],
        };
        match self {
            Input::Batch { cfg, batch } => {
                let batch = batch.clone();
                let t = Instant::now();
                let r = run_batch(cfg, batch);
                let dt = t.elapsed();
                (dt, r.map(|r| plain(digest_run(&r))))
            }
            Input::Sharded { cfg, batch } => {
                let batch = batch.clone();
                let shards = default_shards(cfg);
                let t = Instant::now();
                let r = run_batch_sharded(cfg, batch, shards);
                let dt = t.elapsed();
                (
                    dt,
                    r.map(|r| {
                        let ns = |n: u64| Duration::from_nanos(n);
                        let busy = r
                            .timings
                            .iter()
                            .map(|t| ns(t.work_ns + t.barrier_ns + t.merge_ns))
                            .max()
                            .unwrap_or(Duration::ZERO);
                        let mut split = [Duration::ZERO; 3];
                        for t in &r.timings {
                            split[0] += ns(t.work_ns);
                            split[1] += ns(t.barrier_ns);
                            split[2] += ns(t.merge_ns);
                        }
                        Done {
                            digest: r.fingerprint(),
                            shards: r.shards,
                            shard_busy: busy,
                            shard_split: split,
                        }
                    }),
                )
            }
            Input::Open {
                cfg,
                times,
                demands,
            } => {
                let (times, demands) = (times.clone(), demands.clone());
                let t = Instant::now();
                let r = run_open_stream(cfg, times, demands);
                let dt = t.elapsed();
                (dt, r.map(|r| plain(digest_open(&r))))
            }
        }
    }
}

pub fn digest_run(r: &RunResult) -> u64 {
    let s = &r.stats;
    fnv_words(
        r.response_times
            .iter()
            .map(|d| d.nanos())
            .chain([r.makespan.nanos(), r.events])
            .chain([
                s.ctx_switches,
                s.handler_runs,
                s.quantum_expiries,
                s.preemptions,
                s.link_bytes,
                s.peak_mem_used,
                s.mmu_delayed_grants,
                s.mmu_total_wait.nanos(),
                s.messages_sent,
                s.messages_consumed,
                s.hop_transfers,
                s.send_blocks,
                s.jobs_completed,
            ]),
    )
}

pub fn digest_open(r: &OpenRunResult) -> u64 {
    fnv_words(
        r.records
            .iter()
            .flat_map(|j| {
                [
                    j.arrival.nanos(),
                    j.finished.map_or(u64::MAX, SimTime::nanos),
                    j.demand.nanos(),
                ]
            })
            .chain([r.end.nanos(), r.measured as u64, r.unfinished as u64]),
    )
}

/// A workload: its cells, and how many times a run calls each of them.
pub struct Workload {
    pub cells: Vec<Cell>,
    /// Passes over the cells per run. paper16's calls take a few
    /// milliseconds, so its runs make four passes to last as long as one
    /// pass of the others (tens of milliseconds); short host stalls then
    /// average out within a run instead of landing in its tail.
    pub passes: usize,
}

/// Workload `name` under `seed`, or `None` for an unknown name.
pub fn build(name: &str, seed: u64, size: Size) -> Option<Workload> {
    let (cells, passes) = match name {
        "paper16" => (paper16(seed, size), if size == Size::Full { 6 } else { 2 }),
        "worm4k" => (relay_cells(seed, size, Switching::Wormhole), 1),
        "saf64k" => (relay_cells(seed, size, Switching::StoreAndForward), 1),
        "open16" => (open16(seed, size), 1),
        _ => return None,
    };
    Some(Workload { cells, passes })
}

/// The paper's 16-node hypercube: {matmul, sort} x {static p=4, hybrid
/// (time-sharing in four 4-node partitions), time-sharing p=16}, fixed
/// architecture. The seed permutes each cell's submission order.
fn paper16(seed: u64, size: Size) -> Vec<Cell> {
    let sizes = match size {
        Size::Full => BatchSizes::default(),
        Size::Tiny => BatchSizes {
            jobs: 2,
            small_count: 1,
            mm_small: 16,
            mm_large: 24,
            sort_small: 500,
            sort_large: 1_000,
        },
    };
    let cells = [
        ("static-p4", 4, PolicyKind::Static),
        ("hybrid-p4", 4, PolicyKind::TimeSharing),
        ("ts-p16", 16, PolicyKind::TimeSharing),
    ];
    let mut out = Vec::new();
    for app in [App::MatMul, App::Sort] {
        for (cell, p, policy) in cells {
            let label = format!("{}/{cell}", app.label());
            let mut batch = paper_batch(app, Arch::Fixed, p, &sizes, &CostModel::default());
            Rng::new(seed, &label).shuffle(&mut batch);
            let cfg = ExperimentConfig::paper(p, TopologyKind::Hypercube { dim: 0 }, policy);
            out.push(Cell {
                label,
                input: Input::Batch { cfg, batch },
            });
        }
    }
    out
}

/// One relay job of `width` ranks (a power of two): a baton of `baton`
/// bytes visits every rank in `stride` order (odd, so coprime to the width
/// and the tour closes), each rank computing `ms` before passing it on. One
/// baton per job is in flight, so the run is latency-bound: per-hop
/// switching cost adds up along the whole tour.
pub fn relay_job(name: String, width: usize, stride: usize, ms: u64, baton: u64) -> JobSpec {
    let mut procs: Vec<ProcSpec> = (0..width)
        .map(|_| ProcSpec {
            program: Vec::new(),
            mem_bytes: 160_000,
        })
        .collect();
    let mut r = 0usize;
    for leg in 0..width {
        let next = (r + stride) % width;
        let tag = if next == 0 { Tag(2) } else { Tag(1) };
        if leg > 0 {
            procs[r].program.push(Op::Recv { tag: Tag(1) });
        }
        procs[r]
            .program
            .push(Op::Compute(SimDuration::from_millis(ms)));
        procs[r].program.push(Op::Send {
            to: Rank(next as u32),
            bytes: baton,
            tag,
        });
        r = next;
    }
    procs[0].program.push(Op::Recv { tag: Tag(2) });
    JobSpec {
        name,
        ship_bytes: 200_000,
        procs,
    }
}

/// The relay family on three interconnects, one per policy class: a torus
/// of 8x8 partitions (static), `fat_tree(8)` partitions (hybrid MPL 2) and
/// `dragonfly(4,3,1)` partitions (time-sharing). Wormhole cells run
/// sequentially at ~4k nodes through `run_batch`; store-and-forward cells
/// are tiled past 65 536 nodes and go through the sharded entry point at
/// its default shard count. The seed sets every job's stride and compute
/// time.
fn relay_cells(seed: u64, size: Size, switching: Switching) -> Vec<Cell> {
    let wormhole = switching == Switching::Wormhole;
    // Every relay partition holds at least 64 nodes.
    let (width, baton) = match size {
        Size::Full => (64, 8_192),
        Size::Tiny => (16, 2_048),
    };
    // Each job runs alone on its own partition, so host cost is the sum of
    // per-job costs. The seed deals strides and compute times out of fixed
    // sets: every seed does the same total work in a different pairing.
    let mut rng = Rng::new(seed, "relay");
    let mut strides = [9, 15, 21, 27, 33, 39, 45, 51];
    let mut millis = [3, 3, 4, 4, 5, 5, 6, 6];
    rng.shuffle(&mut strides);
    rng.shuffle(&mut millis);
    let jobs = if size == Size::Full { 8 } else { 2 };
    let batch: Vec<JobSpec> = (0..jobs)
        .map(|i| relay_job(format!("relay-{i}"), width, strides[i], millis[i], baton))
        .collect();
    let cells = [
        (
            "torus",
            TopologyKind::Torus { rows: 8, cols: 8 },
            64,
            PolicyKind::Static,
            None,
            [64, 1028],
        ),
        (
            "fattree",
            TopologyKind::FatTree { k: 8 },
            208,
            PolicyKind::TimeSharing,
            Some(2),
            [20, 316],
        ),
        (
            "dragonfly",
            TopologyKind::Dragonfly { a: 4, p: 3, h: 1 },
            80,
            PolicyKind::TimeSharing,
            None,
            [52, 824],
        ),
    ];
    cells
        .into_iter()
        .map(|(label, kind, partition, policy, mpl, parts)| {
            let parts = match size {
                Size::Full => parts[usize::from(!wormhole)],
                Size::Tiny => 4,
            };
            let mut cfg = ExperimentConfig {
                system_size: partition * parts,
                mpl,
                ..ExperimentConfig::paper(partition, kind, policy)
            };
            cfg.machine.switching = switching;
            let batch = batch.clone();
            let input = if wormhole {
                Input::Batch { cfg, batch }
            } else {
                Input::Sharded { cfg, batch }
            };
            Cell {
                label: label.to_string(),
                input,
            }
        })
        .collect()
}

/// Offered load of the open stream.
const OPEN_RHO: f64 = 0.7;
/// Bounded-Pareto demand: tail index and range (seconds).
const PARETO: (f64, f64, f64) = (1.5, 0.020, 10.0);

/// Mean of the bounded Pareto distribution on `[lo, hi]` with index `a`.
fn pareto_mean((a, lo, hi): (f64, f64, f64)) -> f64 {
    lo.powf(a) / (1.0 - (lo / hi).powf(a)) * a / (a - 1.0) * (lo.powf(1.0 - a) - hi.powf(1.0 - a))
}

/// The open system: 16 nodes as four 4-node hypercube partitions, Poisson
/// arrivals at rho = 0.7 of 4-wide fork-join jobs with bounded-Pareto
/// demand, under static, time-sharing and dynamic-quantum (2 ms) policies.
/// All three cells see the same stream.
fn open16(seed: u64, size: Size) -> Vec<Cell> {
    let (warmup, measured) = match size {
        Size::Full => (200, 2_000),
        Size::Tiny => (5, 20),
    };
    let n = warmup + measured;
    let (a, lo, hi) = PARETO;
    let mean_ia = pareto_mean(PARETO) / (OPEN_RHO * 16.0);
    let mut rng = Rng::new(seed, "open");
    let demands: Vec<SimDuration> = rng
        .stratified(n, |u| {
            lo / (1.0 - u * (1.0 - (lo / hi).powf(a))).powf(1.0 / a)
        })
        .into_iter()
        .map(SimDuration::from_secs_f64)
        .collect();
    let mut at = 0.0;
    let times: Vec<SimTime> = rng
        .stratified(n, |u| -mean_ia * (1.0 - u).ln())
        .into_iter()
        .map(|gap| {
            at += gap;
            SimTime::ZERO + SimDuration::from_secs_f64(at)
        })
        .collect();
    let policies = [
        ("static", PolicyKind::Static, Discipline::Uncoordinated),
        ("ts", PolicyKind::TimeSharing, Discipline::Uncoordinated),
        (
            "dynq",
            PolicyKind::TimeSharing,
            Discipline::DynamicQuantum {
                base: SimDuration::from_millis(2),
            },
        ),
    ];
    policies
        .into_iter()
        .map(|(label, policy, discipline)| {
            let mut exp = ExperimentConfig::paper(4, TopologyKind::Hypercube { dim: 0 }, policy);
            exp.discipline = discipline;
            let mut cfg = OpenConfig::new(exp, seed);
            cfg.params.width = 4;
            cfg.params.msg_bytes = 1024;
            cfg.warmup = warmup;
            cfg.stop = StopRule::Completions(measured);
            Cell {
                label: label.to_string(),
                input: Input::Open {
                    cfg,
                    times: times.clone(),
                    demands: demands.clone(),
                },
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generators_are_deterministic_per_seed_and_differ_across_seeds() {
        for name in WORKLOADS {
            let digests = |seed| -> Vec<u64> {
                build(name, seed, Size::Tiny)
                    .expect("known workload")
                    .cells
                    .iter()
                    .map(|v| v.input.digest())
                    .collect()
            };
            assert_eq!(digests(7), digests(7), "{name}");
            assert_ne!(digests(7), digests(8), "{name}");
        }
        assert!(build("nope", 1, Size::Tiny).is_none());
    }

    #[test]
    fn relay_jobs_are_balanced() {
        for (size, width) in [(Size::Full, 64), (Size::Tiny, 16)] {
            for seed in 0..4 {
                for v in relay_cells(seed, size, Switching::Wormhole) {
                    let Input::Batch { batch, .. } = &v.input else {
                        unreachable!("wormhole relay cells go through run_batch")
                    };
                    for job in batch {
                        job.check_balanced()
                            .expect("relay message pattern balances");
                        assert_eq!(job.width(), width);
                    }
                }
            }
        }
    }

    #[test]
    fn relay_machines_have_the_advertised_sizes() {
        let sizes = |switching| -> Vec<usize> {
            relay_cells(1, Size::Full, switching)
                .iter()
                .map(|v| v.input.experiment().system_size)
                .collect()
        };
        assert_eq!(sizes(Switching::Wormhole), [4096, 4160, 4160]);
        assert_eq!(sizes(Switching::StoreAndForward), [65_792, 65_728, 65_920]);
    }

    #[test]
    fn open_stream_offers_the_target_load() {
        let v = open16(3, Size::Full);
        let Input::Open { times, demands, .. } = &v[0].input else {
            unreachable!("open cells are streams")
        };
        let work: f64 = demands.iter().map(|d| d.as_secs_f64()).sum();
        let span = times.last().expect("non-empty").as_secs_f64();
        let rho = work / (span * 16.0);
        assert!((rho - OPEN_RHO).abs() < 0.05, "offered load {rho}");
        assert!(times.windows(2).all(|w| w[0] <= w[1]));
        let (_, lo, hi) = PARETO;
        assert!(demands.iter().all(|d| (lo..=hi).contains(&d.as_secs_f64())));
    }
}
