//! Seeded random scenario generation.
//!
//! A [`Scenario`] is everything needed to reproduce one differential case:
//! the experiment configuration (topology × partition size × policy ×
//! machine variation) and the workload (application × software
//! architecture × batch mix × arrival process). Scenarios derive from a
//! `(seed, case)` pair through labelled [`DetRng`] substreams, so a
//! failure report carrying those two numbers replays bit-exactly — see
//! [`Scenario::describe`] for the replay instructions it prints.
//!
//! The four paper topologies, the three policy classes (static
//! space-sharing, pure time-sharing of the whole machine, hybrid
//! time-sharing over sub-partitions), both applications, and both software
//! architectures are covered *by construction*: case `i` takes combination
//! `i mod 48` of that cross product, and only the remaining knobs
//! (partition size, batch mix, switching, placement,
//! discipline, ordering, arrivals) are randomized.

use parsched_arrivals::{
    ArrivalProcess, BoundedParetoDemand, DeterministicArrivals, PoissonArrivals, ServiceDemand,
};
use parsched_core::{Discipline, ExperimentConfig, Placement, PolicyKind};
use parsched_des::rng::DetRng;
use parsched_des::{SimDuration, SimTime};
use parsched_machine::{FaultPlan, JobSpec, LinkWindow, NodeCrash, RetryPolicy, Switching};
use parsched_topology::TopologyKind;
use parsched_workload::{
    paper_batch, pipeline_job, App, Arch, BatchSizes, CostModel, PipelineParams,
};

/// The three scheduling strategies the paper compares (§4): its "static"
/// and "time-sharing" policy kinds, with time-sharing split by whether it
/// runs over the whole machine or over sub-partitions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PolicyClass {
    /// Static space-sharing: one job per partition, run to completion.
    Static,
    /// Pure time-sharing: one whole-machine partition, RR-job quanta.
    PureTs,
    /// Hybrid: time-sharing within partitions smaller than the machine.
    Hybrid,
}

impl PolicyClass {
    /// The driver-level policy this class maps to.
    pub fn policy(self) -> PolicyKind {
        match self {
            PolicyClass::Static => PolicyKind::Static,
            PolicyClass::PureTs | PolicyClass::Hybrid => PolicyKind::TimeSharing,
        }
    }
}

/// Batch submission orderings (mirrors `parsched_core::BatchOrder`, which
/// the generator picks among uniformly).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Order {
    /// As generated.
    AsGiven,
    /// Ascending demand.
    SmallestFirst,
    /// Descending demand.
    LargestFirst,
}

/// One fully-specified differential case.
#[derive(Debug, Clone)]
pub struct Scenario {
    /// Case index under `seed` (selects the covered cross-product cell).
    pub case: u64,
    /// Root seed of the sweep this case belongs to.
    pub seed: u64,
    /// Partition interconnect.
    pub topology: TopologyKind,
    /// Total processors. 16 (the paper's machine) except for wormhole
    /// cases on fat-tree/dragonfly partitions, whose geometry dictates
    /// the node count.
    pub system_size: usize,
    /// Processors per partition.
    pub partition_size: usize,
    /// Which of the paper's three strategies.
    pub class: PolicyClass,
    /// Application (matmul / sort).
    pub app: App,
    /// Software architecture (fixed 16 processes / adaptive).
    pub arch: Arch,
    /// Batch composition.
    pub sizes: BatchSizes,
    /// Submission ordering.
    pub order: Order,
    /// Message switching scheme.
    pub switching: Switching,
    /// Time-sharing coordination discipline.
    pub discipline: Discipline,
    /// Process-to-processor mapping.
    pub placement: Placement,
    /// Per-partition MPL override.
    pub mpl: Option<usize>,
    /// Per-job arrival instants (empty = closed batch at t = 0).
    pub arrivals: Vec<SimTime>,
    /// Declared fault schedule (empty for roughly two cases in three).
    pub faults: FaultPlan,
    /// Shard count for the conservative-parallel runner (1 = sequential;
    /// drawn > 1 for roughly one closed-batch case in three). The
    /// differential harness re-runs such cases sharded and demands
    /// bit-identical observables.
    pub shards: usize,
    /// Replace the paper batch with `sizes.jobs` single-wave pipelines (a
    /// baton relayed through every rank of a partition, one message in
    /// flight per job), which keeps the wormhole express path busy.
    pub relay: Option<PipelineParams>,
}

/// Partition sizes realizable for each paper topology on the 16-node
/// machine (a 2-node ring or mesh degenerates, so those start at 4).
fn valid_sizes(topo_idx: usize) -> &'static [usize] {
    match topo_idx {
        0 => &[1, 2, 4, 8, 16], // linear
        _ => &[4, 8, 16],       // ring, mesh, hypercube
    }
}

fn pick<T: Copy>(rng: &mut DetRng, xs: &[T]) -> T {
    xs[rng.uniform_u64(0, xs.len() as u64) as usize]
}

impl Scenario {
    /// Derive case `case` of the sweep rooted at `seed`.
    pub fn generate(seed: u64, case: u64) -> Scenario {
        let mut rng = DetRng::new(seed).substream_idx("oracle-scenario", case);

        // Covered cross product: topology (4) x policy class (3) x
        // application (2) x architecture (2) = 48 cells, visited round
        // robin by case index so any sweep of >= 48 cases covers them all.
        let cell = case % 48;
        let topo_idx = (cell % 4) as usize;
        let class = [
            PolicyClass::Static,
            PolicyClass::PureTs,
            PolicyClass::Hybrid,
        ][(cell / 4 % 3) as usize];
        let app = [App::MatMul, App::Sort][(cell / 12 % 2) as usize];
        let arch = [Arch::Fixed, Arch::Adaptive][(cell / 24) as usize];

        let topology = [
            TopologyKind::Linear,
            TopologyKind::Ring,
            TopologyKind::Mesh { rows: 0, cols: 0 },
            TopologyKind::Hypercube { dim: 0 },
        ][topo_idx];

        let partition_size = match class {
            PolicyClass::PureTs => 16,
            PolicyClass::Static => pick(&mut rng, valid_sizes(topo_idx)),
            PolicyClass::Hybrid => {
                let sizes: Vec<usize> = valid_sizes(topo_idx)
                    .iter()
                    .copied()
                    .filter(|&s| s < 16)
                    .collect();
                pick(&mut rng, &sizes)
            }
        };

        // Batch mix: small enough that a sweep of hundreds of cases stays
        // in test time, large enough to multiprogram every partition.
        let jobs = rng.uniform_u64(3, 7) as usize;
        let sizes = BatchSizes {
            jobs,
            small_count: rng.uniform_u64(0, jobs as u64 + 1) as usize,
            // Matrices must split over up to 16 processes (n >= width).
            mm_small: rng.uniform_u64(16, 29) as usize,
            mm_large: rng.uniform_u64(32, 57) as usize,
            sort_small: rng.uniform_u64(300, 1201) as usize,
            sort_large: rng.uniform_u64(1500, 4001) as usize,
        };

        let order = pick(
            &mut rng,
            &[Order::AsGiven, Order::SmallestFirst, Order::LargestFirst],
        );
        let switching = pick(
            &mut rng,
            &[Switching::PacketizedSaf, Switching::StoreAndForward],
        );
        let placement = pick(&mut rng, &[Placement::RoundRobin, Placement::Staggered]);

        // Gang slots and MPL bounds only make sense under time-sharing.
        let time_sharing = class != PolicyClass::Static;
        let discipline = if time_sharing && rng.uniform_u64(0, 4) == 0 {
            Discipline::Gang {
                slot: SimDuration::from_millis(rng.uniform_u64(2, 9)),
            }
        } else {
            Discipline::Uncoordinated
        };
        let mpl = if time_sharing && rng.uniform_u64(0, 3) == 0 {
            Some(rng.uniform_u64(2, 4) as usize)
        } else {
            None
        };

        // One case in three runs open. Arrival instants come from the
        // arrivals crate's samplers on a dedicated substream: Poisson,
        // deterministic-rate, or bursty bounded-Pareto gaps. The main
        // stream draws only the gate, the process kind, and one shape
        // parameter — all inside the gate — so closed-batch cases keep
        // the exact draw sequence of earlier sweeps, and open cases
        // consume a fixed number of main-stream draws regardless of
        // batch size. FCFS order = index order by construction (every
        // process yields nondecreasing instants).
        let arrivals = if rng.uniform_u64(0, 3) == 0 {
            let kind = rng.uniform_u64(0, 3);
            let period_ms = rng.uniform_u64(4, 17); // ignored unless kind 1
            let arng = DetRng::new(seed).substream_idx("oracle-arrivals", case);
            match kind {
                0 => PoissonArrivals::new(SimDuration::from_millis(10), arng).take_arrivals(jobs),
                1 => DeterministicArrivals::new(SimDuration::from_millis(period_ms))
                    .take_arrivals(jobs),
                _ => {
                    // Bursty stream: heavy-tailed interarrival gaps.
                    let mut gaps = BoundedParetoDemand::new(
                        1.5,
                        SimDuration::from_millis(1),
                        SimDuration::from_millis(80),
                        arng,
                    );
                    let mut at = SimTime::ZERO;
                    (0..jobs)
                        .map(|_| {
                            at += gaps.sample();
                            at
                        })
                        .collect()
                }
            }
        } else {
            Vec::new()
        };

        // Fault plan (~one case in three): crash recovery, link outages and
        // corrupt-retry must be bit-identical across engines too. Drawn
        // *after* every other knob so fault-free scenarios keep the exact
        // draws (and thus behavior) of a sweep without fault coverage.
        let faults = if rng.uniform_u64(0, 3) == 0 {
            let mut plan = FaultPlan {
                // Generous budget: with drop_prob <= 8% the chance of a
                // message exhausting 16 retries is ~1e-18, so randomized
                // sweeps never fail a job permanently by bad luck.
                retry: RetryPolicy {
                    max_retries: 16,
                    ..RetryPolicy::default()
                },
                ..FaultPlan::default()
            };
            // One fail-stop crash, only when the partition keeps survivors
            // for the requeued job to land on.
            if partition_size >= 2 && rng.uniform_u64(0, 2) == 0 {
                plan.crashes.push(NodeCrash {
                    node: rng.uniform_u64(0, 16) as u32,
                    at: SimTime(rng.uniform_u64(1, 61) * 1_000_000), // 1..60 ms
                });
            }
            // Flaky links on (2k, 2k+1) pairs — adjacent in every paper
            // topology when both ends share a partition; pairs that are
            // not wired are ignored by the machine, so every draw is safe.
            for _ in 0..rng.uniform_u64(0, 3) {
                let pair = rng.uniform_u64(0, 8) as u32;
                let down = rng.uniform_u64(0, 21) * 1_000_000;
                let dur = rng.uniform_u64(1, 11) * 1_000_000;
                plan.links.push(LinkWindow {
                    from: 2 * pair,
                    to: 2 * pair + 1,
                    down_at: SimTime(down),
                    up_at: SimTime(down + dur),
                });
            }
            // Mild per-hop corruption through a dedicated seeded stream.
            if rng.uniform_u64(0, 2) == 0 {
                plan.drop_prob = rng.uniform_u64(1, 9) as f64 / 100.0;
                plan.drop_seed = rng.uniform_u64(0, u64::MAX);
            }
            // Occasionally arm the delivery timeout. The value must clear
            // the *congested* delivery tail, not just the longest outage: a
            // timeout below it marks attempts stale faster than they can
            // complete, and the owning job requeues and fails forever (a
            // 250 ms draw livelocked 16-node linear SAF matmul cases). At
            // 10 s it never fires here — the sweep's coverage is the
            // per-attempt arm/cancel timer churn staying bit-identical
            // across engines; unit tests cover the firing paths.
            if rng.uniform_u64(0, 3) == 0 {
                plan.retry.msg_timeout = Some(SimDuration::from_millis(10_000));
            }
            plan
        } else {
            FaultPlan::default()
        };

        // Sharded execution (~one closed-batch case in three): the
        // conservative-parallel runner must reproduce the sequential
        // observables bit-for-bit at any shard count — including via its
        // sequential fallback when the configuration is ineligible. Drawn
        // after every other knob so earlier draws stay stable.
        let shards = if arrivals.is_empty() && rng.uniform_u64(0, 3) == 0 {
            pick(&mut rng, &[2usize, 4, 8])
        } else {
            1
        };

        // Dynamic-quantum discipline (~one uncoordinated time-sharing
        // case in four): the per-partition quantum retunes to the mean
        // remaining demand at every membership change. Drawn after every
        // other knob so earlier draws stay stable; a sharded draw stays
        // valid — the runner's eligibility gate rejects the discipline
        // and its sequential fallback must match bit for bit like any
        // other ineligible case.
        let discipline = if time_sharing
            && matches!(discipline, Discipline::Uncoordinated)
            && rng.uniform_u64(0, 4) == 0
        {
            Discipline::DynamicQuantum {
                base: SimDuration::from_millis(rng.uniform_u64(1, 5)),
            }
        } else {
            discipline
        };

        // Wormhole interconnect draws (~one case in three): flit-level
        // switching over the topologies whose escape classes earn their
        // keep — torus (dateline VCs), fat-tree (up/down turn class) and
        // dragonfly (global-phase classes). The machine size follows the
        // partition geometry: fat-tree and dragonfly partitions are not
        // 16-node, so pure time-sharing gets one whole-fabric partition
        // and the space-sharing classes get two. Drawn after every other
        // knob so earlier sweeps keep their exact draw sequences.
        let mut system_size = 16;
        let mut topology = topology;
        let mut partition_size = partition_size;
        let mut switching = switching;
        let mut faults = faults;
        let mut arch = arch;
        if rng.uniform_u64(0, 3) == 0 {
            switching = Switching::Wormhole;
            let whole = class == PolicyClass::PureTs;
            match rng.uniform_u64(0, 3) {
                0 => {
                    topology = TopologyKind::Torus { rows: 0, cols: 0 };
                    partition_size = if whole {
                        16
                    } else {
                        pick(&mut rng, &[4usize, 8])
                    };
                }
                1 => {
                    topology = TopologyKind::FatTree { k: 2 };
                    partition_size = 7;
                    system_size = if whole { 7 } else { 14 };
                }
                _ => {
                    topology = TopologyKind::Dragonfly { a: 2, p: 1, h: 1 };
                    partition_size = 12;
                    system_size = if whole { 12 } else { 24 };
                }
            }
            // The fault draws above assumed the 16-node machine; keep
            // only the declared events whose nodes exist on this one
            // (non-adjacent survivors are ignored by the machine as
            // always).
            faults.crashes.retain(|c| (c.node as usize) < system_size);
            faults
                .links
                .retain(|w| (w.from as usize) < system_size && (w.to as usize) < system_size);
            // Sort's divide-and-conquer tree needs a power-of-two process
            // count, and the adaptive architecture sets it to the partition
            // size — which the 7-host fat-tree and 12-node dragonfly break.
            // Those cells fall back to the fixed 16-process architecture,
            // which runs on a partition of any size (§4.3).
            if app == App::Sort && !partition_size.is_power_of_two() {
                arch = Arch::Fixed;
            }
        }

        // Node-index widening (one case in 24): stretch the same scenario
        // onto a machine crossing the old 65 536-node index ceiling. The
        // occupied partitions keep their exact geometry — the machine just
        // gains thousands of idle sibling partitions — so any residual
        // 16-bit index assumption (a wrap aliasing high nodes onto low
        // ones) shows up as a divergence or invariant breach end to end.
        // Pure time-sharing keeps its whole-machine single partition, so
        // only the space-sharing classes stretch. Drawn last so earlier
        // sweeps keep their exact draw sequences.
        if class != PolicyClass::PureTs && rng.uniform_u64(0, 24) == 0 {
            system_size = 65_537usize.div_ceil(partition_size) * partition_size;
        }

        // Relay batches (~one wormhole case in three): with one message in
        // flight per job, most worms cross a quiescent partition and take
        // the express path. Unsharded time-sharing relays arrive one every
        // 60-200 ms — longer than a job load, shorter than load plus run —
        // so jobs land on partitions whose lone resident job has a worm in
        // flight, which materializes the express worm back into flit
        // state. Drawn last so earlier sweeps keep their exact draw
        // sequences.
        let relay = (switching == Switching::Wormhole && rng.uniform_u64(0, 3) == 0).then(|| {
            PipelineParams {
                stages: partition_size,
                waves: 1,
                wave_bytes: rng.uniform_u64(1, 33) * 512,
                stage_work: SimDuration::from_millis(rng.uniform_u64(1, 6)),
            }
        });
        let arrivals = if relay.is_some() && time_sharing && shards == 1 {
            DeterministicArrivals::new(SimDuration::from_millis(rng.uniform_u64(60, 201)))
                .take_arrivals(jobs)
        } else {
            arrivals
        };

        Scenario {
            case,
            seed,
            topology,
            system_size,
            partition_size,
            class,
            app,
            arch,
            sizes,
            order,
            switching,
            discipline,
            placement,
            mpl,
            arrivals,
            faults,
            shards,
            relay,
        }
    }

    /// The experiment configuration this scenario runs under.
    pub fn config(&self) -> ExperimentConfig {
        let mut config =
            ExperimentConfig::paper(self.partition_size, self.topology, self.class.policy());
        config.system_size = self.system_size;
        config.machine.switching = self.switching;
        config.discipline = self.discipline;
        config.placement = self.placement;
        config.mpl = self.mpl;
        config.machine.faults = self.faults.clone();
        config
    }

    /// The (ordered) batch this scenario submits.
    pub fn batch(&self) -> Vec<JobSpec> {
        let cost = CostModel::default();
        let batch = match &self.relay {
            Some(params) => (0..self.sizes.jobs)
                .map(|i| pipeline_job(format!("relay-{i}"), params, &cost))
                .collect(),
            None => paper_batch(self.app, self.arch, self.partition_size, &self.sizes, &cost),
        };
        let order = match self.order {
            Order::AsGiven => parsched_core::BatchOrder::AsGiven,
            Order::SmallestFirst => parsched_core::BatchOrder::SmallestFirst,
            Order::LargestFirst => parsched_core::BatchOrder::LargestFirst,
        };
        parsched_core::order_batch(batch, order)
    }

    /// A self-contained description: every knob plus how to replay this
    /// exact case from its `(seed, case)` pair.
    pub fn describe(&self) -> String {
        format!(
            "oracle scenario case={case} seed={seed:#x}\n\
             topology={topology:?} system_size={n} partition_size={p} class={class:?}\n\
             app={app:?} arch={arch:?} sizes={sizes:?}\n\
             order={order:?} switching={switching:?}\n\
             discipline={discipline:?} placement={placement:?} mpl={mpl:?} \
             shards={shards}\n\
             arrivals={arrivals:?}\n\
             faults={faults:?}\n\
             relay={relay:?}\n\
             replay: ORACLE_SEED={seed:#x} ORACLE_ONLY_CASE={case} \
             cargo test -p parsched-oracle --test differential -- --include-ignored --nocapture",
            case = self.case,
            seed = self.seed,
            topology = self.topology,
            n = self.system_size,
            p = self.partition_size,
            class = self.class,
            app = self.app,
            arch = self.arch,
            sizes = self.sizes,
            order = self.order,
            switching = self.switching,
            discipline = self.discipline,
            placement = self.placement,
            mpl = self.mpl,
            shards = self.shards,
            arrivals = self.arrivals,
            faults = self.faults,
            relay = self.relay,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        for case in 0..16 {
            let a = Scenario::generate(0xABCD, case);
            let b = Scenario::generate(0xABCD, case);
            assert_eq!(a.describe(), b.describe());
            assert_eq!(a.batch().len(), b.batch().len());
        }
    }

    #[test]
    fn sweeps_cover_the_cross_product() {
        use std::collections::HashSet;
        // The wormhole draw (~1/3 of cases) replaces a case's topology
        // (and, for sort cells on non-power-of-two partitions, flips the
        // architecture to fixed), so per-cell topology coverage needs two
        // passes over the 48-cell round robin; the policy x app x arch
        // product survives a pass with high probability and is pinned by
        // the fixed seed.
        let mut paper_cells = HashSet::new();
        let mut workload_cells = HashSet::new();
        for case in 0..96 {
            let s = Scenario::generate(1, case);
            if case < 48 {
                workload_cells.insert((
                    s.class.policy() == PolicyKind::Static,
                    s.class == PolicyClass::Hybrid,
                    format!("{:?}", s.app),
                    format!("{:?}", s.arch),
                ));
            }
            if s.switching != Switching::Wormhole {
                paper_cells.insert((
                    format!("{:?}", s.topology),
                    s.class.policy() == PolicyKind::Static,
                    s.class == PolicyClass::Hybrid,
                    format!("{:?}", s.app),
                    format!("{:?}", s.arch),
                ));
            }
        }
        assert_eq!(workload_cells.len(), 12, "workload product not covered");
        // 48 cells, each surviving a pass with probability 2/3: two passes
        // leave a handful uncovered — demand the bulk, deterministically
        // pinned by the fixed seed.
        assert!(
            paper_cells.len() >= 40,
            "paper cross product too sparse: {}",
            paper_cells.len()
        );
    }

    #[test]
    fn partition_plans_are_always_realizable() {
        for case in 0..96 {
            let s = Scenario::generate(7, case);
            let plan = s
                .config()
                .try_plan()
                .unwrap_or_else(|e| panic!("case {case}: unrealizable partitioning: {e}"));
            assert_eq!(plan.system_size, s.system_size);
            if s.switching != Switching::Wormhole {
                assert!(
                    s.system_size == 16 || s.system_size > 65_536,
                    "non-wormhole cases are 16-node or stretched past the \
                     old u16 ceiling, got {}",
                    s.system_size
                );
            }
        }
    }

    #[test]
    fn wormhole_draws_cover_the_new_interconnects() {
        use std::collections::HashSet;
        let mut wormhole = 0;
        let mut kinds = HashSet::new();
        for case in 0..96 {
            let s = Scenario::generate(7, case);
            if s.switching != Switching::Wormhole {
                assert!(s.system_size == 16 || s.system_size > 65_536);
                continue;
            }
            wormhole += 1;
            match s.topology {
                TopologyKind::Torus { .. } => {
                    kinds.insert("torus");
                    assert!(s.system_size == 16 || s.system_size > 65_536);
                    assert!([4, 8, 16].contains(&s.partition_size));
                }
                TopologyKind::FatTree { k: 2 } => {
                    kinds.insert("fat-tree");
                    assert_eq!(s.partition_size, 7);
                    assert!([7, 14].contains(&s.system_size) || s.system_size > 65_536);
                }
                TopologyKind::Dragonfly { a: 2, p: 1, h: 1 } => {
                    kinds.insert("dragonfly");
                    assert_eq!(s.partition_size, 12);
                    assert!([12, 24].contains(&s.system_size) || s.system_size > 65_536);
                }
                other => panic!("wormhole case drew topology {other:?}"),
            }
            // Whole-machine time-sharing really is whole-machine.
            if s.class == PolicyClass::PureTs {
                assert_eq!(s.partition_size, s.system_size);
            }
            // Resized machines keep only fault events their nodes cover.
            for c in &s.faults.crashes {
                assert!((c.node as usize) < s.system_size);
            }
            for l in &s.faults.links {
                assert!((l.from as usize) < s.system_size);
                assert!((l.to as usize) < s.system_size);
            }
        }
        // ~1 in 3 of 96 cases; generous slack.
        assert!((16..=50).contains(&wormhole), "wormhole cases: {wormhole}");
        assert_eq!(kinds.len(), 3, "missing interconnects: {kinds:?}");
    }

    #[test]
    fn shard_draws_cover_closed_batches() {
        let mut sharded = 0;
        for case in 0..96 {
            let s = Scenario::generate(7, case);
            if s.shards > 1 {
                assert!(s.arrivals.is_empty(), "sharded draw on an open case");
                assert!([2, 4, 8].contains(&s.shards), "bad count {}", s.shards);
                assert!(s.describe().contains("shards="));
                sharded += 1;
            }
        }
        // ~2/9 of 96 cases (closed × drawn); generous slack.
        assert!((10..=45).contains(&sharded), "sharded cases: {sharded}");
    }

    #[test]
    fn open_cases_draw_sampler_arrival_streams() {
        let mut open = 0;
        let mut deterministic = 0;
        for case in 0..192 {
            let s = Scenario::generate(7, case);
            if s.arrivals.is_empty() {
                continue;
            }
            open += 1;
            assert_eq!(s.arrivals.len(), s.sizes.jobs);
            assert!(s.arrivals[0] > SimTime::ZERO, "arrival races t = 0");
            assert!(
                s.arrivals.windows(2).all(|w| w[0] <= w[1]),
                "arrivals not FCFS-ordered: {:?}",
                s.arrivals
            );
            let gaps: Vec<u64> = s
                .arrivals
                .windows(2)
                .map(|w| w[1].nanos() - w[0].nanos())
                .collect();
            if gaps.len() > 1 && gaps.windows(2).all(|g| g[0] == g[1]) {
                deterministic += 1;
            }
        }
        // ~1 in 3 of 192 cases; generous slack.
        assert!((40..=90).contains(&open), "open cases: {open}");
        // All three process kinds must appear; the deterministic one is
        // the only one detectable from the instants alone.
        assert!(deterministic >= 1, "no deterministic-rate stream drawn");
        assert!(open > deterministic, "no randomized stream drawn");
    }

    #[test]
    fn dynamic_quantum_cases_are_drawn_under_time_sharing_only() {
        let mut dynq = 0;
        for case in 0..96 {
            let s = Scenario::generate(7, case);
            if let Discipline::DynamicQuantum { base } = s.discipline {
                assert!(s.class != PolicyClass::Static, "dynq on static policy");
                assert!(base > SimDuration::ZERO);
                dynq += 1;
            }
        }
        // 2/3 time-sharing x ~3/4 uncoordinated x 1/4 flip ≈ 12 of 96.
        assert!((4..=28).contains(&dynq), "dynamic-quantum cases: {dynq}");
    }

    #[test]
    fn fault_plans_are_drawn_and_well_formed() {
        let mut faulty = 0;
        for case in 0..96 {
            let s = Scenario::generate(7, case);
            assert_eq!(s.config().machine.faults.is_empty(), s.faults.is_empty());
            if s.faults.is_empty() {
                continue;
            }
            faulty += 1;
            for c in &s.faults.crashes {
                assert!(s.partition_size >= 2, "crash without survivors");
                assert!(c.node < 16);
            }
            assert!(s.faults.crashes.len() <= 1);
            for l in &s.faults.links {
                assert!(l.up_at > l.down_at, "degenerate outage window");
            }
            assert!(s.faults.drop_prob <= 0.08);
            assert!(s.describe().contains("faults=FaultPlan"));
        }
        // ~1 in 3 of 96 cases; generous slack for the plan-empty corner.
        assert!((14..=50).contains(&faulty), "faulty cases: {faulty}");
    }
}
