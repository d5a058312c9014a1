//! Multi-partition cells shared by the `shards` and `scale` binaries and
//! the root `perf_goldens` test.
//!
//! The shard-scale machine is the smallest that shards: the paper's
//! 16-node hypercube partition, four times over. A 1024-node torus
//! (32 x 32, sixteen 64-node partitions) exercises the sharding classes
//! the leader coordinates, at a scale where shard parallelism has real
//! work to split: one cell per class — static space-sharing, the hybrid
//! discipline (time-sharing under an MPL cap), and time-sharing under a
//! two-crash fault plan. A 4096-node torus (64 x 64) provides a
//! smoke-size uncoordinated time-sharing case.
//!
//! The batch is a synthetic compute-bound fan-out/fan-in job family
//! rather than the paper's matmul: a 64-wide matmul's replicated B matrix
//! makes the batch host-link-bound at this scale (every load ships ~9 MB
//! through the single host link), which serializes the machine behind the
//! loader and erases the scheduling-policy differences the cells exist to
//! pin. The wide jobs ship 600 kB and compute for seconds, so partitions
//! multiprogram and the three cells pin three *different* goldens.

use parsched_core::prelude::*;
use parsched_des::{SimDuration, SimTime};
use parsched_machine::{JobSpec, NodeCrash, Op, ProcSpec, Rank, Switching, Tag};
use parsched_topology::TopologyKind;
use parsched_workload::prelude::*;

/// The shard-scale machine: 64 nodes in four 16-node hypercube partitions
/// under uncoordinated time-sharing, with the paper's fixed-architecture
/// matmul batch sized to multiprogram every partition. The 16-node paper
/// machine is a single partition and cannot shard.
pub fn shard_scale() -> (ExperimentConfig, Vec<JobSpec>) {
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

/// The three pinned 1024-node cells, one per coordinated sharding class.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Cell1k {
    /// Static space-sharing (global FCFS queue, MPL 1).
    Static,
    /// Hybrid: time-sharing capped at MPL 2.
    Hybrid,
    /// Uncapped time-sharing under a two-crash fault plan (requeues).
    FaultedTs,
}

impl Cell1k {
    /// Row-name fragment (`t1k_<label>`).
    pub fn label(self) -> &'static str {
        match self {
            Cell1k::Static => "static",
            Cell1k::Hybrid => "hybrid",
            Cell1k::FaultedTs => "faulted",
        }
    }

    /// All cells, in table order.
    pub fn all() -> [Cell1k; 3] {
        [Cell1k::Static, Cell1k::Hybrid, Cell1k::FaultedTs]
    }
}

/// One job of the wide fan-out/fan-in family: rank 0 scatters 4 kB to
/// every worker, all ranks compute (per-job and per-rank varied, so no
/// two partitions idle in lockstep), workers reply 2 kB. Explicit
/// `ship_bytes` keeps the host-link load chain (~140 ms per job) well
/// under the compute (1.5–4 s), so multiprogramming — and therefore the
/// scheduling policy — matters.
pub fn wide_job(i: usize, width: usize) -> JobSpec {
    let ms = 1_500 + (i % 7) as u64 * 400;
    let mut coord = Vec::new();
    for w in 1..width {
        coord.push(Op::Send {
            to: Rank(w as u32),
            bytes: 4_096,
            tag: Tag(1),
        });
    }
    coord.push(Op::Compute(SimDuration::from_millis(ms)));
    coord.push(Op::RecvAny {
        count: (width - 1) as u32,
        tag: Tag(2),
    });
    let mut procs = vec![ProcSpec {
        program: coord,
        mem_bytes: 96_000,
    }];
    for w in 1..width {
        procs.push(ProcSpec {
            program: vec![
                Op::Recv { tag: Tag(1) },
                Op::Compute(SimDuration::from_millis(ms / 2 + (w % 5) as u64 * 9)),
                Op::Send {
                    to: Rank(0),
                    bytes: 2_048,
                    tag: Tag(2),
                },
            ],
            mem_bytes: 64_000,
        });
    }
    JobSpec {
        name: format!("wide-{i}"),
        ship_bytes: 600_000,
        procs,
    }
}

/// A 1024-node cell: 32 x 32 torus, sixteen 64-node partitions, 32 wide
/// jobs (every partition multiprogrammed at depth 2).
pub fn torus1k(cell: Cell1k) -> (ExperimentConfig, Vec<JobSpec>) {
    let (policy, mpl) = match cell {
        Cell1k::Static => (PolicyKind::Static, None),
        Cell1k::Hybrid => (PolicyKind::TimeSharing, Some(2)),
        Cell1k::FaultedTs => (PolicyKind::TimeSharing, None),
    };
    let mut cfg = ExperimentConfig {
        system_size: 1024,
        mpl,
        ..ExperimentConfig::paper(64, TopologyKind::Torus { rows: 32, cols: 32 }, policy)
    };
    if cell == Cell1k::FaultedTs {
        // Both crashes land mid-compute (first jobs load by ~0.2 s and
        // run for seconds): each kills a running job on a different
        // shard-side of the 2/4-way cuts, so requeues cross shards.
        cfg.machine.faults.crashes = vec![
            NodeCrash {
                node: 70,
                at: SimTime(900_000_000),
            },
            NodeCrash {
                node: 900,
                at: SimTime(2_600_000_000),
            },
        ];
    }
    let batch = (0..32).map(|i| wide_job(i, 64)).collect();
    (cfg, batch)
}

/// The t4k interconnect cells (the §5.2 conjecture at scale): one
/// topology family per policy class, each runnable under wormhole and
/// store-and-forward switching. Sizes are the closest partition-tileable
/// machines to 4096 nodes each family admits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Cell4k {
    /// 4096 nodes as 64 8x8-torus partitions under static space-sharing
    /// (the leader serves queue pops).
    Torus,
    /// 4160 nodes as 20 `fat_tree(8)` partitions (208 vertices each)
    /// under the hybrid MPL-2 discipline (the leader serves queue pops).
    FatTree,
    /// 4160 nodes as 52 `dragonfly(4, 3, 1)` partitions (80 vertices
    /// each) under uncapped time-sharing (nothing to coordinate).
    Dragonfly,
}

impl Cell4k {
    /// Row-name fragment (`t4k_<label>_<switching>`).
    pub fn label(self) -> &'static str {
        match self {
            Cell4k::Torus => "torus",
            Cell4k::FatTree => "fattree",
            Cell4k::Dragonfly => "dragonfly",
        }
    }

    /// All cells, in table order.
    pub fn all() -> [Cell4k; 3] {
        [Cell4k::Torus, Cell4k::FatTree, Cell4k::Dragonfly]
    }
}

/// One job of the t4k relay family. The 1k cells' `wide_job` is
/// compute-dominated, so the scheduling policy is what its goldens pin;
/// here the response is *latency*-dominated instead: a 64 kB baton is
/// relayed through every rank in far-stride order (strides coprime to
/// the width, so each job traces a different multi-hop tour of its
/// partition), and each relay waits for the previous one. Per-hop
/// store-and-forward latency is therefore additive along the whole tour,
/// while a wormhole pipeline pays one serialization plus a flit-time per
/// link — the §5.2 contrast the t4k goldens exist to pin. Injection
/// bandwidth (which switching cannot move) stays out of the critical
/// path because only one baton per job is ever in flight.
pub fn t4k_job(i: usize, width: usize) -> JobSpec {
    let stride = 21 + 2 * (i % 5); // odd: coprime to the power-of-two width
    let ms = 3 + (i % 4) as u64;
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
            bytes: 65_536,
            tag,
        });
        r = next;
    }
    assert_eq!(r, 0, "stride must return the baton to rank 0");
    procs[0].program.push(Op::Recv { tag: Tag(2) });
    JobSpec {
        name: format!("t4k-{i}"),
        ship_bytes: 200_000,
        procs,
    }
}

/// One t4k cell under the given switching mode: the wormhole-vs-SAF
/// headline experiment. Each (cell, switching) pair pins one golden, which
/// its run at every shard count must equal bit for bit.
pub fn t4k(cell: Cell4k, switching: Switching) -> (ExperimentConfig, Vec<JobSpec>) {
    let (kind, partition, parts, policy, mpl) = match cell {
        Cell4k::Torus => (
            TopologyKind::Torus { rows: 8, cols: 8 },
            64,
            64,
            PolicyKind::Static,
            None,
        ),
        Cell4k::FatTree => (
            TopologyKind::FatTree { k: 8 },
            208,
            20,
            PolicyKind::TimeSharing,
            Some(2),
        ),
        Cell4k::Dragonfly => (
            TopologyKind::Dragonfly { a: 4, p: 3, h: 1 },
            80,
            52,
            PolicyKind::TimeSharing,
            None,
        ),
    };
    let mut cfg = ExperimentConfig {
        system_size: partition * parts,
        mpl,
        ..ExperimentConfig::paper(partition, kind, policy)
    };
    cfg.machine.switching = switching;
    let batch = (0..8).map(|i| t4k_job(i, 64)).collect();
    (cfg, batch)
}

/// The two machine sizes of the t16k/t64k cells: the scale band the
/// widened `u32` node index space opened up.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScalePoint {
    /// ~16k processors (16 384 / 16 640 / 16 640 by family).
    T16k,
    /// ~64k processors. Every family's size deliberately *crosses* the
    /// old 65 536-node ceiling (65 792 / 65 728 / 65 920), so the cells
    /// construct and simulate machines whose node indices do not fit the
    /// pre-widening `u16` — the exact space the silent-truncation bug
    /// corrupted.
    T64k,
}

impl ScalePoint {
    /// Row-name prefix (`t16k_...` / `t64k_...`).
    pub fn label(self) -> &'static str {
        match self {
            ScalePoint::T16k => "t16k",
            ScalePoint::T64k => "t64k",
        }
    }

    /// Both sizes, in table order.
    pub fn all() -> [ScalePoint; 2] {
        [ScalePoint::T16k, ScalePoint::T64k]
    }
}

/// Partition count for one (family, size) cell. Partition shapes are the
/// t4k ones (8x8 torus / `fat_tree(8)` / `dragonfly(4,3,1)`); the counts
/// are the smallest multiples-of-four that reach the size band (divisible
/// by four so shard counts 2 and 4 cut along whole partitions).
pub fn tscale_parts(cell: Cell4k, point: ScalePoint) -> usize {
    match (cell, point) {
        (Cell4k::Torus, ScalePoint::T16k) => 256,     // 16 384
        (Cell4k::Torus, ScalePoint::T64k) => 1028,    // 65 792
        (Cell4k::FatTree, ScalePoint::T16k) => 80,    // 16 640
        (Cell4k::FatTree, ScalePoint::T64k) => 316,   // 65 728
        (Cell4k::Dragonfly, ScalePoint::T16k) => 208, // 16 640
        (Cell4k::Dragonfly, ScalePoint::T64k) => 824, // 65 920
    }
}

/// One t16k/t64k cell: the t4k experiment's (family, policy, switching)
/// structure scaled to 16k or 64k processors. The batch stays the 8-job
/// relay family — the cells pin *simulator* behavior (construction,
/// routing, wormhole flow control, shard merge) at machine sizes past the
/// old `u16` ceiling, not machine-saturating load; the ranking experiment
/// (`scale --ranking`) is what loads every partition.
pub fn tscale(
    cell: Cell4k,
    point: ScalePoint,
    switching: Switching,
) -> (ExperimentConfig, Vec<JobSpec>) {
    let (base_cfg, batch) = t4k(cell, switching);
    let partition = base_cfg.partition_size;
    let cfg = ExperimentConfig {
        system_size: partition * tscale_parts(cell, point),
        ..base_cfg
    };
    (cfg, batch)
}

/// The 4096-node smoke case: 64 x 64 torus, sixty-four 64-node
/// partitions, 8 wide jobs under uncoordinated time-sharing.
pub fn torus4k() -> (ExperimentConfig, Vec<JobSpec>) {
    let cfg = ExperimentConfig {
        system_size: 4096,
        ..ExperimentConfig::paper(
            64,
            TopologyKind::Torus { rows: 64, cols: 64 },
            PolicyKind::TimeSharing,
        )
    };
    let batch = (0..8).map(|i| wide_job(i, 64)).collect();
    (cfg, batch)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wide_jobs_are_balanced_and_light_to_ship() {
        for i in 0..4 {
            let j = wide_job(i, 64);
            j.check_balanced().expect("message pattern balances");
            assert_eq!(j.width(), 64);
            assert_eq!(j.effective_ship_bytes(), 600_000);
        }
    }

    #[test]
    fn cells_are_coordinated_eligible() {
        for cell in Cell1k::all() {
            let (cfg, _) = torus1k(cell);
            assert_eq!(shard_eligibility(&cfg), Ok(()), "{cell:?}");
        }
        let (cfg, _) = torus4k();
        assert_eq!(shard_eligibility(&cfg), Ok(()));
    }

    #[test]
    fn tscale_cells_tile_and_cross_the_old_ceiling() {
        for cell in Cell4k::all() {
            for point in ScalePoint::all() {
                let (cfg, batch) = tscale(cell, point, Switching::Wormhole);
                assert_eq!(
                    cfg.system_size,
                    cfg.partition_size * tscale_parts(cell, point),
                    "{cell:?}/{point:?} does not tile"
                );
                assert_eq!(tscale_parts(cell, point) % 4, 0, "{cell:?}/{point:?}");
                match point {
                    ScalePoint::T16k => {
                        assert!((16_384..=16_640).contains(&cfg.system_size), "{cell:?}")
                    }
                    // The t64k sizes must cross the old u16 index ceiling,
                    // or the cells would never touch the widened space.
                    ScalePoint::T64k => {
                        assert!(cfg.system_size > 65_536, "{cell:?} stays under 65 536")
                    }
                }
                assert_eq!(shard_eligibility(&cfg), Ok(()), "{cell:?}/{point:?}");
                assert!(batch.iter().all(|j| j.width() == 64));
            }
        }
    }

    #[test]
    fn t4k_cells_are_shard_eligible_under_both_switchings() {
        for cell in Cell4k::all() {
            for switching in [Switching::Wormhole, Switching::StoreAndForward] {
                let (cfg, batch) = t4k(cell, switching);
                assert_eq!(shard_eligibility(&cfg), Ok(()), "{cell:?}/{switching:?}");
                assert_eq!(cfg.machine.switching, switching);
                assert!(cfg.system_size >= 4096, "{cell:?} is not t4k-scale");
                assert!(batch.iter().all(|j| j.width() == 64));
                for j in &batch {
                    j.check_balanced().expect("t4k message pattern balances");
                }
            }
        }
    }
}
