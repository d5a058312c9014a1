//! System partitioning.
//!
//! The paper's space-sharing and hybrid policies split the 16-processor
//! machine into `16/p` equal partitions of `p` processors; each partition is
//! then wired (via the C004 switches) as its own linear array, ring, mesh or
//! hypercube. A [`PartitionPlan`] captures that: contiguous blocks of global
//! processors, each with a local topology and the mapping between local and
//! global processor indices.

use crate::build;
use crate::types::{NodeId, Topology, TopologyKind};

/// One partition: a contiguous block of global processors with its own
/// interconnect.
#[derive(Debug, Clone)]
pub struct Partition {
    /// Index of this partition within the plan.
    pub id: usize,
    /// Global index of the partition's first processor.
    pub base: usize,
    /// The partition's interconnect (over `size` local nodes).
    pub topology: Topology,
}

impl Partition {
    /// Number of processors in this partition.
    pub fn size(&self) -> usize {
        self.topology.len()
    }

    /// Map a local node id to the global processor index.
    pub fn to_global(&self, local: NodeId) -> usize {
        assert!(local.idx() < self.size(), "local id out of range");
        self.base + local.idx()
    }

    /// Map a global processor index to the local node id.
    ///
    /// # Panics
    /// Panics if the processor is not in this partition.
    pub fn to_local(&self, global: usize) -> NodeId {
        assert!(
            self.contains(global),
            "processor {global} not in partition {}",
            self.id
        );
        NodeId::from_index(global - self.base)
    }

    /// True if the global processor index belongs to this partition.
    pub fn contains(&self, global: usize) -> bool {
        global >= self.base && global < self.base + self.size()
    }
}

/// Why an equal partitioning could not be built. Carries enough context
/// for the message alone to identify the bad input.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlanError {
    /// A size was zero.
    ZeroSize {
        /// Requested machine size.
        system_size: usize,
        /// Requested partition size.
        partition_size: usize,
    },
    /// `partition_size` does not divide `system_size`.
    NotDivisible {
        /// Requested machine size.
        system_size: usize,
        /// Requested partition size.
        partition_size: usize,
    },
    /// The topology cannot be realized over `partition_size` nodes (a
    /// hypercube needs a power of two).
    Unrealizable {
        /// Requested partition size.
        partition_size: usize,
        /// Requested partition topology.
        kind: TopologyKind,
    },
}

impl std::fmt::Display for PlanError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            PlanError::ZeroSize { system_size, partition_size } => write!(
                f,
                "cannot partition a {system_size}-processor machine into \
                 partitions of {partition_size}: sizes must be at least 1"
            ),
            PlanError::NotDivisible { system_size, partition_size } => write!(
                f,
                "partition size {partition_size} does not divide the \
                 {system_size}-processor machine evenly; pick a divisor of \
                 {system_size}"
            ),
            PlanError::Unrealizable { partition_size, kind } => write!(
                f,
                "a {kind} topology cannot be wired over {partition_size} \
                 nodes (hypercubes need a power-of-two partition size)"
            ),
        }
    }
}

impl std::error::Error for PlanError {}

/// An equal partitioning of a `system_size`-processor machine.
///
/// ```
/// use parsched_topology::{PartitionPlan, TopologyKind, NodeId};
///
/// let plan = PartitionPlan::equal(16, 4, TopologyKind::Ring).unwrap();
/// assert_eq!(plan.count(), 4);
/// let third = &plan.partitions[2];
/// assert_eq!(third.to_global(NodeId(1)), 9); // local node 1 = processor 9
/// assert!(PartitionPlan::equal(16, 3, TopologyKind::Ring).is_none());
/// ```
#[derive(Debug, Clone)]
pub struct PartitionPlan {
    /// Total processors in the machine.
    pub system_size: usize,
    /// Processors per partition.
    pub partition_size: usize,
    /// The partitions, in base order.
    pub partitions: Vec<Partition>,
}

impl PartitionPlan {
    /// Split `system_size` processors into equal contiguous partitions of
    /// `partition_size`, each wired as `kind`.
    ///
    /// Returns `None` when the combination is unrealizable: `partition_size`
    /// must divide `system_size`, and a hypercube partition needs a
    /// power-of-two size. [`PartitionPlan::try_equal`] says *why*.
    pub fn equal(
        system_size: usize,
        partition_size: usize,
        kind: TopologyKind,
    ) -> Option<PartitionPlan> {
        PartitionPlan::try_equal(system_size, partition_size, kind).ok()
    }

    /// Like [`PartitionPlan::equal`], but a rejected combination reports
    /// the reason as a typed [`PlanError`] instead of a bare `None`.
    pub fn try_equal(
        system_size: usize,
        partition_size: usize,
        kind: TopologyKind,
    ) -> Result<PartitionPlan, PlanError> {
        if partition_size == 0 || system_size == 0 {
            return Err(PlanError::ZeroSize { system_size, partition_size });
        }
        if !system_size.is_multiple_of(partition_size) {
            return Err(PlanError::NotDivisible { system_size, partition_size });
        }
        // Every partition has the same shape: build it once and share it.
        let topology = build::by_kind(kind, partition_size)
            .map_err(|_| PlanError::Unrealizable { partition_size, kind })?;
        let partitions = (0..system_size / partition_size)
            .map(|id| Partition {
                id,
                base: id * partition_size,
                topology: topology.clone(),
            })
            .collect();
        Ok(PartitionPlan {
            system_size,
            partition_size,
            partitions,
        })
    }

    /// Number of partitions.
    pub fn count(&self) -> usize {
        self.partitions.len()
    }

    /// The global processors covered by partitions `range`: from the first
    /// one's base up to the next partition's base (the machine's end after
    /// the last partition).
    ///
    /// # Panics
    /// Panics when the range runs past the plan.
    pub fn node_range(&self, range: std::ops::Range<usize>) -> std::ops::Range<usize> {
        assert!(range.end <= self.count(), "partition range runs past the plan");
        let base = |p: usize| self.partitions.get(p).map_or(self.system_size, |q| q.base);
        base(range.start)..base(range.end)
    }

    /// Partitions `range` as a machine of their own: processors and
    /// partition ids renumbered from 0, so local processor `i` is global
    /// processor `partitions[range.start].base + i`. A sharded run gives
    /// each shard the sub-plan of the partitions it owns.
    ///
    /// # Panics
    /// Panics when the range is empty or runs past the plan.
    pub fn sub_plan(&self, range: std::ops::Range<usize>) -> PartitionPlan {
        assert!(!range.is_empty(), "a sub-plan needs at least one partition");
        let nodes = self.node_range(range.clone());
        let partitions: Vec<Partition> = self.partitions[range]
            .iter()
            .enumerate()
            .map(|(id, p)| Partition {
                id,
                base: p.base - nodes.start,
                topology: p.topology.clone(),
            })
            .collect();
        PartitionPlan {
            system_size: nodes.len(),
            partition_size: self.partition_size,
            partitions,
        }
    }

    /// The partition owning a global processor index.
    pub fn partition_of(&self, global: usize) -> &Partition {
        assert!(global < self.system_size, "processor index out of range");
        &self.partitions[global / self.partition_size]
    }
}

/// The paper's figure-axis label for a partition configuration, e.g. `8L`
/// (partition size 8, linear) or `1` (size-1 partitions need no network).
pub fn config_label(partition_size: usize, kind: TopologyKind) -> String {
    if partition_size == 1 {
        "1".to_string()
    } else {
        format!("{partition_size}{}", kind.label())
    }
}

/// The partition configurations shown on the paper's X axes: sizes 1..16 in
/// powers of two, each with every distinct realizable topology.
///
/// * size 1 — a single bare processor (topology irrelevant; listed once);
/// * size 2 — `L` and `R` coincide (a single edge); listed once as `2L`;
/// * size 4, 8 — `L`, `R`, `M`, `H`;
/// * size 16 — `L`, `R`, `M` (the paper's machine cannot wire a 16-node
///   hypercube because one transputer link is reserved for the host; we
///   follow the paper and omit it by default, `include_16h` adds it).
pub fn paper_configs(include_16h: bool) -> Vec<(usize, TopologyKind)> {
    use TopologyKind::*;
    let mesh = Mesh { rows: 0, cols: 0 }; // extents filled by the builder
    let hc = Hypercube { dim: 0 };
    let mut configs = vec![
        (1, Linear),
        (2, Linear),
        (4, Linear),
        (4, Ring),
        (4, Mesh { rows: 0, cols: 0 }),
        (4, Hypercube { dim: 0 }),
        (8, Linear),
        (8, Ring),
        (8, mesh),
        (8, hc),
        (16, Linear),
        (16, Ring),
        (16, mesh),
    ];
    if include_16h {
        configs.push((16, hc));
    }
    configs
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn equal_partitioning_shapes() {
        let plan = PartitionPlan::equal(16, 4, TopologyKind::Ring).unwrap();
        assert_eq!(plan.count(), 4);
        for (i, p) in plan.partitions.iter().enumerate() {
            assert_eq!(p.id, i);
            assert_eq!(p.base, i * 4);
            assert_eq!(p.size(), 4);
            assert_eq!(p.topology.kind(), TopologyKind::Ring);
        }
    }

    #[test]
    fn every_partition_shares_one_shape() {
        let plan = PartitionPlan::equal(64, 16, TopologyKind::Torus { rows: 0, cols: 0 }).unwrap();
        let shape = &plan.partitions[0].topology;
        assert_eq!(shape.kind(), TopologyKind::Torus { rows: 4, cols: 4 });
        assert!(plan.partitions.iter().all(|p| p.topology.same_shape(shape)));
        assert!(plan.sub_plan(1..3).partitions.iter().all(|p| p.topology.same_shape(shape)));
    }

    #[test]
    fn global_local_round_trip() {
        let plan = PartitionPlan::equal(16, 8, TopologyKind::Linear).unwrap();
        for g in 0..16 {
            let p = plan.partition_of(g);
            let l = p.to_local(g);
            assert_eq!(p.to_global(l), g);
        }
    }

    #[test]
    fn unrealizable_combinations_rejected() {
        assert!(PartitionPlan::equal(16, 3, TopologyKind::Linear).is_none());
        assert!(PartitionPlan::equal(16, 0, TopologyKind::Linear).is_none());
        assert!(
            PartitionPlan::equal(12, 6, TopologyKind::Hypercube { dim: 0 }).is_none(),
            "6-node hypercube must be rejected"
        );
    }

    #[test]
    fn try_equal_names_the_reason() {
        let err = PartitionPlan::try_equal(16, 3, TopologyKind::Linear).unwrap_err();
        assert_eq!(
            err,
            PlanError::NotDivisible { system_size: 16, partition_size: 3 }
        );
        assert!(err.to_string().contains("does not divide"), "{err}");
        assert!(err.to_string().contains("divisor of 16"), "{err}");

        let err = PartitionPlan::try_equal(16, 0, TopologyKind::Linear).unwrap_err();
        assert!(matches!(err, PlanError::ZeroSize { .. }));
        assert!(err.to_string().contains("at least 1"), "{err}");

        let err = PartitionPlan::try_equal(12, 6, TopologyKind::Hypercube { dim: 0 })
            .unwrap_err();
        assert!(matches!(err, PlanError::Unrealizable { partition_size: 6, .. }));
        assert!(err.to_string().contains("power-of-two"), "{err}");

        assert!(PartitionPlan::try_equal(16, 4, TopologyKind::Ring).is_ok());
    }

    #[test]
    fn sub_plan_renumbers_from_zero() {
        let plan = PartitionPlan::equal(16, 4, TopologyKind::Ring).unwrap();
        let sub = plan.sub_plan(2..4);
        assert_eq!(sub.system_size, 8);
        assert_eq!(sub.partition_size, 4);
        assert_eq!(sub.count(), 2);
        for (i, p) in sub.partitions.iter().enumerate() {
            assert_eq!(p.id, i);
            assert_eq!(p.base, 4 * i);
            assert_eq!(p.topology.kind(), TopologyKind::Ring);
        }
        assert_eq!(sub.partition_of(5).id, 1);
        assert_eq!(plan.node_range(2..4), 8..16);
        assert_eq!(plan.node_range(0..1), 0..4);
        assert_eq!(plan.node_range(0..plan.count()), 0..16);
    }

    #[test]
    #[should_panic(expected = "not in partition")]
    fn to_local_checks_membership() {
        let plan = PartitionPlan::equal(16, 4, TopologyKind::Linear).unwrap();
        plan.partitions[0].to_local(5);
    }

    #[test]
    fn paper_config_list() {
        let configs = paper_configs(false);
        assert_eq!(configs.len(), 13);
        // All realizable against a 16-processor machine.
        for (size, kind) in &configs {
            assert!(
                PartitionPlan::equal(16, *size, *kind).is_some(),
                "config {size}{kind} not realizable"
            );
        }
        assert_eq!(paper_configs(true).len(), 14);
    }

    #[test]
    fn labels_match_paper_axis() {
        assert_eq!(config_label(1, TopologyKind::Linear), "1");
        assert_eq!(config_label(8, TopologyKind::Linear), "8L");
        assert_eq!(config_label(16, TopologyKind::Mesh { rows: 4, cols: 4 }), "16M");
        assert_eq!(config_label(4, TopologyKind::Hypercube { dim: 2 }), "4H");
    }
}
