//! System wiring: the machine-wide view of a partitioned interconnect.
//!
//! The paper's machine is always *one* 16-processor system, but under
//! space-sharing its network is configured as `16/p` disjoint sub-networks
//! (one per partition). [`SystemNet`] composes the partition topologies into
//! a single global channel table and routing function over global processor
//! indices; there are no channels between partitions, and jobs never span
//! one, so a route either stays inside a partition or does not exist.

use parsched_topology::{Channel, NodeId, PartitionPlan, Router, Topology, TopologyKind};
use std::ops::Range;

/// A directed global channel between adjacent processors.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct GlobalChannel {
    /// Global index of the sending processor.
    pub from: u32,
    /// Global index of the receiving processor.
    pub to: u32,
}

impl GlobalChannel {
    /// Display label, e.g. `"3->7"` (used by observability exporters).
    pub fn label(&self) -> String {
        format!("{}->{}", self.from, self.to)
    }
}

/// The machine-wide interconnect: partition topologies plus routing.
#[derive(Debug, Clone)]
pub struct SystemNet {
    nodes: usize,
    partition_size: usize,
    /// Per-partition minimal routers (index = partition id).
    routers: Vec<Router>,
    /// Per-partition topology kinds (the wormhole layer derives its
    /// virtual-channel escape classes from the shape).
    kinds: Vec<TopologyKind>,
    /// All directed channels, sorted by `(from, to)` — `Topology::channels`
    /// emits ascending order and partitions are visited base-ascending, so
    /// the sort comes for free.
    channels: Vec<GlobalChannel>,
    /// CSR row offsets over `channels`: channels leaving processor `f` are
    /// `channels[offsets[f]..offsets[f + 1]]`. A flat `from * nodes + to`
    /// table is O(n^2) memory — 17 GB at 64k nodes — where this is O(n + E).
    offsets: Vec<u32>,
    /// Index of `channels[0]` in the whole machine's channel table: 0
    /// unless this net wires a partition range after the first
    /// ([`SystemNet::for_partitions`]).
    channel_base: usize,
}

impl SystemNet {
    /// Wire the machine according to a partition plan.
    pub fn from_plan(plan: &PartitionPlan) -> SystemNet {
        SystemNet::for_partitions(plan, 0..plan.count())
    }

    /// Wire only the partitions `range` of `plan`, as a machine of their
    /// own: processor ids run from 0 at the first partition's base (see
    /// [`PartitionPlan::sub_plan`], which renumbers the plan the same way)
    /// and channels are the whole machine's channels of those partitions,
    /// in the same order. Because no channel crosses a partition boundary,
    /// the sub-network routes exactly as the whole one does on those
    /// processors. [`SystemNet::channel_base`] keeps the global index of
    /// the first channel, for state keyed by the machine-wide channel.
    ///
    /// # Panics
    /// Panics when the range runs past the plan.
    pub fn for_partitions(plan: &PartitionPlan, range: Range<usize>) -> SystemNet {
        let covered = plan.node_range(range.clone());
        let (origin, nodes) = (covered.start, covered.len());
        let channel_base = plan.partitions[..range.start]
            .iter()
            .map(|p| 2 * p.topology.edge_count())
            .sum();
        let parts = &plan.partitions[range];
        let mut channels = Vec::new();
        let mut routers = Vec::with_capacity(parts.len());
        let mut kinds = Vec::with_capacity(parts.len());
        for part in parts {
            routers.push(Router::for_topology(&part.topology));
            kinds.push(part.topology.kind());
            let base = part.base - origin;
            for Channel { from, to } in part.topology.channels() {
                channels.push(GlobalChannel {
                    from: global_id(base + from.idx()),
                    to: global_id(base + to.idx()),
                });
            }
        }
        debug_assert!(
            channels.is_sorted_by_key(|c| (c.from, c.to)),
            "channel emission order must be (from, to)-ascending"
        );
        let total = u32::try_from(channels.len()).expect("channel count exceeds u32");
        let mut offsets = vec![0u32; nodes + 1];
        for c in &channels {
            offsets[c.from as usize + 1] += 1;
        }
        for f in 0..nodes {
            offsets[f + 1] += offsets[f];
        }
        debug_assert_eq!(offsets[nodes], total);
        SystemNet {
            nodes,
            partition_size: plan.partition_size,
            routers,
            kinds,
            channels,
            offsets,
            channel_base,
        }
    }

    /// Wire the whole machine as one partition with the given topology
    /// (pure time-sharing, and unit tests).
    pub fn single(topology: &Topology) -> SystemNet {
        let plan = PartitionPlan {
            system_size: topology.len(),
            partition_size: topology.len(),
            partitions: vec![parsched_topology::Partition {
                id: 0,
                base: 0,
                topology: topology.clone(),
            }],
        };
        SystemNet::from_plan(&plan)
    }

    /// Number of processors in the machine.
    pub fn nodes(&self) -> usize {
        self.nodes
    }

    /// All directed channels.
    pub fn channels(&self) -> &[GlobalChannel] {
        &self.channels
    }

    /// Index of this net's first channel in the whole machine's channel
    /// table (0 for a whole-machine net). A sub-network built by
    /// [`SystemNet::for_partitions`] numbers its channels from 0; adding
    /// this base gives the number the whole machine uses.
    pub fn channel_base(&self) -> usize {
        self.channel_base
    }

    /// Index of the channel `from -> to`, if the processors are adjacent.
    /// Binary search within `from`'s CSR row (rows are degree-sized: at
    /// most a handful of entries on every shipped shape).
    pub fn channel_id(&self, from: u32, to: u32) -> Option<usize> {
        let row = self.offsets[from as usize] as usize..self.offsets[from as usize + 1] as usize;
        self.channels[row.clone()]
            .binary_search_by_key(&to, |c| c.to)
            .ok()
            .map(|i| row.start + i)
    }

    /// Partition id of a global processor.
    #[inline]
    pub fn partition_of(&self, node: u32) -> usize {
        node as usize / self.partition_size
    }

    /// Number of partitions in the plan.
    pub fn partitions(&self) -> usize {
        self.routers.len()
    }

    /// Number of processors per partition.
    pub fn partition_size(&self) -> usize {
        self.partition_size
    }

    /// Topology kind of a partition (all partitions of a plan share one).
    pub fn partition_kind(&self, p: usize) -> TopologyKind {
        self.kinds[p]
    }

    /// The full local-index path from `src` to `dst` within `src`'s
    /// partition, plus the partition id and its base offset — the wormhole
    /// layer derives virtual-channel classes from local coordinates.
    pub fn local_route(&self, src: u32, dst: u32) -> Option<(usize, u32, Vec<NodeId>)> {
        let p = self.partition_of(src);
        if p != self.partition_of(dst) {
            return None;
        }
        let base = global_id(p * self.partition_size);
        let local = self.routers[p].path(NodeId(src - base), NodeId(dst - base));
        Some((p, base, local))
    }

    /// The full global path from `src` to `dst` (exclusive of `src`).
    /// Returns `None` if the processors are in different partitions.
    ///
    /// Allocates; the per-message hot path walks [`SystemNet::next_hop`]
    /// instead and never materializes the path.
    pub fn route(&self, src: u32, dst: u32) -> Option<Vec<u32>> {
        let p = self.partition_of(src);
        if p != self.partition_of(dst) {
            return None;
        }
        let base = global_id(p * self.partition_size);
        let local = self.routers[p].path(NodeId(src - base), NodeId(dst - base));
        Some(local.into_iter().map(|l| base + l.0).collect())
    }

    /// The node after `src` on the minimal route to `dst`: one routing-
    /// strategy evaluation, no allocation. `None` when `src == dst` or the
    /// processors are in different partitions.
    #[inline]
    pub fn next_hop(&self, src: u32, dst: u32) -> Option<u32> {
        let p = self.partition_of(src);
        if src == dst || p != self.partition_of(dst) {
            return None;
        }
        let base = global_id(p * self.partition_size);
        self.routers[p]
            .next_hop(NodeId(src - base), NodeId(dst - base))
            .map(|l| base + l.0)
    }

    /// Hop count from `src` to `dst` (0 for self; `None` across
    /// partitions). Walks the next-hop function; no allocation.
    pub fn hops(&self, src: u32, dst: u32) -> Option<usize> {
        if self.partition_of(src) != self.partition_of(dst) {
            return None;
        }
        let mut cur = src;
        let mut n = 0usize;
        while cur != dst {
            cur = self
                .next_hop(cur, dst)
                .expect("same partition always routes");
            n += 1;
            debug_assert!(n <= self.nodes, "routing loop {src} -> {dst}");
        }
        Some(n)
    }
}

/// Checked global-processor-index conversion: the machine addresses at most
/// `u32::MAX` processors, and the topology layer rejects larger requests
/// before a plan can exist.
#[inline]
fn global_id(i: usize) -> u32 {
    u32::try_from(i).expect("global processor index exceeds u32")
}

#[cfg(test)]
mod tests {
    use super::*;
    use parsched_topology::{build, PartitionPlan, TopologyKind};

    #[test]
    fn single_partition_wiring() {
        let net = SystemNet::single(&build::ring(4).unwrap());
        assert_eq!(net.nodes(), 4);
        assert_eq!(net.channels().len(), 8);
        assert!(net.channel_id(0, 1).is_some());
        assert!(net.channel_id(0, 2).is_none());
        assert_eq!(net.route(0, 2).unwrap().len(), 2);
        assert_eq!(net.route(1, 1).unwrap().len(), 0);
    }

    #[test]
    fn partitioned_wiring_has_no_cross_links() {
        let plan = PartitionPlan::equal(16, 4, TopologyKind::Linear).unwrap();
        let net = SystemNet::from_plan(&plan);
        assert_eq!(net.nodes(), 16);
        // 4 partitions x 3 edges x 2 directions.
        assert_eq!(net.channels().len(), 24);
        assert!(net.channel_id(3, 4).is_none(), "no link across partitions");
        assert!(net.route(0, 7).is_none(), "no route across partitions");
        assert_eq!(net.route(4, 7).unwrap(), vec![5, 6, 7]);
    }

    #[test]
    fn global_routes_follow_local_topology() {
        let plan = PartitionPlan::equal(16, 8, TopologyKind::Hypercube { dim: 0 }).unwrap();
        let net = SystemNet::from_plan(&plan);
        // Second partition: nodes 8..16 as a 3-cube; 8 -> 15 is 3 hops.
        assert_eq!(net.hops(8, 15), Some(3));
        let path = net.route(8, 15).unwrap();
        assert_eq!(path.len(), 3);
        assert!(path.iter().all(|&n| (8..16).contains(&n)));
        assert_eq!(*path.last().unwrap(), 15);
    }

    #[test]
    fn partition_of_maps_blocks() {
        let plan = PartitionPlan::equal(16, 4, TopologyKind::Ring).unwrap();
        let net = SystemNet::from_plan(&plan);
        assert_eq!(net.partition_of(0), 0);
        assert_eq!(net.partition_of(3), 0);
        assert_eq!(net.partition_of(4), 1);
        assert_eq!(net.partition_of(15), 3);
        assert_eq!(net.partitions(), 4);
        assert_eq!(net.partition_size(), 4);
        assert_eq!(net.channels()[0].label(), "0->1");
    }

    /// The CSR channel index answers exactly what the old n^2 flat table
    /// answered: every adjacent pair maps to its position in `channels`,
    /// every non-adjacent pair to `None`.
    #[test]
    fn csr_channel_index_matches_adjacency() {
        let plan = PartitionPlan::equal(16, 8, TopologyKind::Mesh { rows: 0, cols: 0 }).unwrap();
        let net = SystemNet::from_plan(&plan);
        for from in 0..16u32 {
            for to in 0..16u32 {
                let expected = net
                    .channels()
                    .iter()
                    .position(|c| c.from == from && c.to == to);
                assert_eq!(net.channel_id(from, to), expected, "{from}->{to}");
            }
        }
    }

    /// One partition size per builder family the machine ships, each
    /// realizable by `build::by_kind`.
    fn every_builder() -> Vec<(TopologyKind, usize)> {
        use parsched_topology::build::{dragonfly_size, fat_tree_size};
        vec![
            (TopologyKind::Mesh { rows: 0, cols: 0 }, 6),
            (TopologyKind::Torus { rows: 0, cols: 0 }, 9),
            (TopologyKind::Hypercube { dim: 0 }, 8),
            (TopologyKind::Ring, 5),
            (TopologyKind::FatTree { k: 0 }, fat_tree_size(4)),
            (TopologyKind::Dragonfly { a: 0, p: 0, h: 0 }, dragonfly_size(2, 1, 1)),
        ]
    }

    /// Partitions are wired closed: whatever the builder and however many
    /// partitions, every channel joins two processors of one partition.
    /// Sharded runs rely on it — a shard owns whole partitions, so no
    /// shard can ever reach another's processors.
    #[test]
    fn no_channel_crosses_a_partition_boundary() {
        for (kind, size) in every_builder() {
            for parts in [1, 2, 3, 5, 8] {
                let plan = PartitionPlan::equal(parts * size, size, kind).unwrap();
                let net = SystemNet::from_plan(&plan);
                assert!(!net.channels().is_empty(), "{kind} x{parts}");
                for c in net.channels() {
                    assert_eq!(
                        net.partition_of(c.from),
                        net.partition_of(c.to),
                        "{kind} x{parts}: channel {} crosses partitions",
                        c.label()
                    );
                }
            }
        }
    }

    /// A partition-range sub-network is the whole machine's network on
    /// those processors, renumbered: the same channels in the same order
    /// from `channel_base`, the same routes.
    #[test]
    fn partition_range_wiring_is_the_whole_machine_renumbered() {
        for (kind, size) in every_builder() {
            let plan = PartitionPlan::equal(5 * size, size, kind).unwrap();
            let whole = SystemNet::from_plan(&plan);
            assert_eq!(whole.channel_base(), 0);
            for range in [0..1, 0..5, 1..3, 2..5, 4..5] {
                let sub = SystemNet::for_partitions(&plan, range.clone());
                let origin = (range.start * size) as u32;
                assert_eq!(sub.nodes(), range.len() * size, "{kind} {range:?}");
                assert_eq!(sub.partitions(), range.len());
                let span = origin..origin + sub.nodes() as u32;
                let expected: Vec<(u32, u32)> = whole
                    .channels()
                    .iter()
                    .filter(|g| span.contains(&g.from))
                    .map(|g| (g.from - origin, g.to - origin))
                    .collect();
                let got: Vec<(u32, u32)> = sub.channels().iter().map(|c| (c.from, c.to)).collect();
                assert_eq!(got, expected, "{kind} {range:?}");
                assert_eq!(
                    whole.channels().iter().position(|g| span.contains(&g.from)),
                    Some(sub.channel_base()),
                    "{kind} {range:?}: channel base"
                );
                for a in 0..sub.nodes() as u32 {
                    for b in (0..sub.nodes() as u32).step_by(3) {
                        let local = sub.route(a, b).map(|p| p.iter().map(|n| n + origin).collect());
                        assert_eq!(local, whole.route(a + origin, b + origin), "{kind} {a}->{b}");
                    }
                }
            }
        }
    }
}
