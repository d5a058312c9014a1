//! System wiring: the machine-wide view of a partitioned interconnect.
//!
//! The paper's machine is always *one* 16-processor system, but under
//! space-sharing its network is configured as `16/p` disjoint sub-networks
//! (one per partition). [`SystemNet`] composes them into one channel
//! numbering and one routing function over global processor indices;
//! there are no channels between partitions, and jobs never span one, so
//! a route either stays inside a partition or does not exist.
//!
//! Every partition of a plan has the same shape, so the net keeps that
//! shape once: one [`Router`] and one local channel table in CSR form
//! (channels grouped by sending node, `(from, to)`-ascending). A global
//! channel id is arithmetic, `partition · channels_per_partition +
//! local`, which numbers the channels exactly as one table of every
//! partition's channels in base order would, without building it: wiring
//! a 65k-node machine costs one partition's table.

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

/// The machine-wide interconnect: the partitions' shared shape plus
/// routing.
#[derive(Debug, Clone)]
pub struct SystemNet {
    nodes: usize,
    partitions: usize,
    partition_size: usize,
    /// The shape every partition is wired as (the wormhole layer derives
    /// its virtual-channel escape classes from it).
    kind: TopologyKind,
    /// Minimal router over one partition's local node ids.
    router: Router,
    /// One partition's directed channels in local node ids, sorted by
    /// `(from, to)` — `Topology::channels` emits that order.
    local: Vec<GlobalChannel>,
    /// CSR row offsets over `local`: channels leaving local node `f` are
    /// `local[offsets[f]..offsets[f + 1]]`.
    offsets: Vec<u32>,
    /// Index of this net's channel 0 in the whole machine's numbering: 0
    /// unless this net wires a partition range after the first
    /// ([`SystemNet::for_partitions`]).
    channel_base: usize,
}

impl SystemNet {
    /// Wire the machine according to a partition plan.
    ///
    /// # Panics
    /// Panics when the plan's partitions differ in shape or are not laid
    /// out base-ascending at `partition_size` strides (no
    /// [`PartitionPlan::try_equal`] plan is).
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
    /// Panics when the range is empty or runs past the plan, and on a
    /// plan [`SystemNet::from_plan`] rejects.
    pub fn for_partitions(plan: &PartitionPlan, range: Range<usize>) -> SystemNet {
        let covered = plan.node_range(range.clone());
        let parts = &plan.partitions[range.clone()];
        let shape = &parts
            .first()
            .expect("a net needs at least one partition")
            .topology;
        let partition_size = plan.partition_size;
        for (i, part) in parts.iter().enumerate() {
            assert!(
                part.topology.same_shape(shape)
                    && part.base == covered.start + i * partition_size
                    && part.size() == partition_size,
                "partition {} is not a copy of the plan's shape at its stride",
                part.id
            );
        }
        let local: Vec<GlobalChannel> = shape
            .channels()
            .map(|Channel { from, to }| GlobalChannel {
                from: from.0,
                to: to.0,
            })
            .collect();
        debug_assert!(
            local.is_sorted_by_key(|c| (c.from, c.to)),
            "channel emission order must be (from, to)-ascending"
        );
        let mut offsets = vec![0u32; partition_size + 1];
        for c in &local {
            offsets[c.from as usize + 1] += 1;
        }
        for f in 0..partition_size {
            offsets[f + 1] += offsets[f];
        }
        SystemNet {
            nodes: covered.len(),
            partitions: parts.len(),
            partition_size,
            kind: shape.kind(),
            router: Router::for_topology(shape),
            channel_base: range.start * local.len(),
            local,
            offsets,
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

    /// Number of directed channels in the machine.
    pub fn channel_count(&self) -> usize {
        self.partitions * self.local.len()
    }

    /// Directed channels in each partition (the stride of the channel
    /// numbering: partition `p` owns channels `p · this ..`).
    pub fn channels_per_partition(&self) -> usize {
        self.local.len()
    }

    /// Channel `c` of the machine.
    ///
    /// # Panics
    /// Panics when `c` is not below [`SystemNet::channel_count`].
    pub fn channel(&self, c: usize) -> GlobalChannel {
        assert!(c < self.channel_count(), "channel {c} out of range");
        let (p, l) = (c / self.local.len(), c % self.local.len());
        let base = global_id(p * self.partition_size);
        let GlobalChannel { from, to } = self.local[l];
        GlobalChannel {
            from: base + from,
            to: base + to,
        }
    }

    /// Index of this net's first channel in the whole machine's channel
    /// table (0 for a whole-machine net). A sub-network built by
    /// [`SystemNet::for_partitions`] numbers its channels from 0; adding
    /// this base gives the number the whole machine uses.
    pub fn channel_base(&self) -> usize {
        self.channel_base
    }

    /// Index of the channel `from -> to`, if the processors are adjacent.
    /// Binary search within `from`'s local CSR row (rows are degree-sized:
    /// at most a handful of entries on every shipped shape).
    pub fn channel_id(&self, from: u32, to: u32) -> Option<usize> {
        let p = self.partition_of(from);
        if p >= self.partitions || p != self.partition_of(to) {
            return None;
        }
        let base = global_id(p * self.partition_size);
        let f = (from - base) as usize;
        let row = self.offsets[f] as usize..self.offsets[f + 1] as usize;
        self.local[row.clone()]
            .binary_search_by_key(&(to - base), |c| c.to)
            .ok()
            .map(|i| p * self.local.len() + row.start + i)
    }

    /// Partition id of a global processor.
    #[inline]
    pub fn partition_of(&self, node: u32) -> usize {
        node as usize / self.partition_size
    }

    /// Number of partitions in the plan.
    pub fn partitions(&self) -> usize {
        self.partitions
    }

    /// Number of processors per partition.
    pub fn partition_size(&self) -> usize {
        self.partition_size
    }

    /// Topology kind every partition is wired as.
    pub fn kind(&self) -> TopologyKind {
        self.kind
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
        let local = self.router.path(NodeId(src - base), NodeId(dst - base));
        Some((p, base, local))
    }

    /// The full global path from `src` to `dst` (exclusive of `src`).
    /// Returns `None` if the processors are in different partitions.
    ///
    /// Allocates; the per-message hot path walks [`SystemNet::next_hop`]
    /// instead and never materializes the path.
    pub fn route(&self, src: u32, dst: u32) -> Option<Vec<u32>> {
        let (_, base, local) = self.local_route(src, dst)?;
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
        self.router
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

    /// Every channel of `net`, in channel-id order.
    fn all_channels(net: &SystemNet) -> Vec<GlobalChannel> {
        (0..net.channel_count()).map(|c| net.channel(c)).collect()
    }

    /// The global channel table the net once stored: every partition's
    /// channels, renumbered to global processors, in base order.
    fn global_table(plan: &PartitionPlan) -> Vec<GlobalChannel> {
        let mut table = Vec::new();
        for part in &plan.partitions {
            for Channel { from, to } in part.topology.channels() {
                table.push(GlobalChannel {
                    from: global_id(part.base + from.idx()),
                    to: global_id(part.base + to.idx()),
                });
            }
        }
        table
    }

    #[test]
    fn single_partition_wiring() {
        let net = SystemNet::single(&build::ring(4).unwrap());
        assert_eq!(net.nodes(), 4);
        assert_eq!(net.channel_count(), 8);
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
        assert_eq!(net.channel_count(), 24);
        assert_eq!(net.channels_per_partition(), 6);
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
        assert_eq!(net.channel(0).label(), "0->1");
    }

    /// The channel index answers exactly what the old n^2 flat table
    /// answered: every adjacent pair maps to its channel id, every
    /// non-adjacent pair (including out-of-range senders) to `None`.
    #[test]
    fn csr_channel_index_matches_adjacency() {
        let plan = PartitionPlan::equal(16, 8, TopologyKind::Mesh { rows: 0, cols: 0 }).unwrap();
        let net = SystemNet::from_plan(&plan);
        let table = all_channels(&net);
        for from in 0..17u32 {
            for to in 0..17u32 {
                let expected = table.iter().position(|c| c.from == from && c.to == to);
                assert_eq!(net.channel_id(from, to), expected, "{from}->{to}");
            }
        }
    }

    /// One partition size per builder family the machine ships, each
    /// realizable by `build::by_kind`.
    fn every_builder() -> Vec<(TopologyKind, usize)> {
        use parsched_topology::build::{dragonfly_size, fat_tree_size};
        vec![
            (TopologyKind::Linear, 7),
            (TopologyKind::Mesh { rows: 0, cols: 0 }, 6),
            (TopologyKind::Torus { rows: 0, cols: 0 }, 9),
            (TopologyKind::Hypercube { dim: 0 }, 8),
            (TopologyKind::Ring, 5),
            (TopologyKind::FatTree { k: 0 }, fat_tree_size(4)),
            (
                TopologyKind::Dragonfly { a: 0, p: 0, h: 0 },
                dragonfly_size(2, 1, 1),
            ),
        ]
    }

    /// The arithmetic numbering `partition · channels_per_partition +
    /// local` is the old global CSR table, entry for entry and lookup for
    /// lookup, on every shipped shape at several sizes and partition
    /// counts.
    #[test]
    fn arithmetic_channel_ids_equal_the_global_table() {
        use parsched_topology::build::{dragonfly_size, fat_tree_size};
        let mut shapes = every_builder();
        shapes.extend([
            (TopologyKind::Linear, 1),
            (TopologyKind::Linear, 2),
            (TopologyKind::Ring, 16),
            (TopologyKind::Mesh { rows: 0, cols: 0 }, 16),
            (TopologyKind::Torus { rows: 0, cols: 0 }, 64),
            (TopologyKind::Hypercube { dim: 0 }, 16),
            (TopologyKind::FatTree { k: 0 }, fat_tree_size(6)),
            (
                TopologyKind::Dragonfly { a: 0, p: 0, h: 0 },
                dragonfly_size(4, 2, 2),
            ),
        ]);
        for (kind, size) in shapes {
            for parts in [1, 2, 5] {
                let plan = PartitionPlan::equal(parts * size, size, kind).unwrap();
                let net = SystemNet::from_plan(&plan);
                let table = global_table(&plan);
                assert_eq!(all_channels(&net), table, "{kind} {size} x{parts}");
                for (c, g) in table.iter().enumerate() {
                    assert_eq!(net.channel_id(g.from, g.to), Some(c), "{kind} {size} {c}");
                }
                let n = net.nodes() as u32;
                for from in (0..n).step_by(3) {
                    for to in (0..n).step_by(5) {
                        let expected = table.iter().position(|g| (g.from, g.to) == (from, to));
                        assert_eq!(net.channel_id(from, to), expected, "{kind} {from}->{to}");
                    }
                }
            }
        }
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
                assert!(net.channel_count() > 0, "{kind} x{parts}");
                for c in all_channels(&net) {
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
            let channels = all_channels(&whole);
            assert_eq!(whole.channel_base(), 0);
            for range in [0..1, 0..5, 1..3, 2..5, 4..5] {
                let sub = SystemNet::for_partitions(&plan, range.clone());
                let origin = (range.start * size) as u32;
                assert_eq!(sub.nodes(), range.len() * size, "{kind} {range:?}");
                assert_eq!(sub.partitions(), range.len());
                let span = origin..origin + sub.nodes() as u32;
                let expected: Vec<(u32, u32)> = channels
                    .iter()
                    .filter(|g| span.contains(&g.from))
                    .map(|g| (g.from - origin, g.to - origin))
                    .collect();
                let got: Vec<(u32, u32)> =
                    all_channels(&sub).iter().map(|c| (c.from, c.to)).collect();
                assert_eq!(got, expected, "{kind} {range:?}");
                assert_eq!(
                    channels.iter().position(|g| span.contains(&g.from)),
                    Some(sub.channel_base()),
                    "{kind} {range:?}: channel base"
                );
                for a in 0..sub.nodes() as u32 {
                    for b in (0..sub.nodes() as u32).step_by(3) {
                        let local = sub
                            .route(a, b)
                            .map(|p| p.iter().map(|n| n + origin).collect());
                        assert_eq!(
                            local,
                            whole.route(a + origin, b + origin),
                            "{kind} {a}->{b}"
                        );
                    }
                }
            }
        }
    }

    /// A hand-built plan whose partitions differ in shape cannot share
    /// one router, and is refused rather than mis-wired.
    #[test]
    #[should_panic(expected = "not a copy of the plan's shape")]
    fn mixed_shape_plans_are_refused() {
        let mut plan = PartitionPlan::equal(8, 4, TopologyKind::Linear).unwrap();
        plan.partitions[1].topology = build::ring(4).unwrap();
        SystemNet::from_plan(&plan);
    }
}
