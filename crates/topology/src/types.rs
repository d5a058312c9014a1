//! Core graph types for interconnection networks.

use std::fmt;
use std::sync::Arc;

/// Largest node count any builder will accept: `NodeId` is a `u32`, and the
/// error contract promises that requesting more than `u32::MAX` nodes fails
/// loudly instead of wrapping. (Complete graphs cap far lower — their
/// adjacency is quadratic; see [`crate::build::complete`].)
pub const MAX_NODES: usize = u32::MAX as usize;

/// Why a topology could not be built. Builders return this instead of
/// silently truncating oversize indices (the pre-PR-10 behavior wrapped
/// `usize` node indices through `as u16`, corrupting any adjacency past
/// 65 536 nodes).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TopologyError {
    /// The request needs more node ids than the shape can address.
    /// `requested` is reported in `u128` so even an overflowing
    /// `rows * cols` product is shown exactly.
    TooManyNodes {
        /// Builder name (`"mesh"`, `"complete"`, ...).
        shape: &'static str,
        /// Requested node count.
        requested: u128,
        /// The shape's ceiling ([`MAX_NODES`] unless the shape caps lower).
        max: u64,
    },
    /// The shape cannot be realized with the requested size or parameters
    /// (a hypercube needs a power-of-two node count, a fat-tree an even
    /// radix, ...).
    Unrealizable {
        /// Builder name.
        shape: &'static str,
        /// The offending size (or parameter, for parameterized shapes).
        n: u128,
    },
    /// A zero extent was requested; every shape needs at least one node.
    Empty {
        /// Builder name.
        shape: &'static str,
    },
}

impl fmt::Display for TopologyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            TopologyError::TooManyNodes { shape, requested, max } => write!(
                f,
                "{shape}: {requested} nodes exceed the {max}-node ceiling \
                 (NodeId is 32-bit; complete graphs cap lower because their \
                 adjacency is quadratic)"
            ),
            TopologyError::Unrealizable { shape, n } => write!(
                f,
                "{shape}: cannot be realized with size/parameter {n}"
            ),
            TopologyError::Empty { shape } => {
                write!(f, "{shape}: need at least one node")
            }
        }
    }
}

impl std::error::Error for TopologyError {}

/// Index of a node within one topology (local, zero-based).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub u32);

impl NodeId {
    /// The index as a `usize` for table lookups.
    #[inline]
    pub fn idx(self) -> usize {
        self.0 as usize
    }

    /// Checked conversion from a `usize` index. Internal builders validate
    /// the total node count up front and then use [`NodeId::from_index`];
    /// external callers holding an unvalidated index should prefer this.
    #[inline]
    pub fn try_from_index(i: usize) -> Result<NodeId, TopologyError> {
        match u32::try_from(i) {
            Ok(v) => Ok(NodeId(v)),
            Err(_) => Err(TopologyError::TooManyNodes {
                shape: "node index",
                requested: i as u128 + 1,
                max: MAX_NODES as u64,
            }),
        }
    }

    /// Conversion from an index already known to be in range (because the
    /// containing topology's node count was validated at construction).
    /// Still checked — an out-of-range index is a programming error and
    /// panics instead of wrapping.
    #[inline]
    pub fn from_index(i: usize) -> NodeId {
        NodeId(u32::try_from(i).expect("node index exceeds NodeId range"))
    }
}

impl TryFrom<usize> for NodeId {
    type Error = TopologyError;

    fn try_from(i: usize) -> Result<NodeId, TopologyError> {
        NodeId::try_from_index(i)
    }
}

impl fmt::Debug for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// A directed channel between two adjacent nodes. The physical Transputer
/// link is bidirectional but full-duplex, so each direction is modelled as
/// its own serializing resource.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Channel {
    /// Sending endpoint.
    pub from: NodeId,
    /// Receiving endpoint.
    pub to: NodeId,
}

impl Channel {
    /// Display label, e.g. `"3->7"` (used by observability exporters).
    pub fn label(&self) -> String {
        format!("{}->{}", self.from, self.to)
    }
}

/// The interconnection shapes studied in the paper (§3.1) plus two extras
/// used by tests and ablations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TopologyKind {
    /// Chain: node i connected to i±1.
    Linear,
    /// Chain with wraparound.
    Ring,
    /// 2-D mesh, `rows x cols`, no wraparound.
    Mesh {
        /// Number of rows.
        rows: u32,
        /// Number of columns.
        cols: u32,
    },
    /// Binary hypercube of the given dimension.
    Hypercube {
        /// log2 of the node count.
        dim: u8,
    },
    /// 2-D torus (mesh with wraparound), `rows x cols`.
    Torus {
        /// Number of rows.
        rows: u32,
        /// Number of columns.
        cols: u32,
    },
    /// Complete binary tree rooted at node 0 (children of `i` are `2i+1`,
    /// `2i+2`).
    Tree,
    /// Every node adjacent to node 0 (used in unit tests).
    Star,
    /// All pairs adjacent (an idealized crossbar; used in ablations).
    Complete,
    /// Three-level k-ary fat-tree (k even): `k³/4` hosts, `k²/2` edge
    /// switches, `k²/2` aggregation switches, `k²/4` core switches, all
    /// modelled as processors (switches double as compute nodes, as
    /// Transputers did). `k = 0` asks [`crate::build::by_kind`] to derive
    /// `k` from the requested node count.
    FatTree {
        /// Switch radix (even, ≥ 2).
        k: u16,
    },
    /// Dragonfly: `a·h + 1` groups of `a` routers (complete graph within a
    /// group), `p` terminals per router, `h` global links per router, one
    /// global link between every group pair. Routers and terminals are
    /// both processors. All-zero parameters ask
    /// [`crate::build::by_kind`] to derive a balanced `(2h, h, h)`
    /// configuration from the requested node count.
    Dragonfly {
        /// Routers per group.
        a: u16,
        /// Terminals per router.
        p: u16,
        /// Global links per router.
        h: u16,
    },
}

impl TopologyKind {
    /// The single-letter label used on the paper's figure axes
    /// (`L`, `R`, `M`, `H`); extras get lowercase letters.
    pub fn label(&self) -> &'static str {
        match self {
            TopologyKind::Linear => "L",
            TopologyKind::Ring => "R",
            TopologyKind::Mesh { .. } => "M",
            TopologyKind::Hypercube { .. } => "H",
            TopologyKind::Torus { .. } => "T",
            TopologyKind::Tree => "t",
            TopologyKind::Star => "s",
            TopologyKind::Complete => "c",
            TopologyKind::FatTree { .. } => "F",
            TopologyKind::Dragonfly { .. } => "D",
        }
    }
}

impl fmt::Display for TopologyKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TopologyKind::Linear => write!(f, "linear"),
            TopologyKind::Ring => write!(f, "ring"),
            TopologyKind::Mesh { rows, cols } => write!(f, "mesh{rows}x{cols}"),
            TopologyKind::Hypercube { dim } => write!(f, "hypercube{dim}"),
            TopologyKind::Torus { rows, cols } => write!(f, "torus{rows}x{cols}"),
            TopologyKind::Tree => write!(f, "tree"),
            TopologyKind::Star => write!(f, "star"),
            TopologyKind::Complete => write!(f, "complete"),
            TopologyKind::FatTree { k } => write!(f, "fattree{k}"),
            TopologyKind::Dragonfly { a, p, h } => write!(f, "dragonfly{a}x{p}x{h}"),
        }
    }
}

/// An undirected interconnection network over `n` nodes, stored as sorted
/// adjacency lists. Immutable once built, so clones share the adjacency:
/// a clone is O(1), and every partition of a plan holds the one shape.
#[derive(Debug, Clone)]
pub struct Topology {
    kind: TopologyKind,
    adj: Arc<[Vec<NodeId>]>,
}

impl Topology {
    /// Build from adjacency lists. Lists are normalized (sorted, deduped);
    /// the graph is validated to be simple, symmetric and loop-free.
    ///
    /// # Panics
    /// Panics on a malformed graph (asymmetric edge, self-loop, index out of
    /// range, more than [`MAX_NODES`] nodes) — topologies are constructed by
    /// this crate's builders, so a malformed one is a programming error.
    pub fn from_adjacency(kind: TopologyKind, mut adj: Vec<Vec<NodeId>>) -> Topology {
        let n = adj.len();
        assert!(n <= MAX_NODES, "adjacency exceeds the {MAX_NODES}-node ceiling");
        for (i, list) in adj.iter_mut().enumerate() {
            list.sort_unstable();
            list.dedup();
            for &nb in list.iter() {
                assert!(nb.idx() < n, "adjacency index out of range");
                assert!(nb.idx() != i, "self-loop at node {i}");
            }
        }
        // Symmetry check.
        for i in 0..n {
            let id = NodeId::from_index(i);
            for &nb in &adj[i] {
                assert!(
                    adj[nb.idx()].binary_search(&id).is_ok(),
                    "edge {i}->{nb} has no reverse"
                );
            }
        }
        Topology { kind, adj: adj.into() }
    }

    /// True when `other` is the same network: the same kind and adjacency.
    /// Clones of one topology answer without comparing the lists.
    pub fn same_shape(&self, other: &Topology) -> bool {
        self.kind == other.kind && (Arc::ptr_eq(&self.adj, &other.adj) || self.adj == other.adj)
    }

    /// The shape this network was built as.
    pub fn kind(&self) -> TopologyKind {
        self.kind
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.adj.len()
    }

    /// True for the empty network.
    pub fn is_empty(&self) -> bool {
        self.adj.is_empty()
    }

    /// All node ids, in order.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.adj.len()).map(NodeId::from_index)
    }

    /// Neighbors of `node`, ascending.
    pub fn neighbors(&self, node: NodeId) -> &[NodeId] {
        &self.adj[node.idx()]
    }

    /// Degree of `node`.
    pub fn degree(&self, node: NodeId) -> usize {
        self.adj[node.idx()].len()
    }

    /// True if `a` and `b` are directly connected.
    pub fn adjacent(&self, a: NodeId, b: NodeId) -> bool {
        self.adj[a.idx()].binary_search(&b).is_ok()
    }

    /// Every directed channel (both directions of every edge), emitted in
    /// ascending `(from, to)` order (the wiring layer's CSR channel index
    /// relies on this ordering).
    pub fn channels(&self) -> impl Iterator<Item = Channel> + '_ {
        self.adj.iter().enumerate().flat_map(|(i, list)| {
            list.iter().map(move |&to| Channel {
                from: NodeId::from_index(i),
                to,
            })
        })
    }

    /// Number of undirected edges.
    pub fn edge_count(&self) -> usize {
        self.adj.iter().map(|l| l.len()).sum::<usize>() / 2
    }

    /// Maximum node degree.
    pub fn max_degree(&self) -> usize {
        self.adj.iter().map(|l| l.len()).max().unwrap_or(0)
    }

    /// BFS distances from `src` to every node (`u32::MAX` if unreachable).
    pub fn bfs_distances(&self, src: NodeId) -> Vec<u32> {
        let mut dist = vec![u32::MAX; self.len()];
        let mut queue = std::collections::VecDeque::new();
        dist[src.idx()] = 0;
        queue.push_back(src);
        while let Some(u) = queue.pop_front() {
            let du = dist[u.idx()];
            for &v in self.neighbors(u) {
                if dist[v.idx()] == u32::MAX {
                    dist[v.idx()] = du + 1;
                    queue.push_back(v);
                }
            }
        }
        dist
    }

    /// True if every node can reach every other.
    pub fn is_connected(&self) -> bool {
        if self.is_empty() {
            return true;
        }
        self.bfs_distances(NodeId(0)).iter().all(|&d| d != u32::MAX)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn path3() -> Topology {
        Topology::from_adjacency(
            TopologyKind::Linear,
            vec![vec![NodeId(1)], vec![NodeId(0), NodeId(2)], vec![NodeId(1)]],
        )
    }

    #[test]
    fn basic_accessors() {
        let t = path3();
        assert_eq!(t.len(), 3);
        assert_eq!(t.edge_count(), 2);
        assert_eq!(t.degree(NodeId(1)), 2);
        assert!(t.adjacent(NodeId(0), NodeId(1)));
        assert!(!t.adjacent(NodeId(0), NodeId(2)));
        assert_eq!(t.max_degree(), 2);
        assert!(t.is_connected());
    }

    #[test]
    fn same_shape_compares_kind_and_adjacency() {
        let t = path3();
        assert!(t.same_shape(&t.clone()));
        assert!(t.same_shape(&path3()), "separately built, same graph");
        let ring = Topology::from_adjacency(
            TopologyKind::Ring,
            vec![vec![NodeId(1)], vec![NodeId(0), NodeId(2)], vec![NodeId(1)]],
        );
        assert!(!t.same_shape(&ring), "same graph, different kind");
        let star = Topology::from_adjacency(
            TopologyKind::Linear,
            vec![vec![NodeId(1), NodeId(2)], vec![NodeId(0)], vec![NodeId(0)]],
        );
        assert!(!t.same_shape(&star), "same kind, different graph");
    }

    #[test]
    fn channels_are_directed_pairs() {
        let t = path3();
        let chans: Vec<Channel> = t.channels().collect();
        assert_eq!(chans.len(), 4); // two edges, both directions
        assert!(chans.contains(&Channel { from: NodeId(0), to: NodeId(1) }));
        assert!(chans.contains(&Channel { from: NodeId(1), to: NodeId(0) }));
    }

    #[test]
    fn channels_emit_in_ascending_from_to_order() {
        let t = path3();
        let chans: Vec<(u32, u32)> =
            t.channels().map(|c| (c.from.0, c.to.0)).collect();
        let mut sorted = chans.clone();
        sorted.sort_unstable();
        assert_eq!(chans, sorted, "CSR wiring depends on this order");
    }

    #[test]
    #[should_panic(expected = "no reverse")]
    fn asymmetric_graph_rejected() {
        Topology::from_adjacency(
            TopologyKind::Linear,
            vec![vec![NodeId(1)], vec![]],
        );
    }

    #[test]
    #[should_panic(expected = "self-loop")]
    fn self_loop_rejected() {
        Topology::from_adjacency(TopologyKind::Linear, vec![vec![NodeId(0)]]);
    }

    #[test]
    fn bfs_distances_on_path() {
        let t = path3();
        assert_eq!(t.bfs_distances(NodeId(0)), vec![0, 1, 2]);
        assert_eq!(t.bfs_distances(NodeId(1)), vec![1, 0, 1]);
    }

    #[test]
    fn disconnected_graph_detected() {
        let t = Topology::from_adjacency(
            TopologyKind::Linear,
            vec![vec![NodeId(1)], vec![NodeId(0)], vec![NodeId(3)], vec![NodeId(2)]],
        );
        assert!(!t.is_connected());
    }

    #[test]
    fn node_id_checked_conversions() {
        assert_eq!(NodeId::try_from_index(7), Ok(NodeId(7)));
        assert_eq!(NodeId::try_from(MAX_NODES), Ok(NodeId(u32::MAX)));
        assert!(matches!(
            NodeId::try_from_index(MAX_NODES + 1),
            Err(TopologyError::TooManyNodes { .. })
        ));
    }

    #[test]
    fn topology_error_messages_name_the_shape() {
        let e = TopologyError::TooManyNodes {
            shape: "mesh",
            requested: 1 << 33,
            max: MAX_NODES as u64,
        };
        assert!(e.to_string().contains("mesh"), "{e}");
        assert!(e.to_string().contains("ceiling"), "{e}");
        let e = TopologyError::Unrealizable { shape: "hypercube", n: 6 };
        assert!(e.to_string().contains("hypercube"), "{e}");
        let e = TopologyError::Empty { shape: "ring" };
        assert!(e.to_string().contains("at least one"), "{e}");
    }
}
