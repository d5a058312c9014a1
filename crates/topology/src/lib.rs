//! # parsched-topology
//!
//! Interconnection networks for the simulated Transputer multicomputer:
//! the four topologies the paper configures (linear array, ring, 2-D mesh,
//! hypercube) plus test/ablation extras and two modern shapes (k-ary
//! [fat-trees](build::fat_tree) and [dragonflies](build::dragonfly)),
//! deterministic [routing](route) (BFS, dimension-order, e-cube,
//! up*/down*, dragonfly minimal/Valiant),
//! [virtual-channel classes and deadlock analysis](flow) for the wormhole
//! interconnect, [graph metrics](mod@metrics) (diameter, average distance,
//! bisection width), and the [partitioning](partition) of the system into
//! equal sub-machines used by the space-sharing and hybrid policies.
//!
//! Node ids are 32-bit: machines up to `u32::MAX` nodes can be addressed,
//! and every builder returns a typed [`TopologyError`] (instead of
//! silently wrapping indices) when a request exceeds that ceiling.
//!
//! ```
//! use parsched_topology::{build, route::Router, types::NodeId};
//!
//! let cube = build::hypercube(4).unwrap(); // the 16-node machine as a hypercube
//! let router = Router::for_topology(&cube);
//! assert_eq!(router.hops(NodeId(0b0000), NodeId(0b1111)), 4);
//! assert!(build::mesh(1 << 16, 1 << 16).is_err()); // 2^32 nodes: too many
//! ```

#![warn(missing_docs)]
// The silent-truncation bug class this crate once had (bare `as u16` node
// index casts wrapping past 65 536 nodes) stays fixed: no lossy numeric
// cast may be written here without an explicit, justified `allow`.
#![deny(clippy::cast_possible_truncation)]

pub mod build;
pub mod flow;
pub mod metrics;
pub mod partition;
pub mod route;
pub mod shard;
pub mod types;

pub use build::{
    binary_tree, by_kind, complete, dragonfly, dragonfly_for, dragonfly_size, fat_tree,
    fat_tree_for, fat_tree_size, hypercube, linear, mesh, mesh_for, nap_backbone, ring,
    star, torus, torus_for, DragonflyGeom, FatTreeGeom, COMPLETE_MAX_NODES,
};
pub use flow::{channel_dependency_cycle, vc_class_count, vc_classes};
pub use metrics::{bisection_width, diameter, distance, metrics, TopologyMetrics};
pub use partition::{config_label, paper_configs, Partition, PartitionPlan, PlanError};
pub use route::Router;
pub use shard::ShardPlan;
pub use types::{Channel, NodeId, Topology, TopologyError, TopologyKind, MAX_NODES};
