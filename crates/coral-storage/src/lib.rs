//! Trajectory and frame storage for Coral-Pie.
//!
//! The paper offloads persistence from the per-camera devices to nearby
//! edge nodes (§4.2): a JanusGraph trajectory store and a raw-frame store.
//! This crate is the embedded substitute:
//!
//! - [`TrajectoryGraph`] — the composite probabilistic graph: vertices are
//!   detection events, weighted edges are claimed re-identifications
//!   (Bhattacharyya distance), multiple in/out edges allowed. Kept as the
//!   flat reference implementation (and the merged read view).
//! - [`ShardedTrajectoryGraph`] — the concurrently-readable store: key-range
//!   shards over a space-time key (camera region × time bucket), per-shard
//!   locks, a cross-shard edge index, keep-first edge ingest and
//!   checksummed snapshot/restore.
//! - [`query`] — trajectory traversal from a seed detection, forward and
//!   backward, with weight/hop pruning, generic over an [`EdgeSource`].
//! - [`snapshot`] — the versioned per-shard on-disk format with manifest +
//!   checksums behind [`EdgeStorageNode::snapshot_to`] and
//!   [`EdgeStorageNode::restore_from_snapshot`].
//! - [`FrameStore`] — bounded per-camera raw-frame retention with
//!   annotations and time-window queries.
//! - [`EdgeStorageNode`] — the thread-safe edge-node façade shared by
//!   camera nodes, now also the concurrent query plane (trajectory,
//!   vehicles-through-camera, space-time-window scans).

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod federation;
pub mod frames;
pub mod graph;
pub mod query;
pub mod server;
pub mod shard;
pub mod snapshot;

pub use federation::{merged_flat, FederatedStores, VertexAllocator};
pub use frames::{Annotation, FrameStore, StoredFrame};
pub use graph::{GraphError, TrajectoryEdge, TrajectoryGraph, VertexRecord};
pub use query::{
    trajectory, trajectory_over, Direction, EdgeSource, QueryOptions, TrajectoryPath,
    TrajectoryQueryResult,
};
pub use server::{EdgeStorageNode, StorageStats};
pub use shard::{ShardReadTxn, ShardedTrajectoryGraph, StorageConfig};
pub use snapshot::SnapshotError;
