//! The edge storage node: a thread-safe façade over the sharded
//! trajectory store and frame store.
//!
//! "A given Edge node may serve as the persistent store for a small set of
//! cameras in the same geographical neighborhood" (paper §4.2). Camera
//! nodes hold a `StorageClient` handle (defined in `coral-core`); the
//! multi-threaded examples share one [`EdgeStorageNode`] across camera
//! threads, while the discrete-event experiments call it directly with
//! simulated latency. Since the sharding work, the node serves the
//! concurrent query plane too: trajectory-of-vehicle,
//! vehicles-through-camera and space-time-window scans all run under
//! shard read locks, so readers never block each other and ingest on one
//! shard never stalls reads on another.

use crate::federation::VertexAllocator;
use crate::frames::{FrameStore, StoredFrame};
use crate::graph::{GraphError, TrajectoryGraph};
use crate::query::{QueryOptions, TrajectoryQueryResult};
use crate::shard::{ShardedTrajectoryGraph, StorageConfig};
use crate::snapshot::SnapshotError;
use coral_geo::Heading;
use coral_net::{EventId, VertexId};
use coral_obs::{Histogram, Registry};
use coral_topology::CameraId;
use coral_vision::{ColorHistogram, GroundTruthId};
use parking_lot::{Mutex, RwLock};
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// The lazily-rebuilt merged flat view, keyed by the mutation stamp it
/// was built at.
type FlatCache = Arc<Mutex<Option<(u64, Arc<TrajectoryGraph>)>>>;

/// Per-operation latency histograms for an instrumented storage node.
#[derive(Debug, Clone)]
struct StorageMetrics {
    insert_event: Histogram,
    insert_edge: Histogram,
    ingest_frame: Histogram,
    query_trajectory: Histogram,
    query_camera: Histogram,
    query_window: Histogram,
}

/// Named storage counters — what [`EdgeStorageNode::stats`] reports.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StorageStats {
    /// Vertices in the trajectory graph.
    pub vertices: usize,
    /// Edges across all shards, one per distinct `(from, to)` pair.
    pub edges: usize,
    /// Frames ever ingested into the frame store.
    pub frames_ingested: u64,
    /// Raw bytes retained in the frame store.
    pub frame_bytes: u64,
    /// Number of key-range shards.
    pub shards: usize,
    /// Handoff edges whose endpoints live on different shards.
    pub cross_shard_edges: usize,
}

/// A shared edge storage node.
#[derive(Debug, Clone)]
pub struct EdgeStorageNode {
    graph: Arc<ShardedTrajectoryGraph>,
    frames: Arc<RwLock<FrameStore>>,
    // Shared across clones so `instrument` can be called after camera
    // threads already hold their handles.
    metrics: Arc<RwLock<Option<StorageMetrics>>>,
    // Merged flat view, rebuilt lazily and keyed by the store's mutation
    // stamp: `with_graph` callers (evaluation, reports, examples) get the
    // exact graph a flat ingest of the same stream would have built.
    flat_cache: FlatCache,
}

impl EdgeStorageNode {
    /// Creates a single-shard node retaining up to
    /// `frame_capacity_per_camera` raw frames per camera.
    pub fn new(frame_capacity_per_camera: usize) -> Self {
        Self::with_config(frame_capacity_per_camera, StorageConfig::default())
    }

    /// Creates a node with an explicit shard configuration.
    pub fn with_config(frame_capacity_per_camera: usize, config: StorageConfig) -> Self {
        Self::from_graph(
            ShardedTrajectoryGraph::new(config),
            frame_capacity_per_camera,
        )
    }

    /// Creates a node whose store draws vertex ids and edge sequence
    /// numbers from a shared [`VertexAllocator`] — one region's store of
    /// a federated deployment.
    pub fn with_allocator(
        frame_capacity_per_camera: usize,
        config: StorageConfig,
        alloc: Arc<VertexAllocator>,
    ) -> Self {
        Self::from_graph(
            ShardedTrajectoryGraph::with_allocator(config, alloc),
            frame_capacity_per_camera,
        )
    }

    fn from_graph(graph: ShardedTrajectoryGraph, frame_capacity_per_camera: usize) -> Self {
        Self {
            graph: Arc::new(graph),
            frames: Arc::new(RwLock::new(FrameStore::new(frame_capacity_per_camera))),
            metrics: Arc::new(RwLock::new(None)),
            flat_cache: Arc::new(Mutex::new(None)),
        }
    }

    /// The sharded store behind this node (shard-aware callers: benches,
    /// the equivalence tests).
    pub fn sharded(&self) -> &ShardedTrajectoryGraph {
        &self.graph
    }

    /// Starts publishing per-operation write/query latencies into
    /// `registry` (histograms `storage_write_latency_us{op=...}` and
    /// `storage_query_latency_us{op=...}`). Affects every clone of this
    /// node, including handles created before the call.
    pub fn instrument(&self, registry: &Registry) {
        *self.metrics.write() = Some(StorageMetrics {
            insert_event: registry.histogram("storage_write_latency_us", &[("op", "insert_event")]),
            insert_edge: registry.histogram("storage_write_latency_us", &[("op", "insert_edge")]),
            ingest_frame: registry.histogram("storage_write_latency_us", &[("op", "ingest_frame")]),
            query_trajectory: registry
                .histogram("storage_query_latency_us", &[("op", "query_trajectory")]),
            query_camera: registry.histogram(
                "storage_query_latency_us",
                &[("op", "vehicles_through_camera")],
            ),
            query_window: registry.histogram("storage_query_latency_us", &[("op", "scan_window")]),
        });
    }

    /// Runs `f`, timing it into the histogram chosen by `select` when the
    /// node is instrumented. The metrics lock is released before `f` runs
    /// so the measured interval covers only the storage operation.
    fn timed<R>(
        &self,
        select: impl FnOnce(&StorageMetrics) -> &Histogram,
        f: impl FnOnce() -> R,
    ) -> R {
        let hist = self.metrics.read().as_ref().map(|m| select(m).clone());
        match hist {
            Some(h) => {
                let start = Instant::now();
                let r = f();
                h.observe(start.elapsed());
                r
            }
            None => f(),
        }
    }

    /// Inserts (or finds) the vertex for a detection event; returns its id.
    pub fn insert_event(
        &self,
        event: EventId,
        first_seen_ms: u64,
        last_seen_ms: u64,
        heading: Option<Heading>,
        ground_truth: Option<GroundTruthId>,
    ) -> VertexId {
        self.timed(
            |m| &m.insert_event,
            || {
                self.graph
                    .insert_event(event, first_seen_ms, last_seen_ms, heading, ground_truth)
            },
        )
    }

    /// Inserts a vertex carrying its appearance signature.
    pub fn insert_event_with_signature(
        &self,
        event: EventId,
        first_seen_ms: u64,
        last_seen_ms: u64,
        heading: Option<Heading>,
        signature: Option<ColorHistogram>,
        ground_truth: Option<GroundTruthId>,
    ) -> VertexId {
        self.timed(
            |m| &m.insert_event,
            || {
                self.graph.insert_event_with_signature(
                    event,
                    first_seen_ms,
                    last_seen_ms,
                    heading,
                    signature,
                    ground_truth,
                )
            },
        )
    }

    /// Adopts a vertex another region's store allocated, at its existing
    /// federation-wide id (replication ingest; see
    /// [`ShardedTrajectoryGraph::adopt_event`]). Idempotent keep-first by
    /// event id.
    #[allow(clippy::too_many_arguments)]
    pub fn adopt_event(
        &self,
        id: VertexId,
        event: EventId,
        first_seen_ms: u64,
        last_seen_ms: u64,
        heading: Option<Heading>,
        signature: Option<ColorHistogram>,
        ground_truth: Option<GroundTruthId>,
    ) -> VertexId {
        self.timed(
            |m| &m.insert_event,
            || {
                self.graph.adopt_event(
                    id,
                    event,
                    first_seen_ms,
                    last_seen_ms,
                    heading,
                    signature,
                    ground_truth,
                )
            },
        )
    }

    /// Query-by-appearance: the `k` detections nearest to `query` under
    /// `max_distance` (see
    /// [`ShardedTrajectoryGraph::nearest_by_signature`]).
    pub fn find_by_appearance(
        &self,
        query: &ColorHistogram,
        k: usize,
        max_distance: f64,
    ) -> Vec<(VertexId, f64)> {
        self.graph.nearest_by_signature(query, k, max_distance)
    }

    /// Inserts a re-identification edge.
    ///
    /// # Errors
    ///
    /// Propagates [`GraphError`] for invalid endpoints or weights.
    pub fn insert_edge(&self, from: VertexId, to: VertexId, weight: f64) -> Result<(), GraphError> {
        self.timed(
            |m| &m.insert_edge,
            || self.graph.insert_edge(from, to, weight),
        )
    }

    /// Runs a trajectory query under a shard read transaction.
    ///
    /// # Errors
    ///
    /// Propagates [`GraphError::UnknownVertex`] for an invalid seed.
    pub fn query_trajectory(
        &self,
        seed: VertexId,
        opts: QueryOptions,
    ) -> Result<TrajectoryQueryResult, GraphError> {
        self.timed(
            |m| &m.query_trajectory,
            || self.graph.trajectory(seed, opts),
        )
    }

    /// Vertices detected by `camera` whose in-view interval overlaps
    /// `[start_ms, end_ms]`, ascending by id. Served from the camera's
    /// region shards only (bucket-range pruning).
    pub fn vehicles_through_camera(
        &self,
        camera: CameraId,
        start_ms: u64,
        end_ms: u64,
    ) -> Vec<VertexId> {
        self.timed(
            |m| &m.query_camera,
            || self.graph.vehicles_through_camera(camera, start_ms, end_ms),
        )
    }

    /// Space-time-window scan: vertices (any camera) whose in-view
    /// interval overlaps `[start_ms, end_ms]`, ascending by id.
    pub fn scan_window(&self, start_ms: u64, end_ms: u64) -> Vec<VertexId> {
        self.timed(
            |m| &m.query_window,
            || self.graph.scan_window(start_ms, end_ms),
        )
    }

    /// The vertex for `event`, if stored.
    pub fn vertex_for_event(&self, event: EventId) -> Option<VertexId> {
        self.graph.vertex_for_event(event)
    }

    /// Writes a snapshot of the trajectory store into directory `dir`
    /// (per-shard files + checksummed manifest; see the
    /// [`crate::snapshot`] module docs). The frame store's ring buffers
    /// are deliberately not snapshotted: raw frames are a bounded cache,
    /// not durable state.
    ///
    /// # Errors
    ///
    /// Returns [`SnapshotError::Io`] on filesystem failures.
    pub fn snapshot_to(&self, dir: &Path) -> Result<(), SnapshotError> {
        self.graph.snapshot_to(dir)
    }

    /// Restores the trajectory store from the snapshot at `dir`,
    /// **in place**: every clone of this node — including the camera
    /// handles wired at deployment time — sees the recovered graph. This
    /// is the storage half of the node-restore path: a restarted storage
    /// node calls this before rejoining.
    ///
    /// # Errors
    ///
    /// Any [`SnapshotError`] (bad checksum, version, layout mismatch);
    /// on failure the store is left untouched.
    pub fn restore_from_snapshot(&self, dir: &Path) -> Result<(), SnapshotError> {
        self.graph.restore_in_place(dir)
    }

    /// Ingests a frame with annotations.
    pub fn ingest_frame(&self, camera: CameraId, frame: StoredFrame) {
        self.timed(
            |m| &m.ingest_frame,
            || self.frames.write().ingest(camera, frame),
        );
    }

    /// Runs `f` with read access to the merged flat view of the
    /// trajectory graph (bulk analytics and the evaluation harness). The
    /// view is rebuilt lazily when the store has changed and cached
    /// otherwise; for any single-writer stream it is byte-identical to
    /// the graph a flat ingest would have produced.
    pub fn with_graph<R>(&self, f: impl FnOnce(&TrajectoryGraph) -> R) -> R {
        let mut cache = self.flat_cache.lock();
        let stamp = self.graph.mutation_stamp();
        let flat = match cache.as_ref() {
            Some((s, g)) if *s == stamp => Arc::clone(g),
            _ => {
                let g = Arc::new(self.graph.to_flat());
                *cache = Some((stamp, Arc::clone(&g)));
                g
            }
        };
        drop(cache);
        f(&flat)
    }

    /// Runs `f` with read access to the frame store.
    pub fn with_frames<R>(&self, f: impl FnOnce(&FrameStore) -> R) -> R {
        f(&self.frames.read())
    }

    /// Current storage counters.
    pub fn stats(&self) -> StorageStats {
        let fr = self.frames.read();
        StorageStats {
            vertices: self.graph.vertex_count(),
            edges: self.graph.edge_count(),
            frames_ingested: fr.frames_ingested(),
            frame_bytes: fr.bytes_stored(),
            shards: self.graph.shard_count(),
            cross_shard_edges: self.graph.cross_shard_edge_count(),
        }
    }
}

impl Default for EdgeStorageNode {
    fn default() -> Self {
        Self::new(512)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use coral_vision::TrackId;

    fn eid(cam: u32, track: u64) -> EventId {
        EventId {
            camera: CameraId(cam),
            track: TrackId(track),
        }
    }

    #[test]
    fn insert_query_roundtrip() {
        let node = EdgeStorageNode::default();
        let a = node.insert_event(eid(0, 1), 0, 1_000, Some(Heading::East), None);
        let b = node.insert_event(eid(1, 3), 9_000, 10_000, Some(Heading::East), None);
        node.insert_edge(a, b, 0.15).unwrap();
        let r = node.query_trajectory(a, QueryOptions::default()).unwrap();
        assert_eq!(r.best_track(), vec![a, b]);
        assert_eq!(node.vertex_for_event(eid(1, 3)), Some(b));
        let s = node.stats();
        assert_eq!((s.vertices, s.edges), (2, 1));
        assert_eq!(s.shards, 1);
    }

    #[test]
    fn concurrent_inserts_from_camera_threads() {
        let node = EdgeStorageNode::default();
        let mut handles = Vec::new();
        for cam in 0..8u32 {
            let n = node.clone();
            handles.push(std::thread::spawn(move || {
                let mut last: Option<VertexId> = None;
                for t in 0..50u64 {
                    let v = n.insert_event(eid(cam, t), t * 10, t * 10 + 5, None, None);
                    if let Some(prev) = last {
                        n.insert_edge(prev, v, 0.1).unwrap();
                    }
                    last = Some(v);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let s = node.stats();
        assert_eq!(s.vertices, 8 * 50);
        assert_eq!(s.edges, 8 * 49);
        // Each camera's chain is intact.
        let seed = node.vertex_for_event(eid(3, 0)).unwrap();
        let r = node
            .query_trajectory(seed, QueryOptions::default())
            .unwrap();
        assert_eq!(r.best_track().len(), 50);
    }

    #[test]
    fn sharded_node_keeps_camera_chains_intact() {
        // Same workload as above, but across 4 shards with a small time
        // bucket so chains cross shard boundaries.
        let node = EdgeStorageNode::with_config(
            4,
            StorageConfig {
                shard_count: 4,
                time_bucket_ms: 100,
                cameras_per_region: 2,
            },
        );
        let mut handles = Vec::new();
        for cam in 0..8u32 {
            let n = node.clone();
            handles.push(std::thread::spawn(move || {
                let mut last: Option<VertexId> = None;
                for t in 0..50u64 {
                    let v = n.insert_event(eid(cam, t), t * 60, t * 60 + 30, None, None);
                    if let Some(prev) = last {
                        n.insert_edge(prev, v, 0.1).unwrap();
                    }
                    last = Some(v);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let s = node.stats();
        assert_eq!(s.vertices, 8 * 50);
        assert_eq!(s.edges, 8 * 49);
        assert_eq!(s.shards, 4);
        assert!(s.cross_shard_edges > 0, "chains must span shards: {s:?}");
        for cam in 0..8u32 {
            let seed = node.vertex_for_event(eid(cam, 0)).unwrap();
            let r = node
                .query_trajectory(seed, QueryOptions::default())
                .unwrap();
            assert_eq!(r.best_track().len(), 50, "camera {cam}");
        }
    }

    #[test]
    fn camera_and_window_queries() {
        let node = EdgeStorageNode::default();
        let a = node.insert_event(eid(0, 1), 0, 1_000, None, None);
        let b = node.insert_event(eid(0, 2), 5_000, 6_000, None, None);
        let c = node.insert_event(eid(1, 1), 2_000, 3_000, None, None);
        assert_eq!(
            node.vehicles_through_camera(CameraId(0), 0, 10_000),
            vec![a, b]
        );
        assert_eq!(node.vehicles_through_camera(CameraId(0), 0, 1_500), vec![a]);
        assert_eq!(node.vehicles_through_camera(CameraId(2), 0, 10_000), vec![]);
        assert_eq!(node.scan_window(0, 2_500), vec![a, c]);
        assert_eq!(node.scan_window(900, 2_100), vec![a, c]);
        assert_eq!(node.scan_window(7_000, 9_000), vec![]);
    }

    #[test]
    fn instrument_times_writes_across_clones() {
        let node = EdgeStorageNode::default();
        // Clone first: instrumentation must still reach this handle.
        let handle = node.clone();
        let registry = Registry::new();
        node.instrument(&registry);
        let a = handle.insert_event(eid(0, 1), 0, 10, None, None);
        let b = handle.insert_event(eid(1, 2), 20, 30, None, None);
        handle.insert_edge(a, b, 0.2).unwrap();
        handle.query_trajectory(a, QueryOptions::default()).unwrap();
        handle.vehicles_through_camera(CameraId(0), 0, 100);
        handle.scan_window(0, 100);
        assert_eq!(
            registry
                .histogram("storage_write_latency_us", &[("op", "insert_event")])
                .count(),
            2
        );
        assert_eq!(
            registry
                .histogram("storage_write_latency_us", &[("op", "insert_edge")])
                .count(),
            1
        );
        assert_eq!(
            registry
                .histogram("storage_query_latency_us", &[("op", "query_trajectory")])
                .count(),
            1
        );
        assert_eq!(
            registry
                .histogram(
                    "storage_query_latency_us",
                    &[("op", "vehicles_through_camera")]
                )
                .count(),
            1
        );
        assert_eq!(
            registry
                .histogram("storage_query_latency_us", &[("op", "scan_window")])
                .count(),
            1
        );
    }

    #[test]
    fn frame_ingestion_counts() {
        use coral_vision::{Frame, FrameId, Rgb};
        let node = EdgeStorageNode::new(4);
        node.ingest_frame(
            CameraId(0),
            StoredFrame {
                frame: FrameId(1),
                timestamp_ms: 50,
                pixels: Some(Frame::filled(4, 4, Rgb::default())),
                annotations: Vec::new(),
            },
        );
        let s = node.stats();
        assert_eq!(s.frames_ingested, 1);
        assert_eq!(s.frame_bytes, 48);
        assert_eq!(node.with_frames(|f| f.retained(CameraId(0))), 1);
    }

    #[test]
    fn with_graph_cache_tracks_mutations() {
        let node = EdgeStorageNode::default();
        let a = node.insert_event(eid(0, 1), 0, 10, None, None);
        assert_eq!(node.with_graph(|g| g.vertex_count()), 1);
        // Cached view must not go stale after further writes.
        let b = node.insert_event(eid(1, 1), 20, 30, None, None);
        node.insert_edge(a, b, 0.2).unwrap();
        assert_eq!(
            node.with_graph(|g| (g.vertex_count(), g.edge_count())),
            (2, 1)
        );
    }
}
