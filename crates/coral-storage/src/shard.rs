//! The sharded trajectory store: key-range shards over a space-time key.
//!
//! The paper hosts the trajectory graph in JanusGraph on one edge node
//! (§4.2); a city-scale deployment serving millions of user queries needs
//! the store partitioned so ingest on one shard never stalls reads on
//! another. [`ShardedTrajectoryGraph`] routes every vertex to a shard by a
//! deterministic hash of its **space-time key** — the camera's region
//! (`camera / cameras_per_region`) crossed with its arrival time bucket
//! (`first_seen_ms / time_bucket_ms`) — so detections that are near each
//! other in space and time land on the same shard, and a trajectory walk
//! mostly stays shard-local. Handoff edges whose endpoints hash to
//! different shards are tracked in a cross-shard edge index.
//!
//! # Identity with the flat graph
//!
//! Vertex ids are allocated from one store-level counter (serialised by
//! the event-index lock), so ids are contiguous and identical to what the
//! flat [`TrajectoryGraph`] would assign for the same stream — at *any*
//! shard count. [`ShardedTrajectoryGraph::to_flat`] rebuilds the exact
//! flat graph (vertices in id order, edges in global insertion order via
//! per-edge sequence numbers), which is what keeps the golden fingerprints
//! byte-identical and makes shard-vs-flat equivalence property-testable.
//!
//! # Lock order
//!
//! One total order, everywhere: `index` → `shards[0..n]` ascending →
//! `cross`. Writers touch at most two shard locks (both ends of an edge,
//! acquired ascending); readers either take one shard lock (point
//! lookups, camera queries) or all of them (a read transaction for
//! trajectory walks — still concurrent with other readers).
//! Deadlock-freedom follows from the total order; the concurrency stress
//! test in `tests/storage_concurrency.rs` exercises it.

use crate::federation::VertexAllocator;
use crate::graph::{GraphError, TrajectoryEdge, TrajectoryGraph, VertexRecord};
use crate::query::{trajectory_over, Direction, EdgeSource, QueryOptions, TrajectoryQueryResult};
use coral_net::{EventId, VertexId};
use coral_topology::CameraId;
use coral_vision::ColorHistogram;
use parking_lot::{RwLock, RwLockReadGuard};
use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

/// Directory slot for a vertex id this store has never seen: in a
/// federated deployment ids are allocated from a shared plane, so a
/// store's id space has holes where other regions' vertices live. A
/// stand-alone store (the default) never writes a tombstone.
const TOMBSTONE: u16 = u16::MAX;

/// Configuration of the sharded trajectory store.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StorageConfig {
    /// Number of key-range shards (≥ 1). `1` degenerates to a single
    /// shard whose behaviour is byte-identical to the flat graph.
    pub shard_count: usize,
    /// Width of the time bucket in the space-time routing key, ms.
    pub time_bucket_ms: u64,
    /// Cameras per geographic region in the space-time routing key:
    /// camera `c` belongs to region `c / cameras_per_region`.
    pub cameras_per_region: u32,
}

impl Default for StorageConfig {
    fn default() -> Self {
        Self {
            shard_count: 1,
            time_bucket_ms: 60_000,
            cameras_per_region: 16,
        }
    }
}

/// An edge plus its global insertion sequence number and the shard of the
/// *other* endpoint (so traversals hop shards without a directory lookup).
#[derive(Debug, Clone, Copy)]
struct SeqEdge {
    edge: TrajectoryEdge,
    seq: u64,
    peer_shard: u16,
}

/// One independently-lockable shard.
#[derive(Debug, Default)]
struct Shard {
    vertices: BTreeMap<VertexId, VertexRecord>,
    out_edges: BTreeMap<VertexId, Vec<SeqEdge>>,
    in_edges: BTreeMap<VertexId, Vec<SeqEdge>>,
    /// Vertices by detecting camera, ascending by id (push order — ids are
    /// allocated monotonically under the index lock).
    by_camera: BTreeMap<CameraId, Vec<VertexId>>,
}

/// The store-level vertex directory: event → vertex and vertex → shard.
/// Held for writing across the whole of `insert_event`, which serialises
/// vertex allocation and makes `dir` membership imply shard residency.
#[derive(Debug, Default)]
struct EventIndex {
    by_event: HashMap<EventId, VertexId>,
    /// `dir[v]` = shard holding vertex `v`, or [`TOMBSTONE`] for ids held
    /// by other regions of a federation. With a private allocator the
    /// directory is dense and `dir.len()` = next vertex id, as before.
    dir: Vec<u16>,
}

impl EventIndex {
    /// The shard holding `v`, if this store has it.
    fn shard_of(&self, v: VertexId) -> Option<u16> {
        self.dir
            .get(v.0 as usize)
            .copied()
            .filter(|&s| s != TOMBSTONE)
    }

    /// Records that `v` lives on `shard`, padding the directory with
    /// tombstones for any ids other regions hold.
    fn set_shard(&mut self, v: VertexId, shard: u16) {
        let slot = v.0 as usize;
        if slot >= self.dir.len() {
            self.dir.resize(slot, TOMBSTONE);
            self.dir.push(shard);
        } else {
            debug_assert_eq!(self.dir[slot], TOMBSTONE, "vertex id {v} assigned twice");
            self.dir[slot] = shard;
        }
    }
}

/// The sharded, concurrently-readable trajectory store.
///
/// See the module docs for the key scheme, identity guarantees and lock
/// order.
#[derive(Debug)]
pub struct ShardedTrajectoryGraph {
    config: StorageConfig,
    index: RwLock<EventIndex>,
    shards: Vec<RwLock<Shard>>,
    /// Handoff edges whose endpoints live on different shards, keyed by
    /// `(from, to)`.
    cross: RwLock<BTreeMap<(VertexId, VertexId), f64>>,
    /// Physical edge count across all shards.
    edge_count: AtomicUsize,
    /// The vertex-id / edge-sequence plane. Private by default (fresh per
    /// store — byte-identical to the pre-federation counters); shared
    /// across every region's store in a federated deployment.
    alloc: Arc<VertexAllocator>,
    /// Whether `alloc` is shared with other stores (changes snapshot
    /// restore semantics: shared counters only ratchet forward).
    shared_alloc: bool,
    /// Longest in-view interval seen, ms: bounds how far before a query
    /// window a vertex's routing bucket can start, making bucket-range
    /// shard pruning sound.
    max_interval_ms: AtomicU64,
    /// Bumped on every structural change (vertex, edge, restore);
    /// versions the flat-view cache in `EdgeStorageNode`.
    mutations: AtomicU64,
}

/// Deterministic space-time routing hash (FNV-1a over the two key words).
/// Fixed constants, never the std hasher: routing must be identical
/// across processes, runs and restores.
fn space_time_hash(region: u64, bucket: u64) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for w in [region, bucket] {
        for b in w.to_le_bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

impl ShardedTrajectoryGraph {
    /// Creates an empty store with `config` (shard_count clamped to ≥ 1)
    /// and a private id plane.
    pub fn new(config: StorageConfig) -> Self {
        Self::build(config, Arc::new(VertexAllocator::new()), false)
    }

    /// Creates an empty store drawing vertex ids and edge sequence
    /// numbers from a shared [`VertexAllocator`] — one region of a
    /// federated deployment.
    pub fn with_allocator(config: StorageConfig, alloc: Arc<VertexAllocator>) -> Self {
        Self::build(config, alloc, true)
    }

    fn build(config: StorageConfig, alloc: Arc<VertexAllocator>, shared_alloc: bool) -> Self {
        let n = config.shard_count.max(1);
        Self {
            config: StorageConfig {
                shard_count: n,
                ..config
            },
            index: RwLock::new(EventIndex::default()),
            shards: (0..n).map(|_| RwLock::new(Shard::default())).collect(),
            cross: RwLock::new(BTreeMap::new()),
            edge_count: AtomicUsize::new(0),
            alloc,
            shared_alloc,
            max_interval_ms: AtomicU64::new(0),
            mutations: AtomicU64::new(0),
        }
    }

    /// The id plane this store draws from.
    pub fn allocator(&self) -> &Arc<VertexAllocator> {
        &self.alloc
    }

    /// The store configuration.
    pub fn config(&self) -> &StorageConfig {
        &self.config
    }

    /// The shard a detection at `camera` / `first_seen_ms` routes to.
    pub fn route(&self, camera: CameraId, first_seen_ms: u64) -> usize {
        let n = self.config.shard_count;
        if n == 1 {
            return 0;
        }
        let region = u64::from(camera.0) / u64::from(self.config.cameras_per_region.max(1));
        let bucket = first_seen_ms / self.config.time_bucket_ms.max(1);
        (space_time_hash(region, bucket) % n as u64) as usize
    }

    /// Inserts (or finds) the vertex for a detection event. Idempotent by
    /// event id; the original attributes win, as in the flat graph.
    pub fn insert_event(
        &self,
        event: EventId,
        first_seen_ms: u64,
        last_seen_ms: u64,
        heading: Option<coral_geo::Heading>,
        ground_truth: Option<coral_vision::GroundTruthId>,
    ) -> VertexId {
        self.insert_event_with_signature(
            event,
            first_seen_ms,
            last_seen_ms,
            heading,
            None,
            ground_truth,
        )
    }

    /// Inserts a vertex carrying its appearance signature.
    pub fn insert_event_with_signature(
        &self,
        event: EventId,
        first_seen_ms: u64,
        last_seen_ms: u64,
        heading: Option<coral_geo::Heading>,
        signature: Option<ColorHistogram>,
        ground_truth: Option<coral_vision::GroundTruthId>,
    ) -> VertexId {
        let mut idx = self.index.write();
        if let Some(&v) = idx.by_event.get(&event) {
            return v;
        }
        // Allocation under the index write lock: ids this store assigns
        // are in insertion order (and with a private allocator, exactly
        // the old `dir.len()` counter).
        let id = VertexId(self.alloc.allocate_vertex());
        self.store_vertex(
            &mut idx,
            VertexRecord {
                id,
                event,
                camera: event.camera,
                first_seen_ms,
                last_seen_ms,
                heading,
                signature,
                ground_truth,
            },
        );
        id
    }

    /// Adopts a vertex another region allocated: inserts the record at
    /// its existing federation-wide `id` instead of allocating a fresh
    /// one. Idempotent keep-first by event id, like
    /// [`ShardedTrajectoryGraph::insert_event`]; the id plane is advanced
    /// past `id` so a private allocator can never re-issue it.
    #[allow(clippy::too_many_arguments)]
    pub fn adopt_event(
        &self,
        id: VertexId,
        event: EventId,
        first_seen_ms: u64,
        last_seen_ms: u64,
        heading: Option<coral_geo::Heading>,
        signature: Option<ColorHistogram>,
        ground_truth: Option<coral_vision::GroundTruthId>,
    ) -> VertexId {
        let mut idx = self.index.write();
        if let Some(&v) = idx.by_event.get(&event) {
            return v;
        }
        self.alloc.observe_vertex(id.0);
        self.store_vertex(
            &mut idx,
            VertexRecord {
                id,
                event,
                camera: event.camera,
                first_seen_ms,
                last_seen_ms,
                heading,
                signature,
                ground_truth,
            },
        );
        id
    }

    /// Commits `record` into its routed shard and the directory (the
    /// index write lock is already held by the caller).
    fn store_vertex(&self, idx: &mut EventIndex, record: VertexRecord) {
        let id = record.id;
        let event = record.event;
        let shard = self.route(event.camera, record.first_seen_ms);
        // Publish the interval bound before the record becomes visible so
        // bucket-range pruning never misses a long-dwell vertex.
        self.max_interval_ms.fetch_max(
            record.last_seen_ms.saturating_sub(record.first_seen_ms),
            Ordering::SeqCst,
        );
        idx.set_shard(id, shard as u16);
        {
            let mut s = self.shards[shard].write();
            s.vertices.insert(id, record);
            // Adoption can arrive out of id order; keep the per-camera
            // list ascending (local inserts always append).
            let ids = s.by_camera.entry(event.camera).or_default();
            match ids.last() {
                Some(&last) if last > id => {
                    let pos = ids.partition_point(|&v| v < id);
                    ids.insert(pos, id);
                }
                _ => ids.push(id),
            }
        }
        idx.by_event.insert(event, id);
        self.mutations.fetch_add(1, Ordering::SeqCst);
    }

    /// Inserts a weighted re-identification edge `from → to`. Informs are
    /// delivered at least once, so an exact `(from, to)` replay is dropped
    /// keep-first: every out-list holds one edge per target.
    ///
    /// # Errors
    ///
    /// Fails on unknown endpoints, self-loops or invalid weights — in the
    /// same order as the flat graph, so error behaviour is equivalent.
    pub fn insert_edge(&self, from: VertexId, to: VertexId, weight: f64) -> Result<(), GraphError> {
        let (sf, st) = {
            let idx = self.index.read();
            let sf = idx.shard_of(from).ok_or(GraphError::UnknownVertex(from))? as usize;
            let st = idx.shard_of(to).ok_or(GraphError::UnknownVertex(to))? as usize;
            (sf, st)
        };
        if from == to {
            return Err(GraphError::SelfLoop(from));
        }
        if !weight.is_finite() || weight < 0.0 {
            return Err(GraphError::InvalidWeight(weight));
        }
        let edge = TrajectoryEdge { from, to, weight };
        if sf == st {
            let mut s = self.shards[sf].write();
            if has_out_edge(&s, from, to) {
                return Ok(());
            }
            let seq = self.alloc.allocate_edge_seq();
            s.out_edges.entry(from).or_default().push(SeqEdge {
                edge,
                seq,
                peer_shard: st as u16,
            });
            s.in_edges.entry(to).or_default().push(SeqEdge {
                edge,
                seq,
                peer_shard: sf as u16,
            });
        } else {
            // Cross-shard: lock both ends, ascending (the lock order).
            let (lo, hi) = (sf.min(st), sf.max(st));
            let mut g_lo = self.shards[lo].write();
            let mut g_hi = self.shards[hi].write();
            let (out_shard, in_shard) = if sf == lo {
                (&mut *g_lo, &mut *g_hi)
            } else {
                (&mut *g_hi, &mut *g_lo)
            };
            if has_out_edge(out_shard, from, to) {
                return Ok(());
            }
            let seq = self.alloc.allocate_edge_seq();
            out_shard.out_edges.entry(from).or_default().push(SeqEdge {
                edge,
                seq,
                peer_shard: st as u16,
            });
            in_shard.in_edges.entry(to).or_default().push(SeqEdge {
                edge,
                seq,
                peer_shard: sf as u16,
            });
            drop(g_hi);
            drop(g_lo);
            self.cross.write().entry((from, to)).or_insert(weight);
        }
        self.edge_count.fetch_add(1, Ordering::SeqCst);
        self.mutations.fetch_add(1, Ordering::SeqCst);
        Ok(())
    }

    /// Looks up a vertex (cloned out of its shard).
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::UnknownVertex`] for unassigned ids.
    pub fn vertex(&self, id: VertexId) -> Result<VertexRecord, GraphError> {
        let shard = self
            .index
            .read()
            .shard_of(id)
            .ok_or(GraphError::UnknownVertex(id))?;
        let s = self.shards[shard as usize].read();
        s.vertices
            .get(&id)
            .cloned()
            .ok_or(GraphError::UnknownVertex(id))
    }

    /// The vertex created for `event`, if any.
    pub fn vertex_for_event(&self, event: EventId) -> Option<VertexId> {
        self.index.read().by_event.get(&event).copied()
    }

    /// Number of vertices this store holds (owned plus adopted).
    pub fn vertex_count(&self) -> usize {
        self.index.read().by_event.len()
    }

    /// Number of edges across all shards — one per distinct `(from, to)`
    /// pair, the same count the flat graph reports.
    pub fn edge_count(&self) -> usize {
        self.edge_count.load(Ordering::SeqCst)
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Number of handoff edges whose endpoints live on different shards.
    pub fn cross_shard_edge_count(&self) -> usize {
        self.cross.read().len()
    }

    /// Structural version stamp: bumped on every vertex insert, edge
    /// insert and restore.
    pub fn mutation_stamp(&self) -> u64 {
        self.mutations.load(Ordering::SeqCst)
    }

    /// Opens a read transaction holding every shard's read lock (taken in
    /// ascending order). Concurrent with other readers and with nothing
    /// held across user code that could re-enter the store.
    pub fn read_txn(&self) -> ShardReadTxn<'_> {
        ShardReadTxn {
            guards: self.shards.iter().map(|s| s.read()).collect(),
            locate: HashMap::new(),
        }
    }

    /// Queries the trajectory of the vehicle seen at `seed` under a read
    /// transaction — answers are identical to the flat graph's
    /// [`crate::trajectory`] on the merged view.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::UnknownVertex`] for an invalid seed.
    pub fn trajectory(
        &self,
        seed: VertexId,
        opts: QueryOptions,
    ) -> Result<TrajectoryQueryResult, GraphError> {
        let mut txn = self.read_txn();
        trajectory_over(&mut txn, seed, opts)
    }

    /// The shards a camera-region query over `[start_ms, end_ms]` can
    /// touch, given the routing key and the observed interval bound.
    fn shards_for_window(&self, region: u64, start_ms: u64, end_ms: u64) -> Vec<usize> {
        let n = self.config.shard_count;
        if n == 1 {
            return vec![0];
        }
        let bucket_ms = self.config.time_bucket_ms.max(1);
        let lo = start_ms.saturating_sub(self.max_interval_ms.load(Ordering::SeqCst)) / bucket_ms;
        let hi = end_ms / bucket_ms;
        if hi.saturating_sub(lo) + 1 >= n as u64 {
            return (0..n).collect();
        }
        let mut shards: Vec<usize> = (lo..=hi)
            .map(|b| (space_time_hash(region, b) % n as u64) as usize)
            .collect();
        shards.sort_unstable();
        shards.dedup();
        shards
    }

    /// Vertices detected by `camera` whose in-view interval overlaps
    /// `[start_ms, end_ms]`, ascending by id. Shards outside the window's
    /// bucket range are pruned without locking them.
    pub fn vehicles_through_camera(
        &self,
        camera: CameraId,
        start_ms: u64,
        end_ms: u64,
    ) -> Vec<VertexId> {
        let region = u64::from(camera.0) / u64::from(self.config.cameras_per_region.max(1));
        let mut out = Vec::new();
        for shard in self.shards_for_window(region, start_ms, end_ms) {
            let s = self.shards[shard].read();
            if let Some(ids) = s.by_camera.get(&camera) {
                for id in ids {
                    let r = &s.vertices[id];
                    if r.first_seen_ms <= end_ms && r.last_seen_ms >= start_ms {
                        out.push(*id);
                    }
                }
            }
        }
        out.sort_unstable();
        out
    }

    /// Vertices (any camera) whose in-view interval overlaps
    /// `[start_ms, end_ms]`, ascending by id — the space-time-window scan.
    pub fn scan_window(&self, start_ms: u64, end_ms: u64) -> Vec<VertexId> {
        let mut out = Vec::new();
        for shard in &self.shards {
            let s = shard.read();
            for (id, r) in &s.vertices {
                if r.first_seen_ms <= end_ms && r.last_seen_ms >= start_ms {
                    out.push(*id);
                }
            }
        }
        out.sort_unstable();
        out
    }

    /// The `k` stored detections nearest to `query` (Bhattacharyya
    /// distance) under `max_distance`, best first, ties by id — identical
    /// ranking to the flat graph's stable sort over ascending ids.
    pub fn nearest_by_signature(
        &self,
        query: &ColorHistogram,
        k: usize,
        max_distance: f64,
    ) -> Vec<(VertexId, f64)> {
        let mut scored: Vec<(VertexId, f64)> = Vec::new();
        for shard in &self.shards {
            let s = shard.read();
            for r in s.vertices.values() {
                let d = r
                    .signature
                    .as_ref()
                    .and_then(|sig| query.bhattacharyya_distance(sig));
                if let Some(d) = d.filter(|&d| d <= max_distance) {
                    scored.push((r.id, d));
                }
            }
        }
        scored.sort_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)));
        scored.truncate(k);
        scored
    }

    /// Rebuilds the merged flat graph: vertices in id order, edges in
    /// global insertion (sequence) order. For any single-writer stream
    /// this is byte-identical to ingesting the stream into a flat
    /// [`TrajectoryGraph`] directly (both drop replays at ingest).
    pub fn to_flat(&self) -> TrajectoryGraph {
        let idx = self.index.read();
        let guards: Vec<RwLockReadGuard<'_, Shard>> =
            self.shards.iter().map(|s| s.read()).collect();
        let mut records: Vec<&VertexRecord> =
            guards.iter().flat_map(|g| g.vertices.values()).collect();
        records.sort_by_key(|r| r.id);
        let mut flat = TrajectoryGraph::new();
        for r in records {
            let id = flat.insert_event_with_signature(
                r.event,
                r.first_seen_ms,
                r.last_seen_ms,
                r.heading,
                r.signature.clone(),
                r.ground_truth,
            );
            debug_assert_eq!(id, r.id, "flat rebuild must reassign identical ids");
        }
        let mut edges: Vec<(u64, TrajectoryEdge)> = guards
            .iter()
            .flat_map(|g| g.out_edges.values().flatten())
            .map(|se| (se.seq, se.edge))
            .collect();
        edges.sort_unstable_by_key(|&(seq, _)| seq);
        for (_, e) in edges {
            let _ = flat.insert_edge(e.from, e.to, e.weight);
        }
        drop(guards);
        drop(idx);
        flat
    }

    /// (Snapshot support.) Exports the store content: config meta, next
    /// vertex id / edge seq / interval bound, and per-shard records and
    /// out-edges. Vertex creation is frozen for the duration (index read
    /// lock); edges race benignly — an edge not fully captured is simply
    /// absent, never torn, because in-edges are rebuilt from out-edges.
    pub(crate) fn export(&self) -> ExportedStore {
        let idx = self.index.read();
        let guards: Vec<RwLockReadGuard<'_, Shard>> =
            self.shards.iter().map(|s| s.read()).collect();
        let shards = guards
            .iter()
            .map(|g| ExportedShard {
                records: g.vertices.values().cloned().collect(),
                edges: g
                    .out_edges
                    .values()
                    .flatten()
                    .map(|se| (se.edge, se.seq))
                    .collect(),
            })
            .collect();
        ExportedStore {
            shard_count: self.config.shard_count,
            time_bucket_ms: self.config.time_bucket_ms,
            cameras_per_region: self.config.cameras_per_region,
            next_vertex: idx.dir.len() as u64,
            edge_seq: self.alloc.next_edge_seq_hint(),
            max_interval_ms: self.max_interval_ms.load(Ordering::SeqCst),
            shards,
        }
    }

    /// (Snapshot support.) Replaces this store's content with `state`,
    /// atomically with respect to readers. The shard layout of the
    /// snapshot must match this store's config; in-edges, the event index,
    /// the directory and the cross-shard index are rebuilt from the
    /// exported out-edges. The new content is built and validated before
    /// any lock is taken, so a rejected snapshot leaves the store
    /// untouched.
    pub(crate) fn import(&self, state: ExportedStore) -> Result<(), ImportError> {
        if state.shard_count != self.config.shard_count {
            return Err(ImportError::ShardCountMismatch {
                store: self.config.shard_count,
                snapshot: state.shard_count,
            });
        }
        // Ids are contiguous, so the record count must equal the next id.
        // Checked first: it bounds the directory by the records actually
        // read, not by a number the manifest merely claims.
        let records: usize = state.shards.iter().map(|s| s.records.len()).sum();
        if state.next_vertex != records as u64 {
            return Err(ImportError::VertexCountMismatch {
                next_vertex: state.next_vertex,
                records,
            });
        }
        // Every id in range and in exactly one shard; with the count
        // check above that leaves no slot empty.
        let mut dir = vec![TOMBSTONE; records];
        for (si, shard) in state.shards.iter().enumerate() {
            for r in &shard.records {
                let slot = dir
                    .get_mut(r.id.0 as usize)
                    .ok_or(ImportError::VertexOutOfRange(r.id))?;
                if *slot != TOMBSTONE {
                    return Err(ImportError::DuplicateVertex(r.id));
                }
                *slot = si as u16;
            }
        }

        let mut by_event = HashMap::with_capacity(records);
        let mut shards: Vec<Shard> = (0..state.shard_count).map(|_| Shard::default()).collect();
        let mut cross = BTreeMap::new();
        let mut all: Vec<(u64, TrajectoryEdge, u16)> = Vec::new();
        for (si, shard) in state.shards.into_iter().enumerate() {
            let g = &mut shards[si];
            for r in shard.records {
                by_event.insert(r.event, r.id);
                g.by_camera.entry(r.camera).or_default().push(r.id);
                g.vertices.insert(r.id, r);
            }
            // by_camera must be ascending by id (file order need not be).
            for ids in g.by_camera.values_mut() {
                ids.sort_unstable();
            }
            for (edge, seq) in shard.edges {
                let TrajectoryEdge { from, to, weight } = edge;
                if dir.get(from.0 as usize) != Some(&(si as u16)) {
                    return Err(ImportError::MisplacedEdge { from, shard: si });
                }
                let to_shard = *dir
                    .get(to.0 as usize)
                    .ok_or(ImportError::VertexOutOfRange(to))?;
                if from == to {
                    return Err(ImportError::InvalidEdge(GraphError::SelfLoop(from)));
                }
                if !weight.is_finite() || weight < 0.0 {
                    return Err(ImportError::InvalidEdge(GraphError::InvalidWeight(weight)));
                }
                // The invariant ingest keeps: one edge per (from, to).
                if has_out_edge(g, from, to) {
                    return Err(ImportError::DuplicateEdge { from, to });
                }
                g.out_edges.entry(from).or_default().push(SeqEdge {
                    edge,
                    seq,
                    peer_shard: to_shard,
                });
                all.push((seq, edge, si as u16));
                if to_shard as usize != si {
                    cross.insert((from, to), weight);
                }
            }
        }
        // Rebuild in-edges from out-edges in global sequence order so
        // restored in-lists match a deterministic re-ingest.
        all.sort_unstable_by_key(|&(seq, _, _)| seq);
        let edge_total = all.len();
        for (seq, edge, from_shard) in all {
            let to_shard = dir[edge.to.0 as usize] as usize;
            shards[to_shard]
                .in_edges
                .entry(edge.to)
                .or_default()
                .push(SeqEdge {
                    edge,
                    seq,
                    peer_shard: from_shard,
                });
        }

        // Swap the new content in under every lock, in the lock order.
        let mut idx = self.index.write();
        let mut guards: Vec<_> = self.shards.iter().map(|s| s.write()).collect();
        let mut cross_guard = self.cross.write();
        *idx = EventIndex { by_event, dir };
        for (g, shard) in guards.iter_mut().zip(shards) {
            **g = shard;
        }
        *cross_guard = cross;
        self.edge_count.store(edge_total, Ordering::SeqCst);
        self.alloc
            .restore(state.next_vertex, state.edge_seq, self.shared_alloc);
        self.max_interval_ms
            .store(state.max_interval_ms, Ordering::SeqCst);
        self.mutations.fetch_add(1, Ordering::SeqCst);
        Ok(())
    }
}

/// Raw store content exchanged with the snapshot codec.
#[derive(Debug)]
pub(crate) struct ExportedStore {
    pub shard_count: usize,
    pub time_bucket_ms: u64,
    pub cameras_per_region: u32,
    pub next_vertex: u64,
    pub edge_seq: u64,
    pub max_interval_ms: u64,
    pub shards: Vec<ExportedShard>,
}

/// One shard's records and out-edges (with sequence numbers).
#[derive(Debug)]
pub(crate) struct ExportedShard {
    pub records: Vec<VertexRecord>,
    pub edges: Vec<(TrajectoryEdge, u64)>,
}

/// Structural problems found while importing exported state.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum ImportError {
    ShardCountMismatch {
        store: usize,
        snapshot: usize,
    },
    VertexCountMismatch {
        next_vertex: u64,
        records: usize,
    },
    VertexOutOfRange(VertexId),
    DuplicateVertex(VertexId),
    /// An edge listed by a shard that does not hold its `from` vertex.
    MisplacedEdge {
        from: VertexId,
        shard: usize,
    },
    /// A self-loop or an invalid weight.
    InvalidEdge(GraphError),
    DuplicateEdge {
        from: VertexId,
        to: VertexId,
    },
}

impl std::fmt::Display for ImportError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ImportError::ShardCountMismatch { store, snapshot } => write!(
                f,
                "snapshot has {snapshot} shards but the store is configured for {store}"
            ),
            ImportError::VertexCountMismatch {
                next_vertex,
                records,
            } => write!(
                f,
                "next vertex id {next_vertex} does not match the {records} vertex records"
            ),
            ImportError::VertexOutOfRange(v) => write!(f, "vertex {v} out of range"),
            ImportError::DuplicateVertex(v) => write!(f, "vertex {v} appears in two shards"),
            ImportError::MisplacedEdge { from, shard } => {
                write!(
                    f,
                    "shard {shard} lists an edge from vertex {from} it does not hold"
                )
            }
            ImportError::InvalidEdge(e) => write!(f, "invalid edge: {e}"),
            ImportError::DuplicateEdge { from, to } => {
                write!(f, "edge {from} -> {to} appears twice")
            }
        }
    }
}

fn has_out_edge(s: &Shard, from: VertexId, to: VertexId) -> bool {
    s.out_edges
        .get(&from)
        .is_some_and(|v| v.iter().any(|e| e.edge.to == to))
}

/// A read transaction over every shard: the [`EdgeSource`] behind
/// concurrent trajectory queries. Holds all shard read guards; memoises
/// vertex→shard placements (seeded by the per-edge peer-shard hints) so a
/// walk only probes shards for its seed.
#[derive(Debug)]
pub struct ShardReadTxn<'a> {
    guards: Vec<RwLockReadGuard<'a, Shard>>,
    locate: HashMap<VertexId, u16>,
}

impl ShardReadTxn<'_> {
    fn shard_of(&mut self, v: VertexId) -> Option<u16> {
        if let Some(&s) = self.locate.get(&v) {
            return Some(s);
        }
        for (i, g) in self.guards.iter().enumerate() {
            if g.vertices.contains_key(&v) {
                self.locate.insert(v, i as u16);
                return Some(i as u16);
            }
        }
        None
    }
}

impl EdgeSource for ShardReadTxn<'_> {
    fn contains(&mut self, v: VertexId) -> bool {
        self.shard_of(v).is_some()
    }

    fn neighbors(&mut self, v: VertexId, dir: Direction, out: &mut Vec<TrajectoryEdge>) {
        let Some(shard) = self.shard_of(v) else {
            return;
        };
        let Self { guards, locate } = self;
        let g = &guards[shard as usize];
        let list = match dir {
            Direction::Forward => g.out_edges.get(&v),
            Direction::Backward => g.in_edges.get(&v),
        };
        let Some(list) = list else {
            return;
        };
        for se in list {
            let neighbor = match dir {
                Direction::Forward => se.edge.to,
                Direction::Backward => se.edge.from,
            };
            locate.entry(neighbor).or_insert(se.peer_shard);
            out.push(se.edge);
        }
    }
}
