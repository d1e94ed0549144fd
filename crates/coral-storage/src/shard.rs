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
    /// Vertex records in insertion order: a record's position is its
    /// slot, the `u32` the appearance postings hold.
    records: Vec<VertexRecord>,
    /// Vertex id → slot.
    slots: BTreeMap<VertexId, u32>,
    out_edges: BTreeMap<VertexId, Vec<SeqEdge>>,
    in_edges: BTreeMap<VertexId, Vec<SeqEdge>>,
    /// Slots by detecting camera, ascending by vertex id (push order —
    /// ids are allocated monotonically under the index lock).
    by_camera: BTreeMap<CameraId, Vec<u32>>,
    appearance: AppearanceIndex,
}

impl Shard {
    /// Adds `record` with its camera-list entry and appearance postings:
    /// the one insert path, so a reader holding the shard lock sees a
    /// record and its postings together or not at all.
    fn insert_record(&mut self, record: VertexRecord) {
        let id = record.id;
        let slot = u32::try_from(self.records.len()).expect("fewer than 2³² vertices per shard");
        // Adoption can arrive out of id order; keep the per-camera list
        // ascending by id (local inserts always append).
        let records = &self.records;
        let id_at = |s: u32| records[s as usize].id;
        let slots = self.by_camera.entry(record.camera).or_default();
        match slots.last() {
            Some(&last) if id_at(last) > id => {
                let pos = slots.partition_point(|&s| id_at(s) < id);
                slots.insert(pos, slot);
            }
            _ => slots.push(slot),
        }
        if let Some(sig) = &record.signature {
            self.appearance.insert(slot, sig);
        }
        self.slots.insert(id, slot);
        self.records.push(record);
    }

    fn record(&self, id: VertexId) -> Option<&VertexRecord> {
        self.slots
            .get(&id)
            .map(|&slot| &self.records[slot as usize])
    }

    /// The records in ascending id order.
    fn records_by_id(&self) -> impl Iterator<Item = &VertexRecord> {
        self.slots
            .values()
            .map(|&slot| &self.records[slot as usize])
    }

    /// Appends to `out` every vertex of this shard the full scan would
    /// return: a signature comparable with `query` within `max_distance`.
    /// With a `bound`, only the postings of its required bins are scored;
    /// without one, or when the postings would cover the shard anyway,
    /// every record is.
    fn score_signatures(
        &self,
        query: &ColorHistogram,
        max_distance: f64,
        bound: Option<&QueryBound>,
        out: &mut Vec<(VertexId, f64)>,
    ) {
        let mut score = |r: &VertexRecord| {
            let d = r
                .signature
                .as_ref()
                .and_then(|sig| query.bhattacharyya_distance(sig));
            if let Some(d) = d.filter(|&d| d <= max_distance) {
                out.push((r.id, d));
            }
        };
        let candidates = bound.and_then(|b| {
            let required = b.required(self.appearance.max_mass)?;
            self.appearance
                .candidates(query.bins_per_channel(), required, self.records.len())
        });
        match candidates {
            Some(slots) => {
                for slot in slots {
                    score(&self.records[slot as usize]);
                }
            }
            None => self.records.iter().for_each(score),
        }
    }
}

/// Relative and absolute slack on the pruning bound. It covers the
/// rounding of every float step between the exact bound and the computed
/// distance: sums of up to 2³⁴ terms, a product, two square roots and
/// `1 − d²`. Far larger than that rounding, far smaller than any gap the
/// bound is used to close.
const BOUND_MARGIN: f64 = 1e-5;

/// One shard's appearance index: for each `(bins_per_channel, bin)`, the
/// slots of the shard's vertices whose signature has that bin non-zero,
/// ascending. A posting costs four bytes.
#[derive(Debug, Default)]
struct AppearanceIndex {
    postings: HashMap<(usize, usize), Vec<u32>>,
    /// The largest stored signature mass (sum of its bins). Wire and
    /// snapshot signatures need not be normalised, so this is tracked,
    /// not assumed to be 1.
    max_mass: f64,
}

impl AppearanceIndex {
    fn insert(&mut self, slot: u32, sig: &ColorHistogram) {
        let b = sig.bins_per_channel();
        let mut mass = 0.0;
        for &(bin, v) in sig.bins() {
            self.postings.entry((b, bin)).or_default().push(slot);
            mass += v;
        }
        self.max_mass = self.max_mass.max(mass);
    }

    /// The ascending, distinct slots posted under `required` bins at
    /// `bins_per_channel`, or `None` when the postings are at least as
    /// many as the shard's `records` (a scan is then no dearer).
    fn candidates(
        &self,
        bins_per_channel: usize,
        required: &[(usize, f64)],
        records: usize,
    ) -> Option<Vec<u32>> {
        let lists: Vec<&Vec<u32>> = required
            .iter()
            .filter_map(|&(bin, _)| self.postings.get(&(bins_per_channel, bin)))
            .collect();
        let total: usize = lists.iter().map(|l| l.len()).sum();
        if total >= records {
            return None;
        }
        let mut slots: Vec<u32> = Vec::with_capacity(total);
        for l in lists {
            slots.extend_from_slice(l);
        }
        if required.len() > 1 {
            slots.sort_unstable();
            slots.dedup();
        }
        Some(slots)
    }
}

/// The query side of the appearance bound.
///
/// A stored signature `p` sharing the bins `S` with the query `q` has, by
/// Cauchy–Schwarz, `BC = Σ_S √(p_i q_i) ≤ √(P · Q(S))` with `P` its total
/// mass. A result needs `BC ≥ τ = 1 − max_distance²`. So if the query
/// mass outside a set `R` of its bins satisfies `√(P_max · rest) < τ`, a
/// vertex sharing no bin of `R` cannot be a result and is never read.
#[derive(Debug)]
struct QueryBound {
    /// The query's bins by descending mass (ties by ascending index).
    order: Vec<(usize, f64)>,
    /// `rest[k]`: the query mass outside `order[..k]`, each a fresh sum
    /// (smallest first), never a difference.
    rest: Vec<f64>,
    /// `τ` less the margin.
    tau: f64,
}

impl QueryBound {
    /// The bound for `query` at `max_distance`, or `None` when nothing
    /// can be pruned: a `max_distance` outside `[0, 1)` (NaN included)
    /// leaves the scan to answer exactly as it always has.
    fn new(query: &ColorHistogram, max_distance: f64) -> Option<Self> {
        if !(0.0..1.0).contains(&max_distance) {
            return None;
        }
        let mut order = query.bins().to_vec();
        order.sort_unstable_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
        let mut rest = vec![0.0; order.len() + 1];
        for k in (0..order.len()).rev() {
            rest[k] = rest[k + 1] + order[k].1;
        }
        Some(Self {
            order,
            rest,
            tau: 1.0 - max_distance * max_distance - BOUND_MARGIN,
        })
    }

    /// The shortest prefix `R` of the query's bins that rules out every
    /// vertex sharing none of them, in a shard whose largest stored mass
    /// is `max_mass`; `None` when `R` would need every bin.
    fn required(&self, max_mass: f64) -> Option<&[(usize, f64)]> {
        (0..self.order.len())
            .find(|&k| (max_mass * self.rest[k]).sqrt() * (1.0 + BOUND_MARGIN) < self.tau)
            .map(|k| &self.order[..k])
    }
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
        self.shards[shard].write().insert_record(record);
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
        s.record(id).cloned().ok_or(GraphError::UnknownVertex(id))
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
            if let Some(slots) = s.by_camera.get(&camera) {
                for &slot in slots {
                    let r = &s.records[slot as usize];
                    if r.first_seen_ms <= end_ms && r.last_seen_ms >= start_ms {
                        out.push(r.id);
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
            for r in &s.records {
                if r.first_seen_ms <= end_ms && r.last_seen_ms >= start_ms {
                    out.push(r.id);
                }
            }
        }
        out.sort_unstable();
        out
    }

    /// The `k` stored detections nearest to `query` (Bhattacharyya
    /// distance) under `max_distance`, best first, ties by id — identical
    /// ranking to the flat graph's stable sort over ascending ids.
    ///
    /// Each shard scores only the vertices its appearance index posts
    /// under the query bins the Cauchy–Schwarz bound requires; the rest
    /// cannot reach `max_distance`. The scored ones get the same distance
    /// bits a full scan computes, and a shard the bound cannot prune is
    /// scanned in full.
    pub fn nearest_by_signature(
        &self,
        query: &ColorHistogram,
        k: usize,
        max_distance: f64,
    ) -> Vec<(VertexId, f64)> {
        let bound = QueryBound::new(query, max_distance);
        let mut scored: Vec<(VertexId, f64)> = Vec::new();
        for shard in &self.shards {
            shard
                .read()
                .score_signatures(query, max_distance, bound.as_ref(), &mut scored);
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
            guards.iter().flat_map(|g| g.records.iter()).collect();
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
                records: g.records_by_id().cloned().collect(),
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
        for (si, mut shard) in state.shards.into_iter().enumerate() {
            let g = &mut shards[si];
            // In id order (file order need not be), so every per-camera
            // list is built by appending.
            shard.records.sort_unstable_by_key(|r| r.id);
            for r in shard.records {
                by_event.insert(r.event, r.id);
                g.insert_record(r);
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
            if g.slots.contains_key(&v) {
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
