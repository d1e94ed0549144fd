//! The trajectory graph: a probabilistic property graph of detection
//! events.
//!
//! "The trajectory of all vehicles is stored in one composite probabilistic
//! graph, where vertices are detection events generated on cameras, and
//! edges connecting vertices build up the trajectory of a given vehicle. ...
//! every vertex is allowed to have multiple incoming and outgoing edges and
//! the weight of every edge is the confidence (aka Bhattacharyya distance)
//! between two connected vertices" (paper §4.2.1). The paper hosts this in
//! JanusGraph on an edge node; this module is the embedded substitute with
//! the same insert/traverse API surface.

use coral_geo::Heading;
use coral_net::{EventId, VertexId};
use coral_topology::CameraId;
use coral_vision::{ColorHistogram, GroundTruthId};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// A vertex: one detection event, with the time interval the vehicle was in
/// the camera's view.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct VertexRecord {
    /// Vertex id (assigned by the store).
    pub id: VertexId,
    /// The originating detection event.
    pub event: EventId,
    /// The detecting camera (denormalised from `event` for queries).
    pub camera: CameraId,
    /// When the vehicle entered the camera's view, ms.
    pub first_seen_ms: u64,
    /// When the vehicle left the camera's view, ms.
    pub last_seen_ms: u64,
    /// Estimated departure heading.
    pub heading: Option<Heading>,
    /// The appearance signature of the detection, enabling
    /// query-by-appearance ("I have a photo of the car") — the query-side
    /// extension the paper leaves as future work (§8).
    pub signature: Option<ColorHistogram>,
    /// Ground-truth vehicle identity (evaluation only; a production
    /// deployment stores `None`).
    pub ground_truth: Option<GroundTruthId>,
}

/// A weighted directed edge: a claimed re-identification.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TrajectoryEdge {
    /// Upstream detection.
    pub from: VertexId,
    /// Downstream detection (the newer event).
    pub to: VertexId,
    /// Bhattacharyya distance between the two signatures (lower = more
    /// confident).
    pub weight: f64,
}

/// Errors from graph operations.
#[derive(Debug, Clone, PartialEq)]
pub enum GraphError {
    /// Vertex id out of range.
    UnknownVertex(VertexId),
    /// An edge endpoint pair was invalid (self-loop).
    SelfLoop(VertexId),
    /// The weight was negative or non-finite.
    InvalidWeight(f64),
}

impl std::fmt::Display for GraphError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GraphError::UnknownVertex(v) => write!(f, "unknown vertex {v}"),
            GraphError::SelfLoop(v) => write!(f, "self-loop at {v}"),
            GraphError::InvalidWeight(w) => write!(f, "invalid edge weight {w}"),
        }
    }
}

impl std::error::Error for GraphError {}

/// The embedded trajectory graph store.
///
/// # Examples
///
/// ```
/// use coral_net::EventId;
/// use coral_storage::TrajectoryGraph;
/// use coral_topology::CameraId;
/// use coral_vision::TrackId;
///
/// let mut g = TrajectoryGraph::new();
/// let a = g.insert_event(
///     EventId { camera: CameraId(0), track: TrackId(1) },
///     0, 1_500, None, None,
/// );
/// let b = g.insert_event(
///     EventId { camera: CameraId(1), track: TrackId(4) },
///     9_000, 10_800, None, None,
/// );
/// g.insert_edge(a, b, 0.12)?;
/// assert_eq!(g.out_edges(a).len(), 1);
/// # Ok::<(), coral_storage::GraphError>(())
/// ```
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct TrajectoryGraph {
    vertices: Vec<VertexRecord>,
    out_edges: Vec<Vec<TrajectoryEdge>>,
    in_edges: Vec<Vec<TrajectoryEdge>>,
    #[serde(with = "event_index_serde")]
    by_event: HashMap<EventId, VertexId>,
    edge_count: usize,
}

/// JSON objects require string keys, so the event index is serialised as a
/// list of `(event, vertex)` pairs.
mod event_index_serde {
    use super::{EventId, VertexId};
    use serde::{Deserialize, Deserializer, Serialize, Serializer};
    use std::collections::HashMap;

    pub fn serialize<S: Serializer>(
        map: &HashMap<EventId, VertexId>,
        s: S,
    ) -> Result<S::Ok, S::Error> {
        let mut pairs: Vec<(EventId, VertexId)> = map.iter().map(|(k, v)| (*k, *v)).collect();
        pairs.sort();
        pairs.serialize(s)
    }

    pub fn deserialize<'de, D: Deserializer<'de>>(
        d: D,
    ) -> Result<HashMap<EventId, VertexId>, D::Error> {
        let pairs: Vec<(EventId, VertexId)> = Vec::deserialize(d)?;
        Ok(pairs.into_iter().collect())
    }
}

impl TrajectoryGraph {
    /// Creates an empty graph.
    pub fn new() -> Self {
        Self::default()
    }

    /// Inserts a vertex for a detection event and returns its id.
    /// Re-inserting the same event returns the existing vertex (idempotent
    /// against client retries).
    pub fn insert_event(
        &mut self,
        event: EventId,
        first_seen_ms: u64,
        last_seen_ms: u64,
        heading: Option<Heading>,
        ground_truth: Option<GroundTruthId>,
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

    /// Inserts a vertex carrying its appearance signature, enabling
    /// [`TrajectoryGraph::nearest_by_signature`] queries.
    pub fn insert_event_with_signature(
        &mut self,
        event: EventId,
        first_seen_ms: u64,
        last_seen_ms: u64,
        heading: Option<Heading>,
        signature: Option<ColorHistogram>,
        ground_truth: Option<GroundTruthId>,
    ) -> VertexId {
        if let Some(&v) = self.by_event.get(&event) {
            return v;
        }
        let id = VertexId(self.vertices.len() as u64);
        self.vertices.push(VertexRecord {
            id,
            event,
            camera: event.camera,
            first_seen_ms,
            last_seen_ms,
            heading,
            signature,
            ground_truth,
        });
        self.out_edges.push(Vec::new());
        self.in_edges.push(Vec::new());
        self.by_event.insert(event, id);
        id
    }

    /// Inserts a weighted re-identification edge `from → to` (pointing to
    /// the newer detection, §4.2.1). Edges between *distinct* vertex pairs
    /// may coexist freely — false positives must not mask true positives —
    /// but an exact `(from, to)` duplicate is dropped (keep-first): the
    /// network layer redelivers at-least-once, and a retried `Recovery`
    /// must not double-count a link.
    ///
    /// # Errors
    ///
    /// Fails on unknown endpoints, self-loops or invalid weights.
    pub fn insert_edge(
        &mut self,
        from: VertexId,
        to: VertexId,
        weight: f64,
    ) -> Result<(), GraphError> {
        self.vertex(from)?;
        self.vertex(to)?;
        if from == to {
            return Err(GraphError::SelfLoop(from));
        }
        if !weight.is_finite() || weight < 0.0 {
            return Err(GraphError::InvalidWeight(weight));
        }
        if self.out_edges[from.0 as usize].iter().any(|e| e.to == to) {
            return Ok(());
        }
        let edge = TrajectoryEdge { from, to, weight };
        self.out_edges[from.0 as usize].push(edge);
        self.in_edges[to.0 as usize].push(edge);
        self.edge_count += 1;
        Ok(())
    }

    /// Looks up a vertex.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::UnknownVertex`] for out-of-range ids.
    pub fn vertex(&self, id: VertexId) -> Result<&VertexRecord, GraphError> {
        self.vertices
            .get(id.0 as usize)
            .ok_or(GraphError::UnknownVertex(id))
    }

    /// The vertex created for `event`, if any.
    pub fn vertex_for_event(&self, event: EventId) -> Option<VertexId> {
        self.by_event.get(&event).copied()
    }

    /// Outgoing edges of a vertex.
    pub fn out_edges(&self, id: VertexId) -> &[TrajectoryEdge] {
        self.out_edges
            .get(id.0 as usize)
            .map_or(&[], |v| v.as_slice())
    }

    /// Incoming edges of a vertex.
    pub fn in_edges(&self, id: VertexId) -> &[TrajectoryEdge] {
        self.in_edges
            .get(id.0 as usize)
            .map_or(&[], |v| v.as_slice())
    }

    /// Number of vertices.
    pub fn vertex_count(&self) -> usize {
        self.vertices.len()
    }

    /// Number of edges.
    pub fn edge_count(&self) -> usize {
        self.edge_count
    }

    /// Iterates over all vertices.
    pub fn vertices(&self) -> impl Iterator<Item = &VertexRecord> + '_ {
        self.vertices.iter()
    }

    /// Iterates over all edges.
    pub fn edges(&self) -> impl Iterator<Item = &TrajectoryEdge> + '_ {
        self.out_edges.iter().flatten()
    }

    /// Vertices detected by `camera` whose in-view interval overlaps
    /// `[start_ms, end_ms]`, ascending by id. The flat reference
    /// implementation of the sharded store's camera query — a full scan,
    /// kept for the shard-vs-flat equivalence proptests.
    pub fn vehicles_through_camera(
        &self,
        camera: CameraId,
        start_ms: u64,
        end_ms: u64,
    ) -> Vec<VertexId> {
        self.vertices
            .iter()
            .filter(|v| {
                v.camera == camera && v.first_seen_ms <= end_ms && v.last_seen_ms >= start_ms
            })
            .map(|v| v.id)
            .collect()
    }

    /// Vertices (any camera) whose in-view interval overlaps
    /// `[start_ms, end_ms]`, ascending by id — the flat reference for the
    /// sharded store's space-time-window scan.
    pub fn scan_window(&self, start_ms: u64, end_ms: u64) -> Vec<VertexId> {
        self.vertices
            .iter()
            .filter(|v| v.first_seen_ms <= end_ms && v.last_seen_ms >= start_ms)
            .map(|v| v.id)
            .collect()
    }

    /// The `k` stored detections whose signatures are nearest to `query`
    /// (Bhattacharyya distance), below `max_distance`, best first — the
    /// query-by-appearance entry point for an investigator holding a photo
    /// of the vehicle of interest.
    pub fn nearest_by_signature(
        &self,
        query: &ColorHistogram,
        k: usize,
        max_distance: f64,
    ) -> Vec<(VertexId, f64)> {
        let mut scored: Vec<(VertexId, f64)> = self
            .vertices
            .iter()
            .filter_map(|v| {
                let d = query.bhattacharyya_distance(v.signature.as_ref()?)?;
                (d <= max_distance).then_some((v.id, d))
            })
            .collect();
        scored.sort_by(|a, b| a.1.total_cmp(&b.1));
        scored.truncate(k);
        scored
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
    fn insert_and_lookup() {
        let mut g = TrajectoryGraph::new();
        let v = g.insert_event(eid(0, 1), 100, 900, Some(Heading::East), None);
        let rec = g.vertex(v).unwrap();
        assert_eq!(rec.camera, CameraId(0));
        assert_eq!(rec.first_seen_ms, 100);
        assert_eq!(rec.last_seen_ms, 900);
        assert_eq!(rec.heading, Some(Heading::East));
        assert_eq!(g.vertex_for_event(eid(0, 1)), Some(v));
        assert_eq!(g.vertex_for_event(eid(0, 2)), None);
    }

    #[test]
    fn insert_event_is_idempotent() {
        let mut g = TrajectoryGraph::new();
        let a = g.insert_event(eid(0, 1), 0, 1, None, None);
        let b = g.insert_event(eid(0, 1), 5, 6, None, None);
        assert_eq!(a, b);
        assert_eq!(g.vertex_count(), 1);
        // Original attributes win.
        assert_eq!(g.vertex(a).unwrap().first_seen_ms, 0);
    }

    #[test]
    fn edges_are_bidirectionally_indexed() {
        let mut g = TrajectoryGraph::new();
        let a = g.insert_event(eid(0, 1), 0, 1, None, None);
        let b = g.insert_event(eid(1, 1), 10, 11, None, None);
        g.insert_edge(a, b, 0.2).unwrap();
        assert_eq!(g.out_edges(a).len(), 1);
        assert_eq!(g.in_edges(b).len(), 1);
        assert_eq!(g.out_edges(b).len(), 0);
        assert_eq!(g.edge_count(), 1);
        assert_eq!(g.out_edges(a)[0].weight, 0.2);
    }

    #[test]
    fn duplicate_edge_is_dropped_keep_first() {
        // At-least-once delivery can replay a Recovery; the replayed
        // (from, to) edge must not double-count, and the first-written
        // weight wins.
        let mut g = TrajectoryGraph::new();
        let a = g.insert_event(eid(0, 1), 0, 1, None, None);
        let b = g.insert_event(eid(1, 1), 10, 11, None, None);
        g.insert_edge(a, b, 0.2).unwrap();
        g.insert_edge(a, b, 0.7).unwrap();
        assert_eq!(g.edge_count(), 1);
        assert_eq!(g.out_edges(a).len(), 1);
        assert_eq!(g.in_edges(b).len(), 1);
        assert_eq!(g.out_edges(a)[0].weight, 0.2);
        // The reverse direction is a distinct pair, not a duplicate.
        g.insert_edge(b, a, 0.5).unwrap();
        assert_eq!(g.edge_count(), 2);
    }

    #[test]
    fn multiple_in_and_out_edges_allowed() {
        // "every vertex is allowed to have multiple incoming and outgoing
        // edges" — false positives must not mask true positives.
        let mut g = TrajectoryGraph::new();
        let a = g.insert_event(eid(0, 1), 0, 1, None, None);
        let b = g.insert_event(eid(1, 1), 10, 11, None, None);
        let c = g.insert_event(eid(1, 2), 12, 13, None, None);
        g.insert_edge(a, b, 0.1).unwrap();
        g.insert_edge(a, c, 0.3).unwrap();
        assert_eq!(g.out_edges(a).len(), 2);
        let d = g.insert_event(eid(2, 9), 20, 21, None, None);
        g.insert_edge(b, d, 0.2).unwrap();
        g.insert_edge(c, d, 0.4).unwrap();
        assert_eq!(g.in_edges(d).len(), 2);
    }

    #[test]
    fn edge_validation() {
        let mut g = TrajectoryGraph::new();
        let a = g.insert_event(eid(0, 1), 0, 1, None, None);
        assert_eq!(g.insert_edge(a, a, 0.1), Err(GraphError::SelfLoop(a)));
        let ghost = VertexId(9);
        assert_eq!(
            g.insert_edge(a, ghost, 0.1),
            Err(GraphError::UnknownVertex(ghost))
        );
        let b = g.insert_event(eid(1, 1), 0, 1, None, None);
        assert_eq!(
            g.insert_edge(a, b, -0.5),
            Err(GraphError::InvalidWeight(-0.5))
        );
        assert_eq!(
            g.insert_edge(a, b, f64::NAN).unwrap_err().to_string(),
            "invalid edge weight NaN"
        );
    }

    #[test]
    fn iteration() {
        let mut g = TrajectoryGraph::new();
        let a = g.insert_event(eid(0, 1), 0, 1, None, None);
        let b = g.insert_event(eid(1, 1), 10, 11, None, None);
        g.insert_edge(a, b, 0.1).unwrap();
        assert_eq!(g.vertices().count(), 2);
        assert_eq!(g.edges().count(), 1);
    }

    #[test]
    fn query_by_appearance_ranks_by_distance() {
        use coral_vision::{
            BoundingBox, HistogramConfig, ObjectClass, Renderer, Scene, SceneActor,
            VehicleAppearance,
        };
        let sig = |seed: u64, frame_seed: u64| {
            let bbox = BoundingBox::new(8.0, 8.0, 56.0, 40.0).unwrap();
            let scene = Scene {
                width: 64,
                height: 48,
                actors: vec![SceneActor {
                    gt: GroundTruthId(seed),
                    class: ObjectClass::Car,
                    bbox,
                    appearance: VehicleAppearance::from_seed(seed),
                }],
            };
            let frame = Renderer::default().render(&scene, frame_seed);
            ColorHistogram::extract(&frame, &bbox, &HistogramConfig::default())
        };
        let mut g = TrajectoryGraph::new();
        // Red car at cam0, blue car at cam1, vertex without signature.
        let red = g.insert_event_with_signature(eid(0, 1), 0, 1, None, Some(sig(4, 1)), None);
        let blue = g.insert_event_with_signature(eid(1, 1), 10, 11, None, Some(sig(5, 1)), None);
        let _bare = g.insert_event(eid(2, 1), 20, 21, None, None);
        // Query with a fresh render of the red car (different noise).
        let query = sig(4, 99);
        let hits = g.nearest_by_signature(&query, 10, 1.0);
        assert_eq!(hits.len(), 2, "signature-less vertices are skipped");
        assert_eq!(hits[0].0, red, "red car must rank first");
        assert!(hits[0].1 < hits[1].1);
        // A strict distance cut keeps only the true match.
        let strict = g.nearest_by_signature(&query, 10, 0.3);
        assert_eq!(strict, vec![hits[0]]);
        let _ = blue;
        // k truncation.
        assert_eq!(g.nearest_by_signature(&query, 1, 1.0).len(), 1);
    }

    #[test]
    fn serde_roundtrip() {
        let mut g = TrajectoryGraph::new();
        let a = g.insert_event(eid(0, 1), 0, 1, None, Some(GroundTruthId(7)));
        let b = g.insert_event(eid(1, 1), 10, 11, None, Some(GroundTruthId(7)));
        g.insert_edge(a, b, 0.1).unwrap();
        let json = serde_json::to_string(&g).unwrap();
        let back: TrajectoryGraph = serde_json::from_str(&json).unwrap();
        assert_eq!(back.vertex_count(), 2);
        assert_eq!(back.edge_count(), 1);
        assert_eq!(back.vertex_for_event(eid(0, 1)), Some(a));
    }

    #[test]
    fn readback_preserves_vertex_and_edge_iteration_order() {
        // The evaluation layer (track extraction, golden fingerprints)
        // depends on deterministic iteration: `vertices()` in insertion
        // order and `out_edges`/`in_edges` in link order, both before and
        // after a serialize → deserialize round-trip.
        let mut g = TrajectoryGraph::new();
        let ids: Vec<VertexId> = (0..5)
            .map(|i| {
                g.insert_event(
                    eid(i, 1),
                    u64::from(i) * 10,
                    u64::from(i) * 10 + 5,
                    None,
                    None,
                )
            })
            .collect();
        // Edges inserted in a deliberately scrambled order.
        g.insert_edge(ids[0], ids[3], 0.3).unwrap();
        g.insert_edge(ids[0], ids[1], 0.1).unwrap();
        g.insert_edge(ids[2], ids[3], 0.2).unwrap();
        g.insert_edge(ids[0], ids[4], 0.4).unwrap();

        let vertex_order: Vec<VertexId> = g.vertices().map(|v| v.id).collect();
        assert_eq!(vertex_order, ids, "vertices() must follow insertion order");
        let out0: Vec<VertexId> = g.out_edges(ids[0]).iter().map(|e| e.to).collect();
        assert_eq!(
            out0,
            vec![ids[3], ids[1], ids[4]],
            "out_edges in link order"
        );
        let in3: Vec<VertexId> = g.in_edges(ids[3]).iter().map(|e| e.from).collect();
        assert_eq!(in3, vec![ids[0], ids[2]], "in_edges in link order");

        let json = serde_json::to_string(&g).unwrap();
        // Tolerate the offline test stubs, whose serde_json cannot parse;
        // the ordering assertions above still ran.
        let Ok(back) = serde_json::from_str::<TrajectoryGraph>(&json) else {
            return;
        };
        let back_vertices: Vec<VertexId> = back.vertices().map(|v| v.id).collect();
        assert_eq!(back_vertices, vertex_order, "round-trip reordered vertices");
        let back_out0: Vec<VertexId> = back.out_edges(ids[0]).iter().map(|e| e.to).collect();
        assert_eq!(back_out0, out0, "round-trip reordered out_edges");
        let back_in3: Vec<VertexId> = back.in_edges(ids[3]).iter().map(|e| e.from).collect();
        assert_eq!(back_in3, in3, "round-trip reordered in_edges");
        assert_eq!(back.edge_count(), g.edge_count());
    }
}
