//! The camera node: the full per-camera processing element.
//!
//! One `CameraNode` models the dedicated compute unit of one camera (the
//! two RPis + EdgeTPU of the paper), wiring together the continuous
//! processing of §4.1: Vehicle Identification → Inter-Camera Communication
//! → Vehicle Re-identification → Storage Client.

use crate::pool::CandidatePool;
use crate::reid::{ReIdentifier, ReidConfig, ReidMatch};
use coral_net::{ConnectionManager, DetectionEvent, EventId, Message, VertexId};
use coral_sim::CameraView;
use coral_storage::EdgeStorageNode;
use coral_topology::CameraId;
use coral_vision::{
    DetectorNoise, Frame, FrameId, GroundTruthId, IdentConfig, PostProcessor, Scene,
    SyntheticSsdDetector, VehicleIdentification, VehicleObservation,
};
use std::collections::BTreeSet;

/// Per-node configuration.
#[derive(Debug, Clone)]
pub struct NodeConfig {
    /// Vehicle-identification configuration (SORT, histograms, renderer).
    pub ident: IdentConfig,
    /// Detector noise model for this camera.
    pub detector_noise: DetectorNoise,
    /// Re-identification parameters.
    pub reid: ReidConfig,
    /// Candidate-pool lazy-GC threshold.
    pub pool_gc_size: usize,
    /// Prune matched pool entries eagerly instead of lazily — the
    /// alternative the paper rejects (§4.1.4); exposed for ablation.
    pub eager_pool_prune: bool,
    /// Fractional inset of the Context-of-Interest rectangle from the
    /// frame border (the CoI is "usually the central area", §4.1.2).
    pub coi_inset_frac: f64,
    /// Frame period in milliseconds (10.4 FPS ≈ 96 ms in the prototype).
    pub frame_period_ms: u64,
    /// Ship raw frames + annotations to the edge frame store (§4.2.2).
    /// Off by default in the simulation experiments (it multiplies memory
    /// traffic without affecting tracking metrics).
    pub store_frames: bool,
}

impl Default for NodeConfig {
    fn default() -> Self {
        Self {
            ident: IdentConfig::default(),
            detector_noise: DetectorNoise::default(),
            reid: ReidConfig::default(),
            pool_gc_size: 256,
            eager_pool_prune: false,
            coi_inset_frac: 0.05,
            frame_period_ms: 96,
            store_frames: false,
        }
    }
}

/// A re-identification performed by this node.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReidRecord {
    /// The upstream event that was matched.
    pub upstream: EventId,
    /// The local event that matched it.
    pub local: EventId,
    /// The Bhattacharyya distance of the match.
    pub distance: f64,
}

/// The node-local result of the expensive per-frame analysis phase
/// (render → detect → SORT → feature-extract), produced by
/// [`CameraNode::analyze_frame`] and consumed by
/// [`CameraNode::commit_frame`].
///
/// Analysis touches only node-private state (the tracker, the frame
/// sequence counter), so different cameras' analyses are independent and
/// the runtime may compute them in parallel; everything that touches
/// shared state — storage, the candidate pool, outgoing messages — waits
/// for the commit phase, which the runtime performs in strict `CameraId`
/// order (see `DESIGN.md` §5).
#[derive(Debug)]
pub struct FrameAnalysis {
    frame_id: FrameId,
    completed: Vec<VehicleObservation>,
    /// Rendered pixels + annotations bound for the edge frame store (only
    /// when `store_frames` is on; the ingest itself is a commit-phase
    /// effect so cross-camera storage order stays sequential).
    stored: Option<(Frame, Vec<coral_storage::Annotation>)>,
    /// Ground-truth vehicles the detector fired on this frame, ascending
    /// id (evaluation only; see `IdentFrameResult::detected_gt`).
    detected: Vec<GroundTruthId>,
}

impl FrameAnalysis {
    /// The frame this analysis belongs to.
    pub fn frame_id(&self) -> FrameId {
        self.frame_id
    }

    /// Tracks completed this frame (vehicles that left the FOV).
    pub fn completed(&self) -> &[VehicleObservation] {
        &self.completed
    }

    /// Ground-truth vehicles the detector fired on this frame, ascending
    /// id (evaluation only).
    pub fn detected(&self) -> &[GroundTruthId] {
        &self.detected
    }
}

/// A cross-camera trajectory edge committed this frame, with everything a
/// multi-region runtime needs to replicate it to the upstream camera's
/// region store (see `DESIGN.md` §13). With one region every upstream
/// camera is local, so nothing is replicated.
#[derive(Debug, Clone)]
pub struct HandoffEdge {
    /// The upstream vertex the edge leaves from.
    pub from_vertex: VertexId,
    /// The camera that generated the upstream event.
    pub from_camera: CameraId,
    /// The local (downstream) detection event; `vertex` is set.
    pub event: DetectionEvent,
    /// FOV-entry timestamp of the local event, milliseconds.
    pub first_ms: u64,
    /// Bhattacharyya distance of the re-identification (edge weight).
    pub distance: f64,
}

/// Output of processing one frame (or a flush).
#[derive(Debug, Clone, Default)]
pub struct FrameOutput {
    /// Messages to deliver to other cameras.
    pub messages: Vec<(CameraId, Message)>,
    /// Detection events generated this frame (one per vehicle that left
    /// the FOV).
    pub events: Vec<DetectionEvent>,
    /// Re-identifications performed this frame.
    pub reids: Vec<ReidRecord>,
    /// Cross-camera edges committed this frame (replication candidates).
    pub handoffs: Vec<HandoffEdge>,
}

/// The per-camera processing node.
#[derive(Debug)]
pub struct CameraNode {
    id: CameraId,
    view: CameraView,
    ident: VehicleIdentification<SyntheticSsdDetector>,
    connection: ConnectionManager,
    pool: CandidatePool,
    reid: ReIdentifier,
    storage: EdgeStorageNode,
    frame_seq: u64,
    frame_period_ms: u64,
    store_frames: bool,
    events_generated: u64,
}

impl CameraNode {
    /// Creates a node for `id` observing through `view`, persisting to
    /// `storage`.
    pub fn new(
        id: CameraId,
        view: CameraView,
        config: NodeConfig,
        storage: EdgeStorageNode,
        seed: u64,
    ) -> Self {
        let mut ident_cfg = config.ident.clone();
        ident_cfg.videoing_angle_deg = view.videoing_angle_deg;
        let inset = config.coi_inset_frac.clamp(0.0, 0.45);
        let (w, h) = (f64::from(view.image_width), f64::from(view.image_height));
        let coi =
            coral_geo::Polygon::rect(w * inset, h * inset, w * (1.0 - inset), h * (1.0 - inset));
        let detector = SyntheticSsdDetector::new(config.detector_noise, seed);
        Self {
            id,
            view,
            ident: VehicleIdentification::new(detector, PostProcessor::new(coi), ident_cfg, seed),
            connection: ConnectionManager::new(id, view.position, view.videoing_angle_deg),
            pool: if config.eager_pool_prune {
                CandidatePool::new_eager(config.pool_gc_size)
            } else {
                CandidatePool::new(config.pool_gc_size)
            },
            reid: ReIdentifier::new(config.reid),
            storage,
            frame_seq: 0,
            frame_period_ms: config.frame_period_ms.max(1),
            store_frames: config.store_frames,
            events_generated: 0,
        }
    }

    /// The camera id.
    pub fn id(&self) -> CameraId {
        self.id
    }

    /// The camera's view geometry.
    pub fn view(&self) -> &CameraView {
        &self.view
    }

    /// Swaps the node's storage handle. Region failover: the camera starts
    /// writing events to the adoptive region's store; vertex ids stay
    /// globally unique because all region stores share one allocator.
    pub fn set_storage(&mut self, storage: EdgeStorageNode) {
        self.storage = storage;
    }

    /// The candidate pool (telemetry).
    pub fn pool(&self) -> &CandidatePool {
        &self.pool
    }

    /// The communication element (telemetry).
    pub fn connection(&self) -> &ConnectionManager {
        &self.connection
    }

    /// The re-identification element (telemetry).
    pub fn reid(&self) -> &ReIdentifier {
        &self.reid
    }

    /// Detection events generated so far.
    pub fn events_generated(&self) -> u64 {
        self.events_generated
    }

    /// Tracks currently alive in the camera-local SORT tracker.
    pub fn live_track_count(&self) -> usize {
        self.ident.live_track_count()
    }

    /// Histogram scratch-arena counters: `(reuses, allocations)`.
    pub fn scratch_stats(&self) -> (u64, u64) {
        self.ident.scratch_stats()
    }

    /// Advances the frame counter for a tick on which the runtime's
    /// occupancy oracle proved no vehicle is near this camera *and* the
    /// tracker holds no live tracks. It is [`CameraNode::analyze_frame`]'s
    /// empty-scene fast path, callable without building a scene; it draws
    /// nothing from the detector's clutter RNG, so sparse and dense
    /// stepping stay byte-identical.
    pub fn advance_idle_frame(&mut self) -> FrameAnalysis {
        debug_assert_eq!(
            self.ident.live_track_count(),
            0,
            "idle fast path requires an empty tracker"
        );
        let frame_id = FrameId(self.frame_seq);
        self.frame_seq += 1;
        FrameAnalysis {
            frame_id,
            completed: Vec::new(),
            stored: None,
            detected: Vec::new(),
        }
    }

    /// Processes one captured frame. `broadcast_roster`, when set, replaces
    /// MDCS routing with flooding to every listed camera (the baseline of
    /// §5.3); `None` uses the socket group.
    ///
    /// Equivalent to [`CameraNode::analyze_frame`] followed immediately by
    /// [`CameraNode::commit_frame`] — the split exists so the runtime can
    /// run the expensive analysis phase of many cameras in parallel.
    pub fn on_frame(
        &mut self,
        scene: &Scene,
        now_ms: u64,
        broadcast_roster: Option<&BTreeSet<CameraId>>,
    ) -> FrameOutput {
        let analysis = self.analyze_frame(scene);
        self.commit_frame(analysis, now_ms, broadcast_roster)
    }

    /// The expensive, node-local half of frame processing: render the
    /// scene, run detection/SORT/feature extraction, and collect the
    /// tracks completed this frame. Mutates only node-private state (the
    /// tracker and the frame sequence counter), so analyses of different
    /// cameras are independent and may run concurrently.
    pub fn analyze_frame(&mut self, scene: &Scene) -> FrameAnalysis {
        // Fast path: an empty scene with no live tracks cannot produce
        // detections, matches or expirations — skip rendering/inference.
        // (A camera watching an empty street spends its cycles idling.)
        if scene.actors.is_empty() && self.ident.live_track_count() == 0 {
            return self.advance_idle_frame();
        }
        let frame_id = FrameId(self.frame_seq);
        self.frame_seq += 1;
        if self.store_frames {
            // Render once, analyse the same pixels, and carry the raw
            // frame with its annotations to the commit phase for the edge
            // frame store (§4.2.2).
            let frame = self.ident.render(frame_id, scene);
            let result = self.ident.process_rendered(frame_id, scene, &frame);
            let annotations = result
                .active
                .iter()
                .map(|st| coral_storage::Annotation {
                    bbox: st.bbox,
                    track: st.id,
                })
                .collect();
            FrameAnalysis {
                frame_id,
                completed: result.completed,
                stored: Some((frame, annotations)),
                detected: result.detected_gt,
            }
        } else {
            let result = self.ident.process_scene(frame_id, scene);
            FrameAnalysis {
                frame_id,
                completed: result.completed,
                stored: None,
                detected: result.detected_gt,
            }
        }
    }

    /// The shared-state half of frame processing: ship the stored frame
    /// (if any) to the edge store and turn each completed track into a
    /// detection event — storage vertex, pool re-identification, confirm
    /// and inform messages. The runtime calls this in strict `CameraId`
    /// order so shared effects interleave exactly as a sequential run.
    pub fn commit_frame(
        &mut self,
        analysis: FrameAnalysis,
        now_ms: u64,
        broadcast_roster: Option<&BTreeSet<CameraId>>,
    ) -> FrameOutput {
        if let Some((frame, annotations)) = analysis.stored {
            self.storage.ingest_frame(
                self.id,
                coral_storage::StoredFrame {
                    frame: analysis.frame_id,
                    timestamp_ms: now_ms,
                    pixels: Some(frame),
                    annotations,
                },
            );
        }
        let mut out = FrameOutput::default();
        for obs in analysis.completed {
            self.handle_observation(obs, now_ms, broadcast_roster, &mut out);
        }
        out
    }

    /// Flushes in-flight tracks (end of stream), emitting their events.
    pub fn flush(
        &mut self,
        now_ms: u64,
        broadcast_roster: Option<&BTreeSet<CameraId>>,
    ) -> FrameOutput {
        let mut out = FrameOutput::default();
        for obs in self.ident.flush() {
            self.handle_observation(obs, now_ms, broadcast_roster, &mut out);
        }
        out
    }

    /// Handles an incoming message, returning any messages to send in
    /// response (confirmation relays).
    pub fn on_message(&mut self, message: Message, now_ms: u64) -> Vec<(CameraId, Message)> {
        match message {
            Message::Inform(event) => {
                self.pool.add(event, now_ms);
                Vec::new()
            }
            Message::Confirm {
                event,
                reidentified_by,
            } => {
                if event.camera == self.id {
                    // We are the predecessor: relay to the rest of our MDCS.
                    self.connection.on_confirmation(event, reidentified_by)
                } else {
                    // A sibling downstream camera won the match: annotate
                    // for lazy GC.
                    self.pool.mark_matched_remote(event);
                    Vec::new()
                }
            }
            Message::TopologyUpdate(update) => {
                self.connection.on_topology_update(update);
                Vec::new()
            }
            Message::Heartbeat { .. } => Vec::new(), // cameras do not receive heartbeats
            Message::Replicate { .. } => Vec::new(), // storage-plane traffic, not for cameras
            // Reliable-delivery framing is normally stripped by the
            // transport; unwrap defensively if a raw frame reaches us.
            Message::Sequenced { payload, .. } => self.on_message(*payload, now_ms),
            Message::Ack { .. } => Vec::new(), // transport-internal traffic
        }
    }

    /// Builds the periodic heartbeat for the topology server.
    pub fn heartbeat(&mut self) -> Message {
        self.connection.heartbeat()
    }

    fn handle_observation(
        &mut self,
        obs: VehicleObservation,
        now_ms: u64,
        broadcast_roster: Option<&BTreeSet<CameraId>>,
        out: &mut FrameOutput,
    ) {
        self.events_generated += 1;
        let span_frames = obs.last_frame.0.saturating_sub(obs.first_frame.0);
        let first_ms = now_ms.saturating_sub(span_frames * self.frame_period_ms);
        let mut event = DetectionEvent {
            camera: self.id,
            timestamp_ms: now_ms,
            heading: obs.heading,
            bearing_deg: obs.bearing_deg,
            signature: obs.signature,
            track: obs.track,
            vertex: None,
            ground_truth: obs.ground_truth,
        };
        // Storage: insert the vertex, then add its id back to the JSON
        // object "such that [it] can be accessed from other cameras"
        // (§4.2.1 step a). The signature rides along so investigators can
        // query by appearance.
        let vertex = self.storage.insert_event_with_signature(
            event.event_id(),
            first_ms,
            now_ms,
            event.heading,
            Some(event.signature.clone()),
            event.ground_truth,
        );
        event.vertex = Some(vertex);

        // Re-identification against the candidate pool (§4.1.4).
        if let Some(ReidMatch {
            candidate,
            distance,
        }) = self.reid.match_event(&event, &self.pool)
        {
            if let Some(cand) = self.pool.get(candidate) {
                if let Some(up_vertex) = cand.event.vertex {
                    // §4.2.1 step b: edge pointing to the newer detection,
                    // weighted by the Bhattacharyya distance.
                    let mut inserted = self.storage.insert_edge(up_vertex, vertex, distance);
                    if matches!(inserted, Err(coral_storage::GraphError::UnknownVertex(_))) {
                        // Federated deployment: the upstream vertex lives
                        // in another region's store. Adopt it at its
                        // global id from the inform copy — the only
                        // metadata this camera holds, so the interval is
                        // the point timestamp — then retry. The union view
                        // prefers the owner region's record, so the
                        // approximation never surfaces in merged queries.
                        self.storage.adopt_event(
                            up_vertex,
                            cand.event.event_id(),
                            cand.event.timestamp_ms,
                            cand.event.timestamp_ms,
                            cand.event.heading,
                            Some(cand.event.signature.clone()),
                            cand.event.ground_truth,
                        );
                        inserted = self.storage.insert_edge(up_vertex, vertex, distance);
                    }
                    let _ = inserted;
                    out.handoffs.push(HandoffEdge {
                        from_vertex: up_vertex,
                        from_camera: cand.event.camera,
                        event: event.clone(),
                        first_ms,
                        distance,
                    });
                }
            }
            self.pool.mark_matched_local(candidate);
            out.messages
                .push(self.connection.confirm_to_upstream(candidate));
            out.reids.push(ReidRecord {
                upstream: candidate,
                local: event.event_id(),
                distance,
            });
        }

        // Informing stage: MDCS routing, or flooding for the baseline.
        let informs = match broadcast_roster {
            Some(roster) => {
                let recipients: BTreeSet<CameraId> =
                    roster.iter().copied().filter(|&c| c != self.id).collect();
                self.connection.on_detection_to(event.clone(), recipients)
            }
            None => self.connection.on_detection(event.clone()),
        };
        out.messages.extend(informs);
        out.events.push(event);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use coral_geo::GeoPoint;
    use coral_topology::MdcsUpdate;
    use coral_vision::{BoundingBox, GroundTruthId, ObjectClass, SceneActor, VehicleAppearance};

    fn view() -> CameraView {
        CameraView {
            position: GeoPoint::new(33.77, -84.39),
            videoing_angle_deg: 0.0,
            range_m: 35.0,
            image_width: 200,
            image_height: 160,
            effects: None,
        }
    }

    fn perfect_node(id: u32, storage: EdgeStorageNode) -> CameraNode {
        let config = NodeConfig {
            detector_noise: DetectorNoise::perfect(),
            ..NodeConfig::default()
        };
        CameraNode::new(CameraId(id), view(), config, storage, 7 + u64::from(id))
    }

    fn car_scene(gt: u64, t: u32) -> Scene {
        Scene {
            width: 200,
            height: 160,
            actors: vec![SceneActor {
                gt: GroundTruthId(gt),
                class: ObjectClass::Car,
                bbox: BoundingBox::from_center(30.0 + 6.0 * f64::from(t), 80.0, 36.0, 22.0)
                    .unwrap(),
                appearance: VehicleAppearance::from_seed(gt),
            }],
        }
    }

    /// Drives a car through the node's FOV; returns all outputs.
    fn drive(node: &mut CameraNode, gt: u64, frames: u32, t0_ms: u64) -> FrameOutput {
        let mut all = FrameOutput::default();
        let mut now = t0_ms;
        for t in 0..frames {
            let out = node.on_frame(&car_scene(gt, t), now, None);
            merge(&mut all, out);
            now += 96;
        }
        for _ in 0..6 {
            let out = node.on_frame(&Scene::empty(200, 160), now, None);
            merge(&mut all, out);
            now += 96;
        }
        all
    }

    fn merge(all: &mut FrameOutput, out: FrameOutput) {
        all.messages.extend(out.messages);
        all.events.extend(out.events);
        all.reids.extend(out.reids);
    }

    #[test]
    fn vehicle_passage_generates_one_event_with_vertex() {
        let storage = EdgeStorageNode::default();
        let mut node = perfect_node(0, storage.clone());
        let out = drive(&mut node, 4, 15, 10_000);
        assert_eq!(out.events.len(), 1);
        let e = &out.events[0];
        assert_eq!(e.camera, CameraId(0));
        assert!(e.vertex.is_some(), "vertex id added back to the event");
        assert_eq!(e.ground_truth, Some(GroundTruthId(4)));
        let s = storage.stats();
        assert_eq!(s.vertices, 1);
        assert_eq!(s.edges, 0);
        // No MDCS configured: nothing informed.
        assert!(out.messages.is_empty());
        assert_eq!(node.events_generated(), 1);
    }

    #[test]
    fn cross_camera_reid_builds_trajectory_edge_and_confirms() {
        let storage = EdgeStorageNode::default();
        let mut upstream = perfect_node(0, storage.clone());
        let mut downstream = perfect_node(1, storage.clone());

        // The red car (gt 4) crosses the upstream camera.
        let up_out = drive(&mut upstream, 4, 15, 0);
        let up_event = up_out.events[0].clone();

        // Deliver the inform to the downstream camera.
        let replies = downstream.on_message(Message::Inform(up_event.clone()), 3_000);
        assert!(replies.is_empty());
        assert_eq!(downstream.pool().len(), 1);

        // The same car appears at the downstream camera a few seconds later.
        let down_out = drive(&mut downstream, 4, 15, 9_000);
        assert_eq!(down_out.events.len(), 1);
        assert_eq!(down_out.reids.len(), 1, "should re-identify the red car");
        let r = down_out.reids[0];
        assert_eq!(r.upstream, up_event.event_id());

        // The confirm message goes to the upstream camera.
        let confirm = down_out
            .messages
            .iter()
            .find(|(_, m)| matches!(m, Message::Confirm { .. }))
            .expect("confirmation sent");
        assert_eq!(confirm.0, CameraId(0));

        // A trajectory edge now links the two events.
        let s = storage.stats();
        assert_eq!((s.vertices, s.edges), (2, 1));
        let up_vertex = up_event.vertex.unwrap();
        storage.with_graph(|g| {
            assert_eq!(g.out_edges(up_vertex).len(), 1);
        });
        // The pool entry is annotated matched (lazy GC).
        assert_eq!(downstream.pool().unmatched_len(), 0);
        assert_eq!(downstream.pool().len(), 1);
    }

    #[test]
    fn different_vehicle_is_not_reidentified() {
        let storage = EdgeStorageNode::default();
        let mut upstream = perfect_node(0, storage.clone());
        let mut downstream = perfect_node(1, storage.clone());
        let up_out = drive(&mut upstream, 1, 15, 0); // black car
        downstream.on_message(Message::Inform(up_out.events[0].clone()), 2_000);
        let down_out = drive(&mut downstream, 4, 15, 9_000); // red car
        assert!(down_out.reids.is_empty(), "colors differ: no match");
        assert_eq!(storage.stats().edges, 0);
    }

    #[test]
    fn confirm_for_own_event_is_relayed_confirm_for_foreign_marks_pool() {
        let storage = EdgeStorageNode::default();
        let mut node = perfect_node(0, storage.clone());
        // Foreign event in the pool.
        let mut other = perfect_node(2, storage);
        let foreign = drive(&mut other, 5, 12, 0).events[0].clone();
        node.on_message(Message::Inform(foreign.clone()), 1_000);
        assert_eq!(node.pool().unmatched_len(), 1);
        // A sibling camera matched it: mark, no relay.
        let replies = node.on_message(
            Message::Confirm {
                event: foreign.event_id(),
                reidentified_by: CameraId(3),
            },
            2_000,
        );
        assert!(replies.is_empty());
        assert_eq!(node.pool().unmatched_len(), 0);
    }

    #[test]
    fn broadcast_roster_floods_everyone_but_self() {
        let storage = EdgeStorageNode::default();
        let mut node = perfect_node(0, storage);
        let roster: BTreeSet<CameraId> = (0..5).map(CameraId).collect();
        let mut all = FrameOutput::default();
        let mut now = 0;
        for t in 0..12 {
            merge(
                &mut all,
                node.on_frame(&car_scene(4, t), now, Some(&roster)),
            );
            now += 96;
        }
        for _ in 0..6 {
            merge(
                &mut all,
                node.on_frame(&Scene::empty(200, 160), now, Some(&roster)),
            );
            now += 96;
        }
        let informs: Vec<CameraId> = all
            .messages
            .iter()
            .filter(|(_, m)| matches!(m, Message::Inform(_)))
            .map(|(c, _)| *c)
            .collect();
        assert_eq!(informs.len(), 4, "four peers informed: {informs:?}");
        assert!(!informs.contains(&CameraId(0)));
    }

    #[test]
    fn topology_update_reconfigures_socket_group() {
        let storage = EdgeStorageNode::default();
        let mut node = perfect_node(0, storage);
        assert_eq!(node.connection().socket_group().reconfigurations(), 0);
        node.on_message(
            Message::TopologyUpdate(MdcsUpdate {
                camera: CameraId(0),
                table: Default::default(),
                version: 1,
            }),
            0,
        );
        assert_eq!(node.connection().socket_group().reconfigurations(), 1);
    }

    #[test]
    fn analyze_then_commit_matches_on_frame() {
        let storage_a = EdgeStorageNode::default();
        let storage_b = EdgeStorageNode::default();
        let mut a = perfect_node(0, storage_a.clone());
        let mut b = perfect_node(0, storage_b.clone());
        let mut all_a = FrameOutput::default();
        let mut all_b = FrameOutput::default();
        let mut now = 0;
        for t in 0..15 {
            merge(&mut all_a, a.on_frame(&car_scene(4, t), now, None));
            let analysis = b.analyze_frame(&car_scene(4, t));
            merge(&mut all_b, b.commit_frame(analysis, now, None));
            now += 96;
        }
        for _ in 0..6 {
            merge(&mut all_a, a.on_frame(&Scene::empty(200, 160), now, None));
            let analysis = b.analyze_frame(&Scene::empty(200, 160));
            merge(&mut all_b, b.commit_frame(analysis, now, None));
            now += 96;
        }
        let ids_a: Vec<_> = all_a.events.iter().map(|e| e.event_id()).collect();
        let ids_b: Vec<_> = all_b.events.iter().map(|e| e.event_id()).collect();
        assert_eq!(ids_a, ids_b);
        assert_eq!(all_a.messages.len(), all_b.messages.len());
        assert_eq!(storage_a.stats(), storage_b.stats());
    }

    #[test]
    fn flush_emits_in_flight_tracks() {
        let storage = EdgeStorageNode::default();
        let mut node = perfect_node(0, storage);
        let mut now = 0;
        for t in 0..8 {
            node.on_frame(&car_scene(4, t), now, None);
            now += 96;
        }
        let out = node.flush(now, None);
        assert_eq!(out.events.len(), 1);
    }
}
