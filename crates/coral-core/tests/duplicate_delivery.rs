//! Idempotent ingest under at-least-once delivery.
//!
//! The reliable transport retries unacked frames, so a camera may receive
//! the same `Inform` two or three times. Redelivery must be invisible in
//! the trajectory graph: the run's graph must be *structurally identical*
//! to a run where every message arrived exactly once.
//!
//! The fingerprint is computed from the graph structure itself (vertices
//! and adjacency in id order), not from a serialised form, so the
//! comparison is byte-exact and independent of any encoder.

use coral_core::{CameraNode, FrameOutput, NodeConfig};
use coral_geo::GeoPoint;
use coral_net::{Message, VertexId};
use coral_sim::{CameraView, SimDuration};
use coral_storage::EdgeStorageNode;
use coral_topology::CameraId;
use coral_vision::{
    BoundingBox, DetectorNoise, GroundTruthId, ObjectClass, Scene, SceneActor, VehicleAppearance,
};
use std::fmt::Write as _;

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
    CameraNode::new(
        CameraId(id),
        view(),
        config,
        SimDuration::from_millis(96),
        storage,
        7 + u64::from(id),
    )
}

fn car_scene(gt: u64, t: u32) -> Scene {
    Scene {
        width: 200,
        height: 160,
        actors: vec![SceneActor {
            gt: GroundTruthId(gt),
            class: ObjectClass::Car,
            bbox: BoundingBox::from_center(30.0 + 6.0 * f64::from(t), 80.0, 36.0, 22.0).unwrap(),
            appearance: VehicleAppearance::from_seed(gt),
        }],
    }
}

fn drive(node: &mut CameraNode, gt: u64, frames: u32, t0_ms: u64) -> FrameOutput {
    let mut all = FrameOutput::default();
    let mut now = t0_ms;
    for t in 0..frames {
        let out = node.on_frame(&car_scene(gt, t), now);
        all.messages.extend(out.messages);
        all.events.extend(out.events);
        all.reids.extend(out.reids);
        now += 96;
    }
    for _ in 0..6 {
        let out = node.on_frame(&Scene::empty(200, 160), now);
        all.messages.extend(out.messages);
        all.events.extend(out.events);
        all.reids.extend(out.reids);
        now += 96;
    }
    all
}

/// Canonical structural rendering of the trajectory graph: every vertex in
/// id order with its attributes, then its outgoing adjacency. Two graphs
/// produce the same string iff they are structurally identical.
fn fingerprint(storage: &EdgeStorageNode) -> String {
    storage.with_graph(|g| {
        let mut s = String::new();
        for idx in 0..g.vertex_count() {
            let id = VertexId(idx as u64);
            let v = g.vertex(id).expect("vertex in range");
            let _ = write!(
                s,
                "v{}:cam{},track{},first{},last{},heading{:?},gt{:?};",
                idx,
                v.camera.0,
                v.event.track.0,
                v.first_seen_ms,
                v.last_seen_ms,
                v.heading,
                v.ground_truth.map(|g| g.0),
            );
            for e in g.out_edges(id) {
                let _ = write!(s, "e{}->{}w{};", e.from.0, e.to.0, e.weight.to_bits());
            }
        }
        s
    })
}

/// Runs the canonical two-camera re-identification scenario, delivering
/// the upstream `Inform` `1 + extra_before` times before the downstream
/// sighting and `extra_after` more times after it (a late retransmission),
/// and returns the resulting graph fingerprint.
fn scenario(extra_before: usize, extra_after: usize) -> String {
    let storage = EdgeStorageNode::default();
    let mut upstream = perfect_node(0, storage.clone());
    let mut downstream = perfect_node(1, storage.clone());

    let up_out = drive(&mut upstream, 4, 15, 0);
    assert_eq!(up_out.events.len(), 1);
    let inform = Message::Inform(up_out.events[0].clone());

    for i in 0..=extra_before {
        downstream.on_message(inform.clone(), 3_000 + i as u64);
    }
    let down_out = drive(&mut downstream, 4, 15, 9_000);
    assert_eq!(down_out.reids.len(), 1, "the red car must be re-identified");
    for i in 0..extra_after {
        downstream.on_message(inform.clone(), 20_000 + i as u64);
    }
    // A late replay must not resurrect the candidate: re-running the
    // sighting from a fresh track must not re-match the consumed event.
    fingerprint(&storage)
}

#[test]
fn redelivered_inform_leaves_graph_byte_identical() {
    let once = scenario(0, 0);
    assert!(once.contains("e0->1"), "baseline must contain the edge");
    // Duplicates before the sighting, after it, and both.
    assert_eq!(once, scenario(2, 0), "pre-sighting duplicates leaked");
    assert_eq!(once, scenario(0, 2), "post-sighting replays leaked");
    assert_eq!(once, scenario(3, 3), "mixed replays leaked");
}

#[test]
fn replayed_recovery_edge_does_not_double_count() {
    // The storage client's edge write is itself idempotent: replaying the
    // exact (from, to) write — what a retried Recovery does — changes
    // nothing, down to the stored weight.
    let storage = EdgeStorageNode::default();
    let mut upstream = perfect_node(0, storage.clone());
    let mut downstream = perfect_node(1, storage.clone());
    let up_out = drive(&mut upstream, 4, 15, 0);
    downstream.on_message(Message::Inform(up_out.events[0].clone()), 3_000);
    let down_out = drive(&mut downstream, 4, 15, 9_000);
    assert_eq!(down_out.reids.len(), 1);
    let before = fingerprint(&storage);
    let from = up_out.events[0].vertex.expect("upstream vertex");
    let to = storage
        .with_graph(|g| g.vertex_for_event(down_out.events[0].event_id()))
        .expect("downstream vertex");
    storage
        .insert_edge(from, to, down_out.reids[0].distance)
        .expect("replay accepted");
    storage
        .insert_edge(from, to, 0.999)
        .expect("replay accepted");
    assert_eq!(fingerprint(&storage), before);
    assert_eq!(storage.stats().edges, 1);
}
