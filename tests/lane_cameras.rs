//! End-to-end test of lane-resident cameras (paper §4.3, Fig. 8):
//! cameras A and B at intersections 1 and 2, cameras C and D along the
//! lane between them. The topology server assigns C and D to the lane by
//! position, MDCS chains A → C → D → B, and a vehicle produces the full
//! four-hop track.

use coral_pie::core::{CoralPieSystem, NodeConfig, SystemConfig};
use coral_pie::geo::{route, GeoPoint, RoadNetwork};
use coral_pie::sim::SimTime;
use coral_pie::storage::QueryOptions;
use coral_pie::topology::{CameraId, CameraSite};
use coral_pie::vision::{DetectorNoise, ObjectClass};

fn fig8_world() -> (RoadNetwork, Vec<(CameraId, GeoPoint, f64)>) {
    let base = GeoPoint::new(33.77, -84.39);
    let mut net = RoadNetwork::new();
    let v1 = net.add_intersection(base);
    // A long 400 m eastbound segment so the lane cameras' FOVs (35 m) do
    // not overlap the intersections.
    let v2 = net.add_intersection(base.offset_m(0.0, 400.0));
    net.add_two_way(v1, v2, 12.0).unwrap();
    let p1 = net.intersection(v1).unwrap().position;
    let p2 = net.intersection(v2).unwrap().position;
    let placements = vec![
        (CameraId(0), p1, 0.0),                // A at vertex 1
        (CameraId(1), p2, 0.0),                // B at vertex 2
        (CameraId(2), p1.lerp(p2, 0.33), 0.0), // C close to vertex 1
        (CameraId(3), p1.lerp(p2, 0.66), 0.0), // D close to vertex 2
    ];
    (net, placements)
}

#[test]
fn lane_cameras_join_by_position() {
    let (net, placements) = fig8_world();
    let config = SystemConfig {
        node: NodeConfig {
            detector_noise: DetectorNoise::perfect(),
            ..NodeConfig::default()
        },
        ..SystemConfig::default()
    };
    let mut sys = CoralPieSystem::with_positions(net, &placements, config);
    sys.run_until(SimTime::from_secs(3));

    // The server placed A and B at vertices, C and D along the lane.
    let topo = sys.server().topology();
    assert!(matches!(
        topo.camera(CameraId(0)).unwrap().site,
        CameraSite::Intersection(_)
    ));
    assert!(matches!(
        topo.camera(CameraId(1)).unwrap().site,
        CameraSite::Intersection(_)
    ));
    for lane_cam in [CameraId(2), CameraId(3)] {
        assert!(
            matches!(topo.camera(lane_cam).unwrap().site, CameraSite::Lane { .. }),
            "{lane_cam} should have been assigned to the lane"
        );
    }

    // Fig. 8 MDCS chain: each camera's eastbound downstream is exactly the
    // next camera along the segment.
    let down = |cam: u32| {
        sys.node(CameraId(cam))
            .unwrap()
            .connection()
            .socket_group()
            .all_downstream()
    };
    assert!(down(0).contains(&CameraId(2)), "A -> C: {:?}", down(0));
    assert!(!down(0).contains(&CameraId(3)), "A must stop at C");
    assert!(down(2).contains(&CameraId(3)), "C -> D: {:?}", down(2));
    assert!(down(3).contains(&CameraId(1)), "D -> B: {:?}", down(3));
}

#[test]
fn vehicle_produces_four_hop_track_through_lane_cameras() {
    let (net, placements) = fig8_world();
    let config = SystemConfig {
        node: NodeConfig {
            detector_noise: DetectorNoise::perfect(),
            ..NodeConfig::default()
        },
        ..SystemConfig::default()
    };
    let mut sys = CoralPieSystem::with_positions(net.clone(), &placements, config);
    sys.run_until(SimTime::from_secs(2));
    let r = route::shortest_path(
        &net,
        net.intersections().next().unwrap().id,
        net.intersections().last().unwrap().id,
    )
    .unwrap();
    sys.traffic_mut()
        .spawn(SimTime::from_secs(2), r, Some(ObjectClass::Car));
    sys.run_until(SimTime::from_secs(60));
    sys.finish();

    // All four cameras saw the vehicle exactly once...
    let report = coral_pie::eval::report(&sys);
    for cam in 0..4u32 {
        let acc = report.detection[&CameraId(cam)];
        assert_eq!((acc.tp, acc.fn_), (1, 0), "cam{cam}: {acc:?}");
    }
    // ...and the trajectory chains A -> C -> D -> B.
    let s = sys.storage().stats();
    assert_eq!(s.vertices, 4);
    let e = s.edges;
    assert!(e >= 3, "expected a full chain, got {e} edges");
    let seed = sys.storage().with_graph(|g| {
        g.vertices()
            .min_by_key(|rec| rec.first_seen_ms)
            .map(|rec| rec.id)
            .unwrap()
    });
    let track = sys
        .storage()
        .query_trajectory(seed, QueryOptions::default())
        .unwrap()
        .best_track();
    let cameras: Vec<CameraId> = sys
        .storage()
        .with_graph(|g| track.iter().map(|&v| g.vertex(v).unwrap().camera).collect());
    assert_eq!(
        cameras,
        vec![CameraId(0), CameraId(2), CameraId(3), CameraId(1)],
        "track must pass A, C, D, B in order"
    );
}
