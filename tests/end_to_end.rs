//! Cross-crate integration: the full system from traffic to trajectory
//! query.

use coral_pie::core::{CameraSpec, CoralPieSystem, NodeConfig, SystemConfig};
use coral_pie::geo::{generators, route, IntersectionId};
use coral_pie::sim::{SimDuration, SimTime};
use coral_pie::storage::QueryOptions;
use coral_pie::topology::CameraId;
use coral_pie::vision::{DetectorNoise, GroundTruthId, ObjectClass};

fn corridor_system(n: usize) -> (CoralPieSystem, coral_pie::geo::RoadNetwork) {
    let net = generators::corridor(n, 120.0, 12.0);
    let specs: Vec<CameraSpec> = (0..n)
        .map(|i| CameraSpec {
            id: CameraId(i as u32),
            site: IntersectionId(i as u32),
            videoing_angle_deg: 0.0,
        })
        .collect();
    let config = SystemConfig {
        node: NodeConfig {
            detector_noise: DetectorNoise::perfect(),
            ..NodeConfig::default()
        },
        ..SystemConfig::default()
    };
    (CoralPieSystem::new(net.clone(), &specs, config), net)
}

#[test]
fn five_camera_five_vehicle_tracks() {
    let (mut sys, net) = corridor_system(5);
    sys.run_until(SimTime::from_secs(2));
    let mut ids = Vec::new();
    for k in 0..5u64 {
        let r = route::shortest_path(&net, IntersectionId(0), IntersectionId(4)).unwrap();
        ids.push(sys.traffic_mut().spawn(
            SimTime::from_secs(2) + SimDuration::from_secs(9 * k),
            r,
            Some(ObjectClass::Car),
        ));
    }
    sys.run_until(SimTime::from_secs(130));
    sys.finish();

    let report = coral_pie::eval::report(&sys);
    // Every camera saw every vehicle exactly once.
    for cam in 0..5u32 {
        let acc = report.detection[&CameraId(cam)];
        assert_eq!(acc.fn_, 0, "cam{cam} missed a vehicle: {acc:?}");
        assert_eq!(acc.tp, 5, "cam{cam}: {acc:?}");
    }
    // 5 vehicles x 4 transitions.
    assert_eq!(report.transitions.len(), 20);
    // The trajectory graph has one vertex per (camera, vehicle).
    let s = sys.storage().stats();
    assert_eq!(s.vertices, 25);
    let e = s.edges;
    assert!(e >= 15, "expected most transitions linked, got {e} edges");

    // Every vehicle's best track from its first detection covers >= 4
    // cameras with no identity switches.
    for id in ids {
        let gt = GroundTruthId(id.0);
        let seed = sys.storage().with_graph(|g| {
            g.vertices()
                .filter(|rec| rec.ground_truth == Some(gt))
                .min_by_key(|rec| rec.first_seen_ms)
                .map(|rec| rec.id)
                .expect("vehicle detected somewhere")
        });
        let track = sys
            .storage()
            .query_trajectory(seed, QueryOptions::default())
            .unwrap()
            .best_track();
        let ok = sys.storage().with_graph(|g| {
            track
                .iter()
                .all(|&v| g.vertex(v).unwrap().ground_truth == Some(gt))
        });
        assert!(ok, "identity switch on the track of {gt}");
        assert!(track.len() >= 4, "track too short for {gt}: {track:?}");
    }
}

#[test]
fn bidirectional_traffic_keeps_directions_apart() {
    let (mut sys, net) = corridor_system(3);
    sys.run_until(SimTime::from_secs(2));
    let east = route::shortest_path(&net, IntersectionId(0), IntersectionId(2)).unwrap();
    let west = route::shortest_path(&net, IntersectionId(2), IntersectionId(0)).unwrap();
    let e = sys
        .traffic_mut()
        .spawn(SimTime::from_secs(2), east, Some(ObjectClass::Car));
    let w = sys
        .traffic_mut()
        .spawn(SimTime::from_secs(3), west, Some(ObjectClass::Car));
    sys.run_until(SimTime::from_secs(60));
    sys.finish();
    let report = coral_pie::eval::report(&sys);
    // Both vehicles tracked end to end: 2 transitions each.
    assert_eq!(report.transitions.len(), 4);
    assert_eq!(report.reid.fn_, 0, "missed transitions: {:?}", report.reid);
    // No cross-direction confusion: every edge joins same-vehicle events.
    sys.storage().with_graph(|g| {
        for edge in g.edges() {
            let a = g.vertex(edge.from).unwrap().ground_truth;
            let b = g.vertex(edge.to).unwrap().ground_truth;
            assert_eq!(a, b, "edge mixes vehicles {a:?} and {b:?}");
        }
    });
    let _ = (e, w);
}

#[test]
fn topology_updates_propagate_to_socket_groups() {
    let (mut sys, _) = corridor_system(4);
    sys.run_until(SimTime::from_secs(3));
    // Interior cameras know both neighbours; edge cameras only one.
    let down = |cam: u32| {
        sys.node(CameraId(cam))
            .unwrap()
            .connection()
            .socket_group()
            .all_downstream()
    };
    assert_eq!(down(0).len(), 1);
    assert_eq!(down(1).len(), 2);
    assert_eq!(down(2).len(), 2);
    assert_eq!(down(3).len(), 1);
}

#[test]
fn detector_noise_degrades_but_does_not_break_tracking() {
    let net = generators::corridor(3, 120.0, 12.0);
    let specs: Vec<CameraSpec> = (0..3)
        .map(|i| CameraSpec {
            id: CameraId(i),
            site: IntersectionId(i),
            videoing_angle_deg: 0.0,
        })
        .collect();
    let config = SystemConfig {
        node: NodeConfig {
            detector_noise: DetectorNoise {
                miss_rate: 0.08,
                clutter_rate: 0.05,
                jitter_px: 2.0,
                ..DetectorNoise::default()
            },
            ..NodeConfig::default()
        },
        ..SystemConfig::default()
    };
    let mut sys = CoralPieSystem::new(net.clone(), &specs, config);
    sys.run_until(SimTime::from_secs(2));
    for k in 0..4u64 {
        let r = route::shortest_path(&net, IntersectionId(0), IntersectionId(2)).unwrap();
        sys.traffic_mut().spawn(
            SimTime::from_secs(2) + SimDuration::from_secs(10 * k),
            r,
            Some(ObjectClass::Car),
        );
    }
    sys.run_until(SimTime::from_secs(90));
    sys.finish();
    let report = coral_pie::eval::report(&sys);
    let mut total = coral_pie::eval::Accuracy::default();
    for acc in report.detection.values() {
        total.merge(*acc);
    }
    // Recall stays high (max_age absorbs missed frames); some false
    // positives are expected from clutter.
    assert!(total.recall() >= 0.8, "recall collapsed: {total:?}");
    assert!(total.f2() >= 0.6, "f2 collapsed: {total:?}");
}

#[test]
fn confirm_stage_cleans_sibling_pools() {
    // A branching junction: cam0 informs cams 1 and 2; the vehicle goes to
    // cam1; cam2's pool entry must end up matched (remotely) via the
    // confirm relay.
    use coral_pie::geo::{GeoPoint, RoadNetwork};
    let base = GeoPoint::new(33.77, -84.39);
    let mut net = RoadNetwork::new();
    let a = net.add_intersection(base);
    let j = net.add_intersection(base.offset_m(0.0, 150.0));
    let b = net.add_intersection(base.offset_m(0.0, 300.0));
    let c = net.add_intersection(base.offset_m(150.0, 150.0));
    net.add_two_way(a, j, 12.0).unwrap();
    net.add_two_way(j, b, 12.0).unwrap();
    net.add_two_way(j, c, 12.0).unwrap();
    let specs = vec![
        CameraSpec {
            id: CameraId(0),
            site: a,
            videoing_angle_deg: 0.0,
        },
        CameraSpec {
            id: CameraId(1),
            site: b,
            videoing_angle_deg: 0.0,
        },
        CameraSpec {
            id: CameraId(2),
            site: c,
            videoing_angle_deg: 0.0,
        },
    ];
    let config = SystemConfig {
        node: NodeConfig {
            detector_noise: DetectorNoise::perfect(),
            ..NodeConfig::default()
        },
        ..SystemConfig::default()
    };
    let mut sys = CoralPieSystem::new(net.clone(), &specs, config);
    sys.run_until(SimTime::from_secs(2));
    let r = route::shortest_path(&net, a, b).unwrap();
    sys.traffic_mut()
        .spawn(SimTime::from_secs(2), r, Some(ObjectClass::Car));
    sys.run_until(SimTime::from_secs(60));
    sys.finish();

    // Camera 2 received cam0's inform but never saw the vehicle; the
    // confirm relay must have annotated that entry as matched remotely.
    // (It may also hold a trailing inform from cam1's end-of-route event.)
    let cam2 = sys.node(CameraId(2)).unwrap();
    assert!(cam2.pool().stats().received >= 1);
    assert!(
        cam2.pool().stats().matched_remote >= 1,
        "confirm relay did not clean the sibling pool: {:?}",
        cam2.pool().stats()
    );
    let cam0_entry_matched = cam2
        .pool()
        .entries()
        .iter()
        .filter(|c| c.event.camera == CameraId(0))
        .all(|c| c.matched);
    assert!(cam0_entry_matched, "cam0's event left unmatched at cam2");
    // Camera 1 matched it locally.
    assert_eq!(
        sys.node(CameraId(1)).unwrap().pool().stats().matched_local,
        1
    );
}

#[test]
fn first_sightings_follow_the_system_frame_period() {
    // Nodes back-date a track's first sighting by whole frames, so with a
    // 200 ms frame period every stored interval lies on the 200 ms tick
    // grid.
    let net = generators::corridor(3, 120.0, 12.0);
    let specs: Vec<CameraSpec> = (0..3)
        .map(|i| CameraSpec {
            id: CameraId(i),
            site: IntersectionId(i),
            videoing_angle_deg: 0.0,
        })
        .collect();
    let config = SystemConfig {
        node: NodeConfig {
            detector_noise: DetectorNoise::perfect(),
            ..NodeConfig::default()
        },
        frame_period: SimDuration::from_millis(200),
        ..SystemConfig::default()
    };
    let mut sys = CoralPieSystem::new(net.clone(), &specs, config);
    for k in 0..3u64 {
        let r = route::shortest_path(&net, IntersectionId(0), IntersectionId(2)).unwrap();
        sys.traffic_mut()
            .spawn(SimTime::from_secs(1 + 7 * k), r, Some(ObjectClass::Car));
    }
    sys.run_until(SimTime::from_secs(60));
    sys.finish();
    let intervals: Vec<(u64, u64)> = sys.storage().with_graph(|g| {
        g.vertices()
            .map(|v| (v.first_seen_ms, v.last_seen_ms))
            .collect()
    });
    assert!(
        intervals.len() >= 6,
        "expected sightings, got {intervals:?}"
    );
    assert!(
        intervals.iter().any(|&(first, last)| first < last),
        "no multi-frame track: {intervals:?}"
    );
    for (first, last) in intervals {
        assert_eq!(
            first % 200,
            0,
            "first sighting {first} ms is off the tick grid"
        );
        assert_eq!(
            last % 200,
            0,
            "last sighting {last} ms is off the tick grid"
        );
    }
}
