//! End-to-end U-turn support (paper footnote 3): with
//! `include_self_uturn`, a camera is in its own MDCS, self-informs its
//! detections, and re-identifies a vehicle that turns around beyond its
//! FOV and comes back.

use coral_pie::core::{CameraSpec, CoralPieSystem, NodeConfig, ReidConfig, SystemConfig};
use coral_pie::geo::{generators, route::Route, IntersectionId};
use coral_pie::sim::SimTime;
use coral_pie::topology::{CameraId, MdcsOptions};
use coral_pie::vision::{DetectorNoise, DetectorNoise as _DN, ObjectClass};

fn uturn_system() -> (CoralPieSystem, coral_pie::geo::RoadNetwork) {
    // Corridor 0 - 1 - 2 with cameras at 0 and 1 only; intersection 2 is
    // an uncamera'd turnaround point.
    let net = generators::corridor(3, 120.0, 12.0);
    let specs = vec![
        CameraSpec {
            id: CameraId(0),
            site: IntersectionId(0),
            videoing_angle_deg: 0.0,
        },
        CameraSpec {
            id: CameraId(1),
            site: IntersectionId(1),
            videoing_angle_deg: 0.0,
        },
    ];
    let config = SystemConfig {
        node: NodeConfig {
            detector_noise: DetectorNoise::perfect(),
            reid: ReidConfig {
                allow_same_camera: true,
                ..ReidConfig::default()
            },
            ..NodeConfig::default()
        },
        mdcs: MdcsOptions {
            include_self_uturn: true,
            ..MdcsOptions::default()
        },
        ..SystemConfig::default()
    };
    (CoralPieSystem::new(net.clone(), &specs, config), net)
}

/// The out-and-back route 1 → 2 → 1 → 0 (U-turn at intersection 2).
fn out_and_back(net: &coral_pie::geo::RoadNetwork) -> Route {
    let lane = |from: u32, to: u32| {
        net.out_lanes(IntersectionId(from))
            .iter()
            .copied()
            .find(|&l| net.lane(l).unwrap().to == IntersectionId(to))
            .expect("corridor lane exists")
    };
    Route::new(net, vec![lane(0, 1), lane(1, 2), lane(2, 1), lane(1, 0)]).expect("connected route")
}

#[test]
fn self_is_in_the_mdcs() {
    let (mut sys, _) = uturn_system();
    sys.run_until(SimTime::from_secs(3));
    // Camera 1's eastward MDCS (toward the dead end) contains itself.
    let table = sys
        .node(CameraId(1))
        .unwrap()
        .connection()
        .socket_group()
        .table()
        .clone();
    let east = table
        .get(coral_pie::geo::Heading::East)
        .expect("east is an admitted heading");
    assert!(east.contains(&CameraId(1)), "self missing: {east:?}");
}

#[test]
fn uturn_vehicle_is_reidentified_by_the_same_camera() {
    let (mut sys, net) = uturn_system();
    sys.run_until(SimTime::from_secs(2));
    sys.traffic_mut().spawn(
        SimTime::from_secs(2),
        out_and_back(&net),
        Some(ObjectClass::Car),
    );
    sys.run_until(SimTime::from_secs(80));
    sys.finish();

    // Camera 1 saw the vehicle twice (east-bound then west-bound): two
    // events, and the second re-identified the first (a cam1 -> cam1
    // trajectory edge).
    let cam1_events = sys
        .telemetry()
        .events
        .iter()
        .filter(|(c, _, _)| *c == CameraId(1))
        .count();
    assert!(
        cam1_events >= 2,
        "expected two cam1 events, got {cam1_events}"
    );
    let self_edges = sys.storage().with_graph(|g| {
        g.edges()
            .filter(|e| {
                let from = g.vertex(e.from).unwrap();
                let to = g.vertex(e.to).unwrap();
                from.camera == CameraId(1) && to.camera == CameraId(1)
            })
            .count()
    });
    assert!(
        self_edges >= 1,
        "U-turn should produce a same-camera trajectory edge"
    );
    // The full track visits cam0, cam1, cam1, cam0.
    let report = coral_pie::eval::report(&sys);
    assert!(
        report.reid.tp >= 2,
        "out-and-back transitions should be linked: {:?}",
        report.reid
    );
}

#[test]
fn without_uturn_support_the_same_scenario_misses_the_link() {
    // Control: identical traffic with the default options loses the
    // cam1 -> cam1 link (the paper's default scoping).
    let net = generators::corridor(3, 120.0, 12.0);
    let specs = vec![
        CameraSpec {
            id: CameraId(0),
            site: IntersectionId(0),
            videoing_angle_deg: 0.0,
        },
        CameraSpec {
            id: CameraId(1),
            site: IntersectionId(1),
            videoing_angle_deg: 0.0,
        },
    ];
    let config = SystemConfig {
        node: NodeConfig {
            detector_noise: _DN::perfect(),
            ..NodeConfig::default()
        },
        ..SystemConfig::default()
    };
    let mut sys = CoralPieSystem::new(net.clone(), &specs, config);
    sys.run_until(SimTime::from_secs(2));
    sys.traffic_mut().spawn(
        SimTime::from_secs(2),
        out_and_back(&net),
        Some(ObjectClass::Car),
    );
    sys.run_until(SimTime::from_secs(80));
    sys.finish();
    let self_edges = sys.storage().with_graph(|g| {
        g.edges()
            .filter(|e| {
                let from = g.vertex(e.from).unwrap();
                let to = g.vertex(e.to).unwrap();
                from.camera == to.camera
            })
            .count()
    });
    assert_eq!(self_edges, 0, "default config must not self-link");
}
