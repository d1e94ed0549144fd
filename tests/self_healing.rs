//! Cross-crate integration: failure detection, MDCS healing and rejoin.

use coral_pie::core::{CameraSpec, CoralPieSystem, NodeConfig, SystemConfig};
use coral_pie::geo::{generators, route, GeoPoint, IntersectionId, RoadNetwork};
use coral_pie::sim::{FailureEvent, FailureKind, FailureSchedule, SimDuration, SimTime};
use coral_pie::topology::CameraId;
use coral_pie::vision::{DetectorNoise, ObjectClass};

fn system(n: usize, heartbeat_s: u64) -> (CoralPieSystem, coral_pie::geo::RoadNetwork) {
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
        heartbeat_interval: SimDuration::from_secs(heartbeat_s),
        ..SystemConfig::default()
    };
    (CoralPieSystem::new(net.clone(), &specs, config), net)
}

fn kill(at_s: u64, cam: u32) -> FailureSchedule {
    let mut s = FailureSchedule::new();
    s.push(FailureEvent {
        at: SimTime::from_secs(at_s),
        camera: CameraId(cam),
        kind: FailureKind::Kill,
    });
    s
}

#[test]
fn recovery_time_scales_with_heartbeat_interval() {
    let mut durations = Vec::new();
    for hb in [2u64, 5] {
        let (mut sys, _) = system(5, hb);
        sys.run_until(SimTime::from_secs(8));
        sys.set_failures(&kill(10, 2));
        sys.run_until(SimTime::from_secs(40));
        let r = sys.telemetry().recoveries[0];
        let d = r.duration();
        // Paper's bound: at most twice the heartbeat interval (plus
        // detection granularity and WAN dissemination).
        assert!(
            d <= SimDuration::from_secs(2 * hb) + SimDuration::from_millis(700),
            "hb {hb}s: recovery {d}"
        );
        assert!(
            d >= SimDuration::from_secs(hb) / 2,
            "hb {hb}s: recovery implausibly fast {d}"
        );
        durations.push(d);
    }
    assert!(
        durations[0] < durations[1],
        "2 s heartbeat must heal faster than 5 s: {durations:?}"
    );
}

#[test]
fn tracking_survives_a_mid_route_failure() {
    // Kill the middle camera of a 5-camera corridor while traffic flows;
    // after healing, upstream informs skip to the next surviving camera and
    // trajectories keep being linked (with the failed camera's segment
    // missing, not the whole track).
    let (mut sys, net) = system(5, 2);
    sys.run_until(SimTime::from_secs(2));
    // Steady vehicle stream.
    for k in 0..8u64 {
        let r = route::shortest_path(&net, IntersectionId(0), IntersectionId(4)).unwrap();
        sys.traffic_mut().spawn(
            SimTime::from_secs(2) + SimDuration::from_secs(12 * k),
            r,
            Some(ObjectClass::Car),
        );
    }
    sys.set_failures(&kill(30, 2));
    sys.run_until(SimTime::from_secs(160));
    sys.finish();

    // The failed camera is gone from the server and from its neighbour's
    // socket group.
    assert!(!sys.server().active_cameras().contains(&CameraId(2)));
    let down1 = sys
        .node(CameraId(1))
        .unwrap()
        .connection()
        .socket_group()
        .all_downstream();
    assert!(
        down1.contains(&CameraId(3)),
        "cam1 must skip to cam3: {down1:?}"
    );
    assert!(!down1.contains(&CameraId(2)));

    // Vehicles that crossed after the failure still get cam1 -> cam3 edges.
    let healed_links = sys.storage().with_graph(|g| {
        g.edges()
            .filter(|e| {
                let from = g.vertex(e.from).unwrap();
                let to = g.vertex(e.to).unwrap();
                from.camera == CameraId(1) && to.camera == CameraId(3)
            })
            .count()
    });
    assert!(
        healed_links >= 2,
        "expected healed cam1->cam3 trajectory edges, got {healed_links}"
    );
}

#[test]
fn failed_camera_rejoins_on_next_heartbeat_cycle() {
    let (mut sys, _) = system(3, 2);
    sys.run_until(SimTime::from_secs(5));
    // Kill camera 1 at 6 s; restore it at 14 s via the scheduled restore
    // path (the camera process reboots and resumes heartbeating).
    let mut schedule = kill(6, 1);
    schedule.push(FailureEvent {
        at: SimTime::from_secs(14),
        camera: CameraId(1),
        kind: FailureKind::Restore,
    });
    sys.set_failures(&schedule);
    sys.run_until(SimTime::from_secs(12));
    // While down, the server evicts the camera and the corridor skips it.
    assert_eq!(sys.server().active_cameras().len(), 2);
    assert!(!sys.server().active_cameras().contains(&CameraId(1)));
    sys.run_until(SimTime::from_secs(24));
    // The revived camera's first heartbeat re-registers it...
    assert!(
        sys.server().active_cameras().contains(&CameraId(1)),
        "restored camera must rejoin the topology"
    );
    assert_eq!(sys.server().active_cameras().len(), 3);
    // ...and MDCS re-stitches the corridor through it: cam0 routes to
    // cam1 again rather than skipping straight to cam2.
    let down0 = sys
        .node(CameraId(0))
        .unwrap()
        .connection()
        .socket_group()
        .all_downstream();
    assert!(
        down0.contains(&CameraId(1)),
        "cam0 must route through the revived cam1 again: {down0:?}"
    );
}

#[test]
fn kill_restore_cycle_round_trip() {
    // Two cameras go through a full Kill -> Restore cycle; both failures
    // heal within the paper's bound and the full roster is back at the end.
    let (mut sys, _) = system(6, 2);
    sys.run_until(SimTime::from_secs(5));
    let cams: Vec<CameraId> = (0..6).map(CameraId).collect();
    let schedule = FailureSchedule::kill_restore_cycle(
        &cams,
        2,
        SimTime::from_secs(8),
        SimDuration::from_secs(20),
        SimDuration::from_secs(10),
        9,
    );
    sys.set_failures(&schedule);
    sys.run_until(SimTime::from_secs(60));
    let recoveries = &sys.telemetry().recoveries;
    assert_eq!(recoveries.len(), 2, "both kills must be healed");
    for r in recoveries {
        assert!(
            r.duration() <= SimDuration::from_secs(4) + SimDuration::from_millis(900),
            "recovery exceeded the 2x heartbeat bound: {r:?}"
        );
    }
    assert_eq!(
        sys.server().active_cameras().len(),
        6,
        "every restored camera must have re-registered"
    );
}

#[test]
fn multiple_overlapping_failures_all_recover() {
    let (mut sys, _) = system(8, 2);
    sys.run_until(SimTime::from_secs(5));
    let mut schedule = FailureSchedule::new();
    // Two cameras die within one heartbeat of each other.
    schedule.push(FailureEvent {
        at: SimTime::from_secs(10),
        camera: CameraId(2),
        kind: FailureKind::Kill,
    });
    schedule.push(FailureEvent {
        at: SimTime::from_millis(10_900),
        camera: CameraId(5),
        kind: FailureKind::Kill,
    });
    sys.set_failures(&schedule);
    sys.run_until(SimTime::from_secs(40));
    let recoveries = &sys.telemetry().recoveries;
    assert_eq!(recoveries.len(), 2, "both failures must be healed");
    for r in recoveries {
        assert!(
            r.duration() <= SimDuration::from_secs(4) + SimDuration::from_millis(900),
            "{:?}",
            r
        );
    }
    // The corridor stitched itself back together: cam1 -> cam3, cam4 -> cam6.
    let down = |cam: u32| {
        sys.node(CameraId(cam))
            .unwrap()
            .connection()
            .socket_group()
            .all_downstream()
    };
    assert!(down(1).contains(&CameraId(3)));
    assert!(down(4).contains(&CameraId(6)));
}

/// Runs `sys` with camera `cam` killed at 10 s and asserts that its
/// eviction produces exactly one recovery, closed at the eviction sweep:
/// the camera is still registered just before `recovered_at` and gone at
/// it (`replay` rebuilds the same system to step up to that instant).
fn assert_recovered_at_eviction(replay: impl Fn() -> CoralPieSystem, cam: u32) {
    let mut sys = replay();
    sys.run_until(SimTime::from_secs(8));
    sys.set_failures(&kill(10, cam));
    sys.run_until(SimTime::from_secs(40));
    let recoveries = &sys.telemetry().recoveries;
    assert_eq!(recoveries.len(), 1, "{recoveries:?}");
    let r = recoveries[0];
    assert_eq!(r.killed, CameraId(cam));
    assert_eq!(r.killed_at, SimTime::from_secs(10));
    assert!(
        r.duration() <= SimDuration::from_secs(4) + SimDuration::from_millis(700),
        "{r:?}"
    );
    let mut twin = replay();
    twin.run_until(SimTime::from_secs(8));
    twin.set_failures(&kill(10, cam));
    twin.run_until(r.recovered_at - SimDuration::from_millis(1));
    assert!(twin.server().active_cameras().contains(&CameraId(cam)));
    twin.run_until(r.recovered_at);
    assert!(!twin.server().active_cameras().contains(&CameraId(cam)));
}

#[test]
fn lone_camera_eviction_recovers_instantly() {
    // No survivor has a table to change, so the eviction sends no update;
    // the recovery closes at the sweep that evicts the camera.
    let replay = || {
        let spec = CameraSpec {
            id: CameraId(0),
            site: IntersectionId(1),
            videoing_angle_deg: 0.0,
        };
        let net = generators::corridor(3, 120.0, 12.0);
        CoralPieSystem::new(net, &[spec], SystemConfig::default())
    };
    assert_recovered_at_eviction(replay, 0);
}

#[test]
fn upstream_only_camera_eviction_recovers_instantly() {
    // One-way road v0 -> v1 -> v2 with cameras at v0 and v2: camera 0 is
    // upstream of camera 1 but in no survivor's MDCS, so evicting it
    // changes no table.
    let replay = || {
        let base = GeoPoint::new(33.77, -84.39);
        let mut net = RoadNetwork::new();
        let v: Vec<IntersectionId> = (0..3)
            .map(|i| net.add_intersection(base.offset_m(0.0, 120.0 * f64::from(i))))
            .collect();
        net.add_lane(v[0], v[1], 12.0).unwrap();
        net.add_lane(v[1], v[2], 12.0).unwrap();
        let specs = [(0, v[0]), (1, v[2])].map(|(id, site)| CameraSpec {
            id: CameraId(id),
            site,
            videoing_angle_deg: 0.0,
        });
        CoralPieSystem::new(net, &specs, SystemConfig::default())
    };
    let mut sys = replay();
    sys.run_until(SimTime::from_secs(8));
    let table = |cam: u32| sys.server().table(CameraId(cam)).unwrap().all_downstream();
    assert_eq!(table(0), [CameraId(1)].into());
    assert!(table(1).is_empty());
    assert_recovered_at_eviction(replay, 0);
}
