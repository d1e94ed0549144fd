//! End-to-end behavior of the deployed system through the public facade —
//! the same scenarios the original monolithic event loop pinned, now
//! exercising the layered runtime (deploy → runtime → telemetry).

use coral_core::{CameraSpec, CoralPieSystem, NodeConfig, SystemConfig};
use coral_geo::{generators, IntersectionId, RoadNetwork};
use coral_sim::{FailureEvent, FailureKind, FailureSchedule, SimDuration, SimTime, TrafficLight};
use coral_topology::CameraId;
use coral_vision::DetectorNoise;
use std::collections::BTreeSet;

fn corridor_system(n: usize, broadcast: bool) -> (CoralPieSystem, RoadNetwork) {
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
        broadcast,
        ..SystemConfig::default()
    };
    (CoralPieSystem::new(net.clone(), &specs, config), net)
}

#[test]
fn cameras_join_and_get_mdcs_tables() {
    let (mut sys, _) = corridor_system(3, false);
    sys.run_until(SimTime::from_secs(3));
    assert_eq!(sys.server().active_cameras().len(), 3);
    // The middle camera's socket group knows both neighbours.
    let node = sys.node(CameraId(1)).unwrap();
    let down = node.connection().socket_group().all_downstream();
    assert_eq!(down, BTreeSet::from([CameraId(0), CameraId(2)]));
}

#[test]
fn end_to_end_track_single_vehicle() {
    let (mut sys, net) = corridor_system(3, false);
    // Let cameras join first.
    sys.run_until(SimTime::from_secs(2));
    // One vehicle end to end.
    let route =
        coral_geo::route::shortest_path(&net, IntersectionId(0), IntersectionId(2)).unwrap();
    sys.traffic_mut().spawn(
        SimTime::from_secs(2),
        route,
        Some(coral_vision::ObjectClass::Car),
    );
    sys.run_until(SimTime::from_secs(40));
    sys.finish();

    // Ground truth: the vehicle passed all three cameras.
    let report = sys.report();
    assert_eq!(report.transitions.len(), 2, "{:?}", report.transitions);
    // All three cameras detected it.
    for cam in 0..3u32 {
        let acc = report.detection[&CameraId(cam)];
        assert_eq!(acc.fn_, 0, "cam{cam} missed the vehicle: {acc:?}");
        assert!(acc.tp >= 1);
    }
    // Re-identification linked the events across cameras.
    assert_eq!(
        report.reid.fn_, 0,
        "expected full trajectory: {:?}",
        report.reid
    );
    assert!(report.reid.tp >= 2);
    // The trajectory graph holds a 3-vertex chain.
    let s = sys.storage().stats();
    assert_eq!(s.vertices, 3);
    assert!(s.edges >= 2);
    // Protocol effectiveness (the Fig. 10a property): for every
    // camera-to-camera transition, the *earliest* inform for the vehicle
    // reaches the downstream camera before the vehicle does.
    let passages = &sys.telemetry().passages;
    let informs = &sys.telemetry().informs;
    for t in &report.transitions {
        let p = passages
            .iter()
            .find(|p| p.camera == t.to && p.vehicle == t.vehicle)
            .expect("transition implies a passage");
        let earliest = informs
            .iter()
            .filter(|i| i.at == t.to && i.vehicle == Some(t.vehicle))
            .map(|i| i.arrived.as_millis())
            .min()
            .expect("an inform must precede the transition");
        assert!(
            earliest < p.entered_ms,
            "inform at {earliest} ms after vehicle at {} ms",
            p.entered_ms
        );
    }
}

#[test]
fn broadcast_pollutes_pools_more_than_mdcs() {
    let run = |broadcast: bool| {
        let (mut sys, net) = corridor_system(5, broadcast);
        sys.run_until(SimTime::from_secs(2));
        // A stream of vehicles west->east.
        for k in 0..6u64 {
            let route = coral_geo::route::shortest_path(&net, IntersectionId(0), IntersectionId(4))
                .unwrap();
            sys.traffic_mut().spawn(
                SimTime::from_secs(2 + 6 * k),
                route,
                Some(coral_vision::ObjectClass::Car),
            );
        }
        sys.run_until(SimTime::from_secs(120));
        sys.finish();
        let t = sys.telemetry();
        (t.informs_delivered, sys.report())
    };
    let (mdcs_informs, _mdcs_report) = run(false);
    let (bcast_informs, _bcast_report) = run(true);
    assert!(
        bcast_informs > mdcs_informs * 2,
        "broadcast {bcast_informs} vs mdcs {mdcs_informs}"
    );
}

#[test]
fn failure_recovery_within_two_heartbeat_intervals() {
    let (mut sys, _) = corridor_system(5, false);
    sys.run_until(SimTime::from_secs(5));
    let mut schedule = FailureSchedule::new();
    schedule.push(FailureEvent {
        at: SimTime::from_secs(10),
        camera: CameraId(2),
        kind: FailureKind::Kill,
    });
    sys.set_failures(&schedule);
    sys.run_until(SimTime::from_secs(30));
    let recoveries = &sys.telemetry().recoveries;
    assert_eq!(recoveries.len(), 1, "recovery not recorded");
    let r = recoveries[0];
    assert_eq!(r.killed, CameraId(2));
    let hb = SimDuration::from_secs(2);
    assert!(
        r.duration() <= hb * 2 + SimDuration::from_millis(700),
        "recovery took {}",
        r.duration()
    );
    // The healed neighbours now skip the failed camera.
    let n1 = sys.node(CameraId(1)).unwrap();
    assert!(n1
        .connection()
        .socket_group()
        .all_downstream()
        .contains(&CameraId(3)));
}

#[test]
fn deterministic_for_fixed_seed() {
    let run = || {
        let (mut sys, net) = corridor_system(3, false);
        sys.run_until(SimTime::from_secs(2));
        let route =
            coral_geo::route::shortest_path(&net, IntersectionId(0), IntersectionId(2)).unwrap();
        sys.traffic_mut().spawn(
            SimTime::from_secs(2),
            route,
            Some(coral_vision::ObjectClass::Car),
        );
        sys.run_until(SimTime::from_secs(40));
        sys.finish();
        let t = sys.telemetry();
        (
            t.messages_delivered,
            t.informs_delivered,
            t.events.len(),
            sys.storage().stats(),
        )
    };
    assert_eq!(run(), run());
}

#[test]
fn telemetry_counts_bandwidth_and_redundancy() {
    let (mut sys, net) = corridor_system(3, false);
    sys.run_until(SimTime::from_secs(2));
    let route =
        coral_geo::route::shortest_path(&net, IntersectionId(0), IntersectionId(2)).unwrap();
    sys.traffic_mut().spawn(
        SimTime::from_secs(2),
        route,
        Some(coral_vision::ObjectClass::Car),
    );
    sys.run_until(SimTime::from_secs(40));
    sys.finish();
    let t = sys.telemetry();
    // Horizontal traffic (informs + confirms) and cloud traffic
    // (heartbeats + updates) were metered.
    assert!(t.horizontal_bytes > 0, "no horizontal bytes recorded");
    assert!(t.cloud_bytes > 0, "no cloud bytes recorded");
    // Camera 1 received cam0's inform ahead of the vehicle (useful); it
    // may also hold a trailing end-of-route inform from cam2's exit event
    // (redundant). Useful informs must dominate.
    let redundancy = sys.inform_redundancy();
    let (red1, recv1) = redundancy[&CameraId(1)];
    assert!(recv1 >= 1, "camera 1 received informs");
    assert!(red1 < recv1, "no useful inform at cam1: {red1}/{recv1}");
    // The end camera may hold a trailing exit inform; totals stay within
    // the received counts.
    for (&cam, &(red, recv)) in &redundancy {
        assert!(red <= recv, "{cam}: {red} > {recv}");
    }
}

#[test]
fn traffic_light_creates_platooned_passages() {
    let (mut sys, net) = corridor_system(3, false);
    sys.traffic_mut().add_light(TrafficLight::new(
        IntersectionId(1),
        SimDuration::from_secs(40),
        SimDuration::ZERO,
    ));
    sys.run_until(SimTime::from_secs(2));
    for k in 0..3u64 {
        let route =
            coral_geo::route::shortest_path(&net, IntersectionId(0), IntersectionId(2)).unwrap();
        sys.traffic_mut().spawn(
            SimTime::from_secs(2 + 3 * k),
            route,
            Some(coral_vision::ObjectClass::Car),
        );
    }
    sys.run_until(SimTime::from_secs(80));
    sys.finish();
    // All three vehicles reach camera 2 in a tight platoon after the light
    // turns green.
    let arrivals: Vec<u64> = sys
        .telemetry()
        .passages
        .iter()
        .filter(|p| p.camera == CameraId(2))
        .map(|p| p.entered_ms / 1_000)
        .collect();
    assert_eq!(arrivals.len(), 3, "arrivals: {arrivals:?}");
    let spread = arrivals.iter().max().unwrap() - arrivals.iter().min().unwrap();
    assert!(spread <= 6, "platoon spread {spread}s: {arrivals:?}");
}
