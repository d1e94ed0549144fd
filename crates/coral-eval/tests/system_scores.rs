//! The run-level scores of `coral_eval::metrics` over a deployed system:
//! one vehicle tracked end to end, and the bandwidth and inform-redundancy
//! accounting of the same run.

use coral_core::{CameraSpec, CoralPieSystem, NodeConfig, SystemConfig};
use coral_geo::{generators, route, IntersectionId, RoadNetwork};
use coral_sim::SimTime;
use coral_topology::CameraId;
use coral_vision::{DetectorNoise, ObjectClass};

fn corridor_system(n: usize) -> (CoralPieSystem, RoadNetwork) {
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
fn end_to_end_track_single_vehicle() {
    let (mut sys, net) = corridor_system(3);
    // Let cameras join first.
    sys.run_until(SimTime::from_secs(2));
    // One vehicle end to end.
    let route = route::shortest_path(&net, IntersectionId(0), IntersectionId(2)).unwrap();
    sys.traffic_mut()
        .spawn(SimTime::from_secs(2), route, Some(ObjectClass::Car));
    sys.run_until(SimTime::from_secs(40));
    sys.finish();

    // Ground truth: the vehicle passed all three cameras.
    let report = coral_eval::report(&sys);
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
fn telemetry_counts_bandwidth_and_redundancy() {
    let (mut sys, net) = corridor_system(3);
    sys.run_until(SimTime::from_secs(2));
    let route = route::shortest_path(&net, IntersectionId(0), IntersectionId(2)).unwrap();
    sys.traffic_mut()
        .spawn(SimTime::from_secs(2), route, Some(ObjectClass::Car));
    sys.run_until(SimTime::from_secs(40));
    sys.finish();
    // Horizontal traffic (informs + confirms) and cloud traffic
    // (heartbeats + updates) were metered.
    let obs = sys.observability();
    let heartbeat_bytes = obs
        .registry()
        .counter_value("runtime_cloud_bytes_total", &[])
        .unwrap_or(0);
    assert!(
        obs.delivered_bytes("inform") + obs.delivered_bytes("confirm") > 0,
        "no horizontal bytes recorded"
    );
    assert!(
        heartbeat_bytes + obs.delivered_bytes("topology_update") > 0,
        "no cloud bytes recorded"
    );
    // Camera 1 received cam0's inform ahead of the vehicle (useful); it
    // may also hold a trailing end-of-route inform from cam2's exit event
    // (redundant). Useful informs must dominate.
    let redundancy = coral_eval::inform_redundancy(&sys);
    let (red1, recv1) = redundancy[&CameraId(1)];
    assert!(recv1 >= 1, "camera 1 received informs");
    assert!(red1 < recv1, "no useful inform at cam1: {red1}/{recv1}");
    // The end camera may hold a trailing exit inform; totals stay within
    // the received counts.
    for (&cam, &(red, recv)) in &redundancy {
        assert!(red <= recv, "{cam}: {red} > {recv}");
    }
}
