//! **Figure 10(a)** — Effectiveness of the communication protocol.
//!
//! "Arrival of vehicles at Camera 1 is shown by blue dots and the arrival
//! of the corresponding informing message ... is shown by red markers. The
//! informing message arrives well ahead of the vehicle arrival event. ...
//! The stepped structure is caused due to traffic lights" (§5.3).
//!
//! We reproduce the setup: a corridor of cameras with a traffic light
//! between them; vehicles platoon behind the light, and every vehicle's
//! inform message must reach the downstream camera before the vehicle does.

use coral_bench::report::{f2s, write_registry_snapshot};
use coral_bench::{corridor_specs, ExperimentLog};
use coral_core::{CoralPieSystem, NodeConfig, SystemConfig};
use coral_geo::{route, IntersectionId};
use coral_sim::{SimDuration, SimTime, TrafficLight};
use coral_topology::CameraId;
use coral_vision::{DetectorNoise, ObjectClass};

fn main() {
    let (net, specs) = corridor_specs(3);
    let config = SystemConfig {
        node: NodeConfig {
            detector_noise: DetectorNoise::perfect(),
            ..NodeConfig::default()
        },
        ..SystemConfig::default()
    };
    let mut sys = CoralPieSystem::new(net.clone(), &specs, config);
    // A light between cameras 1 and 2 creates the platoons.
    sys.traffic_mut().add_light(TrafficLight::new(
        IntersectionId(1),
        SimDuration::from_secs(40),
        SimDuration::from_secs(20), // start red for the east-west corridor
    ));
    sys.run_until(SimTime::from_secs(2));

    // ~18 vehicles spawned over a minute at the west end.
    let n_vehicles = 18u64;
    for k in 0..n_vehicles {
        let r = route::shortest_path(&net, IntersectionId(0), IntersectionId(2))
            .expect("corridor is connected");
        sys.traffic_mut().spawn(
            SimTime::from_secs(2) + SimDuration::from_millis(3_300 * k),
            r,
            Some(ObjectClass::Car),
        );
    }
    sys.run_until(SimTime::from_secs(130));
    sys.finish();

    // The observed camera is the one downstream of the light (camera 2).
    let observed = CameraId(2);
    let telemetry = sys.telemetry();
    let mut log = ExperimentLog::new(
        "fig10a_protocol",
        &[
            "vehicle",
            "message_arrival_s",
            "vehicle_arrival_s",
            "lead_s",
        ],
    );
    let mut leads = Vec::new();
    let mut violations = 0u32;
    for p in telemetry.passages.iter().filter(|p| p.camera == observed) {
        let inform = telemetry
            .informs
            .iter()
            .filter(|i| i.at == observed && i.vehicle == Some(p.vehicle))
            .map(|i| i.arrived.as_secs_f64())
            .fold(f64::INFINITY, f64::min);
        if !inform.is_finite() {
            continue; // vehicle still upstream at the end of the run
        }
        let vehicle_s = p.entered_ms as f64 / 1_000.0;
        let lead = vehicle_s - inform;
        if lead <= 0.0 {
            violations += 1;
        }
        leads.push(lead);
        log.row(&[
            p.vehicle.to_string(),
            f2s(inform),
            f2s(vehicle_s),
            f2s(lead),
        ]);
    }
    log.finish();

    let mean_lead = leads.iter().sum::<f64>() / leads.len().max(1) as f64;
    println!(
        "\nvehicles observed at {observed}: {}; informs arriving late: {violations} (paper: 0)",
        leads.len()
    );
    println!(
        "mean message lead time: {:.2} s (paper: 'well ahead of the vehicle arrival')",
        mean_lead
    );
    assert_eq!(
        violations, 0,
        "every inform must reach {observed} before its vehicle"
    );
    // The stepped structure: vehicle arrivals cluster right after greens.
    let mut arrivals: Vec<f64> = telemetry
        .passages
        .iter()
        .filter(|p| p.camera == observed)
        .map(|p| p.entered_ms as f64 / 1_000.0)
        .collect();
    arrivals.sort_by(f64::total_cmp);
    let gaps: Vec<f64> = arrivals.windows(2).map(|w| w[1] - w[0]).collect();
    let big_gaps = gaps.iter().filter(|g| **g > 10.0).count();
    println!(
        "arrival steps (gaps > 10 s from the 40 s light cycle): {big_gaps} (stepped structure)"
    );

    let metrics = write_registry_snapshot("fig10a_protocol", sys.observability().registry());
    println!("[metrics] {}", metrics.display());
}
