//! Observability integration: the Chrome trace export carries a complete
//! cross-camera causal trace for a known vehicle, and the metrics registry
//! renders per-stage histograms in both Prometheus text and JSON form.

use coral_pie::core::{CameraSpec, CoralPieSystem, NodeConfig, SystemConfig};
use coral_pie::geo::{generators, route, IntersectionId};
use coral_pie::net::{FaultPlan, FaultPolicy, RetryPolicy};
use coral_pie::obs::json::{parse, JsonValue};
use coral_pie::obs::JournalKind;
use coral_pie::sim::{FailureEvent, FailureKind, FailureSchedule, SimDuration, SimTime};
use coral_pie::topology::CameraId;
use coral_pie::vision::{DetectorNoise, ObjectClass};

fn traced_corridor_run() -> (CoralPieSystem, u64) {
    let n = 3usize;
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
    let mut sys = CoralPieSystem::new(net.clone(), &specs, config);
    sys.enable_tracing();
    sys.run_until(SimTime::from_secs(2));
    let r = route::shortest_path(&net, IntersectionId(0), IntersectionId(2))
        .expect("corridor is connected");
    let vehicle = sys
        .traffic_mut()
        .spawn(SimTime::from_secs(2), r, Some(ObjectClass::Car));
    sys.run_until(SimTime::from_secs(60));
    sys.finish();
    (sys, vehicle.0)
}

#[test]
fn chrome_trace_contains_a_cross_camera_vehicle_trace() {
    let (sys, vehicle) = traced_corridor_run();
    let json = sys.observability().tracer().export_chrome();
    let doc = parse(&json).expect("trace export is valid JSON");
    let events = doc.as_array().expect("trace export is a JSON array");
    assert!(!events.is_empty(), "tracing recorded nothing");

    // Every element is a well-formed trace_event: ph is a string; pid and
    // tid are numbers; non-metadata events carry a ts.
    for ev in events {
        let ph = ev
            .get("ph")
            .and_then(JsonValue::as_str)
            .expect("event has ph");
        assert!(ev.get("pid").and_then(JsonValue::as_u64).is_some());
        assert!(ev.get("tid").and_then(JsonValue::as_u64).is_some());
        if ph != "M" {
            assert!(ev.get("ts").and_then(JsonValue::as_u64).is_some());
            // Both clocks: sim time in ts, wall time in args.
            assert!(ev
                .get("args")
                .and_then(|a| a.get("wall_us"))
                .and_then(JsonValue::as_u64)
                .is_some());
        }
    }

    // The known vehicle's causal trace rides one tid across cameras.
    let tid = vehicle + 1;
    let of_vehicle: Vec<&JsonValue> = events
        .iter()
        .filter(|e| {
            e.get("tid").and_then(JsonValue::as_u64) == Some(tid)
                && e.get("ph").and_then(JsonValue::as_str) != Some("M")
        })
        .collect();
    let stage = |name: &str| -> Vec<(u64, u64)> {
        // (ts, pid) of every event with this name, in ts order (export
        // order is ts order already).
        of_vehicle
            .iter()
            .filter(|e| e.get("name").and_then(JsonValue::as_str) == Some(name))
            .map(|e| {
                (
                    e.get("ts").and_then(JsonValue::as_u64).unwrap(),
                    e.get("pid").and_then(JsonValue::as_u64).unwrap(),
                )
            })
            .collect()
    };

    // Cross-camera: the vehicle shows up on at least two camera rows.
    let pids: std::collections::BTreeSet<u64> = of_vehicle
        .iter()
        .map(|e| e.get("pid").and_then(JsonValue::as_u64).unwrap())
        .collect();
    assert!(pids.len() >= 2, "trace never crossed cameras: {pids:?}");

    // Detect → InformSend → Reid ordering, ending downstream of where it
    // started (camera 0 is pid 1).
    let detects = stage("Detect");
    let informs = stage("InformSend");
    let reids = stage("Reid");
    let (first_detect_ts, first_detect_pid) = detects[0];
    assert_eq!(first_detect_pid, 1, "first detection happens at camera 0");
    let (inform_ts, inform_pid) = *informs
        .iter()
        .find(|&&(_, pid)| pid == 1)
        .expect("camera 0 informed its MDCS");
    assert!(first_detect_ts <= inform_ts, "inform precedes detection");
    let &(reid_ts, reid_pid) = reids
        .iter()
        .find(|&&(ts, pid)| pid != inform_pid && ts >= inform_ts)
        .expect("a downstream camera re-identified the vehicle");
    assert!(reid_pid > 1, "re-identification happened downstream");

    // The transport hop between them is a complete span with a duration.
    let hop = of_vehicle
        .iter()
        .find(|e| e.get("name").and_then(JsonValue::as_str) == Some("TransportHop"))
        .expect("inform flight recorded");
    assert_eq!(hop.get("ph").and_then(JsonValue::as_str), Some("X"));
    assert!(hop.get("dur").and_then(JsonValue::as_u64).is_some());
    let _ = reid_ts;
}

#[test]
fn registry_renders_prometheus_and_json_snapshots() {
    let (sys, _) = traced_corridor_run();
    let registry = sys.observability().registry();

    let prom = registry.render_prometheus();
    // Per-stage histograms with cumulative buckets and the +Inf bound.
    assert!(
        prom.contains("node_frame_handle_us_bucket"),
        "missing frame-handling histogram:\n{prom}"
    );
    assert!(prom.contains("storage_write_latency_us_bucket"));
    assert!(prom.contains("le=\"+Inf\""));
    assert!(prom.contains("node_frame_handle_us_count"));
    assert!(prom.contains("# TYPE node_frame_handle_us histogram"));
    // Protocol counters made it in.
    assert!(prom.contains("runtime_passages_total"));

    let snapshot = registry.snapshot_json();
    let doc = parse(&snapshot).expect("registry snapshot is valid JSON");
    let histograms = doc
        .get("histograms")
        .and_then(JsonValue::as_array)
        .expect("snapshot lists histograms");
    assert!(!histograms.is_empty());
    let counters = doc
        .get("counters")
        .and_then(JsonValue::as_array)
        .expect("snapshot lists counters");
    assert!(counters
        .iter()
        .any(|c| c.get("name").and_then(JsonValue::as_str) == Some("runtime_events_total")));
}

/// Runs [`kill_restore_cycles`] and asserts some informs went undelivered
/// to the dead camera (on a link that duplicates, copies can outnumber
/// the sends, so this holds only without duplication).
fn run_kill_restore_cycles(config: SystemConfig) -> CoralPieSystem {
    let sys = kill_restore_cycles(config);
    let obs = sys.observability();
    let sent = obs
        .registry()
        .counter_value("runtime_messages_sent_total", &[("kind", "inform")])
        .unwrap_or(0);
    assert!(
        sent > obs.delivered("inform"),
        "some informs must reach camera 5 while it is dead ({sent} sent, {} delivered)",
        obs.delivered("inform")
    );
    sys
}

/// Runs a 4x4 grid at 0.5 vehicles/s under `config`, camera 5 killed
/// and restored every 20 s, until traffic has drained.
fn kill_restore_cycles(config: SystemConfig) -> CoralPieSystem {
    let net = generators::grid(4, 4, 120.0, 12.0);
    let specs: Vec<CameraSpec> = (0..16)
        .map(|i| CameraSpec {
            id: CameraId(i),
            site: IntersectionId(i),
            videoing_angle_deg: 0.0,
        })
        .collect();
    let mut sys = CoralPieSystem::new(net.clone(), &specs, config);
    // Edge-to-edge trips, one every 2 s until 200 s; most cross the
    // interior, camera 5 included.
    let ends = [0u32, 1, 2, 3, 4, 7, 8, 11, 12, 13, 14, 15];
    for k in 0..100u32 {
        let from = ends[(k * 5 % 12) as usize];
        let to = ends[((k * 7 + 5) % 12) as usize];
        if from == to {
            continue;
        }
        let r = route::shortest_path(&net, IntersectionId(from), IntersectionId(to))
            .expect("the grid is connected");
        sys.traffic_mut().spawn(
            SimTime::from_secs(5) + SimDuration::from_secs(2 * u64::from(k)),
            r,
            Some(ObjectClass::Car),
        );
    }
    let mut schedule = FailureSchedule::new();
    for k in 1..=10u64 {
        for (at, kind) in [
            (20 * k, FailureKind::Kill),
            (20 * k + 10, FailureKind::Restore),
        ] {
            schedule.push(FailureEvent {
                at: SimTime::from_secs(at),
                camera: CameraId(5),
                kind,
            });
        }
    }
    sys.set_failures(&schedule);
    sys.run_until(SimTime::from_secs(300));
    sys
}

fn perfect_detector() -> NodeConfig {
    NodeConfig {
        detector_noise: DetectorNoise::perfect(),
        ..NodeConfig::default()
    }
}

/// `runtime_inform_latency_us` (count, sum in µs) and the number of
/// journaled handoff-deadline misses of a run.
fn inform_latency(sys: &CoralPieSystem) -> (u64, u64, usize) {
    let obs = sys.observability();
    let latency = obs.registry().histogram("runtime_inform_latency_us", &[]);
    let mut misses = 0;
    obs.journal().for_each(|e| {
        if e.kind == JournalKind::HandoffDeadlineMiss {
            misses += 1;
        }
    });
    (latency.count(), latency.sum_us(), misses)
}

/// Runs the kill/restore cycles under `faults` and `reliability` and
/// checks the inform latency against `pinned` (count, sum in µs, deadline
/// misses). Every inform delivered over the network is one latency
/// sample.
fn assert_inform_latency(
    faults: Option<FaultPolicy>,
    reliability: Option<RetryPolicy>,
    pinned: (u64, u64, usize),
) {
    let config = SystemConfig {
        node: perfect_detector(),
        faults: faults.map(|policy| FaultPlan::uniform(policy, 0x1eaf)),
        reliability,
        ..SystemConfig::default()
    };
    let sys = run_kill_restore_cycles(config);
    let got = inform_latency(&sys);
    assert_eq!(got.0, sys.observability().delivered("inform"));
    assert_eq!(got, pinned);
}

#[test]
fn inform_latency_is_pinned_on_verbatim_links() {
    assert_inform_latency(None, None, (344, 681_222, 0));
}

#[test]
fn inform_latency_is_pinned_on_lossy_links_with_retries() {
    assert_inform_latency(
        Some(FaultPolicy::drop_only(0.05)),
        Some(RetryPolicy::default()),
        (344, 3_861_589, 0),
    );
}

#[test]
fn inform_latency_is_pinned_on_lossy_links_without_retries() {
    assert_inform_latency(Some(FaultPolicy::drop_only(0.05)), None, (343, 683_115, 0));
}

#[test]
fn inform_latency_is_pinned_on_chaotic_links_with_retries() {
    let chaos = FaultPolicy {
        drop: 0.05,
        duplicate: 0.05,
        reorder: 0.05,
        delay: 0.05,
        delay_by: SimDuration::from_millis(150),
    };
    assert_inform_latency(
        Some(chaos),
        Some(RetryPolicy::default()),
        (344, 5_975_468, 0),
    );
}

/// On links that duplicate, with no reliability layer to drop the second
/// copy, a camera may be handed the same inform twice; each delivery is
/// one latency sample.
#[test]
fn every_delivered_inform_is_one_latency_sample_on_duplicating_links() {
    let config = SystemConfig {
        node: perfect_detector(),
        faults: Some(FaultPlan::uniform(
            FaultPolicy {
                drop: 0.05,
                duplicate: 0.05,
                ..FaultPolicy::default()
            },
            0x1eaf,
        )),
        ..SystemConfig::default()
    };
    assert!(config.reliability.is_none());
    let sys = kill_restore_cycles(config);
    let (samples, _, _) = inform_latency(&sys);
    assert_eq!(samples, sys.observability().delivered("inform"));
}
