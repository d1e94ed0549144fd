//! Literal pins on the ground-truth scores and delivery counters of two
//! chaos runs, plus the invariant that the registry and the evaluation
//! evidence count the same things.
//!
//! The determinism, parallel and sparse suites compare two modes of the
//! same code, so a score or byte counter that moved in both modes would
//! pass them. These literals were recorded before the scorers moved into
//! this crate and the delivery counters moved into the registry; they
//! hold the moved code to the old numbers.

use coral_core::{CameraSpec, CoralPieSystem, SystemConfig};
use coral_eval::Scenario;
use coral_geo::{generators, route, IntersectionId};
use coral_net::{FaultPlan, FaultPolicy, RetryPolicy};
use coral_sim::{SimDuration, SimTime};
use coral_topology::CameraId;
use coral_vision::ObjectClass;

/// Everything pinned about one finished run.
#[derive(Debug, PartialEq, Eq)]
struct Pinned {
    /// Per-camera event detection, `(camera, tp, fp, fn)`.
    detection: Vec<(u32, u64, u64, u64)>,
    /// Re-identification `(tp, fp, fn)`.
    reid: (u64, u64, u64),
    /// Ground-truth camera-to-camera transitions.
    transitions: usize,
    /// Per-camera inform redundancy, `(camera, redundant, received)`.
    redundancy: Vec<(u32, u64, u64)>,
    /// Messages delivered to cameras: `(all, inform, confirm,
    /// topology_update)`.
    delivered: (u64, u64, u64, u64),
    /// `(horizontal, cloud)` JSON bytes.
    bytes: (u64, u64),
}

fn pinned(sys: &CoralPieSystem) -> Pinned {
    let report = coral_eval::report(sys);
    let obs = sys.observability();
    let [informs, confirms, updates] =
        ["inform", "confirm", "topology_update"].map(|kind| obs.delivered(kind));
    let heartbeat_bytes = obs
        .registry()
        .counter_value("runtime_cloud_bytes_total", &[])
        .unwrap_or(0);
    Pinned {
        detection: report
            .detection
            .iter()
            .map(|(cam, a)| (cam.0, a.tp, a.fp, a.fn_))
            .collect(),
        reid: (report.reid.tp, report.reid.fp, report.reid.fn_),
        transitions: report.transitions.len(),
        redundancy: coral_eval::inform_redundancy(sys)
            .iter()
            .map(|(cam, &(redundant, received))| (cam.0, redundant, received))
            .collect(),
        delivered: (informs + confirms + updates, informs, confirms, updates),
        bytes: (
            obs.delivered_bytes("inform") + obs.delivered_bytes("confirm"),
            heartbeat_bytes + obs.delivered_bytes("topology_update"),
        ),
    }
}

/// The registry counts exactly what the evaluation evidence records, so
/// a bench reading one and `/metrics` reading the other cannot disagree.
fn assert_registry_matches_evidence(sys: &CoralPieSystem) {
    let obs = sys.observability();
    let counter = |name: &str| obs.registry().counter_value(name, &[]).unwrap_or(0);
    let t = sys.telemetry();
    assert_eq!(counter("runtime_events_total"), t.events.len() as u64);
    assert_eq!(counter("runtime_passages_total"), t.passages.len() as u64);
    assert_eq!(obs.delivered("inform"), t.informs.len() as u64);
    assert_eq!(
        counter("runtime_recoveries_total"),
        t.recoveries.len() as u64
    );
}

/// The `single_region_fingerprint_is_pinned` corridor (4 cameras, 5% drop
/// and 1% duplication under retries, three cars) with camera 1 killed at
/// 20 s and restored at 30 s.
fn corridor_chaos_with_kill() -> CoralPieSystem {
    let net = generators::corridor(4, 120.0, 12.0);
    let specs: Vec<CameraSpec> = (0..4)
        .map(|i| CameraSpec {
            id: CameraId(i),
            site: IntersectionId(i),
            videoing_angle_deg: 0.0,
        })
        .collect();
    let config = SystemConfig {
        faults: Some(FaultPlan::uniform(
            FaultPolicy {
                drop: 0.05,
                duplicate: 0.01,
                ..FaultPolicy::default()
            },
            0x5eed,
        )),
        reliability: Some(RetryPolicy::default()),
        seed: 7,
        ..SystemConfig::default()
    };
    let mut sys = CoralPieSystem::new(net.clone(), &specs, config);
    for k in 0..3u64 {
        let r = route::shortest_path(&net, IntersectionId(0), IntersectionId(3)).unwrap();
        sys.traffic_mut().spawn(
            SimTime::from_secs(2) + SimDuration::from_secs(9 * k),
            r,
            Some(ObjectClass::Car),
        );
    }
    let runtime = sys.runtime_mut();
    runtime.schedule_kill(SimTime::from_secs(20), CameraId(1));
    runtime.schedule_restore(SimTime::from_secs(30), CameraId(1));
    sys.run_until(SimTime::from_secs(50));
    sys.finish();
    sys
}

#[test]
fn corridor_chaos_with_kill_is_pinned() {
    let sys = corridor_chaos_with_kill();
    assert_eq!(
        pinned(&sys),
        Pinned {
            detection: vec![(0, 3, 1, 0), (1, 3, 1, 0), (2, 3, 3, 0), (3, 3, 0, 0)],
            reid: (7, 2, 2),
            transitions: 9,
            redundancy: vec![(0, 1, 1), (1, 2, 4), (2, 6, 9), (3, 3, 6)],
            delivered: (42, 20, 9, 13),
            bytes: (6_604, 10_638),
        }
    );
    assert_eq!(sys.telemetry().recoveries.len(), 1);
    assert_registry_matches_evidence(&sys);
}

#[test]
fn two_region_outage_is_pinned() {
    let sys = Scenario::corridor(6, 12, 3)
        .with_regions(2)
        .with_region_outage(1, 20, 40)
        .run();
    assert_eq!(
        pinned(&sys),
        Pinned {
            detection: (0..6).map(|cam| (cam, 12, 0, 0)).collect(),
            reid: (55, 1, 5),
            transitions: 60,
            redundancy: vec![
                (0, 0, 0),
                (1, 0, 12),
                (2, 0, 12),
                (3, 0, 10),
                (4, 12, 24),
                (5, 0, 12)
            ],
            delivered: (148, 70, 56, 22),
            bytes: (27_198, 96_041),
        }
    );
    assert_eq!(sys.telemetry().region_recoveries.len(), 1);
    assert_registry_matches_evidence(&sys);
}
