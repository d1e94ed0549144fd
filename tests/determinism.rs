//! Reproducibility: every run is a pure function of its seed.

use coral_pie::core::{CameraSpec, CoralPieSystem, SystemConfig};
use coral_pie::geo::{generators, IntersectionId};
use coral_pie::sim::{PoissonArrivals, SimTime};
use coral_pie::topology::CameraId;

fn run(seed: u64) -> (u64, u64, usize, usize, coral_pie::storage::StorageStats) {
    let net = generators::corridor(4, 120.0, 12.0);
    let specs: Vec<CameraSpec> = (0..4)
        .map(|i| CameraSpec {
            id: CameraId(i),
            site: IntersectionId(i),
            videoing_angle_deg: 0.0,
        })
        .collect();
    let config = SystemConfig {
        seed,
        ..SystemConfig::default()
    };
    let mut sys = CoralPieSystem::new(net, &specs, config);
    sys.set_arrivals(PoissonArrivals::new(
        0.3,
        vec![IntersectionId(0), IntersectionId(3)],
        3,
        seed ^ 0xfeed,
    ));
    sys.run_until(SimTime::from_secs(60));
    sys.finish();
    let obs = sys.observability();
    let [informs, confirms, updates] =
        ["inform", "confirm", "topology_update"].map(|kind| obs.delivered(kind));
    let t = sys.telemetry();
    (
        informs + confirms + updates,
        informs,
        t.events.len(),
        t.passages.len(),
        sys.storage().stats(),
    )
}

#[test]
fn same_seed_same_everything() {
    assert_eq!(run(7), run(7));
}

#[test]
fn different_seed_different_traffic() {
    let a = run(7);
    let b = run(8);
    // Traffic, noise and latencies all change; at minimum the passage
    // counts should differ for a 60 s open workload.
    assert_ne!(a, b, "seeds 7 and 8 produced identical runs");
}

#[test]
fn experiment_wire_format_is_stable() {
    // Lock the JSON field set of the detection event (downstream consumers
    // parse it); a silent rename would break stored trajectories.
    use coral_pie::net::DetectionEvent;
    use coral_pie::vision::{ColorHistogram, TrackId};
    let e = DetectionEvent {
        camera: CameraId(3),
        timestamp_ms: 1,
        heading: None,
        bearing_deg: None,
        signature: ColorHistogram::uniform(2),
        track: TrackId(9),
        vertex: None,
        ground_truth: None,
    };
    let json: serde_json::Value = serde_json::from_str(&e.to_json()).unwrap();
    let obj = json.as_object().unwrap();
    for key in [
        "camera",
        "timestamp_ms",
        "heading",
        "bearing_deg",
        "signature",
        "track",
        "vertex",
    ] {
        assert!(obj.contains_key(key), "missing wire field {key}");
    }
}
