//! Criterion benchmarks for the two scans over stored appearance
//! signatures: query-by-appearance over a city-sized store, and a camera's
//! re-identification pass over its candidate pool. Both compare sparse
//! signatures read off rendered vehicles (a handful of non-zero bins out
//! of 512), the shape the hard regimes produce.

use coral_core::{CandidatePool, ReIdentifier, ReidConfig};
use coral_net::{DetectionEvent, EventId};
use coral_storage::{ShardedTrajectoryGraph, StorageConfig};
use coral_topology::CameraId;
use coral_vision::{
    BoundingBox, ColorHistogram, GroundTruthId, HistogramConfig, ObjectClass, Renderer, Scene,
    SceneActor, TrackId, VehicleAppearance,
};
use criterion::{criterion_group, criterion_main, Criterion};

/// Appearance classes shared by the stored vehicles, as in
/// `lookalike_10x10`.
const CLASSES: u64 = 40;

/// The signature of vehicle appearance `class` in noisy frame
/// `frame_seed`.
fn signature(class: u64, frame_seed: u64) -> ColorHistogram {
    let bbox = BoundingBox::new(10.0, 10.0, 60.0, 42.0).expect("valid box");
    let scene = Scene {
        width: 80,
        height: 60,
        actors: vec![SceneActor {
            gt: GroundTruthId(class),
            class: ObjectClass::Car,
            bbox,
            appearance: VehicleAppearance::from_seed(class),
        }],
    };
    let renderer = Renderer::default();
    let view = renderer.view(&scene, frame_seed);
    ColorHistogram::extract(&view, &bbox, &HistogramConfig::default())
}

fn event(camera: u32, track: u64, timestamp_ms: u64, signature: ColorHistogram) -> DetectionEvent {
    DetectionEvent {
        camera: CameraId(camera),
        timestamp_ms,
        heading: None,
        bearing_deg: None,
        signature,
        track: TrackId(track),
        vertex: None,
        ground_truth: None,
    }
}

fn bench_nearest_by_signature(c: &mut Criterion) {
    // 1,660 stored vertices: the traced `city_lookalike` store after
    // 180 sim-s.
    let store = ShardedTrajectoryGraph::new(StorageConfig::default());
    for v in 0..1_660u64 {
        let id = EventId {
            camera: CameraId((v % 100) as u32),
            track: TrackId(v),
        };
        let sig = signature(v % CLASSES, v);
        store.insert_event_with_signature(id, v * 100, v * 100 + 900, None, Some(sig), None);
    }
    let query = signature(7, 1_000_000);
    c.bench_function("nearest_by_signature_1660", |b| {
        b.iter(|| store.nearest_by_signature(&query, 5, 0.5));
    });
}

fn bench_reid_best_among(c: &mut Criterion) {
    // Twenty unmatched upstream candidates of distinct appearance; the
    // local event's vehicle is one of them.
    let mut pool = CandidatePool::new(64);
    for k in 0..20u64 {
        pool.add(event(1, k, 1_000 + k, signature(k, k)), 1_000 + k);
    }
    let local = event(2, 99, 10_000, signature(5, 77));
    let mut reid = ReIdentifier::new(ReidConfig::default());
    c.bench_function("reid_best_among_pool20", |b| {
        b.iter(|| reid.match_event(&local, &pool));
    });
}

criterion_group!(benches, bench_nearest_by_signature, bench_reid_best_among);
criterion_main!(benches);
