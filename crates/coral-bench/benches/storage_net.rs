//! Criterion benchmarks for the storage and messaging substrates: the
//! Table 1 "Trajectory Storage" / "Communication" rows at our scale —
//! vertex/edge insertion, trajectory traversal, and detection-event JSON
//! encode/decode.

use coral_net::{DetectionEvent, EventId, Message, VertexId};
use coral_storage::{QueryOptions, TrajectoryGraph};
use coral_topology::CameraId;
use coral_vision::{ColorHistogram, TrackId};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

fn eid(cam: u32, track: u64) -> EventId {
    EventId {
        camera: CameraId(cam),
        track: TrackId(track),
    }
}

/// Builds a graph of `chains` vehicle trajectories, 8 cameras long each.
fn chain_graph(chains: u64) -> (TrajectoryGraph, VertexId) {
    let mut g = TrajectoryGraph::new();
    let mut seed = VertexId(0);
    for v in 0..chains {
        let mut prev = None;
        for cam in 0..8u32 {
            let vx = g.insert_event(eid(cam, v), v * 100, v * 100 + 50, None, None);
            if v == 0 && cam == 0 {
                seed = vx;
            }
            if let Some(p) = prev {
                g.insert_edge(p, vx, 0.1).expect("valid edge");
            }
            prev = Some(vx);
        }
    }
    (g, seed)
}

fn bench_graph_insert(c: &mut Criterion) {
    c.bench_function("trajectory_insert_vertex_edge", |b| {
        b.iter_batched(
            TrajectoryGraph::new,
            |mut g| {
                let a = g.insert_event(eid(0, 1), 0, 10, None, None);
                let bb = g.insert_event(eid(1, 1), 100, 110, None, None);
                g.insert_edge(a, bb, 0.2).expect("valid edge");
                g
            },
            criterion::BatchSize::SmallInput,
        );
    });
}

fn bench_trajectory_query(c: &mut Criterion) {
    let mut group = c.benchmark_group("trajectory_query");
    for chains in [10u64, 100, 1000] {
        let (g, seed) = chain_graph(chains);
        group.bench_with_input(BenchmarkId::from_parameter(chains), &g, |b, g| {
            b.iter(|| coral_storage::trajectory(g, seed, QueryOptions::default()));
        });
    }
    group.finish();
}

fn bench_message_serde(c: &mut Criterion) {
    // A `city_lookalike`-shaped signature: eight non-zero bins of 512.
    let mut dense = vec![0.0; 512];
    for (k, i) in [9usize, 73, 74, 81, 137, 146, 210, 292]
        .into_iter()
        .enumerate()
    {
        dense[i] = (k + 1) as f64 / 36.0;
    }
    let event = DetectionEvent {
        camera: CameraId(3),
        timestamp_ms: 123_456,
        heading: Some(coral_geo::Heading::East),
        bearing_deg: Some(92.5),
        signature: ColorHistogram::from_bins(8, dense).expect("valid bins"),
        track: TrackId(17),
        vertex: Some(VertexId(99)),
        ground_truth: None,
    };
    let msg = Message::Inform(event);
    let json = serde_json::to_string(&msg).expect("serialises");
    c.bench_function("detection_event_json_encode", |b| {
        b.iter(|| serde_json::to_string(&msg).expect("serialises"));
    });
    c.bench_function("detection_event_json_decode", |b| {
        b.iter(|| serde_json::from_str::<Message>(&json).expect("parses"));
    });
    // What metering one delivered inform costs.
    c.bench_function("inform_encoded_len", |b| {
        b.iter(|| msg.encoded_len());
    });
}

criterion_group!(
    benches,
    bench_graph_insert,
    bench_trajectory_query,
    bench_message_serde
);
criterion_main!(benches);
