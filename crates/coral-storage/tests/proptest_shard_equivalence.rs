//! Property tests: the sharded store is observationally equivalent to the
//! flat reference graph at every shard count, and redelivered edges never
//! change what queries see.
//!
//! Vertex ids are allocated globally (in insertion order) regardless of
//! which shard a record lands on, so equivalence here is exact — same ids,
//! same records, same adjacency — not merely isomorphic.

use coral_geo::Heading;
use coral_net::{EventId, VertexId};
use coral_storage::{
    trajectory, QueryOptions, ShardedTrajectoryGraph, StorageConfig, TrajectoryGraph,
};
use coral_topology::CameraId;
use coral_vision::{ColorHistogram, TrackId};
use proptest::prelude::*;

/// Shard counts exercised for every generated stream. 1 is the
/// byte-identity default; 7 is coprime with the camera/bucket mix so
/// routing scatters.
const SHARD_AXIS: [usize; 4] = [1, 2, 3, 7];

const CAMERAS: u32 = 6;

fn eid(cam: u32, track: u64) -> EventId {
    EventId {
        camera: CameraId(cam),
        track: TrackId(track),
    }
}

/// A deterministic appearance signature for event `i` (2 bins/channel =
/// 8 bins): distinct per vertex so nearest-by-signature has real ordering
/// to preserve, and sparse (up to four of the eight bins are zero) so the
/// appearance index has bins to prune on.
fn sig(i: usize) -> ColorHistogram {
    let bins: Vec<f64> = (0..8)
        .map(|j| match (i * 7 + j * 13) % 11 {
            r if r < 4 => 0.0,
            r => r as f64 / 11.0 + 0.01,
        })
        .collect();
    ColorHistogram::from_bins(2, bins).expect("8 bins for 2 bins/channel")
}

/// Appearance thresholds: the pruning range, its edges, and the values
/// the store answers without pruning.
const MAX_DISTANCES: [f64; 9] = [0.0, 0.25, 0.5, 0.75, 0.999, 1.0, 1.5, -0.5, f64::NAN];
const K_AXIS: [usize; 3] = [1, 4, 64];

/// Ids and distance bits, in result order.
fn bits(hits: &[(VertexId, f64)]) -> Vec<(u64, u64)> {
    hits.iter().map(|&(v, d)| (v.0, d.to_bits())).collect()
}

fn config(shard_count: usize) -> StorageConfig {
    StorageConfig {
        shard_count,
        // Small bucket + region so a ~30-event stream crosses many
        // routing keys (events are ~950 ms apart).
        time_bucket_ms: 2_000,
        cameras_per_region: 2,
    }
}

/// Ingests the stream into the flat reference graph.
fn build_flat(n: usize, edges: &[(usize, usize, f64)]) -> TrajectoryGraph {
    let mut g = TrajectoryGraph::new();
    let vs: Vec<VertexId> = (0..n)
        .map(|i| {
            g.insert_event_with_signature(
                eid((i as u32) % CAMERAS, i as u64),
                i as u64 * 950,
                i as u64 * 950 + 400,
                Some(Heading::ALL[i % Heading::ALL.len()]),
                Some(sig(i)),
                None,
            )
        })
        .collect();
    for &(a, b, w) in edges {
        let (a, b) = (a % n, b % n);
        if a < b {
            let _ = g.insert_edge(vs[a], vs[b], w);
        }
    }
    g
}

/// Ingests the same stream into a sharded store; `replays` (1 = once)
/// repeats each edge insert, modelling at-least-once redelivery.
fn build_sharded(
    n: usize,
    edges: &[(usize, usize, f64)],
    cfg: StorageConfig,
    replays: &[usize],
) -> ShardedTrajectoryGraph {
    let g = ShardedTrajectoryGraph::new(cfg);
    let vs: Vec<VertexId> = (0..n)
        .map(|i| {
            g.insert_event_with_signature(
                eid((i as u32) % CAMERAS, i as u64),
                i as u64 * 950,
                i as u64 * 950 + 400,
                Some(Heading::ALL[i % Heading::ALL.len()]),
                Some(sig(i)),
                None,
            )
        })
        .collect();
    for (k, &(a, b, w)) in edges.iter().enumerate() {
        let (a, b) = (a % n, b % n);
        if a < b {
            let times = replays.get(k % replays.len().max(1)).copied().unwrap_or(1);
            for _ in 0..times.max(1) {
                g.insert_edge(vs[a], vs[b], w).unwrap();
            }
        }
    }
    g
}

/// The full observable query surface of a store, as comparable data.
fn observe(g: &ShardedTrajectoryGraph, n: usize) -> Vec<String> {
    let mut out = Vec::new();
    let horizon = n as u64 * 950 + 500;
    for seed in [0, n / 2, n.saturating_sub(1)] {
        let r = g
            .trajectory(VertexId(seed as u64), QueryOptions::default())
            .unwrap();
        out.push(format!("traj {seed}: {r:?}"));
    }
    for cam in 0..CAMERAS {
        out.push(format!(
            "cam {cam}: {:?}",
            g.vehicles_through_camera(CameraId(cam), 0, horizon)
        ));
        out.push(format!(
            "cam-mid {cam}: {:?}",
            g.vehicles_through_camera(CameraId(cam), horizon / 3, 2 * horizon / 3)
        ));
    }
    out.push(format!(
        "window: {:?}",
        g.scan_window(horizon / 4, horizon / 2)
    ));
    for t in MAX_DISTANCES {
        for k in K_AXIS {
            out.push(format!(
                "nearest {t} {k}: {:?}",
                bits(&g.nearest_by_signature(&sig(1), k, t))
            ));
        }
    }
    out
}

proptest! {
    #[test]
    fn sharded_store_flattens_to_the_flat_graph(
        n in 2usize..32,
        raw_edges in proptest::collection::vec((0usize..32, 0usize..32, 0.0f64..1.0), 0..80),
    ) {
        let flat = build_flat(n, &raw_edges);
        for k in SHARD_AXIS {
            let sharded = build_sharded(n, &raw_edges, config(k), &[]);
            prop_assert_eq!(sharded.vertex_count(), flat.vertex_count());
            prop_assert_eq!(sharded.edge_count(), flat.edge_count());
            let merged = sharded.to_flat();
            prop_assert_eq!(merged.vertex_count(), flat.vertex_count());
            prop_assert_eq!(merged.edge_count(), flat.edge_count());
            for v in flat.vertices() {
                prop_assert_eq!(merged.vertex(v.id).unwrap(), v, "vertex {} at {} shards", v.id, k);
                prop_assert_eq!(
                    merged.out_edges(v.id), flat.out_edges(v.id),
                    "out-edges of {} at {} shards", v.id, k
                );
                prop_assert_eq!(
                    merged.in_edges(v.id), flat.in_edges(v.id),
                    "in-edges of {} at {} shards", v.id, k
                );
                prop_assert_eq!(merged.vertex_for_event(v.event), Some(v.id));
            }
        }
    }

    #[test]
    fn queries_match_the_flat_reference_at_every_shard_count(
        n in 2usize..32,
        raw_edges in proptest::collection::vec((0usize..32, 0usize..32, 0.0f64..1.0), 0..80),
        seed_idx in 0usize..32,
    ) {
        let flat = build_flat(n, &raw_edges);
        let seed = VertexId((seed_idx % n) as u64);
        let horizon = n as u64 * 950 + 500;
        let flat_traj = trajectory(&flat, seed, QueryOptions::default()).unwrap();
        for k in SHARD_AXIS {
            let sharded = build_sharded(n, &raw_edges, config(k), &[]);
            prop_assert_eq!(
                &sharded.trajectory(seed, QueryOptions::default()).unwrap(),
                &flat_traj,
                "trajectory at {} shards", k
            );
            for cam in 0..CAMERAS {
                for (lo, hi) in [(0, horizon), (horizon / 3, 2 * horizon / 3)] {
                    prop_assert_eq!(
                        sharded.vehicles_through_camera(CameraId(cam), lo, hi),
                        flat.vehicles_through_camera(CameraId(cam), lo, hi),
                        "camera {} window [{}, {}] at {} shards", cam, lo, hi, k
                    );
                }
            }
            prop_assert_eq!(
                sharded.scan_window(horizon / 4, horizon / 2),
                flat.scan_window(horizon / 4, horizon / 2)
            );
            for t in MAX_DISTANCES {
                for k2 in K_AXIS {
                    prop_assert_eq!(
                        bits(&sharded.nearest_by_signature(&sig(seed_idx), k2, t)),
                        bits(&flat.nearest_by_signature(&sig(seed_idx), k2, t)),
                        "nearest at max_distance {} k {} at {} shards", t, k2, k
                    );
                }
            }
        }
    }

    #[test]
    fn redelivered_edges_are_invisible_to_checked_ingest(
        n in 2usize..24,
        raw_edges in proptest::collection::vec((0usize..24, 0usize..24, 0.0f64..1.0), 0..60),
        replays in proptest::collection::vec(1usize..4, 1..20),
    ) {
        // At-least-once delivery repeats edge inserts; ingest drops each
        // replay keep-first, so the store is the one a single delivery
        // builds, physically and as seen by every query.
        for k in SHARD_AXIS {
            let replayed = build_sharded(n, &raw_edges, config(k), &replays);
            let once = build_sharded(n, &raw_edges, config(k), &[]);
            prop_assert_eq!(replayed.edge_count(), once.edge_count(), "edges at {} shards", k);
            prop_assert_eq!(&observe(&replayed, n), &observe(&once, n), "queries at {} shards", k);
            let (a, b) = (replayed.to_flat(), once.to_flat());
            prop_assert_eq!(a.vertex_count(), b.vertex_count());
            prop_assert_eq!(a.edge_count(), b.edge_count());
            for v in b.vertices() {
                prop_assert_eq!(a.out_edges(v.id), b.out_edges(v.id), "out-edges of {}", v.id);
                prop_assert_eq!(a.in_edges(v.id), b.in_edges(v.id), "in-edges of {}", v.id);
            }
        }
    }
}
