//! Property tests: a federated deployment's union view converges to the
//! single-region flat graph — exactly, not just isomorphically — no
//! matter in what order boundary-edge replication is delivered, how often
//! it is duplicated, or whether some deliveries are still in flight.
//!
//! This is the federation-layer mirror of `proptest_shard_equivalence`:
//! the shared [`VertexAllocator`] gives federated stores the same ids the
//! flat ingest would assign, and keep-first ingest makes replication
//! idempotent, so the union must reproduce the flat graph byte-for-byte.

use coral_geo::Heading;
use coral_net::{EventId, VertexId};
use coral_storage::{FederatedStores, StorageConfig, TrajectoryGraph};
use coral_topology::CameraId;
use coral_vision::{ColorHistogram, TrackId};
use proptest::prelude::*;

const CAMERAS: u32 = 6;

/// Region counts exercised for every generated stream. 1 is the
/// degenerate identity case.
const REGION_AXIS: [usize; 3] = [1, 2, 3];

fn eid(cam: u32, track: u64) -> EventId {
    EventId {
        camera: CameraId(cam),
        track: TrackId(track),
    }
}

fn sig(i: usize) -> ColorHistogram {
    let bins: Vec<f64> = (0..8)
        .map(|j| ((i * 7 + j * 13) % 11) as f64 / 11.0 + 0.01)
        .collect();
    ColorHistogram::from_bins(2, bins).expect("8 bins for 2 bins/channel")
}

/// Camera → owning region (round-robin stripes the boundary everywhere).
fn owner(cam: CameraId, regions: usize) -> usize {
    cam.0 as usize % regions
}

/// Event-stream attributes for event `i`.
fn attrs(i: usize) -> (EventId, u64, u64, Option<Heading>) {
    (
        eid((i as u32) % CAMERAS, i as u64),
        i as u64 * 950,
        i as u64 * 950 + 400,
        Some(Heading::ALL[i % Heading::ALL.len()]),
    )
}

/// Ingests the stream into the flat reference graph (the single-region
/// deployment).
fn build_flat(n: usize, edges: &[(usize, usize, f64)]) -> TrajectoryGraph {
    let mut g = TrajectoryGraph::new();
    let vs: Vec<VertexId> = (0..n)
        .map(|i| {
            let (e, first, last, h) = attrs(i);
            g.insert_event_with_signature(e, first, last, h, Some(sig(i)), None)
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

/// One pending replication delivery: adopt the downstream vertex in the
/// upstream region's store, then insert the boundary edge there.
#[derive(Clone, Copy)]
struct Replication {
    up_region: usize,
    from: usize,
    to: usize,
    weight: f64,
}

/// Ingests the stream into per-region stores: primaries committed in
/// stream order, boundary-edge replication deferred into the returned op
/// list for the caller to deliver in any order.
fn ingest_by_region(
    n: usize,
    edges: &[(usize, usize, f64)],
    regions: usize,
) -> (FederatedStores, Vec<VertexId>, Vec<Replication>) {
    let fed = FederatedStores::new(regions, 4, StorageConfig::default());
    let vs: Vec<VertexId> = (0..n)
        .map(|i| {
            let (e, first, last, h) = attrs(i);
            fed.node(owner(e.camera, regions))
                .insert_event_with_signature(e, first, last, h, Some(sig(i)), None)
        })
        .collect();
    let mut pending = Vec::new();
    for &(a, b, w) in edges {
        let (a, b) = (a % n, b % n);
        if a >= b {
            continue;
        }
        let (ea, _, la, _) = attrs(a);
        let up = owner(ea.camera, regions);
        let down = owner(attrs(b).0.camera, regions);
        if up != down {
            // The downstream camera only knows the upstream event from
            // the inform message: the adopted copy carries an
            // approximate (point) interval. The union must hide it.
            fed.node(down)
                .adopt_event(vs[a], ea, la, la, None, None, None);
            pending.push(Replication {
                up_region: up,
                from: a,
                to: b,
                weight: w,
            });
        }
        fed.node(down).insert_edge(vs[a], vs[b], w).unwrap();
    }
    (fed, vs, pending)
}

/// Delivers one replication op (idempotent adopt + keep-first edge).
fn deliver(fed: &FederatedStores, vs: &[VertexId], r: Replication) {
    let (e, first, last, h) = attrs(r.to);
    fed.node(r.up_region)
        .adopt_event(vs[r.to], e, first, last, h, Some(sig(r.to)), None);
    fed.node(r.up_region)
        .insert_edge(vs[r.from], vs[r.to], r.weight)
        .unwrap();
}

/// Asserts the union view is exactly the flat reference graph.
/// (Returns the vendored-proptest case error type on mismatch.)
fn assert_union_is_flat(
    fed: &FederatedStores,
    flat: &TrajectoryGraph,
    regions: usize,
) -> Result<(), String> {
    fed.with_union(
        |c| owner(c, regions),
        |union| {
            prop_assert_eq!(union.vertex_count(), flat.vertex_count());
            prop_assert_eq!(union.edge_count(), flat.edge_count());
            for v in flat.vertices() {
                prop_assert_eq!(
                    union.vertex(v.id).unwrap(),
                    v,
                    "vertex {} at {} regions",
                    v.id,
                    regions
                );
                prop_assert_eq!(
                    union.out_edges(v.id),
                    flat.out_edges(v.id),
                    "out-edges of {} at {} regions",
                    v.id,
                    regions
                );
                prop_assert_eq!(
                    union.in_edges(v.id),
                    flat.in_edges(v.id),
                    "in-edges of {} at {} regions",
                    v.id,
                    regions
                );
                prop_assert_eq!(union.vertex_for_event(v.event), Some(v.id));
            }
            Ok(())
        },
    )
}

proptest! {
    /// Boundary edges delivered in an arbitrary (index-driven) order,
    /// with duplicates, then fully: the union equals the flat graph at
    /// every step where full delivery has happened, and redelivery is a
    /// no-op.
    #[test]
    fn replica_convergence(
        n in 2usize..24,
        raw_edges in proptest::collection::vec((0usize..24, 0usize..24, 0.0f64..1.0), 0..60),
        chaos_order in proptest::collection::vec(0usize..1024, 0..48),
    ) {
        let flat = build_flat(n, &raw_edges);
        for regions in REGION_AXIS {
            let (fed, vs, pending) = ingest_by_region(n, &raw_edges, regions);
            // Chaotic prefix: deliver some ops out of order / repeatedly
            // (models FaultyTransport reordering + at-least-once
            // redelivery). Losses at this stage are fine too — the
            // primary commit already holds the edge.
            if !pending.is_empty() {
                for &i in &chaos_order {
                    deliver(&fed, &vs, pending[i % pending.len()]);
                }
            }
            // Even before full delivery, the union already matches: each
            // boundary edge was committed by its downstream primary.
            assert_union_is_flat(&fed, &flat, regions)?;
            // Full delivery, reverse order, then everything once more.
            for &r in pending.iter().rev() {
                deliver(&fed, &vs, r);
            }
            assert_union_is_flat(&fed, &flat, regions)?;
            for &r in &pending {
                deliver(&fed, &vs, r);
            }
            assert_union_is_flat(&fed, &flat, regions)?;
        }
    }

    /// The degenerate single-region federation is the flat graph with no
    /// replication at all.
    #[test]
    fn single_region_has_no_boundary_traffic(
        n in 2usize..16,
        raw_edges in proptest::collection::vec((0usize..16, 0usize..16, 0.0f64..1.0), 0..30),
    ) {
        let flat = build_flat(n, &raw_edges);
        let (fed, _, pending) = ingest_by_region(n, &raw_edges, 1);
        prop_assert!(pending.is_empty(), "one region must replicate nothing");
        assert_union_is_flat(&fed, &flat, 1)?;
    }
}
