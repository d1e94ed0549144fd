//! The incremental topology server and the iterative MDCS kernel against
//! the definitions they replace:
//!
//! - (a) after every join, removal and liveness sweep, the server's tables
//!   and its `(camera, version, table)` update stream equal those of an
//!   oracle that recomputes every camera's table with the public
//!   [`mdcs_table`] and diffs it against the last one;
//! - (b) [`mdcs_for`] and [`mdcs_table`] equal the recursive DFS the kernel
//!   replaced, copied below as the reference.
//!
//! Both run on the campus map, a grid, the one-way ring and a hand-built
//! graph with dead ends, one-way spurs and a one-way loop, with U-turn
//! support on and off. `PROPTEST_CASES` raises the case count.

use coral_geo::{generators, GeoPoint, Heading, IntersectionId, LaneId, RoadNetwork};
use coral_topology::{
    mdcs_for, mdcs_table, CameraId, CameraSite, CameraTopology, MdcsOptions, MdcsTable, MdcsUpdate,
    ServerConfig, TopologyServer,
};
use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet, HashSet};

fn cases() -> u32 {
    std::env::var("PROPTEST_CASES")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(48)
}

/// Dead ends, one-way spurs and a one-way loop:
///
/// ```text
///   v0 ⇄ v1 → v2        v1 → v2 ⇄ v5 → v4 → v1 is a one-way loop;
///   ↓    ↑    ⇅        v3 and v6 are dead ends (v6 a sink).
///   v3 ⇄ v4 ← v5
///        ↓
///        v6
/// ```
fn dead_ends() -> RoadNetwork {
    let base = GeoPoint::new(33.77, -84.39);
    let mut net = RoadNetwork::new();
    let at = |n: f64, e: f64| base.offset_m(n, e);
    let v: Vec<IntersectionId> = [
        at(100.0, 0.0),
        at(100.0, 120.0),
        at(100.0, 240.0),
        at(0.0, 0.0),
        at(0.0, 120.0),
        at(0.0, 240.0),
        at(-120.0, 120.0),
    ]
    .into_iter()
    .map(|p| net.add_intersection(p))
    .collect();
    net.add_two_way(v[0], v[1], 10.0).unwrap();
    net.add_lane(v[1], v[2], 10.0).unwrap();
    net.add_two_way(v[2], v[5], 10.0).unwrap();
    net.add_lane(v[5], v[4], 10.0).unwrap();
    net.add_lane(v[4], v[1], 10.0).unwrap();
    net.add_two_way(v[4], v[3], 10.0).unwrap();
    net.add_lane(v[0], v[3], 10.0).unwrap();
    net.add_lane(v[4], v[6], 10.0).unwrap();
    net
}

fn graph(which: usize) -> RoadNetwork {
    match which {
        0 => generators::campus().0,
        1 => generators::grid(4, 5, 100.0, 10.0),
        2 => generators::ring(8, 100.0, 10.0),
        _ => dead_ends(),
    }
}

fn options(uturn: bool, tight: bool) -> MdcsOptions {
    MdcsOptions {
        include_self_uturn: uturn,
        // A tight tolerance sends most seeds down the closest-lane
        // fallback.
        heading_tolerance_deg: if tight { 5.0 } else { 45.0 },
    }
}

/// A join position: the `pick`-th vertex (it snaps there if free, or onto
/// a lane beside it if taken), or a point `frac` along the `pick`-th lane,
/// off any vertex.
fn join_position(net: &RoadNetwork, on_lane: bool, pick: usize, frac: f64) -> GeoPoint {
    if on_lane {
        let lane = LaneId((pick % net.lane_count()) as u32);
        net.position_on_lane(lane, 0.3 + 0.4 * frac).unwrap()
    } else {
        let v = IntersectionId((pick % net.intersection_count()) as u32);
        net.intersection(v).unwrap().position
    }
}

/// The full-recompute server: every change recomputes every camera's
/// table and disseminates those that differ, in id order.
struct Oracle {
    topo: CameraTopology,
    tables: BTreeMap<CameraId, MdcsTable>,
    version: u64,
    opts: MdcsOptions,
}

impl Oracle {
    fn recompute(&mut self) -> Vec<MdcsUpdate> {
        let mut updates = Vec::new();
        for cam in self.topo.cameras().map(|c| c.id) {
            let table = mdcs_table(&self.topo, cam, self.opts);
            if self.tables.get(&cam) != Some(&table) {
                self.version += 1;
                self.tables.insert(cam, table.clone());
                updates.push(MdcsUpdate {
                    camera: cam,
                    table,
                    version: self.version,
                });
            }
        }
        updates
    }

    fn remove(&mut self, cam: CameraId) {
        self.topo.remove_camera(cam).unwrap();
        self.tables.remove(&cam);
    }
}

const POOL: u32 = 14;
const DEADLINE_MS: u64 = 4_000;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(cases()))]

    #[test]
    fn server_matches_full_recompute(
        which in 0usize..4,
        uturn in any::<bool>(),
        tight in any::<bool>(),
        ops in proptest::collection::vec((0u8..8, 0usize..10_000, 0.0f64..1.0, 0u64..u64::MAX), 1..48),
    ) {
        let net = graph(which);
        let opts = options(uturn, tight);
        let config = ServerConfig { mdcs: opts, ..ServerConfig::default() };
        let mut server = TopologyServer::new(net.clone(), config);
        let mut oracle = Oracle {
            topo: CameraTopology::new(net.clone()),
            tables: BTreeMap::new(),
            version: 0,
            opts,
        };
        let mut positions: BTreeMap<CameraId, GeoPoint> = BTreeMap::new();
        let mut now = 0u64;
        for (step, &(kind, pick, frac, mask)) in ops.iter().enumerate() {
            let registered: Vec<CameraId> = oracle.topo.cameras().map(|c| c.id).collect();
            let (updates, expected) = match kind {
                // Joins and rejoins: vertex positions, or off-vertex
                // points that land on a lane.
                0..=4 => {
                    let free: Vec<CameraId> =
                        (0..POOL).map(CameraId).filter(|c| !registered.contains(c)).collect();
                    if free.is_empty() {
                        continue;
                    }
                    let cam = free[pick % free.len()];
                    let p = join_position(&net, kind >= 3, pick / 7, frac);
                    positions.insert(cam, p);
                    let updates = server.handle_heartbeat(cam, p, 0.0, now).unwrap();
                    oracle.topo.place_by_position(cam, p, config.snap_radius_m, 0.0).unwrap();
                    (updates, oracle.recompute())
                }
                // Administrative removal.
                5 => {
                    if registered.is_empty() {
                        continue;
                    }
                    let cam = registered[pick % registered.len()];
                    let updates = server.remove_camera(cam).unwrap();
                    oracle.remove(cam);
                    (updates, oracle.recompute())
                }
                // A liveness sweep: the cameras whose `mask` bit is set
                // beat in time, every other one is evicted at once.
                _ => {
                    now += DEADLINE_MS + 1;
                    let mut evicted = Vec::new();
                    for (i, &cam) in registered.iter().enumerate() {
                        if mask >> i & 1 == 1 {
                            let refresh = server.handle_heartbeat(cam, positions[&cam], 0.0, now).unwrap();
                            prop_assert!(refresh.is_empty(), "a refresh changed tables");
                        } else {
                            evicted.push(cam);
                        }
                    }
                    let sweep = server.check_liveness(now);
                    prop_assert_eq!(&sweep.evicted, &evicted, "step {}: evicted", step);
                    for &cam in &evicted {
                        oracle.remove(cam);
                    }
                    let expected = if evicted.is_empty() { Vec::new() } else { oracle.recompute() };
                    (sweep.updates, expected)
                }
            };
            prop_assert_eq!(&updates, &expected, "step {} (op {}): update stream", step, kind);
            prop_assert_eq!(server.active_cameras(), oracle.topo.cameras().map(|c| c.id).collect::<Vec<_>>());
            for cam in (0..POOL).map(CameraId) {
                prop_assert_eq!(server.table(cam), oracle.tables.get(&cam), "step {}: table of {}", step, cam);
            }
        }
    }

    #[test]
    fn kernel_matches_recursive_dfs(
        which in 0usize..4,
        uturn in any::<bool>(),
        tight in any::<bool>(),
        joins in proptest::collection::vec((any::<bool>(), 0usize..10_000, 0.0f64..1.0), 1..20),
    ) {
        let net = graph(which);
        let opts = options(uturn, tight);
        let mut topo = CameraTopology::new(net.clone());
        for (i, &(on_lane, pick, frac)) in joins.iter().enumerate() {
            let p = join_position(&net, on_lane, pick, frac);
            topo.place_by_position(CameraId(i as u32), p, 30.0, 0.0).unwrap();
        }
        for cam in (0..=joins.len() as u32).map(CameraId) {
            prop_assert_eq!(entries(&mdcs_table(&topo, cam, opts)), reference_table(&topo, cam, opts));
            for h in Heading::ALL {
                prop_assert_eq!(
                    mdcs_for(&topo, cam, h, opts),
                    reference_for(&topo, cam, h, opts),
                    "{} heading {}", cam, h
                );
            }
        }
    }
}

// The recursive MDCS search the kernel replaced, kept verbatim as the
// reference definition.

type Entries = BTreeMap<Heading, BTreeSet<CameraId>>;

fn entries(table: &MdcsTable) -> Entries {
    table.iter().map(|(h, set)| (h, set.clone())).collect()
}

fn reference_for(
    topo: &CameraTopology,
    camera: CameraId,
    heading: Heading,
    opts: MdcsOptions,
) -> BTreeSet<CameraId> {
    let mut out = BTreeSet::new();
    let Some(cam) = topo.camera(camera) else {
        return out;
    };
    let net = topo.network();
    let mut visited: HashSet<LaneId> = HashSet::new();
    match cam.site {
        CameraSite::Intersection(v) => {
            let lanes = seed_lanes(topo, v, heading, opts.heading_tolerance_deg);
            for lane in lanes {
                if visited.insert(lane) {
                    dfs_lane(topo, camera, lane, None, &mut visited, &mut out);
                }
            }
        }
        CameraSite::Lane { lane, offset } => {
            let fwd_heading = net.lane_heading(lane).unwrap();
            let rev = net.reverse_lane(lane);
            let (oriented, oriented_offset) = match rev {
                Some(rev_lane) => {
                    let rev_heading = net.lane_heading(rev_lane).unwrap();
                    if heading.angle_to(fwd_heading) <= heading.angle_to(rev_heading) {
                        (lane, offset)
                    } else {
                        (rev_lane, 1.0 - offset)
                    }
                }
                None => (lane, offset),
            };
            visited.insert(oriented);
            dfs_lane(
                topo,
                camera,
                oriented,
                Some(oriented_offset),
                &mut visited,
                &mut out,
            );
        }
    }
    if opts.include_self_uturn {
        out.insert(camera);
    }
    out
}

fn reference_table(topo: &CameraTopology, camera: CameraId, opts: MdcsOptions) -> Entries {
    let Some(cam) = topo.camera(camera) else {
        return Entries::new();
    };
    let net = topo.network();
    let headings: BTreeSet<Heading> = match cam.site {
        CameraSite::Intersection(v) => net
            .out_lanes(v)
            .iter()
            .map(|&l| net.lane_heading(l).unwrap())
            .collect(),
        CameraSite::Lane { lane, .. } => {
            let mut hs = BTreeSet::new();
            hs.insert(net.lane_heading(lane).unwrap());
            if let Some(rev) = net.reverse_lane(lane) {
                hs.insert(net.lane_heading(rev).unwrap());
            }
            hs
        }
    };
    headings
        .into_iter()
        .map(|h| (h, reference_for(topo, camera, h, opts)))
        .collect()
}

fn seed_lanes(
    topo: &CameraTopology,
    v: IntersectionId,
    heading: Heading,
    tolerance_deg: f64,
) -> Vec<LaneId> {
    let net = topo.network();
    let lanes = net.out_lanes(v);
    let mut within: Vec<LaneId> = lanes
        .iter()
        .copied()
        .filter(|&l| heading.angle_to(net.lane_heading(l).unwrap()) <= tolerance_deg)
        .collect();
    if within.is_empty() && !lanes.is_empty() {
        let best = lanes
            .iter()
            .map(|&l| heading.angle_to(net.lane_heading(l).unwrap()))
            .fold(f64::INFINITY, f64::min);
        within = lanes
            .iter()
            .copied()
            .filter(|&l| (heading.angle_to(net.lane_heading(l).unwrap()) - best).abs() < 1e-9)
            .collect();
    }
    within
}

fn dfs_lane(
    topo: &CameraTopology,
    origin: CameraId,
    lane: LaneId,
    past_offset: Option<f64>,
    visited: &mut HashSet<LaneId>,
    out: &mut BTreeSet<CameraId>,
) {
    let net = topo.network();
    for &(off, cam) in topo.cameras_on_lane(lane) {
        if let Some(skip) = past_offset {
            if off <= skip {
                continue;
            }
        }
        if cam == origin {
            continue;
        }
        out.insert(cam);
        return;
    }
    let to = net.lane(lane).unwrap().to;
    if let Some(cam) = topo.camera_at_vertex(to) {
        if cam != origin {
            out.insert(cam);
        }
        return;
    }
    let reverse = net.reverse_lane(lane);
    for &next in net.out_lanes(to) {
        if Some(next) == reverse {
            continue;
        }
        if visited.insert(next) {
            dfs_lane(topo, origin, next, None, visited, out);
        }
    }
}
