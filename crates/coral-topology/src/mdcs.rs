//! Minimum Downstream Camera Set (MDCS) computation.
//!
//! "We call the set of cameras that the detected vehicle could potentially
//! pass through first before it can reach other cameras in the system the
//! minimum downstream camera set" (paper §3.2). For a given camera and
//! vehicle heading, a depth-first search walks the road graph and each
//! branch returns as soon as it encounters a camera — whether at a vertex or
//! along a lane (paper §3.3, §4.3). Every search runs on one iterative
//! kernel whose scratch is reused across calls.

use crate::camera::{Camera, CameraId, CameraSite};
use crate::topology::CameraTopology;
use coral_geo::{Heading, IntersectionId, LaneId, RoadNetwork};
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet};

/// Options controlling the MDCS search.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MdcsOptions {
    /// Include the origin camera in its own MDCS — "U-turn can be
    /// supported by including a given camera in its own minimum downstream
    /// camera set" (paper footnote 3). A departing vehicle may turn around
    /// anywhere before the next camera, so self is added to every
    /// non-empty downstream set.
    pub include_self_uturn: bool,
    /// Maximum angular distance (degrees) between the vehicle heading and a
    /// lane heading for the lane to seed the search. If no lane is within
    /// tolerance, the closest lane(s) are used.
    pub heading_tolerance_deg: f64,
}

impl Default for MdcsOptions {
    fn default() -> Self {
        Self {
            include_self_uturn: false,
            heading_tolerance_deg: 45.0,
        }
    }
}

/// The MDCS of one camera for every vehicle heading that its local road
/// geometry admits.
///
/// Socket groups in the communication element are configured directly from
/// this table: "a hashmap between the moving direction and sockets to the
/// cameras in the corresponding MDCS" (paper §4.1.3).
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct MdcsTable {
    per_heading: BTreeMap<Heading, BTreeSet<CameraId>>,
}

impl MdcsTable {
    /// The downstream set for an exact heading, if that heading is admitted
    /// by the local road network.
    pub fn get(&self, heading: Heading) -> Option<&BTreeSet<CameraId>> {
        self.per_heading.get(&heading)
    }

    /// The downstream set for the admitted heading nearest to `heading`
    /// (used at runtime when the vision-estimated direction does not align
    /// exactly with a lane).
    pub fn get_nearest(&self, heading: Heading) -> Option<&BTreeSet<CameraId>> {
        self.per_heading
            .iter()
            .min_by(|(a, _), (b, _)| {
                heading
                    .angle_to(**a)
                    .total_cmp(&heading.angle_to(**b))
                    .then(a.cmp(b))
            })
            .map(|(_, set)| set)
    }

    /// Iterates over `(heading, downstream set)` entries.
    pub fn iter(&self) -> impl Iterator<Item = (Heading, &BTreeSet<CameraId>)> + '_ {
        self.per_heading.iter().map(|(h, s)| (*h, s))
    }

    /// Number of admitted headings.
    pub fn heading_count(&self) -> usize {
        self.per_heading.len()
    }

    /// Whether no heading is admitted (isolated camera).
    pub fn is_empty(&self) -> bool {
        self.per_heading.is_empty()
    }

    /// Mean downstream-set size across admitted headings, or 0 for an empty
    /// table. This is the metric plotted in the paper's Fig. 12(a).
    pub fn mean_size(&self) -> f64 {
        if self.per_heading.is_empty() {
            return 0.0;
        }
        let total: usize = self.per_heading.values().map(BTreeSet::len).sum();
        total as f64 / self.per_heading.len() as f64
    }

    /// The union of downstream cameras across all headings.
    pub fn all_downstream(&self) -> BTreeSet<CameraId> {
        self.per_heading.values().flatten().copied().collect()
    }
}

/// Computes the MDCS of `camera` for a vehicle moving along `heading`.
///
/// Returns an empty set for an unknown camera or a heading with no passable
/// road.
pub fn mdcs_for(
    topo: &CameraTopology,
    camera: CameraId,
    heading: Heading,
    opts: MdcsOptions,
) -> BTreeSet<CameraId> {
    match topo.camera(camera) {
        Some(cam) => MdcsSearch::default().downstream(topo, cam, heading, opts),
        None => BTreeSet::new(),
    }
}

/// Computes the full per-heading MDCS table for `camera`.
///
/// The admitted headings are those of the outgoing lanes at the camera's
/// intersection (or of the camera's lane and its reverse for lane-resident
/// cameras).
pub fn mdcs_table(topo: &CameraTopology, camera: CameraId, opts: MdcsOptions) -> MdcsTable {
    MdcsSearch::default().table(topo, camera, opts)
}

/// Mean MDCS size across all cameras and their admitted headings — the
/// scalability metric of Fig. 12(a).
pub fn mean_mdcs_size(topo: &CameraTopology, opts: MdcsOptions) -> f64 {
    let mut search = MdcsSearch::default();
    let mut total = 0usize;
    let mut entries = 0usize;
    for cam in topo.cameras() {
        let table = search.table(topo, cam.id, opts);
        for (_, set) in table.iter() {
            total += set.len();
            entries += 1;
        }
    }
    if entries == 0 {
        0.0
    } else {
        total as f64 / entries as f64
    }
}

/// The MDCS search kernel: an iterative depth-first walk whose scratch is
/// reused across calls, so a search allocates nothing but its result.
///
/// A walk enters each lane at most once. On entering a lane it reads that
/// lane's cameras and, if none stops the branch, the camera at the lane's
/// destination vertex; if neither does, it fans out over the destination's
/// outgoing lanes, never reversing back along the lane just walked. Which
/// lanes are entered depends only on those reads, not on the visiting
/// order, so the result equals the recursive DFS of paper §3.3.
#[derive(Debug, Clone, Default)]
pub(crate) struct MdcsSearch {
    /// Per lane: the generation of the last walk that entered it.
    stamp: Vec<u32>,
    /// The current walk's generation; never 0 once a walk has begun.
    generation: u32,
    /// Per vertex: the generation of the last walk that entered all of
    /// its outgoing lanes.
    done: Vec<u32>,
    /// Lanes entered but not yet expanded.
    stack: Vec<LaneId>,
    /// One bit per `LaneId`: every lane entered by the walks of the last
    /// [`MdcsSearch::table`].
    footprint: Vec<u64>,
}

impl MdcsSearch {
    /// The lanes the walks of the last [`MdcsSearch::table`] entered, one
    /// bit per `LaneId`. These are the only lanes whose camera lookups
    /// (`cameras_on_lane(l)`, `camera_at_vertex(l.to)`) the search read.
    pub(crate) fn footprint(&self) -> &[u64] {
        &self.footprint
    }

    /// Computes `camera`'s per-heading table (see [`mdcs_table`]) and
    /// records its footprint.
    pub(crate) fn table(
        &mut self,
        topo: &CameraTopology,
        camera: CameraId,
        opts: MdcsOptions,
    ) -> MdcsTable {
        self.footprint.clear();
        let mut table = MdcsTable::default();
        let Some(cam) = topo.camera(camera) else {
            return table;
        };
        let headings: BTreeSet<Heading> = match cam.site {
            CameraSite::Intersection(v) => topo
                .network()
                .out_lanes(v)
                .iter()
                .map(|&l| topo.lane_heading(l))
                .collect(),
            CameraSite::Lane { lane, .. } => std::iter::once(lane)
                .chain(topo.reverse_lane(lane))
                .map(|l| topo.lane_heading(l))
                .collect(),
        };
        for h in headings {
            let set = self.downstream(topo, cam, h, opts);
            table.per_heading.insert(h, set);
        }
        table
    }

    /// One walk: the MDCS of `cam` along `heading`.
    fn downstream(
        &mut self,
        topo: &CameraTopology,
        cam: &Camera,
        heading: Heading,
        opts: MdcsOptions,
    ) -> BTreeSet<CameraId> {
        self.begin(topo.network());
        let mut out = BTreeSet::new();
        match cam.site {
            CameraSite::Intersection(v) => {
                self.seed(topo, v, heading, opts.heading_tolerance_deg);
            }
            CameraSite::Lane { lane, offset } => {
                // Orient the walk along the lane direction closest to the
                // vehicle heading; on that first lane only the cameras past
                // this one's own offset lie ahead.
                let (oriented, oriented_offset) = match topo.reverse_lane(lane) {
                    Some(rev) => {
                        let fwd_heading = topo.lane_heading(lane);
                        let rev_heading = topo.lane_heading(rev);
                        if heading.angle_to(fwd_heading) <= heading.angle_to(rev_heading) {
                            (lane, offset)
                        } else {
                            (rev, 1.0 - offset)
                        }
                    }
                    None => (lane, offset),
                };
                self.enter(oriented);
                self.expand(topo, cam.id, oriented, Some(oriented_offset), &mut out);
            }
        }
        while let Some(lane) = self.stack.pop() {
            self.expand(topo, cam.id, lane, None, &mut out);
        }
        if opts.include_self_uturn {
            // Even with an empty downstream set (a dead end), the vehicle can
            // only come back — self is the entire MDCS.
            out.insert(cam.id);
        }
        out
    }

    /// Starts a walk over `net`: bumping the generation empties the
    /// visited sets without touching them.
    fn begin(&mut self, net: &RoadNetwork) {
        if self.stamp.len() < net.lane_count() {
            self.stamp.resize(net.lane_count(), 0);
        }
        if self.done.len() < net.intersection_count() {
            self.done.resize(net.intersection_count(), 0);
        }
        self.footprint.resize(net.lane_count().div_ceil(64), 0);
        self.generation = self.generation.wrapping_add(1);
        if self.generation == 0 {
            self.stamp.fill(0);
            self.done.fill(0);
            self.generation = 1;
        }
        self.stack.clear();
    }

    /// Marks `lane` entered by the current walk; false if it already was.
    fn enter(&mut self, lane: LaneId) -> bool {
        let i = lane.0 as usize;
        if self.stamp[i] == self.generation {
            return false;
        }
        self.stamp[i] = self.generation;
        self.footprint[i / 64] |= 1 << (i % 64);
        true
    }

    /// Enters the outgoing lanes at `v` compatible with `heading` (within
    /// tolerance, or the closest ones if none are).
    fn seed(
        &mut self,
        topo: &CameraTopology,
        v: IntersectionId,
        heading: Heading,
        tolerance_deg: f64,
    ) {
        let lanes = topo.network().out_lanes(v);
        let angle = |l: LaneId| heading.angle_to(topo.lane_heading(l));
        let any_within = lanes.iter().any(|&l| angle(l) <= tolerance_deg);
        let best = lanes
            .iter()
            .map(|&l| angle(l))
            .fold(f64::INFINITY, f64::min);
        for &l in lanes {
            let seeds = if any_within {
                angle(l) <= tolerance_deg
            } else {
                (angle(l) - best).abs() < 1e-9
            };
            if seeds && self.enter(l) {
                self.stack.push(l);
            }
        }
    }

    /// Expands one entered lane: the branch stops at the first camera ahead
    /// on the lane or at its destination vertex, otherwise the
    /// destination's outgoing lanes are entered (never the reverse of
    /// `lane`).
    fn expand(
        &mut self,
        topo: &CameraTopology,
        origin: CameraId,
        lane: LaneId,
        past_offset: Option<f64>,
        out: &mut BTreeSet<CameraId>,
    ) {
        for &(off, cam) in topo.cameras_on_lane(lane) {
            if past_offset.is_some_and(|skip| off <= skip) || cam == origin {
                continue; // behind the origin, or self (the caller's choice)
            }
            out.insert(cam);
            return;
        }
        let net = topo.network();
        let to = net.lane(lane).expect("entered lane exists").to;
        if let Some(cam) = topo.camera_at_vertex(to) {
            if cam != origin {
                out.insert(cam);
            }
            return;
        }
        // Once every outgoing lane of `to` is entered, a later arrival there
        // would enter nothing: skip it without changing what is entered.
        let v = to.0 as usize;
        if self.done[v] == self.generation {
            return;
        }
        let reverse = topo.reverse_lane(lane);
        let mut all = true;
        for &next in net.out_lanes(to) {
            if Some(next) == reverse {
                all &= self.stamp[next.0 as usize] == self.generation;
            } else if self.enter(next) {
                self.stack.push(next);
            }
        }
        if all {
            self.done[v] = self.generation;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use coral_geo::{generators, GeoPoint, IntersectionId, RoadNetwork};

    /// Builds the Fig. 4 (left) topology from the paper:
    ///
    /// ```text
    ///   C ←E      (EC and CB one-way: E→C, C→B)
    ///   |
    ///   B—D       A—B two-way, B—D two-way, A at west of B
    /// ```
    ///
    /// Layout: A west of B, D east of B, C north of B, E east of C.
    fn fig4_left() -> (CameraTopology, [CameraId; 4]) {
        let base = GeoPoint::new(33.77, -84.39);
        let mut net = RoadNetwork::new();
        let a = net.add_intersection(base); // A
        let b = net.add_intersection(base.offset_m(0.0, 200.0)); // B
        let c = net.add_intersection(base.offset_m(200.0, 200.0)); // C (north of B)
        let d = net.add_intersection(base.offset_m(0.0, 400.0)); // D (east of B)
        let e = net.add_intersection(base.offset_m(200.0, 400.0)); // E (east of C)
        net.add_two_way(a, b, 10.0).unwrap();
        net.add_two_way(b, d, 10.0).unwrap();
        net.add_lane(e, c, 10.0).unwrap(); // EC one-way (westwards along the top)
        net.add_lane(c, b, 10.0).unwrap(); // CB one-way (southwards)
        net.add_two_way(d, e, 10.0).unwrap();
        let mut topo = CameraTopology::new(net);
        let cams = [CameraId(0), CameraId(1), CameraId(2), CameraId(3)];
        topo.place_at_intersection(cams[0], a, 0.0).unwrap(); // camera A
        topo.place_at_intersection(cams[1], b, 0.0).unwrap(); // camera B
        topo.place_at_intersection(cams[2], c, 0.0).unwrap(); // camera C
        topo.place_at_intersection(cams[3], d, 0.0).unwrap(); // camera D
        (topo, cams)
    }

    #[test]
    fn fig4_left_mdcs_from_d() {
        let (topo, cams) = fig4_left();
        let [_, cam_b, cam_c, cam_d] = cams;
        // "doing a DFS from camera D ... its MDCS is either {B} for the west
        // direction or {C} for the north direction".
        let west = mdcs_for(&topo, cam_d, Heading::West, MdcsOptions::default());
        assert_eq!(west, BTreeSet::from([cam_b]));
        let north = mdcs_for(&topo, cam_d, Heading::North, MdcsOptions::default());
        assert_eq!(north, BTreeSet::from([cam_c]));
    }

    #[test]
    fn fig4_right_mdcs_after_churn() {
        let (mut topo, cams) = fig4_left();
        let [cam_a, cam_b, cam_c, cam_d] = cams;
        // "we remove the camera B ... and deploy a new camera E".
        topo.remove_camera(cam_b).unwrap();
        // E sits at the vertex adjacent to C via the one-way E->C; find it.
        let e_vertex = IntersectionId(4);
        let cam_e = CameraId(9);
        topo.place_at_intersection(cam_e, e_vertex, 0.0).unwrap();
        // "doing another DFS from camera D, we get its new MDCS which is {A}
        // for the west direction or {E} for the north direction."
        let west = mdcs_for(&topo, cam_d, Heading::West, MdcsOptions::default());
        assert_eq!(west, BTreeSet::from([cam_a]));
        let north = mdcs_for(&topo, cam_d, Heading::North, MdcsOptions::default());
        assert_eq!(north, BTreeSet::from([cam_e]));
        let _ = cam_c;
    }

    #[test]
    fn branch_fanout_without_intermediate_camera() {
        // Fig. 3: A -> (uncamera'd junction) -> B or C; A must inform both.
        let base = GeoPoint::new(33.77, -84.39);
        let mut net = RoadNetwork::new();
        let a = net.add_intersection(base);
        let j = net.add_intersection(base.offset_m(0.0, 150.0)); // junction, no camera
        let b = net.add_intersection(base.offset_m(0.0, 300.0));
        let c = net.add_intersection(base.offset_m(150.0, 150.0));
        net.add_two_way(a, j, 10.0).unwrap();
        net.add_two_way(j, b, 10.0).unwrap();
        net.add_two_way(j, c, 10.0).unwrap();
        let mut topo = CameraTopology::new(net);
        topo.place_at_intersection(CameraId(0), a, 0.0).unwrap();
        topo.place_at_intersection(CameraId(1), b, 0.0).unwrap();
        topo.place_at_intersection(CameraId(2), c, 0.0).unwrap();
        let east = mdcs_for(&topo, CameraId(0), Heading::East, MdcsOptions::default());
        assert_eq!(east, BTreeSet::from([CameraId(1), CameraId(2)]));
    }

    #[test]
    fn no_uturn_by_default_but_optional() {
        let net = generators::corridor(2, 100.0, 10.0);
        let mut topo = CameraTopology::new(net);
        topo.place_at_intersection(CameraId(0), IntersectionId(0), 0.0)
            .unwrap();
        // Dead end eastwards after intersection 1: no camera there.
        let east = mdcs_for(&topo, CameraId(0), Heading::East, MdcsOptions::default());
        assert!(east.is_empty());
        let opts = MdcsOptions {
            include_self_uturn: true,
            ..MdcsOptions::default()
        };
        // With U-turn support a dead end still has a downstream camera:
        // the vehicle can only come back to this one.
        let east_self = mdcs_for(&topo, CameraId(0), Heading::East, opts);
        assert_eq!(east_self, BTreeSet::from([CameraId(0)]));
        // With a second camera east, both are downstream.
        topo.place_at_intersection(CameraId(1), IntersectionId(1), 0.0)
            .unwrap();
        let east_self = mdcs_for(&topo, CameraId(0), Heading::East, opts);
        assert_eq!(east_self, BTreeSet::from([CameraId(0), CameraId(1)]));
    }

    #[test]
    fn lane_resident_camera_mdcs_fig8() {
        // Fig. 8: A at vertex 1, B at vertex 2, C and D along the lane 1-2
        // with C close to vertex 1 and D close to vertex 2. DFS from B
        // (westwards, toward vertex 1) returns D.
        let base = GeoPoint::new(33.77, -84.39);
        let mut net = RoadNetwork::new();
        let v1 = net.add_intersection(base);
        let v2 = net.add_intersection(base.offset_m(0.0, 400.0));
        let (l12, _l21) = net.add_two_way(v1, v2, 10.0).unwrap();
        let mut topo = CameraTopology::new(net);
        let (cam_a, cam_b, cam_c, cam_d) = (CameraId(0), CameraId(1), CameraId(2), CameraId(3));
        topo.place_at_intersection(cam_a, v1, 0.0).unwrap();
        topo.place_at_intersection(cam_b, v2, 0.0).unwrap();
        topo.place_on_lane(cam_c, l12, 0.3, 0.0).unwrap();
        topo.place_on_lane(cam_d, l12, 0.7, 0.0).unwrap();
        let from_b_west = mdcs_for(&topo, cam_b, Heading::West, MdcsOptions::default());
        assert_eq!(from_b_west, BTreeSet::from([cam_d]));
        // And the chain continues: D (westwards) sees C, C sees A.
        let from_d_west = mdcs_for(&topo, cam_d, Heading::West, MdcsOptions::default());
        assert_eq!(from_d_west, BTreeSet::from([cam_c]));
        let from_c_west = mdcs_for(&topo, cam_c, Heading::West, MdcsOptions::default());
        assert_eq!(from_c_west, BTreeSet::from([cam_a]));
        // Eastwards from A: first camera on the lane is C.
        let from_a_east = mdcs_for(&topo, cam_a, Heading::East, MdcsOptions::default());
        assert_eq!(from_a_east, BTreeSet::from([cam_c]));
    }

    #[test]
    fn mdcs_table_covers_local_headings() {
        let (topo, cams) = fig4_left();
        let table = mdcs_table(&topo, cams[3], MdcsOptions::default());
        // D has outgoing lanes west (to B), north (to C via D-C), and east (to E).
        assert!(table.heading_count() >= 2);
        assert_eq!(table.get(Heading::West), Some(&BTreeSet::from([cams[1]])));
        assert!(!table.is_empty());
        assert!(table.mean_size() >= 1.0);
        assert!(table.all_downstream().contains(&cams[1]));
    }

    #[test]
    fn get_nearest_falls_back() {
        let (topo, cams) = fig4_left();
        let table = mdcs_table(&topo, cams[3], MdcsOptions::default());
        // NorthWest is not an exact entry, but nearest should resolve.
        assert!(table.get_nearest(Heading::NorthWest).is_some());
    }

    #[test]
    fn denser_network_shrinks_mdcs() {
        // With a camera at every intersection of a grid, every MDCS has
        // size exactly 1 (paper §5.5).
        let net = generators::grid(4, 4, 100.0, 10.0);
        let mut topo = CameraTopology::new(net);
        for i in 0..16 {
            topo.place_at_intersection(CameraId(i), IntersectionId(i), 0.0)
                .unwrap();
        }
        for cam in 0..16u32 {
            let table = mdcs_table(&topo, CameraId(cam), MdcsOptions::default());
            for (h, set) in table.iter() {
                assert_eq!(set.len(), 1, "cam {cam} heading {h} -> {set:?}");
            }
        }
        assert!((mean_mdcs_size(&topo, MdcsOptions::default()) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn sparse_network_grows_mdcs() {
        // Only two opposite corners camera'd on a grid: the detection fans
        // out over many paths.
        let net = generators::grid(4, 4, 100.0, 10.0);
        let mut topo = CameraTopology::new(net);
        topo.place_at_intersection(CameraId(0), IntersectionId(0), 0.0)
            .unwrap();
        topo.place_at_intersection(CameraId(1), IntersectionId(15), 0.0)
            .unwrap();
        let table = mdcs_table(&topo, CameraId(0), MdcsOptions::default());
        let down = table.all_downstream();
        assert_eq!(down, BTreeSet::from([CameraId(1)]));
        // Dense vs sparse mean size on campus: deploying all 37 sites gives
        // a smaller mean than deploying 8.
        let (net, sites) = generators::campus();
        let mut sparse = CameraTopology::new(net.clone());
        for (i, &s) in sites.iter().take(8).enumerate() {
            sparse
                .place_at_intersection(CameraId(i as u32), s, 0.0)
                .unwrap();
        }
        let mut dense = CameraTopology::new(net);
        for (i, &s) in sites.iter().enumerate() {
            dense
                .place_at_intersection(CameraId(i as u32), s, 0.0)
                .unwrap();
        }
        let opts = MdcsOptions::default();
        assert!(
            mean_mdcs_size(&dense, opts) < mean_mdcs_size(&sparse, opts),
            "dense {} sparse {}",
            mean_mdcs_size(&dense, opts),
            mean_mdcs_size(&sparse, opts)
        );
    }

    #[test]
    fn unknown_camera_yields_empty() {
        let (topo, _) = fig4_left();
        assert!(mdcs_for(&topo, CameraId(99), Heading::North, MdcsOptions::default()).is_empty());
        assert!(mdcs_table(&topo, CameraId(99), MdcsOptions::default()).is_empty());
    }
}
