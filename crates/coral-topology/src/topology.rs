//! The camera topology: road network annotated with camera placements.
//!
//! "The camera topology server first loads the topology of the road network
//! under the camera system as a graph and annotates the vertices (road
//! intersections) equipped with cameras" (paper §3.3). This module keeps
//! that annotated graph and the indexes needed for MDCS searches: a
//! per-vertex camera and, for cameras along lanes, a geographically ordered
//! list per road segment (paper §4.3). Both indexes are flat vectors
//! indexed by vertex and lane id, so a search lookup is one bounds check.

use crate::camera::{Camera, CameraId, CameraSite};
use coral_geo::{GeoPoint, Heading, IntersectionId, LaneId, RoadNetwork};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::fmt;

/// Errors from camera placement operations.
#[derive(Debug, Clone, PartialEq)]
pub enum TopologyError {
    /// A camera with this id is already registered.
    DuplicateCamera(CameraId),
    /// The referenced camera is not registered.
    UnknownCamera(CameraId),
    /// The target vertex already hosts a camera.
    VertexOccupied(IntersectionId),
    /// The placement refers to a vertex or lane missing from the network.
    InvalidSite(String),
}

impl fmt::Display for TopologyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TopologyError::DuplicateCamera(id) => write!(f, "camera {id} already registered"),
            TopologyError::UnknownCamera(id) => write!(f, "unknown camera {id}"),
            TopologyError::VertexOccupied(v) => write!(f, "intersection {v} already has a camera"),
            TopologyError::InvalidSite(s) => write!(f, "invalid camera site: {s}"),
        }
    }
}

impl std::error::Error for TopologyError {}

/// Road network annotated with camera placements.
///
/// # Examples
///
/// ```
/// use coral_geo::generators;
/// use coral_topology::{CameraId, CameraTopology};
///
/// let (net, sites) = generators::campus();
/// let mut topo = CameraTopology::new(net);
/// topo.place_at_intersection(CameraId(0), sites[0], 0.0)?;
/// assert_eq!(topo.camera_at_vertex(sites[0]), Some(CameraId(0)));
/// # Ok::<(), coral_topology::TopologyError>(())
/// ```
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CameraTopology {
    net: RoadNetwork,
    cameras: BTreeMap<CameraId, Camera>,
    /// The camera at each vertex, indexed by `IntersectionId`.
    vertex_cams: Vec<Option<CameraId>>,
    /// Cameras along each lane, indexed by `LaneId` and ordered by offset
    /// from the lane's source. Entries are mirrored onto the reverse lane
    /// of two-way roads.
    lane_cams: Vec<Vec<(f64, CameraId)>>,
    /// Each lane's reverse lane ([`RoadNetwork::reverse_lane`]), indexed by
    /// `LaneId`.
    reverse: Vec<Option<LaneId>>,
    /// Each lane's compass heading ([`RoadNetwork::lane_heading`]), indexed
    /// by `LaneId`.
    headings: Vec<Heading>,
}

impl CameraTopology {
    /// Creates a topology over `net` with no cameras.
    pub fn new(net: RoadNetwork) -> Self {
        let reverse = net.lanes().map(|l| net.reverse_lane(l.id)).collect();
        let headings = net
            .lanes()
            .map(|l| net.lane_heading(l.id).expect("network lane exists"))
            .collect();
        Self {
            cameras: BTreeMap::new(),
            vertex_cams: vec![None; net.intersection_count()],
            lane_cams: vec![Vec::new(); net.lane_count()],
            reverse,
            headings,
            net,
        }
    }

    /// The underlying road network.
    pub fn network(&self) -> &RoadNetwork {
        &self.net
    }

    /// Number of registered (active) cameras.
    pub fn camera_count(&self) -> usize {
        self.cameras.len()
    }

    /// Iterates over registered cameras in id order.
    pub fn cameras(&self) -> impl Iterator<Item = &Camera> + '_ {
        self.cameras.values()
    }

    /// Looks up a camera.
    pub fn camera(&self, id: CameraId) -> Option<&Camera> {
        self.cameras.get(&id)
    }

    /// The camera at a vertex, if any.
    pub fn camera_at_vertex(&self, v: IntersectionId) -> Option<CameraId> {
        self.vertex_cams.get(v.0 as usize).copied().flatten()
    }

    /// Cameras along `lane` ordered by offset from the lane's source
    /// intersection (traversal order).
    pub fn cameras_on_lane(&self, lane: LaneId) -> &[(f64, CameraId)] {
        self.lane_cams
            .get(lane.0 as usize)
            .map_or(&[], Vec::as_slice)
    }

    /// The lane opposing `lane` on a two-way road, cached from
    /// [`RoadNetwork::reverse_lane`].
    pub(crate) fn reverse_lane(&self, lane: LaneId) -> Option<LaneId> {
        self.reverse.get(lane.0 as usize).copied().flatten()
    }

    /// The compass heading of `lane`, cached from
    /// [`RoadNetwork::lane_heading`].
    ///
    /// # Panics
    ///
    /// Panics if `lane` is not a lane of the network.
    pub(crate) fn lane_heading(&self, lane: LaneId) -> Heading {
        self.headings[lane.0 as usize]
    }

    /// Places a camera at an intersection.
    ///
    /// # Errors
    ///
    /// Fails if the camera id is taken, the vertex is occupied or unknown.
    pub fn place_at_intersection(
        &mut self,
        id: CameraId,
        vertex: IntersectionId,
        videoing_angle_deg: f64,
    ) -> Result<(), TopologyError> {
        if self.cameras.contains_key(&id) {
            return Err(TopologyError::DuplicateCamera(id));
        }
        if self.camera_at_vertex(vertex).is_some() {
            return Err(TopologyError::VertexOccupied(vertex));
        }
        let position = self
            .net
            .intersection(vertex)
            .map_err(|e| TopologyError::InvalidSite(e.to_string()))?
            .position;
        self.cameras.insert(
            id,
            Camera {
                id,
                site: CameraSite::Intersection(vertex),
                position,
                videoing_angle_deg,
            },
        );
        self.vertex_cams[vertex.0 as usize] = Some(id);
        Ok(())
    }

    /// Places a camera along a lane at fractional `offset` from the lane's
    /// source intersection. The camera is also indexed on the reverse lane
    /// (if the road is two-way) at offset `1 - offset`.
    ///
    /// # Errors
    ///
    /// Fails if the camera id is taken, the lane is unknown, or the offset
    /// is outside `(0, 1)`.
    pub fn place_on_lane(
        &mut self,
        id: CameraId,
        lane: LaneId,
        offset: f64,
        videoing_angle_deg: f64,
    ) -> Result<(), TopologyError> {
        if self.cameras.contains_key(&id) {
            return Err(TopologyError::DuplicateCamera(id));
        }
        if !(offset > 0.0 && offset < 1.0) {
            return Err(TopologyError::InvalidSite(format!(
                "lane offset {offset} outside (0, 1)"
            )));
        }
        self.net
            .lane(lane)
            .map_err(|e| TopologyError::InvalidSite(e.to_string()))?;
        let position = self
            .net
            .position_on_lane(lane, offset)
            .map_err(|e| TopologyError::InvalidSite(e.to_string()))?;
        self.cameras.insert(
            id,
            Camera {
                id,
                site: CameraSite::Lane { lane, offset },
                position,
                videoing_angle_deg,
            },
        );
        insert_sorted(&mut self.lane_cams[lane.0 as usize], offset, id);
        if let Some(rev) = self.reverse_lane(lane) {
            insert_sorted(&mut self.lane_cams[rev.0 as usize], 1.0 - offset, id);
        }
        Ok(())
    }

    /// Places a camera by geographic position: snaps to the nearest
    /// intersection when within `snap_radius_m` (and it is unoccupied),
    /// otherwise assigns it to the nearest lane. This is the join path used
    /// by the topology server when a new camera's first heartbeat carries
    /// only latitude/longitude (paper §3.3).
    ///
    /// # Errors
    ///
    /// Fails on duplicate ids or an empty road network.
    pub fn place_by_position(
        &mut self,
        id: CameraId,
        position: GeoPoint,
        snap_radius_m: f64,
        videoing_angle_deg: f64,
    ) -> Result<CameraSite, TopologyError> {
        if self.cameras.contains_key(&id) {
            return Err(TopologyError::DuplicateCamera(id));
        }
        let vertex = self
            .net
            .nearest_intersection(position)
            .ok_or_else(|| TopologyError::InvalidSite("empty road network".into()))?;
        let vpos = self.net.intersection(vertex).expect("exists").position;
        if vpos.planar_m(position) <= snap_radius_m && self.camera_at_vertex(vertex).is_none() {
            self.place_at_intersection(id, vertex, videoing_angle_deg)?;
            return Ok(CameraSite::Intersection(vertex));
        }
        let (lane, offset, _) = self
            .net
            .nearest_lane(position)
            .ok_or_else(|| TopologyError::InvalidSite("network has no lanes".into()))?;
        let offset = offset.clamp(0.05, 0.95);
        self.place_on_lane(id, lane, offset, videoing_angle_deg)?;
        Ok(CameraSite::Lane { lane, offset })
    }

    /// Removes a camera (e.g. after the topology server declares it failed).
    ///
    /// # Errors
    ///
    /// Fails if the camera is not registered.
    pub fn remove_camera(&mut self, id: CameraId) -> Result<Camera, TopologyError> {
        let cam = self
            .cameras
            .remove(&id)
            .ok_or(TopologyError::UnknownCamera(id))?;
        match cam.site {
            CameraSite::Intersection(v) => {
                self.vertex_cams[v.0 as usize] = None;
            }
            CameraSite::Lane { lane, .. } => {
                self.lane_cams[lane.0 as usize].retain(|&(_, c)| c != id);
                if let Some(rev) = self.reverse_lane(lane) {
                    self.lane_cams[rev.0 as usize].retain(|&(_, c)| c != id);
                }
            }
        }
        Ok(cam)
    }
}

fn insert_sorted(v: &mut Vec<(f64, CameraId)>, offset: f64, id: CameraId) {
    let pos = v.partition_point(|&(o, _)| o < offset);
    v.insert(pos, (offset, id));
}

#[cfg(test)]
mod tests {
    use super::*;
    use coral_geo::generators;

    fn corridor_topology() -> CameraTopology {
        CameraTopology::new(generators::corridor(4, 150.0, 13.4))
    }

    #[test]
    fn place_and_lookup_vertex_camera() {
        let mut topo = corridor_topology();
        topo.place_at_intersection(CameraId(1), IntersectionId(0), 90.0)
            .unwrap();
        assert_eq!(topo.camera_at_vertex(IntersectionId(0)), Some(CameraId(1)));
        assert_eq!(topo.camera_count(), 1);
        let cam = topo.camera(CameraId(1)).unwrap();
        assert_eq!(cam.site, CameraSite::Intersection(IntersectionId(0)));
    }

    #[test]
    fn duplicate_id_and_occupied_vertex_rejected() {
        let mut topo = corridor_topology();
        topo.place_at_intersection(CameraId(1), IntersectionId(0), 0.0)
            .unwrap();
        assert_eq!(
            topo.place_at_intersection(CameraId(1), IntersectionId(1), 0.0),
            Err(TopologyError::DuplicateCamera(CameraId(1)))
        );
        assert_eq!(
            topo.place_at_intersection(CameraId(2), IntersectionId(0), 0.0),
            Err(TopologyError::VertexOccupied(IntersectionId(0)))
        );
    }

    #[test]
    fn lane_cameras_sorted_and_mirrored() {
        let mut topo = corridor_topology();
        // Find the lane 0 -> 1.
        let lane = topo.network().out_lanes(IntersectionId(0))[0];
        let rev = topo.network().reverse_lane(lane).unwrap();
        topo.place_on_lane(CameraId(10), lane, 0.7, 0.0).unwrap();
        topo.place_on_lane(CameraId(11), lane, 0.3, 0.0).unwrap();
        let fwd = topo.cameras_on_lane(lane);
        assert_eq!(
            fwd.iter().map(|&(_, c)| c).collect::<Vec<_>>(),
            vec![CameraId(11), CameraId(10)]
        );
        let bwd = topo.cameras_on_lane(rev);
        assert_eq!(
            bwd.iter().map(|&(_, c)| c).collect::<Vec<_>>(),
            vec![CameraId(10), CameraId(11)],
            "reverse direction must see cameras in mirrored order"
        );
        assert!((bwd[0].0 - 0.3).abs() < 1e-12);
    }

    #[test]
    fn lane_offset_bounds_enforced() {
        let mut topo = corridor_topology();
        let lane = topo.network().out_lanes(IntersectionId(0))[0];
        assert!(matches!(
            topo.place_on_lane(CameraId(1), lane, 0.0, 0.0),
            Err(TopologyError::InvalidSite(_))
        ));
        assert!(matches!(
            topo.place_on_lane(CameraId(1), lane, 1.0, 0.0),
            Err(TopologyError::InvalidSite(_))
        ));
    }

    #[test]
    fn place_by_position_snaps_to_vertex() {
        let mut topo = corridor_topology();
        let p = topo
            .network()
            .intersection(IntersectionId(2))
            .unwrap()
            .position
            .offset_m(5.0, 3.0);
        let site = topo.place_by_position(CameraId(5), p, 20.0, 0.0).unwrap();
        assert_eq!(site, CameraSite::Intersection(IntersectionId(2)));
    }

    #[test]
    fn place_by_position_falls_back_to_lane() {
        let mut topo = corridor_topology();
        // Midway between intersections 1 and 2 (75 m from both, beyond snap radius).
        let a = topo
            .network()
            .intersection(IntersectionId(1))
            .unwrap()
            .position;
        let b = topo
            .network()
            .intersection(IntersectionId(2))
            .unwrap()
            .position;
        let mid = a.lerp(b, 0.5);
        let site = topo.place_by_position(CameraId(6), mid, 20.0, 0.0).unwrap();
        match site {
            CameraSite::Lane { offset, .. } => assert!((offset - 0.5).abs() < 0.05),
            other => panic!("expected lane site, got {other:?}"),
        }
    }

    #[test]
    fn remove_camera_clears_indexes() {
        let mut topo = corridor_topology();
        let lane = topo.network().out_lanes(IntersectionId(0))[0];
        let rev = topo.network().reverse_lane(lane).unwrap();
        topo.place_at_intersection(CameraId(1), IntersectionId(3), 0.0)
            .unwrap();
        topo.place_on_lane(CameraId(2), lane, 0.5, 0.0).unwrap();
        topo.remove_camera(CameraId(1)).unwrap();
        topo.remove_camera(CameraId(2)).unwrap();
        assert_eq!(topo.camera_at_vertex(IntersectionId(3)), None);
        assert!(topo.cameras_on_lane(lane).is_empty());
        assert!(topo.cameras_on_lane(rev).is_empty());
        assert_eq!(
            topo.remove_camera(CameraId(2)),
            Err(TopologyError::UnknownCamera(CameraId(2)))
        );
    }
}
