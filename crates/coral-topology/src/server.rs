//! The cloud-hosted camera topology server.
//!
//! The server maintains the annotated road graph, tracks camera liveness
//! through periodic heartbeats, and recomputes the MDCS of affected cameras
//! (and only those) when cameras join or fail — the self-healing mechanism
//! evaluated in the paper's Fig. 11 (§3.3, §5.4).
//!
//! The server is transport-agnostic: callers feed it heartbeats and clock
//! ticks and disseminate the [`MdcsUpdate`]s it returns (the discrete-event
//! simulator and the TCP transport both drive it this way).

use crate::camera::{CameraId, CameraSite};
use crate::mdcs::{MdcsOptions, MdcsSearch, MdcsTable};
use crate::topology::{CameraTopology, TopologyError};
use coral_geo::{GeoPoint, LaneId, RoadNetwork};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Milliseconds since an arbitrary epoch (simulation or UNIX time).
pub type TimestampMs = u64;

/// Topology-server configuration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ServerConfig {
    /// Expected heartbeat period of each camera, in milliseconds
    /// (the paper evaluates 2 s and 5 s).
    pub heartbeat_interval_ms: u64,
    /// Number of consecutive missed heartbeats before a camera is declared
    /// failed. The paper observes recovery within twice the heartbeat
    /// interval, which corresponds to a threshold of 2.
    pub miss_threshold: u32,
    /// Join snap radius: a new camera within this distance of a free
    /// intersection is assigned to it, otherwise to the nearest lane.
    pub snap_radius_m: f64,
    /// MDCS search options.
    pub mdcs: MdcsOptions,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            heartbeat_interval_ms: 2_000,
            miss_threshold: 2,
            snap_radius_m: 30.0,
            mdcs: MdcsOptions::default(),
        }
    }
}

/// A recomputed MDCS table that must be disseminated to `camera`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize, Default)]
pub struct MdcsUpdate {
    /// The camera whose downstream sets changed.
    pub camera: CameraId,
    /// Its new per-heading MDCS table.
    pub table: MdcsTable,
    /// Monotonic version stamped by the server. Updates travel over a WAN
    /// with nondeterministic latency (§2) and can arrive out of order; a
    /// camera must discard any update older than the one it already
    /// applied, or a stale table would overwrite a newer one.
    pub version: u64,
}

/// What one liveness sweep did.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct LivenessSweep {
    /// Cameras evicted by the sweep, in id order.
    pub evicted: Vec<CameraId>,
    /// MDCS updates for the survivors whose tables changed.
    pub updates: Vec<MdcsUpdate>,
}

/// The camera topology server.
///
/// A topology change recomputes only the tables it can alter. Each table
/// is stored with the *footprint* of the search that computed it: the
/// lanes that search entered. For an entered lane `l` the search read
/// `cameras_on_lane(l)` and `camera_at_vertex(l.to)`, and it read no other
/// placement. A camera at vertex `v` changes only the lookups made from
/// `in_lanes(v)`; a camera on lane `L` changes only those on `L` and its
/// reverse. A camera whose footprint holds none of the changed lanes would
/// re-read exactly what it read before, so its table and footprint stay as
/// they are. The changed tables, and so the updates and their versions,
/// are those a full recompute would produce.
///
/// # Examples
///
/// ```
/// use coral_geo::generators;
/// use coral_topology::{CameraId, ServerConfig, TopologyServer};
///
/// let (net, sites) = generators::campus();
/// let mut server = TopologyServer::new(net.clone(), ServerConfig::default());
/// let p0 = net.intersection(sites[0]).unwrap().position;
/// let p1 = net.intersection(sites[1]).unwrap().position;
/// let updates = server.handle_heartbeat(CameraId(0), p0, 0.0, 0).unwrap();
/// assert_eq!(updates.len(), 1); // the new camera gets its (empty) table
/// let updates = server.handle_heartbeat(CameraId(1), p1, 0.0, 10).unwrap();
/// assert!(updates.iter().any(|u| u.camera == CameraId(0)
///     || u.camera == CameraId(1)));
/// ```
#[derive(Debug, Clone)]
pub struct TopologyServer {
    topo: CameraTopology,
    config: ServerConfig,
    last_seen: BTreeMap<CameraId, TimestampMs>,
    tables: BTreeMap<CameraId, Disseminated>,
    search: MdcsSearch,
    version: u64,
}

/// A camera's last disseminated table and the footprint of the search
/// that computed it.
#[derive(Debug, Clone)]
struct Disseminated {
    table: MdcsTable,
    /// One bit per `LaneId`: the lanes the search entered.
    footprint: Vec<u64>,
}

impl Disseminated {
    fn touches(&self, lane: LaneId) -> bool {
        let i = lane.0 as usize;
        self.footprint
            .get(i / 64)
            .is_some_and(|w| w >> (i % 64) & 1 == 1)
    }
}

impl TopologyServer {
    /// Creates a server over the given base road map.
    pub fn new(net: RoadNetwork, config: ServerConfig) -> Self {
        Self {
            topo: CameraTopology::new(net),
            config,
            last_seen: BTreeMap::new(),
            tables: BTreeMap::new(),
            search: MdcsSearch::default(),
            version: 0,
        }
    }

    /// The current annotated topology.
    pub fn topology(&self) -> &CameraTopology {
        &self.topo
    }

    /// The server configuration.
    pub fn config(&self) -> &ServerConfig {
        &self.config
    }

    /// The last MDCS table disseminated to `camera`.
    pub fn table(&self, camera: CameraId) -> Option<&MdcsTable> {
        self.tables.get(&camera).map(|d| &d.table)
    }

    /// Ids of currently active (registered, live) cameras.
    pub fn active_cameras(&self) -> Vec<CameraId> {
        self.last_seen.keys().copied().collect()
    }

    /// When `camera`'s last heartbeat arrived, or `None` if it is not
    /// currently registered. Lets the ops plane cross-check the health
    /// engine's staleness verdicts against the server's own liveness view.
    pub fn last_heartbeat_ms(&self, camera: CameraId) -> Option<TimestampMs> {
        self.last_seen.get(&camera).copied()
    }

    /// Processes a heartbeat from `camera` at time `now`.
    ///
    /// An unknown camera is registered by snapping its position onto the
    /// road network; the returned updates carry new MDCS tables for every
    /// camera whose downstream set changed (including the newcomer).
    /// A known camera simply refreshes its liveness and yields no updates.
    ///
    /// # Errors
    ///
    /// Returns an error if registration fails (e.g. empty network).
    pub fn handle_heartbeat(
        &mut self,
        camera: CameraId,
        position: GeoPoint,
        videoing_angle_deg: f64,
        now: TimestampMs,
    ) -> Result<Vec<MdcsUpdate>, TopologyError> {
        if let std::collections::btree_map::Entry::Occupied(mut seen) = self.last_seen.entry(camera)
        {
            seen.insert(now);
            return Ok(Vec::new());
        }
        let site = self.topo.place_by_position(
            camera,
            position,
            self.config.snap_radius_m,
            videoing_angle_deg,
        )?;
        self.last_seen.insert(camera, now);
        Ok(self.recompute(&[site]))
    }

    /// Scans for cameras whose heartbeats stopped and evicts them,
    /// returning the evicted cameras and the MDCS updates for the affected
    /// survivors.
    ///
    /// A camera is declared failed once `miss_threshold` consecutive
    /// heartbeat periods elapse without a beat. The comparison is strict:
    /// a beat that lands exactly at the deadline still counts as alive —
    /// `miss_threshold` periods must have *fully* elapsed, or a sweep
    /// aligned with the heartbeat cadence would evict punctual cameras.
    pub fn check_liveness(&mut self, now: TimestampMs) -> LivenessSweep {
        let deadline = self.config.heartbeat_interval_ms * u64::from(self.config.miss_threshold);
        let evicted: Vec<CameraId> = self
            .last_seen
            .iter()
            .filter(|&(_, &seen)| now.saturating_sub(seen) > deadline)
            .map(|(&c, _)| c)
            .collect();
        if evicted.is_empty() {
            return LivenessSweep::default();
        }
        let sites: Vec<CameraSite> = evicted
            .iter()
            .filter_map(|&cam| self.evict(cam).ok())
            .collect();
        LivenessSweep {
            updates: self.recompute(&sites),
            evicted,
        }
    }

    /// Forcibly removes a camera (administrative decommissioning), returning
    /// updates for affected survivors.
    ///
    /// # Errors
    ///
    /// Returns an error if the camera is not registered.
    pub fn remove_camera(&mut self, camera: CameraId) -> Result<Vec<MdcsUpdate>, TopologyError> {
        let site = self.evict(camera)?;
        Ok(self.recompute(&[site]))
    }

    /// Drops a registered camera with its table and footprint, returning
    /// the site it held.
    fn evict(&mut self, camera: CameraId) -> Result<CameraSite, TopologyError> {
        let cam = self.topo.remove_camera(camera)?;
        self.last_seen.remove(&camera);
        self.tables.remove(&camera);
        Ok(cam.site)
    }

    /// Recomputes, in id order, every table that placing or removing
    /// cameras at `sites` can change — the newcomer's (it has none yet)
    /// and those whose footprint holds a lane whose lookups changed — and
    /// returns those that differ from the last dissemination, stamped with
    /// a fresh version.
    fn recompute(&mut self, sites: &[CameraSite]) -> Vec<MdcsUpdate> {
        let net = self.topo.network();
        let mut changed: Vec<LaneId> = Vec::new();
        for &site in sites {
            match site {
                CameraSite::Intersection(v) => changed.extend_from_slice(net.in_lanes(v)),
                CameraSite::Lane { lane, .. } => {
                    changed.push(lane);
                    changed.extend(self.topo.reverse_lane(lane));
                }
            }
        }
        let mut updates = Vec::new();
        for cam in self.topo.cameras().map(|c| c.id) {
            let last = self.tables.get(&cam);
            if last.is_some_and(|d| !changed.iter().any(|&l| d.touches(l))) {
                continue;
            }
            let fresh = last.is_none();
            let table = self.search.table(&self.topo, cam, self.config.mdcs);
            let d = self.tables.entry(cam).or_insert_with(|| Disseminated {
                table: MdcsTable::default(),
                footprint: Vec::new(),
            });
            d.footprint.clear();
            d.footprint.extend_from_slice(self.search.footprint());
            if fresh || d.table != table {
                self.version += 1;
                d.table = table.clone();
                updates.push(MdcsUpdate {
                    camera: cam,
                    table,
                    version: self.version,
                });
            }
        }
        updates
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use coral_geo::generators;
    use coral_geo::IntersectionId;

    fn corridor_server() -> (TopologyServer, Vec<GeoPoint>) {
        let net = generators::corridor(5, 150.0, 13.4);
        let positions: Vec<GeoPoint> = (0..5)
            .map(|i| net.intersection(IntersectionId(i)).unwrap().position)
            .collect();
        (TopologyServer::new(net, ServerConfig::default()), positions)
    }

    #[test]
    fn join_registers_and_updates_neighbours() {
        let (mut server, pos) = corridor_server();
        let u0 = server
            .handle_heartbeat(CameraId(0), pos[0], 0.0, 0)
            .unwrap();
        assert_eq!(u0.len(), 1);
        assert_eq!(u0[0].camera, CameraId(0));
        let u1 = server
            .handle_heartbeat(CameraId(1), pos[2], 0.0, 100)
            .unwrap();
        // Camera 0's eastward MDCS changes from {} to {1}; camera 1 gets a
        // fresh table.
        let cams: Vec<CameraId> = u1.iter().map(|u| u.camera).collect();
        assert!(cams.contains(&CameraId(0)));
        assert!(cams.contains(&CameraId(1)));
    }

    #[test]
    fn refresh_heartbeat_is_quiet() {
        let (mut server, pos) = corridor_server();
        server
            .handle_heartbeat(CameraId(0), pos[0], 0.0, 0)
            .unwrap();
        let u = server
            .handle_heartbeat(CameraId(0), pos[0], 0.0, 2_000)
            .unwrap();
        assert!(u.is_empty());
    }

    #[test]
    fn failure_detected_after_missed_beats() {
        let (mut server, pos) = corridor_server();
        for (i, p) in pos.iter().enumerate() {
            server
                .handle_heartbeat(CameraId(i as u32), *p, 0.0, 0)
                .unwrap();
        }
        // Everyone beats at t=2000 except camera 2.
        for (i, p) in pos.iter().enumerate() {
            if i != 2 {
                server
                    .handle_heartbeat(CameraId(i as u32), *p, 0.0, 2_000)
                    .unwrap();
            }
        }
        // At t=4000 camera 2's two missed intervals have not *fully*
        // elapsed (its last beat was at t=0, the deadline boundary).
        assert_eq!(server.check_liveness(4_000), LivenessSweep::default());
        // Past the boundary camera 2 is declared dead; neighbours 1 and 3
        // heal.
        let sweep = server.check_liveness(4_001);
        assert_eq!(sweep.evicted, vec![CameraId(2)]);
        let cams: Vec<CameraId> = sweep.updates.iter().map(|u| u.camera).collect();
        assert!(cams.contains(&CameraId(1)), "updates: {cams:?}");
        assert!(cams.contains(&CameraId(3)), "updates: {cams:?}");
        assert!(!server.active_cameras().contains(&CameraId(2)));
        // Camera 1 now skips over the failed camera 2 to camera 3.
        let t1 = server.table(CameraId(1)).unwrap();
        assert!(t1.all_downstream().contains(&CameraId(3)));
    }

    #[test]
    fn punctual_heartbeat_at_deadline_boundary_survives() {
        // Regression: a sweep landing exactly at
        // `miss_threshold × heartbeat_interval` after the last beat must
        // NOT evict the camera. With the default 2 s interval and
        // threshold 2, a camera that beat at t=0 is evictable only
        // strictly after t=4000.
        let (mut server, pos) = corridor_server();
        for (i, p) in pos.iter().enumerate() {
            server
                .handle_heartbeat(CameraId(i as u32), *p, 0.0, 0)
                .unwrap();
        }
        // Sweep exactly at the deadline: everyone survives.
        assert_eq!(server.check_liveness(4_000), LivenessSweep::default());
        assert_eq!(server.active_cameras().len(), pos.len());
        // A camera that beats exactly at its deadline keeps beating on a
        // boundary-aligned cadence and must never be evicted.
        for beat in [4_000u64, 8_000, 12_000] {
            server
                .handle_heartbeat(CameraId(0), pos[0], 0.0, beat)
                .unwrap();
            server.check_liveness(beat + 4_000);
            assert!(
                server.active_cameras().contains(&CameraId(0)),
                "boundary-aligned sweep at {} evicted a punctual camera",
                beat + 4_000
            );
        }
        // One tick past the deadline the eviction fires.
        server.check_liveness(16_001);
        assert!(!server.active_cameras().contains(&CameraId(0)));
    }

    #[test]
    fn healed_topology_matches_fresh_deployment() {
        let (mut server, pos) = corridor_server();
        for (i, p) in pos.iter().enumerate() {
            server
                .handle_heartbeat(CameraId(i as u32), *p, 0.0, 0)
                .unwrap();
        }
        server.remove_camera(CameraId(2)).unwrap();
        // Fresh server with only cameras 0, 1, 3, 4.
        let (mut fresh, _) = corridor_server();
        for (i, p) in pos.iter().enumerate() {
            if i != 2 {
                fresh
                    .handle_heartbeat(CameraId(i as u32), *p, 0.0, 0)
                    .unwrap();
            }
        }
        for cam in [0u32, 1, 3, 4] {
            assert_eq!(
                server.table(CameraId(cam)),
                fresh.table(CameraId(cam)),
                "table mismatch for cam{cam}"
            );
        }
    }

    #[test]
    fn remove_unknown_camera_errors() {
        let (mut server, _) = corridor_server();
        assert!(server.remove_camera(CameraId(9)).is_err());
    }

    #[test]
    fn rejoin_after_failure() {
        let (mut server, pos) = corridor_server();
        server
            .handle_heartbeat(CameraId(0), pos[0], 0.0, 0)
            .unwrap();
        server
            .handle_heartbeat(CameraId(1), pos[1], 0.0, 0)
            .unwrap();
        // Both die (no beats since 0). The sweep reports the evictions
        // even though no survivor's table changed.
        let sweep = server.check_liveness(4_001);
        assert_eq!(sweep.evicted, vec![CameraId(0), CameraId(1)]);
        assert!(sweep.updates.is_empty());
        assert!(server.active_cameras().is_empty());
        let u = server
            .handle_heartbeat(CameraId(0), pos[0], 0.0, 5_000)
            .unwrap();
        assert_eq!(u.len(), 1);
        assert_eq!(server.active_cameras(), vec![CameraId(0)]);
    }

    #[test]
    fn campus_incremental_deployment_shrinks_mean_mdcs() {
        use crate::mdcs::mean_mdcs_size;
        let (net, sites) = generators::campus();
        let mut server = TopologyServer::new(net.clone(), ServerConfig::default());
        let mut sizes = Vec::new();
        for (i, &s) in sites.iter().enumerate() {
            let p = net.intersection(s).unwrap().position;
            server
                .handle_heartbeat(CameraId(i as u32), p, 0.0, i as u64)
                .unwrap();
            sizes.push(mean_mdcs_size(server.topology(), MdcsOptions::default()));
        }
        // Finite and bounded throughout, and denser is (weakly) smaller at
        // the ends: the 37-camera deployment has smaller mean MDCS than the
        // 10-camera one (paper Fig. 12a).
        assert!(sizes.iter().all(|s| s.is_finite() && *s < 10.0));
        assert!(sizes[36] < sizes[9], "36: {} vs 9: {}", sizes[36], sizes[9]);
    }
}
