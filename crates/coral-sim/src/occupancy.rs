//! Spatial occupancy index: which cameras could possibly see each vehicle.
//!
//! The sparse stepper (DESIGN.md §7) needs a cheap per-tick answer to
//! "which cameras might have a non-empty scene?". Projecting every vehicle
//! against every camera is O(cameras × vehicles) — exactly the cost the
//! event-driven core removes. This index inverts the problem: cameras are
//! bucketed once into a planar grid, and each vehicle carries a cached
//! list of the cameras within `range + slack` of an *anchor* position.
//! The list is only recomputed when the vehicle drifts more than `slack`
//! meters from its anchor, so steady traffic refreshes a vehicle's camera
//! list every ~`slack / speed` seconds rather than every frame.
//!
//! Correctness contract: for every vehicle state handed to
//! [`OccupancyIndex::assign`], the per-camera candidate lists contain a
//! **superset** of the vehicles inside that camera's observation range.
//! (By the triangle inequality, a camera within `range` of the vehicle is
//! within `range + slack` of its anchor; `EPS_M` absorbs the microscopic
//! non-metricity of the equirectangular [`GeoPoint::planar_m`] at the
//! campus scales the deployments use.) Supersets are safe: the scene
//! builder re-applies the exact projection gate, so extra candidates are
//! culled identically to the dense path.

use crate::traffic::{VehicleId, VehicleState};
use coral_geo::GeoPoint;
use std::collections::HashMap;

/// Default anchor slack in meters: how far a vehicle may drift before its
/// nearby-camera list is recomputed. Larger values refresh less often but
/// widen every camera's accept radius (more false-positive candidates).
///
/// # Slack vs. the traffic speed envelope
///
/// The superset contract does **not** depend on vehicle speed: the drift
/// test in [`OccupancyIndex::assign`] compares the *current* position
/// against the anchor on every call, so even a vehicle that jumps many
/// slack-lengths in one tick is refreshed the instant it is next
/// assigned — there is no stale window to outrun. What speed does affect
/// is amortisation: a vehicle moving at `v` m/s invalidates its anchor
/// every `slack / (v · tick)` ticks, and at `v · tick ≥ slack` the cache
/// degenerates to a refresh per tick. Deployments should therefore derive
/// the slack from the workload's speed envelope via [`slack_for`] rather
/// than hard-coding this default when traffic is faster than the ~11 m/s
/// city profile it was tuned for.
pub const DEFAULT_SLACK_M: f64 = 10.0;

/// Minimum number of ticks a cached camera list should survive for a
/// vehicle moving at the configured maximum speed (the amortisation
/// target [`slack_for`] enforces).
pub const MIN_REUSE_TICKS: f64 = 8.0;

/// Derives an anchor slack from the traffic speed envelope: large enough
/// that a vehicle at `max_speed_mps` keeps its cached camera list for at
/// least [`MIN_REUSE_TICKS`] frames of `frame_period_s`, and never below
/// [`DEFAULT_SLACK_M`].
///
/// Use [`TrafficConfig::max_speed_mps`] as the speed envelope — every
/// stepping model (first-order or IDM) caps instantaneous speed at
/// the jittered cruise draw that bound covers.
///
/// [`TrafficConfig::max_speed_mps`]: crate::traffic::TrafficConfig::max_speed_mps
pub fn slack_for(max_speed_mps: f64, frame_period_s: f64) -> f64 {
    DEFAULT_SLACK_M.max(max_speed_mps.max(0.0) * frame_period_s.max(0.0) * MIN_REUSE_TICKS)
}

/// Safety margin absorbing the pair-dependent mean-latitude scaling of the
/// equirectangular `planar_m` (it is not an exact metric; at campus scale
/// the deviation is far below a meter).
const EPS_M: f64 = 1.0;

/// Planar grid cell edge, meters. Purely a prefilter granularity knob —
/// membership is always decided by the exact range test.
const CELL_M: f64 = 64.0;

/// How many ticks a vehicle's cache entry may go unseen before the
/// periodic sweep drops it (vehicles that completed their route).
const CACHE_TTL_TICKS: u64 = 512;

#[derive(Debug, Clone)]
struct CamSite {
    position: GeoPoint,
    /// Exact accept radius: `range + slack + EPS_M`.
    accept_m: f64,
}

#[derive(Debug, Clone)]
struct VehicleCache {
    anchor: GeoPoint,
    /// Camera slots within `accept` of the anchor.
    cams: Vec<u32>,
    last_seen: u64,
}

/// The vehicle → nearby-camera occupancy index.
///
/// Camera *slots* are assigned in insertion order ([`OccupancyIndex::
/// add_camera`]); the runtime registers cameras in `CameraId` order so
/// slot `i` is the `i`-th driver. The index itself is id-agnostic.
#[derive(Debug)]
pub struct OccupancyIndex {
    cameras: Vec<CamSite>,
    /// Planar origin all grid coordinates are measured from (the first
    /// registered camera).
    origin: Option<GeoPoint>,
    slack_m: f64,
    /// Largest accept radius over all cameras — the grid scan reach.
    reach_m: f64,
    /// Cell → camera slots whose position falls in the cell.
    grid: HashMap<(i64, i64), Vec<u32>>,
    cache: HashMap<VehicleId, VehicleCache>,
    /// Per-slot candidate lists for the current tick: indices into the
    /// `states` slice last passed to [`OccupancyIndex::assign`], ascending.
    candidates: Vec<Vec<u32>>,
    /// Slots with non-empty candidate lists this tick, ascending (also
    /// the lazy-clearing list).
    touched: Vec<u32>,
    tick: u64,
    refreshes: u64,
    reuses: u64,
}

impl OccupancyIndex {
    /// Creates an empty index with the given anchor slack.
    pub fn new(slack_m: f64) -> Self {
        Self {
            cameras: Vec::new(),
            origin: None,
            slack_m: slack_m.max(0.0),
            reach_m: 0.0,
            grid: HashMap::new(),
            cache: HashMap::new(),
            candidates: Vec::new(),
            touched: Vec::new(),
            tick: 0,
            refreshes: 0,
            reuses: 0,
        }
    }

    /// Registers a camera, returning its slot. Slots are dense and ordered
    /// by insertion.
    pub fn add_camera(&mut self, position: GeoPoint, range_m: f64) -> usize {
        let origin = *self.origin.get_or_insert(position);
        let slot = self.cameras.len() as u32;
        let accept_m = range_m + self.slack_m + EPS_M;
        self.reach_m = self.reach_m.max(accept_m);
        let (x, y) = planar_xy(origin, position);
        self.grid.entry(cell_of(x, y)).or_default().push(slot);
        self.cameras.push(CamSite { position, accept_m });
        self.candidates.push(Vec::new());
        slot as usize
    }

    /// Number of registered cameras.
    pub fn len(&self) -> usize {
        self.cameras.len()
    }

    /// Whether no cameras are registered.
    pub fn is_empty(&self) -> bool {
        self.cameras.is_empty()
    }

    /// Assigns the tick's vehicle states to nearby cameras. `states` must
    /// be ascending by [`VehicleId`] (as [`states_into`] produces): each
    /// camera's candidate list is then ascending by state index, which is
    /// what keeps sparse scene construction order-identical to dense.
    ///
    /// [`states_into`]: crate::traffic::TrafficModel::states_into
    pub fn assign(&mut self, states: &[VehicleState]) {
        self.tick += 1;
        for &slot in &self.touched {
            self.candidates[slot as usize].clear();
        }
        self.touched.clear();
        for (idx, s) in states.iter().enumerate() {
            let fresh = match self.cache.get_mut(&s.id) {
                Some(c) if c.anchor.planar_m(s.position) <= self.slack_m => {
                    c.last_seen = self.tick;
                    self.reuses += 1;
                    false
                }
                _ => true,
            };
            if fresh {
                let cams = self.nearby(s.position);
                self.refreshes += 1;
                self.cache.insert(
                    s.id,
                    VehicleCache {
                        anchor: s.position,
                        cams,
                        last_seen: self.tick,
                    },
                );
            }
            let cache = &self.cache[&s.id];
            for &slot in &cache.cams {
                let list = &mut self.candidates[slot as usize];
                if list.is_empty() {
                    self.touched.push(slot);
                }
                list.push(idx as u32);
            }
        }
        // Slot order lets the runtime walk touched cameras in `CameraId`
        // order without scanning every slot.
        self.touched.sort_unstable();
        // Sweep entries for vehicles that left the network. Map iteration
        // order never reaches any output, so the HashMap is safe here.
        if self.tick.is_multiple_of(CACHE_TTL_TICKS) {
            let (tick, ttl) = (self.tick, CACHE_TTL_TICKS);
            self.cache.retain(|_, c| tick - c.last_seen < ttl);
        }
    }

    /// The current tick's candidate list for camera `slot`: indices into
    /// the `states` slice passed to the last [`OccupancyIndex::assign`],
    /// ascending.
    pub fn candidates(&self, slot: usize) -> &[u32] {
        &self.candidates[slot]
    }

    /// The slots whose candidate list is non-empty this tick, ascending:
    /// the only cameras a vehicle can be near.
    pub fn touched(&self) -> &[u32] {
        &self.touched
    }

    /// Camera-list recomputations performed (vehicle drifted past the
    /// anchor slack, or was first seen).
    pub fn refreshes(&self) -> u64 {
        self.refreshes
    }

    /// Camera-list cache hits (vehicle still within slack of its anchor).
    pub fn reuses(&self) -> u64 {
        self.reuses
    }

    /// Exact-membership scan: every camera whose accept radius covers `p`.
    /// The grid bounds the scan; the accept test is exact.
    fn nearby(&self, p: GeoPoint) -> Vec<u32> {
        let Some(origin) = self.origin else {
            return Vec::new();
        };
        let (px, py) = planar_xy(origin, p);
        let (cx, cy) = cell_of(px, py);
        // One extra ring over the ceiling covers projection distortion.
        let r = (self.reach_m / CELL_M).ceil() as i64 + 1;
        let mut out = Vec::new();
        for dy in -r..=r {
            for dx in -r..=r {
                let Some(slots) = self.grid.get(&(cx + dx, cy + dy)) else {
                    continue;
                };
                for &slot in slots {
                    let cam = &self.cameras[slot as usize];
                    if cam.position.planar_m(p) <= cam.accept_m {
                        out.push(slot);
                    }
                }
            }
        }
        out.sort_unstable();
        out
    }
}

/// Planar (east, north) meters of `p` relative to `origin`, via the same
/// range/bearing decomposition the camera projection uses.
fn planar_xy(origin: GeoPoint, p: GeoPoint) -> (f64, f64) {
    let d = origin.planar_m(p);
    let b = origin.bearing_deg(p).to_radians();
    (d * b.sin(), d * b.cos())
}

fn cell_of(x: f64, y: f64) -> (i64, i64) {
    ((x / CELL_M).floor() as i64, (y / CELL_M).floor() as i64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::{SimDuration, SimTime};
    use crate::traffic::{TrafficConfig, TrafficModel};
    use coral_geo::{generators, route, IntersectionId};

    fn grid_world() -> (TrafficModel, Vec<GeoPoint>) {
        let net = generators::grid(4, 4, 120.0, 12.0);
        let cams: Vec<GeoPoint> = (0..16)
            .map(|i| net.intersection(IntersectionId(i)).unwrap().position)
            .collect();
        let tm = TrafficModel::new(net, TrafficConfig::default(), 9);
        (tm, cams)
    }

    /// The load-bearing invariant: candidates are a superset of in-range
    /// vehicles, at every step of a moving workload.
    #[test]
    fn candidates_cover_every_in_range_vehicle() {
        let (mut tm, cams) = grid_world();
        let range = 35.0;
        let mut index = OccupancyIndex::new(DEFAULT_SLACK_M);
        for &p in &cams {
            index.add_camera(p, range);
        }
        let net = tm.network().clone();
        for i in 0..6 {
            let r = route::shortest_path(&net, IntersectionId(i), IntersectionId(15 - i)).unwrap();
            tm.spawn(SimTime::ZERO, r, None);
        }
        let mut states = Vec::new();
        let mut now = SimTime::ZERO;
        for _ in 0..300 {
            tm.step(now, SimDuration::from_millis(200));
            now += SimDuration::from_millis(200);
            tm.states_into(&mut states);
            index.assign(&states);
            for (slot, &cam) in cams.iter().enumerate() {
                let listed = index.candidates(slot);
                for (idx, s) in states.iter().enumerate() {
                    if cam.planar_m(s.position) <= range {
                        assert!(
                            listed.contains(&(idx as u32)),
                            "vehicle {} in range of camera {slot} but not listed",
                            s.id
                        );
                    }
                }
                // Candidate lists are ascending state indices.
                assert!(listed.windows(2).all(|w| w[0] < w[1]));
                // A slot is touched exactly when its list is non-empty.
                assert_eq!(
                    index.touched().binary_search(&(slot as u32)).is_ok(),
                    !listed.is_empty()
                );
            }
            assert!(index.touched().windows(2).all(|w| w[0] < w[1]));
        }
        assert!(index.reuses() > index.refreshes(), "anchor cache must win");
    }

    #[test]
    fn empty_index_assigns_nothing() {
        let (mut tm, _) = grid_world();
        let mut index = OccupancyIndex::new(DEFAULT_SLACK_M);
        let net = tm.network().clone();
        let r = route::shortest_path(&net, IntersectionId(0), IntersectionId(15)).unwrap();
        tm.spawn(SimTime::ZERO, r, None);
        tm.step(SimTime::ZERO, SimDuration::from_secs(1));
        index.assign(&tm.states());
        assert!(index.is_empty());
    }

    #[test]
    fn stationary_vehicle_reuses_cached_cameras() {
        let (tm, cams) = grid_world();
        let mut index = OccupancyIndex::new(DEFAULT_SLACK_M);
        for &p in &cams {
            index.add_camera(p, 35.0);
        }
        let state = VehicleState {
            id: VehicleId(1),
            class: coral_vision::ObjectClass::Car,
            position: cams[5],
            bearing_deg: 0.0,
            speed_mps: 0.0,
            appearance_seed: 1,
        };
        let _ = &tm;
        for _ in 0..10 {
            index.assign(std::slice::from_ref(&state));
        }
        assert_eq!(index.refreshes(), 1);
        assert_eq!(index.reuses(), 9);
        assert_eq!(index.candidates(5), &[0]);
    }

    /// A vehicle faster than the slack-per-tick budget must still satisfy
    /// the superset contract on every tick: the drift test runs against
    /// the current position, so speed can thrash the cache but never
    /// stale it.
    #[test]
    fn fast_vehicle_never_escapes_the_candidate_superset() {
        let (mut tm, cams) = grid_world();
        let range = 35.0;
        // Deliberately undersized slack: at 30 m/s and 500 ms ticks the
        // vehicle moves 15 m per tick, past the 10 m anchor slack.
        let mut index = OccupancyIndex::new(DEFAULT_SLACK_M);
        for &p in &cams {
            index.add_camera(p, range);
        }
        let net = tm.network().clone();
        let fast = TrafficConfig {
            mean_speed_mps: 30.0,
            speed_jitter_mps: 0.0,
            ..TrafficConfig::default()
        };
        let mut tm_fast = TrafficModel::new(net.clone(), fast, 11);
        let r = route::shortest_path(&net, IntersectionId(0), IntersectionId(15)).unwrap();
        tm_fast.spawn(SimTime::ZERO, r, None);
        let _ = &mut tm;
        let mut states = Vec::new();
        let mut now = SimTime::ZERO;
        while tm_fast.active_count() > 0 {
            tm_fast.step(now, SimDuration::from_millis(500));
            now += SimDuration::from_millis(500);
            tm_fast.states_into(&mut states);
            index.assign(&states);
            for (slot, &cam) in cams.iter().enumerate() {
                for (idx, s) in states.iter().enumerate() {
                    if cam.planar_m(s.position) <= range {
                        assert!(
                            index.candidates(slot).contains(&(idx as u32)),
                            "fast vehicle escaped candidates of camera {slot}"
                        );
                    }
                }
            }
        }
        // The speed-derived slack keeps the cache amortised where the
        // default would thrash: 30 m/s * 0.5 s * 8 ticks = 120 m.
        assert!(slack_for(30.0, 0.5) >= 120.0);
        assert!(slack_for(1.0, 0.1) == DEFAULT_SLACK_M);
    }
}
