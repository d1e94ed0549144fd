//! Ground-truth traffic model: vehicles moving along routes through the
//! road network, gated by traffic lights.
//!
//! The traffic model *is* the experiment's ground truth (replacing the
//! paper's hand-labelled frames): every vehicle's identity, class,
//! appearance seed, route and timing are known exactly, so the evaluation
//! harness can score the system's reconstructed trajectories precisely.
//!
//! # Car-following models
//!
//! Two stepping models are available through
//! [`TrafficConfig::model`]:
//!
//! * [`CarFollowModel::FirstOrder`] (the default) — the legacy kinematic
//!   stepper: vehicles move at their cruise speed and may not end a step
//!   closer than `min_headway_m` behind where their leader started it.
//!   This path is bit-identical to the pre-scenario-engine simulator.
//! * [`CarFollowModel::Idm`] — the Intelligent Driver Model:
//!   `a = a_max·[1 − (v/v0)^δ − (s*/s)²]` with desired gap
//!   `s* = s0 + max(0, v·T + v·Δv/(2·√(a_max·b)))`, integrated with
//!   semi-implicit Euler (`v += a·h` then `x += v·h`).
//!
//! Under IDM, multi-lane edges
//! ([`TrafficConfig::lanes_per_edge`] > 1) support MOBIL lane changes
//! ([`TrafficConfig::mobil`]): a vehicle moves to an adjacent sub-lane
//! when the acceleration gain exceeds
//! `Δa_thr + p·(a_follower_before − a_follower_after)` and the new
//! follower never has to brake harder than `b_safe`. All decisions use
//! start-of-step state and are applied simultaneously, so the pass is
//! deterministic and independent of iteration order.
//!
//! Red lights act as a virtual stopped leader just before the stop line,
//! so IDM vehicles decelerate smoothly instead of teleporting to
//! the line.
//!
//! # Determinism contract
//!
//! Every code path draws from the model's seeded [`StdRng`] in a fixed
//! order, and no regime consumes RNG unless its config knob is enabled —
//! so a default-config run is byte-identical to the legacy simulator,
//! and any configured run is byte-identical across repeats, step sizes
//! (for arrival sequences), and thread counts.

use crate::lights::TrafficLight;
use crate::time::{SimDuration, SimTime};
use coral_geo::{route, GeoPoint, IntersectionId, LaneId, RoadNetwork, Route};
use coral_vision::ObjectClass;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet, HashMap};

/// Ground-truth vehicle identifier.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize, Default,
)]
pub struct VehicleId(pub u64);

impl std::fmt::Display for VehicleId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "v{}", self.0)
    }
}

/// Lateral spacing between sub-lanes when rendering multi-lane edges.
pub const LANE_WIDTH_M: f64 = 3.2;

/// Vehicles this close to the end of their lane hold their sub-lane (no
/// MOBIL change right before an intersection).
const MOBIL_FREEZE_M: f64 = 20.0;

/// Where the virtual stopped leader sits for a red light, meters before
/// the lane end.
const STOP_LINE_M: f64 = 0.5;

/// Base of the shared appearance-seed space for lookalike classes.
const LOOKALIKE_SEED_BASE: u64 = 0x100A_11CE;

/// The instantaneous state of a moving vehicle.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VehicleState {
    /// Vehicle identity.
    pub id: VehicleId,
    /// Vehicle class.
    pub class: ObjectClass,
    /// Current geographic position.
    pub position: GeoPoint,
    /// Ground-truth motion bearing, degrees clockwise from north.
    pub bearing_deg: f64,
    /// Current speed in m/s (zero while waiting at a light).
    pub speed_mps: f64,
    /// Appearance seed. Equal to `id.0` by default; vehicles in the same
    /// lookalike class ([`TrafficConfig::appearance_classes`]) share one,
    /// giving them identical rendered appearance and color histograms.
    pub appearance_seed: u64,
}

/// Events emitted by a traffic step.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum TrafficEvent {
    /// A vehicle entered the network.
    Spawned(VehicleId),
    /// A vehicle finished its route and left the network.
    Completed(VehicleId),
}

#[derive(Debug, Clone)]
struct MovingVehicle {
    id: VehicleId,
    class: ObjectClass,
    route: Route,
    lane_idx: usize,
    sublane: u32,
    progress_m: f64,
    cruise_mps: f64,
    current_mps: f64,
    appearance_seed: u64,
    journey: Vec<(SimTime, IntersectionId)>,
    spawned_at: SimTime,
}

/// Intelligent Driver Model parameters.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct IdmParams {
    /// Desired time headway `T`, seconds.
    pub time_headway_s: f64,
    /// Maximum acceleration `a`, m/s².
    pub accel_mps2: f64,
    /// Comfortable deceleration `b`, m/s².
    pub decel_mps2: f64,
    /// Standstill minimum gap `s0`, meters.
    pub min_gap_m: f64,
    /// Free-acceleration exponent `δ`.
    pub delta: f64,
}

impl Default for IdmParams {
    fn default() -> Self {
        Self {
            time_headway_s: 1.5,
            accel_mps2: 1.8,
            decel_mps2: 2.2,
            min_gap_m: 2.0,
            delta: 4.0,
        }
    }
}

/// MOBIL lane-change parameters.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MobilParams {
    /// Politeness factor `p` weighting the new follower's loss.
    pub politeness: f64,
    /// Acceleration-gain threshold `Δa_thr`, m/s².
    pub accel_threshold_mps2: f64,
    /// Safety bound `b_safe`: the new follower may never be forced below
    /// `−b_safe`, m/s².
    pub safe_decel_mps2: f64,
}

impl Default for MobilParams {
    fn default() -> Self {
        Self {
            politeness: 0.3,
            accel_threshold_mps2: 0.2,
            safe_decel_mps2: 3.0,
        }
    }
}

/// Car-following model selection.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize, Default)]
pub enum CarFollowModel {
    /// Legacy kinematic stepping (the default; bit-identical to the
    /// pre-scenario-engine simulator).
    #[default]
    FirstOrder,
    /// Intelligent Driver Model.
    Idm(IdmParams),
}

/// Traffic model configuration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TrafficConfig {
    /// Mean cruise speed, m/s (speed limits cap it per lane).
    pub mean_speed_mps: f64,
    /// Uniform jitter applied to each vehicle's cruise speed, m/s.
    pub speed_jitter_mps: f64,
    /// Minimum bumper-to-bumper headway kept behind the vehicle ahead on
    /// the same lane, meters (0 disables following; only used by
    /// [`CarFollowModel::FirstOrder`]).
    pub min_headway_m: f64,
    /// Car-following model.
    #[serde(default)]
    pub model: CarFollowModel,
    /// Sub-lanes per directed edge (≥1). Values above 1 spread vehicles
    /// laterally and, under IDM with [`Self::mobil`] set, enable lane
    /// changing.
    #[serde(default)]
    pub lanes_per_edge: u32,
    /// MOBIL lane-change parameters (`None` disables lane changes).
    #[serde(default)]
    pub mobil: Option<MobilParams>,
    /// Number of shared appearance classes (0 = every vehicle unique).
    /// When positive, each spawn draws a class and all vehicles of that
    /// class share one appearance seed — the lookalike regime stressing
    /// re-identification.
    #[serde(default)]
    pub appearance_classes: u32,
    /// Maximum completed-vehicle journeys retained (oldest are dropped
    /// first). Bounds [`TrafficModel::completed`] memory on long runs.
    #[serde(default)]
    pub completed_cap: usize,
}

impl Default for TrafficConfig {
    fn default() -> Self {
        Self {
            mean_speed_mps: 11.0,
            speed_jitter_mps: 2.5,
            min_headway_m: 7.0,
            model: CarFollowModel::FirstOrder,
            lanes_per_edge: 1,
            mobil: None,
            appearance_classes: 0,
            completed_cap: 65_536,
        }
    }
}

impl TrafficConfig {
    /// Upper bound on any vehicle's speed under this config, m/s.
    ///
    /// Cruise speeds are drawn from
    /// `mean ± jitter` (floored at 2 m/s) and every stepping model caps
    /// the instantaneous speed at `min(cruise, lane limit)` — so no
    /// vehicle ever exceeds this bound. The occupancy index derives its
    /// candidate slack from it.
    pub fn max_speed_mps(&self) -> f64 {
        (self.mean_speed_mps + self.speed_jitter_mps.abs()).max(2.0)
    }
}

/// IDM acceleration. `leader` is `(bumper gap m, leader speed m/s)`.
fn idm_accel(p: &IdmParams, v: f64, v0: f64, leader: Option<(f64, f64)>) -> f64 {
    let free = 1.0 - (v / v0.max(0.1)).powf(p.delta);
    let inter = match leader {
        Some((gap, vl)) => {
            let s = gap.max(0.01);
            let dv = v - vl;
            let dynamic =
                v * p.time_headway_s + v * dv / (2.0 * (p.accel_mps2 * p.decel_mps2).sqrt());
            let s_star = p.min_gap_m + dynamic.max(0.0);
            (s_star / s).powi(2)
        }
        None => 0.0,
    };
    p.accel_mps2 * (free - inter)
}

/// Speed after `h` seconds under IDM (semi-implicit Euler).
/// `FirstOrder` never reaches this (it has its own stepper); return `v0`
/// for totality.
fn micro_next_speed(
    model: &CarFollowModel,
    v: f64,
    v0: f64,
    leader: Option<(f64, f64)>,
    h: f64,
) -> f64 {
    match model {
        CarFollowModel::FirstOrder => v0,
        CarFollowModel::Idm(p) => (v + idm_accel(p, v, v0, leader) * h).clamp(0.0, v0),
    }
}

/// Pseudo-acceleration over a canonical 0.5 s horizon — the quantity
/// MOBIL compares across sub-lanes.
fn micro_accel(model: &CarFollowModel, v: f64, v0: f64, leader: Option<(f64, f64)>) -> f64 {
    (micro_next_speed(model, v, v0, leader, 0.5) - v) / 0.5
}

enum Crossing {
    Continue,
    Finished,
}

/// Advances `v` past the intersection it just reached: re-routes around
/// closed lanes (or retires the vehicle when boxed in), otherwise enters
/// the next lane of its route.
fn cross_into_next_lane(
    net: &RoadNetwork,
    closed: &BTreeSet<LaneId>,
    reroutes: &mut u64,
    v: &mut MovingVehicle,
) -> Crossing {
    if v.lane_idx + 1 == v.route.len() {
        return Crossing::Finished;
    }
    let next = v.route.lanes()[v.lane_idx + 1];
    if closed.contains(&next) {
        let here = net
            .lane(v.route.lanes()[v.lane_idx])
            .expect("validated route")
            .to;
        let dest = v.route.destination(net);
        let tail = if here == dest {
            None
        } else {
            route::shortest_path_avoiding(net, here, dest, closed).ok()
        };
        match tail {
            Some(t) => {
                let mut lanes: Vec<LaneId> = v.route.lanes()[..=v.lane_idx].to_vec();
                lanes.extend_from_slice(t.lanes());
                match Route::new(net, lanes) {
                    Ok(r) => {
                        v.route = r;
                        *reroutes += 1;
                    }
                    // The concatenation is contiguous by construction;
                    // retire defensively if validation ever disagrees.
                    Err(_) => return Crossing::Finished,
                }
            }
            // Boxed in: the vehicle leaves the network here.
            None => return Crossing::Finished,
        }
    }
    v.lane_idx += 1;
    v.progress_m = 0.0;
    Crossing::Continue
}

/// The traffic model.
///
/// # Examples
///
/// ```
/// use coral_geo::{generators, route, IntersectionId};
/// use coral_sim::{SimDuration, SimTime, TrafficConfig, TrafficModel};
///
/// let net = generators::grid(3, 3, 100.0, 12.0);
/// let mut traffic = TrafficModel::new(net.clone(), TrafficConfig::default(), 7);
/// let r = route::shortest_path(&net, IntersectionId(0), IntersectionId(8))?;
/// let v = traffic.spawn(SimTime::ZERO, r, None);
/// traffic.step(SimTime::ZERO, SimDuration::from_secs(1));
/// assert!(traffic.state_of(v).is_some());
/// # Ok::<(), coral_geo::route::RouteError>(())
/// ```
#[derive(Debug)]
pub struct TrafficModel {
    net: RoadNetwork,
    config: TrafficConfig,
    rng: StdRng,
    vehicles: BTreeMap<VehicleId, MovingVehicle>,
    pending: Vec<MovingVehicle>,
    lights: BTreeMap<IntersectionId, TrafficLight>,
    next_id: u64,
    current_time: SimTime,
    completed: Vec<(VehicleId, Vec<(SimTime, IntersectionId)>)>,
    completed_total: u64,
    closed: BTreeSet<LaneId>,
    /// Scheduled closures/reopenings, sorted ascending by time.
    incidents: Vec<(SimTime, LaneId, bool)>,
    reroutes: u64,
    lane_changes: u64,
}

impl TrafficModel {
    /// Creates a traffic model over `net`.
    pub fn new(net: RoadNetwork, mut config: TrafficConfig, seed: u64) -> Self {
        // Guard against zero-initialised configs (e.g. deserialised with
        // missing fields): at least one sub-lane, and a non-zero journal cap.
        config.lanes_per_edge = config.lanes_per_edge.max(1);
        config.completed_cap = config.completed_cap.max(1);
        Self {
            net,
            config,
            rng: StdRng::seed_from_u64(seed),
            vehicles: BTreeMap::new(),
            pending: Vec::new(),
            lights: BTreeMap::new(),
            next_id: 0,
            current_time: SimTime::ZERO,
            completed: Vec::new(),
            completed_total: 0,
            closed: BTreeSet::new(),
            incidents: Vec::new(),
            reroutes: 0,
            lane_changes: 0,
        }
    }

    /// The underlying road network.
    pub fn network(&self) -> &RoadNetwork {
        &self.net
    }

    /// The active configuration.
    pub fn config(&self) -> &TrafficConfig {
        &self.config
    }

    /// Installs a traffic light at its intersection (replacing any previous
    /// light there).
    pub fn add_light(&mut self, light: TrafficLight) {
        self.lights.insert(light.intersection, light);
    }

    /// Spawns a vehicle on `route` entering the network at time `at`.
    /// Class defaults to a realistic mix (85% car / 8% truck / 7% bus) when
    /// `None`.
    ///
    /// Spawns in the past or present become active immediately; spawns in
    /// the future stay pending until [`TrafficModel::step`] reaches them.
    ///
    /// RNG draw order per spawn: class roll (only when `class` is
    /// `None`), cruise jitter, then — only when
    /// [`TrafficConfig::appearance_classes`] is positive — the lookalike
    /// class. Gated draws keep default-config runs byte-identical to the
    /// legacy model.
    pub fn spawn(&mut self, at: SimTime, route: Route, class: Option<ObjectClass>) -> VehicleId {
        let id = VehicleId(self.next_id);
        self.next_id += 1;
        let class = class.unwrap_or_else(|| {
            let roll: f64 = self.rng.gen();
            if roll < 0.85 {
                ObjectClass::Car
            } else if roll < 0.93 {
                ObjectClass::Truck
            } else {
                ObjectClass::Bus
            }
        });
        let jitter = self
            .rng
            .gen_range(-self.config.speed_jitter_mps..=self.config.speed_jitter_mps);
        let cruise = (self.config.mean_speed_mps + jitter).max(2.0);
        let appearance_seed = if self.config.appearance_classes > 0 {
            let k = self.rng.gen_range(0..self.config.appearance_classes);
            LOOKALIKE_SEED_BASE ^ u64::from(k).wrapping_mul(0x9e37_79b9_7f4a_7c15)
        } else {
            id.0
        };
        let lanes_per_edge = self.config.lanes_per_edge.max(1);
        let sublane = if lanes_per_edge > 1 {
            (id.0 % u64::from(lanes_per_edge)) as u32
        } else {
            0
        };
        let origin = route.origin(&self.net);
        let vehicle = MovingVehicle {
            id,
            class,
            route,
            lane_idx: 0,
            sublane,
            progress_m: 0.0,
            cruise_mps: cruise,
            current_mps: cruise,
            appearance_seed,
            journey: vec![(at, origin)],
            spawned_at: at,
        };
        if at <= self.current_time {
            self.vehicles.insert(id, vehicle);
        } else {
            self.pending.push(vehicle);
        }
        id
    }

    /// Spawns a vehicle on a random route starting at `origin`.
    ///
    /// Returns `None` if no route of the requested length exists.
    pub fn spawn_random(
        &mut self,
        now: SimTime,
        origin: IntersectionId,
        min_lanes: usize,
    ) -> Option<VehicleId> {
        let route = coral_geo::route::random_route(&mut self.rng, &self.net, origin, min_lanes)?;
        Some(self.spawn(now, route, None))
    }

    /// Number of vehicles currently on the road.
    pub fn active_count(&self) -> usize {
        self.vehicles.len()
    }

    /// Total vehicles ever spawned (active + pending + completed).
    pub fn spawned_total(&self) -> u64 {
        self.next_id
    }

    /// The instantaneous state of vehicle `id`, if it is still on the road.
    pub fn state_of(&self, id: VehicleId) -> Option<VehicleState> {
        let v = self.vehicles.get(&id)?;
        Some(self.snapshot(v))
    }

    /// The sub-lane vehicle `id` currently occupies (0 on single-lane
    /// edges), if it is still on the road.
    pub fn sublane_of(&self, id: VehicleId) -> Option<u32> {
        self.vehicles.get(&id).map(|v| v.sublane)
    }

    /// Iterates over the states of all active vehicles.
    pub fn states(&self) -> Vec<VehicleState> {
        let mut out = Vec::new();
        self.states_into(&mut out);
        out
    }

    /// Writes the states of all active vehicles into `out` (cleared
    /// first), in ascending [`VehicleId`] order — the same order
    /// [`TrafficModel::states`] produces. Per-tick callers reuse one
    /// buffer across all cameras instead of snapshotting the whole fleet
    /// once per camera.
    pub fn states_into(&self, out: &mut Vec<VehicleState>) {
        out.clear();
        out.extend(self.vehicles.values().map(|v| self.snapshot(v)));
    }

    /// The recorded intersection-crossing journey of a vehicle (completed
    /// or active). Each entry is `(arrival time, intersection)`.
    ///
    /// Completed journeys older than [`TrafficConfig::completed_cap`]
    /// retirements (or drained via
    /// [`TrafficModel::drain_completed`]) return `None`.
    pub fn journey_of(&self, id: VehicleId) -> Option<&[(SimTime, IntersectionId)]> {
        if let Some(v) = self.vehicles.get(&id) {
            return Some(&v.journey);
        }
        if let Some(v) = self.pending.iter().find(|v| v.id == id) {
            return Some(&v.journey);
        }
        self.completed
            .iter()
            .find(|(c, _)| *c == id)
            .map(|(_, j)| j.as_slice())
    }

    /// Currently retained completed vehicles with their journeys (at most
    /// [`TrafficConfig::completed_cap`]; oldest dropped first).
    pub fn completed(&self) -> &[(VehicleId, Vec<(SimTime, IntersectionId)>)] {
        &self.completed
    }

    /// Total vehicles that ever completed, including journeys no longer
    /// retained.
    pub fn completed_total(&self) -> u64 {
        self.completed_total
    }

    /// Takes ownership of the retained completed journeys, leaving the
    /// retention buffer empty (the memory-bounding drain API for long
    /// runs).
    pub fn drain_completed(&mut self) -> Vec<(VehicleId, Vec<(SimTime, IntersectionId)>)> {
        std::mem::take(&mut self.completed)
    }

    /// Closes `lane` immediately: no vehicle may enter it until reopened.
    /// Vehicles already on the lane finish it; vehicles whose route uses
    /// it re-route at the preceding intersection (or retire if boxed in).
    pub fn close_lane(&mut self, lane: LaneId) {
        self.closed.insert(lane);
    }

    /// Reopens a closed lane immediately.
    pub fn reopen_lane(&mut self, lane: LaneId) {
        self.closed.remove(&lane);
    }

    /// Schedules an incident: `lane` closes at `at` and, when `duration`
    /// is given, reopens at `at + duration`.
    pub fn schedule_closure(&mut self, at: SimTime, lane: LaneId, duration: Option<SimDuration>) {
        let insert = |list: &mut Vec<(SimTime, LaneId, bool)>, item: (SimTime, LaneId, bool)| {
            let pos = list.partition_point(|(t, _, _)| *t <= item.0);
            list.insert(pos, item);
        };
        insert(&mut self.incidents, (at, lane, true));
        if let Some(d) = duration {
            insert(&mut self.incidents, (at + d, lane, false));
        }
    }

    /// Currently closed lanes.
    pub fn closed_lanes(&self) -> &BTreeSet<LaneId> {
        &self.closed
    }

    /// Number of incident-driven re-routes performed so far.
    pub fn reroutes(&self) -> u64 {
        self.reroutes
    }

    /// Number of MOBIL lane changes performed so far.
    pub fn lane_changes(&self) -> u64 {
        self.lane_changes
    }

    /// Advances all vehicles by `dt` starting at `now`, returning events.
    /// Pending future spawns whose entry time falls within the step become
    /// active (from the start of their first lane) and advance only the
    /// remainder of the step past their spawn time — so trajectories do
    /// not depend on the step size used to reach them.
    pub fn step(&mut self, now: SimTime, dt: SimDuration) -> Vec<TrafficEvent> {
        let mut events = Vec::new();
        let mut done = Vec::new();
        let end = now + dt;
        self.current_time = end;
        if !self.incidents.is_empty() {
            let n = self.incidents.partition_point(|(t, _, _)| *t <= end);
            for (_, lane, close) in self.incidents.drain(..n) {
                if close {
                    self.closed.insert(lane);
                } else {
                    self.closed.remove(&lane);
                }
            }
        }
        let mut still_pending = Vec::new();
        for v in self.pending.drain(..) {
            if v.spawned_at <= end {
                events.push(TrafficEvent::Spawned(v.id));
                self.vehicles.insert(v.id, v);
            } else {
                still_pending.push(v);
            }
        }
        self.pending = still_pending;
        match self.config.model {
            CarFollowModel::FirstOrder => self.step_first_order(now, dt, &mut done),
            CarFollowModel::Idm(_) => self.step_microscopic(now, dt, &mut done),
        }
        for id in done {
            if let Some(v) = self.vehicles.remove(&id) {
                self.completed.push((id, v.journey));
                self.completed_total += 1;
                events.push(TrafficEvent::Completed(id));
            }
        }
        if self.completed.len() > self.config.completed_cap {
            let excess = self.completed.len() - self.config.completed_cap;
            self.completed.drain(..excess);
        }
        events
    }

    /// Start-of-step occupancy: per (lane, sub-lane), ascending
    /// `(progress, speed)` — shared by both steppers and the MOBIL pass.
    fn build_occupancy(&self) -> HashMap<(LaneId, u32), Vec<(f64, f64)>> {
        let mut occupancy: HashMap<(LaneId, u32), Vec<(f64, f64)>> = HashMap::new();
        for v in self.vehicles.values() {
            occupancy
                .entry((v.route.lanes()[v.lane_idx], v.sublane))
                .or_default()
                .push((v.progress_m, v.current_mps));
        }
        for list in occupancy.values_mut() {
            list.sort_by(|a, b| a.0.total_cmp(&b.0));
        }
        occupancy
    }

    /// The legacy kinematic stepper (bit-identical to the
    /// pre-scenario-engine simulator under default config).
    fn step_first_order(&mut self, now: SimTime, dt: SimDuration, done: &mut Vec<VehicleId>) {
        let end = now + dt;
        // Start-of-step lane occupancy for car-following: each vehicle may
        // not end the step closer than `min_headway_m` behind where its
        // leader *started* (first-order following, good enough at frame
        // granularity).
        let headway = self.config.min_headway_m.max(0.0);
        let occupancy = if headway > 0.0 {
            self.build_occupancy()
        } else {
            HashMap::new()
        };
        let leader_cap = |lane: LaneId, sublane: u32, progress: f64| -> Option<f64> {
            let list = occupancy.get(&(lane, sublane))?;
            let ahead = list
                .iter()
                .map(|&(p, _)| p)
                .find(|&p| p > progress + 1e-9)?;
            Some((ahead - headway).max(progress))
        };
        for v in self.vehicles.values_mut() {
            let start = if v.spawned_at > now {
                v.spawned_at
            } else {
                now
            };
            let mut remaining = end.since(start).as_secs_f64();
            while remaining > 1e-9 {
                let lane = *self
                    .net
                    .lane(v.route.lanes()[v.lane_idx])
                    .expect("validated route");
                let speed = v.cruise_mps.min(lane.speed_limit_mps);
                let to_end = lane.length_m - v.progress_m;
                let travel = speed * remaining;
                // Car-following: stop short of the leader's start position.
                if headway > 0.0 {
                    if let Some(cap) = leader_cap(lane.id, v.sublane, v.progress_m) {
                        let max_travel = cap - v.progress_m;
                        if travel >= max_travel && max_travel < to_end {
                            v.progress_m = cap;
                            v.current_mps = if max_travel <= 1e-9 { 0.0 } else { speed };
                            break;
                        }
                    }
                }
                if travel < to_end {
                    v.progress_m += travel;
                    v.current_mps = speed;
                    remaining = 0.0;
                } else {
                    // Reached the end of the lane.
                    let consumed = to_end / speed;
                    remaining -= consumed;
                    let heading = self
                        .net
                        .lane_heading(lane.id)
                        .expect("validated route lane");
                    let arrive_time = end - SimDuration::from_secs_f64(remaining);
                    // Gate on a traffic light at the lane's destination.
                    if let Some(light) = self.lights.get(&lane.to) {
                        if !light.green_for(heading, arrive_time) {
                            // Hold at the stop line until the step ends; the
                            // next step re-evaluates the light.
                            v.progress_m = lane.length_m - 0.01;
                            v.current_mps = 0.0;
                            break;
                        }
                    }
                    v.journey.push((arrive_time, lane.to));
                    match cross_into_next_lane(&self.net, &self.closed, &mut self.reroutes, v) {
                        Crossing::Finished => {
                            done.push(v.id);
                            break;
                        }
                        Crossing::Continue => v.current_mps = speed,
                    }
                }
            }
        }
    }

    /// The microscopic stepper: MOBIL lane changes on start-of-step
    /// state, then IDM speed updates with semi-implicit Euler
    /// integration. Red lights brake vehicles as a virtual stopped
    /// leader at the stop line.
    fn step_microscopic(&mut self, now: SimTime, dt: SimDuration, done: &mut Vec<VehicleId>) {
        let end = now + dt;
        let model = self.config.model;
        let lanes_per_edge = self.config.lanes_per_edge.max(1);
        let occupancy = self.build_occupancy();
        let leader_in = |lid: LaneId, sub: u32, progress: f64| -> Option<(f64, f64)> {
            let list = occupancy.get(&(lid, sub))?;
            list.iter()
                .copied()
                .find(|&(p, _)| p > progress + 1e-9)
                .map(|(p, vl)| (p - progress, vl))
        };
        // MOBIL pass: decide all changes on start-of-step state, apply
        // simultaneously (deterministic, order-independent).
        if lanes_per_edge > 1 {
            if let Some(mb) = self.config.mobil {
                let mut changes: Vec<(VehicleId, u32)> = Vec::new();
                for v in self.vehicles.values() {
                    let lid = v.route.lanes()[v.lane_idx];
                    let lane = self.net.lane(lid).expect("validated route");
                    if lane.length_m - v.progress_m < MOBIL_FREEZE_M {
                        continue;
                    }
                    let v0 = v.cruise_mps.min(lane.speed_limit_mps);
                    let a_cur = micro_accel(
                        &model,
                        v.current_mps,
                        v0,
                        leader_in(lid, v.sublane, v.progress_m),
                    );
                    let mut best: Option<(f64, u32)> = None;
                    let candidates = [v.sublane.checked_sub(1), v.sublane.checked_add(1)];
                    for cand in candidates.into_iter().flatten() {
                        if cand >= lanes_per_edge {
                            continue;
                        }
                        let a_new = micro_accel(
                            &model,
                            v.current_mps,
                            v0,
                            leader_in(lid, cand, v.progress_m),
                        );
                        let mut follower_cost = 0.0;
                        let follower = occupancy.get(&(lid, cand)).and_then(|list| {
                            list.iter()
                                .rev()
                                .copied()
                                .find(|&(p, _)| p < v.progress_m - 1e-9)
                        });
                        if let Some((pf, vf)) = follower {
                            let vf0 = lane.speed_limit_mps;
                            let a_f_new = micro_accel(
                                &model,
                                vf,
                                vf0,
                                Some((v.progress_m - pf, v.current_mps)),
                            );
                            if a_f_new < -mb.safe_decel_mps2 {
                                continue;
                            }
                            let a_f_old = micro_accel(&model, vf, vf0, leader_in(lid, cand, pf));
                            follower_cost = a_f_old - a_f_new;
                        }
                        let margin =
                            a_new - a_cur - mb.politeness * follower_cost - mb.accel_threshold_mps2;
                        if margin > 0.0 && best.is_none_or(|(m, _)| margin > m) {
                            best = Some((margin, cand));
                        }
                    }
                    if let Some((_, sub)) = best {
                        changes.push((v.id, sub));
                    }
                }
                for (id, sub) in changes {
                    if let Some(v) = self.vehicles.get_mut(&id) {
                        v.sublane = sub;
                        self.lane_changes += 1;
                    }
                }
            }
        }
        // Integration pass.
        for v in self.vehicles.values_mut() {
            let start = if v.spawned_at > now {
                v.spawned_at
            } else {
                now
            };
            let mut remaining = end.since(start).as_secs_f64();
            while remaining > 1e-9 {
                let lid = v.route.lanes()[v.lane_idx];
                let lane = *self.net.lane(lid).expect("validated route");
                let v0 = v.cruise_mps.min(lane.speed_limit_mps);
                let leader = leader_in(lid, v.sublane, v.progress_m);
                let heading = self.net.lane_heading(lid).expect("validated route lane");
                let red_ahead = self
                    .lights
                    .get(&lane.to)
                    .is_some_and(|l| !l.green_for(heading, end));
                let mut speed = micro_next_speed(&model, v.current_mps, v0, leader, remaining);
                if red_ahead {
                    let stop_gap = (lane.length_m - STOP_LINE_M) - v.progress_m;
                    let held = micro_next_speed(
                        &model,
                        v.current_mps,
                        v0,
                        Some((stop_gap, 0.0)),
                        remaining,
                    );
                    speed = speed.min(held);
                }
                let to_end = lane.length_m - v.progress_m;
                let travel = speed * remaining;
                if travel < to_end {
                    v.progress_m += travel;
                    v.current_mps = speed;
                    break;
                }
                let consumed = if speed > 1e-9 {
                    to_end / speed
                } else {
                    remaining
                };
                remaining = (remaining - consumed).max(0.0);
                let arrive_time = end - SimDuration::from_secs_f64(remaining);
                if let Some(light) = self.lights.get(&lane.to) {
                    if !light.green_for(heading, arrive_time) {
                        v.progress_m = lane.length_m - 0.01;
                        v.current_mps = 0.0;
                        break;
                    }
                }
                v.journey.push((arrive_time, lane.to));
                match cross_into_next_lane(&self.net, &self.closed, &mut self.reroutes, v) {
                    Crossing::Finished => {
                        done.push(v.id);
                        break;
                    }
                    Crossing::Continue => v.current_mps = speed,
                }
            }
        }
    }

    fn snapshot(&self, v: &MovingVehicle) -> VehicleState {
        let lane = self
            .net
            .lane(v.route.lanes()[v.lane_idx])
            .expect("validated route");
        let t = (v.progress_m / lane.length_m).clamp(0.0, 1.0);
        let mut position = self
            .net
            .position_on_lane(lane.id, t)
            .expect("validated route lane");
        let from = self.net.intersection(lane.from).expect("valid").position;
        let to = self.net.intersection(lane.to).expect("valid").position;
        let bearing_deg = from.bearing_deg(to);
        if self.config.lanes_per_edge > 1 {
            // Spread sub-lanes laterally, centered on the edge.
            let off = (f64::from(v.sublane) - f64::from(self.config.lanes_per_edge - 1) / 2.0)
                * LANE_WIDTH_M;
            if off != 0.0 {
                let b = bearing_deg.to_radians();
                position = position.offset_m(-b.sin() * off, b.cos() * off);
            }
        }
        VehicleState {
            id: v.id,
            class: v.class,
            position,
            bearing_deg,
            speed_mps: v.current_mps,
            appearance_seed: v.appearance_seed,
        }
    }
}

/// Time-varying arrival-rate profile: a rush-hour surge window at the
/// start of each cycle.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SurgeProfile {
    /// Full cycle length, seconds.
    pub period_s: f64,
    /// Fraction of each cycle (from its start) running at the peak rate,
    /// in (0, 1].
    pub surge_fraction: f64,
    /// Arrival rate inside the surge window, vehicles per second (must
    /// be ≥ the base rate).
    pub peak_rate_per_s: f64,
}

/// Spawns vehicles with exponential inter-arrival times at random entry
/// intersections — the open-workload generator used by the system
/// experiments.
///
/// With a [`SurgeProfile`] attached ([`PoissonArrivals::with_surge`]),
/// the process becomes a time-varying Poisson process realised by
/// thinning: candidates are generated at the peak rate and accepted
/// with probability `rate(t)/peak` — so the spawned
/// `(time, entry, route)` sequence depends only on the seed, never on
/// the step size used to drive [`PoissonArrivals::advance`].
#[derive(Debug)]
pub struct PoissonArrivals {
    /// Mean base arrival rate, vehicles per second.
    rate_per_s: f64,
    /// Entry intersections.
    entries: Vec<IntersectionId>,
    /// Route length in lanes.
    min_lanes: usize,
    rng: StdRng,
    next_at: SimTime,
    seed: u64,
    surge: Option<SurgeProfile>,
}

impl PoissonArrivals {
    /// Creates a generator.
    ///
    /// # Panics
    ///
    /// Panics if `rate_per_s` is not positive or `entries` is empty.
    pub fn new(rate_per_s: f64, entries: Vec<IntersectionId>, min_lanes: usize, seed: u64) -> Self {
        assert!(rate_per_s > 0.0, "arrival rate must be positive");
        assert!(!entries.is_empty(), "need at least one entry intersection");
        let mut gen = Self {
            rate_per_s,
            entries,
            min_lanes,
            rng: StdRng::seed_from_u64(seed),
            next_at: SimTime::ZERO,
            seed,
            surge: None,
        };
        gen.next_at = SimTime::ZERO + gen.sample_gap();
        gen
    }

    /// Attaches a surge profile, restarting the arrival process from
    /// `t = 0` (thinning candidates are generated at the peak rate, so
    /// the sequence is independent of when the profile was attached).
    ///
    /// # Panics
    ///
    /// Panics if the profile is malformed or its peak rate is below the
    /// base rate.
    pub fn with_surge(mut self, surge: SurgeProfile) -> Self {
        assert!(surge.period_s > 0.0, "surge period must be positive");
        assert!(
            surge.surge_fraction > 0.0 && surge.surge_fraction <= 1.0,
            "surge fraction must be in (0, 1]"
        );
        assert!(
            surge.peak_rate_per_s >= self.rate_per_s,
            "peak rate must be at least the base rate"
        );
        self.surge = Some(surge);
        self.rng = StdRng::seed_from_u64(self.seed);
        self.next_at = SimTime::ZERO;
        self.next_at = SimTime::ZERO + self.sample_gap();
        self
    }

    /// The candidate-generation rate (peak rate under a surge profile).
    fn max_rate(&self) -> f64 {
        self.surge.map_or(self.rate_per_s, |s| s.peak_rate_per_s)
    }

    /// The instantaneous arrival rate at `t`.
    fn rate_at(&self, t: SimTime) -> f64 {
        match self.surge {
            None => self.rate_per_s,
            Some(s) => {
                let phase = t.as_secs_f64() % s.period_s;
                if phase < s.surge_fraction * s.period_s {
                    s.peak_rate_per_s
                } else {
                    self.rate_per_s
                }
            }
        }
    }

    fn sample_gap(&mut self) -> SimDuration {
        let u: f64 = self.rng.gen_range(f64::EPSILON..1.0);
        SimDuration::from_secs_f64(-u.ln() / self.max_rate())
    }

    /// The time of the next arrival candidate.
    pub fn next_at(&self) -> SimTime {
        self.next_at
    }

    /// Spawns all arrivals due up to `now` into `traffic`; returns the
    /// spawned ids.
    ///
    /// The candidate times and every RNG draw depend only on the seed
    /// and the candidate sequence — never on `now` or the cadence of
    /// calls — so any step size yields the identical spawn sequence.
    pub fn advance(&mut self, now: SimTime, traffic: &mut TrafficModel) -> Vec<VehicleId> {
        let mut out = Vec::new();
        while self.next_at <= now {
            let at = self.next_at;
            let accept = match self.surge {
                None => true,
                Some(s) => {
                    let u: f64 = self.rng.gen();
                    u < self.rate_at(at) / s.peak_rate_per_s
                }
            };
            if accept {
                let entry = self.entries[self.rng.gen_range(0..self.entries.len())];
                if let Some(id) = traffic.spawn_random(at, entry, self.min_lanes) {
                    out.push(id);
                }
            }
            self.next_at = at + self.sample_gap();
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use coral_geo::{generators, route};

    fn straight_net() -> RoadNetwork {
        generators::corridor(4, 100.0, 10.0)
    }

    fn straight_route(net: &RoadNetwork) -> Route {
        route::shortest_path(net, IntersectionId(0), IntersectionId(3)).unwrap()
    }

    #[test]
    fn vehicle_advances_at_cruise_speed() {
        let net = straight_net();
        let r = straight_route(&net);
        let mut tm = TrafficModel::new(
            net,
            TrafficConfig {
                mean_speed_mps: 10.0,
                speed_jitter_mps: 0.0,
                ..TrafficConfig::default()
            },
            1,
        );
        let v = tm.spawn(SimTime::ZERO, r, Some(ObjectClass::Car));
        let p0 = tm.state_of(v).unwrap().position;
        tm.step(SimTime::ZERO, SimDuration::from_secs(5));
        let p1 = tm.state_of(v).unwrap().position;
        let d = p0.planar_m(p1);
        assert!((d - 50.0).abs() < 1.0, "moved {d} m");
    }

    #[test]
    fn vehicle_completes_route_and_records_journey() {
        let net = straight_net();
        let r = straight_route(&net);
        let mut tm = TrafficModel::new(
            net,
            TrafficConfig {
                mean_speed_mps: 10.0,
                speed_jitter_mps: 0.0,
                ..TrafficConfig::default()
            },
            1,
        );
        let v = tm.spawn(SimTime::ZERO, r, Some(ObjectClass::Car));
        let mut events = Vec::new();
        let mut now = SimTime::ZERO;
        for _ in 0..40 {
            events.extend(tm.step(now, SimDuration::from_secs(1)));
            now += SimDuration::from_secs(1);
        }
        assert!(events.contains(&TrafficEvent::Completed(v)));
        assert_eq!(tm.active_count(), 0);
        let journey = tm.journey_of(v).unwrap();
        let visited: Vec<IntersectionId> = journey.iter().map(|&(_, i)| i).collect();
        assert_eq!(
            visited,
            vec![
                IntersectionId(0),
                IntersectionId(1),
                IntersectionId(2),
                IntersectionId(3)
            ]
        );
        // 300 m at 10 m/s: the last crossing is at ~30 s.
        let (t_last, _) = journey.last().unwrap();
        assert!((t_last.as_secs_f64() - 30.0).abs() < 1.5);
    }

    #[test]
    fn red_light_holds_vehicle() {
        let net = straight_net();
        let r = straight_route(&net);
        let mut tm = TrafficModel::new(
            net,
            TrafficConfig {
                mean_speed_mps: 10.0,
                speed_jitter_mps: 0.0,
                ..TrafficConfig::default()
            },
            1,
        );
        // Corridor runs east–west; a light at intersection 1 that is
        // north-south green for the first 30 s blocks the vehicle (arriving
        // at ~10 s heading east).
        tm.add_light(TrafficLight::new(
            IntersectionId(1),
            SimDuration::from_secs(60),
            SimDuration::ZERO,
        ));
        let v = tm.spawn(SimTime::ZERO, r, Some(ObjectClass::Car));
        let mut now = SimTime::ZERO;
        for _ in 0..20 {
            tm.step(now, SimDuration::from_secs(1));
            now += SimDuration::from_secs(1);
        }
        // At t=20 the vehicle is still waiting before intersection 1.
        let s = tm.state_of(v).unwrap();
        assert_eq!(s.speed_mps, 0.0, "vehicle should be stopped at the light");
        let j = tm.journey_of(v).unwrap();
        assert_eq!(j.len(), 1, "must not have crossed intersection 1 yet");
        // After the light turns green at t=30 it proceeds.
        for _ in 0..20 {
            tm.step(now, SimDuration::from_secs(1));
            now += SimDuration::from_secs(1);
        }
        let j = tm.journey_of(v).unwrap();
        assert!(j.len() >= 2, "vehicle should have crossed after green");
        let (t_cross, _) = j[1];
        assert!(
            t_cross.as_secs_f64() >= 30.0,
            "crossed at {} before green",
            t_cross.as_secs_f64()
        );
    }

    #[test]
    fn platooning_behind_light() {
        // Three vehicles spawned 2 s apart all cross shortly after the
        // green, forming a platoon (the "stepped" arrivals of Fig. 10a).
        let net = straight_net();
        let mut tm = TrafficModel::new(
            net.clone(),
            TrafficConfig {
                mean_speed_mps: 10.0,
                speed_jitter_mps: 0.0,
                ..TrafficConfig::default()
            },
            1,
        );
        tm.add_light(TrafficLight::new(
            IntersectionId(1),
            SimDuration::from_secs(60),
            SimDuration::ZERO,
        ));
        let mut ids = Vec::new();
        let mut now = SimTime::ZERO;
        for k in 0..3u64 {
            ids.push((
                k,
                tm.spawn(
                    SimTime::from_secs(2 * k),
                    straight_route(&net),
                    Some(ObjectClass::Car),
                ),
            ));
        }
        for _ in 0..45 {
            tm.step(now, SimDuration::from_secs(1));
            now += SimDuration::from_secs(1);
        }
        let crossings: Vec<f64> = ids
            .iter()
            .map(|&(_, v)| tm.journey_of(v).unwrap()[1].0.as_secs_f64())
            .collect();
        for c in &crossings {
            assert!(
                (30.0..34.0).contains(c),
                "crossing at {c} not right after green"
            );
        }
    }

    #[test]
    fn spawn_class_mix_is_deterministic_and_mostly_cars() {
        let net = generators::grid(4, 4, 100.0, 12.0);
        let mut tm = TrafficModel::new(net, TrafficConfig::default(), 42);
        let mut cars = 0;
        for _ in 0..100 {
            let v = tm
                .spawn_random(SimTime::ZERO, IntersectionId(5), 3)
                .unwrap();
            if tm.state_of(v).unwrap().class == ObjectClass::Car {
                cars += 1;
            }
        }
        assert!((70..=95).contains(&cars), "cars = {cars}");
    }

    #[test]
    fn poisson_arrivals_spawn_over_time() {
        let net = generators::grid(4, 4, 100.0, 12.0);
        let mut tm = TrafficModel::new(net, TrafficConfig::default(), 1);
        let mut gen = PoissonArrivals::new(0.5, vec![IntersectionId(0), IntersectionId(15)], 4, 9);
        let mut spawned = 0;
        let mut now = SimTime::ZERO;
        for _ in 0..120 {
            now += SimDuration::from_secs(1);
            spawned += gen.advance(now, &mut tm).len();
        }
        // Expectation 60; allow generous bounds.
        assert!((30..=95).contains(&spawned), "spawned = {spawned}");
    }

    #[test]
    fn bearing_matches_lane_direction() {
        let net = straight_net();
        let r = straight_route(&net);
        let mut tm = TrafficModel::new(net, TrafficConfig::default(), 1);
        let v = tm.spawn(SimTime::ZERO, r, None);
        let s = tm.state_of(v).unwrap();
        // Corridor runs due east.
        assert!(
            (s.bearing_deg - 90.0).abs() < 1.0,
            "bearing {}",
            s.bearing_deg
        );
    }

    #[test]
    fn car_following_queues_behind_a_red_light() {
        // The leader waits at a red light; the follower must queue at
        // least one headway behind it instead of stacking on top (the
        // pre-car-following behaviour).
        let net = generators::corridor(2, 300.0, 30.0);
        let mut tm = TrafficModel::new(
            net.clone(),
            TrafficConfig {
                mean_speed_mps: 10.0,
                speed_jitter_mps: 0.0,
                min_headway_m: 7.0,
                ..TrafficConfig::default()
            },
            1,
        );
        // Corridor runs east; NS-green (EW-red) phase for the first 60 s.
        tm.add_light(TrafficLight::new(
            IntersectionId(1),
            SimDuration::from_secs(120),
            SimDuration::ZERO,
        ));
        let route_of = || route::shortest_path(&net, IntersectionId(0), IntersectionId(1)).unwrap();
        let leader = tm.spawn(SimTime::ZERO, route_of(), Some(ObjectClass::Car));
        let follower = tm.spawn(SimTime::from_secs(3), route_of(), Some(ObjectClass::Car));
        let origin = net.intersection(IntersectionId(0)).unwrap().position;
        let mut now = SimTime::ZERO;
        for _ in 0..100 {
            tm.step(now, SimDuration::from_millis(500));
            now += SimDuration::from_millis(500);
        }
        // Both still on the lane (red until 60 s), leader at the stop line.
        let dl = origin.planar_m(tm.state_of(leader).unwrap().position);
        let df = origin.planar_m(tm.state_of(follower).unwrap().position);
        assert!(dl > 295.0, "leader should be at the stop line, at {dl:.1}");
        assert!(
            df <= dl - 6.0,
            "follower at {df:.1} did not queue behind leader at {dl:.1}"
        );
        assert!(
            df >= dl - 10.0,
            "follower at {df:.1} queued too far behind leader at {dl:.1}"
        );
        assert_eq!(tm.state_of(follower).unwrap().speed_mps, 0.0);
    }

    #[test]
    fn headway_zero_disables_following() {
        let net = generators::corridor(2, 200.0, 30.0);
        let mut tm = TrafficModel::new(
            net.clone(),
            TrafficConfig {
                mean_speed_mps: 10.0,
                speed_jitter_mps: 0.0,
                min_headway_m: 0.0,
                ..TrafficConfig::default()
            },
            1,
        );
        let route_of = || route::shortest_path(&net, IntersectionId(0), IntersectionId(1)).unwrap();
        let a = tm.spawn(SimTime::ZERO, route_of(), Some(ObjectClass::Car));
        let b = tm.spawn(SimTime::ZERO, route_of(), Some(ObjectClass::Car));
        tm.step(SimTime::ZERO, SimDuration::from_secs(5));
        // Same speed, same spawn: they overlap exactly (no following).
        let pa = tm.state_of(a).unwrap().position;
        let pb = tm.state_of(b).unwrap().position;
        assert!(pa.planar_m(pb) < 0.5);
    }

    #[test]
    fn journey_of_unknown_vehicle_is_none() {
        let net = straight_net();
        let tm = TrafficModel::new(net, TrafficConfig::default(), 1);
        assert!(tm.journey_of(VehicleId(99)).is_none());
        assert!(tm.state_of(VehicleId(99)).is_none());
    }

    // --- PR 8: bounded completed log (satellite 1) ---

    #[test]
    fn completed_log_is_bounded_and_drainable() {
        let net = generators::corridor(2, 50.0, 20.0);
        let mut tm = TrafficModel::new(
            net.clone(),
            TrafficConfig {
                mean_speed_mps: 10.0,
                speed_jitter_mps: 0.0,
                completed_cap: 8,
                ..TrafficConfig::default()
            },
            1,
        );
        let route_of = || route::shortest_path(&net, IntersectionId(0), IntersectionId(1)).unwrap();
        let mut now = SimTime::ZERO;
        for wave in 0..5u64 {
            for _ in 0..4 {
                tm.spawn(now, route_of(), Some(ObjectClass::Car));
            }
            for _ in 0..10 {
                tm.step(now, SimDuration::from_secs(1));
                now += SimDuration::from_secs(1);
            }
            // Memory regression pin: retention never exceeds the cap no
            // matter how many vehicles complete.
            assert!(
                tm.completed().len() <= 8,
                "wave {wave}: retained {} > cap",
                tm.completed().len()
            );
        }
        assert_eq!(tm.completed_total(), 20);
        assert_eq!(tm.completed().len(), 8);
        // Oldest journeys were dropped; the newest are retained.
        assert!(tm.journey_of(VehicleId(0)).is_none());
        assert!(tm.journey_of(VehicleId(19)).is_some());
        let drained = tm.drain_completed();
        assert_eq!(drained.len(), 8);
        assert!(tm.completed().is_empty());
        assert_eq!(tm.completed_total(), 20, "total survives the drain");
    }

    // --- PR 8: step-size independence (satellite 2) ---

    fn journeys_at_dt(
        dt: SimDuration,
        run_secs: u64,
    ) -> Vec<(VehicleId, Vec<(SimTime, IntersectionId)>)> {
        let net = straight_net();
        let mut tm = TrafficModel::new(
            net.clone(),
            TrafficConfig {
                mean_speed_mps: 10.0,
                speed_jitter_mps: 0.0,
                min_headway_m: 0.0,
                ..TrafficConfig::default()
            },
            1,
        );
        // Spawn at deliberately off-boundary times for every dt tested.
        for &(s, ms) in &[(0u64, 50u64), (1, 230), (2, 770), (4, 515)] {
            tm.spawn(
                SimTime::from_secs(s) + SimDuration::from_millis(ms),
                straight_route(&net),
                Some(ObjectClass::Car),
            );
        }
        let mut now = SimTime::ZERO;
        let end = SimTime::from_secs(run_secs);
        while now < end {
            tm.step(now, dt);
            now += dt;
        }
        let mut out = tm.drain_completed();
        out.sort_by_key(|(id, _)| *id);
        out
    }

    #[test]
    fn stepping_is_step_size_independent() {
        // A vehicle activated mid-step must advance only the remainder of
        // the step past its spawn time — so dt=100ms and dt=33ms runs
        // produce the same trajectories (the satellite-2 regression: the
        // old stepper granted newly activated spawns the full dt).
        let a = journeys_at_dt(SimDuration::from_millis(100), 60);
        let b = journeys_at_dt(SimDuration::from_millis(33), 60);
        assert_eq!(a.len(), 4);
        assert_eq!(a.len(), b.len());
        for ((ida, ja), (idb, jb)) in a.iter().zip(&b) {
            assert_eq!(ida, idb);
            assert_eq!(ja.len(), jb.len(), "journey shape differs for {ida}");
            for ((ta, ia), (tb, ib)) in ja.iter().zip(jb) {
                assert_eq!(ia, ib);
                let err = (ta.as_secs_f64() - tb.as_secs_f64()).abs();
                assert!(
                    err < 5e-3,
                    "{ida} crossing {ia:?}: {} vs {} (err {err})",
                    ta.as_secs_f64(),
                    tb.as_secs_f64()
                );
            }
        }
    }

    fn poisson_sequence(dt_ms: u64) -> Vec<(SimTime, IntersectionId)> {
        let net = generators::grid(4, 4, 100.0, 12.0);
        let mut tm = TrafficModel::new(net, TrafficConfig::default(), 5);
        let mut gen = PoissonArrivals::new(
            0.4,
            vec![IntersectionId(0), IntersectionId(3), IntersectionId(12)],
            4,
            11,
        )
        .with_surge(SurgeProfile {
            period_s: 30.0,
            surge_fraction: 0.3,
            peak_rate_per_s: 1.5,
        });
        let mut ids = Vec::new();
        let mut now = SimTime::ZERO;
        while now < SimTime::from_secs(90) {
            now += SimDuration::from_millis(dt_ms);
            ids.extend(gen.advance(now, &mut tm));
        }
        ids.iter()
            .map(|&v| {
                let j = tm.journey_of(v).expect("spawned vehicle has a journey");
                j[0]
            })
            .collect()
    }

    #[test]
    fn poisson_spawn_sequence_is_step_size_independent() {
        // The (time, entry) spawn sequence — and therefore every route
        // draw — must be identical whether the generator is polled every
        // 100 ms or every 33 ms.
        let a = poisson_sequence(100);
        let b = poisson_sequence(33);
        assert!(!a.is_empty());
        assert_eq!(a, b);
    }

    // --- PR 8: surge arrivals ---

    #[test]
    fn surge_concentrates_arrivals_in_window() {
        let net = generators::grid(4, 4, 100.0, 12.0);
        let mut tm = TrafficModel::new(net, TrafficConfig::default(), 3);
        let mut gen =
            PoissonArrivals::new(0.05, vec![IntersectionId(0)], 4, 21).with_surge(SurgeProfile {
                period_s: 60.0,
                surge_fraction: 0.25,
                peak_rate_per_s: 1.0,
            });
        let mut in_window = 0usize;
        let mut outside = 0usize;
        let mut now = SimTime::ZERO;
        while now < SimTime::from_secs(600) {
            now += SimDuration::from_millis(500);
            for v in gen.advance(now, &mut tm) {
                let t = tm.journey_of(v).unwrap()[0].0.as_secs_f64();
                if t % 60.0 < 15.0 {
                    in_window += 1;
                } else {
                    outside += 1;
                }
            }
        }
        // Expect ~150 in-window vs ~2 outside arrivals over 10 cycles.
        assert!(in_window > 5 * outside.max(1), "{in_window} vs {outside}");
        assert!(in_window > 50, "surge too weak: {in_window}");
    }

    // --- PR 8: lookalike appearance classes ---

    #[test]
    fn lookalike_classes_share_appearance_seeds() {
        let net = generators::grid(4, 4, 100.0, 12.0);
        let mut tm = TrafficModel::new(
            net,
            TrafficConfig {
                appearance_classes: 3,
                ..TrafficConfig::default()
            },
            42,
        );
        let mut seeds = std::collections::BTreeSet::new();
        for _ in 0..50 {
            let v = tm
                .spawn_random(SimTime::ZERO, IntersectionId(5), 3)
                .unwrap();
            seeds.insert(tm.state_of(v).unwrap().appearance_seed);
        }
        assert!(
            seeds.len() <= 3,
            "{} distinct seeds for 3 classes",
            seeds.len()
        );
        assert!(seeds.len() >= 2, "degenerate class draw");
    }

    #[test]
    fn default_appearance_seed_is_the_vehicle_id() {
        let net = straight_net();
        let r = straight_route(&net);
        let mut tm = TrafficModel::new(net, TrafficConfig::default(), 1);
        let v = tm.spawn(SimTime::ZERO, r, None);
        assert_eq!(tm.state_of(v).unwrap().appearance_seed, v.0);
    }

    // --- IDM / MOBIL ---

    fn idm_config() -> TrafficConfig {
        TrafficConfig {
            mean_speed_mps: 10.0,
            speed_jitter_mps: 0.0,
            model: CarFollowModel::Idm(IdmParams::default()),
            ..TrafficConfig::default()
        }
    }

    #[test]
    fn idm_vehicle_cruises_and_completes() {
        let net = straight_net();
        let r = straight_route(&net);
        let mut tm = TrafficModel::new(net, idm_config(), 1);
        let v = tm.spawn(SimTime::ZERO, r, Some(ObjectClass::Car));
        let mut now = SimTime::ZERO;
        let mut completed = false;
        for _ in 0..500 {
            let evs = tm.step(now, SimDuration::from_millis(100));
            now += SimDuration::from_millis(100);
            if evs.contains(&TrafficEvent::Completed(v)) {
                completed = true;
                break;
            }
        }
        assert!(completed, "IDM vehicle never finished the corridor");
    }

    #[test]
    fn idm_follower_keeps_a_safe_gap() {
        // A fast follower behind a slow leader must settle behind it at
        // roughly the desired IDM gap instead of overlapping.
        let net = generators::corridor(2, 500.0, 30.0);
        let cfg = TrafficConfig {
            mean_speed_mps: 6.0,
            speed_jitter_mps: 0.0,
            model: CarFollowModel::Idm(IdmParams::default()),
            ..TrafficConfig::default()
        };
        let mut tm = TrafficModel::new(net.clone(), cfg, 1);
        let route_of = || route::shortest_path(&net, IntersectionId(0), IntersectionId(1)).unwrap();
        let leader = tm.spawn(SimTime::ZERO, route_of(), Some(ObjectClass::Car));
        let mut now = SimTime::ZERO;
        // Give the leader a head start, then spawn a faster follower.
        for _ in 0..50 {
            tm.step(now, SimDuration::from_millis(100));
            now += SimDuration::from_millis(100);
        }
        let follower = tm.spawn(now, route_of(), Some(ObjectClass::Car));
        tm.vehicles.get_mut(&follower).unwrap().cruise_mps = 14.0;
        for _ in 0..200 {
            tm.step(now, SimDuration::from_millis(100));
            now += SimDuration::from_millis(100);
        }
        let pl = tm.vehicles[&leader].progress_m;
        let pf = tm.vehicles[&follower].progress_m;
        let gap = pl - pf;
        assert!(gap > 2.0, "follower tailgating: gap {gap:.2} m");
        assert!(gap < 40.0, "follower never caught up: gap {gap:.2} m");
        let vf = tm.vehicles[&follower].current_mps;
        assert!(
            (vf - 6.0).abs() < 1.5,
            "follower should match leader speed, got {vf:.2}"
        );
    }

    #[test]
    fn idm_brakes_smoothly_for_red_light() {
        let net = generators::corridor(2, 300.0, 30.0);
        let cfg = TrafficConfig {
            mean_speed_mps: 12.0,
            speed_jitter_mps: 0.0,
            model: CarFollowModel::Idm(IdmParams::default()),
            ..TrafficConfig::default()
        };
        let mut tm = TrafficModel::new(net.clone(), cfg, 1);
        tm.add_light(TrafficLight::new(
            IntersectionId(1),
            SimDuration::from_secs(120),
            SimDuration::ZERO,
        ));
        let r = route::shortest_path(&net, IntersectionId(0), IntersectionId(1)).unwrap();
        let v = tm.spawn(SimTime::ZERO, r, Some(ObjectClass::Car));
        let mut now = SimTime::ZERO;
        let mut saw_braking = false;
        for _ in 0..400 {
            tm.step(now, SimDuration::from_millis(100));
            now += SimDuration::from_millis(100);
            if let Some(s) = tm.state_of(v) {
                if s.speed_mps > 0.5 && s.speed_mps < 8.0 {
                    saw_braking = true;
                }
            }
        }
        // Red until 60 s: vehicle must be stopped near the stop line,
        // having decelerated through intermediate speeds (not teleported).
        let s = tm.state_of(v).unwrap();
        assert!(s.speed_mps < 0.2, "still moving at {:.2}", s.speed_mps);
        let p = tm.vehicles[&v].progress_m;
        assert!(p > 280.0, "stopped too far from the line: {p:.1}");
        assert!(p < 300.0, "crossed the stop line: {p:.1}");
        assert!(saw_braking, "no smooth deceleration observed");
        assert_eq!(tm.journey_of(v).unwrap().len(), 1, "crossed on red");
    }

    #[test]
    fn mobil_overtakes_a_slow_leader() {
        // Two sub-lanes: a fast vehicle spawns behind a slow one in the
        // same sub-lane and must change lanes to pass.
        let net = generators::corridor(2, 800.0, 30.0);
        let cfg = TrafficConfig {
            mean_speed_mps: 5.0,
            speed_jitter_mps: 0.0,
            model: CarFollowModel::Idm(IdmParams::default()),
            lanes_per_edge: 2,
            mobil: Some(MobilParams::default()),
            ..TrafficConfig::default()
        };
        let mut tm = TrafficModel::new(net.clone(), cfg, 1);
        let route_of = || route::shortest_path(&net, IntersectionId(0), IntersectionId(1)).unwrap();
        let slow = tm.spawn(SimTime::ZERO, route_of(), Some(ObjectClass::Car));
        let fast = tm.spawn(SimTime::ZERO, route_of(), Some(ObjectClass::Car));
        // ids 0 and 1 land on sub-lanes 0 and 1; force both onto 0 with
        // the follower faster.
        tm.vehicles.get_mut(&slow).unwrap().cruise_mps = 4.0;
        {
            let f = tm.vehicles.get_mut(&fast).unwrap();
            f.cruise_mps = 14.0;
            f.sublane = 0;
            f.progress_m = 0.0;
        }
        tm.vehicles.get_mut(&slow).unwrap().progress_m = 30.0;
        let mut now = SimTime::ZERO;
        let mut changed = false;
        for _ in 0..600 {
            tm.step(now, SimDuration::from_millis(100));
            now += SimDuration::from_millis(100);
            if tm.sublane_of(fast) == Some(1) {
                changed = true;
            }
            if tm.state_of(fast).is_none() {
                break;
            }
        }
        assert!(changed, "fast vehicle never changed sub-lane");
        assert!(tm.lane_changes() >= 1);
        // It actually got past: either completed or ahead of the slow one.
        let ahead = match (tm.vehicles.get(&fast), tm.vehicles.get(&slow)) {
            (Some(f), Some(s)) => f.progress_m > s.progress_m,
            (None, _) => true, // fast one already finished
            _ => false,
        };
        assert!(ahead, "fast vehicle failed to overtake");
    }

    #[test]
    fn multi_lane_snapshot_offsets_are_lateral() {
        let net = generators::corridor(2, 400.0, 30.0);
        let cfg = TrafficConfig {
            mean_speed_mps: 10.0,
            speed_jitter_mps: 0.0,
            model: CarFollowModel::Idm(IdmParams::default()),
            lanes_per_edge: 2,
            ..TrafficConfig::default()
        };
        let mut tm = TrafficModel::new(net.clone(), cfg, 1);
        let route_of = || route::shortest_path(&net, IntersectionId(0), IntersectionId(1)).unwrap();
        // ids 0/1 alternate sub-lanes deterministically.
        let a = tm.spawn(SimTime::ZERO, route_of(), Some(ObjectClass::Car));
        let b = tm.spawn(SimTime::ZERO, route_of(), Some(ObjectClass::Car));
        assert_ne!(tm.sublane_of(a), tm.sublane_of(b));
        tm.step(SimTime::ZERO, SimDuration::from_secs(2));
        let pa = tm.state_of(a).unwrap().position;
        let pb = tm.state_of(b).unwrap().position;
        let d = pa.planar_m(pb);
        assert!(
            (d - LANE_WIDTH_M).abs() < 0.5,
            "lateral separation {d:.2} m, want ~{LANE_WIDTH_M}"
        );
    }

    // --- PR 8: incidents and re-routing ---

    #[test]
    fn incident_forces_reroute_around_closed_lane() {
        // 3x3 grid, route 0 -> 2 along the top row. Closing the second
        // top-row lane forces a detour; the vehicle still reaches its
        // destination.
        let net = generators::grid(3, 3, 100.0, 12.0);
        let mut tm = TrafficModel::new(
            net.clone(),
            TrafficConfig {
                mean_speed_mps: 10.0,
                speed_jitter_mps: 0.0,
                ..TrafficConfig::default()
            },
            1,
        );
        let r = route::shortest_path(&net, IntersectionId(0), IntersectionId(2)).unwrap();
        let blocked = r.lanes()[1];
        let dest = r.destination(&net);
        let v = tm.spawn(SimTime::ZERO, r, Some(ObjectClass::Car));
        tm.schedule_closure(SimTime::ZERO, blocked, None);
        let mut now = SimTime::ZERO;
        let mut completed = false;
        for _ in 0..1200 {
            let evs = tm.step(now, SimDuration::from_millis(100));
            now += SimDuration::from_millis(100);
            if evs.contains(&TrafficEvent::Completed(v)) {
                completed = true;
                break;
            }
        }
        assert!(completed, "vehicle never finished after the closure");
        assert_eq!(tm.reroutes(), 1);
        let journey = tm.journey_of(v).unwrap();
        let (_, last) = *journey.last().unwrap();
        assert_eq!(last, dest, "re-routed vehicle must still reach {dest:?}");
        assert!(
            journey.len() > 3,
            "detour should visit more intersections than the direct route"
        );
    }

    #[test]
    fn boxed_in_vehicle_retires_at_closure() {
        // On a corridor there is no alternative path: the vehicle leaves
        // the network at the closure instead of deadlocking.
        let net = generators::corridor(3, 100.0, 10.0);
        let mut tm = TrafficModel::new(
            net.clone(),
            TrafficConfig {
                mean_speed_mps: 10.0,
                speed_jitter_mps: 0.0,
                ..TrafficConfig::default()
            },
            1,
        );
        let r = route::shortest_path(&net, IntersectionId(0), IntersectionId(2)).unwrap();
        let second = r.lanes()[1];
        let v = tm.spawn(SimTime::ZERO, r, Some(ObjectClass::Car));
        // Close both directions so the detour through the reverse lane is
        // impossible too.
        tm.close_lane(second);
        if let Some(rev) = net.reverse_lane(second) {
            tm.close_lane(rev);
        }
        let mut now = SimTime::ZERO;
        let mut completed = false;
        for _ in 0..300 {
            let evs = tm.step(now, SimDuration::from_millis(100));
            now += SimDuration::from_millis(100);
            if evs.contains(&TrafficEvent::Completed(v)) {
                completed = true;
                break;
            }
        }
        assert!(completed, "boxed-in vehicle must retire, not deadlock");
        let journey = tm.journey_of(v).unwrap();
        let (_, last) = *journey.last().unwrap();
        assert_eq!(last, IntersectionId(1), "retired at the closure");
        assert_eq!(tm.reroutes(), 0);
    }

    #[test]
    fn scheduled_closure_reopens_after_duration() {
        let net = straight_net();
        let mut tm = TrafficModel::new(net.clone(), TrafficConfig::default(), 1);
        let r = straight_route(&net);
        let lane = r.lanes()[1];
        tm.schedule_closure(
            SimTime::from_secs(5),
            lane,
            Some(SimDuration::from_secs(10)),
        );
        assert!(tm.closed_lanes().is_empty());
        tm.step(SimTime::from_secs(5), SimDuration::from_secs(1));
        assert!(tm.closed_lanes().contains(&lane));
        tm.step(SimTime::from_secs(14), SimDuration::from_secs(1));
        assert!(tm.closed_lanes().is_empty(), "closure must expire");
    }
}
