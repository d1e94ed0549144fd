//! Camera observation: projecting ground-truth traffic into per-camera
//! scenes.
//!
//! Each camera observes vehicles within its range and projects them into a
//! camera-aligned image plane (a stabilised bird's-eye view): image "up"
//! points along the camera's videoing angle, so the direction-estimation
//! geometry of `coral-vision::direction` holds exactly. Box size shrinks
//! with distance, giving the detector's occlusion and size effects
//! something real to act on.

use crate::traffic::{TrafficModel, VehicleState};
use coral_geo::GeoPoint;
use coral_vision::{BoundingBox, GroundTruthId, ObjectClass, Scene, SceneActor, VehicleAppearance};
use serde::{Deserialize, Serialize};

/// Deterministic clutter bursts: time-windowed phantom boxes injected
/// into the scene (glare, debris, shadows) that the detector cannot
/// distinguish from vehicles.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ClutterBurst {
    /// Full cycle length, seconds.
    pub period_s: f64,
    /// Fraction of each cycle (from its start) during which phantoms are
    /// rendered, in (0, 1].
    pub burst_fraction: f64,
    /// Phantom boxes rendered per frame during a burst.
    pub boxes: u32,
}

/// Deterministic scene-level disturbances applied while rasterising a
/// camera's view: geometric occlusion and clutter bursts.
///
/// Effects are position- and time-keyed only — no RNG is consumed — so
/// sparse and dense stepping render byte-identical scenes. Effects cull
/// the *rendered* scene only: ground truth keeps the geometric
/// [`CameraView::in_fov`] set, exactly as real MOT benchmarks annotate
/// occluded objects. An occlusion window therefore shows up as missed
/// detections the tracker must ride through — stress the evaluation
/// charges to the pipeline — never as a hole in the ground-truth record.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize, Default)]
pub struct SceneEffects {
    /// Minimum visible fraction: an actor whose bounding box is covered
    /// beyond `1 - min_visible_frac` by any single nearer actor is
    /// dropped from the scene. 0 disables geometric occlusion.
    pub min_visible_frac: f64,
    /// Clutter bursts (`None` disables).
    pub clutter: Option<ClutterBurst>,
    /// Per-camera effect seed (keys phantom placement).
    pub seed: u64,
}

impl SceneEffects {
    /// Returns a copy with the per-camera seed set.
    pub fn seeded(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }
}

fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Unit-interval value derived from a hash (uniform enough for layout).
fn unit(h: u64) -> f64 {
    (h >> 11) as f64 / (1u64 << 53) as f64
}

/// A camera's view geometry.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CameraView {
    /// Camera position.
    pub position: GeoPoint,
    /// Videoing angle, degrees clockwise from north (image "up").
    pub videoing_angle_deg: f64,
    /// Observation range in meters (vehicles beyond it are not imaged).
    pub range_m: f64,
    /// Image width in pixels.
    pub image_width: u32,
    /// Image height in pixels.
    pub image_height: u32,
    /// Scene-level disturbances (occlusion, clutter); `None` renders
    /// clean scenes exactly as the pre-effects simulator did.
    #[serde(default)]
    pub effects: Option<SceneEffects>,
}

impl CameraView {
    /// A compact default view: 240×192 image, 35 m range.
    pub fn standard(position: GeoPoint, videoing_angle_deg: f64) -> Self {
        Self {
            position,
            videoing_angle_deg,
            range_m: 35.0,
            image_width: 240,
            image_height: 192,
            effects: None,
        }
    }

    /// Whether a clutter burst is active at `now_ms`. Cameras inside a
    /// burst window must render even when no vehicle is near (the sparse
    /// stepper checks this before early-outing a camera).
    pub fn clutter_active(&self, now_ms: u64) -> bool {
        let Some(fx) = &self.effects else {
            return false;
        };
        let Some(c) = &fx.clutter else { return false };
        let period_ms = (c.period_s * 1000.0).max(1.0) as u64;
        let burst_ms = (c.burst_fraction.clamp(0.0, 1.0) * c.period_s * 1000.0) as u64;
        (now_ms % period_ms) < burst_ms
    }

    /// Whether a world point is within observation range.
    ///
    /// This is a coarse range cull only: a point can be in range yet fall
    /// outside the image (e.g. exactly `range_m` behind the viewing axis
    /// projects to `cy == image_height`, which is off-image). Use
    /// [`CameraView::in_fov`] for the authoritative visibility predicate —
    /// the one [`CameraView::scene_at`] rasterises and the simulator's
    /// ground-truth log records.
    pub fn observes(&self, p: GeoPoint) -> bool {
        self.position.planar_m(p) <= self.range_m
    }

    /// The canonical field-of-view predicate: a world point is in FOV iff
    /// it projects into the image (within range *and* the projected
    /// centroid lands inside the image bounds).
    ///
    /// Absent scene effects, [`CameraView::scene_at`] includes exactly the
    /// vehicles for which this holds, so rendered presence and
    /// ground-truth presence coincide. With [`SceneEffects`] enabled the
    /// rendered scene may cull occluded vehicles (and inject clutter
    /// phantoms), but ground truth always records against this predicate.
    pub fn in_fov(&self, p: GeoPoint) -> bool {
        self.project(p)
            .is_some_and(|(cx, cy)| self.centroid_in_image(cx, cy))
    }

    fn centroid_in_image(&self, cx: f64, cy: f64) -> bool {
        cx >= 0.0
            && cy >= 0.0
            && cx < f64::from(self.image_width)
            && cy < f64::from(self.image_height)
    }

    /// Projects a world point into image coordinates, or `None` if it is
    /// out of range.
    pub fn project(&self, p: GeoPoint) -> Option<(f64, f64)> {
        let d = self.position.planar_m(p);
        if d > self.range_m {
            return None;
        }
        let bearing = self.position.bearing_deg(p).to_radians();
        let east = d * bearing.sin();
        let north = d * bearing.cos();
        // Rotate into the camera frame: v = along viewing axis, u = right.
        let a = self.videoing_angle_deg.to_radians();
        let u = east * a.cos() - north * a.sin();
        let v = east * a.sin() + north * a.cos();
        let k = f64::from(self.image_width.min(self.image_height)) / (2.0 * self.range_m);
        let x = f64::from(self.image_width) / 2.0 + k * u;
        let y = f64::from(self.image_height) / 2.0 - k * v;
        Some((x, y))
    }

    /// Builds the scene this camera sees at simulation time `now_ms`
    /// (clutter bursts are time-windowed; pass the tick time).
    ///
    /// Actors are ordered far-to-near, so nearer vehicles (drawn later)
    /// occlude farther ones.
    pub fn scene_at(&self, traffic: &TrafficModel, now_ms: u64) -> Scene {
        self.scene_from_states_at(&traffic.states(), now_ms)
    }

    /// Builds the scene from a pre-gathered candidate list of vehicle
    /// states at simulation time `now_ms`.
    ///
    /// The list may be any superset of the vehicles actually in FOV (the
    /// occupancy index hands each camera only the vehicles near it; extra
    /// candidates are culled by the same projection gate `scene_at` applies),
    /// but it must preserve the ascending-id order
    /// [`TrafficModel::states`] produces: the far-to-near sort below is
    /// stable, so input order is what breaks exact distance ties, and
    /// sparse and dense stepping must break them identically.
    pub fn scene_from_states_at<'a>(
        &self,
        states: impl IntoIterator<Item = &'a VehicleState>,
        now_ms: u64,
    ) -> Scene {
        let mut visible: Vec<(f64, SceneActor)> = Vec::new();
        for s in states {
            let Some((cx, cy)) = self.project(s.position) else {
                continue;
            };
            // Require the centroid to be inside the image — together with
            // the range gate in `project` this is exactly `in_fov`, the
            // shared predicate the ground-truth log records against.
            if !self.centroid_in_image(cx, cy) {
                continue;
            }
            let d = self.position.planar_m(s.position);
            let (base_w, base_h) = class_base_size(s.class);
            let scale = 1.2 - 0.5 * (d / self.range_m);
            let Ok(bbox) = BoundingBox::from_center(cx, cy, base_w * scale, base_h * scale) else {
                continue;
            };
            visible.push((
                d,
                SceneActor {
                    gt: GroundTruthId(s.id.0),
                    class: s.class,
                    bbox,
                    appearance: VehicleAppearance::from_seed(s.appearance_seed),
                },
            ));
        }
        if let Some(fx) = &self.effects {
            self.push_clutter(fx, now_ms, &mut visible);
        }
        // Far first, near last (draw order = occlusion order).
        visible.sort_by(|a, b| b.0.total_cmp(&a.0));
        if let Some(fx) = &self.effects {
            apply_occlusion(fx, &mut visible);
        }
        Scene {
            width: self.image_width,
            height: self.image_height,
            actors: visible.into_iter().map(|(_, a)| a).collect(),
        }
    }

    /// Injects phantom clutter actors for the burst window containing
    /// `now_ms`, if any. Placement is hash-keyed by (camera seed, window
    /// index, box index) — stable within a window so trackers latch onto
    /// phantoms, fresh across windows, and RNG-free.
    fn push_clutter(&self, fx: &SceneEffects, now_ms: u64, visible: &mut Vec<(f64, SceneActor)>) {
        let Some(c) = &fx.clutter else { return };
        if !self.clutter_active(now_ms) {
            return;
        }
        let period_ms = (c.period_s * 1000.0).max(1.0) as u64;
        let window = now_ms / period_ms;
        for k in 0..c.boxes {
            let h = splitmix64(
                fx.seed ^ window.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ u64::from(k) << 17,
            );
            let cx = 10.0 + unit(h) * (f64::from(self.image_width) - 20.0);
            let cy = 10.0 + unit(splitmix64(h ^ 1)) * (f64::from(self.image_height) - 20.0);
            // Pseudo-distance drives draw order and size like a mid-range
            // car would.
            let d = (0.3 + 0.6 * unit(splitmix64(h ^ 2))) * self.range_m;
            let (base_w, base_h) = class_base_size(ObjectClass::Car);
            let scale = 1.2 - 0.5 * (d / self.range_m);
            let Ok(bbox) = BoundingBox::from_center(cx, cy, base_w * scale, base_h * scale) else {
                continue;
            };
            visible.push((
                d,
                SceneActor {
                    gt: GroundTruthId(GroundTruthId::CLUTTER_BASE | (h >> 16)),
                    class: ObjectClass::Car,
                    bbox,
                    appearance: VehicleAppearance::from_seed(h),
                },
            ));
        }
    }
}

/// Drops actors occluded beyond the configured threshold: an actor is
/// removed when any single strictly-nearer actor covers more than
/// `1 - min_visible_frac` of its box. `visible` must already be sorted
/// far-to-near (draw order).
fn apply_occlusion(fx: &SceneEffects, visible: &mut Vec<(f64, SceneActor)>) {
    if fx.min_visible_frac <= 0.0 || visible.len() < 2 {
        return;
    }
    let max_cover = 1.0 - fx.min_visible_frac;
    let keep: Vec<bool> = visible
        .iter()
        .enumerate()
        .map(|(i, (di, actor))| {
            let own = actor.bbox.area();
            if own <= 0.0 {
                return true;
            }
            // Later entries are nearer (sorted far-to-near); require
            // strict distance dominance so exact ties never occlude.
            visible.iter().skip(i + 1).all(|(dj, nearer)| {
                if *dj >= *di {
                    return true;
                }
                let cover = nearer
                    .bbox
                    .intersection(&actor.bbox)
                    .map_or(0.0, |b| b.area())
                    / own;
                cover <= max_cover
            })
        })
        .collect();
    let mut it = keep.iter();
    visible.retain(|_| *it.next().expect("keep mask matches length"));
}

fn class_base_size(class: ObjectClass) -> (f64, f64) {
    match class {
        ObjectClass::Car => (36.0, 22.0),
        ObjectClass::Truck => (48.0, 28.0),
        ObjectClass::Bus => (60.0, 30.0),
        ObjectClass::Person => (8.0, 18.0),
        ObjectClass::Bicycle => (14.0, 16.0),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::{SimDuration, SimTime};
    use crate::traffic::TrafficConfig;
    use coral_geo::{generators, route, IntersectionId};

    fn setup() -> (TrafficModel, CameraView) {
        let net = generators::corridor(3, 100.0, 10.0);
        let cam_pos = net.intersection(IntersectionId(1)).unwrap().position;
        let tm = TrafficModel::new(
            net,
            TrafficConfig {
                mean_speed_mps: 10.0,
                speed_jitter_mps: 0.0,
                ..TrafficConfig::default()
            },
            1,
        );
        (tm, CameraView::standard(cam_pos, 0.0))
    }

    #[test]
    fn camera_center_projects_to_image_center() {
        let (_, view) = setup();
        let (x, y) = view.project(view.position).unwrap();
        assert!((x - 120.0).abs() < 1e-6);
        assert!((y - 96.0).abs() < 1e-6);
    }

    #[test]
    fn projection_axes() {
        let (_, view) = setup(); // looking north
                                 // A point north of the camera appears above center (smaller y).
        let (_, y) = view.project(view.position.offset_m(20.0, 0.0)).unwrap();
        assert!(y < 96.0);
        // A point east appears right of center.
        let (x, _) = view.project(view.position.offset_m(0.0, 20.0)).unwrap();
        assert!(x > 120.0);
        // Out of range -> None.
        assert!(view.project(view.position.offset_m(100.0, 0.0)).is_none());
    }

    #[test]
    fn rotated_camera_axes() {
        let (_, mut view) = setup();
        view.videoing_angle_deg = 90.0; // looking east
                                        // A point east of the camera is now "up" in the image.
        let (x, y) = view.project(view.position.offset_m(0.0, 20.0)).unwrap();
        assert!(y < 96.0, "y = {y}");
        assert!((x - 120.0).abs() < 1.0);
        // A point north is now to the left.
        let (x, _) = view.project(view.position.offset_m(20.0, 0.0)).unwrap();
        assert!(x < 120.0);
    }

    #[test]
    fn scene_contains_only_vehicles_in_range() {
        let (mut tm, view) = setup();
        let net = tm.network().clone();
        let r = route::shortest_path(&net, IntersectionId(0), IntersectionId(2)).unwrap();
        let v = tm.spawn(SimTime::ZERO, r, None);
        // At spawn (intersection 0, 100 m away) the camera sees nothing.
        assert!(view.scene_at(&tm, 0).actors.is_empty());
        // Advance ~8 s: vehicle is ~80 m along, 20 m from the camera.
        tm.step(SimTime::ZERO, SimDuration::from_secs(8));
        let scene = view.scene_at(&tm, 0);
        assert_eq!(scene.actors.len(), 1);
        assert_eq!(scene.actors[0].gt, GroundTruthId(v.0));
    }

    #[test]
    fn moving_vehicle_moves_across_image_consistently() {
        let (mut tm, view) = setup(); // camera looks north; corridor runs east
        let net = tm.network().clone();
        let r = route::shortest_path(&net, IntersectionId(0), IntersectionId(2)).unwrap();
        tm.spawn(SimTime::ZERO, r, None);
        tm.step(SimTime::ZERO, SimDuration::from_secs(7));
        let mut xs = Vec::new();
        let mut now = SimTime::from_secs(7);
        for _ in 0..30 {
            tm.step(now, SimDuration::from_millis(200));
            now += SimDuration::from_millis(200);
            if let Some(a) = view.scene_at(&tm, 0).actors.first() {
                xs.push(a.bbox.centroid().x);
            }
        }
        assert!(xs.len() > 10, "vehicle visible for several frames");
        // Eastbound vehicle under a north-looking camera moves left→right.
        assert!(
            xs.windows(2).all(|w| w[1] >= w[0] - 1e-6),
            "x not monotonic: {xs:?}"
        );
    }

    #[test]
    fn nearer_vehicle_drawn_later_and_larger() {
        // Two vehicles staggered by 2 s on the same lane: when both are in
        // range, the nearer one is drawn last (occluding) and larger.
        let (mut tm, view) = setup();
        let net = tm.network().clone();
        let r1 = route::shortest_path(&net, IntersectionId(0), IntersectionId(2)).unwrap();
        let r2 = route::shortest_path(&net, IntersectionId(0), IntersectionId(2)).unwrap();
        let leader = tm.spawn(SimTime::ZERO, r1, Some(ObjectClass::Car));
        let follower = tm.spawn(SimTime::from_secs(2), r2, Some(ObjectClass::Car));
        let mut now = SimTime::ZERO;
        let mut checked = false;
        for _ in 0..120 {
            tm.step(now, SimDuration::from_millis(250));
            now += SimDuration::from_millis(250);
            let scene = view.scene_at(&tm, 0);
            if scene.actors.len() == 2 {
                // Draw order is far-to-near.
                let dist = |gt: GroundTruthId| {
                    let id = crate::traffic::VehicleId(gt.0);
                    view.position.planar_m(tm.state_of(id).unwrap().position)
                };
                let d_first = dist(scene.actors[0].gt);
                let d_last = dist(scene.actors[1].gt);
                assert!(
                    d_last <= d_first + 1e-6,
                    "near must be drawn last: {d_first} then {d_last}"
                );
                // Nearer appears larger.
                assert!(scene.actors[1].bbox.area() >= scene.actors[0].bbox.area() - 1e-6);
                checked = true;
            }
        }
        assert!(checked, "both vehicles were never co-visible");
        let _ = (leader, follower);
    }

    #[test]
    fn in_fov_matches_scene_membership_across_boundary_frames() {
        // Regression for the render/ground-truth divergence: `observes` is
        // a pure range check, while rasterisation additionally requires the
        // projected centroid inside the image. The ground-truth log must
        // record against `in_fov` (= scene membership), never `observes`.
        // Drive a vehicle through the FOV and check frame-by-frame that
        // scene membership and the predicate agree, including the boundary
        // frames where it enters and leaves.
        let (mut tm, view) = setup();
        let net = tm.network().clone();
        let r = route::shortest_path(&net, IntersectionId(0), IntersectionId(2)).unwrap();
        let v = tm.spawn(SimTime::ZERO, r, None);
        let mut now = SimTime::ZERO;
        let mut transitions = 0;
        let mut prev = None;
        for _ in 0..240 {
            tm.step(now, SimDuration::from_millis(100));
            now += SimDuration::from_millis(100);
            let Some(state) = tm.state_of(v) else { break };
            let rendered = view
                .scene_at(&tm, 0)
                .actors
                .iter()
                .any(|a| a.gt == GroundTruthId(v.0));
            assert_eq!(
                rendered,
                view.in_fov(state.position),
                "render/in_fov disagree at {now:?} ({:?})",
                state.position
            );
            if prev.is_some() && prev != Some(rendered) {
                transitions += 1;
            }
            prev = Some(rendered);
        }
        assert!(transitions >= 2, "vehicle entered and left the FOV");
    }

    #[test]
    fn in_fov_agrees_with_range_cull_away_from_the_tangent_ring() {
        // The projection scale k = min(w, h) / (2 * range) inscribes the
        // range disc exactly in the image's short dimension, so the two
        // predicates can only disagree on the measure-zero tangent ring
        // (e.g. exactly `range_m` behind the axis, where cy == height is
        // off-image). Sweep bearings and distances on both sides of the
        // range boundary and pin the agreement everywhere else.
        let (_, view) = setup();
        for bearing_deg in (0..360).step_by(5) {
            let rad = f64::from(bearing_deg).to_radians();
            for (d, expect) in [
                (0.5 * view.range_m, true),
                (0.999 * view.range_m, true),
                (1.001 * view.range_m, false),
                (2.0 * view.range_m, false),
            ] {
                let p = view.position.offset_m(d * rad.cos(), d * rad.sin());
                assert_eq!(view.in_fov(p), expect, "bearing {bearing_deg} at {d:.2} m");
                assert_eq!(view.observes(p), expect, "range cull at {d:.2} m");
                // In range implies the centroid projects inside the image:
                // membership never silently depends on the image bounds
                // except on the tangent ring itself.
                if expect {
                    let (cx, cy) = view.project(p).unwrap();
                    assert!(cx >= 0.0 && cx < f64::from(view.image_width));
                    assert!(cy >= 0.0 && cy < f64::from(view.image_height));
                }
            }
        }
    }

    #[test]
    fn class_sizes_ordered() {
        let car = class_base_size(ObjectClass::Car);
        let truck = class_base_size(ObjectClass::Truck);
        let bus = class_base_size(ObjectClass::Bus);
        assert!(car.0 < truck.0 && truck.0 < bus.0);
    }

    // --- PR 8: scene effects (occlusion + clutter) ---

    #[test]
    fn clutter_burst_injects_phantoms_only_in_window() {
        let (_, mut view) = setup();
        view.effects = Some(SceneEffects {
            min_visible_frac: 0.0,
            clutter: Some(ClutterBurst {
                period_s: 10.0,
                burst_fraction: 0.3,
                boxes: 4,
            }),
            seed: 99,
        });
        let states: Vec<VehicleState> = Vec::new();
        // t = 1 s: inside the burst window.
        assert!(view.clutter_active(1_000));
        let scene = view.scene_from_states_at(&states, 1_000);
        assert_eq!(scene.actors.len(), 4);
        assert!(scene.actors.iter().all(|a| a.gt.is_clutter()));
        // Stable within a window: same frame content 500 ms later.
        let again = view.scene_from_states_at(&states, 1_500);
        assert_eq!(scene.actors, again.actors);
        // t = 5 s: outside the window — no phantoms.
        assert!(!view.clutter_active(5_000));
        assert!(view.scene_from_states_at(&states, 5_000).actors.is_empty());
        // Next window re-keys placement.
        let next = view.scene_from_states_at(&states, 11_000);
        assert_eq!(next.actors.len(), 4);
        assert_ne!(scene.actors, next.actors);
    }

    #[test]
    fn effects_disabled_renders_identically() {
        let (mut tm, view) = setup();
        let net = tm.network().clone();
        let r = route::shortest_path(&net, IntersectionId(0), IntersectionId(2)).unwrap();
        tm.spawn(SimTime::ZERO, r, None);
        tm.step(SimTime::ZERO, SimDuration::from_secs(8));
        let clean = view.scene_at(&tm, 0);
        let timed = view.scene_at(&tm, 123_456);
        assert_eq!(clean.actors, timed.actors, "no effects => time-invariant");
    }

    #[test]
    fn occlusion_drops_covered_actor() {
        let (_, mut view) = setup();
        // A dedicated model with a tight headway: the follower trails by
        // ~3 m, which projects to boxes covering well past the threshold.
        let net = generators::corridor(3, 100.0, 10.0);
        let mut tm = TrafficModel::new(
            net.clone(),
            TrafficConfig {
                mean_speed_mps: 10.0,
                speed_jitter_mps: 0.0,
                min_headway_m: 2.5,
                ..TrafficConfig::default()
            },
            1,
        );
        let r1 = route::shortest_path(&net, IntersectionId(0), IntersectionId(2)).unwrap();
        let r2 = route::shortest_path(&net, IntersectionId(0), IntersectionId(2)).unwrap();
        let a = tm.spawn(SimTime::ZERO, r1, Some(ObjectClass::Car));
        let b = tm.spawn(SimTime::from_millis(300), r2, Some(ObjectClass::Car));
        let mut now = SimTime::ZERO;
        let mut occluded_frames = 0usize;
        let mut both_frames = 0usize;
        view.effects = Some(SceneEffects {
            min_visible_frac: 0.65,
            clutter: None,
            seed: 0,
        });
        let clean = CameraView {
            effects: None,
            ..view
        };
        for _ in 0..240 {
            tm.step(now, SimDuration::from_millis(100));
            now += SimDuration::from_millis(100);
            let without = clean.scene_at(&tm, 0);
            let with = view.scene_at(&tm, 0);
            assert!(with.actors.len() <= without.actors.len());
            if without.actors.len() == 2 {
                both_frames += 1;
                if with.actors.len() == 1 {
                    occluded_frames += 1;
                    // The survivor is the nearer of the two.
                    let dist = |gt: GroundTruthId| {
                        let id = crate::traffic::VehicleId(gt.0);
                        view.position.planar_m(tm.state_of(id).unwrap().position)
                    };
                    let kept = with.actors[0].gt;
                    let other = if kept == GroundTruthId(a.0) { b } else { a };
                    assert!(dist(kept) <= dist(GroundTruthId(other.0)) + 1e-9);
                }
            }
        }
        assert!(both_frames > 0, "vehicles never co-visible");
        assert!(
            occluded_frames > 0,
            "close-following vehicles never occluded each other"
        );
    }
}
