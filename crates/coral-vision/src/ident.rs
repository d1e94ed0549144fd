//! The Vehicle Identification element: detection → tracking → feature
//! extraction → one detection event per vehicle.
//!
//! "The goal of the vehicle identification element is to recognize the
//! appearance of each vehicle within one camera and generate a unique
//! vehicle detection event for it" (paper §4.1.2). Per frame the element
//! runs the detector, filters boxes, feeds them to SORT, and accumulates
//! per-track centroids and histograms of the rendered pixels inside each
//! track box. When a track's ID stops appearing for `max_age` frames the
//! vehicle has left the FOV and a single [`VehicleObservation`] is emitted.

use crate::bbox::BoundingBox;
use crate::detect::{Detector, PostProcessor};
use crate::frame::{FrameId, PixelSource};
use crate::histogram::{ColorHistogram, HistogramConfig, HistogramScratch, SignatureAccumulator};
use crate::render::{GroundTruthId, Renderer, Scene};
use crate::sort::{SortConfig, SortTracker, TrackId};
use crate::{direction, Frame};
use coral_geo::{Heading, Point2};
use std::collections::HashMap;

/// The per-vehicle output of the identification element, from which the
/// communication layer builds the JSON detection event.
#[derive(Debug, Clone, PartialEq)]
pub struct VehicleObservation {
    /// Camera-local SORT track id.
    pub track: TrackId,
    /// First frame in which the vehicle was matched.
    pub first_frame: FrameId,
    /// Last frame in which the vehicle was matched.
    pub last_frame: FrameId,
    /// Number of frames the vehicle was matched in.
    pub frames_observed: u32,
    /// Estimated world-space bearing, degrees clockwise from north.
    pub bearing_deg: Option<f64>,
    /// Quantized compass heading of the motion.
    pub heading: Option<Heading>,
    /// Appearance signature (mean adaptive color histogram).
    pub signature: ColorHistogram,
    /// The vehicle's final bounding box.
    pub last_bbox: BoundingBox,
    /// Majority-vote ground-truth identity (evaluation only; `None` for
    /// clutter tracks that never overlapped a real vehicle).
    pub ground_truth: Option<GroundTruthId>,
}

/// Summary of one processed frame.
#[derive(Debug, Clone, PartialEq)]
pub struct IdentFrameResult {
    /// Detections that survived post-processing this frame.
    pub detections_kept: usize,
    /// Tracks matched this frame (id + box), the per-frame annotations the
    /// storage client ships with the raw frame (paper §4.2.2).
    pub active: Vec<crate::sort::TrackState>,
    /// Vehicles that completed (left the FOV) this frame.
    pub completed: Vec<VehicleObservation>,
    /// Ground-truth vehicles the detector fired on this frame (a kept
    /// detection overlapped the actor at IoU ≥ `gt_iou_threshold`),
    /// ascending id. Evaluation only: this is the raw detection evidence
    /// the error-attribution layer uses to separate "never detected" from
    /// "detected but the tracker dropped it".
    pub detected_gt: Vec<GroundTruthId>,
}

impl IdentFrameResult {
    /// Number of tracks matched this frame.
    pub fn active_tracks(&self) -> usize {
        self.active.len()
    }
}

/// Identification-element configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct IdentConfig {
    /// SORT tracker parameters (the paper uses `max_age = 3`).
    pub sort: SortConfig,
    /// Histogram extraction parameters.
    pub histogram: HistogramConfig,
    /// Renderer that produces the pixels signatures are read from.
    pub renderer: Renderer,
    /// Camera videoing angle, degrees clockwise from north.
    pub videoing_angle_deg: f64,
    /// Minimum IoU between a track box and a scene actor for ground-truth
    /// attribution (evaluation only).
    pub gt_iou_threshold: f64,
    /// Minimum net image-plane displacement, in pixels, between a track's
    /// first centroid and its farthest observed centroid for the track to
    /// emit a [`VehicleObservation`] when it completes. Stationary tracks
    /// — glare, debris, clutter phantoms that latch the tracker without
    /// ever moving — are discarded at finalisation instead of becoming
    /// passage events. Vehicles traverse the field of view, so any
    /// threshold well below the FOV diameter leaves them untouched.
    /// `0.0` (the default) disables the filter and reproduces the
    /// historical event stream bit-for-bit.
    pub min_net_displacement_px: f64,
    /// Number of trailing centroids used to estimate the bearing a track
    /// *exits* with. The MDCS inform is routed by this bearing, and for a
    /// vehicle that turns inside the field of view the whole-track
    /// estimate points diagonally — between the admitted road headings —
    /// so the nearest-heading fallback informs the wrong neighbour about
    /// half the time. A trailing window sees only the post-turn motion.
    /// `0` (the default) keeps the whole-track estimate and reproduces
    /// the historical event stream bit-for-bit.
    pub exit_bearing_window: usize,
    /// Maximum fraction of a track's bounding box that may be covered by
    /// another concurrent track for the frame to contribute to the
    /// appearance signature. Crossing and queued vehicles draw each
    /// other's pixels inside the box, and a signature averaged over those
    /// frames matches the *neighbour* downstream; sampling only clean
    /// frames keeps it discriminative. If a track never has a clean frame
    /// its all-frames signature is used as a fallback, so no observation
    /// is lost. `1.0` (the default) accumulates every frame and
    /// reproduces the historical event stream bit-for-bit.
    pub signature_max_overlap: f64,
}

impl Default for IdentConfig {
    fn default() -> Self {
        Self {
            sort: SortConfig::default(),
            histogram: HistogramConfig::default(),
            renderer: Renderer::default(),
            videoing_angle_deg: 0.0,
            gt_iou_threshold: 0.3,
            min_net_displacement_px: 0.0,
            exit_bearing_window: 0,
            signature_max_overlap: 1.0,
        }
    }
}

#[derive(Debug, Clone)]
struct Tracklet {
    centroids: Vec<Point2>,
    /// All-frames signature (the legacy accumulator, and the fallback
    /// when overlap gating leaves no clean frame).
    signature: SignatureAccumulator,
    /// Clean-frames-only signature (populated when
    /// [`IdentConfig::signature_max_overlap`] gating is enabled).
    clean_signature: SignatureAccumulator,
    first_frame: FrameId,
    last_frame: FrameId,
    last_bbox: BoundingBox,
    gt_votes: HashMap<GroundTruthId, u32>,
}

/// The Vehicle Identification element for one camera.
#[derive(Debug)]
pub struct VehicleIdentification<D> {
    detector: D,
    post: PostProcessor,
    sort: SortTracker,
    config: IdentConfig,
    tracklets: HashMap<TrackId, Tracklet>,
    render_seed: u64,
    /// Recycled histogram-extraction buffer: one allocation serves every
    /// per-frame signature this camera ever extracts.
    scratch: HistogramScratch,
}

impl<D: Detector> VehicleIdentification<D> {
    /// Creates the element with a pluggable detector and the camera's
    /// post-processing filter.
    pub fn new(detector: D, post: PostProcessor, config: IdentConfig, render_seed: u64) -> Self {
        Self {
            detector,
            post,
            sort: SortTracker::new(config.sort),
            config,
            tracklets: HashMap::new(),
            render_seed,
            scratch: HistogramScratch::new(),
        }
    }

    /// Number of vehicles currently being tracked.
    pub fn live_track_count(&self) -> usize {
        self.sort.live_track_count()
    }

    /// Histogram-arena effectiveness counters: `(reuse hits, allocations)`.
    pub fn scratch_stats(&self) -> (u64, u64) {
        self.scratch.stats()
    }

    /// Renders the whole raw frame for `scene` with the pixels
    /// [`VehicleIdentification::process_scene`] reads (same seed schedule),
    /// for callers that persist raw frames.
    pub fn render(&self, frame_id: FrameId, scene: &Scene) -> Frame {
        self.config
            .renderer
            .render(scene, self.render_seed ^ frame_id.0)
    }

    /// Processes one frame: detects, filters, tracks and returns any
    /// completed vehicle observations. Signature pixels are computed on
    /// demand from a lazy [`SceneView`](crate::render::SceneView), only
    /// inside the active track boxes.
    pub fn process_scene(&mut self, frame_id: FrameId, scene: &Scene) -> IdentFrameResult {
        // A copy: the view borrows it while `self` is mutated.
        let renderer = self.config.renderer;
        let view = renderer.view(scene, self.render_seed ^ frame_id.0);
        self.process_rendered(frame_id, scene, &view)
    }

    /// Same as [`VehicleIdentification::process_scene`] but reading
    /// signature pixels from `pixels`, e.g. a frame already rendered with
    /// [`VehicleIdentification::render`] for storage.
    pub fn process_rendered<P: PixelSource + ?Sized>(
        &mut self,
        frame_id: FrameId,
        scene: &Scene,
        pixels: &P,
    ) -> IdentFrameResult {
        let raw = self.detector.detect(scene);
        let kept = self.post.filter(raw);
        let boxes: Vec<BoundingBox> = kept.iter().map(|d| d.bbox).collect();
        let out = self.sort.update(&boxes);

        // Detection-level ground-truth evidence (evaluation only): which
        // actors did the detector actually fire on this frame, before any
        // tracking? Attribution uses this to tell detect-misses from
        // track-losses.
        let mut detected_gt: Vec<GroundTruthId> = kept
            .iter()
            .filter_map(|d| {
                scene
                    .actors
                    .iter()
                    .map(|a| (a.gt, d.bbox.iou(&a.bbox)))
                    .max_by(|a, b| a.1.total_cmp(&b.1))
                    .filter(|&(_, iou)| iou >= self.config.gt_iou_threshold)
                    .map(|(gt, _)| gt)
            })
            .collect();
        detected_gt.sort_unstable();
        detected_gt.dedup();

        let overlap_gating = self.config.signature_max_overlap < 1.0;
        for (i, st) in out.active.iter().enumerate() {
            // Overlap gating: is this box covered by another concurrent
            // track beyond the clean-frame threshold? Crossing vehicles
            // draw their pixels inside each other's boxes, poisoning the
            // appearance signature.
            let contaminated = overlap_gating && {
                let own = st.bbox.area();
                own > 0.0
                    && out.active.iter().enumerate().any(|(j, other)| {
                        j != i
                            && st.bbox.intersection(&other.bbox).map_or(0.0, |b| b.area()) / own
                                > self.config.signature_max_overlap
                    })
            };
            let entry = self.tracklets.entry(st.id).or_insert_with(|| Tracklet {
                centroids: Vec::new(),
                signature: SignatureAccumulator::new(),
                clean_signature: SignatureAccumulator::new(),
                first_frame: frame_id,
                last_frame: frame_id,
                last_bbox: st.bbox,
                gt_votes: HashMap::new(),
            });
            entry.centroids.push(st.bbox.centroid());
            ColorHistogram::extract_into(
                pixels,
                &st.bbox,
                &self.config.histogram,
                &mut self.scratch,
            );
            entry.signature.add_bins(
                self.scratch.bins(),
                self.config.histogram.bins_per_channel.max(1),
            );
            if overlap_gating && !contaminated {
                entry.clean_signature.add_bins(
                    self.scratch.bins(),
                    self.config.histogram.bins_per_channel.max(1),
                );
            }
            entry.last_frame = frame_id;
            entry.last_bbox = st.bbox;
            // Ground-truth attribution by IoU (evaluation only).
            let best = scene
                .actors
                .iter()
                .map(|a| (a.gt, st.bbox.iou(&a.bbox)))
                .max_by(|a, b| a.1.total_cmp(&b.1));
            if let Some((gt, iou)) = best {
                if iou >= self.config.gt_iou_threshold {
                    *entry.gt_votes.entry(gt).or_insert(0) += 1;
                }
            }
        }

        let completed = out
            .expired
            .iter()
            .filter_map(|ex| self.finalize(ex.id, ex.hits))
            .collect();

        IdentFrameResult {
            detections_kept: kept.len(),
            active: out.active,
            completed,
            detected_gt,
        }
    }

    /// Flushes all live tracks (end of stream), emitting their
    /// observations.
    pub fn flush(&mut self) -> Vec<VehicleObservation> {
        let expired = self.sort.flush();
        expired
            .iter()
            .filter_map(|ex| self.finalize(ex.id, ex.hits))
            .collect()
    }

    fn finalize(&mut self, id: TrackId, hits: u32) -> Option<VehicleObservation> {
        let t = self.tracklets.remove(&id)?;
        // Stationary-track rejection: a track that never strayed from its
        // first centroid is scene furniture (clutter phantom, glare), not
        // a vehicle passage. Max deviation from the first point is robust
        // to detector box jitter, unlike accumulated path length.
        if self.config.min_net_displacement_px > 0.0 {
            let moved = t.centroids.first().map_or(0.0, |p0| {
                t.centroids
                    .iter()
                    .map(|p| ((p.x - p0.x).powi(2) + (p.y - p0.y).powi(2)).sqrt())
                    .fold(0.0, f64::max)
            });
            if moved < self.config.min_net_displacement_px {
                return None;
            }
        }
        // Route informs by the bearing the vehicle *leaves* with: a
        // trailing window (when configured) sees only the post-turn
        // motion, where the whole tracklet of a turning vehicle would
        // average out to a diagonal between the admitted road headings.
        let w = self.config.exit_bearing_window;
        let exit_track = if w > 1 && t.centroids.len() > w {
            &t.centroids[t.centroids.len() - w..]
        } else {
            &t.centroids[..]
        };
        let bearing = direction::estimate_bearing_deg(exit_track, self.config.videoing_angle_deg);
        let ground_truth = t
            .gt_votes
            .iter()
            .max_by_key(|&(gt, votes)| (*votes, std::cmp::Reverse(gt.0)))
            .map(|(gt, _)| *gt);
        Some(VehicleObservation {
            track: id,
            first_frame: t.first_frame,
            last_frame: t.last_frame,
            frames_observed: hits,
            bearing_deg: bearing,
            heading: bearing.map(Heading::from_bearing_deg),
            signature: t
                .clean_signature
                .signature()
                .or_else(|| t.signature.signature())?,
            last_bbox: t.last_bbox,
            ground_truth,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::detect::{DetectorNoise, SyntheticSsdDetector};
    use crate::render::{ObjectClass, SceneActor, VehicleAppearance};
    use coral_geo::Polygon;

    const W: u32 = 200;
    const H: u32 = 150;

    fn full_coi() -> PostProcessor {
        PostProcessor::new(Polygon::rect(0.0, 0.0, f64::from(W), f64::from(H)))
    }

    fn ident(noise: DetectorNoise) -> VehicleIdentification<SyntheticSsdDetector> {
        VehicleIdentification::new(
            SyntheticSsdDetector::new(noise, 11),
            full_coi(),
            IdentConfig::default(),
            1,
        )
    }

    fn moving_car(gt: u64, t: u32) -> SceneActor {
        SceneActor {
            gt: GroundTruthId(gt),
            class: ObjectClass::Car,
            bbox: BoundingBox::from_center(20.0 + 6.0 * f64::from(t), 75.0, 36.0, 22.0).unwrap(),
            appearance: VehicleAppearance::from_seed(gt),
        }
    }

    /// Drives a car across the FOV over `n` frames then `gap` empty frames.
    fn drive(
        ident: &mut VehicleIdentification<SyntheticSsdDetector>,
        gt: u64,
        n: u32,
    ) -> Vec<VehicleObservation> {
        let mut done = Vec::new();
        for t in 0..n {
            let scene = Scene {
                width: W,
                height: H,
                actors: vec![moving_car(gt, t)],
            };
            done.extend(ident.process_scene(FrameId(u64::from(t)), &scene).completed);
        }
        for t in n..n + 6 {
            let scene = Scene::empty(W, H);
            done.extend(ident.process_scene(FrameId(u64::from(t)), &scene).completed);
        }
        done
    }

    #[test]
    fn one_vehicle_one_event() {
        let mut ident = ident(DetectorNoise::perfect());
        let obs = drive(&mut ident, 4, 15);
        assert_eq!(obs.len(), 1, "exactly one detection event per vehicle");
        let o = &obs[0];
        assert_eq!(o.ground_truth, Some(GroundTruthId(4)));
        assert_eq!(o.frames_observed, 15);
        assert_eq!(o.heading, Some(Heading::East));
        assert_eq!(o.first_frame, FrameId(0));
        assert_eq!(o.last_frame, FrameId(14));
    }

    #[test]
    fn de_duplication_under_detector_misses() {
        // With max_age = 3 the paper tolerates sporadic false negatives:
        // a moderate miss rate must still yield a single event.
        let noise = DetectorNoise {
            miss_rate: 0.15,
            clutter_rate: 0.0,
            ..DetectorNoise::default()
        };
        let mut ident = ident(noise);
        let obs = drive(&mut ident, 4, 20);
        assert_eq!(obs.len(), 1, "max_age should absorb sporadic misses");
    }

    #[test]
    fn signature_matches_same_vehicle_across_cameras() {
        // Two identification elements (two cameras) observing the same
        // ground-truth vehicle: their emitted signatures are close; a
        // different-colored vehicle is farther.
        let mut cam1 = ident(DetectorNoise::perfect());
        let mut cam2 = VehicleIdentification::new(
            SyntheticSsdDetector::new(DetectorNoise::perfect(), 77),
            full_coi(),
            IdentConfig::default(),
            99,
        );
        let red_at_cam1 = drive(&mut cam1, 4, 12).remove(0);
        let red_at_cam2 = drive(&mut cam2, 4, 12).remove(0);
        let mut cam3 = ident(DetectorNoise::perfect());
        let blue_at_cam3 = drive(&mut cam3, 5, 12).remove(0);
        let same = red_at_cam1
            .signature
            .bhattacharyya_distance(&red_at_cam2.signature)
            .unwrap();
        let diff = red_at_cam1
            .signature
            .bhattacharyya_distance(&blue_at_cam3.signature)
            .unwrap();
        assert!(same < diff, "same-vehicle dist {same} vs diff {diff}");
        assert!(same < 0.3, "same-vehicle distance too large: {same}");
    }

    #[test]
    fn two_vehicles_two_events() {
        let mut id = ident(DetectorNoise::perfect());
        let mut done = Vec::new();
        for t in 0..14u32 {
            let mut actors = vec![moving_car(1, t)];
            // Second car on another row, moving the opposite way.
            actors.push(SceneActor {
                gt: GroundTruthId(2),
                class: ObjectClass::Car,
                bbox: BoundingBox::from_center(180.0 - 6.0 * f64::from(t), 120.0, 36.0, 22.0)
                    .unwrap(),
                appearance: VehicleAppearance::from_seed(2),
            });
            let scene = Scene {
                width: W,
                height: H,
                actors,
            };
            done.extend(id.process_scene(FrameId(u64::from(t)), &scene).completed);
        }
        for t in 14..20u32 {
            done.extend(
                id.process_scene(FrameId(u64::from(t)), &Scene::empty(W, H))
                    .completed,
            );
        }
        assert_eq!(done.len(), 2);
        let gts: std::collections::HashSet<_> =
            done.iter().filter_map(|o| o.ground_truth).collect();
        assert_eq!(gts.len(), 2);
        let headings: Vec<_> = done.iter().filter_map(|o| o.heading).collect();
        assert!(headings.contains(&Heading::East));
        assert!(headings.contains(&Heading::West));
    }

    #[test]
    fn flush_emits_live_tracks() {
        let mut id = ident(DetectorNoise::perfect());
        for t in 0..5u32 {
            let scene = Scene {
                width: W,
                height: H,
                actors: vec![moving_car(3, t)],
            };
            id.process_scene(FrameId(u64::from(t)), &scene);
        }
        let obs = id.flush();
        assert_eq!(obs.len(), 1);
        assert_eq!(obs[0].ground_truth, Some(GroundTruthId(3)));
        assert_eq!(id.live_track_count(), 0);
    }

    fn ident_with(config: IdentConfig) -> VehicleIdentification<SyntheticSsdDetector> {
        VehicleIdentification::new(
            SyntheticSsdDetector::new(DetectorNoise::perfect(), 11),
            full_coi(),
            config,
            1,
        )
    }

    /// Regression: a track that never moves (clutter phantom, glare) must
    /// be rejected at finalisation when the stationary filter is enabled —
    /// and must keep emitting (historical behaviour) when it is not.
    #[test]
    fn stationary_filter_rejects_phantoms_keeps_vehicles() {
        let parked = |gt: u64| SceneActor {
            gt: GroundTruthId(gt),
            class: ObjectClass::Car,
            bbox: BoundingBox::from_center(100.0, 75.0, 36.0, 22.0).unwrap(),
            appearance: VehicleAppearance::from_seed(gt),
        };
        let run_parked = |id: &mut VehicleIdentification<SyntheticSsdDetector>| {
            let mut done = Vec::new();
            for t in 0..15u32 {
                let scene = Scene {
                    width: W,
                    height: H,
                    actors: vec![parked(7)],
                };
                done.extend(id.process_scene(FrameId(u64::from(t)), &scene).completed);
            }
            for t in 15..21u32 {
                done.extend(
                    id.process_scene(FrameId(u64::from(t)), &Scene::empty(W, H))
                        .completed,
                );
            }
            done
        };

        // Default (filter off): the stationary track still becomes an event.
        let mut legacy = ident(DetectorNoise::perfect());
        assert_eq!(run_parked(&mut legacy).len(), 1);

        // Filter on: the phantom is dropped...
        let filtering = IdentConfig {
            min_net_displacement_px: 12.0,
            ..IdentConfig::default()
        };
        let mut id = ident_with(filtering.clone());
        assert!(
            run_parked(&mut id).is_empty(),
            "stationary track must not emit"
        );

        // ...while a genuinely moving vehicle still emits exactly one event.
        let mut id = ident_with(filtering);
        assert_eq!(drive(&mut id, 4, 15).len(), 1);
    }

    /// Regression: a vehicle that turns inside the FOV (east, then south)
    /// must be routed by its *exit* bearing when the trailing window is
    /// configured. The whole-track estimate averages the two legs into a
    /// diagonal, which is what misroutes MDCS informs on city grids.
    #[test]
    fn exit_bearing_window_reports_post_turn_heading() {
        let turning_car = |t: u32| {
            // 15 frames east (4 px/frame), then 15 frames south.
            let (x, y) = if t < 15 {
                (20.0 + 4.0 * f64::from(t), 75.0)
            } else {
                (76.0, 75.0 + 4.0 * f64::from(t - 14))
            };
            SceneActor {
                gt: GroundTruthId(9),
                class: ObjectClass::Car,
                bbox: BoundingBox::from_center(x, y, 36.0, 22.0).unwrap(),
                appearance: VehicleAppearance::from_seed(9),
            }
        };
        let run_turn = |id: &mut VehicleIdentification<SyntheticSsdDetector>| {
            let mut done = Vec::new();
            for t in 0..30u32 {
                let scene = Scene {
                    width: W,
                    height: H,
                    actors: vec![turning_car(t)],
                };
                done.extend(id.process_scene(FrameId(u64::from(t)), &scene).completed);
            }
            for t in 30..36u32 {
                done.extend(
                    id.process_scene(FrameId(u64::from(t)), &Scene::empty(W, H))
                        .completed,
                );
            }
            done
        };

        let mut legacy = ident(DetectorNoise::perfect());
        let whole = run_turn(&mut legacy).remove(0);
        assert_eq!(
            whole.heading,
            Some(Heading::SouthEast),
            "whole-track estimate averages the turn into a diagonal"
        );

        let mut windowed = ident_with(IdentConfig {
            exit_bearing_window: 12,
            ..IdentConfig::default()
        });
        let exit = run_turn(&mut windowed).remove(0);
        assert_eq!(
            exit.heading,
            Some(Heading::South),
            "trailing window must see only the post-turn leg"
        );
    }

    /// Regression: frames where another track covers the box beyond the
    /// overlap threshold must not contribute to the appearance signature —
    /// and a track with *no* clean frame falls back to the all-frames
    /// signature instead of losing its observation.
    #[test]
    fn signature_overlap_gating_keeps_signature_clean() {
        // Baseline: the red car (gt 4) crossing alone.
        let mut solo = ident(DetectorNoise::perfect());
        let baseline = drive(&mut solo, 4, 12).remove(0);

        // The same crossing with a blue occluder riding on top of the red
        // car's box for the middle frames (3..9); frames 0-2 and 9-11 are
        // clean. The occluder covers 12/22 ≈ 55% of the red box — above
        // the 0.25 threshold.
        let occluder = |t: u32| SceneActor {
            gt: GroundTruthId(5),
            class: ObjectClass::Car,
            bbox: BoundingBox::from_center(20.0 + 6.0 * f64::from(t), 85.0, 36.0, 22.0).unwrap(),
            appearance: VehicleAppearance::from_seed(5),
        };
        let run_occluded = |id: &mut VehicleIdentification<SyntheticSsdDetector>| {
            let mut done = Vec::new();
            for t in 0..12u32 {
                let mut actors = vec![moving_car(4, t)];
                if (3..9).contains(&t) {
                    actors.push(occluder(t));
                }
                let scene = Scene {
                    width: W,
                    height: H,
                    actors,
                };
                done.extend(id.process_scene(FrameId(u64::from(t)), &scene).completed);
            }
            for t in 12..20u32 {
                done.extend(
                    id.process_scene(FrameId(u64::from(t)), &Scene::empty(W, H))
                        .completed,
                );
            }
            done
        };

        let find = |obs: &[VehicleObservation], gt: u64| {
            obs.iter()
                .find(|o| o.ground_truth == Some(GroundTruthId(gt)))
                .cloned()
                .expect("observation present")
        };

        let mut legacy = ident(DetectorNoise::perfect());
        let ungated = run_occluded(&mut legacy);
        let mut gating = ident_with(IdentConfig {
            signature_max_overlap: 0.25,
            ..IdentConfig::default()
        });
        let gated = run_occluded(&mut gating);

        let d_gated = find(&gated, 4)
            .signature
            .bhattacharyya_distance(&baseline.signature)
            .unwrap();
        let d_ungated = find(&ungated, 4)
            .signature
            .bhattacharyya_distance(&baseline.signature)
            .unwrap();
        assert!(
            d_gated < d_ungated,
            "clean-frame signature must be closer to the solo baseline \
             (gated {d_gated:.4} vs ungated {d_ungated:.4})"
        );

        // The occluder never has a clean frame (it always rides on the red
        // car), so gating must fall back to its all-frames signature
        // rather than dropping the observation.
        find(&gated, 5);
    }

    #[test]
    fn empty_stream_emits_nothing() {
        let mut id = ident(DetectorNoise::default());
        for t in 0..10u32 {
            let r = id.process_scene(FrameId(u64::from(t)), &Scene::empty(W, H));
            assert_eq!(r.active_tracks(), 0);
        }
        assert!(id.flush().is_empty());
    }
}
