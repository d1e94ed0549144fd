//! Vehicle re-identification: matching a fresh detection event against the
//! candidate pool.
//!
//! "This matching is done by calculating the Bhattacharyya distance between
//! the adaptive histogram of e_i and e_j. If this distance is smaller than
//! the pre-configured Bhatt_threshold, then e_i is successfully matched"
//! (paper §4.1.4). We additionally gate on time order (a candidate must
//! predate the new detection) and a maximum transit window, exploiting "the
//! temporal and spatial locality of a given vehicle's movement between
//! adjacent cameras" that makes color histograms viable (§4.1.2).

use crate::pool::CandidatePool;
use coral_net::{DetectionEvent, EventId};
use serde::{Deserialize, Serialize};

/// Re-identification configuration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ReidConfig {
    /// Maximum Bhattacharyya distance for a match.
    pub bhatt_threshold: f64,
    /// Maximum time between the upstream detection and the local one, ms
    /// (`None` disables the temporal gate).
    pub max_transit_ms: Option<u64>,
    /// Allow matching a candidate generated by this same camera (with a
    /// different track id) — required for U-turn support, where a camera
    /// is in its own MDCS (paper footnote 3).
    pub allow_same_camera: bool,
}

impl Default for ReidConfig {
    fn default() -> Self {
        Self {
            bhatt_threshold: 0.35,
            max_transit_ms: Some(120_000),
            allow_same_camera: false,
        }
    }
}

/// A successful match.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReidMatch {
    /// The matched upstream event.
    pub candidate: EventId,
    /// The Bhattacharyya distance (the confidence weight stored on the
    /// trajectory edge).
    pub distance: f64,
}

/// The re-identification element of one camera.
#[derive(Debug, Clone, Copy, Default)]
pub struct ReIdentifier {
    config: ReidConfig,
    comparisons: u64,
    matches: u64,
}

impl ReIdentifier {
    /// Creates the element.
    pub fn new(config: ReidConfig) -> Self {
        Self {
            config,
            comparisons: 0,
            matches: 0,
        }
    }

    /// The configuration.
    pub fn config(&self) -> &ReidConfig {
        &self.config
    }

    /// Histogram comparisons performed (search-space telemetry: a polluted
    /// pool directly increases this, the cost the MDCS protocol bounds).
    pub fn comparisons(&self) -> u64 {
        self.comparisons
    }

    /// Successful matches.
    pub fn matches(&self) -> u64 {
        self.matches
    }

    /// Finds the best (lowest-distance) admissible candidate for `event`
    /// in `pool`, if any passes the threshold and gates.
    ///
    /// Unmatched candidates are preferred; matched-annotated entries are
    /// consulted only when no unmatched candidate passes the threshold —
    /// this realises the paper's §4.1.4 rationale (a premature false
    /// match must not cause a false negative) without letting stale
    /// matched entries steal matches from live candidates.
    pub fn match_event(
        &mut self,
        event: &DetectionEvent,
        pool: &CandidatePool,
    ) -> Option<ReidMatch> {
        let best = self
            .best_among(event, pool, false)
            .or_else(|| self.best_among(event, pool, true));
        if best.is_some() {
            self.matches += 1;
        }
        best
    }

    fn best_among(
        &mut self,
        event: &DetectionEvent,
        pool: &CandidatePool,
        matched_pass: bool,
    ) -> Option<ReidMatch> {
        // The matched-entry fallback uses a stricter threshold: reviving a
        // supposedly-consumed candidate needs stronger evidence than a
        // first match.
        let threshold = if matched_pass {
            self.config.bhatt_threshold * 0.6
        } else {
            self.config.bhatt_threshold
        };
        let mut best: Option<ReidMatch> = None;
        for cand in pool.candidates() {
            if cand.matched != matched_pass {
                continue;
            }
            // Temporal gating: the candidate must be older and recent.
            if cand.event.timestamp_ms > event.timestamp_ms {
                continue;
            }
            if let Some(window) = self.config.max_transit_ms {
                if event.timestamp_ms - cand.event.timestamp_ms > window {
                    continue;
                }
            }
            // Same-camera candidates only make sense with U-turn support
            // (self-informs), and never against the very same track.
            if cand.event.camera == event.camera
                && (!self.config.allow_same_camera || cand.event.track == event.track)
            {
                continue;
            }
            // A signature of another size (a peer configured with other
            // bins per channel) is not comparable: skip it, never panic.
            let Some(d) = event
                .signature
                .bhattacharyya_distance(&cand.event.signature)
            else {
                continue;
            };
            self.comparisons += 1;
            if d < threshold && best.is_none_or(|b| d < b.distance) {
                best = Some(ReidMatch {
                    candidate: cand.event.event_id(),
                    distance: d,
                });
            }
        }
        best
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use coral_topology::CameraId;
    use coral_vision::{
        BoundingBox, ColorHistogram, HistogramConfig, ObjectClass, Renderer, Scene, SceneActor,
        TrackId, VehicleAppearance,
    };

    /// A signature rendered from a real vehicle appearance.
    fn signature(seed: u64, frame_seed: u64) -> ColorHistogram {
        let bbox = BoundingBox::new(10.0, 10.0, 60.0, 42.0).unwrap();
        let scene = Scene {
            width: 80,
            height: 60,
            actors: vec![SceneActor {
                gt: coral_vision::GroundTruthId(seed),
                class: ObjectClass::Car,
                bbox,
                appearance: VehicleAppearance::from_seed(seed),
            }],
        };
        let frame = Renderer::default().render(&scene, frame_seed);
        ColorHistogram::extract(&frame, &bbox, &HistogramConfig::default())
    }

    fn event(cam: u32, track: u64, ts: u64, sig: ColorHistogram) -> DetectionEvent {
        DetectionEvent {
            camera: CameraId(cam),
            timestamp_ms: ts,
            heading: None,
            bearing_deg: None,
            signature: sig,
            track: TrackId(track),
            vertex: None,
            ground_truth: None,
        }
    }

    #[test]
    fn matches_same_vehicle_rejects_different() {
        let mut reid = ReIdentifier::new(ReidConfig::default());
        let mut pool = CandidatePool::new(32);
        pool.add(event(0, 1, 1_000, signature(4, 1)), 1_000); // red car upstream
        pool.add(event(0, 2, 1_100, signature(1, 2)), 1_100); // black car upstream
                                                              // The red car reappears at this camera 8 s later.
        let fresh = event(1, 9, 9_000, signature(4, 77));
        let m = reid.match_event(&fresh, &pool).expect("should match");
        assert_eq!(m.candidate.track, TrackId(1));
        assert!(m.distance < 0.35);
        assert_eq!(reid.matches(), 1);
        assert!(reid.comparisons() >= 2);
    }

    #[test]
    fn picks_best_of_multiple_admissible() {
        let mut reid = ReIdentifier::new(ReidConfig {
            bhatt_threshold: 0.9, // permissive: both pass
            max_transit_ms: None,
            allow_same_camera: false,
        });
        let mut pool = CandidatePool::new(32);
        pool.add(event(0, 1, 0, signature(4, 1)), 0); // same vehicle
        pool.add(event(0, 2, 0, signature(7, 1)), 0); // different vehicle
        let fresh = event(1, 9, 10, signature(4, 2));
        let m = reid.match_event(&fresh, &pool).unwrap();
        assert_eq!(m.candidate.track, TrackId(1), "best match must win");
    }

    #[test]
    fn candidate_of_another_signature_size_is_skipped() {
        let mut reid = ReIdentifier::new(ReidConfig {
            bhatt_threshold: 1.0, // admits any comparable candidate
            max_transit_ms: None,
            allow_same_camera: false,
        });
        let mut pool = CandidatePool::new(32);
        pool.add(event(0, 1, 0, ColorHistogram::uniform(4)), 0);
        let fresh = event(1, 9, 10, ColorHistogram::uniform(8));
        assert!(reid.match_event(&fresh, &pool).is_none());
        assert_eq!(reid.comparisons(), 0);
    }

    #[test]
    fn threshold_rejects_everything_when_strict() {
        let mut reid = ReIdentifier::new(ReidConfig {
            bhatt_threshold: 1e-6,
            max_transit_ms: None,
            allow_same_camera: false,
        });
        let mut pool = CandidatePool::new(32);
        pool.add(event(0, 1, 0, signature(4, 1)), 0);
        let fresh = event(1, 9, 10, signature(4, 2));
        assert!(reid.match_event(&fresh, &pool).is_none());
        assert_eq!(reid.matches(), 0);
    }

    #[test]
    fn temporal_gates() {
        let mut reid = ReIdentifier::new(ReidConfig {
            bhatt_threshold: 0.9,
            max_transit_ms: Some(5_000),
            allow_same_camera: false,
        });
        let mut pool = CandidatePool::new(32);
        // Too old (beyond the transit window).
        pool.add(event(0, 1, 1_000, signature(4, 1)), 1_000);
        // From the future (clock skew / ordering artifact): inadmissible.
        pool.add(event(0, 2, 50_000, signature(4, 1)), 50_000);
        let fresh = event(1, 9, 20_000, signature(4, 2));
        assert!(reid.match_event(&fresh, &pool).is_none());
        // A recent candidate is admissible.
        pool.add(event(0, 3, 18_000, signature(4, 3)), 18_000);
        let m = reid.match_event(&fresh, &pool).unwrap();
        assert_eq!(m.candidate.track, TrackId(3));
    }

    #[test]
    fn own_camera_events_skipped() {
        let mut reid = ReIdentifier::new(ReidConfig {
            bhatt_threshold: 0.9,
            max_transit_ms: None,
            allow_same_camera: false,
        });
        let mut pool = CandidatePool::new(32);
        pool.add(event(1, 1, 0, signature(4, 1)), 0); // same camera as fresh
        let fresh = event(1, 9, 10, signature(4, 2));
        assert!(reid.match_event(&fresh, &pool).is_none());
        // With U-turn support the same candidate becomes admissible...
        let mut uturn = ReIdentifier::new(ReidConfig {
            bhatt_threshold: 0.9,
            max_transit_ms: None,
            allow_same_camera: true,
        });
        assert!(uturn.match_event(&fresh, &pool).is_some());
        // ...but never against the identical track (that is just the same
        // event echoing back).
        let same_track = event(1, 1, 10, signature(4, 2));
        let mut pool2 = CandidatePool::new(32);
        pool2.add(event(1, 1, 0, signature(4, 1)), 0);
        assert!(uturn.match_event(&same_track, &pool2).is_none());
    }

    #[test]
    fn matched_candidates_remain_searchable_until_pruned() {
        // Paper §4.1.4: a (possibly false-positive) match annotation must
        // not remove the candidate from the search space, or eager pruning
        // could cause false negatives.
        let mut reid = ReIdentifier::new(ReidConfig {
            bhatt_threshold: 0.9,
            max_transit_ms: None,
            allow_same_camera: false,
        });
        let mut pool = CandidatePool::new(32);
        let e = event(0, 1, 0, signature(4, 1));
        let id = e.event_id();
        pool.add(e, 0);
        pool.mark_matched_remote(id);
        let fresh = event(1, 9, 10, signature(4, 2));
        assert!(reid.match_event(&fresh, &pool).is_some());
        // With an eager pool, the same scenario is a false negative.
        let mut eager = CandidatePool::new_eager(32);
        eager.add(event(0, 1, 0, signature(4, 1)), 0);
        eager.mark_matched_remote(id);
        assert!(reid.match_event(&fresh, &eager).is_none());
    }

    #[test]
    fn empty_pool_no_match() {
        let mut reid = ReIdentifier::new(ReidConfig::default());
        let pool = CandidatePool::new(8);
        let fresh = event(1, 9, 10, signature(4, 2));
        assert!(reid.match_event(&fresh, &pool).is_none());
        assert_eq!(reid.comparisons(), 0);
    }
}
