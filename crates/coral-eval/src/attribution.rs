//! Per-stage error attribution: *which pipeline stage lost each miss?*
//!
//! A Coral-Pie detection travels detect → track → event/store →
//! inform-send → transport → re-id. Scoring (see [`crate::score`]) tells
//! us *what* was lost — a camera visit with no vertex, a vehicle
//! transition with no edge; this module tells us *where*, by replaying
//! the run's evidence trail:
//!
//! - per-frame detector hits (`Telemetry::detections`) separate
//!   [`MissStage::DetectMiss`] (the detector never fired on the vehicle)
//!   from [`MissStage::TrackLoss`] (it fired, but SORT dropped the track
//!   before an event was emitted);
//! - inform arrivals (`Telemetry::informs`) separate
//!   [`MissStage::HandoffMiss`] (the upstream event never reached the
//!   downstream camera's candidate pool in time) from
//!   [`MissStage::ReidMismatch`] (it arrived, but Bhattacharyya matching
//!   failed to link it).

use crate::score::{IntervalMatch, MATCH_SLACK_MS};
use coral_core::Telemetry;
use coral_storage::TrajectoryGraph;
use coral_topology::CameraId;
use coral_vision::GroundTruthId;
use std::collections::BTreeMap;

/// Slack allowed for an inform to beat the downstream event's completion:
/// the event fires `max_age` frames after FOV exit, and the §5.3 inform
/// race analysis uses the same margin.
pub const HANDOFF_SLACK_MS: u64 = 5_000;

/// The pipeline stage a miss is attributed to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum MissStage {
    /// The vehicle was in the FOV but the detector never fired on it.
    DetectMiss,
    /// The detector fired but SORT dropped the track before an event was
    /// emitted.
    TrackLoss,
    /// The upstream event was never delivered to the downstream camera in
    /// time to be matched.
    HandoffMiss,
    /// The inform arrived but re-identification failed to link it.
    ReidMismatch,
    /// No stage could be established from the evidence trail.
    Unattributed,
}

impl MissStage {
    /// Stable lowercase label (golden files, JSON reports).
    pub fn label(self) -> &'static str {
        match self {
            MissStage::DetectMiss => "detect_miss",
            MissStage::TrackLoss => "track_loss",
            MissStage::HandoffMiss => "handoff_miss",
            MissStage::ReidMismatch => "reid_mismatch",
            MissStage::Unattributed => "unattributed",
        }
    }
}

/// What was missed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MissKind {
    /// A camera visit produced no matching vertex.
    Event {
        /// The camera whose visit was lost.
        camera: CameraId,
        /// The vehicle.
        vehicle: GroundTruthId,
        /// Visit entry time, milliseconds.
        entered_ms: u64,
    },
    /// Two consecutive matched visits of one vehicle have no linking edge.
    Transition {
        /// Upstream camera.
        from: CameraId,
        /// Downstream camera.
        to: CameraId,
        /// The vehicle.
        vehicle: GroundTruthId,
        /// Entry time of the downstream visit, milliseconds.
        at_ms: u64,
    },
}

/// One miss with its stage attribution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AttributedMiss {
    /// What was missed.
    pub kind: MissKind,
    /// The stage that lost it.
    pub stage: MissStage,
}

/// Per-stage totals over a run's misses.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AttributionSummary {
    /// Misses attributed to the detector.
    pub detect_miss: usize,
    /// Misses attributed to the tracker.
    pub track_loss: usize,
    /// Misses attributed to inform delivery.
    pub handoff_miss: usize,
    /// Misses attributed to re-identification.
    pub reid_mismatch: usize,
    /// Misses with no established stage.
    pub unattributed: usize,
}

impl AttributionSummary {
    /// Builds the summary from individual attributions.
    pub fn from_misses(misses: &[AttributedMiss]) -> Self {
        let mut s = Self::default();
        for m in misses {
            match m.stage {
                MissStage::DetectMiss => s.detect_miss += 1,
                MissStage::TrackLoss => s.track_loss += 1,
                MissStage::HandoffMiss => s.handoff_miss += 1,
                MissStage::ReidMismatch => s.reid_mismatch += 1,
                MissStage::Unattributed => s.unattributed += 1,
            }
        }
        s
    }

    /// Total misses.
    pub fn total(&self) -> usize {
        self.detect_miss
            + self.track_loss
            + self.handoff_miss
            + self.reid_mismatch
            + self.unattributed
    }

    /// Fraction of misses with no established stage (`0.0` when there are
    /// no misses).
    pub fn unattributed_fraction(&self) -> f64 {
        let total = self.total();
        if total == 0 {
            0.0
        } else {
            self.unattributed as f64 / total as f64
        }
    }
}

/// Attributes every miss in `matches` (visits without a vertex, and
/// unlinked transitions between matched visits) to a pipeline stage.
pub fn attribute(
    telemetry: &Telemetry,
    g: &TrajectoryGraph,
    matches: &[IntervalMatch],
) -> Vec<AttributedMiss> {
    // Index the evidence trail.
    let mut detections: BTreeMap<(CameraId, GroundTruthId), Vec<u64>> = BTreeMap::new();
    for &(cam, veh, at) in &telemetry.detections {
        detections
            .entry((cam, veh))
            .or_default()
            .push(at.as_millis());
    }
    let mut informs: BTreeMap<(CameraId, CameraId, GroundTruthId), Vec<u64>> = BTreeMap::new();
    for inf in &telemetry.informs {
        if let Some(v) = inf.vehicle {
            informs
                .entry((inf.at, inf.from, v))
                .or_default()
                .push(inf.arrived.as_millis());
        }
    }

    let mut out = Vec::new();

    // Event misses: visits with no matched vertex.
    for m in matches.iter().filter(|m| m.vertex.is_none()) {
        let iv = m.interval;
        let lo = iv.entered_ms.saturating_sub(MATCH_SLACK_MS);
        let hi = iv
            .exited_ms
            .unwrap_or(u64::MAX)
            .saturating_add(HANDOFF_SLACK_MS);
        let detected = detections
            .get(&(iv.camera, iv.vehicle))
            .is_some_and(|ts| ts.iter().any(|&t| (lo..=hi).contains(&t)));
        out.push(AttributedMiss {
            kind: MissKind::Event {
                camera: iv.camera,
                vehicle: iv.vehicle,
                entered_ms: iv.entered_ms,
            },
            stage: if detected {
                MissStage::TrackLoss
            } else {
                MissStage::DetectMiss
            },
        });
    }

    // Transition misses: consecutive matched visits of one vehicle whose
    // vertices have no linking edge. (Transitions ending in a missed
    // visit are already attributed above, at the event level.)
    let mut by_vehicle: BTreeMap<GroundTruthId, Vec<&IntervalMatch>> = BTreeMap::new();
    for m in matches {
        by_vehicle.entry(m.interval.vehicle).or_default().push(m);
    }
    for (vehicle, mut seq) in by_vehicle {
        seq.sort_by_key(|m| (m.interval.entered_ms, m.interval.camera));
        for pair in seq.windows(2) {
            let (a, b) = (pair[0], pair[1]);
            let (Some(va), Some(vb)) = (a.vertex, b.vertex) else {
                continue;
            };
            if a.interval.camera == b.interval.camera {
                // A same-camera revisit is not a cross-camera handoff.
                continue;
            }
            if g.out_edges(va).iter().any(|e| e.to == vb) {
                continue;
            }
            // When does the downstream event close? The inform must have
            // arrived by then to be matchable.
            let deadline = g
                .vertex(vb)
                .map_or(u64::MAX, |r| r.last_seen_ms)
                .saturating_add(HANDOFF_SLACK_MS);
            let delivered = informs
                .get(&(b.interval.camera, a.interval.camera, vehicle))
                .is_some_and(|ts| ts.iter().any(|&t| t <= deadline));
            out.push(AttributedMiss {
                kind: MissKind::Transition {
                    from: a.interval.camera,
                    to: b.interval.camera,
                    vehicle,
                    at_ms: b.interval.entered_ms,
                },
                stage: if delivered {
                    MissStage::ReidMismatch
                } else {
                    MissStage::HandoffMiss
                },
            });
        }
    }

    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use coral_core::InformArrival;
    use coral_net::EventId;
    use coral_sim::{FovInterval, SimTime};
    use coral_vision::TrackId;

    fn iv(cam: u32, veh: u64, t0: u64, t1: u64) -> FovInterval {
        FovInterval {
            camera: CameraId(cam),
            vehicle: GroundTruthId(veh),
            entered_ms: t0,
            exited_ms: Some(t1),
        }
    }

    #[test]
    fn undetected_visit_is_a_detect_miss() {
        let telemetry = Telemetry::default();
        let g = TrajectoryGraph::new();
        let matches = [IntervalMatch {
            interval: iv(0, 1, 1_000, 5_000),
            vertex: None,
            track: None,
        }];
        let misses = attribute(&telemetry, &g, &matches);
        assert_eq!(misses.len(), 1);
        assert_eq!(misses[0].stage, MissStage::DetectMiss);
    }

    #[test]
    fn detected_but_unmatched_visit_is_a_track_loss() {
        let mut telemetry = Telemetry::default();
        telemetry
            .detections
            .push((CameraId(0), GroundTruthId(1), SimTime::from_millis(2_000)));
        let g = TrajectoryGraph::new();
        let matches = [IntervalMatch {
            interval: iv(0, 1, 1_000, 5_000),
            vertex: None,
            track: None,
        }];
        let misses = attribute(&telemetry, &g, &matches);
        assert_eq!(misses[0].stage, MissStage::TrackLoss);
        // A detection far outside the visit is not evidence for it.
        let far = [IntervalMatch {
            interval: iv(0, 1, 60_000, 65_000),
            vertex: None,
            track: None,
        }];
        assert_eq!(
            attribute(&telemetry, &g, &far)[0].stage,
            MissStage::DetectMiss
        );
    }

    fn linked_pair_graph(linked: bool) -> (TrajectoryGraph, [IntervalMatch; 2]) {
        let mut g = TrajectoryGraph::new();
        let va = g.insert_event(
            EventId {
                camera: CameraId(0),
                track: TrackId(1),
            },
            1_000,
            5_000,
            None,
            Some(GroundTruthId(1)),
        );
        let vb = g.insert_event(
            EventId {
                camera: CameraId(1),
                track: TrackId(1),
            },
            20_000,
            24_000,
            None,
            Some(GroundTruthId(1)),
        );
        if linked {
            g.insert_edge(va, vb, 0.1).unwrap();
        }
        let matches = [
            IntervalMatch {
                interval: iv(0, 1, 1_000, 5_000),
                vertex: Some(va),
                track: Some(0),
            },
            IntervalMatch {
                interval: iv(1, 1, 20_000, 24_000),
                vertex: Some(vb),
                track: Some(if linked { 0 } else { 1 }),
            },
        ];
        (g, matches)
    }

    #[test]
    fn unlinked_transition_without_inform_is_a_handoff_miss() {
        let telemetry = Telemetry::default();
        let (g, matches) = linked_pair_graph(false);
        let misses = attribute(&telemetry, &g, &matches);
        assert_eq!(misses.len(), 1);
        assert_eq!(misses[0].stage, MissStage::HandoffMiss);
        assert!(matches!(
            misses[0].kind,
            MissKind::Transition {
                from: CameraId(0),
                to: CameraId(1),
                ..
            }
        ));
    }

    #[test]
    fn unlinked_transition_with_delivered_inform_is_a_reid_mismatch() {
        let mut telemetry = Telemetry::default();
        telemetry.informs.push(InformArrival {
            at: CameraId(1),
            from: CameraId(0),
            vehicle: Some(GroundTruthId(1)),
            arrived: SimTime::from_millis(6_000),
        });
        let (g, matches) = linked_pair_graph(false);
        let misses = attribute(&telemetry, &g, &matches);
        assert_eq!(misses[0].stage, MissStage::ReidMismatch);
        // An inform arriving after the downstream event closed cannot
        // have been matched: still a handoff miss.
        telemetry.informs[0].arrived = SimTime::from_millis(40_000);
        let misses = attribute(&telemetry, &g, &matches);
        assert_eq!(misses[0].stage, MissStage::HandoffMiss);
    }

    #[test]
    fn linked_transition_produces_no_miss() {
        let telemetry = Telemetry::default();
        let (g, matches) = linked_pair_graph(true);
        assert!(attribute(&telemetry, &g, &matches).is_empty());
    }

    #[test]
    fn summary_counts_and_unattributed_fraction() {
        let misses = [
            AttributedMiss {
                kind: MissKind::Event {
                    camera: CameraId(0),
                    vehicle: GroundTruthId(1),
                    entered_ms: 0,
                },
                stage: MissStage::DetectMiss,
            },
            AttributedMiss {
                kind: MissKind::Event {
                    camera: CameraId(1),
                    vehicle: GroundTruthId(1),
                    entered_ms: 0,
                },
                stage: MissStage::Unattributed,
            },
        ];
        let s = AttributionSummary::from_misses(&misses);
        assert_eq!(s.total(), 2);
        assert_eq!(s.detect_miss, 1);
        assert!((s.unattributed_fraction() - 0.5).abs() < 1e-12);
        assert!(
            (AttributionSummary::default().unattributed_fraction()).abs() < 1e-12,
            "no misses means nothing unattributed"
        );
    }
}
