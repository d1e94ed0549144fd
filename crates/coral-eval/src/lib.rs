//! Ground-truth evaluation for the Coral-Pie reproduction: replay a
//! scenario, score the trajectory graph against what actually happened,
//! and say *which pipeline stage* lost every miss.
//!
//! The paper's accuracy story (§5, Table 2) compares system output to
//! manually labeled ground truth. The simulator gives us that ground
//! truth for free — [`coral_sim::GroundTruthLog`] records every
//! (camera, vehicle, interval) FOV stay — so this crate closes the loop:
//!
//! 1. [`Scenario`] / [`replay_and_evaluate`] — deterministic replay of a
//!    corridor deployment under any [`coral_core::SystemConfig`].
//! 2. [`tracks`] — hypothesis tracks out of the trajectory graph by
//!    mutual-best-edge chaining.
//! 3. [`score`] — MOT-style metrics at camera-visit granularity: MOTA,
//!    IDF1, identity switches, fragmentations, per-camera event F2.
//! 4. [`attribution`] — every miss classified as detect-miss /
//!    track-loss / handoff-miss / re-id-mismatch from the run's evidence
//!    trail (per-frame detections, inform arrivals, graph edges).
//! 5. [`golden`] — pinned golden scores per scenario with a drift gate,
//!    so accuracy regressions fail tests instead of shipping.
//! 6. [`metrics`] — the paper's own run-level scores: per-camera event
//!    detection and re-identification precision / recall / F2 (Table 2,
//!    §5.6), inform redundancy (§5.3), and the [`SystemReport`] that
//!    bundles them with the candidate-pool statistics.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod attribution;
pub mod explain;
pub mod golden;
pub mod metrics;
pub mod replay;
pub mod score;
pub mod tracks;

pub use attribution::{attribute, AttributedMiss, AttributionSummary, MissKind, MissStage};
pub use explain::{explain_track_break, TrackBreakExplanation};
pub use golden::{check_golden, golden_path, render_report, GoldenTolerance};
pub use metrics::{
    event_detection_accuracy, inform_redundancy, reid_accuracy, report, transitions_from_passages,
    Accuracy, SystemReport, Transition,
};
pub use replay::{evaluate, replay_and_evaluate, EvalReport, Scenario};
pub use score::{score_tracks, IntervalMatch, TrackScore, MATCH_SLACK_MS};
pub use tracks::{extract_tracks, HypTrack};
