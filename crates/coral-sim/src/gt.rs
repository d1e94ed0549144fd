//! Ground-truth visibility log: which vehicle was in which camera's FOV,
//! and when.
//!
//! The evaluation layer (`coral-eval`) scores the system's trajectory
//! graph against what *actually* happened in the simulated world. This
//! module is the "what actually happened" side: a [`GroundTruthLog`]
//! accumulates per-camera FOV intervals for every ground-truth vehicle,
//! edge-triggered from the same scene-membership predicate the renderer
//! uses ([`crate::CameraView::in_fov`]), so rendered presence and logged
//! presence can never diverge.
//!
//! The log is a pure observer: it derives entirely from per-tick FOV sets
//! the runtime already computes, consumes no randomness and schedules no
//! events, so enabling it cannot perturb determinism fingerprints.

use coral_topology::CameraId;
use coral_vision::GroundTruthId;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// One contiguous stay of a vehicle inside a camera's field of view.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct FovInterval {
    /// The observing camera.
    pub camera: CameraId,
    /// The ground-truth vehicle.
    pub vehicle: GroundTruthId,
    /// Simulation time the vehicle entered the FOV, milliseconds.
    pub entered_ms: u64,
    /// Simulation time the vehicle left the FOV (or the camera stopped
    /// observing), milliseconds. `None` while still open.
    pub exited_ms: Option<u64>,
}

impl FovInterval {
    /// Whether `[entered_ms, exited_ms]` overlaps `[from_ms, to_ms]`,
    /// treating an open interval as extending to infinity.
    pub fn overlaps(&self, from_ms: u64, to_ms: u64) -> bool {
        let end = self.exited_ms.unwrap_or(u64::MAX);
        self.entered_ms <= to_ms && end >= from_ms
    }
}

/// Append-only record of every FOV interval in a simulation run.
///
/// Built by the runtime from per-tick scene membership; queried by the
/// evaluation layer for per-camera ground truth (which passages should
/// have produced a detection event) and per-vehicle space-time tracks
/// (which camera sequence the trajectory graph should reproduce).
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct GroundTruthLog {
    intervals: Vec<FovInterval>,
    /// Open interval index per (camera, vehicle); `BTreeMap` so iteration
    /// (and therefore closing order) is deterministic.
    #[serde(skip)]
    open: BTreeMap<(CameraId, GroundTruthId), usize>,
}

impl GroundTruthLog {
    /// An empty log.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records that `vehicle` entered `camera`'s FOV at `now_ms`.
    ///
    /// A duplicate entry for an already-open interval is ignored, keeping
    /// the log idempotent against replayed observations.
    pub fn record_entry(&mut self, camera: CameraId, vehicle: GroundTruthId, now_ms: u64) {
        if self.open.contains_key(&(camera, vehicle)) {
            return;
        }
        self.open.insert((camera, vehicle), self.intervals.len());
        self.intervals.push(FovInterval {
            camera,
            vehicle,
            entered_ms: now_ms,
            exited_ms: None,
        });
    }

    /// Records that `vehicle` left `camera`'s FOV at `now_ms`. A no-op if
    /// no interval is open for the pair.
    pub fn record_exit(&mut self, camera: CameraId, vehicle: GroundTruthId, now_ms: u64) {
        if let Some(i) = self.open.remove(&(camera, vehicle)) {
            self.intervals[i].exited_ms = Some(now_ms);
        }
    }

    /// Closes every open interval for `camera` at `now_ms` (the camera
    /// stopped observing — killed or shut down).
    pub fn close_camera(&mut self, camera: CameraId, now_ms: u64) {
        let keys: Vec<_> = self
            .open
            .range((camera, GroundTruthId(0))..=(camera, GroundTruthId(u64::MAX)))
            .map(|(&k, _)| k)
            .collect();
        for k in keys {
            let i = self.open.remove(&k).expect("key just listed");
            self.intervals[i].exited_ms = Some(now_ms);
        }
    }

    /// Closes every open interval at `now_ms` (end of run).
    pub fn close_all(&mut self, now_ms: u64) {
        let open = std::mem::take(&mut self.open);
        for (_, i) in open {
            self.intervals[i].exited_ms = Some(now_ms);
        }
    }

    /// All intervals, in entry order.
    pub fn intervals(&self) -> &[FovInterval] {
        &self.intervals
    }

    /// Vehicles currently inside `camera`'s FOV, ascending id.
    pub fn currently_in_fov(&self, camera: CameraId) -> Vec<GroundTruthId> {
        self.open
            .range((camera, GroundTruthId(0))..=(camera, GroundTruthId(u64::MAX)))
            .map(|(&(_, v), _)| v)
            .collect()
    }

    /// Every distinct vehicle in the log, ascending id.
    pub fn vehicles(&self) -> Vec<GroundTruthId> {
        let mut ids: Vec<GroundTruthId> = self.intervals.iter().map(|i| i.vehicle).collect();
        ids.sort_unstable();
        ids.dedup();
        ids
    }

    /// The ground-truth space-time track of `vehicle`: its FOV intervals
    /// ordered by entry time (ties broken by camera id).
    pub fn track_of(&self, vehicle: GroundTruthId) -> Vec<FovInterval> {
        let mut track: Vec<FovInterval> = self
            .intervals
            .iter()
            .filter(|i| i.vehicle == vehicle)
            .copied()
            .collect();
        track.sort_by_key(|i| (i.entered_ms, i.camera));
        track
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cam(id: u32) -> CameraId {
        CameraId(id)
    }
    fn veh(id: u64) -> GroundTruthId {
        GroundTruthId(id)
    }

    #[test]
    fn entry_exit_forms_closed_interval() {
        let mut log = GroundTruthLog::new();
        log.record_entry(cam(1), veh(7), 100);
        assert_eq!(log.currently_in_fov(cam(1)), vec![veh(7)]);
        log.record_exit(cam(1), veh(7), 250);
        assert!(log.currently_in_fov(cam(1)).is_empty());
        assert_eq!(
            log.intervals(),
            &[FovInterval {
                camera: cam(1),
                vehicle: veh(7),
                entered_ms: 100,
                exited_ms: Some(250),
            }]
        );
    }

    #[test]
    fn duplicate_entry_is_idempotent_and_reentry_opens_new_interval() {
        let mut log = GroundTruthLog::new();
        log.record_entry(cam(1), veh(7), 100);
        log.record_entry(cam(1), veh(7), 120); // duplicate, ignored
        log.record_exit(cam(1), veh(7), 200);
        log.record_exit(cam(1), veh(7), 210); // no open interval, ignored
        log.record_entry(cam(1), veh(7), 300); // genuine re-entry
        assert_eq!(log.intervals().len(), 2);
        assert_eq!(log.intervals()[0].exited_ms, Some(200));
        assert_eq!(log.intervals()[1].entered_ms, 300);
        assert_eq!(log.intervals()[1].exited_ms, None);
    }

    #[test]
    fn close_camera_only_touches_that_camera() {
        let mut log = GroundTruthLog::new();
        log.record_entry(cam(1), veh(7), 100);
        log.record_entry(cam(2), veh(7), 110);
        log.record_entry(cam(1), veh(8), 120);
        log.close_camera(cam(1), 500);
        assert!(log.currently_in_fov(cam(1)).is_empty());
        assert_eq!(log.currently_in_fov(cam(2)), vec![veh(7)]);
        log.close_all(900);
        assert!(log.intervals().iter().all(|i| i.exited_ms.is_some()));
    }

    #[test]
    fn track_is_ordered_by_entry_time() {
        let mut log = GroundTruthLog::new();
        log.record_entry(cam(2), veh(7), 300);
        log.record_entry(cam(3), veh(9), 150);
        log.record_entry(cam(1), veh(7), 100);
        log.close_all(1000);
        let track = log.track_of(veh(7));
        assert_eq!(track.len(), 2);
        assert_eq!(track[0].camera, cam(1));
        assert_eq!(track[1].camera, cam(2));
        assert_eq!(log.vehicles(), vec![veh(7), veh(9)]);
    }

    #[test]
    fn overlap_treats_open_intervals_as_unbounded() {
        let open = FovInterval {
            camera: cam(1),
            vehicle: veh(1),
            entered_ms: 100,
            exited_ms: None,
        };
        assert!(open.overlaps(500, 600));
        assert!(!open.overlaps(0, 99));
        let closed = FovInterval {
            exited_ms: Some(200),
            ..open
        };
        assert!(closed.overlaps(150, 300));
        assert!(!closed.overlaps(201, 300));
    }
}
