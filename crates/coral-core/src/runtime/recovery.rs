//! The recovery plane: the topology server's failure-recovery
//! measurements (§3.3, §4.3). A camera kill is measured from the kill to
//! the last topology update that reconfigures a survivor; a region heal
//! from the heal to the last home camera heartbeating at the revived
//! server.

use super::*;

/// Open recovery measurements, each awaiting an outstanding camera set:
/// a measurement closes when the last camera of its set reports in.
struct Awaiting<R> {
    open: Vec<(R, BTreeSet<CameraId>)>,
}

impl<R: Copy> Awaiting<R> {
    /// Opens the measurement `record` awaiting `outstanding`. With nothing
    /// to await it closes at once, and `record` is returned.
    fn open(&mut self, record: R, outstanding: BTreeSet<CameraId>) -> Option<R> {
        if outstanding.is_empty() {
            return Some(record);
        }
        self.open.push((record, outstanding));
        None
    }

    /// Retires `camera` from every open measurement whose record `select`
    /// admits, and returns the records it closes, oldest first.
    fn retire(&mut self, camera: CameraId, select: impl Fn(&R) -> bool) -> Vec<R> {
        let mut closed = Vec::new();
        self.open.retain_mut(|(record, outstanding)| {
            if !select(record) || !outstanding.remove(&camera) || !outstanding.is_empty() {
                return true;
            }
            closed.push(*record);
            false
        });
        closed
    }
}

impl<R> Default for Awaiting<R> {
    fn default() -> Self {
        Self { open: Vec::new() }
    }
}

/// Killed cameras awaiting eviction, and the open camera and region
/// recovery measurements.
#[derive(Default)]
pub(super) struct RecoveryPlane {
    /// Kills the liveness sweep has not evicted yet: camera and kill time.
    pending_kills: Vec<(CameraId, SimTime)>,
    /// Camera recoveries awaiting a topology update at each reconfigured
    /// survivor.
    cameras: Awaiting<Recovery>,
    /// Fail-backs awaiting the first direct post-heal heartbeat of each
    /// live home camera.
    regions: Awaiting<RegionRecovery>,
}

impl RecoveryPlane {
    /// Camera `cam` was killed at `now`: it awaits eviction, and it
    /// leaves every open measurement's outstanding set, since a dead
    /// camera never reports in. A set this empties closes at `now`.
    pub(super) fn note_kill(
        &mut self,
        cam: CameraId,
        now: SimTime,
        telemetry: &mut Telemetry,
        obs: &CoreObs,
    ) {
        self.pending_kills.push((cam, now));
        self.note_update_delivered(cam, now, telemetry, obs);
        self.note_region_heartbeat(None, cam, now, telemetry);
    }

    /// Matches evicted cameras against scheduled kills and opens their
    /// recovery measurements, awaiting the survivors the sweep sent
    /// updates to (none affected: an instant recovery).
    pub(super) fn resolve_removed(
        &mut self,
        removed: BTreeSet<CameraId>,
        recipients: &BTreeSet<CameraId>,
        now: SimTime,
        telemetry: &mut Telemetry,
        obs: &CoreObs,
    ) {
        for killed in removed {
            let Some(pos) = self.pending_kills.iter().position(|&(c, _)| c == killed) else {
                continue;
            };
            let (_, killed_at) = self.pending_kills.remove(pos);
            let recovery = Recovery {
                killed,
                killed_at,
                recovered_at: now,
            };
            if let Some(recovery) = self.cameras.open(recovery, recipients.clone()) {
                record(telemetry, obs, recovery);
            }
        }
    }

    /// A topology update reached camera `to`: it retires `to` from every
    /// open camera recovery, recording those it completes newest first.
    pub(super) fn note_update_delivered(
        &mut self,
        to: CameraId,
        now: SimTime,
        telemetry: &mut Telemetry,
        obs: &CoreObs,
    ) {
        for recovery in self.cameras.retire(to, |_| true).into_iter().rev() {
            record(
                telemetry,
                obs,
                Recovery {
                    recovered_at: now,
                    ..recovery
                },
            );
        }
    }

    /// Opens the fail-back measurement of a healed region, awaiting its
    /// live home cameras (none alive: recovered at the heal instant).
    pub(super) fn open_region(
        &mut self,
        healed: RegionRecovery,
        outstanding: BTreeSet<CameraId>,
        telemetry: &mut Telemetry,
    ) {
        telemetry
            .region_recoveries
            .extend(self.regions.open(healed, outstanding));
    }

    /// A heartbeat from `camera` landed at region `region`'s server (or,
    /// with `None`, the camera died): it retires `camera` from that
    /// region's (or every region's) open fail-backs, recording those it
    /// completes.
    pub(super) fn note_region_heartbeat(
        &mut self,
        region: Option<u16>,
        camera: CameraId,
        now: SimTime,
        telemetry: &mut Telemetry,
    ) {
        let closed = self
            .regions
            .retire(camera, |r| region.is_none_or(|region| r.region == region));
        telemetry
            .region_recoveries
            .extend(closed.into_iter().map(|r| RegionRecovery {
                recovered_at: now,
                ..r
            }));
    }
}

fn record(telemetry: &mut Telemetry, obs: &CoreObs, recovery: Recovery) {
    telemetry.recoveries.push(recovery);
    obs.observe_recovery(&recovery);
}
