//! Run telemetry: the evaluation evidence behind every system experiment
//! in the paper's §5.

use coral_sim::{SimDuration, SimTime};
use coral_topology::CameraId;
use coral_vision::GroundTruthId;
use serde::{Deserialize, Serialize};

/// A ground-truth vehicle passage through a camera's field of view.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Passage {
    /// The camera passed.
    pub camera: CameraId,
    /// The vehicle.
    pub vehicle: GroundTruthId,
    /// When the vehicle entered the FOV, ms.
    pub entered_ms: u64,
}

/// An inform-message arrival at a camera (the Fig. 10a measurement).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct InformArrival {
    /// Receiving camera.
    pub at: CameraId,
    /// The camera that generated the event.
    pub from: CameraId,
    /// Ground-truth vehicle of the event, if attributable.
    pub vehicle: Option<GroundTruthId>,
    /// Delivery time.
    pub arrived: SimTime,
}

/// A completed failure-recovery measurement (the Fig. 11 metric).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Recovery {
    /// The failed camera.
    pub killed: CameraId,
    /// When it was killed.
    pub killed_at: SimTime,
    /// When the last affected camera received its topology update.
    pub recovered_at: SimTime,
}

impl Recovery {
    /// The recovery duration.
    pub fn duration(&self) -> SimDuration {
        self.recovered_at.since(self.killed_at)
    }
}

/// A completed region-failover measurement (multi-region deployments): one
/// whole region's server and store were partitioned away, restored, and
/// every surviving home camera's heartbeat landed back at the revived
/// region server.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RegionRecovery {
    /// The partitioned region.
    pub region: u16,
    /// When the partition opened.
    pub killed_at: SimTime,
    /// When the partition healed (the region came back).
    pub restored_at: SimTime,
    /// When the last surviving home camera's heartbeat was received
    /// directly by the revived region server again.
    pub recovered_at: SimTime,
}

impl RegionRecovery {
    /// How long the region was partitioned.
    pub fn downtime(&self) -> SimDuration {
        self.restored_at.since(self.killed_at)
    }

    /// How long re-convergence took after the heal.
    pub fn recovery(&self) -> SimDuration {
        self.recovered_at.since(self.restored_at)
    }
}

/// Evaluation evidence accumulated over a run: the ground-truth and
/// per-delivery records the paper's §5 experiments and `coral-eval` score
/// against. Counters belong in the [`CoreObs`](crate::CoreObs) registry;
/// this holds only what a scorer must join record by record.
#[derive(Debug, Clone, Default)]
pub struct Telemetry {
    /// Ground-truth FOV passages.
    pub passages: Vec<Passage>,
    /// Inform-message arrivals.
    pub informs: Vec<InformArrival>,
    /// Completed failure recoveries.
    pub recoveries: Vec<Recovery>,
    /// Completed region-failover cycles (multi-region deployments only).
    pub region_recoveries: Vec<RegionRecovery>,
    /// Detection events generated: `(camera, ground truth, at)`.
    pub events: Vec<(CameraId, Option<GroundTruthId>, SimTime)>,
    /// Per-frame detector hits on ground-truth vehicles:
    /// `(camera, vehicle, at)`. The raw evidence the evaluation layer uses
    /// to attribute misses to the detect stage vs. the track stage.
    pub detections: Vec<(CameraId, GroundTruthId, SimTime)>,
}
