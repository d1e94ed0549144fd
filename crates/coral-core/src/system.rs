//! The end-to-end Coral-Pie system facade.
//!
//! `CoralPieSystem` is a thin shell over the layered runtime: a
//! [`Deployment`] wires camera nodes, the
//! topology server and ground-truth traffic onto a simulated network, and a
//! [`SimRuntime`] drives them on the
//! discrete-event engine. The facade keeps the one-object API the tests,
//! examples and experiment binaries use, and collects the telemetry behind
//! every system experiment in the paper's §5: inform arrival times
//! (Fig. 10a), candidate-pool pollution (Figs. 10b, 12b), failure recovery
//! (Fig. 11) and application-level accuracy (Table 2).

pub use crate::deploy::{CameraSpec, SystemConfig};
pub use crate::telemetry::{InformArrival, Recovery, SystemReport, Telemetry};

use crate::deploy::Deployment;
use crate::metrics::{event_detection_accuracy, reid_accuracy, transitions_from_passages};
use crate::node::CameraNode;
use crate::runtime::SimRuntime;
use crate::telemetry;
use coral_geo::{GeoPoint, RoadNetwork};
use coral_sim::{FailureKind, FailureSchedule, PoissonArrivals, SimTime, TrafficModel};
use coral_storage::EdgeStorageNode;
use coral_topology::{CameraId, TopologyServer};
use std::collections::{BTreeMap, BTreeSet};

/// The deployed system.
#[derive(Debug)]
pub struct CoralPieSystem {
    runtime: SimRuntime,
}

impl CoralPieSystem {
    /// Deploys cameras on `net` at the given intersections and schedules
    /// the initial event cycle.
    pub fn new(net: RoadNetwork, cameras: &[CameraSpec], config: SystemConfig) -> Self {
        Self {
            runtime: Deployment::from_specs(net, cameras, config).build(),
        }
    }

    /// Deploys cameras by raw geographic position — the paper's actual
    /// join semantics (§3.3): the topology server snaps each camera to the
    /// nearest intersection, or assigns it to a lane when it sits along a
    /// road segment (§4.3, Fig. 8). Use this to deploy lane-resident
    /// cameras.
    pub fn with_positions(
        net: RoadNetwork,
        cameras: &[(CameraId, GeoPoint, f64)],
        config: SystemConfig,
    ) -> Self {
        Self {
            runtime: Deployment::from_positions(net, cameras, config).build(),
        }
    }

    /// The underlying discrete-event runtime.
    pub fn runtime(&self) -> &SimRuntime {
        &self.runtime
    }

    /// The underlying discrete-event runtime, mutably.
    pub fn runtime_mut(&mut self) -> &mut SimRuntime {
        &mut self.runtime
    }

    /// The traffic model (to add lights or spawn vehicles before running).
    pub fn traffic_mut(&mut self) -> &mut TrafficModel {
        self.runtime.world_mut().traffic_mut()
    }

    /// The traffic model, read-only.
    pub fn traffic(&self) -> &TrafficModel {
        self.runtime.world().traffic()
    }

    /// Installs an open-workload arrival process.
    pub fn set_arrivals(&mut self, arrivals: PoissonArrivals) {
        self.runtime.world_mut().set_arrivals(arrivals);
    }

    /// Schedules the failure workload.
    pub fn set_failures(&mut self, schedule: &FailureSchedule) {
        for event in schedule.events() {
            match event.kind {
                FailureKind::Kill => self.runtime.schedule_kill(event.at, event.camera),
                FailureKind::Restore => self.runtime.schedule_restore(event.at, event.camera),
            }
        }
    }

    /// Schedules a whole-region partition at `at`: the region's topology
    /// server and edge store stop acking until restored.
    pub fn schedule_region_kill(&mut self, at: SimTime, region: u16) {
        self.runtime.schedule_region_kill(at, region);
    }

    /// Schedules the heal of a region partition at `at`.
    pub fn schedule_region_restore(&mut self, at: SimTime, region: u16) {
        self.runtime.schedule_region_restore(at, region);
    }

    /// Number of regions (`SystemConfig::regions`, at least 1).
    pub fn regions(&self) -> usize {
        self.runtime.world().regions()
    }

    /// Runs `f` over the deployment-wide trajectory graph: the
    /// owner-preferring union of every region store (with one region, the
    /// store's own flat view).
    pub fn with_trajectory_graph<R>(
        &self,
        f: impl FnOnce(&coral_storage::TrajectoryGraph) -> R,
    ) -> R {
        self.runtime.world().with_trajectory_graph(f)
    }

    /// The current simulation time.
    pub fn now(&self) -> SimTime {
        self.runtime.now()
    }

    /// Total discrete events executed by the engine so far (ticks,
    /// deliveries, heartbeats, sweeps). Deltas across a window give the
    /// event rate — the denominator for per-event cost accounting.
    pub fn events_executed(&self) -> u64 {
        self.runtime.events_executed()
    }

    /// Region 0's storage node (the only one with a single region).
    pub fn storage(&self) -> &EdgeStorageNode {
        self.runtime.world().storage()
    }

    /// Region 0's topology server (every live region server holds the same
    /// replicated state).
    pub fn server(&self) -> &TopologyServer {
        self.runtime.world().server()
    }

    /// A camera node, if deployed.
    pub fn node(&self, id: CameraId) -> Option<&CameraNode> {
        self.runtime.world().node(id)
    }

    /// Cameras currently alive.
    pub fn alive(&self) -> &BTreeSet<CameraId> {
        self.runtime.world().alive()
    }

    /// Accumulated telemetry.
    pub fn telemetry(&self) -> &Telemetry {
        self.runtime.world().telemetry()
    }

    /// The ground-truth FOV interval log: which vehicle was in which
    /// camera's field of view, and when. Open intervals are closed by
    /// [`CoralPieSystem::finish`]; the evaluation layer scores trajectory
    /// graphs against this record.
    pub fn ground_truth(&self) -> &coral_sim::GroundTruthLog {
        self.runtime.world().ground_truth()
    }

    /// The deployment-wide observability bundle: the shared metrics
    /// registry (protocol counters, stage/storage latency histograms) and
    /// the per-vehicle causal tracer.
    pub fn observability(&self) -> &crate::obs::CoreObs {
        self.runtime.world().observability()
    }

    /// Turns on per-vehicle causal tracing. Call before
    /// [`CoralPieSystem::run_until`]; export afterwards with
    /// `observability().tracer().export_chrome()`.
    pub fn enable_tracing(&mut self) {
        self.runtime.world_mut().enable_tracing();
    }

    /// Runs the system until `until`.
    pub fn run_until(&mut self, until: SimTime) {
        self.runtime.run_until(until);
    }

    /// Flushes all in-flight tracks at the end of a run, synchronously
    /// delivering the resulting protocol messages.
    pub fn finish(&mut self) {
        self.runtime.finish();
    }

    /// Ground-truth-based inform redundancy per camera: the fraction of
    /// delivered inform messages whose vehicle never subsequently entered
    /// the receiving camera's field of view (the §5.3 methodology; see
    /// [`telemetry::inform_redundancy`]).
    pub fn inform_redundancy(&self) -> BTreeMap<CameraId, (u64, u64)> {
        let world = self.runtime.world();
        telemetry::inform_redundancy(world.telemetry(), world.nodes().map(|(id, _)| id))
    }

    /// Builds the accuracy/pool report for the run so far.
    pub fn report(&self) -> SystemReport {
        let world = self.runtime.world();
        let t = world.telemetry();
        let events: Vec<(CameraId, Option<coral_vision::GroundTruthId>)> =
            t.events.iter().map(|&(c, gt, _)| (c, gt)).collect();
        let detection = event_detection_accuracy(&t.passages, &events);
        let transitions = transitions_from_passages(&t.passages);
        let reid = world.with_trajectory_graph(|g| reid_accuracy(g, &transitions));
        let pools = world
            .nodes()
            .map(|(id, n)| (id, (n.pool().stats(), n.pool().spurious_fraction())))
            .collect();
        SystemReport {
            detection,
            reid,
            transitions,
            pools,
        }
    }
}
