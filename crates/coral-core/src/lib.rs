//! Coral-Pie core: camera nodes, re-identification, and the end-to-end
//! space-time vehicle tracking system.
//!
//! This crate assembles the substrates into the paper's system:
//!
//! - [`CandidatePool`] — inform events awaiting re-identification, with
//!   lazy garbage collection (§4.1.3–4.1.4).
//! - [`ReIdentifier`] — Bhattacharyya-threshold matching with temporal
//!   gating (§4.1.4).
//! - [`CameraNode`] — one camera's full continuous-processing element:
//!   identification → communication → re-identification → storage (§4.1).
//! - [`deploy`] — topology wiring: camera placement, actor manufacture
//!   and the [`Deployment`] builder shared by every runtime mode.
//! - [`runtime`] — [`NodeDriver`] / [`ServerDriver`], the per-actor drive
//!   units generic over any `coral_net::Transport`, plus the
//!   discrete-event [`SimRuntime`].
//! - [`stepper`] — the deterministic scoped worker pool that fans each
//!   tick's per-camera analysis across threads and merges results in
//!   `CameraId` order, keeping parallel runs byte-identical.
//! - [`telemetry`] — run measurements and the [`TelemetrySink`] trait
//!   through which the runtime feeds them to [`Telemetry`] and
//!   [`CoreObs`].
//! - [`obs`] — the workspace observability glue: protocol counters in the
//!   shared metrics registry plus per-vehicle causal traces
//!   (detect → track → inform → transport hop → re-id) exported as Chrome
//!   `trace_event` JSON.
//! - [`CoralPieSystem`] — the one-object facade over the layers above:
//!   traffic, heartbeats, failures, message latency and the telemetry
//!   behind every §5 experiment.
//! - [`metrics`] — precision / recall / F2 scoring against simulator
//!   ground truth (Table 2, §5.6).
//!
//! # Examples
//!
//! ```
//! use coral_core::{CameraSpec, CoralPieSystem, SystemConfig};
//! use coral_geo::{generators, IntersectionId};
//! use coral_sim::SimTime;
//! use coral_topology::CameraId;
//!
//! let net = generators::corridor(3, 120.0, 12.0);
//! let specs: Vec<CameraSpec> = (0..3)
//!     .map(|i| CameraSpec {
//!         id: CameraId(i),
//!         site: IntersectionId(i),
//!         videoing_angle_deg: 0.0,
//!     })
//!     .collect();
//! let mut system = CoralPieSystem::new(net, &specs, SystemConfig::default());
//! system.run_until(SimTime::from_secs(3));
//! assert_eq!(system.server().active_cameras().len(), 3);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod deploy;
pub mod metrics;
pub mod node;
pub mod obs;
pub mod pool;
pub mod reid;
pub mod runtime;
pub mod stepper;
pub mod system;
pub mod telemetry;

pub use deploy::{CameraSpec, Deployment, SystemConfig};
pub use metrics::{
    event_detection_accuracy, reid_accuracy, transitions_from_passages, Accuracy, Passage,
    Transition,
};
pub use node::{CameraNode, FrameOutput, HandoffEdge, NodeConfig, ReidRecord};
pub use obs::{
    region_health_rules, region_subject, CoreObs, NodeObs, ServerObs, Stage, TickActivity,
};
pub use pool::{Candidate, CandidatePool, PoolStats};
pub use reid::{ReIdentifier, ReidConfig, ReidMatch};
pub use runtime::{
    region_endpoint, LivenessOutcome, NodeDriver, ServerDriver, SimRuntime, SimWorld,
};
pub use stepper::{StepStats, Stepper};
pub use system::CoralPieSystem;
pub use telemetry::{
    InformArrival, Recovery, RegionRecovery, SystemReport, Telemetry, TelemetrySink,
};
