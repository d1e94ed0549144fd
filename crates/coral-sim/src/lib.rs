//! Discrete-event simulation substrate for Coral-Pie: clock, engine,
//! traffic, network latency and failure injection.
//!
//! The paper augments its five-camera in-situ evaluation with
//! simulation-based studies of self-healing and scalability (§5.4–5.5).
//! This crate is the simulation backbone for the whole reproduction:
//!
//! - [`SimTime`] / [`SimDuration`] — the deterministic clock.
//! - [`Engine`] — a deterministic discrete-event scheduler.
//! - [`TrafficModel`] — ground-truth vehicles on the road network, gated by
//!   [`TrafficLight`]s, with [`PoissonArrivals`] workload generation.
//! - [`CameraView`] — projects traffic into per-camera scenes for the
//!   vision pipeline.
//! - [`LatencyModel`] / [`LinkProfile`] — LAN/WAN message-latency models.
//! - [`FailureSchedule`] — the §5.4 kill-10-of-37 failure workload.
//! - [`GroundTruthLog`] — per-camera FOV intervals: the ground truth the
//!   evaluation layer scores trajectory graphs against.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod engine;
pub mod failure;
pub mod gt;
pub mod lights;
pub mod netmodel;
pub mod observe;
pub mod occupancy;
pub mod scenario;
pub mod time;
pub mod traffic;

pub use engine::{Context, Engine};
pub use failure::{FailureEvent, FailureKind, FailureSchedule};
pub use gt::{FovInterval, GroundTruthLog};
pub use lights::{LightPhase, TrafficLight};
pub use netmodel::{LatencyModel, LinkProfile};
pub use observe::{CameraView, ClutterBurst, SceneEffects};
pub use occupancy::{slack_for, OccupancyIndex, DEFAULT_SLACK_M, MIN_REUSE_TICKS};
pub use scenario::{IncidentSpec, Regime, ScenarioSpec};
pub use time::{SimDuration, SimTime};
pub use traffic::{
    CarFollowModel, IdmParams, MobilParams, PoissonArrivals, SurgeProfile, TrafficConfig,
    TrafficEvent, TrafficModel, VehicleId, VehicleState,
};
