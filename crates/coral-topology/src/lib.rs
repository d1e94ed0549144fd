//! Camera topology management and MDCS computation for Coral-Pie.
//!
//! This crate implements the paper's camera-topology layer (§3.3, §4.3):
//!
//! - [`CameraTopology`] — the road network annotated with camera placements,
//!   at intersections or geographically ordered along lanes.
//! - [`mdcs`] — the *minimum downstream camera set* search: a DFS from a
//!   camera along a vehicle heading, with each branch stopping at the first
//!   camera it encounters.
//! - [`TopologyServer`] — the cloud component that registers cameras from
//!   heartbeats, detects failures, and disseminates recomputed MDCS tables
//!   (the self-healing path evaluated in Fig. 11).
//!
//! # Examples
//!
//! ```
//! use coral_geo::{generators, Heading};
//! use coral_topology::{mdcs, CameraId, CameraTopology, MdcsOptions};
//!
//! let (net, sites) = generators::campus();
//! let mut topo = CameraTopology::new(net);
//! for (i, &site) in sites.iter().enumerate() {
//!     topo.place_at_intersection(CameraId(i as u32), site, 0.0)?;
//! }
//! let set = mdcs::mdcs_for(&topo, CameraId(0), Heading::East, MdcsOptions::default());
//! assert!(!set.is_empty());
//! # Ok::<(), coral_topology::TopologyError>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod camera;
pub mod mdcs;
pub mod server;
pub mod topology;

pub use camera::{Camera, CameraId, CameraSite};
pub use mdcs::{mdcs_for, mdcs_table, mean_mdcs_size, MdcsOptions, MdcsTable};
pub use server::{LivenessSweep, MdcsUpdate, ServerConfig, TimestampMs, TopologyServer};
pub use topology::{CameraTopology, TopologyError};
