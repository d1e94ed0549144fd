//! Deployment: topology wiring shared by every runtime mode.
//!
//! A [`Deployment`] resolves camera placements against the road network
//! and manufactures the actors — the topology server and the per-camera
//! nodes — with the exact seeds and view geometry the experiments pin.
//! [`Deployment::build`] wires them onto a simulated network and launches
//! the discrete-event runtime; [`Deployment::build_threaded`] wires them
//! onto real-time transports (the in-process router or TCP sockets) for
//! the threaded runtime. Both build every link with the same stack.

use crate::driver::{build_link, region_endpoint, NodeDriver, ServerDriver};
use crate::node::{CameraNode, NodeConfig};
use crate::obs::{default_health_rules, region_health_rules, CoreObs, HANDOFF_DEADLINE_MS};
use crate::runtime::{SimLink, SimRuntime, SimWorld};
use crate::threaded::ThreadedRuntime;
use coral_geo::{GeoPoint, IntersectionId, RoadNetwork};
use coral_net::{Endpoint, FaultPlan, RetryPolicy, SimNet, Transport};
use coral_sim::{CameraView, LinkProfile, SceneEffects, SimDuration, TrafficConfig, TrafficModel};
use coral_storage::{EdgeStorageNode, FederatedStores, StorageConfig};
use coral_topology::{CameraId, MdcsOptions, ServerConfig, TopologyServer};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::BTreeMap;

/// Camera observation range, meters.
const VIEW_RANGE_M: f64 = 35.0;

/// Whole-system configuration.
#[derive(Debug, Clone)]
pub struct SystemConfig {
    /// Per-node configuration (vision, re-id, pool).
    pub node: NodeConfig,
    /// Frame capture period (96 ms ≈ the prototype's 10.4 FPS). Every
    /// camera node gets it too, to date a track's first sighting.
    pub frame_period: SimDuration,
    /// Camera heartbeat interval (§5.4 evaluates 2 s and 5 s).
    pub heartbeat_interval: SimDuration,
    /// Missed heartbeats before the server declares a camera failed.
    pub miss_threshold: u32,
    /// How often the server scans for missed heartbeats.
    pub liveness_check_period: SimDuration,
    /// MDCS search options.
    pub mdcs: MdcsOptions,
    /// Network latency models.
    pub links: LinkProfile,
    /// Traffic model parameters.
    pub traffic: TrafficConfig,
    /// Camera image width, pixels.
    pub image_width: u32,
    /// Camera image height, pixels.
    pub image_height: u32,
    /// Adversarial scene effects (occlusion culling, clutter bursts)
    /// applied by every camera, re-seeded per camera so phantom draws are
    /// decorrelated. `None` keeps rendering clean.
    pub scene_effects: Option<SceneEffects>,
    /// Replace MDCS routing with broadcast flooding (the §5.3 baseline):
    /// [`Deployment::make_node`] gives every node the deployed roster to
    /// flood, so the switch holds in every deployment mode.
    pub broadcast: bool,
    /// Seeded fault injection on every link (chaos testing). `None` keeps
    /// the fault layer a verbatim passthrough.
    pub faults: Option<FaultPlan>,
    /// At-least-once delivery (sequence numbers, acks, bounded
    /// retransmission with backoff) on every link. `None` keeps the
    /// reliability layer a verbatim passthrough.
    pub reliability: Option<RetryPolicy>,
    /// Worker threads for the per-tick camera fan-out (the frame analysis
    /// phase: render → detect → SORT → feature-extract). `1` (or `0`)
    /// steps cameras sequentially on the engine thread. Results are
    /// merged back in `CameraId` order before any shared-state effect, so
    /// every value produces byte-identical runs — parallelism only trades
    /// wall-clock time.
    pub parallelism: usize,
    /// Evaluate the health/SLO engine once per sim-second over the
    /// metrics registry, journaling verdict transitions. The engine is a
    /// pure observer — it consumes no randomness and schedules no events
    /// — so toggling it cannot change simulation outcomes.
    pub health_checks: bool,
    /// Trajectory-store sharding. The default single shard is
    /// byte-identical to the flat graph; raising `shard_count`
    /// re-partitions the store by space-time key without changing any
    /// query answer (vertex ids are allocated globally, so ids and the
    /// merged view are shard-count-invariant).
    pub storage: StorageConfig,
    /// Event-driven stepping: consult the spatial occupancy index each
    /// tick and take a cheap early-out for cameras with no nearby vehicle
    /// and no live tracks. The early-out advances the frame counter
    /// without rendering, detection or RNG draws — exactly what the full
    /// path does for an empty scene — so `true` and `false` produce
    /// byte-identical runs; sparse stepping only trades wall-clock time.
    pub sparse_stepping: bool,
    /// Number of geographic regions (`0` counts as `1`). Cameras are
    /// partitioned into contiguous stripes of the id-sorted roster; each
    /// region runs its own topology server and trajectory store, cameras
    /// fail over onto a surviving region when theirs stops acking
    /// heartbeats (detected by the reliability layer), and
    /// boundary-crossing edges are replicated to the upstream region's
    /// store. One region is the classic deployment.
    pub regions: u16,
    /// Master seed for all stochastic components.
    pub seed: u64,
}

impl Default for SystemConfig {
    fn default() -> Self {
        Self {
            node: NodeConfig::default(),
            frame_period: SimDuration::from_millis(96),
            heartbeat_interval: SimDuration::from_secs(2),
            miss_threshold: 2,
            liveness_check_period: SimDuration::from_millis(200),
            mdcs: MdcsOptions::default(),
            links: LinkProfile::default(),
            traffic: TrafficConfig::default(),
            image_width: 200,
            image_height: 160,
            scene_effects: None,
            broadcast: false,
            faults: None,
            reliability: None,
            parallelism: 1,
            health_checks: true,
            storage: StorageConfig::default(),
            sparse_stepping: true,
            regions: 1,
            seed: 42,
        }
    }
}

/// Deployment spec of one camera.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CameraSpec {
    /// Camera id.
    pub id: CameraId,
    /// Intersection the camera watches.
    pub site: IntersectionId,
    /// Videoing angle, degrees clockwise from north.
    pub videoing_angle_deg: f64,
}

/// Seed-mixing constant decorrelating the traffic RNG from the system RNG.
const TRAFFIC_SEED_MIX: u64 = 0x070A_FF1C;

/// Seed-mixing constant for the network latency RNG.
const NET_SEED_MIX: u64 = 0x1a7e;

/// Per-camera seed mixing base.
const NODE_SEED_BASE: u64 = 0x5eed;

/// Raw frames each store retains per camera.
const FRAMES_PER_CAMERA: usize = 512;

/// A resolved deployment: camera placements on a road network plus the
/// system configuration.
#[derive(Debug, Clone)]
pub struct Deployment {
    net: RoadNetwork,
    placements: Vec<(CameraId, GeoPoint, f64)>,
    config: SystemConfig,
}

impl Deployment {
    /// Places cameras at named intersections.
    ///
    /// # Panics
    ///
    /// Panics if a spec names an intersection absent from `net`.
    pub fn from_specs(net: RoadNetwork, specs: &[CameraSpec], config: SystemConfig) -> Self {
        let placements: Vec<(CameraId, GeoPoint, f64)> = specs
            .iter()
            .map(|spec| {
                let position = net
                    .intersection(spec.site)
                    .expect("camera site exists")
                    .position;
                (spec.id, position, spec.videoing_angle_deg)
            })
            .collect();
        Self {
            net,
            placements,
            config,
        }
    }

    /// Places cameras by raw geographic position — the paper's actual join
    /// semantics (§3.3): the topology server snaps each camera to the
    /// nearest intersection, or assigns it to a lane when it sits along a
    /// road segment (§4.3, Fig. 8). Use this to deploy lane-resident
    /// cameras.
    pub fn from_positions(
        net: RoadNetwork,
        placements: &[(CameraId, GeoPoint, f64)],
        config: SystemConfig,
    ) -> Self {
        Self {
            net,
            placements: placements.to_vec(),
            config,
        }
    }

    /// The road network.
    pub fn net(&self) -> &RoadNetwork {
        &self.net
    }

    /// The resolved `(camera, position, videoing angle)` placements.
    pub fn placements(&self) -> &[(CameraId, GeoPoint, f64)] {
        &self.placements
    }

    /// The system configuration.
    pub fn config(&self) -> &SystemConfig {
        &self.config
    }

    /// Manufactures the topology server for this deployment.
    pub fn make_server(&self) -> TopologyServer {
        TopologyServer::new(
            self.net.clone(),
            ServerConfig {
                heartbeat_interval_ms: self.config.heartbeat_interval.as_millis(),
                miss_threshold: self.config.miss_threshold,
                snap_radius_m: 30.0,
                mdcs: self.config.mdcs,
            },
        )
    }

    /// Manufactures the camera node for placement `id`, sharing `storage`.
    /// Seeds, view geometry and inform routing (MDCS, or the flood of every
    /// placement when `broadcast` is set) are identical across deployment
    /// modes, so the same placement produces the same node everywhere.
    pub fn make_node(&self, id: CameraId, storage: EdgeStorageNode) -> Option<CameraNode> {
        let &(_, position, angle) = self.placements.iter().find(|&&(c, _, _)| c == id)?;
        let view = CameraView {
            position,
            videoing_angle_deg: angle,
            range_m: VIEW_RANGE_M,
            image_width: self.config.image_width,
            image_height: self.config.image_height,
            effects: self
                .config
                .scene_effects
                .map(|e| e.seeded(e.seed ^ u64::from(id.0).wrapping_mul(0x9e37_79b9_7f4a_7c15))),
        };
        let mut node = CameraNode::new(
            id,
            view,
            self.config.node.clone(),
            self.config.frame_period,
            storage,
            self.config.seed ^ (NODE_SEED_BASE + id.0 as u64),
        );
        if self.config.broadcast {
            node.flood_to(self.placements.iter().map(|&(c, _, _)| c));
        }
        Some(node)
    }

    /// The deployment's observer, which every actor is built metered
    /// into: the default health rules when `health_checks` is set (plus
    /// the region rules when `regions > 1`).
    fn make_obs(&self, regions: usize) -> CoreObs {
        let obs = CoreObs::new();
        let heartbeat_ms = self.config.heartbeat_interval.as_millis();
        let miss_threshold = u64::from(self.config.miss_threshold);
        let mut rules = default_health_rules(
            heartbeat_ms,
            miss_threshold,
            HANDOFF_DEADLINE_MS,
            self.config.sparse_stepping,
        );
        // Region contact only means something when a region has peers; one
        // region keeps the classic rule set and metric surface.
        if regions > 1 {
            rules.extend(region_health_rules(heartbeat_ms, miss_threshold));
            obs.registry().describe(
                "region_last_contact_ms",
                "Per-region sim-clock timestamp of the last directly received heartbeat",
            );
        }
        if self.config.health_checks {
            obs.install_health_rules(rules);
        }
        obs
    }

    /// The ground-truth traffic model for this deployment.
    pub fn make_traffic(&self) -> TrafficModel {
        TrafficModel::new(
            self.net.clone(),
            self.config.traffic,
            self.config.seed ^ TRAFFIC_SEED_MIX,
        )
    }

    /// Wires the deployment onto a simulated network and launches the
    /// discrete-event runtime: one topology server and one trajectory
    /// store per region, cameras partitioned into contiguous stripes of
    /// the id-sorted roster, each node writing to (and heartbeating at)
    /// its home region. Every actor and link is built metered into one
    /// observer.
    pub fn build(self) -> SimRuntime {
        let regions = usize::from(self.config.regions.max(1));
        let obs = self.make_obs(regions);
        let stores = FederatedStores::new(regions, FRAMES_PER_CAMERA, self.config.storage.clone());
        for store in stores.nodes() {
            store.instrument(obs.registry());
        }
        let traffic = self.make_traffic();
        let links = self.config.links;
        let mut rng = StdRng::seed_from_u64(self.config.seed ^ NET_SEED_MIX);
        let net = SimNet::new(move |envelope| {
            if envelope.is_cloud_bound() {
                links.device_to_cloud.sample(&mut rng)
            } else {
                links.device_to_device.sample(&mut rng)
            }
        });
        // Home regions: contiguous stripes over the id-sorted roster, so
        // neighboring cameras (grid deployments number them row-major)
        // mostly share a region and the boundary is where stripes meet.
        let mut roster: Vec<CameraId> = self.placements.iter().map(|&(id, _, _)| id).collect();
        roster.sort_unstable();
        roster.dedup();
        let n = roster.len().max(1);
        let home: BTreeMap<CameraId, u16> = roster
            .iter()
            .enumerate()
            .map(|(i, &id)| (id, (((i * regions) / n).min(regions - 1)) as u16))
            .collect();
        let servers: Vec<ServerDriver<SimLink>> = (0..regions)
            .map(|r| {
                let endpoint = region_endpoint(r as u16);
                let link = build_link(&self.config, net.handle(endpoint), endpoint, &obs);
                let mut driver = ServerDriver::new(self.make_server(), link, &obs);
                driver.set_endpoint(endpoint);
                driver
            })
            .collect();
        let mut drivers = BTreeMap::new();
        let join_order: Vec<CameraId> = self.placements.iter().map(|&(id, _, _)| id).collect();
        for &id in &join_order {
            let region = home[&id];
            let node = self
                .make_node(id, stores.node(usize::from(region)).clone())
                .expect("placement exists");
            let endpoint = Endpoint::Camera(id);
            let link = build_link(&self.config, net.handle(endpoint), endpoint, &obs);
            let mut driver = NodeDriver::new(node, link, &obs);
            driver.set_parent(region_endpoint(region));
            drivers.insert(id, driver);
        }
        let world = SimWorld::new(self.config, net, obs, servers, stores, traffic, drivers);
        SimRuntime::launch(world, &join_order)
    }

    /// Wires the deployment onto real-time transports and returns the
    /// threaded runtime: one topology server and one trajectory store
    /// (a single region), and one camera node per placement, each built
    /// metered into one observer. `raw` makes each endpoint's raw
    /// transport, the server's first, and every one is made here, before
    /// any thread starts.
    ///
    /// # Panics
    ///
    /// Panics if the config asks for more than one region.
    pub fn build_threaded<T: Transport + Send>(
        self,
        mut raw: impl FnMut(Endpoint) -> T,
    ) -> ThreadedRuntime<T> {
        assert!(
            self.config.regions <= 1,
            "the threaded runtime deploys one region"
        );
        let obs = self.make_obs(1);
        let storage = EdgeStorageNode::with_config(FRAMES_PER_CAMERA, self.config.storage.clone());
        storage.instrument(obs.registry());
        let endpoint = Endpoint::TopologyServer;
        let link = build_link(&self.config, raw(endpoint), endpoint, &obs);
        let server = ServerDriver::new(self.make_server(), link, &obs);
        let drivers = self
            .placements
            .iter()
            .map(|&(id, _, _)| {
                let endpoint = Endpoint::Camera(id);
                let node = self
                    .make_node(id, storage.clone())
                    .expect("placement exists");
                let link = build_link(&self.config, raw(endpoint), endpoint, &obs);
                NodeDriver::new(node, link, &obs)
            })
            .collect();
        let traffic = self.make_traffic();
        ThreadedRuntime::new(self.config, obs, server, drivers, storage, traffic)
    }
}
