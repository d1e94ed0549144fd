//! The layered runtime: node/server drivers generic over any
//! [`Transport`], the one link stack every endpoint is built with, and the
//! discrete-event world that drives them.
//!
//! [`NodeDriver`] and [`ServerDriver`] bind a protocol actor (a
//! [`CameraNode`] or the [`TopologyServer`]) to one [`Link`]: the
//! reliability and fault layers over a raw transport. The same drive
//! methods serve both runtimes: the DES ([`SimRuntime`], over
//! [`SimTransport`]) and the threaded runtime
//! ([`ThreadedRuntime`](crate::ThreadedRuntime), one OS thread per actor
//! over `InProcTransport` or loopback `TcpTransport`). The DES integration
//! schedules exactly one engine delivery action per in-flight envelope,
//! reproducing the event order of the original monolithic event loop bit
//! for bit.

use crate::deploy::SystemConfig;
use crate::node::{CameraNode, FrameAnalysis, FrameOutput};
use crate::obs::{
    camera_pid, region_subject, subject_for, CoreObs, NodeObs, ServerObs, TickActivity, SERVER_PID,
};
use crate::stepper::Stepper;
use crate::telemetry::{InformArrival, Passage, Recovery, RegionRecovery, Telemetry};
use coral_net::{
    Endpoint, Envelope, FaultyTransport, Message, ReliableTransport, SendError, SimNet,
    SimTransport, Transport,
};
use coral_obs::{JournalKind, Severity};
use coral_sim::engine::{Action, Context};
use coral_sim::{
    Engine, GroundTruthLog, OccupancyIndex, PoissonArrivals, SimDuration, SimTime, TrafficModel,
    VehicleState,
};
use coral_storage::{EdgeStorageNode, FederatedStores, TrajectoryGraph};
use coral_topology::{CameraId, MdcsUpdate, TopologyServer};
use coral_vision::{GroundTruthId, Scene};
use std::collections::{BTreeMap, BTreeSet};
use std::time::{Duration, Instant};

/// A camera node bound to its transport endpoint — the unit every
/// deployment mode drives.
///
/// The driver owns the protocol side effects: frames captured through
/// [`NodeDriver::capture`] send their inform/confirm messages over the
/// transport, and envelopes fed to [`NodeDriver::deliver`] send any
/// confirmation relays the node produces. It also meters its own work
/// into the deployment's [`CoreObs`]: events, re-identifications,
/// deliveries, heartbeats and their causal-trace stages, so every runtime
/// exports the same counters. What remains for the caller is pacing (a
/// DES clock or a thread loop).
#[derive(Debug)]
pub struct NodeDriver<T: Transport> {
    node: CameraNode,
    transport: T,
    obs: NodeObs,
    /// Where this camera's heartbeats go: its home region's server
    /// ([`region_endpoint`]), or an adoptive region's while a failover is
    /// in effect.
    parent: Endpoint,
    /// JSON size of this camera's heartbeat, encoded on the first send: a
    /// heartbeat never changes.
    heartbeat_bytes: Option<u64>,
}

impl<T: Transport> NodeDriver<T> {
    /// Binds `node` to `transport`, metering into `obs`.
    pub fn new(node: CameraNode, transport: T, obs: &CoreObs) -> Self {
        Self {
            obs: NodeObs::new(obs, node.id()),
            node,
            transport,
            parent: Endpoint::TopologyServer,
            heartbeat_bytes: None,
        }
    }

    /// The endpoint this camera's heartbeats are addressed to.
    pub fn parent(&self) -> Endpoint {
        self.parent
    }

    /// Re-parents this camera's heartbeats (federation failover).
    pub fn set_parent(&mut self, parent: Endpoint) {
        self.parent = parent;
    }

    /// The camera node.
    pub fn node(&self) -> &CameraNode {
        &self.node
    }

    /// The camera node, mutably, for the DES's split analysis phase, its
    /// idle-frame bookkeeping and failover; no caller outside the crate
    /// can reach the node around the metered methods.
    pub(crate) fn node_mut(&mut self) -> &mut CameraNode {
        &mut self.node
    }

    /// The transport handle.
    pub fn transport(&self) -> &T {
        &self.transport
    }

    /// The transport handle, mutably.
    pub fn transport_mut(&mut self) -> &mut T {
        &mut self.transport
    }

    /// This driver's network address.
    pub fn endpoint(&self) -> Endpoint {
        Endpoint::Camera(self.node.id())
    }

    /// Builds and sends this camera's heartbeat to its parent server, and
    /// meters it: the heartbeat count, its JSON bytes as cloud traffic,
    /// and the staleness gauge the health engine watches.
    ///
    /// # Errors
    ///
    /// Propagates the transport failure, if any.
    pub fn send_heartbeat(&mut self, now: SimTime) -> Result<(), SendError> {
        let message = self.node.heartbeat();
        let bytes = *self
            .heartbeat_bytes
            .get_or_insert_with(|| message.encoded_len() as u64);
        debug_assert_eq!(
            bytes,
            message.encoded_len() as u64,
            "a camera's heartbeat never changes"
        );
        self.transport.send(
            now,
            Envelope {
                from: Endpoint::Camera(self.node.id()),
                to: self.parent,
                message,
            },
        )?;
        self.obs.note_heartbeat_sent(now, bytes);
        Ok(())
    }

    /// Processes one captured frame and sends the resulting protocol
    /// messages. Returns the frame output (events, re-id records) with its
    /// message list already drained into the transport.
    ///
    /// # Errors
    ///
    /// Propagates the first transport failure.
    pub fn capture(&mut self, scene: &Scene, now: SimTime) -> Result<FrameOutput, SendError> {
        let start = Instant::now();
        let analysis = self.node.analyze_frame(scene);
        self.commit(analysis, start.elapsed(), now)
    }

    /// Commits a previously computed [`FrameAnalysis`]: runs the
    /// shared-state half of frame processing and sends the resulting
    /// protocol messages. `analyze_elapsed` (the wall-clock cost of the
    /// analysis phase, possibly on another thread) is folded into the
    /// frame-handling histogram so the split path meters exactly what
    /// [`NodeDriver::capture`] does.
    ///
    /// # Errors
    ///
    /// Propagates the first transport failure.
    pub fn commit(
        &mut self,
        analysis: FrameAnalysis,
        analyze_elapsed: Duration,
        now: SimTime,
    ) -> Result<FrameOutput, SendError> {
        let start = Instant::now();
        let out = self.node.commit_frame(analysis, now.as_millis());
        self.obs.note_frame(analyze_elapsed + start.elapsed());
        self.send_output(out, now)
    }

    /// Flushes in-flight tracks (end of stream) and sends the resulting
    /// messages.
    ///
    /// # Errors
    ///
    /// Propagates the first transport failure.
    pub fn flush(&mut self, now: SimTime) -> Result<FrameOutput, SendError> {
        let out = self.node.flush(now.as_millis());
        self.send_output(out, now)
    }

    /// Flushes in-flight tracks and meters the output like
    /// [`NodeDriver::flush`], but leaves its messages to the caller: the
    /// DES's zero-latency end-of-run epilogue hands them straight to
    /// their recipients through [`NodeDriver::receive`].
    pub(crate) fn flush_unsent(&mut self, now: SimTime) -> FrameOutput {
        let out = self.node.flush(now.as_millis());
        self.obs.observe_output(&out, now);
        out
    }

    /// Hands a delivered message to the node and sends any replies
    /// (confirmation relays).
    ///
    /// # Errors
    ///
    /// Propagates the first transport failure.
    pub fn deliver(&mut self, message: Message, now: SimTime) -> Result<(), SendError> {
        self.obs.observe_delivery(&message);
        let start = Instant::now();
        let mut replies = self.node.on_message(message, now.as_millis());
        self.obs.note_message(start.elapsed());
        self.send_all(now, &mut replies)
    }

    /// Hands a message to the node and meters its delivery like
    /// [`NodeDriver::deliver`], but returns the replies unsent (the DES's
    /// end-of-run epilogue).
    pub(crate) fn receive(&mut self, message: Message, now: SimTime) -> Vec<(CameraId, Message)> {
        self.obs.observe_delivery(&message);
        self.node.on_message(message, now.as_millis())
    }

    /// Drains every envelope deliverable at `now`, handing each to the
    /// node. Returns the number of envelopes processed.
    ///
    /// # Errors
    ///
    /// Propagates the first transport failure.
    pub fn pump(&mut self, now: SimTime) -> Result<usize, SendError> {
        let mut n = 0;
        while let Some(envelope) = self.transport.poll(now) {
            self.deliver(envelope.message, now)?;
            n += 1;
        }
        Ok(n)
    }

    /// Sends a frame output's messages, then meters its events and
    /// re-identifications.
    fn send_output(
        &mut self,
        mut out: FrameOutput,
        now: SimTime,
    ) -> Result<FrameOutput, SendError> {
        self.send_all(now, &mut out.messages)?;
        self.obs.observe_output(&out, now);
        Ok(out)
    }

    fn send_all(
        &mut self,
        now: SimTime,
        messages: &mut Vec<(CameraId, Message)>,
    ) -> Result<(), SendError> {
        let from = Endpoint::Camera(self.node.id());
        for (to, message) in messages.drain(..) {
            // Observed before the send so the trace records the attempt
            // even when the transport rejects it.
            self.obs.observe_send(to, &message, now);
            self.transport.send(
                now,
                Envelope {
                    from,
                    to: Endpoint::Camera(to),
                    message,
                },
            )?;
        }
        Ok(())
    }
}

/// The result of a liveness sweep: which cameras the server just evicted,
/// and which survivors were sent reconfiguration updates.
#[derive(Debug, Clone, Default)]
pub struct LivenessOutcome {
    /// Cameras removed from the active topology this sweep.
    pub removed: Vec<CameraId>,
    /// Survivors that were sent a topology update.
    pub recipients: BTreeSet<CameraId>,
}

/// The topology server bound to its transport endpoint.
#[derive(Debug)]
pub struct ServerDriver<T: Transport> {
    server: TopologyServer,
    transport: T,
    obs: ServerObs,
    /// This server's own network address — the `from` of every update it
    /// sends. `Endpoint::TopologyServer` unless rebound to another
    /// region's server endpoint.
    endpoint: Endpoint,
}

impl<T: Transport> ServerDriver<T> {
    /// Binds `server` to `transport`, metering into `obs`: MDCS
    /// recomputation wall-times and the update-fanout counter.
    pub fn new(server: TopologyServer, transport: T, obs: &CoreObs) -> Self {
        Self {
            server,
            transport,
            obs: ServerObs::new(obs),
            endpoint: Endpoint::TopologyServer,
        }
    }

    /// This server's network address.
    pub fn endpoint(&self) -> Endpoint {
        self.endpoint
    }

    /// Rebinds the address updates are sent from (the servers of regions
    /// other than region 0).
    pub fn set_endpoint(&mut self, endpoint: Endpoint) {
        self.endpoint = endpoint;
    }

    /// The topology server.
    pub fn server(&self) -> &TopologyServer {
        &self.server
    }

    /// The topology server, mutably.
    pub fn server_mut(&mut self) -> &mut TopologyServer {
        &mut self.server
    }

    /// The transport handle, mutably.
    pub fn transport_mut(&mut self) -> &mut T {
        &mut self.transport
    }

    /// Handles one delivered envelope (heartbeats drive joins and
    /// re-joins; anything else is ignored), sending topology updates to
    /// every affected camera admitted by `permit`. Returns the number of
    /// updates sent.
    ///
    /// # Errors
    ///
    /// Propagates the first transport failure.
    pub fn on_envelope(
        &mut self,
        envelope: Envelope,
        now: SimTime,
        permit: impl FnMut(CameraId) -> bool,
    ) -> Result<usize, SendError> {
        let Message::Heartbeat {
            camera,
            position,
            videoing_angle_deg,
        } = envelope.message
        else {
            return Ok(0);
        };
        let start = Instant::now();
        let updates = self
            .server
            .handle_heartbeat(camera, position, videoing_angle_deg, now.as_millis())
            .unwrap_or_default();
        self.obs.note_heartbeat(start.elapsed());
        self.send_updates(updates, now, permit)
    }

    /// Scans for missed heartbeats, sending reconfiguration updates to the
    /// survivors admitted by `permit`.
    ///
    /// # Errors
    ///
    /// Propagates the first transport failure.
    pub fn check_liveness(
        &mut self,
        now: SimTime,
        mut permit: impl FnMut(CameraId) -> bool,
    ) -> Result<LivenessOutcome, SendError> {
        let start = Instant::now();
        let sweep = self.server.check_liveness(now.as_millis());
        self.obs.note_liveness(start.elapsed());
        if sweep.evicted.is_empty() {
            return Ok(LivenessOutcome::default());
        }
        let recipients: BTreeSet<CameraId> = sweep
            .updates
            .iter()
            .map(|u| u.camera)
            .filter(|&c| permit(c))
            .collect();
        self.send_updates(sweep.updates, now, permit)?;
        Ok(LivenessOutcome {
            removed: sweep.evicted,
            recipients,
        })
    }

    fn send_updates(
        &mut self,
        updates: Vec<MdcsUpdate>,
        now: SimTime,
        mut permit: impl FnMut(CameraId) -> bool,
    ) -> Result<usize, SendError> {
        let mut sent = 0;
        for update in updates {
            if permit(update.camera) {
                let to = update.camera;
                self.transport.send(
                    now,
                    Envelope {
                        from: self.endpoint,
                        to: Endpoint::Camera(to),
                        message: Message::TopologyUpdate(update),
                    },
                )?;
                sent += 1;
            }
        }
        self.obs.note_updates_sent(sent);
        Ok(sent)
    }
}

/// The transport stack of every endpoint in every deployment mode:
/// at-least-once delivery over fault injection over a raw transport. Both
/// decorator layers are exact passthroughs unless enabled in
/// [`SystemConfig`] (`reliability` / `faults`), so the default stack is
/// bit-identical to the bare raw transport. `build_link` assembles it.
pub type Link<T> = ReliableTransport<FaultyTransport<T>>;

/// The link of every DES endpoint: the stack over the simulated network.
pub type SimLink = Link<SimTransport>;

/// Seed-mixing constant decorrelating retransmission jitter from the
/// other seeded components.
const RELIABILITY_SEED_MIX: u64 = 0x0ac4_ed15;

/// Stable per-endpoint seed component for the reliability jitter RNG.
fn endpoint_seed(endpoint: Endpoint) -> u64 {
    match endpoint {
        Endpoint::Camera(c) => 1 + (u64::from(c.0) << 8),
        Endpoint::TopologyServer => 2,
        Endpoint::EdgeStore(i) => 3 + (u64::from(i) << 8),
        Endpoint::RegionServer(r) => 4 + (u64::from(r) << 8),
    }
}

/// The heartbeat/topology endpoint of region `region`. Region 0 answers at
/// [`Endpoint::TopologyServer`] — the classic single-server address, which
/// also seeds its reliability jitter.
pub fn region_endpoint(region: u16) -> Endpoint {
    if region == 0 {
        Endpoint::TopologyServer
    } else {
        Endpoint::RegionServer(region)
    }
}

/// The region whose topology server answers at `endpoint` (the inverse of
/// [`region_endpoint`]); `None` for any other endpoint.
fn server_region(endpoint: Endpoint) -> Option<u16> {
    match endpoint {
        Endpoint::TopologyServer => Some(0),
        Endpoint::RegionServer(r) if r > 0 => Some(r),
        _ => None,
    }
}

/// The parentage permit of the server at `endpoint`: it admits the live
/// cameras whose heartbeats go there, so only a camera's current parent
/// region sends it topology updates.
fn parented_by<'a>(
    alive: &'a BTreeSet<CameraId>,
    ids: &'a [CameraId],
    drivers: &'a [NodeDriver<SimLink>],
    endpoint: Endpoint,
) -> impl Fn(CameraId) -> bool + 'a {
    move |c| {
        alive.contains(&c)
            && ids
                .binary_search(&c)
                .is_ok_and(|slot| drivers[slot].parent() == endpoint)
    }
}

/// Disjoint mutable borrows of `items` at the ascending, distinct `slots`,
/// in O(`slots.len()`): the sparse fan-out never walks idle cameras.
fn pick_mut<'a, T>(mut items: &'a mut [T], slots: &[usize]) -> Vec<&'a mut T> {
    let mut base = 0;
    slots
        .iter()
        .map(|&slot| {
            let (picked, rest) = std::mem::take(&mut items)[slot - base..]
                .split_first_mut()
                .expect("slot in range");
            items = rest;
            base = slot + 1;
            picked
        })
        .collect()
}

/// Builds the [`Link`] stack for `endpoint` over its `raw` transport per
/// the deployment config: each layer is live when configured, a verbatim
/// passthrough otherwise. A live layer publishes its chaos or retry
/// counters into `obs` and journals its events there; a passthrough layer
/// is left unmetered (it would only pin zeros into every snapshot).
pub(crate) fn build_link<T: Transport>(
    config: &SystemConfig,
    raw: T,
    endpoint: Endpoint,
    obs: &CoreObs,
) -> Link<T> {
    let faulty = match &config.faults {
        Some(plan) => {
            let mut faulty = FaultyTransport::new(raw, endpoint, plan.clone());
            faulty.instrument(obs.registry());
            faulty.set_journal(obs.journal().clone());
            faulty
        }
        None => FaultyTransport::transparent(raw, endpoint),
    };
    match &config.reliability {
        Some(policy) => {
            let mut link = ReliableTransport::new(
                faulty,
                endpoint,
                policy.clone(),
                config.seed ^ RELIABILITY_SEED_MIX ^ endpoint_seed(endpoint),
            );
            link.instrument(obs.registry());
            link.set_journal(obs.journal().clone());
            link
        }
        None => ReliableTransport::passthrough(faulty, endpoint),
    }
}

/// One camera's per-tick analysis result, carried from the parallel
/// analysis phase to the ordered commit phase.
struct TickAnalysis {
    /// The camera's slot (see `SimWorld::drivers`).
    slot: usize,
    analysis: FrameAnalysis,
    /// Ground-truth vehicles currently in the camera's FOV, ascending (for
    /// the edge-triggered passage detector).
    in_fov: Vec<GroundTruthId>,
    /// Wall-clock cost of the analysis (possibly on a worker thread).
    analyze_elapsed: Duration,
}

// The analysis phase moves each camera's driver (and a shared borrow of
// the traffic model) onto stepper workers. These bounds are what make
// that sound; a non-Send field sneaking into the node or transport stack
// fails compilation here rather than at the distant call site.
const _: () = {
    const fn assert_send<T: Send>() {}
    const fn assert_sync<T: Sync>() {}
    assert_send::<CameraNode>();
    assert_send::<NodeDriver<SimLink>>();
    assert_sync::<TrafficModel>();
};

#[derive(Debug)]
struct RecoveryTracker {
    killed: CameraId,
    killed_at: SimTime,
    outstanding: BTreeSet<CameraId>,
}

/// A fail-back in progress: after a region heal, its surviving home
/// cameras are re-parented administratively, but the cycle only counts as
/// recovered when each of their heartbeats has landed back at the revived
/// region server directly.
#[derive(Debug)]
struct RegionRecoveryTracker {
    region: u16,
    killed_at: SimTime,
    restored_at: SimTime,
    outstanding: BTreeSet<CameraId>,
}

/// The discrete-event world: every deployed actor, the simulated network,
/// ground-truth traffic and the run's evaluation evidence.
///
/// Built by `Deployment::build` and driven by [`SimRuntime`]; the facade
/// `CoralPieSystem` exposes it between runs.
///
/// A deployment is a federation of one or more regions. Every region runs
/// its own topology server and edge store; all live region servers process
/// every heartbeat (the direct receiver first, then an in-process replica
/// relay in ascending region order), so their MDCS tables and update
/// version counters evolve in lockstep and a camera can re-parent onto any
/// surviving region without version skew.
pub struct SimWorld {
    config: SystemConfig,
    net: SimNet,
    /// Topology servers, indexed by region. Region 0 answers at
    /// [`Endpoint::TopologyServer`], region `r > 0` at
    /// [`Endpoint::RegionServer`]`(r)` (see [`region_endpoint`]).
    servers: Vec<ServerDriver<SimLink>>,
    /// Trajectory stores, indexed by region.
    stores: FederatedStores,
    /// Receive links of `Endpoint::EdgeStore(r)` — the replication ingest
    /// points, pulled through the reliability stack so replication sends
    /// are acked, retried, and eventually abandoned against a dead region.
    /// Empty with one region: every handoff is then region-local, so there
    /// is nothing to replicate.
    store_links: Vec<SimLink>,
    /// Camera → home region: the static contiguous-stripe partition. The
    /// current parent region is the driver's heartbeat endpoint (it
    /// diverges from home only while a failover is in effect).
    home: BTreeMap<CameraId, u16>,
    /// Per-region liveness (a dead region's endpoints consume raw and
    /// never ack).
    region_alive: Vec<bool>,
    /// Open partitions: region → kill time.
    region_outages: BTreeMap<u16, SimTime>,
    /// Fail-backs awaiting their first direct post-heal heartbeats.
    region_recoveries: Vec<RegionRecoveryTracker>,
    traffic: TrafficModel,
    arrivals: Option<PoissonArrivals>,
    /// Camera drivers in `CameraId` order. A driver's index is its camera
    /// *slot*: its occupancy-index slot and the key of every per-camera
    /// tick structure below. Drivers are never removed, so slots are
    /// stable across kills and restores.
    drivers: Vec<NodeDriver<SimLink>>,
    /// The camera id of each slot (ascending).
    ids: Vec<CameraId>,
    alive: BTreeSet<CameraId>,
    last_traffic_step: SimTime,
    telemetry: Telemetry,
    obs: CoreObs,
    /// Ground-truth vehicles in each camera's FOV at its last commit,
    /// ascending. Only non-empty lists are kept, so the keys are the
    /// cameras that may owe an exit edge.
    in_fov: BTreeMap<usize, Vec<GroundTruthId>>,
    ground_truth: GroundTruthLog,
    recovery_trackers: Vec<RecoveryTracker>,
    pending_kills: Vec<(CameraId, SimTime)>,
    /// Frame ticks run so far: the global frame clock.
    ticks: u64,
    /// Per slot, the tick up to which the node's frame counter has been
    /// brought. Idle cameras are not visited, so their counters catch up
    /// lazily when next stepped or committed (see `SimWorld::sync_frames`).
    frames_synced: Vec<u64>,
    /// Slots whose tracker held live tracks after their last step: they
    /// step every tick even with no vehicle near (sparse stepping).
    tracking: BTreeSet<usize>,
    /// Slots with a clutter burst configured: inside a burst window they
    /// render phantoms with no vehicle near, so they must step.
    clutter: Vec<usize>,
    /// Slots whose link is not quiet ([`Transport::is_quiet`]): a frame
    /// awaits its ack or an envelope is held back, so the link's tick has
    /// work and the camera must be committed.
    busy_links: BTreeSet<usize>,
    /// Vehicle → nearby-camera spatial index for sparse stepping, one slot
    /// per driver.
    occupancy: OccupancyIndex,
    /// Reused per-tick snapshot of all vehicle states (ascending
    /// `VehicleId`), the arena `occupancy` candidate indices point into.
    vehicle_states: Vec<VehicleState>,
    /// Last whole sim-second the health engine was evaluated at, so the
    /// SLO rules run once per sim-second regardless of tick rate.
    last_health_eval_s: u64,
}

impl std::fmt::Debug for SimWorld {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SimWorld")
            .field("cameras", &self.drivers.len())
            .field("alive", &self.alive)
            .field("net", &self.net)
            .field("regions", &self.servers.len())
            .finish()
    }
}

const SIM_SEND: &str = "sim transport sends cannot fail";

impl SimWorld {
    /// Builds the world over one metered topology server driver and one
    /// store per region (`servers[r]` and `stores.node(r)` serve region
    /// `r`), and over camera drivers metered into the same `obs`. Each
    /// camera's home region is the one its driver starts parented at.
    pub(crate) fn new(
        config: SystemConfig,
        net: SimNet,
        obs: CoreObs,
        servers: Vec<ServerDriver<SimLink>>,
        stores: FederatedStores,
        traffic: TrafficModel,
        drivers: BTreeMap<CameraId, NodeDriver<SimLink>>,
    ) -> Self {
        let regions = stores.regions();
        assert_eq!(servers.len(), regions, "one topology server per region");
        let alive: BTreeSet<CameraId> = drivers.keys().copied().collect();
        let home: BTreeMap<CameraId, u16> = drivers
            .iter()
            .map(|(&id, driver)| (id, server_region(driver.parent()).unwrap_or(0)))
            .collect();
        let (ids, drivers): (Vec<CameraId>, Vec<NodeDriver<SimLink>>) = drivers.into_iter().unzip();
        let store_links: Vec<SimLink> = if regions > 1 {
            (0..regions)
                .map(|r| {
                    let endpoint = Endpoint::EdgeStore(r as u32);
                    build_link(&config, net.handle(endpoint), endpoint, &obs)
                })
                .collect()
        } else {
            Vec::new()
        };
        // Spatial occupancy index for sparse stepping: one slot per driver
        // in `CameraId` order. Dead cameras keep their slot (their
        // candidate lists simply go unread). The anchor slack scales with the
        // traffic speed envelope so fast workloads (IDM city profiles)
        // amortise the cache instead of refreshing it every tick; the
        // superset contract itself is speed-independent (see
        // `coral_sim::occupancy`).
        let slack_m = coral_sim::occupancy::slack_for(
            traffic.config().max_speed_mps(),
            config.frame_period.as_secs_f64(),
        );
        let mut occupancy = OccupancyIndex::new(slack_m);
        for driver in &drivers {
            let view = driver.node().view();
            occupancy.add_camera(view.position, view.range_m);
        }
        let clutter = (0..drivers.len())
            .filter(|&slot| {
                let effects = drivers[slot].node().view().effects;
                effects.and_then(|fx| fx.clutter).is_some()
            })
            .collect();
        Self {
            servers,
            stores,
            store_links,
            home,
            region_alive: vec![true; regions],
            region_outages: BTreeMap::new(),
            region_recoveries: Vec::new(),
            net,
            traffic,
            arrivals: None,
            alive,
            frames_synced: vec![0; drivers.len()],
            drivers,
            ids,
            last_traffic_step: SimTime::ZERO,
            telemetry: Telemetry::default(),
            obs,
            in_fov: BTreeMap::new(),
            ground_truth: GroundTruthLog::new(),
            recovery_trackers: Vec::new(),
            pending_kills: Vec::new(),
            ticks: 0,
            tracking: BTreeSet::new(),
            clutter,
            busy_links: BTreeSet::new(),
            occupancy,
            vehicle_states: Vec::new(),
            last_health_eval_s: 0,
            config,
        }
    }

    /// The system configuration.
    pub fn config(&self) -> &SystemConfig {
        &self.config
    }

    /// The traffic model (to add lights or spawn vehicles between runs).
    pub fn traffic_mut(&mut self) -> &mut TrafficModel {
        &mut self.traffic
    }

    /// The traffic model, read-only.
    pub fn traffic(&self) -> &TrafficModel {
        &self.traffic
    }

    /// Installs an open-workload arrival process.
    pub fn set_arrivals(&mut self, arrivals: PoissonArrivals) {
        self.arrivals = Some(arrivals);
    }

    /// Region 0's trajectory store (the only one in a single-region
    /// deployment).
    pub fn storage(&self) -> &EdgeStorageNode {
        self.stores.node(0)
    }

    /// Number of regions.
    pub fn regions(&self) -> usize {
        self.servers.len()
    }

    /// The region currently parenting `cam`'s heartbeats (diverges from
    /// the home region only while a failover is in effect).
    pub fn parent_region_of(&self, cam: CameraId) -> u16 {
        self.slot(cam)
            .and_then(|slot| server_region(self.drivers[slot].parent()))
            .unwrap_or(0)
    }

    /// Whether region `region` is currently alive.
    pub fn region_alive(&self, region: u16) -> bool {
        self.region_alive
            .get(usize::from(region))
            .copied()
            .unwrap_or(false)
    }

    /// Runs `f` over the deployment-wide trajectory graph: the
    /// owner-preferring union of every region store (with one region, the
    /// store's cached flat graph). Replicated copies deduplicate under the
    /// union (keep-first ingest), so a multi-region view converges to what
    /// a single-region run would hold.
    pub fn with_trajectory_graph<R>(&self, f: impl FnOnce(&TrajectoryGraph) -> R) -> R {
        let home = &self.home;
        self.stores
            .with_union(|c| usize::from(home.get(&c).copied().unwrap_or(0)), f)
    }

    /// Region 0's topology server (every live region server holds the same
    /// replicated state).
    pub fn server(&self) -> &TopologyServer {
        self.servers[0].server()
    }

    /// A camera node, if deployed.
    pub fn node(&self, id: CameraId) -> Option<&CameraNode> {
        self.slot(id).map(|slot| self.drivers[slot].node())
    }

    /// All deployed camera nodes, in id order.
    pub fn nodes(&self) -> impl Iterator<Item = (CameraId, &CameraNode)> {
        self.ids
            .iter()
            .copied()
            .zip(self.drivers.iter().map(NodeDriver::node))
    }

    /// The slot of camera `id` (its index in `drivers`), if deployed.
    fn slot(&self, id: CameraId) -> Option<usize> {
        self.ids.binary_search(&id).ok()
    }

    /// Cameras currently alive.
    pub fn alive(&self) -> &BTreeSet<CameraId> {
        &self.alive
    }

    /// The run's evaluation evidence (see [`Telemetry`]).
    pub fn telemetry(&self) -> &Telemetry {
        &self.telemetry
    }

    /// The ground-truth FOV interval log (what each camera *should* have
    /// seen). Open intervals are closed by [`CoralPieSystem::finish`];
    /// read it after the run for complete intervals.
    ///
    /// [`CoralPieSystem::finish`]: crate::CoralPieSystem::finish
    pub fn ground_truth(&self) -> &GroundTruthLog {
        &self.ground_truth
    }

    /// The deployment-wide observability bundle: the shared metrics
    /// registry and the per-vehicle causal tracer.
    pub fn observability(&self) -> &CoreObs {
        &self.obs
    }

    /// Turns on per-vehicle causal tracing, naming the Chrome-trace rows
    /// (one process per camera plus the topology server). Call it before
    /// the run: FOV entries are remembered for the Track spans only while
    /// tracing is on.
    pub fn enable_tracing(&mut self) {
        self.obs.observability().set_tracing(true);
        let tracer = self.obs.tracer();
        tracer.process_name(SERVER_PID, "topology-server");
        for &id in &self.ids {
            tracer.process_name(camera_pid(id), &format!("{id}"));
        }
    }

    /// Records an inform's arrival at camera `to` as evaluation evidence
    /// (the driver meters every delivery itself).
    fn note_delivery(&mut self, now: SimTime, to: CameraId, message: &Message) {
        if let Message::Inform(e) = message {
            self.telemetry.informs.push(InformArrival {
                at: to,
                from: e.camera,
                vehicle: e.ground_truth,
                arrived: now,
            });
        }
    }

    fn on_tick(&mut self, now: SimTime) {
        let tick_start = Instant::now();
        let dt = now.since(self.last_traffic_step);
        // Workload arrivals, then kinematics.
        if let Some(arrivals) = &mut self.arrivals {
            arrivals.advance(now, &mut self.traffic);
        }
        self.traffic.step(self.last_traffic_step, dt);
        self.last_traffic_step = now;

        let now_ms = now.as_millis();

        // Snapshot the vehicle states once (ascending `VehicleId`, into a
        // reused arena): the ground-truth FOV sets are computed from this
        // snapshot regardless of stepping mode. Under sparse stepping the
        // spatial occupancy index is refreshed from it too; each camera's
        // candidate list is a superset of the vehicles its scene
        // projection could accept, so filtering the snapshot through it is
        // order- and content-identical to scanning the whole traffic model.
        let sparse = self.config.sparse_stepping;
        self.traffic.states_into(&mut self.vehicle_states);
        if sparse {
            self.occupancy.assign(&self.vehicle_states);
        }

        let tick = self.ticks;
        self.ticks += 1;

        // Phase 1 — analysis fan-out. Scene projection reads only the
        // traffic model (immutable for the rest of the tick) and the frame
        // analysis mutates only camera-private state, so every stepping
        // camera's render → detect → SORT → feature-extract chain fans
        // across the stepper's workers. Results merge back in `CameraId`
        // order regardless of worker scheduling, which is what keeps
        // parallel runs byte-identical to sequential ones (DESIGN.md §5).
        //
        // Dense stepping steps every alive camera. Sparse stepping steps
        // only the cameras that can have work (`sparse_step_set`) and does
        // not visit the others at all: an idle camera's frame would be the
        // empty-scene fast path (no scene, no RNG draws; see
        // `CameraNode::advance_idle_frame`), so all it owes is a frame
        // counter, which catches up when the camera is next touched
        // (`claim_frame`). A camera with live tracks but no candidates
        // still runs the full path on an empty scene, because tracker aging
        // and the detector's clutter draws must advance exactly as in a
        // dense run.
        let stepping: Vec<usize> = if sparse {
            self.sparse_step_set(now_ms)
        } else {
            self.alive
                .iter()
                .map(|&id| self.slot(id).expect("alive camera is deployed"))
                .collect()
        };
        for &slot in &stepping {
            self.claim_frame(slot, tick);
        }
        let stepper = Stepper::new(self.config.parallelism);
        let (active, step_stats) = {
            let traffic = &self.traffic;
            let occupancy = &self.occupancy;
            let states = &self.vehicle_states;
            let batch: Vec<(usize, &mut NodeDriver<SimLink>)> = stepping
                .iter()
                .copied()
                .zip(pick_mut(&mut self.drivers, &stepping))
                .collect();
            stepper.run(batch, |_, (slot, driver)| {
                // Under sparse stepping, the camera's candidate
                // vehicle-state indices.
                let candidates = sparse.then(|| occupancy.candidates(slot));
                let scene = match candidates {
                    Some(c) => driver
                        .node()
                        .view()
                        .scene_from_states_at(c.iter().map(|&i| &states[i as usize]), now_ms),
                    None => driver.node().view().scene_at(traffic, now_ms),
                };
                let start = Instant::now();
                let analysis = driver.node_mut().analyze_frame(&scene);
                // The ground-truth FOV set is geometric — the canonical
                // `in_fov` predicate over real vehicle states — never the
                // rendered actor list. Clutter phantoms feed the vision
                // pipeline but are not ground truth, and an occlusion-
                // culled vehicle *stays* in ground truth (real MOT
                // semantics): the pipeline's failure to see it scores as a
                // miss, not as a hole in the ground-truth record.
                // Both state orders are ascending by vehicle id, so the
                // list comes out sorted.
                let view = driver.node().view();
                let in_fov: Vec<GroundTruthId> = match candidates {
                    Some(c) => c
                        .iter()
                        .map(|&i| &states[i as usize])
                        .filter(|s| view.in_fov(s.position))
                        .map(|s| GroundTruthId(s.id.0))
                        .collect(),
                    None => states
                        .iter()
                        .filter(|s| view.in_fov(s.position))
                        .map(|s| GroundTruthId(s.id.0))
                        .collect(),
                };
                debug_assert!(in_fov.is_sorted_by(|a, b| a < b), "FOV ids ascend");
                TickAnalysis {
                    slot,
                    analysis,
                    in_fov,
                    analyze_elapsed: start.elapsed(),
                }
            })
        };
        if sparse {
            for &slot in &stepping {
                if self.drivers[slot].node().live_track_count() > 0 {
                    self.tracking.insert(slot);
                } else {
                    self.tracking.remove(&slot);
                }
            }
        }

        // Phase 2 — ordered commit: passages, storage writes, pool
        // re-identification and message sends replay in strict `CameraId`
        // order, interleaved exactly as the sequential loop would. The walk
        // visits the stepped cameras plus the alive idle cameras that still
        // have an effect to commit: a ground-truth exit edge (a non-empty
        // previous FOV set) or a link whose tick has work. Any other idle
        // camera would commit an empty frame and tick a quiet link, both
        // no-ops, so it is skipped and costs nothing.
        let commit_start = Instant::now();
        let mut committing: Vec<usize> = active
            .iter()
            .map(|a| a.slot)
            .chain(self.in_fov.keys().copied())
            .chain(self.busy_links.iter().copied())
            .filter(|&slot| self.alive.contains(&self.ids[slot]))
            .collect();
        committing.sort_unstable();
        committing.dedup();
        let activity = TickActivity {
            stepped: active.len(),
            skipped: self.alive.len() - active.len(),
            committed: committing.len(),
        };
        let mut active = active.into_iter().peekable();
        for &slot in &committing {
            let id = self.ids[slot];
            let (analysis, current, analyze_elapsed) = match active.next_if(|a| a.slot == slot) {
                Some(a) => (a.analysis, a.in_fov, a.analyze_elapsed),
                None => {
                    self.claim_frame(slot, tick);
                    let idle = self.drivers[slot].node_mut().advance_idle_frame();
                    (idle, Vec::new(), Duration::ZERO)
                }
            };
            // Ground-truth passage detection (edge-triggered on FOV entry)
            // plus the exit edge for the ground-truth interval log.
            // Both lists ascend, so exits and same-tick entries come out of
            // a merge in id order.
            let prev = self.in_fov.remove(&slot).unwrap_or_default();
            for gt in ascending_difference(&prev, &current) {
                self.ground_truth.record_exit(id, gt, now_ms);
            }
            for gt in ascending_difference(&current, &prev) {
                self.ground_truth.record_entry(id, gt, now_ms);
                let passage = Passage {
                    camera: id,
                    vehicle: gt,
                    entered_ms: now_ms,
                };
                self.telemetry.passages.push(passage);
                self.obs.observe_passage(&passage);
            }
            if !current.is_empty() {
                self.in_fov.insert(slot, current);
            }

            // Raw detection evidence for the evaluation layer's per-stage
            // error attribution (detect-miss vs. track-loss). Phantom
            // detections are excluded: they are noise the tracker must
            // survive, not evidence about any real vehicle.
            for &gt in analysis.detected() {
                if gt.is_clutter() {
                    continue;
                }
                self.telemetry.detections.push((id, gt, now));
            }

            let out = self.drivers[slot]
                .commit(analysis, analyze_elapsed, now)
                .expect(SIM_SEND);
            for e in &out.events {
                self.telemetry.events.push((id, e.ground_truth, now));
            }
            let driver = &mut self.drivers[slot];
            // A re-identification whose upstream camera lives in another
            // region committed a boundary-crossing edge in this region's
            // store. Replicate it to the upstream home region's store over
            // the same reliability stack as everything else.
            if !out.handoffs.is_empty() {
                let home = &self.home;
                let local = home.get(&id).copied().unwrap_or(0);
                for h in &out.handoffs {
                    let up = home.get(&h.from_camera).copied().unwrap_or(0);
                    if up == local {
                        continue;
                    }
                    let envelope = Envelope {
                        from: Endpoint::Camera(id),
                        to: Endpoint::EdgeStore(u32::from(up)),
                        message: Message::Replicate {
                            from: h.from_vertex,
                            event: h.event.clone(),
                            first_ms: h.first_ms,
                            distance: h.distance,
                        },
                    };
                    driver.transport_mut().send(now, envelope).expect(SIM_SEND);
                }
            }
            // Drive the reliability stack's timers (retransmissions of
            // unacked frames, release of held envelopes). A no-op on
            // passthrough links.
            driver.transport_mut().tick(now);
            self.note_link(slot);
        }
        debug_assert!(active.next().is_none(), "every stepped camera commits");
        self.obs.note_tick(
            tick_start.elapsed(),
            commit_start.elapsed(),
            &step_stats,
            activity,
        );
        if sparse {
            self.obs.note_sparse_activity(activity, now);
        }
        // SLO evaluation, once per whole sim-second. Purely observational
        // (reads metric atomics, journals verdict transitions), so it
        // cannot perturb event order or RNG state.
        if self.config.health_checks {
            let second = now.as_millis() / 1_000;
            if second > self.last_health_eval_s {
                self.last_health_eval_s = second;
                self.obs.health_tick(now.as_millis());
            }
        }
    }

    /// The cameras that step this tick under sparse stepping, as
    /// ascending slots: the alive cameras with a vehicle candidate, live
    /// tracks, or an active clutter burst. Every other alive camera's
    /// frame is provably the empty-scene fast path.
    fn sparse_step_set(&self, now_ms: u64) -> Vec<usize> {
        let bursting = self
            .clutter
            .iter()
            .copied()
            .filter(|&slot| self.drivers[slot].node().view().clutter_active(now_ms));
        let mut slots: Vec<usize> = self
            .occupancy
            .touched()
            .iter()
            .map(|&slot| slot as usize)
            .chain(self.tracking.iter().copied())
            .chain(bursting)
            .filter(|&slot| self.alive.contains(&self.ids[slot]))
            .collect();
        slots.sort_unstable();
        slots.dedup();
        slots
    }

    /// Catches camera `slot`'s lazy frame counter up to tick `upto`: each
    /// tick since its last sync was an alive tick on which the camera was
    /// neither stepped nor committed, that is, an idle frame.
    fn sync_frames(&mut self, slot: usize, upto: u64) {
        // Dense stepping frames every alive camera on every tick, so its
        // counters are never behind; it stays an independent oracle for
        // this bookkeeping.
        if !self.config.sparse_stepping {
            return;
        }
        let owed = upto
            .checked_sub(self.frames_synced[slot])
            .expect("the frame clock never runs backwards");
        self.drivers[slot].node_mut().skip_idle_frames(owed);
        self.frames_synced[slot] = upto;
    }

    /// Catches camera `slot` up and reserves tick `tick`'s frame for it.
    /// The caller consumes exactly one frame next (an analysis or an idle
    /// frame), so its frame id is the one a dense run would use.
    fn claim_frame(&mut self, slot: usize, tick: u64) {
        self.sync_frames(slot, tick);
        self.frames_synced[slot] = tick + 1;
    }

    /// Re-reads whether camera `slot`'s link has tick work, after anything
    /// that sent on or polled it.
    fn note_link(&mut self, slot: usize) {
        if self.drivers[slot].transport().is_quiet() {
            self.busy_links.remove(&slot);
        } else {
            self.busy_links.insert(slot);
        }
    }

    fn on_heartbeat(&mut self, cam: CameraId, now: SimTime) {
        self.maybe_fail_over(cam, now);
        let slot = self.slot(cam).expect("alive camera is deployed");
        self.drivers[slot].send_heartbeat(now).expect(SIM_SEND);
        self.note_link(slot);
    }

    /// Failover detection, from the camera's own vantage point: when the
    /// reliability layer has `miss_threshold + 1` heartbeat frames still
    /// unacked against the current parent, that region server is
    /// unreachable — re-parent onto the next live region (ascending, with
    /// wrap-around) and start writing events to its store. Requires a live
    /// reliability layer (`SystemConfig::reliability`); passthrough links
    /// never queue, so they never trigger a failover. A single region has
    /// no other region to adopt the camera, so it never fails over.
    fn maybe_fail_over(&mut self, cam: CameraId, now: SimTime) {
        let threshold = u64::from(self.config.miss_threshold) + 1;
        let Some(slot) = self.slot(cam) else {
            return;
        };
        let driver = &mut self.drivers[slot];
        let Some(current) = server_region(driver.parent()) else {
            return;
        };
        let regions = self.region_alive.len() as u16;
        let Some(next) = (1..regions)
            .map(|step| (current + step) % regions)
            .find(|&r| self.region_alive[usize::from(r)])
        else {
            return; // no surviving region to adopt this camera
        };
        let pending = driver.transport().pending_len_for(driver.parent()) as u64;
        if pending < threshold {
            return;
        }
        driver.set_parent(region_endpoint(next));
        driver
            .node_mut()
            .set_storage(self.stores.node(usize::from(next)).clone());
        self.obs.journal().record(
            JournalKind::HealthChange,
            Severity::Warn,
            now.as_micros(),
            &subject_for(cam),
            &format!(
                "failover: {} unacked heartbeats against {}, re-parented to {}",
                pending,
                region_subject(current),
                region_subject(next)
            ),
        );
    }

    /// The liveness sweep: every live region server scans at the same
    /// instant, in ascending region order, each sending updates only to the
    /// cameras it currently parents. Because all live servers process the
    /// same heartbeat stream (see [`SimWorld::region_receive`]) their
    /// eviction decisions and version counters agree; the sweep order only
    /// sequences the outgoing update envelopes.
    fn on_liveness_check(&mut self, now: SimTime) {
        let mut removed: BTreeSet<CameraId> = BTreeSet::new();
        let mut recipients: BTreeSet<CameraId> = BTreeSet::new();
        for (r, server) in self.servers.iter_mut().enumerate() {
            if !self.region_alive[r] {
                continue;
            }
            // Drive the server link's retransmission timers on the
            // liveness cadence. A no-op on passthrough links.
            server.transport_mut().tick(now);
            let permit = parented_by(&self.alive, &self.ids, &self.drivers, server.endpoint());
            let outcome = server.check_liveness(now, permit).expect(SIM_SEND);
            removed.extend(outcome.removed);
            recipients.extend(outcome.recipients);
        }
        self.resolve_removed(removed.into_iter().collect(), &recipients, now);
    }

    /// Matches evicted cameras against scheduled kills and opens (or
    /// instantly closes) their recovery measurements.
    fn resolve_removed(
        &mut self,
        removed: Vec<CameraId>,
        recipients: &BTreeSet<CameraId>,
        now: SimTime,
    ) {
        for r in removed {
            if let Some(pos) = self.pending_kills.iter().position(|&(c, _)| c == r) {
                let (_, killed_at) = self.pending_kills.remove(pos);
                if recipients.is_empty() {
                    // No survivors affected: instantaneous recovery.
                    let recovery = Recovery {
                        killed: r,
                        killed_at,
                        recovered_at: now,
                    };
                    self.telemetry.recoveries.push(recovery);
                    self.obs.observe_recovery(&recovery);
                } else {
                    self.recovery_trackers.push(RecoveryTracker {
                        killed: r,
                        killed_at,
                        outstanding: recipients.clone(),
                    });
                }
            }
        }
    }

    fn deliver_one(&mut self, endpoint: Endpoint, now: SimTime) {
        match endpoint {
            Endpoint::TopologyServer | Endpoint::RegionServer(_) => {
                let region = server_region(endpoint).filter(|&r| self.region_alive(r));
                let Some(region) = region else {
                    // A partitioned region's server can never ack: consume
                    // the frame raw, off the reliability stack, so senders
                    // see silence (and eventually fail over).
                    let _ = self.net.handle(endpoint).poll(now);
                    return;
                };
                // Polled through the reliability stack: acks are consumed
                // (and generated) inside it, so a due slot may legally
                // yield nothing.
                let server = &mut self.servers[usize::from(region)];
                let Some(envelope) = server.transport_mut().poll(now) else {
                    return;
                };
                self.region_receive(region, envelope, now);
            }
            Endpoint::Camera(cam) => {
                if !self.alive.contains(&cam) {
                    // Messages to dead cameras are consumed raw — off the
                    // reliability stack — so a dead camera can never ack
                    // (the crash-stop the self-healing protocol assumes).
                    let _ = self.net.handle(endpoint).poll(now);
                    return;
                }
                let slot = self.slot(cam).expect("alive camera is deployed");
                if let Some(envelope) = self.drivers[slot].transport_mut().poll(now) {
                    let message = envelope.message;
                    self.note_delivery(now, cam, &message);
                    match &message {
                        Message::Inform(event) => self.obs.observe_inform_latency(now, cam, event),
                        Message::TopologyUpdate(_) => self.note_update_delivered(cam, now),
                        _ => {}
                    }
                    self.drivers[slot].deliver(message, now).expect(SIM_SEND);
                }
                // The poll consumed or sent acks (a reorder fault may hold
                // one back) and the delivery may have sent replies.
                self.note_link(slot);
            }
            Endpoint::EdgeStore(i) => {
                let r = i as usize;
                let link = self.store_links.get_mut(r).filter(|_| self.region_alive[r]);
                let Some(link) = link else {
                    // No replica ingest point, or a partitioned region's
                    // store, which can't ack either: the sender's
                    // reliability layer retries and eventually abandons
                    // (the primary commit still holds the edge).
                    let _ = self.net.handle(endpoint).poll(now);
                    return;
                };
                let Some(envelope) = link.poll(now) else {
                    return;
                };
                if let Message::Replicate {
                    from,
                    event,
                    first_ms,
                    distance,
                } = envelope.message
                {
                    if let Some(v) = event.vertex {
                        let store = self.stores.node(r);
                        // Keep-first on both writes: redelivery (and
                        // delivery after the primary already converged the
                        // union) is a structural no-op.
                        store.adopt_event(
                            v,
                            event.event_id(),
                            first_ms,
                            event.timestamp_ms,
                            event.heading,
                            Some(event.signature.clone()),
                            event.ground_truth,
                        );
                        let _ = store.insert_edge(from, v, distance);
                    }
                }
            }
        }
    }

    /// Server ingress: a frame arrived at region `region`'s server. The
    /// direct receiver acks (inside its reliability stack) and, when there
    /// are several regions, refreshes the region-contact gauge; then every
    /// live server — the receiver included — processes the payload, in
    /// ascending region order, so all replicas advance through the same
    /// topology-state machine and stay byte-identical. Update fan-out is
    /// suppressed on replicas by the parentage permit.
    fn region_receive(&mut self, region: u16, envelope: Envelope, now: SimTime) {
        if self.servers.len() > 1 {
            self.obs.note_region_contact(region, now);
        }
        if let Message::Heartbeat { camera, .. } = envelope.message {
            self.note_region_heartbeat(region, camera, now);
        }
        let last = self
            .region_alive
            .iter()
            .rposition(|&a| a)
            .expect("the receiving region is live");
        let (replicas, rest) = self.servers.split_at_mut(last);
        for (r, server) in replicas.iter_mut().enumerate() {
            if self.region_alive[r] {
                let permit = parented_by(&self.alive, &self.ids, &self.drivers, server.endpoint());
                server
                    .on_envelope(envelope.clone(), now, permit)
                    .expect(SIM_SEND);
            }
        }
        // The last live replica takes the envelope itself, so a single
        // region never copies it.
        let server = &mut rest[0];
        let permit = parented_by(&self.alive, &self.ids, &self.drivers, server.endpoint());
        server.on_envelope(envelope, now, permit).expect(SIM_SEND);
    }

    /// A heartbeat landed at a freshly restored region: retire it from any
    /// open region-recovery measurement and record the measurement once
    /// the last straggler has reported in.
    fn note_region_heartbeat(&mut self, region: u16, camera: CameraId, now: SimTime) {
        let done = &mut self.telemetry.region_recoveries;
        self.region_recoveries.retain_mut(|t| {
            if t.region != region {
                return true;
            }
            t.outstanding.remove(&camera);
            if !t.outstanding.is_empty() {
                return true;
            }
            done.push(RegionRecovery {
                region: t.region,
                killed_at: t.killed_at,
                restored_at: t.restored_at,
                recovered_at: now,
            });
            false
        });
    }

    /// Partitions a whole region: its topology server and edge store stop
    /// acking (crash-stop), while its cameras keep running — they pile up
    /// unacked heartbeats and fail over onto a surviving region, if any.
    pub(crate) fn on_region_kill(&mut self, region: u16, now: SimTime) {
        if !self.region_alive(region) {
            return;
        }
        self.region_alive[usize::from(region)] = false;
        self.region_outages.insert(region, now);
        self.obs.journal().record(
            JournalKind::PartitionOpen,
            Severity::Error,
            now.as_micros(),
            &region_subject(region),
            &format!("region {region} partitioned: topology server and edge store unreachable"),
        );
    }

    /// Heals a region partition. The restarted server adopts a live
    /// replica's topology state (state transfer from the lowest-numbered
    /// surviving region), and the region's home cameras are handed back
    /// administratively — the operator's fail-back, mirroring how the
    /// failover moved them away. Returns whether the region was newly
    /// revived.
    pub(crate) fn on_region_restore(&mut self, region: u16, now: SimTime) -> bool {
        let r = usize::from(region);
        if r >= self.regions() || self.region_alive[r] {
            return false;
        }
        self.region_alive[r] = true;
        let killed_at = self.region_outages.remove(&region).unwrap_or(now);
        // State transfer: clone the topology replica of the lowest live
        // region other than the one coming back. (All live replicas are
        // identical, so "lowest" is a convention, not a choice.)
        let donor = (0..self.regions()).find(|&d| d != r && self.region_alive[d]);
        if let Some(d) = donor {
            let state = self.servers[d].server().clone();
            *self.servers[r].server_mut() = state;
        }
        // Administrative fail-back of the region's home cameras.
        let mut outstanding: BTreeSet<CameraId> = BTreeSet::new();
        for (&cam, _) in self.home.iter().filter(|&(_, &h)| h == region) {
            if let Ok(slot) = self.ids.binary_search(&cam) {
                let driver = &mut self.drivers[slot];
                driver.set_parent(region_endpoint(region));
                driver.node_mut().set_storage(self.stores.node(r).clone());
                if self.alive.contains(&cam) {
                    outstanding.insert(cam);
                }
            }
        }
        self.obs.journal().record(
            JournalKind::PartitionHeal,
            Severity::Info,
            now.as_micros(),
            &region_subject(region),
            &format!("region {region} healed: state transferred, home cameras re-parented"),
        );
        if outstanding.is_empty() {
            let rec = RegionRecovery {
                region,
                killed_at,
                restored_at: now,
                recovered_at: now,
            };
            self.telemetry.region_recoveries.push(rec);
        } else {
            self.region_recoveries.push(RegionRecoveryTracker {
                region,
                killed_at,
                restored_at: now,
                outstanding,
            });
        }
        true
    }

    fn on_kill(&mut self, cam: CameraId, now: SimTime) {
        if self.alive.remove(&cam) {
            // A dead camera frames nothing: settle the idle frames it owes
            // for the ticks it was alive.
            let slot = self.slot(cam).expect("alive camera is deployed");
            self.sync_frames(slot, self.ticks);
            // A dead camera observes nothing: close its ground-truth
            // intervals at the kill instant. (`in_fov` is cleared on
            // restore, so re-detection reopens them.)
            self.ground_truth.close_camera(cam, now.as_millis());
            self.pending_kills.push((cam, now));
            self.obs.journal().record(
                JournalKind::NodeKill,
                Severity::Error,
                now.as_micros(),
                &subject_for(cam),
                &format!("camera {} killed (crash-stop)", cam.0),
            );
        }
    }

    /// Brings a previously killed camera back up. Returns whether the
    /// camera was newly revived (`false` if unknown or already alive), so
    /// the caller restarts the heartbeat chain exactly once.
    fn on_restore(&mut self, cam: CameraId, now: SimTime) -> bool {
        let Some(slot) = self.slot(cam) else {
            return false;
        };
        let revived = self.alive.insert(cam);
        if revived {
            // A rebooted camera re-detects whatever is in its FOV: clear
            // the edge-trigger memory so passages are re-emitted. Its frame
            // counter resumes here: dead ticks are not frames.
            self.in_fov.remove(&slot);
            self.frames_synced[slot] = self.ticks;
            self.obs.journal().record(
                JournalKind::NodeRestore,
                Severity::Info,
                now.as_micros(),
                &subject_for(cam),
                &format!("camera {} restored (rejoins on next heartbeat)", cam.0),
            );
        }
        revived
    }

    fn note_update_delivered(&mut self, to: CameraId, now: SimTime) {
        let mut finished = Vec::new();
        for (i, t) in self.recovery_trackers.iter_mut().enumerate() {
            t.outstanding.remove(&to);
            if t.outstanding.is_empty() {
                finished.push(i);
            }
        }
        for i in finished.into_iter().rev() {
            let t = self.recovery_trackers.remove(i);
            let recovery = Recovery {
                killed: t.killed,
                killed_at: t.killed_at,
                recovered_at: now,
            };
            self.telemetry.recoveries.push(recovery);
            self.obs.observe_recovery(&recovery);
        }
    }

    pub(crate) fn finish(&mut self, now: SimTime) {
        let now_ms = now.as_millis();
        self.ground_truth.close_all(now_ms);
        let mut pending: Vec<(CameraId, Message)> = Vec::new();
        let ids: Vec<CameraId> = self.alive.iter().copied().collect();
        for id in ids {
            // Settle the lazy frame counter, so every node ends the run in
            // the state a dense run leaves it in.
            let slot = self.slot(id).expect("alive camera is deployed");
            self.sync_frames(slot, self.ticks);
            let out = self.drivers[slot].flush_unsent(now);
            for e in &out.events {
                self.telemetry.events.push((id, e.ground_truth, now));
            }
            pending.extend(out.messages);
        }
        // Drain message cascades synchronously (zero-latency epilogue).
        while let Some((to, msg)) = pending.pop() {
            if !self.alive.contains(&to) {
                continue;
            }
            self.note_delivery(now, to, &msg);
            let slot = self.slot(to).expect("alive camera is deployed");
            pending.extend(self.drivers[slot].receive(msg, now));
        }
        // Publish the histogram scratch-arena hit rate accumulated across
        // every camera's feature extractions (reuse ≫ alloc is what keeps
        // the hot path allocation-free).
        let (reuses, allocs) = self
            .drivers
            .iter()
            .map(|d| d.node().scratch_stats())
            .fold((0, 0), |(r, a), (dr, da)| (r + dr, a + da));
        let registry = self.obs.registry();
        registry
            .counter("vision_scratch_reuse_total", &[])
            .add(reuses);
        registry
            .counter("vision_scratch_alloc_total", &[])
            .add(allocs);
    }
}

/// The ids of `a` missing from `b`, ascending; both must ascend strictly.
/// One merge walk: no hashing, no allocation.
fn ascending_difference<'a>(
    a: &'a [GroundTruthId],
    b: &'a [GroundTruthId],
) -> impl Iterator<Item = GroundTruthId> + 'a {
    let mut rest = b;
    a.iter().copied().filter(move |id| {
        let skip = rest.partition_point(|other| other < id);
        rest = &rest[skip..];
        rest.first() != Some(id)
    })
}

/// Schedules one engine delivery action for every envelope sent since the
/// last drain. Every event handler ends with this, so in-flight envelopes
/// always have their delivery on the engine queue before the handler's
/// periodic reschedule — reproducing the event order of the original
/// monolithic loop.
fn drain_deliveries(world: &mut SimWorld, ctx: &mut Context<SimWorld>) {
    for (endpoint, due) in world.net.take_new_due() {
        ctx.schedule_at(due, move |w: &mut SimWorld, ctx: &mut Context<SimWorld>| {
            w.deliver_one(endpoint, ctx.now());
            drain_deliveries(w, ctx);
        });
    }
}

fn tick_action(world: &mut SimWorld, ctx: &mut Context<SimWorld>) {
    world.on_tick(ctx.now());
    drain_deliveries(world, ctx);
    let next = ctx.now() + world.config.frame_period;
    ctx.schedule_at(next, tick_action);
}

fn liveness_action(world: &mut SimWorld, ctx: &mut Context<SimWorld>) {
    world.on_liveness_check(ctx.now());
    drain_deliveries(world, ctx);
    let next = ctx.now() + world.config.liveness_check_period;
    ctx.schedule_at(next, liveness_action);
}

fn heartbeat_action(cam: CameraId) -> Action<SimWorld> {
    Box::new(move |world, ctx| {
        if !world.alive.contains(&cam) {
            return; // dead cameras stop beating
        }
        world.on_heartbeat(cam, ctx.now());
        drain_deliveries(world, ctx);
        let next = ctx.now() + world.config.heartbeat_interval;
        ctx.schedule_at(next, heartbeat_action(cam));
    })
}

/// The discrete-event runtime: a [`SimWorld`] on the `coral_sim` engine.
#[derive(Debug)]
pub struct SimRuntime {
    engine: Engine<SimWorld>,
}

impl SimRuntime {
    /// Launches `world`, scheduling the initial event cycle: one staggered
    /// join heartbeat per camera (in the given order), the global frame
    /// tick, and the server liveness sweep.
    pub(crate) fn launch(world: SimWorld, join_order: &[CameraId]) -> Self {
        let frame_period = world.config.frame_period;
        let liveness_period = world.config.liveness_check_period;
        let mut engine = Engine::new(world);
        // Stagger initial heartbeats so joins are ordered but quick.
        for (i, &id) in join_order.iter().enumerate() {
            engine.schedule_at(SimTime::from_millis(i as u64 + 1), heartbeat_action(id));
        }
        engine.schedule_at(SimTime::ZERO + frame_period, tick_action);
        engine.schedule_at(SimTime::ZERO + liveness_period * 5, liveness_action);
        Self { engine }
    }

    /// The current simulation time.
    pub fn now(&self) -> SimTime {
        self.engine.now()
    }

    /// Total engine actions executed so far.
    pub fn events_executed(&self) -> u64 {
        self.engine.executed()
    }

    /// The world, read-only.
    pub fn world(&self) -> &SimWorld {
        self.engine.state()
    }

    /// The world, mutably (between runs).
    pub fn world_mut(&mut self) -> &mut SimWorld {
        self.engine.state_mut()
    }

    /// Runs the system until `until`.
    pub fn run_until(&mut self, until: SimTime) {
        self.engine.run_until(until);
    }

    /// Schedules a camera kill at `at`.
    pub fn schedule_kill(&mut self, at: SimTime, cam: CameraId) {
        self.engine
            .schedule_at(at, move |w: &mut SimWorld, ctx: &mut Context<SimWorld>| {
                w.on_kill(cam, ctx.now());
            });
    }

    /// Schedules a camera restore at `at`: the camera comes back alive and
    /// rejoins by heartbeating, exactly as a rebooted node would (§3.3 —
    /// the server treats the first heartbeat as a re-registration). A
    /// restore of an unknown or still-alive camera is a no-op.
    pub fn schedule_restore(&mut self, at: SimTime, cam: CameraId) {
        self.engine
            .schedule_at(at, move |w: &mut SimWorld, ctx: &mut Context<SimWorld>| {
                if w.on_restore(cam, ctx.now()) {
                    // Restart the heartbeat chain (it stopped itself when
                    // the camera died); the first beat re-registers.
                    let next = ctx.now() + SimDuration::from_millis(1);
                    ctx.schedule_at(next, heartbeat_action(cam));
                }
            });
    }

    /// Schedules a whole-region partition at `at`: the region's topology
    /// server and edge store stop acking. A no-op for an unknown or
    /// already-dead region.
    pub fn schedule_region_kill(&mut self, at: SimTime, region: u16) {
        self.engine
            .schedule_at(at, move |w: &mut SimWorld, ctx: &mut Context<SimWorld>| {
                w.on_region_kill(region, ctx.now());
            });
    }

    /// Schedules the heal of a region partition at `at`: the server comes
    /// back with state transferred from a surviving replica and the
    /// region's home cameras fail back to it.
    pub fn schedule_region_restore(&mut self, at: SimTime, region: u16) {
        self.engine
            .schedule_at(at, move |w: &mut SimWorld, ctx: &mut Context<SimWorld>| {
                let _ = w.on_region_restore(region, ctx.now());
            });
    }

    /// Flushes all in-flight tracks at the end of a run, synchronously
    /// delivering the resulting protocol messages.
    pub fn finish(&mut self) {
        let now = self.engine.now();
        self.engine.state_mut().finish(now);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ascending_difference_is_the_set_difference_in_order() {
        let ids = |v: &[u64]| v.iter().map(|&i| GroundTruthId(i)).collect::<Vec<_>>();
        let diff = |a: &[u64], b: &[u64]| -> Vec<u64> {
            ascending_difference(&ids(a), &ids(b))
                .map(|g| g.0)
                .collect()
        };
        assert_eq!(diff(&[1, 3, 5, 7], &[2, 3, 4, 7, 9]), [1, 5]);
        assert_eq!(diff(&[2, 3, 4, 7, 9], &[1, 3, 5, 7]), [2, 4, 9]);
        assert_eq!(diff(&[], &[1, 2]), [0u64; 0]);
        assert_eq!(diff(&[1, 2], &[]), [1, 2]);
        assert_eq!(diff(&[4, 8], &[4, 8]), [0u64; 0]);
    }
}
