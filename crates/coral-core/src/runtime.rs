//! The discrete-event runtime: [`SimWorld`] on the `coral_sim` engine,
//! driving the [`NodeDriver`]s and [`ServerDriver`]s every deployment mode
//! shares over [`SimTransport`] links. The integration schedules exactly
//! one engine delivery action per in-flight envelope, reproducing the
//! event order of the original monolithic event loop bit for bit.
//!
//! The world keeps the paper's three jobs apart in three planes, each
//! owning its own state and borrowing the camera roster:
//!
//! - the *tick plane* (`tick`): the camera node's per-frame pipeline
//!   (§4.1): traffic, the frame clock, sparse stepping and the ordered
//!   commit walk with its ground-truth evidence;
//! - the *recovery plane* (`recovery`): the topology server's
//!   failure-recovery measurements (§3.3, §4.3);
//! - the *regions plane* (`regions`): the federation's topology servers
//!   and edge stores (§4.2), with failover, handoff replication and
//!   region partitions.

mod recovery;
mod regions;
mod tick;

pub use crate::driver::{region_endpoint, Link, LivenessOutcome, NodeDriver, ServerDriver};

use crate::deploy::SystemConfig;
use crate::driver::build_link;
use crate::node::{CameraNode, FrameAnalysis, HandoffEdge};
use crate::obs::{camera_pid, region_subject, subject_for, CoreObs, TickActivity, SERVER_PID};
use crate::stepper::Stepper;
use crate::telemetry::{InformArrival, Passage, Recovery, RegionRecovery, Telemetry};
use coral_net::{Endpoint, Envelope, Message, SimNet, SimTransport, Transport};
use coral_obs::{JournalKind, Severity};
use coral_sim::engine::{Action, Context};
use coral_sim::{
    Engine, GroundTruthLog, OccupancyIndex, PoissonArrivals, SimDuration, SimTime, TrafficModel,
    VehicleState,
};
use coral_storage::{EdgeStorageNode, FederatedStores, TrajectoryGraph};
use coral_topology::{CameraId, TopologyServer};
use coral_vision::GroundTruthId;
use recovery::RecoveryPlane;
use regions::{server_region, RegionsPlane};
use std::collections::{BTreeMap, BTreeSet};
use std::time::{Duration, Instant};
use tick::TickPlane;

/// The link of every DES endpoint: the stack over the simulated network.
pub type SimLink = Link<SimTransport>;

const SIM_SEND: &str = "sim transport sends cannot fail";

/// The camera roster: camera drivers in `CameraId` order and the cameras
/// alive. A driver's index is its camera *slot*: its occupancy-index slot
/// and the key of every per-camera tick structure. Drivers are never
/// removed, so slots are stable across kills and restores.
struct Roster {
    drivers: Vec<NodeDriver<SimLink>>,
    /// The camera id of each slot (ascending).
    ids: Vec<CameraId>,
    alive: BTreeSet<CameraId>,
}

impl Roster {
    /// The slot of camera `id`, if deployed.
    fn slot(&self, id: CameraId) -> Option<usize> {
        self.ids.binary_search(&id).ok()
    }

    /// The slot of camera `id`, known to be deployed.
    fn slot_of(&self, id: CameraId) -> usize {
        self.slot(id).expect("alive camera is deployed")
    }
}

/// The discrete-event world: every deployed actor, the simulated network,
/// ground-truth traffic and the run's evaluation evidence.
///
/// Built by `Deployment::build` and driven by [`SimRuntime`]; the facade
/// `CoralPieSystem` exposes it between runs. A deployment is a federation
/// of one or more regions, each with its own topology server and edge
/// store (see the regions plane). Every engine handler is a short
/// sequence of plane calls.
pub struct SimWorld {
    config: SystemConfig,
    net: SimNet,
    obs: CoreObs,
    telemetry: Telemetry,
    roster: Roster,
    tick: TickPlane,
    recovery: RecoveryPlane,
    regions: RegionsPlane,
}

impl std::fmt::Debug for SimWorld {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SimWorld")
            .field("cameras", &self.roster.drivers.len())
            .field("alive", &self.roster.alive)
            .field("net", &self.net)
            .field("regions", &self.regions.servers.len())
            .finish()
    }
}

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
        let alive = drivers.keys().copied().collect();
        let (ids, drivers) = drivers.into_iter().unzip();
        let roster = Roster {
            drivers,
            ids,
            alive,
        };
        let regions = RegionsPlane::new(&config, &net, &obs, servers, stores, &roster);
        Self {
            tick: TickPlane::new(&config, traffic, &roster.drivers),
            recovery: RecoveryPlane::default(),
            regions,
            roster,
            telemetry: Telemetry::default(),
            config,
            net,
            obs,
        }
    }

    /// The system configuration.
    pub fn config(&self) -> &SystemConfig {
        &self.config
    }

    /// The traffic model (to add lights or spawn vehicles between runs).
    pub fn traffic_mut(&mut self) -> &mut TrafficModel {
        &mut self.tick.traffic
    }

    /// The traffic model, read-only.
    pub fn traffic(&self) -> &TrafficModel {
        &self.tick.traffic
    }

    /// Installs an open-workload arrival process.
    pub fn set_arrivals(&mut self, arrivals: PoissonArrivals) {
        self.tick.arrivals = Some(arrivals);
    }

    /// Region 0's trajectory store (the only one in a single-region
    /// deployment).
    pub fn storage(&self) -> &EdgeStorageNode {
        self.regions.stores.node(0)
    }

    /// Number of regions.
    pub fn regions(&self) -> usize {
        self.regions.servers.len()
    }

    /// The region currently parenting `cam`'s heartbeats (diverges from
    /// the home region only while a failover is in effect).
    pub fn parent_region_of(&self, cam: CameraId) -> u16 {
        self.roster
            .slot(cam)
            .and_then(|slot| server_region(self.roster.drivers[slot].parent()))
            .unwrap_or(0)
    }

    /// Whether region `region` is currently alive.
    pub fn region_alive(&self, region: u16) -> bool {
        self.regions.is_alive(region)
    }

    /// Runs `f` over the deployment-wide trajectory graph: the
    /// owner-preferring union of every region store (with one region, the
    /// store's cached flat graph). Replicated copies deduplicate under the
    /// union (keep-first ingest), so a multi-region view converges to what
    /// a single-region run would hold.
    pub fn with_trajectory_graph<R>(&self, f: impl FnOnce(&TrajectoryGraph) -> R) -> R {
        self.regions.with_trajectory_graph(f)
    }

    /// Region 0's topology server (every live region server holds the same
    /// replicated state).
    pub fn server(&self) -> &TopologyServer {
        self.regions.servers[0].server()
    }

    /// A camera node, if deployed.
    pub fn node(&self, id: CameraId) -> Option<&CameraNode> {
        self.roster
            .slot(id)
            .map(|slot| self.roster.drivers[slot].node())
    }

    /// All deployed camera nodes, in id order.
    pub fn nodes(&self) -> impl Iterator<Item = (CameraId, &CameraNode)> {
        self.roster
            .ids
            .iter()
            .copied()
            .zip(self.roster.drivers.iter().map(NodeDriver::node))
    }

    /// Cameras currently alive.
    pub fn alive(&self) -> &BTreeSet<CameraId> {
        &self.roster.alive
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
        &self.tick.ground_truth
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
        for &id in &self.roster.ids {
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
        let regions = &self.regions;
        self.tick.run(
            now,
            &self.config,
            &mut self.roster,
            &self.obs,
            &mut self.telemetry,
            |id, driver, handoffs| regions.replicate(id, driver, handoffs, now),
        );
    }

    fn on_heartbeat(&mut self, cam: CameraId, now: SimTime) {
        let slot = self.roster.slot_of(cam);
        let driver = &mut self.roster.drivers[slot];
        self.regions
            .maybe_fail_over(driver, self.config.miss_threshold, &self.obs, now);
        driver.send_heartbeat(now).expect(SIM_SEND);
        self.tick.note_link(slot, driver);
    }

    fn on_liveness_check(&mut self, now: SimTime) {
        let (removed, recipients) = self.regions.sweep(&self.roster, now);
        self.recovery
            .resolve_removed(removed, &recipients, now, &mut self.telemetry, &self.obs);
    }

    fn deliver_one(&mut self, endpoint: Endpoint, now: SimTime) {
        let accepts = match endpoint {
            Endpoint::Camera(cam) => self.roster.alive.contains(&cam),
            _ => self.regions.accepts(endpoint),
        };
        if !accepts {
            // A dead camera, a partitioned region's server or store, or a
            // store with no replica ingest point can never ack: consume
            // the frame raw, off the reliability stack, so its sender sees
            // silence (the crash-stop the self-healing protocol assumes):
            // it retries, fails over or eventually abandons (the primary
            // commit still holds a replicated edge).
            let _ = self.net.handle(endpoint).poll(now);
            return;
        }
        match endpoint {
            Endpoint::Camera(cam) => {
                let slot = self.roster.slot_of(cam);
                if let Some(envelope) = self.roster.drivers[slot].transport_mut().poll(now) {
                    let message = envelope.message;
                    self.note_delivery(now, cam, &message);
                    match &message {
                        Message::Inform(event) => self.obs.observe_inform_latency(now, cam, event),
                        Message::TopologyUpdate(_) => self.recovery.note_update_delivered(
                            cam,
                            now,
                            &mut self.telemetry,
                            &self.obs,
                        ),
                        _ => {}
                    }
                    self.roster.drivers[slot]
                        .deliver(message, now)
                        .expect(SIM_SEND);
                }
                // The poll consumed or sent acks (a reorder fault may hold
                // one back) and the delivery may have sent replies.
                self.tick.note_link(slot, &self.roster.drivers[slot]);
            }
            Endpoint::EdgeStore(r) => self.regions.ingest(r as usize, now),
            Endpoint::TopologyServer | Endpoint::RegionServer(_) => {
                let heartbeat = self.regions.receive(endpoint, &self.roster, &self.obs, now);
                if let Some((region, camera)) = heartbeat {
                    self.recovery.note_region_heartbeat(
                        Some(region),
                        camera,
                        now,
                        &mut self.telemetry,
                    );
                }
            }
        }
    }

    fn on_region_kill(&mut self, region: u16, now: SimTime) {
        self.regions.kill(region, now, &self.obs);
    }

    fn on_region_restore(&mut self, region: u16, now: SimTime) {
        if let Some((healed, outstanding)) =
            self.regions
                .restore(region, now, &mut self.roster, &self.obs)
        {
            self.recovery
                .open_region(healed, outstanding, &mut self.telemetry);
        }
    }

    fn on_kill(&mut self, cam: CameraId, now: SimTime) {
        if self.roster.alive.remove(&cam) {
            let slot = self.roster.slot_of(cam);
            self.tick
                .camera_down(slot, &mut self.roster.drivers[slot], now);
            self.recovery
                .note_kill(cam, now, &mut self.telemetry, &self.obs);
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
        let Some(slot) = self.roster.slot(cam) else {
            return false;
        };
        let revived = self.roster.alive.insert(cam);
        if revived {
            self.tick.camera_up(slot);
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

    fn finish(&mut self, now: SimTime) {
        self.tick.ground_truth.close_all(now.as_millis());
        let mut pending: Vec<(CameraId, Message)> = Vec::new();
        for &id in &self.roster.alive {
            // Settle the lazy frame counter, so every node ends the run in
            // the state a dense run leaves it in.
            let slot = self.roster.slot_of(id);
            let driver = &mut self.roster.drivers[slot];
            self.tick.settle(slot, driver);
            let out = driver.flush_unsent(now);
            for e in &out.events {
                self.telemetry.events.push((id, e.ground_truth, now));
            }
            pending.extend(out.messages);
        }
        // Drain message cascades synchronously (zero-latency epilogue).
        while let Some((to, msg)) = pending.pop() {
            if !self.roster.alive.contains(&to) {
                continue;
            }
            self.note_delivery(now, to, &msg);
            let slot = self.roster.slot_of(to);
            pending.extend(self.roster.drivers[slot].receive(msg, now));
        }
        // Publish the histogram scratch-arena hit rate accumulated across
        // every camera's feature extractions (reuse ≫ alloc is what keeps
        // the hot path allocation-free).
        let (reuses, allocs) = self
            .roster
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
        if !world.roster.alive.contains(&cam) {
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
                w.on_region_restore(region, ctx.now());
            });
    }

    /// Flushes all in-flight tracks at the end of a run, synchronously
    /// delivering the resulting protocol messages.
    pub fn finish(&mut self) {
        let now = self.engine.now();
        self.engine.state_mut().finish(now);
    }
}
