//! The threaded runtime: the topology server and every camera node on an
//! OS thread of its own, over a real-time transport (the in-process
//! router or loopback TCP sockets) — the process architecture of the
//! paper's prototype. It is the counterpart of the discrete-event
//! [`SimRuntime`](crate::SimRuntime), built by
//! [`Deployment::build_threaded`](crate::Deployment::build_threaded) with
//! the same actors, built metered the same way, and the same link stack;
//! only the pacing differs. Every driver counts its own work, so `/metrics`
//! of a threaded run carries the same protocol counters as the DES's
//! registry.
//!
//! One [`ThreadedRuntime::run`] drives 450 frames of traffic on the
//! calling thread, one frame period of sim time every 2 ms of wall time
//! (48x real time at the default 96 ms frame), and advances a shared sim
//! clock that every thread reads. Each camera heartbeats on
//! `heartbeat_interval` and runs pump → capture → link tick; the server
//! drains its inbox and ticks its link. After the last frame the clock
//! freezes for 100 ms so a camera that lagged catches up, then the
//! cameras flush their open tracks and stop, and the server stops after
//! them.
//!
//! Only two sim-clock mechanisms of the DES are left out, because at 48x
//! a wall-clock stall of a loaded host reads as seconds of sim time: the
//! server's liveness sweep (no failure detection; a 2 s heartbeat and a
//! miss threshold of 2 would evict a camera after ~83 ms of silence) and
//! the inform-latency samples (a 52 ms stall would read as a 2.5 s
//! latency). The DES-only observations (ground-truth passages, recoveries,
//! tick statistics) have no counterpart here either.

use crate::deploy::SystemConfig;
use crate::driver::{Link, NodeDriver, ServerDriver};
use crate::node::CameraNode;
use crate::obs::CoreObs;
use coral_net::Transport;
use coral_obs::OpsState;
use coral_sim::{SimTime, TrafficModel};
use coral_storage::EdgeStorageNode;
use coral_topology::TopologyServer;
use parking_lot::RwLock;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::Duration;

/// Traffic frames one run drives.
const FRAMES: u32 = 450;

/// Wall time per traffic frame and per camera pass.
const PACE: Duration = Duration::from_millis(2);

/// Wall time per server pass.
const SERVER_PACE: Duration = Duration::from_millis(1);

/// How long the clock stays frozen after the last frame, with every
/// thread still running.
const SETTLE: Duration = Duration::from_millis(100);

/// A deployment on OS threads. See the [module docs](self).
///
/// Dropping the runtime drops every transport; a `TcpTransport` closes
/// its listener then.
#[derive(Debug)]
pub struct ThreadedRuntime<T: Transport> {
    config: SystemConfig,
    server: ServerDriver<Link<T>>,
    drivers: Vec<NodeDriver<Link<T>>>,
    storage: EdgeStorageNode,
    traffic: RwLock<TrafficModel>,
    obs: CoreObs,
    /// The shared sim clock, in milliseconds. It publishes no other data
    /// (the traffic model has its own lock), so every access is Relaxed.
    clock_ms: Arc<AtomicU64>,
}

impl<T: Transport + Send> ThreadedRuntime<T> {
    /// Takes actors and a store already built metered into `obs`.
    pub(crate) fn new(
        config: SystemConfig,
        obs: CoreObs,
        server: ServerDriver<Link<T>>,
        drivers: Vec<NodeDriver<Link<T>>>,
        storage: EdgeStorageNode,
        traffic: TrafficModel,
    ) -> Self {
        Self {
            config,
            server,
            drivers,
            storage,
            traffic: RwLock::new(traffic),
            obs,
            clock_ms: Arc::new(AtomicU64::new(0)),
        }
    }

    /// The system configuration.
    pub fn config(&self) -> &SystemConfig {
        &self.config
    }

    /// The traffic model (to spawn the workload before a run).
    pub fn traffic_mut(&mut self) -> &mut TrafficModel {
        self.traffic.get_mut()
    }

    /// The deployment's observer (registry, journal, health engine).
    pub fn obs(&self) -> &CoreObs {
        &self.obs
    }

    /// The trajectory store every camera writes to.
    pub fn storage(&self) -> &EdgeStorageNode {
        &self.storage
    }

    /// The topology server.
    pub fn server(&self) -> &TopologyServer {
        self.server.server()
    }

    /// The camera nodes, in placement order.
    pub fn nodes(&self) -> impl Iterator<Item = &CameraNode> + '_ {
        self.drivers.iter().map(NodeDriver::node)
    }

    /// The shared sim clock.
    pub fn now(&self) -> SimTime {
        now(&self.clock_ms)
    }

    /// What the ops endpoint serves: the observer's registry, journal and
    /// health engine, evaluated on the shared sim clock.
    pub fn ops_state(&self) -> OpsState {
        let clock = self.clock_ms.clone();
        OpsState {
            registry: self.obs.registry().clone(),
            journal: self.obs.journal().clone(),
            health: self.obs.health(),
            clock_ms: Arc::new(move || clock.load(Ordering::Relaxed)),
        }
    }

    /// Runs the deployment for one traffic run (see the
    /// [module docs](self)), blocking until every thread has joined.
    ///
    /// # Panics
    ///
    /// Re-raises the panic of a camera or server thread; a send that
    /// fails panics its thread.
    pub fn run(&mut self) {
        let Self {
            config,
            server,
            drivers,
            traffic,
            clock_ms,
            ..
        } = self;
        let (clock, traffic) = (&**clock_ms, &*traffic);
        let heartbeat_ms = config.heartbeat_interval.as_millis();
        let frame = config.frame_period;
        let cameras_stop = AtomicBool::new(false);
        let server_stop = AtomicBool::new(false);
        thread::scope(|s| {
            s.spawn(|| serve(server, clock, &server_stop));
            let cameras: Vec<_> = drivers
                .iter_mut()
                .map(|driver| {
                    let stop = &cameras_stop;
                    s.spawn(move || drive_camera(driver, clock, traffic, heartbeat_ms, stop))
                })
                .collect();
            for _ in 0..FRAMES {
                traffic.write().step(now(clock), frame);
                clock.fetch_add(frame.as_millis(), Ordering::Relaxed);
                thread::sleep(PACE);
            }
            thread::sleep(SETTLE);
            cameras_stop.store(true, Ordering::Relaxed);
            let joined: Vec<_> = cameras.into_iter().map(|h| h.join()).collect();
            // The server outlives the cameras, so it takes their last
            // heartbeats and every send it answers still has a recipient.
            // Release pairs with the server's Acquire load: its last drain
            // sees every envelope the joined cameras sent.
            server_stop.store(true, Ordering::Release);
            for result in joined {
                if let Err(panic) = result {
                    std::panic::resume_unwind(panic);
                }
            }
        });
    }
}

fn now(clock: &AtomicU64) -> SimTime {
    SimTime::from_millis(clock.load(Ordering::Relaxed))
}

/// One camera thread: heartbeat when due, pump, capture, tick the link,
/// until `stop`; then flush the open tracks.
fn drive_camera<T: Transport>(
    driver: &mut NodeDriver<Link<T>>,
    clock: &AtomicU64,
    traffic: &RwLock<TrafficModel>,
    heartbeat_ms: u64,
    stop: &AtomicBool,
) {
    let mut last_heartbeat: Option<u64> = None;
    while !stop.load(Ordering::Relaxed) {
        let now = now(clock);
        if last_heartbeat.is_none_or(|at| now.as_millis() - at >= heartbeat_ms) {
            driver.send_heartbeat(now).expect("server reachable");
            last_heartbeat = Some(now.as_millis());
        }
        driver.pump(now).expect("peers reachable");
        let scene = driver
            .node()
            .view()
            .scene_at(&traffic.read(), now.as_millis());
        driver.capture(&scene, now).expect("peers reachable");
        driver.transport_mut().tick(now);
        thread::sleep(PACE);
    }
    driver.flush(now(clock)).expect("peers reachable");
}

/// The server thread: drain the inbox and tick the link on each pass, and
/// drain once more after `stop`.
fn serve<T: Transport>(server: &mut ServerDriver<Link<T>>, clock: &AtomicU64, stop: &AtomicBool) {
    loop {
        let stopping = stop.load(Ordering::Acquire);
        while let Some(envelope) = server.transport_mut().poll(now(clock)) {
            // Read after the receive, so a heartbeat is never stamped
            // earlier than the clock it was sent at.
            let now = now(clock);
            server
                .on_envelope(envelope, now, |_| true)
                .expect("cameras reachable");
        }
        server.transport_mut().tick(now(clock));
        if stopping {
            return;
        }
        thread::sleep(SERVER_PACE);
    }
}
