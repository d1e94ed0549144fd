//! A live multi-threaded deployment: each camera node runs on its own OS
//! thread, exchanging real messages through the in-process router (the
//! ZeroMQ stand-in), with the topology server on its own thread — the
//! process architecture of the paper's prototype, minus the Raspberry Pis.
//!
//! The threads drive the same `NodeDriver` / `ServerDriver` units the
//! discrete-event runtime uses; only the pacing differs (thread loops and
//! a shared atomic clock instead of an event queue).
//!
//! ```sh
//! cargo run --release --example threaded_cameras
//! # in another shell, while it runs:
//! curl -s localhost:9464/healthz | head -c 200
//! curl -s localhost:9464/metrics | grep node_last_heartbeat_ms
//! ```
//!
//! The live ops endpoint binds `127.0.0.1:9464` by default; override with
//! `CORAL_OPS_ADDR=host:port` or disable with `CORAL_OPS_ADDR=off`.

use coral_pie::core::obs::{default_health_rules, CoreObs, NodeObs, ServerObs};
use coral_pie::core::{CameraSpec, Deployment, NodeConfig, NodeDriver, ServerDriver, SystemConfig};
use coral_pie::geo::{generators, route, IntersectionId};
use coral_pie::net::{Endpoint, InProcRouter, InProcTransport, Transport};
use coral_pie::obs::{OpsServer, OpsState};
use coral_pie::sim::{SimDuration, SimTime, TrafficConfig, TrafficModel};
use coral_pie::storage::{EdgeStorageNode, QueryOptions};
use coral_pie::topology::CameraId;
use coral_pie::vision::{DetectorNoise, ObjectClass};
use parking_lot::Mutex;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::Duration;

const N_CAMERAS: u32 = 3;

fn main() {
    let net = generators::corridor(N_CAMERAS as usize, 120.0, 12.0);
    let specs: Vec<CameraSpec> = (0..N_CAMERAS)
        .map(|i| CameraSpec {
            id: CameraId(i),
            site: IntersectionId(i),
            videoing_angle_deg: 0.0,
        })
        .collect();
    let deployment = Deployment::from_specs(
        net.clone(),
        &specs,
        SystemConfig {
            node: NodeConfig {
                detector_noise: DetectorNoise::perfect(),
                ..NodeConfig::default()
            },
            ..SystemConfig::default()
        },
    );
    let router = InProcRouter::new();
    let storage = EdgeStorageNode::default();
    let stop = Arc::new(AtomicBool::new(false));
    // Shared observability: metrics registry, flight recorder, and the
    // health/SLO engine evaluated on demand by the ops endpoint.
    let obs = CoreObs::new();
    let config = deployment.config();
    obs.install_health_rules(default_health_rules(
        config.heartbeat_interval.as_millis(),
        u64::from(config.miss_threshold),
        coral_pie::core::obs::HANDOFF_DEADLINE_MS,
        false,
    ));
    storage.instrument(obs.registry());
    // A shared wall clock in simulated milliseconds: the traffic thread
    // advances it; camera threads read it.
    let clock_ms = Arc::new(AtomicU64::new(0));
    let traffic = Arc::new(Mutex::new(TrafficModel::new(
        net.clone(),
        TrafficConfig::default(),
        7,
    )));

    // --- Live ops endpoint (metrics, health, journal). --------------------
    let ops_addr = std::env::var("CORAL_OPS_ADDR").unwrap_or_else(|_| "127.0.0.1:9464".into());
    let ops_server = if ops_addr == "off" {
        None
    } else {
        let ops_clock = clock_ms.clone();
        match OpsServer::spawn(
            ops_addr.as_str(),
            OpsState {
                registry: obs.registry().clone(),
                journal: obs.journal().clone(),
                health: obs.health(),
                clock_ms: Arc::new(move || ops_clock.load(Ordering::Relaxed)),
            },
        ) {
            Ok(server) => {
                println!("ops endpoint: http://{}/healthz", server.local_addr());
                Some(server)
            }
            Err(e) => {
                eprintln!("ops endpoint disabled ({ops_addr}: {e})");
                None
            }
        }
    };

    // --- Topology server thread (the cloud). -----------------------------
    let mut server_driver = ServerDriver::new(
        deployment.make_server(),
        InProcTransport::attach(&router, Endpoint::TopologyServer),
    );
    server_driver.set_obs(ServerObs::new(&obs));
    let server_stop = stop.clone();
    let server = thread::spawn(move || {
        let mut now_ms = 0u64;
        while !server_stop.load(Ordering::Relaxed) {
            while let Some(env) = server_driver.transport_mut().poll(SimTime::ZERO) {
                now_ms += 1;
                server_driver
                    .on_envelope(env, SimTime::from_millis(now_ms), |_| true)
                    .expect("cameras reachable");
            }
            thread::sleep(Duration::from_millis(2));
        }
    });

    // --- Camera node threads (device + edge compute per camera). ---------
    let mut camera_threads = Vec::new();
    for i in 0..N_CAMERAS {
        let cam = CameraId(i);
        let mut driver = NodeDriver::new(
            deployment.make_node(cam, storage.clone()).expect("placed"),
            InProcTransport::attach(&router, Endpoint::Camera(cam)),
        );
        driver.set_obs(NodeObs::new(&obs, cam));
        let hb_interval_ms = deployment.config().heartbeat_interval.as_millis();
        let cam_stop = stop.clone();
        let cam_clock = clock_ms.clone();
        let cam_traffic = traffic.clone();
        camera_threads.push(thread::spawn(move || {
            // Join the topology.
            driver
                .send_heartbeat(SimTime::ZERO)
                .expect("server reachable");
            let mut last_hb_ms = 0u64;
            let mut sent = 0u64;
            while !cam_stop.load(Ordering::Relaxed) {
                let now = SimTime::from_millis(cam_clock.load(Ordering::Relaxed));
                // Periodic liveness beats keep the server's view (and the
                // health engine's staleness rule) fed.
                if now.as_millis().saturating_sub(last_hb_ms) >= hb_interval_ms {
                    last_hb_ms = now.as_millis();
                    driver.send_heartbeat(now).expect("server reachable");
                }
                // Inbound protocol traffic (confirmation relays are sent
                // by the driver as it delivers).
                driver.pump(now, |_| {}).expect("peers reachable");
                // One frame; the driver sends the resulting informs.
                let scene = { driver.node().view().scene(&cam_traffic.lock()) };
                let out = driver.capture(&scene, now).expect("peers reachable");
                sent += out.reids.len() as u64;
                thread::sleep(Duration::from_millis(4)); // ~96 ms scaled 1/24
            }
            let now = SimTime::from_millis(cam_clock.load(Ordering::Relaxed));
            driver.flush(now).expect("peers reachable");
            (cam, driver.node().events_generated(), sent)
        }));
    }

    // --- Traffic thread: drives the world at 24x real time. --------------
    let r = route::shortest_path(&net, IntersectionId(0), IntersectionId(2)).expect("connected");
    traffic
        .lock()
        .spawn(SimTime::from_secs(1), r, Some(ObjectClass::Car));
    for _ in 0..450 {
        {
            let mut t = traffic.lock();
            let now = SimTime::from_millis(clock_ms.load(Ordering::Relaxed));
            t.step(now, SimDuration::from_millis(96));
        }
        clock_ms.fetch_add(96, Ordering::Relaxed);
        thread::sleep(Duration::from_millis(4));
    }
    stop.store(true, Ordering::Relaxed);

    for h in camera_threads {
        let (cam, events, reids) = h.join().expect("camera thread ok");
        println!("{cam}: {events} detection events, {reids} re-identifications");
    }
    server.join().expect("server thread ok");
    obs.health_tick(clock_ms.load(Ordering::Relaxed));
    let report = obs.latest_health().expect("health was just evaluated");
    println!("final health: {:?}", report.overall);
    if let Some(ops) = ops_server {
        ops.shutdown();
    }

    // The trajectory graph assembled by the threads.
    let stats = storage.stats();
    let (vertices, edges) = (stats.vertices, stats.edges);
    println!("\ntrajectory graph: {vertices} vertices, {edges} edges");
    let seed = storage.with_graph(|g| g.vertices().min_by_key(|v| v.first_seen_ms).map(|v| v.id));
    if let Some(seed) = seed {
        let track = storage
            .query_trajectory(seed, QueryOptions::default())
            .expect("seed exists")
            .best_track();
        println!("best track spans {} cameras", track.len());
        assert!(vertices >= 3, "every camera saw the vehicle");
    }
}
