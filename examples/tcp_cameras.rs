//! Camera nodes talking over real TCP sockets — the closest analogue to
//! the paper's deployment, where each camera's RPis push ZeroMQ messages
//! over the campus LAN. Each party binds its own loopback port through a
//! [`TcpTransport`]; a shared [`TcpDirectory`] maps endpoints to socket
//! addresses (in a real deployment this comes from configuration or the
//! topology server).
//!
//! The threads drive the same `NodeDriver` / `ServerDriver` units the
//! discrete-event runtime and the in-process router example use — only the
//! transport differs.
//!
//! ```sh
//! cargo run --release --example tcp_cameras
//! ```

use coral_pie::core::{CameraSpec, Deployment, NodeConfig, NodeDriver, ServerDriver, SystemConfig};
use coral_pie::geo::{generators, route, IntersectionId};
use coral_pie::net::{Endpoint, TcpDirectory, TcpTransport, Transport};
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
    let storage = EdgeStorageNode::default();
    let stop = Arc::new(AtomicBool::new(false));
    let clock_ms = Arc::new(AtomicU64::new(0));
    let traffic = Arc::new(Mutex::new(TrafficModel::new(
        net.clone(),
        TrafficConfig::default(),
        7,
    )));

    // Bind one TCP listener per party; each bind publishes its resolved
    // address into the shared directory before any thread starts sending.
    let directory = TcpDirectory::new();
    let server_transport = TcpTransport::bind(Endpoint::TopologyServer, "127.0.0.1:0", &directory)
        .expect("bind server");
    let camera_transports: Vec<TcpTransport> = (0..N_CAMERAS)
        .map(|i| {
            TcpTransport::bind(Endpoint::Camera(CameraId(i)), "127.0.0.1:0", &directory)
                .expect("bind camera")
        })
        .collect();
    println!("address directory:");
    let mut entries = directory.entries();
    entries.sort_by_key(|&(ep, _)| ep);
    for (ep, addr) in entries {
        println!("  {ep} -> {addr}");
    }

    // Topology server thread: real socket in, real sockets out.
    let mut server_driver = ServerDriver::new(deployment.make_server(), server_transport);
    let server_stop = stop.clone();
    let server = thread::spawn(move || {
        let mut now_ms = 0u64;
        while !server_stop.load(Ordering::Relaxed) {
            while let Some(env) = server_driver.transport_mut().poll(SimTime::ZERO) {
                now_ms += 1;
                // Sends race camera shutdown at the end of the run; a
                // vanished peer is not an error here.
                let _ = server_driver.on_envelope(env, SimTime::from_millis(now_ms), |_| true);
            }
            thread::sleep(Duration::from_millis(1));
        }
        let (_, transport) = server_driver.into_parts();
        transport.shutdown();
    });

    // Camera node threads, each driving a NodeDriver over its own socket.
    let mut camera_threads = Vec::new();
    for (i, transport) in camera_transports.into_iter().enumerate() {
        let cam = CameraId(i as u32);
        let mut driver = NodeDriver::new(
            deployment.make_node(cam, storage.clone()).expect("placed"),
            transport,
        );
        let cam_stop = stop.clone();
        let cam_clock = clock_ms.clone();
        let cam_traffic = traffic.clone();
        camera_threads.push(thread::spawn(move || {
            driver
                .send_heartbeat(SimTime::ZERO)
                .expect("server reachable");
            let mut received = 0u64;
            while !cam_stop.load(Ordering::Relaxed) {
                let now = SimTime::from_millis(cam_clock.load(Ordering::Relaxed));
                // Inbound protocol traffic; replies (confirmation relays)
                // go straight back out over TCP. Peer shutdown at the end
                // of the run can fail a send — tolerated, like any LAN.
                received += driver.pump(now, |_| {}).unwrap_or(0) as u64;
                let scene = { driver.node().view().scene(&cam_traffic.lock()) };
                let _ = driver.capture(&scene, now);
                thread::sleep(Duration::from_millis(4));
            }
            let (node, transport) = driver.into_parts();
            transport.shutdown();
            (cam, node.events_generated(), received)
        }));
    }

    // Traffic at ~24x real time.
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
        let (cam, events, received) = h.join().expect("camera thread ok");
        println!("{cam}: {events} detection events, {received} TCP messages received");
    }
    server.join().expect("server thread ok");

    let stats = storage.stats();
    let (vertices, edges) = (stats.vertices, stats.edges);
    println!("\ntrajectory graph: {vertices} vertices, {edges} edges");
    let seed = storage
        .with_graph(|g| g.vertices().min_by_key(|v| v.first_seen_ms).map(|v| v.id))
        .expect("detections stored");
    let track = storage
        .query_trajectory(seed, QueryOptions::default())
        .expect("seed exists")
        .best_track();
    println!(
        "best track spans {} cameras — TCP deployment OK",
        track.len()
    );
    assert!(vertices >= 3);
}
