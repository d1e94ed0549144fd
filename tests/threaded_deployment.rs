//! A real multi-threaded deployment (no discrete-event loop): camera nodes
//! on OS threads exchanging protocol messages through the in-process
//! router, with the topology server on its own thread — a compressed
//! version of `examples/threaded_cameras.rs` suitable for CI.
//!
//! The threads run the same `NodeDriver` / `ServerDriver` units the DES
//! drives; only the pacing (thread loops and a shared atomic clock)
//! differs.

use coral_pie::core::{CameraSpec, Deployment, NodeConfig, NodeDriver, ServerDriver, SystemConfig};
use coral_pie::geo::{generators, route, IntersectionId};
use coral_pie::net::{Endpoint, InProcRouter, InProcTransport, Transport};
use coral_pie::sim::{SimDuration, SimTime, TrafficConfig, TrafficModel};
use coral_pie::storage::{EdgeStorageNode, QueryOptions};
use coral_pie::topology::CameraId;
use coral_pie::vision::{DetectorNoise, ObjectClass};
use parking_lot::Mutex;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::Duration;

#[test]
fn threads_and_router_build_a_track() {
    const N: u32 = 3;
    let net = generators::corridor(N as usize, 120.0, 12.0);
    let specs: Vec<CameraSpec> = (0..N)
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
    let clock_ms = Arc::new(AtomicU64::new(0));
    let traffic = Arc::new(Mutex::new(TrafficModel::new(
        net.clone(),
        TrafficConfig::default(),
        7,
    )));

    // Topology server thread.
    let mut server_driver = ServerDriver::new(
        deployment.make_server(),
        InProcTransport::attach(&router, Endpoint::TopologyServer),
    );
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
            thread::sleep(Duration::from_millis(1));
        }
    });

    // Camera node threads, each driving a NodeDriver over the router.
    let mut camera_threads = Vec::new();
    for i in 0..N {
        let cam = CameraId(i);
        let mut driver = NodeDriver::new(
            deployment.make_node(cam, storage.clone()).expect("placed"),
            InProcTransport::attach(&router, Endpoint::Camera(cam)),
        );
        let cam_stop = stop.clone();
        let cam_clock = clock_ms.clone();
        let cam_traffic = traffic.clone();
        camera_threads.push(thread::spawn(move || {
            driver
                .send_heartbeat(SimTime::ZERO)
                .expect("server reachable");
            while !cam_stop.load(Ordering::Relaxed) {
                let now = SimTime::from_millis(cam_clock.load(Ordering::Relaxed));
                driver.pump(now, |_| {}).expect("peers reachable");
                let scene = { driver.node().view().scene(&cam_traffic.lock()) };
                driver.capture(&scene, now).expect("peers reachable");
                thread::sleep(Duration::from_millis(2));
            }
            let now = SimTime::from_millis(cam_clock.load(Ordering::Relaxed));
            driver.flush(now).expect("peers reachable");
            driver.node().events_generated()
        }));
    }

    // Drive traffic at high speedup on the main thread.
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
        thread::sleep(Duration::from_millis(2));
    }
    stop.store(true, Ordering::Relaxed);
    let mut total_events = 0;
    for h in camera_threads {
        total_events += h.join().expect("camera thread ok");
    }
    server.join().expect("server thread ok");

    // Every camera detected the vehicle; re-identification linked them.
    assert!(total_events >= 3, "events: {total_events}");
    let stats = storage.stats();
    let (vertices, edges) = (stats.vertices, stats.edges);
    assert!(vertices >= 3, "vertices: {vertices}");
    assert!(edges >= 1, "no cross-camera links were made");
    let seed = storage
        .with_graph(|g| g.vertices().min_by_key(|v| v.first_seen_ms).map(|v| v.id))
        .expect("detections stored");
    let track = storage
        .query_trajectory(seed, QueryOptions::default())
        .expect("seed exists")
        .best_track();
    assert!(track.len() >= 2, "track: {track:?}");
}
