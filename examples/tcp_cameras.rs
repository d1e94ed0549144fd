//! Camera nodes talking over real TCP sockets — the closest analogue to
//! the paper's deployment, where each camera's RPis push ZeroMQ messages
//! over the campus LAN. Each party binds its own loopback port through a
//! [`TcpTransport`]; a shared [`TcpDirectory`] maps endpoints to socket
//! addresses (in a real deployment this comes from configuration or the
//! topology server).
//!
//! It runs the same threaded runtime as the in-process router example —
//! only the raw transport differs. Dropping the runtime at the end closes
//! every listener, after all threads have joined.
//!
//! ```sh
//! cargo run --release --example tcp_cameras
//! ```

use coral_pie::core::{CameraSpec, Deployment, NodeConfig, SystemConfig};
use coral_pie::geo::{generators, route, IntersectionId};
use coral_pie::net::{TcpDirectory, TcpTransport};
use coral_pie::sim::SimTime;
use coral_pie::storage::QueryOptions;
use coral_pie::topology::CameraId;
use coral_pie::vision::{DetectorNoise, ObjectClass};

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

    // One TCP listener per party; each bind publishes its resolved address
    // into the shared directory, and every bind happens before any thread
    // starts sending.
    let directory = TcpDirectory::new();
    let mut runtime = deployment.build_threaded(|endpoint| {
        TcpTransport::bind(endpoint, "127.0.0.1:0", &directory).expect("bind loopback")
    });
    println!("address directory:");
    let mut entries = directory.entries();
    entries.sort_by_key(|&(ep, _)| ep);
    for (ep, addr) in entries {
        println!("  {ep} -> {addr}");
    }

    let r = route::shortest_path(&net, IntersectionId(0), IntersectionId(2)).expect("connected");
    runtime
        .traffic_mut()
        .spawn(SimTime::from_secs(1), r, Some(ObjectClass::Car));
    runtime.run();
    for node in runtime.nodes() {
        println!(
            "{}: {} detection events, {} re-identifications",
            node.id(),
            node.events_generated(),
            node.reid().matches()
        );
    }

    let storage = runtime.storage();
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
