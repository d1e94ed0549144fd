//! A live multi-threaded deployment: each camera node runs on its own OS
//! thread, exchanging real messages through the in-process router (the
//! ZeroMQ stand-in), with the topology server on its own thread — the
//! process architecture of the paper's prototype, minus the Raspberry Pis.
//!
//! `Deployment::build_threaded` wires the same actors and link stack the
//! discrete-event runtime uses; only the pacing differs (thread loops and
//! a shared sim clock instead of an event queue).
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

use coral_pie::core::{CameraSpec, Deployment, NodeConfig, SystemConfig};
use coral_pie::geo::{generators, route, IntersectionId};
use coral_pie::net::{InProcRouter, InProcTransport};
use coral_pie::obs::OpsServer;
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
    let router = InProcRouter::new();
    let mut runtime =
        deployment.build_threaded(|endpoint| InProcTransport::attach(&router, endpoint));

    // --- Live ops endpoint (metrics, health, journal). --------------------
    let ops_addr = std::env::var("CORAL_OPS_ADDR").unwrap_or_else(|_| "127.0.0.1:9464".into());
    let ops_server = if ops_addr == "off" {
        None
    } else {
        match OpsServer::spawn(ops_addr.as_str(), runtime.ops_state()) {
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

    // --- One vehicle down the corridor, then the threaded run. -----------
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
    runtime.obs().health_tick(runtime.now().as_millis());
    let report = runtime
        .obs()
        .latest_health()
        .expect("health was just evaluated");
    println!("final health: {:?}", report.overall);
    if let Some(ops) = ops_server {
        ops.shutdown();
    }

    // The trajectory graph assembled by the threads.
    let storage = runtime.storage();
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
