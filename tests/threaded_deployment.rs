//! The threaded runtime (no discrete-event loop): camera nodes and the
//! topology server on OS threads, exchanging protocol messages over the
//! in-process router or loopback TCP sockets — a CI-sized version of
//! `examples/threaded_cameras.rs` and `examples/tcp_cameras.rs`.

use coral_pie::core::{CameraSpec, Deployment, NodeConfig, SystemConfig, ThreadedRuntime};
use coral_pie::geo::{generators, route, IntersectionId};
use coral_pie::net::{
    Endpoint, InProcRouter, InProcTransport, TcpDirectory, TcpTransport, Transport,
};
use coral_pie::sim::SimTime;
use coral_pie::storage::QueryOptions;
use coral_pie::topology::CameraId;
use coral_pie::vision::{DetectorNoise, ObjectClass};

const N: u32 = 3;

/// Three cameras down a corridor with perfect detectors, one vehicle
/// driven through them in a threaded run over `raw` transports.
fn run_corridor<T: Transport + Send>(raw: impl FnMut(Endpoint) -> T) -> ThreadedRuntime<T> {
    let net = generators::corridor(N as usize, 120.0, 12.0);
    let specs: Vec<CameraSpec> = (0..N)
        .map(|i| CameraSpec {
            id: CameraId(i),
            site: IntersectionId(i),
            videoing_angle_deg: 0.0,
        })
        .collect();
    let r =
        route::shortest_path(&net, IntersectionId(0), IntersectionId(N - 1)).expect("connected");
    let deployment = Deployment::from_specs(
        net,
        &specs,
        SystemConfig {
            node: NodeConfig {
                detector_noise: DetectorNoise::perfect(),
                ..NodeConfig::default()
            },
            ..SystemConfig::default()
        },
    );
    let mut runtime = deployment.build_threaded(raw);
    runtime
        .traffic_mut()
        .spawn(SimTime::from_secs(1), r, Some(ObjectClass::Car));
    runtime.run();
    runtime
}

/// Every camera detected the vehicle and re-identification linked them.
fn assert_track<T: Transport + Send>(runtime: &ThreadedRuntime<T>) {
    let total_events: u64 = runtime.nodes().map(|n| n.events_generated()).sum();
    assert!(total_events >= 3, "events: {total_events}");
    let storage = runtime.storage();
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

/// Every driver metered its own work into the registry, as under the DES.
fn assert_metered<T: Transport + Send>(runtime: &ThreadedRuntime<T>) {
    let registry = runtime.obs().registry();
    let counter =
        |name: &str, labels: &[(&str, &str)]| registry.counter_value(name, labels).unwrap_or(0);
    let events: u64 = runtime.nodes().map(|n| n.events_generated()).sum();
    assert!(events > 0, "no events generated");
    assert_eq!(counter("runtime_events_total", &[]), events);
    assert!(
        counter("runtime_reids_total", &[]) >= 1,
        "no re-ids counted"
    );
    assert!(
        counter("runtime_heartbeats_total", &[]) >= u64::from(N),
        "fewer heartbeats than cameras"
    );
    assert!(counter("runtime_cloud_bytes_total", &[]) > 0);
    // Informs sent by the final flush are never pumped, so deliveries
    // trail sends.
    let inform = [("kind", "inform")];
    let delivered = counter("runtime_messages_delivered_total", &inform);
    let sent = counter("runtime_messages_sent_total", &inform);
    assert!(
        delivered > 0 && delivered <= sent,
        "informs delivered {delivered}, sent {sent}"
    );
}

#[test]
fn threads_and_router_build_a_track() {
    let router = InProcRouter::new();
    let runtime = run_corridor(|endpoint| InProcTransport::attach(&router, endpoint));
    assert_track(&runtime);
    assert_metered(&runtime);
}

#[test]
fn threads_and_tcp_sockets_build_a_track() {
    let directory = TcpDirectory::new();
    let runtime = run_corridor(|endpoint| {
        TcpTransport::bind(endpoint, "127.0.0.1:0", &directory).expect("bind loopback")
    });
    assert_eq!(directory.len(), N as usize + 1, "one listener per party");
    assert_track(&runtime);
    assert_metered(&runtime);
}

/// The server stamps each heartbeat with the shared sim clock: every
/// camera's last heartbeat lies within one interval of the final clock.
#[test]
fn server_stamps_heartbeats_on_the_shared_clock() {
    let router = InProcRouter::new();
    let runtime = run_corridor(|endpoint| InProcTransport::attach(&router, endpoint));
    let end = runtime.now().as_millis();
    let interval = runtime.config().heartbeat_interval.as_millis();
    for node in runtime.nodes() {
        let cam = node.id();
        let last = runtime
            .server()
            .last_heartbeat_ms(cam)
            .expect("camera joined");
        assert!(
            end - interval < last && last <= end,
            "{cam}: last heartbeat at {last} ms, clock ended at {end} ms"
        );
    }
}

/// A TCP deployment exports its socket-health counters with every other
/// series, so `/metrics` carries them; the in-process router keeps none,
/// so its registry gains no series.
#[test]
fn tcp_socket_counters_reach_metrics() {
    let directory = TcpDirectory::new();
    let tcp = run_corridor(|endpoint| {
        TcpTransport::bind(endpoint, "127.0.0.1:0", &directory).expect("bind loopback")
    });
    let metrics = tcp.obs().registry().render_prometheus();
    for series in ["tcp_send_errors_total", "tcp_reconnects_total"] {
        for endpoint in ["cloud", "cam0", "cam2"] {
            let line = format!("{series}{{endpoint=\"{endpoint}\"}}");
            assert!(metrics.contains(&line), "{line} missing from /metrics");
        }
    }
    let router = InProcRouter::new();
    let inproc = run_corridor(|endpoint| InProcTransport::attach(&router, endpoint));
    let metrics = inproc.obs().registry().render_prometheus();
    assert!(
        !metrics.contains("tcp_"),
        "in-process run exported tcp series"
    );
}
