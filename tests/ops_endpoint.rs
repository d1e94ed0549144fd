//! The live ops endpoint over a real threaded deployment: camera nodes on
//! OS threads behind `Reliable<Faulty<InProc>>` links, the ops HTTP
//! server on an ephemeral port, and a plain `TcpStream` playing `curl`.
//!
//! Fault-free links keep `/healthz` at OK; a lossy network (35% drop)
//! must surface as a non-OK `retransmit-rate` finding while the run is
//! hot. This is the CI smoke for the ops plane (`ci.sh` runs it by name).

use coral_pie::core::obs::{
    default_health_rules, CoreObs, NodeObs, ServerObs, HANDOFF_DEADLINE_MS,
};
use coral_pie::core::{CameraSpec, Deployment, NodeConfig, NodeDriver, ServerDriver, SystemConfig};
use coral_pie::geo::{generators, route, IntersectionId};
use coral_pie::net::{
    Endpoint, FaultPlan, FaultPolicy, FaultyTransport, InProcRouter, InProcTransport,
    ReliableTransport, RetryPolicy, Transport,
};
use coral_pie::obs::{OpsServer, OpsState};
use coral_pie::sim::{SimDuration, SimTime, TrafficConfig, TrafficModel};
use coral_pie::storage::EdgeStorageNode;
use coral_pie::topology::CameraId;
use coral_pie::vision::{DetectorNoise, ObjectClass};
use parking_lot::Mutex;
use std::io::{Read as _, Write as _};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::Duration;

const N: u32 = 3;

/// One `curl`-shaped request; returns (status, body).
fn http_get(addr: SocketAddr, target: &str) -> (u16, String) {
    let mut stream = TcpStream::connect(addr).expect("ops endpoint reachable");
    write!(stream, "GET {target} HTTP/1.1\r\nHost: t\r\n\r\n").expect("request written");
    let mut raw = String::new();
    stream.read_to_string(&mut raw).expect("response read");
    let status = raw
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .expect("status line");
    let body = raw
        .split_once("\r\n\r\n")
        .map(|(_, b)| b.to_string())
        .unwrap_or_default();
    (status, body)
}

struct RunResult {
    /// `/healthz` bodies sampled while traffic was flowing.
    hot_healthz: Vec<String>,
    /// Final (status, body) of `/healthz` after the threads drained.
    final_healthz: (u16, String),
    final_metrics: String,
    final_journal: String,
}

/// Runs a 3-camera threaded deployment with every link wrapped in the
/// reliability stack over a seeded fault injector, the ops server
/// attached, and one vehicle driven down the corridor.
fn run_threaded(drop: f64) -> RunResult {
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
    let config = deployment.config().clone();
    let plan = FaultPlan::uniform(
        FaultPolicy {
            drop,
            ..FaultPolicy::default()
        },
        0x0b5,
    );
    let router = InProcRouter::new();
    let storage = EdgeStorageNode::default();
    let stop = Arc::new(AtomicBool::new(false));
    let clock_ms = Arc::new(AtomicU64::new(0));
    let obs = CoreObs::new();
    obs.install_health_rules(default_health_rules(
        config.heartbeat_interval.as_millis(),
        u64::from(config.miss_threshold),
        HANDOFF_DEADLINE_MS,
        false,
    ));
    storage.instrument(obs.registry());
    let traffic = Arc::new(Mutex::new(TrafficModel::new(
        net.clone(),
        TrafficConfig::default(),
        7,
    )));

    // Every endpoint gets the same stack the DES wires: retries with acks
    // over a seeded fault injector over the router.
    let link = |endpoint: Endpoint| {
        let mut reliable = ReliableTransport::new(
            FaultyTransport::new(
                InProcTransport::attach(&router, endpoint),
                endpoint,
                plan.clone(),
            ),
            endpoint,
            RetryPolicy::default(),
            0xacc5,
        );
        reliable.instrument(obs.registry());
        reliable.set_journal(obs.journal().clone());
        reliable
    };

    let ops = OpsServer::spawn("127.0.0.1:0", {
        let ops_clock = clock_ms.clone();
        OpsState {
            registry: obs.registry().clone(),
            journal: obs.journal().clone(),
            health: obs.health(),
            clock_ms: Arc::new(move || ops_clock.load(Ordering::Relaxed)),
        }
    })
    .expect("ephemeral port bound");
    let addr = ops.local_addr();

    // Topology server thread.
    let mut server_driver =
        ServerDriver::new(deployment.make_server(), link(Endpoint::TopologyServer));
    server_driver.set_obs(ServerObs::new(&obs));
    let server_stop = stop.clone();
    let server_clock = clock_ms.clone();
    let server = thread::spawn(move || {
        while !server_stop.load(Ordering::Relaxed) {
            let now = SimTime::from_millis(server_clock.load(Ordering::Relaxed));
            while let Some(env) = server_driver.transport_mut().poll(now) {
                server_driver
                    .on_envelope(env, now, |_| true)
                    .expect("cameras reachable");
            }
            server_driver.transport_mut().tick(now);
            thread::sleep(Duration::from_millis(2));
        }
    });

    // Camera node threads.
    let mut camera_threads = Vec::new();
    for i in 0..N {
        let cam = CameraId(i);
        let mut driver = NodeDriver::new(
            deployment.make_node(cam, storage.clone()).expect("placed"),
            link(Endpoint::Camera(cam)),
        );
        driver.set_obs(NodeObs::new(&obs, cam));
        let hb_interval_ms = config.heartbeat_interval.as_millis();
        let cam_stop = stop.clone();
        let cam_clock = clock_ms.clone();
        let cam_traffic = traffic.clone();
        camera_threads.push(thread::spawn(move || {
            driver
                .send_heartbeat(SimTime::ZERO)
                .expect("server reachable");
            let mut last_hb_ms = 0u64;
            while !cam_stop.load(Ordering::Relaxed) {
                let now = SimTime::from_millis(cam_clock.load(Ordering::Relaxed));
                if now.as_millis().saturating_sub(last_hb_ms) >= hb_interval_ms {
                    last_hb_ms = now.as_millis();
                    driver.send_heartbeat(now).expect("server reachable");
                }
                driver.pump(now, |_| {}).expect("peers reachable");
                let scene = { driver.node().view().scene(&cam_traffic.lock()) };
                driver.capture(&scene, now).expect("peers reachable");
                // Drive the retransmission timers (no-op on clean links).
                driver.transport_mut().tick(now);
                thread::sleep(Duration::from_millis(2));
            }
            let now = SimTime::from_millis(cam_clock.load(Ordering::Relaxed));
            driver.flush(now).expect("peers reachable");
        }));
    }

    // Drive traffic on the main thread, sampling /healthz while hot.
    let r = route::shortest_path(&net, IntersectionId(0), IntersectionId(N - 1))
        .expect("corridor is connected");
    traffic
        .lock()
        .spawn(SimTime::from_secs(1), r, Some(ObjectClass::Car));
    let mut hot_healthz = Vec::new();
    for i in 0..450 {
        {
            let mut t = traffic.lock();
            let now = SimTime::from_millis(clock_ms.load(Ordering::Relaxed));
            t.step(now, SimDuration::from_millis(96));
        }
        clock_ms.fetch_add(96, Ordering::Relaxed);
        if i % 30 == 29 {
            hot_healthz.push(http_get(addr, "/healthz").1);
        }
        thread::sleep(Duration::from_millis(2));
    }
    // Freeze the clock but keep the threads beating briefly, so every
    // camera's last heartbeat is fresh relative to the final clock even
    // if a thread lagged the 48x-speed run.
    thread::sleep(Duration::from_millis(100));
    stop.store(true, Ordering::Relaxed);
    for h in camera_threads {
        h.join().expect("camera thread ok");
    }
    server.join().expect("server thread ok");

    let final_healthz = http_get(addr, "/healthz");
    let final_metrics = http_get(addr, "/metrics").1;
    let final_journal = http_get(addr, "/journal?last=500").1;
    ops.shutdown();
    RunResult {
        hot_healthz,
        final_healthz,
        final_metrics,
        final_journal,
    }
}

#[test]
fn fault_free_deployment_reports_ok() {
    let run = run_threaded(0.0);
    let (status, body) = &run.final_healthz;
    assert_eq!(*status, 200, "healthz: {body}");
    assert!(
        body.contains("\"overall\": \"ok\""),
        "fault-free run not OK: {body}"
    );
    // The scrape surface is live: heartbeat gauges with HELP/TYPE, and
    // the reliability stack's counters from the instrumented links.
    assert!(
        run.final_metrics.contains("# TYPE"),
        "{}",
        run.final_metrics
    );
    assert!(
        run.final_metrics.contains("node_last_heartbeat_ms"),
        "no heartbeat gauge in /metrics"
    );
    assert!(
        run.final_metrics.contains("reliable_retries_total"),
        "no reliability counters in /metrics"
    );
}

/// Whether a `/healthz` body carries a `retransmit-rate` finding whose
/// own verdict is degraded or critical (OK findings are listed too, so a
/// bare substring match would be vacuous).
fn retransmit_rate_fired(body: &str) -> bool {
    body.match_indices("\"rule\": \"retransmit-rate\"")
        .any(|(i, _)| {
            let finding = &body[i..body[i..].find('}').map_or(body.len(), |e| i + e)];
            finding.contains("\"verdict\": \"degraded\"")
                || finding.contains("\"verdict\": \"critical\"")
        })
}

#[test]
fn lossy_network_degrades_health_while_hot() {
    let run = run_threaded(0.35);
    // At 35% per-envelope drop the retry layer retransmits constantly;
    // some hot sample must carry a retransmit-rate finding past its
    // degraded threshold.
    assert!(
        run.hot_healthz.iter().any(|b| retransmit_rate_fired(b)),
        "no non-OK retransmit-rate finding in any hot sample: {:?}",
        run.hot_healthz
    );
    assert!(
        run.hot_healthz
            .iter()
            .any(|b| b.contains("\"overall\": \"degraded\"")
                || b.contains("\"overall\": \"critical\"")),
        "health never left OK under 35% drop: {:?}",
        run.hot_healthz
    );
    // The flight recorder saw the retransmissions too.
    assert!(
        run.final_journal.contains("retransmit"),
        "journal has no retransmit events: {}",
        run.final_journal
    );
}
