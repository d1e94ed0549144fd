//! The live ops endpoint over a real threaded deployment: camera nodes on
//! OS threads behind `Reliable<Faulty<InProc>>` links, the ops HTTP
//! server on an ephemeral port, and a plain `TcpStream` playing `curl`.
//!
//! Fault-free links keep `/healthz` at OK; a lossy network (35% drop)
//! must surface as a non-OK `retransmit-rate` finding while the run is
//! hot. This is the CI smoke for the ops plane (`ci.sh` runs it by name).
//! A property test sends hostile request heads to a live endpoint: each
//! gets a well-formed status line or a clean close, and `/metrics` still
//! answers afterwards.

use coral_pie::core::{CameraSpec, Deployment, NodeConfig, SystemConfig};
use coral_pie::geo::{generators, route, IntersectionId};
use coral_pie::net::{FaultPlan, FaultPolicy, InProcRouter, InProcTransport, RetryPolicy};
use coral_pie::obs::{HealthEngine, Journal, JournalKind, OpsServer, OpsState, Registry, Severity};
use coral_pie::sim::SimTime;
use coral_pie::topology::CameraId;
use coral_pie::vision::{DetectorNoise, ObjectClass};
use proptest::prelude::*;
use std::io::{Read as _, Write as _};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
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
    let r = route::shortest_path(&net, IntersectionId(0), IntersectionId(N - 1))
        .expect("corridor is connected");
    // Every endpoint gets the stack the DES wires from these settings:
    // retries with acks over a seeded fault injector over the router.
    let deployment = Deployment::from_specs(
        net,
        &specs,
        SystemConfig {
            node: NodeConfig {
                detector_noise: DetectorNoise::perfect(),
                ..NodeConfig::default()
            },
            faults: Some(FaultPlan::uniform(
                FaultPolicy {
                    drop,
                    ..FaultPolicy::default()
                },
                0x0b5,
            )),
            reliability: Some(RetryPolicy::default()),
            ..SystemConfig::default()
        },
    );
    let router = InProcRouter::new();
    let mut runtime =
        deployment.build_threaded(|endpoint| InProcTransport::attach(&router, endpoint));
    let ops = OpsServer::spawn("127.0.0.1:0", runtime.ops_state()).expect("ephemeral port bound");
    let addr = ops.local_addr();
    runtime
        .traffic_mut()
        .spawn(SimTime::from_secs(1), r, Some(ObjectClass::Car));

    // Sample /healthz from a thread of its own while the run is hot.
    let done = AtomicBool::new(false);
    let hot_healthz = thread::scope(|s| {
        let sampler = s.spawn(|| {
            let mut bodies = Vec::new();
            while !done.load(Ordering::Relaxed) {
                thread::sleep(Duration::from_millis(60));
                bodies.push(http_get(addr, "/healthz").1);
            }
            bodies
        });
        runtime.run();
        done.store(true, Ordering::Relaxed);
        sampler.join().expect("sampler thread ok")
    });

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

/// Sends `head` as a whole request (then closes the write side) and
/// returns every byte the endpoint answered.
fn exchange(addr: SocketAddr, head: &[u8]) -> std::io::Result<Vec<u8>> {
    let mut stream = TcpStream::connect(addr)?;
    stream.write_all(head)?;
    stream.shutdown(Shutdown::Write)?;
    let mut response = Vec::new();
    stream.read_to_end(&mut response)?;
    Ok(response)
}

/// A clean close (no bytes) or a response opening with a status line
/// `HTTP/1.1 <3 digits> <reason>\r\n`.
fn well_formed(response: &[u8]) -> bool {
    if response.is_empty() {
        return true;
    }
    let Some(end) = response.windows(2).position(|w| w == b"\r\n") else {
        return false;
    };
    let Ok(line) = std::str::from_utf8(&response[..end]) else {
        return false;
    };
    let mut parts = line.splitn(3, ' ');
    parts.next() == Some("HTTP/1.1")
        && parts
            .next()
            .is_some_and(|code| code.len() == 3 && code.bytes().all(|b| b.is_ascii_digit()))
        && parts.next().is_some_and(|reason| !reason.is_empty())
}

/// An ops endpoint on an ephemeral loopback port over a registry and a
/// journal with something in them.
fn spawn_ops() -> OpsServer {
    let registry = Registry::new();
    registry.counter("probe_total", &[]).inc();
    let journal = Journal::new();
    for i in 0..3 {
        journal.record(JournalKind::NodeKill, Severity::Error, i, "cam0", "probe");
    }
    let state = OpsState {
        registry,
        journal,
        health: Arc::new(Mutex::new(HealthEngine::new(Vec::new()))),
        clock_ms: Arc::new(|| 0),
    };
    OpsServer::spawn("127.0.0.1:0", state).expect("ephemeral port bound")
}

/// One hostile request head: arbitrary bytes, a `GET` of arbitrary bytes,
/// or a `/journal` request whose `last=` is empty, negative, huge,
/// non-numeric, non-ASCII or arbitrary bytes.
fn hostile_head() -> impl Strategy<Value = Vec<u8>> {
    let bytes = |max| proptest::collection::vec(0u8..=255, 0..max);
    let last = prop_oneof![
        Just(Vec::new()),
        Just(b"-1".to_vec()),
        Just(b"-18446744073709551616".to_vec()),
        Just(b"18446744073709551615".to_vec()),
        Just(b"99999999999999999999999999".to_vec()),
        Just(b"ten".to_vec()),
        Just(b"1e3".to_vec()),
        Just("\u{ff15}\u{ff10}".as_bytes().to_vec()),
        Just(b"%FF%FE".to_vec()),
        bytes(16),
    ];
    prop_oneof![
        bytes(256),
        bytes(128).prop_map(|target| [b"GET ".as_slice(), &target, b"\r\n\r\n"].concat()),
        last.prop_map(|value| {
            [
                b"GET /journal?last=".as_slice(),
                &value,
                b" HTTP/1.1\r\n\r\n",
            ]
            .concat()
        }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn hostile_request_lines_never_break_the_endpoint(
        heads in proptest::collection::vec(hostile_head(), 1..4),
    ) {
        let ops = spawn_ops();
        let addr = ops.local_addr();
        for head in &heads {
            let response = exchange(addr, head);
            prop_assert!(
                response.as_deref().is_ok_and(well_formed),
                "request {:?} got {:?}",
                String::from_utf8_lossy(head),
                response.map(|r| String::from_utf8_lossy(&r).into_owned())
            );
        }
        let (status, body) = http_get(addr, "/metrics");
        prop_assert_eq!(status, 200);
        prop_assert!(body.contains("probe_total 1"), "{}", body);
        ops.shutdown();
    }
}
