//! Cross-mode determinism: the same deployment and workload, run once
//! under the discrete-event runtime (`SimTransport`) and once as a
//! hand-driven in-process deployment (`InProcTransport`), must build the
//! same trajectory graph modulo timing-only fields.
//!
//! This is the payoff of the layered runtime: `NodeDriver` / `ServerDriver`
//! contain all protocol behaviour, and the transport underneath them only
//! changes *when* messages move, not *what* the system concludes. Vertices
//! are compared as (camera, ground-truth) pairs and edges as the pairs
//! they connect; timestamps and latencies are deliberately excluded.
//! The §5.3 broadcast baseline is decided when `Deployment::make_node`
//! builds each node, so both modes flood alike. The drivers meter their
//! own work, so both modes also export the same protocol counters.

use coral_pie::core::{
    CameraNode, CameraSpec, CoreObs, Deployment, NodeConfig, NodeDriver, ServerDriver, SystemConfig,
};
use coral_pie::geo::{generators, route, IntersectionId, RoadNetwork};
use coral_pie::net::{Endpoint, InProcRouter, InProcTransport, Transport};
use coral_pie::sim::{SimTime, TrafficModel};
use coral_pie::storage::EdgeStorageNode;
use coral_pie::topology::CameraId;
use coral_pie::vision::{DetectorNoise, ObjectClass};

const N: u32 = 5;
const RUN_SECS: u64 = 90;

fn corridor_deployment(broadcast: bool) -> Deployment {
    let net = generators::corridor(N as usize, 120.0, 12.0);
    let specs: Vec<CameraSpec> = (0..N)
        .map(|i| CameraSpec {
            id: CameraId(i),
            site: IntersectionId(i),
            videoing_angle_deg: 0.0,
        })
        .collect();
    Deployment::from_specs(
        net,
        &specs,
        SystemConfig {
            node: NodeConfig {
                detector_noise: DetectorNoise::perfect(),
                ..NodeConfig::default()
            },
            broadcast,
            seed: 11,
            ..SystemConfig::default()
        },
    )
}

/// Spawns an identical workload into either mode's traffic model: three
/// vehicles traversing the corridor, two eastbound and one westbound.
fn spawn_workload(traffic: &mut TrafficModel, net: &RoadNetwork) {
    let east = route::shortest_path(net, IntersectionId(0), IntersectionId(N - 1)).unwrap();
    let west = route::shortest_path(net, IntersectionId(N - 1), IntersectionId(0)).unwrap();
    traffic.spawn(SimTime::from_secs(1), east.clone(), Some(ObjectClass::Car));
    traffic.spawn(SimTime::from_secs(5), west, Some(ObjectClass::Car));
    traffic.spawn(SimTime::from_secs(9), east, Some(ObjectClass::Car));
}

/// The registry series both modes must agree on: the counters of work
/// every driver meters itself. Left out, because the modes legitimately
/// differ there:
/// - heartbeats and cloud bytes: the lock-step loop sends only the join
///   heartbeats, the DES one per interval;
/// - delivered topology updates: the DES's jittered WAN latency lets the
///   server take the joins out of send order, and the MDCS fan-out
///   depends on join order (10 updates against 9 here);
/// - sent messages: the DES hands its end-of-run flush straight to the
///   recipients, with no send;
/// - passages: ground truth, which only the DES records.
const SHARED_SERIES: [(&str, &[(&str, &str)]); 4] = [
    ("runtime_events_total", &[]),
    ("runtime_reids_total", &[]),
    ("runtime_messages_delivered_total", &[("kind", "inform")]),
    ("runtime_messages_delivered_total", &[("kind", "confirm")]),
];

/// What a run concluded: the sorted vertex labels (camera + ground truth),
/// the sorted edge labels (the endpoints' labels), the totals of
/// detection events generated and informs sent over all cameras, and the
/// [`SHARED_SERIES`] values.
struct RunSummary {
    vertices: Vec<String>,
    edges: Vec<String>,
    events: u64,
    informs: u64,
    counters: Vec<u64>,
}

fn summarize<'a>(
    storage: &EdgeStorageNode,
    nodes: impl Iterator<Item = &'a CameraNode>,
    obs: &CoreObs,
) -> RunSummary {
    let (vertices, edges) = graph_signature(storage);
    let (mut events, mut informs) = (0, 0);
    for node in nodes {
        events += node.events_generated();
        informs += node.connection().stats().informs_sent;
    }
    let counters = SHARED_SERIES
        .iter()
        .map(|(name, labels)| obs.registry().counter_value(name, labels).unwrap_or(0))
        .collect();
    RunSummary {
        vertices,
        edges,
        events,
        informs,
        counters,
    }
}

/// The timing-free summary of a trajectory graph: sorted vertex labels
/// and sorted edge labels.
fn graph_signature(storage: &EdgeStorageNode) -> (Vec<String>, Vec<String>) {
    storage.with_graph(|g| {
        let label = |id| {
            let v = g.vertex(id).expect("edge endpoint exists");
            format!("{:?}:{:?}", v.camera, v.ground_truth)
        };
        let mut vertices: Vec<String> = g
            .vertices()
            .map(|v| format!("{:?}:{:?}", v.camera, v.ground_truth))
            .collect();
        vertices.sort();
        let mut edges: Vec<String> = g
            .edges()
            .map(|e| format!("{} -> {}", label(e.from), label(e.to)))
            .collect();
        edges.sort();
        (vertices, edges)
    })
}

/// Mode 1: the discrete-event runtime over `SimTransport`.
fn run_des(deployment: Deployment) -> RunSummary {
    let net = deployment.net().clone();
    let mut runtime = deployment.build();
    spawn_workload(runtime.world_mut().traffic_mut(), &net);
    runtime.run_until(SimTime::from_secs(RUN_SECS));
    runtime.finish();
    let world = runtime.world();
    summarize(
        world.storage(),
        world.nodes().map(|(_, node)| node),
        world.observability(),
    )
}

/// Mode 2: the same drivers hand-driven over the in-process router with a
/// virtual frame clock — single-threaded, so delivery order is fixed.
fn run_inproc(deployment: Deployment) -> RunSummary {
    let router = InProcRouter::new();
    let storage = EdgeStorageNode::default();
    let obs = CoreObs::new();
    let mut server = ServerDriver::new(
        deployment.make_server(),
        InProcTransport::attach(&router, Endpoint::TopologyServer),
        &obs,
    );
    let mut cams: Vec<NodeDriver<InProcTransport>> = (0..N)
        .map(|i| {
            let cam = CameraId(i);
            NodeDriver::new(
                deployment.make_node(cam, storage.clone()).expect("placed"),
                InProcTransport::attach(&router, Endpoint::Camera(cam)),
                &obs,
            )
        })
        .collect();
    let mut traffic = deployment.make_traffic();
    spawn_workload(&mut traffic, deployment.net());

    let pump_server = |server: &mut ServerDriver<InProcTransport>, now: SimTime| -> usize {
        let mut n = 0;
        while let Some(env) = server.transport_mut().poll(now) {
            server
                .on_envelope(env, now, |_| true)
                .expect("in-proc send");
            n += 1;
        }
        n
    };

    // Join: heartbeats in camera-id order (the DES staggers them the same
    // way), then deliver the resulting topology tables before frame 1.
    for d in cams.iter_mut() {
        d.send_heartbeat(SimTime::ZERO).expect("in-proc send");
    }
    pump_server(&mut server, SimTime::ZERO);
    for d in cams.iter_mut() {
        d.pump(SimTime::ZERO).expect("in-proc send");
    }

    // Frame loop. Deliveries from frame k land at the start of frame k+1 —
    // the in-flight window the DES models as link latency (< one frame).
    let frame_ms = deployment.config().frame_period.as_millis();
    let frames = RUN_SECS * 1000 / frame_ms;
    let mut last = SimTime::ZERO;
    for k in 1..=frames {
        let now = SimTime::from_millis(frame_ms * k);
        traffic.step(last, now.since(last));
        last = now;
        for d in cams.iter_mut() {
            d.pump(now).expect("in-proc send");
        }
        pump_server(&mut server, now);
        for d in cams.iter_mut() {
            d.pump(now).expect("in-proc send");
        }
        // All deliveries done: capture this frame in camera-id order,
        // exactly like the DES tick.
        for d in cams.iter_mut() {
            let scene = d.node().view().scene_at(&traffic, now.as_millis());
            d.capture(&scene, now).expect("in-proc send");
        }
    }

    // End of stream: flush in-flight tracks, then drain message cascades
    // (informs beget confirmations) until the network is quiet.
    for d in cams.iter_mut() {
        d.flush(last).expect("in-proc send");
    }
    loop {
        let mut moved = 0;
        for d in cams.iter_mut() {
            moved += d.pump(last).expect("in-proc send");
        }
        moved += pump_server(&mut server, last);
        if moved == 0 {
            break;
        }
    }
    summarize(&storage, cams.iter().map(NodeDriver::node), &obs)
}

/// Runs `deployment(broadcast)` in both modes, checks that they agree, and
/// returns the DES run.
fn assert_modes_agree(broadcast: bool) -> RunSummary {
    let des = run_des(corridor_deployment(broadcast));
    let ip = run_inproc(corridor_deployment(broadcast));

    // The workload is non-trivial in both modes: every vehicle is seen by
    // every camera, and re-identification links the passages.
    assert!(
        des.vertices.len() >= N as usize,
        "DES vertices: {:?}",
        des.vertices
    );
    assert!(!des.edges.is_empty(), "DES made no re-identifications");

    assert_eq!(
        des.vertices, ip.vertices,
        "vertex sets diverge between DES and in-process modes"
    );
    assert_eq!(
        des.edges, ip.edges,
        "edge sets diverge between DES and in-process modes"
    );
    assert_eq!(
        (des.events, des.informs),
        (ip.events, ip.informs),
        "event and inform totals diverge between DES and in-process modes"
    );
    assert_eq!(
        des.counters, ip.counters,
        "metered counters {SHARED_SERIES:?} diverge between DES and in-process modes"
    );
    assert_eq!(
        des.counters[0], des.events,
        "the registry counts every event generated"
    );
    des
}

#[test]
fn des_and_inproc_modes_build_the_same_graph() {
    let des = assert_modes_agree(false);
    assert!(
        des.informs < des.events * u64::from(N - 1),
        "MDCS routing informs fewer cameras than a flood"
    );
}

#[test]
fn des_and_inproc_modes_flood_alike_when_broadcasting() {
    let des = assert_modes_agree(true);
    assert_eq!(
        des.informs,
        des.events * u64::from(N - 1),
        "every event floods every other camera"
    );
}
