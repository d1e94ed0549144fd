//! Regression test for §2's WAN reordering hazard: `TopologyUpdate`
//! messages can arrive out of order, and a camera must never let a stale
//! MDCS table overwrite a fresher one.
//!
//! The test exercises the full delivery path — server heartbeat handling,
//! a transport, `NodeDriver::pump`, `CameraNode::on_message`,
//! `ConnectionManager::on_topology_update` — through a purpose-built
//! `ReorderingTransport`: a third-party [`Transport`] impl (the trait is
//! open for exactly this kind of test double) that delivers its inbox in
//! LIFO order, so the newest update arrives first and every earlier one
//! arrives stale.

use coral_pie::core::{CameraSpec, CoreObs, Deployment, NodeDriver, ServerDriver, SystemConfig};
use coral_pie::geo::{generators, IntersectionId};
use coral_pie::net::{Endpoint, Envelope, Message, SendError, Transport};
use coral_pie::sim::SimTime;
use coral_pie::storage::EdgeStorageNode;
use coral_pie::topology::{CameraId, MdcsUpdate};

/// Delivers queued envelopes newest-first and records everything sent.
#[derive(Debug, Default)]
struct ReorderingTransport {
    inbox: Vec<Envelope>,
    outbox: Vec<Envelope>,
}

impl Transport for ReorderingTransport {
    fn send(&mut self, _now: SimTime, envelope: Envelope) -> Result<(), SendError> {
        self.outbox.push(envelope);
        Ok(())
    }

    fn poll(&mut self, _now: SimTime) -> Option<Envelope> {
        self.inbox.pop() // LIFO: the last update queued arrives first
    }
}

#[test]
fn stale_topology_updates_do_not_overwrite_newer_tables() {
    // A corridor where each join changes camera 0's downstream sets.
    let net = generators::corridor(4, 120.0, 12.0);
    let specs: Vec<CameraSpec> = (0..4)
        .map(|i| CameraSpec {
            id: CameraId(i),
            site: IntersectionId(i),
            videoing_angle_deg: 0.0,
        })
        .collect();
    let deployment = Deployment::from_specs(net, &specs, SystemConfig::default());

    // Joins processed one at a time: each recomputation that touches
    // camera 0 emits a TopologyUpdate for it with a higher version.
    let obs = CoreObs::new();
    let mut server = ServerDriver::new(
        deployment.make_server(),
        ReorderingTransport::default(),
        &obs,
    );
    for (i, t) in [(0u32, 10u64), (1, 20), (2, 30), (3, 40)] {
        let cam = CameraId(i);
        server
            .on_envelope(
                Envelope {
                    from: Endpoint::Camera(cam),
                    to: Endpoint::TopologyServer,
                    message: deployment
                        .make_node(cam, EdgeStorageNode::default())
                        .expect("placed")
                        .heartbeat(),
                },
                SimTime::from_millis(t),
                |_| true,
            )
            .expect("collector send");
    }
    let updates: Vec<MdcsUpdate> = server
        .transport_mut()
        .outbox
        .iter()
        .filter(|e| e.to == Endpoint::Camera(CameraId(0)))
        .map(|e| match &e.message {
            Message::TopologyUpdate(u) => u.clone(),
            other => panic!("unexpected server message {other:?}"),
        })
        .collect();
    assert!(
        updates.len() >= 2,
        "need multiple versions to reorder, got {}",
        updates.len()
    );
    assert!(
        updates.windows(2).all(|w| w[0].version < w[1].version),
        "server versions must be monotonic"
    );
    let newest = updates.last().expect("nonempty").clone();

    // Camera 0 receives them through the reordering transport: the newest
    // version first, then every stale predecessor.
    let mut driver = NodeDriver::new(
        deployment
            .make_node(CameraId(0), EdgeStorageNode::default())
            .expect("placed"),
        ReorderingTransport {
            inbox: updates
                .iter()
                .map(|u| Envelope {
                    from: Endpoint::TopologyServer,
                    to: Endpoint::Camera(CameraId(0)),
                    message: Message::TopologyUpdate(u.clone()),
                })
                .collect(),
            outbox: Vec::new(),
        },
        &obs,
    );
    let delivered = driver
        .pump(SimTime::from_millis(100))
        .expect("collector send");
    assert_eq!(delivered, updates.len(), "all updates were delivered");
    assert_eq!(
        obs.delivered("topology_update"),
        updates.len() as u64,
        "the driver meters every delivery, stale ones included"
    );

    // Only the newest survived: the stale ones were rejected, and the
    // installed table is the newest version's, not the last-delivered's.
    let connection = driver.node().connection();
    assert_eq!(connection.stats().updates_applied, 1);
    assert_eq!(connection.socket_group().table(), &newest.table);
    assert_ne!(
        &newest.table, &updates[0].table,
        "test must reorder materially different tables"
    );
}
