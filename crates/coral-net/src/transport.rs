//! Message transports.
//!
//! The prototype in the paper uses non-blocking ZeroMQ sockets between the
//! RPis and long-lived sockets between cameras (§4.1.2–4.1.3). This module
//! defines the [`Transport`] seam shared by every deployment mode and two
//! of its three implementations:
//!
//! - [`SimTransport`] — a per-endpoint handle onto a [`SimNet`], the
//!   simulated switch used by the discrete-event experiments. Latency is
//!   charged by a caller-provided hook (typically sampling a
//!   `coral_sim::LatencyModel`), and due envelopes are released through
//!   [`Transport::poll`] as the simulation clock reaches them.
//! - [`InProcTransport`] — a per-endpoint handle onto an [`InProcRouter`]
//!   of unbounded channels, used by the multi-threaded deployments.
//! - [`crate::TcpTransport`] (in [`crate::tcp`]) — real sockets with
//!   length-prefixed JSON frames.

use crate::message::Message;
use coral_sim::{SimDuration, SimTime};
use coral_topology::CameraId;
use crossbeam::channel::{unbounded, Receiver, Sender};
use parking_lot::{Mutex, RwLock};
use serde::{Deserialize, Serialize};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};
use std::sync::Arc;

/// An addressable party in the deployment.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum Endpoint {
    /// A camera's compute unit.
    Camera(CameraId),
    /// The cloud topology server.
    TopologyServer,
    /// An edge storage node.
    EdgeStore(u32),
    /// A federated region's topology server (region `0` keeps the
    /// original [`Endpoint::TopologyServer`] address so single-region
    /// deployments stay byte-identical).
    RegionServer(u16),
}

impl std::fmt::Display for Endpoint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Endpoint::Camera(c) => write!(f, "{c}"),
            Endpoint::TopologyServer => write!(f, "cloud"),
            Endpoint::EdgeStore(i) => write!(f, "edge{i}"),
            Endpoint::RegionServer(r) => write!(f, "region{r}"),
        }
    }
}

/// A routed message.
#[derive(Debug, Clone, PartialEq)]
pub struct Envelope {
    /// Sender.
    pub from: Endpoint,
    /// Recipient.
    pub to: Endpoint,
    /// Payload.
    pub message: Message,
}

impl Envelope {
    /// Whether this envelope crosses the camera-cloud boundary (either
    /// direction). Transports and latency hooks use this to pick the WAN
    /// rather than the LAN link class.
    pub fn is_cloud_bound(&self) -> bool {
        matches!(
            self.from,
            Endpoint::TopologyServer | Endpoint::RegionServer(_)
        ) || matches!(
            self.to,
            Endpoint::TopologyServer | Endpoint::RegionServer(_)
        )
    }
}

/// Error returned when sending to an unregistered or disconnected endpoint,
/// or when the underlying transport fails mid-send.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SendError {
    /// The unreachable endpoint.
    pub to: Endpoint,
    /// Transport-specific failure detail (e.g. the I/O error of a TCP
    /// send), when the endpoint was known but the send still failed.
    pub detail: Option<String>,
}

impl SendError {
    /// The endpoint is not registered with the transport.
    pub fn unreachable(to: Endpoint) -> Self {
        Self { to, detail: None }
    }

    /// The endpoint is known but the send failed.
    pub fn failed(to: Endpoint, detail: impl Into<String>) -> Self {
        Self {
            to,
            detail: Some(detail.into()),
        }
    }
}

impl std::fmt::Display for SendError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.detail {
            Some(d) => write!(f, "endpoint {} is not reachable: {d}", self.to),
            None => write!(f, "endpoint {} is not reachable", self.to),
        }
    }
}

impl std::error::Error for SendError {}

/// The message-passing seam shared by the DES, threaded, and TCP
/// deployments.
///
/// A `Transport` value is one endpoint's handle onto the network: `send`
/// submits an envelope for delivery to its recipient, `poll` yields the
/// next envelope addressed to this endpoint that is deliverable at `now`.
/// Simulated transports charge latency at send time and sit on the
/// envelope until the clock reaches its due time; real-time transports
/// ignore `now` entirely.
pub trait Transport {
    /// Submits `envelope` for delivery. `now` is the sender's current
    /// clock; real-time transports ignore it.
    ///
    /// # Errors
    ///
    /// Returns [`SendError`] when the recipient is unknown or the
    /// underlying channel/socket fails.
    fn send(&mut self, now: SimTime, envelope: Envelope) -> Result<(), SendError>;

    /// The next envelope addressed to this endpoint that is deliverable at
    /// `now`, if any.
    fn poll(&mut self, now: SimTime) -> Option<Envelope>;

    /// Advances transport-internal timers: retransmissions, reconnect
    /// backoff, held-envelope release. Decorators with time-driven state
    /// ([`crate::ReliableTransport`], [`crate::FaultyTransport`],
    /// [`crate::TcpTransport`]) act on it; plain transports need not —
    /// the default is a no-op. Periodic drivers should call this at least
    /// once per scheduling quantum.
    fn tick(&mut self, now: SimTime) {
        let _ = now;
    }

    /// Whether [`Transport::tick`] would do nothing right now: no
    /// retransmission timer armed and no envelope held back. A periodic
    /// driver may skip the tick of a quiet transport. The default answers
    /// `false` (assume work), which is always safe.
    fn is_quiet(&self) -> bool {
        false
    }

    /// The earliest pending due time for this endpoint. Real-time
    /// transports (where "due" has no meaning) return `None`.
    fn next_due(&self) -> Option<SimTime> {
        None
    }

    /// Number of envelopes waiting to be polled by this endpoint
    /// (including, for simulated transports, ones not yet due).
    /// Transports without visibility into their backlog return 0.
    fn queue_depth(&self) -> usize {
        0
    }

    /// Starts publishing this transport's own counters into `registry`.
    /// Only transports with state worth exporting
    /// ([`crate::TcpTransport`]'s socket health) publish anything; the
    /// default publishes nothing, so simulated and in-process registries
    /// gain no series.
    fn instrument(&mut self, registry: &coral_obs::Registry) {
        let _ = registry;
    }
}

/// Latency hook of a [`SimNet`]: charges each envelope a delivery delay.
pub type LatencyHook = Box<dyn FnMut(&Envelope) -> SimDuration + Send>;

#[derive(Debug)]
struct Pending {
    due: SimTime,
    seq: u64,
    envelope: Envelope,
}

impl PartialEq for Pending {
    fn eq(&self, other: &Self) -> bool {
        self.due == other.due && self.seq == other.seq
    }
}
impl Eq for Pending {}
impl PartialOrd for Pending {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Pending {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.due, self.seq).cmp(&(other.due, other.seq))
    }
}

struct SimNetCore {
    latency: LatencyHook,
    mailboxes: HashMap<Endpoint, BinaryHeap<Reverse<Pending>>>,
    seq: u64,
    new_due: Vec<(Endpoint, SimTime)>,
}

impl SimNetCore {
    fn send(&mut self, now: SimTime, envelope: Envelope) {
        let due = now + (self.latency)(&envelope);
        let seq = self.seq;
        self.seq += 1;
        self.new_due.push((envelope.to, due));
        self.mailboxes
            .entry(envelope.to)
            .or_default()
            .push(Reverse(Pending { due, seq, envelope }));
    }

    fn poll(&mut self, endpoint: Endpoint, now: SimTime) -> Option<Envelope> {
        let mailbox = self.mailboxes.get_mut(&endpoint)?;
        if mailbox.peek().is_some_and(|Reverse(p)| p.due <= now) {
            mailbox.pop().map(|Reverse(p)| p.envelope)
        } else {
            None
        }
    }

    fn next_due(&self, endpoint: Option<Endpoint>) -> Option<SimTime> {
        match endpoint {
            Some(e) => self
                .mailboxes
                .get(&e)
                .and_then(|m| m.peek().map(|Reverse(p)| p.due)),
            None => self
                .mailboxes
                .values()
                .filter_map(|m| m.peek().map(|Reverse(p)| p.due))
                .min(),
        }
    }
}

/// The simulated network switch backing the DES deployments: a set of
/// per-endpoint mailboxes ordered by delivery due time, with a latency
/// hook charged at send time.
///
/// A `SimNet` is shared (cheaply cloneable); [`SimNet::handle`] produces
/// the per-endpoint [`SimTransport`] that camera drivers hold. The driving
/// runtime drains [`SimNet::take_new_due`] after each event handler to
/// schedule one engine delivery action per in-flight envelope, preserving
/// a global deterministic (time, sequence) delivery order.
#[derive(Clone)]
pub struct SimNet {
    core: Arc<Mutex<SimNetCore>>,
}

impl std::fmt::Debug for SimNet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let core = self.core.lock();
        f.debug_struct("SimNet")
            .field("seq", &core.seq)
            .field("mailboxes", &core.mailboxes.len())
            .finish()
    }
}

impl SimNet {
    /// Creates a switch whose per-envelope delay is drawn from `latency`.
    pub fn new(latency: impl FnMut(&Envelope) -> SimDuration + Send + 'static) -> Self {
        Self {
            core: Arc::new(Mutex::new(SimNetCore {
                latency: Box::new(latency),
                mailboxes: HashMap::new(),
                seq: 0,
                new_due: Vec::new(),
            })),
        }
    }

    /// A zero-latency switch (useful in tests).
    pub fn instant() -> Self {
        Self::new(|_| SimDuration::ZERO)
    }

    /// The per-endpoint transport handle for `endpoint`.
    pub fn handle(&self, endpoint: Endpoint) -> SimTransport {
        SimTransport {
            endpoint,
            core: self.core.clone(),
        }
    }

    /// Drains the `(recipient, due)` records of envelopes sent since the
    /// last call, in send order. The DES runtime schedules one delivery
    /// action per record.
    pub fn take_new_due(&self) -> Vec<(Endpoint, SimTime)> {
        std::mem::take(&mut self.core.lock().new_due)
    }

    /// Earliest due time across all mailboxes.
    pub fn next_due(&self) -> Option<SimTime> {
        self.core.lock().next_due(None)
    }

    /// Number of in-flight envelopes.
    pub fn in_flight(&self) -> usize {
        self.core.lock().mailboxes.values().map(|m| m.len()).sum()
    }
}

/// One endpoint's handle onto a [`SimNet`] — the DES implementation of
/// [`Transport`].
#[derive(Clone)]
pub struct SimTransport {
    endpoint: Endpoint,
    core: Arc<Mutex<SimNetCore>>,
}

impl std::fmt::Debug for SimTransport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SimTransport")
            .field("endpoint", &self.endpoint)
            .finish()
    }
}

impl SimTransport {
    /// The endpoint this handle receives for.
    pub fn endpoint(&self) -> Endpoint {
        self.endpoint
    }
}

impl Transport for SimTransport {
    fn send(&mut self, now: SimTime, envelope: Envelope) -> Result<(), SendError> {
        self.core.lock().send(now, envelope);
        Ok(())
    }

    fn poll(&mut self, now: SimTime) -> Option<Envelope> {
        self.core.lock().poll(self.endpoint, now)
    }

    /// The simulated network has no transport-side timers.
    fn is_quiet(&self) -> bool {
        true
    }

    fn next_due(&self) -> Option<SimTime> {
        self.core.lock().next_due(Some(self.endpoint))
    }

    fn queue_depth(&self) -> usize {
        self.core
            .lock()
            .mailboxes
            .get(&self.endpoint)
            .map_or(0, BinaryHeap::len)
    }
}

/// One endpoint's handle onto an [`InProcRouter`] — the threaded
/// implementation of [`Transport`]. Delivery is immediate (`now` is
/// ignored); `poll` never blocks.
#[derive(Debug, Clone)]
pub struct InProcTransport {
    endpoint: Endpoint,
    router: InProcRouter,
    rx: Receiver<Envelope>,
}

impl InProcTransport {
    /// Registers `endpoint` on `router` and returns its transport handle.
    pub fn attach(router: &InProcRouter, endpoint: Endpoint) -> Self {
        let rx = router.register(endpoint);
        Self {
            endpoint,
            router: router.clone(),
            rx,
        }
    }

    /// The endpoint this handle receives for.
    pub fn endpoint(&self) -> Endpoint {
        self.endpoint
    }
}

impl Transport for InProcTransport {
    fn send(&mut self, _now: SimTime, envelope: Envelope) -> Result<(), SendError> {
        self.router.send(envelope)
    }

    fn poll(&mut self, _now: SimTime) -> Option<Envelope> {
        self.rx.try_recv().ok()
    }

    fn queue_depth(&self) -> usize {
        self.rx.len()
    }
}

/// A thread-safe in-process message router.
///
/// Cloning the router is cheap (it shares the routing table), so one router
/// can be handed to every node thread.
///
/// # Examples
///
/// ```
/// use coral_net::{Endpoint, Envelope, InProcRouter, Message};
/// use coral_geo::GeoPoint;
/// use coral_topology::CameraId;
///
/// let router = InProcRouter::new();
/// let rx = router.register(Endpoint::TopologyServer);
/// router.send(Envelope {
///     from: Endpoint::Camera(CameraId(0)),
///     to: Endpoint::TopologyServer,
///     message: Message::Heartbeat {
///         camera: CameraId(0),
///         position: GeoPoint::new(33.77, -84.39),
///         videoing_angle_deg: 0.0,
///     },
/// })?;
/// assert_eq!(rx.len(), 1);
/// # Ok::<(), coral_net::SendError>(())
/// ```
#[derive(Debug, Clone, Default)]
pub struct InProcRouter {
    table: Arc<RwLock<HashMap<Endpoint, Sender<Envelope>>>>,
}

impl InProcRouter {
    /// Creates an empty router.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers `endpoint` and returns its receive side. Re-registering
    /// replaces the previous channel (a restarted node).
    pub fn register(&self, endpoint: Endpoint) -> Receiver<Envelope> {
        let (tx, rx) = unbounded();
        self.table.write().insert(endpoint, tx);
        rx
    }

    /// Removes an endpoint (a failed node): subsequent sends to it error.
    pub fn deregister(&self, endpoint: Endpoint) {
        self.table.write().remove(&endpoint);
    }

    /// Routes an envelope to its recipient.
    ///
    /// # Errors
    ///
    /// Returns [`SendError`] if the recipient is unknown or its receiver
    /// was dropped.
    pub fn send(&self, envelope: Envelope) -> Result<(), SendError> {
        let to = envelope.to;
        let sender = {
            let table = self.table.read();
            table.get(&to).cloned()
        };
        match sender {
            Some(tx) => tx.send(envelope).map_err(|_| SendError::unreachable(to)),
            None => Err(SendError::unreachable(to)),
        }
    }

    /// Number of registered endpoints.
    pub fn endpoint_count(&self) -> usize {
        self.table.read().len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use coral_geo::GeoPoint;

    fn heartbeat(cam: u32) -> Message {
        Message::Heartbeat {
            camera: CameraId(cam),
            position: GeoPoint::new(33.77, -84.39),
            videoing_angle_deg: 0.0,
        }
    }

    #[test]
    fn send_and_receive() {
        let router = InProcRouter::new();
        let rx = router.register(Endpoint::Camera(CameraId(1)));
        router
            .send(Envelope {
                from: Endpoint::Camera(CameraId(0)),
                to: Endpoint::Camera(CameraId(1)),
                message: heartbeat(0),
            })
            .unwrap();
        let env = rx.try_recv().unwrap();
        assert_eq!(env.from, Endpoint::Camera(CameraId(0)));
        assert_eq!(env.message, heartbeat(0));
    }

    #[test]
    fn unknown_endpoint_errors() {
        let router = InProcRouter::new();
        let err = router
            .send(Envelope {
                from: Endpoint::TopologyServer,
                to: Endpoint::Camera(CameraId(9)),
                message: heartbeat(9),
            })
            .unwrap_err();
        assert_eq!(err.to, Endpoint::Camera(CameraId(9)));
        assert!(err.to_string().contains("cam9"));
    }

    #[test]
    fn deregistered_endpoint_errors() {
        let router = InProcRouter::new();
        let _rx = router.register(Endpoint::EdgeStore(0));
        router.deregister(Endpoint::EdgeStore(0));
        assert!(router
            .send(Envelope {
                from: Endpoint::TopologyServer,
                to: Endpoint::EdgeStore(0),
                message: heartbeat(0),
            })
            .is_err());
        assert_eq!(router.endpoint_count(), 0);
    }

    #[test]
    fn dropped_receiver_errors() {
        let router = InProcRouter::new();
        let rx = router.register(Endpoint::TopologyServer);
        drop(rx);
        assert!(router
            .send(Envelope {
                from: Endpoint::Camera(CameraId(0)),
                to: Endpoint::TopologyServer,
                message: heartbeat(0),
            })
            .is_err());
    }

    #[test]
    fn router_is_shareable_across_threads() {
        let router = InProcRouter::new();
        let rx = router.register(Endpoint::TopologyServer);
        let mut handles = Vec::new();
        for i in 0..4u32 {
            let r = router.clone();
            handles.push(std::thread::spawn(move || {
                for _ in 0..25 {
                    r.send(Envelope {
                        from: Endpoint::Camera(CameraId(i)),
                        to: Endpoint::TopologyServer,
                        message: heartbeat(i),
                    })
                    .unwrap();
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(rx.len(), 100);
    }

    #[test]
    fn sim_transport_releases_envelopes_at_due_time() {
        let net = SimNet::new(|_| SimDuration::from_millis(10));
        let mut cam0 = net.handle(Endpoint::Camera(CameraId(0)));
        let mut cam1 = net.handle(Endpoint::Camera(CameraId(1)));
        cam0.send(
            SimTime::from_millis(5),
            Envelope {
                from: Endpoint::Camera(CameraId(0)),
                to: Endpoint::Camera(CameraId(1)),
                message: heartbeat(0),
            },
        )
        .unwrap();
        assert_eq!(net.in_flight(), 1);
        assert_eq!(cam1.next_due(), Some(SimTime::from_millis(15)));
        // Not yet due.
        assert!(cam1.poll(SimTime::from_millis(14)).is_none());
        let env = cam1.poll(SimTime::from_millis(15)).expect("due now");
        assert_eq!(env.message, heartbeat(0));
        assert_eq!(net.in_flight(), 0);
        // The due record was captured for the runtime to schedule.
        assert_eq!(
            net.take_new_due(),
            vec![(Endpoint::Camera(CameraId(1)), SimTime::from_millis(15))]
        );
        assert!(net.take_new_due().is_empty());
    }

    #[test]
    fn sim_transport_orders_same_due_by_send_order() {
        let net = SimNet::instant();
        let mut tx = net.handle(Endpoint::Camera(CameraId(0)));
        let mut rx = net.handle(Endpoint::Camera(CameraId(9)));
        for i in 0..5u32 {
            tx.send(
                SimTime::ZERO,
                Envelope {
                    from: Endpoint::Camera(CameraId(i)),
                    to: Endpoint::Camera(CameraId(9)),
                    message: heartbeat(i),
                },
            )
            .unwrap();
        }
        let order: Vec<Endpoint> = std::iter::from_fn(|| rx.poll(SimTime::ZERO))
            .map(|e| e.from)
            .collect();
        assert_eq!(
            order,
            (0..5u32)
                .map(|i| Endpoint::Camera(CameraId(i)))
                .collect::<Vec<_>>()
        );
    }

    #[test]
    fn sim_transport_mailboxes_are_per_endpoint() {
        let net = SimNet::instant();
        let mut tx = net.handle(Endpoint::TopologyServer);
        let mut a = net.handle(Endpoint::Camera(CameraId(0)));
        let mut b = net.handle(Endpoint::Camera(CameraId(1)));
        tx.send(
            SimTime::ZERO,
            Envelope {
                from: Endpoint::TopologyServer,
                to: Endpoint::Camera(CameraId(1)),
                message: heartbeat(1),
            },
        )
        .unwrap();
        assert!(a.poll(SimTime::from_secs(1)).is_none());
        assert!(b.poll(SimTime::from_secs(1)).is_some());
    }

    #[test]
    fn inproc_transport_roundtrip() {
        let router = InProcRouter::new();
        let mut server = InProcTransport::attach(&router, Endpoint::TopologyServer);
        let mut cam = InProcTransport::attach(&router, Endpoint::Camera(CameraId(0)));
        cam.send(
            SimTime::ZERO,
            Envelope {
                from: Endpoint::Camera(CameraId(0)),
                to: Endpoint::TopologyServer,
                message: heartbeat(0),
            },
        )
        .unwrap();
        let env = server.poll(SimTime::ZERO).expect("delivered");
        assert_eq!(env.from, Endpoint::Camera(CameraId(0)));
        assert!(server.poll(SimTime::ZERO).is_none());
        assert_eq!(server.next_due(), None);
        // Sending to an unattached endpoint errors.
        let err = cam
            .send(
                SimTime::ZERO,
                Envelope {
                    from: Endpoint::Camera(CameraId(0)),
                    to: Endpoint::Camera(CameraId(7)),
                    message: heartbeat(0),
                },
            )
            .unwrap_err();
        assert_eq!(err.to, Endpoint::Camera(CameraId(7)));
    }

    #[test]
    fn send_error_display_includes_detail() {
        let plain = SendError::unreachable(Endpoint::Camera(CameraId(3)));
        assert_eq!(plain.to_string(), "endpoint cam3 is not reachable");
        let detailed = SendError::failed(Endpoint::TopologyServer, "connection refused");
        assert_eq!(
            detailed.to_string(),
            "endpoint cloud is not reachable: connection refused"
        );
        // std::error::Error is implemented.
        let _: &dyn std::error::Error = &detailed;
    }

    #[test]
    fn reregistration_replaces_channel() {
        let router = InProcRouter::new();
        let rx1 = router.register(Endpoint::Camera(CameraId(0)));
        let rx2 = router.register(Endpoint::Camera(CameraId(0)));
        router
            .send(Envelope {
                from: Endpoint::TopologyServer,
                to: Endpoint::Camera(CameraId(0)),
                message: heartbeat(0),
            })
            .unwrap();
        assert_eq!(rx1.len(), 0);
        assert_eq!(rx2.len(), 1);
    }
}
