//! A real TCP transport for the wire format.
//!
//! The paper's prototype moves messages over non-blocking ZeroMQ sockets
//! (§4.1.2); this module is the plain-`std` equivalent used when camera
//! nodes run as separate OS processes: length-prefixed JSON frames over
//! TCP and an accept-loop listener that delivers envelopes into a channel.
//! [`TcpTransport`] keeps one persistent connection per peer, reconnecting
//! with exponential backoff when it breaks and holding undeliverable
//! envelopes in a bounded per-peer queue.

use crate::message::Message;
use crate::transport::{Endpoint, Envelope, SendError, Transport};
use coral_obs::{Counter, Registry};
use coral_sim::SimTime;
use crossbeam::channel::{unbounded, Receiver, Sender};
use parking_lot::RwLock;
use serde::{Deserialize, Serialize};
use std::collections::{HashMap, VecDeque};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Maximum accepted frame size (a detection event with a large histogram
/// is a few KiB; 4 MiB is generous headroom).
const MAX_FRAME_BYTES: u32 = 4 * 1024 * 1024;

/// Maximum envelopes held per peer while its connection is down; further
/// sends fail with [`SendError`] until the queue drains.
const MAX_QUEUED_PER_PEER: usize = 256;

/// First reconnect wait after a connection breaks; doubles per failure.
const RECONNECT_BASE: Duration = Duration::from_millis(50);

/// Reconnect-wait ceiling.
const RECONNECT_MAX: Duration = Duration::from_secs(2);

/// The JSON payload of one TCP frame.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct WireEnvelope {
    from: Endpoint,
    to: Endpoint,
    message: Message,
}

/// Errors from the TCP transport.
#[derive(Debug)]
pub enum TcpError {
    /// Socket-level failure.
    Io(std::io::Error),
    /// Malformed or oversized frame.
    Frame(String),
}

impl std::fmt::Display for TcpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TcpError::Io(e) => write!(f, "tcp transport io error: {e}"),
            TcpError::Frame(s) => write!(f, "tcp transport frame error: {s}"),
        }
    }
}

impl std::error::Error for TcpError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            TcpError::Io(e) => Some(e),
            TcpError::Frame(_) => None,
        }
    }
}

impl From<std::io::Error> for TcpError {
    fn from(e: std::io::Error) -> Self {
        TcpError::Io(e)
    }
}

/// A listening endpoint: accepts connections and delivers every received
/// envelope into a channel.
#[derive(Debug)]
pub(crate) struct TcpEndpoint {
    local_addr: SocketAddr,
    rx: Receiver<Envelope>,
    stop: Arc<AtomicBool>,
    accept_thread: Option<JoinHandle<()>>,
}

impl TcpEndpoint {
    /// Binds `addr` (use port 0 for an ephemeral port) and starts the
    /// accept loop on a background thread.
    ///
    /// # Errors
    ///
    /// Propagates the bind failure.
    pub(crate) fn bind(addr: &str) -> Result<Self, TcpError> {
        let listener = TcpListener::bind(addr)?;
        let local_addr = listener.local_addr()?;
        let (tx, rx) = unbounded();
        let stop = Arc::new(AtomicBool::new(false));
        let stop2 = stop.clone();
        // Nonblocking accept so the loop can observe the stop flag.
        listener.set_nonblocking(true)?;
        let accept_thread = std::thread::spawn(move || {
            accept_loop(listener, tx, stop2);
        });
        Ok(Self {
            local_addr,
            rx,
            stop,
            accept_thread: Some(accept_thread),
        })
    }

    /// The bound address (with the resolved port).
    pub(crate) fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// The receive side: every accepted envelope appears here.
    pub(crate) fn receiver(&self) -> &Receiver<Envelope> {
        &self.rx
    }

    /// Stops the accept loop and joins its thread.
    pub(crate) fn shutdown(mut self) {
        self.stop_internal();
    }

    fn stop_internal(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(h) = self.accept_thread.take() {
            let _ = h.join();
        }
    }
}

impl Drop for TcpEndpoint {
    fn drop(&mut self) {
        self.stop_internal();
    }
}

fn accept_loop(listener: TcpListener, tx: Sender<Envelope>, stop: Arc<AtomicBool>) {
    while !stop.load(Ordering::Relaxed) {
        match listener.accept() {
            Ok((stream, _)) => {
                // The listener polls without blocking; its readers block.
                if stream.set_nonblocking(false).is_err() {
                    continue;
                }
                let tx = tx.clone();
                // One short-lived connection per message batch.
                std::thread::spawn(move || {
                    let _ = read_frames(stream, &tx);
                });
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(std::time::Duration::from_millis(2));
            }
            Err(_) => break,
        }
    }
}

/// Reads length-prefixed frames from `stream` until it ends, handing each
/// decoded envelope to `tx` in arrival order. A clean end of stream (also
/// one inside a length prefix) is `Ok`; a bad length, an undecodable
/// payload or a payload cut short stops at that frame with a [`TcpError`],
/// after every frame before it was delivered.
fn read_frames(mut stream: impl Read, tx: &Sender<Envelope>) -> Result<(), TcpError> {
    loop {
        let mut len_buf = [0u8; 4];
        match stream.read_exact(&mut len_buf) {
            Ok(()) => {}
            Err(e) if e.kind() == std::io::ErrorKind::UnexpectedEof => return Ok(()),
            Err(e) => return Err(e.into()),
        }
        let len = u32::from_be_bytes(len_buf);
        if len == 0 || len > MAX_FRAME_BYTES {
            return Err(TcpError::Frame(format!("bad frame length {len}")));
        }
        let mut payload = vec![0u8; len as usize];
        stream.read_exact(&mut payload)?;
        let wire: WireEnvelope =
            serde_json::from_slice(&payload).map_err(|e| TcpError::Frame(e.to_string()))?;
        if tx
            .send(Envelope {
                from: wire.from,
                to: wire.to,
                message: wire.message,
            })
            .is_err()
        {
            return Ok(()); // receiver gone
        }
    }
}

/// Serialises `envelope` and writes it as one length-prefixed frame.
fn write_frame(stream: &mut impl Write, envelope: &Envelope) -> Result<(), TcpError> {
    let wire = WireEnvelope {
        from: envelope.from,
        to: envelope.to,
        message: envelope.message.clone(),
    };
    let payload = serde_json::to_vec(&wire).map_err(|e| TcpError::Frame(e.to_string()))?;
    if payload.len() as u64 > u64::from(MAX_FRAME_BYTES) {
        return Err(TcpError::Frame(format!(
            "frame too large: {} bytes",
            payload.len()
        )));
    }
    stream.write_all(&(payload.len() as u32).to_be_bytes())?;
    stream.write_all(&payload)?;
    stream.flush()?;
    Ok(())
}

/// Shared endpoint-to-address directory for a TCP deployment. In a real
/// deployment this comes from configuration or the topology server; the
/// examples publish each bound listener into it at startup.
#[derive(Debug, Clone, Default)]
pub struct TcpDirectory {
    table: Arc<RwLock<HashMap<Endpoint, SocketAddr>>>,
}

impl TcpDirectory {
    /// Creates an empty directory.
    pub fn new() -> Self {
        Self::default()
    }

    /// Publishes (or replaces) the address of `endpoint`.
    pub fn publish(&self, endpoint: Endpoint, addr: SocketAddr) {
        self.table.write().insert(endpoint, addr);
    }

    /// Looks up the address of `endpoint`.
    pub fn lookup(&self, endpoint: Endpoint) -> Option<SocketAddr> {
        self.table.read().get(&endpoint).copied()
    }

    /// Number of published endpoints.
    pub fn len(&self) -> usize {
        self.table.read().len()
    }

    /// Whether no endpoint is published.
    pub fn is_empty(&self) -> bool {
        self.table.read().is_empty()
    }

    /// Snapshot of all published `(endpoint, address)` pairs.
    pub fn entries(&self) -> Vec<(Endpoint, SocketAddr)> {
        self.table.read().iter().map(|(&e, &a)| (e, a)).collect()
    }
}

/// One peer's persistent connection state: the live stream (if any), the
/// bounded backlog of envelopes awaiting delivery, and the reconnect
/// backoff clock.
#[derive(Debug, Default)]
struct PeerLink {
    stream: Option<TcpStream>,
    queue: VecDeque<Envelope>,
    /// Wait before the next connect attempt; doubles per failure.
    backoff: Option<Duration>,
    /// Earliest instant the next connect attempt is allowed.
    retry_at: Option<Instant>,
    /// Whether this peer ever had a live connection (distinguishes a
    /// reconnect from the first connect).
    was_connected: bool,
}

impl PeerLink {
    /// Records a broken connection: drops the stream and arms the backoff.
    fn mark_down(&mut self) {
        self.stream = None;
        let backoff = self
            .backoff
            .map_or(RECONNECT_BASE, |b| (b * 2).min(RECONNECT_MAX));
        self.backoff = Some(backoff);
        self.retry_at = Some(Instant::now() + backoff);
    }

    /// Records a live connection: clears the backoff clock.
    fn mark_up(&mut self, stream: TcpStream) {
        self.stream = Some(stream);
        self.backoff = None;
        self.retry_at = None;
        self.was_connected = true;
    }

    /// Whether a connect attempt is currently allowed.
    fn may_connect(&self) -> bool {
        self.retry_at.is_none_or(|at| Instant::now() >= at)
    }
}

/// Counters published by [`TcpTransport::instrument`].
#[derive(Debug, Clone)]
struct TcpCounters {
    send_errors: Counter,
    reconnects: Counter,
}

/// One endpoint's TCP presence — a bound listener plus the shared address
/// directory — implementing [`Transport`] over real sockets.
///
/// `send` writes over a persistent per-peer connection, establishing (and
/// re-establishing, with exponential backoff) it as needed; envelopes that
/// cannot be delivered immediately wait in a bounded per-peer queue and
/// are flushed opportunistically on later sends, polls and ticks. A send
/// that could not be completed returns [`SendError`] — delivery is not
/// assured — while the envelope stays queued for a best-effort flush on
/// reconnect; layer [`crate::ReliableTransport`] on top for at-least-once
/// semantics. `poll` drains the accept loop's channel. The simulation
/// clock is ignored: latency is whatever the wire provides.
#[derive(Debug)]
pub struct TcpTransport {
    endpoint: Endpoint,
    listener: TcpEndpoint,
    directory: TcpDirectory,
    links: HashMap<Endpoint, PeerLink>,
    counters: Option<TcpCounters>,
}

impl TcpTransport {
    /// Binds `addr` for `endpoint`, publishes the bound address in
    /// `directory`, and returns the transport handle.
    ///
    /// # Errors
    ///
    /// Propagates the bind failure.
    pub fn bind(
        endpoint: Endpoint,
        addr: &str,
        directory: &TcpDirectory,
    ) -> Result<Self, TcpError> {
        let listener = TcpEndpoint::bind(addr)?;
        directory.publish(endpoint, listener.local_addr());
        Ok(Self {
            endpoint,
            listener,
            directory: directory.clone(),
            links: HashMap::new(),
            counters: None,
        })
    }

    /// The endpoint this transport receives for.
    pub fn endpoint(&self) -> Endpoint {
        self.endpoint
    }

    /// The bound listening address.
    pub fn local_addr(&self) -> SocketAddr {
        self.listener.local_addr()
    }

    /// Envelopes queued for `to` awaiting (re)delivery.
    pub fn queued_for(&self, to: Endpoint) -> usize {
        self.links.get(&to).map_or(0, |l| l.queue.len())
    }

    /// Stops the accept loop, joining its thread.
    pub fn shutdown(self) {
        self.listener.shutdown();
    }

    fn count_error(&self) {
        if let Some(c) = &self.counters {
            c.send_errors.inc();
        }
    }

    /// Writes as much of `to`'s backlog as the connection allows,
    /// (re)connecting first if needed and permitted by the backoff clock.
    ///
    /// Returns `Err` if the backlog could not be fully drained.
    fn try_flush(&mut self, to: Endpoint) -> Result<(), SendError> {
        let addr = self
            .directory
            .lookup(to)
            .ok_or(SendError::unreachable(to))?;
        let link = self.links.entry(to).or_default();
        if link.queue.is_empty() {
            return Ok(());
        }
        if link.stream.is_none() {
            if !link.may_connect() {
                return Err(SendError::failed(to, "reconnect backoff in progress"));
            }
            match TcpStream::connect(addr) {
                Ok(stream) => {
                    let reconnect = link.was_connected;
                    link.mark_up(stream);
                    if reconnect {
                        if let Some(c) = &self.counters {
                            c.reconnects.inc();
                        }
                    }
                }
                Err(e) => {
                    link.mark_down();
                    self.count_error();
                    return Err(SendError::failed(to, format!("connect: {e}")));
                }
            }
        }
        let link = self.links.get_mut(&to).expect("link just ensured");
        while let Some(envelope) = link.queue.front() {
            let stream = link.stream.as_mut().expect("stream just ensured");
            match write_frame(stream, envelope) {
                Ok(()) => {
                    link.queue.pop_front();
                }
                Err(e) => {
                    // Keep the frame at the head of the queue for the next
                    // attempt over a fresh connection.
                    link.mark_down();
                    self.count_error();
                    return Err(SendError::failed(to, e.to_string()));
                }
            }
        }
        Ok(())
    }

    /// Opportunistically flushes every backlog whose reconnect window has
    /// opened.
    fn flush_all_due(&mut self) {
        let due: Vec<Endpoint> = self
            .links
            .iter()
            .filter(|(_, l)| !l.queue.is_empty() && l.may_connect())
            .map(|(&to, _)| to)
            .collect();
        for to in due {
            let _ = self.try_flush(to);
        }
    }
}

impl Transport for TcpTransport {
    /// Queues `envelope` on its peer's persistent link and flushes the
    /// backlog.
    ///
    /// # Errors
    ///
    /// Fails when the peer is not in the directory, the per-peer queue is
    /// full (the envelope is dropped), or the backlog could not be drained
    /// (connection down — the envelope stays queued for the next attempt,
    /// but delivery is not assured).
    fn send(&mut self, _now: SimTime, envelope: Envelope) -> Result<(), SendError> {
        let to = envelope.to;
        if self.directory.lookup(to).is_none() {
            self.count_error();
            return Err(SendError::unreachable(to));
        }
        let link = self.links.entry(to).or_default();
        if link.queue.len() >= MAX_QUEUED_PER_PEER {
            self.count_error();
            return Err(SendError::failed(to, "tcp send queue full"));
        }
        link.queue.push_back(envelope);
        self.try_flush(to)
    }

    fn poll(&mut self, _now: SimTime) -> Option<Envelope> {
        self.flush_all_due();
        self.listener.receiver().try_recv().ok()
    }

    /// Retries queued envelopes whose reconnect backoff has elapsed.
    fn tick(&mut self, _now: SimTime) {
        self.flush_all_due();
    }

    fn queue_depth(&self) -> usize {
        self.listener.receiver().len() + self.links.values().map(|l| l.queue.len()).sum::<usize>()
    }

    /// Starts publishing socket-health counters into `registry`:
    /// `tcp_send_errors_total` and `tcp_reconnects_total`, labelled with
    /// this transport's endpoint.
    fn instrument(&mut self, registry: &Registry) {
        let label = self.endpoint.to_string();
        let labels = [("endpoint", label.as_str())];
        self.counters = Some(TcpCounters {
            send_errors: registry.counter("tcp_send_errors_total", &labels),
            reconnects: registry.counter("tcp_reconnects_total", &labels),
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use coral_geo::GeoPoint;
    use coral_topology::CameraId;
    use coral_vision::{ColorHistogram, TrackId};
    use proptest::prelude::*;
    use std::time::Duration;

    fn heartbeat(cam: u32) -> Message {
        Message::Heartbeat {
            camera: CameraId(cam),
            position: GeoPoint::new(33.77, -84.39),
            videoing_angle_deg: 0.0,
        }
    }

    fn inform(cam: u32) -> Message {
        Message::Inform(crate::message::DetectionEvent {
            camera: CameraId(cam),
            timestamp_ms: 42,
            heading: None,
            bearing_deg: None,
            signature: ColorHistogram::uniform(8),
            track: TrackId(3),
            vertex: None,
            ground_truth: None,
        })
    }

    /// Writes `envelope` as one frame over a fresh connection to `addr`.
    fn send_to(addr: SocketAddr, envelope: &Envelope) -> Result<(), TcpError> {
        write_frame(&mut TcpStream::connect(addr)?, envelope)
    }

    fn recv_one(ep: &TcpEndpoint) -> Envelope {
        ep.receiver()
            .recv_timeout(Duration::from_secs(5))
            .expect("message arrives")
    }

    #[test]
    fn roundtrip_over_loopback() {
        let ep = TcpEndpoint::bind("127.0.0.1:0").unwrap();
        let env = Envelope {
            from: Endpoint::Camera(CameraId(0)),
            to: Endpoint::Camera(CameraId(1)),
            message: inform(0),
        };
        send_to(ep.local_addr(), &env).unwrap();
        let got = recv_one(&ep);
        assert_eq!(got, env);
        ep.shutdown();
    }

    #[test]
    fn many_senders_all_delivered() {
        let ep = TcpEndpoint::bind("127.0.0.1:0").unwrap();
        let addr = ep.local_addr();
        let mut handles = Vec::new();
        for i in 0..4u32 {
            handles.push(std::thread::spawn(move || {
                for _ in 0..10 {
                    send_to(
                        addr,
                        &Envelope {
                            from: Endpoint::Camera(CameraId(i)),
                            to: Endpoint::TopologyServer,
                            message: heartbeat(i),
                        },
                    )
                    .unwrap();
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let mut got = 0;
        while ep.receiver().recv_timeout(Duration::from_secs(2)).is_ok() {
            got += 1;
            if got == 40 {
                break;
            }
        }
        assert_eq!(got, 40);
        ep.shutdown();
    }

    #[test]
    fn large_payload_roundtrips() {
        // An inform with an 8^3-bin histogram is the heavyweight message.
        let ep = TcpEndpoint::bind("127.0.0.1:0").unwrap();
        let env = Envelope {
            from: Endpoint::Camera(CameraId(7)),
            to: Endpoint::Camera(CameraId(8)),
            message: inform(7),
        };
        for _ in 0..5 {
            send_to(ep.local_addr(), &env).unwrap();
        }
        for _ in 0..5 {
            assert_eq!(recv_one(&ep).message, env.message);
        }
        ep.shutdown();
    }

    #[test]
    fn tcp_transport_roundtrip_via_directory() {
        let dir = TcpDirectory::new();
        let mut a = TcpTransport::bind(Endpoint::Camera(CameraId(0)), "127.0.0.1:0", &dir).unwrap();
        let mut b = TcpTransport::bind(Endpoint::Camera(CameraId(1)), "127.0.0.1:0", &dir).unwrap();
        assert_eq!(dir.len(), 2);
        a.send(
            SimTime::ZERO,
            Envelope {
                from: Endpoint::Camera(CameraId(0)),
                to: Endpoint::Camera(CameraId(1)),
                message: inform(0),
            },
        )
        .unwrap();
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        let env = loop {
            if let Some(env) = b.poll(SimTime::ZERO) {
                break env;
            }
            assert!(
                std::time::Instant::now() < deadline,
                "message never arrived"
            );
            std::thread::sleep(Duration::from_millis(2));
        };
        assert_eq!(env.message, inform(0));
        // Unknown endpoint: SendError with no detail.
        let err = a
            .send(
                SimTime::ZERO,
                Envelope {
                    from: Endpoint::Camera(CameraId(0)),
                    to: Endpoint::EdgeStore(3),
                    message: inform(0),
                },
            )
            .unwrap_err();
        assert_eq!(err.to, Endpoint::EdgeStore(3));
        assert!(err.detail.is_none());
        a.shutdown();
        b.shutdown();
    }

    #[test]
    fn send_to_unpublished_peer_is_unreachable_and_counted() {
        let registry = coral_obs::Registry::new();
        let dir = TcpDirectory::new();
        let mut a = TcpTransport::bind(Endpoint::Camera(CameraId(0)), "127.0.0.1:0", &dir).unwrap();
        a.instrument(&registry);
        let err = a
            .send(
                SimTime::ZERO,
                Envelope {
                    from: Endpoint::Camera(CameraId(0)),
                    to: Endpoint::Camera(CameraId(9)),
                    message: heartbeat(0),
                },
            )
            .unwrap_err();
        assert_eq!(err.to, Endpoint::Camera(CameraId(9)));
        assert!(err.detail.is_none(), "unreachable, not a socket failure");
        assert_eq!(
            registry.counter_value("tcp_send_errors_total", &[("endpoint", "cam0")]),
            Some(1)
        );
        a.shutdown();
    }

    #[test]
    fn send_to_down_peer_queues_for_retry() {
        let dir = TcpDirectory::new();
        let mut a = TcpTransport::bind(Endpoint::Camera(CameraId(0)), "127.0.0.1:0", &dir).unwrap();
        // Publish a peer address nobody listens on.
        let dead = TcpEndpoint::bind("127.0.0.1:0").unwrap();
        let dead_addr = dead.local_addr();
        dead.shutdown();
        dir.publish(Endpoint::Camera(CameraId(1)), dead_addr);
        let envelope = Envelope {
            from: Endpoint::Camera(CameraId(0)),
            to: Endpoint::Camera(CameraId(1)),
            message: heartbeat(0),
        };
        // The connection may briefly succeed while the OS drains the old
        // backlog; eventually sends fail and start queueing.
        let mut failed = false;
        for _ in 0..20 {
            if a.send(SimTime::ZERO, envelope.clone()).is_err() {
                failed = true;
                break;
            }
            std::thread::sleep(Duration::from_millis(20));
        }
        assert!(failed, "sends to a dead peer must surface SendError");
        let queued = a.queued_for(Endpoint::Camera(CameraId(1)));
        assert!(queued >= 1, "failed envelope retained for retry");
        assert_eq!(a.queue_depth(), queued, "backlog counted in queue depth");
        a.shutdown();
    }

    #[test]
    fn per_peer_queue_is_bounded() {
        let dir = TcpDirectory::new();
        let mut a = TcpTransport::bind(Endpoint::Camera(CameraId(0)), "127.0.0.1:0", &dir).unwrap();
        let dead = TcpEndpoint::bind("127.0.0.1:0").unwrap();
        let dead_addr = dead.local_addr();
        dead.shutdown();
        dir.publish(Endpoint::Camera(CameraId(1)), dead_addr);
        let envelope = Envelope {
            from: Endpoint::Camera(CameraId(0)),
            to: Endpoint::Camera(CameraId(1)),
            message: heartbeat(0),
        };
        // Overfill the backlog (sends may transiently succeed while the OS
        // drains the dead listener's backlog; keep pushing until bounded).
        for _ in 0..(MAX_QUEUED_PER_PEER * 2) {
            let _ = a.send(SimTime::ZERO, envelope.clone());
            if a.queued_for(Endpoint::Camera(CameraId(1))) >= MAX_QUEUED_PER_PEER {
                break;
            }
        }
        assert_eq!(
            a.queued_for(Endpoint::Camera(CameraId(1))),
            MAX_QUEUED_PER_PEER
        );
        let err = a.send(SimTime::ZERO, envelope.clone()).unwrap_err();
        assert!(
            err.to_string().contains("queue full"),
            "overflow is an explicit error: {err}"
        );
        assert_eq!(
            a.queued_for(Endpoint::Camera(CameraId(1))),
            MAX_QUEUED_PER_PEER,
            "overflowing envelope dropped, not queued"
        );
        a.shutdown();
    }

    #[test]
    fn backlog_flushes_once_the_peer_returns() {
        let dir = TcpDirectory::new();
        let mut a = TcpTransport::bind(Endpoint::Camera(CameraId(0)), "127.0.0.1:0", &dir).unwrap();
        let dead = TcpEndpoint::bind("127.0.0.1:0").unwrap();
        let addr = dead.local_addr();
        dead.shutdown();
        dir.publish(Endpoint::Camera(CameraId(1)), addr);
        let envelope = Envelope {
            from: Endpoint::Camera(CameraId(0)),
            to: Endpoint::Camera(CameraId(1)),
            message: heartbeat(0),
        };
        for _ in 0..20 {
            if a.send(SimTime::ZERO, envelope.clone()).is_err() {
                break;
            }
            std::thread::sleep(Duration::from_millis(20));
        }
        assert!(a.queued_for(Endpoint::Camera(CameraId(1))) >= 1);
        // The peer comes back on the same address; ticks retry past the
        // backoff until the backlog drains.
        let revived = match TcpEndpoint::bind(&addr.to_string()) {
            Ok(ep) => ep,
            // The ephemeral port was reused by another process — nothing
            // to assert against; bail out rather than flake.
            Err(_) => return,
        };
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        while a.queued_for(Endpoint::Camera(CameraId(1))) > 0 {
            assert!(
                std::time::Instant::now() < deadline,
                "backlog should flush after the peer returns"
            );
            a.tick(SimTime::ZERO);
            std::thread::sleep(Duration::from_millis(10));
        }
        revived.shutdown();
        a.shutdown();
    }

    #[test]
    fn send_to_dead_endpoint_errors() {
        let ep = TcpEndpoint::bind("127.0.0.1:0").unwrap();
        let addr = ep.local_addr();
        ep.shutdown();
        // Connecting may briefly succeed while the OS drains the backlog;
        // eventually it errors. Try a few times.
        let env = Envelope {
            from: Endpoint::TopologyServer,
            to: Endpoint::Camera(CameraId(1)),
            message: heartbeat(1),
        };
        let mut failed = false;
        for _ in 0..20 {
            if send_to(addr, &env).is_err() {
                failed = true;
                break;
            }
            std::thread::sleep(Duration::from_millis(20));
        }
        assert!(failed, "sends to a closed listener should eventually fail");
    }

    /// The bytes of one well-formed frame carrying `envelope`.
    fn frame_bytes(envelope: &Envelope) -> Vec<u8> {
        let mut bytes = Vec::new();
        write_frame(&mut bytes, envelope).expect("frame fits");
        bytes
    }

    /// The `i`-th valid test envelope: heartbeats and informs alternate.
    fn valid_envelope(i: u32) -> Envelope {
        Envelope {
            from: Endpoint::Camera(CameraId(i)),
            to: Endpoint::TopologyServer,
            message: if i.is_multiple_of(2) {
                heartbeat(i)
            } else {
                inform(i)
            },
        }
    }

    /// One piece of a hostile stream.
    #[derive(Debug, Clone)]
    enum Chunk {
        /// A well-formed frame.
        Valid(u32),
        /// A length prefix of 0 or above `MAX_FRAME_BYTES`, then some bytes.
        BadLength(u32, Vec<u8>),
        /// A well-formed length prefix over a payload that is not JSON (a
        /// leading 0xFF byte can start no JSON value).
        Garbage(Vec<u8>),
    }

    impl Chunk {
        fn bytes(&self) -> Vec<u8> {
            match self {
                Chunk::Valid(i) => frame_bytes(&valid_envelope(*i)),
                Chunk::BadLength(len, rest) => {
                    let mut bytes = len.to_be_bytes().to_vec();
                    bytes.extend_from_slice(rest);
                    bytes
                }
                Chunk::Garbage(rest) => {
                    let mut payload = vec![0xFF];
                    payload.extend_from_slice(rest);
                    let mut bytes = (payload.len() as u32).to_be_bytes().to_vec();
                    bytes.extend(payload);
                    bytes
                }
            }
        }
    }

    fn arb_bytes(max: usize) -> impl Strategy<Value = Vec<u8>> {
        proptest::collection::vec(0u8..=255, 0..max)
    }

    fn arb_chunk() -> impl Strategy<Value = Chunk> {
        prop_oneof![
            (0u32..16).prop_map(Chunk::Valid),
            (0u32..16).prop_map(Chunk::Valid),
            arb_bytes(16).prop_map(|rest| Chunk::BadLength(0, rest)),
            (MAX_FRAME_BYTES + 1..=u32::MAX, arb_bytes(16))
                .prop_map(|(len, rest)| Chunk::BadLength(len, rest)),
            arb_bytes(64).prop_map(Chunk::Garbage),
        ]
    }

    /// Feeds `bytes` to the frame reader; returns its result and every
    /// envelope it delivered, in order.
    fn read_all(bytes: &[u8]) -> (Result<(), TcpError>, Vec<Envelope>) {
        let (tx, rx) = unbounded();
        let result = read_frames(bytes, &tx);
        drop(tx);
        (result, rx.iter().collect())
    }

    proptest! {
        #[test]
        fn arbitrary_bytes_never_panic(
            bytes in arb_bytes(256),
            len in 1u32..96,
            payload in arb_bytes(96),
        ) {
            // The reader's result is already `Ok` or a typed error; the
            // property is that no input panics. Raw bytes almost always
            // open with a bad length prefix...
            let _ = read_all(&bytes);
            // ...so a plausible length over arbitrary bytes reaches the
            // decoder (or ends inside the payload).
            let mut framed = len.to_be_bytes().to_vec();
            framed.extend(payload);
            let _ = read_all(&framed);
        }

        #[test]
        fn frames_before_the_first_bad_one_are_delivered_in_order(
            chunks in proptest::collection::vec(arb_chunk(), 0..8),
            truncated in proptest::option::of((0u32..16, 1usize..10_000)),
        ) {
            let mut bytes = Vec::new();
            for chunk in &chunks {
                bytes.extend(chunk.bytes());
            }
            // Optionally end on a valid frame cut short.
            let mut cut_in_payload = false;
            if let Some((i, cut)) = truncated {
                let whole = frame_bytes(&valid_envelope(i));
                let cut = cut % whole.len();
                cut_in_payload = cut >= 4;
                bytes.extend_from_slice(&whole[..cut]);
            }
            let first_bad = chunks.iter().position(|c| !matches!(c, Chunk::Valid(_)));
            let expected: Vec<Envelope> = chunks[..first_bad.unwrap_or(chunks.len())]
                .iter()
                .map(|c| match c {
                    Chunk::Valid(i) => valid_envelope(*i),
                    _ => unreachable!("only valid chunks precede the first bad one"),
                })
                .collect();

            let (result, delivered) = read_all(&bytes);
            prop_assert_eq!(delivered, expected);
            match (first_bad, cut_in_payload) {
                (Some(_), _) => prop_assert!(matches!(result, Err(TcpError::Frame(_))), "{result:?}"),
                (None, true) => prop_assert!(matches!(result, Err(TcpError::Io(_))), "{result:?}"),
                (None, false) => prop_assert!(result.is_ok(), "{result:?}"),
            }
        }
    }
}
