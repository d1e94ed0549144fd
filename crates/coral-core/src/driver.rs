//! The per-actor drive units both runtimes share: [`NodeDriver`] and
//! [`ServerDriver`] bind a protocol actor (a [`CameraNode`] or the
//! [`TopologyServer`]) to one [`Link`], the reliability and fault layers
//! over a raw transport, and [`build_link`] assembles that stack for every
//! endpoint. The same drive methods serve the DES
//! ([`SimRuntime`](crate::SimRuntime), over `SimTransport`) and the
//! threaded runtime ([`ThreadedRuntime`](crate::ThreadedRuntime), one OS
//! thread per actor over `InProcTransport` or loopback `TcpTransport`).

use crate::deploy::SystemConfig;
use crate::node::{CameraNode, FrameAnalysis, FrameOutput};
use crate::obs::{CoreObs, NodeObs, ServerObs};
use coral_net::{
    Endpoint, Envelope, FaultyTransport, Message, ReliableTransport, SendError, Transport,
};
use coral_sim::SimTime;
use coral_topology::{CameraId, MdcsUpdate, TopologyServer};
use coral_vision::Scene;
use std::collections::BTreeSet;
use std::time::{Duration, Instant};

/// A camera node bound to its transport endpoint — the unit every
/// deployment mode drives.
///
/// The driver owns the protocol side effects: frames captured through
/// [`NodeDriver::capture`] send their inform/confirm messages over the
/// transport, and envelopes fed to [`NodeDriver::deliver`] send any
/// confirmation relays the node produces. It also meters its own work
/// into the deployment's [`CoreObs`]: events, re-identifications,
/// deliveries, heartbeats and their causal-trace stages, so every runtime
/// exports the same counters. What remains for the caller is pacing (a
/// DES clock or a thread loop).
#[derive(Debug)]
pub struct NodeDriver<T: Transport> {
    node: CameraNode,
    transport: T,
    obs: NodeObs,
    /// Where this camera's heartbeats go: its home region's server
    /// ([`region_endpoint`]), or an adoptive region's while a failover is
    /// in effect.
    parent: Endpoint,
    /// JSON size of this camera's heartbeat, encoded on the first send: a
    /// heartbeat never changes.
    heartbeat_bytes: Option<u64>,
}

impl<T: Transport> NodeDriver<T> {
    /// Binds `node` to `transport`, metering into `obs`.
    pub fn new(node: CameraNode, transport: T, obs: &CoreObs) -> Self {
        Self {
            obs: NodeObs::new(obs, node.id()),
            node,
            transport,
            parent: Endpoint::TopologyServer,
            heartbeat_bytes: None,
        }
    }

    /// The endpoint this camera's heartbeats are addressed to.
    pub fn parent(&self) -> Endpoint {
        self.parent
    }

    /// Re-parents this camera's heartbeats (federation failover).
    pub fn set_parent(&mut self, parent: Endpoint) {
        self.parent = parent;
    }

    /// The camera node.
    pub fn node(&self) -> &CameraNode {
        &self.node
    }

    /// The camera node, mutably, for the DES's split analysis phase, its
    /// idle-frame bookkeeping and failover; no caller outside the crate
    /// can reach the node around the metered methods.
    pub(crate) fn node_mut(&mut self) -> &mut CameraNode {
        &mut self.node
    }

    /// The transport handle.
    pub fn transport(&self) -> &T {
        &self.transport
    }

    /// The transport handle, mutably.
    pub fn transport_mut(&mut self) -> &mut T {
        &mut self.transport
    }

    /// This driver's network address.
    pub fn endpoint(&self) -> Endpoint {
        Endpoint::Camera(self.node.id())
    }

    /// Builds and sends this camera's heartbeat to its parent server, and
    /// meters it: the heartbeat count, its JSON bytes as cloud traffic,
    /// and the staleness gauge the health engine watches.
    ///
    /// # Errors
    ///
    /// Propagates the transport failure, if any.
    pub fn send_heartbeat(&mut self, now: SimTime) -> Result<(), SendError> {
        let message = self.node.heartbeat();
        let bytes = *self
            .heartbeat_bytes
            .get_or_insert_with(|| message.encoded_len() as u64);
        debug_assert_eq!(
            bytes,
            message.encoded_len() as u64,
            "a camera's heartbeat never changes"
        );
        self.transport.send(
            now,
            Envelope {
                from: Endpoint::Camera(self.node.id()),
                to: self.parent,
                message,
            },
        )?;
        self.obs.note_heartbeat_sent(now, bytes);
        Ok(())
    }

    /// Processes one captured frame and sends the resulting protocol
    /// messages. Returns the frame output (events, re-id records) with its
    /// message list already drained into the transport.
    ///
    /// # Errors
    ///
    /// Propagates the first transport failure.
    pub fn capture(&mut self, scene: &Scene, now: SimTime) -> Result<FrameOutput, SendError> {
        let start = Instant::now();
        let analysis = self.node.analyze_frame(scene);
        self.commit(analysis, start.elapsed(), now)
    }

    /// Commits a previously computed [`FrameAnalysis`]: runs the
    /// shared-state half of frame processing and sends the resulting
    /// protocol messages. `analyze_elapsed` (the wall-clock cost of the
    /// analysis phase, possibly on another thread) is folded into the
    /// frame-handling histogram so the split path meters exactly what
    /// [`NodeDriver::capture`] does.
    ///
    /// # Errors
    ///
    /// Propagates the first transport failure.
    pub fn commit(
        &mut self,
        analysis: FrameAnalysis,
        analyze_elapsed: Duration,
        now: SimTime,
    ) -> Result<FrameOutput, SendError> {
        let start = Instant::now();
        let out = self.node.commit_frame(analysis, now.as_millis());
        self.obs.note_frame(analyze_elapsed + start.elapsed());
        self.send_output(out, now)
    }

    /// Flushes in-flight tracks (end of stream) and sends the resulting
    /// messages.
    ///
    /// # Errors
    ///
    /// Propagates the first transport failure.
    pub fn flush(&mut self, now: SimTime) -> Result<FrameOutput, SendError> {
        let out = self.node.flush(now.as_millis());
        self.send_output(out, now)
    }

    /// Flushes in-flight tracks and meters the output like
    /// [`NodeDriver::flush`], but leaves its messages to the caller: the
    /// DES's zero-latency end-of-run epilogue hands them straight to
    /// their recipients through [`NodeDriver::receive`].
    pub(crate) fn flush_unsent(&mut self, now: SimTime) -> FrameOutput {
        let out = self.node.flush(now.as_millis());
        self.obs.observe_output(&out, now);
        out
    }

    /// Hands a delivered message to the node and sends any replies
    /// (confirmation relays).
    ///
    /// # Errors
    ///
    /// Propagates the first transport failure.
    pub fn deliver(&mut self, message: Message, now: SimTime) -> Result<(), SendError> {
        self.obs.observe_delivery(&message);
        let start = Instant::now();
        let mut replies = self.node.on_message(message, now.as_millis());
        self.obs.note_message(start.elapsed());
        self.send_all(now, &mut replies)
    }

    /// Hands a message to the node and meters its delivery like
    /// [`NodeDriver::deliver`], but returns the replies unsent (the DES's
    /// end-of-run epilogue).
    pub(crate) fn receive(&mut self, message: Message, now: SimTime) -> Vec<(CameraId, Message)> {
        self.obs.observe_delivery(&message);
        self.node.on_message(message, now.as_millis())
    }

    /// Drains every envelope deliverable at `now`, handing each to the
    /// node. Returns the number of envelopes processed.
    ///
    /// # Errors
    ///
    /// Propagates the first transport failure.
    pub fn pump(&mut self, now: SimTime) -> Result<usize, SendError> {
        let mut n = 0;
        while let Some(envelope) = self.transport.poll(now) {
            self.deliver(envelope.message, now)?;
            n += 1;
        }
        Ok(n)
    }

    /// Sends a frame output's messages, then meters its events and
    /// re-identifications.
    fn send_output(
        &mut self,
        mut out: FrameOutput,
        now: SimTime,
    ) -> Result<FrameOutput, SendError> {
        self.send_all(now, &mut out.messages)?;
        self.obs.observe_output(&out, now);
        Ok(out)
    }

    fn send_all(
        &mut self,
        now: SimTime,
        messages: &mut Vec<(CameraId, Message)>,
    ) -> Result<(), SendError> {
        let from = Endpoint::Camera(self.node.id());
        for (to, message) in messages.drain(..) {
            // Observed before the send so the trace records the attempt
            // even when the transport rejects it.
            self.obs.observe_send(to, &message, now);
            self.transport.send(
                now,
                Envelope {
                    from,
                    to: Endpoint::Camera(to),
                    message,
                },
            )?;
        }
        Ok(())
    }
}

/// The result of a liveness sweep: which cameras the server just evicted,
/// and which survivors were sent reconfiguration updates.
#[derive(Debug, Clone, Default)]
pub struct LivenessOutcome {
    /// Cameras removed from the active topology this sweep.
    pub removed: Vec<CameraId>,
    /// Survivors that were sent a topology update.
    pub recipients: BTreeSet<CameraId>,
}

/// The topology server bound to its transport endpoint.
#[derive(Debug)]
pub struct ServerDriver<T: Transport> {
    server: TopologyServer,
    transport: T,
    obs: ServerObs,
    /// This server's own network address — the `from` of every update it
    /// sends. `Endpoint::TopologyServer` unless rebound to another
    /// region's server endpoint.
    endpoint: Endpoint,
}

impl<T: Transport> ServerDriver<T> {
    /// Binds `server` to `transport`, metering into `obs`: MDCS
    /// recomputation wall-times and the update-fanout counter.
    pub fn new(server: TopologyServer, transport: T, obs: &CoreObs) -> Self {
        Self {
            server,
            transport,
            obs: ServerObs::new(obs),
            endpoint: Endpoint::TopologyServer,
        }
    }

    /// This server's network address.
    pub fn endpoint(&self) -> Endpoint {
        self.endpoint
    }

    /// Rebinds the address updates are sent from (the servers of regions
    /// other than region 0).
    pub fn set_endpoint(&mut self, endpoint: Endpoint) {
        self.endpoint = endpoint;
    }

    /// The topology server.
    pub fn server(&self) -> &TopologyServer {
        &self.server
    }

    /// The topology server, mutably.
    pub fn server_mut(&mut self) -> &mut TopologyServer {
        &mut self.server
    }

    /// The transport handle, mutably.
    pub fn transport_mut(&mut self) -> &mut T {
        &mut self.transport
    }

    /// Handles one delivered envelope (heartbeats drive joins and
    /// re-joins; anything else is ignored), sending topology updates to
    /// every affected camera admitted by `permit`. Returns the number of
    /// updates sent.
    ///
    /// # Errors
    ///
    /// Propagates the first transport failure.
    pub fn on_envelope(
        &mut self,
        envelope: Envelope,
        now: SimTime,
        permit: impl FnMut(CameraId) -> bool,
    ) -> Result<usize, SendError> {
        let Message::Heartbeat {
            camera,
            position,
            videoing_angle_deg,
        } = envelope.message
        else {
            return Ok(0);
        };
        let start = Instant::now();
        let updates = self
            .server
            .handle_heartbeat(camera, position, videoing_angle_deg, now.as_millis())
            .unwrap_or_default();
        self.obs.note_heartbeat(start.elapsed());
        self.send_updates(updates, now, permit)
    }

    /// Scans for missed heartbeats, sending reconfiguration updates to the
    /// survivors admitted by `permit`.
    ///
    /// # Errors
    ///
    /// Propagates the first transport failure.
    pub fn check_liveness(
        &mut self,
        now: SimTime,
        mut permit: impl FnMut(CameraId) -> bool,
    ) -> Result<LivenessOutcome, SendError> {
        let start = Instant::now();
        let sweep = self.server.check_liveness(now.as_millis());
        self.obs.note_liveness(start.elapsed());
        if sweep.evicted.is_empty() {
            return Ok(LivenessOutcome::default());
        }
        let recipients: BTreeSet<CameraId> = sweep
            .updates
            .iter()
            .map(|u| u.camera)
            .filter(|&c| permit(c))
            .collect();
        self.send_updates(sweep.updates, now, permit)?;
        Ok(LivenessOutcome {
            removed: sweep.evicted,
            recipients,
        })
    }

    fn send_updates(
        &mut self,
        updates: Vec<MdcsUpdate>,
        now: SimTime,
        mut permit: impl FnMut(CameraId) -> bool,
    ) -> Result<usize, SendError> {
        let mut sent = 0;
        for update in updates {
            if permit(update.camera) {
                let to = update.camera;
                self.transport.send(
                    now,
                    Envelope {
                        from: self.endpoint,
                        to: Endpoint::Camera(to),
                        message: Message::TopologyUpdate(update),
                    },
                )?;
                sent += 1;
            }
        }
        self.obs.note_updates_sent(sent);
        Ok(sent)
    }
}

/// The transport stack of every endpoint in every deployment mode:
/// at-least-once delivery over fault injection over a raw transport. Both
/// decorator layers are exact passthroughs unless enabled in
/// [`SystemConfig`] (`reliability` / `faults`), so the default stack is
/// bit-identical to the bare raw transport. `build_link` assembles it.
pub type Link<T> = ReliableTransport<FaultyTransport<T>>;

/// Seed-mixing constant decorrelating retransmission jitter from the
/// other seeded components.
const RELIABILITY_SEED_MIX: u64 = 0x0ac4_ed15;

/// Stable per-endpoint seed component for the reliability jitter RNG.
fn endpoint_seed(endpoint: Endpoint) -> u64 {
    match endpoint {
        Endpoint::Camera(c) => 1 + (u64::from(c.0) << 8),
        Endpoint::TopologyServer => 2,
        Endpoint::EdgeStore(i) => 3 + (u64::from(i) << 8),
        Endpoint::RegionServer(r) => 4 + (u64::from(r) << 8),
    }
}

/// The heartbeat/topology endpoint of region `region`. Region 0 answers at
/// [`Endpoint::TopologyServer`] — the classic single-server address, which
/// also seeds its reliability jitter.
pub fn region_endpoint(region: u16) -> Endpoint {
    if region == 0 {
        Endpoint::TopologyServer
    } else {
        Endpoint::RegionServer(region)
    }
}

/// Builds the [`Link`] stack for `endpoint` over its `raw` transport per
/// the deployment config: each layer is live when configured, a verbatim
/// passthrough otherwise. The raw transport publishes its own counters
/// into `obs`, if it keeps any ([`Transport::instrument`]). A live layer
/// publishes its chaos or retry counters into `obs` and journals its
/// events there; a passthrough layer is left unmetered (it would only pin
/// zeros into every snapshot).
pub(crate) fn build_link<T: Transport>(
    config: &SystemConfig,
    mut raw: T,
    endpoint: Endpoint,
    obs: &CoreObs,
) -> Link<T> {
    raw.instrument(obs.registry());
    let faulty = match &config.faults {
        Some(plan) => {
            let mut faulty = FaultyTransport::new(raw, endpoint, plan.clone());
            faulty.instrument(obs.registry());
            faulty.set_journal(obs.journal().clone());
            faulty
        }
        None => FaultyTransport::transparent(raw, endpoint),
    };
    match &config.reliability {
        Some(policy) => {
            let mut link = ReliableTransport::new(
                faulty,
                endpoint,
                policy.clone(),
                config.seed ^ RELIABILITY_SEED_MIX ^ endpoint_seed(endpoint),
            );
            link.instrument(obs.registry());
            link.set_journal(obs.journal().clone());
            link
        }
        None => ReliableTransport::passthrough(faulty, endpoint),
    }
}
