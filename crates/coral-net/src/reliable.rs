//! At-least-once delivery on top of any [`Transport`].
//!
//! [`ReliableTransport`] implements the classic positive-ack scheme: every
//! outgoing protocol message is wrapped in a [`Message::Sequenced`] frame
//! carrying a per-peer sequence number and kept in a bounded retry queue
//! until the peer's [`Message::Ack`] comes back. Unacked frames are
//! retransmitted on [`Transport::tick`] with exponential backoff and
//! seeded jitter; after `max_attempts` the frame is abandoned (and
//! counted). The receive side acks every sequenced frame — including
//! redeliveries, whose ack may have been lost — and deduplicates by
//! `(sender, seq)`, so the actor above sees each message at most once.
//!
//! Framing is invisible to protocol actors: `send` wraps, `poll` unwraps.
//! Built as a passthrough ([`ReliableTransport::passthrough`]) the wrapper
//! forwards every call verbatim, leaving deterministic simulations
//! bit-identical.

use crate::message::Message;
use crate::transport::{Endpoint, Envelope, SendError, Transport};
use coral_obs::{Counter, Gauge, Journal, JournalKind, Registry, Severity};
use coral_sim::{SimDuration, SimTime};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::{BTreeMap, BTreeSet, HashMap};

/// Retransmission policy of a [`ReliableTransport`].
#[derive(Debug, Clone, PartialEq)]
pub struct RetryPolicy {
    /// Total send attempts (first transmission included) before a frame is
    /// abandoned.
    pub max_attempts: u32,
    /// Backoff before the first retransmission; doubles per attempt.
    pub base_backoff: SimDuration,
    /// Backoff ceiling.
    pub max_backoff: SimDuration,
    /// Maximum unacked frames held for retransmission; further sends fail
    /// with [`SendError`] until acks drain the queue.
    pub max_pending: usize,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        Self {
            max_attempts: 8,
            base_backoff: SimDuration::from_millis(200),
            max_backoff: SimDuration::from_secs(2),
            max_pending: 1024,
        }
    }
}

impl RetryPolicy {
    /// The backoff before retransmission number `retry` (1-based),
    /// exponential with ceiling, before jitter.
    fn backoff(&self, retry: u32) -> SimDuration {
        let factor = 1u64 << retry.saturating_sub(1).min(30);
        (self.base_backoff * factor).min(self.max_backoff)
    }
}

/// An unacked sequenced frame awaiting ack or retransmission.
#[derive(Debug, Clone)]
struct PendingFrame {
    envelope: Envelope,
    attempts: u32,
    next_retry: SimTime,
}

/// How many `(sender, seq)` entries the receive-side dedup window keeps
/// per peer before forgetting the oldest.
const DEDUP_WINDOW: usize = 4096;

#[derive(Debug, Clone)]
struct ReliableCounters {
    retries: Counter,
    gave_up: Counter,
    dup_dropped: Counter,
    acks: Counter,
    pending: Gauge,
}

/// The at-least-once decorator. See the [module docs](self).
#[derive(Debug)]
pub struct ReliableTransport<T> {
    inner: T,
    endpoint: Endpoint,
    /// `None` makes the wrapper a verbatim passthrough.
    policy: Option<RetryPolicy>,
    rng: StdRng,
    next_seq: HashMap<Endpoint, u64>,
    /// Unacked frames keyed by `(peer, seq)` — deterministic iteration
    /// order for retransmission.
    pending: BTreeMap<(Endpoint, u64), PendingFrame>,
    /// Receive-side dedup: sequence numbers already delivered, per sender.
    seen: HashMap<Endpoint, BTreeSet<u64>>,
    counters: Option<ReliableCounters>,
    journal: Option<Journal>,
    gave_up_total: u64,
}

impl<T: Transport> ReliableTransport<T> {
    /// Wraps `inner` (the transport of `endpoint`) with at-least-once
    /// delivery under `policy`. `seed` drives the retransmission jitter.
    pub fn new(inner: T, endpoint: Endpoint, policy: RetryPolicy, seed: u64) -> Self {
        Self {
            inner,
            endpoint,
            policy: Some(policy),
            rng: StdRng::seed_from_u64(seed ^ 0x5e11_ab1e),
            next_seq: HashMap::new(),
            pending: BTreeMap::new(),
            seen: HashMap::new(),
            counters: None,
            journal: None,
            gave_up_total: 0,
        }
    }

    /// Wraps `inner` as a verbatim passthrough: no framing, no retries, no
    /// dedup. Lets callers keep one concrete wrapper type while the
    /// reliability layer is configured off.
    pub fn passthrough(inner: T, endpoint: Endpoint) -> Self {
        Self {
            inner,
            endpoint,
            policy: None,
            rng: StdRng::seed_from_u64(0),
            next_seq: HashMap::new(),
            pending: BTreeMap::new(),
            seen: HashMap::new(),
            counters: None,
            journal: None,
            gave_up_total: 0,
        }
    }

    /// Whether the reliability layer is active (not a passthrough).
    pub fn is_enabled(&self) -> bool {
        self.policy.is_some()
    }

    /// Unacked frames currently held for retransmission.
    pub fn pending_len(&self) -> usize {
        self.pending.len()
    }

    /// Unacked frames currently held for retransmission toward `peer`.
    /// A growing per-peer backlog is the sender-side signal that the peer
    /// has stopped acking (dead or partitioned) — the federation failover
    /// path watches it to detect a lost region server.
    pub fn pending_len_for(&self, peer: Endpoint) -> usize {
        self.pending.range((peer, 0)..=(peer, u64::MAX)).count()
    }

    /// Frames abandoned after exhausting their retry budget.
    pub fn gave_up_total(&self) -> u64 {
        self.gave_up_total
    }

    /// The wrapped transport.
    pub fn inner(&self) -> &T {
        &self.inner
    }

    /// The wrapped transport, mutably.
    pub fn inner_mut(&mut self) -> &mut T {
        &mut self.inner
    }

    /// Starts publishing delivery counters into `registry`:
    /// `reliable_retries_total`, `reliable_gave_up_total`,
    /// `reliable_dup_dropped_total`, `reliable_acks_total` and the
    /// `reliable_pending_frames` queue-depth gauge, all labelled with this
    /// transport's `endpoint`.
    pub fn instrument(&mut self, registry: &Registry) {
        let label = self.endpoint.to_string();
        let labels = [("endpoint", label.as_str())];
        self.counters = Some(ReliableCounters {
            retries: registry.counter("reliable_retries_total", &labels),
            gave_up: registry.counter("reliable_gave_up_total", &labels),
            dup_dropped: registry.counter("reliable_dup_dropped_total", &labels),
            acks: registry.counter("reliable_acks_total", &labels),
            pending: registry.gauge("reliable_pending_frames", &labels),
        });
        self.sync_pending_gauge();
    }

    /// Starts recording delivery incidents (retransmissions, backoff
    /// escalations, abandoned frames) into the flight recorder.
    pub fn set_journal(&mut self, journal: Journal) {
        self.journal = Some(journal);
    }

    fn count(&self, select: impl Fn(&ReliableCounters) -> &Counter) {
        if let Some(c) = &self.counters {
            select(c).inc();
        }
    }

    fn sync_pending_gauge(&self) {
        if let Some(c) = &self.counters {
            c.pending.set(self.pending.len() as i64);
        }
    }

    fn journal_event(&self, kind: JournalKind, severity: Severity, now: SimTime, detail: &str) {
        if let Some(journal) = &self.journal {
            journal.record(
                kind,
                severity,
                now.as_micros(),
                &self.endpoint.to_string(),
                detail,
            );
        }
    }

    /// The jittered wait before retransmission number `retry`: the policy
    /// backoff scaled into `[0.5, 1.0)` so synchronized retry storms
    /// de-correlate.
    fn jittered(&mut self, policy_backoff: SimDuration) -> SimDuration {
        let jitter = 0.5 + 0.5 * self.rng.gen::<f64>();
        (policy_backoff * jitter).max(SimDuration::from_millis(1))
    }

    /// Marks `(peer, seq)` as delivered; returns `false` if it already
    /// was (a redelivery).
    fn note_seen(&mut self, peer: Endpoint, seq: u64) -> bool {
        let window = self.seen.entry(peer).or_default();
        let fresh = window.insert(seq);
        if window.len() > DEDUP_WINDOW {
            // Forget the oldest sequence number; a frame redelivered from
            // that far back would be re-accepted, which at-least-once
            // semantics tolerate.
            let oldest = window.iter().next().copied();
            if let Some(oldest) = oldest {
                window.remove(&oldest);
            }
        }
        fresh
    }
}

impl<T: Transport> Transport for ReliableTransport<T> {
    /// Submits `envelope`, wrapped in a sequenced frame and tracked until
    /// acked.
    ///
    /// `Ok` means *accepted for delivery*: a transient inner-transport
    /// failure is absorbed (the frame stays queued and retries on
    /// [`Transport::tick`]).
    ///
    /// # Errors
    ///
    /// Fails only when the retry queue is full ([`RetryPolicy::max_pending`]).
    /// As a passthrough, forwards the inner transport's result verbatim.
    fn send(&mut self, now: SimTime, envelope: Envelope) -> Result<(), SendError> {
        let Some(policy) = self.policy.clone() else {
            return self.inner.send(now, envelope);
        };
        if matches!(
            envelope.message,
            Message::Ack { .. } | Message::Sequenced { .. }
        ) {
            // Already framed (internal traffic, or a stacked wrapper):
            // forward untouched.
            return self.inner.send(now, envelope);
        }
        if self.pending.len() >= policy.max_pending {
            return Err(SendError::failed(envelope.to, "reliable retry queue full"));
        }
        let seq_slot = self.next_seq.entry(envelope.to).or_insert(0);
        let seq = *seq_slot;
        *seq_slot += 1;
        let framed = Envelope {
            from: envelope.from,
            to: envelope.to,
            message: Message::Sequenced {
                seq,
                payload: Box::new(envelope.message),
            },
        };
        let next_retry = now + self.jittered(policy.backoff(1));
        self.pending.insert(
            (framed.to, seq),
            PendingFrame {
                envelope: framed.clone(),
                attempts: 1,
                next_retry,
            },
        );
        // A transient failure is the retry loop's job, not the caller's.
        let _ = self.inner.send(now, framed);
        self.sync_pending_gauge();
        Ok(())
    }

    fn poll(&mut self, now: SimTime) -> Option<Envelope> {
        if self.policy.is_none() {
            return self.inner.poll(now);
        }
        loop {
            let envelope = self.inner.poll(now)?;
            match envelope.message {
                Message::Ack { seq } => {
                    if self.pending.remove(&(envelope.from, seq)).is_some() {
                        self.count(|c| &c.acks);
                        self.sync_pending_gauge();
                    }
                }
                Message::Sequenced { seq, payload } => {
                    // Always ack — the redelivery may mean our previous
                    // ack was lost. Best-effort: a lost ack just triggers
                    // another redelivery.
                    let _ = self.inner.send(
                        now,
                        Envelope {
                            from: envelope.to,
                            to: envelope.from,
                            message: Message::Ack { seq },
                        },
                    );
                    if self.note_seen(envelope.from, seq) {
                        return Some(Envelope {
                            from: envelope.from,
                            to: envelope.to,
                            message: *payload,
                        });
                    }
                    self.count(|c| &c.dup_dropped);
                }
                message => {
                    // Unframed traffic (a peer without the reliability
                    // layer): deliver as-is.
                    return Some(Envelope {
                        message,
                        ..envelope
                    });
                }
            }
        }
    }

    /// Retransmits every due unacked frame, abandoning frames that
    /// exhausted [`RetryPolicy::max_attempts`].
    fn tick(&mut self, now: SimTime) {
        self.inner.tick(now);
        let Some(policy) = self.policy.clone() else {
            return;
        };
        let due: Vec<(Endpoint, u64)> = self
            .pending
            .iter()
            .filter(|(_, f)| f.next_retry <= now)
            .map(|(&k, _)| k)
            .collect();
        for key in due {
            let Some(frame) = self.pending.get(&key) else {
                continue;
            };
            let (peer, seq) = key;
            if frame.attempts >= policy.max_attempts {
                self.pending.remove(&key);
                self.gave_up_total += 1;
                self.count(|c| &c.gave_up);
                self.journal_event(
                    JournalKind::DeliveryAbandoned,
                    Severity::Error,
                    now,
                    &format!(
                        "frame seq {seq} to {peer} abandoned after {} attempts",
                        policy.max_attempts
                    ),
                );
                continue;
            }
            let envelope = frame.envelope.clone();
            let attempts = frame.attempts + 1;
            let wait = self.jittered(policy.backoff(attempts));
            if let Some(frame) = self.pending.get_mut(&key) {
                frame.attempts = attempts;
                frame.next_retry = now + wait;
            }
            self.count(|c| &c.retries);
            // Escalation is the half-budget crossing: journaled once per
            // frame, at Warn, so the flight recorder separates routine
            // single retries from deliveries in real trouble.
            let escalation_at = (policy.max_attempts / 2).max(2);
            if attempts == escalation_at {
                self.journal_event(
                    JournalKind::BackoffEscalation,
                    Severity::Warn,
                    now,
                    &format!(
                        "frame seq {seq} to {peer} at attempt {attempts} of {} (backoff {} ms)",
                        policy.max_attempts,
                        wait.as_millis()
                    ),
                );
            } else {
                self.journal_event(
                    JournalKind::Retransmit,
                    Severity::Info,
                    now,
                    &format!("retransmit seq {seq} to {peer} (attempt {attempts})"),
                );
            }
            let _ = self.inner.send(now, envelope);
        }
        self.sync_pending_gauge();
    }

    /// Quiet when no frame awaits an ack (so no retransmission timer is
    /// armed) and the wrapped transport is quiet.
    fn is_quiet(&self) -> bool {
        self.pending.is_empty() && self.inner.is_quiet()
    }

    fn next_due(&self) -> Option<SimTime> {
        let retry = self.pending.values().map(|f| f.next_retry).min();
        match (self.inner.next_due(), retry) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        }
    }

    fn queue_depth(&self) -> usize {
        self.inner.queue_depth() + self.pending.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faulty::{FaultPlan, FaultPolicy, FaultyTransport};
    use crate::transport::{SimNet, SimTransport};
    use coral_geo::GeoPoint;
    use coral_topology::CameraId;

    fn heartbeat(cam: u32) -> Message {
        Message::Heartbeat {
            camera: CameraId(cam),
            position: GeoPoint::new(33.77, -84.39),
            videoing_angle_deg: 0.0,
        }
    }

    fn envelope(from: u32, to: u32) -> Envelope {
        Envelope {
            from: Endpoint::Camera(CameraId(from)),
            to: Endpoint::Camera(CameraId(to)),
            message: heartbeat(from),
        }
    }

    fn reliable(net: &SimNet, cam: u32) -> ReliableTransport<SimTransport> {
        let e = Endpoint::Camera(CameraId(cam));
        ReliableTransport::new(net.handle(e), e, RetryPolicy::default(), cam as u64)
    }

    #[test]
    fn roundtrip_unwraps_and_acks() {
        let net = SimNet::instant();
        let mut a = reliable(&net, 0);
        let mut b = reliable(&net, 1);
        a.send(SimTime::ZERO, envelope(0, 1)).unwrap();
        assert_eq!(a.pending_len(), 1);
        // The receiver sees the protocol message, not the frame.
        let got = b.poll(SimTime::ZERO).expect("delivered");
        assert_eq!(got.message, heartbeat(0));
        // The ack drains the sender's retry queue on its next poll.
        assert!(a.poll(SimTime::ZERO).is_none());
        assert_eq!(a.pending_len(), 0);
    }

    #[test]
    fn pending_len_for_counts_only_the_given_peer() {
        let net = SimNet::instant();
        let mut a = reliable(&net, 0);
        a.send(SimTime::ZERO, envelope(0, 1)).unwrap();
        a.send(SimTime::ZERO, envelope(0, 1)).unwrap();
        a.send(SimTime::ZERO, envelope(0, 2)).unwrap();
        assert_eq!(a.pending_len(), 3);
        assert_eq!(a.pending_len_for(Endpoint::Camera(CameraId(1))), 2);
        assert_eq!(a.pending_len_for(Endpoint::Camera(CameraId(2))), 1);
        assert_eq!(a.pending_len_for(Endpoint::TopologyServer), 0);
    }

    #[test]
    fn redelivered_frames_are_deduplicated() {
        let registry = Registry::new();
        let net = SimNet::instant();
        let mut a = reliable(&net, 0);
        let mut b = reliable(&net, 1);
        b.instrument(&registry);
        a.send(SimTime::ZERO, envelope(0, 1)).unwrap();
        // Force a retransmission by ticking far past the backoff without
        // letting the ack back in.
        let later = SimTime::from_secs(10);
        a.tick(later);
        // Two copies are now in flight; the receiver must deliver one.
        assert_eq!(net.in_flight(), 2);
        assert!(b.poll(later).is_some());
        assert!(b.poll(later).is_none(), "duplicate suppressed");
        assert_eq!(
            registry.counter_value("reliable_dup_dropped_total", &[("endpoint", "cam1")]),
            Some(1)
        );
    }

    #[test]
    fn retries_survive_full_loss_until_the_link_heals() {
        let net = SimNet::instant();
        let e0 = Endpoint::Camera(CameraId(0));
        let faulty = FaultyTransport::new(
            net.handle(e0),
            e0,
            FaultPlan::uniform(FaultPolicy::none(), 1),
        );
        let mut a = ReliableTransport::new(faulty, e0, RetryPolicy::default(), 9);
        let mut b = reliable(&net, 1);
        a.inner_mut()
            .partition(Endpoint::Camera(CameraId(1)), SimTime::ZERO);
        a.send(SimTime::ZERO, envelope(0, 1)).unwrap();
        assert!(b.poll(SimTime::from_secs(1)).is_none(), "link is down");
        // Heal and let a retry fire.
        a.inner_mut()
            .heal(Endpoint::Camera(CameraId(1)), SimTime::from_secs(2));
        a.tick(SimTime::from_secs(2));
        let got = b.poll(SimTime::from_secs(2)).expect("retried");
        assert_eq!(got.message, heartbeat(0));
        // The ack eventually settles the sender.
        assert!(a.poll(SimTime::from_secs(2)).is_none());
        assert_eq!(a.pending_len(), 0);
    }

    #[test]
    fn gives_up_after_max_attempts() {
        let registry = Registry::new();
        let net = SimNet::instant();
        let e0 = Endpoint::Camera(CameraId(0));
        let faulty = FaultyTransport::new(
            net.handle(e0),
            e0,
            FaultPlan::uniform(FaultPolicy::none(), 1),
        );
        let policy = RetryPolicy {
            max_attempts: 3,
            ..RetryPolicy::default()
        };
        let mut a = ReliableTransport::new(faulty, e0, policy, 4);
        a.instrument(&registry);
        a.inner_mut()
            .partition(Endpoint::Camera(CameraId(1)), SimTime::ZERO);
        a.send(SimTime::ZERO, envelope(0, 1)).unwrap();
        for s in 1..10 {
            a.tick(SimTime::from_secs(s));
        }
        assert_eq!(a.pending_len(), 0, "frame abandoned");
        assert_eq!(a.gave_up_total(), 1);
        assert_eq!(
            registry.counter_value("reliable_gave_up_total", &[("endpoint", "cam0")]),
            Some(1)
        );
        let retries = registry
            .counter_value("reliable_retries_total", &[("endpoint", "cam0")])
            .unwrap();
        assert_eq!(retries, 2, "attempts 2 and 3 were retransmissions");
    }

    #[test]
    fn quiet_until_a_frame_awaits_its_ack() {
        let net = SimNet::instant();
        let mut a = reliable(&net, 0);
        let mut b = reliable(&net, 1);
        assert!(a.is_quiet(), "nothing sent, no timer armed");
        a.send(SimTime::ZERO, envelope(0, 1)).unwrap();
        assert!(!a.is_quiet(), "the unacked frame arms a retransmission");
        assert!(b.poll(SimTime::ZERO).is_some());
        assert!(a.poll(SimTime::ZERO).is_none(), "the ack is consumed");
        assert!(a.is_quiet(), "acked: tick has nothing left to do");
        // A passthrough never arms a timer.
        let e2 = Endpoint::Camera(CameraId(2));
        let mut p = ReliableTransport::passthrough(net.handle(e2), e2);
        p.send(SimTime::ZERO, envelope(2, 1)).unwrap();
        assert!(p.is_quiet());
    }

    #[test]
    fn bounded_queue_surfaces_send_error() {
        let net = SimNet::instant();
        let e0 = Endpoint::Camera(CameraId(0));
        let policy = RetryPolicy {
            max_pending: 2,
            ..RetryPolicy::default()
        };
        let mut a = ReliableTransport::new(net.handle(e0), e0, policy, 4);
        a.send(SimTime::ZERO, envelope(0, 1)).unwrap();
        a.send(SimTime::ZERO, envelope(0, 1)).unwrap();
        let err = a.send(SimTime::ZERO, envelope(0, 1)).unwrap_err();
        assert_eq!(err.to, Endpoint::Camera(CameraId(1)));
        assert!(err.to_string().contains("retry queue full"));
    }

    #[test]
    fn passthrough_adds_no_framing() {
        let net = SimNet::instant();
        let e0 = Endpoint::Camera(CameraId(0));
        let mut a = ReliableTransport::passthrough(net.handle(e0), e0);
        assert!(!a.is_enabled());
        a.send(SimTime::ZERO, envelope(0, 1)).unwrap();
        // The raw mailbox sees the unframed protocol message.
        let mut raw = net.handle(Endpoint::Camera(CameraId(1)));
        let got = raw.poll(SimTime::ZERO).expect("delivered");
        assert_eq!(got.message, heartbeat(0));
        assert_eq!(a.pending_len(), 0);
    }

    #[test]
    fn unframed_traffic_interops_with_reliable_receivers() {
        let net = SimNet::instant();
        let mut plain = net.handle(Endpoint::Camera(CameraId(0)));
        let mut b = reliable(&net, 1);
        plain.send(SimTime::ZERO, envelope(0, 1)).unwrap();
        let got = b.poll(SimTime::ZERO).expect("delivered");
        assert_eq!(got.message, heartbeat(0));
    }

    #[test]
    fn per_peer_sequence_spaces_are_independent() {
        let net = SimNet::instant();
        let mut a = reliable(&net, 0);
        a.send(SimTime::ZERO, envelope(0, 1)).unwrap();
        a.send(SimTime::ZERO, envelope(0, 2)).unwrap();
        a.send(SimTime::ZERO, envelope(0, 1)).unwrap();
        let seqs = |cam: u32| {
            let mut raw = net.handle(Endpoint::Camera(CameraId(cam)));
            std::iter::from_fn(|| raw.poll(SimTime::ZERO))
                .filter_map(|e| match e.message {
                    Message::Sequenced { seq, .. } => Some(seq),
                    _ => None,
                })
                .collect::<Vec<u64>>()
        };
        assert_eq!(seqs(1), vec![0, 1]);
        assert_eq!(seqs(2), vec![0]);
    }
}
