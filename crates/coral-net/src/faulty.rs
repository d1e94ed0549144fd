//! Deterministic fault injection at the [`Transport`] seam.
//!
//! Geo-distributed camera links lose, duplicate, reorder and delay
//! packets; nodes get partitioned. [`FaultyTransport`] decorates any
//! [`Transport`] with a seeded, per-link [`FaultPolicy`] so every test,
//! example and experiment can run under chaos *reproducibly*: the same
//! [`FaultPlan`] seed yields the same fault pattern on every run.
//!
//! Injected faults are silent, like a real lossy wire: a dropped envelope
//! still returns `Ok` from `send` — the sender learns nothing. Pair the
//! wrapper with [`crate::ReliableTransport`] to recover at-least-once
//! delivery on top.

use crate::transport::{Endpoint, Envelope, SendError, Transport};
use coral_obs::{Counter, Journal, JournalKind, Registry, Severity};
use coral_sim::{SimDuration, SimTime};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeSet;

/// Per-link fault probabilities, sampled independently per send.
///
/// All probabilities are in `[0, 1]`. The default policy is fault-free.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultPolicy {
    /// Probability a sent envelope is silently dropped.
    pub drop: f64,
    /// Probability a sent envelope is delivered twice.
    pub duplicate: f64,
    /// Probability a sent envelope is held back and released after the
    /// next send (or the next [`Transport::tick`]), swapping delivery
    /// order with its successor.
    pub reorder: f64,
    /// Probability a sent envelope is charged [`FaultPolicy::delay_by`] of
    /// extra latency. Only effective on simulated transports (real-time
    /// transports ignore the clock).
    pub delay: f64,
    /// Extra latency charged to delayed envelopes.
    pub delay_by: SimDuration,
}

impl Default for FaultPolicy {
    fn default() -> Self {
        Self {
            drop: 0.0,
            duplicate: 0.0,
            reorder: 0.0,
            delay: 0.0,
            delay_by: SimDuration::ZERO,
        }
    }
}

impl FaultPolicy {
    /// A fault-free policy.
    pub fn none() -> Self {
        Self::default()
    }

    /// A policy that only drops, with probability `p`.
    pub fn drop_only(p: f64) -> Self {
        Self {
            drop: p,
            ..Self::default()
        }
    }

    /// Whether this policy can never inject a fault.
    pub fn is_noop(&self) -> bool {
        self.drop <= 0.0 && self.duplicate <= 0.0 && self.reorder <= 0.0 && self.delay <= 0.0
    }
}

/// A seeded fault assignment for one endpoint's outgoing links: a default
/// [`FaultPolicy`] plus optional per-destination overrides.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    /// Seed of the fault RNG. Each [`FaultyTransport`] mixes its own
    /// endpoint identity in, so every link gets an independent but
    /// reproducible fault stream.
    pub seed: u64,
    /// Policy applied to links without an override.
    pub default: FaultPolicy,
    /// Per-destination overrides, looked up before the default.
    pub overrides: Vec<(Endpoint, FaultPolicy)>,
}

impl FaultPlan {
    /// The same policy on every link.
    pub fn uniform(policy: FaultPolicy, seed: u64) -> Self {
        Self {
            seed,
            default: policy,
            overrides: Vec::new(),
        }
    }

    /// A plan that injects nothing (the transparent wrapper).
    pub fn none() -> Self {
        Self::uniform(FaultPolicy::none(), 0)
    }

    /// Adds (or replaces) the policy for the link toward `to`.
    #[must_use]
    pub fn with_link(mut self, to: Endpoint, policy: FaultPolicy) -> Self {
        self.overrides.retain(|&(e, _)| e != to);
        self.overrides.push((to, policy));
        self
    }

    /// The policy governing the link toward `to`.
    pub fn policy_for(&self, to: Endpoint) -> FaultPolicy {
        self.overrides
            .iter()
            .find(|&&(e, _)| e == to)
            .map_or(self.default, |&(_, p)| p)
    }

    /// Whether no link of this plan can ever inject a fault.
    pub fn is_noop(&self) -> bool {
        self.default.is_noop() && self.overrides.iter().all(|(_, p)| p.is_noop())
    }
}

/// Mixes an endpoint identity into a fault seed so distinct links draw
/// from decorrelated streams.
fn endpoint_seed(endpoint: Endpoint) -> u64 {
    match endpoint {
        Endpoint::Camera(c) => 0x00fa_417e ^ (u64::from(c.0) << 8),
        Endpoint::TopologyServer => 0x00fa_417e ^ 0x0c10_0d00,
        Endpoint::EdgeStore(i) => 0x00fa_417e ^ (0x0ed6_e000 | u64::from(i)),
        Endpoint::RegionServer(r) => 0x00fa_417e ^ (0x4e91_0000 | u64::from(r)),
    }
}

/// Fault-injection counters published into a [`Registry`].
#[derive(Debug, Clone)]
struct FaultCounters {
    dropped: Counter,
    duplicated: Counter,
    reordered: Counter,
    delayed: Counter,
}

/// A [`Transport`] decorator injecting seeded faults on the send path.
///
/// When the plan [`FaultPlan::is_noop`], the wrapper is an exact
/// passthrough: it forwards every call unchanged and **consumes no
/// randomness**, so wrapping a deterministic simulation with a no-op plan
/// leaves its event stream bit-identical.
///
/// Partitions are dynamic: [`FaultyTransport::partition`] makes a
/// destination unreachable (sends silently dropped, without consuming
/// randomness) until [`FaultyTransport::heal`].
#[derive(Debug)]
pub struct FaultyTransport<T> {
    inner: T,
    plan: FaultPlan,
    rng: StdRng,
    /// Envelope held back by a reorder fault, with the clock value it was
    /// submitted under.
    held: Option<(SimTime, Envelope)>,
    partitioned: BTreeSet<Endpoint>,
    counters: Option<FaultCounters>,
    journal: Option<Journal>,
    /// Deployment-region label of this endpoint (federated runs), appended
    /// to partition journal details so cross-region handoff misses can be
    /// attributed to the right region.
    region_label: Option<String>,
    endpoint: Endpoint,
}

impl<T: Transport> FaultyTransport<T> {
    /// Wraps `inner` (the transport of `endpoint`) under `plan`.
    pub fn new(inner: T, endpoint: Endpoint, plan: FaultPlan) -> Self {
        let rng = StdRng::seed_from_u64(plan.seed ^ endpoint_seed(endpoint));
        Self {
            inner,
            plan,
            rng,
            held: None,
            partitioned: BTreeSet::new(),
            counters: None,
            journal: None,
            region_label: None,
            endpoint,
        }
    }

    /// Wraps `inner` with a no-op plan: an exact passthrough.
    pub fn transparent(inner: T, endpoint: Endpoint) -> Self {
        Self::new(inner, endpoint, FaultPlan::none())
    }

    /// Starts publishing fault counters into `registry`:
    /// `chaos_dropped_total`, `chaos_duplicated_total`,
    /// `chaos_reordered_total`, `chaos_delayed_total`, all labelled with
    /// this transport's `endpoint`.
    pub fn instrument(&mut self, registry: &Registry) {
        let label = self.endpoint.to_string();
        let labels = [("endpoint", label.as_str())];
        self.counters = Some(FaultCounters {
            dropped: registry.counter("chaos_dropped_total", &labels),
            duplicated: registry.counter("chaos_duplicated_total", &labels),
            reordered: registry.counter("chaos_reordered_total", &labels),
            delayed: registry.counter("chaos_delayed_total", &labels),
        });
    }

    /// The wrapped transport.
    pub fn inner(&self) -> &T {
        &self.inner
    }

    /// The wrapped transport, mutably.
    pub fn inner_mut(&mut self) -> &mut T {
        &mut self.inner
    }

    /// Starts recording partition open/heal events into the flight
    /// recorder.
    pub fn set_journal(&mut self, journal: Journal) {
        self.journal = Some(journal);
    }

    /// Labels this endpoint with its deployment region; partition journal
    /// details carry the label so region-wide outages are attributable.
    pub fn set_region(&mut self, label: impl Into<String>) {
        self.region_label = Some(label.into());
    }

    /// Makes `to` unreachable at sim time `now`: subsequent sends toward
    /// it are silently dropped until [`FaultyTransport::heal`]. `now`
    /// stamps the journal event.
    pub fn partition(&mut self, to: Endpoint, now: SimTime) {
        if self.partitioned.insert(to) {
            self.journal_partition(
                JournalKind::PartitionOpen,
                Severity::Warn,
                to,
                "partitioned",
                now,
            );
        }
    }

    /// Removes the partition toward `to` at sim time `now`.
    pub fn heal(&mut self, to: Endpoint, now: SimTime) {
        if self.partitioned.remove(&to) {
            self.journal_partition(
                JournalKind::PartitionHeal,
                Severity::Info,
                to,
                "healed",
                now,
            );
        }
    }

    /// Whether the link toward `to` is currently partitioned.
    pub fn is_partitioned(&self, to: Endpoint) -> bool {
        self.partitioned.contains(&to)
    }

    fn count(&self, select: impl Fn(&FaultCounters) -> &Counter) {
        if let Some(c) = &self.counters {
            select(c).inc();
        }
    }

    /// Journals a partition transition against the *link* subject
    /// (`from->to`), not just the local endpoint: a partition is a
    /// property of one directed link, and downstream attribution
    /// (`explain_track_break`) needs to know which peer became
    /// unreachable. The region label, when set, rides in the detail.
    fn journal_partition(
        &self,
        kind: JournalKind,
        severity: Severity,
        to: Endpoint,
        what: &str,
        now: SimTime,
    ) {
        if let Some(journal) = &self.journal {
            let subject = format!("{}->{}", self.endpoint, to);
            let detail = match &self.region_label {
                Some(region) => format!("link {subject} {what} [{region}]"),
                None => format!("link {subject} {what}"),
            };
            journal.record(kind, severity, now.as_micros(), &subject, &detail);
        }
    }

    /// Releases a held (reordered) envelope into the inner transport.
    fn release_held(&mut self, now: SimTime) -> Result<(), SendError> {
        if let Some((held_at, envelope)) = self.held.take() {
            // Submit under the later of the two clocks: time moved on
            // while the envelope was held.
            self.inner.send(now.max(held_at), envelope)?;
        }
        Ok(())
    }
}

impl<T: Transport> Transport for FaultyTransport<T> {
    fn send(&mut self, now: SimTime, envelope: Envelope) -> Result<(), SendError> {
        // Partition check first: no randomness consumed, so partitioning
        // and healing does not shift the fault stream of other links.
        if self.partitioned.contains(&envelope.to) {
            self.count(|c| &c.dropped);
            return Ok(());
        }
        let policy = self.plan.policy_for(envelope.to);
        if policy.is_noop() {
            return self.inner.send(now, envelope);
        }
        // Fixed draw order regardless of outcome keeps the stream aligned
        // across runs that differ only in which faults fire.
        let r_drop = self.rng.gen::<f64>();
        let r_dup = self.rng.gen::<f64>();
        let r_reorder = self.rng.gen::<f64>();
        let r_delay = self.rng.gen::<f64>();
        if r_drop < policy.drop {
            self.count(|c| &c.dropped);
            // Silent loss: the wire gives no feedback.
            return self.release_held(now);
        }
        let effective_now = if r_delay < policy.delay {
            self.count(|c| &c.delayed);
            now + policy.delay_by
        } else {
            now
        };
        if r_reorder < policy.reorder && self.held.is_none() {
            self.count(|c| &c.reordered);
            self.held = Some((effective_now, envelope));
            return Ok(());
        }
        let duplicate = (r_dup < policy.duplicate).then(|| envelope.clone());
        self.inner.send(effective_now, envelope)?;
        if let Some(dup) = duplicate {
            self.count(|c| &c.duplicated);
            self.inner.send(effective_now, dup)?;
        }
        // A successor passed the held envelope: release it now, after.
        self.release_held(now)
    }

    fn poll(&mut self, now: SimTime) -> Option<Envelope> {
        self.inner.poll(now)
    }

    fn tick(&mut self, now: SimTime) {
        // Bound how long a reordered envelope can be held.
        let _ = self.release_held(now);
        self.inner.tick(now);
    }

    /// Quiet when no reordered envelope is held back and the wrapped
    /// transport is quiet.
    fn is_quiet(&self) -> bool {
        self.held.is_none() && self.inner.is_quiet()
    }

    fn next_due(&self) -> Option<SimTime> {
        self.inner.next_due()
    }

    fn queue_depth(&self) -> usize {
        self.inner.queue_depth() + usize::from(self.held.is_some())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::Message;
    use crate::transport::SimNet;
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

    #[test]
    fn transparent_wrapper_passes_everything_through() {
        let net = SimNet::instant();
        let mut tx = FaultyTransport::transparent(
            net.handle(Endpoint::Camera(CameraId(0))),
            Endpoint::Camera(CameraId(0)),
        );
        let mut rx = net.handle(Endpoint::Camera(CameraId(1)));
        for _ in 0..100 {
            tx.send(SimTime::ZERO, envelope(0, 1)).unwrap();
        }
        let mut got = 0;
        while rx.poll(SimTime::ZERO).is_some() {
            got += 1;
        }
        assert_eq!(got, 100);
    }

    #[test]
    fn drop_rate_is_seeded_and_roughly_proportional() {
        let run = |seed: u64| {
            let net = SimNet::instant();
            let mut tx = FaultyTransport::new(
                net.handle(Endpoint::Camera(CameraId(0))),
                Endpoint::Camera(CameraId(0)),
                FaultPlan::uniform(FaultPolicy::drop_only(0.05), seed),
            );
            let mut rx = net.handle(Endpoint::Camera(CameraId(1)));
            for _ in 0..1000 {
                tx.send(SimTime::ZERO, envelope(0, 1)).unwrap();
            }
            std::iter::from_fn(|| rx.poll(SimTime::ZERO)).count()
        };
        let a = run(7);
        assert_eq!(a, run(7), "same seed, same fault pattern");
        assert!((900..1000).contains(&a), "~5% dropped, got {}", 1000 - a);
    }

    #[test]
    fn duplicates_are_delivered_twice() {
        let net = SimNet::instant();
        let policy = FaultPolicy {
            duplicate: 1.0,
            ..FaultPolicy::none()
        };
        let mut tx = FaultyTransport::new(
            net.handle(Endpoint::Camera(CameraId(0))),
            Endpoint::Camera(CameraId(0)),
            FaultPlan::uniform(policy, 3),
        );
        let mut rx = net.handle(Endpoint::Camera(CameraId(1)));
        tx.send(SimTime::ZERO, envelope(0, 1)).unwrap();
        assert!(rx.poll(SimTime::ZERO).is_some());
        assert!(rx.poll(SimTime::ZERO).is_some());
        assert!(rx.poll(SimTime::ZERO).is_none());
    }

    #[test]
    fn reorder_swaps_with_the_next_send() {
        let net = SimNet::instant();
        let policy = FaultPolicy {
            reorder: 1.0,
            ..FaultPolicy::none()
        };
        let mut tx = FaultyTransport::new(
            net.handle(Endpoint::Camera(CameraId(0))),
            Endpoint::Camera(CameraId(0)),
            FaultPlan::uniform(policy, 3),
        );
        let mut rx = net.handle(Endpoint::Camera(CameraId(9)));
        tx.send(SimTime::ZERO, envelope(0, 9)).unwrap();
        assert_eq!(tx.queue_depth(), 1, "first envelope held");
        tx.send(SimTime::ZERO, envelope(1, 9)).unwrap();
        // Second send overtook the first (only one envelope is held at a
        // time, so the second went straight through and released the hold).
        let order: Vec<Endpoint> = std::iter::from_fn(|| rx.poll(SimTime::ZERO))
            .map(|e| e.from)
            .collect();
        assert_eq!(
            order,
            vec![Endpoint::Camera(CameraId(1)), Endpoint::Camera(CameraId(0))]
        );
    }

    #[test]
    fn tick_releases_a_held_envelope() {
        let net = SimNet::instant();
        let policy = FaultPolicy {
            reorder: 1.0,
            ..FaultPolicy::none()
        };
        let mut tx = FaultyTransport::new(
            net.handle(Endpoint::Camera(CameraId(0))),
            Endpoint::Camera(CameraId(0)),
            FaultPlan::uniform(policy, 3),
        );
        let mut rx = net.handle(Endpoint::Camera(CameraId(9)));
        tx.send(SimTime::ZERO, envelope(0, 9)).unwrap();
        assert!(rx.poll(SimTime::from_secs(1)).is_none(), "still held");
        tx.tick(SimTime::from_millis(100));
        assert!(rx.poll(SimTime::from_secs(1)).is_some());
    }

    #[test]
    fn delay_charges_extra_latency() {
        let net = SimNet::instant();
        let policy = FaultPolicy {
            delay: 1.0,
            delay_by: SimDuration::from_millis(50),
            ..FaultPolicy::none()
        };
        let mut tx = FaultyTransport::new(
            net.handle(Endpoint::Camera(CameraId(0))),
            Endpoint::Camera(CameraId(0)),
            FaultPlan::uniform(policy, 3),
        );
        let mut rx = net.handle(Endpoint::Camera(CameraId(1)));
        tx.send(SimTime::from_millis(10), envelope(0, 1)).unwrap();
        assert!(rx.poll(SimTime::from_millis(59)).is_none());
        assert!(rx.poll(SimTime::from_millis(60)).is_some());
    }

    #[test]
    fn partition_drops_until_healed() {
        let registry = Registry::new();
        let net = SimNet::instant();
        let mut tx = FaultyTransport::transparent(
            net.handle(Endpoint::Camera(CameraId(0))),
            Endpoint::Camera(CameraId(0)),
        );
        tx.instrument(&registry);
        let mut rx = net.handle(Endpoint::Camera(CameraId(1)));
        tx.partition(Endpoint::Camera(CameraId(1)), SimTime::ZERO);
        assert!(tx.is_partitioned(Endpoint::Camera(CameraId(1))));
        tx.send(SimTime::ZERO, envelope(0, 1)).unwrap();
        assert!(rx.poll(SimTime::ZERO).is_none());
        tx.heal(Endpoint::Camera(CameraId(1)), SimTime::ZERO);
        tx.send(SimTime::ZERO, envelope(0, 1)).unwrap();
        assert!(rx.poll(SimTime::ZERO).is_some());
        assert_eq!(
            registry.counter_value("chaos_dropped_total", &[("endpoint", "cam0")]),
            Some(1)
        );
    }

    #[test]
    fn partition_journal_subject_names_the_link_and_region() {
        use coral_obs::Journal;
        let journal = Journal::new();
        let net = SimNet::instant();
        let mut tx = FaultyTransport::transparent(
            net.handle(Endpoint::Camera(CameraId(0))),
            Endpoint::Camera(CameraId(0)),
        );
        tx.set_journal(journal.clone());
        tx.set_region("region1");
        tx.partition(Endpoint::Camera(CameraId(2)), SimTime::from_millis(1_000));
        tx.heal(Endpoint::Camera(CameraId(2)), SimTime::from_millis(2_500));
        let mut events = Vec::new();
        journal.for_each(|e| events.push((e.kind, e.subject.clone(), e.detail.clone())));
        assert_eq!(events.len(), 2);
        let mut stamps = Vec::new();
        journal.for_each(|e| stamps.push(e.sim_us));
        assert_eq!(stamps, vec![1_000_000, 2_500_000]);
        // The subject is the directed link, so `explain_track_break` can
        // attribute the outage from either end (the destination camera
        // appears in the subject/detail, not just the sender).
        assert_eq!(events[0].0, JournalKind::PartitionOpen);
        assert_eq!(events[0].1, "cam0->cam2");
        assert_eq!(events[0].2, "link cam0->cam2 partitioned [region1]");
        assert_eq!(events[1].0, JournalKind::PartitionHeal);
        assert_eq!(events[1].1, "cam0->cam2");
        assert_eq!(events[1].2, "link cam0->cam2 healed [region1]");
    }

    /// A link that has been quiet for a long stretch (no send, no tick —
    /// the runtime skips the ticks of quiet links) still stamps a
    /// partition opened now with the caller's clock, not its last send.
    #[test]
    fn partition_after_a_quiet_stretch_is_stamped_with_the_callers_clock() {
        use coral_obs::Journal;
        let journal = Journal::new();
        let net = SimNet::instant();
        let mut tx = FaultyTransport::transparent(
            net.handle(Endpoint::Camera(CameraId(0))),
            Endpoint::Camera(CameraId(0)),
        );
        tx.set_journal(journal.clone());
        tx.send(SimTime::from_millis(100), envelope(0, 1)).unwrap();
        assert!(tx.is_quiet(), "nothing held: ticks may be skipped");
        tx.partition(Endpoint::Camera(CameraId(1)), SimTime::from_secs(30));
        let mut stamps = Vec::new();
        journal.for_each(|e| stamps.push((e.kind, e.sim_us)));
        assert_eq!(stamps, vec![(JournalKind::PartitionOpen, 30_000_000)]);
    }

    #[test]
    fn held_envelope_keeps_the_link_busy_until_released() {
        let net = SimNet::instant();
        let policy = FaultPolicy {
            reorder: 1.0,
            ..FaultPolicy::none()
        };
        let mut tx = FaultyTransport::new(
            net.handle(Endpoint::Camera(CameraId(0))),
            Endpoint::Camera(CameraId(0)),
            FaultPlan::uniform(policy, 3),
        );
        assert!(tx.is_quiet());
        tx.send(SimTime::ZERO, envelope(0, 9)).unwrap();
        assert!(!tx.is_quiet(), "a held envelope needs the next tick");
        tx.tick(SimTime::from_millis(100));
        assert!(tx.is_quiet());
    }

    #[test]
    fn per_link_override_beats_the_default() {
        let plan = FaultPlan::uniform(FaultPolicy::drop_only(1.0), 1)
            .with_link(Endpoint::TopologyServer, FaultPolicy::none());
        let net = SimNet::instant();
        let mut tx = FaultyTransport::new(
            net.handle(Endpoint::Camera(CameraId(0))),
            Endpoint::Camera(CameraId(0)),
            plan,
        );
        let mut cloud = net.handle(Endpoint::TopologyServer);
        let mut cam = net.handle(Endpoint::Camera(CameraId(1)));
        tx.send(
            SimTime::ZERO,
            Envelope {
                from: Endpoint::Camera(CameraId(0)),
                to: Endpoint::TopologyServer,
                message: heartbeat(0),
            },
        )
        .unwrap();
        tx.send(SimTime::ZERO, envelope(0, 1)).unwrap();
        assert!(cloud.poll(SimTime::ZERO).is_some(), "clean override link");
        assert!(cam.poll(SimTime::ZERO).is_none(), "default link drops");
    }
}
