//! Observability glue: the workspace metrics registry and per-vehicle
//! causal traces, adapted to the domain ids of the runtime.
//!
//! [`CoreObs`] is the deployment-wide bundle every driver shares and the
//! only observer the runtime calls. It plays two roles:
//!
//! 1. **Metrics** — counters for protocol activity (passages, events,
//!    informs, confirms, recoveries) that land in the shared
//!    [`Registry`] next to the transport/pipeline/storage metrics.
//! 2. **Causal traces** — when tracing is enabled, each ground-truth
//!    vehicle gets one Chrome-trace thread per camera it crosses, and the
//!    runtime emits the stage events that follow it through the system:
//!    [`Stage::Detect`] (FOV entry) → [`Stage::Track`] (the track's
//!    lifetime) → [`Stage::FeatureExtract`] / [`Stage::Store`] (event
//!    completion) → [`Stage::InformSend`] → [`Stage::TransportHop`] →
//!    [`Stage::Reid`] at the downstream camera.
//!
//! The evaluation evidence (passages, detections, events, inform
//! arrivals, recoveries) is a separate record, [`Telemetry`](crate::Telemetry),
//! which the runtime appends to directly; the counters here count the same
//! occurrences.

use crate::node::ReidRecord;
use crate::stepper::StepStats;
use crate::telemetry::{Passage, Recovery};
use coral_net::{DetectionEvent, EventId, Message};
use coral_obs::health::{HealthEngine, HealthReport, Rule, RuleInput, Thresholds};
use coral_obs::{
    ArgValue, Counter, Gauge, Histogram, Journal, JournalKind, Observability, Registry, Severity,
    Tracer,
};
use coral_sim::SimTime;
use coral_topology::CameraId;
use coral_vision::GroundTruthId;
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// The paper's §3.2 handoff deadline: an inform must beat the vehicle to
/// the downstream camera with this much margin, so deliveries later than
/// this are journaled as SLO misses (the same bound the evaluation
/// layer's attribution uses).
pub const HANDOFF_DEADLINE_MS: u64 = 5_000;

/// The Chrome-trace process id of the topology server's row.
pub const SERVER_PID: u64 = 0;

/// The Chrome-trace process id of a camera's row.
pub fn camera_pid(camera: CameraId) -> u64 {
    u64::from(camera.0) + 1
}

/// The Chrome-trace thread id of a vehicle. Thread 0 is reserved for
/// non-vehicle runtime events (unattributable activity, recoveries).
pub fn vehicle_tid(vehicle: Option<GroundTruthId>) -> u64 {
    vehicle.map_or(0, |g| g.0 + 1)
}

/// The journal/health subject name of a camera (`cam3`). Journal events,
/// heartbeat gauges and health findings all use this spelling so one
/// subject string joins all three planes.
pub fn subject_for(camera: CameraId) -> String {
    format!("cam{}", camera.0)
}

/// The journal/health subject name of a federated region (`region1`).
/// Partition journal entries, the region-contact gauge and health
/// findings all use this spelling, matching the `Display` form of
/// `Endpoint::RegionServer`.
pub fn region_subject(region: u16) -> String {
    format!("region{region}")
}

/// The default SLO rule set, parameterized by the deployment's protocol
/// constants. `sparse` gates the active-fraction rule: in dense stepping
/// every camera steps every tick by design, so a 100% active fraction is
/// correct behavior there, not an anomaly.
pub fn default_health_rules(
    heartbeat_interval_ms: u64,
    miss_threshold: u64,
    handoff_deadline_ms: u64,
    sparse: bool,
) -> Vec<Rule> {
    let hb = heartbeat_interval_ms.max(1) as f64;
    let liveness_deadline = hb * miss_threshold.max(1) as f64;
    let mut rules = vec![
        // A camera one-and-a-half intervals silent is degraded; past the
        // server's liveness deadline it is critical (the server is about
        // to evict it).
        Rule::new(
            "heartbeat-staleness",
            "node_last_heartbeat_ms",
            Some("camera"),
            RuleInput::GaugeStalenessMs,
            Thresholds::new(hb * 1.5, liveness_deadline),
        ),
        // Sustained retransmissions mean a lossy or partitioned link.
        Rule::new(
            "retransmit-rate",
            "reliable_retries_total",
            Some("endpoint"),
            RuleInput::RatePerSec,
            Thresholds::new(0.5, 20.0),
        ),
        // A growing unacked queue means the peer has stopped acking; the
        // policy cap (default 1024) is where sends start failing.
        Rule::new(
            "retransmit-queue",
            "reliable_pending_frames",
            Some("endpoint"),
            RuleInput::GaugeValue,
            Thresholds::new(64.0, 512.0),
        ),
        // Informs must beat vehicles to the next camera: p99 at half the
        // handoff deadline is a warning, at the deadline the handoff
        // protocol is effectively broken.
        Rule::new(
            "inform-latency-p99",
            "runtime_inform_latency_us",
            None,
            RuleInput::QuantileUs(0.99),
            Thresholds::new(
                handoff_deadline_ms as f64 * 1_000.0 / 2.0,
                handoff_deadline_ms as f64 * 1_000.0,
            ),
        ),
        // One worker doing several times the mean load means the static
        // partition has degenerated.
        Rule::new(
            "worker-imbalance",
            "core_worker_busy_us",
            None,
            RuleInput::Imbalance,
            Thresholds::new(3.0, 8.0),
        ),
    ];
    if sparse {
        rules.push(Rule::new(
            "sparse-active-fraction",
            "core_cameras_stepped_total",
            None,
            RuleInput::Fraction {
                complement: "core_cameras_skipped_total".to_string(),
            },
            Thresholds::new(0.90, 0.99),
        ));
    }
    rules
}

/// Federation SLO rules, installed alongside [`default_health_rules`]
/// when a deployment has more than one region. A region whose server has
/// not *directly* received a heartbeat for 1.5 intervals is degraded;
/// past the liveness deadline the region is effectively partitioned (all
/// surviving servers are evicting its cameras) and the finding is
/// critical. The gauge is refreshed only on direct receipt — never on the
/// in-process replica relay — so a partitioned region goes stale even
/// though its peers keep processing every heartbeat.
pub fn region_health_rules(heartbeat_interval_ms: u64, miss_threshold: u64) -> Vec<Rule> {
    let hb = heartbeat_interval_ms.max(1) as f64;
    vec![Rule::new(
        "region-contact-staleness",
        "region_last_contact_ms",
        Some("region"),
        RuleInput::GaugeStalenessMs,
        Thresholds::new(hb * 1.5, hb * miss_threshold.max(1) as f64),
    )]
}

/// Per-tick camera activity under sparse stepping: how many cameras ran
/// the full analysis path, how many took the occupancy early-out, and how
/// many the ordered commit phase walked. Dense stepping reports every
/// alive camera as `stepped` and `committed`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TickActivity {
    /// Cameras that ran the full analyze path this tick.
    pub stepped: usize,
    /// Cameras that took the idle early-out this tick.
    pub skipped: usize,
    /// Cameras the commit phase walked this tick: the stepped ones plus
    /// idle ones with a ground-truth exit edge or a busy link. An idle
    /// camera outside that set is neither committed nor observed.
    pub committed: usize,
}

/// A stage of the per-vehicle causal trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stage {
    /// Ground-truth FOV entry at a camera.
    Detect,
    /// The tracked passage through one camera's FOV (a complete span).
    Track,
    /// Appearance-signature extraction at track completion.
    FeatureExtract,
    /// The inform message leaving the upstream camera.
    InformSend,
    /// One inform's flight between two cameras (a complete span).
    TransportHop,
    /// Re-identification at the downstream camera.
    Reid,
    /// The detection's vertex landing in the trajectory store.
    Store,
}

impl Stage {
    /// The event name used in exported traces.
    pub fn name(self) -> &'static str {
        match self {
            Stage::Detect => "Detect",
            Stage::Track => "Track",
            Stage::FeatureExtract => "FeatureExtract",
            Stage::InformSend => "InformSend",
            Stage::TransportHop => "TransportHop",
            Stage::Reid => "Reid",
            Stage::Store => "Store",
        }
    }
}

/// Trace category of vehicle-stage events.
const CAT_VEHICLE: &str = "vehicle";
/// Trace category of runtime (non-vehicle) events.
const CAT_RUNTIME: &str = "runtime";

#[derive(Debug, Default)]
struct CoreObsInner {
    /// Which ground-truth vehicle each detection event belongs to — lets
    /// re-identifications and confirms join the vehicle's trace. Written
    /// only while tracing is on.
    event_vehicle: HashMap<EventId, GroundTruthId>,
    /// Send time of each in-flight inform, keyed by `(event, recipient)`
    /// (the inform-latency histogram).
    inform_sent: HashMap<(EventId, CameraId), SimTime>,
    /// Latest FOV-entry time per `(camera, vehicle)` — the start of the
    /// Track span. Written only while tracing is on.
    passage_entry: HashMap<(CameraId, GroundTruthId), SimTime>,
}

/// Deployment-wide observability: the shared [`Observability`] bundle plus
/// the domain maps that attribute runtime activity to vehicles. Cloning
/// shares all state.
#[derive(Debug, Clone)]
pub struct CoreObs {
    obs: Observability,
    inner: Arc<Mutex<CoreObsInner>>,
    health: Arc<std::sync::Mutex<HealthEngine>>,
    inform_latency: Histogram,
    handoff_deadline_us: Arc<AtomicU64>,
    /// Previous tick's sparse active fraction in permille (for the
    /// spike-edge detector feeding [`JournalKind::SparseAnomaly`]).
    last_active_permille: Arc<AtomicU64>,
    passages: Counter,
    events: Counter,
    reids: Counter,
    recoveries: Counter,
    heartbeats: Counter,
    sent_informs: Counter,
    sent_confirms: Counter,
    /// `runtime_messages_delivered_total`, indexed like [`DELIVERED_KINDS`].
    delivered: [Counter; 3],
    /// `runtime_delivered_bytes_total`, indexed like [`DELIVERED_KINDS`].
    delivered_bytes: [Counter; 3],
    cloud_bytes: Counter,
    ticks: Counter,
    tick_us: Histogram,
    health_eval_us: Histogram,
    step_busy_us: Counter,
    step_critical_us: Counter,
    step_commit_us: Counter,
    cameras_stepped: Counter,
    cameras_skipped: Counter,
    cameras_committed: Counter,
}

/// Metric label values for stepper worker indices (label slices borrow
/// `&'static str`, so the indices are pre-rendered). Workers beyond the
/// table share the last bucket.
const WORKER_LABELS: [&str; 16] = [
    "0", "1", "2", "3", "4", "5", "6", "7", "8", "9", "10", "11", "12", "13", "14", "15",
];

/// The `kind` label values of the per-kind delivery counters: the message
/// kinds that reach a camera.
const DELIVERED_KINDS: [&str; 3] = ["inform", "confirm", "topology_update"];

impl Default for CoreObs {
    fn default() -> Self {
        Self::new()
    }
}

impl CoreObs {
    /// Creates a fresh bundle (tracing disabled).
    pub fn new() -> Self {
        let obs = Observability::new();
        let r = &obs.registry;
        r.describe(
            "runtime_inform_latency_us",
            "Inform send-to-delivery latency (sim time)",
        );
        r.describe(
            "node_last_heartbeat_ms",
            "Per-camera sim-clock timestamp of the last heartbeat sent",
        );
        r.describe(
            "runtime_delivered_bytes_total",
            "JSON bytes of the messages delivered to cameras, by kind",
        );
        r.describe(
            "core_health_eval_us",
            "Wall time of one health evaluation in the simulation loop",
        );
        Self {
            health: Arc::new(std::sync::Mutex::new(HealthEngine::new(Vec::new()))),
            inform_latency: r.histogram("runtime_inform_latency_us", &[]),
            handoff_deadline_us: Arc::new(AtomicU64::new(HANDOFF_DEADLINE_MS * 1_000)),
            last_active_permille: Arc::new(AtomicU64::new(0)),
            passages: r.counter("runtime_passages_total", &[]),
            events: r.counter("runtime_events_total", &[]),
            reids: r.counter("runtime_reids_total", &[]),
            recoveries: r.counter("runtime_recoveries_total", &[]),
            heartbeats: r.counter("runtime_heartbeats_total", &[]),
            sent_informs: r.counter("runtime_messages_sent_total", &[("kind", "inform")]),
            sent_confirms: r.counter("runtime_messages_sent_total", &[("kind", "confirm")]),
            delivered: DELIVERED_KINDS
                .map(|kind| r.counter("runtime_messages_delivered_total", &[("kind", kind)])),
            delivered_bytes: DELIVERED_KINDS
                .map(|kind| r.counter("runtime_delivered_bytes_total", &[("kind", kind)])),
            cloud_bytes: r.counter("runtime_cloud_bytes_total", &[]),
            ticks: r.counter("core_tick_total", &[]),
            tick_us: r.histogram("core_tick_us", &[]),
            health_eval_us: r.histogram("core_health_eval_us", &[]),
            step_busy_us: r.counter("core_step_busy_us_total", &[]),
            step_critical_us: r.counter("core_step_critical_us_total", &[]),
            step_commit_us: r.counter("core_step_commit_us_total", &[]),
            cameras_stepped: r.counter("core_cameras_stepped_total", &[]),
            cameras_skipped: r.counter("core_cameras_skipped_total", &[]),
            cameras_committed: r.counter("core_cameras_committed_total", &[]),
            inner: Arc::new(Mutex::new(CoreObsInner::default())),
            obs,
        }
    }

    /// Records one frame tick: total tick latency, the sequential commit
    /// phase, and the stepper's per-worker utilization. The busy/critical
    /// counters accumulate microseconds so `Σ busy / critical` recovers
    /// the run's schedule speedup even on machines with fewer cores than
    /// workers (see `exp_speedup`).
    pub fn note_tick(
        &self,
        wall: std::time::Duration,
        commit: std::time::Duration,
        step: &StepStats,
        activity: TickActivity,
    ) {
        self.ticks.inc();
        self.tick_us.observe(wall);
        self.cameras_stepped.add(activity.stepped as u64);
        self.cameras_skipped.add(activity.skipped as u64);
        self.cameras_committed.add(activity.committed as u64);
        self.step_busy_us.add(step.busy_total().as_micros() as u64);
        self.step_critical_us
            .add(step.critical_path().as_micros() as u64);
        self.step_commit_us.add(commit.as_micros() as u64);
        for (i, &busy) in step.worker_busy.iter().enumerate() {
            let label = WORKER_LABELS[i.min(WORKER_LABELS.len() - 1)];
            self.registry()
                .histogram("core_worker_busy_us", &[("worker", label)])
                .observe(busy);
        }
    }

    /// The shared metrics registry.
    pub fn registry(&self) -> &Registry {
        &self.obs.registry
    }

    /// The shared flight-recorder journal.
    pub fn journal(&self) -> &Journal {
        &self.obs.journal
    }

    /// The shared health engine (for the ops endpoint or direct queries).
    pub fn health(&self) -> Arc<std::sync::Mutex<HealthEngine>> {
        self.health.clone()
    }

    /// Replaces the health rule set (see [`default_health_rules`]).
    pub fn install_health_rules(&self, rules: Vec<Rule>) {
        *self.health.lock().expect("health engine poisoned") = HealthEngine::new(rules);
    }

    /// Evaluates the health rules against the registry at `now_ms`,
    /// journaling verdict transitions, and observes the evaluation's wall
    /// time in `core_health_eval_us` (the sweep runs outside the tick that
    /// `core_tick_us` times). Purely observational: reads atomics, never
    /// touches simulation state. The report stays in the engine;
    /// [`CoreObs::latest_health`] hands out a copy.
    pub fn health_tick(&self, now_ms: u64) {
        let start = std::time::Instant::now();
        self.health
            .lock()
            .expect("health engine poisoned")
            .evaluate(self.registry(), Some(self.journal()), now_ms);
        self.health_eval_us.observe(start.elapsed());
    }

    /// The most recent health report, if any evaluation has run.
    pub fn latest_health(&self) -> Option<HealthReport> {
        self.health
            .lock()
            .expect("health engine poisoned")
            .latest()
            .cloned()
    }

    /// Overrides the handoff deadline used for SLO-miss journaling
    /// (milliseconds; 0 disables the check).
    pub fn set_handoff_deadline_ms(&self, ms: u64) {
        self.handoff_deadline_us
            .store(ms.saturating_mul(1_000), Ordering::Relaxed);
    }

    /// The staleness gauge of `camera` that the `heartbeat-staleness`
    /// health rule watches (created on first use).
    fn heartbeat_gauge(&self, camera: CameraId) -> Gauge {
        self.registry().gauge(
            "node_last_heartbeat_ms",
            &[("camera", &subject_for(camera))],
        )
    }

    /// A region server *directly* received an envelope at sim time `now`:
    /// refresh the contact gauge the `region-contact-staleness` rule
    /// watches. Deliberately not called on the replica relay path, so the
    /// gauge measures the region's own reachability.
    pub fn note_region_contact(&self, region: u16, now: SimTime) {
        self.registry()
            .gauge(
                "region_last_contact_ms",
                &[("region", &region_subject(region))],
            )
            .set(now.as_millis() as i64);
    }

    /// Edge-detects sparse active-fraction spikes: a tick where most
    /// cameras wake at once right after a mostly-idle tick is journaled
    /// (it usually means the occupancy index degenerated, e.g. a
    /// platoon-arrival storm or an over-wide slack radius).
    pub fn note_sparse_activity(&self, activity: TickActivity, now: SimTime) {
        let total = activity.stepped + activity.skipped;
        if total == 0 {
            return;
        }
        let permille = (activity.stepped * 1_000 / total) as u64;
        let prev = self.last_active_permille.swap(permille, Ordering::Relaxed);
        if total >= 8 && permille >= 900 && prev < 500 {
            self.journal().record(
                JournalKind::SparseAnomaly,
                Severity::Warn,
                now.as_micros(),
                "stepper",
                &format!(
                    "active fraction spiked {}% -> {}% ({} of {} cameras stepped)",
                    prev / 10,
                    permille / 10,
                    activity.stepped,
                    total
                ),
            );
        }
    }

    /// Messages of `kind` (`inform`, `confirm` or `topology_update`)
    /// delivered to cameras so far: the
    /// `runtime_messages_delivered_total{kind}` series.
    pub fn delivered(&self, kind: &str) -> u64 {
        self.registry()
            .counter_value("runtime_messages_delivered_total", &[("kind", kind)])
            .unwrap_or(0)
    }

    /// JSON bytes of the messages of `kind` delivered to cameras so far:
    /// the `runtime_delivered_bytes_total{kind}` series. Horizontal
    /// (camera-to-camera) traffic is the `inform` plus `confirm` bytes;
    /// cloud traffic is `runtime_cloud_bytes_total` (heartbeats) plus the
    /// `topology_update` bytes.
    pub fn delivered_bytes(&self, kind: &str) -> u64 {
        self.registry()
            .counter_value("runtime_delivered_bytes_total", &[("kind", kind)])
            .unwrap_or(0)
    }

    /// The shared trace recorder.
    pub fn tracer(&self) -> &Tracer {
        &self.obs.tracer
    }

    /// The generic observability bundle.
    pub fn observability(&self) -> &Observability {
        &self.obs
    }

    /// A ground-truth vehicle entered `passage.camera`'s field of view.
    /// Counts it and, while tracing, opens the vehicle's trace row with the
    /// Detect stage.
    pub fn observe_passage(&self, passage: &Passage) {
        self.passages.inc();
        let tracer = self.tracer();
        if !tracer.is_enabled() {
            return;
        }
        let entered = SimTime::from_millis(passage.entered_ms);
        self.inner
            .lock()
            .passage_entry
            .insert((passage.camera, passage.vehicle), entered);
        let pid = camera_pid(passage.camera);
        let tid = vehicle_tid(Some(passage.vehicle));
        tracer.thread_name(pid, tid, &format!("vehicle-{}", passage.vehicle.0));
        tracer.instant(
            Stage::Detect.name(),
            CAT_VEHICLE,
            pid,
            tid,
            entered.as_micros(),
            &[],
        );
    }

    /// A detection event was generated at `camera`. Counts it and, while
    /// tracing, registers the event's vehicle attribution and emits the
    /// Track / FeatureExtract / Store stages of the causal trace.
    pub fn observe_event(&self, camera: CameraId, event: &DetectionEvent, now: SimTime) {
        self.events.inc();
        let tracer = self.tracer();
        if !tracer.is_enabled() {
            return;
        }
        let entered = {
            let mut inner = self.inner.lock();
            if let Some(gt) = event.ground_truth {
                inner.event_vehicle.insert(event.event_id(), gt);
            }
            event
                .ground_truth
                .and_then(|gt| inner.passage_entry.get(&(camera, gt)).copied())
        };
        let pid = camera_pid(camera);
        let tid = vehicle_tid(event.ground_truth);
        let ts = now.as_micros();
        if let Some(entered) = entered.filter(|&e| e <= now) {
            tracer.complete(
                Stage::Track.name(),
                CAT_VEHICLE,
                pid,
                tid,
                entered.as_micros(),
                now.since(entered).as_micros(),
                &[("track", ArgValue::U64(event.track.0))],
            );
        }
        tracer.instant(
            Stage::FeatureExtract.name(),
            CAT_VEHICLE,
            pid,
            tid,
            ts,
            &[("track", ArgValue::U64(event.track.0))],
        );
        tracer.instant(
            Stage::Store.name(),
            CAT_VEHICLE,
            pid,
            tid,
            ts,
            &[("vertex", ArgValue::U64(event.vertex.map_or(0, |v| v.0)))],
        );
    }

    /// A re-identification happened at `camera`.
    pub fn observe_reid(&self, camera: CameraId, record: &ReidRecord, now: SimTime) {
        self.reids.inc();
        let tracer = self.tracer();
        if !tracer.is_enabled() {
            return;
        }
        let inner = self.inner.lock();
        let vehicle = inner
            .event_vehicle
            .get(&record.local)
            .or_else(|| inner.event_vehicle.get(&record.upstream))
            .copied();
        drop(inner);
        tracer.instant(
            Stage::Reid.name(),
            CAT_VEHICLE,
            camera_pid(camera),
            vehicle_tid(vehicle),
            now.as_micros(),
            &[
                (
                    "upstream_camera",
                    ArgValue::U64(u64::from(record.upstream.camera.0)),
                ),
                ("distance", ArgValue::F64(record.distance)),
            ],
        );
    }

    /// A protocol message left `from` for camera `to` (driver send path).
    pub fn observe_send(&self, from: CameraId, to: CameraId, message: &Message, now: SimTime) {
        match message {
            Message::Inform(event) => {
                self.sent_informs.inc();
                let tracer = self.tracer();
                let mut inner = self.inner.lock();
                inner.inform_sent.insert((event.event_id(), to), now);
                if tracer.is_enabled() {
                    if let Some(gt) = event.ground_truth {
                        inner.event_vehicle.insert(event.event_id(), gt);
                    }
                    drop(inner);
                    tracer.instant(
                        Stage::InformSend.name(),
                        CAT_VEHICLE,
                        camera_pid(from),
                        vehicle_tid(event.ground_truth),
                        now.as_micros(),
                        &[("to", ArgValue::U64(u64::from(to.0)))],
                    );
                }
            }
            Message::Confirm { event, .. } => {
                self.sent_confirms.inc();
                let tracer = self.tracer();
                if tracer.is_enabled() {
                    let vehicle = self.inner.lock().event_vehicle.get(event).copied();
                    tracer.instant(
                        "ConfirmSend",
                        CAT_VEHICLE,
                        camera_pid(from),
                        vehicle_tid(vehicle),
                        now.as_micros(),
                        &[("to", ArgValue::U64(u64::from(to.0)))],
                    );
                }
            }
            _ => {}
        }
    }

    /// A protocol message was delivered to camera `to`: counts it and its
    /// JSON bytes by kind and, for an inform, observes its latency against
    /// the handoff deadline (journaling a miss) and its transport-hop span.
    pub fn observe_delivery(&self, at: SimTime, to: CameraId, message: &Message) {
        let kind = match message {
            Message::Inform(_) => 0,
            Message::Confirm { .. } => 1,
            Message::TopologyUpdate(_) => 2,
            // Heartbeats travel camera to server and replication is
            // storage-plane traffic; neither reaches a camera. Reliable-
            // delivery framing is transport-internal and stripped before
            // delivery.
            Message::Heartbeat { .. }
            | Message::Replicate { .. }
            | Message::Sequenced { .. }
            | Message::Ack { .. } => return,
        };
        self.delivered[kind].inc();
        self.delivered_bytes[kind].add(message.encoded_len() as u64);
        let Message::Inform(event) = message else {
            return;
        };
        let sent = self
            .inner
            .lock()
            .inform_sent
            .remove(&(event.event_id(), to))
            .filter(|&s| s <= at);
        let Some(sent) = sent else {
            return;
        };
        let latency_us = at.since(sent).as_micros();
        self.inform_latency.observe_us(latency_us);
        let deadline_us = self.handoff_deadline_us.load(Ordering::Relaxed);
        if deadline_us > 0 && latency_us > deadline_us {
            self.journal().record(
                JournalKind::HandoffDeadlineMiss,
                Severity::Error,
                at.as_micros(),
                &subject_for(to),
                &format!(
                    "inform from {} took {} ms (deadline {} ms)",
                    subject_for(event.camera),
                    latency_us / 1_000,
                    deadline_us / 1_000
                ),
            );
        }
        let tracer = self.tracer();
        if tracer.is_enabled() {
            tracer.complete(
                Stage::TransportHop.name(),
                CAT_VEHICLE,
                camera_pid(to),
                vehicle_tid(event.ground_truth),
                sent.as_micros(),
                latency_us,
                &[("from", ArgValue::U64(u64::from(event.camera.0)))],
            );
        }
    }

    /// The inform of `event` to camera `to` will never be delivered: it was
    /// consumed undelivered on a link that carries exactly one copy of each
    /// message, or the sender's reliability layer abandoned it. Forgets its
    /// send time, which no delivery will ever claim.
    pub fn forget_inform(&self, event: EventId, to: CameraId) {
        self.inner.lock().inform_sent.remove(&(event, to));
    }

    /// Informs sent and not yet delivered (or forgotten): the size of the
    /// send-time join behind `runtime_inform_latency_us`.
    pub fn informs_in_flight(&self) -> usize {
        self.inner.lock().inform_sent.len()
    }

    /// A heartbeat of `bytes` JSON bytes left a camera for the cloud.
    pub fn observe_heartbeat(&self, bytes: u64) {
        self.heartbeats.inc();
        self.cloud_bytes.add(bytes);
    }

    /// A failure recovery completed.
    pub fn observe_recovery(&self, recovery: &Recovery) {
        self.recoveries.inc();
        let tracer = self.tracer();
        if tracer.is_enabled() {
            tracer.instant(
                "Recovery",
                CAT_RUNTIME,
                SERVER_PID,
                0,
                recovery.recovered_at.as_micros(),
                &[
                    ("killed", ArgValue::U64(u64::from(recovery.killed.0))),
                    (
                        "duration_ms",
                        ArgValue::U64(recovery.duration().as_millis()),
                    ),
                ],
            );
        }
    }
}

/// Instrumentation handles for one [`NodeDriver`](crate::NodeDriver):
/// frame/message handling histograms plus the shared [`CoreObs`] for the
/// send-path trace events.
#[derive(Debug, Clone)]
pub struct NodeObs {
    core: CoreObs,
    camera: CameraId,
    frame_us: Histogram,
    message_us: Histogram,
    /// The camera's heartbeat-staleness gauge, resolved on its first
    /// heartbeat: a camera that never beats exports no series, exactly as
    /// when every beat looked the gauge up by name.
    heartbeat: Option<Gauge>,
}

impl NodeObs {
    /// Creates the handles for `camera`.
    pub fn new(core: &CoreObs, camera: CameraId) -> Self {
        Self {
            core: core.clone(),
            camera,
            frame_us: core.registry().histogram("node_frame_handle_us", &[]),
            message_us: core.registry().histogram("node_message_handle_us", &[]),
            heartbeat: None,
        }
    }

    /// The shared deployment observability.
    pub fn core(&self) -> &CoreObs {
        &self.core
    }

    /// A heartbeat left this camera at sim time `now`: refresh the
    /// staleness gauge the `heartbeat-staleness` health rule watches.
    pub fn note_heartbeat_sent(&mut self, now: SimTime) {
        self.heartbeat
            .get_or_insert_with(|| self.core.heartbeat_gauge(self.camera))
            .set(now.as_millis() as i64);
    }

    /// Records the wall-clock cost of one frame capture (the runtime
    /// commits, and so observes, only the frames of cameras with work; see
    /// [`TickActivity::committed`]).
    pub fn note_frame(&self, elapsed: std::time::Duration) {
        self.frame_us.observe(elapsed);
    }

    /// Records the wall-clock cost of handling one delivered message.
    pub fn note_message(&self, elapsed: std::time::Duration) {
        self.message_us.observe(elapsed);
    }

    /// Observes one outgoing message on the driver's send path.
    pub fn observe_send(&self, to: CameraId, message: &Message, now: SimTime) {
        self.core.observe_send(self.camera, to, message, now);
    }
}

/// Instrumentation handles for the
/// [`ServerDriver`](crate::ServerDriver): MDCS recomputation timings and
/// the update-fanout counter.
#[derive(Debug, Clone)]
pub struct ServerObs {
    heartbeat_us: Histogram,
    liveness_us: Histogram,
    updates_sent: Counter,
}

impl ServerObs {
    /// Creates the handles.
    pub fn new(core: &CoreObs) -> Self {
        let r = core.registry();
        Self {
            heartbeat_us: r.histogram("server_mdcs_recompute_us", &[("op", "heartbeat")]),
            liveness_us: r.histogram("server_mdcs_recompute_us", &[("op", "liveness")]),
            updates_sent: r.counter("server_updates_sent_total", &[]),
        }
    }

    /// Records the wall-clock cost of one heartbeat-driven recompute.
    pub fn note_heartbeat(&self, elapsed: std::time::Duration) {
        self.heartbeat_us.observe(elapsed);
    }

    /// Records the wall-clock cost of one liveness sweep.
    pub fn note_liveness(&self, elapsed: std::time::Duration) {
        self.liveness_us.observe(elapsed);
    }

    /// Counts topology updates fanned out to cameras.
    pub fn note_updates_sent(&self, n: usize) {
        self.updates_sent.add(n as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use coral_vision::{ColorHistogram, TrackId};

    fn event(cam: u32, track: u64, gt: Option<u64>) -> DetectionEvent {
        DetectionEvent {
            camera: CameraId(cam),
            timestamp_ms: 1_000,
            heading: None,
            bearing_deg: None,
            signature: ColorHistogram::uniform(8),
            track: TrackId(track),
            vertex: None,
            ground_truth: gt.map(GroundTruthId),
        }
    }

    #[test]
    fn pid_tid_mapping() {
        assert_eq!(camera_pid(CameraId(0)), 1);
        assert_eq!(SERVER_PID, 0);
        assert_eq!(vehicle_tid(None), 0);
        assert_eq!(vehicle_tid(Some(GroundTruthId(0))), 1);
    }

    #[test]
    fn counters_track_the_event_stream() {
        let obs = CoreObs::new();
        obs.observe_passage(&Passage {
            camera: CameraId(0),
            vehicle: GroundTruthId(7),
            entered_ms: 100,
        });
        obs.observe_event(
            CameraId(0),
            &event(0, 1, Some(7)),
            SimTime::from_millis(900),
        );
        obs.observe_heartbeat(64);
        let inform = Message::Inform(event(0, 1, Some(7)));
        obs.observe_delivery(SimTime::from_millis(950), CameraId(1), &inform);
        let r = obs.registry();
        assert_eq!(r.counter_value("runtime_passages_total", &[]), Some(1));
        assert_eq!(r.counter_value("runtime_events_total", &[]), Some(1));
        assert_eq!(r.counter_value("runtime_heartbeats_total", &[]), Some(1));
        assert_eq!(r.counter_value("runtime_cloud_bytes_total", &[]), Some(64));
        assert_eq!(obs.delivered("inform"), 1);
        assert_eq!(obs.delivered_bytes("inform"), inform.encoded_len() as u64);
        assert_eq!(obs.delivered("confirm"), 0);
    }

    #[test]
    fn untraced_runs_keep_no_trace_attribution() {
        let obs = CoreObs::new();
        let now = SimTime::from_millis(1_000);
        obs.observe_passage(&Passage {
            camera: CameraId(0),
            vehicle: GroundTruthId(4),
            entered_ms: 100,
        });
        let e0 = event(0, 1, Some(4));
        obs.observe_event(CameraId(0), &e0, now);
        obs.observe_send(CameraId(0), CameraId(1), &Message::Inform(e0.clone()), now);
        let inner = obs.inner.lock();
        assert!(inner.event_vehicle.is_empty());
        assert!(inner.passage_entry.is_empty());
        // The inform-latency join is kept whether or not tracing is on.
        assert_eq!(inner.inform_sent.len(), 1);
    }

    #[test]
    fn causal_stages_share_the_vehicle_thread() {
        let obs = CoreObs::new();
        obs.observability().set_tracing(true);
        let now = SimTime::from_millis(1_000);
        obs.observe_passage(&Passage {
            camera: CameraId(0),
            vehicle: GroundTruthId(4),
            entered_ms: 100,
        });
        let e0 = event(0, 1, Some(4));
        obs.observe_event(CameraId(0), &e0, now);
        obs.observe_send(CameraId(0), CameraId(1), &Message::Inform(e0.clone()), now);
        obs.observe_delivery(
            SimTime::from_millis(1_010),
            CameraId(1),
            &Message::Inform(e0.clone()),
        );
        let e1 = event(1, 9, Some(4));
        obs.observe_event(CameraId(1), &e1, SimTime::from_millis(9_000));
        obs.observe_reid(
            CameraId(1),
            &ReidRecord {
                upstream: e0.event_id(),
                local: e1.event_id(),
                distance: 0.12,
            },
            SimTime::from_millis(9_000),
        );

        let json = obs.tracer().export_chrome();
        let doc = coral_obs::json::parse(&json).unwrap();
        let events = doc.as_array().unwrap();
        let tid_of = |name: &str| {
            events
                .iter()
                .find(|e| e.get("name").and_then(|n| n.as_str()) == Some(name))
                .map(|e| e.get("tid").unwrap().as_u64().unwrap())
        };
        // Every stage of vehicle 4 rides thread 5 (gt + 1).
        for stage in ["Detect", "Track", "InformSend", "TransportHop", "Reid"] {
            assert_eq!(tid_of(stage), Some(5), "stage {stage}");
        }
        // The transport hop is a complete span with the sim-time flight.
        let hop = events
            .iter()
            .find(|e| e.get("name").and_then(|n| n.as_str()) == Some("TransportHop"))
            .unwrap();
        assert_eq!(hop.get("ph").unwrap().as_str(), Some("X"));
        assert_eq!(hop.get("dur").unwrap().as_u64(), Some(10_000));
        assert_eq!(
            obs.registry()
                .counter_value("runtime_messages_delivered_total", &[("kind", "inform")]),
            Some(1)
        );
    }
}
