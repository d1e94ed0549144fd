//! The flight recorder: a bounded ring-buffer journal of structured
//! operational events.
//!
//! Where the [`crate::Registry`] answers *how much* and the
//! [`crate::Tracer`] answers *in what order per vehicle*, the journal
//! answers *what happened to the system*: node kills and restores,
//! retransmission/backoff escalation, partitions opening and healing,
//! handoff-deadline misses, sparse-stepping anomalies, and health-verdict
//! transitions. Each event carries a monotonically increasing sequence
//! number and **both clocks** — simulation microseconds and host
//! wall-clock microseconds since the journal was created.
//!
//! The ring is bounded: when it wraps, the oldest events are evicted and
//! counted in [`Journal::dropped_total`] (optionally mirrored into a
//! registry counter). Recording takes one short mutex hold with no
//! allocation inside the lock, cheap enough for fault-path call sites.
//!
//! [`Journal::export_jsonl`] is byte-deterministic for a deterministic
//! simulation: it serializes everything *except* the wall-clock stamp,
//! so same-seed runs export identical bytes. Use
//! [`Journal::export_jsonl_full`] when the wall clock matters (live ops).

use crate::json::quote;
use crate::registry::Counter;
use std::collections::VecDeque;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Default ring capacity, in events.
pub const DEFAULT_JOURNAL_CAPACITY: usize = 65_536;

/// What class of operational event happened.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum JournalKind {
    /// A node was killed (scheduled failure or crash).
    NodeKill,
    /// A previously killed node came back.
    NodeRestore,
    /// A frame was retransmitted after an ack deadline lapsed.
    Retransmit,
    /// Retransmission backoff escalated past half the attempt budget.
    BackoffEscalation,
    /// The reliable layer gave up on a frame (attempt budget exhausted).
    DeliveryAbandoned,
    /// A network partition opened towards a peer.
    PartitionOpen,
    /// A network partition healed.
    PartitionHeal,
    /// An inform arrived after the handoff deadline.
    HandoffDeadlineMiss,
    /// Sparse stepping behaved anomalously (active-fraction spike).
    SparseAnomaly,
    /// A health verdict changed for some subject.
    HealthChange,
}

impl JournalKind {
    /// Stable snake_case name used in the JSONL export.
    pub fn as_str(&self) -> &'static str {
        match self {
            JournalKind::NodeKill => "node_kill",
            JournalKind::NodeRestore => "node_restore",
            JournalKind::Retransmit => "retransmit",
            JournalKind::BackoffEscalation => "backoff_escalation",
            JournalKind::DeliveryAbandoned => "delivery_abandoned",
            JournalKind::PartitionOpen => "partition_open",
            JournalKind::PartitionHeal => "partition_heal",
            JournalKind::HandoffDeadlineMiss => "handoff_deadline_miss",
            JournalKind::SparseAnomaly => "sparse_anomaly",
            JournalKind::HealthChange => "health_change",
        }
    }
}

/// How bad the event is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// Expected operational noise (a single retransmit, a heal).
    Info,
    /// Something is degrading (backoff escalation, sparse anomaly).
    Warn,
    /// Something is broken (node kill, abandoned delivery, SLO miss).
    Error,
}

impl Severity {
    /// Stable lowercase name used in the JSONL export.
    pub fn as_str(&self) -> &'static str {
        match self {
            Severity::Info => "info",
            Severity::Warn => "warn",
            Severity::Error => "error",
        }
    }
}

/// One recorded journal event.
#[derive(Debug, Clone, PartialEq)]
pub struct JournalEvent {
    /// Monotonic sequence number, assigned at record time; survives ring
    /// wrap (the count of evicted predecessors is `seq - position`).
    pub seq: u64,
    /// Simulation time in microseconds.
    pub sim_us: u64,
    /// Host wall-clock microseconds since the journal was created.
    pub wall_us: u64,
    /// Event class.
    pub kind: JournalKind,
    /// Event severity.
    pub severity: Severity,
    /// Who it happened to, e.g. `cam3`, `server`, `cam3->server`.
    pub subject: String,
    /// Free-form human-readable detail (pre-formatted by the caller).
    pub detail: String,
}

impl JournalEvent {
    /// Serializes one JSONL line. `include_wall` adds the wall-clock
    /// stamp; leave it off for byte-deterministic exports.
    pub fn to_json_line(&self, include_wall: bool) -> String {
        let mut out = String::with_capacity(96 + self.subject.len() + self.detail.len());
        let _ = write!(out, "{{\"seq\": {}, \"sim_us\": {}", self.seq, self.sim_us);
        if include_wall {
            let _ = write!(out, ", \"wall_us\": {}", self.wall_us);
        }
        let _ = write!(
            out,
            ", \"kind\": \"{}\", \"severity\": \"{}\", \"subject\": {}, \"detail\": {}}}",
            self.kind.as_str(),
            self.severity.as_str(),
            quote(&self.subject),
            quote(&self.detail)
        );
        out
    }
}

struct Ring {
    buf: VecDeque<JournalEvent>,
    next_seq: u64,
}

struct JournalShared {
    epoch: Instant,
    capacity: usize,
    dropped: AtomicU64,
    drop_counter: Mutex<Option<Counter>>,
    ring: Mutex<Ring>,
}

/// A shared, clonable flight recorder. Cloning shares the ring.
#[derive(Clone)]
pub struct Journal {
    inner: Arc<JournalShared>,
}

impl Default for Journal {
    fn default() -> Self {
        Self::new()
    }
}

impl std::fmt::Debug for Journal {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Journal")
            .field("len", &self.len())
            .field("dropped", &self.dropped_total())
            .finish()
    }
}

impl Journal {
    /// Creates a journal with the default capacity.
    pub fn new() -> Self {
        Self::with_capacity(DEFAULT_JOURNAL_CAPACITY)
    }

    /// Creates a journal holding at most `capacity` events (min 1).
    pub fn with_capacity(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        Self {
            inner: Arc::new(JournalShared {
                epoch: Instant::now(),
                capacity,
                dropped: AtomicU64::new(0),
                drop_counter: Mutex::new(None),
                ring: Mutex::new(Ring {
                    buf: VecDeque::with_capacity(capacity.min(1024)),
                    next_seq: 0,
                }),
            }),
        }
    }

    /// Mirrors evictions into a registry counter (conventionally
    /// `journal_events_dropped_total`) in addition to the local total.
    pub fn set_drop_counter(&self, counter: Counter) {
        *self.inner.drop_counter.lock().expect("journal poisoned") = Some(counter);
    }

    /// Records one event and returns its sequence number.
    pub fn record(
        &self,
        kind: JournalKind,
        severity: Severity,
        sim_us: u64,
        subject: &str,
        detail: &str,
    ) -> u64 {
        let wall_us = self.inner.epoch.elapsed().as_micros() as u64;
        // Build the event outside the lock; the critical section is two
        // VecDeque ops.
        let mut ev = JournalEvent {
            seq: 0,
            sim_us,
            wall_us,
            kind,
            severity,
            subject: subject.to_string(),
            detail: detail.to_string(),
        };
        let (seq, evicted) = {
            let mut g = self.inner.ring.lock().expect("journal poisoned");
            let seq = g.next_seq;
            g.next_seq += 1;
            ev.seq = seq;
            let evicted = if g.buf.len() == self.inner.capacity {
                g.buf.pop_front();
                true
            } else {
                false
            };
            g.buf.push_back(ev);
            (seq, evicted)
        };
        if evicted {
            self.inner.dropped.fetch_add(1, Ordering::Relaxed);
            if let Some(c) = self
                .inner
                .drop_counter
                .lock()
                .expect("journal poisoned")
                .as_ref()
            {
                c.inc();
            }
        }
        seq
    }

    /// Number of events currently retained in the ring.
    pub fn len(&self) -> usize {
        self.inner.ring.lock().expect("journal poisoned").buf.len()
    }

    /// True when nothing has been retained.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total events ever recorded (equals the next sequence number).
    pub fn recorded_total(&self) -> u64 {
        self.inner.ring.lock().expect("journal poisoned").next_seq
    }

    /// Events evicted by ring wrap.
    pub fn dropped_total(&self) -> u64 {
        self.inner.dropped.load(Ordering::Relaxed)
    }

    /// The last `n` retained events, oldest first.
    pub fn recent(&self, n: usize) -> Vec<JournalEvent> {
        let g = self.inner.ring.lock().expect("journal poisoned");
        let skip = g.buf.len().saturating_sub(n);
        g.buf.iter().skip(skip).cloned().collect()
    }

    /// Retained events with `seq >= from_seq`, oldest first.
    pub fn since(&self, from_seq: u64) -> Vec<JournalEvent> {
        let g = self.inner.ring.lock().expect("journal poisoned");
        // The ring holds consecutive sequence numbers ending just below
        // `next_seq`: skip straight to `from_seq`.
        let first = g.next_seq - g.buf.len() as u64;
        let skip = from_seq.saturating_sub(first).min(g.buf.len() as u64) as usize;
        g.buf.range(skip..).cloned().collect()
    }

    /// Runs `f` over every retained event, oldest first.
    pub fn for_each(&self, mut f: impl FnMut(&JournalEvent)) {
        let g = self.inner.ring.lock().expect("journal poisoned");
        for ev in &g.buf {
            f(ev);
        }
    }

    /// Exports the retained events as JSONL **without** wall-clock
    /// stamps: byte-deterministic across same-seed runs.
    pub fn export_jsonl(&self) -> String {
        self.export(false)
    }

    /// Exports the retained events as JSONL including the wall-clock
    /// stamp on every line.
    pub fn export_jsonl_full(&self) -> String {
        self.export(true)
    }

    fn export(&self, include_wall: bool) -> String {
        // Clone out under the lock, serialize outside it.
        let events: Vec<JournalEvent> = {
            let g = self.inner.ring.lock().expect("journal poisoned");
            g.buf.iter().cloned().collect()
        };
        let mut out = String::new();
        for ev in &events {
            out.push_str(&ev.to_json_line(include_wall));
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::parse;

    #[test]
    fn records_and_exports() {
        let j = Journal::new();
        let s0 = j.record(
            JournalKind::NodeKill,
            Severity::Error,
            1_000_000,
            "cam2",
            "scheduled kill",
        );
        let s1 = j.record(
            JournalKind::NodeRestore,
            Severity::Info,
            2_000_000,
            "cam2",
            "restored",
        );
        assert_eq!((s0, s1), (0, 1));
        assert_eq!(j.len(), 2);
        assert_eq!(j.dropped_total(), 0);

        let text = j.export_jsonl();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        let first = parse(lines[0]).unwrap();
        assert_eq!(first.get("kind").unwrap().as_str(), Some("node_kill"));
        assert_eq!(first.get("subject").unwrap().as_str(), Some("cam2"));
        assert_eq!(first.get("sim_us").unwrap().as_u64(), Some(1_000_000));
        assert!(
            first.get("wall_us").is_none(),
            "deterministic export has no wall clock"
        );
        let full = j.export_jsonl_full();
        let first_full = parse(full.lines().next().unwrap()).unwrap();
        assert!(first_full.get("wall_us").unwrap().as_u64().is_some());
    }

    #[test]
    fn ring_wraps_and_counts_drops() {
        let j = Journal::with_capacity(4);
        let dropped = Counter::default();
        j.set_drop_counter(dropped.clone());
        for i in 0..10u64 {
            j.record(
                JournalKind::Retransmit,
                Severity::Info,
                i,
                "cam0->server",
                "attempt",
            );
        }
        assert_eq!(j.len(), 4);
        assert_eq!(j.recorded_total(), 10);
        assert_eq!(j.dropped_total(), 6);
        assert_eq!(dropped.get(), 6);
        // The newest four survive, in seq order.
        let seqs: Vec<u64> = j.recent(100).iter().map(|e| e.seq).collect();
        assert_eq!(seqs, vec![6, 7, 8, 9]);
        assert_eq!(j.since(8).len(), 2);
        // Evicted and future sequence numbers clamp to the retained ring.
        assert_eq!(j.since(0).first().map(|e| e.seq), Some(6));
        assert!(j.since(10).is_empty());
        assert!(j.since(99).is_empty());
        assert_eq!(j.recent(2).first().map(|e| e.seq), Some(8));
    }

    #[test]
    fn concurrent_writers_keep_unique_seqs() {
        let j = Journal::with_capacity(1024);
        let mut handles = Vec::new();
        for t in 0..4u64 {
            let jj = j.clone();
            handles.push(std::thread::spawn(move || {
                for i in 0..200u64 {
                    jj.record(
                        JournalKind::Retransmit,
                        Severity::Info,
                        t * 1_000 + i,
                        &format!("cam{t}"),
                        "x",
                    );
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(j.len(), 800);
        assert_eq!(j.recorded_total(), 800);
        let mut seqs: Vec<u64> = Vec::new();
        j.for_each(|ev| seqs.push(ev.seq));
        let mut sorted = seqs.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 800, "sequence numbers are unique");
        // Ring order is seq order (events are appended under the lock).
        assert!(seqs.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn detail_strings_are_json_escaped() {
        let j = Journal::new();
        j.record(
            JournalKind::HealthChange,
            Severity::Warn,
            0,
            "a\"b",
            "line\nbreak\t",
        );
        let text = j.export_jsonl();
        let doc = parse(text.lines().next().unwrap()).unwrap();
        assert_eq!(doc.get("subject").unwrap().as_str(), Some("a\"b"));
        assert_eq!(doc.get("detail").unwrap().as_str(), Some("line\nbreak\t"));
    }
}
