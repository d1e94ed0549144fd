//! Workspace-wide observability for the Coral-Pie reproduction.
//!
//! Every evaluation in the paper (§5: inform latency, recovery time,
//! per-stage timings) is a *measurement over a distributed pipeline*, so
//! this crate provides the shared instrumentation substrate the rest of
//! the workspace threads through:
//!
//! - [`Registry`] — named [`Counter`]s, [`Gauge`]s and log-scale
//!   [`Histogram`]s cheap enough for per-frame hot paths, with snapshot
//!   export to JSON ([`Registry::snapshot_json`]) and the Prometheus text
//!   format ([`Registry::render_prometheus`]).
//! - [`Tracer`] — structured spans/events stamped with both sim-time and
//!   wall-time, exported as Chrome `trace_event` JSON
//!   ([`Tracer::export_chrome`]) for chrome://tracing / Perfetto. The
//!   per-vehicle causal traces in `coral-core` map cameras to trace
//!   processes and vehicles to trace threads, so one timeline row shows
//!   one vehicle flowing detect → track → feature-extract → inform →
//!   transport hop → re-id → store across cameras.
//! - [`Journal`] — the flight recorder: a bounded ring-buffer of
//!   structured operational events (kills, restores, retransmits,
//!   partitions, SLO misses) with deterministic JSONL export.
//! - [`health`] — the SLO engine: declarative [`health::Rule`]s evaluated
//!   over cached registry series, producing per-subject OK / DEGRADED /
//!   CRITICAL [`health::HealthReport`]s and journaling transitions.
//! - [`ops`] — a dependency-free `std::net` HTTP endpoint serving
//!   `/metrics`, `/healthz` and `/journal?last=N` for live deployments.
//! - [`json`] — the minimal JSON writer/parser the exporters are built
//!   on, so the crate stays dependency-free and the exports stay
//!   byte-deterministic.
//!
//! The crate deliberately knows nothing about cameras, vehicles or
//! simulation types: identities are plain strings and `u64`s, and the
//! domain crates adapt their ids at the instrumentation sites.

#![warn(missing_docs)]

pub mod health;
pub mod journal;
pub mod json;
pub mod ops;
pub mod registry;
pub mod trace;

pub use health::{HealthEngine, HealthReport, Rule, RuleInput, Thresholds, Verdict};
pub use journal::{Journal, JournalEvent, JournalKind, Severity};
pub use ops::{OpsServer, OpsState};
pub use registry::{
    bucket_bound_us, Counter, Gauge, Histogram, HistogramData, LocalHistogram, MetricKey, Registry,
    RegistrySample, SampleValue, HISTOGRAM_BUCKETS,
};
pub use trace::{ArgValue, TraceEvent, Tracer};

/// The bundle of observability handles one deployment shares: a metrics
/// registry, a trace recorder, and a flight-recorder journal. Cloning
/// shares all three.
#[derive(Debug, Clone)]
pub struct Observability {
    /// The shared metrics registry.
    pub registry: Registry,
    /// The shared trace recorder (disabled until enabled).
    pub tracer: Tracer,
    /// The shared flight recorder.
    pub journal: Journal,
}

impl Default for Observability {
    fn default() -> Self {
        Self::new()
    }
}

impl Observability {
    /// Creates a fresh bundle with tracing disabled. The tracer's and
    /// journal's drop counters are mirrored into the registry as
    /// `trace_events_dropped_total` / `journal_events_dropped_total`.
    pub fn new() -> Self {
        let registry = Registry::new();
        let tracer = Tracer::new();
        let journal = Journal::new();
        tracer.set_drop_counter(registry.counter("trace_events_dropped_total", &[]));
        journal.set_drop_counter(registry.counter("journal_events_dropped_total", &[]));
        registry.describe(
            "trace_events_dropped_total",
            "Trace events rejected because the tracer buffer was full",
        );
        registry.describe(
            "journal_events_dropped_total",
            "Journal events evicted by flight-recorder ring wrap",
        );
        Self {
            registry,
            tracer,
            journal,
        }
    }

    /// Enables (or disables) trace recording.
    pub fn set_tracing(&self, on: bool) {
        self.tracer.set_enabled(on);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bundle_shares_state_across_clones() {
        let obs = Observability::new();
        let other = obs.clone();
        other.registry.counter("x", &[]).inc();
        assert_eq!(obs.registry.counter_value("x", &[]), Some(1));
        obs.set_tracing(true);
        assert!(other.tracer.is_enabled());
    }
}
