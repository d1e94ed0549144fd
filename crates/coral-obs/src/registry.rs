//! The metrics registry: named counters, gauges, and log-scale histograms.
//!
//! Handles are cheap `Arc`-backed atomics so hot paths (per-frame pipeline
//! stages, per-envelope transport sends) pay one atomic op per update and
//! never touch the registry lock after creation. Snapshots export to a
//! deterministic JSON document and to the Prometheus text exposition
//! format; metric/label ordering is `BTreeMap`-stable so exports diff
//! cleanly across runs.

use crate::json::{number, quote};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Number of finite histogram buckets; bucket `i` has upper bound
/// `2^i` µs, so the range spans 1 µs .. ~17.9 min before overflow.
pub const HISTOGRAM_BUCKETS: usize = 31;

/// A metric identity: name plus sorted `key=value` labels.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct MetricKey {
    /// Metric name, e.g. `pipeline_stage_latency_us`.
    pub name: String,
    /// Label pairs, kept sorted by key for deterministic export.
    pub labels: Vec<(String, String)>,
}

impl MetricKey {
    /// Builds a key, sorting the labels.
    pub fn new(name: &str, labels: &[(&str, &str)]) -> Self {
        let mut labels: Vec<(String, String)> = labels
            .iter()
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .collect();
        labels.sort();
        Self {
            name: name.to_string(),
            labels,
        }
    }

    fn prometheus_suffix(&self, extra: Option<(&str, &str)>) -> String {
        let mut pairs: Vec<(&str, &str)> = self
            .labels
            .iter()
            .map(|(k, v)| (k.as_str(), v.as_str()))
            .collect();
        if let Some(e) = extra {
            pairs.push(e);
        }
        if pairs.is_empty() {
            return String::new();
        }
        let mut out = String::from("{");
        for (i, (k, v)) in pairs.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "{k}=\"");
            prometheus_escape_into(&mut out, v);
            out.push('"');
        }
        out.push('}');
        out
    }

    /// Returns the value of label `key`, if present.
    pub fn label(&self, key: &str) -> Option<&str> {
        self.labels
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }
}

/// Escapes a Prometheus label value: exactly backslash, double quote and
/// newline per the text exposition format (unlike JSON, tab and other
/// control characters pass through verbatim).
fn prometheus_escape_into(out: &mut String, value: &str) {
    for c in value.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            other => out.push(other),
        }
    }
}

/// Escapes `# HELP` text: backslash and newline only (quotes are legal
/// there, per the exposition format).
fn prometheus_escape_help_into(out: &mut String, value: &str) {
    for c in value.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            other => out.push(other),
        }
    }
}

/// A monotonically increasing counter.
#[derive(Debug, Clone, Default)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// Adds 1.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A gauge that can move in both directions.
#[derive(Debug, Clone, Default)]
pub struct Gauge(Arc<AtomicI64>);

impl Gauge {
    /// Sets the gauge to `v`.
    #[inline]
    pub fn set(&self, v: i64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Adds `delta` (may be negative).
    #[inline]
    pub fn add(&self, delta: i64) {
        self.0.fetch_add(delta, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A fixed-bucket log-scale histogram of microsecond values.
///
/// Bucket `i` (0-based) covers values `<= 2^i` µs; values above the last
/// finite bound land in the overflow bucket. All updates are relaxed
/// atomics, safe to share across camera threads.
#[derive(Debug, Clone)]
pub struct Histogram {
    inner: Arc<HistogramInner>,
}

#[derive(Debug)]
struct HistogramInner {
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
    overflow: AtomicU64,
    count: AtomicU64,
    sum_us: AtomicU64,
}

/// Index of the finite bucket for `value_us`, or `HISTOGRAM_BUCKETS` for
/// overflow.
#[inline]
fn bucket_index(value_us: u64) -> usize {
    // Bucket i holds values <= 2^i, so index = ceil(log2(v)) clamped.
    if value_us <= 1 {
        return 0;
    }
    let idx = 64 - (value_us - 1).leading_zeros() as usize;
    idx.min(HISTOGRAM_BUCKETS)
}

/// Upper bound of finite bucket `i`, in microseconds.
#[inline]
pub fn bucket_bound_us(i: usize) -> u64 {
    1u64 << i
}

impl Default for Histogram {
    fn default() -> Self {
        Self {
            inner: Arc::new(HistogramInner {
                buckets: std::array::from_fn(|_| AtomicU64::new(0)),
                overflow: AtomicU64::new(0),
                count: AtomicU64::new(0),
                sum_us: AtomicU64::new(0),
            }),
        }
    }
}

impl Histogram {
    /// Records one observation in microseconds.
    #[inline]
    pub fn observe_us(&self, value_us: u64) {
        let idx = bucket_index(value_us);
        if idx < HISTOGRAM_BUCKETS {
            self.inner.buckets[idx].fetch_add(1, Ordering::Relaxed);
        } else {
            self.inner.overflow.fetch_add(1, Ordering::Relaxed);
        }
        self.inner.count.fetch_add(1, Ordering::Relaxed);
        self.inner.sum_us.fetch_add(value_us, Ordering::Relaxed);
    }

    /// Records a wall-clock duration.
    #[inline]
    pub fn observe(&self, d: std::time::Duration) {
        self.observe_us(d.as_micros() as u64);
    }

    /// Total observations.
    pub fn count(&self) -> u64 {
        self.inner.count.load(Ordering::Relaxed)
    }

    /// Sum of all observations, in microseconds.
    pub fn sum_us(&self) -> u64 {
        self.inner.sum_us.load(Ordering::Relaxed)
    }

    /// Folds a [`LocalHistogram`] batch into this histogram.
    pub fn merge_local(&self, local: &LocalHistogram) {
        for (i, &c) in local.buckets.iter().enumerate() {
            if c > 0 {
                self.inner.buckets[i].fetch_add(c, Ordering::Relaxed);
            }
        }
        if local.overflow > 0 {
            self.inner
                .overflow
                .fetch_add(local.overflow, Ordering::Relaxed);
        }
        if local.count > 0 {
            self.inner.count.fetch_add(local.count, Ordering::Relaxed);
            self.inner.sum_us.fetch_add(local.sum_us, Ordering::Relaxed);
        }
    }

    /// The histogram's current state (a point-in-time copy, no
    /// allocation).
    pub(crate) fn snapshot(&self) -> HistogramData {
        HistogramData {
            buckets: std::array::from_fn(|i| self.inner.buckets[i].load(Ordering::Relaxed)),
            overflow: self.inner.overflow.load(Ordering::Relaxed),
            count: self.count(),
            sum_us: self.sum_us(),
        }
    }
}

/// A thread-local (non-atomic) histogram for single-owner hot loops;
/// merge into a shared [`Histogram`] with [`Histogram::merge_local`].
#[derive(Debug, Clone)]
pub struct LocalHistogram {
    buckets: [u64; HISTOGRAM_BUCKETS],
    overflow: u64,
    count: u64,
    sum_us: u64,
}

impl Default for LocalHistogram {
    fn default() -> Self {
        Self {
            buckets: [0; HISTOGRAM_BUCKETS],
            overflow: 0,
            count: 0,
            sum_us: 0,
        }
    }
}

impl LocalHistogram {
    /// Creates an empty local histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one observation in microseconds.
    #[inline]
    pub fn observe_us(&mut self, value_us: u64) {
        let idx = bucket_index(value_us);
        if idx < HISTOGRAM_BUCKETS {
            self.buckets[idx] += 1;
        } else {
            self.overflow += 1;
        }
        self.count += 1;
        self.sum_us += value_us;
    }

    /// Total observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all observations, in microseconds.
    pub fn sum_us(&self) -> u64 {
        self.sum_us
    }

    /// Mean observation in microseconds (0 when empty).
    pub fn mean_us(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum_us as f64 / self.count as f64
        }
    }

    /// Approximate quantile in microseconds from the bucket boundaries
    /// (upper bound of the bucket holding the q-th sample).
    pub fn quantile_bound_us(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((self.count as f64 - 1.0) * q.clamp(0.0, 1.0)).round() as u64;
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen > rank {
                return bucket_bound_us(i);
            }
        }
        u64::MAX
    }
}

/// A point-in-time copy of one histogram's state, as captured by
/// [`Registry::collect`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct HistogramData {
    /// Per-bucket counts; bucket `i` covers values `<= 2^i` µs.
    pub buckets: [u64; HISTOGRAM_BUCKETS],
    /// Observations above the last finite bound.
    pub overflow: u64,
    /// Total observations.
    pub count: u64,
    /// Sum of all observations, in microseconds.
    pub sum_us: u64,
}

impl HistogramData {
    /// Pointwise `self - earlier`, saturating at zero: the observations
    /// recorded between two snapshots. Used for windowed quantiles.
    pub fn delta(&self, earlier: &HistogramData) -> HistogramData {
        HistogramData {
            buckets: std::array::from_fn(|i| self.buckets[i].saturating_sub(earlier.buckets[i])),
            overflow: self.overflow.saturating_sub(earlier.overflow),
            count: self.count.saturating_sub(earlier.count),
            sum_us: self.sum_us.saturating_sub(earlier.sum_us),
        }
    }

    /// Approximate quantile in microseconds (upper bound of the bucket
    /// holding the q-th sample; `u64::MAX` if it landed in overflow).
    pub fn quantile_bound_us(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((self.count as f64 - 1.0) * q.clamp(0.0, 1.0)).round() as u64;
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen > rank {
                return bucket_bound_us(i);
            }
        }
        u64::MAX
    }
}

/// The value of one metric series inside a [`RegistrySample`].
#[derive(Debug, Clone, PartialEq)]
pub enum SampleValue {
    /// A counter's running total.
    Counter(u64),
    /// A gauge's current value.
    Gauge(i64),
    /// A histogram's full bucket state (boxed: the bucket array dwarfs
    /// the scalar variants).
    Histogram(Box<HistogramData>),
}

/// A live handle to one series, as resolved by [`Registry::family`].
#[derive(Debug, Clone)]
pub(crate) enum SeriesHandle {
    /// A counter series.
    Counter(Counter),
    /// A gauge series.
    Gauge(Gauge),
    /// A histogram series.
    Histogram(Histogram),
}

/// One metric series captured by [`Registry::collect`].
#[derive(Debug, Clone)]
pub struct RegistrySample {
    /// The series identity (name + sorted labels).
    pub key: MetricKey,
    /// The captured value.
    pub value: SampleValue,
}

#[derive(Default)]
struct RegistryInner {
    counters: BTreeMap<MetricKey, Counter>,
    gauges: BTreeMap<MetricKey, Gauge>,
    histograms: BTreeMap<MetricKey, Histogram>,
    help: BTreeMap<String, String>,
}

/// The shared metrics registry.
///
/// Cloning shares the underlying store. Handle creation takes a lock;
/// updates on the returned handles do not.
#[derive(Clone, Default)]
pub struct Registry {
    inner: Arc<Mutex<RegistryInner>>,
}

impl std::fmt::Debug for Registry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let g = self.inner.lock().expect("registry poisoned");
        f.debug_struct("Registry")
            .field("counters", &g.counters.len())
            .field("gauges", &g.gauges.len())
            .field("histograms", &g.histograms.len())
            .finish()
    }
}

impl Registry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Returns (creating if needed) the counter for `name`/`labels`.
    pub fn counter(&self, name: &str, labels: &[(&str, &str)]) -> Counter {
        let key = MetricKey::new(name, labels);
        self.inner
            .lock()
            .expect("registry poisoned")
            .counters
            .entry(key)
            .or_default()
            .clone()
    }

    /// Returns (creating if needed) the gauge for `name`/`labels`.
    pub fn gauge(&self, name: &str, labels: &[(&str, &str)]) -> Gauge {
        let key = MetricKey::new(name, labels);
        self.inner
            .lock()
            .expect("registry poisoned")
            .gauges
            .entry(key)
            .or_default()
            .clone()
    }

    /// Returns (creating if needed) the histogram for `name`/`labels`.
    pub fn histogram(&self, name: &str, labels: &[(&str, &str)]) -> Histogram {
        let key = MetricKey::new(name, labels);
        self.inner
            .lock()
            .expect("registry poisoned")
            .histograms
            .entry(key)
            .or_default()
            .clone()
    }

    /// Registers human-readable help text for a metric family; rendered
    /// as a `# HELP` line by [`Registry::render_prometheus`].
    pub fn describe(&self, name: &str, help: &str) {
        self.inner
            .lock()
            .expect("registry poisoned")
            .help
            .insert(name.to_string(), help.to_string());
    }

    /// Captures every series as a structured sample, in deterministic
    /// (counters, gauges, histograms; BTreeMap key) order.
    pub fn collect(&self) -> Vec<RegistrySample> {
        let g = self.inner.lock().expect("registry poisoned");
        let mut out = Vec::new();
        for (key, c) in &g.counters {
            out.push(RegistrySample {
                key: key.clone(),
                value: SampleValue::Counter(c.get()),
            });
        }
        for (key, gauge) in &g.gauges {
            out.push(RegistrySample {
                key: key.clone(),
                value: SampleValue::Gauge(gauge.get()),
            });
        }
        for (key, h) in &g.histograms {
            out.push(RegistrySample {
                key: key.clone(),
                value: SampleValue::Histogram(Box::new(h.snapshot())),
            });
        }
        out
    }

    /// Total series of every kind. Series are never removed, so a changed
    /// count means new series.
    pub(crate) fn series_count(&self) -> usize {
        let g = self.inner.lock().expect("registry poisoned");
        g.counters.len() + g.gauges.len() + g.histograms.len()
    }

    /// Live handles to every series of metric family `name`, in
    /// [`Registry::collect`] order (counters, gauges, histograms; key order
    /// within each). Only the family's own key range is visited.
    pub(crate) fn family(&self, name: &str) -> Vec<(MetricKey, SeriesHandle)> {
        fn range<'a, V>(
            map: &'a BTreeMap<MetricKey, V>,
            start: &'a MetricKey,
        ) -> impl Iterator<Item = (&'a MetricKey, &'a V)> {
            let name = start.name.as_str();
            map.range(start..).take_while(move |(k, _)| k.name == name)
        }
        // The empty label list sorts first among a name's keys.
        let start = MetricKey {
            name: name.to_string(),
            labels: Vec::new(),
        };
        let g = self.inner.lock().expect("registry poisoned");
        let counters =
            range(&g.counters, &start).map(|(k, c)| (k, SeriesHandle::Counter(c.clone())));
        let gauges = range(&g.gauges, &start).map(|(k, v)| (k, SeriesHandle::Gauge(v.clone())));
        let histograms =
            range(&g.histograms, &start).map(|(k, h)| (k, SeriesHandle::Histogram(h.clone())));
        counters
            .chain(gauges)
            .chain(histograms)
            .map(|(k, h)| (k.clone(), h))
            .collect()
    }

    /// True when `self` and `other` share one store (one is a clone of
    /// the other).
    pub(crate) fn same_store(&self, other: &Registry) -> bool {
        Arc::ptr_eq(&self.inner, &other.inner)
    }

    /// Reads a counter's current value, if it exists.
    pub fn counter_value(&self, name: &str, labels: &[(&str, &str)]) -> Option<u64> {
        let key = MetricKey::new(name, labels);
        self.inner
            .lock()
            .expect("registry poisoned")
            .counters
            .get(&key)
            .map(Counter::get)
    }

    /// Serializes the whole registry to a deterministic JSON document:
    /// `{"counters": [...], "gauges": [...], "histograms": [...]}`.
    pub fn snapshot_json(&self) -> String {
        let g = self.inner.lock().expect("registry poisoned");
        let mut out = String::from("{\n  \"counters\": [");
        let mut first = true;
        for (key, c) in &g.counters {
            push_entry_head(&mut out, &mut first, key);
            let _ = write!(out, "\"value\": {}}}", c.get());
        }
        out.push_str("\n  ],\n  \"gauges\": [");
        first = true;
        for (key, gauge) in &g.gauges {
            push_entry_head(&mut out, &mut first, key);
            let _ = write!(out, "\"value\": {}}}", gauge.get());
        }
        out.push_str("\n  ],\n  \"histograms\": [");
        first = true;
        for (key, h) in &g.histograms {
            let s = h.snapshot();
            push_entry_head(&mut out, &mut first, key);
            let _ = write!(out, "\"count\": {}, \"sum_us\": {}, ", s.count, s.sum_us);
            out.push_str("\"buckets\": [");
            // Trailing zero buckets are elided; `le` bounds are implicit
            // powers of two so only non-empty prefixes are stored.
            let last = s.buckets.iter().rposition(|&c| c > 0).map_or(0, |i| i + 1);
            for (i, &c) in s.buckets[..last].iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                let _ = write!(out, "{c}");
            }
            let _ = write!(out, "], \"overflow\": {}}}", s.overflow);
        }
        out.push_str("\n  ]\n}\n");
        out
    }

    /// Renders the registry in Prometheus text exposition format.
    ///
    /// Histograms follow the standard convention: cumulative
    /// `<name>_bucket{le="..."}` series with bounds in **seconds**, a
    /// `+Inf` bucket, `<name>_sum` (seconds) and `<name>_count`.
    pub fn render_prometheus(&self) -> String {
        let g = self.inner.lock().expect("registry poisoned");
        let mut out = String::new();
        let mut last_name = String::new();
        for (key, c) in &g.counters {
            if key.name != last_name {
                write_family_header(&mut out, &key.name, "counter", &g.help);
                last_name.clone_from(&key.name);
            }
            let _ = writeln!(
                out,
                "{}{} {}",
                key.name,
                key.prometheus_suffix(None),
                c.get()
            );
        }
        last_name.clear();
        for (key, gauge) in &g.gauges {
            if key.name != last_name {
                write_family_header(&mut out, &key.name, "gauge", &g.help);
                last_name.clone_from(&key.name);
            }
            let _ = writeln!(
                out,
                "{}{} {}",
                key.name,
                key.prometheus_suffix(None),
                gauge.get()
            );
        }
        last_name.clear();
        for (key, h) in &g.histograms {
            let s = h.snapshot();
            if key.name != last_name {
                write_family_header(&mut out, &key.name, "histogram", &g.help);
                last_name.clone_from(&key.name);
            }
            let mut cumulative = 0u64;
            for (i, &c) in s.buckets.iter().enumerate() {
                cumulative += c;
                // Skip empty leading/intermediate buckets only when nothing
                // has accumulated yet, to keep the series compact.
                if cumulative == 0 && i < HISTOGRAM_BUCKETS - 1 {
                    continue;
                }
                let le = bucket_bound_us(i) as f64 / 1e6;
                let _ = writeln!(
                    out,
                    "{}_bucket{} {}",
                    key.name,
                    key.prometheus_suffix(Some(("le", &number(le)))),
                    cumulative
                );
            }
            let _ = writeln!(
                out,
                "{}_bucket{} {}",
                key.name,
                key.prometheus_suffix(Some(("le", "+Inf"))),
                s.count
            );
            let _ = writeln!(
                out,
                "{}_sum{} {}",
                key.name,
                key.prometheus_suffix(None),
                number(s.sum_us as f64 / 1e6)
            );
            let _ = writeln!(
                out,
                "{}_count{} {}",
                key.name,
                key.prometheus_suffix(None),
                s.count
            );
        }
        out
    }
}

fn write_family_header(out: &mut String, name: &str, kind: &str, help: &BTreeMap<String, String>) {
    if let Some(text) = help.get(name) {
        let _ = write!(out, "# HELP {name} ");
        prometheus_escape_help_into(out, text);
        out.push('\n');
    }
    let _ = writeln!(out, "# TYPE {name} {kind}");
}

fn push_entry_head(out: &mut String, first: &mut bool, key: &MetricKey) {
    if !*first {
        out.push(',');
    }
    *first = false;
    out.push_str("\n    {\"name\": ");
    out.push_str(&quote(&key.name));
    out.push_str(", \"labels\": {");
    for (i, (k, v)) in key.labels.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        out.push_str(&quote(k));
        out.push_str(": ");
        out.push_str(&quote(v));
    }
    out.push_str("}, ");
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::parse;

    #[test]
    fn bucket_index_boundaries() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 0); // <= 2^0
        assert_eq!(bucket_index(2), 1);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 2); // <= 2^2
        assert_eq!(bucket_index(5), 3);
        assert_eq!(bucket_index(1 << 30), 30);
        assert_eq!(bucket_index((1 << 30) + 1), HISTOGRAM_BUCKETS); // overflow
        assert_eq!(bucket_index(u64::MAX), HISTOGRAM_BUCKETS);
    }

    #[test]
    fn counters_and_gauges_share_handles() {
        let reg = Registry::new();
        let a = reg.counter("frames_total", &[("camera", "0")]);
        let b = reg.counter("frames_total", &[("camera", "0")]);
        a.inc();
        b.add(2);
        assert_eq!(a.get(), 3);
        assert_eq!(
            reg.counter_value("frames_total", &[("camera", "0")]),
            Some(3)
        );
        assert_eq!(reg.counter_value("frames_total", &[("camera", "1")]), None);

        let q = reg.gauge("queue_depth", &[]);
        q.set(5);
        q.add(-2);
        assert_eq!(q.get(), 3);
    }

    #[test]
    fn label_order_is_canonical() {
        let k1 = MetricKey::new("m", &[("b", "2"), ("a", "1")]);
        let k2 = MetricKey::new("m", &[("a", "1"), ("b", "2")]);
        assert_eq!(k1, k2);
    }

    #[test]
    fn histogram_counts_and_merge() {
        let h = Histogram::default();
        h.observe_us(1);
        h.observe_us(100);
        h.observe_us(100_000);
        assert_eq!(h.count(), 3);
        assert_eq!(h.sum_us(), 100_101);

        let mut local = LocalHistogram::new();
        for v in [10u64, 20, 30] {
            local.observe_us(v);
        }
        assert_eq!(local.mean_us(), 20.0);
        h.merge_local(&local);
        assert_eq!(h.count(), 6);
        assert_eq!(h.sum_us(), 100_161);
    }

    #[test]
    fn local_histogram_quantile_bound() {
        let mut h = LocalHistogram::new();
        for v in 1..=100u64 {
            h.observe_us(v);
        }
        // p50 of 1..=100 is ~50, whose bucket bound is 64.
        assert_eq!(h.quantile_bound_us(0.5), 64);
        assert_eq!(h.quantile_bound_us(1.0), 128);
        assert_eq!(LocalHistogram::new().quantile_bound_us(0.5), 0);
    }

    #[test]
    fn json_snapshot_parses_and_is_deterministic() {
        let reg = Registry::new();
        reg.counter("b_total", &[]).add(7);
        reg.counter("a_total", &[("side", "north")]).add(1);
        reg.gauge("depth", &[]).set(-4);
        let h = reg.histogram("lat_us", &[("stage", "detect")]);
        h.observe_us(3);
        h.observe_us(9);

        let s1 = reg.snapshot_json();
        let s2 = reg.snapshot_json();
        assert_eq!(s1, s2);

        let doc = parse(&s1).unwrap();
        let counters = doc.get("counters").unwrap().as_array().unwrap();
        // BTreeMap ordering: a_total before b_total.
        assert_eq!(counters[0].get("name").unwrap().as_str(), Some("a_total"));
        assert_eq!(counters[1].get("value").unwrap().as_u64(), Some(7));
        let gauges = doc.get("gauges").unwrap().as_array().unwrap();
        assert_eq!(gauges[0].get("value").unwrap().as_f64(), Some(-4.0));
        let hists = doc.get("histograms").unwrap().as_array().unwrap();
        assert_eq!(hists[0].get("count").unwrap().as_u64(), Some(2));
        assert_eq!(hists[0].get("sum_us").unwrap().as_u64(), Some(12));
        let buckets = hists[0].get("buckets").unwrap().as_array().unwrap();
        // 3 -> bucket 2 (<=4); 9 -> bucket 4 (<=16); trailing zeros elided.
        assert_eq!(buckets.len(), 5);
        assert_eq!(buckets[2].as_u64(), Some(1));
        assert_eq!(buckets[4].as_u64(), Some(1));
    }

    #[test]
    fn prometheus_rendering() {
        let reg = Registry::new();
        reg.counter("sent_total", &[("peer", "cam-1")]).add(5);
        let h = reg.histogram("stage_latency", &[("stage", "detect")]);
        h.observe_us(1_000);
        h.observe_us(2_000_000);
        let text = reg.render_prometheus();
        assert!(text.contains("# TYPE sent_total counter"));
        assert!(text.contains("sent_total{peer=\"cam-1\"} 5"));
        assert!(text.contains("# TYPE stage_latency histogram"));
        // 1000 us -> bucket <= 1024 us = 0.001024 s (cumulative 1).
        assert!(text.contains("stage_latency_bucket{stage=\"detect\",le=\"0.001024\"} 1"));
        // 2s -> bucket <= 2^21 us = 2.097152 s (cumulative 2).
        assert!(text.contains("stage_latency_bucket{stage=\"detect\",le=\"2.097152\"} 2"));
        assert!(text.contains("stage_latency_bucket{stage=\"detect\",le=\"+Inf\"} 2"));
        assert!(text.contains("stage_latency_sum{stage=\"detect\"} 2.001"));
        assert!(text.contains("stage_latency_count{stage=\"detect\"} 2"));
    }

    /// Minimal parser for one Prometheus sample line: extracts the label
    /// values back out, undoing the exposition-format escapes.
    fn parse_label_values(line: &str) -> Vec<String> {
        let open = line.find('{').unwrap();
        let close = line.rfind('}').unwrap();
        let body = &line[open + 1..close];
        let mut values = Vec::new();
        let mut chars = body.chars().peekable();
        while chars.peek().is_some() {
            // Skip `key="`.
            for c in chars.by_ref() {
                if c == '"' {
                    break;
                }
            }
            let mut value = String::new();
            while let Some(c) = chars.next() {
                match c {
                    '"' => break,
                    '\\' => match chars.next() {
                        Some('n') => value.push('\n'),
                        Some(other) => value.push(other),
                        None => {}
                    },
                    other => value.push(other),
                }
            }
            values.push(value);
            // Skip the comma separator, if any.
            if chars.peek() == Some(&',') {
                chars.next();
            }
        }
        values
    }

    #[test]
    fn prometheus_label_escaping_round_trips() {
        let reg = Registry::new();
        let nasty = "path\\to\"cam\"\nline2\ttab";
        reg.counter("weird_total", &[("p", nasty), ("q", "plain")])
            .inc();
        let text = reg.render_prometheus();
        let line = text
            .lines()
            .find(|l| l.starts_with("weird_total{"))
            .expect("sample line");
        // Exactly backslash, quote and newline are escaped; the raw tab
        // must survive unescaped (Prometheus spec, unlike JSON).
        assert!(line.contains("\\\\"), "backslash escaped: {line}");
        assert!(line.contains("\\\""), "quote escaped: {line}");
        assert!(line.contains("\\n"), "newline escaped: {line}");
        assert!(line.contains('\t'), "tab passes through: {line}");
        assert_eq!(
            parse_label_values(line),
            vec![nasty.to_string(), "plain".to_string()]
        );
    }

    #[test]
    fn prometheus_help_lines() {
        let reg = Registry::new();
        reg.describe("frames_total", "Frames captured per camera");
        reg.describe("depth", "Queue depth \\ with\nnewline");
        reg.counter("frames_total", &[("camera", "0")]).inc();
        reg.counter("frames_total", &[("camera", "1")]).inc();
        reg.gauge("depth", &[]).set(3);
        reg.counter("undescribed_total", &[]).inc();
        let text = reg.render_prometheus();
        // HELP precedes TYPE, once per family even with several series.
        let help_pos = text
            .find("# HELP frames_total Frames captured per camera")
            .unwrap();
        let type_pos = text.find("# TYPE frames_total counter").unwrap();
        assert!(help_pos < type_pos);
        assert_eq!(text.matches("# HELP frames_total").count(), 1);
        assert!(text.contains("# HELP depth Queue depth \\\\ with\\nnewline"));
        assert!(!text.contains("# HELP undescribed_total"));
        assert!(text.contains("# TYPE undescribed_total counter"));
    }

    #[test]
    fn collect_returns_structured_samples() {
        let reg = Registry::new();
        reg.counter("c_total", &[("k", "v")]).add(3);
        reg.gauge("g", &[]).set(-2);
        let h = reg.histogram("h_us", &[]);
        h.observe_us(5);
        h.observe_us(500);
        let samples = reg.collect();
        assert_eq!(samples.len(), 3);
        assert!(matches!(samples[0].value, SampleValue::Counter(3)));
        assert_eq!(samples[0].key.label("k"), Some("v"));
        assert!(matches!(samples[1].value, SampleValue::Gauge(-2)));
        match &samples[2].value {
            SampleValue::Histogram(data) => {
                assert_eq!(data.count, 2);
                assert_eq!(data.sum_us, 505);
                assert_eq!(data.quantile_bound_us(1.0), 512);
                let delta = data.delta(&HistogramData::default());
                assert_eq!(delta.count, 2);
                assert_eq!(data.delta(data).count, 0);
            }
            other => panic!("expected histogram, got {other:?}"),
        }
    }

    #[test]
    fn family_is_collect_filtered_by_name() {
        let reg = Registry::new();
        reg.counter("a_total", &[("k", "2")]).add(2);
        reg.counter("a_total", &[("k", "1")]).add(1);
        reg.counter("ab_total", &[]).add(9);
        reg.counter("b_total", &[]).add(4);
        reg.gauge("a_total", &[("k", "g")]).set(7);
        reg.gauge("c", &[]).set(5);
        reg.histogram("b_total", &[]).observe_us(3);
        reg.histogram("a", &[("z", "1")]).observe_us(3);
        assert_eq!(reg.series_count(), 8);
        let read = |h: &SeriesHandle| match h {
            SeriesHandle::Counter(c) => SampleValue::Counter(c.get()),
            SeriesHandle::Gauge(g) => SampleValue::Gauge(g.get()),
            SeriesHandle::Histogram(h) => SampleValue::Histogram(Box::new(h.snapshot())),
        };
        for name in ["a_total", "b_total", "a", "c", "missing"] {
            let resolved: Vec<String> = reg
                .family(name)
                .iter()
                .map(|(k, h)| format!("{k:?} {:?}", read(h)))
                .collect();
            let filtered: Vec<String> = reg
                .collect()
                .iter()
                .filter(|s| s.key.name == name)
                .map(|s| format!("{:?} {:?}", s.key, s.value))
                .collect();
            assert_eq!(resolved, filtered, "{name}");
        }
        // A prefix of another family's name selects only its own series.
        assert_eq!(reg.family("a_total").len(), 3);
        // Handles are live: later updates show through them.
        let SeriesHandle::Gauge(g) = &reg.family("c")[0].1 else {
            panic!("c is a gauge");
        };
        reg.gauge("c", &[]).set(6);
        assert_eq!(g.get(), 6);
        assert!(reg.same_store(&reg.clone()));
        assert!(!reg.same_store(&Registry::new()));
    }

    #[test]
    fn concurrent_updates() {
        let reg = Registry::new();
        let mut handles = Vec::new();
        for _ in 0..4 {
            let c = reg.counter("hits", &[]);
            let h = reg.histogram("lat", &[]);
            handles.push(std::thread::spawn(move || {
                for i in 0..1_000u64 {
                    c.inc();
                    h.observe_us(i);
                }
            }));
        }
        for t in handles {
            t.join().unwrap();
        }
        assert_eq!(reg.counter_value("hits", &[]), Some(4_000));
        assert_eq!(reg.histogram("lat", &[]).count(), 4_000);
    }
}
