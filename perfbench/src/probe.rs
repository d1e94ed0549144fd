//! Read-only probes of a running system: registry snapshots (window
//! deltas), the trajectory-graph fingerprint, process memory and host
//! provenance.

use coral_core::CoralPieSystem;
use coral_obs::{HistogramData, Registry, SampleValue};
use std::collections::BTreeMap;

/// Counters summed over label sets, plus labelled histograms, at one
/// instant.
#[derive(Debug, Clone, Default)]
pub struct RegSnap {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, i64>,
    histograms: BTreeMap<String, HistogramData>,
}

impl RegSnap {
    /// Captures `registry`. Counters and gauges are summed per name;
    /// histograms are keyed `name` or `name{op}` by their `op` label.
    pub fn take(registry: &Registry) -> Self {
        let mut snap = Self::default();
        for s in registry.collect() {
            let name = s.key.name.clone();
            match s.value {
                SampleValue::Counter(v) => *snap.counters.entry(name).or_insert(0) += v,
                SampleValue::Gauge(v) => *snap.gauges.entry(name).or_insert(0) += v,
                SampleValue::Histogram(h) => {
                    let key = match s.key.label("op") {
                        Some(op) => format!("{name}{{{op}}}"),
                        None => name,
                    };
                    let slot = snap.histograms.entry(key).or_default();
                    *slot = merge(slot, &h);
                }
            }
        }
        snap
    }

    /// Counter total (summed over labels); 0 if absent.
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Gauge total (summed over labels); 0 if absent.
    pub fn gauge(&self, name: &str) -> i64 {
        self.gauges.get(name).copied().unwrap_or(0)
    }

    /// Histogram by key; empty if absent.
    pub fn histogram(&self, key: &str) -> HistogramData {
        self.histograms.get(key).cloned().unwrap_or_default()
    }
}

fn merge(a: &HistogramData, b: &HistogramData) -> HistogramData {
    HistogramData {
        buckets: std::array::from_fn(|i| a.buckets[i] + b.buckets[i]),
        overflow: a.overflow + b.overflow,
        count: a.count + b.count,
        sum_us: a.sum_us + b.sum_us,
    }
}

/// Window deltas between two snapshots.
#[derive(Debug, Clone)]
pub struct Delta<'a> {
    /// Snapshot at window open.
    pub before: &'a RegSnap,
    /// Snapshot at window close.
    pub after: &'a RegSnap,
}

impl Delta<'_> {
    /// Counter increase over the window.
    pub fn counter(&self, name: &str) -> f64 {
        self.after
            .counter(name)
            .saturating_sub(self.before.counter(name)) as f64
    }

    /// Histogram observations recorded in the window.
    pub fn histogram(&self, key: &str) -> HistogramData {
        self.after.histogram(key).delta(&self.before.histogram(key))
    }
}

/// FNV-1a over the trajectory graph: every vertex (id, camera, interval,
/// event) and every edge (endpoints, weight bits), in store order.
pub fn fingerprint(sys: &CoralPieSystem) -> u64 {
    sys.with_trajectory_graph(|g| {
        let mut h = Fnv::default();
        for v in g.vertices() {
            h.u64(v.id.0);
            h.u64(u64::from(v.camera.0));
            h.u64(v.first_seen_ms);
            h.u64(v.last_seen_ms);
            h.u64(v.event.camera.0.into());
            h.u64(v.event.track.0);
        }
        for e in g.edges() {
            h.u64(e.from.0);
            h.u64(e.to.0);
            h.u64(e.weight.to_bits());
        }
        h.0
    })
}

/// 64-bit FNV-1a.
pub struct Fnv(pub u64);

impl Default for Fnv {
    fn default() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    /// Mixes in one word, byte by byte.
    pub fn u64(&mut self, x: u64) {
        for b in x.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }
}

/// Peak resident set of this process (`VmHWM`), MB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Host CPU count as the process sees it.
pub fn host_cpus() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// First line of a command's standard output, or `unknown`.
pub fn command_line(program: &str, args: &[&str]) -> String {
    std::process::Command::new(program)
        .args(args)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".to_string())
}

/// SplitMix64: the benchmark's own deterministic parameter stream.
#[derive(Debug, Clone)]
pub struct SplitMix(pub u64);

impl SplitMix {
    /// Next pseudo-random word.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform-ish integer in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n.max(1)
    }
}
