//! In-memory spans recorded by the benchmark around its own calls into
//! each layer. A disabled tracer records nothing; an enabled one keeps
//! every span until the run ends, then the spans are summarised (self
//! time per layer) and written out as Chrome `trace_event` JSON.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One closed (or still open) span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Layer the wrapped call belongs to (`core`, `storage`, …) or
    /// `bench` for the benchmark's own loop.
    pub layer: &'static str,
    /// What the span wraps.
    pub name: &'static str,
    /// Index of the enclosing span in the same tracer, if any.
    pub parent: Option<usize>,
    /// Request the span belongs to: the frame period or the query index.
    pub request: u64,
    /// Start, nanoseconds since the tracer's origin.
    pub start_ns: u64,
    /// End, nanoseconds since the tracer's origin.
    pub end_ns: u64,
    /// Thread lane the span ran on (0 = engine thread).
    pub lane: u32,
}

impl Span {
    /// Wall duration in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Span recorder for one thread.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    origin: Instant,
    lane: u32,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A tracer on `lane`, timing from `origin`; `on = false` makes every
    /// call a no-op.
    pub fn new(on: bool, origin: Instant, lane: u32) -> Self {
        Self {
            on,
            origin,
            lane,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span nested in the innermost open one.
    pub fn enter(&mut self, layer: &'static str, name: &'static str, request: u64) {
        if !self.on {
            return;
        }
        let start_ns = self.now_ns();
        self.spans.push(Span {
            layer,
            name,
            parent: self.open.last().copied(),
            request,
            start_ns,
            end_ns: start_ns,
            lane: self.lane,
        });
        self.open.push(self.spans.len() - 1);
    }

    /// Closes the innermost open span.
    pub fn exit(&mut self) {
        if !self.on {
            return;
        }
        let end = self.now_ns();
        if let Some(i) = self.open.pop() {
            self.spans[i].end_ns = end;
        }
    }

    /// Runs `f` inside a span.
    pub fn span<R>(
        &mut self,
        layer: &'static str,
        name: &'static str,
        request: u64,
        f: impl FnOnce() -> R,
    ) -> R {
        self.enter(layer, name, request);
        let out = f();
        self.exit();
        out
    }

    /// Appends another thread's spans, re-pointing their parents.
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    /// Every recorded span, in opening order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Total length of the union of `intervals`, each clipped to `[lo, hi]`.
pub fn covered_ns(mut intervals: Vec<(u64, u64)>, lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut total = 0u64;
    let mut cursor = lo;
    for (s, e) in intervals {
        let s = s.max(cursor);
        let e = e.min(hi);
        if e > s {
            total += e - s;
            cursor = e;
        }
    }
    total
}

/// Self time of every span: its duration minus the part of it that its
/// child spans cover.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, kids)| s.duration_ns() - covered_ns(kids, s.start_ns, s.end_ns))
        .collect()
}

/// Self time summed per layer, over the spans that pass `keep`.
pub fn self_time_by_layer(
    spans: &[Span],
    keep: impl Fn(&Span) -> bool,
) -> BTreeMap<&'static str, u64> {
    let mut out = BTreeMap::new();
    for (s, own) in spans.iter().zip(self_times_ns(spans)) {
        if keep(s) {
            *out.entry(s.layer).or_insert(0) += own;
        }
    }
    out
}

/// The spans as Chrome `trace_event` JSON (complete `X` events, µs).
pub fn chrome_json(spans: &[Span]) -> String {
    let mut out = String::from("{\"traceEvents\":[");
    for (i, s) in spans.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\
             \"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"request\":{},\"parent\":{}}}}}",
            s.name,
            s.layer,
            s.lane,
            s.start_ns as f64 / 1e3,
            s.duration_ns() as f64 / 1e3,
            s.request,
            s.parent.map_or(-1, |p| p as i64),
        );
    }
    out.push_str("]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(layer: &'static str, parent: Option<usize>, start: u64, end: u64) -> Span {
        Span {
            layer,
            name: "x",
            parent,
            request: 0,
            start_ns: start,
            end_ns: end,
            lane: 0,
        }
    }

    #[test]
    fn union_of_intervals() {
        assert_eq!(covered_ns(vec![(0, 10), (5, 15), (20, 30)], 0, 100), 25);
        assert_eq!(covered_ns(vec![(0, 10), (2, 3)], 0, 100), 10);
        assert_eq!(covered_ns(vec![(0, 50)], 10, 20), 10);
        assert_eq!(covered_ns(Vec::new(), 0, 100), 0);
    }

    #[test]
    fn self_time_subtracts_children_once() {
        // Children that overlap (spans of two threads under one parent)
        // are subtracted as their union.
        let overlapping = vec![
            span("bench", None, 0, 100),
            span("core", Some(0), 10, 40),
            span("core", Some(0), 30, 60),
        ];
        assert_eq!(self_times_ns(&overlapping), vec![50, 30, 30]);

        // root [0,100) with children [10,40) and [50,60) and a grandchild
        // [15,20) inside the first child.
        let spans = vec![
            span("bench", None, 0, 100),
            span("core", Some(0), 10, 40),
            span("core", Some(0), 50, 60),
            span("obs", Some(1), 15, 20),
        ];
        assert_eq!(self_times_ns(&spans), vec![60, 25, 10, 5]);
        let by_layer = self_time_by_layer(&spans, |_| true);
        assert_eq!(by_layer["bench"], 60);
        assert_eq!(by_layer["core"], 35);
        assert_eq!(by_layer["obs"], 5);
        let total: u64 = by_layer.values().sum();
        assert_eq!(total, 100, "self times partition a single-thread root");
        let only_core = self_time_by_layer(&spans, |s| s.layer == "core");
        assert_eq!(only_core.len(), 1);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false, Instant::now(), 0);
        let v = t.span("core", "run", 1, || 7);
        assert_eq!(v, 7);
        assert!(t.spans().is_empty());
    }

    #[test]
    fn nesting_and_absorb() {
        let origin = Instant::now();
        let mut a = Tracer::new(true, origin, 0);
        a.enter("bench", "frame", 3);
        a.span("core", "run_until", 3, || ());
        a.exit();
        let mut b = Tracer::new(true, origin, 1);
        b.enter("storage", "query", 9);
        b.span("storage", "inner", 9, || ());
        b.exit();
        a.absorb(b);
        let s = a.spans();
        assert_eq!(s.len(), 4);
        assert_eq!(s[1].parent, Some(0));
        assert_eq!(s[3].parent, Some(2), "absorbed parents are re-pointed");
        assert_eq!(s[3].lane, 1);
        assert!(s.iter().all(|x| x.end_ns >= x.start_ns));
        assert!(chrome_json(s).contains("\"name\":\"run_until\""));
    }
}
