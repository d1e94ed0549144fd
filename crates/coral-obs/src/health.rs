//! The health/SLO engine: declarative rules evaluated over registry
//! snapshots, producing per-subject verdicts.
//!
//! A [`Rule`] names a metric family, how to reduce each series of that
//! family to a number ([`RuleInput`]), and the [`Thresholds`] that map the
//! number to a [`Verdict`]. The [`HealthEngine`] evaluates all rules
//! over live handles to the series of the families they read (keeping each
//! series' previous reading so rate/quantile rules see a *window*, not the
//! whole run), judges each subject (a label value, e.g. `camera="3"`) by
//! its worst finding, and builds a [`HealthReport`] when one is read. Verdict transitions are journaled as
//! [`JournalKind::HealthChange`] events so the flight recorder shows
//! *when* a node went critical alongside *why* (the fault events around
//! it).
//!
//! The engine is purely observational: it reads atomics and never touches
//! simulation state, so running it (or not) cannot change a DES run.

use crate::journal::{Journal, JournalEvent, JournalKind, Severity};
use crate::json::{number, quote};
use crate::registry::{
    bucket_bound_us, Counter, Gauge, Histogram, HistogramData, MetricKey, Registry, SeriesHandle,
    HISTOGRAM_BUCKETS,
};
use std::cell::OnceCell;
use std::fmt::Write as _;
use std::ops::Range;

/// A subject's health state, worst-wins ordered.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Verdict {
    /// All rules within thresholds.
    Ok,
    /// At least one rule past its degraded threshold.
    Degraded,
    /// At least one rule past its critical threshold.
    Critical,
}

impl Verdict {
    /// Stable lowercase name used in JSON exports.
    pub fn as_str(&self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Degraded => "degraded",
            Verdict::Critical => "critical",
        }
    }
}

/// Degraded/critical cutoffs; a value `>= degraded` is DEGRADED, `>=
/// critical` is CRITICAL (rules are phrased so that bigger is worse).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Thresholds {
    /// Value at or above which the subject is degraded.
    pub degraded: f64,
    /// Value at or above which the subject is critical.
    pub critical: f64,
}

impl Thresholds {
    /// Builds a threshold pair.
    pub fn new(degraded: f64, critical: f64) -> Self {
        Self { degraded, critical }
    }

    fn judge(&self, value: f64) -> Verdict {
        if value >= self.critical {
            Verdict::Critical
        } else if value >= self.degraded {
            Verdict::Degraded
        } else {
            Verdict::Ok
        }
    }
}

/// How a rule reduces a metric series to the judged number.
#[derive(Debug, Clone, PartialEq)]
pub enum RuleInput {
    /// The gauge's current value.
    GaugeValue,
    /// `now_ms - gauge` (a "last seen at" gauge), clamped at zero.
    GaugeStalenessMs,
    /// Counter increase per second since the previous evaluation.
    /// Produces nothing on the first evaluation.
    RatePerSec,
    /// The q-quantile (bucket upper bound, µs) of the histogram's
    /// observations since the previous evaluation. Windows with no new
    /// observations produce nothing.
    QuantileUs(f64),
    /// Max/mean imbalance across all series of the family, computed over
    /// windowed deltas (counter or histogram-sum). One global finding;
    /// needs at least two series.
    Imbalance,
    /// `delta(self) / (delta(self) + delta(complement))` over the window:
    /// the fraction of the total the named counter accounts for. One
    /// global finding; empty windows produce nothing.
    Fraction {
        /// The counter family forming the other half of the total.
        complement: String,
    },
}

/// One declarative SLO rule.
#[derive(Debug, Clone)]
pub struct Rule {
    /// Rule name, e.g. `heartbeat-staleness`.
    pub name: String,
    /// Metric family the rule reads.
    pub metric: String,
    /// Label whose value names the subject (e.g. `camera`, `endpoint`);
    /// `None` groups the finding under the rule name itself.
    pub subject_label: Option<String>,
    /// The reduction from series to judged number.
    pub input: RuleInput,
    /// The verdict cutoffs.
    pub thresholds: Thresholds,
}

impl Rule {
    /// Builds a rule.
    pub fn new(
        name: &str,
        metric: &str,
        subject_label: Option<&str>,
        input: RuleInput,
        thresholds: Thresholds,
    ) -> Self {
        Self {
            name: name.to_string(),
            metric: metric.to_string(),
            subject_label: subject_label.map(str::to_string),
            input,
            thresholds,
        }
    }
}

/// One rule's judgement of one subject.
#[derive(Debug, Clone)]
pub struct Finding {
    /// The rule that fired.
    pub rule: String,
    /// The subject it judged.
    pub subject: String,
    /// The reduced value that was compared against the thresholds.
    pub value: f64,
    /// The per-rule verdict.
    pub verdict: Verdict,
}

/// All findings for one subject; `verdict` is the worst of them.
#[derive(Debug, Clone)]
pub struct SubjectHealth {
    /// Subject name (label value or rule name).
    pub subject: String,
    /// Worst verdict across this subject's findings.
    pub verdict: Verdict,
    /// The individual rule findings.
    pub findings: Vec<Finding>,
}

/// The engine's output for one evaluation instant.
#[derive(Debug, Clone)]
pub struct HealthReport {
    /// Evaluation time (the caller's clock, milliseconds).
    pub at_ms: u64,
    /// Worst verdict across all subjects ([`Verdict::Ok`] when quiet).
    pub overall: Verdict,
    /// Per-subject health, sorted by subject name.
    pub subjects: Vec<SubjectHealth>,
    /// Journal events recorded since the previous evaluation — the
    /// operational context that triggered (or accompanied) the verdicts.
    pub events: Vec<JournalEvent>,
}

impl HealthReport {
    /// The verdict for `subject`, if any rule judged it this round.
    pub fn verdict_for(&self, subject: &str) -> Option<Verdict> {
        self.subjects
            .iter()
            .find(|s| s.subject == subject)
            .map(|s| s.verdict)
    }

    /// Serializes the report as a deterministic JSON document (wall-clock
    /// stamps on the attached journal events are omitted).
    pub fn to_json(&self) -> String {
        let mut out = String::from("{");
        let _ = write!(
            out,
            "\"at_ms\": {}, \"overall\": \"{}\", \"subjects\": [",
            self.at_ms,
            self.overall.as_str()
        );
        for (i, s) in self.subjects.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(
                out,
                "{{\"subject\": {}, \"verdict\": \"{}\", \"findings\": [",
                quote(&s.subject),
                s.verdict.as_str()
            );
            for (j, f) in s.findings.iter().enumerate() {
                if j > 0 {
                    out.push_str(", ");
                }
                let _ = write!(
                    out,
                    "{{\"rule\": {}, \"value\": {}, \"verdict\": \"{}\"}}",
                    quote(&f.rule),
                    number(f.value),
                    f.verdict.as_str()
                );
            }
            out.push_str("]}");
        }
        out.push_str("], \"events\": [");
        for (i, ev) in self.events.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            out.push_str(&ev.to_json_line(false));
        }
        out.push_str("]}\n");
        out
    }
}

/// The stateful rule evaluator. Not `Clone`: share it behind a mutex.
///
/// The series of the rule families are resolved once into live handles
/// and resolved again only when the registry's series count changes
/// (series are never removed, so a changed count means new ones). Between
/// resolutions an evaluation reads the atomics into the cached slots,
/// pushes compact findings and journals verdict transitions; it allocates
/// only when a verdict changes or new journal events arrived. The
/// string-heavy [`HealthReport`] is built on first read through
/// [`HealthEngine::latest`].
#[derive(Debug)]
pub struct HealthEngine {
    rules: Vec<Rule>,
    /// Every metric family a rule reads (a `Fraction` complement
    /// included), sorted.
    families: Vec<String>,
    /// Per rule: its family and complement as indices into `families`.
    rule_families: Vec<(usize, Option<usize>)>,
    cache: SeriesCache,
    /// Evaluation time of the readings the slots keep as `prev`.
    prev_at_ms: Option<u64>,
    /// The last evaluation's findings, in rule order, then series order.
    findings: Vec<CompactFinding>,
    /// Per subject: the worst verdict among the last evaluation's
    /// findings (`None`: no findings).
    worst: Vec<Option<Verdict>>,
    /// Per subject: the verdict transitions have been journaled against
    /// (`Ok` for a quiet subject).
    verdicts: Vec<Verdict>,
    /// Reused buffer of the `Imbalance` loads.
    loads: Vec<f64>,
    next_journal_seq: u64,
    last: Option<LastEvaluation>,
    report: OnceCell<HealthReport>,
}

/// What [`HealthEngine::latest`] builds its report from, besides the
/// findings.
#[derive(Debug)]
struct LastEvaluation {
    at_ms: u64,
    overall: Verdict,
    events: Vec<JournalEvent>,
}

/// One rule's judgement of one subject, by index.
#[derive(Debug, Clone, Copy)]
struct CompactFinding {
    rule: u32,
    subject: u32,
    value: f64,
    verdict: Verdict,
}

/// The rule families' series as live handles, plus the sorted table of
/// every subject name a rule can produce.
#[derive(Debug, Default)]
struct SeriesCache {
    /// The registry and its series count at resolution.
    source: Option<(Registry, usize)>,
    /// Every family's series, family by family in `families` order and
    /// in [`Registry::family`] order within one.
    slots: Vec<Slot>,
    /// Each family's range of `slots`.
    ranges: Vec<Range<usize>>,
    /// Sorted, deduplicated subject names.
    subjects: Vec<String>,
    /// Per rule: the subject of each series of its family (aligned with
    /// the family's range), and its own name's subject.
    rule_subjects: Vec<(Vec<u32>, u32)>,
}

#[derive(Debug)]
struct Slot {
    key: MetricKey,
    series: Series,
}

impl Slot {
    /// The sort position within a family: [`Registry::family`] orders
    /// counters, then gauges, then histograms, each by key.
    fn position(&self) -> (u8, &MetricKey) {
        let rank = match self.series {
            Series::Counter { .. } => 0,
            Series::Gauge { .. } => 1,
            Series::Histogram { .. } => 2,
        };
        (rank, &self.key)
    }
}

/// A live handle with its reading at this evaluation (`now`) and, for
/// the kinds windowed rules read as deltas, at the previous one (`prev`,
/// zero for a series that did not exist then).
#[derive(Debug)]
enum Series {
    Counter {
        handle: Counter,
        now: u64,
        prev: u64,
    },
    Gauge {
        handle: Gauge,
        now: i64,
    },
    Histogram {
        handle: Histogram,
        now: Box<HistogramData>,
        prev: Box<HistogramData>,
    },
}

impl Series {
    fn new(handle: SeriesHandle) -> Self {
        match handle {
            SeriesHandle::Counter(handle) => Series::Counter {
                handle,
                now: 0,
                prev: 0,
            },
            SeriesHandle::Gauge(handle) => Series::Gauge { handle, now: 0 },
            SeriesHandle::Histogram(handle) => Series::Histogram {
                handle,
                now: Box::default(),
                prev: Box::default(),
            },
        }
    }

    /// Adopts the previous-window reading of the same series resolved
    /// earlier.
    fn carry_prev(&mut self, old: &mut Series) {
        match (self, old) {
            (Series::Counter { prev, .. }, Series::Counter { prev: p, .. }) => *prev = *p,
            (Series::Histogram { prev, .. }, Series::Histogram { prev: p, .. }) => {
                std::mem::swap(prev, p)
            }
            _ => {}
        }
    }

    fn read(&mut self) {
        match self {
            Series::Counter { handle, now, .. } => *now = handle.get(),
            Series::Gauge { handle, now } => *now = handle.get(),
            Series::Histogram { handle, now, .. } => **now = handle.snapshot(),
        }
    }

    /// Makes this evaluation's reading the next window's baseline.
    fn advance(&mut self) {
        match self {
            Series::Counter { now, prev, .. } => *prev = *now,
            Series::Gauge { .. } => {}
            Series::Histogram { now, prev, .. } => std::mem::swap(now, prev),
        }
    }
}

impl HealthEngine {
    /// Builds an engine over `rules`.
    pub fn new(rules: Vec<Rule>) -> Self {
        let complement = |rule: &Rule| match &rule.input {
            RuleInput::Fraction { complement } => Some(complement.clone()),
            _ => None,
        };
        let mut families: Vec<String> = rules
            .iter()
            .flat_map(|rule| std::iter::once(rule.metric.clone()).chain(complement(rule)))
            .collect();
        families.sort();
        families.dedup();
        let index = |name: &str| {
            families
                .binary_search_by(|f| f.as_str().cmp(name))
                .expect("every rule family is listed")
        };
        let rule_families = rules
            .iter()
            .map(|rule| (index(&rule.metric), complement(rule).map(|c| index(&c))))
            .collect();
        Self {
            rules,
            families,
            rule_families,
            cache: SeriesCache::default(),
            prev_at_ms: None,
            findings: Vec::new(),
            worst: Vec::new(),
            verdicts: Vec::new(),
            loads: Vec::new(),
            next_journal_seq: 0,
            last: None,
            report: OnceCell::new(),
        }
    }

    /// The installed rules.
    pub fn rules(&self) -> &[Rule] {
        &self.rules
    }

    /// The most recent report, if the engine has evaluated at least once.
    /// Built from the last evaluation's findings on the first call after
    /// it; later calls return the same report.
    pub fn latest(&self) -> Option<&HealthReport> {
        let last = self.last.as_ref()?;
        Some(self.report.get_or_init(|| self.build_report(last)))
    }

    /// Evaluates every rule against the registry's current state at
    /// `now_ms`, attaches the journal events recorded since the previous
    /// evaluation, journals verdict transitions, and returns the overall
    /// verdict ([`Verdict::Ok`] when no rule judged anything). The full
    /// report is [`HealthEngine::latest`].
    pub fn evaluate(
        &mut self,
        registry: &Registry,
        journal: Option<&Journal>,
        now_ms: u64,
    ) -> Verdict {
        let count = registry.series_count();
        let current = matches!(
            &self.cache.source,
            Some((r, c)) if *c == count && r.same_store(registry)
        );
        if !current {
            self.resolve(registry, count);
        }
        for slot in &mut self.cache.slots {
            slot.series.read();
        }
        let dt_s = self
            .prev_at_ms
            .map(|p| (now_ms.saturating_sub(p)) as f64 / 1e3);

        self.findings.clear();
        for (r, rule) in self.rules.iter().enumerate() {
            let (family, complement) = self.rule_families[r];
            let (subjects, own) = &self.cache.rule_subjects[r];
            let judged = Judged {
                index: r as u32,
                rule,
                family: &self.cache.slots[self.cache.ranges[family].clone()],
                complement: complement.map(|c| &self.cache.slots[self.cache.ranges[c].clone()]),
                subjects,
                own: *own,
            };
            judged.evaluate(dt_s, now_ms, &mut self.loads, &mut self.findings);
        }

        // Worst verdict per subject.
        self.worst.clear();
        self.worst.resize(self.cache.subjects.len(), None);
        for f in &self.findings {
            let worst = &mut self.worst[f.subject as usize];
            *worst = Some(worst.map_or(f.verdict, |w| w.max(f.verdict)));
        }
        let overall = self
            .worst
            .iter()
            .flatten()
            .copied()
            .max()
            .unwrap_or(Verdict::Ok);

        // Attach the journal window that led up to this evaluation.
        let events = match journal {
            Some(j) => {
                let evs = j.since(self.next_journal_seq);
                self.next_journal_seq = j.recorded_total();
                evs
            }
            None => Vec::new(),
        };
        if let Some(j) = journal {
            self.journal_transitions(j, now_ms);
        }
        // A quiet subject is OK.
        for (verdict, worst) in self.verdicts.iter_mut().zip(&self.worst) {
            *verdict = worst.unwrap_or(Verdict::Ok);
        }

        for slot in &mut self.cache.slots {
            slot.series.advance();
        }
        self.prev_at_ms = Some(now_ms);
        self.last = Some(LastEvaluation {
            at_ms: now_ms,
            overall,
            events,
        });
        self.report = OnceCell::new();
        overall
    }

    /// Resolves the rule families' series against `registry` (which had
    /// `count` series): every series keeps its previous-window reading
    /// and every subject its journaled verdict.
    fn resolve(&mut self, registry: &Registry, count: usize) {
        let old = std::mem::take(&mut self.cache);
        let mut old_slots = old.slots;
        let mut slots: Vec<Slot> = Vec::new();
        let mut ranges = Vec::with_capacity(self.families.len());
        for (f, name) in self.families.iter().enumerate() {
            let start = slots.len();
            // Both sides are in `Registry::family` order: merge them.
            let mut old_family = old
                .ranges
                .get(f)
                .map_or(&mut [][..], |r| &mut old_slots[r.clone()])
                .iter_mut()
                .peekable();
            for (key, handle) in registry.family(name) {
                let mut slot = Slot {
                    key,
                    series: Series::new(handle),
                };
                while old_family
                    .peek()
                    .is_some_and(|o| o.position() < slot.position())
                {
                    old_family.next();
                }
                if let Some(o) = old_family.next_if(|o| o.position() == slot.position()) {
                    slot.series.carry_prev(&mut o.series);
                }
                slots.push(slot);
            }
            ranges.push(start..slots.len());
        }

        // The subject table: every subject a rule can produce, plus the
        // earlier non-OK ones so their verdicts carry over.
        let carried: Vec<(String, Verdict)> = old
            .subjects
            .into_iter()
            .zip(self.verdicts.iter().copied())
            .filter(|&(_, verdict)| verdict != Verdict::Ok)
            .collect();
        let mut subjects: Vec<String> = carried.iter().map(|(name, _)| name.clone()).collect();
        for (rule, &(family, _)) in self.rules.iter().zip(&self.rule_families) {
            subjects.push(rule.name.clone());
            let family = &slots[ranges[family].clone()];
            subjects.extend(
                family
                    .iter()
                    .map(|s| subject_name(rule, &s.key).to_string()),
            );
        }
        subjects.sort_unstable();
        subjects.dedup();
        let intern = |name: &str| -> u32 {
            subjects
                .binary_search_by(|s| s.as_str().cmp(name))
                .expect("every subject is interned") as u32
        };
        let rule_subjects = self
            .rules
            .iter()
            .zip(&self.rule_families)
            .map(|(rule, &(family, _))| {
                let family = &slots[ranges[family].clone()];
                let series = family
                    .iter()
                    .map(|s| intern(subject_name(rule, &s.key)))
                    .collect();
                (series, intern(&rule.name))
            })
            .collect();
        let mut verdicts = vec![Verdict::Ok; subjects.len()];
        for (name, verdict) in &carried {
            verdicts[intern(name) as usize] = *verdict;
        }
        self.verdicts = verdicts;
        self.cache = SeriesCache {
            source: Some((registry.clone(), count)),
            slots,
            ranges,
            subjects,
            rule_subjects,
        };
    }

    /// Journals this evaluation's verdict transitions against
    /// `self.verdicts`: first the subjects with findings, ascending, then
    /// the non-OK subjects that went quiet (no findings means OK).
    fn journal_transitions(&self, journal: &Journal, now_ms: u64) {
        let record = |subject: usize, old: Verdict, new: Verdict| {
            let mut detail = format!("{} -> {}", old.as_str(), new.as_str());
            for f in &self.findings {
                if f.subject as usize == subject && f.verdict == new {
                    let rule = &self.rules[f.rule as usize].name;
                    let _ = write!(detail, "; {}={}", rule, number(f.value));
                }
            }
            let severity = match new {
                Verdict::Ok => Severity::Info,
                Verdict::Degraded => Severity::Warn,
                Verdict::Critical => Severity::Error,
            };
            journal.record(
                JournalKind::HealthChange,
                severity,
                now_ms * 1_000,
                &self.cache.subjects[subject],
                &detail,
            );
        };
        for (s, (worst, &old)) in self.worst.iter().zip(&self.verdicts).enumerate() {
            if let Some(new) = *worst {
                if new != old {
                    record(s, old, new);
                }
            }
        }
        for (s, (worst, &old)) in self.worst.iter().zip(&self.verdicts).enumerate() {
            if worst.is_none() && old != Verdict::Ok {
                record(s, old, Verdict::Ok);
            }
        }
    }

    fn build_report(&self, last: &LastEvaluation) -> HealthReport {
        // A stable sort keeps each subject's findings in push order.
        let mut by_subject: Vec<&CompactFinding> = self.findings.iter().collect();
        by_subject.sort_by_key(|f| f.subject);
        let subjects = by_subject
            .chunk_by(|a, b| a.subject == b.subject)
            .map(|group| {
                let subject = &self.cache.subjects[group[0].subject as usize];
                let findings: Vec<Finding> = group
                    .iter()
                    .map(|f| Finding {
                        rule: self.rules[f.rule as usize].name.clone(),
                        subject: subject.clone(),
                        value: f.value,
                        verdict: f.verdict,
                    })
                    .collect();
                SubjectHealth {
                    subject: subject.clone(),
                    verdict: findings
                        .iter()
                        .map(|f| f.verdict)
                        .max()
                        .unwrap_or(Verdict::Ok),
                    findings,
                }
            })
            .collect();
        HealthReport {
            at_ms: last.at_ms,
            overall: last.overall,
            subjects,
            events: last.events.clone(),
        }
    }
}

/// The subject a rule judges series `key` under: its subject label's
/// value, else the rule name.
fn subject_name<'a>(rule: &'a Rule, key: &'a MetricKey) -> &'a str {
    rule.subject_label
        .as_deref()
        .and_then(|label| key.label(label))
        .unwrap_or(&rule.name)
}

/// One rule with its resolved series, ready to judge.
struct Judged<'a> {
    index: u32,
    rule: &'a Rule,
    family: &'a [Slot],
    complement: Option<&'a [Slot]>,
    /// The subject of each series of `family`.
    subjects: &'a [u32],
    /// The rule name's subject: global findings.
    own: u32,
}

impl Judged<'_> {
    fn evaluate(
        &self,
        dt_s: Option<f64>,
        now_ms: u64,
        loads: &mut Vec<f64>,
        out: &mut Vec<CompactFinding>,
    ) {
        if self.family.is_empty() {
            return;
        }
        let mut push = |subject: u32, value: f64| {
            out.push(CompactFinding {
                rule: self.index,
                subject,
                value,
                verdict: self.rule.thresholds.judge(value),
            });
        };
        let series = self.family.iter().map(|s| &s.series).zip(self.subjects);

        match &self.rule.input {
            RuleInput::GaugeValue => {
                for (s, &subject) in series {
                    if let Series::Gauge { now, .. } = s {
                        push(subject, *now as f64);
                    }
                }
            }
            RuleInput::GaugeStalenessMs => {
                for (s, &subject) in series {
                    if let Series::Gauge { now, .. } = s {
                        let staleness = (now_ms as i64).saturating_sub(*now).max(0);
                        push(subject, staleness as f64);
                    }
                }
            }
            RuleInput::RatePerSec => {
                let Some(dt) = dt_s.filter(|d| *d > 0.0) else {
                    return;
                };
                for (s, &subject) in series {
                    if let Series::Counter { now, prev, .. } = s {
                        push(subject, now.saturating_sub(*prev) as f64 / dt);
                    }
                }
            }
            RuleInput::QuantileUs(q) => {
                for (s, &subject) in series {
                    if let Series::Histogram { now, prev, .. } = s {
                        let window = now.delta(prev);
                        if window.count == 0 {
                            continue;
                        }
                        let v = window.quantile_bound_us(*q);
                        let v = if v == u64::MAX {
                            // Overflow bucket: judge as one past the last bound.
                            bucket_bound_us(HISTOGRAM_BUCKETS) as f64
                        } else {
                            v as f64
                        };
                        push(subject, v);
                    }
                }
            }
            RuleInput::Imbalance => {
                loads.clear();
                loads.extend(self.family.iter().map(|s| match &s.series {
                    Series::Counter { now, prev, .. } => now.saturating_sub(*prev) as f64,
                    Series::Histogram { now, prev, .. } => {
                        now.sum_us.saturating_sub(prev.sum_us) as f64
                    }
                    Series::Gauge { now, .. } => *now as f64,
                }));
                if loads.len() < 2 {
                    return;
                }
                let mean = loads.iter().sum::<f64>() / loads.len() as f64;
                if mean <= 0.0 {
                    return;
                }
                let max = loads.iter().copied().fold(f64::MIN, f64::max);
                push(self.own, max / mean);
            }
            RuleInput::Fraction { .. } => {
                let delta_sum = |slots: &[Slot]| -> u64 {
                    slots
                        .iter()
                        .map(|s| match &s.series {
                            Series::Counter { now, prev, .. } => now.saturating_sub(*prev),
                            _ => 0,
                        })
                        .sum()
                };
                let own = delta_sum(self.family);
                let other = self.complement.map_or(0, delta_sum);
                let total = own + other;
                if total == 0 {
                    return;
                }
                push(self.own, own as f64 / total as f64);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::parse;

    fn engine_one(rule: Rule) -> HealthEngine {
        HealthEngine::new(vec![rule])
    }

    #[test]
    fn staleness_rule_flags_silent_subject() {
        let reg = Registry::new();
        reg.gauge("last_seen_ms", &[("camera", "0")]).set(9_000);
        reg.gauge("last_seen_ms", &[("camera", "1")]).set(1_000);
        let mut eng = engine_one(Rule::new(
            "heartbeat-staleness",
            "last_seen_ms",
            Some("camera"),
            RuleInput::GaugeStalenessMs,
            Thresholds::new(2_000.0, 4_000.0),
        ));
        assert!(eng.latest().is_none());
        assert_eq!(eng.evaluate(&reg, None, 10_000), Verdict::Critical);
        let report = eng.latest().unwrap();
        assert_eq!(report.verdict_for("0"), Some(Verdict::Ok));
        assert_eq!(report.verdict_for("1"), Some(Verdict::Critical));
        assert_eq!(report.overall, Verdict::Critical);
        // A camera that joins later is picked up, and the report is
        // rebuilt after the next evaluation only.
        reg.gauge("last_seen_ms", &[("camera", "2")]).set(9_500);
        assert_eq!(eng.latest().unwrap().subjects.len(), 2);
        reg.gauge("last_seen_ms", &[("camera", "1")]).set(9_900);
        assert_eq!(eng.evaluate(&reg, None, 10_000), Verdict::Ok);
        let report = eng.latest().unwrap();
        assert_eq!(report.subjects.len(), 3);
        assert_eq!(report.verdict_for("2"), Some(Verdict::Ok));
    }

    #[test]
    fn rate_rule_needs_a_window() {
        let reg = Registry::new();
        let c = reg.counter("retries_total", &[("endpoint", "cam1")]);
        let mut eng = engine_one(Rule::new(
            "retransmit-rate",
            "retries_total",
            Some("endpoint"),
            RuleInput::RatePerSec,
            Thresholds::new(0.5, 50.0),
        ));
        // First evaluation: no baseline, no findings.
        eng.evaluate(&reg, None, 1_000);
        let r0 = eng.latest().unwrap();
        assert!(r0.subjects.is_empty());
        assert_eq!(r0.overall, Verdict::Ok);
        // 10 retries over 2 s -> 5/s -> degraded.
        c.add(10);
        eng.evaluate(&reg, None, 3_000);
        let r1 = eng.latest().unwrap();
        assert_eq!(r1.verdict_for("cam1"), Some(Verdict::Degraded));
        // Quiet window -> back to OK.
        eng.evaluate(&reg, None, 5_000);
        let r2 = eng.latest().unwrap();
        assert_eq!(r2.verdict_for("cam1"), Some(Verdict::Ok));
    }

    #[test]
    fn quantile_rule_windows_histogram() {
        let reg = Registry::new();
        let h = reg.histogram("lat_us", &[]);
        for _ in 0..100 {
            h.observe_us(1_000);
        }
        let mut eng = engine_one(Rule::new(
            "latency-p99",
            "lat_us",
            None,
            RuleInput::QuantileUs(0.99),
            Thresholds::new(2_500_000.0, 5_000_000.0),
        ));
        eng.evaluate(&reg, None, 1_000);
        let r0 = eng.latest().unwrap();
        assert_eq!(r0.verdict_for("latency-p99"), Some(Verdict::Ok));
        // A burst of 8 s observations dominates the next window's p99.
        for _ in 0..100 {
            h.observe_us(8_000_000);
        }
        eng.evaluate(&reg, None, 2_000);
        let r1 = eng.latest().unwrap();
        assert_eq!(r1.verdict_for("latency-p99"), Some(Verdict::Critical));
    }

    #[test]
    fn transitions_are_journaled() {
        let reg = Registry::new();
        let g = reg.gauge("last_seen_ms", &[("camera", "2")]);
        g.set(1_000);
        let journal = Journal::new();
        let mut eng = engine_one(Rule::new(
            "heartbeat-staleness",
            "last_seen_ms",
            Some("camera"),
            RuleInput::GaugeStalenessMs,
            Thresholds::new(2_000.0, 4_000.0),
        ));
        eng.evaluate(&reg, Some(&journal), 1_500); // ok
        eng.evaluate(&reg, Some(&journal), 6_000); // critical
        g.set(7_000);
        eng.evaluate(&reg, Some(&journal), 7_000); // back to ok
        let kinds: Vec<(JournalKind, String)> = journal
            .recent(100)
            .into_iter()
            .map(|e| (e.kind, e.detail))
            .collect();
        assert_eq!(kinds.len(), 2);
        assert_eq!(kinds[0].0, JournalKind::HealthChange);
        assert!(kinds[0].1.starts_with("ok -> critical"), "{}", kinds[0].1);
        assert!(kinds[1].1.starts_with("critical -> ok"), "{}", kinds[1].1);
        // The healthy report carries the transition events recorded since
        // the previous evaluation.
        let latest = eng.latest().unwrap();
        assert_eq!(latest.events.len(), 1);
        assert_eq!(latest.events[0].kind, JournalKind::HealthChange);
    }

    #[test]
    fn imbalance_and_fraction_rules() {
        let reg = Registry::new();
        reg.counter("busy_us", &[("worker", "0")]).add(100);
        reg.counter("busy_us", &[("worker", "1")]).add(100);
        reg.counter("stepped_total", &[]).add(90);
        reg.counter("skipped_total", &[]).add(10);
        let mut eng = HealthEngine::new(vec![
            Rule::new(
                "worker-imbalance",
                "busy_us",
                None,
                RuleInput::Imbalance,
                Thresholds::new(1.5, 1.9),
            ),
            Rule::new(
                "sparse-active-fraction",
                "stepped_total",
                None,
                RuleInput::Fraction {
                    complement: "skipped_total".to_string(),
                },
                Thresholds::new(0.8, 0.95),
            ),
        ]);
        eng.evaluate(&reg, None, 1_000);
        let r0 = eng.latest().unwrap();
        assert_eq!(r0.verdict_for("worker-imbalance"), Some(Verdict::Ok));
        assert_eq!(
            r0.verdict_for("sparse-active-fraction"),
            Some(Verdict::Degraded)
        );
        // Skew the next window hard onto worker 0.
        reg.counter("busy_us", &[("worker", "0")]).add(10_000);
        reg.counter("skipped_total", &[]).add(1_000);
        eng.evaluate(&reg, None, 2_000);
        let r1 = eng.latest().unwrap();
        assert_eq!(r1.verdict_for("worker-imbalance"), Some(Verdict::Critical));
        assert_eq!(r1.verdict_for("sparse-active-fraction"), Some(Verdict::Ok));
    }

    #[test]
    fn report_json_is_deterministic_and_parses() {
        let reg = Registry::new();
        reg.gauge("last_seen_ms", &[("camera", "0")]).set(0);
        let mut eng = engine_one(Rule::new(
            "heartbeat-staleness",
            "last_seen_ms",
            Some("camera"),
            RuleInput::GaugeStalenessMs,
            Thresholds::new(2_000.0, 4_000.0),
        ));
        eng.evaluate(&reg, None, 10_000);
        let report = eng.latest().unwrap();
        let json = report.to_json();
        assert_eq!(json, report.to_json());
        let doc = parse(&json).unwrap();
        assert_eq!(doc.get("overall").unwrap().as_str(), Some("critical"));
        let subjects = doc.get("subjects").unwrap().as_array().unwrap();
        assert_eq!(subjects[0].get("subject").unwrap().as_str(), Some("0"));
        let findings = subjects[0].get("findings").unwrap().as_array().unwrap();
        assert_eq!(
            findings[0].get("rule").unwrap().as_str(),
            Some("heartbeat-staleness")
        );
        assert_eq!(findings[0].get("value").unwrap().as_f64(), Some(10_000.0));
    }
}
