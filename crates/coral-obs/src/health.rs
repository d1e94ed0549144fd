//! The health/SLO engine: declarative rules evaluated over registry
//! snapshots, producing per-subject verdicts.
//!
//! A [`Rule`] names a metric family, how to reduce each series of that
//! family to a number ([`RuleInput`]), and the [`Thresholds`] that map the
//! number to a [`Verdict`]. The [`HealthEngine`] evaluates all rules
//! against a [`crate::Registry::collect_families`] snapshot of the
//! families they read (keeping the previous snapshot of the windowed ones
//! so rate/quantile rules see a *window*, not the whole run),
//! groups findings by subject (a label value, e.g. `camera="3"`), and
//! emits a [`HealthReport`]. Verdict transitions are journaled as
//! [`JournalKind::HealthChange`] events so the flight recorder shows
//! *when* a node went critical alongside *why* (the fault events around
//! it).
//!
//! The engine is purely observational: it reads atomics and never touches
//! simulation state, so running it (or not) cannot change a DES run.

use crate::journal::{Journal, JournalEvent, JournalKind, Severity};
use crate::json::{number, quote};
use crate::registry::{MetricKey, Registry, RegistrySample, SampleValue};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;

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
#[derive(Debug)]
pub struct HealthEngine {
    rules: Vec<Rule>,
    /// Every metric family a rule reads (a `Fraction` complement
    /// included): the only series an evaluation collects.
    families: Vec<String>,
    /// The families a windowed rule (rate, quantile, imbalance, fraction)
    /// reads: the only series the previous snapshot keeps.
    windowed: BTreeSet<String>,
    prev: Option<PrevSnapshot>,
    verdicts: BTreeMap<String, Verdict>,
    next_journal_seq: u64,
    latest: Option<HealthReport>,
}

#[derive(Debug)]
struct PrevSnapshot {
    at_ms: u64,
    samples: BTreeMap<MetricKey, SampleValue>,
}

impl HealthEngine {
    /// Builds an engine over `rules`.
    pub fn new(rules: Vec<Rule>) -> Self {
        let mut families = BTreeSet::new();
        let mut windowed = BTreeSet::new();
        for rule in &rules {
            families.insert(rule.metric.clone());
            match &rule.input {
                RuleInput::GaugeValue | RuleInput::GaugeStalenessMs => {}
                RuleInput::RatePerSec | RuleInput::QuantileUs(_) | RuleInput::Imbalance => {
                    windowed.insert(rule.metric.clone());
                }
                RuleInput::Fraction { complement } => {
                    families.insert(complement.clone());
                    windowed.insert(rule.metric.clone());
                    windowed.insert(complement.clone());
                }
            }
        }
        Self {
            rules,
            families: families.into_iter().collect(),
            windowed,
            prev: None,
            verdicts: BTreeMap::new(),
            next_journal_seq: 0,
            latest: None,
        }
    }

    /// The installed rules.
    pub fn rules(&self) -> &[Rule] {
        &self.rules
    }

    /// The most recent report, if the engine has evaluated at least once.
    pub fn latest(&self) -> Option<&HealthReport> {
        self.latest.as_ref()
    }

    /// Evaluates every rule against the registry's current state at
    /// `now_ms`, attaches the journal events recorded since the previous
    /// evaluation, and journals verdict transitions. The report is kept as
    /// [`HealthEngine::latest`] and returned by reference; clone it to own
    /// it.
    pub fn evaluate(
        &mut self,
        registry: &Registry,
        journal: Option<&Journal>,
        now_ms: u64,
    ) -> &HealthReport {
        let samples = registry.collect_families(&self.families);
        let dt_s = self
            .prev
            .as_ref()
            .map(|p| (now_ms.saturating_sub(p.at_ms)) as f64 / 1e3);

        let mut findings: Vec<Finding> = Vec::new();
        for rule in &self.rules {
            evaluate_rule(
                rule,
                &samples,
                self.prev.as_ref(),
                dt_s,
                now_ms,
                &mut findings,
            );
        }

        // Group by subject, worst verdict wins.
        let mut by_subject: BTreeMap<String, Vec<Finding>> = BTreeMap::new();
        for f in findings {
            by_subject.entry(f.subject.clone()).or_default().push(f);
        }
        let subjects: Vec<SubjectHealth> = by_subject
            .into_iter()
            .map(|(subject, findings)| {
                let verdict = findings
                    .iter()
                    .map(|f| f.verdict)
                    .max()
                    .unwrap_or(Verdict::Ok);
                SubjectHealth {
                    subject,
                    verdict,
                    findings,
                }
            })
            .collect();
        let overall = subjects
            .iter()
            .map(|s| s.verdict)
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

        // Journal verdict transitions (including subjects that went
        // quiet: no findings this round means OK).
        let mut new_verdicts: BTreeMap<String, Verdict> = BTreeMap::new();
        for s in &subjects {
            new_verdicts.insert(s.subject.clone(), s.verdict);
        }
        if let Some(j) = journal {
            for (subject, &verdict) in &new_verdicts {
                let old = self.verdicts.get(subject).copied().unwrap_or(Verdict::Ok);
                if verdict != old {
                    journal_transition(j, now_ms, subject, old, verdict, &subjects);
                }
            }
            for (subject, &old) in &self.verdicts {
                if old != Verdict::Ok && !new_verdicts.contains_key(subject) {
                    journal_transition(j, now_ms, subject, old, Verdict::Ok, &subjects);
                }
            }
        }
        // Forget OK subjects so the map stays bounded.
        self.verdicts = new_verdicts
            .into_iter()
            .filter(|(_, v)| *v != Verdict::Ok)
            .collect();

        // Only windowed rules read the previous snapshot.
        let windowed = &self.windowed;
        self.prev = Some(PrevSnapshot {
            at_ms: now_ms,
            samples: samples
                .into_iter()
                .filter(|s| windowed.contains(&s.key.name))
                .map(|s| (s.key, s.value))
                .collect(),
        });

        self.latest.insert(HealthReport {
            at_ms: now_ms,
            overall,
            subjects,
            events,
        })
    }
}

fn journal_transition(
    journal: &Journal,
    now_ms: u64,
    subject: &str,
    old: Verdict,
    new: Verdict,
    subjects: &[SubjectHealth],
) {
    let severity = match new {
        Verdict::Ok => Severity::Info,
        Verdict::Degraded => Severity::Warn,
        Verdict::Critical => Severity::Error,
    };
    let mut detail = format!("{} -> {}", old.as_str(), new.as_str());
    if let Some(s) = subjects.iter().find(|s| s.subject == subject) {
        for f in s.findings.iter().filter(|f| f.verdict == new) {
            let _ = write!(detail, "; {}={}", f.rule, number(f.value));
        }
    }
    journal.record(
        JournalKind::HealthChange,
        severity,
        now_ms * 1_000,
        subject,
        &detail,
    );
}

fn evaluate_rule(
    rule: &Rule,
    samples: &[RegistrySample],
    prev: Option<&PrevSnapshot>,
    dt_s: Option<f64>,
    now_ms: u64,
    out: &mut Vec<Finding>,
) {
    let family: Vec<&RegistrySample> = samples
        .iter()
        .filter(|s| s.key.name == rule.metric)
        .collect();
    if family.is_empty() {
        return;
    }
    let subject_of = |key: &MetricKey| -> String {
        match &rule.subject_label {
            Some(label) => key
                .label(label)
                .map(str::to_string)
                .unwrap_or_else(|| rule.name.clone()),
            None => rule.name.clone(),
        }
    };
    let prev_value =
        |key: &MetricKey| -> Option<&SampleValue> { prev.and_then(|p| p.samples.get(key)) };
    let mut push = |subject: String, value: f64| {
        out.push(Finding {
            rule: rule.name.clone(),
            subject,
            value,
            verdict: rule.thresholds.judge(value),
        });
    };

    match &rule.input {
        RuleInput::GaugeValue => {
            for s in &family {
                if let SampleValue::Gauge(v) = s.value {
                    push(subject_of(&s.key), v as f64);
                }
            }
        }
        RuleInput::GaugeStalenessMs => {
            for s in &family {
                if let SampleValue::Gauge(v) = s.value {
                    let staleness = (now_ms as i64).saturating_sub(v).max(0);
                    push(subject_of(&s.key), staleness as f64);
                }
            }
        }
        RuleInput::RatePerSec => {
            let Some(dt) = dt_s.filter(|d| *d > 0.0) else {
                return;
            };
            for s in &family {
                if let SampleValue::Counter(v) = s.value {
                    let before = match prev_value(&s.key) {
                        Some(SampleValue::Counter(b)) => *b,
                        _ => 0,
                    };
                    push(subject_of(&s.key), v.saturating_sub(before) as f64 / dt);
                }
            }
        }
        RuleInput::QuantileUs(q) => {
            for s in &family {
                if let SampleValue::Histogram(h) = &s.value {
                    let window = match prev_value(&s.key) {
                        Some(SampleValue::Histogram(b)) => h.delta(b),
                        _ => (**h).clone(),
                    };
                    if window.count == 0 {
                        continue;
                    }
                    let v = window.quantile_bound_us(*q);
                    let v = if v == u64::MAX {
                        // Overflow bucket: judge as one past the last bound.
                        crate::registry::bucket_bound_us(crate::registry::HISTOGRAM_BUCKETS) as f64
                    } else {
                        v as f64
                    };
                    push(subject_of(&s.key), v);
                }
            }
        }
        RuleInput::Imbalance => {
            let mut loads: Vec<f64> = Vec::with_capacity(family.len());
            for s in &family {
                let load = match (&s.value, prev_value(&s.key)) {
                    (SampleValue::Counter(v), Some(SampleValue::Counter(b))) => {
                        v.saturating_sub(*b) as f64
                    }
                    (SampleValue::Counter(v), _) => *v as f64,
                    (SampleValue::Histogram(h), Some(SampleValue::Histogram(b))) => {
                        h.sum_us.saturating_sub(b.sum_us) as f64
                    }
                    (SampleValue::Histogram(h), _) => h.sum_us as f64,
                    (SampleValue::Gauge(v), _) => *v as f64,
                };
                loads.push(load);
            }
            if loads.len() < 2 {
                return;
            }
            let mean = loads.iter().sum::<f64>() / loads.len() as f64;
            if mean <= 0.0 {
                return;
            }
            let max = loads.iter().copied().fold(f64::MIN, f64::max);
            push(rule.name.clone(), max / mean);
        }
        RuleInput::Fraction { complement } => {
            let delta_sum = |name: &str| -> u64 {
                samples
                    .iter()
                    .filter(|s| s.key.name == name)
                    .map(|s| match (&s.value, prev_value(&s.key)) {
                        (SampleValue::Counter(v), Some(SampleValue::Counter(b))) => {
                            v.saturating_sub(*b)
                        }
                        (SampleValue::Counter(v), _) => *v,
                        _ => 0,
                    })
                    .sum()
            };
            let own = delta_sum(&rule.metric);
            let other = delta_sum(complement);
            let total = own + other;
            if total == 0 {
                return;
            }
            push(rule.name.clone(), own as f64 / total as f64);
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
        let report = eng.evaluate(&reg, None, 10_000);
        assert_eq!(report.verdict_for("0"), Some(Verdict::Ok));
        assert_eq!(report.verdict_for("1"), Some(Verdict::Critical));
        assert_eq!(report.overall, Verdict::Critical);
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
        let r0 = eng.evaluate(&reg, None, 1_000);
        assert!(r0.subjects.is_empty());
        assert_eq!(r0.overall, Verdict::Ok);
        // 10 retries over 2 s -> 5/s -> degraded.
        c.add(10);
        let r1 = eng.evaluate(&reg, None, 3_000);
        assert_eq!(r1.verdict_for("cam1"), Some(Verdict::Degraded));
        // Quiet window -> back to OK.
        let r2 = eng.evaluate(&reg, None, 5_000);
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
        let r0 = eng.evaluate(&reg, None, 1_000);
        assert_eq!(r0.verdict_for("latency-p99"), Some(Verdict::Ok));
        // A burst of 8 s observations dominates the next window's p99.
        for _ in 0..100 {
            h.observe_us(8_000_000);
        }
        let r1 = eng.evaluate(&reg, None, 2_000);
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
        let r0 = eng.evaluate(&reg, None, 1_000);
        assert_eq!(r0.verdict_for("worker-imbalance"), Some(Verdict::Ok));
        assert_eq!(
            r0.verdict_for("sparse-active-fraction"),
            Some(Verdict::Degraded)
        );
        // Skew the next window hard onto worker 0.
        reg.counter("busy_us", &[("worker", "0")]).add(10_000);
        reg.counter("skipped_total", &[]).add(1_000);
        let r1 = eng.evaluate(&reg, None, 2_000);
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
        let report = eng.evaluate(&reg, None, 10_000);
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
