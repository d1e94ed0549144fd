//! The health engine against the evaluator it replaced.
//!
//! [`HealthEngine`] evaluates over live handles cached per series and
//! builds its report on read. The reference below is the previous
//! evaluator, kept only here: it snapshots the rule families with
//! [`Registry::collect`] on every evaluation, keeps the previous snapshot
//! in a `BTreeMap`, and groups findings by subject name.
//!
//! Each case drives both over one random registry: series appear between
//! evaluations, every [`RuleInput`] kind is drawn, some series lack the
//! subject label (the finding falls back to the rule name), one family
//! carries two labels, and the journal is on or off, with outside events
//! recorded between evaluations. After every evaluation the report JSON,
//! the journal bytes and the overall verdict must be equal.
//! `PROPTEST_CASES` raises the case count.

use coral_obs::health::{Finding, SubjectHealth};
use coral_obs::json::number;
use coral_obs::{
    bucket_bound_us, HealthEngine, HealthReport, Journal, JournalKind, MetricKey, Registry,
    RegistrySample, Rule, RuleInput, SampleValue, Severity, Thresholds, Verdict, HISTOGRAM_BUCKETS,
};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;

fn cases() -> u64 {
    std::env::var("PROPTEST_CASES")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(64)
}

// ---------------------------------------------------------------------------
// The reference: the evaluator before series were cached.
// ---------------------------------------------------------------------------

fn judge(t: &Thresholds, value: f64) -> Verdict {
    if value >= t.critical {
        Verdict::Critical
    } else if value >= t.degraded {
        Verdict::Degraded
    } else {
        Verdict::Ok
    }
}

struct PrevSnapshot {
    at_ms: u64,
    samples: BTreeMap<MetricKey, SampleValue>,
}

struct ReferenceEngine {
    rules: Vec<Rule>,
    families: Vec<String>,
    windowed: BTreeSet<String>,
    prev: Option<PrevSnapshot>,
    verdicts: BTreeMap<String, Verdict>,
    next_journal_seq: u64,
    latest: Option<HealthReport>,
}

impl ReferenceEngine {
    fn new(rules: Vec<Rule>) -> Self {
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

    fn evaluate(
        &mut self,
        registry: &Registry,
        journal: Option<&Journal>,
        now_ms: u64,
    ) -> &HealthReport {
        let samples: Vec<RegistrySample> = registry
            .collect()
            .into_iter()
            .filter(|s| self.families.contains(&s.key.name))
            .collect();
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

        let events = match journal {
            Some(j) => {
                let evs = j.since(self.next_journal_seq);
                self.next_journal_seq = j.recorded_total();
                evs
            }
            None => Vec::new(),
        };

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
        self.verdicts = new_verdicts
            .into_iter()
            .filter(|(_, v)| *v != Verdict::Ok)
            .collect();

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
            verdict: judge(&rule.thresholds, value),
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
                        bucket_bound_us(HISTOGRAM_BUCKETS) as f64
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

// ---------------------------------------------------------------------------
// Random registries and rule sets.
// ---------------------------------------------------------------------------

fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = splitmix64(self.0);
        self.0
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    fn chance(&mut self, percent: u64) -> bool {
        self.below(100) < percent
    }

    fn pick<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        &items[self.below(items.len() as u64) as usize]
    }
}

const FAMILIES: [&str; 6] = ["fa", "fb", "fc", "fd", "fe", "ff"];
/// Subject-label values; `r0` collides with a rule name on purpose.
const SUBJECTS: [&str; 6] = ["c0", "c1", "c2", "c3", "c10", "r0"];
const RULE_NAMES: [&str; 4] = ["r0", "r1", "r2", "r3"];

#[derive(Clone, Copy, PartialEq, Debug)]
enum Kind {
    Counter,
    Gauge,
    Histogram,
}

/// The series a case has created, with the kind each key was created as
/// (one key is only ever one kind).
struct Series {
    kinds: BTreeMap<(String, Vec<(String, String)>), Kind>,
}

impl Series {
    /// Creates or re-reads a random series; returns its identity and kind.
    fn touch(&mut self, rng: &mut Rng, reg: &Registry) {
        let family = *rng.pick(&FAMILIES);
        let mut labels: Vec<(&str, &str)> = Vec::new();
        // Most series carry the subject label; some do not.
        if rng.chance(80) {
            labels.push(("camera", *rng.pick(&SUBJECTS)));
        }
        // `fb` is a two-label family: several series per subject.
        if family == "fb" {
            labels.push(("shard", *rng.pick(&["0", "1", "2"])));
        }
        let key = (
            family.to_string(),
            labels
                .iter()
                .map(|(k, v)| (k.to_string(), v.to_string()))
                .collect(),
        );
        // Families lean to one kind, with a few other-kind series mixed in.
        let kind = *self.kinds.entry(key).or_insert_with(|| {
            let lean = match family {
                "fa" | "fb" => Kind::Counter,
                "fc" | "fd" => Kind::Gauge,
                _ => Kind::Histogram,
            };
            if rng.chance(85) {
                lean
            } else {
                *rng.pick(&[Kind::Counter, Kind::Gauge, Kind::Histogram])
            }
        });
        match kind {
            Kind::Counter => reg.counter(family, &labels).add(rng.below(40)),
            Kind::Gauge => reg
                .gauge(family, &labels)
                .set(rng.below(30_000) as i64 - 2_000),
            Kind::Histogram => {
                let h = reg.histogram(family, &labels);
                for _ in 0..rng.below(4) {
                    // Up to past the last finite bucket (overflow).
                    let exp = rng.below(33);
                    h.observe_us(rng.below(1u64 << exp) + 1);
                }
            }
        }
    }
}

fn random_rule(rng: &mut Rng) -> Rule {
    let name = *rng.pick(&RULE_NAMES);
    let metric = *rng.pick(&FAMILIES);
    let label = *rng.pick(&[Some("camera"), Some("camera"), Some("shard"), None]);
    let (input, thresholds) = match rng.below(6) {
        0 => (RuleInput::GaugeValue, Thresholds::new(5_000.0, 20_000.0)),
        1 => (
            RuleInput::GaugeStalenessMs,
            Thresholds::new(2_000.0, 9_000.0),
        ),
        2 => (RuleInput::RatePerSec, Thresholds::new(5.0, 40.0)),
        3 => (
            RuleInput::QuantileUs(*rng.pick(&[0.0, 0.5, 0.99, 1.0])),
            Thresholds::new(1_000.0, 1_000_000.0),
        ),
        4 => (RuleInput::Imbalance, Thresholds::new(1.5, 3.0)),
        _ => (
            RuleInput::Fraction {
                complement: rng.pick(&FAMILIES).to_string(),
            },
            Thresholds::new(0.4, 0.8),
        ),
    };
    Rule::new(name, metric, label, input, thresholds)
}

fn run_case(seed: u64) {
    let mut rng = Rng(seed);
    let reg = Registry::new();
    let mut series = Series {
        kinds: BTreeMap::new(),
    };
    let rules: Vec<Rule> = (0..1 + rng.below(6))
        .map(|_| random_rule(&mut rng))
        .collect();
    let mut engine = HealthEngine::new(rules.clone());
    let mut reference = ReferenceEngine::new(rules);
    // Journal on (sometimes a tiny ring that wraps) or off; one journal
    // per engine, fed the same outside events.
    let journaled = rng.chance(75);
    let capacity = *rng.pick(&[4usize, 16, 1024]);
    let journals = (
        Journal::with_capacity(capacity),
        Journal::with_capacity(capacity),
    );
    assert!(engine.latest().is_none());

    // Series that exist before the first evaluation.
    for _ in 0..rng.below(8) {
        series.touch(&mut rng, &reg);
    }
    let mut now_ms = rng.below(3_000);
    for step in 0..4 + rng.below(24) {
        // Updates to existing series and, now and then, new series.
        for _ in 0..rng.below(10) {
            series.touch(&mut rng, &reg);
        }
        if journaled && rng.chance(30) {
            for j in [&journals.0, &journals.1] {
                j.record(
                    JournalKind::NodeKill,
                    Severity::Error,
                    now_ms * 1_000,
                    "cam1",
                    "outside",
                );
            }
        }
        let pass = journaled && rng.chance(85);
        let (j0, j1) = if pass {
            (Some(&journals.0), Some(&journals.1))
        } else {
            (None, None)
        };
        let verdict = engine.evaluate(&reg, j0, now_ms);
        let want = reference.evaluate(&reg, j1, now_ms);
        let context = format!("seed {seed} step {step} at {now_ms} ms");
        assert_eq!(verdict, want.overall, "{context}");
        assert_eq!(
            engine.latest().expect("evaluated").to_json(),
            want.to_json(),
            "{context}"
        );
        assert_eq!(
            journals.0.export_jsonl(),
            journals.1.export_jsonl(),
            "{context}"
        );
        // Zero-length windows too.
        now_ms += *rng.pick(&[0, 250, 1_000, 1_000, 3_000, 10_000]);
    }
}

#[test]
fn cached_engine_matches_the_reference_evaluator() {
    for case in 0..cases() {
        run_case(splitmix64(case ^ 0x4845_414c_5448));
    }
}

/// The default-style rule set over a fleet of heartbeat gauges, with
/// cameras joining over time and going silent: the shape the DES runs.
#[test]
fn heartbeat_fleet_matches_the_reference_evaluator() {
    let rules = vec![
        Rule::new(
            "heartbeat-staleness",
            "node_last_heartbeat_ms",
            Some("camera"),
            RuleInput::GaugeStalenessMs,
            Thresholds::new(3_000.0, 6_000.0),
        ),
        Rule::new(
            "worker-imbalance",
            "core_worker_busy_us",
            None,
            RuleInput::Imbalance,
            Thresholds::new(3.0, 8.0),
        ),
    ];
    let reg = Registry::new();
    let journals = (Journal::new(), Journal::new());
    let mut engine = HealthEngine::new(rules.clone());
    let mut reference = ReferenceEngine::new(rules);
    let mut rng = Rng(7);
    for second in 0..40u64 {
        let now_ms = second * 1_000;
        // Ten cameras join per second for the first ten seconds; camera 5
        // stops beating between 12 s and 25 s.
        for cam in 0..(10 * (second + 1)).min(100) {
            if (12..25).contains(&second) && cam == 5 {
                continue;
            }
            if (cam + second) % 2 == 0 {
                reg.gauge(
                    "node_last_heartbeat_ms",
                    &[("camera", &format!("cam{cam}"))],
                )
                .set(now_ms as i64);
            }
        }
        for w in 0..2 {
            reg.histogram("core_worker_busy_us", &[("worker", &w.to_string())])
                .observe_us(rng.below(1_000) * (w + 1));
        }
        let verdict = engine.evaluate(&reg, Some(&journals.0), now_ms);
        let want = reference.evaluate(&reg, Some(&journals.1), now_ms);
        assert_eq!(verdict, want.overall, "at {second} s");
        assert_eq!(engine.latest().unwrap().to_json(), want.to_json());
    }
    assert_eq!(journals.0.export_jsonl(), journals.1.export_jsonl());
    assert!(journals.0.export_jsonl().contains("cam5"));
}
