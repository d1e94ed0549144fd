//! The Coral-Pie benchmark: one command runs a named workload with a
//! seed, times it from outside the system through its public APIs,
//! checks the outputs, and prints every metric by name with its unit.
//! See `README.md` in this directory for the workloads and metrics.

pub mod checks;
pub mod cli;
pub mod layers;
pub mod probe;
pub mod run;
pub mod speed;
pub mod stats;
pub mod trace;
pub mod workloads;

use run::Outcome;
use std::fmt::Write as _;

/// Renders a metric value as JSON: every digit, `null` when not finite.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

/// The result line: exactly `correct`, `attempted`, `failed`, `metrics`.
pub fn result_line(out: &Outcome) -> String {
    let mut metrics = String::new();
    for (i, m) in out.metrics.0.iter().enumerate() {
        if i > 0 {
            metrics.push_str(", ");
        }
        let _ = write!(
            metrics,
            "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name,
            json_number(m.value),
            m.unit
        );
    }
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
        out.failed_checks.is_empty(),
        out.attempted.max(1),
        out.failed
    )
}

/// The provenance line printed before the result.
pub fn provenance_line(out: &Outcome) -> String {
    let mut fields: Vec<String> = out
        .provenance
        .iter()
        .map(|(k, v)| format!("\"{k}\": {v}"))
        .collect();
    let repo = concat!(env!("CARGO_MANIFEST_DIR"), "/..");
    fields.push(format!("\"host_cpus\": {}", probe::host_cpus()));
    fields.push(format!(
        "\"rustc\": \"{}\"",
        probe::command_line("rustc", &["--version"])
    ));
    fields.push(format!(
        "\"git_commit\": \"{}\"",
        probe::command_line("git", &["-C", repo, "rev-parse", "HEAD"])
    ));
    fields.push(format!(
        "\"failed_checks\": [{}]",
        out.failed_checks
            .iter()
            .map(|c| format!("\"{}\"", c.replace('"', "'")))
            .collect::<Vec<_>>()
            .join(", ")
    ));
    format!("{{\"provenance\": {{{}}}}}", fields.join(", "))
}

/// Marks every non-finite metric as a failed check.
pub fn check_finite(out: &mut Outcome) {
    let bad: Vec<String> = out
        .metrics
        .0
        .iter()
        .filter(|m| !m.value.is_finite())
        .map(|m| format!("metric {} is not finite", m.name))
        .collect();
    out.failed_checks.extend(bad);
}
