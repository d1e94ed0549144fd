//! Short smoke runs of every workload, untraced and traced: each must
//! emit every metric `BENCHMARK.json` names for its mode, all finite, and
//! print a well-formed result line.
//!
//! Run with `cargo test --release --manifest-path perfbench/Cargo.toml`.

use coral_perfbench::cli::Args;
use coral_perfbench::run::run;
use coral_perfbench::workloads::{Scale, Workload};
use coral_perfbench::{check_finite, result_line};

/// Metric names listed under `section` in the repository's
/// `BENCHMARK.json`.
fn declared(section: &str) -> Vec<String> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let start = text
        .find(&format!("\"{section}\""))
        .unwrap_or_else(|| panic!("no {section} section"));
    let body = &text[start..];
    let body = &body[..body.find(']').expect("section closes")];
    body.split("\"name\": \"")
        .skip(1)
        .map(|s| s[..s.find('"').expect("name closes")].to_string())
        .collect()
}

fn smoke(workload: Workload, trace: bool) {
    let args = Args {
        workload,
        seed: 7,
        seconds: 1,
        trace,
    };
    let mut out = run(&args, Scale::Smoke);
    check_finite(&mut out);
    let names: Vec<&str> = out.metrics.0.iter().map(|m| m.name.as_str()).collect();
    let section = if trace { "per_layer" } else { "end_to_end" };
    let wanted = declared(section);
    assert!(!wanted.is_empty());
    for name in &wanted {
        assert!(
            names.contains(&name.as_str()),
            "{} (trace {trace}) did not emit {name}",
            workload.name()
        );
    }
    assert_eq!(
        names.len(),
        wanted.len(),
        "{} emits exactly the declared metrics",
        workload.name()
    );
    for m in &out.metrics.0 {
        assert!(
            m.value.is_finite(),
            "{}: {} = {}",
            workload.name(),
            m.name,
            m.value
        );
    }
    assert!(out.attempted >= 1);
    assert_eq!(out.failed, 0, "{}: no operation fails", workload.name());
    assert!(
        out.failed_checks.iter().all(|c| !c.contains("differ")),
        "{}: {:?}",
        workload.name(),
        out.failed_checks
    );
    let line = result_line(&out);
    assert!(line.starts_with("{\"correct\": "));
    assert!(line.contains("\"metrics\": {"));
    if trace {
        assert!(!out.spans.is_empty(), "traced runs record spans");
    } else {
        assert!(out.spans.is_empty(), "untraced runs record nothing");
    }
}

#[test]
fn city_lookalike_smoke() {
    smoke(Workload::CityLookalike, false);
    smoke(Workload::CityLookalike, true);
}

#[test]
fn grid1000_churn_smoke() {
    smoke(Workload::Grid1000Churn, false);
    smoke(Workload::Grid1000Churn, true);
}

#[test]
fn store_chaos_smoke() {
    smoke(Workload::StoreChaos, false);
    smoke(Workload::StoreChaos, true);
}
