//! **Figure 11 (chaos variant)** — self-healing on a lossy network.
//!
//! Same methodology as `exp_fig11` (37 campus cameras, 10 successive
//! kills) but every link drops 5% and duplicates 1% of envelopes, with
//! the retrying transport switched on. The paper's clean-network bound is
//! "at most twice the heartbeat interval"; under chaos we assert the
//! relaxed bound of twice the heartbeat-miss *deadline* (miss threshold x
//! heartbeat, doubled), since dropped updates must survive a retransmit
//! round trip.

use coral_bench::report::{f2s, write_registry_snapshot, write_text_artifact};
use coral_bench::{campus_specs, ExperimentLog};
use coral_core::{CoralPieSystem, SystemConfig};
use coral_net::{FaultPlan, FaultPolicy, RetryPolicy};
use coral_sim::{FailureSchedule, SimDuration, SimTime};

const MISS_THRESHOLD: u64 = 2;

fn counter_sum(sys: &CoralPieSystem, family: &str) -> u64 {
    sys.observability()
        .registry()
        .render_prometheus()
        .lines()
        .filter(|l| l.starts_with(family) && !l.starts_with('#'))
        .filter_map(|l| l.rsplit(' ').next())
        .filter_map(|v| v.parse::<u64>().ok())
        .sum()
}

fn run(heartbeat_s: u64, fault_seed: u64) -> (Vec<(f64, f64)>, u64, u64) {
    let (net, specs) = campus_specs();
    let config = SystemConfig {
        heartbeat_interval: SimDuration::from_secs(heartbeat_s),
        faults: Some(FaultPlan::uniform(
            FaultPolicy {
                drop: 0.05,
                duplicate: 0.01,
                ..FaultPolicy::default()
            },
            fault_seed,
        )),
        reliability: Some(RetryPolicy::default()),
        ..SystemConfig::default()
    };
    let mut sys = CoralPieSystem::new(net, &specs, config);
    sys.run_until(SimTime::from_secs(15));
    let cams: Vec<_> = sys.alive().iter().copied().collect();
    let schedule = FailureSchedule::kill_successively(
        &cams,
        10,
        SimTime::from_secs(20),
        SimDuration::from_secs(20),
        2020,
    );
    sys.set_failures(&schedule);
    sys.run_until(SimTime::from_secs(260));
    let metrics = write_registry_snapshot(
        &format!("fig11_chaos_recovery_hb{heartbeat_s}s"),
        sys.observability().registry(),
    );
    println!("[metrics] {}", metrics.display());
    // Ops-plane snapshot: the final health verdict and the flight
    // recorder's view of the kill/restore/retransmission storm.
    let obs = sys.observability();
    obs.health_tick(sys.now().as_millis());
    let health = obs.latest_health().expect("health was just evaluated");
    let health_path = write_text_artifact(
        &format!("fig11_chaos_recovery_hb{heartbeat_s}s.health.json"),
        &health.to_json(),
    );
    let journal = obs.journal();
    let journal_path = write_text_artifact(
        &format!("fig11_chaos_recovery_hb{heartbeat_s}s.journal.jsonl"),
        &journal.export_jsonl(),
    );
    let mut kills = 0u64;
    let mut retransmits = 0u64;
    journal.for_each(|e| match e.kind {
        coral_obs::JournalKind::NodeKill => kills += 1,
        coral_obs::JournalKind::Retransmit | coral_obs::JournalKind::BackoffEscalation => {
            retransmits += 1
        }
        _ => {}
    });
    println!(
        "[health] {} — overall {:?}, {} journal events ({} kills, {} retransmit incidents)",
        health_path.display(),
        health.overall,
        journal.len(),
        kills,
        retransmits,
    );
    println!("[journal] {}", journal_path.display());
    let recoveries = sys
        .telemetry()
        .recoveries
        .iter()
        .map(|r| (r.killed_at.as_secs_f64(), r.duration().as_secs_f64()))
        .collect();
    (
        recoveries,
        counter_sum(&sys, "chaos_dropped_total"),
        counter_sum(&sys, "reliable_retries_total"),
    )
}

fn main() {
    let (two, dropped2, retried2) = run(2, 0xC0A1);
    let (five, dropped5, retried5) = run(5, 0xC0A1);

    let mut log = ExperimentLog::new(
        "fig11_chaos_recovery",
        &[
            "kill_index",
            "timeline_s",
            "recovery_2s_hb",
            "recovery_5s_hb",
        ],
    );
    for (i, ((t2, r2), (_, r5))) in two.iter().zip(&five).enumerate() {
        log.row(&[(i + 1).to_string(), f2s(*t2), f2s(*r2), f2s(*r5)]);
    }
    log.finish();

    let summary = |name: &str, rs: &[(f64, f64)], hb: f64, dropped: u64, retried: u64| {
        let durs: Vec<f64> = rs.iter().map(|&(_, d)| d).collect();
        let mean = durs.iter().sum::<f64>() / durs.len().max(1) as f64;
        let max = durs.iter().fold(0.0f64, |a, &b| a.max(b));
        let bound = 2.0 * MISS_THRESHOLD as f64 * hb;
        println!(
            "{name}: {} recoveries, mean {:.2} s, max {:.2} s — chaos bound 2x miss deadline = {:.0} s {} \
             ({dropped} envelopes dropped, {retried} retransmissions)",
            durs.len(),
            mean,
            max,
            bound,
            if max <= bound { "(holds)" } else { "(VIOLATED)" }
        );
    };
    println!();
    summary("2 s heartbeat", &two, 2.0, dropped2, retried2);
    summary("5 s heartbeat", &five, 5.0, dropped5, retried5);
}
