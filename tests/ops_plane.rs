//! The ops plane end to end on the discrete-event simulator: a camera
//! outage is journaled by the flight recorder, flips the health engine's
//! verdict for the dead camera to CRITICAL within one heartbeat-miss
//! deadline (and back to OK after recovery), and `explain_track_break`
//! attributes the induced track break to the outage — while the whole
//! layer stays purely observational (byte-identical fingerprints with
//! health checks disabled, byte-deterministic journal exports per seed).

use coral_pie::core::{CameraSpec, CoralPieSystem, SystemConfig};
use coral_pie::eval::{evaluate, explain_track_break, MissKind, Scenario};
use coral_pie::geo::{generators, route, IntersectionId};
use coral_pie::net::{FaultPlan, FaultPolicy, RetryPolicy};
use coral_pie::obs::{JournalKind, Verdict};
use coral_pie::sim::{
    FailureEvent, FailureKind, FailureSchedule, PoissonArrivals, SimDuration, SimTime,
};
use coral_pie::topology::CameraId;
use coral_pie::vision::GroundTruthId;

/// Heartbeat interval (`SystemConfig::default`), seconds.
const HEARTBEAT_S: u64 = 2;
/// Miss threshold (`SystemConfig::default`).
const MISS_THRESHOLD: u64 = 2;
/// The heartbeat-miss deadline: staleness past this is a dead camera.
const DEADLINE_S: u64 = HEARTBEAT_S * MISS_THRESHOLD;

const KILL_S: u64 = 40;
const RESTORE_S: u64 = 70;

/// Builds the outage scenario's system with vehicles spawned, but without
/// running it — the test drives `run_until` itself so health can be
/// sampled mid-flight (Scenario::run goes straight to the end).
fn outage_system(scenario: &Scenario) -> CoralPieSystem {
    let net = generators::corridor(scenario.cameras, 120.0, 12.0);
    let specs: Vec<CameraSpec> = (0..scenario.cameras)
        .map(|i| CameraSpec {
            id: CameraId(i as u32),
            site: IntersectionId(i as u32),
            videoing_angle_deg: 0.0,
        })
        .collect();
    let mut sys = CoralPieSystem::new(net.clone(), &specs, scenario.config.clone());
    sys.enable_tracing();
    sys.set_failures(&scenario.failures);
    let first = IntersectionId(0);
    let last = IntersectionId(scenario.cameras as u32 - 1);
    for k in 0..scenario.vehicles as u64 {
        let r = route::shortest_path(&net, first, last).expect("corridor is connected");
        sys.traffic_mut().spawn(
            SimTime::from_secs(scenario.spawn_start_s)
                + SimDuration::from_secs(scenario.spawn_gap_s * k),
            r,
            Some(coral_pie::vision::ObjectClass::Car),
        );
    }
    sys
}

fn journal_kind_count(sys: &CoralPieSystem, kind: JournalKind) -> usize {
    let mut n = 0;
    sys.observability().journal().for_each(|e| {
        if e.kind == kind {
            n += 1;
        }
    });
    n
}

#[test]
fn outage_is_journaled_flips_health_and_explains_the_break() {
    let scenario = Scenario::corridor(5, 6, 42).with_outage(CameraId(2), KILL_S, RESTORE_S);
    let mut sys = outage_system(&scenario);

    // Before the kill: cam2 heartbeats are fresh, no kill on record.
    sys.run_until(SimTime::from_secs(KILL_S - 2));
    assert_eq!(journal_kind_count(&sys, JournalKind::NodeKill), 0);
    let report = sys
        .observability()
        .latest_health()
        .expect("health evaluated every sim-second");
    assert_ne!(
        report.verdict_for("cam2"),
        Some(Verdict::Critical),
        "cam2 critical before the kill: {}",
        report.to_json()
    );

    // One heartbeat-miss deadline (plus the 1 s evaluation cadence) after
    // the kill: the flight recorder has the kill and the health engine
    // has flipped the dead camera to CRITICAL.
    sys.run_until(SimTime::from_secs(KILL_S + DEADLINE_S + 2));
    assert_eq!(journal_kind_count(&sys, JournalKind::NodeKill), 1);
    let report = sys
        .observability()
        .latest_health()
        .expect("health evaluated every sim-second");
    assert_eq!(
        report.verdict_for("cam2"),
        Some(Verdict::Critical),
        "cam2 not critical one deadline after the kill: {}",
        report.to_json()
    );

    // After the restore, the next heartbeats clear the staleness and the
    // camera's verdict returns to OK.
    sys.run_until(SimTime::from_secs(RESTORE_S + DEADLINE_S + 2));
    assert_eq!(journal_kind_count(&sys, JournalKind::NodeRestore), 1);
    let report = sys
        .observability()
        .latest_health()
        .expect("health evaluated every sim-second");
    assert_ne!(
        report.verdict_for("cam2"),
        Some(Verdict::Critical),
        "cam2 still critical after recovery: {}",
        report.to_json()
    );
    // The verdict transitions themselves were journaled.
    assert!(
        journal_kind_count(&sys, JournalKind::HealthChange) >= 1,
        "no HealthChange events journaled across an outage cycle"
    );

    // Run to completion and ask the explainer about a vehicle whose cam2
    // visit was truncated by the outage.
    sys.run_until(SimTime::from_secs(scenario.run_secs));
    sys.finish();
    let report = evaluate(&scenario.name, scenario.config.seed, &sys);
    let broken: Vec<(GroundTruthId, u64)> = report
        .misses
        .iter()
        .filter_map(|m| match m.kind {
            MissKind::Event {
                camera,
                vehicle,
                entered_ms,
            } if camera == CameraId(2) && entered_ms <= RESTORE_S * 1_000 => {
                Some((vehicle, entered_ms))
            }
            _ => None,
        })
        .collect();
    assert!(
        !broken.is_empty(),
        "outage produced no cam2 visit miss to explain; misses: {:?}",
        report.misses
    );
    let (vehicle, _) = broken[0];
    let obs = sys.observability();
    let explanation =
        explain_track_break(&report, obs.journal(), obs.tracer(), vehicle, CameraId(2));
    assert!(
        explanation.outage_attributed(),
        "break not attributed to the outage:\n{}",
        explanation.narrative
    );
}

/// Fingerprint of a run: delivery/event/passage counts plus storage
/// stats — the same tuple `tests/determinism.rs` locks per seed.
fn fingerprint(health_checks: bool) -> (u64, u64, usize, usize, coral_pie::storage::StorageStats) {
    let net = generators::corridor(4, 120.0, 12.0);
    let specs: Vec<CameraSpec> = (0..4)
        .map(|i| CameraSpec {
            id: CameraId(i),
            site: IntersectionId(i),
            videoing_angle_deg: 0.0,
        })
        .collect();
    let config = SystemConfig {
        health_checks,
        faults: Some(FaultPlan::uniform(
            FaultPolicy {
                drop: 0.05,
                duplicate: 0.01,
                ..FaultPolicy::default()
            },
            0x5eed,
        )),
        reliability: Some(RetryPolicy::default()),
        seed: 7,
        ..SystemConfig::default()
    };
    let mut sys = CoralPieSystem::new(net, &specs, config);
    let mut failures = FailureSchedule::default();
    failures.push(FailureEvent {
        at: SimTime::from_secs(20),
        camera: CameraId(1),
        kind: FailureKind::Kill,
    });
    failures.push(FailureEvent {
        at: SimTime::from_secs(35),
        camera: CameraId(1),
        kind: FailureKind::Restore,
    });
    sys.set_failures(&failures);
    sys.set_arrivals(PoissonArrivals::new(
        0.3,
        vec![IntersectionId(0), IntersectionId(3)],
        3,
        7 ^ 0xfeed,
    ));
    sys.run_until(SimTime::from_secs(60));
    sys.finish();
    let t = sys.telemetry();
    (
        t.messages_delivered,
        t.informs_delivered,
        t.events.len(),
        t.passages.len(),
        sys.storage().stats(),
    )
}

#[test]
fn health_engine_does_not_perturb_the_simulation() {
    // The ops plane is a pure observer: disabling it must leave the DES
    // fingerprint byte-identical, even across kills, drops and retries.
    assert_eq!(fingerprint(true), fingerprint(false));
}

/// A whole-region partition must be visible on the ops plane the same
/// way a camera outage is: the health engine flips CRITICAL for exactly
/// the dead region's subject (the survivor stays healthy), and clears
/// back after the heal once heartbeats land at the revived server again.
#[test]
fn region_partition_flips_health_for_exactly_the_dead_region() {
    use coral_pie::net::{FaultPlan, FaultPolicy, RetryPolicy};

    let net = generators::corridor(6, 120.0, 12.0);
    let specs: Vec<CameraSpec> = (0..6)
        .map(|i| CameraSpec {
            id: CameraId(i),
            site: IntersectionId(i),
            videoing_angle_deg: 0.0,
        })
        .collect();
    let config = SystemConfig {
        faults: Some(FaultPlan::uniform(
            FaultPolicy {
                drop: 0.05,
                duplicate: 0.01,
                ..FaultPolicy::default()
            },
            0xFED5,
        )),
        reliability: Some(RetryPolicy::default()),
        regions: 2,
        seed: 42,
        ..SystemConfig::default()
    };
    let mut sys = CoralPieSystem::new(net, &specs, config);
    sys.schedule_region_kill(SimTime::from_secs(KILL_S), 1);
    sys.schedule_region_restore(SimTime::from_secs(RESTORE_S), 1);

    // Before the kill: both regions are in contact and healthy.
    sys.run_until(SimTime::from_secs(KILL_S - 2));
    let report = sys
        .observability()
        .latest_health()
        .expect("health evaluated every sim-second");
    for region in ["region0", "region1"] {
        assert_ne!(
            report.verdict_for(region),
            Some(Verdict::Critical),
            "{region} critical before the partition: {}",
            report.to_json()
        );
    }

    // One heartbeat-miss deadline after the kill: region1's contact gauge
    // is stale past the critical threshold; region0 keeps hearing from
    // its (and, post-failover, the orphaned) cameras.
    sys.run_until(SimTime::from_secs(KILL_S + DEADLINE_S + 2));
    assert_eq!(journal_kind_count(&sys, JournalKind::PartitionOpen), 1);
    let report = sys
        .observability()
        .latest_health()
        .expect("health evaluated every sim-second");
    assert_eq!(
        report.verdict_for("region1"),
        Some(Verdict::Critical),
        "region1 not critical one deadline after the partition: {}",
        report.to_json()
    );
    assert_ne!(
        report.verdict_for("region0"),
        Some(Verdict::Critical),
        "the surviving region0 went critical: {}",
        report.to_json()
    );

    // After the heal the home cameras fail back, their heartbeats refresh
    // the contact gauge, and region1 recovers its verdict.
    sys.run_until(SimTime::from_secs(RESTORE_S + DEADLINE_S + 2));
    assert_eq!(journal_kind_count(&sys, JournalKind::PartitionHeal), 1);
    let report = sys
        .observability()
        .latest_health()
        .expect("health evaluated every sim-second");
    for region in ["region0", "region1"] {
        assert_ne!(
            report.verdict_for(region),
            Some(Verdict::Critical),
            "{region} still critical after the heal: {}",
            report.to_json()
        );
    }
}

#[test]
fn journal_export_is_byte_deterministic_across_seeds() {
    for seed in [7, 42, 1234] {
        let scenario = Scenario::corridor(4, 3, seed)
            .with_faults(0.05, 0.01)
            .with_outage(CameraId(1), 30, 55);
        let a = scenario.run();
        let b = scenario.run();
        let ja = a.observability().journal().export_jsonl();
        let jb = b.observability().journal().export_jsonl();
        assert!(!ja.is_empty(), "seed {seed}: empty journal");
        assert!(
            ja.contains("node_kill") && ja.contains("node_restore"),
            "seed {seed}: outage missing from journal:\n{ja}"
        );
        assert_eq!(ja, jb, "seed {seed}: journal export not deterministic");
    }
}
