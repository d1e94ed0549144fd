//! Federation chaos regression matrix: a whole-region partition under a
//! lossy, duplicating network, across seeds.
//!
//! A two-region corridor is split mid-deployment (cameras 0–2 home to
//! region 0, cameras 3–5 to region 1). Region 1 is partitioned for 30 s
//! of sim time: its topology server and edge store stop acking while its
//! cameras keep running. The suite pins the federation contract:
//!
//! - **Failover happens and is journaled**: the orphaned cameras detect
//!   the silence through their reliability layer and re-parent onto the
//!   surviving region.
//! - **Recovery is bounded**: after the heal, every surviving home camera
//!   heartbeats back at the revived server within twice the
//!   heartbeat-miss deadline (the same bound `chaos_self_healing`
//!   asserts for single-camera failures).
//! - **No committed edge is lost**: every trajectory edge present in the
//!   union view before the kill is still there after the heal.
//! - **Replication stays idempotent**: chaos duplication plus replica
//!   redelivery never yields duplicate `(from, to)` edges in the union.
//!
//! The mini corridor runs in tier-1; a 10×10 city grid variant of the
//! same scenario is `#[ignore]`d and exercised by `ci.sh`.

use std::collections::BTreeSet;

use coral_pie::core::{CameraSpec, CoralPieSystem, NodeConfig, RegionRecovery, SystemConfig};
use coral_pie::geo::{generators, route, IntersectionId};
use coral_pie::net::{FaultPlan, FaultPolicy, RetryPolicy, VertexId};
use coral_pie::obs::JournalKind;
use coral_pie::sim::{PoissonArrivals, SimDuration, SimTime};
use coral_pie::storage::StorageStats;
use coral_pie::topology::CameraId;
use coral_pie::vision::{DetectorNoise, ObjectClass};

const HEARTBEAT_S: u64 = 2;
const MISS_THRESHOLD: u64 = 2;
/// Twice the heartbeat-miss deadline: the post-heal fail-back bound.
const RECOVERY_BOUND: SimDuration = SimDuration::from_secs(2 * MISS_THRESHOLD * HEARTBEAT_S);

const KILL_S: u64 = 15;
/// The ISSUE's scenario: the region stays dark for 30 s of sim time.
const HEAL_S: u64 = KILL_S + 30;
const END_S: u64 = 80;

fn federated_system(n: usize, fault_seed: u64) -> (CoralPieSystem, coral_pie::geo::RoadNetwork) {
    let net = generators::corridor(n, 120.0, 12.0);
    let specs: Vec<CameraSpec> = (0..n)
        .map(|i| CameraSpec {
            id: CameraId(i as u32),
            site: IntersectionId(i as u32),
            videoing_angle_deg: 0.0,
        })
        .collect();
    let config = SystemConfig {
        node: NodeConfig {
            detector_noise: DetectorNoise::perfect(),
            ..NodeConfig::default()
        },
        heartbeat_interval: SimDuration::from_secs(HEARTBEAT_S),
        faults: Some(FaultPlan::uniform(
            FaultPolicy {
                drop: 0.05,
                duplicate: 0.01,
                ..FaultPolicy::default()
            },
            fault_seed,
        )),
        reliability: Some(RetryPolicy::default()),
        regions: 2,
        ..SystemConfig::default()
    };
    (CoralPieSystem::new(net.clone(), &specs, config), net)
}

/// All `(from, to)` pairs in the deployment-wide union view, keeping
/// duplicates so the idempotence check can count them.
fn union_edges(sys: &CoralPieSystem) -> Vec<(VertexId, VertexId)> {
    sys.with_trajectory_graph(|g| {
        let mut edges = Vec::new();
        for v in g.vertices() {
            for e in g.out_edges(v.id) {
                edges.push((v.id, e.to));
            }
        }
        edges
    })
}

fn journal_messages(sys: &CoralPieSystem, kind: JournalKind) -> Vec<String> {
    let mut out = Vec::new();
    sys.observability().journal().for_each(|e| {
        if e.kind == kind {
            out.push(format!("{}: {}", e.subject, e.detail));
        }
    });
    out
}

/// The byte-identity fingerprint of a run: messages delivered, informs
/// delivered, events, passages and region 0's storage counters.
type RunPrint = (u64, u64, usize, usize, StorageStats);

/// Single-shard, frame-free, compaction-idle storage counters.
fn stats(vertices: usize, edges: usize) -> StorageStats {
    StorageStats {
        vertices,
        edges,
        shards: 1,
        ..StorageStats::default()
    }
}

fn run_print(sys: &CoralPieSystem) -> RunPrint {
    let t = sys.telemetry();
    (
        t.messages_delivered,
        t.informs_delivered,
        t.events.len(),
        t.passages.len(),
        sys.storage().stats(),
    )
}

/// Runs the partition cycle, asserts the federation contract, and returns
/// the run's fingerprint plus its union edge count and region recovery.
fn region_kill_run(fault_seed: u64) -> (RunPrint, usize, RegionRecovery) {
    let (mut sys, net) = federated_system(6, fault_seed);
    assert_eq!(sys.regions(), 2);
    sys.schedule_region_kill(SimTime::from_secs(KILL_S), 1);
    sys.schedule_region_restore(SimTime::from_secs(HEAL_S), 1);
    // Traffic the whole run long, so boundary crossings (cam2 → cam3)
    // commit cross-region edges before, during and after the outage.
    for k in 0..6u64 {
        let r = route::shortest_path(&net, IntersectionId(0), IntersectionId(5)).unwrap();
        sys.traffic_mut().spawn(
            SimTime::from_secs(2) + SimDuration::from_secs(10 * k),
            r,
            Some(ObjectClass::Car),
        );
    }

    // Snapshot the union just before the partition opens.
    sys.run_until(SimTime::from_secs(KILL_S));
    let committed: BTreeSet<(VertexId, VertexId)> = union_edges(&sys).into_iter().collect();

    sys.run_until(SimTime::from_secs(END_S));
    sys.finish();

    // The partition and its heal were journaled against the region.
    let opens = journal_messages(&sys, JournalKind::PartitionOpen);
    assert!(
        opens.iter().any(|m| m.starts_with("region1:")),
        "seed {fault_seed}: no partition_open for region1, got {opens:?}"
    );
    let heals = journal_messages(&sys, JournalKind::PartitionHeal);
    assert!(
        heals.iter().any(|m| m.starts_with("region1:")),
        "seed {fault_seed}: no partition_heal for region1, got {heals:?}"
    );

    // Failover fired: some orphaned camera re-parented onto region 0 and
    // said so in the flight recorder.
    let health = journal_messages(&sys, JournalKind::HealthChange);
    assert!(
        health.iter().any(|m| m.contains("failover")),
        "seed {fault_seed}: no failover journaled, got {health:?}"
    );
    // ... and failed back after the heal: home parenting is restored.
    for cam in 3..6 {
        assert_eq!(
            sys.runtime().world().parent_region_of(CameraId(cam)),
            1,
            "seed {fault_seed}: cam{cam} not failed back to its home region"
        );
    }

    // Exactly the injected region outage was measured, and the fail-back
    // (heal → every home camera heartbeating at the revived server again)
    // met the recovery bound.
    let recoveries = &sys.telemetry().region_recoveries;
    assert_eq!(
        recoveries.len(),
        1,
        "seed {fault_seed}: expected exactly one region recovery, got {recoveries:?}"
    );
    let rec = recoveries[0];
    assert_eq!(rec.region, 1);
    assert_eq!(rec.killed_at, SimTime::from_secs(KILL_S));
    assert_eq!(rec.restored_at, SimTime::from_secs(HEAL_S));
    assert!(
        rec.recovery() <= RECOVERY_BOUND,
        "seed {fault_seed}: region recovery {} exceeds bound {RECOVERY_BOUND}",
        rec.recovery()
    );

    // No committed edge was lost across the outage cycle.
    let after = union_edges(&sys);
    let after_set: BTreeSet<(VertexId, VertexId)> = after.iter().copied().collect();
    let lost: Vec<_> = committed.difference(&after_set).collect();
    assert!(
        lost.is_empty(),
        "seed {fault_seed}: committed edges lost across the region outage: {lost:?}"
    );

    // Replication + chaos duplication never doubled an edge in the union.
    assert_eq!(
        after.len(),
        after_set.len(),
        "seed {fault_seed}: duplicate trajectory edges in the union view"
    );
    (run_print(&sys), after.len(), rec)
}

/// Besides the contract, seed a pins the two-region run's bytes with
/// literal values recorded before regions were folded into one
/// deployment path.
#[test]
fn region_kill_seed_a() {
    assert_eq!(
        region_kill_run(0xFED1),
        (
            (78, 31, 31, 31, stats(22, 16)),
            25,
            RegionRecovery {
                region: 1,
                killed_at: SimTime::from_secs(KILL_S),
                restored_at: SimTime::from_secs(HEAL_S),
                recovered_at: SimTime::from_micros(46_046_048),
            }
        )
    );
}

#[test]
fn region_kill_seed_b() {
    region_kill_run(0xBEEF);
}

#[test]
fn region_kill_seed_c() {
    region_kill_run(11);
}

/// The same partition cycle at city scale: a 10×10 grid, four regions,
/// open Poisson arrivals. Run by `ci.sh` (too slow for tier-1).
#[test]
#[ignore = "full-grid federation chaos run; exercised by ci.sh"]
fn region_kill_city_grid() {
    let rows = 10;
    let cols = 10;
    let net = generators::grid(rows, cols, 120.0, 12.0);
    let specs: Vec<CameraSpec> = (0..(rows * cols))
        .map(|i| CameraSpec {
            id: CameraId(i as u32),
            site: IntersectionId(i as u32),
            videoing_angle_deg: 0.0,
        })
        .collect();
    let config = SystemConfig {
        node: NodeConfig {
            detector_noise: DetectorNoise::perfect(),
            ..NodeConfig::default()
        },
        heartbeat_interval: SimDuration::from_secs(HEARTBEAT_S),
        faults: Some(FaultPlan::uniform(
            FaultPolicy {
                drop: 0.05,
                duplicate: 0.01,
                ..FaultPolicy::default()
            },
            0xC17F,
        )),
        reliability: Some(RetryPolicy::default()),
        regions: 4,
        parallelism: 4,
        ..SystemConfig::default()
    };
    let mut sys = CoralPieSystem::new(net, &specs, config);
    assert_eq!(sys.regions(), 4);
    let entries: Vec<IntersectionId> = (0..cols as u32).map(IntersectionId).collect();
    sys.set_arrivals(PoissonArrivals::new(0.5, entries, 4, 0xC17F ^ 0xfeed));
    sys.schedule_region_kill(SimTime::from_secs(KILL_S), 2);
    sys.schedule_region_restore(SimTime::from_secs(HEAL_S), 2);

    sys.run_until(SimTime::from_secs(KILL_S));
    let committed: BTreeSet<(VertexId, VertexId)> = union_edges(&sys).into_iter().collect();
    sys.run_until(SimTime::from_secs(END_S));
    sys.finish();

    let recoveries = &sys.telemetry().region_recoveries;
    assert_eq!(recoveries.len(), 1, "got {recoveries:?}");
    assert!(
        recoveries[0].recovery() <= RECOVERY_BOUND,
        "region recovery {} exceeds bound {RECOVERY_BOUND}",
        recoveries[0].recovery()
    );
    let after = union_edges(&sys);
    let after_set: BTreeSet<(VertexId, VertexId)> = after.iter().copied().collect();
    assert!(
        committed.is_subset(&after_set),
        "committed edges lost across the region outage"
    );
    assert_eq!(after.len(), after_set.len(), "duplicate edges in the union");
}

/// Byte identity of the single-region system, pinned by literal values
/// recorded before regions were folded into one deployment path: same
/// deliveries, informs, events, passages and storage stats under chaos,
/// kills and retries.
#[test]
fn single_region_fingerprint_is_pinned() {
    let net = generators::corridor(4, 120.0, 12.0);
    let specs: Vec<CameraSpec> = (0..4)
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
            0x5eed,
        )),
        reliability: Some(RetryPolicy::default()),
        seed: 7,
        ..SystemConfig::default()
    };
    let mut sys = CoralPieSystem::new(net.clone(), &specs, config);
    assert_eq!(sys.regions(), 1);
    for k in 0..3u64 {
        let r = route::shortest_path(&net, IntersectionId(0), IntersectionId(3)).unwrap();
        sys.traffic_mut().spawn(
            SimTime::from_secs(2) + SimDuration::from_secs(9 * k),
            r,
            Some(ObjectClass::Car),
        );
    }
    sys.run_until(SimTime::from_secs(50));
    sys.finish();
    assert_eq!(run_print(&sys), (42, 21, 17, 12, stats(17, 11)));
}
