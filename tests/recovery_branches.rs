//! Recovery and failover branches that no scenario test reaches: each
//! test pins one branch of the DES's camera-recovery, region-recovery or
//! failover bookkeeping with a small two-region corridor.

use coral_pie::core::{
    CameraSpec, CoralPieSystem, NodeConfig, Recovery, RegionRecovery, SystemConfig,
};
use coral_pie::geo::{generators, route, IntersectionId};
use coral_pie::net::RetryPolicy;
use coral_pie::obs::JournalKind;
use coral_pie::sim::SimTime;
use coral_pie::topology::CameraId;
use coral_pie::vision::{DetectorNoise, ObjectClass};

/// Four cameras on a corridor, split over two regions: cameras 0–1 home
/// to region 0, cameras 2–3 to region 1.
fn two_regions(reliability: Option<RetryPolicy>) -> CoralPieSystem {
    let net = generators::corridor(4, 120.0, 12.0);
    let specs: Vec<CameraSpec> = (0..4)
        .map(|i| CameraSpec {
            id: CameraId(i),
            site: IntersectionId(i),
            videoing_angle_deg: 0.0,
        })
        .collect();
    let config = SystemConfig {
        node: NodeConfig {
            detector_noise: DetectorNoise::perfect(),
            ..NodeConfig::default()
        },
        reliability,
        regions: 2,
        ..SystemConfig::default()
    };
    let sys = CoralPieSystem::new(net, &specs, config);
    for cam in 0..4 {
        assert_eq!(
            sys.runtime().world().parent_region_of(CameraId(cam)),
            u16::from(cam >= 2)
        );
    }
    sys
}

fn failovers(sys: &CoralPieSystem) -> Vec<String> {
    let mut out = Vec::new();
    sys.observability().journal().for_each(|e| {
        if e.kind == JournalKind::HealthChange && e.detail.starts_with("failover") {
            out.push(format!("{}: {}", e.subject, e.detail));
        }
    });
    out
}

/// A region healed while none of its home cameras is alive has no
/// heartbeat to wait for: its recovery is recorded at the heal instant.
#[test]
fn region_healed_with_no_live_home_camera_recovers_at_once() {
    let mut sys = two_regions(None);
    sys.run_until(SimTime::from_secs(4));
    for cam in [2, 3] {
        sys.runtime_mut()
            .schedule_kill(SimTime::from_secs(5), CameraId(cam));
    }
    sys.schedule_region_kill(SimTime::from_secs(8), 1);
    sys.schedule_region_restore(SimTime::from_secs(12), 1);
    sys.run_until(SimTime::from_secs(20));
    assert!(sys.runtime().world().region_alive(1));
    assert_eq!(
        sys.telemetry().region_recoveries,
        [RegionRecovery {
            region: 1,
            killed_at: SimTime::from_secs(8),
            restored_at: SimTime::from_secs(12),
            recovered_at: SimTime::from_secs(12),
        }]
    );
}

/// A camera whose parent region stops acking fails over only onto a live
/// region: with both regions partitioned its heartbeats pile up unacked,
/// yet it stays parented at home and journals no failover. The control
/// run partitions region 1 alone and does fail its cameras over.
#[test]
fn no_live_region_to_adopt_means_no_failover() {
    let mut control = two_regions(Some(RetryPolicy::default()));
    control.schedule_region_kill(SimTime::from_secs(10), 1);
    control.run_until(SimTime::from_secs(40));
    assert!(!failovers(&control).is_empty(), "control run failed over");
    for cam in [2, 3] {
        assert_eq!(control.runtime().world().parent_region_of(CameraId(cam)), 0);
    }

    let mut sys = two_regions(Some(RetryPolicy::default()));
    sys.schedule_region_kill(SimTime::from_secs(10), 0);
    sys.schedule_region_kill(SimTime::from_secs(10), 1);
    sys.run_until(SimTime::from_secs(40));
    assert_eq!(failovers(&sys), Vec::<String>::new());
    for cam in 0..4 {
        assert_eq!(
            sys.runtime().world().parent_region_of(CameraId(cam)),
            u16::from(cam >= 2)
        );
    }
}

fn journal_count(sys: &CoralPieSystem, kind: JournalKind) -> usize {
    let mut n = 0;
    sys.observability()
        .journal()
        .for_each(|e| n += usize::from(e.kind == kind));
    n
}

/// Killing a partitioned region again, or healing a live one, changes
/// nothing. A heartbeat served while a lower region is partitioned skips
/// the dead replica, and a region healed while every other region is down
/// has no replica to take its topology state from.
#[test]
fn region_partitions_nest_and_heal_without_a_donor() {
    let mut sys = two_regions(Some(RetryPolicy::default()));
    sys.schedule_region_kill(SimTime::from_secs(10), 0);
    sys.schedule_region_kill(SimTime::from_secs(12), 0);
    sys.schedule_region_restore(SimTime::from_secs(14), 1);
    sys.schedule_region_kill(SimTime::from_secs(20), 1);
    sys.schedule_region_restore(SimTime::from_secs(25), 1);
    sys.schedule_region_restore(SimTime::from_secs(30), 0);
    sys.run_until(SimTime::from_secs(45));
    assert_eq!(journal_count(&sys, JournalKind::PartitionOpen), 2);
    assert_eq!(journal_count(&sys, JournalKind::PartitionHeal), 2);
    assert_eq!(
        failovers(&sys),
        [
            "cam0: failover: 3 unacked heartbeats against region0, re-parented to region1",
            "cam1: failover: 3 unacked heartbeats against region0, re-parented to region1",
        ]
    );
    assert_eq!(
        sys.telemetry().region_recoveries,
        [
            RegionRecovery {
                region: 1,
                killed_at: SimTime::from_secs(20),
                restored_at: SimTime::from_secs(25),
                recovered_at: SimTime::from_micros(25_404_659),
            },
            RegionRecovery {
                region: 0,
                killed_at: SimTime::from_secs(10),
                restored_at: SimTime::from_secs(30),
                recovered_at: SimTime::from_micros(30_045_444),
            },
        ]
    );
    assert_eq!(sys.server().active_cameras().len(), 4);
}

/// A kill of a dead camera and a restore of an unknown or live one are
/// no-ops. Two cameras evicted in one sweep await the same survivors, so
/// the one update that reaches the last of them closes both recoveries,
/// recorded newest first.
#[test]
fn camera_no_ops_and_recoveries_closed_together() {
    let mut sys = two_regions(None);
    sys.run_until(SimTime::from_secs(4));
    let rt = sys.runtime_mut();
    rt.schedule_kill(SimTime::from_secs(5), CameraId(2));
    rt.schedule_kill(SimTime::from_secs(5), CameraId(3));
    rt.schedule_kill(SimTime::from_secs(6), CameraId(3));
    rt.schedule_restore(SimTime::from_secs(6), CameraId(0));
    rt.schedule_restore(SimTime::from_secs(6), CameraId(99));
    sys.run_until(SimTime::from_secs(20));
    assert_eq!(journal_count(&sys, JournalKind::NodeKill), 2);
    assert_eq!(journal_count(&sys, JournalKind::NodeRestore), 0);
    let recovered_at = SimTime::from_micros(8_215_842);
    assert_eq!(
        sys.telemetry().recoveries,
        [3, 2].map(|cam| Recovery {
            killed: CameraId(cam),
            killed_at: SimTime::from_secs(5),
            recovered_at,
        })
    );
}

/// A boundary edge whose upstream home region is partitioned is
/// replicated into silence: the store never acks, so the sending camera's
/// reliability layer retries and gives up.
#[test]
fn replication_to_a_partitioned_store_is_never_acked() {
    let counters = |kill: bool| {
        let net = generators::corridor(4, 120.0, 12.0);
        let mut sys = two_regions(Some(RetryPolicy::default()));
        if kill {
            sys.schedule_region_kill(SimTime::from_secs(5), 1);
        }
        let r = route::shortest_path(&net, IntersectionId(3), IntersectionId(0)).unwrap();
        sys.traffic_mut()
            .spawn(SimTime::from_secs(6), r, Some(ObjectClass::Car));
        sys.run_until(SimTime::from_secs(60));
        let registry = sys.observability().registry();
        let read = |name: &str, cam: &str| {
            registry
                .counter_value(name, &[("endpoint", cam)])
                .unwrap_or(0)
        };
        ["cam0", "cam1", "cam2", "cam3"].map(|cam| {
            (
                read("reliable_retries_total", cam),
                read("reliable_gave_up_total", cam),
            )
        })
    };
    assert_eq!(counters(false), [(0, 0); 4]);
    assert_eq!(counters(true), [(0, 0), (8, 1), (21, 3), (21, 3)]);
}

/// A region fail-back awaits every home camera alive at the heal. One of
/// them killed before its first post-heal heartbeat leaves the set: the
/// fail-back closes when the survivor reports in, and is recorded.
#[test]
fn home_camera_killed_after_the_heal_leaves_the_fail_back() {
    let mut sys = two_regions(None);
    sys.schedule_region_kill(SimTime::from_secs(10), 1);
    sys.schedule_region_restore(SimTime::from_secs(20), 1);
    sys.runtime_mut()
        .schedule_kill(SimTime::from_micros(20_001_000), CameraId(3));
    sys.run_until(SimTime::from_secs(80));
    assert_eq!(
        sys.telemetry().region_recoveries,
        [RegionRecovery {
            region: 1,
            killed_at: SimTime::from_secs(10),
            restored_at: SimTime::from_secs(20),
            recovered_at: SimTime::from_micros(20_054_365),
        }]
    );
}

/// A camera recovery awaits the survivors the sweep reconfigured. The
/// only one of them killed before its topology update arrives leaves the
/// set empty: the recovery closes at that kill.
#[test]
fn awaited_survivor_killed_before_its_update_closes_the_recovery() {
    let mut sys = two_regions(None);
    sys.run_until(SimTime::from_secs(4));
    let rt = sys.runtime_mut();
    rt.schedule_kill(SimTime::from_secs(5), CameraId(3));
    // Camera 3 is evicted at the 8.2 s sweep; its update to camera 2
    // would land about 50 ms later.
    let second_kill = SimTime::from_micros(8_201_000);
    rt.schedule_kill(second_kill, CameraId(2));
    sys.run_until(SimTime::from_secs(30));
    assert_eq!(
        sys.telemetry().recoveries,
        [
            Recovery {
                killed: CameraId(3),
                killed_at: SimTime::from_secs(5),
                recovered_at: second_kill,
            },
            Recovery {
                killed: CameraId(2),
                killed_at: second_kill,
                recovered_at: SimTime::from_micros(12_214_960),
            },
        ]
    );
}
