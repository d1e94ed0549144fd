//! Parallel camera stepping is invisible to behavior: a run's full
//! fingerprint — telemetry stream, storage graph, accuracy report — is a
//! pure function of the seed, byte-identical at every
//! `SystemConfig::parallelism`.
//!
//! The analysis phase fans across worker threads, but results merge back
//! in `CameraId` order before any shared-state effect (DESIGN.md §5), so
//! thread scheduling must never leak into a run. The default tests pin a
//! fast smoke subset; `ci.sh` runs the full 8-scenario × 3-seed ×
//! {1, 2, 8}-worker matrix (including under `--release`) via `--ignored`.

use coral_pie::core::{CameraSpec, CoralPieSystem, NodeConfig, SystemConfig};
use coral_pie::geo::{generators, route, IntersectionId};
use coral_pie::net::{FaultPlan, FaultPolicy, RetryPolicy};
use coral_pie::sim::{
    FailureEvent, FailureKind, FailureSchedule, PoissonArrivals, SimDuration, SimTime, TrafficLight,
};
use coral_pie::topology::CameraId;
use coral_pie::vision::{DetectorNoise, ObjectClass};
use std::fmt::Write as _;

const SEEDS: [u64; 3] = [7, 1234, 0xC0FFEE];
const PARALLELISMS: [usize; 2] = [2, 8];

/// Serializes everything observable about a finished run.
fn fingerprint(sys: &CoralPieSystem) -> String {
    let mut s = String::new();
    let obs = sys.observability();
    let [id, cd, ud] = ["inform", "confirm", "topology_update"].map(|kind| obs.delivered(kind));
    let heartbeat_bytes = obs
        .registry()
        .counter_value("runtime_cloud_bytes_total", &[])
        .unwrap_or(0);
    let _ = writeln!(
        s,
        "counters md={} id={id} cd={cd} ud={ud} hb={} cb={}",
        id + cd + ud,
        obs.delivered_bytes("inform") + obs.delivered_bytes("confirm"),
        heartbeat_bytes + obs.delivered_bytes("topology_update")
    );
    let t = sys.telemetry();
    for p in &t.passages {
        let _ = writeln!(s, "passage {:?} {:?} {}", p.camera, p.vehicle, p.entered_ms);
    }
    for i in &t.informs {
        let _ = writeln!(
            s,
            "inform at={:?} from={:?} veh={:?} t={:?}",
            i.at, i.from, i.vehicle, i.arrived
        );
    }
    for e in &t.events {
        let _ = writeln!(s, "event {:?} {:?} {:?}", e.0, e.1, e.2);
    }
    for r in &t.recoveries {
        let _ = writeln!(
            s,
            "recovery {:?} {:?} {:?}",
            r.killed, r.killed_at, r.recovered_at
        );
    }
    let _ = writeln!(s, "storage {:?}", sys.storage().stats());
    let _ = writeln!(s, "alive {:?}", sys.alive());
    let _ = writeln!(
        s,
        "redundancy {:?}",
        coral_pie::eval::inform_redundancy(sys)
    );
    let rep = coral_pie::eval::report(sys);
    let _ = writeln!(s, "detection {:?}", rep.detection);
    let _ = writeln!(s, "reid {:?}", rep.reid);
    let _ = writeln!(s, "transitions {:?}", rep.transitions);
    let _ = writeln!(s, "pools {:?}", rep.pools);
    s
}

fn corridor_specs(n: usize) -> Vec<CameraSpec> {
    (0..n)
        .map(|i| CameraSpec {
            id: CameraId(i as u32),
            site: IntersectionId(i as u32),
            videoing_angle_deg: 0.0,
        })
        .collect()
}

fn perfect_node() -> NodeConfig {
    NodeConfig {
        detector_noise: DetectorNoise::perfect(),
        ..NodeConfig::default()
    }
}

// ---- The 8 scenarios. Each maps (seed, parallelism) -> fingerprint. ----

/// 1. Open Poisson workload on a 4-camera corridor, noisy detectors.
fn open_corridor(seed: u64, parallelism: usize) -> String {
    let net = generators::corridor(4, 120.0, 12.0);
    let config = SystemConfig {
        seed,
        parallelism,
        ..SystemConfig::default()
    };
    let mut sys = CoralPieSystem::new(net, &corridor_specs(4), config);
    sys.set_arrivals(PoissonArrivals::new(
        0.3,
        vec![IntersectionId(0), IntersectionId(3)],
        3,
        seed ^ 0xfeed,
    ));
    sys.run_until(SimTime::from_secs(45));
    sys.finish();
    fingerprint(&sys)
}

/// 2. Same workload with MDCS routing replaced by broadcast flooding.
fn open_corridor_broadcast(seed: u64, parallelism: usize) -> String {
    let net = generators::corridor(4, 120.0, 12.0);
    let config = SystemConfig {
        seed,
        parallelism,
        broadcast: true,
        ..SystemConfig::default()
    };
    let mut sys = CoralPieSystem::new(net, &corridor_specs(4), config);
    sys.set_arrivals(PoissonArrivals::new(
        0.3,
        vec![IntersectionId(0), IntersectionId(3)],
        3,
        seed ^ 0xfeed,
    ));
    sys.run_until(SimTime::from_secs(45));
    sys.finish();
    fingerprint(&sys)
}

/// 3. One scripted vehicle crossing three cameras, MDCS routing.
fn single_vehicle(seed: u64, parallelism: usize) -> String {
    single_vehicle_impl(false, seed, parallelism)
}

/// 4. One scripted vehicle, broadcast flooding.
fn single_vehicle_broadcast(seed: u64, parallelism: usize) -> String {
    single_vehicle_impl(true, seed, parallelism)
}

fn single_vehicle_impl(broadcast: bool, seed: u64, parallelism: usize) -> String {
    let net = generators::corridor(3, 120.0, 12.0);
    let config = SystemConfig {
        node: perfect_node(),
        broadcast,
        seed,
        parallelism,
        ..SystemConfig::default()
    };
    let mut sys = CoralPieSystem::new(net.clone(), &corridor_specs(3), config);
    sys.run_until(SimTime::from_secs(2));
    let r = route::shortest_path(&net, IntersectionId(0), IntersectionId(2)).unwrap();
    sys.traffic_mut()
        .spawn(SimTime::from_secs(2), r, Some(ObjectClass::Car));
    sys.run_until(SimTime::from_secs(40));
    sys.finish();
    fingerprint(&sys)
}

/// 5. Mid-run camera kill: liveness sweep, topology reconfiguration and
///    the recovery protocol all run under the parallel stepper.
fn failure_run(seed: u64, parallelism: usize) -> String {
    let net = generators::corridor(5, 120.0, 12.0);
    let config = SystemConfig {
        node: perfect_node(),
        seed,
        parallelism,
        ..SystemConfig::default()
    };
    let mut sys = CoralPieSystem::new(net.clone(), &corridor_specs(5), config);
    sys.run_until(SimTime::from_secs(5));
    let mut schedule = FailureSchedule::new();
    schedule.push(FailureEvent {
        at: SimTime::from_secs(10),
        camera: CameraId(2),
        kind: FailureKind::Kill,
    });
    sys.set_failures(&schedule);
    let r = route::shortest_path(&net, IntersectionId(0), IntersectionId(4)).unwrap();
    sys.traffic_mut()
        .spawn(SimTime::from_secs(6), r, Some(ObjectClass::Car));
    sys.run_until(SimTime::from_secs(60));
    sys.finish();
    fingerprint(&sys)
}

/// 6. A platoon queuing at a red light — many vehicles in one FOV.
fn platoon_run(seed: u64, parallelism: usize) -> String {
    let net = generators::corridor(3, 120.0, 12.0);
    let config = SystemConfig {
        node: perfect_node(),
        seed,
        parallelism,
        ..SystemConfig::default()
    };
    let mut sys = CoralPieSystem::new(net.clone(), &corridor_specs(3), config);
    sys.traffic_mut().add_light(TrafficLight::new(
        IntersectionId(1),
        SimDuration::from_secs(40),
        SimDuration::ZERO,
    ));
    sys.run_until(SimTime::from_secs(2));
    for k in 0..3u64 {
        let r = route::shortest_path(&net, IntersectionId(0), IntersectionId(2)).unwrap();
        sys.traffic_mut()
            .spawn(SimTime::from_secs(2 + 3 * k), r, Some(ObjectClass::Car));
    }
    sys.run_until(SimTime::from_secs(80));
    sys.finish();
    fingerprint(&sys)
}

/// 7. Chaos stack live: seeded drops/duplicates under at-least-once
///    delivery. Retransmission timers tick inside the ordered commit
///    phase.
fn chaos_run(seed: u64, parallelism: usize) -> String {
    let net = generators::corridor(4, 120.0, 12.0);
    let config = SystemConfig {
        node: perfect_node(),
        faults: Some(FaultPlan::uniform(
            FaultPolicy {
                drop: 0.05,
                duplicate: 0.01,
                ..FaultPolicy::default()
            },
            seed ^ 0xc0de,
        )),
        reliability: Some(RetryPolicy::default()),
        seed,
        parallelism,
        ..SystemConfig::default()
    };
    let mut sys = CoralPieSystem::new(net, &corridor_specs(4), config);
    sys.set_arrivals(PoissonArrivals::new(
        0.25,
        vec![IntersectionId(0), IntersectionId(3)],
        2,
        seed ^ 0xbeef,
    ));
    sys.run_until(SimTime::from_secs(45));
    sys.finish();
    fingerprint(&sys)
}

/// 8. A 2×3 grid with arrivals from two corners — non-corridor topology,
///    more cameras than workers at `parallelism = 2`.
fn grid_run(seed: u64, parallelism: usize) -> String {
    let net = generators::grid(2, 3, 120.0, 12.0);
    let specs: Vec<CameraSpec> = (0..6)
        .map(|i| CameraSpec {
            id: CameraId(i),
            site: IntersectionId(i),
            videoing_angle_deg: f64::from(i) * 60.0,
        })
        .collect();
    let config = SystemConfig {
        seed,
        parallelism,
        ..SystemConfig::default()
    };
    let mut sys = CoralPieSystem::new(net, &specs, config);
    sys.set_arrivals(PoissonArrivals::new(
        0.3,
        vec![IntersectionId(0), IntersectionId(5)],
        3,
        seed ^ 0xfeed,
    ));
    sys.run_until(SimTime::from_secs(45));
    sys.finish();
    fingerprint(&sys)
}

/// A scenario maps (seed, parallelism) to the run's fingerprint.
type Scenario = fn(u64, usize) -> String;

const SCENARIOS: [(&str, Scenario); 8] = [
    ("open_corridor", open_corridor),
    ("open_corridor_broadcast", open_corridor_broadcast),
    ("single_vehicle", single_vehicle),
    ("single_vehicle_broadcast", single_vehicle_broadcast),
    ("failure_run", failure_run),
    ("platoon_run", platoon_run),
    ("chaos_run", chaos_run),
    ("grid_run", grid_run),
];

fn assert_matrix(scenarios: &[(&str, Scenario)], seeds: &[u64]) {
    for (name, run) in scenarios {
        for &seed in seeds {
            let sequential = run(seed, 1);
            assert!(
                !sequential.is_empty(),
                "{name} seed={seed}: empty fingerprint"
            );
            for &par in &PARALLELISMS {
                let parallel = run(seed, par);
                assert_eq!(
                    sequential, parallel,
                    "{name} seed={seed}: parallelism={par} diverged from sequential"
                );
            }
        }
    }
}

/// Fast smoke subset for `cargo test`: one noisy open workload and the
/// platoon (many vehicles per frame), one seed, all parallelism levels.
#[test]
fn parallel_matches_sequential_smoke() {
    assert_matrix(
        &[
            ("open_corridor", open_corridor as Scenario),
            ("platoon_run", platoon_run),
        ],
        &[SEEDS[0]],
    );
}

/// The full acceptance matrix: 8 scenarios × 3 seeds × parallelism
/// {1, 2, 8}. Slow; run by `ci.sh` (debug and `--release`) via
/// `cargo test --test parallel_determinism -- --ignored`.
#[test]
#[ignore = "full matrix is slow; ci.sh runs it explicitly"]
fn parallel_matches_sequential_full_matrix() {
    assert_matrix(&SCENARIOS, &SEEDS);
}

/// The stepper's utilization metrics land in the shared registry.
#[test]
fn tick_metrics_are_exported() {
    let net = generators::corridor(3, 120.0, 12.0);
    let config = SystemConfig {
        parallelism: 2,
        ..SystemConfig::default()
    };
    let mut sys = CoralPieSystem::new(net, &corridor_specs(3), config);
    sys.set_arrivals(PoissonArrivals::new(
        0.3,
        vec![IntersectionId(0)],
        2,
        0xfeed,
    ));
    sys.run_until(SimTime::from_secs(10));
    let r = sys.observability().registry();
    let ticks = r.counter_value("core_tick_total", &[]).unwrap_or(0);
    assert!(ticks > 0, "tick counter must advance");
    let busy = r.counter_value("core_step_busy_us_total", &[]).unwrap_or(0);
    let critical = r
        .counter_value("core_step_critical_us_total", &[])
        .unwrap_or(0);
    assert!(
        busy >= critical,
        "total work ({busy}us) must dominate the critical path ({critical}us)"
    );
    let prom = r.render_prometheus();
    assert!(
        prom.contains("core_worker_busy_us"),
        "per-worker histograms exported"
    );
    assert!(prom.contains("core_tick_us"), "tick latency exported");
}
