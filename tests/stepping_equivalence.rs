//! Stepping is invisible to behavior: a run's full fingerprint (delivered
//! counters, telemetry stream, ground-truth FOV intervals, storage graph
//! with edge weights, per-camera frame counts, inform redundancy and
//! accuracy report) is byte-identical in every stepping mode: dense or
//! sparse (`SystemConfig::sparse_stepping`, DESIGN.md §7), on one worker
//! or fanned across several (`SystemConfig::parallelism`, DESIGN.md §5).
//!
//! Sparse stepping consults the spatial occupancy index each tick and
//! steps only cameras with a nearby vehicle, live tracks or a clutter
//! burst; cameras with live tracks but an empty candidate list still run
//! the full path on an empty scene so tracker aging and detector clutter
//! draws advance exactly as in a dense run. The commit walk then visits
//! only the stepped cameras plus idle ones owing an exit edge or a link
//! tick. The parallel stepper fans the analysis phase across workers and
//! merges results back in `CameraId` order before any shared-state
//! effect, so thread scheduling must never leak into a run.
//!
//! One catalogue, one mode axis, one assertion: every mode's fingerprint
//! equals the first (oracle) mode's. The corridor and grid scenarios run
//! dense stepping on 2 workers (the oracle) against sparse stepping on 1,
//! 2 and 8; the hard-suite regimes run dense on one worker, the same
//! again, then sparse, and a second seed must change the run. Tier-1 runs
//! a smoke subset; `ci.sh` runs the ignored matrices.

use coral_pie::core::{CameraSpec, CoralPieSystem, NodeConfig, SystemConfig};
use coral_pie::eval::Scenario;
use coral_pie::geo::{generators, route, IntersectionId};
use coral_pie::net::{FaultPlan, FaultPolicy, RetryPolicy};
use coral_pie::sim::{
    CarFollowModel, FailureEvent, FailureKind, FailureSchedule, IncidentSpec, PoissonArrivals,
    ScenarioSpec, SimDuration, SimTime, TrafficConfig, TrafficLight,
};
use coral_pie::topology::CameraId;
use coral_pie::vision::{DetectorNoise, ObjectClass};
use std::fmt::Write as _;

const SEEDS: [u64; 3] = [7, 1234, 0xC0FFEE];

/// How the DES steps its cameras.
#[derive(Debug, Clone, Copy)]
struct Mode {
    sparse: bool,
    workers: usize,
}

const fn dense(workers: usize) -> Mode {
    Mode {
        sparse: false,
        workers,
    }
}

const fn sparse(workers: usize) -> Mode {
    Mode {
        sparse: true,
        workers,
    }
}

/// Corridor and grid modes, oracle first: the sparse batch under worker
/// partitioning against dense stepping, and sparse at every worker count.
const CORRIDOR_MODES: [Mode; 4] = [dense(2), sparse(1), sparse(2), sparse(8)];

/// The tier-1 subset: both axes, with the sequential stepper that every
/// default configuration runs.
const SMOKE_MODES: [Mode; 3] = [dense(2), sparse(1), sparse(8)];

/// Hard-regime modes: a dense run, its repeat (same seed, same run), then
/// sparse stepping.
const REGIME_MODES: [Mode; 3] = [dense(1), dense(1), sparse(1)];

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
    // The ground-truth FOV intervals pin the commit walk's exit edges.
    for iv in sys.ground_truth().intervals() {
        let _ = writeln!(s, "fov {iv:?}");
    }
    let _ = writeln!(s, "storage {:?}", sys.storage().stats());
    // Edge weights are signature distances.
    sys.with_trajectory_graph(|g| {
        for e in g.edges() {
            let _ = writeln!(s, "edge {:?} {:?} {:x}", e.from, e.to, e.weight.to_bits());
        }
    });
    let _ = writeln!(s, "alive {:?}", sys.alive());
    // Frame ids seed render noise; the lazy per-camera frame counters must
    // settle to the dense counts.
    let frames: Vec<u64> = (0..)
        .map_while(|c| sys.node(CameraId(c)))
        .map(|n| n.frame_count())
        .collect();
    let _ = writeln!(s, "frames {frames:?}");
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

/// Runs `run` in every mode, asserts that each mode's fingerprint equals
/// the first mode's, and returns that oracle fingerprint.
fn assert_modes_agree(label: &str, modes: &[Mode], run: impl Fn(Mode) -> CoralPieSystem) -> String {
    let oracle = fingerprint(&run(modes[0]));
    for &mode in &modes[1..] {
        let other = fingerprint(&run(mode));
        let first_diff = oracle.lines().zip(other.lines()).find(|(a, b)| a != b);
        assert!(
            oracle == other,
            "{label}: {mode:?} diverged from {:?} at {first_diff:?}",
            modes[0]
        );
    }
    oracle
}

// ---- The corridor and grid catalogue. ----

/// A corridor or grid scenario: builds, runs and finishes a system for
/// one seed in one stepping mode.
type Corridor = fn(u64, Mode) -> CoralPieSystem;

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

fn config(seed: u64, mode: Mode) -> SystemConfig {
    SystemConfig {
        seed,
        parallelism: mode.workers,
        sparse_stepping: mode.sparse,
        ..SystemConfig::default()
    }
}

/// Poisson arrivals at `rate` on routes of at least `min_lanes` lanes,
/// seeded by `seed`, between the two ends of a 4-camera corridor whose
/// roads allow `speed_mps`.
fn open_run(
    cfg: SystemConfig,
    speed_mps: f64,
    rate: f64,
    min_lanes: usize,
    seed: u64,
) -> CoralPieSystem {
    let net = generators::corridor(4, 120.0, speed_mps);
    let mut sys = CoralPieSystem::new(net, &corridor_specs(4), cfg);
    sys.set_arrivals(PoissonArrivals::new(
        rate,
        vec![IntersectionId(0), IntersectionId(3)],
        min_lanes,
        seed,
    ));
    sys.run_until(SimTime::from_secs(45));
    sys.finish();
    sys
}

/// Open Poisson workload on a 4-camera corridor, noisy detectors.
fn open_corridor(seed: u64, mode: Mode) -> CoralPieSystem {
    open_run(config(seed, mode), 12.0, 0.3, 3, seed ^ 0xfeed)
}

/// The same workload with MDCS routing replaced by broadcast flooding.
fn open_corridor_broadcast(seed: u64, mode: Mode) -> CoralPieSystem {
    let cfg = SystemConfig {
        broadcast: true,
        ..config(seed, mode)
    };
    open_run(cfg, 12.0, 0.3, 3, seed ^ 0xfeed)
}

/// One scripted vehicle crossing three cameras. Long idle stretches
/// before the spawn and after the exit exercise the early-out on every
/// camera.
fn single_vehicle(seed: u64, mode: Mode) -> CoralPieSystem {
    single_vehicle_run(false, seed, mode)
}

/// One scripted vehicle, broadcast flooding.
fn single_vehicle_broadcast(seed: u64, mode: Mode) -> CoralPieSystem {
    single_vehicle_run(true, seed, mode)
}

fn single_vehicle_run(broadcast: bool, seed: u64, mode: Mode) -> CoralPieSystem {
    let net = generators::corridor(3, 120.0, 12.0);
    let cfg = SystemConfig {
        node: perfect_node(),
        broadcast,
        ..config(seed, mode)
    };
    let mut sys = CoralPieSystem::new(net.clone(), &corridor_specs(3), cfg);
    sys.run_until(SimTime::from_secs(2));
    let r = route::shortest_path(&net, IntersectionId(0), IntersectionId(2)).unwrap();
    sys.traffic_mut()
        .spawn(SimTime::from_secs(2), r, Some(ObjectClass::Car));
    sys.run_until(SimTime::from_secs(40));
    sys.finish();
    sys
}

/// A mid-run camera kill: the liveness sweep, topology reconfiguration
/// and the recovery protocol run under every stepper, and a dead camera
/// keeps its occupancy slot but is never stepped or idle-advanced.
fn failure_kill(seed: u64, mode: Mode) -> CoralPieSystem {
    failure_run(false, seed, mode)
}

/// The kill followed by a restore: the restored camera's frame counter
/// resumes without its dead ticks.
fn failure_kill_restore(seed: u64, mode: Mode) -> CoralPieSystem {
    failure_run(true, seed, mode)
}

fn failure_run(restore: bool, seed: u64, mode: Mode) -> CoralPieSystem {
    let net = generators::corridor(5, 120.0, 12.0);
    let cfg = SystemConfig {
        node: perfect_node(),
        ..config(seed, mode)
    };
    let mut sys = CoralPieSystem::new(net.clone(), &corridor_specs(5), cfg);
    sys.run_until(SimTime::from_secs(5));
    let mut schedule = FailureSchedule::new();
    let mut push = |secs, kind| {
        schedule.push(FailureEvent {
            at: SimTime::from_secs(secs),
            camera: CameraId(2),
            kind,
        })
    };
    push(10, FailureKind::Kill);
    if restore {
        push(50, FailureKind::Restore);
    }
    sys.set_failures(&schedule);
    let r = route::shortest_path(&net, IntersectionId(0), IntersectionId(4)).unwrap();
    sys.traffic_mut()
        .spawn(SimTime::from_secs(6), r, Some(ObjectClass::Car));
    sys.run_until(SimTime::from_secs(60));
    sys.finish();
    sys
}

/// A platoon queuing at a red light: many vehicles parked inside one FOV
/// for a long time (candidate cache anchors barely move).
fn platoon_run(seed: u64, mode: Mode) -> CoralPieSystem {
    let net = generators::corridor(3, 120.0, 12.0);
    let cfg = SystemConfig {
        node: perfect_node(),
        ..config(seed, mode)
    };
    let mut sys = CoralPieSystem::new(net.clone(), &corridor_specs(3), cfg);
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
    sys
}

/// The open corridor at a lighter load with `faults` on every link under
/// at-least-once delivery, perfect detectors.
fn chaos_open_run(seed: u64, mode: Mode, faults: FaultPolicy, fault_seed: u64) -> CoralPieSystem {
    let cfg = SystemConfig {
        node: perfect_node(),
        faults: Some(FaultPlan::uniform(faults, fault_seed)),
        reliability: Some(RetryPolicy::default()),
        ..config(seed, mode)
    };
    open_run(cfg, 12.0, 0.25, 2, seed ^ 0xbeef)
}

/// Seeded drops and duplicates: idle cameras must still tick their
/// retransmission timers inside the ordered commit phase.
fn chaos_run(seed: u64, mode: Mode) -> CoralPieSystem {
    let faults = FaultPolicy {
        drop: 0.05,
        duplicate: 0.01,
        ..FaultPolicy::default()
    };
    chaos_open_run(seed, mode, faults, seed ^ 0xc0de)
}

/// Reordering and delaying links. A reorder fault holds an envelope back
/// until the link's next send or tick, so a camera that goes idle right
/// after a send (a heartbeat, an ack, an inform) still owes its link a
/// tick: the commit walk must keep visiting it until the held envelope is
/// released.
fn chaos_reorder_run(seed: u64, mode: Mode) -> CoralPieSystem {
    let faults = FaultPolicy {
        reorder: 0.2,
        delay: 0.1,
        delay_by: SimDuration::from_millis(150),
        ..FaultPolicy::default()
    };
    chaos_open_run(seed, mode, faults, seed ^ 0x0de1)
}

/// A 2×3 grid with arrivals from two corners: a non-corridor topology
/// where occupancy cells cover several cameras at once, and more cameras
/// than workers at 2 workers.
fn grid_run(seed: u64, mode: Mode) -> CoralPieSystem {
    let net = generators::grid(2, 3, 120.0, 12.0);
    let specs: Vec<CameraSpec> = (0..6)
        .map(|i| CameraSpec {
            id: CameraId(i),
            site: IntersectionId(i),
            videoing_angle_deg: f64::from(i) * 60.0,
        })
        .collect();
    let mut sys = CoralPieSystem::new(net, &specs, config(seed, mode));
    sys.set_arrivals(PoissonArrivals::new(
        0.3,
        vec![IntersectionId(0), IntersectionId(5)],
        3,
        seed ^ 0xfeed,
    ));
    sys.run_until(SimTime::from_secs(45));
    sys.finish();
    sys
}

/// Fast traffic: IDM vehicles cruising near 30 m/s, several times the
/// ~11 m/s city profile the default anchor slack was tuned for. The
/// speed-derived slack (`slack_for`) must keep the candidate superset
/// exact (the drift test is speed-independent).
fn fast_vehicle_run(seed: u64, mode: Mode) -> CoralPieSystem {
    let cfg = SystemConfig {
        traffic: TrafficConfig {
            mean_speed_mps: 27.0,
            speed_jitter_mps: 3.0,
            model: CarFollowModel::Idm(Default::default()),
            ..TrafficConfig::default()
        },
        ..config(seed, mode)
    };
    open_run(cfg, 30.0, 0.3, 3, seed ^ 0xfeed)
}

/// Blind detectors: vehicles are in ground truth but never tracked, and
/// each route ends inside the last camera's FOV. The vehicle vanishes
/// there with no track to keep the camera stepping, so its ground-truth
/// exit edge comes from the commit walk's previous-FOV set alone.
fn blind_despawn_run(seed: u64, mode: Mode) -> CoralPieSystem {
    let net = generators::corridor(3, 120.0, 12.0);
    let cfg = SystemConfig {
        node: NodeConfig {
            detector_noise: DetectorNoise {
                miss_rate: 1.0,
                clutter_rate: 0.0,
                ..DetectorNoise::perfect()
            },
            ..NodeConfig::default()
        },
        ..config(seed, mode)
    };
    let mut sys = CoralPieSystem::new(net.clone(), &corridor_specs(3), cfg);
    for k in 0..3u64 {
        let r = route::shortest_path(&net, IntersectionId(0), IntersectionId(2)).unwrap();
        sys.traffic_mut()
            .spawn(SimTime::from_secs(1 + 5 * k), r, Some(ObjectClass::Car));
    }
    sys.run_until(SimTime::from_secs(60));
    sys.finish();
    sys
}

const CORRIDORS: [(&str, Corridor); 12] = [
    ("open_corridor", open_corridor),
    ("open_corridor_broadcast", open_corridor_broadcast),
    ("single_vehicle", single_vehicle),
    ("single_vehicle_broadcast", single_vehicle_broadcast),
    ("failure_kill", failure_kill),
    ("failure_kill_restore", failure_kill_restore),
    ("platoon_run", platoon_run),
    ("chaos_run", chaos_run),
    ("chaos_reorder_run", chaos_reorder_run),
    ("grid_run", grid_run),
    ("fast_vehicle_run", fast_vehicle_run),
    ("blind_despawn_run", blind_despawn_run),
];

fn assert_corridors(scenarios: &[(&str, Corridor)], seeds: &[u64], modes: &[Mode]) {
    for (name, run) in scenarios {
        for &seed in seeds {
            assert_modes_agree(&format!("{name} seed={seed}"), modes, |mode| {
                run(seed, mode)
            });
        }
    }
}

/// Runs the named corridor scenarios at one seed under `SMOKE_MODES`.
fn assert_smoke(names: &[&str]) {
    let scenarios: Vec<_> = CORRIDORS
        .into_iter()
        .filter(|(name, _)| names.contains(name))
        .collect();
    assert_eq!(
        scenarios.len(),
        names.len(),
        "unknown scenario in {names:?}"
    );
    assert_corridors(&scenarios, &SEEDS[..1], &SMOKE_MODES);
}

// Tier-1 smoke, 15 runs over three tests.

/// The scripted single vehicle (long all-idle stretches), the reordering
/// chaos stack (held envelopes on idle cameras) and the blind-detector
/// despawn (exit edges on idle cameras).
#[test]
fn sparse_matches_dense_smoke() {
    assert_smoke(&["single_vehicle", "chaos_reorder_run", "blind_despawn_run"]);
}

/// Fast traffic, so a bug in the speed-derived anchor slack cannot land
/// silently.
#[test]
fn sparse_matches_dense_fast_vehicles() {
    assert_smoke(&["fast_vehicle_run"]);
}

/// The noisy open workload, where most cameras are busy at once.
#[test]
fn parallel_matches_sequential_smoke() {
    assert_smoke(&["open_corridor"]);
}

/// The full matrix: 12 scenarios × 3 seeds × 4 modes, 144 runs. Run by
/// `ci.sh` in debug and release.
#[test]
#[ignore = "full matrix is slow; ci.sh runs it explicitly"]
fn corridor_full_matrix() {
    assert_corridors(&CORRIDORS, &SEEDS, &CORRIDOR_MODES);
}

// ---- The hard-suite regimes. ----

/// Shrinks a full hard-suite spec to a tier-1-sized run that still
/// exercises the regime's machinery: the traffic model, surge profile,
/// appearance classes and scene effects are kept; the grid, run length
/// and arrival volume come down; 10×10 incident coordinates are remapped
/// onto the 3×3 grid.
fn mini(mut spec: ScenarioSpec) -> ScenarioSpec {
    spec.name = format!("mini_{}", spec.name);
    spec.rows = 3;
    spec.cols = 3;
    spec.run_secs = 60;
    spec.rate_per_s = (spec.rate_per_s / 8.0).max(0.1);
    if let Some(s) = &mut spec.surge {
        s.peak_rate_per_s /= 8.0;
    }
    spec.min_route_lanes = 2;
    if !spec.incidents.is_empty() {
        spec.incidents = vec![IncidentSpec {
            at_s: 15.0,
            duration_s: Some(30.0),
            from: 4,
            to: 5,
        }];
    }
    spec
}

/// Per seed, every regime mode agrees; across the first two seeds, the
/// runs differ (the regime is seed-driven, not constant). The cross-seed
/// check reuses the oracle runs.
fn assert_regime(spec: &ScenarioSpec, seeds: &[u64]) {
    let runs: Vec<String> = seeds
        .iter()
        .map(|&seed| {
            assert_modes_agree(
                &format!("{} seed={seed}", spec.name),
                &REGIME_MODES,
                |mode| {
                    let mut scenario = Scenario::hard(spec.clone(), seed);
                    scenario.config.sparse_stepping = mode.sparse;
                    scenario.config.parallelism = mode.workers;
                    scenario.run()
                },
            )
        })
        .collect();
    if let [a, b, ..] = &runs[..] {
        assert!(a != b, "{}: different seeds must differ", spec.name);
    }
}

#[test]
fn mini_platoon_surge_is_deterministic() {
    assert_regime(&mini(ScenarioSpec::platoon_surge()), &SEEDS[..1]);
}

#[test]
fn mini_lookalike_is_deterministic() {
    assert_regime(&mini(ScenarioSpec::lookalike_city()), &SEEDS[..1]);
}

#[test]
fn mini_incident_reroute_is_deterministic() {
    assert_regime(&mini(ScenarioSpec::incident_reroute()), &SEEDS[..1]);
}

#[test]
fn mini_clutter_storm_is_deterministic() {
    assert_regime(&mini(ScenarioSpec::clutter_storm()), &SEEDS[..1]);
}

/// Every miniature regime plus the real smoke spec over three seeds:
/// 5 specs × 3 seeds × 3 modes, 45 runs.
#[test]
#[ignore = "ci.sh runs the seed matrix under --release"]
fn mini_matrix_is_deterministic_across_seeds() {
    for spec in ScenarioSpec::hard_suite() {
        assert_regime(&mini(spec), &SEEDS);
    }
    assert_regime(&ScenarioSpec::smoke(), &SEEDS);
}

// The full-size 10×10 regimes at the golden seed: one test per regime so
// `cargo test -- --ignored` runs them on parallel test threads.

#[test]
#[ignore = "city scale; ci.sh runs it under --release"]
fn full_platoon_surge_is_deterministic() {
    assert_regime(&ScenarioSpec::platoon_surge(), &[42]);
}

#[test]
#[ignore = "city scale; ci.sh runs it under --release"]
fn full_lookalike_is_deterministic() {
    assert_regime(&ScenarioSpec::lookalike_city(), &[42]);
}

#[test]
#[ignore = "city scale; ci.sh runs it under --release"]
fn full_incident_reroute_is_deterministic() {
    assert_regime(&ScenarioSpec::incident_reroute(), &[42]);
}

#[test]
#[ignore = "city scale; ci.sh runs it under --release"]
fn full_clutter_storm_is_deterministic() {
    assert_regime(&ScenarioSpec::clutter_storm(), &[42]);
}

// ---- Stepper bookkeeping. ----

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

/// The sparse path actually skips work: on the scripted single-vehicle
/// corridor most camera-ticks are idle, and the counters prove the
/// early-out fired. Once the vehicle has left and the links are quiet,
/// ticks keep running but no camera is committed. Dense mode must report
/// zero skips.
#[test]
fn sparse_skip_counters_advance() {
    let net = generators::corridor(3, 120.0, 12.0);
    let cfg = SystemConfig {
        node: perfect_node(),
        seed: SEEDS[0],
        sparse_stepping: true,
        ..SystemConfig::default()
    };
    let mut sys = CoralPieSystem::new(net.clone(), &corridor_specs(3), cfg);
    sys.run_until(SimTime::from_secs(2));
    let r = route::shortest_path(&net, IntersectionId(0), IntersectionId(2)).unwrap();
    sys.traffic_mut()
        .spawn(SimTime::from_secs(2), r, Some(ObjectClass::Car));
    sys.run_until(SimTime::from_secs(40));
    let counter = |sys: &CoralPieSystem, name: &str| {
        sys.observability()
            .registry()
            .counter_value(name, &[])
            .unwrap_or(0)
    };
    let (ticks, committed) = (
        counter(&sys, "core_tick_total"),
        counter(&sys, "core_cameras_committed_total"),
    );
    assert!(committed > 0, "the vehicle's cameras commit");
    // The vehicle is gone and the default links are passthroughs (always
    // quiet): heartbeats keep flowing, but no camera has a frame to commit.
    sys.run_until(SimTime::from_secs(50));
    assert!(
        counter(&sys, "core_tick_total") > ticks,
        "ticks keep running"
    );
    assert_eq!(
        counter(&sys, "core_cameras_committed_total"),
        committed,
        "idle cameras on quiet links are not committed"
    );
    sys.finish();
    let reg = sys.observability().registry();
    // Only committed frames are observed: an idle camera outside the
    // commit set costs (and records) nothing.
    assert_eq!(
        reg.histogram("node_frame_handle_us", &[]).count(),
        committed,
        "one frame-handling observation per committed camera-tick"
    );
    let stepped = reg
        .counter_value("core_cameras_stepped_total", &[])
        .unwrap_or(0);
    let skipped = reg
        .counter_value("core_cameras_skipped_total", &[])
        .unwrap_or(0);
    assert!(skipped > 0, "idle cameras must take the early-out");
    assert!(stepped > 0, "the vehicle's cameras must run the full path");
    assert!(
        skipped > stepped,
        "one vehicle on a 3-camera corridor: most camera-ticks idle \
         (stepped={stepped} skipped={skipped})"
    );
    assert!(
        (stepped..stepped + skipped).contains(&committed),
        "every stepped camera commits, most idle ones do not \
         (stepped={stepped} committed={committed})"
    );
    // Scratch arenas: after the first extraction per camera, every
    // histogram reuses the arena.
    let reuse = reg
        .counter_value("vision_scratch_reuse_total", &[])
        .unwrap_or(0);
    let alloc = reg
        .counter_value("vision_scratch_alloc_total", &[])
        .unwrap_or(0);
    assert!(reuse > 0, "histogram scratch must be reused across frames");
    assert!(
        alloc <= 3,
        "at most one arena allocation per camera (alloc={alloc})"
    );

    // Dense control run: every alive camera steps, none skip.
    let dense_cfg = SystemConfig {
        node: perfect_node(),
        seed: SEEDS[0],
        sparse_stepping: false,
        ..SystemConfig::default()
    };
    let mut dense = CoralPieSystem::new(net.clone(), &corridor_specs(3), dense_cfg);
    dense.run_until(SimTime::from_secs(10));
    dense.finish();
    let reg = dense.observability().registry();
    assert_eq!(
        reg.counter_value("core_cameras_skipped_total", &[])
            .unwrap_or(0),
        0,
        "dense stepping never skips"
    );
}
