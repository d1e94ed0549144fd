//! Scenario replay: build a deployment, drive traffic through it, and
//! evaluate the resulting trajectory graph against ground truth.
//!
//! A [`Scenario`] describes a reproducible experiment — a corridor
//! deployment, a staggered vehicle schedule, a seed and an optional fault
//! policy. [`Scenario::run`] replays it on the deterministic simulator;
//! [`evaluate`] scores the finished system into an [`EvalReport`]: MOT
//! metrics, per-camera event F2, and per-stage miss attribution.

use crate::attribution::{attribute, AttributedMiss, AttributionSummary};
use crate::score::{score_tracks, IntervalMatch, TrackScore};
use crate::tracks::extract_tracks;
use coral_core::{CameraSpec, CoralPieSystem, NodeConfig, SystemConfig};
use coral_geo::{generators, route, IntersectionId};
use coral_net::{FaultPlan, FaultPolicy, RetryPolicy};
use coral_sim::{FailureEvent, FailureKind, FailureSchedule, ScenarioSpec, SimDuration, SimTime};
use coral_topology::CameraId;
use coral_vision::{DetectorNoise, IdentConfig, ObjectClass};

/// A reproducible evaluation scenario.
#[derive(Debug, Clone)]
pub struct Scenario {
    /// Scenario name (keys golden files; keep it filename-safe).
    pub name: String,
    /// Number of corridor cameras (one per intersection).
    pub cameras: usize,
    /// Number of vehicles driven end to end.
    pub vehicles: usize,
    /// First spawn time, seconds.
    pub spawn_start_s: u64,
    /// Gap between consecutive spawns, seconds.
    pub spawn_gap_s: u64,
    /// Total run length, seconds.
    pub run_secs: u64,
    /// Full system configuration (seed, noise, faults, …).
    pub config: SystemConfig,
    /// Scheduled camera kills/restores applied before the run (empty by
    /// default).
    pub failures: FailureSchedule,
    /// City-scale hard-suite spec driving this scenario (`None` = legacy
    /// corridor replay). When set, `run` deploys the spec's grid with
    /// lights, open arrivals, incidents and scene effects instead of the
    /// corridor schedule.
    pub hard: Option<ScenarioSpec>,
    /// Scheduled whole-region partitions, `(region, down_s, up_s)`, over
    /// the regions set by `with_regions`.
    pub region_outages: Vec<(u16, u64, u64)>,
}

impl Scenario {
    /// The standard evaluation scenario: an n-camera corridor (120 m
    /// blocks), `vehicles` cars driven end to end at 9 s spacing, perfect
    /// detector, no faults.
    pub fn corridor(cameras: usize, vehicles: usize, seed: u64) -> Self {
        let spawn_start_s = 2;
        let spawn_gap_s = 9;
        // Last spawn + one corridor traversal (≈15 s per 120 m block at
        // the default cruise speed, doubled for lights/margin) + flush.
        let run_secs = spawn_start_s + spawn_gap_s * vehicles as u64 + 30 * cameras as u64 + 20;
        Self {
            name: format!("corridor{cameras}"),
            cameras,
            vehicles,
            spawn_start_s,
            spawn_gap_s,
            run_secs,
            config: SystemConfig {
                node: NodeConfig {
                    detector_noise: DetectorNoise::perfect(),
                    ..NodeConfig::default()
                },
                seed,
                ..SystemConfig::default()
            },
            failures: FailureSchedule::default(),
            hard: None,
            region_outages: Vec::new(),
        }
    }

    /// A hard-suite scenario: deploys `spec`'s city grid (a camera per
    /// intersection), drives its surge/lookalike/incident/clutter regime
    /// with open Poisson arrivals, and keeps the default (imperfect)
    /// detector. These are the workloads that pull scores off the
    /// saturated ≈1.0 ceiling the corridor suite sits at.
    pub fn hard(spec: ScenarioSpec, seed: u64) -> Self {
        Self {
            name: spec.name.clone(),
            cameras: spec.cameras(),
            vehicles: 0,
            spawn_start_s: 0,
            spawn_gap_s: 0,
            run_secs: spec.run_secs,
            config: SystemConfig {
                node: NodeConfig {
                    // Like the corridor suite: a perfect detector, so the
                    // difficulty measured is the regime's (density, surge,
                    // lookalikes, incidents, clutter) — not detector noise,
                    // whose false positives swamp every other error term at
                    // city scale.
                    detector_noise: DetectorNoise::perfect(),
                    // Clutter phantoms latch the tracker at a fixed image
                    // position for a whole burst window; the stationary-
                    // track filter rejects them at finalisation so clutter
                    // stresses detection/association instead of charging
                    // one guaranteed false passage per phantom. Vehicles
                    // cross the FOV (dozens of pixels of net motion), so
                    // 12 px is far below any real passage's displacement.
                    // City grids add the turning-vehicle problem the
                    // corridor never has: route the inform by the exit
                    // bearing (trailing-window estimate), not the whole
                    // track's diagonal average.
                    ident: IdentConfig {
                        min_net_displacement_px: 12.0,
                        exit_bearing_window: 12,
                        signature_max_overlap: 0.25,
                        ..IdentConfig::default()
                    },
                    ..NodeConfig::default()
                },
                traffic: spec.traffic,
                scene_effects: spec.effects,
                seed,
                ..SystemConfig::default()
            },
            failures: FailureSchedule::default(),
            hard: Some(spec),
            region_outages: Vec::new(),
        }
    }

    /// Deploys the scenario across `regions` regions (contiguous camera
    /// stripes, one topology server and trajectory store each), renaming
    /// the scenario to match. `1` is the plain deployment.
    pub fn with_regions(mut self, regions: u16) -> Self {
        if regions > 1 {
            self.name = format!("{}-fed{}", self.name, regions);
        }
        self.config.regions = regions;
        self
    }

    /// Schedules a whole-region partition: `region`'s topology server and
    /// edge store go unreachable at `down_s` and heal at `up_s`.
    pub fn with_region_outage(mut self, region: u16, down_s: u64, up_s: u64) -> Self {
        self.name = format!("{}-regionkill{}", self.name, region);
        self.region_outages.push((region, down_s, up_s));
        self
    }

    /// Schedules an outage: `camera` is killed at `down_s` and restored at
    /// `up_s`, renaming the scenario to match.
    pub fn with_outage(mut self, camera: CameraId, down_s: u64, up_s: u64) -> Self {
        self.name = format!("{}-kill{}", self.name, camera.0);
        self.failures.push(FailureEvent {
            at: SimTime::from_secs(down_s),
            camera,
            kind: FailureKind::Kill,
        });
        self.failures.push(FailureEvent {
            at: SimTime::from_secs(up_s),
            camera,
            kind: FailureKind::Restore,
        });
        self
    }

    /// Adds seeded link faults (drop/duplicate probabilities) with the
    /// PR-3 reliability layer turned on, renaming the scenario to match.
    pub fn with_faults(mut self, drop: f64, duplicate: f64) -> Self {
        self.name = format!("{}-drop{}", self.name, (drop * 100.0).round() as u64);
        self.config.faults = Some(FaultPlan::uniform(
            FaultPolicy {
                drop,
                duplicate,
                ..FaultPolicy::default()
            },
            self.config.seed ^ 0x5eed_fa17,
        ));
        self.config.reliability = Some(RetryPolicy::default());
        self
    }

    /// Replays the scenario: deploys the corridor, spawns the vehicle
    /// schedule, runs to completion and flushes in-flight tracks. Tracing
    /// is enabled so causal traces are available alongside telemetry.
    pub fn run(&self) -> CoralPieSystem {
        if let Some(spec) = &self.hard {
            return self.run_hard(spec);
        }
        let net = generators::corridor(self.cameras, 120.0, 12.0);
        let specs: Vec<CameraSpec> = (0..self.cameras)
            .map(|i| CameraSpec {
                id: CameraId(i as u32),
                site: IntersectionId(i as u32),
                videoing_angle_deg: 0.0,
            })
            .collect();
        let mut sys = CoralPieSystem::new(net.clone(), &specs, self.config.clone());
        sys.enable_tracing();
        if !self.failures.is_empty() {
            sys.set_failures(&self.failures);
        }
        for &(region, down_s, up_s) in &self.region_outages {
            sys.schedule_region_kill(SimTime::from_secs(down_s), region);
            sys.schedule_region_restore(SimTime::from_secs(up_s), region);
        }
        sys.run_until(SimTime::from_secs(self.spawn_start_s));
        let first = IntersectionId(0);
        let last = IntersectionId(self.cameras as u32 - 1);
        for k in 0..self.vehicles as u64 {
            let r = route::shortest_path(&net, first, last).expect("corridor is connected");
            sys.traffic_mut().spawn(
                SimTime::from_secs(self.spawn_start_s)
                    + SimDuration::from_secs(self.spawn_gap_s * k),
                r,
                Some(ObjectClass::Car),
            );
        }
        sys.run_until(SimTime::from_secs(self.run_secs));
        sys.finish();
        sys
    }

    /// Replays a hard-suite spec: grid deployment, checkerboard lights,
    /// open arrivals (surged when the spec says so), scheduled incidents.
    /// Tracing stays off — at city scale the flight recorder would
    /// dominate memory without changing any outcome.
    fn run_hard(&self, spec: &ScenarioSpec) -> CoralPieSystem {
        let net = spec.network();
        let specs: Vec<CameraSpec> = (0..spec.cameras())
            .map(|i| CameraSpec {
                id: CameraId(i as u32),
                site: IntersectionId(i as u32),
                videoing_angle_deg: 0.0,
            })
            .collect();
        let mut sys = CoralPieSystem::new(net, &specs, self.config.clone());
        for light in spec.lights() {
            sys.traffic_mut().add_light(light);
        }
        spec.apply_incidents(sys.traffic_mut());
        sys.set_arrivals(spec.arrivals(self.config.seed ^ ARRIVALS_SEED_MIX));
        if !self.failures.is_empty() {
            sys.set_failures(&self.failures);
        }
        for &(region, down_s, up_s) in &self.region_outages {
            sys.schedule_region_kill(SimTime::from_secs(down_s), region);
            sys.schedule_region_restore(SimTime::from_secs(up_s), region);
        }
        sys.run_until(SimTime::from_secs(self.run_secs));
        sys.finish();
        sys
    }
}

/// Seed-mixing constant decorrelating the arrival process from the other
/// per-seed RNG streams.
const ARRIVALS_SEED_MIX: u64 = 0xA881_0A15;

/// The complete evaluation of one run.
#[derive(Debug, Clone)]
pub struct EvalReport {
    /// Scenario name.
    pub scenario: String,
    /// Master seed of the run.
    pub seed: u64,
    /// Aggregate MOT counts.
    pub score: TrackScore,
    /// Per-camera event-detection F2 (camera id, score), ascending id.
    pub per_camera_f2: Vec<(u32, f64)>,
    /// Per-visit match table (evidence for the attribution below).
    pub matches: Vec<IntervalMatch>,
    /// Every miss with its stage attribution.
    pub misses: Vec<AttributedMiss>,
    /// Per-stage miss totals.
    pub attribution: AttributionSummary,
}

impl EvalReport {
    /// Multi-object tracking accuracy.
    pub fn mota(&self) -> f64 {
        self.score.mota()
    }

    /// Identity F1.
    pub fn idf1(&self) -> f64 {
        self.score.idf1()
    }
}

/// Scores a finished system run: extracts hypothesis tracks from the
/// trajectory graph, matches them to the ground-truth FOV log, and
/// attributes every miss to a pipeline stage.
pub fn evaluate(scenario: &str, seed: u64, sys: &CoralPieSystem) -> EvalReport {
    let gt = sys.ground_truth();
    // The deployment-wide trajectory view: the flat store single-region,
    // the owner-preferring union of every region store when federated.
    let (score, matches) = sys.with_trajectory_graph(|g| {
        let tracks = extract_tracks(g);
        score_tracks(gt, g, &tracks)
    });
    let misses = sys.with_trajectory_graph(|g| attribute(sys.telemetry(), g, &matches));
    let attribution = AttributionSummary::from_misses(&misses);
    let per_camera_f2 = sys
        .report()
        .detection
        .iter()
        .map(|(cam, acc)| (cam.0, acc.f2()))
        .collect();
    EvalReport {
        scenario: scenario.to_string(),
        seed,
        score,
        per_camera_f2,
        matches,
        misses,
        attribution,
    }
}

/// Convenience: replay `scenario` and evaluate the result.
pub fn replay_and_evaluate(scenario: &Scenario) -> EvalReport {
    let sys = scenario.run();
    evaluate(&scenario.name, scenario.config.seed, &sys)
}
