//! The three workloads: what each deploys, how long it warms up, how much
//! simulated time one wall second of `--seconds` buys, and how its store
//! is read.

use coral_core::{CameraSpec, CoralPieSystem, Deployment, NodeConfig, SystemConfig};
use coral_geo::{generators, route, IntersectionId, RoadNetwork};
use coral_net::{FaultPlan, FaultPolicy, RetryPolicy};
use coral_sim::{PoissonArrivals, ScenarioSpec, SimDuration, SimTime, TrafficLight, TrafficModel};
use coral_storage::StorageConfig;
use coral_topology::CameraId;
use coral_vision::DetectorNoise;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// A named workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// `lookalike_10x10` with the hard-suite node config: the vision data
    /// plane and the re-id pools.
    CityLookalike,
    /// 1000 cameras under light traffic and steady kill/restore churn: the
    /// topology control plane and the per-tick floor.
    Grid1000Churn,
    /// 100 cameras, an 8-shard store, lossy links with retries, and one
    /// closed-loop reader on the live store.
    StoreChaos,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 3] = [
        Workload::CityLookalike,
        Workload::Grid1000Churn,
        Workload::StoreChaos,
    ];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::CityLookalike => "city_lookalike",
            Workload::Grid1000Churn => "grid1000_churn",
            Workload::StoreChaos => "store_chaos",
        }
    }

    /// Looks a workload up by its command-line name.
    pub fn from_name(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Full size (what the benchmark measures) or smoke size (a tiny
/// deployment for the benchmark's own tests).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The sizes the workload definitions name.
    Full,
    /// Small grids and short spans: every code path, in seconds.
    Smoke,
}

/// How a workload's store is read.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Reader {
    /// One closed-loop reader thread races the engine for the whole window.
    Concurrent,
    /// A closed-loop chunk of `chunk` queries on the paused store after
    /// every `every` frame periods, so the reads sample the whole window.
    Interleaved {
        /// Frame periods between chunks.
        every: u64,
        /// Queries per chunk.
        chunk: usize,
    },
}

/// Run-shape parameters of a workload at a scale.
#[derive(Debug, Clone, Copy)]
pub struct Params {
    /// Sim-seconds the traffic warms up before the window may open.
    pub warm_s: u64,
    /// Simulated seconds of window per second of `--seconds`.
    pub sim_per_wall: f64,
    /// How the store is read.
    pub reader: Reader,
    /// Kill/restore churn through the window.
    pub churn: bool,
}

/// A deployed system plus what a replay of its layers needs.
pub struct Deployed {
    /// The running system.
    pub sys: CoralPieSystem,
    /// The deployment it was built from (traffic, server and placements
    /// for the layer replays).
    pub deployment: Deployment,
    /// Traffic lights installed on the traffic model.
    pub lights: Vec<TrafficLight>,
    /// The scenario whose incidents were scheduled, if any.
    pub scenario: Option<ScenarioSpec>,
    /// The traffic workload, installable again on a replay.
    pub arrivals: Arrivals,
    /// Spawns are scheduled up to this time.
    pub horizon: SimTime,
}

/// How vehicles enter the road network.
pub enum Arrivals {
    /// A Poisson process (the hard-suite scenarios), rebuilt on demand.
    Poisson(Box<dyn Fn() -> PoissonArrivals>),
    /// Exactly one vehicle per `period`, entries taken round-robin, each on
    /// a seeded random walk of `lanes` lanes: a fixed load per seed.
    Periodic {
        /// Gap between spawns.
        period: SimDuration,
        /// Entry intersections, used in turn.
        entries: Vec<IntersectionId>,
        /// Route length in lanes.
        lanes: usize,
        /// Seed of the route draws.
        seed: u64,
    },
}

impl Arrivals {
    /// Installs the workload on `traffic`: periodic spawns are scheduled up
    /// to `horizon` now; a Poisson process is returned for the caller to
    /// drive.
    pub fn install(&self, traffic: &mut TrafficModel, horizon: SimTime) -> Option<PoissonArrivals> {
        match self {
            Arrivals::Poisson(make) => Some(make()),
            Arrivals::Periodic {
                period,
                entries,
                lanes,
                seed,
            } => {
                let mut rng = StdRng::seed_from_u64(*seed);
                let net = traffic.network().clone();
                let mut at = SimTime::ZERO + *period;
                for k in 0.. {
                    if at > horizon {
                        break;
                    }
                    let entry = entries[k % entries.len()];
                    let r = route::random_route(&mut rng, &net, entry, *lanes)
                        .expect("grid entries have routes of every length");
                    traffic.spawn(at, r, None);
                    at += *period;
                }
                None
            }
        }
    }
}

/// Seed-mixing constants: one per input stream derived from `--seed`.
const ARRIVALS_MIX: u64 = 0xA881_0A15;
const FAULTS_MIX: u64 = 0x5eed_fa17;
/// Salt of the kill/restore schedule.
pub const CHURN_MIX: u64 = 0xC4_0213;

impl Workload {
    /// Run-shape parameters at `scale`.
    pub fn params(self, scale: Scale) -> Params {
        let smoke = scale == Scale::Smoke;
        match self {
            Workload::CityLookalike => Params {
                warm_s: if smoke { 20 } else { 80 },
                sim_per_wall: if smoke { 2.0 } else { 10.0 },
                reader: Reader::Interleaved {
                    every: 10,
                    chunk: if smoke { 20 } else { 100 },
                },
                churn: false,
            },
            Workload::Grid1000Churn => Params {
                warm_s: 5,
                sim_per_wall: if smoke { 20.0 } else { 30.0 },
                reader: Reader::Interleaved {
                    every: 40,
                    chunk: if smoke { 20 } else { 100 },
                },
                churn: true,
            },
            Workload::StoreChaos => Params {
                warm_s: if smoke { 20 } else { 60 },
                sim_per_wall: if smoke { 5.0 } else { 10.0 },
                reader: Reader::Concurrent,
                churn: false,
            },
        }
    }

    /// Deploys the workload's system for `seed`, scheduling traffic up
    /// to `horizon`.
    pub fn deploy(self, seed: u64, scale: Scale, horizon: SimTime) -> Deployed {
        let smoke = scale == Scale::Smoke;
        match self {
            Workload::CityLookalike => {
                let mut spec = ScenarioSpec::lookalike_city();
                if smoke {
                    spec.rows = 4;
                    spec.cols = 4;
                    spec.rate_per_s = 0.5;
                }
                // One worker: on a two-vCPU host a second stepper thread
                // reads the neighbour's load and triples the run-to-run
                // spread; `core.schedule_speedup` still reports what a
                // parallel schedule would expose.
                let mut config = coral_eval::Scenario::hard(spec.clone(), seed).config;
                config.parallelism = 1;
                let specs = camera_specs(spec.cameras(), |_| 0.0);
                let lights = spec.lights();
                let arrivals_spec = spec.clone();
                let arrivals = Arrivals::Poisson(Box::new(move || {
                    arrivals_spec.arrivals(seed ^ ARRIVALS_MIX)
                }));
                deploy(
                    spec.network(),
                    &specs,
                    config,
                    lights,
                    Some(spec),
                    arrivals,
                    horizon,
                )
            }
            Workload::Grid1000Churn => {
                let (rows, cols) = if smoke { (5, 8) } else { (25, 40) };
                let (net, specs) = grid(rows, cols);
                let config = SystemConfig {
                    node: perfect_node(),
                    seed,
                    ..SystemConfig::default()
                };
                let arrivals = corner_arrivals(rows, cols, SimDuration::from_secs(10), seed);
                deploy(net, &specs, config, Vec::new(), None, arrivals, horizon)
            }
            Workload::StoreChaos => {
                let (rows, cols) = if smoke { (4, 4) } else { (10, 10) };
                let (net, specs) = grid(rows, cols);
                let config = SystemConfig {
                    node: perfect_node(),
                    storage: StorageConfig {
                        shard_count: 8,
                        ..StorageConfig::default()
                    },
                    // As in exp_storage: quiet control loops, so the window
                    // prices ingest, transport retries and the reader.
                    heartbeat_interval: SimDuration::from_secs(600),
                    liveness_check_period: SimDuration::from_secs(600),
                    faults: Some(FaultPlan::uniform(
                        FaultPolicy {
                            drop: 0.05,
                            duplicate: 0.01,
                            ..FaultPolicy::default()
                        },
                        seed ^ FAULTS_MIX,
                    )),
                    reliability: Some(RetryPolicy::default()),
                    seed,
                    ..SystemConfig::default()
                };
                let period = SimDuration::from_millis(if smoke { 1_000 } else { 333 });
                let arrivals = corner_arrivals(rows, cols, period, seed);
                deploy(net, &specs, config, Vec::new(), None, arrivals, horizon)
            }
        }
    }
}

/// One vehicle per `period` from the grid's four corners in turn, each on
/// a seeded 10-lane random walk.
fn corner_arrivals(rows: usize, cols: usize, period: SimDuration, seed: u64) -> Arrivals {
    let n = (rows * cols) as u32;
    let c = cols as u32;
    Arrivals::Periodic {
        period,
        entries: [0, c - 1, n - c, n - 1].map(IntersectionId).to_vec(),
        lanes: 10,
        seed: seed ^ ARRIVALS_MIX,
    }
}

fn perfect_node() -> NodeConfig {
    NodeConfig {
        detector_noise: DetectorNoise::perfect(),
        ..NodeConfig::default()
    }
}

fn camera_specs(n: usize, angle: impl Fn(usize) -> f64) -> Vec<CameraSpec> {
    (0..n)
        .map(|i| CameraSpec {
            id: CameraId(i as u32),
            site: IntersectionId(i as u32),
            videoing_angle_deg: angle(i),
        })
        .collect()
}

/// A `rows × cols` street grid, 120 m blocks, a camera on every
/// intersection facing alternating directions (the experiments' grid).
fn grid(rows: usize, cols: usize) -> (RoadNetwork, Vec<CameraSpec>) {
    let net = generators::grid(rows, cols, 120.0, 12.0);
    (net, camera_specs(rows * cols, |i| (i % 4) as f64 * 90.0))
}

fn deploy(
    net: RoadNetwork,
    specs: &[CameraSpec],
    config: SystemConfig,
    lights: Vec<TrafficLight>,
    scenario: Option<ScenarioSpec>,
    arrivals: Arrivals,
    horizon: SimTime,
) -> Deployed {
    let deployment = Deployment::from_specs(net.clone(), specs, config.clone());
    let mut sys = CoralPieSystem::new(net, specs, config);
    for light in &lights {
        sys.traffic_mut().add_light(*light);
    }
    if let Some(spec) = &scenario {
        spec.apply_incidents(sys.traffic_mut());
    }
    if let Some(process) = arrivals.install(sys.traffic_mut(), horizon) {
        sys.set_arrivals(process);
    }
    Deployed {
        sys,
        deployment,
        lights,
        scenario,
        arrivals,
        horizon,
    }
}
