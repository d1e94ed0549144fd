//! Named adversarial scenario regimes — the "hard suite".
//!
//! The corridor workloads used by the early evaluation saturate the
//! tracker: every pipeline variant scores ≈1.0, so regressions hide.
//! This module packages city-scale, deliberately adversarial workloads
//! as self-contained [`ScenarioSpec`]s that the evaluation layer can
//! instantiate deterministically:
//!
//! - [`Regime::PlatoonSurge`] — rush-hour arrival surges (time-varying
//!   Poisson rates) produce dense multi-lane platoons.
//! - [`Regime::Lookalike`] — vehicles share a handful of appearance
//!   classes, stressing re-identification.
//! - [`Regime::IncidentReroute`] — mid-run lane closures force
//!   re-routing, breaking learned transition priors.
//! - [`Regime::ClutterStorm`] — periodic phantom-detection bursts
//!   stress track management and signature accumulation.
//!
//! Every spec is pure data: the same spec and seed always produce a
//! byte-identical simulation (the determinism contract is pinned by the
//! regime entries of the `stepping_equivalence` fingerprint tests at the
//! workspace root).

use crate::lights::TrafficLight;
use crate::observe::{ClutterBurst, SceneEffects};
use crate::time::{SimDuration, SimTime};
use crate::traffic::{
    CarFollowModel, MobilParams, PoissonArrivals, SurgeProfile, TrafficConfig, TrafficModel,
};
use coral_geo::{generators, IntersectionId, LaneId, RoadNetwork};
use serde::{Deserialize, Serialize};

/// Which adversarial axis a scenario exercises.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Regime {
    /// Rush-hour platoon surges via a time-varying Poisson arrival rate.
    PlatoonSurge,
    /// Shared appearance classes that defeat naive re-identification.
    Lookalike,
    /// Mid-run lane closures that force re-routing.
    IncidentReroute,
    /// Phantom-detection bursts on every camera.
    ClutterStorm,
    /// Miniature mixed regime for tier-1 smoke tests.
    Smoke,
}

impl Regime {
    /// Stable lowercase label used in golden files and bench provenance.
    pub fn label(self) -> &'static str {
        match self {
            Regime::PlatoonSurge => "platoon_surge",
            Regime::Lookalike => "lookalike",
            Regime::IncidentReroute => "incident_reroute",
            Regime::ClutterStorm => "clutter_storm",
            Regime::Smoke => "smoke",
        }
    }
}

/// A scheduled lane closure between two grid intersections.
///
/// `from`/`to` are intersection indices in the scenario's grid network
/// (`r * cols + c`); the directed lane between them is closed at
/// [`IncidentSpec::at_s`] and reopened after
/// [`IncidentSpec::duration_s`] when set.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct IncidentSpec {
    /// Closure time, seconds from simulation start.
    pub at_s: f64,
    /// Time until reopening (`None` = closed for the rest of the run).
    pub duration_s: Option<f64>,
    /// Grid index of the lane's source intersection.
    pub from: u32,
    /// Grid index of the lane's destination intersection.
    pub to: u32,
}

/// A self-contained city-scale scenario: grid geometry, traffic model,
/// arrival process, lights, incidents, and per-camera scene effects.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScenarioSpec {
    /// Stable scenario name (keys golden files).
    pub name: String,
    /// The adversarial axis this spec exercises.
    pub regime: Regime,
    /// Grid rows.
    pub rows: usize,
    /// Grid columns.
    pub cols: usize,
    /// Spacing between neighbouring intersections, meters.
    pub spacing_m: f64,
    /// Per-lane speed limit, m/s.
    pub speed_limit_mps: f64,
    /// Traffic model configuration (car-following, lanes, lookalikes).
    pub traffic: TrafficConfig,
    /// Baseline Poisson arrival rate, vehicles per second.
    pub rate_per_s: f64,
    /// Optional rush-hour surge profile layered on the baseline rate.
    pub surge: Option<SurgeProfile>,
    /// Minimum route length (lanes) for spawned vehicles.
    pub min_route_lanes: usize,
    /// Simulated run length, seconds.
    pub run_secs: u64,
    /// Traffic-light cycle period, seconds (0 disables lights).
    pub light_period_s: u64,
    /// Scene effects applied per camera (`None` = clean rendering).
    pub effects: Option<SceneEffects>,
    /// Scheduled lane closures.
    pub incidents: Vec<IncidentSpec>,
}

impl ScenarioSpec {
    /// An IDM city config: microscopic car-following on `lanes` sub-lanes
    /// with MOBIL lane changing when more than one sub-lane exists.
    fn idm_city(lanes: u32, appearance_classes: u32) -> TrafficConfig {
        TrafficConfig {
            mean_speed_mps: 12.0,
            speed_jitter_mps: 3.0,
            model: CarFollowModel::Idm(Default::default()),
            lanes_per_edge: lanes,
            mobil: (lanes > 1).then(MobilParams::default),
            appearance_classes,
            ..TrafficConfig::default()
        }
    }

    /// Rush-hour platoon surges on a 10×10 grid: a quarter of each
    /// two-minute cycle runs at more than 4× the baseline arrival rate.
    pub fn platoon_surge() -> Self {
        Self {
            name: "platoon_surge_10x10".into(),
            regime: Regime::PlatoonSurge,
            rows: 10,
            cols: 10,
            spacing_m: 150.0,
            speed_limit_mps: 14.0,
            traffic: Self::idm_city(2, 0),
            rate_per_s: 1.15,
            surge: Some(SurgeProfile {
                period_s: 120.0,
                surge_fraction: 0.25,
                peak_rate_per_s: 5.0,
            }),
            min_route_lanes: 4,
            run_secs: 480,
            light_period_s: 20,
            effects: None,
            incidents: Vec::new(),
        }
    }

    /// Lookalike city: every vehicle draws one of forty shared appearance
    /// classes, so with ~1k concurrent-era vehicles each class recurs
    /// dozens of times and colour-histogram re-identification is
    /// ambiguous between same-class candidates.
    pub fn lookalike_city() -> Self {
        Self {
            name: "lookalike_10x10".into(),
            regime: Regime::Lookalike,
            rows: 10,
            cols: 10,
            spacing_m: 150.0,
            speed_limit_mps: 14.0,
            traffic: Self::idm_city(2, 40),
            rate_per_s: 2.2,
            surge: None,
            min_route_lanes: 4,
            run_secs: 480,
            light_period_s: 20,
            effects: None,
            incidents: Vec::new(),
        }
    }

    /// Incident re-routing: busy lanes close mid-run (one reopens),
    /// forcing vehicles onto detours the transition priors never saw.
    /// Arrival routes are short random walks from the perimeter
    /// ([`ScenarioSpec::min_route_lanes`] = 4 lanes), so the closures sit
    /// on first-ring lanes those walks actually traverse — a closure at
    /// the grid centre would be unreachable and re-route nothing.
    pub fn incident_reroute() -> Self {
        let idx = |r: u32, c: u32| r * 10 + c;
        Self {
            name: "incident_reroute_10x10".into(),
            regime: Regime::IncidentReroute,
            rows: 10,
            cols: 10,
            spacing_m: 150.0,
            speed_limit_mps: 14.0,
            traffic: Self::idm_city(2, 0),
            rate_per_s: 2.2,
            surge: None,
            min_route_lanes: 4,
            run_secs: 480,
            light_period_s: 20,
            effects: None,
            incidents: vec![
                IncidentSpec {
                    at_s: 120.0,
                    duration_s: None,
                    from: idx(1, 4),
                    to: idx(1, 5),
                },
                IncidentSpec {
                    at_s: 120.0,
                    duration_s: None,
                    from: idx(1, 5),
                    to: idx(1, 4),
                },
                IncidentSpec {
                    at_s: 180.0,
                    duration_s: Some(150.0),
                    from: idx(4, 1),
                    to: idx(5, 1),
                },
            ],
        }
    }

    /// Clutter storm: periodic phantom-detection bursts on every camera.
    /// Occlusion culling stays off here — at city density, red-light
    /// queues hold followers on top of leaders for whole light phases,
    /// and the resulting track splits drag MOTA below the hard-suite
    /// band no matter how the visibility threshold is tuned. The smoke
    /// scenario keeps a mild occlusion setting for code coverage.
    pub fn clutter_storm() -> Self {
        Self {
            name: "clutter_storm_10x10".into(),
            regime: Regime::ClutterStorm,
            rows: 10,
            cols: 10,
            spacing_m: 150.0,
            speed_limit_mps: 14.0,
            traffic: Self::idm_city(2, 0),
            rate_per_s: 2.2,
            surge: None,
            min_route_lanes: 4,
            run_secs: 480,
            light_period_s: 20,
            effects: Some(SceneEffects {
                min_visible_frac: 0.0,
                clutter: Some(ClutterBurst {
                    period_s: 45.0,
                    burst_fraction: 0.4,
                    boxes: 4,
                }),
                seed: 0xC1_07_7E,
            }),
            incidents: Vec::new(),
        }
    }

    /// Miniature mixed regime: a 3×3 grid exercising surge, an incident,
    /// and clutter in a tier-1-sized run. (No lookalike classes: on a
    /// grid this small shared appearances collapse re-id to chance, which
    /// tests nothing — the full lookalike scenario covers that axis.)
    pub fn smoke() -> Self {
        Self {
            name: "hard_smoke_3x3".into(),
            regime: Regime::Smoke,
            rows: 3,
            cols: 3,
            spacing_m: 120.0,
            speed_limit_mps: 12.0,
            traffic: Self::idm_city(2, 0),
            rate_per_s: 0.16,
            surge: Some(SurgeProfile {
                period_s: 40.0,
                surge_fraction: 0.25,
                peak_rate_per_s: 0.45,
            }),
            min_route_lanes: 2,
            run_secs: 90,
            light_period_s: 20,
            effects: Some(SceneEffects {
                min_visible_frac: 0.25,
                clutter: Some(ClutterBurst {
                    period_s: 90.0,
                    burst_fraction: 0.2,
                    boxes: 1,
                }),
                seed: 0xC1_07_7E,
            }),
            incidents: vec![IncidentSpec {
                at_s: 20.0,
                duration_s: Some(60.0),
                from: 4,
                to: 5,
            }],
        }
    }

    /// The four full-size hard-suite scenarios, in canonical order.
    pub fn hard_suite() -> Vec<Self> {
        vec![
            Self::platoon_surge(),
            Self::lookalike_city(),
            Self::incident_reroute(),
            Self::clutter_storm(),
        ]
    }

    /// Looks up a hard-suite (or smoke) spec by its [`ScenarioSpec::name`].
    pub fn by_name(name: &str) -> Option<Self> {
        Self::hard_suite()
            .into_iter()
            .chain(std::iter::once(Self::smoke()))
            .find(|s| s.name == name)
    }

    /// The scenario's road network: a `rows × cols` two-way grid.
    pub fn network(&self) -> RoadNetwork {
        generators::grid(self.rows, self.cols, self.spacing_m, self.speed_limit_mps)
    }

    /// Number of camera sites (one per intersection).
    pub fn cameras(&self) -> usize {
        self.rows * self.cols
    }

    /// Perimeter intersections — the arrival entry points.
    pub fn entries(&self) -> Vec<IntersectionId> {
        let mut out = Vec::new();
        for r in 0..self.rows {
            for c in 0..self.cols {
                if r == 0 || c == 0 || r == self.rows - 1 || c == self.cols - 1 {
                    out.push(IntersectionId((r * self.cols + c) as u32));
                }
            }
        }
        out
    }

    /// The arrival process for this scenario, seeded with `seed`.
    pub fn arrivals(&self, seed: u64) -> PoissonArrivals {
        let gen = PoissonArrivals::new(self.rate_per_s, self.entries(), self.min_route_lanes, seed);
        match self.surge {
            Some(s) => gen.with_surge(s),
            None => gen,
        }
    }

    /// Two-phase lights at every intersection, offset in a checkerboard
    /// pattern so adjacent intersections alternate green axes.
    pub fn lights(&self) -> Vec<TrafficLight> {
        if self.light_period_s == 0 {
            return Vec::new();
        }
        let period = SimDuration::from_secs(self.light_period_s);
        let half = SimDuration::from_secs(self.light_period_s / 2);
        let mut out = Vec::new();
        for r in 0..self.rows {
            for c in 0..self.cols {
                let offset = if (r + c) % 2 == 0 {
                    SimDuration::ZERO
                } else {
                    half
                };
                out.push(TrafficLight::new(
                    IntersectionId((r * self.cols + c) as u32),
                    period,
                    offset,
                ));
            }
        }
        out
    }

    /// Resolves [`IncidentSpec`]s against `net` to concrete lane ids.
    ///
    /// # Panics
    ///
    /// Panics if an incident references a lane that does not exist in the
    /// scenario's grid — specs are static data, so that is a bug.
    pub fn resolved_incidents(
        &self,
        net: &RoadNetwork,
    ) -> Vec<(SimTime, LaneId, Option<SimDuration>)> {
        self.incidents
            .iter()
            .map(|i| {
                let from = IntersectionId(i.from);
                let to = IntersectionId(i.to);
                let lane = net
                    .out_lanes(from)
                    .iter()
                    .copied()
                    .find(|&lid| net.lane(lid).map(|l| l.to) == Ok(to))
                    .unwrap_or_else(|| panic!("no lane {from} -> {to} in scenario grid"));
                (
                    SimTime::ZERO + SimDuration::from_secs_f64(i.at_s),
                    lane,
                    i.duration_s.map(SimDuration::from_secs_f64),
                )
            })
            .collect()
    }

    /// Schedules this spec's incidents on a traffic model built from the
    /// same grid.
    pub fn apply_incidents(&self, traffic: &mut TrafficModel) {
        for (at, lane, duration) in self.resolved_incidents(traffic.network()) {
            traffic.schedule_closure(at, lane, duration);
        }
    }

    /// Per-camera scene effects: the spec's base effects re-seeded so
    /// every camera draws distinct (but deterministic) phantoms.
    pub fn effects_for(&self, camera: u32) -> Option<SceneEffects> {
        self.effects
            .map(|e| e.seeded(e.seed ^ u64::from(camera).wrapping_mul(0x9e37_79b9_7f4a_7c15)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hard_suite_has_four_city_scale_scenarios() {
        let suite = ScenarioSpec::hard_suite();
        assert_eq!(suite.len(), 4);
        for spec in &suite {
            assert!(spec.cameras() >= 100, "{} too small", spec.name);
            // Expected spawn volume over the run must land in the
            // 1k–10k vehicle band the issue requires.
            let mean_rate = match spec.surge {
                Some(s) => {
                    s.peak_rate_per_s * s.surge_fraction
                        + spec.rate_per_s * (1.0 - s.surge_fraction)
                }
                None => spec.rate_per_s,
            };
            let expected = mean_rate * spec.run_secs as f64;
            assert!(
                (1000.0..10_000.0).contains(&expected),
                "{}: expected ~{expected:.0} vehicles",
                spec.name
            );
        }
        let names: Vec<_> = suite.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(
            names,
            [
                "platoon_surge_10x10",
                "lookalike_10x10",
                "incident_reroute_10x10",
                "clutter_storm_10x10"
            ]
        );
    }

    #[test]
    fn by_name_round_trips() {
        for spec in ScenarioSpec::hard_suite() {
            let found = ScenarioSpec::by_name(&spec.name).expect("known name");
            assert_eq!(found, spec);
        }
        assert_eq!(
            ScenarioSpec::by_name("hard_smoke_3x3"),
            Some(ScenarioSpec::smoke())
        );
        assert_eq!(ScenarioSpec::by_name("nope"), None);
    }

    #[test]
    fn entries_are_the_grid_perimeter() {
        let spec = ScenarioSpec::smoke();
        let entries = spec.entries();
        // 3×3 grid: everything except the centre (index 4).
        assert_eq!(entries.len(), 8);
        assert!(!entries.contains(&IntersectionId(4)));
    }

    #[test]
    fn lights_checkerboard_offsets() {
        let spec = ScenarioSpec::smoke();
        let lights = spec.lights();
        assert_eq!(lights.len(), 9);
        assert_eq!(lights[0].offset, SimDuration::ZERO);
        assert_eq!(lights[1].offset, SimDuration::from_secs(10));
        assert_eq!(lights[4].offset, SimDuration::ZERO);
    }

    #[test]
    fn incidents_resolve_to_real_lanes() {
        let spec = ScenarioSpec::incident_reroute();
        let net = spec.network();
        let resolved = spec.resolved_incidents(&net);
        assert_eq!(resolved.len(), 3);
        for (at, lane, _) in &resolved {
            assert!(*at > SimTime::ZERO);
            assert!(net.lane(*lane).is_ok());
        }
        // The paired closures are reverse lanes of each other.
        assert_eq!(net.reverse_lane(resolved[0].1), Some(resolved[1].1));
    }

    #[test]
    fn effects_reseed_per_camera() {
        let spec = ScenarioSpec::clutter_storm();
        let a = spec.effects_for(0).expect("has effects");
        let b = spec.effects_for(1).expect("has effects");
        assert_ne!(a.seed, b.seed);
        assert_eq!(a.min_visible_frac, b.min_visible_frac);
        assert_eq!(spec.effects_for(1), spec.effects_for(1));
        assert_eq!(ScenarioSpec::platoon_surge().effects_for(0), None);
    }
}
