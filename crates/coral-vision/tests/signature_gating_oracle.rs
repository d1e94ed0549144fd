//! Oracle test for overlap-gated signatures: a track's signature must be,
//! bit for bit, the clean-frames mean when the track has a clean frame and
//! the all-frames mean when it has none, and a histogram must be extracted
//! only for a frame whose histogram can reach that signature. The
//! two-accumulator definition lives only here, as the reference: every
//! frame of a track is summed into one accumulator, its clean frames
//! (when gating is on) into a second, and the emitted signature reads the
//! second unless it is empty.
//!
//! The reference is rebuilt from the public API only: each frame's active
//! track boxes, the same [`SceneView`](coral_vision::SceneView) the
//! element reads and [`ColorHistogram::extract_into`]. Scenes are random
//! streams of crossing, queued and overlapping vehicles under a random
//! detector, run at `signature_max_overlap` 0.0, 0.25 and 1.0.
//! `PROPTEST_CASES` raises the case count (read by this file; the
//! proptest stub ignores it).

use coral_geo::Polygon;
use coral_vision::{
    BoundingBox, ColorHistogram, DetectorNoise, FrameId, GroundTruthId, HistogramScratch,
    IdentConfig, ObjectClass, PostProcessor, Scene, SceneActor, SignatureAccumulator,
    SyntheticSsdDetector, TrackId, TrackState, VehicleAppearance, VehicleIdentification,
    VehicleObservation,
};
use proptest::prelude::*;
use std::collections::HashMap;

fn cases() -> u32 {
    std::env::var("PROPTEST_CASES")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(64)
}

const W: u32 = 200;
const H: u32 = 150;
/// Frames with traffic, then empty frames so every track expires.
const FRAMES: u64 = 48;
const TAIL: u64 = 6;
const RENDER_SEED: u64 = 0x5167;

/// One vehicle of a stream: it enters at `start`, moves `(vx, vy)` pixels
/// a frame from `(x, y)`, and leaves the stream after `life` frames.
#[derive(Debug, Clone)]
struct Vehicle {
    start: u64,
    life: u64,
    x: f64,
    y: f64,
    vx: f64,
    vy: f64,
    w: f64,
    h: f64,
    seed: u64,
}

impl Vehicle {
    fn actor(&self, gt: u64, frame: u64) -> Option<SceneActor> {
        let t = frame.checked_sub(self.start).filter(|&t| t < self.life)? as f64;
        Some(SceneActor {
            gt: GroundTruthId(gt),
            class: ObjectClass::Car,
            bbox: BoundingBox::from_center(
                self.x + self.vx * t,
                self.y + self.vy * t,
                self.w,
                self.h,
            )
            .ok()?,
            appearance: VehicleAppearance::from_seed(self.seed),
        })
    }
}

/// Vehicles shaped by `kind`: 0 crossing (opposite directions on close
/// lanes), 1 queued (same lane and speed, a short gap), 2 overlapping (a
/// second vehicle riding on part of the first's box for a while).
fn arb_group() -> impl Strategy<Value = Vec<Vehicle>> {
    (
        (0u8..3, 0u64..16, 20u64..40),
        (40.0f64..110.0, 2.0f64..7.0),
        (-6.0f64..6.0, 0.0f64..1.0),
        (24.0f64..44.0, 14.0f64..26.0),
        0u64..1000,
    )
        .prop_map(
            |((kind, start, life), (y, speed), (dy, frac), (w, h), seed)| {
                let east = Vehicle {
                    start,
                    life,
                    x: 10.0,
                    y,
                    vx: speed,
                    vy: 0.0,
                    w,
                    h,
                    seed,
                };
                let other = match kind {
                    0 => Vehicle {
                        x: 190.0,
                        y: y + dy,
                        vx: -speed,
                        seed: seed + 1,
                        ..east.clone()
                    },
                    1 => Vehicle {
                        start: start + 2 + (frac * 6.0) as u64,
                        seed: seed + 1,
                        ..east.clone()
                    },
                    _ => Vehicle {
                        start: start + 1 + (frac * 8.0) as u64,
                        life: (life / 2).max(4),
                        x: 10.0 + frac * w,
                        y: y + dy,
                        vy: 0.4,
                        seed: seed + 1,
                        ..east.clone()
                    },
                };
                vec![east, other]
            },
        )
}

fn arb_stream() -> impl Strategy<Value = Vec<Vehicle>> {
    proptest::collection::vec(arb_group(), 1..4).prop_map(|g| g.concat())
}

fn arb_noise() -> impl Strategy<Value = DetectorNoise> {
    (0u8..2, 0.0f64..0.2, 0.0f64..0.3, 0.0f64..2.0).prop_map(|(perfect, miss, clutter, jitter)| {
        if perfect == 0 {
            DetectorNoise::perfect()
        } else {
            DetectorNoise {
                miss_rate: miss,
                clutter_rate: clutter,
                jitter_px: jitter,
                ..DetectorNoise::default()
            }
        }
    })
}

fn scene(vehicles: &[Vehicle], frame: u64) -> Scene {
    Scene {
        width: W,
        height: H,
        actors: vehicles
            .iter()
            .enumerate()
            .filter_map(|(gt, v)| v.actor(gt as u64, frame))
            .collect(),
    }
}

/// The reference state of one track: every frame, and the clean frames.
#[derive(Default)]
struct OracleTrack {
    all: SignatureAccumulator,
    clean: SignatureAccumulator,
}

impl OracleTrack {
    fn signature(&self) -> Option<ColorHistogram> {
        self.clean.signature().or_else(|| self.all.signature())
    }
}

/// The reference identification element, fed the element's own output.
struct Oracle {
    config: IdentConfig,
    tracks: HashMap<TrackId, OracleTrack>,
    scratch: HistogramScratch,
    /// Frames whose histogram can reach the signature: clean frames, and
    /// contaminated frames before their track's first clean frame.
    needed: u64,
}

impl Oracle {
    fn contaminated(&self, active: &[TrackState], i: usize) -> bool {
        let max = self.config.signature_max_overlap;
        let own = active[i].bbox.area();
        max < 1.0
            && own > 0.0
            && active.iter().enumerate().any(|(j, other)| {
                j != i
                    && active[i]
                        .bbox
                        .intersection(&other.bbox)
                        .map_or(0.0, |b| b.area())
                        / own
                        > max
            })
    }

    fn frame(&mut self, frame: u64, scene: &Scene, active: &[TrackState]) {
        let bins = self.config.histogram.bins_per_channel;
        let view = self.config.renderer.view(scene, RENDER_SEED ^ frame);
        for (i, st) in active.iter().enumerate() {
            let contaminated = self.contaminated(active, i);
            ColorHistogram::extract_into(
                &view,
                &st.bbox,
                &self.config.histogram,
                &mut self.scratch,
            );
            let track = self.tracks.entry(st.id).or_default();
            if !contaminated || track.clean.count() == 0 {
                self.needed += 1;
            }
            track.all.add_bins(self.scratch.bins(), bins);
            if self.config.signature_max_overlap < 1.0 && !contaminated {
                track.clean.add_bins(self.scratch.bins(), bins);
            }
        }
    }

    fn emitted(&mut self, obs: &VehicleObservation) {
        let track = self.tracks.remove(&obs.track);
        let want = track.and_then(|t| t.signature());
        assert_eq!(Some(bits(&obs.signature)), want.as_ref().map(bits));
    }
}

fn bits(h: &ColorHistogram) -> (usize, Vec<(usize, u64)>) {
    let pairs = h.bins().iter().map(|&(i, v)| (i, v.to_bits())).collect();
    (h.bins_per_channel(), pairs)
}

/// Runs `vehicles` through the element and the oracle side by side,
/// asserts they agree, and returns the number of histograms the element
/// extracted.
fn check(vehicles: &[Vehicle], noise: DetectorNoise, detector_seed: u64, max_overlap: f64) -> u64 {
    let config = IdentConfig {
        signature_max_overlap: max_overlap,
        ..IdentConfig::default()
    };
    let mut ident = VehicleIdentification::new(
        SyntheticSsdDetector::new(noise, detector_seed),
        PostProcessor::new(Polygon::rect(0.0, 0.0, f64::from(W), f64::from(H))),
        config.clone(),
        RENDER_SEED,
    );
    let mut oracle = Oracle {
        config,
        tracks: HashMap::new(),
        scratch: HistogramScratch::new(),
        needed: 0,
    };
    let mut emitted = 0;
    for frame in 0..FRAMES + TAIL {
        let scene = scene(vehicles, frame);
        let result = ident.process_scene(FrameId(frame), &scene);
        oracle.frame(frame, &scene, &result.active);
        for obs in &result.completed {
            oracle.emitted(obs);
            emitted += 1;
        }
    }
    for obs in &ident.flush() {
        oracle.emitted(obs);
        emitted += 1;
    }
    assert!(oracle.tracks.is_empty(), "every track emits");
    let (reuses, allocs) = ident.scratch_stats();
    assert_eq!(reuses + allocs, oracle.needed, "{emitted} events");
    oracle.needed
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(cases()))]

    /// Every emitted signature equals the two-accumulator reference bit for
    /// bit, and the element extracts exactly the histograms that can reach
    /// a signature.
    #[test]
    fn gated_signatures_match_the_two_accumulator_oracle(
        vehicles in arb_stream(),
        noise in arb_noise(),
        detector_seed in 0u64..1000,
    ) {
        for max_overlap in [0.0, 0.25, 1.0] {
            check(&vehicles, noise, detector_seed, max_overlap);
        }
    }
}

/// Two cars crossing head-on on the same lane: each is covered by the
/// other for the middle frames, after clean frames on both sides, so
/// gating skips extractions there and ungated runs extract every frame.
#[test]
fn crossing_pair_skips_contaminated_frames_after_the_first_clean_one() {
    let car = |x: f64, vx: f64, seed: u64| Vehicle {
        start: 0,
        life: 36,
        x,
        y: 75.0,
        vx,
        vy: 0.0,
        w: 36.0,
        h: 22.0,
        seed,
    };
    let pair = [car(10.0, 5.0, 1), car(190.0, -5.0, 2)];
    let extractions = |max_overlap| check(&pair, DetectorNoise::perfect(), 3, max_overlap);
    let (gated, ungated) = (extractions(0.25), extractions(1.0));
    assert!(
        gated < ungated,
        "gating skips dead extractions ({gated} vs {ungated})"
    );
}
