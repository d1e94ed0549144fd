//! Criterion micro-benchmarks for the vision substrate: the sub-tasks
//! behind Table 1's Track / Feature-Extraction / Vehicle-Reid rows, plus
//! the §4.1.5 design-space ablations (every-frame SORT association cost,
//! histogram extraction, Bhattacharyya matching).

use coral_vision::{
    hungarian, BoundingBox, ColorHistogram, Detector, DetectorNoise, HistogramConfig,
    HistogramScratch, ObjectClass, Renderer, Scene, SceneActor, SortConfig, SortTracker,
    SyntheticSsdDetector, VehicleAppearance,
};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn boxes(n: usize, seed: u64) -> Vec<BoundingBox> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|_| {
            BoundingBox::from_center(
                rng.gen_range(30.0..600.0),
                rng.gen_range(30.0..450.0),
                rng.gen_range(25.0..50.0),
                rng.gen_range(15.0..30.0),
            )
            .expect("valid box")
        })
        .collect()
}

fn bench_hungarian(c: &mut Criterion) {
    let mut group = c.benchmark_group("hungarian_assignment");
    for n in [4usize, 16, 64] {
        let mut rng = StdRng::seed_from_u64(7);
        let cost: Vec<Vec<f64>> = (0..n)
            .map(|_| (0..n).map(|_| rng.gen_range(0.0..1.0)).collect())
            .collect();
        group.bench_with_input(BenchmarkId::from_parameter(n), &cost, |b, cost| {
            b.iter(|| hungarian::assign(cost));
        });
    }
    group.finish();
}

fn bench_sort_update(c: &mut Criterion) {
    // Table 1 "Track" row: SORT on one frame of detections.
    let mut group = c.benchmark_group("sort_track_frame");
    for n in [2usize, 8, 24] {
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, &n| {
            let initial = boxes(n, 1);
            b.iter_batched(
                || {
                    let mut sort = SortTracker::new(SortConfig::default());
                    sort.update(&initial);
                    sort
                },
                |mut sort| {
                    let moved: Vec<BoundingBox> =
                        initial.iter().map(|bb| bb.translated(4.0, 0.0)).collect();
                    sort.update(&moved)
                },
                criterion::BatchSize::SmallInput,
            );
        });
    }
    group.finish();
}

fn bench_detect(c: &mut Criterion) {
    // Table 1 "Detect" row: the synthetic SSD stand-in over scenes of
    // increasing density.
    let mut group = c.benchmark_group("ssd_detect_scene");
    for n in [2usize, 8, 24] {
        let scene = Scene {
            width: 640,
            height: 480,
            actors: boxes(n, 11)
                .into_iter()
                .enumerate()
                .map(|(i, bbox)| SceneActor {
                    gt: coral_vision::GroundTruthId(i as u64),
                    class: ObjectClass::Car,
                    bbox,
                    appearance: VehicleAppearance::from_seed(i as u64),
                })
                .collect(),
        };
        group.bench_with_input(BenchmarkId::from_parameter(n), &scene, |b, scene| {
            let mut det = SyntheticSsdDetector::new(DetectorNoise::default(), 7);
            b.iter(|| det.detect(scene));
        });
    }
    group.finish();
}

fn rendered_vehicle() -> (coral_vision::Frame, BoundingBox) {
    let bbox = BoundingBox::new(40.0, 40.0, 160.0, 120.0).expect("valid");
    let scene = Scene {
        width: 240,
        height: 192,
        actors: vec![SceneActor {
            gt: coral_vision::GroundTruthId(4),
            class: ObjectClass::Car,
            bbox,
            appearance: VehicleAppearance::from_seed(4),
        }],
    };
    (Renderer::default().render(&scene, 1), bbox)
}

fn bench_histogram(c: &mut Criterion) {
    // Table 1 "Feature Extraction" row.
    let (frame, bbox) = rendered_vehicle();
    c.bench_function("feature_extraction_histogram", |b| {
        b.iter(|| ColorHistogram::extract(&frame, &bbox, &HistogramConfig::default()));
    });
}

fn bench_bhattacharyya(c: &mut Criterion) {
    // Table 1 "Vehicle-Reid" row: matching against a candidate pool.
    let (frame, bbox) = rendered_vehicle();
    let query = ColorHistogram::extract(&frame, &bbox, &HistogramConfig::default());
    let mut group = c.benchmark_group("reid_pool_scan");
    for pool_size in [4usize, 16, 64] {
        let pool: Vec<ColorHistogram> =
            (0..pool_size).map(|_| ColorHistogram::uniform(8)).collect();
        group.bench_with_input(BenchmarkId::from_parameter(pool_size), &pool, |b, pool| {
            b.iter(|| {
                pool.iter()
                    .filter_map(|h| query.bhattacharyya_distance(h))
                    .fold(f64::INFINITY, f64::min)
            });
        });
    }
    group.finish();
}

fn four_car_scene() -> Scene {
    Scene {
        width: 240,
        height: 192,
        actors: (0..4)
            .map(|i| SceneActor {
                gt: coral_vision::GroundTruthId(i),
                class: ObjectClass::Car,
                bbox: BoundingBox::from_center(40.0 + 50.0 * i as f64, 90.0, 36.0, 22.0)
                    .expect("valid"),
                appearance: VehicleAppearance::from_seed(i),
            })
            .collect(),
    }
}

fn bench_render(c: &mut Criterion) {
    // The synthetic substitute for frame capture + decode.
    let scene = four_car_scene();
    let renderer = Renderer::default();
    c.bench_function("render_frame_240x192_4cars", |b| {
        let mut seed = 0u64;
        b.iter(|| {
            seed += 1;
            renderer.render(&scene, seed)
        });
    });
    // What a frame costs the tracker instead: one signature per car, read
    // from a lazy view that renders only the pixels inside the boxes.
    let config = HistogramConfig::default();
    c.bench_function("histogram_lazy_scene_240x192_4cars", |b| {
        let mut scratch = HistogramScratch::new();
        let mut seed = 0u64;
        b.iter(|| {
            seed += 1;
            let view = renderer.view(&scene, seed);
            for actor in &scene.actors {
                ColorHistogram::extract_into(&view, &actor.bbox, &config, &mut scratch);
            }
            scratch.bins()[0]
        });
    });
    // The city shape: one ~1000-pixel track box, overlapped by two more
    // actors drawn over it, read from a noisy lazy view.
    let scene = Scene {
        width: 240,
        height: 192,
        actors: [
            (100.0, 80.0, 140.0, 105.0),
            (125.0, 70.0, 160.0, 92.0),
            (88.0, 96.0, 118.0, 120.0),
        ]
        .iter()
        .enumerate()
        .map(|(i, &(x0, y0, x1, y1))| SceneActor {
            gt: coral_vision::GroundTruthId(i as u64),
            class: ObjectClass::Car,
            bbox: BoundingBox::new(x0, y0, x1, y1).expect("valid"),
            appearance: VehicleAppearance::from_seed(i as u64),
        })
        .collect(),
    };
    let track = scene.actors[0].bbox;
    c.bench_function("histogram_lazy_track_box_3actors", |b| {
        let mut scratch = HistogramScratch::new();
        let mut seed = 0u64;
        b.iter(|| {
            seed += 1;
            let view = renderer.view(&scene, seed);
            ColorHistogram::extract_into(&view, &track, &config, &mut scratch);
            scratch.bins()[0]
        });
    });
}

criterion_group!(
    benches,
    bench_hungarian,
    bench_sort_update,
    bench_detect,
    bench_histogram,
    bench_bhattacharyya,
    bench_render
);
criterion_main!(benches);
