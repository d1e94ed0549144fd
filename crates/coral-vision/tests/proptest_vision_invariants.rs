//! Property tests for the appearance and tracking kernels the parallel
//! stepper fans across threads: Bhattacharyya distance symmetry/range,
//! Kalman covariance positive-semidefiniteness over random tracks, and the
//! identity of on-demand pixels with fully rendered frames.

use coral_vision::{
    BoundingBox, ColorHistogram, Frame, GroundTruthId, HistogramConfig, HistogramScratch,
    KalmanBoxFilter, ObjectClass, PixelSource, Renderer, Scene, SceneActor, VehicleAppearance,
};
use proptest::prelude::*;

fn arb_histogram() -> impl Strategy<Value = ColorHistogram> {
    proptest::collection::vec(0u8..=255, 8 * 8 * 3).prop_map(|data| {
        let frame = Frame::from_raw(8, 8, data).unwrap();
        let bbox = BoundingBox::new(0.0, 0.0, 8.0, 8.0).unwrap();
        ColorHistogram::extract(&frame, &bbox, &HistogramConfig::default())
    })
}

/// A box with its top-left corner anywhere from well off-frame to past
/// the far edge, sometimes zero-width or zero-height.
fn arb_box() -> impl Strategy<Value = BoundingBox> {
    let extent = || prop_oneof![Just(0.0f64), 0.0f64..40.0];
    (-30.0f64..60.0, -30.0f64..50.0, extent(), extent()).prop_map(|(x0, y0, w, h)| {
        BoundingBox::new(x0, y0, x0 + w, y0 + h).expect("non-negative extent")
    })
}

/// A renderer with sensor noise off or on, plus a scene of 0–12
/// overlapping, partly off-frame actors on a frame as small as 1×1.
fn arb_scene() -> impl Strategy<Value = (Renderer, Scene)> {
    let side = || prop_oneof![1u32..=3, 1u32..=48];
    (
        prop_oneof![Just(0u8), 1u8..=16],
        side(),
        side(),
        proptest::collection::vec((arb_box(), 0u64..1_000), 0..=12),
    )
        .prop_map(|(noise_amplitude, width, height, actors)| {
            let renderer = Renderer {
                noise_amplitude,
                ..Renderer::default()
            };
            let actors = actors
                .into_iter()
                .map(|(bbox, gt)| SceneActor {
                    gt: GroundTruthId(gt),
                    class: ObjectClass::Car,
                    bbox,
                    appearance: VehicleAppearance::from_seed(gt),
                })
                .collect();
            let scene = Scene {
                width,
                height,
                actors,
            };
            (renderer, scene)
        })
}

/// One simulated observation step: box center/size plus whether the
/// detector saw the vehicle (misses leave the filter coasting).
type TrackStep = (f64, f64, f64, f64, bool);

fn arb_track() -> impl Strategy<Value = Vec<TrackStep>> {
    proptest::collection::vec(
        (
            30.0f64..610.0,
            30.0f64..450.0,
            8.0f64..120.0,
            6.0f64..90.0,
            any::<bool>(),
        ),
        1..200,
    )
}

/// Checks that `p` is symmetric, finite, and positive-semidefinite up to
/// numerical tolerance — by Cholesky-factoring `P + εI` with
/// `ε = 1e-9·(1 + tr P)`. Success proves every eigenvalue of `P` is
/// ≥ −ε, i.e. any negativity is pure floating-point round-off.
fn check_covariance_psd(p: &[[f64; 7]; 7]) -> Result<(), String> {
    let mut a = [[0.0f64; 7]; 7];
    for i in 0..7 {
        for j in 0..7 {
            if !p[i][j].is_finite() {
                return Err(format!("non-finite P[{i}][{j}] = {}", p[i][j]));
            }
            let scale = 1.0 + p[i][i].abs().max(p[j][j].abs());
            if (p[i][j] - p[j][i]).abs() > 1e-6 * scale {
                return Err(format!(
                    "asymmetry at ({i},{j}): {} vs {}",
                    p[i][j], p[j][i]
                ));
            }
            a[i][j] = 0.5 * (p[i][j] + p[j][i]);
        }
    }
    let trace: f64 = (0..7).map(|i| a[i][i]).sum();
    if trace < 0.0 {
        return Err(format!("negative trace {trace}"));
    }
    let eps = 1e-9 * (1.0 + trace);
    let mut l = [[0.0f64; 7]; 7];
    for i in 0..7 {
        for j in 0..=i {
            let mut s = a[i][j] + if i == j { eps } else { 0.0 };
            s -= l[i]
                .iter()
                .zip(&l[j])
                .take(j)
                .map(|(x, y)| x * y)
                .sum::<f64>();
            if i == j {
                if s <= 0.0 {
                    return Err(format!("not PSD: Cholesky pivot {s} at row {i}"));
                }
                l[i][i] = s.sqrt();
            } else {
                l[i][j] = s / l[j][j];
            }
        }
    }
    Ok(())
}

proptest! {
    #[test]
    fn bhattacharyya_symmetry_and_range(a in arb_histogram(), b in arb_histogram()) {
        let ab = a.bhattacharyya_distance(&b).unwrap();
        let ba = b.bhattacharyya_distance(&a).unwrap();
        prop_assert!((0.0..=1.0).contains(&ab), "distance {} out of [0,1]", ab);
        prop_assert!((ab - ba).abs() < 1e-12, "asymmetric: {} vs {}", ab, ba);
        prop_assert!(a.bhattacharyya_distance(&a).unwrap() < 1e-6, "self-distance must vanish");
        let coef = a.bhattacharyya_coefficient(&b).unwrap();
        prop_assert!((0.0..=1.0).contains(&coef), "coefficient {} out of [0,1]", coef);
        // Distance and coefficient are the same comparison on two scales.
        prop_assert!(
            (ab - (1.0 - coef).max(0.0).sqrt()).abs() < 1e-12,
            "d={} inconsistent with BC={}", ab, coef
        );
    }

    #[test]
    fn kalman_covariance_stays_psd(track in arb_track()) {
        let (cx0, cy0, w0, h0, _) = track[0];
        let mut filter =
            KalmanBoxFilter::new(&BoundingBox::from_center(cx0, cy0, w0, h0).unwrap());
        prop_assert!(check_covariance_psd(&filter.covariance()).is_ok());
        for (step, &(cx, cy, w, h, observed)) in track.iter().enumerate() {
            filter.predict();
            if observed {
                filter.update(&BoundingBox::from_center(cx, cy, w, h).unwrap());
            }
            if let Err(why) = check_covariance_psd(&filter.covariance()) {
                prop_assert!(false, "step {}: {}", step, why);
            }
            // The state estimate itself must stay finite alongside P.
            let bbox = filter.current_bbox();
            prop_assert!(bbox.area().is_finite());
        }
    }

    /// Extraction through a reused scratch arena is bit-identical to a
    /// fresh allocation, across consecutive frames and across a
    /// bins-per-channel change mid-sequence (which forces the arena to
    /// resize and re-zero).
    #[test]
    fn scratch_extraction_matches_fresh(
        frames in proptest::collection::vec(
            proptest::collection::vec(0u8..=255, 8 * 8 * 3),
            1..6,
        ),
        flip in any::<bool>(),
    ) {
        let bbox = BoundingBox::new(0.0, 0.0, 8.0, 8.0).unwrap();
        let mut scratch = HistogramScratch::new();
        for (i, data) in frames.iter().enumerate() {
            let frame = Frame::from_raw(8, 8, data.clone()).unwrap();
            // Alternate bin counts when `flip` is set: every switch
            // invalidates the arena length and must still reproduce the
            // freshly allocated result.
            let bins = if flip && i % 2 == 1 { 4 } else { 8 };
            let config = HistogramConfig { bins_per_channel: bins, ..HistogramConfig::default() };
            let fresh = ColorHistogram::extract(&frame, &bbox, &config);
            ColorHistogram::extract_into(&frame, &bbox, &config, &mut scratch);
            let through_arena = ColorHistogram::from_bins(bins, scratch.bins().to_vec());
            prop_assert_eq!(
                Ok(fresh), through_arena,
                "frame {} diverged through the arena", i
            );
        }
        let (reuses, allocs) = scratch.stats();
        prop_assert_eq!(reuses + allocs, frames.len() as u64);
        if !flip {
            prop_assert!(allocs <= 1, "constant shape must allocate once (allocs={allocs})");
        }
    }

    /// Signatures read from the lazy scene view are bit-identical to
    /// signatures read from the rendered frame, for any box — including
    /// boxes partly or wholly off the frame.
    #[test]
    fn lazy_view_extraction_matches_rendered_frame(
        (renderer, scene) in arb_scene(),
        frame_seed in 0u64..u64::MAX,
        boxes in proptest::collection::vec(arb_box(), 1..6),
        bins_per_channel in 1usize..=8,
        center_sigma_frac in 0.1f64..2.0,
    ) {
        let config = HistogramConfig { bins_per_channel, center_sigma_frac };
        let frame = renderer.render(&scene, frame_seed);
        let view = renderer.view(&scene, frame_seed);
        prop_assert_eq!((view.width(), view.height()), (frame.width(), frame.height()));
        let (mut from_frame, mut from_view) = (HistogramScratch::new(), HistogramScratch::new());
        for bbox in &boxes {
            ColorHistogram::extract_into(&frame, bbox, &config, &mut from_frame);
            ColorHistogram::extract_into(&view, bbox, &config, &mut from_view);
            let bits = |s: &HistogramScratch| s.bins().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            prop_assert_eq!(bits(&from_frame), bits(&from_view), "box {:?}", bbox);
        }
    }
}
