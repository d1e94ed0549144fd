//! Oracle tests for the span-based row kernel, the table-driven bin
//! kernel and the hoisted signature weights: each must reproduce, bit for
//! bit, the per-pixel definitions they replaced. Those definitions live
//! only here, as the reference:
//!
//! - a pixel belongs to the last actor in draw order whose integer
//!   footprint covers it, shaded by its trim / body / wheel band and a
//!   texture hash, else to the background plus sensor noise;
//! - a pixel's bin is its scaled channels, `(r·n/256 · n + g·n/256) · n +
//!   b·n/256` at `n` bins per channel;
//! - a signature bins every pixel of the clamped box in row-major order
//!   with weight `exp(-(dx·dx + dy·dy) / 2)` evaluated in full per pixel.
//!
//! Checked against the reference: [`SceneView`] pixel and bin row spans,
//! full [`Renderer::render`] frames and their bin row spans, and
//! [`ColorHistogram::extract_into`] read through both a lazy view and a
//! rendered frame. `PROPTEST_CASES` raises the case count (read by this
//! file; the proptest stub ignores it).

use coral_vision::{
    BoundingBox, ColorHistogram, GroundTruthId, HistogramConfig, HistogramScratch, ObjectClass,
    PixelSource, Renderer, Rgb, Scene, SceneActor, SceneView, VehicleAppearance,
};
use proptest::prelude::*;

fn cases() -> u32 {
    std::env::var("PROPTEST_CASES")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(64)
}

// ---- Reference: the per-pixel renderer ---------------------------------

fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn pixel_hash(seed: u64, x: u32, y: u32) -> u64 {
    splitmix64(seed ^ (u64::from(x) << 32) ^ u64::from(y))
}

fn shade(c: Rgb, delta: i32) -> Rgb {
    Rgb::new(
        (i32::from(c.r) + delta).clamp(0, 255) as u8,
        (i32::from(c.g) + delta).clamp(0, 255) as u8,
        (i32::from(c.b) + delta).clamp(0, 255) as u8,
    )
}

/// `[floor x0, ceil x1) × [floor y0, ceil y1)` as `(x0, y0, x1, y1)`.
fn rect(b: &BoundingBox) -> (i64, i64, i64, i64) {
    (
        b.x0.floor() as i64,
        b.y0.floor() as i64,
        b.x1.ceil() as i64,
        b.y1.ceil() as i64,
    )
}

fn actor_pixel(actor: &SceneActor, frame_seed: u64, x: i64, y: i64) -> Rgb {
    let (rx0, ry0, rx1, ry1) = rect(&actor.bbox);
    let h = (ry1 - ry0).max(1);
    let w = (rx1 - rx0).max(1);
    let trim_frac = 0.20 + (actor.appearance.texture_seed % 5) as f64 * 0.05;
    let fy = (y - ry0) as f64 / h as f64;
    let fx = (x - rx0) as f64 / w as f64;
    let base = if fy < trim_frac {
        actor.appearance.trim
    } else if fy > 0.85 && !(0.25..=0.75).contains(&fx) {
        Rgb::new(15, 15, 15)
    } else {
        actor.appearance.body
    };
    let th = pixel_hash(
        actor.appearance.texture_seed ^ frame_seed,
        x as u32 & 0xffff,
        y as u32 & 0xffff,
    );
    shade(base, (th % 13) as i32 - 6)
}

fn reference_pixel(renderer: &Renderer, scene: &Scene, frame_seed: u64, x: u32, y: u32) -> Rgb {
    let (xi, yi) = (i64::from(x), i64::from(y));
    let covering = scene.actors.iter().rev().find(|a| {
        let (x0, y0, x1, y1) = rect(&a.bbox);
        (x0..x1).contains(&xi) && (y0..y1).contains(&yi)
    });
    match covering {
        Some(actor) => actor_pixel(actor, frame_seed, xi, yi),
        None if renderer.noise_amplitude > 0 => {
            let amp = i32::from(renderer.noise_amplitude);
            let h = pixel_hash(frame_seed, x, y);
            shade(renderer.background, (h % (2 * amp as u64 + 1)) as i32 - amp)
        }
        None => renderer.background,
    }
}

// ---- Reference: the per-pixel signature loop ---------------------------

fn bin_index(px: Rgb, bins: usize) -> usize {
    let scale = |v: u8| (usize::from(v) * bins) / 256;
    (scale(px.r) * bins + scale(px.g)) * bins + scale(px.b)
}

/// The bins `extract_into` wrote before the weights were hoisted, with
/// `pixel` standing in for the frame.
fn reference_signature(
    width: u32,
    height: u32,
    pixel: impl Fn(u32, u32) -> Rgb,
    bbox: &BoundingBox,
    config: &HistogramConfig,
) -> Vec<f64> {
    let b = config.bins_per_channel.max(1);
    let mut bins = vec![0.0; b * b * b];
    let clamped = bbox.clamp_to(width, height);
    let (x0, y0) = (clamped.x0.floor() as u32, clamped.y0.floor() as u32);
    let (x1, y1) = (
        (clamped.x1.ceil() as u32).min(width),
        (clamped.y1.ceil() as u32).min(height),
    );
    let c = bbox.centroid();
    let sx = (bbox.width() / 2.0 * config.center_sigma_frac).max(1.0);
    let sy = (bbox.height() / 2.0 * config.center_sigma_frac).max(1.0);
    let mut total = 0.0;
    for y in y0..y1 {
        for x in x0..x1 {
            let dx = (f64::from(x) + 0.5 - c.x) / sx;
            let dy = (f64::from(y) + 0.5 - c.y) / sy;
            let w = (-(dx * dx + dy * dy) / 2.0).exp();
            bins[bin_index(pixel(x, y), b)] += w;
            total += w;
        }
    }
    if total <= 0.0 {
        let uniform = 1.0 / bins.len() as f64;
        bins.iter_mut().for_each(|v| *v = uniform);
    } else {
        bins.iter_mut().for_each(|v| *v /= total);
    }
    bins
}

fn bits(bins: &[f64]) -> Vec<u64> {
    bins.iter().map(|v| v.to_bits()).collect()
}

// ---- Strategies ----------------------------------------------------------

/// An extent that is zero, exactly one pixel, or fractional.
fn extent(max: f64) -> impl Strategy<Value = f64> {
    prop_oneof![Just(0.0f64), Just(1.0f64), 0.0f64..max]
}

/// A box anywhere from far off-frame (negative coordinates included) to
/// past the far edge, sometimes zero-width, zero-height or one pixel wide.
fn arb_box() -> impl Strategy<Value = BoundingBox> {
    let origin = || {
        prop_oneof![
            -40.0f64..70.0,
            (-5i32..50).prop_map(f64::from),
            -1.0e4f64..-50.0,
            60.0f64..1.0e4,
        ]
    };
    (origin(), origin(), extent(48.0), extent(48.0)).prop_map(|(x0, y0, w, h)| {
        BoundingBox::new(x0, y0, x0 + w, y0 + h).expect("non-negative extent")
    })
}

/// A box that mostly lies on a frame of up to 48×48 pixels — where a
/// signature reads actor and background pixels — or anywhere [`arb_box`]
/// puts one.
fn arb_track_box() -> impl Strategy<Value = BoundingBox> {
    let on_frame = || {
        (-4.0f64..40.0, -4.0f64..40.0, 1.0f64..40.0, 1.0f64..40.0).prop_map(|(x0, y0, w, h)| {
            BoundingBox::new(x0, y0, x0 + w, y0 + h).expect("positive extent")
        })
    };
    prop_oneof![on_frame(), on_frame(), on_frame(), arb_box()]
}

/// A box whose rows all cover rows 6..10 of the frame: a stack of these
/// puts up to 24 actors, and so up to 48 band tables, on one row.
fn arb_row_box() -> impl Strategy<Value = BoundingBox> {
    (-10.0f64..40.0, 0.0f64..6.0, extent(30.0), 10.0f64..30.0).prop_map(|(x0, y0, w, h)| {
        BoundingBox::new(x0, y0, x0 + w, y0 + h).expect("non-negative extent")
    })
}

fn actors(boxes: Vec<(BoundingBox, u64)>) -> Vec<SceneActor> {
    boxes
        .into_iter()
        .map(|(bbox, gt)| SceneActor {
            gt: GroundTruthId(gt),
            class: ObjectClass::Car,
            bbox,
            appearance: VehicleAppearance::from_seed(gt),
        })
        .collect()
}

/// A renderer with sensor noise off, small, or at its maximum, and a
/// scene of scattered actors or of 9–24 actors stacked on rows 6..10,
/// on a frame as small as 1×1.
fn arb_scene() -> impl Strategy<Value = (Renderer, Scene)> {
    let side = || prop_oneof![1u32..=3, 8u32..=48, 8u32..=48];
    let scattered = proptest::collection::vec((arb_box(), 0u64..1_000), 0..=12);
    let stacked = proptest::collection::vec((arb_row_box(), 0u64..1_000), 9..=24);
    (
        prop_oneof![Just(0u8), Just(255u8), 1u8..=16],
        side(),
        side(),
        prop_oneof![scattered, stacked],
    )
        .prop_map(|(noise_amplitude, width, height, boxes)| {
            let renderer = Renderer {
                noise_amplitude,
                ..Renderer::default()
            };
            let scene = Scene {
                width,
                height,
                actors: actors(boxes),
            };
            (renderer, scene)
        })
}

/// The full row of a frame `width` pixels wide, plus one sub-span
/// (possibly empty) per cut, starting and ending anywhere.
fn spans(width: u32, cuts: &[(u32, u32)]) -> Vec<(u32, u32)> {
    let mut spans = vec![(0, width)];
    spans.extend(cuts.iter().map(|&(a, b)| {
        let (a, b) = (a % (width + 1), b % (width + 1));
        (a.min(b), a.max(b))
    }));
    spans
}

/// Row spans of `view` match the reference pixel for pixel, on every row
/// and each of its [`spans`].
fn check_rows(
    renderer: &Renderer,
    scene: &Scene,
    frame_seed: u64,
    view: &SceneView<'_>,
    cuts: &[(u32, u32)],
) -> Result<(), String> {
    let mut row = Vec::new();
    for y in 0..scene.height {
        for (x0, x1) in spans(scene.width, cuts) {
            view.row_into(y, x0, x1, &mut row);
            let want: Vec<Rgb> = (x0..x1)
                .map(|x| reference_pixel(renderer, scene, frame_seed, x, y))
                .collect();
            prop_assert_eq!(&row, &want, "row {} span {}..{}", y, x0, x1);
        }
    }
    Ok(())
}

/// Bin row spans of `source` are the reference pixels' bins, on every row
/// and each of its [`spans`].
fn check_bin_rows(
    source: &dyn PixelSource,
    pixel: impl Fn(u32, u32) -> Rgb,
    bins_per_channel: usize,
    cuts: &[(u32, u32)],
) -> Result<(), String> {
    let (width, height) = (source.width(), source.height());
    let mut row = Vec::new();
    for y in 0..height {
        for (x0, x1) in spans(width, cuts) {
            source.bin_row_into(y, x0, x1, bins_per_channel, &mut row);
            let want: Vec<u32> = (x0..x1)
                .map(|x| bin_index(pixel(x, y), bins_per_channel) as u32)
                .collect();
            prop_assert_eq!(&row, &want, "row {} span {}..{}", y, x0, x1);
        }
    }
    Ok(())
}

/// Bins per channel from one to eight (the default), sixteen, or 41,
/// whose 68 921 cells do not fit in a `u16`.
fn arb_bins_per_channel() -> impl Strategy<Value = usize> {
    prop_oneof![1usize..=8, Just(16usize), Just(41usize)]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(cases()))]

    /// `SceneView` row spans and `render()` are the per-pixel reference.
    #[test]
    fn row_kernel_matches_per_pixel_reference(
        (renderer, scene) in arb_scene(),
        frame_seed in 0u64..u64::MAX,
        cuts in proptest::collection::vec((0u32..64, 0u32..64), 0..4),
    ) {
        let view = renderer.view(&scene, frame_seed);
        check_rows(&renderer, &scene, frame_seed, &view, &cuts)?;
        let frame = renderer.render(&scene, frame_seed);
        for y in 0..scene.height {
            for x in 0..scene.width {
                prop_assert_eq!(
                    frame.pixel(x, y),
                    reference_pixel(&renderer, &scene, frame_seed, x, y),
                    "rendered pixel ({}, {})", x, y
                );
            }
        }
    }

    /// `SceneView` and rendered-frame bin row spans are the bins of the
    /// reference pixels, at every noise amplitude and bins per channel.
    #[test]
    fn bin_kernel_matches_per_pixel_reference(
        (renderer, scene) in arb_scene(),
        frame_seed in 0u64..u64::MAX,
        cuts in proptest::collection::vec((0u32..64, 0u32..64), 0..4),
        bins_per_channel in arb_bins_per_channel(),
    ) {
        let pixel = |x, y| reference_pixel(&renderer, &scene, frame_seed, x, y);
        let view = renderer.view(&scene, frame_seed);
        check_bin_rows(&view, pixel, bins_per_channel, &cuts)?;
        let frame = renderer.render(&scene, frame_seed);
        check_bin_rows(&frame, pixel, bins_per_channel, &cuts)?;
    }

    /// `extract_into` through a lazy view and through a rendered frame
    /// writes the reference bins bit for bit, for boxes one pixel wide,
    /// partly off-frame and wholly off-frame. Each box is extracted at two
    /// bins-per-channel values in turn through one view and one scratch,
    /// so the view's bin tables and the scratch's buffers are rebuilt
    /// between extractions.
    #[test]
    fn hoisted_weights_match_per_pixel_reference(
        (renderer, scene) in arb_scene(),
        frame_seed in 0u64..u64::MAX,
        boxes in proptest::collection::vec(arb_track_box(), 1..8),
        bins_per_channel in (1usize..=8, arb_bins_per_channel()),
        center_sigma_frac in 0.1f64..2.0,
    ) {
        let frame = renderer.render(&scene, frame_seed);
        let view = renderer.view(&scene, frame_seed);
        let mut scratch = HistogramScratch::new();
        for bbox in &boxes {
            for bins_per_channel in [bins_per_channel.0, bins_per_channel.1] {
                let config = HistogramConfig { bins_per_channel, center_sigma_frac };
                let want = reference_signature(
                    scene.width,
                    scene.height,
                    |x, y| reference_pixel(&renderer, &scene, frame_seed, x, y),
                    bbox,
                    &config,
                );
                ColorHistogram::extract_into(&view, bbox, &config, &mut scratch);
                prop_assert_eq!(
                    bits(scratch.bins()),
                    bits(&want),
                    "view, box {:?}, {} bins",
                    bbox,
                    bins_per_channel
                );
                ColorHistogram::extract_into(&frame, bbox, &config, &mut scratch);
                prop_assert_eq!(
                    bits(scratch.bins()),
                    bits(&want),
                    "frame, box {:?}, {} bins",
                    bbox,
                    bins_per_channel
                );
            }
        }
    }
}
