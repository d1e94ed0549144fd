//! Synthetic scene renderer.
//!
//! The offline substitute for live camera streams: ground-truth vehicles are
//! rasterised into raw RGB frames with per-vehicle appearance (body color,
//! trim, texture) plus sensor noise. Downstream components — the detector's
//! post-processing, SORT tracking, adaptive color-histogram signatures and
//! Bhattacharyya re-identification — consume these pixels exactly as they
//! would consume camera output, so cross-camera matching accuracy *emerges*
//! from appearance rather than being hardcoded.
//!
//! The [`SceneView`] run walk is the one definition of a rendered pixel.
//! It produces pixels, or straight away their histogram bins, one row span
//! at a time, on demand, so signature extraction pays only for the spans
//! inside track boxes; [`Renderer::render`] fills a whole [`Frame`]
//! through the same walk when the raw frame is kept.

use crate::bbox::BoundingBox;
use crate::frame::{Frame, PixelSource, Rgb};
use crate::histogram::bin_index;
use serde::{Deserialize, Serialize};
use std::cell::RefCell;

/// Opaque ground-truth identity of a vehicle, assigned by the traffic
/// simulator and used only by the evaluation harness (never by the tracking
/// pipeline itself).
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize, Default,
)]
pub struct GroundTruthId(pub u64);

impl GroundTruthId {
    /// Base of the clutter-id namespace: ids at or above this are
    /// phantom scene actors injected by the simulator's clutter regime.
    /// They flow through detection and tracking like any other actor but
    /// are *not* ground-truth vehicles — the evaluation harness never
    /// credits them, so clutter tracks score as false positives.
    pub const CLUTTER_BASE: u64 = 1 << 48;

    /// Whether this id names a clutter phantom rather than a vehicle.
    pub fn is_clutter(self) -> bool {
        self.0 >= Self::CLUTTER_BASE
    }
}

impl std::fmt::Display for GroundTruthId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "gt{}", self.0)
    }
}

/// Coarse object class, mirroring the COCO labels the paper's detector
/// emits; post-processing keeps only `{car, bus, truck}` (§4.1.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ObjectClass {
    /// Passenger car.
    Car,
    /// Bus.
    Bus,
    /// Truck.
    Truck,
    /// Pedestrian (filtered out by post-processing).
    Person,
    /// Bicycle (filtered out by post-processing).
    Bicycle,
}

impl ObjectClass {
    /// Whether the class is one of the vehicle labels kept by the paper's
    /// post-processing filter.
    pub fn is_vehicle(self) -> bool {
        matches!(
            self,
            ObjectClass::Car | ObjectClass::Bus | ObjectClass::Truck
        )
    }
}

impl std::fmt::Display for ObjectClass {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            ObjectClass::Car => "car",
            ObjectClass::Bus => "bus",
            ObjectClass::Truck => "truck",
            ObjectClass::Person => "person",
            ObjectClass::Bicycle => "bicycle",
        };
        f.write_str(s)
    }
}

/// Deterministic visual appearance of one vehicle.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct VehicleAppearance {
    /// Body paint color.
    pub body: Rgb,
    /// Trim / window color.
    pub trim: Rgb,
    /// Seed for the per-pixel texture hash.
    pub texture_seed: u64,
}

impl VehicleAppearance {
    /// Derives a deterministic appearance from a seed (typically the
    /// ground-truth vehicle id), drawing from a palette of common vehicle
    /// paints so that *some* vehicles genuinely look alike — the failure
    /// mode color-histogram re-identification must cope with (paper
    /// §4.1.2 note on color-histogram limitations).
    pub fn from_seed(seed: u64) -> Self {
        const PALETTE: [Rgb; 12] = [
            Rgb::new(230, 230, 235), // white
            Rgb::new(25, 25, 30),    // black
            Rgb::new(128, 130, 135), // silver
            Rgb::new(90, 92, 95),    // gray
            Rgb::new(170, 30, 35),   // red
            Rgb::new(30, 60, 140),   // blue
            Rgb::new(30, 90, 50),    // green
            Rgb::new(200, 160, 40),  // yellow
            Rgb::new(120, 70, 30),   // brown
            Rgb::new(230, 120, 30),  // orange
            Rgb::new(60, 20, 80),    // purple
            Rgb::new(180, 185, 190), // light silver
        ];
        let h = splitmix64(seed);
        let body = PALETTE[(h % PALETTE.len() as u64) as usize];
        let trim = Rgb::new(
            (u32::from(body.r) / 3) as u8 + 20,
            (u32::from(body.g) / 3) as u8 + 20,
            (u32::from(body.b) / 3) as u8 + 25,
        );
        Self {
            body,
            trim,
            texture_seed: splitmix64(h),
        }
    }
}

/// One vehicle instance within a camera's field of view.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SceneActor {
    /// Ground-truth identity (evaluation only).
    pub gt: GroundTruthId,
    /// Object class.
    pub class: ObjectClass,
    /// Position in image coordinates.
    pub bbox: BoundingBox,
    /// Visual appearance.
    pub appearance: VehicleAppearance,
}

/// The ground-truth content of one camera frame.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Scene {
    /// Frame width in pixels.
    pub width: u32,
    /// Frame height in pixels.
    pub height: u32,
    /// Actors in draw order (later actors occlude earlier ones).
    pub actors: Vec<SceneActor>,
}

impl Scene {
    /// Creates an empty scene of the given dimensions.
    pub fn empty(width: u32, height: u32) -> Self {
        Self {
            width,
            height,
            actors: Vec::new(),
        }
    }
}

/// Renderer configuration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Renderer {
    /// Road / background base color.
    pub background: Rgb,
    /// Peak-to-peak amplitude of the per-pixel sensor noise.
    pub noise_amplitude: u8,
}

impl Default for Renderer {
    fn default() -> Self {
        Self {
            background: Rgb::new(70, 72, 74),
            noise_amplitude: 8,
        }
    }
}

impl Renderer {
    /// Rasterises `scene` into a raw frame. `frame_seed` decorrelates the
    /// sensor noise between frames while keeping rendering deterministic.
    /// Every row is produced by the [`SceneView`] row kernel, so full
    /// frames and on-demand spans cannot drift apart.
    ///
    /// # Panics
    ///
    /// Panics if the scene is zero pixels wide or high.
    pub fn render(&self, scene: &Scene, frame_seed: u64) -> Frame {
        let view = self.view(scene, frame_seed);
        let mut data = Vec::with_capacity(scene.width as usize * scene.height as usize * 3);
        let mut row = Vec::with_capacity(scene.width as usize);
        for y in 0..scene.height {
            view.row_into(y, 0, scene.width, &mut row);
            data.extend(row.iter().flat_map(|p| [p.r, p.g, p.b]));
        }
        Frame::from_raw(scene.width, scene.height, data).expect("frame must be non-empty")
    }

    /// A lazy view of `scene` that computes pixels on demand — only the
    /// row spans a reader asks for — with each actor's footprint computed
    /// once.
    pub fn view<'a>(&'a self, scene: &'a Scene, frame_seed: u64) -> SceneView<'a> {
        SceneView {
            renderer: self,
            scene,
            frame_seed,
            rects: scene
                .actors
                .iter()
                .map(|a| PixelRect::of(&a.bbox))
                .collect(),
            scratch: RefCell::default(),
        }
    }
}

/// A scene whose pixels are computed on demand: the renderer's output for
/// one frame without rasterising the pixels nobody reads. Signature
/// extraction reads only the bins of the spans inside active track boxes;
/// a full [`Frame`] is materialised only when the raw frame itself is
/// stored.
///
/// Its run walk is the one definition of a rendered pixel: a pixel belongs
/// to the last actor in draw order whose integer footprint covers it
/// (later actors occlude earlier ones), else to the noisy background, and
/// is its band's base color shaded by a hashed offset. The walk has two
/// projections: [`PixelSource::row_into`] shades the pixels, and
/// [`PixelSource::bin_row_into`] looks each offset up in the band's table
/// of bins, `table[t] = bin(shade(base, t))`, built once per view and bins
/// per channel.
#[derive(Debug)]
pub struct SceneView<'a> {
    renderer: &'a Renderer,
    scene: &'a Scene,
    frame_seed: u64,
    /// `rects[i]` is the footprint of `scene.actors[i]`.
    rects: Vec<PixelRect>,
    scratch: RefCell<ViewScratch>,
}

/// What a [`SceneView`] reuses across the rows it is asked for.
#[derive(Debug, Default)]
struct ViewScratch {
    /// The actors spanning the row being walked, in draw order.
    actors: Vec<RowActor>,
    /// The bin tables of the last bins-per-channel read.
    tables: Option<BinTables>,
}

impl SceneView<'_> {
    /// The run walk: collects the actors spanning row `y` once (into
    /// `actors`), then walks the span `x0..x1` in runs, each owned by the
    /// topmost covering actor or by the background (`None`), calling
    /// `run(owner, start, end)` for each, left to right.
    fn walk_row(
        &self,
        actors: &mut Vec<RowActor>,
        y: u32,
        x0: u32,
        x1: u32,
        mut run: impl FnMut(Option<&RowActor>, u32, u32),
    ) {
        assert!(
            x0 <= x1 && x1 <= self.scene.width && y < self.scene.height,
            "row span out of bounds"
        );
        let yi = i64::from(y);
        actors.clear();
        for (i, (r, actor)) in self.rects.iter().zip(&self.scene.actors).enumerate() {
            let (lo, hi) = (r.x0.max(i64::from(x0)), r.x1.min(i64::from(x1)));
            if r.spans_row(yi) && lo < hi {
                // Both ends lie in `x0..=x1`, so they fit in `u32`.
                actors.push(RowActor::new(
                    i,
                    r,
                    actor,
                    self.frame_seed,
                    yi,
                    lo as u32,
                    hi as u32,
                ));
            }
        }
        let actors = actors.as_slice();
        let mut x = x0;
        while x < x1 {
            let owner = actors.iter().rposition(|a| a.covers(x));
            // The run ends where its owner does, or where an actor drawn
            // above it starts.
            let above = owner.map_or(actors, |k| &actors[k + 1..]);
            let end = above
                .iter()
                .map(|a| a.lo)
                .filter(|&lo| lo > x)
                .fold(owner.map_or(x1, |k| actors[k].hi), u32::min);
            run(owner.map(|k| &actors[k]), x, end);
            x = end;
        }
    }

    /// The number of background shades, `2·amp + 1`.
    fn noise_shades(&self) -> u64 {
        2 * u64::from(self.renderer.noise_amplitude) + 1
    }

    /// Pushes the background pixels `x0..x1` of row `y`.
    fn background_run(&self, y: u32, x0: u32, x1: u32, out: &mut Vec<Rgb>) {
        let background = self.renderer.background;
        if self.renderer.noise_amplitude == 0 {
            out.extend((x0..x1).map(|_| background));
            return;
        }
        // Background sensor noise.
        let (amp, shades) = (
            i32::from(self.renderer.noise_amplitude),
            self.noise_shades(),
        );
        out.extend((x0..x1).map(|x| {
            shade(
                background,
                noise_offset(self.frame_seed, x, y, shades) as i32 - amp,
            )
        }));
    }
}

impl PixelSource for SceneView<'_> {
    fn width(&self) -> u32 {
        self.scene.width
    }

    fn height(&self) -> u32 {
        self.scene.height
    }

    fn row_into(&self, y: u32, x0: u32, x1: u32, out: &mut Vec<Rgb>) {
        out.clear();
        let y16 = y & 0xffff;
        let actors = &mut self.scratch.borrow_mut().actors;
        self.walk_row(actors, y, x0, x1, |owner, x, end| match owner {
            Some(a) => a.run(x, end, y16, out),
            None => self.background_run(y, x, end, out),
        });
    }

    /// Per pixel: the walk's owner, one hash, an exact modulo and a table
    /// load; no pixel color is formed.
    fn bin_row_into(&self, y: u32, x0: u32, x1: u32, bins_per_channel: usize, out: &mut Vec<u32>) {
        out.clear();
        let mut scratch = self.scratch.borrow_mut();
        let ViewScratch { actors, tables } = &mut *scratch;
        let tables = match tables {
            Some(t) if t.bins_per_channel == bins_per_channel => t,
            slot => slot.insert(BinTables::new(self.renderer, self.scene, bins_per_channel)),
        };
        let y16 = y & 0xffff;
        let shades = self.noise_shades();
        self.walk_row(actors, y, x0, x1, |owner, x, end| match owner {
            Some(a) => a.bin_run(tables, x, end, y16, out),
            None => table_run(
                &tables.background,
                x,
                end,
                |x| noise_offset(self.frame_seed, x, y, shades),
                out,
            ),
        });
    }
}

/// Each band's bins at one bins-per-channel: `table[t]` is the bin of the
/// band's base color shaded by offset `t`, for every offset its hash can
/// produce.
#[derive(Debug)]
struct BinTables {
    bins_per_channel: usize,
    /// Actor `i`'s trim band at `2i`, its body band at `2i + 1`.
    bands: Vec<[u32; TEXTURE_SHADES]>,
    /// The wheel band, shared by every actor.
    wheel: [u32; TEXTURE_SHADES],
    /// The background's `2·amp + 1` noise shades.
    background: Vec<u32>,
}

impl BinTables {
    fn new(renderer: &Renderer, scene: &Scene, bins_per_channel: usize) -> Self {
        let texture = |base: Rgb| {
            std::array::from_fn(|t| {
                bin_index(shade(base, t as i32 - TEXTURE_AMPLITUDE), bins_per_channel)
            })
        };
        let amp = i32::from(renderer.noise_amplitude);
        Self {
            bins_per_channel,
            bands: scene
                .actors
                .iter()
                .flat_map(|a| [texture(a.appearance.trim), texture(a.appearance.body)])
                .collect(),
            wheel: texture(WHEEL),
            background: (-amp..=amp)
                .map(|t| bin_index(shade(renderer.background, t), bins_per_channel))
                .collect(),
        }
    }
}

/// Pushes `table[offset(x)]` for each column `x0..x1`. A table's bins do
/// not decrease with the offset (shading is monotone in every channel, and
/// so is the bin), so equal ends mean one bin throughout: the run then
/// skips the hash.
#[inline]
fn table_run(table: &[u32], x0: u32, x1: u32, offset: impl Fn(u32) -> usize, out: &mut Vec<u32>) {
    let first = table[0];
    if first == table[table.len() - 1] {
        out.extend(std::iter::repeat_n(first, (x1 - x0) as usize));
    } else {
        out.extend((x0..x1).map(|x| table[offset(x)]));
    }
}

/// An actor's integer pixel footprint `[floor x0, ceil x1) × [floor y0,
/// ceil y1)`.
#[derive(Debug, Clone, Copy)]
struct PixelRect {
    x0: i64,
    y0: i64,
    x1: i64,
    y1: i64,
}

impl PixelRect {
    fn of(b: &BoundingBox) -> Self {
        Self {
            x0: b.x0.floor() as i64,
            y0: b.y0.floor() as i64,
            x1: b.x1.ceil() as i64,
            y1: b.y1.ceil() as i64,
        }
    }

    #[inline]
    fn spans_row(&self, y: i64) -> bool {
        (self.y0..self.y1).contains(&y)
    }
}

/// One actor's share of one row span: which columns it covers and how
/// they are shaded, worked out once per row.
#[derive(Debug, Clone, Copy)]
struct RowActor {
    /// Covered columns `lo..hi`, clipped to the span.
    lo: u32,
    hi: u32,
    /// Texture-hash seed: the actor's texture seed mixed with the frame's.
    seed: u64,
    /// The row's trim or body color.
    base: Rgb,
    /// The index of that band in [`BinTables::bands`].
    band: usize,
    /// On a wheel row, the footprint's `x0` and width: columns whose
    /// fraction across the footprint lies outside `0.25..=0.75` are wheel.
    wheels: Option<(i64, i64)>,
}

impl RowActor {
    /// The row band of actor `i`, `actor` (footprint `r`), at row `y`,
    /// which `r` spans.
    fn new(
        i: usize,
        r: &PixelRect,
        actor: &SceneActor,
        frame_seed: u64,
        y: i64,
        lo: u32,
        hi: u32,
    ) -> Self {
        let appearance = &actor.appearance;
        let h = (r.y1 - r.y0).max(1);
        // Per-vehicle trim-band height: the "shape" component of the
        // signature (two same-color vehicles still differ in their
        // window/body proportion).
        let trim_frac = 0.20 + (appearance.texture_seed % 5) as f64 * 0.05;
        let fy = (y - r.y0) as f64 / h as f64;
        let (base, band, wheels) = if fy < trim_frac {
            (appearance.trim, 2 * i, None) // windows / roof band
        } else if fy > 0.85 {
            (
                appearance.body,
                2 * i + 1,
                Some((r.x0, (r.x1 - r.x0).max(1))),
            )
        } else {
            (appearance.body, 2 * i + 1, None)
        };
        Self {
            lo,
            hi,
            seed: appearance.texture_seed ^ frame_seed,
            base,
            band,
            wheels,
        }
    }

    #[inline]
    fn covers(&self, x: u32) -> bool {
        (self.lo..self.hi).contains(&x)
    }

    /// Whether column `x` of a wheel row is wheel rather than body.
    #[inline]
    fn is_wheel(x: u32, (rx0, w): (i64, i64)) -> bool {
        let fx = (i64::from(x) - rx0) as f64 / w as f64;
        !(0.25..=0.75).contains(&fx)
    }

    /// Pushes the actor's pixels `x0..x1` of the row whose low 16 bits are
    /// `y16`, shaded with the deterministic texture + illumination noise.
    fn run(&self, x0: u32, x1: u32, y16: u32, out: &mut Vec<Rgb>) {
        let texture = |x: u32| texture_offset(self.seed, x, y16) as i32 - TEXTURE_AMPLITUDE;
        match self.wheels {
            None => out.extend((x0..x1).map(|x| shade(self.base, texture(x)))),
            Some(wheels) => out.extend((x0..x1).map(|x| {
                let base = if Self::is_wheel(x, wheels) {
                    WHEEL
                } else {
                    self.base
                };
                shade(base, texture(x))
            })),
        }
    }

    /// Pushes the bins of the pixels [`RowActor::run`] would push.
    fn bin_run(&self, tables: &BinTables, x0: u32, x1: u32, y16: u32, out: &mut Vec<u32>) {
        let band = &tables.bands[self.band];
        let texture = |x: u32| texture_offset(self.seed, x, y16);
        match self.wheels {
            None => table_run(band, x0, x1, texture, out),
            Some(wheels) => out.extend((x0..x1).map(|x| {
                let table = if Self::is_wheel(x, wheels) {
                    &tables.wheel
                } else {
                    band
                };
                table[texture(x)]
            })),
        }
    }
}

/// The wheel color.
const WHEEL: Rgb = Rgb::new(15, 15, 15);

/// Actor texture shades run from `-TEXTURE_AMPLITUDE` to
/// `+TEXTURE_AMPLITUDE`.
const TEXTURE_AMPLITUDE: i32 = 6;
const TEXTURE_SHADES: usize = 2 * TEXTURE_AMPLITUDE as usize + 1;

/// The texture offset of an actor's pixel at column `x` of the row whose
/// low 16 bits are `y16`: its shade plus [`TEXTURE_AMPLITUDE`], in
/// `0..TEXTURE_SHADES`.
#[inline]
fn texture_offset(seed: u64, x: u32, y16: u32) -> usize {
    (pixel_hash(seed, x & 0xffff, y16) % TEXTURE_SHADES as u64) as usize
}

/// The sensor-noise offset of background pixel `(x, y)` among `shades`
/// shades: its shade plus the noise amplitude.
#[inline]
fn noise_offset(frame_seed: u64, x: u32, y: u32, shades: u64) -> usize {
    (pixel_hash(frame_seed, x, y) % shades) as usize
}

#[inline]
fn shade(c: Rgb, delta: i32) -> Rgb {
    Rgb::new(
        (i32::from(c.r) + delta).clamp(0, 255) as u8,
        (i32::from(c.g) + delta).clamp(0, 255) as u8,
        (i32::from(c.b) + delta).clamp(0, 255) as u8,
    )
}

#[inline]
fn pixel_hash(seed: u64, x: u32, y: u32) -> u64 {
    splitmix64(seed ^ (u64::from(x) << 32) ^ u64::from(y))
}

/// SplitMix64 — a tiny, high-quality deterministic hash/PRNG step.
#[inline]
fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn actor(gt: u64, bbox: BoundingBox) -> SceneActor {
        SceneActor {
            gt: GroundTruthId(gt),
            class: ObjectClass::Car,
            bbox,
            appearance: VehicleAppearance::from_seed(gt),
        }
    }

    #[test]
    fn appearance_is_deterministic() {
        assert_eq!(
            VehicleAppearance::from_seed(42),
            VehicleAppearance::from_seed(42)
        );
        // Different seeds usually differ (palette has 12 entries; seeds 0..6
        // should not all collide).
        let distinct: std::collections::HashSet<_> = (0..6u64)
            .map(|s| {
                let a = VehicleAppearance::from_seed(s);
                (a.body.r, a.body.g, a.body.b)
            })
            .collect();
        assert!(distinct.len() >= 3);
    }

    #[test]
    fn render_is_deterministic() {
        let mut scene = Scene::empty(64, 48);
        scene
            .actors
            .push(actor(1, BoundingBox::new(10.0, 10.0, 30.0, 25.0).unwrap()));
        let r = Renderer::default();
        assert_eq!(r.render(&scene, 7), r.render(&scene, 7));
        assert_ne!(r.render(&scene, 7), r.render(&scene, 8));
    }

    #[test]
    fn vehicle_pixels_differ_from_background() {
        let mut scene = Scene::empty(64, 48);
        let red = SceneActor {
            gt: GroundTruthId(4), // palette index 4 = red
            class: ObjectClass::Car,
            bbox: BoundingBox::new(20.0, 20.0, 40.0, 36.0).unwrap(),
            appearance: VehicleAppearance::from_seed(4),
        };
        scene.actors.push(red);
        let f = Renderer::default().render(&scene, 1);
        // Center of the body band should be close to the body color.
        let p = f.pixel(30, 30);
        let body = red.appearance.body;
        assert!((i32::from(p.r) - i32::from(body.r)).abs() <= 8);
        // Background pixel stays near background.
        let bg = f.pixel(5, 5);
        assert!((i32::from(bg.r) - 70).abs() <= 10);
    }

    #[test]
    fn later_actor_occludes_earlier() {
        let mut scene = Scene::empty(64, 48);
        scene
            .actors
            .push(actor(0, BoundingBox::new(10.0, 10.0, 40.0, 40.0).unwrap())); // white
        scene
            .actors
            .push(actor(1, BoundingBox::new(20.0, 20.0, 50.0, 45.0).unwrap())); // black
        let f = Renderer::default().render(&scene, 3);
        // The overlap region belongs to actor 1 (black body).
        let p = f.pixel(30, 38);
        assert!(p.r < 60, "expected dark occluder, got {p:?}");
    }

    #[test]
    fn partially_offscreen_actor_is_clipped_not_panicking() {
        let mut scene = Scene::empty(32, 32);
        scene.actors.push(actor(
            2,
            BoundingBox::new(-10.0, -10.0, 10.0, 10.0).unwrap(),
        ));
        scene
            .actors
            .push(actor(3, BoundingBox::new(25.0, 25.0, 50.0, 50.0).unwrap()));
        let f = Renderer::default().render(&scene, 0);
        assert_eq!(f.width(), 32);
    }

    fn fnv64(bytes: impl IntoIterator<Item = u8>) -> u64 {
        bytes.into_iter().fold(0xcbf2_9ce4_8422_2325, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
        })
    }

    /// An occluded scene whose actors run off every frame edge, plus one
    /// zero-width actor that draws nothing.
    fn pinned_scene() -> Scene {
        let boxes = [
            (-6.5, -4.2, 14.3, 11.0),
            (8.0, 6.0, 30.4, 20.0),
            (20.2, 15.7, 52.0, 44.9),
            (33.0, 2.0, 33.0, 30.0), // zero width: draws nothing
            (1.5, 25.5, 18.0, 36.0),
        ];
        let mut scene = Scene::empty(40, 32);
        for (i, &(x0, y0, x1, y1)) in boxes.iter().enumerate() {
            let b = BoundingBox::new(x0, y0, x1, y1).unwrap();
            scene.actors.push(actor(i as u64 * 7 + 3, b));
        }
        scene
    }

    /// The rendered bytes of an occluded, partly off-frame scene, with and
    /// without sensor noise, are pinned: signatures, and so every
    /// downstream fingerprint, depend on them.
    #[test]
    fn rendered_bytes_are_pinned() {
        let scene = pinned_scene();
        for (noise_amplitude, pinned) in [(0, 0xada8_927c_b963_abd4), (8, 0x78ca_fcd0_b6f0_c0f7)] {
            let r = Renderer {
                noise_amplitude,
                ..Renderer::default()
            };
            assert_eq!(
                fnv64(r.render(&scene, 0xC0FFEE).raw().iter().copied()),
                pinned
            );
        }
    }

    /// The bin bits of signatures extracted from the pinned scene — boxes
    /// that are occluded, partly and wholly off-frame — are pinned, read
    /// through the lazy view and through the rendered frame alike. A
    /// weight rewrite that is not bit-identical fails here rather than as
    /// a fingerprint moving several crates away.
    #[test]
    fn signature_bits_are_pinned() {
        use crate::histogram::{ColorHistogram, HistogramConfig, HistogramScratch};
        let scene = pinned_scene();
        let boxes = [
            BoundingBox::new(-6.5, -4.2, 14.3, 11.0).unwrap(),
            BoundingBox::new(5.0, 4.0, 31.0, 22.0).unwrap(),
            BoundingBox::new(18.5, 12.2, 52.0, 44.9).unwrap(),
            BoundingBox::new(0.0, 0.0, 40.0, 32.0).unwrap(),
            BoundingBox::new(60.0, 40.0, 70.0, 50.0).unwrap(), // off-frame
        ];
        for (noise_amplitude, bins_per_channel, pinned) in [
            (0, 8, 0x3143_0056_297c_1713_u64),
            (8, 8, 0x8ed6_2811_7fd6_6cd2),
            (8, 3, 0xf3ce_59ed_0d73_378a),
            // The widest background noise (511 shades), and 16³ bins.
            (255, 8, 0x4a9b_f0d7_cc6e_8c53),
            (8, 16, 0x92be_2071_b98b_5369),
            (255, 16, 0x4796_ba65_06e0_c712),
        ] {
            let r = Renderer {
                noise_amplitude,
                ..Renderer::default()
            };
            let config = HistogramConfig {
                bins_per_channel,
                ..HistogramConfig::default()
            };
            let frame = r.render(&scene, 0xC0FFEE);
            let view = r.view(&scene, 0xC0FFEE);
            let mut scratch = HistogramScratch::new();
            let mut signature_hash = |source: &dyn crate::frame::PixelSource| {
                let bits = boxes.iter().flat_map(|bbox| {
                    ColorHistogram::extract_into(source, bbox, &config, &mut scratch);
                    let bits: Vec<u64> = scratch.bins().iter().map(|v| v.to_bits()).collect();
                    bits
                });
                fnv64(bits.flat_map(u64::to_le_bytes))
            };
            let from_view = signature_hash(&view);
            let from_frame = signature_hash(&frame);
            assert_eq!(from_view, from_frame, "noise {noise_amplitude}");
            assert_eq!(from_view, pinned, "noise {noise_amplitude}: {from_view:#x}");
        }
    }

    #[test]
    fn class_vehicle_filter() {
        assert!(ObjectClass::Car.is_vehicle());
        assert!(ObjectClass::Bus.is_vehicle());
        assert!(ObjectClass::Truck.is_vehicle());
        assert!(!ObjectClass::Person.is_vehicle());
        assert!(!ObjectClass::Bicycle.is_vehicle());
    }
}
