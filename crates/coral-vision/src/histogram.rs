//! Adaptive center-weighted color histograms and the Bhattacharyya
//! distance between them.
//!
//! The paper extracts "an adaptive histogram (i.e., signature) for the
//! vehicle, which represents the color and shape of the vehicle giving more
//! weightage for the pixels in the center of the bounding boxes" (§4.1.2,
//! following Tang et al.), and matches signatures across cameras with the
//! Bhattacharyya distance (§4.1.4).

use crate::bbox::BoundingBox;
use crate::frame::{PixelSource, Rgb};
use serde::{Deserialize, Serialize};

/// Histogram extraction configuration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct HistogramConfig {
    /// Bins per RGB channel; the histogram has `bins³` cells.
    pub bins_per_channel: usize,
    /// Width of the center-weighting Gaussian as a fraction of the box
    /// half-extent; smaller values concentrate the signature on the body
    /// of the vehicle.
    pub center_sigma_frac: f64,
}

impl Default for HistogramConfig {
    fn default() -> Self {
        Self {
            bins_per_channel: 8,
            center_sigma_frac: 0.5,
        }
    }
}

/// A reusable extraction arena: one flat bin buffer recycled across every
/// histogram a camera extracts, plus effectiveness counters. The per-frame
/// hot path ([`ColorHistogram::extract_into`]) touches no allocator as long
/// as consecutive extractions share a cell count — the common case, since a
/// camera's [`HistogramConfig`] is fixed for its lifetime — and once its
/// column and row buffers have grown to the widest box extracted.
#[derive(Debug, Clone, Default)]
pub struct HistogramScratch {
    bins: Vec<f64>,
    /// `dx²` of each column of the box being extracted.
    dx2: Vec<f64>,
    /// The row span of pixels being binned.
    row: Vec<Rgb>,
    reuses: u64,
    allocs: u64,
}

impl HistogramScratch {
    /// Creates an empty arena.
    pub fn new() -> Self {
        Self::default()
    }

    /// The bins written by the last [`ColorHistogram::extract_into`].
    pub fn bins(&self) -> &[f64] {
        &self.bins
    }

    /// `(reuse hits, allocations)` — how often the buffer was recycled
    /// versus (re)sized. The ratio is the arena's hit-rate.
    pub fn stats(&self) -> (u64, u64) {
        (self.reuses, self.allocs)
    }

    /// Zero-fills the buffer at `cells` length, recycling the existing
    /// allocation when the length already matches.
    fn reset(&mut self, cells: usize) {
        if self.bins.len() == cells {
            self.reuses += 1;
            self.bins.iter_mut().for_each(|v| *v = 0.0);
        } else {
            self.allocs += 1;
            self.bins.clear();
            self.bins.resize(cells, 0.0);
        }
    }
}

/// Flat Bhattacharyya-sum kernel: `Σ sqrt(p[i]·q[i])` accumulated strictly
/// in index order — bit-identical to the naive zip/fold — but walked in
/// fixed-width chunks over pre-trimmed equal-length slices, so the inner
/// loop carries no per-element bounds checks.
pub fn bhattacharyya_sum_flat(p: &[f64], q: &[f64]) -> f64 {
    const LANES: usize = 8;
    let n = p.len().min(q.len());
    let (p, q) = (&p[..n], &q[..n]);
    let mut acc = 0.0f64;
    let mut cp = p.chunks_exact(LANES);
    let mut cq = q.chunks_exact(LANES);
    for (a, b) in cp.by_ref().zip(cq.by_ref()) {
        let a: &[f64; LANES] = a.try_into().expect("chunk width");
        let b: &[f64; LANES] = b.try_into().expect("chunk width");
        for i in 0..LANES {
            acc += (a[i] * b[i]).sqrt();
        }
    }
    for (a, b) in cp.remainder().iter().zip(cq.remainder()) {
        acc += (a * b).sqrt();
    }
    acc
}

/// Reference Bhattacharyya sum (the pre-flattening iterator chain). Kept
/// as the oracle the property tests pin [`bhattacharyya_sum_flat`]
/// against.
#[doc(hidden)]
pub fn bhattacharyya_sum_naive(p: &[f64], q: &[f64]) -> f64 {
    p.iter().zip(q).map(|(a, b)| (a * b).sqrt()).sum()
}

/// A normalised color histogram (probability distribution over RGB bins).
///
/// Decoding goes through [`ColorHistogram::from_bins`], so a malformed
/// signature is rejected at the parser instead of panicking in a compare.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(try_from = "HistogramWire")]
pub struct ColorHistogram {
    bins_per_channel: usize,
    bins: Vec<f64>,
}

/// The unchecked serialized shape of a [`ColorHistogram`].
#[derive(Deserialize)]
struct HistogramWire {
    bins_per_channel: usize,
    bins: Vec<f64>,
}

impl TryFrom<HistogramWire> for ColorHistogram {
    type Error = HistogramError;

    fn try_from(w: HistogramWire) -> Result<Self, HistogramError> {
        Self::from_bins(w.bins_per_channel, w.bins)
    }
}

/// Why raw bins do not form a [`ColorHistogram`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HistogramError {
    /// Bins per channel is zero, or its cube overflows `usize`.
    BinsPerChannel(usize),
    /// The bin count is not bins-per-channel cubed.
    BinCount {
        /// `bins_per_channel³`.
        expected: usize,
        /// Entries supplied.
        actual: usize,
    },
    /// The bin at this index is NaN, infinite or negative.
    Bin(usize),
}

impl std::fmt::Display for HistogramError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::BinsPerChannel(b) => write!(f, "invalid bins-per-channel {b}"),
            Self::BinCount { expected, actual } => write!(
                f,
                "signature has {actual} bins, bins-per-channel needs {expected}"
            ),
            Self::Bin(i) => write!(f, "signature bin {i} is not a finite non-negative value"),
        }
    }
}

impl std::error::Error for HistogramError {}

impl ColorHistogram {
    /// Extracts the center-weighted histogram of `bbox` within `frame`.
    /// Pixels outside the frame are ignored; an empty region yields the
    /// uniform histogram.
    pub fn extract<P: PixelSource + ?Sized>(
        frame: &P,
        bbox: &BoundingBox,
        config: &HistogramConfig,
    ) -> Self {
        let mut scratch = HistogramScratch::new();
        Self::extract_into(frame, bbox, config, &mut scratch);
        Self {
            bins_per_channel: config.bins_per_channel.max(1),
            bins: std::mem::take(&mut scratch.bins),
        }
    }

    /// Allocation-free extraction: identical numerics to
    /// [`ColorHistogram::extract`], written into the arena's recycled
    /// buffer instead of a fresh `Vec`. Read the result from
    /// [`HistogramScratch::bins`]. Only the row spans inside `bbox` are
    /// read, so a lazy [`SceneView`](crate::render::SceneView) renders just
    /// those.
    ///
    /// Each pixel's weight is `exp(-(dx² + dy²) / 2)`, with `dx²` computed
    /// once per column and `dy²` once per row; pixels are binned in
    /// row-major order. Both keep every bin bit-identical to evaluating
    /// the weight in full at each pixel.
    pub fn extract_into<P: PixelSource + ?Sized>(
        frame: &P,
        bbox: &BoundingBox,
        config: &HistogramConfig,
        scratch: &mut HistogramScratch,
    ) {
        let b = config.bins_per_channel.max(1);
        scratch.reset(b * b * b);
        let clamped = bbox.clamp_to(frame.width(), frame.height());
        let (x0, y0) = (clamped.x0.floor() as u32, clamped.y0.floor() as u32);
        let (x1, y1) = (
            (clamped.x1.ceil() as u32).min(frame.width()),
            (clamped.y1.ceil() as u32).min(frame.height()),
        );
        let c = bbox.centroid();
        let sx = (bbox.width() / 2.0 * config.center_sigma_frac).max(1.0);
        let sy = (bbox.height() / 2.0 * config.center_sigma_frac).max(1.0);
        // An inverted box (its fields are public) covers no columns.
        let x1 = x1.max(x0);
        scratch.dx2.clear();
        scratch.dx2.extend((x0..x1).map(|x| {
            let dx = (f64::from(x) + 0.5 - c.x) / sx;
            dx * dx
        }));
        let HistogramScratch { bins, dx2, row, .. } = scratch;
        let mut total = 0.0;
        for y in y0..y1 {
            let dy = (f64::from(y) + 0.5 - c.y) / sy;
            let dy2 = dy * dy;
            frame.row_into(y, x0, x1, row);
            for (px, &dx2) in row.iter().zip(dx2.iter()) {
                let w = (-(dx2 + dy2) / 2.0).exp();
                bins[bin_index(px.r, px.g, px.b, b)] += w;
                total += w;
            }
        }
        if total <= 0.0 {
            let uniform = 1.0 / bins.len() as f64;
            bins.iter_mut().for_each(|v| *v = uniform);
        } else {
            bins.iter_mut().for_each(|v| *v /= total);
        }
    }

    /// The uniform histogram (used as a neutral prior).
    pub fn uniform(bins_per_channel: usize) -> Self {
        let b = bins_per_channel.max(1);
        let n = b * b * b;
        Self {
            bins_per_channel: b,
            bins: vec![1.0 / n as f64; n],
        }
    }

    /// Reassembles a histogram from raw bin values: the snapshot restore
    /// path, and (through `Deserialize`) every signature decoded off the
    /// wire. `bins_per_channel` must be at least 1, `bins` must hold
    /// exactly `bins_per_channel³` entries, and every bin must be finite
    /// and non-negative, so hostile or truncated bytes cannot produce a
    /// histogram that panics or poisons a Bhattacharyya compare later.
    ///
    /// # Errors
    ///
    /// Returns the first violated constraint.
    pub fn from_bins(bins_per_channel: usize, bins: Vec<f64>) -> Result<Self, HistogramError> {
        let cells = Some(bins_per_channel)
            .filter(|&b| b >= 1)
            .and_then(|b| b.checked_mul(b)?.checked_mul(b))
            .ok_or(HistogramError::BinsPerChannel(bins_per_channel))?;
        if bins.len() != cells {
            return Err(HistogramError::BinCount {
                expected: cells,
                actual: bins.len(),
            });
        }
        if let Some(index) = bins.iter().position(|v| !(v.is_finite() && *v >= 0.0)) {
            return Err(HistogramError::Bin(index));
        }
        Ok(Self {
            bins_per_channel,
            bins,
        })
    }

    /// Bins per channel.
    pub fn bins_per_channel(&self) -> usize {
        self.bins_per_channel
    }

    /// The normalised bin values.
    pub fn bins(&self) -> &[f64] {
        &self.bins
    }

    /// Bhattacharyya coefficient with `other`, in `[0, 1]` (1 = identical).
    ///
    /// # Panics
    ///
    /// Panics if the histograms have different bin counts.
    pub fn bhattacharyya_coefficient(&self, other: &ColorHistogram) -> f64 {
        assert_eq!(
            self.bins.len(),
            other.bins.len(),
            "histogram bin counts differ"
        );
        bhattacharyya_sum_flat(&self.bins, &other.bins).min(1.0)
    }

    /// Bhattacharyya distance `sqrt(1 - BC)`, in `[0, 1]` (0 = identical) —
    /// the re-identification metric of §4.1.4.
    ///
    /// # Panics
    ///
    /// Panics if the histograms have different bin counts.
    pub fn bhattacharyya_distance(&self, other: &ColorHistogram) -> f64 {
        (1.0 - self.bhattacharyya_coefficient(other))
            .max(0.0)
            .sqrt()
    }
}

/// Running mean of histograms across a vehicle's tracklet, producing the
/// final per-vehicle signature.
#[derive(Debug, Clone, PartialEq)]
pub struct SignatureAccumulator {
    sum: Option<Vec<f64>>,
    count: usize,
    bins_per_channel: usize,
}

impl SignatureAccumulator {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        Self {
            sum: None,
            count: 0,
            bins_per_channel: 0,
        }
    }

    /// Adds one frame's histogram.
    ///
    /// # Panics
    ///
    /// Panics if bin counts differ from previously added histograms.
    pub fn add(&mut self, h: &ColorHistogram) {
        self.add_bins(&h.bins, h.bins_per_channel);
    }

    /// Adds one frame's histogram from raw normalised bins — the
    /// allocation-free twin of [`SignatureAccumulator::add`], fed straight
    /// from a [`HistogramScratch`] buffer. Identical numerics: the running
    /// sum accumulates element-wise in index order either way.
    ///
    /// # Panics
    ///
    /// Panics if bin counts differ from previously added histograms.
    pub fn add_bins(&mut self, bins: &[f64], bins_per_channel: usize) {
        match &mut self.sum {
            None => {
                self.sum = Some(bins.to_vec());
                self.bins_per_channel = bins_per_channel;
            }
            Some(sum) => {
                assert_eq!(sum.len(), bins.len(), "histogram bin counts differ");
                for (s, v) in sum.iter_mut().zip(bins) {
                    *s += v;
                }
            }
        }
        self.count += 1;
    }

    /// Number of accumulated histograms.
    pub fn count(&self) -> usize {
        self.count
    }

    /// The mean signature, or `None` if nothing was accumulated.
    pub fn signature(&self) -> Option<ColorHistogram> {
        let sum = self.sum.as_ref()?;
        let total: f64 = sum.iter().sum();
        let bins = if total > 0.0 {
            sum.iter().map(|v| v / total).collect()
        } else {
            vec![1.0 / sum.len() as f64; sum.len()]
        };
        Some(ColorHistogram {
            bins_per_channel: self.bins_per_channel,
            bins,
        })
    }
}

impl Default for SignatureAccumulator {
    fn default() -> Self {
        Self::new()
    }
}

#[inline]
fn bin_index(r: u8, g: u8, b: u8, bins: usize) -> usize {
    let scale = |v: u8| (usize::from(v) * bins) / 256;
    (scale(r) * bins + scale(g)) * bins + scale(b)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::{Frame, Rgb};
    use crate::render::{
        GroundTruthId, ObjectClass, Renderer, Scene, SceneActor, VehicleAppearance,
    };

    fn render_vehicle(seed: u64, frame_seed: u64) -> (Frame, BoundingBox) {
        let bbox = BoundingBox::new(20.0, 20.0, 70.0, 52.0).unwrap();
        let scene = Scene {
            width: 96,
            height: 80,
            actors: vec![SceneActor {
                gt: GroundTruthId(seed),
                class: ObjectClass::Car,
                bbox,
                appearance: VehicleAppearance::from_seed(seed),
            }],
        };
        (Renderer::default().render(&scene, frame_seed), bbox)
    }

    #[test]
    fn histogram_is_normalised() {
        let (frame, bbox) = render_vehicle(4, 1);
        let h = ColorHistogram::extract(&frame, &bbox, &HistogramConfig::default());
        let sum: f64 = h.bins().iter().sum();
        assert!((sum - 1.0).abs() < 1e-9);
        assert!(h.bins().iter().all(|&v| v >= 0.0));
    }

    #[test]
    fn identical_region_distance_zero() {
        let (frame, bbox) = render_vehicle(4, 1);
        let h = ColorHistogram::extract(&frame, &bbox, &HistogramConfig::default());
        assert!(h.bhattacharyya_distance(&h) < 1e-6);
        assert!((h.bhattacharyya_coefficient(&h) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn same_vehicle_different_noise_is_close() {
        let (fa, bbox) = render_vehicle(4, 1);
        let (fb, _) = render_vehicle(4, 99);
        let cfg = HistogramConfig::default();
        let ha = ColorHistogram::extract(&fa, &bbox, &cfg);
        let hb = ColorHistogram::extract(&fb, &bbox, &cfg);
        assert!(
            ha.bhattacharyya_distance(&hb) < 0.25,
            "dist = {}",
            ha.bhattacharyya_distance(&hb)
        );
    }

    #[test]
    fn different_color_vehicles_are_far() {
        let (fa, bbox) = render_vehicle(4, 1); // red
        let (fb, _) = render_vehicle(5, 1); // blue
        let cfg = HistogramConfig::default();
        let ha = ColorHistogram::extract(&fa, &bbox, &cfg);
        let hb = ColorHistogram::extract(&fb, &bbox, &cfg);
        let same = ColorHistogram::extract(&fa, &bbox, &cfg);
        assert!(
            ha.bhattacharyya_distance(&hb) > 2.0 * ha.bhattacharyya_distance(&same) + 0.1,
            "different colors must be farther apart: diff {} same {}",
            ha.bhattacharyya_distance(&hb),
            ha.bhattacharyya_distance(&same)
        );
    }

    #[test]
    fn distance_is_symmetric_and_bounded() {
        let (fa, bbox) = render_vehicle(1, 1);
        let (fb, _) = render_vehicle(7, 2);
        let cfg = HistogramConfig::default();
        let ha = ColorHistogram::extract(&fa, &bbox, &cfg);
        let hb = ColorHistogram::extract(&fb, &bbox, &cfg);
        let d1 = ha.bhattacharyya_distance(&hb);
        let d2 = hb.bhattacharyya_distance(&ha);
        assert!((d1 - d2).abs() < 1e-12);
        assert!((0.0..=1.0).contains(&d1));
    }

    #[test]
    fn empty_region_is_uniform() {
        let frame = Frame::filled(16, 16, Rgb::new(100, 100, 100));
        // Box entirely outside the frame.
        let bbox = BoundingBox::new(100.0, 100.0, 120.0, 120.0).unwrap();
        let h = ColorHistogram::extract(&frame, &bbox, &HistogramConfig::default());
        let u = ColorHistogram::uniform(8);
        assert!(h.bhattacharyya_distance(&u) < 1e-9);
    }

    #[test]
    fn inverted_box_is_uniform() {
        // The fields are public, so a caller can build x0 > x1.
        let frame = Frame::filled(16, 16, Rgb::new(100, 100, 100));
        let mut bbox = BoundingBox::new(2.0, 2.0, 10.0, 10.0).unwrap();
        bbox.x0 = 12.0;
        let h = ColorHistogram::extract(&frame, &bbox, &HistogramConfig::default());
        assert!(h.bhattacharyya_distance(&ColorHistogram::uniform(8)) < 1e-9);
    }

    #[test]
    fn center_weighting_emphasises_center() {
        // Frame whose central region is red and border is blue: with strong
        // center weighting, the red bins dominate.
        let data = (0..32 * 32)
            .flat_map(|i| {
                let (x, y) = (i % 32, i / 32);
                if (12..20).contains(&x) && (12..20).contains(&y) {
                    [255, 0, 0]
                } else {
                    [0, 0, 255]
                }
            })
            .collect();
        let frame = Frame::from_raw(32, 32, data).unwrap();
        let bbox = BoundingBox::new(0.0, 0.0, 32.0, 32.0).unwrap();
        let tight = HistogramConfig {
            bins_per_channel: 4,
            center_sigma_frac: 0.2,
        };
        let loose = HistogramConfig {
            bins_per_channel: 4,
            center_sigma_frac: 5.0,
        };
        let ht = ColorHistogram::extract(&frame, &bbox, &tight);
        let hl = ColorHistogram::extract(&frame, &bbox, &loose);
        let red_bin = bin_index(255, 0, 0, 4);
        assert!(
            ht.bins()[red_bin] > 0.5,
            "tight sigma should be dominated by center: {}",
            ht.bins()[red_bin]
        );
        // Without center weighting, red covers only 64 of 1024 pixels.
        assert!(hl.bins()[red_bin] < 0.2);
        assert!(hl.bins()[red_bin] < ht.bins()[red_bin]);
    }

    #[test]
    fn accumulator_mean_signature() {
        let (fa, bbox) = render_vehicle(4, 1);
        let (fb, _) = render_vehicle(4, 2);
        let cfg = HistogramConfig::default();
        let ha = ColorHistogram::extract(&fa, &bbox, &cfg);
        let hb = ColorHistogram::extract(&fb, &bbox, &cfg);
        let mut acc = SignatureAccumulator::new();
        assert!(acc.signature().is_none());
        acc.add(&ha);
        acc.add(&hb);
        assert_eq!(acc.count(), 2);
        let sig = acc.signature().unwrap();
        let sum: f64 = sig.bins().iter().sum();
        assert!((sum - 1.0).abs() < 1e-9);
        // Mean signature is close to both constituents.
        assert!(sig.bhattacharyya_distance(&ha) < 0.2);
        assert!(sig.bhattacharyya_distance(&hb) < 0.2);
    }

    #[test]
    fn from_bins_rejects_malformed_signatures() {
        assert!(ColorHistogram::from_bins(2, vec![0.125; 8]).is_ok());
        assert_eq!(
            ColorHistogram::from_bins(0, vec![1.0]),
            Err(HistogramError::BinsPerChannel(0))
        );
        assert_eq!(
            ColorHistogram::from_bins(usize::MAX, vec![1.0]),
            Err(HistogramError::BinsPerChannel(usize::MAX))
        );
        assert_eq!(
            ColorHistogram::from_bins(8, vec![1.0]),
            Err(HistogramError::BinCount {
                expected: 512,
                actual: 1
            })
        );
        let mut bins = vec![0.125; 8];
        for bad in [f64::NAN, f64::INFINITY, -3.0] {
            bins[5] = bad;
            assert_eq!(
                ColorHistogram::from_bins(2, bins.clone()),
                Err(HistogramError::Bin(5))
            );
        }
    }

    #[test]
    fn decode_validates_and_encoding_is_unchanged() {
        let h = ColorHistogram::uniform(2);
        let json = serde_json::to_string(&h).unwrap();
        assert_eq!(serde_json::from_str::<ColorHistogram>(&json).unwrap(), h);
        let bad = json.replacen("0.125", "-0.125", 1);
        assert!(serde_json::from_str::<ColorHistogram>(&bad).is_err());
    }

    #[test]
    #[should_panic(expected = "bin counts differ")]
    fn mismatched_bins_panic() {
        let a = ColorHistogram::uniform(4);
        let b = ColorHistogram::uniform(8);
        a.bhattacharyya_distance(&b);
    }
}
