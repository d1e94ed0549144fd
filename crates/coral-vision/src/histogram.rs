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
    /// Every non-zero bin of `bins`, in first-touch order: a box reaches
    /// a few bins of `bins³`, so clearing, normalising and accumulating
    /// visit only these.
    touched: Vec<usize>,
    /// `dx²` of each column of the box being extracted.
    dx2: Vec<f64>,
    /// The bins of the row span being extracted.
    row: Vec<u32>,
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
    /// allocation when the length already matches (then only the touched
    /// bins need clearing).
    fn reset(&mut self, cells: usize) {
        if self.bins.len() == cells {
            self.reuses += 1;
            for &i in &self.touched {
                self.bins[i] = 0.0;
            }
        } else {
            self.allocs += 1;
            self.bins.clear();
            self.bins.resize(cells, 0.0);
        }
        self.touched.clear();
    }
}

/// Sparse Bhattacharyya-sum kernel: a merge-join of two ascending
/// `(bin index, value)` lists adding `sqrt(p·q)` over the shared indices in
/// ascending order. A bin missing from either side would add exactly
/// `+0.0` to a dense sum, so this is bit-identical to the dense
/// index-order sum over all `bins³` cells.
fn bhattacharyya_sum(p: &[(usize, f64)], q: &[(usize, f64)]) -> f64 {
    let (mut i, mut j) = (0, 0);
    let mut acc = 0.0f64;
    while let (Some(&(a, x)), Some(&(b, y))) = (p.get(i), q.get(j)) {
        if a == b {
            acc += (x * y).sqrt();
        }
        i += usize::from(a <= b);
        j += usize::from(b <= a);
    }
    acc
}

/// A normalised color histogram (probability distribution over RGB bins),
/// held sparse: its non-zero bins only, as `(bin index, value)` pairs in
/// strictly ascending index order. A signature read off a vehicle has a
/// few non-zero bins out of `bins³`, so this is also its wire and
/// snapshot form.
///
/// Decoding goes through [`ColorHistogram::from_sparse`], so a malformed
/// signature is rejected at the parser instead of misbehaving in a
/// compare. The form is canonical (no stored zeros), so equal histograms
/// compare equal.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(try_from = "HistogramWire")]
pub struct ColorHistogram {
    bins_per_channel: usize,
    bins: Vec<(usize, f64)>,
}

/// The unchecked serialized shape of a [`ColorHistogram`].
#[derive(Deserialize)]
struct HistogramWire {
    bins_per_channel: usize,
    bins: Vec<(usize, f64)>,
}

impl TryFrom<HistogramWire> for ColorHistogram {
    type Error = HistogramError;

    fn try_from(w: HistogramWire) -> Result<Self, HistogramError> {
        Self::from_sparse(w.bins_per_channel, w.bins)
    }
}

/// Why raw bins do not form a [`ColorHistogram`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HistogramError {
    /// Bins per channel is zero, or its cube overflows `usize`.
    BinsPerChannel(usize),
    /// The dense bin count is not bins-per-channel cubed.
    BinCount {
        /// `bins_per_channel³`.
        expected: usize,
        /// Entries supplied.
        actual: usize,
    },
    /// No bin is non-zero.
    Empty,
    /// The bin index does not follow the previous entry's in strictly
    /// ascending order (unsorted or duplicated).
    Order(usize),
    /// The bin index is not below `bins_per_channel³`.
    OutOfRange {
        /// The offending bin index.
        index: usize,
        /// `bins_per_channel³`.
        cells: usize,
    },
    /// The value of the bin at this index is NaN, infinite or negative, or
    /// a zero stored in the sparse form.
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
            Self::Empty => write!(f, "signature has no non-zero bin"),
            Self::Order(i) => write!(f, "signature bin {i} is out of order or repeated"),
            Self::OutOfRange { index, cells } => {
                write!(f, "signature bin {index} is not below {cells}")
            }
            Self::Bin(i) => write!(f, "signature bin {i} is not a finite positive value"),
        }
    }
}

impl std::error::Error for HistogramError {}

/// `bins_per_channel³`, or the error naming a zero or overflowing
/// bins-per-channel.
fn cell_count(bins_per_channel: usize) -> Result<usize, HistogramError> {
    Some(bins_per_channel)
        .filter(|&b| b >= 1)
        .and_then(|b| b.checked_mul(b)?.checked_mul(b))
        .ok_or(HistogramError::BinsPerChannel(bins_per_channel))
}

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
        Self::from_normalised(config.bins_per_channel.max(1), scratch.bins())
    }

    /// Allocation-free extraction: identical numerics to
    /// [`ColorHistogram::extract`], written densely into the arena's
    /// recycled buffer instead of a fresh histogram. Read the result from
    /// [`HistogramScratch::bins`]. Only the bins of the row spans inside
    /// `bbox` are read ([`PixelSource::bin_row_into`]), so a lazy
    /// [`SceneView`](crate::render::SceneView) computes just those, without
    /// forming their pixels.
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
        let HistogramScratch {
            bins,
            touched,
            dx2,
            row,
            ..
        } = scratch;
        let mut total = 0.0;
        for y in y0..y1 {
            let dy = (f64::from(y) + 0.5 - c.y) / sy;
            let dy2 = dy * dy;
            frame.bin_row_into(y, x0, x1, b, row);
            for (&bin, &dx2) in row.iter().zip(dx2.iter()) {
                let w = (-(dx2 + dy2) / 2.0).exp();
                let slot = &mut bins[bin as usize];
                if *slot == 0.0 && w > 0.0 {
                    touched.push(bin as usize);
                }
                *slot += w;
                total += w;
            }
        }
        // An untouched bin is +0.0, which dividing leaves as it is.
        if total <= 0.0 {
            let uniform = 1.0 / bins.len() as f64;
            bins.iter_mut().for_each(|v| *v = uniform);
            touched.clear();
            touched.extend(0..bins.len());
        } else {
            for &i in touched.iter() {
                bins[i] /= total;
            }
        }
    }

    /// The uniform histogram (used as a neutral prior): every bin non-zero.
    pub fn uniform(bins_per_channel: usize) -> Self {
        let b = bins_per_channel.max(1);
        let n = b * b * b;
        let v = 1.0 / n as f64;
        Self {
            bins_per_channel: b,
            bins: (0..n).map(|i| (i, v)).collect(),
        }
    }

    /// The sparse form of normalised dense bins that are known valid
    /// (finite, non-negative, at least one non-zero).
    fn from_normalised(bins_per_channel: usize, dense: &[f64]) -> Self {
        let bins: Vec<(usize, f64)> = dense
            .iter()
            .enumerate()
            .filter(|&(_, &v)| v > 0.0)
            .map(|(i, &v)| (i, v))
            .collect();
        debug_assert!(!bins.is_empty(), "a normalised histogram has mass");
        Self {
            bins_per_channel,
            bins,
        }
    }

    /// Builds a histogram from all `bins_per_channel³` dense bin values,
    /// keeping the non-zero ones. Every value must be finite and
    /// non-negative, and at least one positive.
    ///
    /// # Errors
    ///
    /// Returns the first violated constraint.
    pub fn from_bins(bins_per_channel: usize, bins: Vec<f64>) -> Result<Self, HistogramError> {
        let cells = cell_count(bins_per_channel)?;
        if bins.len() != cells {
            return Err(HistogramError::BinCount {
                expected: cells,
                actual: bins.len(),
            });
        }
        if let Some(index) = bins.iter().position(|v| !(v.is_finite() && *v >= 0.0)) {
            return Err(HistogramError::Bin(index));
        }
        if bins.iter().all(|&v| v == 0.0) {
            return Err(HistogramError::Empty);
        }
        Ok(Self::from_normalised(bins_per_channel, &bins))
    }

    /// Reassembles a histogram from its sparse `(bin index, value)` pairs:
    /// the snapshot restore path, and (through `Deserialize`) every
    /// signature decoded off the wire. `bins_per_channel` must be at least
    /// 1 with a cube that fits `usize`; the list must be non-empty, its
    /// indices strictly ascending and below `bins_per_channel³`, and every
    /// value finite and strictly positive. So hostile or truncated bytes
    /// cannot produce a histogram that misbehaves in a Bhattacharyya
    /// compare later, and a stored zero cannot make two equal histograms
    /// compare unequal.
    ///
    /// # Errors
    ///
    /// Returns the first violated constraint.
    pub fn from_sparse(
        bins_per_channel: usize,
        bins: Vec<(usize, f64)>,
    ) -> Result<Self, HistogramError> {
        let cells = cell_count(bins_per_channel)?;
        if bins.is_empty() {
            return Err(HistogramError::Empty);
        }
        let mut prev = None;
        for &(index, value) in &bins {
            if prev.is_some_and(|p| index <= p) {
                return Err(HistogramError::Order(index));
            }
            if index >= cells {
                return Err(HistogramError::OutOfRange { index, cells });
            }
            if !(value.is_finite() && value > 0.0) {
                return Err(HistogramError::Bin(index));
            }
            prev = Some(index);
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

    /// The non-zero bins as `(bin index, value)` pairs, in strictly
    /// ascending index order.
    pub fn bins(&self) -> &[(usize, f64)] {
        &self.bins
    }

    /// Bhattacharyya coefficient with `other`, in `[0, 1]` (1 =
    /// identical), or `None` when the two are not comparable (different
    /// bins per channel, e.g. from a peer configured otherwise).
    pub fn bhattacharyya_coefficient(&self, other: &ColorHistogram) -> Option<f64> {
        (self.bins_per_channel == other.bins_per_channel)
            .then(|| bhattacharyya_sum(&self.bins, &other.bins).min(1.0))
    }

    /// Bhattacharyya distance `sqrt(1 - BC)`, in `[0, 1]` (0 = identical) —
    /// the re-identification metric of §4.1.4 — or `None` when the two are
    /// not comparable (different bins per channel).
    pub fn bhattacharyya_distance(&self, other: &ColorHistogram) -> Option<f64> {
        self.bhattacharyya_coefficient(other)
            .map(|bc| (1.0 - bc).max(0.0).sqrt())
    }
}

/// Running mean of histograms across a vehicle's tracklet, producing the
/// final per-vehicle signature. The running sum stays dense (one buffer per
/// live track); the signature it emits is sparse.
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

    /// Counts one more histogram and returns the running sum, zero-filled
    /// at `cells` on the first add.
    ///
    /// # Panics
    ///
    /// Panics if `cells` differs from previously added histograms.
    fn sum_for(&mut self, cells: usize, bins_per_channel: usize) -> &mut Vec<f64> {
        self.count += 1;
        let sum = self.sum.get_or_insert_with(|| vec![0.0; cells]);
        assert_eq!(sum.len(), cells, "histogram bin counts differ");
        self.bins_per_channel = bins_per_channel;
        sum
    }

    /// Adds one frame's histogram. Identical numerics to
    /// [`SignatureAccumulator::add_bins`] with its dense bins: adding a
    /// zero bin leaves a sum unchanged.
    ///
    /// # Panics
    ///
    /// Panics if bin counts differ from previously added histograms.
    pub fn add(&mut self, h: &ColorHistogram) {
        let b = h.bins_per_channel;
        let sum = self.sum_for(b * b * b, b);
        for &(i, v) in &h.bins {
            sum[i] += v;
        }
    }

    /// Adds one frame's histogram from raw normalised dense bins — the
    /// allocation-free twin of [`SignatureAccumulator::add`], fed straight
    /// from a [`HistogramScratch`] buffer. The running sum accumulates
    /// element-wise in index order.
    ///
    /// # Panics
    ///
    /// Panics if bin counts differ from previously added histograms.
    pub fn add_bins(&mut self, bins: &[f64], bins_per_channel: usize) {
        let sum = self.sum_for(bins.len(), bins_per_channel);
        for (s, v) in sum.iter_mut().zip(bins) {
            *s += v;
        }
    }

    /// Adds the histogram a [`HistogramScratch`] holds — identical
    /// numerics to [`SignatureAccumulator::add_bins`] with its dense bins,
    /// visiting only the bins the extraction touched: adding an untouched
    /// (+0.0) bin leaves a sum unchanged.
    ///
    /// # Panics
    ///
    /// Panics if bin counts differ from previously added histograms.
    pub fn add_scratch(&mut self, scratch: &HistogramScratch, bins_per_channel: usize) {
        let sum = self.sum_for(scratch.bins.len(), bins_per_channel);
        for &i in &scratch.touched {
            sum[i] += scratch.bins[i];
        }
    }

    /// Number of accumulated histograms.
    pub fn count(&self) -> usize {
        self.count
    }

    /// The mean signature, or `None` if nothing was accumulated.
    pub fn signature(&self) -> Option<ColorHistogram> {
        let sum = self.sum.as_ref()?;
        let total: f64 = sum.iter().sum();
        Some(if total > 0.0 {
            ColorHistogram {
                bins_per_channel: self.bins_per_channel,
                bins: sum
                    .iter()
                    .enumerate()
                    .map(|(i, v)| (i, v / total))
                    .filter(|&(_, v)| v > 0.0)
                    .collect(),
            }
        } else {
            ColorHistogram::uniform(self.bins_per_channel)
        })
    }
}

impl Default for SignatureAccumulator {
    fn default() -> Self {
        Self::new()
    }
}

/// The histogram bin of `px` at `bins` bins per channel.
///
/// # Panics
///
/// Panics if the index does not fit in `u32`.
#[inline]
pub(crate) fn bin_index(px: Rgb, bins: usize) -> u32 {
    let scale = |v: u8| (usize::from(v) * bins) / 256;
    let index = (scale(px.r) * bins + scale(px.g)) * bins + scale(px.b);
    u32::try_from(index).expect("bin index fits in u32")
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
        let sum: f64 = h.bins().iter().map(|&(_, v)| v).sum();
        assert!((sum - 1.0).abs() < 1e-9);
        assert!(h.bins().iter().all(|&(_, v)| v > 0.0));
        assert!(h.bins().windows(2).all(|w| w[0].0 < w[1].0));
        assert!(h.bins().len() < 512, "a vehicle signature is sparse");
    }

    #[test]
    fn identical_region_distance_zero() {
        let (frame, bbox) = render_vehicle(4, 1);
        let h = ColorHistogram::extract(&frame, &bbox, &HistogramConfig::default());
        assert!(h.bhattacharyya_distance(&h).unwrap() < 1e-6);
        assert!((h.bhattacharyya_coefficient(&h).unwrap() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn same_vehicle_different_noise_is_close() {
        let (fa, bbox) = render_vehicle(4, 1);
        let (fb, _) = render_vehicle(4, 99);
        let cfg = HistogramConfig::default();
        let ha = ColorHistogram::extract(&fa, &bbox, &cfg);
        let hb = ColorHistogram::extract(&fb, &bbox, &cfg);
        let d = ha.bhattacharyya_distance(&hb).unwrap();
        assert!(d < 0.25, "dist = {d}");
    }

    #[test]
    fn different_color_vehicles_are_far() {
        let (fa, bbox) = render_vehicle(4, 1); // red
        let (fb, _) = render_vehicle(5, 1); // blue
        let cfg = HistogramConfig::default();
        let ha = ColorHistogram::extract(&fa, &bbox, &cfg);
        let hb = ColorHistogram::extract(&fb, &bbox, &cfg);
        let same = ColorHistogram::extract(&fa, &bbox, &cfg);
        let diff = ha.bhattacharyya_distance(&hb).unwrap();
        let same = ha.bhattacharyya_distance(&same).unwrap();
        assert!(
            diff > 2.0 * same + 0.1,
            "different colors must be farther apart: diff {diff} same {same}"
        );
    }

    #[test]
    fn distance_is_symmetric_and_bounded() {
        let (fa, bbox) = render_vehicle(1, 1);
        let (fb, _) = render_vehicle(7, 2);
        let cfg = HistogramConfig::default();
        let ha = ColorHistogram::extract(&fa, &bbox, &cfg);
        let hb = ColorHistogram::extract(&fb, &bbox, &cfg);
        let d1 = ha.bhattacharyya_distance(&hb).unwrap();
        let d2 = hb.bhattacharyya_distance(&ha).unwrap();
        assert!((d1 - d2).abs() < 1e-12);
        assert!((0.0..=1.0).contains(&d1));
    }

    #[test]
    fn empty_region_is_uniform() {
        let frame = Frame::filled(16, 16, Rgb::new(100, 100, 100));
        // Box entirely outside the frame.
        let bbox = BoundingBox::new(100.0, 100.0, 120.0, 120.0).unwrap();
        let h = ColorHistogram::extract(&frame, &bbox, &HistogramConfig::default());
        assert_eq!(h, ColorHistogram::uniform(8));
    }

    #[test]
    fn inverted_box_is_uniform() {
        // The fields are public, so a caller can build x0 > x1.
        let frame = Frame::filled(16, 16, Rgb::new(100, 100, 100));
        let mut bbox = BoundingBox::new(2.0, 2.0, 10.0, 10.0).unwrap();
        bbox.x0 = 12.0;
        let h = ColorHistogram::extract(&frame, &bbox, &HistogramConfig::default());
        assert_eq!(h, ColorHistogram::uniform(8));
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
        let red_bin = bin_index(Rgb::new(255, 0, 0), 4) as usize;
        let red = |h: &ColorHistogram| {
            h.bins()
                .iter()
                .find(|b| b.0 == red_bin)
                .map_or(0.0, |b| b.1)
        };
        assert!(
            red(&ht) > 0.5,
            "tight sigma should be dominated by center: {}",
            red(&ht)
        );
        // Without center weighting, red covers only 64 of 1024 pixels.
        assert!(red(&hl) < 0.2);
        assert!(red(&hl) < red(&ht));
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
        let sum: f64 = sig.bins().iter().map(|&(_, v)| v).sum();
        assert!((sum - 1.0).abs() < 1e-9);
        // Mean signature is close to both constituents.
        assert!(sig.bhattacharyya_distance(&ha).unwrap() < 0.2);
        assert!(sig.bhattacharyya_distance(&hb).unwrap() < 0.2);
    }

    #[test]
    fn accumulating_sparse_matches_accumulating_dense() {
        let cfg = HistogramConfig::default();
        let mut scratch = HistogramScratch::new();
        let (mut sparse, mut dense) = (SignatureAccumulator::new(), SignatureAccumulator::new());
        for frame_seed in 1..4 {
            let (frame, bbox) = render_vehicle(4, frame_seed);
            ColorHistogram::extract_into(&frame, &bbox, &cfg, &mut scratch);
            dense.add_bins(scratch.bins(), cfg.bins_per_channel);
            sparse.add(&ColorHistogram::extract(&frame, &bbox, &cfg));
        }
        assert_eq!(sparse, dense);
        assert_eq!(sparse.signature(), dense.signature());
    }

    #[test]
    fn from_bins_rejects_malformed_signatures() {
        let h = ColorHistogram::from_bins(2, vec![0.0, 0.5, 0.0, 0.0, 0.0, 0.25, 0.25, 0.0]);
        assert_eq!(h.unwrap().bins(), &[(1, 0.5), (5, 0.25), (6, 0.25)]);
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
        assert_eq!(
            ColorHistogram::from_bins(2, vec![0.0; 8]),
            Err(HistogramError::Empty)
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
    fn from_sparse_rejects_malformed_signatures() {
        let ok = vec![(1, 0.5), (5, 0.5)];
        assert!(ColorHistogram::from_sparse(2, ok).is_ok());
        let rejects = |bins_per_channel, bins: Vec<(usize, f64)>, want| {
            assert_eq!(
                ColorHistogram::from_sparse(bins_per_channel, bins),
                Err(want)
            );
        };
        rejects(0, vec![(0, 1.0)], HistogramError::BinsPerChannel(0));
        rejects(
            1 << 22,
            vec![(0, 1.0)],
            HistogramError::BinsPerChannel(1 << 22),
        );
        rejects(2, vec![], HistogramError::Empty);
        rejects(2, vec![(5, 0.5), (1, 0.5)], HistogramError::Order(1));
        rejects(2, vec![(1, 0.5), (1, 0.5)], HistogramError::Order(1));
        let out_of_range = HistogramError::OutOfRange { index: 8, cells: 8 };
        rejects(2, vec![(1, 0.5), (8, 0.5)], out_of_range);
        rejects(2, vec![(1, 0.5), (3, 0.0)], HistogramError::Bin(3));
        rejects(2, vec![(1, 0.5), (3, -0.5)], HistogramError::Bin(3));
        rejects(2, vec![(1, f64::NAN)], HistogramError::Bin(1));
    }

    #[test]
    fn wire_form_is_sparse_and_decode_validates() {
        let h = ColorHistogram::from_sparse(2, vec![(1, 0.5), (6, 0.5)]).unwrap();
        let json = serde_json::to_string(&h).unwrap();
        assert_eq!(json, r#"{"bins_per_channel":2,"bins":[[1,0.5],[6,0.5]]}"#);
        assert_eq!(serde_json::from_str::<ColorHistogram>(&json).unwrap(), h);
        for bad in [
            json.replacen("0.5", "-0.5", 1),
            json.replacen("[6,", "[1,", 1),
            json.replacen("[6,", "[8,", 1),
            json.replacen("[[1,0.5],[6,0.5]]", "[]", 1),
        ] {
            assert!(
                serde_json::from_str::<ColorHistogram>(&bad).is_err(),
                "{bad}"
            );
        }
    }

    #[test]
    fn different_bins_per_channel_are_not_comparable() {
        let a = ColorHistogram::uniform(4);
        let b = ColorHistogram::uniform(8);
        assert_eq!(a.bhattacharyya_distance(&b), None);
        assert_eq!(a.bhattacharyya_coefficient(&b), None);
        assert!(a.bhattacharyya_distance(&a).is_some());
    }
}
